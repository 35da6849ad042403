"""Run one workload of the whiteprod benchmark and print its metrics.

    python3 bench/run.py --workload eval-mix --seed 1 --seconds 10 --trace 0

The program under test is the whiteprod source tree in src/ next to this
directory; nothing is installed.  One process and one thread drive the
public API in a closed loop: the next operation starts when the previous
one has returned.  Each operation is timed alone and its output is checked
after the clock stops.  Runs attempt whole rounds until the timed
operations add up to --seconds.  With --trace 1 the run instead makes the
workload's fixed number of rounds with spans recorded (see tracer.py), so
that its counts repeat exactly, and writes the spans under bench/results/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
RESULTS = os.path.join(HERE, "results")
SETUP_SAMPLES = 11
WALL_LIMIT_S = 150.0

# The set-up a user of the library pays in a fresh process: import the
# package and load the shipped relations file.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import whiteprod
from importlib import resources
text = resources.files("whiteprod").joinpath("data/toda-core.rel").read_text(encoding="utf-8")
whiteprod.load_relations_text(text, "toda-core.rel")
print(time.perf_counter() - t0)
"""


def import_program():
    """Import whiteprod from src/ beside this directory, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "whiteprod", "__init__.py")):
        raise SystemExit(f"bench: no whiteprod sources under {SRC}")
    sys.path.insert(0, SRC)
    import whiteprod
    import whiteprod.cli  # noqa: F401  (the scenario operation drives it)
    if not os.path.abspath(whiteprod.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: whiteprod came from {whiteprod.__file__}")
    return whiteprod


def load_db(W):
    from importlib import resources
    text = resources.files("whiteprod").joinpath(
        "data/toda-core.rel").read_text(encoding="utf-8")
    return W.load_relations_text(text, "toda-core.rel")


def setup_seconds() -> float:
    """Median set-up time over fresh interpreters, each timing itself."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, SRC],
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def percentile(sorted_values, pct: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = pct / 100 * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def drive(workload, seconds: float, tracer=None):
    """Run whole rounds.  Returns the latencies in ns, the failures as
    (raised, message), the trace-step rule counts and the rounds made."""
    latencies = array("q")
    failures: list = []
    rules: Counter = Counter()
    timed = 0
    wall0 = time.monotonic()
    rounds = 0
    while True:
        if tracer is not None:
            if rounds == workload.trace_rounds:
                break
        elif timed >= seconds * 1e9 or time.monotonic() - wall0 > WALL_LIMIT_S:
            break
        for item in workload.round(rounds):
            if tracer is not None:
                tracer.op_id = len(latencies)
                tracer.enabled = True
                root = tracer.open(tracer.name_id("op"))
            error, raised = None, False
            t0 = time.perf_counter_ns()
            try:
                out = workload.run(item)
            except Exception as exc:  # a failed operation, counted below
                error, raised = f"{type(exc).__name__}: {exc}", True
            dt = time.perf_counter_ns() - t0
            if tracer is not None:
                tracer.close(root)
                tracer.enabled = False
            latencies.append(dt)
            timed += dt
            if error is None:
                error = workload.check(item, out) or workload.extra(item, out)
                if tracer is not None:
                    rules.update(step.rule for step in workload.steps(item, out))
            if error is not None:
                failures.append((raised, error))
        rounds += 1
    return latencies, failures, rules, rounds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    W = import_program()
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    ref = checks.Reference()

    tracer = None
    if args.trace:
        import tracer as T
        tracer = T.Tracer()
        tracer.install()
        tracer.enabled = True
    db = load_db(W)
    if tracer is not None:
        tracer.enabled = False
    workload = workloads.WORKLOADS[args.workload](args.seed, ref, W, db)

    setup_s = None if tracer is not None else setup_seconds()
    wall0 = time.monotonic()
    latencies, failures, rules, rounds = drive(workload, args.seconds, tracer)
    wall = time.monotonic() - wall0
    # read before the statistics below allocate their own copies
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for _, msg in failures[:20]:
        print(f"bench: FAILED {msg}", file=sys.stderr)
    result = {"correct": not any(not raised for raised, _ in failures),
              "attempted": len(latencies),
              "failed": len(failures)}

    if tracer is not None:
        metrics = T.layer_metrics(tracer, rules)
        os.makedirs(RESULTS, exist_ok=True)
        path = os.path.join(RESULTS, f"spans-{args.workload}-{args.seed}.bin")
        tracer.write(path)
        print(f"bench: {args.workload} traced {rounds} rounds, "
              f"{len(latencies)} ops at {len(latencies) / sum(latencies) * 1e9:.2f}"
              f" ops/s, {len(tracer.name)} spans -> {path}", file=sys.stderr)
    else:
        ordered = sorted(latencies)
        tail = percentile(ordered, workload.tail_pct)
        beyond = sum(1 for v in ordered if v > tail)
        timed_s = sum(latencies) / 1e9
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(latencies) / timed_s, "ops/s"),
            "latency_p50_ms": (percentile(ordered, 50) / 1e6, "ms"),
            "latency_tail_ms": (tail / 1e6, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(f"bench: {args.workload} seed {args.seed}: {rounds} rounds, "
              f"{len(latencies)} ops in {timed_s:.2f} s timed / {wall:.2f} s "
              f"wall; tail = p{workload.tail_pct:g} with {beyond} samples "
              f"beyond it", file=sys.stderr)
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in metrics.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
