"""Resource guards, one row each; ``python tests/guards.py`` runs them (see README).

A row runs the CLI on ``argv``, or ``program`` after PRELUDE, in a fresh ``python -I``
child killed at ``s`` seconds.  It must exit with ``code``, peak under ``mb`` and match
``out`` and ``err``, each where given: the stream less its trailing newlines, ``*``
standing for any text."""
import json
import os
import re
import signal
import sys
import tempfile
import threading
import time

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
CLI = "from whiteprod.cli import main\nsys.exit(main())"
PRELUDE = """from importlib import resources
import whiteprod as W
ref = resources.files("whiteprod").joinpath("data/toda-core.rel")
db = W.load_relations_text(ref.read_text(encoding="utf-8"))
"""
CHAIN = "nu_7 . nu_10 . nu_13 . nu_16 . nu_19 . nu_22 . nu_25"
SUM300 = " + ".join(f"[{k} iota_4, iota_4]" for k in range(1, 301))
TWOS, ONES = ",".join(["2"] * 24), ",".join(["1"] * 3000)

GUARDS = [
    dict(name="eta_4^10000", argv=["eval", "eta_4^10000"], s=30, code=0, out="0"),
    dict(name="(nu_4 + Snu')^8", argv=["eval", "(nu_4 + Snu')^8"], s=5, code=3,
         out=f"3 (Snu' . {CHAIN}) + 11 (nu_4 . {CHAIN})\n*"),
    dict(name="300-bracket sum", argv=["eval", SUM300], s=10, code=0,
         out="90300 nu_4 + 2 Snu'"),
    dict(name="eta_4^100000000", argv=["eval", "eta_4^100000000"], s=5, code=2,
         err="error: a formal sum of 100000000 atoms exceeds FLATTEN_LIMIT*"),
    dict(name="LIST_LIMIT listing", s=5, code=2, err="error: listing *LIST_LIMIT*",
         argv=["fatwedge", "--dims", TWOS, "--levels", "0,23"]),
    dict(name="large dimensions", argv=["fatwedge", "--dims", "1000000000000000000,3",
         "--levels", "0,1"], s=5, code=0, out="*\nbetti: {1000000000000000003: 1}"),
    dict(name="obstruction witness", argv=["fatwedge", "--dims", ONES, "--obstruction"],
         s=5, code=0, out="witness: {'left': [1, 2], 'right': [3, 4, *"),
    dict(name="omega witness", argv=["fatwedge", "--dims", ONES, "--omega"], s=5,
         code=0, out="witness: {'left': [1], 'right': [2, 3, *"),
    dict(name="three eta_n^99999", s=10, mb=100, code=0, program="""
for n in (4, 100004, 200004): W.evaluate(W.parse(f"eta_{n}^99999"), db)"""),
    dict(name="100,000 brackets", s=20, mb=40, code=0, program="""
iota = W.parse("iota_4")
for k in range(1, 100001): W.bracket(W.parse(f"{k} iota_4"), iota, db)"""),
    dict(name="100,000 eta_n", s=20, mb=40, code=0, program="""
for n in range(4, 100004): W.evaluate(W.parse(f"eta_{n}"), db)"""),
    dict(name="nu'^200000", s=10, mb=80, code=0, out="0",
         program="""print(W.evaluate(W.parse("nu'^200000"), db).display())"""),
]


def run(row):
    """Run ``row`` in a fresh child: exit code (-9 if killed), stdout, stderr, s, MB."""
    body = PRELUDE + row["program"] if "program" in row else CLI
    argv = [sys.executable, "-I", "-c",
            f"import sys\nsys.path.insert(0, {SRC!r})\n{body}", *row.get("argv", ())]
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        dup2 = [(os.POSIX_SPAWN_DUP2, f.fileno(), fd) for f, fd in ((out, 1), (err, 2))]
        start = time.monotonic()
        pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=dup2)
        killer = threading.Timer(row["s"], os.kill, (pid, signal.SIGKILL))
        killer.start()
        _, status, usage = os.wait4(pid, 0)
        seconds = time.monotonic() - start
        killer.cancel()
        texts = [f.seek(0) or f.read().decode(errors="replace").rstrip("\n")
                 for f in (out, err)]
    return dict(code=os.waitstatus_to_exitcode(status), out=texts[0], err=texts[1],
                seconds=seconds, mb=usage.ru_maxrss / 1024)  # its own peak, KB on Linux


def check(row, res):
    """Yield each way in which the result ``res`` of ``run`` misses ``row``."""
    if res["code"] != row["code"]:
        yield f"exit code {res['code']}, not {row['code']}"
    for key in ("out", "err"):
        regex = ".*".join(map(re.escape, row.get(key, "*").split("*")))
        if not re.fullmatch(regex, res[key], re.S):
            yield f"std{key} {res[key][:80]!r} does not match {row[key][:80]!r}"
    if res["seconds"] >= row["s"]:
        yield f"{res['seconds']:.2f} s is not under {row['s']} s"
    if res["mb"] >= row.get("mb", float("inf")):
        yield f"{res['mb']:.1f} MB is not under {row['mb']} MB"


def main():
    failed = False
    for row in GUARDS:
        res = run(row)
        problems = list(check(row, res))
        failed |= bool(problems)
        print(json.dumps({"name": row["name"], "seconds": round(res["seconds"], 2),
                          "mb": round(res["mb"], 1), "seconds_bound": row["s"],
                          "mb_bound": row.get("mb"), "problems": problems}), flush=True)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
