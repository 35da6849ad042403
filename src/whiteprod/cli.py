"""Command-line front end.

    whiteprod eval "[eta_4, eta_4^2]" --trace
    whiteprod scenario prop-3.2
    whiteprod fatwedge --dims 2,2,2,2 --obstruction
    whiteprod tables --format json

Exit codes for ``eval``: 0 resolved, 1 parse error, 2 typecheck error,
calculation limit or a result coefficient too long to print, 3 unresolved
residue (printed), 4 I/O error or malformed relations file (not UTF-8
included).  ``scenario`` exits 1 on a failed expectation, 2 on a
typecheck or other calculation error, 4 on an unknown name, I/O error or
malformed relations file; ``fatwedge`` exits 2 on bad dimensions (not
integers, or below 1), bad levels, a listing of more than
``fatwedge.LIST_LIMIT`` entries (basis subsets, plus their products with
``--products --format json``), or another calculation error.  Its Betti
numbers come from one big-integer product (a dict over degrees when a
dimension is large), so they never list the basis, and the limit is
checked from binomial coefficients before anything is built.  ``main``
maps every error to its code in one place.  Results go to stdout,
diagnostics to stderr; JSON output is stable across runs.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources

from .errors import (BadLevels, CalcError, DegreeMismatch,
                     DisplayLimitExceeded, ExprSyntaxError, MixedTargets,
                     RelationsFileError, UnknownGenerator, UnknownScenario)
from . import whitehead as W
from .parser import parse
from .relations import load_relations, load_relations_text

# ``fatwedge``, ``scenarios`` and ``json`` are imported by the commands
# that use them, so that ``eval`` never loads them.


def _load_db(path: str | None):
    if path is None:
        ref = resources.files("whiteprod").joinpath("data/toda-core.rel")
        return load_relations_text(ref.read_text(encoding="utf-8"),
                                   "toda-core.rel")
    return load_relations(path)


def _emit(obj, fmt: str, text_lines) -> None:
    if fmt == "json":
        import json
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_eval(args) -> int:
    db = _load_db(args.relations)
    expr = parse(args.expr)
    trace: list = []
    nf = W.evaluate(expr, db, trace=trace)
    try:
        payload = nf.to_json()
        if args.trace:
            payload["trace"] = [s.to_json() for s in trace]
        lines = [nf.display()]
        if not nf.is_resolved:
            lines.append(f"unresolved: {nf.reason}")
        if args.trace:
            lines.append("trace:")
            for s in trace:
                prov = f"   [{s.provenance}]" if s.provenance else ""
                lines.append(f"  {s.rule}: {s.detail}{prov}")
                lines.append(f"      {s.before}  ==>  {s.after}")
        _emit(payload, args.format, lines)
    except ValueError as exc:
        # only str() of an int past sys.get_int_max_str_digits() is caught
        if "integer string conversion" not in str(exc):
            raise
        raise DisplayLimitExceeded(
            "a coefficient of the result has more digits than Python's "
            f"limit of {sys.get_int_max_str_digits()} for printing an "
            "integer (sys.set_int_max_str_digits)") from None
    return 0 if nf.is_resolved else 3


def _cmd_scenario(args) -> int:
    from .scenarios import run_scenarios, scenario_names
    db = _load_db(args.relations)
    names = scenario_names() if args.name == "all" else [args.name]
    results = run_scenarios(db, names)
    payload = [r.to_json(with_trace=args.trace) for r in results]
    lines = []
    for r in results:
        lines.append(f"{r.name}: {'pass' if r.passed else 'FAIL'}")
        if not r.passed:
            for m in r.mismatches:
                lines.append(f"  {m['key']}: expected {m['expected']!r}, "
                             f"computed {m['computed']!r}")
    _emit(payload if len(payload) > 1 else payload[0], args.format, lines)
    return 0 if all(r.passed for r in results) else 1


def _ints(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise BadLevels(str(exc)) from None


def _cmd_fatwedge(args) -> int:
    from . import fatwedge as F
    dims = _ints(args.dims)
    tup = F.sphere_tuple(*dims)
    if args.r is not None and args.r != tup.r:
        raise BadLevels(f"--r {args.r} disagrees with {tup.r} dims")
    if args.obstruction or args.omega:
        w = (F.retraction_obstruction(tup) if args.obstruction
             else F.omega_nontriviality(tup))
        witness = w.to_json() if w else None
        payload = {"dims": list(dims), "witness": witness}
        lines = [f"witness: {witness or 'none'}"]
    else:
        if args.levels is None:
            raise BadLevels("choose --levels A,B, --obstruction or --omega")
        levels = _ints(args.levels)
        if len(levels) != 2:
            raise BadLevels(f"--levels wants A,B, got {args.levels!r}")
        ring = F.ring(*levels, tup)
        if args.format == "json":
            payload, lines = ring.to_json(with_products=args.products), []
        else:  # products are listed in JSON only
            payload = None
            lines = [str(ring)]
            for s in ring.basis:
                lines.append(f"  x{sorted(s)}  degree {ring.degree(s)}")
            lines.append(f"betti: {ring.betti()}")
    _emit(payload, args.format, lines)
    return 0


def _cmd_tables(args) -> int:
    db = _load_db(args.relations)
    keys = sorted(db.tables, key=lambda k: (str(k.target), k.k))
    payload = [db.tables[k].to_json() for k in keys]
    lines = [db.tables[k].to_text() for k in keys]
    _emit(payload, args.format, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="whiteprod",
        description="Whitehead-product calculator for homotopy groups of spheres")
    ap.add_argument("--relations", metavar="FILE", default=None,
                    help="relations file (default: the shipped toda-core.rel)")
    ap.add_argument("--format", choices=("text", "json"), default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="normalize a Toda-notation expression")
    p.add_argument("expr")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("scenario", help="run a named pinned computation")
    p.add_argument("name", help="scenario name, or 'all'")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("fatwedge",
                       help="cohomology of sphere-product filtration quotients")
    p.add_argument("--dims", required=True, help="comma-separated dimensions")
    p.add_argument("--r", type=int, default=None,
                   help="number of factors (consistency check)")
    p.add_argument("--levels", default=None, help="A,B for H*(T_A/T_B)")
    p.add_argument("--obstruction", action="store_true")
    p.add_argument("--omega", action="store_true")
    p.add_argument("--products", action="store_true",
                   help="include the multiplication table in JSON output")
    p.set_defaults(func=_cmd_fatwedge)

    p = sub.add_parser("tables", help="dump the loaded group tables")
    p.set_defaults(func=_cmd_tables)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, RelationsFileError, UnknownScenario) as exc:
        message, code = f"error: {exc}", 4
    except ExprSyntaxError as exc:
        message, code = f"syntax error: {exc}", 1
    except (UnknownGenerator, DegreeMismatch, MixedTargets) as exc:
        message, code = f"type error: {exc}", 2
    except CalcError as exc:
        message, code = f"error: {exc}", 2
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
