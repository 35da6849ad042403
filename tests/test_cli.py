"""CLI behavior: exit codes, output formats, stability."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from test_relfile import PRELUDE
from whiteprod.cli import main
from whiteprod.parser import MAX_NESTING


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_resolved(capsys):
    code, out, _ = run(capsys, "eval", "[eta_4, eta_4^2]")
    assert code == 0 and out.strip() == "0"


def test_eval_eta_cube(capsys):
    code, out, _ = run(capsys, "eval", "eta_5^3")
    assert code == 0 and out.strip() == "4 nu_5"


def test_eval_identity(capsys):
    code, out, _ = run(capsys, "eval", "iota_4 . iota_4")
    assert code == 0 and out.strip() == "iota_4"


def test_eval_long_composition(capsys):
    # the Expr walks loop over a left-nested composition instead of
    # recursing once per factor
    code, out, _ = run(capsys, "eval", " . ".join(["iota_4"] * 3000))
    assert code == 0 and out.strip() == "iota_4"


def test_eval_long_power(capsys):
    # each factor S^(j d) eta_4 jumps along the family in one step, so ten
    # thousand factors answer in well under a second
    code, out, _ = run(capsys, "eval", "eta_4^10000")
    assert code == 0 and out.strip() == "0"


def test_eval_trace_cites_relations(capsys):
    code, out, _ = run(capsys, "eval", "[eta_4, eta_4^2]", "--trace")
    assert code == 0
    assert "toda (5.10)" in out and "toda (5.9)" in out and "toda (5.5)" in out


def test_eval_parse_error_exit_1(capsys):
    code, _, err = run(capsys, "eval", "eta_4 . [")
    assert code == 1 and "syntax error" in err


def test_eval_typecheck_error_exit_2(capsys):
    code, _, err = run(capsys, "eval", "eta_4 . eta_4")
    assert code == 2 and "type error" in err


def test_eval_unknown_generator_exit_2(capsys):
    code, _, err = run(capsys, "eval", "zeta_9")
    assert code == 2


def test_eval_residue_exit_3(capsys):
    code, out, _ = run(capsys, "eval", "eta_6 . eta_7")
    assert code == 3 and "unresolved" in out


def test_eval_missing_relations_file_exit_4(capsys):
    code, _, err = run(capsys, "--relations", "/nonexistent.rel",
                       "eval", "eta_5^3")
    assert code == 4


@pytest.mark.parametrize("line,message", [
    ("gen x_1 dom=1 cod=S1 order=-1", "negative order for x_1"),
    ("gen x_4 dom=8 cod=S4 order=2 susp_of=zeta_3",
     "susp_of references undeclared 'zeta_3'"),
    ("orderfact zeta_4 = 2", "undeclared generator 'zeta_4'"),
    ("gen x_1 dom=1 cod=S\u00b2 order=0", "cannot parse space tag"),
])
def test_malformed_relations_file_exit_4(tmp_path, capsys, line, message):
    rel = tmp_path / "bad.rel"
    rel.write_text(PRELUDE + line + "\n", encoding="utf-8")
    lineno = PRELUDE.count("\n") + 1
    code, _, err = run(capsys, "--relations", str(rel), "eval", "eta_4")
    assert code == 4
    assert err.startswith(f"error: {rel}:{lineno}: ") and message in err


# each form nested MAX_NESTING deep, and the exit code eval gives it there
NESTED = {
    "parentheses": (lambda n: "(" * n + "eta_4" + ")" * n, 0),
    "brackets": (lambda n: "[" * n + "0 iota_4" + ", iota_4]" * n, 0),
    "scalars": (lambda n: "2 (" * n + "eta_4" + ")" * n, 0),
    "suspensions": (lambda n: "S " * n + "eta_4", 3),
    "products": (lambda n: "w[" * n + "iota_2" + ", iota_2]" * n, 3),
}


@pytest.mark.parametrize("form", sorted(NESTED))
def test_eval_nesting_limit(capsys, form):
    build, code_at_limit = NESTED[form]
    code, _, _ = run(capsys, "eval", build(MAX_NESTING))
    assert code == code_at_limit
    code, _, err = run(capsys, "eval", build(MAX_NESTING + 1))
    assert code == 1
    assert f"nesting deeper than {MAX_NESTING} levels" in err


def test_scenario_pass(capsys):
    code, out, _ = run(capsys, "scenario", "prop-3.2")
    assert code == 0 and "prop-3.2: pass" in out


def test_scenario_all(capsys):
    code, out, _ = run(capsys, "scenario", "all")
    assert code == 0
    assert out.count(": pass") == 9


def test_scenario_all_json_is_pinned(capsys):
    # the nine scenarios' JSON output, byte for byte
    code, out, _ = run(capsys, "--format", "json", "scenario", "all")
    pinned = Path(__file__).parent / "data" / "scenario-all.json"
    assert code == 0
    assert out.encode("utf-8") == pinned.read_bytes()


def test_scenario_unknown_exit_4(capsys):
    code, _, err = run(capsys, "scenario", "prop-9.9")
    assert code == 4 and "unknown scenario" in err


def test_scenario_type_error_exit_2(tmp_path, capsys):
    # prop-3.2 uses Snu', which the prelude does not declare
    rel = tmp_path / "prelude.rel"
    rel.write_text(PRELUDE, encoding="utf-8")
    code, _, err = run(capsys, "--relations", str(rel), "scenario", "prop-3.2")
    assert code == 2 and "type error" in err and "Snu'" in err


def test_fatwedge_obstruction(capsys):
    code, out, _ = run(capsys, "fatwedge", "--dims", "2,2,2,2",
                       "--obstruction")
    assert code == 0 and "[1, 2]" in out


def test_fatwedge_levels(capsys):
    code, out, _ = run(capsys, "fatwedge", "--r", "4", "--dims", "1,1,1,1",
                       "--levels", "1,3")
    assert code == 0 and "10 classes" in out


def test_fatwedge_omega(capsys):
    code, out, _ = run(capsys, "--format", "json", "fatwedge", "--dims",
                       "3,5", "--omega")
    assert code == 0
    payload = json.loads(out)
    assert payload["witness"]["left"] == [1]


def test_fatwedge_bad_levels_exit_2(capsys):
    code, _, err = run(capsys, "fatwedge", "--dims", "2,2", "--levels", "1,1")
    assert code == 2
    code, _, err = run(capsys, "fatwedge", "--dims", "2,2,2", "--r", "4",
                       "--levels", "0,1")
    assert code == 2
    code, _, err = run(capsys, "fatwedge", "--dims", "2,2")
    assert code == 2


def test_tables_dump(capsys):
    code, out, _ = run(capsys, "tables")
    assert code == 0
    assert "group S4 k=14 partial=2 = Z8{nu_4 . sigma'}" in out


def test_json_output_is_stable(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "--format", "json", "scenario", "prop-3.2")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    payload = json.loads(outs[0])
    assert payload["status"] == "pass"
    assert payload["computed"]["J_order"] == 15


def test_json_output_stable_across_processes():
    import subprocess
    import sys
    cmd = [sys.executable, "-m", "whiteprod.cli", "--format", "json",
           "scenario", "prop-3.2"]
    runs = [subprocess.run(cmd, capture_output=True, check=True).stdout
            for _ in range(2)]
    assert runs[0] == runs[1]


def test_json_eval_payload(capsys):
    code, out, _ = run(capsys, "--format", "json", "eval", "eta_5^3",
                       "--trace")
    payload = json.loads(out)
    assert payload["display"] == "4 nu_5"
    assert any(s["rule"] == "relation" for s in payload["trace"])


def test_custom_relations_file(tmp_path, capsys):
    rel = tmp_path / "tiny.rel"
    rel.write_text("""
gen iota_1 dom=1 cod=S1 order=0
family iota base=1 order=0
gen eta_2 dom=3 cod=S2 order=0
group S2 k=3 = Z{eta_2}
""", encoding="utf-8")
    code, out, _ = run(capsys, "--relations", str(rel), "eval", "2 eta_2")
    assert code == 0 and out.strip() == "2 eta_2"


# --- fuzz: every input ends in a documented exit code, never an exception

_NAMES = ["iota_2", "iota_4", "eta_2", "eta_4", "eta_5", "nu_4", "nu_5",
          "sigma_8", "mu_3", "alpha1(3)", "nu'", "Snu'", "eps'", "sigma'",
          "gamma_2R", "zeta_9", "eta_1", "x'"]


def _grammar(depth):
    atoms = st.sampled_from(_NAMES + ["0"])
    if depth == 0:
        return atoms
    sub = _grammar(depth - 1)
    pair = st.tuples(sub, sub)
    return st.one_of(
        atoms,
        pair.map(lambda p: f"{p[0]} . {p[1]}"),
        st.tuples(sub, st.sampled_from("+-"), sub).map(" ".join),
        st.tuples(st.integers(0, 24), sub).map(lambda p: f"{p[0]} {p[1]}"),
        sub.map(lambda e: f"-{e}"),
        st.tuples(st.sampled_from(["S", "S^2"]), sub).map(" ".join),
        pair.map(lambda p: f"[{p[0]}, {p[1]}]"),
        st.lists(sub, min_size=2, max_size=3).map(
            lambda xs: "w[" + ", ".join(xs) + "]"),
        sub.map(lambda e: f"({e})"),
        st.tuples(st.sampled_from(_NAMES), st.integers(2, 4)).map(
            lambda p: f"{p[0]}^{p[1]}"),
        st.tuples(sub, st.integers(2, 4)).map(lambda p: f"({p[0]})^{p[1]}"),
    )


_TOKENS = _NAMES + ["0", "2", "S", "S^2", "w[", ".", "o", "+", "-", "*",
                    "[", "]", "(", ")", ",", "^", "^2", "!", "\u03b7\u2084",
                    "\u2075"]
_EVAL_INPUTS = st.one_of(
    _grammar(3), st.lists(st.sampled_from(_TOKENS), max_size=12).map(" ".join))


def _quiet_main(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(argv)


@given(_EVAL_INPUTS)
@settings(max_examples=150, deadline=None)
def test_eval_fuzz_ends_in_a_documented_code(text):
    # "--" keeps a leading "-" from reading as an option
    assert _quiet_main(["eval", "--", text]) in (0, 1, 2, 3)


_DIM = st.one_of(st.integers(-1, 4).map(str), st.sampled_from(["", "x", "1.5"]))


@given(st.lists(_DIM, max_size=8).map(",".join),
       st.sampled_from([[], ["--obstruction"], ["--omega"]]),
       st.one_of(st.none(), st.text("0123456789,- x", max_size=6)),
       st.one_of(st.none(), st.integers(-1, 9)))
@settings(max_examples=150, deadline=None)
def test_fatwedge_fuzz_ends_in_a_documented_code(dims, mode, levels, r):
    argv = ["fatwedge", f"--dims={dims}"] + mode
    if levels is not None:
        argv.append(f"--levels={levels}")
    if r is not None:
        argv.append(f"--r={r}")
    assert _quiet_main(argv) in (0, 2)


def nested_iota(n: int) -> str:
    return "[" * n + "iota_4" + ", iota_4]" * n


@pytest.mark.parametrize("n", [14, 30])
def test_eval_nested_brackets_resolve(capsys, n):
    code, out, _ = run(capsys, "eval", nested_iota(n))
    assert code == 0 and out.strip() == "0"


def test_eval_bracket_depth_limit_is_named(capsys, monkeypatch):
    from whiteprod import whitehead as W
    monkeypatch.setattr(W, "_MAX_DEPTH", 6)
    code, out, err = run(capsys, "eval", nested_iota(8))
    assert code == 2 and out == ""
    assert "depth limit of 6" in err


def test_eval_step_limit_names_the_input_size(capsys):
    # (nu_4 + Snu')^12 flattens to 4,096 chains of 12 atoms; the message
    # names that size and the limit instead of printing the sum
    code, out, err = run(capsys, "eval", "(nu_4 + Snu')^12")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and len(err.encode()) < 300
    assert "STEP_LIMIT" in err and "4096 chains, 49152 atoms" in err
