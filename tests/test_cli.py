"""CLI behavior: exit codes, output formats, stability."""

import json

from whiteprod.cli import main


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


def test_scenario_pass(capsys):
    code, out, _ = run(capsys, "scenario", "prop-3.2")
    assert code == 0 and "prop-3.2: pass" in out


def test_scenario_all(capsys):
    code, out, _ = run(capsys, "scenario", "all")
    assert code == 0
    assert out.count(": pass") == 9


def test_scenario_unknown_exit_4(capsys):
    code, _, err = run(capsys, "scenario", "prop-9.9")
    assert code == 4 and "unknown scenario" in err


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
