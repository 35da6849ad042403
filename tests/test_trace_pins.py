"""Trace output pinned byte for byte: ``scenario all --format json --trace``
and the ``eval --trace`` text of an eval corpus."""

import ast
from pathlib import Path

import pytest

from test_rewrite import SCENARIO_EXPRS
from whiteprod import rewrite as R
from whiteprod import whitehead as W
from whiteprod.cli import main
from whiteprod.parser import parse

DATA = Path(__file__).parent / "data"

# the scenario expressions, the Lemma 3.1 and Prop 3.2 brackets, a power of
# a sum of chains, and residues: chains no table resolves, brackets no rule
# applies to, a composition linearity blocks and a higher product
EVAL_CORPUS = SCENARIO_EXPRS + [
    "[eta_4, eta_4^2]",
    "[eta_4, 2 iota_4]",
    "[eta_4^2, 2 iota_4]",
    "[nu_4 . eta_7^2, eta_4^2]",
    "[Snu' . eta_7^2, eta_4^2]",
    "[nu_4^2, eta_4]",
    "[iota_4, iota_4]",
    "(nu_4 + Snu')^3",
    "eta_3 . nu_4",
    "[nu', iota_3]",
    "[eta_2, iota_2]",
    "(nu_5 + nu_5) . sigma_8",
    "w[eta_4, eta_4^2, 2 iota_4]",
]


def eval_trace_text(capsys) -> str:
    """Each corpus entry's command line, its stdout and its exit code."""
    parts = []
    for text in EVAL_CORPUS:
        code = main(["eval", text, "--trace"])
        out = capsys.readouterr().out
        parts.append(f"$ whiteprod eval {text!r} --trace\n{out}(exit {code})\n")
    return "".join(parts)


def test_scenario_all_trace_json_is_pinned(capsys):
    code = main(["--format", "json", "scenario", "all", "--trace"])
    out = capsys.readouterr().out
    pinned = (DATA / "scenario-all-trace.json").read_bytes()
    assert code == 0
    assert out.encode("utf-8") == pinned


def test_eval_trace_text_is_pinned(capsys):
    pinned = (DATA / "eval-trace.txt").read_bytes()
    assert eval_trace_text(capsys).encode("utf-8") == pinned


# ---------------------------------------------------------------------------
# steps are data: nothing renders until a step is read

def _pinned_traces() -> dict:
    """The trace lines of each corpus entry in the pinned eval text."""
    out = {}
    text = (DATA / "eval-trace.txt").read_text("utf-8")
    for part in text.split("$ whiteprod eval ")[1:]:
        lines = part.splitlines()
        expr = ast.literal_eval(lines[0].rsplit(" --trace", 1)[0])
        out[expr] = lines[lines.index("trace:") + 1:-1]
    return out


def _trace_lines(trace) -> list:
    """``_cmd_eval``'s trace text, read from each step's ``to_json``."""
    lines = []
    for step in trace:
        j = step.to_json()
        prov = f"   [{j['provenance']}]" if j["provenance"] else ""
        lines.append(f"  {j['rule']}: {j['detail']}{prov}")
        lines.append(f"      {j['before']}  ==>  {j['after']}")
    return lines


@pytest.fixture
def render_calls(monkeypatch):
    calls = []
    render = R.render

    def counted(fs):
        calls.append(fs)
        return render(fs)

    monkeypatch.setattr(R, "render", counted)
    return calls


def test_unread_traces_render_nothing(db, render_calls):
    traces = {}
    for text in EVAL_CORPUS:
        traces[text] = []
        W.evaluate(parse(text), db, trace=traces[text])
    spec = W.product_spec(parse("eta_4"), parse("eta_4^2"), parse("2 iota_4"))
    lower: list = []
    assert W.lower_products_vanish(spec, db, trace=lower).kind == "nonempty"
    assert W.triple_coset_constraints(spec, db).kind == "constrained_coset"
    nested = "iota_4"
    for _ in range(100):
        nested = f"[{nested}, iota_4]"
    deep: list = []
    assert W.evaluate(parse(nested), db, trace=deep).is_zero
    assert len(render_calls) == 0

    # read now, every step renders its pinned text
    pinned = _pinned_traces()
    for text, trace in traces.items():
        assert _trace_lines(trace) == pinned[text], text
    pairs = ["[eta_4, eta_4^2]", "[eta_4, 2 iota_4]", "[eta_4^2, 2 iota_4]"]
    assert _trace_lines(lower) == sum((pinned[p] for p in pairs), [])
    assert render_calls


def test_residue_reasons_are_codes(db, render_calls):
    cases = [
        (R.normalize(parse("eta_3 . nu_4"), db), "no-resolution",
         "no table or relation resolves the remaining chains"),
        (R.normalize(parse("(nu_5 + nu_5) . sigma_8"), db),
         "blocked-linearity",
         "sum or multiple cannot cross a non-suspension right factor"),
        (R.normalize(parse("w[eta_4, eta_4^2, 2 iota_4]"), db),
         "higher-product",
         "higher products are set-valued; use the product operations"),
        (W.bracket(parse("(nu_5 + nu_5) . sigma_8"), parse("iota_5"), db),
         "bracket-args", "bracket arguments do not normalize to chains"),
        (W.bracket(parse("nu'"), parse("iota_3"), db), "no-rule",
         "no rule applies to [nu', iota_3]"),
    ]
    assert len(render_calls) == 0  # a residue's reason renders when read
    for nf, code, text in cases:
        assert nf.reason_code == code and nf.reason == text
        payload = nf.to_json()
        assert (payload["reason_code"], payload["reason"]) == (code, text)
    assert "reason_code" not in W.evaluate(parse("eta_5^3"), db).to_json()
