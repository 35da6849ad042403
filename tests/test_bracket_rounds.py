"""Bracket expansion in rounds: the depth limit counts nesting only, the
rounds are bounded by STEP_LIMIT, and every answer matches the recursive
expansion the rounds replaced."""

from importlib import resources
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_cli import nested_iota
from test_rewrite import _shipped_db
from test_trace_pins import EVAL_CORPUS
from test_worklist import _signed_sum
from whiteprod import relations
from whiteprod import rewrite as R
from whiteprod import whitehead as W
from whiteprod.cli import main
from whiteprod.errors import CalcError, DepthLimitExceeded, StepLimitExceeded
from whiteprod.parser import parse

DB = _shipped_db()


def wide_sum(n: int) -> str:
    """[k iota_4, iota_4] for k = 1..n: nesting depth 1, n brackets."""
    return " + ".join(f"[{k} iota_4, iota_4]" for k in range(1, n + 1))


# ---------------------------------------------------------------------------
# the reference: after each replaced bracket, evaluate the whole sum again
# one level deeper


def _recursive_expand_brackets(nf, db, trace, depth):
    if nf.is_resolved or not nf.fs:
        return nf
    for ch in sorted(nf.fs, key=R.Chain.key):
        for i, atom in enumerate(ch.atoms):
            if not isinstance(atom, R.BracketAtom):
                continue
            single = R.Chain((atom,), atom.dom, atom.space)
            nf_f, nf_g = (W.evaluate_fs(dict(arg), arg[0][0].signature, db,
                                        trace=trace, _depth=depth + 2)
                          for arg in (atom.left, atom.right))
            value = W._bracket_nf(nf_f, nf_g, single.signature, db, trace,
                                  depth + 1, single).fs
            if value == {single: 1}:
                continue
            out = R.splice(ch, i, i + 1, value)
            if out is None:
                return R.residue(nf.fs, nf.signature, "blocked-linearity",
                                 trace)
            rest = {w: c for w, c in nf.fs.items() if w != ch}
            fs = R.fs_add(rest, R.fs_scale(out, nf.fs[ch]))
            return W.evaluate_fs(fs, nf.signature, db, trace=trace,
                                 _depth=depth + 1)
    return nf


def _outcome(run):
    """A normal form with its reason code and every step's JSON, or the
    error an input ends in."""
    trace = []
    try:
        nf = run(trace)
    except CalcError as e:
        return type(e).__name__, str(e)
    return nf, nf.display(), nf.reason_code, [s.to_json() for s in trace]


def _agree(run):
    got = _outcome(run)
    with mock.patch.object(W, "_expand_brackets", _recursive_expand_brackets):
        want = _outcome(run)
    assert got == want
    return got


def _agree_eval(text, db=DB):
    e = parse(text)  # outside _outcome: a syntax error fails the test
    return _agree(lambda trace: W.evaluate(e, db, trace=trace))


# ---------------------------------------------------------------------------
# width no longer spends depth


@pytest.mark.parametrize("n", [230, 400])
def test_a_wide_sum_of_brackets_resolves(n):
    nf = W.evaluate(parse(wide_sum(n)), DB)
    alone = W.evaluate(parse(f"{n * (n + 1) // 2} [iota_4, iota_4]"), DB)
    assert nf.is_resolved and alone.is_resolved
    assert nf.element == alone.element


def test_the_depth_limit_counts_nesting_not_width(monkeypatch):
    monkeypatch.setattr(W, "_MAX_DEPTH", 6)
    nf = W.evaluate(parse(wide_sum(50)), DB)
    assert nf.is_resolved
    assert nf.element == W.evaluate(parse("1275 [iota_4, iota_4]"),
                                    DB).element
    with pytest.raises(DepthLimitExceeded, match="depth limit of 6"):
        W.evaluate(parse(nested_iota(8)), DB)


# ---------------------------------------------------------------------------
# a relation whose right side holds a bracket can cycle: STEP_LIMIT stops it

CYCLE = "rel eta_3 . Snu' . eta_7 . eta_8 = eta_3 . [eta_4, eta_4] " \
    "src=\"cycle\"\n"


def _cycle_text() -> str:
    return resources.files("whiteprod").joinpath(
        "data/toda-core.rel").read_text(encoding="utf-8") + CYCLE


def test_cycling_bracket_expansion_stops_at_the_step_limit(monkeypatch):
    monkeypatch.setattr(R, "STEP_LIMIT", 40)
    db = relations.load_relations_text(_cycle_text(), "cycle.rel")
    with pytest.raises(StepLimitExceeded, match="STEP_LIMIT") as info:
        W.evaluate(parse("eta_3 . [eta_4, eta_4]"), db)
    assert "40 rounds" in str(info.value)
    assert "1 chains, 2 atoms" in str(info.value)


def test_cycling_bracket_expansion_exits_2(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(R, "STEP_LIMIT", 40)
    path = tmp_path / "cycle.rel"
    path.write_text(_cycle_text(), encoding="utf-8")
    code = main(["--relations", str(path), "eval", "eta_3 . [eta_4, eta_4]"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "STEP_LIMIT" in err


# ---------------------------------------------------------------------------
# the rounds against the recursion, on inputs under the recursion's limit


def test_rounds_match_the_recursion_on_the_eval_corpus():
    for text in EVAL_CORPUS:
        _agree_eval(text)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 60, 197])
def test_rounds_match_the_recursion_on_wide_sums(n):
    _agree_eval(wide_sum(n))


def test_rounds_match_the_recursion_on_nests():
    for n in range(1, 41):
        _agree_eval(nested_iota(n))


# [nu', iota_3] has no rule; the brackets beside it expand
MIXED = [
    "[nu', iota_3] + [eta_3, eta_3 . eta_4]",
    "[iota_3, nu'] + 2 [eta_3 . eta_4, eta_3]",
    "[nu', 2 iota_3] + [eta_3 . eta_4, eta_3]",
    "3 [nu', iota_3] - [eta_3, eta_3^2]",
    "[nu', iota_3] + [eta_3^2, eta_3] + [iota_3, nu']",
    "[eta_3, eta_3^2] + [nu', iota_3] + [eta_3^2, eta_3]",
    "[nu', iota_3] + [iota_3, iota_3] . eta_5^3",
    "[nu', iota_3] - [iota_3, nu'] + [eta_3, eta_3^2]",
]


def test_rounds_match_the_recursion_on_mixed_sums():
    for text in MIXED:
        _agree_eval(text)


def test_rounds_match_the_recursion_on_scenario_traces(capsys):
    def run():
        code = main(["--format", "json", "scenario", "all", "--trace"])
        return code, capsys.readouterr().out

    got = run()
    with mock.patch.object(W, "_expand_brackets", _recursive_expand_brackets):
        want = run()
    assert got == want


# brackets of one signature each, by target group
POOLS = [
    ["[{} iota_4, {} iota_4]"],
    ["[{} eta_4, {} eta_4^2]", "[{} Snu', {} iota_4]", "[{} nu_4, {} iota_4]",
     "[{} eta_4^2, {} eta_4]", "[{} alpha1(4), {} iota_4]"],
    ["[{} nu_4^2, {} eta_4]", "[{} nu_4 . eta_7^2, {} eta_4^2]",
     "[{} Snu' . eta_7^2, {} eta_4^2]", "[{} eta_4, {} nu_4^2]"],
    ["[{} nu', {} iota_3]", "[{} eta_3, {} eta_3 . eta_4]",
     "[{} eta_3^2, {} eta_3]"],
    ["[{} iota_2, {} iota_2]"],
]

_COEFF = st.integers(-3, 3).filter(bool)


@st.composite
def _bracket_sums(draw):
    """1-5 scaled brackets of one target group."""
    pool = draw(st.sampled_from(POOLS))
    size = draw(st.integers(1, 5))
    return _signed_sum(
        [draw(_COEFF) for _ in range(size)],
        [draw(st.sampled_from(pool)).format(draw(_COEFF), draw(_COEFF))
         for _ in range(size)])


@settings(max_examples=150, deadline=None)
@given(text=_bracket_sums())
def test_rounds_match_the_recursion_on_random_bracket_sums(text):
    _agree_eval(text)


# table pairs whose brackets resolve: [sum of left, sum of right]
PAIRS = [
    (["nu_4", "Snu'"], ["iota_4"]),
    (["eta_4"], ["eta_4^2"]),
    (["eta_4"], ["eta_4"]),
    (["alpha2(4)", "alpha1'(4)"], ["iota_4"]),
    (["nu_4 . eta_7^2", "Snu' . eta_7^2"], ["eta_4"]),
    (["iota_2"], ["iota_2"]),
]


@st.composite
def _pair_sums(draw):
    left, right = draw(st.sampled_from(PAIRS))
    f, g = (_signed_sum([draw(_COEFF) for _ in side], side)
            for side in (left, right))
    return (g, f) if draw(st.booleans()) else (f, g)


@settings(max_examples=40, deadline=None)
@given(pair=_pair_sums())
def test_rounds_match_the_recursion_on_brackets_of_sums(pair):
    f, g = map(parse, pair)
    _agree(lambda trace: W.bracket(f, g, DB, trace=trace))
