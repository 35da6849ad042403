"""Bracket work kept per database: the pair memo replays its steps exactly,
the triple-product record outlives its call, both stay within
SHARE_LIMIT, and every ``add_*`` clears them."""

import json
import random
from pathlib import Path

import pytest

from test_rewrite import _shipped_db
from whiteprod import expr as E
from whiteprod import relations
from whiteprod import rewrite as R
from whiteprod import whitehead as W
from whiteprod.cli import main
from whiteprod.errors import CalcError
from whiteprod.parser import parse
from whiteprod.scenarios import run_scenario, scenario_names

DATA = Path(__file__).parent / "data"


def _count_misses(monkeypatch):
    """The (k, u, v) of each pair bracket computed, not replayed."""
    misses = []
    pair_value = W._pair_value

    def counting(k, u, v, db, trace):
        misses.append((k, u, v))
        return pair_value(k, u, v, db, trace)

    monkeypatch.setattr(W, "_pair_value", counting)
    return misses


def _table_pairs(db):
    """Ordered pairs of shipped sphere tables over one target."""
    keys = [k for k in db.tables if k.target.is_sphere and db.basis_chains(k)]
    return [(a, b) for a in keys for b in keys if a.target == b.target]


def _basis_sum(rng, db, key) -> E.Expr:
    terms = [E.Scalar(rng.randint(-6, 6), R.chain_to_expr(ch))
             for ch in db.basis_chains(key) if rng.random() < 0.7]
    return E.Sum(tuple(terms)) if len(terms) > 1 else (
        terms[0] if terms else R.chain_to_expr(db.basis_chains(key)[0]))


def _seeded_brackets(db, seed, n):
    rng = random.Random(seed)
    pairs = _table_pairs(db)
    return [(_basis_sum(rng, db, a), _basis_sum(rng, db, b))
            for a, b in (rng.choice(pairs) for _ in range(n))]


def _bracket_outcome(f, g, db):
    """A bracket's normal form and trace, or the error it raises."""
    trace = []
    try:
        nf = W.bracket(f, g, db, trace=trace)
    except CalcError as exc:
        return ("raised", type(exc), str(exc), [s.to_json() for s in trace])
    return (nf, [s.to_json() for s in trace])


def _triple_outcome(c, db):
    spec = W.product_spec(parse("eta_4"), parse("eta_4^2"), parse(f"{c} iota_4"))
    try:
        return W.triple_coset_constraints(spec, db).to_json()
    except CalcError as exc:
        return ("raised", type(exc), str(exc))


@pytest.mark.parametrize("seed", [3, 17])
def test_warm_brackets_replay_the_cold_ones(seed):
    db = _shipped_db()
    kept = 0
    for f, g in _seeded_brackets(db, seed, 40):
        db._forget()
        cold = _bracket_outcome(f, g, db)
        kept += len(db.pair_memo)
        assert _bracket_outcome(f, g, db) == cold
    assert kept


@pytest.mark.parametrize("c, most", [(2, 10), (6, 15), (8, 18)])
def test_a_repeated_triple_computes_no_pair(monkeypatch, c, most):
    db = _shipped_db()
    misses = _count_misses(monkeypatch)
    first = _triple_outcome(c, db)
    assert len(misses) == len(set(misses))
    assert 0 < len(misses) <= most
    misses.clear()
    assert _triple_outcome(c, db) == first
    assert misses == []


def test_indeterminacy_then_triple_computes_j_once(monkeypatch):
    """prop-3.2's order: the triple after an ``indeterminacy`` call on the
    same factors reuses its J, so the two calls compute no more pairs
    than the triple alone."""
    spec = W.product_spec(parse("eta_4"), parse("eta_4^2"), parse("2 iota_4"))
    misses = _count_misses(monkeypatch)
    W.triple_coset_constraints(spec, _shipped_db())
    alone = sorted(misses, key=repr)
    misses.clear()
    db = _shipped_db()
    W.indeterminacy(spec, db)
    assert misses
    W.triple_coset_constraints(spec, db)
    assert sorted(misses, key=repr) == alone


def test_scenario_all_computes_each_pair_once(monkeypatch):
    db = _shipped_db()
    calls = []
    pair_bracket = W._pair_bracket

    def counting(k, u, v, db, trace):
        calls.append((k, u, v))
        return pair_bracket(k, u, v, db, trace)

    monkeypatch.setattr(W, "_pair_bracket", counting)
    misses = _count_misses(monkeypatch)
    for name in scenario_names():
        assert run_scenario(db, name).passed
    assert len(misses) == len(set(misses)) == len(set(calls)) == 15
    assert len(calls) > len(misses)


def test_scenario_all_twice_in_one_process_is_pinned(capsys):
    pinned = (DATA / "scenario-all.json").read_bytes()
    for _ in range(2):
        assert main(["--format", "json", "scenario", "all"]) == 0
        assert capsys.readouterr().out.encode("utf-8") == pinned


def test_scenario_traces_replayed_on_one_database_are_pinned():
    """Run twice on one database, the second run replays every pair from
    the memo and still prints the pinned trace JSON byte for byte."""
    pinned = (DATA / "scenario-all-trace.json").read_bytes()
    db = _shipped_db()
    for _ in range(2):
        payload = [run_scenario(db, n).to_json(with_trace=True)
                   for n in scenario_names()]
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert text.encode("utf-8") == pinned


def test_a_small_share_limit_bounds_both_memos(monkeypatch):
    ref_db = _shipped_db()
    items = _seeded_brackets(ref_db, 29, 30)
    want = ([_bracket_outcome(f, g, ref_db) for f, g in items],
            [_triple_outcome(c, ref_db) for c in range(-2, 13)])

    db = _shipped_db()
    sizes = []
    keep = W._keep

    def watched(memo, key, value):
        out = keep(memo, key, value)
        sizes.append((len(db.pair_memo), len(db.factor_memo)))
        return out

    monkeypatch.setattr(W, "SHARE_LIMIT", 8)
    monkeypatch.setattr(W, "_keep", watched)
    for _ in range(2):
        got = ([_bracket_outcome(f, g, db) for f, g in items],
               [_triple_outcome(c, db) for c in range(-2, 13)])
        assert got == want
    assert max(p for p, _ in sizes) == 8 and max(f for _, f in sizes) == 8


def test_the_memos_do_not_keep_their_database_alive():
    """Nothing the memos hold refers back to the database, so a throwaway
    database goes with its last reference, with no collection."""
    import gc
    import weakref
    db = _shipped_db()
    for name in scenario_names():
        run_scenario(db, name)
    assert db.pair_memo and db.factor_memo
    ref = weakref.ref(db)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del db
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# mutation clears the memos

_NU_IOTA = 'rel [nu_4, iota_4] = 2 nu_4^2 src="barcus cor (7.4), sign fixed +"'


def _db_without_nu_iota():
    from importlib import resources
    text = resources.files("whiteprod").joinpath(
        "data/toda-core.rel").read_text(encoding="utf-8")
    assert text.count(_NU_IOTA) == 1
    return relations.load_relations_text(text.replace(_NU_IOTA, ""))


def _add(db, handler, kind, body):
    handler(db, relations._Line(0, kind, body, "added"))


def test_an_added_relation_changes_a_kept_bracket():
    db = _db_without_nu_iota()
    e = parse("[nu_4, iota_4]")
    before = W.evaluate(e, db)
    assert not before.is_resolved and W.evaluate(e, db) == before
    _add(db, relations._rel, "rel", "[nu_4, iota_4] = 2 nu_4^2")
    assert W.evaluate(e, db).display() == "2 nu_4^2"
    assert W.evaluate(parse("[3 nu_4, iota_4]"), db).display() == "6 nu_4^2"


def test_every_add_clears_both_memos():
    db = _db_without_nu_iota()
    spec = W.product_spec(parse("eta_4"), parse("eta_4^2"), parse("2 iota_4"))
    adds = [(relations._gen, "gen", "zeta_3 dom=5 cod=S3 order=2"),
            (relations._family, "family", "zeta base=3 order=2"),
            (relations._group, "group", "S2 k=40 = 0"),
            (relations._rel, "rel", "[nu_4, iota_4] = 2 nu_4^2"),
            (relations._orderfact, "orderfact", "zeta_3 = 2"),
            (relations._hopf0, "hopf0", "zeta_3 = 0")]
    for handler, kind, body in adds:
        W.bracket(parse("iota_4"), parse("iota_4"), db)
        W.triple_coset_constraints(spec, db)
        assert db.pair_memo and db.factor_memo
        _add(db, handler, kind, body)
        assert not db.pair_memo and not db.factor_memo, kind
