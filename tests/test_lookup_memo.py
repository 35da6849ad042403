"""What the database keeps so that a lookup is one dict hit: the chain each
generator name flattens to (in the name memo, within NAME_LIMIT, cleared
by ``add_decl`` and ``add_family``), the pair index of ground bracket
relations, the interned spheres, and one read of the scenario fixtures per
``scenario all``."""

import dataclasses
from pathlib import Path

import pytest

from test_bracket_laws import _sphere_classes
from test_bracket_memo import _add, _db_without_nu_iota
from test_rewrite import _shipped_db
from whiteprod import expr as E
from whiteprod import relations
from whiteprod import rewrite as R
from whiteprod import scenarios
from whiteprod import whitehead as W
from whiteprod.cli import main
from whiteprod.errors import UnknownGenerator
from whiteprod.groups import sphere
from whiteprod.names import join_name
from whiteprod.parser import parse

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# the pair index


def test_the_pair_index_answers_as_the_bracket_chain_probe():
    db = _shipped_db()
    found = 0
    for chains in _sphere_classes(db).values():
        for u in chains:
            for v in chains:
                old = db._rel_index.get(R.bracket_chain({u: 1}, {v: 1}))
                assert db.bracket_relation(u, v) is old
                found += old is not None
    assert found >= 1


def test_a_relation_added_after_load_is_found_by_its_pair():
    db = _db_without_nu_iota()
    nu, iota = (db.gen_chain(name) for name in ("nu_4", "iota_4"))
    assert db.bracket_relation(nu, iota) is None
    _add(db, relations._rel, "rel", "[nu_4, iota_4] = 2 nu_4^2")
    rel = db.bracket_relation(nu, iota)
    assert rel is db._rel_index[R.bracket_chain({nu: 1}, {iota: 1})]
    assert rel.name == "[nu_4, iota_4] = 2 nu_4^2"
    assert db.bracket_relation(iota, nu) is None


# ---------------------------------------------------------------------------
# the name memo


def _names(db, top=40):
    """Every declared name, and every family member up to S^top."""
    out = list(db._decls)
    for fam in db._families.values():
        out += [join_name(fam.name, n, fam.style)
                for n in range(fam.base, top + 1)]
    return out


def _built(db, name):
    """The chain a generator name flattens to, built as it was before the
    database kept it."""
    decl = db.decl(name)
    if decl.target.is_sphere and decl.source_dim == decl.target.n:
        return R.identity_chain(decl.source_dim)
    atom = R._gen_atom(db, name)
    return R.Chain((atom,), atom.dom, atom.space)


def test_a_warm_flatten_equals_a_cold_one():
    db, cold = _shipped_db(), _shipped_db()
    names = _names(db)
    for name in names + names:
        cold._names.clear()
        want = R.flatten(E.gen(name), cold)
        assert want == {_built(cold, name): 1}
        assert R.flatten(E.gen(name), db) == want, name
    assert all(db._names[name][3] is not None for name in names[-5:])


def test_a_name_flattens_to_one_shared_chain_in_a_fresh_sum():
    db = _shipped_db()
    first = R.flatten(E.gen("eta_7"), db)
    (chain,) = first
    first[chain] = 5
    first[db.gen_chain("nu_4")] = 1
    again = R.flatten(E.gen("eta_7"), db)
    assert again == {chain: 1} and again is not first
    assert next(iter(again)) is chain


def test_an_undeclared_name_raises_and_is_not_kept():
    db = _shipped_db()
    before = dict(db._names)
    for _ in range(2):
        with pytest.raises(UnknownGenerator):
            R.flatten(E.gen("zeta_9"), db)
    assert db.gen_chain("zeta_9") is None
    assert db._names == before


def test_add_decl_and_add_family_clear_the_kept_chains():
    db = _shipped_db()
    _add(db, relations._gen, "gen", "zeta_3 dom=5 cod=S3 order=2")
    _add(db, relations._gen, "gen", "zeta_4 dom=6 cod=S4 order=2")
    plain = R.flatten(E.gen("zeta_4"), db)
    assert db._names["zeta_4"][3] is not None
    _add(db, relations._gen, "gen", "xi_5 dom=7 cod=S5 order=2")
    assert not db._names
    R.flatten(E.gen("zeta_4"), db)
    _add(db, relations._family, "family", "zeta base=3 order=2")
    assert not db._names
    # zeta_4 is now Sigma zeta_3, no longer an atom of its own
    (chain,) = R.flatten(E.gen("zeta_4"), db)
    (atom,) = chain.atoms
    assert (atom.name, atom.k) == ("zeta_3", 1)
    assert R.flatten(E.gen("zeta_4"), db) != plain


def test_a_small_name_limit_bounds_the_memo(monkeypatch):
    ref = _shipped_db()
    names = _names(ref, top=60)
    texts = names + ["eta_4 . eta_5 . eta_6 + nu_4", "S^3 nu'", "[eta_4, iota_4]"]
    want = [W.evaluate(parse(t), ref).display() for t in texts]

    db = _shipped_db()
    sizes = []
    remember = relations.RelationDB._remember

    def watched(self, name, hit):
        out = remember(self, name, hit)
        sizes.append(len(self._names))
        return out

    monkeypatch.setattr(relations, "NAME_LIMIT", 8)
    monkeypatch.setattr(relations.RelationDB, "_remember", watched)
    for _ in range(2):
        assert [W.evaluate(parse(t), db).display() for t in texts] == want
        assert [R.flatten(E.gen(n), db) for n in names] == \
            [R.flatten(E.gen(n), ref) for n in names]
    assert max(sizes) == 8


# ---------------------------------------------------------------------------
# interned spheres


def test_a_suspended_atom_reads_one_shared_space():
    db = _shipped_db()
    (atom,) = db.gen_chain("eta_7").atoms
    assert atom.k > 0
    assert atom.space is atom.space
    assert atom.space == sphere(7) and sphere(7) is sphere(7)


def test_an_interned_sphere_stays_frozen():
    s = sphere(4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(s, "n", 5)
    assert sphere(4).n == 4


# ---------------------------------------------------------------------------
# the scenario fixtures


def test_scenario_all_reads_its_fixtures_once_per_run(monkeypatch, capsys):
    pinned = (DATA / "scenario-all.json").read_bytes()
    reads = []
    fixtures = scenarios._fixtures

    def counting():
        reads.append(1)
        return fixtures()

    monkeypatch.setattr(scenarios, "_fixtures", counting)
    for run in (1, 2):
        assert main(["--format", "json", "scenario", "all"]) == 0
        assert capsys.readouterr().out.encode("utf-8") == pinned
        assert len(reads) == run


def test_run_scenario_matches_run_scenarios():
    db = _shipped_db()
    names = scenarios.scenario_names()
    together = scenarios.run_scenarios(db, names)
    assert [r.name for r in together] == names
    for r in together:
        alone = scenarios.run_scenario(db, r.name)
        assert alone.to_json(with_trace=True) == r.to_json(with_trace=True)
