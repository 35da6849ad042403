"""The rewrite engine: normalization, suspension, smash, linearity rules."""

import math
import random

import pytest

from whiteprod import expr as E
from whiteprod import rewrite as R
from whiteprod.errors import DegreeMismatch, NoSuspensionFamily, NotASuspension
from whiteprod.expr import format_expr
from whiteprod.groups import sphere
from whiteprod.parser import parse


def norm(db, text, **kw):
    return R.normalize(parse(text), db, **kw)


def test_eta_cube_is_four_nu(db):
    nf = norm(db, "eta_5^3")
    assert nf.is_resolved and nf.display() == "4 nu_5"


def test_scalar_crosses_suspension_then_order_kills(db):
    nf = norm(db, "Snu' . (4 nu_7)")
    assert nf.is_resolved and nf.is_zero
    rules = [s.rule for s in nf.trace]
    assert "order-reduce" in rules


def test_identity_law(db):
    nf = norm(db, "iota_4 . iota_4")
    assert nf.display() == "iota_4"
    # an identity factor disappears from any chain
    a = norm(db, "eta_4 . iota_5")
    b = norm(db, "eta_4")
    assert a == b


def test_ground_relation_with_shift(db):
    # the eta-cube relation holds at every sphere above its base
    nf = norm(db, "eta_7 . eta_8 . eta_9")
    assert format_expr(nf.expr) == "4 nu_7"
    assert nf.status == "residue"  # no table for pi_10(S7) is shipped
    assert any(s.rule == "relation" and "suspended 2" in s.detail
               for s in nf.trace)


def test_trivial_table_absorbs(db):
    # pi_10(S6) = 0, so the suspended identity [iota_5, iota_5] = nu_5 . eta_8
    # stays sound one sphere up
    nf = norm(db, "nu_6 . eta_9")
    assert nf.is_resolved and nf.is_zero


def test_normalize_idempotent_on_resolved(db):
    nf = norm(db, "eta_5^3")
    again = R.normalize(R.unflatten(nf.fs), db)
    assert again == nf


def test_precomposition_blocked_across_non_suspension(db):
    nf = norm(db, "(nu_5 + nu_5) . sigma_8")
    assert nf.status == "residue"
    assert "non-suspension" in nf.reason


def test_postcomposition_always_distributes(db):
    nf = norm(db, "nu_5 . (sigma_8 + sigma_8)")
    assert nf.is_resolved
    assert nf.display() == "2 nu_5 . sigma_8"


def test_precomposition_allowed_across_suspension(db):
    a = norm(db, "(eta_4 + eta_4) . eta_5")
    assert a.is_resolved and a.is_zero


def test_residue_keeps_simplified_form(db):
    nf = norm(db, "eta_6 . eta_7")
    assert nf.status == "residue"
    assert format_expr(nf.expr) == "eta_6 . eta_7"


def test_residue_keeps_only_its_formal_sum(db, monkeypatch):
    # a residue is built without rendering; it renders when shown
    fs = R.flatten(parse("eta_6 . eta_7"), db)

    def refuse(_):
        raise AssertionError("residue rendered its formal sum eagerly")

    monkeypatch.setattr(R, "unflatten", refuse)
    nf = R.residue(fs, None, "why", [])
    monkeypatch.undo()
    assert nf.display() == R.render(fs)


def test_blocked_residue_shows_expanded_powers(db):
    nf = norm(db, "(nu_5 + nu_5) . sigma_8^2")
    assert nf.status == "residue" and nf.fs is None
    assert nf.display() == "(nu_5 + nu_5) . (sigma_8 . S^7 sigma_8)"


def test_blocked_residues_compare_by_value(db):
    nf = norm(db, "(nu_5 + nu_5) . sigma_8^2")
    assert nf == norm(db, "(nu_5 + nu_5) . sigma_8^2")
    other = norm(db, "(2 nu_5) . sigma_8")
    assert other.status == "residue" and other.fs is None
    assert nf != other


def test_suspend_composition(db):
    out = R.suspend(parse("eta_4 . mu_5"), 1, db)
    assert out == parse("eta_5 . mu_6")


def test_suspend_kills_brackets(db):
    assert R.suspend(parse("[iota_5, iota_5]"), 1, db) == E.ZERO
    assert R.suspend(parse("w[eta_4, eta_4, eta_4]"), 2, db) == E.ZERO


def test_suspend_zero(db):
    assert R.suspend(E.ZERO, 1, db) == E.ZERO


def test_suspend_named_class(db):
    assert R.suspend(parse("nu'"), 1, db) == parse("Snu'")
    with pytest.raises(NoSuspensionFamily):
        R.suspend(parse("Seps'"), 1, db)


def test_symbolic_suspension_has_one_spelling(db):
    # past Ssigma' no name is left: S (S x) and S^2 x are one atom
    assert norm(db, "S (S Ssigma')") == norm(db, "S^2 Ssigma'")


def test_suspend_names_the_class_where_stepping_stops(db):
    with pytest.raises(NoSuspensionFamily, match="Snu'"):
        R.suspend(parse("nu'"), 2, db)


def test_suspend_needs_sphere_target(db):
    with pytest.raises(DegreeMismatch):
        R.suspend(parse("gamma_2R"), 1, db)


def test_suspension_of_named_class_resolves_via_relation(db):
    # Sigma^2 nu' has no name of its own but rewrites to 2 nu_5
    nf = R.normalize(E.Susp(1, parse("Snu'")), db)
    assert nf.is_resolved and nf.display() == "2 nu_5"


def test_smash_realization(db):
    assert R.smash(parse("nu_6"), parse("eta_3"), db) == parse("nu_9 . eta_12")
    assert R.smash(parse("iota_4"), parse("eta_3"), db) == parse("eta_7")
    out = R.smash(parse("eta_6^2"), parse("eta_3^2"), db)
    assert out == parse("eta_9 . eta_10 . eta_11 . eta_12")


def test_smash_requires_suspensions(db):
    with pytest.raises(NotASuspension):
        R.smash(parse("nu_4"), parse("eta_3"), db)


def test_smash_signature(db):
    out = R.smash(parse("nu_6"), parse("eta_3"), db)
    sig = E.typecheck(out, db)
    assert sig == E.Signature(13, sphere(9))


def test_suspension_soundness_of_every_relation(db):
    for rel in db.relations:
        lhs = R.normalize(E.Susp(1, rel.lhs), db)
        rhs = R.normalize(E.Susp(1, rel.rhs), db)
        assert lhs == rhs, f"suspension breaks {rel.name}"


def test_step_limit_is_an_error_not_a_wrong_answer():
    from whiteprod.errors import StepLimitExceeded
    from whiteprod.relations import load_relations_text
    looping = """
gen iota_1 dom=1 cod=S1 order=0
family iota base=1 order=0
gen a_2 dom=5 cod=S2 order=0
gen b_2 dom=5 cod=S2 order=0
rel a_2 = b_2
rel b_2 = a_2
"""
    loop_db = load_relations_text(looping)
    with pytest.raises(StepLimitExceeded):
        R.normalize(parse("a_2"), loop_db)


SCENARIO_EXPRS = [
    "eta_5^3",
    "Snu' . (4 nu_7)",
    "eta_4 . nu_5 . eta_8 . eta_9",
    "[iota_5, iota_5] . eta_9",
    "2 nu_4^2 . nu_10 . eta_13",
    "[iota_4, iota_4] . alpha2(7)",
    "4 (nu_4 . sigma') + 2 Seps' + eta_4 . mu_5",
    "S (Seps' + nu_4 . sigma')",
]


@pytest.mark.parametrize("text", SCENARIO_EXPRS)
def test_confluence_under_rule_order(db, text):
    e = parse(text)
    baseline = R.normalize(e, db)
    rng = random.Random(20260810)
    n = len(db.relations)
    for _ in range(25):
        order = list(range(n))
        rng.shuffle(order)
        other = R.normalize(e, db, relation_order=order,
                            reverse_scan=rng.random() < 0.5)
        assert other == baseline, f"rule order changed the result for {text}"


# ---------------------------------------------------------------------------
# cost of long compositions

def _shipped_db():
    from importlib import resources
    from whiteprod.relations import load_relations_text
    text = resources.files("whiteprod").joinpath(
        "data/toda-core.rel").read_text(encoding="utf-8")
    return load_relations_text(text, "toda-core.rel")


def test_long_powers_grow_linearly(monkeypatch):
    """Normalizing eta_4^k probes order facts about linearly in k, and
    parses each generator name at most once per database."""
    from whiteprod import relations
    parsed, probes = [], []
    split_name, order_fact = relations.split_name, relations.RelationDB.order_fact

    def counting_split(name):
        parsed.append(name)
        return split_name(name)

    def counting_order_fact(self, chain):
        probes.append(chain)
        return order_fact(self, chain)

    monkeypatch.setattr(relations, "split_name", counting_split)
    monkeypatch.setattr(relations.RelationDB, "order_fact", counting_order_fact)
    db = _shipped_db()
    counts = []
    for k in (200, 400):
        probes.clear()
        assert R.normalize(parse(f"eta_4^{k}"), db).is_zero
        counts.append(len(probes))
    assert counts[1] <= 2.2 * counts[0]
    assert len(parsed) == len(set(parsed))


# The composition fold against the pairwise fold it replaces.  Stem-0
# atoms z_n (a suspension class) and w_n (not one) let one product arise
# from two different splits, so terms can cancel.

def _stem0(name: str, n: int, susp: bool):
    from whiteprod.groups import GeneratorDecl
    decl = GeneratorDecl(name=f"{name}_{n}", source_dim=n, target=sphere(n),
                         order=0, suspension_of=f"{name}_{n - 1}" if susp else None)
    return R.GenAtom(decl.name, 0, decl)


def _random_chain(rng, db, n: int, stem: int) -> R.Chain:
    """A chain S^(n+stem) -> S^n: ``stem`` eta atoms, stem-0 atoms between."""
    atoms = []
    for cur in range(n, n + stem + 1):
        while rng.random() < 0.3:
            kind = rng.choice("zw")
            atoms.append(_stem0(kind, cur, kind == "z"))
        if cur < n + stem:
            atoms.append(R._gen_atom(db, f"eta_{cur}"))
    return R.Chain(tuple(atoms), n + stem, sphere(n))


def _random_factors(rng, db) -> list:
    factors, n = [], rng.randint(5, 7)
    for _ in range(rng.randint(2, 6)):
        stem = rng.randint(0, 2)
        fs = {}
        for _ in range(rng.choice([1, 1, 2, 3])):
            fs[_random_chain(rng, db, n, stem)] = rng.choice([1, 1, 1, -1, 2, -3])
        if rng.random() < 0.05:
            n += 1  # the next factor lands one sphere off: a degree mismatch
        factors.append(fs)
        n += stem
    return factors


def _pairwise_fold(factors):
    out = factors[0]
    for b in factors[1:]:
        out = R.fs_compose(out, b)
        if out is None:
            return None
    return out


def _outcome(fold, factors):
    try:
        out = fold(factors)
    except DegreeMismatch as exc:
        return ("error", str(exc))
    return ("none",) if out is None else ("sum", list(out.items()))


def test_composition_fold_matches_pairwise_fold(db):
    rng = random.Random(20261018)
    seen = set()
    for _ in range(1500):
        factors = _random_factors(rng, db)
        want = _outcome(_pairwise_fold, factors)
        assert _outcome(R.fs_compose_all, factors) == want
        seen.add(want[0])
        if want[0] == "sum" and len(want[1]) < math.prod(map(len, factors)):
            seen.add("cancelled")
    assert seen == {"none", "error", "sum", "cancelled"}


def test_composition_fold_fixed_cases(db):
    def fl(text):
        return R.flatten(parse(text), db)

    # a non-unit left sum cannot cross a non-suspension right factor
    for factors in ([fl("nu_4 + Snu'"), fl("sigma'")],
                    [fl("2 eta_4"), fl("eta_5"), fl("sigma'")]):
        assert R.fs_compose_all(factors) is None
        assert _pairwise_fold(factors) is None
    # a degree mismatch gives the pairwise fold's message
    for factors in ([fl("eta_4"), fl("eta_6")],
                    [fl("eta_4"), fl("eta_5"), fl("nu_4 + Snu'")]):
        with pytest.raises(DegreeMismatch) as new:
            R.fs_compose_all(factors)
        with pytest.raises(DegreeMismatch) as old:
            _pairwise_fold(factors)
        assert str(new.value) == str(old.value)


def test_equal_chains_hash_equal(db):
    (long,) = R.flatten(parse("eta_3 . eta_4 . eta_5 . eta_6"), db)
    hash(long)  # cache the long chain's hash before slicing it
    (direct,) = R.flatten(parse("eta_4 . eta_5 . eta_6"), db)
    (head,), (rest,) = (R.flatten(parse(t), db) for t in ("eta_4", "eta_5 . eta_6"))
    (low,) = R.flatten(parse("eta_3 . eta_4 . eta_5"), db)
    (power,) = R.flatten(parse("eta_4^5"), db)
    built = [long.suffix(1), head.compose(rest), R.susp_chain(low, 1, db),
             power.prefix(3)]
    for ch in built:
        assert ch == direct and hash(ch) == hash(direct)
        assert {direct: 1}[ch] == 1


def test_annihilator_from_a_prefix_order_fact(db):
    # nu_5 . nu_8 . nu_11 is all suspensions, so a scalar moves onto the
    # prefix nu_5 . nu_8, whose cited order fact is 2; every atom has order 24
    (ch,) = R.flatten(parse("nu_5 . nu_8 . nu_11"), db)
    assert [a.order for a in ch.atoms] == [24, 24, 24]
    assert db.order_fact(ch.prefix(2)) == 2
    assert R.chain_annihilator(ch, db) == 2
    for scalar, shown in (("2", "0"), ("3", "nu_5 . nu_8 . nu_11")):
        nf = norm(db, f"{scalar} nu_5 . nu_8 . nu_11")
        assert nf.display() == shown
        assert nf.is_resolved == (shown == "0")
        steps = [(s.rule, s.before, s.after) for s in nf.trace]
        assert steps == [("order-reduce", f"{scalar} (nu_5 . nu_8 . nu_11)",
                          shown)]
