"""The rewrite engine: normalization, suspension, smash, linearity rules."""

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
