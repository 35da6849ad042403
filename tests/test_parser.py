"""Surface syntax: parsing, typechecking, pretty printing, round trips."""

import pytest
from hypothesis import given, settings, strategies as st

from whiteprod import expr as E
from whiteprod.errors import (DegreeMismatch, ExprSyntaxError, MixedTargets,
                              UnknownGenerator)
from whiteprod.expr import (Bracket, Compose, Gen, HigherBracket, Power,
                            Scalar, Signature, Sum, Susp, ZERO, expand_powers,
                            format_expr, gen, typecheck)
from whiteprod.groups import sphere
from whiteprod.parser import MAX_NESTING, parse
from whiteprod.rewrite import normalize


def test_parse_composition():
    assert parse("eta_4 . eta_5") == Compose(gen("eta_4"), gen("eta_5"))
    assert parse("eta_4 o eta_5") == Compose(gen("eta_4"), gen("eta_5"))


def test_parse_bracket_then_compose():
    e = parse("[iota_5, iota_5] . eta_9")
    assert e == Compose(Bracket(gen("iota_5"), gen("iota_5")), gen("eta_9"))


def test_power_expands_to_suspended_composition(db):
    e = expand_powers(parse("eta_4^2"), db)
    assert e == Compose(gen("eta_4"), Susp(1, gen("eta_4")))
    fs_sig = typecheck(e, db)
    assert fs_sig == Signature(6, sphere(4))
    # nu has stem three, so the second factor sits three spheres up
    e = expand_powers(parse("nu_4^2"), db)
    assert e == Compose(gen("nu_4"), Susp(3, gen("nu_4")))


def test_parse_scalar_binds_the_chain():
    e = parse("2 nu_5 . sigma_8")
    assert e == Scalar(2, Compose(gen("nu_5"), gen("sigma_8")))
    assert parse("2 iota_4") == Scalar(2, gen("iota_4"))
    assert parse("2 * iota_4") == Scalar(2, gen("iota_4"))


def test_parse_sums_and_minus():
    e = parse("2 nu_4 - Snu'")
    assert e == Sum((Scalar(2, gen("nu_4")), Scalar(-1, gen("Snu'"))))
    assert parse("- 2 nu_4") == Scalar(-2, gen("nu_4"))
    assert parse("0") == ZERO


def test_parse_higher_bracket():
    e = parse("w[eta_4, eta_4^2, 2 iota_4]")
    assert isinstance(e, HigherBracket)
    assert len(e.factors) == 3


def test_parse_suspension_forms():
    assert parse("S eta_4") == Susp(1, gen("eta_4"))
    assert parse("S^3 eta_4") == Susp(3, gen("eta_4"))
    assert parse("S (eta_4 . mu_5)") == Susp(1, Compose(gen("eta_4"), gen("mu_5")))


def test_parse_unicode_aliases():
    assert parse("η₄ ∘ η₅") == parse("eta_4 . eta_5")
    assert parse("ν′") == gen("nu'")
    assert parse("Σν′") == Susp(1, gen("nu'"))


def test_syntax_errors_carry_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse("eta_4 . [")
    assert err.value.line == 1 and err.value.column == 10
    with pytest.raises(ExprSyntaxError):
        parse("3")
    with pytest.raises(ExprSyntaxError):
        parse("eta_4 )")


@pytest.mark.parametrize("text", ["eta_4^\u2075", "\u2075 eta_4"])
def test_digit_that_int_rejects_is_a_syntax_error(text):
    # '⁵' is a digit to str.isdigit but not to int(), and is not folded
    with pytest.raises(ExprSyntaxError):
        parse(text)


def test_nesting_limit_reported_at_the_opening_token():
    n = MAX_NESTING + 1
    with pytest.raises(ExprSyntaxError) as err:
        parse("x . " + "(" * n + "eta_4" + ")" * n)
    assert err.value.column == len("x . ") + n


def test_typecheck_examples(db):
    assert typecheck(parse("[eta_4, eta_4^2]"), db) == Signature(10, sphere(4))
    assert typecheck(parse("iota_4"), db) == Signature(4, sphere(4))
    assert typecheck(parse("w[eta_4, eta_4^2, 2 iota_4]"), db) == \
        Signature(14, sphere(4))


def test_typecheck_rejections(db):
    with pytest.raises(DegreeMismatch):
        typecheck(parse("eta_4 . eta_4"), db)
    with pytest.raises(MixedTargets):
        typecheck(parse("[iota_2, iota_4]"), db)
    with pytest.raises(UnknownGenerator):
        typecheck(parse("zeta_4"), db)


def test_format_examples():
    assert format_expr(Compose(gen("eta_4"), gen("eta_5"))) == "eta_4 . eta_5"
    assert format_expr(Scalar(2, gen("iota_4"))) == "2 iota_4"
    assert format_expr(Bracket(gen("iota_2"), gen("iota_2"))) == \
        "[iota_2, iota_2]"
    assert format_expr(ZERO) == "0"


_names = st.sampled_from(["eta_4", "nu'", "iota_5", "alpha2(4)", "gamma_2R",
                          "Snu'", "mu_5", "alpha1'(4)", "sigma_8"])
_atoms = st.builds(gen, _names)


def _wrap(children):
    return st.one_of(
        st.builds(Compose, children, children),
        st.builds(Susp, st.integers(1, 3), children),
        st.builds(lambda ts: Sum(tuple(ts)),
                  st.lists(children, min_size=2, max_size=3)),
        st.just(ZERO),
        st.builds(Scalar, st.integers(-9, 9), children),
        st.builds(Bracket, children, children),
        st.builds(lambda ts: HigherBracket(tuple(ts)),
                  st.lists(children, min_size=2, max_size=3)),
        st.builds(Power, children, st.integers(2, 4)),
    )


_exprs = st.recursive(_atoms, _wrap, max_leaves=12)


@given(_exprs)
@settings(max_examples=300, deadline=None)
def test_parse_format_round_trip(e):
    assert parse(format_expr(e)) == e


_ETA = Gen("eta_4")


@pytest.mark.parametrize("e, text", [
    (Sum((_ETA, Scalar(-1, Scalar(0, _ETA)))), "eta_4 - 1 (0 eta_4)"),
    (Sum((_ETA, Scalar(-1, Scalar(2, _ETA)))), "eta_4 - 1 (2 eta_4)"),
    (Sum((Scalar(-1, Scalar(2, _ETA)), _ETA)), "- 1 (2 eta_4) + eta_4"),
])
def test_negated_multiple_in_a_sum_round_trips(e, text):
    """-1 times k x keeps its 1: "- (k x)" would read back as -k x."""
    assert format_expr(e) == text
    assert parse(text) == e


@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12),
       st.integers(1, 12))
@settings(max_examples=80, deadline=None)
def test_typecheck_composability_fuzz(p_dom, p_cod, q_dom, q_cod):
    """Composition typechecks exactly when inner dimensions agree."""
    class _Env:
        def decl(self, name):
            from whiteprod.groups import GeneratorDecl
            if name == "f":
                return GeneratorDecl("f", p_dom, sphere(p_cod), 0)
            if name == "g":
                return GeneratorDecl("g", q_dom, sphere(q_cod), 0)
            return None

    env = _Env()
    e = Compose(Gen("f"), Gen("g"))
    if q_cod == p_dom:
        assert typecheck(e, env) == Signature(q_dom, sphere(p_cod))
    else:
        with pytest.raises(DegreeMismatch):
            typecheck(e, env)


def test_gen_is_the_bare_name():
    # a generator is its name; the family index is read from the name
    # where a relation needs it, never stored on the node
    assert gen("eta_4") == Gen("eta_4")
    assert parse("alpha2(4)") == Gen("alpha2(4)")


@pytest.mark.parametrize("text, shown", [
    ("eta_4 . 0", "eta_4 . (0)"),
    ("S 0", "S (0)"),
    ("S^2 0 . eta_4", "S^2 (0) . eta_4"),
])
def test_zero_atom_round_trips_and_evaluates_to_zero(db, text, shown):
    e = parse(text)
    assert format_expr(e) == shown
    assert parse(shown) == e
    nf = normalize(e, db)
    assert nf.is_resolved and nf.display() == "0"
