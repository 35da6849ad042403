"""Exact arithmetic in group tables: elements, subgroups, cosets, orders."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from whiteprod.errors import SubgroupMismatch, TableMismatch
from whiteprod.groups import (Coset, GroupElement, GroupTable, INFINITE,
                              Space, TableGen, TableKey, add, coset_eq,
                              enumerate_elements, order_of, sphere,
                              subgroup_generated, torsion_family)
from whiteprod.parser import parse
from whiteprod.whitehead import indeterminacy, product_spec


def table(*orders, key=None):
    key = key or TableKey(sphere(4), 10)
    gens = tuple(TableGen(f"g{i}", d) for i, d in enumerate(orders))
    return GroupTable(key, "full", gens)


def test_add_reduces_mod_orders(db):
    t5 = db.table(sphere(4), 5)
    eta = t5.basis_element(0)
    assert add(eta, eta).is_zero  # the order of eta_4 is two


def test_add_identity():
    t = table(8)
    x = t.element((3,))
    assert add(x, t.zero()) == x


def test_add_mod_eight():
    t10 = table(8)
    five, four = t10.element((5,)), t10.element((4,))
    assert add(five, four) == t10.element((1,))


def test_add_rejects_mixed_tables(db):
    with pytest.raises(TableMismatch):
        add(db.table(sphere(4), 5).zero(), db.table(sphere(4), 6).zero())


def test_order_of_examples(db):
    t7 = db.table(sphere(4), 7)
    snu = t7.basis_element(1)
    assert order_of(snu) == 4  # Sigma nu' has order four
    assert order_of(t7.zero()) == 1
    assert order_of(table(8).element((2,))) == 4
    assert order_of(t7.basis_element(0)) is INFINITE


def test_subgroup_of_order_fifteen(db):
    t14 = db.table(sphere(4), 14)
    a3 = t14.element((0, 0, 0, 2, 0))
    a5 = t14.element((0, 0, 0, 0, 2))
    sub = subgroup_generated([a3, a5])
    assert sub.order == 15
    assert a3 in sub and add(a3, a5) in sub
    assert t14.basis_element(0) not in sub


def test_trivial_subgroup():
    t = table(6)
    sub = subgroup_generated([], table=t)
    assert sub.order == 1
    assert t.zero() in sub and t.element((3,)) not in sub


def test_index_two_in_cyclic_eight():
    t = table(8)
    sub = subgroup_generated([t.element((2,))])
    assert sub.order == 4
    assert t.element((6,)) in sub and t.element((1,)) not in sub


def test_subgroup_with_free_part():
    t = GroupTable(TableKey(sphere(4), 7), "full",
                   (TableGen("free", 0), TableGen("tors", 12)))
    sub = subgroup_generated([t.element((2, 1))])
    assert sub.order is INFINITE
    assert t.element((4, 2)) in sub
    assert t.element((2, 0)) not in sub


def test_subgroup_generated_is_idempotent(db):
    t14 = db.table(sphere(4), 14)
    sub = subgroup_generated([t14.element((4, 2, 0, 1, 0)),
                              t14.element((0, 2, 1, 0, 0))])
    again = subgroup_generated(list(sub.canonical_basis), table=t14)
    assert again.order == sub.order
    for e in enumerate_sample(t14):
        assert (e in sub) == (e in again)


def enumerate_sample(t, cap=200):
    out = []
    for coeffs in product(*(range(min(d, 5)) if d else (0, 1) for d in t.orders)):
        out.append(GroupElement(t, coeffs))
        if len(out) >= cap:
            break
    return out


def test_coset_equality():
    t = table(8, 3)
    sub = subgroup_generated([t.element((4, 0)), t.element((0, 1))])
    x = t.element((1, 2))
    h = t.element((4, 1))
    assert coset_eq(Coset(x, sub), Coset(add(x, h), sub))
    assert not coset_eq(Coset(t.zero(), sub), Coset(t.element((1, 0)), sub))


def test_coset_requires_same_subgroup():
    t = table(8)
    s1 = subgroup_generated([t.element((2,))])
    s2 = subgroup_generated([t.element((4,))])
    with pytest.raises(SubgroupMismatch):
        coset_eq(Coset(t.zero(), s1), Coset(t.zero(), s2))


def test_fifteen_torsion_coset(db):
    t14 = db.table(sphere(4), 14)
    sub = subgroup_generated([t14.element((0, 0, 0, 2, 0)),
                              t14.element((0, 0, 0, 0, 2))])
    rep = t14.element((4, 0, 0, 0, 0))
    beta = t14.element((0, 0, 0, 1, 2))
    assert beta in sub
    assert coset_eq(Coset(rep, sub), Coset(add(rep, beta.scale(15)), sub))


@st.composite
def _finite_tables(draw):
    orders = draw(st.lists(st.sampled_from([2, 3, 4, 5, 8]), min_size=1,
                           max_size=3))
    return table(*orders, key=TableKey(sphere(3), 9))


@given(_finite_tables(), st.data())
@settings(max_examples=60, deadline=None)
def test_add_laws_and_scalar(t, data):
    coeffs = st.tuples(*(st.integers(0, d - 1) for d in t.orders))
    a = GroupElement(t, data.draw(coeffs))
    b = GroupElement(t, data.draw(coeffs))
    c = GroupElement(t, data.draw(coeffs))
    assert add(a, b) == add(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    n = data.draw(st.integers(0, 12))
    by_repeated = t.zero()
    for _ in range(n):
        by_repeated = add(by_repeated, a)
    assert by_repeated == a.scale(n)


@pytest.mark.parametrize("orders", [(2, 3, 4), (8,), (6, 10), (2, 2, 2, 5),
                                    (9, 5, 2), (16, 3)])
def test_lagrange_by_enumeration(orders):
    t = table(*orders, key=TableKey(sphere(2), 5))
    group_order = t.group_order()
    assert group_order <= 1000
    elems = list(enumerate_elements(t))
    gens = [elems[len(elems) // 3], elems[2 * len(elems) // 3]]
    sub = subgroup_generated(gens)
    # brute-force closure as the oracle
    closure = {t.zero()}
    frontier = [t.zero()]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = add(x, g)
            if y not in closure:
                closure.add(y)
                frontier.append(y)
    assert sub.order == len(closure)
    assert group_order % sub.order == 0
    for e in elems:
        assert (e in sub) == (e in closure)


def test_torsion_family_counts(db):
    t14 = db.table(sphere(4), 14)
    fam = torsion_family(t14, 2)
    assert len(fam) == 8
    assert all(e.scale(2).is_zero for e in fam)


def test_table_serialization_roundtrip(db):
    t = db.table(sphere(4), 14)
    text = t.to_text()
    assert text.startswith("group S4 k=14 partial=2 = Z8{")
    js = t.to_json()
    assert js["completeness"] == [2]
    assert len(js["generators"]) == 5


def test_space_parsing():
    assert str(Space("RP", 2)) == "RP2"
    assert sphere(4).is_sphere


def test_module_doctests():
    import doctest

    import whiteprod.groups as G
    result = doctest.testmod(G)
    assert result.attempted == 4 and result.failed == 0


def test_coset_equality_ignores_generator_order(db):
    t14 = db.table(sphere(4), 14)
    g1, g2 = t14.element((2, 3, 1, 1, 1)), t14.element((3, 1, 1, 0, 4))
    s12, s21 = subgroup_generated([g1, g2]), subgroup_generated([g2, g1])
    assert s12.order == s21.order == 480
    assert s12.same_subgroup(s21)
    assert Coset(t14.zero(), s12) == Coset(t14.zero(), s21)


def test_canonical_basis_ignores_generator_order():
    t = table(0, 0, 0)
    gens = [t.element((1, 2, 0)), t.element((0, 2, 1)), t.element((0, 0, 3))]
    forward = [str(g) for g in subgroup_generated(gens).canonical_basis]
    backward = [str(g) for g in subgroup_generated(gens[::-1]).canonical_basis]
    assert forward == backward == ["g0 + 2 g2", "2 g1 + g2", "3 g2"]


@st.composite
def _tables_with_generators(draw):
    orders = draw(st.lists(st.sampled_from([0, 2, 3, 4, 6, 8, 12]),
                           min_size=1, max_size=4))
    t = table(*orders)
    coeffs = st.tuples(*(st.integers(-13, 13) for _ in orders))
    gens = [t.element(c)
            for c in draw(st.lists(coeffs, min_size=1, max_size=4))]
    return t, gens


@given(_tables_with_generators(), st.data())
@settings(max_examples=150, deadline=None)
def test_subgroup_form_is_independent_of_generators(tg, data):
    t, gens = tg
    sub = subgroup_generated(gens, t)
    basis = [str(g) for g in sub.canonical_basis]
    variants = [gens[::-1], data.draw(st.permutations(gens))]
    if len(gens) > 1:
        variants.append(gens + [add(gens[0], gens[1])])
    for other in variants:
        again = subgroup_generated(other, t)
        assert sub.same_subgroup(again)
        assert [str(g) for g in again.canonical_basis] == basis
        assert coset_eq(Coset(gens[0], sub), Coset(t.zero(), again))
    if t.group_order() is not INFINITE and t.group_order() <= 2000:
        # brute-force closure as the oracle
        closure = {t.zero()}
        frontier = [t.zero()]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = add(x, g)
                if y not in closure:
                    closure.add(y)
                    frontier.append(y)
        assert sub.order == len(closure)
        for e in enumerate_elements(t):
            assert (e in sub) == (e in closure)


def test_table_text_pins(db):
    t7, t10 = db.table(sphere(4), 7), db.table(sphere(6), 10)
    assert str(t7) == "pi_7(S4) = Z{nu_4} + Z4{Snu'} + Z3{alpha1(4)}"
    assert str(t10) == "pi_10(S6) = 0"
    assert t7.to_text() == ("group S4 k=7 = Z{nu_4} + Z4{Snu'} + "
                            "Z3{alpha1(4)} src=\"toda: pi_7(S4) = Z + Z12\"")
    assert t10.to_text() == ("group S6 k=10 = 0 "
                             "src=\"external (pi_10(S6) = 0)\"")


def test_subgroup_and_coset_text_pins(db):
    spec = product_spec(parse("eta_4"), parse("eta_4^2"), parse("2 iota_4"))
    J = indeterminacy(spec, db)
    pinned = ("<[iota_4, iota_4] . alpha2(7), [iota_4, iota_4] . alpha1'(7)>"
              " of order 15 in pi_14(S4)")
    assert str(J) == pinned
    rep = J.table.element((4, 0, 0, 0, 0))
    assert str(Coset(rep, J)) == "4 nu_4 . sigma' + " + pinned
