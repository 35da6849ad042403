"""Cup products and obstruction witnesses for the sphere-product filtration."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from whiteprod.errors import BadLevels, NotInRing
from whiteprod.fatwedge import (CohomClass, cup, omega_nontriviality,
                                retraction_obstruction, ring, sphere_tuple)


def test_ring_basis_counts():
    t = sphere_tuple(1, 1, 1, 1)
    assert len(ring(1, 3, t).basis) == 10  # sizes 2..3
    assert len(ring(0, 3, t).basis) == 11  # sizes 2..4
    assert len(ring(0, 1, sphere_tuple(3, 5)).basis) == 1


def test_ring_degrees():
    t = sphere_tuple(3, 5)
    r = ring(0, 1, t)
    (s,) = r.basis
    assert r.degree(s) == 8


def test_bad_levels():
    t = sphere_tuple(2, 2, 2, 2)
    with pytest.raises(BadLevels):
        ring(3, 3, t)
    with pytest.raises(BadLevels):
        ring(0, 4, t)  # the public op stops at b = r-1
    with pytest.raises(BadLevels):
        sphere_tuple(2)
    with pytest.raises(BadLevels):
        sphere_tuple(2, 0)


def test_cup_complementary_pair():
    t = sphere_tuple(2, 2, 2, 2)
    full = ring(0, 3, t)
    x = full.generator({1, 2})
    y = full.generator({3, 4})
    z = cup(x, y, full)
    assert not z.is_zero and set(z.coeffs) == {frozenset({1, 2, 3, 4})}
    truncated = ring(1, 3, t)
    assert cup(truncated.generator({1, 2}), truncated.generator({3, 4}),
               truncated).is_zero


def test_cup_overlapping_support_dies():
    t = sphere_tuple(2, 2, 2, 2)
    r = ring(0, 3, t)
    x = r.generator({1, 2})
    assert cup(x, x, r).is_zero


def test_cup_rejects_foreign_classes():
    t = sphere_tuple(2, 2, 2, 2)
    r = ring(1, 3, t)
    with pytest.raises(NotInRing):
        r.generator({1})
    with pytest.raises(NotInRing):
        cup(CohomClass({frozenset({1}): 1}), r.generator({1, 2}), r)


def test_retraction_obstruction_examples():
    w = retraction_obstruction(sphere_tuple(2, 2, 2, 2))
    assert (w.left, w.right) == ((1, 2), (3, 4))
    assert retraction_obstruction(sphere_tuple(2, 2, 2)) is None
    assert retraction_obstruction(sphere_tuple(3, 5)) is None


def test_omega_witness_examples():
    w = omega_nontriviality(sphere_tuple(3, 5))
    assert (w.left, w.right) == ((1,), (2,))
    w = omega_nontriviality(sphere_tuple(1, 2, 3, 1))
    assert (w.left, w.right) == ((1,), (2, 3, 4))


_dims = st.lists(st.integers(1, 4), min_size=2, max_size=5)


@given(_dims, st.data())
@settings(max_examples=80, deadline=None)
def test_graded_commutativity(dims, data):
    t = sphere_tuple(*dims)
    r = ring(0, t.r - 1, t) if t.r > 2 else ring(0, 1, t)
    if len(r.basis) < 2:
        return
    s = data.draw(st.sampled_from(r.basis))
    u = data.draw(st.sampled_from(r.basis))
    x, y = r.generator(s), r.generator(u)
    sign = (-1) ** (r.degree(s) * r.degree(u))
    assert cup(x, y, r) == cup(y, x, r).scale(sign)


def test_associativity_on_disjoint_supports():
    t = sphere_tuple(1, 2, 3, 2, 1, 3)
    r = ring(0, 5, t)
    for a, b, c in [({1}, {2}, {3}), ({1, 2}, {3}, {4, 5}),
                    ({2}, {4, 6}, {1, 3})]:
        a, b, c = frozenset(a), frozenset(b), frozenset(c)
        if any(len(s) < 2 for s in (a, b, c)):
            # sizes below 2 are not in this quotient; lift to the next ring
            continue
        x, y, z = (CohomClass({s: 1}) for s in (a, b, c))
        left = cup(cup(x, y, r), z, r)
        right = cup(x, cup(y, z, r), r)
        assert left == right


def test_associativity_in_full_rings():
    from whiteprod.fatwedge import QuotientRing
    t = sphere_tuple(1, 2, 3, 2)
    full = QuotientRing(t, 0, t.r, _allow_full=True)
    for a, b, c in [({1}, {2}, {3}), ({1}, {2, 3}, {4}), ({2}, {4}, {1, 3})]:
        x, y, z = (CohomClass({frozenset(s): 1}) for s in (a, b, c))
        assert cup(cup(x, y, full), z, full) == cup(x, cup(y, z, full), full)


@given(_dims)
@settings(max_examples=60, deadline=None)
def test_betti_numbers_against_subset_enumeration(dims):
    t = sphere_tuple(*dims)
    r = ring(0, t.r - 1, t) if t.r > 2 else ring(0, 1, t)
    oracle: dict = {}
    for size in range(2, t.r + 1):
        for combo in combinations(range(1, t.r + 1), size):
            d = sum(dims[i - 1] for i in combo)
            oracle[d] = oracle.get(d, 0) + 1
    assert r.betti() == oracle


def test_ring_json_dump():
    t = sphere_tuple(2, 2)
    r = ring(0, 1, t)
    js = r.to_json(with_products=True)
    assert js["basis"] == [[1, 2]]
    assert js["products"][0]["product"] == "0"


def _enumerated_basis(r: int, a: int, b: int) -> list:
    """Every subset of {1..r} with r - b < |S| <= r - a, by size, then
    lexicographically, from the whole power set."""
    subsets = [frozenset(c) for size in range(r + 1)
               for c in combinations(range(1, r + 1), size)]
    basis = [s for s in subsets if r - b < len(s) <= r - a]
    return sorted(basis, key=lambda s: (len(s), sorted(s)))


def test_membership_and_basis_order_against_enumeration():
    from whiteprod.fatwedge import QuotientRing
    for r in range(2, 7):
        t = sphere_tuple(*[(i % 3) + 1 for i in range(r)])
        subsets = [frozenset(c) for size in range(r + 2)
                   for c in combinations(range(0, r + 2), size)]
        for full in (False, True):
            top = r if full else r - 1
            for a, b in combinations(range(top + 1), 2):
                rg = QuotientRing(t, a, b, _allow_full=full)
                oracle = _enumerated_basis(r, a, b)
                assert list(rg.basis) == oracle
                members = set(oracle)
                for s in subsets:
                    try:
                        rg.generator(s)
                        held = True
                    except NotInRing:
                        held = False
                    assert held == (s in members), (r, a, b, sorted(s))


def test_sixty_four_spheres_answer_without_the_basis():
    from math import comb
    t = sphere_tuple(*[2] * 64)
    w = retraction_obstruction(t)
    assert (w.left, w.right) == ((1, 2), tuple(range(3, 65)))
    assert (w.vanishing_ring, w.nonvanishing_ring) == ((1, 63), (0, 63))
    w = omega_nontriviality(t)
    assert (w.left, w.right) == ((1,), tuple(range(2, 65)))
    assert ring(0, 63, t).betti() == {2 * k: comb(64, k)
                                      for k in range(2, 65)}
