"""The fat-wedge kernels: Betti numbers from one big-integer product (and
by degree past PACK_ROW), the cup rule's sign, both witnesses, and the
listing limit."""

import json
import subprocess
import sys
from contextlib import contextmanager
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import whiteprod.fatwedge as F
from whiteprod.errors import BadLevels, ListingLimitExceeded
from whiteprod.fatwedge import (LIST_LIMIT, CohomClass, QuotientRing, cup,
                                omega_nontriviality, retraction_obstruction,
                                ring, sphere_tuple)

# PACK_ROW values that send every tuple down one path of ``betti``
PATHS = {"packed": 1 << 62, "by_degree": 0}


@contextmanager
def _pack_row(bits: int):
    saved, F.PACK_ROW = F.PACK_ROW, bits
    try:
        yield
    finally:
        F.PACK_ROW = saved


@pytest.fixture(params=sorted(PATHS))
def path(request):
    with _pack_row(PATHS[request.param]):
        yield request.param


def _subsets(r: int):
    return [frozenset(c) for k in range(r + 1)
            for c in combinations(range(1, r + 1), k)]


def _enumerated_betti(dims: tuple, a: int, b: int) -> dict:
    r = len(dims)
    out: dict = {}
    for s in _subsets(r):
        if r - b < len(s) <= r - a:
            d = sum(dims[i - 1] for i in s)
            out[d] = out.get(d, 0) + 1
    return dict(sorted(out.items()))


def _level_pairs(r: int):
    for full in (False, True):
        for a, b in combinations(range((r if full else r - 1) + 1), 2):
            yield a, b, full


def _check_every_level_pair(dims):
    t = sphere_tuple(*dims)
    for a, b, full in _level_pairs(t.r):
        want = _enumerated_betti(tuple(dims), a, b)
        for name, bits in PATHS.items():
            with _pack_row(bits):
                got = QuotientRing(t, a, b, _allow_full=full).betti()
            assert got == want and list(got) == list(want), (dims, a, b,
                                                             full, name)


@pytest.mark.parametrize("dims", [
    (1, 1), (3, 5), (1, 2, 3), (2, 2, 2, 2), (1, 2, 3, 1), (6, 1, 6, 1, 6),
    (1, 2, 3, 4, 5, 6), (1, 1, 1, 1, 1, 1, 1), (3, 1, 2, 3, 1, 2, 3, 1),
    (1, 1, 1, 1, 1, 1, 1, 1), (7, 2, 9, 1, 4, 4, 11, 3)])
def test_betti_at_every_level_pair_against_enumeration(dims):
    _check_every_level_pair(dims)


@given(st.lists(st.integers(1, 9), min_size=2, max_size=8))
@settings(max_examples=60, deadline=None)
def test_betti_at_every_level_pair_property(dims):
    _check_every_level_pair(dims)


def _two_kinds_betti(n1: int, m1: int, n2: int, m2: int, lo: int,
                     hi: int) -> dict:
    """Betti numbers for n1 spheres of dimension m1 and n2 of dimension m2,
    basis sizes lo..hi, by choosing i of the first kind and j of the
    second."""
    out: dict = {}
    for i in range(n1 + 1):
        for j in range(n2 + 1):
            if lo <= i + j <= hi:
                d = i * m1 + j * m2
                out[d] = out.get(d, 0) + comb(n1, i) * comb(n2, j)
    return dict(sorted(out.items()))


def test_forty_unit_spheres_fill_the_widest_field(path):
    # the largest coefficient is C(40, 20), above 2^37, in fields of 41 bits
    t = sphere_tuple(*[1] * 40)
    assert ring(0, 39, t).betti() == {k: comb(40, k) for k in range(2, 41)}
    full = QuotientRing(t, 0, 40, _allow_full=True)
    assert full.betti() == {k: comb(40, k) for k in range(1, 41)}
    assert ring(20, 21, t).betti() == {20: comb(40, 20)}


def test_forty_spheres_sum_sizes_at_one_degree(path):
    # dimensions 1 and 2 put several basis sizes at one degree
    t = sphere_tuple(*([1] * 20 + [2] * 20))
    for a, b in [(0, 39), (1, 39), (10, 30), (0, 1)]:
        assert ring(a, b, t).betti() == _two_kinds_betti(
            20, 1, 20, 2, 40 - b + 1, 40 - a), (a, b)


def test_sixty_four_spheres(path):
    t = sphere_tuple(*[1] * 64)
    assert ring(0, 63, t).betti() == {k: comb(64, k) for k in range(2, 65)}
    assert ring(30, 34, t).betti() == {k: comb(64, k) for k in range(31, 35)}
    t = sphere_tuple(*([1] * 32 + [3] * 32))
    for a, b in [(0, 63), (5, 40)]:
        assert ring(a, b, t).betti() == _two_kinds_betti(
            32, 1, 32, 3, 64 - b + 1, 64 - a), (a, b)


@pytest.mark.parametrize("dims", [(2, 1.5), (2.0, 2), (True, 2), (2, False),
                                  ("2", 2), (2, None)])
def test_non_integer_dims_raise_bad_levels(dims):
    with pytest.raises(BadLevels):
        sphere_tuple(*dims)


def _reference_omega(t):
    """The omega check as two cup products of classes: ({1}, {2..r}) dies
    in T_1/T_r and lives in T_0/T_r."""
    r = t.r
    full = QuotientRing(t, 0, r, _allow_full=True)
    fat = QuotientRing(t, 1, r, _allow_full=True)
    s, u = frozenset({1}), frozenset(range(2, r + 1))
    dead = cup(CohomClass({s: 1}), CohomClass({u: 1}), fat)
    live = cup(CohomClass({s: 1}), CohomClass({u: 1}), full)
    assert dead.is_zero and not live.is_zero
    return ((1,), tuple(range(2, r + 1)), t.degree(s | u), fat.levels,
            full.levels)


def test_omega_matches_the_two_cup_reference():
    for r in range(2, 7):
        for dims in product((1, 2, 3), repeat=r):
            t = sphere_tuple(*dims)
            w = omega_nontriviality(t)
            got = (w.left, w.right, w.degree, w.vanishing_ring,
                   w.nonvanishing_ring)
            assert got == _reference_omega(t), dims


def _searched_obstruction(t):
    """The retraction obstruction as a search: the first complementary pair,
    by size and then lexicographically, whose two cup products die in
    T_1/T_{r-1} and live in T_0/T_{r-1}; None when no pair does."""
    r = t.r
    if r < 4:
        return None
    killed = QuotientRing(t, 1, r - 1)
    alive = QuotientRing(t, 0, r - 1)
    everything = frozenset(range(1, r + 1))
    for size in range(2, r - 1):
        for left in combinations(range(1, r + 1), size):
            s = frozenset(left)
            u = everything - s
            dead = cup(CohomClass({s: 1}), CohomClass({u: 1}), killed)
            live = cup(CohomClass({s: 1}), CohomClass({u: 1}), alive)
            if dead.is_zero and not live.is_zero:
                return (tuple(sorted(s)), tuple(sorted(u)),
                        t.degree(everything), killed.levels, alive.levels)
    return None


def _witness_tuple(w):
    return None if w is None else (w.left, w.right, w.degree,
                                   w.vanishing_ring, w.nonvanishing_ring)


def test_obstruction_matches_the_search_reference():
    tuples = [dims for r in range(2, 8)
              for dims in product((1, 2, 3), repeat=r)] + [(2,) * 64]
    for dims in tuples:
        t = sphere_tuple(*dims)
        want = _searched_obstruction(t)
        assert _witness_tuple(retraction_obstruction(t)) == want, dims
        assert (want is None) == (t.r < 4), dims


def test_both_witnesses_fail_loudly_when_the_cup_rule_breaks(monkeypatch):
    monkeypatch.setattr(QuotientRing, "_sign", lambda self, s, t: 0)
    for witness in (retraction_obstruction, omega_nontriviality):
        with pytest.raises(AssertionError):
            witness(sphere_tuple(2, 2, 2, 2))


def _shuffle_sign(s: frozenset, t: frozenset, dims: tuple) -> int:
    """Sort the word s then t by adjacent swaps; each swap of i past j
    costs (-1)^(m_i m_j)."""
    word = sorted(s) + sorted(t)
    sign = 1
    for end in range(len(word) - 1, 0, -1):
        for k in range(end):
            if word[k] > word[k + 1]:
                if dims[word[k] - 1] * dims[word[k + 1] - 1] % 2:
                    sign = -sign
                word[k], word[k + 1] = word[k + 1], word[k]
    return sign


@pytest.mark.parametrize("dims", [(1, 1, 1), (1, 2, 3, 1), (3, 1, 3, 2, 1),
                                  (2, 2, 2, 2), (1, 3, 5, 2, 1)])
def test_sign_helper_against_the_shuffle_sign(dims):
    t = sphere_tuple(*dims)
    for a, b, full in _level_pairs(t.r):
        rg = QuotientRing(t, a, b, _allow_full=full)
        basis = rg.basis
        members = set(basis)
        for s in basis:
            for u in basis:
                want = 0
                if not s & u and s | u in members:
                    want = _shuffle_sign(s, u, dims)
                assert rg._sign(s, u) == want, (dims, a, b, sorted(s),
                                                sorted(u))


def test_listing_limit_counts_the_basis():
    # r = 16 lists its whole basis; r = 17 does not
    assert len(ring(0, 15, sphere_tuple(*[2] * 16)).basis) <= LIST_LIMIT
    big = ring(0, 16, sphere_tuple(*[2] * 17))
    with pytest.raises(ListingLimitExceeded, match="LIST_LIMIT"):
        big.basis
    with pytest.raises(ListingLimitExceeded, match="LIST_LIMIT"):
        big.to_json()
    assert sum(big.betti().values()) == 2 ** 17 - 1 - 17
    assert "131054 classes" in str(big)


def test_listing_limit_counts_products():
    t = sphere_tuple(*[1] * 8)
    js = ring(0, 7, t).to_json(with_products=True)
    assert len(js["products"]) == 247 ** 2
    with pytest.raises(ListingLimitExceeded, match="LIST_LIMIT"):
        ring(0, 8, sphere_tuple(*[1] * 9)).to_json(with_products=True)
    assert len(ring(0, 8, sphere_tuple(*[1] * 9)).to_json()["basis"]) == 502


def test_cli_refuses_a_listing_past_the_limit():
    dims = ",".join(["2"] * 24)
    for extra in ([], ["--format", "json"]):
        done = subprocess.run(
            [sys.executable, "-m", "whiteprod.cli"] + extra +
            ["fatwedge", "--dims", dims, "--levels", "0,23"],
            capture_output=True, text=True, timeout=60)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.count("\n") == 1 and "LIST_LIMIT" in done.stderr


def test_small_dimensions_pack_and_large_ones_count_by_degree(monkeypatch):
    seen = []
    by_degree = F._betti_by_degree
    monkeypatch.setattr(F, "_betti_by_degree",
                        lambda dims, sizes: seen.append(dims) or
                        by_degree(dims, sizes))
    for dims in [(6,) * 11, (3,) * 8, (1,) * 40, (1, 2) * 20]:
        ring(0, len(dims) - 1, sphere_tuple(*dims)).betti()
    assert seen == []
    huge = (10 ** 18, 5)
    assert QuotientRing(sphere_tuple(*huge), 0, 2, _allow_full=True).betti() \
        == {5: 1, 10 ** 18: 1, 10 ** 18 + 5: 1}
    assert seen == [huge]


def test_equal_large_dimensions_keep_one_degree_per_size():
    t = sphere_tuple(*[10 ** 6] * 24)
    assert QuotientRing(t, 22, 24, _allow_full=True).betti() == {
        10 ** 6: 24, 2 * 10 ** 6: 276}
    assert ring(0, 23, t).betti() == {k * 10 ** 6: comb(24, k)
                                      for k in range(2, 25)}


def test_listing_limit_never_computes_betti(monkeypatch):
    def refuse(self):
        raise AssertionError("the listing limit computed betti")
    monkeypatch.setattr(QuotientRing, "betti", refuse)
    big = ring(0, 23, sphere_tuple(*[10 ** 6] * 24))
    for listing in (lambda: big.basis, big.to_json,
                    lambda: big.to_json(with_products=True)):
        with pytest.raises(ListingLimitExceeded, match="LIST_LIMIT"):
            listing()
    assert str(big).endswith(f"{2 ** 24 - 1 - 24} classes")  # sizes 2..24


def _cli(*argv):
    return subprocess.run([sys.executable, "-m", "whiteprod.cli"] +
                          list(argv), capture_output=True, text=True,
                          timeout=20)


@pytest.mark.parametrize("dims, betti", [
    ("1000000000,1", "{1000000001: 1}"),
    ("1000000000000000000,3", "{1000000000000000003: 1}")])
def test_cli_answers_for_large_dimensions(dims, betti):
    done = _cli("fatwedge", "--dims", dims, "--levels", "0,1")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"betti: {betti}"


def test_cli_refuses_a_large_listing_of_large_dimensions():
    done = _cli("fatwedge", "--dims", ",".join(["1000000"] * 24),
                "--levels", "0,23")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.count("\n") == 1 and "LIST_LIMIT" in done.stderr


def test_cli_lists_products_in_json_only():
    # 502 basis classes fit the limit; with their 502^2 products they do not
    dims = ",".join(["1"] * 9)
    text = _cli("fatwedge", "--dims", dims, "--levels", "0,8", "--products")
    assert text.returncode == 0 and text.stdout.count("  x[") == 502
    js = _cli("--format", "json", "fatwedge", "--dims", dims, "--levels",
              "0,8", "--products")
    assert js.returncode == 2 and "LIST_LIMIT" in js.stderr


@pytest.mark.parametrize("dims, left", [("2,2,2,2", [1, 2]), ("2,2,2", None)])
def test_cli_obstruction_wins_over_omega(dims, left):
    done = _cli("--format", "json", "fatwedge", "--dims", dims,
                "--obstruction", "--omega")
    assert done.returncode == 0, done.stderr
    witness = json.loads(done.stdout)["witness"]
    assert (witness and witness["left"]) == left
    text = _cli("fatwedge", "--dims", dims, "--obstruction", "--omega")
    assert text.stdout.startswith("witness: {'left': [1, 2]" if left
                                  else "witness: none")
