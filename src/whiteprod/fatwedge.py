"""Combinatorial integral cohomology of quotients of the product filtration.

For spheres S = (S^{m_1}, ..., S^{m_r}) the product T_0 of the S^{m_i}
has one cell per subset of {1..r}; the filtration level T_s keeps the
cells with at least s basepoint coordinates, i.e. subsets of size at most
r - s.  The cohomology of T_a/T_b is therefore free on the subsets S with
r - b < |S| <= r - a, and the cup product is the subset union with a
Koszul sign, truncated to the basis.  No torsion arises, so integer
coefficients suffice.

A ring is its sphere tuple and its two levels: basis membership is the
size test itself, and the Betti numbers are the coefficients of the
generating polynomial prod_i (1 + x t^{m_i}).  While one row of it fits in
PACK_ROW bits the polynomial is evaluated as one Python integer (Kronecker
substitution); past that, where a packed integer would grow with the
dimensions themselves, it is kept as a dict over the degrees that occur
(see ``QuotientRing.betti``).  The basis is listed only for output, and a
listing of more than LIST_LIMIT entries (basis subsets, plus their ordered
pairs when products are asked for) is refused with ``ListingLimitExceeded``
before anything is built, counted from binomial coefficients alone; the
CLI exits 2 on it.

Both witnesses (the retraction obstruction and the omega pair) are closed
forms: one complementary pair whose product the cup rule checks dead in
one ring and alive in another.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Optional

from .errors import BadLevels, ListingLimitExceeded, NotInRing

# Entries one listing may hold: the basis subsets, plus their ordered pairs
# when products are asked for.  Every ring of r <= 16 spheres lists its
# basis, and every ring of r <= 8 lists its products too (247 + 247^2).
LIST_LIMIT = 1 << 16

# Bits in one row of ``betti``'s packed product, (r + 1)(D + 1) for r
# spheres of top degree D = sum(m_i), up to which the generating polynomial
# is packed into one integer.  That integer has r + 1 rows, under 100 KB
# (r + 1 <= 90 here, as D >= r), so its r shifts and the readout of one row
# take a few milliseconds at worst.  Every tuple of small dimensions packs;
# larger ones count by degree, in memory that grows with the number of
# distinct degrees and not with the dimensions.
PACK_ROW = 1 << 13


@dataclass(eq=False, repr=False)
class SphereTuple:
    """The dimensions (m_1, ..., m_r), r >= 2, each at least 1."""

    dims: tuple

    def __post_init__(self):
        if len(self.dims) < 2:
            raise BadLevels("a sphere tuple needs r >= 2 factors")
        if any(not isinstance(m, int) or isinstance(m, bool)
               for m in self.dims):
            raise BadLevels("sphere dimensions must be integers")
        if any(m < 1 for m in self.dims):
            raise BadLevels("sphere dimensions must be >= 1")

    @property
    def r(self) -> int:
        return len(self.dims)

    def degree(self, subset: frozenset) -> int:
        return sum(self.dims[i - 1] for i in subset)


def sphere_tuple(*dims: int) -> SphereTuple:
    return SphereTuple(tuple(dims))


class CohomClass:
    """An integer combination of subset classes, keyed by frozensets."""

    def __init__(self, coeffs: Optional[dict] = None):
        self.coeffs = {s: c for s, c in (coeffs or {}).items() if c}

    def __add__(self, other: "CohomClass") -> "CohomClass":
        out = dict(self.coeffs)
        for s, c in other.coeffs.items():
            out[s] = out.get(s, 0) + c
        return CohomClass(out)

    def scale(self, n: int) -> "CohomClass":
        return CohomClass({s: n * c for s, c in self.coeffs.items()})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, CohomClass) and self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for s in sorted(self.coeffs, key=lambda t: (len(t), sorted(t))):
            c = self.coeffs[s]
            label = "x{" + ",".join(str(i) for i in sorted(s)) + "}"
            parts.append(label if c == 1 else f"{c} {label}")
        return " + ".join(parts)


class QuotientRing:
    """H*(T_a/T_b) for one sphere tuple: basis subsets with
    r - b < |S| <= r - a."""

    def __init__(self, tuple_: SphereTuple, a: int, b: int,
                 _allow_full: bool = False):
        r = tuple_.r
        hi = r - 1 if not _allow_full else r
        if not (0 <= a < b <= hi):
            raise BadLevels(f"levels must satisfy 0 <= a < b <= {hi}, "
                            f"got ({a}, {b})")
        self.tuple = tuple_
        self.levels = (a, b)
        self._min, self._max = r - b + 1, r - a  # basis subset sizes
        self._indices = frozenset(range(1, r + 1))

    @property
    def _sizes(self) -> range:
        return range(self._min, self._max + 1)

    def _holds(self, s: frozenset) -> bool:
        return self._min <= len(s) <= self._max and s <= self._indices

    @property
    def basis(self) -> tuple:
        """The basis subsets by size, then lexicographically; refused with
        ListingLimitExceeded past LIST_LIMIT subsets."""
        self._check_listing()
        return tuple(self._listing())

    def _listing(self):
        r = self.tuple.r
        return (frozenset(c) for k in self._sizes
                for c in combinations(range(1, r + 1), k))

    def _rank(self) -> int:
        return sum(comb(self.tuple.r, k) for k in self._sizes)

    def generator(self, subset: Iterable[int]) -> CohomClass:
        s = frozenset(subset)
        if not self._holds(s):
            raise NotInRing(f"{sorted(s)} is not a basis subset of this ring")
        return CohomClass({s: 1})

    def degree(self, subset: frozenset) -> int:
        return self.tuple.degree(subset)

    def _sign(self, s: frozenset, t: frozenset) -> int:
        """x_s x_t = sign * x_{s|t}: 0 when s and t meet or their union
        leaves the basis, else the Koszul sign."""
        if s & t or not self._holds(s | t):
            return 0
        return _koszul_sign(s, t, self.tuple.dims)

    def betti(self) -> dict:
        """Ranks by ascending degree: the coefficients of x^k t^d in
        prod_i (1 + x t^{m_i}), summed over the basis sizes k.

        While a row of w (D + 1) bits fits in PACK_ROW, the product is one
        Python integer at t = 2^w and x = 2^(w (D + 1)), where D = sum m_i
        is the top degree and w = r + 1 bits hold one coefficient.  Every
        coefficient, and every sum over sizes at one degree, counts distinct
        subsets of {1..r}, so it stays below 2^r and no field carries into
        the next.  Each sphere is one shift and one add; the rows of the
        basis sizes are masked out and summed, and the degrees read off from
        the bottom field up.  Past PACK_ROW the coefficients are counted in
        dicts over the sizes and degrees that occur, so a large dimension
        costs no memory.  ``basis`` and ``to_json`` bound their listings by
        binomial coefficients and never call this."""
        dims = self.tuple.dims
        w = len(dims) + 1
        row = w * (sum(dims) + 1)  # bits per power of x
        if row > PACK_ROW:
            return _betti_by_degree(dims, self._sizes)
        poly = 1
        for m in dims:
            poly += poly << (row + w * m)
        poly >>= row * self._min
        total = 0
        for _ in self._sizes:
            total += poly & ((1 << row) - 1)
            poly >>= row
        out, field, d = {}, (1 << w) - 1, 0
        while total:
            if total & field:
                out[d] = total & field
            total >>= w
            d += 1
        return out

    def _check_listing(self, with_products: bool = False) -> None:
        """Refuse a listing of the basis (and of its products) that would
        hold more than LIST_LIMIT entries, before building any of it."""
        n = self._rank()
        entries = n + n * n if with_products else n
        if entries > LIST_LIMIT:
            what = f" and their {n * n} products" if with_products else ""
            raise ListingLimitExceeded(
                f"listing {n} basis classes{what} exceeds LIST_LIMIT = "
                f"{LIST_LIMIT} entries")

    def __str__(self):
        a, b = self.levels
        return (f"H*(T_{a}/T_{b}) of spheres {self.tuple.dims}: "
                f"{self._rank()} classes")

    def to_json(self, with_products: bool = False) -> dict:
        self._check_listing(with_products)
        basis = tuple(self._listing())
        out = {
            "dims": list(self.tuple.dims),
            "levels": list(self.levels),
            "basis": [sorted(s) for s in basis],
            "degrees": {str(sorted(s)): self.degree(s) for s in basis},
            "betti": {str(d): n for d, n in self.betti().items()},
        }
        if with_products:
            out["products"] = [
                {"left": sorted(s), "right": sorted(t), "product": repr(
                    cup(CohomClass({s: 1}), CohomClass({t: 1}), self))}
                for s in basis for t in basis]
        return out


def ring(a: int, b: int, tuple_: SphereTuple) -> QuotientRing:
    """The quotient ring for levels 0 <= a < b <= r-1."""
    return QuotientRing(tuple_, a, b)


def _betti_by_degree(dims: tuple, sizes: range) -> dict:
    """``betti`` past PACK_ROW: counts[k][d] holds the subsets of size k
    and degree d, one dict entry per pair that occurs."""
    counts = [{0: 1}]
    for m in dims:
        counts.append({})
        for k in range(len(counts) - 1, 0, -1):
            for d, n in counts[k - 1].items():
                counts[k][d + m] = counts[k].get(d + m, 0) + n
    out: dict = {}
    for k in sizes:
        for d, n in counts[k].items():
            out[d] = out.get(d, 0) + n
    return dict(sorted(out.items()))


def _koszul_sign(s: frozenset, t: frozenset, dims: tuple) -> int:
    """Sign of the degree-weighted shuffle merging s before t."""
    odd = sum(dims[i - 1] * dims[j - 1] for i in s for j in t if i > j)
    return -1 if odd % 2 else 1


def cup(x: CohomClass, y: CohomClass, ring_: QuotientRing) -> CohomClass:
    """Bilinear product; subset classes multiply to their union or die."""
    for s in list(x.coeffs) + list(y.coeffs):
        if not ring_._holds(s):
            raise NotInRing(f"{sorted(s)} is not in the ring's span")
    out: dict = {}
    for s, c in x.coeffs.items():
        for t, d in y.coeffs.items():
            sign = ring_._sign(s, t)
            if sign:
                out[s | t] = out.get(s | t, 0) + c * d * sign
    return CohomClass(out)  # drops the coefficients that cancelled


@dataclass(eq=False, repr=False)
class Witness:
    """A complementary pair of basis subsets whose cup product, of degree
    ``degree``, vanishes in the ring at levels ``vanishing_ring`` but not
    in the ring at ``nonvanishing_ring``; read through ``to_json``."""

    left: tuple
    right: tuple
    degree: int
    vanishing_ring: tuple
    nonvanishing_ring: tuple

    def to_json(self) -> dict:
        return {"left": list(self.left), "right": list(self.right),
                "degree": self.degree,
                "vanishing_ring": list(self.vanishing_ring),
                "nonvanishing_ring": list(self.nonvanishing_ring)}


def _checked_witness(tuple_: SphereTuple, left: tuple, right: tuple,
                     dead: tuple, live: tuple) -> Witness:
    """The complementary pair (left, right), checked by the cup rule: its
    product, the top class of degree sum m_i, is zero in the ring at the
    levels ``dead`` and nonzero in the ring at ``live``."""
    killed = QuotientRing(tuple_, *dead, _allow_full=True)
    alive = QuotientRing(tuple_, *live, _allow_full=True)
    s, t = frozenset(left), frozenset(right)
    if killed._sign(s, t) or not alive._sign(s, t):
        # an internal invariant, not an input error: let it surface
        raise AssertionError(f"witness {left}, {right} failed the cup rule; "
                             "the model is broken")
    return Witness(left, right, sum(tuple_.dims), killed.levels, alive.levels)


def retraction_obstruction(tuple_: SphereTuple) -> Optional[Witness]:
    """The pair ({1, 2}, {3..r}), killed in T_1/T_{r-1} but alive in
    T_0/T_{r-1}, or None when r < 4; checked by the cup rule.

    Each half of a complementary pair needs 2 to r - 1 indices to be a
    class of T_1/T_{r-1}, so no pair exists for r < 4.  For r >= 4 the
    halves {1, 2} and {3..r} qualify, and their union has size r: a class
    of T_0/T_{r-1} but not of T_1/T_{r-1}.  It is the first complementary
    pair by size, then lexicographically.
    """
    r = tuple_.r
    if r < 4:
        return None
    return _checked_witness(tuple_, (1, 2), tuple(range(3, r + 1)),
                            (1, r - 1), (0, r - 1))


def omega_nontriviality(tuple_: SphereTuple) -> Witness:
    """The bottom-cell pair ({1}, {2..r}): zero against the fat wedge's
    classes in T_1/T_r, nonzero in the full product T_0/T_r; checked by the
    cup rule."""
    r = tuple_.r
    return _checked_witness(tuple_, (1,), tuple(range(2, r + 1)), (1, r),
                            (0, r))
