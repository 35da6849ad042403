"""Combinatorial integral cohomology of quotients of the product filtration.

For spheres S = (S^{m_1}, ..., S^{m_r}) the product T_0 of the S^{m_i}
has one cell per subset of {1..r}; the filtration level T_s keeps the
cells with at least s basepoint coordinates, i.e. subsets of size at most
r - s.  The cohomology of T_a/T_b is therefore free on the subsets S with
r - b < |S| <= r - a, and the cup product is the subset union with a
Koszul sign, truncated to the basis.  No torsion arises, so integer
coefficients suffice.

A ring is its sphere tuple and its two levels: basis membership is the
size test itself, and the Betti numbers are counted from the generating
polynomial prod_i (1 + x t^{m_i}).  The basis is listed only for output.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional

from .errors import BadLevels, NotInRing


@dataclass(frozen=True)
class SphereTuple:
    dims: tuple

    def __post_init__(self):
        if len(self.dims) < 2:
            raise BadLevels("a sphere tuple needs r >= 2 factors")
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
        """The basis subsets by size, then lexicographically."""
        return tuple(frozenset(c) for k in self._sizes
                     for c in combinations(range(1, self.tuple.r + 1), k))

    def generator(self, subset: Iterable[int]) -> CohomClass:
        s = frozenset(subset)
        if not self._holds(s):
            raise NotInRing(f"{sorted(s)} is not a basis subset of this ring")
        return CohomClass({s: 1})

    def degree(self, subset: frozenset) -> int:
        return self.tuple.degree(subset)

    def betti(self) -> dict:
        """Ranks by ascending degree: the coefficients of x^k t^d in
        prod_i (1 + x t^{m_i}), summed over the basis sizes k."""
        counts = [{0: 1}]  # counts[k][d]: subsets of size k and degree d
        for m in self.tuple.dims:
            counts.append({})
            for k in range(len(counts) - 1, 0, -1):
                for d, n in counts[k - 1].items():
                    counts[k][d + m] = counts[k].get(d + m, 0) + n
        out: dict[int, int] = {}
        for k in self._sizes:
            for d, n in counts[k].items():
                out[d] = out.get(d, 0) + n
        return dict(sorted(out.items()))

    def __str__(self):
        a, b = self.levels
        rank = sum(self.betti().values())
        return f"H*(T_{a}/T_{b}) of spheres {self.tuple.dims}: {rank} classes"

    def to_json(self, with_products: bool = False) -> dict:
        basis = self.basis
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
    dims = ring_.tuple.dims
    for s, c in x.coeffs.items():
        for t, d in y.coeffs.items():
            u = s | t
            if s & t or not ring_._holds(u):
                continue
            out[u] = out.get(u, 0) + c * d * _koszul_sign(s, t, dims)
    return CohomClass(out)  # drops the coefficients that cancelled


@dataclass(frozen=True)
class Witness:
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


def retraction_obstruction(tuple_: SphereTuple) -> Optional[Witness]:
    """First complementary pair killed in T_1/T_{r-1} but alive in T_0/T_{r-1}.

    A witness exists exactly when r >= 4: both halves need at least two
    indices for their classes to survive the quotient by the wedge.
    """
    r = tuple_.r
    if r < 4:
        return None  # complementary pairs need two indices on each side
    killed = QuotientRing(tuple_, 1, r - 1)
    alive = QuotientRing(tuple_, 0, r - 1)
    everything = frozenset(range(1, r + 1))
    for size in range(2, r - 1):
        for left in combinations(range(1, r + 1), size):
            s = frozenset(left)
            t = everything - s
            dead = cup(CohomClass({s: 1}), CohomClass({t: 1}), killed)
            live = cup(CohomClass({s: 1}), CohomClass({t: 1}), alive)
            if dead.is_zero and not live.is_zero:
                return Witness(tuple(sorted(s)), tuple(sorted(t)),
                               tuple_.degree(everything),
                               killed.levels, alive.levels)
    return None


def omega_nontriviality(tuple_: SphereTuple) -> Witness:
    """The bottom-cell pair ({1}, {2..r}): zero against the fat wedge's
    classes, nonzero in the full product."""
    r = tuple_.r
    full = QuotientRing(tuple_, 0, r, _allow_full=True)
    fat = QuotientRing(tuple_, 1, r, _allow_full=True)
    everything = frozenset(range(1, r + 1))
    s = frozenset({1})
    t = everything - s
    dead = cup(CohomClass({s: 1}), CohomClass({t: 1}), fat)
    live = cup(CohomClass({s: 1}), CohomClass({t: 1}), full)
    if not dead.is_zero or live.is_zero:
        # an internal invariant, not an input error: let it surface
        raise AssertionError("bottom-cell witness failed; the model is broken")
    return Witness(tuple(sorted(s)), tuple(sorted(t)),
                   tuple_.degree(everything), fat.levels, full.levels)
