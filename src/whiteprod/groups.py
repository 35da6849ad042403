"""Exact arithmetic in finitely generated abelian homotopy-group tables.

A table is a direct sum of cyclic groups Z_d, one summand per named
generator, with d = 0 encoding an infinite cyclic summand.  Elements are
integer coefficient vectors reduced modulo each finite order.  Each
subgroup keeps one Hermite normal form of its integer row lattice, so that
equal subgroups have equal rows; it makes membership, coset equality and
exact orders cheap at the scale these tables have (a handful of generators).

A table may be partial: ``completeness`` lists the primes at which the listed
generators are known to exhaust the torsion.  Generators at other primes
may still be listed; arithmetic inside their span stays exact, but global
vanishing statements are only licensed when the relevant orders avoid the
missing primes (the relatively-prime-orders rule applied by the bracket
calculus).

>>> t = GroupTable(TableKey(Space("S", 4), 10), "full", (TableGen("g", 8),))
>>> order_of(GroupElement(t, (2,)))
4
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import gcd
from typing import Iterable, Sequence

from .errors import CalcError, SubgroupMismatch, TableMismatch

INFINITE = math.inf

SPACE_KINDS = ("S", "RP", "CP", "HP")
SPHERE_LIMIT = 1024  # spheres kept by ``sphere``


@dataclass(frozen=True, slots=True)
class Space:
    """A target space tag: the sphere S^n or a projective space FP^n."""

    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in SPACE_KINDS:
            raise CalcError(f"unknown space kind {self.kind!r}")

    @property
    def is_sphere(self) -> bool:
        return self.kind == "S"

    def __str__(self) -> str:
        return f"{self.kind}{self.n}"


@lru_cache(maxsize=SPHERE_LIMIT)
def sphere(n: int) -> Space:
    """S^n, one shared value per n while the cache holds it."""
    return Space("S", n)


def parse_space(text: str) -> Space:
    for kind in ("RP", "CP", "HP", "S"):
        if text.startswith(kind) and text[len(kind):].isdecimal():
            return Space(kind, int(text[len(kind):]))
    raise CalcError(f"cannot parse space tag {text!r}")


@dataclass(eq=False, repr=False)
class GeneratorDecl:
    """A named generator of some homotopy group pi_k(target).

    ``order`` 0 encodes infinite order.  ``suspension_of`` names the
    generator one suspension below, for an explicit link and for every
    family member above the base; ``is_suspension`` is derived from it.
    ``family`` is set on a family's base only, by the relations loader
    through ``dataclasses.replace``.  Compared by identity (generator
    atoms compare by name), and never assigned after construction.
    """

    name: str
    source_dim: int
    target: Space
    order: int
    suspension_of: str | None = None
    family: object = None

    def __post_init__(self):
        if self.order < 0:
            raise CalcError(f"negative order for {self.name}")

    @property
    def is_suspension(self) -> bool:
        return self.suspension_of is not None


@dataclass(frozen=True, slots=True, repr=False)
class TableKey:
    """The key of the table of pi_k(target), shown as such by ``str``."""

    target: Space
    k: int

    def __str__(self) -> str:
        return f"pi_{self.k}({self.target})"


@dataclass(unsafe_hash=True, repr=False)
class TableGen:
    """One cyclic summand: a display label plus its exact order.  Equal
    and hashed by both, and never assigned after construction."""

    label: str
    order: int


class GroupTable:
    """An ordered list of cyclic summands for one pi_k(target).

    ``completeness`` is "full", or a frozenset of primes at which the
    listed generators exhaust the torsion.
    """

    def __init__(self, key: TableKey, completeness, gens: Sequence[TableGen],
                 provenance: str = ""):
        self.key = key
        if completeness != "full":
            completeness = frozenset(completeness)
        self.completeness = completeness
        self.gens = tuple(gens)
        self.orders = tuple(g.order for g in self.gens)
        self.provenance = provenance

    @property
    def is_full(self) -> bool:
        return self.completeness == "full"

    @property
    def primes(self) -> frozenset:
        if self.is_full:
            ps = set()
            for d in self.orders:
                d = abs(d)
                p = 2
                while p * p <= d:
                    if d % p == 0:
                        ps.add(p)
                        while d % p == 0:
                            d //= p
                    p += 1
                if d > 1:
                    ps.add(d)
            return frozenset(ps)
        return self.completeness

    def rank(self) -> int:
        return len(self.gens)

    def group_order(self):
        if any(d == 0 for d in self.orders):
            return INFINITE
        return math.prod(self.orders) if self.orders else 1

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank())

    def element(self, coeffs: Iterable[int]) -> "GroupElement":
        return GroupElement(self, tuple(coeffs))

    def basis_element(self, i: int, coeff: int = 1) -> "GroupElement":
        coeffs = [0] * self.rank()
        coeffs[i] = coeff
        return GroupElement(self, tuple(coeffs))

    def __eq__(self, other):
        return (isinstance(other, GroupTable) and self.key == other.key
                and self.gens == other.gens
                and self.completeness == other.completeness)

    def __hash__(self):
        return hash((self.key, self.gens, self.completeness))

    def _summands(self) -> str:
        """The summands as Z<d>{label} (Z alone when infinite), or 0."""
        return " + ".join(f"Z{g.order or ''}{{{g.label}}}"
                          for g in self.gens) or "0"

    def __str__(self) -> str:
        return f"{self.key} = {self._summands()}"

    def to_text(self) -> str:
        head = f"group {self.key.target} k={self.key.k}"
        if not self.is_full:
            head += " partial=" + ",".join(str(p) for p in sorted(self.completeness))
        line = f"{head} = {self._summands()}"
        if self.provenance:
            line += f' src="{self.provenance}"'
        return line

    def to_json(self) -> dict:
        return {
            "target": str(self.key.target),
            "k": self.key.k,
            "completeness": ("full" if self.is_full
                             else sorted(self.completeness)),
            "generators": [{"label": g.label, "order": g.order}
                           for g in self.gens],
            "provenance": self.provenance,
        }


class GroupElement:
    """An integer coefficient vector over a table, reduced mod orders."""

    __slots__ = ("table", "coeffs")

    def __init__(self, table: GroupTable, coeffs: Sequence[int]):
        if len(coeffs) != table.rank():
            raise TableMismatch(
                f"expected {table.rank()} coefficients for {table.key}, "
                f"got {len(coeffs)}")
        self.table = table
        self.coeffs = tuple(c % d if d else c
                            for c, d in zip(coeffs, table.orders))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _check(self, other: "GroupElement"):
        if self.table != other.table:
            raise TableMismatch(
                f"cannot combine elements of {self.table.key} and {other.table.key}")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return GroupElement(self.table,
                            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.table, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def scale(self, n: int) -> "GroupElement":
        return GroupElement(self.table, tuple(n * c for c in self.coeffs))

    def __eq__(self, other):
        return (isinstance(other, GroupElement)
                and self.table == other.table and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.table.key, self.coeffs))

    def __str__(self) -> str:
        parts = []
        for c, g in zip(self.coeffs, self.table.gens):
            if c == 0:
                continue
            parts.append(g.label if c == 1 else f"{c} {g.label}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"<{self} in {self.table.key}>"

    def to_json(self) -> dict:
        return {"table": str(self.table.key), "coeffs": list(self.coeffs),
                "display": str(self)}


def add(a: GroupElement, b: GroupElement) -> GroupElement:
    """Componentwise sum reduced mod orders."""
    return a + b


def order_of(e: GroupElement):
    """Least n > 0 with n*e = 0, or INFINITE.

    >>> t = GroupTable(TableKey(Space("S", 4), 10), "full", (TableGen("g", 8),))
    >>> order_of(t.zero())
    1
    """
    n = 1
    for c, d in zip(e.coeffs, e.table.orders):
        if c == 0:
            continue
        if d == 0:
            return INFINITE
        n = math.lcm(n, d // gcd(c, d))
    return n


def _hermite(vectors: Iterable[Sequence[int]], n: int) -> list[tuple]:
    """Hermite normal form of the row lattice spanned by ``vectors`` in Z^n,
    as (pivot column, row) pairs in pivot order.

    Column by column, Euclid runs among the rows that lead in that column
    until one row is left (rows that reach 0 there wait for a later column);
    that row is made positive and, as it is placed, the entries above its
    pivot are reduced into [0, pivot).  Later pivots change only later
    columns, so the form is unique: equal lattices give equal rows, in any
    order of the vectors.  Reducing bottom-up instead would undo earlier
    reductions: on Z^3 with generators (1,2,0), (0,2,1), (0,0,3) it gives
    g0 + 2 g2 in that order and g0 + -1 g2 reversed.
    """
    pending = [list(v) for v in vectors]
    rows = []
    for j in range(n):
        lead = [r for r in pending if r[j]]
        pending = [r for r in pending if not r[j]]
        while len(lead) > 1:
            p = min(lead, key=lambda r: abs(r[j]))
            left = []
            for r in lead:
                if r is not p:
                    q = r[j] // p[j]
                    for k in range(j, n):
                        r[k] -= q * p[k]
                    (left if r[j] else pending).append(r)
            lead = left + [p]
        if not lead:
            continue
        p = lead[0]
        if p[j] < 0:
            p = [-x for x in p]
        for _, r in rows:
            q = r[j] // p[j]
            if q:
                for k in range(j, n):
                    r[k] -= q * p[k]
        rows.append((j, p))
    return [(j, tuple(r)) for j, r in rows]


class Subgroup:
    """A finitely generated subgroup of a table with exact order."""

    def __init__(self, table: GroupTable, generators: Sequence[GroupElement]):
        for g in generators:
            if g.table != table:
                raise TableMismatch("subgroup generators from different tables")
        self.table = table
        self.generators = tuple(generators)
        n = table.rank()
        order_rows = ([d if i == j else 0 for j in range(n)]
                      for i, d in enumerate(table.orders) if d)
        self._rows = _hermite([*order_rows, *(g.coeffs for g in generators)], n)
        self.canonical_basis = tuple(
            e for e in (GroupElement(table, row) for _, row in self._rows)
            if not e.is_zero)
        self.order = self._order()

    def _order(self):
        """Infinite when a pivot falls in a free column; otherwise the
        torsion order over the product of the pivots."""
        orders = self.table.orders
        if any(orders[j] == 0 for j, _ in self._rows):
            return INFINITE
        torsion = math.prod(d for d in orders if d)
        return torsion // math.prod(row[j] for j, row in self._rows)

    def __contains__(self, e: GroupElement) -> bool:
        if e.table != self.table:
            raise TableMismatch("membership test across tables")
        vec = list(e.coeffs)
        for j, row in self._rows:
            q, r = divmod(vec[j], row[j])
            if r:
                return False
            for k in range(j, len(vec)):
                vec[k] -= q * row[k]
        return not any(vec)

    def same_subgroup(self, other: "Subgroup") -> bool:
        return self.table == other.table and self._rows == other._rows

    def __str__(self):
        gens = ", ".join(str(g) for g in self.canonical_basis) or "0"
        size = "infinite" if self.order is INFINITE else self.order
        return f"<{gens}> of order {size} in {self.table.key}"

    def to_json(self) -> dict:
        return {
            "table": str(self.table.key),
            "canonical_basis": [str(g) for g in self.canonical_basis],
            "order": ("infinite" if self.order is INFINITE else self.order),
        }


def subgroup_generated(elems: Sequence[GroupElement],
                       table: GroupTable | None = None) -> Subgroup:
    """Subgroup generated by ``elems`` (pass ``table`` when the list is empty)."""
    if elems:
        table = elems[0].table
    elif table is None:
        raise TableMismatch("empty generating set needs an explicit table")
    return Subgroup(table, elems)


@dataclass(repr=False)
class Coset:
    """representative + subgroup; equal as cosets (``coset_eq``)."""

    representative: GroupElement
    subgroup: Subgroup

    def __post_init__(self):
        if self.representative.table != self.subgroup.table:
            raise TableMismatch("coset representative outside the subgroup's table")

    def __eq__(self, other):
        if not isinstance(other, Coset):
            return NotImplemented
        return coset_eq(self, other)

    def __str__(self):
        return f"{self.representative} + {self.subgroup}"


def coset_eq(c1: Coset, c2: Coset) -> bool:
    """True iff the representatives differ by a subgroup element."""
    if c1.subgroup.table != c2.subgroup.table:
        raise SubgroupMismatch("cosets over different tables")
    if not c1.subgroup.same_subgroup(c2.subgroup):
        raise SubgroupMismatch("cosets of different subgroups")
    return (c1.representative - c2.representative) in c1.subgroup


def enumerate_elements(table: GroupTable):
    """All elements of a finite table (brute-force oracle helper)."""
    if table.group_order() is INFINITE:
        raise CalcError(f"{table.key} is infinite; cannot enumerate")
    for coeffs in product(*(range(d) for d in table.orders)):
        yield GroupElement(table, coeffs)


def torsion_family(table: GroupTable, m: int) -> list[GroupElement]:
    """All x with m*x = 0, enumerated coordinatewise."""
    choices = []
    for d in table.orders:
        if d == 0:
            choices.append((0,))
        else:
            g = gcd(m, d)
            step = d // g
            choices.append(tuple(k * step for k in range(g)))
    return [GroupElement(table, c) for c in product(*choices)]
