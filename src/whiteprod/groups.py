"""Exact arithmetic in finitely generated abelian homotopy-group tables.

A table is a direct sum of cyclic groups Z_d, one summand per named
generator, with d = 0 encoding an infinite cyclic summand.  Elements are
integer coefficient vectors reduced modulo each finite order.  Subgroups
keep an integer row lattice in Hermite-style echelon form over the
coefficient space, which makes membership, coset equality and exact
orders cheap at the scale these tables have (a handful of generators).

A table may be partial: ``primes`` lists the primes at which the listed
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
from itertools import product
from math import gcd
from typing import Iterable, Sequence

from .errors import CalcError, SubgroupMismatch, TableMismatch

INFINITE = math.inf

SPACE_KINDS = ("S", "RP", "CP", "HP")


@dataclass(frozen=True)
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


def sphere(n: int) -> Space:
    return Space("S", n)


def parse_space(text: str) -> Space:
    for kind in ("RP", "CP", "HP", "S"):
        if text.startswith(kind) and text[len(kind):].isdecimal():
            return Space(kind, int(text[len(kind):]))
    raise CalcError(f"cannot parse space tag {text!r}")


@dataclass(frozen=True)
class GeneratorDecl:
    """A named generator of some homotopy group pi_k(target).

    ``order`` 0 encodes infinite order.  ``suspension_of`` names the
    generator one suspension below; ``is_suspension`` is set whenever the
    class desuspends (explicit link or family membership above the base).
    """

    name: str
    source_dim: int
    target: Space
    order: int
    suspension_of: str | None = None
    is_suspension: bool = False

    def __post_init__(self):
        if self.order < 0:
            raise CalcError(f"negative order for {self.name}")
        if self.suspension_of is not None and not self.is_suspension:
            object.__setattr__(self, "is_suspension", True)


@dataclass(frozen=True)
class TableKey:
    target: Space
    k: int

    def __str__(self) -> str:
        return f"pi_{self.k}({self.target})"


@dataclass(frozen=True)
class TableGen:
    """One cyclic summand: a display label plus its exact order."""

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

    def __str__(self) -> str:
        if not self.gens:
            return f"{self.key} = 0"
        parts = []
        for g in self.gens:
            cyc = "Z" if g.order == 0 else f"Z{g.order}"
            parts.append(f"{cyc}{{{g.label}}}")
        return f"{self.key} = " + " + ".join(parts)

    def to_text(self) -> str:
        head = f"group {self.key.target} k={self.key.k}"
        if not self.is_full:
            head += " partial=" + ",".join(str(p) for p in sorted(self.completeness))
        body = " + ".join(
            ("Z" if g.order == 0 else f"Z{g.order}") + "{" + g.label + "}"
            for g in self.gens) or "0"
        line = f"{head} = {body}"
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
        n = n * (d // gcd(c, d)) // gcd(n, d // gcd(c, d))
    return n


class _Lattice:
    """Row lattice over Z^n in echelon form with exact membership.

    Rows are kept with positive pivots and entries above each pivot
    reduced, so the basis is canonical for the lattice it spans.
    """

    def __init__(self, n: int):
        self.n = n
        self.rows: list[list[int]] = []

    @staticmethod
    def _pivot(row):
        for j, v in enumerate(row):
            if v:
                return j
        return None

    def _row_with_pivot(self, j):
        for row in self.rows:
            if self._pivot(row) == j:
                return row
        return None

    def add_vector(self, vec0: Sequence[int]) -> None:
        vec = list(vec0)
        while True:
            j = self._pivot(vec)
            if j is None:
                break
            row = self._row_with_pivot(j)
            if row is None:
                self.rows.append(vec)
                break
            a, b = row[j], vec[j]
            if b % a == 0:
                q = b // a
                for jj in range(j, self.n):
                    vec[jj] -= q * row[jj]
            else:
                x, y, g = _xgcd(a, b)
                ag, mbg = a // g, -(b // g)
                for jj in range(j, self.n):
                    aa, bb = row[jj], vec[jj]
                    row[jj] = x * aa + y * bb
                    vec[jj] = mbg * aa + ag * bb
        self._normalize()

    def _normalize(self) -> None:
        self.rows.sort(key=lambda r: self._pivot(r))
        for row in self.rows:
            j = self._pivot(row)
            if row[j] < 0:
                for jj in range(self.n):
                    row[jj] = -row[jj]
        # reduce entries above each pivot for a canonical basis
        for i in range(len(self.rows) - 1, -1, -1):
            j = self._pivot(self.rows[i])
            p = self.rows[i][j]
            for k in range(i):
                q = self.rows[k][j] // p
                if q:
                    for jj in range(self.n):
                        self.rows[k][jj] -= q * self.rows[i][jj]

    def __contains__(self, vec0) -> bool:
        vec = list(vec0)
        while True:
            j = self._pivot(vec)
            if j is None:
                return True
            row = self._row_with_pivot(j)
            if row is None or vec[j] % row[j] != 0:
                return False
            q = vec[j] // row[j]
            for jj in range(j, self.n):
                vec[jj] -= q * row[jj]

    def pivots(self) -> dict:
        return {self._pivot(r): r[self._pivot(r)] for r in self.rows}

    def basis(self) -> list[tuple[int, ...]]:
        return [tuple(r) for r in self.rows]


def _xgcd(a: int, b: int):
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return x, y, g


class Subgroup:
    """A finitely generated subgroup of a table with exact order."""

    def __init__(self, table: GroupTable, generators: Sequence[GroupElement]):
        for g in generators:
            if g.table != table:
                raise TableMismatch("subgroup generators from different tables")
        self.table = table
        self.generators = tuple(generators)
        n = table.rank()
        lat = _Lattice(n)
        for i, d in enumerate(table.orders):
            if d:
                row = [0] * n
                row[i] = d
                lat.add_vector(row)
        for g in generators:
            lat.add_vector(list(g.coeffs))
        self._lattice = lat
        self.canonical_basis = tuple(
            e for e in (GroupElement(table, row) for row in lat.basis())
            if not e.is_zero)
        self.order = self._order()

    def _order(self):
        free = [i for i, d in enumerate(self.table.orders) if d == 0]
        for row in self._lattice.rows:
            if any(row[i] for i in free):
                return INFINITE
        torsion = math.prod(d for d in self.table.orders if d)
        piv = self._lattice.pivots()
        covol = math.prod(piv.get(i, 1) for i, d in enumerate(self.table.orders) if d)
        return torsion // covol

    def __contains__(self, e: GroupElement) -> bool:
        if e.table != self.table:
            raise TableMismatch("membership test across tables")
        return list(e.coeffs) in self._lattice

    def same_subgroup(self, other: "Subgroup") -> bool:
        return (self.table == other.table
                and self._lattice.basis() == other._lattice.basis())

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


@dataclass
class Coset:
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
