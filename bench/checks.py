"""Checks of whiteprod's outputs against the hand-written reference.

Nothing in this module calls whiteprod.  Expected values come from
``reference.json`` and from arithmetic written out here: reduction in a
cyclic-sum table, bilinearity and graded anticommutativity of brackets, the
Betti generating polynomial and the Koszul sign of the fat-wedge cup product.

An expectation for a normal form is one of
    ("elem", table, {label: coeff})   a table element; {} is zero in that table
    ("zero",)                         zero, with no table named
    ("residue", display)              a residue the reference records
Every checker returns None when the output is right and a message otherwise.
"""

from __future__ import annotations

import json
import math
import os

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


class Reference:
    def __init__(self, path: str = REFERENCE_PATH):
        with open(path, encoding="utf-8") as fh:
            self.data = json.load(fh)
        self.tables = {name: [tuple(g) for g in t["gens"]]
                       for name, t in self.data["tables"].items()}
        self.orders = {name: dict(gens) for name, gens in self.tables.items()}
        self.brackets = {(b["f"], b["g"]): (b["table"], b["value"])
                         for b in self.data["brackets"]}

    def reduce(self, table: str, value: dict) -> dict:
        """Coefficients reduced modulo the orders of ``table``; zeros dropped."""
        orders = self.orders[table]
        out = {}
        for label, c in value.items():
            d = orders[label]
            c = c % d if d else c
            if c:
                out[label] = c
        return out

    def bracket_of_sums(self, a: dict, p: int, b: dict, q: int,
                        table: str) -> dict:
        """[sum a_i x_i, sum b_j y_j] by bilinearity from the basis brackets,
        with [y, x] = (-1)^(pq) [x, y] for the pairs listed one way round."""
        total: dict = {}
        for x, c in a.items():
            for y, d in b.items():
                if (x, y) in self.brackets:
                    where, value = self.brackets[(x, y)]
                    sign = 1
                else:
                    where, value = self.brackets[(y, x)]
                    sign = (-1) ** (p * q)
                if where != table:
                    raise ValueError(f"[{x}, {y}] lives in {where}, not {table}")
                for label, e in value.items():
                    total[label] = total.get(label, 0) + sign * c * d * e
        return self.reduce(table, total)


def degree_of(table: str) -> int:
    """The k of a table named pi_k(X)."""
    return int(table[3:table.index("(")])


def element_terms(element) -> dict:
    return {g.label: c for g, c in zip(element.table.gens, element.coeffs) if c}


def describe(expect) -> str:
    if expect[0] == "elem":
        return f"{expect[2] or 0} in {expect[1]}"
    if expect[0] == "zero":
        return "0"
    return f"the residue {expect[1]!r}"


def check_normal_form(nf, expect) -> str | None:
    if expect[0] == "residue":
        if nf.status != "residue" or nf.display() != expect[1]:
            return f"expected {describe(expect)}, got {nf.status} {nf.display()!r}"
        return None
    if not nf.is_resolved:
        return (f"expected {describe(expect)}, got the residue "
                f"{nf.display()!r} ({nf.reason})")
    if expect[0] == "zero" or not expect[2]:
        return None if nf.is_zero else f"expected 0, got {nf.display()!r}"
    el = nf.element
    if el is None or str(el.table.key) != expect[1] \
            or element_terms(el) != expect[2]:
        where = str(el.table.key) if el is not None else "no table"
        return f"expected {describe(expect)}, got {nf.display()!r} in {where}"
    return None


# ---------------------------------------------------------------------------
# triple products

def family_terms(ref: Reference) -> list:
    return sorted((sorted(m.items()) for m in ref.data["prop_3_2"]["family"]))


def check_lower_products(status, c: int) -> str | None:
    # every pairwise product vanishes and no factor is trivial
    if status.kind != "nonempty":
        return f"c = {c}: expected nonempty, got {status.kind} ({status.reason})"
    return None


def check_indeterminacy(sub, c: int, ref: Reference) -> str | None:
    want = ref.data["prop_3_2"]["J_order"] // math.gcd(c, 15)
    if sub.order != want:
        return f"c = {c}: expected |J| = {want}, got {sub.order}"
    return None


def check_triple(status, c: int, ref: Reference) -> str | None:
    if c % 4 == 2:
        if status.kind != "constrained_coset":
            return f"c = {c}: expected a constrained coset, got {status.kind}"
        got = sorted(sorted(element_terms(e).items()) for e in status.candidates)
        if got != family_terms(ref):
            return f"c = {c}: family {got} is not the prop 3.2 family"
        return None
    if status.kind != "coset" or not status.coset.representative.is_zero:
        return f"c = {c}: expected the coset J itself, got {status.kind}"
    return None


# ---------------------------------------------------------------------------
# the scenario JSON of `whiteprod --format json scenario all`

def check_scenarios(rc: int, text: str, ref: Reference) -> str | None:
    if rc != 0:
        return f"scenario all exited {rc}"
    got = {s["name"]: s["computed"] for s in json.loads(text)}
    data = ref.data
    problems = []

    def want(cond, what):
        if not cond:
            problems.append(what)

    lemma = got["lemma-3.1"]
    want(all(lemma[z] == "0" for z in data["lemma_3_1"]["zeros"]),
         "lemma 3.1 zeros")
    prop = got["prop-3.2"]
    want(prop["J_order"] == data["prop_3_2"]["J_order"], "prop 3.2 |J|")
    want(prop["status"] == "constrained_coset", "prop 3.2 status")
    family = sorted(" + ".join(f"{c} {g}" if c != 1 else g for g, c in m.items())
                    or "0" for m in data["prop_3_2"]["family"])
    want(prop["candidates"] == family, "prop 3.2 family")
    s2 = got["s2-empty"]
    for key in ("kind", "witness_pair", "witness_bracket", "witness_value"):
        want(s2[key] == data["s2_empty"][key], f"s2-empty {key}")
    want(got["hp-empty"]["witness_value"] == data["hp_empty"]["witness_value"],
         "hp-empty witness")
    want(got["rp2"]["bracket_with_bottom_cell"]
         == data["rp2"]["bracket_with_bottom_cell"], "rp2 bracket")
    for r in (2, 3, 4, 5):
        want(got["cp-r"][f"r{r}"] == f"{math.factorial(r + 1)} gamma_{r}C",
             f"CP^{r} product")
    r4 = got["prop-5.2"]["r4"]
    want(got["prop-5.2"]["r3"] is None and r4 is not None
         and sorted(r4["left"] + r4["right"]) == [1, 2, 3, 4]
         and min(len(r4["left"]), len(r4["right"])) >= 2, "prop 5.2 witness")
    for r in (2, 3, 4, 5):
        w = got["omega-remark"][f"r{r}"]
        want(w == {"left": [1], "right": list(range(2, r + 1))},
             f"omega witness r = {r}")
    perm = got["permutation-sign"]
    want((perm["identity"], perm["swap"], perm["three_cycle"]) == (1, -1, 1),
         "permutation signs")
    return "; ".join(problems) or None


# ---------------------------------------------------------------------------
# fat wedges

def betti_expected(dims: tuple) -> dict:
    """Betti numbers of T_0/T_(r-1): the x-degree >= 2 part of
    prod_i (1 + x t^(m_i))."""
    r = len(dims)
    poly = [dict() for _ in range(r + 1)]  # poly[size][degree]
    poly[0][0] = 1
    for m in dims:
        for size in range(r - 1, -1, -1):
            for d, n in poly[size].items():
                poly[size + 1][d + m] = poly[size + 1].get(d + m, 0) + n
    out: dict = {}
    for size in range(2, r + 1):
        for d, n in poly[size].items():
            out[d] = out.get(d, 0) + n
    return out


def koszul_sign(s, t, dims) -> int:
    exponent = sum(dims[i - 1] * dims[j - 1] for i in s for j in t if i > j)
    return -1 if exponent % 2 else 1


def model_cup(s: frozenset, t: frozenset, dims: tuple, a: int, b: int) -> dict:
    """x_s x_t in H*(T_a/T_b): its basis is the subsets of size in (r-b, r-a]."""
    r = len(dims)
    if s & t or len(s | t) > r - a:
        return {}
    return {s | t: koszul_sign(s, t, dims)}


def check_fatwedge(dims: tuple, out, cup_pairs) -> str | None:
    betti, w, omega, cups = out
    r = len(dims)
    if betti != betti_expected(dims):
        return f"{dims}: betti {betti} disagrees with the generating polynomial"
    if r < 4:
        if w is not None:
            return f"{dims}: an obstruction witness for r = {r} < 4"
    else:
        if w is None:
            return f"{dims}: no obstruction witness for r = {r} >= 4"
        s, t = frozenset(w.left), frozenset(w.right)
        if s & t or s | t != frozenset(range(1, r + 1)) \
                or min(len(s), len(t)) < 2:
            return f"{dims}: witness {w.left}/{w.right} is not a complementary pair"
        if tuple(w.vanishing_ring) != (1, r - 1) \
                or tuple(w.nonvanishing_ring) != (0, r - 1) \
                or w.degree != sum(dims):
            return f"{dims}: witness rings or degree are wrong"
        if model_cup(s, t, dims, 1, r - 1) or not model_cup(s, t, dims, 0, r - 1):
            return f"{dims}: witness product does not vanish only on the fat wedge"
    if tuple(omega.left) != (1,) or tuple(omega.right) != tuple(range(2, r + 1)):
        return f"{dims}: omega witness {omega.left}/{omega.right}"
    for (s, t), got in zip(cup_pairs, cups):
        if got.coeffs != model_cup(s, t, dims, 0, r - 1):
            return f"{dims}: x{sorted(s)} x{sorted(t)} = {got!r}"
    return None
