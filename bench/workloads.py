"""The benchmark's four workloads.

A workload turns a seed into rounds of items, runs one item through
whiteprod's public API, and checks the output with ``checks``.  A round
always has the same make-up (the same number of items of each kind), so
every run attempts whole rounds of the same operations.  Items carry only
generated inputs and the expectation derived from the reference; the
program sees the inputs alone.

    items = workload.round(i)      # plain data, no program objects
    out = workload.run(item)       # the timed call into whiteprod
    workload.check(item, out)      # None, or what is wrong
    workload.steps(item, out)      # the trace steps the output carries
    workload.extra(item, out)      # an untimed property check, or None
"""

from __future__ import annotations

import contextlib
import io
import random
from itertools import product

import checks as C


def signed_sum(terms) -> str:
    """'3 a - 2 b + c' from [(3, 'a'), (-2, 'b'), (1, 'c')]."""
    text = ""
    for c, label in terms:
        if not text:
            text = f"{c} {label}" if c > 0 else f"- {-c} {label}"
        else:
            text += f" + {c} {label}" if c > 0 else f" - {-c} {label}"
    return text


def nonzero(rng, lo: int, hi: int) -> int:
    while True:
        c = rng.randint(lo, hi)
        if c:
            return c


class Workload:
    name = ""
    tail_pct = 99.0        # the highest percentile with ten samples beyond it
    trace_rounds = 1       # rounds a traced run makes, fixed so counts repeat
    repeat_rounds = False  # True: every round is round 0 again

    def __init__(self, seed: int, ref: C.Reference, W, db):
        self.seed = seed
        self.ref = ref
        self.W = W
        self.db = db
        self._first = None

    def round(self, i: int) -> list:
        if self.repeat_rounds:
            if self._first is None:
                self._first = self.make_round(random.Random(self.seed))
            return self._first
        return self.make_round(random.Random(f"{self.name}/{self.seed}/{i}"))

    def make_round(self, rng) -> list:
        raise NotImplementedError

    def steps(self, item, out):
        return ()

    def extra(self, item, out):
        return None


# ---------------------------------------------------------------------------
# expression evaluation: eval-mix and power-ladder

class _EvalWorkload(Workload):
    """Items are (text, expectation, relation order or None)."""

    confluence_share = 0.0

    def run(self, item):
        trace: list = []
        return self.W.evaluate(self.W.parse(item[0]), self.db, trace=trace), trace

    def check(self, item, out):
        msg = C.check_normal_form(out[0], item[1])
        return f"{item[0]}: {msg}" if msg else None

    def steps(self, item, out):
        return out[1]

    def extra(self, item, out):
        # the same normal form under a shuffled relation order
        order = item[2]
        if order is None:
            return None
        other = self.W.normalize(self.W.parse(item[0]), self.db,
                                 relation_order=order[0], reverse_scan=order[1])
        if other != out[0]:
            return (f"{item[0]}: shuffled relation order gives "
                    f"{other.display()!r}, not {out[0].display()!r}")
        return None

    def with_orders(self, rng, cases) -> list:
        n = len(self.db.relations)
        items = []
        for text, expect in cases:
            order = None
            if "[" not in text and rng.random() < self.confluence_share:
                perm = list(range(n))
                rng.shuffle(perm)
                order = (perm, rng.random() < 0.5)
            items.append((text, expect, order))
        return items


class EvalMix(_EvalWorkload):
    """Distinct short expressions over the shipped tables and relations."""

    name = "eval-mix"
    tail_pct = 99.0
    trace_rounds = 4
    confluence_share = 1 / 8
    # items of each template in one round
    COUNTS = {"basis_sum": 60, "susp_tail": 12, "eta_sq": 12, "eta_scaled": 12,
              "nu_sq": 12, "nu5_sigma": 12, "eta_mu": 12, "bracket_alpha": 12,
              "susp_nu": 15, "susp_pi14": 15, "eta_cubed": 12,
              "eta_cubed_sum": 12, "snu_nu": 12, "iota2_sq": 12,
              "iota4_sq": 12, "eta_power": 12, "eta3_nu4": 12,
              "lemma_sum": 1}

    def make_round(self, rng) -> list:
        cases = []
        for template, count in self.COUNTS.items():
            make = getattr(self, "t_" + template)
            seen = set()
            while len(seen) < count:
                text, expect = make(rng)
                if text not in seen:
                    seen.add(text)
                    cases.append((text, expect))
        for text, want in self.ref.data["scenario_exprs"].items():
            cases.append((text, self.expect_of(want)))
        rng.shuffle(cases)
        return self.with_orders(rng, cases)

    @staticmethod
    def expect_of(want: dict):
        if "residue" in want:
            return ("residue", want["residue"])
        if want.get("zero"):
            return ("zero",)
        return ("elem", want["table"], want["value"])

    def elem(self, table: str, value: dict):
        return ("elem", table, self.ref.reduce(table, value))

    # -- scaled sums of basis chains -------------------------------------
    def t_basis_sum(self, rng):
        table = rng.choice(sorted(self.ref.tables))
        gens = [g for g, _ in self.ref.tables[table]]
        picked = [g for g in gens if rng.random() < 0.7] or [rng.choice(gens)]
        terms = [(nonzero(rng, -30, 30), g) for g in picked]
        return signed_sum(terms), self.elem(table, {g: c for c, g in terms})

    # -- compositions with suspension classes ----------------------------
    def t_susp_tail(self, rng):
        a, b, c = (nonzero(rng, -40, 40) for _ in range(3))
        tail = rng.choice([". eta_7 . eta_8", ". eta_7^2"])
        head = signed_sum([(a, "nu_4"), (b, "Snu'"), (c, "alpha1(4)")])
        return f"({head}) {tail}", self.elem(
            "pi_9(S4)", {"nu_4 . eta_7^2": a, "Snu' . eta_7^2": b})

    def t_eta_sq(self, rng):
        a = nonzero(rng, -99, 99)
        return f"({a} eta_4) . eta_5", self.elem("pi_6(S4)", {"eta_4^2": a})

    def t_eta_scaled(self, rng):
        a = nonzero(rng, -99, 99)
        return f"eta_4 . ({a} iota_5)", self.elem("pi_5(S4)", {"eta_4": a})

    def t_nu_sq(self, rng):
        a, b = nonzero(rng, -60, 60), nonzero(rng, -20, 20)
        head = signed_sum([(a, "nu_4"), (4 * b, "Snu'")])
        return f"({head}) . nu_7", self.elem("pi_10(S4)", {"nu_4^2": a})

    def t_nu5_sigma(self, rng):
        a, b = nonzero(rng, -60, 60), nonzero(rng, -60, 60)
        tail = signed_sum([(a, "sigma_8"), (b, "Ssigma'")])
        return f"nu_5 . ({tail})", self.elem(
            "pi_15(S5)", {"nu_5 . sigma_8": a + 2 * b})

    def t_eta_mu(self, rng):
        a = nonzero(rng, -99, 99)
        return f"eta_5 . ({a} mu_6)", self.elem("pi_15(S5)", {"eta_5 . mu_6": a})

    def t_bracket_alpha(self, rng):
        a, b = nonzero(rng, -60, 60), nonzero(rng, -60, 60)
        tail = signed_sum([(a, "alpha2(7)"), (b, "alpha1'(7)")])
        return f"[iota_4, iota_4] . ({tail})", self.elem(
            "pi_14(S4)", {"[iota_4, iota_4] . alpha2(7)": a,
                          "[iota_4, iota_4] . alpha1'(7)": b})

    # -- S(...) of sums ----------------------------------------------------
    def t_susp_nu(self, rng):
        a, b = nonzero(rng, -60, 60), nonzero(rng, -60, 60)
        inner = signed_sum([(a, "nu_4"), (b, "Snu'")])
        return f"S ({inner})", self.elem("pi_8(S5)", {"nu_5": a + 2 * b})

    def t_susp_pi14(self, rng):
        gens = [g for g, _ in self.ref.tables["pi_14(S4)"]]
        coeffs = [nonzero(rng, -30, 30) for _ in gens]
        a, b, c = coeffs[:3]
        return f"S ({signed_sum(zip(coeffs, gens))})", self.elem(
            "pi_15(S5)", {"nu_5 . sigma_8": 2 * a + 2 * b, "eta_5 . mu_6": c})

    # -- relation-bearing words ------------------------------------------
    def t_eta_cubed(self, rng):
        a = nonzero(rng, -99, 99)
        return f"{a} eta_5^3", self.elem("pi_8(S5)", {"nu_5": 4 * a})

    def t_eta_cubed_sum(self, rng):
        b = nonzero(rng, -99, 99)
        return signed_sum([(1, "eta_5 . eta_6 . eta_7"), (b, "nu_5")]), \
            self.elem("pi_8(S5)", {"nu_5": 4 + b})

    def t_snu_nu(self, rng):
        a = nonzero(rng, -99, 99)
        return f"Snu' . ({4 * a} nu_7)", ("zero",)

    def t_iota2_sq(self, rng):
        a = nonzero(rng, -99, 99)
        return f"{a} [iota_2, iota_2]", self.elem("pi_3(S2)", {"eta_2": 2 * a})

    def t_iota4_sq(self, rng):
        a, b = nonzero(rng, -60, 60), nonzero(rng, -60, 60)
        return signed_sum([(1, "[iota_4, iota_4]"), (a, "nu_4"), (b, "Snu'")]), \
            self.elem("pi_7(S4)", {"nu_4": 2 + a, "Snu'": 3 + b})

    def t_eta_power(self, rng):
        a, k = nonzero(rng, -99, 99), rng.randint(4, 9)
        return f"{a} eta_4^{k}", ("zero",)

    def t_eta3_nu4(self, rng):
        a = nonzero(rng, -99, 99)
        residue = self.ref.data["facts"]["eta3_nu4"]["residue"]
        expect = ("residue", residue) if a % 2 else ("zero",)
        return f"{a} eta_3 . nu_4", expect

    def t_lemma_sum(self, rng):
        b = nonzero(rng, -99, 99)
        return signed_sum([(1, "[eta_4, eta_4^2]"), (b, "nu_4^2")]), \
            self.elem("pi_10(S4)", {"nu_4^2": b})


class PowerLadder(_EvalWorkload):
    """Long iterated compositions; every one is zero by the reference."""

    name = "power-ladder"
    tail_pct = 90.0
    trace_rounds = 1
    confluence_share = 1 / 20
    # (count, family, lowest k, highest k); the strata keep each round's cost
    # and the ranks of its median and tail the same from round to round
    STRATA = [
        (2, "eta_n", 4, 30), (1, "c eta_4", 4, 30), (1, "nu'", 3, 12),
        (1, "Snu'", 3, 12),
        (2, "eta_n", 40, 60), (1, "nu'", 20, 25), (1, "Snu'", 20, 25),
        (2, "eta_n", 100, 110), (2, "c eta_4", 100, 110),
        (2, "nu'", 55, 60), (2, "Snu'", 55, 60),
        (2, "eta_n", 285, 300), (1, "c eta_4", 285, 300),
    ]

    def make_round(self, rng) -> list:
        cases = []
        for count, family, lo, hi in self.STRATA:
            for _ in range(count):
                k = rng.randint(lo, hi)
                if family == "eta_n":
                    text = f"eta_{rng.randint(4, 12)}^{k}"
                elif family == "c eta_4":
                    text = f"{nonzero(rng, -99, 99)} eta_4^{k}"
                else:
                    text = f"{family}^{k}"
                cases.append((text, ("zero",)))
        rng.shuffle(cases)
        return self.with_orders(rng, cases)


# ---------------------------------------------------------------------------
# bracket calculus and triple products

class BracketCoset(Workload):
    """Brackets of sums, coprime pairs, triple-product operations and the
    scenario JSON."""

    name = "bracket-coset"
    tail_pct = 99.0
    trace_rounds = 3
    PER_PAIR = 12
    PER_COPRIME = 2
    SCENARIO_RUNS = 2

    def make_round(self, rng) -> list:
        ref = self.ref
        items = []
        omit = ref.data["bracket_pairs"]["omit"]
        for left, right, target in ref.data["bracket_pairs"]["pairs"]:
            for _ in range(self.PER_PAIR):
                sums = []
                for table in (left, right):
                    gens = [g for g, _ in ref.tables[table]
                            if g not in omit.get(table, ())]
                    picked = [g for g in gens if rng.random() < 0.7] \
                        or [rng.choice(gens)]
                    sums.append((table, {g: nonzero(rng, -6, 6) for g in picked}))
                if rng.random() < 0.5:
                    sums.reverse()
                (tf, f), (tg, g) = sums
                want = ref.bracket_of_sums(f, C.degree_of(tf), g,
                                           C.degree_of(tg), target)
                items.append(("bracket", self.text(f), self.text(g),
                              ("elem", target, want)))
        for pair in ref.data["coprime_pairs"]:
            for _ in range(self.PER_COPRIME):
                f = f"{nonzero(rng, -9, 9)} {pair['f']}"
                g = f"{nonzero(rng, -9, 9)} {pair['g']}"
                if rng.random() < 0.5:
                    f, g = g, f
                items.append(("bracket", f, g, ("zero",)))
        for c in (2, rng.choice(range(6, 31, 4)), rng.choice(range(4, 29, 4))):
            for kind in ("lower", "indeterminacy", "triple"):
                items.append((kind, c))
        items += [("scenarios",)] * self.SCENARIO_RUNS
        rng.shuffle(items)
        return items

    @staticmethod
    def text(value: dict) -> str:
        return signed_sum((c, g) for g, c in value.items())

    def spec(self, c: int):
        P = self.W.parse
        f1, f2 = self.ref.data["prop_3_2"]["factors"][:2]
        return self.W.product_spec(P(f1), P(f2), P(f"{c} iota_4"))

    def run(self, item):
        W, db = self.W, self.db
        kind = item[0]
        if kind == "bracket":
            trace: list = []
            return W.bracket(W.parse(item[1]), W.parse(item[2]), db,
                             trace=trace), trace
        if kind == "lower":
            trace = []
            return W.lower_products_vanish(self.spec(item[1]), db,
                                           trace=trace), trace
        if kind == "indeterminacy":
            return W.indeterminacy(self.spec(item[1]), db)
        if kind == "triple":
            return W.triple_coset_constraints(self.spec(item[1]), db)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = W.cli.main(["--format", "json", "scenario", "all"])
        return rc, buf.getvalue()

    def check(self, item, out):
        kind = item[0]
        if kind == "bracket":
            msg = C.check_normal_form(out[0], item[3])
            return f"[{item[1]}, {item[2]}]: {msg}" if msg else None
        if kind == "lower":
            return C.check_lower_products(out[0], item[1])
        if kind == "indeterminacy":
            return C.check_indeterminacy(out, item[1], self.ref)
        if kind == "triple":
            return C.check_triple(out, item[1], self.ref)
        return C.check_scenarios(out[0], out[1], self.ref)

    def steps(self, item, out):
        return out[1] if item[0] in ("bracket", "lower") else ()


# ---------------------------------------------------------------------------
# fat wedges

class FatwedgeSweep(Workload):
    """Every tuple in {1,2,3}^r for r = 2..8 plus seeded larger tuples."""

    name = "fatwedge-sweep"
    tail_pct = 99.0
    trace_rounds = 1
    repeat_rounds = True
    # (r, count) of the seeded tuples, dimensions 1..6
    LARGE = [(9, 10), (10, 150), (11, 10)]
    CUPS = 2

    def make_round(self, rng) -> list:
        tuples = [d for r in range(2, 9) for d in product((1, 2, 3), repeat=r)]
        tuples += [tuple(rng.randint(1, 6) for _ in range(r))
                   for r, count in self.LARGE for _ in range(count)]
        items = [(dims, tuple(self.cup_pair(rng, len(dims))
                              for _ in range(self.CUPS))) for dims in tuples]
        rng.shuffle(items)
        return items

    @staticmethod
    def cup_pair(rng, r: int):
        """Two basis subsets of T_0/T_(r-1) (size >= 2), disjoint half the time."""
        everything = list(range(1, r + 1))
        s = rng.sample(everything, rng.randint(2, r))
        rest = [i for i in everything if i not in s]
        if len(rest) >= 2 and rng.random() < 0.5:
            t = rng.sample(rest, rng.randint(2, len(rest)))
        else:
            t = rng.sample(everything, rng.randint(2, r))
        return tuple(sorted(s)), tuple(sorted(t))

    def run(self, item):
        W = self.W
        dims, pairs = item
        t = W.sphere_tuple(*dims)
        ring = W.ring(0, len(dims) - 1, t)
        cups = [W.cup(ring.generator(s), ring.generator(u), ring)
                for s, u in pairs]
        return (ring.betti(), W.retraction_obstruction(t),
                W.omega_nontriviality(t), cups)

    def check(self, item, out):
        dims, pairs = item
        return C.check_fatwedge(
            dims, out, [(frozenset(s), frozenset(u)) for s, u in pairs])


WORKLOADS = {w.name: w for w in (EvalMix, PowerLadder, BracketCoset,
                                 FatwedgeSweep)}

