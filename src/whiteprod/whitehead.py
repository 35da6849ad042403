"""Whitehead bracket calculus and higher-product operations.

The calculus works on formal sums of chains: ``bracket`` normalizes its
Expr arguments once, and its rules take and return formal sums.  They
combine bilinearity over sphere domains (and a finite target's exponent),
the relatively-prime-orders rule, ground bracket relations, naturality
across a common head factor, and the smash factorization
[f . Sa, g . Sb] = [f, g] . S(a ^ b); ``evaluate`` expands the bracket
atoms of a residue the same way, in rounds: each round replaces one
bracket atom by its value and normalizes the new sum, so only nesting
deepens the evaluation, and ``rewrite.STEP_LIMIT`` bounds the rounds.
Everything that cannot be certified comes back as a residue, never as a
guess.

Higher products are set-valued; the operations here compute the three
things the coset calculus pins down exactly: emptiness (a nonvanishing
lower product), the indeterminacy subgroup, and torsion/suspension
constraints on a coset representative.  For r >= 4, a product with three
or more nontrivial factors is ``undetermined``.

Cost rule: the database is immutable after load, so bracket work is kept
per database, across calls.  Each bilinear summand k*[u, v] is computed
once and its trace steps are replayed on every later request
(``RelationDB.pair_memo``).  The triple-product record
(``RelationDB.factor_memo``) evaluates each distinct factor once, brackets
each distinct ordered factor pair once, and computes each factor's share
of J, the generators [gamma, f] for gamma in the basis of pi_{M - |f|},
once: a triple call, its containment recursion on divided factors, and
``indeterminacy`` and ``lower_products_vanish`` calls on the same factors
all share it.  A ``lower_products_vanish`` given a trace still brackets
and traces every pair.  Each memo holds at most ``SHARE_LIMIT`` entries
and is cleared when full; every ``RelationDB.add_*`` clears both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import gcd, lcm
from typing import Optional, Sequence

from . import expr as E
from . import rewrite as R
from .errors import (DegreeMismatch, DepthLimitExceeded, MissingTable,
                     MixedTargets, StepLimitExceeded, UndeterminedResult,
                     UnknownQuery)
from .groups import (INFINITE, Coset, GroupElement, GroupTable, Space,
                     Subgroup, TableGen, TableKey, order_of, sphere,
                     subgroup_generated, torsion_family)
from .parser import MAX_NESTING

_MAX_DEPTH = 2 * MAX_NESTING + 24  # 2 per bracket level, 24 for the rules
_MAX_CONTAINMENT_DEPTH = 6  # nesting of containment through divided factors
SHARE_LIMIT = 4096  # entries in each memo kept per database


# ---------------------------------------------------------------------------
# helpers

def _keep(memo: dict, key, value):
    """Store ``value`` under ``key``, clearing ``memo`` first when full."""
    if len(memo) >= SHARE_LIMIT:
        memo.clear()
    memo[key] = value
    return value


def element_to_expr(elt: GroupElement, db) -> E.Expr:
    fs = {}
    chains = db.basis_chains(elt.table.key)
    for c, ch in zip(elt.coeffs, chains):
        if c:
            fs[ch] = c
    return R.unflatten(fs)


def evaluate(e: E.Expr, db, *, sig_hint=None,
             trace: Optional[list] = None) -> R.NormalForm:
    """Normalize, expanding bracket atoms by the bracket calculus
    whenever plain rewriting stalls on them."""
    nf = R.normalize(e, db, sig_hint=sig_hint, trace=trace)
    return _expand_brackets(nf, db, nf.trace, 0)


def evaluate_fs(fs: dict, sig: Optional[E.Signature], db, *,
                trace: Optional[list] = None, _depth: int = 0) -> R.NormalForm:
    """``evaluate`` for a formal sum of signature ``sig``."""
    if _depth > _MAX_DEPTH:
        raise DepthLimitExceeded(
            f"bracket expansion exceeded the depth limit of {_MAX_DEPTH}")
    nf = R.normalize_fs(fs, sig, db, trace=trace)
    return _expand_brackets(nf, db, nf.trace, _depth)


def _expand_brackets(nf: R.NormalForm, db, trace, depth) -> R.NormalForm:
    """Round by round, replace the first bracket atom of a residue (in
    Chain.key order, then left to right) whose value differs from it, and
    normalize the new sum.  Only a bracket's arguments and its value are
    evaluated one level deeper, so ``depth`` counts nesting; STEP_LIMIT
    bounds the rounds."""
    start = nf.fs
    rounds = 0
    while not nf.is_resolved and nf.fs:
        atoms = ((ch, i, atom) for ch in sorted(nf.fs, key=R.Chain.key)
                 for i, atom in enumerate(ch.atoms)
                 if isinstance(atom, R.BracketAtom))
        for ch, i, atom in atoms:
            single = R.Chain((atom,), atom.dom, atom.space)
            nf_f, nf_g = (evaluate_fs(dict(arg), arg[0][0].signature, db,
                                      trace=trace, _depth=depth + 2)
                          for arg in (atom.left, atom.right))
            value = _bracket_nf(nf_f, nf_g, single.signature, db, trace,
                                depth + 1, single).fs
            if value != {single: 1}:
                break
        else:
            return nf
        out = R.splice(ch, i, i + 1, value)
        if out is None:
            return R.residue(nf.fs, nf.signature, "blocked-linearity", trace)
        rounds += 1
        if rounds > R.STEP_LIMIT:
            raise StepLimitExceeded(
                f"bracket expansion did not stop after {R.STEP_LIMIT} rounds "
                f"(STEP_LIMIT) for a residue of {len(start)} chains, "
                f"{R.fs_size(start)} atoms")
        rest = dict(nf.fs)
        c = rest.pop(ch)
        nf = R.normalize_fs(R.fs_add(rest, R.fs_scale(out, c)), nf.signature,
                            db, trace=trace)
    return nf


# ---------------------------------------------------------------------------
# the classical bracket

def bracket(f: E.Expr, g: E.Expr, db, *,
            trace: Optional[list] = None) -> R.NormalForm:
    """Evaluate the classical Whitehead product [f, g]."""
    if trace is None:
        trace = []
    return _bracket_of(f, g, evaluate(f, db, trace=trace),
                       evaluate(g, db, trace=trace), db, trace)


def _bracket_of(f: E.Expr, g: E.Expr, nf_f: R.NormalForm,
                nf_g: R.NormalForm, db, trace) -> R.NormalForm:
    """``bracket`` once its arguments are evaluated."""
    sf, sg = nf_f.signature, nf_g.signature
    sig = None
    if sf is not None and sg is not None:
        if sf.target != sg.target:
            raise MixedTargets(f"bracket mixes {sf.target} and {sg.target}")
        sig = E.Signature(sf.source_dim + sg.source_dim - 1, sf.target)
    if not (nf_f.is_zero or nf_g.is_zero) and (nf_f.fs is None or nf_g.fs is None):
        return R.NormalForm(
            "residue", sig, _expr=E.Bracket(f, g),
            reason_code="bracket-args", trace=trace)
    return _bracket_nf(nf_f, nf_g, sig, db, trace, 0, E.Bracket(f, g))


def _bracket_nf(nf_f: R.NormalForm, nf_g: R.NormalForm,
                sig: Optional[E.Signature], db, trace, depth,
                shown) -> R.NormalForm:
    """[f, g] from its arguments' normal forms; ``shown`` is the input as
    trace data (see ``rewrite.show``)."""
    if nf_f.is_zero or nf_g.is_zero:
        trace.append(R.TraceStep("zero-factor", "bracket with a trivial class",
                                 shown, "0"))
        return R.zero_form(sig, db, trace)

    total: dict = {}
    for u, c in nf_f.fs.items():
        for v, d in nf_g.fs.items():
            term = _pair_bracket(c * d, u, v, db, trace)
            if term is None:
                return R.residue({R.bracket_chain(nf_f.fs, nf_g.fs): 1},
                                 sig, "no-rule", trace, u, v)
            total = R.fs_add(total, term)
    return evaluate_fs(total, sig, db, trace=trace, _depth=depth + 1)


def _pair_bracket(k: int, u: R.Chain, v: R.Chain, db,
                  trace) -> Optional[dict]:
    """One bilinear summand k*[u, v]; returns a formal sum or None.  It is
    computed once per database and its steps are replayed into ``trace``
    on every later request; an exception is raised again, never stored."""
    hit = db.pair_memo.get((k, u, v))
    if hit is None:
        steps: list = []
        out = _pair_value(k, u, v, db, steps)
        hit = _keep(db.pair_memo, (k, u, v), (out, tuple(steps)))
    out, steps = hit
    trace.extend(steps)
    return None if out is None else dict(out)


def _pair_value(k: int, u: R.Chain, v: R.Chain, db,
                trace) -> Optional[dict]:
    """``_pair_bracket`` computed: bilinearity, then the first of a ground
    relation, naturality and the smash split that applies."""
    ann_u = R.chain_annihilator(u, db)
    ann_v = R.chain_annihilator(v, db)
    target = db.table(u.space, u.dom + v.dom - 1)
    finite = target is not None and target.is_full and 0 not in target.orders
    exponent = lcm(*target.orders) if finite else 0  # 0: unknown

    # bilinearity: the coefficient may sit on either factor, so it only
    # matters modulo the gcd of the two annihilators; the bracket also
    # lives in the target group, so that group's exponent joins the gcd
    g = gcd(ann_u, ann_v)
    ge = gcd(g, exponent)
    if ge:
        k2 = k % ge
        if k2 != k:
            if k2 == 0:
                if ann_u and ann_v and gcd(ann_u, ann_v) == 1:
                    detail = ("coprime orders: gcd({}, {}) = 1 kills [{}, {}]",
                              ann_u, ann_v, u, v)
                    rule = "coprime"
                else:
                    why = (("{} annihilates a factor", g)
                           if g and k % g == 0 else
                           ("the exponent {} of the target {} annihilates "
                            "the bracket", exponent, target.key))
                    detail = ("[{}, {} {}] = [{} {}, {}] = 0 ({})",
                              u, k, v, k, u, v, why)
                    rule = "bilinearity"
                trace.append(R.TraceStep(rule, detail,
                                         ("{} [{}, {}]", k, u, v), "0"))
                return {}
            trace.append(R.TraceStep(
                "bilinearity",
                ("coefficient {} = {} (mod {}) across the bracket", k, k2, ge),
                ("{} [{}, {}]", k, u, v), ("{} [{}, {}]", k2, u, v)))
            k = k2

    ground = _ground_bracket(k, u, v, db, trace)
    if ground is not None:
        return ground

    # naturality across a common head: [h.a, h.b] = h.[a, b]
    m = 0
    while m < len(u.atoms) and m < len(v.atoms) and u.atoms[m] == v.atoms[m]:
        m += 1
    if m:
        head = u.prefix(m)
        u2, v2 = u.suffix(m), v.suffix(m)
        out = {head.compose(R.bracket_chain({u2: 1}, {v2: 1})): k}
        trace.append(R.TraceStep(
            "naturality", ("[{}, {}] = {} . [{}, {}]", u, v, head, u2, v2),
            ("[{}, {}]", u, v), out))
        return out

    return _smash_split(k, u, v, db, trace)


def _ground_bracket(k: int, u: R.Chain, v: R.Chain, db, trace) -> Optional[dict]:
    rel = db.bracket_relation(u, v)
    sign = 1
    if rel is None:
        rel = db.bracket_relation(v, u)
        if rel is not None:
            sign = (-1) ** (u.dom * v.dom)
    if rel is None:
        return None
    out = R.fs_scale(rel.rhs_fs, k * sign)
    detail = rel.name if sign == 1 else (
        "{} (anticommutativity sign {})", rel.name, sign)
    trace.append(R.TraceStep("relation", detail, ("{} [{}, {}]", k, u, v),
                             out, rel.provenance))
    return out


def _split_options(ch: R.Chain, db):
    """Decompositions ch = head . S(tail): (head chain, desuspended tail)."""
    opts = []
    if ch.atoms:
        tail = ch.suffix(1)
        if tail.is_suspension_class:
            des = R.desusp_chain(tail, db)
            if des is not None:
                opts.append((ch.prefix(1), des))
    des_all = R.desusp_chain(ch, db)
    if des_all is not None:
        opts.append((R.identity_chain(ch.space.n), des_all))
    return opts


def _smash_split(k: int, u: R.Chain, v: R.Chain, db, trace) -> Optional[dict]:
    """[head_u . Sa, head_v . Sb] = [head_u, head_v] . S(a ^ b)."""
    candidates = []
    for hu, a in _split_options(u, db):
        for hv, b in _split_options(v, db):
            if hu.atoms == u.atoms and hv.atoms == v.atoms and \
                    hu.dom == u.dom and hv.dom == v.dom:
                continue  # no progress
            candidates.append((hu, a, hv, b))
    if not candidates:
        return None

    def rank(cand):
        hu, a, hv, b = cand
        if db.bracket_relation(hu, hv) or db.bracket_relation(hv, hu):
            return 0
        au, av = R.chain_annihilator(hu, db), R.chain_annihilator(hv, db)
        if au and av and gcd(au, av) == 1:
            return 1
        return 2

    hu, a, hv, b = min(candidates, key=rank)
    realized = R.smash_fs({a: 1}, {b: 1}, b.space.n, a.dom, db)
    out = R.fs_scale(R.fs_compose({R.bracket_chain({hu: 1}, {hv: 1}): 1},
                                  R.fs_susp(realized, 1, db)), k)
    trace.append(R.TraceStep(
        "smash", ("[{}, {}] = [{}, {}] . S({} ^ {})", u, v, hu, hv, a, b),
        ("[{}, {}]", u, v), out))
    return out


# ---------------------------------------------------------------------------
# product specifications and statuses

@dataclass(eq=False, repr=False)
class ProductSpec:
    """The factors of a higher product, at least two."""

    factors: tuple

    def __post_init__(self):
        if len(self.factors) < 2:
            raise DegreeMismatch("a product needs at least two factors")

    @property
    def r(self) -> int:
        return len(self.factors)

    def signatures(self, db) -> list:
        sigs = []
        target = None
        for f in self.factors:
            s = E.typecheck(f, db)
            if s is None:
                raise DegreeMismatch(
                    "every factor needs a signature; write 0 as 0*iota_n")
            if target is None:
                target = s.target
            elif s.target != target:
                raise MixedTargets("factors over different targets")
            sigs.append(s)
        return sigs


def product_spec(*factors: E.Expr) -> ProductSpec:
    return ProductSpec(tuple(factors))


@dataclass(eq=False, repr=False)
class ProductStatus:
    """What is known of a product set; read through ``to_json``."""

    kind: str  # empty | contains_zero | nonempty | coset | constrained_coset | undetermined
    reason: str = ""
    witness: Optional[dict] = None
    coset: Optional[Coset] = None
    candidates: Optional[list] = None
    subgroup: Optional[Subgroup] = None
    constraints: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.reason:
            out["reason"] = self.reason
        if self.witness:
            out["witness"] = self.witness
        if self.coset is not None:
            out["coset"] = {"representative": str(self.coset.representative),
                            "subgroup": self.coset.subgroup.to_json()}
        if self.candidates is not None:
            out["candidates"] = [str(c) for c in self.candidates]
        if self.subgroup is not None:
            out["subgroup"] = self.subgroup.to_json()
        if self.constraints:
            out["constraints"] = list(self.constraints)
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def permutation_pullback(spec: ProductSpec, sigma: Sequence[int]):
    """Permuted factor list and sgn(sigma); sigma maps slot i to factor sigma[i]."""
    r = spec.r
    if sorted(sigma) != list(range(1, r + 1)):
        raise DegreeMismatch(f"not a permutation of 1..{r}: {sigma!r}")
    permuted = ProductSpec(tuple(spec.factors[s - 1] for s in sigma))
    inversions = sum(1 for i in range(r) for j in range(i + 1, r)
                     if sigma[i] > sigma[j])
    return permuted, (-1) ** inversions


# The triple-product record is the database's ``factor_memo``: each
# factor's normal form, each ordered pair's bracket (order carries the
# sign) and each factor's share of J, at most SHARE_LIMIT entries in all,
# cleared by every ``RelationDB.add_*``.  Traces are discarded, and an
# exception is raised again on the next request, never stored.  Nothing
# in it holds the database, so no reference cycle keeps a database alive.

def _form(f: E.Expr, db) -> R.NormalForm:
    nf = db.factor_memo.get(("form", f))
    if nf is None:
        nf = _keep(db.factor_memo, ("form", f), evaluate(f, db))
    return nf


def _pair(f: E.Expr, g: E.Expr, db) -> R.NormalForm:
    nf = db.factor_memo.get(("pair", f, g))
    if nf is None:
        nf = _keep(db.factor_memo, ("pair", f, g), _bracket_of(
            f, g, _form(f, db), _form(g, db), db, []))
    return nf


def _share(i: int, f: E.Expr, t: GroupTable, M: int, db) -> list:
    """[gamma, f] for gamma in the basis of t = pi_{M - |f|}; ``i``
    numbers the factor in error messages."""
    gens = db.factor_memo.get(("share", f, M))
    if gens is not None:
        return gens
    nf_f = _form(f, db)
    if not t.is_full:
        if nf_f.element is None:
            raise UndeterminedResult(
                f"factor {i + 1} does not resolve; cannot license the "
                f"partial table {t.key}")
        o = order_of(nf_f.element)
        if o is INFINITE or not _prime_support_within(int(o), t.completeness):
            raise UndeterminedResult(
                f"{t.key} is only complete at primes "
                f"{sorted(t.completeness)}; the order of factor {i + 1} does "
                f"not license ignoring the rest")
    sig = E.Signature(M - 1, t.key.target)
    gens = []
    for ch in db.basis_chains(t.key):
        shown = ("[{}, {}]", ch, f)
        if nf_f.fs is None:
            nf = nf_f  # flattening the factor was blocked
        else:
            nf_gamma = evaluate_fs({ch: 1}, ch.signature, db)
            nf = _bracket_nf(nf_gamma, nf_f, sig, db, [], 0, shown)
        if not nf.is_resolved:
            raise UndeterminedResult(
                f"{R.show(shown)} did not resolve: {nf.reason}")
        gens.append(nf.element)
    return _keep(db.factor_memo, ("share", f, M), gens)


def lower_products_vanish(spec: ProductSpec, db, *,
                          trace=None) -> ProductStatus:
    """Check the nonemptiness criterion: all lower products contain zero.

    For r > 2 each pair is bracketed once: unresolved gives
    ``undetermined``, nonzero ``empty``.  A sub-product of size >= 3 is
    certified to contain 0 only through a trivial factor, so (by induction
    on size) exactly when at most two of its factors are nontrivial.  So
    at r >= 4 three nontrivial factors give ``undetermined``; otherwise a
    trivial factor gives ``contains_zero`` and none gives ``nonempty``.
    A call given a ``trace`` brackets and traces every pair, repeated
    ones included, as separate ``bracket`` calls would; without one, the
    pairs come from the database's record.
    """
    spec.signatures(db)
    r = spec.r
    factors = spec.factors
    if r > 2:  # at r = 2 the pair itself is the product
        for i in range(r):
            for j in range(i + 1, r):
                if trace is None:
                    nf = _pair(factors[i], factors[j], db)
                else:
                    nf = bracket(factors[i], factors[j], db, trace=trace)
                if not nf.is_resolved:
                    return ProductStatus(
                        "undetermined",
                        reason=f"[{E.format_expr(factors[i])}, "
                               f"{E.format_expr(factors[j])}] did not resolve")
                if not nf.is_zero:
                    return ProductStatus(
                        "empty",
                        reason="a pairwise product is nonzero",
                        witness={"pair": (i + 1, j + 1),
                                 "bracket": f"[{E.format_expr(factors[i])}, "
                                            f"{E.format_expr(factors[j])}]",
                                 "value": nf.display()})
    zero_slots = [i + 1 for i, f in enumerate(factors)
                  if _form(f, db).is_zero]
    nontrivial = tuple(i for i in range(1, r + 1) if i not in zero_slots)
    if r >= 4 and len(nontrivial) >= 3:
        return ProductStatus("undetermined", reason=(
            f"cannot certify 0 in the sub-product {nontrivial[:3]}"))
    if zero_slots:
        return ProductStatus(
            "contains_zero",
            reason=f"factor {zero_slots[0]} is trivial and all lower "
                   f"products vanish")
    return ProductStatus("nonempty",
                         reason="all lower products contain zero")


def indeterminacy(spec: ProductSpec, db) -> Subgroup:
    """The subgroup by which the product is a coset, for sphere factors:
    the sum of the factors' shares [pi, alpha_i]."""
    sigs = spec.signatures(db)
    target = sigs[0].target
    dims = [s.source_dim for s in sigs]
    M = sum(dims)
    out_table = db.table(target, M - 1)
    if out_table is None:
        raise MissingTable(f"no table for pi_{M - 1}({target})")
    gens = []
    for i, f in enumerate(spec.factors):
        k = M - dims[i]
        t = db.table(target, k)
        if t is None:
            raise MissingTable(f"no table for pi_{k}({target})")
        gens += _share(i, f, t, M, db)
    return subgroup_generated(gens, out_table)


def _prime_support_within(n: int, primes: frozenset) -> bool:
    if n == 0:
        return False
    for p in primes:
        while n % p == 0:
            n //= p
    return n == 1


def triple_coset_constraints(spec: ProductSpec, db, *,
                             _depth: int = 0) -> ProductStatus:
    """Torsion and suspension constraints on a triple-product representative."""
    if spec.r != 3:
        raise DegreeMismatch("triple constraints need exactly three factors")
    low = lower_products_vanish(spec, db)
    if low.kind in ("empty", "undetermined"):
        return low
    sigs = spec.signatures(db)
    target = sigs[0].target
    M = sum(s.source_dim for s in sigs)
    J = indeterminacy(spec, db)
    table = J.table
    constraints: list[str] = []
    notes: list[str] = []

    elements = []
    finite_orders = []
    for f in spec.factors:
        nf = _form(f, db)
        elements.append(nf.element)
        if nf.element is not None:
            o = order_of(nf.element)
            if o is not INFINITE:
                finite_orders.append(int(o))
    for m in sorted(set(finite_orders)):
        constraints.append(f"{m}*alpha in J")

    coprime_ms = [m for m in sorted(set(finite_orders))
                  if J.order is not INFINITE and gcd(m, int(J.order)) == 1]
    if not coprime_ms:
        return ProductStatus(
            "undetermined", subgroup=J, constraints=constraints,
            reason="no factor order is relatively prime to |J|; cannot pick "
                   "a torsion representative")
    m0 = coprime_ms[0]
    constraints.append(f"{m0 * int(J.order)}*alpha = 0")
    candidates = torsion_family(table, m0)
    notes.append(f"representative chosen with {m0}*alpha' = 0 "
                 f"(gcd({m0}, |J|) = 1)")

    support = [i for i, d in enumerate(table.orders) if d and gcd(m0, d) > 1]
    if support and len(candidates) > 1:
        up_target = sphere(target.n + 1)
        up_table = db.table(up_target, M)
        if up_table is None:
            raise MissingTable(
                f"suspension kill needs a table for pi_{M}({up_target})")
        susp_values = {}
        for i in support:
            chain = db.basis_chains(table.key)[i]
            nf = evaluate_fs(R.fs_susp({chain: 1}, 1, db),
                             E.Signature(M, up_target), db)
            if not nf.is_resolved:
                raise UndeterminedResult(
                    f"suspension of {table.gens[i].label!r} did not resolve "
                    f"in pi_{M}({up_target})")
            susp_values[i] = nf.element
        killed = []
        for i in support:
            if susp_values[i].is_zero:
                continue
            others = subgroup_generated(
                [susp_values[j] for j in support if j != i], up_table)
            if susp_values[i] not in others:
                killed.append(i)
        for i in killed:
            label = table.gens[i].label
            constraints.append(
                f"suspension-kill: {label} excluded "
                f"(S {label} = {susp_values[i]} is nonzero and independent)")
        candidates = [c for c in candidates
                      if all(c.coeffs[i] == 0 for i in killed)]

    # containment under scalar factors: [.., n*f, ..] sits inside
    # n*[.., f, ..] + J whenever the divided product itself resolves
    if _depth < _MAX_CONTAINMENT_DEPTH:
        for t, elt in enumerate(elements):
            if elt is None or elt.is_zero:
                continue
            for p in (2, 3, 5, 7):
                if not all(c % p == 0 for c in elt.coeffs):
                    continue
                divided = elt.table.element(tuple(c // p for c in elt.coeffs))
                if divided.is_zero:
                    continue
                sub_factors = list(spec.factors)
                sub_factors[t] = element_to_expr(divided, db)
                try:
                    sub = triple_coset_constraints(
                        ProductSpec(tuple(sub_factors)), db, _depth=_depth + 1)
                except (MissingTable, UndeterminedResult):
                    continue
                if sub.kind == "coset":
                    sub_cands = [sub.coset.representative]
                elif sub.kind == "constrained_coset":
                    sub_cands = sub.candidates
                else:
                    continue
                before = len(candidates)
                candidates = [
                    c for c in candidates
                    if any((c - fp.scale(p)) in J for fp in sub_cands)]
                if len(candidates) != before:
                    constraints.append(
                        f"containment: family restricted by "
                        f"{p}*(family of the divided factor {t + 1}) + J")
                break

    candidates = sorted(set(candidates), key=lambda c: c.coeffs)
    if len(candidates) == 1:
        return ProductStatus("coset", coset=Coset(candidates[0], J),
                             subgroup=J, constraints=constraints, notes=notes)
    return ProductStatus("constrained_coset", candidates=candidates,
                         subgroup=J, constraints=constraints, notes=notes)


# ---------------------------------------------------------------------------
# projective spaces

def whitehead_projective(f: E.Expr, h0f: Optional[E.Expr], n: int, k: int,
                         db, *, trace: Optional[list] = None) -> R.NormalForm:
    """[gamma_nR . f, i_nR]: zero for odd n, the mod-2 correction for even n."""
    if trace is None:
        trace = []
    rp = Space("RP", n)
    sig = E.typecheck(f, db)
    if sig is not None and (not sig.target.is_sphere or sig.target.n != n
                            or sig.source_dim != k):
        raise DegreeMismatch(f"f must live in pi_{k}(S{n}), got {sig}")
    out_sig = E.Signature(k, rp)
    if n % 2 == 1:
        trace.append(R.TraceStep("projective", "odd n: the product vanishes",
                                 ("[gamma_{}R . f, i_{}R]", n, n), "0"))
        return R.zero_form(out_sig, db, trace)
    if h0f is None:
        h0f = db.hopf0_value(f)
        if h0f is None:
            raise UndeterminedResult(
                "the 0th Hopf-Hilton invariant of f must be supplied")
    gamma = E.gen(f"gamma_{n}R")
    iota_n = E.gen(f"iota_{n}")
    correction = E.Compose(E.Bracket(iota_n, iota_n), h0f)
    body = E.Sum((E.Scalar(-2, f), correction))
    expr = E.Scalar((-1) ** k, E.Compose(gamma, body))
    trace.append(R.TraceStep(
        "projective",
        ("even n: (-1)^{} gamma_{}R . (-2 f + [iota_{}, iota_{}] . h0 f)",
         k, n, n, n),
        ("[gamma_{}R . {}, i_{}R]", n, f, n), expr))
    return evaluate(expr, db, sig_hint=out_sig, trace=trace)


# ---------------------------------------------------------------------------
# catalog of named results

def known_results(db, query: str, **params):
    """Catalog lookups for the projective-space product values."""
    if query == "cp":
        r = int(params.get("r", 2))
        if r < 2:
            raise UnknownQuery("cp needs r >= 2")
        table = GroupTable(
            TableKey(Space("CP", r), 2 * r + 1), "full",
            (TableGen(f"gamma_{r}C", 0),),
            provenance="fibration S1 -> S(2r+1) -> CP^r")
        value = table.basis_element(0, math.factorial(r + 1))
        return value
    if query == "hp":
        r = int(params.get("r", 3))
        if r < 2:
            raise UnknownQuery("hp needs r >= 2")
        nf = bracket(E.gen("iota_4"), E.gen("iota_4"), db)
        if r == 2:
            return nf.element
        return ProductStatus(
            "empty",
            reason="the square bracket of the bottom inclusion is nonzero",
            witness={"pair": (1, 2),
                     "bracket": "[i_1H, i_1H] = [iota_4, iota_4]",
                     "value": nf.display(),
                     "ambient": "pi_7(S4) = Z + Z12"})
    if query == "rp2":
        nf = whitehead_projective(E.gen("iota_2"), None, 2, 2, db)
        if nf.element is None:
            raise UndeterminedResult("projective bracket did not resolve")
        sub = subgroup_generated([nf.element])
        return ProductStatus(
            "coset",
            coset=Coset(nf.element.table.zero(), sub),
            subgroup=sub,
            notes=["2 pi_2(RP2) = [0, 0, i_2R] = [0, i_2R, i_2R] "
                   "= [i_2R, i_2R, i_2R]",
                   "[pi_2(RP2), i_2R] is generated by "
                   f"[gamma_2R, i_2R] = {nf.display()}"])
    if query == "baues":
        dims = tuple(params["dims"])
        if sum(dims) != 4:
            return ProductStatus(
                "contains_zero",
                reason="maps to S2 have vanishing higher products unless the "
                       "total dimension is 4")
        return ProductStatus("undetermined",
                             reason="total dimension 4 over S2 is not covered")
    if query == "rpn":
        n = int(params["n"])
        r = int(params["r"])
        if r < 2 or n < 1:
            raise UnknownQuery("rpn needs n >= 1, r >= 2")
        notes = []
        if r <= n:
            notes.append("the product is zero (modulo indeterminacy)")
        if n % 2 == 0 and r < 2 * n:
            notes.append(f"2 pi_{r - 1}(RP{n}) sits inside the product")
        return ProductStatus(
            "contains_zero",
            reason="iterated bottom-cell inclusions extend over the product",
            notes=notes)
    raise UnknownQuery(f"no catalog entry for {query!r}")
