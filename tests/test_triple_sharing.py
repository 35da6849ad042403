"""Triple products that share their work within one call, against the
unshared steps they replaced, and the number of pair brackets they make."""

from itertools import permutations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_rewrite import _shipped_db
from whiteprod import expr as E
from whiteprod import rewrite as R
from whiteprod import whitehead as W
from whiteprod.errors import (DegreeMismatch, MissingTable,
                              UndeterminedResult)
from whiteprod.groups import (INFINITE, Coset, order_of, sphere,
                              subgroup_generated, torsion_family)
from whiteprod.parser import parse

# ---------------------------------------------------------------------------
# the reference: every step evaluates its factors and brackets its pairs
# again, and each containment level redoes the whole triple


def _ref_lower_products_vanish(spec, db, *, trace=None):
    if trace is None:
        trace = []
    spec.signatures(db)
    r = spec.r
    factors = spec.factors
    if r > 2:
        for i in range(r):
            for j in range(i + 1, r):
                nf = W.bracket(factors[i], factors[j], db, trace=trace)
                if not nf.is_resolved:
                    return W.ProductStatus(
                        "undetermined",
                        reason=f"[{E.format_expr(factors[i])}, "
                               f"{E.format_expr(factors[j])}] did not resolve")
                if not nf.is_zero:
                    return W.ProductStatus(
                        "empty",
                        reason="a pairwise product is nonzero",
                        witness={"pair": (i + 1, j + 1),
                                 "bracket": f"[{E.format_expr(factors[i])}, "
                                            f"{E.format_expr(factors[j])}]",
                                 "value": nf.display()})
    zero_slots = [i + 1 for i, f in enumerate(factors)
                  if W.evaluate(f, db).is_zero]
    nontrivial = tuple(i for i in range(1, r + 1) if i not in zero_slots)
    if r >= 4 and len(nontrivial) >= 3:
        return W.ProductStatus("undetermined", reason=(
            f"cannot certify 0 in the sub-product {nontrivial[:3]}"))
    if zero_slots:
        return W.ProductStatus(
            "contains_zero",
            reason=f"factor {zero_slots[0]} is trivial and all lower "
                   f"products vanish")
    return W.ProductStatus("nonempty",
                           reason="all lower products contain zero")


def _ref_indeterminacy(spec, db):
    sigs = spec.signatures(db)
    target = sigs[0].target
    dims = [s.source_dim for s in sigs]
    M = sum(dims)
    out_table = db.table(target, M - 1)
    if out_table is None:
        raise MissingTable(f"no table for pi_{M - 1}({target})")
    sig = E.Signature(M - 1, target)
    gens = []
    for i, f in enumerate(spec.factors):
        k = M - dims[i]
        t = db.table(target, k)
        if t is None:
            raise MissingTable(f"no table for pi_{k}({target})")
        nf_f = W.evaluate(f, db)
        if not t.is_full:
            if nf_f.element is None:
                raise UndeterminedResult(
                    f"factor {i + 1} does not resolve; cannot license the "
                    f"partial table pi_{k}({target})")
            o = order_of(nf_f.element)
            if o is INFINITE or not W._prime_support_within(int(o), t.primes):
                raise UndeterminedResult(
                    f"pi_{k}({target}) is only complete at primes "
                    f"{sorted(t.primes)}; the order of factor {i + 1} does "
                    f"not license ignoring the rest")
        for ch in db.basis_chains(t.key):
            shown = ("[{}, {}]", ch, f)
            if nf_f.fs is None:
                nf = nf_f
            else:
                nf_gamma = W.evaluate_fs({ch: 1}, ch.signature, db)
                nf = W._bracket_nf(nf_gamma, nf_f, sig, db, [], 0, shown)
            if not nf.is_resolved:
                raise UndeterminedResult(
                    f"{R.show(shown)} did not resolve: {nf.reason}")
            gens.append(nf.element)
    return subgroup_generated(gens, out_table)


def _ref_triple(spec, db, *, _depth=0):
    if spec.r != 3:
        raise DegreeMismatch("triple constraints need exactly three factors")
    low = _ref_lower_products_vanish(spec, db)
    if low.kind in ("empty", "undetermined"):
        return low
    sigs = spec.signatures(db)
    target = sigs[0].target
    M = sum(s.source_dim for s in sigs)
    J = _ref_indeterminacy(spec, db)
    table = J.table
    constraints = []
    notes = []

    elements = []
    finite_orders = []
    for f in spec.factors:
        nf = W.evaluate(f, db)
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
        return W.ProductStatus(
            "undetermined", subgroup=J, constraints=constraints,
            reason="no factor order is relatively prime to |J|; cannot pick "
                   "a torsion representative")
    m0 = coprime_ms[0]
    if J.order is not INFINITE:
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
            nf = W.evaluate_fs(R.fs_susp({chain: 1}, 1, db),
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

    if _depth < W._MAX_CONTAINMENT_DEPTH:
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
                sub_factors[t] = W.element_to_expr(divided, db)
                try:
                    sub = _ref_triple(W.ProductSpec(tuple(sub_factors)), db,
                                      _depth=_depth + 1)
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
        return W.ProductStatus("coset", coset=Coset(candidates[0], J),
                               subgroup=J, constraints=constraints,
                               notes=notes)
    return W.ProductStatus("constrained_coset", candidates=candidates,
                           subgroup=J, constraints=constraints, notes=notes)

# ---------------------------------------------------------------------------
# the differential


def _outcome(fn):
    """What a call returns, in comparable form, or the error it raises."""
    try:
        out = fn()
    except (MissingTable, UndeterminedResult, DegreeMismatch) as exc:
        return ("raised", type(exc), str(exc))
    if not isinstance(out, W.ProductStatus):
        return ("subgroup", out.to_json())
    return ("status", out.to_json(),
            None if out.subgroup is None else out.subgroup.to_json(),
            None if out.candidates is None
            else [(str(c.table.key), c.coeffs) for c in out.candidates],
            None if out.coset is None
            else str(out.coset.representative),
            list(out.constraints))


def _assert_same(db, spec):
    tr_new, tr_ref = [], []
    assert _outcome(lambda: W.lower_products_vanish(spec, db, trace=tr_new)) \
        == _outcome(lambda: _ref_lower_products_vanish(spec, db, trace=tr_ref))
    assert [s.to_json() for s in tr_new] == [s.to_json() for s in tr_ref]
    assert _outcome(lambda: W.indeterminacy(spec, db)) \
        == _outcome(lambda: _ref_indeterminacy(spec, db))
    new = _outcome(lambda: W.triple_coset_constraints(spec, db))
    assert new == _outcome(lambda: _ref_triple(spec, db))
    return new


def _spec(*texts):
    return W.product_spec(*(parse(t) for t in texts))


@pytest.mark.parametrize("c", list(range(-6, 41)) + [2 ** 20])
def test_flagship_family_matches_the_reference(db, c):
    _assert_same(db, _spec("eta_4", "eta_4^2", f"{c} iota_4"))


@pytest.mark.parametrize("c", [0, 2, 3, 6, 8, 24])
def test_permuted_factors_match_the_reference(db, c):
    factors = ("eta_4", "eta_4^2", f"{c} iota_4")
    for order in permutations(factors):
        _assert_same(db, _spec(*order))


@pytest.mark.parametrize("factors", [
    *[("eta_4", "eta_4", f"{c} iota_4") for c in (0, 1, 2, 3, 8)],
    *[(f"{c} iota_4", "eta_4", "eta_4") for c in (2, 8)],
    ("eta_4^2", "eta_4^2", "eta_4"),
    ("2 iota_4", "2 iota_4", "eta_4"),
])
def test_repeated_factors_match_the_reference(db, factors):
    _assert_same(db, _spec(*factors))


@pytest.mark.parametrize("factors", [
    ("0 iota_4", "0 iota_4", "0 iota_4"),
    ("0 eta_4", "0 eta_4^2", "0 iota_4"),
    ("0 iota_4", "eta_4", "eta_4^2"),
])
def test_zero_factors_match_the_reference(db, factors):
    _assert_same(db, _spec(*factors))


def test_missing_table_matches_the_reference(db):
    out = _assert_same(db, _spec("eta_4^2", "eta_4^2", "2 iota_4"))
    assert out == ("raised", MissingTable, "no table for pi_15(S4)")


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((4, 5, 6)), st.integers(-12, 12)),
                min_size=3, max_size=3))
def test_scaled_basis_triples_match_the_reference(factors):
    """Each factor is c times a basis element of pi_4, pi_5 or pi_6(S4)."""
    db = _shipped_db()
    exprs = []
    for k, c in factors:
        (chain,) = db.basis_chains(db.table(sphere(4), k).key)
        exprs.append(E.Scalar(c, R.chain_to_expr(chain)))
    _assert_same(db, W.product_spec(*exprs))


# ---------------------------------------------------------------------------
# counters


def _count_pair_brackets(monkeypatch):
    calls = []
    pair_bracket = W._pair_bracket

    def counting(k, u, v, db, trace):
        calls.append((k, u, v))
        return pair_bracket(k, u, v, db, trace)

    monkeypatch.setattr(W, "_pair_bracket", counting)
    return calls


@pytest.mark.parametrize("c, most", [(2, 10), (6, 15), (8, 18)])
def test_triple_brackets_each_pair_once(db, monkeypatch, c, most):
    """One triple call, its containment recursion included, makes each
    (k, u, v) pair bracket once; the unshared steps made 12, 24 and 30."""
    calls = _count_pair_brackets(monkeypatch)
    W.triple_coset_constraints(_spec("eta_4", "eta_4^2", f"{c} iota_4"), db)
    assert len(calls) == len(set(calls))
    assert len(calls) <= most


def test_lower_products_of_its_own_trace_every_pair(db, monkeypatch):
    """A call of its own brackets and traces each pair, the two identical
    [eta_4^2, 2 iota_4] included, as separate ``bracket`` calls would."""
    factors = [parse(t) for t in ("eta_4^2", "eta_4^2", "2 iota_4")]
    expected = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert W.bracket(factors[i], factors[j], db, trace=expected).is_zero
    calls = _count_pair_brackets(monkeypatch)
    trace = []
    status = W.lower_products_vanish(W.product_spec(*factors), db, trace=trace)
    assert status.kind == "nonempty"
    assert [s.to_json() for s in trace] == [s.to_json() for s in expected]
    pair = [s.to_json() for s in W.bracket(factors[0], factors[2], db).trace]
    assert pair and [s.to_json() for s in trace].count(pair[0]) >= 2
    assert len(calls) > len(set(calls))  # the repeated pair, bracketed twice


def test_lower_products_of_its_own_stop_at_a_nonzero_pair(db):
    """<eta_4, eta_4, 2 iota_4> is empty at its first pair: the trace is
    that pair's, and the repeated [eta_4, 2 iota_4] is never reached."""
    factors = [parse(t) for t in ("eta_4", "eta_4", "2 iota_4")]
    expected = []
    assert not W.bracket(factors[0], factors[1], db, trace=expected).is_zero
    trace = []
    status = W.lower_products_vanish(W.product_spec(*factors), db, trace=trace)
    assert status.kind == "empty" and status.witness["pair"] == (1, 2)
    assert [s.to_json() for s in trace] == [s.to_json() for s in expected]


def test_partial_table_refusal_matches_the_reference():
    """With pi_11(S4) declared complete only at 2, the factor c iota_4
    (infinite order) cannot license it: the same factor is named first,
    in every order of the factors, and nothing is kept between calls."""
    from importlib import resources
    from whiteprod.relations import load_relations_text
    text = resources.files("whiteprod").joinpath(
        "data/toda-core.rel").read_text(encoding="utf-8")
    full = "group S4 k=11 = "
    assert text.count(full) == 1
    db = load_relations_text(text.replace(full, "group S4 k=11 partial=2 = "),
                             "pi11-partial.rel")
    factors = ("eta_4", "eta_4^2", "2 iota_4")
    for order in permutations(factors):
        slot = order.index("2 iota_4") + 1
        out = _assert_same(db, _spec(*order))
        assert out[:2] == ("raised", UndeterminedResult)
        assert f"the order of factor {slot} does not license" in out[2]
