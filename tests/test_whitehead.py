"""Bracket calculus, indeterminacy subgroups, coset constraints, catalog."""

import random
from itertools import combinations

import pytest

from whiteprod import expr as E
from whiteprod import whitehead as W
from whiteprod.errors import (DepthLimitExceeded, MissingTable, MixedTargets,
                              UnknownQuery)
from whiteprod.groups import order_of, sphere, subgroup_generated
from whiteprod.parser import parse


def bk(db, f, g, **kw):
    return W.bracket(parse(f), parse(g), db, **kw)


def test_bracket_with_even_multiple_of_identity(db):
    assert bk(db, "eta_4", "2 iota_4").is_zero
    assert bk(db, "eta_4^2", "2 iota_4").is_zero


def test_bracket_bottom_identity_on_s2(db):
    nf = bk(db, "iota_2", "iota_2")
    assert nf.display() == "2 eta_2"
    assert not nf.is_zero


def test_bracket_eta_pair_vanishes_through_the_chain(db):
    tr = []
    nf = bk(db, "eta_4", "eta_4^2", trace=tr)
    assert nf.is_zero
    details = " | ".join(s.detail for s in tr)
    assert "eta_4 . [iota_5, eta_5]" in details
    assert "[iota_5, iota_5]" in details


def test_bracket_zero_factor(db):
    assert bk(db, "0 iota_2", "iota_2").is_zero


def test_bracket_self_eta(db):
    nf = bk(db, "eta_4", "eta_4")
    assert nf.is_resolved and nf.display() == "Snu' . eta_7^2"


def test_bracket_of_mixed_targets(db):
    with pytest.raises(MixedTargets, match="bracket mixes S4 and S2"):
        W.bracket(E.gen("eta_4"), E.gen("eta_2"), db)


def test_bracket_coprime_rule(db):
    tr = []
    nf = bk(db, "alpha2(4)", "eta_4", trace=tr)
    assert nf.is_zero
    assert any(s.rule in ("coprime", "bilinearity") for s in tr)


def test_bracket_serre_route_lands_on_table_generator(db):
    nf = bk(db, "alpha2(4)", "iota_4")
    assert nf.is_resolved
    assert nf.display() == "[iota_4, iota_4] . alpha2(7)"
    assert order_of(nf.element) == 3
    nf = bk(db, "alpha1'(4)", "iota_4")
    assert order_of(nf.element) == 5


def test_bracket_pi9_pi10_generators_die(db):
    assert bk(db, "nu_4 . eta_7^2", "eta_4^2").is_zero
    assert bk(db, "Snu' . eta_7^2", "eta_4^2").is_zero
    assert bk(db, "nu_4^2", "eta_4").is_zero


def test_bracket_killed_by_the_target_exponent(db):
    # [eta_4^2, eta_4^2] has order dividing 2 and lies in pi_11(S4) = Z15
    tr = []
    nf = bk(db, "eta_4^2", "eta_4^2", trace=tr)
    assert nf.is_resolved and nf.is_zero
    assert nf.element == db.table(sphere(4), 11).zero()
    assert "exponent 15 of the target pi_11(S4)" in tr[-1].detail


def test_blocked_residue_keeps_its_brackets(db):
    for text in ["[iota_4, iota_4] . sigma'", "(2 [iota_4, iota_4]) . sigma'"]:
        nf = W.evaluate(parse(text), db)
        assert nf.status == "residue" and nf.display() == text
        assert "non-suspension" in nf.reason


def test_bracket_of_composite_arguments(db):
    nf = W.evaluate(parse("[2 iota_4, iota_4]"), db)
    assert nf.is_resolved and nf.display() == "4 nu_4 + 2 Snu'"


# the rules each evaluation fires, in order
RULE_SEQUENCES = {
    "eta_5^3": ["relation", "resolve"],
    "Snu' . (4 nu_7)": ["order-reduce"],
    "eta_4 . nu_5 . eta_8 . eta_9": ["relation", "relation", "order-reduce"],
    "[iota_5, iota_5] . eta_9": ["relation"],
    "2 nu_4^2 . nu_10 . eta_13": ["order-reduce"],
    "[iota_4, iota_4] . alpha2(7)": ["resolve"],
    "4 (nu_4 . sigma') + 2 Seps' + eta_4 . mu_5": ["resolve"],
    "S (Seps' + nu_4 . sigma')": ["relation", "relation", "resolve"],
    "[eta_4, eta_4^2]": ["resolve", "resolve", "naturality", "smash",
                         "relation", "relation", "relation", "order-reduce"],
    "[eta_4, 2 iota_4]": ["resolve", "resolve", "bilinearity"],
    "[eta_4^2, 2 iota_4]": ["resolve", "resolve", "bilinearity"],
    "[nu_4 . eta_7^2, eta_4^2]": ["resolve", "resolve", "smash", "relation",
                                  "order-reduce"],
    "[Snu' . eta_7^2, eta_4^2]": ["resolve", "resolve", "smash", "relation",
                                  "order-reduce"],
    "[nu_4^2, eta_4]": ["resolve", "resolve", "smash", "relation",
                        "order-reduce"],
}


@pytest.mark.parametrize("text", sorted(RULE_SEQUENCES))
def test_evaluate_rule_sequence(db, text):
    tr = []
    W.evaluate(parse(text), db, trace=tr)
    assert [s.rule for s in tr] == RULE_SEQUENCES[text]


def test_bracket_bilinearity_where_resolvable(db):
    pairs = [("eta_4", "eta_4", "eta_4"), ("alpha2(4)", "alpha1'(4)", "iota_4"),
             ("alpha2(4)", "alpha2(4)", "iota_4"), ("eta_4", "eta_4", "2 iota_4")]
    for a_text, b_text, g_text in pairs:
        a, b, g = parse(a_text), parse(b_text), parse(g_text)
        lhs = W.bracket(E.Sum((a, b)), g, db)
        ra = W.bracket(a, g, db)
        rb = W.bracket(b, g, db)
        assert lhs.is_resolved and ra.is_resolved and rb.is_resolved
        if ra.element is None or rb.element is None:
            assert lhs.is_zero and ra.is_zero and rb.is_zero
        else:
            rhs_elt = ra.element + rb.element
            if lhs.element is None:
                assert lhs.is_zero and rhs_elt.is_zero
            else:
                assert lhs.element == rhs_elt


def test_bracket_graded_anticommutativity(db):
    cases = [("eta_4", "eta_4"), ("iota_2", "iota_2"),
             ("alpha2(4)", "iota_4"), ("iota_4", "alpha2(4)")]
    for f_text, g_text in cases:
        f, g = parse(f_text), parse(g_text)
        sf, sg = E.typecheck(f, db), E.typecheck(g, db)
        fwd = W.bracket(f, g, db)
        rev = W.bracket(g, f, db)
        assert fwd.is_resolved and rev.is_resolved
        sign = (-1) ** (sf.source_dim * sg.source_dim)
        if fwd.element is None:
            assert rev.is_zero
        else:
            assert rev.element == fwd.element.scale(sign)


def test_indeterminacy_order_fifteen(db):
    spec = W.product_spec(parse("eta_4"), parse("eta_4^2"), parse("2 iota_4"))
    J = W.indeterminacy(spec, db)
    assert J.order == 15
    labels = [str(g) for g in J.canonical_basis]
    assert "[iota_4, iota_4] . alpha2(7)" in labels
    assert "[iota_4, iota_4] . alpha1'(7)" in labels


def test_indeterminacy_trivial_for_zero_factors(db):
    spec = W.product_spec(parse("0 iota_2"), parse("0 iota_2"))
    J = W.indeterminacy(spec, db)
    assert J.order == 1


def test_indeterminacy_missing_table(db):
    spec = W.product_spec(parse("eta_2"), parse("eta_2"))
    # needs pi_4(S2), which is not shipped
    with pytest.raises(MissingTable):
        W.indeterminacy(spec, db)


def test_indeterminacy_pi11_contribution(db):
    t = db.table(sphere(4), 11)
    contributions = []
    for i in range(t.rank()):
        from whiteprod.rewrite import chain_to_expr
        gamma = chain_to_expr(db.basis_chains(t.key)[i])
        nf = W.bracket(gamma, parse("2 iota_4"), db)
        contributions.append(nf.element)
    orders = sorted(int(order_of(e)) for e in contributions)
    assert orders == [3, 5]
    assert subgroup_generated(contributions).order == 15


def test_lower_products_empty_with_zero_factor(db):
    spec = W.product_spec(parse("0 iota_2"), parse("iota_2"), parse("iota_2"))
    status = W.lower_products_vanish(spec, db)
    assert status.kind == "empty"
    assert status.witness["pair"] == (2, 3)
    assert status.witness["value"] == "2 eta_2"


def test_lower_products_nonempty_for_the_triple(db):
    spec = W.product_spec(parse("eta_4"), parse("eta_4^2"), parse("2 iota_4"))
    assert W.lower_products_vanish(spec, db).kind == "nonempty"


def test_lower_products_contains_zero_with_trivial_factor(db):
    spec = W.product_spec(parse("0 iota_4"), parse("eta_4"), parse("2 iota_4"))
    status = W.lower_products_vanish(spec, db)
    assert status.kind == "contains_zero"


def test_lower_products_recursive_undetermined(db):
    # four factors whose pairwise products vanish but with no zero factor:
    # the size-3 sub-products cannot be certified
    spec = W.product_spec(parse("alpha2(4)"), parse("alpha1'(4)"),
                          parse("eta_4"), parse("eta_4^2"))
    status = W.lower_products_vanish(spec, db)
    assert status.kind == "undetermined"
    assert "sub-product" in status.reason


def test_lower_products_empty_from_pairwise_identity_brackets(db):
    spec = W.product_spec(parse("eta_4"), parse("eta_4^2"), parse("2 iota_4"),
                          parse("2 iota_4"))
    status = W.lower_products_vanish(spec, db)
    assert status.kind == "empty"
    assert status.witness["pair"] == (3, 4)


def _recursive_lower_products(spec, db):
    """Reference for ``lower_products_vanish``, by its recursive definition.

    The criterion, exactly as the engine decides it: for r > 2 every pair
    [f_i, f_j] must resolve (else ``undetermined``) to 0 (else ``empty``,
    witnessed by the first such pair); every sub-product of size 3..r-1
    must be certified to contain 0 (else ``undetermined``, naming the
    first sub-tuple that is not), and a sub-product is certified when it
    satisfies this same criterion and has a trivial factor.  Then the
    product is ``contains_zero`` when a factor is trivial and ``nonempty``
    otherwise.  Each call re-checks all of its own sub-tuples, so this is
    slow by design; it keeps no trace.
    """
    spec.signatures(db)
    factors = spec.factors
    r = len(factors)
    if r > 2:
        for i, j in combinations(range(r), 2):
            pair = f"[{E.format_expr(factors[i])}, {E.format_expr(factors[j])}]"
            nf = W.bracket(factors[i], factors[j], db)
            if not nf.is_resolved:
                return W.ProductStatus("undetermined",
                                       reason=f"{pair} did not resolve")
            if not nf.is_zero:
                return W.ProductStatus(
                    "empty", reason="a pairwise product is nonzero",
                    witness={"pair": (i + 1, j + 1), "bracket": pair,
                             "value": nf.display()})
    for size in range(3, r):
        for combo in combinations(range(r), size):
            slots = tuple(i + 1 for i in combo)
            sub = W.ProductSpec(tuple(factors[i] for i in combo))
            status = _recursive_lower_products(sub, db)
            if status.kind == "empty":
                status.reason = f"sub-product {slots} is empty: {status.reason}"
                return status
            if status.kind != "contains_zero":
                return W.ProductStatus(
                    "undetermined",
                    reason=f"cannot certify 0 in the sub-product {slots}")
    zero_slots = [i + 1 for i, f in enumerate(factors)
                  if W.evaluate(f, db).is_zero]
    if zero_slots:
        return W.ProductStatus(
            "contains_zero",
            reason=f"factor {zero_slots[0]} is trivial and all lower "
                   f"products vanish")
    return W.ProductStatus("nonempty",
                           reason="all lower products contain zero")


# factors whose pairs mostly vanish, and factors that make a pair nonzero
# or leave it unresolved
QUIET_S4 = ["0 iota_4", "0 eta_4", "eta_4", "eta_4^2", "2 iota_4",
            "alpha2(4)", "alpha1'(4)", "Snu'"]
LOUD_S4 = ["eta_4 . mu_5", "nu_4 . sigma'", "iota_4"]
POOL_S2 = ["0 iota_2", "0 eta_2", "iota_2", "2 iota_2", "eta_2"]


def test_lower_products_match_the_recursive_definition(db):
    rng = random.Random(20150601)
    reached = set()
    for _ in range(320):
        r = rng.randint(2, 6)
        if rng.random() < 0.8:
            texts = [rng.choice(LOUD_S4 if rng.random() < 0.1 else QUIET_S4)
                     for _ in range(r)]
        else:
            texts = rng.choices(POOL_S2, k=r)
        spec = W.product_spec(*(parse(t) for t in texts))
        want = _recursive_lower_products(spec, db).to_json()
        assert W.lower_products_vanish(spec, db).to_json() == want, texts
        kind = want["kind"]
        if kind == "undetermined":
            kind = ("cannot certify" if "certify" in want["reason"]
                    else "unresolved pair")
        reached.add(kind)
    assert reached == {"empty", "unresolved pair", "cannot certify",
                       "contains_zero", "nonempty"}


def test_lower_products_bracket_each_pair_once(db, monkeypatch):
    calls = []
    original = W.bracket

    def counting(f, g, db, **kw):
        calls.append((f, g))
        return original(f, g, db, **kw)

    monkeypatch.setattr(W, "bracket", counting)
    spec = W.product_spec(*[parse("0 iota_4")] * 7)
    assert W.lower_products_vanish(spec, db).kind == "contains_zero"
    assert len(calls) <= 21


def test_lower_products_trace_lists_each_pair_once(db):
    factors = [parse(t) for t in ("eta_4", "0 iota_4", "eta_4^2", "0 eta_4")]
    want = []
    for f, g in combinations(factors, 2):
        tr = []
        assert W.bracket(f, g, db, trace=tr).is_zero
        want += [s.to_json() for s in tr]
    tr = []
    status = W.lower_products_vanish(W.product_spec(*factors), db, trace=tr)
    assert status.kind == "contains_zero"
    assert [s.to_json() for s in tr] == want


def test_triple_constraints_flagship(db):
    spec = W.product_spec(parse("eta_4"), parse("eta_4^2"), parse("2 iota_4"))
    status = W.triple_coset_constraints(spec, db)
    assert status.kind == "constrained_coset"
    assert status.subgroup.order == 15
    assert "2*alpha in J" in status.constraints
    assert "30*alpha = 0" in status.constraints
    assert any(c.startswith("suspension-kill: eta_4 . mu_5")
               for c in status.constraints)
    got = sorted(tuple(c.coeffs) for c in status.candidates)
    assert got == [(0, 0, 0, 0, 0), (0, 2, 0, 0, 0),
                   (4, 0, 0, 0, 0), (4, 2, 0, 0, 0)]


def test_triple_constraints_scalar_containment(db):
    # doubling the identity factor squeezes the family into J
    spec4 = W.product_spec(parse("eta_4"), parse("eta_4^2"), parse("4 iota_4"))
    status4 = W.triple_coset_constraints(spec4, db)
    assert status4.kind == "coset"
    assert status4.coset.representative.is_zero
    spec2 = W.product_spec(parse("eta_4"), parse("eta_4^2"), parse("2 iota_4"))
    status2 = W.triple_coset_constraints(spec2, db)
    J = status2.subgroup
    # the returned family for the doubled factor sits inside
    # 2*(family for the original) + J
    reps4 = [status4.coset.representative]
    assert all(any((c4 - c2.scale(2)) in J for c2 in status2.candidates)
               for c4 in reps4)


def test_triple_constraints_all_zero_factors(db):
    spec = W.product_spec(parse("0 iota_4"), parse("0 eta_4"), parse("0 eta_4^2"))
    status = W.triple_coset_constraints(spec, db)
    assert status.kind == "coset"
    assert status.coset.representative.is_zero
    assert status.subgroup.order == 1


def test_permutation_pullback(db):
    spec = W.product_spec(parse("eta_4"), parse("eta_4^2"), parse("2 iota_4"))
    same, s = W.permutation_pullback(spec, (1, 2, 3))
    assert s == 1 and same.factors == spec.factors
    swapped, s = W.permutation_pullback(spec, (2, 1, 3))
    assert s == -1 and swapped.factors[0] == spec.factors[1]
    _, s = W.permutation_pullback(spec, (2, 3, 1))
    assert s == 1


def test_permutation_indeterminacy_order_invariant(db):
    spec = W.product_spec(parse("eta_4"), parse("eta_4^2"), parse("2 iota_4"))
    J = W.indeterminacy(spec, db)
    for sigma in [(2, 1, 3), (3, 1, 2), (1, 3, 2)]:
        permuted, _ = W.permutation_pullback(spec, sigma)
        assert W.indeterminacy(permuted, db).order == J.order


def test_projective_odd_is_zero(db):
    for f_text, n, k in [("nu'", 3, 6), ("iota_5", 5, 5), ("eps'", 3, 13)]:
        nf = W.whitehead_projective(parse(f_text), parse("0 iota_2"), n, k, db)
        assert nf.is_zero


def test_projective_rp2_bottom_cell(db):
    nf = W.whitehead_projective(parse("iota_2"), None, 2, 2, db)
    assert nf.display() == "-2 gamma_2R"


def test_projective_zero_input(db):
    nf = W.whitehead_projective(parse("0 iota_2"), E.ZERO, 2, 2, db)
    assert nf.is_zero


def test_known_results_cp(db):
    assert str(W.known_results(db, "cp", r=2)) == "6 gamma_2C"
    assert str(W.known_results(db, "cp", r=5)) == "720 gamma_5C"


def test_known_results_hp(db):
    status = W.known_results(db, "hp", r=3)
    assert status.kind == "empty"
    assert status.witness["value"] == "2 nu_4 + 3 Snu'"
    two = W.known_results(db, "hp", r=2)
    assert not two.is_zero and str(two) == "2 nu_4 + 3 Snu'"


def test_known_results_baues(db):
    assert W.known_results(db, "baues", dims=(2, 3)).kind == "contains_zero"
    assert W.known_results(db, "baues", dims=(2, 2)).kind == "undetermined"


def test_known_results_rp2(db):
    status = W.known_results(db, "rp2")
    table = status.subgroup.table
    assert table.element((2,)) in status.subgroup
    assert table.element((1,)) not in status.subgroup


def test_known_results_rpn(db):
    status = W.known_results(db, "rpn", n=3, r=2)
    assert status.kind == "contains_zero"
    assert any("zero (modulo indeterminacy)" in n for n in status.notes)
    status = W.known_results(db, "rpn", n=4, r=5)
    assert any("2 pi_4(RP4)" in n for n in status.notes)


def test_known_results_unknown(db):
    with pytest.raises(UnknownQuery):
        W.known_results(db, "nope")


def test_bracket_depth_limit_raises_a_named_error(db, monkeypatch):
    # every nesting the parser accepts fits under the limit; a lowered
    # limit binds on a deep nest and says so instead of leaving a residue
    monkeypatch.setattr(W, "_MAX_DEPTH", 6)
    with pytest.raises(DepthLimitExceeded, match="depth limit of 6"):
        W.evaluate(parse("[" * 8 + "iota_4" + ", iota_4]" * 8), db)
    assert W.evaluate(parse("[[iota_4, iota_4], iota_4]"), db).is_zero


@pytest.mark.parametrize("text,shown", [
    ("S Ssigma' + sigma_9", "sigma_9 + S Ssigma'"),
    # stepping stops at the last name, so both spellings become one atom
    ("3 S^2 Ssigma' - S^3 sigma' + 2 sigma_10", "2 sigma_10 + 2 S^2 Ssigma'"),
    # the smash split desuspends a symbolic suspension
    ("[S Ssigma', iota_9]", "[iota_9, iota_9] . S^9 Ssigma'"),
])
def test_symbolic_suspensions_in_residues(db, text, shown):
    nf = W.evaluate(parse(text), db)
    assert not nf.is_resolved and nf.display() == shown
