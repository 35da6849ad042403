"""Tests of the benchmark itself; the repository's own suite does not
collect this file.  Run from the repository root:

    python3 -m pytest -q bench/selftest.py
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracer as T  # noqa: E402
import workloads  # noqa: E402

W = run.import_program()


@pytest.fixture(scope="module")
def db():
    return run.load_db(W)


@pytest.fixture(scope="module")
def ref():
    return checks.Reference()


def test_checker_rejects_a_wrong_answer(db, ref):
    # eta_5^3 = 4 nu_5 (toda (5.5)); a claim of 2 nu_5 must be refused
    nf = W.evaluate(W.parse("eta_5^3"), db)
    wrong = W.evaluate(W.parse("2 nu_5"), db)
    assert checks.check_normal_form(nf, ("elem", "pi_8(S5)", {"nu_5": 4})) is None
    assert checks.check_normal_form(wrong, ("elem", "pi_8(S5)", {"nu_5": 4}))
    assert checks.check_normal_form(nf, ("zero",))
    assert checks.check_normal_form(nf, ("residue", "4 nu_5"))


def test_reference_arithmetic(ref):
    # [iota_4, iota_4] = 2 nu_4 + 3 Snu' under the sign policy, and bilinearity
    # with graded anticommutativity: [2 iota_4, 3 iota_4] = 6 [iota_4, iota_4]
    assert ref.bracket_of_sums({"iota_4": 2}, 4, {"iota_4": 3}, 4,
                               "pi_7(S4)") == {"nu_4": 12, "Snu'": 2}
    # listed one way round: [iota_4, alpha2(4)] = (-1)^(4 * 11) [alpha2(4), iota_4]
    assert ref.bracket_of_sums({"iota_4": 1}, 4, {"alpha2(4)": 1}, 11,
                               "pi_14(S4)") == {"[iota_4, iota_4] . alpha2(7)": 1}
    assert checks.betti_expected((1, 2, 3)) == {3: 1, 4: 1, 5: 1, 6: 1}
    assert checks.model_cup(frozenset({2}), frozenset({1}), (1, 1), 0, 2) \
        == {frozenset({1, 2}): -1}


def test_checkers_reject_wrong_fatwedge_and_triple_outputs(db, ref):
    dims = (2, 2, 2, 2)
    t = W.sphere_tuple(*dims)
    ring = W.ring(0, 3, t)
    out = (ring.betti(), W.retraction_obstruction(t), W.omega_nontriviality(t), [])
    assert checks.check_fatwedge(dims, out, []) is None
    bad_betti = ({**out[0], 4: out[0][4] + 1},) + out[1:]
    assert checks.check_fatwedge(dims, bad_betti, [])
    assert checks.check_fatwedge(dims, (out[0], None) + out[2:], [])
    spec = W.product_spec(W.parse("eta_4"), W.parse("eta_4^2"), W.parse("2 iota_4"))
    assert checks.check_indeterminacy(W.indeterminacy(spec, db), 2, ref) is None
    assert checks.check_indeterminacy(W.indeterminacy(spec, db), 6, ref)
    status = W.triple_coset_constraints(spec, db)
    assert checks.check_triple(status, 2, ref) is None
    assert checks.check_triple(status, 4, ref)


def test_self_time_on_a_synthetic_span_tree():
    tr = T.Tracer()
    a, b, c = tr.name_id("a"), tr.name_id("b"), tr.name_id("c")
    spans = [(a, -1, 0, 100), (b, 0, 10, 40), (c, 1, 20, 30), (c, 0, 50, 90)]
    for name, parent, start, end in spans:
        tr.name.append(name)
        tr.parent.append(parent)
        tr.op.append(0)
        tr.start.append(start)
        tr.end.append(end)
    # a: 100 - (30 + 40); b: 30 - 10; c: 10 + 40
    assert tr.self_ns() == {"a": 30, "b": 20, "c": 50}


def test_wrappers_nest_and_collapse_direct_recursion():
    tr = T.Tracer()

    def fact(n):
        return 1 if n == 0 else n * wrapped(n - 1)

    wrapped = tr.wrap("fact", fact)
    tr.enabled = True
    assert wrapped(5) == 120
    assert tr.calls[tr.ids["fact"]] == 6
    assert len(tr.name) == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seeds_give_different_inputs_that_all_pass(name, db, ref):
    cls = workloads.WORKLOADS[name]
    a, b = cls(1, ref, W, db), cls(2, ref, W, db)
    assert repr(a.round(0)) != repr(b.round(0))
    assert repr(a.round(0)) == repr(cls(1, ref, W, db).round(0))
    for workload in (a, b):
        items = workload.round(0)
        if name == "fatwedge-sweep":
            items = [it for it in items if len(it[0]) in (4, 9)][:40]
        for item in items:
            out = workload.run(item)
            assert workload.check(item, out) is None, item
            assert workload.extra(item, out) is None, item
