"""The relation scan's worklist against the full rescan it replaced, the
head index's soundness, and the number of relation-window probes."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_rewrite import SCENARIO_EXPRS, _shipped_db
from whiteprod import relations
from whiteprod import rewrite as R
from whiteprod import whitehead as W
from whiteprod.errors import RelationsFileError, StepLimitExceeded
from whiteprod.parser import parse

# ---------------------------------------------------------------------------
# the reference: after every substitution, sort every chain and try every
# relation at every window again, suspending the lhs for each window


def _rescan_apply_relations(fs, db, trace, relation_order, reverse_scan):
    relations_ = db.relations
    order = relation_order if relation_order is not None \
        else range(len(relations_))
    chains = sorted(fs, key=R.Chain.key)
    for ridx in order:
        rel = relations_[ridx]
        m = len(rel.lhs_chain.atoms)
        for ch in chains:
            n = len(ch.atoms)
            if n < m:
                continue
            starts = range(n - m, -1, -1) if reverse_scan else range(n - m + 1)
            for i in starts:
                cod = R._window_cod(ch, i)
                if not cod.is_sphere or not rel.lhs_chain.space.is_sphere:
                    if cod != rel.lhs_chain.space:
                        continue
                k = cod.n - rel.lhs_chain.space.n
                if k < 0:
                    continue
                shifted = rel.lhs_chain if k == 0 \
                    else R.susp_chain(rel.lhs_chain, k, db)
                if shifted is None or shifted.atoms != ch.atoms[i:i + m]:
                    continue
                rhs = rel.rhs_fs if k == 0 else R.fs_susp(rel.rhs_fs, k, db)
                replaced = R.splice(ch, i, i + m, rhs)
                if replaced is None:
                    continue
                c = fs.pop(ch)
                out = R.fs_scale(replaced, c)
                for w, d in out.items():
                    fs[w] = fs.get(w, 0) + d
                    if fs[w] == 0:
                        del fs[w]
                detail = rel.name if not k else (
                    "{} (suspended {} step)" if k == 1 else
                    "{} (suspended {} steps)", rel.name, k)
                trace.append(R.TraceStep("relation", detail, {ch: c}, out,
                                         rel.provenance))
                return True
    return False


def _rescan_normalize_fs(fs, sig, db, *, relation_order=None,
                         reverse_scan=False, trace=None):
    """``normalize_fs`` with every phase run over the whole sum each loop."""
    if trace is None:
        trace = []
    start, fs = fs, dict(fs)
    steps = 0
    while True:
        steps += 1
        if steps > R.STEP_LIMIT:
            raise StepLimitExceeded(
                f"no fixed point after {R.STEP_LIMIT} steps for "
                f"{R.render(start)}")
        resolved = R._try_resolve(fs, sig, db, trace)
        if resolved is not None:
            if fs:
                trace.append(R.TraceStep(
                    "resolve", ("element of {}", resolved.element.table.key),
                    dict(fs), resolved.element))
            return resolved
        if R._reduce_coefficients(fs, list(fs), db, trace):
            continue
        if _rescan_apply_relations(fs, db, trace, relation_order,
                                   reverse_scan):
            continue
        break
    return R.residue(fs, sig, "no-resolution", trace)


DB = _shipped_db()


def _evaluate(text, db, **kw):
    """``evaluate``'s normal form, reason code and every step's JSON."""
    trace = []
    if kw:
        nf = R.normalize(parse(text), db, trace=trace, **kw)
    else:
        nf = W.evaluate(parse(text), db, trace=trace)
    return nf, nf.reason_code, [s.to_json() for s in trace]


def _agree(text, db=DB, **kw):
    got = _evaluate(text, db, **kw)
    with mock.patch.object(R, "normalize_fs", _rescan_normalize_fs):
        want = _evaluate(text, db, **kw)
    assert got == want, text
    return got


# the eval corpus: the scenario expressions and the Lemma 3.1 and
# Prop 3.2 brackets
BRACKETS = ["[eta_4, eta_4^2]", "[eta_4, 2 iota_4]", "[eta_4^2, 2 iota_4]",
            "[nu_4 . eta_7^2, eta_4^2]", "[Snu' . eta_7^2, eta_4^2]",
            "[nu_4^2, eta_4]", "[iota_4, iota_4]"]


def test_worklist_matches_the_rescan_on_the_eval_corpus():
    for text in SCENARIO_EXPRS + BRACKETS:
        _agree(text)


def test_worklist_matches_the_rescan_on_powers_of_a_sum():
    for k in range(1, 7):
        _agree(f"(nu_4 + Snu')^{k}")


def test_worklist_matches_the_rescan_on_power_ladders():
    for text in ["eta_4^30", "eta_7^31", "eta_12^29", "5 eta_4^17",
                 "nu'^12", "nu'^25", "Snu'^12", "Snu'^25"]:
        _agree(text)
        _agree(text, reverse_scan=True)


def test_changed_chains_are_reduced_in_the_order_of_the_sum():
    # a_2 -> 3 b_2 + 5 c_2 creates b_2 after c_2 and changes c_2, so the
    # two order-reduce steps that follow come in the order of the sum
    db = relations.load_relations_text("""
gen iota_1 dom=1 cod=S1 order=0
family iota base=1 order=0
gen a_2 dom=5 cod=S2 order=0
gen b_2 dom=5 cod=S2 order=2
gen c_2 dom=5 cod=S2 order=4
rel a_2 = 3 b_2 + 5 c_2
""")
    _, _, steps = _agree("7 c_2 + a_2", db)
    assert [(s["rule"], s["before"]) for s in steps] == [
        ("order-reduce", "7 c_2"), ("relation", "a_2"),
        ("order-reduce", "8 c_2"), ("order-reduce", "3 b_2")]


PI7 = ["nu_4", "Snu'", "alpha1(4)"]
PI10 = ["nu_4^2", "Snu' . nu_7", "nu_4 . S^3 Snu'"]


def _signed_sum(coeffs, names):
    text = ""
    for c, g in zip(coeffs, names):
        if c:
            text += f" {'-' if c < 0 else '+'} {abs(c)} ({g})"
    return text.removeprefix(" +")


@st.composite
def _sum_expressions(draw):
    """(pi_7 sum)^k, or (pi_7 sum)^a . S^3a (pi_10 sum)."""
    c7 = draw(st.lists(st.integers(-3, 3), min_size=3, max_size=3)
              .filter(any))
    base = f"({_signed_sum(c7, PI7)})"
    if draw(st.booleans()):
        return f"{base}^{draw(st.integers(1, 4))}"
    c10 = draw(st.lists(st.integers(-3, 3), min_size=3, max_size=3)
               .filter(any))
    a = draw(st.integers(1, 2))
    return f"{base}^{a} . S^{3 * a} ({_signed_sum(c10, PI10)})"


@settings(max_examples=40, deadline=None)
@given(text=_sum_expressions(),
       order=st.permutations(range(len(DB.relations))),
       reverse=st.booleans())
def test_worklist_matches_the_rescan_under_any_relation_order(text, order,
                                                                reverse):
    _agree(text, relation_order=order, reverse_scan=reverse)


# ---------------------------------------------------------------------------
# the head index


def test_every_relation_is_found_at_its_own_suspensions():
    """Sigma^k of each shipped lhs is matched at window 0 by its relation,
    which fires under its name and suspension detail; brackets do not
    suspend, so bracket heads are tried at k = 0 only."""
    kinds = set()
    for ridx, rel in enumerate(DB.relations):
        head = rel.lhs_chain.atoms[0]
        bracket = isinstance(head, R.BracketAtom)
        kinds.add("bracket" if bracket else
                  "family" if DB._family_index(head.name) else "susp_of")
        for k in range(1 if bracket else 7):
            ch = R.susp_chain(rel.lhs_chain, k, DB) if k else rel.lhs_chain
            work = R._Worklist({ch: 1}, DB, None, False)
            hit = work.first_match(ch)
            assert hit is not None and hit[1:4] == (0, rel, k), (rel.name, k)
            trace = []
            assert work.rewrite(trace)
            detail = rel.name if not k else \
                f"{rel.name} (suspended {k} step{'s' if k > 1 else ''})"
            assert [(s.rule, s.detail, s.before) for s in trace] == \
                [("relation", detail, R.render({ch: 1}))], (rel.name, k)
    assert kinds == {"bracket", "family", "susp_of"}
    assert DB.root("eta_7") == "eta_2"
    assert DB.root("Snu'") == "nu'"


def test_a_relation_needs_a_head_atom():
    with pytest.raises(RelationsFileError, match="cannot be an identity"):
        relations.load_relations_text("""
gen iota_1 dom=1 cod=S1 order=0
family iota base=1 order=0
rel iota_4 = 0
""")


# ---------------------------------------------------------------------------
# the cost of the scan


def _counting(monkeypatch):
    probes, roots = [], []
    shift, head_root = R._window_shift, relations.RelationDB.head_root

    def counting_shift(ch, i, lhs, db):
        probes.append(i)
        return shift(ch, i, lhs, db)

    def counting_root(self, atom):
        roots.append(atom)
        return head_root(self, atom)

    monkeypatch.setattr(R, "_window_shift", counting_shift)
    monkeypatch.setattr(relations.RelationDB, "head_root", counting_root)
    return probes, roots


def test_probes_grow_with_the_chains_of_a_power_of_a_sum(monkeypatch):
    probes, _ = _counting(monkeypatch)
    db = _shipped_db()
    counts = []
    for k in (6, 7):
        probes.clear()
        R.normalize(parse(f"(nu_4 + Snu')^{k}"), db)
        counts.append(len(probes))
    assert counts[1] <= 2.5 * counts[0]


def test_a_match_at_the_first_window_reads_nothing_further(monkeypatch):
    db = _shipped_db()
    probes, roots = _counting(monkeypatch)
    assert R.normalize(parse("eta_7^300"), db).fs == {}
    assert len(probes) <= 3 and len(roots) <= 3


def test_a_power_of_a_two_atom_product_takes_one_relation_step_per_factor():
    """(eta_4 . nu_5)^k is zero after exactly k + 1 relation steps.  The
    step count is pinned, not the cost: each step's scan reads the whole
    new chain, so the time grows about quadratically in k."""
    db = _shipped_db()
    for k in range(2, 41):
        nf = R.normalize(parse(f"(eta_4 . nu_5)^{k}"), db)
        assert nf.is_zero
        assert sum(step.rule == "relation" for step in nf.trace) == k + 1
