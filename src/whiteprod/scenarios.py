"""Named end-to-end scenarios with pinned expectations.

Expected values live in ``data/scenarios.json`` together with provenance
tags, so the acceptance surface is data rather than code.  A scenario
passes iff every pinned key matches the computed value exactly.
``run_scenarios`` reads and parses that file once for all the scenarios
it runs; ``run_scenario`` runs one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

from . import expr as E
from . import fatwedge as F
from . import whitehead as W
from .errors import UnknownScenario
from .parser import parse


def _fixtures() -> dict:
    ref = resources.files("whiteprod").joinpath("data/scenarios.json")
    return json.loads(ref.read_text(encoding="utf-8"))


@dataclass(eq=False, repr=False)
class ScenarioResult:
    """A scenario's computed and expected values; read through ``to_json``."""

    name: str
    passed: bool
    computed: dict
    expected: dict
    provenance: str
    mismatches: list = field(default_factory=list)
    trace: list = field(default_factory=list)

    def to_json(self, with_trace: bool = False) -> dict:
        out = {"name": self.name,
               "status": "pass" if self.passed else "fail",
               "computed": self.computed,
               "expected": self.expected,
               "provenance": self.provenance}
        if self.mismatches:
            out["mismatches"] = self.mismatches
        if with_trace:
            out["trace"] = [s.to_json() for s in self.trace]
        return out


def _trace_markers(trace) -> list:
    markers = []
    for step in trace:
        if step.rule == "relation":
            markers.append(step.provenance.split(":")[0].strip()
                           or step.detail)
        elif step.rule in ("naturality", "smash", "order-reduce",
                           "bilinearity", "coprime"):
            markers.append(step.rule)
    return markers


def _run_lemma_31(db, trace):
    computed = {}
    scalar_moves = []
    for text in ["[eta_4, 2 iota_4]", "[eta_4^2, 2 iota_4]"]:
        tr = []
        nf = W.evaluate(parse(text), db, trace=tr)
        computed[text] = nf.display()
        scalar_moves.extend(m for m in _trace_markers(tr) if m == "bilinearity")
        trace.extend(tr)
    tr = []
    nf = W.evaluate(parse("[eta_4, eta_4^2]"), db, trace=tr)
    computed["[eta_4, eta_4^2]"] = nf.display()
    computed["chain"] = _trace_markers(tr)
    computed["scalar_moves"] = scalar_moves
    trace.extend(tr)
    return computed


def _run_prop_32(db, trace):
    computed = {"pi9_brackets": {}, "pi10_brackets": {}}
    for gamma in ["nu_4 . eta_7^2", "Snu' . eta_7^2"]:
        nf = W.bracket(parse(gamma), parse("eta_4^2"), db, trace=trace)
        computed["pi9_brackets"][gamma] = nf.display()
    nf = W.bracket(parse("nu_4^2"), parse("eta_4"), db, trace=trace)
    computed["pi10_brackets"]["nu_4^2"] = nf.display()

    spec = W.product_spec(parse("eta_4"), parse("eta_4^2"), parse("2 iota_4"))
    J = W.indeterminacy(spec, db)
    computed["J_order"] = J.order if J.order != float("inf") else "infinite"
    computed["J_basis"] = [str(g) for g in J.canonical_basis]
    status = W.triple_coset_constraints(spec, db)
    computed["status"] = status.kind
    computed["constraints_include"] = [
        c for c in status.constraints
        if c in ("2*alpha in J", "30*alpha = 0")]
    computed["killed"] = [
        c.split(":", 1)[1].split("excluded")[0].strip()
        for c in status.constraints if c.startswith("suspension-kill:")]
    computed["candidates"] = sorted(str(c) for c in status.candidates or [])
    return computed


def _run_s2_empty(db, trace):
    spec = W.product_spec(parse("0 iota_2"), parse("iota_2"), parse("iota_2"))
    status = W.lower_products_vanish(spec, db, trace=trace)
    return {"kind": status.kind,
            "witness_pair": list(status.witness["pair"]) if status.witness else None,
            "witness_bracket": status.witness.get("bracket") if status.witness else None,
            "witness_value": status.witness.get("value") if status.witness else None}


def _run_rp2(db, trace):
    nf = W.whitehead_projective(parse("iota_2"), None, 2, 2, db, trace=trace)
    odd = all(
        W.whitehead_projective(f, parse("0 iota_2"), n, k, db).is_zero
        for f, n, k in [(parse("nu'"), 3, 6), (parse("iota_5"), 5, 5)])
    status = W.known_results(db, "rp2")
    sub = status.subgroup
    two_gamma = nf.element.table.element((2,))
    gamma = nf.element.table.element((1,))
    return {"bracket_with_bottom_cell": nf.display(),
            "odd_n_vanishing": odd,
            "index_two_subgroup": (two_gamma in sub) and (gamma not in sub),
            "notes_include": next((n for n in status.notes
                                   if n.startswith("2 pi_2")), None)}


def _run_cp_r(db, trace):
    return {f"r{r}": str(W.known_results(db, "cp", r=r)) for r in (2, 3, 4, 5)}


def _run_hp_empty(db, trace):
    status = W.known_results(db, "hp", r=3)
    value_nf = W.bracket(E.gen("iota_4"), E.gen("iota_4"), db, trace=trace)
    return {"kind": status.kind,
            "witness_value": status.witness["value"],
            "witness_nonzero": not value_nf.is_zero,
            "ambient": status.witness["ambient"]}


def _run_prop_52(db, trace):
    w4 = F.retraction_obstruction(F.sphere_tuple(2, 2, 2, 2))
    w3 = F.retraction_obstruction(F.sphere_tuple(2, 2, 2))
    return {"r4": w4.to_json() if w4 else None,
            "r3": w3.to_json() if w3 else None}


def _run_omega_remark(db, trace):
    out = {}
    for r in (2, 3, 4, 5):
        w = F.omega_nontriviality(F.sphere_tuple(*([2] * r)))
        out[f"r{r}"] = {"left": list(w.left), "right": list(w.right)}
    return out


def _run_permutation_sign(db, trace):
    spec = W.product_spec(parse("eta_4"), parse("eta_4"), parse("2 iota_4"))
    _, s_id = W.permutation_pullback(spec, (1, 2, 3))
    _, s_swap = W.permutation_pullback(spec, (2, 1, 3))
    _, s_cycle = W.permutation_pullback(spec, (2, 3, 1))
    # [g, f] = (-1)^{pq} [f, g]; for p = q = 5 the sign is the swap's -1
    fwd = W.bracket(parse("eta_4"), parse("eta_4^2"), db)
    rev = W.bracket(parse("eta_4^2"), parse("eta_4"), db)
    self_fwd = W.bracket(parse("eta_4"), parse("eta_4"), db, trace=trace)
    consistent = (fwd.is_resolved and rev.is_resolved
                  and self_fwd.is_resolved and not self_fwd.is_zero
                  and self_fwd.element == self_fwd.element.scale(-1)
                  and fwd.is_zero == rev.is_zero)
    perm2, sgn2 = W.permutation_pullback(spec, (2, 1, 3))
    perm3, sgn3 = W.permutation_pullback(perm2, (3, 1, 2))
    direct, sgn_direct = W.permutation_pullback(spec, (3, 2, 1))
    multiplicative = (perm3.factors == direct.factors
                      and sgn2 * sgn3 == sgn_direct)
    return {"identity": s_id, "swap": s_swap, "three_cycle": s_cycle,
            "bracket_consistent": consistent,
            "composition_multiplicative": multiplicative}


_RUNNERS = {
    "lemma-3.1": _run_lemma_31,
    "prop-3.2": _run_prop_32,
    "s2-empty": _run_s2_empty,
    "rp2": _run_rp2,
    "cp-r": _run_cp_r,
    "hp-empty": _run_hp_empty,
    "prop-5.2": _run_prop_52,
    "omega-remark": _run_omega_remark,
    "permutation-sign": _run_permutation_sign,
}


def scenario_names() -> list:
    return list(_RUNNERS)


def run_scenario(db, name: str) -> ScenarioResult:
    return run_scenarios(db, [name])[0]


def run_scenarios(db, names) -> list:
    """The results of the named scenarios, in order, all checked against
    one read of the fixture file."""
    for name in names:
        if name not in _RUNNERS:
            raise UnknownScenario(
                f"unknown scenario {name!r}; available: {', '.join(_RUNNERS)}")
    fixtures = _fixtures()
    return [_run(db, name, fixtures[name]) for name in names]


def _run(db, name: str, fixture: dict) -> ScenarioResult:
    expected = fixture["expect"]
    trace: list = []
    computed = _RUNNERS[name](db, trace)
    mismatches = []
    for key, want in expected.items():
        got = computed.get(key)
        if got != want:
            mismatches.append({"key": key, "expected": want, "computed": got})
    return ScenarioResult(name=name, passed=not mismatches,
                          computed=computed, expected=expected,
                          provenance=fixture.get("provenance", ""),
                          mismatches=mismatches, trace=trace)
