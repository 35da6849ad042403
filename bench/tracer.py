"""Spans around whiteprod's layer boundaries, recorded from outside src/.

``install`` replaces the listed functions and methods of each layer module
with wrappers.  A function bound by ``from ... import`` in another module is
replaced there too, since that is where it is looked up.  Each wrapped call
counts; each call that is not a direct recursion of the span just opened
also records a span: name, start, end, parent span and operation id.  Spans
stay in memory in flat arrays and are written out when the run ends.  A
layer's self time is its span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (module, attribute) of the wrapped functions; "Class.method" wraps a method
TARGETS = {
    "parser": ["parse"],
    "expr": ["typecheck", "expand_powers", "format_expr"],
    "relations": ["load_relations_text", "RelationDB.decl",
                  "RelationDB.susp_name", "RelationDB.desusp_name",
                  "RelationDB.table", "RelationDB.basis_chains",
                  "RelationDB.basis_lookup", "RelationDB.relation_for",
                  "RelationDB.bracket_relation", "RelationDB.order_fact"],
    "rewrite": ["normalize", "flatten", "chain_annihilator", "susp_chain",
                "render", "suspend", "smash"],
    "whitehead": ["evaluate", "bracket", "indeterminacy",
                  "lower_products_vanish", "triple_coset_constraints",
                  "whitehead_projective", "known_results"],
    "groups": ["subgroup_generated", "torsion_family", "order_of"],
    "fatwedge": ["ring", "QuotientRing.__init__", "QuotientRing.betti", "cup",
                 "retraction_obstruction", "omega_nontriviality",
                 "_basis_subsets"],
    "scenarios": ["run_scenario"],
    "cli": ["main"],
}

# span names that differ from "module.attribute"
RENAMES = {"relations.RelationDB.": "relations.",
           "fatwedge.QuotientRing.__init__": "fatwedge.QuotientRing",
           "fatwedge.QuotientRing.": "fatwedge.",
           "fatwedge._basis_subsets": "fatwedge.basis_subsets"}

LOOKUPS = ("decl", "susp_name", "desusp_name", "table", "basis_chains",
           "basis_lookup", "relation_for", "bracket_relation", "order_fact")


def span_name(module: str, attr: str) -> str:
    name = f"{module}.{attr}"
    for prefix, repl in RENAMES.items():
        if name.startswith(prefix):
            return repl + name[len(prefix):]
    return name


class Tracer:
    def __init__(self):
        self.names: list = []
        self.ids: dict = {}
        self.calls: list = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list = []
        self.stack_names: list = [-1]
        self.op_id = -1
        self.enabled = False
        # outcome counters fed by the hooks below
        self.resolved = 0
        self.chain_len_max = 0
        self.bracket_args: set = set()
        self.basis_classes = 0

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return self.ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self.stack.append(idx)
        self.stack_names.append(nid)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()
        self.stack_names.pop()

    def wrap(self, name: str, fn, before=None, after=None):
        nid = self.name_id(name)
        calls = self.calls
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            calls[nid] += 1
            if tracer.stack_names[-1] == nid:
                return fn(*args, **kwargs)  # direct recursion: one span
            state = before(args) if before is not None else None
            idx = tracer.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, out, state)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- hooks ---------------------------------------------------------------
    def _after_normalize(self, args, nf, state):
        if nf.is_resolved:
            self.resolved += 1

    def _after_flatten(self, args, fs, state):
        for ch in fs:
            if len(ch.atoms) > self.chain_len_max:
                self.chain_len_max = len(ch.atoms)

    def _before_bracket(self, args):
        self.bracket_args.add((args[0], args[1]))

    def _before_basis(self, args):
        return self._basis_fn.cache_info().misses

    def _after_basis(self, args, out, misses):
        if self._basis_fn.cache_info().misses > misses:
            self.basis_classes += len(out)

    def install(self, package: str = "whiteprod") -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        for mod_name, attrs in TARGETS.items():
            mod = sys.modules.get(f"{package}.{mod_name}")
            if mod is None:
                continue
            for attr in attrs:
                owner, _, leaf = attr.rpartition(".")
                holder = getattr(mod, owner, None) if owner else mod
                fn = getattr(holder, leaf, None) if holder is not None else None
                if fn is None:
                    continue  # the program no longer has it
                name = span_name(mod_name, attr)
                hooks = {}
                if name == "rewrite.normalize":
                    hooks["after"] = self._after_normalize
                elif name == "rewrite.flatten":
                    hooks["after"] = self._after_flatten
                elif name == "whitehead.bracket":
                    hooks["before"] = self._before_bracket
                elif name == "fatwedge.basis_subsets" and hasattr(fn, "cache_info"):
                    self._basis_fn = fn
                    hooks = {"before": self._before_basis,
                             "after": self._after_basis}
                wrapped = self.wrap(name, fn, **hooks)
                if owner:
                    setattr(holder, leaf, wrapped)
                    continue
                for m in modules:
                    for key in [k for k, v in vars(m).items() if v is fn]:
                        setattr(m, key, wrapped)

    # -- results ---------------------------------------------------------------
    def self_ns(self) -> dict:
        """Self time per span name, from the recorded spans."""
        n = len(self.name)
        child = [0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = dict.fromkeys(self.names, 0)
        names = self.names
        for i in range(n):
            out[names[self.name[i]]] += end[i] - start[i] - child[i]
        return out

    def write(self, path: str) -> None:
        """One JSON header line, then the span arrays as raw bytes."""
        header = {"names": self.names, "count": len(self.name),
                  "arrays": [["name", "i"], ["parent", "i"], ["op", "i"],
                             ["start_ns", "q"], ["end_ns", "q"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.op, self.start, self.end):
                arr.tofile(fh)


def layer_metrics(tracer: Tracer, rule_counts: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json from one traced run."""
    self_ms = {k: v / 1e6 for k, v in tracer.self_ns().items()}

    def calls(name):
        i = tracer.ids.get(name)
        return tracer.calls[i] if i is not None else 0

    def ms(name):
        return self_ms.get(name, 0.0)

    normalize_calls = calls("rewrite.normalize")
    bracket_calls = calls("whitehead.bracket")
    out = {}
    for name in ("parser.parse", "expr.format_expr", "rewrite.normalize",
                 "whitehead.evaluate", "whitehead.bracket",
                 "groups.subgroup_generated", "fatwedge.cup"):
        out[name + ".calls"] = (calls(name), "count")
    for name in ("relations.susp_name", "relations.basis_lookup",
                 "relations.order_fact", "rewrite.susp_chain"):
        out[name + ".calls"] = (calls(name), "count")
    for name in ("parser.parse", "expr.typecheck", "expr.expand_powers",
                 "expr.format_expr", "rewrite.render",
                 "relations.load_relations_text", "rewrite.normalize",
                 "rewrite.flatten", "rewrite.chain_annihilator",
                 "whitehead.evaluate", "whitehead.bracket",
                 "whitehead.indeterminacy", "whitehead.lower_products_vanish",
                 "whitehead.triple_coset_constraints",
                 "groups.subgroup_generated", "groups.torsion_family",
                 "fatwedge.QuotientRing", "fatwedge.betti", "fatwedge.cup",
                 "fatwedge.retraction_obstruction",
                 "fatwedge.omega_nontriviality", "scenarios.run_scenario",
                 "cli.main"):
        out[name + ".self_ms"] = (ms(name), "ms")
    out["relations.lookup.self_ms"] = (
        sum(ms("relations." + k) for k in LOOKUPS), "ms")
    for rule in ("relation", "order-reduce", "resolve"):
        out["rewrite.trace." + rule.replace("-", "_")] = (
            rule_counts.get(rule, 0), "count")
    for rule in ("naturality", "smash", "bilinearity", "coprime"):
        out["whitehead.trace." + rule] = (rule_counts.get(rule, 0), "count")
    out["rewrite.normalize.resolved_ratio"] = (
        tracer.resolved / normalize_calls if normalize_calls else 0.0, "ratio")
    out["rewrite.chain_len.max"] = (tracer.chain_len_max, "count")
    out["whitehead.bracket.distinct_ratio"] = (
        len(tracer.bracket_args) / bracket_calls if bracket_calls else 0.0,
        "ratio")
    out["fatwedge.basis_classes"] = (tracer.basis_classes, "count")
    return out
