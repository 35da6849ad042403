"""Relation-driven normalization of expressions into group-table elements.

Internally an expression is flattened once to a formal integer
combination of *chains*: composition strings of atoms (named generators,
symbolic suspensions of named generators, and inert Whitehead-bracket
atoms, whose two arguments are themselves nonzero formal sums).
``normalize`` typechecks and flattens; ``normalize_fs`` then loops three
phases over the formal sum to a fixed point:

  resolve    match all chains against the basis chains of the table for
             the expression's signature;
  reduce     shrink coefficients using every known annihilator of a chain
             (last-factor orders always; prefix orders across suspension
             tails; declared order facts);
  rewrite    substitute ground relations, matched up to suspension shift
             (a relation at S^n applies at S^(n+k) with every generator
             stepped along its family).

The linearity discipline follows the composition calculus for homotopy
classes: a fixed left factor is linear in the right factor, while sums
and scalar multiples may cross a right factor only when that factor is a
suspension class.  Compositions blocked by that rule come back as a
Residue, never as a silently wrong answer.  A residue is kept as its
formal sum and rendered as an expression only when shown; chains, being
frozen values, are their own dictionary keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Optional, Sequence

from . import expr as E
from .errors import (DegreeMismatch, NoSuspensionFamily, NotASuspension,
                     StepLimitExceeded)
from .groups import GroupElement, Space, sphere

STEP_LIMIT = 10_000


# ---------------------------------------------------------------------------
# atoms and chains

@dataclass(frozen=True)
class GenAtom:
    name: str
    dom: int
    cod: int
    space: Space
    order: int
    is_susp: bool

    def key(self):
        return ("g", self.name, self.dom, str(self.space))


@dataclass(frozen=True)
class SuspAtom:
    """Sigma^k of a named generator that has no named class k steps up."""

    k: int
    base: GenAtom

    @property
    def dom(self) -> int:
        return self.base.dom + self.k

    @property
    def cod(self) -> int:
        return self.base.cod + self.k

    @property
    def space(self) -> Space:
        return sphere(self.base.cod + self.k)

    @property
    def order(self) -> int:
        # order(Sigma x) divides order(x), so the base order is a valid
        # annihilator even though the true order may be smaller.
        return self.base.order

    @property
    def is_susp(self) -> bool:
        return True

    def key(self):
        return ("s", self.k) + self.base.key()


@dataclass(frozen=True)
class BracketAtom:
    """[f, g]; each side a tuple of (Chain, coeff) sorted by Chain.key."""

    left: tuple
    right: tuple

    @property
    def dom(self) -> int:
        return self.left[0][0].dom + self.right[0][0].dom - 1

    @property
    def space(self) -> Space:
        return self.left[0][0].space

    @property
    def order(self) -> int:
        return 0

    @property
    def is_susp(self) -> bool:
        return False

    def key(self):
        return ("b", tuple((ch.key(), c) for ch, c in self.left),
                tuple((ch.key(), c) for ch, c in self.right))


@dataclass(frozen=True)
class Chain:
    """A composition f1 . f2 . ... . fk; empty = the identity of S^dom."""

    atoms: tuple
    dom: int
    space: Space

    def key(self):
        """The canonical sort order of chains (equality is the dataclass's)."""
        return (str(self.space), self.dom, tuple(a.key() for a in self.atoms))

    @property
    def is_suspension_class(self) -> bool:
        return all(a.is_susp for a in self.atoms)

    @property
    def signature(self) -> E.Signature:
        return E.Signature(self.dom, self.space)

    def compose(self, other: "Chain") -> "Chain":
        if not other.space.is_sphere or other.space.n != self.dom:
            raise DegreeMismatch(
                f"chain composition mismatch: {self.dom} vs {other.space}")
        return Chain(self.atoms + other.atoms, other.dom, self.space)

    def prefix(self, i: int) -> "Chain":
        dom = self.atoms[i - 1].dom if i else self.space.n
        return Chain(self.atoms[:i], dom, self.space)

    def suffix(self, i: int) -> "Chain":
        space = sphere(self.atoms[i - 1].dom) if i else self.space
        return Chain(self.atoms[i:], self.dom, space)


def identity_chain(n: int) -> Chain:
    return Chain((), n, sphere(n))


def bracket_chain(left: dict, right: dict) -> Chain:
    """The one-atom chain [left, right] of two nonzero formal sums."""
    atom = BracketAtom(*(tuple(sorted(fs.items(), key=lambda t: t[0].key()))
                         for fs in (left, right)))
    return Chain((atom,), atom.dom, atom.space)


# ---------------------------------------------------------------------------
# formal sums  {Chain: coeff}

LINEARITY = "sum or multiple cannot cross a non-suspension right factor"


class Blocked(Exception):
    """Raised when flattening hits a non-distributable composition."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


def fs_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for ch, c in b.items():
        out[ch] = out.get(ch, 0) + c
        if out[ch] == 0:
            del out[ch]
    return out


def fs_scale(a: dict, n: int) -> dict:
    if n == 0:
        return {}
    return {ch: n * c for ch, c in a.items()}


def fs_compose(a: dict, b: dict) -> Optional[dict]:
    """Compose two formal sums; None when linearity does not license it."""
    if not a or not b:
        return {}
    unit_left = len(a) == 1 and next(iter(a.values())) == 1
    if not unit_left and not all(ch.is_suspension_class for ch in b):
        return None
    out: dict = {}
    for u, c in a.items():
        for v, d in b.items():
            w = u.compose(v)
            out[w] = out.get(w, 0) + c * d
            if out[w] == 0:
                del out[w]
    return out


def splice(ch: Chain, i: int, j: int, fs: dict) -> Optional[dict]:
    """``ch`` with atoms i..j-1 replaced by ``fs``; None when linearity blocks."""
    mid = fs if i == 0 else fs_compose({ch.prefix(i): 1}, fs)
    return fs_compose(mid, {ch.suffix(j): 1})


def susp_atom(atom, k: int, db):
    """Sigma^k of an atom; None kills the term (brackets suspend to zero)."""
    if isinstance(atom, BracketAtom):
        return None
    if isinstance(atom, SuspAtom):
        return SuspAtom(atom.k + k, atom.base)
    name = atom.name
    for step in range(k):
        nxt = db.susp_name(name)
        if nxt is None:
            return SuspAtom(k - step, _gen_atom(db, name))
        name = nxt
    return _gen_atom(db, name)


def desusp_atom(atom, db):
    """One step down, or None when the atom does not desuspend."""
    if isinstance(atom, BracketAtom):
        return None
    if isinstance(atom, SuspAtom):
        return atom.base if atom.k == 1 else SuspAtom(atom.k - 1, atom.base)
    if not atom.is_susp:
        return None
    below = db.desusp_name(atom.name)
    if below is None:
        return None
    return _gen_atom(db, below)


def _gen_atom(db, name: str) -> GenAtom:
    decl = db.decl(name)
    return GenAtom(name=decl.name, dom=decl.source_dim, cod=decl.target.n,
                   space=decl.target, order=decl.order,
                   is_susp=decl.is_suspension)


def susp_chain(ch: Chain, k: int, db) -> Optional[Chain]:
    atoms = []
    for a in ch.atoms:
        s = susp_atom(a, k, db)
        if s is None:
            return None
        atoms.append(s)
    return Chain(tuple(atoms), ch.dom + k, sphere(ch.space.n + k))


def fs_susp(a: dict, k: int, db) -> dict:
    out: dict = {}
    for ch, c in a.items():
        s = susp_chain(ch, k, db)
        if s is None:
            continue  # suspensions of brackets vanish
        out[s] = out.get(s, 0) + c
        if out[s] == 0:
            del out[s]
    return out


def smash_fs(a: dict, b: dict, q: int, p_src: int, db) -> dict:
    """a ^ b as S^q a . S^{p'} b, for a: S^{p'} -> S^p and b: S^{q'} -> S^q;
    smash-coordinate signs are fixed to +, the database-wide convention."""
    return fs_compose(fs_susp(a, q, db), fs_susp(b, p_src, db))


# ---------------------------------------------------------------------------
# flattening expressions

def flatten(e: E.Expr, db) -> dict:
    """Expr -> formal sum, expanding powers (their one expansion);
    raises Blocked on non-distributable shapes."""
    if isinstance(e, E.Gen):
        decl = db.decl(e.name)
        if decl is None:
            from .errors import UnknownGenerator
            raise UnknownGenerator(f"undeclared generator {e.name!r}")
        if decl.target.is_sphere and decl.source_dim == decl.target.n:
            return {identity_chain(decl.source_dim): 1}
        atom = _gen_atom(db, e.name)
        return {Chain((atom,), atom.dom, atom.space): 1}
    if isinstance(e, E.Compose):
        factors = E.compose_factors(e)
        out = flatten(factors[0], db)
        for g in factors[1:]:
            out = fs_compose(out, flatten(g, db))
            if out is None:
                raise Blocked(LINEARITY)
        return out
    if isinstance(e, E.Susp):
        return fs_susp(flatten(e.e, db), e.count, db)
    if isinstance(e, E.Sum):
        out: dict = {}
        for t in e.terms:
            out = fs_add(out, flatten(t, db))
        return out
    if isinstance(e, E.Scalar):
        return fs_scale(flatten(e.e, db), e.n)
    if isinstance(e, E.Bracket):
        fl, fr = flatten(e.f, db), flatten(e.g, db)
        if not fl or not fr:
            return {}  # a bracket with a constant factor is trivial
        return {bracket_chain(fl, fr): 1}
    if isinstance(e, E.HigherBracket):
        raise Blocked("higher products are set-valued; use the product operations")
    if isinstance(e, E.Power):
        return flatten(E.expand_powers(e, db), db)
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# rendering back to expressions

def atom_to_expr(a) -> E.Expr:
    if isinstance(a, GenAtom):
        return E.gen(a.name)
    if isinstance(a, SuspAtom):
        return E.Susp(a.k, E.gen(a.base.name))
    if isinstance(a, BracketAtom):
        return E.Bracket(unflatten(dict(a.left)), unflatten(dict(a.right)))
    raise TypeError(a)


def chain_to_expr(ch: Chain) -> E.Expr:
    if not ch.atoms:
        return E.gen(f"iota_{ch.dom}")
    return E.compose(*(atom_to_expr(a) for a in ch.atoms))


def unflatten(fs: dict) -> E.Expr:
    if not fs:
        return E.ZERO
    terms = []
    for ch in sorted(fs, key=Chain.key):
        c = fs[ch]
        body = chain_to_expr(ch)
        terms.append(body if c == 1 else E.Scalar(c, body))
    return terms[0] if len(terms) == 1 else E.Sum(tuple(terms))


def render(fs: dict) -> str:
    return E.format_expr(unflatten(fs))


# ---------------------------------------------------------------------------
# normal forms and traces

@dataclass
class TraceStep:
    rule: str
    detail: str
    before: str
    after: str
    provenance: str = ""

    def to_json(self) -> dict:
        return {"rule": self.rule, "detail": self.detail,
                "before": self.before, "after": self.after,
                "provenance": self.provenance}


@dataclass
class NormalForm:
    """A resolved form is zero exactly when ``fs`` is empty; its element
    is None only when its signature has no table.  A residue keeps its
    formal sum ``fs`` and renders ``expr`` from it when read; only a
    residue whose flattening was blocked (``fs`` None) stores the input
    expression, its one form."""

    status: str  # "resolved" | "residue"
    signature: Optional[E.Signature]
    element: Optional[GroupElement] = None
    _expr: Optional[E.Expr] = None
    reason: Optional[str] = field(default=None, compare=False)
    trace: list = field(default_factory=list, compare=False)
    fs: Optional[dict] = None

    @property
    def is_resolved(self) -> bool:
        return self.status == "resolved"

    @property
    def is_zero(self) -> bool:
        return self.is_resolved and not self.fs

    @property
    def expr(self) -> Optional[E.Expr]:
        if self.is_resolved or self.fs is None:
            return self._expr
        return unflatten(self.fs)

    def display(self) -> str:
        if self.is_resolved:
            return "0" if self.element is None else str(self.element)
        return E.format_expr(self.expr)

    def to_json(self) -> dict:
        out = {"status": self.status,
               "signature": str(self.signature) if self.signature else None,
               "display": self.display()}
        if self.is_resolved:
            out["zero"] = self.is_zero
            if self.element is not None:
                out["element"] = self.element.to_json()
        else:
            out["reason"] = self.reason
        return out


def residue(fs: dict, sig: Optional[E.Signature], reason: str,
            trace: list) -> NormalForm:
    return NormalForm("residue", sig, reason=reason, trace=trace, fs=fs)


def zero_form(sig: Optional[E.Signature], db, trace: list) -> NormalForm:
    """Resolved zero, carrying the table's zero when the signature has one."""
    table = db.table(sig.target, sig.source_dim) if sig is not None else None
    return NormalForm("resolved", sig, element=table.zero() if table else None,
                      trace=trace, fs={})


# ---------------------------------------------------------------------------
# the rewriting loop

def _annihilator_moduli(ch: Chain, db) -> list:
    """Known positive integers m with m * [ch] = 0."""
    moduli = []
    atoms = ch.atoms
    n = len(atoms)
    if n == 0:
        return moduli
    # a scalar always moves into any suffix: use declared order facts and
    # the last factor's own order
    last = atoms[-1]
    if last.order:
        moduli.append(last.order)
    for j in range(n):
        fact = db.order_fact(ch.suffix(j))
        if fact is not None:
            moduli.append(fact)
    # across an all-suspension tail the scalar also moves onto a prefix
    for i in range(1, n):
        if all(a.is_susp for a in atoms[i:]):
            if i == 1 and atoms[0].order:
                moduli.append(atoms[0].order)
            fact = db.order_fact(ch.prefix(i))
            if fact is not None:
                moduli.append(fact)
    # table basis chains carry their table order
    hit = db.basis_lookup(ch)
    if hit is not None:
        table, idx = hit
        if table.orders[idx]:
            moduli.append(table.orders[idx])
    return moduli


def chain_annihilator(ch: Chain, db) -> int:
    """gcd of all known annihilators (0 when none is known)."""
    g = 0
    for m in _annihilator_moduli(ch, db):
        g = gcd(g, m)
    return g


def _try_resolve(fs: dict, sig: Optional[E.Signature], db, trace):
    table = db.table(sig.target, sig.source_dim) if sig is not None else None
    if not fs or (table is not None and not table.gens and table.is_full):
        return zero_form(sig, db, trace)
    if table is None:
        return None
    coeffs = [0] * table.rank()
    for ch, c in fs.items():
        hit = db.basis_lookup(ch)
        if hit is None or hit[0] is not table:
            return None
        coeffs[hit[1]] += c
    elt = table.element(coeffs)
    return NormalForm("resolved", sig, element=elt, trace=trace,
                      fs={db.basis_chains(table.key)[i]: c
                          for i, c in enumerate(elt.coeffs) if c})


def _reduce_coefficients(fs: dict, db, trace) -> bool:
    changed = False
    for ch in list(fs):
        c = fs[ch]
        g = chain_annihilator(ch, db)
        if g == 0:
            continue
        c2 = c % g
        if c2 != c:
            before = render({ch: c})
            if c2:
                fs[ch] = c2
            else:
                del fs[ch]
            trace.append(TraceStep(
                "order-reduce",
                f"coefficient {c} = {c2} (mod {g}) on {render({ch: 1})}",
                before, render({ch: c2} if c2 else {})))
            changed = True
    return changed


def _window_cod(ch: Chain, i: int) -> Space:
    return ch.space if i == 0 else sphere(ch.atoms[i - 1].dom)


def _apply_relations(fs: dict, db, trace, relation_order, reverse_scan) -> bool:
    relations = db.relations
    order = relation_order if relation_order is not None else range(len(relations))
    for ridx in order:
        rel = relations[ridx]
        m = len(rel.lhs_chain.atoms)
        for ch in sorted(fs, key=Chain.key):
            n = len(ch.atoms)
            if n < m:
                continue
            starts = range(n - m, -1, -1) if reverse_scan else range(n - m + 1)
            for i in starts:
                cod = _window_cod(ch, i)
                if not cod.is_sphere or not rel.lhs_chain.space.is_sphere:
                    if cod != rel.lhs_chain.space:
                        continue
                k = cod.n - rel.lhs_chain.space.n
                if k < 0:
                    continue
                shifted = rel.lhs_chain if k == 0 else susp_chain(rel.lhs_chain, k, db)
                if shifted is None or shifted.atoms != ch.atoms[i:i + m]:
                    continue
                rhs = rel.rhs_fs if k == 0 else fs_susp(rel.rhs_fs, k, db)
                replaced = splice(ch, i, i + m, rhs)
                if replaced is None:
                    continue
                c = fs.pop(ch)
                before = render({ch: c})
                for w, d in fs_scale(replaced, c).items():
                    fs[w] = fs.get(w, 0) + d
                    if fs[w] == 0:
                        del fs[w]
                shift_note = f" (suspended {k} step{'s' if k != 1 else ''})" if k else ""
                trace.append(TraceStep(
                    "relation", f"{rel.name}{shift_note}", before,
                    render(fs_scale(replaced, c)), rel.provenance))
                return True
    return False


def normalize(e: E.Expr, db, *, sig_hint: Optional[E.Signature] = None,
              relation_order: Optional[Sequence[int]] = None,
              reverse_scan: bool = False,
              trace: Optional[list] = None) -> NormalForm:
    """Rewrite ``e`` to a table element or a maximally simplified residue."""
    if trace is None:
        trace = []
    sig = E.typecheck(e, db)
    if sig is None:
        sig = sig_hint
    try:
        fs = flatten(e, db)
    except Blocked as b:
        return NormalForm("residue", sig, _expr=E.expand_powers(e, db),
                          reason=b.reason, trace=trace)
    return normalize_fs(fs, sig, db, relation_order=relation_order,
                        reverse_scan=reverse_scan, trace=trace)


def normalize_fs(fs: dict, sig: Optional[E.Signature], db, *,
                 relation_order: Optional[Sequence[int]] = None,
                 reverse_scan: bool = False,
                 trace: Optional[list] = None) -> NormalForm:
    """Run the resolve/reduce/rewrite loop on a formal sum of signature
    ``sig``; ``fs`` itself is left unchanged."""
    if trace is None:
        trace = []
    start, fs = fs, dict(fs)
    steps = 0
    while True:
        steps += 1
        if steps > STEP_LIMIT:
            raise StepLimitExceeded(
                f"no fixed point after {STEP_LIMIT} steps for {render(start)}")
        resolved = _try_resolve(fs, sig, db, trace)
        if resolved is not None:
            if fs:
                trace.append(TraceStep(
                    "resolve", f"element of {resolved.element.table.key}",
                    render(fs), resolved.display()))
            return resolved
        if _reduce_coefficients(fs, db, trace):
            continue
        if _apply_relations(fs, db, trace, relation_order, reverse_scan):
            continue
        break
    return residue(fs, sig, "no table or relation resolves the remaining chains",
                   trace)


# ---------------------------------------------------------------------------
# suspension and smash as expression-level operations

def suspend(e: E.Expr, k: int, db) -> E.Expr:
    """Shift every generator k steps along its suspension family.

    Distributes over sums and compositions and annihilates brackets.
    Raises NoSuspensionFamily when a generator has no declared class one
    step up (e.g. anything above a named suspension like Snu').
    """
    if k < 1:
        raise DegreeMismatch("suspension count must be positive")
    e = E.expand_powers(e, db)
    sig = E.typecheck(e, db)
    if sig is not None and not sig.target.is_sphere:
        raise DegreeMismatch("suspension needs a sphere target")
    return _susp_ast(e, k, db)


def _susp_ast(e: E.Expr, k: int, db) -> E.Expr:
    if isinstance(e, E.Gen):
        decl = db.decl(e.name)
        if decl.target.is_sphere and decl.source_dim == decl.target.n:
            return E.gen(f"iota_{decl.source_dim + k}")
        name = e.name
        for _ in range(k):
            nxt = db.susp_name(name)
            if nxt is None:
                raise NoSuspensionFamily(
                    f"{name!r} has no declared suspension")
            name = nxt
        return E.gen(name)
    if isinstance(e, E.Compose):
        return E.Compose(_susp_ast(e.f, k, db), _susp_ast(e.g, k, db))
    if isinstance(e, E.Susp):
        return E.Susp(e.count + k, e.e)
    if isinstance(e, E.Sum):
        return E.Sum(tuple(_susp_ast(t, k, db) for t in e.terms))
    if isinstance(e, E.Scalar):
        return E.Scalar(e.n, _susp_ast(e.e, k, db))
    if isinstance(e, (E.Bracket, E.HigherBracket)):
        return E.ZERO  # one suspension kills any Whitehead product
    raise TypeError(f"not an expression: {e!r}")


def smash(a: E.Expr, b: E.Expr, db) -> E.Expr:
    """Realize a ^ b as S^q a . S^{p'} b for a: S^{p'}->S^p, b: S^{q'}->S^q."""
    sa, sb = E.typecheck(a, db), E.typecheck(b, db)
    if sa is None or sb is None:
        return E.ZERO
    if not (sa.target.is_sphere and sb.target.is_sphere):
        raise DegreeMismatch("smash realization needs sphere factors")
    try:
        fa, fb = flatten(a, db), flatten(b, db)
        ok = all(ch.is_suspension_class for ch in (*fa, *fb))
    except Blocked:
        ok = False
    if not ok:
        raise NotASuspension("smash factors must be suspension classes")
    return unflatten(smash_fs(fa, fb, sb.target.n, sa.source_dim, db))
