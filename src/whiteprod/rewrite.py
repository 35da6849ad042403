"""Relation-driven normalization of expressions into group-table elements.

Internally an expression is flattened once to a formal integer
combination of *chains*: composition strings of atoms.  A generator atom
is Sigma^k of a declared generator, k counting every suspension above it
(eta_7 is Sigma^5 eta_2: suspending and desuspending change only k); a
bracket atom is inert, its two arguments nonzero formal sums.  ``normalize``
typechecks and flattens; ``normalize_fs`` then loops three phases over
the formal sum to a fixed point:

  resolve    match all chains against the basis chains of the table for
             the expression's signature;
  reduce     shrink coefficients using every known annihilator of a chain
             (last-factor orders always; prefix orders across suspension
             tails; declared order facts);
  rewrite    substitute ground relations, matched up to suspension shift
             (a relation at S^n applies at S^(n+k) with every generator
             stepped along its family).

Each phase costs O(n) for a formal sum of n atoms in all, the database
(its relations, their lengths, its susp_of links) held fixed; after a
substitution, reduce and rewrite revisit only the chains it created or
changed (see ``_Worklist``):

  flatten    a generator name is one memo hit on the database, which
             keeps the chain the name flattens to, hashed once;
             a composition folds left to right; while the product is a
             single term it gathers its atoms in one list and builds its
             chain once (a product of sums folds pairwise); x^k, which
             means x . S^d x . ... . S^((k-1)d) x, is built without that
             expression: x is flattened once, and a one-term x = c u has
             the atoms of each S^(jd) u appended to one list, one chain in
             all (a sum folds its suspended copies pairwise); Sigma^j of
             an atom adds j to its shift, so each copy costs O(x) and
             builds no name; only explicit susp_of links are walked;
             no formal sum flattening builds (a power, a composition, a
             sum) may hold more than FLATTEN_LIMIT atoms, checked step by
             step as it grows, and for a one-term power before its atom
             list is allocated;
  resolve    one basis lookup per chain; a chain hashes its atoms once
             and keeps the hash;
  reduce     per chain created or changed, the last factor's and the
             basis order and one order-fact probe per chain length that
             holds order facts;
  rewrite    per chain, once, when it enters the sum: per window, one
             memoised root lookup, then one probe (an atom-by-atom
             comparison with the suspended lhs, stopping at a mismatch) of
             each relation whose lhs head has that root and ranks below
             the chain's best match so far; the scan stops at a match of
             the first-ranked relation.  The next match pops from a heap
             ordered by (rank, Chain.key), a key built only when two
             entries tie on rank, and once per entry; a one-term
             substitution builds its chain in one concatenation.

The linearity discipline follows the composition calculus for homotopy
classes: a fixed left factor is linear in the right factor, while sums
and scalar multiples may cross a right factor only when that factor is a
suspension class.  Compositions blocked by that rule come back as a
Residue, never as a silently wrong answer.  A residue is kept as its
formal sum and rendered as an expression only when shown.  Atoms and
chains are their own dictionary keys: they are not frozen, for cheaper
constructors, but no field of theirs is assigned after construction (a
chain's cached hash aside), which ``tests/test_value_types.py`` checks.

Trace rendering costs nothing until a trace is read: a ``TraceStep``
stores the chains, formal sums and integers its rule acted on, and a
residue stores a reason code and its arguments; both render through
``show`` (and so through ``render``) only when their text is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import count
from math import gcd
from typing import Optional, Sequence, get_args

from . import expr as E
from .errors import (DegreeMismatch, FlattenLimitExceeded, NoSuspensionFamily,
                     NotASuspension, StepLimitExceeded, UnknownGenerator)
from .groups import GeneratorDecl, GroupElement, Space, sphere
from .names import join_name

STEP_LIMIT = 10_000
FLATTEN_LIMIT = 200_000  # atoms in one formal sum built by ``flatten``


# ---------------------------------------------------------------------------
# atoms and chains

@dataclass(slots=True, unsafe_hash=True)
class GenAtom:
    """Sigma^k of a declared generator: equal and hashed by (name, k),
    shown and sorted by ``shown``; everything else is read from the
    declaration, except ``is_susp``, which is stored when the atom is made.
    Not frozen, for a cheaper constructor, but never assigned after it:
    ``tests/test_value_types.py`` checks the source for that."""

    name: str
    k: int
    decl: GeneratorDecl = field(compare=False, repr=False)
    is_susp: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self.is_susp = self.k > 0 or self.decl.is_suspension

    @property
    def dom(self) -> int:
        return self.decl.source_dim + self.k

    @property
    def space(self) -> Space:
        return sphere(self.decl.target.n + self.k) if self.k else self.decl.target

    @property
    def order(self) -> int:
        # a family member's own order; else order(Sigma x) divides order(x),
        # so the declared order annihilates even where the true one is less
        fam = self.decl.family
        if fam is None or not self.k:
            return self.decl.order
        return fam.orders.get(fam.base + self.k, fam.default_order)

    def shown(self) -> tuple:
        """(name, k) as written: a family member by its own name."""
        fam = self.decl.family
        if fam is None or not self.k:
            return self.name, self.k
        return join_name(fam.name, fam.base + self.k, fam.style), 0

    def key(self):
        name, k = self.shown()
        return ("g", name) if not k else ("s", k, "g", name)


@dataclass(unsafe_hash=True)
class BracketAtom:
    """[f, g]; each side a tuple of (Chain, coeff) sorted by Chain.key.
    Never assigned after construction (``tests/test_value_types.py``); its
    repr is part of its chain's."""

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

    is_susp = False  # a class attribute, not a field

    def key(self):
        return ("b", tuple([(ch.key(), c) for ch, c in self.left]),
                tuple([(ch.key(), c) for ch, c in self.right]))


@dataclass(slots=True)
class Chain:
    """A composition f1 . f2 . ... . fk; empty = the identity of S^dom.
    Its hash walks the atoms once, on first use, and is kept in ``_hash``.
    Not frozen, for a cheaper constructor, but no field is assigned after
    it, ``_hash`` aside: ``tests/test_value_types.py`` checks the source
    for that."""

    atoms: tuple
    dom: int
    space: Space
    _hash: Optional[int] = field(default=None, init=False, compare=False,
                                 repr=False)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.atoms, self.dom, self.space))
        return self._hash

    def key(self):
        """The canonical sort order of chains (equality is the dataclass's).
        Keys are built from lists: ``tuple`` of a generator allocates at a
        length hint and frees at the final size, which strands tuples on
        the interpreter's free lists."""
        return (str(self.space), self.dom, tuple([a.key() for a in self.atoms]))

    @property
    def is_suspension_class(self) -> bool:
        return all(a.is_susp for a in self.atoms)

    @property
    def signature(self) -> E.Signature:
        return E.Signature(self.dom, self.space)

    def compose(self, other: "Chain") -> "Chain":
        _check_composable(self.dom, other.space)
        return Chain(self.atoms + other.atoms, other.dom, self.space)

    def prefix(self, i: int) -> "Chain":
        dom = self.atoms[i - 1].dom if i else self.space.n
        return Chain(self.atoms[:i], dom, self.space)

    def suffix(self, i: int) -> "Chain":
        space = sphere(self.atoms[i - 1].dom) if i else self.space
        return Chain(self.atoms[i:], self.dom, space)


def _check_composable(dom: int, space: Space):
    """A chain from S^dom composes with a chain into ``space``."""
    if not space.is_sphere or space.n != dom:
        raise DegreeMismatch(f"chain composition mismatch: {dom} vs {space}")


def identity_chain(n: int) -> Chain:
    return Chain((), n, sphere(n))


def bracket_chain(left: dict, right: dict) -> Chain:
    """The one-atom chain [left, right] of two nonzero formal sums."""
    atom = BracketAtom(*(tuple(sorted(fs.items(), key=lambda t: t[0].key()))
                         for fs in (left, right)))
    return Chain((atom,), atom.dom, atom.space)


# ---------------------------------------------------------------------------
# formal sums  {Chain: coeff}

# why a form stays a residue: a stable code and its message, whose slots
# the residue's arguments fill when the message is read
REASONS = {
    "no-resolution": "no table or relation resolves the remaining chains",
    "blocked-linearity":
        "sum or multiple cannot cross a non-suspension right factor",
    "higher-product":
        "higher products are set-valued; use the product operations",
    "bracket-args": "bracket arguments do not normalize to chains",
    "no-rule": "no rule applies to [{}, {}]",
}


class Blocked(Exception):
    """Raised when flattening hits a non-distributable composition;
    ``code`` is a key of REASONS."""

    def __init__(self, code: str):
        self.code = code
        self.reason = REASONS[code]
        super().__init__(self.reason)


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


def _licensed(unit_left: bool, b: dict) -> bool:
    """The linearity rule: a left factor composes with ``b`` when it is one
    chain with coefficient 1, or when every chain of ``b`` is a suspension."""
    return unit_left or all(ch.is_suspension_class for ch in b)


def fs_compose(a: dict, b: dict) -> Optional[dict]:
    """Compose two formal sums; None when linearity does not license it."""
    if not a or not b:
        return {}
    if not _licensed(len(a) == 1 and next(iter(a.values())) == 1, b):
        return None
    out: dict = {}
    for u, c in a.items():
        for v, d in b.items():
            w = u.compose(v)
            out[w] = out.get(w, 0) + c * d
            if out[w] == 0:
                del out[w]
    return out


def fs_size(a: dict) -> int:
    """The atoms of a formal sum, each bracket counted as one."""
    return sum(len(ch.atoms) for ch in a)


def _check_size(n: int):
    """Raise before a formal sum of ``n`` atoms is built past the limit."""
    if n > FLATTEN_LIMIT:
        raise FlattenLimitExceeded(
            f"a formal sum of {n} atoms exceeds FLATTEN_LIMIT = "
            f"{FLATTEN_LIMIT} atoms")


def fs_compose_all(factors) -> Optional[dict]:
    """``fs_compose`` folded left to right over an iterable of formal sums,
    read one at a time; None as soon as linearity blocks a step.  While
    the product is a single term its atoms are gathered in one list, so
    its chain is built and hashed once, not once per prefix.  Each step
    first checks the atoms it would build against FLATTEN_LIMIT."""
    it = iter(factors)
    out = next(it)
    atoms = None  # a single-term product's atoms, with dom, coeff and space
    for b in it:
        if atoms is None and len(out) == 1 and len(b) == 1:
            (u, c), = out.items()
            atoms, dom, coeff, space = list(u.atoms), u.dom, c, u.space
        if atoms is not None:
            if len(b) == 1 and _licensed(coeff == 1, b):
                (v, d), = b.items()
                _check_composable(dom, v.space)
                _check_size(len(atoms) + len(v.atoms))
                atoms.extend(v.atoms)
                dom, coeff = v.dom, coeff * d
                continue
            out, atoms = {Chain(tuple(atoms), dom, space): coeff}, None
        _check_size(len(b) * fs_size(out) + len(out) * fs_size(b))
        out = fs_compose(out, b)
        if out is None:
            return None
    if atoms is not None:
        out = {Chain(tuple(atoms), dom, space): coeff}
    return out


def fs_power(x: dict, k: int, d: int, db) -> Optional[dict]:
    """x^k = x . S^d x . ... . S^((k-1)d) x for x of stem d: the sum
    ``fs_compose_all`` gives for those k factors, None when it blocks.
    A sum x folds its copies; a one-term x = c u appends the atoms of
    each S^(jd) u to one list, with the checks ``fs_compose_all`` makes
    per factor (linearity, then degrees, which depend on j not at all),
    so the coefficient is c^k; its size k |u| is checked before the list
    is allocated."""
    if len(x) != 1:
        return fs_compose_all(fs_susp(x, j * d, db) if j else x
                              for j in range(k))
    (u, c), = x.items()
    unit = u.atoms
    _check_size(k * len(unit))
    atoms, coeff = list(unit), c
    for j in range(1, k):
        start = len(atoms)
        for a in unit:
            s = susp_atom(a, j * d, db)
            if s is None:
                return {}  # suspensions of brackets vanish
            atoms.append(s)
        if coeff != 1 and not all(atoms[t].is_susp
                                  for t in range(start, len(atoms))):
            return None
        if j == 1:  # later copies compose exactly when the first does
            _check_composable(u.dom, sphere(u.space.n + d))
        coeff *= c
    return {Chain(tuple(atoms), u.dom + (k - 1) * d, u.space): coeff}


def splice(ch: Chain, i: int, j: int, fs: dict) -> Optional[dict]:
    """``ch`` with atoms i..j-1 replaced by ``fs``; None when linearity
    blocks.  A one-term ``fs`` makes its chain in one concatenation, with
    the checks of composing prefix, ``fs`` and suffix in that order."""
    if len(fs) != 1:
        mid = fs if i == 0 else fs_compose({ch.prefix(i): 1}, fs)
        return fs_compose(mid, {ch.suffix(j): 1})
    (v, c), = fs.items()
    atoms = ch.atoms
    if i:
        _check_composable(atoms[i - 1].dom, v.space)
    if c != 1 and not all(atoms[t].is_susp for t in range(j, len(atoms))):
        return None
    _check_composable(v.dom, sphere(atoms[j - 1].dom) if j else ch.space)
    return {Chain(atoms[:i] + v.atoms + atoms[j:], ch.dom,
                  ch.space if i else v.space): c}


def susp_atom(atom, k: int, db):
    """Sigma^k of an atom; None kills the term (brackets suspend to zero).
    Only an unsuspended atom outside every family asks the database,
    which follows its explicit susp_of links; any other atom adds k."""
    if isinstance(atom, BracketAtom):
        return None
    if atom.k or atom.decl.family is not None:
        return GenAtom(atom.name, atom.k + k, atom.decl)
    return _gen_atom(db, atom.name, k)


def desusp_atom(atom, db):
    """One step down, or None when the atom does not desuspend."""
    if isinstance(atom, BracketAtom):
        return None
    if atom.k:
        return GenAtom(atom.name, atom.k - 1, atom.decl)
    below = atom.decl.suspension_of
    return None if below is None else _gen_atom(db, below)


def _gen_atom(db, name: str, k: int = 0) -> GenAtom:
    name, k = db.susp_steps(name, k)  # the one atom of the class
    return GenAtom(name, k, db.decl(name))


def susp_chain(ch: Chain, k: int, db) -> Optional[Chain]:
    atoms = []
    for a in ch.atoms:
        s = susp_atom(a, k, db)
        if s is None:
            return None
        atoms.append(s)
    return Chain(tuple(atoms), ch.dom + k, sphere(ch.space.n + k))


def desusp_chain(ch: Chain, db) -> Optional[Chain]:
    """One step down for every atom, or None when one does not desuspend."""
    atoms = []
    for a in ch.atoms:
        d = desusp_atom(a, db)
        if d is None:
            return None
        atoms.append(d)
    return Chain(tuple(atoms), ch.dom - 1, sphere(ch.space.n - 1))


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
    """Expr -> formal sum; raises Blocked on non-distributable shapes and
    FlattenLimitExceeded before building a sum past FLATTEN_LIMIT atoms.
    A generator name is one lookup: the database keeps the chain each
    declared name flattens to (``RelationDB.gen_chain``), and every call
    returns a fresh sum holding it."""
    if isinstance(e, E.Gen):
        chain = db.gen_chain(e.name)
        if chain is None:
            raise UnknownGenerator(f"undeclared generator {e.name!r}")
        return {chain: 1}
    if isinstance(e, E.Compose):
        out = fs_compose_all(flatten(g, db) for g in E.compose_factors(e))
        if out is None:
            raise Blocked("blocked-linearity")
        return out
    if isinstance(e, E.Susp):
        return fs_susp(flatten(e.e, db), e.count, db)
    if isinstance(e, E.Sum):
        out: dict = {}
        size = 0  # the atoms of the terms so far, cancelled ones included
        for t in e.terms:
            term = flatten(t, db)
            size += fs_size(term)
            _check_size(size)
            out = fs_add(out, term)
        return out
    if isinstance(e, E.Scalar):
        return fs_scale(flatten(e.e, db), e.n)
    if isinstance(e, E.Bracket):
        fl, fr = flatten(e.f, db), flatten(e.g, db)
        if not fl or not fr:
            return {}  # a bracket with a constant factor is trivial
        return {bracket_chain(fl, fr): 1}
    if isinstance(e, E.HigherBracket):
        raise Blocked("higher-product")
    if isinstance(e, E.Power):
        # the stem as ``expand_powers`` reads it, with its errors
        sig = E.typecheck(e.e, db)
        if sig is None:
            return {}
        d = sig.source_dim - sig.target.n
        if d <= 0:
            raise DegreeMismatch("power of a class with non-positive stem")
        # each of the k copies holds an atom at least; checked before x is
        # flattened, so a blocked x^k is never expanded for its display
        _check_size(e.k)
        out = fs_power(flatten(e.e, db), e.k, d, db)
        if out is None:
            raise Blocked("blocked-linearity")
        return out
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# rendering back to expressions

def atom_to_expr(a) -> E.Expr:
    if isinstance(a, GenAtom):
        name, k = a.shown()
        return E.Susp(k, E.gen(name)) if k else E.gen(name)
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


_EXPR_TYPES = get_args(E.Expr)


def show(x) -> str:
    """The one renderer of trace and reason data: a template ``(fmt, *args)``
    fills ``fmt`` with its shown arguments, a chain or formal sum renders
    through ``render``, an expression formats, anything else prints as is."""
    if type(x) is tuple:
        return x[0].format(*map(show, x[1:]))
    if isinstance(x, Chain):
        x = {x: 1}
    if isinstance(x, dict):
        return render(x)
    if isinstance(x, _EXPR_TYPES):
        return E.format_expr(x)
    return str(x)


# ---------------------------------------------------------------------------
# normal forms and traces

@dataclass(eq=False, repr=False)
class TraceStep:
    """One rewrite or bracket-rule step, kept as data and rendered when
    read: ``detail``, ``before`` and ``after`` render their stored values
    (strings, chains, formal sums, expressions, the rule's integers, or
    templates over them) through ``show``.  The engine never changes a
    value after it is stored in a step."""

    rule: str
    _detail: object
    _before: object
    _after: object
    provenance: str = ""

    @property
    def detail(self) -> str:
        return show(self._detail)

    @property
    def before(self) -> str:
        return show(self._before)

    @property
    def after(self) -> str:
        return show(self._after)

    def to_json(self) -> dict:
        return {"rule": self.rule, "detail": self.detail,
                "before": self.before, "after": self.after,
                "provenance": self.provenance}


@dataclass(repr=False)
class NormalForm:
    """A resolved form is zero exactly when ``fs`` is empty; its element
    is None only when its signature has no table.  A residue keeps its
    formal sum ``fs`` and renders ``expr`` from it when read; only a
    residue whose flattening was blocked (``fs`` None) stores the input
    expression, its one form.  A residue's ``reason`` renders, when read,
    the message of its ``reason_code`` (a key of REASONS) filled with its
    ``reason_args``."""

    status: str  # "resolved" | "residue"
    signature: Optional[E.Signature]
    element: Optional[GroupElement] = None
    _expr: Optional[E.Expr] = None
    reason_code: Optional[str] = field(default=None, compare=False)
    reason_args: tuple = field(default=(), compare=False)
    trace: list = field(default_factory=list, compare=False)
    fs: Optional[dict] = None

    @property
    def is_resolved(self) -> bool:
        return self.status == "resolved"

    @property
    def is_zero(self) -> bool:
        return self.is_resolved and not self.fs

    @property
    def reason(self) -> Optional[str]:
        if self.reason_code is None:
            return None
        return show((REASONS[self.reason_code], *self.reason_args))

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
            out["reason_code"] = self.reason_code
        return out


def residue(fs: dict, sig: Optional[E.Signature], code: str, trace: list,
            *args) -> NormalForm:
    return NormalForm("residue", sig, reason_code=code, reason_args=args,
                      trace=trace, fs=fs)


def zero_form(sig: Optional[E.Signature], db, trace: list) -> NormalForm:
    """Resolved zero, carrying the table's zero when the signature has one."""
    table = db.table(sig.target, sig.source_dim) if sig is not None else None
    return NormalForm("resolved", sig, element=table.zero() if table else None,
                      trace=trace, fs={})


# ---------------------------------------------------------------------------
# the rewriting loop

def chain_annihilator(ch: Chain, db) -> int:
    """gcd of the known positive integers m with m * [ch] = 0 (0 when none
    is known)."""
    atoms = ch.atoms
    n = len(atoms)
    if n == 0:
        return 0
    # a scalar always moves into any suffix: use declared order facts and
    # the last factor's own order (an order of 0 leaves the gcd as it is)
    g = atoms[-1].order
    # (only the chain lengths that carry order facts are probed, longest
    # suffix first and shortest prefix first, the order of a full scan)
    lengths = db.fact_lengths
    for size in reversed(lengths):
        if 0 < size <= n:
            fact = db.order_fact(ch.suffix(n - size))
            if fact is not None:
                g = gcd(g, fact)
    # across an all-suspension tail atoms[i:] the scalar also moves onto
    # the prefix; one backward pass finds the longest such tail
    tail = n
    while tail > 1 and atoms[tail - 1].is_susp:
        tail -= 1
    if tail == 1 < n:
        g = gcd(g, atoms[0].order)
    for size in lengths:
        if tail <= size < n:
            fact = db.order_fact(ch.prefix(size))
            if fact is not None:
                g = gcd(g, fact)
    # table basis chains carry their table order
    hit = db.basis_lookup(ch)
    if hit is not None:
        table, idx = hit
        g = gcd(g, table.orders[idx])
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


def _reduce_coefficients(fs: dict, chains, db, trace) -> bool:
    """Reduce the coefficient of each of ``chains`` (chains of ``fs``, in
    the order of ``fs``) by its annihilator."""
    changed = False
    for ch in chains:
        c = fs[ch]
        g = chain_annihilator(ch, db)
        if g == 0:
            continue
        c2 = c % g
        if c2 != c:
            if c2:
                fs[ch] = c2
            else:
                del fs[ch]
            trace.append(TraceStep(
                "order-reduce",
                ("coefficient {} = {} (mod {}) on {}", c, c2, g, ch),
                {ch: c}, {ch: c2} if c2 else {}))
            changed = True
    return changed


def _window_cod(ch: Chain, i: int) -> Space:
    return ch.space if i == 0 else sphere(ch.atoms[i - 1].dom)


def _window_shift(ch: Chain, i: int, lhs: Chain, db) -> Optional[int]:
    """The k for which Sigma^k ``lhs`` is the window of ``ch`` starting at
    atom i, or None; compares atom by atom and stops at a mismatch."""
    m = len(lhs.atoms)
    if i + m > len(ch.atoms):
        return None
    cod = _window_cod(ch, i)
    if not cod.is_sphere or not lhs.space.is_sphere:
        if cod != lhs.space:
            return None
    k = cod.n - lhs.space.n
    if k < 0:
        return None
    atoms = ch.atoms
    for j, a in enumerate(lhs.atoms):
        if (a if k == 0 else susp_atom(a, k, db)) != atoms[i + j]:
            return None
    return k


_UNSCANNED = object()  # a chain whose first match is not yet known


class _Pending:
    """A chain's entry in the match heap below its rank: it orders by
    (``Chain.key``, insertion number), the key built the first time the
    heap compares two entries of one rank."""

    __slots__ = ("number", "chain", "_order")

    def __init__(self, number: int, ch: Chain):
        self.number, self.chain, self._order = number, ch, None

    def __lt__(self, other: "_Pending") -> bool:
        return self.order() < other.order()

    def order(self) -> tuple:
        if self._order is None:
            self._order = (self.chain.key(), self.number)
        return self._order


class _Worklist:
    """The reduce and rewrite phases of one ``normalize_fs`` call, which
    owns it; it changes ``fs`` in place and lives as long as the call.

    The match fired is the one a full scan finds first: the least (rank of
    the relation in the call's relation order, ``Chain.key``, window in
    scan order).  Matching reads the chain alone, never its coefficient,
    so each chain's first match is found once, after the chain enters
    ``fs``, and kept until it leaves; the chains with a match wait in a
    heap by (rank, ``_Pending``), which builds keys only on rank ties.
    A window is probed only against the relations
    whose lhs head shares the root of its first atom.  Only chains that a
    substitution created or changed can have a reducible coefficient."""

    def __init__(self, fs: dict, db, relation_order, reverse_scan: bool):
        self.fs, self.db, self.reverse_scan = fs, db, reverse_scan
        # relation index -> its first place in the order; None for the
        # database's own order, where the place is the index
        self.rank = None
        if relation_order is not None:
            self.rank = {}
            for place, ridx in enumerate(relation_order):
                self.rank.setdefault(ridx, place)
        self.candidates: dict = {}  # root -> [(rank, relation)], ascending
        self.count = count()
        # chain of fs -> [its insertion number, which keeps the order of
        # fs; its first match, None, or _UNSCANNED]
        self.live = {ch: [next(self.count), _UNSCANNED] for ch in fs}
        self.heap: list = []  # (rank, _Pending) of matches
        self.to_reduce = list(fs)  # in the order of fs
        self.to_match = list(fs)

    def reduce(self, trace) -> bool:
        chains, self.to_reduce = self.to_reduce, []
        changed = _reduce_coefficients(self.fs, chains, self.db, trace)
        for ch in chains:
            if ch not in self.fs:
                del self.live[ch]
        return changed

    def rewrite(self, trace) -> bool:
        """Fire the first match of the sum; False when there is none."""
        chains, self.to_match = self.to_match, []
        for ch in chains:
            entry = self.live.get(ch)  # None: the chain left fs since
            if entry is not None and entry[1] is _UNSCANNED:
                hit = entry[1] = self.first_match(ch)
                if hit is not None:
                    heappush(self.heap, (hit[0], _Pending(entry[0], ch)))
        while self.heap:
            _, pending = heappop(self.heap)
            entry = self.live.get(pending.chain)
            if entry is not None and entry[0] == pending.number:
                self._fire(pending.chain, entry[1], trace)
                return True
        return False

    def first_match(self, ch: Chain) -> Optional[tuple]:
        """(rank, window, relation, k, ``ch`` with the window replaced) of
        the first match in ``ch``, or None.  Roots are read window by
        window, so a chain that matches the first relation at its first
        window costs one root and one probe."""
        atoms, db = ch.atoms, self.db
        n = len(atoms)
        best = None
        for i in range(n - 1, -1, -1) if self.reverse_scan else range(n):
            for rank, rel in self._candidates(db.head_root(atoms[i])):
                if best is not None and rank >= best[0]:
                    break
                k = _window_shift(ch, i, rel.lhs_chain, db)
                if k is None:
                    continue
                rhs = rel.rhs_fs if k == 0 else fs_susp(rel.rhs_fs, k, db)
                replaced = splice(ch, i, i + len(rel.lhs_chain.atoms), rhs)
                if replaced is not None:
                    best = (rank, i, rel, k, replaced)
                    break
            if best is not None and best[0] == 0:
                break  # no relation ranks lower
        return best

    def _candidates(self, root: str) -> list:
        heads = self.db.relations_at(root)
        if self.rank is None:
            return heads
        cands = self.candidates.get(root)
        if cands is None:
            cands = self.candidates[root] = sorted(
                (self.rank[r], rel) for r, rel in heads if r in self.rank)
        return cands

    def _fire(self, ch: Chain, hit: tuple, trace):
        fs, live = self.fs, self.live
        _, _, rel, k, replaced = hit
        c = fs.pop(ch)
        del live[ch]
        out = fs_scale(replaced, c)
        changed = []
        for w, d in out.items():
            if w in fs:
                d += fs[w]
                if d == 0:
                    del fs[w], live[w]
                    continue
            else:
                live[w] = [next(self.count), _UNSCANNED]
                self.to_match.append(w)
            fs[w] = d
            changed.append(w)
        if len(changed) > 1:
            changed.sort(key=lambda w: live[w][0])
        self.to_reduce = changed
        detail = rel.name if not k else (
            "{} (suspended {} step)" if k == 1 else
            "{} (suspended {} steps)", rel.name, k)
        trace.append(TraceStep("relation", detail, {ch: c}, out,
                               rel.provenance))


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
                          reason_code=b.code, trace=trace)
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
    work = None  # built once the sum first fails to resolve
    steps = 0
    while True:
        steps += 1
        if steps > STEP_LIMIT:
            raise StepLimitExceeded(
                f"no fixed point after {STEP_LIMIT} steps (STEP_LIMIT) for "
                f"a sum of {len(start)} chains, {fs_size(start)} atoms")
        resolved = _try_resolve(fs, sig, db, trace)
        if resolved is not None:
            if fs:  # a snapshot: fs is the loop's working dict
                trace.append(TraceStep(
                    "resolve", ("element of {}", resolved.element.table.key),
                    dict(fs), resolved.element))
            return resolved
        if work is None:
            work = _Worklist(fs, db, relation_order, reverse_scan)
        if work.reduce(trace):
            continue
        if work.rewrite(trace):
            continue
        break
    return residue(fs, sig, "no-resolution", trace)


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
        name, left = susp_atom(_gen_atom(db, e.name), k, db).shown()
        if left:
            raise NoSuspensionFamily(f"{name!r} has no declared suspension")
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
