"""Relation database: generator declarations, group tables, ground
relations, order facts, and the line-oriented file format that ships them.

File syntax (one entry per line, ``#`` starts a comment):

    family <name> base=<n> order=<k>
    gen <name> dom=<k> cod=<space> order=<d> [susp_of=<name>] [src="..."]
    group <space> k=<k> [partial=p1,p2] = Z<d>{<expr>} + ... | 0 [src="..."]
    rel <expr> = <expr> src="..."
    orderfact <expr> = <n> src="..."
    hopf0 <expr> = <expr> src="..."

A ``family`` extends an explicitly declared base generator upward: the
member one sphere higher is its suspension, with the family's default
order.  Explicit ``gen`` lines win over family synthesis, which is how
eta_2 keeps infinite order while eta_n (n >= 3) has order two.  The
engine holds a member as its base and a shift, and synthesizes a member's
declaration only when its name is looked up.

Signs: every relation cited with a +- ambiguity is stored with "+"; all
downstream uses in this calculator depend only on orders and vanishing,
which the sign choice does not affect.
"""

from __future__ import annotations

import re
from dataclasses import replace
from typing import Optional

from . import expr as E
from . import rewrite as R
from .errors import (CalcError, ConflictingRelations, ExprSyntaxError,
                     RelationsFileError)
from .groups import (GeneratorDecl, GroupTable, Space, TableGen, TableKey,
                     parse_space, sphere)
from .names import join_name, split_name
from .parser import parse

# the root of every bracket atom: brackets do not suspend, so a bracket
# relation matches only at its own sphere
BRACKET_ROOT = "[,]"
NAME_LIMIT = 4096  # names in the name memo kept per database


class Family:
    """``style`` is '_' or '()'; ``decl``, set by the loader, is the base's
    declaration, which names the family back; ``orders`` holds the order of
    each member a gen line declares, by sphere index."""

    __slots__ = ("name", "base", "default_order", "style", "decl", "orders")

    def __init__(self, name: str, base: int, default_order: int, style: str):
        self.name, self.base, self.style = name, base, style
        self.default_order = default_order
        self.decl: Optional[GeneratorDecl] = None
        self.orders: dict[int, int] = {}


class Relation:
    """A rel line ``lhs = rhs``, with lhs's chain and rhs's formal sum."""

    __slots__ = ("name", "lhs", "rhs", "provenance", "lhs_chain", "rhs_fs")

    def __init__(self, name: str, lhs: E.Expr, rhs: E.Expr, provenance: str,
                 lhs_chain: R.Chain, rhs_fs: dict):
        self.name, self.lhs, self.rhs = name, lhs, rhs
        self.provenance = provenance
        self.lhs_chain, self.rhs_fs = lhs_chain, rhs_fs


class OrderFact:
    """An orderfact line: ``expr``, with its chain, has order ``order``."""

    __slots__ = ("expr", "order", "provenance", "chain")

    def __init__(self, expr: E.Expr, order: int, provenance: str,
                 chain: R.Chain):
        self.expr, self.order = expr, order
        self.provenance, self.chain = provenance, chain


class RelationDB:
    """The entries of one relations file, and memos of what they fix.

    Load fixes the entries, through the ``add_*`` methods: declarations
    and families, group tables with their basis chains, relations with
    their indexes, order facts and hopf0 values.  One index is the pair
    index ``_pairs``: each relation whose left side is one bracket atom
    [u, v] of unit chains, under (u, v), so that a ground bracket is one
    dict hit (``bracket_relation``).  Nothing changes the entries after
    load.  What does change after load is the memos below.  Each holds
    only values the entries already fix, so every operation that reads
    the database answers the same whether a memo is full, cleared or
    empty:

    - the name memo ``_names``: per name an input or the file spells, its
      family, sphere index and declaration, and once ``gen_chain`` asks,
      the one chain the name flattens to, so that a generator leaf is one
      dict hit and its chain is hashed once.  It holds at most
      ``NAME_LIMIT`` names and is cleared when full; ``add_decl`` and
      ``add_family``, the only entries a name's chain reads, clear it;
    - the bracket calculus's work (see ``whitehead``): ``pair_memo`` holds
      each bilinear summand k*[u, v] with its trace steps, and
      ``factor_memo`` the triple-product record of factor forms,
      factor-pair brackets and shares of J.  Each holds at most
      ``whitehead.SHARE_LIMIT`` entries and is cleared when full.  Every
      ``add_*`` clears both, since a new entry can change any value they
      hold."""

    def __init__(self):
        self._decls: dict[str, GeneratorDecl] = {}
        self._families: dict[str, Family] = {}
        self._names: dict[str, tuple] = {}  # see _lookup and gen_chain
        self._susp_links: dict[str, str] = {}  # name -> name of its suspension
        self.tables: dict[TableKey, GroupTable] = {}
        self._basis: dict[TableKey, list] = {}
        self._basis_index: dict = {}
        self.relations: list[Relation] = []
        self._rel_index: dict = {}
        self._pairs: dict = {}  # (u, v) -> the relation [u, v] = ...
        self._heads: dict[str, list] = {}  # see relations_at
        self._fact_index: dict = {}
        self.fact_lengths: tuple = ()  # ascending atom counts of fact chains
        self.hopf0: dict[str, E.Expr] = {}
        self.pair_memo: dict = {}  # (k, u, v) -> (k*[u, v], its steps)
        self.factor_memo: dict = {}  # see whitehead._form, _pair, _share

    def _forget(self):
        """Clear the bracket work kept for this database."""
        self.pair_memo.clear()
        self.factor_memo.clear()

    # -- generator declarations -------------------------------------------

    def add_decl(self, decl: GeneratorDecl):
        self._forget()
        if decl.name in self._decls:
            raise RelationsFileError(f"duplicate generator {decl.name!r}")
        self._decls[decl.name] = decl
        if decl.suspension_of:
            if decl.suspension_of in self._susp_links:
                raise RelationsFileError(
                    f"two suspensions declared for {decl.suspension_of!r}")
            self._susp_links[decl.suspension_of] = decl.name
        self._names.clear()

    def add_family(self, fam: Family):
        self._forget()
        if fam.name in self._families:
            raise RelationsFileError(f"duplicate family {fam.name!r}")
        self._families[fam.name] = fam
        self._decls[fam.decl.name] = fam.decl  # the base, naming fam
        self._names.clear()

    def _lookup(self, name: str) -> Optional[tuple]:
        """(family, sphere index, declaration, chain) of a family member at
        or above its base, (None, None, declaration, chain) of another
        declared name, else None; the chain is None until ``gen_chain``
        stores it.  Each name is parsed once while the memo holds it."""
        hit = self._names.get(name)
        if hit is not None:
            return hit
        decl = self._decls.get(name)
        fam_name, idx, style = split_name(name)
        fam = self._families.get(fam_name)
        if fam is not None and style == fam.style and idx >= fam.base:
            if decl is None:  # the base always has a gen line
                decl = GeneratorDecl(
                    name=name, source_dim=fam.decl.source_dim + idx - fam.base,
                    target=sphere(idx), order=fam.default_order,
                    suspension_of=join_name(fam.name, idx - 1, fam.style))
            hit = fam, idx, decl, None
        elif decl is not None:
            hit = None, None, decl, None
        else:
            return None
        return self._remember(name, hit)

    def _remember(self, name: str, hit: tuple) -> tuple:
        """Store ``hit`` under ``name``, clearing the memo first when full."""
        if len(self._names) >= NAME_LIMIT:
            self._names.clear()
        self._names[name] = hit
        return hit

    def gen_chain(self, name: str):
        """The one chain the declared ``name`` flattens to (the identity of
        S^n for iota_n, else its generator atom), or None when undeclared.
        It is built on the first call and kept in the name memo."""
        hit = self._names.get(name) or self._lookup(name)
        if hit is None:
            return None
        chain = hit[3]
        if chain is None:
            decl = hit[2]
            if decl.target.is_sphere and decl.source_dim == decl.target.n:
                chain = R.identity_chain(decl.source_dim)
            else:
                atom = R._gen_atom(self, name)
                chain = R.Chain((atom,), atom.dom, atom.space)
            self._remember(name, hit[:3] + (chain,))
        return chain

    def _family_index(self, name: str) -> Optional[tuple]:
        """(family, sphere index) of a family member at or above its base."""
        hit = self._lookup(name)
        return hit[:2] if hit and hit[0] else None

    def decl(self, name: str) -> Optional[GeneratorDecl]:
        hit = self._names.get(name) or self._lookup(name)
        return None if hit is None else hit[2]

    def susp_name(self, name: str) -> Optional[str]:
        """The class one suspension above ``name``, or None."""
        hit = self._family_index(name)
        if hit is None:
            return self._susp_links.get(name)
        return join_name(hit[0].name, hit[1] + 1, hit[0].style)

    def susp_steps(self, name: str, k: int) -> tuple:
        """Sigma^k of ``name`` as (a declared class, the steps above it):
        a family member's base, or as far as ``susp_of`` links lead."""
        while True:
            hit = self._lookup(name)
            if hit is not None and hit[0] is not None:
                fam = hit[0]
                return fam.decl.name, hit[1] - fam.base + k
            above = self._susp_links.get(name) if k else None
            if above is None:
                return name, k
            name, k = above, k - 1

    def root(self, name: str) -> str:
        """The declared class at the bottom of ``name``'s family and
        susp_of links (eta_7 -> eta_2, Snu' -> nu'), which every suspension
        of ``name`` shares."""
        return self.head_root(R._gen_atom(self, name)) if self.decl(name) \
            else name

    def head_root(self, atom) -> str:
        """The root of an atom: its generator's, or BRACKET_ROOT."""
        if isinstance(atom, R.BracketAtom):
            return BRACKET_ROOT
        decl = atom.decl  # a declared class, and so are the ones below it
        while decl.suspension_of is not None:
            decl = self.decl(decl.suspension_of)
        return decl.name

    def desusp_name(self, name: str) -> Optional[str]:
        d = self.decl(name)
        return None if d is None else d.suspension_of

    # -- tables -------------------------------------------------------------

    def add_table(self, table: GroupTable, chains: list):
        self._forget()
        if table.key in self.tables:
            raise RelationsFileError(f"duplicate group table for {table.key}")
        self.tables[table.key] = table
        self._basis[table.key] = chains
        for i, ch in enumerate(chains):
            if ch in self._basis_index:
                raise RelationsFileError(
                    f"generator chain {table.gens[i].label!r} already names "
                    f"a basis element")
            self._basis_index[ch] = (table, i)

    def table(self, target: Space, k: int) -> Optional[GroupTable]:
        return self.tables.get(TableKey(target, k))

    def basis_chains(self, key: TableKey) -> list:
        return self._basis[key]

    def basis_lookup(self, chain) -> Optional[tuple]:
        return self._basis_index.get(chain)

    # -- relations and facts ------------------------------------------------

    def add_relation(self, rel: Relation):
        self._forget()
        if not rel.lhs_chain.atoms:
            raise RelationsFileError("rel lhs cannot be an identity")
        prior = self._rel_index.get(rel.lhs_chain)
        if prior is not None:
            raise ConflictingRelations(
                f"lhs {E.format_expr(rel.lhs)!r} already rewritten by {prior.name}")
        self._rel_index[rel.lhs_chain] = rel
        atoms = rel.lhs_chain.atoms
        if len(atoms) == 1 and isinstance(atoms[0], R.BracketAtom):
            u, v = _unit(atoms[0].left), _unit(atoms[0].right)
            if u is not None and v is not None:
                self._pairs[u, v] = rel
        root = self.head_root(atoms[0])
        self._heads.setdefault(root, []).append((len(self.relations), rel))
        self.relations.append(rel)

    def relations_at(self, root: str) -> list:
        """(index in ``relations``, relation) of those whose lhs head has
        ``root``, by index: the only relations that can match a window
        starting at an atom with that root."""
        return self._heads.get(root, [])

    def bracket_relation(self, left, right) -> Optional[Relation]:
        """The relation whose left side is [left, right], or None."""
        return self._pairs.get((left, right))

    def add_order_fact(self, fact: OrderFact):
        self._forget()
        prior = self._fact_index.get(fact.chain)
        if prior is not None and prior.order != fact.order:
            raise ConflictingRelations(
                f"conflicting orders for {E.format_expr(fact.expr)!r}")
        hit = self.basis_lookup(fact.chain)
        if hit is not None and hit[0].orders[hit[1]] != fact.order:
            raise ConflictingRelations(
                f"order fact for {E.format_expr(fact.expr)!r} disagrees with "
                f"the {hit[0].key} table")
        if prior is None:
            self._fact_index[fact.chain] = fact
            self.fact_lengths = tuple(sorted(
                {*self.fact_lengths, len(fact.chain.atoms)}))

    def order_fact(self, chain) -> Optional[int]:
        fact = self._fact_index.get(chain)
        return fact.order if fact else None

    def hopf0_value(self, f: E.Expr) -> Optional[E.Expr]:
        nf = R.normalize(f, self)
        key = nf.display()
        return self.hopf0.get(key)

    def add_hopf0(self, f: E.Expr, value: E.Expr):
        self._forget()
        nf = R.normalize(f, self)
        key = nf.display()
        if key in self.hopf0:
            raise RelationsFileError(f"duplicate hopf0 entry for {key!r}")
        self.hopf0[key] = value


# ---------------------------------------------------------------------------
# file loading
#
# Each entry kind has one handler taking (db, line).  Handlers raise plain
# CalcErrors; load_relations_text is the one place that attaches the file
# name and line number.

_SRC_RE = re.compile(r'\s*src="([^"]*)"\s*$')
_KV_RE = re.compile(r"^([A-Za-z_0-9]+)=(.+)$")
_ENTRY_RE = re.compile(r"^Z([0-9]*)\{(.+)\}$")


class _Line:
    __slots__ = ("lineno", "kind", "body", "src")

    def __init__(self, lineno: int, kind: str, body: str, src: str):
        self.lineno, self.kind, self.body, self.src = lineno, kind, body, src


def _split_lines(text: str) -> list[_Line]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        src = ""
        m = _SRC_RE.search(line)
        if m:
            src = m.group(1)
            line = line[:m.start()].rstrip()
        if "#" in line:
            line = line[:line.index("#")].rstrip()
        if not line:
            continue
        kind, _, body = line.partition(" ")
        out.append(_Line(lineno, kind, body.strip(), src))
    return out


def _parse_kv(parts: list[str]) -> dict:
    kv = {}
    for p in parts:
        m = _KV_RE.match(p)
        if not m:
            raise RelationsFileError(f"expected key=value, found {p!r}")
        if m.group(1) in kv:
            raise RelationsFileError(f"duplicate key {m.group(1)!r}")
        kv[m.group(1)] = m.group(2)
    return kv


def _int(kv: dict, key: str) -> int:
    try:
        return int(kv[key])
    except KeyError:
        raise RelationsFileError(f"missing {key}=") from None
    except ValueError:
        raise RelationsFileError(f"{key}= wants an integer") from None


def _parse_expr(text: str) -> E.Expr:
    try:
        return parse(text)
    except ExprSyntaxError as exc:
        raise RelationsFileError(f"bad expression {text!r}: {exc}") from None


def _unit(terms) -> Optional["R.Chain"]:
    """The chain of a single unit-coefficient (Chain, coeff) term, else None."""
    return terms[0][0] if len(terms) == 1 and terms[0][1] == 1 else None


def _composite_bracket(terms) -> bool:
    """True when some bracket atom in the terms has a non-unit argument."""
    return any(_unit(arg) is None or _composite_bracket(arg)
               for ch, _ in terms for a in ch.atoms
               if isinstance(a, R.BracketAtom) for arg in (a.left, a.right))


def _flatten_entry(e: E.Expr, db: RelationDB, what: str) -> dict:
    """Flatten a file entry; data entries may bracket only single chains."""
    try:
        fs = R.flatten(e, db)
    except R.Blocked as b:
        raise RelationsFileError(f"{what} does not flatten: {b.reason}") from None
    if _composite_bracket(fs.items()):
        raise RelationsFileError(
            f"{what} does not flatten: bracket of composite arguments")
    return fs


def _unit_chain_of(e: E.Expr, db: RelationDB, what: str):
    ch = _unit(list(_flatten_entry(e, db, what).items()))
    if ch is None:
        raise RelationsFileError(
            f"{what} must be a single unit-coefficient composition")
    return ch


def _split_summands(body: str) -> list[str]:
    # split on '+' at brace depth zero
    out, depth, cur = [], 0, []
    for ch in body:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                raise RelationsFileError("unbalanced braces")
        if ch == "+" and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise RelationsFileError("unbalanced braces")
    out.append("".join(cur).strip())
    if any(not piece for piece in out):
        raise RelationsFileError("empty summand")
    return out


def _sides(ln: _Line) -> tuple[str, str]:
    lhs, eq, rhs = ln.body.partition(" = ")
    if not eq:
        raise RelationsFileError(f"{ln.kind} needs ' = '")
    return lhs.strip(), rhs.strip()


def _gen(db: RelationDB, ln: _Line):
    parts = ln.body.split()
    if not parts:
        raise RelationsFileError("gen needs a name")
    name, kv = parts[0], _parse_kv(parts[1:])
    extra = set(kv) - {"dom", "cod", "order", "susp_of"}
    if extra:
        raise RelationsFileError(f"unknown gen attribute {extra.pop()!r}")
    if "cod" not in kv:
        raise RelationsFileError("missing cod=")
    cod = parse_space(kv["cod"])
    db.add_decl(GeneratorDecl(
        name=name, source_dim=_int(kv, "dom"), target=cod,
        order=_int(kv, "order"), suspension_of=kv.get("susp_of")))


def _family(db: RelationDB, ln: _Line):
    parts = ln.body.split()
    if not parts:
        raise RelationsFileError("family needs a name")
    name, kv = parts[0], _parse_kv(parts[1:])
    base = _int(kv, "base")
    default_order = _int(kv, "order")
    for style in ("_", "()"):
        base_decl = db._decls.get(join_name(name, base, style))
        if base_decl is not None:
            break
    else:
        raise RelationsFileError(
            f"family {name!r} needs an explicit gen for its base member")
    if not base_decl.target.is_sphere or base_decl.target.n != base:
        raise RelationsFileError(
            f"family base {base_decl.name!r} must live on S{base}")
    fam = Family(name=name, base=base, default_order=default_order,
                 style=style)
    fam.decl = replace(base_decl, family=fam)
    db.add_family(fam)


def _susp_link(db: RelationDB, ln: _Line):
    """Validate a gen line's susp_of link; runs once every family exists.
    A family member above its base links to the member below, and its
    order becomes the family's order at its index."""
    fam, idx, decl, _ = db._lookup(ln.body.split()[0])
    member = None  # the member below, for a member above its base
    if fam is not None and idx > fam.base:
        member = join_name(fam.name, idx - 1, fam.style)
        fam.orders[idx] = decl.order
    if member is not None and decl.suspension_of is None:
        decl = replace(decl, suspension_of=member)
        del db._decls[decl.name]
        db.add_decl(decl)  # registers the link as a susp_of line would
    elif member is not None and decl.suspension_of != member:
        raise RelationsFileError(
            f"family member {decl.name!r} is the suspension of "
            f"{member!r}, not of {decl.suspension_of!r}")
    if decl.suspension_of is None:
        return
    below = db.decl(decl.suspension_of)
    if below is None:
        raise RelationsFileError(
            f"{decl.name!r}: susp_of references undeclared "
            f"{decl.suspension_of!r}")
    if below.source_dim != decl.source_dim - 1 or \
            not below.target.is_sphere or not decl.target.is_sphere or \
            below.target.n != decl.target.n - 1:
        raise RelationsFileError(
            f"{decl.name!r} is not one suspension above {below.name!r}")
    if member is None and db._family_index(below.name) is not None:
        raise RelationsFileError(
            f"{decl.name!r}: susp_of names family member {below.name!r}, "
            f"whose suspension is {db.susp_name(below.name)!r}")


def _group(db: RelationDB, ln: _Line):
    head, eq, body = ln.body.partition(" = ")
    if not eq:
        raise RelationsFileError("group needs ' = <summands>'")
    parts = head.split()
    if not parts:
        raise RelationsFileError("group needs a space tag")
    target = parse_space(parts[0])
    kv = _parse_kv(parts[1:])
    extra = set(kv) - {"k", "partial"}
    if extra:
        raise RelationsFileError(f"unknown group attribute {extra.pop()!r}")
    k = _int(kv, "k")
    completeness = "full"
    if "partial" in kv:
        try:
            completeness = frozenset(int(p) for p in kv["partial"].split(","))
        except ValueError:
            raise RelationsFileError("partial= wants primes") from None
    gens, chains = [], []
    body = body.strip()
    if body != "0":
        for entry in _split_summands(body):
            m = _ENTRY_RE.match(entry)
            if not m:
                raise RelationsFileError(
                    f"bad summand {entry!r}; expected Z<d>{{<expr>}}")
            order = int(m.group(1)) if m.group(1) else 0
            label = m.group(2).strip()
            expr = _parse_expr(label)
            sig = E.typecheck(expr, db)
            if sig is None or sig.target != target or sig.source_dim != k:
                raise RelationsFileError(
                    f"generator {label!r} does not live in pi_{k}({target})")
            gens.append(TableGen(label, order))
            chains.append(_unit_chain_of(expr, db, f"table generator {label!r}"))
    db.add_table(GroupTable(TableKey(target, k), completeness, gens, ln.src),
                 chains)


def _rel(db: RelationDB, ln: _Line):
    lhs_text, rhs_text = _sides(ln)
    lhs, rhs = _parse_expr(lhs_text), _parse_expr(rhs_text)
    sig_l, sig_r = E.typecheck(lhs, db), E.typecheck(rhs, db)
    if sig_l is None:
        raise RelationsFileError("rel lhs cannot be 0")
    if sig_r is not None and sig_r != sig_l:
        raise RelationsFileError(f"rel sides disagree: {sig_l} vs {sig_r}")
    db.add_relation(Relation(
        name=f"{lhs_text} = {rhs_text}", lhs=lhs, rhs=rhs, provenance=ln.src,
        lhs_chain=_unit_chain_of(lhs, db, "rel lhs"),
        rhs_fs=_flatten_entry(rhs, db, "rel rhs")))


def _orderfact(db: RelationDB, ln: _Line):
    lhs_text, n_text = _sides(ln)
    expr = _parse_expr(lhs_text)
    try:
        n = int(n_text)
    except ValueError:
        raise RelationsFileError("orderfact wants an integer order") from None
    if n <= 0:
        raise RelationsFileError("orderfact order must be positive")
    E.typecheck(expr, db)
    chain = _unit_chain_of(expr, db, "orderfact expression")
    db.add_order_fact(OrderFact(expr, n, ln.src, chain))


def _hopf0(db: RelationDB, ln: _Line):
    lhs_text, rhs_text = _sides(ln)
    f, value = _parse_expr(lhs_text), _parse_expr(rhs_text)
    E.typecheck(f, db)
    E.typecheck(value, db)
    db.add_hopf0(f, value)


# Passes in order: each maps the entry kinds it reads to their handlers.
# Families need their base gen; susp_of links may name family members;
# tables and relations need every generator; hopf0 entries are keyed by
# normalized forms, so they come after the relations.
_PASSES = [{"gen": _gen}, {"family": _family}, {"gen": _susp_link},
           {"group": _group}, {"rel": _rel, "orderfact": _orderfact},
           {"hopf0": _hopf0}]


def load_relations(path: str) -> RelationDB:
    """Parse a relations file and build a finalized, validated database."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return load_relations_text(text, path)


def load_relations_text(text: str, path: str = "<string>") -> RelationDB:
    lines = _split_lines(text)
    for ln in lines:
        if not any(ln.kind in handlers for handlers in _PASSES):
            raise RelationsFileError(f"unknown entry kind {ln.kind!r}",
                                     path, ln.lineno)
    db = RelationDB()
    for handlers in _PASSES:
        for ln in lines:
            handler = handlers.get(ln.kind)
            if handler is None:
                continue
            try:
                handler(db, ln)
            except CalcError as exc:
                raise RelationsFileError(str(exc), path, ln.lineno) from None
    return db
