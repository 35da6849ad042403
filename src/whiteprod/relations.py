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
eta_2 keeps infinite order while eta_n (n >= 3) has order two.

Signs: every relation cited with a +- ambiguity is stored with "+"; all
downstream uses in this calculator depend only on orders and vanishing,
which the sign choice does not affect.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from . import expr as E
from . import rewrite as R
from .errors import (CalcError, ConflictingRelations, ExprSyntaxError,
                     RelationsFileError)
from .groups import (GeneratorDecl, GroupTable, Space, TableGen, TableKey,
                     parse_space, sphere)
from .names import join_name, split_name
from .parser import parse


@dataclass(frozen=True)
class Family:
    name: str
    base: int
    stem: int
    default_order: int
    style: str  # '_' or '()'


@dataclass
class Relation:
    name: str
    lhs: E.Expr
    rhs: E.Expr
    provenance: str
    lhs_chain: "R.Chain" = None
    rhs_fs: dict = None


@dataclass
class OrderFact:
    expr: E.Expr
    order: int
    provenance: str
    chain: "R.Chain" = None


class RelationDB:
    """Immutable after load; every operation reading it is pure."""

    def __init__(self):
        self._decls: dict[str, GeneratorDecl] = {}
        self._families: dict[str, Family] = {}
        self._synth: dict[str, GeneratorDecl] = {}
        self._susp_links: dict[str, str] = {}  # name -> name of its suspension
        self.tables: dict[TableKey, GroupTable] = {}
        self._basis: dict[TableKey, list] = {}
        self._basis_index: dict = {}
        self.relations: list[Relation] = []
        self._rel_index: dict = {}
        self._fact_index: dict = {}
        self.hopf0: dict[str, E.Expr] = {}

    # -- generator declarations -------------------------------------------

    def add_decl(self, decl: GeneratorDecl):
        if decl.name in self._decls:
            raise RelationsFileError(f"duplicate generator {decl.name!r}")
        self._decls[decl.name] = decl
        if decl.suspension_of:
            if decl.suspension_of in self._susp_links:
                raise RelationsFileError(
                    f"two suspensions declared for {decl.suspension_of!r}")
            self._susp_links[decl.suspension_of] = decl.name

    def add_family(self, fam: Family):
        if fam.name in self._families:
            raise RelationsFileError(f"duplicate family {fam.name!r}")
        self._families[fam.name] = fam

    def decl(self, name: str) -> Optional[GeneratorDecl]:
        if name in self._decls:
            return self._decls[name]
        if name in self._synth:
            return self._synth[name]
        fam_name, idx, style = split_name(name)
        fam = self._families.get(fam_name)
        if fam is None or idx is None or style != fam.style or idx <= fam.base:
            return None
        below = join_name(fam_name, idx - 1, style)
        decl = GeneratorDecl(
            name=name, source_dim=idx + fam.stem, target=sphere(idx),
            order=fam.default_order, suspension_of=below, is_suspension=True)
        self._synth[name] = decl
        return decl

    def susp_name(self, name: str) -> Optional[str]:
        if name in self._susp_links:
            return self._susp_links[name]
        fam_name, idx, style = split_name(name)
        fam = self._families.get(fam_name)
        if fam is not None and idx is not None and style == fam.style \
                and idx >= fam.base:
            return join_name(fam_name, idx + 1, style)
        return None

    def desusp_name(self, name: str) -> Optional[str]:
        d = self.decl(name)
        if d is not None and d.suspension_of is not None:
            return d.suspension_of
        return None

    # -- tables -------------------------------------------------------------

    def add_table(self, table: GroupTable, chains: list):
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
        prior = self._rel_index.get(rel.lhs_chain)
        if prior is not None:
            raise ConflictingRelations(
                f"lhs {E.format_expr(rel.lhs)!r} already rewritten by {prior.name}")
        self._rel_index[rel.lhs_chain] = rel
        self.relations.append(rel)

    def bracket_relation(self, left, right) -> Optional[Relation]:
        return self._rel_index.get(R.bracket_chain({left: 1}, {right: 1}))

    def add_order_fact(self, fact: OrderFact):
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

    def order_fact(self, chain) -> Optional[int]:
        fact = self._fact_index.get(chain)
        return fact.order if fact else None

    def hopf0_value(self, f: E.Expr) -> Optional[E.Expr]:
        nf = R.normalize(f, self)
        key = nf.display()
        return self.hopf0.get(key)

    def add_hopf0(self, f: E.Expr, value: E.Expr):
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


@dataclass
class _Line:
    lineno: int
    kind: str
    body: str
    src: str


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
    db.add_family(Family(name=name, base=base,
                         stem=base_decl.source_dim - base,
                         default_order=default_order, style=style))


def _susp_link(db: RelationDB, ln: _Line):
    """Validate a gen line's susp_of link; runs once every family exists."""
    decl = db._decls[ln.body.split()[0]]
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
