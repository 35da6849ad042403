"""AST for Toda-notation expressions, with signatures and pretty printing.

Composition is written left to right: ``f . g`` applies g's domain first,
i.e. f: S^m -> X precomposed with g: S^k -> S^m.  Powers are notation
only (``eta_4^2`` means ``eta_4 . eta_5``): typechecking reads their
signature, and they are expanded against the generator declarations
when flattened; the parse tree keeps the Power node so that
parse/format round-trips are structural.

The nodes are equal and hashed by type and fields, as memo keys must be,
but they carry no generated ``repr`` (``format_expr`` shows them) and no
run-time freezing: nothing assigns a node's fields after construction,
which ``tests/test_value_types.py`` checks in the source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .errors import DegreeMismatch, MixedTargets, UnknownGenerator
from .groups import Space, sphere


@dataclass(frozen=True, slots=True, repr=False)
class Signature:
    """pi_source_dim(target), shown as such by ``str``."""

    source_dim: int
    target: Space

    def __str__(self):
        return f"pi_{self.source_dim}({self.target})"


@dataclass(unsafe_hash=True, repr=False)
class Gen:
    """A declared generator, by name."""

    name: str


@dataclass(unsafe_hash=True, repr=False)
class Compose:
    """f . g: g first, then f."""

    f: "Expr"
    g: "Expr"


@dataclass(unsafe_hash=True, repr=False)
class Susp:
    """The suspension S^count e."""

    count: int
    e: "Expr"


@dataclass(unsafe_hash=True, repr=False)
class Sum:
    """t1 + t2 + ...; the empty sum is ZERO."""

    terms: tuple


@dataclass(unsafe_hash=True, repr=False)
class Scalar:
    """The multiple n e."""

    n: int
    e: "Expr"


@dataclass(unsafe_hash=True, repr=False)
class Bracket:
    """The Whitehead product [f, g]."""

    f: "Expr"
    g: "Expr"


@dataclass(unsafe_hash=True, repr=False)
class HigherBracket:
    """The higher product w[f1, ..., fr]."""

    factors: tuple


@dataclass(unsafe_hash=True, repr=False)
class Power:
    """e^k, iterated composition with suspended copies."""

    e: "Expr"
    k: int


Expr = Union[Gen, Compose, Susp, Sum, Scalar, Bracket, HigherBracket, Power]

ZERO = Sum(())


def gen(name: str) -> Gen:
    return Gen(name)


def compose(*factors: Expr) -> Expr:
    out = factors[0]
    for f in factors[1:]:
        out = Compose(out, f)
    return out


def compose_factors(e: Compose) -> list:
    """Factors of a left-nested composition, left to right, by a loop."""
    factors = []
    while isinstance(e, Compose):
        factors.append(e.g)
        e = e.f
    factors.append(e)
    factors.reverse()
    return factors


def typecheck(e: Expr, db) -> Optional[Signature]:
    """Signature of ``e`` over the declarations in ``db``.

    Returns None for the polymorphic zero (an empty sum), which acquires
    its signature from context.  ``db`` only needs a ``decl(name)`` method.
    """
    if isinstance(e, Gen):
        decl = db.decl(e.name)
        if decl is None:
            raise UnknownGenerator(f"undeclared generator {e.name!r}")
        return Signature(decl.source_dim, decl.target)
    if isinstance(e, Compose):
        factors = compose_factors(e)
        sf = typecheck(factors[0], db)
        for g in factors[1:]:
            sg = typecheck(g, db)
            if sf is None or sg is None:
                sf = None
                continue
            if not sg.target.is_sphere or sg.target.n != sf.source_dim:
                raise DegreeMismatch(
                    f"cannot compose {sf} with {sg}: inner dimensions disagree")
            sf = Signature(sg.source_dim, sf.target)
        return sf
    if isinstance(e, Susp):
        se = typecheck(e.e, db)
        if se is None:
            return None
        if not se.target.is_sphere:
            raise DegreeMismatch("suspension needs a sphere target")
        return Signature(se.source_dim + e.count, sphere(se.target.n + e.count))
    if isinstance(e, Sum):
        sigs = [typecheck(t, db) for t in e.terms]
        sigs = [s for s in sigs if s is not None]
        if not sigs:
            return None
        for s in sigs[1:]:
            if s.target != sigs[0].target:
                raise MixedTargets(f"sum mixes {sigs[0]} and {s}")
            if s != sigs[0]:
                raise DegreeMismatch(f"sum mixes {sigs[0]} and {s}")
        return sigs[0]
    if isinstance(e, Scalar):
        return typecheck(e.e, db)
    if isinstance(e, Bracket):
        sf, sg = typecheck(e.f, db), typecheck(e.g, db)
        if sf is None or sg is None:
            return None
        if sf.target != sg.target:
            raise MixedTargets(f"bracket mixes {sf.target} and {sg.target}")
        return Signature(sf.source_dim + sg.source_dim - 1, sf.target)
    if isinstance(e, HigherBracket):
        sigs = [typecheck(t, db) for t in e.factors]
        if any(s is None for s in sigs):
            return None
        for s in sigs[1:]:
            if s.target != sigs[0].target:
                raise MixedTargets("higher bracket mixes targets")
        return Signature(sum(s.source_dim for s in sigs) - 1, sigs[0].target)
    if isinstance(e, Power):
        se = typecheck(e.e, db)
        if se is None:
            return None
        if not se.target.is_sphere:
            raise DegreeMismatch("power needs a sphere target")
        d = se.source_dim - se.target.n
        if d <= 0:
            raise DegreeMismatch("power of a class with non-positive stem")
        return Signature(se.source_dim + (e.k - 1) * d, se.target)
    raise TypeError(f"not an expression: {e!r}")


def expand_powers(e: Expr, db) -> Expr:
    """Replace every Power node by its composition expansion.

    ``x^k`` becomes ``x . S^d x . S^(2d) x ...`` with d the stem of x,
    the standard convention behind eta_4^2 = eta_4 . eta_5.
    """
    if isinstance(e, Power):
        base = expand_powers(e.e, db)
        sig = typecheck(base, db)
        if sig is None:
            return ZERO
        d = sig.source_dim - sig.target.n
        if d <= 0:
            raise DegreeMismatch("power of a class with non-positive stem")
        factors = [base if j == 0 else Susp(j * d, base) for j in range(e.k)]
        return compose(*factors)
    if isinstance(e, Compose):
        return compose(*(expand_powers(f, db) for f in compose_factors(e)))
    if isinstance(e, Susp):
        return Susp(e.count, expand_powers(e.e, db))
    if isinstance(e, Sum):
        return Sum(tuple(expand_powers(t, db) for t in e.terms))
    if isinstance(e, Scalar):
        return Scalar(e.n, expand_powers(e.e, db))
    if isinstance(e, Bracket):
        return Bracket(expand_powers(e.f, db), expand_powers(e.g, db))
    if isinstance(e, HigherBracket):
        return HigherBracket(tuple(expand_powers(t, db) for t in e.factors))
    return e


def _needs_parens_in_compose(e: Expr) -> bool:
    return isinstance(e, (Sum, Scalar))


def _needs_parens_in_scalar(e: Expr) -> bool:
    return isinstance(e, (Sum, Scalar, Compose))


def _needs_parens_in_susp(e: Expr) -> bool:
    return isinstance(e, (Sum, Scalar, Compose, Susp, Power))


def format_expr(e: Expr) -> str:
    """Canonical ASCII rendering; parse(format_expr(e)) == e structurally."""
    if isinstance(e, Gen):
        return e.name
    if isinstance(e, Compose):
        # left-nested chains flatten to "a . b . c"; a right-nested factor
        # keeps parentheses so parsing restores the same tree
        pieces = []
        for f in compose_factors(e):
            text = format_expr(f)
            if _needs_parens_in_compose(f) or isinstance(f, Compose):
                text = f"({text})"
            pieces.append(text)
        return " . ".join(pieces)
    if isinstance(e, Susp):
        inner = format_expr(e.e)
        if _needs_parens_in_susp(e.e):
            inner = f"({inner})"
        return (f"S {inner}" if e.count == 1 else f"S^{e.count} {inner}")
    if isinstance(e, Sum):
        if not e.terms:
            return "0"
        pieces = []
        for t in e.terms:
            if isinstance(t, Scalar) and t.n < 0:
                # "- (k x)" would read back as -k x, so -1 (k x) keeps its 1
                if t.n == -1 and not isinstance(t.e, Scalar):
                    body = format_expr(t.e)
                    if _needs_parens_in_scalar(t.e):
                        body = f"({body})"
                else:
                    body = format_expr(Scalar(-t.n, t.e))
                pieces.append(("-", body))
            else:
                body = format_expr(t)
                if isinstance(t, Sum) and t.terms:
                    body = f"({body})"
                pieces.append(("+", body))
        sign, body = pieces[0]
        text = body if sign == "+" else f"- {body}"
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text
    if isinstance(e, Scalar):
        inner = format_expr(e.e)
        if _needs_parens_in_scalar(e.e):
            inner = f"({inner})"
        return f"{e.n} {inner}"
    if isinstance(e, Bracket):
        return f"[{format_expr(e.f)}, {format_expr(e.g)}]"
    if isinstance(e, HigherBracket):
        return "w[" + ", ".join(format_expr(t) for t in e.factors) + "]"
    if isinstance(e, Power):
        inner = format_expr(e.e)
        if not isinstance(e.e, Gen):
            inner = f"({inner})"
        return f"{inner}^{e.k}"
    raise TypeError(f"not an expression: {e!r}")
