"""Tokenizer and recursive-descent parser for the expression surface syntax.

Grammar (documented in docs/grammar.md):

    expr     := ['-'] term (('+' | '-') term)*
    term     := INT ['*'] composed | INT | composed
    composed := factor (('.' | 'o') factor)*
    factor   := atom ['^' INT]
    atom     := NAME | 'S' ['^' INT] atom | '[' expr ',' expr ']'
              | 'w' '[' expr (',' expr)* ']' | '(' expr ')'

A lone integer term must be 0 (the empty sum).  A leading integer scales
the whole composition chain that follows, so ``2 nu_5 . sigma_8`` is
2(nu_5 . sigma_8); write ``(2 nu_5) . x`` to scale a single factor.
Unicode input is accepted and folded to the ASCII forms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ExprSyntaxError
from .expr import (ZERO, Bracket, Compose, Expr, HigherBracket, Power,
                   Scalar, Sum, Susp, gen)
from .names import fold_unicode

_SYMBOLS = ".^+-*[](),"

# Deepest nesting of '(', '[', 'w[' and 'S' prefixes the parser accepts;
# deeper input is a syntax error rather than a Python recursion overflow.
MAX_NESTING = 100


@dataclass(slots=True, eq=False, repr=False)
class _Tok:
    """One token and where it starts, for error messages."""

    kind: str  # NAME INT SYM SUSP HIGHER COMPOSE END
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        # isdecimal, not isdigit: int() rejects digits such as '⁵'
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            toks.append(_Tok("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            word = text[i:j]
            # fold a parenthesized integer index into the name: alpha2(4)
            if j < n and text[j] == "(":
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                if k > j + 1 and k < n and text[k] == ")":
                    word = text[i:k + 1]
                    j = k + 1
            if word == "S":
                toks.append(_Tok("SUSP", word, line, col))
            elif word == "w":
                toks.append(_Tok("HIGHER", word, line, col))
            elif word == "o":
                toks.append(_Tok("COMPOSE", word, line, col))
            else:
                toks.append(_Tok("NAME", word, line, col))
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            toks.append(_Tok("SYM", ch, line, col))
            i += 1
            col += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", line, col)
    toks.append(_Tok("END", "", line, col))
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str, text: str | None = None) -> _Tok:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            raise ExprSyntaxError(f"expected {want!r}, found {t.text or 'end of input'!r}",
                                  t.line, t.col)
        return self.next()

    def at_sym(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "SYM" and t.text == text

    def parse_expr(self) -> Expr:
        terms = []
        negate = False
        if self.at_sym("-"):
            self.next()
            negate = True
        terms.append(_negated(self.parse_term()) if negate else self.parse_term())
        while self.at_sym("+") or self.at_sym("-"):
            op = self.next().text
            t = self.parse_term()
            terms.append(_negated(t) if op == "-" else t)
        if len(terms) == 1:
            return terms[0]
        return Sum(tuple(terms))

    def parse_term(self) -> Expr:
        t = self.peek()
        if t.kind == "INT":
            self.next()
            n = int(t.text)
            if self.at_sym("*"):
                self.next()
            nxt = self.peek()
            if nxt.kind in ("NAME", "SUSP", "HIGHER") or \
               (nxt.kind == "SYM" and nxt.text in "(["):
                body = self.parse_composed()
                return Scalar(n, body)
            if n == 0:
                return ZERO
            raise ExprSyntaxError("a bare integer term must be 0",
                                  t.line, t.col)
        return self.parse_composed()

    def parse_composed(self) -> Expr:
        out = self.parse_factor()
        while self.at_sym(".") or self.peek().kind == "COMPOSE":
            self.next()
            out = Compose(out, self.parse_factor())
        return out

    def parse_factor(self) -> Expr:
        atom = self.parse_atom()
        if self.at_sym("^"):
            tok = self.next()
            exp = self.expect("INT")
            k = int(exp.text)
            if k < 1:
                raise ExprSyntaxError("power must be positive", tok.line, tok.col)
            return Power(atom, k) if k > 1 else atom
        return atom

    def parse_atom(self) -> Expr:
        t = self.peek()
        if t.kind == "NAME":
            self.next()
            return gen(t.text)
        if t.kind == "INT" and t.text == "0":
            self.next()
            return ZERO
        if t.kind in ("SUSP", "HIGHER") or (t.kind == "SYM" and t.text in "(["):
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ExprSyntaxError(
                    f"nesting deeper than {MAX_NESTING} levels", t.line, t.col)
            e = self.parse_nested(t)
            self.depth -= 1
            return e
        raise ExprSyntaxError(f"expected an expression, found {t.text or 'end of input'!r}",
                              t.line, t.col)

    def parse_nested(self, t: _Tok) -> Expr:
        self.next()
        if t.kind == "SUSP":
            count = 1
            if self.at_sym("^"):
                self.next()
                count = int(self.expect("INT").text)
                if count < 1:
                    raise ExprSyntaxError("suspension count must be positive",
                                          t.line, t.col)
            inner = self.parse_atom()
            return Susp(count, inner)
        if t.kind == "HIGHER":
            self.expect("SYM", "[")
            factors = [self.parse_expr()]
            while self.at_sym(","):
                self.next()
                factors.append(self.parse_expr())
            self.expect("SYM", "]")
            return HigherBracket(tuple(factors))
        if t.text == "[":
            f = self.parse_expr()
            self.expect("SYM", ",")
            g = self.parse_expr()
            self.expect("SYM", "]")
            return Bracket(f, g)
        inner = self.parse_expr()
        self.expect("SYM", ")")
        return inner


def _negated(e: Expr) -> Expr:
    if isinstance(e, Scalar):
        return Scalar(-e.n, e.e)
    return Scalar(-1, e)


def parse(text: str) -> Expr:
    """Parse surface syntax into an Expr; raises ExprSyntaxError with position."""
    toks = _tokenize(fold_unicode(text))
    p = _Parser(toks)
    e = p.parse_expr()
    end = p.peek()
    if end.kind != "END":
        raise ExprSyntaxError(f"trailing input {end.text!r}", end.line, end.col)
    return e
