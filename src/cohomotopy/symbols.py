"""Parser for generator names.

Generator names are ASCII expressions describing composites of classical
homotopy elements, e.g. ``nu_4 . sigma' . S^10 p`` or
``sigma' . eta_14^2 + eta_7 . eps_8`` or ``ext(2 nubar_6)``.

Grammar (whitespace between tokens is optional except around ``.``):

    expr     := term (('+' | '-') term)*
    term     := [coeff] factor
    coeff    := integer | 'odd'
    factor   := atom ('.' atom)*            composition
    atom     := 'S' atom                    suspension
              | 'S^' subscript atom         iterated suspension
              | 'ext' '(' expr ')'          extension over the mapping cone
              | 'coext' '(' expr ')'        coextension
              | '[' ident ',' ident ']'     Whitehead product
              | ident '(' arg ')'           indexed family element
              | ident
    arg      := integer | 'C' | 'n' | expr
    ident    := letters/primes, optional subscripts (digits, 'n', or
                '{...}' like '{n+1}'), optional '^' power
    subscript:= digits | '{' ... '}'

``C`` as an argument marks the mapping-cone domain (as in ``g_10(C)``) and a
bare ``n`` marks a symbolic row index (as in ``beta_1(n)``); neither is a
symbol reference.  The family of an identifier is its leading run of
letters and primes (``nubar_6`` -> ``nubar``, ``nu'`` -> ``nu'``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .abelian import MEMO_SIZE


class NameParseError(Exception):
    def __init__(self, text: str, pos: int, msg: str):
        self.text = text
        self.pos = pos
        super().__init__(f"cannot parse generator name {text!r} at {pos}: {msg}")


IDENT_RE = re.compile(
    r"[A-Za-z][A-Za-z]*'*(?:_(?:\{[^}]+\}|[A-Za-z0-9]+))*'*(?:\^[0-9]+)?"
)
FAMILY_RE = re.compile(r"^[A-Za-z]+'*")
SUSP_RE = re.compile(r"S(?:\^(?:[0-9]+|\{[^}]+\}))?(?=[ (\[])")
NUMBER_RE = re.compile(r"[0-9]+")

MAX_NESTING = 50  # nested atoms (up to 7 frames each); the shipped names nest 3


@dataclass(frozen=True)
class Name:
    ident: str
    arg: object = None  # None | int | "C" | Expr

    def families(self):
        fam = FAMILY_RE.match(self.ident).group(0)
        out = {fam}
        if hasattr(self.arg, "families"):
            out |= self.arg.families()
        return out


@dataclass(frozen=True)
class Susp:
    power: str  # "1" or the ^-argument as written
    inner: object

    def families(self):
        return self.inner.families()


@dataclass(frozen=True)
class Ext:
    kind: str  # "ext" or "coext"
    inner: object

    def families(self):
        return self.inner.families()


@dataclass(frozen=True)
class Bracket:
    left: Name
    right: Name

    def families(self):
        return self.left.families() | self.right.families()


@dataclass(frozen=True)
class Compose:
    parts: tuple

    def families(self):
        out = set()
        for p in self.parts:
            out |= p.families()
        return out


@dataclass(frozen=True)
class Term:
    coeff: object  # int or "odd"
    factor: object

    def families(self):
        return self.factor.families()


@dataclass(frozen=True)
class Expr:
    terms: tuple  # of (sign, Term)

    def families(self):
        out = set()
        for _, t in self.terms:
            out |= t.families()
        return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, msg: str):
        raise NameParseError(self.text, self.pos, msg)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] == " ":
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, tok: str):
        self.skip_ws()
        if not self.text.startswith(tok, self.pos):
            self.error(f"expected {tok!r}")
        self.pos += len(tok)

    def parse(self) -> Expr:
        e = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return e

    def expr(self) -> Expr:
        terms = [(1, self.term())]
        while self.peek() in ("+", "-"):
            sign = 1 if self.peek() == "+" else -1
            self.pos += 1
            terms.append((sign, self.term()))
        return Expr(tuple(terms))

    def term(self) -> Term:
        self.skip_ws()
        coeff: object = 1
        if self.text.startswith("odd ", self.pos):
            coeff = "odd"
            self.pos += 4
        else:
            m = NUMBER_RE.match(self.text, self.pos)
            if m:
                coeff = int(m.group(0))
                self.pos = m.end()
        return Term(coeff, self.factor())

    def factor(self) -> Compose:
        parts = [self.atom()]
        while self.peek() == ".":
            self.pos += 1
            parts.append(self.atom())
        return Compose(tuple(parts))

    def atom(self):
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error(f"nested deeper than {MAX_NESTING} atoms")
        node = self._atom()
        self.depth -= 1
        return node

    def _atom(self):
        self.skip_ws()
        ch = self.peek()
        if ch == "[":
            self.eat("[")
            left = self.ident_atom()
            self.eat(",")
            right = self.ident_atom()
            self.eat("]")
            return Bracket(left, right)
        m = SUSP_RE.match(self.text, self.pos)
        if m:
            power = m.group(0)[2:] if "^" in m.group(0) else "1"
            self.pos = m.end()
            return Susp(power.strip("{}"), self.atom())
        for kw in ("coext", "ext"):
            if self.text.startswith(kw + "(", self.pos):
                self.pos += len(kw)
                self.eat("(")
                inner = self.expr()
                self.eat(")")
                return Ext(kw, inner)
        return self.ident_atom()

    def ident_atom(self) -> Name:
        self.skip_ws()
        m = IDENT_RE.match(self.text, self.pos)
        if not m:
            self.error("expected identifier")
        ident = m.group(0)
        self.pos = m.end()
        if self.pos < len(self.text) and self.text[self.pos] == "(":
            self.eat("(")
            arg = self.arg()
            self.eat(")")
            return Name(ident, arg)
        return Name(ident, None)

    def arg(self):
        self.skip_ws()
        m = NUMBER_RE.match(self.text, self.pos)
        if m and not IDENT_RE.match(self.text, self.pos):
            save = self.pos
            self.pos = m.end()
            if self.peek() == ")":
                return int(m.group(0))
            self.pos = save
        for marker in ("C", "n"):
            if self.text.startswith(marker, self.pos):
                save = self.pos
                self.pos += 1
                if self.peek() == ")":
                    return marker
                self.pos = save
        return self.expr()


def parse_name(text: str) -> Expr:
    """Parse a generator name; raises :class:`NameParseError` on failure."""
    if not text.strip():
        raise NameParseError(text, 0, "empty name")
    return _Parser(text.strip()).parse()


@lru_cache(maxsize=MEMO_SIZE)
def families_of(text: str) -> frozenset[str]:
    """All symbol families referenced by a generator name (cached: a database
    repeats its names; a :class:`NameParseError` is not cached)."""
    return frozenset(parse_name(text).families())
