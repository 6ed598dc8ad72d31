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
from functools import lru_cache

from .abelian import MEMO_SIZE


class NameParseError(Exception):
    def __init__(self, text: str, pos: int, msg: str):
        self.text = text
        self.pos = pos
        super().__init__(f"cannot parse generator name {text!r} at {pos}: {msg}")


IDENT_RE = re.compile(
    r"([A-Za-z]+'*)(?:_(?:\{[^}]+\}|[A-Za-z0-9]+))*'*(?:\^[0-9]+)?"
)  # group 1 is the family
SUSP_RE = re.compile(r"S(?:\^(?:[0-9]+|\{[^}]+\}))?(?=[ (\[])")
EXT_RE = re.compile(r"(?:co)?ext\(")
NUMBER_RE = re.compile(r"[0-9]+")
MARKER_ARG_RE = re.compile(r" *(?:[0-9]+|[Cn]) *(?=\))")  # integer, 'C' or 'n' argument

MAX_NESTING = 50  # nested atoms (up to 4 frames each); the shipped names nest 3


class _Parser:
    """Recursive descent over the grammar above; the family of each identifier
    read is added to ``families``."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.families: set[str] = set()

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

    def parse(self) -> frozenset[str]:
        self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return frozenset(self.families)

    def expr(self):
        self.term()
        while self.peek() in ("+", "-"):
            self.pos += 1
            self.term()

    def term(self):
        """``[coeff] factor``, the factor's composition read in place."""
        self.skip_ws()
        if self.text.startswith("odd ", self.pos):
            self.pos += 4
        else:
            m = NUMBER_RE.match(self.text, self.pos)
            if m:
                self.pos = m.end()
        self.atom()
        while self.peek() == ".":
            self.pos += 1
            self.atom()

    def atom(self):
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error(f"nested deeper than {MAX_NESTING} atoms")
        self.skip_ws()
        if self.text.startswith("[", self.pos):
            self.pos += 1
            self.ident_atom()
            self.eat(",")
            self.ident_atom()
            self.eat("]")
        elif m := SUSP_RE.match(self.text, self.pos):
            self.pos = m.end()
            self.atom()
        elif m := EXT_RE.match(self.text, self.pos):
            self.pos = m.end()
            self.expr()
            self.eat(")")
        else:
            self.ident_atom()
        self.depth -= 1

    def ident_atom(self):
        self.skip_ws()
        m = IDENT_RE.match(self.text, self.pos)
        if not m:
            self.error("expected identifier")
        self.families.add(m.group(1))
        self.pos = m.end()
        if self.text.startswith("(", self.pos):
            self.pos += 1
            m = MARKER_ARG_RE.match(self.text, self.pos)
            if m:
                self.pos = m.end()
            else:
                self.expr()
            self.eat(")")


@lru_cache(maxsize=MEMO_SIZE)
def families_of(text: str) -> frozenset[str]:
    """All symbol families referenced by a generator name; raises
    :class:`NameParseError` unless the whole name parses (cached: a database
    repeats its names; an error is not cached)."""
    if not text.strip():
        raise NameParseError(text, 0, "empty name")
    return _Parser(text.strip()).parse()
