"""Recursive-descent parser for exact eps-expressions.

Grammar (whitespace insensitive)::

    Expr := Term (('+' | '-') Term)*
    Term := Pow (('*' | '/') Pow)*
    Pow  := Atom ('^' UInt)?
    Atom := '-'? (UInt | 'eps' | '(' Expr ')')

``^`` binds tighter than ``*`` and ``/``, so ``2/3^2`` is ``2/9``; exponents
are nonnegative integer literals.  A ``UInt`` is a run of decimal digits (the
characters ``int`` accepts).  An input that is one plain rational literal,
``p`` or ``p/q`` in ASCII digits with ``q`` nonzero, is converted directly,
to the same value the rules give it.  The rules evaluate as they parse, so
parsing yields the canonical :class:`~plauscalc.epsnum.EpsRational` of the
expression directly; no expression tree is built.  A syntax error anywhere in
the input wins over a division by zero: the first division by zero is kept,
the quotient counts as zero, and the error is raised only once the whole
input has parsed.

Three limits keep the time and memory of a parse bounded for any input; a
violation is an :class:`EpsSyntaxError` like any other:

* ``MAX_TOKENS`` tokens in one expression;
* ``MAX_DEPTH`` levels of nested parentheses and unary minus signs;
* ``MAX_SIZE`` for the *size* of an expression: the number of literals and
  ``eps`` symbols it has once every power ``x^n`` is written out as ``n``
  copies of ``x`` (one copy for ``x^0``).  The size bounds the degree of
  every intermediate value and the growth of its coefficients, and with it
  the exponents: ``eps^n`` has size ``n``.  Each size is checked before the
  operation it bounds is computed.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from .epsnum import EPS, ZERO, EpsRational, _clip, _ratio, const

__all__ = [
    "EpsSyntaxError",
    "parse_eps_expr",
    "MAX_TOKENS",
    "MAX_DEPTH",
    "MAX_SIZE",
]

MAX_TOKENS = 1000
MAX_DEPTH = 100
MAX_SIZE = 256

# One plain rational literal, converted without the rules.
_LITERAL = re.compile(r"[0-9]+(/[0-9]+)?")


class EpsSyntaxError(ValueError):
    """Syntax error with the 0-based position of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position


# -- tokenizer ----------------------------------------------------------------


class _Token(NamedTuple):
    kind: str  # int | eps | op | end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n and len(tokens) <= MAX_TOKENS:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(_Token("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            word = text[i:j]
            if word != "eps":
                raise EpsSyntaxError(f"unknown symbol {_clip(word)}", i)
            tokens.append(_Token("eps", word, i))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        raise EpsSyntaxError(f"unexpected character {_clip(ch)}", i)
    if len(tokens) > MAX_TOKENS:
        raise EpsSyntaxError(f"more than {MAX_TOKENS} tokens", tokens[MAX_TOKENS].pos)
    tokens.append(_Token("end", "", n))
    return tokens


# -- parser --------------------------------------------------------------------


class _Parser:
    """Each rule returns the value it parsed and its size (see ``MAX_SIZE``)."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.index = 0
        self.depth = 0
        self.zero_division: Optional[ZeroDivisionError] = None

    @property
    def token(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        t = self.token
        self.index += 1
        return t

    def accept_op(self, *ops: str) -> Optional[str]:
        t = self.token
        if t.kind == "op" and t.text in ops:
            self.advance()
            return t.text
        return None

    def expect_op(self, op: str) -> None:
        t = self.token
        if t.kind != "op" or t.text != op:
            raise EpsSyntaxError(f"expected {op!r}", t.pos)
        self.advance()

    def parse(self) -> EpsRational:
        value, _ = self.expr()
        t = self.token
        if t.kind != "end":
            raise EpsSyntaxError(f"unexpected {_clip(t.text)}", t.pos)
        if self.zero_division is not None:
            raise self.zero_division
        return value

    def expr(self) -> tuple[EpsRational, int]:
        value, size = self.term()
        while True:
            t = self.token
            op = self.accept_op("+", "-")
            if op is None:
                return value, size
            right, right_size = self.term()
            size = _checked_size(size + right_size, t)
            value = value + right if op == "+" else value - right

    def term(self) -> tuple[EpsRational, int]:
        value, size = self.power()
        while True:
            t = self.token
            op = self.accept_op("*", "/")
            if op is None:
                return value, size
            right, right_size = self.power()
            size = _checked_size(size + right_size, t)
            if op == "*":
                value = value * right
                continue
            try:
                value = value / right
            except ZeroDivisionError as exc:  # raised in parse(), after any syntax error
                self.zero_division = self.zero_division or exc
                value = ZERO

    def power(self) -> tuple[EpsRational, int]:
        base, size = self.atom()
        if not self.accept_op("^"):
            return base, size
        t = self.token
        if t.kind != "int":
            raise EpsSyntaxError("expected a nonnegative integer exponent", t.pos)
        self.advance()
        n = _int(t)
        # x^0 has evaluated x, so it costs one copy of it.
        size = _checked_size(max(n, 1) * size, t)
        return base ** n, size

    def atom(self) -> tuple[EpsRational, int]:
        t = self.token
        if t.kind == "op" and t.text in ("-", "("):
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise EpsSyntaxError(f"nested more than {MAX_DEPTH} deep", t.pos)
            self.advance()
            if t.text == "-":
                value, size = self.atom()
                value = -value
            else:
                value, size = self.expr()
                self.expect_op(")")
            self.depth -= 1
            return value, size
        if t.kind == "int":
            self.advance()
            return const(_int(t)), 1
        if t.kind == "eps":
            self.advance()
            return EPS, 1
        raise EpsSyntaxError("expected a value", t.pos)


def _int(t: _Token) -> int:
    try:
        return int(t.text)
    except ValueError:  # longer than the interpreter converts
        raise EpsSyntaxError("integer literal too long", t.pos) from None


def _checked_size(size: int, at: _Token) -> int:
    if size > MAX_SIZE:
        raise EpsSyntaxError(f"expression too large (size over {MAX_SIZE})", at.pos)
    return size


def parse_eps_expr(text: str) -> EpsRational:
    """Parse an eps-expression to its canonical exact value.

    Raises :class:`EpsSyntaxError` on malformed input and
    :class:`ZeroDivisionError` when the expression divides by zero.
    """
    if _LITERAL.fullmatch(text):
        p, _, q = text.partition("/")
        try:
            num, den = int(p), int(q or "1")
        except ValueError:  # longer than the interpreter converts
            den = 0
        if den:  # otherwise the rules raise the error
            return _ratio(num, den)
    return _Parser(_tokenize(text)).parse()
