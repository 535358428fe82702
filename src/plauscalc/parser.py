"""Recursive-descent parser for exact eps-expressions.

Grammar (whitespace insensitive)::

    Expr     := Term (('+' | '-') Term)*
    Term     := Pow (('*' | '/') Pow)*
    Pow      := Atom ('^' UInt)?
    Atom     := '-'? (Rational | 'eps' | '(' Expr ')')
    Rational := UInt ('/' UInt)?

``^`` binds tighter than ``*`` and ``/``; exponents are nonnegative integer
literals.  All arithmetic is exact, so ``1/2`` parsed as a division and as a
rational literal denote the same value.  Parsing yields the canonical
:class:`~plauscalc.epsnum.EpsRational` of the expression.

Three limits keep the time and memory of a parse bounded for any input; a
violation is an :class:`EpsSyntaxError` like any other:

* ``MAX_TOKENS`` tokens in one expression;
* ``MAX_DEPTH`` levels of nested parentheses and unary minus signs;
* ``MAX_SIZE`` for the *size* of an expression: the number of literals and
  ``eps`` symbols it has once every power ``x^n`` is written out as ``n``
  copies of ``x`` (one copy for ``x^0``).  The size bounds the degree of every intermediate value
  and the growth of its coefficients, and with it the exponents: ``eps^n``
  has size ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .epsnum import EPS, EpsRational, const

__all__ = [
    "EpsSyntaxError",
    "parse_eps_expr",
    "parse_ast",
    "Num",
    "Var",
    "BinOp",
    "Power",
    "Negate",
    "MAX_TOKENS",
    "MAX_DEPTH",
    "MAX_SIZE",
]

MAX_TOKENS = 1000
MAX_DEPTH = 100
MAX_SIZE = 256


class EpsSyntaxError(ValueError):
    """Syntax error with the 0-based position of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position


# -- expression tree ---------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Var:
    pass  # the infinitesimal symbol


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Power:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Negate:
    operand: "Node"


Node = Union[Num, Var, BinOp, Power, Negate]


# -- tokenizer ----------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
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
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
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
                raise EpsSyntaxError(f"unknown symbol {word!r}", i)
            tokens.append(_Token("eps", word, i))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        raise EpsSyntaxError(f"unexpected character {ch!r}", i)
    if len(tokens) > MAX_TOKENS:
        raise EpsSyntaxError(f"more than {MAX_TOKENS} tokens", tokens[MAX_TOKENS].pos)
    tokens.append(_Token("end", "", n))
    return tokens


# -- parser --------------------------------------------------------------------


class _Parser:
    """Each rule returns the parsed node and its size (see ``MAX_SIZE``)."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.index = 0
        self.depth = 0

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

    def parse(self) -> Node:
        node, _ = self.expr()
        t = self.token
        if t.kind != "end":
            raise EpsSyntaxError(f"unexpected {t.text!r}", t.pos)
        return node

    def expr(self) -> tuple[Node, int]:
        node, size = self.term()
        while True:
            t = self.token
            op = self.accept_op("+", "-")
            if op is None:
                return node, size
            right, right_size = self.term()
            node, size = BinOp(op, node, right), _checked_size(size + right_size, t)

    def term(self) -> tuple[Node, int]:
        node, size = self.power()
        while True:
            t = self.token
            op = self.accept_op("*", "/")
            if op is None:
                return node, size
            right, right_size = self.power()
            node, size = BinOp(op, node, right), _checked_size(size + right_size, t)

    def power(self) -> tuple[Node, int]:
        base, size = self.atom()
        if self.accept_op("^"):
            t = self.token
            if t.kind != "int":
                raise EpsSyntaxError("expected a nonnegative integer exponent", t.pos)
            self.advance()
            n = _int(t)
            # x^0 still evaluates x, so it costs one copy of it.
            return Power(base, n), _checked_size(max(n, 1) * size, t)
        return base, size

    def atom(self) -> tuple[Node, int]:
        t = self.token
        if t.kind == "op" and t.text in ("-", "("):
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise EpsSyntaxError(f"nested more than {MAX_DEPTH} deep", t.pos)
            self.advance()
            if t.text == "-":
                node, size = self.atom()
                node = Negate(node)
            else:
                node, size = self.expr()
                self.expect_op(")")
            self.depth -= 1
            return node, size
        if t.kind == "int":
            self.advance()
            return Num(Fraction(_int(t))), 1
        if t.kind == "eps":
            self.advance()
            return Var(), 1
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


def _evaluate(node: Node) -> EpsRational:
    if isinstance(node, Num):
        return const(node.value)
    if isinstance(node, Var):
        return EPS
    if isinstance(node, Negate):
        return -_evaluate(node.operand)
    if isinstance(node, Power):
        return _evaluate(node.base) ** node.exponent
    if isinstance(node, BinOp):
        left = _evaluate(node.left)
        right = _evaluate(node.right)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        return left / right
    raise TypeError(f"not an expression node: {node!r}")


def parse_ast(text: str) -> Node:
    """Parse to the expression tree without evaluating."""
    return _Parser(_tokenize(text)).parse()


def parse_eps_expr(text: str) -> EpsRational:
    """Parse an eps-expression to its canonical exact value.

    Raises :class:`EpsSyntaxError` on malformed input and
    :class:`ZeroDivisionError` when the expression divides by zero.
    """
    return _evaluate(parse_ast(text))
