"""Constructive embedding of a plausibility kernel into an ordered field.

The construction is a three-storey quotient tower built from kernel values
using only F, G, S and the order:

1. :class:`Frac` -- formal quotients ``[a, b]`` with ``b`` nonzero, equal when
   the cross products agree; this adjoins division.
2. :class:`Diff` -- formal differences ``[[p, n]]`` of quotients, equal when
   the cross sums agree; this adjoins subtraction, giving an ordered integral
   domain.
3. :class:`FieldElem` -- quotients of differences, the field of fractions of
   that domain.

Addition at the quotient level multiplies both operands by a small scaling
unit first so the kernel sum stays inside G's domain; units are powers of
``c = min(e, S(e))`` for a nontrivial element ``e``, searched smallest power
first.  Equality and order are decided by reduction to kernel equality and
order, so every layer inherits decidability from the kernel.

A kernel value ``d`` embeds as ``(d - 0) / (1 - 0)``; the embedding sends
bottom to 0, top to 1, F to multiplication and G (where defined) to addition.
:func:`verify_embedding` samples those properties and reports witnesses for
any failure.

Kernel values are checked once, where they enter: :meth:`Embedding.frac`,
:meth:`Embedding.embed`, an explicit ``unit`` given to
:meth:`Embedding.frac_add`, and ``S(e)`` in :meth:`Embedding.base_unit`.  The
contents of a :class:`Frac`, :class:`Diff` or :class:`FieldElem` built by
those factories or by the tower operations are trusted, and the operations
run on the kernel's unchecked ``_f``, ``_g`` and ``_g_defined``.  A ``Frac``
built by hand with an entry outside the domain is not caught by a tower
operation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Optional

from .kernels import AxiomCheck, Kernel, TrivialKernelError

__all__ = [
    "UnitSearchError",
    "Frac",
    "Diff",
    "FieldElem",
    "Embedding",
    "EmbeddingReport",
    "verify_embedding",
]

Value = Any


class UnitSearchError(RuntimeError):
    """No scaling unit within the power budget kept a sum defined."""


@dataclass(frozen=True)
class Frac:
    """Formal quotient [a, b] of kernel values, b nonzero."""

    a: Value
    b: Value


@dataclass(frozen=True)
class Diff:
    """Formal difference [[pos, neg]] of two quotients."""

    pos: Frac
    neg: Frac


class FieldElem:
    """A quotient of differences; an element of the embedding field.

    Comparison operators decide equality and order mathematically (by
    cross-multiplication), not structurally, so distinct representatives of
    the same class compare equal.  Elements are tied to the
    :class:`Embedding` that produced them.
    """

    __slots__ = ("num", "den", "emb")

    def __init__(self, num: Diff, den: Diff, emb: "Embedding"):
        self.num = num
        self.den = den
        self.emb = emb

    def _check_peer(self, other: "FieldElem") -> "FieldElem":
        if not isinstance(other, FieldElem) or other.emb is not self.emb:
            raise TypeError("field elements belong to different embeddings")
        return other

    def __add__(self, other):
        return self.emb.field_add(self, self._check_peer(other))

    def __sub__(self, other):
        return self.emb.field_add(self, self.emb.field_neg(self._check_peer(other)))

    def __mul__(self, other):
        return self.emb.field_mul(self, self._check_peer(other))

    def __truediv__(self, other):
        return self.emb.field_mul(self, self.emb.field_inverse(self._check_peer(other)))

    def __neg__(self):
        return self.emb.field_neg(self)

    def __eq__(self, other):
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.emb.field_eq(self, self._check_peer(other))

    def __lt__(self, other):
        return self.emb.field_lt(self, self._check_peer(other))

    def __le__(self, other):
        return not self.emb.field_lt(self._check_peer(other), self)

    def __gt__(self, other):
        return self.emb.field_lt(self._check_peer(other), self)

    def __ge__(self, other):
        return not self.emb.field_lt(self, self._check_peer(other))

    __hash__ = None  # equality is class equality, not structural

    def __repr__(self):
        k = self.emb.kernel
        f = lambda fr: f"[{k.fmt(fr.a)},{k.fmt(fr.b)}]"
        d = lambda df: f"[[{f(df.pos)} - {f(df.neg)}]]"
        return f"FieldElem({d(self.num)} / {d(self.den)})"


class Embedding:
    """The ordered field constructed over one kernel."""

    def __init__(self, kernel: Kernel, unit_budget: int = 64):
        self.kernel = kernel
        self.unit_budget = unit_budget
        self._units: list[Value] = []
        k = kernel
        self.frac_zero = Frac(k.bottom, k.top)
        self.frac_one = Frac(k.top, k.top)
        self.diff_zero = Diff(self.frac_zero, self.frac_zero)
        self.diff_one = Diff(self.frac_one, self.frac_zero)
        self.zero = FieldElem(self.diff_zero, self.diff_one, self)
        self.one = FieldElem(self.diff_one, self.diff_one, self)

    # -- scaling units ---------------------------------------------------------

    def base_unit(self) -> Value:
        """c = min(e, S(e)) for the kernel's nontrivial element e."""
        k = self.kernel
        e = k.nontrivial_element()  # raises TrivialKernelError if none
        se = k.S(e)
        return e if k.leq(e, se) else se

    def _unit(self, i: int) -> Optional[Value]:
        """i-th candidate unit: c^(i+1); the trivial kernel only offers top."""
        k = self.kernel
        if not self._units:
            try:
                self._units.append(self.base_unit())
            except TrivialKernelError:
                self._units.append(k.top)
        if k.eq(self._units[0], k.top):
            return k.top if i == 0 else None
        while len(self._units) <= i:
            self._units.append(k._f(self._units[-1], self._units[0]))
        return self._units[i]

    def choose_unit(self, n: int) -> Value:
        """A unit small enough that any n-fold scaled sum stays defined.

        Returns c^ceil(log2 n), with the convention that n = 1 still returns
        c itself so every summation path scales uniformly.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        c = self.base_unit()
        exponent = max(1, (n - 1).bit_length())
        out = c
        for _ in range(exponent - 1):
            out = self.kernel._f(out, c)
        return out

    # -- quotient layer -----------------------------------------------------------

    def frac(self, a: Value, b: Value) -> Frac:
        k = self.kernel
        k._require(a, b)
        if k.eq(b, k.bottom):
            raise ZeroDivisionError("quotient with zero denominator")
        return Frac(a, b)

    def frac_eq(self, x: Frac, y: Frac) -> bool:
        k = self.kernel
        return k.eq(k._f(x.a, y.b), k._f(x.b, y.a))

    def frac_lt(self, x: Frac, y: Frac) -> bool:
        k = self.kernel
        return k.lt(k._f(x.a, y.b), k._f(y.a, x.b))

    def frac_mul(self, x: Frac, y: Frac) -> Frac:
        k = self.kernel
        return Frac(k._f(x.a, y.a), k._f(x.b, y.b))

    def frac_add(self, x: Frac, y: Frac, unit: Optional[Value] = None) -> Frac:
        """[a,b] + [c,d] = [e.a.d + e.c.b, e.b.d] for a unit e keeping G defined.

        With ``unit`` given, that scaling is used or an error raised; otherwise
        candidate units are tried smallest power first.
        """
        k = self.kernel
        if unit is not None:
            k._require(unit)
        candidates = (
            [unit] if unit is not None else (self._unit(i) for i in range(self.unit_budget))
        )
        for e in candidates:
            if e is None:
                break
            t1 = k._f(e, k._f(x.a, y.b))
            t2 = k._f(e, k._f(y.a, x.b))
            if k._g_defined(t1, t2):
                return Frac(k._g(t1, t2), k._f(e, k._f(x.b, y.b)))
        raise UnitSearchError("summation unit exhausted")

    # -- difference layer -----------------------------------------------------------

    def diff_of(self, x: Frac) -> Diff:
        return Diff(x, self.frac_zero)

    def diff_eq(self, x: Diff, y: Diff) -> bool:
        return self.frac_eq(self.frac_add(x.pos, y.neg), self.frac_add(x.neg, y.pos))

    def diff_lt(self, x: Diff, y: Diff) -> bool:
        return self.frac_lt(self.frac_add(x.pos, y.neg), self.frac_add(y.pos, x.neg))

    def diff_sign(self, x: Diff) -> int:
        if self.frac_lt(x.neg, x.pos):
            return 1
        if self.frac_lt(x.pos, x.neg):
            return -1
        return 0

    def diff_add(self, x: Diff, y: Diff) -> Diff:
        return Diff(self.frac_add(x.pos, y.pos), self.frac_add(x.neg, y.neg))

    def diff_neg(self, x: Diff) -> Diff:
        return Diff(x.neg, x.pos)

    def diff_mul(self, x: Diff, y: Diff) -> Diff:
        return Diff(
            self.frac_add(self.frac_mul(x.pos, y.pos), self.frac_mul(x.neg, y.neg)),
            self.frac_add(self.frac_mul(x.pos, y.neg), self.frac_mul(x.neg, y.pos)),
        )

    # -- field layer --------------------------------------------------------------------

    def field(self, num: Diff, den: Diff) -> FieldElem:
        if self.diff_sign(den) == 0:
            raise ZeroDivisionError("field element with zero denominator")
        return FieldElem(num, den, self)

    def field_eq(self, x: FieldElem, y: FieldElem) -> bool:
        return self.diff_eq(self.diff_mul(x.num, y.den), self.diff_mul(y.num, x.den))

    def field_sign(self, x: FieldElem) -> int:
        return self.diff_sign(x.num) * self.diff_sign(x.den)

    def field_lt(self, x: FieldElem, y: FieldElem) -> bool:
        flip = self.diff_sign(x.den) * self.diff_sign(y.den) < 0
        lhs = self.diff_mul(x.num, y.den)
        rhs = self.diff_mul(y.num, x.den)
        return self.diff_lt(rhs, lhs) if flip else self.diff_lt(lhs, rhs)

    def field_add(self, x: FieldElem, y: FieldElem) -> FieldElem:
        return FieldElem(
            self.diff_add(self.diff_mul(x.num, y.den), self.diff_mul(y.num, x.den)),
            self.diff_mul(x.den, y.den),
            self,
        )

    def field_neg(self, x: FieldElem) -> FieldElem:
        return FieldElem(self.diff_neg(x.num), x.den, self)

    def field_mul(self, x: FieldElem, y: FieldElem) -> FieldElem:
        return FieldElem(
            self.diff_mul(x.num, y.num), self.diff_mul(x.den, y.den), self
        )

    def field_inverse(self, x: FieldElem) -> FieldElem:
        if self.diff_sign(x.num) == 0:
            raise ZeroDivisionError("cannot invert zero")
        return FieldElem(x.den, x.num, self)

    # -- the embedding itself -----------------------------------------------------------

    def embed(self, x: Value) -> FieldElem:
        """Kernel value as a field element: (x - 0) / (1 - 0)."""
        self.kernel._require(x)
        return FieldElem(self.diff_of(Frac(x, self.kernel.top)), self.diff_one, self)


@dataclass
class EmbeddingReport:
    kernel: str
    samples: int
    seed: int
    checks: dict[str, AxiomCheck]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def format_lines(self) -> list[str]:
        lines = [f"embedding over kernel {self.kernel}: {self.samples} sample pairs, seed {self.seed}"]
        lines.extend(c.format() for c in self.checks.values())
        lines.append(
            "embedding verified" if self.all_passed else "embedding violated"
        )
        return lines


def verify_embedding(kernel: Kernel, samples: int = 200, seed: int = 0) -> EmbeddingReport:
    """Sample pairs and confirm the embedding is a strictly monotone
    homomorphism: multiplication extends F, addition extends G where defined,
    the order is preserved both ways, and distinct values stay distinct."""
    emb = Embedding(kernel)
    k = kernel
    rng = random.Random(seed)
    checks = {
        name: AxiomCheck(name)
        for name in ("multiplicative", "additive", "order-preserving", "injective")
    }

    for _ in range(samples):
        x = k.sample(rng)
        y = k.sample(rng)
        ex, ey = emb.embed(x), emb.embed(y)

        checks["multiplicative"].record(
            k,
            emb.field_eq(emb.embed(k._f(x, y)), emb.field_mul(ex, ey)),
            (x, y),
            "embed(F(x,y)) != embed(x) * embed(y)",
        )
        if k._g_defined(x, y):
            checks["additive"].record(
                k,
                emb.field_eq(emb.embed(k._g(x, y)), emb.field_add(ex, ey)),
                (x, y),
                "embed(G(x,y)) != embed(x) + embed(y)",
            )
        checks["order-preserving"].record(
            k,
            k.lt(x, y) == emb.field_lt(ex, ey) and k.lt(y, x) == emb.field_lt(ey, ex),
            (x, y),
            "order of embeddings disagrees with kernel order",
        )
        checks["injective"].record(
            k,
            k.eq(x, y) == emb.field_eq(ex, ey),
            (x, y),
            "embedding identifies distinct values (or splits equal ones)",
        )

    return EmbeddingReport(kernel=k.name, samples=samples, seed=seed, checks=checks)
