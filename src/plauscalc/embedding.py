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

``==`` on a ``Frac`` or ``Diff`` compares representatives, as on any named
tuple; the equality of classes is :meth:`Embedding.frac_eq` and
:meth:`Embedding.diff_eq`.  ``==`` on a ``FieldElem`` is class equality.

Addition at the quotient level multiplies both operands by one scaling unit,
``c = min(e, S(e))`` for a nontrivial element ``e`` (``top`` on the trivial
kernel), so the kernel sum stays inside G's domain.  One unit suffices: both
scaled terms are at most ``c``, and ``c <= S(c)`` (see
:meth:`Embedding.frac_add`).  Equality and order are decided by reduction to
kernel equality and order, so every layer inherits decidability from the
kernel.

A kernel value ``d`` embeds as ``(d - 0) / (1 - 0)``; the embedding sends
bottom to 0, top to 1, F to multiplication and G (where defined) to addition.
:func:`verify_embedding` samples those properties and reports witnesses for
any failure.

Kernel values are checked once, where they enter: :meth:`Embedding.frac`,
:meth:`Embedding.embed`, and ``S(e)`` in :attr:`Embedding.unit`.  The
contents of a :class:`Frac`, :class:`Diff` or :class:`FieldElem` built by
those factories or by the tower operations are trusted, and the operations
run on the kernel's unchecked ``_f``, ``_g`` and ``_g_defined``.  A ``Frac``
built by hand with an entry outside the domain is not caught by a tower
operation.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import Any, NamedTuple

from .kernels import AxiomCheck, AxiomReport, Kernel, UndefinedSumError

__all__ = [
    "Frac",
    "Diff",
    "FieldElem",
    "Embedding",
    "EmbeddingReport",
    "verify_embedding",
]

Value = Any


class Frac(NamedTuple):
    """Formal quotient [a, b] of kernel values, b nonzero."""

    a: Value
    b: Value


class Diff(NamedTuple):
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

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        k = kernel
        self.frac_zero = Frac(k.bottom, k.top)
        self.frac_one = Frac(k.top, k.top)
        self.diff_zero = Diff(self.frac_zero, self.frac_zero)
        self.diff_one = Diff(self.frac_one, self.frac_zero)
        self.zero = FieldElem(self.diff_zero, self.diff_one, self)
        self.one = FieldElem(self.diff_one, self.diff_one, self)

    # -- scaling unit ---------------------------------------------------------

    @cached_property
    def unit(self) -> Value:
        """c = min(e, S(e)) for the kernel's nontrivial element e; top if none."""
        k = self.kernel
        e = k.nontrivial
        if e is None:
            return k.top
        se = k.S(e)
        return e if k.leq(e, se) else se

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

    def frac_add(self, x: Frac, y: Frac) -> Frac:
        """[a,b] + [p,q] = [c.a.q + c.p.b, c.b.q] for the scaling unit c.

        The unit is :attr:`unit`, c = min(e, S(e)), and with it G is always
        defined on a kernel whose laws hold.  Both scaled terms
        t1 = F(c, F(a, q)) and t2 = F(c, F(p, b)) are at most c, because F is
        below the minimum of its arguments.  And c <= S(c): if c = e, then
        e <= S(e); if c = S(e) <= e, then S(S(e)) >= S(e) because S is
        antitone.  So S(t2) >= S(c) >= c >= t1, which is G's domain.

        If G is undefined at the unit (on the trivial kernel, [1,1] + [1,1],
        or on a kernel that breaks a law this proof uses), the sum raises
        :class:`UndefinedSumError`.
        """
        k, c = self.kernel, self.unit
        t1 = k._f(c, k._f(x.a, y.b))
        t2 = k._f(c, k._f(y.a, x.b))
        if not k._g_defined(t1, t2):
            raise UndefinedSumError("summation unit exhausted")
        return Frac(k._g(t1, t2), k._f(c, k._f(x.b, y.b)))

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


class EmbeddingReport(AxiomReport):
    __slots__ = ()
    header = "embedding over kernel {kernel}: {samples} sample pairs, seed {seed}"
    passed_verdict = "embedding verified"
    failed_verdict = "embedding violated"


def verify_embedding(kernel: Kernel, samples: int = 200, seed: int = 0) -> EmbeddingReport:
    """Sample pairs and confirm the embedding is a strictly monotone
    homomorphism: multiplication extends F, addition extends G where defined,
    the order is preserved both ways, and distinct values stay distinct."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    emb = Embedding(kernel)
    k = kernel
    rng = random.Random(seed)
    report = EmbeddingReport(kernel=k.name, samples=samples, seed=seed)
    checks = report.checks
    for name in ("multiplicative", "additive", "order-preserving", "injective"):
        checks[name] = AxiomCheck(name)

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

    return report
