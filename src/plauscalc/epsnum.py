"""Exact arithmetic in the ordered field of rational functions of one infinitesimal.

Values are quotients of polynomials in ``eps`` with arbitrary-precision rational
coefficients.  ``eps`` is ordered as a positive infinitesimal: nonzero, yet
smaller than every positive rational constant.  The sign of a value is the sign
it takes for all sufficiently small positive arguments, which is decided
symbolically from the lowest-order nonzero coefficient of the canonical
numerator (the canonical denominator is positive near zero by construction).

Every value is kept in a unique canonical form, so equality is structural:

* numerator and denominator are coprime (monic polynomial gcd convention),
* all coefficients are integers whose joint gcd is 1,
* the lowest-order nonzero coefficient of the denominator is positive.

All values are immutable and all operations are pure.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

__all__ = [
    "EpsPolynomial",
    "EpsRational",
    "InfiniteValueError",
    "ZERO",
    "ONE",
    "EPS",
    "const",
    "as_eps",
]

_F0 = Fraction(0)
_F1 = Fraction(1)


class InfiniteValueError(ArithmeticError):
    """Raised when a finite-only operation meets an infinite value."""


def _as_fraction(x: Union[int, Fraction]) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class EpsPolynomial:
    """Polynomial in ``eps``, coefficients ascending by power, trailing nonzero.

    The empty coefficient sequence is the zero polynomial.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Union[int, Fraction]] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _raw(cls, coeffs: Sequence[Fraction]) -> "EpsPolynomial":
        # Internal: coefficients already Fractions, possibly untrimmed.
        n = len(coeffs)
        while n and coeffs[n - 1] == 0:
            n -= 1
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", tuple(coeffs[:n]))
        return p

    def __setattr__(self, name, value):
        raise AttributeError("EpsPolynomial is immutable")

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def valuation(self) -> int:
        """Index of the lowest nonzero coefficient; -1 for zero."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return -1

    @property
    def lowest_coeff(self) -> Fraction:
        for c in self.coeffs:
            if c != 0:
                return c
        return _F0

    @property
    def leading_coeff(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else _F0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, EpsPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "EpsPolynomial") -> "EpsPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return EpsPolynomial._raw(out)

    def __sub__(self, other: "EpsPolynomial") -> "EpsPolynomial":
        out = list(self.coeffs)
        b = other.coeffs
        if len(b) > len(out):
            out.extend([_F0] * (len(b) - len(out)))
        for i, c in enumerate(b):
            out[i] = out[i] - c
        return EpsPolynomial._raw(out)

    def __neg__(self) -> "EpsPolynomial":
        return EpsPolynomial._raw([-c for c in self.coeffs])

    def __mul__(self, other: "EpsPolynomial") -> "EpsPolynomial":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _P_ZERO
        out = [_F0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                if cb != 0:
                    out[i + j] += ca * cb
        return EpsPolynomial._raw(out)

    def scale(self, k: Fraction) -> "EpsPolynomial":
        if k == 0:
            return _P_ZERO
        return EpsPolynomial._raw([c * k for c in self.coeffs])

    def divmod(self, other: "EpsPolynomial") -> tuple["EpsPolynomial", "EpsPolynomial"]:
        """Polynomial long division; exact rational arithmetic."""
        if other.is_zero:
            raise ZeroDivisionError("division by zero")
        rem = list(self.coeffs)
        dlead = other.leading_coeff
        dd = other.degree
        if len(rem) - 1 < dd:
            return _P_ZERO, self
        quot = [_F0] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = c / dlead
            quot[i - dd] = q
            for j, b in enumerate(other.coeffs):
                rem[i - dd + j] -= q * b
        return EpsPolynomial._raw(quot), EpsPolynomial._raw(rem)

    def __floordiv__(self, other: "EpsPolynomial") -> "EpsPolynomial":
        q, r = self.divmod(other)
        if not r.is_zero:
            raise ValueError("inexact polynomial division")
        return q

    def __mod__(self, other: "EpsPolynomial") -> "EpsPolynomial":
        return self.divmod(other)[1]

    # -- normal forms ------------------------------------------------------

    def monic(self) -> "EpsPolynomial":
        if self.is_zero:
            return self
        lead = self.leading_coeff
        if lead == 1:
            return self
        return self.scale(1 / lead)

    def primitive(self) -> "EpsPolynomial":
        """Scale to integer coefficients with gcd 1, keeping the leading sign."""
        if self.is_zero:
            return self
        c = _content([c for c in self.coeffs if c != 0])
        if c == 1:
            return self
        return self.scale(1 / c)

    def eval_at(self, t: Fraction) -> Fraction:
        """Exact evaluation by Horner's rule."""
        acc = _F0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            elif i == 1:
                body = "eps" if mag == 1 else f"{mag}*eps"
            else:
                body = f"eps^{i}" if mag == 1 else f"{mag}*eps^{i}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"EpsPolynomial({list(self.coeffs)!r})"


_P_ZERO = EpsPolynomial._raw(())
_P_ONE = EpsPolynomial._raw((_F1,))


def _content(fracs: Sequence[Fraction]) -> Fraction:
    """gcd of rationals: gcd of numerators over lcm of denominators, positive."""
    g = 0
    l = 1
    for f in fracs:
        g = math.gcd(g, abs(f.numerator))
        l = l * f.denominator // math.gcd(l, f.denominator)
    return Fraction(g, l)


def poly_gcd(a: EpsPolynomial, b: EpsPolynomial) -> EpsPolynomial:
    """Monic gcd via the Euclidean algorithm.

    Remainders are rescaled to primitive form each step to keep coefficient
    growth in check; rescaling changes nothing up to units.
    """
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    a = a.primitive()
    b = b.primitive()
    while not b.is_zero:
        r = a % b
        a, b = b, r.primitive() if not r.is_zero else r
    return a.monic()


def positive_root_lower_bound(p: EpsPolynomial) -> Fraction:
    """A positive rational strictly below every positive root of ``p``.

    Strip the power of eps dividing ``p``; a positive root r of the remaining
    part q gives a root 1/r of the reversed polynomial, and the Cauchy bound
    on the reversed polynomial caps 1/r.  When q is constant there is no
    positive root and 1 is returned (any positive bound is valid).

    The sign of ``p`` is therefore constant on (0, bound), which makes exact
    evaluation anywhere in that interval a sound sign oracle.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no sign to bound")
    v = p.valuation
    q = p.coeffs[v:]
    if len(q) == 1:
        return _F1
    low = abs(q[0])
    h = _F1 + max(abs(c) / low for c in q[1:])
    return 1 / h


_Coercible = Union[int, Fraction, "EpsRational"]


class EpsRational:
    """An element of the ordered field of rational functions of ``eps``.

    Instances are immutable, hashable, totally ordered, and always canonical;
    ``==`` is structural equality of the canonical form.
    """

    __slots__ = ("num", "den")

    num: EpsPolynomial
    den: EpsPolynomial

    def __init__(
        self,
        num: Union[EpsPolynomial, Iterable, int, Fraction] = 0,
        den: Union[EpsPolynomial, Iterable, int, Fraction] = 1,
    ):
        n = num if isinstance(num, EpsPolynomial) else _to_poly(num)
        d = den if isinstance(den, EpsPolynomial) else _to_poly(den)
        n, d = _canonical(n, d)
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "den", d)

    @classmethod
    def _canonical_raw(cls, num: EpsPolynomial, den: EpsPolynomial) -> "EpsRational":
        # Internal: the pair is already canonical.
        x = object.__new__(cls)
        object.__setattr__(x, "num", num)
        object.__setattr__(x, "den", den)
        return x

    def __setattr__(self, name, value):
        raise AttributeError("EpsRational is immutable")

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def sign(self) -> int:
        """Sign taken on a punctured right neighbourhood of zero: -1, 0 or 1."""
        c = self.num.lowest_coeff
        return -1 if c < 0 else (0 if c == 0 else 1)

    def is_finite(self) -> bool:
        """True unless the value grows without bound as eps shrinks."""
        return self.is_zero or self.den.valuation == 0

    def is_infinitesimal(self) -> bool:
        """Nonzero, yet smaller in magnitude than every positive rational."""
        return not self.is_zero and self.is_finite() and self.num.valuation > 0

    def standard_part(self) -> Fraction:
        """Value at eps = 0; defined only for finite elements."""
        if not self.is_finite():
            raise InfiniteValueError("infinite")
        if self.is_zero:
            return _F0
        return self.num.coeffs[0] / self.den.coeffs[0] if self.num.valuation == 0 else _F0

    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree <= 0

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: _Coercible) -> "EpsRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return EpsRational(self.num + other.num, self.den)
        return EpsRational(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other: _Coercible) -> "EpsRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return EpsRational(self.num - other.num, self.den)
        return EpsRational(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __rsub__(self, other: _Coercible) -> "EpsRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "EpsRational":
        return EpsRational._canonical_raw(-self.num, self.den)

    def __mul__(self, other: _Coercible) -> "EpsRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return ZERO
        # Inputs are canonical, so gcd(na*nb, da*db) = gcd(na,db) * gcd(nb,da):
        # reduce crosswise and skip the full gcd of the products.
        na, da = self.num, self.den
        nb, db = other.num, other.den
        g1 = poly_gcd(na, db)
        if g1.degree > 0:
            na, db = na // g1, db // g1
        g2 = poly_gcd(nb, da)
        if g2.degree > 0:
            nb, da = nb // g2, da // g2
        num, den = _scale_normal(na * nb, da * db)
        return EpsRational._canonical_raw(num, den)

    __rmul__ = __mul__

    def reciprocal(self) -> "EpsRational":
        if self.is_zero:
            raise ZeroDivisionError("division by zero")
        num, den = _scale_normal(self.den, self.num)
        return EpsRational._canonical_raw(num, den)

    def __truediv__(self, other: _Coercible) -> "EpsRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other: _Coercible) -> "EpsRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.reciprocal()

    def __pow__(self, n: int) -> "EpsRational":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.reciprocal() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return out

    # -- order ---------------------------------------------------------------

    def compare(self, other: _Coercible) -> int:
        """-1, 0 or 1 as self is below, equal to or above other."""
        other = _coerce(other)
        if other is NotImplemented:
            raise TypeError("cannot compare EpsRational with that type")
        # Denominators are positive near 0+, so only the numerator cross
        # difference decides the sign; no canonicalization needed.
        if self.den == other.den:
            diff = self.num - other.num
        else:
            diff = self.num * other.den - other.num * self.den
        c = diff.lowest_coeff
        return -1 if c < 0 else (0 if c == 0 else 1)

    def __eq__(self, other) -> bool:
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __lt__(self, other) -> bool:
        return self.compare(other) < 0

    def __le__(self, other) -> bool:
        return self.compare(other) <= 0

    def __gt__(self, other) -> bool:
        return self.compare(other) > 0

    def __ge__(self, other) -> bool:
        return self.compare(other) >= 0

    def __hash__(self) -> int:
        if self.is_constant():
            # Align with hash(Fraction) so mixed-type dict keys behave.
            return hash(self.num.coeffs[0] / self.den.coeffs[0] if self.num.coeffs else _F0)
        return hash((self.num.coeffs, self.den.coeffs))

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- oracles --------------------------------------------------------------

    def eval_at(self, t: Union[int, Fraction]) -> Fraction:
        """Exact value at a rational point; raises on a pole."""
        t = _as_fraction(t)
        d = self.den.eval_at(t)
        if d == 0:
            raise ZeroDivisionError(f"pole at {t}")
        return self.num.eval_at(t) / d

    def sign_agreement_bound(self) -> Fraction:
        """A positive rational b such that sign(self at t) == self.sign() for 0 < t < b."""
        if self.is_zero:
            return _F1
        return positive_root_lower_bound(self.num * self.den)

    # -- display ----------------------------------------------------------------

    def __str__(self) -> str:
        num, den = self.num, self.den
        if den == _P_ONE:
            return str(num)
        num_s = str(num)
        if sum(1 for c in num.coeffs if c != 0) > 1:
            num_s = f"({num_s})"
        den_s = str(den)
        if den.degree > 0:
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __repr__(self) -> str:
        return f"EpsRational({str(self)!r})"


def _to_poly(x) -> EpsPolynomial:
    if isinstance(x, (int, Fraction)):
        return EpsPolynomial((x,))
    return EpsPolynomial(x)


def _coerce(x) -> EpsRational:
    if isinstance(x, EpsRational):
        return x
    if isinstance(x, (int, Fraction)):
        return const(x)
    return NotImplemented


def as_eps(x: _Coercible) -> EpsRational:
    """An exact value (int, Fraction or EpsRational) as a field element."""
    value = _coerce(x)
    if value is NotImplemented:
        raise TypeError(f"not an exact value: {x!r}")
    return value


def _scale_normal(num: EpsPolynomial, den: EpsPolynomial) -> tuple[EpsPolynomial, EpsPolynomial]:
    """Joint content and sign normalization of an already-coprime pair."""
    c = _content([x for x in num.coeffs if x != 0] + [x for x in den.coeffs if x != 0])
    if den.lowest_coeff < 0:
        c = -c
    if c != 1:
        num = num.scale(1 / c)
        den = den.scale(1 / c)
    return num, den


def _canonical(num: EpsPolynomial, den: EpsPolynomial) -> tuple[EpsPolynomial, EpsPolynomial]:
    if den.is_zero:
        raise ZeroDivisionError("division by zero")
    if num.is_zero:
        return _P_ZERO, _P_ONE
    g = poly_gcd(num, den)
    if g.degree > 0:
        num = num // g
        den = den // g
    return _scale_normal(num, den)


ZERO = EpsRational(0)
ONE = EpsRational(1)
EPS = EpsRational(EpsPolynomial((0, 1)))


def const(q: Union[int, Fraction]) -> EpsRational:
    """The rational constant q as a field element."""
    q = _as_fraction(q)
    return EpsRational._canonical_raw(
        EpsPolynomial((q.numerator,)), EpsPolynomial((q.denominator,))
    ) if q != 0 else ZERO
