"""Exact arithmetic in the ordered field of rational functions of one infinitesimal.

Values are quotients of polynomials in ``eps`` with integer coefficients.
``eps`` is ordered as a positive infinitesimal: nonzero, yet smaller than
every positive rational constant.  The sign of a value is the sign it takes
for all sufficiently small positive arguments, which is decided symbolically
from the lowest-order nonzero coefficient of the canonical numerator (the
canonical denominator is positive near zero by construction).

Every value is kept in a unique canonical form, so equality is structural:

* numerator and denominator are coprime as polynomials over the rationals,
* all coefficients are ``int`` and their joint gcd is 1,
* the lowest-order nonzero coefficient of the denominator is positive.

Arithmetic on canonical values runs on ``int`` only:

* gcds come from a primitive polynomial remainder sequence over Z: each
  pseudo-remainder is divided by its content, so coefficients stay integral
  and small, and cofactors follow by exact division by the primitive gcd;
* sums use Henrici's method (Knuth, TAOCP vol. 2, section 4.5.1) lifted to
  polynomials: when the denominators are coprime the cross sum is already in
  lowest terms, so no gcd of the result is needed;
* constant operands use plain integer gcds.

:class:`EpsPolynomial` also takes rational (``Fraction``) coefficients;
:class:`EpsRational` clears their denominators on entry.

All values are immutable and all operations are pure.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterable, Sequence, Union

__all__ = [
    "EpsPolynomial",
    "EpsRational",
    "InfiniteValueError",
    "DigitLimitError",
    "exact_str",
    "ZERO",
    "ONE",
    "EPS",
    "const",
    "as_eps",
]

_F0 = Fraction(0)
_F1 = Fraction(1)

_Coeff = Union[int, Fraction]


class InfiniteValueError(ArithmeticError):
    """Raised when a finite-only operation meets an infinite value."""


class DigitLimitError(ValueError):
    """An exact result has an integer too long to print.

    The interpreter refuses to print an int of more than
    ``sys.get_int_max_str_digits()`` decimal digits, since the conversion
    takes quadratic time; that limit is kept.
    """

    def __init__(self):
        super().__init__(
            "result too large to print: an integer has more than "
            f"{sys.get_int_max_str_digits()} decimal digits"
        )


def exact_str(x: object) -> str:
    """``str(x)`` for an exact value, or :class:`DigitLimitError`."""
    try:
        return str(x)
    except ValueError:
        raise DigitLimitError() from None


def _as_coeff(x: _Coeff) -> _Coeff:
    """An exact coefficient: ``int``, or ``Fraction`` when not integral."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


# -- coefficient sequences, ascending by power ----------------------------------
#
# The helpers below work on any exact coefficients; on canonical values they
# only ever see ``int``.  Nonzero inputs are trimmed (last coefficient nonzero).


def _trim(cs: list) -> list:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _padd(a: Sequence, b: Sequence) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _pneg(a: Sequence) -> list:
    return [-c for c in a]


def _pmul(a: Sequence, b: Sequence) -> list:
    if not a or not b:
        return []
    if len(b) == 1:
        k = b[0]
        return [c * k for c in a]
    if len(a) == 1:
        k = a[0]
        return [c * k for c in b]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _lowest(a: Sequence):
    """Lowest-order nonzero coefficient (0 for the zero polynomial)."""
    for c in a:
        if c:
            return c
    return 0


def _primitive(cs: Sequence) -> list[int]:
    """The integer polynomial with gcd 1 that is a positive multiple of ``cs``."""
    l = math.lcm(*[c.denominator for c in cs])
    ints = [c.numerator * (l // c.denominator) for c in cs]
    g = math.gcd(*ints)
    return ints if g == 1 else [c // g for c in ints]


def _prem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """A nonzero integer multiple of the remainder of ``a`` by ``b``.

    Each step scales the partial remainder by ``lc(b) / gcd(lc(b), c)`` only,
    where ``c`` is the coefficient being eliminated, which keeps the
    coefficients smaller than the textbook ``lc(b)**(deg a - deg b + 1)``.
    """
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    for i in range(len(r) - 1, db - 1, -1):
        c = r.pop()
        if c:
            g = math.gcd(c, lb)
            m, q = lb // g, c // g
            if m != 1:
                r = [x * m for x in r]
            base = i - db
            for j in range(db):
                r[base + j] -= q * b[j]
    return _trim(r)


def _prs_gcd(a: Sequence[int], b: Sequence[int]) -> Sequence[int]:
    """Primitive gcd, up to sign, of two primitive polynomials."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _prem(a, b)
        if not r:
            return b
        g = math.gcd(*r)
        a, b = b, (r if g == 1 else [c // g for c in r])
    return [1]


def _exquo(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """``a / b`` over Z, for a primitive ``b`` that divides ``a`` over Q.

    By Gauss's lemma the quotient has integer coefficients, so every step of
    the long division divides exactly.
    """
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    q = [0] * (len(r) - db)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if c:
            k = c // lb
            q[i - db] = k
            base = i - db
            for j in range(db):
                r[base + j] -= k * b[j]
    return q


class EpsPolynomial:
    """Polynomial in ``eps``, coefficients ascending by power, trailing nonzero.

    Coefficients are ``int``, or ``Fraction`` where not integral.  The empty
    coefficient sequence is the zero polynomial.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[_Coeff, ...]

    def __init__(self, coeffs: Iterable[_Coeff] = ()):
        _set_coeffs(self, tuple(_trim([_as_coeff(c) for c in coeffs])))

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
    def lowest_coeff(self) -> _Coeff:
        return _lowest(self.coeffs)

    @property
    def leading_coeff(self) -> _Coeff:
        return self.coeffs[-1] if self.coeffs else 0

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
        return _poly(_padd(self.coeffs, other.coeffs))

    def __sub__(self, other: "EpsPolynomial") -> "EpsPolynomial":
        return _poly(_padd(self.coeffs, _pneg(other.coeffs)))

    def __neg__(self) -> "EpsPolynomial":
        return _poly(_pneg(self.coeffs))

    def __mul__(self, other: "EpsPolynomial") -> "EpsPolynomial":
        return _poly(_pmul(self.coeffs, other.coeffs))

    def scale(self, k: _Coeff) -> "EpsPolynomial":
        return _poly(_pmul(self.coeffs, (k,)) if k else ())

    def divmod(self, other: "EpsPolynomial") -> tuple["EpsPolynomial", "EpsPolynomial"]:
        """Polynomial long division; exact rational arithmetic."""
        if other.is_zero:
            raise ZeroDivisionError("division by zero")
        rem = list(self.coeffs)
        dlead = other.leading_coeff
        dd = other.degree
        if len(rem) - 1 < dd:
            return _P_ZERO, self
        quot = [0] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = Fraction(c, dlead)
            quot[i - dd] = q
            for j, b in enumerate(other.coeffs):
                rem[i - dd + j] -= q * b
        return _poly(quot), _poly(_trim(rem))

    def __mod__(self, other: "EpsPolynomial") -> "EpsPolynomial":
        return self.divmod(other)[1]

    # -- normal forms ------------------------------------------------------

    def monic(self) -> "EpsPolynomial":
        if self.is_zero:
            return self
        lead = self.leading_coeff
        if lead == 1:
            return self
        return self.scale(Fraction(1, lead))

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
        try:
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
        except ValueError:  # only the int-to-str digit limit raises here
            raise DigitLimitError() from None
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"EpsPolynomial({list(self.coeffs)!r})"


_new = object.__new__
_set_coeffs = EpsPolynomial.coeffs.__set__


def _poly(cs: Sequence[_Coeff]) -> EpsPolynomial:
    # Internal: coefficients already exact and trimmed.
    p = _new(EpsPolynomial)
    _set_coeffs(p, tuple(cs))
    return p


_P_ZERO = _poly(())
_P_ONE = _poly((1,))


def poly_gcd(a: EpsPolynomial, b: EpsPolynomial) -> EpsPolynomial:
    """Monic gcd over the rationals.

    Computed as the primitive gcd over Z by a primitive remainder sequence,
    then divided by its leading coefficient.
    """
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    g = _prs_gcd(_primitive(a.coeffs), _primitive(b.coeffs))
    return _poly(g).monic()


def _common_factor(a: Sequence[int], b: Sequence[int]):
    """Primitive gcd of two nonzero integer polynomials; None when it is constant."""
    if len(a) == 1 or len(b) == 1:
        return None
    g = poly_gcd(_poly(a), _poly(b))
    if len(g.coeffs) == 1:
        return None
    return _primitive(g.coeffs)


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
    h = _F1 + max(Fraction(abs(c), low) for c in q[1:])
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
        # Clear the coefficient denominators of both parts at once.
        cs = _primitive(n.coeffs + d.coeffs)
        x = _canonical(cs[: len(n.coeffs)], cs[len(n.coeffs) :])
        _set_num(self, x.num)
        _set_den(self, x.den)

    def __setattr__(self, name, value):
        raise AttributeError("EpsRational is immutable")

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def sign(self) -> int:
        """Sign taken on a punctured right neighbourhood of zero: -1, 0 or 1."""
        c = _lowest(self.num.coeffs)
        return -1 if c < 0 else (0 if c == 0 else 1)

    def is_finite(self) -> bool:
        """True unless the value grows without bound as eps shrinks."""
        return self.is_zero or self.den.coeffs[0] != 0

    def is_infinitesimal(self) -> bool:
        """Nonzero, yet smaller in magnitude than every positive rational."""
        return not self.is_zero and self.is_finite() and self.num.coeffs[0] == 0

    def standard_part(self) -> Fraction:
        """Value at eps = 0; defined only for finite elements."""
        if not self.is_finite():
            raise InfiniteValueError("infinite")
        if self.is_zero:
            return _F0
        return Fraction(self.num.coeffs[0], self.den.coeffs[0])

    def is_constant(self) -> bool:
        return len(self.num.coeffs) <= 1 and len(self.den.coeffs) == 1

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: _Coercible) -> "EpsRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum(self.num.coeffs, self.den.coeffs, other.num.coeffs, other.den.coeffs)

    __radd__ = __add__

    def __sub__(self, other: _Coercible) -> "EpsRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum(self.num.coeffs, self.den.coeffs, _pneg(other.num.coeffs), other.den.coeffs)

    def __rsub__(self, other: _Coercible) -> "EpsRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "EpsRational":
        return _make(_pneg(self.num.coeffs), self.den.coeffs)

    def __mul__(self, other: _Coercible) -> "EpsRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        na, da = self.num.coeffs, self.den.coeffs
        nb, db = other.num.coeffs, other.den.coeffs
        if not na or not nb:
            return ZERO
        if len(na) == len(da) == len(nb) == len(db) == 1:
            return _ratio(na[0] * nb[0], da[0] * db[0])
        # Inputs are canonical, so gcd(na*nb, da*db) = gcd(na,db) * gcd(nb,da):
        # reduce crosswise and skip the full gcd of the products.
        g = _common_factor(na, db)
        if g is not None:
            na, db = _exquo(na, g), _exquo(db, g)
        g = _common_factor(nb, da)
        if g is not None:
            nb, da = _exquo(nb, g), _exquo(da, g)
        return _normal(_pmul(na, nb), _pmul(da, db))

    __rmul__ = __mul__

    def reciprocal(self) -> "EpsRational":
        if self.is_zero:
            raise ZeroDivisionError("division by zero")
        num, den = self.den.coeffs, self.num.coeffs
        if _lowest(den) < 0:
            num, den = _pneg(num), _pneg(den)
        return _make(num, den)

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
        return _cross_sign(self.num.coeffs, other.den.coeffs, other.num.coeffs, self.den.coeffs)

    def __eq__(self, other) -> bool:
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.num.coeffs == o.num.coeffs and self.den.coeffs == o.den.coeffs

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
            return hash(self.standard_part())
        return hash((self.num.coeffs, self.den.coeffs))

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- oracles --------------------------------------------------------------

    def eval_at(self, t: Union[int, Fraction]) -> Fraction:
        """Exact value at a rational point; raises on a pole."""
        t = _as_coeff(t)
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


_set_num = EpsRational.num.__set__
_set_den = EpsRational.den.__set__


def _make(num: Sequence[int], den: Sequence[int]) -> EpsRational:
    # Internal: the coefficient pair is already canonical.
    x = _new(EpsRational)
    _set_num(x, _poly(num))
    _set_den(x, _P_ONE if len(den) == 1 and den[0] == 1 else _poly(den))
    return x


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


# -- canonical forms over Z -------------------------------------------------------


def _ratio(p: int, q: int) -> EpsRational:
    """The constant p/q, for q != 0."""
    if not p:
        return ZERO
    g = math.gcd(p, q)
    if q < 0:
        g = -g
    return _make((p // g,), (q // g,))


def _normal(num: Sequence[int], den: Sequence[int]) -> EpsRational:
    """Content and sign normalization of a pair coprime over Q."""
    if not num:
        return ZERO
    c = math.gcd(*num, *den)
    if _lowest(den) < 0:
        c = -c
    if c != 1:
        num = [x // c for x in num]
        den = [x // c for x in den]
    return _make(num, den)


def _canonical(num: list[int], den: list[int]) -> EpsRational:
    """Canonical form of num/den for integer coefficient lists."""
    num, den = _trim(num), _trim(den)
    if not den:
        raise ZeroDivisionError("division by zero")
    if len(num) <= 1 and len(den) == 1:
        return _ratio(num[0] if num else 0, den[0])
    g = _common_factor(num, den) if num else None
    if g is not None:
        num, den = _exquo(num, g), _exquo(den, g)
    return _normal(num, den)


def _sum(a: Sequence[int], b: Sequence[int], c: Sequence[int], d: Sequence[int]) -> EpsRational:
    """a/b + c/d for canonical pairs, by Henrici's method."""
    if len(b) == 1 and len(d) == 1 and len(a) <= 1 and len(c) <= 1:
        return _ratio((a[0] * d[0] if a else 0) + (c[0] * b[0] if c else 0), b[0] * d[0])
    if b == d:
        return _canonical(_padd(a, c), list(b))
    g = _common_factor(b, d)
    if g is None:
        # gcd(b, d) = 1 with gcd(a, b) = gcd(c, d) = 1 makes a*d + c*b coprime
        # to b*d: the cross sum is already in lowest terms.
        return _normal(_padd(_pmul(a, d), _pmul(c, b)), _pmul(b, d))
    # b = g*b1, d = g*d1: only g can share a factor with t = a*d1 + c*b1.
    b1, d1 = _exquo(b, g), _exquo(d, g)
    t = _padd(_pmul(a, d1), _pmul(c, b1))
    if not t:
        return ZERO
    g2 = _common_factor(t, g)
    if g2 is not None:
        t, d = _exquo(t, g2), _exquo(d, g2)
    return _normal(t, _pmul(b1, d))


def _cross_sign(a: Sequence[int], d: Sequence[int], c: Sequence[int], b: Sequence[int]) -> int:
    """Sign near 0+ of a*d - c*b, computed from the lowest power up."""
    la, ld, lc, lb = len(a), len(d), len(c), len(b)
    for k in range(max(la + ld, lc + lb) - 1):
        s = 0
        for i in range(max(0, k - ld + 1), min(k + 1, la)):
            s += a[i] * d[k - i]
        for i in range(max(0, k - lb + 1), min(k + 1, lc)):
            s -= c[i] * b[k - i]
        if s:
            return 1 if s > 0 else -1
    return 0


ZERO = _make((), (1,))
ONE = _make((1,), (1,))
EPS = _make((0, 1), (1,))


def const(q: Union[int, Fraction]) -> EpsRational:
    """The rational constant q as a field element."""
    q = _as_coeff(q)
    return _make((q.numerator,), (q.denominator,)) if q else ZERO
