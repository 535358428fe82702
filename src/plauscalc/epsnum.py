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
* coprimality is first proven at one integer point: a gcd of the two
  values below a bound rules out every common factor, and the remainder
  sequence runs only when that test does not decide;
* constant operands use plain integer gcds;
* :func:`sum_values` and :func:`sum_products` add many terms at once: the
  constant terms are summed as integers over the lcm of their denominators
  and reduced by one gcd at the end, and the other terms fold with ``+``.

A value stores its canonical numerator and denominator as two tuples of
``int``, one object per value, and every function here reads those tuples.
``num`` and ``den`` wrap them in :class:`EpsPolynomial`, a one-field view
kept for readers outside the library; nothing here reads it.
:class:`EpsRational` also takes rational (``Fraction``) coefficients and
clears their denominators on entry.

All values are immutable and all operations are pure.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

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
    "sum_values",
    "sum_products",
]

_F0 = Fraction(0)
_F1 = Fraction(1)


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


def _clip(value: object, text=repr) -> str:
    """``text(value)`` for a message that echoes input, cut to 40 characters.

    An integer past the digit limit shows as ``<too long to print>``.
    """
    try:
        s = text(value)
    except ValueError:
        s = "<too long to print>"
    return s if len(s) <= 40 else s[:37] + "..."


def _as_coeff(x: Union[int, Fraction]) -> Union[int, Fraction]:
    """An exact coefficient: ``int``, or ``Fraction`` when not integral."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


# -- coefficient sequences, ascending by power ----------------------------------
#
# Nonzero inputs are trimmed (last coefficient nonzero).  Only ``_trim`` and
# ``_primitive`` see ``Fraction`` coefficients, on entry to ``EpsRational``;
# the other helpers see ``int`` only.


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
    if l == 1:
        ints = [c.numerator for c in cs]
    else:
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


def _coprime_at_point(a: Sequence[int], b: Sequence[int]) -> bool:
    """True only if the nonconstant integer polynomials ``a`` and ``b`` are coprime.

    Let B = 1 + min(max|a_i|, max|b_i|).  Both are evaluated at the power of
    two xi = 2**k, k = B.bit_length() + 32, and the integer gcd h of the two
    values is compared with xi - B.  The 32 spare bits leave room for the
    small factor that the values of coprime polynomials may still share.
    (This is the evaluation step of the heuristic gcd of Char, Geddes and
    Gonnet, J. Symbolic Comput. 1989.)

    Proof that True is exact.  Say g is a nonconstant common divisor of a and
    b over Z (primitive, by Gauss's lemma).  Each root r of g is a root of a
    and of b, so |r| <= B by Cauchy's bound (leading coefficients are nonzero
    integers).  Then |g(xi)| >= prod(xi - |r_i|) >= xi - B >= 1.  Also g(xi)
    divides both a(xi) and b(xi), which are not both zero since xi > B, so
    h >= |g(xi)| >= xi - B.  So h < xi - B rules g out.

    False means only that this point does not decide.
    """
    bound = 1 + min(max(map(abs, a)), max(map(abs, b)))
    k = bound.bit_length() + 32
    va = vb = 0
    for c in reversed(a):
        va = (va << k) + c
    for c in reversed(b):
        vb = (vb << k) + c
    return math.gcd(va, vb) < (1 << k) - bound


def _prs_gcd(a: Sequence[int], b: Sequence[int]) -> Sequence[int]:
    """Primitive gcd, up to sign, of two primitive polynomials.

    A coprimality certificate at one integer point settles most coprime pairs;
    the remainder sequence runs only when it does not.
    """
    if len(a) < len(b):
        a, b = b, a
    if len(b) > 1 and _coprime_at_point(a, b):
        return [1]
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


def _pstr(cs: Sequence[int]) -> str:
    """Display of a polynomial in ascending powers of eps."""
    if not cs:
        return "0"
    parts: list[str] = []
    try:
        for i, c in enumerate(cs):
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


def _peval(cs: Sequence[int], t) -> Fraction:
    """Exact value of a coefficient sequence at ``t``, by Horner's rule."""
    acc = _F0
    for c in reversed(cs):
        acc = acc * t + c
    return acc


class EpsPolynomial(NamedTuple):
    """The ``int`` coefficients of a canonical numerator or denominator,
    ascending by power; ``()`` is the zero polynomial."""

    coeffs: tuple[int, ...]


def poly_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Primitive gcd over Z of two trimmed coefficient sequences, leading coefficient positive.

    This is the gcd over the rationals scaled to integer coefficients with no
    common factor, computed by a primitive remainder sequence; it is empty
    (zero) only when both operands are.
    """
    if not a:
        a, b = b, a
    if not a:
        return []
    g = _primitive(a) if not b else _prs_gcd(_primitive(a), _primitive(b))
    return g if g[-1] > 0 else [-c for c in g]


def _common_factor(a: Sequence[int], b: Sequence[int]):
    """Primitive gcd of two nonzero integer polynomials; None when it is constant."""
    if len(a) == 1 or len(b) == 1:
        return None
    g = poly_gcd(a, b)
    return None if len(g) == 1 else g


def positive_root_lower_bound(p: Sequence[int]) -> Fraction:
    """A positive rational strictly below every positive root of the polynomial ``p``.

    ``p`` is a trimmed integer coefficient sequence, ascending by power.
    Strip the power of eps dividing ``p``; a positive root r of the remaining
    part q gives a root 1/r of the reversed polynomial, and the Cauchy bound
    on the reversed polynomial caps 1/r.  When q is constant there is no
    positive root and 1 is returned (any positive bound is valid).

    The sign of ``p`` is therefore constant on (0, bound), which makes exact
    evaluation anywhere in that interval a sound sign oracle.
    """
    if not p:
        raise ValueError("zero polynomial has no sign to bound")
    q = p[next(i for i, c in enumerate(p) if c):]
    if len(q) == 1:
        return _F1
    low = abs(q[0])
    h = _F1 + max(Fraction(abs(c), low) for c in q[1:])
    return 1 / h


_Coercible = Union[int, Fraction, "EpsRational"]


class EpsRational:
    """An element of the ordered field of rational functions of ``eps``.

    Instances are immutable, hashable, totally ordered, and always canonical;
    ``==`` is structural equality of the canonical form.  A value stores its
    numerator and denominator coefficients as two ``int`` tuples, ascending by
    power.  ``num`` and ``den`` wrap them in :class:`EpsPolynomial`, a
    coefficient view kept for readers outside the library.
    """

    __slots__ = ("_num", "_den")

    _num: tuple[int, ...]
    _den: tuple[int, ...]

    def __init__(
        self,
        num: Union[Iterable, int, Fraction] = 0,
        den: Union[Iterable, int, Fraction] = 1,
    ):
        n, d = _coeff_list(num), _coeff_list(den)
        # Clear the coefficient denominators of both parts at once.
        cs = _primitive(n + d)
        x = _canonical(cs[: len(n)], cs[len(n) :])
        _set_num(self, x._num)
        _set_den(self, x._den)

    def __setattr__(self, name, value):
        raise AttributeError("EpsRational is immutable")

    @property
    def num(self) -> EpsPolynomial:
        """The canonical numerator."""
        return EpsPolynomial(self._num)

    @property
    def den(self) -> EpsPolynomial:
        """The canonical denominator, positive near zero."""
        return EpsPolynomial(self._den)

    @property
    def degree(self) -> int:
        """The larger degree in eps of the canonical numerator and denominator."""
        return max(len(self._num), len(self._den)) - 1

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._num

    def sign(self) -> int:
        """Sign taken on a punctured right neighbourhood of zero: -1, 0 or 1."""
        c = _lowest(self._num)
        return -1 if c < 0 else (0 if c == 0 else 1)

    def is_finite(self) -> bool:
        """True unless the value grows without bound as eps shrinks."""
        return not self._num or self._den[0] != 0

    def is_infinitesimal(self) -> bool:
        """Nonzero, yet smaller in magnitude than every positive rational."""
        return not self.is_zero and self.is_finite() and self._num[0] == 0

    def standard_part(self) -> Fraction:
        """Value at eps = 0; defined only for finite elements."""
        if not self.is_finite():
            raise InfiniteValueError("infinite")
        if self.is_zero:
            return _F0
        return Fraction(self._num[0], self._den[0])

    def is_constant(self) -> bool:
        return len(self._num) <= 1 and len(self._den) == 1

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: _Coercible) -> "EpsRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum(self._num, self._den, other._num, other._den)

    __radd__ = __add__

    def __sub__(self, other: _Coercible) -> "EpsRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum(self._num, self._den, _pneg(other._num), other._den)

    def __rsub__(self, other: _Coercible) -> "EpsRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "EpsRational":
        return _make(_pneg(self._num), self._den)

    def __mul__(self, other: _Coercible) -> "EpsRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        na, da = self._num, self._den
        nb, db = other._num, other._den
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
        num, den = self._den, self._num
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
        return _cross_sign(self._num, other._den, other._num, self._den)

    def __eq__(self, other) -> bool:
        o = _coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._num == o._num and self._den == o._den

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
        return hash((self._num, self._den))

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- oracles --------------------------------------------------------------

    def eval_at(self, t: Union[int, Fraction]) -> Fraction:
        """Exact value at a rational point; raises on a pole."""
        t = _as_coeff(t)
        d = _peval(self._den, t)
        if d == 0:
            raise ZeroDivisionError(f"pole at {t}")
        return _peval(self._num, t) / d

    def sign_agreement_bound(self) -> Fraction:
        """A positive rational b such that sign(self at t) == self.sign() for 0 < t < b."""
        if self.is_zero:
            return _F1
        return positive_root_lower_bound(_pmul(self._num, self._den))

    # -- display ----------------------------------------------------------------

    def __str__(self) -> str:
        num, den = self._num, self._den
        if den == (1,):
            return _pstr(num)
        num_s = _pstr(num)
        if sum(1 for c in num if c != 0) > 1:
            num_s = f"({num_s})"
        den_s = _pstr(den)
        if len(den) > 1:
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __repr__(self) -> str:
        return f"EpsRational({str(self)!r})"


_new = object.__new__
_set_num = EpsRational._num.__set__
_set_den = EpsRational._den.__set__


def _make(num: Sequence[int], den: Sequence[int]) -> EpsRational:
    # Internal: the coefficient pair is already canonical.
    x = _new(EpsRational)
    _set_num(x, tuple(num))
    _set_den(x, tuple(den))
    return x


def _coeff_list(x) -> list:
    """A trimmed list of exact coefficients from an iterable or a scalar."""
    if isinstance(x, (int, Fraction)):
        x = (x,)
    return _trim([_as_coeff(c) for c in x])


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
    if type(q) is not int:
        q = _as_coeff(q)
    return _make((q.numerator,), (q.denominator,)) if q else ZERO


# -- n-ary sums ---------------------------------------------------------------------


def _const_sum(ps: list[int], qs: list[int], rest) -> EpsRational:
    """sum(p/q) over one common denominator, plus ``rest`` (a value or None)."""
    if ps:
        lcm = math.lcm(*qs)
        total = _ratio(sum(p * (lcm // q) for p, q in zip(ps, qs)), lcm)
    else:
        total = ZERO
    if rest is None:
        return total
    return rest if total.is_zero else rest + total


def sum_values(values: Iterable[EpsRational]) -> EpsRational:
    """The exact sum of the values; ``ZERO`` for none."""
    ps: list[int] = []
    qs: list[int] = []
    rest = None
    for v in values:
        n, d = v._num, v._den
        if len(n) == 1 and len(d) == 1:
            ps.append(n[0])
            qs.append(d[0])
            last = v
        elif n:
            rest = v if rest is None else rest + v
    if rest is None and len(ps) == 1:  # one nonzero constant: already canonical
        return last
    return _const_sum(ps, qs, rest)


def sum_products(pairs: Iterable[tuple[EpsRational, EpsRational]]) -> EpsRational:
    """The exact sum of ``x * y`` over the pairs; ``ZERO`` for none."""
    ps: list[int] = []
    qs: list[int] = []
    rest = None
    for x, y in pairs:
        nx, dx, ny, dy = x._num, x._den, y._num, y._den
        if len(nx) == len(dx) == len(ny) == len(dy) == 1:
            ps.append(nx[0] * ny[0])
            qs.append(dx[0] * dy[0])
        elif nx and ny:
            w = x * y
            rest = w if rest is None else rest + w
    return _const_sum(ps, qs, rest)
