"""Differential checks of the eps-field core against sympy, an independent oracle.

sympy is used only here, as a test-time reference; the library never
imports it.  Two facts are checked on seeded random values:

* the canonical form of n/d equals ``sympy.cancel(n/d)`` once that is brought
  to the same normalisation (integer coefficients with joint gcd 1, lowest
  nonzero denominator coefficient positive);
* ``sign()`` equals the sign of the leading term of the expansion of the
  value as eps -> 0+;
* the coprimality certificate that runs before the remainder sequence
  certifies only pairs whose ``sympy.gcd`` is a constant, and ``poly_gcd``
  equals ``sympy.gcd`` on every pair.
"""

import math
import random
from fractions import Fraction as Fr

import pytest

sympy = pytest.importorskip("sympy")

from plauscalc.epsnum import EPS, ONE, EpsRational, _coprime_at_point, _pmul, poly_gcd

from conftest import planted_factor, rand_eps_rational, rand_poly, rand_primitive

E = sympy.Symbol("eps", positive=True)


def to_sympy(cs) -> "sympy.Expr":
    """The polynomial with ascending coefficients ``cs`` (int or Fraction)."""
    return sum((sympy.Rational(c.numerator, c.denominator) * E**i for i, c in enumerate(cs)),
               sympy.Integer(0))


def ascending(expr) -> list:
    return [Fr(int(c.p), int(c.q)) for c in reversed(sympy.Poly(expr, E).all_coeffs())]


def sympy_canonical(num: list, den: list) -> tuple[list, list]:
    """``sympy.cancel`` of num/den, normalised like the library's canonical form."""
    n, d = sympy.fraction(sympy.cancel(to_sympy(num) / to_sympy(den)))
    ns, ds = ascending(n), ascending(d)
    if ns == [0]:
        return [], [1]
    scale = math.lcm(*(c.denominator for c in ns + ds))
    ns = [int(c * scale) for c in ns]
    ds = [int(c * scale) for c in ds]
    g = math.gcd(*ns, *ds)
    if next(c for c in ds if c) < 0:
        g = -g
    return [c // g for c in ns], [c // g for c in ds]


def random_raw(rng: random.Random, max_deg: int) -> tuple[list, list]:
    num = rand_poly(rng, max_deg, bound=20)
    den = rand_poly(rng, max_deg, bound=20, nonzero=True)
    if rng.random() < 0.5:  # plant a common factor for the gcd to find
        f = rand_poly(rng, 2, bound=6, nonzero=True)
        num, den = _pmul(num, f), _pmul(den, f)
    if rng.random() < 0.3:  # and a power of eps
        num, den = _pmul(num, (0, 1)), _pmul(den, (0, 0, 1))
    return num, den


def test_canonical_form_matches_sympy_cancel():
    rng = random.Random(41)
    for _ in range(100):
        num, den = random_raw(rng, max_deg=4)
        x = EpsRational(num, den)
        assert (list(x.num.coeffs), list(x.den.coeffs)) == sympy_canonical(num, den), (num, den)


def test_arithmetic_results_match_sympy_cancel():
    rng = random.Random(43)
    for i in range(25):
        a = rand_eps_rational(rng, max_deg=3, bound=15)
        b = rand_eps_rational(rng, max_deg=3, bound=15)
        if i % 2:  # denominators with a common factor
            b = b / EpsRational(a.den.coeffs)
        sa = to_sympy(a.num.coeffs) / to_sympy(a.den.coeffs)
        sb = to_sympy(b.num.coeffs) / to_sympy(b.den.coeffs)
        cases = [(a + b, sa + sb), (a - b, sa - sb), (a * b, sa * sb), ((a + b) - b, sa)]
        if b:
            cases += [(a / b, sa / sb), (3 / b, 3 / sb), (b ** -2, sb ** -2)]
        for got, want in cases:
            n, d = sympy.fraction(sympy.cancel(want))
            assert (list(got.num.coeffs), list(got.den.coeffs)) == sympy_canonical(ascending(n), ascending(d))


def leading_sign(x: EpsRational) -> int:
    if x.is_zero:
        return 0
    term = (to_sympy(x.num.coeffs) / to_sympy(x.den.coeffs)).as_leading_term(E)
    return int(sympy.sign(term))


def test_sign_is_sign_of_leading_term():
    rng = random.Random(47)
    values = [ONE - EPS, EPS - ONE, EPS * EPS - EPS, ONE / EPS - ONE / (EPS * EPS)]
    values += [rand_eps_rational(rng, max_deg=4, bound=20) for _ in range(80)]
    for _ in range(40):  # differences of close values cancel low-order terms
        a = rand_eps_rational(rng, max_deg=3, bound=10)
        values.append(a - EpsRational(_pmul(a.num.coeffs, (1, 0, 1)), a.den.coeffs))
    for x in values:
        assert x.sign() == leading_sign(x), x


def test_coprimality_certificate_agrees_with_sympy_gcd():
    rng = random.Random(71)
    certified = 0
    for i in range(400):
        f = planted_factor(rng, i // 3) if i % 3 == 0 else [1]  # plant a common factor
        a, b = (_pmul(rand_primitive(rng, rng.randint(len(f) == 1, 13 - len(f)),
                                     bound=rng.choice((10, 1000, 2**70))), f) for _ in "ab")
        want = sympy.gcd(sympy.Poly(a[::-1], E), sympy.Poly(b[::-1], E))
        if _coprime_at_point(a, b):
            certified += 1
            assert want.degree() == 0, (a, b)
        assert list(poly_gcd(a, b)) == want.all_coeffs()[::-1]
    assert certified > 200
