"""Exact eps-field arithmetic: canonical forms, order, standard parts.

The order oracle used throughout: a comparison verdict must match the sign of
exact evaluation at rational points strictly below the computed positive-root
bound of the difference.  That oracle never looks at how ``compare`` itself
decides.
"""

import math
import operator
import random
from functools import reduce
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plauscalc import epsnum
from plauscalc.epsnum import (
    EPS,
    ONE,
    ZERO,
    DigitLimitError,
    EpsPolynomial,
    EpsRational,
    InfiniteValueError,
    _coprime_at_point,
    _exquo,
    _pmul,
    const,
    poly_gcd,
    positive_root_lower_bound,
    sum_products,
    sum_values,
)
from plauscalc.parser import parse_eps_expr

from conftest import planted_factor, rand_eps_rational, rand_poly, rand_primitive


def lowest(cs):
    """The lowest-order nonzero coefficient of a coefficient tuple."""
    return next(c for c in cs if c)


def divides(f, p) -> bool:
    """Whether the primitive integer polynomial ``f`` divides ``p`` over Z."""
    return _pmul(_exquo(p, f), f) == list(p)


class TestNormalize:
    def test_divides_out_common_factor(self):
        # (eps^2 - eps^3) / eps  ->  eps - eps^2
        x = EpsRational([0, 0, 1, -1], [0, 1])
        assert x.num.coeffs == (0, 1, -1)
        assert x.den.coeffs == (1,)

    def test_zero_numerator(self):
        x = EpsRational(0, 5)
        assert x.num.coeffs == () and x.den.coeffs == (1,)
        assert x == ZERO

    def test_content_reduction(self):
        # (2 eps) / 4 -> eps / 2, same function: check at eps = 1/16
        x = EpsRational([0, 2], [4])
        assert (x.num.coeffs, x.den.coeffs) == ((0, 1), (2,))
        assert x.eval_at(Fr(1, 16)) == Fr(2, 16) / 4

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            EpsRational([1], [])
        with pytest.raises(ZeroDivisionError, match="division by zero"):
            EpsRational(0, 0)

    def test_denominator_sign_normalized(self):
        x = EpsRational([1], [-2, 1])
        assert lowest(x.den.coeffs) > 0

    def test_idempotent_and_scale_invariant(self):
        rng = random.Random(7)
        for _ in range(200):
            x = rand_eps_rational(rng, max_deg=4, bound=30)
            again = EpsRational(x.num.coeffs, x.den.coeffs)
            assert (again.num.coeffs, again.den.coeffs) == (x.num.coeffs, x.den.coeffs)
            k = Fr(rng.randint(1, 9), rng.randint(1, 9))
            scaled = EpsRational([c * k for c in x.num.coeffs], [c * k for c in x.den.coeffs])
            assert scaled == x


class TestArithmetic:
    def test_additive_cancellation(self):
        assert EPS + (ONE - EPS) == ONE

    def test_constant_multiplication(self):
        assert const(Fr(1, 2)) * const(Fr(2, 3)) == const(Fr(1, 3))

    def test_infinite_element_is_legal(self):
        inv = ONE / EPS
        assert not inv.is_finite()
        assert inv * EPS == ONE

    def test_subtraction_example(self):
        # 1/(1-eps) - (1+eps) = eps^2/(1-eps); checked by exact evaluation
        d = ONE / (ONE - EPS) - (ONE + EPS)
        assert d == EPS * EPS / (ONE - EPS)
        assert d.eval_at(Fr(1, 8)) == Fr(1, 56)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO

    def test_sum_cancels_factor_shared_by_denominators(self):
        # 1/(eps(1+eps)) - 1/(eps(1+2eps)): the cross sum eps cancels the
        # common factor eps of the denominators
        d = ONE / (EPS * (1 + EPS)) - ONE / (EPS * (1 + 2 * EPS))
        assert (d.num.coeffs, d.den.coeffs) == ((1,), (1, 3, 2))

    def test_reciprocal_keeps_denominator_positive(self):
        for x in (-EPS, EPS - 3, (ONE - 2 * EPS) / (EPS - 3), const(Fr(-2, 5))):
            r = x.reciprocal()
            assert lowest(r.den.coeffs) > 0 and r * x == ONE

    def test_mixed_coercion(self):
        assert EPS + 1 == ONE + EPS
        assert 2 * EPS == EPS + EPS
        assert (1 - EPS) == ONE - EPS


class TestFieldLaws:
    def test_laws_on_random_values(self):
        rng = random.Random(101)
        vals = [rand_eps_rational(rng, max_deg=4, bound=20) for _ in range(120)]
        for i in range(len(vals)):
            a, b, c = vals[i], vals[(i + 1) % len(vals)], vals[(i + 2) % len(vals)]
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == ZERO
            if not a.is_zero:
                assert a * a.reciprocal() == ONE

    @given(st.integers(-50, 50), st.integers(1, 50), st.integers(-50, 50), st.integers(1, 50))
    def test_constant_arithmetic_matches_fractions(self, p, q, r, s):
        x, y = Fr(p, q), Fr(r, s)
        assert (const(x) + const(y)).standard_part() == x + y
        assert (const(x) * const(y)).standard_part() == x * y
        if y != 0:
            assert (const(x) / const(y)).standard_part() == x / y


_CONSTS = st.builds(lambda p, q: const(Fr(p, q)), st.integers(-40, 40), st.integers(1, 40))
_POLYS = st.builds(
    lambda n, d: EpsRational(n, d),
    st.lists(st.integers(-9, 9), max_size=4),
    st.lists(st.integers(-9, 9), min_size=1, max_size=3).filter(any),
)
_TERMS = st.lists(st.one_of(_CONSTS, _POLYS), max_size=8)


def structure(x: EpsRational):
    """The canonical coefficient tuples, with their exact types."""
    return [(type(c), c) for c in x.num.coeffs], [(type(c), c) for c in x.den.coeffs]


class TestNarySums:
    """``sum_values`` and ``sum_products`` equal left folds with ``+`` and ``*``."""

    @given(st.lists(_CONSTS, max_size=8))
    def test_constant_sum_matches_fold(self, xs):
        assert structure(sum_values(xs)) == structure(reduce(operator.add, xs, ZERO))

    @given(_TERMS)
    def test_mixed_sum_matches_fold(self, xs):
        assert structure(sum_values(xs)) == structure(reduce(operator.add, xs, ZERO))

    @given(st.lists(st.tuples(st.one_of(_CONSTS, _POLYS), st.one_of(_CONSTS, _POLYS)), max_size=8))
    def test_sum_of_products_matches_fold(self, pairs):
        want = reduce(operator.add, (x * y for x, y in pairs), ZERO)
        assert structure(sum_products(pairs)) == structure(want)

    @given(_TERMS)
    def test_cancelling_sums_are_zero(self, xs):
        terms = xs + [-x for x in reversed(xs)]
        assert structure(sum_values(terms)) == structure(ZERO)
        assert structure(sum_products([(x, ONE) for x in xs] + [(x, -ONE) for x in xs])) == \
            structure(ZERO)

    def test_empty_and_single_terms(self):
        assert sum_values([]) is ZERO and sum_products([]) is ZERO
        for x in (ZERO, ONE, EPS, const(Fr(-6, 4)), (1 + EPS) / (2 - EPS)):
            assert structure(sum_values([x])) == structure(x)
            assert structure(sum_products([(x, x)])) == structure(x * x)

    def test_constants_over_one_common_denominator(self):
        xs = [const(Fr(1, 6)), const(Fr(-1, 4)), const(Fr(5, 12)), const(3)]
        assert sum_values(xs) == const(Fr(10, 3))
        pairs = [(const(Fr(1, 2)), const(Fr(1, 3))), (const(Fr(-2, 5)), const(Fr(5, 4)))]
        assert sum_products(pairs) == const(Fr(-1, 3))


class TestOrder:
    def test_eps_below_every_positive_rational(self):
        assert EPS < const(Fr(1, 1000000))
        rng = random.Random(5)
        for _ in range(100):
            q = Fr(rng.randint(1, 1000), rng.randint(1, 1000))
            assert EPS < const(q)
            assert EPS > ZERO

    def test_reflexive(self):
        x = ONE / (ONE - EPS)
        assert x.compare(x) == 0

    def test_derived_example_gt(self):
        a = ONE / (ONE - EPS)
        b = ONE + EPS
        assert a.compare(b) == 1
        # oracle: sign stabilizes at eps = 1/2^k
        for k in range(10, 21):
            t = Fr(1, 2**k)
            assert a.eval_at(t) > b.eval_at(t)

    def test_total_order_properties(self):
        rng = random.Random(11)
        vals = [rand_eps_rational(rng, max_deg=3, bound=12) for _ in range(60)]
        for i in range(len(vals)):
            a, b, c = vals[i], vals[(i + 1) % len(vals)], vals[(i + 2) % len(vals)]
            # trichotomy
            assert sum([a < b, a == b, a > b]) == 1
            assert (a >= b) == (b <= a) == (a > b or a == b)
            # antisymmetry
            if a <= b and b <= a:
                assert a == b
            # transitivity
            lo, mid, hi = sorted([a, b, c])
            assert lo <= mid <= hi and lo <= hi

    def test_order_compatible_with_arithmetic(self):
        rng = random.Random(13)
        for _ in range(100):
            a = rand_eps_rational(rng, max_deg=3, bound=12)
            b = rand_eps_rational(rng, max_deg=3, bound=12)
            c = rand_eps_rational(rng, max_deg=3, bound=12)
            if a < b:
                assert a + c < b + c
                if c > ZERO:
                    assert a * c < b * c

    def test_compare_agrees_with_evaluation_oracle(self):
        rng = random.Random(17)
        for _ in range(150):
            a = rand_eps_rational(rng, max_deg=4, bound=15)
            b = rand_eps_rational(rng, max_deg=4, bound=15)
            d = a - b
            if d.is_zero:
                assert a.compare(b) == 0
                continue
            bound = d.sign_agreement_bound()
            for t in (bound / 2, bound / 3, bound / 7):
                lhs = d.eval_at(t)
                assert (lhs > 0) == (a.compare(b) > 0)
                assert (lhs < 0) == (a.compare(b) < 0)

    def test_compare_agrees_at_dyadic_points_above_threshold(self):
        rng = random.Random(19)
        for _ in range(60):
            a = rand_eps_rational(rng, max_deg=4, bound=15)
            b = rand_eps_rational(rng, max_deg=4, bound=15)
            d = a - b
            if d.is_zero:
                continue
            bound = d.sign_agreement_bound()
            k = 1
            while Fr(1, 2**k) >= bound:
                k += 1
            for kk in range(k, k + 6):
                value = d.eval_at(Fr(1, 2**kk))
                assert (value > 0) == (a.compare(b) > 0)
                assert (value < 0) == (a.compare(b) < 0)


class TestRootBound:
    def test_bound_is_below_positive_roots(self):
        # roots at 1/3 and 2: bound must be under 1/3
        p = [2, -7, 3]  # (1 - 3 eps)(2 - eps)
        b = positive_root_lower_bound(p)
        assert 0 < b < Fr(1, 3)

    def test_monomial_has_no_positive_root(self):
        assert positive_root_lower_bound([0, 0, 5]) == 1

    def test_sign_constant_below_bound(self):
        rng = random.Random(23)
        for _ in range(100):
            # numerator: a positive multiple; denominator: a positive constant
            x = EpsRational(rand_poly(rng, 5, bound=20, nonzero=True))
            b = positive_root_lower_bound(x.num.coeffs)
            signs = {x.eval_at(b / k) > 0 for k in (2, 3, 5, 9)}
            assert len(signs) == 1


class TestStandardPart:
    def test_rational_function_at_zero(self):
        x = (ONE + 2 * EPS) / (2 + EPS)
        assert x.standard_part() == Fr(1, 2)

    def test_infinitesimal(self):
        assert (EPS * EPS).standard_part() == 0

    def test_infinite_rejected(self):
        with pytest.raises(InfiniteValueError, match="infinite"):
            (ONE / EPS).standard_part()

    def test_additive_and_multiplicative(self):
        rng = random.Random(29)
        done = 0
        while done < 100:
            a = rand_eps_rational(rng, max_deg=3, bound=12)
            b = rand_eps_rational(rng, max_deg=3, bound=12)
            if not (a.is_finite() and b.is_finite()):
                continue
            done += 1
            assert (a + b).standard_part() == a.standard_part() + b.standard_part()
            assert (a * b).standard_part() == a.standard_part() * b.standard_part()


class TestInfinitesimalPredicate:
    def test_positive_infinitesimal(self):
        assert (EPS * EPS / (1 + EPS)).is_infinitesimal()

    def test_zero_is_not(self):
        assert not ZERO.is_infinitesimal()

    def test_nonzero_standard_part_is_not(self):
        assert not (const(Fr(1, 2)) + EPS).is_infinitesimal()


class TestPolyGcd:
    def test_gcd_is_monic_common_divisor(self):
        rng = random.Random(31)
        for _ in range(60):
            a = rand_primitive(rng, rng.randint(0, 3), bound=8)
            b = rand_primitive(rng, rng.randint(0, 3), bound=8)
            g = rand_primitive(rng, rng.randint(0, 2), bound=8)
            ag, bg = _pmul(a, g), _pmul(b, g)
            gg = poly_gcd(ag, bg)
            assert gg[-1] > 0
            assert math.gcd(*gg) == 1
            assert divides(gg, ag) and divides(gg, bg)
            # g divides the gcd of the padded pair
            assert divides(g, gg)

    def test_content_above_one(self):
        # 6 + 12 eps = 6 (1 + 2 eps) and 4 + 8 eps = 4 (1 + 2 eps)
        assert poly_gcd([6, 12], [4, 8]) == [1, 2]
        assert poly_gcd([0, 6, 12], [0, 0, 4, 8]) == [0, 1, 2]

    def test_negative_leading_coefficients(self):
        # (1 - eps) and (1 - eps^2) = (1 - eps)(1 + eps)
        assert poly_gcd([1, -1], [1, 0, -1]) == [-1, 1]
        assert poly_gcd([-2, 0, -2], [-3, 0, -3]) == [1, 0, 1]

    def test_constant_gcd(self):
        assert poly_gcd([1, 1], [2, 1]) == [1]
        assert poly_gcd([3], [0, 5]) == [1]
        assert poly_gcd([7], [-14]) == [1]

    def test_equal_operands(self):
        p = [-4, 6, 2]
        assert poly_gcd(p, p) == [-2, 3, 1]

    def test_zero(self):
        assert poly_gcd([], [0, 2]) == [0, 1]
        assert poly_gcd([0, 0, -3], []) == [0, 0, 1]
        assert poly_gcd([], []) == []


class TestCoprimeAtPoint:
    """The coprimality certificate that runs before the remainder sequence.

    It may decline to decide, but a True must mean coprime.
    """

    def test_planted_common_factor_is_never_certified_away(self):
        rng = random.Random(59)
        for i in range(400):
            f = planted_factor(rng, i)
            room = 12 - (len(f) - 1)
            a = _pmul(rand_primitive(rng, rng.randint(0, room)), f)
            b = _pmul(rand_primitive(rng, rng.randint(0, room)), f)
            assert not _coprime_at_point(a, b), (a, b)
            assert not _coprime_at_point(b, a), (a, b)
            assert divides(f, poly_gcd(a, b)), (a, b, f)

    def test_shared_linear_factor_is_caught(self):
        # (eps - r)(eps + 1) and (eps - r)(eps + 2) leave h = |xi - r|: dropping
        # the "- B" from the test, or trusting any h, would certify this pair.
        for r in (2**32 - 1, 3, -5, 2**70 + 1):
            a, b = _pmul([-r, 1], [1, 1]), _pmul([-r, 1], [2, 1])
            assert not _coprime_at_point(a, b)
            assert poly_gcd(a, b) == [-r, 1]

    def test_coprime_edge_cases_are_certified(self):
        big = 2**64 + 13
        coprime = [
            ([3, 2, -5], [1, -7]),  # negative leading coefficients
            ([-1, 0, -2], [4, 0, 0, -3]),
            ([big, 1], [big + 2, -3]),  # coefficients past 2^64
            ([-big, 2**80, -(2**70)], [1, big]),
            # coefficients past 2^32: a point fixed at 2^32 would be below B
            (_pmul([-(2**32 - 1), 1], [1, 1]), _pmul([-(2**32 - 3), 1], [2, 1])),
            (list(range(1, 14)), [1, 1]),  # unequal degrees
            ([0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1], [-1, 2]),
        ]
        for a, b in coprime:
            assert _coprime_at_point(a, b) and _coprime_at_point(b, a), (a, b)
            assert poly_gcd(a, b) == [1]

    def test_common_factor_edge_cases(self):
        big = 2**64 + 13
        shared = [
            ([-1, 0, -1], [3, 2, -5], [-2, 1, -1]),  # negative leading coefficients
            ([-big, 1], [big, 3], [1, -(2**65)]),  # coefficients past 2^64
            ([0, 1], list(range(1, 12)), [-1]),  # unequal degrees
            ([5, -7, 1], [1] * 10, [2, -1]),
        ]
        for f, ca, cb in shared:
            a, b = _pmul(f, ca), _pmul(f, cb)
            assert not _coprime_at_point(a, b) and not _coprime_at_point(b, a)
            g = f if f[-1] > 0 else [-c for c in f]
            assert poly_gcd(a, b) == g


class TestGcdSpanContract:
    """``bench/spans.py`` counts gcds by wrapping ``epsnum.poly_gcd`` by module name."""

    def test_sum_and_product_reach_module_poly_gcd(self, monkeypatch):
        calls = []
        real = epsnum.poly_gcd

        def counting(a, b):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setattr(epsnum, "poly_gcd", counting)
        x = EpsRational([0, 1], [1, 1])  # eps / (1 + eps)
        y = EpsRational([2, 1], [3, 1])  # (2 + eps) / (3 + eps)
        assert x + y == EpsRational([2, 6, 2], [3, 4, 1])
        assert calls, "a sum with coprime denominators made no gcd call"
        calls.clear()
        assert x * y == EpsRational([0, 2, 1], [3, 4, 1])
        assert calls, "a product of nonconstant values made no gcd call"


class TestExactTypes:
    """Canonical values hold ``int``; oracles and standard parts return ``Fraction``."""

    def values(self):
        rng = random.Random(37)
        xs = [ZERO, ONE, EPS, const(3), const(Fr(-2, 3)), ONE / EPS, (1 + EPS) / (2 - EPS)]
        xs += [rand_eps_rational(rng, max_deg=4, bound=20) for _ in range(40)]
        return xs

    def test_canonical_coefficients_are_int(self):
        xs = self.values()
        results = xs + [a + b for a, b in zip(xs, xs[1:])] + [a * b for a, b in zip(xs, xs[2:])]
        results += [a - b for a, b in zip(xs, xs[3:])] + [x.reciprocal() for x in xs if x]
        results += [-x for x in xs] + [x ** 3 for x in xs[:10]]
        for x in results:
            assert all(type(c) is int for c in x.num.coeffs + x.den.coeffs), x

    def test_oracles_return_fractions(self):
        for x in self.values():
            if x.is_finite():
                assert type(x.standard_part()) is Fr
            b = x.sign_agreement_bound()
            assert type(b) is Fr and b > 0
            for t in (b / 2, Fr(1, 3), 2):
                try:
                    assert type(x.eval_at(t)) is Fr
                except ZeroDivisionError:
                    pass
            if not x.is_zero:
                assert type(positive_root_lower_bound(x.num.coeffs)) is Fr
        assert type(EpsRational([3, 1]).eval_at(2)) is Fr
        assert positive_root_lower_bound([2, -7, 3]) == Fr(2, 9)

    def test_fraction_input_matches_integer_cleared_input(self):
        rng = random.Random(53)
        for _ in range(100):
            num = rand_poly(rng, 4, bound=30)
            den = rand_poly(rng, 4, bound=30, nonzero=True)
            scale = 1
            for c in num + den:
                scale = scale * c.denominator
            ints = ([int(c * scale) for c in num], [int(c * scale) for c in den])
            assert EpsRational(num, den) == EpsRational(*ints)
            assert EpsRational(num, den) == EpsRational(tuple(ints[0]), tuple(ints[1]))
        assert EpsRational([Fr(1, 2), Fr(1, 3)], [Fr(5, 6)]) == EpsRational([3, 2], [5])


class TestFlatValues:
    """A value holds two ``int`` tuples; ``num`` and ``den`` are views made on access."""

    def test_views_rebuild_the_value(self):
        rng = random.Random(71)
        xs = [ZERO, ONE, EPS, const(-7), const(Fr(6, 4)), ONE / EPS]
        xs += [rand_eps_rational(rng, max_deg=5, bound=40) for _ in range(60)]
        for x in xs:
            assert type(x.num) is EpsPolynomial and type(x.den) is EpsPolynomial
            assert EpsRational(x.num.coeffs, x.den.coeffs) == x
            assert hash(EpsRational(x.num.coeffs, x.den.coeffs)) == hash(x)

    def test_degree_is_the_larger_part_degree(self):
        assert (ZERO.degree, ONE.degree, EPS.degree, (ONE / EPS).degree) == (0, 0, 1, 1)
        rng = random.Random(73)
        xs = [ZERO, EPS, ONE / EPS, (1 + EPS) / (2 - EPS ** 3)]
        xs += [rand_eps_rational(rng, max_deg=5, bound=40) for _ in range(60)]
        for x in xs:
            assert x.degree == max(len(x.num.coeffs), len(x.den.coeffs)) - 1

    @pytest.mark.parametrize("name", ["num", "den", "_num", "_den"])
    def test_parts_cannot_be_set(self, name):
        x = (1 + EPS) / (2 - EPS)
        with pytest.raises(AttributeError):
            setattr(x, name, ONE.num if name in ("num", "den") else (1,))
        assert x == (1 + EPS) / (2 - EPS)

    def test_constant_text(self):
        cases = [
            (ZERO, "0"), (const(5), "5"), (const(-5), "-5"),
            (const(Fr(3, 4)), "3/4"), (const(Fr(-3, 4)), "-3/4"), (const(Fr(6, 4)), "3/2"),
        ]
        for x, text in cases:
            assert str(x) == text and repr(x) == f"EpsRational({text!r})"
        # the same text as the display of the numerator and denominator views
        for x, _ in cases:
            n, d = str(EpsRational(x.num.coeffs)), str(EpsRational(x.den.coeffs))
            assert str(x) == (n if d == "1" else f"{n}/{d}")

    def test_constant_past_digit_limit_refuses_to_print(self):
        for x in (const(10**5000), const(Fr(1, 10**5000)), const(-(10**5000))):
            with pytest.raises(DigitLimitError):
                str(x)

    def test_sum_of_one_value_is_that_value(self):
        c = const(Fr(-6, 4))
        assert sum_values([c]) is c
        for v in (c, ONE, (1 + EPS) / (2 - EPS), EPS, ZERO):
            assert sum_values([v]) == v
            assert sum_values(iter([v])) == v

    @pytest.mark.parametrize(
        "text, value", [("6/4", const(Fr(3, 2))), ("0/5", ZERO), ("007", const(7)), ("12", const(12))]
    )
    def test_plain_literals(self, text, value):
        assert structure(parse_eps_expr(text)) == structure(value)

    def test_plain_literal_over_zero(self):
        with pytest.raises(ZeroDivisionError):
            parse_eps_expr("1/0")
