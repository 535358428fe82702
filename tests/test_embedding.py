"""The quotient-tower embedding: layer laws, well-definedness, homomorphism.

Independent oracle: for the rat and eps kernels the whole tower can be
collapsed into the ambient field itself (Fraction arithmetic, eps-field
arithmetic) by evaluating [a, b] as a/b and [[p, n]] as p - n.  Tower
operations and comparisons must commute with that collapse; the collapse
never calls tower code.
"""

import random
from fractions import Fraction as Fr

import pytest
from conftest import rand_eps_rational

from plauscalc.embedding import (
    Diff,
    Embedding,
    Frac,
    verify_embedding,
)
from plauscalc.epsnum import EPS, ONE, ZERO, const
import plauscalc.kernels
from plauscalc.kernels import (
    KERNELS,
    DomainError,
    RatKernel,
    UndefinedSumError,
    check_axioms,
    get_kernel,
)


class _RatKernelE23(RatKernel):
    """rat kernel whose designated interior element is 2/3."""

    nontrivial = Fr(2, 3)


@pytest.fixture
def emb(rat_kernel):
    return Embedding(rat_kernel)


def collapse_frac(fr, div):
    return div(fr.a, fr.b)


def collapse_diff(d, div):
    return collapse_frac(d.pos, div) - collapse_frac(d.neg, div)


def collapse_field(x, div):
    return collapse_diff(x.num, div) / collapse_diff(x.den, div)


def _rat_div(a, b):
    return Fr(a) / Fr(b)


def _eps_div(a, b):
    return a / b


# Every registered kernel with an interior element, plus one whose unit is
# S(e) rather than e; the trivial kernel is covered by TestScalingUnit below.
_UNIT_KERNELS = [k for k in KERNELS.values() if k.nontrivial is not None] + [_RatKernelE23()]


class TestScalingUnit:
    @pytest.mark.parametrize("k", _UNIT_KERNELS, ids=lambda k: type(k).__name__ + ":" + k.name)
    def test_default_unit_keeps_every_sum_defined(self, k):
        emb = Embedding(k)
        assert k.leq(emb.unit, k.S(emb.unit))
        rng = random.Random(12)

        def entry():
            return k.top if rng.random() < 0.2 else k.sample(rng)

        def frac():
            b = entry()
            while k.eq(b, k.bottom):
                b = entry()
            return emb.frac(entry(), b)

        for _ in range(40):
            emb.frac_add(frac(), frac())  # must not raise
        emb.frac_add(emb.frac_one, emb.frac_one)

    def test_unit_is_min_of_e_and_its_complement(self, rat_kernel):
        assert Embedding(rat_kernel).unit == Fr(1, 2)
        assert Embedding(_RatKernelE23()).unit == Fr(1, 3)

    def test_trivial_kernel_unit_is_top(self, bool_kernel):
        assert Embedding(bool_kernel).unit is True

    def test_trivial_kernel_one_plus_one_is_undefined(self, bool_kernel):
        emb = Embedding(bool_kernel)
        with pytest.raises(UndefinedSumError, match="summation unit exhausted"):
            emb.frac_add(emb.frac_one, emb.frac_one)


class TestFracLayer:
    def test_mul_example(self, emb):
        out = emb.frac_mul(emb.frac(Fr(1, 2), Fr(1)), emb.frac(Fr(1, 3), Fr(1)))
        assert emb.frac_eq(out, emb.frac(Fr(1, 6), Fr(1)))

    def test_add_example_with_explicit_unit(self, emb):
        assert emb.unit == Fr(1, 2)
        out = emb.frac_add(emb.frac(Fr(1, 4), Fr(1)), emb.frac(Fr(1, 4), Fr(1)))
        assert (out.a, out.b) == (Fr(1, 4), Fr(1, 2))
        assert emb.frac_eq(out, emb.frac(Fr(1, 2), Fr(1)))

    def test_lt_example(self, emb):
        assert emb.frac_lt(emb.frac(Fr(1, 3), Fr(1)), emb.frac(Fr(1, 2), Fr(1)))

    def test_zero_denominator_rejected(self, emb):
        with pytest.raises(ZeroDivisionError):
            emb.frac(Fr(1, 2), Fr(0))

    def test_well_defined_under_representative_swap(self, emb, rat_kernel):
        rng = random.Random(3)
        k = rat_kernel
        for _ in range(100):
            a, b = k.sample(rng), k.sample(rng)
            c, d = k.sample(rng), k.sample(rng)
            t, u = k.sample(rng), k.sample(rng)
            if 0 in (b, d, t, u):
                continue
            x, y = Frac(a, b), Frac(c, d)
            x2 = Frac(k.F(a, t), k.F(b, t))
            y2 = Frac(k.F(c, u), k.F(d, u))
            assert emb.frac_eq(x, x2)
            assert emb.frac_eq(emb.frac_add(x, y), emb.frac_add(x2, y2))
            assert emb.frac_eq(emb.frac_mul(x, y), emb.frac_mul(x2, y2))
            assert emb.frac_lt(x, y) == emb.frac_lt(x2, y2)

    def test_add_independent_of_unit(self, emb, rat_kernel):
        emb23 = Embedding(_RatKernelE23())
        assert (emb.unit, emb23.unit) == (Fr(1, 2), Fr(1, 3))
        rng = random.Random(4)
        k = rat_kernel
        for _ in range(60):
            x = Frac(k.sample(rng), Fr(rng.randint(1, 8), 8))
            y = Frac(k.sample(rng), Fr(rng.randint(1, 8), 8))
            assert emb.frac_eq(emb.frac_add(x, y), emb23.frac_add(x, y))

    def test_collapse_oracle(self, emb, rat_kernel):
        rng = random.Random(5)
        k = rat_kernel
        for _ in range(100):
            x = Frac(k.sample(rng), Fr(rng.randint(1, 9), 9))
            y = Frac(k.sample(rng), Fr(rng.randint(1, 9), 9))
            assert collapse_frac(emb.frac_add(x, y), _rat_div) == collapse_frac(x, _rat_div) + collapse_frac(y, _rat_div)
            assert collapse_frac(emb.frac_mul(x, y), _rat_div) == collapse_frac(x, _rat_div) * collapse_frac(y, _rat_div)
            assert emb.frac_lt(x, y) == (collapse_frac(x, _rat_div) < collapse_frac(y, _rat_div))


class TestDiffLayer:
    def test_square_example(self, emb):
        d = Diff(emb.frac_one, emb.frac(Fr(1, 2), Fr(1)))  # the class of 1/2
        sq = emb.diff_mul(d, d)
        assert emb.diff_eq(sq, emb.diff_of(emb.frac(Fr(1, 4), Fr(1))))

    def test_negation_is_additive_inverse(self, emb, rat_kernel):
        rng = random.Random(6)
        for _ in range(50):
            d = Diff(
                Frac(rat_kernel.sample(rng), Fr(1)),
                Frac(rat_kernel.sample(rng), Fr(1)),
            )
            assert emb.diff_eq(emb.diff_add(d, emb.diff_neg(d)), emb.diff_zero)

    def test_order_example(self, emb):
        minus_one = Diff(emb.frac_zero, emb.frac_one)
        plus_one = Diff(emb.frac_one, emb.frac_zero)
        assert emb.diff_lt(minus_one, plus_one)

    def test_no_zero_divisors(self, emb, rat_kernel):
        rng = random.Random(7)
        for _ in range(100):
            x = Diff(Frac(rat_kernel.sample(rng), Fr(1)), Frac(rat_kernel.sample(rng), Fr(1)))
            y = Diff(Frac(rat_kernel.sample(rng), Fr(1)), Frac(rat_kernel.sample(rng), Fr(1)))
            if emb.diff_sign(x) != 0 and emb.diff_sign(y) != 0:
                assert emb.diff_sign(emb.diff_mul(x, y)) != 0


class TestFieldLayer:
    def test_embed_bottom_and_top(self, emb):
        assert emb.field_eq(emb.embed(Fr(0)), emb.zero)
        assert emb.field_eq(emb.embed(Fr(1)), emb.one)

    def test_two_thirds_identification(self, emb, rat_kernel):
        # 2/3 is the class of [x+x, x+x+x]; cross-multiplied at the quotient
        # layer this is F(2/3, 3/8) = F(1, 1/4) for x = 1/8
        k = rat_kernel
        x = Fr(1, 8)
        xx = k.G(x, x)
        xxx = k.G(xx, x)
        assert k.F(Fr(2, 3), xxx) == k.F(Fr(1), xx)
        assert emb.frac_eq(emb.frac(Fr(2, 3), Fr(1)), emb.frac(xx, xxx))

    def test_inverse_of_embedded_half(self, emb):
        two = emb.field_inverse(emb.embed(Fr(1, 2)))
        assert emb.field_eq(two * emb.embed(Fr(1, 2)), emb.one)

    def test_inverse_of_one(self, emb):
        assert emb.field_eq(emb.field_inverse(emb.one), emb.one)

    def test_inverse_of_zero(self, emb):
        with pytest.raises(ZeroDivisionError):
            emb.field_inverse(emb.zero)

    def test_field_axioms_on_samples(self, emb, rat_kernel):
        rng = random.Random(8)
        k = rat_kernel
        elems = []
        while len(elems) < 12:
            a, b = k.sample(rng), k.sample(rng)
            if b != 0:
                elems.append(emb.embed(a) / emb.embed(b) if a != 0 else emb.embed(a))
        for i in range(len(elems)):
            x, y, z = elems[i], elems[(i + 1) % 12], elems[(i + 2) % 12]
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x + y == y + x and x * y == y * x
            assert x * (y + z) == x * y + x * z
            assert x - x == emb.zero
            if emb.field_sign(x) != 0:
                assert x * emb.field_inverse(x) == emb.one

    def test_collapse_oracle_identity_on_rationals(self, emb, rat_kernel):
        rng = random.Random(9)
        for _ in range(60):
            v = rat_kernel.sample(rng)
            assert collapse_field(emb.embed(v), _rat_div) == v

    def test_collapse_oracle_commutes_with_ops(self, emb, rat_kernel):
        rng = random.Random(10)
        for _ in range(40):
            a, b = rat_kernel.sample(rng), rat_kernel.sample(rng)
            ea, eb = emb.embed(a), emb.embed(b)
            assert collapse_field(ea + eb, _rat_div) == Fr(a) + Fr(b)
            assert collapse_field(ea * eb, _rat_div) == Fr(a) * Fr(b)
            assert collapse_field(ea - eb, _rat_div) == Fr(a) - Fr(b)
            assert (ea < eb) == (a < b)

    def test_collapse_oracle_eps_kernel(self, eps_kernel):
        emb = Embedding(eps_kernel)
        rng = random.Random(11)
        for _ in range(15):
            a, b = eps_kernel.sample(rng), eps_kernel.sample(rng)
            ea, eb = emb.embed(a), emb.embed(b)
            assert collapse_field(ea * eb, _eps_div) == a * b
            assert collapse_field(ea + eb, _eps_div) == a + b
            assert (ea < eb) == (a < b)


class TestVerifyEmbedding:
    @pytest.mark.parametrize("name", ["rat", "eps", "bool"])
    def test_homomorphism_report(self, name):
        report = verify_embedding(get_kernel(name), samples=60, seed=1)
        assert report.all_passed, [c.format() for c in report.checks.values()]

    def test_embed_value_entry_point(self, rat_kernel):
        fe = Embedding(rat_kernel).embed(Fr(2, 3))
        assert collapse_field(fe, _rat_div) == Fr(2, 3)


class TestBoundaryChecks:
    """Kernel values are checked where they enter the tower."""

    @pytest.mark.parametrize("name, bad", [("rat", Fr(3, 2)), ("eps", -EPS), ("bool", 1)])
    def test_entry_points_reject_values_outside_domain(self, name, bad):
        k = get_kernel(name)
        emb = Embedding(k)
        for call in (
            lambda: emb.frac(bad, k.top),
            lambda: emb.frac(k.top, bad),
            lambda: emb.embed(bad),
        ):
            with pytest.raises(DomainError):
                call()


class TestSampleCount:
    @pytest.mark.parametrize("samples", [0, -3])
    def test_no_samples_refused(self, rat_kernel, samples):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            verify_embedding(rat_kernel, samples=samples)

    def test_one_sample_runs(self, rat_kernel):
        assert verify_embedding(rat_kernel, samples=1).all_passed

    @pytest.mark.parametrize("check", [verify_embedding, check_axioms])
    def test_bound_is_shared_and_inclusive(self, rat_kernel, monkeypatch, check):
        monkeypatch.setattr(plauscalc.kernels, "MAX_SAMPLES", 3)
        assert check(rat_kernel, samples=3).samples == 3
        with pytest.raises(ValueError, match="^samples must be <= 3$"):
            check(rat_kernel, samples=4)


def lift(emb, v):
    """The ambient-field value v as a tower element, built from kernel values:
    with t = 1/(1 + |v|), p = max(vt, 0) and n = max(-vt, 0) lie in [0, 1), and
    lift(v) = (embed(p) - embed(n)) / embed(t)."""
    zero = v * 0
    t = 1 / (1 + (-v if v < zero else v))
    p, n = max(v * t, zero), max(-v * t, zero)
    return (emb.embed(p) - emb.embed(n)) / emb.embed(t)


class TestMinimality:
    """The paper's minimality theorem, lift direction: the tower over the rat
    (eps) kernel is all of Q (Q(eps)), not a proper extension of it.  Every
    ambient value v is reached by ``lift``, which collapses back to v; and
    every tower element is equal to the lift of its collapse."""

    def test_collapse_of_lift_is_identity_on_rat(self, rat_kernel):
        emb = Embedding(rat_kernel)
        rng = random.Random(21)
        values = [Fr(0), Fr(1), Fr(-1)] + [
            Fr(rng.randint(-60, 60), rng.randint(1, 12)) for _ in range(30)]
        for v in values:
            assert collapse_field(lift(emb, v), _rat_div) == v

    def test_collapse_of_lift_is_identity_on_eps(self, eps_kernel):
        emb = Embedding(eps_kernel)
        rng = random.Random(22)
        values = [ZERO, ONE, -ONE, EPS, -EPS, 1 / EPS, -1 / EPS ** 2] + [
            rand_eps_rational(rng, max_deg=2, bound=9) for _ in range(8)]
        for v in values:
            assert collapse_field(lift(emb, v), _eps_div) == v

    @pytest.mark.parametrize("name, div", [("rat", _rat_div), ("eps", _eps_div)])
    def test_lift_of_collapse_is_identity_on_tower(self, name, div):
        k = get_kernel(name)
        emb = Embedding(k)
        rng = random.Random(23)
        for _ in range(8):
            ea, eb, ec = (emb.embed(k.sample(rng)) for _ in range(3))
            x = ea - eb if emb.field_sign(ec) == 0 else (ea - eb) / ec
            assert emb.field_eq(lift(emb, collapse_field(x, div)), x)
