"""Kernels: operations, axiom checker, archimedean and separability probes.

Both diagnostic searches are cross-checked against independent brute-force
oracles at desk scale: literal one-at-a-time iteration for the archimedean
bound and a full double loop for separability witnesses.  The axiom checker,
which evaluates each expression once per triple, is cross-checked against a
reference that evaluates every law operand afresh.  The rat kernel's F, G
and S, built on integer numerators and denominators, are checked against
``Fraction``'s own operators, directly and through twin kernels that carry the
operator forms into the checker, the embedding and both probes.
"""

import math
import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plauscalc.embedding import verify_embedding
from plauscalc.epsnum import EPS, ONE, ZERO, const
from plauscalc.kernels import (
    KERNELS,
    AxiomCheck,
    AxiomReport,
    BrokenNegationKernel,
    DomainError,
    RatKernel,
    UndefinedSumError,
    archimedean_check,
    check_axioms,
    get_kernel,
    separability_check,
)


@pytest.fixture(params=["rat", "eps", "bool"])
def kernel(request):
    return get_kernel(request.param)


# One value outside each kernel's domain.
OUTSIDE = {"rat": Fr(2), "eps": const(2), "bool": 2}


class _LeakyKernel(RatKernel):
    """rat kernel whose sampler leaves the domain."""

    name = "leaky"

    def sample(self, rng):
        return Fr(2)


class TestOperations:
    def test_f_examples(self, rat_kernel, eps_kernel):
        assert rat_kernel.F(Fr(1, 2), Fr(1, 3)) == Fr(1, 6)
        assert eps_kernel.F(EPS, EPS) == EPS * EPS

    def test_f_top_unit_everywhere(self, kernel):
        rng = random.Random(0)
        for _ in range(20):
            x = kernel.sample(rng)
            assert kernel.eq(kernel.F(x, kernel.top), x)

    def test_s_examples(self, rat_kernel, eps_kernel):
        assert rat_kernel.S(Fr(1, 3)) == Fr(2, 3)
        assert eps_kernel.S(EPS) == ONE - EPS

    def test_s_bottom_is_top(self, kernel):
        assert kernel.eq(kernel.S(kernel.bottom), kernel.top)

    def test_g_examples(self, rat_kernel):
        assert rat_kernel.G(Fr(1, 2), Fr(1, 3)) == Fr(5, 6)

    def test_g_partiality_is_an_error_not_a_crash(self, rat_kernel):
        with pytest.raises(UndefinedSumError, match="undefined sum"):
            rat_kernel.G(Fr(1, 2), Fr(2, 3))

    def test_g_bottom_unit(self, kernel):
        rng = random.Random(1)
        for _ in range(20):
            x = kernel.sample(rng)
            assert kernel.eq(kernel.G(x, kernel.bottom), x)

    def test_domain_enforced(self, rat_kernel, eps_kernel):
        with pytest.raises(DomainError):
            rat_kernel.F(Fr(3, 2), Fr(1, 2))
        with pytest.raises(DomainError):
            eps_kernel.S(-EPS)

    def test_eps_domain_matches_subtraction_definition(self, eps_kernel):
        near = [ZERO, ONE, EPS, -EPS, ONE - EPS, ONE + EPS, ONE + EPS ** 3, ONE - EPS ** 3 / (1 + EPS),
                ONE / (ONE - EPS), (ONE - EPS) / (ONE + EPS), ONE / EPS, const(2), const(Fr(1, 2))]
        rng = random.Random(5)
        values = near + [eps_kernel.sample(rng) + (EPS - EPS * EPS) * rng.randint(-2, 2) for _ in range(200)]
        for x in values:
            assert eps_kernel.contains(x) == (x.sign() >= 0 and (ONE - x).sign() >= 0), x


class TestClosure:
    """The domain is closed under the unchecked operations.

    Library code checks a value once where it enters and then works on
    ``_f``/``_s``/``_g``; this invariant is what makes the skipped re-checks
    safe.
    """

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_unchecked_results_stay_in_domain(self, name):
        k = KERNELS[name]
        rng = random.Random(13)
        values = [k.bottom, k.top] + [k.sample(rng) for _ in range(60)]
        for x in values:
            assert k.contains(x), x
            assert k.contains(k._s(x)), x
        for x, y in zip(values, values[2:] + values[:2]):
            assert k.contains(k._f(x, y)), (x, y)
            if k._g_defined(x, y):
                assert k.contains(k._g(x, y)), (x, y)

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_private_forms_agree_with_public(self, name):
        k = KERNELS[name]
        rng = random.Random(14)
        for _ in range(60):
            x, y = k.sample(rng), k.sample(rng)
            assert k._g_defined(x, y) == k.g_defined(x, y)
            if k._g_defined(x, y):
                assert k.eq(k._g_sum(x, y), k.G(x, y))
            else:
                with pytest.raises(UndefinedSumError) as public:
                    k.G(x, y)
                with pytest.raises(UndefinedSumError) as private:
                    k._g_sum(x, y)
                assert str(private.value) == str(public.value)


class TestBoundaryChecks:
    """Values are checked where they enter the library."""

    def test_public_operations_reject(self, kernel):
        bad, ok = OUTSIDE[kernel.name], kernel.top
        for call in (
            lambda: kernel.F(bad, ok),
            lambda: kernel.F(ok, bad),
            lambda: kernel.S(bad),
            lambda: kernel.G(bad, kernel.bottom),
            lambda: kernel.G(kernel.bottom, bad),
            lambda: kernel.g_defined(bad, ok),
            lambda: kernel.g_defined(ok, bad),
        ):
            with pytest.raises(DomainError):
                call()

    def test_archimedean_rejects(self, kernel):
        with pytest.raises(DomainError):
            archimedean_check(kernel, OUTSIDE[kernel.name], 8)

    @pytest.mark.parametrize("name", ["rat", "eps"])
    def test_separability_rejects_each_argument(self, name):
        k = get_kernel(name)
        x, y, c = (k.coerce(Fr(n, 8)) for n in (1, 4, 2))
        bad = OUTSIDE[name]
        for args in ((bad, y, c), (x, bad, c), (x, y, bad)):
            with pytest.raises(DomainError):
                separability_check(k, *args, 8)

    def test_check_axioms_rejects_samples_outside_domain(self):
        with pytest.raises(DomainError):
            check_axioms(_LeakyKernel(), samples=3)


class TestAxiomChecker:
    @pytest.mark.parametrize("seed", [0, 1, 2024])
    def test_builtin_kernels_pass(self, kernel, seed):
        report = check_axioms(kernel, samples=200, seed=seed)
        assert report.all_passed, [c.format() for c in report.failures]

    def test_broken_negation_fails_involution_with_witness(self):
        broken = get_kernel("broken-s")
        report = check_axioms(broken, samples=200, seed=0)
        involution = report.checks["S-involution"]
        assert not involution.passed
        (w,) = involution.witness
        x = Fr(w)
        assert broken.S(broken.S(x)) != x  # the witness reproduces the violation

    def test_broken_negation_hand_value(self):
        broken = get_kernel("broken-s")
        assert broken.S(Fr(1, 2)) == Fr(1, 4)
        assert broken.S(broken.S(Fr(1, 2))) == Fr(9, 16)

    def test_bound_consequences_on_samples(self, kernel):
        # F(x,y) <= min(x,y) and G(x,y) >= max(x,y) wherever G is defined
        rng = random.Random(9)
        for _ in range(100):
            x, y = kernel.sample(rng), kernel.sample(rng)
            f = kernel.F(x, y)
            assert kernel.leq(f, x) and kernel.leq(f, y)
            if kernel.g_defined(x, y):
                g = kernel.G(x, y)
                assert kernel.leq(x, g) and kernel.leq(y, g)

    def test_cancellation_on_samples(self, kernel):
        rng = random.Random(10)
        for _ in range(200):
            a, b, c = (kernel.sample(rng) for _ in range(3))
            if kernel.g_defined(a, b) and kernel.g_defined(a, c):
                if kernel.eq(kernel.G(a, b), kernel.G(a, c)):
                    assert kernel.eq(b, c)
            if not kernel.eq(a, kernel.bottom):
                if kernel.eq(kernel.F(a, b), kernel.F(a, c)):
                    assert kernel.eq(b, c)


def archimedean_oracle(kernel, e, n_max):
    """Literal recursion: n.e = G((n-1).e, e), scanning n = 1, 2, 3, ..."""
    s = kernel.S(e)
    ne = e
    for n in range(1, n_max + 1):
        if kernel.lt(s, ne):
            return n
        if not kernel.g_defined(ne, e):
            return None
        ne = kernel.G(ne, e)
    return None


class TestArchimedean:
    def test_rat_half(self, rat_kernel):
        r = archimedean_check(rat_kernel, Fr(1, 2), 10**6)
        assert r.found and r.n == 2

    def test_rat_top(self, rat_kernel):
        r = archimedean_check(rat_kernel, Fr(1), 10**6)
        assert r.found and r.n == 1

    def test_eps_infinitesimal_not_found(self, eps_kernel):
        r = archimedean_check(eps_kernel, EPS, 10**6)
        assert not r.found

    def test_eps_noninfinitesimal_found(self, eps_kernel):
        # 2e = 2/3 + 2 eps already exceeds S(e) = 2/3 - eps
        r = archimedean_check(eps_kernel, const(Fr(1, 3)) + EPS, 10**6)
        assert r.found and r.n == 2
        # without the infinitesimal bump the threshold moves to 3
        r = archimedean_check(eps_kernel, const(Fr(1, 3)), 10**6)
        assert r.found and r.n == 3

    def test_bottom_rejected(self, rat_kernel):
        with pytest.raises(ValueError):
            archimedean_check(rat_kernel, Fr(0), 100)

    def test_rat_kernel_has_no_counterexample(self, rat_kernel):
        # every nonzero rational element eventually exceeds its complement
        rng = random.Random(55)
        for _ in range(100):
            e = rat_kernel.sample(rng)
            if e == 0:
                continue
            assert archimedean_check(rat_kernel, e, 10**6).found

    def test_matches_literal_iteration(self, rat_kernel, eps_kernel):
        rng = random.Random(77)
        for kernel in (rat_kernel, eps_kernel):
            for _ in range(40):
                e = kernel.sample(rng)
                if kernel.eq(e, kernel.bottom):
                    continue
                expected = archimedean_oracle(kernel, e, 700)
                got = archimedean_check(kernel, e, 700)
                assert got.found == (expected is not None)
                if expected is not None:
                    assert got.n == expected


def separability_oracle(kernel, x, y, c, bound):
    """Full double loop in lexicographic order."""
    xs, ys, cs = [x], [y], [c]
    for _ in range(bound - 1):
        xs.append(kernel.F(xs[-1], x))
        ys.append(kernel.F(ys[-1], y))
        cs.append(kernel.F(cs[-1], c))
    for n in range(1, bound + 1):
        for m in range(1, bound + 1):
            if kernel.lt(xs[n - 1], cs[m - 1]) and kernel.lt(cs[m - 1], ys[n - 1]):
                return (n, m)
    return None


class TestSeparability:
    def test_rat_immediate_witness(self, rat_kernel):
        r = separability_check(rat_kernel, Fr(1, 4), Fr(1, 2), Fr(1, 3), 10)
        assert (r.found, r.n, r.m) == (True, 1, 1)

    def test_rat_true_smallest_witness(self, rat_kernel):
        # need (1/8)^n < (1/2)^m < (1/2)^n, i.e. n < m < 3n: first at (1, 2)
        assert separability_oracle(rat_kernel, Fr(1, 8), Fr(1, 2), Fr(1, 2), 10) == (1, 2)
        r = separability_check(rat_kernel, Fr(1, 8), Fr(1, 2), Fr(1, 2), 10)
        assert (r.found, r.n, r.m) == (True, 1, 2)

    def test_eps_impossibility(self, eps_kernel):
        r = separability_check(eps_kernel, EPS * EPS, EPS, const(Fr(1, 2)), 1000)
        assert not r.found

    def test_eps_impossibility_oracle_desk_scale(self, eps_kernel):
        assert separability_oracle(eps_kernel, EPS * EPS, EPS, const(Fr(1, 2)), 12) is None

    def test_matches_brute_force(self, rat_kernel):
        rng = random.Random(31)
        done = 0
        while done < 40:
            vals = sorted(
                Fr(rng.randint(1, 15), 16) for _ in range(2)
            )
            x, y = vals
            c = Fr(rng.randint(1, 15), 16)
            if x == y:
                continue
            done += 1
            expected = separability_oracle(rat_kernel, x, y, c, 8)
            got = separability_check(rat_kernel, x, y, c, 8)
            assert got.found == (expected is not None)
            if expected:
                assert (got.n, got.m) == expected

    def test_preconditions(self, rat_kernel):
        with pytest.raises(ValueError):
            separability_check(rat_kernel, Fr(1, 2), Fr(1, 4), Fr(1, 3), 10)  # x > y
        with pytest.raises(ValueError):
            separability_check(rat_kernel, Fr(0), Fr(1, 2), Fr(1, 3), 10)  # x at bottom


class TestRatOrder:
    """The rat order by integer cross-products agrees with Fraction's."""

    values = st.one_of(
        st.sampled_from([0, 1]),
        st.builds(Fr, st.integers(-(2**60), 2**60), st.integers(1, 2**60)),
    )

    @settings(max_examples=400, derandomize=True)
    @given(values, values)
    def test_agrees_with_fraction_order(self, x, y):
        k = RatKernel()
        assert k.eq(x, y) == (x == y)
        assert k.leq(x, y) == (x <= y)
        assert k.lt(x, y) == (x < y)
        assert k.contains(x) == (0 <= x <= 1)

    def test_contains_rejects_foreign_types(self, rat_kernel):
        for v in (True, False, 0.5, "1/2", const(Fr(1, 2)), None):
            assert not rat_kernel.contains(v)


class TestRatOperations:
    """F, G and S on integer parts equal Fraction's operators, as canonical Fractions."""

    values = st.one_of(
        st.sampled_from([0, 1]),
        # Small denominators, as the sampler draws, and parts up to 2^60.
        (st.integers(1, 16) | st.integers(1, 2**60)).flatmap(
            lambda d: st.builds(Fr, st.integers(0, d), st.just(d))
        ),
    )

    @settings(max_examples=400, derandomize=True)
    @given(values, values)
    def test_agree_with_fraction_operators(self, x, y):
        rat, broken = get_kernel("rat"), get_kernel("broken-s")
        cases = [(rat._f(x, y), x * y), (rat._s(x), 1 - x), (broken._s(x), (1 - x) ** 2)]
        if rat._g_defined(x, y):
            cases.append((rat._g(x, y), x + y))
        for got, want in cases:
            assert got == want
            assert type(got) is Fr
            assert got.denominator > 0 and math.gcd(got.numerator, got.denominator) == 1


class TestBoolCoerce:
    def test_constants_zero_and_one(self, bool_kernel):
        for v in (0, Fr(0), const(0), ZERO, False):
            assert bool_kernel.coerce(v) is False
        for v in (1, Fr(1), const(1), ONE, True):
            assert bool_kernel.coerce(v) is True

    def test_other_values_refused(self, bool_kernel):
        for v in (2, -1, Fr(1, 2), const(Fr(1, 2)), EPS, ONE - EPS, "1", None):
            with pytest.raises(DomainError, match="is not a bool-kernel value"):
                bool_kernel.coerce(v)


class TestRatCoerce:
    def test_constant_eps_value_becomes_a_fraction(self, rat_kernel):
        for v, want in ((const(Fr(1, 2)), Fr(1, 2)), (ZERO, Fr(0)), (ONE, Fr(1))):
            got = rat_kernel.coerce(v)
            assert type(got) is Fr and got == want

    def test_floats_strings_and_eps_terms_refused(self, rat_kernel):
        for v in (0.5, "1/2"):
            with pytest.raises(DomainError, match="is not a rat-kernel value"):
                rat_kernel.coerce(v)
        with pytest.raises(DomainError, match="^eps is not a rat-kernel value$"):
            rat_kernel.coerce(EPS)


class TestLongValuesInMessages:
    """A message echoes a value cut to 40 characters; short values print whole."""

    def test_domain_error(self, kernel):
        for bad in (Fr(10**3000 + 1, 10**3000), const(10**5000), 7 + EPS * 10**3000):
            with pytest.raises(DomainError) as exc:
                kernel.coerce(bad)
            assert len(str(exc.value)) < 100

    def test_undefined_sum(self, rat_kernel):
        big = Fr(10**3000 - 1, 10**3000)  # in the rat domain, 6,000 digits long
        cut = str(big)[:37] + "..."
        with pytest.raises(UndefinedSumError) as exc:
            rat_kernel.G(big, big)
        assert str(exc.value) == f"undefined sum: {cut} exceeds S({cut})"
        with pytest.raises(UndefinedSumError, match=r"^undefined sum: 3/4 exceeds S\(1/2\)$"):
            rat_kernel.G(Fr(3, 4), Fr(1, 2))


def reference_check_axioms(kernel, samples, seed, prefixes=None):
    """The checker's loop with every law operand evaluated afresh.

    Each G-definedness test goes through ``_g_defined`` and nothing is reused
    between laws, so it is independent of the checker's sharing of values.
    When ``prefixes`` is a list, the law table that ``check_axioms`` with
    ``samples=n`` reports is appended to it for each n = 1 .. samples.
    """
    rng = random.Random(seed)
    k = kernel
    bot, top = k.bottom, k.top
    report = AxiomReport(kernel=k.name, samples=samples, seed=seed)

    def g_try(x, y):
        return k._g(x, y) if k._g_defined(x, y) else None

    law = report.checks
    for name in (
        "F-symmetry", "F-associativity", "G-symmetry", "G-associativity",
        "F-over-G-distributivity", "F-monotonicity", "G-monotonicity",
        "S-antitone", "G-bottom-unit", "F-bottom-absorbing", "F-top-unit",
        "S-involution", "S-bottom-is-top", "F-below-min", "G-above-max",
    ):
        law[name] = AxiomCheck(name)
    # The one law checked after the loop; it reads no sample.
    bottom_law = AxiomCheck("S-bottom-is-top")
    bottom_law.record(k, k.eq(k._s(bot), top), (bot,), "S(bottom) != top")

    for _ in range(samples):
        x = k.sample(rng)
        y = k.sample(rng)
        z = k.sample(rng)
        k._require(x, y, z)

        fxy = k._f(x, y)
        law["F-symmetry"].record(k, k.eq(fxy, k._f(y, x)), (x, y), "F(x,y) != F(y,x)")
        law["F-associativity"].record(
            k, k.eq(k._f(fxy, z), k._f(x, k._f(y, z))), (x, y, z), "F(F(x,y),z) != F(x,F(y,z))"
        )

        gxy = g_try(x, y)
        gyx = g_try(y, x)
        if gxy is not None or gyx is not None:
            law["G-symmetry"].record(
                k,
                gxy is not None and gyx is not None and k.eq(gxy, gyx),
                (x, y),
                "G(x,y) and G(y,x) differ or one side is undefined",
            )

        left = g_try(gxy, z) if gxy is not None else None
        gyz = g_try(y, z)
        right = g_try(x, gyz) if gyz is not None else None
        if left is not None or right is not None:
            law["G-associativity"].record(
                k,
                left is not None and right is not None and k.eq(left, right),
                (x, y, z),
                "G(G(x,y),z) and G(x,G(y,z)) differ or one side is undefined",
            )

        if gxy is not None:
            dist = g_try(k._f(x, z), k._f(y, z))
            law["F-over-G-distributivity"].record(
                k,
                dist is not None and k.eq(k._f(gxy, z), dist),
                (x, y, z),
                "F(G(x,y),z) != G(F(x,z),F(y,z))",
            )
            law["G-above-max"].record(
                k, k.leq(x, gxy) and k.leq(y, gxy), (x, y), "G(x,y) below an argument"
            )

        law["F-below-min"].record(
            k, k.leq(fxy, x) and k.leq(fxy, y), (x, y), "F(x,y) above an argument"
        )

        if k.lt(x, y):
            if not k.eq(z, bot):
                law["F-monotonicity"].record(
                    k,
                    k.lt(k._f(x, z), k._f(y, z)) and k.lt(k._f(z, x), k._f(z, y)),
                    (x, y, z),
                    "x < y but F(x,z) !< F(y,z) with z != bottom",
                )
            if g_try(y, z) is not None and g_try(x, z) is not None:
                law["G-monotonicity"].record(
                    k, k.lt(k._g(x, z), k._g(y, z)), (x, y, z), "x < y but G(x,z) !< G(y,z)"
                )
            law["S-antitone"].record(
                k, k.lt(k._s(y), k._s(x)), (x, y), "x < y but S(x) !> S(y)"
            )

        law["G-bottom-unit"].record(k, k.eq(k._g(x, bot), x), (x,), "G(x,bottom) != x")
        law["F-bottom-absorbing"].record(k, k.eq(k._f(bot, x), bot), (x,), "F(bottom,x) != bottom")
        law["F-top-unit"].record(k, k.eq(k._f(x, top), x), (x,), "F(x,top) != x")
        ssx = k._s(k._s(x))
        ok = k.eq(ssx, x)
        law["S-involution"].record(k, ok, (x,), "" if ok else f"S(S(x)) = {k.fmt(ssx)} != x")
        if prefixes is not None:
            prefixes.append(_law_table(report, final=bottom_law))

    law["S-bottom-is-top"] = bottom_law
    return report


def _law_table(report, final=None):
    """(name, checked, witness, detail) per law; ``final`` stands in for its namesake."""
    checks = (final if final is not None and c.name == final.name else c for c in report.checks.values())
    return [(c.name, c.checked, c.witness, c.detail) for c in checks]


class _CountingS:
    """Mixin: records how many ``_s`` calls each sampled triple makes."""

    def __init__(self):
        self.s_calls = 0
        self.starts = []  # the S-call count when each triple began sampling
        self.draws = 0

    def sample(self, rng):
        if self.draws % 3 == 0:
            self.starts.append(self.s_calls)
        self.draws += 1
        return super().sample(rng)

    def _s(self, x):
        self.s_calls += 1
        return super()._s(x)


class _CountingRat(_CountingS, RatKernel):
    pass


class _CountingBroken(_CountingS, BrokenNegationKernel):
    pass


class _RefRat(RatKernel):
    """rat with F, G and S as Fraction's operators: the reference forms."""

    def _f(self, x, y):
        return x * y

    def _s(self, x):
        return 1 - x

    def _g(self, x, y):
        return x + y


class _RefBroken(BrokenNegationKernel):
    """broken-s with F, G and S as Fraction's operators."""

    _f, _g = _RefRat._f, _RefRat._g

    def _s(self, x):
        return (1 - x) ** 2


class TestCheckerAgainstReference:
    @pytest.mark.parametrize("name", ["rat", "eps", "bool", "broken-s"])
    def test_law_by_law_equal(self, name):
        # Every seed 0-20 runs 60 samples; the sample counts 1-60 are each
        # run on one seed or more (seed s also runs s+1, s+22 and s+43).
        k = get_kernel(name)
        for seed in range(21):
            prefixes = []
            want = reference_check_axioms(k, 60, seed, prefixes)
            got = check_axioms(k, 60, seed)
            assert got.format_lines() == want.format_lines()
            assert _law_table(got) == _law_table(want) == prefixes[-1]
            for samples in range(seed + 1, 60, 21):
                assert _law_table(check_axioms(k, samples, seed)) == prefixes[samples - 1], (seed, samples)

    @pytest.mark.parametrize("cls", [_CountingRat, _CountingBroken])
    def test_at_most_six_complements_per_triple(self, cls):
        for seed in range(5):
            k = cls()
            check_axioms(k, samples=200, seed=seed)
            per_triple = [b - a for a, b in zip(k.starts, k.starts[1:] + [k.s_calls - 1])]
            assert len(per_triple) == 200
            assert max(per_triple) <= 6, per_triple  # plus the one S(bottom) at the end
            assert min(per_triple) >= 4  # S(x), S(y), S(z) and S(S(x)) are always needed


TWINS = [("rat", _RefRat), ("broken-s", _RefBroken)]


class TestOperatorTwins:
    """Each built-in rat kernel reports what its Fraction-operator twin reports."""

    @pytest.mark.parametrize("name, twin", TWINS)
    def test_check_axioms(self, name, twin):
        k, ref = get_kernel(name), twin()
        for seed in range(21):
            got, want = check_axioms(k, 60, seed), check_axioms(ref, 60, seed)
            assert got.format_lines() == want.format_lines()
            assert _law_table(got) == _law_table(want)

    @pytest.mark.parametrize("name, twin", TWINS)
    def test_verify_embedding(self, name, twin):
        k, ref = get_kernel(name), twin()
        for seed in range(5):
            got, want = verify_embedding(k, 30, seed), verify_embedding(ref, 30, seed)
            assert got.format_lines() == want.format_lines()
            assert _law_table(got) == _law_table(want)

    @pytest.mark.parametrize("name, twin", TWINS)
    def test_probes(self, name, twin):
        k, ref = get_kernel(name), twin()
        rng = random.Random(0)

        def interior():
            while True:
                v = k.sample(rng)
                if 0 < v < 1:
                    return v

        for _ in range(200):
            e, n_max = interior(), rng.randint(1, 300)
            assert archimedean_check(k, e, n_max) == archimedean_check(ref, e, n_max), (e, n_max)
            x, y = interior(), interior()
            if x == y:
                continue
            x, y = min(x, y), max(x, y)
            c, bound = interior(), rng.randint(1, 20)
            got = separability_check(k, x, y, c, bound)
            assert got == separability_check(ref, x, y, c, bound), (x, y, c, bound)


class TestArchimedeanBounds:
    @pytest.mark.parametrize("n_max", [0, -5])
    def test_n_max_below_one_refused(self, rat_kernel, n_max):
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            archimedean_check(rat_kernel, Fr(2, 3), n_max)

    def test_foreign_values_are_domain_errors(self, rat_kernel, eps_kernel):
        for k, e in ((rat_kernel, "1/2"), (rat_kernel, const(Fr(1, 2))), (rat_kernel, 0.5),
                     (eps_kernel, "1/2"), (eps_kernel, Fr(1, 2))):
            with pytest.raises(DomainError):
                archimedean_check(k, e, 8)

    def test_found_never_exceeds_n_max(self, rat_kernel):
        for n_max in range(1, 12):
            r = archimedean_check(rat_kernel, Fr(1, 10), n_max)
            assert (r.found, r.n) == ((True, 10) if n_max >= 10 else (False, None))

    def test_bit_search_matches_literal_iteration_at_power_edges(self, rat_kernel, eps_kernel):
        bounds = sorted({1, 2, 3} | {b for j in range(1, 10) for b in (2**j - 1, 2**j, 2**j + 1)})
        values = {
            rat_kernel: [Fr(1), Fr(1, 2), Fr(1, 3), Fr(2, 3), Fr(1, 7), Fr(1, 64), Fr(1, 255),
                         Fr(1, 256), Fr(1, 257), Fr(3, 1000), Fr(1, 600)],
            eps_kernel: [EPS, EPS * EPS, EPS * 3, const(Fr(1, 4)), const(Fr(1, 4)) + EPS,
                         const(Fr(1, 4)) - EPS, const(Fr(1, 128)) - EPS * EPS,
                         const(Fr(1, 511)) + EPS, ONE - EPS],
        }
        for k, es in values.items():
            for e in es:
                for n_max in bounds:
                    want = archimedean_oracle(k, e, n_max)
                    got = archimedean_check(k, e, n_max)
                    assert (got.found, got.n) == (want is not None, want), (e, n_max)
                    if got.found:
                        assert got.n <= n_max
