"""Kernels: operations, axiom checker, archimedean and separability probes.

Both diagnostic searches are cross-checked against independent brute-force
oracles at desk scale: literal one-at-a-time iteration for the archimedean
bound and a full double loop for separability witnesses.
"""

import random
from fractions import Fraction as Fr

import pytest

from plauscalc.epsnum import EPS, ONE, ZERO, const
from plauscalc.kernels import (
    KERNELS,
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
