"""Acceptance suite: every criterion at its stated scale and time budget.

Each test prints one PASS line (on failure pytest reports the assert); all
arithmetic is exact so equality tolerances are zero throughout.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import random
import sys
import time
from fractions import Fraction as Fr

import pytest

from plauscalc.cli import dispatch
from plauscalc.credal import PlausVector, decompose
from plauscalc.embedding import Embedding, verify_embedding
from plauscalc.epsnum import EPS, ONE, ZERO, const
from plauscalc.evidence import (
    Frame,
    MassFunction,
    TotalConflictError,
    bel_pl,
    dempster_combine,
    mass_to_credal,
)
from plauscalc.credal import combine_laplace, envelopes
from plauscalc.kernels import (
    archimedean_check,
    check_axioms,
    get_kernel,
    separability_check,
)
from plauscalc.refinement import TWO_PATH_LAWS, two_path_eval

from conftest import rand_eps_rational
from test_evidence import rand_mass
from test_refinement import _law_values


class _Budget:
    def __init__(self, number, label, limit):
        self.number, self.label, self.limit = number, label, limit

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        # write past any output capture so the per-criterion line always shows
        print(
            f"{verdict} criterion {self.number} ({self.label}) [{elapsed:.2f}s]",
            file=sys.__stdout__,
        )
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s budget: {elapsed:.2f}s"
            )
        return False


def test_criterion_1_gelman_reproduction(capsys):
    with _Budget(1, "boxer/wrestler comparison", 1.0):
        assert dispatch(["gelman"]) == 0
        out = capsys.readouterr().out
        assert "dempster: m1 (x) m2 (x) m3 = [{BC}: 1/2; {nBnC}: 1/2]" in out
        # robust branch: all mass on {BC, nBnC} in every member
        members = [l for l in out.splitlines() if l.startswith("  member")]
        assert members and all(("BnC: 0" in l and "nBC: 0" in l) for l in members)
        assert "event B: dempster envelopes (1/2, 1/2); robust envelopes (0, 1)" in out
        assert "event C: dempster envelopes (1/2, 1/2)" in out
    capsys.readouterr()


def test_criterion_2_field_axiom_suite():
    with _Budget(2, "field axioms, 1000 random values", 30.0):
        rng = random.Random(20240202)
        vals = [rand_eps_rational(rng, max_deg=6, bound=100) for _ in range(1000)]
        n = len(vals)
        for i in range(n):
            a, b, c = vals[i], vals[(i + 1) % n], vals[(i + 2) % n]
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == ZERO
            if not a.is_zero:
                assert a * a.reciprocal() == ONE


def test_criterion_3_order_soundness():
    with _Budget(3, "order vs evaluation oracle", 10.0):
        rng = random.Random(33)
        for _ in range(500):
            a = rand_eps_rational(rng, max_deg=5, bound=40)
            b = rand_eps_rational(rng, max_deg=5, bound=40)
            verdict = a.compare(b)
            d = a - b
            if d.is_zero:
                assert verdict == 0
                continue
            bound = d.sign_agreement_bound()
            t = bound / 2
            value = d.eval_at(t)
            assert (value > 0) == (verdict > 0) and (value < 0) == (verdict < 0)
        for _ in range(100):
            q = Fr(rng.randint(1, 10**6), rng.randint(1, 10**6))
            assert EPS < const(q)


def test_criterion_4_kernel_axioms():
    with _Budget(4, "kernel axiom checks", 30.0):
        for name in ("rat", "eps", "bool"):
            report = check_axioms(get_kernel(name), samples=500, seed=7)
            assert report.all_passed, [c.format() for c in report.failures]
        broken = get_kernel("broken-s")
        report = check_axioms(broken, samples=500, seed=7)
        involution = report.checks["S-involution"]
        assert not involution.passed and involution.witness is not None
        (w,) = involution.witness
        x = Fr(w)
        assert broken.S(broken.S(x)) != x


def test_criterion_5_embedding_homomorphism():
    with _Budget(5, "ordered-field embedding", 60.0):
        for name in ("rat", "eps"):
            report = verify_embedding(get_kernel(name), samples=200, seed=5)
            assert report.all_passed, [c.format() for c in report.checks.values()]
        # the 2/3 identification, by cross-multiplication at the quotient layer
        rat = get_kernel("rat")
        emb = Embedding(rat)
        x = Fr(1, 8)
        xx = rat.G(x, x)
        xxx = rat.G(xx, x)
        assert emb.frac_eq(emb.frac(Fr(2, 3), Fr(1)), emb.frac(xx, xxx))


def test_criterion_6_two_path_scenarios():
    with _Budget(6, "two-derivation agreement", 30.0):
        for name in ("rat", "eps"):
            kernel = get_kernel(name)
            for law in TWO_PATH_LAWS:
                rng = random.Random(hash((name, law)) & 0xFFFFFF)
                for _ in range(500):
                    values = _law_values(kernel, law, rng)
                    left, right = two_path_eval(kernel, law, values)
                    assert kernel.eq(left, right), (name, law, values)


def test_criterion_7_non_archimedean_detection():
    with _Budget(7, "archimedean and separability probes", 10.0):
        eps_kernel = get_kernel("eps")
        rat_kernel = get_kernel("rat")
        r = archimedean_check(eps_kernel, EPS, 10**6)
        assert not r.found
        r = archimedean_check(rat_kernel, Fr(1, 2), 10**6)
        assert r.found and r.n == 2
        s = separability_check(rat_kernel, Fr(1, 4), Fr(1, 2), Fr(1, 3), 10)
        assert (s.found, s.n, s.m) == (True, 1, 1)
        s = separability_check(eps_kernel, EPS * EPS, EPS, const(Fr(1, 2)), 1000)
        assert not s.found


def test_criterion_8_robust_engine():
    with _Budget(8, "decomposition and product-ring facts", 10.0):
        rng = random.Random(88)
        for _ in range(500):
            n = rng.randint(1, 5)
            p = PlausVector(
                [const(Fr(rng.randint(0, 20), 20)) + EPS * rng.randint(-2, 2) for _ in range(n)]
            )
            d = decompose(p)
            if d.profile is None:
                assert d.spread == ZERO
                assert all(c == d.lower for c in p)
            else:
                assert PlausVector([d.lower] * n) + d.profile * d.spread == p
                assert d.profile.min() == ZERO and d.profile.max() == ONE
        # interactivity: the profile straddles every interior constant
        spread_profile = decompose(PlausVector([Fr(1, 4), Fr(3, 4)])).profile
        for _ in range(100):
            q = Fr(rng.randint(1, 999), 1000)
            c = PlausVector([const(q)] * 2)
            assert not spread_profile.strictly_above(c)
            assert not spread_profile.strictly_below(c)
        # zero divisors exist ...
        x = PlausVector([Fr(1, 2), Fr(0)])
        y = PlausVector([Fr(0), Fr(1, 3)])
        assert not x.is_zero() and not y.is_zero() and (x * y).is_zero()
        # ... but no nilpotents
        for _ in range(500):
            v = PlausVector(
                [const(Fr(rng.randint(0, 8), 8)) + EPS * rng.randint(0, 2) for _ in range(3)]
            )
            if not v.is_zero():
                assert not (v * v).is_zero()


def test_criterion_9_ds_properties():
    with _Budget(9, "evidence combination properties", 30.0):
        rng = random.Random(99)
        frame = Frame(("w", "x", "y", "z"))
        vac = MassFunction.vacuous(frame)
        done = 0
        while done < 200:
            m1, m2, m3 = (rand_mass(rng, frame) for _ in range(3))
            try:
                ab = dempster_combine(m1, m2)
                ba = dempster_combine(m2, m1)
                left = dempster_combine(ab, m3)
                right = dempster_combine(m1, dempster_combine(m2, m3))
            except TotalConflictError:
                continue
            done += 1
            assert ab.focal == ba.focal
            assert left.focal == right.focal
            assert dempster_combine(vac, m1).focal == m1.focal
        # singleton absorption
        bayes = MassFunction(frame, {("w",): Fr(1, 2), ("x",): Fr(1, 2)})
        for _ in range(50):
            m = rand_mass(rng, frame)
            try:
                assert dempster_combine(m, bayes).is_bayesian
            except TotalConflictError:
                pass
        # Bel/Pl equal the credal-translation envelopes on singletons
        for size in (2, 3, 4):
            sub = Frame(tuple("abcd"[:size]))
            for _ in range(20):
                m = rand_mass(rng, sub)
                credal = mass_to_credal(m)
                for atom in sub.atoms:
                    bel, pl = bel_pl(m, (atom,))
                    assert envelopes(credal, (atom,)) == (
                        bel.standard_part(),
                        pl.standard_part(),
                    )
