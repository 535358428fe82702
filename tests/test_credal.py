"""Credal families: componentwise order, conditioning, combination,
decomposition, and the product-ring facts (zero divisors, no nilpotents)."""

import random
from fractions import Fraction as Fr

import pytest

from plauscalc.credal import (
    ComparisonResult,
    CredalSet,
    ExtDist,
    Frame,
    ImpossibleEventError,
    IncompatibleCredalError,
    PlausVector,
    combine_laplace,
    condition,
    decompose,
    envelopes,
    event_plausibility,
    more_plausible,
)
from plauscalc.epsnum import EPS, ONE, ZERO, const
from plauscalc.evidence import MassFunction


AB = Frame(("a", "b"))
ABC = Frame(("a", "b", "c"))


def dist(space, *probs):
    return ExtDist(space, [Fr(p) if not hasattr(p, "num") else p for p in probs])


def rand_dist(rng, space, eps_part=False):
    n = len(space.atoms)
    cuts = sorted(rng.randint(0, 24) for _ in range(n - 1))
    weights = [Fr(b - a, 24) for a, b in zip([0] + cuts, cuts + [24])]
    probs = [const(w) for w in weights]
    if eps_part:
        # move an infinitesimal sliver between the first two atoms
        sliver = EPS * Fr(rng.randint(0, 3), 4)
        if (probs[0] - sliver).sign() >= 0:
            probs[0] = probs[0] - sliver
            probs[1] = probs[1] + sliver
    return ExtDist(space, probs)


class TestValidation:
    def test_distributions_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            ExtDist(AB, [Fr(1, 2), Fr(1, 3)])

    def test_no_negative_probabilities(self):
        with pytest.raises(ValueError, match="negative"):
            ExtDist(AB, [Fr(3, 2), Fr(-1, 2)])

    def test_infinitesimal_probabilities_are_fine(self):
        d = ExtDist(AB, [ONE - EPS, EPS])
        assert d.prob("b") == EPS

    def test_unknown_atom(self):
        c = CredalSet(AB, (dist(AB, "1/2", "1/2"),))
        with pytest.raises(KeyError):
            event_plausibility(c, ("zzz",))

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            CredalSet(AB, ())


class TestImmutability:
    def test_values_refuse_attribute_assignment(self):
        d = dist(AB, Fr(1, 2), Fr(1, 2))
        values = {
            Frame: (AB, "atoms"),
            ExtDist: (d, "probs"),
            CredalSet: (CredalSet(AB, [d]), "dists"),
            MassFunction: (MassFunction(AB, {("a",): 1}), "focal"),
            PlausVector: (PlausVector([ONE, ZERO]), "components"),
        }
        for cls, (value, attr) in values.items():
            before = getattr(value, attr)
            for name in (attr, "extra"):
                with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
                    setattr(value, name, None)
            assert getattr(value, attr) is before

    def test_distributions_compare_by_atoms_and_probabilities(self):
        d = dist(AB, Fr(1, 3), Fr(2, 3))
        assert d == dist(Frame(("a", "b")), Fr(1, 3), Fr(2, 3))
        assert hash(d) == hash(dist(Frame(("a", "b")), Fr(1, 3), Fr(2, 3)))
        assert d != dist(AB, Fr(2, 3), Fr(1, 3))
        assert d != dist(Frame(("b", "a")), Fr(1, 3), Fr(2, 3))


class TestEchoedInput:
    """Library messages that echo an atom or a value cut it to 40 characters."""

    LONG = "x" * 3000
    BIG = const(Fr(10**3999 + 1, 10**4000))  # a 4,000-digit sum with its copy

    def message(self, call):
        with pytest.raises((ValueError, KeyError)) as info:
            call()
        exc = info.value
        return exc.args[0] if isinstance(exc, KeyError) else str(exc)

    def test_long_atoms_and_values_are_cut(self):
        wide = Frame((self.LONG, "b"))
        cases = [
            lambda: ExtDist(wide, {self.LONG: -1, "b": 2}),
            lambda: ExtDist(AB, [self.BIG, self.BIG]),
            lambda: ExtDist(AB, {self.LONG: 1, "b": 0}),
            lambda: MassFunction(wide, {(self.LONG,): -1, ("b",): 2}),
            lambda: MassFunction(AB, {("a",): self.BIG, ("b",): self.BIG}),
            lambda: AB.index(self.LONG),
            lambda: AB.mask_of(10**5000),
        ]
        for call in cases:
            text = self.message(call)
            assert len(text) < 200 and "x" * 37 not in text and "0" * 37 not in text, text[:300]

    def test_mask_past_digit_limit_is_key_error(self):
        with pytest.raises(KeyError, match="out of range"):
            AB.mask_of(10**5000)

    def test_short_values_print_in_full(self):
        cases = [
            (lambda: ExtDist(AB, [Fr(3, 2), Fr(-1, 2)]), "negative probability for 'b': -1/2"),
            (lambda: ExtDist(AB, [Fr(1, 2), Fr(1, 3)]), "probabilities sum to 5/6, expected 1"),
            (lambda: ExtDist(AB, {"a": 1, "z": 0}),
             "distribution atoms mismatch: missing ['b'], extra ['z']"),
            (lambda: MassFunction(AB, {("a",): Fr(-1, 2), ("b",): Fr(3, 2)}),
             "mass of {a} must be positive, got -1/2"),
            (lambda: MassFunction(AB, {("a",): Fr(9, 10)}), "masses sum to 9/10, expected 1"),
            (lambda: AB.index("zzz"), "unknown atom 'zzz'"),
            (lambda: AB.mask_of(9), "mask 9 out of range"),
        ]
        for call, text in cases:
            assert self.message(call) == text


class TestEventPlausibility:
    def test_uniform_single(self):
        c = CredalSet(AB, (dist(AB, "1/2", "1/2"),))
        assert event_plausibility(c, ("a",)) == PlausVector([Fr(1, 2)])

    def test_two_members(self):
        c = CredalSet(AB, (dist(AB, "3/10", "7/10"), dist(AB, "1/2", "1/2")))
        assert event_plausibility(c, ("a",)) == PlausVector([Fr(3, 10), Fr(1, 2)])

    def test_full_event_is_ones(self):
        c = CredalSet(AB, (dist(AB, "3/10", "7/10"), dist(AB, "1/2", "1/2")))
        assert event_plausibility(c, ("a", "b")) == PlausVector([1, 1])


class TestMorePlausible:
    def test_equal_events_flagged(self):
        c = CredalSet(AB, (dist(AB, "1/2", "1/2"),))
        assert more_plausible(c, ("a",), ("a",)) == ComparisonResult("incomparable", equal=True)

    def test_mixed_components_incomparable(self):
        c = CredalSet(AB, (dist(AB, "3/10", "7/10"), dist(AB, "1/2", "1/2")))
        assert more_plausible(c, ("a",), ("b",)).verdict == "incomparable"

    def test_dominated_event(self):
        sp = Frame(("a", "b", "c", "d"))
        c = CredalSet(sp, (dist(sp, "1/4", "1/2", "1/8", "1/8"), dist(sp, "1/4", "1/2", "1/8", "1/8")))
        assert more_plausible(c, ("a",), ("b",)).verdict == "no"
        assert more_plausible(c, ("b",), ("a",)).verdict == "yes"

    def test_transitive_on_samples(self):
        rng = random.Random(1)
        sp = ABC
        for _ in range(60):
            c = CredalSet(sp, tuple(rand_dist(rng, sp) for _ in range(3)))
            events = [("a",), ("b",), ("c",), ("a", "b"), ("b", "c")]
            for e1 in events:
                for e2 in events:
                    for e3 in events:
                        if (
                            more_plausible(c, e1, e2).verdict == "yes"
                            and more_plausible(c, e2, e3).verdict == "yes"
                        ):
                            assert more_plausible(c, e1, e3).verdict == "yes"


class TestConditioning:
    def test_renormalizes(self):
        c = CredalSet(ABC, (dist(ABC, "1/2", "1/4", "1/4"),))
        out = condition(c, ("a", "b"))
        assert out.dists[0].probs == (const(Fr(2, 3)), const(Fr(1, 3)))

    def test_infinitesimal_event(self):
        c = CredalSet(AB, (ExtDist(AB, [ONE - EPS, EPS]),))
        out = condition(c, ("b",))
        assert out.dists[0].probs == (ONE,)

    def test_full_space_identity(self):
        c = CredalSet(AB, (dist(AB, "1/4", "3/4"),))
        out = condition(c, ("a", "b"))
        assert out.dists == c.dists

    def test_impossible_event(self):
        c = CredalSet(AB, (dist(AB, "1", "0"),))
        with pytest.raises(ImpossibleEventError, match="impossible"):
            condition(c, ("b",))
        for empty in ([], 0):
            with pytest.raises(ImpossibleEventError) as exc:
                condition(c, empty)
            assert str(exc.value) == "conditioning on impossible event: empty event"

    def test_zero_components_dropped(self):
        c = CredalSet(AB, (dist(AB, "1", "0"), dist(AB, "1/2", "1/2")))
        out = condition(c, ("b",))
        assert len(out) == 1

    def test_normalization_preserved_and_chain_collapses(self):
        rng = random.Random(2)
        sp = ABC
        for _ in range(60):
            c = CredalSet(sp, tuple(rand_dist(rng, sp, eps_part=True) for _ in range(2)))
            try:
                once = condition(condition(c, ("a", "b")), ("a",))
                direct = condition(c, ("a",))
            except ImpossibleEventError:
                continue
            assert once.dists == direct.dists
            for d in once.dists:
                total = ZERO
                for p in d.probs:
                    total = total + p
                assert total == ONE


class TestCombineLaplace:
    def test_uniform_is_idempotent(self):
        u = dist(AB, "1/2", "1/2")
        out = combine_laplace(CredalSet(AB, (u,)), CredalSet(AB, (u,)))
        assert out.dists == (u,)

    def test_point_mass_absorbs(self):
        p = dist(AB, "1", "0")
        q = dist(AB, "1/4", "3/4")
        out = combine_laplace(CredalSet(AB, (p,)), CredalSet(AB, (q,)))
        assert out.dists == (p,)

    def test_incompatible(self):
        p = dist(AB, "1", "0")
        q = dist(AB, "0", "1")
        with pytest.raises(IncompatibleCredalError, match="incompatible"):
            combine_laplace(CredalSet(AB, (p,)), CredalSet(AB, (q,)))

    def test_commutative_and_associative_up_to_reordering(self):
        rng = random.Random(3)
        sp = ABC
        for _ in range(30):
            c1 = CredalSet(sp, tuple(rand_dist(rng, sp) for _ in range(2)))
            c2 = CredalSet(sp, tuple(rand_dist(rng, sp) for _ in range(2)))
            c3 = CredalSet(sp, tuple(rand_dist(rng, sp) for _ in range(1)))
            try:
                ab = combine_laplace(c1, c2)
                ba = combine_laplace(c2, c1)
                assert sorted(d.probs for d in ab.dists) == sorted(d.probs for d in ba.dists)
                l = combine_laplace(ab, c3)
                r = combine_laplace(c1, combine_laplace(c2, c3))
                assert sorted(d.probs for d in l.dists) == sorted(d.probs for d in r.dists)
            except IncompatibleCredalError:
                continue


class TestEnvelopes:
    def test_two_member_family(self):
        c = CredalSet(AB, (dist(AB, "3/10", "7/10"), dist(AB, "1/2", "1/2")))
        assert envelopes(c, ("a",)) == (Fr(3, 10), Fr(1, 2))

    def test_single_member_precise(self):
        c = CredalSet(AB, (dist(AB, "1/4", "3/4"),))
        assert envelopes(c, ("a",)) == (Fr(1, 4), Fr(1, 4))

    def test_standard_parts_ignore_infinitesimals(self):
        c = CredalSet(AB, (ExtDist(AB, [ONE - EPS, EPS]),))
        assert envelopes(c, ("b",)) == (0, 0)


class TestDecompose:
    def test_basic(self):
        d = decompose(PlausVector([Fr(3, 10), Fr(1, 2)]))
        assert d.lower == const(Fr(3, 10))
        assert d.spread == const(Fr(1, 5))
        assert d.profile == PlausVector([0, 1])
        assert d.upper == const(Fr(1, 2))

    def test_precise_vector(self):
        d = decompose(PlausVector([Fr(1, 2), Fr(1, 2)]))
        assert d.spread == ZERO and d.profile is None

    def test_exact_eps_division(self):
        d = decompose(PlausVector([EPS, const(Fr(1, 2)), ONE]))
        assert d.lower == EPS
        assert d.spread == ONE - EPS
        mid = (const(Fr(1, 2)) - EPS) / (ONE - EPS)
        assert d.profile == PlausVector([ZERO, mid, ONE])

    def test_reconstruction_exact(self):
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randint(1, 5)
            comps = [
                const(Fr(rng.randint(0, 16), 16)) + EPS * rng.randint(-2, 2)
                for _ in range(n)
            ]
            p = PlausVector(comps)
            d = decompose(p)
            if d.profile is None:
                assert d.spread == ZERO
                continue
            rebuilt = PlausVector([d.lower] * n) + d.profile * d.spread
            assert rebuilt == p
            assert d.profile.min() == ZERO and d.profile.max() == ONE

    def test_profile_incomparable_to_interior_constants(self):
        rng = random.Random(5)
        for _ in range(100):
            p = PlausVector([Fr(rng.randint(0, 12), 12) for _ in range(4)])
            d = decompose(p)
            if d.profile is None:
                continue
            q = Fr(rng.randint(1, 23), 24)
            c = PlausVector([const(q)] * 4)
            assert not d.profile.strictly_above(c)
            assert not d.profile.strictly_below(c)
            assert d.profile != c


class TestProductRingFacts:
    def test_zero_divisors_exist(self):
        x = PlausVector([Fr(1, 2), Fr(0)])
        y = PlausVector([Fr(0), Fr(1, 3)])
        assert not x.is_zero() and not y.is_zero()
        assert (x * y).is_zero()

    def test_no_nilpotents(self):
        rng = random.Random(6)
        for _ in range(200):
            v = PlausVector(
                [const(Fr(rng.randint(0, 6), 6)) + EPS * rng.randint(0, 2) for _ in range(3)]
            )
            if v.is_zero():
                continue
            assert not (v * v).is_zero()
