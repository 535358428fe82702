"""Bodies of evidence: Dempster's rule, Bel/Pl, credal translation, and the
boxer/wrestler scenario on which the two combination routes part ways.

Dual-route checks tie the module to the credal engine: on purely singleton
(Bayesian) masses Dempster's rule must coincide with componentwise product
combination, and for any mass function the envelopes of its credal
translation must equal Bel/Pl on singletons.
"""

import itertools
import random
import re
from fractions import Fraction as Fr
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plauscalc.credal import (
    CredalSet,
    ExtDist,
    ImpossibleEventError,
    IncompatibleCredalError,
    combine_laplace,
    condition,
    envelopes,
)
from plauscalc.epsnum import EPS, ONE, ZERO, const
import plauscalc.evidence
from plauscalc.evidence import (
    MAX_COEFF_BITS,
    MAX_COMBINED_MEMBERS,
    MAX_MASS_DEGREE,
    Frame,
    MassFunction,
    SelectionBudgetError,
    TotalConflictError,
    bel_pl,
    dempster_chain,
    dempster_combine,
    laplace_chain,
    mass_to_credal,
    robust_chain,
    run_gelman,
)
from plauscalc.scenario import load_scenario

OMEGA = Frame(("BC", "BnC", "nBC", "nBnC"))


def mf(frame, assignment):
    return MassFunction(frame, assignment)


def rand_mass(rng, frame):
    nonempty = list(range(1, frame.full_mask + 1))
    count = rng.randint(1, min(4, len(nonempty)))
    picks = rng.sample(nonempty, count)
    cuts = sorted(rng.randint(0, 12) for _ in range(count - 1))
    weights = [Fr(b - a, 12) for a, b in zip([0] + cuts, cuts + [12])]
    masses = {m: w for m, w in zip(picks, weights) if w > 0}
    if not masses:
        masses = {picks[0]: Fr(1)}
    return MassFunction(frame, masses)


class TestMassFunction:
    def test_masses_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 9/10"):
            mf(OMEGA, {("BC",): Fr(9, 10)})

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty set"):
            mf(OMEGA, {(): Fr(1)})

    def test_positive_masses_only(self):
        with pytest.raises(ValueError, match="positive"):
            mf(OMEGA, {("BC",): Fr(0), ("BnC",): Fr(1)})

    def test_infinitesimal_masses_allowed(self):
        m = mf(OMEGA, {("BC",): ONE - EPS, ("BnC",): EPS})
        assert m.mass(("BnC",)) == EPS

    def test_bayesian_detection(self):
        assert mf(OMEGA, {("BC",): Fr(1, 2), ("BnC",): Fr(1, 2)}).is_bayesian
        assert not MassFunction.vacuous(OMEGA).is_bayesian


class TestDempsterCombine:
    def test_vacuous_is_identity(self):
        rng = random.Random(0)
        vac = MassFunction.vacuous(OMEGA)
        for _ in range(30):
            m = rand_mass(rng, OMEGA)
            assert dempster_combine(vac, m).focal == m.focal
            assert dempster_combine(m, vac).focal == m.focal

    def test_total_conflict(self):
        a = mf(OMEGA, {("BC",): Fr(1)})
        b = mf(OMEGA, {("BnC",): Fr(1)})
        with pytest.raises(TotalConflictError, match="total conflict"):
            dempster_combine(a, b)

    def test_commutative_and_associative(self):
        rng = random.Random(1)
        frame = Frame(("w", "x", "y", "z"))
        done = 0
        while done < 80:
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

    def test_singleton_absorption(self):
        rng = random.Random(2)
        frame = Frame(("x", "y", "z"))
        bayes = mf(frame, {("x",): Fr(1, 2), ("y",): Fr(1, 2)})
        done = 0
        while done < 40:
            m = rand_mass(rng, frame)
            try:
                out = dempster_combine(m, bayes)
            except TotalConflictError:
                done += 1
                continue
            done += 1
            assert out.is_bayesian

    def test_matches_laplace_on_bayesian_masses(self):
        rng = random.Random(3)
        frame = Frame(("x", "y", "z"))

        def rand_bayes():
            cuts = sorted(rng.randint(0, 12) for _ in range(2))
            w = [Fr(b - a, 12) for a, b in zip([0] + cuts, cuts + [12])]
            masses = {(frame.atoms[i],): w[i] for i in range(3) if w[i] > 0}
            return MassFunction(frame, masses)

        done = 0
        while done < 60:
            m1, m2 = rand_bayes(), rand_bayes()
            try:
                ds = dempster_combine(m1, m2)
            except TotalConflictError:
                continue
            done += 1
            robust = combine_laplace(mass_to_credal(m1), mass_to_credal(m2))
            assert len(robust) == 1
            d = robust.dists[0]
            for atom in frame.atoms:
                assert d.prob(atom) == ds.mass((atom,))


class TestBelPl:
    def test_spanning_focal_element(self):
        m = mf(OMEGA, {("BC", "nBnC"): Fr(1)})
        assert bel_pl(m, ("BC", "BnC")) == (ZERO, ONE)

    def test_full_frame(self):
        rng = random.Random(4)
        for _ in range(20):
            m = rand_mass(rng, OMEGA)
            assert bel_pl(m, OMEGA.atoms) == (ONE, ONE)

    def test_bayesian_masses_have_bel_equal_pl(self):
        m = mf(OMEGA, {("BC",): Fr(1, 4), ("nBnC",): Fr(3, 4)})
        for event in (("BC",), ("BC", "BnC"), ("nBC", "nBnC")):
            bel, pl = bel_pl(m, event)
            assert bel == pl

    def test_duality_and_monotone(self):
        rng = random.Random(5)
        for _ in range(50):
            m = rand_mass(rng, OMEGA)
            ev = tuple(a for a in OMEGA.atoms if rng.random() < 0.5)
            co = tuple(a for a in OMEGA.atoms if a not in ev)
            bel, pl = bel_pl(m, ev)
            assert bel <= pl
            assert pl == ONE - bel_pl(m, co)[0]


class TestMassToCredal:
    def test_two_selection_functions(self):
        m = mf(OMEGA, {("BC", "nBnC"): Fr(1)})
        c = mass_to_credal(m)
        probs = sorted(tuple(str(p) for p in d.probs) for d in c.dists)
        assert len(c) == 2
        assert probs == [("0", "0", "0", "1"), ("1", "0", "0", "0")]

    def test_bayesian_mass_gives_one_distribution(self):
        m = mf(OMEGA, {("BC",): Fr(1, 3), ("BnC",): Fr(2, 3)})
        c = mass_to_credal(m)
        assert len(c) == 1
        assert c.dists[0].prob("BC") == const(Fr(1, 3))

    def test_coin_body_gives_four(self):
        m = mf(OMEGA, {("BC", "nBC"): Fr(1, 2), ("BnC", "nBnC"): Fr(1, 2)})
        assert len(mass_to_credal(m)) == 4

    def test_budget(self):
        # the 11 focal sets of two or more atoms on four atoms:
        # 2^6 * 3^4 * 4 = 20,736 selection functions
        frame = Frame(tuple("abcd"))
        masks = [s for s in range(16) if bin(s).count("1") >= 2]
        m = MassFunction(frame, {s: Fr(1, len(masks)) for s in masks})
        with pytest.raises(SelectionBudgetError, match=(
            f"credal translation needs more than {MAX_COMBINED_MEMBERS} selection functions"
            r" \(at least 20736\)"
        )):
            mass_to_credal(m)

    def test_envelopes_match_bel_pl_on_singletons(self):
        rng = random.Random(6)
        for size in (2, 3, 4):
            frame = Frame(tuple("abcd"[:size]))
            for _ in range(25):
                m = rand_mass(rng, frame)
                c = mass_to_credal(m)
                for atom in frame.atoms:
                    bel, pl = bel_pl(m, (atom,))
                    assert envelopes(c, (atom,)) == (
                        bel.standard_part(),
                        pl.standard_part(),
                    )

    def test_marginal_vectors_are_members_and_envelopes_are_bel_pl(self):
        # Oracles that bypass the selection functions: for every ordering of
        # the atoms, sending each focal mass to its first atom under that
        # ordering gives a marginal vector, an extreme point of the credal
        # set; Bel and Pl of an event are summed straight from the focal sets.
        scenarios = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))
        bodies = [m for f in scenarios for m in load_scenario(str(f)).bodies.values()]
        rng = random.Random(17)
        bodies += [rand_mass(rng, Frame(tuple("abcde"[: rng.randint(1, 5)]))) for _ in range(200)]
        for m in bodies:
            n = m.frame.size
            c = mass_to_credal(m)
            members = {d.probs for d in c.dists}
            for order in itertools.permutations(range(n)):
                p = [ZERO] * n
                for mask, v in m.focal:
                    first = next(i for i in order if mask >> i & 1)
                    p[first] = p[first] + v
                assert tuple(p) in members, (str(m), order)
            for ev in range(1 << n):
                bel = sum(v.standard_part() for mask, v in m.focal if mask & ~ev == 0)
                pl = sum(v.standard_part() for mask, v in m.focal if mask & ev)
                assert envelopes(c, ev) == envelopes(c, m.frame.names_of(ev)) == (bel, pl), (str(m), ev)
                assert tuple(x.standard_part() for x in bel_pl(m, ev)) == (bel, pl)


class TestGelmanScenario:
    def test_dempster_branch(self):
        rep = run_gelman()
        assert rep.dempster.focal == mf(
            OMEGA, {("BC",): Fr(1, 2), ("nBnC",): Fr(1, 2)}
        ).focal
        assert rep.dempster_envelopes["C"] == (Fr(1, 2), Fr(1, 2))

    def test_robust_branch(self):
        rep = run_gelman()
        # every member concentrates on BC or on nBnC
        for d in rep.robust.dists:
            assert d.prob("BnC") == ZERO and d.prob("nBC") == ZERO
            assert d.prob("BC") in (ZERO, ONE) and d.prob("nBnC") in (ZERO, ONE)
        support = {d.prob("BC") for d in rep.robust.dists}
        assert support == {ZERO, ONE}
        assert rep.robust_envelopes["B"] == (Fr(0), Fr(1))

    def test_symbol_assignments(self):
        rep = run_gelman()
        assert rep.symbol_masses == {
            "m1": ZERO,
            "m2": ZERO,
            "m3": ZERO,
            "m": const(Fr(1, 2)),
        }


class TestChains:
    ABC = Frame("abc")

    def test_one_element_chains_return_their_input(self):
        m = mf(OMEGA, {("BC", "nBC"): Fr(1, 2), ("BnC", "nBnC"): Fr(1, 2)})
        c = mass_to_credal(m)
        assert dempster_chain([m]) is m
        assert laplace_chain([c]) is c
        assert robust_chain([m]).dists == c.dists

    def test_repeated_body_is_translated_once(self, monkeypatch):
        calls = []

        def counting(m):
            calls.append(m)
            return mass_to_credal(m)

        monkeypatch.setattr(plauscalc.evidence, "mass_to_credal", counting)
        m = mf(self.ABC, {"a": Fr(1, 2), "bc": Fr(1, 2)})
        twin = mf(self.ABC, {"a": Fr(1, 2), "bc": Fr(1, 2)})  # equal, but a second body
        c = robust_chain([m, m, twin, m])
        assert calls == [m, twin] and calls[1] is twin
        assert len(c) == 2 ** 4

    def test_past_degree_bound_by_direct_call(self):
        # each Dempster step of this body with itself raises its degree by one
        m = mf(self.ABC, {"a": EPS / (3 + EPS), "ab": 1 / (3 + EPS), "abc": 2 / (3 + EPS)})
        assert dempster_chain([m] * MAX_MASS_DEGREE).focal[0][1].degree == MAX_MASS_DEGREE
        with pytest.raises(SelectionBudgetError) as info:
            dempster_chain([m] * 1000)
        assert str(info.value) == (f"dempster combination gives a mass of degree"
                                   f" {MAX_MASS_DEGREE + 1} in eps, more than {MAX_MASS_DEGREE}")
        # each Laplace step of this member with itself raises its degree by one
        probs = [(1 + EPS) / (3 + 2 * EPS), 1 / (3 + 2 * EPS), (1 + EPS) / (3 + 2 * EPS)]
        c = CredalSet(self.ABC, [ExtDist(self.ABC, probs)])
        bayes = mf(self.ABC, dict(zip("abc", probs)))
        for chain, arg in ((laplace_chain, c), (robust_chain, bayes)):
            with pytest.raises(SelectionBudgetError) as info:
                chain([arg] * 1000)
            assert str(info.value) == (f"combination gives a probability of degree"
                                       f" {MAX_MASS_DEGREE + 1} in eps, more than {MAX_MASS_DEGREE}")

    def test_past_coefficient_bound_by_direct_call(self):
        # a constant chain of n copies keeps degree 0 and gives 1/(1 + 2^n)
        ab = Frame("ab")
        m = mf(ab, {"a": Fr(1, 3), "b": Fr(2, 3)})
        c = mass_to_credal(m)
        n = MAX_COEFF_BITS - 1  # 1 + 2^n has MAX_COEFF_BITS bits
        assert laplace_chain([c] * n).dists[0].probs[0] == const(Fr(1, 1 + 2 ** n))
        finding = f"with an integer of {MAX_COEFF_BITS + 1} bits, more than {MAX_COEFF_BITS}"
        for chain, arg, what in ((dempster_chain, m, "dempster combination gives a mass"),
                                 (laplace_chain, c, "combination gives a probability"),
                                 (robust_chain, m, "combination gives a probability")):
            with pytest.raises(SelectionBudgetError) as info:
                chain([arg] * 20_000)
            assert str(info.value) == f"{what} {finding}"


# -- the trusted routes ----------------------------------------------------------

FRAMES = [Frame("abcd"[:n]) for n in range(1, 5)]


@st.composite
def normalised(draw, count, zeros):
    """``count`` values (w_i + a_i eps) / (W + A eps) summing to exactly 1, each
    positive unless ``zeros`` lets both w_i and a_i be 0."""
    lo = 0 if zeros else 1
    parts = [(draw(st.integers(0, 3)), draw(st.integers(0, 2))) for _ in range(count)]
    parts = [(w, a) if w + a >= lo else (w + 1, a) for w, a in parts]
    if not any(w + a for w, a in parts):
        parts[0] = (1, 0)
    total = sum(w for w, _ in parts) + EPS * sum(a for _, a in parts)
    return [(w + EPS * a) / total for w, a in parts]


@st.composite
def bodies(draw, frame):
    masks = draw(st.lists(st.integers(1, frame.full_mask), min_size=1, max_size=4, unique=True))
    return MassFunction(frame, zip(masks, draw(normalised(len(masks), zeros=False))))


@st.composite
def credal_sets(draw, frame):
    count = draw(st.integers(1, 3))
    return CredalSet(frame, [ExtDist(frame, draw(normalised(frame.size, zeros=True)))
                             for _ in range(count)])


def selection_members(m):
    """The distinct selection-function distributions in selection order, by
    brute force, compared as field values."""
    members = {}
    for pick in itertools.product(*(m.frame.atom_indices(mask) for mask, _ in m.focal)):
        probs = [ZERO] * m.frame.size
        for atom, (_, v) in zip(pick, m.focal):
            probs[atom] += v
        members.setdefault(tuple(probs), None)
    return list(members)


def rebuilt_members(c):
    """Each member next to its rebuild through the validating constructor."""
    return [(d, ExtDist(d.space, d.probs)) for d in c.dists]


class TestTrustedRoutes:
    """Dempster, Laplace combination, conditioning and credal translation build
    their results without the public constructors' checks; each result must
    pass those checks and come out unchanged."""

    SETTINGS = settings(max_examples=120, deadline=None, derandomize=True)

    @SETTINGS
    @given(st.sampled_from(FRAMES).flatmap(lambda f: st.tuples(bodies(f), bodies(f))))
    def test_dempster_result_rebuilds(self, pair):
        try:
            r = dempster_combine(*pair)
        except TotalConflictError:
            return
        rebuilt = MassFunction(r.frame, r.focal)
        assert rebuilt.frame is r.frame and rebuilt.focal == r.focal
        assert [mask for mask, _ in r.focal] == sorted({mask for mask, _ in r.focal})

    @SETTINGS
    @given(st.sampled_from(FRAMES).flatmap(bodies))
    def test_credal_translation_rebuilds(self, m):
        c = mass_to_credal(m)
        for d, rebuilt in rebuilt_members(c):
            assert rebuilt == d
        assert [d.probs for d in c.dists] == selection_members(m)

    @SETTINGS
    @given(st.sampled_from(FRAMES).flatmap(lambda f: st.tuples(credal_sets(f), credal_sets(f))))
    def test_laplace_members_rebuild(self, pair):
        try:
            c = combine_laplace(*pair)
        except IncompatibleCredalError:
            return
        for d, rebuilt in rebuilt_members(c):
            assert rebuilt == d

    @SETTINGS
    @given(st.sampled_from(FRAMES).flatmap(
        lambda f: st.tuples(credal_sets(f), st.integers(1, f.full_mask))))
    def test_conditioned_members_rebuild(self, case):
        c, event = case
        try:
            r = condition(c, event)
        except ImpossibleEventError:
            return
        for d, rebuilt in rebuilt_members(r):
            assert rebuilt == d

    @pytest.mark.parametrize("probs, message", [
        ((Fr(3, 2), Fr(-1, 2)), "negative probability for 'b': -1/2"),
        ((ONE + EPS, -EPS), "negative probability for 'b': -eps"),
        ((Fr(1, 2), Fr(1, 3)), "probabilities sum to 5/6, expected 1"),
        ((EPS, ONE), "probabilities sum to 1 + eps, expected 1"),
    ])
    def test_public_distribution_constructor_still_rejects(self, probs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExtDist(Frame("ab"), probs)

    @pytest.mark.parametrize("masses, message", [
        ({"a": 0, "b": 1}, "mass of {a} must be positive, got 0"),
        ({"a": ONE + EPS, "b": -EPS}, "mass of {b} must be positive, got -eps"),
        ({"a": Fr(9, 10)}, "masses sum to 9/10, expected 1"),
        ({"a": ONE - EPS}, "masses sum to 1 - eps, expected 1"),
    ])
    def test_public_mass_constructor_still_rejects(self, masses, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MassFunction(Frame("ab"), {(atom,): v for atom, v in masses.items()})
