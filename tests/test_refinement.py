"""Refinement models and the two-derivation consistency scenarios."""

import random
from fractions import Fraction as Fr

import pytest

from plauscalc.epsnum import EPS, ONE, const
from plauscalc.kernels import DomainError, get_kernel
from plauscalc.refinement import (
    ExclusivityError,
    Model,
    RefinementError,
    ScenarioUndefinedError,
    TWO_PATH_LAWS,
    two_path_eval,
)


@pytest.fixture(params=["rat", "eps", "bool"])
def kernel(request):
    return get_kernel(request.param)


class TestRefineSubcase:
    def test_base_construction(self, rat_kernel):
        m = Model(rat_kernel).refine_subcase("ROOT", "B", Fr(1, 2))
        assert m.conditional("B") == Fr(1, 2)

    def test_independence_carries_value_across_context(self, rat_kernel):
        m = Model(rat_kernel)
        m = m.refine_subcase("ROOT", "B", Fr(1, 3))
        m = m.refine_subcase("ROOT", "B2", Fr(1, 5), independent_of=("B",))
        assert m.conditional("B2", also_given=("B",)) == Fr(1, 5)
        with pytest.raises(RefinementError):
            m2 = m.refine_subcase("ROOT", "C", Fr(1, 7))
            m2.conditional("C", also_given=("B",))  # no declaration

    def test_refining_impossible_event_rejected(self, rat_kernel):
        m = Model(rat_kernel).refine_subcase("ROOT", "A", Fr(0))
        with pytest.raises(RefinementError, match="impossible"):
            m.refine_subcase("A", "B", Fr(1, 2))

    def test_duplicate_name_rejected(self, rat_kernel):
        m = Model(rat_kernel).refine_subcase("ROOT", "A", Fr(1, 2))
        with pytest.raises(RefinementError, match="duplicate"):
            m.refine_subcase("ROOT", "A", Fr(1, 3))

    def test_value_outside_domain_rejected(self, rat_kernel):
        with pytest.raises(DomainError, match=r"^3/2 is not a rat-kernel value$"):
            Model(rat_kernel).refine_subcase("ROOT", "A", Fr(3, 2))

    def test_models_share_no_mutable_default(self, rat_kernel):
        parent = Model(rat_kernel)
        child = parent.refine_subcase("ROOT", "A", Fr(1, 2))
        child = child.refine_exclusive_pair("A", Fr(1, 3), Fr(1, 4), names=("B", "C"))
        for model in (parent, Model(rat_kernel)):
            assert (dict(model.parents), dict(model.values)) == ({}, {})
            assert model.independent == model.exclusive == frozenset()
        assert dict(child.parents) == {"A": "ROOT", "B": "A", "C": "A"}
        with pytest.raises(TypeError):
            Model(rat_kernel).values["A"] = Fr(1, 2)


class TestRefineExclusivePair:
    def test_pair_and_disjunction(self, rat_kernel):
        m = Model(rat_kernel).refine_exclusive_pair("ROOT", Fr(1, 2), Fr(1, 3), names=("C", "C2"))
        assert m.exclusive_disjunction("C", "C2") == Fr(5, 6)

    def test_impossible_pair(self, rat_kernel):
        with pytest.raises(ExclusivityError, match="exclusivity impossible"):
            Model(rat_kernel).refine_exclusive_pair("ROOT", Fr(1, 2), Fr(2, 3), names=("C", "C2"))

    def test_propositional_limit(self, bool_kernel):
        m = Model(bool_kernel).refine_exclusive_pair("ROOT", True, False, names=("C", "C2"))
        assert m.exclusive_disjunction("C", "C2") is True


class TestBoundaryChecks:
    """Values are checked where they enter a model; queries trust them."""

    OUTSIDE = {"rat": Fr(2), "eps": const(2), "bool": 2}
    MESSAGE = {"rat": "^2 is not a rat-kernel value$", "eps": "^2 is not an eps-kernel value$",
               "bool": "^2 is not a bool-kernel value$"}

    def test_refine_subcase_rejects(self, kernel):
        with pytest.raises(DomainError, match=self.MESSAGE[kernel.name]):
            Model(kernel).refine_subcase("ROOT", "A", self.OUTSIDE[kernel.name])

    def test_refine_exclusive_pair_rejects_either_value(self, kernel):
        bad = self.OUTSIDE[kernel.name]
        for x, y in ((bad, kernel.bottom), (kernel.bottom, bad)):
            with pytest.raises(DomainError, match=self.MESSAGE[kernel.name]):
                Model(kernel).refine_exclusive_pair("ROOT", x, y, names=("A", "B"))

    def test_undefined_sum_message_kept(self):
        # with S(x) = (1 - x)^2, x <= S(y) does not imply y <= S(x)
        k = get_kernel("broken-s")
        m = Model(k).refine_exclusive_pair("ROOT", Fr(11, 20), Fr(1, 4), names=("A", "B"))
        assert m.exclusive_disjunction("A", "B") == Fr(4, 5)
        with pytest.raises(
            ScenarioUndefinedError, match=r"^scenario undefined: undefined sum: 1/4 exceeds S\(11/20\)$"
        ):
            m.exclusive_disjunction("B", "A")

    def test_long_values_are_cut_in_messages(self, rat_kernel):
        big = Fr(10**3000 - 1, 10**3000)
        cut = str(big)[:37] + "..."
        with pytest.raises(DomainError) as exc:
            Model(rat_kernel).refine_subcase("ROOT", "A", 1 + big)
        assert str(exc.value) == f"{str(1 + big)[:37]}... is not a rat-kernel value"
        with pytest.raises(ExclusivityError) as exc:
            Model(rat_kernel).refine_exclusive_pair("ROOT", big, big, names=("A", "B"))
        assert str(exc.value) == f"exclusivity impossible: {cut} exceeds S({cut})"


class TestRefinementMonotonicity:
    def test_existing_queries_survive_refinement(self, rat_kernel):
        m = Model(rat_kernel)
        m = m.refine_subcase("ROOT", "C", Fr(1, 4))
        m = m.refine_subcase("C", "B", Fr(1, 3))
        m = m.refine_subcase("B", "A", Fr(1, 2))
        m = m.refine_exclusive_pair("ROOT", Fr(1, 5), Fr(2, 5), names=("X", "Y"))

        def snapshot(model):
            return (
                model.conditional("A"),
                model.chain_conjunction("A", "ROOT", "left"),
                model.chain_conjunction("A", "ROOT", "right"),
                model.exclusive_disjunction("X", "Y"),
            )

        before = snapshot(m)
        extended = m.refine_subcase("B", "N1", Fr(1, 7))
        extended = extended.refine_exclusive_pair("N1", Fr(1, 9), Fr(2, 9), names=("N2", "N3"))
        assert snapshot(extended) == before


class TestTwoPathExamples:
    def test_assoc_f_rat(self, rat_kernel):
        assert two_path_eval(rat_kernel, "assoc_F", (Fr(1, 2), Fr(1, 3), Fr(1, 4))) == (
            Fr(1, 24),
            Fr(1, 24),
        )

    def test_distrib_rat(self, rat_kernel):
        left, right = two_path_eval(rat_kernel, "distrib", (Fr(1, 6), Fr(1, 3), Fr(1, 2)))
        assert left == right == Fr(1, 4)

    def test_assoc_f_eps_unit(self, eps_kernel):
        left, right = two_path_eval(eps_kernel, "assoc_F", (EPS, EPS, ONE))
        assert left == right == EPS * EPS

    def test_undefined_scenario(self, rat_kernel):
        with pytest.raises(ScenarioUndefinedError, match="scenario undefined"):
            two_path_eval(rat_kernel, "comm_G", (Fr(1, 2), Fr(2, 3)))

    def test_unknown_law(self, rat_kernel):
        with pytest.raises(ValueError):
            two_path_eval(rat_kernel, "nonsense", (Fr(1, 2),))


def _law_values(kernel, law, rng):
    """Sample operands until the law's scenario preconditions hold."""
    bot = kernel.bottom
    while True:
        vals = [kernel.sample(rng) for _ in range(3 if law in ("assoc_F", "assoc_G", "distrib") else 2)]
        if law == "assoc_F":
            # the chain refines under the events carrying the 2nd and 3rd
            # values, so those must be possible
            if kernel.eq(vals[1], bot) or kernel.eq(vals[2], bot):
                continue
            return tuple(vals)
        if law == "comm_F":
            return tuple(vals)
        x, y, *rest = vals
        if not kernel.g_defined(x, y):
            continue
        if law in ("comm_G",):
            return (x, y)
        z = rest[0]
        u = kernel.G(x, y)
        if law == "distrib":
            return (x, y, z)
        if kernel.g_defined(u, z):
            return (x, y, z)


class TestTwoPathAgreementEverywhere:
    @pytest.mark.parametrize("law", TWO_PATH_LAWS)
    def test_both_derivations_agree(self, kernel, law):
        # Tuples are screened on the left-hand derivation only; on a kernel
        # satisfying the axioms the right-hand path must then be defined too.
        # rat and eps run the full 500-tuple sweep in the acceptance suite.
        count = 500 if kernel.name == "bool" else 150
        rng = random.Random(hash((kernel.name, law)) & 0xFFFF)
        for _ in range(count):
            values = _law_values(kernel, law, rng)
            left, right = two_path_eval(kernel, law, values)
            assert kernel.eq(left, right), (law, values)
