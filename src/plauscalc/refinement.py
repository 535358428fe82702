"""Conditional-event models with refinement, and two-path consistency checks.

A model is a tree of named events over a kernel.  Each non-root event carries
one primitive conditional: its plausibility given its parent.  Refinement adds
a new subcase without touching any existing assignment, so every quantity
computable before a refinement is computable, and unchanged, afterwards.

Siblings may be declared information-independent (conditioning one on the
other changes nothing) or exclusive (their conjunction is impossible).  Those
declarations are exactly what lets a derived conditional be computed along
more than one derivation path; :func:`two_path_eval` builds the minimal model
for each algebraic law and evaluates the same conditional both ways.  On any
kernel whose operations satisfy the checked axioms the two results coincide.

Values are checked once, where they enter a model: :meth:`Model.refine_subcase`
and :meth:`Model.refine_exclusive_pair` reject a value outside the kernel's
domain with the kernel's own :class:`~plauscalc.kernels.DomainError`, through
``Kernel._require``.  Queries then combine the assigned values with the
kernel's unchecked ``_f``, ``_s`` and ``_g_sum``.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from .epsnum import _clip
from .kernels import Kernel, UndefinedSumError

__all__ = [
    "RefinementError",
    "ExclusivityError",
    "ScenarioUndefinedError",
    "Model",
    "TWO_PATH_LAWS",
    "two_path_eval",
]

Value = Any


class RefinementError(ValueError):
    """A refinement step violated its precondition."""


class ExclusivityError(RefinementError):
    """Two subcases cannot be exclusive: x exceeds S(y)."""


class ScenarioUndefinedError(ValueError):
    """A derivation path required a sum outside G's domain."""


class Model(NamedTuple):
    kernel: Kernel
    parents: Mapping[str, str] = MappingProxyType({})  # event -> its parent event
    values: Mapping[str, Value] = MappingProxyType({})  # event | its parent
    independent: frozenset[frozenset[str]] = frozenset()
    exclusive: frozenset[frozenset[str]] = frozenset()

    root = "ROOT"  # the context every event refines; it has no parent

    # -- construction ---------------------------------------------------------

    def refine_subcase(
        self,
        parent: str,
        name: str,
        p: Value,
        independent_of: Iterable[str] = (),
    ) -> "Model":
        """Add subcase ``name`` of ``parent`` with conditional plausibility p.

        Existing assignments are untouched.  ``independent_of`` lists existing
        sibling events whose truth is declared uninformative about the new one.
        """
        self._check_new(parent, name)
        self.kernel._require(p)
        independent = set(self.independent)
        for other in independent_of:
            if other != self.root and other not in self.parents:
                raise RefinementError(f"unknown event {other!r}")
            independent.add(frozenset((name, other)))
        return self._replace(
            parents={**self.parents, name: parent},
            values={**self.values, name: p},
            independent=frozenset(independent),
        )

    def refine_exclusive_pair(
        self, parent: str, x: Value, y: Value, names: tuple[str, str]
    ) -> "Model":
        """Add exclusive subcases ``names`` of ``parent`` with plausibilities x and y."""
        k = self.kernel
        k._require(x, y)
        if not k.leq(x, k._s(y)):
            raise ExclusivityError(
                f"exclusivity impossible: {_clip(x, k.fmt)} exceeds S({_clip(y, k.fmt)})"
            )
        a, b = names
        m = self.refine_subcase(parent, a, x)
        m = m.refine_subcase(parent, b, y)
        return m._replace(exclusive=m.exclusive | {frozenset((a, b))})

    def _check_new(self, parent: str, name: str) -> None:
        if parent != self.root and parent not in self.parents:
            raise RefinementError(f"unknown parent event {parent!r}")
        if name == self.root or name in self.parents:
            raise RefinementError(f"duplicate event name {name!r}")
        pv = self.values.get(parent)
        if pv is not None and self.kernel.eq(pv, self.kernel.bottom):
            raise RefinementError(f"cannot refine impossible event {parent!r}")

    # -- queries ----------------------------------------------------------------

    def conditional(self, name: str, also_given: Sequence[str] = ()) -> Value:
        """Plausibility of ``name`` given its parent context.

        Extra conditioning events are allowed exactly when each is declared
        independent of ``name``; the assigned value then carries over.
        """
        if name not in self.values:
            raise KeyError(f"no assignment for event {name!r}")
        for g in also_given:
            if frozenset((name, g)) not in self.independent:
                raise RefinementError(
                    f"{name!r} given {g!r} is not derivable: no independence declared"
                )
        return self.values[name]

    def chain_conjunction(self, leaf: str, context: str, assoc: str = "left") -> Value:
        """Conjunction of the events on the path leaf -> ... -> context.

        ``assoc`` picks the derivation: "left" peels conditionals from the
        leaf inward, "right" from the context outward.
        """
        path = self._path(leaf, context)
        vals = [self.values[e] for e in path]
        k = self.kernel
        if assoc == "left":
            acc = vals[0]
            for v in vals[1:]:
                acc = k._f(acc, v)
            return acc
        if assoc == "right":
            acc = vals[-1]
            for v in reversed(vals[:-1]):
                acc = k._f(v, acc)
            return acc
        raise ValueError("assoc must be 'left' or 'right'")

    def pair_conjunction(self, first: str, second: str) -> Value:
        """Conjunction of two independent siblings, conditioning on ``second`` first."""
        a = self.conditional(first, also_given=(second,))
        b = self.conditional(second)
        return self.kernel._f(a, b)

    def exclusive_disjunction(self, first: str, second: str) -> Value:
        """Disjunction of a declared-exclusive sibling pair, in argument order."""
        if frozenset((first, second)) not in self.exclusive:
            raise RefinementError(f"{first!r}, {second!r} are not declared exclusive")
        k = self.kernel
        try:
            return k._g_sum(self.values[first], self.values[second])
        except UndefinedSumError as exc:
            raise ScenarioUndefinedError(f"scenario undefined: {exc}") from exc

    def _path(self, leaf: str, context: str) -> list[str]:
        path = []
        cur = leaf
        while cur != context:
            parent = self.parents.get(cur)
            if parent is None:
                raise RefinementError(f"{context!r} is not an ancestor of {leaf!r}")
            path.append(cur)
            cur = parent
        if not path:
            raise RefinementError("empty chain")
        return path


# ---------------------------------------------------------------------------
# Two-path scenarios
# ---------------------------------------------------------------------------

def _scenario_assoc_f(k: Kernel, a: Value, b: Value, c: Value) -> tuple[Value, Value]:
    # Chain: A under B under C under the root; target is the triple
    # conjunction given the root, peeled in either association order.
    m = Model(k)
    m = m.refine_subcase(m.root, "C", c)
    m = m.refine_subcase("C", "B", b)
    m = m.refine_subcase("B", "A", a)
    return (
        m.chain_conjunction("A", m.root, assoc="left"),
        m.chain_conjunction("A", m.root, assoc="right"),
    )


def _scenario_comm_f(k: Kernel, x: Value, y: Value) -> tuple[Value, Value]:
    # Two independent subcases of the root; conjoin in both orders.
    m = Model(k)
    m = m.refine_subcase(m.root, "A", x)
    m = m.refine_subcase(m.root, "B", y, independent_of=("A",))
    return m.pair_conjunction("A", "B"), m.pair_conjunction("B", "A")


def _scenario_comm_g(k: Kernel, x: Value, y: Value) -> tuple[Value, Value]:
    m = Model(k)
    m = m.refine_exclusive_pair(m.root, x, y, names=("A", "B"))
    return m.exclusive_disjunction("A", "B"), m.exclusive_disjunction("B", "A")


def _scenario_assoc_g(k: Kernel, x: Value, y: Value, z: Value) -> tuple[Value, Value]:
    # Each sum materializes as an exclusive pair whose disjunction carries it.
    def gsum(u: Value, v: Value, tag: str, m: Model) -> tuple[Value, Model]:
        m = m.refine_exclusive_pair(m.root, u, v, names=(f"{tag}.l", f"{tag}.r"))
        return m.exclusive_disjunction(f"{tag}.l", f"{tag}.r"), m

    m = Model(k)
    xy, m = gsum(x, y, "xy", m)
    left, m = gsum(xy, z, "xy_z", m)
    yz, m = gsum(y, z, "yz", m)
    right, _ = gsum(x, yz, "x_yz", m)
    return left, right


def _scenario_distrib(k: Kernel, x: Value, y: Value, z: Value) -> tuple[Value, Value]:
    # A, B exclusive under the root; C independent of both.  The target is
    # (A or B) and C given the root, expanded before or after distribution.
    m = Model(k)
    m = m.refine_exclusive_pair(m.root, x, y, names=("A", "B"))
    m = m.refine_subcase(m.root, "C", z, independent_of=("A", "B"))
    union = m.exclusive_disjunction("A", "B")
    left = k._f(union, m.conditional("C"))
    ac = k._f(m.conditional("A", also_given=("C",)), m.conditional("C"))
    bc = k._f(m.conditional("B", also_given=("C",)), m.conditional("C"))
    return left, k._g_sum(ac, bc)


_SCENARIOS = {
    "assoc_F": (_scenario_assoc_f, 3),
    "comm_F": (_scenario_comm_f, 2),
    "comm_G": (_scenario_comm_g, 2),
    "assoc_G": (_scenario_assoc_g, 3),
    "distrib": (_scenario_distrib, 3),
}

TWO_PATH_LAWS = tuple(_SCENARIOS)


def two_path_eval(kernel: Kernel, law: str, values: Sequence[Value]) -> tuple[Value, Value]:
    """Evaluate one algebraic law's target conditional along both derivations.

    Returns the pair of results; they agree on any kernel satisfying the
    checked axioms.  Raises :class:`ScenarioUndefinedError` when a required
    sum leaves G's domain or a required exclusive pair is impossible.
    """
    try:
        build, arity = _SCENARIOS[law]
    except KeyError:
        raise ValueError(f"unknown law {law!r}; choose from {TWO_PATH_LAWS}") from None
    if len(values) != arity:
        raise ValueError(f"law {law} takes {arity} values, got {len(values)}")
    try:
        return build(kernel, *values)
    except (ExclusivityError, UndefinedSumError) as exc:
        raise ScenarioUndefinedError(f"scenario undefined: {exc}") from exc
