"""Families of exact extended-probability distributions over a finite space.

A credal set here is a finite *indexed family* of distributions, not a convex
body.  The family translated from a body of evidence contains every extreme
point of the convex set and may contain interior points too.  The comparison
order, conditioning, combination and decomposition below are all
componentwise, one component per index.
Probabilities are exact eps-field values, so conditioning on an event of
infinitesimal probability is ordinary division rather than a failure case.

An event is a ``SetLike``: an iterable of atom names or a frame bitmask, the
encoding :mod:`plauscalc.evidence` uses for focal sets.  Each operation
resolves it once, with :meth:`Frame.mask_of`.

The vector view: event plausibilities form one eps-field value per index,
ordered componentwise, which makes the family a partially ordered product
ring.  Products of nonzero vectors can vanish (zero divisors), no nonzero
vector squares to zero, and every vector splits uniquely as
``lower + profile * spread`` with precise (all-components-equal) lower bound
and spread and a profile vector spanning exactly [0, 1].

Values are checked once, where they enter.  :class:`ExtDist` and
:class:`~plauscalc.evidence.MassFunction` are the validating entry points:
every parsed document and every user-built value goes through them.  The four
internal routes that build a result from values already checked --
:func:`condition`, :func:`combine_laplace`,
:func:`~plauscalc.evidence.dempster_combine` and
:func:`~plauscalc.evidence.mass_to_credal` -- take their values as they are,
through the private ``ExtDist._exact`` and ``MassFunction._exact``: exact
arithmetic has made the result valid, each docstring gives the proof, and the
result needs no second look.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Optional, Union

from .epsnum import ONE, EpsRational, _clip, as_eps, sum_values

__all__ = [
    "ImpossibleEventError",
    "IncompatibleCredalError",
    "Frame",
    "ExtDist",
    "CredalSet",
    "PlausVector",
    "ComparisonResult",
    "event_plausibility",
    "more_plausible",
    "condition",
    "combine_laplace",
    "envelopes",
    "Decomposition",
    "decompose",
]

Prob = Union[int, Fraction, EpsRational]
SetLike = Union[int, Iterable[str]]


class ImpossibleEventError(ValueError):
    """Conditioning on an event that every component rules out exactly."""


class IncompatibleCredalError(ValueError):
    """Combination annihilated every index pair."""


class _Frozen:
    """Base of the slotted values whose ``__init__`` sets every attribute once."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Frame(_Frozen):
    """Finite ordered frame of mutually exclusive outcomes.

    Credal sets index their distributions by it; bodies of evidence encode
    subsets of it as bitmasks, bit ``i`` standing for ``atoms[i]``.
    """

    __slots__ = ("atoms",)

    def __init__(self, atoms: Iterable[str]):
        atoms = tuple(atoms)
        if not atoms:
            raise ValueError("frame must be nonempty")
        if len(set(atoms)) != len(atoms):
            raise ValueError("atom names must be unique")
        object.__setattr__(self, "atoms", atoms)

    @property
    def size(self) -> int:
        return len(self.atoms)

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def index(self, atom: str) -> int:
        try:
            return self.atoms.index(atom)
        except ValueError:
            raise KeyError(f"unknown atom {_clip(atom)}") from None

    def mask_of(self, subset: SetLike) -> int:
        if isinstance(subset, int):
            if not 0 <= subset <= self.full_mask:
                raise KeyError(f"mask {_clip(subset)} out of range")
            return subset
        mask = 0
        for name in subset:
            mask |= 1 << self.index(name)
        return mask

    def names_of(self, mask: int) -> tuple[str, ...]:
        return tuple(a for i, a in enumerate(self.atoms) if mask >> i & 1)

    def atom_indices(self, mask: int) -> tuple[int, ...]:
        return tuple(i for i in range(self.size) if mask >> i & 1)

    def fmt_set(self, mask: int) -> str:
        return "{" + ",".join(self.names_of(mask)) + "}"


class ExtDist(_Frozen):
    """One exact distribution: nonnegative values summing to exactly 1."""

    __slots__ = ("space", "probs")

    def __init__(self, space: Frame, probs):
        if isinstance(probs, Mapping):
            missing = set(space.atoms) - set(probs)
            extra = set(probs) - set(space.atoms)
            if missing or extra:
                raise ValueError(
                    f"distribution atoms mismatch: missing {_clip(sorted(missing))}, "
                    f"extra {_clip(sorted(extra))}"
                )
            values = tuple(as_eps(probs[a]) for a in space.atoms)
        else:
            values = tuple(as_eps(p) for p in probs)
            if len(values) != len(space.atoms):
                raise ValueError("wrong number of probabilities")
        for a, p in zip(space.atoms, values):
            if p.sign() < 0:
                raise ValueError(f"negative probability for {_clip(a)}: {_clip(p, str)}")
        total = sum_values(values)
        if total != ONE:
            raise ValueError(f"probabilities sum to {_clip(total, str)}, expected 1")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "probs", values)

    @classmethod
    def _exact(cls, space: Frame, probs: Iterable[EpsRational]) -> "ExtDist":
        """Internal: field values already known nonnegative and summing to 1,
        taken as they are."""
        d = object.__new__(cls)
        object.__setattr__(d, "space", space)
        object.__setattr__(d, "probs", tuple(probs))
        return d

    def __eq__(self, other) -> bool:
        if isinstance(other, ExtDist):
            return self.space.atoms == other.space.atoms and self.probs == other.probs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.space.atoms, self.probs))

    def prob(self, atom: str) -> EpsRational:
        return self.probs[self.space.index(atom)]

    def event_prob(self, event: SetLike) -> EpsRational:
        mask = self.space.mask_of(event)
        return sum_values(p for i, p in enumerate(self.probs) if mask >> i & 1)

    def __str__(self) -> str:
        inner = ", ".join(f"{a}: {p}" for a, p in zip(self.space.atoms, self.probs))
        return "{" + inner + "}"


class CredalSet(_Frozen):
    """Nonempty indexed family of distributions over one frame."""

    __slots__ = ("space", "dists")

    def __init__(self, space: Frame, dists: Iterable[ExtDist]):
        dists = tuple(dists)
        if not dists:
            raise ValueError("credal set must contain at least one distribution")
        for d in dists:
            if d.space.atoms != space.atoms:
                raise ValueError("all distributions must share the outcome space")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "dists", dists)

    def __len__(self) -> int:
        return len(self.dists)


class PlausVector(_Frozen):
    """One eps-field value per index of a credal family, ordered componentwise."""

    __slots__ = ("components",)

    def __init__(self, components: Iterable[Prob]):
        comps = tuple(as_eps(c) for c in components)
        if not comps:
            raise ValueError("empty plausibility vector")
        object.__setattr__(self, "components", comps)

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i: int) -> EpsRational:
        return self.components[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, PlausVector):
            return self.components == other.components
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.components)

    def _zip(self, other: Union["PlausVector", Prob]):
        if isinstance(other, PlausVector):
            if len(other) != len(self):
                raise ValueError("length mismatch")
            return zip(self.components, other.components)
        v = as_eps(other)
        return ((c, v) for c in self.components)

    def __add__(self, other) -> "PlausVector":
        return PlausVector([a + b for a, b in self._zip(other)])

    __radd__ = __add__

    def __sub__(self, other) -> "PlausVector":
        return PlausVector([a - b for a, b in self._zip(other)])

    def __mul__(self, other) -> "PlausVector":
        return PlausVector([a * b for a, b in self._zip(other)])

    __rmul__ = __mul__

    def __truediv__(self, other) -> "PlausVector":
        return PlausVector([a / b for a, b in self._zip(other)])

    def min(self) -> EpsRational:
        return min(self.components)

    def max(self) -> EpsRational:
        return max(self.components)

    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def strictly_above(self, other: "PlausVector") -> bool:
        return all(a > b for a, b in self._zip(other))

    def strictly_below(self, other: "PlausVector") -> bool:
        return all(a < b for a, b in self._zip(other))

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.components) + ")"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def event_plausibility(c: CredalSet, event: SetLike) -> PlausVector:
    """Per-index probability of the event."""
    mask = c.space.mask_of(event)
    return PlausVector([d.event_prob(mask) for d in c.dists])


class ComparisonResult(NamedTuple):
    verdict: str  # yes | no | incomparable
    equal: bool = False

    def __str__(self) -> str:
        return f"{self.verdict} (equal)" if self.equal else self.verdict


def more_plausible(c: CredalSet, a: SetLike, b: SetLike) -> ComparisonResult:
    """Is event ``a`` more plausible than ``b``?  Requires strict agreement of
    every component; equality is reported as incomparable with a flag."""
    pa = event_plausibility(c, a)
    pb = event_plausibility(c, b)
    if pa == pb:
        return ComparisonResult("incomparable", equal=True)
    if pa.strictly_above(pb):
        return ComparisonResult("yes")
    if pa.strictly_below(pb):
        return ComparisonResult("no")
    return ComparisonResult("incomparable")


def condition(c: CredalSet, event: SetLike) -> CredalSet:
    """Per-component exact conditioning on the event.

    Components giving the event probability exactly zero are eliminated as
    impossible candidate worlds; infinitesimal probabilities condition
    normally.  Raises when every component is eliminated.

    Each survivor is valid by construction: its kept probabilities are
    nonnegative with sum p(E) > 0, so every p * p(E)^-1 >= 0 and they sum to
    p(E) * p(E)^-1 = 1.
    """
    mask = c.space.mask_of(event)
    if not mask:
        raise ImpossibleEventError("conditioning on impossible event: empty event")
    new_space = Frame(c.space.names_of(mask))
    kept = c.space.atom_indices(mask)
    survivors = []
    for d in c.dists:
        pe = d.event_prob(mask)
        if pe.is_zero:
            continue
        inv = pe.reciprocal()
        survivors.append(ExtDist._exact(new_space, [d.probs[i] * inv for i in kept]))
    if not survivors:
        raise ImpossibleEventError("conditioning on impossible event")
    return CredalSet(new_space, survivors)


def combine_laplace(c1: CredalSet, c2: CredalSet) -> CredalSet:
    """Pairwise atomwise product of members, exactly renormalized.

    The result family is indexed by the lexicographic Cartesian product of
    the two index sets; index pairs whose product annihilates are dropped.

    Each member is valid by construction: the weights w = p * q are
    nonnegative with a sum t > 0, so every w * t^-1 >= 0 and they sum to
    t * t^-1 = 1.
    """
    if c1.space.atoms != c2.space.atoms:
        raise ValueError("credal sets must share the outcome space")
    out = []
    for d1 in c1.dists:
        for d2 in c2.dists:
            weights = [p * q for p, q in zip(d1.probs, d2.probs)]
            total = sum_values(weights)
            if total.is_zero:
                continue
            inv = total.reciprocal()
            out.append(ExtDist._exact(c1.space, [w * inv for w in weights]))
    if not out:
        raise IncompatibleCredalError("incompatible credal sets")
    return CredalSet(c1.space, out)


def envelopes(c: CredalSet, event: SetLike) -> tuple[Fraction, Fraction]:
    """Lower and upper standard parts of the event probability."""
    vec = event_plausibility(c, event)
    parts = [p.standard_part() for p in vec]
    return min(parts), max(parts)


class Decomposition(NamedTuple):
    """p = lower + profile * spread, componentwise.

    ``lower`` and ``spread`` are precise (all-components-equal) values: the
    family's lower probability and the width up to its upper probability.
    ``profile`` is None exactly when the vector is precise; otherwise it
    spans [0, 1] and is incomparable to every strictly interior constant.
    """

    lower: EpsRational
    spread: EpsRational
    profile: Optional[PlausVector]

    @property
    def upper(self) -> EpsRational:
        return self.lower + self.spread


def decompose(p: PlausVector) -> Decomposition:
    """Split a plausibility vector into precise bounds and a profile."""
    s = p.min()
    t = p.max() - s
    if t.is_zero:
        return Decomposition(lower=s, spread=t, profile=None)
    return Decomposition(lower=s, spread=t, profile=(p - s) / t)
