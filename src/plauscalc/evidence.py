"""Bodies of evidence over a finite frame, their combination, and the
translation into credal sets.

Focal sets are bitmasks over the ordered frame, so set algebra is exact and
iteration order deterministic.  Masses are eps-field values: every published
example uses plain rationals, but infinitesimal masses are legal for
uniformity with the rest of the system.

Two combination routes are provided and deliberately kept comparable:

* :func:`dempster_combine` -- random-set intersection conditioned on being
  nonempty, dividing away conflict mass.
* translation via :func:`mass_to_credal` followed by
  :func:`~plauscalc.credal.combine_laplace`.

:func:`run_gelman` builds the boxer/wrestler/coin scenario on which the two
routes famously disagree and reports both answers with exact envelopes.

Values are checked once, where they enter, as in :mod:`plauscalc.credal`.
:class:`MassFunction` is the validating entry point for a body of evidence:
every parsed document and every user-built body goes through it.
:func:`dempster_combine` builds its result through the private
``MassFunction._exact``, and :func:`mass_to_credal` its members through
``ExtDist._exact``, taking the values as they are; each docstring proves the
result valid.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from .credal import CredalSet, ExtDist, Frame, Prob, SetLike, _Frozen, combine_laplace, envelopes
from .epsnum import ONE, ZERO, EpsRational, _clip, as_eps, sum_products, sum_values

__all__ = [
    "TotalConflictError",
    "SelectionBudgetError",
    "MAX_COMBINED_MEMBERS",
    "MAX_MASS_DEGREE",
    "MAX_COEFF_BITS",
    "MassFunction",
    "dempster_combine",
    "bel_pl",
    "mass_to_credal",
    "dempster_chain",
    "laplace_chain",
    "robust_chain",
    "GelmanReport",
    "run_gelman",
]


# Bound on the selection functions a credal translation enumerates, on the
# product of the operands' member counts in a combination of credal sets, and
# on the focal sets one step of a chain of Dempster combinations can produce.
MAX_COMBINED_MEMBERS = 10_000

# Bounds on the values a chain of combinations produces, Dempster's or
# Laplace's: their degree in eps, and the bits of their largest integer.  Each
# step can raise both, and the cost of a step grows with them, so a long chain
# is refused instead of running for minutes.
MAX_MASS_DEGREE = 64
MAX_COEFF_BITS = 4096


class TotalConflictError(ValueError):
    """Dempster combination with conflict mass exactly 1."""


class SelectionBudgetError(ValueError):
    """Credal translation would enumerate too many selection functions, a
    combination of credal sets or bodies of evidence could have too many
    members or focal sets, or a chain of combinations gives a value of too
    high a degree in eps or with too large an integer."""


class MassFunction(_Frozen):
    """Body of evidence: positive masses on nonempty subsets, summing to 1.

    ``masses`` maps subsets to masses, or lists (subset, mass) pairs; the
    masses given for one subset add up.  ``focal`` holds the (mask, mass)
    pairs sorted by mask.
    """

    __slots__ = ("frame", "focal")

    def __init__(
        self, frame: Frame, masses: Union[Mapping[SetLike, Prob], Iterable[tuple[SetLike, Prob]]]
    ):
        groups: dict[int, list[EpsRational]] = {}
        pairs = masses.items() if isinstance(masses, Mapping) else masses
        for subset, mass in pairs:
            groups.setdefault(frame.mask_of(subset), []).append(as_eps(mass))
        if 0 in groups:
            raise ValueError("the empty set cannot carry mass")
        acc = {mask: sum_values(ms) for mask, ms in groups.items()}
        for mask, m in acc.items():
            if m.sign() <= 0:
                raise ValueError(
                    f"mass of {_clip(frame.fmt_set(mask), str)} must be positive, got {_clip(m, str)}"
                )
        total = sum_values(acc.values())
        if total != ONE:
            raise ValueError(f"masses sum to {_clip(total, str)}, expected 1")
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "focal", tuple(sorted(acc.items())))

    @classmethod
    def _exact(cls, frame: Frame, focal: Iterable[tuple[int, EpsRational]]) -> "MassFunction":
        """Internal: (mask, mass) pairs on distinct nonempty masks, with
        masses already known positive and summing to 1, taken as they are and
        sorted by mask."""
        m = object.__new__(cls)
        object.__setattr__(m, "frame", frame)
        object.__setattr__(m, "focal", tuple(sorted(focal)))
        return m

    @classmethod
    def vacuous(cls, frame: Frame) -> "MassFunction":
        return cls(frame, {frame.full_mask: ONE})

    def mass(self, subset: SetLike) -> EpsRational:
        mask = self.frame.mask_of(subset)
        for m, v in self.focal:
            if m == mask:
                return v
        return ZERO

    @property
    def is_bayesian(self) -> bool:
        return all(mask & (mask - 1) == 0 for mask, _ in self.focal)

    def __str__(self) -> str:
        inner = "; ".join(f"{self.frame.fmt_set(m)}: {v}" for m, v in self.focal)
        return f"[{inner}]"


def dempster_combine(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Random-set intersection conditioned on non-emptiness, exactly.

    Conflict mass K is divided away; K = 1 raises :class:`TotalConflictError`.

    The result is valid by construction.  The products m1(B) * m2(C) are
    positive and sum to 1 over all pairs.  K sums those with B & C empty, so
    K <= 1, and K = 1 is refused: 1 - K > 0.  Each mass on a nonempty A is a
    sum of positive products times (1 - K)^-1, so it is positive, and the
    masses sum to (1 - K) * (1 - K)^-1 = 1.
    """
    if m1.frame.atoms != m2.frame.atoms:
        raise ValueError("mass functions must share the frame")
    groups: dict[int, list[tuple[EpsRational, EpsRational]]] = {}
    for a, ma in m1.focal:
        for b, mb in m2.focal:
            groups.setdefault(a & b, []).append((ma, mb))
    conflict = sum_products(groups.pop(0, ()))
    if conflict == ONE:
        raise TotalConflictError("total conflict")
    inv = (ONE - conflict).reciprocal()
    return MassFunction._exact(
        m1.frame, [(mask, sum_products(ws) * inv) for mask, ws in groups.items()]
    )


def bel_pl(m: MassFunction, event: SetLike) -> tuple[EpsRational, EpsRational]:
    """Belief and plausibility of the event: the mass certainly inside it and
    the mass not certainly outside it."""
    ev = m.frame.mask_of(event)
    bel = sum_values(v for mask, v in m.focal if mask & ~ev == 0)
    pl = sum_values(v for mask, v in m.focal if mask & ev)
    return bel, pl


def mass_to_credal(m: MassFunction) -> CredalSet:
    """All distributions obtained by sending each focal mass to one of its atoms.

    One distribution per selection function, duplicates removed.  They contain
    every extreme point of the credal set the body of evidence describes, and
    may contain interior points too: focal sets {a,b}, {b,c} and {a,c} at 1/3
    each give the uniform distribution.  Their envelopes reproduce belief and
    plausibility.  Raises
    :class:`SelectionBudgetError` above :data:`MAX_COMBINED_MEMBERS` selection
    functions.

    Each member is valid by construction: it adds up the positive focal
    masses, one per focal set, so its values are nonnegative and sum to
    the total mass, 1.
    """
    count = 1
    for mask, _ in m.focal:
        count *= bin(mask).count("1")
        if count > MAX_COMBINED_MEMBERS:
            raise SelectionBudgetError(
                f"credal translation needs more than {MAX_COMBINED_MEMBERS} selection functions"
                f" (at least {count})"
            )
    n = m.frame.size
    # Keyed on the canonical (numerator, denominator) tuples: canonical forms
    # are unique, and a constant's hash would build a Fraction.
    seen: dict[tuple, list[EpsRational]] = {}
    choices = [m.frame.atom_indices(mask) for mask, _ in m.focal]

    # Depth first over an explicit stack (one level per focal set), children
    # pushed in reverse so that selections are visited in atom order.
    stack = [(0, [ZERO] * n)]
    while stack:
        i, acc = stack.pop()
        if i == len(choices):
            seen.setdefault(tuple((v._num, v._den) for v in acc), acc)
            continue
        _, mass = m.focal[i]
        for atom in reversed(choices[i]):
            nxt = list(acc)
            nxt[atom] = nxt[atom] + mass
            stack.append((i + 1, nxt))
    dists = [ExtDist._exact(m.frame, probs) for probs in seen.values()]
    return CredalSet(m.frame, dists)


def _bound_size(values: Iterable[EpsRational], what: str) -> None:
    """Refuse a chain step that gives a value above :data:`MAX_MASS_DEGREE`
    in degree or above :data:`MAX_COEFF_BITS` in the bits of an integer."""
    values = list(values)
    degree = max(v.degree for v in values)
    if degree > MAX_MASS_DEGREE:
        raise SelectionBudgetError(f"{what} of degree {degree} in eps, more than {MAX_MASS_DEGREE}")
    bits = max(max(map(abs, v._num + v._den)).bit_length() for v in values)
    if bits > MAX_COEFF_BITS:
        raise SelectionBudgetError(
            f"{what} with an integer of {bits} bits, more than {MAX_COEFF_BITS}"
        )


def dempster_chain(bodies: Sequence[MassFunction]) -> MassFunction:
    """Dempster combination of a nonempty list of bodies, left to right; a
    step that could give too many focal sets or gives too large a mass is
    refused with :class:`SelectionBudgetError`."""
    m, *rest = bodies
    for nxt in rest:
        # The focal sets of a step are intersections: at most one per pair and
        # one per nonempty subset of the frame.
        bound = min(len(m.focal) * len(nxt.focal), m.frame.full_mask)
        if bound > MAX_COMBINED_MEMBERS:
            raise SelectionBudgetError(
                f"dempster combination could have more than {MAX_COMBINED_MEMBERS}"
                f" focal sets (up to {bound})"
            )
        m = dempster_combine(m, nxt)
        _bound_size((v for _, v in m.focal), "dempster combination gives a mass")
    return m


def laplace_chain(credals: Sequence[CredalSet]) -> CredalSet:
    """Laplace combination of a nonempty list of credal sets, left to right;
    too many members in all, or a step that gives too large a probability, is
    refused with :class:`SelectionBudgetError`."""
    bound = 1
    for c in credals:
        bound *= len(c)
        if bound > MAX_COMBINED_MEMBERS:
            raise SelectionBudgetError(
                f"combination could have more than {MAX_COMBINED_MEMBERS} members"
                f" (at least {bound})"
            )
    c, *rest = credals
    for nxt in rest:
        c = combine_laplace(c, nxt)
        _bound_size((p for d in c.dists for p in d.probs), "combination gives a probability")
    return c


def robust_chain(bodies: Sequence[MassFunction]) -> CredalSet:
    """The robust route over a nonempty list of bodies: each distinct body
    translated once by :func:`mass_to_credal`, then :func:`laplace_chain`."""
    credal = {m: mass_to_credal(m) for m in dict.fromkeys(bodies)}
    return laplace_chain([credal[m] for m in bodies])


# ---------------------------------------------------------------------------
# The boxer / wrestler / coin comparison
# ---------------------------------------------------------------------------


class GelmanReport(NamedTuple):
    """Both combination routes on the boxer/wrestler/coin evidence.

    Events: B = the boxer wins, C = the coin lands heads; atoms name the four
    conjunctions.  The three bodies of evidence are total ignorance about B,
    the fair coin, and a report that B and C had the same outcome.
    """

    frame: Frame
    bodies: dict[str, MassFunction]
    dempster: MassFunction
    robust: CredalSet
    symbol_masses: dict[str, EpsRational]  # mass on {BC} under each body
    dempster_envelopes: dict[str, tuple[Fraction, Fraction]]
    robust_envelopes: dict[str, tuple[Fraction, Fraction]]

    def format_lines(self) -> list[str]:
        f = self.frame
        lines = [f"frame: {', '.join(f.atoms)}"]
        for name in ("m1", "m2", "m3"):
            lines.append(f"{name} = {self.bodies[name]}")
        lines.append(f"dempster: m1 (x) m2 (x) m3 = {self.dempster}")
        lines.append("robust (credal translation + componentwise product):")
        for d in self.robust.dists:
            lines.append(f"  member {d}")
        lines.append("mass on {BC}: " + ", ".join(
            f"{k} -> {v}" for k, v in self.symbol_masses.items()
        ))
        for event in ("B", "C"):
            dl, du = self.dempster_envelopes[event]
            rl, ru = self.robust_envelopes[event]
            lines.append(
                f"event {event}: dempster envelopes ({dl}, {du});"
                f" robust envelopes ({rl}, {ru})"
            )
        return lines


def run_gelman() -> GelmanReport:
    """Build the scenario exactly and evaluate both combination routes."""
    frame = Frame(("BC", "BnC", "nBC", "nBnC"))
    half = Fraction(1, 2)
    m1 = MassFunction.vacuous(frame)
    m2 = MassFunction(frame, {("BC", "nBC"): half, ("BnC", "nBnC"): half})
    m3 = MassFunction(frame, {("BC", "nBnC"): 1})
    bodies = {"m1": m1, "m2": m2, "m3": m3}

    combined = dempster_chain([m1, m2, m3])
    robust = robust_chain([m1, m2, m3])

    bc = ("BC",)
    symbol_masses = {
        "m1": m1.mass(bc),
        "m2": m2.mass(bc),
        "m3": m3.mass(bc),
        "m": combined.mass(bc),
    }

    events = {"B": ("BC", "BnC"), "C": ("BC", "nBC")}
    dempster_env = {}
    robust_env = {}
    for name, atoms in events.items():
        bel, pl = bel_pl(combined, atoms)
        dempster_env[name] = (bel.standard_part(), pl.standard_part())
        robust_env[name] = envelopes(robust, atoms)

    return GelmanReport(
        frame=frame,
        bodies=bodies,
        dempster=combined,
        robust=robust,
        symbol_masses=symbol_masses,
        dempster_envelopes=dempster_env,
        robust_envelopes=robust_env,
    )
