"""Plausibility kernels and property-based verification of their laws.

A kernel packages a totally ordered domain of plausibility values with the
three combination functions: ``F`` (conjunction), ``S`` (complement) and the
partial ``G`` (disjunction of exclusive cases, defined when ``x <= S(y)``).
Three lawful kernels are built in, and one control:

* ``rat``  -- rationals in [0, 1]; F is multiplication, G addition, S(x) = 1 - x.
* ``eps``  -- the same formulas over exact eps-field values in [0, 1], where
  the order treats eps as a positive infinitesimal.
* ``bool`` -- the two-valued propositional limit.
* ``broken-s`` -- ``rat`` with S bent to (1 - x)^2: a control on which
  S-involution fails, so the checker's witness can be seen.

:data:`KERNELS` is the one registry; the command line takes its ``--kernel``
choices from it.

Nothing is assumed: :func:`check_axioms` samples the laws and reports each
with a pass/fail status and, on failure, a concrete reproducing witness.
:func:`archimedean_check` and :func:`separability_check` probe the two
order-theoretic properties whose failure signals infinitesimal values.

Kernel work is done once.  The checker evaluates each expression once per
sampled triple and reuses it across the laws that mention it; the rat order
compares integer cross-products of numerators and denominators rather than
going through ``Fraction``'s generic comparison; the Archimedean probe costs
one G per bit of ``n_max``.

Values are checked once, where they enter, and ``_require`` is the one
domain check: it raises :class:`DomainError` naming the value in the kernel's
own format.  Its callers are the public ``F``, ``G``, ``S``, ``g_defined`` and
``coerce``; the checker and the probes, for their inputs (each sampled
triple, ``e``, ``x``/``y``/``c``); ``Embedding.frac`` and ``Embedding.embed``;
and ``Model.refine_subcase`` and ``Model.refine_exclusive_pair``.  The private
``_f``, ``_s``, ``_g``, ``_g_defined`` and ``_g_sum`` (``G`` that raises
:class:`UndefinedSumError`) skip that check: the domain is closed under F, S
and, where defined, G, so their results need no second look.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from fractions import Fraction
from typing import Any, NamedTuple, Optional

from .epsnum import EPS, ONE, ZERO, EpsRational, _clip, const, exact_str

__all__ = [
    "DomainError",
    "UndefinedSumError",
    "Kernel",
    "RatKernel",
    "EpsKernel",
    "BoolKernel",
    "BrokenNegationKernel",
    "KERNELS",
    "get_kernel",
    "AxiomCheck",
    "AxiomReport",
    "check_axioms",
    "ArchimedeanResult",
    "archimedean_check",
    "SeparabilityResult",
    "separability_check",
]

Value = Any


class DomainError(ValueError):
    """A value fell outside the kernel's domain."""


class UndefinedSumError(ValueError):
    """G was applied outside its domain of definition.

    This is a semantic condition (the disjuncts cannot be exclusive), not a
    fault; callers probing G's domain should catch it.
    """


class Kernel(ABC):
    """A totally ordered plausibility domain with F, G and S.

    ``bottom`` and ``top`` are the least and greatest values; ``nontrivial``
    is a designated element strictly between them, or ``None`` when there is
    none.
    """

    name: str = "?"
    bottom: Value
    top: Value
    nontrivial: Value = None

    # -- domain --------------------------------------------------------------

    @abstractmethod
    def contains(self, x: Value) -> bool: ...

    def _require(self, *values: Value) -> None:
        for v in values:
            if not self.contains(v):
                article = "an" if self.name[0] in "aeiou" else "a"
                raise DomainError(
                    f"{_clip(v, self.fmt)} is not {article} {self.name}-kernel value"
                )

    def coerce(self, x: Value) -> Value:
        """Best-effort conversion into the domain; raises DomainError."""
        self._require(x)
        return x

    @abstractmethod
    def sample(self, rng: random.Random) -> Value: ...

    # -- order ----------------------------------------------------------------

    def eq(self, x: Value, y: Value) -> bool:
        return x == y

    def leq(self, x: Value, y: Value) -> bool:
        return x <= y

    def lt(self, x: Value, y: Value) -> bool:
        return x < y

    # -- operations -------------------------------------------------------------

    @abstractmethod
    def _f(self, x: Value, y: Value) -> Value: ...

    @abstractmethod
    def _s(self, x: Value) -> Value: ...

    @abstractmethod
    def _g(self, x: Value, y: Value) -> Value: ...

    def F(self, x: Value, y: Value) -> Value:
        """Plausibility of a conjunction from its chained conditionals."""
        self._require(x, y)
        return self._f(x, y)

    def S(self, x: Value) -> Value:
        """Plausibility of the complement."""
        self._require(x)
        return self._s(x)

    def _g_defined(self, x: Value, y: Value) -> bool:
        return self.leq(x, self._s(y))

    def _g_sum(self, x: Value, y: Value) -> Value:
        """G on domain values; raises UndefinedSumError outside G's domain."""
        if not self._g_defined(x, y):
            raise UndefinedSumError(
                f"undefined sum: {_clip(x, self.fmt)} exceeds S({_clip(y, self.fmt)})"
            )
        return self._g(x, y)

    def g_defined(self, x: Value, y: Value) -> bool:
        """True when the exclusive disjunction G(x, y) exists."""
        self._require(x, y)
        return self._g_defined(x, y)

    def G(self, x: Value, y: Value) -> Value:
        """Plausibility of an exclusive disjunction; partial."""
        self._require(x, y)
        return self._g_sum(x, y)

    def fmt(self, x: Value) -> str:
        return exact_str(x)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class RatKernel(Kernel):
    """Rationals in [0, 1] under multiplication / addition / complement."""

    name = "rat"
    bottom, top, nontrivial = Fraction(0), Fraction(1), Fraction(1, 2)

    # Domain values are ints or canonical Fractions (lowest terms, positive
    # denominator), so integer cross-products decide the order.

    def contains(self, x: Value) -> bool:
        return (
            isinstance(x, (Fraction, int))
            and not isinstance(x, bool)
            and 0 <= x.numerator <= x.denominator
        )

    def eq(self, x, y):
        return x.numerator == y.numerator and x.denominator == y.denominator

    def leq(self, x, y):
        return x.numerator * y.denominator <= y.numerator * x.denominator

    def lt(self, x, y):
        return x.numerator * y.denominator < y.numerator * x.denominator

    def coerce(self, x: Value) -> Fraction:
        """A constant eps-value becomes its ``Fraction``."""
        if isinstance(x, EpsRational) and x.is_constant():
            x = x.standard_part()
        return super().coerce(x)

    def sample(self, rng: random.Random) -> Fraction:
        den = rng.randint(1, 16)
        return Fraction(rng.randint(0, den), den)

    def _f(self, x, y):
        return x * y

    def _s(self, x):
        return 1 - x

    def _g(self, x, y):
        return x + y


class BrokenNegationKernel(RatKernel):
    """The rat kernel with complement deliberately bent to (1 - x)^2.

    Still decreasing with S(0) = 1, so exactly the involution law breaks;
    used to prove the axiom checker can catch a violation with a witness.
    """

    name = "broken-s"

    def _s(self, x):
        return (1 - x) ** 2


_EPS_SPECIALS = (ZERO, ONE, EPS, ONE - EPS, EPS * EPS, const(Fraction(1, 2)) + EPS)


class EpsKernel(Kernel):
    """Exact eps-field values in [0, 1] under the probability formulas."""

    name = "eps"
    bottom, top = ZERO, ONE
    # Any interior element generates the same embedding classes; a plain
    # constant keeps the scaling unit cheap to multiply by.
    nontrivial = const(Fraction(1, 2))

    def contains(self, x: Value) -> bool:
        return isinstance(x, EpsRational) and x.sign() >= 0 and x.compare(ONE) <= 0

    def coerce(self, x: Value) -> EpsRational:
        if isinstance(x, (int, Fraction)):
            x = const(x)
        return super().coerce(x)

    def sample(self, rng: random.Random) -> EpsRational:
        if rng.random() < 0.2:
            return rng.choice(_EPS_SPECIALS)
        den = rng.randint(1, 8)
        q0 = Fraction(rng.randint(0, den), den)
        q1 = Fraction(rng.randint(-2, 2), rng.randint(1, 4))
        q2 = Fraction(rng.randint(-2, 2), rng.randint(1, 4))
        v = EpsRational((q0, q1, q2))  # q0 + q1 eps + q2 eps^2
        if v.sign() < 0:
            return ZERO
        if v.compare(ONE) > 0:
            return ONE
        return v

    def _f(self, x, y):
        return x * y

    def _s(self, x):
        return ONE - x

    def _g(self, x, y):
        return x + y


class BoolKernel(Kernel):
    """The propositional limit: only falsity and truth."""

    name = "bool"
    bottom, top = False, True

    def contains(self, x: Value) -> bool:
        return isinstance(x, bool)

    def coerce(self, x: Value) -> bool:
        """The constants 0 and 1 (int, Fraction or eps-value) become False/True."""
        v = x.standard_part() if isinstance(x, EpsRational) and x.is_constant() else x
        if isinstance(v, (int, Fraction)) and v in (0, 1):
            return v == 1
        return super().coerce(x)

    def sample(self, rng: random.Random) -> bool:
        return rng.random() < 0.5

    def _f(self, x, y):
        return x and y

    def _s(self, x):
        return not x

    def _g(self, x, y):
        return x or y


KERNELS: dict[str, Kernel] = {
    k.name: k for k in (RatKernel(), EpsKernel(), BoolKernel(), BrokenNegationKernel())
}


def get_kernel(name: str) -> Kernel:
    try:
        return KERNELS[name]
    except KeyError:
        raise KeyError(f"unknown kernel {name!r}; choose from {sorted(KERNELS)}") from None


# ---------------------------------------------------------------------------
# Axiom checking
# ---------------------------------------------------------------------------


class AxiomCheck:
    __slots__ = ("name", "checked", "witness", "detail")

    def __init__(self, name: str):
        self.name = name
        self.checked = 0
        self.witness: Optional[tuple] = None
        self.detail = ""

    @property
    def passed(self) -> bool:
        return self.witness is None

    def record(self, kernel: Kernel, ok: bool, witness: tuple, detail: str) -> None:
        """Count one check; keep the first failure, its witness in kernel format."""
        self.checked += 1
        if not ok and self.witness is None:
            self.witness = tuple(kernel.fmt(w) for w in witness)
            self.detail = detail

    def format(self) -> str:
        if self.passed:
            return f"PASS {self.name} ({self.checked} checks)"
        return f"FAIL {self.name}: {self.detail} [witness {self.witness!r}]"


class AxiomReport:
    """Checks in the order registered, between a header and a verdict line."""

    __slots__ = ("kernel", "samples", "seed", "checks")
    header = "kernel {kernel}: {samples} samples, seed {seed}"
    passed_verdict = "all axioms hold"
    failed_verdict = "{failures} axiom(s) violated"

    def __init__(self, kernel: str, samples: int, seed: int):
        self.kernel = kernel
        self.samples = samples
        self.seed = seed
        self.checks: dict[str, AxiomCheck] = {}

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    @property
    def failures(self) -> list[AxiomCheck]:
        return [c for c in self.checks.values() if not c.passed]

    def format_lines(self) -> list[str]:
        lines = [self.header.format(kernel=self.kernel, samples=self.samples, seed=self.seed)]
        lines.extend(c.format() for c in self.checks.values())
        failures = len(self.failures)
        verdict = self.failed_verdict if failures else self.passed_verdict
        lines.append(verdict.format(failures=failures))
        return lines


def check_axioms(kernel: Kernel, samples: int = 500, seed: int = 0) -> AxiomReport:
    """Sample the kernel laws and report each with a witness on failure.

    Laws whose hypotheses a sampled tuple fails to meet (G-definedness,
    strictness side conditions) are skipped for that tuple, so per-law check
    counts differ from the sample count.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    k = kernel
    bot, top = k.bottom, k.top
    report = AxiomReport(kernel=k.name, samples=samples, seed=seed)

    def g_try(x, y):
        return k._g(x, y) if k._g_defined(x, y) else None

    # Register every law up front so the report lists them in a fixed order.
    law = report.checks
    for name in (
        "F-symmetry", "F-associativity", "G-symmetry", "G-associativity",
        "F-over-G-distributivity", "F-monotonicity", "G-monotonicity",
        "S-antitone", "G-bottom-unit", "F-bottom-absorbing", "F-top-unit",
        "S-involution", "S-bottom-is-top", "F-below-min", "G-above-max",
    ):
        law[name] = AxiomCheck(name)

    for _ in range(samples):
        x = k.sample(rng)
        y = k.sample(rng)
        z = k.sample(rng)
        k._require(x, y, z)

        # Each expression is evaluated once per triple.  G(u, v) is defined
        # exactly when u <= S(v) (``Kernel._g_defined``, which no kernel
        # overrides), so where v is x, y or z that test reads the stored S(v).
        sx, sy, sz = k._s(x), k._s(y), k._s(z)
        fxy, fyz = k._f(x, y), k._f(y, z)
        fxz = None  # F(x,z), computed on first use
        gxy = k._g(x, y) if k.leq(x, sy) else None
        gyx = k._g(y, x) if k.leq(y, sx) else None
        gyz = k._g(y, z) if k.leq(y, sz) else None

        law["F-symmetry"].record(k, k.eq(fxy, k._f(y, x)), (x, y), "F(x,y) != F(y,x)")
        law["F-associativity"].record(
            k,
            k.eq(k._f(fxy, z), k._f(x, fyz)),
            (x, y, z),
            "F(F(x,y),z) != F(x,F(y,z))",
        )

        if gxy is not None or gyx is not None:
            law["G-symmetry"].record(
                k,
                gxy is not None and gyx is not None and k.eq(gxy, gyx),
                (x, y),
                "G(x,y) and G(y,x) differ or one side is undefined",
            )

        left = k._g(gxy, z) if gxy is not None and k.leq(gxy, sz) else None
        right = g_try(x, gyz) if gyz is not None else None
        if left is not None or right is not None:
            law["G-associativity"].record(
                k,
                left is not None and right is not None and k.eq(left, right),
                (x, y, z),
                "G(G(x,y),z) and G(x,G(y,z)) differ or one side is undefined",
            )

        if gxy is not None:
            fxz = k._f(x, z)
            dist = g_try(fxz, fyz)
            law["F-over-G-distributivity"].record(
                k,
                dist is not None and k.eq(k._f(gxy, z), dist),
                (x, y, z),
                "F(G(x,y),z) != G(F(x,z),F(y,z))",
            )
            law["G-above-max"].record(
                k,
                k.leq(x, gxy) and k.leq(y, gxy),
                (x, y),
                "G(x,y) below an argument",
            )

        law["F-below-min"].record(
            k,
            k.leq(fxy, x) and k.leq(fxy, y),
            (x, y),
            "F(x,y) above an argument",
        )

        if k.lt(x, y):
            if not k.eq(z, bot):
                if fxz is None:
                    fxz = k._f(x, z)
                law["F-monotonicity"].record(
                    k,
                    k.lt(fxz, fyz) and k.lt(k._f(z, x), k._f(z, y)),
                    (x, y, z),
                    "x < y but F(x,z) !< F(y,z) with z != bottom",
                )
            if gyz is not None and k.leq(x, sz):
                law["G-monotonicity"].record(
                    k,
                    k.lt(k._g(x, z), gyz),
                    (x, y, z),
                    "x < y but G(x,z) !< G(y,z)",
                )
            law["S-antitone"].record(
                k,
                k.lt(sy, sx),
                (x, y),
                "x < y but S(x) !> S(y)",
            )

        law["G-bottom-unit"].record(k, k.eq(k._g(x, bot), x), (x,), "G(x,bottom) != x")
        law["F-bottom-absorbing"].record(k, k.eq(k._f(bot, x), bot), (x,), "F(bottom,x) != bottom")
        law["F-top-unit"].record(k, k.eq(k._f(x, top), x), (x,), "F(x,top) != x")
        ssx = k._s(sx)
        ok = k.eq(ssx, x)
        law["S-involution"].record(
            k, ok, (x,), "" if ok else f"S(S(x)) = {k.fmt(ssx)} != x"
        )

    law["S-bottom-is-top"].record(k, k.eq(k._s(bot), top), (bot,), "S(bottom) != top")
    return report


# ---------------------------------------------------------------------------
# Order diagnostics
# ---------------------------------------------------------------------------


class ArchimedeanResult(NamedTuple):
    found: bool
    n: Optional[int] = None
    reason: Optional[str] = None

    def format(self) -> str:
        return f"found({self.n})" if self.found else f"not_found ({self.reason})"


def archimedean_check(kernel: Kernel, e: Value, n_max: int) -> ArchimedeanResult:
    """Smallest N <= n_max with N.e > S(e), where N.e iterates G((n-1).e, e).

    The predicate "N.e > S(e)" is monotone in N because G strictly increases,
    so the largest multiple m.e not above S(e) is found bit by bit, from the
    highest bit of n_max down: with m.e in hand, the bit 2^i is kept when
    m + 2^i <= n_max and G(m.e, (2^i).e) is defined and not above S(e).  Each
    probe costs one G; the summands (2^i).e are built by doubling.  Multiples
    assembled this way agree with the one-at-a-time iteration whenever G is
    symmetric and associative where defined.  A sum that leaves G's domain
    implies the threshold was already crossed, and is treated as "exceeded".
    The answer is m + 1, or "not found" when m = n_max.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    k = kernel
    k._require(e)
    if k.eq(e, k.bottom):
        raise ValueError("e must be nonzero")
    s = k._s(e)

    powers = [e]  # powers[i] = (2^i).e, up to the highest bit of n_max or while defined
    while 1 << len(powers) <= n_max:
        p = powers[-1]
        if not k._g_defined(p, p):
            break
        powers.append(k._g(p, p))

    m, acc = 0, None  # acc = m.e, not above S(e); None stands for 0.e
    for i in reversed(range(len(powers))):
        step, p = 1 << i, powers[i]
        if m + step > n_max:
            continue
        if acc is None:
            nxt = p
        elif k._g_defined(acc, p):
            nxt = k._g(acc, p)
        else:
            continue
        if not k.lt(s, nxt):
            m, acc = m + step, nxt
    if m == n_max:
        return ArchimedeanResult(found=False, reason=f"no multiple up to {n_max} exceeds S(e)")
    return ArchimedeanResult(found=True, n=m + 1)


class SeparabilityResult(NamedTuple):
    found: bool
    n: Optional[int] = None
    m: Optional[int] = None

    def format(self) -> str:
        return f"witness({self.n}, {self.m})" if self.found else "not_found"


def separability_check(
    kernel: Kernel, x: Value, y: Value, c: Value, bound: int
) -> SeparabilityResult:
    """Lexicographically smallest (n, m), both <= bound, with x^n < c^m < y^n.

    Powers are F-fold products.  Because c^m strictly decreases in m and y^n
    in n, the least workable m for each n only moves up, so a single forward
    sweep of the m pointer suffices; when even m = bound cannot get below y^n
    no later n can succeed and the search stops early.
    """
    k = kernel
    for name, v in (("x", x), ("y", y), ("c", c)):
        k._require(v)
        if not (k.lt(k.bottom, v) and k.lt(v, k.top)):
            raise ValueError(f"{name} must lie strictly between bottom and top")
    if not k.lt(x, y):
        raise ValueError("need x < y")

    c_powers = [c]

    def c_power(m: int) -> Value:
        while len(c_powers) < m:
            c_powers.append(k._f(c_powers[-1], c))
        return c_powers[m - 1]

    x_pow, y_pow = x, y
    m = 1
    for n in range(1, bound + 1):
        if n > 1:
            x_pow = k._f(x_pow, x)
            y_pow = k._f(y_pow, y)
        while m <= bound and not k.lt(c_power(m), y_pow):
            m += 1
        if m > bound:
            return SeparabilityResult(found=False)
        if k.lt(x_pow, c_power(m)):
            return SeparabilityResult(found=True, n=n, m=m)
    return SeparabilityResult(found=False)
