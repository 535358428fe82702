"""Plausibility kernels and property-based verification of their laws.

A kernel packages a totally ordered domain of plausibility values with the
three combination functions: ``F`` (conjunction), ``S`` (complement) and the
partial ``G`` (disjunction of exclusive cases, defined when ``x <= S(y)``).
Three kernels are built in:

* ``rat``  -- rationals in [0, 1]; F is multiplication, G addition, S(x) = 1 - x.
* ``eps``  -- the same formulas over exact eps-field values in [0, 1], where
  the order treats eps as a positive infinitesimal.
* ``bool`` -- the two-valued propositional limit.

Nothing is assumed: :func:`check_axioms` samples the laws and reports each
with a pass/fail status and, on failure, a concrete reproducing witness.
:func:`archimedean_check` and :func:`separability_check` probe the two
order-theoretic properties whose failure signals infinitesimal values.

Values are checked once, where they enter.  The public ``F``, ``G``, ``S``
and ``g_defined`` raise :class:`DomainError` for an argument outside the
domain.  The private ``_f``, ``_s``, ``_g``, ``_g_defined`` and ``_g_sum``
(``G`` that raises :class:`UndefinedSumError`) skip that check: the domain is
closed under F, S and, where defined, G, so their results need no second
look.  The checker and the probes check their inputs (each sampled triple,
``e``, ``x``/``y``/``c``) and run on the private forms from there.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional

from .epsnum import EPS, ONE, ZERO, EpsRational, const, exact_str

__all__ = [
    "DomainError",
    "UndefinedSumError",
    "TrivialKernelError",
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


class TrivialKernelError(ValueError):
    """The kernel has no element strictly between bottom and top."""


class Kernel(ABC):
    """A totally ordered plausibility domain with F, G and S."""

    name: str = "?"

    # -- domain --------------------------------------------------------------

    @property
    @abstractmethod
    def bottom(self) -> Value: ...

    @property
    @abstractmethod
    def top(self) -> Value: ...

    @abstractmethod
    def contains(self, x: Value) -> bool: ...

    def coerce(self, x: Value) -> Value:
        """Best-effort conversion into the domain; raises DomainError."""
        if not self.contains(x):
            raise DomainError(f"{x!r} is not a {self.name}-kernel value")
        return x

    def nontrivial_element(self) -> Value:
        """A designated element strictly between bottom and top."""
        raise TrivialKernelError("trivial kernel")

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

    def _require(self, *values: Value) -> None:
        for v in values:
            if not self.contains(v):
                raise DomainError(f"{v!r} is not a {self.name}-kernel value")

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
                f"undefined sum: {self.fmt(x)} exceeds S({self.fmt(y)})"
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

    @property
    def bottom(self) -> Fraction:
        return Fraction(0)

    @property
    def top(self) -> Fraction:
        return Fraction(1)

    def contains(self, x: Value) -> bool:
        return isinstance(x, (Fraction, int)) and not isinstance(x, bool) and 0 <= x <= 1

    def coerce(self, x: Value) -> Fraction:
        if isinstance(x, EpsRational):
            if not x.is_constant():
                raise DomainError(f"{x} is not a plain rational")
            x = x.standard_part()
        try:
            x = Fraction(x)
        except (TypeError, ValueError) as exc:
            raise DomainError(str(exc)) from None
        return super().coerce(x)

    def nontrivial_element(self) -> Fraction:
        return Fraction(1, 2)

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


class EpsKernel(Kernel):
    """Exact eps-field values in [0, 1] under the probability formulas."""

    name = "eps"

    @property
    def bottom(self) -> EpsRational:
        return ZERO

    @property
    def top(self) -> EpsRational:
        return ONE

    def contains(self, x: Value) -> bool:
        return isinstance(x, EpsRational) and x.sign() >= 0 and x.compare(ONE) <= 0

    def coerce(self, x: Value) -> EpsRational:
        if isinstance(x, (int, Fraction)):
            x = const(x)
        return super().coerce(x)

    def nontrivial_element(self) -> EpsRational:
        # Any interior element generates the same embedding classes; a plain
        # constant keeps unit searches cheap.
        return const(Fraction(1, 2))

    def sample(self, rng: random.Random) -> EpsRational:
        if rng.random() < 0.2:
            return rng.choice(
                [ZERO, ONE, EPS, ONE - EPS, EPS * EPS, const(Fraction(1, 2)) + EPS]
            )
        den = rng.randint(1, 8)
        q0 = const(Fraction(rng.randint(0, den), den))
        q1 = Fraction(rng.randint(-2, 2), rng.randint(1, 4))
        q2 = Fraction(rng.randint(-2, 2), rng.randint(1, 4))
        v = q0 + q1 * EPS + q2 * (EPS * EPS)
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

    @property
    def bottom(self) -> bool:
        return False

    @property
    def top(self) -> bool:
        return True

    def contains(self, x: Value) -> bool:
        return isinstance(x, bool)

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


@dataclass
class AxiomCheck:
    name: str
    checked: int = 0
    witness: Optional[tuple] = None
    detail: str = ""

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


@dataclass
class AxiomReport:
    kernel: str
    samples: int
    seed: int
    checks: dict[str, AxiomCheck] = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    @property
    def failures(self) -> list[AxiomCheck]:
        return [c for c in self.checks.values() if not c.passed]

    def format_lines(self) -> list[str]:
        lines = [
            f"kernel {self.kernel}: {self.samples} samples, seed {self.seed}"
        ]
        lines.extend(c.format() for c in self.checks.values())
        verdict = "all axioms hold" if self.all_passed else (
            f"{len(self.failures)} axiom(s) violated"
        )
        lines.append(verdict)
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

        fxy = k._f(x, y)
        law["F-symmetry"].record(k, k.eq(fxy, k._f(y, x)), (x, y), "F(x,y) != F(y,x)")
        law["F-associativity"].record(
            k,
            k.eq(k._f(fxy, z), k._f(x, k._f(y, z))),
            (x, y, z),
            "F(F(x,y),z) != F(x,F(y,z))",
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
            fxz, fyz = k._f(x, z), k._f(y, z)
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
                law["F-monotonicity"].record(
                    k,
                    k.lt(k._f(x, z), k._f(y, z)) and k.lt(k._f(z, x), k._f(z, y)),
                    (x, y, z),
                    "x < y but F(x,z) !< F(y,z) with z != bottom",
                )
            if g_try(y, z) is not None and g_try(x, z) is not None:
                law["G-monotonicity"].record(
                    k,
                    k.lt(k._g(x, z), k._g(y, z)),
                    (x, y, z),
                    "x < y but G(x,z) !< G(y,z)",
                )
            law["S-antitone"].record(
                k,
                k.lt(k._s(y), k._s(x)),
                (x, y),
                "x < y but S(x) !> S(y)",
            )

        law["G-bottom-unit"].record(k, k.eq(k._g(x, bot), x), (x,), "G(x,bottom) != x")
        law["F-bottom-absorbing"].record(k, k.eq(k._f(bot, x), bot), (x,), "F(bottom,x) != bottom")
        law["F-top-unit"].record(k, k.eq(k._f(x, top), x), (x,), "F(x,top) != x")
        ssx = k._s(k._s(x))
        ok = k.eq(ssx, x)
        law["S-involution"].record(
            k, ok, (x,), "" if ok else f"S(S(x)) = {k.fmt(ssx)} != x"
        )

    law["S-bottom-is-top"].record(k, k.eq(k._s(bot), top), (bot,), "S(bottom) != top")
    return report


# ---------------------------------------------------------------------------
# Order diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArchimedeanResult:
    found: bool
    n: Optional[int] = None
    reason: Optional[str] = None

    def format(self) -> str:
        return f"found({self.n})" if self.found else f"not_found ({self.reason})"


def archimedean_check(kernel: Kernel, e: Value, n_max: int) -> ArchimedeanResult:
    """Smallest N <= n_max with N.e > S(e), where N.e iterates G((n-1).e, e).

    The predicate "N.e > S(e)" is monotone in N because G strictly increases,
    so the smallest N is located with exponential doubling plus bisection;
    multiples are assembled from doubled summands, which agrees with the
    one-at-a-time iteration whenever G is symmetric and associative where
    defined.  An n-fold sum that leaves G's domain implies the threshold was
    already crossed at some smaller n, and is treated as "exceeded".
    """
    k = kernel
    if k.eq(e, k.bottom):
        raise ValueError("e must be nonzero")
    k._require(e)
    s = k._s(e)

    powers: list[Optional[Value]] = [e]  # powers[i] = (2^i).e, None once undefined

    def power(i: int) -> Optional[Value]:
        while len(powers) <= i:
            p = powers[-1]
            if p is None or not k._g_defined(p, p):
                powers.append(None)
            else:
                powers.append(k._g(p, p))
        return powers[i]

    def multiple(n: int) -> Optional[Value]:
        acc = None
        bit = 0
        while n:
            if n & 1:
                p = power(bit)
                if p is None:
                    return None
                if acc is None:
                    acc = p
                elif k._g_defined(acc, p):
                    acc = k._g(acc, p)
                else:
                    return None
            n >>= 1
            bit += 1
        return acc

    def exceeded(n: int) -> bool:
        v = multiple(n)
        return True if v is None else k.lt(s, v)

    if exceeded(1):
        return ArchimedeanResult(found=True, n=1)
    if n_max < 2 or not exceeded(n_max):
        return ArchimedeanResult(found=False, reason=f"no multiple up to {n_max} exceeds S(e)")

    lo = 1  # exceeded(lo) is False
    hi = 2
    while hi < n_max and not exceeded(hi):
        lo, hi = hi, min(hi * 2, n_max)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if exceeded(mid):
            hi = mid
        else:
            lo = mid
    return ArchimedeanResult(found=True, n=hi)


@dataclass(frozen=True)
class SeparabilityResult:
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
