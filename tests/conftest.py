"""Shared generators for randomized suites.

Randomized tests use seeded ``random.Random`` instances so every run checks
the identical sample set; hypothesis-based tests manage their own generation.
"""

import math
import random
from fractions import Fraction

import pytest

from plauscalc.epsnum import EpsRational
from plauscalc.kernels import get_kernel


def rand_poly(rng: random.Random, max_deg: int, bound: int = 100, nonzero: bool = False) -> list[Fraction]:
    """Rational coefficients, ascending and trimmed: the input form ``EpsRational`` takes."""
    while True:
        deg = rng.randint(0, max_deg)
        p = [Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(deg + 1)]
        while p and p[-1] == 0:
            p.pop()
        if p or not nonzero:
            return p


def rand_eps_rational(rng: random.Random, max_deg: int = 6, bound: int = 100) -> EpsRational:
    return EpsRational(rand_poly(rng, max_deg, bound), rand_poly(rng, max_deg, bound, nonzero=True))


def rand_primitive(rng: random.Random, deg: int, bound: int = 100) -> list[int]:
    """A primitive integer polynomial of exact degree ``deg``, ascending."""
    cs = [rng.randint(-bound, bound) for _ in range(deg)] + [rng.choice((-1, 1)) * rng.randint(1, bound)]
    g = math.gcd(*cs)
    return [c // g for c in cs]


def planted_factor(rng: random.Random, i: int) -> list[int]:
    """A nonconstant primitive factor: random, eps itself, or eps - r for a large r.

    ``i`` picks the kind in turn; the last kind is eps - (2**32 - 1).
    """
    kind = i % 4
    if kind == 0:
        return rand_primitive(rng, rng.randint(1, 4))
    if kind == 1:
        return [0, 1]
    if kind == 2:
        return [-rng.choice((-1, 1)) * rng.randint(2**20, 2**80), 1]
    return [-(2**32 - 1), 1]


@pytest.fixture
def rat_kernel():
    return get_kernel("rat")


@pytest.fixture
def eps_kernel():
    return get_kernel("eps")


@pytest.fixture
def bool_kernel():
    return get_kernel("bool")
