"""Seeded generation of the raw benchmark inputs.

Everything here is plain data built with the standard library only:
coefficient lists, kernel sample seeds, eps-expression strings and scenario
documents.  The same (workload, seed, scale) always gives the same inputs.
No plauscalc value is built here: turning these inputs into field values is
part of each timed item.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

DEFAULT_SEED = 0

# Generator parameters, one dict per workload.  ``scale`` multiplies the item
# counts (the self-test runs at a tiny scale); everything else is fixed.
PARAMS = {
    "field-arith": {
        "rungs": (0, 1, 2, 3, 4, 6, 8, 10, 12),  # numerator degree; denominator degree is half
        "pool_per_rung": 8,
        "shared_dens_per_rung": 2,  # taken by the even pool entries
        "coeff_bound": 100,
        "kinds": ("assoc_add", "assoc_mul", "comm_add", "comm_mul", "distrib",
                  "inverse", "negation", "compare"),
        "items_per_kind_rung": 12,  # a quarter of the compare pairs are equal values
    },
    "verify": {
        # kind -> (items, samples per call); counts give each kind a comparable
        # share of the pass time.
        "axioms": (36, 5),
        "embed": (20, 2),
        "two_path": (60, None),  # per law, over all five laws
        "two_path_undefined_share": 0.1,
        "archimedean": (120, None),
        "archimedean_n_max": 10**6,
        "separability": (120, None),
        "separability_bound": 12,
        "broken": (90, 30),
    },
    "evidence": {
        # Each document's shape (frame size, focal-set counts, which numbers
        # carry eps, event sizes, the query plan) is fixed by its index, so
        # seeds differ only in masks, masses, probabilities, events and
        # coefficients.
        "docs": 24,
        "frame_sizes": (4, 5, 6, 7, 8, 9, 10),
        "heavy_focal": 16,  # m0 and m1: their Dempster pair forms the tail
        "focal_ladder": (1, 2, 3, 5, 8, 12, 20, 30, 40),  # m2 and m3
        "small_shapes": ((2,), (2, 2), (3, 2), (1, 3), (2, 2, 2), (4,), (3,), (2, 3, 1)),
        "light_max_pairs": 200,  # cap on the focal pairs of the second chain
        "infinitesimal_every": 4,  # one body or credal set in four carries eps
        "credals": 3,
        "max_dists": 4,
        "cli_docs": 6,
    },
}

WORKLOADS = tuple(PARAMS)


def _scaled(n: int, scale: float) -> int:
    return max(1, round(n * scale))


def _nonzero(rng: random.Random, bound: int) -> int:
    c = 0
    while c == 0:
        c = rng.randint(-bound, bound)
    return c


def _poly(rng: random.Random, degree: int, bound: int) -> list[int]:
    """Integer coefficients, ascending, nonzero lead and nonzero constant."""
    cs = [rng.randint(-bound, bound) for _ in range(degree + 1)]
    cs[0] = _nonzero(rng, bound)
    cs[-1] = _nonzero(rng, bound)
    return cs


def _primitive_positive(cs: list[int]) -> list[int]:
    g = 0
    for c in cs:
        g = gcd(g, c)
    sign = 1 if cs[0] > 0 else -1
    return [sign * c // g for c in cs]


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def gen_field_arith(seed: int, scale: float = 1.0) -> list[tuple]:
    p = PARAMS["field-arith"]
    rng = random.Random(f"field-arith/{seed}")
    bound = p["coeff_bound"]
    items = []
    for rung in p["rungs"]:
        dd = rung // 2
        shared = [_primitive_positive(_poly(rng, dd, bound)) for _ in range(p["shared_dens_per_rung"])]
        pool = []
        for k in range(p["pool_per_rung"]):
            den = shared[k // 2 % len(shared)] if k % 2 == 0 else _poly(rng, dd, bound)
            pool.append((_poly(rng, rung, bound), den))
        size = len(pool)
        for kind in p["kinds"]:
            for j in range(_scaled(p["items_per_kind_rung"], scale)):
                # fixed operand positions: for even j, a and b share a denominator
                a, b, c = pool[j % size], pool[(j + 4) % size], pool[(j + 1) % size]
                if kind == "compare" and j % 4 == 3:
                    f = _poly(rng, 1, 9)
                    b = (_mul(a[0], f), _mul(a[1], f))
                items.append((kind, rung, a, b, c))
    rng.shuffle(items)
    return items


def _eps_value(rng: random.Random, lo: Fraction, hi: Fraction) -> tuple:
    """(p0, p1, p2) with p0 strictly inside (lo, hi): p0 + p1*eps + p2*eps^2."""
    while True:
        den = rng.randint(2, 12)
        p0 = Fraction(rng.randint(1, den - 1), den)
        if lo < p0 < hi:
            break
    p1 = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    p2 = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    return tuple((q.numerator, q.denominator) for q in (p0, p1, p2))


_LAW_ARITY = {"assoc_F": 3, "comm_F": 2, "comm_G": 2, "assoc_G": 3, "distrib": 3}
_G_LAWS = ("comm_G", "assoc_G", "distrib")


def gen_verify(seed: int, scale: float = 1.0) -> list[tuple]:
    p = PARAMS["verify"]
    rng = random.Random(f"verify/{seed}")
    items = []
    n, samples = p["axioms"]
    items += [("axioms", samples, rng.randrange(10**6)) for _ in range(_scaled(n, scale))]
    n, samples = p["embed"]
    items += [("embed", samples, rng.randrange(10**6)) for _ in range(_scaled(n, scale))]
    n, samples = p["broken"]
    items += [("broken", samples, rng.randrange(10**6)) for _ in range(_scaled(n, scale))]
    for law, arity in _LAW_ARITY.items():
        for _ in range(_scaled(p["two_path"][0], scale)):
            undefined = law in _G_LAWS and rng.random() < p["two_path_undefined_share"]
            if law in _G_LAWS and not undefined:
                # standard parts summing below 1 keep every sum defined
                hi = Fraction(1, arity + 1)
                values = [_eps_value(rng, Fraction(0), hi) for _ in range(arity)]
            elif undefined:
                # first two standard parts above 1/2: their sum leaves G's domain
                values = [_eps_value(rng, Fraction(1, 2), Fraction(1)) for _ in range(arity)]
            else:
                values = [_eps_value(rng, Fraction(0), Fraction(1)) for _ in range(arity)]
            items.append(("two_path", law, values, undefined))
    for i in range(_scaled(p["archimedean"][0], scale)):
        if i % 5 == 0:
            e = ((0, 1), (rng.randint(1, 5), 1))  # infinitesimal: never exceeds S(e)
        else:
            den = rng.randint(2, 400)
            d = rng.choice((-1, 0, 1))
            e = ((1, den) if i % 2 else (rng.randint(1, den - 1), den), (d, rng.randint(1, 3)))
        items.append(("archimedean", e, p["archimedean_n_max"]))
    bound = p["separability_bound"]
    for i in range(_scaled(p["separability"][0], scale)):
        if i % 4 == 0:
            # x = k eps^2, y = eps: no constant power fits between
            triple = ("infinitesimal", rng.randint(1, 4), (1, rng.randint(2, 9)))
        else:
            qs = []
            while len(qs) < 2:  # x < y needs two distinct values
                qs = sorted({Fraction(rng.randint(1, 15), 16) for _ in range(8)})
            x, y = qs[0], qs[-1]
            c = rng.choice(qs)
            triple = ("constant", (x.numerator, x.denominator), (y.numerator, y.denominator),
                      (c.numerator, c.denominator))
        items.append(("separability", triple, bound))
    rng.shuffle(items)
    return items


def _poly_expr(cs: list[int]) -> str:
    terms = []
    for i, c in enumerate(cs):
        if c == 0:
            continue
        terms.append(str(c) if i == 0 else f"{c}*eps" if i == 1 else f"{c}*eps^{i}")
    return " + ".join(terms) or "0"


def _expr(num: list[int], den: list[int]) -> str:
    return f"({_poly_expr(num)})/({_poly_expr(den)})"


def _masses(rng: random.Random, masks: list[int], infinitesimal: bool) -> list[str]:
    weights = [rng.randint(1, 9) for _ in masks]
    if infinitesimal and len(masks) > 1:
        # the last focal set gets a purely infinitesimal mass, taken from the first
        total = sum(weights[:-1])
        term = f"{rng.randint(1, 3)}*eps" + ("^2" if rng.random() < 0.5 else "")
        out = [str(Fraction(w, total)) for w in weights[:-1]] + [term]
        out[0] = f"{out[0]} - {term}"
        return out
    total = sum(weights)
    return [str(Fraction(w, total)) for w in weights]


def _body(rng, atoms, name, masks, infinitesimal):
    return {
        "name": name,
        "masses": [
            {"set": [a for i, a in enumerate(atoms) if m >> i & 1], "mass": mass}
            for m, mass in zip(masks, _masses(rng, masks, infinitesimal))
        ],
    }


def _dist(rng, atoms, infinitesimal, zero=()):
    weights = [0 if a in zero or rng.random() < 0.25 else rng.randint(1, 9) for a in atoms]
    if not any(weights):
        weights[len(zero)] = 1
    total = sum(weights)
    out = {a: str(Fraction(w, total)) for a, w in zip(atoms, weights) if w}
    if infinitesimal:
        up = rng.choice([a for a in atoms if a not in zero])
        down = rng.choice([a for a in atoms if a in out and a != up] or [up])
        if up != down:
            c = rng.randint(1, 3)
            out[down] = f"{out[down]} - {c}*eps"
            out[up] = f"{out[up]} + {c}*eps" if up in out else f"{c}*eps"
    return out


def _event(rng, atoms, size: int) -> list[str]:
    """A random event of 1 to n-1 atoms; its size is fixed by the caller."""
    picked = set(rng.sample(atoms, 1 + size % (len(atoms) - 1)))
    return [a for a in atoms if a in picked]


def _masks_with_sizes(rng, n, sizes) -> list[int]:
    masks: set[int] = set()
    for k in sizes:
        while True:
            m = sum(1 << i for i in rng.sample(range(n), k))
            if m not in masks:
                masks.add(m)
                break
    return sorted(masks)


def gen_doc(rng: random.Random, i: int, p: dict, cli: bool = False) -> dict:
    """Scenario document number i plus its query list.

    ``constant`` names the bodies and credal sets whose every number is a
    plain rational, so the plain-Fraction reference applies to them;
    ``order`` holds the coefficient lists behind the order query.
    """
    sizes, ladder, shapes = p["frame_sizes"], p["focal_ladder"], p["small_shapes"]
    n = 4 + i % 3 if cli else sizes[i % len(sizes)]
    atoms = [f"a{j}" for j in range(n)]
    every = p["infinitesimal_every"]
    bodies, constant, counts = [], set(), []
    for j in range(0 if cli else 4):
        k = p["heavy_focal"] if j < 2 else ladder[(i + 2 * j) % len(ladder)]
        k = min(k, (1 << n) - 1)
        inf = k > 1 and (i + j) % every == 0
        bodies.append(_body(rng, atoms, f"m{j}", rng.sample(range(1, 1 << n), k), inf))
        counts.append(k)
        if not inf:
            constant.add(f"m{j}")
    for j in range(3):
        shape = shapes[(i + j) % len(shapes)]
        inf = not cli and len(shape) > 1 and (i + j + 2) % every == 0
        bodies.append(_body(rng, atoms, f"s{j}", _masks_with_sizes(rng, n, shape), inf))
        if not inf:
            constant.add(f"s{j}")
    zero = atoms[:2]
    if not cli:
        # a pair whose focal sets never meet: Dempster meets total conflict
        half = n // 2
        for name, lo, hi in (("xl", 0, half), ("xr", half, n)):
            masks = [1 << a for a in rng.sample(range(lo, hi), 2)]
            bodies.append(_body(rng, atoms, name, masks, False))
            constant.add(name)
    credals = []
    for j in range(p["credals"]):
        inf = not cli and (i + j + 1) % every == 0
        dists = [_dist(rng, atoms, inf) for _ in range(1 + (i + j) % p["max_dists"])]
        credals.append({"name": f"c{j}", "dists": dists})
        if not inf:
            constant.add(f"c{j}")
    if not cli:
        credals.append({"name": "cz", "dists": [_dist(rng, atoms, False, zero) for _ in range(2)]})
        constant.add("cz")

    c = [f"c{(i + j) % p['credals']}" for j in range(3)]
    queries = []
    if not cli:
        # one heavy pair, and one light chain of the ladder-sized bodies
        light = ["m2", "m3"] if counts[2] * counts[3] <= p["light_max_pairs"] else (
            ["m2" if counts[2] >= counts[3] else "m3", "s0"])
        queries.append({"op": "dempster", "bodies": ["m0", "m1"]})
        queries.append({"op": "dempster", "bodies": light})
        queries.append({"op": "dempster", "bodies": ["xl", "xr"]})
        queries.append({"op": "bel-pl", "body": "m1", "event": _event(rng, atoms, i + 1)})
        queries.append({"op": "condition", "credal": "cz", "event": zero})
    queries += [
        {"op": "robust-combine", "bodies": ["s0", "s1"]},
        {"op": "bel-pl", "body": "s0", "event": _event(rng, atoms, i + 2)},
        {"op": "mass-to-credal", "body": "s2"},
        {"op": "laplace", "credals": [c[0], c[1]]},
        {"op": "condition", "credal": c[0], "event": _event(rng, atoms, i + 3)},
        {"op": "envelopes", "credal": c[1], "event": _event(rng, atoms, i + 4)},
        {"op": "decompose", "credal": c[2], "event": _event(rng, atoms, i + 5)},
        {"op": "event-plausibility", "credal": c[0], "event": _event(rng, atoms, i + 6)},
        {"op": "more-plausible", "credal": c[1], "a": _event(rng, atoms, i + 7), "b": _event(rng, atoms, i + 8)},
    ]
    a = (_poly(rng, i % 4, 20), _poly(rng, i % 3, 20))
    b = (_mul(a[0], [2, 1]), _mul(a[1], [2, 1])) if i % 4 == 0 else (
        _poly(rng, (i + 1) % 4, 20), _poly(rng, (i + 2) % 3, 20))
    queries.append({"op": "order", "left": _expr(*a), "right": _expr(*b)})
    doc = {"frame": atoms, "bodies": bodies, "credals": credals, "queries": queries}
    return {"doc": doc, "constant": sorted(constant), "order": (a, b)}


def gen_evidence(seed: int, scale: float = 1.0) -> dict:
    p = PARAMS["evidence"]
    rng = random.Random(f"evidence/{seed}")
    docs = [gen_doc(rng, i, p) for i in range(_scaled(p["docs"], scale))]
    cli_docs = [gen_doc(rng, i, p, cli=True) for i in range(_scaled(p["cli_docs"], scale))]
    return {"docs": docs, "cli_docs": cli_docs}


GENERATORS = {"field-arith": gen_field_arith, "verify": gen_verify, "evidence": gen_evidence}


def generate(workload: str, seed: int, scale: float = 1.0):
    return GENERATORS[workload](seed, scale)


def digest(raw) -> str:
    """sha256 of the generated inputs, to check that generation repeats."""
    # imported here, outside the set-up time that setup_probe.py measures
    import hashlib
    import json

    return hashlib.sha256(json.dumps(raw, sort_keys=True).encode()).hexdigest()
