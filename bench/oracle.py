"""Reference answers that do not come from the code under test.

Everything here uses plain ``int`` and ``fractions.Fraction`` on the raw
generated inputs:

* signs of rational functions near ``eps = 0+`` by exact evaluation at a
  point below a Cauchy root bound;
* values of field results by evaluation at a fixed rational point;
* Dempster combination, belief/plausibility and the credal operations for
  bodies and credal sets whose numbers are all plain rationals, printed in
  the documented scenario output format.

Scenario items whose numbers involve ``eps`` get a structural reference: the
outcome class (a result, total conflict, an impossible event, incompatible
credal sets) depends only on which masses and probabilities are nonzero, so
it is computed on positive placeholder numbers with the same support.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

T0 = Fraction(1, 7919)  # evaluation point: no raw denominator can vanish here
VERDICT = {-1: "LT", 0: "EQ", 1: "GT"}


# -- polynomials over Z and Q, ascending coefficients -------------------------


def pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def psub(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]


def peval(cs, t):
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * t + c
    return acc


def sign_near_zero(cs) -> int:
    """Sign of the polynomial on a punctured right neighbourhood of 0.

    Strip the power of eps dividing it; every positive root r of the rest q
    has 1/r below the Cauchy bound 1 + max|q_i / q_0| of the reversed
    polynomial, so the sign is constant on (0, 1/(1 + M)) and one exact
    evaluation at half that point decides it.
    """
    q = list(cs)
    while q and q[-1] == 0:
        q.pop()
    while q and q[0] == 0:
        q.pop(0)
    if not q:
        return 0
    m = max((Fraction(abs(c), abs(q[0])) for c in q[1:]), default=Fraction(0))
    v = peval(q, 1 / (2 * (1 + m)))
    return (v > 0) - (v < 0)


def compare_raw(a, b) -> int:
    """Sign of a - b for raw (numerator, denominator) coefficient pairs."""
    (na, da), (nb, db) = a, b
    diff = psub(pmul(na, db), pmul(nb, da))
    return sign_near_zero(pmul(diff, pmul(da, db)))


def raw_at(v, t=T0) -> Fraction:
    return peval(v[0], t) / peval(v[1], t)


def value_at(x, t=T0) -> Fraction:
    """Exact value of a field element at t, read from its coefficients."""
    return peval(x.num.coeffs, t) / peval(x.den.coeffs, t)


def canonical_problem(x):
    """None when x meets the documented canonical-form invariants."""
    cs = list(x.num.coeffs) + list(x.den.coeffs)
    if any(Fraction(c).denominator != 1 for c in cs):
        return "non-integer coefficient"
    g = 0
    for c in cs:
        g = gcd(g, int(c))
    if g != 1:
        return f"content {g} != 1"
    low = next((c for c in x.den.coeffs if c != 0), 0)
    if low <= 0:
        return "denominator's lowest coefficient is not positive"
    return None


FIELD_FORMULAS = {
    "assoc_add": lambda a, b, c: a + b + c,
    "assoc_mul": lambda a, b, c: a * b * c,
    "comm_add": lambda a, b, c: a + b,
    "comm_mul": lambda a, b, c: a * b,
    "distrib": lambda a, b, c: a * (b + c),
    "inverse": lambda a, b, c: Fraction(1),
    "negation": lambda a, b, c: Fraction(0),
}


def eps_value_at(v, t=T0) -> Fraction:
    """A generated p0 + p1*eps + p2*eps^2 (as (num, den) pairs) at t."""
    return sum((Fraction(n, d) * t**i for i, (n, d) in enumerate(v)), Fraction(0))


TWO_PATH_FORMULAS = {
    "assoc_F": lambda x, y, z: x * y * z,
    "comm_F": lambda x, y: x * y,
    "comm_G": lambda x, y: x + y,
    "assoc_G": lambda x, y, z: x + y + z,
    "distrib": lambda x, y, z: (x + y) * z,
}


def two_path_undefined(law, values) -> bool:
    """G laws leave G's domain exactly when the first two standard parts sum
    above 1 (generated standard parts never sum to exactly 1)."""
    if law not in ("comm_G", "assoc_G", "distrib"):
        return False
    return Fraction(*values[0][0]) + Fraction(*values[1][0]) > 1


def archimedean_expected(e, n_max):
    """Smallest N with N.e > 1 - e, i.e. (N+1).e > 1, for e = p + d*eps."""
    p, d = Fraction(*e[0]), Fraction(*e[1])
    if p == 0:
        return None
    r = 1 / p
    if r.denominator == 1:
        n1 = int(r) if d > 0 else int(r) + 1
    else:
        n1 = -(-r.numerator // r.denominator)
    n = n1 - 1
    return n if n <= n_max else None


def separability_expected(x, y, c, bound):
    """Lexicographically smallest (n, m) with x^n < c^m < y^n, by brute force."""
    for n in range(1, bound + 1):
        for m in range(1, bound + 1):
            if x**n < c**m < y**n:
                return n, m
    return None


def broken_involution_fails(w: str) -> bool:
    x = Fraction(w)
    s = lambda v: (1 - v) ** 2
    return s(s(x)) != x


# -- scenario reference --------------------------------------------------------


class RefError(Exception):
    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind

    def line(self) -> str:
        return f"{self.kind}: {self}"


def _q(text: str):
    """The plain rational a number string denotes, or None when it has eps."""
    return None if "eps" in text else Fraction(text)


class RefScenario:
    """A constant-number scenario document in plain Fractions.

    With ``placeholder`` set, every nonzero number is replaced by a positive
    placeholder with the same support, which keeps the outcome class of every
    query and is valid for documents whose numbers involve eps.
    """

    def __init__(self, doc: dict, placeholder: bool = False):
        self.atoms = list(doc["frame"])
        # bodies and credal sets with eps-terms are left out unless placeholders
        # stand in for their numbers
        self.bodies = {}
        for b in doc.get("bodies", []):
            masses = {self.mask(e["set"]): 1 if placeholder else _q(e["mass"])
                      for e in b["masses"]}
            if placeholder:
                masses = {m: Fraction(1, len(masses)) for m in masses}
            if None not in masses.values():
                self.bodies[b["name"]] = masses
        self.credals = {}
        for c in doc.get("credals", []):
            dists = []
            for d in c["dists"]:
                probs = [d.get(a, "0") for a in self.atoms]
                if placeholder:
                    support = [p != "0" for p in probs]
                    k = sum(support)
                    dists.append([Fraction(1, k) if s else Fraction(0) for s in support])
                else:
                    dists.append([_q(p) for p in probs])
            if all(None not in d for d in dists):
                self.credals[c["name"]] = dists

    def mask(self, names) -> int:
        m = 0
        for name in names:
            m |= 1 << self.atoms.index(name)
        return m

    def fmt_mask(self, mask: int) -> str:
        return "{" + ",".join(a for i, a in enumerate(self.atoms) if mask >> i & 1) + "}"

    def fmt_body(self, masses) -> str:
        return "[" + "; ".join(f"{self.fmt_mask(m)}: {v}" for m, v in sorted(masses.items())) + "]"

    @staticmethod
    def fmt_dist(atoms, probs) -> str:
        return "{" + ", ".join(f"{a}: {p}" for a, p in zip(atoms, probs)) + "}"

    @staticmethod
    def fmt_vec(vec) -> str:
        return "(" + ", ".join(str(v) for v in vec) + ")"

    def members(self, head, dists, atoms=None):
        atoms = atoms or self.atoms
        return [f"{head}: {len(dists)} members"] + [
            f"  member {self.fmt_dist(atoms, d)}" for d in dists
        ]

    # -- operations -------------------------------------------------------------

    @staticmethod
    def dempster(m1, m2):
        raw, conflict = {}, Fraction(0)
        for a, ma in sorted(m1.items()):
            for b, mb in sorted(m2.items()):
                if a & b:
                    raw[a & b] = raw.get(a & b, 0) + ma * mb
                else:
                    conflict += ma * mb
        if conflict == 1:
            raise RefError("TotalConflictError", "total conflict")
        return {m: w / (1 - conflict) for m, w in raw.items()}

    def mass_to_credal(self, masses):
        focal = sorted(masses.items())
        n = len(self.atoms)
        seen = {}

        def build(i, acc):
            if i == len(focal):
                seen.setdefault(tuple(acc), None)
                return
            mask, mass = focal[i]
            for atom in range(n):
                if mask >> atom & 1:
                    nxt = list(acc)
                    nxt[atom] += mass
                    build(i + 1, nxt)

        build(0, [Fraction(0)] * n)
        return [list(d) for d in seen]

    @staticmethod
    def laplace(c1, c2):
        out = []
        for d1 in c1:
            for d2 in c2:
                w = [p * q for p, q in zip(d1, d2)]
                total = sum(w)
                if total:
                    out.append([x / total for x in w])
        if not out:
            raise RefError("IncompatibleCredalError", "incompatible credal sets")
        return out

    def event_probs(self, cname, event):
        idx = [self.atoms.index(a) for a in event]
        return [sum((d[i] for i in set(idx)), Fraction(0)) for d in self.credals[cname]]

    def query(self, q) -> list[str]:
        """Output lines of one query, or its expected error as a single line."""
        try:
            return self._query(q)
        except RefError as exc:
            return [exc.line()]

    def _query(self, q) -> list[str]:
        op = q["op"]
        ev = lambda key: "{" + ",".join(q[key]) + "}"
        if op == "dempster":
            acc = self.bodies[q["bodies"][0]]
            for name in q["bodies"][1:]:
                acc = self.dempster(acc, self.bodies[name])
            return [f"dempster {' (x) '.join(q['bodies'])} = {self.fmt_body(acc)}"]
        if op == "bel-pl":
            e = self.mask(q["event"])
            m = self.bodies[q["body"]]
            bel = sum((v for k, v in m.items() if k & ~e == 0), Fraction(0))
            pl = sum((v for k, v in m.items() if k & e), Fraction(0))
            return [f"bel-pl {q['body']} {ev('event')}: bel={bel} pl={pl}"]
        if op == "robust-combine":
            names = q["bodies"]
            acc = self.mass_to_credal(self.bodies[names[0]])
            for name in names[1:]:
                acc = self.laplace(acc, self.mass_to_credal(self.bodies[name]))
            return self.members(f"robust-combine {' (x) '.join(names)}", acc)
        if op == "mass-to-credal":
            return self.members(f"mass-to-credal {q['body']}",
                                self.mass_to_credal(self.bodies[q["body"]]))
        if op == "laplace":
            names = q["credals"]
            acc = self.credals[names[0]]
            for name in names[1:]:
                acc = self.laplace(acc, self.credals[name])
            return self.members(f"laplace {' (x) '.join(names)}", acc)
        if op == "condition":
            evset = set(q["event"])
            kept = [i for i, a in enumerate(self.atoms) if a in evset]
            survivors = []
            for d in self.credals[q["credal"]]:
                pe = sum((d[i] for i in kept), Fraction(0))
                if pe:
                    survivors.append([d[i] / pe for i in kept])
            if not survivors:
                raise RefError("ImpossibleEventError", "conditioning on impossible event")
            return self.members(f"condition {q['credal']} on {ev('event')}", survivors,
                                [self.atoms[i] for i in kept])
        if op == "envelopes":
            p = self.event_probs(q["credal"], q["event"])
            return [f"envelopes {q['credal']} {ev('event')}: ({min(p)}, {max(p)})"]
        if op == "event-plausibility":
            p = self.event_probs(q["credal"], q["event"])
            return [f"event-plausibility {q['credal']} {ev('event')}: {self.fmt_vec(p)}"]
        if op == "decompose":
            p = self.event_probs(q["credal"], q["event"])
            lo, t = min(p), max(p) - min(p)
            profile = "none" if t == 0 else self.fmt_vec([(x - lo) / t for x in p])
            return [
                f"decompose {q['credal']} {ev('event')}: p={self.fmt_vec(p)}",
                f"  lower={lo} spread={t} profile={profile}",
            ]
        if op == "more-plausible":
            pa = self.event_probs(q["credal"], q["a"])
            pb = self.event_probs(q["credal"], q["b"])
            if pa == pb:
                verdict = "incomparable (equal)"
            elif all(x > y for x, y in zip(pa, pb)):
                verdict = "yes"
            elif all(x < y for x, y in zip(pa, pb)):
                verdict = "no"
            else:
                verdict = "incomparable"
            return [f"more-plausible {q['credal']} {ev('a')} vs {ev('b')}: {verdict}"]
        raise ValueError(f"no reference for op {op!r}")


def order_line(q, raw_pair) -> str:
    verdict = VERDICT[compare_raw(*raw_pair)]
    return f"order {q['left']} vs {q['right']}: {verdict}"


def outcome_class(lines: list[str]) -> str:
    head = lines[0].split(":", 1)[0] if lines else ""
    return head if head.endswith("Error") else "ok"


# The boxer/wrestler/coin comparison (Gelman): Dempster's rule concentrates
# mass on {BC} and {nBnC} equally, while robust combination leaves both
# events vacuous.  These lines are fixed by the example, not by the code.
GELMAN_LINES = (
    "dempster: m1 (x) m2 (x) m3 = [{BC}: 1/2; {nBnC}: 1/2]",
    "event B: dempster envelopes (1/2, 1/2); robust envelopes (0, 1)",
    "event C: dempster envelopes (1/2, 1/2); robust envelopes (0, 1)",
)
