"""Turn generated inputs into timed items and their correctness checks.

An item is one verdict: a callable that takes only generated inputs, builds
every plausibility value from them, calls the library and returns its output
lines plus a payload for the check.  A check compares an item's first-pass
output with an answer from :mod:`oracle` and returns an error message, or
None when the verdict is correct.  Expected semantic errors (total conflict,
an impossible event, an undefined sum) are outputs like any other.

Library functions are looked up on their modules at call time, so the span
recorder in :mod:`spans` can swap in its wrappers between passes.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import oracle
from oracle import VERDICT


@dataclass
class Item:
    kind: str
    run: Callable[[], tuple]
    check: Callable[[list, object], Optional[str]]


class Lib:
    """The plauscalc modules, resolved once after import."""

    def __init__(self):
        import plauscalc.cli
        import plauscalc.embedding
        import plauscalc.epsnum
        import plauscalc.kernels
        import plauscalc.refinement
        import plauscalc.scenario

        self.epsnum = plauscalc.epsnum
        self.kernels = plauscalc.kernels
        self.embedding = plauscalc.embedding
        self.refinement = plauscalc.refinement
        self.scenario = plauscalc.scenario
        self.cli = plauscalc.cli
        from plauscalc.credal import ImpossibleEventError, IncompatibleCredalError
        from plauscalc.evidence import TotalConflictError
        from plauscalc.refinement import ScenarioUndefinedError

        self.expected_errors = (TotalConflictError, ImpossibleEventError,
                                IncompatibleCredalError, ScenarioUndefinedError)


# -- field-arith ---------------------------------------------------------------


def _field_item(lib: Lib, raw) -> Item:
    kind, rung, a, b, c = raw

    def run():
        E = lib.epsnum.EpsRational
        x, y, z = E(*a), E(*b), E(*c)
        if kind == "compare":
            return [f"compare r{rung}: {VERDICT[x.compare(y)]}"], None
        if kind == "assoc_add":
            left, right = (x + y) + z, x + (y + z)
        elif kind == "assoc_mul":
            left, right = (x * y) * z, x * (y * z)
        elif kind == "comm_add":
            left, right = x + y, y + x
        elif kind == "comm_mul":
            left, right = x * y, y * x
        elif kind == "distrib":
            left, right = x * (y + z), x * y + x * z
        elif kind == "inverse":
            left, right = x * x.reciprocal(), lib.epsnum.ONE
        else:
            left, right = x + (-x), lib.epsnum.ZERO
        verdict = "holds" if left == right else "FAILS"
        return [f"{kind} r{rung}: {verdict} {left}"], left

    def check(lines, left):
        if kind == "compare":
            want = f"compare r{rung}: {VERDICT[oracle.compare_raw(a, b)]}"
            return None if lines == [want] else f"want {want!r}"
        if " holds " not in lines[0]:
            return "identity does not hold"
        problem = oracle.canonical_problem(left)
        if problem:
            return f"result not canonical: {problem}"
        want = oracle.FIELD_FORMULAS[kind](*(oracle.raw_at(v) for v in (a, b, c)))
        if oracle.value_at(left) != want:
            return "result differs from the reference at the evaluation point"
        return None

    return Item(kind, run, check)


# -- verify --------------------------------------------------------------------


def _eps_value(lib: Lib, v):
    return lib.epsnum.EpsRational([Fraction(n, d) for n, d in v])


def _verify_item(lib: Lib, raw) -> Item:
    kind = raw[0]
    k = lambda name: lib.kernels.get_kernel(name)

    if kind in ("axioms", "embed", "broken"):
        _, samples, seed = raw

        def run():
            if kind == "axioms":
                report = lib.kernels.check_axioms(k("eps"), samples, seed)
            elif kind == "embed":
                report = lib.embedding.verify_embedding(k("eps"), samples, seed)
            else:
                report = lib.kernels.check_axioms(k("broken-s"), samples, seed)
            return report.format_lines(), report

        def check(lines, report):
            if kind != "broken":
                return None if report.all_passed else "a law failed on a lawful kernel"
            inv = report.checks["S-involution"]
            if inv.passed or not inv.witness:
                return "broken-s passed S-involution"
            if not oracle.broken_involution_fails(inv.witness[0]):
                return f"witness {inv.witness!r} does not violate S-involution"
            return None

        return Item(kind, run, check)

    if kind == "two_path":
        _, law, values, undefined = raw

        def run():
            vals = [_eps_value(lib, v) for v in values]
            try:
                left, right = lib.refinement.two_path_eval(k("eps"), law, vals)
            except lib.expected_errors as exc:
                return [f"{type(exc).__name__}: {exc}"], None
            agree = "agree" if left == right else "DISAGREE"
            return [f"two_path {law}: left={left} right={right} [{agree}]"], left

        def check(lines, left):
            want_undefined = oracle.two_path_undefined(law, values)
            if want_undefined != undefined:
                return "generator and reference disagree on definedness"
            if want_undefined:
                ok = lines[0].startswith("ScenarioUndefinedError:")
                return None if ok else "sum outside G's domain was not reported"
            if not lines[0].endswith("[agree]"):
                return "derivations disagree"
            want = oracle.TWO_PATH_FORMULAS[law](*(oracle.eps_value_at(v) for v in values))
            return None if oracle.value_at(left) == want else "value differs from the reference"

        return Item(f"two_path.{law}", run, check)

    if kind == "archimedean":
        _, e, n_max = raw

        def run():
            r = lib.kernels.archimedean_check(k("eps"), _eps_value(lib, e), n_max)
            return [f"archimedean {e}: {r.format()}"], r

        def check(lines, r):
            want = oracle.archimedean_expected(e, n_max)
            got = r.n if r.found else None
            return None if got == want else f"want n={want}, got n={got}"

        return Item(kind, run, check)

    _, triple, bound = raw

    def run():
        eps = lib.epsnum.EPS
        if triple[0] == "infinitesimal":
            _, kx, c = triple
            x, y, cc = eps * eps * kx, eps, _eps_value(lib, [c])
        else:
            x, y, cc = (_eps_value(lib, [q]) for q in triple[1:])
        r = lib.kernels.separability_check(k("eps"), x, y, cc, bound)
        return [f"separability {triple}: {r.format()}"], r

    def check(lines, r):
        if triple[0] == "infinitesimal":
            want = None  # a constant power never fits between two infinitesimals
        else:
            x, y, c = (Fraction(*q) for q in triple[1:])
            want = oracle.separability_expected(x, y, c, bound)
        got = (r.n, r.m) if r.found else None
        return None if got == want else f"want {want}, got {got}"

    return Item(kind, run, check)


# -- evidence -------------------------------------------------------------------


def _evidence_items(lib: Lib, raw, out_dir: Path) -> list[Item]:
    parsed: dict[int, object] = {}
    items = []

    def parse_item(i, gdoc):
        doc = gdoc["doc"]

        def run():
            s = lib.scenario.parse_scenario(doc)
            parsed[i] = s
            bodies = " ".join(f"{n}[{len(b.focal)}]" for n, b in s.bodies.items())
            credals = " ".join(f"{n}[{len(c)}]" for n, c in s.credals.items())
            return [f"parse d{i}: bodies {bodies}; credals {credals}"], None

        def check(lines, _):
            ref = oracle.RefScenario(doc, placeholder=True)
            bodies = " ".join(f"{n}[{len(m)}]" for n, m in ref.bodies.items())
            credals = " ".join(f"{n}[{len(c)}]" for n, c in ref.credals.items())
            want = f"parse d{i}: bodies {bodies}; credals {credals}"
            return None if lines == [want] else f"want {want!r}"

        return Item("parse", run, check)

    def query_item(i, gdoc, q):
        constant = set(gdoc["constant"])
        names = [q[k] for k in ("body", "credal") if k in q]
        names += list(q.get("bodies", ())) + list(q.get("credals", ()))
        exact = all(n in constant for n in names)

        def run():
            query = lib.scenario.Query(q["op"], {k: v for k, v in q.items() if k != "op"})
            try:
                return lib.scenario.run_query(parsed[i], query), None
            except lib.expected_errors as exc:
                return [f"{type(exc).__name__}: {exc}"], None

        def check(lines, _):
            if q["op"] == "order":
                want = [oracle.order_line(q, gdoc["order"])]
            elif exact:
                want = oracle.RefScenario(gdoc["doc"]).query(q)
            else:
                want_class = oracle.outcome_class(
                    oracle.RefScenario(gdoc["doc"], placeholder=True).query(q))
                got_class = oracle.outcome_class(lines)
                return None if got_class == want_class else f"want {want_class}, got {got_class}"
            return None if lines == want else f"want {want!r}"

        return Item(q["op"], run, check)

    def cli_item(argv, check_lines):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = lib.cli.dispatch(argv)
            return out.getvalue().splitlines() + err.getvalue().splitlines() + [f"exit {code}"], None

        return Item(f"cli.{argv[0]}", run, lambda lines, _: check_lines(lines))

    def gelman_check(lines):
        missing = [l for l in oracle.GELMAN_LINES if l not in lines]
        if missing or lines[-1] != "exit 0":
            return f"gelman output lacks {missing or ['exit 0']}"
        return None

    def scenario_run_check(doc):
        def check(lines):
            # the command prints only after every query succeeded
            ref = oracle.RefScenario(doc)
            want = []
            for q in doc["queries"]:
                got = ref.query(q)
                if oracle.outcome_class(got) != "ok":
                    want = [f"finding: {got[0].split(': ', 1)[1]}", "exit 1"]
                    break
                want += got
            else:
                want.append("exit 0")
            return None if lines == want else "scenario run output differs from the reference"

        return check

    docs, cli_docs = raw["docs"], raw["cli_docs"]
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    for j, gdoc in enumerate(cli_docs):
        # the scenario-run documents go through the CLI, which reads files
        doc = dict(gdoc["doc"], queries=[q for q in gdoc["doc"]["queries"] if q["op"] != "order"])
        path = out_dir / f"scenario-{j}.json"
        path.write_text(json.dumps(doc))
        files.append((str(path), doc))
    every = max(1, len(docs) // max(1, len(files)))
    for i, gdoc in enumerate(docs):
        items.append(parse_item(i, gdoc))
        items.extend(query_item(i, gdoc, q) for q in gdoc["doc"]["queries"])
        if i % every == 0 and i // every < len(files):
            path, doc = files[i // every]
            items.append(cli_item(["gelman"], gelman_check))
            items.append(cli_item(["scenario", "run", path], scenario_run_check(doc)))
    return items


def build(workload: str, lib: Lib, raw, out_dir: Path) -> list[Item]:
    if workload == "field-arith":
        return [_field_item(lib, r) for r in raw]
    if workload == "verify":
        return [_verify_item(lib, r) for r in raw]
    return _evidence_items(lib, raw, out_dir)
