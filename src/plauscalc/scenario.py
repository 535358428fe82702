"""Scenario files: a JSON schema binding frames, bodies of evidence and
credal sets to names, plus a list of queries to run against them.

All numbers are eps-expression strings (see :mod:`plauscalc.parser`); binary
floating point never enters the I/O path.  Schema::

    {
      "frame": ["BC", "BnC", "nBC", "nBnC"],
      "bodies": [
        {"name": "m2", "masses": [{"set": ["BC", "nBC"], "mass": "1/2"},
                                   {"set": ["BnC", "nBnC"], "mass": "1/2"}]}
      ],
      "credals": [
        {"name": "c1", "dists": [{"BC": "1/2", "nBC": "1/2", ...}]}
      ],
      "queries": [
        {"op": "bel-pl", "body": "m2", "event": ["BC", "nBC"]},
        ...
      ]
    }

Each query's op and arguments are checked at load time against
:data:`QUERY_OPS`, the one table of ops, their argument kinds and runners.
Validation failures raise :class:`ScenarioError` carrying a path into the
document; semantic failures while executing queries raise the operation's
own exception.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import reduce
from typing import Any, Callable, Iterable

from .credal import (
    CredalSet,
    ExtDist,
    Frame,
    combine_laplace,
    condition,
    decompose,
    envelopes,
    event_plausibility,
    more_plausible,
)
from .epsnum import exact_str
from .evidence import MassFunction, bel_pl, dempster_combine, mass_to_credal
from .parser import EpsSyntaxError, parse_eps_expr

__all__ = [
    "ScenarioError",
    "Query",
    "Scenario",
    "QUERY_OPS",
    "check_query",
    "load_scenario",
    "parse_scenario",
    "run_queries",
    "run_query",
]


class ScenarioError(ValueError):
    """Malformed scenario document; the message pinpoints the location."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class Query:
    op: str
    args: dict[str, Any]


@dataclass(frozen=True)
class Scenario:
    frame: Frame
    bodies: dict[str, MassFunction] = field(default_factory=dict)
    credals: dict[str, CredalSet] = field(default_factory=dict)
    queries: tuple[Query, ...] = ()


def _number(text: Any, path: str):
    if not isinstance(text, str):
        raise ScenarioError(path, f"numbers must be eps-expression strings, got {text!r}")
    try:
        return parse_eps_expr(text)
    except (EpsSyntaxError, ZeroDivisionError) as exc:
        raise ScenarioError(path, f"bad number {text!r}: {exc}") from exc


def _string_list(value: Any, path: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ScenarioError(path, "expected a list of strings")
    return value


def _section(doc: dict, key: str) -> list:
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise ScenarioError(key, "expected a list")
    return value


def load_scenario(path: str) -> Scenario:
    """Load and fully validate a scenario file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(path, f"invalid JSON: {exc}") from exc
    return parse_scenario(doc)


def parse_scenario(doc: Any) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("$", "document must be a JSON object")
    if "frame" not in doc:
        raise ScenarioError("$", "missing 'frame'")
    try:
        frame = Frame(_string_list(doc["frame"], "frame"))
    except ValueError as exc:
        raise ScenarioError("frame", str(exc)) from exc

    bodies: dict[str, MassFunction] = {}
    for i, item in enumerate(_section(doc, "bodies")):
        where = f"bodies[{i}]"
        name = item.get("name") if isinstance(item, dict) else None
        if not isinstance(name, str):
            raise ScenarioError(where, "body needs a string 'name'")
        if name in bodies:
            raise ScenarioError(where, f"duplicate body name {name!r}")
        raw = item.get("masses")
        if not isinstance(raw, list) or not raw:
            raise ScenarioError(f"{where}.masses", "expected a nonempty list")
        masses = {}
        for j, entry in enumerate(raw):
            epath = f"{where}.masses[{j}]"
            if not isinstance(entry, dict) or "set" not in entry or "mass" not in entry:
                raise ScenarioError(epath, "expected {'set': [...], 'mass': '...'}")
            atoms = tuple(_string_list(entry["set"], f"{epath}.set"))
            try:
                mask = frame.mask_of(atoms)
            except KeyError as exc:
                raise ScenarioError(f"{epath}.set", str(exc.args[0])) from exc
            value = _number(entry["mass"], f"{epath}.mass")
            masses[mask] = masses.get(mask, 0) + value
        try:
            bodies[name] = MassFunction(frame, masses)
        except ValueError as exc:
            raise ScenarioError(f"{where}.masses", str(exc)) from exc

    credals: dict[str, CredalSet] = {}
    for i, item in enumerate(_section(doc, "credals")):
        where = f"credals[{i}]"
        name = item.get("name") if isinstance(item, dict) else None
        if not isinstance(name, str):
            raise ScenarioError(where, "credal set needs a string 'name'")
        if name in credals:
            raise ScenarioError(where, f"duplicate credal name {name!r}")
        raw = item.get("dists")
        if not isinstance(raw, list) or not raw:
            raise ScenarioError(f"{where}.dists", "expected a nonempty list")
        dists = []
        for j, entry in enumerate(raw):
            epath = f"{where}.dists[{j}]"
            if not isinstance(entry, dict):
                raise ScenarioError(epath, "expected an atom -> number object")
            probs = {}
            for atom, num in entry.items():
                if atom not in frame.atoms:
                    raise ScenarioError(epath, f"unknown atom {atom!r}")
                probs[atom] = _number(num, f"{epath}.{atom}")
            for atom in frame.atoms:
                probs.setdefault(atom, 0)
            try:
                dists.append(ExtDist(frame, probs))
            except ValueError as exc:
                raise ScenarioError(epath, str(exc)) from exc
        credals[name] = CredalSet(frame, dists)

    queries = []
    for i, item in enumerate(_section(doc, "queries")):
        if not isinstance(item, dict) or not isinstance(item.get("op"), str):
            raise ScenarioError(f"queries[{i}]", "query needs a string 'op'")
        queries.append(Query(item["op"], {k: v for k, v in item.items() if k != "op"}))

    scenario = Scenario(frame=frame, bodies=bodies, credals=credals, queries=tuple(queries))
    for i, q in enumerate(scenario.queries):
        check_query(scenario, q, f"queries[{i}]")
    return scenario


# Argument kinds that name scenario entries: what a name denotes, and the
# names the scenario knows.  The one other kind, "expr", is an eps-expression
# string.  "body" and "credal" take one name, the rest a list of names.
_NAME_KINDS = {
    "body": ("body", lambda s: s.bodies),
    "bodies": ("body", lambda s: s.bodies),
    "credal": ("credal set", lambda s: s.credals),
    "credals": ("credal set", lambda s: s.credals),
    "event": ("atom", lambda s: s.frame.atoms),
}


def _check_arg(s: Scenario, kind: str, value: Any, path: str) -> None:
    if kind == "expr":
        if not isinstance(value, str):
            raise ScenarioError(path, f"expected an eps-expression string, got {value!r}")
        return
    what, known = _NAME_KINDS[kind]
    if kind in ("body", "credal"):
        names = [value]
    elif isinstance(value, list) and (value or kind == "event"):  # an empty event is legal
        names = value
    else:
        size = "" if kind == "event" else "nonempty "
        raise ScenarioError(path, f"expected a {size}list of {what} names")
    for name in names:
        if not isinstance(name, str) or name not in known(s):
            raise ScenarioError(path, f"unknown {what} {name!r}")


def check_query(s: Scenario, q: Query, where: str) -> None:
    """Check the query's op and the arguments its schema names against the
    scenario; errors carry paths under ``where``.  Other keys are ignored."""
    if q.op not in QUERY_OPS:
        raise ScenarioError(f"{where}.op", f"unknown operation {q.op!r}")
    schema, _ = QUERY_OPS[q.op]
    for key, kind in schema.items():
        if key not in q.args:
            raise ScenarioError(f"{where}.{key}", "missing argument")
        _check_arg(s, kind, q.args[key], f"{where}.{key}")


def _fmt_event(atoms: Iterable[str]) -> str:
    return "{" + ",".join(atoms) + "}"


def _members(head: str, c: CredalSet) -> list[str]:
    return [f"{head}: {len(c)} members"] + [f"  member {d}" for d in c.dists]


def _order(s: Scenario, a: dict) -> list[str]:
    left, right = parse_eps_expr(a["left"]), parse_eps_expr(a["right"])
    verdict = {-1: "LT", 0: "EQ", 1: "GT"}[left.compare(right)]
    return [f"order {a['left']} vs {a['right']}: {verdict}"]


def _bel_pl(s: Scenario, a: dict) -> list[str]:
    bel, pl = bel_pl(s.bodies[a["body"]], tuple(a["event"]))
    return [f"bel-pl {a['body']} {_fmt_event(a['event'])}: bel={bel} pl={pl}"]


def _dempster(s: Scenario, a: dict) -> list[str]:
    m = reduce(dempster_combine, (s.bodies[name] for name in a["bodies"]))
    return [f"dempster {' (x) '.join(a['bodies'])} = {m}"]


def _robust_combine(s: Scenario, a: dict) -> list[str]:
    c = reduce(combine_laplace, (mass_to_credal(s.bodies[name]) for name in a["bodies"]))
    return _members(f"robust-combine {' (x) '.join(a['bodies'])}", c)


def _mass_to_credal(s: Scenario, a: dict) -> list[str]:
    return _members(f"mass-to-credal {a['body']}", mass_to_credal(s.bodies[a["body"]]))


def _laplace(s: Scenario, a: dict) -> list[str]:
    c = reduce(combine_laplace, (s.credals[name] for name in a["credals"]))
    return _members(f"laplace {' (x) '.join(a['credals'])}", c)


def _event_plausibility(s: Scenario, a: dict) -> list[str]:
    vec = event_plausibility(s.credals[a["credal"]], tuple(a["event"]))
    return [f"event-plausibility {a['credal']} {_fmt_event(a['event'])}: {vec}"]


def _envelopes(s: Scenario, a: dict) -> list[str]:
    lo, hi = envelopes(s.credals[a["credal"]], tuple(a["event"]))
    return [
        f"envelopes {a['credal']} {_fmt_event(a['event'])}: "
        f"({exact_str(lo)}, {exact_str(hi)})"
    ]


def _condition(s: Scenario, a: dict) -> list[str]:
    c = condition(s.credals[a["credal"]], tuple(a["event"]))
    return _members(f"condition {a['credal']} on {_fmt_event(a['event'])}", c)


def _decompose(s: Scenario, a: dict) -> list[str]:
    vec = event_plausibility(s.credals[a["credal"]], tuple(a["event"]))
    d = decompose(vec)
    profile = "none" if d.profile is None else str(d.profile)
    return [
        f"decompose {a['credal']} {_fmt_event(a['event'])}: p={vec}",
        f"  lower={d.lower} spread={d.spread} profile={profile}",
    ]


def _more_plausible(s: Scenario, a: dict) -> list[str]:
    r = more_plausible(s.credals[a["credal"]], tuple(a["a"]), tuple(a["b"]))
    return [f"more-plausible {a['credal']} {_fmt_event(a['a'])} vs {_fmt_event(a['b'])}: {r}"]


# op -> (argument name -> kind, runner).  Runners see only checked arguments.
QUERY_OPS: dict[str, tuple[dict[str, str], Callable[[Scenario, dict], list[str]]]] = {
    "order": ({"left": "expr", "right": "expr"}, _order),
    "bel-pl": ({"body": "body", "event": "event"}, _bel_pl),
    "dempster": ({"bodies": "bodies"}, _dempster),
    "robust-combine": ({"bodies": "bodies"}, _robust_combine),
    "mass-to-credal": ({"body": "body"}, _mass_to_credal),
    "laplace": ({"credals": "credals"}, _laplace),
    "event-plausibility": ({"credal": "credal", "event": "event"}, _event_plausibility),
    "envelopes": ({"credal": "credal", "event": "event"}, _envelopes),
    "condition": ({"credal": "credal", "event": "event"}, _condition),
    "decompose": ({"credal": "credal", "event": "event"}, _decompose),
    "more-plausible": ({"credal": "credal", "a": "event", "b": "event"}, _more_plausible),
}


def run_queries(s: Scenario) -> list[str]:
    """Execute each query; returns stable line-oriented output."""
    lines: list[str] = []
    for q in s.queries:
        lines.extend(run_query(s, q))
    return lines


def run_query(s: Scenario, q: Query) -> list[str]:
    """Check one query against the scenario, then run it."""
    check_query(s, q, "query")
    return QUERY_OPS[q.op][1](s, q.args)
