"""Exit-code contract under random input.

``cli.dispatch`` must end every call with exit 0 (success), 1 (semantic
finding) or 2 (usage, parse or validation error) and raise nothing else,
whatever the argv and whatever the scenario document it reads.  A message on
stderr that is not argparse's usage text is exactly one ``error:`` or
``finding:`` line.
"""

import argparse
import contextlib
import io
import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from plauscalc.cli import _build_parser, dispatch
from plauscalc.refinement import TWO_PATH_LAWS
from plauscalc.scenario import QUERY_OPS

SUBCOMMANDS = sorted(
    next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
)
KEYWORDS = [
    "--kernel", "--law", "--samples", "--seed", "--rule", "--bodies", "--credal", "--event",
    "-h", "run", "combine", "condition", "envelopes", "decompose", "dempster", "robust",
    "rat", "eps", "bool", "broken-s", *TWO_PATH_LAWS,
]
ATOMS = ["a", "b", "c"]
NAMES = ["m1", "m2", "c1", "c2"]

SETTINGS = settings(
    max_examples=150,
    deadline=2000,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


def _join(parts):
    left, op, right = parts
    return f"{left}{op}{right}"


# eps-expressions: mostly well formed, some not (a '^' before a parenthesis)
leaves = st.sampled_from(["0", "1", "2", "eps", "1/2", "1/3", "2/3", "7"]) | st.integers(0, 40).map(str)
exprs = st.recursive(
    leaves,
    lambda e: st.tuples(e, st.sampled_from(["+", "-", "*", "/", "^"]), e).map(_join)
    | e.map(lambda s: f"({s})")
    | e.map(lambda s: f"-{s}"),
    max_leaves=8,
)


def _small_if_int(text):
    try:
        return int(text) <= 30
    except ValueError:
        return True


# Small counts only: a large --samples value is a long, not a wrong, run.
small_ints = st.integers(-3, 30).map(str)
raw_text = st.text(max_size=8).filter(_small_if_int)
tokens = st.one_of(st.sampled_from(KEYWORDS + SUBCOMMANDS + ATOMS + NAMES), exprs, small_ints, raw_text)

json_leaf = st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=4) | exprs
json_any = st.recursive(
    json_leaf,
    lambda c: st.lists(c, max_size=3) | st.dictionaries(st.text(max_size=3), c, max_size=3),
    max_leaves=6,
)
atom_lists = st.lists(st.sampled_from(ATOMS), max_size=3)
name_lists = st.lists(st.sampled_from(NAMES), max_size=3)
mass_entries = st.fixed_dictionaries({"set": atom_lists, "mass": exprs}) | json_any
bodies = st.fixed_dictionaries(
    {"name": st.sampled_from(NAMES), "masses": st.lists(mass_entries, max_size=3)}
) | json_any
credals = st.fixed_dictionaries(
    {"name": st.sampled_from(NAMES),
     "dists": st.lists(st.dictionaries(st.sampled_from(ATOMS), exprs, max_size=3), max_size=3)}
) | json_any
queries = st.fixed_dictionaries(
    {"op": st.sampled_from(sorted(QUERY_OPS)) | json_any},
    optional={
        "left": exprs, "right": exprs,
        "body": st.sampled_from(NAMES) | json_any, "bodies": name_lists | json_any,
        "credal": st.sampled_from(NAMES) | json_any, "credals": name_lists | json_any,
        "event": atom_lists | json_any, "a": atom_lists, "b": atom_lists,
    },
)
documents = st.fixed_dictionaries(
    {"frame": st.lists(st.sampled_from(ATOMS), max_size=3) | json_any},
    optional={
        "bodies": st.lists(bodies, max_size=2) | json_any,
        "credals": st.lists(credals, max_size=2) | json_any,
        "queries": st.lists(queries, max_size=3) | json_any,
    },
) | json_any


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    assert code in (0, 1, 2), (argv, code)
    message = err.getvalue()
    if message and "usage:" not in message:
        assert message.count("\n") == 1, (argv, message)
        assert message.startswith(("error: ", "finding: ")), (argv, message)
    return code


@SETTINGS
@given(st.one_of(st.sampled_from(SUBCOMMANDS), tokens), st.lists(tokens, max_size=8))
def test_random_argv(command, rest):
    run([command, *rest])


@SETTINGS
@given(
    documents,
    st.sampled_from(["scenario", "ds", "credal"]),
    st.sampled_from(["dempster", "robust"]),
    st.sampled_from(["condition", "envelopes", "decompose"]),
    st.lists(st.sampled_from(NAMES + ATOMS), min_size=1, max_size=3),
)
@example({"frame": ["a"], "bodies": None}, "scenario", "dempster", "condition", ["m1"])
@example({"frame": ["a"], "credals": 5}, "scenario", "dempster", "condition", ["m1"])
@example({"frame": ["a"], "queries": None}, "scenario", "dempster", "condition", ["m1"])
def test_random_scenario_documents(tmp_path, doc, command, rule, action, names):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    if command == "scenario":
        argv = ["scenario", "run", str(path)]
    elif command == "ds":
        argv = ["ds", "combine", "--rule", rule, str(path), "--bodies", *names]
    else:
        argv = ["credal", action, str(path), "--credal", names[0], "--event", *(names[1:] or ATOMS)]
    run(argv)


def test_unreadable_document_bytes(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b"\xff\xfe{")
    assert run(["scenario", "run", str(path)]) == 2
