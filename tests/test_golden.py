"""Golden outputs: the exact stdout and exit code of every command the README
shows, run on the shipped scenario files.

The expected text lives in ``tests/golden/<case>.out``.  A difference here is
a change of user-visible output; it is never fixed by editing the golden file
to match unless the output change itself is intended and documented.
"""

import re
from pathlib import Path

import pytest

from plauscalc.cli import dispatch

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
GELMAN = str(REPO / "scenarios" / "gelman.json")
OPS = str(REPO / "scenarios" / "ops.json")

CASES = {
    "order-lt": ["order", "eps", "1/1000000"],
    "order-eq": ["order", "1/2 + eps", "(1+2*eps)/2"],
    "check-axioms-rat": ["check-axioms", "--kernel", "rat", "--samples", "500", "--seed", "0"],
    "check-axioms-eps": ["check-axioms", "--kernel", "eps", "--samples", "40"],
    "embed-rat": ["embed", "--kernel", "rat", "--samples", "200"],
    "embed-eps": ["embed", "--kernel", "eps", "--samples", "8"],
    "embed-bool": ["embed", "--kernel", "bool"],
    "gelman": ["gelman"],
    "scenario-run-gelman": ["scenario", "run", GELMAN],
    "scenario-run-ops": ["scenario", "run", OPS],
    "ds-dempster-gelman": ["ds", "combine", "--rule", "dempster", GELMAN, "--bodies", "m1,m2,m3"],
    "ds-robust-gelman": ["ds", "combine", "--rule", "robust", GELMAN, "--bodies", "m1,m2,m3"],
    "ds-dempster-ops": ["ds", "combine", "--rule", "dempster", OPS, "--bodies", "m1", "m2"],
    "credal-envelopes-ops": ["credal", "envelopes", OPS, "--credal", "c1", "--event", "a,b"],
    "credal-condition-ops": ["credal", "condition", OPS, "--credal", "c1", "--event", "a"],
    "credal-decompose-ops": ["credal", "decompose", OPS, "--credal", "c1", "--event", "a"],
    "scenario-law-eps": ["scenario-law", "--kernel", "eps", "--law", "distrib", "1/6", "1/3", "1/2"],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_readme_command_output(case, capsys):
    assert dispatch(CASES[case]) == 0
    expected = (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_readme_library_example():
    """Each line of README's "Library example" that ends in a comment gives the
    value the comment starts with."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library example\n\n```python\n(.*?)```", text, re.S).group(1)
    namespace, pending, checked = {}, [], 0
    for line in block.splitlines():
        code, _, comment = line.partition("   # ")
        if not comment:
            pending.append(line)
            continue
        exec("\n".join(pending), namespace)
        pending = []
        expected = re.match(r"\(.*\)|\w+", comment.strip()).group(0)
        assert repr(eval(code, namespace)) == expected, line
        checked += 1
    assert checked == 4 and not "".join(pending).strip()
