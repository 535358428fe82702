"""Every exported name resolves: the ``__all__`` of each module and the
names the package ``__init__`` imports, so a deletion leaves no stale export."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import plauscalc

MODULES = sorted(m.name for m in pkgutil.iter_modules(plauscalc.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    namespace = {}
    exec(f"from plauscalc.{module} import *", namespace)
    mod = importlib.import_module(f"plauscalc.{module}")
    assert set(mod.__all__) <= set(namespace)


def test_package_imports_resolve():
    tree = ast.parse(Path(plauscalc.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        source = importlib.import_module(f"plauscalc.{node.module}")
        for alias in node.names:
            assert getattr(plauscalc, alias.name) is getattr(source, alias.name)


def test_one_frame_type():
    assert plauscalc.Frame is plauscalc.credal.Frame is plauscalc.evidence.Frame


@pytest.mark.parametrize("module", ["plauscalc", "plauscalc.cli"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    src = str(Path(plauscalc.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = f"import sys, {module}; print(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))"
    run = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")
