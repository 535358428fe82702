"""Every exported name resolves: the ``__all__`` of each module and the
names the package ``__init__`` imports, so a deletion leaves no stale export."""

import ast
import importlib
import pkgutil
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
