"""Every public name of the package resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import rydsense

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(rydsense.__path__) if not info.name.startswith("_")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"rydsense.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    # a stale string passes ``import`` but fails ``from ... import *``
    namespace = {}
    exec(f"from rydsense.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_package_reexports_only_public_names():
    tree = ast.parse(Path(rydsense.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1 and node.module in MODULES
        public = importlib.import_module(f"rydsense.{node.module}").__all__
        for alias in node.names:
            assert alias.asname is None and alias.name in public, alias.name


def test_no_dense_linear_algebra_in_the_package():
    # closed forms in the package; dense algebra (eigh, inv, ...) only in
    # tests/helpers.py
    for path in Path(rydsense.__file__).parent.glob("*.py"):
        assert "linalg" not in path.read_text(), path.name
