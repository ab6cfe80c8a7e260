"""Every public name of the package resolves, and has a use outside the tests."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import rydsense
from rydsense import fockspace

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(rydsense.__path__) if not info.name.startswith("_")
)
PACKAGE = Path(rydsense.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
# where a use counts; the package's re-exports in __init__.py are not uses
USES = [
    *(path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"),
    *sorted((ROOT / "demos").glob("*.py")),
    ROOT / "README.md",
]


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


def own_lines(path: Path, name: str) -> set:
    """Lines of ``path`` that define ``name`` at top level or list it in ``__all__``."""
    lines = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            continue
        if name in defined:
            lines.add(node.lineno)
        elif defined == ["__all__"]:
            lines |= {
                entry.lineno for entry in node.value.elts if getattr(entry, "value", None) == name
            }
    return lines


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_has_a_use_outside_the_tests(name):
    # public API that only the tests use belongs in tests/helpers.py
    module = importlib.import_module(f"rydsense.{name}")
    home = Path(module.__file__).resolve()
    unused = []
    for entry in module.__all__:
        word = re.compile(rf"\b{re.escape(entry)}\b")
        skip = own_lines(home, entry)
        if not any(
            word.search(line) and not (path == home and number in skip)
            for path in USES
            for number, line in enumerate(path.read_text().splitlines(), start=1)
        ):
            unused.append(entry)
    assert not unused


def test_populations_are_plain_arrays():
    # a state's populations are a float array; no wrapper class and no
    # basis kets in the package
    assert "DensityOperator" not in fockspace.__all__
    assert not hasattr(fockspace, "DensityOperator") and not hasattr(rydsense, "DensityOperator")
    assert not hasattr(fockspace.FockBasis, "state")
    assert fockspace.FockBasis.__eq__ is object.__eq__
    assert fockspace.FockBasis.__hash__ is object.__hash__
