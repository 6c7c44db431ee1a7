"""Every name a module imports at module level is used in that module,
every name a module lists in `__all__` exists, and the kernels' public
names are used by the package or the benchmark."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import boxpath

MODULES = sorted(p for p in Path(boxpath.__file__).parent.glob("*.py") if p.name != "__init__.py")
SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_import_is_found():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(b)\n") == ["os", "d"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("name", ["boxpath"] + [f"boxpath.{p.stem}" for p in MODULES])
def test_module_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def referenced_names(source: str) -> set[str]:
    """Every identifier the source names, imports or reads as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


@pytest.mark.parametrize("name", ["rays", "density"])
def test_public_names_are_used(name):
    """A public kernel name that no other module and no benchmark span uses is dead API."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    used = set(spans.TARGETS.get(name, ()))
    for path in Path(boxpath.__file__).parent.glob("*.py"):
        if path.stem != name:
            used |= referenced_names(path.read_text())
    module = importlib.import_module(f"boxpath.{name}")
    assert sorted(set(module.__all__) - used) == []
