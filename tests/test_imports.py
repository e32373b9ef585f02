"""Every kernel module uses every name it imports, and the package
re-exports exactly the names of the README's quick start, which runs.

A deletion that leaves an import behind shows here; the package's
__init__.py is left out of the first check, since it imports names to
re-export them.
"""

import ast
import pathlib
import types

import pytest

import ikc
from ikc.search import Found
from ikc.syntax import parse_term

ROOT = pathlib.Path(__file__).parent.parent
SRC = ROOT / "src" / "ikc"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(_imported(tree) - used) == []


def test_readme_quick_start_runs_on_the_package_reexports():
    section = (ROOT / "README.md").read_text().split("## Library quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    imported = {
        a.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "ikc"
        for a in node.names
    }
    exported = {
        name
        for name, value in vars(ikc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert imported == exported
    scope = {}
    exec(block, scope)
    assert isinstance(scope["out"], Found)
    assert scope["j"] == scope["out"].derivation.judgment
    assert scope["d2"].judgment.subject == parse_term("(lam y [] y[])")
