"""The benchmark calls ikc by name: the tracer rebinds functions named in its
TARGETS, and its scripts import names from ikc and read attributes off ikc
modules.  Each of those names must exist."""

import ast
import importlib
import importlib.util
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [
        f"{mod}.{fn}"
        for mod, fn, _ in tracer.TARGETS
        if not callable(getattr(importlib.import_module(f"ikc.{mod}"), fn, None))
    ]
    assert missing == []


def _ikc_names(tree):
    """(module, name) for every name the file imports from an ikc module and
    every attribute it reads off an ikc module it imported."""
    modules = {}  # local name -> ikc module path
    used = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ikc":
            for alias in node.names:
                used.append((node.module, alias.name))
                try:  # from ikc import syntax binds a module
                    sub = importlib.import_module(f"{node.module}.{alias.name}")
                except ImportError:
                    continue
                modules[alias.asname or alias.name] = sub.__name__
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ikc":
                    modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            used.append((modules[node.value.id], node.attr))
    return used


def test_every_ikc_name_the_benchmark_uses_exists():
    files = sorted(PERFBENCH.glob("*.py"))
    assert files
    used, missing = set(), []
    for path in files:
        for module, name in _ikc_names(ast.parse(path.read_text(), str(path))):
            used.add((module, name))
            if not hasattr(importlib.import_module(module), name):
                missing.append(f"{path.name}: {module}.{name}")
    assert ("ikc.envs", "env_enlarge") in used
    assert ("ikc.syntax", "term_size") in used
    assert missing == []
