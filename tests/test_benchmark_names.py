"""Every library name the benchmark scripts use exists.

The test suite never runs the benchmark, so without this check a removed or
renamed public name would break it unnoticed.  The scripts are read with
``ast``, not run.
"""
import ast
import importlib
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

#: How the scripts bind the library: ``import ddlti as dd``, ``from ddlti import cli``.
ALIASES = {"dd": "ddlti", "cli": "ddlti.cli"}


def library_names(path: Path) -> set[tuple[str, str]]:
    """(module, name) for each ``from ddlti import name`` and each ``dd.name``
    or ``cli.name`` in a script."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "ddlti":
            found.update(("ddlti", alias.name) for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in ALIASES):
            found.add((ALIASES[node.value.id], node.attr))
    return found


def test_benchmark_library_names_resolve():
    used = {(p.name, module, name) for p in sorted(BENCHMARKS.glob("*.py"))
            for module, name in library_names(p)}
    assert ("workloads.py", "ddlti", "identify") in used
    assert ("workloads.py", "ddlti.cli", "main") in used
    modules = {m: importlib.import_module(m) for m in ("ddlti", *ALIASES.values())}
    missing = [f"{script}: {module}.{name}" for script, module, name in sorted(used)
               if not hasattr(modules[module], name)]
    assert missing == []
