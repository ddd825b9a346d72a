"""Source hygiene checks that need no linter: every name a ``cmlab`` module
imports is read somewhere in that module, and the package exports exactly
the public names of its modules."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cmlab"


def _unused_imports(text: str) -> list[str]:
    """Names bound by an import in ``text`` that no expression reads and
    ``__all__`` does not list.  ``__future__`` imports and statements
    marked ``# noqa: F401`` on any of their lines are exempt."""
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_checker_flags_an_unused_import():
    text = (
        "from __future__ import annotations\n"
        "import math\nimport os.path\nfrom json import dumps, loads as parse\n"
        "from re import compile  # noqa: F401\n"
        "__all__ = ['dumps']\n"
        "def f(x: os.PathLike):\n    return parse(x)\n"
    )
    assert _unused_imports(text) == ["math"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_package_exports_exactly_the_module_exports():
    # The package re-exports every public name of its modules, and nothing
    # else but the three error classes.
    import cmlab
    from cmlab import (bounds, consistency_oracle, metrics, noise_schedule, sampler,
                       target_dist)

    modules = (bounds, consistency_oracle, metrics, noise_schedule, sampler, target_dist)
    want = {"CmlabError", "ConfigError", "NumericError"}
    for module in modules:
        want.update(module.__all__)
    assert sorted(cmlab.__all__) == sorted(want)
    assert all(hasattr(cmlab, name) for name in cmlab.__all__)
