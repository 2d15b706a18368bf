"""The three routes share no code beyond Partition and SchurSum, so their
agreement certifies each one."""

import ast
from pathlib import Path

import pytest

import plethysm

SHARED = {".partition", ".schur"}


def _package_imports(path):
    # Every import of the package, relative ones as ".module" and absolute
    # ones by their dotted name, which is never in SHARED.
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        yield from (name for name in names if name.startswith((".", "plethysm")))


@pytest.mark.parametrize("route", ("thrall.py", "recurrence.py", "oracle.py"))
def test_routes_import_only_the_shared_modules(route):
    imported = set(_package_imports(Path(plethysm.__file__).with_name(route)))
    assert imported, f"{route} imports nothing from the package"
    assert imported <= SHARED, f"{route} imports {sorted(imported - SHARED)}"
