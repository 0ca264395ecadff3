"""Exactness invariants on the solving and re-verification paths must survive ``python -O``."""

import ast
from pathlib import Path

import pytest

import symdesign

PACKAGE = Path(symdesign.__file__).parent
# every module of the package, so a new one cannot bring in an assert unseen
MODULES = sorted(PACKAGE.glob("*.py"))


def test_every_module_is_scanned():
    names = {path.stem for path in MODULES}
    assert {"charges", "checks", "cli", "infinity", "solver", "values"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"symdesign.{path.stem}")
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"symdesign.{path.stem} uses assert on lines {lines}"
