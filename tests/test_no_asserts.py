"""Exactness invariants on the solving and re-verification paths must survive ``python -O``."""

import ast
import inspect

import pytest

from symdesign import charges, checks, cli, closedforms, groups, intlinalg, solver


@pytest.mark.parametrize(
    "module",
    [groups, charges, closedforms, intlinalg, solver, cli, checks],
    ids=lambda m: m.__name__,
)
def test_no_assert_statements(module):
    tree = ast.parse(inspect.getsource(module))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{module.__name__} uses assert on lines {lines}"
