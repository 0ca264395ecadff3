"""A command-line start imports neither ``dataclasses`` nor ``inspect``.

``import dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``,
and every CLI call would pay for loading them.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symdesign

PACKAGE = Path(symdesign.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_modules(path: Path) -> set[str]:
    """Top-level names of the modules that ``path`` imports, at any depth of its syntax tree."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.split(".")[0])
    return names


def test_every_module_is_scanned():
    assert {"cli.py", "checks.py", "groups.py", "values.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_module_imports_dataclasses(path):
    assert "dataclasses" not in imported_modules(path)


def test_cli_and_checks_start_without_dataclasses_or_inspect():
    # -S leaves out site and the .pth files it would run, so sys.modules holds
    # only what the interpreter and the package import
    code = (
        "import sys, symdesign.cli, symdesign.checks; "
        "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
