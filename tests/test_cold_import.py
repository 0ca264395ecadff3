"""What a fresh interpreter loads: each command only the submodules it runs.

``import symdesign`` loads no submodule and ``import symdesign.cli`` only
``symdesign.infinity``; a command then loads what it calls, so ``smatrix``
never loads the solver and only ``tmax`` and ``table`` load the closed forms.
The exact set of ``symdesign`` modules is checked, so a stray top-level
import fails.  No start imports ``dataclasses`` or ``inspect`` (``import
dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``, and
every CLI call would pay for loading them), and no module imports numpy.
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
CLI = {"symdesign", "symdesign.cli", "symdesign.infinity"}
TABLES = {"symdesign.groups", "symdesign.charges", "symdesign.values"}
SOLVER = {"symdesign.solver", "symdesign.intlinalg"}
INSTANCE = ["--group", "sud", "--d", "4", "--n", "8", "--k", "3"]


def fresh_modules(code: str, cwd: Path = PACKAGE.parent) -> set[str]:
    """Names in ``sys.modules`` after ``code`` runs in a fresh interpreter.

    -S leaves out site and the .pth files it would run, so ``sys.modules``
    holds only what the interpreter and the code import.  The names go to
    stderr, so a command's own output on stdout does not mix with them.
    """
    probe = code + "\nimport sys\nprint(*sys.modules, file=sys.stderr)"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        cwd=cwd,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


def after_main(argv: list[str], cwd: Path = PACKAGE.parent) -> set[str]:
    return fresh_modules(f"import symdesign.cli\nassert symdesign.cli.main({argv!r}) == 0", cwd)


def package_modules(loaded: set[str]) -> set[str]:
    return {name for name in loaded if name == "symdesign" or name.startswith("symdesign.")}


def test_package_import_loads_no_submodule():
    assert package_modules(fresh_modules("import symdesign")) == {"symdesign"}


def test_every_submodule_resolves_after_a_bare_package_import():
    names = ["infinity", "values", "groups", "charges", "intlinalg", "solver", "closedforms", "checks", "cli"]
    code = f"import symdesign\nfor name in {names!r}: assert getattr(symdesign, name).__name__ == 'symdesign.' + name"
    assert package_modules(fresh_modules(code)) == {"symdesign", *(f"symdesign.{name}" for name in names)}


def test_cli_import_loads_only_infinity():
    loaded = fresh_modules("import symdesign.cli")
    assert package_modules(loaded) == CLI
    assert not {"fractions", "decimal", "csv"} & loaded


def test_smatrix_loads_no_solver():
    loaded = after_main(["smatrix", *INSTANCE])
    assert package_modules(loaded) == CLI | TABLES
    assert "fractions" not in loaded


def test_lower_bound_loads_no_closed_forms():
    loaded = after_main(["lower-bound", *INSTANCE])
    assert package_modules(loaded) == CLI | TABLES | SOLVER
    assert "fractions" not in loaded


def test_integer_custom_problem_loads_no_closed_forms_or_fractions(tmp_path):
    (tmp_path / "problem.json").write_text('{"m": [1, 3, 3, 1], "rows": [[0, 1, 2, 3]]}')
    loaded = after_main(["custom", "problem.json"], tmp_path)
    assert package_modules(loaded) == CLI | TABLES | SOLVER
    assert "fractions" not in loaded


def test_tmax_loads_solver_and_closed_forms():
    loaded = after_main(["tmax", *INSTANCE])
    assert package_modules(loaded) == CLI | TABLES | SOLVER | {"symdesign.closedforms"}
    assert "fractions" not in loaded


def test_only_csv_format_loads_csv():
    assert "csv" not in after_main(["smatrix", "--format", "json", *INSTANCE])
    assert "csv" in after_main(["smatrix", "--format", "csv", *INSTANCE])


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


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_module_imports_numpy(path):
    # every check is exact, so the package has no float code and no optional dependency
    assert "numpy" not in imported_modules(path)


def test_cli_and_checks_start_without_dataclasses_or_inspect():
    assert not {"dataclasses", "inspect"} & fresh_modules("import symdesign.cli, symdesign.checks")
