"""Every demo script runs cleanly in a fresh interpreter, and the README quick start holds."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def readme_quick_start() -> str:
    """The python block under ``## Library quick start`` in the README."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start():
    # each line runs in turn; a comment that opens with a value is checked
    # against the repr of the line's expression
    namespace: dict = {}
    checked = []
    for line in readme_quick_start().splitlines():
        code, _, comment = line.partition("#")
        expected = re.match(r"\s*(-?[0-9]+|True|False|INFINITE)\b", comment)
        if expected is None:
            exec(code, namespace)
            continue
        assert repr(eval(code, namespace)) == expected[1], line
        checked.append(expected[1])
    assert checked == ["119", "64", "True", "645", "INFINITE", "6117"]
