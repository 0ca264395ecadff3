"""Fixtures shared by more than one test module."""

import sys
from collections import OrderedDict
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="session")
def workloads():
    """The benchmark's ``workloads`` module, imported as it is, read-only."""
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


@pytest.fixture
def empty_memo(monkeypatch):
    """An empty memo of exact constants for one test, whatever ran before it."""
    from symdesign import groups

    monkeypatch.setattr(groups, "_MEMO", OrderedDict())
    monkeypatch.setattr(groups, "_held", 0)
