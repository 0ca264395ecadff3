"""Fixtures shared by more than one test module."""

import sys
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
