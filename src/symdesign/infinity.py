"""Sentinel for an unbounded design order.

``INFINITE`` prints as ``infinity`` in user-facing output and is the unique
instance of :class:`Infinite`.  Using a dedicated sentinel (rather than
``float("inf")``) keeps every quantity in the solver path exact.
"""

from __future__ import annotations


class Infinite:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITE"

    def __str__(self):
        return "infinity"

    def __eq__(self, other):
        return isinstance(other, Infinite)

    def __hash__(self):
        return hash("symdesign.INFINITE")


INFINITE = Infinite()


def is_finite(value) -> bool:
    """True for ordinary numbers, False for the INFINITE sentinel."""
    return not isinstance(value, Infinite)
