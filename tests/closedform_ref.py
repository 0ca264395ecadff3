"""Test-local rational reference for the integer closed forms.

``binom_frac`` is the generalized binomial in ``Fraction``s, the reference
that :func:`symdesign.closedforms.half_binom_int`, the U(1) and SU(2) norms
and the SU(2) design order are compared against.
"""

from fractions import Fraction
from math import factorial


def binom_frac(alpha, k: int) -> Fraction:
    """Generalized binomial: falling factorial of ``alpha`` over ``k!``."""
    if k < 0:
        return Fraction(0)
    alpha = Fraction(alpha)
    num = Fraction(1)
    for i in range(k):
        num *= alpha - i
    return num / factorial(k)
