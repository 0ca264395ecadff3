"""Test-local references for exact rank and integer kernel bases.

``rank_rational`` and ``is_kernel_basis`` share no code with
:class:`symdesign.intlinalg.Echelon`, so they can check it; ``echelon_rank``
and ``echelon_kernel`` are the echelon's own rank and kernel basis, as the
solver's prefix scan builds them; ``dot_rows`` is the product ``A v`` that
kernel membership is checked with.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, prod
from operator import mul

from symdesign.intlinalg import Echelon, as_int_row


def _eliminate(rows) -> list[list[Fraction]]:
    """Row echelon form of ``rows`` by naive rational Gaussian elimination."""
    M = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(M[0]) if M else 0):
        piv = next((i for i in range(rank, len(M)) if M[i][col]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        for i in range(rank + 1, len(M)):
            f = M[i][col] / M[rank][col]
            M[i] = [a - f * b for a, b in zip(M[i], M[rank])]
        rank += 1
    return M[:rank]


def dot_rows(rows, vec) -> list:
    """``A vec`` for the rows of ``A``: each row's dot product with ``vec``."""
    return [sum(map(mul, row, vec)) for row in rows]


def rank_rational(rows) -> int:
    """Rank over the rationals, the reference for ``echelon_rank``."""
    return len(_eliminate(rows))


def echelon_rank(rows) -> int:
    """Rank over the rationals read from an :class:`Echelon` fed every row, each made integral."""
    ech = Echelon()
    for row in rows:
        ech.add(as_int_row(row))
    return len(ech.pivots)


def _abs_det(square) -> int:
    """``|det|`` of an integer square matrix: the product of its echelon pivots."""
    pivots = _eliminate(square)
    if len(pivots) < len(square):
        return 0
    return abs(int(prod(row[i] for i, row in enumerate(pivots))))


def is_kernel_basis(A, B) -> bool:
    """True exactly when ``B`` is a basis of the integer kernel ``{q : A q = 0}``.

    Every vector of ``B`` is in the kernel, there are ``cols - rank(A)`` of
    them, and ``B`` is saturated: the gcd of its maximal minors is 1, so no
    integer vector of its rational span lies outside its integer span.
    """
    cols = len(A[0])
    if any(sum(a * x for a, x in zip(row, b)) for b in B for row in A):
        return False
    if len(B) != cols - rank_rational(A):
        return False
    g = 0
    for support in combinations(range(cols), len(B)):
        g = gcd(g, _abs_det([[b[j] for j in support] for b in B]))
        if g == 1:
            return True
    return False


def echelon_kernel(A) -> list[list[int]]:
    """Kernel basis of ``A`` from an :class:`Echelon` fed its columns.

    Rows are made integral first: scaling a row keeps the kernel, scaling a
    column would not.
    """
    ech = Echelon()
    for col in zip(*(as_int_row(row) for row in A)):
        ech.add(col)
    return ech.kernel_basis()
