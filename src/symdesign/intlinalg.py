"""Exact integer/rational linear algebra: echelon rank, Hermite normal form, kernels.

All routines work on dense lists of rows holding Python ints (or Fractions,
which get cleared row-wise where permitted).  Entries of the charge matrices
grow like binomial coefficients, so everything here is arbitrary precision;
no floating point is used anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Matrix = list[list[int]]


def _as_int_row(row) -> list[int]:
    """Copy ``row``, clearing Fraction denominators.

    Scaling a vector by a positive integer changes neither the span it adds
    to nor the kernel of a matrix it is a row of, so rank/kernel routines may
    operate on the scaled copy.
    """
    if not any(isinstance(x, Fraction) for x in row):
        return [int(x) for x in row]
    scale = 1
    for x in row:
        if isinstance(x, Fraction):
            scale = scale * x.denominator // gcd(scale, x.denominator)
    return [int(x * scale) for x in row]


class Echelon:
    """Incremental rank of a growing set of vectors over the rationals.

    Every stored pivot vector is integral, primitive, and zero at the pivot
    positions of the vectors stored before it, so reducing a new vector
    against the pivots in insertion order is exact fraction-free elimination.
    """

    def __init__(self):
        self.pivots: list[tuple[int, list[int]]] = []

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, vec) -> bool:
        """Reduce ``vec`` against the stored pivots; True if the rank grew."""
        v = _as_int_row(vec)
        for i, piv in self.pivots:
            a = v[i]
            if a:
                b = piv[i]
                v = [b * x - a * y for x, y in zip(v, piv)]
        for i, a in enumerate(v):
            if a:
                g = gcd(*v)
                self.pivots.append((i, [x // g for x in v] if g > 1 else v))
                return True
        return False


def rank_exact(rows) -> int:
    """Rank over the rationals: the rank of an :class:`Echelon` fed every row."""
    ech = Echelon()
    for row in rows:
        ech.add(row)
    return ech.rank


def _identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def hnf(rows) -> tuple[Matrix, Matrix]:
    """Row Hermite normal form ``H = U @ A`` with unimodular ``U``.

    Pivots are positive, entries above each pivot are reduced into
    ``[0, pivot)``, and zero rows sink to the bottom.
    """
    H = [[int(x) for x in row] for row in rows]
    r = len(H)
    c = len(H[0]) if r else 0
    U = _identity(r)
    piv_row = 0
    for col in range(c):
        # collect the column gcd into H[piv_row][col] by Euclidean row steps
        while True:
            nonzero = [i for i in range(piv_row, r) if H[i][col] != 0]
            if not nonzero:
                break
            i_min = min(nonzero, key=lambda i: abs(H[i][col]))
            if i_min != piv_row:
                H[piv_row], H[i_min] = H[i_min], H[piv_row]
                U[piv_row], U[i_min] = U[i_min], U[piv_row]
            if H[piv_row][col] < 0:
                H[piv_row] = [-x for x in H[piv_row]]
                U[piv_row] = [-x for x in U[piv_row]]
            done = True
            a = H[piv_row][col]
            for i in range(piv_row + 1, r):
                if H[i][col] != 0:
                    q = H[i][col] // a
                    H[i] = [x - q * y for x, y in zip(H[i], H[piv_row])]
                    U[i] = [x - q * y for x, y in zip(U[i], U[piv_row])]
                    if H[i][col] != 0:
                        done = False
            if done:
                break
        if piv_row < r and H[piv_row][col] != 0:
            a = H[piv_row][col]
            for i in range(piv_row):
                q = H[i][col] // a
                if q:
                    H[i] = [x - q * y for x, y in zip(H[i], H[piv_row])]
                    U[i] = [x - q * y for x, y in zip(U[i], U[piv_row])]
            piv_row += 1
            if piv_row == r:
                break
    return H, U


def kernel_lattice(rows) -> list[list[int]]:
    """Basis of the integer kernel lattice ``{q : A q = 0}``.

    Computed from the row HNF of the transpose: rows of the transform matrix
    aligned with zero rows of the HNF form a primitive basis.  Returns ``[]``
    when the matrix has full column rank.
    """
    A = [_as_int_row(row) for row in rows]
    r = len(A)
    if r == 0:
        raise ValueError("matrix must have at least one row")
    c = len(A[0])
    B = [[A[i][j] for i in range(r)] for j in range(c)]  # transpose, c x r
    H, U = hnf(B)
    basis = [U[i] for i in range(c) if all(x == 0 for x in H[i])]
    return [list(b) for b in basis]


def mat_vec(rows, vec) -> list:
    return [sum(a * x for a, x in zip(row, vec)) for row in rows]


def hnf_basis_key(vectors: list[list[int]]) -> tuple:
    """Canonical form of the lattice spanned by ``vectors`` (for comparisons)."""
    if not vectors:
        return ()
    H, _ = hnf(vectors)
    return tuple(tuple(row) for row in H if any(row))


# ---------------------------------------------------------------------------
# weighted lattice reduction (pre-conditioning for the enumeration)
# ---------------------------------------------------------------------------


def lll_reduce(basis: list[list[int]], weights: list[int] | None = None) -> list[list[int]]:
    """LLL-reduce ``basis`` in the metric ``<x, y> = sum w_i^2 x_i y_i``.

    Exact rational arithmetic throughout (delta = 3/4).  The returned vectors
    span the same lattice; reduction only tightens the enumeration radius in
    the solver, it never changes any answer.
    """
    b = [list(v) for v in basis]
    d = len(b)
    if d <= 1:
        return b
    w2 = [1] * len(b[0]) if weights is None else [int(w) ** 2 for w in weights]
    delta = Fraction(3, 4)

    def gso():
        # straightforward exact Gram-Schmidt in the weighted metric
        mu = [[Fraction(0)] * d for _ in range(d)]
        norms = [Fraction(0)] * d
        gs = [[Fraction(0)] * len(b[0]) for _ in range(d)]
        for i in range(d):
            gs[i] = [Fraction(x) for x in b[i]]
            for j in range(i):
                if norms[j] == 0:
                    mu[i][j] = Fraction(0)
                    continue
                num = sum(Fraction(wi) * Fraction(x) * g for wi, x, g in zip(w2, b[i], gs[j]))
                mu[i][j] = num / norms[j]
                gs[i] = [x - mu[i][j] * g for x, g in zip(gs[i], gs[j])]
            norms[i] = sum(Fraction(wi) * x * x for wi, x in zip(w2, gs[i]))
        return mu, norms

    mu, norms = gso()
    k = 1
    while k < d:
        for j in range(k - 1, -1, -1):
            q = _round_half_even(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                mu, norms = gso()
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            mu, norms = gso()
            k = max(k - 1, 1)
    return b


def _round_half_even(x: Fraction) -> int:
    fl = x.numerator // x.denominator
    rem = x - fl
    if rem > Fraction(1, 2):
        return fl + 1
    if rem < Fraction(1, 2):
        return fl
    return fl + (fl % 2)
