"""Exact integer/rational linear algebra: echelon rank, Hermite normal form,
kernels, and weighted LLL over an exact ``L D L^T`` of the Gram matrix.

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


def weighted_gram(basis, weights=None) -> Matrix:
    """Integer Gram matrix of ``basis`` under ``<x, y> = sum w_i^2 x_i y_i``."""
    w2 = [1] * len(basis[0]) if weights is None else [int(w) ** 2 for w in weights]
    return [[sum(w * x * y for w, x, y in zip(w2, bi, bj)) for bj in basis] for bi in basis]


def gram_ldl(G):
    """Exact ``L D L^T`` factorization of a positive-definite Gram matrix.

    ``L`` is unit lower triangular and ``D`` diagonal, both as Fractions: for
    the Gram matrix of a basis, ``L[i][j]`` (j < i) are the Gram-Schmidt
    coefficients and ``D`` the squared Gram-Schmidt norms.  Raises
    ``ArithmeticError`` on a non-positive pivot (dependent vectors).
    """
    d = len(G)
    L = [[Fraction(0)] * d for _ in range(d)]
    D = [Fraction(0)] * d
    for i in range(d):
        for j in range(i):
            s = Fraction(G[i][j])
            for t in range(j):
                s -= L[i][t] * L[j][t] * D[t]
            L[i][j] = s / D[j]
        s = Fraction(G[i][i])
        for t in range(i):
            s -= L[i][t] * L[i][t] * D[t]
        if s <= 0:
            raise ArithmeticError("basis vectors are not independent")
        D[i] = s
        L[i][i] = Fraction(1)
    return L, D


def lll_reduce(basis: list[list[int]], weights: list[int] | None = None) -> list[list[int]]:
    """LLL-reduce ``basis`` in the metric ``<x, y> = sum w_i^2 x_i y_i``.

    The vectors must be linearly independent (``ArithmeticError`` otherwise).
    The Gram-Schmidt coefficients ``mu`` and squared norms come from one exact
    :func:`gram_ldl` of the integer Gram matrix and are then updated in place
    under size reduction and swaps (Cohen, Alg. 2.6.3; delta = 3/4).  The
    returned vectors span the same lattice; reduction only tightens the
    enumeration radius in the solver, it never changes any answer.
    """
    b = [list(v) for v in basis]
    d = len(b)
    if d <= 1:
        return b
    mu, norms = gram_ldl(weighted_gram(b, weights))
    delta = Fraction(3, 4)

    k = 1
    while k < d:
        mu_k = mu[k]
        for j in range(k - 1, -1, -1):
            q = round(mu_k[j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                mu_j = mu[j]
                for t in range(j):
                    mu_k[t] -= mu_j[t] * q
                mu_k[j] -= q
        m = mu_k[k - 1]
        if norms[k] >= (delta - m * m) * norms[k - 1]:
            k += 1
            continue
        # swap b[k-1] and b[k]: only rows k-1, k and columns k-1, k of mu move
        b[k], b[k - 1] = b[k - 1], b[k]
        old = norms[k - 1]
        norms[k - 1] = norms[k] + m * m * old
        mu_k[k - 1] = m * old / norms[k - 1]
        norms[k] = old * norms[k] / norms[k - 1]
        mu_prev = mu[k - 1]
        for t in range(k - 1):
            mu_k[t], mu_prev[t] = mu_prev[t], mu_k[t]
        m_new = mu_k[k - 1]
        for i in range(k + 1, d):
            mu_i = mu[i]
            t = mu_i[k]
            mu_i[k] = mu_i[k - 1] - m * t
            mu_i[k - 1] = t + m_new * mu_i[k]
        k = max(k - 1, 1)
    return b
