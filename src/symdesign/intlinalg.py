"""Exact integer linear algebra: one incremental echelon, the only rank and
kernel-basis routine, and the integral weighted LLL, which returns its integer
Gram-Schmidt state (leading Gram minors ``d``, ``lam = mu * d``) for the
solver's enumeration.  From that state :func:`integral_gso_vectors` gives the
integral Gram-Schmidt vectors ``d[j] * b_j*`` by exact divisions, which the
enumeration's Hölder level bound reads.

Rows of ints, Fractions or floats become exact integer multiples through
:func:`as_int_row`.  Entries of the charge matrices grow like binomial
coefficients, so everything here is arbitrary precision; no floating point
arithmetic is used anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Matrix = list[list[int]]


def as_int_row(row) -> list[int]:
    """``row`` read exactly (floats too) and scaled by the lcm of its denominators.

    Scaling a vector by a positive integer changes neither the span it adds
    to nor the kernel of a matrix it is a row of.
    """
    if all(type(x) is int for x in row):
        return list(row)
    fracs = [Fraction(x) for x in row]
    scale = lcm(*(x.denominator for x in fracs))
    return [int(x * scale) for x in fracs]


class Echelon:
    """Incremental integer echelon of the vectors ``v_j`` added so far.

    Each pivot ``(i, h, u)`` has ``h == sum_j u[j] v_j`` and is zero at the
    positions of the pivots before it.  A new vector is reduced against them
    by unimodular Euclidean steps, which may rewrite a pivot (Cohen, Sec.
    2.4); if it reaches zero, its transform is a relation.  The transform
    stays unimodular, so the relations are a basis of the integer kernel of
    the ``v_j`` as columns, and each new vector adds at most one relation.
    Each relation ends at the index of the vector that made it, so reducing a
    new one by the others from the last index down keeps a basis, and keeps
    its entries small instead of compounding.
    """

    def __init__(self):
        self.pivots: list[tuple[int, list[int], list[int]]] = []
        self.relations: list[list[int]] = []

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, vec) -> bool:
        """Reduce the integer vector ``vec``; True if the rank grew, else it gave a relation."""
        v = list(vec)
        w = [0] * (len(self.pivots) + len(self.relations)) + [1]
        for slot, (i, h, u) in enumerate(self.pivots):
            if v[i]:
                g = gcd(h[i], v[i])
                a, b = h[i] // g, v[i] // g
                u += [0] * (len(w) - len(u))
                if abs(a) > 1:
                    # the pivot becomes g = s h[i] + t v[i]: the step
                    # [[s, t], [-b, a]] has determinant s a + t b = 1
                    t = pow(b, -1, abs(a))
                    s = (1 - t * b) // a
                    self.pivots[slot] = (i, _combine(s, h, t, v), _combine(s, u, t, w))
                v, w = _combine(a, v, -b, h), _combine(a, w, -b, u)
        for i, x in enumerate(v):
            if x:
                self.pivots.append((i, v, w))
                return True
        for r in reversed(self.relations):
            q = w[len(r) - 1] // r[-1]
            if q:
                w = _combine(1, w, -q, r) + w[len(r) :]
        self.relations.append(w)
        return False

    def kernel_basis(self) -> list[list[int]]:
        """The relations zero-padded to the number of vectors added so far."""
        n = len(self.pivots) + len(self.relations)
        return [r + [0] * (n - len(r)) for r in self.relations]


def _combine(a: int, x: list[int], b: int, y: list[int]) -> list[int]:
    return [a * p + b * q for p, q in zip(x, y)]


def rank_exact(rows) -> int:
    """Rank over the rationals: the rank of an :class:`Echelon` fed every row."""
    ech = Echelon()
    for row in rows:
        ech.add(as_int_row(row))
    return ech.rank


# ---------------------------------------------------------------------------
# weighted lattice reduction (pre-conditioning for the enumeration)
# ---------------------------------------------------------------------------


def weighted_gram(basis, weights=None) -> Matrix:
    """Integer Gram matrix of ``basis`` under ``<x, y> = sum w_i^2 x_i y_i``."""
    if weights is None:
        w2 = [1] * len(basis[0])
    else:
        # type(w) is int also rejects bool, whose True would pass for 1
        if any(type(w) is not int for w in weights):
            raise ValueError("weights must be integers")
        w2 = [w * w for w in weights]
    return [[sum(w * x * y for w, x, y in zip(w2, bi, bj)) for bj in basis] for bi in basis]


def _exact_div(a: int, b: int) -> int:
    """``a / b`` for a division the theory says is exact; ``ArithmeticError`` if not."""
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("an integral Gram-Schmidt division is not exact")
    return q


def _round_div(a: int, b: int) -> int:
    """``round(a / b)`` for ``b > 0``, ties to even as ``round(Fraction)``."""
    q, r = divmod(a, b)
    r *= 2
    return q + 1 if r > b or (r == b and q & 1) else q


def lll_reduce(
    basis: list[list[int]], weights: list[int] | None = None
) -> tuple[list[list[int]], list[int], list[list[int]]]:
    """Integral LLL of ``basis`` in the metric ``<x, y> = sum w_i^2 x_i y_i``.

    Returns ``(reduced, d, lam)``: the leading Gram minors ``d[0] = 1``,
    ``d[i+1] = d[i] * |b_i*|^2`` and ``lam[i][j] = mu_ij * d[j+1]`` (j < i) of
    the reduced basis, all integers (Cohen, Alg. 2.6.7; de Weger 1987).  They
    come once from the integer Gram matrix and are updated in place under size
    reduction and swaps, every division checked exact.  The moves are those of
    the rational LLL with delta = 3/4, ``round(mu)`` tying to even.  The vectors
    must be independent (``ArithmeticError`` otherwise); the reduced ones span
    the same lattice, so reduction never changes a solver answer.
    """
    b = [list(v) for v in basis]
    n = len(b)
    G = weighted_gram(b, weights) if n else []
    d = [1]
    lam: list[list[int]] = []
    for k in range(n):
        lam_k: list[int] = []
        for j in range(k + 1):
            u = G[k][j]
            lam_j = lam[j] if j < k else lam_k
            for i in range(j):
                u = _exact_div(d[i + 1] * u - lam_k[i] * lam_j[i], d[i])
            if j < k:
                lam_k.append(u)
        if u <= 0:
            raise ArithmeticError("basis vectors are not independent")
        d.append(u)
        lam.append(lam_k)

    k = 1
    while k < n:
        lam_k = lam[k]
        for j in range(k - 1, -1, -1):
            q = _round_div(lam_k[j], d[j + 1])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                lam_j = lam[j]
                for t in range(j):
                    lam_k[t] -= q * lam_j[t]
                lam_k[j] -= q * d[j + 1]
        m = lam_k[k - 1]
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] * d[k] - 4 * m * m:
            k += 1
            continue
        # swap b[k-1] and b[k]: lam[k][k-1] and every d but d[k] stay put
        b[k], b[k - 1] = b[k - 1], b[k]
        lam_prev = lam[k - 1]
        for t in range(k - 1):
            lam_k[t], lam_prev[t] = lam_prev[t], lam_k[t]
        d_lo, d_mid, d_hi = d[k - 1], d[k], d[k + 1]
        new_mid = _exact_div(d_lo * d_hi + m * m, d_mid)
        for i in range(k + 1, n):
            lam_i = lam[i]
            t = lam_i[k]
            lam_i[k] = _exact_div(d_hi * lam_i[k - 1] - m * t, d_mid)
            lam_i[k - 1] = _exact_div(new_mid * t + m * lam_i[k], d_hi)
        d[k] = new_mid
        k = max(k - 1, 1)
    return b, d, lam


def integral_gso_vectors(basis, d, lam) -> list[list[int]]:
    """The integral Gram-Schmidt vectors ``g_j = d[j] * b_j*`` of an LLL result.

    ``(basis, d, lam)`` is what :func:`lll_reduce` returns.  From ``u = b_j``
    the fraction-free recurrence ``u <- (d[t+1] * u - lam[j][t] * g_t) / d[t]``
    for ``t < j`` keeps ``u`` equal to ``d[t+1]`` times the part of ``b_j``
    orthogonal to ``b_0 .. b_t``, an integer vector, so every division is
    exact (``ArithmeticError`` otherwise) and ``u`` ends as ``g_j``.
    """
    g: list[list[int]] = []
    for j, u in enumerate(basis):
        lam_j = lam[j]
        for t in range(j):
            a, c, e = d[t + 1], lam_j[t], d[t]
            u = [_exact_div(a * x - c * y, e) for x, y in zip(u, g[t])]
        g.append(list(u))
    return g
