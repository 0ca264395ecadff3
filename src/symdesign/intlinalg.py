"""Exact integer linear algebra: one incremental echelon, the only rank and
kernel-basis routine, and one incremental integral weighted LLL.

:class:`ReducedLattice` keeps an LLL-reduced basis with its integer
Gram-Schmidt state (leading Gram minors ``d``, ``lam = mu * d``) and the
integral Gram-Schmidt vectors ``d[j] * b_j*`` that the solver's enumeration
and its Hölder level bound read.  It grows by one vector at a time, reduced
from its new index on, and by coordinates on which every stored vector is
zero, so the prefix scan keeps one lattice for all its kernels.
:func:`lll_reduce` builds one by inserting a whole basis in turn.

Rows of ints, Fractions or floats become exact integer multiples through
:func:`as_int_row`.  Entries of the charge matrices grow like binomial
coefficients, so everything here is arbitrary precision; no floating point
arithmetic is used anywhere in this module.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul


def as_int_row(row) -> list[int]:
    """``row`` read exactly (floats too) and scaled by the lcm of its denominators.

    Scaling a vector by a positive integer changes neither the span it adds
    to nor the kernel of a matrix it is a row of.  A ``bool`` entry raises
    ``ValueError``: its True would pass for 1.
    """
    if all(type(x) is int for x in row):
        return list(row)
    if bool in map(type, row):
        raise ValueError(f"row entries must be numbers, not bool: {list(row)!r}")
    from fractions import Fraction  # an all-integer row never loads it

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

    Every vector has the length of the first one added; a vector of another
    length raises ``ValueError`` (the steps would otherwise drop its tail).
    """

    def __init__(self):
        self.pivots: list[tuple[int, list[int], list[int]]] = []
        self.relations: list[list[int]] = []
        self.length: int | None = None  # of every vector, set by the first one added

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, vec) -> bool:
        """Reduce the integer vector ``vec``; True if the rank grew, else it gave a relation."""
        v = list(vec)
        if self.length is None:
            self.length = len(v)
        elif len(v) != self.length:
            raise ValueError(f"vector of length {len(v)} added to an echelon of length {self.length}")
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


# every division of the integral Gram-Schmidt state is exact in theory; each
# one checks its remainder and raises this if it is not
_INEXACT = "an integral Gram-Schmidt division is not exact"


def _round_div(a: int, b: int) -> int:
    """``round(a / b)`` for ``b > 0``, ties to even as ``round(Fraction)``."""
    q, r = divmod(a, b)
    r *= 2
    return q + 1 if r > b or (r == b and q & 1) else q


class ReducedLattice:
    """An LLL-reduced basis that grows one vector and one coordinate block at a time.

    The metric is ``<x, y> = sum w_i^2 x_i y_i`` for positive integer weights
    ``w``.  The state is the integral LLL's (Cohen, Alg. 2.6.7; de Weger
    1987): the reduced ``basis``, its leading Gram minors ``d[0] = 1``,
    ``d[i+1] = d[i] * |b_i*|^2`` and ``lam[i][j] = mu_ij * d[j+1]`` (j < i),
    all integers, every division checked exact.  The moves are those of the
    rational LLL with delta = 3/4, ``round(mu)`` tying to even.
    """

    def __init__(self, weights):
        self.weights: list[int] = []
        self._w2: list[int] = []
        self.basis: list[list[int]] = []
        self.d = [1]
        self.lam: list[list[int]] = []
        self._g: list[list[int]] = []  # the integral Gram-Schmidt vectors still valid
        self.extend(weights)

    def extend(self, weights):
        """Append coordinates with the given weights, zero on every stored vector.

        No inner product changes, so ``d``, ``lam`` and every ``b_j*`` stay.
        """
        weights = list(weights)
        # type(w) is int also rejects bool, whose True would pass for 1
        if any(type(w) is not int for w in weights):
            raise ValueError("weights must be integers")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        self.weights += weights
        self._w2 += [w * w for w in weights]
        pad = [0] * len(weights)
        for v in self.basis + self._g:
            v += pad

    def insert(self, vec) -> None:
        """Add ``vec`` to the lattice and LLL-reduce the basis again.

        The basis before it is reduced, which is the state the batch algorithm
        reaches when its index first gets to a new vector, so the loop starts
        there.  ``vec`` must be independent of the basis (``ArithmeticError``
        otherwise).
        """
        b, d, lam = self.basis, self.d, self.lam
        v = list(vec)
        if len(v) != len(self.weights):
            raise ValueError("the vector and the weights differ in length")
        wv = [w * x for w, x in zip(self._w2, v)]
        n = len(b)
        # the fraction-free Gram-Schmidt row of v from its inner products
        lam_n: list[int] = []
        for j in range(n + 1):
            u = sum(map(mul, wv, b[j] if j < n else v))
            lam_j = lam[j] if j < n else lam_n
            for i in range(j):
                u, r = divmod(d[i + 1] * u - lam_n[i] * lam_j[i], d[i])
                if r:
                    raise ArithmeticError(_INEXACT)
            if j < n:
                lam_n.append(u)
        if u <= 0:
            raise ArithmeticError("basis vectors are not independent")
        b.append(v)
        d.append(u)
        lam.append(lam_n)
        n += 1

        low = n - 1  # the lowest index whose b_j* may have changed
        k = max(low, 1)
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
            new_mid, r = divmod(d_lo * d_hi + m * m, d_mid)
            if r:
                raise ArithmeticError(_INEXACT)
            for i in range(k + 1, n):
                lam_i = lam[i]
                t = lam_i[k]
                lam_i[k], r = divmod(d_hi * lam_i[k - 1] - m * t, d_mid)
                lam_i[k - 1], r2 = divmod(new_mid * t + m * lam_i[k], d_hi)
                if r or r2:
                    raise ArithmeticError(_INEXACT)
            d[k] = new_mid
            low = min(low, k - 1)
            k = max(k - 1, 1)
        # size reduction never moves a b_j*, so only swapped indices go stale
        del self._g[low:]

    def gso_vectors(self) -> list[list[int]]:
        """The integral Gram-Schmidt vectors ``g_j = d[j] * b_j*`` of the basis.

        Only those from the lowest index a swap touched since the last call
        are computed again.  From ``u = b_j`` the fraction-free recurrence
        ``u <- (d[t+1] * u - lam[j][t] * g_t) / d[t]`` for ``t < j`` keeps
        ``u`` equal to ``d[t+1]`` times the part of ``b_j`` orthogonal to
        ``b_0 .. b_t``, an integer vector, so every division is exact
        (``ArithmeticError`` otherwise) and ``u`` ends as ``g_j``.
        """
        g, d = self._g, self.d
        for j in range(len(g), len(self.basis)):
            u, lam_j = self.basis[j], self.lam[j]
            for t in range(j):
                a, c, e = d[t + 1], lam_j[t], d[t]
                v = []
                for x, y in zip(u, g[t]):
                    q, r = divmod(a * x - c * y, e)
                    if r:
                        raise ArithmeticError(_INEXACT)
                    v.append(q)
                u = v
            g.append(list(u))
        return g


def lll_reduce(basis: list[list[int]], weights: list[int]) -> ReducedLattice:
    """Integral LLL of ``basis`` in the metric ``<x, y> = sum w_i^2 x_i y_i``.

    Returns the :class:`ReducedLattice` that the vectors were inserted into
    in turn.  The vectors must be independent (``ArithmeticError``
    otherwise); the reduced ones span the same lattice, so reduction never
    changes a solver answer.
    """
    lattice = ReducedLattice(weights)
    for v in basis:
        lattice.insert(v)
    return lattice
