"""Exact rank, Hermite normal form, and kernel-lattice routines."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symdesign import charge_matrix, kernel_lattice, rank_exact, sectors, U1, zp
from symdesign.intlinalg import _exact_div, hnf, hnf_basis_key, lll_reduce, mat_vec


def rank_rational(rows) -> int:
    """Naive rational Gaussian elimination, the reference for rank_exact."""
    M = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    col = 0
    ncols = len(M[0]) if M else 0
    while rank < len(M) and col < ncols:
        piv = next((i for i in range(rank, len(M)) if M[i][col]), None)
        if piv is None:
            col += 1
            continue
        M[rank], M[piv] = M[piv], M[rank]
        for i in range(len(M)):
            if i != rank and M[i][col]:
                f = M[i][col] / M[rank][col]
                M[i] = [a - f * b for a, b in zip(M[i], M[rank])]
        rank += 1
        col += 1
    return rank


small_matrix = st.integers(1, 6).flatmap(
    lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-30, 30), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


class TestRank:
    def test_identity(self):
        eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
        assert rank_exact(eye) == 4

    def test_u1_rank_example(self):
        assert rank_exact(charge_matrix(sectors(U1, 6), 2).rows) == 3

    def test_zp_even_rank_example(self):
        assert rank_exact(charge_matrix(sectors(zp(4), 7), 4).rows) == 3

    def test_against_rational_elimination_1000(self):
        rng = random.Random(20240901)
        for _ in range(1000):
            r = rng.randint(1, 8)
            c = rng.randint(1, 8)
            m = [[rng.randint(-100, 100) for _ in range(c)] for _ in range(r)]
            assert rank_exact(m) == rank_rational(m)

    def test_fraction_entries(self):
        m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]]
        assert rank_exact(m) == rank_rational(m)

    @given(small_matrix)
    @settings(max_examples=200, deadline=None)
    def test_matches_rational_elimination(self, m):
        assert rank_exact(m) == rank_rational(m)


class TestHnf:
    def test_identity(self):
        eye = [[1, 0], [0, 1]]
        H, U = hnf(eye)
        assert H == eye and U == eye

    def test_zero_matrix(self):
        H, U = hnf([[0, 0], [0, 0]])
        assert H == [[0, 0], [0, 0]]
        assert U == [[1, 0], [0, 1]]

    def test_2x2_example(self):
        A = [[2, 4], [1, 3]]
        H, U = hnf(A)
        # H = U @ A exactly
        for i in range(2):
            for j in range(2):
                assert H[i][j] == sum(U[i][t] * A[t][j] for t in range(2))
        # echelon with positive pivots and reduced entries above
        assert H[0][0] > 0 and H[1][0] == 0 and H[1][1] > 0
        assert 0 <= H[0][1] < H[1][1]
        det_u = U[0][0] * U[1][1] - U[0][1] * U[1][0]
        assert det_u in (1, -1)

    @given(small_matrix)
    @settings(max_examples=150, deadline=None)
    def test_round_trip_and_unimodularity(self, A):
        H, U = hnf(A)
        r, c = len(A), len(A[0])
        for i in range(r):
            for j in range(c):
                assert H[i][j] == sum(U[i][t] * A[t][j] for t in range(r))
        assert rank_exact(U) == r
        Hu, _ = hnf(U)
        # |det U| = 1: the HNF of a unimodular matrix is the identity
        assert Hu == [[1 if i == j else 0 for j in range(r)] for i in range(r)]


class TestKernelLattice:
    def brute_kernel_vectors(self, rows, bound):
        """All small integer kernel vectors, by exhaustion."""
        from itertools import product

        c = len(rows[0])
        found = []
        for q in product(range(-bound, bound + 1), repeat=c):
            if any(q) and all(sum(a * x for a, x in zip(row, q)) == 0 for row in rows):
                found.append(list(q))
        return found

    def test_u1_n3_k1_lattice(self):
        rows = charge_matrix(sectors(U1, 3), 1).rows
        basis = kernel_lattice(rows)
        assert len(basis) == 2
        assert rank_exact(rows) == 2
        # expected lattice frozen from the brute-force oracle below
        expected = [[1, 0, -1, 2], [0, 1, -2, 3]]
        assert hnf_basis_key(basis) == hnf_basis_key(expected)
        small = self.brute_kernel_vectors(rows, 3)
        assert [1, 0, -1, 2] in small and [0, 1, -2, 3] in small
        # every small kernel vector is in the lattice generated by the basis
        key = hnf_basis_key(basis)
        for q in small:
            assert hnf_basis_key(basis + [q]) == key

    def test_full_column_rank_empty(self):
        assert kernel_lattice([[1, 0], [0, 1], [1, 1]]) == []

    def test_z2_kernel(self):
        rows = charge_matrix(sectors(zp(2), 4), 2).rows
        basis = kernel_lattice(rows)
        assert hnf_basis_key(basis) == hnf_basis_key([[1, -1]])

    @given(small_matrix)
    @settings(max_examples=150, deadline=None)
    def test_basis_properties(self, A):
        basis = kernel_lattice(A)
        assert len(basis) + rank_exact(A) == len(A[0])
        for b in basis:
            assert any(b)
            assert all(x == 0 for x in mat_vec(A, b))


def weighted_dot(x, y, weights):
    return sum(w * w * a * b for w, a, b in zip(weights, x, y))


def weighted_gso(basis, weights):
    """Plain vector Gram-Schmidt in the weighted metric.

    Returns the reference ``mu``, the squared norms and the vectors ``b_i*``.
    """

    def dot(x, y):
        return weighted_dot(x, y, weights)

    d = len(basis)
    mu = [[Fraction(0)] * d for _ in range(d)]
    gs, norms = [], []
    for i, b in enumerate(basis):
        v = [Fraction(x) for x in b]
        for j in range(i):
            mu[i][j] = dot(b, gs[j]) / norms[j]
            v = [x - mu[i][j] * g for x, g in zip(v, gs[j])]
        gs.append(v)
        norms.append(dot(v, v))
    return mu, norms, gs


def random_kernel_bases(seed, count, min_dim=2):
    """Seeded ``(basis, weights)`` pairs: kernels of random integer matrices."""
    rng = random.Random(seed)
    while count:
        c = rng.randint(3, 9)
        A = [[rng.randint(-20, 20) for _ in range(c)] for _ in range(rng.randint(1, c - 2))]
        basis = kernel_lattice(A)
        if len(basis) >= min_dim:
            count -= 1
            yield basis, [rng.randint(1, 1000) for _ in range(c)]


class TestIntegralGramSchmidt:
    def test_matches_vector_gram_schmidt(self):
        for basis, weights in random_kernel_bases(7, 40, min_dim=1):
            reduced, d, lam = lll_reduce(basis, weights)
            mu, norms, _ = weighted_gso(reduced, weights)
            assert len(d) == len(reduced) + 1 and d[0] == 1
            assert all(type(x) is int for x in d)
            for i in range(len(reduced)):
                assert d[i + 1] == d[i] * norms[i]
                assert len(lam[i]) == i
                for j in range(i):
                    assert type(lam[i][j]) is int and lam[i][j] == mu[i][j] * d[j + 1]

    def test_empty_basis(self):
        assert lll_reduce([]) == ([], [1], [])

    def test_inexact_division_raises(self):
        with pytest.raises(ArithmeticError):
            _exact_div(7, 2)

    def test_zero_vector_raises(self):
        with pytest.raises(ArithmeticError):
            lll_reduce([[0, 0, 0]])


def lll_reduce_refactoring(basis, weights=None):
    """Reference LLL that recomputes the Gram-Schmidt data after every step.

    Same moves as :func:`lll_reduce` in rational arithmetic, but ``mu`` and the
    norms come from a fresh :func:`weighted_gso` of the current vectors each
    time, so the integral in-place updates of the library routine must
    reproduce its bases exactly.
    """
    b = [list(v) for v in basis]
    d = len(b)
    if d <= 1:
        return b
    w = [1] * len(b[0]) if weights is None else weights
    delta = Fraction(3, 4)
    k = 1
    while k < d:
        # size reduction moves b[k] by vectors of b[:k], so no b_j* (j <= k)
        # changes; mu[k][j] is read afresh from the current b[k]
        _, norms, gs = weighted_gso(b[: k + 1], w)
        for j in range(k - 1, -1, -1):
            q = round(weighted_dot(b[k], gs[j], w) / norms[j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
        m = weighted_dot(b[k], gs[k - 1], w) / norms[k - 1]
        if norms[k] >= (delta - m * m) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            k = max(k - 1, 1)
    return b


class TestLllReduce:
    def test_size_reduced_and_lovasz(self):
        for basis, weights in random_kernel_bases(20240901, 40):
            reduced, _, _ = lll_reduce(basis, weights)
            assert hnf_basis_key(reduced) == hnf_basis_key(basis)
            mu, norms, _ = weighted_gso(reduced, weights)
            for i in range(1, len(reduced)):
                assert all(abs(mu[i][j]) <= Fraction(1, 2) for j in range(i))
                assert norms[i] >= (Fraction(3, 4) - mu[i][i - 1] ** 2) * norms[i - 1]

    def test_matches_full_refactoring(self):
        # kernel dimension 2..10 under weights up to 10^6; every fifth unweighted
        rng = random.Random(20261018)
        count = 0
        while count < 200:
            dim = rng.randint(2, 10)
            c = dim + rng.randint(1, 2)
            A = [[rng.randint(-2, 2) for _ in range(c)] for _ in range(c - dim)]
            basis = kernel_lattice(A)
            if len(basis) != dim:
                continue
            weights = None if count % 5 == 0 else [rng.randint(1, 10**6) for _ in range(c)]
            assert lll_reduce(basis, weights)[0] == lll_reduce_refactoring(basis, weights)
            count += 1

    def test_ties_round_to_even(self):
        # mu = 5/2 rounds to 2, as round(Fraction) does; rounding half up
        # would give [[-1, 1], [1, 1]]
        basis = [[2, 0], [5, 1]]
        assert lll_reduce(basis)[0] == [[1, 1], [1, -1]]
        assert lll_reduce_refactoring(basis) == [[1, 1], [1, -1]]

    def test_dependent_vectors_raise(self):
        with pytest.raises(ArithmeticError):
            lll_reduce([[1, 0, 2], [2, 0, 4]], [1, 2, 3])

    @pytest.mark.parametrize("weights", [None, [5, 1, 7]])
    def test_dependent_basis_raises(self, weights):
        # the third vector is the sum of the first two
        with pytest.raises(ArithmeticError):
            lll_reduce([[1, 2, 3], [0, 1, 1], [1, 3, 4]], weights)

    @given(small_matrix)
    @settings(max_examples=60, deadline=None)
    def test_preserves_kernel_lattices(self, A):
        basis = kernel_lattice(A)
        if not basis:
            return
        reduced, _, _ = lll_reduce(basis, [1] * len(A[0]))
        assert hnf_basis_key(reduced) == hnf_basis_key(basis)

    def test_weighted_reduction_shortens(self):
        basis = [[1, 0, -1, 2], [0, 1, -2, 3]]
        reduced, _, _ = lll_reduce(basis, [1, 3, 3, 1])
        assert hnf_basis_key(reduced) == hnf_basis_key(basis)
