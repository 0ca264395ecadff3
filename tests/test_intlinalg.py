"""Exact rank, the echelon kernel basis, and the integral weighted LLL."""

import random
from fractions import Fraction
from math import isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_ref import dot_rows, echelon_kernel, is_kernel_basis, rank_rational
from symdesign import charge_matrix, rank_exact, sectors, U1, zp
from symdesign.checks import kernel_vectors
from symdesign.intlinalg import Echelon, ReducedLattice, lll_reduce


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

    def test_float_entries_are_exact(self):
        # truncating 0.5 to 0 would report rank 0
        assert rank_exact([[0.5]]) == 1
        assert rank_exact([[0.5, 0.25], [2, 1]]) == 1

    @pytest.mark.parametrize("m", [[[1, 2], [1]], [[1], [1, 2]], [[0, 0], [1]]], ids=str)
    def test_ragged_rows_raise(self, m):
        # reduced by a zip to the shorter row, [[1, 2], [1]] read as rank 1
        with pytest.raises(ValueError, match="length"):
            rank_exact(m)


def check_echelon(A):
    """Feed the columns of ``A`` to one echelon, checking it after every column.

    The kernel basis must pass the independent saturation check on the column
    prefix, every pivot ``(i, h, u)`` must satisfy
    ``h == sum_j u[j] * column_j``, and each relation must be reduced by the
    earlier ones at their last indices.
    """
    cols = [list(col) for col in zip(*A)]
    ech = Echelon()
    for idx, col in enumerate(cols):
        ech.add(col)
        prefix = [row[: idx + 1] for row in A]
        basis = ech.kernel_basis()
        assert is_kernel_basis(prefix, basis)
        assert ech.rank + len(basis) == idx + 1
        for k, r in enumerate(ech.relations):
            assert r[-1] != 0
            for earlier in ech.relations[:k]:
                last = earlier[-1]
                assert 0 <= r[len(earlier) - 1] * last < last * last
        for i, h, u in ech.pivots:
            assert h[i] != 0
            combo = [0] * len(h)
            for x, v in zip(u, cols):
                combo = [a + x * b for a, b in zip(combo, v)]
            assert combo == h


class TestEchelonKernel:
    @given(small_matrix)
    @settings(max_examples=150, deadline=None)
    def test_kernel_basis_is_saturated(self, A):
        check_echelon(A)

    def test_kernel_basis_is_saturated_seeded(self):
        # sparse entries make dependent columns, and so kernel growth, common
        rng = random.Random(20261018)
        for _ in range(200):
            c = rng.randint(1, 9)
            A = [
                [rng.randint(-40, 40) if rng.random() < 0.6 else 0 for _ in range(c)]
                for _ in range(rng.randint(1, 6))
            ]
            check_echelon(A)

    def test_bezout_step_rewrites_the_pivot(self):
        # 3 does not divide 2: the pivot becomes gcd 1 and the kernel [2, -3]
        ech = Echelon()
        assert ech.add([3]) and not ech.add([2])
        assert [abs(h[0]) for _, h, _ in ech.pivots] == [1]
        assert ech.kernel_basis() in ([[2, -3]], [[-2, 3]])

    def test_relation_entries_stay_small(self):
        # without reducing each relation by the earlier ones these 7 x 11
        # matrices gave entries of about 800 to 4,600 bits; reduced, the
        # largest has 143 bits, within the Hadamard bound of A (at least 145)
        rng = random.Random(5)
        for _ in range(40):
            A = [[rng.randint(-(10**6), 10**6) for _ in range(11)] for _ in range(7)]
            ech = Echelon()
            for col in zip(*A):
                ech.add(col)
            hadamard = isqrt(prod(sum(x * x for x in row) for row in A))
            bits = max(abs(x) for b in ech.relations for x in b).bit_length()
            assert bits <= hadamard.bit_length()

    @pytest.mark.parametrize("first", [[1, 2], [0, 0]], ids=str)
    def test_vector_of_another_length_raises(self, first):
        # the length is fixed by the first vector, a zero one included
        ech = Echelon()
        ech.add(first)
        for other in ([1], [1, 2, 3]):
            with pytest.raises(ValueError, match="length"):
                ech.add(other)
        assert ech.rank + len(ech.relations) == 1  # the refused vectors left no trace
        assert ech.add([3, 4])

    def test_previous_basis_is_kept(self):
        ech = Echelon()
        ech.add([1, 1])
        ech.add([2, 2])
        first = ech.kernel_basis()
        ech.add([0, 1])
        ech.add([3, 3])
        assert ech.kernel_basis()[:1] == [first[0] + [0, 0]]


class TestKernelLattice:
    def test_u1_n3_k1_lattice(self):
        rows = charge_matrix(sectors(U1, 3), 1).rows
        basis = echelon_kernel(rows)
        assert len(basis) == 2
        assert rank_exact(rows) == 2
        # expected lattice frozen from the exhaustive oracle below
        expected = [[1, 0, -1, 2], [0, 1, -2, 3]]
        assert is_kernel_basis(rows, basis) and is_kernel_basis(rows, expected)
        # every kernel vector of one-norm <= 12, one of each +-q
        small = [list(q) for q in kernel_vectors(rows, [1, 1, 1, 1], 12)]
        assert [1, 0, -1, 2] in small and [0, 1, -2, 3] in small
        # a saturated basis holds every integer vector of its rational span
        for q in small:
            assert rank_rational(basis + [q]) == len(basis)

    def test_full_column_rank_empty(self):
        assert echelon_kernel([[1, 0], [0, 1], [1, 1]]) == []

    def test_float_entries_are_exact(self):
        # truncating 0.5 to 0 would return [[1, 0]], which is not in the kernel
        assert echelon_kernel([[0.5, -1.0]]) in ([[2, 1]], [[-2, -1]])

    def test_z2_kernel(self):
        rows = charge_matrix(sectors(zp(2), 4), 2).rows
        assert echelon_kernel(rows) in ([[1, -1]], [[-1, 1]])

    @given(small_matrix)
    @settings(max_examples=150, deadline=None)
    def test_basis_properties(self, A):
        basis = echelon_kernel(A)
        assert len(basis) + rank_exact(A) == len(A[0])
        for b in basis:
            assert any(b)
            assert all(x == 0 for x in dot_rows(A, b))

    def test_doubled_relation_is_not_a_basis(self):
        # in the kernel and of the right size, but of index 2: not saturated
        rows = charge_matrix(sectors(U1, 3), 1).rows
        assert not is_kernel_basis(rows, [[2, 0, -2, 4], [0, 1, -2, 3]])
        assert not is_kernel_basis(rows, [[1, 0, -1, 2]])
        assert not is_kernel_basis(rows, [[1, 0, -1, 2], [1, 1, 1, 1]])


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
    """Seeded ``(A, basis, weights)``: random integer matrices and their kernel bases."""
    rng = random.Random(seed)
    while count:
        c = rng.randint(3, 9)
        A = [[rng.randint(-20, 20) for _ in range(c)] for _ in range(rng.randint(1, c - 2))]
        basis = echelon_kernel(A)
        if len(basis) >= min_dim:
            count -= 1
            yield A, basis, [rng.randint(1, 1000) for _ in range(c)]


class TestIntegralGramSchmidt:
    def test_matches_vector_gram_schmidt(self):
        for _, basis, weights in random_kernel_bases(7, 40, min_dim=1):
            lattice = lll_reduce(basis, weights)
            reduced, d, lam = lattice.basis, lattice.d, lattice.lam
            mu, norms, _ = weighted_gso(reduced, weights)
            assert len(d) == len(reduced) + 1 and d[0] == 1
            assert all(type(x) is int for x in d)
            for i in range(len(reduced)):
                assert d[i + 1] == d[i] * norms[i]
                assert len(lam[i]) == i
                for j in range(i):
                    assert type(lam[i][j]) is int and lam[i][j] == mu[i][j] * d[j + 1]

    def test_integral_vectors_match_vector_gram_schmidt(self):
        for _, basis, weights in random_kernel_bases(7, 40, min_dim=1):
            lattice = lll_reduce(basis, weights)
            _, _, gs = weighted_gso(lattice.basis, weights)
            g = lattice.gso_vectors()
            assert len(g) == len(lattice.basis)
            for j, (g_j, b_star) in enumerate(zip(g, gs)):
                assert all(type(x) is int for x in g_j)
                assert g_j == [lattice.d[j] * x for x in b_star]

    def test_corrupted_lam_raises(self):
        # raising lam[j][j-1] by one moves the last step of g_j by -b*_{j-1},
        # so the division is inexact exactly when b*_{j-1} is not integral
        raised = 0
        for _, basis, weights in random_kernel_bases(7, 40, min_dim=2):
            lattice = lll_reduce(basis, weights)
            _, _, gs = weighted_gso(lattice.basis, weights)
            for j in range(1, len(basis)):
                if all(x.denominator == 1 for x in gs[j - 1]):
                    continue
                bad = lll_reduce(basis, weights)
                bad.lam[j][j - 1] += 1
                with pytest.raises(ArithmeticError):
                    bad.gso_vectors()
                raised += 1
        assert raised >= 20

    def test_empty_basis(self):
        lattice = lll_reduce([], [])
        assert (lattice.basis, lattice.d, lattice.lam, lattice.weights) == ([], [1], [], [])
        assert lattice.gso_vectors() == []

    def test_weighted_gram(self):
        # the Gram data come from <x, y> = sum w_i^2 x_i y_i: |(1, -1)|^2 = 4 + 9
        lattice = ReducedLattice([2, 3])
        lattice.insert([1, -1])
        assert lattice.d == [1, 13]
        # unit weights: <(1, 2), (0, 1)> = 2, then size reduction by 2 (0, 1)
        lattice = lll_reduce([[0, 1], [1, 2]], [1, 1])
        assert (lattice.basis, lattice.d, lattice.lam) == ([[0, 1], [1, 0]], [1, 1, 1], [[], [0]])

    @pytest.mark.parametrize("weights", [[2.5, 2.5], [2.0, 2], [True, 2], [Fraction(2), 2]])
    def test_non_int_weights_raise(self, weights):
        # int(2.5) ** 2 would silently give the Gram matrix for weight 2
        with pytest.raises(ValueError, match="weights must be integers"):
            ReducedLattice(weights)
        with pytest.raises(ValueError, match="weights must be integers"):
            ReducedLattice([1]).extend(weights)
        with pytest.raises(ValueError, match="weights must be integers"):
            lll_reduce([[1, -1]], weights)

    @pytest.mark.parametrize("weights", [[0, 2], [3, -1]])
    def test_non_positive_weights_raise(self, weights):
        with pytest.raises(ValueError, match="weights must be positive"):
            ReducedLattice(weights)
        lattice = ReducedLattice([1])
        with pytest.raises(ValueError, match="weights must be positive"):
            lattice.extend(weights)
        # a rejected extension leaves the lattice as it was
        assert lattice.weights == [1]

    def test_inexact_division_raises(self):
        # with d[1] raised from 1 to 2, the last Gram-Schmidt step of the new
        # row divides 1 by d[1]
        lattice = lll_reduce([[1, 0, 0], [0, 1, 0]], [1, 1, 1])
        lattice.d[1] = 2
        with pytest.raises(ArithmeticError, match="not exact"):
            lattice.insert([1, 1, 1])

    def test_zero_vector_raises(self):
        with pytest.raises(ArithmeticError):
            lll_reduce([[0, 0, 0]], [1, 1, 1])


def exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("an integral Gram-Schmidt division is not exact")
    return q


def lll_reduce_batch(basis, weights):
    """The integral LLL as one batch (Cohen, Alg. 2.6.7), with ``g_j = d[j] * b_j*``.

    The Gram-Schmidt state of the whole basis comes first from its weighted
    Gram matrix and the loop then runs from index 1; the integral
    Gram-Schmidt vectors are computed once at the end.  Inserting the vectors
    one by one into a :class:`ReducedLattice` must give the same
    ``(basis, d, lam, g)``.
    """
    b = [list(v) for v in basis]
    n = len(b)
    G = [[weighted_dot(x, y, weights) for y in b] for x in b]
    d, lam = [1], []
    for k in range(n):
        lam_k = []
        for j in range(k + 1):
            u = G[k][j]
            lam_j = lam[j] if j < k else lam_k
            for i in range(j):
                u = exact_div(d[i + 1] * u - lam_k[i] * lam_j[i], d[i])
            if j < k:
                lam_k.append(u)
        d.append(u)
        lam.append(lam_k)
    k = 1
    while k < n:
        lam_k = lam[k]
        for j in range(k - 1, -1, -1):
            q = round(Fraction(lam_k[j], d[j + 1]))
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                for t in range(j):
                    lam_k[t] -= q * lam[j][t]
                lam_k[j] -= q * d[j + 1]
        m = lam_k[k - 1]
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] * d[k] - 4 * m * m:
            k += 1
            continue
        b[k], b[k - 1] = b[k - 1], b[k]
        for t in range(k - 1):
            lam_k[t], lam[k - 1][t] = lam[k - 1][t], lam_k[t]
        d_lo, d_mid, d_hi = d[k - 1], d[k], d[k + 1]
        new_mid = exact_div(d_lo * d_hi + m * m, d_mid)
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = exact_div(d_hi * lam[i][k - 1] - m * t, d_mid)
            lam[i][k - 1] = exact_div(new_mid * t + m * lam[i][k], d_hi)
        d[k] = new_mid
        k = max(k - 1, 1)
    g = []
    for j, u in enumerate(b):
        for t in range(j):
            u = [exact_div(d[t + 1] * x - lam[j][t] * y, d[t]) for x, y in zip(u, g[t])]
        g.append(list(u))
    return b, d, lam, g


def check_reduced_state(lattice):
    """``d``, ``lam`` and ``g`` against the Fraction Gram-Schmidt; size reduction and Lovász."""
    basis, d, lam = lattice.basis, lattice.d, lattice.lam
    mu, norms, gs = weighted_gso(basis, lattice.weights)
    assert len(d) == len(basis) + 1 and d[0] == 1
    g = lattice.gso_vectors()
    for i in range(len(basis)):
        assert d[i + 1] == d[i] * norms[i]
        assert lam[i] == [mu[i][j] * d[j + 1] for j in range(i)]
        assert g[i] == [d[i] * x for x in gs[i]]
        assert all(abs(mu[i][j]) <= Fraction(1, 2) for j in range(i))
        if i:
            assert norms[i] >= (Fraction(3, 4) - mu[i][i - 1] ** 2) * norms[i - 1]


def hoelder_caps(lattice):
    return [max(w * abs(x) for w, x in zip(lattice.weights, g)) for g in lattice.gso_vectors()]


class TestReducedLattice:
    def test_insertion_matches_batch_lll(self):
        # 1,200 seeded bases of dimension 2..7 under weights up to 1000
        for seed in range(30):
            for _, basis, weights in random_kernel_bases(seed, 40):
                lattice = lll_reduce(basis, weights)
                reduced, d, lam, g = lll_reduce_batch(basis, weights)
                assert (lattice.basis, lattice.d, lattice.lam) == (reduced, d, lam)
                assert lattice.gso_vectors() == g

    def test_every_insert_is_reduced(self):
        for A, basis, weights in random_kernel_bases(20261018, 40):
            lattice = ReducedLattice(weights)
            for v in basis:
                lattice.insert(v)
                check_reduced_state(lattice)
            assert is_kernel_basis(A, lattice.basis)

    def test_extend_keeps_the_state(self):
        rng = random.Random(11)
        for _, basis, weights in random_kernel_bases(3, 40):
            lattice = lll_reduce(basis[:-1], weights)
            d, lam, caps = list(lattice.d), [list(r) for r in lattice.lam], hoelder_caps(lattice)
            more = [rng.randint(1, 1000) for _ in range(rng.randint(1, 3))]
            lattice.extend(more)
            pad = [0] * len(more)
            assert lattice.weights == weights + more
            assert lattice.d == d and lattice.lam == lam and hoelder_caps(lattice) == caps
            assert all(len(v) == len(lattice.weights) for v in lattice.basis + lattice.gso_vectors())
            check_reduced_state(lattice)
            # the padded vectors have the same inner products, so the same moves
            new = basis[-1] + [rng.randint(-5, 5) for _ in more]
            lattice.insert(new)
            cold = lll_reduce([v + pad for v in basis[:-1]] + [new], weights + more)
            assert (lattice.basis, lattice.d, lattice.lam) == (cold.basis, cold.d, cold.lam)
            assert lattice.gso_vectors() == cold.gso_vectors()

    @pytest.mark.parametrize("weights", [[1, 1, 1], [5, 1, 7]])
    def test_dependent_insert_raises(self, weights):
        lattice = lll_reduce([[1, 2, 3], [0, 1, 1]], weights)
        state = ([list(v) for v in lattice.basis], list(lattice.d), [list(r) for r in lattice.lam])
        for v in ([1, 3, 4], [2, 4, 6], [0, 0, 0]):
            with pytest.raises(ArithmeticError):
                lattice.insert(v)
        assert (lattice.basis, lattice.d, lattice.lam) == state

    def test_length_mismatch_raises(self):
        lattice = ReducedLattice([1, 2])
        with pytest.raises(ValueError, match="length"):
            lattice.insert([1, 2, 3])


def lll_reduce_refactoring(basis, weights=None):
    """Reference LLL that recomputes the Gram-Schmidt data after every step.

    Same moves as :func:`lll_reduce`, but the Gram-Schmidt data of the current
    vectors come afresh each time from a fraction-free Gram-Schmidt of their
    weighted dot products (leading Gram minors ``d`` and ``lam = mu * d``), and
    every decision is taken in rational arithmetic, so the integral in-place
    updates of the library routine must reproduce its bases exactly.
    """
    b = [list(v) for v in basis]
    n = len(b)
    if n <= 1:
        return b
    w = [1] * len(b[0]) if weights is None else weights
    delta = Fraction(3, 4)
    d = [1]
    lam = []

    def gso_row(k):
        # d[k+1] and lam[k] from the dot products of b[k] with b[:k+1]; the
        # rows before k are those of the current b[:k]
        row = []
        for j in range(k + 1):
            u = weighted_dot(b[k], b[j], w)
            lam_j = lam[j] if j < k else row
            for i in range(j):
                u, rem = divmod(d[i + 1] * u - row[i] * lam_j[i], d[i])
                assert rem == 0
            row.append(u)
        del d[k + 1 :], lam[k:]
        d.append(row.pop())
        lam.append(row)

    k = 1
    while k < n:
        # size reduction moves b[k] by vectors of b[:k], so no b_j* (j <= k)
        # changes; mu[k][j] is read afresh from the current b[k]
        del d[1:], lam[:]
        for i in range(k + 1):
            gso_row(i)
        for j in range(k - 1, -1, -1):
            q = round(Fraction(lam[k][j], d[j + 1]))
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                gso_row(k)
        m = Fraction(lam[k][k - 1], d[k])
        if Fraction(d[k + 1], d[k]) >= (delta - m * m) * Fraction(d[k], d[k - 1]):
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            k = max(k - 1, 1)
    return b


class TestLllReduce:
    def test_size_reduced_and_lovasz(self):
        for A, basis, weights in random_kernel_bases(20240901, 40):
            reduced = lll_reduce(basis, weights).basis
            assert is_kernel_basis(A, reduced)
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
            basis = echelon_kernel(A)
            if len(basis) != dim:
                continue
            weights = [1] * c if count % 5 == 0 else [rng.randint(1, 10**6) for _ in range(c)]
            assert lll_reduce(basis, weights).basis == lll_reduce_refactoring(basis, weights)
            count += 1

    def test_ties_round_to_even(self):
        # mu = 5/2 rounds to 2, as round(Fraction) does; rounding half up
        # would give [[-1, 1], [1, 1]]
        basis = [[2, 0], [5, 1]]
        assert lll_reduce(basis, [1, 1]).basis == [[1, 1], [1, -1]]
        assert lll_reduce_refactoring(basis) == [[1, 1], [1, -1]]

    def test_dependent_vectors_raise(self):
        with pytest.raises(ArithmeticError):
            lll_reduce([[1, 0, 2], [2, 0, 4]], [1, 2, 3])

    @pytest.mark.parametrize("weights", [[1, 1, 1], [5, 1, 7]])
    def test_dependent_basis_raises(self, weights):
        # the third vector is the sum of the first two
        with pytest.raises(ArithmeticError):
            lll_reduce([[1, 2, 3], [0, 1, 1], [1, 3, 4]], weights)

    @given(small_matrix)
    @settings(max_examples=60, deadline=None)
    def test_preserves_kernel_lattices(self, A):
        basis = echelon_kernel(A)
        if not basis:
            return
        reduced = lll_reduce(basis, [1] * len(A[0])).basis
        assert is_kernel_basis(A, reduced)

    def test_weighted_reduction_shortens(self):
        rows = charge_matrix(sectors(U1, 3), 1).rows
        basis = [[1, 0, -1, 2], [0, 1, -2, 3]]
        reduced = lll_reduce(basis, [1, 3, 3, 1]).basis
        assert is_kernel_basis(rows, reduced)
