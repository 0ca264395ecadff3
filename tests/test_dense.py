"""Operators rebuilt over the full computational basis, exactly, against the closed forms."""

from operator import mul

import pytest

from symdesign import tr_f_c, u1_c_eigenvalue
from symdesign.checks import u1_c_diagonal, u1_f_diagonal, u1_orthogonality_check, walsh_hadamard


def popcounts(n):
    return [x.bit_count() for x in range(1 << n)]


def dot(u, v):
    return sum(map(mul, u, v))


class TestDenseDiagonals:
    def test_c1_n3_diagonal(self):
        assert u1_c_diagonal(3, 1) == [3, 1, 1, -1, 1, -1, -1, -3]

    def test_c0_all_ones(self):
        assert u1_c_diagonal(5, 0) == [1] * 32

    def test_cn_alternating(self):
        assert u1_c_diagonal(4, 4) == [(-1) ** w for w in popcounts(4)]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_eigenvalue_per_weight(self, n):
        pc = popcounts(n)
        for l in range(n + 1):
            assert u1_c_diagonal(n, l) == [u1_c_eigenvalue(n, l, w) for w in pc]

    @pytest.mark.parametrize("n", [6, 9, 12])
    def test_pairing_matches_closed_form(self, n):
        cached = {l: u1_c_diagonal(n, l) for l in range(n + 1)}
        for k in range(n + 1):
            f = u1_f_diagonal(n, k)
            for l in range(n + 1):
                assert dot(f, cached[l]) == tr_f_c(n, k, l)

    def test_walsh_hadamard_pairs_with_each_z_string(self):
        # out[m] = sum_x v[x] (-1)^popcount(x & m), term by term on 3 qubits
        v = [5, -2, 0, 7, 1, 3, -4, 2]
        expected = [dot(v, [(-1) ** (x & m).bit_count() for x in range(8)]) for m in range(8)]
        assert walsh_hadamard(v) == expected
        # applied twice it scales by 2**n
        assert walsh_hadamard(walsh_hadamard(v)) == [8 * x for x in v]


class TestOrthogonality:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_all_k(self, n):
        for k in range(n + 1):
            assert u1_orthogonality_check(u1_f_diagonal(n, k), k)

    def test_example_8_4(self):
        assert u1_orthogonality_check(u1_f_diagonal(8, 4), 4)

    @pytest.mark.parametrize("x", [0, 37, 255])
    def test_one_changed_f_value_is_refuted(self, x):
        f = u1_f_diagonal(8, 4)
        f[x] += 1
        assert not u1_orthogonality_check(f, 4)

    def test_a_k_body_blind_diagonal_is_refuted(self):
        # the zero diagonal ignores every sub-k term but detects no k-body one
        assert not u1_orthogonality_check([0] * 256, 4)
        assert u1_orthogonality_check([0] * 256, 0)
