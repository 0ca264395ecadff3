"""The oracle suite, exactly: U(1) operators over the full computational basis against
the closed forms, and the SU(2) spin checks and the Z_2 witness on small blocks."""

from itertools import combinations
from math import prod
from operator import mul

import pytest

from symdesign import checks, su2_c_eigenvalue, tr_f_c, u1_c_eigenvalue
from symdesign.checks import (
    Z2_WITNESS,
    su2_casimir_check,
    su2_exchange_blocks,
    su2_projector_check,
    su2_projector_traces,
    u1_c_diagonal,
    u1_f_diagonal,
    u1_orthogonality_check,
    walsh_hadamard,
    z2_witness_check,
    _matmul,
    _su2_eigenvalues,
)
from symdesign.groups import su2_multiplicity


def popcounts(n):
    return [x.bit_count() for x in range(1 << n)]


def dot(u, v):
    return sum(map(mul, u, v))


class TestDiagonals:
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


def projector(block, eigenvalues, jj):
    """The Lagrange projector of spin ``jj/2`` on one block: an integer matrix and its divisor."""
    out, divisor = identity(len(block)), 1
    for other, e in eigenvalues.items():
        if other != jj:
            shifted = [[x - e * (r == c) for c, x in enumerate(row)] for r, row in enumerate(block)]
            out, divisor = _matmul(out, shifted), divisor * (eigenvalues[jj] - e)
    return out, divisor


def identity(dim):
    return [[int(r == c) for c in range(dim)] for r in range(dim)]


class TestSpinChecks:
    def test_singlet_projector(self):
        # two qubits, weight-one block over |01>, |10>: E = -Z.Z + 2 swap
        block = su2_exchange_blocks(2)[1]
        assert block == [[-1, 2], [2, -1]]
        pr, divisor = projector(block, _su2_eigenvalues(2), 0)
        assert (pr, divisor) == ([[-2, 2], [2, -2]], -4)  # (1 - swap) / 2
        assert _matmul(pr, pr) == [[divisor * x for x in row] for row in pr]
        assert su2_projector_traces(2)[0] == 1

    def test_top_spin_n4(self):
        assert su2_projector_traces(4)[4] == 5  # (2j+1) m = 5 * 1
        assert su2_multiplicity(4, 4) == 1

    @pytest.mark.parametrize("n", range(2, 8))
    def test_resolution_of_identity(self, n):
        # idempotent, pairwise orthogonal and summing to the identity on every block
        eig = _su2_eigenvalues(n)
        for block in su2_exchange_blocks(n):
            projs = [projector(block, eig, jj) for jj in eig]
            common = prod(divisor for _, divisor in projs)
            total = [[0] * len(block) for _ in block]
            for pr, divisor in projs:
                assert _matmul(pr, pr) == [[divisor * x for x in row] for row in pr]
                scale = common // divisor
                total = [[t + scale * x for t, x in zip(*rows)] for rows in zip(total, pr)]
            assert total == [[common * x for x in row] for row in identity(len(block))]
            for (a, _), (b, _) in combinations(projs, 2):
                assert not any(map(any, _matmul(a, b)))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_c2(self, n):
        assert su2_casimir_check(n)

    def test_c2_n2_eigenvalues(self):
        # two qubits: eigenvalue 1 on the triplet, -3 on the singlet
        assert su2_c_eigenvalue(2, 2, 2) == 1
        assert su2_c_eigenvalue(2, 2, 0) == -3

    @pytest.mark.parametrize("n", range(2, 8))
    def test_projector_family(self, n):
        assert su2_projector_check(n)

    @pytest.mark.parametrize("n", [2, 5, 8])
    @pytest.mark.parametrize("shifted", ["bottom", "top"])
    def test_wrong_casimir_eigenvalue_is_refuted(self, monkeypatch, n, shifted):
        jj_wrong = n % 2 if shifted == "bottom" else n

        def wrong(n, ll, jj):
            return su2_c_eigenvalue(n, ll, jj) + (jj == jj_wrong)

        monkeypatch.setattr(checks, "su2_c_eigenvalue", wrong)
        assert not su2_casimir_check(n)
        assert not su2_projector_check(n)


class TestWitness:
    def test_passes(self):
        assert z2_witness_check()

    def test_phase_values(self):
        # ZZ on each copy takes 2 on the rows |00,11>, |11,00> and -2 on the
        # columns |01,10>, |10,01>, so every entry of W carries the phase 4
        zz = [1, -1, -1, 1]
        for r, row in enumerate(Z2_WITNESS):
            for c, x in enumerate(row):
                if x:
                    assert zz[r // 4] + zz[r % 4] - zz[c // 4] - zz[c % 4] == 4
        assert sorted(x for row in Z2_WITNESS for x in row if x) == [-1, -1, 1, 1]

    @pytest.mark.parametrize("entry", [(3, 6), (3, 9), (12, 6), (12, 9)])
    def test_one_flipped_sign_is_refuted(self, entry):
        witness = [list(row) for row in Z2_WITNESS]
        r, c = entry
        witness[r][c] = -witness[r][c]
        assert not z2_witness_check(witness)

    @pytest.mark.parametrize("phase", [-4, 0, 2, 8])
    def test_other_phase_is_refuted(self, phase):
        assert not z2_witness_check(phase=phase)

    def test_zero_operator_is_refuted(self):
        assert not z2_witness_check([[0] * 16 for _ in range(16)])
