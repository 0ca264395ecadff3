"""Dense (floating-point) verification against the exact closed forms."""

import pytest

np = pytest.importorskip("numpy")  # the optional dense extra

from symdesign import tr_f_c, u1_c_eigenvalue
from symdesign.dense import (
    dense_tr_f_c,
    su2_c2_check,
    su2_projector,
    su2_projector_checks,
    u1_dense_c,
    u1_orthogonality_check,
    z2_witness_check,
    _haar_su2,
    _popcounts,
)
from symdesign.groups import su2_multiplicity


class TestDenseDiagonals:
    def test_c1_n3_diagonal(self):
        assert u1_dense_c(3, 1).tolist() == [3, 1, 1, -1, 1, -1, -1, -3]

    def test_c0_all_ones(self):
        assert (u1_dense_c(5, 0) == 1).all()

    def test_cn_alternating(self):
        n = 4
        pc = _popcounts(n)
        expect = np.where(pc % 2 == 0, 1, -1)
        assert (u1_dense_c(n, n) == expect).all()

    @pytest.mark.parametrize("n", range(1, 13))
    def test_eigenvalue_per_weight(self, n):
        pc = _popcounts(n)
        for l in range(n + 1):
            dc = u1_dense_c(n, l)
            expect = np.array([u1_c_eigenvalue(n, l, w) for w in pc])
            assert (dc == expect).all()

    @pytest.mark.parametrize("n", [6, 9, 12])
    def test_pairing_matches_closed_form(self, n):
        from symdesign.dense import u1_dense_f

        cached = {l: u1_dense_c(n, l) for l in range(n + 1)}
        for k in range(n + 1):
            f = u1_dense_f(n, k)
            for l in range(n + 1):
                assert int(np.dot(f, cached[l])) == tr_f_c(n, k, l)


class TestOrthogonality:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_all_k(self, n):
        for k in range(n + 1):
            assert u1_orthogonality_check(n, k)

    def test_example_8_4(self):
        assert u1_orthogonality_check(8, 4)


class TestSpinChecks:
    def test_singlet_projector(self):
        pr = su2_projector(2, 0)
        assert abs(pr.trace().real - 1) < 1e-10
        assert np.allclose(pr @ pr, pr, atol=1e-10)

    def test_top_spin_n4(self):
        pr = su2_projector(4, 4)
        assert abs(pr.trace().real - 5) < 1e-8  # (2j+1) m = 5 * 1
        assert su2_multiplicity(4, 4) == 1

    @pytest.mark.parametrize("n", range(2, 8))
    def test_resolution_of_identity(self, n):
        dim = 1 << n
        total = sum(su2_projector(n, jj) for jj in range(n % 2, n + 1, 2))
        assert np.allclose(total, np.eye(dim), atol=1e-10)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_c2(self, n):
        assert su2_c2_check(n)

    def test_c2_n2_eigenvalues(self):
        # two qubits: eigenvalue 1 on the triplet, -3 on the singlet
        from symdesign import su2_c_eigenvalue

        assert su2_c_eigenvalue(2, 2, 2) == 1
        assert su2_c_eigenvalue(2, 2, 0) == -3

    @pytest.mark.parametrize("n", range(2, 8))
    def test_projector_family(self, n):
        assert su2_projector_checks(n)


class TestWitness:
    def test_passes(self):
        assert z2_witness_check()

    def test_phase_values(self):
        # spot-check the conjugation phase at theta in {0, pi/4, pi/2}
        zz = np.array([1, -1, -1, 1])
        s0 = np.zeros(16, dtype=complex)
        s0[3], s0[12] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        s1 = np.zeros(16, dtype=complex)
        s1[6], s1[9] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        witness = np.outer(s0, s1.conj())
        for theta, phase in [(0.0, 1.0), (np.pi / 4, -1.0), (np.pi / 2, 1.0)]:
            v = np.diag(np.exp(1j * theta * zz))
            vv = np.kron(v, v)
            assert np.allclose(vv @ witness @ vv.conj().T, phase * witness, atol=1e-10)

    def test_reproducible(self):
        # the check's samples are fixed by its seed: two draws from seed 0 agree exactly
        first = _haar_su2(np.random.default_rng(0))
        assert np.array_equal(first, _haar_su2(np.random.default_rng(0)))
        assert not np.array_equal(first, _haar_su2(np.random.default_rng(1)))
