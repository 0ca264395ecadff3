"""Closed-form operator families, norms, pairings, and design-order formulas."""

from fractions import Fraction
from math import comb

import pytest

from closedform_ref import binom_frac
from kernel_ref import dot_rows
from symdesign import (
    CUSTOM,
    INFINITE,
    SU2,
    U1,
    binom_int,
    charge_matrix,
    closed_tmax,
    sectors,
    semiuniversal_min_locality,
    su2_a_norm,
    su2_a_operator,
    su2_c_eigenvalue,
    su2_multiplicity,
    sud,
    tr_a_c,
    tr_a_ctilde,
    tr_f_c,
    u1_a_norm,
    u1_a_operator,
    u1_c_eigenvalue,
    u1_f_norm,
    zp,
)
from symdesign.closedforms import double_factorial, half_binom_int, u1_f_values


class TestBinomials:
    def test_negative_upper_index(self):
        assert binom_int(-1, 3) == -1
        assert binom_int(-2, 2) == 3
        assert binom_int(5, 7) == 0
        assert binom_int(5, 2) == 10

    def test_half_integer(self):
        assert binom_frac(Fraction(3, 2), 1) == Fraction(3, 2)
        assert binom_frac(Fraction(7, 2), 2) == Fraction(35, 8)
        assert binom_frac(4, 2) == 6


def _integral(x: Fraction) -> int:
    assert x.denominator == 1, x
    return x.numerator


def u1_f_norm_ref(n, k):
    """``2^k C(n/2, k/2)`` for even ``k``, ``2^k C((n-1)/2, (k-1)/2)`` for odd, in ``Fraction``s."""
    return _integral(2**k * binom_frac(Fraction(n - k % 2, 2), k // 2))


def su2_tmax_ref(n, k):
    s = k // 2
    return _integral(2 ** (2 * s + 1) * binom_frac(Fraction(n - 1, 2), s + 1)) - 1


class TestHalfBinomials:
    """The integer closed forms against the rational ``binom_frac`` for n <= 300, k <= 20."""

    def test_u1_f_norm(self):
        for n in range(301):
            for k in range(min(n, 20) + 1):
                assert u1_f_norm(n, k) == u1_f_norm_ref(n, k), (n, k)

    def test_su2_a_norm(self):
        for n in range(301):
            for k in range(0, 21, 2):
                expect = _integral(2**k * binom_frac(Fraction(n - 1, 2), k // 2))
                assert su2_a_norm(n, k) == expect, (n, k)

    def test_closed_tmax(self):
        for n in range(3, 301):
            for k in range(2, min(n - 1, 20) + 1):
                assert closed_tmax(U1, n, k).value == u1_f_norm_ref(n, k + 1) // 2 - 1, (n, k)
                assert closed_tmax(SU2, n, k).value == su2_tmax_ref(n, k), (n, k)

    def test_helper_is_2_to_the_a_times_a_half_binomial(self):
        for x in range(-7, 40):
            for s in range(6):
                for a in range(s, s + 3):  # 2^s clears the halves of C(x/2, s)
                    expect = 2 ** (a + s) * binom_frac(Fraction(x, 2), s)
                    assert half_binom_int(x, s, a) == expect, (x, s, a)

    @pytest.mark.parametrize("x, s, a", [(1, 2, 0), (3, 2, 0), (5, 3, 0), (7, 4, 2)])
    def test_helper_raises_on_a_remainder(self, x, s, a):
        # x (x - 2) ... over s! times 2^a is not an integer here
        assert (2 ** (a + s) * binom_frac(Fraction(x, 2), s)).denominator != 1
        with pytest.raises(ArithmeticError):
            half_binom_int(x, s, a)


class TestU1COperators:
    def test_c1_is_total_z(self):
        for n in (3, 8, 13):
            for w in range(n + 1):
                assert u1_c_eigenvalue(n, 1, w) == n - 2 * w

    def test_c0_identity_cn_alternating(self):
        for n in (2, 7, 12):
            for w in range(n + 1):
                assert u1_c_eigenvalue(n, 0, w) == 1
                assert u1_c_eigenvalue(n, n, w) == (-1) ** w

    @pytest.mark.parametrize("n", range(1, 13))
    def test_orthogonality(self, n):
        for l in range(n + 1):
            for lp in range(l, n + 1):
                acc = sum(
                    u1_c_eigenvalue(n, l, w) * u1_c_eigenvalue(n, lp, w) * comb(n, w)
                    for w in range(n + 1)
                )
                assert acc == (2**n * comb(n, l) if l == lp else 0)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_pairing_symmetry_and_mirrors(self, n):
        for l in range(n + 1):
            for w in range(n + 1):
                clw = u1_c_eigenvalue(n, l, w)
                assert comb(n, w) * clw == comb(n, l) * u1_c_eigenvalue(n, w, l)
                assert comb(n, w) * clw == (-1) ** l * comb(n, n - w) * u1_c_eigenvalue(
                    n, l, n - w
                )
                assert clw == (-1) ** w * u1_c_eigenvalue(n, n - l, w)


class TestU1FOperators:
    def test_f3_profile(self):
        for n in (5, 9, 14):
            vals = u1_f_values(n, 3)
            assert vals[0] == n - 2
            assert vals[1] == -1
            assert all(v == 0 for v in vals[2 : n - 1])
            assert vals[n - 1] == 1
            assert vals[n] == -(n - 2)

    def test_f0_is_lowest_projector(self):
        vals = u1_f_values(6, 0)
        assert vals == (1, 0, 0, 0, 0, 0, 0)

    def test_fn_is_alternating(self):
        n = 7
        assert u1_f_values(n, n) == tuple((-1) ** w for w in range(n + 1))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_support_window(self, n):
        for k in range(n + 1):
            vals = u1_f_values(n, k)
            lo, hi = k // 2, n - (k + 1) // 2
            for w in range(n + 1):
                if lo < w <= hi:
                    assert vals[w] == 0
                else:
                    assert vals[w] != 0

    def test_norm_examples(self):
        assert u1_f_norm(4, 3) == 12  # odd k, odd (n-1)/2 upper index
        assert u1_f_norm(6, 4) == 48
        assert u1_f_norm(1, 0) == 1

    @pytest.mark.parametrize("n", range(1, 31))
    def test_norms_integral_and_match_direct_sums(self, n):
        for k in range(n + 1):
            direct_f = sum(abs(v) * comb(n, w) for w, v in enumerate(u1_f_values(n, k)))
            assert u1_f_norm(n, k) == direct_f
            assert u1_a_norm(n, k) == 2**k * comb(n, k)

    # X on every qubit maps weight w to n - w and keeps every operator's
    # locality: it maps f to -f for odd k, and for even k, whose low edge is
    # one weight wider, to another operator of the same kernel and norm
    def test_reflection_matches_for_odd_k(self):
        for n in range(1, 13):
            for k in range(1, n + 1, 2):
                vals = u1_f_values(n, k)
                assert vals == tuple(-v for v in reversed(vals)), (n, k)

    def test_reflection_preserves_norm_even_k(self):
        for n in range(2, 13):
            for k in range(2, n + 1, 2):
                mirrored = u1_f_values(n, k)[::-1]
                rows = charge_matrix(sectors(U1, n), k - 1).rows
                assert not any(dot_rows(rows, mirrored)), (n, k)
                norm = sum(abs(v) * comb(n, w) for w, v in enumerate(mirrored))
                assert norm == u1_f_norm(n, k), (n, k)


class TestU1Pairings:
    def test_zero_below_k(self):
        for n in (6, 10):
            for k in range(n + 1):
                for l in range(k):
                    assert tr_f_c(n, k, l) == 0

    def test_direct_sum_example(self):
        # frozen from the explicit double sum at (n, k, l) = (10, 4, 6)
        n, k, l = 10, 4, 6
        direct = sum(
            u1_f_values(n, k)[w] * comb(n, w) * u1_c_eigenvalue(n, l, w) for w in range(n + 1)
        )
        assert direct == 10080
        assert tr_f_c(n, k, l) == 10080

    @pytest.mark.parametrize("n", range(1, 13))
    def test_closed_form_equals_double_sum(self, n):
        for k in range(n + 1):
            vals = u1_f_values(n, k)
            avals = u1_a_operator(n, k).qvec
            for l in range(n + 1):
                c = [u1_c_eigenvalue(n, l, w) for w in range(n + 1)]
                f_direct = sum(vals[w] * comb(n, w) * c[w] for w in range(n + 1))
                a_direct = sum(avals[w] * comb(n, w) * c[w] for w in range(n + 1))
                assert f_direct == tr_f_c(n, k, l)
                assert a_direct == tr_a_c(n, k, l)

    @pytest.mark.parametrize("n", range(1, 19))
    def test_low_weight_family_self_inverse(self, n):
        amat = [u1_a_operator(n, k).qvec for k in range(n + 1)]
        for i in range(n + 1):
            for j in range(n + 1):
                acc = sum(amat[i][t] * amat[t][j] for t in range(n + 1))
                assert acc == (1 if i == j else 0)


class TestSU2Operators:
    def test_c2_eigenvalues(self):
        # twice-spin arithmetic: eigenvalue = (jj(jj+2) - 3n) / 2
        for n in (2, 5, 8, 13):
            for jj in range(n % 2, n + 1, 2):
                expect, rem = divmod(jj * (jj + 2) - 3 * n, 2)
                assert rem == 0
                assert su2_c_eigenvalue(n, 2, jj) == expect

    def test_c0_identity(self):
        for n in (3, 6):
            for jj in range(n % 2, n + 1, 2):
                assert su2_c_eigenvalue(n, 0, jj) == 1

    @pytest.mark.parametrize("n", range(2, 15))
    def test_orthogonality(self, n):
        jjs = list(range(n % 2, n + 1, 2))
        traces = {jj: (jj + 1) * su2_multiplicity(n, jj) for jj in jjs}
        for ll in range(0, n + 1, 2):
            for llp in range(ll, n + 1, 2):
                acc = sum(
                    su2_c_eigenvalue(n, ll, jj) * su2_c_eigenvalue(n, llp, jj) * traces[jj]
                    for jj in jjs
                )
                if ll == llp:
                    assert acc == double_factorial(ll + 1) * double_factorial(
                        ll - 1
                    ) * 2**n * comb(n, ll)
                else:
                    assert acc == 0

    def test_a_norm_examples(self):
        assert su2_a_norm(13, 4) == 240
        assert su2_a_norm(13, 0) == 1

    def test_a0_supported_on_top_spin(self):
        op = su2_a_operator(9, 0)
        by_jj = {irrep.jj: q for irrep, q in zip(op.table.ids, op.qvec)}
        assert by_jj[9] == 1
        assert all(q == 0 for jj, q in by_jj.items() if jj != 9)

    @pytest.mark.parametrize("n", range(2, 15))
    def test_a_pairings_match_direct_sums(self, n):
        jjs = list(range(n % 2, n + 1, 2))
        traces = {jj: (jj + 1) * su2_multiplicity(n, jj) for jj in jjs}
        for ss in range(0, n + 1, 2):
            op = su2_a_operator(n, ss)
            norm_direct = sum(
                abs(q) * su2_multiplicity(n, jj) for q, jj in zip(op.qvec, jjs)
            )
            assert norm_direct == su2_a_norm(n, ss)
            for mm in range(0, n + 1, 2):
                scale = double_factorial(mm - 1) * comb(n, mm)
                direct = sum(
                    op.values[i] * su2_c_eigenvalue(n, mm, jj) * traces[jj]
                    for i, jj in enumerate(jjs)
                )
                assert direct == tr_a_ctilde(n, ss, mm) * scale
                if mm < ss:
                    assert tr_a_ctilde(n, ss, mm) == 0

    def test_tr_a_ctilde_base(self):
        for n in (6, 10):
            for mm in range(0, n + 1, 2):
                assert tr_a_ctilde(n, 0, mm) == 1

    def test_tr_ctilde_sq_example(self):
        # the squared norm of the unit-normalized exchange operator, (mm + 1) 2^n / C(n, mm)
        n, mm = 10, 4
        scale = double_factorial(mm - 1) * comb(n, mm)
        direct = sum(
            Fraction(su2_c_eigenvalue(n, mm, jj), scale) ** 2
            * (jj + 1)
            * su2_multiplicity(n, jj)
            for jj in range(n % 2, n + 1, 2)
        )
        assert direct == Fraction(512, 21)

    @pytest.mark.parametrize("n", range(2, 15))
    def test_tr_ctilde_sq_matches_direct_sum(self, n):
        for mm in range(0, n + 1, 2):
            scale = double_factorial(mm - 1) * comb(n, mm)
            direct = sum(
                Fraction(su2_c_eigenvalue(n, mm, jj), scale) ** 2
                * (jj + 1)
                * su2_multiplicity(n, jj)
                for jj in range(n % 2, n + 1, 2)
            )
            assert direct == Fraction((mm + 1) * 2**n, comb(n, mm))


class TestKernelMembership:
    """The special operators lie in the kernels of the matching charge matrices."""

    @pytest.mark.parametrize("n", range(2, 15))
    def test_u1_edge_operator_in_kernel(self, n):
        from symdesign import charge_matrix, sectors
        from kernel_ref import dot_rows

        for k in range(1, n):
            q = u1_f_values(n, k + 1)
            rows = charge_matrix(sectors(U1, n), k).rows
            assert all(x == 0 for x in dot_rows(rows, q)), (n, k)

    @pytest.mark.parametrize("n", range(4, 15))
    def test_su2_highspin_operator_in_kernel(self, n):
        from symdesign import charge_matrix, sectors
        from kernel_ref import dot_rows

        for k in range(2, n - 1):
            s = k // 2
            if 2 * (s + 1) > n:
                continue
            q = su2_a_operator(n, 2 * (s + 1)).qvec
            rows = charge_matrix(sectors(SU2, n), k).rows
            assert all(x == 0 for x in dot_rows(rows, q)), (n, k)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_u1_lowweight_operator_in_kernel(self, n):
        from symdesign import charge_matrix, sectors
        from kernel_ref import dot_rows

        for k in range(1, n):
            q = u1_a_operator(n, k + 1).qvec
            rows = charge_matrix(sectors(U1, n), k).rows
            assert all(x == 0 for x in dot_rows(rows, q)), (n, k)


class TestClosedTmax:
    def test_u1_example(self):
        cf = closed_tmax(U1, 10, 3)
        assert cf.value == 10 * 8 - 1 == 79
        assert cf.valid_from_n == 6

    def test_su2_thresholds(self):
        assert closed_tmax(SU2, 20, 2).valid_from_n == 13
        assert closed_tmax(SU2, 20, 3).valid_from_n == 13
        assert closed_tmax(SU2, 20, 4).valid_from_n == 16
        assert closed_tmax(SU2, 41, 7).valid_from_n == 40

    def test_sud_rows(self):
        assert closed_tmax(sud(3), 15, 3).value == 167
        assert closed_tmax(sud(3), 15, 3).valid_from_n == 15
        assert closed_tmax(sud(4), 22, 4).value == 2 * 21 * 19 * 17 // 3 - 1
        assert closed_tmax(sud(4), 22, 4, variant="tgroup").value == 19 * (
            2 * 484 - 66 + 4
        ) // 6 - 1
        assert closed_tmax(sud(5), 20, 2, variant="sv").value == 21 * 18 // 2 - 1

    def test_zp_rows(self):
        assert closed_tmax(zp(6), 9, 7).value == 255
        assert closed_tmax(zp(3), 9, 3).value == INFINITE

    def test_below_threshold_raises(self):
        with pytest.raises(ValueError):
            closed_tmax(U1, 10, 1)
        with pytest.raises(ValueError):
            closed_tmax(zp(5), 10, 3)
        with pytest.raises(ValueError):
            closed_tmax(sud(3), 30, 2)
        with pytest.raises(ValueError):
            closed_tmax(sud(3), 30, 4, variant="tgroup")

    @pytest.mark.parametrize("group, k", [(SU2, 1), (zp(5), 3), (sud(3), 2)], ids=str)
    def test_below_threshold_names_it(self, group, k):
        threshold = semiuniversal_min_locality(group)
        assert k < threshold
        with pytest.raises(ValueError, match=f"threshold k >= {threshold}$"):
            closed_tmax(group, 30, k)
        assert closed_tmax(group, 30, threshold).valid_from_n > threshold

    def test_custom_group_has_no_closed_form(self):
        with pytest.raises(ValueError, match="built-in groups only"):
            closed_tmax(CUSTOM, 10, 3)

    @pytest.mark.parametrize(
        "group, n, k, name",
        [(sud(3), True, 3, "n"), (zp(3), -5, 3, "n"), (zp(2), 10, 2.0, "k"), (U1, 20, 4.0, "k")],
        ids=str,
    )
    def test_n_and_k_are_checked_as_sectors_and_charge_matrix_do(self, group, n, k, name):
        # these used to answer -1, INFINITE, valid_from_n = 3.0 and a TypeError
        with pytest.raises(ValueError, match=f"^{name} must be an int >= 1"):
            closed_tmax(group, n, k)

    @pytest.mark.parametrize("group", [U1, SU2, zp(2), zp(3)], ids=str)
    @pytest.mark.parametrize("variant", ["sv", "tgroup", "bogus"])
    def test_qubit_groups_have_only_the_full_variant(self, group, variant):
        with pytest.raises(ValueError, match=f"only the full variant, got '{variant}'$"):
            closed_tmax(group, 20, 3, variant=variant)
        assert closed_tmax(group, 20, 3, variant="full") == closed_tmax(group, 20, 3)
