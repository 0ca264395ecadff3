"""Acceptance suite: one test per criterion, exact values, stated time budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion with its runtime.
"""

import time
from fractions import Fraction

from closedform_ref import binom_frac
from symdesign import (
    INFINITE,
    SU2,
    U1,
    canonical_order,
    compute_tmax,
    custom_matrix,
    lower_bound,
    sectors,
    su2_a_norm,
    sud,
    tmax_exact,
    u1_f_norm,
    verify_certificate,
    zp,
)
from symdesign import checks
from symdesign.charges import CycleType, T_GROUP_CLASSES
from symdesign.closedforms import u1_nbound, su2_nbound
from symdesign.infinity import is_finite

# (lower_bound, tmax) pairs accumulated by criteria 1-4 and re-checked in 5
BOUND_LOG: list[tuple[object, object]] = []


def _report(name: str, started: float, budget: float):
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"{name} exceeded its {budget}s budget ({elapsed:.1f}s)"


def _solve_checked(group, n, k, assume=False, classes=None):
    """Solve one instance, recording the bound pair and checking soundness."""
    result, table, matrix = compute_tmax(
        group, n, k, assume_semiuniversal=assume, classes=classes
    )
    assert result.proven_exact
    assert result.lower_bound == lower_bound(matrix, table, assume_semiuniversal=assume).bound
    BOUND_LOG.append((result.lower_bound, result.tmax))
    if is_finite(result.tmax):
        assert result.lower_bound <= result.tmax
        assert verify_certificate(result.certificate, matrix, table)
    else:
        assert result.certificate is None
    return result


def test_criterion_1_u1_table():
    started = time.monotonic()
    polynomials = {
        2: lambda n: 2 * (n - 1),
        3: lambda n: n * (n - 2),
        4: lambda n: 2 * (n - 1) * (n - 3),
        5: lambda n: Fraction(2, 3) * n * (n - 2) * (n - 4),
        6: lambda n: Fraction(4, 3) * (n - 1) * (n - 3) * (n - 5),
    }
    count = 0
    for k in range(1, 7):
        for n in range(max(u1_nbound(k), k), 35):
            result = _solve_checked(U1, n, k, assume=(k < 2))
            expected = u1_f_norm(n, k + 1) // 2 - 1
            assert result.tmax == expected, (k, n)
            if k in polynomials:
                assert result.tmax + 1 == polynomials[k](n)
            count += 1
    assert count >= 130
    _report("1 (U(1) table)", started, 60.0)


def test_criterion_2_su2_table():
    started = time.monotonic()
    count = 0
    for k in range(2, 8):
        s = k // 2
        for n in range(max(13, su2_nbound(k), k), 42):
            result = _solve_checked(SU2, n, k)
            expected = 2 ** (2 * s + 1) * binom_frac(Fraction(n - 1, 2), s + 1)
            assert expected.denominator == 1
            assert result.tmax + 1 == expected.numerator, (k, n)
            count += 1
    assert count >= 100
    _report("2 (SU(2) table)", started, 60.0)


def test_criterion_3_zp_table():
    started = time.monotonic()
    count = 0
    for p in range(2, 8):
        for k in range(p, 13):
            for n in range(k + 1, 14):
                result = _solve_checked(zp(p), n, k)
                if p % 2 == 0:
                    assert result.tmax == 2 ** (n - 1) - 1, (p, k, n)
                else:
                    assert result.tmax == INFINITE, (p, k, n)
                count += 1
    assert count > 0
    _report("3 (Z_p table)", started, 10.0)


def test_criterion_4_sud_table():
    started = time.monotonic()
    sv_classes = [CycleType(()), CycleType((2,))]
    for d in (3, 4, 5):
        for n in range(15, 26):
            result = _solve_checked(sud(d), n, 3)
            assert result.tmax == (n - 1) * (n - 3) - 1, ("k=3", d, n)
        for n in range(22, 27):
            result = _solve_checked(sud(d), n, 4)
            assert result.tmax == 2 * (n - 1) * (n - 3) * (n - 5) // 3 - 1, ("k=4", d, n)
        if d >= 4:
            for n in range(22, 27):
                result = _solve_checked(sud(d), n, 4, classes=list(T_GROUP_CLASSES))
                expected = (n - 3) * (2 * n * n - 3 * n + 4) // 6 - 1
                assert result.tmax == expected, ("tgroup", d, n)
        for n in range(15, 26):
            result = _solve_checked(sud(d), n, 2, assume=True, classes=sv_classes)
            assert result.tmax == (n + 1) * (n - 2) // 2 - 1, ("k=2+sv", d, n)
    _report("4 (SU(d) table)", started, 300.0)


def test_criterion_5_lower_bound_soundness():
    started = time.monotonic()
    if not BOUND_LOG:  # criteria 1-4 were skipped; rebuild a representative set
        for group, n, k in [(U1, 10, 2), (SU2, 13, 2), (zp(2), 9, 3), (sud(3), 16, 3)]:
            _solve_checked(group, n, k)
    for bound, tmax in BOUND_LOG:
        if is_finite(tmax):
            assert is_finite(bound) and bound <= tmax
    # gate set = identity Hamiltonian only, amended by the commutator subgroup:
    # the bound is n-2 and it is attained
    for n in range(5, 17):
        table = canonical_order(sectors(SU2, n))
        matrix = custom_matrix(table, [])
        lb = lower_bound(matrix, table, assume_semiuniversal=True)
        assert lb.bound == n - 2
        result = tmax_exact(matrix, table, assume_semiuniversal=True)
        assert result.lower_bound == lb.bound
        assert result.tmax == n - 2
        assert result.certificate.weighted_norm == su2_a_norm(n, 2)
    _report("5 (lower-bound soundness)", started, 60.0)


def _assert_passes(tally, floor: int):
    assert not tally.failures, tally.failures[:10]
    assert tally.checks >= floor, f"only {tally.checks} checks, expected >= {floor}"


def test_criterion_6_identity_suites():
    started = time.monotonic()
    u1 = checks.identities_u1()
    su2 = checks.identities_su2()
    chars = checks.characters()
    # floors: the checks these suites and this criterion made separately before
    # they were merged into symdesign.checks
    _assert_passes(u1, 11008)
    _assert_passes(su2, 684)
    _assert_passes(chars, 210)
    assert u1.checks + su2.checks + chars.checks >= 13659
    _report("6 (identity suites)", started, 60.0)


def test_criterion_7_oracle_equivalence():
    started = time.monotonic()
    tally = checks.solver_brute()
    _assert_passes(tally, 3 * 280)  # tmax, exact certificate and lower bound on 280 instances
    _report(f"7 (exhaustive-oracle equivalence, {tally.checks // 3} instances)", started, 120.0)


def test_criterion_8_exact_oracle():
    started = time.monotonic()
    _assert_passes(checks.oracle(), 227)
    _report("8 (exact operator oracle)", started, 180.0)


def test_criterion_9_small_case_confirmations():
    started = time.monotonic()
    # U(1) with 3-local gates on 6 qubits, just below the generic threshold
    result = _solve_checked(U1, 6, 3)
    assert result.tmax + 1 == u1_f_norm(6, 4) // 2 == 24
    # SU(2) with 4/5-local gates at 16 and 17 qubits
    for n in (16, 17):
        for k in (4, 5):
            result = _solve_checked(SU2, n, k)
            expected = 2**5 * binom_frac(Fraction(n - 1, 2), 3)
            assert expected.denominator == 1
            assert result.tmax + 1 == expected.numerator == su2_a_norm(n, 6) // 2
    _report("9 (small-case confirmations)", started, 30.0)
