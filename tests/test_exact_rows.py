"""Tables and charge matrices read from exact rows: binomial rows and rising-factorial rows.

Each builder is compared with the per-entry formulas it replaced, copied
here: ``math.comb`` per U(1) and SU(2) entry and multiplicity, a sum of
``math.comb`` per Z_p residue, and the hook-content product per SU(d) cell.
"""

from functools import lru_cache
from math import comb, prod

import pytest

from symdesign import INFINITE, SU2, U1, canonical_order, charge_matrix, closed_tmax, compute_tmax
from symdesign import groups, sectors, sud, verify_certificate, zp
from symdesign.groups import HammingWeight, SectorTable, TwiceSpin
from symdesign.groups import binomial_row

BINARY = [U1, SU2] + [zp(p) for p in range(2, 8)]


@lru_cache(maxsize=None)
def zp_reference(n, p, beta):
    return sum(comb(n, beta + p * l) for l in range((n - beta) // p + 1)) if beta <= n else 0


def multiplicity_reference(group, n, irrep):
    if group.kind == "U1":
        return comb(n, irrep.w)
    if group.kind == "SU2":
        i = (n - irrep.jj) // 2
        return comb(n, i) - (comb(n, i - 1) if i >= 1 else 0)
    return zp_reference(n, group.p, irrep.beta)


def entry_reference(group, n, k, row, col):
    nk = n - k
    if group.kind == "U1":
        b = col.w - row.w
        return comb(nk, b) if b >= 0 else 0
    if group.kind == "SU2":
        if (nk + col.jj + row.jj) % 2:
            return 0
        lo = (nk + col.jj - row.jj) // 2
        return (comb(nk, lo) if lo >= 0 else 0) - comb(nk, lo + row.jj + 1)
    return zp_reference(nk, group.p, (col.beta - row.beta) % group.p)


def hook_content_dim(parts, d):
    cols = [sum(1 for a in parts if a > j) for j in range(parts[0])]
    cells = [(i, j) for i, a in enumerate(parts) for j in range(a)]
    num = prod(d + j - i for i, j in cells)
    hooks = prod(parts[i] - j + cols[j] - i - 1 for i, j in cells)
    return num // hooks


def test_binomial_row_is_pascal_row():
    for m in range(0, 200):
        assert binomial_row(m) == tuple(comb(m, b) for b in range(m + 1)), m


@pytest.mark.parametrize("m", [-1, -3, True, 2.0, "3", None], ids=repr)
def test_binomial_row_refuses_what_is_no_int_at_least_0(m, empty_memo):
    # -3 and True gave [1, 1]; as a memo key True would share the row of 1
    binomial_row(1)
    with pytest.raises(ValueError, match="m must be an int >= 0"):
        binomial_row(m)
    assert [*groups._MEMO] == [("row", 1)]


@pytest.mark.parametrize("group", BINARY, ids=str)
def test_tables_and_matrices_equal_per_entry_formulas(group):
    for n in range(1, 41):
        table = sectors(group, n)
        assert table.multiplicities == tuple(
            multiplicity_reference(group, n, irrep) for irrep in table.ids
        ), n
        for k in range(1, n + 1):
            A = charge_matrix(table, k)
            expected = tuple(
                tuple(entry_reference(group, n, k, row, col) for col in table.ids)
                for row in A.row_labels
            )
            assert A.rows == expected, (n, k)
            assert A.witness == tuple(
                multiplicity_reference(group, k, row) for row in A.row_labels
            )


@pytest.mark.parametrize("group", [U1, SU2, zp(3), zp(7)], ids=str)
def test_entries_at_n_3000(group):
    n, k = 3000, 7
    table = sectors(group, n)
    picks = sorted({0, 1, 2, len(table) // 3, len(table) // 2, len(table) - 2, len(table) - 1})
    for j in picks:
        irrep = table.ids[j]
        assert table.multiplicities[j] == multiplicity_reference(group, n, irrep)
    A = charge_matrix(canonical_order(table), k)
    for j in range(0, A.shape[1], max(1, A.shape[1] // 9)):
        col = A.col_ids[j]
        expected = tuple(entry_reference(group, n, k, row, col) for row in A.row_labels)
        assert A.column(j) == expected, (group, j)


@pytest.mark.parametrize("d", [3, 4, 5, 7, 300])
def test_sud_dims_equal_hook_content_reference(d):
    for n in range(1, 31):
        table = sectors(sud(d), n)
        assert table.dims == tuple(hook_content_dim(irrep.parts, d) for irrep in table.ids), n


def test_perturbed_rising_row_raises(monkeypatch):
    # [4] of SU(3): f = 1 and R_0[4] = 3 * 4 * 5 * 6 = 360 = 15 * 4!; 361 is no multiple of 4!
    rising_row = groups.rising_row

    def perturbed(x, length):
        row = rising_row(x, length)
        row[-1] += 1
        return row

    assert sectors(sud(3), 4).dims[0] == 15
    monkeypatch.setattr(groups, "rising_row", perturbed)
    with pytest.raises(ArithmeticError, match=r"SU\(3\) dimension"):
        sectors(sud(3), 4)


def test_perturbed_factorial_row_raises(monkeypatch):
    # the Frobenius pass reads n! and the beta_i! from the rising row of 1; with
    # 4! = 25, [4] (beta = 6, 1, 0) gets 25 * 30 / (720 * 1 * 1), no integer
    rising_row = groups.rising_row

    def perturbed(x, length):
        row = rising_row(x, length)
        if x == 1:
            row[4] += 1
        return row

    monkeypatch.setattr(groups, "_SN_DIMS", {})  # a miss, so the f^lambda are computed
    monkeypatch.setattr(groups, "rising_row", perturbed)
    with pytest.raises(ArithmeticError, match=r"Frobenius formula of \(4,\)"):
        sectors(sud(3), 4)


def test_perturbed_binomial_division_raises(monkeypatch, empty_memo):
    # every step of the recurrence checks its remainder (the empty memo holds no row 5)
    monkeypatch.setattr(groups, "divmod", lambda a, b: (a // b, 1), raising=False)
    with pytest.raises(ArithmeticError):
        binomial_row(5)


@pytest.mark.parametrize(
    "group, n, k", [(U1, 3000, 12), (SU2, 2000, 12), (zp(3), 2000, 3), (U1, 5120, 18)], ids=str
)
def test_large_n_matches_closed_form(group, n, k):
    result, table, A = compute_tmax(group, n, k)
    cf = closed_tmax(group, n, k)
    assert n >= cf.valid_from_n
    assert result.tmax == cf.value
    assert result.proven_exact
    # Z_3 with k = 3 has a trivial kernel: an infinite order, with no certificate
    if result.certificate is None:
        assert result.tmax == INFINITE and group == zp(3)
    else:
        assert verify_certificate(result.certificate, A, table)


@pytest.mark.parametrize(
    "group, n, irrep",
    [
        (U1, 3, HammingWeight(7)),
        (SU2, 4, TwiceSpin(1)),
        (SU2, 4, TwiceSpin(6)),
    ],
    ids=str,
)
def test_labels_of_no_n_site_sector_are_rejected(group, n, irrep):
    # the columns are slices of one row, so a label outside the n-site sectors
    # would read a short or shifted slice; it is refused instead
    table = SectorTable(group, n, (irrep,), (1,), (1,))
    with pytest.raises(ValueError):
        charge_matrix(table, 1)
