"""Sector enumeration, canonical ordering, and semi-universality thresholds."""

import random
from fractions import Fraction
from math import comb, factorial, prod
from operator import add, mul

import pytest

from symdesign import (
    SU2,
    U1,
    canonical_order,
    sectors,
    semiuniversal_min_locality,
    su2_multiplicity,
    sud,
    zp,
)
from symdesign.groups import (
    GroupSpec,
    HammingWeight,
    PartitionId,
    Residue,
    SectorTable,
    TwiceSpin,
    beta_set,
    frobenius_dim,
    partitions_max_rows,
    sn_irrep_dim,
    sud_irrep_dim,
)
from symdesign import groups


def partitions_reference(n: int, d: int):
    """Recursive reference: partitions of n with at most d parts, descending lex."""

    def rec(rest, max_part, rows_left, prefix):
        if rest == 0:
            yield prefix
            return
        if rows_left == 0:
            return
        for part in range(min(rest, max_part), 0, -1):
            yield from rec(rest - part, part, rows_left - 1, prefix + (part,))

    yield from rec(n, n, d, ())


def conjugate(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Column lengths of the Young diagram of the partition ``parts``."""
    cols = []
    rows = len(parts)
    for j in range(parts[0] if parts else 0):
        while parts[rows - 1] <= j:
            rows -= 1
        cols.append(rows)
    return tuple(cols)


def hook_length_dim(parts: tuple[int, ...]) -> int:
    """Oracle for ``f^lambda``: the hook-length formula ``n! / prod of hook lengths``."""
    n = sum(parts)
    cols = conjugate(parts)
    hook_prod = 1
    for i, row_len in enumerate(parts):
        # the hook of cell (i, j) is row_len - j + cols[j] - i - 1
        hook_prod *= prod(map(add, cols, range(row_len - i - 1, -i - 1, -1)))
    dim, rem = divmod(factorial(n), hook_prod)
    assert rem == 0, parts
    return dim


def tie_break_key(n, irrep):
    """Reference tie-break among equal multiplicities, by label type."""
    if isinstance(irrep, HammingWeight):
        return (min(irrep.w, n - irrep.w), irrep.w)
    if isinstance(irrep, TwiceSpin):
        return (-irrep.jj,)
    if isinstance(irrep, Residue):
        return (irrep.beta,)
    if isinstance(irrep, PartitionId):
        return (irrep.parts,)
    return (irrep.index,)


def clebsch_gordan_multiplicities(n: int) -> dict[int, int]:
    """Independent oracle: add one spin-1/2 at a time, tracking 2j -> count."""
    state = {1: 1}  # one qubit: spin 1/2
    for _ in range(n - 1):
        nxt: dict[int, int] = {}
        for jj, cnt in state.items():
            for jj2 in (jj - 1, jj + 1):
                if jj2 >= 0:
                    nxt[jj2] = nxt.get(jj2, 0) + cnt
        state = nxt
    return state


class TestSectors:
    def test_u1_n5_binomials(self):
        table = sectors(U1, 5)
        assert [irrep.w for irrep in table.ids] == list(range(6))
        assert table.multiplicities == (1, 5, 10, 10, 5, 1)
        assert table.dims == (1, 1, 1, 1, 1, 1)

    def test_su2_n4_against_cg_oracle(self):
        oracle = clebsch_gordan_multiplicities(4)
        table = sectors(SU2, 4)
        assert {irrep.jj: m for irrep, m in zip(table.ids, table.multiplicities)} == oracle
        # frozen values from the oracle
        jjs = [irrep.jj for irrep in table.ids]
        assert list(zip(jjs, table.multiplicities, table.dims)) == [
            (0, 2, 1),
            (2, 3, 3),
            (4, 1, 5),
        ]

    @pytest.mark.parametrize("n", range(1, 21))
    def test_su2_against_cg_oracle(self, n):
        oracle = clebsch_gordan_multiplicities(n)
        table = sectors(SU2, n)
        assert {irrep.jj: m for irrep, m in zip(table.ids, table.multiplicities)} == oracle

    def test_sud_hook_length_example(self):
        table = sectors(sud(3), 9)
        by_parts = {irrep.parts: m for irrep, m in zip(table.ids, table.multiplicities)}
        assert by_parts[(7, 2)] == 27  # (1/2) n (n-3) at n = 9

    def test_zp_even_odd_split(self):
        table = sectors(zp(2), 3)
        betas = [irrep.beta for irrep in table.ids]
        assert list(zip(betas, table.multiplicities)) == [(0, 4), (1, 4)]

    @pytest.mark.parametrize("group", [U1, SU2, zp(2), zp(3), zp(5), sud(3), sud(4), sud(5)])
    @pytest.mark.parametrize("n", range(1, 21))
    def test_completeness(self, group, n):
        table = sectors(group, n)
        assert sum(map(mul, table.multiplicities, table.dims)) == group.local_dim**n
        assert all(m > 0 for m in table.multiplicities)

    def test_columns_must_have_equal_lengths(self):
        ids = (HammingWeight(0), HammingWeight(1))
        SectorTable(U1, 1, ids, (1, 1), (1, 1))
        for mults, dims in [((1,), (1, 1)), ((1, 1), (1,)), ((1, 1, 1), (1, 1, 1))]:
            with pytest.raises(ValueError, match="same length"):
                SectorTable(U1, 1, ids, mults, dims)

    @pytest.mark.parametrize("n", range(2, 21))
    def test_su2_multiplicity_recursion(self, n):
        for jj in range(n % 2, n + 1, 2):
            prev_lo = su2_multiplicity(n - 1, jj - 1) if jj - 1 >= 0 else 0
            prev_hi = su2_multiplicity(n - 1, jj + 1) if jj + 1 <= n - 1 else 0
            assert su2_multiplicity(n, jj) == prev_lo + prev_hi

    @pytest.mark.parametrize("n", range(1, 16))
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_sud_sector_count_is_partition_count(self, n, d):
        table = sectors(sud(d), n)
        assert len(table) == sum(1 for _ in partitions_max_rows(n, d))

    def test_group_validation(self):
        with pytest.raises(ValueError):
            zp(1)
        with pytest.raises(ValueError):
            sud(2)
        with pytest.raises(ValueError):
            GroupSpec("U1", p=3)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: zp(2.5),
            lambda: zp(3.0),
            lambda: zp(True),
            lambda: zp("3"),
            lambda: sud(3.0),
            lambda: sud(4.5),
            lambda: GroupSpec("SUd", d=3.5),
            lambda: GroupSpec("Zp", p=3.0),
        ],
    )
    def test_non_int_parameters_fail_at_construction(self, make):
        # refused here, not later inside the solver as a TypeError
        with pytest.raises(ValueError, match="must be an int"):
            make()


# spec-tabulated i_max values for n = 3..20
IMAX_TABLE = [0, 0, 1, 1, 2, 1, 2, 2, 3, 2, 4, 3, 4, 4, 5, 4, 6, 5]


class TestCanonicalOrder:
    def test_u1_interleaving_n5(self):
        table = canonical_order(sectors(U1, 5))
        assert [irrep.w for irrep in table.ids] == [0, 5, 1, 4, 2, 3]

    @pytest.mark.parametrize("n", range(1, 21))
    def test_u1_matches_interleaving(self, n):
        table = canonical_order(sectors(U1, n))
        expect = [i // 2 if i % 2 == 0 else n - i // 2 for i in range(n + 1)]
        assert [irrep.w for irrep in table.ids] == expect

    def test_su2_n13_tie_break(self):
        # m(13, j) sorted ascending; the two 429s order by descending 2j
        table = canonical_order(sectors(SU2, 13))
        assert [irrep.jj for irrep in table.ids] == [13, 11, 9, 7, 5, 1, 3]
        assert table.multiplicities == (1, 12, 65, 208, 429, 429, 572)

    @pytest.mark.parametrize("group", [U1, SU2, zp(3), zp(6), sud(3), sud(4)])
    @pytest.mark.parametrize("n", [4, 7, 11])
    def test_sort_is_permutation(self, group, n):
        before = sectors(group, n)
        after = canonical_order(before)
        assert sorted(before.multiplicities) == list(after.multiplicities)
        assert set(before.ids) == set(after.ids)
        assert after.is_canonical()

    @pytest.mark.parametrize(
        "group", [U1, SU2, zp(2), zp(3), zp(4), zp(5), sud(3), sud(4), sud(6)], ids=str
    )
    def test_matches_reference_sort(self, group):
        # sorted from a shuffled copy too: the order must not lean on the input's;
        # the (id, m, dim) triples are sorted whole, so each dim moves with its sector
        rng = random.Random(7)

        def columns(table):
            return (table.ids, table.multiplicities, table.dims)

        for n in range(1, 31):
            natural = sectors(group, n)
            triples = list(zip(*columns(natural)))
            expect = tuple(
                zip(*sorted(triples, key=lambda t: (t[1],) + tie_break_key(n, t[0])))
            )
            assert columns(canonical_order(natural)) == expect
            rng.shuffle(triples)
            table = SectorTable(group, n, *zip(*triples))
            assert columns(canonical_order(table)) == expect

    @pytest.mark.parametrize("n", range(3, 21))
    def test_su2_imax_matches_table(self, n):
        # the last index qualifies vacuously (no r beyond it) and is excluded
        mults = [su2_multiplicity(n, n - 2 * i) for i in range((n // 2) + 1)]
        imax = max(
            i
            for i in range(len(mults) - 1)
            if all(mults[i] <= mults[r] for r in range(i + 1, len(mults)))
        )
        assert imax == IMAX_TABLE[n - 3]


class TestSemiUniversality:
    def test_thresholds(self):
        assert semiuniversal_min_locality(U1) == 2
        assert semiuniversal_min_locality(SU2) == 2
        assert semiuniversal_min_locality(zp(5)) == 5
        assert semiuniversal_min_locality(sud(4)) == 3

    def test_custom_unknown(self):
        from symdesign.groups import CUSTOM

        with pytest.raises(ValueError):
            semiuniversal_min_locality(CUSTOM)


class TestPartitionHelpers:
    def test_hook_lengths_small(self):
        assert sn_irrep_dim((3,)) == 1
        assert sn_irrep_dim((1, 1, 1)) == 1
        assert sn_irrep_dim((2, 1)) == 2
        assert sn_irrep_dim((3, 2)) == 5
        assert sn_irrep_dim((14, 1)) == 14

    def test_frobenius_matches_hook_length_oracle(self):
        for n in range(1, 31):
            for parts in partitions_max_rows(n, n):
                assert sn_irrep_dim(parts) == hook_length_dim(parts), parts
        assert sn_irrep_dim(()) == frobenius_dim(()) == 1

    def test_frobenius_remainder_raises(self, monkeypatch):
        # (2, 2) has beta = (3, 2): 4! * 1 / (3! * 2!) = 2, and 25 is not divisible by 12
        monkeypatch.setattr(groups, "factorial", lambda m: factorial(m) + (m == 4))
        with pytest.raises(ArithmeticError):
            frobenius_dim(beta_set((2, 2)))

    def test_hook_content_remainder_raises(self, monkeypatch):
        # [2, 2, 2] is the trivial SU(3) irrep: f = 5 and 5 * 144 / 6! = 1, while
        # a wrong f = 6 leaves a remainder
        assert sud_irrep_dim((2, 2, 2), 3) == 1
        monkeypatch.setattr(groups, "sn_irrep_dim", lambda parts: 6)
        with pytest.raises(ArithmeticError):
            sud_irrep_dim((2, 2, 2), 3)

    def test_dim_squares_sum_to_group_order(self):
        for n in range(1, 9):
            total = sum(sn_irrep_dim(p) ** 2 for p in partitions_max_rows(n, n))
            assert total == factorial(n)

    def test_partitions_match_recursive_reference(self):
        for n in range(1, 41):
            for d in range(1, 9):
                assert list(partitions_max_rows(n, d)) == list(partitions_reference(n, d)), (n, d)

    def test_partitions_edge_cases(self):
        assert list(partitions_max_rows(0, 3)) == [()]
        assert list(partitions_max_rows(5, 0)) == []
        assert list(partitions_max_rows(-1, 3)) == []
        assert list(partitions_max_rows(4, 2)) == [(4,), (3, 1), (2, 2)]

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 12, 40, 300])
    def test_sud_dim_matches_hook_content_formula(self, d):
        # dim = prod over cells (d + j - i) / prod over cells of the hook length
        for n in range(1, 21 if d < 8 else 13):
            for parts in partitions_max_rows(n, d):
                cols = [sum(1 for a in parts if a > j) for j in range(parts[0])]
                cells = [(i, j) for i, a in enumerate(parts) for j in range(a)]
                num = prod(d + j - i for i, j in cells)
                hooks = prod(parts[i] - j + cols[j] - i - 1 for i, j in cells)
                assert num % hooks == 0
                assert sud_irrep_dim(parts, d) == num // hooks, (parts, d)

    @pytest.mark.parametrize(
        "parts, d",
        [
            ((1, 1, 1, 1), 3),
            ((2, 1, 1, 1), 3),
            ((5, 1, 1, 1), 3),
            ((3, 3, 1, 1, 1), 4),
            ((1,) * 7, 6),
        ],
    )
    def test_sud_dim_zero_beyond_d_rows(self, parts, d):
        # no SU(d) irrep has more than d rows: the hook-content product has
        # the factor d + 0 - d = 0 at cell (d, 0)
        assert sud_irrep_dim(parts, d) == 0

    @pytest.mark.parametrize("parts", [(0,), (1, 2), (), (-1,), (2, 0), (3, 1, 2)])
    def test_partition_id_rejects_invalid_parts(self, parts):
        with pytest.raises(ValueError):
            PartitionId(parts)
