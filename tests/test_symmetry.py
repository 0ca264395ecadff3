"""Sector enumeration, canonical ordering, and semi-universality thresholds."""

import random
import re
from fractions import Fraction
from math import comb, factorial, prod
from operator import add, mul

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symdesign import (
    SU2,
    U1,
    canonical_order,
    charge_matrix,
    compute_tmax,
    conjugacy_classes,
    sectors,
    semiuniversal_min_locality,
    su2_multiplicity,
    sud,
    zp,
)
from symdesign.groups import (
    CUSTOM,
    CustomSector,
    GroupSpec,
    HammingWeight,
    PartitionId,
    Residue,
    SectorTable,
    TwiceSpin,
    check_partitions,
    checked_ids,
    custom_table,
    part_rows,
    partitions_max_rows,
    sn_irrep_dim,
    sn_irrep_dims,
    sud_irrep_dims,
)
from symdesign import groups


def sud_irrep_dim(parts, d):
    """The SU(d) dimension of one shape, from the table-wide column pass."""
    shapes = (parts,)
    return sud_irrep_dims(part_rows(shapes), sn_irrep_dims(shapes), sum(parts), d)[0]


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


def hook_content_dim(parts: tuple[int, ...], d: int) -> int:
    """Oracle for the SU(d) dimension: the product over cells of ``d + content`` over the hook lengths."""
    cols = conjugate(parts)
    cells = [(i, j) for i, a in enumerate(parts) for j in range(a)]
    num = prod(d + j - i for i, j in cells)
    dim, rem = divmod(num, prod(parts[i] - j + cols[j] - i - 1 for i, j in cells))
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


def assert_same_ids(got, expect):
    """Two id tuples agree in class, equality, hash, label and repr, record by record."""
    assert len(got) == len(expect)
    for a, b in zip(got, expect):
        assert type(a) is type(b) and a == b and hash(a) == hash(b)
        assert (a.label, repr(a)) == (b.label, repr(b))


class TestCheckedIds:
    """Table ids are built without a check per record and equal the checked constructors' ids."""

    @pytest.mark.parametrize(
        "group", [U1, SU2, zp(2), zp(3), zp(4), zp(5), sud(3), sud(4), sud(5)], ids=str
    )
    def test_table_ids_equal_the_constructors(self, group):
        for n in range(1, 13):
            ids = sectors(group, n).ids
            assert_same_ids(ids, tuple(type(irrep)(*irrep._fields()) for irrep in ids))

    def test_custom_table_ids_equal_the_constructor(self):
        assert_same_ids(custom_table([3, 1, 2, 2]).ids, tuple(map(CustomSector, range(4))))

    @pytest.mark.parametrize(
        "cls, values",
        [
            (HammingWeight, range(6)),
            (TwiceSpin, range(1, 12, 2)),
            (Residue, range(5)),
            (CustomSector, range(9)),
            (PartitionId, tuple(partitions_max_rows(7, 4))),
            (HammingWeight, ()),
        ],
        ids=lambda x: getattr(x, "__name__", None),
    )
    def test_helper_equals_the_constructors(self, cls, values):
        assert_same_ids(checked_ids(cls, values), tuple(map(cls, values)))

    @pytest.mark.parametrize("cls", [HammingWeight, TwiceSpin, Residue, CustomSector])
    @pytest.mark.parametrize("bad", [1.5, -3, True])
    def test_public_constructors_still_check(self, cls, bad):
        with pytest.raises(ValueError, match="must be an int >= 0"):
            cls(bad)

    @pytest.mark.parametrize("bad", [(1.5,), (-3,), (True,), [2, 1]])
    def test_partition_id_still_checks(self, bad):
        with pytest.raises(ValueError, match="partition parts"):
            PartitionId(bad)


class TestIntSizes:
    """Sizes and partition parts must be ``int``: no bool, and no integral float."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: sectors(U1, 3.0),
            lambda: sectors(sud(3), 4.5),
            lambda: sectors(SU2, True),
            lambda: compute_tmax(U1, 6, 2.0),
            lambda: compute_tmax(U1, True, 1),
            lambda: compute_tmax(sud(3), 6, 3.0),
            lambda: charge_matrix(sectors(zp(3), 6), 3.0),
            lambda: conjugacy_classes(2.5),
            lambda: conjugacy_classes(True),
            lambda: PartitionId((2.0, 1)),
            lambda: PartitionId((True,)),
            lambda: PartitionId(("2", "1")),
        ],
    )
    def test_non_int_is_rejected_at_the_entry_point(self, call):
        # refused here, not as a TypeError from range or comb further in
        with pytest.raises(ValueError, match="must be an int|must be ints"):
            call()

    def test_ints_still_pass(self):
        assert PartitionId((2, 1)).parts == (2, 1)
        assert len(conjugacy_classes(3)) == 3
        assert compute_tmax(U1, 6, 2)[0].tmax == 9


# spec-tabulated i_max values for n = 3..20
IMAX_TABLE = [0, 0, 1, 1, 2, 1, 2, 2, 3, 2, 4, 3, 4, 4, 5, 4, 6, 5]


def _check_reference_sort(natural, rng):
    """``canonical_order`` equals one sort by ``(m, tie key)``, from natural and shuffled order.

    The (id, m, dim) triples are sorted whole, so each dim moves with its
    sector; the shuffled copy shows the order does not lean on the input's.
    """

    def columns(table):
        return (table.ids, table.multiplicities, table.dims)

    n = natural.n
    triples = list(zip(*columns(natural)))
    expect = tuple(zip(*sorted(triples, key=lambda t: (t[1],) + tie_break_key(n, t[0]))))
    assert columns(canonical_order(natural)) == expect
    rng.shuffle(triples)
    table = SectorTable(natural.group, n, *zip(*triples))
    assert columns(canonical_order(table)) == expect


def keyed_sort(table: SectorTable) -> SectorTable:
    """The reference order: one sort of the row indices keyed by ``(multiplicity, label key)``.

    Its one permutation takes every column; the sort is stable, so equal keys
    keep their input order.
    """
    keys = [*zip(table.multiplicities, map(groups._LABEL_KEYS[table.group.kind], table.ids))]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    columns = (table.ids, table.multiplicities, table.dims)
    return SectorTable(table.group, table.n, *(tuple(map(c.__getitem__, order)) for c in columns))


class TestCanonicalOrder:
    @pytest.mark.parametrize("group", [U1, SU2, zp(3), zp(5), sud(3), sud(4)], ids=str)
    def test_equals_the_keyed_sort_with_tied_multiplicities(self, group):
        # random multiplicities from a short range tie often; the dims are random too
        rng = random.Random(37)
        for n in range(1, 13):
            ids = list(sectors(group, n).ids)
            for _ in range(5):
                rng.shuffle(ids)
                mults = tuple(rng.randint(1, 3) for _ in ids)
                dims = tuple(rng.randint(1, 4) for _ in ids)
                table = SectorTable(group, n, tuple(ids), mults, dims)
                assert canonical_order(table) == keyed_sort(table)

    @pytest.mark.parametrize("group", [U1, SU2, zp(3), sud(3), CUSTOM], ids=str)
    def test_empty_table_stays_empty(self, group):
        table = SectorTable(group, 0, (), (), ())
        assert canonical_order(table) == table == keyed_sort(table)

    @pytest.mark.parametrize(
        "group, ids",
        [
            (U1, (HammingWeight(2), HammingWeight(1))),
            (SU2, (TwiceSpin(1), TwiceSpin(3))),
            (sud(3), (PartitionId((2, 1)), PartitionId((3,)))),
            (CUSTOM, (CustomSector(0), CustomSector(1))),
        ],
        ids=str,
    )
    def test_duplicate_labels_keep_input_order(self, group, ids):
        # rows equal in (multiplicity, label) never compare their ids, which
        # have no order, and keep their input order, dims with them
        a, b = ids
        table = SectorTable(group, 3, (a, b, a, a, b), (2, 2, 2, 1, 2), (4, 1, 3, 2, 5))
        got = canonical_order(table)
        assert got == keyed_sort(table)
        assert got.ids[0] == a and got.multiplicities == (1, 2, 2, 2, 2)
        assert [dim for irrep, dim in zip(got.ids, got.dims) if irrep == a] == [2, 4, 3]
        assert [dim for irrep, dim in zip(got.ids, got.dims) if irrep == b] == [1, 5]

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
        rng = random.Random(7)
        for n in range(1, 31):
            _check_reference_sort(sectors(group, n), rng)

    def test_custom_tables_match_reference_sort(self):
        # tied multiplicities order by sector index; one-sector tables included
        rng = random.Random(11)
        for size in [1] * 5 + list(range(2, 40)):
            m = [rng.randint(1, max(1, size // 4)) for _ in range(size)]
            _check_reference_sort(custom_table(m), rng)
            _check_reference_sort(custom_table([7] * size), rng)

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
        assert sn_irrep_dim(()) == hook_length_dim(()) == 1

    def test_frobenius_remainder_raises(self, monkeypatch):
        # (2, 2) has beta = (3, 2): 4! * 1 / (3! * 2!) = 2, and 25 is not divisible by 12
        rising = groups.rising_row
        wrong = lambda x, length: [f + (i == 4) for i, f in enumerate(rising(x, length))]
        monkeypatch.setattr(groups, "rising_row", wrong)  # 4! becomes 25
        with pytest.raises(ArithmeticError, match=r"Frobenius formula of \(2, 2\)"):
            groups.frobenius_dims(part_rows(((2, 2),)))

    def test_hook_content_remainder_raises(self):
        # [2, 2, 2] is the trivial SU(3) irrep: f = 5 and 5 * 144 / 6! = 1, while
        # a wrong f = 6 leaves a remainder
        rows = part_rows(((2, 2, 2),))
        assert sud_irrep_dims(rows, [5], 6, 3) == (1,)
        with pytest.raises(ArithmeticError, match=r"SU\(3\) dimension of \(2, 2, 2\)"):
            sud_irrep_dims(rows, [6], 6, 3)

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
        for n in range(1, 21 if d < 8 else 13):
            for parts in partitions_max_rows(n, d):
                assert sud_irrep_dim(parts, d) == hook_content_dim(parts, d), (parts, d)

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

    @pytest.mark.parametrize(
        "parts", [(0,), (1, 2), (), (-1,), (2, 0), (3, 1, 2), (2.0,), (True,), (3, 1.0)]
    )
    def test_partition_id_rejects_invalid_parts(self, parts):
        with pytest.raises(ValueError):
            PartitionId(parts)

    def test_partition_id_rejects_a_list(self):
        # a list would pass every part check and make an unhashable id
        with pytest.raises(ValueError, match=r"must be a tuple, got \[3, 1\]"):
            PartitionId([3, 1])
        # each other id holds one exact int >= 0 and names the value it refuses
        refused = [
            (HammingWeight, 1.5),
            (HammingWeight, -3),
            (HammingWeight, True),
            (HammingWeight, [1]),
            (TwiceSpin, [1]),
            (TwiceSpin, -1),
            (Residue, "a"),
            (Residue, [1]),
            (CustomSector, None),
            (CustomSector, [1]),
        ]
        for make, bad in refused:
            with pytest.raises(ValueError, match=re.escape(f"must be an int >= 0, got {bad!r}")):
                make(bad)


class TestSudTableCheckedOnce:
    @pytest.mark.parametrize(
        "bad",
        [(4, 2.0), (5, True), (1, 5), (6, 0), (), (3, 2)],
        ids=["float-part", "bool-part", "increasing", "zero-part", "empty", "n-1-boxes"],
    )
    def test_generated_bad_shape_is_rejected(self, bad, monkeypatch):
        # the generated shapes are checked as one table, before any id is built
        shapes = list(partitions_max_rows(6, 3))
        monkeypatch.setattr(
            groups, "partitions_max_rows", lambda n, d: iter(shapes[:3] + [bad] + shapes[4:])
        )
        with pytest.raises(ValueError, match="partition"):
            sectors(sud(3), 6)

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_ids_equal_checked_partition_ids(self, d):
        for n in range(1, 31):
            ids = sectors(sud(d), n).ids
            assert ids == tuple(map(PartitionId, partitions_max_rows(n, d))), (d, n)
            assert {type(irrep) for irrep in ids} == {PartitionId}


def rejected_per_shape(shapes, n) -> bool:
    """Reference for ``check_partitions``: each shape tested on its own parts."""
    for parts in shapes:
        if any(type(x) is not int for x in parts):
            return True
        if any(a < b for a, b in zip(parts, parts[1:])) or not parts or min(parts) <= 0:
            return True
        if n is not None and sum(parts) != n:
            return True
    return False


class TestSudColumnPasses:
    """Whole-table f^lambda and SU(d) dimensions against the per-shape oracles."""

    @pytest.mark.parametrize("rows", ["3", "4", "6", "n"])
    def test_tables_equal_per_shape_oracles(self, rows, monkeypatch):
        # an empty memo: each n brings new shapes, so every table takes the column passes
        monkeypatch.setattr(groups, "_SN_DIMS", {})
        for n in range(1, 31):
            d = max(n, 3) if rows == "n" else int(rows)
            table = sectors(sud(d), n)
            shapes = [irrep.parts for irrep in table.ids]
            assert table.multiplicities == tuple(map(hook_length_dim, shapes)), (d, n)
            assert table.dims == tuple(hook_content_dim(p, d) for p in shapes), (d, n)

    def test_sud300_pads_only_to_the_longest_shape(self, monkeypatch):
        monkeypatch.setattr(groups, "_SN_DIMS", {})
        table = sectors(sud(300), 12)
        shapes = [irrep.parts for irrep in table.ids]
        assert len(shapes) == 77
        assert len(check_partitions(shapes, 12)) == 12  # the rows of (1,) * 12, not 300
        assert table.multiplicities == tuple(map(hook_length_dim, shapes))
        assert table.dims == tuple(hook_content_dim(p, 300) for p in shapes)

    @pytest.mark.parametrize("d, n", [(3, 25), (4, 30), (6, 14), (300, 12)])
    def test_table_from_empty_memo_equals_warm_table(self, d, n, monkeypatch):
        warm = sectors(sud(d), n)
        assert sectors(sud(d), n) == warm
        monkeypatch.setattr(groups, "_SN_DIMS", {})
        assert sectors(sud(d), n) == warm
        shapes = [irrep.parts for irrep in warm.ids]
        assert groups._SN_DIMS == dict(zip(shapes, warm.multiplicities))

    def test_warm_table_reads_f_from_the_memo(self, monkeypatch):
        warm = sectors(sud(4), 30)

        def unexpected(rows):
            raise AssertionError("a warm table recomputed f^lambda")

        monkeypatch.setattr(groups, "frobenius_dims", unexpected)
        assert sectors(sud(4), 30) == warm
        assert sn_irrep_dims([irrep.parts for irrep in warm.ids]) == list(warm.multiplicities)

    def test_part_rows_pad_with_zeros(self):
        assert part_rows([(3, 1), (2, 1, 1), (4,)]) == [(3, 2, 4), (1, 1, 0), (0, 1, 0)]
        assert part_rows([(), ()]) == [(0, 0)]
        assert sn_irrep_dim(()) == 1

    @pytest.mark.parametrize("parts", [(-1,), (3, -1), (-1, 0)])
    def test_negative_hook_length_is_refused(self, parts, monkeypatch):
        # the factorial row would wrap round at a negative index
        monkeypatch.setattr(groups, "_SN_DIMS", {})
        with pytest.raises(ValueError, match="non-negative"):
            sn_irrep_dim(parts)
        assert groups._SN_DIMS == {}

    @given(
        st.lists(st.lists(st.integers(-2, 4), max_size=4).map(tuple), max_size=5),
        st.sampled_from([None, 3, 4]),
    )
    def test_check_partitions_rejects_what_a_per_shape_check_rejects(self, shapes, n):
        try:
            check_partitions(shapes, n)
            rejected = False
        except ValueError:
            rejected = True
        assert rejected == rejected_per_shape(shapes, n)

    @pytest.mark.parametrize(
        "shapes",
        [[(3, 1), (-1,)], [(2, 2), (4, 0)], [(1, 1, 1, 1), (5, -1)], [(2, 1, 1), (2, 2, 0)]],
        ids=["negative-short", "zero-last", "negative-last", "zero-under-longer"],
    )
    def test_padding_hides_no_bad_part(self, shapes):
        # a part of 0 or below sits where a shorter shape's padding would
        with pytest.raises(ValueError, match="partition"):
            check_partitions(shapes)
        assert rejected_per_shape(shapes, None)
