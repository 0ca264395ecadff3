"""Charge matrices, symmetric-group characters, and custom problems."""

import gc
import json
import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, repeat
from math import comb, factorial
from operator import add, eq, mul, sub

import pytest

from kernel_ref import dot_rows, echelon_kernel, echelon_rank, is_kernel_basis, rank_rational
from symdesign import (
    SU2,
    U1,
    canonical_order,
    charge_matrix,
    compute_tmax,
    conjugacy_classes,
    custom_matrix,
    custom_table,
    load_custom_problem,
    sectors,
    sn_character,
    sud,
    tmax_exact,
    zp,
)
from symdesign.charges import (
    ChargeMatrix,
    CycleType,
    IDENTITY_CLASS,
    T_GROUP_CLASSES,
    gate_classes,
    multiplicity_in_row_span,
    parse_rational,
)
from symdesign.checks import exhaustive_certificate
from symdesign.groups import CUSTOM, CustomSector, SectorTable, partitions_max_rows, sn_irrep_dim
from symdesign.intlinalg import Echelon


# ---------------------------------------------------------------------------
# independent character oracle for small n: permutation modules
# ---------------------------------------------------------------------------


def cycle_type_of(perm: tuple[int, ...]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        if length >= 2:
            cycles.append(length)
    return tuple(sorted(cycles, reverse=True))


def tabloids(parts: tuple[int, ...], n: int):
    """Ordered set partitions of range(n) with block sizes ``parts``."""
    if not parts:
        yield ()
        return
    from itertools import combinations

    first, rest = parts[0], parts[1:]
    items = tuple(range(n))

    def rec(remaining, shape):
        if not shape:
            yield ()
            return
        for block in combinations(sorted(remaining), shape[0]):
            rem = tuple(x for x in remaining if x not in block)
            for tail in rec(rem, shape[1:]):
                yield (frozenset(block),) + tail

    yield from rec(items, parts)


def character_table_bruteforce(n: int) -> dict[tuple[int, ...], dict[tuple[int, ...], Fraction]]:
    """Irreducible characters of S_n via permutation-module fixed points.

    The permutation module on row-tabloids of shape lambda has character equal
    to the number of fixed tabloids; irreducible characters follow from
    unitriangular Gram-Schmidt against the group inner product, processing
    shapes in reverse-lex (most dominant first).
    """
    parts_list = sorted(partitions_max_rows(n, n), reverse=True)
    perms = list(permutations(range(n)))
    classes: dict[tuple[int, ...], int] = {}
    reps: dict[tuple[int, ...], tuple[int, ...]] = {}
    for p in perms:
        ct = cycle_type_of(p)
        classes[ct] = classes.get(ct, 0) + 1
        reps.setdefault(ct, p)

    def perm_module_char(shape):
        out = {}
        tabs = list(tabloids(shape, n))
        for ct, rep in reps.items():
            fixed = 0
            for tab in tabs:
                ok = all(frozenset(rep[x] for x in block) == block for block in tab)
                fixed += ok
            out[ct] = Fraction(fixed)
        return out

    def inner(chi1, chi2):
        return sum(classes[ct] * chi1[ct] * chi2[ct] for ct in classes) / factorial(n)

    irreducibles: dict[tuple[int, ...], dict] = {}
    for shape in parts_list:
        chi = perm_module_char(shape)
        for prev_shape, prev_chi in irreducibles.items():
            coeff = inner(chi, prev_chi)
            if coeff:
                chi = {ct: chi[ct] - coeff * prev_chi[ct] for ct in chi}
        assert inner(chi, chi) == 1, f"non-irreducible residue at {shape}"
        irreducibles[shape] = chi
    return irreducibles


# ---------------------------------------------------------------------------
# character oracle for larger n: the border-strip recursion keyed on the
# partition itself, converting parts -> beta -> parts at every level; its base
# case f^lambda is checked against the hook-length formula in test_symmetry
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def char_parts_keyed(parts: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    if not cycles:
        return sn_irrep_dim(parts) if parts else 1
    c, rest = cycles[0], cycles[1:]
    r = len(parts)
    # first-column hook lengths: distinct and decreasing; removing a border
    # strip of length c moves one of them, b, down to b - c
    beta = list(map(add, parts, range(r - 1, -1, -1)))
    beta_set = set(beta)
    total = 0
    for idx, b in enumerate(beta):
        e = b - c
        if e < 0:
            break
        if e in beta_set:
            continue
        # the rows idx+1 .. h-1 lie between e and b: the strip's height
        h = idx + 1
        while h < r and beta[h] > e:
            h += 1
        new_beta = beta[:idx] + beta[idx + 1 : h] + [e] + beta[h:]
        new_parts = tuple(map(sub, new_beta, range(r - 1, -1, -1)))
        if not new_parts[-1]:  # only e == 0 in the last row leaves an empty row
            new_parts = new_parts[:-1]
        value = char_parts_keyed(new_parts, rest)
        total += -value if (h - idx) % 2 == 0 else value
    return total


class TestSnCharacter:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_against_permutation_module_oracle(self, n):
        oracle = character_table_bruteforce(n)
        for shape, chi in oracle.items():
            for ct, value in chi.items():
                assert sn_character(shape, ct) == value, (shape, ct)

    @pytest.mark.parametrize("n", range(1, 19))
    def test_matches_parts_keyed_oracle(self, n):
        classes = conjugacy_classes(min(n, 6))
        for parts in partitions_max_rows(n, n):
            for cls in classes:
                assert sn_character(parts, cls) == char_parts_keyed(parts, cls.cycles), (parts, cls)

    def test_sud5_n50_rows_match_parts_keyed_oracle(self):
        A = charge_matrix(sectors(sud(5), 50), 4)
        assert A.shape == (5, 3765)
        parts = [irrep.parts for irrep in A.col_ids]
        oracle = tuple(tuple(char_parts_keyed(p, cls.cycles) for p in parts) for cls in A.row_labels)
        assert A.rows == oracle

    def test_trivial_rep(self):
        for n in (5, 9, 16):
            for ct in [(), (2,), (3,), (2, 2), (4,)]:
                assert sn_character((n,), ct) == 1

    def test_sign_rep_transposition(self):
        # frozen from the permutation-module oracle (n = 3, 4, 5)
        for n in (3, 4, 5):
            assert sn_character((1,) * n, (2,)) == -1

    def test_emptied_rows_keep_beta_canonical(self, monkeypatch):
        # a strip that empties rows above an empty last row must drop every
        # empty row, or the recursion reaches a beta-set of another length
        # (hook lengths larger than n) and keys one partition twice
        from symdesign import charges, groups

        charges._char_rec.cache_clear()
        groups._SN_DIMS.clear()
        rec, seen = charges._char_rec, []

        def recording(beta, cycles):
            seen.append(beta)
            return rec(beta, cycles)

        monkeypatch.setattr(charges, "_char_rec", recording)
        assert sn_character((1, 1, 1), (2,)) == -1
        assert sn_character((2, 1, 1), (2, 2)) == -1
        for n in range(1, 11):
            for parts in partitions_max_rows(n, n):
                for cls in conjugacy_classes(min(n, 6)):
                    sn_character(parts, cls)
        assert all(beta[-1] > 0 for beta in seen if beta), sorted(set(seen))

    def test_tabulated_polynomials(self):
        n = 15
        assert sn_character((n - 2, 2), (2, 2)) == (n * n - 11 * n + 32) // 2 == 46
        assert sn_character((n - 3, 2, 1), (4,)) == (n - 4) * (n - 6) * (n - 8) // 3 == 231

    @pytest.mark.parametrize("n", range(15, 21))
    def test_seven_lowest_rows_match_table(self, n):
        tails = {
            (): [1, 1, 1, 1, 1],
            (1,): [n - 1, n - 3, n - 4, n - 5, n - 5],
            (2,): [
                n * (n - 3) // 2,
                (n - 3) * (n - 4) // 2,
                (n - 3) * (n - 6) // 2,
                (n * n - 11 * n + 32) // 2,
                (n - 4) * (n - 7) // 2,
            ],
            (1, 1): [
                (n - 1) * (n - 2) // 2,
                (n - 2) * (n - 5) // 2,
                (n - 4) * (n - 5) // 2,
                (n * n - 11 * n + 26) // 2,
                (n - 5) * (n - 6) // 2,
            ],
            (3,): [
                n * (n - 1) * (n - 5) // 6,
                (n - 3) * (n - 4) * (n - 5) // 6,
                (n - 5) * (n * n - 10 * n + 18) // 6,
                (n - 5) * (n * n - 13 * n + 48) // 6,
                (n - 4) * (n - 5) * (n - 9) // 6,
            ],
            (1, 1, 1): [
                (n - 1) * (n - 2) * (n - 3) // 6,
                (n - 2) * (n - 3) * (n - 7) // 6,
                (n - 3) * (n * n - 12 * n + 38) // 6,
                (n - 3) * (n - 5) * (n - 10) // 6,
                (n - 5) * (n - 6) * (n - 7) // 6,
            ],
            (2, 1): [
                n * (n - 2) * (n - 4) // 3,
                (n - 2) * (n - 4) * (n - 6) // 3,
                (n - 4) * (n * n - 11 * n + 27) // 3,
                (n - 4) * (n - 6) * (n - 8) // 3,
                (n - 4) * (n - 6) * (n - 8) // 3,
            ],
        }
        for tail, values in tails.items():
            shape = (n - sum(tail),) + tail
            for ct, expected in zip([(), (2,), (3,), (2, 2), (4,)], values):
                assert sn_character(shape, ct) == expected

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            sn_character((2, 3), ())
        with pytest.raises(ValueError):
            sn_character((3,), (1,))
        with pytest.raises(ValueError):
            sn_character((3,), (4,))

    @pytest.mark.parametrize("cycles", [(2.0,), (3, 2.0), (True, True), ("2",)])
    def test_non_int_cycle_lengths_fail_at_construction(self, cycles):
        # refused here, not later in label as a TypeError
        with pytest.raises(ValueError, match="cycle lengths must be ints"):
            CycleType(cycles)
        with pytest.raises(ValueError, match="cycle lengths must be ints"):
            sn_character((4,), cycles)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_column_orthogonality(self, n):
        # sum over all irreps of chi(sigma) chi(tau) is the centralizer order
        # when the classes coincide and zero otherwise
        from math import factorial

        all_parts = list(partitions_max_rows(n, n))
        class_list = [c.cycles for c in conjugacy_classes(n)]

        def centralizer(cycles):
            full = list(cycles) + [1] * (n - sum(cycles))
            out = 1
            for length in set(full):
                mult = full.count(length)
                out *= length**mult * factorial(mult)
            return out

        for ct1 in class_list:
            for ct2 in class_list:
                acc = sum(sn_character(p, ct1) * sn_character(p, ct2) for p in all_parts)
                assert acc == (centralizer(ct1) if ct1 == ct2 else 0)

    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_schur_weyl_trace_consistency(self, d, n):
        # the permutation operator on n qudits has trace d**(number of cycles,
        # fixed points included); Schur-Weyl splits it over sectors
        from symdesign.groups import part_rows, sn_irrep_dims, sud_irrep_dims

        parts_list = list(partitions_max_rows(n, d))
        dims = sud_irrep_dims(part_rows(parts_list), sn_irrep_dims(parts_list), n, d)
        for cls in conjugacy_classes(n):
            n_cycles = len(cls.cycles) + (n - cls.support)
            total = sum(
                dim * sn_character(p, cls.cycles) for p, dim in zip(parts_list, dims)
            )
            assert total == d**n_cycles, (d, n, cls.cycles)


class TestConjugacyClasses:
    def test_s4_classes(self):
        assert [c.cycles for c in conjugacy_classes(4)] == [(), (2,), (3,), (2, 2), (4,)]

    def test_labels(self):
        labels = [c.label for c in conjugacy_classes(4)]
        assert labels == ["(1)", "(12)", "(123)", "(12)(34)", "(1234)"]

    def test_matches_the_recursive_enumeration(self):
        def rec(rest, max_len):
            yield ()
            for c in range(min(rest, max_len), 1, -1):
                for tail in rec(rest - c, c):
                    yield (c,) + tail

        for k in range(13):
            expected = sorted(set(rec(k, k)), key=lambda t: (sum(t), t))
            assert [c.cycles for c in conjugacy_classes(k)] == expected, k

    def test_leaves_no_reference_cycle(self):
        gc.collect()
        gc.disable()
        try:
            conjugacy_classes(8)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_cycle_type_rejects_a_list(self):
        # a sorted list is no tuple: named as such, not as an unsorted one
        with pytest.raises(ValueError, match=r"must be a tuple, got \[2\]"):
            CycleType([2])

    @pytest.mark.parametrize("entry", [(2,), "2", 2, None], ids=repr)
    def test_gate_class_that_is_no_cycle_type_is_named(self, entry):
        # a bare tuple of cycle lengths has no support to compare with k
        with pytest.raises(ValueError, match=f"must be CycleType records, got {re.escape(repr(entry))}$"):
            compute_tmax(sud(3), 10, 3, classes=[entry])
        with pytest.raises(ValueError, match="CycleType"):
            gate_classes(3, [CycleType((2,)), entry])

    def test_tgroup_is_s4_minus_4cycle(self):
        all4 = {c.cycles for c in conjugacy_classes(4)}
        assert {c.cycles for c in T_GROUP_CLASSES} == all4 - {(4,)}

    def test_s5_classes_supported(self):
        # no tabulated targets exist for 5-local classes, but the matrix is
        # well-formed and its kernel nests inside the 4-local one
        assert [c.cycles for c in conjugacy_classes(5)] == [
            (), (2,), (3,), (2, 2), (4,), (3, 2), (5,),
        ]
        n = 12
        rows5 = charge_matrix(sectors(sud(3), n), 5).rows
        rows4 = charge_matrix(sectors(sud(3), n), 4).rows
        for b in echelon_kernel(rows5):
            assert all(x == 0 for x in dot_rows(rows4, b))


class TestBuildChargeMatrix:
    def test_u1_n3_k1(self):
        m = charge_matrix(sectors(U1, 3), 1)
        assert m.rows == ((1, 2, 1, 0), (0, 1, 2, 1))

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_u1_k_equals_n_identity(self, n):
        m = charge_matrix(sectors(U1, n), n)
        eye = tuple(tuple(1 if i == j else 0 for j in range(n + 1)) for i in range(n + 1))
        assert m.rows == eye

    def test_z2_constant_entries(self):
        m = charge_matrix(sectors(zp(2), 5), 2)
        assert all(x == 4 for row in m.rows for x in row)

    def test_zp_rows_are_the_k_site_residues(self):
        # 2 sites carry Hamming weights 0..2 only, so Z_5 gets no rows b=3, b=4
        m = charge_matrix(sectors(zp(5), 4), 2)
        assert [label.label for label in m.row_labels] == ["b=0", "b=1", "b=2"]
        assert m.witness == (1, 2, 1)

    def test_sud_column_example(self):
        m = charge_matrix(sectors(sud(3), 15), 2)
        col = m.col_ids.index(next(i for i in m.col_ids if i.parts == (14, 1)))
        assert [row[col] for row in m.rows] == [14, 12]

    def test_identity_class_row_is_multiplicities(self):
        # the identity class row carries the irrep dimensions of the
        # symmetric group, which are exactly the sector multiplicities
        table = sectors(sud(4), 8)
        m = charge_matrix(table, 1)
        assert len(m.rows) == 1
        assert m.rows[0] == table.multiplicities

    def test_k3_chi_restriction_matches_tabulated_entries(self):
        n = 15
        table = canonical_order(sectors(sud(3), n))
        aligned = charge_matrix(table, 3)
        # four lowest-multiplicity sectors: [n], [n-1,1], [n-2,2], [n-2,1,1]
        assert [i.parts for i in table.ids[:4]] == [(15,), (14, 1), (13, 2), (13, 1, 1)]
        sub = [list(row[:4]) for row in aligned.rows]
        assert sub == [
            [1, n - 1, n * (n - 3) // 2, (n - 1) * (n - 2) // 2],
            [1, n - 3, (n - 3) * (n - 4) // 2, (n - 2) * (n - 5) // 2],
            [1, n - 4, (n - 3) * (n - 6) // 2, (n - 4) * (n - 5) // 2],
        ]
        # on two-row partitions alone the 3x3 block is rank-deficient
        assert echelon_rank([row[:3] for row in sub]) == 2
        assert echelon_rank(sub) == 3
        # its kernel is spanned by (C(n-2,2), -(n-3), 1, 0)
        assert is_kernel_basis(sub, [[comb(n - 2, 2), -(n - 3), 1, 0]])

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            charge_matrix(sectors(U1, 3), 0)
        with pytest.raises(ValueError):
            charge_matrix(sectors(U1, 3), 4)
        # explicit classes get the same check, before any column is computed
        ident, swap, cycle3 = CycleType(()), CycleType((2,)), CycleType((3,))
        for n, k, classes in [(2, 5, [ident, swap, cycle3]), (3, 0, [ident])]:
            with pytest.raises(ValueError, match="need 1 <= k <= n"):
                charge_matrix(sectors(sud(3), n), k, classes)

    def test_sud_table_partitions_must_have_n_boxes(self):
        # a lazy column skips sn_character, so the table is checked up front
        four = sectors(sud(3), 4)
        table = SectorTable(sud(3), 5, four.ids, four.multiplicities, four.dims)
        with pytest.raises(ValueError, match="partitions of n"):
            charge_matrix(table, 5)

    def test_class_support_exceeds_k(self):
        with pytest.raises(ValueError):
            charge_matrix(sectors(sud(3), 10), 2, [CycleType((3,))])

    @pytest.mark.parametrize("n,k", [(4, 1), (5, 2), (6, 3), (7, 4)])
    def test_u1_entries_count_bitstrings(self, n, k):
        # independent oracle: the (v, w) entry counts (n-k)-bit strings of
        # weight w - v
        m = charge_matrix(sectors(U1, n), k)
        for v, row in enumerate(m.rows):
            for w, entry in enumerate(row):
                count = sum(
                    1 for b in range(1 << (n - k)) if bin(b).count("1") == w - v
                )
                assert entry == count

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    @pytest.mark.parametrize("n,k", [(5, 2), (6, 3), (7, 4)])
    def test_zp_entries_count_bitstrings(self, p, n, k):
        if k < 1 or k > n:
            return
        m = charge_matrix(sectors(zp(p), n), k)
        residues = [i.beta for i in m.col_ids]
        for alpha, row in enumerate(m.rows):
            for beta, entry in zip(residues, row):
                count = sum(
                    1
                    for b in range(1 << (n - k))
                    if bin(b).count("1") % p == (beta - alpha) % p
                )
                assert entry == count

    @pytest.mark.parametrize("n", range(2, 13))
    def test_su2_entries_match_angular_momentum_sum(self, n):
        # independent route: entry (j', j) is the total multiplicity of spins
        # between |j - j'| and j + j' in the remaining n - k qubits
        from symdesign import su2_multiplicity

        for k in range(1, n):
            m = charge_matrix(sectors(SU2, n), k)
            jjs = [i.jj for i in m.col_ids]
            for lbl, row in zip(m.row_labels, m.rows):
                jjp = lbl.jj
                for jj, entry in zip(jjs, row):
                    lo, hi = abs(jj - jjp), jj + jjp
                    expect = sum(
                        su2_multiplicity(n - k, ll)
                        for ll in range(lo, min(hi, n - k) + 1, 2)
                        if (n - k - ll) % 2 == 0
                    )
                    assert entry == expect, (n, k, jjp, jj)


def _characters_of(A: ChargeMatrix) -> tuple:
    """``A``'s rows as ``sn_character`` computes them, entry by entry."""
    return tuple(
        tuple(sn_character(irrep.parts, cls) for irrep in A.col_ids) for cls in A.row_labels
    )


def _record_char_rec(monkeypatch) -> list:
    """Route ``charges._char_rec`` through a recorder of its outermost calls' classes."""
    from symdesign import charges

    rec, seen, depth = charges._char_rec, [], 0

    def recording(beta, cycles):
        nonlocal depth
        if not depth:
            seen.append(cycles)
        depth += 1
        try:
            return rec(beta, cycles)
        finally:
            depth -= 1

    monkeypatch.setattr(charges, "_char_rec", recording)
    return seen


class TestCentralCharacterColumns:
    # classes of support 2..4 take their entries from content power sums, the
    # others from the border-strip recursion; sn_character is the oracle

    @pytest.mark.parametrize("n", range(4, 31))
    def test_every_partition_matches_the_recursion(self, n):
        A = charge_matrix(sectors(sud(n), n), 4)
        assert len(A.col_ids) == sum(1 for _ in partitions_max_rows(n, n))
        assert A.rows == _characters_of(A), n

    @pytest.mark.parametrize(
        "k, classes",
        [
            (3, [CycleType((3,)), CycleType((2,))]),
            (3, [CycleType((2,)), IDENTITY_CLASS, CycleType((3,))]),
            (4, list(T_GROUP_CLASSES)),
            (5, None),
            (6, None),
        ],
        ids=["3,2", "2,id,3", "tgroup", "k5", "k6"],
    )
    def test_class_sets(self, k, classes):
        # a reordered list keeps its row order after the identity row, rows
        # (1), (123), (12) for 3,2 and (1), (12), (123) for 2,id,3; at k >= 5
        # the recursion's rows sit in the same matrix as the formula's
        for n in (k, 9, 16):
            A = charge_matrix(sectors(sud(5), n), k, classes)
            if classes is None:
                assert max(cls.support for cls in A.row_labels) == k
            else:
                assert A.row_labels == (CycleType(()), *(cls for cls in classes if cls.support))
            assert A.witness == (1,) + (0,) * (len(A.row_labels) - 1)
            assert A.rows == _characters_of(A), (n, k)

    def test_default_k4_columns_never_recurse(self, monkeypatch):
        seen = _record_char_rec(monkeypatch)
        A = charge_matrix(sectors(sud(5), 50), 4)
        assert A.shape == (5, 3765)
        A.rows
        assert seen == []

    def test_k5_recurses_only_on_support_5_rows(self, monkeypatch):
        seen = _record_char_rec(monkeypatch)
        A = charge_matrix(sectors(sud(5), 20), 5)
        A.rows
        assert sorted(set(seen)) == [(3, 2), (5,)]
        assert len(seen) == 2 * len(A.col_ids)

    def test_perturbed_dimension_raises(self, monkeypatch):
        from symdesign import charges

        table = sectors(sud(3), 5)
        j = [irrep.parts for irrep in table.ids].index((4, 1))
        dims = charges.sn_irrep_dims
        monkeypatch.setattr(charges, "sn_irrep_dims", lambda shapes: [f + 1 for f in dims(shapes)])
        # f = 5 instead of 4 makes the transposition entry 5 * 5 / 10
        with pytest.raises(ArithmeticError, match="character of"):
            charge_matrix(table, 2).column(j)

    def test_perturbed_content_sum_raises(self, monkeypatch):
        from symdesign import charges

        table = sectors(sud(3), 6)
        j = [irrep.parts for irrep in table.ids].index((6,))
        sums = charges._content_power_sums
        monkeypatch.setattr(
            charges, "_content_power_sums", lambda parts: (sums(parts)[0] + 1, *sums(parts)[1:])
        )
        # the trivial irrep's transposition entry becomes (15 + 1) / 15
        with pytest.raises(ArithmeticError, match="character of"):
            charge_matrix(table, 2).column(j)

    def test_content_power_sums_once_per_column(self, monkeypatch):
        # every row read, then every column: each column computes its sums once
        from symdesign import charges

        calls = []
        sums = charges._content_power_sums
        monkeypatch.setattr(
            charges, "_content_power_sums", lambda parts: calls.append(parts) or sums(parts)
        )
        A = charge_matrix(canonical_order(sectors(sud(4), 12)), 4)
        by_row = tuple(A[i] for i in range(A.shape[0]))
        assert A.rows == by_row
        assert len(calls) == A.shape[1] == 34
        assert sorted(calls) == sorted(irrep.parts for irrep in A.col_ids)

    def test_content_power_sums(self):
        from symdesign import charges

        for n in range(1, 13):
            for parts in partitions_max_rows(n, n):
                contents = [j - i for i, a in enumerate(parts) for j in range(a)]
                expected = tuple(sum(c**e for c in contents) for e in (1, 2, 3))
                assert charges._content_power_sums(parts) == expected, parts


GROUPS_FOR_INVARIANTS = [U1, SU2, zp(2), zp(3), zp(4), sud(3)]


class TestMatrixInvariants:
    @pytest.mark.parametrize("group", GROUPS_FOR_INVARIANTS)
    @pytest.mark.parametrize("n", [5, 9, 14])
    def test_kernel_nesting(self, group, n):
        # more locality means fewer unreachable directions
        ks = [k for k in range(max(1, getattr(group, "p", 1) or 1), n + 1)]
        prev = None
        for k in ks:
            rows = charge_matrix(sectors(group, n), k).rows
            if prev is not None:
                for b in echelon_kernel(rows):
                    assert all(x == 0 for x in dot_rows(prev, b))
            prev = rows

    @pytest.mark.parametrize("n", range(1, 15))
    def test_u1_rank(self, n):
        for k in range(1, n + 1):
            assert echelon_rank(charge_matrix(sectors(U1, n), k).rows) == k + 1

    @pytest.mark.parametrize("n", range(2, 15))
    def test_su2_rank_and_parity_kernel(self, n):
        for k in range(2, n + 1):
            rows = charge_matrix(sectors(SU2, n), k).rows
            assert echelon_rank(rows) == k // 2 + 1
        for s in range(1, n // 2):
            even = charge_matrix(sectors(SU2, n), 2 * s).rows
            odd = charge_matrix(sectors(SU2, n), 2 * s + 1).rows
            assert is_kernel_basis(even, echelon_kernel(odd))

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 7])
    def test_zp_rank(self, p):
        for n in range(p + 1, 13):
            for k in range(p, n):
                rank = echelon_rank(charge_matrix(sectors(zp(p), n), k).rows)
                assert rank == (p - 1 if p % 2 == 0 else p)

    @pytest.mark.parametrize("group", GROUPS_FOR_INVARIANTS)
    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_multiplicity_in_row_span(self, group, n):
        table = sectors(group, n)
        kmin = group.p if group.kind == "Zp" else 1
        for k in range(kmin, n + 1):
            A = charge_matrix(table, k)
            assert multiplicity_in_row_span(table.multiplicities, A)
            # an independent cross-check: m adds no rank to the rows
            rows = list(A.rows)
            assert rank_rational(rows + [table.multiplicities]) == rank_rational(rows)
            # the witness is the proof: all-zero weights prove nothing
            assert not multiplicity_in_row_span(table.multiplicities, _without_witness(A))

    @pytest.mark.parametrize("group", [U1, SU2] + [zp(p) for p in range(2, 8)], ids=str)
    def test_structural_witness(self, group):
        # the builder's closed-form weights alone reproduce m, with no elimination
        for n in range(1, 31):
            m = list(sectors(group, n).multiplicities)
            for k in range(1, n + 1):
                A = charge_matrix(sectors(group, n), k)
                assert dot_rows(list(zip(*A.rows)), A.witness) == m, (n, k)

    @pytest.mark.parametrize("d", [3, 4])
    def test_structural_witness_sud(self, d):
        # class lists without the identity class get it prepended, so the
        # witness reproduces m for every class set
        swap, cycle3, double = CycleType((2,)), CycleType((3,)), CycleType((2, 2))
        idless = [[swap], [cycle3, swap], [swap, cycle3, double]]
        for n in range(1, 16):
            m = list(sectors(sud(d), n).multiplicities)
            matrices = [charge_matrix(sectors(sud(d), n), k) for k in range(1, min(n, 5) + 1)]
            if n >= 4:
                matrices.append(charge_matrix(sectors(sud(d), n), 4, list(T_GROUP_CLASSES)))
            for classes in idless:
                k = max(cls.support for cls in classes)
                if k <= n:
                    A = charge_matrix(sectors(sud(d), n), k, classes)
                    assert A.row_labels == (CycleType(()), *classes)
                    matrices.append(A)
            for A in matrices:
                assert dot_rows(list(zip(*A.rows)), A.witness) == m, (n, A.row_labels)

    def test_structural_witness_custom(self):
        # a prepended identity row is m itself: weight 1 on it, 0 elsewhere
        m = [1, 3, 3, 1]
        A = custom_matrix(custom_table(m), [[1, Fraction(1, 2), Fraction(-1, 2), -1]])
        assert A.row_labels[0] == "identity" and A.witness == (1, 0)
        assert dot_rows(list(zip(*A.rows)), A.witness) == m

    def test_custom_row_span_is_not_eliminated_again(self, monkeypatch):
        # the solve checks the builder's witness by one product: its only
        # echelon steps are the prefix scan's, one per column it reads
        m = [1, 3, 3, 1]
        A = custom_matrix(custom_table(m), [[1, 1, 1, 1], [0, 2, 2, 0]])
        table = canonical_order(custom_table(m))
        A = A.aligned_to(table)
        calls = []
        add = Echelon.add
        monkeypatch.setattr(Echelon, "add", lambda self, v: calls.append(v) or add(self, v))
        result = tmax_exact(A, table, assume_semiuniversal=True)
        assert result.proven_exact and result.tmax == 0
        assert calls == [A.column(0), A.column(1)]

    def test_wrong_witness_outside_row_span_rejected(self):
        # a witness that does not reproduce m is only a candidate: elimination
        # then finds m outside the span, and the solve refuses the matrix
        table = canonical_order(custom_table([1, 2]))
        A = ChargeMatrix(("H0",), table.ids, lambda j: (1,), HAND_BUILT, (1,))
        with pytest.raises(ValueError, match="row span"):
            tmax_exact(A, table, assume_semiuniversal=True)

    def test_witness_not_reproducing_m_is_refused_inside_the_span(self):
        # m = (2, 3) is half the row (4, 6), but weight 1 gives 2m: the
        # witness is the only proof, so the check and the solve refuse it
        A = _hand_built([[4, 6]], [1])
        assert not multiplicity_in_row_span([2, 3], A)
        table = custom_table([2, 3])
        with pytest.raises(ValueError, match="witness"):
            tmax_exact(A, table, assume_semiuniversal=True)
        assert multiplicity_in_row_span([2, 3], _hand_built([[4, 6]], [Fraction(1, 2)]))
        assert not multiplicity_in_row_span([1, 2], _hand_built([[1, 1]], [1]))
        assert not multiplicity_in_row_span([1, 2], _hand_built([], []))

    def test_unit_weight_row_is_compared_entry_by_entry(self):
        # a witness of one 1 and zeros reproduces just its row, which must equal m in every entry
        m = [1, 3, 3, 1, 5]
        for j in range(len(m)):
            off = m[:j] + [m[j] + 1] + m[j + 1 :]
            assert not multiplicity_in_row_span(m, _hand_built([off, m], [1, 0], width=5))
            assert not multiplicity_in_row_span(m, _hand_built([m, off], [0, 1], width=5))
        assert multiplicity_in_row_span(m, _hand_built([[0] * 5, m], [0, 1], width=5))
        assert not multiplicity_in_row_span(m[:4], _hand_built([m], [1], width=5))

    def test_weight_two_row_takes_the_general_path(self):
        # a weight of 2 doubles its row: m itself then fails and m / 2 passes
        m = [2, 4, 6]
        half = [1, 2, 3]
        assert not multiplicity_in_row_span(m, _hand_built([m, half], [2, 0], width=3))
        assert multiplicity_in_row_span(m, _hand_built([half, m], [2, 0], width=3))
        assert multiplicity_in_row_span(m, _hand_built([half, [0, 0, 0]], [2, 1], width=3))


class TestUnitWitnessRowSpan:
    """A witness of one weight 1 compares its row with ``m``; the verdict is the general path's."""

    @staticmethod
    def cases(m):
        """``m``, and ``m`` with its first or last entry one too large."""
        m = list(m)
        return [m, [m[0] + 1, *m[1:]], [*m[:-1], m[-1] + 1]]

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_sud_matches_the_general_path(self, d):
        for n in range(1, 13):
            table = canonical_order(sectors(sud(d), n))
            matrices = [charge_matrix(table, k) for k in range(1, min(n, 5) + 1)]
            if n >= 4:
                matrices.append(charge_matrix(table, 4, list(T_GROUP_CLASSES)))
            for A in matrices:
                assert A.witness[0] == 1 and not any(A.witness[1:])
                cases = self.cases(table.multiplicities)
                verdicts = [multiplicity_in_row_span(m, A) for m in cases]
                assert verdicts == [row_span_by_products(m, A) for m in cases]
                assert verdicts == [True, False, False], (n, A.row_labels)

    @pytest.mark.parametrize(
        "doc",
        [
            {"m": [1, 3, 3, 1], "rows": [[1, "1/2", "-1/2", -1]]},
            {"m": [5], "rows": []},
            {"m": [2, 2, 7, 1, 9], "rows": [[1, 0, -1, 0, 2], ["3/4", 1, 0, -2, 0]]},
            {"m": [4, 1, 4], "rows": [[0, 0, 0]], "labels": ["zero"]},
        ],
        ids=lambda doc: f"m={doc['m']}",
    )
    def test_custom_documents_match_the_general_path(self, doc):
        table, A = load_custom_problem(json.dumps(doc))
        for m in self.cases(table.multiplicities):
            assert multiplicity_in_row_span(m, A) == row_span_by_products(m, A)
        assert multiplicity_in_row_span(table.multiplicities, A)
        wrong_last = [*table.multiplicities[:-1], table.multiplicities[-1] + 1]
        assert not multiplicity_in_row_span(wrong_last, A)

    def test_a_wrong_last_entry_is_refuted(self):
        table = canonical_order(sectors(sud(4), 12))
        A = charge_matrix(table, 4)
        m = list(table.multiplicities)
        m[-1] -= 1
        assert not multiplicity_in_row_span(m, A)
        assert not multiplicity_in_row_span(m[:-1], A)  # one entry short
        assert multiplicity_in_row_span(table.multiplicities, A)


def row_span_by_products(m, A):
    """The general check: each row of nonzero weight multiplied by it and added whole."""
    products = [0] * len(m)
    for i, y in enumerate(A.witness):
        if y:
            products = list(map(add, products, map(mul, repeat(y), A[i])))
    return len(m) == len(A.col_ids) and all(map(eq, products, m))


HAND_BUILT = "a hand-built gate set is not known to be semi-universal"


def _hand_built(rows, witness, width=2):
    """A custom matrix over ``rows`` as given, with no identity row added."""
    ids = tuple(map(CustomSector, range(width)))
    labels = [f"H{i}" for i in range(len(rows))]
    return ChargeMatrix(labels, ids, lambda j: tuple(row[j] for row in rows), HAND_BUILT, witness)


def _without_witness(A):
    """``A`` with all-zero weights, a witness that proves nothing."""
    return ChargeMatrix(A.row_labels, A.col_ids, A.column, A.shortfall, [0] * A.shape[0])


class TestCustomMatrix:
    def test_identity_prepend(self):
        m = custom_matrix(custom_table([1, 1]), [])
        assert m.rows == ((1, 1),)
        assert m.row_labels == ("identity",)

    def test_sud_k2_sv_rows(self):
        # the identity class row already equals the multiplicities; the
        # prepended identity row repeats it and changes no answer
        table = canonical_order(sectors(sud(3), 15))
        chi = charge_matrix(table, 2)
        A = custom_matrix(table, chi.rows)
        assert len(A.rows) == 3 and A.rows[0] == chi.rows[0]
        ours = tmax_exact(A, table, assume_semiuniversal=True)
        theirs = tmax_exact(chi, table, assume_semiuniversal=True)
        assert ours == theirs and ours.tmax == 103

    @pytest.mark.parametrize("seed", range(30))
    def test_rows_spanning_m_give_the_same_certificate(self, seed):
        # rows that already span m: a multiple scale*m split as
        # (scale*m - r) + r, and possibly one more random row.  The prepended
        # identity row changes neither the row space nor the kernel
        rng = random.Random(f"span:{seed}")
        c = rng.randint(4, 6)
        m = sorted(rng.randint(1, 12) for _ in range(c))
        scale = rng.randint(1, 3)
        r = [rng.randint(-3, 3) for _ in range(c)]
        rows = [[scale * x - y for x, y in zip(m, r)], r]
        weights = [Fraction(1, scale)] * 2
        if rng.random() < 0.5:
            rows.append([rng.randint(-3, 3) for _ in range(c)])
            weights.append(0)
        table = custom_table(m)
        A = custom_matrix(table, rows)
        assert A.row_labels[0] == "identity" and A.witness == (1,) + (0,) * len(rows)
        B = _hand_built(rows, weights, width=c)
        assert dot_rows(list(zip(*B.rows)), B.witness) == m
        ours = tmax_exact(A, table, assume_semiuniversal=True)
        assert ours.certificate == exhaustive_certificate(A, table)
        assert ours == tmax_exact(B, table, assume_semiuniversal=True)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="row length"):
            custom_matrix(custom_table([1, 2]), [[1, 2, 3]])


class TestCustomJson:
    def test_round_trip(self):
        doc = {"m": [4, 4], "rows": [], "labels": []}
        table, matrix = load_custom_problem(json.dumps(doc))
        assert table.multiplicities == (4, 4)
        assert matrix.rows == ((4, 4),)

    def test_rational_strings(self):
        doc = {"m": [1, 2, 1], "rows": [["1/2", "-1/3", "0"]], "labels": ["h0"]}
        table, matrix = load_custom_problem(json.dumps(doc))
        # canonical order keeps the document's indices: s0, s2, then s1
        assert [irrep.label for irrep in table.ids] == ["s0", "s2", "s1"]
        assert table.multiplicities == (1, 1, 2) and matrix.col_ids == table.ids
        # stored scaled by the lcm of the denominators, in the table's order
        assert matrix.rows[-1] == (3, 0, -2)
        result = tmax_exact(matrix, table, assume_semiuniversal=True)
        assert result.tmax == 7
        assert result.certificate.q == (2, -8, 3) and result.certificate.weighted_norm == 16

    def test_parse_rational_keeps_ints(self):
        assert type(parse_rational(-7)) is int and parse_rational(-7) == -7
        assert parse_rational("-6/4") == Fraction(-3, 2)
        assert parse_rational("5") == 5
        for bad in (True, 2.0, 0.5, "1/0", "0.5", "1e3", None):
            with pytest.raises(ValueError):
                parse_rational(bad)

    def test_malformed(self):
        with pytest.raises(json.JSONDecodeError):
            load_custom_problem("{not json")
        with pytest.raises(ValueError):
            load_custom_problem('{"rows": []}')
        # a mistyped "rows" is named, not read as a problem without rows
        with pytest.raises(ValueError, match="'row'"):
            load_custom_problem('{"m": [2, 2], "row": [[1, -1]]}')
        # a label count that misses the rows is told in the document's terms
        with pytest.raises(ValueError, match="^1 row labels for 0 rows$"):
            load_custom_problem('{"m": [1, 1], "labels": ["a"]}')

    def test_rejects_nonintegral_multiplicities(self):
        with pytest.raises(ValueError):
            load_custom_problem('{"m": [1.5, 2], "rows": []}')
        with pytest.raises(ValueError):
            load_custom_problem('{"m": [0, 2], "rows": []}')
        # integral floats too: rows reject 2.0, and 1e3 must not pass for 1000
        for doc in ('{"m": [2.0, 4]}', '{"m": [1e3, 4]}'):
            with pytest.raises(ValueError, match="positive integers"):
                load_custom_problem(doc)
        # custom_matrix checks a hand-built table's multiplicities instead of
        # truncating 2.5 to 2
        ids = (CustomSector(0), CustomSector(1))
        for m in ((2.5, 4), (2.0, 4), (True, 4), (0, 4), (2, -1)):
            with pytest.raises(ValueError, match="positive integers"):
                custom_matrix(SectorTable(CUSTOM, 2, ids, m, (1, 1)), [])

    def test_rejects_bool_row_entries(self):
        # True would pass for 1, as it would in m; exact and float rows still read
        for row in ([True, False, 1], [1, 0, True]):
            with pytest.raises(ValueError, match="not bool"):
                custom_matrix(custom_table([1, 1, 2]), [row])
        A = custom_matrix(custom_table([1, 1, 2]), [[Fraction(1, 2), 0.5, 1]])
        assert A[1] == (1, 1, 2)
