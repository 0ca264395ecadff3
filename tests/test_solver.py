"""Lower bounds, exact design orders, enumeration, and certificate checks."""

import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_ref import echelon_kernel, rank_rational
from symdesign import (
    INFINITE,
    SU2,
    U1,
    Certificate,
    SemiUniversalityError,
    canonical_order,
    charge_matrix,
    compute_tmax,
    conjugacy_classes,
    custom_matrix,
    custom_table,
    load_custom_problem,
    lower_bound,
    min_weighted_l1,
    sectors,
    sud,
    tmax_exact,
    verify_certificate,
    zp,
)
from symdesign import charges, groups, solver
from symdesign.charges import T_GROUP_CLASSES, ChargeMatrix, CycleType, parse_rational, sn_character
from symdesign.checks import exhaustive_certificate, kernel_vectors
from symdesign.groups import CUSTOM, CustomSector, GroupSpec, SectorTable, binomial_row, canonical_table
from symdesign.intlinalg import Echelon, ReducedLattice, lll_reduce


@pytest.fixture(autouse=True)
def empty_table_memo(empty_memo):
    """Every test starts with nothing kept in the memo, whatever ran before it."""


def aligned(group, n, k):
    table = canonical_order(sectors(group, n))
    return charge_matrix(table, k), table


NO_IDENTITY = "the rows miss the identity class"


def without_identity_row(A, m):
    """``A`` with its leading identity-class row dropped and all-zero weights.

    ``charge_matrix`` always gives an SU(d) class set the identity class, so
    this builds by hand a matrix whose rows must not span ``m``, checked by
    an independent rank.
    """
    rows, _ = A.shape
    bare = ChargeMatrix(
        A.row_labels[1:], A.col_ids, lambda j: A.column(j)[1:], NO_IDENTITY, [0] * (rows - 1)
    )
    assert rank_rational(list(bare.rows) + [m]) > rank_rational(list(bare.rows))
    return bare


def cert_by_label(cert, table) -> dict[str, int]:
    return {irrep.label: q for irrep, q in zip(table.ids, cert.q) if q}


class TestLowerBound:
    def test_u1_n5_k2(self):
        matrix, table = aligned(U1, 5, 2)
        lb = lower_bound(matrix, table)
        assert lb.ell == 4
        assert lb.bound == 4  # m at w=4 is 5
        # the full-rank prefix certifying the bound
        assert [i.w for i in table.ids[: lb.ell - 1]] == [0, 5, 1]

    def test_u1_k_equals_n_infinite(self):
        matrix, table = aligned(U1, 6, 6)
        lb = lower_bound(matrix, table)
        assert lb.ell is None
        assert lb.bound == INFINITE

    @pytest.mark.parametrize("n", range(5, 16))
    def test_su2_identity_row_only(self, n):
        table = canonical_order(sectors(SU2, n))
        matrix = custom_matrix(table, [])
        lb = lower_bound(matrix, table, assume_semiuniversal=True)
        assert lb.bound == n - 2

    def test_multiplicities_outside_row_span_rejected(self):
        # the bound m[ell] - 1 holds only for balanced kernel vectors, which
        # needs m in the row span: (2) and (3) alone do not constrain traces
        table = canonical_order(sectors(sud(3), 6))
        chi = charge_matrix(table, 3, [CycleType((2,)), CycleType((3,))])
        bare = without_identity_row(chi, table.multiplicities)
        assert bare.row_labels == (CycleType((2,)), CycleType((3,)))
        with pytest.raises(ValueError, match="row span"):
            lower_bound(bare, table, assume_semiuniversal=True)
        # without the flag the missing identity class fails semi-universality first
        with pytest.raises(SemiUniversalityError, match=NO_IDENTITY):
            lower_bound(bare, table)

    @pytest.mark.parametrize("assume", [False, True])
    def test_classes_without_id_match_classes_with_id(self, assume):
        # a global phase is free: charge_matrix prepends the identity class
        table = canonical_order(sectors(sud(3), 6))
        swap, cycle3 = CycleType((2,)), CycleType((3,))
        ours = lower_bound(charge_matrix(table, 3, [swap, cycle3]), table, assume)
        theirs = charge_matrix(table, 3, [CycleType(()), swap, cycle3])
        assert ours == lower_bound(theirs, table, assume)

    @pytest.mark.parametrize("group, k", [(U1, 1), (SU2, 1), (zp(3), 2)])
    def test_below_semiuniversality_threshold_rejected(self, group, k):
        # as in tmax_exact, a kernel-based bound means nothing for such gates
        matrix, table = aligned(group, 6, k)
        with pytest.raises(SemiUniversalityError, match="semi-universality"):
            lower_bound(matrix, table)
        lb = lower_bound(matrix, table, assume_semiuniversal=True)
        result = tmax_exact(matrix, table, assume_semiuniversal=True)
        assert lb.bound == result.lower_bound

    def test_custom_needs_override(self):
        # whatever the table's group
        table = canonical_order(sectors(SU2, 6))
        matrix = custom_matrix(table, [])
        with pytest.raises(SemiUniversalityError) as raised:
            lower_bound(matrix, table)
        assert str(raised.value) == CUSTOM_SHORTFALL

    def test_misaligned(self):
        table = canonical_order(sectors(U1, 5))
        matrix = charge_matrix(sectors(U1, 5), 2)  # natural order, not aligned
        with pytest.raises(ValueError):
            lower_bound(matrix, table)


class TestMinWeightedL1:
    def test_single_vector(self):
        cert = min_weighted_l1(lll_reduce([[1, -1]], [4, 4]))
        assert cert.q == (1, -1)
        assert cert.weighted_norm == 8

    def test_tie_break_lexicographic(self):
        basis = [[1, 0, -1, 2], [0, 1, -2, 3]]
        weights = [1, 3, 3, 1]
        # the kernel of these rows is exactly the lattice of the basis (whose
        # first two coordinates form the identity); none of its vectors has
        # norm < 6
        rows = [[1, 2, 1, 0], [-2, -3, 0, 1]]
        assert kernel_vectors(rows, weights, 5) == []
        winners = set(kernel_vectors(rows, weights, 6))
        assert winners == {(1, 0, -1, 2), (2, -1, 0, 1)}
        cert = min_weighted_l1(lll_reduce(basis, weights))
        assert cert.weighted_norm == 6
        assert cert.q == (1, 0, -1, 2)  # lexicographically smaller winner

    def test_tie_at_the_hoelder_bound(self):
        # six kernel vectors tie at norm 4; the smallest, (0, 1, -1, 1), meets
        # the Hölder cap of one level with equality, so a level test that
        # dropped |y| == R * h_j would return a larger tie such as (0, 2, 1, 0)
        A = [[-2, 1, -2, -3]]
        weights = [2, 1, 2, 1]
        basis = [[-1, -2, 0, 0], [-1, 0, 1, 0], [-2, -1, 0, 1]]
        assert kernel_vectors(A, weights, 3) == []
        assert min(kernel_vectors(A, weights, 4)) == (0, 1, -1, 1)
        lattice = lll_reduce(basis, weights)
        levels = [
            (abs(sum(w * w * x * y for w, x, y in zip(weights, (0, 1, -1, 1), g))),
             max(w * abs(y) for w, y in zip(weights, g)))
            for g in lattice.gso_vectors()
        ]
        assert any(y == 4 * h for y, h in levels)
        cert = min_weighted_l1(lll_reduce(basis, weights))
        assert cert.q == (0, 1, -1, 1) and cert.weighted_norm == 4

    def test_upper_cuts_off(self):
        assert min_weighted_l1(lll_reduce([[1, -1]], [4, 4]), upper=1) is None
        assert min_weighted_l1(lll_reduce([[1, -1], [5, 3]], [2, 2]), upper=1) is None

    def test_early_exit_skips_the_gram_schmidt_vectors(self):
        # |b_0*|^2 = 32 and |b_1*|^2 = 24 in the weighted metric: no vector is
        # within 4, and the search returns before building any g_j
        lattice = lll_reduce([[1, -1, 0], [0, 1, -1]], [4, 4, 4])
        assert lattice.d == [1, 32, 768]
        assert min_weighted_l1(lattice, upper=4) is None
        assert lattice._g == []
        # at 5 (25 > 24) the search runs, and finds nothing below the optimum 8
        assert min_weighted_l1(lattice, upper=5) is None
        assert lattice._g != []
        assert min_weighted_l1(lattice, upper=8).weighted_norm == 8

    # C * upper^2 is an integer for each of these (C = 32 here), so only a
    # type check rejects them
    @pytest.mark.parametrize("upper", [Fraction(1, 2), 0.5, 8.0, True, 2.0])
    def test_non_integer_upper_rejected(self, upper):
        with pytest.raises(ValueError):
            min_weighted_l1(lll_reduce([[1, -1]], [4, 4]), upper=upper)

    # truncating 2.5 to 2 would certify weighted norm 4 instead of 5
    @pytest.mark.parametrize("weight", [2.5, Fraction(5, 2), True])
    def test_non_integer_weights_rejected(self, weight):
        with pytest.raises(ValueError):
            min_weighted_l1(lll_reduce([[1, -1]], [weight, weight]))

    def test_primitive_and_sign_normalized(self):
        # the answer is a vector of the lattice: (1, -1) is not in Z(-2, 2)
        cert = min_weighted_l1(lll_reduce([[-2, 2]], [1, 1]))
        assert cert.q == (2, -2)
        assert cert.weighted_norm == 4
        # the saturated lattice Z(1, -1) has the primitive minimum
        cert = min_weighted_l1(lll_reduce([[-1, 1]], [1, 1]))
        assert cert.q == (1, -1) and cert.weighted_norm == 2

    @pytest.mark.parametrize(
        "basis, weights, q, norm",
        [
            ([[2, 0]], [1, 1], (2, 0), 2),
            ([[2, 0], [1, 3]], [1, 1], (2, 0), 2),
            ([[1, 1], [0, 5]], [5, 1], (0, 5), 5),  # index 5 in Z^2
        ],
        ids=str,
    )
    def test_answer_lies_in_the_lattice(self, basis, weights, q, norm):
        # dividing a lattice vector by its content can leave the lattice
        cert = min_weighted_l1(lll_reduce(basis, weights))
        assert (cert.q, cert.weighted_norm) == (q, norm)

    def test_empty_basis_rejected(self):
        with pytest.raises(ValueError):
            min_weighted_l1(lll_reduce([], [1]))
        with pytest.raises(ValueError):
            min_weighted_l1(ReducedLattice([4, 4]), upper=8)

    def test_result_independent_of_basis_presentation(self):
        # any basis of the same lattice must yield the identical certificate
        basis = [[1, 0, -1, 2], [0, 1, -2, 3]]
        weights = [1, 3, 3, 1]
        reference = min_weighted_l1(lll_reduce(basis, weights))
        variants = [
            [basis[1], basis[0]],
            [[1, 1, -3, 5], [0, 1, -2, 3]],  # b0 + b1, b1
            [[-1, 0, 1, -2], [2, 1, -4, 7]],  # -b0, 2 b0 + b1
        ]
        for var in variants:
            got = min_weighted_l1(lll_reduce(var, weights))
            assert got.q == reference.q
            assert got.weighted_norm == reference.weighted_norm


def check_against_oracle(A, weights) -> tuple[bool, bool]:
    """Compare :func:`min_weighted_l1` on the kernel of ``A`` with the complete oracle.

    The oracle radius starts at the least weight and doubles until kernel
    vectors appear, so it stays within twice the optimum.  Returns whether the
    optimum is tied and whether it beats every vector of the echelon basis.
    """

    def norm(q):
        return sum(w * abs(x) for w, x in zip(weights, q))

    basis = echelon_kernel(A)
    radius = min(weights)
    while not (found := kernel_vectors(A, weights, radius)):
        radius *= 2
    best = min(map(norm, found))
    optima = [q for q in found if norm(q) == best]
    lattice = lll_reduce(basis, weights)
    cert = min_weighted_l1(lattice)
    assert cert.weighted_norm == best
    assert cert.q == min(optima)
    assert min_weighted_l1(lattice, upper=best) == cert
    assert min_weighted_l1(lattice, upper=best - 1) is None
    return len(optima) > 1, best < min(map(norm, basis))


class TestMinWeightedL1Oracle:
    def test_bounded_misses_against_oracle(self):
        # a bounded search that returns None, by its early exit (every
        # |b_j*| above upper) or by a full search, must leave the complete
        # oracle nothing within upper
        rng = random.Random(20261020)
        early = searched = 0
        for _ in range(60):
            c = rng.randint(4, 7)
            A = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(rng.randint(1, c - 2))]
            weights = [rng.randint(1, 6) for _ in range(c)]
            basis = echelon_kernel(A)
            if not basis:
                continue
            lattice = lll_reduce(basis, weights)
            best = min_weighted_l1(lattice).weighted_norm
            for upper in {1, best // 4, best // 2, best - 2, best - 1, best, best + 3}:
                if upper < 1:
                    continue
                cert = min_weighted_l1(lattice, upper=upper)
                if upper >= best:
                    assert cert is not None and cert.weighted_norm == best
                    continue
                assert cert is None
                assert kernel_vectors(A, weights, upper) == []
                d = lattice.d
                if all(d[j + 1] > upper * upper * d[j] for j in range(len(lattice.basis))):
                    early += 1
                else:
                    searched += 1
        assert early >= 100 and searched >= 50

    def test_matches_complete_oracle(self):
        rng = random.Random(20261018)
        checked = ties = shorter = 0
        while checked < 100:
            c = rng.randint(4, 7)
            A = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(rng.randint(1, c - 2))]
            weights = [rng.randint(1, 4) for _ in range(c)]
            if not echelon_kernel(A):
                continue
            tied, beats_basis = check_against_oracle(A, weights)
            ties += tied
            shorter += beats_basis
            checked += 1
        # the seeded set exercises tie-breaking and optima that beat every basis vector
        assert ties >= 10 and shorter >= 10

    def test_matches_complete_oracle_at_large_weights(self):
        # kernel dimension 4-7 and weights up to 10^6, the shape of the hard
        # custom problems, with both level tests pruning
        rng = random.Random(20261019)
        checked = shorter = 0
        while checked < 25:
            dim, r = rng.randint(4, 7), rng.randint(1, 3)
            A = [[rng.randint(-10, 10) for _ in range(dim + r)] for _ in range(r)]
            if len(echelon_kernel(A)) != dim:
                continue
            weights = [rng.randint(1, 10**6) for _ in range(dim + r)]
            shorter += check_against_oracle(A, weights)[1]
            checked += 1
        assert shorter >= 15

    @pytest.mark.parametrize(
        "A, weights",
        [
            ([[-1, 2, -3, 1]], [4, 1, 4, 3]),
            (
                [[0, 0, -2, 2, -1, -1], [2, -1, -2, 1, -1, -2], [3, -1, -2, -1, 0, -2]],
                [2, 1, 3, 1, 4, 3],
            ),
            ([[-3, -2, -3, -1, -3], [1, 3, 0, -1, -3]], [1, 3, 4, 4, 1]),
            ([[1, -3, 0, 3, 2, -1, 2], [0, 3, -3, 3, 1, 2, 2]], [4, 4, 4, 4, 3, 3, 1]),
        ],
    )
    def test_optimum_far_below_the_center(self, A, weights):
        # rare members of the seeded family above whose optimum needs, at some
        # level, a coefficient below the floor of that level's center: a
        # zig-zag that stops going down after its first value misses them
        check_against_oracle(A, weights)


def rank_one_rows(b0) -> list[list[int]]:
    """Rows whose integer kernel is the saturation ``Q b0 ∩ Z^c`` of ``Z b0``."""
    i = next(j for j, x in enumerate(b0) if x)
    # row j reads b0[i] q_j - b0[j] q_i, which vanishes on every multiple of b0
    return [
        [b0[i] if t == j else -b0[j] if t == i else 0 for t in range(len(b0))]
        for j in range(len(b0))
        if j != i
    ]


class TestRankOneLattices:
    """The optimum of a rank-1 lattice ``Z b0`` is ``+-b0``, as the scan's rank-1 rule assumes."""

    def test_matches_complete_oracle(self):
        rng = random.Random(20261021)
        scaled = 0
        for _ in range(150):
            c = rng.randint(2, 6)
            primitive = [0] * c
            while math.gcd(*primitive) != 1:
                primitive = [rng.randint(-3, 3) for _ in range(c)]
            g = rng.choice([1, 1, 2, 3])  # g > 1: Z b0 is not the whole kernel of its rows
            scaled += g > 1
            b0 = [g * x for x in primitive]
            weights = [rng.randint(1, 9) for _ in range(c)]

            def weighted(q):
                return sum(w * abs(x) for w, x in zip(weights, q))

            norm = weighted(b0)
            # the lattice's vectors are the kernel vectors whose content g divides
            found = [q for q in kernel_vectors(rank_one_rows(b0), weights, norm) if math.gcd(*q) % g == 0]
            best = min(map(weighted, found))
            optimum = min(q for q in found if weighted(q) == best)
            lattice = lll_reduce([b0], weights)
            cert = min_weighted_l1(lattice)
            assert (cert.q, cert.weighted_norm) == (optimum, best) == (optimum, norm)
            assert cert.support == tuple(i for i, x in enumerate(optimum) if x)
            assert min_weighted_l1(lattice, upper=norm) == cert
            assert min_weighted_l1(lattice, upper=norm - 1) is None
            assert min_weighted_l1(lattice, upper=-1) is None
        assert scaled >= 30

    def test_argument_errors_are_unchanged(self):
        with pytest.raises(ValueError, match="nonempty"):
            min_weighted_l1(ReducedLattice([1, 1]))
        lattice = lll_reduce([[1, -1]], [1, 1])  # norm 2, within an upper of True or 2.0
        for upper in (True, 2.0, 1.5):
            with pytest.raises(ValueError, match="upper must be an integer"):
                min_weighted_l1(lattice, upper=upper)


class TestTmaxExact:
    def test_u1_n3_k1_certificate(self):
        result, table, A = compute_tmax(U1, 3, 1, assume_semiuniversal=True)
        assert result.tmax == 2
        assert result.certificate.weighted_norm == 6
        assert cert_by_label(result.certificate, table) == {
            "w=0": 2,
            "w=1": -1,
            "w=3": 1,
        }
        assert result.proven_exact
        assert A.shortfall is not None

    def test_su2_n13_k2(self):
        result, _, A = compute_tmax(SU2, 13, 2)
        assert result.tmax + 1 == 12 * 10
        assert A.shortfall is None

    def test_zp_beyond_n_equals_u1(self):
        # for p > n every residue is a Hamming weight, so Z_p is U(1), also
        # below the semi-universality threshold k >= p
        instances = 0
        for p in range(3, 12):
            for n in range(1, p):
                for k in range(1, n + 1):
                    a, _, _ = compute_tmax(zp(p), n, k, assume_semiuniversal=True)
                    b, _, _ = compute_tmax(U1, n, k, assume_semiuniversal=True)
                    assert (a.tmax, a.lower_bound) == (b.tmax, b.lower_bound), (p, n, k)
                    qa = a.certificate and a.certificate.q
                    assert qa == (b.certificate and b.certificate.q), (p, n, k)
                    instances += 1
        assert instances == 219

    def test_flags_are_keyword_only(self):
        # a class list in the override's place used to solve the default class set
        with pytest.raises(TypeError):
            compute_tmax(sud(4), 22, 4, list(T_GROUP_CLASSES))
        with pytest.raises(TypeError):
            compute_tmax(U1, 6, 2, True)
        result, _, _ = compute_tmax(sud(4), 22, 4, classes=list(T_GROUP_CLASSES))
        assert result.tmax == 2868

    def test_zp_odd_infinite(self):
        result, _, _ = compute_tmax(zp(3), 6, 3)
        assert result.tmax == INFINITE
        assert result.certificate is None
        assert result.proven_exact

    def test_sud_k4_example(self):
        result, _, _ = compute_tmax(sud(3), 22, 4)
        assert result.tmax + 1 == 2 * 21 * 19 * 17 // 3

    def test_sud_large_d(self):
        # the hook-content dimensions cost O(rows) per sector whatever d is;
        # the pairwise Weyl product took about 20 s on this instance
        result, table, A = compute_tmax(sud(300), 12, 3)
        assert len(table) == 77  # every partition of 12 fits in 300 rows
        assert result.tmax == 19
        assert result.certificate.q == (9, -9, -1, 1) + (0,) * 73
        assert verify_certificate(result.certificate, A, table)

    def test_below_threshold_raises(self):
        matrix, table = aligned(U1, 6, 1)
        with pytest.raises(SemiUniversalityError) as raised:
            tmax_exact(matrix, table)
        # the override stands in for the shortfall the builder recorded
        assert str(raised.value) == matrix.shortfall
        assert tmax_exact(matrix, table, assume_semiuniversal=True).proven_exact

    def test_zp_below_threshold(self):
        with pytest.raises(SemiUniversalityError):
            compute_tmax(zp(5), 8, 3)

    def test_multiplicities_outside_row_span_rejected(self):
        # a transposition-only row does not constrain traces, so the solver
        # demands a witness for m before it will trust the cutoff rule
        table = canonical_order(sectors(sud(3), 9))
        bare = without_identity_row(charge_matrix(table, 2, [CycleType((2,))]), table.multiplicities)
        with pytest.raises(ValueError, match="row span"):
            tmax_exact(bare, table, assume_semiuniversal=True)

    @pytest.mark.parametrize(
        "k, classes", [(2, [(2,)]), (3, [(3,), (2,)]), (4, [(2,), (3,), (2, 2)])], ids=str
    )
    def test_classes_without_id_match_classes_with_id(self, k, classes):
        # the id-less list is the same gate set, so the same answer and certificate
        table = canonical_order(sectors(sud(4), 9))
        classes = [CycleType(c) for c in classes]
        ours = tmax_exact(charge_matrix(table, k, classes), table, assume_semiuniversal=True)
        theirs = charge_matrix(table, k, [CycleType(()), *classes])
        assert ours == tmax_exact(theirs, table, assume_semiuniversal=True)

    def test_requires_canonical_order(self):
        table = sectors(U1, 6)  # natural order: multiplicities not sorted
        matrix = charge_matrix(table, 2)
        with pytest.raises(ValueError):
            tmax_exact(matrix, table)

    @pytest.mark.parametrize("n", [8, 11, 14])
    def test_monotone_in_locality(self, n):
        prev = None
        for k in range(2, n + 1):
            result, _, _ = compute_tmax(U1, n, k)
            if prev is not None:
                # INFINITE is not ordered: once the order is infinite it stays so
                assert result.tmax == INFINITE or (prev != INFINITE and prev <= result.tmax)
            prev = result.tmax

    def test_k_equals_n_infinite(self):
        for group in (U1, SU2):
            result, _, _ = compute_tmax(group, 7, 7)
            assert result.tmax == INFINITE
        result, _, _ = compute_tmax(zp(3), 7, 7)
        assert result.tmax == INFINITE

    @pytest.mark.parametrize(
        "group,n,k",
        [(U1, 9, 2), (U1, 8, 3), (SU2, 13, 2), (SU2, 12, 4), (zp(2), 9, 3), (sud(3), 16, 3)],
    )
    def test_two_smallest_multiplicities_bound(self, group, n, k):
        result, table, _ = compute_tmax(group, n, k)
        assert result.tmax >= table.multiplicities[1] - 1

    def test_lower_bound_never_exceeds_tmax(self):
        for group, n, k in [(U1, 10, 2), (U1, 9, 4), (SU2, 14, 3), (zp(4), 9, 4)]:
            result, _, _ = compute_tmax(group, n, k)
            assert result.lower_bound <= result.tmax


# The semi-universality messages, as the solver raised them before the
# builders recorded the verdict: SU(d) rows must hold every 3-local class,
# and U(1), SU(2) and Z_p gates need k >= 2, 2 and p.
SUD_SHORTFALL = (
    "the realizable permutation classes miss a 3-local class, so the "
    "gate set is not even a 2-design source; pass "
    "assume_semiuniversal=True to model an amended gate set"
)
CUSTOM_SHORTFALL = (
    "custom gate sets carry no built-in semi-universality knowledge; "
    "pass assume_semiuniversal=True if it holds"
)


def threshold_rule(group, k, labels):
    """The verdict before ``k = n`` passed: a shortfall message, or None."""
    if group.kind == "SUd":
        return None if set(conjugacy_classes(3)) <= set(labels) else SUD_SHORTFALL
    threshold = group.p if group.kind == "Zp" else 2
    if k >= threshold:
        return None
    return (
        f"{group} gates with locality k={k} are below the semi-universality "
        f"threshold k >= {threshold}; pass assume_semiuniversal=True to compute "
        "the formal kernel optimum"
    )


def verdict_cases():
    """U(1), SU(2), Z_2..Z_7, SU(3), SU(4) with n = 1..8 and k = 1..n.

    SU(d) takes the default classes, the T-group set and each single class.
    """
    for group in (U1, SU2, *map(zp, range(2, 8)), sud(3), sud(4)):
        for n in range(1, 9):
            for k in range(1, n + 1):
                yield group, n, k, None
                if group.kind == "SUd":
                    if k >= 4:
                        yield group, n, k, list(T_GROUP_CLASSES)
                    for cls in conjugacy_classes(k):
                        yield group, n, k, [cls]


class TestSemiUniversalVerdict:
    def test_solvers_raise_exactly_where_the_threshold_rule_does_below_k_equals_n(self):
        # a gate on all n sites is any symmetric unitary: the full k = n gate
        # set passes, and every other verdict and message stays as it was
        passed_at_n = 0
        for group, n, k, classes in verdict_cases():
            table = canonical_order(sectors(group, n))
            A = charge_matrix(table, k, classes)
            expected = threshold_rule(group, k, A.row_labels)
            full = group.kind != "SUd" or set(A.row_labels) == set(conjugacy_classes(n))
            if k == n and full and expected is not None:
                passed_at_n += 1
                expected = None
                assert tmax_exact(A, table).tmax == INFINITE, (group, n, classes)
            assert A.shortfall == expected, (group, n, k, classes)
            for solve in (tmax_exact, lower_bound):
                if expected is None:
                    solve(A, table)
                    continue
                with pytest.raises(SemiUniversalityError) as raised:
                    solve(A, table)
                assert str(raised.value) == expected, (group, n, k, classes, solve)
        # U(1) and SU(2) at n = 1, Z_p at n < p, and SU(d) at n <= 2, where the
        # single classes (1) at n = 1 and (12) at n = 2 are the full gate set
        assert passed_at_n == 1 + 1 + sum(range(1, 7)) + 2 * (2 + 2)

    def test_aligned_to_keeps_the_shortfall(self):
        table = canonical_order(sectors(U1, 5))
        for A in (
            charge_matrix(sectors(U1, 5), 1),
            charge_matrix(sectors(U1, 5), 2),
            custom_matrix(sectors(U1, 5), []),
        ):
            # None at k = 2, the threshold and the custom messages otherwise
            assert A.aligned_to(table).shortfall == A.shortfall


class TestHardKernelCertificates:
    """Certificates of kernels where LLL and the enumeration do all the work.

    The closed form for U1 holds only from n = 5120 (k = 18) and n = 11264
    (k = 20) on, so the exact certificates are pinned instead: the tie rule
    of :func:`tmax_exact` makes the certificate unique, so any change in
    them is a bug.
    """

    @pytest.mark.parametrize(
        "n, k, tmax",
        [(26, 18, 33554431), (30, 20, 536870911)],
    )
    def test_u1(self, n, k, tmax):
        result, table, matrix = compute_tmax(U1, n, k)
        assert result.tmax == tmax
        # the n + 1 sectors in canonical order carry the signs + + - - + + - - ...
        assert result.certificate.q == tuple((1, 1, -1, -1)[i % 4] for i in range(n + 1))
        assert result.certificate.weighted_norm == 2 * (tmax + 1)
        assert verify_certificate(result.certificate, matrix, table)

    def test_custom_12x3(self):
        # multiplicities 1..10^6 and charges -50..50, solved as `symdesign custom` does
        rng = random.Random(1)
        m = [rng.randint(1, 10**6) for _ in range(12)]
        rows = [[rng.randint(-50, 50) for _ in range(12)] for _ in range(3)]
        table, matrix = load_custom_problem(json.dumps({"m": m, "rows": rows}))
        result = tmax_exact(matrix, table, assume_semiuniversal=True)
        assert result.tmax == 17812250
        assert result.certificate.q == (22, 18, -1, -10, -6, -7, -6, 5, -7, 3, 3, 7)
        assert verify_certificate(result.certificate, matrix, table)


def check_warm_equals_cold(monkeypatch, matrix, table) -> int:
    """Each warm-started search of :func:`tmax_exact` against a cold solve.

    The scan keeps the first relation ``b_0`` as a plain vector, builds one
    :class:`ReducedLattice` at the second kernel growth and inserts only the
    new relation at each later one.  Every search it makes goes through the
    public :func:`min_weighted_l1`, which records them: bounded searches, one
    per growth after the second on the lattice before it, plus one final
    enumeration with the default ``upper=None``; the cold solve reduces the
    whole padded kernel basis of the same prefix from scratch under the same
    ``upper``.  The certificate is a property of the lattice, so they must
    agree.  Every call but the last is a bounded miss; the last gives the
    answer: it is the one unbounded enumeration, unless a bounded search
    hit.  A scan that stops at rank 1 makes no call, and its certificate is
    the cold optimum of ``Z b_0``; a trivial kernel makes no call either.
    Returns the number of kernel growths the scan reached.
    """
    calls = []
    search = solver.min_weighted_l1

    def recording(lattice, upper=None):
        cert = search(lattice, upper=upper)
        calls.append((len(lattice.weights), upper, cert))
        return cert

    monkeypatch.setattr(solver, "min_weighted_l1", recording)
    result = tmax_exact(matrix, table, assume_semiuniversal=True)
    monkeypatch.undo()
    ech = Echelon()
    growths = [
        (idx + 1, ech.kernel_basis()) for idx in range(len(table)) if not ech.add(matrix.column(idx))
    ]
    if result.certificate is None:
        assert calls == []
        return 0
    if not calls:  # a rank-1 stop: the optimum of Z b_0 on its own prefix
        width, basis = growths[0]
        cert = min_weighted_l1(lll_reduce(basis, table.multiplicities[:width]))
        assert cert.q + (0,) * (len(table) - width) == result.certificate.q
        assert cert.weighted_norm == result.certificate.weighted_norm
        assert verify_certificate(result.certificate, matrix, table)
        return 1
    # the i-th search runs on the lattice of the (i + 1)-th growth, before the next one
    assert [width for width, _, _ in calls] == [width for width, _ in growths[1 : len(calls) + 1]]
    for (width, upper, warm), (_, basis) in zip(calls, growths[1:]):
        assert warm == min_weighted_l1(lll_reduce(basis, table.multiplicities[:width]), upper=upper)
    assert all(upper is not None and cert is None for _, upper, cert in calls[:-1])
    unbounded = sum(upper is None for _, upper, _ in calls)
    _, upper, cert = calls[-1]
    assert unbounded == (upper is None)
    assert cert.q + (0,) * (len(table) - len(cert.q)) == result.certificate.q
    assert verify_certificate(result.certificate, matrix, table)
    return len(calls) + 1


# custom problems where a window's bounded search finds the optimum, with their tmax
BOUNDED_HITS = [
    ({"m": [5, 6, 12, 13, 18, 24, 39, 200], "rows": [[2, 3, -1, 3, 0, 0, 0, -3]]}, 38),
    ({"m": [2, 2, 5, 5, 16, 18, 30, 52, 100], "rows": [[-3, 3, 0, 2, -2, 2, -2, 0, 3]]}, 16),
    ({"m": [12, 16, 30, 100, 200, 250], "rows": [[2, -3, -1, 0, 0, 3]]}, 199),
]


class TestWarmStart:
    @pytest.mark.parametrize(
        "group", [U1, SU2, zp(2), zp(3), zp(4), zp(5), sud(3), sud(4)], ids=str
    )
    def test_builtin_groups(self, monkeypatch, group):
        reached = Counter()
        for n in range(2, 17):
            for k in range(1, n + 1):
                matrix, table = aligned(group, n, k)
                reached[check_warm_equals_cold(monkeypatch, matrix, table)] += 1
        # a Z_p scan at k >= p stops at its first kernel growth; below that
        # threshold Z_4 and Z_5 reach later growths (k = 1, and k = 2 for
        # Z_5), while Z_2 and Z_3 never do
        assert any(r > 1 for r in reached) or group in (zp(2), zp(3))
        # every group has scans that stop at rank 1, with no search at all
        assert reached[1] > 0

    @pytest.mark.parametrize("sectors_, rows", [(9, 3), (10, 4), (12, 4)])
    def test_random_custom_problems(self, monkeypatch, sectors_, rows):
        # shaped like the benchmark's seeded custom problems
        rng = random.Random(f"warm:{sectors_}x{rows}")
        for _ in range(10):
            m = [rng.randint(1, 10**6) for _ in range(sectors_)]
            charges = [[rng.randint(-50, 50) for _ in range(sectors_)] for _ in range(rows)]
            table, matrix = load_custom_problem(json.dumps({"m": m, "rows": charges}))
            assert check_warm_equals_cold(monkeypatch, matrix, table) >= 2


    @pytest.mark.parametrize("doc, tmax", BOUNDED_HITS)
    def test_bounded_search_hit_ends_the_scan(self, monkeypatch, doc, tmax):
        table, matrix = load_custom_problem(json.dumps(doc))
        assert check_warm_equals_cold(monkeypatch, matrix, table) >= 1
        calls = []
        search = solver.min_weighted_l1

        def recording(lattice, upper=None):
            calls.append((upper, search(lattice, upper=upper)))
            return calls[-1][1]

        monkeypatch.setattr(solver, "min_weighted_l1", recording)
        result = tmax_exact(matrix, table, assume_semiuniversal=True)
        assert result.tmax == tmax
        # no unbounded enumeration: the last bounded search hit
        assert all(upper is not None for upper, _ in calls)
        assert calls[-1][1] is not None
        assert result.certificate == exhaustive_certificate(matrix, table)


def _count_lattices(monkeypatch) -> list:
    """Record the weights of every :class:`ReducedLattice` built."""
    built = []
    init = ReducedLattice.__init__
    monkeypatch.setattr(ReducedLattice, "__init__", lambda self, w: built.append(w) or init(self, w))
    return built


class TestRankOneStop:
    """A scan that stops while its kernel is ``Z b_0`` answers ``+-b_0`` and builds no lattice."""

    def test_tables_requests(self, monkeypatch, workloads):
        built = _count_lattices(monkeypatch)
        stops = Counter()
        for r in workloads.tables_requests():
            built.clear()
            result, table, A = compute_tmax(r.group, r.n, r.k, classes=r.classes)
            lattices = len(built)
            # the first two kernel growths, from a fresh echelon
            ech, growths = Echelon(), []
            for idx in range(len(table)):
                if not ech.add(A.column(idx)):
                    growths.append((idx, ech.kernel_basis()))
                    if len(growths) == 2:
                        break
            if not growths:
                assert result.certificate is None and lattices == 0
                stops["infinite"] += 1
                continue
            (idx0, basis), mults = growths[0], table.multiplicities
            cold = min_weighted_l1(lll_reduce(basis, mults[: idx0 + 1]))
            # m never decreases, so the cutoff fires before the second growth
            # exactly when it fires at the index just before it
            if len(growths) == 1 or cold.weighted_norm <= 2 * mults[growths[1][0]]:
                assert lattices == 0, r.rid
                assert result.certificate.q == cold.q + (0,) * (len(table) - idx0 - 1)
                assert result.certificate.weighted_norm == cold.weighted_norm
                stops["rank 1"] += 1
            else:
                assert lattices == 1, r.rid  # built at the second growth, then grown in place
                stops["rank 2+"] += 1
        assert stops == {"rank 1": 483, "rank 2+": 250 - stops["infinite"], "infinite": stops["infinite"]}

    def test_a_rank_two_stop_builds_one_lattice(self, monkeypatch):
        # {"m": [2, 3, 3]}: b_0 = (3, -2) has norm 12 > 2 * 3, so the scan goes
        # on to the second growth and stops there, at the last index
        built = _count_lattices(monkeypatch)
        table, matrix = load_custom_problem(json.dumps({"m": [2, 3, 3], "rows": []}))
        result = tmax_exact(matrix, table, assume_semiuniversal=True)
        assert built == [(2, 3, 3)]
        assert result.certificate.q == (0, 1, -1) and result.tmax == 2
        assert result.certificate == exhaustive_certificate(matrix, table)

    def test_a_rank_one_stop_still_checks_its_weights(self):
        # a hand-built table whose zero multiplicity the lattice used to refuse
        table = SectorTable(CUSTOM, 2, (CustomSector(0), CustomSector(1)), (0, 2), (1, 1))
        A = ChargeMatrix(("H0",), table.ids, lambda j: (0, 2)[j : j + 1], None, (1,))
        with pytest.raises(ValueError, match="positive"):
            tmax_exact(A, table)


class TestVerifyCertificate:
    def test_solver_output_verifies(self):
        result, table, matrix = compute_tmax(U1, 3, 1, assume_semiuniversal=True)
        assert verify_certificate(result.certificate, matrix, table)

    def test_zero_vector_rejected(self):
        _, table, matrix = compute_tmax(U1, 3, 1, assume_semiuniversal=True)
        zero = Certificate(q=(0, 0, 0, 0), weighted_norm=0, support=())
        assert not verify_certificate(zero, matrix, table)

    def test_f3_vector_for_n4_k2(self):
        matrix, table = aligned(U1, 4, 2)
        # eigenvalue profile (2, -1, 0, 1, -2) over w = 0..4, reindexed to the
        # canonical order (0, 4, 1, 3, 2)
        by_w = {0: 2, 1: -1, 2: 0, 3: 1, 4: -2}
        q = tuple(by_w[i.w] for i in table.ids)
        norm = sum(m * abs(x) for m, x in zip(table.multiplicities, q))
        assert norm == 12
        cert = Certificate(
            q=q,
            weighted_norm=12,
            support=tuple(i for i, x in zip(table.ids, q) if x),
        )
        assert verify_certificate(cert, matrix, table)
        result = tmax_exact(matrix, table)
        assert result.tmax + 1 == 6  # 2(n-1) at n=4

    def test_wrong_norm_rejected(self):
        result, table, matrix = compute_tmax(U1, 3, 1, assume_semiuniversal=True)
        bad = Certificate(
            q=result.certificate.q,
            weighted_norm=result.certificate.weighted_norm + 2,
            support=result.certificate.support,
        )
        assert not verify_certificate(bad, matrix, table)

    @pytest.mark.parametrize("group, n, k", [(U1, 12, 3), (SU2, 13, 4), (sud(4), 14, 4)], ids=str)
    def test_each_property_is_read_from_the_support(self, group, n, k):
        result, table, A = compute_tmax(group, n, k)
        q, norm, support = result.certificate._fields()
        assert verify_certificate(result.certificate, A, table) and len(support) >= 2
        bad = [
            Certificate(tuple(2 * x for x in q), 2 * norm, support),  # not primitive
            Certificate(q, norm, support[::-1]),  # support ids out of order
            Certificate(q, norm, support[:-1]),  # one support id missing
            Certificate(q[:-1], norm, support),  # one sector short
        ]
        # exact ints only: each of these compares equal to a valid certificate
        pos = q if 1 in q else tuple(-x for x in q)
        assert verify_certificate(Certificate(pos, norm, support), A, table)
        one = pos.index(1)
        bad += [
            Certificate(q, float(norm), support),  # a float norm such as 6.0
            Certificate(pos[:one] + (True,) + pos[one + 1 :], norm, support),  # True for a 1
            Certificate((float(q[0]), *q[1:]), norm, support),  # a float entry, not a TypeError
            Certificate(None, norm, support),  # no q, not a TypeError
            Certificate(list(q), norm, support),  # q not a tuple
            Certificate(q, norm, None),  # no support, not a TypeError
            Certificate(q, norm, 5),  # a support that is no sequence
            Certificate(q, norm, list(support)),  # support not a tuple
        ]
        for cert in bad:
            assert not verify_certificate(cert, A, table), cert

    def test_non_kernel_vector_rejected(self):
        matrix, table = aligned(U1, 4, 2)
        q = (1, -1, 0, 0, 0)
        cert = Certificate(q=q, weighted_norm=2, support=(table.ids[0], table.ids[1]))
        assert not verify_certificate(cert, matrix, table)

    def test_misaligned_columns_rejected(self):
        # w = 0, 1, 2, 3 against the canonical order w = 0, 3, 1, 2: q is a
        # kernel vector of the matrix as built, not of the table's columns
        natural = sectors(U1, 3)
        table = canonical_order(natural)
        q = (1, -1, 1, -1)
        cert = Certificate(q=q, weighted_norm=8, support=table.ids)
        assert not verify_certificate(cert, charge_matrix(natural, 1), table)
        assert not verify_certificate(cert, charge_matrix(table, 1), table)
        # the same q over the table it was built for
        own = Certificate(q=q, weighted_norm=8, support=natural.ids)
        assert verify_certificate(own, charge_matrix(natural, 1), natural)


def _count_column_reads(monkeypatch) -> set:
    """Record every column index a charge matrix is asked for."""
    read = set()
    column = ChargeMatrix.column
    monkeypatch.setattr(ChargeMatrix, "column", lambda self, j: read.add(j) or column(self, j))
    return read


def _count_sectors_calls(monkeypatch) -> list:
    """Record every ``(group, n)`` a sector table is enumerated for."""
    calls = []
    enumerate_sectors = groups.sectors

    def counting(group, n):
        calls.append((group, n))
        return enumerate_sectors(group, n)

    monkeypatch.setattr(groups, "sectors", counting)
    return calls


_CUSTOM_M = [5, 1, 4, 2, 3, 6]
_CUSTOM_ROWS = [["1/2", -1, 0, 3, "2/3", 1], [1, 1, "-1/4", 0, 2, -3]]


def _custom_problem():
    return load_custom_problem(json.dumps({"m": _CUSTOM_M, "rows": _CUSTOM_ROWS}))


def _custom_file_order():
    """The same problem with its columns in document order, as custom_matrix builds it."""
    rows = [list(map(parse_rational, row)) for row in _CUSTOM_ROWS]
    return custom_matrix(custom_table(_CUSTOM_M), rows)


def _custom_aligned():
    return _custom_file_order().aligned_to(_custom_problem()[0])


LAZY_MATRICES = {
    "u1": lambda: charge_matrix(canonical_order(sectors(U1, 9)), 3),
    "su2": lambda: charge_matrix(canonical_order(sectors(SU2, 10)), 4),
    "zp3": lambda: charge_matrix(canonical_order(sectors(zp(3), 8)), 3),
    "sud4": lambda: charge_matrix(canonical_order(sectors(sud(4), 9)), 4),
    "custom": lambda: _custom_problem()[1],
    "custom-aligned": _custom_aligned,
}


class TestLazyColumns:
    @pytest.mark.parametrize("name", LAZY_MATRICES)
    def test_column_row_and_rows_agree(self, name, monkeypatch):
        read = _count_column_reads(monkeypatch)
        A = LAZY_MATRICES[name]()
        r, c = A.shape
        first = A[0]
        # row 0 of every matrix is built whole, so reading it builds no column
        assert not read
        by_row = [first] + [A[i] for i in range(1, r)]
        # so are the other U(1), SU(2), Z_p and custom rows; SU(d) ones read the columns
        assert bool(read) == (name == "sud4")
        by_col = [A.column(j) for j in range(c)]
        assert by_row == [tuple(col[i] for col in by_col) for i in range(r)]
        assert A.rows == tuple(by_row)

    def test_aligned_columns_follow_the_table(self):
        A = _custom_file_order()
        aligned = _custom_aligned()
        assert aligned.col_ids != A.col_ids
        for j, irrep in enumerate(aligned.col_ids):
            assert aligned.column(j) == A.column(A.col_ids.index(irrep))
        # the loader's canonical matrix is the aligned one
        _, loaded = _custom_problem()
        assert loaded.col_ids == aligned.col_ids and loaded.rows == aligned.rows

    @pytest.mark.parametrize("group, n, k", [(U1, 40, 6), (SU2, 30, 4), (zp(4), 25, 4)])
    def test_entries_computed_once(self, group, n, k, monkeypatch):
        # the builder makes every column from one binomial row C(n - k, .),
        # with no comb per entry; the row-span witness, the scan and the
        # certificate check then read those same tuples
        combs, rows = [], []
        for module in (charges, groups):
            monkeypatch.setattr(module, "comb", lambda *a: combs.append(a) or math.comb(*a))
        binomial_row = charges.binomial_row
        monkeypatch.setattr(charges, "binomial_row", lambda m: rows.append(m) or binomial_row(m))
        result, table, A = compute_tmax(group, n, k)
        built = [A.column(j) for j in range(A.shape[1])]
        assert verify_certificate(result.certificate, A, table)
        assert not combs
        assert rows == [n - k]
        assert all(A.column(j) is col for j, col in enumerate(built))


class TestLazyCharacterColumns:
    @pytest.mark.parametrize("d", [3, 4])
    def test_rows_equal_eager_characters(self, d):
        for n in range(1, 15):
            cases = [(k, None) for k in range(1, min(n, 5) + 1)]
            if n >= 4:
                cases.append((4, list(T_GROUP_CLASSES)))
            for k, classes in cases:
                _, table, A = compute_tmax(
                    sud(d), n, k, assume_semiuniversal=True, classes=classes
                )
                eager = tuple(
                    tuple(sn_character(irrep.parts, cls) for irrep in table.ids)
                    for cls in A.row_labels
                )
                assert A.col_ids == table.ids
                assert A.rows == eager, (n, k, classes)

    def test_sud5_n50_reads_a_short_prefix_of_one_table(self, monkeypatch):
        calls = _count_sectors_calls(monkeypatch)
        read = _count_column_reads(monkeypatch)
        result, table, A = compute_tmax(sud(5), 50, 4)
        assert len(calls) == 1
        assert A.shape == (5, 3765)
        assert verify_certificate(result.certificate, A, table)
        # the scan stops after a few columns (5 today) and reads them in order
        assert len(read) <= 10
        assert read == set(range(len(read)))

    def test_verify_reads_columns_the_scan_skipped(self, monkeypatch):
        read = _count_column_reads(monkeypatch)
        result, table, A = compute_tmax(sud(5), 50, 4)
        L = len(table)
        j1, j2 = L - 2, L - 1
        assert not {j1, j2} & read
        # balanced, primitive, even norm: only A q = 0 can reject it
        m1, m2 = table.multiplicities[j1], table.multiplicities[j2]
        g = math.gcd(m1, m2)
        q = [0] * L
        q[j1], q[j2] = m2 // g, -(m1 // g)
        eager_col = lambda j: [sn_character(table.ids[j].parts, cls) for cls in A.row_labels]
        assert any(q[j1] * a + q[j2] * b for a, b in zip(eager_col(j1), eager_col(j2)))
        cert = Certificate(
            q=tuple(q),
            weighted_norm=2 * m1 * m2 // g,
            support=(table.ids[j1], table.ids[j2]),
        )
        assert not verify_certificate(cert, A, table)
        assert {j1, j2} <= read


def held_entries() -> int:
    """The entries the memo keeps, checked against its running count."""
    held = sum(map(len, groups._MEMO.values()))
    assert held == groups._held
    return held


def kept_tables() -> list:
    """The ``(group, n)`` of every canonical table the memo keeps, least recently used first."""
    return [key[1:] for key in groups._MEMO if key[0] == "table"]


class TestTableMemo:
    def test_an_equal_group_built_apart_hits(self, monkeypatch, empty_memo):
        calls = _count_sectors_calls(monkeypatch)
        group, again = GroupSpec("SUd", d=4), sud(4)
        assert again is not group and again == group
        assert hash(again) == hash(group) == hash(("SUd", None, 4))
        table = canonical_table(group, 12)
        assert canonical_table(again, 12) is table
        kept = groups.memoized(("gate", group, 3), lambda: (1, 2))
        assert groups.memoized(("gate", again, 3), lambda: pytest.fail("missed")) is kept
        assert calls == [(group, 12)]

    def test_warm_and_cold_solves_agree_on_the_headline_instances(self, monkeypatch, workloads):
        # the 733 solves of the benchmark's tables workload: table1 and tableSUd
        instances = [(r.group, r.n, r.k, r.classes) for r in workloads.tables_requests()]
        assert len(instances) == 733
        budget = groups.MEMO_BUDGET
        monkeypatch.setattr(groups, "MEMO_BUDGET", 0)  # nothing is kept: every table is built
        cold = [compute_tmax(group, n, k, classes=classes) for group, n, k, classes in instances]
        assert not groups._MEMO
        monkeypatch.setattr(groups, "MEMO_BUDGET", budget)
        last = {}  # the table each (group, n) got last
        su4_built = {}  # the tables of SU(4)'s k = 3 sweep, by n
        hits = 0
        for (group, n, k, classes), (result, table, A) in zip(instances, cold):
            warm, warm_table, warm_A = compute_tmax(group, n, k, classes=classes)
            hits += last.get((group, n)) is warm_table
            last[group, n] = warm_table
            if group == sud(4) and (k, classes) == (3, None):
                su4_built[n] = warm_table
            elif group == sud(4):  # the k = 4 and T-group sweeps
                assert warm_table is su4_built[n], (n, k, classes)
            # tmax, lower bound, q, norm and support ids
            assert warm == result, (group, n, k)
            assert warm_table == table and warm_A.col_ids == A.col_ids
            assert held_entries() <= budget
        # the table1 localities and the SU(3) and SU(4) sweeps after k = 3 share tables
        assert len(su4_built) == 19
        assert hits == 407

    def test_a_sweep_past_the_budget_keeps_at_most_the_budget(self):
        built = 0
        for n in range(22, 41):
            _, table, _ = compute_tmax(sud(5), n, 3)
            built += len(table)
            assert held_entries() <= groups.MEMO_BUDGET
        assert built > groups.MEMO_BUDGET
        # the least recently used go first, so the newest tables stay
        kept = [n for _, n in kept_tables()]
        assert kept == list(range(41 - len(kept), 41)) and len(kept) < 19

    def test_the_budget_holds_each_headline_locality_sweep(self):
        # table1 sweeps U(1), SU(2) and Z_p over n = 13..60, tableSUd each SU(d) over n = 22..40
        sweeps = {group: range(13, 61) for group in (U1, SU2, zp(2), zp(3), zp(4), zp(5))}
        sweeps |= {sud(3): range(22, 41), sud(4): range(22, 41)}
        sizes = {group: sum(len(sectors(group, n)) for n in ns) for group, ns in sweeps.items()}
        assert max(sizes.values()) == sizes[sud(4)] == 6549
        assert all(size <= groups.MEMO_BUDGET for size in sizes.values()), sizes
        # the sizing rule: the next power of two above the largest sweep
        assert groups.MEMO_BUDGET == 1 << sizes[sud(4)].bit_length()

    def test_each_su4_locality_sweep_reads_the_tables_of_the_first(self, monkeypatch):
        calls = _count_sectors_calls(monkeypatch)
        for k, classes in ((3, None), (4, None), (4, list(T_GROUP_CLASSES))):
            for n in range(22, 41):
                compute_tmax(sud(4), n, k, classes=classes)
        assert calls == [(sud(4), n) for n in range(22, 41)]

    def test_least_recently_used_goes_first_and_a_larger_table_is_not_kept(self, monkeypatch):
        # an SU(3) table reads no binomial row, so the memo keeps the tables alone
        monkeypatch.setattr(groups, "MEMO_BUDGET", 40)
        t10 = groups.canonical_table(sud(3), 10)  # 14 sectors
        groups.canonical_table(sud(3), 12)  # 19
        assert groups.canonical_table(sud(3), 10) is t10  # now the most recently used
        groups.canonical_table(sud(3), 8)  # 10: 43 > 40, so (sud(3), 12) goes
        assert kept_tables() == [(sud(3), 10), (sud(3), 8)] and held_entries() == 24
        table = groups.canonical_table(sud(3), 20)  # 44 sectors > 40
        assert table == canonical_order(sectors(sud(3), 20))
        assert kept_tables() == [(sud(3), 10), (sud(3), 8)] and held_entries() == 24
        assert groups.canonical_table(sud(3), 20) is not table

    @pytest.mark.parametrize(
        "group, n, match",
        [(U1, True, "n must be an int"), (U1, 2.0, "n must be an int"), (CUSTOM, 3, "custom groups")],
        ids=str,
    )
    def test_inputs_equal_to_a_kept_key_still_reach_the_checks(self, group, n, match):
        # True == 1 and 2.0 == 2 hash as the kept keys of (U1, 1) and (U1, 2)
        compute_tmax(U1, 1, 1)
        compute_tmax(U1, 2, 2)
        assert kept_tables() == [(U1, 1), (U1, 2)]
        with pytest.raises(ValueError, match=match):
            compute_tmax(group, n, 1)


class TestConstantsMemo:
    """The one memo of exact constants: rows, gate tables and class tuples beside the tables."""

    def test_per_pass_counts_of_the_headline_instances(self, monkeypatch, workloads):
        instances = [(r.group, r.n, r.k, r.classes) for r in workloads.tables_requests()]
        memoized = groups.memoized
        asked, built = Counter(), Counter()

        def counting(key, build):
            asked[key[0]] += 1
            built[key[0]] += key not in groups._MEMO
            return memoized(key, build)

        for module in (groups, charges):
            monkeypatch.setattr(module, "memoized", counting)
        passes = []
        for _ in range(2):  # from the empty memo, then a steady pass
            asked.clear()
            built.clear()
            for group, n, k, classes in instances:
                compute_tmax(group, n, k, classes=classes)
                assert held_entries() <= groups.MEMO_BUDGET
            passes.append((dict(asked), dict(built)))
        asked_per_pass = {"table": 733, "gate": 638, "row": 941, "classes": 171}
        # rows and gate tables are reused within a pass: the SU(4) sweeps at its
        # end evict them first, as the least recently used
        assert passes[0] == (asked_per_pass, {"table": 326, "gate": 15, "row": 59, "classes": 2})
        assert passes[1] == (asked_per_pass, {"table": 326, "gate": 15, "row": 59, "classes": 1})

    def test_least_recently_used_goes_first_across_the_kinds_of_entry(self, monkeypatch):
        monkeypatch.setattr(groups, "MEMO_BUDGET", 30)
        u1 = sectors(U1, 5)  # reads the row C(5, .): 6 coefficients
        row = binomial_row(9)  # 10
        t8 = groups.canonical_table(sud(3), 8)  # 10 sectors
        conjugacy_classes(5)  # 7 classes: 33 > 30, so row 5 goes
        assert [*groups._MEMO] == [("row", 9), ("table", sud(3), 8), ("classes", 5)]
        assert binomial_row(9) is row  # now the most recently used
        binomial_row(3)  # 4: 31 > 30, so the table goes
        assert [*groups._MEMO] == [("classes", 5), ("row", 9), ("row", 3)] and held_entries() == 21
        conjugacy_classes(5)
        # the gate table of k = 2 reads row 2 (kept first), then the columns read row 3
        A = charge_matrix(u1, 2)
        assert A.witness is groups._MEMO["gate", U1, 2].multiplicities
        assert [*groups._MEMO] == [
            ("row", 9), ("classes", 5), ("row", 2), ("gate", U1, 2), ("row", 3)
        ]
        assert groups.canonical_table(sud(3), 8) == t8  # 10 again: 37 > 30, so row 9 goes
        assert [*groups._MEMO] == [
            ("classes", 5), ("row", 2), ("gate", U1, 2), ("row", 3), ("table", sud(3), 8)
        ]
        assert held_entries() == 27

    def test_a_row_one_past_the_budget_is_returned_but_not_kept(self):
        budget = groups.MEMO_BUDGET
        binomial_row(3)
        row = binomial_row(budget)
        assert len(row) == budget + 1
        assert row[:3] == (1, budget, budget * (budget - 1) // 2)
        assert row[budget // 2] == math.comb(budget, budget // 2)
        assert [*groups._MEMO] == [("row", 3)] and held_entries() == 4
        assert binomial_row(budget) is not row
        # a row of exactly the budget is kept, and every other entry goes
        full = binomial_row(budget - 1)
        assert [*groups._MEMO] == [("row", budget - 1)] and held_entries() == budget
        assert binomial_row(budget - 1) is full

    def test_a_caller_changing_a_result_leaves_the_next_call_unchanged(self):
        row = binomial_row(6)
        with pytest.raises(TypeError):
            row[0] = 7  # a kept row is a tuple
        classes = conjugacy_classes(4)
        expected = [*classes]
        classes[0] = CycleType((2,))
        classes.append(CycleType((5,)))
        gates = charges.gate_classes(4)
        gates.clear()
        assert conjugacy_classes(4) == charges.gate_classes(4) == expected
        assert [c.cycles for c in expected] == [(), (2,), (3,), (2, 2), (4,)]
        assert binomial_row(6) == (1, 6, 15, 20, 15, 6, 1)
        A = charge_matrix(canonical_order(sectors(sud(3), 6)), 4)
        assert list(A.row_labels) == expected

    def test_empty_values_are_not_kept(self):
        # no class has support below 0, and an empty value would count no entry
        assert conjugacy_classes(-1) == []
        assert not groups._MEMO


class TestPerTableChecks:
    def test_warm_sud_solve_checks_no_partition_per_sector(self, monkeypatch):
        # sectors checks its generated shapes once per table; the solve and
        # the certificate check then build no checked PartitionId per sector
        # (no table is kept, so the warm solve builds its table again)
        monkeypatch.setattr(groups, "MEMO_BUDGET", 0)
        compute_tmax(sud(4), 30, 4)
        calls = []
        init = groups.PartitionId.__init__
        monkeypatch.setattr(
            groups.PartitionId, "__init__", lambda self, parts: calls.append(parts) or init(self, parts)
        )
        result, table, A = compute_tmax(sud(4), 30, 4)
        assert verify_certificate(result.certificate, A, table)
        assert len(table) == 297 and not calls
        with pytest.raises(ValueError):
            groups.PartitionId((1, 2))
        assert calls == [(1, 2)]


    def test_warm_sud_solve_reads_the_identity_row_whole(self, monkeypatch):
        # charge_matrix reads row 0, f^lambda, in one pass over the memo; the
        # row-span check and the scan's columns then take it from that row
        compute_tmax(sud(4), 30, 4)
        calls = []
        dims = charges.sn_irrep_dims
        monkeypatch.setattr(
            charges, "sn_irrep_dims", lambda shapes: calls.append(shapes) or dims(shapes)
        )
        monkeypatch.setattr(charges, "sn_irrep_dim", lambda parts: calls.append(parts))
        read = _count_column_reads(monkeypatch)
        result, table, A = compute_tmax(sud(4), 30, 4)
        assert verify_certificate(result.certificate, A, table)
        assert calls == [[irrep.parts for irrep in table.ids]]
        assert A[0] == tuple(dims(calls[0])) == table.multiplicities == A.rows[0]
        assert read and all(A.column(j)[0] is A[0][j] for j in read)

    @pytest.mark.parametrize("memo", ["warm", "empty"])
    def test_sud_multiplicity_off_by_one_is_outside_the_row_span(self, memo, monkeypatch):
        # the identity row comes from the partitions, so a hand-built table whose
        # multiplicity is one too large no longer matches it (with the memo
        # warm, or empty so that f^lambda is computed again)
        table = canonical_order(sectors(sud(3), 12))
        m = list(table.multiplicities)
        m[-1] += 1  # still weakly increasing
        bad = SectorTable(table.group, table.n, table.ids, tuple(m), table.dims)
        if memo == "empty":
            monkeypatch.setattr(groups, "_SN_DIMS", {})
        with pytest.raises(ValueError, match="row span"):
            tmax_exact(charge_matrix(bad, 4), bad)
        assert tmax_exact(charge_matrix(table, 4), table).proven_exact


class TestBruteForce:
    """The exhaustive oracle of :mod:`symdesign.checks` on hand-checked instances."""

    def test_u1_n3_k1(self):
        matrix, table = aligned(U1, 3, 1)
        cert = exhaustive_certificate(matrix, table)
        assert verify_certificate(cert, matrix, table)
        # over w = 0, 3, 1, 2 the scan stops before w=2 (6 <= 2 m), so the
        # lexicographically smaller optimum that needs w=2 loses
        optima = kernel_vectors(matrix.rows, table.multiplicities, 6)
        assert optima == [(1, 2, 0, -1), (2, 1, -1, 0)]
        assert cert.q == (2, 1, -1, 0) and cert.weighted_norm == 6
        assert tmax_exact(matrix, table, assume_semiuniversal=True).certificate == cert

    def test_empty_kernel(self):
        matrix, table = aligned(U1, 5, 5)
        assert exhaustive_certificate(matrix, table) is None

    def test_z2_n3_k2(self):
        matrix, table = aligned(zp(2), 3, 2)
        assert exhaustive_certificate(matrix, table).weighted_norm == 8


@st.composite
def custom_problems(draw):
    """2-6 sectors with multiplicities <= 10 and up to 3 charge rows in -4..4."""
    c = draw(st.integers(2, 6))
    m = sorted(draw(st.lists(st.integers(1, 10), min_size=c, max_size=c)))
    row = st.lists(st.integers(-4, 4), min_size=c, max_size=c)
    return m, draw(st.lists(row, max_size=3))


class TestRandomizedCrossValidation:
    @given(custom_problems())
    @settings(max_examples=300, deadline=None)
    def test_random_custom_problems_against_direct_enumeration(self, problem):
        m, rows = problem
        table = custom_table(m)
        matrix = custom_matrix(table, rows)
        result = tmax_exact(matrix, table, assume_semiuniversal=True)
        oracle = exhaustive_certificate(matrix, table)
        if result.tmax == INFINITE:
            # a trivial kernel: the oracle finds no free coordinate
            assert oracle is None
            return
        assert result.tmax == oracle.weighted_norm // 2 - 1
        assert result.certificate.weighted_norm == oracle.weighted_norm
        assert result.certificate.q == oracle.q
        assert verify_certificate(result.certificate, matrix, table)


class TestCustomProblems:
    def test_identity_only_z2(self):
        from symdesign import custom_table, load_custom_problem

        table, matrix = load_custom_problem('{"m": [4, 4], "rows": []}')
        result = tmax_exact(matrix, table, assume_semiuniversal=True)
        assert result.tmax == 3
        assert result.certificate.q == (1, -1)

    def test_custom_requires_flag(self):
        from symdesign import load_custom_problem

        table, matrix = load_custom_problem('{"m": [4, 4], "rows": []}')
        with pytest.raises(SemiUniversalityError):
            tmax_exact(matrix, table)

    def test_sud_k2_sv_case(self):
        n, d = 15, 3
        table = canonical_order(sectors(sud(d), n))
        chi = charge_matrix(table, 2)
        result = tmax_exact(chi, table, assume_semiuniversal=True)
        assert result.tmax + 1 == (n + 1) * (n - 2) // 2

    def test_rational_rows_phase_and_hopping(self):
        # single-qubit phases plus hopping on 3 qubits: the hopping term is
        # centerless, so the only charge rows are the identity and the scaled
        # total-Z vector; the order is n - 1 = 2 with the same certificate as
        # the 1-local case
        from symdesign import load_custom_problem

        doc = '{"m": [1, 3, 3, 1], "rows": [["1/3", "1/3", "-1/3", "-1/3"]]}'
        table, matrix = load_custom_problem(doc)
        result = tmax_exact(matrix, table, assume_semiuniversal=True)
        assert result.tmax == 2
        assert result.certificate.weighted_norm == 6
