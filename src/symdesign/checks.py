"""Verification suites behind ``symdesign verify`` and the acceptance tests.

Each suite re-derives exact identities (or solver answers) by an independent
route and returns a :class:`Tally` of the checks it made and the ones that
failed, so the command line and the test suite run the same checks.  The
exhaustive oracle behind ``solver-brute`` (:func:`kernel_vectors`,
:func:`exhaustive_certificate`) shares no code with the solve path.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from typing import Optional

from .charges import charge_matrix, sn_character
from .closedforms import (
    double_factorial,
    su2_a_norm,
    su2_a_operator,
    su2_c_eigenvalue,
    tr_a_ctilde,
    tr_f_c,
    u1_a_norm,
    u1_a_operator,
    u1_c_eigenvalue,
    u1_f_norm,
    u1_f_values,
)
from .groups import SU2, U1, canonical_order, sectors, su2_multiplicity, sud, zp
from .infinity import INFINITE
from .solver import Certificate, lower_bound, tmax_exact


class Tally:
    """Number of checks made and the location of every failed one."""

    def __init__(self):
        self.checks = 0
        self.failures = []

    def check(self, ok: bool, *where):
        self.checks += 1
        if not ok:
            self.failures.append(where)


def identities_u1(n_max: int = 30) -> Tally:
    """U(1) operator identities: orthogonality, mirror symmetries, pairings, norms."""
    t = Tally()
    for n in range(1, n_max + 1):
        cvals = [[u1_c_eigenvalue(n, l, w) for w in range(n + 1)] for l in range(n + 1)]
        for l in range(n + 1):
            for lp in range(n + 1):
                acc = sum(cvals[l][w] * cvals[lp][w] * comb(n, w) for w in range(n + 1))
                t.check(acc == (2**n * comb(n, l) if l == lp else 0), "orthogonality", n, l, lp)
            for w in range(n + 1):
                t.check(comb(n, w) * cvals[l][w] == comb(n, l) * cvals[w][l], "symmetry", n, l, w)
                t.check(
                    comb(n, w) * cvals[l][w] == (-1) ** l * comb(n, n - w) * cvals[l][n - w],
                    "weight mirror", n, l, w,
                )
                t.check(cvals[l][w] == (-1) ** w * cvals[n - l][w], "degree mirror", n, l, w)
        amat = [u1_a_operator(n, k).qvec for k in range(n + 1)]
        for i in range(n + 1):
            for j in range(n + 1):
                acc = sum(amat[i][s] * amat[s][j] for s in range(n + 1))
                # the coefficient matrix of the low-weight family is self-inverse
                t.check(acc == (1 if i == j else 0), "self-inverse", n, i, j)
        for k in range(n + 1):
            fvals = u1_f_values(n, k)
            if n <= 16:  # the direct double sum is the costly part
                for l in range(n + 1):
                    direct = sum(fvals[w] * comb(n, w) * cvals[l][w] for w in range(n + 1))
                    t.check(direct == tr_f_c(n, k, l), "tr_f_c", n, k, l)
            f_direct = sum(abs(x) * comb(n, w) for w, x in enumerate(fvals))
            t.check(u1_f_norm(n, k) == f_direct, "f norm", n, k)
            a_direct = sum(comb(n - w, k - w) * comb(n, w) for w in range(k + 1))
            t.check(u1_a_norm(n, k) == a_direct == 2**k * comb(n, k), "a norm", n, k)
    return t


def identities_su2(n_max: int = 30) -> Tally:
    """SU(2) total-spin basis: orthogonality, pairings with the A family, norms."""
    t = Tally()
    for n in range(1, n_max + 1):
        for k in range(0, n + 1, 2):
            op = su2_a_operator(n, k)
            direct = sum(
                abs(q) * su2_multiplicity(n, irrep.jj) for q, irrep in zip(op.qvec, op.table.ids)
            )
            t.check(su2_a_norm(n, k) == direct, "a norm", n, k)
        if n < 2:
            continue
        jjs = list(range(n % 2, n + 1, 2))
        traces = {jj: (jj + 1) * su2_multiplicity(n, jj) for jj in jjs}
        cvals = {ll: {jj: su2_c_eigenvalue(n, ll, jj) for jj in jjs} for ll in range(0, n + 1, 2)}
        for ll in range(0, n + 1, 2):
            for llp in range(0, n + 1, 2):
                acc = sum(cvals[ll][jj] * cvals[llp][jj] * traces[jj] for jj in jjs)
                if ll == llp:
                    expected = (
                        double_factorial(ll + 1) * double_factorial(ll - 1) * 2**n * comb(n, ll)
                    )
                else:
                    expected = 0
                t.check(acc == expected, "orthogonality", n, ll, llp)
        for ss in range(0, n + 1, 2):
            op = su2_a_operator(n, ss)
            for mm in range(0, n + 1, 2):
                scale = double_factorial(mm - 1) * comb(n, mm)
                direct = sum(op.values[i] * cvals[mm][jj] * traces[jj] for i, jj in enumerate(jjs))
                # compare against the unit-normalized pairing
                t.check(direct == tr_a_ctilde(n, ss, mm) * scale, "pairing", n, ss, mm)
    return t


# tabulated characters chi_[n - |tail|, tail] on the classes (), (2), (3), (2,2), (4)
_CHARACTER_ROWS = {
    (): lambda n: [1, 1, 1, 1, 1],
    (1,): lambda n: [n - 1, n - 3, n - 4, n - 5, n - 5],
    (2,): lambda n: [
        n * (n - 3) // 2,
        (n - 3) * (n - 4) // 2,
        (n - 3) * (n - 6) // 2,
        (n * n - 11 * n + 32) // 2,
        (n - 4) * (n - 7) // 2,
    ],
    (1, 1): lambda n: [
        (n - 1) * (n - 2) // 2,
        (n - 2) * (n - 5) // 2,
        (n - 4) * (n - 5) // 2,
        (n * n - 11 * n + 26) // 2,
        (n - 5) * (n - 6) // 2,
    ],
    (3,): lambda n: [
        n * (n - 1) * (n - 5) // 6,
        (n - 3) * (n - 4) * (n - 5) // 6,
        (n - 5) * (n * n - 10 * n + 18) // 6,
        (n - 5) * (n * n - 13 * n + 48) // 6,
        (n - 4) * (n - 5) * (n - 9) // 6,
    ],
    (1, 1, 1): lambda n: [
        (n - 1) * (n - 2) * (n - 3) // 6,
        (n - 2) * (n - 3) * (n - 7) // 6,
        (n - 3) * (n * n - 12 * n + 38) // 6,
        (n - 3) * (n - 5) * (n - 10) // 6,
        (n - 5) * (n - 6) * (n - 7) // 6,
    ],
    (2, 1): lambda n: [
        n * (n - 2) * (n - 4) // 3,
        (n - 2) * (n - 4) * (n - 6) // 3,
        (n - 4) * (n * n - 11 * n + 27) // 3,
        (n - 4) * (n - 6) * (n - 8) // 3,
        (n - 4) * (n - 6) * (n - 8) // 3,
    ],
}


def characters() -> Tally:
    """Symmetric-group characters against the tabulated polynomials, n = 15..60.

    The polynomials hold for every n >= 15; going to 60 checks the
    recursion at the sizes of SU(d) solves such as sud(5) with n = 50.
    """
    t = Tally()
    for n in range(15, 61):
        for tail, formula in _CHARACTER_ROWS.items():
            parts = (n - sum(tail),) + tail
            for cycles, expected in zip([(), (2,), (3,), (2, 2), (4,)], formula(n)):
                t.check(sn_character(parts, cycles) == expected, parts, cycles)
    return t


def oracle(n_max: int = 12, samples: int = 500, seed: int = 0) -> Tally:
    """Dense (numpy) reconstructions against the exact formulas.

    The dense matrices grow like ``2**n``: U(1) checks stop at n = 12 and
    SU(2) checks at n = 8 whatever ``n_max`` is.
    """
    from . import dense  # the only suite that needs numpy

    t = Tally()
    for n in range(1, min(n_max, 12) + 1):
        for k in range(n + 1):
            t.check(dense.u1_orthogonality_check(n, k), "u1 orthogonality", n, k)
    for k in range(11):
        for l in range(11):
            t.check(dense.dense_tr_f_c(10, k, l) == tr_f_c(10, k, l), "tr_f_c", 10, k, l)
    for n in range(1, min(n_max, 8) + 1):
        t.check(dense.su2_c2_check(n), "su2 casimir", n)
        if n >= 2:
            t.check(dense.su2_projector_checks(n), "su2 projectors", n)
    t.check(dense.z2_witness_check(samples=samples, seed=seed), "z2 witness", samples, seed)
    return t


def _free_form(rows, weights):
    """Exact RREF of ``rows`` with its pivots on the lightest columns.

    Returns the free columns (heaviest first) and per pivot ``(column, scale,
    c)`` with ``scale * q[column] == -sum(c_f * q[f])`` over the free ``f``.
    """
    M = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in sorted(range(len(weights)), key=weights.__getitem__):
        r = len(pivots)
        i = next((i for i in range(r, len(M)) if M[i][col]), None)
        if i is None:
            continue
        M[r], M[i] = M[i], M[r]
        M[r] = [x / M[r][col] for x in M[r]]
        for i, row in enumerate(M):
            if i != r and row[col]:
                M[i] = [a - row[col] * b for a, b in zip(row, M[r])]
        pivots.append(col)
    free = sorted(set(range(len(weights))) - set(pivots), key=lambda j: (-weights[j], j))
    solved = []
    for col, row in zip(pivots, M):
        scale = lcm(*(row[f].denominator for f in free))
        solved.append((col, scale, [int(row[f] * scale) for f in free]))
    return free, solved


def _vectors_within(form, weights, radius: int) -> list[tuple[int, ...]]:
    free, solved = form
    found = []
    q = [0] * len(weights)

    def descend(level, budget, sums, top):
        # sums[i] = -scale * q[pivot i] over the free coordinates fixed so
        # far; top says they are all zero
        if level == len(free):
            if top:
                return
            for (col, scale, _), s in zip(solved, sums):
                x, rem = divmod(-s, scale)
                budget -= weights[col] * abs(x)
                if rem or budget < 0:
                    return
                q[col] = x
            found.append(tuple(q) if next(x for x in q if x) > 0 else tuple(-x for x in q))
            return
        f = free[level]
        reach = budget // weights[f]
        # the first nonzero free coordinate is positive, so each +-q comes once
        for x in range(0 if top else -reach, reach + 1):
            q[f] = x
            sums_x = [s + c[level] * x for s, (_, _, c) in zip(sums, solved)]
            descend(level + 1, budget - weights[f] * abs(x), sums_x, top and not x)
        q[f] = 0

    descend(0, radius, [0] * len(solved), True)
    return found


def kernel_vectors(rows, weights, radius: int) -> list[tuple[int, ...]]:
    """Every nonzero integer ``q`` with ``rows . q == 0`` and weighted norm <= ``radius``.

    The norm is ``sum(w_i |q_i|)`` over positive integer weights.  One of
    each pair ``+-q`` is listed, with its first nonzero entry positive.
    Complete by construction: the free coordinates of an exact RREF fix a
    kernel vector, and each is enumerated within the budget the others
    leave.  Pivots go to the smallest weights, so the free coordinates carry
    the largest ones and take the fewest values.
    """
    return _vectors_within(_free_form(rows, weights), weights, radius)


def exhaustive_certificate(A, table) -> Optional[Certificate]:
    """The certificate :func:`tmax_exact` must return, found with no lattice code.

    ``None`` when the kernel of ``A`` is trivial.  Otherwise the radius
    starts at ``2 * m[0]`` and doubles until kernel vectors appear; their
    least norm ``B`` is the optimum.  Ties go to the lexicographically
    smallest optimum supported on the prefix where the scan of
    :func:`tmax_exact` stops: the first ``0..s`` that holds an optimum with
    ``s`` last or ``B <= 2 * m[s + 1]``.
    """
    m = table.multiplicities
    form = _free_form(A.rows, m)
    if not form[0]:  # no free column: the kernel is trivial
        return None
    radius = 2 * m[0]
    while not (found := _vectors_within(form, m, radius)):
        radius *= 2
    norms = {q: sum(w * abs(x) for w, x in zip(m, q)) for q in found}
    best = min(norms.values())
    optima = [q for q in found if norms[q] == best]
    last = {q: max(i for i, x in enumerate(q) if x) for q in optima}
    s = min(last.values())
    while s + 1 < len(m) and best > 2 * m[s + 1]:
        s += 1
    q = min(q for q in optima if last[q] <= s)
    return Certificate(q, best, tuple(table.ids[i] for i, x in enumerate(q) if x))


def solver_brute() -> Tally:
    """Exact solver against the exhaustive oracle on every small instance.

    Instances have n <= 8, every locality and any kernel dimension.  Each
    checks the design order and the exact certificate against
    :func:`exhaustive_certificate`, and that the lower bound of the solve
    equals the stand-alone :func:`lower_bound`.
    """
    t = Tally()
    for group in (U1, SU2, zp(2), zp(3), zp(4), zp(5), sud(3), sud(4)):
        for n in range(2, 9):
            for k in range(1, n + 1):
                table = canonical_order(sectors(group, n))
                matrix = charge_matrix(table, k)
                exact = tmax_exact(matrix, table, assume_semiuniversal=True)
                oracle = exhaustive_certificate(matrix, table)
                expected = INFINITE if oracle is None else oracle.weighted_norm // 2 - 1
                t.check(exact.tmax == expected, "tmax", str(group), n, k)
                t.check(exact.certificate == oracle, "certificate", str(group), n, k)
                bound = lower_bound(matrix, table, assume_semiuniversal=True).bound
                t.check(exact.lower_bound == bound, "lower bound", str(group), n, k)
    return t
