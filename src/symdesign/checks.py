"""Verification suites behind ``symdesign verify`` and the acceptance tests.

Each suite re-derives exact identities (or solver answers) by an independent
route and returns a :class:`Tally` of the checks it made and the ones that
failed, so the command line and the test suite run the same checks.  The
exhaustive oracle behind ``solver-brute`` (:func:`kernel_vectors`,
:func:`exhaustive_certificate`) shares no code with the solve path, and the
``oracle`` suite rebuilds operators over the full computational basis, in
integers like everything else here.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb, lcm, prod
from operator import mul
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


def _charge_matrix_entries(t: Tally, group, formula) -> None:
    """Every entry of ``charge_matrix(sectors(group, n), k)`` for n <= 30 and every k.

    ``formula(n - k, row, col)`` gives the entry from the row's ``k``-site
    and the column's ``n``-site irrep.
    """
    for n in range(1, 31):
        table = sectors(group, n)
        for k in range(1, n + 1):
            A = charge_matrix(table, k)
            for row, values in zip(A.row_labels, A.rows):
                for col, value in zip(table.ids, values):
                    t.check(value == formula(n - k, row, col), "charge_matrix", n, k, row, col)


def _su2_entry(nk: int, row, col) -> int:
    if (nk + col.jj + row.jj) % 2:
        return 0
    lo = (nk + col.jj - row.jj) // 2
    return (comb(nk, lo) if lo >= 0 else 0) - comb(nk, lo + row.jj + 1)


def identities_u1() -> Tally:
    """U(1) operator identities: orthogonality, mirror symmetries, pairings, norms.

    Every entry of the solver's charge matrices, built from one binomial row
    per matrix, is then checked against ``math.comb``.  Both run for n <= 30.
    """
    t = Tally()
    for n in range(1, 31):
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
    _charge_matrix_entries(t, U1, lambda nk, v, w: comb(nk, w.w - v.w) if w.w >= v.w else 0)
    return t


def identities_su2() -> Tally:
    """SU(2) total-spin basis: orthogonality, pairings with the A family, norms.

    Every entry of the solver's charge matrices is then checked against its
    difference of two ``math.comb`` values.  Both run for n <= 30.
    """
    t = Tally()
    for n in range(1, 31):
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
    _charge_matrix_entries(t, SU2, _su2_entry)
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
    """Symmetric-group characters by both routes the package computes them.

    ``sn_character`` (the border-strip recursion) is checked against the
    tabulated polynomials for n = 15..60: they hold for every n >= 15, and
    going to 60 reaches the sizes of SU(d) solves such as sud(5) with n = 50.
    The solver's matrix ``charge_matrix(sectors(sud(n), n), 4)``, whose rows
    come from content power sums, is then checked entry by entry against
    ``sn_character`` on every partition of n = 4..20.
    """
    t = Tally()
    for n in range(15, 61):
        for tail, formula in _CHARACTER_ROWS.items():
            parts = (n - sum(tail),) + tail
            for cycles, expected in zip([(), (2,), (3,), (2, 2), (4,)], formula(n)):
                t.check(sn_character(parts, cycles) == expected, parts, cycles)
    for n in range(4, 21):
        A = charge_matrix(sectors(sud(n), n), 4)
        for j, irrep in enumerate(A.col_ids):
            for cls, value in zip(A.row_labels, A.column(j)):
                t.check(value == sn_character(irrep.parts, cls), "charge_matrix", irrep.parts, cls)
    return t


def walsh_hadamard(v: list[int]) -> list[int]:
    """``out[m] = sum_x v[x] * (-1)**popcount(x & m)`` for a list of length ``2**n``.

    For the diagonal ``v`` of an operator on ``n`` qubits (bit ``a`` of ``x``
    is the excitation on qubit ``a``), ``out[m]`` is its trace pairing with
    the Z-string on the qubits set in ``m``.
    """
    v = list(v)
    h = 1
    while h < len(v):
        for i in range(0, len(v), 2 * h):
            for j in range(i, i + h):
                v[j], v[j + h] = v[j] + v[j + h], v[j] - v[j + h]
        h *= 2
    return v


def u1_c_diagonal(n: int, l: int) -> list[int]:
    """Diagonal of the sum of every weight-``l`` Z-string on ``n`` qubits."""
    return walsh_hadamard([int(x.bit_count() == l) for x in range(1 << n)])


def u1_f_diagonal(n: int, k: int) -> list[int]:
    """Diagonal of the edge-supported operator: :func:`u1_f_values` at each bitstring's weight."""
    values = u1_f_values(n, k)
    return [values[x.bit_count()] for x in range(1 << n)]


def u1_orthogonality_check(f: list[int], k: int) -> bool:
    """The diagonal ``f`` ignores sub-``k``-local terms but detects ``k``-body ones.

    True iff its pairing with every Z-string on fewer than ``k`` qubits
    vanishes and, for ``k >= 1``, its pairing with the Z-string on qubits
    ``0..k-1`` does not.  A Pauli string with an X or a Y pairs to zero with
    any diagonal operator, so no string is skipped.
    """
    pairings = walsh_hadamard(f)
    if any(p for m, p in enumerate(pairings) if m.bit_count() < k):
        return False
    return k == 0 or pairings[(1 << k) - 1] != 0


# X, Y and Z on a qubit holding bit v: (bit flip, p) with the phase i**p
_PAULI = (lambda v: (1, 0), lambda v: (1, 1 + 2 * v), lambda v: (0, 2 * v))


def su2_exchange(n: int) -> list[dict[int, int]]:
    """``E = sum_{a<b} (X_a X_b + Y_a Y_b + Z_a Z_b)`` as an integer operator.

    Entry ``x`` maps each bitstring ``y`` to ``<y|E|x>``.  Each pair
    ``P_a P_b`` sends ``|x>`` to one bitstring with the phase ``i**p``, and
    ``p`` is even for every pair (Y (x) Y is real).
    """
    columns = []
    for x in range(1 << n):
        col = {}
        for a, b in combinations(range(n), 2):
            for pauli in _PAULI:
                (flip_a, pa), (flip_b, pb) = pauli((x >> a) & 1), pauli((x >> b) & 1)
                y = x ^ (flip_a << a) ^ (flip_b << b)
                col[y] = col.get(y, 0) + (-1) ** ((pa + pb) // 2)
        columns.append({y: c for y, c in col.items() if c})
    return columns


def su2_spin_squared(n: int) -> list[dict[int, int]]:
    """``4 J^2 = (2 J_z)^2 + 2 (J_+ J_- + J_- J_+)``, laid out as :func:`su2_exchange`.

    The ladder operators move one qubit up or down with coefficient 1, and
    ``2 J_z`` is ``n - 2w`` on a bitstring of weight ``w``.
    """

    def moves(x, bit):  # set one qubit of x that is not at bit to bit
        return [x ^ (1 << a) for a in range(n) if (x >> a) & 1 != bit]

    columns = []
    for x in range(1 << n):
        col = {x: (n - 2 * x.bit_count()) ** 2}
        for bit in (0, 1):
            for y in moves(x, bit):
                for z in moves(y, 1 - bit):
                    col[z] = col.get(z, 0) + 2
        columns.append(col)
    return columns


def su2_exchange_blocks(n: int) -> list[list[list[int]]]:
    """The exchange sum on each Hamming-weight block, ``w = 0..n``, over its bitstrings in order."""
    E = su2_exchange(n)
    blocks = []
    for w in range(n + 1):
        basis = [x for x in range(1 << n) if x.bit_count() == w]
        blocks.append([[E[x].get(y, 0) for x in basis] for y in basis])
    return blocks


def _matmul(A, B):
    cols = list(zip(*B))
    return [[sum(map(mul, row, col)) for col in cols] for row in A]


def _powers(block, top: int):
    """``[block**0, ..., block**top]``."""
    powers = [[[int(r == c) for c in range(len(block))] for r in range(len(block))]]
    for _ in range(top):
        powers.append(_matmul(powers[-1], block))
    return powers


def _roots_poly(roots) -> list[int]:
    """Coefficients, constant first, of ``prod (x - r)`` over ``roots``."""
    coeffs = [1]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return coeffs


def _su2_eigenvalues(n: int) -> dict[int, int]:
    return {jj: su2_c_eigenvalue(n, 2, jj) for jj in range(n % 2, n + 1, 2)}


def su2_casimir_check(n: int) -> bool:
    """The exchange sum is ``(4 J^2 - 3n) / 2`` and takes only the values ``e_j``.

    ``e_j`` is :func:`su2_c_eigenvalue` on spin ``j``.  Each Hamming-weight
    block of the sum must be annihilated by ``prod_j (E - e_j)``; the roots
    are distinct, so ``E`` is diagonalizable with its eigenvalues among them.
    """
    for x, (col, spin) in enumerate(zip(su2_exchange(n), su2_spin_squared(n))):
        doubled = {y: 2 * c for y, c in col.items()}
        doubled[x] = doubled.get(x, 0) + 3 * n
        if {y: c for y, c in doubled.items() if c} != spin:
            return False
    annihilator = _roots_poly(_su2_eigenvalues(n).values())
    for block in su2_exchange_blocks(n):
        powers = _powers(block, len(annihilator) - 1)
        for r, c in product(range(len(block)), repeat=2):
            if sum(a * P[r][c] for a, P in zip(annihilator, powers)):
                return False
    return True


def su2_projector_traces(n: int) -> dict[int, Fraction]:
    """Trace of each Lagrange projector of the exchange sum ``E``, keyed by ``2j``.

    The projector is ``prod_{j' != j} (E - e_j') / (e_j - e_j')``, with
    ``e_j`` as in :func:`su2_casimir_check`; its trace is a combination of
    the traces of the powers of ``E``.
    """
    eigenvalues = _su2_eigenvalues(n)
    power_traces = [0] * len(eigenvalues)
    for block in su2_exchange_blocks(n):
        for i, P in enumerate(_powers(block, len(eigenvalues) - 1)):
            power_traces[i] += sum(P[r][r] for r in range(len(block)))
    traces = {}
    for jj, e in eigenvalues.items():
        others = [o for j, o in eigenvalues.items() if j != jj]
        numerator = sum(map(mul, _roots_poly(others), power_traces))
        traces[jj] = Fraction(numerator, prod(e - o for o in others))
    return traces


def su2_projector_check(n: int) -> bool:
    """Each Lagrange projector has trace ``(2j + 1) m_j``, the dimension of its spin sector."""
    traces = su2_projector_traces(n)
    return all(tr == (jj + 1) * su2_multiplicity(n, jj) for jj, tr in traces.items())


def _matrix4(entries: dict) -> list[list[int]]:
    return [[entries.get((r, c), 0) for c in range(4)] for r in range(4)]


# the even block spans |00>, |11> (indices 0, 3) and the odd one |01>, |10>
# (1, 2); E, F and H of each block span its complexified special Lie algebra
_BLOCK_GENERATORS = [
    _matrix4(entries)
    for i, j in ((0, 3), (1, 2))
    for entries in ({(i, j): 1}, {(j, i): 1}, {(i, i): 1, (j, j): -1})
]
_ZZ = _matrix4({(0, 0): 1, (1, 1): -1, (2, 2): -1, (3, 3): 1})
# |s0><s1| on the two-copy index 4*a + b, from the two-copy singlets
# |00,11> - |11,00> and |01,10> - |10,01> of the two blocks
Z2_WITNESS = tuple(
    tuple({3: 1, 12: -1}.get(r, 0) * {6: 1, 9: -1}.get(c, 0) for c in range(16)) for r in range(16)
)


def z2_witness_check(witness=Z2_WITNESS, phase: int = 4) -> bool:
    """Two-qubit parity symmetry: a nonzero operator that separates the gate group.

    Every special block unitary ``v0 (+) v1`` conjugates the ``witness`` to
    itself on two copies: it commutes with ``G (x) 1 + 1 (x) G`` for the six
    real block generators ``G``, and the group is connected.  Under
    ``G = Z (x) Z`` it satisfies ``[G (x) 1 + 1 (x) G, W] = phase * W``, so
    ``exp(i theta Z (x) Z)``, symmetric yet not generated by the special
    blocks, multiplies it by ``exp(i phase theta)``.  ``Z2_WITNESS`` has
    phase 4.
    """

    def ad(op):
        G = [
            [op[r // 4][c // 4] * (r % 4 == c % 4) + op[r % 4][c % 4] * (r // 4 == c // 4)
             for c in range(16)]
            for r in range(16)
        ]
        GW, WG = _matmul(G, witness), _matmul(witness, G)
        return [[x - y for x, y in zip(r, s)] for r, s in zip(GW, WG)]

    if not any(map(any, witness)) or any(any(map(any, ad(g))) for g in _BLOCK_GENERATORS):
        return False
    return ad(_ZZ) == [[phase * x for x in row] for row in witness]


def oracle() -> Tally:
    """Operators rebuilt over the computational basis, exactly, against the closed forms.

    The operators grow like ``2**n``, so the sizes are fixed: U(1)
    orthogonality for n <= 12, ``tr_f_c`` at n = 10, the SU(2) Casimir and
    projectors for n <= 8, and the two-qubit parity witness.
    """
    t = Tally()
    for n in range(1, 13):
        for k in range(n + 1):
            t.check(u1_orthogonality_check(u1_f_diagonal(n, k), k), "u1 orthogonality", n, k)
    for k in range(11):
        # Tr(f c_l) sums the pairings of f with the Z-strings of weight l
        pairings = walsh_hadamard(u1_f_diagonal(10, k))
        for l in range(11):
            direct = sum(p for m, p in enumerate(pairings) if m.bit_count() == l)
            t.check(direct == tr_f_c(10, k, l), "tr_f_c", 10, k, l)
    for n in range(1, 9):
        t.check(su2_casimir_check(n), "su2 casimir", n)
        if n >= 2:
            t.check(su2_projector_check(n), "su2 projectors", n)
    t.check(z2_witness_check(), "z2 witness")
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
