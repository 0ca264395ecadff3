"""Desk-scale dense verification of the operator-level claims.

Everything here rebuilds operators explicitly over the computational basis
(2^n entries for diagonal operators, 2^n x 2^n matrices for the spin checks)
and compares against the exact closed forms computed elsewhere.  This module
is the only place floating point is allowed; the solver path never calls it.

Tolerances: 1e-10 for single dense operators, 1e-8 for products of projectors
(error accumulates over matrix multiplications at dimension 2^10).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .closedforms import su2_c_eigenvalue, u1_f_values
from .groups import su2_multiplicity

ATOL_OPERATOR = 1e-10
ATOL_PRODUCT = 1e-8


# ---------------------------------------------------------------------------
# diagonal U(1) machinery over bitstrings
# ---------------------------------------------------------------------------


def _popcounts(n: int) -> np.ndarray:
    """pc[x] = popcount(x) for x < 2**n; ``pc & 1`` are the bit parities."""
    pc = np.zeros(1 << n, dtype=np.int64)
    for x in range(1, 1 << n):
        pc[x] = pc[x >> 1] + (x & 1)
    return pc


def u1_dense_c(n: int, l: int) -> np.ndarray:
    """Diagonal of the sum of all weight-``l`` Z-strings, by direct summation.

    Integer-valued vector of length 2^n; entry order is the binary value of
    the bitstring (bit a of the index = excitation on qubit a).
    """
    if n > 14:
        raise ValueError("dense diagonals are limited to n <= 14")
    if not 0 <= l <= n:
        raise ValueError("need 0 <= l <= n")
    par = _popcounts(n) & 1
    b = np.arange(1 << n)
    out = np.zeros(1 << n, dtype=np.int64)
    for bits in combinations(range(n), l):
        mask = 0
        for a in bits:
            mask |= 1 << a
        out += 1 - 2 * par[b & mask]
    return out


def u1_dense_f(n: int, k: int) -> np.ndarray:
    """Diagonal of the edge-supported operator: value per bitstring weight."""
    vals = u1_f_values(n, k)
    pc = _popcounts(n)
    return np.array([vals[w] for w in pc], dtype=np.int64)


def dense_tr_f_c(n: int, k: int, l: int) -> int:
    """Trace pairing computed entirely from dense diagonals."""
    return int(np.dot(u1_dense_f(n, k), u1_dense_c(n, l)))


def u1_orthogonality_check(n: int, k: int) -> bool:
    """Dense check that the edge-supported operator ignores sub-``k``-local terms.

    True iff the pairing with every Z-string on fewer than ``k`` qubits
    vanishes (non-Z Pauli strings pair to zero with any diagonal operator, so
    they need no dense test).  For ``k >= 1`` also insists the pairing with
    some weight-``k`` string is nonzero: the operator detects ``k``-body
    terms.
    """
    if n > 12:
        raise ValueError("orthogonality scan is limited to n <= 12")
    par = _popcounts(n) & 1
    b = np.arange(1 << n)
    f = u1_dense_f(n, k)
    for wt in range(0, k):
        for bits in combinations(range(n), wt):
            mask = 0
            for a in bits:
                mask |= 1 << a
            if int(np.dot(f, 1 - 2 * par[b & mask])) != 0:
                return False
    if k >= 1:
        mask = (1 << k) - 1
        if int(np.dot(f, 1 - 2 * par[b & mask])) == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# dense spin operators
# ---------------------------------------------------------------------------

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_on(n: int, ops: dict[int, str]) -> np.ndarray:
    """Tensor product with the given single-qubit Paulis, identity elsewhere."""
    out = np.array([[1.0 + 0j]])
    for a in range(n):
        out = np.kron(out, _PAULI[ops.get(a, "I")])
    return out


def total_spin_squared(n: int) -> np.ndarray:
    """Dense J^2 = Jx^2 + Jy^2 + Jz^2 with J = sum of sigma/2."""
    dim = 1 << n
    j2 = np.zeros((dim, dim), dtype=complex)
    for axis in "XYZ":
        j = np.zeros((dim, dim), dtype=complex)
        for a in range(n):
            j += 0.5 * pauli_on(n, {a: axis})
        j2 += j @ j
    return j2


def su2_projector(n: int, jj: int) -> np.ndarray:
    """Projector onto the total-spin-``jj/2`` sector via Lagrange interpolation.

    The eigenvalues j(j+1) of J^2 are distinct across sectors, so the product
    of normalized factors (J^2 - c') / (c - c') isolates one sector.
    """
    if n > 10:
        raise ValueError("dense projectors are limited to n <= 10")
    if (n - jj) % 2 or not 0 <= jj <= n:
        raise ValueError(f"2j={jj} invalid for n={n}")
    j2 = total_spin_squared(n)
    dim = 1 << n
    target = (jj / 2) * (jj / 2 + 1)
    proj = np.eye(dim, dtype=complex)
    for other in range(n % 2, n + 1, 2):
        if other == jj:
            continue
        c = (other / 2) * (other / 2 + 1)
        proj = proj @ (j2 - c * np.eye(dim)) / (target - c)
    return proj


def su2_projector_checks(n: int) -> bool:
    """Idempotency, pairwise orthogonality, traces, and completeness."""
    jjs = list(range(n % 2, n + 1, 2))
    projs = {jj: su2_projector(n, jj) for jj in jjs}
    dim = 1 << n
    total = np.zeros((dim, dim), dtype=complex)
    for jj, pr in projs.items():
        if not np.allclose(pr @ pr, pr, atol=ATOL_PRODUCT):
            return False
        expected_trace = (jj + 1) * su2_multiplicity(n, jj)
        if abs(pr.trace().real - expected_trace) > ATOL_PRODUCT:
            return False
        total += pr
    for ja, jb in combinations(jjs, 2):
        if not np.allclose(projs[ja] @ projs[jb], 0, atol=ATOL_PRODUCT):
            return False
    return np.allclose(total, np.eye(dim), atol=ATOL_OPERATOR)


def su2_c2_check(n: int) -> bool:
    """Dense exchange-interaction sum vs 2 J^2 - (3/2) n and its eigenvalues."""
    if n > 10:
        raise ValueError("dense checks are limited to n <= 10")
    dim = 1 << n
    c2 = np.zeros((dim, dim), dtype=complex)
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            for axis in "XYZ":
                c2 += 0.5 * pauli_on(n, {a: axis, b: axis})
    if n == 1:
        return np.allclose(c2, 0, atol=ATOL_OPERATOR)
    ref = 2 * total_spin_squared(n) - 1.5 * n * np.eye(dim)
    if not np.allclose(c2, ref, atol=ATOL_OPERATOR):
        return False
    for jj in range(n % 2, n + 1, 2):
        pr = su2_projector(n, jj)
        expected = su2_c_eigenvalue(n, 2, jj)
        if not np.allclose(c2 @ pr, expected * pr, atol=ATOL_PRODUCT):
            return False
    return True


# ---------------------------------------------------------------------------
# the 2-qubit parity-symmetry witness
# ---------------------------------------------------------------------------


def _haar_su2(rng: np.random.Generator) -> np.ndarray:
    """Haar-random SU(2) matrix (QR of a Ginibre sample, det normalized)."""
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    det = np.linalg.det(q)
    return q / np.sqrt(det)


def z2_witness_check() -> bool:
    """Two-qubit parity symmetry: a rank-one operator separating the gate group.

    The even-parity sector is spanned by |00>, |11> and the odd one by
    |01>, |10>.  The operator |s0><s1| built from the two-copy singlets of
    those sectors commutes with W (x) W for every block unitary
    W = v0 (+) v1 with v0, v1 special unitary, but picks up the phase
    exp(4 i theta) under V = exp(i theta Z (x) Z), which is symmetric yet not
    generated by the special blocks.  The invariance is checked on 500 Haar
    samples drawn with seed 0, the phase on 100 angles.
    """
    rng = np.random.default_rng(0)
    # two-copy index (a, b) -> 4*a + b over the 2-qubit basis 00,01,10,11
    s0 = np.zeros(16, dtype=complex)
    s0[4 * 0 + 3] = 1 / np.sqrt(2)
    s0[4 * 3 + 0] = -1 / np.sqrt(2)
    s1 = np.zeros(16, dtype=complex)
    s1[4 * 1 + 2] = 1 / np.sqrt(2)
    s1[4 * 2 + 1] = -1 / np.sqrt(2)
    witness = np.outer(s0, s1.conj())

    for _ in range(500):
        v0 = _haar_su2(rng)
        v1 = _haar_su2(rng)
        w = np.zeros((4, 4), dtype=complex)
        w[np.ix_([0, 3], [0, 3])] = v0
        w[np.ix_([1, 2], [1, 2])] = v1
        ww = np.kron(w, w)
        if not np.allclose(ww @ witness @ ww.conj().T, witness, atol=1e-9):
            return False

    zz = np.array([1, -1, -1, 1])
    for theta in np.linspace(0.0, 2 * np.pi, 100, endpoint=False):
        v = np.diag(np.exp(1j * theta * zz))
        vv = np.kron(v, v)
        conjugated = vv @ witness @ vv.conj().T
        if not np.allclose(conjugated, np.exp(4j * theta) * witness, atol=ATOL_OPERATOR):
            return False
    return True
