"""Dense cross-checks: rebuild the operators explicitly and compare.

The solver path is exact, so these floating-point reconstructions serve as an
independent desk check rather than part of any computation: diagonal
operators are rebuilt entry by entry over all 2^n bitstrings, spin projectors
by Lagrange interpolation in the dense total-spin operator, and the two-qubit
parity witness by sampling Haar-random block unitaries.

Run:  python demos/04_dense_verification.py
"""

import numpy as np

from symdesign import tr_f_c, u1_c_eigenvalue
from symdesign.dense import (
    dense_tr_f_c,
    su2_c2_check,
    su2_projector,
    su2_projector_checks,
    u1_dense_c,
    u1_orthogonality_check,
    z2_witness_check,
)
from symdesign.groups import su2_multiplicity

###############################################################################
# The sum of single-qubit Z operators on 3 qubits, entry by entry: weights
# 0..3 give eigenvalues 3, 1, -1, -3.

print("dense diagonal of the total-Z operator on 3 qubits:")
print(" ", u1_dense_c(3, 1).tolist())
print("  closed form per weight:", [u1_c_eigenvalue(3, 1, w) for w in range(4)])

###############################################################################
# Pairings summed over all 2^10 bitstrings match the exact closed form.

n = 10
k, l = 4, 6
print(f"\ndense Tr(f_{k} c_{l}) at n = {n}: {dense_tr_f_c(n, k, l)}"
      f" vs closed form {tr_f_c(n, k, l)}")

###############################################################################
# The edge-supported operator ignores every interaction on fewer than k
# qubits but detects k-body terms; checked against all Z-strings densely.

print("\northogonality scans (True = orthogonal below k, detecting at k):")
for nn, kk in [(8, 4), (10, 5), (12, 6)]:
    print(f"  n = {nn:>2}, k = {kk}: {u1_orthogonality_check(nn, kk)}")

###############################################################################
# Spin sector projectors: idempotent, orthogonal, correct traces, and they
# resolve the identity.  The two-qubit exchange sum equals 2 J^2 - (3/2) n.

print("\nspin projector families:")
for nn in (4, 6, 8):
    print(f"  n = {nn}: projector checks {su2_projector_checks(nn)},"
          f" exchange-sum identity {su2_c2_check(nn)}")

pr = su2_projector(4, 4)
print(f"  top-spin projector at n = 4: trace {pr.trace().real:.6f}"
      f" (expected {5 * su2_multiplicity(4, 4)})")

###############################################################################
# The two-qubit parity witness: invariant under special block unitaries,
# picks up exp(4 i theta) under the symmetric phase gate that the blocks
# cannot generate.  This is the smallest instance of the general fact that a
# finite design order always comes with an explicit commutant witness.

print("\ntwo-qubit parity witness (500 Haar samples, seed 0):", z2_witness_check())
