"""Exact cross-checks: rebuild the operators over the full basis and compare.

The closed forms are checked against operators rebuilt over all 2^n
bitstrings, in integers: diagonal operators through one Walsh-Hadamard
transform, the spin sectors through Lagrange interpolation in the exchange
sum, and the two-qubit parity witness through the generators of the block
unitaries it must commute with.

Run:  python demos/04_oracle_verification.py
"""

from operator import mul

from symdesign import tr_f_c, u1_c_eigenvalue
from symdesign.checks import (
    su2_casimir_check,
    su2_projector_check,
    su2_projector_traces,
    u1_c_diagonal,
    u1_f_diagonal,
    u1_orthogonality_check,
    z2_witness_check,
)
from symdesign.groups import su2_multiplicity

###############################################################################
# The sum of single-qubit Z operators on 3 qubits, entry by entry: weights
# 0..3 give eigenvalues 3, 1, -1, -3.

print("diagonal of the total-Z operator on 3 qubits:")
print(" ", u1_c_diagonal(3, 1))
print("  closed form per weight:", [u1_c_eigenvalue(3, 1, w) for w in range(4)])

###############################################################################
# Pairings summed over all 2^10 bitstrings match the exact closed form.

n = 10
k, l = 4, 6
direct = sum(map(mul, u1_f_diagonal(n, k), u1_c_diagonal(n, l)))
print(f"\nTr(f_{k} c_{l}) over all bitstrings at n = {n}: {direct}"
      f" vs closed form {tr_f_c(n, k, l)}")

###############################################################################
# The edge-supported operator ignores every interaction on fewer than k
# qubits but detects k-body terms; checked against every Z-string.

print("\northogonality scans (True = orthogonal below k, detecting at k):")
for nn, kk in [(8, 4), (10, 5), (12, 6)]:
    print(f"  n = {nn:>2}, k = {kk}: {u1_orthogonality_check(u1_f_diagonal(nn, kk), kk)}")

###############################################################################
# Spin sector projectors: the exchange sum equals 2 J^2 - (3/2) n and takes
# only the closed-form eigenvalues, so its Lagrange projectors are
# idempotent, orthogonal and resolve the identity; their traces count the
# states of each spin.

print("\nspin projector families:")
for nn in (4, 6, 8):
    print(f"  n = {nn}: projector checks {su2_projector_check(nn)},"
          f" exchange-sum identity {su2_casimir_check(nn)}")

print(f"  top-spin projector at n = 4: trace {su2_projector_traces(4)[4]}"
      f" (expected {5 * su2_multiplicity(4, 4)})")

###############################################################################
# The two-qubit parity witness: invariant under special block unitaries,
# picks up exp(4 i theta) under the symmetric phase gate that the blocks
# cannot generate.  This is the smallest instance of the general fact that a
# finite design order always comes with an explicit commutant witness.

print("\ntwo-qubit parity witness (six block generators, phase 4):", z2_witness_check())
