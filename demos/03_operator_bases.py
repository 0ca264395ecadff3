"""Three bases for the center of the symmetric Hamiltonians on qubits.

For U(1) symmetry the center is spanned by the weight projectors.  Three
other bases are each useful for a different reason:

  c_l -- sums of weight-l Pauli-Z strings: mutually orthogonal, and every
         k-local operator pairs to zero with c_l once l exceeds k;
  a_k -- supported on the k+1 lowest weights, orthogonal to everything
         (k-1)-local;
  f_k -- supported on the k+1 lowest-MULTIPLICITY weights (both ends of the
         spectrum), orthogonal to everything (k-1)-local.  Their halved
         one-norms give the exact design orders.

Run:  python demos/03_operator_bases.py
"""

from math import comb

from symdesign import (
    su2_a_norm,
    su2_c_eigenvalue,
    su2_multiplicity,
    tr_a_c,
    tr_f_c,
    u1_a_norm,
    u1_a_operator,
    u1_c_eigenvalue,
    u1_f_norm,
    u1_f_operator,
)

n = 10

###############################################################################
# Eigenvalue profiles.  The first locality operator is the total Z; the
# edge-supported family vanishes on the whole middle of the weight range.

print(f"n = {n}")
print("c_1 eigenvalues :", [u1_c_eigenvalue(n, 1, w) for w in range(n + 1)])
print("f_4 eigenvalues :", list(u1_f_operator(n, 4).values))
print("a_4 eigenvalues :", list(u1_a_operator(n, 4).values))

###############################################################################
# Orthogonality of the locality basis, and the sharp pairing triangle:
# Tr(f_k c_l) = 0 strictly below l = k, never at l = k.

l, lp = 3, 5
inner = sum(
    u1_c_eigenvalue(n, l, w) * u1_c_eigenvalue(n, lp, w) * comb(n, w) for w in range(n + 1)
)
print(f"\n<c_{l}, c_{lp}> = {inner} (distinct localities are orthogonal)")
inner = sum(u1_c_eigenvalue(n, l, w) ** 2 * comb(n, w) for w in range(n + 1))
print(f"<c_{l}, c_{l}> = {inner} = 2^n C(n,l) = {2**n * comb(n, l)}")

print("\npairings Tr(f_k c_l) for k = 4:")
print("  ", [tr_f_c(n, 4, l) for l in range(n + 1)])
print("pairings Tr(a_k c_l) for k = 4:")
print("  ", [tr_a_c(n, 4, l) for l in range(n + 1)])

###############################################################################
# Norms.  Note the half-integer upper binomial indices for odd n-k; the
# results are integers for every parity, which the implementation checks.

print("\none-norms of f_k and a_k:")
for k in range(0, n + 1, 2):
    print(f"  k = {k:>2}:  |f_k| = {u1_f_norm(n, k):>6}   |a_k| = {u1_a_norm(n, k):>6}")

###############################################################################
# The SU(2) analogue: exchange-interaction operators c_l (even l) and the
# high-spin-supported family a_k.  The design order for k-local gates is
# |a_{2(floor(k/2)+1)}| / 2 - 1.

m = 13
print(f"\nSU(2), n = {m}")
print("multiplicities by 2j:", [su2_multiplicity(m, jj) for jj in range(m % 2, m + 1, 2)])
print("c_2 eigenvalues by 2j:", [su2_c_eigenvalue(m, 2, jj) for jj in range(m % 2, m + 1, 2)])
for k in (4, 6):
    print(f"  |a_{k}| = {su2_a_norm(m, k)}  ->  order with ({k-2},{k-1})-local gates ="
          f" {su2_a_norm(m, k) // 2 - 1}")
