"""From sectors to certificates: the exact pipeline, step by step.

Everything the solver does is exact integer/rational arithmetic:

  1. enumerate the irrep sectors of the on-site symmetry,
  2. order them by weakly increasing multiplicity,
  3. build the integer charge matrix of the k-local gates,
  4. compute the integer kernel lattice of growing sector prefixes,
  5. minimize the multiplicity-weighted one-norm over that lattice.

Run:  python demos/02_charge_matrices.py
"""

from symdesign import (
    U1,
    canonical_order,
    charge_matrix,
    load_custom_problem,
    lower_bound,
    min_weighted_l1,
    sectors,
    tmax_exact,
    verify_certificate,
)
from symdesign.intlinalg import Echelon, lll_reduce

###############################################################################
# Step 1-2: sectors of 5 qubits with U(1) symmetry, then the canonical order.
# A sector table holds three aligned tuples: ids, multiplicities and irrep
# dimensions.  Multiplicities are binomials; the canonical order interleaves
# low and high Hamming weights: 0, n, 1, n-1, ...

n, k = 5, 2
table = sectors(U1, n)
print("natural order  :", [(i.label, m) for i, m in zip(table.ids, table.multiplicities)])
table = canonical_order(table)
print("canonical order:", [(i.label, m) for i, m in zip(table.ids, table.multiplicities)])

###############################################################################
# Step 3: the charge matrix.  Row v, column w holds the number of ways the
# remaining n-k qubits absorb the weight difference w - v; its rational row
# span is exactly the reachable charge directions.  It is built over the
# canonically ordered table's columns.

matrix = charge_matrix(table, k)
print("\ncharge matrix (rows = k-site irreps, columns = canonical sectors)")
print("        " + "  ".join(f"{i.label:>4}" for i in matrix.col_ids))
for label, row in zip(matrix.row_labels, matrix.rows):
    print(f"  {label.label:>4}  " + "  ".join(f"{x:>4}" for x in row))

###############################################################################
# Step 4: the integer kernel lattice of the full matrix, from the same
# incremental echelon the solver's prefix scan uses: each column either raises
# the rank or adds one relation, and the relations are a basis of the integer
# kernel.  Then the rank-scan lower bound: the first prefix whose columns go
# dependent caps how small a certificate's support can be.

echelon = Echelon()
for j in range(matrix.shape[1]):
    echelon.add(matrix.column(j))
print("\nkernel lattice basis (full matrix):")
for b in echelon.kernel_basis():
    print("  ", b)
lb = lower_bound(matrix, table)
print(f"lower bound: t_max >= {lb.bound} (prefix of {lb.ell - 1} sectors stays full rank)")

###############################################################################
# Step 5: minimize the weighted one-norm.  The solver restricts support to
# multiplicity-ordered prefixes and stops once no vector outside the prefix
# can beat the incumbent, so the answer is self-certifying.

result = tmax_exact(matrix, table)
cert = result.certificate
print(f"\nt_max = {result.tmax}, proven exact: {result.proven_exact}")
print("certificate:", {i.label: q for i, q in zip(table.ids, cert.q) if q})
print("re-verified :", verify_certificate(cert, matrix, table))

###############################################################################
# The same minimization, called directly on a lattice: the weighted
# shortest-vector search is usable stand-alone, on the LLL-reduced lattice of
# any basis under the weights.

cert = min_weighted_l1(lll_reduce([[1, 0, -1, 2], [0, 1, -2, 3]], [1, 3, 3, 1]))
print("\nstand-alone weighted SVP:", cert.q, "norm", cert.weighted_norm)

###############################################################################
# Custom problems come from JSON: a multiplicity vector plus rational charge
# rows, loaded with the sectors already in canonical order.  The identity row
# is always added first, so kernel vectors are always traceless.  Two sectors of multiplicity 4 with no constraints beyond the
# identity reproduce the parity-symmetry answer 3.

doc = '{"m": [4, 4], "rows": []}'
custom_table, custom = load_custom_problem(doc)
result = tmax_exact(custom, custom_table, assume_semiuniversal=True)
print(f"\ncustom problem {doc}  ->  t_max = {result.tmax}")
