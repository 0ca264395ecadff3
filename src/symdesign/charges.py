"""Integer charge matrices whose kernels encode the unreachable phase directions.

For ``k``-local gates on ``n`` sites, the reachable relative phases between
irrep sectors are constrained by one exact integer matrix per problem:

* U(1), SU(2), Z_p -- the overlap matrix between ``k``-site and ``n``-site
  irreps, one row per ``k``-site irrep, every column built whole from the one
  binomial row ``C(n - k, .)``;
* SU(d) -- the symmetric-group character matrix restricted to the conjugacy
  classes realizable by ``k``-local permutations, always with the identity class.
  The identity row is ``f^lambda``, read whole in one pass over the columns'
  partitions through the ``f^lambda`` memo of :mod:`symdesign.groups` (which
  computes a missing shape from its parts); a class of support 2..4 takes its entries
  from its central character, a polynomial in ``n`` and the content power sums
  of ``lambda`` (Ingram 1950; Corteel, Goupil and Schaeffer 2004, "Content
  evaluation and class symmetric functions"); a class of support >= 5 takes
  them from the Murnaghan--Nakayama border-strip recursion;
* custom problems -- user-supplied rational charge rows, each stored as an
  integer multiple, below the multiplicity row (the identity Hamiltonian)
  so that tracelessness is implied by the kernel condition.

An integer vector in the rational kernel of this matrix is exactly a
symmetric Hamiltonian orthogonal to everything the gates generate; the solver
minimizes its multiplicity-weighted one-norm.  Each builder's integer
witness, ``witness^T A = m``, proves every kernel vector traceless.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from itertools import repeat
from math import comb
from operator import add, attrgetter, eq, mul, sub

from .groups import (
    CUSTOM,
    GroupSpec,
    PartitionId,
    SectorTable,
    beta_set,
    binomial_row,
    canonical_order,
    check_multiplicities,
    custom_table,
    frobenius_dim,
    partitions_max_rows,
    sectors,
    sn_irrep_dims,
    zp_multiplicity,
)
from .values import Value


# ---------------------------------------------------------------------------
# conjugacy classes with bounded support
# ---------------------------------------------------------------------------


class CycleType(Value):
    """Conjugacy class given by its cycle lengths >= 2 (fixed points implicit)."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: tuple[int, ...]):
        # type(c) is int also rejects bool and integral floats such as 2.0
        if not all(type(c) is int for c in cycles):
            raise ValueError(f"cycle lengths must be ints, got {cycles!r}")
        if any(c < 2 for c in cycles):
            raise ValueError("cycle lengths must be >= 2; fixed points are implicit")
        if tuple(sorted(cycles, reverse=True)) != cycles:
            raise ValueError("cycles must be sorted in decreasing order")
        object.__setattr__(self, "cycles", cycles)

    @property
    def support(self) -> int:
        return sum(self.cycles)

    @property
    def name(self) -> str:
        """:attr:`label` up to 9 sites, the cycle lengths (``5+5``) beyond: short at any support."""
        return self.label if self.support <= 9 else "+".join(map(str, self.cycles))

    @property
    def label(self) -> str:
        if not self.cycles:
            return "(1)"
        out = []
        nxt = 1
        for c in self.cycles:
            out.append("(" + "".join(str(nxt + i) for i in range(c)) + ")")
            nxt += c
        return "".join(out)


IDENTITY_CLASS = CycleType(())


def conjugacy_classes(k: int) -> list[CycleType]:
    """All cycle types with support <= k, the classes of k-local permutations, identity first.

    They are the partitions of 0..k with no part 1, in increasing order.
    """
    if type(k) is not int:  # also rejects bool and integral floats such as 3.0
        raise ValueError(f"k must be an int, got {k!r}")
    shapes = (p for s in range(k + 1) for p in reversed([*partitions_max_rows(s, s)]))
    return [CycleType(p) for p in shapes if 1 not in p]


def gate_classes(k: int, classes: list[CycleType] | None = None) -> list[CycleType]:
    """The SU(d) row classes of ``k``-local gates: by default every class of support <= k.

    :data:`IDENTITY_CLASS` leads, and given ``classes`` follow in their order:
    a global phase never changes a design's moments, so every gate set
    realizes it, and ``2,3`` and ``2,id,3`` are the gate set ``id,2,3``.
    """
    if classes is None:
        return conjugacy_classes(k)
    for cls in classes:
        if cls.support > k:
            raise ValueError(f"class {cls.name} needs support {cls.support} > k = {k}")
    return [IDENTITY_CLASS, *(cls for cls in classes if cls != IDENTITY_CLASS)]


# 3-local classes plus the product of two disjoint transpositions
T_GROUP_CLASSES = (*conjugacy_classes(3), CycleType((2, 2)))


# ---------------------------------------------------------------------------
# symmetric-group characters: the border-strip recursion on beta-sets
# (memoized) for any class, content power sums for support 2..4
# ---------------------------------------------------------------------------


def sn_character(parts, sigma) -> int:
    """Character of the S_n irrep ``parts`` on the class ``sigma`` (padded to n).

    ``sigma`` may be a :class:`CycleType` or a bare tuple of cycle lengths
    >= 2; the missing points are fixed points.  Exact integer via the
    border-strip recursion on beta-sets, with the Frobenius formula resolving the fixed-point tail.
    """
    parts = PartitionId(tuple(parts)).parts  # validates the shape
    if not isinstance(sigma, CycleType):
        sigma = CycleType(tuple(sorted(sigma, reverse=True)))  # validates the lengths
    if sigma.support > sum(parts):
        raise ValueError("cycle support exceeds the number of points")
    return _char_rec(beta_set(parts), sigma.cycles)


@lru_cache(maxsize=None)
def _char_rec(beta: tuple[int, ...], cycles: tuple[int, ...]) -> int:
    if not cycles:
        return frobenius_dim(beta)
    c, rest = cycles[0], cycles[1:]
    r = len(beta)
    # removing a border strip of length c moves one hook length b down to a
    # free e = b - c; the strip's height counts the hook lengths between them
    total = 0
    for idx, b in enumerate(beta):
        e = b - c
        if e < 0:
            break
        h = idx + 1
        while h < r and beta[h] > e:
            h += 1
        if h < r and beta[h] == e:
            continue
        if e:
            value = _char_rec(beta[:idx] + beta[idx + 1 : h] + (e,) + beta[h:], rest)
        else:
            # emptied rows: the hook lengths 0, 1, ..., j - 1 at the bottom belong to
            # empty rows, so drop them and lower the others by j to keep beta canonical
            kept = beta[:idx] + beta[idx + 1 :]
            j = 1
            while j <= len(kept) and kept[-j] == j:
                j += 1
            value = _char_rec(tuple(x - j for x in kept[: len(kept) - j + 1]), rest)
        total += -value if (h - idx) % 2 == 0 else value
    return total


# The central character omega_mu(lambda) = |C_mu| chi^lambda(mu) / f^lambda of
# each class of support 2..4, as a polynomial in n and the content power sums
# (p_1, p_2, p_3) of lambda (Ingram 1950; Corteel, Goupil and Schaeffer 2004),
# paired with the class size |C_mu|.  The (2,2) pair is doubled on both sides,
# (p_1^2 - 3 p_2 + n(n - 1)) / 2 over 3 C(n, 4), so that it needs no division
# of its own.
_CENTRAL_CHARACTERS = {
    (2,): (lambda n, p1, p2, p3: p1, lambda n: comb(n, 2)),
    (3,): (lambda n, p1, p2, p3: p2 - comb(n, 2), lambda n: 2 * comb(n, 3)),
    (2, 2): (lambda n, p1, p2, p3: p1 * p1 - 3 * p2 + n * (n - 1), lambda n: 6 * comb(n, 4)),
    (4,): (lambda n, p1, p2, p3: p3 - (2 * n - 3) * p1, lambda n: 6 * comb(n, 4)),
}


def _content_power_sums(parts: tuple[int, ...]) -> tuple[int, int, int]:
    """``p_e``, the sum of ``(j - i)^e`` over the boxes ``(i, j)`` of ``parts``, for e = 1, 2, 3.

    Row ``i`` holds the contents ``-i .. parts[i] - 1 - i``, so its sum
    telescopes as ``P_e(parts[i] - 1 - i) - P_e(-1 - i)`` through the Faulhaber
    polynomials ``2 P_1 = x(x + 1)``, ``6 P_2 = x(x + 1)(2x + 1)`` and
    ``4 P_3 = x^2 (x + 1)^2``, which telescope for negative ``x`` too.
    """
    s1 = s2 = s3 = 0
    for i, a in enumerate(parts):
        hi, lo = a - 1 - i, -1 - i
        t_hi, t_lo = hi * (hi + 1), lo * (lo + 1)
        s1 += t_hi - t_lo
        s2 += t_hi * (2 * hi + 1) - t_lo * (2 * lo + 1)
        s3 += t_hi * t_hi - t_lo * t_lo
    (p1, r1), (p2, r2), (p3, r3) = divmod(s1, 2), divmod(s2, 6), divmod(s3, 4)
    if r1 or r2 or r3:
        raise ArithmeticError(f"content power sums of {parts} are not integers")
    return p1, p2, p3


# ---------------------------------------------------------------------------
# charge matrices
# ---------------------------------------------------------------------------


class ChargeMatrix:
    """Exact matrix with one row per gate charge vector and one column per sector.

    Entries come from one exact function ``entry(i, j)``, except those of
    ``first_row``, row 0 built whole when given (the SU(d) identity row).  A
    column is computed the first time it is read and kept, so the
    multiplicity-ordered scan pays only for the prefix it reads (U(1), SU(2)
    and Z_p matrices come with every column built).  ``A[i]`` computes row
    ``i`` without building columns, and :attr:`rows` builds every column.
    :func:`charge_matrix` and :func:`custom_matrix` construct it and supply
    ``witness``, one integer weight per row chosen with the rows so
    that ``witness^T A = m``: the proof that ``m`` lies in the row span,
    which :func:`multiplicity_in_row_span` checks by one product.  ``k`` is
    the gate locality, or None for a custom problem.
    """

    def __init__(self, row_labels, col_ids, entry, group, k, witness, first_row=None):
        self.row_labels = tuple(row_labels)
        self.col_ids = tuple(col_ids)
        self.group: GroupSpec = group
        self.k: int | None = k
        self.witness = tuple(witness)
        self._entry = entry
        self._first_row: tuple | None = first_row
        self._columns: dict[int, tuple] = {}

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_labels), len(self.col_ids))

    def column(self, j: int) -> tuple:
        col = self._columns.get(j)
        if col is None:
            rows, first = len(self.row_labels), self._first_row
            if first is None:
                col = tuple(map(self._entry, range(rows), repeat(j, rows)))
            else:
                col = (first[j], *map(self._entry, range(1, rows), repeat(j, rows - 1)))
            self._columns[j] = col
        return col

    def __getitem__(self, i: int) -> tuple:
        if i == 0 and self._first_row is not None:
            return self._first_row
        cols = len(self.col_ids)
        return tuple(map(self._entry, repeat(i, cols), range(cols)))

    @property
    def rows(self) -> tuple[tuple, ...]:
        return tuple(zip(*map(self.column, range(len(self.col_ids)))))

    def aligned_to(self, table: SectorTable) -> "ChargeMatrix":
        """The same matrix with its columns in ``table``'s sector order."""
        # no caller in the package, as load_custom_problem returns canonical
        # columns; kept while the benchmark workloads still call it
        if set(self.col_ids) != set(table.ids):
            raise ValueError("sector sets differ; cannot align")
        pos = {irrep: j for j, irrep in enumerate(self.col_ids)}
        perm = [pos[irrep] for irrep in table.ids]
        entry = self._entry
        return ChargeMatrix(
            self.row_labels,
            table.ids,
            lambda i, j: entry(i, perm[j]),
            self.group,
            self.k,
            self.witness,
        )


def charge_matrix(
    table: SectorTable, k: int, classes: list[CycleType] | None = None
) -> ChargeMatrix:
    """Charge matrix of ``k``-local symmetric gates over ``table``'s columns, in its order.

    ``table`` lists the sectors of a built-in group on ``n`` sites, in any
    order.  SU(d) rows are the S_n characters on ``gate_classes(k, classes)``,
    so row 0, the identity class, is ``f^lambda`` and the witness is
    ``(1, 0, ..., 0)``.  That row is read whole, in one pass over the columns'
    partitions through the ``f^lambda`` memo of :func:`~symdesign.groups.sn_irrep_dims`
    (a shape the memo lacks is computed there from its parts, never taken
    from ``table.multiplicities``).  A class of support 2..4 reads ``f^lambda`` and the
    column's content power sums, computed once per column;
    a class of larger support goes through the border-strip recursion.
    Restricting ``classes`` models gate sets generating only part of the
    ``k``-local permutations (for example dropping the 4-cycle row realizes
    3-local gates amended by a product of two disjoint transpositions); it is
    an error for any other group.
    """
    group, n = table.group, table.n
    if classes is not None and group.kind != "SUd":
        raise ValueError("character matrices describe SU(d) problems")
    if type(k) is not int:  # also rejects bool and integral floats such as 2.0
        raise ValueError(f"k must be an int, got {k!r}")
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    ids = table.ids
    if group.kind == "SUd":
        labels = tuple(gate_classes(k, classes))
        # the entries skip sn_character's checks (support <= k <= n and sectors of
        # n boxes, made here) and read f^lambda from the identity row
        parts = [*map(attrgetter("parts"), ids)]
        if {*map(sum, parts)} - {n}:
            raise ValueError(f"SU(d) sectors on n={n} sites must be partitions of n")
        f_row = tuple(sn_irrep_dims(parts))
        cycles = [cls.cycles for cls in labels]
        central = [_CENTRAL_CHARACTERS.get(cyc) for cyc in cycles]
        sizes = [pair[1](n) if pair else None for pair in central]
        # row 0, the identity class, is m itself, so it alone carries weight 1
        witness = [1] + [0] * (len(labels) - 1)

        # a column reads its entries in turn, so one slot holds its sums
        @lru_cache(maxsize=1)
        def column_sums(j):
            return (f_row[j], *_content_power_sums(parts[j]))

        def entry(i, j):
            cyc = cycles[i]
            if not cyc:
                return f_row[j]
            pair = central[i]
            if pair is None:
                return _char_rec(beta_set(parts[j]), cyc)
            f, p1, p2, p3 = column_sums(j)
            chi, rem = divmod(f * pair[0](n, p1, p2, p3), sizes[i])
            if rem:
                raise ArithmeticError(f"character of {parts[j]} on {cyc} is not an integer")
            return chi

        return ChargeMatrix(labels, ids, entry, group, k, witness, f_row)
    if group.kind not in ("U1", "SU2", "Zp"):
        raise ValueError("use custom_matrix for user-supplied problems")
    # U(1), SU(2) and Z_p rows are the k-site sectors: each entry counts the
    # ways the other n - k sites complete the row's k-site irrep to the
    # column's n-site irrep, read off the one row C(n - k, .).  Every n-site
    # sector decomposes over the k-site irreps, so the witness weights each
    # row by its k-site multiplicity: m = sum_v m_k(v) A[v].
    gate = sectors(group, k)
    labels, rows, nk = gate.ids, len(gate), n - k
    binomials = binomial_row(nk)
    padded = [0] * (k + 2) + binomials + [0] * (k + 2)  # C(n - k, b) at b + k + 2
    if group.kind == "U1":
        ws = [*map(attrgetter("w"), ids)]
        if min(ws, default=0) < 0 or max(ws, default=0) > n:
            raise ValueError(f"U(1) sectors on n={n} sites have weights 0..{n}")
        # row v of column w is C(n - k, w - v), for v = 0..k
        columns = [tuple(padded[w + k + 2 : w + 1 : -1]) for w in ws]
    elif group.kind == "SU2":
        # row 2j' = k % 2 + 2t of column 2j is C(n - k, lo - t) - C(n - k, lo + k % 2 + 1 + t)
        # with lo = (n - k + 2j - k % 2) / 2, exact as 2j has the parity of n
        columns = []
        for irrep in ids:
            if not 0 <= irrep.jj <= n or (n - irrep.jj) % 2:
                raise ValueError(f"2j={irrep.jj} labels no spin sector of n={n} qubits")
            lo = (nk + irrep.jj - k % 2) // 2 + k + 2
            hi = lo + k % 2 + 1
            columns.append(tuple(map(sub, padded[lo : lo - rows : -1], padded[hi : hi + rows])))
    else:
        # row alpha of column beta is the residue sum of C(n - k, .) at beta - alpha mod p
        p = group.p
        sums = [zp_multiplicity(binomials, p, beta) for beta in range(p)]
        columns = [tuple(sums[(irrep.beta - a) % p] for a in range(rows)) for irrep in ids]
    A = ChargeMatrix(labels, ids, lambda i, j: columns[j][i], group, k, gate.multiplicities)
    A._columns = dict(enumerate(columns))  # built whole: the witness reads every column
    return A


def multiplicity_in_row_span(m, A: ChargeMatrix) -> bool:
    """Exact proof that the multiplicity vector ``m`` lies in the rational row span of ``A``.

    The proof is ``witness^T A == m`` for the builder's ``A.witness``,
    computed in O(rows * cols).  A matrix whose weights are all nonzero
    (U(1), SU(2), Z_p) is read by columns, which it holds built, one column
    product each; otherwise each row of nonzero weight (row 0, the identity
    row of SU(d) and custom matrices) is read once and added whole.  The
    SU(d) identity row comes built: ``charge_matrix`` read it in one pass
    over the columns' partitions through the ``f^lambda`` memo, so this
    check makes no ``entry`` call.  False means the witness does not
    reproduce ``m``, whether or not ``m`` is in the span.
    """
    witness = A.witness
    if all(witness):
        products = (sum(map(mul, witness, A.column(j))) for j in range(len(m)))
    else:
        products = [0] * len(m)
        for i, y in enumerate(witness):
            if y:
                products = list(map(add, products, map(mul, repeat(y), A[i])))
    return len(m) == len(A.col_ids) and all(map(eq, products, m))


def custom_matrix(table: SectorTable, rows, row_labels: list[str] | None = None) -> ChargeMatrix:
    """Charge matrix from user-supplied rational rows over ``table``'s columns, in its order.

    Every multiplicity in ``m = table.multiplicities`` must be a positive
    ``int``, and each row lists one rational per column (not a ``bool``).
    Each row is stored scaled by the lcm of its denominators, which changes
    neither the kernel nor the row span.  The multiplicity vector (the charge
    row of the identity Hamiltonian) is always prepended as row
    ``"identity"``: global phases never change the design order, and this
    makes every kernel vector traceless.  If the rows already span ``m`` it changes neither the row
    space nor the kernel.  The witness ``(1, 0, ..., 0)`` proves the solver's
    row-span check from that row alone.  The group is :data:`CUSTOM` whatever
    ``table``'s group.
    """
    from .intlinalg import as_int_row  # an SU(d) or Abelian matrix never needs it

    m = table.multiplicities
    check_multiplicities(m)
    rows = list(map(as_int_row, rows))
    for row in rows:
        if len(row) != len(m):
            raise ValueError("row length must equal the multiplicity vector length")
    labels: list = list(row_labels) if row_labels is not None else [
        f"H{i}" for i in range(len(rows))
    ]
    if len(labels) != len(rows):
        raise ValueError(f"{len(labels)} row labels for {len(rows)} rows")
    witness = [1] + [0] * len(rows)
    rows, labels = [m, *rows], ["identity", *labels]
    return ChargeMatrix(labels, table.ids, lambda i, j: rows[i][j], CUSTOM, None, witness)


# ---------------------------------------------------------------------------
# custom problems on disk
# ---------------------------------------------------------------------------


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(x):
    """A JSON int, returned as it is, or a ``"p"`` / ``"p/q"`` string of decimal digits, read exactly.

    A string comes back as a ``Fraction``.  Keeping ints as ``int`` lets an
    all-integer row skip the ``Fraction`` path of
    :func:`~symdesign.intlinalg.as_int_row`, and such a document never loads
    :mod:`fractions`.
    """
    # type(x) is int also rejects bool, whose True would pass for 1
    if type(x) is int:
        return x
    if isinstance(x, str) and _RATIONAL.fullmatch(x):
        from fractions import Fraction

        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"rational {x!r} has a zero denominator") from None
    raise ValueError(f"rationals must be integers or 'p/q' strings, got {x!r}")


def load_custom_problem(text: str) -> tuple[SectorTable, ChargeMatrix]:
    """Parse a custom document: ``{"m": [...], "rows": [[...]], "labels": [...]}``, no other key.

    The table comes back in canonical multiplicity order, with the matrix
    built over its columns, ready for the solver.  Sector ``s{i}`` keeps the
    document's index ``i``, so labels and certificates read in file terms.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict) or "m" not in doc:
        raise ValueError('the problem document must be an object with an "m" key')
    if unknown := sorted(doc.keys() - {"m", "rows", "labels"}):
        raise ValueError(f'unknown keys {unknown}; a problem has only "m", "rows" and "labels"')
    m, rows, labels = doc["m"], doc.get("rows", []), doc.get("labels")
    if not isinstance(m, list):
        raise ValueError('"m" must be a list of positive integers')
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError('"rows" must be a list of lists of rationals')
    if labels is not None and (
        not isinstance(labels, list) or not all(isinstance(x, str) for x in labels)
    ):
        raise ValueError('"labels" must be a list of strings')
    table = canonical_order(custom_table(m))  # validates positive integers
    order = [irrep.index for irrep in table.ids]
    rows = [[parse_rational(x) for x in row] for row in rows]
    if any(len(row) != len(order) for row in rows):
        raise ValueError("row length must equal the multiplicity vector length")
    rows = [[row[i] for i in order] for row in rows]
    matrix = custom_matrix(table, rows, labels)
    return table, matrix
