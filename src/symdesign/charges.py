"""Integer charge matrices whose kernels encode the unreachable phase directions.

For ``k``-local gates on ``n`` sites, the reachable relative phases between
irrep sectors are constrained by one exact integer matrix per problem:

* U(1), SU(2), Z_p -- the overlap matrix between ``k``-site and ``n``-site
  irreps (binomial expressions, one row per ``k``-site irrep);
* SU(d) -- the symmetric-group character matrix restricted to the conjugacy
  classes realizable by ``k``-local permutations;
* custom problems -- user-supplied rational charge rows, each stored as an
  integer multiple, with the multiplicity row (the identity Hamiltonian)
  added when missing so that tracelessness is implied by the kernel condition.

An integer vector in the rational kernel of this matrix is exactly a
symmetric Hamiltonian orthogonal to everything the gates generate; the solver
minimizes its multiplicity-weighted one-norm.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import comb
from operator import eq, mul

from .groups import (
    CUSTOM,
    CustomSector,
    GroupSpec,
    PartitionId,
    SectorTable,
    beta_set,
    canonical_order,
    check_multiplicities,
    custom_table,
    frobenius_dim,
    sectors,
    sn_irrep_dim,
    zp_multiplicity,
)
from .intlinalg import Echelon, as_int_row
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

    def _fields(self):
        return (self.cycles,)

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
    """All cycle types with support <= k: the classes reachable by k-local permutations."""

    def rec(rest: int, max_len: int):
        yield ()
        for c in range(min(rest, max_len), 1, -1):
            for tail in rec(rest - c, c):
                yield (c,) + tail

    types = sorted(set(rec(k, k)), key=lambda t: (sum(t), t))
    return [CycleType(t) for t in types]


# 3-local classes plus the product of two disjoint transpositions
T_GROUP_CLASSES = (IDENTITY_CLASS, CycleType((2,)), CycleType((3,)), CycleType((2, 2)))


# ---------------------------------------------------------------------------
# symmetric-group characters (border-strip recursion on beta-sets, memoized)
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


# ---------------------------------------------------------------------------
# charge matrices
# ---------------------------------------------------------------------------


class ChargeMatrix:
    """Exact matrix with one row per gate charge vector and one column per sector.

    Entries come from one exact function ``entry(i, j)``.  A column is
    computed the first time it is read and kept, so the multiplicity-ordered
    scan pays only for the prefix it reads; ``A[i]`` computes row ``i``
    without building columns, and :attr:`rows` (or iteration) builds every
    column.  :func:`charge_matrix` and :func:`custom_matrix` construct it and
    supply ``witness``, one exact weight per row chosen with the rows so
    that ``witness^T A = m`` when they can tell.  It is only a candidate:
    :func:`multiplicity_in_row_span` checks it and otherwise eliminates, so
    all-zero weights leave the decision to the echelon.  ``k`` is the gate
    locality, or None for a custom problem.
    """

    def __init__(self, row_labels, col_ids, entry, group, k, witness):
        self.row_labels = tuple(row_labels)
        self.col_ids = tuple(col_ids)
        self.group: GroupSpec = group
        self.k: int | None = k
        self.witness = tuple(witness)
        self._entry = entry
        self._columns: dict[int, tuple] = {}

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_labels), len(self.col_ids))

    def column(self, j: int) -> tuple:
        col = self._columns.get(j)
        if col is None:
            rows = len(self.row_labels)
            col = self._columns[j] = tuple(map(self._entry, range(rows), repeat(j, rows)))
        return col

    def __getitem__(self, i: int) -> tuple:
        cols = len(self.col_ids)
        return tuple(map(self._entry, repeat(i, cols), range(cols)))

    @property
    def rows(self) -> tuple[tuple, ...]:
        return tuple(zip(*map(self.column, range(len(self.col_ids)))))

    def __iter__(self):
        return iter(self.rows)

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
    order.  SU(d) rows are the S_n characters on ``classes``, by default every
    cycle type with support <= k.  Restricting ``classes`` models gate sets
    generating only part of the ``k``-local permutations (for example dropping
    the 4-cycle row realizes 3-local gates amended by a product of two
    disjoint transpositions); it is an error for any other group.
    """
    group, n = table.group, table.n
    if classes is not None and group.kind != "SUd":
        raise ValueError("character matrices describe SU(d) problems")
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    # U(1), SU(2) and Z_p rows are the k-site sectors: each entry counts the
    # ways the other n - k sites complete the row's k-site irrep to the
    # column's n-site irrep.  Every n-site sector decomposes over the k-site
    # irreps, so the witness weights each row by its k-site multiplicity:
    # m = sum_v m_k(v) A[v].  sectors lists weights and residues from 0, so a
    # U(1) or Z_p row's index is its label.  The identity class row of a
    # character matrix is m itself.
    nk = n - k
    ids = table.ids
    if group.kind in ("U1", "SU2", "Zp"):
        gate = sectors(group, k)
        labels, witness = gate.ids, gate.multiplicities
    if group.kind == "U1":
        ws = [irrep.w for irrep in ids]

        def entry(v, j):
            b = ws[j] - v
            return comb(nk, b) if b >= 0 else 0

    elif group.kind == "SU2":
        jjps = [irrep.jj for irrep in labels]
        jjs = [irrep.jj for irrep in ids]

        def entry(i, j):
            jj, jjp = jjs[j], jjps[i]
            if (nk + jj + jjp) % 2:
                return 0
            lo = (nk + jj - jjp) // 2
            return (comb(nk, lo) if lo >= 0 else 0) - comb(nk, lo + jjp + 1)

    elif group.kind == "Zp":
        p = group.p
        betas = [irrep.beta for irrep in ids]

        def entry(alpha, j):
            return zp_multiplicity(nk, p, (betas[j] - alpha) % p)

    elif group.kind == "SUd":
        labels = tuple(conjugacy_classes(k) if classes is None else classes)
        # the entries skip sn_character's checks (support <= k <= n and sectors of
        # n boxes, made here) and read the identity row from the cached f^lambda
        for cls in labels:
            if cls.support > k:
                raise ValueError(f"class {cls.name} needs support {cls.support} > k = {k}")
        parts = [irrep.parts for irrep in ids]
        if any(sum(shape) != n for shape in parts):
            raise ValueError(f"SU(d) sectors on n={n} sites must be partitions of n")
        cycles = [cls.cycles for cls in labels]
        witness = [int(cls == IDENTITY_CLASS) for cls in labels]

        def entry(i, j):
            cyc = cycles[i]
            return _char_rec(beta_set(parts[j]), cyc) if cyc else sn_irrep_dim(parts[j])

    else:
        raise ValueError("use custom_matrix for user-supplied problems")
    return ChargeMatrix(labels, ids, entry, group, k, witness)


def multiplicity_in_row_span(m, rows, witness=None) -> bool:
    """Exact test that the multiplicity vector ``m`` lies in the rational row span.

    ``rows`` is a list of rows or a :class:`ChargeMatrix`.  When the
    ``witness`` weights satisfy ``witness^T rows == m`` that product,
    computed in O(rows * cols) from the rows of nonzero weight only, is the
    proof.  Otherwise one exact echelon over all the rows decides.  A matrix
    whose weights are all nonzero (U(1), SU(2), Z_p) is read by columns, so
    the solver's scan reuses them instead of computing every entry again.
    """
    if witness is not None:
        if isinstance(rows, ChargeMatrix) and all(witness):
            cols = map(rows.column, range(len(m)))
            products = (sum(map(mul, witness, col)) for col in cols)
        else:
            weighted = [(y, rows[i]) for i, y in enumerate(witness) if y]
            products = (sum(y * row[j] for y, row in weighted) for j in range(len(m)))
        if all(map(eq, products, m)):
            return True
    return _span_weights(as_int_row(m), list(map(as_int_row, rows))) is not None


def _span_weights(m: list[int], rows: list[list[int]]):
    """Exact weights ``y`` with ``sum_i y_i rows[i] == m``, or None if ``m`` is outside the span.

    If ``m`` reduces to zero against the rows, the echelon's new relation
    ``sum_i r_i rows[i] + r_last m = 0`` has ``r_last != 0`` (only ``m``'s own
    transform entry starts nonzero there), so ``y = -r / r_last``.
    """
    ech = Echelon()
    for row in rows:
        ech.add(row)
    if ech.add(m):
        return None
    *r, last = ech.relations[-1]
    weights = (Fraction(-x, last) for x in r)
    return [y.numerator if y.denominator == 1 else y for y in weights]


def custom_matrix(
    m,
    rows,
    row_labels: list[str] | None = None,
    col_ids: tuple | None = None,
) -> ChargeMatrix:
    """Charge matrix from user-supplied rational rows and positive ``int`` multiplicities.

    Each row is stored scaled by the lcm of its denominators, which changes
    neither the kernel nor the row span.  Prepends the multiplicity vector
    (the charge row of the identity Hamiltonian) unless it is already in the
    rational row span; global phases never change the design order, and this
    makes every kernel vector automatically traceless.  The witness is 1 on
    a prepended identity row and 0 elsewhere; rows that already span ``m``
    get the exact rational weights that this elimination found, so the
    solver's row-span check is one product.
    """
    m = list(m)
    check_multiplicities(m)
    rows = list(map(as_int_row, rows))
    for row in rows:
        if len(row) != len(m):
            raise ValueError("row length must equal the multiplicity vector length")
    labels: list = list(row_labels) if row_labels is not None else [
        f"H{i}" for i in range(len(rows))
    ]
    if len(labels) != len(rows):
        raise ValueError("row_labels length must match rows")
    witness = _span_weights(m, rows)
    if witness is None:
        witness = [1] + [0] * len(rows)
        rows = [m] + rows
        labels = ["identity"] + labels
    if col_ids is None:
        col_ids = tuple(CustomSector(i) for i in range(len(m)))
    elif len(col_ids) != len(m):
        raise ValueError("col_ids length must equal the multiplicity vector length")
    return ChargeMatrix(labels, col_ids, lambda i, j: rows[i][j], CUSTOM, None, witness)


# ---------------------------------------------------------------------------
# custom problems on disk
# ---------------------------------------------------------------------------


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(x) -> int | Fraction:
    """A JSON int, returned as it is, or a ``"p"`` / ``"p/q"`` string of decimal digits, read exactly.

    Keeping ints as ``int`` lets an all-integer row skip the ``Fraction``
    path of :func:`~symdesign.intlinalg.as_int_row`.
    """
    # type(x) is int also rejects bool, whose True would pass for 1
    if type(x) is int:
        return x
    if isinstance(x, str) and _RATIONAL.fullmatch(x):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"rational {x!r} has a zero denominator") from None
    raise ValueError(f"rationals must be integers or 'p/q' strings, got {x!r}")


def load_custom_problem(text: str) -> tuple[SectorTable, ChargeMatrix]:
    """Parse a custom problem document: ``{"m": [...], "rows": [[...]], "labels": [...]}``.

    The table comes back in canonical multiplicity order, with the matrix
    built over its columns, ready for the solver.  Sector ``s{i}`` keeps the
    document's index ``i``, so labels and certificates read in file terms.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict) or "m" not in doc:
        raise ValueError('the problem document must be an object with an "m" key')
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
    matrix = custom_matrix(table.multiplicities, rows, row_labels=labels, col_ids=table.ids)
    return table, matrix
