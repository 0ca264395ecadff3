"""Irrep sectors of the on-site symmetries and their canonical ordering.

For each built-in symmetry the total Hilbert space of ``n`` sites splits into
isotypic sectors, one per inequivalent irrep appearing in the on-site
representation.  Each sector carries an exact integer multiplicity ``m`` and
irrep dimension ``d`` with ``sum(m * d) == (local dim) ** n``.  The canonical
ordering sorts sectors by weakly increasing multiplicity, with a fixed
deterministic tie-break per group so that solver certificates are reproducible.

Built-in symmetries:

* ``U1``   -- qubits, sectors labeled by Hamming weight ``w``.
* ``SU2``  -- qubits, sectors labeled by total spin (stored as ``2j``).
* ``Zp``   -- qubits, sectors labeled by a residue mod ``p``.
* ``SUd``  -- qudits (``d >= 3``), sectors labeled by partitions of ``n`` with
  at most ``d`` rows; multiplicities ``f^lambda`` come from the Frobenius
  formula on the first-column hook lengths, irrep dimensions from the
  hook-content formula over one rising-factorial row per diagram row.

An SU(d) table is built in column passes: its shapes are transposed once
into zero-padded part rows (as many as the longest shape has parts), and
the partition check, ``f^lambda`` and the dimensions each run one pass per
row or pair of rows rather than one step per shape.  ``f^lambda`` is kept in
one per-shape memo, filled a whole table at a time on a miss; every
division ends in a remainder check that raises ``ArithmeticError``.

The exact constants a built-in solve reads again and again (canonical
tables, gate tables, binomial rows and SU(d) class tuples) share one bounded,
least-recently-used memo, :func:`memoized`, counted in kept entries.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from itertools import accumulate, chain, count, repeat, zip_longest
from math import comb, factorial
from operator import add, attrgetter, itemgetter, le, lt, mul, sub
from typing import Iterator, Union

from .values import Value


# ---------------------------------------------------------------------------
# group descriptions
# ---------------------------------------------------------------------------

_KINDS = ("U1", "SU2", "Zp", "SUd", "Custom")


class _HashSlot:
    """A slot for a hash computed once; outside :class:`Value`, so it is no record field."""

    __slots__ = ("_hash",)


class GroupSpec(Value, _HashSlot):
    """Tagged description of a symmetry group and its on-site representation.

    Memo keys hold one, so its field hash is computed once, at construction.
    """

    __slots__ = ("kind", "p", "d")

    def __init__(self, kind: str, p: int | None = None, d: int | None = None):
        if kind not in _KINDS:
            raise ValueError(f"unknown group kind {kind!r}")
        # type(x) is int also rejects bool and integral floats such as 3.0
        for name, x in (("p", p), ("d", d)):
            if x is not None and type(x) is not int:
                raise ValueError(f"{name} must be an int, got {x!r}")
        if kind == "Zp":
            if p is None or p < 2:
                raise ValueError("Zp requires p >= 2")
        elif p is not None:
            raise ValueError("p is only meaningful for Zp")
        if kind == "SUd":
            if d is None or d < 3:
                raise ValueError("SUd requires local dimension d >= 3")
        elif d is not None:
            raise ValueError("d is only meaningful for SUd")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "_hash", hash((kind, p, d)))

    def __hash__(self):
        return self._hash

    @property
    def local_dim(self) -> int:
        if self.kind == "SUd":
            return self.d
        if self.kind == "Custom":
            raise ValueError("custom groups have no built-in local dimension")
        return 2

    def __str__(self):
        if self.kind == "Zp":
            return f"zp(p={self.p})"
        if self.kind == "SUd":
            return f"sud(d={self.d})"
        return self.kind.lower()


U1 = GroupSpec("U1")
SU2 = GroupSpec("SU2")
CUSTOM = GroupSpec("Custom")


def zp(p: int) -> GroupSpec:
    return GroupSpec("Zp", p=p)


def sud(d: int) -> GroupSpec:
    return GroupSpec("SUd", d=d)


# ---------------------------------------------------------------------------
# irrep labels
# ---------------------------------------------------------------------------


def _natural(name: str, x) -> int:
    """``x`` if it is an exact ``int >= 0`` (not a bool, 3.0 or list), else ``ValueError``."""
    if type(x) is not int or x < 0:
        raise ValueError(f"{name} must be an int >= 0, got {x!r}")
    return x


class HammingWeight(Value):
    __slots__ = ("w",)

    def __init__(self, w: int):
        object.__setattr__(self, "w", _natural("w", w))

    @property
    def label(self) -> str:
        return f"w={self.w}"


class TwiceSpin(Value):
    __slots__ = ("jj",)

    def __init__(self, jj: int):  # 2j, kept integral for both parities of n
        object.__setattr__(self, "jj", _natural("jj", jj))

    @property
    def label(self) -> str:
        return f"2j={self.jj}"


class Residue(Value):
    __slots__ = ("beta",)

    def __init__(self, beta: int):
        object.__setattr__(self, "beta", _natural("beta", beta))

    @property
    def label(self) -> str:
        return f"b={self.beta}"


def part_rows(shapes) -> list[tuple[int, ...]]:
    """The shapes transposed: row ``i`` holds part ``i`` of every shape, 0 past a shape's end.

    There are as many rows as the longest shape has parts, and at least one,
    so a table of empty shapes is one row of zeros.
    """
    return [*zip_longest(*shapes, fillvalue=0)] or [(0,) * len(shapes)]


def check_partitions(shapes, n: int | None = None) -> list[tuple[int, ...]]:
    """Raise ``ValueError`` unless every shape has exact-``int``, weakly decreasing, positive parts.

    With ``n`` given, every shape must also have ``n`` boxes.  Each test is
    one pass over the whole list of shapes, or over its :func:`part_rows`,
    so a table is checked at once; the part rows are returned.
    """
    rows = part_rows(shapes)
    parts = [*chain.from_iterable(shapes)]
    # exactly int also rejects bool and 2.0
    if {*map(type, parts)} - {int}:
        bad = next(x for x in parts if type(x) is not int)
        raise ValueError(f"partition parts must be ints, got {bad!r}")
    # each part row against the next; a 0 past a shape's end is below every positive part
    if any(map(any, map(map, repeat(lt), rows, rows[1:]))):
        raise ValueError("partition parts must be weakly decreasing")
    if not all(shapes) or min(parts, default=1) <= 0:
        raise ValueError("partition parts must be positive")
    if n is not None and {*map(sum, shapes)} - {n}:
        raise ValueError(f"partitions must have n={n} boxes")
    return rows


class PartitionId(Value):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        if type(parts) is not tuple:  # a list would make an unhashable record
            raise ValueError(f"partition parts must be a tuple, got {parts!r}")
        check_partitions((parts,))
        object.__setattr__(self, "parts", parts)

    @property
    def label(self) -> str:
        return "[" + ",".join(str(a) for a in self.parts) + "]"


class CustomSector(Value):
    __slots__ = ("index",)

    def __init__(self, index: int):
        object.__setattr__(self, "index", _natural("index", index))

    @property
    def label(self) -> str:
        return f"s{self.index}"


def checked_ids(cls, values) -> tuple:
    """Ids of the one-field id class ``cls`` for checked ``values``, without a check per record.

    The values must be what the constructor accepts: exact ints ``>= 0``, or
    for :class:`PartitionId` shapes that :func:`check_partitions` has passed.
    """
    ids = tuple(map(object.__new__, repeat(cls, len(values))))
    # Value refuses assignment, so each field is set through its slot's descriptor
    deque(map(getattr(cls, cls.__slots__[0]).__set__, ids, values), maxlen=0)
    return ids


IrrepId = Union[HammingWeight, TwiceSpin, Residue, PartitionId, CustomSector]


class SectorTable(Value):
    """Irrep sectors as three aligned columns: ids, exact multiplicities, irrep dimensions."""

    __slots__ = ("group", "n", "ids", "multiplicities", "dims")

    def __init__(
        self,
        group: GroupSpec,
        n: int,
        ids: tuple[IrrepId, ...],
        multiplicities: tuple[int, ...],
        dims: tuple[int, ...],
    ):
        if not len(ids) == len(multiplicities) == len(dims):
            raise ValueError("ids, multiplicities and dims must have the same length")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "multiplicities", multiplicities)
        object.__setattr__(self, "dims", dims)

    def __len__(self):
        return len(self.ids)

    def is_canonical(self) -> bool:
        m = self.multiplicities
        return all(map(le, m, m[1:]))


# ---------------------------------------------------------------------------
# partitions, first-column hook lengths and the S_n / SU(d) dimensions
# ---------------------------------------------------------------------------


def partitions_max_rows(n: int, d: int) -> Iterator[tuple[int, ...]]:
    """Partitions of ``n`` with at most ``d`` parts, descending lexicographic."""
    if n == 0:
        yield ()
        return
    if n < 0 or d < 1:
        return
    a = [n]
    while True:
        yield tuple(a)
        # the successor lowers the rightmost part a[i] that can drop by one
        # while its tail a[i+1:] plus one box still fits below it in the rows
        # left, then refills that tail greedily (the lex-largest way)
        rest = 1
        i = len(a) - 1
        while i >= 0:
            x = a[i] - 1
            if x and -(-rest // x) < d - i:
                break
            rest += a[i]
            i -= 1
        if i < 0:
            return
        q, r = divmod(rest, x)
        del a[i:]
        a += [x] * (q + 1)
        if r:
            a.append(r)


def beta_set(parts) -> tuple[int, ...]:
    """First-column hook lengths ``parts[i] + r - 1 - i`` of the ``r`` rows, strictly decreasing."""
    return tuple(map(add, parts, range(len(parts) - 1, -1, -1)))


def rising_row(x: int, length: int) -> list[int]:
    """The rising factorials ``[1, x, x (x + 1), ...]``, ``length`` of them."""
    return list(accumulate(range(x, x + length - 1), mul, initial=1))


def _divide_exactly(numer, denom, rows, what: str) -> list[int]:
    """``numer // denom`` per shape of the part rows; a remainder raises ``ArithmeticError``."""
    quotients = [*map(divmod, numer, denom)]
    rems = [*map(itemgetter(1), quotients)]
    if any(rems):
        j = [*map(bool, rems)].index(True)
        shape = tuple(filter(None, map(itemgetter(j), rows)))
        raise ArithmeticError(f"{what} of {shape} is not an integer")
    return [*map(itemgetter(0), quotients)]


def frobenius_dims(rows) -> list[int]:
    """``f^lambda`` of every shape of the part rows, by the Frobenius formula in column passes.

    Row ``i`` of ``r`` rows gives the first-column hook lengths
    ``beta_i = parts[i] + r - 1 - i``; the zeros past a shape's end are empty
    rows, which leave the formula unchanged.  Each pass runs over one row
    or one pair of rows, and one checked ``divmod`` per shape ends it.
    """
    r = len(rows)
    betas = [[*map(add, row, repeat(r - 1 - i))] for i, row in enumerate(rows)]
    ns = rows[0]  # each shape's boxes, summed down its column
    for row in rows[1:]:
        ns = [*map(add, ns, row)]
    if min(chain(ns, *betas)) < 0:  # a negative index would wrap around the factorial row
        raise ValueError("the Frobenius formula needs non-negative hook lengths and sizes")
    facts = rising_row(1, max(ns) + r)  # 0!, 1!, ... up to the largest hook length
    numer = [*map(facts.__getitem__, ns)]
    denom = [*map(facts.__getitem__, betas[0])]
    for i, beta in enumerate(betas):
        if i:
            denom = [*map(mul, denom, map(facts.__getitem__, beta))]
        for later in betas[i + 1 :]:
            numer = [*map(mul, numer, map(sub, beta, later))]
    return _divide_exactly(numer, denom, rows, "Frobenius formula")


# f^lambda per shape, filled a whole table at a time by frobenius_dims
_SN_DIMS: dict[tuple[int, ...], int] = {}


def sn_irrep_dims(shapes, rows=None) -> list[int]:
    """``f^lambda`` of every shape, read from the memo in one pass.

    On a miss, every shape's ``f^lambda`` is computed by :func:`frobenius_dims`
    over ``rows``, the shapes' :func:`part_rows` (built here when not given),
    and stored.
    """
    try:
        return [*map(_SN_DIMS.__getitem__, shapes)]
    except KeyError:
        pass
    dims = frobenius_dims(part_rows(shapes) if rows is None else rows)
    _SN_DIMS.update(zip(shapes, dims))
    return dims


def sn_irrep_dim(parts: tuple[int, ...]) -> int:
    """Dimension ``f^lambda`` of the symmetric-group irrep of shape ``parts``."""
    return sn_irrep_dims((parts,))[0]


def sud_irrep_dims(rows, f, n: int, d: int) -> tuple[int, ...]:
    """SU(d) dimensions of partitions of ``n``: ``f^lambda / n!`` times ``R_i[parts[i]]``.

    ``rows`` are the shapes' :func:`part_rows` and ``f`` their ``f^lambda``;
    each row is one pass, and one checked ``divmod`` per shape ends it.
    """
    dims = f
    for i, row in enumerate(rows):
        # R_i once per table; R_d = [1, 0, ...] zeroes a shape of more than d rows,
        # and R_i[0] = 1 leaves the zeros past a shape's end out of the product
        rising = rising_row(d - i, n // (i + 1) + 1)
        dims = [*map(mul, dims, map(rising.__getitem__, row))]
    return tuple(_divide_exactly(dims, repeat(factorial(n)), rows, f"SU({d}) dimension"))


# ---------------------------------------------------------------------------
# one bounded memo of exact constants
# ---------------------------------------------------------------------------

# Exact constants that depend only on their key, least recently used first:
# canonical sector tables ("table", group, n), the natural-order gate tables
# ("gate", group, k) that charges.charge_matrix reads, binomial rows ("row", m)
# and SU(d) class tuples ("classes", k).  Every value is immutable and counts
# as its len() in entries (the sectors of a table, the coefficients of a row,
# the classes of a tuple); the kept entries total at most MEMO_BUDGET, and an
# empty value or one larger than the budget is returned but never kept.  The
# budget is the next power of two above the largest locality sweep of the
# headline tables (SU(4) at n = 22..40, 6,549 sectors), so a sweep over k finds
# every table the previous k built.  A kept sector costs about 150 B for SU(d)
# and 90 B for U(1), SU(2) or Z_p, so a full memo holds about 1.3 MB.
MEMO_BUDGET = 8192
_MEMO: OrderedDict[tuple, tuple | SectorTable] = OrderedDict()
_held = 0


def memoized(key: tuple, build):
    """The value kept under ``key``, else ``build()``, kept while it fits the budget.

    A key holds exact ints only: ``True == 1`` and ``2.0 == 2`` would find the
    value of another input, so callers check their ints first.
    """
    global _held
    value = _MEMO.get(key)
    if value is not None:
        _MEMO.move_to_end(key)
        return value
    value = build()
    size = len(value)
    if 0 < size <= MEMO_BUDGET:
        while _held + size > MEMO_BUDGET:
            _held -= len(_MEMO.popitem(last=False)[1])
        _MEMO[key] = value
        _held += size
    return value


# ---------------------------------------------------------------------------
# sector enumeration
# ---------------------------------------------------------------------------


def binomial_row(m: int) -> tuple[int, ...]:
    """``C(m, 0..m)`` for an exact ``int m >= 0``, kept in the memo."""
    return memoized(("row", _natural("m", m)), lambda: _binomial_row(m))


def _binomial_row(m: int) -> tuple[int, ...]:
    """``C(m, 0..m)`` by ``C(m, b + 1) = C(m, b) (m - b) / (b + 1)``, each remainder checked."""
    half = [1]
    for b in range(m // 2):
        c, rem = divmod(half[-1] * (m - b), b + 1)
        if rem:
            raise ArithmeticError(f"C({m}, {b + 1}) is not an integer")
        half.append(c)
    return (*half, *half[m % 2 - 2 :: -1])  # the mirror image C(m, m - b) = C(m, b)


def su2_multiplicity(n: int, jj: int) -> int:
    """Multiplicity of the total-spin-``jj/2`` sector of ``n`` qubits."""
    if jj < 0 or jj > n or (n - jj) % 2:
        raise ValueError(f"2j={jj} invalid for n={n}")
    i = (n - jj) // 2
    return comb(n, i) - (comb(n, i - 1) if i >= 1 else 0)


def zp_multiplicity(row: tuple[int, ...], p: int, beta: int) -> int:
    """Number of ``m``-bit strings of Hamming weight ``beta`` mod ``p``, from ``row = C(m, .)``."""
    return sum(row[beta::p])


def sectors(group: GroupSpec, n: int) -> SectorTable:
    """Enumerate all irrep sectors of the on-site representation on ``n`` sites.

    Sectors are returned in the group's natural label order (ascending weight,
    ascending ``2j``, ascending residue, descending-lex partitions); see
    :func:`canonical_order` for the multiplicity-sorted order the solver uses.
    """
    if type(n) is not int:  # also rejects bool and integral floats such as 3.0
        raise ValueError(f"n must be an int, got {n!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    # every label below is a range of exact ints >= 0 or a checked shape, so the ids skip their check
    if group.kind == "U1":
        ids = checked_ids(HammingWeight, range(n + 1))
        mults = binomial_row(n)
        dims = (1,) * len(ids)
    elif group.kind == "SU2":
        jjs = range(n % 2, n + 1, 2)
        ids = checked_ids(TwiceSpin, jjs)
        # 2j = n - 2i has C(n, i) - C(n, i - 1), and i falls from n // 2 to 0 as 2j rises
        half = binomial_row(n)[n // 2 :: -1]
        mults = tuple(map(sub, half, [*half[1:], 0]))
        dims = tuple(jj + 1 for jj in jjs)
    elif group.kind == "Zp":
        betas = range(min(group.p, n + 1))  # residues beyond n do not appear for n < p - 1
        ids = checked_ids(Residue, betas)
        row = binomial_row(n)
        mults = tuple(zp_multiplicity(row, group.p, beta) for beta in betas)
        dims = (1,) * len(ids)
    elif group.kind == "SUd":
        shapes = tuple(partitions_max_rows(n, group.d))
        rows = check_partitions(shapes, n)  # once per table; the rows feed every pass
        ids = checked_ids(PartitionId, shapes)
        mults = tuple(sn_irrep_dims(shapes, rows))
        dims = sud_irrep_dims(rows, mults, n, group.d)
    else:
        raise ValueError("custom groups carry their own sector tables")
    if sum(map(mul, mults, dims)) != group.local_dim**n:
        raise ArithmeticError(f"{group} sectors on n={n} sites do not exhaust the Hilbert space")
    return SectorTable(group, n, ids, mults, dims)


# ties among equal multiplicities: ascending label, except descending 2j for
# SU(2).  U(1) ties are the mirror pairs (w, n-w), so the low weight comes
# first.  Every label of a built table is unique, so the order is total.
_LABEL_KEYS = {
    "U1": attrgetter("w"),
    "SU2": lambda irrep: -irrep.jj,
    "Zp": attrgetter("beta"),
    "SUd": attrgetter("parts"),
    "Custom": attrgetter("index"),
}


def canonical_order(table: SectorTable) -> SectorTable:
    """Sort sectors by weakly increasing multiplicity with deterministic ties.

    One sort of the rows ``(multiplicity, label key, input index, id, dim)``,
    transposed once: the index keeps equal keys in input order, so ids and
    dims are never compared and each dim moves with its sector.
    """
    ids, m = table.ids, table.multiplicities
    rows = sorted(zip(m, map(_LABEL_KEYS[table.group.kind], ids), count(), ids, table.dims))
    m, _, _, ids, dims = zip(*rows) if rows else ((),) * 5
    return SectorTable(table.group, table.n, ids, m, dims)


def canonical_table(group: GroupSpec, n: int) -> SectorTable:
    """``canonical_order(sectors(group, n))``, shared with earlier calls while the memo keeps it."""
    # True == 1 and 2.0 == 2 would find a kept table; sectors refuses them
    if type(n) is not int:
        return canonical_order(sectors(group, n))
    return memoized(("table", group, n), lambda: canonical_order(sectors(group, n)))


def semiuniversal_min_locality(group: GroupSpec) -> int:
    """Smallest gate locality for which the built-in gate sets are semi-universal."""
    if group.kind in ("U1", "SU2"):
        return 2
    if group.kind == "Zp":
        return group.p
    if group.kind == "SUd":
        return 3
    raise ValueError(
        "semi-universality of custom gate sets is unknown; "
        "pass assume_semiuniversal=True to the solver if it holds"
    )


def check_multiplicities(m) -> None:
    """Raise ``ValueError`` unless every entry of ``m`` is a positive ``int``."""
    # type(x) is int also rejects bool and integral floats such as 2.0
    if not all(type(x) is int and x > 0 for x in m):
        raise ValueError("multiplicities must be positive integers")


def custom_table(multiplicities: list[int]) -> SectorTable:
    """Sector table for a user-supplied problem (irrep dimensions default to 1)."""
    if not multiplicities:
        raise ValueError("the multiplicity vector must list at least one sector")
    check_multiplicities(multiplicities)
    ids = checked_ids(CustomSector, range(len(multiplicities)))
    return SectorTable(CUSTOM, len(ids), ids, tuple(multiplicities), (1,) * len(ids))
