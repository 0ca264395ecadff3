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
  hook-content formula (O(rows) whatever ``d`` is).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, starmap
from math import comb, factorial, perm, prod
from operator import add, attrgetter, itemgetter, le, lt, mul, sub
from typing import Iterator, Union

from .values import Value


# ---------------------------------------------------------------------------
# group descriptions
# ---------------------------------------------------------------------------

_KINDS = ("U1", "SU2", "Zp", "SUd", "Custom")


class GroupSpec(Value):
    """Tagged description of a symmetry group and its on-site representation."""

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

    def _fields(self):
        return (self.kind, self.p, self.d)

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


class HammingWeight(Value):
    __slots__ = ("w",)

    def __init__(self, w: int):
        object.__setattr__(self, "w", w)

    def _fields(self):
        return (self.w,)

    @property
    def label(self) -> str:
        return f"w={self.w}"


class TwiceSpin(Value):
    __slots__ = ("jj",)

    def __init__(self, jj: int):  # 2j, kept integral for both parities of n
        object.__setattr__(self, "jj", jj)

    def _fields(self):
        return (self.jj,)

    @property
    def label(self) -> str:
        return f"2j={self.jj}"


class Residue(Value):
    __slots__ = ("beta",)

    def __init__(self, beta: int):
        object.__setattr__(self, "beta", beta)

    def _fields(self):
        return (self.beta,)

    @property
    def label(self) -> str:
        return f"b={self.beta}"


class PartitionId(Value):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        if not parts or min(parts) <= 0:
            raise ValueError("partition parts must be positive")
        if any(map(lt, parts, parts[1:])):
            raise ValueError("partition parts must be weakly decreasing")
        object.__setattr__(self, "parts", parts)

    def _fields(self):
        return (self.parts,)

    @property
    def label(self) -> str:
        return "[" + ",".join(str(a) for a in self.parts) + "]"


class CustomSector(Value):
    __slots__ = ("index",)

    def __init__(self, index: int):
        object.__setattr__(self, "index", index)

    def _fields(self):
        return (self.index,)

    @property
    def label(self) -> str:
        return f"s{self.index}"


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

    def _fields(self):
        return (self.group, self.n, self.ids, self.multiplicities, self.dims)

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


def frobenius_dim(beta: tuple[int, ...]) -> int:
    """``f^lambda`` by the Frobenius formula ``n! prod_{i<j} (beta_i - beta_j) / prod beta_i!``."""
    n = sum(beta) - comb(len(beta), 2)
    vandermonde = prod(starmap(sub, combinations(beta, 2)))
    dim, rem = divmod(factorial(n) * vandermonde, prod(map(factorial, beta)))
    if rem:
        raise ArithmeticError(f"Frobenius formula for beta = {beta} is not an integer")
    return dim


@lru_cache(maxsize=None)
def sn_irrep_dim(parts: tuple[int, ...]) -> int:
    """Dimension ``f^lambda`` of the symmetric-group irrep of shape ``parts``."""
    return frobenius_dim(beta_set(parts))


def sud_irrep_dim(parts: tuple[int, ...], d: int) -> int:
    """Dimension of the SU(d) irrep with highest weight ``parts``, by the hook-content formula.

    ``f^lambda / n!`` times ``(d - i + parts[i] - 1)! / (d - i - 1)!`` per row ``i``: O(rows) for
    any ``d``.  A partition with more than ``d`` rows labels no SU(d) irrep: dimension 0.
    """
    if len(parts) > d:
        return 0
    num = sn_irrep_dim(parts)
    for i, a in enumerate(parts):
        num *= perm(d - i + a - 1, a)  # (d - i + a - 1)! / (d - i - 1)!
    dim, rem = divmod(num, factorial(sum(parts)))
    if rem:
        raise ArithmeticError(f"hook-content dimension of {parts} for SU({d}) is not an integer")
    return dim


# ---------------------------------------------------------------------------
# sector enumeration
# ---------------------------------------------------------------------------


def su2_multiplicity(n: int, jj: int) -> int:
    """Multiplicity of the total-spin-``jj/2`` sector of ``n`` qubits."""
    if jj < 0 or jj > n or (n - jj) % 2:
        raise ValueError(f"2j={jj} invalid for n={n}")
    i = (n - jj) // 2
    return comb(n, i) - (comb(n, i - 1) if i >= 1 else 0)


def zp_multiplicity(n: int, p: int, beta: int) -> int:
    """Number of ``n``-bit strings whose Hamming weight is ``beta`` mod ``p``."""
    return sum(comb(n, beta + p * l) for l in range((n - beta) // p + 1)) if beta <= n else 0


def sectors(group: GroupSpec, n: int) -> SectorTable:
    """Enumerate all irrep sectors of the on-site representation on ``n`` sites.

    Sectors are returned in the group's natural label order (ascending weight,
    ascending ``2j``, ascending residue, descending-lex partitions); see
    :func:`canonical_order` for the multiplicity-sorted order the solver uses.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if group.kind == "U1":
        ids = tuple(map(HammingWeight, range(n + 1)))
        mults = tuple(comb(n, w) for w in range(n + 1))
        dims = (1,) * len(ids)
    elif group.kind == "SU2":
        jjs = range(n % 2, n + 1, 2)
        ids = tuple(map(TwiceSpin, jjs))
        mults = tuple(su2_multiplicity(n, jj) for jj in jjs)
        dims = tuple(jj + 1 for jj in jjs)
    elif group.kind == "Zp":
        betas = range(min(group.p, n + 1))  # residues beyond n do not appear for n < p - 1
        ids = tuple(map(Residue, betas))
        mults = tuple(zp_multiplicity(n, group.p, beta) for beta in betas)
        dims = (1,) * len(ids)
    elif group.kind == "SUd":
        shapes = tuple(partitions_max_rows(n, group.d))
        ids = tuple(map(PartitionId, shapes))
        mults = tuple(map(sn_irrep_dim, shapes))
        dims = tuple(sud_irrep_dim(parts, group.d) for parts in shapes)
    else:
        raise ValueError("custom groups carry their own sector tables")
    if sum(map(mul, mults, dims)) != group.local_dim**n:
        raise ArithmeticError(f"{group} sectors on n={n} sites do not exhaust the Hilbert space")
    return SectorTable(group, n, ids, mults, dims)


# ties among equal multiplicities: ascending label, except descending 2j for
# SU(2).  U(1) ties are the mirror pairs (w, n-w), so the low weight comes
# first.  Every label is unique within its table, so the order is total.
_LABEL_KEYS = {
    "U1": attrgetter("w"),
    "SU2": lambda irrep: -irrep.jj,
    "Zp": attrgetter("beta"),
    "SUd": attrgetter("parts"),
    "Custom": attrgetter("index"),
}


def canonical_order(table: SectorTable) -> SectorTable:
    """Sort sectors by weakly increasing multiplicity with deterministic ties."""
    label = _LABEL_KEYS[table.group.kind]
    # whole (id, multiplicity, dim) rows are sorted, so each dim moves with
    # its sector; two stable sorts: by label, then by multiplicity
    order = sorted(zip(table.ids, table.multiplicities, table.dims), key=lambda row: label(row[0]))
    order.sort(key=itemgetter(1))
    return SectorTable(table.group, table.n, *zip(*order))


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
    ids = tuple(map(CustomSector, range(len(multiplicities))))
    return SectorTable(CUSTOM, len(ids), ids, tuple(multiplicities), (1,) * len(ids))
