"""Closed-form diagonal operators and design-order formulas for qubit symmetries.

Three families of operators span the center of the symmetric Hamiltonians on
``n`` qubits and are used throughout:

* ``c`` -- sums of weight-``l`` Pauli-Z strings (U(1)), resp. sums of products
  of two-qubit exchange interactions (SU(2)); sharply local, integer
  eigenvalues, mutually orthogonal.
* ``a`` -- supported only on the lowest charges; orthogonal to every
  ``(k-1)``-local operator.
* ``f`` -- (U(1) only) supported on the lowest-multiplicity charges at both
  ends of the weight range; orthogonal to every ``(k-1)``-local operator.
  Halved one-norms of these give the exact design orders.

Everything is exact: integers and ``Fraction``s only, with final integrality
checked where a half-integer binomial appears in an intermediate step.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .groups import (
    GroupSpec,
    SectorTable,
    HammingWeight,
    sectors,
    su2_multiplicity,
    semiuniversal_min_locality,
)
from .infinity import INFINITE
from .values import Value


# ---------------------------------------------------------------------------
# binomial helpers
# ---------------------------------------------------------------------------


def binom_int(a: int, k: int) -> int:
    """Binomial coefficient with integer (possibly negative) upper index."""
    if k < 0:
        return 0
    if a >= 0:
        return comb(a, k) if k <= a else 0
    # falling factorial of a negative integer, rewritten with positive indices
    return (-1) ** k * comb(-a + k - 1, k)


def binom_frac(alpha, k: int) -> Fraction:
    """Generalized binomial: falling factorial of ``alpha`` over ``k!``."""
    if k < 0:
        return Fraction(0)
    alpha = Fraction(alpha)
    num = Fraction(1)
    for i in range(k):
        num *= alpha - i
    return num / factorial(k)


def _as_int(x: Fraction, what: str) -> int:
    if isinstance(x, int):
        return x
    if x.denominator != 1:
        raise ArithmeticError(f"{what} is not an integer: {x}")
    return x.numerator


def double_factorial(n: int) -> int:
    """n!! with the convention (-1)!! = 0!! = 1."""
    if n <= 0:
        return 1
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


# ---------------------------------------------------------------------------
# diagonal operators on sector tables
# ---------------------------------------------------------------------------


class DiagOperator(Value):
    """Operator diagonal over sectors: one exact eigenvalue per sector.

    ``qvec`` holds the integer charge vector ``q`` with eigenvalue
    ``q * m / Tr(projector)`` on each sector; for sectors with irrep dimension
    one the eigenvalues and ``q`` coincide.
    """

    __slots__ = ("table", "values", "qvec")

    def __init__(self, table: SectorTable, values: tuple, qvec: tuple[int, ...]):
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "qvec", qvec)

    def _fields(self):
        return (self.table, self.values, self.qvec)

    def reflected(self, sign: int = 1) -> "DiagOperator":
        """Weight reflection w -> n - w (conjugation by X on every qubit)."""
        ids = self.table.ids
        if not all(isinstance(irrep, HammingWeight) for irrep in ids):
            raise ValueError("reflection is defined for Hamming-weight tables")
        n = self.table.n
        pos = {irrep.w: i for i, irrep in enumerate(ids)}
        mirror = [pos[n - irrep.w] for irrep in ids]
        vals = tuple(sign * self.values[i] for i in mirror)
        qs = tuple(sign * self.qvec[i] for i in mirror)
        return DiagOperator(self.table, vals, qs)


# ---------------------------------------------------------------------------
# U(1): qubits graded by Hamming weight
# ---------------------------------------------------------------------------


def u1_c_eigenvalue(n: int, l: int, w: int) -> int:
    """Eigenvalue of the sum of all weight-``l`` Z-strings on the weight-``w`` sector."""
    if not (0 <= l <= n and 0 <= w <= n):
        raise ValueError("need 0 <= l, w <= n")
    return sum((-1) ** r * comb(n - w, l - r) * comb(w, r) for r in range(0, min(w, l) + 1))


def u1_f_values(n: int, k: int) -> tuple[int, ...]:
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return tuple((-1) ** w * binom_int(n - (k + 1) // 2 - w, n - k) for w in range(n + 1))


def u1_f_operator(n: int, k: int) -> DiagOperator:
    """Edge-supported basis operator: zero on weights ``k//2+1 .. n-(k+1)//2``."""
    table = sectors(GroupSpec("U1"), n)
    vals = u1_f_values(n, k)
    return DiagOperator(table, vals, vals)


def u1_a_operator(n: int, k: int) -> DiagOperator:
    """Low-weight basis operator: supported on weights ``0 .. k`` only."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    table = sectors(GroupSpec("U1"), n)
    vals = tuple((-1) ** w * comb(n - w, k - w) if w <= k else 0 for w in range(n + 1))
    return DiagOperator(table, vals, vals)


def u1_f_norm(n: int, k: int) -> int:
    """Trace norm of the edge-supported operator; integer for every parity."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if k % 2 == 0:
        return _as_int(2**k * binom_frac(Fraction(n, 2), k // 2), "edge-operator norm")
    return _as_int(2**k * binom_frac(Fraction(n - 1, 2), (k - 1) // 2), "edge-operator norm")


def u1_a_norm(n: int, k: int) -> int:
    return 2**k * comb(n, k)


def tr_f_c(n: int, k: int, l: int) -> int:
    """Pairing of the edge-supported and sharp-locality bases; zero for l < k."""
    if k % 2 == 0:
        return 2**k * comb(n, l) * binom_int(l // 2, k // 2)
    if l % 2 == 0:
        return 0
    return 2**k * comb(n, l) * binom_int((l - 1) // 2, (k - 1) // 2)


def tr_a_c(n: int, k: int, l: int) -> int:
    """Pairing of the low-weight and sharp-locality bases; zero for l < k."""
    return 2**k * comb(n, l) * (comb(l, k) if k <= l else 0)


# ---------------------------------------------------------------------------
# SU(2): qubits graded by total spin
# ---------------------------------------------------------------------------


def su2_c_eigenvalue(n: int, ll: int, jj: int) -> int:
    """Eigenvalue of the degree-``ll`` exchange-interaction operator on spin ``jj/2``.

    ``ll`` must be even; ``jj`` is twice the spin and must match the parity of
    ``n``.  The normalization carries the conventional integer prefactor
    ``(ll-1)!! * C(n, ll)``.
    """
    if ll % 2:
        raise ValueError("ll must be even")
    if (n - jj) % 2 or not 0 <= jj <= n:
        raise ValueError(f"2j={jj} invalid for n={n}")
    m = ll // 2
    i = (n - jj) // 2
    mi = su2_multiplicity(n, jj)
    acc = 0
    for r in range(0, m + 1):
        acc += (
            (-4) ** r
            * comb(m, r)
            * (binom_int(n - 2 * r, i - r) - binom_int(n - 2 * r, i - r - 1))
        )
    num = double_factorial(ll - 1) * comb(n, ll) * acc
    val, rem = divmod(num, mi)
    if rem:
        raise ArithmeticError("exchange-operator eigenvalue must be integral")
    return val


def su2_ctilde_eigenvalue(n: int, ll: int, jj: int) -> Fraction:
    """Unit-normalized variant of :func:`su2_c_eigenvalue` (rational).

    The integer-eigenvalue normalization carries the prefactor
    ``(ll-1)!! * C(n, ll)``; dividing it out gives the variant whose squared
    norm is :func:`tr_ctilde_sq` and whose pairings are :func:`tr_a_ctilde`.
    """
    return Fraction(
        su2_c_eigenvalue(n, ll, jj), double_factorial(ll - 1) * comb(n, ll)
    )


def su2_a_operator(n: int, k: int) -> DiagOperator:
    """High-spin-supported operator orthogonal to all ``(k-1)``-local operators."""
    if k % 2:
        raise ValueError("k must be even")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    table = sectors(GroupSpec("SU2"), n)
    qs = []
    vals = []
    for irrep in table.ids:
        i = (n - irrep.jj) // 2
        q = (-1) ** i * binom_int(n - k // 2 - i, n - k)
        qs.append(q)
        vals.append(Fraction(q, irrep.jj + 1))
    return DiagOperator(table, tuple(vals), tuple(qs))


def su2_a_norm(n: int, k: int) -> int:
    if k % 2:
        raise ValueError("k must be even")
    return _as_int(2**k * binom_frac(Fraction(n - 1, 2), k // 2), "high-spin operator norm")


def tr_a_ctilde(n: int, ss: int, mm: int) -> int:
    """Pairing with the unit-normalized exchange basis: 4**s * C(m, s)."""
    if ss % 2 or mm % 2:
        raise ValueError("indices must be even")
    s, m = ss // 2, mm // 2
    return 4**s * (comb(m, s) if s <= m else 0)


def tr_ctilde_sq(n: int, mm: int) -> Fraction:
    """Squared norm of the unit-normalized exchange-basis operator."""
    if mm % 2:
        raise ValueError("mm must be even")
    return Fraction((mm + 1) * 2**n, comb(n, mm))


# ---------------------------------------------------------------------------
# per-group design-order formulas
# ---------------------------------------------------------------------------


class ClosedFormTmax(Value):
    __slots__ = ("value", "valid_from_n", "formula_id")

    def __init__(self, value: object, valid_from_n: int, formula_id: str):  # value: int or INFINITE
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "valid_from_n", valid_from_n)
        object.__setattr__(self, "formula_id", formula_id)

    def _fields(self):
        return (self.value, self.valid_from_n, self.formula_id)


def u1_nbound(k: int) -> int:
    return 2 ** (k // 2) * ((k + 3) // 2)


def su2_nbound(k: int) -> int:
    if k in (2, 3):
        return 13
    return 2 ** (k // 2) * (k // 2 + 2)


def closed_tmax(group: GroupSpec, n: int, k: int, variant: str = "full") -> ClosedFormTmax:
    """Exact design-order formula for a built-in group, with its validity threshold.

    ``variant`` selects the SU(d) special rows: ``"full"`` for all ``k``-local
    gates, ``"sv"`` for ``k <= 2`` gate sets amended by the commutator
    subgroup, ``"tgroup"`` for 3-local gates plus the product of two disjoint
    transpositions (``d >= 4``).
    """
    if group.kind == "Custom":
        raise ValueError("closed forms exist for built-in groups only")
    if group.kind != "SUd" or variant == "full":
        threshold = semiuniversal_min_locality(group)
        if k < threshold:
            raise ValueError(f"below the semi-universality threshold k >= {threshold}")
    if group.kind == "U1":
        return ClosedFormTmax(u1_f_norm(n, k + 1) // 2 - 1, u1_nbound(k), f"u1:k={k}")
    if group.kind == "SU2":
        s = k // 2
        val = _as_int(2 ** (2 * s + 1) * binom_frac(Fraction(n - 1, 2), s + 1), "design order")
        return ClosedFormTmax(val - 1, su2_nbound(k), f"su2:k={k}")
    if group.kind == "Zp":
        if group.p % 2 == 1:
            return ClosedFormTmax(INFINITE, k + 1, f"zp:odd,p={group.p}")
        if k >= n:
            raise ValueError("the cyclic-group formula applies to k < n")
        return ClosedFormTmax(2 ** (n - 1) - 1, k + 1, f"zp:even,p={group.p}")
    d = group.d
    if variant == "sv":
        if k <= 1:
            return ClosedFormTmax((n - 1) - 1, max(5, d + 1), "sud:k<=1+sv")
        if k == 2:
            return ClosedFormTmax((n + 1) * (n - 2) // 2 - 1, max(15, d + 3), "sud:k=2+sv")
        raise ValueError("the sv variant covers k <= 2 only")
    if variant == "tgroup":
        if d < 4:
            raise ValueError("the tgroup variant requires d >= 4")
        val = (n - 3) * (2 * n * n - 3 * n + 4)
        if val % 6:
            raise ArithmeticError("the tgroup closed form must be divisible by 6")
        return ClosedFormTmax(val // 6 - 1, max(22, d + 4), "sud:tgroup")
    if variant != "full":
        raise ValueError(f"unknown variant {variant!r}")
    if k == 3:
        return ClosedFormTmax((n - 1) * (n - 3) - 1, max(15, d + 3), "sud:k=3")
    if k == 4:
        val = 2 * (n - 1) * (n - 3) * (n - 5)
        if val % 3:
            raise ArithmeticError("the k=4 closed form must be divisible by 3")
        return ClosedFormTmax(val // 3 - 1, max(22, d + 4), "sud:k=4")
    raise ValueError(f"no tabulated formula for SU(d) with k={k}")
