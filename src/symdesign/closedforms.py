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

Everything is exact: integers and ``Fraction``s only.  The norms and design
orders built on half-integer binomials ``2^a C(x/2, s)`` stay in integers
(:func:`half_binom_int`), with the one division's remainder checked.
"""

from __future__ import annotations

from math import comb, factorial, prod

from .groups import (
    GroupSpec,
    SectorTable,
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


def half_binom_int(x: int, s: int, a: int) -> int:
    """``2^a · x (x - 2) ... (x - 2s + 2) / s!``, that is ``2^(a+s) · C(x/2, s)``, in integers.

    Raises ``ArithmeticError`` when ``s!`` leaves a remainder.
    """
    out, rem = divmod(prod(range(x, x - 2 * s, -2)) << a, factorial(s))
    if rem:
        raise ArithmeticError(f"2^{a} * prod(x - 2i, i < {s}) / {s}! is not an integer at x={x}")
    return out


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
    # 2^k C(x/2, s) with x = n - k % 2 and s = k // 2
    return half_binom_int(n - k % 2, k // 2, k - k // 2)


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


def su2_a_operator(n: int, k: int) -> DiagOperator:
    """High-spin-supported operator orthogonal to all ``(k-1)``-local operators."""
    if k % 2:
        raise ValueError("k must be even")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    from fractions import Fraction  # only this operator has Fraction entries; tmax never loads it

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
    return half_binom_int(n - 1, k // 2, k // 2)  # 2^k C((n - 1)/2, k/2)


def tr_a_ctilde(n: int, ss: int, mm: int) -> int:
    """Pairing with the unit-normalized exchange basis: 4**s * C(m, s)."""
    if ss % 2 or mm % 2:
        raise ValueError("indices must be even")
    s, m = ss // 2, mm // 2
    return 4**s * (comb(m, s) if s <= m else 0)


# ---------------------------------------------------------------------------
# per-group design-order formulas
# ---------------------------------------------------------------------------


class ClosedFormTmax(Value):
    __slots__ = ("value", "valid_from_n", "formula_id")

    def __init__(self, value: object, valid_from_n: int, formula_id: str):  # value: int or INFINITE
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "valid_from_n", valid_from_n)
        object.__setattr__(self, "formula_id", formula_id)


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
    transpositions (``d >= 4``).  The qubit groups have only ``"full"``.
    ``n`` and ``k`` must be exact ``int``s ``>= 1``, as :func:`~symdesign.groups.sectors`
    and :func:`~symdesign.charges.charge_matrix` require.
    """
    if group.kind == "Custom":
        raise ValueError("closed forms exist for built-in groups only")
    # type(x) is int also rejects bool and integral floats such as 2.0
    for name, x in (("n", n), ("k", k)):
        if type(x) is not int or x < 1:
            raise ValueError(f"{name} must be an int >= 1, got {x!r}")
    if group.kind != "SUd" and variant != "full":
        raise ValueError(f"{group} has only the full variant, got {variant!r}")
    if group.kind != "SUd" or variant == "full":
        threshold = semiuniversal_min_locality(group)
        if k < threshold:
            raise ValueError(f"below the semi-universality threshold k >= {threshold}")
    if group.kind == "U1":
        return ClosedFormTmax(u1_f_norm(n, k + 1) // 2 - 1, u1_nbound(k), f"u1:k={k}")
    if group.kind == "SU2":
        return ClosedFormTmax(su2_a_norm(n, k // 2 * 2 + 2) // 2 - 1, su2_nbound(k), f"su2:k={k}")
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
