"""Exact design-order solver: lower bound, certificate search, verification.

The design order of the circuit distribution is ``B/2 - 1`` where ``B`` is the
minimum multiplicity-weighted one-norm over nonzero integer vectors in the
kernel of the problem's charge matrix (infinite order when the kernel is
trivial).  Three facts make this computable fast:

* sectors can be scanned in weakly increasing multiplicity order, and any
  kernel vector touching a sector outside the scanned prefix has weighted
  norm at least twice that sector's multiplicity (its positive and negative
  parts are equal because the multiplicity vector lies in the row span), and
  one integer echelon extends the kernel basis by <= 1 vector per column;
* the prefix kernel changes only where it grows, and ``m`` never decreases,
  so the cutoff ``B <= 2 * m[next]`` needs deciding once per window between
  growths, at its end.  A bounded search with radius ``2 * m[next]``
  decides it, and mostly returns at once: no vector is within the radius
  when every Gram-Schmidt length ``|b_j*|`` exceeds it.  The shortest
  reduced basis vector bounds ``B`` from above, so once it passes the
  cutoff the scan stops with one full enumeration;
* within a prefix the problem is a small-dimensional weighted shortest-vector
  search: Schnorr-Euchner enumeration of the LLL-reduced basis over the
  integer Gram-Schmidt state the integral LLL keeps with it (the leading
  Gram minors ``d`` and ``lam = mu * d``), so every level test is an integer
  comparison.  The scan keeps one reduced lattice for all its prefixes: the
  echelon never rewrites a relation, so at each kernel growth the lattice
  takes the new coordinates (zero on its vectors) and the one new relation,
  reduced from its index on, instead of reducing the whole basis again.
  Until the second growth the prefix kernel is ``Z b_0``, whose optimum is
  ``+-b_0``, so the scan keeps ``b_0`` as a plain vector: a scan that stops
  at rank 1 builds no lattice, and the second growth builds it from both
  relations.
  The Euclidean norm of the weight-rescaled vector lower bounds the
  weighted one-norm, so the radius shrinks to each new incumbent.  Each
  level also keeps Hölder's bound ``|y| <= R * h_j``: the level value ``y``
  is the weighted inner product of the vector with the integral Gram-Schmidt
  vector ``g_j = d[j] * b_j*``, so it is at most the vector's weighted
  one-norm ``R`` times ``h_j = max_i w_i |g_j,i|``.  That cuts the Euclidean
  ball down towards the one-norm ball it covers.  Each level visits its
  values zig-zag outwards from the center, and only one of each pair ``+-q``
  is visited (the top nonzero coefficient is positive).

Both the incumbent certificate and the cutoff rule are exact, so every answer
returned with ``proven_exact`` is self-certifying.
"""

from __future__ import annotations

import math
from itertools import compress, repeat
from operator import add, mul
from typing import Optional

from .charges import ChargeMatrix, CycleType, charge_matrix, multiplicity_in_row_span
from .groups import GroupSpec, SectorTable, canonical_table, check_multiplicities
from .infinity import INFINITE, is_finite
from .intlinalg import Echelon, ReducedLattice, lll_reduce
from .values import Value


class Certificate(Value):
    """Integer lattice vector with its weighted one-norm; primitive when from :func:`tmax_exact`.

    ``support`` lists where ``q`` is nonzero: coordinate indices in a
    certificate from :func:`min_weighted_l1`, sector ids in one from
    :func:`tmax_exact`.
    """

    __slots__ = ("q", "weighted_norm", "support")

    def __init__(self, q: tuple[int, ...], weighted_norm: int, support: tuple):
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "weighted_norm", weighted_norm)
        object.__setattr__(self, "support", support)


class LowerBoundResult(Value):
    __slots__ = ("ell", "bound")

    def __init__(
        self,
        ell: Optional[int],  # 1-based index into the canonical sector order, None if infinite
        bound: object,  # int or INFINITE
    ):
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "bound", bound)


class TmaxResult(Value):
    __slots__ = ("tmax", "lower_bound", "certificate", "proven_exact")

    def __init__(
        self,
        tmax: object,  # int or INFINITE
        lower_bound: object,
        certificate: Optional[Certificate],
        proven_exact: bool,
    ):
        object.__setattr__(self, "tmax", tmax)
        object.__setattr__(self, "lower_bound", lower_bound)
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "proven_exact", proven_exact)


class SemiUniversalityError(ValueError):
    """Raised when the gate set is not known to be semi-universal.

    Without semi-universality the uniform circuit distribution fails to be
    even a 2-design, so a kernel-based answer would be misleading.
    """


# ---------------------------------------------------------------------------
# preconditions
# ---------------------------------------------------------------------------


def _check_problem(A: ChargeMatrix, table: SectorTable, assume: bool) -> None:
    """Alignment, canonical order, semi-universality and row span, in that order.

    The builder decided semi-universality: ``A.shortfall`` says why it fails,
    which ``assume`` overrides.
    """
    if A.col_ids != table.ids:
        raise ValueError("charge-matrix columns are not aligned with the sector table")
    if not table.is_canonical():
        raise ValueError("sector table must be canonically ordered (weakly increasing m)")
    if A.shortfall is not None and not assume:
        raise SemiUniversalityError(A.shortfall)
    # the lower bound and the support cutoff of the scan rely on m lying in
    # the row span, which the builder's witness proves
    if not multiplicity_in_row_span(table.multiplicities, A):
        raise ValueError(
            f"the row-span witness {A.witness} does not reproduce the multiplicity "
            "vector, so m is not proven to lie in the row span"
        )


# ---------------------------------------------------------------------------
# the prefix scan and the lower bound it yields
# ---------------------------------------------------------------------------


def _prefix_scan(A: ChargeMatrix, length: int):
    """Yield ``(idx, relation)`` per prefix: the relation column ``idx`` added, else None.

    The echelon never rewrites a relation, so the relations yielded so far,
    zero-padded, are a basis of the prefix kernel.
    """
    ech = Echelon()
    for idx in range(length):
        yield idx, None if ech.add(A.column(idx)) else ech.relations[-1]


def lower_bound(
    A: ChargeMatrix, table: SectorTable, assume_semiuniversal: bool = False
) -> LowerBoundResult:
    """First kernel growth of the multiplicity-ordered prefix scan.

    Scanning sectors in weakly increasing multiplicity order, the first index
    ``ell`` where the restricted matrix has column rank ``ell - 1`` yields the
    bound ``m[ell] - 1`` on the design order; if every prefix (including all
    sectors) has full column rank the order is unbounded.  :func:`tmax_exact`
    reports the same bound from its own scan; like it, this needs a
    semi-universal gate set (or ``assume_semiuniversal``) and the
    multiplicity vector in the rational row span of ``A``.
    """
    _check_problem(A, table, assume_semiuniversal)
    for idx, relation in _prefix_scan(A, len(table)):
        if relation is not None:
            return LowerBoundResult(ell=idx + 1, bound=table.multiplicities[idx] - 1)
    return LowerBoundResult(ell=None, bound=INFINITE)


# ---------------------------------------------------------------------------
# weighted shortest-vector enumeration
# ---------------------------------------------------------------------------


def _weighted_l1(q, weights) -> int:
    return sum(map(mul, weights, map(abs, q)))


def _normalize_sign(q: list[int]) -> tuple[int, ...]:
    for x in q:
        if x > 0:
            return tuple(q)
        if x < 0:
            return tuple(-y for y in q)
    return tuple(q)


def min_weighted_l1(lattice: ReducedLattice, upper: Optional[int] = None) -> Optional[Certificate]:
    """Nonzero vector of ``lattice`` minimizing the weighted one-norm.

    The objective is ``sum(lattice.weights * abs(q))``, searched over the
    reduced basis (build one with ``lll_reduce(basis, weights)``); the answer
    depends on the lattice only, not on the basis that spans it.
    Enumeration is branch-and-bound over the weight-rescaled Euclidean norm,
    which never exceeds the weighted one-norm, so the radius equal to the
    best norm found so far is sound.  A level value must also pass the
    integer Hölder test ``|y| <= R * h_j`` against that norm ``R`` (see the
    module docstring); both tests are non-strict, so every tied optimum
    reaches the tie-break.
    Returns the optimizer, sign-normalized (first nonzero entry positive),
    with lexicographically smallest ``q`` among ties; ``None`` if
    ``upper`` (an integer) is given and no vector has norm <= ``upper``.
    """
    basis, P, lam, weights = lattice.basis, lattice.d, lattice.lam, lattice.weights
    if not basis:
        raise ValueError("the lattice must be nonempty")
    # type(x) is int also rejects bool, whose True would pass for 1
    if upper is not None and type(upper) is not int:
        raise ValueError("upper must be an integer")
    d = len(basis)
    # lambda_1 >= min_j |b_j*| and the weighted one-norm is at least the
    # weighted two-norm, so no vector is within upper once every
    # |b_j*|^2 = P[j+1] / P[j] exceeds upper^2
    if upper is not None and all(P[j + 1] > upper * upper * P[j] for j in range(d)):
        return None

    # Integer form of the quadratic form x^T G x = sum_i |b_i*|^2 (x_i +
    # sum_{t>i} mu[t][i] x_t)^2 of the reduced basis.  With the leading minors
    # P[i+1] = P[i] |b_i*|^2 and lam[t][i] = mu[t][i] P[i+1] that LLL returns,
    # the level-i term is y^2 / (P[i] P[i+1]) for the integer y = x_i P[i+1] +
    # sum_{t>i} lam[t][i] x_t; multiplying by C = lcm(P[i] P[i+1]) makes every
    # term and the squared radius integers.
    C = math.lcm(*(P[i] * P[i + 1] for i in range(d)))
    scale = [C // (P[i] * P[i + 1]) for i in range(d)]
    # the level-i value y is the weighted inner product of the vector with
    # g_i = P[i] b_i*, whatever the coefficients below level i, so Hölder
    # bounds |y| by its weighted one-norm times h_i = max_t w_t |g_i,t|
    h = [max(map(mul, weights, map(abs, g))) for g in lattice.gso_vectors()]

    best: Optional[int] = None
    best_q: Optional[tuple[int, ...]] = None
    cap = 0  # C * radius^2; the radius is the incumbent's norm, or upper before one exists
    hcap: list[int] = []  # radius * h, the Hölder caps on |y| per level

    def consider(vec):
        nonlocal best, best_q, cap, hcap
        norm = _weighted_l1(vec, weights)
        limit = upper if best is None else best
        if limit is not None and norm > limit:
            return
        q = _normalize_sign(vec)
        if best is None or norm < best or (norm == best and q < best_q):
            best, best_q = norm, q
            cap = C * norm * norm
            hcap = [norm * x for x in h]

    for b in basis:
        consider(b)
    # the basis vectors are nonzero, so without an incumbent the caller's cap is set
    if best is None:
        cap = C * upper * upper
        hcap = [upper * x for x in h]

    coeff = [0] * d

    def search(level: int, used: int, partial: list[int], top: bool):
        # partial = sum of coeff[t] * basis[t] over t > level, and top says
        # all those coefficients are zero; used is the scaled form above level
        p = P[level + 1]
        c = scale[level]
        s = 0
        for t in range(level + 1, d):
            if coeff[t]:
                s += lam[t][level] * coeff[t]
        # zig-zag outwards from the center -s/p: x = lo, lo-1, ... have y <= 0
        # and x = hi, hi+1, ... have y > 0; always take the smaller |y|.  A
        # value must pass the Hölder and the Euclidean test, both non-strict so
        # that ties reach the tie-break.  The caps only shrink and |y| only
        # grows along a side, so a side that fails a test stays closed.
        lo = -s // p
        hi = lo + 1
        down = up = True
        while True:
            rem = cap - used
            hc = hcap[level]
            if down:
                y_lo = lo * p + s
                down = -y_lo <= hc and y_lo * y_lo * c <= rem
            if up:
                y_hi = hi * p + s
                up = y_hi <= hc and y_hi * y_hi * c <= rem
            if down and (not up or -y_lo <= y_hi):
                x, y = lo, y_lo
                lo -= 1
                # sign symmetry: the top nonzero coefficient is positive
                down = not top
            elif up:
                x, y = hi, y_hi
                hi += 1
            else:
                break
            coeff[level] = x
            vec = partial if x == 0 else [a + x * b for a, b in zip(partial, basis[level])]
            if level:
                search(level - 1, used + y * y * c, vec, top and x == 0)
            elif not (top and x == 0):
                consider(vec)
        coeff[level] = 0

    search(d - 1, 0, [0] * len(basis[0]), True)

    return None if best is None else _certificate(best_q, best)


def _certificate(q: tuple[int, ...], norm: int) -> Certificate:
    return Certificate(q=q, weighted_norm=norm, support=tuple(i for i, x in enumerate(q) if x))


# ---------------------------------------------------------------------------
# exact design order
# ---------------------------------------------------------------------------


def tmax_exact(
    A: ChargeMatrix,
    table: SectorTable,
    assume_semiuniversal: bool = False,
) -> TmaxResult:
    """Exact maximum design order with a verifiable certificate.

    One scan over multiplicity-ordered sector prefixes: the first kernel
    growth gives the lower bound (as in :func:`lower_bound`) and the first
    relation ``b_0``, the second builds the scan's reduced lattice from both
    relations, and each later one inserts its relation into it.  The answer is
    the minimum weighted norm ``B`` of the first prefix with
    ``B <= 2 * m[next]`` (or of the whole table): any kernel vector supported
    outside the prefix costs at least ``2 * m[next]`` because its positive
    and negative weighted parts are equal.

    The lattice stays fixed between growths and ``m`` never decreases, so
    that cutoff fires somewhere in a window exactly when it fires at the
    window's end.  A growth at ``idx`` therefore first runs a bounded search
    with ``upper = 2 * m[idx]`` on the old lattice: a miss (mostly the
    early exit of :func:`min_weighted_l1`) proves the scan goes on, and a hit is
    the answer.  At each index the shortest reduced basis vector bounds
    ``B`` from above; once that bound is at most ``2 * m[next]``, or at the
    last index, one unbounded enumeration gives the answer.  So a finite
    solve runs one full enumeration, on the prefix where the scan stops.

    The rank-1 rule: while the kernel is ``Z b_0`` its optimum is ``+-b_0``
    (``x b_0`` costs ``|x|`` times as much), so a scan that stops there
    answers with ``b_0``, sign-normalized, and builds no lattice.  The second
    growth at ``idx`` needs no bounded search on ``Z b_0`` either: the cutoff
    test one index earlier found ``|b_0|_w > 2 * m[idx]``.

    Ties go to the lexicographically smallest optimum supported on the prefix
    where the scan stops (the first ``0..s`` holding an optimum with ``s``
    last or ``B <= 2 * m[s + 1]``), not to a smaller one needing a later
    sector: U(1) n=3 k=1 gives ``(2, 1, -1, 0)``, not ``(1, 2, 0, -1)``.
    Every earlier prefix kernel lies in the stop-prefix lattice (zero-padded),
    so this is the optimum that one enumeration of that lattice returns.
    """
    _check_problem(A, table, assume_semiuniversal)

    mults = table.multiplicities
    L = len(table)
    bound = INFINITE
    cert: Optional[Certificate] = None  # over the stop prefix's coordinates
    first: Optional[list[int]] = None  # b_0, the kernel basis while it has rank 1
    lattice: Optional[ReducedLattice] = None
    for idx, relation in _prefix_scan(A, L):
        if relation is not None:
            if first is None:  # the first kernel growth
                check_multiplicities(mults[: idx + 1])  # the weights of b_0's norm
                bound = mults[idx] - 1
                first = relation
            elif lattice is None:  # the second: Z b_0 is known to miss 2 * m[idx]
                padded = first + [0] * (idx + 1 - len(first))
                lattice = lll_reduce([padded, relation], mults[: idx + 1])
            else:
                cert = min_weighted_l1(lattice, upper=2 * mults[idx])
                if cert is not None:
                    break
                lattice.extend(mults[len(lattice.weights) : idx + 1])
                lattice.insert(relation)
            if lattice is None:
                ub = _weighted_l1(first, mults)
            else:
                ub = min(_weighted_l1(b, lattice.weights) for b in lattice.basis)
        if first is not None and (idx + 1 == L or ub <= 2 * mults[idx + 1]):
            if lattice is None:
                cert = _certificate(_normalize_sign(first), ub)
            else:
                cert = min_weighted_l1(lattice)
            break

    if cert is None:
        # trivial kernel: every symmetric Hamiltonian direction is reachable
        return TmaxResult(INFINITE, bound, None, True)

    if cert.weighted_norm % 2:
        raise ArithmeticError("a kernel vector has an odd weighted norm")
    tmax = cert.weighted_norm // 2 - 1
    if not (is_finite(bound) and bound <= tmax):
        raise ArithmeticError("the lower bound exceeds the certified design order")
    best = Certificate(
        q=cert.q + (0,) * (L - len(cert.q)),
        weighted_norm=cert.weighted_norm,
        support=tuple(table.ids[i] for i in cert.support),
    )
    return TmaxResult(tmax, bound, best, True)


def verify_certificate(cert: Certificate, A: ChargeMatrix, table: SectorTable) -> bool:
    """Re-derive every certificate property from scratch.

    ``A``'s columns must be the table's sectors in its order, and ``q`` and
    ``cert.support`` tuples (anything else is False, not an error).  ``q`` must
    be a nonzero, primitive vector of exact ``int`` entries, of the table's
    length, with ``A q = 0`` and ``m · q = 0`` (its positive and
    negative weighted parts balance), whose weighted one-norm is
    ``cert.weighted_norm``, an even and positive ``int``, and whose nonzero
    entries sit exactly on ``cert.support``'s sector ids.  Past the types,
    each of these reads only the support of ``q``: columns, multiplicities
    and ids are taken where ``q`` is nonzero, as every other term is
    multiplied by zero.
    """
    q = cert.q
    rows, cols = A.shape
    if type(q) is not tuple or type(cert.support) is not tuple:
        return False
    # a kernel vector of columns in another order is no certificate for this table
    if A.col_ids != table.ids or len(q) != cols:
        return False
    # exactly int: a bool or a float such as 6.0 would compare equal to one
    if {*map(type, q)} - {int} or type(cert.weighted_norm) is not int:
        return False
    nonzero = [*compress(q, q)]
    if not nonzero:
        return False
    Aq = [0] * rows
    for x, col in zip(nonzero, map(A.column, compress(range(cols), q))):
        Aq = [*map(add, Aq, map(mul, repeat(x), col))]
    if any(Aq):
        return False
    mults = [*compress(table.multiplicities, q)]
    if sum(map(mul, mults, nonzero)) != 0:
        return False
    if math.gcd(*nonzero) != 1:
        return False
    norm = _weighted_l1(nonzero, mults)
    if norm != cert.weighted_norm or norm % 2 or norm <= 0:
        return False
    return tuple(compress(table.ids, q)) == tuple(cert.support)


def compute_tmax(
    group: GroupSpec,
    n: int,
    k: int,
    *,
    assume_semiuniversal: bool = False,
    classes: Optional[list[CycleType]] = None,
) -> tuple[TmaxResult, SectorTable, ChargeMatrix]:
    """End-to-end solve: sectors, canonical order, charge matrix, exact search.

    The charge matrix is built over the columns of the canonically ordered
    table (SU(d) columns on first read, so the scan computes only its prefix).
    ``classes`` restricts the SU(d) character rows to a subset of the
    ``k``-local conjugacy classes (amended or reduced gate sets); it and
    ``assume_semiuniversal`` are keyword-only, so a class list passed in the
    flag's place raises ``TypeError`` instead of turning the override on.  The table
    comes from the bounded memo of :mod:`symdesign.groups`
    (:func:`~symdesign.groups.canonical_table`), so calls for one
    ``(group, n)`` may return the same (immutable) :class:`SectorTable` object.
    """
    table = canonical_table(group, n)
    A = charge_matrix(table, k, classes)
    result = tmax_exact(A, table, assume_semiuniversal=assume_semiuniversal)
    return result, table, A
