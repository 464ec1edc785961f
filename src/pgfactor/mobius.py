"""Structural Mobius evaluation of the factorization count.

In an abelian p-group only the elementary abelian subgroups carry a nonzero
Mobius value (Hall: mu = (-1)^n p^C(n,2) for rank n, else 0), and all of them
sit inside the socle.  So the inversion sum collapses to a sum over the
subspaces of the socle: for each subspace, type the quotient by its lift from
the pivot columns of one mod-p echelon form (``quotient_type``) and weight the
squared subgroup count of that quotient with the Hall value.  A subspace is
the tuple of its canonical basis rows, the reduced row-echelon form, and
nothing more (``enumerate_subspaces``).

The sum never visits every subspace.  The diagonal automorphisms (F_p^*)^r,
which scale each cyclic generator by a unit, act on the socle subspaces and
preserve quotient types.  At rank <= 3 a canonical basis has at most two free
entries, and the torus scales them independently, so an orbit is exactly a
pivot layout plus a choice of which free entries are nonzero.  Its size is
(p-1)^(number of nonzero free entries), and the basis with each nonzero free
entry set to 1 represents it.  The orbit table (``socle_orbits``), 16
representatives at rank 3 and 5 at rank 2, stores once per process the
exponent positions each one's quotient lowers, alike at every prime; a call
only lowers its type by them, so p may be an int or the symbolic P.

The per-dimension tallies of quotient types (the census) are, at every rank,
a checkable invariant: they match the socle cells of the closed form, p^inv(S)
subspaces lowering the exponents in S, read from the one cell census that
``theorem3`` sums over (``formulas._cell_census``, via ``reference_census``).
``verify_census`` holds verify's census checks, those tallies and the
quotient by the whole socle, as ``(name, expected, actual)`` triples.
The Smith normal form (``smith_normal_form``) types no quotient here; it is
the tests' reference for ``quotient_type``, computed from its definition by
determinantal divisors.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import combinations, product
from math import gcd

from .formulas import _cell_census, _hall_value, _subgroup_count_value
from .grouptype import GroupType, normalize
from .poly import P


class InvalidSubspace(ValueError):
    """Basis rows that do not fit the group they are applied to."""


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over F_p."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    num = 1
    den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (k - i) - 1
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"Gaussian binomial [{n} choose {k}]_{p} is not an integer")
    return q


def _rref_bases(r: int, k: int, values):
    """Canonical bases of k-dimensional subspaces of F^r, free entries from ``values``.

    Yields ``(rows, fill)`` for every pivot layout and every way of filling
    its free slots with entries of ``values``; ``fill`` lists those entries
    in slot order.  ``rows`` is the reduced row-echelon basis, a tuple of k
    rows of length r: pivots are 1 with zeros above and below and pivot
    columns strictly increase, so equal subspaces have identical rows.
    """
    if not 0 <= k <= r:
        raise ValueError(f"need 0 <= k <= r, got k={k}, r={r}")
    for pivots in combinations(range(r), k):
        pivot_set = set(pivots)
        # free slots: to the right of the row's pivot, in non-pivot columns
        free = [
            (i, j)
            for i in range(k)
            for j in range(pivots[i] + 1, r)
            if j not in pivot_set
        ]
        for fill in product(values, repeat=len(free)):
            rows = [[0] * r for _ in range(k)]
            for i, c in enumerate(pivots):
                rows[i][c] = 1
            for (i, j), v in zip(free, fill):
                rows[i][j] = v
            yield tuple(tuple(row) for row in rows), fill


def enumerate_subspaces(r: int, k: int, p: int) -> list[tuple[tuple[int, ...], ...]]:
    """All k-dimensional subspaces of F_p^r, each as its canonical basis rows.

    Deterministic: the result is sorted lexicographically by basis rows.
    The count always equals gaussian_binomial(r, k, p).
    """
    return sorted(rows for rows, _ in _rref_bases(r, k, range(p)))


@cache
def socle_orbits(r: int, k: int) -> tuple[tuple[tuple, int, tuple[int, int, int]], ...]:
    """One representative per torus orbit of k-dimensional subspaces of F_p^r.

    A tuple of ``(rows, nonzero, drops)``: the canonical basis with every
    nonzero free entry set to 1, the number of those entries, so the orbit
    holds (p-1)**nonzero subspaces, and the exponent positions its quotient
    lowers (``_drops``).  Only at r <= 3, where a basis has at most two free
    entries, is the zero pattern the whole orbit; there every minor of a
    representative is 0 or +-1, so each set of its columns has the same rank,
    and its echelon form the same pivots, mod every prime.  So the table, its
    drops read at p = 2, depends on neither group nor p: built once per (r, k).
    """
    if r > 3:
        raise ValueError(f"torus orbits are zero patterns only up to rank 3, got r={r}")
    return tuple((rows, sum(fill), _drops(rows, 2)) for rows, fill in _rref_bases(r, k, (0, 1)))


def _det(matrix) -> int:
    """Determinant of a square integer matrix, by cofactor expansion along the first row."""
    if not matrix:
        return 1
    return sum((-1) ** j * a * _det([row[:j] + row[j + 1:] for row in matrix[1:]])
               for j, a in enumerate(matrix[0]) if a)


def smith_normal_form(matrix) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Returns min(m, n) nonnegative entries d1 | d2 | ... with zeros last, by
    the definition: d1 * ... * dk is the gcd of the k x k minors (M. Newman,
    Integral Matrices, II.15); once all k x k minors vanish, k is past the
    rank and the rest are 0.  Its cost grows with the number of minors,
    C(m, k) C(n, k) cofactor expansions for each k up to the rank, so it is
    for small matrices.  No route calls it; the tests type quotients by it,
    on matrices of at most 4 x 5, as the reference that ``quotient_type``
    must match.
    """
    rows = [[int(x) for x in row] for row in matrix]
    n = len(rows[0]) if rows else 0
    size = min(len(rows), n)
    diag, previous = [], 1
    for k in range(1, size + 1):
        divisor = 0
        for chosen in combinations(rows, k):
            for cols in combinations(range(n), k):
                divisor = gcd(divisor, _det([[row[j] for j in cols] for row in chosen]))
        if not divisor:
            break
        diag.append(divisor // previous)
        previous = divisor
    return diag + [0] * (size - len(diag))


def hall_mobius(t: GroupType, p: int) -> int:
    """Mobius value mu(1, G) of a p-group of type ``t``.

    Zero unless the group is elementary abelian of rank n, in which case it
    is Hall's value (-1)^n * p^(n(n-1)/2).  The trivial group gives 1.
    """
    return _hall_value(t.rank, p) if t.is_elementary_abelian else 0


def _echelon(rows, p: int) -> list[tuple[int, list[int]]]:
    """Reduced row-echelon basis of the F_p-span of integer ``rows``.

    ``(pivot, row)`` pairs in the order found, each row reduced mod p with 1
    at its pivot column and 0 at the others; dependent rows add no pair.
    """
    basis = []
    for row in rows:
        row = [x % p for x in row]
        for pivot, b in basis:
            if f := row[pivot]:
                row = [(x - f * y) % p for x, y in zip(row, b)]
        pivot = next((c for c, x in enumerate(row) if x), None)
        if pivot is None:
            continue
        if (lead := row[pivot]) != 1:
            inverse = pow(lead, -1, p)
            row = [x * inverse % p for x in row]
        for i, (c, b) in enumerate(basis):
            if f := b[pivot]:
                basis[i] = c, [(x - f * y) % p for x, y in zip(b, row)]
        basis.append((pivot, row))
    return basis


def _drops(rows, p: int) -> tuple[int, int, int]:
    """Exponent positions that the quotient by the lift of the span of ``rows`` lowers, as 0/1.

    Socle coordinate j lifts to p^(e_j - 1) times the j-th generator, which
    lies in p^k G exactly when e_j > k.  So of the parts equal to v,
    dim(E & S_(v-1)) - dim(E & S_v) drop by one, where S_k = Omega_1(G) & p^k G:
    the rank that the basis columns with e_j = v add to those with smaller e_j.
    Hence e_j drops by one exactly when column j is not in the F_p-span of the
    columns to its right: a pivot column of the column-reversed echelon form.
    """
    pivots = {len(row) - 1 - c for c, row in _echelon((row[::-1] for row in rows), p)}
    return tuple(int(j in pivots) for j in range(3))


def _lowered(t: GroupType, drops) -> GroupType:
    return normalize([e - d for e, d in zip(t, drops)])


def quotient_type(t: GroupType, rows, p: int) -> GroupType:
    """Type of G / E^ where E^ is the lift of the socle subspace E with basis ``rows``.

    See ``_drops``.  Each row has one entry per nonzero exponent of t, there
    are at most rank(t) rows, and they are independent mod p; the zero
    subspace ``()`` fits every rank.
    """
    if len(rows) > t.rank or any(len(row) != t.rank for row in rows):
        raise InvalidSubspace(f"basis rows {rows!r} do not fit a rank-{t.rank} group")
    drops = _drops(rows, p)
    if sum(drops) != len(rows):
        raise InvalidSubspace(f"basis rows {rows!r} are not independent mod {p}")
    return _lowered(t, drops)


def _census_entries(counter: Counter) -> tuple[tuple[GroupType, int], ...]:
    return tuple(sorted(counter.items(), reverse=True))


def _orbit_tally(t: GroupType, k: int, pv) -> Counter:
    """Quotient type -> number of k-dimensional socle subspaces giving it; ``pv`` is p or P.

    Each torus orbit lowers t by its stored drops and counts (pv-1)**nonzero.
    """
    tally = Counter()
    for _, nonzero, drops in socle_orbits(t.rank, k):
        tally[_lowered(t, drops)] += (pv - 1) ** nonzero
    return tally


def quotient_type_census(t: GroupType, k: int, p: int) -> tuple[tuple[GroupType, int], ...]:
    """Count quotient types over every k-dimensional socle subspace, 0 <= k <= rank.

    ``(type, count)`` pairs, types descending.  The counts sum to
    gaussian_binomial(t.rank, k, p) at any p, from at most 7 orbit
    representatives.  A k outside 0..rank raises ValueError.
    """
    return _census_entries(_orbit_tally(t, k, p))


def reference_census(t: GroupType, k: int, p: int) -> tuple[tuple[GroupType, int], ...]:
    """Expected census from the socle cells of the closed form.

    Each cell S with |S| = k gives p^inv(S) quotients of type t minus 1 at the
    positions in S: by order-p subgroups, p^2 drop the smallest exponent, p
    the middle one, 1 the largest.  Coinciding exponents merge types.  A k
    outside 0..rank raises ValueError, as in ``quotient_type_census``.
    """
    if not 0 <= k <= t.rank:
        raise ValueError(f"need 0 <= k <= rank, got k={k}, rank={t.rank}")
    return _census_entries(_cell_census(t, k, p))


def verify_census(t: GroupType, p: int) -> list[tuple]:
    """verify's census checks, as ``(name, expected, actual)`` triples.

    ``census_k{k}`` for 1 <= k < rank compares the orbit census with the
    socle cells, and ``census_full_socle`` types the quotient by the whole
    socle, which lowers every nonzero exponent by one.
    """
    r = t.rank
    checks = [(f"census_k{k}", reference_census(t, k, p), quotient_type_census(t, k, p))
              for k in range(1, r)]
    full = enumerate_subspaces(r, r, p)[0]
    shrunk = GroupType(max(e - 1, 0) for e in t)
    checks.append(("census_full_socle", shrunk, quotient_type(t, full, p)))
    return checks


def factorization_count_mobius(t: GroupType, p: "int | None" = None):
    """Factorization count as the Mobius-weighted sum over socle subspaces.

    Sums |L(G/E^)|^2 * mu(E) over all subspaces E of F_p^rank, where mu(E)
    depends only on dim E: each quotient type of the dimension's orbit tally
    is weighted by its number of subspaces times the Hall value.  This
    recomputes the closed form structurally and must agree with it exactly.
    With ``p`` None the count is an IntPolynomial, as in ``formulas``.
    """
    pv = p if p is not None else P
    return sum(_hall_value(k, pv) * size * _subgroup_count_value(qt, p) ** 2
               for k in range(t.rank + 1) for qt, size in _orbit_tally(t, k, pv).items())
