"""Closed forms for subgroup and factorization counts of rank <= 3 abelian p-groups.

Two quantities are computed, each either at a concrete prime (numeric mode)
or with p left symbolic (an IntPolynomial):

* ``subgroup_count``: the total number of subgroups of
  Z_{p^e1} x Z_{p^e2} x Z_{p^e3}, as an explicit rational expression in p
  whose numerator, three shifted runs of coefficients, is divisible exactly
  by (p^2-1)^2 (p-1); with p symbolic the numerator is written from its
  runs as coefficient lists and divided by p-1, p^2-1 and p^2-1 in turn,
  each division a running sum.

* ``factorization_count``: the number of ordered pairs (H, K) of subgroups
  with H + K equal to the whole group, obtained by Mobius inversion over
  the subgroup lattice.  Only elementary abelian subgroups contribute: the
  socle subspaces fall into eight cells, one per set S of exponent positions
  that the quotient lowers by one, so the sum collapses to Hall-weighted
  squared subgroup counts, one sum for both modes.  Cells that lower to the
  same type merge in each dimension's census (``_cell_census``, read once),
  so each distinct quotient type is squared once.  With p symbolic the sum
  builds no polynomial: Theorem 3 is a polynomial identity in p, so F2's
  coefficients are the balanced base-X digits of the numeric sum at
  p = X = 2^(8w) (Kronecker substitution), which ``from_packed`` reads off.
  Cell by cell, F2 is a sum of terms +-p^j c^2, and each coefficient of c^2
  is at most sum_i c_i^2 in size (Cauchy-Schwarz).  That is at most c(1)^2,
  because subgroup counts have nonnegative coefficients (sums of p-powers
  times Gaussian binomials, by Birkhoff's formula; L. M. Butler, "Subgroup
  lattices and symmetric functions", Mem. AMS 539, 1994).  So every
  coefficient of F2 is at most the sum of c(1)^2 over the cells; merging
  cells changes how F2 is computed, not that bound.  c(1) is read off the
  numerator's runs (``_count_at_one``), which also check that the division
  is exact.  The width w is the least with 2^(8w-1) above the bound, so no
  digit overflows into its neighbour and the digits are exactly the
  coefficients.

Lowered triples may come out unsorted (arguments are multisets and get
re-sorted) or negative (the whole term vanishes by convention; that
convention is what reduces the rank-3 expression to the rank <= 2 case, and
it is cross-validated against the brute-force oracle rather than assumed).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import combinations

from .grouptype import GroupType, normalize
from .poly import InexactDivision, IntPolynomial, P, from_packed

# Method tags used in CLI output and reports.
METHOD_SUBGROUP_COUNT = "eq3"
METHOD_CLOSED_FORM = "theorem3"
METHOD_EQUAL_EXPONENTS = "corollary4"


@dataclass(frozen=True)
class FormulaResult:
    """Outcome of one closed-form evaluation: an exact int or a polynomial."""

    value: "int | IntPolynomial"
    method: str


def _numerator_runs(e1: int, e2: int, e3: int):
    """The numerator's three runs, each (shift, coefficients) for p^shift (c0 + c1 p + ...).

    The runs start at p^(e2+e3+1), p^(2e3+2) and p^0, with coefficients
    linear in the exponents.  Runs whose powers overlap (which happens when
    exponents are equal or zero) simply add.
    """
    a, d, s = e3 + 1, e1 - e2, e1 + e2 - e3
    return ((e2 + e3 + 1, (a * (d - 1), -2 * a, -2 * a * d, 2 * a, a * (d + 1))),
            (2 * e3 + 2, (s - 1, -2, -(s + 3))),
            (0, (-(s + 2 * e3 + 1), 2, s + 2 * e3 + 5)))


def _horner(run: tuple[int, ...], pv: int) -> int:
    """run[0] + run[1] pv + ..., by Horner's rule on ints."""
    acc = 0
    for c in reversed(run):
        acc = acc * pv + c
    return acc


def _count_numerator(e1: int, e2: int, e3: int, pv):
    """Numerator of the subgroup-count expression; ``pv`` is an int or P.

    Both high runs carry p^(2e3+1), the first times p^(e2-e3) and the second
    times p, so either mode takes one power of that size.  With p symbolic
    the high runs are written into one coefficient list of e2-e3+5 entries,
    shifted into place by one product with p^(2e3+1), and the low run is
    added; at a prime each run is an int by Horner's rule.
    """
    (s1, r1), (s2, r2), (_, low) = _numerator_runs(e1, e2, e3)
    base = 2 * e3 + 1
    if pv is P:
        high = [0] * (s1 - base + len(r1))
        for shift, run in ((s1, r1), (s2, r2)):
            for i, c in enumerate(run, shift - base):
                high[i] += c
        return P**base * IntPolynomial(high) + IntPolynomial(low)
    return pv**base * (pv ** (s1 - base) * _horner(r1, pv) + pv * _horner(r2, pv)) + _horner(low, pv)


def _count_at_one(t: GroupType) -> int:
    """c(1) for the subgroup count c = N / D, read off the numerator's runs.

    D = (p-1)(p^2-1)^2 = (p-1)^3 (p+1)^2 divides N exactly when N, N' and
    N'' vanish at 1 and N and N' vanish at -1; InexactDivision is raised
    otherwise.  Then N = (p-1)^3 (p+1)^2 c gives N'''(1) = 3! * 4 c(1).  A
    term c p^k adds c k(k-1)...(k-j+1) to N^(j)(1) and (-1)^(k-j) times that
    to N^(j)(-1).
    """
    n0 = n1 = n2 = n3 = m0 = m1 = 0
    for shift, run in _numerator_runs(*t):
        for k, c in enumerate(run, shift):
            c1 = c * k
            c2 = c1 * (k - 1)
            n0 += c
            n1 += c1
            n2 += c2
            n3 += c2 * (k - 2)
            if k & 1:
                m0 -= c
                m1 += c1
            else:
                m0 += c
                m1 -= c1
    if n0 or n1 or n2 or m0 or m1:
        raise InexactDivision(f"the subgroup-count numerator of {t} is not divisible by (p^2-1)^2 (p-1)")
    return n3 // 24


_DENOMINATOR_FACTORS = (P - 1, P**2 - 1, P**2 - 1)


def _exact_quotient(num, p: "int | None"):
    """num / ((p^2-1)^2 (p-1)), which must be exact."""
    if p is None:
        return reduce(IntPolynomial.exact_div, _DENOMINATOR_FACTORS, num)
    den = (p**2 - 1) ** 2 * (p - 1)
    q, r = divmod(num, den)
    if r:
        raise InexactDivision(f"{num} is not divisible by {den}")
    return q


def _subgroup_count_value(t: GroupType, p: "int | None"):
    return _exact_quotient(_count_numerator(*t, p if p is not None else P), p)


def subgroup_count(t: GroupType, p: "int | None" = None) -> FormulaResult:
    """Total number of subgroups of the group of type ``t``.

    Numeric when ``p`` is given, an IntPolynomial otherwise.  Stated for
    strictly positive exponents; evaluating with zero entries extends it to
    rank <= 2 and is validated against the oracle by the test suite.
    """
    return FormulaResult(_subgroup_count_value(t, p), METHOD_SUBGROUP_COUNT)


def _ext_value(raw, p: "int | None"):
    e1, e2, e3 = raw
    if e1 < 0 or e2 < 0 or e3 < 0:
        return 0 if p is not None else IntPolynomial.zero()
    return _subgroup_count_value(normalize(raw), p)


def subgroup_count_ext(raw, p: "int | None" = None) -> FormulaResult:
    """Subgroup count over unsorted triples, zero when any entry is negative."""
    return FormulaResult(_ext_value(tuple(raw), p), METHOD_SUBGROUP_COUNT)


def _hall_value(n: int, pv):
    """Hall's value (-1)^n p^C(n,2) = mu(1, E), E elementary abelian of rank n; pv is p or P."""
    return (-1) ** n * pv ** (n * (n - 1) // 2)


# The socle cells by dimension: _CELLS[k] holds (drop vector 1_S, inv(S)) for
# each set S of k exponent positions, and p^inv(S) socle subspaces of
# dimension k lower the exponents at S (Macdonald, Symmetric Functions and
# Hall Polynomials, ch. II), where inv(S) = #{(i, j): i < j, i not in S, j in S}.
_CELLS = tuple(
    tuple((tuple(int(i in s) for i in range(3)), sum(i not in s for j in s for i in range(j)))
          for s in combinations(range(3), k))
    for k in range(4)
)


def _cell_census(t: GroupType, k: int, pv) -> Counter:
    """Quotient type -> number of k-dimensional socle subspaces giving it; ``pv`` is p or P.

    Each cell S of ``_CELLS[k]`` adds pv**inv(S) to t lowered at S.  A cell
    that would lower a zero exponent holds no subspace (the rank <= 2 convention).
    """
    census = Counter()
    for drops, inv in _CELLS[k]:
        lowered = [e - d for e, d in zip(t, drops)]
        if min(lowered) >= 0:
            census[normalize(lowered)] += pv**inv
    return census


def factorization_count(t: GroupType, p: "int | None" = None) -> FormulaResult:
    """Ordered-pair factorization count: the Hall-weighted sum over the socle cells.

    One numeric sum for both modes over each dimension k's census
    (``_cell_census``, read once): each distinct quotient type is squared
    once, its subgroup count c weighted by Hall's value times its number n
    of subspaces.  With ``p`` None the census is read with p symbolic, and
    the sum is taken at p = X = 2^(8w), with each n evaluated at X, and
    ``from_packed`` reads F2's coefficients off its digits.  w is the least
    with 2^(8w-1) > sum over the types of n(1) c(1)^2 (``_count_at_one``),
    n(1) the type's number of cells: the bound of the module docstring, so
    the balanced digits are F2's coefficients.
    """
    censuses = [_cell_census(t, k, p if p is not None else P) for k in range(t.rank + 1)]
    x = p
    if p is None:
        bound = sum(n.evaluate(1) * _count_at_one(q) ** 2 for census in censuses for q, n in census.items())
        width = bound.bit_length() // 8 + 1
        x = 1 << 8 * width
        censuses = [{q: n.evaluate(x) for q, n in census.items()} for census in censuses]
    value = sum(_hall_value(k, x) * n * _subgroup_count_value(q, x) ** 2
                for k, census in enumerate(censuses) for q, n in census.items())
    return FormulaResult(value if p is not None else from_packed(value, width), METHOD_CLOSED_FORM)


def factorization_count_equal_exponents(lam: int, p: "int | None" = None) -> FormulaResult:
    """Specialization of the closed form to type (lam, lam, lam).

    The three middle quotient types coincide, so their terms merge with a
    (1 + p + p^2) multiplicity.  Must agree with ``factorization_count``
    at (lam, lam, lam); the test suite checks this symbolically.
    """
    if lam < 0:
        raise ValueError("exponent must be nonnegative")
    pv = p if p is not None else P
    one_p_p2 = 1 + pv + pv**2

    value = (
        -(pv**3) * _ext_value((lam - 1, lam - 1, lam - 1), p) ** 2
        + pv * one_p_p2 * _ext_value((lam, lam - 1, lam - 1), p) ** 2
        - one_p_p2 * _ext_value((lam, lam, lam - 1), p) ** 2
        + _ext_value((lam, lam, lam), p) ** 2
    )
    return FormulaResult(value, METHOD_EQUAL_EXPONENTS)
