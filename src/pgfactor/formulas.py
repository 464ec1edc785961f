"""Closed forms for subgroup and factorization counts of rank <= 3 abelian p-groups.

Two quantities are computed, each either at a concrete prime (numeric mode)
or with p left symbolic (an IntPolynomial):

* ``subgroup_count``: the total number of subgroups of
  Z_{p^e1} x Z_{p^e2} x Z_{p^e3}, as an explicit rational expression in p
  whose numerator, three shifted runs of coefficients, is divisible exactly
  by (p^2-1)^2 (p-1); with p symbolic it is divided by p-1, p^2-1 and
  p^2-1 in turn, each division a running sum.

* ``factorization_count``: the number of ordered pairs (H, K) of subgroups
  with H + K equal to the whole group, obtained by Mobius inversion over
  the subgroup lattice.  Only elementary abelian subgroups contribute: the
  socle subspaces fall into eight cells, one per set S of exponent positions
  that the quotient lowers by one, so the sum collapses to Hall-weighted
  squared subgroup counts.  Cells that lower to the same type merge in one
  census (``_cell_census``), so each distinct quotient type is squared once.
  With p symbolic the sum is not built from polynomial products: it is
  evaluated once as an int at p = X = 2^(8w) and F2's coefficients are read
  off the balanced base-X digits of that value (Kronecker substitution).
  Cell by cell, F2 is a sum of terms +-p^j c^2, and each coefficient of c^2
  is at most sum_i c_i^2 in size (Cauchy-Schwarz), so every coefficient of
  F2 is at most the sum of sum_i c_i^2 over the cells; merging cells changes
  how F2 is computed, not that bound.  The width w is the least with
  2^(8w-1) above it, so no digit overflows into its neighbour and the
  digits are exactly the coefficients.

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


def _run(pv, shift: int, *run: int):
    """pv^shift * (run[0] + run[1] pv + ...), by Horner's rule; ``pv`` is an int or P."""
    acc = run[-1]
    for c in run[-2::-1]:
        acc = acc * pv + c
    return pv**shift * acc


def _count_numerator(e1: int, e2: int, e3: int, pv):
    """Numerator of the subgroup-count expression; ``pv`` is an int or P.

    Three runs of consecutive powers, at p^(e2+e3+1), p^(2e3+2) and p^0,
    with coefficients linear in the exponents.  Runs whose powers overlap
    (which happens when exponents are equal or zero) simply add.
    """
    a, d, s = e3 + 1, e1 - e2, e1 + e2 - e3
    return (_run(pv, e2 + e3 + 1, a * (d - 1), -2 * a, -2 * a * d, 2 * a, a * (d + 1))
            + _run(pv, 2 * e3 + 2, s - 1, -2, -(s + 3))
            + _run(pv, 0, -(s + 2 * e3 + 1), 2, s + 2 * e3 + 5))


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


# The socle cells (|S|, drop vector 1_S, inv(S)), one per set S of exponent
# positions: p^inv(S) socle subspaces of dimension |S| lower the exponents at S
# (Macdonald, Symmetric Functions and Hall Polynomials, ch. II), where
# inv(S) = #{(i, j): i < j, i not in S, j in S}.
_CELLS = tuple(
    (k, tuple(int(i in s) for i in range(3)), sum(i not in s for j in s for i in range(j)))
    for k in range(4)
    for s in combinations(range(3), k)
)


def _cell_census(t: GroupType, k: int, pv) -> Counter:
    """Quotient type -> number of k-dimensional socle subspaces giving it; ``pv`` is p or P.

    Each cell S with |S| = k adds pv**inv(S) to t lowered at S.  A cell that
    would lower a zero exponent holds no subspace (the rank <= 2 convention).
    """
    census = Counter()
    for size, drops, inv in _CELLS:
        if size == k:
            lowered = [e - d for e, d in zip(t, drops)]
            if min(lowered) >= 0:
                census[normalize(lowered)] += pv**inv
    return census


def factorization_count(t: GroupType, p: "int | None" = None) -> FormulaResult:
    """Ordered-pair factorization count: the Hall-weighted sum over the socle cells.

    One square per distinct quotient type q of ``_cell_census``, weighted by
    its number of subspaces n.  With ``p`` None the numeric sum is evaluated
    once at p = 2^(8w) and read back as a polynomial by ``from_packed``.  The
    width w is the least with 2^(8w-1) > sum over the types of
    n(1) * sum_i c_i^2, where c is the type's subgroup count as a polynomial
    and n(1) its number of cells: the cell-by-cell bound of the module
    docstring.  Every coefficient of F2 is at most that sum in size, so the
    balanced digits are F2's coefficients.
    """
    if p is None:
        bound = sum(n * sum(c * c for c in _subgroup_count_value(q, None).coeffs)
                    for k in range(t.rank + 1) for q, n in _cell_census(t, k, 1).items())
        width = bound.bit_length() // 8 + 1
        return FormulaResult(from_packed(factorization_count(t, 1 << 8 * width).value, width),
                             METHOD_CLOSED_FORM)
    value = sum(_hall_value(k, p) * n * _subgroup_count_value(q, p) ** 2
                for k in range(t.rank + 1) for q, n in _cell_census(t, k, p).items())
    return FormulaResult(value, METHOD_CLOSED_FORM)


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
