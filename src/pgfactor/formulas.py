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
  that the quotient lowers by one, so the sum collapses to eight squared
  subgroup counts with Hall-value weights.

Lowered triples may come out unsorted (arguments are multisets and get
re-sorted) or negative (the whole term vanishes by convention; that
convention is what reduces the rank-3 expression to the rank <= 2 case, and
it is cross-validated against the brute-force oracle rather than assumed).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations

from .grouptype import GroupType, normalize
from .poly import InexactDivision, IntPolynomial, P

# Method tags used in CLI output and reports.
METHOD_SUBGROUP_COUNT = "eq3"
METHOD_CLOSED_FORM = "theorem3"
METHOD_EQUAL_EXPONENTS = "corollary4"


@dataclass(frozen=True)
class FormulaResult:
    """Outcome of one closed-form evaluation: an exact int or a polynomial."""

    value: "int | IntPolynomial"
    method: str

    def render(self) -> str:
        return str(self.value)


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
    return _exact_quotient(_count_numerator(*t.exponents, p if p is not None else P), p)


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


def _squared_count(a: int, b: int, c: int, p: "int | None"):
    """Square of the subgroup count of type (a, b, c), zero when an entry is negative."""
    return _ext_value((a, b, c), p) ** 2


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


def factorization_count(t: GroupType, p: "int | None" = None) -> FormulaResult:
    """Ordered-pair factorization count: the Hall-weighted sum over the socle cells."""
    pv = p if p is not None else P
    e1, e2, e3 = t.exponents
    value = sum(_hall_value(k, pv) * pv**inv * _squared_count(e1 - d1, e2 - d2, e3 - d3, p)
                for k, (d1, d2, d3), inv in _CELLS)
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
        -(pv**3) * _squared_count(lam - 1, lam - 1, lam - 1, p)
        + pv * one_p_p2 * _squared_count(lam, lam - 1, lam - 1, p)
        - one_p_p2 * _squared_count(lam, lam, lam - 1, p)
        + _squared_count(lam, lam, lam, p)
    )
    return FormulaResult(value, METHOD_EQUAL_EXPONENTS)
