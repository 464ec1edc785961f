"""Closed forms for subgroup and factorization counts of rank <= 3 abelian p-groups.

Two quantities are computed, each either at a concrete prime (numeric mode)
or with p left symbolic (an IntPolynomial):

* ``subgroup_count``: the total number of subgroups of
  Z_{p^e1} x Z_{p^e2} x Z_{p^e3}, as an explicit rational expression in p
  whose numerator is divisible exactly by (p^2-1)^2 (p-1).

* ``factorization_count``: the number of ordered pairs (H, K) of subgroups
  with H + K equal to the whole group, obtained by Mobius inversion over
  the subgroup lattice; only elementary abelian subgroups contribute, which
  collapses the sum to eight squared subgroup counts with signed p-power
  weights.

The eight argument triples decrement exponents by one, so they may come out
unsorted (arguments are multisets and get re-sorted) or negative (the whole
term vanishes by convention; that convention is what reduces the rank-3
expression to the rank <= 2 case, and it is cross-validated against the
brute-force oracle rather than assumed).
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _count_numerator(e1: int, e2: int, e3: int, pv):
    """Numerator of the subgroup-count expression; ``pv`` is an int or P.

    Eleven terms; coefficients are linear in the exponents.  Terms whose
    p-powers coincide (which happens when exponents are equal or zero)
    simply add, which the polynomial/int arithmetic handles uniformly.
    """
    return (
        (e3 + 1) * (e1 - e2 + 1) * pv ** (e2 + e3 + 5)
        + 2 * (e3 + 1) * pv ** (e2 + e3 + 4)
        - 2 * (e3 + 1) * (e1 - e2) * pv ** (e2 + e3 + 3)
        - 2 * (e3 + 1) * pv ** (e2 + e3 + 2)
        + (e3 + 1) * (e1 - e2 - 1) * pv ** (e2 + e3 + 1)
        - (e1 + e2 - e3 + 3) * pv ** (2 * e3 + 4)
        - 2 * pv ** (2 * e3 + 3)
        + (e1 + e2 - e3 - 1) * pv ** (2 * e3 + 2)
        + (e1 + e2 + e3 + 5) * pv ** 2
        + 2 * pv
        - (e1 + e2 + e3 + 1)
    )


def _exact_quotient(num, den):
    if isinstance(num, IntPolynomial) or isinstance(den, IntPolynomial):
        if not isinstance(num, IntPolynomial):
            num = IntPolynomial.constant(num)
        return num.exact_div(den)
    q, r = divmod(num, den)
    if r:
        raise InexactDivision(f"{num} is not divisible by {den}")
    return q


def _subgroup_count_value(t: GroupType, p: "int | None"):
    pv = p if p is not None else P
    num = _count_numerator(*t.exponents, pv)
    den = (pv**2 - 1) ** 2 * (pv - 1)
    return _exact_quotient(num, den)


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


def factorization_count(t: GroupType, p: "int | None" = None) -> FormulaResult:
    """Ordered-pair factorization count via the eight-term closed form."""
    pv = p if p is not None else P
    e1, e2, e3 = t.exponents

    value = (
        -(pv**3) * _squared_count(e1 - 1, e2 - 1, e3 - 1, p)
        + pv
        * (
            _squared_count(e1 - 1, e2 - 1, e3, p)
            + pv * _squared_count(e1 - 1, e2, e3 - 1, p)
            + pv**2 * _squared_count(e1, e2 - 1, e3 - 1, p)
        )
        - (
            _squared_count(e1 - 1, e2, e3, p)
            + pv * _squared_count(e1, e2 - 1, e3, p)
            + pv**2 * _squared_count(e1, e2, e3 - 1, p)
        )
        + _squared_count(e1, e2, e3, p)
    )
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
