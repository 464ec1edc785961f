from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgfactor import formulas
from pgfactor.cli import MAX_EXPONENT
from pgfactor.formulas import (
    _CELLS,
    _count_at_one,
    _count_numerator,
    _exact_quotient,
    _hall_value,
    factorization_count,
    factorization_count_equal_exponents,
    subgroup_count,
    subgroup_count_ext,
)
from pgfactor.grouptype import GroupType, normalize
from pgfactor.mobius import gaussian_binomial, reference_census
from pgfactor.poly import InexactDivision, IntPolynomial, P, from_packed

# Golden polynomial for type (3,2,1), cross-validated against the Mobius
# route and the brute-force oracle at p in {2,3}.
F2_321 = IntPolynomial((13, 11, 20, 16, 21, 15, 9))
# Golden polynomial for type (2,2,2).  All three computation routes agree
# on the 8p^7 term (e.g. the explicit lattice of Z_4 x Z_4 x Z_4 yields
# F2 = 4387 = value at p=2).
F2_222 = IntPolynomial((13, 11, 20, 16, 21, 15, 16, 8, 5))
# Expansion of the Mobius sum for (1,1,1) over the subspaces of F_p^3 with
# subgroup counts 2p^2+2p+4 / p+3 / 2 / 1 and weights 1 / -1 / p / -p^3.
F2_111 = IntPolynomial((7, 5, 8, 4, 3))

GRID_TYPES = [
    GroupType((e1, e2, e3))
    for e1 in range(5)
    for e2 in range(e1 + 1)
    for e3 in range(e2 + 1)
]


def test_count_elementary_rank3_symbolic():
    # trivial + lines + planes + whole of F_p^3
    result = subgroup_count(GroupType((1, 1, 1)))
    assert result.value == IntPolynomial((4, 2, 2))
    for p in (2, 3, 5):
        assert result.value.evaluate(p) == 2 + 2 * gaussian_binomial(3, 1, p)


def test_count_321_at_2():
    assert subgroup_count(GroupType((3, 2, 1)), 2).value == 81


def test_count_rank2_symbolic():
    # Z_p x Z_p: trivial + (p+1) lines + whole
    assert subgroup_count(GroupType((1, 1, 0))).value == IntPolynomial((3, 1))


def test_count_cyclic():
    for p in (2, 3, 5):
        assert subgroup_count(GroupType((2, 0, 0)), p).value == 3
    assert subgroup_count(GroupType((2, 0, 0))).value == 3


def test_count_trivial_group():
    assert subgroup_count(GroupType((0, 0, 0)), 7).value == 1


def test_ext_negative_is_zero():
    assert subgroup_count_ext((1, 0, -1), 5).value == 0
    symbolic = subgroup_count_ext((1, 0, -1)).value
    assert isinstance(symbolic, IntPolynomial) and not symbolic


def test_ext_sorts_arguments():
    assert subgroup_count_ext((0, 1, 1)).value == IntPolynomial((3, 1))
    assert subgroup_count_ext((0, 0, 0), 3).value == 1


def test_ext_takes_only_int_entries():
    with pytest.raises(ValueError):
        subgroup_count_ext((2.9, 1, 0), 2)


@pytest.mark.parametrize("lam", [2.5, True])
def test_equal_exponent_takes_only_an_int(lam):
    with pytest.raises(ValueError):
        factorization_count_equal_exponents(lam, 2)


def test_factorization_golden_321():
    assert factorization_count(GroupType((3, 2, 1))).value == F2_321
    assert str(factorization_count(GroupType((3, 2, 1))).value) == "9p^6+15p^5+21p^4+16p^3+20p^2+11p+13"


def test_factorization_golden_222():
    assert factorization_count(GroupType((2, 2, 2))).value == F2_222


def test_factorization_111():
    assert factorization_count(GroupType((1, 1, 1))).value == F2_111
    assert factorization_count(GroupType((1, 1, 1)), 2).value == 129


def test_factorization_cyclic():
    # ordered pairs (a, b) of exponents with max(a, b) = e1
    for e1 in range(5):
        expected = 2 * e1 + 1
        t = GroupType((e1, 0, 0))
        assert factorization_count(t).value == expected
        for p in (2, 3, 5):
            assert factorization_count(t, p).value == expected


def test_socle_cells_are_the_subsets_of_three_positions():
    # _CELLS[k] holds the cells of dimension k, one per set of k positions
    assert len(_CELLS) == 4
    assert sorted(drop for cells in _CELLS for drop, _ in cells) == sorted(product((0, 1), repeat=3))
    assert all(k == sum(drop) for k, cells in enumerate(_CELLS) for drop, _ in cells)


def test_socle_cells_count_the_subspaces_of_each_dimension():
    for p in (2, 3, 5, 7, 101):
        for k in range(4):
            cells = sum(p**inv for _, inv in _CELLS[k])
            assert cells == gaussian_binomial(3, k, p), (p, k)


def test_hall_value_numeric_and_symbolic():
    assert [_hall_value(n, 3) for n in range(4)] == [1, -1, 3, -27]
    assert [_hall_value(n, P) for n in range(4)] == [1, -1, P, -(P**3)]


def test_equal_exponent_form_matches_general():
    for lam in range(5):
        special = factorization_count_equal_exponents(lam).value
        general = factorization_count(GroupType((lam, lam, lam))).value
        assert special == general


def test_equal_exponent_golden():
    assert factorization_count_equal_exponents(2).value == F2_222
    assert factorization_count_equal_exponents(1).value == F2_111
    assert factorization_count_equal_exponents(0).value == 1


def test_equal_exponent_rejects_negative():
    with pytest.raises(ValueError):
        factorization_count_equal_exponents(-1)


def dense_numerator(e1, e2, e3, pv):
    """Eq3's numerator as its eleven terms c * p^k, the reference for the three runs."""
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


NUMERATOR_TYPES = [
    (e1, e2, e3) for e1 in range(13) for e2 in range(e1 + 1) for e3 in range(e2 + 1)
] + [
    (MAX_EXPONENT, MAX_EXPONENT, MAX_EXPONENT), (MAX_EXPONENT, MAX_EXPONENT - 1, MAX_EXPONENT - 2),
    (MAX_EXPONENT, MAX_EXPONENT, 0), (MAX_EXPONENT, 500, 499), (MAX_EXPONENT - 1, 1, 1),
    (MAX_EXPONENT, 0, 0),
]


def test_numerator_runs_match_the_dense_terms():
    for t in NUMERATOR_TYPES:
        assert _count_numerator(*t, P) == dense_numerator(*t, P), t


@pytest.mark.parametrize("p", [2, 3, 10**9 + 7])
def test_numerator_runs_match_the_dense_terms_numerically(p):
    for t in NUMERATOR_TYPES:
        assert _count_numerator(*t, p) == dense_numerator(*t, p), t


def test_inexact_quotient_raises_in_both_modes():
    num = dense_numerator(3, 2, 1, P)
    assert _exact_quotient(num, None) == subgroup_count(GroupType((3, 2, 1))).value
    assert _exact_quotient(num.evaluate(3), 3) == subgroup_count(GroupType((3, 2, 1)), 3).value
    with pytest.raises(InexactDivision):
        _exact_quotient(num + 1, None)
    with pytest.raises(InexactDivision):
        _exact_quotient(num.evaluate(3) + 1, 3)


@pytest.mark.parametrize("t", [(5, 3, 1), (4, 4, 0), (4, 0, 0)])
@pytest.mark.parametrize("run, i", [(run, i) for run, size in enumerate((5, 3, 3)) for i in range(size)])
def test_a_changed_run_coefficient_raises(monkeypatch, t, run, i):
    # adding p^k to the numerator leaves it indivisible by (p^2-1)^2 (p-1):
    # c(1)'s sums, the polynomial division and the numeric one all say so
    runs = formulas._numerator_runs

    def changed(*exps):
        result = [(shift, list(coeffs)) for shift, coeffs in runs(*exps)]
        result[run][1][i] += 1
        return result

    monkeypatch.setattr(formulas, "_numerator_runs", changed)
    t = GroupType(t)
    for compute in (_count_at_one, factorization_count, subgroup_count, lambda t: subgroup_count(t, 7)):
        with pytest.raises(InexactDivision):
            compute(t)


def assert_width_premises(t):
    # theorem3's width rests on sum_i c_i^2 <= c(1)^2, which needs every
    # coefficient of a subgroup count c to be nonnegative, and on c(1) as
    # read off the numerator's runs
    count = subgroup_count(t).value
    assert min(count.coeffs) >= 0, t
    assert _count_at_one(t) == count.evaluate(1), t


def test_subgroup_counts_are_nonnegative_with_c1_off_the_runs():
    for t in GRID_TYPES + [GroupType(t) for t in NUMERATOR_TYPES]:
        assert_width_premises(t)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(0, MAX_EXPONENT), min_size=3, max_size=3).map(normalize))
def test_subgroup_counts_are_nonnegative_with_c1_off_the_runs_up_to_the_largest_exponent(t):
    assert_width_premises(t)


def test_symbolic_theorem3_width_bounds_every_coefficient(monkeypatch):
    # the width from c(1) is never below the one from sum over the types of
    # n(1) sum_i c_i^2, which bounds every coefficient of F2
    widths = []
    monkeypatch.setattr(formulas, "from_packed", lambda value, width: widths.append(width) or from_packed(value, width))
    for t in GRID_TYPES + [GroupType(t) for t in NUMERATOR_TYPES[-6:]] + [GroupType((200, 200, 198))]:
        widths.clear()
        factorization_count(t)
        bound = sum(n.evaluate(1) * sum(c * c for c in subgroup_count(q).value.coeffs)
                    for k in range(t.rank + 1) for q, n in reference_census(t, k, P))
        assert len(widths) == 1 and 1 << 8 * widths[0] - 1 > bound, t


def test_symbolic_division_always_exact():
    # the count numerator must be divisible for every padded descending triple
    for t in GRID_TYPES:
        assert subgroup_count(t).value is not None


@pytest.mark.parametrize("p", [2, 3, 5])
def test_numeric_matches_symbolic_everywhere(p):
    for t in GRID_TYPES:
        assert subgroup_count(t).value.evaluate(p) == subgroup_count(t, p).value
        assert factorization_count(t).value.evaluate(p) == factorization_count(t, p).value
    for lam in range(5):
        sym = factorization_count_equal_exponents(lam).value
        num = factorization_count_equal_exponents(lam, p).value
        assert sym.evaluate(p) == num


@pytest.mark.parametrize("p", [2, 3])
def test_count_monotone_in_largest_exponent(p):
    for t in GRID_TYPES:
        e1, e2, e3 = t
        bigger = GroupType((e1 + 1, e2, e3))
        assert subgroup_count(t, p).value < subgroup_count(bigger, p).value


def test_method_tags():
    assert subgroup_count(GroupType((1, 1, 1))).method == "eq3"
    assert factorization_count(GroupType((1, 1, 1))).method == "theorem3"
    assert factorization_count_equal_exponents(1).method == "corollary4"


def test_formula_result_is_an_immutable_value_record():
    result = subgroup_count(GroupType((1, 1, 1)), 2)
    assert repr(result) == "FormulaResult(value=16, method='eq3')"
    assert (result.value, result.method) == (16, "eq3")
    for field in ("value", "method"):
        with pytest.raises(AttributeError):
            setattr(result, field, 0)
    again = subgroup_count(GroupType((1, 1, 1)), 2)
    assert again == result and hash(again) == hash(result)
    symbolic, again = (factorization_count(GroupType((2, 1, 0))) for _ in range(2))
    assert symbolic == again and hash(symbolic) == hash(again)


def test_unsorted_middle_arguments():
    # when e1 = e2 the decremented triples are unsorted multisets and must be
    # re-sorted before counting; equality of the two routes covers this
    for p in (2, 3):
        a = factorization_count(GroupType((2, 2, 1)), p).value
        b = factorization_count_equal_exponents(2, p).value  # different path
        assert isinstance(a, int) and a > 0
        assert factorization_count(GroupType((2, 2, 2)), p).value == b


# Exponents up to 60 make squared counts of up to 241 terms, far past the
# length at which IntPolynomial products are packed into one big int.
LARGE_TYPES = st.lists(st.integers(0, 60), min_size=3, max_size=3).map(normalize)


@settings(deadline=None, max_examples=60)
@given(LARGE_TYPES, st.sampled_from((2, 3, 7, 10**9 + 7)))
def test_symbolic_evaluates_to_numeric_at_large_exponents(t, p):
    assert factorization_count(t).value.evaluate(p) == factorization_count(t, p).value
    assert subgroup_count(t).value.evaluate(p) == subgroup_count(t, p).value


def theorem3_by_polynomials(t):
    """Reference: the Hall-weighted sum over the socle cells with every square
    taken by IntPolynomial arithmetic."""
    e1, e2, e3 = t
    return sum((_hall_value(k, P) * P**inv * subgroup_count_ext((e1 - d1, e2 - d2, e3 - d3)).value ** 2
                for k, cells in enumerate(_CELLS) for (d1, d2, d3), inv in cells), IntPolynomial.zero())


# Types of rank 0 to 3 with exponents up to 300: zero entries drop cells, and
# the widest digits come from the largest exponents.
RANKED_TYPES = st.integers(0, 3).flatmap(
    lambda rank: st.lists(st.integers(1, 300), min_size=rank, max_size=rank)
).map(lambda exps: normalize(exps + [0] * (3 - len(exps))))


@settings(deadline=None, max_examples=40)
@given(RANKED_TYPES)
def test_packed_theorem3_matches_polynomial_arithmetic(t):
    assert factorization_count(t).value == theorem3_by_polynomials(t)


@pytest.mark.parametrize("t, types", [((5, 5, 5), 4), ((5, 5, 2), 6), ((5, 2, 2), 6),
                                      ((5, 3, 1), 8), ((5, 3, 0), 4), ((5, 0, 0), 2)])
def test_theorem3_squares_once_per_distinct_quotient_type(monkeypatch, t, types):
    # cells that lower to the same type share one count: 4 distinct types at
    # (l,l,l), 6 at (l,l,m) or (l,m,m), 8 at distinct exponents, fewer at rank <= 2
    calls = []
    count = formulas._subgroup_count_value
    monkeypatch.setattr(formulas, "_subgroup_count_value",
                        lambda q, p: calls.append(q) or count(q, p))
    factorization_count(GroupType(t), 7)
    assert len(calls) == types
    calls.clear()
    # with p symbolic: once, as an int at p = X = 2^(8w) in the sum whose digits are F2
    factorization_count(GroupType(t))
    assert len(calls) == types


POLYNOMIAL_ARITHMETIC = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                         "__pow__", "evaluate", "exact_div")


@pytest.mark.parametrize("t", [(0, 0, 0), (4, 0, 0), (3, 1, 0), (3, 2, 1), (2, 2, 2)])
def test_theorem3_reads_no_census_and_no_polynomial_before_from_packed(monkeypatch, t):
    # one pass over the cells for both modes reads no census, and with p
    # symbolic every weight is an int at X, so F2 is the first polynomial
    t = GroupType(t)
    expected = theorem3_by_polynomials(t)
    events = []
    for name in POLYNOMIAL_ARITHMETIC:
        method = getattr(IntPolynomial, name)
        monkeypatch.setattr(IntPolynomial, name,
                            lambda self, *args, name=name, method=method: events.append(name) or method(self, *args))
    monkeypatch.setattr(formulas, "from_packed",
                        lambda value, width: events.append("from_packed") or from_packed(value, width))
    factorization_count(t, 7)
    assert events == [], t
    assert factorization_count(t).value == expected
    assert events[0] == "from_packed", (t, events)


@pytest.mark.parametrize("t", [(1, 1, 1), (3, 2, 1), (60, 59, 58), (200, 200, 0)])
def test_symbolic_theorem3_squares_no_polynomial(dense_products, t):
    # the squared counts are taken on ints at p = 2^(8w), not as polynomials
    factorization_count(GroupType(t))
    assert dense_products == []


@pytest.mark.parametrize("t", [(0, 0, 0), (4, 0, 0), (3, 1, 0), (3, 2, 1)])
def test_symbolic_theorem3_divides_no_polynomial(monkeypatch, t):
    # theorem3 takes each count as an int at p = X; subgroup_count(t) still
    # divides its polynomial numerator by p-1, p^2-1 and p^2-1
    t = GroupType(t)
    expected = theorem3_by_polynomials(t)
    exact_div = IntPolynomial.exact_div

    def refuse(self, den):
        raise AssertionError(f"symbolic theorem3 divided {self!r} by {den!r}")

    monkeypatch.setattr(IntPolynomial, "exact_div", refuse)
    assert factorization_count(t).value == expected
    divisors = []
    monkeypatch.setattr(IntPolynomial, "exact_div", lambda self, den: divisors.append(den) or exact_div(self, den))
    subgroup_count(t)
    assert divisors == [P - 1, P**2 - 1, P**2 - 1]
