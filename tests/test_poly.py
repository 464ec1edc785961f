import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgfactor import poly as poly_module
from pgfactor.poly import P, InexactDivision, IntPolynomial, from_packed, pack, render


def poly(*coeffs):
    """Build from ascending coefficients: poly(1, 2) is 2p + 1."""
    return IntPolynomial(coeffs)


def test_add_basic():
    assert poly(1, 1) + poly(0, 0, 1) == poly(1, 1, 1)


def test_add_zero_identity():
    x = poly(3, -2, 7)
    assert x + IntPolynomial.zero() == x
    assert IntPolynomial.zero() + x == x


def test_add_cancellation_normalizes():
    assert (poly(-1, 1) + poly(1, -1)) == IntPolynomial.zero()
    assert (poly(-1, 1) + poly(1, -1)).coeffs == ()


def test_mul_difference_of_squares():
    assert poly(-1, 1) * poly(1, 1) == poly(-1, 0, 1)


def test_mul_zero_absorbs():
    x = poly(5, 0, 2)
    assert x * IntPolynomial.zero() == IntPolynomial.zero()


def test_scale():
    assert -2 * poly(1, 0, 1) == poly(-2, 0, -2)
    assert poly(1, 0, 1) * -2 == poly(-2, 0, -2)


def test_sub():
    assert poly(4, 1) - poly(1, 1) == poly(3)
    assert 1 - P == poly(1, -1)


def test_eval_term_by_term():
    # 9p^6+15p^5+21p^4+16p^3+20p^2+11p+13 at p=2, expanded independently
    expected = 9 * 2**6 + 15 * 2**5 + 21 * 2**4 + 16 * 2**3 + 20 * 2**2 + 11 * 2 + 13
    assert expected == 1635
    assert poly(13, 11, 20, 16, 21, 15, 9).evaluate(2) == 1635


def test_eval_constant_and_identity():
    assert poly(13).evaluate(999) == 13
    assert P.evaluate(5) == 5
    assert IntPolynomial.zero().evaluate(7) == 0


def test_exact_div_simple():
    assert poly(-1, 0, 1).exact_div(poly(-1, 1)) == poly(1, 1)


def test_exact_div_derived_numerator():
    # (p-1)^3 (p+1)^2 (p+3) expanded must divide back out to p+3
    num = poly(-3, 2, 7, -4, -5, 2, 1)
    assert num == (P - 1) ** 3 * (P + 1) ** 2 * (P + 3)
    assert num.exact_div(P - 1).exact_div(P**2 - 1).exact_div(P**2 - 1) == P + 3


def test_exact_div_remainder_raises():
    with pytest.raises(InexactDivision):
        poly(1, 0, 1).exact_div(poly(-1, 1))


def test_exact_div_low_degree_raises():
    with pytest.raises(InexactDivision):
        (P + 1).exact_div(P**2 - 1)


def test_exact_div_by_zero():
    with pytest.raises(ValueError, match="p\\^k - 1"):
        (P + 1).exact_div(IntPolynomial.zero())


@pytest.mark.parametrize(
    "den",
    [0, 1, -1, P, P + 1, 2 * P - 2, P**2 - P, 1 - P, P**2 - 2, P**3 + P**2 - 1, 0.5],
    ids=["int-0", "1", "-1", "p", "p+1", "2p-2", "p^2-p", "1-p", "p^2-2", "p^3+p^2-1", "float"],
)
def test_exact_div_rejects_other_divisors(den):
    # every other divisor is rejected, even one that divides the numerator
    with pytest.raises(ValueError, match="p\\^k - 1"):
        ((P**2 - P) * (P**2 - 1)).exact_div(den)


def test_trailing_zeros_trimmed():
    assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)


def test_int_equality_and_hash():
    assert poly(7) == 7
    assert IntPolynomial.zero() == 0
    assert hash(poly(1, 2)) == hash(IntPolynomial((1, 2, 0)))
    assert (P == "p") is False


@pytest.mark.parametrize("c", [0, 5, -3])
def test_constant_hashes_as_its_int(c):
    constant = IntPolynomial((c,))
    assert constant == c
    assert hash(constant) == hash(c)
    assert len({constant, c}) == 1
    assert len({c, constant}) == 1


def test_sets_deduplicate_constants_and_ints():
    values = {IntPolynomial.zero(), 0, poly(5), 5, poly(-3), -3, P, poly(0, 1), 2 * P, poly(0, 2)}
    assert len(values) == 5


@pytest.mark.parametrize("coeffs", [[1.5], [2.0], [1, "3"], [Fraction(1, 2)]],
                         ids=["1.5", "2.0", "str", "fraction"])
def test_constructor_rejects_non_integers(coeffs):
    with pytest.raises(TypeError):
        IntPolynomial(coeffs)


def test_constructor_accepts_integer_types():
    assert IntPolynomial([True, 2]) == P * 2 + 1


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
@pytest.mark.parametrize("x", [poly(1, 2), IntPolynomial.zero(), poly(-7), poly(0, 0, 3)],
                         ids=["linear", "zero", "constant", "monomial"])
def test_pickle_round_trip(x, protocol):
    y = pickle.loads(pickle.dumps(x, protocol))
    assert type(y) is IntPolynomial
    assert (y, hash(y)) == (x, hash(x))


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy], ids=["copy", "deepcopy"])
@pytest.mark.parametrize("x", [poly(1, 2), IntPolynomial.zero()], ids=["linear", "zero"])
def test_copies_equal_the_original(x, duplicate):
    y = duplicate(x)
    assert type(y) is IntPolynomial
    assert (y, hash(y)) == (x, hash(x))


def test_coefficients_cannot_be_reassigned():
    x = poly(1, 2)
    with pytest.raises(AttributeError, match="immutable"):
        x.coeffs = (3,)
    assert x.coeffs == (1, 2)


@pytest.mark.parametrize(
    "op",
    [lambda x: P + x, lambda x: x + P, lambda x: P - x, lambda x: x - P, lambda x: P * x,
     lambda x: x * P],
    ids=["p+x", "x+p", "p-x", "x-p", "p*x", "x*p"],
)
def test_arithmetic_with_a_float_is_a_type_error(op):
    with pytest.raises(TypeError):
        op(0.5)


def test_pow():
    assert (P + 1) ** 0 == 1
    assert (P + 1) ** 2 == poly(1, 2, 1)
    with pytest.raises(ValueError):
        (P + 1) ** -1


def _random_poly(rng, max_deg=5, max_coeff=9):
    return IntPolynomial([rng.randint(-max_coeff, max_coeff) for _ in range(rng.randint(0, max_deg + 1))])


def test_ring_axioms_random():
    rng = random.Random(20240817)
    for _ in range(200):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_eval_is_ring_homomorphism():
    rng = random.Random(7)
    for _ in range(100):
        a, b = _random_poly(rng), _random_poly(rng)
        for x in (2, 3, 5, 7):
            assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)
            assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)


def test_exact_div_roundtrip_random():
    # eq3's divisor (p-1)(p^2-1)^2 comes off one factor at a time, in either order
    rng = random.Random(99)
    for _ in range(200):
        q = _random_poly(rng)
        num = q * (P - 1) * (P**2 - 1) ** 2
        assert num.exact_div(P - 1).exact_div(P**2 - 1).exact_div(P**2 - 1) == q
        assert num.exact_div(P**2 - 1).exact_div(P**2 - 1).exact_div(P - 1) == q


def schoolbook(a, b):
    """Reference product of two IntPolynomials, term by term."""
    out = [0] * max(len(a.coeffs) + len(b.coeffs) - 1, 0)
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            out[i + j] += ca * cb
    return IntPolynomial(out)


@st.composite
def polys(draw, max_len=80):
    """Operands for both product rules: lengths 0..80, coefficients up to
    2^300 in size with mixed signs, zeros anywhere, and single terms c*p^d."""
    bits = draw(st.sampled_from((1, 8, 64, 300)))
    bound = 1 << bits
    if draw(st.booleans()):
        length = draw(st.integers(0, max_len))
        coeff = st.one_of(st.just(0), st.integers(-bound, bound))
        return IntPolynomial(draw(st.lists(coeff, min_size=length, max_size=length)))
    degree = draw(st.integers(0, max_len))
    return draw(st.integers(-bound, bound)) * P ** degree


@pytest.fixture
def packed(monkeypatch):
    """Record, for each packed product, whether it is a square of one tuple."""
    calls = []
    kronecker = poly_module._kronecker_product

    def recording(a, b):
        calls.append(b is a)
        return kronecker(a, b)

    monkeypatch.setattr(poly_module, "_kronecker_product", recording)
    return calls


def test_dense_products_are_packed(packed):
    a = IntPolynomial((-1) ** i * (i + 1) << 300 for i in range(40))
    b = IntPolynomial(range(-20, 20))
    assert a * b == schoolbook(a, b)
    assert a ** 2 == schoolbook(a, a)
    assert packed == [False, True]  # the square packs its operand once


BIG = 3 ** 190  # a 302-bit coefficient


@pytest.mark.parametrize(
    "term",
    [poly(5), poly(-7), poly(BIG), poly(-BIG), 4 * P ** 3, -BIG * P ** 9, P, 11, -BIG],
    ids=["5", "-7", "big", "-big", "4p^3", "-big*p^9", "p", "int", "-big-int"],
)
@pytest.mark.parametrize(
    "other",
    [P + 1, poly(BIG, 0, -BIG), IntPolynomial(range(-20, 20)), poly(3), 2 * P ** 4],
    ids=["p+1", "big-2-term", "dense40", "constant", "2p^4"],
)
def test_single_term_products_scale_and_shift(packed, term, other):
    reference = schoolbook(IntPolynomial._coerce(term), other)
    assert term * other == reference
    assert other * term == reference
    assert packed == []


@pytest.mark.parametrize(
    "a,b",
    [
        (P + 1, P - 1),
        (poly(BIG, -BIG), poly(-BIG, 0, BIG)),
        (poly(1, 0, 0, 1), P ** 2 - 1),
        (IntPolynomial(range(1, 41)), poly(BIG, 1)),
    ],
    ids=["(p+1)(p-1)", "big-2x2-term", "sparse", "dense40-big"],
)
def test_multi_term_products_pack(packed, a, b):
    assert a * b == schoolbook(a, b)
    assert b * a == schoolbook(a, b)
    assert a * a == schoolbook(a, a)
    assert packed == [False, False, True]


@settings(deadline=None, max_examples=200)
@given(polys(), polys())
def test_mul_matches_schoolbook(a, b):
    assert a * b == schoolbook(a, b)
    assert b * a == a * b
    assert a * a == schoolbook(a, a)


@settings(deadline=None, max_examples=60)
@given(polys(max_len=30), st.integers(0, 6))
def test_pow_matches_repeated_product(a, n):
    expected = IntPolynomial((1,))
    for _ in range(n):
        expected = schoolbook(expected, a)
    assert a ** n == expected


@settings(deadline=None, max_examples=200)
@given(polys(), st.lists(st.integers(1, 4), min_size=1, max_size=4))
def test_exact_div_undoes_mul(q, ks):
    # a product of several p^k - 1 factors divides back out one factor at a time
    num = q
    for k in ks:
        num = num * (P**k - 1)
    for k in reversed(ks):
        num = num.exact_div(P**k - 1)
    assert num == q


@settings(deadline=None, max_examples=200)
@given(polys(max_len=60), st.integers(1, 3), st.data())
def test_exact_div_pk_minus_one_undoes_mul(q, k, data):
    den = P**k - 1
    num = q * den
    assert num.exact_div(den) == q
    coeff = st.one_of(st.just(0), st.integers(-(1 << 64), 1 << 64))
    r = IntPolynomial(data.draw(st.lists(coeff, min_size=k, max_size=k)))
    if r:
        with pytest.raises(InexactDivision):
            (num + r).exact_div(den)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_exact_div_checks_every_remainder_slot(k):
    num = (P**5 - 2 * P + 7) * (P**k - 1)
    for slot in range(k):
        for c in (1, -1, BIG):
            with pytest.raises(InexactDivision):
                (num + c * P**slot).exact_div(P**k - 1)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_exact_div_of_zero(k):
    assert IntPolynomial.zero().exact_div(P**k - 1) == IntPolynomial.zero()


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 9), st.data())
def test_from_packed_reads_the_value_at_a_power_of_256(width, data):
    top = (1 << (8 * width - 1)) - 1
    coeff = st.one_of(st.sampled_from((0, 1, -1, top, -top)), st.integers(-top, top))
    f = IntPolynomial(data.draw(st.lists(coeff, max_size=40)))
    assert from_packed(f.evaluate(1 << 8 * width), width) == f
    assert pack(f.coeffs, width) == f.evaluate(1 << 8 * width)
    assert from_packed(pack(f.coeffs, width), width) == f


@pytest.mark.parametrize("width", [1, 2, 5, 9])
@pytest.mark.parametrize(
    "digits",
    [(), (1,), (-1,), ("top",), ("-top",), (0, 0, -1), (3, -2), ("top", "-top", "top"),
     ("-top",) * 6, ("top",) * 6, ("-top", 0, 0, "top"), (1, 0, "-top"), ("top", -1, 0, -1)],
    ids=lambda d: ",".join(map(str, d)) or "zero",
)
def test_from_packed_reads_extreme_and_negative_digits(width, digits):
    # the largest digits a width holds, negative leading digits, zero and constants
    top = (1 << (8 * width - 1)) - 1
    f = IntPolynomial({"top": top, "-top": -top}.get(d, d) for d in digits)
    assert from_packed(f.evaluate(1 << 8 * width), width) == f
    assert pack(f.coeffs, width) == f.evaluate(1 << 8 * width)
    assert from_packed(pack(f.coeffs, width), width) == f


@pytest.mark.parametrize("x", [P + 1, IntPolynomial(range(1, 31))], ids=["p+1", "dense30"])
@pytest.mark.parametrize("n", range(1, 10))
def test_pow_products_by_binary_expansion(dense_products, x, n):
    # one squaring per bit below the top one, one product per further set bit
    result = x ** n
    assert len(dense_products) == n.bit_length() + bin(n).count("1") - 2
    assert result.coeffs[-1] == x.coeffs[-1] ** n


def test_single_term_powers_take_no_products(dense_products):
    assert P ** 1000 == IntPolynomial((0,) * 1000 + (1,))
    assert (3 * P ** 5) ** 7 == 3 ** 7 * P ** 35
    assert dense_products == []


@pytest.mark.parametrize(
    "coeffs,expected",
    [
        ((), "0"),
        ((0, 1), "p"),
        ((0, -1), "-p"),
        ((-1, 0, 1), "p^2-1"),
        ((-2, 0, -2), "-2p^2-2"),
        ((3, 1), "p+3"),
        ((4, 2, 2), "2p^2+2p+4"),
        ((13, 11, 20, 16, 21, 15, 9), "9p^6+15p^5+21p^4+16p^3+20p^2+11p+13"),
        ((7,), "7"),
        ((0, 0, 0, 1), "p^3"),
    ],
)
def test_render(coeffs, expected):
    assert render(IntPolynomial(coeffs)) == expected
    assert str(IntPolynomial(coeffs)) == expected
