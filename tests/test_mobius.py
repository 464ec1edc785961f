import random
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgfactor import mobius
from pgfactor.grouptype import GroupType, p_valuation
from pgfactor.mobius import (
    InvalidSubspace,
    _det,
    _orbit_groups,
    _rref_bases,
    enumerate_subspaces,
    factorization_count_mobius,
    gaussian_binomial,
    hall_mobius,
    quotient_type,
    quotient_type_census,
    reference_census,
    smith_normal_form,
)
from pgfactor.formulas import factorization_count
from pgfactor.oracle import build_group, quotient_type_mod
from pgfactor.poly import P
from test_formulas import theorem3_by_polynomials
from test_oracle import SMALL_GROUPS


def test_gaussian_binomial_known_values():
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(3, 2, 2) == 7
    assert gaussian_binomial(4, 0, 5) == 1
    assert gaussian_binomial(2, 1, 3) == 4


def test_gaussian_binomial_symmetry():
    for n in range(5):
        for k in range(n + 1):
            for p in (2, 3, 5):
                assert gaussian_binomial(n, k, p) == gaussian_binomial(n, n - k, p)


def test_gaussian_binomial_out_of_range():
    with pytest.raises(ValueError):
        gaussian_binomial(2, 3, 2)


def test_enumerate_subspaces_out_of_range():
    with pytest.raises(ValueError, match="0 <= k <= r"):
        enumerate_subspaces(2, 3, 5)


def test_enumerate_lines_of_f2_squared():
    spaces = enumerate_subspaces(2, 1, 2)
    assert set(spaces) == {((1, 0),), ((0, 1),), ((1, 1),)}


def test_enumerate_full_space_is_identity_basis():
    for p in (2, 3, 5):
        (space,) = enumerate_subspaces(3, 3, p)
        assert space == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_enumerate_counts_match_gaussian_binomial():
    for r in range(4):
        for k in range(r + 1):
            for p in (2, 3, 5):
                spaces = enumerate_subspaces(r, k, p)
                assert len(spaces) == gaussian_binomial(r, k, p)
                assert len(set(spaces)) == len(spaces)


def test_enumerate_is_deterministic_and_sorted():
    a = enumerate_subspaces(3, 2, 3)
    b = enumerate_subspaces(3, 2, 3)
    assert a == b
    assert a == sorted(a)


def test_enumerate_rows_are_canonical_echelon():
    for spaces, r in ((enumerate_subspaces(3, 1, 3), 3), (enumerate_subspaces(3, 2, 2), 3)):
        for s in spaces:
            pivots = []
            for row in s:
                lead = next(i for i, v in enumerate(row) if v)
                assert row[lead] == 1
                pivots.append(lead)
                # entries above a pivot vanish
                for other in s:
                    if other is not row and other[lead] != 0:
                        raise AssertionError(f"pivot column not clean in {s}")
            assert pivots == sorted(pivots)
            assert len(set(pivots)) == len(pivots)


def test_snf_hand_cases():
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[0, 0], [0, 0]]) == [0, 0]
    assert smith_normal_form([[4, 0, 0], [0, 2, 0]]) == [2, 4]
    assert smith_normal_form([[2, 4], [1, 2]]) == [1, 0]
    assert smith_normal_form([[6, -4, 10]]) == [2]
    assert smith_normal_form([[0], [9], [-6]]) == [3]


def test_snf_computes_no_minor_past_the_rank(monkeypatch):
    # every 1 x 1 minor of a zero 4 x 5 matrix vanishes, so the rank is 0 and
    # none of the 105 larger minors is expanded
    calls = []
    det = mobius._det
    monkeypatch.setattr(mobius, "_det", lambda matrix: calls.append(matrix) or det(matrix))
    assert smith_normal_form([[0] * 5] * 4) == [0] * 4
    assert len(calls) == 20


def test_snf_divisibility_chain():
    rng = random.Random(424242)
    for _ in range(150):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        matrix = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        diag = smith_normal_form(matrix)
        nonzero = [d for d in diag if d]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        assert diag == nonzero + [0] * (len(diag) - len(nonzero))


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _draw_unimodular(data, n):
    """n x n identity after random elementary row operations, so of determinant +-1.

    (i, i, _) negates row i; (i, j, k) with i != j adds k times row j to row i.
    """
    index = st.integers(0, n - 1)
    ops = data.draw(st.lists(st.tuples(index, index, st.integers(-3, 3)), max_size=8))
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, k in ops:
        u[i] = [-x for x in u[i]] if i == j else [x + k * y for x, y in zip(u[i], u[j])]
    return u


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_snf_invariant_under_unimodular_transforms(data):
    m, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
    row = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    matrix = data.draw(st.lists(row, min_size=m, max_size=m))
    u, v = _draw_unimodular(data, m), _draw_unimodular(data, n)
    assert abs(_det(u)) == abs(_det(v)) == 1
    diag = smith_normal_form(matrix)
    assert smith_normal_form(_matmul(_matmul(u, matrix), v)) == diag
    nonzero = [d for d in diag if d]
    assert diag == nonzero + [0] * (len(diag) - len(nonzero))
    assert all(d > 0 for d in nonzero)
    assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))


def test_hall_mobius_values():
    assert hall_mobius(GroupType((1, 1, 1)), 2) == -8
    assert hall_mobius(GroupType((1, 1, 1)), 3) == -27
    assert hall_mobius(GroupType((1, 1, 0)), 5) == 5
    assert hall_mobius(GroupType((1, 0, 0)), 7) == -1
    assert hall_mobius(GroupType((2, 1, 0)), 2) == 0
    assert hall_mobius(GroupType((0, 0, 0)), 3) == 1


def _snf_quotient_type(t, subspace, p):
    """Reference typing: G / E^ is the cokernel of the integer matrix whose columns
    are the relation vectors p^(e_j) e_j and the lifted basis vectors, and its type
    is read off the p-valuations of the Smith normal form diagonal."""
    r = t.rank
    if r == 0:
        return GroupType((0, 0, 0))
    exps = t[:r]
    cols = []
    for j in range(r):
        col = [0] * r
        col[j] = p ** exps[j]
        cols.append(col)
    for row in subspace:
        cols.append([row[j] * p ** (exps[j] - 1) for j in range(r)])
    matrix = [[cols[c][i] for c in range(len(cols))] for i in range(r)]
    diag = smith_normal_form(matrix)
    vals = sorted((p_valuation(d, p) for d in diag if d), reverse=True)
    vals += [0] * (3 - len(vals))
    return GroupType(vals[:3])


def test_quotient_type_matches_snf_reference():
    types = [GroupType((e1, e2, e3))
             for e1 in range(6) for e2 in range(e1 + 1) for e3 in range(e2 + 1)]
    typed = 0
    for p in (2, 3, 5, 7):
        for t in types:
            for k in range(t.rank + 1):
                for s in enumerate_subspaces(t.rank, k, p):
                    assert quotient_type(t, s, p) == _snf_quotient_type(t, s, p), (t, p, s)
                    typed += 1
    assert typed == 8319


def _lifted_subgroup(g, t, subspace):
    """The mask of E^ in the oracle's element indexing: all F_p-combinations of the lifted rows.

    Socle coordinate j lifts to p^(e_j - 1) in the j-th factor; element
    (y1, y2, y3) is bit (y1 m2 + y2) m3 + y3.
    """
    p = g.p
    m1, m2, m3 = g.moduli
    lifts = [[row[j] * p ** (t[j] - 1) for j in range(t.rank)] + [0] * (3 - t.rank)
             for row in subspace]
    members = 0
    for coeffs in product(range(p), repeat=len(lifts)):
        y1, y2, y3 = (sum(c * v[j] for c, v in zip(coeffs, lifts)) % m
                      for j, m in enumerate((m1, m2, m3)))
        members |= 1 << ((y1 * m2 + y2) * m3 + y3)
    return members


@pytest.mark.parametrize("exps,p", SMALL_GROUPS)
def test_quotient_type_matches_oracle_on_lifted_subgroups(exps, p):
    t = GroupType(exps)
    g = build_group(t, p)
    for k in range(t.rank + 1):
        for s in enumerate_subspaces(t.rank, k, p):
            H = _lifted_subgroup(g, t, s)
            assert H.bit_count() == p ** len(s)
            assert quotient_type(t, s, p) == quotient_type_mod(g, H), (s,)


def test_quotient_by_line_of_elementary():
    for p in (2, 3):
        for line in enumerate_subspaces(3, 1, p):
            assert quotient_type(GroupType((1, 1, 1)), line, p) == GroupType((1, 1, 0))


def test_quotient_hand_checked_lifts():
    t = GroupType((3, 2, 1))
    e3 = ((0, 0, 1),)
    e1 = ((1, 0, 0),)
    for p in (2, 3):
        # lift of e3 is the full last factor; quotient drops it
        assert quotient_type(t, e3, p) == GroupType((3, 2, 0))
        # lift of e1 is p^2 * (first generator); quotient shrinks that factor
        assert quotient_type(t, e1, p) == GroupType((2, 2, 1))


def test_quotient_by_full_socle_decrements_all():
    for p in (2, 3):
        full = enumerate_subspaces(3, 3, p)[0]
        assert quotient_type(GroupType((3, 2, 1)), full, p) == GroupType((2, 1, 0))
        for t in (GroupType((4, 2, 1)), GroupType((2, 2, 2)), GroupType((3, 3, 1))):
            shrunk = GroupType(e - 1 for e in t)
            assert quotient_type(t, full, p) == shrunk


def test_quotient_rejects_mismatched_subspace():
    for t, rows in (
        ((2, 1, 0), ((1, 0, 0),)),  # a row longer than the rank
        ((2, 1, 1), ((1, 0),)),  # a row shorter than the rank
        ((2, 1, 0), ((1, 0), (0, 1), (1, 1))),  # more rows than the rank
        ((0, 0, 0), ((),)),  # one empty row at rank 0
    ):
        with pytest.raises(InvalidSubspace):
            quotient_type(GroupType(t), rows, 2)


def test_quotient_rejects_dependent_rows():
    t = GroupType((2, 1, 0))
    for rows in (((1, 0), (1, 0)), ((3, 0),)):  # two rows for one line; a row that is zero mod 3
        with pytest.raises(InvalidSubspace, match="not independent mod 3"):
            quotient_type(t, rows, 3)
    # an independent basis need not be canonical
    assert quotient_type(t, ((1, 1), (0, 2)), 3) == GroupType((1, 0, 0))


def test_quotient_trivial_group():
    assert quotient_type(GroupType((0, 0, 0)), (), 3) == GroupType((0, 0, 0))


@pytest.mark.parametrize("t", [(2, 0, 0), (2, 1, 0), (3, 2, 1)])
def test_quotient_by_zero_subspace_fits_every_rank(t):
    assert quotient_type(GroupType(t), (), 3) == GroupType(t)


def test_census_examples():
    census = quotient_type_census(GroupType((3, 2, 1)), 1, 2)
    assert dict(census) == {
        GroupType((3, 2, 0)): 4,
        GroupType((3, 1, 1)): 2,
        GroupType((2, 2, 1)): 1,
    }
    census = quotient_type_census(GroupType((3, 2, 1)), 2, 2)
    assert dict(census) == {
        GroupType((3, 1, 0)): 4,
        GroupType((2, 2, 0)): 2,
        GroupType((2, 1, 1)): 1,
    }
    for p in (2, 3, 5):
        census = quotient_type_census(GroupType((1, 1, 1)), 1, p)
        assert dict(census) == {GroupType((1, 1, 0)): p * p + p + 1}


def test_census_totals():
    for p in (2, 3):
        for k in (1, 2):
            census = quotient_type_census(GroupType((4, 3, 2)), k, p)
            assert sum(count for _, count in census) == gaussian_binomial(3, k, p)


def test_census_matches_reference_on_grid():
    # every rank from 0 to 3 and every dimension from 0 to the rank
    types = [
        GroupType((e1, e2, e3))
        for e1 in range(5)
        for e2 in range(e1 + 1)
        for e3 in range(e2 + 1)
    ]
    for p in (2, 3):
        for t in types:
            for k in range(t.rank + 1):
                assert quotient_type_census(t, k, p) == reference_census(t, k, p), (t, k, p)


CENSUS_TYPES = [GroupType((e1, e2, e3))
                for e1 in range(9) for e2 in range(e1 + 1) for e3 in range(e2 + 1)]


def test_census_matches_reference_with_p_symbolic():
    # the closed form's cells against the torus orbits, as polynomials in p,
    # at every rank and every dimension (verify checks one prime at rank 3)
    cases = 0
    for t in CENSUS_TYPES:
        for k in range(t.rank + 1):
            assert reference_census(t, k, P) == quotient_type_census(t, k, P), (t, k)
            cases += 1
    assert cases == 605


def test_reference_census_counts_every_subspace():
    for p in (2, 3, 7):
        for t in CENSUS_TYPES:
            for k in range(t.rank + 1):
                assert sum(n for _, n in reference_census(t, k, p)) == gaussian_binomial(t.rank, k, p), (t, k, p)


@pytest.mark.parametrize("exps", [(0, 0, 0), (2, 0, 0), (2, 1, 0), (1, 1, 1)], ids=lambda e: f"rank{sum(map(bool, e))}")
def test_census_rejects_k_outside_0_to_rank(exps):
    t = GroupType(exps)
    for k in (-1, t.rank + 1):
        with pytest.raises(ValueError):
            quotient_type_census(t, k, 2)
        with pytest.raises(ValueError):
            reference_census(t, k, 2)


def test_mobius_sum_cyclic():
    for p in (2, 3, 5):
        assert factorization_count_mobius(GroupType((1, 0, 0)), p) == 3


def test_mobius_sum_reference_values():
    assert factorization_count_mobius(GroupType((3, 2, 1)), 2) == 1635
    # value of the (2,2,2) golden polynomial at p=3
    assert factorization_count_mobius(GroupType((2, 2, 2)), 3) == 67969


def test_mobius_sum_matches_closed_form():
    types = [
        GroupType((e1, e2, e3))
        for e1 in range(4)
        for e2 in range(e1 + 1)
        for e3 in range(e2 + 1)
    ]
    for p in (2, 3, 101, 1009):
        for t in types:
            assert factorization_count_mobius(t, p) == factorization_count(t, p).value
    # with p symbolic, as polynomials, for every type with e1 <= 8
    for e1 in range(9):
        for e2 in range(e1 + 1):
            for e3 in range(e2 + 1):
                t = GroupType((e1, e2, e3))
                assert factorization_count_mobius(t) == factorization_count(t).value, t


@settings(deadline=None)
@given(
    st.lists(st.integers(0, 8), min_size=3, max_size=3),
    st.sampled_from([2, 3, 5, 7, 11, 101, 1009, 65537, 10**9 + 7, 10**18 + 3]),
)
def test_mobius_sum_matches_closed_form_random(raw, p):
    t = GroupType(sorted(raw, reverse=True))
    assert factorization_count_mobius(t, p) == factorization_count(t, p).value


@pytest.mark.parametrize("exps", [(1000, 1000, 1000), (1000, 700, 300), (1000, 1000, 0), (1000, 999, 998)])
def test_mobius_sum_matches_closed_form_at_largest_accepted_input(exps):
    # the top exponent and the largest prime the CLI accepts; with p symbolic,
    # (1000,1000,1000) has theorem3's widest packed digits and (1000,999,998)
    # is the slowest cell
    t, p = GroupType(exps), 3317044064679887385961813
    assert factorization_count_mobius(t, p) == factorization_count(t, p).value
    assert factorization_count_mobius(t) == factorization_count(t).value


RANK3_TYPES = [
    GroupType((e1, e2, e3))
    for e1 in range(1, 5)
    for e2 in range(1, e1 + 1)
    for e3 in range(1, e2 + 1)
]


def _orbit_representatives(r, k, p):
    """(rows, nonzero, drops) for each torus orbit of k-dimensional subspaces of F_p^r.

    The canonical basis with every nonzero free entry set to 1, the number of
    those entries, and the exponent positions its quotient lowers at p, read
    off ``quotient_type``: exponents one apart stay in order when lowered,
    so t - quotient is the drops.
    """
    t = GroupType(5 - i if i < r else 0 for i in range(3))
    for rows, fill in _rref_bases(r, k, (0, 1)):
        yield rows, sum(fill), tuple(e - q for e, q in zip(t, quotient_type(t, rows, p)))


def _expanded_orbit_groups(r, k):
    """(drops, nonzero) -> number of orbits, read back from ``_orbit_groups(r)`` at dimension k."""
    expanded = Counter()
    for drops, dim, counts in _orbit_groups(r):
        if dim == k:
            for nonzero, n in enumerate(counts):
                expanded[drops, nonzero] += n
    return expanded


def test_orbit_groups_hold_one_orbit_per_zero_pattern():
    # one orbit per zero pattern: 16 at rank 3, 5 at rank 2
    assert sum(len(list(_rref_bases(3, k, (0, 1)))) for k in range(4)) == 16
    assert sum(len(list(_rref_bases(2, k, (0, 1)))) for k in range(3)) == 5
    for r, orbits in ((3, 16), (2, 5)):
        assert sum(sum(counts) for _, _, counts in _orbit_groups(r)) == orbits
    with pytest.raises(ValueError):
        _orbit_groups(4)


def test_orbit_group_sizes_sum_to_gaussian_binomial():
    for r in range(4):
        for k in range(r + 1):
            for p in (2, 3, 101, 10**9 + 7):
                sizes = sum((p - 1) ** sum(fill) for _, fill in _rref_bases(r, k, (0, 1)))
                assert sizes == gaussian_binomial(r, k, p)
                grouped = sum(sum(n * (p - 1) ** j for j, n in enumerate(counts))
                              for _, dim, counts in _orbit_groups(r) if dim == k)
                assert grouped == gaussian_binomial(r, k, p), (r, k, p)


def test_orbit_groups_are_built_once_per_rank():
    # one group per subset of the r positions that a quotient can lower
    for r in range(4):
        table = _orbit_groups(r)
        assert _orbit_groups(r) is table
        assert sorted(drops for drops, _, _ in table) == sorted(
            tuple(int(i in s) for i in range(3)) for k in range(r + 1) for s in combinations(range(r), k))


def test_orbit_groups_expand_to_the_orbit_table():
    for r in range(4):
        for k in range(r + 1):
            orbits = Counter((drops, nonzero) for _, nonzero, drops in _orbit_representatives(r, k, 2))
            assert _expanded_orbit_groups(r, k) == orbits, (r, k)


@pytest.mark.parametrize("t, types", [((5, 5, 5), 4), ((5, 5, 2), 6), ((5, 2, 2), 6), ((5, 3, 1), 8),
                                      ((5, 3, 0), 4), ((4, 4, 0), 3), ((5, 0, 0), 2)])
def test_mobius_sum_evaluates_each_distinct_quotient_type_once(monkeypatch, t, types):
    # one lowering per orbit group, at most 8 at rank 3 and 4 at rank 2, and
    # groups that lower to the same type share one count
    calls = []
    count = mobius._subgroup_count_value
    monkeypatch.setattr(mobius, "_subgroup_count_value", lambda q, p: calls.append(q) or count(q, p))
    t = GroupType(t)
    assert factorization_count_mobius(t, 61) == factorization_count(t, 61).value
    assert len(calls) == len(set(calls)) == types


PSTAR = 3317044064679887385961813


@st.composite
def small_ranked_types(draw):
    """Types of rank 0 to 3 with exponents up to 12; at rank 2 or 3 two neighbours
    are set equal 2 times in 3, so about a third of all examples have equal exponents."""
    rank = draw(st.integers(0, 3))
    exps = sorted(draw(st.lists(st.integers(1, 12), min_size=rank, max_size=rank)), reverse=True)
    if rank >= 2 and draw(st.integers(0, 2)):
        i = draw(st.integers(0, rank - 2))
        exps[i + 1] = exps[i]
    return GroupType(exps + [0] * (3 - rank))


@settings(deadline=None, max_examples=60)
@given(small_ranked_types(), st.sampled_from([2, 3, 61, 3001, PSTAR]))
def test_numeric_routes_match_theorem3_by_polynomials(t, p):
    expected = theorem3_by_polynomials(t).evaluate(p)
    assert factorization_count(t, p).value == expected
    assert factorization_count_mobius(t, p) == expected


def test_stored_drops_are_the_pivots_at_every_prime():
    # quotient_type reads the pivots at its own p; the table read them once
    # at p = 2 (test_orbit_groups_expand_to_the_orbit_table)
    for r in range(4):
        for k in range(r + 1):
            at_two = list(_orbit_representatives(r, k, 2))
            for p in (3, 5, 1000003, PSTAR):
                assert list(_orbit_representatives(r, k, p)) == at_two, (r, k, p)


def test_orbit_representative_has_every_members_quotient_type():
    for p in (3, 5, 7):
        for k in (1, 2):
            spaces = enumerate_subspaces(3, k, p)
            for t in RANK3_TYPES:
                for s in spaces:
                    rep = tuple(tuple(int(v != 0) for v in row) for row in s)
                    assert quotient_type(t, s, p) == quotient_type(t, rep, p), (t, s)


def test_orbit_census_matches_explicit_enumeration():
    for p in (2, 3, 5):
        for t in RANK3_TYPES:
            for k in (1, 2):
                explicit = Counter(quotient_type(t, s, p) for s in enumerate_subspaces(3, k, p))
                assert dict(quotient_type_census(t, k, p)) == dict(explicit)
