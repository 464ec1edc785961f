import functools
import os
import subprocess
import sys
from itertools import accumulate, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pgfactor
from pgfactor import oracle
from pgfactor.formulas import factorization_count, subgroup_count
from pgfactor.grouptype import GroupType, p_valuation, type_from_layers
from pgfactor.mobius import hall_mobius
from pgfactor.oracle import (
    GroupTooLarge,
    NotComparable,
    VerificationReport,
    all_subgroups,
    build_group,
    count_factorizations,
    interval_size,
    mobius_interval,
    quotient_type_mod,
    subgroup_type,
    verify_hall,
    verify_inversion_forms,
)


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mobius_from(start: int, ids, relation: list[int]) -> list[int]:
    """Dense reference: lattice Mobius values between ``start`` and each id, in one pass.

    Defined by mu(x, x) = 1 and, for x < y, the sum of mu(x, z) over
    x <= z <= y vanishing.  Walking ``ids`` upward over ``below`` gives
    mu(start, x); walking them downward over ``above`` gives mu(x, start).
    ``ids`` must list the interval's ids so that each comes after every id
    strictly between it and ``start``.  Ids outside the interval keep 0, so
    the sum over ``relation[x]`` counts only the interval.
    """
    mu = [0] * len(relation)
    mu[start] = 1
    for x in ids:
        if x != start:
            mu[x] = -sum(mu[y] for y in _iter_bits(relation[x]) if y != x)
    return mu


def _mobius_to_top(lattice):
    """Dense reference for mu(H, G): the downward recursion over ``above``.

    The same values as mobius_interval(lattice, H, top), which walks the
    other way; the tests check the two against each other.
    """
    n = len(lattice)
    return _mobius_from(n - 1, range(n - 1, -1, -1), lattice.above)


def _pair_count(g, lattice):
    """Reference F2: ordered pairs (H, K) with |H| |K| = |G| |H & K|, tested pair by pair."""
    subs = lattice.subgroups
    unordered = 0
    for a, H in enumerate(subs):
        for K in subs[a:]:
            unordered += H.order * K.order == g.order * (H.members & K.members).bit_count()
    return 2 * unordered - 1


def test_build_group_sizes():
    assert build_group(GroupType((1, 1, 0)), 2).order == 4
    assert build_group(GroupType((3, 2, 1)), 2).order == 64
    assert build_group(GroupType((0, 0, 0)), 5).order == 1


def test_build_group_identity_first():
    g = build_group(GroupType((2, 1, 0)), 3)
    assert g.omega[0] == 1  # Omega_0 = {0}: the identity is index 0
    assert all_subgroups(g).subgroups[0].members == 1


def test_build_group_cap():
    with pytest.raises(GroupTooLarge):
        build_group(GroupType((2, 2, 2)), 5, max_order=4096)
    # explicit override admits it in principle (not built here: too big to enumerate fast)
    assert build_group(GroupType((2, 2, 2)), 3, max_order=729).order == 729


def test_all_subgroups_klein_four():
    g = build_group(GroupType((1, 1, 0)), 2)
    assert len(all_subgroups(g)) == 5


def test_all_subgroups_cyclic_chain():
    g = build_group(GroupType((2, 0, 0)), 2)
    lat = all_subgroups(g)
    assert len(lat) == 3
    assert [s.order for s in lat.subgroups] == [1, 2, 4]


def test_all_subgroups_64():
    g = build_group(GroupType((3, 2, 1)), 2)
    assert len(all_subgroups(g)) == 81


@pytest.mark.parametrize("exps,p", [((2, 1, 0), 2), ((1, 1, 1), 2), ((2, 1, 1), 2), ((1, 1, 0), 3)])
def test_lattice_closed_under_meet_and_join(exps, p, lattice_cache):
    g, lat = lattice_cache(exps, p)
    masks = {s.members for s in lat.subgroups}
    order_of = {s.members: s.order for s in lat.subgroups}
    for a in lat.subgroups:
        for b in lat.subgroups:
            meet = a.members & b.members
            assert meet in masks
            target = a.order * b.order // order_of[meet]
            join_candidates = [
                m for m in masks if order_of[m] == target and (a.members | b.members) & ~m == 0
            ]
            assert len(join_candidates) == 1


def test_lattice_ids_sorted_and_bounded(lattice_cache):
    g, lat = lattice_cache((2, 2, 1), 2)
    orders = [s.order for s in lat.subgroups]
    assert orders == sorted(orders)
    assert lat.subgroups[0].order == 1
    assert lat.subgroups[-1].order == g.order
    assert all(s.id == i for i, s in enumerate(lat.subgroups))


def test_subgroup_type_whole_socle_trivial(lattice_cache):
    g, lat = lattice_cache((3, 2, 1), 2)
    assert subgroup_type(g, lat.subgroups[-1]) == GroupType((3, 2, 1))
    assert subgroup_type(g, lat.subgroups[0]) == GroupType((0, 0, 0))
    socle = [s for s in lat.subgroups if s.order == 8 and subgroup_type(g, s) == GroupType((1, 1, 1))]
    assert len(socle) == 1  # the unique elementary abelian subgroup of order p^3


def test_subgroup_type_census_consistency(lattice_cache):
    # every subgroup's own subgroup count must match the closed form
    g, lat = lattice_cache((2, 2, 1), 2)
    for H in lat.subgroups:
        t = subgroup_type(g, H)
        assert lat.below[H.id].bit_count() == subgroup_count(t, g.p).value


def test_count_factorizations_klein_four(lattice_cache):
    g, lat = lattice_cache((1, 1, 0), 2)
    # 9 ordered pairs involving the whole group plus 6 ordered pairs of
    # distinct lines: p^2 + 3p + 5 at p = 2
    assert count_factorizations(g, lat) == 15


def test_count_factorizations_cyclic(lattice_cache):
    g, lat = lattice_cache((3, 0, 0), 2)
    assert count_factorizations(g, lat) == 7


def test_count_factorizations_64(lattice_cache):
    g, lat = lattice_cache((3, 2, 1), 2)
    assert count_factorizations(g, lat) == 1635


def test_count_factorizations_ordered_pairs_definition(lattice_cache):
    # independent re-count with an explicit double loop over ordered pairs
    g, lat = lattice_cache((2, 1, 0), 3)
    subs = lat.subgroups
    direct = sum(
        1
        for a in subs
        for b in subs
        if a.order * b.order == g.order * (a.members & b.members).bit_count()
    )
    assert direct == count_factorizations(g, lat)


def test_interval_size(lattice_cache):
    g, lat = lattice_cache((3, 2, 1), 2)
    assert interval_size(lat, lat.subgroups[-1]) == 1
    assert interval_size(lat, lat.subgroups[0]) == len(lat)
    (socle,) = [
        s for s in lat.subgroups if s.order == 8 and subgroup_type(g, s) == GroupType((1, 1, 1))
    ]
    assert interval_size(lat, socle) == subgroup_count(GroupType((2, 1, 0)), 2).value


def test_mobius_interval_reflexive_and_chain(lattice_cache):
    g, lat = lattice_cache((2, 0, 0), 3)
    b, mid, top = lat.subgroups
    assert mobius_interval(lat, b, b) == 1
    assert mobius_interval(lat, b, mid) == -1
    assert mobius_interval(lat, b, top) == 0  # chain of length 2


def test_mobius_interval_socle(lattice_cache):
    g, lat = lattice_cache((3, 2, 1), 2)
    (socle,) = [
        s for s in lat.subgroups if s.order == 8 and subgroup_type(g, s) == GroupType((1, 1, 1))
    ]
    assert mobius_interval(lat, lat.subgroups[0], socle) == -8


def test_mobius_interval_not_comparable(lattice_cache):
    g, lat = lattice_cache((1, 1, 0), 2)
    lines = [s for s in lat.subgroups if s.order == 2]
    with pytest.raises(NotComparable):
        mobius_interval(lat, lines[0], lines[1])


def test_mobius_to_top_matches_recursive(lattice_cache):
    g, lat = lattice_cache((2, 2, 1), 2)
    mu = _mobius_to_top(lat)
    for H in lat.subgroups:
        assert mu[H.id] == mobius_interval(lat, H, lat.subgroups[-1])


@pytest.mark.parametrize(
    "exps,p",
    [((3, 2, 1), 2), ((1, 1, 0), 2), ((1, 1, 1), 3), ((2, 0, 0), 2), ((3, 0, 0), 3), ((2, 2, 1), 2)],
)
def test_verify_hall_passes(exps, p, lattice_cache):
    g, lat = lattice_cache(exps, p)
    report = verify_hall(g, lat)
    assert report.overall, [c for c in report.checks if c.status == "fail"]


def test_verify_hall_compares_subgroups_outside_omega1(monkeypatch, lattice_cache):
    # verify_hall types only the subgroups in Omega_1(G); a nonzero value
    # planted at one outside it must still count as a mismatch
    g, lat = lattice_cache((2, 1, 0), 3)
    omega1 = g.omega[1]
    outside = next(H for H in lat.subgroups if H.members & omega1 != H.members)
    real = oracle._sparse_mobius

    def planted(subgroups, upward, socle=-1):
        mu, sizes = real(subgroups, upward, socle)
        mu[outside.id] = 1
        return mu, sizes

    monkeypatch.setattr(oracle, "_sparse_mobius", planted)
    report = verify_hall(g, lat)
    assert not report.overall
    assert {c.name: c.actual for c in report.checks}["hall_mismatches"] == "1"


def test_verify_hall_compares_subgroups_inside_omega1(monkeypatch, lattice_cache):
    # verify_hall reads the expected value of an elementary abelian subgroup
    # from its rank; a wrong value planted at one must count as a mismatch
    g, lat = lattice_cache((2, 1, 0), 3)
    omega1 = g.omega[1]
    inside = next(H for H in lat.subgroups if H.order == 3 and H.members & omega1 == H.members)
    real = oracle._sparse_mobius

    def planted(subgroups, upward, socle=-1):
        mu, sizes = real(subgroups, upward, socle)
        mu[inside.id] += 1
        return mu, sizes

    monkeypatch.setattr(oracle, "_sparse_mobius", planted)
    report = verify_hall(g, lat)
    assert not report.overall
    assert {c.name: c.actual for c in report.checks}["hall_mismatches"] == "1"


def test_inversion_forms_read_subgroup_counts_from_the_recursion(monkeypatch, lattice_cache):
    # S1 takes |L(H)| from the downward pass's counts; one count planted off
    # by one at a nonzero mu(H, G) must fail S1 and leave S2 passing
    g, lat = lattice_cache((2, 1, 0), 3)
    real = oracle._sparse_mobius

    def planted(subgroups, upward, socle=-1):
        mu, sizes = real(subgroups, upward, socle)
        if not upward:
            sizes[next(i for i, v in enumerate(mu) if v)] += 1
        return mu, sizes

    monkeypatch.setattr(oracle, "_sparse_mobius", planted)
    status = {c.name: c.status for c in verify_inversion_forms(g, lat).checks}
    assert status == {"inversion_sum_subgroup_counts": "fail", "inversion_sum_quotient_counts": "pass"}


def test_hall_values_spotchecks(lattice_cache):
    g, lat = lattice_cache((1, 1, 0), 2)
    assert mobius_interval(lat, lat.subgroups[0], lat.subgroups[-1]) == 2  # (-1)^2 * 2^1
    g, lat = lattice_cache((2, 0, 0), 2)
    assert mobius_interval(lat, lat.subgroups[0], lat.subgroups[-1]) == 0  # not elementary abelian


def test_verification_report_records_checks_only():
    report = VerificationReport()
    report.add("same", 3, 3)
    assert report.overall
    report.add("differ", 3, 4)
    assert [(c.name, c.status) for c in report.checks] == [("same", "pass"), ("differ", "fail")]
    assert not report.overall


@pytest.mark.parametrize(
    "exps,p,expected",
    [((1, 1, 0), 2, 15), ((3, 0, 0), 2, 7), ((3, 2, 1), 2, 1635)],
)
def test_verify_inversion_forms(exps, p, expected, lattice_cache):
    g, lat = lattice_cache(exps, p)
    report = verify_inversion_forms(g, lat)
    assert report.overall
    assert count_factorizations(g, lat) == expected


@pytest.mark.parametrize("exps,p", [((3, 2, 1), 2), ((2, 2, 1), 3), ((1, 1, 1), 3)])
def test_mobius_duality_through_quotients(exps, p, lattice_cache):
    # mu(H, G) must equal the closed-form Mobius value of the quotient type
    g, lat = lattice_cache(exps, p)
    mu = _mobius_to_top(lat)
    for H in lat.subgroups:
        assert mu[H.id] == hall_mobius(quotient_type_mod(g, H), p)


def test_quotient_type_mod_spotchecks(lattice_cache):
    g, lat = lattice_cache((3, 2, 1), 2)
    assert quotient_type_mod(g, lat.subgroups[0]) == GroupType((3, 2, 1))
    assert quotient_type_mod(g, lat.subgroups[-1]) == GroupType((0, 0, 0))
    (socle,) = [
        s for s in lat.subgroups if s.order == 8 and subgroup_type(g, s) == GroupType((1, 1, 1))
    ]
    assert quotient_type_mod(g, socle) == GroupType((2, 1, 0))


@pytest.mark.parametrize("exps,p", [((2, 2, 2), 2), ((3, 1, 1), 2), ((2, 1, 1), 3)])
def test_lattice_size_matches_closed_form(exps, p, lattice_cache):
    g, lat = lattice_cache(exps, p)
    assert len(lat) == subgroup_count(GroupType(exps), p).value


@pytest.mark.parametrize("exps,p", [((2, 2, 2), 2), ((3, 1, 1), 2), ((2, 1, 1), 3)])
def test_factorizations_match_closed_form(exps, p, lattice_cache):
    g, lat = lattice_cache(exps, p)
    assert count_factorizations(g, lat) == factorization_count(GroupType(exps), p).value


def _element_table(g):
    """The elements of g as coordinate tuples in index order, and their index.

    Element (y1, y2, y3) is bit (y1 m2 + y2) m3 + y3 of a membership mask,
    which is the lexicographic order of the coordinates.
    """
    elements = list(product(*(range(m) for m in g.moduli)))
    return elements, {e: i for i, e in enumerate(elements)}


def _addition_table(g):
    """table[i][j] is the index of elements[i] + elements[j]."""
    elements, index = _element_table(g)
    return [
        [index[tuple((a + b) % m for a, b, m in zip(u, v, g.moduli))] for v in elements]
        for u in elements
    ]


def _member_sets(lat):
    return [frozenset(i for i in range(s.members.bit_length()) if (s.members >> i) & 1)
            for s in lat.subgroups]


def _naive_subgroups(g):
    """Every subgroup of g as a frozenset of element indices, without HNF.

    Breadth-first search from {0}: each step adds one element x to a known
    subgroup and closes the set under addition.
    """
    table = _addition_table(g)

    def close(gens):
        members = {0}
        frontier = [0]
        while frontier:
            y = frontier.pop()
            for s in gens:
                z = table[y][s]
                if z not in members:
                    members.add(z)
                    frontier.append(z)
        return frozenset(members)

    found = {frozenset({0})}
    queue = [frozenset({0})]
    while queue:
        H = queue.pop(0)
        for x in range(g.order):
            if x not in H:
                K = close(H | {x})
                if K not in found:
                    found.add(K)
                    queue.append(K)
    return found


NAIVE_GROUPS = [
    ((1, 1, 1), 2), ((2, 1, 1), 2), ((2, 2, 1), 2), ((2, 2, 2), 2), ((3, 2, 1), 2),
    ((1, 1, 1), 3), ((2, 1, 0), 3),
]


@pytest.mark.parametrize("exps,p", NAIVE_GROUPS)
def test_all_subgroups_matches_naive_closure(exps, p, lattice_cache):
    # completeness against a reference that shares nothing with the HNF walk
    # or the closed form
    g, lat = lattice_cache(exps, p)
    for s in lat.subgroups:
        assert s.order == s.members.bit_count()
    sets = _member_sets(lat)
    found = set(sets)
    assert len(found) == len(lat)
    assert found == _naive_subgroups(g)
    # containment as the subset relation of the member sets
    for b, K in enumerate(sets):
        assert lat.below[b] == sum(1 << a for a, H in enumerate(sets) if H <= K)
        assert lat.above[b] == sum(1 << c for c, L in enumerate(sets) if K <= L)


@pytest.mark.parametrize("exps,p", NAIVE_GROUPS + [((1, 1, 0), 2), ((3, 0, 0), 2)])
def test_count_factorizations_by_sumsets(exps, p, lattice_cache):
    # H + K built element by element, without the size identity
    g, lat = lattice_cache(exps, p)
    table = _addition_table(g)
    sets = _member_sets(lat)
    whole = frozenset(range(g.order))
    direct = sum(1 for H in sets for K in sets if {table[h][k] for h in H for k in K} == whole)
    assert direct == count_factorizations(g, lat)


WHOLE_GROUP_HNF = (1, 0, 0, 1, 0, 1)


def _whole_group_twice(hnf_subgroups):
    def walk(g):
        yield from hnf_subgroups(g)
        yield WHOLE_GROUP_HNF

    return walk


def test_all_subgroups_rejects_a_repeated_whole_group(monkeypatch):
    monkeypatch.setattr(oracle, "_hnf_subgroups", _whole_group_twice(oracle._hnf_subgroups))
    with pytest.raises(RuntimeError, match="repeated subgroup"):
        all_subgroups(build_group(GroupType((2, 1, 0)), 2))


def test_all_subgroups_rejects_a_repeated_whole_group_under_optimize():
    # the invariant must be an explicit raise, not an assert that -O strips
    src = str(Path(pgfactor.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "from pgfactor import oracle\n"
        "walk = oracle._hnf_subgroups\n"
        "def twice(g):\n"
        "    yield from walk(g)\n"
        f"    yield {WHOLE_GROUP_HNF}\n"
        "oracle._hnf_subgroups = twice\n"
        "oracle.all_subgroups(oracle.build_group(oracle.GroupType((2, 1, 0)), 2))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode != 0
    assert "RuntimeError: repeated subgroup" in proc.stderr


def test_all_subgroups_rejects_a_walk_without_the_whole_group(monkeypatch):
    walk = oracle._hnf_subgroups
    monkeypatch.setattr(oracle, "_hnf_subgroups",
                        lambda g: (e for e in walk(g) if e != WHOLE_GROUP_HNF))
    with pytest.raises(RuntimeError, match="0 subgroups map onto G/pG"):
        all_subgroups(build_group(GroupType((2, 1, 0)), 2))


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_spanning_pairs_rejects_a_corrupted_full_class(r):
    p = 3
    full = oracle._frattini_image((1, 0, 0, 1, 0, 1), r, p)
    zero = oracle._frattini_image((0, 0, 0, 0, 0, 0), r, p)
    assert oracle._spanning_pairs({full: 1}, r, p) == 1
    for n in (0, 2):
        images = {full: n, zero: 1} if r else {full: n}
        with pytest.raises(RuntimeError, match=f"{n} subgroups map onto G/pG"):
            oracle._spanning_pairs(images, r, p)


SMALL_GROUPS = [
    ((e1, e2, e3), p)
    for p in (2, 3, 5, 7)
    for e1 in range(10)
    for e2 in range(e1 + 1)
    for e3 in range(e2 + 1)
    if p ** (e1 + e2 + e3) <= 729
]


PAIR_COUNT_GROUPS = sorted(
    {((e1, e2, e3), p)
     for p in (2, 3, 5, 7, 11, 13)
     for e1 in range(10)
     for e2 in range(e1 + 1)
     for e3 in range(e2 + 1)
     if p ** (e1 + e2 + e3) <= 729}
    | {((1, 1, 1), p) for p in (2, 3, 5, 7, 11, 13)}
)


@pytest.mark.parametrize("exps,p", PAIR_COUNT_GROUPS)
def test_frattini_count_matches_pair_count(exps, p, lattice_cache):
    # at (1,1,1) every subgroup is its own class in G/pG = G
    g, lat = lattice_cache(exps, p)
    assert lat.factorizations == _pair_count(g, lat)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(SMALL_GROUPS), st.data())
def test_sparse_mobius_matches_dense(lattice_cache, case, data):
    # the upward pass reuses sums by meet with any mask, and must fall back
    # to full tests once a nonzero value, the first one included, lies outside it
    g, lat = lattice_cache(*case)
    n = len(lat)
    everything = (1 << g.order) - 1
    omega1 = g.omega[min(1, len(g.omega) - 1)]
    socle = data.draw(st.one_of(
        st.sampled_from([0, everything, omega1]),
        st.sampled_from(list(_iter_bits(omega1))).map(lambda bit: omega1 & ~(1 << bit)),
        st.integers(0, everything)))
    mu, sizes = oracle._sparse_mobius(lat.subgroups, upward=True, socle=socle)
    assert mu == _mobius_from(0, range(n), lat.below)
    assert sizes == [0] * n
    mu_top, below = oracle._sparse_mobius(lat.subgroups, upward=False)
    assert mu_top == _mobius_to_top(lat)
    assert below == [lat.below[i].bit_count() if v else 0 for i, v in enumerate(mu_top)]


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(SMALL_GROUPS), st.data())
def test_mobius_interval_and_interval_size_match_dense(lattice_cache, case, data):
    g, lat = lattice_cache(*case)
    H = data.draw(st.sampled_from(lat.subgroups))
    K = lat.subgroups[data.draw(st.sampled_from(list(_iter_bits(lat.above[H.id]))))]
    interval = _iter_bits(lat.above[H.id] & lat.below[K.id])
    assert mobius_interval(lat, H, K) == _mobius_from(H.id, interval, lat.below)[K.id]
    assert interval_size(lat, H) == lat.above[H.id].bit_count()


@pytest.mark.parametrize("exps,p", [((3, 2, 1), 2), ((2, 2, 1), 3), ((1, 1, 1), 5), ((2, 0, 0), 3),
                                    ((0, 0, 0), 2)])
def test_oracle_checks_never_build_the_containment_relation(exps, p, monkeypatch):
    def refuse(self):
        raise AssertionError("containment relation built")

    monkeypatch.setattr(oracle.Lattice, "containment", property(refuse))
    t = GroupType(exps)
    g = build_group(t, p)
    lat = all_subgroups(g)
    assert mobius_interval(lat, lat.subgroups[0], lat.subgroups[-1]) == hall_mobius(t, p)
    assert interval_size(lat, lat.subgroups[0]) == len(lat)
    assert verify_hall(g, lat).overall
    assert verify_inversion_forms(g, lat).overall
    assert count_factorizations(g, lat) == factorization_count(t, p).value


@settings(deadline=None, max_examples=50)
@given(st.sampled_from(SMALL_GROUPS))
def test_oracle_matches_closed_form_random(case):
    exps, p = case
    t = GroupType(exps)
    g = build_group(t, p)
    lat = all_subgroups(g)
    assert len(lat) == subgroup_count(t, p).value
    assert count_factorizations(g, lat) == factorization_count(t, p).value


def _element_census(g):
    """Reference types from the element table: (H -> type of H, H -> type of G/H).

    The first tallies the members of H by exponent (least k with p^k x = 0);
    the second counts, for each k, the x with p^k x in H and divides by |H|,
    the number of such x per coset.
    """
    elements, index = _element_table(g)
    layers = range(g.gtype[0] + 1)
    elem_exp = [max((e - p_valuation(a, g.p) for a, e in zip(vec, g.gtype) if a), default=0)
                for vec in elements]
    images = [[index[tuple(a * g.p**k % m for a, m in zip(vec, g.moduli))] for vec in elements]
              for k in layers]

    def subgroup(H):
        tally = [0] * len(layers)
        for idx in _iter_bits(H.members):
            tally[elem_exp[idx]] += 1
        return type_from_layers(accumulate(tally), g.p)

    def quotient(H):
        members = set(_iter_bits(H.members))
        killed = [sum(y in members for y in image) for image in images]
        return type_from_layers([n // H.order for n in killed], g.p)

    return subgroup, quotient


@pytest.mark.parametrize("exps,p", SMALL_GROUPS)
def test_types_by_popcount_match_element_census(exps, p, lattice_cache):
    g, lat = lattice_cache(exps, p)
    subgroup, quotient = _element_census(g)
    for H in lat.subgroups:
        assert subgroup_type(g, H) == subgroup(H)
        assert quotient_type_mod(g, H) == quotient(H)


@pytest.mark.parametrize("exps,p", [((3, 2, 1), 2), ((2, 2, 0), 3), ((4, 0, 0), 2), ((0, 0, 0), 5),
                                    ((1, 1, 1), 5)])
def test_layer_and_multiple_masks_match_definition(exps, p):
    g = build_group(GroupType(exps), p)
    elements, index = _element_table(g)
    assert len(g.omega) == len(g.multiples) == exps[0] + 1
    for k in range(exps[0] + 1):
        pk = p**k
        images = [tuple(a * pk % m for a, m in zip(vec, g.moduli)) for vec in elements]
        assert g.omega[k] == sum(1 << i for i, y in enumerate(images) if y == (0, 0, 0))
        assert g.multiples[k] == sum(1 << index[y] for y in set(images))


def _reference_span_mask(moduli, d, x12, x13, x23):
    """Mask of the HNF basis (d1, x12, x13), (0, d2, x23), (0, 0, d3), one run per (a, b).

    For every a < m1 / d1 and b < m2 / d2, ORs the run of bits c d3,
    c < m3 / d3, shifted to the member a r1 + b r2 with y3 reduced mod d3.
    """
    m1, m2, m3 = moduli
    d1, d2, d3 = d
    run = sum(1 << (d3 * c) for c in range(m3 // d3))
    mask = 0
    for a in range(m1 // d1):
        for b in range(m2 // d2):
            y2 = (a * x12 + b * d2) % m2
            y3 = (a * x13 + b * x23) % d3
            mask |= run << ((a * d1 * m2 + y2) * m3 + y3)
    return mask


MASK_GROUPS = [
    ((e1, e2, e3), p)
    for p in (2, 3, 5, 7)
    for e1 in range(7)
    for e2 in range(e1 + 1)
    for e3 in range(e2 + 1)
    if p ** (e1 + e2 + e3) <= oracle.DEFAULT_MAX_ORDER
]


@pytest.mark.parametrize("exps,p", MASK_GROUPS)
def test_span_mask_matches_reference_on_every_basis(exps, p):
    g = build_group(GroupType(exps), p)
    for d1, x12, x13, d2, x23, d3 in oracle._hnf_subgroups(g):
        args = g.moduli, (d1, d2, d3), x12, x13, x23
        assert oracle._span_mask(*args) == _reference_span_mask(*args), args


@functools.cache
def _bases_over_cap(exps, p):
    g = build_group(GroupType(exps), p, max_order=p ** sum(exps))
    return g.moduli, list(oracle._hnf_subgroups(g))


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([((5, 5, 5), 2), ((2, 2, 2), 7), ((3, 3, 3), 3)]), st.data())
def test_span_mask_matches_reference_over_the_cap(case, data):
    moduli, bases = _bases_over_cap(*case)
    d1, x12, x13, d2, x23, d3 = data.draw(st.sampled_from(bases))
    args = moduli, (d1, d2, d3), x12, x13, x23
    assert oracle._span_mask(*args) == _reference_span_mask(*args)


@pytest.mark.parametrize("count", [0, 1, 8, 7, 13])
def test_repeat_ors_count_shifted_copies(count):
    x = 0b1011
    assert oracle._repeat(x, 5, count) == sum(x << (5 * i) for i in range(count))


@pytest.mark.parametrize("exps,p", PAIR_COUNT_GROUPS)
def test_socle_intervals_match_interval_size(exps, p, lattice_cache):
    g, lat = lattice_cache(exps, p)
    omega1 = g.omega[min(1, len(g.omega) - 1)]
    sizes = oracle._socle_intervals(lat, omega1)
    elementary = [H for H in lat.subgroups if H.members & omega1 == H.members]
    assert sorted(sizes) == sorted(H.members for H in elementary)
    for H in elementary:
        assert sizes[H.members] == interval_size(lat, H)
