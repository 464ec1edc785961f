import functools
import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import accumulate, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pgfactor
from pgfactor import oracle
from pgfactor.cli import MAX_ORACLE_ORDER
from pgfactor.formulas import factorization_count, subgroup_count
from pgfactor.grouptype import GroupType, p_valuation, type_from_layers
from pgfactor.mobius import _echelon, enumerate_subspaces, factorization_count_mobius, gaussian_binomial, hall_mobius
from pgfactor.oracle import (
    GroupTooLarge,
    NotComparable,
    all_subgroups,
    build_group,
    count_factorizations,
    interval_size,
    mobius_interval,
    oracle_factorizations,
    quotient_type_mod,
    subgroup_type,
    verify_hall,
    verify_inversion_forms,
)
from test_cli import _run_captured, oracle_cells


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
            unordered += H.bit_count() * K.bit_count() == g.order * (H & K).bit_count()
    return 2 * unordered - 1


def test_build_group_sizes():
    assert build_group(GroupType((1, 1, 0)), 2).order == 4
    assert build_group(GroupType((3, 2, 1)), 2).order == 64
    assert build_group(GroupType((0, 0, 0)), 5).order == 1


def test_build_group_identity_first():
    g = build_group(GroupType((2, 1, 0)), 3)
    assert g.omega[0] == 1  # Omega_0 = {0}: the identity is index 0
    assert all_subgroups(g).subgroups[0] == 1


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
    assert [s.bit_count() for s in lat.subgroups] == [1, 2, 4]


def test_all_subgroups_64():
    g = build_group(GroupType((3, 2, 1)), 2)
    assert len(all_subgroups(g)) == 81


@pytest.mark.parametrize("exps,p", [((2, 1, 0), 2), ((1, 1, 1), 2), ((2, 1, 1), 2), ((1, 1, 0), 3)])
def test_lattice_closed_under_meet_and_join(exps, p, lattice_cache):
    g, lat = lattice_cache(exps, p)
    masks = set(lat.subgroups)
    for a in lat.subgroups:
        for b in lat.subgroups:
            meet = a & b
            assert meet in masks
            target = a.bit_count() * b.bit_count() // meet.bit_count()
            join_candidates = [m for m in masks if m.bit_count() == target and (a | b) & ~m == 0]
            assert len(join_candidates) == 1


def _order(g, basis):
    """|H| from H's HNF entries (d1, x12, x13, d2, x23, d3): |G| / (d1 d2 d3)."""
    return g.order // (basis[0] * basis[3] * basis[5])


def test_lattice_ids_sorted_and_bounded(lattice_cache):
    # a subgroup's id is its position among the HNF bases sorted by (order,
    # entries), so the popcounts of the masks, built in id order, never decrease
    for exps, p in [((2, 2, 1), 2), ((1, 1, 0), 3), ((3, 0, 0), 2), ((0, 0, 0), 5)]:
        g, lat = lattice_cache(exps, p)
        orders = [m.bit_count() for m in lat.subgroups]
        assert orders == sorted(orders)
        assert lat.bases == sorted(lat.bases, key=lambda b: (_order(g, b), b))
        assert orders == [_order(g, b) for b in lat.bases]
        assert len(set(lat.subgroups)) == len(lat)
        assert lat.subgroups[0] == 1  # the trivial subgroup {0}
        assert lat.subgroups[-1] == 2**g.order - 1  # G, every element


def test_subgroup_type_whole_socle_trivial(lattice_cache):
    g, lat = lattice_cache((3, 2, 1), 2)
    assert subgroup_type(g, lat.subgroups[-1]) == GroupType((3, 2, 1))
    assert subgroup_type(g, lat.subgroups[0]) == GroupType((0, 0, 0))
    socle = [s for s in lat.subgroups if s.bit_count() == 8 and subgroup_type(g, s) == GroupType((1, 1, 1))]
    assert len(socle) == 1  # the unique elementary abelian subgroup of order p^3


def test_subgroup_type_census_consistency(lattice_cache):
    # every subgroup's own subgroup count must match the closed form
    g, lat = lattice_cache((2, 2, 1), 2)
    for i, H in enumerate(lat.subgroups):
        t = subgroup_type(g, H)
        assert lat.below[i].bit_count() == subgroup_count(t, g.p).value


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
        if a.bit_count() * b.bit_count() == g.order * (a & b).bit_count()
    )
    assert direct == count_factorizations(g, lat)


def test_interval_size(lattice_cache):
    g, lat = lattice_cache((3, 2, 1), 2)
    assert interval_size(lat, len(lat) - 1) == 1
    assert interval_size(lat, 0) == len(lat)
    (socle,) = [
        i for i, s in enumerate(lat.subgroups)
        if s.bit_count() == 8 and subgroup_type(g, s) == GroupType((1, 1, 1))
    ]
    assert interval_size(lat, socle) == subgroup_count(GroupType((2, 1, 0)), 2).value


def test_mobius_interval_reflexive_and_chain(lattice_cache):
    g, lat = lattice_cache((2, 0, 0), 3)
    b, mid, top = range(len(lat))
    assert mobius_interval(lat, b, b) == 1
    assert mobius_interval(lat, b, mid) == -1
    assert mobius_interval(lat, b, top) == 0  # chain of length 2


def test_mobius_interval_socle(lattice_cache):
    g, lat = lattice_cache((3, 2, 1), 2)
    (socle,) = [
        i for i, s in enumerate(lat.subgroups)
        if s.bit_count() == 8 and subgroup_type(g, s) == GroupType((1, 1, 1))
    ]
    assert mobius_interval(lat, 0, socle) == -8


def test_mobius_interval_not_comparable(lattice_cache):
    g, lat = lattice_cache((1, 1, 0), 2)
    lines = [i for i, s in enumerate(lat.subgroups) if s.bit_count() == 2]
    with pytest.raises(NotComparable):
        mobius_interval(lat, lines[0], lines[1])
    with pytest.raises(NotComparable):
        mobius_interval(lat, lines[1], lines[0])
    with pytest.raises(NotComparable):  # G is not below a line
        mobius_interval(lat, len(lat) - 1, lines[0])


def test_mobius_to_top_matches_recursive(lattice_cache):
    g, lat = lattice_cache((2, 2, 1), 2)
    mu = _mobius_to_top(lat)
    for i in range(len(lat)):
        assert mu[i] == mobius_interval(lat, i, len(lat) - 1)


@pytest.mark.parametrize(
    "exps,p",
    [((3, 2, 1), 2), ((1, 1, 0), 2), ((1, 1, 1), 3), ((2, 0, 0), 2), ((3, 0, 0), 3), ((2, 2, 1), 2)],
)
def test_verify_hall_passes(exps, p, lattice_cache):
    g, lat = lattice_cache(exps, p)
    assert _failures(verify_hall(g, lat)) == []


def _failures(checks):
    """The (name, expected, actual) checks whose values differ."""
    return [c for c in checks if c[1] != c[2]]


def _fresh_lattice(exps, p):
    # a lattice of its own: the lattice keeps its upward pass, so a planted
    # pass would leak into later tests through a shared lattice, and a pass
    # already kept there would never call the planted one
    g = build_group(GroupType(exps), p)
    return g, all_subgroups(g)


def _plant(monkeypatch, upward, change):
    """Patch ``oracle._class_mobius`` so that ``change`` edits one class of each pass in one direction.

    ``change(columns)`` returns the index of a class and its new mu and size.
    """
    real = oracle._class_mobius

    def planted(g, classes, direction):
        columns = real(g, classes, direction)
        if direction == upward:
            i, mu, size = change(columns)
            columns[2][i], columns[3][i] = mu, size
        return columns

    monkeypatch.setattr(oracle, "_class_mobius", planted)


def _class(columns, order, keyed):
    """The index of the first class of the given order and keyed flag."""
    classes, _, _, _, flags = columns
    return next(i for i, ((_, o), k) in enumerate(zip(classes, flags)) if o == order and k == keyed)


def test_verify_hall_compares_subgroups_outside_omega1(monkeypatch):
    # verify_hall expects a nonzero value only at the classes the upward
    # pass marks elementary; a nonzero value planted at the class of the
    # three cyclic subgroups of order 9, outside Omega_1(G), must count as
    # a mismatch of its three subgroups
    g, lat = _fresh_lattice((2, 1, 0), 3)
    _plant(monkeypatch, True, lambda columns: (_class(columns, 9, False), 1, 0))
    checks = verify_hall(g, lat)
    assert [name for name, _, _ in _failures(checks)] == ["hall[order=9,key=((1, 0),)]", "hall_mismatches"]
    assert checks[-1] == ("hall_mismatches", 0, 3)


def test_verify_hall_compares_subgroups_inside_omega1(monkeypatch):
    # verify_hall reads the expected value of an elementary abelian class
    # from its order; a wrong value planted at one must count as a mismatch
    g, lat = _fresh_lattice((2, 1, 0), 3)

    def change(columns):
        i = _class(columns, 3, True)
        return i, columns[2][i] + 1, columns[3][i]

    _plant(monkeypatch, True, change)
    checks = verify_hall(g, lat)
    assert [name for name, _, _ in _failures(checks)] == ["hall[order=3,key=((1, 0),)]", "hall_mismatches"]
    assert checks[-1] == ("hall_mismatches", 0, 1)


def test_inversion_forms_read_subgroup_counts_from_the_recursion(monkeypatch):
    # S1 takes |L(H)| from the downward pass's counts; one class's count
    # planted off by one at a nonzero mu(H, G) must fail S1 and leave S2 passing
    g, lat = _fresh_lattice((2, 1, 0), 3)

    def change(columns):
        i = next(i for i, value in enumerate(columns[2]) if value)
        return i, columns[2][i], columns[3][i] + 1

    _plant(monkeypatch, False, change)
    failed = [name for name, _, _ in _failures(verify_inversion_forms(g, lat))]
    assert failed == ["inversion_sum_subgroup_counts"]


def test_inversion_forms_read_interval_sizes_from_the_upward_pass(monkeypatch):
    # S2 takes |[H, G]| from the upward pass's counts; one class's count
    # planted off by one at a nonzero mu(1, H), H elementary, must fail S2
    # and leave S1 passing
    g, lat = _fresh_lattice((2, 1, 0), 3)

    def change(columns):
        i = _class(columns, 3, True)
        assert columns[2][i]
        return i, columns[2][i], columns[3][i] + 1

    _plant(monkeypatch, True, change)
    failed = [name for name, _, _ in _failures(verify_inversion_forms(g, lat))]
    assert failed == ["inversion_sum_quotient_counts"]


def test_hall_and_inversion_forms_share_one_upward_pass(monkeypatch):
    g, lat = _fresh_lattice((2, 2, 1), 2)
    real = oracle._class_mobius
    calls = []

    def counting(g, classes, upward):
        calls.append(upward)
        return real(g, classes, upward)

    monkeypatch.setattr(oracle, "_class_mobius", counting)
    assert _failures(verify_hall(g, lat)) == []
    assert _failures(verify_inversion_forms(g, lat)) == []
    assert sorted(calls) == [False, True]


def test_upward_pass_runs_once_per_lattice(monkeypatch):
    real = oracle._lattice_mobius
    calls = []

    def counting(lattice, upward):
        calls.append((lattice, upward))
        return real(lattice, upward)

    monkeypatch.setattr(oracle, "_lattice_mobius", counting)
    _, first = _fresh_lattice((2, 1, 0), 3)
    _, second = _fresh_lattice((2, 1, 0), 3)
    assert first.upward is first.upward
    assert second.upward == first.upward
    assert calls == [(first, True), (second, True)]


def test_hall_values_spotchecks(lattice_cache):
    g, lat = lattice_cache((1, 1, 0), 2)
    assert mobius_interval(lat, 0, len(lat) - 1) == 2  # (-1)^2 * 2^1
    g, lat = lattice_cache((2, 0, 0), 2)
    assert mobius_interval(lat, 0, len(lat) - 1) == 0  # not elementary abelian


def test_verify_rows_come_from_check_triples(capsys, monkeypatch):
    # cmd_verify builds each JSON row from a (name, expected, actual) triple:
    # it prints both values as strings, but compares the values themselves,
    # so 3 and "3" print alike and still fail
    from pgfactor import cli

    monkeypatch.setattr(cli, "verify_hall", lambda g, lat: [("same", 3, 3), ("differ", 3, 4), ("text", 3, "3")])
    code = cli.main(["verify", "--type", "1,0,0", "--p", "2", "--checks", "hall"])
    rows = json.loads(capsys.readouterr().out)
    assert code == 1
    assert rows["checks"] == [
        {"name": "same", "status": "pass", "expected": "3", "actual": "3"},
        {"name": "differ", "status": "fail", "expected": "3", "actual": "4"},
        {"name": "text", "status": "fail", "expected": "3", "actual": "3"},
    ]
    assert rows["overall"] is False
    monkeypatch.setattr(cli, "verify_hall", lambda g, lat: [("same", 3, 3)])
    assert cli.main(["verify", "--type", "1,0,0", "--p", "2", "--checks", "hall"]) == 0
    assert json.loads(capsys.readouterr().out)["overall"] is True


@pytest.mark.parametrize(
    "exps,p,expected",
    [((1, 1, 0), 2, 15), ((3, 0, 0), 2, 7), ((3, 2, 1), 2, 1635)],
)
def test_verify_inversion_forms(exps, p, expected, lattice_cache):
    g, lat = lattice_cache(exps, p)
    assert _failures(verify_inversion_forms(g, lat)) == []
    assert count_factorizations(g, lat) == expected


@pytest.mark.parametrize("exps,p", [((3, 2, 1), 2), ((2, 2, 1), 3), ((1, 1, 1), 3)])
def test_mobius_duality_through_quotients(exps, p, lattice_cache):
    # mu(H, G) must equal the closed-form Mobius value of the quotient type
    g, lat = lattice_cache(exps, p)
    mu = _mobius_to_top(lat)
    for i, H in enumerate(lat.subgroups):
        assert mu[i] == hall_mobius(quotient_type_mod(g, H), p)


def test_quotient_type_mod_spotchecks(lattice_cache):
    g, lat = lattice_cache((3, 2, 1), 2)
    assert quotient_type_mod(g, lat.subgroups[0]) == GroupType((3, 2, 1))
    assert quotient_type_mod(g, lat.subgroups[-1]) == GroupType((0, 0, 0))
    (socle,) = [
        s for s in lat.subgroups if s.bit_count() == 8 and subgroup_type(g, s) == GroupType((1, 1, 1))
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
    return [frozenset(_iter_bits(s)) for s in lat.subgroups]


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


def _walked_bases(g, walk=None):
    """The HNF entries (d1, x12, x13, d2, x23, d3) of every subgroup the walk yields, in walk order."""
    return [(d1, x12, x13, d2, x23, d3)
            for d1, x12, xs, d2, x23, d3 in (walk or oracle._hnf_subgroups)(g) for x13 in xs]


# the context of G, d_i = 1 and no off-diagonal entries, with its one x13
WHOLE_GROUP_CONTEXT = (1, 0, range(0, 1), 1, 0, 1)


def _whole_group_twice(hnf_subgroups):
    def walk(g):
        yield from hnf_subgroups(g)
        yield WHOLE_GROUP_CONTEXT

    return walk


def test_all_subgroups_rejects_a_repeated_whole_group(monkeypatch):
    # no repeated-subgroup check: the Frattini tally catches a second copy
    # of G, as the only subgroup that maps onto G/pG
    monkeypatch.setattr(oracle, "_hnf_subgroups", _whole_group_twice(oracle._hnf_subgroups))
    with pytest.raises(RuntimeError, match="2 subgroups map onto G/pG"):
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
        f"    yield {WHOLE_GROUP_CONTEXT}\n"
        "oracle._hnf_subgroups = twice\n"
        "oracle.all_subgroups(oracle.build_group(oracle.GroupType((2, 1, 0)), 2))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode != 0
    assert "RuntimeError: 2 subgroups map onto G/pG" in proc.stderr


def test_all_subgroups_rejects_a_walk_without_the_whole_group(monkeypatch):
    walk = oracle._hnf_subgroups
    monkeypatch.setattr(oracle, "_hnf_subgroups",
                        lambda g: (c for c in walk(g) if c != WHOLE_GROUP_CONTEXT))
    with pytest.raises(RuntimeError, match="0 subgroups map onto G/pG"):
        all_subgroups(build_group(GroupType((2, 1, 0)), 2))


def test_mask_free_tier_rejects_a_repeated_whole_group(monkeypatch):
    monkeypatch.setattr(oracle, "_hnf_subgroups", _whole_group_twice(oracle._hnf_subgroups))
    with pytest.raises(RuntimeError, match="2 subgroups map onto G/pG"):
        oracle_factorizations(build_group(GroupType((2, 1, 0)), 2))


def test_mask_free_tier_rejects_a_walk_without_the_whole_group(monkeypatch):
    walk = oracle._hnf_subgroups
    monkeypatch.setattr(oracle, "_hnf_subgroups",
                        lambda g: (c for c in walk(g) if c != WHOLE_GROUP_CONTEXT))
    with pytest.raises(RuntimeError, match="0 subgroups map onto G/pG"):
        oracle_factorizations(build_group(GroupType((2, 1, 0)), 2))


def _reference_hnf_subgroups(g):
    """The HNF bases by filtering all d2 d3^2 candidates of each divisor triple.

    A candidate is kept when k2 x23, k1 x12 and k1 x13 - (k1 x12 / d2) x23
    vanish modulo d3, d2 and d3; ``oracle._hnf_subgroups`` solves these
    congruences instead.
    """
    m1, m2, m3 = g.moduli
    divisors = [[g.p**j for j in range(e + 1)] for e in g.gtype]
    for d1, d2, d3 in product(*divisors):
        k1, k2 = m1 // d1, m2 // d2
        for x12, x13, x23 in product(range(d2), range(d3), range(d3)):
            if k2 * x23 % d3 or k1 * x12 % d2 or (k1 * x13 - k1 * x12 // d2 * x23) % d3:
                continue
            yield d1, x12, x13, d2, x23, d3


def test_solved_walk_and_mask_free_tier_match_the_references_on_every_accepted_cell():
    failing = []
    for exps, p in oracle_cells(oracle.DEFAULT_MAX_ORDER):
        g = build_group(GroupType(exps), p)
        walk = _walked_bases(g)
        if (len(set(walk)) != len(walk) or set(walk) != set(_reference_hnf_subgroups(g))
                or oracle_factorizations(g) != all_subgroups(g).factorizations):
            failing.append((exps, p))
    assert failing == []


def test_each_x13_coset_holds_one_value_or_a_multiple_of_p_on_every_accepted_cell():
    # a coset has gcd(k1, d3) values, a power of p: with more than one, its
    # step s is 1 (x13 takes every residue mod p equally often) or a multiple
    # of p (x13 mod p is constant), so one read per context could stand for it
    failing = []
    for exps, p in oracle_cells(MAX_ORACLE_ORDER):
        g = build_group(GroupType(exps), p, MAX_ORACLE_ORDER)
        failing += [(exps, p, context) for context in oracle._hnf_subgroups(g) if len(context[2]) != 1 and len(context[2]) % p]
    assert failing == []


X13_COSET = "range(c // g13 % s, d3, s)"


def _mutant_walk(old, new):
    """``oracle._hnf_subgroups`` with one piece of its source replaced, compiled in the module's namespace."""
    source = inspect.getsource(oracle._hnf_subgroups)
    assert source.count(old) == 1
    namespace = dict(vars(oracle))
    exec(compile(source.replace(old, new), oracle.__file__, "exec"), namespace)
    return namespace["_hnf_subgroups"]


@pytest.mark.parametrize("coset", [
    "range(c // g13 % s + 1, d3, s)",  # one unit off: breaks k1 x13 = c (mod d3)
    "range(c // g13 % s + s, d3 + s, s)",  # one step on: its last x13 is d3 too many
    "range(c // g13 % s, d3, 1)",  # step 1: only every s-th x13 solves k1 x13 = c (mod d3)
])
def test_walk_rechecks_its_x13_coset(monkeypatch, coset):
    g = build_group(GroupType((2, 2, 2)), 2)
    assert list(_mutant_walk(X13_COSET, X13_COSET)(g)) == list(oracle._hnf_subgroups(g))
    mutant = _mutant_walk(X13_COSET, coset)
    with pytest.raises(RuntimeError, match="breaks the HNF conditions"):
        list(mutant(g))
    monkeypatch.setattr(oracle, "_hnf_subgroups", mutant)
    for count in (oracle_factorizations, all_subgroups):
        with pytest.raises(RuntimeError, match="breaks the HNF conditions"):
            count(g)


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_spanning_pairs_rejects_a_corrupted_full_class(r):
    p = 3
    table = oracle._subspace_table(r, p)
    full = table.ids[oracle._frattini_image((1, 0, 0, 1, 0, 1), r, p)]
    zero = table.ids[oracle._frattini_image((0, 0, 0, 0, 0, 0), r, p)]

    def images(n_full, n_zero):
        counts = [0] * len(table.bases)
        counts[zero] += n_zero
        counts[full] += n_full
        return counts

    assert oracle._spanning_pairs(images(1, 0), r, p) == 1
    for n in (0, 2):
        with pytest.raises(RuntimeError, match=f"{n} subgroups map onto G/pG"):
            oracle._spanning_pairs(images(n, 1 if r else 0), r, p)


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


def _dense_passes(g, masks, upward):
    """Reference for the Mobius passes over the listed subgroups, from their masks.

    The Mobius values from the walk's first subgroup upward, or to its last
    downward, by the dense recursion; the count on the far side of each
    nonzero value; and which subgroups are keyed: elementary abelian upward,
    containing pG downward.
    """
    n = len(masks)
    below = [sum(1 << a for a in range(n) if masks[b] & masks[a] == masks[a]) for b in range(n)]
    above = [sum(1 << c for c in range(n) if masks[c] & masks[a] == masks[a]) for a in range(n)]
    if upward:
        mu, far = _mobius_from(0, range(n), below), above
        layer = g.omega[min(1, g.gtype[0])]
        keyed = [H & layer == H for H in masks]
    else:
        mu, far = _mobius_from(n - 1, range(n - 1, -1, -1), above), below
        layer = g.multiples[min(1, g.gtype[0])]
        keyed = [H & layer == layer for H in masks]
    return mu, [far[i].bit_count() if v else 0 for i, v in enumerate(mu)], keyed


def _class_passes(g, bases, upward):
    """The mu, size and keyed columns of ``oracle._class_mobius`` for each listed subgroup, or None.

    The list is tallied by ``_subgroup_classes`` with the walk's start class
    first, as the walk tallies it, and each subgroup takes its class's values.
    """
    per = oracle._subgroup_classes(g, bases, upward)
    columns = oracle._class_mobius(g, Counter(per if upward else per[::-1]), upward)
    if columns is None:
        return None
    classes, _, *values = columns
    at = dict(zip(classes, zip(*values)))
    return tuple(map(list, zip(*map(at.__getitem__, per))))


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(SMALL_GROUPS), st.data())
def test_class_mobius_matches_dense_on_any_sublist(lattice_cache, case, data):
    # on the whole lattice Hall's vanishing keeps every nonzero value on the
    # keyed subgroups; on a sublist, as a broken walk would give, values can
    # fall off them, and the class pass must then return None; where it
    # answers, and in the exact pass always, the values are the dense ones
    g, lat = lattice_cache(*case)
    n = len(lat)
    kept = data.draw(st.one_of(st.just(list(range(n))),
                               st.lists(st.integers(0, n - 1), min_size=1, unique=True).map(sorted)))
    bases = [lat.bases[i] for i in kept]
    masks = [lat.subgroups[i] for i in kept]
    for upward in (True, False):
        dense = _dense_passes(g, masks, upward)
        assert oracle._exact_mobius(g, bases, upward)[2:] == dense, upward
        answered = _class_passes(g, bases, upward)
        assert answered == dense if len(kept) == n else answered in (None, dense), upward


@pytest.mark.parametrize("exps,p", [((2, 1, 0), 3), ((2, 2, 1), 2), ((3, 1, 1), 2)])
@pytest.mark.parametrize("upward", [True, False])
def test_class_mobius_falls_back_on_a_walk_with_a_planted_gap(exps, p, upward):
    # a walk without Omega_1(G) leaves a nonzero mu(1, H) at each H above
    # it, and a walk without pG a nonzero mu(H, G) at each H below it, none
    # of them keyed; the class pass must then return None, and the exact
    # pass, which tests containment in full, agree with the dense recursion
    # over the same list
    g, lat = _fresh_lattice(exps, p)
    gap = lat.subgroups.index(g.omega[1] if upward else g.multiples[1])
    bases = lat.bases[:gap] + lat.bases[gap + 1:]
    masks = lat.subgroups[:gap] + lat.subgroups[gap + 1:]
    assert _class_passes(g, bases, upward) is None
    mu, sizes, keyed = oracle._exact_mobius(g, bases, upward)[2:]
    assert (mu, sizes, keyed) == _dense_passes(g, masks, upward)
    assert any(v and not k for v, k in zip(mu, keyed))


def test_images_match_masks_on_every_accepted_cell(monkeypatch):
    # the class keys, (id, order) with the key's basis at that id in the
    # subspace table, against membership masks on every cell under the
    # default cap: p^dim S(H) = |H & Omega_1(G)| and p^dim f(H) = |H| / |H &
    # pG|, and the relation the passes read off the keys is mask subset, for
    # elementary K (K <= H exactly when S(K) <= S(H)) and for K containing
    # pG (X <= K exactly when f(K)^perp <= f(X)^perp); the walk's tallies,
    # read a coset's first p values of x13 at a time, hold the classes of
    # the listed bases, each pass marks a class keyed exactly when its
    # subgroups are elementary (upward) or contain pG (downward), and on
    # whole lattices no pass falls back
    def refuse(*args):
        raise AssertionError("a pass fell back on a whole lattice")

    monkeypatch.setattr(oracle, "_exact_mobius", refuse)
    failing = []
    for exps, p in oracle_cells(oracle.DEFAULT_MAX_ORDER):
        g = build_group(GroupType(exps), p)
        lat = all_subgroups(g)
        r, masks = g.gtype.rank, lat.subgroups
        key = oracle._subspace_table(r, p).bases
        omega1, floor = g.omega[min(1, exps[0])], g.multiples[min(1, exps[0])]
        socle = oracle._subgroup_classes(g, lat.bases, upward=True)
        duals = oracle._subgroup_classes(g, lat.bases, upward=False)
        down = oracle._lattice_mobius(lat, upward=False)
        keyed_up, keyed_down = dict(zip(lat.upward[0], lat.upward[4])), dict(zip(down[0], down[4]))
        included = functools.cache(lambda small, big: len(_echelon(big + small, p)) == len(big))
        elementary = [H & omega1 == H for H in masks]
        above_floor = [H & floor == floor for H in masks]
        if (Counter(socle) != lat.socle
                or Counter(duals) != lat.dual
                or [keyed_up[c] for c in socle] != elementary
                or [keyed_down[c] for c in duals] != above_floor
                or [p ** len(key[i]) for i, _ in socle] != [(H & omega1).bit_count() for H in masks]
                or [p ** (r - len(key[i])) for i, _ in duals]
                != [H.bit_count() // (H & floor).bit_count() for H in masks]
                or any(included(key[socle[k][0]], key[socle[h][0]]) != (H & K == K)
                       for k, K in enumerate(masks) if elementary[k] for h, H in enumerate(masks))
                or any(included(key[duals[k][0]], key[duals[x][0]]) != (K & X == X)
                       for k, K in enumerate(masks) if above_floor[k] for x, X in enumerate(masks))):
            failing.append((exps, p))
    assert failing == []


@settings(deadline=None, max_examples=200)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 3), st.data())
def test_annihilator_matches_brute_force(p, r, data):
    # every v in F_p^r orthogonal to the vectors, and the reduced basis of their span
    vectors = data.draw(st.lists(st.tuples(*[st.integers(0, p - 1)] * 3), max_size=3))
    key = oracle._annihilator(vectors, r, p)
    members = [v for v in product(range(p), repeat=r)
               if all(sum(a * b for a, b in zip(v, u)) % p == 0 for u in vectors)]
    assert len(members) == p ** len(key)
    assert all(len(_echelon(key + (v,), p)) == len(key) for v in members)
    assert list(key) == [tuple(row) for _, row in sorted(_echelon(key, p))]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_plane_points_are_the_lines_in_the_plane(p):
    # each point comes as its id in the table of F_p^3
    bases = oracle._subspace_table(3, p).bases
    lines = enumerate_subspaces(3, 1, p)
    for plane in enumerate_subspaces(3, 2, p):
        inside = [line for line in lines if len(_echelon(plane + line, p)) == 2]
        assert sorted(bases[i] for i in oracle._plane_points(plane, p)) == inside


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_subspace_table_lists_each_subspace_once_with_its_subspaces(p):
    # every reduced basis once, ids in order of dimension, and each id's
    # subspaces against a rank test: 0 first and itself last below the
    # whole space, as _spanning_pairs reads a plane's points between them
    for r in range(4):
        table = oracle._subspace_table(r, p)
        bases = table.bases
        dims = [len(basis) for basis in bases]
        assert len(set(bases)) == len(bases)
        assert dims == sorted(dims)
        assert [dims.count(n) for n in range(r + 1)] == [gaussian_binomial(r, n, p) for n in range(r + 1)]
        assert table.start == [dims.index(n) for n in range(r + 1)] + [len(bases)]
        assert table.ids == {basis: i for i, basis in enumerate(bases)}
        for i, basis in enumerate(bases):
            assert list(basis) == [tuple(row) for _, row in sorted(_echelon(basis, p))]
            inside = [j for j, small in enumerate(bases) if len(_echelon(basis + small, p)) == len(basis)]
            assert sorted(table.below[i]) == inside, (r, basis)
            if 0 < len(basis) < r:
                assert (table.below[i][0], table.below[i][-1]) == (0, i)


def test_one_table_serves_every_prime_at_rank_at_most_one():
    # at r <= 1 the subspaces are the same at every prime and every residue
    # pattern a walk meets has entries 0 or 1, so one table serves them all
    assert oracle._subspace_table(1, 3) is oracle._subspace_table(1, 5)
    assert oracle._subspace_table(0, 2) is oracle._subspace_table(0, 32749)
    assert oracle._subspace_table(2, 3) is not oracle._subspace_table(2, 5)


@pytest.mark.parametrize("exps,p", [((8, 8, 8), 2), ((4, 4, 4), 5), ((3, 3, 3), 7)])
def test_oracle_passes_every_check_past_the_cap(exps, p):
    # 2344743, 2890693 and 604432 subgroups: the walk checks each coset of
    # x13 once and the tallies read it at p values of x13, so these take a
    # fraction of a second; the count, hall and eq2 pass, and the oracle's
    # F2 is the closed form's and the Mobius sum's
    t = GroupType(exps)
    g = build_group(t, p, max_order=10**60)
    lat = all_subgroups(g)
    assert len(lat) == subgroup_count(t, p).value
    assert _failures(verify_hall(g, lat) + verify_inversion_forms(g, lat)) == []
    assert oracle_factorizations(g) == factorization_count(t, p).value == factorization_count_mobius(t, p)


CACHE_ORDER_CELLS = [
    ((0, 0, 0), 2), ((1, 1, 1), 2), ((3, 2, 1), 2), ((2, 2, 2), 2), ((4, 1, 0), 2), ((3, 3, 2), 2),
    ((1, 0, 0), 3), ((1, 1, 1), 3), ((2, 1, 1), 3), ((2, 2, 0), 3), ((3, 1, 0), 3),
    ((1, 1, 0), 5), ((2, 1, 0), 5), ((1, 1, 1), 5), ((2, 1, 1), 5),
    ((1, 0, 0), 7), ((1, 1, 0), 7), ((2, 1, 0), 7), ((1, 1, 1), 7), ((0, 0, 0), 7),
]


def _clear_oracle_caches():
    oracle._tables.cache_clear()
    oracle._hall_by_order.cache_clear()


def _cell_outputs(cells, clear_each):
    """(exit code, verify's stdout, the oracle's F2) for each cell, with the caches cleared first or per cell."""
    _clear_oracle_caches()
    outputs = {}
    for exps, p in cells:
        if clear_each:
            _clear_oracle_caches()
        code, out, _ = _run_captured(["verify", "--type", ",".join(map(str, exps)), "--p", str(p)])
        outputs[exps, p] = code, out, oracle_factorizations(build_group(GroupType(exps), p))
    return outputs


def test_verify_and_oracle_count_do_not_depend_on_what_the_process_ran_before():
    # the subspace tables and their residue maps outlive each call: the
    # same cells give the same bytes from fresh caches, run forward and in reverse
    fresh = _cell_outputs(CACHE_ORDER_CELLS, clear_each=True)
    assert all(code == 0 and '"overall":true' in out for code, out, _ in fresh.values())
    assert _cell_outputs(CACHE_ORDER_CELLS, clear_each=False) == fresh
    assert _cell_outputs(CACHE_ORDER_CELLS[::-1], clear_each=False) == fresh


def test_second_verify_reduces_no_residue_pattern(monkeypatch, request):
    # each residue pattern is reduced once per process: a second verify of
    # the same cell, and f2 by the oracle after it, read every key and
    # image off the table's maps; the table is built after the patch, so
    # its readers are the counting ones
    calls = []

    def counting(name):
        real = getattr(oracle, name)
        return lambda *args: calls.append(name) or real(*args)

    for name in ("_annihilator", "_frattini_image"):
        monkeypatch.setattr(oracle, name, counting(name))
    request.addfinalizer(_clear_oracle_caches)
    _clear_oracle_caches()
    argv = ["verify", "--type", "3,2,1", "--p", "3"]
    first = _run_captured(argv)
    assert first[0] == 0 and sorted(set(calls)) == ["_annihilator", "_frattini_image"]
    calls.clear()
    assert _run_captured(argv) == first
    assert _run_captured(["f2", "--type", "3,2,1", "--p", "3", "--method", "oracle"])[0] == 0
    assert calls == []


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(SMALL_GROUPS), st.data())
def test_mobius_interval_and_interval_size_match_dense(lattice_cache, case, data):
    g, lat = lattice_cache(*case)
    h = data.draw(st.integers(0, len(lat) - 1))
    k = data.draw(st.sampled_from(list(_iter_bits(lat.above[h]))))
    interval = _iter_bits(lat.above[h] & lat.below[k])
    assert mobius_interval(lat, h, k) == _mobius_from(h, interval, lat.below)[k]
    assert interval_size(lat, h) == lat.above[h].bit_count()
    # a pair that containment does not relate has no interval
    unrelated = [j for j in range(len(lat)) if not (lat.above[h] | lat.below[h]) >> j & 1]
    if unrelated:
        j = data.draw(st.sampled_from(unrelated))
        with pytest.raises(NotComparable):
            mobius_interval(lat, h, j)
        with pytest.raises(NotComparable):
            mobius_interval(lat, j, h)
    # an id is a position in Lattice.bases: -1 and len(lat) name no subgroup
    for bad in (-1, len(lat)):
        with pytest.raises(IndexError):
            interval_size(lat, bad)
        with pytest.raises(IndexError):
            mobius_interval(lat, h, bad)
        with pytest.raises(IndexError):
            mobius_interval(lat, bad, k)


@pytest.mark.parametrize("exps,p", [((1, 1, 0), 2), ((2, 1, 0), 3), ((1, 1, 1), 2), ((2, 2, 1), 2),
                                    ((1, 0, 0), 7)])
def test_mobius_interval_runs_no_class_pass(monkeypatch, lattice_cache, exps, p):
    def refuse(*args):
        raise AssertionError("mobius_interval ran the class pass")

    _, lat = lattice_cache(exps, p)
    monkeypatch.setattr(oracle, "_class_mobius", refuse)
    assert mobius_interval(lat, 0, len(lat) - 1) == hall_mobius(GroupType(exps), p)


@pytest.mark.parametrize("exps,p", [((3, 2, 1), 2), ((2, 2, 1), 3), ((1, 1, 1), 5), ((2, 0, 0), 3),
                                    ((0, 0, 0), 2)])
def test_oracle_checks_never_build_the_containment_relation(exps, p, monkeypatch):
    def refuse(*args):
        raise AssertionError("containment relation or mask built")

    monkeypatch.setattr(oracle.Lattice, "containment", property(refuse))
    monkeypatch.setattr(oracle, "_span_mask", refuse)
    t = GroupType(exps)
    g = build_group(t, p)
    lat = all_subgroups(g)
    assert mobius_interval(lat, 0, len(lat) - 1) == hall_mobius(t, p)
    assert interval_size(lat, 0) == len(lat)
    assert _failures(verify_hall(g, lat)) == []
    assert _failures(verify_inversion_forms(g, lat)) == []
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
        for idx in _iter_bits(H):
            tally[elem_exp[idx]] += 1
        return type_from_layers(accumulate(tally), g.p)

    def quotient(H):
        members = set(_iter_bits(H))
        killed = [sum(y in members for y in image) for image in images]
        return type_from_layers([n // len(members) for n in killed], g.p)

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


def _reference_span_mask(moduli, basis):
    """Mask of the HNF entries (d1, x12, x13, d2, x23, d3) by definition: one bit per member.

    The members are a r1 + b r2 + c r3 mod m for the rows r1 = (d1, x12, x13),
    r2 = (0, d2, x23), r3 = (0, 0, d3), with a < m1 / d1, b < m2 / d2 and
    c < m3 / d3; (y1, y2, y3) is bit (y1 m2 + y2) m3 + y3.
    """
    m1, m2, m3 = moduli
    d1, x12, x13, d2, x23, d3 = basis
    mask = 0
    for a, b, c in product(range(m1 // d1), range(m2 // d2), range(m3 // d3)):
        y1, y2, y3 = a * d1 % m1, (a * x12 + b * d2) % m2, (a * x13 + b * x23 + c * d3) % m3
        mask |= 1 << ((y1 * m2 + y2) * m3 + y3)
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
    for basis in _walked_bases(g):
        assert oracle._span_mask(g.moduli, basis) == _reference_span_mask(g.moduli, basis), basis


@pytest.mark.parametrize("exps,p", [((1, 1, 1), 7), ((3, 3, 2), 2), ((2, 2, 1), 3), ((4, 2, 0), 3),
                                    ((6, 0, 0), 2), ((0, 0, 0), 5)])
def test_all_subgroups_masks_and_ids_match_reference_masks(exps, p):
    # ids follow (order, HNF entries), and the lazy masks follow the ids
    g = build_group(GroupType(exps), p)
    bases = sorted(_walked_bases(g), key=lambda b: (_order(g, b), b))
    lat = all_subgroups(g)
    assert lat.bases == bases
    assert lat.subgroups == [_reference_span_mask(g.moduli, basis) for basis in bases]
    assert [H.bit_count() for H in lat.subgroups] == [_order(g, b) for b in bases]


@pytest.mark.parametrize("exps,p", [((3, 2, 1), 3), ((0, 0, 0), 2), ((1, 1, 1), 5)])
def test_walk_builds_no_layer_lists(exps, p):
    # omega and multiples wait for the type readers, which no check calls,
    # and no check builds a subgroup's mask: they read the HNF bases alone
    g = build_group(GroupType(exps), p)
    lat = all_subgroups(g)
    assert "omega" not in vars(g) and "multiples" not in vars(g)
    count_factorizations(g, lat)
    verify_hall(g, lat)
    verify_inversion_forms(g, lat)
    assert "omega" not in vars(g) and "multiples" not in vars(g)
    assert "subgroups" not in vars(lat) and "containment" not in vars(lat)
    subgroup_type(g, lat.subgroups[-1])
    assert "omega" in vars(g)


def test_verify_holds_classes_not_subgroups():
    # the walk, hall and eq2 at (5,5,5) and p = 2, order 2^15 with the most
    # subgroups (22308), hold the walk's classes, a few hundred, and no
    # per-subgroup list: the bases alone took several MB
    g = build_group(GroupType((5, 5, 5)), 2, max_order=2**15)
    tracemalloc.start()
    try:
        lat = all_subgroups(g)
        checks = verify_hall(g, lat) + verify_inversion_forms(g, lat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(lat) == 22308
    assert _failures(checks) == []
    assert peak < 2**20


def _reference_frattini_image(residues, r, p):
    """The image in G/pG by general elimination: ``_echelon`` of the HNF rows mod p, r columns."""
    d1, x12, x13, d2, x23, d3 = residues
    rows = ((d1, x12, x13), (0, d2, x23), (0, 0, d3))[:r]
    return tuple(tuple(b) for _, b in sorted(_echelon((row[:r] for row in rows), p)))


@pytest.mark.parametrize("exps,p", MASK_GROUPS)
def test_frattini_image_matches_echelon_reference(exps, p):
    g = build_group(GroupType(exps), p)
    keys = {tuple(x % p for x in basis) for basis in _walked_bases(g)}
    for key in keys:
        for r in range(4):
            expected = _reference_frattini_image(key, r, p)
            assert oracle._frattini_image(key, r, p) == expected, (key, r)


@functools.cache
def _bases_over_cap(exps, p):
    g = build_group(GroupType(exps), p, max_order=p ** sum(exps))
    return g.moduli, _walked_bases(g)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([((5, 5, 5), 2), ((2, 2, 2), 7), ((3, 3, 3), 3)]), st.data())
def test_span_mask_matches_reference_over_the_cap(case, data):
    moduli, bases = _bases_over_cap(*case)
    basis = data.draw(st.sampled_from(bases))
    assert oracle._span_mask(moduli, basis) == _reference_span_mask(moduli, basis)


@pytest.mark.parametrize("exps,p", PAIR_COUNT_GROUPS)
def test_socle_intervals_match_interval_size(exps, p, lattice_cache):
    # the upward pass counts |[H, G]| at every elementary abelian H, the
    # subgroups whose mu(1, H) Hall's theorem makes nonzero; each subgroup
    # reads the row of its class
    g, lat = lattice_cache(exps, p)
    classes, counts, _, sizes, keyed = lat.upward
    at = dict(zip(classes, zip(sizes, keyed)))
    size, keyed = zip(*(at[c] for c in oracle._subgroup_classes(g, lat.bases, upward=True)))
    omega1 = g.omega[min(1, exps[0])]
    elementary = [i for i, H in enumerate(lat.subgroups) if H & omega1 == H]
    assert [i for i, k in enumerate(keyed) if k] == elementary
    assert [i for i, n in enumerate(size) if n] == elementary
    for i in elementary:
        assert size[i] == interval_size(lat, i) == lat.above[i].bit_count()
    assert sum(counts) == len(lat)
