import copy
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pgfactor
from pgfactor.grouptype import (
    GroupType,
    NegativeExponent,
    normalize,
    p_valuation,
    parse_type,
    type_from_layers,
)

PRIMES = st.sampled_from([2, 3, 5, 7])


def test_normalize_sorts():
    assert normalize((0, 1, 1)) == (1, 1, 0)
    assert normalize((2, 2, 2)) == (2, 2, 2)
    assert normalize((1, 2, 3)) == (3, 2, 1)


def test_normalize_rejects_negative():
    with pytest.raises(NegativeExponent):
        normalize((1, 0, -1))


def test_normalize_rejects_wrong_length():
    with pytest.raises(ValueError):
        normalize((1, 2))


@pytest.mark.parametrize("raw", [(2.7, True, 0), ("3", "2", "1")], ids=["float-and-bool", "strings"])
def test_normalize_takes_only_int_entries(raw):
    # normalize converts nothing: it takes only what GroupType takes
    with pytest.raises(ValueError):
        normalize(raw)


def test_normalize_idempotent():
    rng = random.Random(5)
    for _ in range(50):
        raw = [rng.randint(0, 6) for _ in range(3)]
        once = normalize(raw)
        assert normalize(once) == once


def test_constructor_enforces_descending():
    with pytest.raises(ValueError):
        GroupType((1, 2, 0))
    with pytest.raises(NegativeExponent):
        GroupType((2, 1, -1))


def test_constructor_rejects_bool():
    with pytest.raises(ValueError):
        GroupType((True, False, False))


@pytest.mark.parametrize("raw,error", [
    ((1, 2), ValueError),                 # length before anything else
    ((1, 1, 0, 0), ValueError),
    ((-1, 0), ValueError),                # a wrong length wins over a negative entry
    ((1.0, 0, 0), ValueError),            # only int entries
    ((True, -1, 0), ValueError),          # the entry types before the signs
    ((-1, 0, 0), NegativeExponent),       # a negative entry, also in an unsorted triple
    ((0, -1, 2), NegativeExponent),
    ((2, 1, -1), NegativeExponent),
    ((1, 2, 0), ValueError),              # then the order
    ((0, 0, 1), ValueError),
])
def test_constructor_checks_in_order(raw, error):
    with pytest.raises(ValueError) as info:
        GroupType(raw)
    assert type(info.value) is error


DESCENDING = st.lists(st.integers(0, 9), min_size=3, max_size=3).map(lambda e: tuple(sorted(e, reverse=True)))


@given(DESCENDING, DESCENDING)
def test_type_hashes_compares_and_orders_as_its_triple(a, b):
    s, t = GroupType(a), GroupType(b)
    assert hash(s) == hash(a)
    assert s == a and tuple(s) == a
    assert (s == t) == (a == b)
    assert (s < t) == (a < b) and (s <= t) == (a <= b)
    assert sorted([t, s]) == sorted([b, a])
    assert {s: 1}.get(a) == 1


def test_type_is_a_slotted_tuple():
    t = GroupType((3, 2, 0))
    assert isinstance(t, tuple) and not hasattr(t, "__dict__")
    assert not hasattr(t, "exponents")
    e1, e2, e3 = t
    assert (e1, e2, e3) == (t[0], t[1], t[2]) == (3, 2, 0)


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_and_pickles_keep_the_class(clone):
    t = GroupType((3, 2, 1))
    u = clone(t)
    assert type(u) is GroupType and u == t
    assert u.rank == 3


def test_repr_and_str_keep_their_bytes():
    # verify's census rows print the repr of (type, count) pairs
    assert repr(GroupType((3, 2, 0))) == "GroupType(exponents=(3, 2, 0))"
    assert str(GroupType((3, 2, 0))) == "3,2,0"
    assert str(((GroupType((2, 1, 0)), 12),)) == "((GroupType(exponents=(2, 1, 0)), 12),)"


def test_order():
    assert GroupType((3, 2, 1)).order(2) == 64
    assert GroupType((0, 0, 0)).order(17) == 1
    assert GroupType((2, 2, 2)).order(3) == 729


def test_order_permutation_invariant():
    rng = random.Random(11)
    for _ in range(50):
        raw = [rng.randint(0, 5) for _ in range(3)]
        p = rng.choice([2, 3, 5])
        expected = p ** sum(raw)
        assert normalize(raw).order(p) == expected


def test_rank():
    assert GroupType((3, 2, 1)).rank == 3
    assert GroupType((2, 1, 0)).rank == 2
    assert GroupType((1, 0, 0)).rank == 1
    assert GroupType((0, 0, 0)).rank == 0


def test_elementary_abelian():
    assert GroupType((1, 1, 1)).is_elementary_abelian
    assert not GroupType((2, 1, 0)).is_elementary_abelian
    assert GroupType((0, 0, 0)).is_elementary_abelian


def test_str_and_parse():
    assert str(GroupType((3, 2, 1))) == "3,2,1"
    assert parse_type("3,2,1") == GroupType((3, 2, 1))
    assert parse_type("1,0,0").rank == 1


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_type("2,3,1")  # not descending
    with pytest.raises(ValueError):
        parse_type("3,2")
    with pytest.raises(ValueError):
        parse_type("a,b,c")
    with pytest.raises(ValueError):
        parse_type("3,2,-1")


@pytest.mark.parametrize("text", ["٣,٢,١", " 3,2,1", "3,+2,1", "3,2,1 ", "3_0,2,1", "3,,1", "3,2,1,"])
def test_parse_takes_only_ascii_digit_entries(text):
    # the CLI's number grammar: int() would take each of these entries
    with pytest.raises(ValueError, match="digits 0-9"):
        parse_type(text)


@settings(deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 60), PRIMES, st.data())
def test_p_valuation_of_unit_times_power(q, v, p, data):
    u = q * p + data.draw(st.integers(1, p - 1))  # coprime to p
    assert p_valuation(u * p**v, p) == v


@pytest.mark.parametrize("n,p", [(0, 3), (8, 1)])
def test_p_valuation_needs_nonzero_n_and_p_at_least_2(n, p):
    with pytest.raises(ValueError, match="p-valuation"):
        p_valuation(n, p)


@settings(deadline=None)
@given(st.lists(st.integers(0, 6), min_size=3, max_size=3), PRIMES)
def test_type_from_layers_reads_back_the_type(raw, p):
    t = normalize(raw)
    orders = [p ** sum(min(k, e) for e in t) for k in range(t[0] + 1)]
    assert type_from_layers(orders, p) == t


def test_type_from_layers_rejects_non_p_power_under_optimize():
    with pytest.raises(ValueError, match="6 is not a power of 2"):
        type_from_layers([1, 6], 2)
    # the check must be an explicit raise, not an assert that -O strips
    src = str(Path(pgfactor.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = "from pgfactor.grouptype import type_from_layers; type_from_layers([1, 6], 2)"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode != 0
    assert "ValueError" in proc.stderr
