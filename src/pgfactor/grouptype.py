"""Isomorphism types of finite abelian p-groups of rank at most 3.

A type is the descending exponent triple (e1, e2, e3) of
Z_{p^e1} x Z_{p^e2} x Z_{p^e3}; smaller ranks are padded with zeros, so
(2, 0, 0) is the cyclic group of order p^2.
"""

from __future__ import annotations

from dataclasses import dataclass


class NegativeExponent(ValueError):
    """A type exponent was negative."""


@dataclass(frozen=True, order=True)
class GroupType:
    exponents: tuple[int, int, int]

    def __post_init__(self):
        e = self.exponents
        # bool is an int subclass; True/False are not exponents
        if len(e) != 3 or not all(type(x) is int for x in e):
            raise ValueError(f"expected exactly 3 integer exponents, got {e!r}")
        if min(e) < 0:
            raise NegativeExponent(f"negative exponent in {e!r}")
        if not (e[0] >= e[1] >= e[2]):
            raise ValueError(f"exponents must be descending, got {e!r}")

    def __iter__(self):
        return iter(self.exponents)

    def __getitem__(self, i: int) -> int:
        return self.exponents[i]

    @property
    def rank(self) -> int:
        return sum(1 for x in self.exponents if x > 0)

    @property
    def is_elementary_abelian(self) -> bool:
        return self.exponents[0] <= 1

    def order(self, p: int) -> int:
        return p ** sum(self.exponents)

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.exponents)


def normalize(raw) -> GroupType:
    """Sort a 3-entry exponent sequence descending into a GroupType.

    Formula arguments arise as unordered triples, so this is the one entry
    point that turns them into a canonical type.  Negative entries are
    rejected, as is a length other than 3, both by GroupType itself; the
    zero-on-negative convention lives in the formulas module.
    """
    return GroupType(tuple(sorted(map(int, raw), reverse=True)))


def parse_number(text: str) -> int:
    """The grammar of every number in the CLI's text forms: one or more ASCII digits 0-9.

    int() alone would also take a sign, spaces, underscores and other scripts' digits.
    """
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"must be one or more digits 0-9, got {text!r}")
    return int(text)  # a ValueError past Python's int-to-str digit limit


def parse_type(text: str) -> GroupType:
    """Parse the CLI text form 'e1,e2,e3': each entry a ``parse_number``, already descending."""
    return GroupType(tuple(map(parse_number, text.split(","))))


def p_valuation(n: int, p: int) -> int:
    """Exponent of the largest power of the prime ``p`` that divides ``n != 0``."""
    if n == 0 or p < 2:
        raise ValueError(f"p-valuation needs n != 0 and p >= 2, got n={n}, p={p}")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def type_from_layers(orders, p: int) -> GroupType:
    """Type of an abelian p-group from the orders of its layers.

    ``orders[k]`` is |Omega_k|, the number of elements killed by p^k, for
    k = 0..e1.  log_p |Omega_k| - log_p |Omega_(k-1)| counts the cyclic
    factors of exponent >= k (the conjugate partition); conjugating back
    yields the type.  An order that is not a power of p raises ValueError.
    """
    logs = []
    for n in orders:
        e = p_valuation(n, p)
        if n != p**e:
            raise ValueError(f"layer order {n} is not a power of {p}")
        logs.append(e)
    conjugate = [b - a for a, b in zip(logs, logs[1:])]
    return normalize([sum(1 for c in conjugate if c >= i) for i in range(1, 4)])
