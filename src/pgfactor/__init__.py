"""Exact subgroup counts and factorization numbers of finite abelian p-groups
of rank at most 3, computed three independent ways (closed form, Mobius sum
over the socle, brute-force lattice enumeration) so they can cross-check
each other.
"""

from .formulas import factorization_count, subgroup_count
from .grouptype import GroupType, NegativeExponent, parse_type
from .mobius import factorization_count_mobius
from .oracle import (
    DEFAULT_MAX_ORDER,
    GroupTooLarge,
    all_subgroups,
    build_group,
    count_factorizations,
    oracle_factorizations,
)
from .poly import InexactDivision, IntPolynomial, P

__all__ = [
    "DEFAULT_MAX_ORDER",
    "GroupTooLarge",
    "GroupType",
    "InexactDivision",
    "IntPolynomial",
    "NegativeExponent",
    "P",
    "all_subgroups",
    "build_group",
    "count_factorizations",
    "factorization_count",
    "factorization_count_mobius",
    "oracle_factorizations",
    "parse_type",
    "subgroup_count",
]
