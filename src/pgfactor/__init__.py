"""Exact subgroup counts and factorization numbers of finite abelian p-groups
of rank at most 3, computed three independent ways (closed form, Mobius sum
over the socle, brute-force lattice enumeration) so they can cross-check
each other.
"""

from .formulas import (
    FormulaResult,
    factorization_count,
    factorization_count_equal_exponents,
    subgroup_count,
    subgroup_count_ext,
)
from .grouptype import GroupType, NegativeExponent, normalize, parse_type
from .mobius import (
    InvalidSubspace,
    Subspace,
    enumerate_subspaces,
    factorization_count_mobius,
    gaussian_binomial,
    hall_mobius,
    quotient_type,
    quotient_type_census,
    reference_census,
    smith_normal_form,
)
from .oracle import (
    DEFAULT_MAX_ORDER,
    ConcreteGroup,
    GroupTooLarge,
    Lattice,
    NotComparable,
    SubgroupSet,
    VerificationReport,
    all_subgroups,
    build_group,
    count_factorizations,
    interval_size,
    mobius_interval,
    subgroup_type,
    verify_hall,
    verify_inversion_forms,
)
from .poly import InexactDivision, IntPolynomial, P

__all__ = [
    "ConcreteGroup",
    "DEFAULT_MAX_ORDER",
    "FormulaResult",
    "GroupTooLarge",
    "GroupType",
    "InexactDivision",
    "IntPolynomial",
    "InvalidSubspace",
    "Lattice",
    "NegativeExponent",
    "NotComparable",
    "P",
    "SubgroupSet",
    "Subspace",
    "VerificationReport",
    "all_subgroups",
    "build_group",
    "count_factorizations",
    "enumerate_subspaces",
    "factorization_count",
    "factorization_count_equal_exponents",
    "factorization_count_mobius",
    "gaussian_binomial",
    "hall_mobius",
    "interval_size",
    "mobius_interval",
    "normalize",
    "parse_type",
    "quotient_type",
    "quotient_type_census",
    "reference_census",
    "smith_normal_form",
    "subgroup_count",
    "subgroup_count_ext",
    "subgroup_type",
    "verify_hall",
    "verify_inversion_forms",
]
