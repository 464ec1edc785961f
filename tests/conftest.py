import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from pgfactor import GroupType, IntPolynomial, all_subgroups, build_group  # noqa: E402


@pytest.fixture(scope="session")
def lattice_cache():
    """Build each (type, p) concrete lattice at most once per test session."""
    cache = {}

    def get(exponents, p):
        key = (tuple(exponents), p)
        if key not in cache:
            g = build_group(GroupType(key[0]), p)
            cache[key] = (g, all_subgroups(g))
        return cache[key]

    return get


@pytest.fixture
def dense_products(monkeypatch):
    """Record the products that IntPolynomial packs: both operands have more
    than one nonzero coefficient, so neither is a single term c*p^d."""
    calls = []
    mul = IntPolynomial.__mul__

    def counting(self, other):
        if isinstance(other, IntPolynomial) and any(self.coeffs[:-1]) and any(other.coeffs[:-1]):
            calls.append((len(self.coeffs), len(other.coeffs)))
        return mul(self, other)

    monkeypatch.setattr(IntPolynomial, "__mul__", counting)
    return calls
