"""Brute-force ground truth on explicit groups.

Enumerates every subgroup of Z_{p^e1} x Z_{p^e2} x Z_{p^e3} by walking
Hermite normal forms, and checks the structural claims the fast routes rely
on: lattice Mobius values against the elementary-abelian closed form, and
both inversion identities against a direct count of factorizations.

A subgroup of Z^3 / diag(p^e) Z^3 is a lattice between diag(p^e) Z^3 and
Z^3, and each such lattice has exactly one upper-triangular Hermite normal
form basis (M. Tarnauceanu, "An arithmetic method of counting the subgroups
of a finite abelian group", 2010; H. Cohen, "A Course in Computational
Algebraic Number Theory", 2.4).  Walking those bases lists every subgroup
exactly once, by explicit enumeration rather than a formula, so the oracle
stays independent of the closed form.

Subgroups, the layers Omega_k and the multiples p^k G are membership
bitmasks over the element index space, each built from an HNF basis, so a
meet is one AND and a popcount and types are read off popcounts.  One pass
over the pairs of subgroups reads both containment and the direct count of
factorizations off the meet sizes.  This is a desk-scale verification
tool; a configurable order cap keeps accidental huge inputs out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .grouptype import GroupType, type_from_layers
from .mobius import hall_mobius

DEFAULT_MAX_ORDER = 4096


class GroupTooLarge(RuntimeError):
    """Requested group order exceeds the configured enumeration cap."""


class NotComparable(ValueError):
    """Mobius value requested for subgroups not related by containment."""


class ConcreteGroup:
    """Explicit abelian p-group, held as bitmasks over its element indices.

    For k = 0..e1, ``omega[k]`` is the layer Omega_k = {x : p^k x = 0} and
    ``multiples[k]`` is p^k G: the diagonal HNF bases p^max(e_i - k, 0) and
    p^min(k, e_i).
    """

    def __init__(self, gtype: GroupType, p: int, max_order: int = DEFAULT_MAX_ORDER):
        order = gtype.order(p)
        if order > max_order:
            raise GroupTooLarge(
                f"group of type {gtype} at p={p} has order {order} > cap {max_order}"
            )
        self.gtype = gtype
        self.p = p
        self.moduli = tuple(p**e for e in gtype)
        self.order = order
        layers = range(gtype[0] + 1)
        self.omega = [_span_mask(self.moduli, (p ** max(e - k, 0) for e in gtype), 0, 0, 0)
                      for k in layers]
        self.multiples = [_span_mask(self.moduli, (p ** min(k, e) for e in gtype), 0, 0, 0)
                          for k in layers]


def build_group(t: GroupType, p: int, max_order: int = DEFAULT_MAX_ORDER) -> ConcreteGroup:
    return ConcreteGroup(t, p, max_order)


@dataclass(frozen=True)
class SubgroupSet:
    """One subgroup: membership bitmask over element indices."""

    id: int
    members: int
    order: int


@dataclass
class Lattice:
    """All subgroups of a ConcreteGroup with containment and F2 precomputed.

    ``below[i]`` / ``above[i]`` are bitmasks over subgroup ids.  Ids are
    assigned after sorting by (order, membership bitmask), so they are stable
    across runs; id 0 is the trivial subgroup and the last id is the group.
    ``factorizations`` is the number of ordered pairs (H, K) with H + K = G.
    """

    subgroups: list[SubgroupSet]
    below: list[int]
    above: list[int]
    factorizations: int

    def __len__(self) -> int:
        return len(self.subgroups)

    @property
    def bottom(self) -> SubgroupSet:
        return self.subgroups[0]

    @property
    def top(self) -> SubgroupSet:
        return self.subgroups[-1]

    def leq(self, i: int, j: int) -> bool:
        return bool((self.above[i] >> j) & 1)


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _span_mask(moduli, d, x12: int, x13: int, x23: int) -> int:
    """Membership mask of the subgroup with HNF basis (d1, x12, x13), (0, d2, x23), (0, 0, d3).

    The one map from coordinates to bits: (y1, y2, y3) is bit (y1 m2 + y2) m3 + y3.
    """
    m1, m2, m3 = moduli
    d1, d2, d3 = d
    # c r3 for c < m3 / d3 sweeps the third coordinates r, r + d3, ... with
    # r = y3 mod d3: one run of bits, shifted to each a r1 + b r2
    run = sum(1 << (d3 * c) for c in range(m3 // d3))
    mask = 0
    for a in range(m1 // d1):
        for b in range(m2 // d2):
            y2 = (a * x12 + b * d2) % m2
            y3 = (a * x13 + b * x23) % d3
            mask |= run << ((a * d1 * m2 + y2) * m3 + y3)
    return mask


def _hnf_subgroups(g: ConcreteGroup):
    """Yield (order, membership mask) once per subgroup of g.

    With m_i = p^e_i, d_i = p^j_i (j_i <= e_i) and k_i = m_i / d_i, the HNF
    basis rows are (d1, x12, x13), (0, d2, x23), (0, 0, d3) with
    0 <= x12 < d2 and 0 <= x13, x23 < d3.  They span a lattice containing
    diag(m) Z^3 exactly when k2 x23, k1 x12 and k1 x13 - (k1 x12 / d2) x23
    vanish modulo d3, d2 and d3.  The members a r1 + b r2 + c r3 mod m with
    a < k1, b < k2, c < k3 are then distinct, and there are k1 k2 k3 of
    them.  Missing factors have m_i = 1, so ranks below 3 need no special
    case.
    """
    m1, m2, m3 = g.moduli
    divisors = [[g.p**j for j in range(e + 1)] for e in g.gtype]
    for d1, d2, d3 in product(*divisors):
        k1, k2, k3 = m1 // d1, m2 // d2, m3 // d3
        for x12, x13, x23 in product(range(d2), range(d3), range(d3)):
            if k2 * x23 % d3 or k1 * x12 % d2 or (k1 * x13 - k1 * x12 // d2 * x23) % d3:
                continue
            yield k1 * k2 * k3, _span_mask(g.moduli, (d1, d2, d3), x12, x13, x23)


def all_subgroups(g: ConcreteGroup) -> Lattice:
    """Enumerate every subgroup by its Hermite normal form basis.

    The HNF walk meets each subgroup exactly once; sorting by (order, mask)
    fixes the ids.  One pass over the pairs a <= b then reads both relations
    off the meet size c = |H_a & H_b|: H_a <= H_b when c = |H_a|, and
    H_a + H_b = G when |H_b| = (|G| / |H_a|) c, since |H + K| = |H| |K| / c.
    Of the diagonal pairs only (G, G) can factorize, and must, exactly once.
    """
    walk = sorted(_hnf_subgroups(g))
    n = len(walk)
    below = [0] * n
    above = [0] * n
    unordered = diagonal = 0
    for a, (order_a, ma) in enumerate(walk):
        cofactor = g.order // order_a
        for b, (order_b, mb) in enumerate(walk[a:], a):
            meet = (ma & mb).bit_count()
            if meet == order_a:
                below[b] |= 1 << a
                above[a] |= 1 << b
            if order_b == cofactor * meet:
                unordered += 1
                diagonal += a == b
    if diagonal != 1:
        raise RuntimeError(f"{diagonal} diagonal pairs (H, H) factorize; only (G, G) should")
    subgroups = [SubgroupSet(i, mask, order) for i, (order, mask) in enumerate(walk)]
    return Lattice(subgroups, below, above, 2 * unordered - 1)


def subgroup_type(g: ConcreteGroup, H: SubgroupSet) -> GroupType:
    """Isomorphism type of a subgroup from its layer orders.

    Omega_k(H) = H & Omega_k(G), so the popcounts of those meets are the
    orders |Omega_k(H)| that type_from_layers turns into the type via the
    conjugate partition.
    """
    return type_from_layers([(H.members & w).bit_count() for w in g.omega], g.p)


def quotient_type_mod(g: ConcreteGroup, H: SubgroupSet) -> GroupType:
    """Isomorphism type of G/H from its layer orders.

    A coset x + H lies in Omega_k(G/H) when p^k x is in H.  Multiplication
    by p^k maps G onto p^k G with kernel Omega_k(G), so
    |Omega_k(G/H)| = |H & p^k G| |Omega_k(G)| / |H|.
    """
    orders = [(H.members & pk).bit_count() * w.bit_count() // H.order
              for pk, w in zip(g.multiples, g.omega)]
    return type_from_layers(orders, g.p)


def count_factorizations(g: ConcreteGroup, lattice: Lattice) -> int:
    """Number of ordered pairs (H, K) with H + K = G.

    ``all_subgroups`` counts them in its pass over pairs; this reads it off.
    """
    return lattice.factorizations


def interval_size(lattice: Lattice, H: SubgroupSet) -> int:
    """Number of subgroups K with H <= K <= G."""
    return lattice.above[H.id].bit_count()


def _mobius_from(start: int, ids, relation: list[int]) -> list[int]:
    """Lattice Mobius values between ``start`` and each id, in one pass.

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


def mobius_interval(lattice: Lattice, H: SubgroupSet, K: SubgroupSet) -> int:
    """Lattice Mobius value mu(H, K), by the upward pass from H to K."""
    if not lattice.leq(H.id, K.id):
        raise NotComparable(f"subgroup {H.id} is not contained in subgroup {K.id}")
    interval = _iter_bits(lattice.above[H.id] & lattice.below[K.id])
    return _mobius_from(H.id, interval, lattice.below)[K.id]


def _mobius_to_top(lattice: Lattice) -> list[int]:
    """mu(H, G) for every H at once, by the downward pass from G.

    The same values as mobius_interval(lattice, H, top), which walks the
    other way; the test suite checks the two against each other.
    """
    n = len(lattice)
    return _mobius_from(n - 1, range(n - 1, -1, -1), lattice.above)


@dataclass
class CheckResult:
    name: str
    status: str
    expected: str
    actual: str


@dataclass
class VerificationReport:
    """Pass/fail record for one (type, p) instance across named checks."""

    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name: str, expected, actual) -> None:
        status = "pass" if expected == actual else "fail"
        self.checks.append(CheckResult(name, status, str(expected), str(actual)))

    @property
    def overall(self) -> bool:
        return all(c.status == "pass" for c in self.checks)


def verify_hall(g: ConcreteGroup, lattice: Lattice) -> VerificationReport:
    """Check mu(1, H) against the elementary-abelian closed form for every H.

    Non-elementary subgroups must give 0; elementary abelian ones of rank n
    must give (-1)^n p^(n(n-1)/2).  Mismatches are listed individually.
    """
    report = VerificationReport()
    mu = _mobius_from(lattice.bottom.id, range(len(lattice)), lattice.below)
    mismatches = 0
    for H in lattice.subgroups:
        expected = hall_mobius(subgroup_type(g, H), g.p)
        actual = mu[H.id]
        if expected != actual:
            mismatches += 1
            report.add(f"hall[id={H.id}]", expected, actual)
    report.add("hall_mismatches", 0, mismatches)
    return report


def verify_inversion_forms(g: ConcreteGroup, lattice: Lattice) -> VerificationReport:
    """Check both Mobius-inversion expressions against the direct count.

    S1 sums |L(H)|^2 mu(H, G); S2 sums |[H, G]|^2 mu(1, H) with mu taken
    from the closed form; both must equal the brute-force factorization
    count.
    """
    report = VerificationReport()
    mu_top = _mobius_to_top(lattice)
    s1 = 0
    s2 = 0
    for H in lattice.subgroups:
        s1 += lattice.below[H.id].bit_count() ** 2 * mu_top[H.id]
        s2 += interval_size(lattice, H) ** 2 * hall_mobius(subgroup_type(g, H), g.p)
    direct = count_factorizations(g, lattice)
    report.add("inversion_sum_subgroup_counts", direct, s1)
    report.add("inversion_sum_quotient_counts", direct, s2)
    return report
