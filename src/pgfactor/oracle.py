"""Brute-force ground truth on explicit groups.

Builds the full element table of Z_{p^e1} x Z_{p^e2} x Z_{p^e3}, enumerates
every subgroup by join closure (seed with all cyclic subgroups, close under
pairwise sum), and checks the structural claims the fast routes rely on:
lattice Mobius values against the elementary-abelian closed form, and both
inversion identities against a direct count of factorizations.

Subgroups are membership bitmasks over the element index space, so meets,
joins and containment run on word-parallel integer ops.  This is a desk-scale
verification tool; a configurable order cap keeps accidental huge inputs out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, product

from .grouptype import GroupType, p_valuation, type_from_layers
from .mobius import hall_mobius

DEFAULT_MAX_ORDER = 4096


class GroupTooLarge(RuntimeError):
    """Requested group order exceeds the configured enumeration cap."""


class NotComparable(ValueError):
    """Mobius value requested for subgroups not related by containment."""


class ConcreteGroup:
    """Explicit abelian p-group with a deterministic lexicographic element index."""

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
        self.elements = list(product(*(range(m) for m in self.moduli)))
        self.index = {e: i for i, e in enumerate(self.elements)}
        # exponent of each element: least k with p^k * x = 0
        self.elem_exp = [
            max(
                (e - p_valuation(a, p) for a, e in zip(vec, gtype) if a),
                default=0,
            )
            for vec in self.elements
        ]

    def add(self, i: int, j: int) -> int:
        a = self.elements[i]
        b = self.elements[j]
        return self.index[tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))]


def build_group(t: GroupType, p: int, max_order: int = DEFAULT_MAX_ORDER) -> ConcreteGroup:
    return ConcreteGroup(t, p, max_order)


@dataclass(frozen=True)
class SubgroupSet:
    """One subgroup: membership bitmask over element indices plus a generator list."""

    id: int
    members: int
    order: int
    gens: tuple[int, ...]


@dataclass
class Lattice:
    """All subgroups of a ConcreteGroup with the containment order precomputed.

    ``below[i]`` / ``above[i]`` are bitmasks over subgroup ids.  Ids are
    assigned after sorting by (order, membership bitmask), so they are stable
    across runs; id 0 is the trivial subgroup and the last id is the group.
    """

    subgroups: list[SubgroupSet]
    below: list[int]
    above: list[int]

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


def _cyclic_subgroup(g: ConcreteGroup, x: int) -> tuple[int, list[int]]:
    mask = 1
    members = [0]
    cur = x
    while cur != 0:
        mask |= 1 << cur
        members.append(cur)
        cur = g.add(cur, x)
    return mask, members


def _extend_by_generator(g: ConcreteGroup, mask: int, members: list[int], gen: int):
    """Close a subgroup under one extra generator: union of translated copies."""
    base_mask = mask
    base = list(members)
    cur = gen
    while not (base_mask >> cur) & 1:
        for s in base:
            t = g.add(s, cur)
            if not (mask >> t) & 1:
                mask |= 1 << t
                members.append(t)
        cur = g.add(cur, gen)
    return mask, members


def all_subgroups(g: ConcreteGroup) -> Lattice:
    """Enumerate every subgroup by join closure over the cyclic seeds.

    For each pair the join's order is known up front (|A||B| / |A & B|), so
    an existing subgroup of that order containing A | B *is* the join; only
    genuinely new subgroups ever get materialized element by element.
    """
    seen = set()
    masks: list[int] = []
    orders: list[int] = []
    member_lists: list[list[int]] = []
    gens: list[tuple[int, ...]] = []
    by_order: dict[int, list[int]] = {}

    def register(mask, members, gen_tuple):
        seen.add(mask)
        masks.append(mask)
        orders.append(len(members))
        member_lists.append(members)
        gens.append(gen_tuple)
        by_order.setdefault(len(members), []).append(mask)

    for x in range(g.order):
        mask, members = _cyclic_subgroup(g, x)
        if mask not in seen:
            register(mask, members, (x,) if x else ())

    i = 1
    while i < len(masks):
        mi, oi = masks[i], orders[i]
        for j in range(i):
            mj, oj = masks[j], orders[j]
            union = mi | mj
            if union == mi or union == mj:
                continue
            target = oi * oj // (mi & mj).bit_count()
            found = False
            for candidate in by_order.get(target, ()):
                if union & ~candidate == 0:
                    found = True
                    break
            if found:
                continue
            big, small = (i, j) if oi >= oj else (j, i)
            mask = masks[big]
            members = list(member_lists[big])
            used = []
            for gen in gens[small]:
                if not (mask >> gen) & 1:
                    mask, members = _extend_by_generator(g, mask, members, gen)
                    used.append(gen)
            register(mask, members, gens[big] + tuple(used))
        i += 1

    order_ids = sorted(range(len(masks)), key=lambda k: (orders[k], masks[k]))
    subgroups = [
        SubgroupSet(new_id, masks[k], orders[k], gens[k])
        for new_id, k in enumerate(order_ids)
    ]
    n = len(subgroups)
    below = [0] * n
    above = [0] * n
    for a in range(n):
        ma = subgroups[a].members
        below[a] |= 1 << a
        above[a] |= 1 << a
        for b in range(a + 1, n):
            if ma & ~subgroups[b].members == 0:
                below[b] |= 1 << a
                above[a] |= 1 << b
    return Lattice(subgroups, below, above)


def subgroup_type(g: ConcreteGroup, H: SubgroupSet) -> GroupType:
    """Isomorphism type of a subgroup from its order census.

    Tallying members by exponent and summing up gives the number of members
    killed by each power of p, which are the layer orders |Omega_k| that
    type_from_layers turns into the type via the conjugate partition.
    """
    tally = [0] * (g.gtype[0] + 1)
    for idx in _iter_bits(H.members):
        tally[g.elem_exp[idx]] += 1
    return type_from_layers(accumulate(tally), g.p)


def quotient_type_mod(g: ConcreteGroup, H: SubgroupSet) -> GroupType:
    """Isomorphism type of G/H, via the same census applied to cosets."""
    hmask = H.members
    orders = []
    for k in range(g.gtype[0] + 1):
        killed = 0
        pk = g.p**k
        for idx in range(g.order):
            vec = g.elements[idx]
            image = g.index[tuple((a * pk) % m for a, m in zip(vec, g.moduli))]
            if (hmask >> image) & 1:
                killed += 1
        orders.append(killed // H.order)
    return type_from_layers(orders, g.p)


def count_factorizations(g: ConcreteGroup, lattice: Lattice) -> int:
    """Number of ordered pairs (H, K) with H + K = G.

    Uses the exact size identity |H + K| = |H| |K| / |H & K| (the sum of two
    subgroups is a subgroup here), so each pair is one AND plus a popcount.
    Internally cross-checks the ordered count against the unordered one.
    """
    subs = lattice.subgroups
    n = g.order
    total = 0
    unordered = 0
    diagonal = 0
    for i, a in enumerate(subs):
        for j in range(i, len(subs)):
            b = subs[j]
            if a.order * b.order == n * (a.members & b.members).bit_count():
                if i == j:
                    diagonal += 1
                    total += 1
                else:
                    total += 2
                unordered += 1
    if total != 2 * unordered - diagonal:
        raise RuntimeError(f"ordered count {total} disagrees with unordered count {unordered}")
    return total


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

    gtype: GroupType
    p: int
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name: str, expected, actual) -> bool:
        ok = expected == actual
        self.checks.append(
            CheckResult(name, "pass" if ok else "fail", str(expected), str(actual))
        )
        return ok

    @property
    def overall(self) -> bool:
        return all(c.status == "pass" for c in self.checks)


def verify_hall(g: ConcreteGroup, lattice: Lattice) -> VerificationReport:
    """Check mu(1, H) against the elementary-abelian closed form for every H.

    Non-elementary subgroups must give 0; elementary abelian ones of rank n
    must give (-1)^n p^(n(n-1)/2).  Mismatches are listed individually.
    """
    report = VerificationReport(g.gtype, g.p)
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
    report = VerificationReport(g.gtype, g.p)
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
