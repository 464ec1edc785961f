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
meet is one AND and a popcount and types are read off popcounts.

No check takes a pass over all pairs of subgroups.  By Burnside's basis
theorem pG is the Frattini subgroup (B. Huppert, "Endliche Gruppen I",
III.3), so H + K = G exactly when the images of H and K span G/pG = F_p^r;
the walk reads each image off the HNF rows mod p, and the factorization
count is a sum over pairs of image classes.  Lattice Mobius values vanish
outside the few elementary abelian sections (P. Hall, "The Eulerian
functions of a group", 1936), so the one Mobius recursion sums only the
nonzero values found so far, testing containment by mask subset.  Upward
from the trivial subgroup those values lie in Omega_1(G), so a subgroup
takes its sum from its meet with Omega_1(G), once per meet; downward to G
the same tests count the subgroups below each nonzero value.  No library
function builds the full containment relation; the tests and the benchmark's
tracer do, as a reference.  This is a desk-scale verification tool; a
configurable order cap keeps accidental huge inputs out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import pairwise, product
from math import gcd

from .grouptype import GroupType, type_from_layers
from .mobius import _echelon, hall_mobius

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
            # the order itself can run to many thousands of digits
            raise GroupTooLarge(
                f"group of type {gtype} at p={p} has order p^{sum(gtype)} > cap {max_order}"
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
    """All subgroups of a ConcreteGroup with F2 precomputed.

    Ids are assigned after sorting by (order, membership bitmask), so they
    are stable across runs; id 0 is the trivial subgroup and the last id is
    the group.  ``factorizations`` is the number of ordered pairs (H, K) with
    H + K = G.  ``below[i]`` / ``above[i]`` are bitmasks over subgroup ids,
    built on first use; only the tests and the benchmark's tracer read them.
    """

    subgroups: list[SubgroupSet]
    factorizations: int

    @cached_property
    def containment(self) -> tuple[list[int], list[int]]:
        """(below, above), by one subset test per pair of ids a <= b.

        Ids follow the order, so H_a <= H_b needs a <= b.
        """
        n = len(self.subgroups)
        below = [0] * n
        above = [0] * n
        for a, H in enumerate(self.subgroups):
            ma = H.members
            for b in range(a, n):
                if self.subgroups[b].members & ma == ma:
                    below[b] |= 1 << a
                    above[a] |= 1 << b
        return below, above

    @property
    def below(self) -> list[int]:
        return self.containment[0]

    @property
    def above(self) -> list[int]:
        return self.containment[1]

    def __len__(self) -> int:
        return len(self.subgroups)


def _repeat(x: int, stride: int, count: int) -> int:
    """OR of x << (i stride) for i < count, by doubling: about 2 log2(count) shifts."""
    out = 0
    shift = 0
    while count:
        if count & 1:
            out |= x << shift
            shift += stride
        count >>= 1
        if count:
            x |= x << stride
            stride *= 2
    return out


def _span_mask(moduli, d, x12: int, x13: int, x23: int) -> int:
    """Membership mask of the subgroup with HNF basis (d1, x12, x13), (0, d2, x23), (0, 0, d3).

    The one map from coordinates to bits: (y1, y2, y3) is bit (y1 m2 + y2) m3 + y3.
    The members are a r1 + b r2 + c r3 with a < k1, b < k2, c < k3
    (k_i = m_i / d_i).  Writing a x12 = q d2 + s2, slice a holds the rows
    y2 = s2 + b d2 with y3 = b x23 + t3 (mod d3), t3 = a x13 - q x23, each
    row swept by c d3.  Rows repeat in b with period per2 = d3 / gcd(x23, d3)
    and slices repeat in a with the least per1 for which per1 r1 lies in the
    span of r2 and r3 modulo m.  Both divide k2 and k1: the HNF conditions
    say that k2 x23 = 0 mod d3 and that k1 r1 lies in that span, and the
    multiples with either property form a subgroup of Z.  So one block of
    per1 slices of per2 rows is built bit by bit and then repeated by
    doubling along c, b and a; s2 < d2 and every row offset is < d3, so no
    copies overlap.
    """
    m1, m2, m3 = moduli
    d1, d2, d3 = d
    per2 = d3 // gcd(x23, d3)
    alpha = d2 // gcd(x12, d2)
    per1 = alpha * d3 // gcd(alpha * x13 - alpha * x12 // d2 * x23, d3)
    slice_bits = d1 * m2 * m3
    row_bits = d2 * m3
    block = 0
    for a in range(per1):
        q, s2 = divmod(a * x12, d2)
        t3 = a * x13 - q * x23
        rows = 0
        for b in range(per2):
            rows |= 1 << (b * row_bits + (b * x23 + t3) % d3)
        block |= rows << (a * slice_bits + s2 * m3)
    block = _repeat(block, d3, m3 // d3)
    block = _repeat(block, per2 * row_bits, m2 // d2 // per2)
    return _repeat(block, per1 * slice_bits, m1 // d1 // per1)


def _hnf_subgroups(g: ConcreteGroup):
    """Yield the HNF entries (d1, x12, x13, d2, x23, d3) once per subgroup of g.

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
            yield d1, x12, x13, d2, x23, d3


def _frattini_image(residues, r: int, p: int) -> tuple[tuple[int, ...], ...]:
    """Reduced row-echelon basis of a subgroup's image in G/pG = F_p^r.

    ``residues`` are the HNF entries (d1, x12, x13, d2, x23, d3) mod p.  The
    image is the row space of the basis rows mod p on the first r
    coordinates; the others belong to factors with e_i = 0, which pG fills.
    Rows come out with leading entry 1, sorted by pivot column.
    """
    d1, x12, x13, d2, x23, d3 = residues
    rows = ((d1, x12, x13), (0, d2, x23), (0, 0, d3))[:r]
    return tuple(tuple(b) for _, b in sorted(_echelon((row[:r] for row in rows), p)))


def _spanning_pairs(images: dict, r: int, p: int) -> int:
    """Sum of n_V n_W over ordered pairs of images with V + W = F_p^r.

    ``images`` maps each image in G/pG (its basis from ``_frattini_image``)
    to the number n_V of subgroups with that image.  Since pG is the
    Frattini subgroup, only G itself maps onto F_p^r.  At r <= 3 a spanning
    pair either holds the whole space, or is two distinct hyperplanes, or
    (r = 3) is a plane and a point off it.  The points of the plane with
    basis (early, late) are late and early + s late for s < p, each with
    leading entry 1 already.
    """
    by_dim = [{} for _ in range(r + 1)]
    for image, n in images.items():
        by_dim[len(image)][image] = n
    full = sum(by_dim[r].values())
    if full != 1:
        raise RuntimeError(f"{full} subgroups map onto G/pG; only G should")
    pairs = 2 * sum(images.values()) - 1
    if r:
        hyperplanes = by_dim[r - 1].values()
        pairs += sum(hyperplanes) ** 2 - sum(n * n for n in hyperplanes)
    if r == 3:
        lines = by_dim[1]
        all_lines = sum(lines.values())
        for ((a1, a2, a3), late), n in by_dim[2].items():
            b1, b2, b3 = late
            on = lines.get((late,), 0) + sum(
                lines.get((((a1 + s * b1) % p, (a2 + s * b2) % p, (a3 + s * b3) % p),), 0)
                for s in range(p))
            pairs += 2 * n * (all_lines - on)
    return pairs


def all_subgroups(g: ConcreteGroup) -> Lattice:
    """Enumerate every subgroup by its Hermite normal form basis.

    The HNF walk meets each subgroup exactly once; sorting by (order, mask)
    fixes the ids.  The same walk tallies the HNF entries mod p, and each
    distinct tally is reduced once to the subgroup's image in G/pG, from
    which ``_spanning_pairs`` counts the factorizations.
    """
    p = g.p
    walk = []
    residues = {}
    for d1, x12, x13, d2, x23, d3 in _hnf_subgroups(g):
        walk.append((g.order // (d1 * d2 * d3), _span_mask(g.moduli, (d1, d2, d3), x12, x13, x23)))
        key = d1 % p, x12 % p, x13 % p, d2 % p, x23 % p, d3 % p
        residues[key] = residues.get(key, 0) + 1
    walk.sort()
    for a, b in pairwise(walk):
        if a == b:
            raise RuntimeError(f"repeated subgroup of order {a[0]} in the HNF walk")
    r = g.gtype.rank
    images = {}
    for key, n in residues.items():
        image = _frattini_image(key, r, p)
        images[image] = images.get(image, 0) + n
    subgroups = [SubgroupSet(i, mask, order) for i, (order, mask) in enumerate(walk)]
    return Lattice(subgroups, _spanning_pairs(images, r, p))


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

    ``all_subgroups`` counts them from the images in G/pG; this reads it off.
    """
    return lattice.factorizations


def interval_size(lattice: Lattice, H: SubgroupSet) -> int:
    """Number of subgroups K with H <= K <= G; ids follow the order, so K.id >= H.id.

    A reference for the tests and the benchmark's tracer: nothing in the
    library calls it, as ``verify_inversion_forms`` counts by socle meets.
    """
    m = H.members
    return sum(K.members & m == m for K in lattice.subgroups[H.id:])


def _socle_intervals(lattice: Lattice, omega1: int) -> dict[int, int]:
    """|[H, G]| for every elementary abelian H, keyed by H's mask.

    H inside Omega_1(G) lies in K exactly when it lies in K & Omega_1(G), so
    the subgroups are tallied once by that meet, and |[H, G]| is the sum of
    the tallies whose meet contains H.  Each meet is an elementary abelian
    subgroup and each of those is its own meet, so the keys are exactly
    the elementary abelian subgroups.
    """
    tally = {}
    for K in lattice.subgroups:
        e = K.members & omega1
        tally[e] = tally.get(e, 0) + 1
    return {m: sum(n for e, n in tally.items() if e & m == m) for m in tally}


def _socle_and_hall(g: ConcreteGroup) -> tuple[int, dict[int, int]]:
    """Omega_1(G)'s mask, and Hall's mu(1, H) for H elementary abelian keyed by |H| = p^n, n = 0..3."""
    omega1 = g.omega[min(1, len(g.omega) - 1)]  # the trivial group has only Omega_0
    return omega1, {g.p ** n: hall_mobius(GroupType((1,) * n + (0,) * (3 - n)), g.p) for n in range(4)}


def _sparse_mobius(subgroups: list[SubgroupSet], upward: bool,
                   socle: int = -1) -> tuple[list[int], list[int]]:
    """Mobius values mu(A, H) (upward) or mu(H, B) (downward) over an interval [A, B].

    ``subgroups`` lists the interval in (order, mask) order and the values
    come out aligned with it, so over the whole lattice the positions are
    the ids.  mu(x, x) = 1 and, for x < y, the sum of mu(x, z) over
    x <= z <= y vanishes.  Each sum runs only over the values already found
    nonzero, testing containment by mask subset; the skipped terms are zero.

    Upward, while every nonzero value so far lies inside the mask
    ``socle`` (the first value, at A, included), an H whose meet
    e = H & socle is not H itself takes minus the sum of the nonzero values
    at K <= e; that sum is computed once per e and kept.  This is exact for
    any mask.  A K inside the mask lies in H exactly when it lies in e, and
    a K <= e has fewer members than H, so it comes before the first H with
    that meet and no kept sum can miss a later term.  Once a nonzero value
    falls outside the mask, every later H is tested in full.  The default
    mask has every bit, so each H is its own meet and every H is tested.
    With Omega_1(G), which holds every nonzero mu(1, H), the tests
    fall from the subgroup count times the nonzero count to about that count
    plus the nonzero count squared.

    The second list is the downward pass's by-product: the same tests count,
    at each position with a nonzero value, the listed subgroups inside it,
    itself included, which over the whole lattice is |L(H)|.  Every other
    entry, and every entry of the upward pass, is 0.
    """
    walk = subgroups if upward else subgroups[::-1]
    mu = [0] * len(walk)
    sizes = [0] * len(walk)
    nonzero = []  # (mask, value, position) of each nonzero value so far
    inside = True
    sums = {}
    for i, H in enumerate(walk):
        m = H.members
        e = m & socle
        if not nonzero:
            value = 1
        elif not upward:
            value = 0
            for k, v, j in nonzero:
                if k & m == m:
                    sizes[j] += 1
                    value -= v
        elif inside and e != m:
            if e not in sums:
                sums[e] = sum(v for k, v, _ in nonzero if k & e == k)
            value = -sums[e]
        else:
            value = -sum(v for k, v, _ in nonzero if k & m == k)
        if value:
            mu[i] = value
            nonzero.append((m, value, i))
            inside = inside and e == m
            if not upward:
                sizes[i] = 1  # itself
    return (mu, sizes) if upward else (mu[::-1], sizes[::-1])


def mobius_interval(lattice: Lattice, H: SubgroupSet, K: SubgroupSet) -> int:
    """Lattice Mobius value mu(H, K), upward over the ids H.id..K.id that lie in [H, K]."""
    h, k = H.members, K.members
    if h & k != h:
        raise NotComparable(f"subgroup {H.id} is not contained in subgroup {K.id}")
    interval = [L for L in lattice.subgroups[H.id:K.id + 1]
                if L.members & h == h and L.members & k == L.members]
    return _sparse_mobius(interval, upward=True)[0][-1]


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
    must give (-1)^n p^(n(n-1)/2).  The elementary abelian subgroups are
    those in Omega_1(G), and one of order p^n has rank n, so the expected
    value is looked up by the order p^n rather than by typing H; every
    subgroup is compared.  The recursion gets Omega_1(G) as its socle mask,
    so a subgroup outside it reuses the sum at its meet with Omega_1(G); the
    mask only saves tests while Hall's vanishing holds, and the values stay
    exact when it does not.  Mismatches are listed individually.
    """
    report = VerificationReport()
    omega1, hall = _socle_and_hall(g)
    mu, _ = _sparse_mobius(lattice.subgroups, upward=True, socle=omega1)
    mismatches = 0
    for H in lattice.subgroups:
        elementary = H.members & omega1 == H.members
        expected = hall[H.order] if elementary else 0
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
    count.  Each sum counts only at its nonzero terms.  S1 runs where
    mu(H, G) != 0 and reads |L(H)| off the downward recursion, whose subset
    tests against each nonzero H also count the subgroups below it; nothing
    in S1 comes from the Frattini images, which give the direct count.  S2
    runs over the elementary abelian H (those in Omega_1(G), as the closed
    form vanishes elsewhere), taking mu(1, H) by the order of H and |[H, G]|
    from the tallies of the subgroups' meets with Omega_1(G).
    """
    report = VerificationReport()
    mu_top, below = _sparse_mobius(lattice.subgroups, upward=False)
    s1 = sum(n * n * v for v, n in zip(mu_top, below))
    omega1, hall = _socle_and_hall(g)
    s2 = sum(size ** 2 * hall[m.bit_count()]
             for m, size in _socle_intervals(lattice, omega1).items())
    direct = count_factorizations(g, lattice)
    report.add("inversion_sum_subgroup_counts", direct, s1)
    report.add("inversion_sum_quotient_counts", direct, s2)
    return report
