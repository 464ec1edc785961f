"""Brute-force ground truth on explicit groups.

Enumerates every subgroup of Z_{p^e1} x Z_{p^e2} x Z_{p^e3} by walking
Hermite normal forms, and checks the structural claims the fast routes rely
on: lattice Mobius values against the elementary-abelian closed form, and
both inversion identities against a direct count of factorizations.  A check
is a ``(name, expected, actual)`` triple; ``cli`` turns it into a JSON row.

A subgroup of Z^3 / diag(p^e) Z^3 is a lattice between diag(p^e) Z^3 and
Z^3, and each such lattice has exactly one upper-triangular Hermite normal
form basis (M. Tarnauceanu, "An arithmetic method of counting the subgroups
of a finite abelian group", 2010; H. Cohen, "A Course in Computational
Algebraic Number Theory", 2.4).  Walking those bases lists every subgroup
exactly once, by explicit enumeration rather than a formula, so the oracle
stays independent of the closed form.  The walk solves the HNF congruences
for the off-diagonal entries and rechecks each basis it yields.

There are two tiers.  ``oracle_factorizations``, which ``f2 --method
oracle`` and ``table`` call, tallies the bases' entries mod p and builds no
mask.  ``all_subgroups``, which only ``verify`` calls, also holds each
subgroup as a mask, sorts the masks and rejects a repeated one; the Mobius
checks need the masks.

Subgroups, the layers Omega_k and the multiples p^k G are membership
bitmasks over the element index space, each built from an HNF basis, so a
meet is one AND and a popcount and types are read off popcounts.  A
subgroup is its mask and nothing more: ``Lattice.subgroups`` lists the
masks sorted by (order, mask), a subgroup's id is its position there, and
its order is the mask's popcount.  A mask is one periodic block repeated by
doubling, and the block's slices are runs of rows that recur across bases,
so one walk builds each run once.  The walk builds only the layer Omega_1;
the other layers and the multiples wait for ``subgroup_type`` and
``quotient_type_mod``, which no command calls.

No check takes a pass over all pairs of subgroups.  By Burnside's basis
theorem pG is the Frattini subgroup (B. Huppert, "Endliche Gruppen I",
III.3), so H + K = G exactly when the images of H and K span G/pG = F_p^r;
the HNF rows mod p are triangular with 0 or 1 on the diagonal, so both tiers
read each image's echelon basis off them by a few cases, and the
factorization count is a sum over pairs of image classes.  Lattice Mobius
values vanish outside the few elementary abelian sections (P. Hall, "The
Eulerian functions of a group", 1936), so the one Mobius recursion sums
only the nonzero values found so far, testing containment by mask
subset.  Upward from the trivial subgroup those values lie in Omega_1(G),
so a subgroup takes its sum from its meet with Omega_1(G), once per meet;
the same pass counts the subgroups above each nonzero value, and the
downward pass to G those below it.  No library function builds the full
containment relation; the tests and the benchmark's tracer do, as a
reference.  This is a desk-scale verification tool; a configurable order
cap keeps accidental huge inputs out.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import pairwise, product
from math import gcd

from .grouptype import GroupType, type_from_layers
from .mobius import hall_mobius

DEFAULT_MAX_ORDER = 4096


class GroupTooLarge(RuntimeError):
    """Requested group order exceeds the configured enumeration cap."""


class NotComparable(ValueError):
    """Mobius value requested for subgroups not related by containment."""


class ConcreteGroup:
    """Explicit abelian p-group, held as bitmasks over its element indices.

    ``_layer(k)`` builds the mask of the layer Omega_k = {x : p^k x = 0}, the
    diagonal HNF basis p^max(e_i - k, 0).  For k = 0..e1, ``omega[k]`` is
    Omega_k and ``multiples[k]`` is p^k G, the diagonal basis p^min(k, e_i);
    both lists are built on first use, as only ``subgroup_type`` and
    ``quotient_type_mod`` read them.
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

    def _layer(self, k: int) -> int:
        return _span_mask(self.moduli, (self.p ** max(e - k, 0) for e in self.gtype), 0, 0, 0, {})

    @cached_property
    def omega(self) -> list[int]:
        return [self._layer(k) for k in range(self.gtype[0] + 1)]

    @cached_property
    def multiples(self) -> list[int]:
        return [_span_mask(self.moduli, (self.p ** min(k, e) for e in self.gtype), 0, 0, 0, {})
                for k in range(self.gtype[0] + 1)]


def build_group(t: GroupType, p: int, max_order: int = DEFAULT_MAX_ORDER) -> ConcreteGroup:
    return ConcreteGroup(t, p, max_order)


@dataclass
class Lattice:
    """All subgroups of a ConcreteGroup with F2 precomputed.

    A subgroup is its membership mask, and ``subgroups`` lists the masks
    sorted by (order, mask), the order being the mask's popcount.  A
    subgroup's id is its position in that list, so ids are stable across
    runs; id 0 is the trivial subgroup (mask 1) and the last id is the
    group.  ``factorizations`` is the number of ordered pairs (H, K) with
    H + K = G and ``socle`` is the mask of Omega_1(G).  ``upward`` and the
    bitmasks over ids ``below[i]`` / ``above[i]`` are built on first use;
    only the tests and the benchmark's tracer read the bitmasks.
    """

    subgroups: list[int]
    factorizations: int
    socle: int

    @cached_property
    def upward(self) -> tuple[list[int], list[int]]:
        """mu(1, H), and |[H, G]| where it is nonzero, by id; both verify checks share it."""
        return _sparse_mobius(self.subgroups, upward=True, socle=self.socle)

    @cached_property
    def containment(self) -> tuple[list[int], list[int]]:
        """(below, above), by one subset test per pair of ids a <= b.

        Ids follow the order, so H_a <= H_b needs a <= b.
        """
        n = len(self.subgroups)
        below = [0] * n
        above = [0] * n
        for a, ma in enumerate(self.subgroups):
            for b in range(a, n):
                if self.subgroups[b] & ma == ma:
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


def _span_mask(moduli, d, x12: int, x13: int, x23: int, rows: dict) -> int:
    """Membership mask of the subgroup with HNF basis (d1, x12, x13), (0, d2, x23), (0, 0, d3).

    The one map from coordinates to bits: (y1, y2, y3) is bit (y1 m2 + y2) m3 + y3.
    The members are a r1 + b r2 + c r3 with a < k1, b < k2, c < k3
    (k_i = m_i / d_i).  Writing a x12 = q d2 + s2, slice a holds the rows
    y2 = s2 + b d2 with y3 = b x23 + t (mod d3), t = a x13 - q x23, each
    row swept by c d3.  Rows repeat in b with period per2 = d3 / gcd(x23, d3)
    and slices repeat in a with the least per1 for which per1 r1 lies in the
    span of r2 and r3 modulo m.  Both divide k2 and k1: the HNF conditions
    say that k2 x23 = 0 mod d3 and that k1 r1 lies in that span, and the
    multiples with either property form a subgroup of Z.  So one block of
    per1 slices of per2 rows is built and then repeated by doubling along
    c, b and a; s2 < d2 and every row offset is < d3, so no copies overlap.

    A slice's per2 rows, unshifted, depend only on (d2, d3, x23, t mod d3)
    once the moduli are fixed, so ``rows`` keeps each such run under that
    key: the caller passes one dict for every basis of a group, and a slice
    whose run is already there costs a lookup and a shift.
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
        t = (a * x13 - q * x23) % d3
        key = d2, d3, x23, t
        run = rows.get(key)
        if run is None:
            run = rows[key] = sum(1 << (b * row_bits + (b * x23 + t) % d3) for b in range(per2))
        block |= run << (a * slice_bits + s2 * m3)
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

    The walk solves the congruences rather than filtering the d2 d3^2
    candidates.  x23 runs over the multiples of d3 / gcd(k2, d3) and x12
    over those of d2 / gcd(k1, d2).  With c = (k1 x12 / d2) x23 and
    g13 = gcd(k1, d3), k1 x13 = c (mod d3) has solutions only when g13
    divides c, and they are one coset of the multiples of s = d3 / g13.
    As k1 and d3 are powers of p, g13 is the smaller of them: either s = 1
    and every x13 solves it, or g13 = k1 and x13 = c / k1 (mod s); so the
    coset starts at (c / g13) mod s either way.  Each basis is checked against
    the entry ranges and the three conditions before it is yielded, and a
    failure raises, so the walk checks its own invariant at every subgroup.
    """
    m1, m2, m3 = g.moduli
    divisors = [[g.p**j for j in range(e + 1)] for e in g.gtype]
    for d1, d2, d3 in product(*divisors):
        k1, k2 = m1 // d1, m2 // d2
        g13 = gcd(k1, d3)
        s = d3 // g13
        for x12 in range(0, d2, d2 // gcd(k1, d2)):
            q = k1 * x12 // d2
            for x23 in range(0, d3, d3 // gcd(k2, d3)):
                c = q * x23
                if c % g13:
                    continue
                for x13 in range(c // g13 % s, d3, s):
                    if (not (0 <= x12 < d2 and 0 <= x13 < d3 and 0 <= x23 < d3)
                            or k2 * x23 % d3 or k1 * x12 % d2 or (k1 * x13 - q * x23) % d3):
                        raise RuntimeError(
                            f"HNF walk yielded ({d1}, {x12}, {x13}, {d2}, {x23}, {d3}), "
                            f"which breaks the HNF conditions")
                    yield d1, x12, x13, d2, x23, d3


def _frattini_image(residues, r: int, p: int) -> tuple[tuple[int, ...], ...]:
    """Reduced row-echelon basis of a subgroup's image in G/pG = F_p^r.

    ``residues`` are the HNF entries (d1, x12, x13, d2, x23, d3) mod p.  The
    image is the row space of the basis rows mod p on the first r
    coordinates; the others belong to factors with e_i = 0, which pG fills.
    Rows come out with leading entry 1, sorted by pivot column.

    The rows mod p are upper triangular with each d_i mod p 0 or 1, as d_i
    is a power of p, and d2 = 1 forces x12 = 0, d3 = 1 forces x13 = x23 = 0.
    So e3 lies in the image exactly when d3 = 1, or d2 = 0 and x23 != 0, or
    the first row is (0, 0, x13) with x13 != 0; it then clears the third
    column of the other rows.  What is left is already reduced once the
    first row is scaled to lead with 1, since a second row (0, 1, x23) comes
    with x12 = 0, and without e3 a first row (0, 0, x13) or a second row
    (0, 0, x23) is zero.  Projecting that basis of the row space in F_p^3
    onto the first r coordinates keeps the rows whose pivot is below r.
    """
    d1, x12, x13, d2, x23, d3 = residues
    e3 = d3 or (x23 and not d2) or (x13 and not (d1 or x12))
    if e3:
        x13 = x23 = 0
    rows = []
    if d1:
        rows.append((1, x12, x13))
    elif x12:
        rows.append((0, 1, x13 * pow(x12, -1, p) % p))
    if d2:
        rows.append((0, 1, x23))
    if e3:
        rows.append((0, 0, 1))
    return tuple(row[:r] for row in rows if any(row[:r]))


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


def _factorizations(bases, g: ConcreteGroup) -> int:
    """Number of ordered pairs (H, K) with H + K = G, from every subgroup's HNF basis.

    The bases are tallied by their entries mod p, each distinct tally is
    reduced once to the subgroup's image in G/pG, and ``_spanning_pairs``
    counts the pairs of images that span.
    """
    p, r = g.p, g.gtype.rank
    residues = Counter((d1 % p, x12 % p, x13 % p, d2 % p, x23 % p, d3 % p)
                       for d1, x12, x13, d2, x23, d3 in bases)
    images = Counter()
    for key, n in residues.items():
        images[_frattini_image(key, r, p)] += n
    return _spanning_pairs(images, r, p)


def oracle_factorizations(g: ConcreteGroup) -> int:
    """Number of ordered pairs (H, K) with H + K = G, with no subgroup held as a mask.

    The same count as ``all_subgroups(g).factorizations``, tallied straight
    from the HNF walk, so memory stays at the tally of residues mod p
    rather than one |G|-bit mask per subgroup.  Without masks there is no
    repeated-subgroup check, and none is needed for a walk that yields
    distinct HNF tuples in range: each subgroup has exactly one HNF basis,
    so two distinct tuples span two distinct subgroups.  The walk rechecks
    the ranges and the HNF conditions at every tuple, and ``_spanning_pairs``
    raises unless exactly one subgroup, G, maps onto G/pG.
    """
    return _factorizations(_hnf_subgroups(g), g)


def all_subgroups(g: ConcreteGroup) -> Lattice:
    """Enumerate every subgroup by its Hermite normal form basis.

    The HNF walk meets each subgroup exactly once; sorting by (order, mask)
    fixes the ids, and a repeated (order, mask) raises.  Its masks share one
    dict of slice runs (see ``_span_mask``), which lives only as long as
    this call.  The factorizations come from the same bases through
    ``_factorizations``, as in ``oracle_factorizations``.
    """
    bases = list(_hnf_subgroups(g))
    rows = {}
    walk = sorted((g.order // (d1 * d2 * d3), _span_mask(g.moduli, (d1, d2, d3), x12, x13, x23, rows))
                  for d1, x12, x13, d2, x23, d3 in bases)
    for a, b in pairwise(walk):
        if a == b:
            raise RuntimeError(f"repeated subgroup of order {a[0]} in the HNF walk")
    # Omega_1; the trivial group's is its Omega_0 = {0}, as p^max(e_i - 1, 0) = 1
    return Lattice([mask for _, mask in walk], _factorizations(bases, g), g._layer(1))


def subgroup_type(g: ConcreteGroup, H: int) -> GroupType:
    """Isomorphism type of the subgroup with mask ``H``, from its layer orders.

    Omega_k(H) = H & Omega_k(G), so the popcounts of those meets are the
    orders |Omega_k(H)| that type_from_layers turns into the type via the
    conjugate partition.
    """
    return type_from_layers([(H & w).bit_count() for w in g.omega], g.p)


def quotient_type_mod(g: ConcreteGroup, H: int) -> GroupType:
    """Isomorphism type of G/H, H given by its mask, from its layer orders.

    A coset x + H lies in Omega_k(G/H) when p^k x is in H.  Multiplication
    by p^k maps G onto p^k G with kernel Omega_k(G), so
    |Omega_k(G/H)| = |H & p^k G| |Omega_k(G)| / |H|.
    """
    order = H.bit_count()
    orders = [(H & pk).bit_count() * w.bit_count() // order
              for pk, w in zip(g.multiples, g.omega)]
    return type_from_layers(orders, g.p)


def count_factorizations(g: ConcreteGroup, lattice: Lattice) -> int:
    """Number of ordered pairs (H, K) with H + K = G.

    ``all_subgroups`` counts them from the images in G/pG; this reads it off.
    """
    return lattice.factorizations


def interval_size(lattice: Lattice, i: int) -> int:
    """Number of subgroups K with H <= K <= G, H the subgroup with id i; ids follow the order.

    A reference for the tests and the benchmark's tracer: nothing in the
    library calls it, as ``verify_inversion_forms`` reads the counts off
    ``Lattice.upward``.
    """
    m = lattice.subgroups[i]
    return sum(K & m == m for K in lattice.subgroups[i:])


def _hall_by_order(p: int) -> dict[int, int]:
    """Hall's mu(1, H) for H elementary abelian, keyed by |H| = p^n, n = 0..3."""
    return {p ** n: hall_mobius(GroupType((1,) * n + (0,) * (3 - n)), p) for n in range(4)}


def _sparse_mobius(subgroups: list[int], upward: bool,
                   socle: int = -1) -> tuple[list[int], list[int]]:
    """Mobius values mu(A, H) (upward) or mu(H, B) (downward) over an interval [A, B].

    ``subgroups`` lists the interval's masks in (order, mask) order and the values
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

    The second list counts, at each nonzero position, the listed subgroups
    on its far side, itself included: over the whole lattice |[H, G]|
    upward and |L(H)| downward; it is 0 elsewhere.  The full tests count as
    they go.  An H that takes a kept sum is tallied by its meet e, and after
    the walk each tally goes to the nonzero K <= e, which by the argument
    above are the nonzero K below H.
    """
    walk = subgroups if upward else subgroups[::-1]
    mu = [0] * len(walk)
    sizes = [0] * len(walk)
    nonzero = []  # (mask, value, position) of each nonzero value so far
    inside = True
    kept = {}  # meet -> [value, subgroups tallied], one lookup per H
    for i, m in enumerate(walk):
        e = m & socle
        if not nonzero:
            value = 1
        elif upward and inside and e != m:
            meet = kept.get(e)
            if meet is None:
                meet = kept[e] = [-sum(v for k, v, _ in nonzero if k & e == k), 0]
            meet[1] += 1
            value = meet[0]
        else:
            value = 0
            for k, v, j in nonzero:
                if k & m == (k if upward else m):
                    sizes[j] += 1
                    value -= v
        if value:
            mu[i] = value
            sizes[i] = 1  # itself
            nonzero.append((m, value, i))
            inside = inside and e == m
    for e, (_, n) in kept.items():
        for k, _, j in nonzero:
            if k & e == k:
                sizes[j] += n
    return (mu, sizes) if upward else (mu[::-1], sizes[::-1])


def mobius_interval(lattice: Lattice, i: int, j: int) -> int:
    """Lattice Mobius value mu(H, K), H and K the subgroups with ids i and j.

    Upward over the ids i..j whose subgroups lie in [H, K].
    """
    h, k = lattice.subgroups[i], lattice.subgroups[j]
    if h & k != h:
        raise NotComparable(f"subgroup {i} is not contained in subgroup {j}")
    interval = [m for m in lattice.subgroups[i:j + 1] if m & h == h and m & k == m]
    return _sparse_mobius(interval, upward=True)[0][-1]


def verify_hall(g: ConcreteGroup, lattice: Lattice) -> list[tuple]:
    """Check mu(1, H) against the elementary-abelian closed form for every H.

    Non-elementary subgroups must give 0; elementary abelian ones of rank n
    must give (-1)^n p^(n(n-1)/2).  The elementary abelian subgroups are
    those in Omega_1(G), and one of order p^n has rank n, so the expected
    value is looked up by the order p^n rather than by typing H; every
    subgroup is compared.  ``lattice.upward`` has Omega_1(G) as its socle
    mask, so a subgroup outside it reuses the sum at its meet with
    Omega_1(G); the mask only saves tests while Hall's vanishing holds, and
    the values stay exact when it does not.  Each mismatch is a check of its
    own, ``(f"hall[id={i}]", expected, actual)``, before the
    ``("hall_mismatches", 0, count)`` check.
    """
    checks = []
    hall, socle = _hall_by_order(g.p), lattice.socle
    mu, _ = lattice.upward
    for i, m in enumerate(lattice.subgroups):
        expected = hall[m.bit_count()] if m & socle == m else 0
        if expected != mu[i]:
            checks.append((f"hall[id={i}]", expected, mu[i]))
    checks.append(("hall_mismatches", 0, len(checks)))
    return checks


def verify_inversion_forms(g: ConcreteGroup, lattice: Lattice) -> list[tuple]:
    """Check both Mobius-inversion expressions against the direct count.

    S1 sums |L(H)|^2 mu(H, G); S2 sums |[H, G]|^2 mu(1, H) with mu taken
    from the closed form; both must equal the brute-force factorization
    count.  Each sum counts only at its nonzero terms.  S1 runs where
    mu(H, G) != 0 and reads |L(H)| off the downward recursion, whose subset
    tests against each nonzero H also count the subgroups below it; nothing
    in S1 comes from the Frattini images, which give the direct count.  S2
    runs over the elementary abelian H (those in Omega_1(G), as the closed
    form vanishes elsewhere), taking mu(1, H) by the order of H and |[H, G]|
    from ``lattice.upward``, the pass that ``verify_hall`` reads.  Returns
    the two checks ``(name, direct count, sum)``.
    """
    mu_top, below = _sparse_mobius(lattice.subgroups, upward=False)
    s1 = sum(n * n * v for v, n in zip(mu_top, below))
    hall, socle = _hall_by_order(g.p), lattice.socle
    s2 = sum(n * n * hall[m.bit_count()] for m, n in zip(lattice.subgroups, lattice.upward[1])
             if n and m & socle == m)
    direct = count_factorizations(g, lattice)
    return [("inversion_sum_subgroup_counts", direct, s1),
            ("inversion_sum_quotient_counts", direct, s2)]
