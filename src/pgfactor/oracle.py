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
for the off-diagonal entries and checks each coset it yields once.

The walk yields each choice of the entries other than x13 (a context) with
the coset of x13 values that complete it, and neither tier lists the bases
or builds a subgroup as a set of elements.  Each coset is read at its
first p values of x13, filed straight under subspace ids of F_p^r.
``oracle_factorizations``, which ``f2 --method oracle`` and ``table`` call,
counts the subgroups by image id; ``all_subgroups``, which only ``verify``
calls, also tallies them into classes by (socle key id, order) and (dual
key id, order), and every check runs once per class: 271 classes of each
kind hold the 509734 subgroups at (7,7,7) and p = 2.  A repeated G raises
in the count of pairs, and a repeated proper subgroup shows in the count
that verify checks.

No check takes a pass over all pairs of subgroups.  By Burnside's basis
theorem pG is the Frattini subgroup (B. Huppert, "Endliche Gruppen I",
III.3), so H + K = G exactly when the images of H and K span G/pG = F_p^r;
the HNF rows mod p are triangular with 0 or 1 on the diagonal, so both tiers
read each image's echelon basis off them by a few cases, and the
factorization count is a sum over pairs of image classes.  Lattice Mobius
values vanish outside the elementary abelian sections (P. Hall, "The
Eulerian functions of a group", 1936): mu(1, H) != 0 only for H inside
Omega_1(G), and, read in the dual lattice, mu(H, G) != 0 only for H above
pG.  Both sublattices are subspace lattices of F_p^r, so the two Mobius
passes key each class by a subspace read off its residues (the socle image
upward, the annihilator of the Frattini image downward) and sum over the
subspaces of a key; at rank 3 a plane's proper nonzero subspaces are its
p + 1 points.  A nonzero value off those sublattices, which only a broken
walk gives, sends the pass to exact containment tests on the HNF bases,
walked again.  The subspaces of F_p^r, their incidence (the p^3 term: the
p + 1 points of each of the p^2 + p + 1 planes) and the map from each
residue pattern to its key or image depend on (r, p) alone, not on the
group, and at r <= 1 not on p either: ``_subspace_table`` builds them once
per (r, p) per process, and once per r <= 1, not once per pass or per
call, and the direct count and both passes read them by int id.

Membership bitmasks (element (y1, y2, y3) is bit (y1 m2 + y2) m3 + y3) are
built only on demand, each from an HNF basis by one plain builder,
``_span_mask``: ``Lattice.subgroups``, ``Lattice.containment``, the layers
Omega_k and the multiples p^k G, and the type readers ``subgroup_type`` and
``quotient_type_mod``.  No command builds one; the tests and the benchmark's
tracer read them as a reference.  This is a desk-scale verification tool; a
configurable order cap keeps accidental huge inputs out.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import combinations, product
from math import gcd

from .grouptype import GroupType, type_from_layers
from .mobius import hall_mobius

DEFAULT_MAX_ORDER = 4096


class GroupTooLarge(RuntimeError):
    """Requested group order exceeds the configured enumeration cap."""


class NotComparable(ValueError):
    """Mobius value requested for subgroups not related by containment."""


class ConcreteGroup:
    """Explicit abelian p-group Z_{m1} x Z_{m2} x Z_{m3}, m_i = p^e_i.

    For k = 0..e1, ``omega[k]`` is the mask of the layer Omega_k =
    {x : p^k x = 0}, the diagonal HNF basis p^max(e_i - k, 0), and
    ``multiples[k]`` is p^k G, the diagonal basis p^min(k, e_i).  Both lists
    come from ``_span_mask`` on first use, as only ``subgroup_type`` and
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

    @cached_property
    def omega(self) -> list[int]:
        return [_span_mask(self.moduli, (d1, 0, 0, d2, 0, d3)) for d1, d2, d3 in
                ((self.p ** max(e - k, 0) for e in self.gtype) for k in range(self.gtype[0] + 1))]

    @cached_property
    def multiples(self) -> list[int]:
        return [_span_mask(self.moduli, (d1, 0, 0, d2, 0, d3)) for d1, d2, d3 in
                ((self.p ** min(k, e) for e in self.gtype) for k in range(self.gtype[0] + 1))]


def build_group(t: GroupType, p: int, max_order: int = DEFAULT_MAX_ORDER) -> ConcreteGroup:
    return ConcreteGroup(t, p, max_order)


class Lattice:
    """All subgroups of a ConcreteGroup, tallied into classes by subspace id, with F2 precomputed.

    ``len()`` is the number of subgroups the walk yielded.  ``socle`` and
    ``dual`` are ``_tally``'s two class tallies, by (socle key id, order)
    and by (dual key id, order), ids in ``_subspace_table(r, p)``; the
    upward and downward Mobius passes read them.  ``factorizations``, the
    number of ordered pairs (H, K) with H + K = G, comes from ``_tally``'s
    counts by image id.  ``upward`` is built on first use.  So
    are ``bases``, a second walk that lists each subgroup's HNF entries
    (d1, x12, x13, d2, x23, d3) sorted by (order, entries), and from it the
    membership masks ``subgroups`` and the bitmasks over ids ``below[i]`` /
    ``above[i]``.  A subgroup's id is its position in ``bases``, so ids are
    stable across runs; id 0 is the trivial subgroup and the last id is the
    group.  Only the tests, the benchmark's tracer, the references
    ``interval_size`` and ``mobius_interval`` and the ``_exact_mobius``
    fallback read ``bases``.
    """

    def __init__(self, group: ConcreteGroup, count: int, socle: dict, dual: dict, factorizations: int):
        self.group = group
        self.count = count
        self.socle = socle
        self.dual = dual
        self.factorizations = factorizations

    @cached_property
    def upward(self) -> tuple[list, ...]:
        """The columns of the upward pass: mu(1, H) and |[H, G]| by class, from ``_class_mobius``.

        Both verify checks read it, so they run the upward pass once between them.
        """
        return _lattice_mobius(self, upward=True)

    @cached_property
    def bases(self) -> list[tuple]:
        """Every subgroup's HNF entries, walked again and sorted by (order, entries)."""
        n = self.group.order
        return sorted(((d1, x12, x13, d2, x23, d3) for d1, x12, xs, d2, x23, d3 in _hnf_subgroups(self.group)
                       for x13 in xs), key=lambda b: (n // (b[0] * b[3] * b[5]), b))

    @cached_property
    def subgroups(self) -> list[int]:
        """Membership masks in id order, each built from its HNF basis by ``_span_mask``."""
        return [_span_mask(self.group.moduli, basis) for basis in self.bases]

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
        return self.count


def _span_mask(moduli, basis) -> int:
    """Membership mask of the subgroup with HNF entries (d1, x12, x13, d2, x23, d3).

    The one map from coordinates to bits: (y1, y2, y3) is bit (y1 m2 + y2) m3 + y3.
    The members are a r1 + b r2 + c r3 mod m for the rows r1 = (d1, x12, x13),
    r2 = (0, d2, x23), r3 = (0, 0, d3), with a < k1, b < k2, c < k3 (k_i =
    m_i / d_i).  For each a and b the members over c are one run of bits d3
    apart: y1 = a d1, y2 = a x12 + b d2 mod m2 and y3 runs from
    a x13 + b x23 mod d3, as d3 divides m3.  So the mask ORs k1 k2 shifted
    copies of that run.
    """
    m1, m2, m3 = moduli
    d1, x12, x13, d2, x23, d3 = basis
    run = sum(1 << y3 for y3 in range(0, m3, d3))
    mask = 0
    for a in range(m1 // d1):
        for b in range(m2 // d2):
            mask |= run << ((a * d1 * m2 + (a * x12 + b * d2) % m2) * m3 + (a * x13 + b * x23) % d3)
    return mask


def _hnf_subgroups(g: ConcreteGroup):
    """Yield (d1, x12, xs, d2, x23, d3) once per context, xs the range of its x13.

    Each subgroup of g has the HNF entries (d1, x12, x13, d2, x23, d3) of
    exactly one yield, with x13 in xs.  With m_i = p^e_i, d_i = p^j_i
    (j_i <= e_i) and k_i = m_i / d_i, the HNF basis rows are (d1, x12, x13),
    (0, d2, x23), (0, 0, d3) with 0 <= x12 < d2 and 0 <= x13, x23 < d3.
    They span a lattice containing diag(m) Z^3 exactly when k2 x23, k1 x12
    and k1 x13 - (k1 x12 / d2) x23 vanish modulo d3, d2 and d3.  The members
    a r1 + b r2 + c r3 mod m with a < k1, b < k2, c < k3 are then distinct,
    and there are k1 k2 k3 of them.  Missing factors have m_i = 1, so ranks
    below 3 need no special case.

    The walk solves the congruences rather than filtering the d2 d3^2
    candidates.  x23 runs over the multiples of d3 / gcd(k2, d3) and x12
    over those of d2 / gcd(k1, d2); a context is the entries other than
    x13.  With c = (k1 x12 / d2) x23 and g13 = gcd(k1, d3), k1 x13 = c (mod
    d3) has solutions only when g13 divides c, and they are one coset of the
    multiples of s = d3 / g13.  As k1 and d3 are powers of p, g13 is the
    smaller of them: either s = 1 and every x13 solves it, or g13 = k1 and
    x13 = c / k1 (mod s); so the coset starts at (c / g13) mod s either way.
    Each context is checked once, and a failure raises: the coset is
    nonempty, its first x13 passes the ranges and the three conditions, its
    last lies in range, and k1 times its step vanishes modulo d3, so every
    x13 of the coset passes too.
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
                xs = range(c // g13 % s, d3, s)
                if (not xs or not (0 <= x12 < d2 and 0 <= x23 < d3 and 0 <= xs[0] < d3 and 0 <= xs[-1] < d3)
                        or k2 * x23 % d3 or k1 * x12 % d2 or (k1 * xs[0] - c) % d3 or k1 * xs.step % d3):
                    raise RuntimeError(
                        f"HNF walk yielded ({d1}, {x12}, {xs}, {d2}, {x23}, {d3}), "
                        f"which breaks the HNF conditions")
                yield d1, x12, xs, d2, x23, d3


def _tally(g: ConcreteGroup, contexts) -> tuple[int, dict, dict, list]:
    """The subgroups of the contexts (d1, x12, xs, d2, x23, d3), counted and tallied by subspace id.

    Ids are those of ``_subspace_table(r, p)``.  ``socle`` and ``dual`` map
    a class, its key's id and its order, to its number of subgroups: the
    socle key by ``_key``'s matrix C on and above the diagonal, column by
    column, and the dual key by the HNF residues, which also give
    ``images``, the counts by image id.  Along a coset x13 = x0 + i s only
    x13 and C's entry ((k1 x12 / d2) x23 - k1 x13) / d3 change, each by a
    fixed step (k1 s / d3 is an integer), so the residues depend on i mod p
    alone: a context is read at its first p values of x13, the i-th
    standing for xs[i::p].
    """
    p = g.p
    m1, m2, m3 = g.moduli
    table = _subspace_table(g.gtype.rank, p)
    socle_id, dual_id, image_id = table.socle, table.dual, table.image
    count, socle, dual, images = 0, {}, {}, [0] * len(table.bases)
    for d1, x12, xs, d2, x23, d3 in contexts:
        k1, k2, k3 = m1 // d1, m2 // d2, m3 // d3
        q = k1 * x12 // d2
        c = q * x23
        order = k1 * k2 * k3
        rd1, rx12, rd2, rx23, rd3 = d1 % p, x12 % p, d2 % p, x23 % p, d3 % p
        c11, c12, c22, c23, c33 = k1 % p, -q % p, k2 % p, -k2 * x23 // d3 % p, k3 % p
        n = len(xs)
        count += n
        for i in range(min(p, n)):
            x13, w = xs[i], (n - i - 1) // p + 1  # w = len(xs[i::p])
            residues = rd1, rx12, x13 % p, rd2, rx23, rd3
            images[image_id[residues]] += w
            key = dual_id[residues], order
            dual[key] = dual.get(key, 0) + w
            key = socle_id[c11, c12, c22, (c - k1 * x13) // d3 % p, c23, c33], order
            socle[key] = socle.get(key, 0) + w
    return count, socle, dual, images


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


def _plane_points(plane, p: int) -> list[int]:
    """The ids of the p + 1 points of a plane in F_p^3, in ``_SubspaceTable``'s order at r = 3.

    There the point spanned by (1, x, y) has id 1 + x p + y, by (0, 1, y)
    id 1 + p^2 + y, and by (0, 0, 1) id 1 + p^2 + p.  ``plane`` is a
    reduced basis (early, late): the points are late and early + s late for
    s < p.  Each leads with 1 already, as late is 0 before its pivot and
    early is 0 at it: late is (0, 1, b3) or (0, 0, 1), and early is (1, a2,
    a3), or (0, 1, 0) when late is (0, 0, 1).
    """
    (a1, a2, a3), (_, b2, b3) = plane
    if b2:  # early is (1, 0, a3)
        return [1 + p * p + b3, *[1 + s * p + (a3 + s * b3) % p for s in range(p)]]
    first = 1 + a2 * p if a1 else 1 + p * p  # early + s late is (1, a2, s) or (0, 1, s)
    return [1 + p * p + p, *range(first, first + p)]


class _Reduced(dict):
    """Residue pattern -> subspace id, each pattern reduced by ``read(residues, *args)`` when first looked up."""

    __slots__ = ("ids", "read", "args")

    def __init__(self, ids: dict, read, *args):
        super().__init__()
        self.ids, self.read, self.args = ids, read, args

    def __missing__(self, residues) -> int:
        self[residues] = i = self.ids[self.read(residues, *self.args)]
        return i


class _SubspaceTable:
    """Every subspace of F_p^r, r <= 3, with the maps from residue patterns to it.

    ``bases`` lists each subspace as its reduced row-echelon basis, in order
    of dimension, and ``ids`` maps a basis to its id, its position there:
    id 0 is the zero space and the last id the whole space; ``start[n]`` is
    the first id of dimension n, and ``start[r + 1]`` the number of ids.
    ``below[i]`` lists the ids of the subspaces of subspace i.  At r <= 3
    they are every id for the whole space and, for any other subspace, 0
    first and i last with, for a plane at r = 3, its p + 1 points between.
    ``socle``, ``dual`` and ``image`` map each residue pattern met so far to
    the id of its socle key and its dual key (``_key`` upward and downward)
    and of its Frattini image (``_frattini_image``).  Nothing here depends
    on a group, so ``_subspace_table`` builds one per (r, p) per process.
    """

    __slots__ = ("bases", "start", "ids", "below", "socle", "dual", "image")

    def __init__(self, r: int, p: int):
        self.bases = []
        self.start = []
        for n in range(r + 1):
            self.start.append(len(self.bases))
            for pivots in combinations(range(r), n):
                choices = []  # for each pivot, the rows with 1 there and any residues at later free columns
                for c in pivots:
                    free = [j for j in range(c + 1, r) if j not in pivots]
                    rows = []
                    for values in product(range(p), repeat=len(free)):
                        row = [0] * r
                        row[c] = 1
                        for j, v in zip(free, values):
                            row[j] = v
                        rows.append(tuple(row))
                    choices.append(rows)
                self.bases.extend(product(*choices))
        self.start.append(len(self.bases))
        self.ids = ids = {basis: i for i, basis in enumerate(self.bases)}
        whole = list(range(len(self.bases)))
        self.below = [whole if len(basis) == r
                      else [0, *_plane_points(basis, p), i] if len(basis) == 2
                      else [0, i] if i else [0]
                      for i, basis in enumerate(self.bases)]
        self.socle = _Reduced(ids, _key, True, r, p)
        self.dual = _Reduced(ids, _key, False, r, p)
        self.image = _Reduced(ids, _frattini_image, r, p)


_tables = cache(_SubspaceTable)


def _subspace_table(r: int, p: int) -> _SubspaceTable:
    """The subspaces of F_p^r and their incidence, built once per (r, p) per process by ``_tables``.

    At r <= 1 one table, built at p = 2, serves every prime: every residue
    pattern a walk meets there has entries 0 or 1, as m2 = m3 = 1.
    """
    return _tables(r, p if r > 1 else 2)


def _spanning_pairs(images: list, r: int, p: int) -> int:
    """Sum of n_V n_W over ordered pairs of images with V + W = F_p^r.

    ``images[i]`` is the number n_V of subgroups whose image in G/pG is the
    subspace V with id i in ``_subspace_table(r, p)``.  Since pG is the
    Frattini subgroup, only G itself maps onto F_p^r.  At r <= 3 a spanning
    pair either holds the whole space, or is two distinct hyperplanes, or
    (r = 3) is a plane and a point off it.
    """
    table = _subspace_table(r, p)
    start = table.start
    if images[-1] != 1:
        raise RuntimeError(f"{images[-1]} subgroups map onto G/pG; only G should")
    pairs = 2 * sum(images) - 1
    if r:
        hyperplanes = images[start[r - 1]:start[r]]
        pairs += sum(hyperplanes) ** 2 - sum(n * n for n in hyperplanes)
    if r == 3:
        all_lines = sum(images[start[1]:start[2]])
        for plane in range(start[2], start[3]):
            if n := images[plane]:
                on = sum(map(images.__getitem__, table.below[plane][1:-1]))
                pairs += 2 * n * (all_lines - on)
    return pairs


def oracle_factorizations(g: ConcreteGroup) -> int:
    """Number of ordered pairs (H, K) with H + K = G, tallied straight from the HNF walk.

    The same count as ``all_subgroups(g).factorizations``, from the counts
    by image id that ``_tally`` also fills, with no classes.  There is no
    repeated-subgroup check, and none is needed for a walk that yields
    distinct HNF tuples in range: each subgroup has exactly one HNF basis,
    so two distinct tuples span two distinct subgroups.  The walk checks
    each coset once against the ranges and the HNF conditions, and
    ``_spanning_pairs`` raises unless exactly one subgroup, G, maps onto
    G/pG.
    """
    p, r = g.p, g.gtype.rank
    table = _subspace_table(r, p)
    image_id = table.image
    images = [0] * len(table.bases)
    for d1, x12, xs, d2, x23, d3 in _hnf_subgroups(g):
        rd1, rx12, rd2, rx23, rd3 = d1 % p, x12 % p, d2 % p, x23 % p, d3 % p
        n = len(xs)
        for i in range(min(p, n)):
            images[image_id[rd1, rx12, xs[i] % p, rd2, rx23, rd3]] += (n - i - 1) // p + 1
    return _spanning_pairs(images, r, p)


def all_subgroups(g: ConcreteGroup) -> Lattice:
    """Walk every subgroup by its Hermite normal form basis, tallied into classes by subspace id.

    The factorizations come from ``_tally``'s counts by image id, as in
    ``oracle_factorizations``; a repeated G raises there, and a repeated
    proper subgroup shows in the count, which verify checks against eq3.
    """
    count, socle, dual, images = _tally(g, _hnf_subgroups(g))
    return Lattice(g, count, socle, dual, _spanning_pairs(images, g.gtype.rank, g.p))


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


def _contains(h, k) -> bool:
    """K <= H, for HNF entries h and k: each of K's three basis rows y lies in L_H.

    y = a r1 + b r2 + c r3 in H's rows is solved from the first coordinate
    down, as the rows are triangular; y lies in L_H exactly when a, b and c
    are integers.
    """
    d1, x12, x13, d2, x23, d3 = h
    for y1, y2, y3 in ((k[0], k[1], k[2]), (0, k[3], k[4]), (0, 0, k[5])):
        a, rem1 = divmod(y1, d1)
        b, rem2 = divmod(y2 - a * x12, d2)
        if rem1 or rem2 or (y3 - a * x13 - b * x23) % d3:
            return False
    return True


def interval_size(lattice: Lattice, i: int) -> int:
    """Number of subgroups K with H <= K <= G, H the subgroup with id i; ids follow the order.

    An id outside range(len(lattice)) raises IndexError.  A reference for
    the tests and the benchmark's tracer: nothing in the library calls it,
    as ``verify_inversion_forms`` reads the counts off ``Lattice.upward``.
    """
    if not 0 <= i < len(lattice):
        raise IndexError(f"subgroup id {i} outside 0..{len(lattice) - 1}")
    h = lattice.bases[i]
    return sum(_contains(k, h) for k in lattice.bases[i:])


@cache
def _hall_by_order(p: int) -> dict[int, int]:
    """Hall's mu(1, H) for H elementary abelian, keyed by |H| = p^n, n = 0..3, once per prime."""
    return {p ** n: hall_mobius(GroupType((1,) * n + (0,) * (3 - n)), p) for n in range(4)}


def _annihilator(vectors, r: int, p: int) -> tuple[tuple[int, ...], ...]:
    """Reduced row-echelon basis of the v in F_p^r with v . u = 0 mod p for each u in ``vectors``.

    The entries of each u are residues mod p, and u is cut to its first r.
    Their span is first reduced from the right: each basis row ends in a 1
    at its pivot column, where every other row is 0.  A row is then 0 after
    its pivot, so for each free column f the vector with 1 at f and minus
    column f of each row at that row's pivot leads with its 1 at f and is 0
    at the other free columns: those vectors, in order of f, are already the
    reduced basis of the annihilator.
    """
    basis = {}  # pivot column -> row
    for u in vectors:
        v = list(u[:r])
        for pivot, row in basis.items():
            if c := v[pivot]:
                for j in range(pivot):
                    v[j] = (v[j] - c * row[j]) % p
                v[pivot] = 0
        pivot = r - 1
        while pivot >= 0 and not v[pivot]:
            pivot -= 1
        if pivot < 0:
            continue
        if (c := v[pivot]) != 1:
            c = pow(c, -1, p)
            for j in range(pivot):
                v[j] = v[j] * c % p
            v[pivot] = 1
        for row in basis.values():
            if c := row[pivot]:
                for j in range(pivot):
                    row[j] = (row[j] - c * v[j]) % p
                row[pivot] = 0
        basis[pivot] = v
    null = []
    for f in range(r):
        if f not in basis:
            v = [0] * r
            v[f] = 1
            for pivot, row in basis.items():
                v[pivot] = -row[f] % p
            null.append(tuple(v))
    return tuple(null)


def _key(residues, upward: bool, r: int, p: int) -> tuple[tuple[int, ...], ...]:
    """The subspace of F_p^r that a Mobius pass keys a residue class by, from ``_tally``'s residues.

    Upward it is the socle image S(H) = Omega_1(H).  v in F_p^r lies in
    S(H) when the element (v_i m_i / p) lies in L_H, that is when (1/p) v
    diag(m) R^-1 is integral for the HNF basis R: v C = 0 mod p for the
    integer matrix C = diag(m) R^-1.  C is upper triangular with diagonal
    k_i = m_i / d_i, and its other entries are the quotients of the walk's
    three congruences: -k1 x12 / d2, -(k1 x13 - (k1 x12 / d2) x23) / d3 and
    -k2 x23 / d3.  So S(H) is the annihilator of C's columns, read off the
    six residues on and above the diagonal, cut to the first r rows (for
    e_j = 0 column j is zero there).

    Downward it is f(H)^perp, f(H) = (H + pG)/pG the row space of the HNF
    rows mod p cut to the first r columns, read by the general elimination
    of ``_annihilator``, not by ``_frattini_image``, so S1 and the direct
    count share no image reader.  Containment reverses: for K containing
    pG, H <= K exactly when f(H) <= f(K), that is when f(K)^perp <=
    f(H)^perp.
    """
    if upward:
        k1, q, k2, v, w, k3 = residues
        vectors = (k1, 0, 0), (q, k2, 0), (v, w, k3)
    else:
        d1, x12, x13, d2, x23, d3 = residues
        vectors = (d1, x12, x13), (0, d2, x23), (0, 0, d3)
    return _annihilator(vectors, r, p)


def _subgroup_classes(g: ConcreteGroup, bases, upward: bool) -> list[tuple]:
    """Each listed subgroup's (id, order), tallied as the walk tallies a context with one x13."""
    return [next(iter(_tally(g, [(d1, x12, range(x13, x13 + 1), d2, x23, d3)])[1 if upward else 2]))
            for d1, x12, x13, d2, x23, d3 in bases]


def _keyed(g: ConcreteGroup, classes, upward: bool) -> list[bool]:
    """Whether each (id, order) class is keyed, its key's dimension read from the table.

    A subgroup is keyed when its order shows it lies in the sublattice its
    key maps onto subspaces: elementary abelian upward (|H| = p^dim S(H)),
    containing pG downward (|H| = |pG| p^dim f(H) = |pG| p^(r - dim f(H)^perp)).
    """
    p, r = g.p, g.gtype.rank
    bases = _subspace_table(r, p).bases
    floor = 1 if upward else g.order // p**r
    return [order == floor * p ** (len(bases[k]) if upward else r - len(bases[k])) for k, order in classes]


def _exact_mobius(g: ConcreteGroup, bases, upward: bool) -> tuple[list, ...]:
    """The columns of ``_class_mobius``, one class per listed subgroup, testing containment by ``_contains``.

    ``bases`` lists HNF entries in (order, entries) order, from the walk's
    start to its end.  Each subgroup is tested against every nonzero value
    found so far, and each nonzero one against every listed subgroup.
    """
    n = len(bases)

    def between(j, i):  # j lies between the walk's start and i
        return _contains(bases[i], bases[j]) if upward else _contains(bases[j], bases[i])

    mu, sizes = [0] * n, [0] * n
    nonzero = []
    for i in range(n) if upward else range(n - 1, -1, -1):
        mu[i] = -sum(mu[j] for j in nonzero if between(j, i)) if nonzero else 1
        if mu[i]:
            nonzero.append(i)
    for i in nonzero:
        sizes[i] = sum(between(i, x) for x in range(n))
    classes = _subgroup_classes(g, bases, upward)
    return classes, [1] * n, mu, sizes, _keyed(g, classes, upward)


def _class_mobius(g: ConcreteGroup, classes: dict, upward: bool) -> tuple[list, ...] | None:
    """Mobius values mu(A, H) (upward) or mu(H, B) (downward) by (id, order) class, or None.

    ``classes`` maps each (id, order) class of the listed subgroups, its
    key's id and its order, to their number.  The walk starts at its first
    class of least order upward, of greatest order downward; mu(x, x) = 1
    there and, for x < y, the sum of mu(x, z) over x <= z <= y vanishes.
    A keyed K lies between the start and H exactly when key(K) <= key(H),
    so its value is minus the sum at the proper subspaces of its key, taken
    in order of dimension: the pass runs over the ids of
    ``_subspace_table(r, p)``, whose lists of subspaces (the p^3 term at
    rank 3) are built once per (r, p) per process, not once per pass, and a
    key no class has reads 0.
    Any other H lies above the keyed K with key(K) <= key(H) (those below
    Omega_1(H) upward, above H + pG downward) and no others, so while every
    nonzero value is keyed it takes minus the sum at the subspaces of its
    key.  On a whole lattice those sums vanish (Hall); where one does not,
    or the start is not keyed, which only a broken walk gives, the pass
    returns None and its caller falls back to ``_exact_mobius``.

    Returns five lists aligned with ``classes``: the classes, their counts
    n, mu, size and keyed.  size counts, where mu != 0, the listed
    subgroups on the far side, itself included: |[H, G]| upward and |L(H)|
    downward over the whole lattice, for a keyed K the X with key(K) <=
    key(X), so a tally of the keys is spread to the subspaces of each key.
    """
    table = _subspace_table(g.gtype.rank, g.p)
    listed, counts = list(classes), list(classes.values())
    kid = [k for k, _ in listed]
    keyed = _keyed(g, listed, upward)
    n = len(table.bases)
    tally = [0] * n  # by id: number of subgroups
    kinds = [0] * n  # by id: 1 if a keyed class has that key, plus 2 if another does
    for k, c, e in zip(kid, counts, keyed):
        tally[k] += c
        kinds[k] |= 1 if e else 2

    start = (min if upward else max)(range(len(listed)), key=lambda c: listed[c][1])
    if not keyed[start]:
        return None
    first = kid[start]
    at = [0] * n  # by id: the value at the keyed class with that key
    at[first] = 1
    reach = [0] * n
    for k, below in enumerate(table.below):  # ids follow the dimension: proper subspaces first
        if not (kind := kinds[k]):
            continue
        if kind & 1 and k != first:
            at[k] = -sum(map(at.__getitem__, below))
        if kind & 2 and sum(map(at.__getitem__, below)):
            return None
        t = tally[k]
        for u in below:
            reach[u] += t
    mu = [at[k] if e else 0 for k, e in zip(kid, keyed)]
    return listed, counts, mu, [reach[k] if v else 0 for k, v in zip(kid, mu)], keyed


def _lattice_mobius(lattice: Lattice, upward: bool) -> tuple[list, ...]:
    """The columns of a Mobius pass over the whole lattice, by the classes of its tally.

    A pass that does not vanish, which only a broken walk gives, is taken
    again by ``_exact_mobius`` on the walked bases.
    """
    g = lattice.group
    return (_class_mobius(g, lattice.socle if upward else lattice.dual, upward)
            or _exact_mobius(g, lattice.bases, upward))


def mobius_interval(lattice: Lattice, i: int, j: int) -> int:
    """Lattice Mobius value mu(H, K), H and K the subgroups with ids i and j.

    An id outside range(len(lattice)) raises IndexError.  The exact pass
    (``_exact_mobius``) runs upward over the ids i..j whose subgroups lie
    in [H, K], tested on the HNF bases.
    """
    if not (0 <= i < len(lattice) and 0 <= j < len(lattice)):
        raise IndexError(f"subgroup ids {i}, {j} outside 0..{len(lattice) - 1}")
    h, k = lattice.bases[i], lattice.bases[j]
    if not _contains(k, h):
        raise NotComparable(f"subgroup {i} is not contained in subgroup {j}")
    interval = [b for b in lattice.bases[i:j + 1] if _contains(b, h) and _contains(k, b)]
    return _exact_mobius(lattice.group, interval, upward=True)[2][-1]


def verify_hall(g: ConcreteGroup, lattice: Lattice) -> list[tuple]:
    """Check mu(1, H) against the elementary-abelian closed form for every H.

    Non-elementary subgroups must give 0; elementary abelian ones of rank n
    must give (-1)^n p^(n(n-1)/2).  An elementary abelian subgroup of order
    p^n has rank n, so the expected value is looked up by the order rather
    than by typing H.  The values come by class from ``lattice.upward``,
    which also says which classes are elementary, so every subgroup is
    compared through its class.  Each class that mismatches is a check of
    its own, ``(f"hall[order={order},key={key}]", expected, actual)``, the
    key printed as the reduced basis its id has in the table, before the
    ``("hall_mismatches", 0, count)`` check, which counts the subgroups in
    those classes.
    """
    checks = []
    hall = _hall_by_order(g.p)
    bases = _subspace_table(g.gtype.rank, g.p).bases
    mismatches = 0
    classes, counts, mu, _, elementary = lattice.upward
    for (k, order), n, value, e in zip(classes, counts, mu, elementary):
        expected = hall[order] if e else 0
        if expected != value:
            checks.append((f"hall[order={order},key={bases[k]}]", expected, value))
            mismatches += n
    checks.append(("hall_mismatches", 0, mismatches))
    return checks


def verify_inversion_forms(g: ConcreteGroup, lattice: Lattice) -> list[tuple]:
    """Check both Mobius-inversion expressions against the direct count.

    S1 sums |L(H)|^2 mu(H, G); S2 sums |[H, G]|^2 mu(1, H) with mu taken
    from the closed form; both must equal the brute-force factorization
    count.  Each sum runs over classes and counts only at its nonzero
    terms, each n times for a class of n subgroups.  S1 runs where
    mu(H, G) != 0 and reads |L(H)| off the downward pass, keyed by the
    annihilators of the Frattini images; ``_frattini_image``, which gives
    the direct count, feeds nothing in S1.  S2 runs over the elementary
    abelian H, taking mu(1, H) by the order of H and |[H, G]| from
    ``lattice.upward``, the pass that ``verify_hall`` reads.  Returns the
    two checks ``(name, direct count, sum)``.
    """
    _, counts, mu, sizes, _ = _lattice_mobius(lattice, upward=False)
    s1 = sum(n * size * size * value for n, value, size in zip(counts, mu, sizes))
    hall = _hall_by_order(g.p)
    classes, counts, _, sizes, elementary = lattice.upward
    s2 = sum(n * size * size * hall[order]
             for (_, order), n, size, e in zip(classes, counts, sizes, elementary) if size and e)
    direct = count_factorizations(g, lattice)
    return [("inversion_sum_subgroup_counts", direct, s1),
            ("inversion_sum_quotient_counts", direct, s2)]
