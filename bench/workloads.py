"""Seeded, stratified instance lists for the benchmark workloads, and the
correctness gate that every output must pass.

Each workload is a list of buckets.  A bucket holds instances whose cost is
close (they were picked by timing every candidate on the seed code).  Every
seed draws the same number of instances from each bucket and each member of a
bucket equally often, give or take one.  Different seeds therefore carry
comparable work, so a claim measured on one seed can be checked on a seed
nobody tuned against.

Expected values come from a route other than the one being timed and are
computed before timing starts (``Checker``).
"""

from __future__ import annotations

import csv
import io
import json
import random
import re
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Instance:
    """One call of ``pgfactor.cli.main``; ``bucket`` names the stratum it came from."""

    bucket: str
    argv: tuple[str, ...]

    def __str__(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Bucket:
    name: str
    count: int
    draw: Callable[[random.Random, int], list[tuple[str, ...]]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    buckets: tuple[Bucket, ...]

    def instances(self, seed: int) -> list[Instance]:
        """``count`` draws from every bucket, in a seed-shuffled order."""
        rng = random.Random(f"{self.name}:{seed}")
        out = [Instance(b.name, argv) for b in self.buckets for argv in b.draw(rng, b.count)]
        rng.shuffle(out)
        return out


def balanced(rng: random.Random, pool, count: int) -> list:
    """``count`` draws in which every pool member appears equally often, give or take one."""
    out = []
    while len(out) < count:
        batch = list(pool)
        rng.shuffle(batch)
        out.extend(batch)
    return out[:count]


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def primes_between(lo: int, hi: int) -> list[int]:
    return [n for n in range(lo, hi + 1) if _is_prime(n)]


def _type_text(exps) -> str:
    return ",".join(str(e) for e in exps)


def _pool_bucket(name: str, count: int, pool, argv) -> Bucket:
    def draw(rng, count):
        return [argv(item) for item in balanced(rng, pool, count)]

    return Bucket(name, count, draw)


# ---------------------------------------------------------------- verify-mid
# |G| from 2^8 to 3^7, rank 3, p <= 7.  Pools group instances whose verify
# time agreed within about 20 % on the seed code.  Each count is a multiple
# of its pool's size, so every seed draws the same instances in another order.
# The median (weight 12 of 24) and the tail (weight 14) both fall inside
# "small", a single instance drawn six times, two instances away from either
# edge, so neither quantile straddles two instances of different cost.

def _verify(item) -> tuple[str, ...]:
    t, p = item
    return ("verify", "--type", t, "--p", str(p))


VERIFY_MID = Workload(
    "verify-mid",
    "verify with every check on mid-size groups: the oracle's lattice "
    "enumeration, order relation and pair count dominate",
    (
        _pool_bucket("tiny", 10, [("6,1,1", 2), ("5,2,1", 2), ("1,1,1", 7), ("4,3,1", 2), ("2,1,1", 5)],
                     _verify),
        _pool_bucket("small", 6, [("3,3,2", 2)], _verify),
        _pool_bucket("medium", 4, [("8,1,1", 2), ("5,2,2", 2)], _verify),
        _pool_bucket("mid", 4, [("2,2,2", 3), ("4,2,1", 3), ("5,1,1", 3), ("5,4,1", 2)], _verify),
    ),
)


# ------------------------------------------------------------ mobius-large-p
# Rank-3 cost grows as p^2 (about 2p^2 socle subspaces), rank-2 cost as p.
# Types with distinct exponents only: equal exponents run about 40 % faster,
# which would widen a bucket.  Each rank-3 bucket uses two primes that differ
# by a few percent (cost ratio ~1.07), and the rank-3 types are split by cost
# into two buckets drawn equally.  The counts put the median inside
# rank2-p3000 and the tail (p67) inside rank3-p60-light, each three
# instances or more away from a bucket of another cost, for every seed.

_RANK3_LIGHT = [(3, 2, 1), (4, 3, 2), (5, 2, 1), (5, 3, 1), (5, 3, 2)]
_RANK3_HEAVY = [(4, 2, 1), (4, 3, 1), (5, 4, 1), (5, 4, 2), (5, 4, 3)]
_RANK2_TYPES = [(a, b, 0) for a in range(3, 6) for b in range(1, a) if (a, b) != (5, 1)]


def _mobius_bucket(name: str, count: int, types, primes) -> Bucket:
    def draw(rng, count):
        return [("f2", "--type", _type_text(t), "--p", str(p), "--method", "mobius")
                for t, p in zip(balanced(rng, types, count), balanced(rng, primes, count))]

    return Bucket(name, count, draw)


MOBIUS_LARGE_P = Workload(
    "mobius-large-p",
    "f2 by the Mobius sum at large p, where the socle walk costs p^2 (rank 3) "
    "or p (rank 2) and the oracle never runs",
    (
        _mobius_bucket("rank2-p2000", 7, _RANK2_TYPES, primes_between(1950, 2050)),
        _mobius_bucket("rank2-p3000", 11, _RANK2_TYPES, primes_between(2950, 3040)),
        _mobius_bucket("rank3-p60-light", 5, _RANK3_LIGHT, [59, 61]),
        _mobius_bucket("rank3-p60-heavy", 5, _RANK3_HEAVY, [59, 61]),
        _mobius_bucket("rank3-p72", 2, _RANK3_LIGHT + _RANK3_HEAVY, [71, 73]),
    ),
)


# ---------------------------------------------------------- symbolic-large-e
# Cost of f2 --symbolic follows e2 + e3, the degree of the squared counts;
# e1 only scales coefficients.  Pools keep types whose cost agreed within
# about 5 %: some exponent patterns cost 20-60 % more for the same e2 + e3.

def _symbolic(command):
    return lambda t: (command, "--type", _type_text(t), "--symbolic")


SYMBOLIC_LARGE_E = Workload(
    "symbolic-large-e",
    "f2 and count with p symbolic at exponents 60-200: IntPolynomial "
    "multiplication and exact division dominate",
    (
        _pool_bucket("count", 8, [(60, 50, 30), (80, 45, 30), (100, 60, 40), (120, 40, 20),
                                  (150, 55, 35), (180, 60, 40), (200, 45, 25), (200, 60, 20)],
                     _symbolic("count")),
        _pool_bucket("f2-s60", 8, [(60, 30, 30), (60, 31, 29), (90, 30, 30), (90, 31, 29),
                                   (120, 31, 29)], _symbolic("f2")),
        _pool_bucket("f2-s100", 10, [(100, 50, 50), (100, 51, 49), (115, 51, 49), (130, 50, 50),
                                     (130, 51, 49), (160, 50, 50), (160, 51, 49)], _symbolic("f2")),
        _pool_bucket("f2-s150", 7, [(150, 75, 75), (150, 76, 74), (165, 75, 75), (165, 76, 74),
                                    (180, 75, 75), (180, 76, 74)], _symbolic("f2")),
        _pool_bucket("f2-s200", 3, [(e1, e2, 200 - e2) for e1 in (180, 190, 200) for e2 in (100, 101)],
                     _symbolic("f2")),
        _pool_bucket("f2-s300", 1, [(e1, e2, 300 - e2) for e1 in (170, 185, 200) for e2 in (150, 151)],
                     _symbolic("f2")),
        _pool_bucket("f2-s400", 1, [(200, 200, 200), (200, 200, 198)], _symbolic("f2")),
    ),
)


# --------------------------------------------------------------- table-small
# Many tiny table calls: at max-lambda 1-2 and p <= 7 a call takes 1.5-20 ms,
# so argparse, build_group, small lattices and the Mobius sum at small p (the
# fixed cost per call) dominate.  One call per seed reaches p = 11 and one
# p = 13, where (1,1,1) is still under the oracle cap.

def _table(item) -> tuple[str, ...]:
    max_lambda, primes, fmt = item
    return ("table", "--max-lambda", str(max_lambda), "--primes", primes, "--format", fmt)


def _table_bucket(name: str, count: int, max_lambda: int, prime_lists) -> Bucket:
    pool = [(max_lambda, primes, fmt) for primes in prime_lists for fmt in ("json", "csv")]
    return _pool_bucket(name, count, pool, _table)


TABLE_SMALL = Workload(
    "table-small",
    "many tiny table calls through all three routes: the fixed cost per call "
    "(argparse, group build, small lattices) dominates",
    (
        _table_bucket("lambda1-p2", 12, 1, ["2", "2,3", "3"]),
        _table_bucket("lambda1-p5", 8, 1, ["5", "2,5", "3,5", "2,3,5"]),
        _table_bucket("lambda1-p7", 8, 1, ["7", "2,7", "3,7", "2,3,7"]),
        _table_bucket("lambda2-p2", 8, 2, ["2"]),
        _table_bucket("lambda1-p11", 1, 1, ["11", "2,11", "3,11"]),
        _table_bucket("lambda1-p13", 1, 1, ["13", "2,13", "3,13"]),
    ),
)


WORKLOADS = {w.name: w for w in (VERIFY_MID, MOBIUS_LARGE_P, SYMBOLIC_LARGE_E, TABLE_SMALL)}


# ------------------------------------------------------------------- checks

_TERM = re.compile(r"[+-]?[^+-]+")


def evaluate_rendered(text: str, p: int) -> int:
    """Value at ``p`` of a polynomial printed as ``9p^6+15p^5-2p+13``."""
    total = 0
    for term in _TERM.findall(text.strip()):
        sign = -1 if term[0] == "-" else 1
        body = term.lstrip("+-")
        if "p" not in body:
            total += sign * int(body)
            continue
        coef, _, power = body.partition("p")
        total += sign * int(coef or 1) * p ** int(power.lstrip("^") or 1)
    return total


_VERIFY_CHECKS = {"count", "f2_theorem3", "f2_mobius", "hall_mismatches",
                  "inversion_sum_subgroup_counts", "inversion_sum_quotient_counts"}
_CENSUS_CHECKS = {"census_k1", "census_k2", "census_full_socle"}


class Checker:
    """Expected outputs for a list of instances, computed before timing.

    ``check`` returns None for a correct output and a reason otherwise.
    """

    def __init__(self, pgf, instances):
        self._pgf = pgf
        self._expected = {}
        for inst in instances:
            if inst.argv not in self._expected:
                self._expected[inst.argv] = self._expect(inst.argv)

    def _gtype(self, argv):
        return self._pgf.parse_type(argv[argv.index("--type") + 1])

    def _expect(self, argv):
        pgf = self._pgf
        command = argv[0]
        if command == "verify":
            return self._gtype(argv).rank == 3
        if command == "table":
            return self._expect_table(argv)
        t = self._gtype(argv)
        if "--symbolic" in argv:
            if command == "f2":
                return {p: pgf.factorization_count_mobius(t, p) for p in (2, 3)}
            return {p: pgf.subgroup_count(t, p).value for p in (2, 3)}
        p = int(argv[argv.index("--p") + 1])
        return str(pgf.factorization_count(t, p).value)

    def _expect_table(self, argv):
        """Per grid row: the numeric f2 and whether the oracle must have run.
        The run clears PGF_MAX_ORDER and passes no --max-order, so the cap is
        the default."""
        pgf = self._pgf
        max_lambda = int(argv[argv.index("--max-lambda") + 1])
        primes = [int(x) for x in argv[argv.index("--primes") + 1].split(",")]
        rows = {}
        for e1 in range(1, max_lambda + 1):
            for e2 in range(e1 + 1):
                for e3 in range(e2 + 1):
                    t = pgf.GroupType((e1, e2, e3))
                    for p in primes:
                        rows[(e1, e2, e3, p)] = (str(pgf.factorization_count(t, p).value),
                                                 t.order(p) <= pgf.DEFAULT_MAX_ORDER)
        return rows

    def check(self, inst: Instance, rc, out: str):
        if rc != 0:
            return f"exit code {rc!r}"
        argv = inst.argv
        expected = self._expected[argv]
        try:
            if argv[0] == "verify":
                return self._check_verify(out, expected)
            if argv[0] == "table":
                return self._check_table(out, argv[argv.index("--format") + 1], expected)
            if "--symbolic" in argv:
                got = {p: evaluate_rendered(out, p) for p in expected}
                return None if got == expected else f"evaluations {got} != {expected}"
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc!r}"
        return None if out.strip() == expected else f"{out.strip()!r} != {expected!r}"

    @staticmethod
    def _check_table(out, fmt, expected):
        rows = json.loads(out) if fmt == "json" else list(csv.DictReader(io.StringIO(out)))
        got = {}
        for row in rows:
            key = tuple(int(row[c]) for c in ("lambda1", "lambda2", "lambda3", "p"))
            oracle = row["f2_oracle"] or None
            if not row["f2_theorem3"] == row["f2_mobius"] == (oracle or row["f2_mobius"]):
                return f"routes disagree on {key}: {row}"
            got[key] = (row["f2_mobius"], oracle is not None)
        if got.keys() != expected.keys():
            return f"rows {sorted(got)} != {sorted(expected)}"
        for key, (f2, needs_oracle) in expected.items():
            if got[key][0] != f2:
                return f"f2 {got[key][0]} != {f2} at {key}"
            if needs_oracle and not got[key][1]:
                return f"f2_oracle missing at {key}, under the cap"
        return None

    @staticmethod
    def _check_verify(out, rank3):
        report = json.loads(out)
        names = {c["name"] for c in report["checks"]}
        missing = (_VERIFY_CHECKS | (_CENSUS_CHECKS if rank3 else set())) - names
        if missing:
            return f"checks missing: {sorted(missing)}"
        return None if report["overall"] is True else "overall is not true"
