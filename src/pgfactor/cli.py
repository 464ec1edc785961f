"""Command-line interface.

Subcommands:
  count   subgroup count of one type, numeric or symbolic
  f2      factorization count by a chosen route (theorem3 | mobius | oracle)
  verify  cross-check every route and structural invariant on one instance
  table   grid of counts over types and primes, with internal consistency check

Exit codes: 0 success, 1 verification mismatch, 2 usage or domain error
(a type exponent over MAX_EXPONENT, a table grid over MAX_TABLE_ROWS rows
and an oracle cap over MAX_ORACLE_ORDER among them), 3 oracle cap exceeded.
The oracle cap defaults to DEFAULT_MAX_ORDER (4096) elements and is set by
--max-order alone.

Every rejected input is reported by argparse: a rule on one option is that
option's converter, ``required`` setting or group, and a rule that joins two
inputs calls the subcommand parser's ``error``.  So exit 2 always means a
rejected input, with a ``usage:`` line and ``pgfactor <command>: error: ...``
on stderr and nothing on stdout.

The argument parser depends on no input, so ``build_parser`` builds it once
per process and every ``main`` call reuses it; ``parse_args`` returns a fresh
namespace each time.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from math import comb

from .formulas import (
    METHOD_CLOSED_FORM,
    factorization_count,
    subgroup_count,
)
from .grouptype import GroupType, p_valuation, parse_number, parse_type
from .mobius import factorization_count_mobius, verify_census
from .oracle import (
    DEFAULT_MAX_ORDER,
    GroupTooLarge,
    all_subgroups,
    build_group,
    count_factorizations,
    oracle_factorizations,
    verify_hall,
    verify_inversion_forms,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_CAP = 3

ALL_CHECKS = ("count", "f2", "hall", "eq2", "census")

# Miller-Rabin with the first thirteen primes as bases is exact below this
# bound (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# 2017); larger --p values are rejected rather than guessed at.
PRIME_BOUND = 3_317_044_064_679_887_385_961_981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Largest table grid in rows (types x primes).  Outside the oracle a row takes
# about 2 ms even at the largest accepted prime (2924 rows at max-lambda 24 ran
# in 6.3 s), so an accepted grid ends in about 10 s plus its oracle cells.
MAX_TABLE_ROWS = 3000

# Largest type exponent that count, f2 and verify accept.  With p symbolic,
# whole process (9 runs): f2 takes 0.08-0.09 s at (1000,1000,1000) and
# 0.09-0.10 s at (1000,999,998) by theorem3 or by mobius, and count
# 0.07-0.08 s at (1000,1000,1000), most of it interpreter start-up.
# In-process (best of 7): the route at (1000,1000,1000) 11 ms by theorem3
# and 18 ms by mobius, at (1000,999,998) 22 ms and 30 ms, count under
# 0.5 ms, str() 1.3 ms.  At the largest accepted --p f2 takes 0.22-0.25 s
# each: the route 19-37 ms by theorem3 and by mobius, str() of the
# 98087-digit value about 140 ms (Python 3.11, shared 2-CPU host).
# A higher bound needs a benchmark instance at it before it is raised.
MAX_EXPONENT = 1000

# Largest oracle element cap that --max-order accepts.  No oracle command
# holds a subgroup mask: f2 --method oracle and table tally HNF residues mod
# p (f2 at (5,5,5)@2 peaks at about 16 MB), and verify keeps one HNF basis
# per subgroup and reads hall and eq2 off each basis's socle and Frattini
# images, so its memory grows with the subgroup count and its time with
# that count plus p^3, the points of every plane at rank 3.  At this cap
# verify at (5,5,5)@2, order 2^15 with the most subgroups (22308), peaks at
# about 23 MB, and at (1,1,1)@31, order 29791 with the most elementary
# abelian subgroups (all 1988), takes about 0.3 s whole process.  The
# README gives both cells' time and peak memory; CI runs both, (1,1,1)@31
# with eq2 alone and f2 --method oracle at both, under a 60 s timeout,
# prints their wall time and peak RSS, and fails verify at (5,5,5)@2 above
# 40 MB.
MAX_ORACLE_ORDER = 32768


# The f2 routes, each (type, p | None, cap) -> int | IntPolynomial; only the
# oracle needs a prime.  The bodies look library functions up as
# module globals at call time, so patching them on this module takes effect.
# The cmd_* functions are different: the cached parser's set_defaults holds
# the ones from its first build, so patching those would not take effect.
ROUTES = {
    METHOD_CLOSED_FORM: lambda gtype, p, cap: factorization_count(gtype, p).value,
    "mobius": lambda gtype, p, cap: factorization_count_mobius(gtype, p),
    "oracle": lambda gtype, p, cap: oracle_factorizations(build_group(gtype, p, cap)),
}


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < PRIME_BOUND."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    s = p_valuation(n - 1, 2)
    d = (n - 1) >> s
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _number(text: str) -> int:
    """``parse_number`` as an option converter: every number an option takes is in its grammar."""
    try:
        return parse_number(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _group_type(text: str) -> GroupType:
    """The --type converter: ``parse_type`` with no exponent over MAX_EXPONENT."""
    try:
        gtype = parse_type(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if gtype[0] > MAX_EXPONENT:
        raise argparse.ArgumentTypeError(f"type exponent {gtype[0]} is over the limit of {MAX_EXPONENT}")
    return gtype


def _prime(text: str) -> int:
    """The --p converter, and the check of each --primes entry."""
    p = _number(text)
    if p >= PRIME_BOUND:
        raise argparse.ArgumentTypeError(f"must be below {PRIME_BOUND}, got {text}")
    if not _is_prime(p):
        raise argparse.ArgumentTypeError(f"must be prime, got {text}")
    return p


def _positive(text: str) -> int:
    """A positive integer: the --max-lambda converter, and the first check of --max-order."""
    value = _number(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _oracle_cap(text: str) -> int:
    """The --max-order converter: a positive integer up to MAX_ORACLE_ORDER."""
    value = _positive(text)
    if value > MAX_ORACLE_ORDER:
        raise argparse.ArgumentTypeError(f"{value} is over the limit of {MAX_ORACLE_ORDER}")
    return value


def _check(text: str) -> str:
    """One --checks entry: a name out of ALL_CHECKS, exactly as written there."""
    if text not in ALL_CHECKS:
        raise argparse.ArgumentTypeError(f"unknown check {text!r}, expected one of {','.join(ALL_CHECKS)}")
    return text


def _comma_list(item, limit: int):
    """A comma-list converter: 1 to ``limit`` entries, each through ``item``, none repeated.

    The length is checked before any entry is converted, so an overlong
    --primes list runs no Miller-Rabin.  ``item`` rejects an empty entry.
    """
    def convert(text: str) -> list:
        entries = text.split(",")
        if len(entries) > limit:
            raise argparse.ArgumentTypeError(f"lists {len(entries)} entries, over the limit of {limit}")
        values = {}
        for value in map(item, entries):
            if value in values:
                raise argparse.ArgumentTypeError(f"lists {value} more than once")
            values[value] = None
        return list(values)

    return convert


def _emit_scalar(args, quantity: str, method: str, value) -> None:
    gtype, text = args.type, str(value)
    if args.format == "text":
        print(text)
    elif args.format == "json":
        print(
            _canonical_json(
                {
                    "type": list(gtype),
                    "p": args.p,
                    "quantity": quantity,
                    "method": method,
                    "value": text,
                }
            )
        )
    else:  # csv
        print("lambda1,lambda2,lambda3,p,quantity,method,value")
        p_cell = "" if args.p is None else str(args.p)
        print(f"{gtype[0]},{gtype[1]},{gtype[2]},{p_cell},{quantity},{method},{text}")


def cmd_count(args) -> int:
    result = subgroup_count(args.type, args.p)
    _emit_scalar(args, "f", result.method, result.value)
    return EXIT_OK


def cmd_f2(args) -> int:
    if args.p is None and args.method == "oracle":
        args.parser.error("--method oracle requires --p")
    value = ROUTES[args.method](args.type, args.p, args.max_order)
    _emit_scalar(args, "f2", args.method, value)
    return EXIT_OK


def cmd_verify(args) -> int:
    gtype, p, checks = args.type, args.p, args.checks
    triples = []
    need_lattice = any(c in checks for c in ("count", "f2", "hall", "eq2"))
    if need_lattice:
        g = build_group(gtype, p, args.max_order)
        lattice = all_subgroups(g)
    if "count" in checks:
        triples.append(("count", len(lattice), subgroup_count(gtype, p).value))
    if "f2" in checks:
        direct = count_factorizations(g, lattice)
        triples += [(f"f2_{method}", direct, ROUTES[method](gtype, p, None))
                    for method in (METHOD_CLOSED_FORM, "mobius")]
    if "hall" in checks:
        triples += verify_hall(g, lattice)
    if "eq2" in checks:
        triples += verify_inversion_forms(g, lattice)
    if "census" in checks:
        triples += verify_census(gtype, p)

    # one JSON row per (name, expected, actual) check; status compares the values, not their strings
    rows = [{"name": name, "status": "pass" if expected == actual else "fail",
             "expected": str(expected), "actual": str(actual)}
            for name, expected, actual in triples]
    overall = all(row["status"] == "pass" for row in rows)
    print(_canonical_json({"instance": {"type": list(gtype), "p": p}, "checks": rows, "overall": overall}))
    return EXIT_OK if overall else EXIT_MISMATCH


def _grid_types(max_lambda: int) -> list[GroupType]:
    """Every type with 1 <= e1 <= max_lambda, in lexicographic order of the exponents."""
    return [GroupType((e1, e2, e3)) for e1 in range(1, max_lambda + 1)
            for e2 in range(e1 + 1) for e3 in range(e2 + 1)]


def cmd_table(args) -> int:
    primes = args.primes
    # one row per prime and per type e1 >= e2 >= e3 >= 0 with 1 <= e1 <= max-lambda
    grid_rows = (comb(args.max_lambda + 3, 3) - 1) * len(primes)
    if grid_rows > MAX_TABLE_ROWS:
        args.parser.error(f"table grid has {grid_rows} rows, over the limit of {MAX_TABLE_ROWS}")
    cap = args.max_order

    rows = []
    consistent = True
    for gtype in _grid_types(args.max_lambda):
        for p in primes:
            row = {
                "lambda1": gtype[0],
                "lambda2": gtype[1],
                "lambda3": gtype[2],
                "p": p,
                "f": str(subgroup_count(gtype, p).value),
            }
            values = set()
            for method, route in ROUTES.items():
                try:
                    value = route(gtype, p, cap)
                except GroupTooLarge:  # the oracle cell stays empty over the cap
                    row[f"f2_{method}"] = None
                    continue
                values.add(value)
                row[f"f2_{method}"] = str(value)
            if len(values) != 1:
                consistent = False
            rows.append(row)

    columns = ("lambda1", "lambda2", "lambda3", "p", "f") + tuple(f"f2_{m}" for m in ROUTES)
    lines = [columns] + [["" if row[c] is None else str(row[c]) for c in columns] for row in rows]
    if args.format == "json":
        print(_canonical_json(rows))
    elif args.format == "csv":
        for line in lines:
            print(",".join(line))
    else:
        widths = [max(len(cell) for cell in column) for column in zip(*lines)]
        for line in lines:
            print("  ".join(cell.ljust(w) for cell, w in zip(line, widths)))
    if not consistent:
        print("error: methods disagree on at least one row", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgfactor",
        description="Exact subgroup and factorization counts for abelian p-groups of rank <= 3.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # options shared between subcommands, each declared once
    shared = {
        "--type": dict(type=_group_type, required=True, help="group type as 'e1,e2,e3', descending, in digits 0-9"),
        "--p": dict(type=_prime, help="prime to evaluate at, in digits 0-9"),
        "--format": dict(choices=("json", "csv", "text"), default="text"),
        "--max-order": dict(type=_oracle_cap, default=DEFAULT_MAX_ORDER,
                            help=f"oracle element cap in digits 0-9 (default %(default)s, at most {MAX_ORACLE_ORDER})"),
    }

    def subcommand(name, func, help, *options):
        sp = sub.add_parser(name, help=help)
        for option in options:
            sp.add_argument(option, **shared[option])
        sp.set_defaults(func=func, parser=sp)
        return sp

    def p_or_symbolic(sp):
        mode = sp.add_mutually_exclusive_group(required=True)
        mode.add_argument("--p", **shared["--p"])
        mode.add_argument("--symbolic", action="store_true", help="leave p symbolic")

    p_or_symbolic(subcommand("count", cmd_count, "total number of subgroups", "--type", "--format"))

    sp = subcommand("f2", cmd_f2, "factorization count", "--type", "--format", "--max-order")
    p_or_symbolic(sp)
    sp.add_argument("--method", choices=tuple(ROUTES), default=METHOD_CLOSED_FORM, help="computation route")

    sp = subcommand("verify", cmd_verify, "cross-check all routes on one instance", "--type", "--max-order")
    sp.add_argument("--p", required=True, **shared["--p"])
    sp.add_argument("--checks", type=_comma_list(_check, len(ALL_CHECKS)), default=ALL_CHECKS,
                    help=f"comma list out of {','.join(ALL_CHECKS)} (default: all)")

    sp = subcommand("table", cmd_table, "grid of counts over types and primes", "--format", "--max-order")
    sp.add_argument("--max-lambda", type=_positive, required=True, help="largest exponent in the grid, in digits 0-9")
    sp.add_argument("--primes", type=_comma_list(_prime, MAX_TABLE_ROWS), required=True,
                    help="comma-separated primes, each in digits 0-9")

    return parser


def main(argv=None) -> int:
    # Exact values can run past Python's int-to-str digit limit (4300 by
    # default since 3.10.7; earlier versions have no limit and no getter).
    # Lift it only while the command runs, so parsing keeps the limit's guard
    # against huge option values, and give the caller's value back after.
    previous = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        args = build_parser().parse_args(argv)
        if previous is not None:
            sys.set_int_max_str_digits(0)
        return args.func(args)
    except SystemExit as exc:  # argparse rejected the input, or printed --help
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except GroupTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    finally:
        if previous is not None:
            sys.set_int_max_str_digits(previous)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
