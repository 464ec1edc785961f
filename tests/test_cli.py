import contextlib
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pgfactor
from pgfactor import cli
from pgfactor.cli import MAX_EXPONENT, MAX_ORACLE_ORDER, MAX_TABLE_ROWS, PRIME_BOUND, _grid_types, main
from pgfactor.formulas import factorization_count
from pgfactor.grouptype import GroupType
from pgfactor.oracle import DEFAULT_MAX_ORDER

LARGEST_ACCEPTED_PRIME = 3317044064679887385961813


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_reused_parser_keeps_no_option_between_calls(capsys, monkeypatch):
    # a --symbolic left over from the second call would make the third a usage error
    calls = (["f2", "--type", "x"], ["f2", "--type", "2,1,0", "--symbolic"],
             ["f2", "--type", "2,1,0", "--p", "3"])
    cached = [run_cli(capsys, *argv) for argv in calls]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [run_cli(capsys, *argv) for argv in calls]
    assert cached == fresh
    assert [code for code, _, _ in cached] == [2, 0, 0]


@pytest.mark.parametrize("command", ["count", "f2", "verify", "table"])
def test_reused_parser_help_matches_a_fresh_one(capsys, monkeypatch, command):
    cli.build_parser()
    # the width is read when help is formatted, after the parser was built
    monkeypatch.setenv("COLUMNS", "50")
    cached = run_cli(capsys, command, "--help")
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert run_cli(capsys, command, "--help") == cached
    assert cached[0] == 0 and cached[1].startswith(f"usage: pgfactor {command}")


def test_count_numeric_text(capsys):
    code, out, _ = run_cli(capsys, "count", "--type", "3,2,1", "--p", "2")
    assert code == 0
    assert out.strip() == "81"


def test_count_symbolic_text(capsys):
    code, out, _ = run_cli(capsys, "count", "--type", "1,1,0", "--symbolic")
    assert code == 0
    assert out.strip() == "p+3"


@pytest.mark.parametrize("argv,row", [
    ("count --type 3,2,1 --p 2", "3,2,1,2,f,eq3,81"),
    ("f2 --type 3,2,1 --symbolic", "3,2,1,,f2,theorem3,9p^6+15p^5+21p^4+16p^3+20p^2+11p+13"),
], ids=["count-numeric", "f2-symbolic"])
def test_scalar_csv_golden(capsys, argv, row):
    # a symbolic p leaves the p cell empty
    code, out, _ = run_cli(capsys, *argv.split(), "--format", "csv")
    assert code == 0
    assert out == f"lambda1,lambda2,lambda3,p,quantity,method,value\n{row}\n"


def test_count_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "count", "--type", "3,2,1", "--p", "2", "--format", "json")
    assert code == 0
    parsed = json.loads(out)
    assert parsed == {"type": [3, 2, 1], "p": 2, "quantity": "f", "method": "eq3", "value": "81"}
    assert canonical(parsed) == out.strip()


def test_count_rejects_unsorted_type(capsys):
    code, out, err = run_cli(capsys, "count", "--type", "2,3,1", "--p", "2")
    assert code == 2
    assert not out
    assert "descending" in err


def test_count_requires_mode(capsys):
    code, _, err = run_cli(capsys, "count", "--type", "1,1,1")
    assert code == 2
    assert "--p" in err and "--symbolic" in err


def test_count_rejects_both_modes(capsys):
    code, _, _ = run_cli(capsys, "count", "--type", "1,1,1", "--p", "2", "--symbolic")
    assert code == 2


def test_composite_p_rejected(capsys):
    code, _, err = run_cli(capsys, "count", "--type", "1,1,1", "--p", "4")
    assert code == 2
    assert "prime" in err
    code, _, _ = run_cli(capsys, "verify", "--type", "3,2,1", "--p", "1")
    assert code == 2


def test_large_prime_accepted_quickly(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "count", "--type", "1,0,0", "--p", str(10**18 + 3))
    elapsed = time.perf_counter() - start
    assert code == 0
    assert out.strip() == "2"
    assert elapsed < 1.0


@pytest.mark.parametrize("n", [561, 2047, 3215031751, 318665857834031151167461])
def test_pseudoprimes_rejected(capsys, n):
    # Carmichael 561, then strong pseudoprimes to base 2, to bases 2..7 and to bases 2..37
    code, _, err = run_cli(capsys, "count", "--type", "1,0,0", "--p", str(n))
    assert code == 2
    assert "prime" in err


def test_p_beyond_primality_bound_rejected(capsys):
    code, _, err = run_cli(capsys, "count", "--type", "1,0,0", "--p", str(PRIME_BOUND))
    assert code == 2
    assert str(PRIME_BOUND) in err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_max_order_flag_must_be_positive(capsys, cap):
    code, out, _ = run_cli(capsys, "table", "--max-lambda", "1", "--primes", "2", "--max-order", cap)
    assert code == 2
    assert not out


def test_max_oracle_order_is_the_measured_bound():
    assert MAX_ORACLE_ORDER == 32768


@pytest.mark.parametrize("cap", [pytest.param(MAX_ORACLE_ORDER, id="flag")])
def test_max_order_at_limit_accepted(capsys, cap):
    code, out, _ = run_cli(capsys, "f2", "--type", "1,1,1", "--p", "2", "--method", "oracle",
                           "--max-order", str(cap))
    assert code == 0
    assert out == "129\n"


@pytest.mark.parametrize("cap", [pytest.param(MAX_ORACLE_ORDER + 1, id="flag")])
@pytest.mark.parametrize("command", ["f2", "verify", "table"])
def test_max_order_over_limit_rejected(capsys, cap, command):
    argv = {"f2": ["f2", "--type", "1,1,1", "--p", "2", "--method", "oracle"],
            "verify": ["verify", "--type", "1,1,1", "--p", "2"],
            "table": ["table", "--max-lambda", "1", "--primes", "2"]}[command]
    code, out, err = run_cli(capsys, *argv, "--max-order", str(cap))
    assert code == 2
    assert not out
    assert f"over the limit of {MAX_ORACLE_ORDER}" in err
    assert "--max-order" in err


@pytest.mark.parametrize("value", ["4", "lots"])
def test_max_order_env_var_is_ignored(capsys, monkeypatch, value):
    monkeypatch.setenv("PGF_MAX_ORDER", value)
    code, out, _ = run_cli(capsys, "f2", "--type", "1,1,1", "--p", "2", "--method", "oracle")
    assert code == 0
    assert out == "129\n"


# each rule on a single option, and the words its message must contain
SINGLE_OPTION_REJECTIONS = [
    ("count --type 2,3,1 --p 2", "--type"),
    ("count --type 1,1 --p 2", "--type"),
    (f"f2 --type {MAX_EXPONENT + 1},0,0 --p 2", "--type"),
    ("count --type 1,1,1 --p 4", "--p"),
    ("count --type 1,1,1 --p -3", "--p"),
    ("count --type 1,1,1 --p abc", "--p"),
    (f"count --type 1,1,1 --p {PRIME_BOUND}", "--p"),
    ("count --type 1,1,1 --p 2 --symbolic", "--p --symbolic"),
    ("f2 --type 1,1,1 --p 2 --symbolic", "--p --symbolic"),
    ("count --type 1,1,1", "--p --symbolic"),
    ("f2 --type 1,1,1", "--p --symbolic"),
    ("verify --type 1,1,1", "--p"),
    ("verify --type 1,1,1 --p 2 --checks bogus", "--checks"),
    ("verify --type 1,1,1 --p 2 --checks ,", "--checks"),
    ("verify --type 1,1,1 --p 2 --checks count,,f2", "--checks"),
    ("verify --type 1,1,1 --p 2 --checks count,", "--checks"),
    ("table --max-lambda 0 --primes 2", "--max-lambda"),
    ("table --max-lambda x --primes 2", "--max-lambda"),
    ("table --max-lambda 1 --primes 2,x", "--primes"),
    ("table --max-lambda 1 --primes ,", "--primes"),
    ("table --max-lambda 1 --primes 2,,3", "--primes"),
    ("table --max-lambda 1 --primes 2,3,", "--primes"),
    ("table --max-lambda 1 --primes ,2", "--primes"),
    ("table --max-lambda 1 --primes 2,6", "--primes"),
    ("table --max-lambda 1 --primes 3,5,3", "--primes"),
    (f"table --max-lambda 1 --primes 2,{PRIME_BOUND}", "--primes"),
    ("table --max-lambda 1 --primes " + ",".join(["2"] * (MAX_TABLE_ROWS + 1)), f"--primes {MAX_TABLE_ROWS}"),
    ("f2 --type 1,1,1 --p 2 --max-order 0", "--max-order"),
    ("f2 --type 1,1,1 --p 2 --max-order x", "--max-order"),
    (f"f2 --type 1,1,1 --p 2 --max-order {MAX_ORACLE_ORDER + 1}", "--max-order"),
]

# each rule that joins two inputs, and the words its message must contain
JOINT_RULE_REJECTIONS = [
    ("f2 --type 1,1,1 --symbolic --method oracle", "--method oracle requires --p"),
    ("table --max-lambda 40 --primes 2", f"12340 {MAX_TABLE_ROWS}"),
]


def _rejection_ids(table):
    # a --primes list of thousands of entries is named by its length
    return [argv if len(argv) < 100 else f"{argv[:40]}...({argv.count(',') + 1} entries)" for argv, _ in table]


def _assert_reported_by_the_parser(capsys, argv, words):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert err.startswith(f"usage: pgfactor {argv.split()[0]} ")
    assert f"pgfactor {argv.split()[0]}: error: " in err
    assert all(word in err for word in words.split())


@pytest.mark.parametrize("argv,options", SINGLE_OPTION_REJECTIONS, ids=_rejection_ids(SINGLE_OPTION_REJECTIONS))
def test_single_option_rule_is_reported_by_the_parser(capsys, argv, options):
    _assert_reported_by_the_parser(capsys, argv, options)


@pytest.mark.parametrize("argv,words", JOINT_RULE_REJECTIONS, ids=_rejection_ids(JOINT_RULE_REJECTIONS))
def test_joint_rule_is_reported_by_the_parser(capsys, argv, words):
    _assert_reported_by_the_parser(capsys, argv, words)


def test_overlong_primes_list_runs_no_primality_test(capsys, monkeypatch):
    def refuse(n):
        raise AssertionError("Miller-Rabin ran")

    monkeypatch.setattr(cli, "_is_prime", refuse)
    primes = ",".join(["2"] * (MAX_TABLE_ROWS + 1))
    code, out, err = run_cli(capsys, "table", "--max-lambda", "1", "--primes", primes)
    assert (code, out) == (2, "")
    assert f"lists {MAX_TABLE_ROWS + 1} primes, over the row limit of {MAX_TABLE_ROWS}" in err


def test_value_error_after_parsing_is_not_a_usage_error(monkeypatch):
    # every option is validated by the parser, so a ValueError from a route is a bug
    def broken(gtype, p):
        raise ValueError("route bug")

    monkeypatch.setattr(cli, "factorization_count_mobius", broken)
    limit = _digit_limit()
    with pytest.raises(ValueError, match="route bug"):
        main(["f2", "--type", "1,1,1", "--p", "2", "--method", "mobius"])
    assert _digit_limit() == limit


def test_f2_golden_321(capsys):
    code, out, _ = run_cli(capsys, "f2", "--type", "3,2,1", "--symbolic", "--method", "theorem3")
    assert code == 0
    assert out.strip() == "9p^6+15p^5+21p^4+16p^3+20p^2+11p+13"


def test_f2_all_methods_agree(capsys):
    values = {}
    for method in ("theorem3", "mobius", "oracle"):
        code, out, _ = run_cli(capsys, "f2", "--type", "3,2,1", "--p", "2", "--method", method)
        assert code == 0
        values[method] = out.strip()
    assert values == {"theorem3": "1635", "mobius": "1635", "oracle": "1635"}


def test_f2_json_value_is_string(capsys):
    code, out, _ = run_cli(
        capsys, "f2", "--type", "2,2,2", "--p", "3", "--method", "mobius", "--format", "json"
    )
    assert code == 0
    parsed = json.loads(out)
    assert parsed["value"] == "67969"
    assert parsed["method"] == "mobius"
    assert canonical(parsed) == out.strip()


def test_f2_mobius_symbolic_matches_theorem3(capsys):
    code, out, _ = run_cli(capsys, "f2", "--type", "3,2,1", "--symbolic", "--method", "mobius", "--format", "json")
    assert code == 0
    assert '"method":"mobius"' in out and '"p":null' in out
    assert json.loads(out)["value"] == str(factorization_count(GroupType((3, 2, 1))).value)


def test_f2_oracle_cap_exit(capsys):
    code, _, err = run_cli(capsys, "f2", "--type", "2,2,2", "--p", "5", "--method", "oracle")
    assert code == 3
    assert "cap" in err


def test_f2_oracle_cap_flag(capsys):
    code, _, _ = run_cli(
        capsys, "f2", "--type", "1,1,1", "--p", "2", "--method", "oracle", "--max-order", "4"
    )
    assert code == 3


def test_verify_full_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--type", "3,2,1", "--p", "2")
    assert code == 0
    report = json.loads(out)
    assert report["overall"] is True
    assert report["instance"] == {"type": [3, 2, 1], "p": 2}
    names = {c["name"] for c in report["checks"]}
    assert {"count", "f2_theorem3", "f2_mobius", "hall_mismatches"} <= names
    assert any(n.startswith("census") for n in names)
    assert all(c["status"] == "pass" for c in report["checks"])


def test_verify_subset_of_checks(capsys):
    code, out, _ = run_cli(capsys, "verify", "--type", "1,1,1", "--p", "3", "--checks", "hall,eq2")
    assert code == 0
    report = json.loads(out)
    assert report["overall"] is True
    names = {c["name"] for c in report["checks"]}
    assert "count" not in names
    assert "hall_mismatches" in names

    # without hall, eq2 runs the upward Mobius pass itself
    def inversion_sums(*checks):
        code, out, _ = run_cli(capsys, "verify", "--type", "2,1,1", "--p", "3", *checks)
        assert code == 0
        return [c for c in json.loads(out)["checks"] if c["name"].startswith("inversion_sum_")]

    alone = inversion_sums("--checks", "eq2")
    assert len(alone) == 2
    assert alone == inversion_sums()


def test_verify_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "verify", "--type", "2,1,0", "--p", "2")
    assert code == 0
    assert canonical(json.loads(out)) == out.strip()


@pytest.mark.parametrize("exps,census", [
    ("0,0,0", ["census_full_socle"]),
    ("3,0,0", ["census_full_socle"]),
    ("2,1,0", ["census_k1", "census_full_socle"]),
    ("2,2,0", ["census_k1", "census_full_socle"]),
], ids=["rank0", "rank1", "rank2", "rank2-equal"])
def test_verify_runs_census_by_default_below_rank3(capsys, exps, census):
    code, out, _ = run_cli(capsys, "verify", "--type", exps, "--p", "3")
    assert code == 0
    report = json.loads(out)
    assert report["overall"] is True
    assert [c["name"] for c in report["checks"] if c["name"].startswith("census")] == census


def test_verify_census_on_rank2_is_fast_at_the_largest_prime(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "verify", "--type", "2,1,0", "--p", str(LARGEST_ACCEPTED_PRIME),
                           "--checks", "census")
    elapsed = time.perf_counter() - start
    assert code == 0
    report = json.loads(out)
    assert report["overall"] is True
    assert [c["name"] for c in report["checks"]] == ["census_k1", "census_full_socle"]
    assert elapsed < 1.0


def test_largest_accepted_prime_is_the_last_below_the_bound():
    assert cli._is_prime(LARGEST_ACCEPTED_PRIME)
    assert not any(map(cli._is_prime, range(LARGEST_ACCEPTED_PRIME + 1, PRIME_BOUND)))


def test_verify_rank3_census_golden(capsys):
    # the rank-3 census rows print GroupType's repr; these bytes must not drift
    code, out, _ = run_cli(capsys, "verify", "--type", "2,1,1", "--p", "3", "--checks", "census")
    assert code == 0
    assert out == (
        '{"checks":[{"actual":"((GroupType(exponents=(2, 1, 0)), 12), (GroupType(exponents=(1, 1, 1)), 1))",'
        '"expected":"((GroupType(exponents=(2, 1, 0)), 12), (GroupType(exponents=(1, 1, 1)), 1))",'
        '"name":"census_k1","status":"pass"},'
        '{"actual":"((GroupType(exponents=(2, 0, 0)), 9), (GroupType(exponents=(1, 1, 0)), 4))",'
        '"expected":"((GroupType(exponents=(2, 0, 0)), 9), (GroupType(exponents=(1, 1, 0)), 4))",'
        '"name":"census_k2","status":"pass"},'
        '{"actual":"1,0,0","expected":"1,0,0","name":"census_full_socle","status":"pass"}],'
        '"instance":{"p":3,"type":[2,1,1]},"overall":true}\n'
    )


def test_verify_census_is_fast_at_large_p(capsys):
    # about 2*10^12 socle subspaces; the census walks 7 torus orbits per dimension
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "verify", "--type", "3,2,1", "--p", "1000003", "--checks", "census")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(out)["overall"] is True
    assert elapsed < 1.0


def test_f2_mobius_is_fast_at_huge_p(capsys):
    p = str(10**18 + 3)
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "f2", "--type", "5,5,5", "--p", p, "--method", "mobius")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 1.0
    code, expected, _ = run_cli(capsys, "f2", "--type", "5,5,5", "--p", p, "--method", "theorem3")
    assert code == 0
    assert out == expected


def test_verify_unknown_check(capsys):
    code, _, err = run_cli(capsys, "verify", "--type", "1,1,1", "--p", "2", "--checks", "bogus")
    assert code == 2
    assert "bogus" in err


def test_verify_cap(capsys):
    code, _, _ = run_cli(capsys, "verify", "--type", "2,2,2", "--p", "5")
    assert code == 3


def test_cap_error_states_the_order_as_a_power(capsys):
    # the order in full would be thousands of digits at the largest type and prime
    p = LARGEST_ACCEPTED_PRIME
    code, out, err = run_cli(capsys, "verify", "--type", f"{MAX_EXPONENT},{MAX_EXPONENT},{MAX_EXPONENT}",
                             "--p", str(p))
    assert code == 3
    assert not out
    assert len(err.encode()) < 1024
    assert f"p={p} has order p^{3 * MAX_EXPONENT} > cap" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--type", "2,2,1", "--p", "3"],
    ["verify", "--type", "0,0,0", "--p", "2"],
    ["f2", "--type", "3,2,1", "--p", "2", "--method", "oracle"],
])
def test_oracle_commands_never_build_the_containment_relation(capsys, monkeypatch, argv):
    def refuse(self):
        raise AssertionError("containment relation built")

    monkeypatch.setattr(pgfactor.oracle.Lattice, "containment", property(refuse))
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert out


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-lambda", "2", "--primes", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda1,lambda2,lambda3,p,f,f2_theorem3,f2_mobius,f2_oracle"
    assert "2,2,2,2,129,4387,4387,4387" in lines
    assert len(lines) == 1 + 9  # 9 types with largest exponent <= 2


def test_table_row_count_and_order(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-lambda", "1", "--primes", "2,3", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 6  # 3 types x 2 primes
    keys = [(r["lambda1"], r["lambda2"], r["lambda3"], r["p"]) for r in rows]
    assert keys == [
        (1, 0, 0, 2), (1, 0, 0, 3),
        (1, 1, 0, 2), (1, 1, 0, 3),
        (1, 1, 1, 2), (1, 1, 1, 3),
    ]
    assert canonical(rows) == out.strip()


def test_table_oracle_cell_empty_over_cap(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--max-lambda", "1", "--primes", "2", "--format", "csv", "--max-order", "4"
    )
    assert code == 0
    lines = out.strip().splitlines()
    row_111 = next(l for l in lines if l.startswith("1,1,1,2,"))
    assert row_111.endswith(",")  # oracle column empty: order 8 > cap 4


def test_table_text_format(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-lambda", "1", "--primes", "2")
    assert code == 0
    assert out.splitlines()[0].split() == [
        "lambda1", "lambda2", "lambda3", "p", "f", "f2_theorem3", "f2_mobius", "f2_oracle"
    ]


def test_table_text_pads_every_column_to_its_widest_cell(capsys):
    # an oracle cell over the cap prints as blanks of the column's width
    code, out, _ = run_cli(capsys, "table", "--max-lambda", "1", "--primes", "2", "--max-order", "4")
    assert code == 0
    assert out.splitlines() == [
        "lambda1  lambda2  lambda3  p  f   f2_theorem3  f2_mobius  f2_oracle",
        "1        0        0        2  2   3            3          3        ",
        "1        1        0        2  5   15           15         15       ",
        "1        1        1        2  16  129          129                 ",
    ]


def test_table_empty_primes(capsys):
    code, _, _ = run_cli(capsys, "table", "--max-lambda", "1", "--primes", "")
    assert code == 2


def _first_primes(n):
    primes = []
    candidate = 2
    while len(primes) < n:
        if all(candidate % q for q in primes if q * q <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def test_table_rejects_grid_above_row_limit(capsys):
    # three types at max-lambda 1, so one prime too many crosses the limit;
    # the primes are distinct, so no other check can reject the list first
    primes = ",".join(map(str, _first_primes(MAX_TABLE_ROWS // 3 + 1)))
    code, out, err = run_cli(capsys, "table", "--max-lambda", "1", "--primes", primes)
    assert code == 2
    assert not out
    assert f"table grid has {MAX_TABLE_ROWS + 3} rows, over the limit of {MAX_TABLE_ROWS}" in err


@pytest.mark.parametrize("max_lambda", [1, 2, 5, 12])
def test_table_row_count_formula_matches_grid(max_lambda):
    # cmd_table counts the grid's types as comb(L + 3, 3) - 1 without building it
    types = _grid_types(max_lambda)
    assert len(types) == math.comb(max_lambda + 3, 3) - 1
    assert types == sorted(set(types))  # distinct, in lexicographic order


@pytest.mark.parametrize("primes,repeated", [("2,2", "2"), ("3,5,3", "3"), ("7,5,7,5", "7")])
def test_table_rejects_repeated_prime(capsys, primes, repeated):
    code, out, err = run_cli(capsys, "table", "--max-lambda", "1", "--primes", primes, "--format", "csv")
    assert code == 2
    assert out == ""
    assert f"argument --primes: lists {repeated} more than once" in err


@pytest.mark.parametrize("entry,message", [("4", "argument --primes: must be prime, got 4"),
                                           (str(PRIME_BOUND), "argument --primes: must be below")],
                         ids=["composite", "at-bound"])
def test_table_bad_prime_names_primes_not_p(capsys, entry, message):
    code, out, err = run_cli(capsys, "table", "--max-lambda", "1", "--primes", entry)
    assert code == 2
    assert out == ""
    assert message in err
    assert "--p " not in err


def test_table_disagreement_exits_1(capsys, monkeypatch):
    # no real instance disagrees, so force one route to lie
    import pgfactor.cli as cli_mod

    monkeypatch.setattr(cli_mod, "factorization_count_mobius", lambda t, p: -1)
    code, out, err = run_cli(capsys, "table", "--max-lambda", "1", "--primes", "2", "--format", "csv")
    assert code == 1
    assert "disagree" in err
    assert out  # table is still emitted


def test_verify_failure_exits_1(capsys, monkeypatch):
    import pgfactor.cli as cli_mod

    monkeypatch.setattr(cli_mod, "factorization_count_mobius", lambda t, p: -1)
    code, out, _ = run_cli(capsys, "verify", "--type", "1,1,1", "--p", "2", "--checks", "f2")
    assert code == 1
    report = json.loads(out)
    assert report["overall"] is False
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["f2_mobius"] == "fail"
    assert statuses["f2_theorem3"] == "pass"


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def test_module_entry_point():
    src = str(Path(pgfactor.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "pgfactor", "f2", "--type", "2,2,2", "--symbolic"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "5p^8+8p^7+16p^6+15p^5+21p^4+16p^3+20p^2+11p+13"


HUGE_P = 1_000_000_000_000_000_003


def _digit_limit():
    # Python before 3.10.7 has no int-to-str digit limit and no getter
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


@pytest.mark.parametrize("method", ["theorem3", "mobius"])
def test_f2_prints_values_past_the_digit_limit(capsys, method):
    # F2 of (200,200,200) at p = 10^18+3 has about 14400 digits, more than
    # Python's default int-to-str limit of 4300
    limit = _digit_limit()
    code, out, err = run_cli(
        capsys, "f2", "--type", "200,200,200", "--p", str(HUGE_P), "--method", method
    )
    assert _digit_limit() == limit
    assert code == 0, err
    value = factorization_count(GroupType((200, 200, 200)), HUGE_P).value
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        assert out.strip() == str(value)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


# sha256 of the stdout, recorded before products were packed into big ints
@pytest.mark.parametrize(
    "argv,digest",
    [
        (("f2", "--type", "200,200,200", "--symbolic"),
         "1b1d7985f3080095a3ed7ac981618c2c5086ed13b5c48dfaf3147472e86387a9"),
        (("count", "--type", "200,60,20", "--symbolic"),
         "26e380f108568f5f4b41f6cf207ac591bde9b9324c1e56b791ebeb6accaca1d2"),
    ],
)
def test_large_symbolic_output_is_pinned(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command", ["count", "f2", "verify"])
def test_type_exponent_over_limit_rejected(capsys, command):
    code, out, err = run_cli(capsys, command, "--type", f"{MAX_EXPONENT + 1},0,0", "--p", "2")
    assert code == 2
    assert not out
    assert str(MAX_EXPONENT) in err


def test_type_exponent_at_limit_accepted(capsys):
    code, out, err = run_cli(capsys, "count", "--type", f"{MAX_EXPONENT},0,0", "--p", "2")
    assert code == 0, err
    assert out == f"{MAX_EXPONENT + 1}\n"


def test_digit_limit_restored_after_error(capsys):
    limit = _digit_limit()
    code, _, _ = run_cli(capsys, "f2", "--type", "2,3,1", "--p", "2")
    assert code == 2
    assert _digit_limit() == limit


README = Path(__file__).resolve().parent.parent / "README.md"
# the text of a "# value" comment: an integer or a polynomial in p
_VALUE = re.compile(r"[-+0-9p^]+")


def _readme_cli_examples():
    """(argv, expected stdout or None) for each pgfactor line of the README's CLI block.

    The expected value is the line's own comment or, when the line has none,
    a comment on the next line.
    """
    block = README.read_text().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.splitlines() + [""]
    examples = []
    for line, following in zip(lines, lines[1:]):
        if not line.startswith("pgfactor "):
            continue
        command, hash_sign, comment = line.partition("#")
        if not hash_sign and following.startswith("#"):
            comment = following[1:]
        value = comment.strip()
        examples.append((shlex.split(command)[1:], value if _VALUE.fullmatch(value) else None))
    return examples


def test_readme_cli_examples(capsys):
    examples = _readme_cli_examples()
    expected = [value for _, value in examples if value is not None]
    assert expected == ["81", "p+3", "9p^6+15p^5+21p^4+16p^3+20p^2+11p+13", "1635"]
    for argv, value in examples:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        if value is not None:
            assert out == value + "\n", argv


def oracle_cells(cap):
    """Every (type, p) whose group the oracle accepts under ``cap``, in order of p.

    Each prime p <= cap and each type with p^(e1+e2+e3) <= cap, the trivial
    type included; the cap alone bounds the primes.
    """
    cells = []
    for p in filter(cli._is_prime, range(2, cap + 1)):
        n = 0
        while p ** (n + 1) <= cap:
            n += 1
        cells += [((e1, e2, e3), p) for e1 in range(n + 1) for e2 in range(e1 + 1)
                  for e3 in range(e2 + 1) if e1 + e2 + e3 <= n]
    return cells


def test_verify_passes_on_every_accepted_oracle_cell(capsys):
    # the cells under the largest cap run in CI, through the same list
    cells = oracle_cells(DEFAULT_MAX_ORDER)
    assert len(cells) == 1314
    failing = []
    for exps, p in cells:
        code, out, err = run_cli(capsys, "verify", "--type", ",".join(map(str, exps)), "--p", str(p))
        if code != 0 or json.loads(out)["overall"] is not True:
            failing.append((exps, p, code, err))
    assert failing == []


# The number grammar: every number an option takes is one or more ASCII digits.
_PRIMES = (2, 3, 5, 7, 11, 13)
_NUMBER_OPTIONS = ("--type", "--p", "--max-order", "--max-lambda", "--primes")
_OTHER_DIGITS = ("\u0660", "\uff10", "\u0966")  # Arabic-Indic, fullwidth and Devanagari zero


@st.composite
def grammar_argv(draw):
    """An argv whose numbers follow the grammar, some with leading zeros; cheap to run."""
    def number(n):
        return "0" * draw(st.integers(0, 2)) + str(n)

    command = draw(st.sampled_from(("count", "f2", "verify", "table")))
    argv = [command]
    if command == "table":
        primes = draw(st.lists(st.sampled_from(_PRIMES), min_size=1, max_size=3, unique=True))
        argv += ["--max-lambda", number(draw(st.integers(1, 2))), "--primes", ",".join(map(number, primes))]
    else:
        exps = sorted(draw(st.lists(st.integers(0, 4), min_size=3, max_size=3)), reverse=True)
        argv += ["--type", ",".join(map(number, exps))]
        if command == "verify" or draw(st.booleans()):
            argv += ["--p", number(draw(st.sampled_from(_PRIMES)))]
        else:
            argv.append("--symbolic")
    if command != "count":
        argv += ["--max-order", number(draw(st.integers(1, 256)))]
    if command == "f2" and "--p" in argv:
        argv += ["--method", draw(st.sampled_from(("theorem3", "mobius", "oracle")))]
    return argv


def _near_miss(draw, entry):
    """``entry``, one number in the grammar, bent out of it."""
    kind = draw(st.sampled_from(("sign", "space", "underscore", "digits", "empty", "long")))
    if kind == "sign":
        return draw(st.sampled_from("+-")) + entry
    if kind == "space":
        cut = draw(st.integers(0, len(entry)))
        return entry[:cut] + draw(st.sampled_from((" ", "\t", "\u00a0"))) + entry[cut:]
    if kind == "underscore":
        return entry[:1] + "_" + entry[1:]
    if kind == "digits":
        zero = ord(draw(st.sampled_from(_OTHER_DIGITS)))
        return "".join(chr(zero + int(c)) for c in entry)
    if kind == "empty":
        return ""
    return "9" * draw(st.integers(4301, 5000))


def _run_captured(argv):
    # hypothesis runs many examples in one test, so no capsys fixture
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None, max_examples=150)
@given(grammar_argv())
def test_argv_in_the_number_grammar_is_accepted(argv):
    code, out, err = _run_captured(argv)
    assert code in (0, 1, 3), (argv, err)
    assert out or code == 3, argv


@settings(deadline=None, max_examples=300)
@given(grammar_argv(), st.data())
def test_number_near_miss_is_rejected_with_nothing_on_stdout(argv, data):
    at = 1 + data.draw(st.sampled_from([i for i, a in enumerate(argv[:-1]) if a in _NUMBER_OPTIONS]))
    entries = argv[at].split(",")
    i = data.draw(st.integers(0, len(entries) - 1))
    entries[i] = _near_miss(data.draw, entries[i])
    argv[at] = ",".join(entries)
    code, out, err = _run_captured(argv)
    assert (code, out) == (2, ""), argv
    assert err.startswith(f"usage: pgfactor {argv[0]} ")
