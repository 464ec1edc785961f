"""Tests of the benchmark itself: gate, counters, tracer and metric names.

    python3 -m pytest bench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Checker, Instance, evaluate_rendered  # noqa: E402

pgf = run.import_program(BENCH.parent)


def traced_pass(instances):
    loop = run.Loop(pgf, instances, Checker(pgf, instances))
    tracer = Tracer(pgf)
    tracer.install()
    try:
        loop.run_pass(tracer=tracer)
    finally:
        tracer.uninstall()
    assert loop.failures == []
    return tracer


def cheapest(workload, seed):
    """Instances a seed draws from the workload's first (cheapest) bucket."""
    first = WORKLOADS[workload].buckets[0].name
    return [i for i in WORKLOADS[workload].instances(seed) if i.bucket == first]


def off_by_one(fn):
    def wrong(*args, **kwargs):
        result = fn(*args, **kwargs)
        if hasattr(result, "value"):
            return type(result)(result.value + 1, result.method)
        return result + 1

    return wrong


@pytest.mark.parametrize("argv, target", [
    (("f2", "--type", "3,2,1", "--p", "7", "--method", "mobius"), "factorization_count_mobius"),
    (("f2", "--type", "3,2,1", "--symbolic"), "factorization_count"),
    (("verify", "--type", "2,1,1", "--p", "3"), "factorization_count_mobius"),
    (("table", "--max-lambda", "1", "--primes", "3", "--format", "csv"), "factorization_count_mobius"),
])
def test_injected_wrong_value_counts_as_failure(monkeypatch, argv, target):
    instances = [Instance("probe", argv)]
    loop = run.Loop(pgf, instances, Checker(pgf, instances))
    loop.run_pass()
    assert loop.failures == []
    monkeypatch.setattr(pgf.cli, target, off_by_one(getattr(pgf.cli, target)))
    loop.run_pass()
    assert loop.attempted == 2
    assert len(loop.failures) == 1


def test_exact_counters_repeat_for_one_seed():
    instances = [i for w in WORKLOADS for i in cheapest(w, 5)]
    first, second = (traced_pass(instances).totals() for _ in range(2))
    assert first == second
    for counter in ("oracle.subgroups", "mobius.subspaces", "poly.mul.coef_products"):
        assert first[counter] > 0


def test_oracle_subgroups_equal_subgroup_count_on_verify_mid():
    instances = WORKLOADS["verify-mid"].instances(3)
    tracer = traced_pass(instances)
    for index, inst in enumerate(instances):
        t = pgf.parse_type(inst.argv[2])
        p = int(inst.argv[4])
        assert tracer.counts["oracle.subgroups", index] == pgf.subgroup_count(t, p).value, inst


def test_self_times_partition_the_top_level_spans():
    tracer = traced_pass(cheapest("verify-mid", 2) + cheapest("symbolic-large-e", 2))
    stats = tracer.per_name()
    top = sum(e - s for s, e, par in zip(tracer.start, tracer.end, tracer.parent) if par < 0)
    assert sum(v[2] for v in stats.values()) == pytest.approx(top, rel=1e-9)
    assert stats["cli.main"][0] == sum(1 for par in tracer.parent if par < 0)


def test_tracer_catches_aliases_and_restores_originals():
    originals = (pgf.cli.main, pgf.cli.all_subgroups, pgf.mobius._subgroup_count_value,
                 pgf.IntPolynomial.__dict__["__rmul__"])
    tracer = Tracer(pgf)
    tracer.install()
    try:
        for module, name, source in ((pgf.oracle, "hall_mobius", pgf.mobius),
                                     (pgf.mobius, "_subgroup_count_value", pgf.formulas),
                                     (pgf.cli, "all_subgroups", pgf.oracle)):
            assert getattr(module, name) is getattr(source, name)
            assert hasattr(getattr(module, name), "__wrapped__")
        _ = 3 * pgf.P
    finally:
        tracer.uninstall()
    assert tracer.per_name()["poly.mul"][0] == 1
    assert (pgf.cli.main, pgf.cli.all_subgroups, pgf.mobius._subgroup_count_value,
            pgf.IntPolynomial.__dict__["__rmul__"]) == originals


def test_instances_are_seeded_and_stratified():
    for workload in WORKLOADS.values():
        a, b, c = workload.instances(11), workload.instances(11), workload.instances(12)
        assert a == b
        assert a != c
        for bucket in workload.buckets:
            assert sum(i.bucket == bucket.name for i in a) == bucket.count
            assert sum(i.bucket == bucket.name for i in c) == bucket.count
        assert len(a) >= 21, "the tail percentile needs ten samples beyond it"


def test_latency_quantiles_weigh_each_instance_once():
    # The first instance has one repeat, the second three: each still holds
    # half the weight, so the median is the first instance's time.
    samples = [[1.0], [2.0, 2.0, 2.0]]
    assert run.weighted_quantile(samples, 0.5) == 1.0
    assert run.weighted_quantile(samples, 0.51) == 2.0
    summary = run.latency_summary([[0.1, 0.3]] * 11 + [[1.0]] * 10)
    assert summary["tail_percentile"] == pytest.approx(100 * 11 / 21)
    assert summary["latency_tail_ms"] == pytest.approx(300)
    assert summary["instances_per_s"] == pytest.approx(21 / (11 * 0.2 + 10 * 1.0))


def test_evaluate_rendered():
    assert evaluate_rendered("9p^6+15p^5+21p^4+16p^3+20p^2+11p+13", 2) == 1635
    assert evaluate_rendered("-2p^2-2\n", 3) == -20
    assert evaluate_rendered("p+3", 5) == 8
    assert evaluate_rendered("0", 7) == 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    values, _ = run.layer_metrics(traced_pass(cheapest("verify-mid", 1)), 1, 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in values.items()}
