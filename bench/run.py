"""pgfactor benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload verify-mid --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Every instance is a call of ``pgfactor.cli.main(argv)`` in this process with
stdout captured, issued only after the previous one returned.  Each output is
checked against a value computed before timing from another route.

``--trace 0`` repeats the instance list until ``--seconds`` have passed and
reports the end-to-end metrics over all calls, with every time scaled to a
fixed speed of the machine (see ``REFERENCE_S``).
``--trace 1`` alternates an untraced pass and a traced pass of the same list
while another pair fits in ``--seconds`` and reports per-layer metrics per
pass; the difference between the two kinds of pass is the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Details (instances, environment, failures) go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from tracer import LAYERS, Tracer
from workloads import WORKLOADS, Checker

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 15

# A fresh interpreter importing pgfactor and answering one trivial call.
SETUP_CODE = (
    "import contextlib, io, sys\n"
    "sys.path.insert(0, 'src')\n"
    "import pgfactor.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    rc = pgfactor.cli.main(['count', '--type', '1,0,0', '--p', '2'])\n"
    "sys.exit(rc)\n"
)

END_TO_END_UNITS = {"setup_s": "s", "instances_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_tail_ms": "ms", "peak_rss_mb": "MB"}

NOTE = ("formulas.*: the numeric closed form takes about 0.1 ms per call; no "
        "workload can show a gain in it, so its spans are context, not a target")


def import_program(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    try:
        import pgfactor
        import pgfactor.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"bench: cannot import pgfactor from {src}: {exc}")
    if Path(pgfactor.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"bench: pgfactor imported from {pgfactor.__file__}, not from {src}")
    return pgfactor


def git_sha(root: Path):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


# The host's speed drifts by up to 2x over minutes, and CPU time drifts with
# it: the slowdown is contention from other tenants, not time spent
# descheduled.  So a fixed piece of interpreter work (the reference kernel)
# runs between consecutive timed calls, and each call's time is scaled by
# REFERENCE_S / (mean time of the kernel just before and just after it).
# Times are reported as they would read on a machine where the kernel takes
# REFERENCE_S, its median on the 2-CPU machine the benchmark was tuned on.
REFERENCE_S = 0.003


def reference_kernel(iterations: int = 20000) -> int:
    """Fixed interpreter work, independent of pgfactor."""
    s, d = 0, {}
    for i in range(iterations):
        s = (s * 31 + i) & 0xFFFFF
        d[s & 255] = i
    return s


def timed_reference() -> float:
    t0 = perf_counter()
    reference_kernel()
    return perf_counter() - t0


def measure_setup(root: Path, repeats: int) -> list[tuple[float, float]]:
    """(wall seconds from spawning an interpreter to its first answer, mean
    reference seconds just before and after) per repeat."""
    times = []
    ref_before = timed_reference()
    for _ in range(repeats):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
        elapsed = perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up call failed: {proc.stderr.decode(errors='replace')}")
        ref_after = timed_reference()
        times.append((elapsed, (ref_before + ref_after) / 2))
        ref_before = ref_after
    return times


def scaled(seconds: float, ref: float) -> float:
    return seconds * REFERENCE_S / ref


class Loop:
    """Closed-loop client: runs instances one at a time and checks each output."""

    def __init__(self, pgf, instances, checker):
        self.pgf = pgf
        self.instances = instances
        self.checker = checker
        self.samples = [[] for _ in instances]  # scaled seconds per repeat
        # (instance, seconds, reference seconds before, reference seconds after)
        self.timeline: list[tuple[int, float, float, float]] = []
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    def run_pass(self, deadline=None, tracer=None) -> float:
        """One pass over the list, stopping early at ``deadline``; returns wall seconds.

        The reference kernel runs between consecutive instances, and each
        instance is scaled by the mean of the runs just before and after it."""
        begin = perf_counter()
        ref_before = timed_reference()
        for i, inst in enumerate(self.instances):
            if deadline is not None and perf_counter() >= deadline:
                break
            if tracer is not None:
                tracer.current = self.attempted
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                t0 = perf_counter()
                try:
                    rc = self.pgf.cli.main(list(inst.argv))
                except Exception as exc:  # a crash is a failed instance, not a crashed benchmark
                    rc = exc
                elapsed = perf_counter() - t0
            self.attempted += 1
            if tracer is not None:
                tracer.finish_instance()
            ref_after = timed_reference()
            self.samples[i].append(scaled(elapsed, (ref_before + ref_after) / 2))
            self.timeline.append((i, elapsed, ref_before, ref_after))
            ref_before = ref_after
            if isinstance(rc, Exception):
                problem = f"raised {rc!r}"
            else:
                problem = self.checker.check(inst, rc, out.getvalue())
            if problem is not None:
                self.failures.append((str(inst), problem))
        return perf_counter() - begin


def weighted_quantile(samples, q: float) -> float:
    """Smallest scaled time at or below which the share ``q`` of all calls
    lies, each instance weighing 1 split evenly over its repeats, so that
    instances the deadline cut short of a repeat are not underweighted."""
    pairs = sorted((t, 1 / len(repeats)) for repeats in samples for t in repeats)
    target = q * len(samples) - 1e-9
    seen = 0.0
    for t, weight in pairs:
        seen += weight
        if seen >= target:
            return t
    return pairs[-1][0]


def latency_summary(samples):
    """Throughput from each instance's mean scaled time; median and tail over
    all calls.  The tail is the highest percentile with ten instances beyond it."""
    n = len(samples)
    tail_share = max(1, n - 10) / n
    return {
        "instances_per_s": n / sum(statistics.mean(s) for s in samples),
        "latency_p50_ms": weighted_quantile(samples, 0.5) * 1000,
        "latency_tail_ms": weighted_quantile(samples, tail_share) * 1000,
        "tail_percentile": 100 * tail_share,
        "samples": sum(map(len, samples)),
        "instances": n,
        "repeats_per_instance": [min(map(len, samples)), max(map(len, samples))],
    }


def untraced(pgf, instances, checker, seconds):
    # Half the set-up samples before the passes and half after, so the median
    # spans the run rather than one moment of it.
    setup = measure_setup(ROOT, SETUP_REPEATS // 2 + 1)
    loop = Loop(pgf, instances, checker)
    deadline = perf_counter() + seconds
    loop.run_pass()
    while perf_counter() < deadline:
        loop.run_pass(deadline)
    setup += measure_setup(ROOT, SETUP_REPEATS // 2)
    summary = latency_summary(loop.samples)
    metrics = {
        "setup_s": statistics.median(scaled(t, ref) for t, ref in setup),
        "instances_per_s": summary["instances_per_s"],
        "latency_p50_ms": summary["latency_p50_ms"],
        "latency_tail_ms": summary["latency_tail_ms"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {k: summary[k] for k in ("tail_percentile", "samples", "instances", "repeats_per_instance")}
    detail["setup_unscaled_s"] = statistics.median(t for t, _ in setup)
    detail["reference_median_s"] = statistics.median(r for _, _, r, _ in loop.timeline)
    return loop, {m: (v, END_TO_END_UNITS[m]) for m, v in metrics.items()}, detail


def _per_pass(value, passes):
    return value // passes if isinstance(value, int) and value % passes == 0 else value / passes


def layer_metrics(tracer: Tracer, passes: int, overhead_s: float):
    """Per-layer metrics, each per pass over the instance list."""
    stats = tracer.per_name()
    totals = tracer.totals()

    def span(name, field):
        return _per_pass(stats.get(name, [0, 0.0, 0.0])[field], passes)

    def count(name):
        return _per_pass(totals[name], passes)

    def ratio(num, den):
        return num / den if den else 0.0

    snf_calls = stats.get("mobius.smith_normal_form", [0])[0]
    layer_self = {layer: sum(v[2] for k, v in stats.items() if k.split(".")[0] == layer)
                  for layer in LAYERS}
    values = {
        "oracle.all_subgroups.total_s": (span("oracle.all_subgroups", 1), "s"),
        "oracle.build_group.total_s": (span("oracle.build_group", 1), "s"),
        "oracle.elements": (count("oracle.elements"), "count"),
        "oracle.subgroups": (count("oracle.subgroups"), "count"),
        "oracle.comparable_pairs": (count("oracle.comparable_pairs"), "count"),
        "oracle.count_factorizations.calls": (span("oracle.count_factorizations", 0), "count"),
        "oracle.count_factorizations.total_s": (span("oracle.count_factorizations", 1), "s"),
        "oracle.pairs_tested": (count("oracle.pairs_tested"), "count"),
        "oracle.factorizing_pair_ratio": (
            ratio(totals["oracle.factorizing_pairs"], totals["oracle.pairs_tested"]), "ratio"),
        "oracle.verify_hall.total_s": (span("oracle.verify_hall", 1), "s"),
        "oracle.verify_inversion_forms.total_s": (span("oracle.verify_inversion_forms", 1), "s"),
        "mobius.factorization_count_mobius.total_s": (span("mobius.factorization_count_mobius", 1), "s"),
        "mobius.factorization_count_mobius.self_s": (span("mobius.factorization_count_mobius", 2), "s"),
        "mobius.enumerate_subspaces.total_s": (span("mobius.enumerate_subspaces", 1), "s"),
        "mobius.subspaces": (count("mobius.subspaces"), "count"),
        "mobius.quotient_type.calls": (span("mobius.quotient_type", 0), "count"),
        "mobius.quotient_type.total_s": (span("mobius.quotient_type", 1), "s"),
        "mobius.smith_normal_form.calls": (span("mobius.smith_normal_form", 0), "count"),
        "mobius.smith_normal_form.total_s": (span("mobius.smith_normal_form", 1), "s"),
        "mobius.quotient_type_census.total_s": (span("mobius.quotient_type_census", 1), "s"),
        "mobius.distinct_quotient_ratio": (ratio(totals["mobius.distinct_quotients"], snf_calls), "ratio"),
        "poly.mul.calls": (span("poly.mul", 0), "count"),
        "poly.mul.total_s": (span("poly.mul", 1), "s"),
        "poly.mul.coef_products": (count("poly.mul.coef_products"), "count"),
        "poly.exact_div.calls": (span("poly.exact_div", 0), "count"),
        "poly.exact_div.total_s": (span("poly.exact_div", 1), "s"),
        "poly.pow.total_s": (span("poly.pow", 1), "s"),
        "formulas.factorization_count.total_s": (span("formulas.factorization_count", 1), "s"),
        "formulas.subgroup_count.total_s": (span("formulas.subgroup_count", 1), "s"),
        "cli.main.calls": (span("cli.main", 0), "count"),
        "cli.main.self_s": (span("cli.main", 2), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = (layer_self[layer] / passes, "s")
    total_self = sum(layer_self.values())
    detail = {
        "layer_self_share": {k: ratio(v, total_self) for k, v in layer_self.items()},
        "dominant_layer": max(layer_self, key=layer_self.get),
        "spans": len(tracer.start),
    }
    return values, detail


def traced(pgf, instances, checker, seconds):
    loop = Loop(pgf, instances, checker)
    tracer = Tracer(pgf)
    plain = with_trace = 0.0
    passes = 0
    begin = perf_counter()
    deadline = begin + seconds
    while True:
        # Alternate which kind of pass goes first, so drift in machine speed
        # does not land on one side of the overhead.
        for use_tracer in ((False, True) if passes % 2 == 0 else (True, False)):
            if not use_tracer:
                plain += loop.run_pass()
                continue
            tracer.install()
            try:
                with_trace += loop.run_pass(tracer=tracer)
            finally:
                tracer.uninstall()
        passes += 1
        # Stop before a pair of passes that would end past the deadline.
        now = perf_counter()
        if now + (now - begin) / passes >= deadline:
            break
    overhead = (with_trace - plain) / passes
    values, detail = layer_metrics(tracer, passes, overhead)
    detail.update(passes=passes, untraced_pass_s=plain / passes, traced_pass_s=with_trace / passes)
    return loop, values, detail, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # PGF_MAX_ORDER changes the oracle cap, and with it which instances reach the oracle.
    os.environ.pop("PGF_MAX_ORDER", None)
    pgf = import_program(ROOT)
    workload = WORKLOADS[args.workload]
    instances = workload.instances(args.seed)
    checker = Checker(pgf, instances)

    env = {"git": git_sha(ROOT), "python": platform.python_version(), "nproc": os.cpu_count()}
    print(f"bench: workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} git={env['git']} python={env['python']} nproc={env['nproc']}")
    print(f"bench: {len(instances)} instances, closed loop, one client: "
          + "; ".join(f"[{i.bucket}] {i}" for i in instances))

    if args.trace:
        loop, values, detail, tracer = traced(pgf, instances, checker, args.seconds)
    else:
        loop, values, detail = untraced(pgf, instances, checker, args.seconds)

    failed = len(loop.failures)
    for name, (value, unit) in values.items():
        print(f"metric {name} = {value!r} {unit}")
    print(f"detail {json.dumps(detail, sort_keys=True)}")
    print(f"fail_ratio = {failed}/{loop.attempted} = {failed / loop.attempted!r}")
    for inst, problem in loop.failures[:5]:
        print(f"FAILED {inst}: {problem}")
    if args.trace:
        print(f"note: {NOTE}")

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}.trace{args.trace}"
    report = {"workload": workload.name, "why": workload.why, "seed": args.seed,
              "seconds": args.seconds, **env,
              "instances": [{"bucket": i.bucket, "argv": list(i.argv)} for i in instances],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
              "detail": detail, "attempted": loop.attempted, "scaled_samples_s": loop.samples,
              "timeline": loop.timeline,
              "failures": [list(f) for f in loop.failures]}
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    if args.trace:
        tracer.write(OUT / f"{stem}.spans")

    print(json.dumps({"correct": failed == 0, "attempted": loop.attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
