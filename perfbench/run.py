"""partsan benchmark: seeded workloads through the public API, timed end to end.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each pass takes every scenario of the workload from JSON text to
a rendered report: ``load_scenario_text``, ``Simulator(...)``, ``.run()``
(which includes ``match_expected``) and ``render_report``.  Passes repeat
until ``--seconds`` have been measured.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the public
functions of every layer (see tracing.py) and prints per-layer counts and
self times instead.  Either way every report is checked: its verdict must
be MATCH, it must equal the same scenario's report from the warm-up pass,
and for seeds in baseline.json the warm-up pass must reproduce the recorded
digest and simulated totals.  The last line of stdout is one JSON object;
the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads  # the benchmark's own module; the script's directory is on sys.path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"

DEFAULT_SEED = 1
HELD_OUT_SEED = 4242
RECORDED_SEEDS = [*range(64), HELD_OUT_SEED]
MIN_PASSES = 3

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("steps_per_s", "1/s"),
    ("scenarios_per_s", "1/s"),
    ("scenario_p50_ms", "ms"),
    ("scenario_p99_ms", "ms"),
    ("peak_rss_mib", "MiB"),
]


def _layer_metrics():
    spans = {
        "scenario.load": ("steps",),
        "syscall_annotations.parse_template": (),
        "syscall_annotations.resolve_sizes": (),
        "syscall_annotations.enforce": (),
        "harness.build": (),
        "harness.match_expected": (),
        "harness.render_report": ("bytes",),
        "guest_memory.construct": ("bytes",),
        "guest_memory.alloc_region": (),
        "guest_memory.reset_partition": ("bytes",),
        "guest_memory.checked_write": ("bytes",),
        "guest_memory.checked_read": ("bytes",),
        "asan_shadow.poison": ("bytes",),
        "asan_shadow.unpoison": ("bytes",),
        "asan_shadow.check_access": ("bytes", "violations"),
        "msan_shadow.set_uninitialized": ("bytes",),
        "msan_shadow.mark_initialized": ("bytes",),
        "msan_shadow.snapshot": ("bytes",),
        "msan_shadow.apply_snapshot": ("bytes",),
        "msan_shadow.copy_propagate": ("bytes",),
        "msan_shadow.check": ("bytes", "violations"),
        "ports.send": ("dropped",),
        "ports.receive": ("empty",),
        "ports.sampling_write": (),
        "ports.sampling_read": ("stale",),
        "sched.dispatch": (),
        "sched.check_deadline": ("misses",),
        "sched.advance": (),
        "ub_checks": ("violations",),
    }
    units = {"self_s": "s", "bytes": "B"}
    metrics = []
    for span, extras in spans.items():
        for field in ("calls", "self_s", *extras):
            metrics.append((f"{span}.{field}", units.get(field, "count")))
    metrics += [
        ("harness.run.self_s", "s"),
        ("harness.steps", "count"),
        ("harness.raw_ticks", "ticks"),
        ("harness.virtual_ticks", "ticks"),
        ("harness.violations", "count"),
        ("harness.events", "count"),
        ("ports.bytes", "B"),
        # wasted work, each with its base printed above
        ("sched.check_deadline.per_step", "ratio"),
        ("ports.send.dropped_share", "ratio"),
        ("trace.untraced_pass_s", "s"),
        ("trace.traced_pass_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    return metrics


PER_LAYER = _layer_metrics()


def import_program():
    """The partsan package of this checkout, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import partsan
    from partsan import harness, scenario

    if Path(partsan.__file__).resolve().parent != src / "partsan":
        raise SystemExit(f"partsan imported from {partsan.__file__}, not from {src}")
    return harness, scenario


class Pass:
    """Timings and outputs of one pass over a workload's scenarios."""

    def __init__(self):
        # per scenario, None where it raised
        self.setups, self.runs, self.latencies = [], [], []
        self.steps = 0
        self.digests = []
        self.errors = []  # (scenario index, message)
        self.totals = {"raw_ticks": 0, "virtual_ticks": 0, "violations": 0, "events": 0}
        self.wall_s = 0.0

    @property
    def setup_s(self):
        return sum(x for x in self.setups if x is not None)

    @property
    def run_s(self):
        return sum(x for x in self.runs if x is not None)

    @property
    def scenarios_per_s(self):
        done = [x for x in self.latencies if x is not None]
        return len(done) / sum(done)

    @property
    def digest(self):
        return hashlib.sha256("".join(self.digests).encode()).hexdigest()


def run_pass(texts, harness, scenario, tracer=None):
    """Every scenario from JSON text to rendered report, timed per stage.

    Names are looked up on the modules at each call, so tracing wrappers
    apply when installed.
    """
    result = Pass()
    clock = time.perf_counter
    wall = clock()
    for index, text in enumerate(texts):
        if tracer is not None:
            tracer.request = index
        t0 = clock()
        try:
            sim = harness.Simulator(scenario.load_scenario_text(text))
            t1 = clock()
            report = sim.run()
            t2 = clock()
            rendered = harness.render_report(report)
            t3 = clock()
        except Exception as exc:  # a scenario that raises is a failure, not a crash
            result.errors.append((index, f"{type(exc).__name__}: {exc}"))
            result.digests.append("")
            for times in (result.setups, result.runs, result.latencies):
                times.append(None)
            continue
        result.setups.append(t1 - t0)
        result.runs.append(t2 - t1)
        result.latencies.append(t3 - t0)
        result.steps += len(sim.scenario.workload)
        result.digests.append(hashlib.sha256(rendered.encode()).hexdigest())
        for key in ("raw_ticks", "virtual_ticks"):
            result.totals[key] += getattr(report, key)
        result.totals["violations"] += len(report.violations)
        result.totals["events"] += len(report.events)
        if report.verdict != "MATCH":
            result.errors.append((index, f"verdict {report.verdict}"))
    result.wall_s = clock() - wall
    return result


class Checker:
    """Counts failed scenarios against the warm-up pass and the baseline."""

    def __init__(self, workload, seed, reference):
        self.reference = reference
        self.attempted = self.failed = 0
        self.messages = []
        recorded = _load_baseline().get(workload, {}).get(str(seed))
        self.pinned = recorded is not None
        self.baseline_ok = True
        if recorded is not None:
            got = {"digest": reference.digest, **reference.totals}
            diffs = [k for k in got if got[k] != recorded[k]]
            if diffs:
                self.baseline_ok = False
                self.messages.append(f"warm-up pass differs from baseline.json in {diffs}")
        self.check(reference)

    def check(self, result):
        changed = [i for i, digest in enumerate(result.digests)
                   if digest != self.reference.digests[i]]
        bad = {index for index, _ in result.errors} | set(changed)
        self.messages += [f"scenario {i}: {message}" for i, message in result.errors[:3]]
        self.messages += [f"scenario {i}: report differs from warm-up pass" for i in changed[:3]]
        self.attempted += len(result.digests)
        self.failed += len(result.digests) if not self.baseline_ok else len(bad)

    @property
    def correct(self):
        return self.failed == 0 and not self.messages

    def summary(self):
        where = "baseline.json and the warm-up pass" if self.pinned else "the warm-up pass"
        lines = [f"checked against {where}: failed {self.failed} of {self.attempted} "
                 f"scenarios, fail_ratio {self.failed / self.attempted:.6f}"]
        lines += [f"  FAIL {m}" for m in self.messages[:10]]
        return lines


def _load_baseline():
    if not BASELINE.exists():
        return {}
    return json.loads(BASELINE.read_text(encoding="utf-8"))["workloads"]


def timed_passes(texts, harness, scenario, seconds, checker):
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        gc.collect()
        result = run_pass(texts, harness, scenario)
        checker.check(result)
        passes.append(result)
    return passes


def _spread(values):
    if len(values) < 2:
        return f"{values[0]:.6g}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"IQR {q1:.6g}..{q3:.6g}"


def peak_rss_mib(workload, seed, checker):
    """Peak RSS of a fresh child process that generates the input and runs one pass."""
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--rss-child"],
        capture_output=True, text=True, timeout=170, cwd=ROOT, check=False,
    )
    if child.returncode != 0 or child.stdout.strip() != checker.reference.digest:
        checker.messages.append(f"peak-RSS child failed or disagreed: {child.stderr[-300:]}")
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def _percentiles(values):
    if len(values) == 1:
        return values[0], values[0]
    return statistics.median(values), statistics.quantiles(values, n=100, method="inclusive")[98]


def _fastest(passes, field):
    """Each scenario's fastest time over the passes, in scenario order."""
    per_scenario = zip(*(getattr(p, field) for p in passes))
    return [min(times) for times in per_scenario if None not in times]


def end_to_end(workload, seed, seconds, texts, harness, scenario, checker):
    """Every timing is built from each scenario's fastest time in the run.

    A shared host's speed drifts for tens of seconds at a time.  The drift
    moves the median pass of a run far more than the fastest time of each
    scenario (README.md gives the figures), so the per-pass medians and
    quartiles are printed but not reported as metrics.  On a workload of
    one scenario, the fastest time is the best pass.
    """
    rss = peak_rss_mib(workload, seed, checker)
    passes = timed_passes(texts, harness, scenario, seconds, checker)
    if all(x is None for p in passes for x in p.latencies):
        raise SystemExit("every scenario raised:\n" + "\n".join(checker.summary()))
    setup, run = sum(_fastest(passes, "setups")), sum(_fastest(passes, "runs"))
    latency = [x * 1000 for x in _fastest(passes, "latencies")]
    values = {
        "setup_s": setup,
        "run_s": run,
        "steps_per_s": passes[0].steps / run,
        "scenarios_per_s": len(latency) / sum(latency) * 1000,
        "peak_rss_mib": rss,
    }
    values["scenario_p50_ms"], values["scenario_p99_ms"] = _percentiles(latency)
    per_pass = {
        "setup_s": [p.setup_s for p in passes],
        "run_s": [p.run_s for p in passes],
        "steps_per_s": [p.steps / p.run_s for p in passes],
        "scenarios_per_s": [p.scenarios_per_s for p in passes],
    }

    print(f"{len(passes)} timed passes after 1 warm-up, {len(texts)} scenarios and "
          f"{passes[0].steps} steps per pass")
    print(f"timings from {len(latency)} scenarios, each at its fastest of {len(passes)} passes")
    for name, unit in END_TO_END:
        if name in per_pass:
            v = per_pass[name]
            note = f"per pass: median {statistics.median(v):.6g}, {_spread(v)}"
        elif name == "peak_rss_mib":
            note = "fresh child process, one pass"
        else:
            note = f"{len(latency) // 100} scenarios beyond p99"
        print(f"  {name:18s} {values[name]:12.6g} {unit:4s} ({note})")
    pooled = [x * 1000 for p in passes for x in p.latencies if x is not None]
    p50, p99 = _percentiles(pooled)
    print(f"  all {len(pooled)} scenario latencies pooled: median {p50:.6g} ms, "
          f"p99 {p99:.6g} ms ({len(pooled) // 100} samples beyond p99)")
    print(f"  {'fail_ratio':18s} {checker.failed / checker.attempted:12.6g} ratio "
          f"({checker.failed} of {checker.attempted} scenarios)")
    return {name: (values[name], unit) for name, unit in END_TO_END}


def per_layer(seconds, texts, harness, scenario, checker):
    """Traced passes alternate with untraced ones, so that the tracing
    overhead compares passes that ran under the same host conditions."""
    import tracing

    tracer = tracing.Tracer()
    untraced, runs = [], []
    start = time.perf_counter()
    while len(runs) < 2 or time.perf_counter() - start < seconds:
        gc.collect()
        untraced.append(run_pass(texts, harness, scenario))
        checker.check(untraced[-1])
        gc.collect()
        tracing.install(tracer)
        try:
            result = run_pass(texts, harness, scenario, tracer)
        finally:
            tracer.uninstall()
        checker.check(result)
        runs.append((result, *tracer.collect()))

    first_calls, _, first_counts = runs[0][1:]
    for _, calls, _, counts in runs[1:]:
        if calls != first_calls or counts != first_counts:
            checker.messages.append("counts differ between two traced passes")

    def value(name):
        if name.endswith(".calls"):
            return first_calls.get(name[: -len(".calls")], 0)
        if name.endswith(".self_s"):
            span = name[: -len(".self_s")]
            return statistics.median(self_s.get(span, 0.0) for _, _, self_s, _ in runs)
        return first_counts.get(name, 0)

    values = {name: value(name) for name, _ in PER_LAYER}
    values["ports.bytes"] = (first_counts.get("ports.send.bytes", 0)
                             + first_counts.get("ports.sampling_write.bytes", 0))
    steps = values["harness.steps"]
    sends = values["ports.send.calls"]
    values["sched.check_deadline.per_step"] = values["sched.check_deadline.calls"] / steps
    values["ports.send.dropped_share"] = values["ports.send.dropped"] / sends if sends else 0.0
    values["trace.untraced_pass_s"] = min(p.wall_s for p in untraced)
    values["trace.traced_pass_s"] = min(r[0].wall_s for r in runs)
    values["trace.overhead_s"] = values["trace.traced_pass_s"] - values["trace.untraced_pass_s"]

    print(f"{len(runs)} traced passes alternating with {len(untraced)} untraced ones "
          f"(counts from the first traced pass, self_s as medians, pass times the best)")
    for name, unit in PER_LAYER:
        print(f"  {name:42s} {values[name]:14.6g} {unit}")
    print(f"  check_deadline calls per step: {first_calls.get('sched.check_deadline', 0)} "
          f"calls / {steps} steps; dropped sends: {values['ports.send.dropped']} of {sends}")
    return {name: (values[name], unit) for name, unit in PER_LAYER}


def record_baseline(harness, scenario):
    """Writes baseline.json from one pass per workload and recorded seed."""
    recorded = {}
    for workload, generate in workloads.GENERATORS.items():
        for seed in RECORDED_SEEDS:
            result = run_pass(generate(seed), harness, scenario)
            if result.errors:
                raise SystemExit(f"{workload} seed {seed}: {result.errors[:3]}")
            recorded.setdefault(workload, {})[str(seed)] = {
                "digest": result.digest, **result.totals}
            print(workload, seed, result.digest[:16], result.totals, flush=True)
    doc = {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
           "python": sys.version.split()[0], "workloads": recorded}
    BASELINE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rss-child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-baseline", action="store_true",
                        help="rewrite baseline.json from the current program")
    args = parser.parse_args(argv)
    harness, scenario = import_program()
    if args.record_baseline:
        record_baseline(harness, scenario)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    texts = workloads.GENERATORS[args.workload](args.seed)
    if args.rss_child:
        print(run_pass(texts, harness, scenario).digest)
        return 0
    checker = Checker(args.workload, args.seed, run_pass(texts, harness, scenario))
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}, python {sys.version.split()[0]}")
    if args.trace:
        metrics = per_layer(args.seconds, texts, harness, scenario, checker)
    else:
        metrics = end_to_end(args.workload, args.seed, args.seconds, texts, harness,
                             scenario, checker)
    for line in checker.summary():
        print(line)
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if checker.correct else 1


if __name__ == "__main__":
    sys.exit(main())
