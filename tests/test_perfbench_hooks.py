"""The benchmark's layer tracer still sees every checker of the package.

``perfbench/tracing.py`` patches module globals and class attributes by
name.  A checker renamed, or a function captured in a table at import time,
would not fail the benchmark: its per-layer counts would silently read 0.
This runs the builtin corpus under the tracer and holds its finding counts
to the reports.
"""

from pathlib import Path

from partsan import asan_shadow, guest_memory, harness, msan_shadow, ports, scenario, sched
from partsan.asan_shadow import WILD_ADDRESS, PoisonKind
from partsan.scenario import builtin_names, load_builtin, load_scenario_text
from partsan.ub_checks import UbKind

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

_PATCHED_OWNERS = (
    harness,
    scenario,
    harness.Simulator,
    guest_memory.PartitionMemory,
    asan_shadow.ShadowMap,
    msan_shadow.InitShadow,
    ports.QueueingPort,
    ports.SamplingPort,
    sched.ProcessTable,
    sched.TimeModel,
)


def _namespaces():
    return {
        (id(owner), name): value
        for owner in _PATCHED_OWNERS
        for name, value in vars(owner).items()
    }


def test_tracer_counts_match_the_reports(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    before = _namespaces()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert _namespaces() != before
        scenarios = [load_builtin(name) for name in builtin_names()]
        # no builtin misses a deadline; without its override this one does
        stripped = load_builtin("local_timeout_override")
        scenarios.append(stripped._replace(time=stripped.time._replace(overrides=())))
        reports = [harness.run_scenario(scenario) for scenario in scenarios]
        calls, _, counts = tracer.collect()
        harness.run_scenario(scenarios[-1])
        stripped_calls, _, stripped_counts = tracer.collect()
    finally:
        tracer.uninstall()
    assert _namespaces() == before

    kinds = [v.kind for report in reports for v in report.violations]
    ub = sum(kind in {k.value for k in UbKind} for kind in kinds)
    uninit = kinds.count("UNINIT_USE")
    address = sum(kind in {k.name for k in PoisonKind} | {WILD_ADDRESS} for kind in kinds)
    assert min(ub, uninit, address) > 0
    assert counts.get("ub_checks.violations", 0) == ub
    assert counts.get("msan_shadow.check.violations", 0) == uninit
    assert counts.get("asan_shadow.check_access.violations", 0) == address
    assert counts.get("harness.steps", 0) > 0
    assert calls["sched.dispatch"] > 0
    misses = [e for report in reports for e in report.events if e.kind == "DEADLINE_MISS"]
    assert len(misses) == 1
    assert counts.get("sched.check_deadline.misses", 0) == len(misses)
    # deadlines are checked only when due, and a due deadline is a miss
    assert calls["sched.check_deadline"] == len(misses)
    assert stripped_calls["sched.check_deadline"] == 1 < stripped_counts["harness.steps"]
    # every allocation and every reset goes through the traced methods
    declared = sum(len(p.regions) for scenario in scenarios for p in scenario.partitions)
    allocs = sum(step["op"] == "ALLOC" for scenario in scenarios for step in scenario.workload)
    assert calls["guest_memory.alloc_region"] == declared + allocs > 0
    resets = [e for report in reports for e in report.events if e.kind == "PARTITION_RESET"]
    assert calls["guest_memory.reset_partition"] == len(resets) > 0
    # a SYSCALL step resolves its directives once and enforces its PRE
    # directives, then its POST ones unless a PRE check blocked it
    syscalls = sum(step["op"] == "SYSCALL" for scenario in scenarios for step in scenario.workload)
    outcomes = [
        e.info["outcome"] for report in reports for e in report.events if e.kind == "SYSCALL"
    ]
    assert len(outcomes) == syscalls and 0 < outcomes.count("blocked") < syscalls
    assert calls["syscall_annotations.resolve_sizes"] == syscalls
    assert calls["syscall_annotations.enforce"] == syscalls + syscalls - outcomes.count("blocked")


def test_bench_inputs_load(monkeypatch):
    """Every scenario the benchmark generates passes the load-time checks;
    one they reject would count as a failed benchmark operation."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    for name, generate in sorted(workloads.GENERATORS.items()):
        for seed in (1, 4242):
            for text in generate(seed):
                load_scenario_text(text)
