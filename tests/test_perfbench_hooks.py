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
from partsan.scenario import builtin_names, load_builtin
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
        reports = [harness.run_scenario(load_builtin(name)) for name in builtin_names()]
    finally:
        tracer.uninstall()
    assert _namespaces() == before

    _, _, counts = tracer.collect()
    kinds = [v.kind for report in reports for v in report.violations]
    ub = sum(kind in {k.value for k in UbKind} for kind in kinds)
    uninit = kinds.count("UNINIT_USE")
    address = sum(kind in {k.name for k in PoisonKind} | {WILD_ADDRESS} for kind in kinds)
    assert min(ub, uninit, address) > 0
    assert counts.get("ub_checks.violations", 0) == ub
    assert counts.get("msan_shadow.check.violations", 0) == uninit
    assert counts.get("asan_shadow.check_access.violations", 0) == address
    assert counts.get("harness.steps", 0) > 0
