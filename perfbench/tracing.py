"""Opt-in layer tracing: timing wrappers installed from the benchmark only.

Each wrapped function records a span (name, start, end, parent, request) in
memory; spans are turned into per-layer calls, self time and counts only
after a pass ends.  A span's self time is its duration minus the durations
of its wrapped children.  Names are patched where the caller looks them up:
``harness`` and ``scenario`` import functions by name, so those module
globals are replaced; methods are replaced on their class.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict


def _arg(fn, name):
    """Reads argument ``name`` of a call to ``fn``, positional or keyword."""
    index = list(inspect.signature(fn).parameters).index(name)

    def get(args, kwargs):
        return args[index] if len(args) > index else kwargs[name]

    return get


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.request = 0
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, size=None, on_result=None, on_error=None):
        """``size(args, kwargs)`` adds to ``<name>.bytes``; ``on_result`` and
        ``on_error`` add outcome counts."""
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if size is not None:
                counts[f"{name}.bytes"] += size(args, kwargs)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(counts, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.request)
            if on_result is not None:
                on_result(counts, args, result)
            return result

        return traced

    def patch(self, owner, attr, name, **hooks):
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, **hooks))
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def collect(self):
        """Per-name calls and self time of the spans so far, then forget them."""
        spans = self.spans
        children = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        calls, self_s = defaultdict(int), defaultdict(float)
        for (name, start, end, _, _), child in zip(spans, children):
            calls[name] += 1
            self_s[name] += end - start - child
        counts = dict(self.counts)
        spans.clear()
        self.counts.clear()
        return calls, self_s, counts


def _count_if(key, test):
    def on_result(counts, args, result):
        if test(result):
            counts[key] += 1

    return on_result


def install(tracer):
    """Wraps the public functions of every layer of the ``partsan`` package."""
    from partsan import (
        asan_shadow, guest_memory, harness, msan_shadow, ports, scenario, sched, ub_checks,
    )

    def loaded(counts, args, result):
        counts["scenario.load.steps"] += len(result.workload)

    def ran(counts, args, report):
        counts["harness.steps"] += len(args[0].scenario.workload)
        counts["harness.raw_ticks"] += report.raw_ticks
        counts["harness.virtual_ticks"] += report.virtual_ticks
        counts["harness.violations"] += len(report.violations)
        counts["harness.events"] += len(report.events)

    def rendered(counts, args, text):
        counts["harness.render_report.bytes"] += len(text)

    tracer.patch(scenario, "load_scenario_text", "scenario.load", on_result=loaded)
    tracer.patch(scenario, "parse_template", "syscall_annotations.parse_template")
    tracer.patch(harness, "resolve_sizes", "syscall_annotations.resolve_sizes")
    tracer.patch(harness, "enforce_pre", "syscall_annotations.enforce")
    tracer.patch(harness, "enforce_post", "syscall_annotations.enforce")
    tracer.patch(harness.Simulator, "__init__", "harness.build")
    tracer.patch(harness.Simulator, "run", "harness.run", on_result=ran)
    tracer.patch(harness, "match_expected", "harness.match_expected")
    tracer.patch(harness, "render_report", "harness.render_report", on_result=rendered)

    PM = guest_memory.PartitionMemory
    write_data = _arg(PM.checked_write, "data")
    tracer.patch(PM, "__init__", "guest_memory.construct", size=_arg(PM.__init__, "size_bytes"))
    tracer.patch(PM, "alloc_region", "guest_memory.alloc_region")
    tracer.patch(PM, "reset_partition", "guest_memory.reset_partition",
                 size=lambda args, kwargs: args[0].size_bytes)
    tracer.patch(PM, "checked_write", "guest_memory.checked_write",
                 size=lambda args, kwargs: len(write_data(args, kwargs)))
    tracer.patch(PM, "checked_read", "guest_memory.checked_read",
                 size=_arg(PM.checked_read, "length"))

    SM = asan_shadow.ShadowMap
    tracer.patch(SM, "poison", "asan_shadow.poison", size=_arg(SM.poison, "length"))
    tracer.patch(SM, "unpoison", "asan_shadow.unpoison", size=_arg(SM.unpoison, "length"))
    tracer.patch(SM, "check_access", "asan_shadow.check_access",
                 size=_arg(SM.check_access, "length"),
                 on_result=_count_if("asan_shadow.check_access.violations",
                                     lambda r: r is not None))

    IS = msan_shadow.InitShadow
    for method in ("set_uninitialized", "mark_initialized", "snapshot"):
        tracer.patch(IS, method, f"msan_shadow.{method}",
                     size=_arg(getattr(IS, method), "length"))
    snapshot_bits = _arg(IS.apply_snapshot, "bits")
    tracer.patch(IS, "apply_snapshot", "msan_shadow.apply_snapshot",
                 size=lambda args, kwargs: len(snapshot_bits(args, kwargs)))
    tracer.patch(harness, "copy_propagate", "msan_shadow.copy_propagate",
                 size=_arg(msan_shadow.copy_propagate, "length"))
    tracer.patch(IS, "check", "msan_shadow.check", size=_arg(IS.check, "length"),
                 on_result=_count_if("msan_shadow.check.violations", lambda r: r is not None))

    def dropped(counts, exc):
        if getattr(getattr(exc, "violation", None), "kind", None) == "QUEUE_FULL":
            counts["ports.send.dropped"] += 1

    QP, SP = ports.QueueingPort, ports.SamplingPort
    tracer.patch(QP, "send", "ports.send", size=_arg(QP.send, "length"), on_error=dropped)
    tracer.patch(QP, "receive", "ports.receive",
                 on_result=_count_if("ports.receive.empty", lambda r: r is None))
    tracer.patch(SP, "write", "ports.sampling_write", size=_arg(SP.write, "length"))
    tracer.patch(SP, "read", "ports.sampling_read", on_result=_count_if(
        "ports.sampling_read.stale",
        lambda r: r is not None and r.validity is ports.Validity.STALE))

    tracer.patch(sched.ProcessTable, "dispatch", "sched.dispatch")
    tracer.patch(harness, "check_deadline", "sched.check_deadline",
                 on_result=_count_if("sched.check_deadline.misses", lambda r: r is not None))
    tracer.patch(sched.TimeModel, "advance", "sched.advance")

    ub_violation = _count_if("ub_checks.violations",
                             lambda r: isinstance(r, ub_checks.UbViolation))
    for fn in ("checked_arith", "checked_div", "checked_shift", "checked_trunc",
               "check_align", "check_nonnull", "check_bool", "check_enum"):
        tracer.patch(harness, fn, "ub_checks", on_result=ub_violation)
