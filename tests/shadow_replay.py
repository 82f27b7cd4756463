"""The ``InitShadow`` call stream of two benchmark workloads, recorded once
and replayed on any version of partsan, for timing the shadow on its own.

    PYTHONPATH=src python tests/shadow_replay.py record FILE
    PYTHONPATH=<src of a version> python tests/shadow_replay.py time FILE [REPEAT]

``record`` runs one pass of the ``step_mix`` and of the ``big_partition``
workload of ``perfbench/workloads.py`` (seed 1) and writes, in order, every
``InitShadow`` construction and every outermost call of its public methods,
as JSON.  ``time`` replays each stream on the partsan that is importable,
best of REPEAT (default 7), and prints its seconds.  Whole-run timings of
``step_mix`` drift by more than the shadow's share of them on a shared
host; the replay times that share alone, on the same calls, so that two
versions can be compared by running ``time`` alternately with each one's
``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from pathlib import Path

from partsan import harness, scenario
from partsan.msan_shadow import InitShadow
from partsan.violations import UseSite

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("step_mix", "big_partition")
SEED = 1
METHODS = (
    "set_uninitialized",
    "mark_initialized",
    "check",
    "snapshot",
    "apply_snapshot",
    "origin_at",
    "is_initialized",
)


def recorded(texts):
    """The calls that running ``texts`` makes on ``InitShadow``, and the
    shadows it built.

    Each call is ``[shadow, method, *arguments]``, every argument by
    position: a shadow is its construction index, a construction's origin
    table is its index among the tables passed (or None), a use site is its
    value, and ``apply_snapshot`` names the index of the snapshot it writes.
    A call that raises, or that a recorded call makes itself, is not
    recorded."""
    calls, shadows, tables, snapshots = [], {}, {}, {}
    depth = 0

    def wrap(name, original):
        signature = inspect.signature(original)

        def wrapper(self, *args, **kwargs):
            nonlocal depth
            depth += 1
            try:
                result = original(self, *args, **kwargs)
            finally:
                depth -= 1
            if depth:
                return result
            bound = signature.bind(self, *args, **kwargs)
            bound.apply_defaults()
            values = list(bound.arguments.values())[1:]
            if name == "__init__":
                origins = values[2]
                if origins is not None:
                    values[2] = tables.setdefault(id(origins), (len(tables), origins))[0]
                shadows[id(self)] = (len(shadows), self)
                calls.append([None, name, *values])
                return result
            if name == "check":
                values[2] = values[2].value
            elif name == "snapshot":
                snapshots[id(result[1])] = (len(snapshots), result[1])
            elif name == "apply_snapshot":
                values[1:] = [snapshots[id(values[2])][0]]
            calls.append([shadows[id(self)][0], name, *values])
            return result

        return wrapper

    originals = {name: vars(InitShadow)[name] for name in ("__init__", *METHODS)}
    try:
        for name, original in originals.items():
            setattr(InitShadow, name, wrap(name, original))
        for text in texts:
            harness.Simulator(scenario.load_scenario_text(text)).run()
    finally:
        for name, original in originals.items():
            setattr(InitShadow, name, original)
    return calls, [shadow for _, shadow in shadows.values()]


def record(path):
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    streams = {name: recorded(workloads.GENERATORS[name](SEED))[0] for name in WORKLOADS}
    Path(path).write_text(json.dumps(streams))
    for name, calls in streams.items():
        print(f"{name}: {len(calls)} calls")


def prepared(calls):
    """``calls`` as ``(shadow, method, arguments, keep)`` tuples ready to
    run: ``keep`` says on a ``snapshot`` whether it is ever written, and on
    an ``apply_snapshot`` whether its snapshot is written again later."""
    last_use = {}
    for index, (_, name, *values) in enumerate(calls):
        if name == "apply_snapshot":
            last_use[values[1]] = index
    stream, snapshot_count = [], 0
    for index, (shadow, name, *values) in enumerate(calls):
        keep = None
        if name == "check":
            values[2] = UseSite(values[2])
        elif name == "snapshot":
            keep = snapshot_count in last_use
            snapshot_count += 1
        elif name == "apply_snapshot":
            keep = last_use[values[1]] != index
        stream.append((shadow, name, tuple(values), keep))
    return stream


def replay(stream):
    """Runs a ``prepared`` stream; returns the shadows it built."""
    shadows, tables, snapshots, taken_count = [], {}, {}, 0
    for shadow, name, values, keep in stream:
        if name == "__init__":
            partition_id, size, table = values
            if table is not None:
                table = tables.setdefault(table, ([None], {}))
            shadows.append(InitShadow(partition_id, size, table))
        elif name == "snapshot":
            taken = shadows[shadow].snapshot(*values)
            if keep:
                snapshots[taken_count] = taken
            taken_count += 1
        elif name == "apply_snapshot":
            start, number = values
            taken = snapshots[number] if keep else snapshots.pop(number)
            shadows[shadow].apply_snapshot(start, *taken)
        else:
            getattr(shadows[shadow], name)(*values)
    return shadows


def state(shadow):
    """A shadow's per-byte bits, per-byte origin labels and check count, read
    through methods every version has."""
    bits, _ = shadow.snapshot(0, shadow.size)
    origins = [shadow.origin_at(i) for i in range(shadow.size)]
    return bytes(bits), origins, shadow.checks_performed


def time_streams(path, repeat=7):
    streams = json.loads(Path(path).read_text())
    for name, calls in streams.items():
        stream = prepared(calls)
        best = float("inf")
        for _ in range(repeat):
            t0 = time.perf_counter()
            replay(stream)
            best = min(best, time.perf_counter() - t0)
        print(f"{name}: {len(calls)} calls, best of {repeat} {best:.6f} s")


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "record":
        record(sys.argv[2])
    elif len(sys.argv) in (3, 4) and sys.argv[1] == "time":
        time_streams(sys.argv[2], *map(int, sys.argv[3:]))
    else:
        sys.exit(__doc__)
