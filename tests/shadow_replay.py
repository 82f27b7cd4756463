"""The ``InitShadow`` call stream of two benchmark workloads, recorded once
and replayed on any version of partsan, for timing the shadow on its own.

    PYTHONPATH=src python tests/shadow_replay.py record FILE
    python tests/shadow_replay.py time FILE SRC_A SRC_B [REPEAT]

``record`` runs one pass of the ``step_mix`` and of the ``big_partition``
workload of ``perfbench/workloads.py`` (seed 1) and writes, in order, every
``InitShadow`` construction and every outermost call of its public methods,
as JSON.  ``time`` imports the ``InitShadow`` of each of two ``src``
directories, such as a parent's and a change's, into this one process,
each under its own ``sys.modules`` entries, and replays each stream on
both alternately, A first in even rounds and B first in odd ones, after
one untimed replay each.  It prints each version's best of REPEAT rounds
(default 7) and B's time over A's.  Whole-run timings of ``step_mix``
drift by more than the shadow's share of them on a shared host, and
timings of separate processes are bimodal; the replay times that share
alone, on the same calls, in one process.
"""

from __future__ import annotations

import inspect
import json
import sys
from functools import partial
from pathlib import Path

from load_ratio import VERSIONS, _seconds, import_version

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
    A construction with origin runs is recorded as one without them and a
    ``set_uninitialized`` of each run, which leave the same shadow, so that
    every version can replay it.
    A call that raises, or that a recorded call makes itself, is not
    recorded."""
    from partsan import harness, scenario
    from partsan.msan_shadow import InitShadow

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
                partition_id, size, origins, runs = values
                if origins is not None:
                    origins = tables.setdefault(id(origins), (len(tables), origins))[0]
                shadows[id(self)] = (len(shadows), self)
                calls.append([None, name, partition_id, size, origins])
                calls.extend(
                    [len(shadows) - 1, "set_uninitialized", start, end - start, origin]
                    for start, end, origin in runs
                )
                return result
            if name == "snapshot":
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


def prepared(calls, use_site=str):
    """``calls`` as ``(shadow, method, arguments, keep)`` tuples ready to
    run, each use site made by ``use_site`` from its recorded value (a
    version whose use sites are members of an enum passes the enum):
    ``keep`` says on a ``snapshot`` whether it is ever written, and on an
    ``apply_snapshot`` whether its snapshot is written again later."""
    last_use = {}
    for index, (_, name, *values) in enumerate(calls):
        if name == "apply_snapshot":
            last_use[values[1]] = index
    stream, snapshot_count = [], 0
    for index, (shadow, name, *values) in enumerate(calls):
        keep = None
        if name == "check":
            values[2] = use_site(values[2])
        elif name == "snapshot":
            keep = snapshot_count in last_use
            snapshot_count += 1
        elif name == "apply_snapshot":
            keep = last_use[values[1]] != index
        stream.append((shadow, name, tuple(values), keep))
    return stream


def replay(stream, shadow_class=None):
    """Runs a ``prepared`` stream on ``shadow_class``, the importable
    ``InitShadow`` unless given; returns the shadows it built."""
    if shadow_class is None:
        from partsan.msan_shadow import InitShadow as shadow_class
    shadows, tables, snapshots, taken_count = [], {}, {}, 0
    for shadow, name, values, keep in stream:
        if name == "__init__":
            partition_id, size, table = values
            if table is not None:
                table = tables.setdefault(table, ([None], {}))
            shadows.append(shadow_class(partition_id, size, table))
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


def time_streams(path, srcs, repeat=7):
    versions = {}
    for label, src in zip(VERSIONS, srcs):
        msan_shadow, violations = import_version(
            Path(src).resolve(), "partsan.msan_shadow", "partsan.violations"
        )
        versions[label] = msan_shadow.InitShadow, getattr(violations, "UseSite", str)
    streams = json.loads(Path(path).read_text())
    for name, calls in streams.items():
        runs = {label: (partial(replay, shadow_class=shadow_class), [prepared(calls, use_site)])
                for label, (shadow_class, use_site) in versions.items()}
        for run in runs.values():
            _seconds(*run)
        best = dict.fromkeys(VERSIONS, float("inf"))
        for round_ in range(repeat):
            for label in VERSIONS if round_ % 2 == 0 else VERSIONS[::-1]:
                best[label] = min(best[label], _seconds(*runs[label]))
        print(f"{name}: {len(calls)} calls, best of {repeat}: A {best['A']:.6f} s, "
              f"B {best['B']:.6f} s, B/A {best['B'] / best['A']:.3f}", flush=True)


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "record":
        record(sys.argv[2])
    elif len(sys.argv) in (5, 6) and sys.argv[1] == "time":
        time_streams(sys.argv[2], sys.argv[3:5], *map(int, sys.argv[5:]))
    else:
        sys.exit(__doc__)
