"""Seeded random scheduling scenarios, for comparing two versions of partsan.

    PYTHONPATH=<src of version A> python tests/schedule_differential.py record a.json
    PYTHONPATH=<src of version B> python tests/schedule_differential.py record b.json
    PYTHONPATH=<src of version B> python tests/schedule_differential.py compare a.json b.json

``record`` draws 2,000 scenarios from one seed.  Each has two partitions:
the first with 1-3 processes, the second with 0-3, with random priorities,
capacities, periods and timeout-override multipliers; random check costs;
a slowdown of 1, "3/2", "7/3" or "1e0"; and a workload of IDLE (up to
10**6 ticks), RESET_PARTITION, ALLOC, START_PARTITION, memory, copy,
checked-arithmetic and GET_MY_ID steps.  It stores each scenario's outcome:
the load error's pointer and message, the run error, or the digests of the
text and JSON reports and the number of DEADLINE_MISS events.  ``compare``
reads A as the parent and B as the change, prints the counts and exits 1
unless every scenario has the same outcome under both.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from collections import Counter

SEED = 653
COUNT = 2000
SLOWDOWNS = (1, "3/2", "7/3", "1e0")
MULTIPLIERS = (1, "3/2", "7/3", 2, "5/4")
MEMORY_SIZE = 256


def _processes(rng, count):
    processes = []
    for process_id in range(1, count + 1):
        capacity = rng.randint(1, 40)
        process = {"id": process_id, "priority": rng.randint(0, 3), "time_capacity": capacity}
        if rng.random() < 0.6:
            process["period"] = capacity + rng.randint(0, 60)
        processes.append(process)
    return processes


def _where(rng, allocated):
    """A location in ``buf`` when it is allocated, an absolute offset otherwise."""
    if allocated:
        return {"region": "buf", "offset": rng.randint(0, 20)}
    return {"offset": rng.randint(0, MEMORY_SIZE - 8)}


def _workload(rng, partitions):
    started = {p["id"]: p["auto_start"] for p in partitions}
    allocated = {p["id"]: True for p in partitions}
    steps = []
    for _ in range(rng.randint(5, 40)):
        pid = rng.choice((1, 2))
        roll = rng.random()
        if roll < 0.15:
            ticks = rng.choice((0, 1, rng.randint(2, 100), rng.randint(0, 10**6)))
            steps.append({"op": "IDLE", "ticks": ticks})
        elif roll < 0.2:
            steps.append({"op": "RESET_PARTITION", "partition": pid})
            started[pid] = allocated[pid] = False
        elif not started[pid] and roll < 0.5:
            if allocated[pid]:
                steps.append({"op": "START_PARTITION", "partition": pid})
                started[pid] = True
            else:
                size = rng.randint(8, 16)
                steps.append({"op": "ALLOC", "partition": pid, "label": "buf", "size": size})
                allocated[pid] = True
        elif roll < 0.45:
            data = bytes(rng.randrange(256) for _ in range(rng.randint(1, 4))).hex()
            steps.append({"op": "WRITE", "partition": pid, **_where(rng, allocated[pid]),
                          "data": data})
        elif roll < 0.6:
            op = rng.choice(("READ", "BRANCH_ON"))
            steps.append({"op": op, "partition": pid, **_where(rng, allocated[pid]),
                          "len": rng.randint(1, 4)})
        elif roll < 0.7:
            src, dst = _where(rng, allocated[pid]), _where(rng, allocated[pid])
            steps.append({
                "op": "COPY", "partition": pid, "len": rng.randint(1, 4),
                **{f"src_{k}": v for k, v in src.items()},
                **{f"dst_{k}": v for k, v in dst.items()},
            })
        elif roll < 0.9:
            a = _where(rng, allocated[pid]) if rng.random() < 0.5 else rng.randint(0, 100)
            steps.append({"op": "ARITH", "partition": pid,
                          "arith": rng.choice(("ADD", "SUB", "MUL")),
                          "type": rng.choice(("u8", "i8", "i32")), "a": a,
                          "b": rng.randint(0, 100), "strict": rng.random() < 0.5})
        else:
            steps.append({"op": "GET_MY_ID", "partition": pid, "caller": "main"})
    return steps


def _scenario(rng, index):
    partitions, overrides = [], []
    for pid, count in ((1, rng.randint(1, 3)), (2, rng.randint(0, 3))):
        processes = _processes(rng, count)
        partitions.append({
            "id": pid,
            "memory_size": MEMORY_SIZE,
            "auto_start": rng.random() < 0.8,
            "regions": [{"label": "buf", "size": 16}],
            "processes": processes,
        })
        for process in processes:
            if rng.random() < 0.4:
                overrides.append({"partition": pid, "process": process["id"],
                                  "multiplier": rng.choice(MULTIPLIERS)})
    costs = {key: rng.randint(0, 3)
             for key in ("base_step", "asan_check", "msan_check", "ub_check")}
    return {
        "name": f"schedule-{index}",
        "partitions": partitions,
        "time": {"slowdown_factor": rng.choice(SLOWDOWNS), "costs": costs,
                 "timeout_overrides": overrides},
        "workload": _workload(rng, partitions),
    }


def scenarios():
    """Yield (id, document) for every scenario, in a fixed order."""
    rng = random.Random(SEED)
    for index in range(COUNT):
        yield str(index), _scenario(rng, index)


def outcome(doc):
    from partsan.errors import ConfigError
    from partsan.harness import Simulator, render_report
    from partsan.scenario import load_scenario

    try:
        scenario = load_scenario(doc)
    except ConfigError as exc:
        return {"load_error": exc.path, "message": exc.message}
    try:
        report = Simulator(scenario).run()
    except Exception as exc:  # noqa: BLE001 - any escape is an outcome
        return {"run_error": type(exc).__name__, "message": str(exc)}
    return {
        fmt: hashlib.sha256(render_report(report, fmt).encode()).hexdigest()
        for fmt in ("text", "json")
    } | {"deadline_misses": sum(e.kind == "DEADLINE_MISS" for e in report.events)}


def record(out_path):
    results = {scenario_id: outcome(doc) for scenario_id, doc in scenarios()}
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(results, handle)


def compare(parent_path, change_path):
    with open(parent_path, encoding="utf-8") as handle:
        parent = json.load(handle)
    with open(change_path, encoding="utf-8") as handle:
        change = json.load(handle)
    counts, failures = Counter(), []
    for scenario_id, old in parent.items():
        new = change.get(scenario_id)
        if new != old:
            failures.append((scenario_id, old, new))
        elif "load_error" in old:
            counts["load error identical"] += 1
        elif "run_error" in old:
            counts[f"run error identical ({old['run_error']})"] += 1
        else:
            counts["report identical"] += 1
            counts["reports with a DEADLINE_MISS"] += old["deadline_misses"] > 0
    for key in sorted(counts):
        print(f"{counts[key]:6d}  {key}")
    for scenario_id, old, new in failures[:20]:
        print(f"FAIL {scenario_id}\n  parent {old}\n  change {new}")
    print(f"{len(parent)} scenarios, {len(failures)} failures")
    return 1 if failures or len(change) != len(parent) else 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "record":
        record(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
