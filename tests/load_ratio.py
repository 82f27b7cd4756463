"""Scenario load time over ``json.loads`` time, and build time, for two
versions of partsan.

    python tests/load_ratio.py SRC_A SRC_B [--seed S] [--repeat N] [--json FILE]

SRC_A and SRC_B are two ``src`` directories, such as a parent's and a
change's.  Each workload of ``perfbench/workloads.py`` is generated at seed
S (default 1).  Both versions are imported into this one process, each
under its own ``sys.modules`` entries, and timed alternately in rounds:
``json.loads`` of every text of the workload, then, by A and by B, A first
in even rounds and B first in odd ones, ``load_scenario_text`` of every
text and ``Simulator(...)`` of every scenario that version loaded.  Each
keeps its best of N rounds (default 7), after one untimed round that lets
each version's lazy set-up finish.  It prints the seconds, each version's
ratio of its load to ``json.loads``, and B's load and build times over A's;
``--json`` also writes them to FILE.

Timings of separate processes on a shared host are bimodal, so two
versions are compared here inside one process, not in one process each.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import sys
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
VERSIONS = ("A", "B")


def _own_modules():
    return {name for name in sys.modules if name == "partsan" or name.startswith("partsan.")}


def import_version(src, *names):
    """The modules ``names`` (such as ``"partsan.harness"``) of the tree at
    ``src``, in order, imported under fresh ``sys.modules`` entries that are
    then taken out again, so a second version can be imported beside them."""
    before = {name: sys.modules.pop(name) for name in _own_modules()}
    sys.path.insert(0, str(src))
    try:
        return [importlib.import_module(name) for name in names]
    finally:
        sys.path.remove(str(src))
        for name in _own_modules():
            del sys.modules[name]
        sys.modules.update(before)


def _seconds(call, items):
    gc.collect()
    t0 = time.perf_counter()
    for item in items:
        call(item)
    return time.perf_counter() - t0


def measure(versions, texts, repeat):
    """Best seconds of ``json.loads`` over ``texts``, and of each version's
    load of them and build of the scenarios it loaded, as ``json``,
    ``A_load``, ``A_build`` and so on."""
    loaded = {}
    for label, (load, build) in versions.items():
        loaded[label] = [load(text) for text in texts]
        for scenario in loaded[label]:
            build(scenario)
    best = {"json": float("inf")}
    for round_ in range(repeat):
        order = VERSIONS if round_ % 2 == 0 else VERSIONS[::-1]
        best["json"] = min(best["json"], _seconds(json.loads, texts))
        for label in order:
            load, build = versions[label]
            for key, seconds in (("load", _seconds(load, texts)),
                                 ("build", _seconds(build, loaded[label]))):
                key = f"{label}_{key}"
                best[key] = min(best.get(key, seconds), seconds)
    return best


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a", type=Path)
    parser.add_argument("src_b", type=Path)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=7)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    srcs = {"A": args.src_a.resolve(), "B": args.src_b.resolve()}
    versions = {}
    for label, src in srcs.items():
        scenario, harness = import_version(src, "partsan.scenario", "partsan.harness")
        versions[label] = scenario.load_scenario_text, harness.Simulator

    # the generators read the builtins through the package: give them A's
    saved = {name: sys.modules.pop(name) for name in _own_modules()}
    sys.path[:0] = [str(srcs["A"]), str(PERFBENCH)]
    try:
        import workloads

        texts = {name: generate(args.seed) for name, generate in workloads.GENERATORS.items()}
    finally:
        del sys.path[:2]
        for name in _own_modules():
            del sys.modules[name]
        sys.modules.update(saved)

    print(f"in process, best of {args.repeat}, seed {args.seed}, "
          f"A={srcs['A']} and B={srcs['B']} alternating")
    rows = {}
    for name, workload in texts.items():
        best = measure(versions, workload, args.repeat)
        rows[name] = row = {
            "scenarios": len(workload),
            "best_s": best,
            "A_over_json": best["A_load"] / best["json"],
            "B_over_json": best["B_load"] / best["json"],
            "load_B_over_A": best["B_load"] / best["A_load"],
            "build_B_over_A": best["B_build"] / best["A_build"],
        }
        print(
            f"{name:14} json {best['json']:.4f} s\n"
            f"  load   A {best['A_load']:.4f} s ({row['A_over_json']:.2f}x)   "
            f"B {best['B_load']:.4f} s ({row['B_over_json']:.2f}x)   "
            f"B/A {row['load_B_over_A']:.3f}\n"
            f"  build  A {best['A_build']:.4f} s   B {best['B_build']:.4f} s   "
            f"B/A {row['build_B_over_A']:.3f}",
            flush=True,
        )
    if args.json is not None:
        result = {"python": sys.version.split()[0], "seed": args.seed, "repeat": args.repeat,
                  "src": {label: str(src) for label, src in srcs.items()}, "workloads": rows}
        args.json.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
