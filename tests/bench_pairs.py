"""Alternating pairs of benchmark runs of two versions of partsan, and the
rule that reads them.

    python tests/bench_pairs.py SRC_A SRC_B --workload W [--seed S] [--pairs N] [--json FILE]

SRC_A (the parent) and SRC_B (the change) are two source checkouts; one
root twice is an A/A run, which shows the noise floor.  Each one's ``src``
is copied, beside SRC_B's ``perfbench`` and without ``__pycache__``, to a
temporary path of equal length.  Each of N pairs (default 10) runs from each
copy, the parent first in even pairs and the change first in odd ones,
``perfbench/run.py --workload W --seed S --seconds T`` (T is the
``run_seconds`` of SRC_B's ``BENCHMARK.json``) with
``PYTHONDONTWRITEBYTECODE=1``, as the benchmark host runs it, keeping its
final JSON line; then one ``--rss-child`` with a private bytecode cache that
an unmeasured child filled, whose peak RSS, read through ``os.wait4``, is
``peak_rss_mib_cached``.

For each ``end_to_end`` metric of that ``BENCHMARK.json``, and for
``peak_rss_mib_cached``, it gives both medians and interquartile ranges
(IQR), the change in per cent, the pairs each side wins (a tie counts for
neither), the median gap over the parent's IQR and one label: ``better`` or
``worse`` when that side wins at least 9 in 10 of the pairs and the gap
exceeds the parent's IQR, else ``unresolved``.  ``--json`` also writes every
run, in run order.  It exits 1 when a run is not correct or failed a
scenario, or when the two versions' report digests differ.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")  # names of equal length, so the copies' paths are too


def environment(cache=None):
    """This process's environment, without ``PYTHONPATH``, for a child whose
    bytecode is cached under ``cache`` or, with no cache, compiled from
    source every time."""
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("PYTHONPATH", "PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE")
    }
    if cache is None:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env["PYTHONPYCACHEPREFIX"] = str(cache)
    return env


def copy_tree(parts, dest):
    """``dest``, holding a copy of each directory of ``parts`` (its name to
    its path) without ``__pycache__`` directories."""
    for name, path in parts.items():
        shutil.copytree(path, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def order(labels, pair):
    """The ``labels`` in order in even pairs (or rounds), reversed in odd ones."""
    labels = list(labels)
    return labels if pair % 2 == 0 else labels[::-1]


def spread(values):
    """Best, median and interquartile range of ``values``."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"best": min(values), "median": statistics.median(values), "iqr": q3 - q1}


def _run(tree, args, env):
    """The exit code and stdout of one ``perfbench/run.py`` child, and its own
    resource usage."""
    child = subprocess.Popen([sys.executable, str(tree / "perfbench" / "run.py"), *args],
                             cwd=tree, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
    with child.stdout:
        out = child.stdout.read()
    # wait4, not wait: the child is reaped here, with its own resource usage
    _, status, usage = os.wait4(child.pid, 0)
    return os.waitstatus_to_exitcode(status), out, usage


def measure(roots, workload, seed, pairs, run_seconds):
    """The runs of ``pairs`` alternating pairs, in run order, and the report
    digests that the ``--rss-child`` runs printed."""
    args = ["--workload", workload, "--seed", str(seed)]
    runs, digests = [], set()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        trees = {
            side: copy_tree({"src": root / "src", "perfbench": roots["change"] / "perfbench"},
                            tmp / side / "tree")
            for side, root in roots.items()
        }
        cached = {side: environment(tmp / side / "cache") for side in roots}

        def rss_child(side):
            code, out, usage = _run(trees[side], [*args, "--rss-child"], cached[side])
            if code != 0:
                raise SystemExit(f"{side}: --rss-child exited {code}:\n{out[-2000:]}")
            digests.add(out.strip())
            return usage.ru_maxrss / 1024

        for side in roots:  # fill the bytecode caches
            rss_child(side)
        for pair in range(pairs):
            for side in order(roots, pair):
                code, out, _ = _run(trees[side], [*args, "--seconds", str(run_seconds)],
                                    environment())
                try:
                    result = json.loads(out.strip().splitlines()[-1])
                except (IndexError, ValueError):
                    raise SystemExit(f"{side}: run.py exited {code}:\n{out[-2000:]}") from None
                runs.append({"pair": pair, "side": side, "result": result,
                             "peak_rss_mib_cached": rss_child(side)})
                print(f"pair {pair} {side}: correct {result['correct']}, "
                      f"failed {result['failed']}", flush=True)
    return runs, digests


def compare(parent, change, better):
    """Statistics and label of one metric's values, pair by pair, where
    ``better`` is ``"lower"`` or ``"higher"``."""
    sign = 1 if better == "higher" else -1
    won = dict.fromkeys(SIDES, 0)
    for a, b in zip(parent, change):
        if a != b:
            won["change" if sign * (b - a) > 0 else "parent"] += 1
    a, b = spread(parent), spread(change)
    gain, iqr = sign * (b["median"] - a["median"]), a["iqr"]
    label = "unresolved"
    if 10 * won["change"] >= 9 * len(parent) and gain > iqr:
        label = "better"
    elif 10 * won["parent"] >= 9 * len(parent) and -gain > iqr:
        label = "worse"
    return {
        "parent_median": a["median"],
        "change_median": b["median"],
        "parent_iqr": iqr,
        "change_iqr": b["iqr"],
        "change_pct": round(100 * (b["median"] / a["median"] - 1), 2),
        "pairs_won": won,
        "gap_over_parent_iqr": round(abs(gain) / iqr, 2) if iqr else None,
        "label": label,
    }


def summary(runs, directions):
    """``compare`` of each metric of ``directions`` (its name to which way
    is better) over ``runs``."""

    def values(side, name):
        return [run[name] if name in run else run["result"]["metrics"][name]["value"]
                for run in runs if run["side"] == side]

    return {name: compare(*(values(side, name) for side in SIDES), better)
            for name, better in directions.items()}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a", type=Path)
    parser.add_argument("src_b", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = dict(zip(SIDES, (args.src_a.resolve(), args.src_b.resolve())))
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    directions = {metric["name"]: metric["better"] for metric in bench["end_to_end"]}
    directions["peak_rss_mib_cached"] = directions["peak_rss_mib"]
    runs, digests = measure(roots, args.workload, args.seed, args.pairs, bench["run_seconds"])
    rows = summary(runs, directions)
    correct = all(run["result"]["correct"] and run["result"]["failed"] == 0 for run in runs)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {bench['run_seconds']} s "
          f"runs, parent={args.src_a}, change={args.src_b}")
    for name, row in rows.items():
        won, gap = row["pairs_won"], row["gap_over_parent_iqr"]
        print(f"  {name:19} parent {row['parent_median']:9.6g} (IQR {row['parent_iqr']:8.3g})  "
              f"change {row['change_median']:9.6g} (IQR {row['change_iqr']:8.3g})  "
              f"{row['change_pct']:+6.2f} %  won {won['parent']}:{won['change']}  "
              f"gap/IQR {gap}  {row['label']}")
    same = len(digests) == 1
    print(f"every run correct with 0 failed: {correct}; report digests "
          + ("agree" if same else f"differ: {sorted(digests)}"))
    if args.json is not None:
        result = {
            "python": sys.version.split()[0],
            "workload": args.workload,
            "seed": args.seed,
            "pairs": args.pairs,
            "run_seconds": bench["run_seconds"],
            "src": {"parent": str(args.src_a), "change": str(args.src_b)},
            "every_run_correct": correct,
            "digests": sorted(digests),
            "summary": rows,
            "runs": runs,
        }
        args.json.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0 if correct and same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
