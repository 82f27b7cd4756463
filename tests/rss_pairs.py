"""Peak RSS of the benchmark's one-pass child, for two versions of partsan.

    python tests/rss_pairs.py SRC_A SRC_B --workload W --seed S --pairs N [--json FILE]

SRC_A and SRC_B are the roots of two source checkouts, such as a parent's
and a change's.  The ``src`` and ``perfbench`` directories of each are
copied, without their ``__pycache__`` directories, into a temporary
directory, at paths of equal length.  Each pair runs
``perfbench/run.py --workload W --seed S --rss-child`` once from each copy,
A first in even pairs and B first in odd ones, and reads the child's
``ru_maxrss`` through ``os.wait4``, so no other child counts.  The pairs
run in two settings:

- ``no_bytecode``: ``PYTHONDONTWRITEBYTECODE=1``, so every partsan module is
  compiled from source in every child and its peak follows source size too;
- ``cached``: each copy has a private bytecode cache (``PYTHONPYCACHEPREFIX``),
  filled by one unmeasured child first.

It prints each pair, and per setting the medians, B's median over A's and
how many pairs B wins (a lower peak); ``--json`` also writes them to FILE.
It exits 1 when a child fails or the two versions print different report
digests.
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

SETTINGS = ("no_bytecode", "cached")


def _env(setting, cache):
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("PYTHONPATH", "PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE")
    }
    if setting == "cached":
        env["PYTHONPYCACHEPREFIX"] = str(cache)
    else:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def peak_mib(root, args, env):
    """The report digest one ``--rss-child`` run from ``root`` prints, and
    its peak RSS in MiB."""
    child = subprocess.Popen(
        [sys.executable, str(root / "perfbench" / "run.py"), *args, "--rss-child"],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    with child.stdout:
        out = child.stdout.read()
    # wait4, not wait: the child is reaped here, with its own resource usage
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise SystemExit(f"{root}: --rss-child exited {child.returncode}:\n{out[-2000:]}")
    return out.strip().splitlines()[-1], usage.ru_maxrss / 1024


def measure(roots, args, pairs):
    """Per setting, the (A, B) peaks of each pair, and the digests seen."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        copies = {}
        for label, root in roots.items():
            copies[label] = tmp / label / "tree"
            for part in ("src", "perfbench"):
                shutil.copytree(
                    root / part, copies[label] / part, ignore=shutil.ignore_patterns("__pycache__")
                )
        peaks, digests = {}, set()
        for setting in SETTINGS:
            envs = {label: _env(setting, tmp / label / "cache") for label in roots}
            if setting == "cached":
                for label, copy in copies.items():
                    digests.add(peak_mib(copy, args, envs[label])[0])
            peaks[setting] = []
            for pair in range(pairs):
                order = ("A", "B") if pair % 2 == 0 else ("B", "A")
                got = {}
                for label in order:
                    digest, got[label] = peak_mib(copies[label], args, envs[label])
                    digests.add(digest)
                peaks[setting].append((got["A"], got["B"]))
                print(f"{setting:11} pair {pair}: A {got['A']:.2f} MiB   B {got['B']:.2f} MiB",
                      flush=True)
    return peaks, digests


def summary(peaks):
    rows = {}
    for setting, pairs in peaks.items():
        a = statistics.median(p[0] for p in pairs)
        b = statistics.median(p[1] for p in pairs)
        rows[setting] = {
            "A_median_mib": a,
            "B_median_mib": b,
            "B_over_A": b / a,
            "B_wins": sum(pb < pa for pa, pb in pairs),
            "pairs": len(pairs),
        }
    return rows


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a", type=Path)
    parser.add_argument("src_b", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    roots = {"A": args.src_a.resolve(), "B": args.src_b.resolve()}
    child_args = ["--workload", args.workload, "--seed", str(args.seed)]
    peaks, digests = measure(roots, child_args, args.pairs)
    rows = summary(peaks)
    print(f"{args.workload} seed {args.seed}, A={roots['A']}, B={roots['B']}")
    for setting, row in rows.items():
        print(
            f"{setting:11} median A {row['A_median_mib']:.2f} MiB   B {row['B_median_mib']:.2f} "
            f"MiB   B/A {row['B_over_A']:.4f}   B lower in {row['B_wins']} of {row['pairs']}"
        )
    same = len(digests) == 1
    print("report digests " + ("agree" if same else f"differ: {sorted(digests)}"))
    if args.json is not None:
        result = {
            "python": sys.version.split()[0],
            "workload": args.workload,
            "seed": args.seed,
            "src": {label: str(root) for label, root in roots.items()},
            "peaks_mib": peaks,
            "summary": rows,
            "digests_agree": same,
        }
        args.json.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
