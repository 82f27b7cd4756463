"""Start-up cost of two versions of partsan, in fresh interpreters.

    python tests/startup.py SRC_A SRC_B [REPEAT] [--json FILE]

SRC_A and SRC_B are two ``src`` directories, such as a parent's and a
change's.  Each is copied without its ``__pycache__`` directories into a
temporary directory.  Each round runs, in a fresh ``python -S`` child and
alternating between A and B, a bare ``pass``, ``import partsan.cli`` and
``-m partsan run-all`` (its report discarded), A first in even rounds and
B first in odd ones, so that an order effect falls on both; each keeps its
wall time in each of REPEAT rounds (default 20).  The rounds run in two
settings:

- ``warm``: each copy has a private bytecode cache (``PYTHONPYCACHEPREFIX``),
  filled by one untimed run of each command;
- ``cold``: ``PYTHONDONTWRITEBYTECODE=1``, so every partsan module is
  compiled from source in every run (the standard library keeps its
  installed bytecode).

Then, warm, the ``-X importtime`` self time of each ``partsan`` module,
best of REPEAT.  It prints each command's best time, median and
interquartile range (IQR); for the two partsan commands, the best time
above a bare interpreter of A and of B, and the median and IQR of B - A
over the rounds, each round's A and B run one right after the other.  A
best of 20 read a version against itself at up to +1.2 ms on a shared
host; the median of the paired differences is the figure to quote for a
difference near 1 ms, with its IQR beside it.  ``--json`` also writes the
results to FILE.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import copy_tree, environment, order, spread

COMMANDS = {
    "bare": ["-c", "pass"],
    "import": ["-c", "import partsan.cli"],
    "run_all": ["-m", "partsan", "run-all"],
}
SETTINGS = ("warm", "cold")


def _run(args, env, cwd):
    """Seconds one ``python -S`` child takes, and its standard error."""
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-S", *args],
        env=env,
        cwd=cwd,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit(f"python -S {' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    return elapsed, done.stderr


def _self_times(stderr):
    """Microseconds of self time per ``partsan`` module in ``-X importtime`` output."""
    times = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            own, _, name = line[len("import time:") :].split("|")
            name = name.strip()
            if name.split(".")[0] == "partsan":
                times[name] = int(own)
    return times


def measure(srcs, repeat):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        copies = {
            label: copy_tree({"src": src}, tmp / label) / "src" for label, src in srcs.items()
        }
        samples = {
            setting: {label: {name: [] for name in COMMANDS} for label in srcs}
            for setting in SETTINGS
        }
        for setting in SETTINGS:
            envs = {
                label: {**environment(tmp / label / "cache" if setting == "warm" else None),
                        "PYTHONPATH": str(copy)}
                for label, copy in copies.items()
            }
            for label in srcs:  # fill the warm caches; check every command runs
                for args in COMMANDS.values():
                    _run(args, envs[label], tmp)
            for round_ in range(repeat):
                for name, args in COMMANDS.items():
                    for label in order(srcs, round_):
                        elapsed, _ = _run(args, envs[label], tmp)
                        samples[setting][label][name].append(elapsed)
        modules = {label: {} for label in srcs}
        for round_ in range(repeat):
            for label in order(srcs, round_):
                env = {**environment(tmp / label / "cache"), "PYTHONPATH": str(copies[label])}
                _, stderr = _run(["-X", "importtime", *COMMANDS["import"]], env, tmp)
                for name, own in _self_times(stderr).items():
                    modules[label][name] = min(modules[label].get(name, own), own)
    return samples, modules


def summary(samples):
    """Per setting, each partsan command's best time above a bare
    interpreter's, for each version, B's over A's, and the spread of the
    per-round differences B - A."""
    above = {}
    for setting, times in samples.items():
        above[setting] = {}
        for name in ("import", "run_all"):
            a, b = (min(times[label][name]) - min(times[label]["bare"]) for label in times)
            diffs = [tb - ta for ta, tb in zip(times["A"][name], times["B"][name])]
            above[setting][name] = {"A": a, "B": b, "B_over_A": b / a, "B_minus_A": spread(diffs)}
    return above


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a", type=Path)
    parser.add_argument("src_b", type=Path)
    parser.add_argument("repeat", type=int, nargs="?", default=20)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    srcs = {"A": args.src_a.resolve(), "B": args.src_b.resolve()}
    repeat = args.repeat
    samples, modules = measure(srcs, repeat)
    above = summary(samples)
    print(f"python -S, {repeat} rounds, A={srcs['A']} and B={srcs['B']}, "
          "each first in every other round; ms as best / median / IQR")
    for setting in SETTINGS:
        for name in COMMANDS:
            a, b = (spread(samples[setting][label][name]) for label in srcs)
            print(
                f"{setting:5} {name:8} A {a['best'] * 1e3:7.2f} / {a['median'] * 1e3:7.2f} / "
                f"{a['iqr'] * 1e3:5.2f}   B {b['best'] * 1e3:7.2f} / {b['median'] * 1e3:7.2f} / "
                f"{b['iqr'] * 1e3:5.2f}"
            )
        for name, row in above[setting].items():
            diff = row["B_minus_A"]
            print(
                f"{setting:5} {name:8} above bare: A {row['A'] * 1e3:7.2f} ms   "
                f"B {row['B'] * 1e3:7.2f} ms   B/A {row['B_over_A']:.3f}   "
                f"B - A median {diff['median'] * 1e3:+.2f} ms, IQR {diff['iqr'] * 1e3:.2f} ms"
            )
    print("import partsan.cli, -X importtime self time (us), warm:")
    for name in sorted(modules["A"].keys() | modules["B"].keys()):
        a, b = (modules[label].get(name, "-") for label in srcs)
        print(f"  {name:32} A {a:>7}   B {b:>7}")
    if args.json is not None:
        result = {
            "python": sys.version.split()[0],
            "repeat": repeat,
            "src": {label: str(src) for label, src in srcs.items()},
            "samples_s": samples,
            "above_bare_s": above,
            "importtime_self_us": modules,
        }
        args.json.write_text(json.dumps(result, indent=2) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
