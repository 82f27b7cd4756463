"""Start-up cost of two versions of partsan, in fresh interpreters.

    python tests/startup.py SRC_A SRC_B [REPEAT] [--json FILE]

SRC_A and SRC_B are two ``src`` directories, such as a parent's and a
change's.  Each is copied without its ``__pycache__`` directories into a
temporary directory.  Each round runs, in a fresh ``python -S`` child and
alternating between A and B, a bare ``pass``, ``import partsan.cli`` and
``-m partsan run-all`` (its report discarded); each keeps its best wall time
of REPEAT rounds (default 20).  The rounds run in two settings:

- ``warm``: each copy has a private bytecode cache (``PYTHONPYCACHEPREFIX``),
  filled by one untimed run of each command;
- ``cold``: ``PYTHONDONTWRITEBYTECODE=1``, so every partsan module is
  compiled from source in every run (the standard library keeps its
  installed bytecode).

Then, warm, the ``-X importtime`` self time of each ``partsan`` module,
best of REPEAT.  It prints each best time and, for the two partsan
commands, the time above a bare interpreter of A and of B; ``--json``
also writes them to FILE.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

COMMANDS = {
    "bare": ["-c", "pass"],
    "import": ["-c", "import partsan.cli"],
    "run_all": ["-m", "partsan", "run-all"],
}
SETTINGS = ("warm", "cold")


def _env(src, setting, cache):
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("PYTHONPATH", "PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE")
    }
    env["PYTHONPATH"] = str(src)
    if setting == "warm":
        env["PYTHONPYCACHEPREFIX"] = str(cache)
    else:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


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
        copies = {}
        for label, src in srcs.items():
            copies[label] = tmp / label / "src"
            shutil.copytree(src, copies[label], ignore=shutil.ignore_patterns("__pycache__"))
        best = {
            setting: {label: dict.fromkeys(COMMANDS, float("inf")) for label in srcs}
            for setting in SETTINGS
        }
        for setting in SETTINGS:
            envs = {
                label: _env(copy, setting, tmp / label / "cache") for label, copy in copies.items()
            }
            for label in srcs:  # fill the warm caches; check every command runs
                for args in COMMANDS.values():
                    _run(args, envs[label], tmp)
            for _ in range(repeat):
                for name, args in COMMANDS.items():
                    for label in srcs:
                        elapsed, _ = _run(args, envs[label], tmp)
                        best[setting][label][name] = min(best[setting][label][name], elapsed)
        modules = {label: {} for label in srcs}
        for _ in range(repeat):
            for label, copy in copies.items():
                env = _env(copy, "warm", tmp / label / "cache")
                _, stderr = _run(["-X", "importtime", *COMMANDS["import"]], env, tmp)
                for name, own in _self_times(stderr).items():
                    modules[label][name] = min(modules[label].get(name, own), own)
    return best, modules


def summary(best):
    """Per setting, each partsan command's best time above a bare
    interpreter's, for each version, and B's over A's."""
    above = {}
    for setting, times in best.items():
        above[setting] = {}
        for name in ("import", "run_all"):
            a, b = (times[label][name] - times[label]["bare"] for label in times)
            above[setting][name] = {"A": a, "B": b, "B_over_A": b / a}
    return above


def main(argv):
    out = None
    if "--json" in argv:
        i = argv.index("--json")
        out = argv[i + 1]
        argv = argv[:i] + argv[i + 2 :]
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    srcs = {"A": Path(argv[0]).resolve(), "B": Path(argv[1]).resolve()}
    repeat = int(argv[2]) if len(argv) == 3 else 20
    best, modules = measure(srcs, repeat)
    above = summary(best)
    print(f"python -S, best of {repeat}, alternating A={srcs['A']} and B={srcs['B']}")
    for setting in SETTINGS:
        for name in COMMANDS:
            a, b = (best[setting][label][name] for label in srcs)
            print(f"{setting:5} {name:8} A {a * 1e3:8.2f} ms   B {b * 1e3:8.2f} ms")
        for name, row in above[setting].items():
            print(
                f"{setting:5} {name:8} above bare: A {row['A'] * 1e3:7.2f} ms   "
                f"B {row['B'] * 1e3:7.2f} ms   B/A {row['B_over_A']:.3f}"
            )
    print("import partsan.cli, -X importtime self time (us), warm:")
    for name in sorted(modules["A"].keys() | modules["B"].keys()):
        a, b = (modules[label].get(name, "-") for label in srcs)
        print(f"  {name:32} A {a:>7}   B {b:>7}")
    if out is not None:
        result = {
            "python": sys.version.split()[0],
            "repeat": repeat,
            "src": {label: str(src) for label, src in srcs.items()},
            "best_s": best,
            "above_bare_s": above,
            "importtime_self_us": modules,
        }
        Path(out).write_text(json.dumps(result, indent=2) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
