"""The per-layer counts of two traced benchmark runs, compared.

    python3 perfbench/run.py --workload W --seed S --trace 1 > a.txt
    python3 perfbench/run.py --workload W --seed S --trace 1 > b.txt
    python tests/trace_counts.py a.txt b.txt

Each file holds the stdout of one ``--trace 1`` run (its final line, the
JSON summary, is all that is read), A as the parent and B as the change.
Every metric whose unit is not ``s`` is fixed by the workload and the seed:
calls, bytes, ticks, violations and ratios of them.  The script prints each
of these that differs, or is in one run only, as ``name: A -> B unit``, then
how many it compared, and exits 1 if any differs.  Times are left out.
"""

from __future__ import annotations

import json
import sys


def summary(path) -> dict:
    """The metrics of the JSON object on the final non-empty line of ``path``."""
    with open(path, encoding="utf-8") as file:
        lines = [line for line in file.read().splitlines() if line.strip()]
    return json.loads(lines[-1])["metrics"]


def counts(metrics: dict) -> dict:
    """Name to (value, unit) of every metric not measured in seconds."""
    return {
        name: (metric["value"], metric["unit"])
        for name, metric in metrics.items()
        if metric["unit"] != "s"
    }


def compare(a: dict, b: dict) -> list[str]:
    """One line per count that differs between the metrics ``a`` and ``b``,
    in the order of ``a`` and then of the names only ``b`` has."""
    a, b = counts(a), counts(b)
    lines = []
    for name in [*a, *(name for name in b if name not in a)]:
        (va, unit), (vb, unit_b) = a.get(name, (None, None)), b.get(name, (None, None))
        if va != vb:
            lines.append(f"{name}: {va} -> {vb} {unit or unit_b}")
    return lines


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = map(summary, argv)
    lines = compare(a, b)
    for line in lines:
        print(line)
    print(f"{len(counts(a).keys() | counts(b).keys())} non-timing metrics, {len(lines)} differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
