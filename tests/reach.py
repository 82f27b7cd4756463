"""The functions and statement lines of ``src/partsan`` that no run reaches.

    python tests/reach.py

Runs these under a ``sys.settrace`` line tracer, with the package of this
checkout's ``src/``:

- every scenario of the benchmark's three workloads at seeds 1 and 4242,
  each from JSON text to rendered report, as ``perfbench/run.py`` runs them;
- the builtin scenarios, the same way;
- the outcome of every scenario of ``schedule_differential.py`` and of every
  mutant of ``mutation_differential.py``.

Then it prints, per source file in line order, each function that none of
them called, as ``path:line qualname (never called)``, and each statement
line of a called function that none of them ran, as ``path:line qualname:
source``.  Module and class bodies run at import and are left out.  What it
prints is reached by no workload and no corpus, at most by a test.  The
line tracer makes the runs several times slower; all of them take about a
minute.
"""

from __future__ import annotations

import functools
import inspect
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "partsan"
SEEDS = (1, 4242)
WORKLOADS = ("campaign", "step_mix", "big_partition")


def _import(name):
    """A module of this checkout: ``partsan`` from ``src/``, the benchmark's
    ``workloads`` from ``perfbench/``, a script from this directory."""
    for path in (HERE, ROOT / "perfbench", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    return __import__(name)


def _render_each(texts):
    """Every scenario text from load to rendered report."""
    from partsan.harness import Simulator, render_report
    from partsan.scenario import load_scenario_text

    for text in texts:
        render_report(Simulator(load_scenario_text(text)).run())


def builtins():
    _render_each(_import("workloads").builtin_texts())


def workloads():
    generators = _import("workloads").GENERATORS
    for name in WORKLOADS:
        for seed in SEEDS:
            _render_each(generators[name](seed))


def schedule_corpus():
    corpus = _import("schedule_differential")
    for _, doc in corpus.scenarios():
        corpus.outcome(doc)


def mutation_corpus():
    corpus = _import("mutation_differential")
    for _, doc in corpus.mutants():
        corpus.outcome(doc)


RUNS = (workloads, builtins, schedule_corpus, mutation_corpus)


def _functions():
    """(path, code object) of every function, lambda and comprehension in
    the package's sources, nested ones included."""
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
            if code.co_flags & inspect.CO_OPTIMIZED:
                yield path, code


def unreached(runs=RUNS) -> list[tuple[str, int, str, bool]]:
    """``(path, line, qualname, never_called)`` for each function that none
    of the callables ``runs`` calls and each line of a called function that
    none of them runs, sorted, with ``path`` relative to the checkout.  A
    function that runs only at import counts as called only when the
    package is first imported here, as it is when this file runs as a script."""
    paths: dict[str, Path | None] = {}  # co_filename -> its source, if in the package
    called, ran = set(), set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((paths[frame.f_code.co_filename], frame.f_lineno))
        return local

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in paths:
            path = Path(code.co_filename).resolve()
            paths[code.co_filename] = path if path.parent == PACKAGE else None
        path = paths[code.co_filename]
        if path is None:
            return None
        called.add((path, code.co_firstlineno, code.co_name))
        return local

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        _import("partsan")
        for run in runs:
            run()
    finally:
        sys.settrace(previous)
    imported = Path(sys.modules["partsan"].__file__).resolve().parent
    if imported != PACKAGE:
        raise SystemExit(f"partsan imported from {imported}, not from {PACKAGE}")

    found = []
    for path, code in _functions():
        where = str(path.relative_to(ROOT))
        qualname = getattr(code, "co_qualname", code.co_name)
        if (path, code.co_firstlineno, code.co_name) not in called:
            found.append((where, code.co_firstlineno, qualname, True))
            continue
        lines = {line for _, _, line in code.co_lines() if line is not None}
        lines.discard(code.co_firstlineno)  # the def line, or its first decorator
        found.extend(
            (where, line, qualname, False) for line in lines if (path, line) not in ran
        )
    return sorted(set(found))


@functools.cache
def _lines(where: str) -> list[str]:
    return (ROOT / where).read_text(encoding="utf-8").splitlines()


def source_line(where: str, line: int) -> str:
    """Line ``line`` of the checkout's file ``where``, stripped."""
    return _lines(where)[line - 1].strip()


def main() -> int:
    for where, line, qualname, never_called in unreached():
        if never_called:
            print(f"{where}:{line} {qualname} (never called)")
        else:
            print(f"{where}:{line} {qualname}: {source_line(where, line)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
