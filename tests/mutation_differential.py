"""Seeded single-field mutations of the builtin scenarios, for comparing two
versions of partsan.

    PYTHONPATH=<src of version A> python tests/mutation_differential.py record a.json
    PYTHONPATH=<src of version B> python tests/mutation_differential.py record b.json
    PYTHONPATH=<src of version B> python tests/mutation_differential.py compare a.json b.json

``record`` applies 150 mutations per builtin for each of the seeds 4-7
(7,200 in all; one changed value, deleted key or added key each), then
150 character edits per syscall template of a builtin for each seed (one
character inserted, deleted or replaced; the character put in is a space,
tab, newline, carriage return, ``/``, ``*``, a digit or a non-ASCII
letter), and stores each mutant's outcome: the load error's pointer and
message, the run error, or digests of the text and JSON reports; then the
same for every loadable mutant loaded again as
``load_scenario(doc, granularity=g)`` for ``g`` of 1 and of 16, and the
mutant's own scenario run once more after those loads.  It also
loads each mutant from its JSON text, and exits 1 when that load's error
or report differs from the dict's, so the two entry points stay in step.
``compare`` reads A as the parent and B as the change, prints the counts
and exits 1 when B breaks one of these rules:

- a load error of A is a load error of B at the same pointer, and for a
  template edit with the same message, so that a moved line or column
  shows;
- a report of A is B's report, byte for byte;
- a run error of A is a load error of B, with a pointer into the mutant;
- nothing that B loads raises while it runs, with or without an override;
- a scenario's overrides leave its own report as it was.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from collections import Counter
from importlib import resources

from test_scenario import _children, _names_node  # the script's directory is on sys.path

SEEDS = (4, 5, 6, 7)
PER_BUILTIN = 150
GRANULARITIES = (1, 16)
VALUES = (None, True, -1, 0, 1, 2, 3, 4097, "x", "buf", [], {})
TEMPLATE_EDITS = 150
EDIT_CHARS = (" ", "\t", "\n", "\r", "/", "*", "0", "7", "\u00e9", "\u03bb")


def _builtins():
    root = resources.files("partsan.scenarios")
    names = sorted(e.name[:-5] for e in root.iterdir() if e.name.endswith(".json"))
    return [(name, (root / f"{name}.json").read_text(encoding="utf-8")) for name in names]


def mutants():
    """Yield (id, document) for every mutant, in a fixed order: the field
    mutants, then the template edits."""
    for seed in SEEDS:
        rng = random.Random(seed)
        for name, text in _builtins():
            for i in range(PER_BUILTIN):
                doc = json.loads(text)
                container, key = rng.choice(list(_children(doc)))
                roll = rng.random()
                if roll < 0.2 and isinstance(container, dict):
                    del container[key]
                elif roll < 0.3 and isinstance(container[key], dict):
                    container[key]["bogus"] = 1
                else:
                    container[key] = rng.choice(VALUES)
                yield f"{seed}/{name}/{i}", doc
    yield from template_mutants()


def template_mutants():
    """Yield (id, document) for every template edit, in a fixed order."""
    for seed in SEEDS:
        rng = random.Random(seed)
        for name, text in _builtins():
            for j, template in enumerate(json.loads(text).get("syscalls", ())):
                for i in range(TEMPLATE_EDITS):
                    doc = json.loads(text)
                    doc["syscalls"][j] = _edited(rng, template)
                    yield f"{seed}/{name}/syscalls/{j}/{i}", doc


def _edited(rng, template):
    """``template`` with one character inserted, deleted or replaced."""
    op = rng.choice(("insert", "delete", "replace"))
    at = rng.randrange(len(template) + (op == "insert"))
    put = "" if op == "delete" else rng.choice(EDIT_CHARS)
    return template[:at] + put + template[at + (op != "insert") :]


def _run(scenario):
    from partsan.errors import ConfigError
    from partsan.harness import Simulator, render_report

    try:
        report = Simulator(scenario).run()
    except ConfigError as exc:
        return {"run_error": type(exc).__name__, "path": exc.path, "message": str(exc)}
    except Exception as exc:  # noqa: BLE001 - any escape is an outcome
        return {"run_error": type(exc).__name__, "path": None, "message": str(exc)}
    digest = hashlib.sha256()
    for fmt in ("text", "json"):
        digest.update(render_report(report, fmt).encode())
    return {"report": digest.hexdigest()}


def _load(doc, text=False, **overrides):
    """``(scenario, None)`` or ``(None, load error)`` for ``doc``, loaded
    from the dict or, with ``text``, from its JSON text, with ``overrides``."""
    from partsan.errors import ConfigError
    from partsan.scenario import load_scenario, load_scenario_text

    try:
        if text:
            return load_scenario_text(json.dumps(doc), **overrides), None
        return load_scenario(doc, **overrides), None
    except ConfigError as exc:
        return None, {"load_error": exc.path, "message": exc.message}


def text_outcome(doc):
    """The load error, or the outcome of one run, of ``doc``'s JSON text."""
    scenario, error = _load(doc, text=True)
    return error or _run(scenario)


def outcome(doc):
    scenario, error = _load(doc)
    if error:
        return error
    first = _run(scenario)
    result = dict(first)
    for g in GRANULARITIES:
        regran, error = _load(doc, granularity=g)
        result[f"g{g}"] = error or _run(regran)
    rerun = _run(scenario)
    if rerun != first:
        result["rerun"] = rerun
    return result


def first_outcome(result):
    """The part of an ``outcome`` that ``text_outcome`` also gives."""
    overrides = ("rerun", *(f"g{g}" for g in GRANULARITIES))
    return {k: v for k, v in result.items() if k not in overrides}


def record(out_path):
    results, drifted = {}, []
    for mutant_id, doc in mutants():
        result = outcome(doc)
        if text_outcome(doc) != first_outcome(result):
            drifted.append(mutant_id)
        results[mutant_id] = {"doc": doc, **result}
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(results, handle)
    for mutant_id in drifted[:20]:
        print(f"FAIL {mutant_id}: its JSON text loads or runs unlike the dict")
    print(f"{len(results)} mutants, {len(drifted)} loaded differently from their text")
    return 1 if drifted else 0


def compare(parent_path, change_path):
    with open(parent_path, encoding="utf-8") as handle:
        parent = json.load(handle)
    with open(change_path, encoding="utf-8") as handle:
        change = json.load(handle)
    counts, failures = Counter(), []
    for mutant_id, old in parent.items():
        new = change[mutant_id]
        if "load_error" in old:
            counts["load error kept"] += 1
            if new.get("load_error") != old["load_error"]:
                failures.append((mutant_id, "load error moved", old, new))
            elif "/syscalls/" in mutant_id and new["message"] != old["message"]:
                failures.append((mutant_id, "template error message changed", old, new))
        elif "report" in old:
            if new.get("report") == old["report"]:
                counts["report identical"] += 1
            else:
                failures.append((mutant_id, "report changed", old, new))
        elif "load_error" in new and _names_node(new["doc"], new["load_error"] or ""):
            counts[f"run error now a load error ({old['run_error']})"] += 1
        else:
            failures.append((mutant_id, "run error not a load error", old, new))
        if "load_error" in new:
            continue
        if "rerun" in new:
            failures.append((mutant_id, "report changed after the overrides", old, new))
        for g in GRANULARITIES:
            run = new[f"g{g}"]
            if "run_error" in run:
                failures.append((mutant_id, f"granularity {g} raised at run time", old, new))
            elif "load_error" in run:
                counts[f"granularity {g} override rejected"] += 1
                if not _names_node(new["doc"], run["load_error"] or ""):
                    failures.append((mutant_id, f"granularity {g} pointer", old, new))
            else:
                counts[f"granularity {g} override ran"] += 1
    for key in sorted(counts):
        print(f"{counts[key]:6d}  {key}")
    for mutant_id, reason, old, new in failures[:20]:
        old = {k: v for k, v in old.items() if k != "doc"}
        new = {k: v for k, v in new.items() if k != "doc"}
        print(f"FAIL {mutant_id}: {reason}\n  parent {old}\n  change {new}")
    print(f"{len(parent)} mutants, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "record":
        sys.exit(record(sys.argv[2]))
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
