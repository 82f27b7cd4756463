"""The seeded scenario generators of ``schedule_differential.py`` and
``mutation_differential.py`` keep producing scenarios that load and run, so
that comparing two versions with them keeps meaning something;
``shadow_replay.py`` replays what it records; ``startup.py`` times fresh
interpreters; ``bench_pairs.py`` runs the benchmark in pairs, reads each
child's own peak RSS and labels each metric by one rule; and
``trace_counts.py`` tells two traced runs' counts apart."""

import json
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest

import bench_pairs
import mutation_differential
import schedule_differential
import shadow_replay
import startup
import trace_counts

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = Path(__file__).resolve().parent.parent / "src"


def test_schedule_differential_scenarios_load_or_fail_at_load_and_run_deterministically():
    first = [
        (scenario_id, schedule_differential.outcome(doc))
        for scenario_id, doc in islice(schedule_differential.scenarios(), 300)
    ]
    second = [
        (scenario_id, schedule_differential.outcome(doc))
        for scenario_id, doc in islice(schedule_differential.scenarios(), 300)
    ]
    assert first == second
    kinds = Counter(
        "run_error" if "run_error" in result else
        "load_error" if "load_error" in result else
        "missed" if result["deadline_misses"] else "report"
        for _, result in first
    )
    assert kinds["run_error"] == 0, [r for _, r in first if "run_error" in r][:3]
    # most scenarios run, and most runs miss a deadline
    assert kinds["missed"] + kinds["report"] > 150
    assert kinds["missed"] > kinds["report"]


def _sampled_mutants():
    """Every 26th mutant, 300 in all: mutants of each of the 12 builtins and
    template edits, where the first 300 mutate only the first two builtins."""
    return islice(mutation_differential.mutants(), 0, None, 26)


def test_mutants_run_deterministically_and_never_raise_at_run_time():
    first = [
        (mutant_id, mutation_differential.outcome(doc))
        for mutant_id, doc in _sampled_mutants()
    ]
    second = [
        (mutant_id, mutation_differential.outcome(doc))
        for mutant_id, doc in _sampled_mutants()
    ]
    assert first == second
    for mutant_id, result in first:
        overridden = [result.get(f"g{g}", {}) for g in mutation_differential.GRANULARITIES]
        assert not any("run_error" in run for run in (result, *overridden)), (mutant_id, result)
        assert "rerun" not in result, (mutant_id, result)
    # most single-field mutants fail to load; about one in six loads and runs
    assert sum("report" in result for _, result in first) > 30


def test_mutants_load_from_their_text_as_from_the_dict():
    """``load_scenario_text`` loads its decoded tree in place, and
    ``load_scenario`` a copy of its dict: the two give one outcome."""
    for mutant_id, doc in _sampled_mutants():
        result = mutation_differential.first_outcome(mutation_differential.outcome(doc))
        assert mutation_differential.text_outcome(doc) == result, mutant_id


def test_template_mutants_edit_one_character_and_most_fail_at_a_position():
    first = list(islice(mutation_differential.template_mutants(), 150))
    original = json.loads(
        (SRC / "partsan" / "scenarios" / "uninit_syscall_param.json").read_text(encoding="utf-8")
    )["syscalls"][0]
    kinds = Counter()
    for mutant_id, doc in first:
        edited = doc["syscalls"][0]
        assert abs(len(edited) - len(original)) <= 1, mutant_id
        result = mutation_differential.outcome(doc)
        assert "run_error" not in result, (mutant_id, result)
        if "report" in result:
            kinds["report"] += 1
        elif result["message"].startswith("template does not parse: line "):
            assert result["load_error"] == "/syscalls/0", (mutant_id, result)
            kinds["parse error"] += 1
    assert kinds["parse error"] > 75 and kinds["report"] > 10, kinds


def test_shadow_replay_rebuilds_the_recorded_shadows(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    calls, live = shadow_replay.recorded(workloads.builtin_texts())
    names = Counter(name for _, name, *_ in calls)
    assert names["snapshot"] > 0 and names["apply_snapshot"] > 0 and names["check"] > 0
    replayed = shadow_replay.replay(shadow_replay.prepared(json.loads(json.dumps(calls))))
    assert len(replayed) == len(live) == names["__init__"]
    for got, want in zip(replayed, live):
        assert shadow_replay.state(got) == shadow_replay.state(want)


def test_startup_times_each_command_and_module():
    samples, modules = startup.measure({"A": SRC, "B": SRC}, 1)
    for setting in startup.SETTINGS:
        for label in "AB":
            assert set(samples[setting][label]) == set(startup.COMMANDS)
            for times in samples[setting][label].values():
                assert len(times) == 1 and all(0 < seconds < 10 for seconds in times)
    above = startup.summary(samples)["warm"]
    assert set(above) == {"import", "run_all"}
    assert set(above["import"]["B_minus_A"]) == {"best", "median", "iqr"}
    assert startup.spread([3.0, 1.0, 2.0, 4.0])["median"] == 2.5
    for label in "AB":
        assert {"partsan", "partsan.cli", "partsan.scenario"} <= modules[label].keys()


def test_startup_command_line_rejects_json_without_a_file(capsys):
    with pytest.raises(SystemExit) as exit_:
        startup.main([str(SRC), str(SRC), "--json"])
    assert exit_.value.code == 2
    assert "--json: expected one argument" in capsys.readouterr().err


def test_bench_pairs_runs_one_real_pair_of_a_tree_against_itself():
    root = SRC.parent
    runs, digests = bench_pairs.measure(
        {"parent": root, "change": root}, "big_partition", 1, 1, 0.5
    )
    baseline = json.loads((PERFBENCH / "baseline.json").read_text(encoding="utf-8"))
    assert digests == {baseline["workloads"]["big_partition"]["1"]["digest"]}
    assert [(run["pair"], run["side"]) for run in runs] == [(0, "parent"), (0, "change")]
    for run in runs:
        assert run["result"]["correct"] and run["result"]["failed"] == 0
        peaks = run["result"]["metrics"]["peak_rss_mib"]["value"], run["peak_rss_mib_cached"]
        assert all(5 < mib < 500 for mib in peaks)


def test_bench_pairs_alternates_which_side_runs_first():
    assert [bench_pairs.order("AB", pair) for pair in range(3)] == [
        ["A", "B"], ["B", "A"], ["A", "B"]
    ]


def test_bench_pairs_statistics_and_labels_on_fixed_samples():
    compare = bench_pairs.compare
    # an even count of pairs, three of them tied: the tie counts for neither side
    row = compare([1, 2, 3, 4], [1, 2, 3, 5], "lower")
    assert row["pairs_won"] == {"parent": 1, "change": 0}
    assert row["parent_median"] == row["change_median"] == 2.5
    assert (row["parent_iqr"], row["change_iqr"]) == (2.5, 3.25)
    assert (row["change_pct"], row["gap_over_parent_iqr"], row["label"]) == (0, 0, "unresolved")

    # lower is better: all 10 pairs won, median gap 2 over an IQR of 1
    parent = [10, 11] * 5
    row = compare(parent, [8, 9] * 4 + [8, 10], "lower")
    assert row["pairs_won"] == {"parent": 0, "change": 10}
    assert (row["parent_median"], row["change_median"], row["parent_iqr"]) == (10.5, 8.5, 1)
    assert (row["change_pct"], row["gap_over_parent_iqr"], row["label"]) == (-19.05, 2, "better")

    # higher is better (steps_per_s): the change lower in 9 pairs and tied in
    # one is worse; 9 in 10 is enough
    row = compare([100, 101] * 5, [95, 96] * 4 + [95, 101], "higher")
    assert row["pairs_won"] == {"parent": 9, "change": 0}
    assert (row["change_median"], row["gap_over_parent_iqr"], row["label"]) == (95.5, 5, "worse")
    assert compare([100, 101] * 5, [105, 106] * 5, "higher")["label"] == "better"

    # 8 pairs in 10 are too few, however wide the gap; a gap within the
    # parent's IQR is too narrow, however many pairs
    assert compare(parent, [1, 2] * 4 + [20, 20], "lower")["label"] == "unresolved"
    row = compare(parent, [x - 0.5 for x in parent], "lower")
    assert (row["pairs_won"]["change"], row["gap_over_parent_iqr"]) == (10, 0.5)
    assert row["label"] == "unresolved"

    # a single pair: both IQRs are 0, so any gap exceeds the parent's
    row = compare([2.0], [1.0], "lower")
    assert (row["parent_iqr"], row["change_iqr"], row["gap_over_parent_iqr"]) == (0, 0, None)
    assert (row["pairs_won"], row["label"]) == ({"parent": 0, "change": 1}, "better")
    assert compare([2.0], [2.0], "lower")["label"] == "unresolved"


def test_bench_31_summaries_are_what_the_driver_makes_of_their_runs():
    root = SRC.parent
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {metric["name"]: metric["better"] for metric in bench["end_to_end"]}
    better["peak_rss_mib_cached"] = better["peak_rss_mib"]
    recorded = json.loads((root / "BENCH_31.json").read_text(encoding="utf-8"))
    assert set(recorded["workloads"]) == {"campaign", "step_mix", "big_partition"}
    for output in recorded["workloads"].values():
        directions = {name: better[name] for name in output["summary"]}
        assert bench_pairs.summary(output["runs"], directions) == output["summary"]


def _traced_run(path, metrics):
    """A file like the stdout of ``perfbench/run.py --trace 1``."""
    summary = {"correct": True, "attempted": 3, "failed": 0, "metrics": {
        name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}
    path.write_text(f"workload w, seed 1, traced\n  some table\n{json.dumps(summary)}\n",
                    encoding="utf-8")
    return str(path)


def test_trace_counts_reports_each_count_that_differs_and_no_time(tmp_path, capsys):
    parent = {"a.calls": (3, "count"), "a.self_s": (0.25, "s"), "a.bytes": (64, "B"),
              "share": (0.5, "ratio"), "harness.raw_ticks": (10, "ticks")}
    a = _traced_run(tmp_path / "a.txt", parent)
    same = _traced_run(tmp_path / "b.txt", {**parent, "a.self_s": (0.5, "s")})
    assert trace_counts.main([a, same]) == 0
    assert capsys.readouterr().out == "4 non-timing metrics, 0 differ\n"

    changed = {**parent, "a.bytes": (65, "B"), "share": (0.25, "ratio"), "new": (1, "count")}
    del changed["harness.raw_ticks"]
    b = _traced_run(tmp_path / "c.txt", changed)
    assert trace_counts.main([a, b]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "a.bytes: 64 -> 65 B",
        "share: 0.5 -> 0.25 ratio",
        "harness.raw_ticks: 10 -> None ticks",
        "new: None -> 1 count",
        "5 non-timing metrics, 4 differ",
    ]
    assert trace_counts.main([a]) == 2
