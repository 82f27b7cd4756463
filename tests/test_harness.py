"""End-to-end runs: verdict matching, reports, determinism, soundness."""

import random
import time
from dataclasses import replace
from pathlib import Path

import pytest

from partsan import scenario as scenario_module
from partsan.errors import ConfigError
from partsan.harness import (
    RunReport,
    Simulator,
    match_expected,
    parse_report_json,
    render_report,
    run_scenario,
)
from partsan.scenario import ExpectPattern, builtin_names, load_builtin, load_scenario
from partsan.violations import Violation

GOLDEN = Path(__file__).parent / "golden"


def _record(kind, partition=None, offset=None, context=None, step=0):
    return Violation(kind=kind, partition=partition, offset=offset, step=step, context=context)


# -- match_expected ----------------------------------------------------------


def test_match_empty_against_empty():
    assert match_expected([], []) is True


def test_match_count_mismatch():
    records = [_record("UNINIT_USE")]
    assert match_expected(records, []) is False
    assert match_expected([], [ExpectPattern(kind="UNINIT_USE")]) is False
    assert match_expected(records, [ExpectPattern(kind="UNINIT_USE")] * 2) is False


def test_match_partial_patterns():
    records = [_record("UNINIT_USE", partition=1, offset=32, context="BRANCH")]
    assert match_expected(records, [ExpectPattern(kind="UNINIT_USE")])
    assert match_expected(records, [ExpectPattern(kind="UNINIT_USE", offset=32)])
    assert not match_expected(records, [ExpectPattern(kind="UNINIT_USE", offset=33)])
    assert not match_expected(records, [ExpectPattern(kind="LEFT_REDZONE")])
    assert not match_expected(
        records, [ExpectPattern(kind="UNINIT_USE", context="ARITH")]
    )


def test_match_needs_backtracking():
    # both patterns fit r1; a greedy assignment of r1 to the first pattern
    # must be undone for the match to complete
    r1 = _record("UNINIT_USE", partition=1, offset=5)
    r2 = _record("UNINIT_USE", partition=1, offset=6)
    patterns = [
        ExpectPattern(kind="UNINIT_USE", partition=1),
        ExpectPattern(kind="UNINIT_USE", offset=5),
    ]
    assert match_expected([r1, r2], patterns) is True
    assert match_expected([r2, r1], patterns) is True
    assert match_expected([r2, r2], patterns) is False


def test_match_fails_fast_without_a_perfect_matching():
    # every pattern fits all but one record, so no assignment works; a
    # search over assignments would try 199! of them
    records = [_record("UNINIT_USE", offset=i) for i in range(199)]
    records.append(_record("LEFT_REDZONE"))
    patterns = [ExpectPattern(kind="UNINIT_USE")] * 200
    start = time.perf_counter()
    assert match_expected(records, patterns) is False
    assert time.perf_counter() - start < 0.25
    assert match_expected(records[:-1], patterns[:-1]) is True


def test_match_handles_more_patterns_than_the_recursion_limit():
    records = [_record("UNINIT_USE", offset=i) for i in range(1100)]
    assert match_expected(records, [ExpectPattern(kind="UNINIT_USE")] * 1100) is True


def test_match_is_a_multiset_not_a_sequence():
    records = [_record("LEFT_REDZONE", offset=31), _record("RIGHT_REDZONE", offset=48)]
    patterns = [
        ExpectPattern(kind="RIGHT_REDZONE", offset=48),
        ExpectPattern(kind="LEFT_REDZONE", offset=31),
    ]
    assert match_expected(records, patterns) is True


# -- whole-scenario runs -------------------------------------------------------


def test_every_loadable_op_has_an_executor():
    assert set(Simulator._EXECUTORS) == set(scenario_module._OPS)



def test_listing1_overflow_report():
    report = run_scenario(load_builtin("listing1_overflow"))
    assert report.verdict == "MATCH"
    assert (report.raw_ticks, report.virtual_ticks) == (18, 18)
    left, right = report.violations
    assert (left.kind, left.offset, left.step, left.access) == ("LEFT_REDZONE", 31, 16, "W")
    assert left.detail == "left redzone of region 'buffer'"
    assert (right.kind, right.offset, right.step) == ("RIGHT_REDZONE", 48, 17)
    assert right.detail == "right redzone of region 'buffer'"


def test_empty_workload_text_report():
    report = run_scenario(load_scenario({"name": "empty"}))
    assert render_report(report, "text") == "SCENARIO name=empty raw=0 virtual=0\nVERDICT MATCH\n"


def test_text_report_placeholder_fields():
    report = run_scenario(load_builtin("ub_catalogue"))
    line = render_report(report, "text").splitlines()[1]
    assert line.startswith("VIOLATION kind=ADD_OVERFLOW part=1 addr=- size=- access=- step=0")


def test_render_report_rejects_unknown_format():
    report = run_scenario(load_scenario({"name": "empty"}))
    with pytest.raises(ConfigError):
        render_report(report, "yaml")


def test_json_report_roundtrip():
    # a run with violations, events, origins and contract records in it
    report = run_scenario(load_builtin("uninit_syscall_param"))
    assert report.violations and report.events
    assert parse_report_json(render_report(report, "json")) == report

    legacy = load_builtin("get_my_id_regression")
    legacy = replace(legacy, time=replace(legacy.time, legacy_get_my_id=True))
    report = run_scenario(legacy)
    assert parse_report_json(render_report(report, "json")) == report


def test_runs_are_deterministic():
    for name in ("listing1_overflow", "ub_catalogue", "sampling_freshness"):
        first = run_scenario(load_builtin(name))
        second = run_scenario(load_builtin(name))
        assert first == second
        assert render_report(first, "text") == render_report(second, "text")
        assert render_report(first, "json") == render_report(second, "json")


@pytest.mark.parametrize(
    ("name", "fmt"),
    [
        pytest.param(name, fmt, id=name if fmt == "text" else f"{name}-{fmt}")
        for name in builtin_names()
        for fmt in ("text", "json")
    ],
)
def test_text_reports_match_golden(name, fmt):
    report = run_scenario(load_builtin(name))
    suffix = "txt" if fmt == "text" else "json"
    golden = (GOLDEN / f"{name}.{suffix}").read_text(encoding="utf-8")
    assert render_report(report, fmt) == golden


def test_legacy_get_my_id_breaks_the_contract():
    scenario = load_builtin("get_my_id_regression")
    assert run_scenario(scenario).verdict == "MATCH"

    legacy = replace(scenario, time=replace(scenario.time, legacy_get_my_id=True))
    report = run_scenario(legacy)
    assert report.verdict == "MISMATCH"
    (violation,) = report.violations
    assert violation.kind == "API_CONTRACT"
    assert "INVALID_MODE" in violation.detail
    results = [e.info["result"] for e in report.events if e.kind == "GET_MY_ID"]
    assert results == ["INVALID_MODE", 1]


def test_slowdown_compensation_on_and_off():
    scenario = load_builtin("off_schedule_with_and_without_slowdown")
    compensated = run_scenario(scenario)
    assert compensated.verdict == "MATCH"
    assert (compensated.raw_ticks, compensated.virtual_ticks) == (80, 40)
    assert not [e for e in compensated.events if e.kind == "DEADLINE_MISS"]

    uncompensated = run_scenario(scenario.with_overrides(slowdown_factor=1))
    assert (uncompensated.raw_ticks, uncompensated.virtual_ticks) == (80, 80)
    (miss,) = [e for e in uncompensated.events if e.kind == "DEADLINE_MISS"]
    assert miss.t == 52
    assert miss.info == {"part": 1, "process": 1, "elapsed": 52, "budget": "50"}


def test_timeout_override_absorbs_local_overhead():
    scenario = load_builtin("local_timeout_override")
    assert scenario.time.overrides == ((1, 1, 2),)
    with_override = run_scenario(scenario)
    assert with_override.verdict == "MATCH"
    assert not [e for e in with_override.events if e.kind == "DEADLINE_MISS"]

    stripped = replace(scenario, time=replace(scenario.time, overrides=()))
    report = run_scenario(stripped)
    (miss,) = [e for e in report.events if e.kind == "DEADLINE_MISS"]
    assert (miss.t, miss.info["elapsed"], miss.info["budget"]) == (52, 52, "50")


def test_partition_reset_use_after():
    report = run_scenario(load_builtin("partition_reset_use_after"))
    assert report.verdict == "MATCH"
    (violation,) = report.violations
    assert (violation.kind, violation.offset, violation.access) == ("PARTITION_RESET", 32, "R")
    assert violation.detail == "memory invalidated by partition reset"
    (reset,) = [e for e in report.events if e.kind == "PARTITION_RESET"]
    assert reset.t == 2


def test_runtime_config_errors_carry_the_step_path():
    data = {
        "name": "bad-region",
        "partitions": [{"id": 1, "regions": [{"label": "buf", "size": 16}]}],
        "workload": [{"op": "WRITE", "partition": 1, "region": "ghost", "data": "41"}],
    }
    with pytest.raises(ConfigError) as err:
        run_scenario(load_scenario(data))
    assert err.value.path == "/workload/0"


def test_dispatch_events_only_on_change():
    report = run_scenario(load_builtin("get_my_id_regression"))
    dispatches = [e for e in report.events if e.kind == "DISPATCH"]
    assert len(dispatches) == 1
    assert dispatches[0].info == {"part": 1, "process": 1}


def test_idle_advances_virtual_time_without_checks():
    data = {
        "name": "idle-only",
        "partitions": [{"id": 1}],
        "workload": [{"op": "IDLE", "ticks": 7}, {"op": "IDLE", "ticks": 0}],
    }
    report = run_scenario(load_scenario(data))
    assert (report.raw_ticks, report.virtual_ticks) == (7, 7)
    assert report.violations == () and report.events == ()


def test_clean_workloads_stay_clean():
    """Soundness sweep: randomly generated fault-free programs must never
    trip a checker. Every write stays in bounds, every read/branch touches
    only written bytes, every arithmetic step is representable."""
    rng = random.Random(20260814)
    for case in range(1000):
        written = []  # (offset, length) pairs inside the region
        steps = []
        for _ in range(rng.randrange(1, 7)):
            kind = rng.randrange(5)
            if kind == 0 or not written:
                offset = rng.randrange(0, 24)
                length = rng.randrange(1, min(8, 32 - offset) + 1)
                steps.append(
                    {
                        "op": "WRITE",
                        "partition": 1,
                        "region": "buf",
                        "offset": offset,
                        "fill": rng.randrange(1, 256),
                        "len": length,
                    }
                )
                written.append((offset, length))
            elif kind == 1:
                offset, length = rng.choice(written)
                op = rng.choice(("READ", "BRANCH_ON"))
                steps.append(
                    {"op": op, "partition": 1, "region": "buf", "offset": offset, "len": length}
                )
            elif kind == 2:
                steps.append(
                    {
                        "op": "ARITH",
                        "partition": 1,
                        "arith": rng.choice(("ADD", "SUB", "MUL")),
                        "type": "i32",
                        "a": rng.randrange(0, 100),
                        "b": rng.randrange(0, 100),
                    }
                )
            elif kind == 3:
                steps.append(
                    {
                        "op": "DIV",
                        "partition": 1,
                        "type": "i32",
                        "a": rng.randrange(0, 1000),
                        "b": rng.randrange(1, 10),
                    }
                )
            else:
                steps.append({"op": "IDLE", "ticks": rng.randrange(0, 4)})
        scenario = load_scenario(
            {
                "name": f"clean-{case}",
                "partitions": [{"id": 1, "regions": [{"label": "buf", "size": 32}]}],
                "workload": steps,
            }
        )
        report = run_scenario(scenario)
        assert report.violations == (), (case, report.violations)
        assert report.verdict == "MATCH"


def test_report_dataclass_shape():
    report = run_scenario(load_scenario({"name": "empty"}))
    assert isinstance(report, RunReport)
    assert report.seed == 0
    assert run_scenario(load_scenario({"name": "empty"}), seed=9).seed == 9
