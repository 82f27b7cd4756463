"""End-to-end runs: verdict matching, reports, determinism, soundness."""

import json
import random
import time
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest
import schedule_differential  # the test directory is on sys.path
from oracles import snapshot_bytes
from report_json import parse_report_json

from partsan import scenario as scenario_module
from partsan.errors import ConfigError
from partsan.harness import (
    RunReport,
    Simulator,
    match_expected,
    render_report,
    run_scenario,
)
from partsan.scenario import builtin_names, load_builtin, load_scenario, read_utf8
from partsan.sched import ProcessTable
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
    assert match_expected([], [{"kind": "UNINIT_USE"}]) is False
    assert match_expected(records, [{"kind": "UNINIT_USE"}] * 2) is False


def test_match_partial_patterns():
    records = [_record("UNINIT_USE", partition=1, offset=32, context="BRANCH")]
    assert match_expected(records, [{"kind": "UNINIT_USE"}])
    assert match_expected(records, [{"kind": "UNINIT_USE", "offset": 32}])
    assert not match_expected(records, [{"kind": "UNINIT_USE", "offset": 33}])
    assert not match_expected(records, [{"kind": "LEFT_REDZONE"}])
    assert not match_expected(
        records, [{"kind": "UNINIT_USE", "context": "ARITH"}]
    )


def test_match_needs_backtracking():
    # both patterns fit r1; a greedy assignment of r1 to the first pattern
    # must be undone for the match to complete
    r1 = _record("UNINIT_USE", partition=1, offset=5)
    r2 = _record("UNINIT_USE", partition=1, offset=6)
    patterns = [
        {"kind": "UNINIT_USE", "partition": 1},
        {"kind": "UNINIT_USE", "offset": 5},
    ]
    assert match_expected([r1, r2], patterns) is True
    assert match_expected([r2, r1], patterns) is True
    assert match_expected([r2, r2], patterns) is False


def test_match_fails_fast_without_a_perfect_matching():
    # every pattern fits all but one record, so no assignment works; a
    # search over assignments would try 199! of them
    records = [_record("UNINIT_USE", offset=i) for i in range(199)]
    records.append(_record("LEFT_REDZONE"))
    patterns = [{"kind": "UNINIT_USE"}] * 200
    start = time.perf_counter()
    assert match_expected(records, patterns) is False
    assert time.perf_counter() - start < 0.25
    assert match_expected(records[:-1], patterns[:-1]) is True


def test_match_handles_more_patterns_than_the_recursion_limit():
    records = [_record("UNINIT_USE", offset=i) for i in range(1100)]
    assert match_expected(records, [{"kind": "UNINIT_USE"}] * 1100) is True


def test_match_is_a_multiset_not_a_sequence():
    records = [_record("LEFT_REDZONE", offset=31), _record("RIGHT_REDZONE", offset=48)]
    patterns = [
        {"kind": "RIGHT_REDZONE", "offset": 48},
        {"kind": "LEFT_REDZONE", "offset": 31},
    ]
    assert match_expected(records, patterns) is True


# -- whole-scenario runs -------------------------------------------------------


def test_every_loadable_op_has_an_executor():
    assert set(Simulator._EXECUTORS) == set(scenario_module._OPS) - {"IDLE"}



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
    legacy.time["legacy_get_my_id"] = True
    report = run_scenario(legacy)
    assert parse_report_json(render_report(report, "json")) == report


def test_runs_are_deterministic():
    # two runs of one Scenario object also show that no run state leaks into it
    for name in builtin_names():
        scenario = load_builtin(name)
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert first == second == run_scenario(load_builtin(name))
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

    scenario.time["legacy_get_my_id"] = True
    report = run_scenario(scenario)
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

    uncompensated = run_scenario(
        load_builtin("off_schedule_with_and_without_slowdown", slowdown_factor=1)
    )
    assert (uncompensated.raw_ticks, uncompensated.virtual_ticks) == (80, 80)
    (miss,) = [e for e in uncompensated.events if e.kind == "DEADLINE_MISS"]
    assert miss.t == 52
    assert miss.info == {"part": 1, "process": 1, "elapsed": 52, "budget": "50"}


def test_timeout_override_absorbs_local_overhead():
    scenario = load_builtin("local_timeout_override")
    assert scenario.time["timeout_overrides"] == ({"partition": 1, "process": 1, "multiplier": 2},)
    with_override = run_scenario(scenario)
    assert with_override.verdict == "MATCH"
    assert not [e for e in with_override.events if e.kind == "DEADLINE_MISS"]

    scenario.time["timeout_overrides"] = ()
    report = run_scenario(scenario)
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
    # a region the partition lacks is found by the load-time workload pass,
    # before anything runs, at the pointer of the step's field
    data = {
        "name": "bad-region",
        "partitions": [{"id": 1, "regions": [{"label": "buf", "size": 16}]}],
        "workload": [{"op": "WRITE", "partition": 1, "region": "ghost", "data": "41"}],
    }
    with pytest.raises(ConfigError) as err:
        load_scenario(data)
    assert err.value.path == "/workload/0/region"


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


def test_periodic_activation_jumps_a_long_idle():
    # the activation moves to the last period boundary in one step, so an
    # IDLE of 10**12 ticks costs no more than one of 10
    for capacity, period in ((1, 1), (3, 5)):
        data = {
            "name": "long-idle",
            "partitions": [
                {
                    "id": 1,
                    "regions": [{"label": "buf", "size": 8}],
                    "processes": [
                        {"id": 1, "priority": 1, "time_capacity": capacity, "period": period}
                    ],
                }
            ],
            "workload": [
                {"op": "WRITE", "partition": 1, "region": "buf", "data": "01"},
                {"op": "IDLE", "ticks": 10**12},
                {"op": "WRITE", "partition": 1, "region": "buf", "data": "02"},
            ],
        }
        scenario = load_scenario(data)
        start = time.perf_counter()
        report = run_scenario(scenario)
        assert time.perf_counter() - start < 0.5
        assert [e.to_line() for e in report.events] == [
            "EVENT kind=DISPATCH t=0 part=1 process=1",
            "EVENT kind=DEADLINE_MISS t=1000000000001 part=1 process=1 "
            f"elapsed=1000000000001 budget={capacity}",
        ]


def test_schedule_with_periods_resets_and_an_override():
    data = {
        "name": "schedule",
        "partitions": [
            {
                "id": 1,
                "regions": [{"label": "buf", "size": 16}],
                "processes": [
                    {"id": 1, "priority": 2, "time_capacity": 3, "period": 10},
                    {"id": 2, "priority": 1, "time_capacity": 2},
                ],
            },
            {
                "id": 2,
                "regions": [{"label": "buf", "size": 16}],
                "processes": [{"id": 1, "priority": 1, "time_capacity": 3}],
            },
        ],
        "time": {
            "slowdown_factor": 2,
            "costs": {"asan_check": 1},
            "timeout_overrides": [{"partition": 1, "process": 1, "multiplier": "3/2"}],
        },
        "workload": [
            {"op": "WRITE", "partition": 1, "region": "buf", "data": "01020304"},
            {"op": "IDLE", "ticks": 4},
            {"op": "WRITE", "partition": 2, "region": "buf", "data": "05"},
            {"op": "IDLE", "ticks": 10},
            {"op": "READ", "partition": 1, "region": "buf", "len": 4},
            {"op": "IDLE", "ticks": 13},
            {"op": "READ", "partition": 1, "region": "buf", "len": 4},
            {"op": "RESET_PARTITION", "partition": 1},
            {"op": "IDLE", "ticks": 30},
            {"op": "ALLOC", "partition": 1, "size": 8, "label": "buf"},
            {"op": "START_PARTITION", "partition": 1},
            {"op": "WRITE", "partition": 1, "region": "buf", "data": "06"},
            {"op": "IDLE", "ticks": 12},
            {"op": "GET_MY_ID", "partition": 1, "caller": 1, "expect": 1},
        ],
    }
    report = run_scenario(load_scenario(data))
    assert (report.raw_ticks, report.virtual_ticks, report.verdict) == (83, 41, "MATCH")
    assert [e.to_line() for e in report.events] == [
        "EVENT kind=DISPATCH t=0 part=1 process=1",
        "EVENT kind=DISPATCH t=3 part=2 process=1",
        "EVENT kind=DEADLINE_MISS t=9 part=1 process=1 elapsed=9 budget=9/2",
        "EVENT kind=DEADLINE_MISS t=9 part=2 process=1 elapsed=6 budget=3",
        "EVENT kind=DEADLINE_MISS t=17 part=1 process=1 elapsed=7 budget=9/2",
        "EVENT kind=PARTITION_RESET t=17 part=1",
        "EVENT kind=DEADLINE_MISS t=35 part=1 process=1 elapsed=5 budget=9/2",
        "EVENT kind=GET_MY_ID t=41 part=1 caller=1 result=1",
    ]


def _one_process(pid, capacity, period=None):
    process = {"id": 1, "priority": 1, "time_capacity": capacity}
    if period is not None:
        process["period"] = period
    return {"id": pid, "regions": [{"label": "buf", "size": 8}], "processes": [process]}


def _write(pid):
    return {"op": "WRITE", "partition": pid, "region": "buf", "data": "01"}


def _events(partitions, workload, time=None):
    data = {"name": "deadlines", "partitions": partitions, "workload": workload}
    if time is not None:
        data["time"] = time
    report = run_scenario(load_scenario(data))
    return (report.raw_ticks, report.virtual_ticks), [e.to_line() for e in report.events]


@pytest.mark.parametrize("slowdown, ticks", [("3/2", (202, 134)), ("7/3", (202, 86))])
def test_fractional_budgets_miss_one_tick_after_their_floor(slowdown, ticks):
    # budgets 3 x 7/3 = 7 and 50 x 3/2 = 75; one raw tick per step, so
    # virtual time passes every value and the miss is at floor(budget) + 1
    time = {
        "slowdown_factor": slowdown,
        "timeout_overrides": [
            {"partition": 1, "process": 1, "multiplier": "7/3"},
            {"partition": 2, "process": 1, "multiplier": "3/2"},
        ],
    }
    workload = [_write(1), _write(2)] + [{"op": "IDLE", "ticks": 1}] * 200
    assert _events([_one_process(1, 3), _one_process(2, 50)], workload, time) == (ticks, [
        "EVENT kind=DISPATCH t=0 part=1 process=1",
        "EVENT kind=DISPATCH t=0 part=2 process=1",
        "EVENT kind=DEADLINE_MISS t=8 part=1 process=1 elapsed=8 budget=7",
        "EVENT kind=DEADLINE_MISS t=76 part=2 process=1 elapsed=76 budget=75",
    ])


def test_a_miss_reports_the_budget_text_fixed_at_build():
    # budget 3 x 3/2 = 9/2, missed in two activations: each miss carries the
    # very string its Process was built with, so a miss does no ratio arithmetic
    time = {"timeout_overrides": [{"partition": 1, "process": 1, "multiplier": "3/2"}]}
    idle = [{"op": "IDLE", "ticks": n} for n in (6, 4, 5)]
    data = {
        "name": "budget-text",
        "partitions": [_one_process(1, 3, period=10)],
        "time": time,
        "workload": [_write(1), idle[0], _write(1), idle[1], _write(1), idle[2]],
    }
    sim = Simulator(load_scenario(data))
    misses = [e for e in sim.run().events if e.kind == "DEADLINE_MISS"]
    process = sim.tables[1].running
    assert process.budget == "9/2"
    assert [(e.t, e.info["elapsed"]) for e in misses] == [(7, 7), (18, 8)]
    assert all(e.info["budget"] is process.budget for e in misses)


def test_same_step_misses_follow_the_partition_order():
    # partition 2 is declared first and due later (t=11) than partition 1
    # (t=6); both miss on the IDLE step, in declaration order
    workload = [_write(2), _write(1), {"op": "IDLE", "ticks": 20}, _write(1)]
    assert _events([_one_process(2, 10), _one_process(1, 4)], workload) == ((23, 23), [
        "EVENT kind=DISPATCH t=0 part=2 process=1",
        "EVENT kind=DISPATCH t=1 part=1 process=1",
        "EVENT kind=DEADLINE_MISS t=22 part=2 process=1 elapsed=22 budget=10",
        "EVENT kind=DEADLINE_MISS t=22 part=1 process=1 elapsed=21 budget=4",
    ])


def test_periodic_reactivation_moves_the_deadline():
    idle = [{"op": "IDLE", "ticks": n} for n in range(11)]
    # missed at t=5; the dispatch at t=12 re-activates at 10, which re-arms
    # the deadline without a DISPATCH event, and it is missed again at 13
    workload = [_write(1), idle[4], _write(1), idle[6], _write(1), idle[1], _write(1), idle[10]]
    assert _events([_one_process(1, 2, period=10)], workload) == ((25, 25), [
        "EVENT kind=DISPATCH t=0 part=1 process=1",
        "EVENT kind=DEADLINE_MISS t=5 part=1 process=1 elapsed=5 budget=2",
        "EVENT kind=DEADLINE_MISS t=13 part=1 process=1 elapsed=3 budget=2",
    ])
    # re-activated at t=5 and t=10, each before the activation's deadline
    # (t=6 and t=11) falls due, so the only miss is of the last activation
    workload = [_write(1), idle[4], _write(1), idle[4], _write(1), idle[6]]
    assert _events([_one_process(1, 5, period=5)], workload) == ((17, 17), [
        "EVENT kind=DISPATCH t=0 part=1 process=1",
        "EVENT kind=DEADLINE_MISS t=17 part=1 process=1 elapsed=7 budget=5",
    ])


def _dispatches(partitions, workload):
    """The virtual times of the run's ProcessTable.dispatch calls, its ticks
    and its events."""
    calls = []
    dispatch = ProcessTable.dispatch

    def counted(table, virtual_now):
        calls.append(virtual_now)
        return dispatch(table, virtual_now)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ProcessTable, "dispatch", counted)
        return calls, _events(partitions, workload)


def test_a_process_without_a_period_is_dispatched_once():
    calls, events = _dispatches([_one_process(1, 50)], [_write(1)] * 100)
    assert calls == [0]
    assert events == ((100, 100), [
        "EVENT kind=DISPATCH t=0 part=1 process=1",
        "EVENT kind=DEADLINE_MISS t=51 part=1 process=1 elapsed=51 budget=50",
    ])


def test_a_periodic_process_is_dispatched_once_per_boundary_passed():
    calls, events = _dispatches([_one_process(1, 3, period=10)], [_write(1)] * 100)
    assert calls == list(range(0, 100, 10))
    assert events == ((100, 100), ["EVENT kind=DISPATCH t=0 part=1 process=1"] + [
        f"EVENT kind=DEADLINE_MISS t={t} part=1 process=1 elapsed=4 budget=3"
        for t in range(4, 100, 10)
    ])
    # an IDLE that passes the boundaries 20, 30 and 40 costs one dispatch
    workload = [_write(1)] * 12 + [{"op": "IDLE", "ticks": 35}] + [_write(1)] * 12
    calls, events = _dispatches([_one_process(1, 3, period=10)], workload)
    assert calls == [0, 10, 47, 50]
    assert events == ((59, 59), [
        "EVENT kind=DISPATCH t=0 part=1 process=1",
        "EVENT kind=DEADLINE_MISS t=4 part=1 process=1 elapsed=4 budget=3",
        "EVENT kind=DEADLINE_MISS t=47 part=1 process=1 elapsed=37 budget=3",
        "EVENT kind=DEADLINE_MISS t=48 part=1 process=1 elapsed=8 budget=3",
        "EVENT kind=DEADLINE_MISS t=54 part=1 process=1 elapsed=4 budget=3",
    ])


def test_a_restarted_partition_gets_no_extra_dispatch():
    restart = [
        {"op": "RESET_PARTITION", "partition": 1},
        {"op": "IDLE", "ticks": 20},
        {"op": "ALLOC", "partition": 1, "label": "buf", "size": 8},
        {"op": "START_PARTITION", "partition": 1},
    ]
    workload = [_write(1)] * 5 + restart + [_write(1)] * 5
    calls, events = _dispatches([_one_process(1, 30)], workload)
    assert calls == [0]
    assert events == ((33, 33), [
        "EVENT kind=DISPATCH t=0 part=1 process=1",
        "EVENT kind=PARTITION_RESET t=5 part=1",
        "EVENT kind=DEADLINE_MISS t=31 part=1 process=1 elapsed=31 budget=30",
    ])
    # a periodic one is re-activated at the first step after the restart,
    # at the last boundary passed, and again at the next boundary
    calls, events = _dispatches([_one_process(1, 3, period=10)], workload)
    assert calls == [0, 28, 30]
    assert events == ((33, 33), [
        "EVENT kind=DISPATCH t=0 part=1 process=1",
        "EVENT kind=DEADLINE_MISS t=4 part=1 process=1 elapsed=4 budget=3",
        "EVENT kind=PARTITION_RESET t=5 part=1",
        "EVENT kind=DEADLINE_MISS t=29 part=1 process=1 elapsed=9 budget=3",
    ])


def test_the_partitions_of_a_simulator_share_one_origin_table():
    for name in ("queueing_fifo", "sampling_freshness", "port_uninit_send"):
        simulator = Simulator(load_builtin(name))
        shadows = [mem.init_shadow for mem in simulator.partitions.values()]
        assert len(shadows) > 1
        table = shadows[0]._origin_table
        assert all(shadow._origin_table is table for shadow in shadows)
        assert simulator.run().verdict == "MATCH"
        # every label is interned once, whichever partition met it first
        assert len(set(table)) == len(table) > 1


def test_checks_are_charged_to_the_step_that_made_them():
    data = {
        "name": "costs",
        "partitions": [
            {"id": 1, "regions": [{"label": "buf", "size": 8}]},
            {"id": 2, "regions": [{"label": "buf", "size": 8}]},
        ],
        "time": {"costs": {"asan_check": 1, "msan_check": 10, "ub_check": 100}},
        "ports": [
            {
                "name": "q",
                "kind": "queueing",
                "source": 1,
                "destination": 2,
                "max_message_size": 8,
                "capacity": 2,
            }
        ],
        "workload": [
            {"op": "WRITE", "partition": 1, "region": "buf", "data": "01020304"},
            {"op": "SEND", "partition": 1, "port": "q", "region": "buf", "len": 4},
            {"op": "RECEIVE", "partition": 2, "port": "q", "region": "buf", "offset": 4},
            {
                "op": "ARITH",
                "partition": 2,
                "arith": "ADD",
                "type": "i32",
                "a": {"region": "buf", "offset": 4},
                "b": 1,
            },
        ],
    }
    report = run_scenario(load_scenario(data))
    assert report.violations == () and report.verdict == "MATCH"
    # base 1 per step; WRITE 1 asan, SEND 1 asan + 1 msan, RECEIVE 1 asan
    # (on partition 2), ARITH 1 asan + 1 msan + 1 ub
    assert report.raw_ticks == (1 + 1) + (1 + 1 + 10) + (1 + 1) + (1 + 1 + 10 + 100) == 128

    # COPY checks its source, then its destination only if the source passed:
    # base 1 plus one asan check per span checked, and no msan check
    copies = [
        ({"src_offset": 0, "dst_region": "buf", "dst_offset": 4}, 1 + 2, None),
        # the destination (the null guard) is bad too, but never checked
        ({"src_offset": 6, "dst_offset": 0}, 1 + 1, "R"),
        ({"src_offset": 0, "dst_region": "buf", "dst_offset": 6}, 1 + 2, "W"),
    ]
    for fields, ticks, access in copies:
        data["workload"] = [
            {"op": "COPY", "partition": 1, "src_region": "buf", "len": 4, **fields}
        ]
        report = run_scenario(load_scenario(data))
        assert report.raw_ticks == ticks
        expected = () if access is None else (
            Violation(
                kind="RIGHT_REDZONE",
                partition=1,
                offset=40,
                size=4,
                access=access,
                step=0,
                detail="right redzone of region 'buf'",
            ),
        )
        assert report.violations == expected


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


# -- aborted ops --------------------------------------------------------------------


#: Each kind of op that aborts on a fault, faulting once, between the clean
#: steps that give the faults something to leave alone.  Partition 1 sends
#: on both ports; partition 2 receives into ``inbox``, whose last two bytes
#: lie before its right redzone.
_ABORTS = {
    "name": "aborts",
    "partitions": [
        {"id": 1, "regions": [{"label": "buf", "size": 8}, {"label": "dst", "size": 8}]},
        {"id": 2, "regions": [{"label": "inbox", "size": 8}]},
    ],
    "ports": [
        {"name": "q", "kind": "queueing", "source": 1, "destination": 2,
         "max_message_size": 4, "capacity": 1},
        {"name": "s", "kind": "sampling", "source": 1, "destination": 2,
         "max_message_size": 4, "refresh_period": 10},
    ],
    "workload": [
        {"op": "WRITE", "partition": 1, "region": "buf", "data": "01020304"},
        {"op": "WRITE", "partition": 1, "region": "dst", "data": "a1a2a3a4a5a6a7a8"},
        {"op": "WRITE", "partition": 1, "region": "buf", "offset": 6, "data": "ffffffff"},
        {"op": "READ", "partition": 1, "region": "buf", "offset": 6, "len": 4},
        {"op": "COPY", "partition": 1, "src_region": "buf", "src_offset": 6,
         "dst_region": "dst", "len": 4},
        {"op": "COPY", "partition": 1, "src_region": "buf", "dst_region": "dst",
         "dst_offset": 6, "len": 4},
        {"op": "SEND", "partition": 1, "port": "q", "region": "buf", "len": 5},
        {"op": "SEND", "partition": 1, "port": "q", "offset": 4094, "len": 4},
        {"op": "SEND", "partition": 1, "port": "q", "region": "buf", "offset": 4, "len": 4},
        {"op": "SEND", "partition": 1, "port": "q", "region": "buf", "len": 4},
        {"op": "SEND", "partition": 1, "port": "q", "region": "dst", "len": 4},
        {"op": "SAMPLING_WRITE", "partition": 1, "port": "s", "offset": -1, "len": 2},
        {"op": "SAMPLING_WRITE", "partition": 1, "port": "s", "region": "buf", "len": 4},
        {"op": "RECEIVE", "partition": 2, "port": "q", "region": "inbox", "offset": 6},
        {"op": "SAMPLING_READ", "partition": 2, "port": "s", "region": "inbox", "offset": 6},
        {"op": "BRANCH_ON", "partition": 2, "region": "inbox", "offset": 6, "len": 2},
    ],
}

#: (step, kind) of the one finding each faulting step logs; the last step
#: branches on bytes the aborted deliveries left uninitialized.
_ABORTED = [
    (2, "RIGHT_REDZONE"),
    (3, "RIGHT_REDZONE"),
    (4, "RIGHT_REDZONE"),
    (5, "RIGHT_REDZONE"),
    (6, "MESSAGE_TOO_LONG"),
    (7, "WILD_ADDRESS"),
    (8, "UNINIT_USE"),
    (10, "QUEUE_FULL"),
    (11, "WILD_ADDRESS"),
    (13, "RIGHT_REDZONE"),
    (14, "RIGHT_REDZONE"),
]


def _guest_state(sim):
    """Every partition's bytes, initialization state and origins, and every
    port's held messages."""
    state = []
    for mem in sim.partitions.values():
        bits, (table, _, inner, ids) = mem.init_shadow.snapshot(0, mem.size_bytes)
        origins = tuple(table[i] for i in ids)
        state.append((bytes(mem.data), snapshot_bytes(bits), tuple(inner), origins))
    for port in sim.ports.values():
        state.append(tuple(port.queue) if hasattr(port, "queue") else port.latest)
    return state


class _StateRecorder(Simulator):
    """Records the guest state before and after each op, faulting or not."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.states = {}

        def recording(executor):
            def run(sim, fields, mem):
                before = _guest_state(sim)
                try:
                    return executor(sim, fields, mem)
                finally:
                    self.states[sim._step_index] = (before, _guest_state(sim))

            return run

        self._EXECUTORS = {op: recording(ex) for op, ex in Simulator._EXECUTORS.items()}


def test_an_aborted_op_logs_one_finding_and_changes_nothing():
    """A fault aborts its op alone: one finding at its own step, the
    destination bytes, their initialization state and the ports as they
    were, and the run goes on to its last step."""
    sim = _StateRecorder(load_scenario(_ABORTS))
    report = sim.run()
    last = len(_ABORTS["workload"]) - 1
    assert [(v.step, v.kind) for v in report.violations] == [*_ABORTED, (last, "UNINIT_USE")]
    faulting = {step for step, _ in _ABORTED}
    for step, (before, after) in sim.states.items():
        if step in faulting:
            assert before == after, step
        else:
            assert before != after or step == last, step
    before, _ = sim.states[13]  # the RECEIVE that faults keeps q's message
    assert before[2] != ()  # two partitions, then the ports q and s
    assert sorted(sim.states) == list(range(last + 1))
    assert report == run_scenario(load_scenario(_ABORTS))


# -- bound offsets ----------------------------------------------------------------


def _live_offset(mem, decoded, prefix=""):
    """The absolute ``<prefix>offset`` of a decoded step, operand or
    binding, from the run's live layout: its decoded offset (default 0)
    plus the base of its ``<prefix>region`` when one is named."""
    offset = decoded.get(prefix + "offset", 0)
    label = decoded.get(prefix + "region")
    return offset if label is None else offset + mem.layout.regions[label].base


def _checking(executor):
    """``executor``, after checking every offset the workload pass bound in
    the step against its decoded step and the live layout."""

    def run(sim, fields, mem):
        decoded = sim.decoded[sim._step_index]
        for prefix in ("", "src_", "dst_"):
            if prefix + "offset" in fields and fields["op"] != "UNPOISON_PADDING":
                assert fields[prefix + "offset"] == _live_offset(mem, decoded, prefix)
                sim.checked[prefix + "location"] += 1
        for key in ("a", "b"):
            operand = fields.get(key)
            if operand.__class__ is dict:
                assert operand["offset"] == _live_offset(mem, decoded[key])
                sim.checked["operand"] += 1
        for param, binding in fields.get("bindings", {}).items():
            assert binding["offset"] == _live_offset(mem, decoded["bindings"][param])
            sim.checked["binding"] += 1
        if fields["op"] == "UNPOISON_PADDING":  # the region's base, with no offset
            assert "offset" not in decoded
            assert fields["offset"] == mem.layout.regions[fields["region"]].base
            sim.checked["padding"] += 1
        return executor(sim, fields, mem)

    return run


class _BoundOffsetChecker(Simulator):
    _EXECUTORS = {op: _checking(executor) for op, executor in Simulator._EXECUTORS.items()}

    def __init__(self, scenario, decoded, checked):
        super().__init__(scenario)
        self.decoded = decoded
        self.checked = checked


def test_bound_offsets_equal_the_live_layout():
    """Every builtin, with and without a granularity override, and the first
    300 scheduling scenarios (locations in regions that come and go with
    ALLOC and RESET_PARTITION) run with each loaded offset checked before
    its step: the decoded offset plus the live base of the region it
    names.  ``padding_false_positive`` and its overrides bind the base of
    an UNPOISON_PADDING step's region as its offset."""
    loaded = []
    for name in builtin_names():
        doc = json.loads(read_utf8(Path(scenario_module._BUILTINS) / f"{name}.json"))
        loaded += [(load_builtin(name, granularity=g), doc) for g in (None, 1, 16)]
    for _, doc in islice(schedule_differential.scenarios(), 300):
        try:
            loaded.append((load_scenario(doc), doc))
        except ConfigError:
            continue
    checked = Counter()
    for scenario, doc in loaded:
        sim = _BoundOffsetChecker(scenario, doc["workload"], checked)
        assert sim.run() == run_scenario(scenario)
    assert set(checked) == {
        "location", "src_location", "dst_location", "operand", "binding", "padding"
    }


#: Two regions, the first of 4 bytes, so the second one's base moves with
#: the granularity; an operand, a COPY and a binding in the second region,
#: and findings at offsets in it.
_MOVING_BASES = {
    "name": "moving_bases",
    "partitions": [
        {"id": 1, "regions": [{"label": "head", "size": 4}, {"label": "buf", "size": 16}]}
    ],
    "syscalls": ["//!PRE: msan_check(a, 4);\nsyscall_declare(int, f, int*, a);"],
    "workload": [
        {"op": "ARITH", "partition": 1, "arith": "ADD", "type": "u32",
         "a": {"region": "buf", "offset": 4}, "b": 1},
        {"op": "COPY", "partition": 1, "src_region": "buf", "dst_region": "head", "len": 4},
        {"op": "SYSCALL", "partition": 1, "name": "f",
         "bindings": {"a": {"region": "buf", "offset": 8}}},
        {"op": "READ", "partition": 1, "region": "buf", "offset": 16, "len": 1},
    ],
}


@pytest.mark.parametrize("name", ["listing1_overflow", "moving_bases"])
def test_granularity_overrides_leave_the_original_bound(name):
    """Each override binds its own load of the steps, so the plain load
    runs as its golden or its offsets say, and where regions move with the
    granularity the overrides bind other offsets."""

    def load(**overrides):
        if name in builtin_names():
            return load_builtin(name, **overrides)
        return load_scenario(_MOVING_BASES, **overrides)

    overridden = [run_scenario(load(granularity=g)) for g in (16, 1)]
    report = run_scenario(load())
    if name == "listing1_overflow":
        golden = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
        assert render_report(report, "text") == golden
    if name == "moving_bases":  # the overrides bound other offsets
        assert all(o.violations != report.violations for o in overridden)
