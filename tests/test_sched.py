"""Scheduling, instrumented time and deadline accounting."""

import itertools
import random
from fractions import Fraction

import pytest

from partsan.errors import ConfigError
from partsan.sched import (
    INVALID_MODE,
    MAIN_CONTEXT,
    MAIN_PROCESS_ID,
    CheckCosts,
    MajorFrame,
    Process,
    ProcessState,
    ProcessTable,
    TimeModel,
    Window,
    check_deadline,
    get_my_id,
    to_fraction,
)

from oracles import ref_dispatch, ref_virtual, ref_window


def test_to_fraction_accepts_int_float_string():
    assert to_fraction(2) == Fraction(2)
    assert to_fraction(1.5) == Fraction(3, 2)
    assert to_fraction("3/2") == Fraction(3, 2)
    assert to_fraction(Fraction(7, 4)) == Fraction(7, 4)


def test_time_model_basic_advance():
    model = TimeModel(1)
    assert model.advance(1) == 1
    assert model.raw_ticks == 1


def test_time_model_check_costs():
    model = TimeModel(2, CheckCosts(base_step=1, asan_check=1))
    virtual = model.advance(1, asan_checks=1)
    assert model.raw_ticks == 2 and virtual == 1


def test_time_model_forty_step_example():
    model = TimeModel(2, CheckCosts(base_step=1, asan_check=1))
    for _ in range(40):
        model.advance(1, asan_checks=1)
    assert model.raw_ticks == 80 and model.virtual_now == 40
    uncompensated = TimeModel(1, CheckCosts(base_step=1, asan_check=1))
    for _ in range(40):
        uncompensated.advance(1, asan_checks=1)
    assert uncompensated.virtual_now == 80


def test_time_model_fractional_factor_never_drifts():
    rng = random.Random(9)
    for factor in (Fraction(3, 2), Fraction(7, 3), 2, Fraction(5, 4)):
        model = TimeModel(factor)
        for _ in range(200):
            model.advance(rng.randint(0, 5))
            assert model.virtual_now == ref_virtual(model.raw_ticks, factor)


def test_time_model_validation():
    with pytest.raises(ConfigError):
        TimeModel(0)
    with pytest.raises(ConfigError):
        TimeModel(-2)
    with pytest.raises(ConfigError):
        TimeModel(1).advance(-1)
    with pytest.raises(ConfigError):
        CheckCosts(base_step=-1)


def test_major_frame_rejects_bad_tilings():
    a = Window(1, 0, 50)
    with pytest.raises(ConfigError):
        MajorFrame(100, [a, Window(2, 40, 60)])  # overlap
    with pytest.raises(ConfigError):
        MajorFrame(100, [a, Window(2, 60, 40)])  # gap
    with pytest.raises(ConfigError):
        MajorFrame(120, [a, Window(2, 50, 50)])  # does not fill frame
    with pytest.raises(ConfigError):
        MajorFrame(100, [])
    with pytest.raises(ConfigError):
        MajorFrame(100, [Window(1, 0, 100), Window(2, 100, 0)])


def test_current_window_boundaries():
    frame = MajorFrame(100, [Window(1, 0, 50), Window(2, 50, 50)])
    window, remaining = frame.current_window(0)
    assert window.partition_id == 1 and remaining == 50
    window, remaining = frame.current_window(50)  # boundary starts next window
    assert window.partition_id == 2 and remaining == 50
    window, remaining = frame.current_window(99)
    assert window.partition_id == 2 and remaining == 1
    window, remaining = frame.current_window(100)
    assert window.partition_id == 1 and remaining == 50


def test_current_window_wraps_into_later_frames():
    frame = MajorFrame(100, [Window(1, 0, 50), Window(2, 50, 50)])
    window, remaining = frame.current_window(237)  # 237 mod 100 = 37
    assert window.partition_id == 1 and remaining == 13
    # a layout where position 37 falls in the second window
    frame = MajorFrame(100, [Window(1, 0, 37), Window(2, 37, 63)])
    window, remaining = frame.current_window(237)
    assert window.partition_id == 2 and remaining == 63


def test_current_window_agrees_with_linear_scan():
    rng = random.Random(21)
    for _ in range(200):
        lengths = [(i + 1, rng.randint(1, 40)) for i in range(rng.randint(1, 6))]
        windows, start = [], 0
        for pid, length in lengths:
            windows.append(Window(pid, start, length))
            start += length
        frame = MajorFrame(start, windows)
        for _ in range(20):
            t = rng.randint(0, 5 * start)
            window, remaining = frame.current_window(t)
            index, want_remaining = ref_window(lengths, t)
            assert window is windows[index]
            assert remaining == want_remaining
    with pytest.raises(ConfigError):
        frame.current_window(-1)


def _table(*prio_by_id):
    return ProcessTable(
        Process(process_id=pid, partition_id=1, priority=prio, time_capacity=100)
        for pid, prio in prio_by_id
    )


def test_dispatch_prefers_priority_then_lowest_id():
    table = _table((1, 5), (2, 9))
    assert table.dispatch(0).process_id == 2
    table = _table((1, 5), (2, 5))
    assert table.dispatch(0).process_id == 1


def test_dispatch_exhaustive_small_cases():
    # every priority assignment and READY subset for 1..3 processes
    for count in (1, 2, 3):
        for priorities in itertools.product((1, 2, 3), repeat=count):
            for ready_mask in range(1 << count):
                table = _table(*((i + 1, priorities[i]) for i in range(count)))
                ready = []
                for i, process in enumerate(table.processes):
                    if ready_mask >> i & 1:
                        ready.append((process.process_id, process.priority))
                    else:
                        process.state = ProcessState.DORMANT
                picked = table.dispatch(0)
                expected = ref_dispatch(ready)
                if expected is None:
                    assert picked is None
                else:
                    assert picked.process_id == expected


def test_dispatch_demotes_previous_and_idles_when_nothing_ready():
    table = _table((1, 5), (2, 9))
    first = table.dispatch(0)
    assert first.state is ProcessState.RUNNING
    first.priority = 0  # drops below process 1 at the next dispatch point
    second = table.dispatch(1)
    assert second.process_id == 1
    assert first.state is ProcessState.READY
    for process in table.processes:
        process.state = ProcessState.WAITING
    assert table.dispatch(2) is None
    assert table.running is None


def test_dispatch_records_first_activation_only():
    table = _table((1, 5))
    process = table.dispatch(7)
    assert process.activation_time == 7
    table.dispatch(9)
    assert process.activation_time == 7


def test_process_validation():
    with pytest.raises(ConfigError):
        Process(process_id=0, partition_id=1, priority=1, time_capacity=10)
    with pytest.raises(ConfigError):
        Process(process_id=1, partition_id=1, priority=1, time_capacity=0)
    with pytest.raises(ConfigError):
        Process(process_id=1, partition_id=1, priority=1, time_capacity=10, period=5)
    with pytest.raises(ConfigError):
        ProcessTable(
            [
                Process(process_id=1, partition_id=1, priority=1, time_capacity=10),
                Process(process_id=1, partition_id=1, priority=2, time_capacity=10),
            ]
        )


def _activated(capacity):
    process = Process(process_id=1, partition_id=1, priority=1, time_capacity=capacity)
    process.activation_time = 0
    return process


def test_check_deadline_examples():
    assert check_deadline(_activated(50), 40) is None
    miss = check_deadline(_activated(50), 80)
    assert miss is not None
    assert miss.elapsed == 80 and miss.budget == Fraction(50)
    overrides = {1: Fraction(2)}
    assert check_deadline(_activated(50), 80, overrides) is None
    miss = check_deadline(_activated(50), 101, overrides)
    assert miss is not None and miss.budget == Fraction(100)


def test_check_deadline_boundary_is_exact():
    assert check_deadline(_activated(50), 50) is None  # equal is on time
    assert check_deadline(_activated(50), 51) is not None
    overrides = {1: Fraction(3, 2)}  # budget 75
    assert check_deadline(_activated(50), 75, overrides) is None
    assert check_deadline(_activated(50), 76, overrides) is not None


def test_check_deadline_reports_once_per_activation():
    process = _activated(10)
    assert check_deadline(process, 20) is not None
    assert check_deadline(process, 30) is None
    assert process.deadline_missed


def test_check_deadline_ignores_unactivated():
    process = Process(process_id=1, partition_id=1, priority=1, time_capacity=10)
    assert check_deadline(process, 1000) is None


def test_get_my_id():
    process = Process(process_id=4, partition_id=1, priority=1, time_capacity=10)
    assert get_my_id(process) == 4
    assert get_my_id(MAIN_CONTEXT) == MAIN_PROCESS_ID
    assert get_my_id(MAIN_CONTEXT, legacy=True) == INVALID_MODE
    assert get_my_id(process, legacy=True) == 4
    with pytest.raises(ConfigError):
        get_my_id("main")
