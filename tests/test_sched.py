"""Scheduling, instrumented time and deadline accounting."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from partsan.errors import ConfigError
from partsan.sched import (
    INVALID_MODE,
    MAIN_PROCESS_ID,
    Process,
    ProcessTable,
    TimeModel,
    check_deadline,
    current_window,
    deadline_due,
    get_my_id,
)

from partsan.scenario import load_scenario, to_fraction

from oracles import ref_dispatch, ref_virtual, ref_window


def _time_model(slowdown_factor, **costs):
    """A TimeModel of a scenario whose ``time`` gives this factor and these
    check costs, as the loader checks them and fills in their defaults."""
    time = load_scenario(
        {"name": "t", "time": {"slowdown_factor": slowdown_factor, "costs": costs}}
    ).time
    return TimeModel(time["slowdown_factor"], time["costs"])


def test_to_fraction_accepts_int_float_string():
    assert to_fraction(2) == Fraction(2)
    assert to_fraction(1.5) == Fraction(3, 2)
    assert to_fraction("3/2") == Fraction(3, 2)
    assert to_fraction(Fraction(7, 4)) == Fraction(7, 4)
    assert to_fraction("1e3") == Fraction(1000)
    assert to_fraction("2.5E-1") == Fraction(1, 4)
    # an exponent string is read as a float, never as 10**exponent
    start = time.perf_counter()
    with pytest.raises(ConfigError):
        to_fraction("1e1000000")
    assert to_fraction("1e-1000000000") == 0
    assert time.perf_counter() - start < 0.1


def test_time_model_basic_advance():
    model = _time_model(1)
    assert model.advance(1) == 1
    assert model.raw_ticks == 1


def test_time_model_check_costs():
    model = _time_model(2, asan_check=1)
    virtual = model.advance(1, asan_checks=1)
    assert model.raw_ticks == 2 and virtual == 1


def test_time_model_forty_step_example():
    model = _time_model(2, asan_check=1)
    for _ in range(40):
        model.advance(1, asan_checks=1)
    assert model.raw_ticks == 80 and model.virtual_now == 40
    uncompensated = _time_model(1, asan_check=1)
    for _ in range(40):
        uncompensated.advance(1, asan_checks=1)
    assert uncompensated.virtual_now == 80


def test_time_model_fractional_factor_never_drifts():
    # virtual_now is stored by advance: every read between two advances,
    # and the value advance returns, is floor(raw / factor)
    rng = random.Random(9)
    for factor in (Fraction(3, 2), Fraction(7, 3), 2, Fraction(5, 4), "1e0"):
        model = _time_model(factor, asan_check=2, ub_check=1)
        assert model.virtual_now == 0
        for _ in range(200):
            virtual = model.advance(rng.randint(0, 5), asan_checks=rng.randint(0, 2),
                                    ub_checks=rng.randint(0, 1))
            want = ref_virtual(model.raw_ticks, to_fraction(factor))
            assert virtual == want
            for _ in range(rng.randint(0, 2)):
                assert model.virtual_now == want


def test_time_model_charges_the_check_costs_it_was_built_with():
    # random nonzero check costs and a p/q slowdown: raw ticks are the plain
    # sum of every charge, virtual time ref_virtual of it
    rng = random.Random(30)
    for _ in range(40):
        costs = {key: rng.randint(1, 9) for key in ("asan_check", "msan_check", "ub_check")}
        factor = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        model = _time_model(f"{factor.numerator}/{factor.denominator}", **costs)
        raw = 0
        for _ in range(100):
            base, checks = rng.randint(0, 5), [rng.randint(0, 3) for _ in range(3)]
            virtual = model.advance(base, *checks)
            raw += base + sum(n * costs[key] for n, key in zip(checks, costs))
            assert model.raw_ticks == raw
            assert virtual == model.virtual_now == ref_virtual(raw, factor)


def _frame(frame_len, *windows):
    """The loaded major frame of ``(partition, start, length)`` windows."""
    time = {
        "major_frame": {
            "frame_len": frame_len,
            "windows": [dict(zip(("partition", "start", "length"), w)) for w in windows],
        }
    }
    partitions = [{"id": pid} for pid in sorted({w[0] for w in windows})]
    return load_scenario({"name": "t", "partitions": partitions, "time": time}).time["major_frame"]


def test_major_frame_rejects_bad_tilings():
    # a gap, no windows and an empty window are rows of test_scenario's
    # test_each_rule_the_runtime_trusts_fails_at_load
    a = (1, 0, 50)
    for frame_len, windows, message in (
        (100, [a, (2, 40, 60)], "window 1 starts at 40, expected 50"),  # overlap
        (120, [a, (2, 50, 50)], "windows cover [0, 100) but frame length is 120"),
    ):
        with pytest.raises(ConfigError) as err:
            _frame(frame_len, *windows)
        assert (err.value.path, err.value.message.split(" (")[0]) == ("/time/major_frame", message)


def test_current_window_boundaries():
    frame = _frame(100, (1, 0, 50), (2, 50, 50))
    window, remaining = current_window(frame, 0)
    assert window["partition"] == 1 and remaining == 50
    window, remaining = current_window(frame, 50)  # boundary starts next window
    assert window["partition"] == 2 and remaining == 50
    window, remaining = current_window(frame, 99)
    assert window["partition"] == 2 and remaining == 1
    window, remaining = current_window(frame, 100)
    assert window["partition"] == 1 and remaining == 50


def test_current_window_wraps_into_later_frames():
    frame = _frame(100, (1, 0, 50), (2, 50, 50))
    window, remaining = current_window(frame, 237)  # 237 mod 100 = 37
    assert window["partition"] == 1 and remaining == 13
    # a layout where position 37 falls in the second window
    frame = _frame(100, (1, 0, 37), (2, 37, 63))
    window, remaining = current_window(frame, 237)
    assert window["partition"] == 2 and remaining == 63


def test_current_window_agrees_with_linear_scan():
    rng = random.Random(21)
    for _ in range(200):
        lengths = [(i + 1, rng.randint(1, 40)) for i in range(rng.randint(1, 6))]
        windows, start = [], 0
        for pid, length in lengths:
            windows.append((pid, start, length))
            start += length
        frame = _frame(start, *windows)
        for _ in range(20):
            t = rng.randint(0, 5 * start)
            window, remaining = current_window(frame, t)
            index, want_remaining = ref_window(lengths, t)
            assert window is frame["windows"][index]
            assert remaining == want_remaining
    with pytest.raises(ConfigError):
        current_window(frame, -1)


def _table(*prio_by_id):
    return ProcessTable(
        Process(process_id=pid, priority=prio, time_capacity=100)
        for pid, prio in prio_by_id
    )


def test_dispatch_prefers_priority_then_lowest_id():
    table = _table((1, 5), (2, 9))
    assert table.dispatch(0).process_id == 2
    table = _table((1, 5), (2, 5))
    assert table.dispatch(0).process_id == 1


def test_dispatch_exhaustive_small_cases():
    # every priority assignment for 1..3 processes
    for count in (1, 2, 3):
        for priorities in itertools.product((1, 2, 3), repeat=count):
            pairs = [(i + 1, priorities[i]) for i in range(count)]
            table = _table(*pairs)
            assert table.dispatch(0).process_id == ref_dispatch(pairs)
            assert table.running.process_id == ref_dispatch(pairs)


def test_dispatch_follows_a_priority_change():
    table = _table((1, 5), (2, 9))
    first = table.dispatch(0)
    assert table.running is first and first.process_id == 2
    first.priority = 0  # drops below process 1 at the next dispatch point
    second = table.dispatch(1)
    assert table.running is second and second.process_id == 1
    assert second.activation_time == 1


def test_dispatch_records_first_activation_only():
    table = _table((1, 5))
    process = table.dispatch(7)
    assert process.activation_time == 7
    table.dispatch(9)
    assert process.activation_time == 7


def test_dispatch_reactivates_a_periodic_process_at_the_last_boundary():
    table = ProcessTable(
        [Process(process_id=1, priority=1, time_capacity=3, period=5)]
    )
    process = table.dispatch(2)
    assert process.activation_time == 2
    table.dispatch(6)  # 2 + 5 not yet passed
    assert process.activation_time == 2
    process.deadline_missed = True
    table.dispatch(7)
    assert (process.activation_time, process.deadline_missed) == (7, False)
    # one floor division, however many periods passed
    table.dispatch(7 + 5 * 10**12 + 4)
    assert process.activation_time == 7 + 5 * 10**12


def _activated(capacity, multiplier=1):
    process = Process(
        process_id=1, priority=1, time_capacity=capacity, multiplier=multiplier
    )
    process.activation_time = 0
    return process


def test_check_deadline_examples():
    assert check_deadline(_activated(50), 40) is None
    miss = check_deadline(_activated(50), 80)
    assert miss is not None
    assert miss.elapsed == 80 and miss.budget == Fraction(50)
    assert check_deadline(_activated(50, Fraction(2)), 80) is None
    miss = check_deadline(_activated(50, Fraction(2)), 101)
    assert miss is not None and miss.budget == Fraction(100)


def test_check_deadline_boundary_is_exact():
    assert check_deadline(_activated(50), 50) is None  # equal is on time
    assert check_deadline(_activated(50), 51) is not None
    assert check_deadline(_activated(50, Fraction(3, 2)), 75) is None  # budget 75
    assert check_deadline(_activated(50, Fraction(3, 2)), 76) is not None


def test_deadline_due_is_the_first_missing_time():
    for capacity, multiplier in itertools.product(
        (1, 2, 3, 7, 50), (1, Fraction(3, 2), Fraction(7, 3), Fraction(5, 4), 2)
    ):
        for activation in (0, 1, 13):
            process = _activated(capacity, multiplier)
            process.activation_time = activation
            due = deadline_due(process)
            assert check_deadline(process, due - 1) is None
            assert not process.deadline_missed
            assert check_deadline(process, due) is not None
            assert deadline_due(process) == math.inf  # missed: no second report
    assert deadline_due(_activated(3, Fraction(7, 3))) == 8  # budget 7
    assert deadline_due(_activated(50, Fraction(3, 2))) == 76  # budget 75
    unactivated = Process(process_id=1, priority=1, time_capacity=10)
    assert deadline_due(unactivated) == math.inf


def test_integer_deadline_arithmetic_agrees_with_the_fraction_definition():
    # a miss is elapsed > time_capacity x multiplier, compared as Fractions;
    # deadline_due and check_deadline compute it in integers
    # the int 1 is the multiplier of a process without a timeout override
    multipliers = (1, Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(7, 3))
    for capacity, multiplier in itertools.product(range(1, 41), multipliers):
        budget = capacity * multiplier
        for activation in (0, 1, 13, 10**12):
            process = _activated(capacity, multiplier)
            process.activation_time = activation
            due = deadline_due(process)
            for elapsed in range(math.floor(budget) - 2, math.ceil(budget) + 3):
                process.deadline_missed = False
                miss = check_deadline(process, activation + elapsed)
                assert (miss is not None) == (elapsed > budget)
                assert (activation + elapsed >= due) == (elapsed > budget)
                if miss is not None:
                    assert miss.elapsed == elapsed
                    assert type(miss.budget) is type(multiplier) and miss.budget == budget
    # the harness prints str(budget): the same text for either form of 1
    for multiplier in (1, Fraction(1)):
        assert str(check_deadline(_activated(50, multiplier), 51).budget) == "50"
    assert str(check_deadline(_activated(3, Fraction(3, 2)), 5).budget) == "9/2"


def test_check_deadline_reports_once_per_activation():
    process = _activated(10)
    assert check_deadline(process, 20) is not None
    assert check_deadline(process, 30) is None
    assert process.deadline_missed


def test_check_deadline_ignores_unactivated():
    process = Process(process_id=1, priority=1, time_capacity=10)
    assert check_deadline(process, 1000) is None


def test_get_my_id():
    # the caller is a loaded GET_MY_ID step's: "main" or a declared process id
    assert get_my_id(4) == 4
    assert get_my_id("main") == MAIN_PROCESS_ID
    assert get_my_id("main", legacy=True) == INVALID_MODE
    assert get_my_id(4, legacy=True) == 4
