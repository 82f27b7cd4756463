"""Partition scheduling, process dispatch and the instrumented-time model.

Instrumentation makes guest code slower, so the simulator keeps two clocks:
raw ticks count actual work including per-check overhead, and virtual time
is what the guest observes.  Dividing the timer output by a constant
slowdown factor compensates globally for the overhead; individual deadline
budgets can additionally be stretched with per-process timeout overrides
when one process is hit harder than the average.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .errors import ConfigError

#: get_my_id result for the partition's main (pre-process) context.
MAIN_PROCESS_ID = "MAIN_PROCESS_ID"

#: Historical behavior: main context is rejected instead of identified.
INVALID_MODE = "INVALID_MODE"


class Process:
    """One schedulable process inside a partition.  ``multiplier`` stretches
    its deadline budget (a timeout override)."""

    __slots__ = (
        "process_id",
        "priority",
        "time_capacity",
        "period",
        "multiplier",
        "activation_time",
        "deadline_missed",
    )

    def __init__(
        self, process_id, priority, time_capacity, period=None, multiplier=1
    ):
        self.process_id = process_id
        self.priority = priority
        self.time_capacity = time_capacity
        self.period = period
        self.multiplier = multiplier
        self.activation_time: int | None = None
        self.deadline_missed = False


#: A process exceeded its (possibly override-stretched) time budget, a Fraction.
DeadlineMiss = namedtuple("DeadlineMiss", "process_id elapsed budget")


class TimeModel:
    """Raw tick accumulator plus the virtual clock the guest sees.

    virtual_now = floor(raw_ticks / slowdown_factor), computed exactly in
    integers once per ``advance`` so e.g. factor 3/2 never drifts.
    ``costs`` is a scenario's loaded ``time.costs``: the raw ticks charged
    per workload step and per sanitizer check.
    """

    def __init__(self, slowdown_factor: Fraction, costs: dict):
        self._num = slowdown_factor.numerator
        self._den = slowdown_factor.denominator
        self.costs = costs
        self.raw_ticks = 0
        self.virtual_now = 0

    def advance(
        self,
        step_base_cost: int,
        asan_checks: int = 0,
        msan_checks: int = 0,
        ub_checks: int = 0,
    ) -> int:
        """Charge one step's work; returns the new virtual time."""
        costs = self.costs
        self.raw_ticks += (
            step_base_cost
            + asan_checks * costs["asan_check"]
            + msan_checks * costs["msan_check"]
            + ub_checks * costs["ub_check"]
        )
        self.virtual_now = self.raw_ticks * self._den // self._num
        return self.virtual_now


def current_window(frame: dict, virtual_now: int) -> tuple[dict, int]:
    """The window of a loaded ``major_frame`` active at ``virtual_now``, and
    the ticks remaining in it; the windows tile ``[0, frame_len)``."""
    if virtual_now < 0:
        raise ConfigError(f"time must be >= 0, got {virtual_now}")
    pos = virtual_now % frame["frame_len"]
    for w in frame["windows"]:
        if w["start"] <= pos < w["start"] + w["length"]:
            return w, w["start"] + w["length"] - pos
    raise AssertionError("windows tile the frame; unreachable")


class ProcessTable:
    """Priority-preemptive dispatch among one partition's processes."""

    def __init__(self, processes):
        self.processes = list(processes)
        self.running: Process | None = None

    def dispatch(self, virtual_now: int) -> Process:
        """Run the top process: highest priority, lowest id on ties.

        Its first dispatch activates it.  A periodic process is re-activated
        at the last period boundary passed, which re-arms its deadline.
        """
        chosen = min(self.processes, key=lambda p: (-p.priority, p.process_id))
        if chosen.activation_time is None:
            chosen.activation_time = virtual_now
        elif chosen.period is not None and chosen.activation_time + chosen.period <= virtual_now:
            periods = (virtual_now - chosen.activation_time) // chosen.period
            chosen.activation_time += periods * chosen.period
            chosen.deadline_missed = False
        self.running = chosen
        return chosen


def deadline_due(process: Process) -> int | float:
    """The first virtual time at which ``check_deadline`` reports a miss of
    the process's current activation, or infinity when it cannot: not yet
    activated, or already missed.  Elapsed time is an integer, so
    ``elapsed > budget`` holds exactly from ``floor(budget) + 1`` on."""
    if process.activation_time is None or process.deadline_missed:
        return math.inf
    m = process.multiplier
    return process.activation_time + process.time_capacity * m.numerator // m.denominator + 1


def check_deadline(process: Process, virtual_now: int) -> DeadlineMiss | None:
    """Budget check against virtual time: a miss from ``deadline_due`` on,
    reported at most once per activation.  The budget is time_capacity
    times the process's multiplier."""
    if virtual_now < deadline_due(process):
        return None
    process.deadline_missed = True
    return DeadlineMiss(
        process_id=process.process_id,
        elapsed=virtual_now - process.activation_time,
        budget=process.time_capacity * process.multiplier,
    )


def get_my_id(caller, legacy: bool = False):
    """Identify the calling context ``caller``, a loaded GET_MY_ID step's
    ``"main"`` or the id of one of the partition's processes.

    Processes get their own id.  The partition main context historically got
    INVALID_MODE (it runs before process scheduling starts); current behavior
    gives it the distinguished MAIN_PROCESS_ID so early-boot code can
    identify itself.  ``legacy`` selects the old answer.
    """
    if caller == "main":
        return INVALID_MODE if legacy else MAIN_PROCESS_ID
    return caller
