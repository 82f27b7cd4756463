"""Partition scheduling, process dispatch and the instrumented-time model.

Instrumentation makes guest code slower, so the simulator keeps two clocks:
raw ticks count actual work including per-check overhead, and virtual time
is what the guest observes.  Dividing the timer output by a constant
slowdown factor compensates globally for the overhead; individual deadline
budgets can additionally be stretched with per-process timeout overrides
when one process is hit harder than the average.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import ConfigError

#: get_my_id result for the partition's main (pre-process) context.
MAIN_PROCESS_ID = "MAIN_PROCESS_ID"

#: Historical behavior: main context is rejected instead of identified.
INVALID_MODE = "INVALID_MODE"


class _MainContext:
    def __repr__(self):
        return "MAIN_CONTEXT"


#: Sentinel passed to get_my_id by code running outside any process.
MAIN_CONTEXT = _MainContext()


def to_fraction(value) -> Fraction:
    """Accept int, Fraction, float or '3/2'-style strings."""
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


class ProcessState(Enum):
    DORMANT = "DORMANT"
    READY = "READY"
    RUNNING = "RUNNING"
    WAITING = "WAITING"


@dataclass
class Process:
    """One schedulable process inside a partition."""

    process_id: int
    partition_id: int
    priority: int
    time_capacity: int
    period: int | None = None
    state: ProcessState = ProcessState.READY
    activation_time: int | None = None
    deadline_missed: bool = False

    def __post_init__(self):
        if self.process_id < 1:
            raise ConfigError(f"process id must be >= 1, got {self.process_id}")
        if self.time_capacity < 1:
            raise ConfigError(f"time capacity must be >= 1, got {self.time_capacity}")
        if self.period is not None and self.period < self.time_capacity:
            raise ConfigError(
                f"period {self.period} shorter than time capacity "
                f"{self.time_capacity} for process {self.process_id}"
            )


@dataclass(frozen=True)
class DeadlineMiss:
    """A process exceeded its (possibly override-stretched) time budget."""

    process_id: int
    partition_id: int
    elapsed: int
    budget: Fraction


@dataclass
class CheckCosts:
    """Raw ticks charged per workload step and per sanitizer check."""

    base_step: int = 1
    asan_check: int = 0
    msan_check: int = 0
    ub_check: int = 0

    def __post_init__(self):
        for name in ("base_step", "asan_check", "msan_check", "ub_check"):
            if getattr(self, name) < 0:
                raise ConfigError(f"cost '{name}' must be >= 0")


class TimeModel:
    """Raw tick accumulator plus the virtual clock the guest sees.

    virtual_now = floor(raw_ticks / slowdown_factor), computed exactly with
    rational arithmetic so e.g. factor 3/2 never drifts.
    """

    def __init__(self, slowdown_factor=1, costs: CheckCosts | None = None):
        factor = to_fraction(slowdown_factor)
        if factor <= 0:
            raise ConfigError(f"slowdown factor must be positive, got {slowdown_factor}")
        self.slowdown_factor = factor
        self.costs = costs or CheckCosts()
        self.raw_ticks = 0

    @property
    def virtual_now(self) -> int:
        f = self.slowdown_factor
        return (self.raw_ticks * f.denominator) // f.numerator

    def advance(
        self,
        step_base_cost: int,
        asan_checks: int = 0,
        msan_checks: int = 0,
        ub_checks: int = 0,
    ) -> int:
        """Charge one step's work; returns the new virtual time."""
        if min(step_base_cost, asan_checks, msan_checks, ub_checks) < 0:
            raise ConfigError("advance amounts must be non-negative")
        self.raw_ticks += (
            step_base_cost
            + asan_checks * self.costs.asan_check
            + msan_checks * self.costs.msan_check
            + ub_checks * self.costs.ub_check
        )
        return self.virtual_now


@dataclass(frozen=True)
class Window:
    partition_id: int
    start: int
    length: int


class MajorFrame:
    """Cyclic partition schedule: windows must tile [0, frame_len) exactly."""

    def __init__(self, frame_len: int, windows):
        windows = tuple(windows)
        if frame_len < 1:
            raise ConfigError(f"frame length must be >= 1, got {frame_len}")
        if not windows:
            raise ConfigError("major frame needs at least one window")
        expected_start = 0
        for i, w in enumerate(windows):
            if w.length < 1:
                raise ConfigError(f"window {i} has non-positive length {w.length}")
            if w.start != expected_start:
                raise ConfigError(
                    f"window {i} starts at {w.start}, expected {expected_start} "
                    f"(windows must be sorted, disjoint and gap-free)"
                )
            expected_start += w.length
        if expected_start != frame_len:
            raise ConfigError(
                f"windows cover [0, {expected_start}) but frame length is {frame_len}"
            )
        self.frame_len = frame_len
        self.windows = windows

    def current_window(self, virtual_now: int) -> tuple[Window, int]:
        """Window active at ``virtual_now`` and ticks remaining in it."""
        if virtual_now < 0:
            raise ConfigError(f"time must be >= 0, got {virtual_now}")
        pos = virtual_now % self.frame_len
        for w in self.windows:
            if w.start <= pos < w.start + w.length:
                return w, w.start + w.length - pos
        raise AssertionError("windows tile the frame; unreachable")


class ProcessTable:
    """Priority-preemptive dispatch among one partition's processes."""

    def __init__(self, processes):
        self.processes = list(processes)
        ids = [p.process_id for p in self.processes]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate process ids: {sorted(ids)}")
        self.running: Process | None = None

    def get(self, process_id: int) -> Process:
        for p in self.processes:
            if p.process_id == process_id:
                return p
        raise ConfigError(f"no process {process_id} in this partition")

    def dispatch(self, virtual_now: int) -> Process | None:
        """Pick the highest-priority READY process (lowest id on ties).

        The previously running process is demoted to READY first.  Returns
        None when nothing is runnable: the partition idles, which is not an
        error.
        """
        if self.running is not None and self.running.state is ProcessState.RUNNING:
            self.running.state = ProcessState.READY
        candidates = [p for p in self.processes if p.state is ProcessState.READY]
        if not candidates:
            self.running = None
            return None
        chosen = min(candidates, key=lambda p: (-p.priority, p.process_id))
        chosen.state = ProcessState.RUNNING
        if chosen.activation_time is None:
            chosen.activation_time = virtual_now
            chosen.deadline_missed = False
        self.running = chosen
        return chosen


def check_deadline(
    process: Process,
    virtual_now: int,
    overrides: dict[int, Fraction] | None = None,
) -> DeadlineMiss | None:
    """Budget check against virtual time.

    The effective budget is time_capacity times the process's override
    multiplier (if any), compared exactly.  Reported at most once per
    activation.
    """
    if process.activation_time is None or process.deadline_missed:
        return None
    budget = Fraction(process.time_capacity)
    if overrides:
        multiplier = overrides.get(process.process_id)
        if multiplier is not None:
            budget *= to_fraction(multiplier)
    elapsed = virtual_now - process.activation_time
    if elapsed <= budget:
        return None
    process.deadline_missed = True
    return DeadlineMiss(
        process_id=process.process_id,
        partition_id=process.partition_id,
        elapsed=elapsed,
        budget=budget,
    )


def get_my_id(caller, legacy: bool = False):
    """Identify the calling context.

    Processes get their own id.  The partition main context historically got
    INVALID_MODE (it runs before process scheduling starts); current behavior
    gives it the distinguished MAIN_PROCESS_ID so early-boot code can
    identify itself.  ``legacy`` selects the old answer.
    """
    if caller is MAIN_CONTEXT:
        return INVALID_MODE if legacy else MAIN_PROCESS_ID
    if isinstance(caller, Process):
        return caller.process_id
    raise ConfigError(f"caller must be a Process or MAIN_CONTEXT, got {caller!r}")
