"""Fault-injection harness: runs a scenario's workload and reports findings.

Execution is report-and-continue: a guest fault (redzone hit, uninitialized
use, arithmetic trap, port fault, contract mismatch) aborts only the
operation that caused it, gets recorded, and the run proceeds.  Scenario
authoring mistakes (unknown regions, allocation after start, out of
memory) raise instead: they are bugs in the input, not findings.

Runs are deterministic: the same scenario and overrides produce
byte-identical reports, which is what makes expected-violation verdicts and
golden outputs meaningful.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction

from .errors import ConfigError
from .guest_memory import PartitionMemory, Phase
from .msan_shadow import PaddingRegistry, copy_propagate, unpoison_padding
from .ports import (
    PortDirection,
    QueueingChannel,
    QueueingPort,
    SamplingChannel,
    SamplingPort,
)
from .scenario import ExpectPattern, Scenario, Step
from .sched import MAIN_CONTEXT, Process, ProcessTable, TimeModel, check_deadline, get_my_id
from .syscall_annotations import (
    ParamBinding,
    TypeSizeTable,
    enforce_post,
    enforce_pre,
    resolve_sizes,
)
from .ub_checks import (
    ArithOp,
    EnumSpec,
    check_align,
    check_bool,
    check_enum,
    check_nonnull,
    checked_arith,
    checked_div,
    checked_shift,
    checked_trunc,
    int_spec,
)
from .violations import AccessKind, GuestAddr, UseSite, Violation, ViolationError

__all__ = [
    "Event",
    "RunReport",
    "Simulator",
    "match_expected",
    "parse_report_json",
    "render_report",
    "run_scenario",
]


@dataclass(frozen=True)
class Event:
    """Trace entry that is not a fault (dispatches, deadline misses, port
    status, identity queries)."""

    kind: str
    t: int
    info: dict = field(default_factory=dict)

    def to_line(self) -> str:
        parts = [f"EVENT kind={self.kind}", f"t={self.t}"]
        parts.extend(f"{key}={value}" for key, value in self.info.items())
        return " ".join(parts)


@dataclass(frozen=True)
class RunReport:
    scenario_name: str
    seed: int
    raw_ticks: int
    virtual_ticks: int
    violations: tuple
    events: tuple
    verdict: str


def _fits(record: Violation, pattern: ExpectPattern) -> bool:
    """Whether a record of the pattern's kind matches its other fields."""
    return (
        (pattern.partition is None or pattern.partition == record.partition)
        and (pattern.offset is None or pattern.offset == record.offset)
        and (pattern.context is None or pattern.context == record.context)
    )


def _place(start: int, fitting: list, owner: list) -> bool:
    """Give pattern ``start`` one of its ``fitting`` records, if need be by
    shifting matched patterns along an alternating path.  ``owner`` maps
    each record to the pattern holding it.  The depth-first search keeps
    its own stack, so long paths cannot exhaust Python's."""
    levels = []  # (pattern, its untried fitting records)
    taken = []  # the record each level's pattern takes over if the path ends
    seen = set()
    pattern = start
    while True:
        free = next((j for j in fitting[pattern] if owner[j] is None), None)
        if free is not None:
            owner[free] = pattern
            for (level, _), record in zip(levels, taken):
                owner[record] = level
            return True
        levels.append((pattern, iter(fitting[pattern])))
        pattern = None
        while pattern is None and levels:
            for j in levels[-1][1]:
                if j not in seen:
                    seen.add(j)
                    taken.append(j)
                    pattern = owner[j]
                    break
            else:
                levels.pop()
                if taken:
                    taken.pop()
        if pattern is None:
            return False


def match_expected(records, patterns) -> bool:
    """Multiset match: every record consumed by exactly one pattern.

    Patterns are partial (omitted fields match anything), so this is a
    bipartite perfect-matching problem, solved with Kuhn's augmenting paths
    over each pattern's fitting records, listed once: polynomial, where a
    search over assignments is factorial when the match fails.
    """
    records, patterns = list(records), list(patterns)
    if len(records) != len(patterns):
        return False
    of_kind: dict[str, list[int]] = {}
    for j, record in enumerate(records):
        of_kind.setdefault(record.kind, []).append(j)
    fitting = [
        [j for j in of_kind.get(p.kind, ()) if _fits(records[j], p)] for p in patterns
    ]
    owner = [None] * len(records)
    return all(_place(i, fitting, owner) for i in range(len(patterns)))


class _PartitionState:
    def __init__(self, mem: PartitionMemory, table: ProcessTable | None):
        self.mem = mem
        self.table = table
        self.last_dispatched: int | None = None


class Simulator:
    """Builds runtime state from a Scenario and interprets its workload."""

    def __init__(self, scenario: Scenario, seed: int = 0):
        self.scenario = scenario
        self.seed = seed

        self.partitions: dict[int, _PartitionState] = {}
        for pconf in scenario.partitions:
            mem = PartitionMemory(
                pconf.partition_id,
                pconf.memory_size,
                granularity=pconf.granularity,
                redzone=pconf.redzone,
                reserved_init=scenario.reserved_init,
            )
            for region in pconf.regions:
                mem.alloc_region(region.size, region.label)
            table = None
            if pconf.processes:
                table = ProcessTable(
                    Process(
                        process_id=proc.process_id,
                        partition_id=pconf.partition_id,
                        priority=proc.priority,
                        time_capacity=proc.time_capacity,
                        period=proc.period,
                    )
                    for proc in pconf.processes
                )
            if pconf.auto_start:
                mem.start()
            self.partitions[pconf.partition_id] = _PartitionState(mem, table)

        self.model = TimeModel(scenario.time.slowdown_factor, scenario.time.costs)
        self.overrides: dict[int, dict[int, Fraction]] = {}
        for pid, proc, multiplier in scenario.time.overrides:
            self.overrides.setdefault(pid, {})[proc] = multiplier
        self.legacy_get_my_id = scenario.time.legacy_get_my_id

        self.types = TypeSizeTable(scenario.types)
        self.padding = PaddingRegistry()
        for type_name, ranges in scenario.padding.items():
            self.padding.register(type_name, ranges, type_size=scenario.types[type_name])
        self.syscalls = {spec.user_name: spec for spec in scenario.syscalls}

        self.ports: dict[tuple[int, str], object] = {}
        for pconf in scenario.ports:
            if pconf.kind == "sampling":
                channel = SamplingChannel(
                    pconf.name, pconf.max_message_size, pconf.refresh_period
                )
                port_cls = SamplingPort
            else:
                channel = QueueingChannel(
                    pconf.name, pconf.max_message_size, pconf.capacity
                )
                port_cls = QueueingPort
            if pconf.source is not None:
                self.ports[(pconf.source, pconf.name)] = port_cls(
                    pconf.name, pconf.source, PortDirection.SOURCE, channel
                )
            if pconf.destination is not None:
                self.ports[(pconf.destination, pconf.name)] = port_cls(
                    pconf.name, pconf.destination, PortDirection.DESTINATION, channel
                )

        self.violations: list[Violation] = []
        self.events: list[Event] = []
        self._step_index = 0
        self._ub_checks_this_step = 0

    # -- plumbing ----------------------------------------------------------

    def _state(self, partition_id: int) -> _PartitionState:
        try:
            return self.partitions[partition_id]
        except KeyError:
            raise ConfigError(f"no partition {partition_id}") from None

    def _mem(self, partition_id: int) -> PartitionMemory:
        return self._state(partition_id).mem

    def _addr(self, step: Step, region_key: str, offset_key: str) -> GuestAddr:
        """Region-relative when a region is named, absolute otherwise."""
        mem = self._mem(step["partition"])
        offset = step[offset_key]
        label = step.get(region_key)
        if label is not None:
            offset += mem.region(label).base
        return mem.addr(offset)

    def _port(self, step: Step, want_cls):
        key = (step["partition"], step["port"])
        port = self.ports.get(key)
        if port is None:
            raise ConfigError(
                f"partition {key[0]} has no port '{key[1]}'", path=step.path
            )
        if not isinstance(port, want_cls):
            raise ConfigError(
                f"port '{key[1]}' is {type(port).__name__}, wrong op for it",
                path=step.path,
            )
        return port

    def _shadow_map(self):
        return {pid: state.mem.init_shadow for pid, state in self.partitions.items()}

    def _event(self, kind: str, **info) -> None:
        self.events.append(Event(kind=kind, t=self.model.virtual_now, info=info))

    def _log(self, violation: Violation) -> None:
        self.violations.append(replace(violation, step=self._step_index))

    def _contract(self, step: Step, detail: str) -> None:
        """A self-checking step observed a result other than the declared one."""
        self._log(Violation(kind="API_CONTRACT", partition=step["partition"], detail=detail))

    # -- execution ----------------------------------------------------------

    def run(self) -> RunReport:
        executors = self._EXECUTORS
        for index, step in enumerate(self.scenario.workload):
            self._step_index = index
            self._ub_checks_this_step = 0
            asan_before, msan_before = self._check_counts()
            self._dispatch_for(step)
            try:
                executors[step.op](self, step)
            except ConfigError as exc:
                if exc.path is not None:
                    raise
                raise ConfigError(str(exc), path=step.path) from exc
            asan_after, msan_after = self._check_counts()
            if step.op == "IDLE":
                self.model.advance(step["ticks"])
            else:
                self.model.advance(
                    self.model.costs.base_step,
                    asan_checks=asan_after - asan_before,
                    msan_checks=msan_after - msan_before,
                    ub_checks=self._ub_checks_this_step,
                )
            self._watch_deadlines()
        verdict = (
            "MATCH"
            if match_expected(self.violations, self.scenario.expect)
            else "MISMATCH"
        )
        return RunReport(
            scenario_name=self.scenario.name,
            seed=self.seed,
            raw_ticks=self.model.raw_ticks,
            virtual_ticks=self.model.virtual_now,
            violations=tuple(self.violations),
            events=tuple(self.events),
            verdict=verdict,
        )

    def _check_counts(self) -> tuple[int, int]:
        asan = sum(s.mem.shadow.checks_performed for s in self.partitions.values())
        msan = sum(s.mem.init_shadow.checks_performed for s in self.partitions.values())
        return asan, msan

    def _dispatch_for(self, step: Step) -> None:
        if step.op == "IDLE":
            return
        state = self._state(step["partition"])
        if state.table is None or state.mem.phase is not Phase.RUNNING:
            return
        now = self.model.virtual_now
        self._roll_activations(state, now)
        process = state.table.dispatch(now)
        dispatched = process.process_id if process else None
        if dispatched != state.last_dispatched:
            state.last_dispatched = dispatched
            if process is not None:
                self._event(
                    "DISPATCH", part=step["partition"], process=process.process_id
                )

    def _roll_activations(self, state: _PartitionState, now: int) -> None:
        for process in state.table.processes:
            if process.period is None or process.activation_time is None:
                continue
            while process.activation_time + process.period <= now:
                process.activation_time += process.period
                process.deadline_missed = False

    def _watch_deadlines(self) -> None:
        now = self.model.virtual_now
        for pid, state in self.partitions.items():
            if state.table is None:
                continue
            process = state.table.running
            if process is None:
                continue
            miss = check_deadline(process, now, self.overrides.get(pid))
            if miss is not None:
                self._event(
                    "DEADLINE_MISS",
                    part=pid,
                    process=miss.process_id,
                    elapsed=miss.elapsed,
                    budget=str(miss.budget),
                )

    # -- memory ops -----------------------------------------------------------

    def _op_alloc(self, step: Step) -> None:
        self._mem(step["partition"]).alloc_region(step["size"], step["label"])

    def _op_start_partition(self, step: Step) -> None:
        self._mem(step["partition"]).start()

    def _op_reset_partition(self, step: Step) -> None:
        self._mem(step["partition"]).reset_partition()
        self._event("PARTITION_RESET", part=step["partition"])

    def _op_write(self, step: Step) -> None:
        mem = self._mem(step["partition"])
        addr = self._addr(step, "region", "offset")
        try:
            mem.checked_write(addr, step["data"], origin=f"step:{self._step_index}")
        except ViolationError as exc:
            self._log(exc.violation)

    def _op_read(self, step: Step) -> None:
        mem = self._mem(step["partition"])
        addr = self._addr(step, "region", "offset")
        try:
            mem.checked_read(addr, step["len"])
        except ViolationError as exc:
            self._log(exc.violation)

    def _op_copy(self, step: Step) -> None:
        mem = self._mem(step["partition"])
        src = self._addr(step, "src_region", "src_offset")
        dst = self._addr(step, "dst_region", "dst_offset")
        length = step["len"]
        try:
            data = mem.checked_read(src, length)
            violation = mem.shadow.check_access(dst.offset, length, AccessKind.WRITE)
            if violation is not None:
                raise ViolationError(mem.name_region(violation))
        except ViolationError as exc:
            self._log(exc.violation)
            return
        mem.data[dst.offset : dst.offset + length] = data
        # initialization state travels with the bytes, unchecked
        copy_propagate(mem.init_shadow, src.offset, dst.offset, length)

    def _use(self, mem: PartitionMemory, offset: int, length: int, site: UseSite) -> bool:
        """Address check, then an initialization check at ``site``; False
        (with the finding logged) when the bytes are not addressable."""
        violation = mem.shadow.check_access(offset, length, AccessKind.READ)
        if violation is not None:
            self._log(mem.name_region(violation))
            return False
        init_violation = mem.init_shadow.check(offset, length, site)
        if init_violation is not None:
            self._log(init_violation)
        return True

    def _op_branch_on(self, step: Step) -> None:
        mem = self._mem(step["partition"])
        addr = self._addr(step, "region", "offset")
        self._use(mem, addr.offset, step["len"], UseSite.BRANCH)

    def _op_unpoison_padding(self, step: Step) -> None:
        mem = self._mem(step["partition"])
        base = mem.region(step["region"]).base
        unpoison_padding(mem.init_shadow, self.padding, step["type"], base)

    # -- checked arithmetic ops --------------------------------------------------

    def _operands(self, step: Step, keys, width: int, signed: bool) -> list | None:
        """Each named operand: an immediate value, or a little-endian load
        (``width`` bytes and ``signed`` unless the reference overrides them)
        with ARITH use checking.

        Returns None when some bytes cannot be read: the fault is recorded
        and the arithmetic step is skipped.
        """
        values = []
        for key in keys:
            operand = step[key]
            if not isinstance(operand, int):
                mem = self._mem(step["partition"])
                size = operand.get("width", width)
                offset = operand["offset"]
                label = operand.get("region")
                if label is not None:
                    offset += mem.region(label).base
                if not self._use(mem, offset, size, UseSite.ARITH):
                    operand = None
                else:
                    operand = int.from_bytes(
                        mem.data[offset : offset + size],
                        "little",
                        signed=operand.get("signed", signed),
                    )
            values.append(operand)
        return None if None in values else values

    def _run_ub(self, step: Step, result) -> None:
        self._ub_checks_this_step += 1
        if isinstance(result, Violation):
            self._log(replace(result, partition=step["partition"]))

    def _op_arith(self, step: Step) -> None:
        spec = int_spec(step["type"])
        values = self._operands(step, ("a", "b"), spec.width // 8, spec.signed)
        if values is not None:
            op = ArithOp(step["arith"])
            self._run_ub(step, checked_arith(op, *values, spec, strict=step["strict"]))

    def _op_div(self, step: Step) -> None:
        spec = int_spec(step["type"])
        values = self._operands(step, ("a", "b"), spec.width // 8, spec.signed)
        if values is not None:
            self._run_ub(step, checked_div(*values, spec))

    def _op_shift(self, step: Step) -> None:
        spec = int_spec(step["type"])
        values = self._operands(step, ("a",), spec.width // 8, spec.signed)
        if values is not None:
            self._run_ub(step, checked_shift(*values, step["s"], spec, strict=step["strict"]))

    def _op_trunc(self, step: Step) -> None:
        from_spec = int_spec(step["from"])
        values = self._operands(step, ("a",), from_spec.width // 8, from_spec.signed)
        if values is not None:
            self._run_ub(step, checked_trunc(*values, from_spec, int_spec(step["to"])))

    def _op_align_check(self, step: Step) -> None:
        addr = self._addr(step, "region", "offset")
        self._run_ub(step, check_align(addr, step["align"]))

    def _op_null_check(self, step: Step) -> None:
        addr = self._addr(step, "region", "offset")
        self._run_ub(step, check_nonnull(addr))

    def _op_bool_check(self, step: Step) -> None:
        values = self._operands(step, ("a",), 1, False)
        if values is not None:
            self._run_ub(step, check_bool(*values))

    def _op_enum_check(self, step: Step) -> None:
        values = self._operands(step, ("a",), 4, True)
        if values is not None:
            spec = EnumSpec(name=step["enum"], allowed=frozenset(step["allowed"]))
            self._run_ub(step, check_enum(*values, spec))

    # -- syscalls ------------------------------------------------------------------

    def _op_syscall(self, step: Step) -> None:
        spec = self.syscalls.get(step["name"])
        if spec is None:
            raise ConfigError(f"no syscall template '{step['name']}'", path=step.path)
        mem = self._mem(step["partition"])
        bindings = {}
        for param, raw in step["bindings"].items():
            offset = raw["offset"]
            label = raw.get("region")
            if label is not None:
                offset += mem.region(label).base
            bindings[param] = ParamBinding(
                addr=mem.addr(offset), length=raw.get("len")
            )
        resolved = resolve_sizes(spec, self.types, bindings)
        shadows = self._shadow_map()
        violation = enforce_pre(resolved, shadows)
        if violation is not None:
            self._log(violation)
            self._event("SYSCALL", part=step["partition"], name=spec.user_name,
                        outcome="blocked")
            return
        succeeded = step["succeed"]
        enforce_post(resolved, shadows, succeeded)
        self._event(
            "SYSCALL",
            part=step["partition"],
            name=spec.user_name,
            outcome="ok" if succeeded else "failed",
        )

    # -- ports ----------------------------------------------------------------------

    def _transmit(self, step: Step, port_method) -> None:
        """Queueing send or sampling write of ``len`` bytes at the step's location."""
        mem = self._mem(step["partition"])
        addr = self._addr(step, "region", "offset")
        try:
            port_method(mem, addr, step["len"], self.model.virtual_now)
        except ViolationError as exc:
            self._log(exc.violation)

    def _op_send(self, step: Step) -> None:
        self._transmit(step, self._port(step, QueueingPort).send)

    def _op_sampling_write(self, step: Step) -> None:
        self._transmit(step, self._port(step, SamplingPort).write)

    def _op_receive(self, step: Step) -> None:
        port = self._port(step, QueueingPort)
        mem = self._mem(step["partition"])
        addr = self._addr(step, "region", "offset")
        try:
            result = port.receive(mem, addr, self.model.virtual_now)
        except ViolationError as exc:
            self._log(exc.violation)
            return
        expected = step.get("expect")
        if result is None:
            self._event("PORT_EMPTY", part=step["partition"], port=step["port"])
            if expected is not None:
                self._contract(step, f"port '{step['port']}' was empty, payload expected")
            return
        if step["expect_empty"]:
            self._contract(
                step,
                f"port '{step['port']}' expected empty, delivered "
                f"{len(result.payload)} bytes",
            )
        if expected is not None and result.payload != expected:
            self._contract(
                step,
                f"port '{step['port']}' delivered 0x{result.payload.hex()}, "
                f"expected 0x{expected.hex()}",
            )

    def _op_sampling_read(self, step: Step) -> None:
        port = self._port(step, SamplingPort)
        mem = self._mem(step["partition"])
        addr = self._addr(step, "region", "offset")
        try:
            result = port.read(mem, addr, self.model.virtual_now)
        except ViolationError as exc:
            self._log(exc.violation)
            return
        validity = "EMPTY" if result is None else result.validity.value
        info = {"part": step["partition"], "port": step["port"], "validity": validity}
        if result is not None:
            info["age"] = result.age
        self._event("SAMPLING_READ", **info)
        expected_validity = step.get("expect_validity")
        if expected_validity is not None and expected_validity != validity:
            self._contract(
                step, f"port '{step['port']}' read {validity}, expected {expected_validity}"
            )
        expected = step.get("expect")
        if expected is not None and (result is None or result.payload != expected):
            delivered = "nothing" if result is None else f"0x{result.payload.hex()}"
            self._contract(
                step,
                f"port '{step['port']}' delivered {delivered}, expected 0x{expected.hex()}",
            )

    # -- identity -------------------------------------------------------------------

    def _op_get_my_id(self, step: Step) -> None:
        state = self._state(step["partition"])
        caller = step["caller"]
        if caller == "main":
            context = MAIN_CONTEXT
        else:
            if state.table is None:
                raise ConfigError(
                    f"partition {step['partition']} has no processes", path=step.path
                )
            context = state.table.get(caller)
        result = get_my_id(context, legacy=self.legacy_get_my_id)
        self._event(
            "GET_MY_ID",
            part=step["partition"],
            caller=caller,
            result=result,
        )
        expected = step.get("expect")
        if expected is not None and expected != result:
            self._contract(step, f"get_my_id returned {result}, expected {expected}")

    def _op_idle(self, step: Step) -> None:
        pass  # time advances in run(); nothing executes

    # One executor per workload op, keyed by the op names of scenario._OPS.
    _EXECUTORS = {
        "ALLOC": _op_alloc,
        "START_PARTITION": _op_start_partition,
        "RESET_PARTITION": _op_reset_partition,
        "WRITE": _op_write,
        "READ": _op_read,
        "COPY": _op_copy,
        "BRANCH_ON": _op_branch_on,
        "ARITH": _op_arith,
        "DIV": _op_div,
        "SHIFT": _op_shift,
        "TRUNC": _op_trunc,
        "ALIGN_CHECK": _op_align_check,
        "NULL_CHECK": _op_null_check,
        "BOOL_CHECK": _op_bool_check,
        "ENUM_CHECK": _op_enum_check,
        "SYSCALL": _op_syscall,
        "SEND": _op_send,
        "RECEIVE": _op_receive,
        "SAMPLING_WRITE": _op_sampling_write,
        "SAMPLING_READ": _op_sampling_read,
        "GET_MY_ID": _op_get_my_id,
        "UNPOISON_PADDING": _op_unpoison_padding,
        "IDLE": _op_idle,
    }


def run_scenario(scenario: Scenario, seed: int = 0) -> RunReport:
    return Simulator(scenario, seed=seed).run()


# -- report rendering ------------------------------------------------------------


def report_payload(report: RunReport) -> dict:
    """JSON-ready dict form of a report."""
    return {
        "scenario": report.scenario_name,
        "seed": report.seed,
        "raw_ticks": report.raw_ticks,
        "virtual_ticks": report.virtual_ticks,
        "violations": [asdict(v) for v in report.violations],
        "events": [
            {"kind": e.kind, "t": e.t, "info": dict(e.info)} for e in report.events
        ],
        "verdict": report.verdict,
    }


def render_report(report: RunReport, fmt: str = "text") -> str:
    if fmt == "text":
        lines = [
            f"SCENARIO name={report.scenario_name} raw={report.raw_ticks} "
            f"virtual={report.virtual_ticks}"
        ]
        lines.extend(v.to_line() for v in report.violations)
        lines.extend(e.to_line() for e in report.events)
        lines.append(f"VERDICT {report.verdict}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps(report_payload(report), indent=2, sort_keys=True) + "\n"
    raise ConfigError(f"unknown report format {fmt!r}, expected 'text' or 'json'")


def parse_report_json(text: str) -> RunReport:
    """Inverse of render_report(..., 'json'); used for round-trip checks."""
    payload = json.loads(text)
    return RunReport(
        scenario_name=payload["scenario"],
        seed=payload["seed"],
        raw_ticks=payload["raw_ticks"],
        virtual_ticks=payload["virtual_ticks"],
        violations=tuple(Violation(**v) for v in payload["violations"]),
        events=tuple(
            Event(kind=e["kind"], t=e["t"], info=e["info"]) for e in payload["events"]
        ),
        verdict=payload["verdict"],
    )
