"""Fault-injection harness: runs a scenario's workload and reports findings.

Execution is report-and-continue: a guest fault (redzone hit, uninitialized
use, arithmetic trap, port fault, contract mismatch) aborts only the
operation that caused it, gets recorded, and the run proceeds.  A fault
raised as a ViolationError aborts its op and is logged in one place, the
step loop of ``Simulator.run``; a violation a checker returns is left to the
op, which logs it and goes on or stops as that op requires.  Scenario
authoring mistakes (unknown regions, allocation after start, out of
memory) fail at load instead, so a loaded scenario runs to completion.

Runs are deterministic: the same scenario and overrides produce
byte-identical reports, which is what makes expected-violation verdicts and
golden outputs meaningful.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from fractions import Fraction

from .errors import ConfigError
from .guest_memory import PartitionMemory
from .msan_shadow import copy_propagate, unpoison_padding
from .ports import QueueingPort, SamplingPort
from .scenario import Scenario
from .sched import (
    Process,
    ProcessTable,
    TimeModel,
    check_deadline,
    deadline_due,
    get_my_id,
)
from .syscall_annotations import enforce_post, enforce_pre, resolve_sizes
from .ub_checks import (
    INT_SPECS,
    check_align,
    check_bool,
    check_enum,
    check_nonnull,
    checked_arith,
    checked_div,
    checked_shift,
    checked_trunc,
)
from .violations import Violation, ViolationError

__all__ = [
    "Event",
    "RunReport",
    "Simulator",
    "match_expected",
    "render_report",
    "run_scenario",
]


class Event(namedtuple("Event", "kind t info")):
    """Trace entry that is not a fault (dispatches, deadline misses, port
    status, identity queries)."""

    __slots__ = ()

    def to_line(self) -> str:
        parts = [f"EVENT kind={self.kind}", f"t={self.t}"]
        parts.extend(f"{key}={value}" for key, value in self.info.items())
        return " ".join(parts)


RunReport = namedtuple(
    "RunReport", "scenario_name seed raw_ticks virtual_ticks violations events verdict"
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

    Patterns are loaded ``expect`` objects, partial (an omitted key matches
    anything), so this is a bipartite perfect-matching problem, solved with
    Kuhn's augmenting paths over each pattern's fitting records, listed
    once: polynomial, where a search over assignments is factorial when the
    match fails.
    """
    records, patterns = list(records), list(patterns)
    if len(records) != len(patterns):
        return False
    of_kind: dict[str, list[int]] = {}
    for j, record in enumerate(records):
        of_kind.setdefault(record.kind, []).append(j)
    fitting = []
    for pattern in patterns:  # a record of its kind fits unless a field the pattern sets differs
        get = pattern.get
        partition, offset, context = get("partition"), get("offset"), get("context")
        fitting.append([
            j
            for j in of_kind.get(pattern["kind"], ())
            if (partition is None or partition == records[j].partition)
            and (offset is None or offset == records[j].offset)
            and (context is None or context == records[j].context)
        ])
    owner = [None] * len(records)
    return all(_place(i, fitting, owner) for i in range(len(patterns)))


class Simulator:
    """Builds runtime state from a Scenario and interprets its workload."""

    def __init__(self, scenario: Scenario, seed: int = 0):
        self.scenario = scenario
        self.seed = seed

        time = scenario.time
        multipliers = {
            (o["partition"], o["process"]): o["multiplier"] for o in time["timeout_overrides"]
        }
        one = Fraction(1)  # the multiplier of every process without an override
        reserved = scenario.reserved_init
        reserved_pattern = reserved["pattern"] if reserved["enabled"] else None
        # one origin table for every partition, so a port hop copies ids as they are
        origins = ([None], {})
        self.partitions: dict[int, PartitionMemory] = {}
        self.tables: dict[int, ProcessTable] = {}  # partitions that have processes
        # each partition starts with its declared regions as the load placed them
        for pconf in scenario.partitions:
            pid = pconf["id"]
            mem = PartitionMemory(
                pid,
                pconf["memory_size"],
                granularity=pconf["granularity"],
                redzone=pconf["redzone"],
                reserved_pattern=reserved_pattern,
                origins=origins,
                placed=pconf["regions"],
            )
            if pconf["processes"]:
                self.tables[pid] = ProcessTable(
                    Process(
                        process_id=proc["id"],
                        priority=proc["priority"],
                        time_capacity=proc["time_capacity"],
                        period=proc["period"],
                        multiplier=multipliers.get((pid, proc["id"]), one),
                    )
                    for proc in pconf["processes"]
                )
            if pconf["auto_start"]:
                mem.start()
            self.partitions[pid] = mem
        # per partition, the virtual time from which a dispatch can change
        # its table: 0 before the first dispatch, the next period boundary of
        # a periodic running process, infinity otherwise (or without a table)
        self._redispatch: dict[int, int | float] = {
            pid: 0 if pid in self.tables else math.inf for pid in self.partitions
        }
        # per table, the virtual time its running process first misses its
        # deadline (sched.deadline_due), and the earliest of them
        self._due: dict[int, int | float] = dict.fromkeys(self.tables, math.inf)
        self._next_due: int | float = math.inf

        self.model = TimeModel(time["slowdown_factor"], time["costs"])
        self.legacy_get_my_id = time["legacy_get_my_id"]

        self.syscalls = {spec.user_name: spec for spec in scenario.syscalls}

        self.ports: dict[str, SamplingPort | QueueingPort] = {
            pconf["name"]: SamplingPort(
                pconf["name"], pconf["max_message_size"], pconf["refresh_period"]
            )
            if pconf["kind"] == "sampling"
            else QueueingPort(pconf["name"], pconf["max_message_size"], pconf["capacity"])
            for pconf in scenario.ports
        }

        self.violations: list[Violation] = []
        self.events: list[Event] = []
        self._step_index = 0
        self._ub_checks_this_step = 0

    # -- plumbing ----------------------------------------------------------

    def _event(self, kind: str, **info) -> None:
        self.events.append(Event(kind=kind, t=self.model.virtual_now, info=info))

    def _log(self, violation: Violation) -> None:
        self.violations.append(violation._replace(step=self._step_index))

    def _contract(self, fields: dict, detail: str) -> None:
        """A self-checking step observed a result other than the declared one."""
        self._log(Violation(kind="API_CONTRACT", partition=fields["partition"], detail=detail))

    # -- execution ----------------------------------------------------------

    def run(self) -> RunReport:
        executors, model = self._EXECUTORS, self.model
        partitions, redispatch = self.partitions, self._redispatch
        advance, base_step = model.advance, model.costs["base_step"]
        for index, step in enumerate(self.scenario.workload):
            self._step_index = index
            op = step["op"]
            if op == "IDLE":
                advance(step["ticks"])
            else:
                pid = step["partition"]
                mem = partitions[pid]
                shadow, init_shadow = mem.shadow, mem.init_shadow
                # Every check a step makes is on its own partition's shadows,
                # so that partition's two counters give the step's check counts.
                asan_before = shadow.checks_performed
                msan_before = init_shadow.checks_performed
                self._ub_checks_this_step = 0
                if model.virtual_now >= redispatch[pid] and mem.layout.started:
                    self._dispatch(pid)
                try:
                    executors[op](self, step, mem)
                except ViolationError as exc:  # the op aborted; the step is still charged
                    self._log(exc.violation)
                advance(
                    base_step,
                    shadow.checks_performed - asan_before,
                    init_shadow.checks_performed - msan_before,
                    self._ub_checks_this_step,
                )
            if model.virtual_now >= self._next_due:
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

    def _dispatch(self, pid: int) -> None:
        """Dispatch a started partition's table when that can change it.

        No op changes a priority, so the top process is the same at every
        dispatch: only the first one activates it, and later ones matter
        only from a periodic process's next boundary, where they re-activate
        it.  Either way its deadline moves.
        """
        table = self.tables[pid]
        running = table.running
        process = table.dispatch(self.model.virtual_now)
        if process is not running:
            self._event("DISPATCH", part=pid, process=process.process_id)
        period = process.period
        self._redispatch[pid] = (
            math.inf if period is None else process.activation_time + period
        )
        self._due[pid] = deadline_due(process)
        self._next_due = min(self._due.values())

    def _watch_deadlines(self) -> None:
        """Check each running process whose deadline is due, in table order;
        ``run`` calls this only once the earliest one is due.  Virtual time
        never decreases, so this reports each miss at the same step as a
        check of every running process after every step would."""
        now = self.model.virtual_now
        due = self._due
        for pid, table in self.tables.items():
            if due[pid] > now:
                continue
            due[pid] = math.inf
            miss = check_deadline(table.running, now)  # a miss, as ``now`` is due
            self._event(
                "DEADLINE_MISS",
                part=pid,
                process=miss.process_id,
                elapsed=miss.elapsed,
                budget=str(miss.budget),
            )
        self._next_due = min(due.values())

    # -- memory ops -----------------------------------------------------------

    def _op_alloc(self, fields: dict, mem: PartitionMemory) -> None:
        mem.alloc_region(fields["size"], fields["label"])

    def _op_start_partition(self, fields: dict, mem: PartitionMemory) -> None:
        mem.start()

    def _op_reset_partition(self, fields: dict, mem: PartitionMemory) -> None:
        mem.reset_partition()
        self._event("PARTITION_RESET", part=fields["partition"])

    def _op_write(self, fields: dict, mem: PartitionMemory) -> None:
        data = fields.get("data") or bytes([fields["fill"]]) * fields["len"]
        mem.checked_write(fields["offset"], data, origin=f"step:{self._step_index}")

    def _op_read(self, fields: dict, mem: PartitionMemory) -> None:
        mem.checked_read(fields["offset"], fields["len"])

    def _op_copy(self, fields: dict, mem: PartitionMemory) -> None:
        src = fields["src_offset"]
        dst = fields["dst_offset"]
        length = fields["len"]
        mem.require_access(src, length, "R")
        mem.require_access(dst, length, "W")
        # one move within the byte space; overlapping spans copy as memmove does
        view = memoryview(mem.data)
        view[dst : dst + length] = view[src : src + length]
        # initialization state travels with the bytes, unchecked
        copy_propagate(mem.init_shadow, src, dst, length)

    def _use(self, mem: PartitionMemory, offset: int, length: int, site: str) -> bool:
        """Address check, then an initialization check at ``site``; False
        (with the finding logged) when the bytes are not addressable."""
        violation = mem.check_access(offset, length, "R")
        if violation is not None:
            self._log(violation)
            return False
        init_violation = mem.init_shadow.check(offset, length, site)
        if init_violation is not None:
            self._log(init_violation)
        return True

    def _op_branch_on(self, fields: dict, mem: PartitionMemory) -> None:
        self._use(mem, fields["offset"], fields["len"], "BRANCH")

    def _op_unpoison_padding(self, fields: dict, mem: PartitionMemory) -> None:
        unpoison_padding(mem.init_shadow, self.scenario.padding[fields["type"]], fields["offset"])

    # -- checked arithmetic ops --------------------------------------------------

    def _operands(
        self, fields: dict, mem: PartitionMemory, keys, width: int, signed: bool
    ) -> list | None:
        """Each named operand: an immediate value, or a little-endian load
        (``width`` bytes and ``signed`` unless the reference overrides them)
        with ARITH use checking.

        Returns None when some bytes cannot be read: the fault is recorded
        and the arithmetic step is skipped.
        """
        values = []
        for key in keys:
            operand = fields[key]
            if not isinstance(operand, int):
                size = operand.get("width", width)
                offset = operand["offset"]
                if not self._use(mem, offset, size, "ARITH"):
                    operand = None
                else:
                    operand = int.from_bytes(
                        mem.data[offset : offset + size],
                        "little",
                        signed=operand.get("signed", signed),
                    )
            values.append(operand)
        return None if None in values else values

    def _run_ub(self, fields: dict, result) -> None:
        self._ub_checks_this_step += 1
        if isinstance(result, Violation):
            self._log(result._replace(partition=fields["partition"]))

    def _op_arith(self, fields: dict, mem: PartitionMemory) -> None:
        spec = INT_SPECS[fields["type"]]
        values = self._operands(fields, mem, ("a", "b"), spec.width // 8, spec.signed)
        if values is not None:
            strict = fields.get("strict", False)
            self._run_ub(fields, checked_arith(fields["arith"], *values, spec, strict=strict))

    def _op_div(self, fields: dict, mem: PartitionMemory) -> None:
        spec = INT_SPECS[fields["type"]]
        values = self._operands(fields, mem, ("a", "b"), spec.width // 8, spec.signed)
        if values is not None:
            self._run_ub(fields, checked_div(*values, spec))

    def _op_shift(self, fields: dict, mem: PartitionMemory) -> None:
        spec = INT_SPECS[fields["type"]]
        values = self._operands(fields, mem, ("a",), spec.width // 8, spec.signed)
        if values is not None:
            result = checked_shift(*values, fields["s"], spec, strict=fields.get("strict", False))
            self._run_ub(fields, result)

    def _op_trunc(self, fields: dict, mem: PartitionMemory) -> None:
        from_spec = INT_SPECS[fields["from"]]
        values = self._operands(fields, mem, ("a",), from_spec.width // 8, from_spec.signed)
        if values is not None:
            self._run_ub(fields, checked_trunc(*values, from_spec, INT_SPECS[fields["to"]]))

    def _op_align_check(self, fields: dict, mem: PartitionMemory) -> None:
        self._run_ub(fields, check_align(fields["offset"], fields["align"]))

    def _op_null_check(self, fields: dict, mem: PartitionMemory) -> None:
        self._run_ub(fields, check_nonnull(fields["offset"], mem.partition_id))

    def _op_bool_check(self, fields: dict, mem: PartitionMemory) -> None:
        values = self._operands(fields, mem, ("a",), 1, False)
        if values is not None:
            self._run_ub(fields, check_bool(*values))

    def _op_enum_check(self, fields: dict, mem: PartitionMemory) -> None:
        values = self._operands(fields, mem, ("a",), 4, True)
        if values is not None:
            self._run_ub(fields, check_enum(*values, fields["enum"], fields["allowed"]))

    # -- syscalls ------------------------------------------------------------------

    def _op_syscall(self, fields: dict, mem: PartitionMemory) -> None:
        spec = self.syscalls[fields["name"]]
        resolved = resolve_sizes(spec, self.scenario.types, fields["bindings"])
        violation = enforce_pre(resolved, mem.init_shadow)
        if violation is not None:
            self._log(violation)
            self._event("SYSCALL", part=fields["partition"], name=spec.user_name,
                        outcome="blocked")
            return
        succeeded = fields["succeed"]
        enforce_post(resolved, mem.init_shadow, succeeded)
        self._event(
            "SYSCALL",
            part=fields["partition"],
            name=spec.user_name,
            outcome="ok" if succeeded else "failed",
        )

    # -- ports ----------------------------------------------------------------------

    def _op_send(self, fields: dict, mem: PartitionMemory) -> None:
        port = self.ports[fields["port"]]
        port.send(mem, fields["offset"], fields["len"], self.model.virtual_now)

    def _op_sampling_write(self, fields: dict, mem: PartitionMemory) -> None:
        port = self.ports[fields["port"]]
        port.write(mem, fields["offset"], fields["len"], self.model.virtual_now)

    def _op_receive(self, fields: dict, mem: PartitionMemory) -> None:
        port = self.ports[fields["port"]]
        result = port.receive(mem, fields["offset"], self.model.virtual_now)
        expected = fields.get("expect")
        if result is None:
            self._event("PORT_EMPTY", part=fields["partition"], port=fields["port"])
            if expected is not None:
                self._contract(fields, f"port '{fields['port']}' was empty, payload expected")
            return
        if fields.get("expect_empty", False):
            self._contract(
                fields,
                f"port '{fields['port']}' expected empty, delivered "
                f"{len(result.payload)} bytes",
            )
        if expected is not None and result.payload != expected:
            self._contract(
                fields,
                f"port '{fields['port']}' delivered 0x{result.payload.hex()}, "
                f"expected 0x{expected.hex()}",
            )

    def _op_sampling_read(self, fields: dict, mem: PartitionMemory) -> None:
        port = self.ports[fields["port"]]
        result = port.read(mem, fields["offset"], self.model.virtual_now)
        validity = "EMPTY" if result is None else result.validity
        info = {"part": fields["partition"], "port": fields["port"], "validity": validity}
        if result is not None:
            info["age"] = result.age
        self._event("SAMPLING_READ", **info)
        expected_validity = fields.get("expect_validity")
        if expected_validity is not None and expected_validity != validity:
            self._contract(
                fields, f"port '{fields['port']}' read {validity}, expected {expected_validity}"
            )
        expected = fields.get("expect")
        if expected is not None and (result is None or result.payload != expected):
            delivered = "nothing" if result is None else f"0x{result.payload.hex()}"
            self._contract(
                fields,
                f"port '{fields['port']}' delivered {delivered}, expected 0x{expected.hex()}",
            )

    # -- identity -------------------------------------------------------------------

    def _op_get_my_id(self, fields: dict, mem: PartitionMemory) -> None:
        caller = fields["caller"]
        result = get_my_id(caller, legacy=self.legacy_get_my_id)
        self._event(
            "GET_MY_ID",
            part=fields["partition"],
            caller=caller,
            result=result,
        )
        expected = fields.get("expect")
        if expected is not None and expected != result:
            self._contract(fields, f"get_my_id returned {result}, expected {expected}")

    # One executor per workload op, keyed by the op names of scenario._OPS;
    # IDLE has none, run() advances its ticks.
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
        "violations": [v._asdict() for v in report.violations],
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
