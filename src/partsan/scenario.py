"""Scenario files: schema, validation and builtin corpus access.

A scenario is one JSON document describing partitions (memory, regions,
processes), the time model, ports, type/padding declarations, syscall
templates, an ordered workload and the violations the run is expected to
produce.  Loading validates everything up front; errors carry a JSON
pointer to the offending element so authoring mistakes are cheap to find.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from importlib import resources
from pathlib import Path
from types import MappingProxyType

from .errors import ConfigError, ParseError
from .msan_shadow import ReservedInitConfig
from .sched import CheckCosts, MajorFrame, Window, to_fraction
from .syscall_annotations import SyscallSpec, parse_template
from .ub_checks import UbKind
from .violations import UseSite

_NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

#: Violation kinds that may appear in reports and expectations.
VIOLATION_KINDS = frozenset(
    {
        "LEFT_REDZONE",
        "RIGHT_REDZONE",
        "PARTITION_RESET",
        "MANUAL_BLACKLIST",
        "WILD_ADDRESS",
        "UNINIT_USE",
        "MESSAGE_TOO_LONG",
        "QUEUE_FULL",
        "API_CONTRACT",
    }
    | {kind.value for kind in UbKind}
)

_INT_TYPE_NAMES = ("i8", "u8", "i16", "u16", "i32", "u32", "i64", "u64")


# -- config dataclasses -------------------------------------------------------


@dataclass(frozen=True)
class RegionConfig:
    label: str
    size: int


@dataclass(frozen=True)
class ProcessConfig:
    process_id: int
    priority: int
    time_capacity: int
    period: int | None


@dataclass(frozen=True)
class PartitionConfig:
    partition_id: int
    memory_size: int
    granularity: int
    redzone: int
    auto_start: bool
    regions: tuple[RegionConfig, ...]
    processes: tuple[ProcessConfig, ...]


@dataclass(frozen=True)
class PortConfig:
    name: str
    kind: str  # sampling | queueing
    source: int | None
    destination: int | None
    max_message_size: int
    refresh_period: int | None = None
    capacity: int | None = None


@dataclass(frozen=True)
class TimeConfig:
    slowdown_factor: Fraction
    costs: CheckCosts
    frame: MajorFrame | None
    overrides: tuple  # of (partition_id, process_id, Fraction)
    legacy_get_my_id: bool


@dataclass(frozen=True)
class ExpectPattern:
    """Partial match against one violation record; omitted fields match
    anything.  The run verdict is a multiset comparison."""

    kind: str
    partition: int | None = None
    offset: int | None = None
    context: str | None = None


@dataclass(frozen=True)
class Step:
    op: str
    fields: dict
    path: str  # JSON pointer, for runtime error messages

    def __getitem__(self, key):
        return self.fields[key]

    def get(self, key, default=None):
        return self.fields.get(key, default)


@dataclass(frozen=True)
class Scenario:
    name: str
    partitions: tuple[PartitionConfig, ...]
    time: TimeConfig
    ports: tuple[PortConfig, ...]
    types: dict
    padding: dict
    reserved_init: ReservedInitConfig
    syscalls: tuple[SyscallSpec, ...]
    workload: tuple[Step, ...]
    expect: tuple[ExpectPattern, ...]

    def with_overrides(
        self, slowdown_factor=None, granularity: int | None = None
    ) -> "Scenario":
        """Per-run knobs: replace the slowdown factor and/or force one
        shadow granularity on every partition."""
        scenario = self
        if slowdown_factor is not None:
            factor = to_fraction(slowdown_factor)
            if factor <= 0:
                raise ConfigError(f"slowdown factor must be positive, got {slowdown_factor}")
            scenario = replace(scenario, time=replace(scenario.time, slowdown_factor=factor))
        if granularity is not None:
            scenario = replace(
                scenario,
                partitions=tuple(
                    replace(p, granularity=granularity) for p in scenario.partitions
                ),
            )
        return scenario


# -- field helpers ------------------------------------------------------------
#
# ``path`` is the JSON pointer an error is reported at; the default "" stands
# for the value itself, and the step loader prefixes where the value sits.

_MISSING = object()


def _get(obj: dict, key: str, path: str, default=_MISSING):
    if key in obj:
        return obj[key]
    if default is _MISSING:
        raise ConfigError(f"missing required key '{key}'", f"{path}/{key}")
    return default


def _as_int(value, path: str = "", minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"expected an integer, got {value!r}", path)
    if minimum is not None and value < minimum:
        raise ConfigError(f"expected an integer >= {minimum}, got {value}", path)
    return value


def _as_str(value, path: str = "") -> str:
    if not isinstance(value, str):
        raise ConfigError(f"expected a string, got {value!r}", path)
    return value


def _as_bool(value, path: str = "") -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"expected a boolean, got {value!r}", path)
    return value


def _as_list(value, path: str = "") -> list:
    if not isinstance(value, list):
        raise ConfigError(f"expected a list, got {value!r}", path)
    return value


def _as_dict(value, path: str = "") -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"expected an object, got {value!r}", path)
    return value


def _as_name(value, path: str = "") -> str:
    value = _as_str(value, path)
    if not _NAME_RE.match(value):
        raise ConfigError(
            f"name {value!r} must match [A-Za-z0-9_.-]+ (it appears in reports)", path
        )
    return value


def _as_hex(value, path: str = "") -> bytes:
    value = _as_str(value, path)
    try:
        data = bytes.fromhex(value)
    except ValueError:
        raise ConfigError(f"not a hex byte string: {value!r}", path) from None
    if not data:
        raise ConfigError("hex byte string must not be empty", path)
    return data


def _as_fraction(value, path: str) -> Fraction:
    try:
        factor = to_fraction(value)
    except (ValueError, TypeError, ZeroDivisionError):
        raise ConfigError(f"not a number or 'p/q' ratio: {value!r}", path) from None
    return factor


def _no_extras(obj: dict, allowed, path: str) -> None:
    extras = sorted(set(obj) - set(allowed))
    if extras:
        raise ConfigError(f"unknown keys {extras}", path)


def _as_int_type(value, path: str = "") -> str:
    value = _as_str(value, path)
    if value not in _INT_TYPE_NAMES:
        raise ConfigError(
            f"unknown integer type {value!r}, expected one of {_INT_TYPE_NAMES}", path
        )
    return value


# -- section loaders ------------------------------------------------------------


def _load_partition(obj, path: str) -> PartitionConfig:
    obj = _as_dict(obj, path)
    _no_extras(
        obj,
        ("id", "memory_size", "granularity", "redzone", "auto_start", "regions", "processes"),
        path,
    )
    pid = _as_int(_get(obj, "id", path), f"{path}/id", minimum=1)
    memory_size = _as_int(_get(obj, "memory_size", path, 4096), f"{path}/memory_size", minimum=1)
    granularity = _as_int(_get(obj, "granularity", path, 8), f"{path}/granularity", minimum=1)
    redzone = _as_int(_get(obj, "redzone", path, 16), f"{path}/redzone", minimum=1)
    auto_start = _as_bool(_get(obj, "auto_start", path, True), f"{path}/auto_start")

    regions = []
    for i, robj in enumerate(_as_list(_get(obj, "regions", path, []), f"{path}/regions")):
        rpath = f"{path}/regions/{i}"
        robj = _as_dict(robj, rpath)
        _no_extras(robj, ("label", "size"), rpath)
        label = _as_name(_get(robj, "label", rpath), f"{rpath}/label")
        if any(r.label == label for r in regions):
            raise ConfigError(f"duplicate region label '{label}'", f"{rpath}/label")
        size = _as_int(_get(robj, "size", rpath), f"{rpath}/size", minimum=1)
        regions.append(RegionConfig(label=label, size=size))

    processes = []
    for i, pobj in enumerate(_as_list(_get(obj, "processes", path, []), f"{path}/processes")):
        ppath = f"{path}/processes/{i}"
        pobj = _as_dict(pobj, ppath)
        _no_extras(pobj, ("id", "priority", "time_capacity", "period"), ppath)
        proc_id = _as_int(_get(pobj, "id", ppath), f"{ppath}/id", minimum=1)
        if any(p.process_id == proc_id for p in processes):
            raise ConfigError(f"duplicate process id {proc_id}", f"{ppath}/id")
        priority = _as_int(_get(pobj, "priority", ppath, 1), f"{ppath}/priority")
        capacity = _as_int(_get(pobj, "time_capacity", ppath), f"{ppath}/time_capacity", minimum=1)
        period = _get(pobj, "period", ppath, None)
        if period is not None:
            period = _as_int(period, f"{ppath}/period", minimum=1)
            if period < capacity:
                raise ConfigError(
                    f"period {period} shorter than time_capacity {capacity}",
                    f"{ppath}/period",
                )
        processes.append(
            ProcessConfig(
                process_id=proc_id, priority=priority, time_capacity=capacity, period=period
            )
        )

    return PartitionConfig(
        partition_id=pid,
        memory_size=memory_size,
        granularity=granularity,
        redzone=redzone,
        auto_start=auto_start,
        regions=tuple(regions),
        processes=tuple(processes),
    )


def _load_time(obj, path: str, partition_ids, process_keys) -> TimeConfig:
    obj = _as_dict(obj, path)
    _no_extras(
        obj,
        ("slowdown_factor", "costs", "major_frame", "timeout_overrides", "legacy_get_my_id"),
        path,
    )
    factor = _as_fraction(_get(obj, "slowdown_factor", path, 1), f"{path}/slowdown_factor")
    if factor <= 0:
        raise ConfigError(f"slowdown factor must be positive, got {factor}", f"{path}/slowdown_factor")

    cobj = _as_dict(_get(obj, "costs", path, {}), f"{path}/costs")
    _no_extras(cobj, ("base_step", "asan_check", "msan_check", "ub_check"), f"{path}/costs")
    costs = CheckCosts(
        base_step=_as_int(_get(cobj, "base_step", path, 1), f"{path}/costs/base_step", minimum=0),
        asan_check=_as_int(_get(cobj, "asan_check", path, 0), f"{path}/costs/asan_check", minimum=0),
        msan_check=_as_int(_get(cobj, "msan_check", path, 0), f"{path}/costs/msan_check", minimum=0),
        ub_check=_as_int(_get(cobj, "ub_check", path, 0), f"{path}/costs/ub_check", minimum=0),
    )

    frame = None
    fobj = _get(obj, "major_frame", path, None)
    if fobj is not None:
        fpath = f"{path}/major_frame"
        fobj = _as_dict(fobj, fpath)
        _no_extras(fobj, ("frame_len", "windows"), fpath)
        frame_len = _as_int(_get(fobj, "frame_len", fpath), f"{fpath}/frame_len", minimum=1)
        windows = []
        for i, wobj in enumerate(_as_list(_get(fobj, "windows", fpath), f"{fpath}/windows")):
            wpath = f"{fpath}/windows/{i}"
            wobj = _as_dict(wobj, wpath)
            _no_extras(wobj, ("partition", "start", "length"), wpath)
            wpid = _as_int(_get(wobj, "partition", wpath), f"{wpath}/partition")
            if wpid not in partition_ids:
                raise ConfigError(f"window references unknown partition {wpid}", f"{wpath}/partition")
            windows.append(
                Window(
                    partition_id=wpid,
                    start=_as_int(_get(wobj, "start", wpath), f"{wpath}/start", minimum=0),
                    length=_as_int(_get(wobj, "length", wpath), f"{wpath}/length", minimum=1),
                )
            )
        try:
            frame = MajorFrame(frame_len, windows)
        except ConfigError as exc:
            raise ConfigError(str(exc), fpath) from None

    overrides = []
    for i, oobj in enumerate(
        _as_list(_get(obj, "timeout_overrides", path, []), f"{path}/timeout_overrides")
    ):
        opath = f"{path}/timeout_overrides/{i}"
        oobj = _as_dict(oobj, opath)
        _no_extras(oobj, ("partition", "process", "multiplier"), opath)
        opid = _as_int(_get(oobj, "partition", opath), f"{opath}/partition")
        oproc = _as_int(_get(oobj, "process", opath), f"{opath}/process")
        if (opid, oproc) not in process_keys:
            raise ConfigError(
                f"override references unknown process {oproc} of partition {opid}", opath
            )
        multiplier = _as_fraction(_get(oobj, "multiplier", opath), f"{opath}/multiplier")
        if multiplier < 1:
            raise ConfigError(f"multiplier must be >= 1, got {multiplier}", f"{opath}/multiplier")
        overrides.append((opid, oproc, multiplier))

    legacy = _as_bool(_get(obj, "legacy_get_my_id", path, False), f"{path}/legacy_get_my_id")
    return TimeConfig(
        slowdown_factor=factor,
        costs=costs,
        frame=frame,
        overrides=tuple(overrides),
        legacy_get_my_id=legacy,
    )


def _load_port(obj, path: str, partition_ids) -> PortConfig:
    obj = _as_dict(obj, path)
    kind = _as_str(_get(obj, "kind", path), f"{path}/kind")
    if kind == "sampling":
        _no_extras(
            obj, ("name", "kind", "source", "destination", "max_message_size", "refresh_period"), path
        )
    elif kind == "queueing":
        _no_extras(
            obj, ("name", "kind", "source", "destination", "max_message_size", "capacity"), path
        )
    else:
        raise ConfigError(f"port kind must be 'sampling' or 'queueing', got {kind!r}", f"{path}/kind")
    name = _as_name(_get(obj, "name", path), f"{path}/name")
    source = _get(obj, "source", path, None)
    destination = _get(obj, "destination", path, None)
    for label, value in (("source", source), ("destination", destination)):
        if value is not None:
            value = _as_int(value, f"{path}/{label}")
            if value not in partition_ids:
                raise ConfigError(f"{label} references unknown partition {value}", f"{path}/{label}")
    if source is None and destination is None:
        raise ConfigError("port needs a source and/or a destination", path)
    if source is not None and source == destination:
        raise ConfigError("source and destination must be different partitions", path)
    max_size = _as_int(_get(obj, "max_message_size", path), f"{path}/max_message_size", minimum=1)
    refresh = capacity = None
    if kind == "sampling":
        refresh = _as_int(_get(obj, "refresh_period", path), f"{path}/refresh_period", minimum=0)
    else:
        capacity = _as_int(_get(obj, "capacity", path), f"{path}/capacity", minimum=1)
    return PortConfig(
        name=name,
        kind=kind,
        source=source,
        destination=destination,
        max_message_size=max_size,
        refresh_period=refresh,
        capacity=capacity,
    )


# -- workload steps ---------------------------------------------------------------
#
# Every op is one row of _OPS: its fields, each with a value check and a
# default, plus at most one check across fields.  Checks report paths
# relative to the object they look at (none for the value itself), so a
# JSON pointer is only assembled once a value turns out to be wrong.

_REQUIRED = object()  # default marker: the key must be given
_ABSENT = object()  # default marker: an absent key stays out of the fields


class _Fields:
    """Rows of ``(key, check, default)`` describing one JSON object.

    ``check(fields)`` runs on the loaded fields; ``extra_keys`` are allowed
    in the object but not loaded (a step's ``op``).
    """

    def __init__(self, *rows, check=None, extra_keys=()):
        self.rows = rows
        self.keys = frozenset(extra_keys).union(key for key, _, _ in rows)
        self.check = check

    def load(self, obj) -> dict:
        extras = obj.keys() - self.keys
        if extras:
            raise ConfigError(f"unknown keys {sorted(extras)}")
        fields = {}
        for key, check, default in self.rows:
            if key in obj:
                try:
                    fields[key] = check(obj[key])
                except ConfigError as exc:
                    raise ConfigError(exc.message, f"/{key}{exc.path or ''}") from None
            elif default is _REQUIRED:
                raise ConfigError(f"missing required key '{key}'", f"/{key}")
            elif default is not _ABSENT:
                fields[key] = default
        if self.check is not None:
            self.check(fields)
        return fields


_count = partial(_as_int, minimum=1)
_ticks = partial(_as_int, minimum=0)


def _byte(value):
    value = _as_int(value, minimum=0)
    if value > 0xFF:
        raise ConfigError(f"fill byte must be <= 255, got {value}")
    return value


def _one_of(key, *choices):
    listed = ", ".join(choices[:-1]) + " or " + choices[-1]

    def check(value):
        value = _as_str(value)
        if value not in choices:
            raise ConfigError(f"{key} must be {listed}, got {value!r}")
        return value

    return check


def _power_of_two(value):
    value = _as_int(value, minimum=1)
    if value & (value - 1):
        raise ConfigError(f"align must be a power of two, got {value}")
    return value


def _value_set(value):
    values = _as_list(value)
    for i, item in enumerate(values):
        if isinstance(item, bool) or not isinstance(item, int):
            _as_int(item, f"/{i}")
    if not values:
        raise ConfigError("allowed value set must not be empty")
    return tuple(values)


def _caller(value):
    return value if value == "main" else _as_int(value, minimum=1)


def _id_result(value):
    if value in ("MAIN_PROCESS_ID", "INVALID_MODE"):
        return value
    return _as_int(value, minimum=1)


_LOCATION = (("region", _as_name, _ABSENT), ("offset", _as_int, 0))

_OPERAND = _Fields(*_LOCATION, ("width", _count, _ABSENT), ("signed", _as_bool, _ABSENT))

_BINDING = _Fields(*_LOCATION, ("len", _count, _ABSENT))

#: Binding-less SYSCALL steps share this read-only default.
_NO_BINDINGS = MappingProxyType({})


def _operand(value):
    """An immediate integer or a memory reference."""
    if isinstance(value, dict):
        return _OPERAND.load(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError("operand must be an integer or a memory reference")


def _bindings(value):
    bindings = {}
    for param, binding in _as_dict(value).items():
        try:
            bindings[param] = _BINDING.load(_as_dict(binding))
        except ConfigError as exc:
            raise ConfigError(exc.message, f"/{param}{exc.path or ''}") from None
    return bindings


def _write_payload(fields):
    """WRITE stores hex ``data``, or one ``fill`` byte repeated ``len`` times."""
    if ("data" in fields) == ("fill" in fields):
        raise ConfigError("write needs exactly one of 'data' (hex) or 'fill'+'len'")
    if "data" in fields:
        if "len" in fields:
            raise ConfigError("'len' only combines with 'fill'", "/len")
    elif "len" not in fields:
        raise ConfigError("missing required key 'len'", "/len")
    else:
        fields["data"] = bytes([fields.pop("fill")]) * fields.pop("len")


def _payload_or_empty(fields):
    if "expect" in fields and fields["expect_empty"]:
        raise ConfigError("cannot expect both a payload and emptiness", "/expect")


def _op(*rows, check=None):
    return _Fields(*rows, check=check, extra_keys=("op",))


_PART = ("partition", _as_int, _REQUIRED)
_LEN = ("len", _count, _REQUIRED)
_PORT = ("port", _as_name, _REQUIRED)
_TYPE = ("type", _as_int_type, _REQUIRED)
_A = ("a", _operand, _REQUIRED)
_B = ("b", _operand, _REQUIRED)
_STRICT = ("strict", _as_bool, False)
_EXPECT = ("expect", _as_hex, _ABSENT)

_OPS = {
    "ALLOC": _op(_PART, ("label", _as_name, _REQUIRED), ("size", _count, _REQUIRED)),
    "START_PARTITION": _op(_PART),
    "RESET_PARTITION": _op(_PART),
    "WRITE": _op(
        _PART,
        *_LOCATION,
        ("data", _as_hex, _ABSENT),
        ("fill", _byte, _ABSENT),
        ("len", _count, _ABSENT),
        check=_write_payload,
    ),
    "READ": _op(_PART, *_LOCATION, _LEN),
    "COPY": _op(
        _PART,
        ("src_region", _as_name, _ABSENT),
        ("src_offset", _as_int, 0),
        ("dst_region", _as_name, _ABSENT),
        ("dst_offset", _as_int, 0),
        _LEN,
    ),
    "BRANCH_ON": _op(_PART, *_LOCATION, _LEN),
    "ARITH": _op(
        _PART, ("arith", _one_of("arith", "ADD", "SUB", "MUL"), _REQUIRED), _TYPE, _A, _B, _STRICT
    ),
    "DIV": _op(_PART, _TYPE, _A, _B),
    "SHIFT": _op(_PART, _TYPE, _A, ("s", _as_int, _REQUIRED), _STRICT),
    "TRUNC": _op(_PART, ("from", _as_int_type, _REQUIRED), ("to", _as_int_type, _REQUIRED), _A),
    "ALIGN_CHECK": _op(_PART, *_LOCATION, ("align", _power_of_two, _REQUIRED)),
    "NULL_CHECK": _op(_PART, *_LOCATION),
    "BOOL_CHECK": _op(_PART, _A),
    "ENUM_CHECK": _op(
        _PART, _A, ("enum", _as_name, "anonymous"), ("allowed", _value_set, _REQUIRED)
    ),
    "SYSCALL": _op(
        _PART,
        ("name", _as_name, _REQUIRED),
        ("bindings", _bindings, _NO_BINDINGS),
        ("succeed", _as_bool, True),
    ),
    "SEND": _op(_PART, _PORT, *_LOCATION, _LEN),
    "RECEIVE": _op(
        _PART,
        _PORT,
        *_LOCATION,
        _EXPECT,
        ("expect_empty", _as_bool, False),
        check=_payload_or_empty,
    ),
    "SAMPLING_WRITE": _op(_PART, _PORT, *_LOCATION, _LEN),
    "SAMPLING_READ": _op(
        _PART,
        _PORT,
        *_LOCATION,
        _EXPECT,
        ("expect_validity", _one_of("expect_validity", "VALID", "STALE", "EMPTY"), _ABSENT),
    ),
    "GET_MY_ID": _op(_PART, ("caller", _caller, "main"), ("expect", _id_result, _ABSENT)),
    "UNPOISON_PADDING": _op(_PART, ("region", _as_name, _REQUIRED), ("type", _as_name, _REQUIRED)),
    "IDLE": _op(("ticks", _ticks, _REQUIRED)),
}


def _load_step(obj, path: str) -> Step:
    obj = _as_dict(obj, path)
    op = obj.get("op")
    fields = _OPS.get(op) if isinstance(op, str) else None
    if fields is None:
        op = _as_str(_get(obj, "op", path), f"{path}/op")
        raise ConfigError(f"unknown op {op!r}, expected one of {sorted(_OPS)}", f"{path}/op")
    try:
        return Step(op=op, fields=fields.load(obj), path=path)
    except ConfigError as exc:
        raise ConfigError(exc.message, path + (exc.path or "")) from None


# -- top-level loader ----------------------------------------------------------------


_TOP_KEYS = (
    "name",
    "partitions",
    "time",
    "ports",
    "types",
    "padding",
    "reserved_init",
    "syscalls",
    "workload",
    "expect",
)


def load_scenario(data: dict) -> Scenario:
    data = _as_dict(data, "/")
    _no_extras(data, _TOP_KEYS, "/")
    name = _as_name(_get(data, "name", ""), "/name")

    partitions = []
    for i, pobj in enumerate(_as_list(_get(data, "partitions", "", []), "/partitions")):
        partition = _load_partition(pobj, f"/partitions/{i}")
        if any(p.partition_id == partition.partition_id for p in partitions):
            raise ConfigError(
                f"duplicate partition id {partition.partition_id}", f"/partitions/{i}/id"
            )
        partitions.append(partition)
    partition_ids = {p.partition_id for p in partitions}
    process_keys = {
        (p.partition_id, proc.process_id) for p in partitions for proc in p.processes
    }

    time = _load_time(_get(data, "time", "", {}), "/time", partition_ids, process_keys)

    ports = []
    for i, pobj in enumerate(_as_list(_get(data, "ports", "", []), "/ports")):
        port = _load_port(pobj, f"/ports/{i}", partition_ids)
        if any(p.name == port.name for p in ports):
            raise ConfigError(f"duplicate port name '{port.name}'", f"/ports/{i}/name")
        ports.append(port)

    types = {}
    for type_name, size in _as_dict(_get(data, "types", "", {}), "/types").items():
        types[type_name] = _as_int(size, f"/types/{type_name}", minimum=1)

    padding = {}
    for type_name, ranges in _as_dict(_get(data, "padding", "", {}), "/padding").items():
        ppath = f"/padding/{type_name}"
        if type_name not in types:
            raise ConfigError(f"padding declared for unknown type '{type_name}'", ppath)
        checked = []
        for i, pair in enumerate(_as_list(ranges, ppath)):
            pair = _as_list(pair, f"{ppath}/{i}")
            if len(pair) != 2:
                raise ConfigError("padding range must be [offset, length]", f"{ppath}/{i}")
            off = _as_int(pair[0], f"{ppath}/{i}/0", minimum=0)
            ln = _as_int(pair[1], f"{ppath}/{i}/1", minimum=1)
            if off + ln > types[type_name]:
                raise ConfigError(
                    f"range ({off}, {ln}) exceeds size {types[type_name]} of "
                    f"'{type_name}'",
                    f"{ppath}/{i}",
                )
            checked.append((off, ln))
        padding[type_name] = tuple(checked)

    robj = _as_dict(_get(data, "reserved_init", "", {}), "/reserved_init")
    _no_extras(robj, ("enabled", "pattern"), "/reserved_init")
    pattern = _as_int(_get(robj, "pattern", "/reserved_init", 0xCD), "/reserved_init/pattern", minimum=0)
    if pattern > 0xFF:
        raise ConfigError(f"pattern must be a byte value, got {pattern}", "/reserved_init/pattern")
    reserved = ReservedInitConfig(
        enabled=_as_bool(_get(robj, "enabled", "/reserved_init", False), "/reserved_init/enabled"),
        pattern=pattern,
    )

    syscalls = []
    seen_user_names = set()
    for i, text in enumerate(_as_list(_get(data, "syscalls", "", []), "/syscalls")):
        spath = f"/syscalls/{i}"
        try:
            spec = parse_template(_as_str(text, spath))
        except ParseError as exc:
            raise ConfigError(f"template does not parse: {exc}", spath) from None
        if spec.user_name in seen_user_names:
            raise ConfigError(f"duplicate syscall user name '{spec.user_name}'", spath)
        seen_user_names.add(spec.user_name)
        syscalls.append(spec)

    workload = []
    for i, sobj in enumerate(_as_list(_get(data, "workload", "", []), "/workload")):
        step = _load_step(sobj, f"/workload/{i}")
        if step.op != "IDLE" and step["partition"] not in partition_ids:
            raise ConfigError(
                f"step references unknown partition {step['partition']}",
                f"{step.path}/partition",
            )
        if step.op == "SYSCALL":
            spec = next((s for s in syscalls if s.user_name == step["name"]), None)
            if spec is None:
                raise ConfigError(
                    f"no syscall template named '{step['name']}'", f"{step.path}/name"
                )
            param_names = {pname for _, pname in spec.params}
            for param in step["bindings"]:
                if param not in param_names:
                    raise ConfigError(
                        f"binding for unknown parameter '{param}' of "
                        f"'{spec.syscall_name}'",
                        f"{step.path}/bindings/{param}",
                    )
            needed = {c.target.param for c in spec.checks}
            needed |= {
                c.size.name
                for c in spec.checks
                if c.size.name is not None and c.size.name in param_names
            }
            missing = sorted(needed - set(step["bindings"]))
            if missing:
                raise ConfigError(
                    f"directives of '{spec.syscall_name}' need bindings for {missing}",
                    f"{step.path}/bindings",
                )
        workload.append(step)

    expect = []
    for i, eobj in enumerate(_as_list(_get(data, "expect", "", []), "/expect")):
        epath = f"/expect/{i}"
        eobj = _as_dict(eobj, epath)
        _no_extras(eobj, ("kind", "partition", "offset", "context"), epath)
        kind = _as_str(_get(eobj, "kind", epath), f"{epath}/kind")
        if kind not in VIOLATION_KINDS:
            raise ConfigError(f"unknown violation kind {kind!r}", f"{epath}/kind")
        pattern_kwargs = {"kind": kind}
        if "partition" in eobj:
            pattern_kwargs["partition"] = _as_int(eobj["partition"], f"{epath}/partition")
        if "offset" in eobj:
            pattern_kwargs["offset"] = _as_int(eobj["offset"], f"{epath}/offset")
        if "context" in eobj:
            context = _as_str(eobj["context"], f"{epath}/context")
            if context not in UseSite.__members__:
                raise ConfigError(
                    f"context must be one of {sorted(UseSite.__members__)}, got {context!r}",
                    f"{epath}/context",
                )
            pattern_kwargs["context"] = context
        expect.append(ExpectPattern(**pattern_kwargs))

    return Scenario(
        name=name,
        partitions=tuple(partitions),
        time=time,
        ports=tuple(ports),
        types=dict(types),
        padding=padding,
        reserved_init=reserved,
        syscalls=tuple(syscalls),
        workload=tuple(workload),
        expect=tuple(expect),
    )


def load_scenario_text(text: str) -> Scenario:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc}") from None
    return load_scenario(data)


def load_scenario_file(path) -> Scenario:
    return load_scenario_text(Path(path).read_text(encoding="utf-8"))


# -- builtin corpus ---------------------------------------------------------------


def builtin_names() -> list[str]:
    root = resources.files("partsan.scenarios")
    return sorted(
        entry.name[: -len(".json")]
        for entry in root.iterdir()
        if entry.name.endswith(".json")
    )


def load_builtin(name: str) -> Scenario:
    root = resources.files("partsan.scenarios")
    entry = root / f"{name}.json"
    if not entry.is_file():
        raise ConfigError(
            f"no builtin scenario '{name}'; available: {', '.join(builtin_names())}"
        )
    return load_scenario_text(entry.read_text(encoding="utf-8"))
