"""Scenario files: schema, validation and builtin corpus access.

A scenario is one JSON document describing partitions (memory, regions,
processes), the time model, ports, type/padding declarations, syscall
templates, an ordered workload and the violations the run is expected to
produce.  Loading validates everything up front; errors carry a JSON
pointer to the offending element so authoring mistakes are cheap to find.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from functools import partial
from types import MappingProxyType
from typing import NamedTuple

from .asan_shadow import check_granularity
from .errors import BindError, ConfigError, ParseError, UnknownType
from .guest_memory import MEMORY_CAP, Layout
from .msan_shadow import add_padding_range
from .syscall_annotations import SyscallSpec, parse_template, resolve_sizes
from .ub_checks import INT_SPECS, UbKind
from .violations import UseSite

_NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

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


class Scenario(NamedTuple):
    """A loaded scenario: each section is its checked JSON object (or list
    of them) under its JSON keys, with every default filled in, except
    ``syscalls``, whose templates load parsed, and each step ``offset``,
    bound to the absolute offset in its partition.  The loader is the one
    place a value is checked; the runtime takes the loaded values as they are."""

    name: str
    partitions: tuple[dict, ...]
    time: dict
    ports: tuple[dict, ...]
    types: dict
    padding: dict
    reserved_init: dict
    syscalls: tuple[SyscallSpec, ...]
    workload: tuple[dict, ...]  # each step's loaded fields and its "op"
    expect: tuple[dict, ...]  # the kind, and what else a finding must match


# -- field helpers ------------------------------------------------------------
#
# A check takes a JSON value and returns what it loads, or raises a
# ConfigError whose path is relative to that value (none for the value
# itself); each enclosing object, list or map prefixes where the value sits,
# so a JSON pointer is only assembled once a value turns out to be wrong.


def _as_int(value, minimum: int | None = None) -> int:
    # an exact int is never a bool, so most values skip both isinstance calls
    if value.__class__ is not int and (isinstance(value, bool) or not isinstance(value, int)):
        raise ConfigError(f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"expected an integer >= {minimum}, got {value}")
    if not -(2**64) < value < 2**64:  # APEX times are 64-bit, and every u64 value fits
        raise ConfigError("expected an integer of magnitude below 2**64")
    return value


def _as_str(value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"expected a string, got {value!r}")
    return value


def _as_bool(value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"expected a boolean, got {value!r}")
    return value


def _as_list(value) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"expected a list, got {value!r}")
    return value


def _as_dict(value) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"expected an object, got {value!r}")
    return value


def _as_name(value) -> str:
    value = _as_str(value)
    if not _NAME_RE.fullmatch(value):
        raise ConfigError(f"name {value!r} must match [A-Za-z0-9_.-]+ (it appears in reports)")
    return value


def _as_hex(value) -> bytes:
    value = _as_str(value)
    try:
        data = bytes.fromhex(value)
    except ValueError:
        raise ConfigError(f"not a hex byte string: {value!r}") from None
    if not data:
        raise ConfigError("hex byte string must not be empty")
    return data


def _token(key: str) -> str:
    """``key`` as a JSON pointer reference token (RFC 6901)."""
    return key.replace("~", "~0").replace("/", "~1")


def _at(key, check, *args):
    """``check(*args)``, with an error it raises moved down to ``/key``."""
    try:
        return check(*args)
    except ConfigError as exc:
        raise ConfigError(exc.message, f"/{key}{exc.path or ''}") from None


_REQUIRED = object()  # default marker: the key must be given
_ABSENT = object()  # default marker: an absent key stays out of the fields
_MISSING = object()  # what a row reads when its key is not in the object


class _Fields:
    """Rows of ``(key, check, default)`` describing one JSON object.

    An object loads in place: each checked value is written back under its
    key and each default is added, so the loaded fields are the object
    itself.  A ``None`` default also stands for an explicit ``null``, and a
    ``{}`` default is loaded like a given empty object, a fresh one per
    load, as the load would otherwise fill in the row's own dict.
    ``check(fields)`` runs on the loaded fields, which are the result;
    ``extra_keys`` are allowed in the object but not loaded (the tag that
    picked these rows, a step's ``op`` or a port's ``kind``).
    The instance is itself the check for such an object.
    """

    def __init__(self, *rows, check=None, extra_keys=()):
        self.rows = rows
        self.keys = frozenset(extra_keys).union(key for key, _, _ in rows)
        self.check = check

    def __call__(self, value):
        return self.load(_as_dict(value))

    def load(self, obj: dict):
        if not self.keys.issuperset(obj):
            raise ConfigError(f"unknown keys {sorted(obj.keys() - self.keys)}")
        get, missing = obj.get, _MISSING
        for key, check, default in self.rows:
            value = get(key, missing)
            if value is not missing and (value is not None or default is not None):
                try:
                    obj[key] = check(value)
                except ConfigError as exc:
                    raise ConfigError(exc.message, f"/{key}{exc.path or ''}") from None
            elif default is _REQUIRED:
                raise ConfigError(f"missing required key '{key}'", f"/{key}")
            elif default is not _ABSENT:
                obj[key] = check({}) if default.__class__ is dict else default
        if self.check is not None:
            self.check(obj)
        return obj


def _list_of(check, unique=None):
    """A JSON list, loaded item by item into a tuple.  ``unique`` is
    ``(key, noun)``: no two items may share their ``key`` value."""

    def load(value):
        items = []
        seen = set()
        for i, item in enumerate(_as_list(value)):
            try:
                items.append(check(item))
            except ConfigError as exc:
                raise ConfigError(exc.message, f"/{i}{exc.path or ''}") from None
            if unique is not None:
                key, noun = unique
                if item[key] in seen:
                    raise ConfigError(f"duplicate {noun} {item[key]!r}", f"/{i}/{key}")
                seen.add(item[key])
        return tuple(items)

    return load


def _dict_of(check):
    """A JSON object mapping any keys to values that pass ``check``,
    loaded in place."""

    def load(value):
        obj = _as_dict(value)
        for key, item in obj.items():
            obj[key] = _at(_token(key), check, item)
        return obj

    return load


def _tagged(tag, table):
    """A JSON object whose ``tag`` value picks the _Fields in ``table`` that
    loads the rest of it; returns the loaded fields, their tag the table's
    own string."""
    choices = sorted(table)
    tags = {name: name for name in table}

    def load(value):
        obj = _as_dict(value)
        name = obj.get(tag)
        rows = table.get(name) if isinstance(name, str) else None
        if rows is None:
            if tag not in obj:
                raise ConfigError(f"missing required key '{tag}'", f"/{tag}")
            raise ConfigError(f"unknown {tag} {name!r}, expected one of {choices}", f"/{tag}")
        obj[tag] = tags[name]
        return rows.load(obj)

    return load


def _count(value):
    return _as_int(value, 1)


def _ticks(value):
    return _as_int(value, 0)


def _byte(value):
    value = _as_int(value, minimum=0)
    if value > 0xFF:
        raise ConfigError(f"fill byte must be <= 255, got {value}")
    return value


def _one_of(key, *choices):
    """A string among ``choices``, loaded as the choice's own string."""
    listed = ", ".join(choices[:-1]) + " or " + choices[-1]
    own = {choice: choice for choice in choices}

    def check(value):
        choice = own.get(_as_str(value))
        if choice is None:
            raise ConfigError(f"{key} must be {listed}, got {value!r}")
        return choice

    return check


_as_int_type = _one_of("integer type", *INT_SPECS)


def to_fraction(value) -> Fraction:
    """Accept int, Fraction, float or '3/2'-style strings; anything else,
    or a ratio whose numerator or denominator reaches 2**64 in magnitude,
    is a ConfigError.  A Fraction is returned as it is.  A string with an
    exponent is read as a float, as a JSON number is:
    ``Fraction("1e1000000")`` would build 10**1000000."""
    if type(value) is Fraction:
        return value
    ratio = None
    try:
        if isinstance(value, str) and "e" in value.lower():
            value = float(value)
        if isinstance(value, float):
            ratio = Fraction(str(value))
        elif not isinstance(value, bool):  # a JSON true or false is no ratio
            ratio = Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError):
        pass
    if ratio is None:
        raise ConfigError(f"not a number or 'p/q' ratio: {value!r}")
    if not -(2**64) < ratio.numerator < 2**64 or ratio.denominator >= 2**64:
        raise ConfigError("ratio terms must be below 2**64 in magnitude")
    return ratio


def parse_slowdown(value) -> Fraction:
    """A timer slowdown factor: any ratio ``to_fraction`` accepts, > 0."""
    factor = to_fraction(value)
    if factor <= 0:
        raise ConfigError(f"slowdown factor must be positive, got {factor}")
    return factor


def parse_multiplier(value) -> Fraction:
    """A timeout override's budget multiplier: any ratio ``to_fraction``
    accepts, >= 1."""
    multiplier = to_fraction(value)
    if multiplier < 1:
        raise ConfigError(f"multiplier must be >= 1, got {multiplier}")
    return multiplier


def check_period(period: int | None, time_capacity: int) -> None:
    """A periodic process must fit its time capacity into each period."""
    if period is not None and period < time_capacity:
        raise ConfigError(f"period {period} shorter than time capacity {time_capacity}")


# -- configuration sections -------------------------------------------------------


_REGION = _Fields(("label", _as_name, _REQUIRED), ("size", _count, _REQUIRED))

_PROCESS = _Fields(
    ("id", _count, _REQUIRED),
    ("priority", _as_int, 1),
    ("time_capacity", _count, _REQUIRED),
    ("period", _as_int, None),
    check=lambda f: _at("period", check_period, f["period"], f["time_capacity"]),
)

def _granularity(value):
    return check_granularity(_as_int(value))


_PARTITION = _Fields(
    ("id", _count, _REQUIRED),
    ("memory_size", _as_int, 4096),
    ("granularity", _granularity, 8),
    ("redzone", _as_int, 16),
    ("auto_start", _as_bool, True),
    ("regions", _list_of(_REGION, unique=("label", "region label")), ()),
    ("processes", _list_of(_PROCESS, unique=("id", "process id")), ()),
)


_COSTS = _Fields(
    ("base_step", _ticks, 1),
    ("asan_check", _ticks, 0),
    ("msan_check", _ticks, 0),
    ("ub_check", _ticks, 0),
)

_WINDOW = _Fields(
    ("partition", _as_int, _REQUIRED),
    ("start", _ticks, _REQUIRED),
    ("length", _count, _REQUIRED),
)


def _tiling(frame):
    """A cyclic partition schedule: the windows tile [0, frame_len) exactly."""
    if not frame["windows"]:
        raise ConfigError("major frame needs at least one window")
    end = 0
    for i, window in enumerate(frame["windows"]):
        if window["start"] != end:
            raise ConfigError(
                f"window {i} starts at {window['start']}, expected {end} "
                f"(windows must be sorted, disjoint and gap-free)"
            )
        end += window["length"]
    if end != frame["frame_len"]:
        raise ConfigError(f"windows cover [0, {end}) but frame length is {frame['frame_len']}")


_FRAME = _Fields(
    ("frame_len", _count, _REQUIRED), ("windows", _list_of(_WINDOW), _REQUIRED), check=_tiling
)

_OVERRIDE = _Fields(
    ("partition", _as_int, _REQUIRED),
    ("process", _as_int, _REQUIRED),
    ("multiplier", parse_multiplier, _REQUIRED),
)

_TIME = _Fields(
    ("slowdown_factor", parse_slowdown, Fraction(1)),
    ("costs", _COSTS, {}),
    ("major_frame", _FRAME, None),
    ("timeout_overrides", _list_of(_OVERRIDE), ()),
    ("legacy_get_my_id", _as_bool, False),
)


def _endpoints(fields):
    if fields["source"] is None and fields["destination"] is None:
        raise ConfigError("port needs a source and/or a destination")
    if fields["source"] is not None and fields["source"] == fields["destination"]:
        raise ConfigError("source and destination must be different partitions")


def _port_kind(row):
    return _Fields(
        ("name", _as_name, _REQUIRED),
        ("source", _as_int, None),
        ("destination", _as_int, None),
        ("max_message_size", _count, _REQUIRED),
        row,
        check=_endpoints,
        extra_keys=("kind",),
    )


_PORT = _tagged(
    "kind",
    {
        "sampling": _port_kind(("refresh_period", _ticks, _REQUIRED)),
        "queueing": _port_kind(("capacity", _count, _REQUIRED)),
    },
)


def _padding_range(value):
    pair = _as_list(value)
    if len(pair) != 2:
        raise ConfigError("padding range must be [offset, length]")
    return _at(0, _ticks, pair[0]), _at(1, _count, pair[1])


def _reserved_pattern(value):
    value = _as_int(value)
    if not 0 <= value <= 0xFF:
        raise ConfigError(f"reserved pattern must be a byte value, got {value}")
    return value


# with ``enabled``, a write made entirely of ``pattern`` does not initialize
_RESERVED_INIT = _Fields(("enabled", _as_bool, False), ("pattern", _reserved_pattern, 0xCD))


def _template(value):
    try:
        return parse_template(_as_str(value))
    except ParseError as exc:
        raise ConfigError(f"template does not parse: {exc}") from None


_EXPECT_PATTERN = _Fields(
    ("kind", _one_of("kind", *sorted(VIOLATION_KINDS)), _REQUIRED),
    ("partition", _as_int, _ABSENT),
    ("offset", _as_int, _ABSENT),
    ("context", _one_of("context", *UseSite.__members__), _ABSENT),
)


# -- workload steps ---------------------------------------------------------------
#
# Every op is one row of _OPS: its fields, each with a value check and a
# default, plus at most one check across fields.


def _power_of_two(value):
    value = _as_int(value, minimum=1)
    if value & (value - 1):
        raise ConfigError(f"align must be a power of two, got {value}")
    return value


_INTS = _list_of(_as_int)


def _value_set(value):
    values = _INTS(value)
    if not values:
        raise ConfigError("allowed value set must not be empty")
    return values


def _caller(value):
    return value if value == "main" else _as_int(value, minimum=1)


def _id_result(value):
    if value in ("MAIN_PROCESS_ID", "INVALID_MODE"):
        return value
    return _as_int(value, minimum=1)


# A region or port reference must equal a label or name _as_name accepted.
_LOCATION = (("region", _as_str, _ABSENT), ("offset", _as_int, 0))

_OPERAND = _Fields(*_LOCATION, ("width", _count, _ABSENT), ("signed", _as_bool, _ABSENT))

#: Binding-less SYSCALL steps share this read-only default.
_NO_BINDINGS = MappingProxyType({})


def _operand(value):
    """An immediate integer or a memory reference."""
    if isinstance(value, dict):
        return _OPERAND.load(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return _as_int(value)
    raise ConfigError("operand must be an integer or a memory reference")


def _write_payload(fields):
    """WRITE stores hex ``data``, or one ``fill`` byte repeated ``len`` times;
    the step keeps ``fill`` and ``len``, and the bytes are made when it runs."""
    if ("data" in fields) == ("fill" in fields):
        raise ConfigError("write needs exactly one of 'data' (hex) or 'fill'+'len'")
    if "data" in fields:
        if "len" in fields:
            raise ConfigError("'len' only combines with 'fill'", "/len")
    elif "len" not in fields:
        raise ConfigError("missing required key 'len'", "/len")
    elif fields["len"] > MEMORY_CAP:
        raise ConfigError(f"fill length must be <= {MEMORY_CAP}, got {fields['len']}", "/len")


def _typed(type_key, *keys):
    """The operands of an op of type ``fields[type_key]`` are values of
    that type: an immediate lies in its range, and a memory operand's
    ``width`` and ``signed`` load nothing outside it."""

    def check(fields):
        spec = INT_SPECS[fields[type_key]]
        for key in keys:
            operand = fields[key]
            if operand.__class__ is not dict:
                if not spec.contains(operand):
                    raise ConfigError(f"{operand} is not a value of {spec.name}", f"/{key}")
                continue
            # an unsigned load fits a signed type only with a byte to spare
            signed = operand.get("signed", spec.signed)
            room = spec.width // 8 - (spec.signed and not signed)
            if (signed and not spec.signed) or operand.get("width", spec.width // 8) > room:
                raise ConfigError(f"operand loads values outside {spec.name}", f"/{key}")

    return check


def _payload_or_empty(fields):
    if "expect" in fields and fields.get("expect_empty", False):
        raise ConfigError("cannot expect both a payload and emptiness", "/expect")


def _op(*rows, check=None):
    return _Fields(*rows, check=check, extra_keys=("op",))


_PART = ("partition", _as_int, _REQUIRED)
_LEN = ("len", _count, _REQUIRED)
_PORT_NAME = ("port", _as_str, _REQUIRED)
_TYPE = ("type", _as_int_type, _REQUIRED)
_FROM = ("from", _as_int_type, _REQUIRED)
_ARITH = ("arith", _one_of("arith", "ADD", "SUB", "MUL"), _REQUIRED)
_A = ("a", _operand, _REQUIRED)
_B = ("b", _operand, _REQUIRED)
_STRICT = ("strict", _as_bool, _ABSENT)
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
        ("src_region", _as_str, _ABSENT),
        ("src_offset", _as_int, 0),
        ("dst_region", _as_str, _ABSENT),
        ("dst_offset", _as_int, 0),
        _LEN,
    ),
    "BRANCH_ON": _op(_PART, *_LOCATION, _LEN),
    "ARITH": _op(_PART, _ARITH, _TYPE, _A, _B, _STRICT, check=_typed("type", "a", "b")),
    "DIV": _op(_PART, _TYPE, _A, _B, check=_typed("type", "a", "b")),
    "SHIFT": _op(_PART, _TYPE, _A, ("s", _as_int, _REQUIRED), _STRICT, check=_typed("type", "a")),
    "TRUNC": _op(_PART, _FROM, ("to", _as_int_type, _REQUIRED), _A, check=_typed("from", "a")),
    "ALIGN_CHECK": _op(_PART, *_LOCATION, ("align", _power_of_two, _REQUIRED)),
    "NULL_CHECK": _op(_PART, *_LOCATION),
    "BOOL_CHECK": _op(_PART, _A),
    "ENUM_CHECK": _op(
        _PART, _A, ("enum", _as_name, "anonymous"), ("allowed", _value_set, _REQUIRED)
    ),
    "SYSCALL": _op(
        _PART,
        ("name", _as_name, _REQUIRED),
        ("bindings", _dict_of(_Fields(*_LOCATION, ("len", _count, _ABSENT))), _NO_BINDINGS),
        ("succeed", _as_bool, True),
    ),
    "SEND": _op(_PART, _PORT_NAME, *_LOCATION, _LEN),
    "RECEIVE": _op(
        _PART,
        _PORT_NAME,
        *_LOCATION,
        _EXPECT,
        ("expect_empty", _as_bool, _ABSENT),
        check=_payload_or_empty,
    ),
    "SAMPLING_WRITE": _op(_PART, _PORT_NAME, *_LOCATION, _LEN),
    "SAMPLING_READ": _op(
        _PART,
        _PORT_NAME,
        *_LOCATION,
        _EXPECT,
        ("expect_validity", _one_of("expect_validity", "VALID", "STALE", "EMPTY"), _ABSENT),
    ),
    "GET_MY_ID": _op(_PART, ("caller", _caller, "main"), ("expect", _id_result, _ABSENT)),
    "UNPOISON_PADDING": _op(_PART, ("region", _as_str, _REQUIRED), ("type", _as_name, _REQUIRED)),
    "IDLE": _op(("ticks", _ticks, _REQUIRED)),
}


# -- top-level loader ----------------------------------------------------------------


_SCENARIO = _Fields(
    ("name", _as_name, _REQUIRED),
    ("partitions", _list_of(_PARTITION, unique=("id", "partition id")), ()),
    ("time", _TIME, {}),
    ("ports", _list_of(_PORT, unique=("name", "port name")), ()),
    ("types", _dict_of(_count), {}),
    ("padding", _dict_of(_list_of(_padding_range)), {}),
    ("reserved_init", _RESERVED_INIT, {}),
    ("syscalls", _list_of(_template), ()),
    ("workload", _list_of(_tagged("op", _OPS)), ()),
    ("expect", _list_of(_EXPECT_PATTERN), ()),
)


def _copied(value):
    """``value`` with each dict and list in it copied as a plain one; the
    leaves are shared."""
    if isinstance(value, dict):
        return {key: _copied(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_copied(item) for item in value]
    return value


def load_scenario(data: dict, **overrides) -> Scenario:
    """Load a copy of ``data``, which stays as it was; ``overrides`` are
    those of ``load_scenario_text``."""
    try:
        tree = _copied(data)
    except RecursionError:  # a cycle, or nesting past the recursion limit
        raise ConfigError("document nests too deeply to load") from None
    return _load_tree(tree, **overrides)


# -- the workload pass -------------------------------------------------------------
#
# Partitions, memory and ports are static and allocation only bumps a cursor,
# so one pass over the steps replays each partition's Layout, the allocator
# the simulator runs, and rejects every step the simulator could not run.
# It binds each location into its own ``offset`` key (``src_offset`` and
# ``dst_offset`` for COPY, and that of each memory operand and SYSCALL
# binding) by adding the named region's base, and gives UNPOISON_PADDING
# its region's base as ``offset``: every loaded ``offset`` is absolute.

#: Per op, the (region, offset) keys of each of its locations.
_LOCATIONS = {
    op: tuple((k.replace("offset", "region"), k) for k, _, _ in f.rows if k.endswith("offset"))
    for op, f in _OPS.items()
}
#: Per op, its operand keys.
_OPERAND_KEYS = {op: tuple(key for key, c, _ in f.rows if c is _operand) for op, f in _OPS.items()}


#: The kind of port each port op needs, and the end of it the step must be.
_PORT_ENDS = {
    "SEND": ("queueing", "source"),
    "RECEIVE": ("queueing", "destination"),
    "SAMPLING_WRITE": ("sampling", "source"),
    "SAMPLING_READ": ("sampling", "destination"),
}


def _directive_sizes(specs: dict, sizes: dict, known: dict, fields) -> tuple:
    """A SYSCALL step names a template, binds the parameters its directives
    use and no others, and gives each directive room for its size; returns
    the template's user name and each directive's ``(param, size)``.  Only
    the template and each binding's ``len`` matter, so ``known`` keeps the
    result per pair."""
    bindings = fields["bindings"]
    key = (fields["name"], tuple((param, b.get("len")) for param, b in bindings.items()))
    if key in known:
        return known[key]
    spec = specs.get(fields["name"])
    if spec is None:
        raise ConfigError(f"no syscall template named '{fields['name']}'", "/name")
    param_names = {pname for _, pname in spec.params}
    for param in bindings:
        if param not in param_names:
            raise ConfigError(
                f"binding for unknown parameter '{param}' of '{spec.syscall_name}'",
                f"/bindings/{_token(param)}",
            )
    used = {d.param for d in spec.checks}
    used |= {d.size.lstrip("*") for d in spec.checks if isinstance(d.size, str)}
    missing = sorted(used & param_names - bindings.keys())
    if missing:
        raise ConfigError(
            f"directives of '{spec.syscall_name}' need bindings for {missing}", "/bindings"
        )
    try:
        resolved = resolve_sizes(spec, sizes, bindings)
    except UnknownType as exc:
        raise ConfigError(str(exc), "/name") from None
    except BindError as exc:
        raise ConfigError(str(exc), f"/bindings/{_token(exc.param)}") from None
    known[key] = spec.user_name, tuple((d.param, size) for d, _, size in resolved)
    return known[key]


def _load_tree(data, slowdown_factor=None, granularity: int | None = None) -> Scenario:
    """Load every section of ``data`` in place through its _Fields, write
    the overrides into the loaded ``time`` and partitions, check what
    refers across sections (window partitions, override processes, port
    endpoints, padding types and sizes), then replay every partition's
    Layout through the workload: check each step against them at the
    pointer of the field at fault, and bind each step's locations."""
    try:
        doc = _SCENARIO(data)
    except ConfigError as exc:
        raise ConfigError(exc.message, exc.path or "/") from None
    time = doc["time"]
    if slowdown_factor is not None:
        time["slowdown_factor"] = parse_slowdown(slowdown_factor)
    if granularity is not None:
        _granularity(granularity)
        for config in doc["partitions"]:
            config["granularity"] = granularity

    ids = {config["id"] for config in doc["partitions"]}
    frame = time["major_frame"]
    for i, window in enumerate(frame["windows"] if frame is not None else ()):
        if window["partition"] not in ids:
            raise ConfigError(
                f"window references unknown partition {window['partition']}",
                f"/time/major_frame/windows/{i}/partition",
            )
    processes = {(p["id"], q["id"]) for p in doc["partitions"] for q in p["processes"]}
    for i, override in enumerate(time["timeout_overrides"]):
        pid, proc = override["partition"], override["process"]
        if (pid, proc) not in processes:
            raise ConfigError(
                f"override references unknown process {proc} of partition {pid}",
                f"/time/timeout_overrides/{i}",
            )
    for i, port in enumerate(doc["ports"]):
        for end in ("source", "destination"):
            if port[end] is not None and port[end] not in ids:
                raise ConfigError(
                    f"{end} references unknown partition {port[end]}", f"/ports/{i}/{end}"
                )
    types, padding = doc["types"], doc["padding"]
    for type_name, ranges in padding.items():
        at = f"/padding/{_token(type_name)}"
        if type_name not in types:
            raise ConfigError(f"padding declared for unknown type '{type_name}'", at)
        accepted = []
        for i, (off, ln) in enumerate(ranges):
            try:
                add_padding_range(accepted, type_name, off, ln, types[type_name])
            except ConfigError as exc:
                raise ConfigError(exc.message, f"{at}/{i}") from None

    layouts: dict[int, Layout] = {}
    total = 0
    for i, config in enumerate(doc["partitions"]):
        at = f"partitions/{i}"
        pid, memory_size = config["id"], config["memory_size"]
        layout = layouts[pid] = _at(
            at, Layout, pid, memory_size, config["granularity"], config["redzone"]
        )
        total += memory_size
        if total > MEMORY_CAP:
            raise ConfigError(
                f"partitions need {total} bytes of memory in all, more than {MEMORY_CAP}",
                f"/{at}/memory_size",
            )
        for j, region in enumerate(config["regions"]):
            _at(f"{at}/regions/{j}", layout.alloc, region["label"], region["size"])
        layout.started = config["auto_start"]
    ports = {port["name"]: port for port in doc["ports"]}
    specs = {}
    for i, spec in enumerate(doc["syscalls"]):
        if spec.user_name in specs:
            raise ConfigError(f"duplicate syscall user name '{spec.user_name}'", f"/syscalls/{i}")
        specs[spec.user_name] = spec
    directive_sizes = partial(_directive_sizes, specs, types, {})

    def base(layout: Layout, where, key: str = "region") -> int:
        """The base of the allocated region ``where[key]``, or 0 without one."""
        label = where.get(key)
        if label is None:
            return 0
        region = layout.regions.get(label) or _at(key, layout.region, label)
        where[key] = region.label  # steps naming one region share its string
        return region.base

    def span(layout: Layout, start: int, length: int) -> None:
        if start < 0 or start + length > layout.memory_size:
            raise ConfigError(f"span [{start}, {start + length}) leaves partition memory")

    def check(fields: dict) -> None:
        op = fields["op"]
        pid = fields["partition"]
        layout = layouts.get(pid)
        if layout is None:
            raise ConfigError(f"step references unknown partition {pid}", "/partition")
        for region_key, offset_key in _LOCATIONS[op]:
            fields[offset_key] += base(layout, fields, region_key)
        for key in _OPERAND_KEYS[op]:
            operand = fields[key]
            if operand.__class__ is dict:
                operand["offset"] += _at(key, base, layout, operand)
        if op == "ALLOC":
            layout.alloc(fields["label"], fields["size"])
        elif op == "START_PARTITION":
            layout.start()
        elif op == "RESET_PARTITION":
            layout.reset()
        elif op in _PORT_ENDS:
            kind, end = _PORT_ENDS[op]
            port = ports.get(fields["port"])
            if port is None or port["kind"] != kind:
                raise ConfigError(f"no {kind} port '{fields['port']}'", "/port")
            if port[end] != pid:
                raise ConfigError(f"{end} of port {port['name']!r} is not partition {pid}", "/port")
            fields["port"] = port["name"]
        elif op == "GET_MY_ID":
            caller = fields["caller"]
            if caller != "main" and (pid, caller) not in processes:
                raise ConfigError(f"partition {pid} has no process {caller}", "/caller")
        elif op == "UNPOISON_PADDING":
            fields["offset"] = base(layout, fields)
            if fields["type"] not in padding:
                raise ConfigError(f"no padding declaration for type '{fields['type']}'", "/type")
            for off, ln in padding[fields["type"]]:
                _at("type", span, layout, fields["offset"] + off, ln)
        elif op == "SYSCALL":
            bindings = fields["bindings"]
            for param, binding in bindings.items():
                binding["offset"] += _at(f"bindings/{_token(param)}", base, layout, binding)
            # steps naming one template share its user name
            fields["name"], sizes = directive_sizes(fields)
            for param, size in sizes:
                _at(f"bindings/{_token(param)}", span, layout, bindings[param]["offset"], size)

    for i, step in enumerate(doc["workload"]):
        try:
            if step["op"] != "IDLE":
                check(step)
        except ConfigError as exc:
            raise ConfigError(exc.message, f"/workload/{i}{exc.path or ''}") from None
    return Scenario(**doc)


def load_scenario_text(text: str, *, slowdown_factor=None, granularity=None) -> Scenario:
    """Load a scenario from its JSON text.  ``slowdown_factor`` replaces the
    document's, and ``granularity`` every partition's; each is checked once
    the sections load, so the document is checked at the values it runs
    with."""
    try:
        data = json.loads(text)
    # a JSONDecodeError, an integer too long to convert, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"not valid JSON: {exc}") from None
    # the decoded tree is ours to load in place
    return _load_tree(data, slowdown_factor, granularity)


def read_utf8(path) -> str:
    """The text of the file at ``path``; bytes that are not UTF-8 are a
    ConfigError, as text that is not JSON is."""
    try:
        with open(path, encoding="utf-8") as file:
            return file.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"not valid UTF-8: {exc.reason} at byte {exc.start} of {path}") from None


def load_scenario_file(path, **overrides) -> Scenario:
    return load_scenario_text(read_utf8(path), **overrides)


# -- builtin corpus ---------------------------------------------------------------


#: The builtin scenarios, shipped as package data beside this module.
_BUILTINS = os.path.join(os.path.dirname(__file__), "scenarios")


def builtin_names() -> list[str]:
    return sorted(entry[:-5] for entry in os.listdir(_BUILTINS) if entry.endswith(".json"))


def load_builtin(name: str, **overrides) -> Scenario:
    entry = os.path.join(_BUILTINS, f"{name}.json")
    if not os.path.isfile(entry):
        raise ConfigError(
            f"no builtin scenario '{name}'; available: {', '.join(builtin_names())}"
        )
    return load_scenario_file(entry, **overrides)
