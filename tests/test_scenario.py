"""Scenario schema validation, error paths and the builtin corpus."""

import copy
import gc
import json
import random
import tracemalloc
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from partsan.errors import ConfigError
from partsan.guest_memory import MEMORY_CAP
from partsan.harness import Simulator, run_scenario
from partsan.scenario import (
    _ABSENT,
    _OPERAND,
    _OPS,
    _REQUIRED,
    VIOLATION_KINDS,
    Scenario,
    builtin_names,
    load_builtin,
    load_scenario,
    load_scenario_text,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

BUILTINS = (
    "get_my_id_regression",
    "listing1_overflow",
    "local_timeout_override",
    "off_schedule_with_and_without_slowdown",
    "padding_false_positive",
    "partition_reset_use_after",
    "port_uninit_send",
    "queueing_fifo",
    "reserved_init_still_poisoned",
    "sampling_freshness",
    "ub_catalogue",
    "uninit_syscall_param",
)


def _base():
    return {
        "name": "t",
        "partitions": [
            {
                "id": 1,
                "regions": [{"label": "buf", "size": 16}],
                "processes": [{"id": 1, "priority": 1, "time_capacity": 100}],
            }
        ],
    }


def _fails_at(data, path):
    with pytest.raises(ConfigError) as err:
        load_scenario(data)
    assert err.value.path == path, str(err.value)
    return err.value


def test_builtin_corpus_is_complete_and_loads():
    assert tuple(builtin_names()) == BUILTINS
    for name in BUILTINS:
        scenario = load_builtin(name)
        assert isinstance(scenario, Scenario)
        assert scenario.name == name


def test_unknown_builtin_name():
    with pytest.raises(ConfigError):
        load_builtin("no_such_scenario")


def test_minimal_scenario_and_defaults():
    scenario = load_scenario({"name": "empty"})
    assert scenario.partitions == ()
    assert scenario.workload == ()
    assert scenario.expect == ()
    assert scenario.time["slowdown_factor"] == Fraction(1)
    assert scenario.time["costs"] == {"base_step": 1, "asan_check": 0, "msan_check": 0,
                                      "ub_check": 0}
    assert scenario.time["major_frame"] is None
    assert scenario.time["timeout_overrides"] == ()
    assert scenario.time["legacy_get_my_id"] is False
    assert scenario.reserved_init == {"enabled": False, "pattern": 0xCD}
    # null stands for an absent key where the default is no value
    null_frame = load_scenario({"name": "empty", "time": {"major_frame": None}})
    assert null_frame.time["major_frame"] is None


def test_partition_defaults():
    data = _base()
    data["partitions"][0]["processes"].append({"id": 2, "time_capacity": 5, "period": None})
    scenario = load_scenario(data)
    # a loaded section is its JSON object, under its keys, with the defaults added
    assert scenario.partitions == (
        {
            "id": 1,
            "regions": ({"label": "buf", "size": 16},),
            "processes": (
                {"id": 1, "priority": 1, "time_capacity": 100, "period": None},
                {"id": 2, "time_capacity": 5, "period": None, "priority": 1},
            ),
            "memory_size": 4096,
            "granularity": 8,
            "redzone": 16,
            "auto_start": True,
        },
    )


def test_not_json_and_not_object():
    with pytest.raises(ConfigError):
        load_scenario_text("{nope")
    with pytest.raises(ConfigError):
        load_scenario_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_scenario_text('{"name": "t", "types": {"a": ' + "1" * 5000 + "}}")


def test_top_level_validation_paths():
    _fails_at({"name": "t", "bogus": 1}, "/")
    _fails_at({}, "/name")
    _fails_at({"name": "has spaces"}, "/name")
    _fails_at({"name": "t", "partitions": {}}, "/partitions")
    _fails_at({"name": "t", "time": None}, "/time")


def test_partition_validation_paths():
    data = _base()
    data["partitions"][0]["granularity"] = 0
    _fails_at(data, "/partitions/0/granularity")

    data = _base()
    data["partitions"][0]["granularity"] = 3
    _fails_at(data, "/partitions/0/granularity")

    data = _base()
    data["partitions"][0]["memory_size"] = 4097
    _fails_at(data, "/partitions/0/memory_size")

    data = _base()
    data["partitions"][0]["redzone"] = 12
    _fails_at(data, "/partitions/0/redzone")

    data = _base()
    data["partitions"].append(copy.deepcopy(data["partitions"][0]))
    _fails_at(data, "/partitions/1/id")

    data = _base()
    data["partitions"][0]["regions"].append({"label": "buf", "size": 8})
    _fails_at(data, "/partitions/0/regions/1/label")


def test_integers_are_below_2_to_the_64_in_magnitude():
    """APEX times are 64-bit: every integer field stops short of 2**64 in
    magnitude, so a loaded scenario's totals and offsets always render,
    and every u64 and i64 immediate still loads."""
    rejected = [
        ({"op": "IDLE", "ticks": 2**64}, "/workload/0/ticks"),
        ({"op": "READ", "partition": 1, "offset": -(2**64), "len": 1}, "/workload/0/offset"),
        ({"op": "ENUM_CHECK", "partition": 1, "a": 1, "allowed": [1, 2**64]},
         "/workload/0/allowed/1"),
        ({"op": "BOOL_CHECK", "partition": 1, "a": -(2**64)}, "/workload/0/a"),
    ]
    for step, pointer in rejected:
        data = _base()
        data["workload"] = [step]
        err = _fails_at(data, pointer)
        assert err.message == "expected an integer of magnitude below 2**64"
    data = _base()
    data["workload"] = [
        {"op": "IDLE", "ticks": 2**64 - 1},
        {"op": "ARITH", "partition": 1, "arith": "ADD", "type": "u64", "a": 2**64 - 1, "b": 0},
        {"op": "ARITH", "partition": 1, "arith": "ADD", "type": "i64", "a": -(2**63), "b": 0},
    ]
    assert load_scenario(data).workload[0]["ticks"] == 2**64 - 1


def test_time_validation_paths():
    data = _base()
    data["time"] = {"slowdown_factor": "1/0"}
    _fails_at(data, "/time/slowdown_factor")

    data = _base()
    data["time"] = {"slowdown_factor": "1e1000000"}
    _fails_at(data, "/time/slowdown_factor")

    # each term of a ratio is below 2**64 in magnitude
    for factor in (f"{2**64}/3", f"1/{2**64}", f"{2**64 - 1}/{2**64}", 1e20, "1e-20"):
        data = _base()
        data["time"] = {"slowdown_factor": factor}
        err = _fails_at(data, "/time/slowdown_factor")
        assert err.message == "ratio terms must be below 2**64 in magnitude"
    for factor in (f"{2**64 - 1}/{2**64 - 1}", f"1/{2**64 - 1}", 1e19):
        data = _base()
        data["time"] = {"slowdown_factor": factor}
        load_scenario(data)

    # a JSON boolean is no ratio, though Fraction(True) is 1
    for flag in (True, False):
        data = _base()
        data["time"] = {"slowdown_factor": flag}
        err = _fails_at(data, "/time/slowdown_factor")
        assert err.message == f"not a number or 'p/q' ratio: {flag!r}"

    data = _base()
    data["time"] = {
        "major_frame": {
            "frame_len": 100,
            "windows": [{"partition": 2, "start": 0, "length": 100}],
        }
    }
    _fails_at(data, "/time/major_frame/windows/0/partition")

    data = _base()
    data["time"] = {"timeout_overrides": [{"partition": 1, "process": 9, "multiplier": 2}]}
    _fails_at(data, "/time/timeout_overrides/0")

    data = _base()
    data["time"] = {
        "timeout_overrides": [{"partition": 1, "process": 1, "multiplier": "1e-1000000"}]
    }
    _fails_at(data, "/time/timeout_overrides/0/multiplier")

    data = _base()
    data["time"] = {"timeout_overrides": [{"partition": 1, "process": 1, "multiplier": True}]}
    err = _fails_at(data, "/time/timeout_overrides/0/multiplier")
    assert err.message == "not a number or 'p/q' ratio: True"


def _every_section():
    """_base() with a second partition, a port of each kind, check costs, a
    major frame, a timeout override, reserved_init, a syscall template and
    a step of each op whose values the run-time primitives take as given: a
    document that loads, for each row below to break one value of."""
    data = _base()
    data["partitions"].append({"id": 2})
    data["ports"] = [
        {"name": "s", "kind": "sampling", "source": 1, "destination": 2,
         "max_message_size": 8, "refresh_period": 10},
        {"name": "q", "kind": "queueing", "source": 2, "destination": 1,
         "max_message_size": 8, "capacity": 4},
    ]
    data["time"] = {
        "slowdown_factor": "3/2",
        "costs": {"asan_check": 1},
        "major_frame": {"frame_len": 100, "windows": [
            {"partition": 1, "start": 0, "length": 50},
            {"partition": 2, "start": 50, "length": 50},
        ]},
        "timeout_overrides": [{"partition": 1, "process": 1, "multiplier": 2}],
    }
    data["reserved_init"] = {"enabled": True, "pattern": 0xCD}
    data["syscalls"] = ["//!PRE: msan_check(a, 4);\nsyscall_declare(int, f, int*, a);"]
    data["workload"] = [
        {"op": "ARITH", "partition": 1, "arith": "ADD", "type": "i8",
         "a": 1, "b": {"region": "buf", "width": 1}},
        {"op": "ALIGN_CHECK", "partition": 1, "region": "buf", "align": 4},
        {"op": "ENUM_CHECK", "partition": 1, "a": 1, "allowed": [1]},
        {"op": "GET_MY_ID", "partition": 1, "caller": 1},
        {"op": "SEND", "partition": 2, "port": "q", "len": 4},
        {"op": "SYSCALL", "partition": 1, "name": "f", "bindings": {"a": {"region": "buf"}}},
    ]
    return data


@pytest.mark.parametrize(
    "where, value, pointer, message",
    [
        pytest.param("/partitions/0/processes/0/id", 0, None,
                     "expected an integer >= 1, got 0", id="process-id-0"),
        pytest.param("/partitions/0/processes/0/time_capacity", 0, None,
                     "expected an integer >= 1, got 0", id="time-capacity-0"),
        pytest.param("/partitions/0/processes/0/period", 50, None,
                     "period 50 shorter than time capacity 100", id="period-below-capacity"),
        pytest.param("/partitions/0/processes/1", {"id": 1, "time_capacity": 5},
                     "/partitions/0/processes/1/id", "duplicate process id 1",
                     id="duplicate-process-id"),
        pytest.param("/time/timeout_overrides/0/multiplier", "1/2", None,
                     "multiplier must be >= 1, got 1/2", id="multiplier-half"),
        pytest.param("/time/timeout_overrides/0/multiplier", "x", None,
                     "not a number or 'p/q' ratio: 'x'", id="multiplier-x"),
        pytest.param("/ports/1/max_message_size", 0, None,
                     "expected an integer >= 1, got 0", id="queueing-size-0"),
        pytest.param("/ports/1/capacity", 0, None,
                     "expected an integer >= 1, got 0", id="queueing-capacity-0"),
        pytest.param("/ports/0/max_message_size", 0, None,
                     "expected an integer >= 1, got 0", id="sampling-size-0"),
        pytest.param("/ports/0/refresh_period", -1, None,
                     "expected an integer >= 0, got -1", id="sampling-refresh-period--1"),
        pytest.param("/time/slowdown_factor", 0, None,
                     "slowdown factor must be positive, got 0", id="slowdown-0"),
        pytest.param("/time/slowdown_factor", -2, None,
                     "slowdown factor must be positive, got -2", id="slowdown--2"),
        pytest.param("/time/costs/base_step", -1, None,
                     "expected an integer >= 0, got -1", id="negative-base-step-cost"),
        pytest.param("/time/costs/ub_check", -1, None,
                     "expected an integer >= 0, got -1", id="negative-check-cost"),
        pytest.param("/time/major_frame/frame_len", 0, None,
                     "expected an integer >= 1, got 0", id="frame-len-0"),
        pytest.param("/time/major_frame/windows", [], "/time/major_frame",
                     "major frame needs at least one window", id="no-windows"),
        pytest.param("/time/major_frame/windows/1/length", 0, None,
                     "expected an integer >= 1, got 0", id="window-length-0"),
        pytest.param("/time/major_frame/windows/1/start", 60, "/time/major_frame",
                     "window 1 starts at 60, expected 50 (windows must be sorted, disjoint"
                     " and gap-free)", id="window-gap"),
        pytest.param("/reserved_init/pattern", 300, None,
                     "reserved pattern must be a byte value, got 300", id="pattern-300"),
        pytest.param("/reserved_init/pattern", -1, None,
                     "reserved pattern must be a byte value, got -1", id="pattern--1"),
        pytest.param("/workload/0/a", 128, None,
                     "128 is not a value of i8", id="immediate-outside-type"),
        pytest.param("/workload/0/b/width", 2, "/workload/0/b",
                     "operand loads values outside i8", id="operand-wider-than-type"),
        pytest.param("/workload/0/arith", "DIV", None,
                     "arith must be ADD, SUB or MUL, got 'DIV'", id="arith-DIV"),
        pytest.param("/workload/0/type", "i128", None,
                     "integer type must be i8, u8, i16, u16, i32, u32, i64 or u64, got 'i128'",
                     id="type-i128"),
        pytest.param("/workload/1/align", 3, None,
                     "align must be a power of two, got 3", id="align-3"),
        pytest.param("/workload/2/allowed", [], None,
                     "allowed value set must not be empty", id="enum-allowed-empty"),
        pytest.param("/workload/3/caller", 2, None,
                     "partition 1 has no process 2", id="caller-undeclared"),
        pytest.param("/workload/4/len", 0, None,
                     "expected an integer >= 1, got 0", id="send-len-0"),
        pytest.param("/workload/5/bindings", {}, None,
                     "directives of 'f' need bindings for ['a']", id="syscall-binding-missing"),
    ],
)
def test_each_rule_the_runtime_trusts_fails_at_load(where, value, pointer, message):
    """The loader is the only validator: each rule the runtime types take as
    given fails the load, with its JSON pointer (``where`` itself unless
    given) and message."""
    data = _every_section()
    load_scenario(copy.deepcopy(data))
    *parents, last = where[1:].split("/")
    node = data
    for key in parents:
        node = node[int(key) if isinstance(node, list) else key]
    if isinstance(node, list) and int(last) == len(node):
        node.append(value)
    else:
        node[int(last) if isinstance(node, list) else last] = value
    err = _fails_at(data, pointer or where)
    assert err.message == message


def test_time_accepts_ratio_strings_and_overrides():
    data = _base()
    data["time"] = {
        "slowdown_factor": "3/2",
        "timeout_overrides": [{"partition": 1, "process": 1, "multiplier": "3/2"}],
    }
    scenario = load_scenario(data)
    assert scenario.time["slowdown_factor"] == Fraction(3, 2)
    assert scenario.time["timeout_overrides"] == (
        {"partition": 1, "process": 1, "multiplier": Fraction(3, 2)},
    )


def test_port_validation_paths():
    def port(**kw):
        data = _base()
        data["partitions"].append(
            {"id": 2, "regions": [{"label": "buf", "size": 16}], "processes": []}
        )
        base = {"name": "p", "kind": "sampling", "max_message_size": 8, "refresh_period": 10}
        base.update(kw)
        data["ports"] = [base]
        return data

    _fails_at(port(kind="mailbox"), "/ports/0/kind")
    _fails_at(port(source=1, destination=1), "/ports/0")
    _fails_at(port(source=1, destination=9), "/ports/0/destination")
    _fails_at(port(), "/ports/0")  # neither endpoint
    _fails_at(port(source=1, destination=2, capacity=4), "/ports/0")  # sampling+capacity

    data = port(source=1, destination=2)
    data["ports"].append(dict(data["ports"][0]))
    _fails_at(data, "/ports/1/name")

    (loaded,) = load_scenario(port(source=1, destination=2)).ports
    assert loaded == {"name": "p", "kind": "sampling", "max_message_size": 8,
                      "refresh_period": 10, "source": 1, "destination": 2}
    assert load_scenario(port(source=None, destination=2)).ports[0]["source"] is None

    data = port(kind="queueing", source=1, destination=2, capacity=4)
    del data["ports"][0]["refresh_period"]
    (loaded,) = load_scenario(data).ports
    assert loaded == {"name": "p", "kind": "queueing", "max_message_size": 8,
                      "source": 1, "destination": 2, "capacity": 4}


def test_types_padding_reserved_init_paths():
    data = _base()
    data["types"] = {"msg_t": 0}
    _fails_at(data, "/types/msg_t")

    data = _base()
    data["types"] = {"msg_t": 12}
    data["padding"] = {"ghost_t": [[0, 1]]}
    _fails_at(data, "/padding/ghost_t")

    data = _base()
    data["types"] = {"msg_t": 12}
    data["padding"] = {"msg_t": [[8, 8]]}
    _fails_at(data, "/padding/msg_t/0")

    data = _base()
    data["types"] = {"msg_t": 12}
    data["padding"] = {"msg_t": [[4]]}
    _fails_at(data, "/padding/msg_t/0")

    data = _base()
    data["types"] = {"msg_t": 12}
    data["padding"] = {"msg_t": [[-1, 2]]}
    _fails_at(data, "/padding/msg_t/0/0")

    data = _base()
    data["types"] = {"msg_t": 12}
    data["padding"] = {"msg_t": [[0, 0]]}
    _fails_at(data, "/padding/msg_t/0/1")

    data = _base()
    data["types"] = {"m": 8}
    data["padding"] = {"m": [[0, 4], [2, 4]]}
    _fails_at(data, "/padding/m/1")

    data = _base()
    data["types"] = {"msg_t": 12}
    data["padding"] = {"msg_t": [[4, 4], [10, 2]]}
    data["reserved_init"] = {"enabled": True}
    scenario = load_scenario(data)
    assert scenario.padding == {"msg_t": ((4, 4), (10, 2))}
    assert scenario.reserved_init == {"enabled": True, "pattern": 0xCD}


def _pointed_at(doc, pointer):
    """The element of ``doc`` that the JSON pointer ``pointer`` names."""
    for token in pointer.split("/")[1:]:
        token = token.replace("~1", "/").replace("~0", "~")
        doc = doc[int(token)] if isinstance(doc, list) else doc[token]
    return doc


def test_pointers_escape_the_keys_users_choose():
    """Type names, padding type names and binding parameters are keys a
    document chooses; in a pointer, ``~`` is ``~0`` and ``/`` is ``~1``."""
    template = "//!PRE: msan_check(a, 4);\nsyscall_declare(int, f, int*, a);"

    def syscall(bindings):
        return {"op": "SYSCALL", "partition": 1, "name": "f", "bindings": bindings}

    cases = [
        ({"types": {"a/b": 0}}, "/types/a~1b"),
        ({"types": {"m~n": "z"}}, "/types/m~0n"),
        ({"types": {"t": 8}, "padding": {"p/q": [[0, 1]]}}, "/padding/p~1q"),
        ({"types": {"x~/y": 8}, "padding": {"x~/y": [[0, 9]]}}, "/padding/x~0~1y/0"),
        ({"syscalls": [template], "workload": [syscall({"a/b": 5})]},
         "/workload/0/bindings/a~1b"),
        ({"syscalls": [template], "workload": [syscall({"a": {"region": "buf"}, "~/": {}})]},
         "/workload/0/bindings/~0~1"),
        ({"syscalls": [template], "workload": [syscall({"a~b": {"region": "ghost"}})]},
         "/workload/0/bindings/a~0b/region"),
    ]
    for top, path in cases:
        data = {**_base(), **top}
        _fails_at(data, path)
        _pointed_at(data, path)  # the pointer names an element of the document


def test_workload_validation_paths():
    data = _base()
    data["workload"] = [{"op": "FROBNICATE"}]
    _fails_at(data, "/workload/0/op")

    data = _base()
    data["workload"] = [{"op": "WRITE", "partition": 1, "region": "buf", "data": "zz"}]
    _fails_at(data, "/workload/0/data")

    data = _base()
    data["workload"] = [
        {"op": "WRITE", "partition": 1, "region": "buf", "data": "41", "fill": 0, "len": 1}
    ]
    _fails_at(data, "/workload/0")

    data = _base()
    data["workload"] = [{"op": "WRITE", "partition": 1, "region": "buf"}]
    _fails_at(data, "/workload/0")

    data = _base()
    data["workload"] = [{"op": "READ", "partition": 9, "region": "buf", "len": 1}]
    _fails_at(data, "/workload/0/partition")

    data = _base()
    data["workload"] = [
        {"op": "ARITH", "partition": 1, "arith": "ADD", "type": "i32", "a": True, "b": 2}
    ]
    _fails_at(data, "/workload/0/a")

    data = _base()
    data["workload"] = [{"op": "GET_MY_ID", "partition": 1, "caller": 0}]
    _fails_at(data, "/workload/0/caller")

    data = _base()
    data["workload"] = [{"op": "IDLE", "ticks": -1}]
    _fails_at(data, "/workload/0/ticks")

    data = _base()
    data["workload"] = [
        {"op": "RECEIVE", "partition": 1, "port": "p", "expect": "41", "expect_empty": True}
    ]
    _fails_at(data, "/workload/0/expect")

    data = _base()
    data["workload"] = [
        {"op": "SAMPLING_READ", "partition": 1, "port": "p", "expect_validity": "FRESH"}
    ]
    _fails_at(data, "/workload/0/expect_validity")


@pytest.mark.parametrize(
    "where, pointer",
    [
        (("name",), "/name"),
        (("partitions", 0, "regions", 0, "label"), "/partitions/0/regions/0/label"),
        (("ports", 0, "name"), "/ports/0/name"),
        (("workload", 0, "label"), "/workload/0/label"),
        (("workload", 1, "enum"), "/workload/1/enum"),
        (("workload", 2, "type"), "/workload/2/type"),
        (("workload", 3, "name"), "/workload/3/name"),
    ],
)
def test_names_reject_a_trailing_newline(where, pointer):
    """A name appears in reports; one ending in a newline would split its
    line there (``SCENARIO name=demo`` / `` raw=0 virtual=0``)."""
    data = _base()
    data["partitions"][0]["auto_start"] = False  # so that ALLOC may run
    data["partitions"].append({"id": 2})
    port = {"name": "p", "kind": "sampling", "source": 1, "destination": 2}
    data["ports"] = [dict(port, max_message_size=8, refresh_period=10)]
    data["types"] = {"msg_t": 8}
    data["padding"] = {"msg_t": [[4, 4]]}
    data["syscalls"] = ["syscall_declare(int, f);"]
    data["workload"] = [
        {"op": "ALLOC", "partition": 1, "label": "more", "size": 8},
        {"op": "ENUM_CHECK", "partition": 1, "a": 1, "enum": "mode", "allowed": [1]},
        {"op": "UNPOISON_PADDING", "partition": 1, "region": "buf", "type": "msg_t"},
        {"op": "SYSCALL", "partition": 1, "name": "f"},
    ]
    load_scenario(copy.deepcopy(data))
    *path, key = where
    node = data
    for step in path:
        node = node[step]
    node[key] += "\n"
    err = _fails_at(data, pointer)
    assert "must match [A-Za-z0-9_.-]+" in err.message


def test_workload_operand_and_field_shapes():
    data = _base()
    data["workload"] = [
        {"op": "IDLE", "ticks": 3},
        {
            "op": "ARITH",
            "partition": 1,
            "arith": "ADD",
            "type": "u8",
            "a": {"region": "buf", "offset": 0, "width": 1, "signed": False},
            "b": 7,
        },
        {"op": "WRITE", "partition": 1, "region": "buf", "fill": 65, "len": 3},
        {"op": "GET_MY_ID", "partition": 1, "expect": "MAIN_PROCESS_ID"},
    ]
    scenario = load_scenario(data)
    idle, arith, write, gmi = scenario.workload
    assert idle["ticks"] == 3 and idle.get("partition") is None
    # the operand's offset is bound to buf's base, and the operand gains no key
    assert arith["a"] == {"region": "buf", "offset": 32, "width": 1, "signed": False}
    assert arith["b"] == 7 and "strict" not in arith
    assert (write["fill"], write["len"]) == (65, 3) and write.get("data") is None
    assert gmi["caller"] == "main" and gmi["expect"] == "MAIN_PROCESS_ID"


def test_syscall_step_cross_checks():
    template = "//!PRE: msan_check(a, 4);\nsyscall_declare(int, f, int, a);"

    data = _base()
    data["syscalls"] = [template]
    data["workload"] = [{"op": "SYSCALL", "partition": 1, "name": "ghost", "bindings": {}}]
    _fails_at(data, "/workload/0/name")

    data = _base()
    data["syscalls"] = [template]
    data["workload"] = [
        {
            "op": "SYSCALL",
            "partition": 1,
            "name": "f",
            "bindings": {"a": {"region": "buf"}, "zz": {"region": "buf"}},
        }
    ]
    _fails_at(data, "/workload/0/bindings/zz")

    data = _base()
    data["syscalls"] = ["//!PRE: msan_check(a, sizeof(ghost_t));\nsyscall_declare(int, f, int*, a);"]
    data["workload"] = [{"op": "SYSCALL", "partition": 1, "name": "f", "bindings": {"a": {}}}]
    _fails_at(data, "/workload/0/name")

    data = _base()
    data["syscalls"] = ["//!PRE: msan_check(a, 64);\nsyscall_declare(int, f, int*, a);"]
    data["workload"] = [
        {"op": "SYSCALL", "partition": 1, "name": "f", "bindings": {"a": {"len": 8}}}
    ]
    _fails_at(data, "/workload/0/bindings/a")

    data = _base()
    data["syscalls"] = ["syscall_declare(int f);"]
    _fails_at(data, "/syscalls/0")

    data = _base()
    data["syscalls"] = [template, template]
    _fails_at(data, "/syscalls/1")

    data = _base()
    data["syscalls"] = [template]
    data["workload"] = [
        {"op": "SYSCALL", "partition": 1, "name": "f", "bindings": {"a": {"region": "buf", "offset": 4, "len": 4}}}
    ]
    step = load_scenario(data).workload[0]
    assert step["succeed"] is True
    assert step["bindings"] == {"a": {"region": "buf", "offset": 36, "len": 4}}


def _doc(workload, memory_size=4096, auto_start=True, **top):
    """One partition with a 16-byte region ``buf`` at offset 32 and one
    process, plus the given workload and top-level sections."""
    partition = {
        "id": 1,
        "memory_size": memory_size,
        "auto_start": auto_start,
        "regions": [{"label": "buf", "size": 16}],
        "processes": [{"id": 1, "priority": 1, "time_capacity": 100}],
    }
    partitions = [partition, {"id": 2}, {"id": 3}]
    return {"name": "t", "partitions": partitions, "workload": workload, **top}


def _step(op, **fields):
    return {"op": op, "partition": 1, **fields}


def test_workload_errors_fail_at_load_with_their_pointer():
    """Mistakes the simulator could only meet while running are rejected by
    the load-time workload pass, at the pointer of the field at fault."""
    queue_2_to_1 = [{"name": "q", "kind": "queueing", "source": 2, "destination": 1,
                     "max_message_size": 8, "capacity": 2}]
    sampling_1_to_2 = [{"name": "s", "kind": "sampling", "source": 1, "destination": 2,
                        "max_message_size": 8, "refresh_period": 5}]
    queue_2_to_3 = [dict(queue_2_to_1[0], destination=3)]
    past_memory = "//!PRE: msan_check(a, 64);\nsyscall_declare(int, f, int*, a);"
    cases = [
        # regions exist from their ALLOC to the next RESET_PARTITION
        (_doc([_step("WRITE", region="late", data="01"), _step("ALLOC", label="late", size=8)],
              auto_start=False), "/workload/0/region"),
        (_doc([_step("RESET_PARTITION"), _step("READ", region="buf", len=1)]),
         "/workload/1/region"),
        (_doc([_step("COPY", src_region="buf", dst_region="gone", len=1)]),
         "/workload/0/dst_region"),
        (_doc([_step("BRANCH_ON", region="buf", len=1), _step("ALLOC", label="x", size=8)]),
         "/workload/1"),
        (_doc([_step("START_PARTITION")]), "/workload/0"),
        (_doc([_step("ALLOC", label="buf", size=8)], auto_start=False), "/workload/0/label"),
        # memory: declared regions, then ALLOC steps, fit in memory_size
        ({"name": "t", "partitions": [{"id": 1, "memory_size": 64, "regions": [
            {"label": "a", "size": 16}, {"label": "b", "size": 8}]}]},
         "/partitions/0/regions/1/size"),
        (_doc([_step("ALLOC", label="big", size=4096)], auto_start=False), "/workload/0/size"),
        # ports: the right kind, and the step's partition at the right end
        (_doc([_step("SEND", port="q", region="buf", len=1)], ports=queue_2_to_1),
         "/workload/0/port"),
        (_doc([_step("SEND", port="s", region="buf", len=1)], ports=sampling_1_to_2),
         "/workload/0/port"),
        (_doc([_step("RECEIVE", port="q", region="buf")], ports=queue_2_to_3),
         "/workload/0/port"),
        (_doc([_step("SAMPLING_READ", port="nope", region="buf")]), "/workload/0/port"),
        (_doc([_step("GET_MY_ID", caller=2)]), "/workload/0/caller"),
        # padding
        (_doc([_step("UNPOISON_PADDING", region="buf", type="msg_t")], types={"msg_t": 8}),
         "/workload/0/type"),
        (_doc([_step("UNPOISON_PADDING", region="buf", type="big_t")], memory_size=64,
              types={"big_t": 64}, padding={"big_t": [[40, 8]]}), "/workload/0/type"),
        # operands are values of the op's type
        (_doc([_step("ARITH", arith="ADD", type="i32", a=2**31, b=1)]), "/workload/0/a"),
        (_doc([_step("DIV", type="u8", a=1, b=-1)]), "/workload/0/b"),
        (_doc([_step("ARITH", arith="ADD", type="i32", a=1,
                     b={"region": "buf", "width": 4, "signed": False})]), "/workload/0/b"),
        (_doc([_step("TRUNC", **{"from": "u16", "to": "u8"},
                     a={"region": "buf", "signed": True})]), "/workload/0/a"),
        (_doc([_step("SHIFT", type="i64", a={"region": "ghost"}, s=1)]), "/workload/0/a/region"),
        # SYSCALL directives stay inside the partition
        (_doc([_step("SYSCALL", name="f", bindings={"a": {"region": "buf", "offset": 4040}})],
              syscalls=[past_memory]), "/workload/0/bindings/a"),
        (_doc([_step("SYSCALL", name="f", bindings={"a": {"region": "nope"}})],
              syscalls=[past_memory]), "/workload/0/bindings/a/region"),
    ]
    for data, path in cases:
        _fails_at(data, path)

    # loads that exercise the same rules without breaking them
    fine = _doc(
        [
            _step("RESET_PARTITION"),
            _step("ALLOC", label="buf", size=16),
            _step("START_PARTITION"),
            _step("SAMPLING_WRITE", port="s", region="buf", len=1),
            _step("ARITH", arith="ADD", type="i32", a=-(2**31),
                  b={"region": "buf", "width": 3, "signed": False}),
            _step("TRUNC", **{"from": "i16", "to": "u8"}, a={"region": "buf", "width": 1}),
            _step("GET_MY_ID", caller=1),
            _step("SYSCALL", name="f", bindings={"a": {"region": "buf", "offset": 4000}}),
        ],
        ports=sampling_1_to_2,
        syscalls=[past_memory],
    )
    run_scenario(load_scenario(fine))


def test_granularity_override_rechecks_the_layout():
    data = _base()
    data["partitions"][0]["redzone"] = 8
    load_scenario(data)
    with pytest.raises(ConfigError) as err:
        load_scenario(data, granularity=16)
    assert err.value.path == "/partitions/0/redzone"
    assert load_scenario(data, granularity=8).partitions[0]["granularity"] == 8

    # 17 bytes take 17 at granularity 1 and 32 at 16, so the second region
    # no longer fits in 112 bytes
    data = _base()
    data["partitions"][0].update(memory_size=112, granularity=1, regions=[], auto_start=False)
    data["workload"] = [
        {"op": "ALLOC", "partition": 1, "label": "a", "size": 17},
        {"op": "ALLOC", "partition": 1, "label": "b", "size": 1},
        {"op": "START_PARTITION", "partition": 1},
        {"op": "WRITE", "partition": 1, "region": "b", "data": "01"},
        {"op": "READ", "partition": 1, "region": "b", "offset": 1, "len": 1},
    ]
    load_scenario(data)
    with pytest.raises(ConfigError) as err:
        load_scenario(data, granularity=16)
    assert err.value.path == "/workload/1/size"
    run_scenario(load_scenario(data, granularity=4))

    # the document is checked only at the granularity it runs with: where
    # the regions fit only at the override's, it loads with the override
    data["partitions"][0]["granularity"] = 16
    _fails_at(data, "/workload/1/size")
    report = run_scenario(load_scenario(data, granularity=1))
    (violation,) = report.violations
    # the null guard, a's redzone, 17 bytes of a and the redzones between a and b
    assert (violation.kind, violation.offset) == ("RIGHT_REDZONE", 16 + 16 + 17 + 16 + 16 + 1)


def test_memory_cap_bounds_partitions_and_fill_len():
    """A scenario that loads can be built: its partitions' memory in all,
    and a WRITE's fill length, stay within MEMORY_CAP."""
    huge = {"name": "t", "partitions": [
        {"id": 1, "memory_size": 2**40, "regions": [{"label": "a", "size": 2**39}]}]}
    _fails_at(huge, "/partitions/0/memory_size")  # never built

    data = _base()
    data["partitions"] = [{"id": 1, "memory_size": MEMORY_CAP // 2},
                          {"id": 2, "memory_size": MEMORY_CAP // 2 + 8}]
    _fails_at(data, "/partitions/1/memory_size")
    data["partitions"][1]["memory_size"] = MEMORY_CAP // 2
    load_scenario(data)  # exactly the cap; not run, which would build 16 MiB

    data = _base()
    data["workload"] = [
        {"op": "WRITE", "partition": 1, "region": "buf", "fill": 0, "len": MEMORY_CAP + 1}
    ]
    _fails_at(data, "/workload/0/len")

    # a fill is kept as its byte and length, not expanded while loading
    text = (
        '{"name":"t","partitions":[{"id":1,"regions":[{"label":"b","size":8}]}],"workload":'
        '[{"op":"WRITE","partition":1,"region":"b","fill":0,"len":10000000}]}'
    )
    tracemalloc.start()
    try:
        scenario = load_scenario_text(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    (violation,) = run_scenario(scenario).violations
    assert (violation.kind, violation.size) == ("WILD_ADDRESS", 10**7)


def test_expect_validation_paths():
    data = _base()
    data["expect"] = [{"kind": "NOT_A_KIND"}]
    _fails_at(data, "/expect/0/kind")

    data = _base()
    data["expect"] = [{"kind": "UNINIT_USE", "context": "BOGUS"}]
    _fails_at(data, "/expect/0/context")

    data = _base()
    data["expect"] = [{"kind": "UNINIT_USE", "severity": "high"}]
    _fails_at(data, "/expect/0")

    data = _base()
    data["expect"] = [
        {"kind": "LEFT_REDZONE", "partition": 1, "offset": 31},
        {"kind": "UNINIT_USE", "context": "SYSCALL_PRE"},
    ]
    scenario = load_scenario(data)
    assert scenario.expect == (
        {"kind": "LEFT_REDZONE", "partition": 1, "offset": 31},
        {"kind": "UNINIT_USE", "context": "SYSCALL_PRE"},
    )


def test_violation_kind_catalogue_covers_ub_kinds():
    assert {"ADD_OVERFLOW", "DIV_BY_ZERO", "SHIFT_RANGE", "TRUNCATION"} <= VIOLATION_KINDS
    assert {"LEFT_REDZONE", "UNINIT_USE", "QUEUE_FULL", "API_CONTRACT"} <= VIOLATION_KINDS


def test_overrides_apply_in_the_load():
    name = "off_schedule_with_and_without_slowdown"
    scenario = load_builtin(name)
    assert scenario.time["slowdown_factor"] == Fraction(2)
    assert load_builtin(name, slowdown_factor=1).time["slowdown_factor"] == Fraction(1)
    ratio = load_builtin(name, slowdown_factor="3/2")
    assert ratio.time["slowdown_factor"] == Fraction(3, 2)
    regran = load_builtin(name, granularity=4)
    assert all(p["granularity"] == 4 for p in regran.partitions)
    assert regran.workload == scenario.workload  # no location moves in this one

    text = json.dumps({"name": "t", "partitions": [{"id": 1, "granularity": 3}]})
    for overrides, message in (
        ({"slowdown_factor": 0}, "slowdown factor must be positive, got 0"),
        ({"slowdown_factor": -2}, "slowdown factor must be positive, got -2"),
        ({"granularity": 3}, "granularity must be one of (1, 2, 4, 8, 16), got 3"),
        ({"granularity": 16.0}, "expected an integer, got 16.0"),
        ({"granularity": True}, "expected an integer, got True"),
    ):
        with pytest.raises(ConfigError) as err:
            load_builtin(name, **overrides)
        assert (err.value.path, err.value.message) == (None, message)
        # a section's own error comes first, as the overrides are checked after them
        with pytest.raises(ConfigError) as err:
            load_scenario_text(text, **overrides)
        assert err.value.path == "/partitions/0/granularity"

    # an override is checked before what refers across sections
    data = _base()
    data["time"] = {"timeout_overrides": [{"partition": 1, "process": 9, "multiplier": 2}]}
    _fails_at(data, "/time/timeout_overrides/0")
    with pytest.raises(ConfigError) as err:
        load_scenario(data, granularity=5)
    assert err.value.path is None


def _step_mix(monkeypatch) -> str:
    """The JSON text of the benchmark's ``step_mix`` scenario at seed 1."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    (text,) = workloads.GENERATORS["step_mix"](1)
    return text


def test_an_overridden_load_holds_what_a_plain_one_does(monkeypatch):
    """The overrides are written into the loaded sections before the one
    workload pass, so no step is copied or bound twice."""
    text = _step_mix(monkeypatch)
    load_scenario_text(text)  # any one-off allocation happens outside the count
    held = []
    tracemalloc.start()
    try:
        for overrides in ({}, {"granularity": 16}):
            base = tracemalloc.get_traced_memory()[0]
            scenario = load_scenario_text(text, **overrides)
            held.append(tracemalloc.get_traced_memory()[0] - base)
            del scenario
    finally:
        tracemalloc.stop()
    plain, overridden = held
    assert overridden <= 1.05 * plain, (plain, overridden)


def test_steps_naming_one_template_share_its_name(monkeypatch):
    scenario = load_scenario_text(_step_mix(monkeypatch))
    user_names = {spec.user_name: spec.user_name for spec in scenario.syscalls}
    names = [step["name"] for step in scenario.workload if step["op"] == "SYSCALL"]
    assert len(names) > 900
    assert all(name is user_names[name] for name in names)
    assert len({id(name) for name in names}) == len(set(names))


def _filled_defaults(rows):
    """The keys a load adds to an object that omits them: its rows' defaults."""
    return {key for key, _, default in rows if default is not _REQUIRED and default is not _ABSENT}


def test_a_loaded_step_holds_its_decoded_keys_and_row_defaults(monkeypatch):
    """The workload pass binds each location into its own offset key, so a
    loaded step, operand or binding has the keys its JSON gave plus its
    row defaults, and no other (an UNPOISON_PADDING step's region base is
    its one bound ``offset``).  Every builtin and ``step_mix`` at seed 1.
    A flag that defaults to false (``strict``, ``expect_empty``) stays out."""
    assert {op: _filled_defaults(_OPS[op].rows) for op in ("ARITH", "SHIFT", "RECEIVE")} == {
        "ARITH": set(), "SHIFT": set(), "RECEIVE": {"offset"},
    }
    root = resources.files("partsan.scenarios")
    texts = [(root / f"{name}.json").read_text(encoding="utf-8") for name in builtin_names()]
    texts.append(_step_mix(monkeypatch))
    located = _filled_defaults(_OPERAND.rows)  # a binding's rows fill the same
    counted = 0
    for text in texts:
        decoded = json.loads(text).get("workload", [])
        loaded = load_scenario_text(text).workload
        assert len(loaded) == len(decoded)
        for step, raw in zip(loaded, decoded):
            bound = {"offset"} if raw["op"] == "UNPOISON_PADDING" else set()
            assert step.keys() == raw.keys() | _filled_defaults(_OPS[raw["op"]].rows) | bound
            for key in ("a", "b"):
                if isinstance(raw.get(key), dict):
                    assert step[key].keys() == raw[key].keys() | located
            for param, binding in raw.get("bindings", {}).items():
                assert step["bindings"][param].keys() == binding.keys() | located
            counted += 1
    assert counted > 20_000


def test_loaded_steps_leave_little_for_the_collector():
    """A step of plain values loads into one dict, which CPython's cyclic
    collector does not track, so a long workload adds little to its work."""
    workload = []
    for i in range(2000):
        where = {"partition": 1, "region": "buf", "offset": i % 8}
        workload.append([
            {"op": "WRITE", **where, "data": "0102"},
            {"op": "READ", **where, "len": 4},
            {"op": "BRANCH_ON", **where, "len": 2},
            {"op": "COPY", "partition": 1, "src_region": "buf", "src_offset": i % 4,
             "dst_region": "buf", "dst_offset": 8, "len": 4},
        ][i % 4])
    doc = _doc(workload)
    gc.collect()
    before = len(gc.get_objects())
    scenario = load_scenario(doc)
    left = len(gc.get_objects()) - before
    assert len(scenario.workload) == 2000
    assert left < 0.5 * 2000, left


_QUERY = (
    "//!USER_NAME: query\n"
    "//!PRE: msan_check(&req, sizeof(req));\n"
    "//!POST: msan_unpoison(resp, sizeof(*resp));\n"
    "syscall_declare(int, sys_query, req_t, req, resp_t*, resp);\n"
)


def _every_op_doc():
    """A document that loads, with every section and every op, memory
    operands and SYSCALL bindings."""
    at = {"partition": 1, "region": "buf"}
    return {
        "name": "every_op",
        "partitions": [
            {"id": 1, "auto_start": False,
             "regions": [{"label": "buf", "size": 16}, {"label": "req", "size": 8},
                         {"label": "resp", "size": 16}],
             "processes": [{"id": 1, "priority": 2, "time_capacity": 50, "period": 100}]},
            {"id": 2, "regions": [{"label": "inbox", "size": 16}]},
        ],
        "time": {"slowdown_factor": "3/2", "costs": {"asan_check": 1},
                 "major_frame": {"frame_len": 100, "windows": [
                     {"partition": 1, "start": 0, "length": 50},
                     {"partition": 2, "start": 50, "length": 50}]},
                 "timeout_overrides": [{"partition": 1, "process": 1, "multiplier": "2"}]},
        "ports": [
            {"name": "q1", "kind": "queueing", "source": 1, "destination": 2,
             "max_message_size": 8, "capacity": 2},
            {"name": "s1", "kind": "sampling", "source": 1, "destination": 2,
             "max_message_size": 8, "refresh_period": 5},
        ],
        "types": {"req_t": 8, "resp_t": 16, "pair_t": 8},
        "padding": {"pair_t": [[4, 4]]},
        "reserved_init": {"enabled": True},
        "syscalls": [_QUERY],
        "workload": [
            {"op": "ALLOC", "partition": 1, "label": "more", "size": 8},
            {"op": "START_PARTITION", "partition": 1},
            {"op": "WRITE", **at, "data": "0102030405060708"},
            {"op": "WRITE", "partition": 1, "region": "more", "fill": 0, "len": 8},
            {"op": "READ", **at, "offset": 2, "len": 4},
            {"op": "COPY", "partition": 1, "src_region": "buf", "dst_region": "more",
             "dst_offset": 4, "len": 4},
            {"op": "BRANCH_ON", **at, "len": 2},
            {"op": "ARITH", "partition": 1, "arith": "ADD", "type": "u32",
             "a": {"region": "buf", "offset": 0}, "b": 1, "strict": True},
            {"op": "DIV", "partition": 1, "type": "i32", "a": 7,
             "b": {"region": "more", "offset": 4, "width": 2, "signed": True}},
            {"op": "SHIFT", "partition": 1, "type": "u8", "a": 1, "s": 3},
            {"op": "TRUNC", "partition": 1, "from": "i32", "to": "u8", "a": 200},
            {"op": "ALIGN_CHECK", **at, "align": 8},
            {"op": "NULL_CHECK", **at},
            {"op": "BOOL_CHECK", "partition": 1, "a": {"offset": 32, "width": 1}},
            {"op": "ENUM_CHECK", "partition": 1, "a": 2, "enum": "mode", "allowed": [1, 2]},
            {"op": "SYSCALL", "partition": 1, "name": "query",
             "bindings": {"req": {"region": "req", "offset": 0},
                          "resp": {"region": "resp", "offset": 0, "len": 16}}},
            {"op": "SEND", "partition": 1, "port": "q1", **at, "len": 4},
            {"op": "SAMPLING_WRITE", "partition": 1, "port": "s1", **at, "len": 4},
            {"op": "RECEIVE", "partition": 2, "port": "q1", "region": "inbox",
             "expect": "01020304"},
            {"op": "SAMPLING_READ", "partition": 2, "port": "s1", "region": "inbox",
             "offset": 8, "expect_validity": "VALID"},
            {"op": "GET_MY_ID", "partition": 1, "caller": 1, "expect": 1},
            {"op": "UNPOISON_PADDING", **at, "type": "pair_t"},
            {"op": "IDLE", "ticks": 3},
            {"op": "RESET_PARTITION", "partition": 2},
        ],
        "expect": [{"kind": "UNINIT_USE", "partition": 1, "context": "SYSCALL_PRE"}],
    }


def test_load_scenario_leaves_its_argument_as_it_was():
    """The loader loads its own tree in place, so ``load_scenario`` copies
    the dicts and lists of a caller's document first."""
    doc = _every_op_doc()
    assert {step["op"] for step in doc["workload"]} == {"IDLE", *Simulator._EXECUTORS}
    before = copy.deepcopy(doc)
    assert run_scenario(load_scenario(doc)).verdict == "MATCH"
    assert doc == before

    # one step dict listed twice loads as two steps, each bound on its own
    step = {"op": "READ", "partition": 1, "region": "buf", "len": 4}
    doc = _doc([step, step])
    before = copy.deepcopy(doc)
    first, second = load_scenario(doc).workload
    assert doc == before and first is not second and first == second

    doc = _every_op_doc()
    doc["workload"].append({"op": "READ", "partition": 1, "region": "nowhere", "len": 4})
    before = copy.deepcopy(doc)
    _fails_at(doc, f"/workload/{len(doc['workload']) - 1}/region")
    assert doc == before

    cycle = []
    cycle.append(cycle)
    with pytest.raises(ConfigError):
        load_scenario({"name": "t", "syscalls": cycle})


def test_defaults_are_fresh_per_load():
    one, two = load_scenario({"name": "a"}), load_scenario({"name": "a"})
    assert one.types == two.types == {} and one.padding == two.padding == {}
    assert one.types is not two.types and one.padding is not two.padding
    assert one.time["costs"] is not two.time["costs"]


def test_text_loads_in_about_the_memory_of_its_decoded_tree():
    """``load_scenario_text`` loads the tree it decoded in place, so a long
    workload is held once, and steps naming one region or port share the
    string of its label or name."""
    regions = [{"label": label, "size": 32} for label in ("buf", "dst", "req", "resp")]
    doc = {
        "name": "long",
        "partitions": [{"id": 1, "regions": regions}, {"id": 2, "regions": regions}],
        "ports": [{"name": "q1", "kind": "queueing", "source": 1, "destination": 2,
                   "max_message_size": 8, "capacity": 4}],
        "types": {"req_t": 8, "resp_t": 16},
        "syscalls": [_QUERY],
    }
    rng = random.Random(1)
    steps = []
    for i in range(700):
        where = {"partition": 1, "region": rng.choice(("buf", "dst")), "offset": i % 8}
        steps += [
            {"op": "WRITE", **where, "data": bytes(rng.randrange(256) for _ in range(8)).hex()},
            {"op": "WRITE", **where, "fill": i % 256, "len": 16},
            {"op": "READ", **where, "len": 8},
            {"op": "COPY", "partition": 1, "src_region": "buf", "dst_region": "dst",
             "dst_offset": 8, "len": 8},
            {"op": "ARITH", "partition": 1, "arith": "MUL", "type": "u16",
             "a": {"region": "buf", "offset": 2}, "b": i},
            {"op": "SEND", "partition": 1, "port": "q1", **where, "len": 8},
            {"op": "RECEIVE", "partition": 2, "port": "q1", "region": "buf"},
            {"op": "SYSCALL", "partition": 1, "name": "query",
             "bindings": {"req": {"region": "req", "offset": 0},
                          "resp": {"region": "resp", "offset": 0}}},
        ]
    doc["workload"] = steps
    text = json.dumps(doc)
    assert len(steps) >= 5000

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        decoded = json.loads(text)
        tree = tracemalloc.get_traced_memory()[0] - base
        del decoded
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        scenario = load_scenario_text(text)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * tree, (peak, tree)

    labels = {region["label"]: region["label"] for region in scenario.partitions[0]["regions"]}
    (port,) = scenario.ports
    named = 0
    for step in scenario.workload:
        for key in ("region", "src_region", "dst_region"):
            if step.get(key) is not None and step["partition"] == 1:
                assert step[key] is labels[step[key]]
                named += 1
        if step["op"] == "ARITH":
            assert step["a"]["region"] is labels["buf"]
        elif step["op"] == "SYSCALL":
            assert step["bindings"]["req"]["region"] is labels["req"]
            assert step["name"] is scenario.syscalls[0].user_name
        elif step["op"] in ("SEND", "RECEIVE"):
            assert step["port"] is port["name"]
    assert named > 4000


def _names_node(doc, path):
    """Whether ``path`` is a JSON pointer to a node of ``doc``, or to a
    missing key directly under one of its objects."""
    node = doc
    parts = path.split("/")[1:] if path != "/" else []
    for depth, part in enumerate(parts):
        if isinstance(node, dict) and part in node:
            node = node[part]
        elif isinstance(node, list) and part.isdigit() and int(part) < len(node):
            node = node[int(part)]
        else:
            return isinstance(node, dict) and depth == len(parts) - 1
    return True


def _children(node):
    """Every (container, key) pair below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _children(value)


def test_mutated_builtins_fail_with_a_pointer_or_run():
    """One changed value, deleted key or added key per builtin document:
    either loading fails with a pointer into the document, or the scenario
    runs without raising, also under every granularity override it loads
    with."""
    rng = random.Random(4)
    values = (None, True, -1, 0, 1, 2, 3, 4097, "x", "buf", [], {})
    root = resources.files("partsan.scenarios")
    for name in builtin_names():
        text = (root / f"{name}.json").read_text(encoding="utf-8")
        for _ in range(100):
            doc = json.loads(text)
            container, key = rng.choice(list(_children(doc)))
            roll = rng.random()
            if roll < 0.2 and isinstance(container, dict):
                del container[key]
            elif roll < 0.3 and isinstance(container[key], dict):
                container[key]["bogus"] = 1
            else:
                container[key] = rng.choice(values)
            try:
                scenario = load_scenario(doc)
            except ConfigError as exc:
                assert exc.path and _names_node(doc, exc.path), (name, str(exc))
                continue
            Simulator(scenario).run()
            for granularity in (1, 16):
                try:
                    regran = load_scenario(doc, granularity=granularity)
                except ConfigError as exc:
                    assert exc.path and _names_node(doc, exc.path), (name, str(exc))
                    continue
                Simulator(regran).run()
