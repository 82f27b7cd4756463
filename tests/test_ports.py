"""Sampling and queueing port semantics."""

import random
from collections import deque

import pytest

from partsan.errors import ConfigError
from partsan.guest_memory import PartitionMemory
from partsan.ports import QueueingPort, SamplingPort, Validity
from partsan.scenario import load_scenario
from partsan.violations import ViolationError


def _memory(partition_id, label="buf", size=32, origins=None):
    mem = PartitionMemory(partition_id, 512, origins=origins)
    mem.alloc_region(size, label)
    mem.start()
    return mem


def _sampling_pair(refresh=10, max_size=16):
    # one object per declared port: the source partition writes to it and
    # the destination partition reads from it
    port = SamplingPort("sp", max_size, refresh)
    return port, port


def _queueing_pair(capacity=4, max_size=16):
    port = QueueingPort("qp", max_size, capacity)
    return port, port


def test_sampling_write_read_roundtrip_and_overwrite():
    src_mem, dst_mem = _memory(1), _memory(2)
    src, dst = _sampling_pair()
    base = src_mem.region("buf").base
    inbox = dst_mem.region("buf").base
    src_mem.checked_write(base, b"\x01\x02\x03\x04")
    src.write(src_mem, base, 4, now=0)
    src_mem.checked_write(base, b"\x05\x06\x07\x08")
    src.write(src_mem, base, 4, now=1)  # replaces the first value
    result = dst.read(dst_mem, inbox, now=2)
    assert result.payload == b"\x05\x06\x07\x08"
    assert result.validity is Validity.VALID and result.age == 1
    assert dst_mem.checked_read(inbox, 4) == b"\x05\x06\x07\x08"


def test_sampling_freshness_boundary():
    src_mem, dst_mem = _memory(1), _memory(2)
    src, dst = _sampling_pair(refresh=10)
    base = src_mem.region("buf").base
    inbox = dst_mem.region("buf").base
    src_mem.checked_write(base, b"\xff")
    src.write(src_mem, base, 1, now=0)
    assert dst.read(dst_mem, inbox, now=0).validity is Validity.VALID
    assert dst.read(dst_mem, inbox, now=10).validity is Validity.VALID
    assert dst.read(dst_mem, inbox, now=11).validity is Validity.STALE


def test_sampling_read_before_any_write_is_empty():
    dst_mem = _memory(2)
    _, dst = _sampling_pair()
    assert dst.read(dst_mem, dst_mem.region("buf").base, now=0) is None


def test_sampling_repeated_reads_are_idempotent():
    src_mem, dst_mem = _memory(1), _memory(2)
    src, dst = _sampling_pair(refresh=5)
    base = src_mem.region("buf").base
    inbox = dst_mem.region("buf").base
    src_mem.checked_write(base, b"\x11\x22")
    src.write(src_mem, base, 2, now=0)
    first = dst.read(dst_mem, inbox, now=3)
    second = dst.read(dst_mem, inbox, now=9)
    assert first.payload == second.payload == b"\x11\x22"
    assert first.validity is Validity.VALID and second.validity is Validity.STALE


def test_direction_enforcement():
    # each port op must run in the partition at its end of the port; a
    # scenario that uses the wrong end fails at load, at the step's port
    ports = [
        {"name": "sp", "kind": "sampling", "source": 1, "destination": 2,
         "max_message_size": 8, "refresh_period": 10},
        {"name": "qp", "kind": "queueing", "source": 1, "destination": 2,
         "max_message_size": 8, "capacity": 4},
    ]
    partitions = [{"id": pid, "regions": [{"label": "buf", "size": 8}]} for pid in (1, 2)]
    wrong_end = [
        {"op": "SAMPLING_READ", "partition": 1, "port": "sp", "region": "buf"},
        {"op": "SAMPLING_WRITE", "partition": 2, "port": "sp", "region": "buf", "len": 1},
        {"op": "RECEIVE", "partition": 1, "port": "qp", "region": "buf"},
        {"op": "SEND", "partition": 2, "port": "qp", "region": "buf", "len": 1},
    ]
    for step in wrong_end:
        data = {"name": "t", "partitions": partitions, "ports": ports, "workload": [step]}
        with pytest.raises(ConfigError) as err:
            load_scenario(data)
        assert err.value.path == "/workload/0/port", step

    right_end = [dict(step, partition=3 - step["partition"]) for step in wrong_end]
    load_scenario({"name": "t", "partitions": partitions, "ports": ports, "workload": right_end})


def test_oversize_message_blocked():
    src_mem = _memory(1)
    src, _ = _sampling_pair(max_size=4)
    base = src_mem.region("buf").base
    src_mem.checked_write(base, b"\x00" * 8)
    with pytest.raises(ViolationError) as err:
        src.write(src_mem, base, 8, now=0)
    assert err.value.violation.kind == "MESSAGE_TOO_LONG"
    assert src.latest is None


def test_uninitialized_payload_blocked_and_not_stored():
    src_mem = _memory(1)
    src, _ = _sampling_pair()
    base = src_mem.region("buf").base
    src_mem.checked_write(base, b"\x01\x02\x03\x04")  # half of 8
    with pytest.raises(ViolationError) as err:
        src.write(src_mem, base, 8, now=0)
    violation = err.value.violation
    assert violation.kind == "UNINIT_USE"
    assert violation.context == "PORT_SEND"
    assert violation.offset == base + 4
    assert src.latest is None


def test_poisoned_source_blocked():
    src_mem = _memory(1, size=8)
    src, _ = _sampling_pair()
    base = src_mem.region("buf").base
    src_mem.checked_write(base, b"\x00" * 8)
    # initialization is checked before addressability, so mark the redzone
    # bytes initialized to expose the address check
    src_mem.init_shadow.mark_initialized(base + 8, 4, "stale")
    with pytest.raises(ViolationError) as err:
        src.write(src_mem, base + 4, 8, now=0)  # crosses right redzone
    assert err.value.violation.kind == "RIGHT_REDZONE"
    assert err.value.violation.detail == "right redzone of region 'buf'"
    with pytest.raises(ViolationError) as err:
        src.write(src_mem, -2, 4, now=0)
    assert err.value.violation.kind == "WILD_ADDRESS"


def test_queueing_fifo_and_counts():
    src_mem, dst_mem = _memory(1), _memory(2)
    src, dst = _queueing_pair(capacity=8)
    base = src_mem.region("buf").base
    inbox = dst_mem.region("buf").base
    for value in range(5):
        src_mem.checked_write(base, bytes([value, value]))
        src.send(src_mem, base, 2, now=value)
    got = []
    while True:
        result = dst.receive(dst_mem, inbox, now=10)
        if result is None:
            break
        got.append(result.payload)
    assert got == [bytes([v, v]) for v in range(5)]


def test_queue_full_drops_new_message():
    src_mem = _memory(1)
    src, _ = _queueing_pair(capacity=2)
    base = src_mem.region("buf").base
    src_mem.checked_write(base, b"\x01")
    src.send(src_mem, base, 1, now=0)
    src_mem.checked_write(base, b"\x02")
    src.send(src_mem, base, 1, now=1)
    src_mem.checked_write(base, b"\x03")
    with pytest.raises(ViolationError) as err:
        src.send(src_mem, base, 1, now=2)
    assert err.value.violation.kind == "QUEUE_FULL"
    assert [m.payload for m in src.queue] == [b"\x01", b"\x02"]


def test_receive_from_empty_queue_is_none():
    dst_mem = _memory(2)
    _, dst = _queueing_pair()
    assert dst.receive(dst_mem, dst_mem.region("buf").base, now=0) is None


def test_a_sent_message_holds_its_own_immutable_copy():
    src_mem, dst_mem = _memory(1), _memory(2)
    port, _ = _queueing_pair()
    base = src_mem.region("buf").base
    src_mem.checked_write(base, b"\x01\x02\x03")
    port.send(src_mem, base, 3, now=0)
    src_mem.checked_write(base, b"\x09\x09\x09")
    msg = port.queue[0]
    assert type(msg.payload) is bytes and msg.payload == b"\x01\x02\x03"
    assert msg.init_bits == b"\x01\x01\x01"
    port.receive(dst_mem, dst_mem.region("buf").base, now=1)
    assert dst_mem.checked_read(dst_mem.region("buf").base, 3) == b"\x01\x02\x03"


def test_origin_labels_cross_the_hop():
    src_mem, dst_mem = _memory(1), _memory(2)
    src, dst = _queueing_pair()
    base = src_mem.region("buf").base
    inbox = dst_mem.region("buf").base
    src_mem.checked_write(base, b"\x01\x02", origin="writer-step-3")
    src.send(src_mem, base, 2, now=0)
    dst.receive(dst_mem, inbox, now=1)
    assert dst_mem.init_shadow.origin_at(inbox) == "writer-step-3"
    assert dst_mem.init_shadow.origin_at(inbox + 1) == "writer-step-3"


def test_a_hop_within_one_origin_table_adds_no_entry():
    # a simulator's partitions share one table, so the receiver gets the
    # sender's ids as they are; with tables of their own, it interns labels
    for shared in (True, False):
        origins = ([None], {}) if shared else None
        src_mem, dst_mem = _memory(1, origins=origins), _memory(2, origins=origins)
        port, _ = _queueing_pair()
        base = src_mem.region("buf").base
        inbox = dst_mem.region("buf").base
        src_mem.checked_write(base, b"\x01\x02\x03", origin="writer")
        src_mem.checked_write(base + 1, b"\x04", origin="patch")
        port.send(src_mem, base, 3, now=0)
        table = dst_mem.init_shadow._origin_table
        entries = len(table)
        port.receive(dst_mem, inbox, now=1)
        assert [dst_mem.init_shadow.origin_at(inbox + i) for i in range(3)] == [
            "writer", "patch", "writer"
        ]
        assert len(table) == entries + (0 if shared else 2)
        assert (table is src_mem.init_shadow._origin_table) == shared


def test_randomized_interleavings_preserve_fifo_and_init():
    rng = random.Random(31)
    src_mem, dst_mem = _memory(1), _memory(2)
    inbox = dst_mem.region("buf").base
    base = src_mem.region("buf").base
    src, dst = _queueing_pair(capacity=1000, max_size=4)
    expected = deque()
    sent = received = 0
    while sent < 1000 or expected:
        if sent < 1000 and (not expected or rng.random() < 0.55):
            payload = sent.to_bytes(4, "little")
            src_mem.checked_write(base, payload)
            src.send(src_mem, base, 4, now=sent)
            expected.append(payload)
            sent += 1
        else:
            result = dst.receive(dst_mem, inbox, now=sent)
            assert result.payload == expected.popleft()
            assert len(dst.queue) == len(expected)
            # no uninitialized byte ever crosses a port
            assert dst_mem.init_shadow.check(inbox, 4, "BRANCH") is None
            received += 1
    assert received == 1000
    assert dst.receive(dst_mem, inbox, now=0) is None
