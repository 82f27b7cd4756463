"""Sampling and queueing port semantics."""

import random
from collections import deque

import pytest

from partsan.errors import ConfigError
from partsan.guest_memory import PartitionMemory
from partsan.ports import (
    PortDirection,
    QueueingChannel,
    QueueingPort,
    SamplingChannel,
    SamplingPort,
    Validity,
)
from partsan.violations import UseSite, ViolationError


def _memory(partition_id, label="buf", size=32):
    mem = PartitionMemory(partition_id, 512)
    mem.alloc_region(size, label)
    mem.start()
    return mem


def _sampling_pair(refresh=10, max_size=16):
    channel = SamplingChannel("sp", max_size, refresh)
    src = SamplingPort("sp", 1, PortDirection.SOURCE, channel)
    dst = SamplingPort("sp", 2, PortDirection.DESTINATION, channel)
    return src, dst


def _queueing_pair(capacity=4, max_size=16):
    channel = QueueingChannel("qp", max_size, capacity)
    src = QueueingPort("qp", 1, PortDirection.SOURCE, channel)
    dst = QueueingPort("qp", 2, PortDirection.DESTINATION, channel)
    return src, dst


def test_channel_validation():
    with pytest.raises(ConfigError):
        SamplingChannel("s", 0, 10)
    with pytest.raises(ConfigError):
        SamplingChannel("s", 8, -1)
    with pytest.raises(ConfigError):
        QueueingChannel("q", 8, 0)


def test_sampling_write_read_roundtrip_and_overwrite():
    src_mem, dst_mem = _memory(1), _memory(2)
    src, dst = _sampling_pair()
    base = src_mem.region("buf").base
    inbox = dst_mem.region("buf").base
    src_mem.checked_write(src_mem.addr(base), b"\x01\x02\x03\x04")
    src.write(src_mem, src_mem.addr(base), 4, now=0)
    src_mem.checked_write(src_mem.addr(base), b"\x05\x06\x07\x08")
    src.write(src_mem, src_mem.addr(base), 4, now=1)  # replaces the first value
    result = dst.read(dst_mem, dst_mem.addr(inbox), now=2)
    assert result.payload == b"\x05\x06\x07\x08"
    assert result.validity is Validity.VALID and result.age == 1
    assert dst_mem.checked_read(dst_mem.addr(inbox), 4) == b"\x05\x06\x07\x08"


def test_sampling_freshness_boundary():
    src_mem, dst_mem = _memory(1), _memory(2)
    src, dst = _sampling_pair(refresh=10)
    base = src_mem.region("buf").base
    inbox = dst_mem.region("buf").base
    src_mem.checked_write(src_mem.addr(base), b"\xff")
    src.write(src_mem, src_mem.addr(base), 1, now=0)
    assert dst.read(dst_mem, dst_mem.addr(inbox), now=0).validity is Validity.VALID
    assert dst.read(dst_mem, dst_mem.addr(inbox), now=10).validity is Validity.VALID
    assert dst.read(dst_mem, dst_mem.addr(inbox), now=11).validity is Validity.STALE


def test_sampling_read_before_any_write_is_empty():
    dst_mem = _memory(2)
    _, dst = _sampling_pair()
    assert dst.read(dst_mem, dst_mem.addr(dst_mem.region("buf").base), now=0) is None


def test_sampling_repeated_reads_are_idempotent():
    src_mem, dst_mem = _memory(1), _memory(2)
    src, dst = _sampling_pair(refresh=5)
    base = src_mem.region("buf").base
    inbox = dst_mem.region("buf").base
    src_mem.checked_write(src_mem.addr(base), b"\x11\x22")
    src.write(src_mem, src_mem.addr(base), 2, now=0)
    first = dst.read(dst_mem, dst_mem.addr(inbox), now=3)
    second = dst.read(dst_mem, dst_mem.addr(inbox), now=9)
    assert first.payload == second.payload == b"\x11\x22"
    assert first.validity is Validity.VALID and second.validity is Validity.STALE


def test_direction_enforcement():
    src_mem, dst_mem = _memory(1), _memory(2)
    src, dst = _sampling_pair()
    base = src_mem.region("buf").base
    with pytest.raises(ConfigError):
        src.read(src_mem, src_mem.addr(base), now=0)
    with pytest.raises(ConfigError):
        dst.write(dst_mem, dst_mem.addr(base), 1, now=0)
    qsrc, qdst = _queueing_pair()
    with pytest.raises(ConfigError):
        qsrc.receive(src_mem, src_mem.addr(base), now=0)
    with pytest.raises(ConfigError):
        qdst.send(dst_mem, dst_mem.addr(base), 1, now=0)


def test_oversize_message_blocked():
    src_mem = _memory(1)
    src, _ = _sampling_pair(max_size=4)
    base = src_mem.region("buf").base
    src_mem.checked_write(src_mem.addr(base), b"\x00" * 8)
    with pytest.raises(ViolationError) as err:
        src.write(src_mem, src_mem.addr(base), 8, now=0)
    assert err.value.violation.kind == "MESSAGE_TOO_LONG"
    assert src.channel.latest is None


def test_uninitialized_payload_blocked_and_not_stored():
    src_mem = _memory(1)
    src, _ = _sampling_pair()
    base = src_mem.region("buf").base
    src_mem.checked_write(src_mem.addr(base), b"\x01\x02\x03\x04")  # half of 8
    with pytest.raises(ViolationError) as err:
        src.write(src_mem, src_mem.addr(base), 8, now=0)
    violation = err.value.violation
    assert violation.kind == "UNINIT_USE"
    assert violation.context == UseSite.PORT_SEND.value
    assert violation.offset == base + 4
    assert src.channel.latest is None


def test_poisoned_source_blocked():
    src_mem = _memory(1, size=8)
    src, _ = _sampling_pair()
    base = src_mem.region("buf").base
    src_mem.checked_write(src_mem.addr(base), b"\x00" * 8)
    # initialization is checked before addressability, so mark the redzone
    # bytes initialized to expose the address check
    src_mem.init_shadow.mark_initialized(base + 8, 4, "stale")
    with pytest.raises(ViolationError) as err:
        src.write(src_mem, src_mem.addr(base + 4), 8, now=0)  # crosses right redzone
    assert err.value.violation.kind == "RIGHT_REDZONE"
    assert err.value.violation.detail == "right redzone of region 'buf'"
    with pytest.raises(ViolationError) as err:
        src.write(src_mem, src_mem.addr(-2), 4, now=0)
    assert err.value.violation.kind == "WILD_ADDRESS"


def test_queueing_fifo_and_counts():
    src_mem, dst_mem = _memory(1), _memory(2)
    src, dst = _queueing_pair(capacity=8)
    base = src_mem.region("buf").base
    inbox = dst_mem.region("buf").base
    for value in range(5):
        src_mem.checked_write(src_mem.addr(base), bytes([value, value]))
        src.send(src_mem, src_mem.addr(base), 2, now=value)
    got = []
    while True:
        result = dst.receive(dst_mem, dst_mem.addr(inbox), now=10)
        if result is None:
            break
        got.append(result.payload)
    assert got == [bytes([v, v]) for v in range(5)]


def test_queue_full_drops_new_message():
    src_mem = _memory(1)
    src, _ = _queueing_pair(capacity=2)
    base = src_mem.region("buf").base
    src_mem.checked_write(src_mem.addr(base), b"\x01")
    src.send(src_mem, src_mem.addr(base), 1, now=0)
    src_mem.checked_write(src_mem.addr(base), b"\x02")
    src.send(src_mem, src_mem.addr(base), 1, now=1)
    src_mem.checked_write(src_mem.addr(base), b"\x03")
    with pytest.raises(ViolationError) as err:
        src.send(src_mem, src_mem.addr(base), 1, now=2)
    assert err.value.violation.kind == "QUEUE_FULL"
    assert [m.payload for m in src.channel.queue] == [b"\x01", b"\x02"]


def test_receive_from_empty_queue_is_none():
    dst_mem = _memory(2)
    _, dst = _queueing_pair()
    assert dst.receive(dst_mem, dst_mem.addr(dst_mem.region("buf").base), now=0) is None


def test_origin_labels_cross_the_hop():
    src_mem, dst_mem = _memory(1), _memory(2)
    src, dst = _queueing_pair()
    base = src_mem.region("buf").base
    inbox = dst_mem.region("buf").base
    src_mem.checked_write(src_mem.addr(base), b"\x01\x02", origin="writer-step-3")
    src.send(src_mem, src_mem.addr(base), 2, now=0)
    dst.receive(dst_mem, dst_mem.addr(inbox), now=1)
    assert dst_mem.init_shadow.origin_at(inbox) == "writer-step-3"
    assert dst_mem.init_shadow.origin_at(inbox + 1) == "writer-step-3"


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
            src_mem.checked_write(src_mem.addr(base), payload)
            src.send(src_mem, src_mem.addr(base), 4, now=sent)
            expected.append(payload)
            sent += 1
        else:
            result = dst.receive(dst_mem, dst_mem.addr(inbox), now=sent)
            assert result.payload == expected.popleft()
            assert len(dst.channel.queue) == len(expected)
            # no uninitialized byte ever crosses a port
            assert dst_mem.init_shadow.check(inbox, 4, UseSite.BRANCH) is None
            received += 1
    assert received == 1000
    assert dst.receive(dst_mem, dst_mem.addr(inbox), now=0) is None
