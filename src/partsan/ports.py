"""Sampling and queueing ports between partitions.

A port (one object per declared port) carries messages from its source
partition to its destination.  Sampling ports keep only the latest
message and stamp reads with a freshness verdict; queueing ports are
bounded FIFOs that drop the *new* message when full.

Sends are the enforcement point for initialization: a message must be fully
initialized before it crosses a partition boundary, because the receiver
has no way to tell junk from data.  Delivery copies the sender's per-byte
origin labels into the receiver's shadow, so blame survives the hop.
"""

from __future__ import annotations

from collections import deque, namedtuple

from .guest_memory import PartitionMemory
from .violations import Violation, ViolationError


class Validity:
    VALID = "VALID"
    STALE = "STALE"


#: A sent message; ``init_bits`` holds one shadow byte per payload byte, from
#: ``InitShadow.snapshot``.
Message = namedtuple("Message", "payload send_time init_bits origin_labels")

SamplingResult = namedtuple("SamplingResult", "payload validity age")


def _collect_message(
    mem: PartitionMemory, offset: int, length: int, port, now: int
) -> Message:
    """Validate and snapshot an outgoing message.

    Check order: oversize, wild address, initialization (PORT_SEND use),
    address validity.  Any failure raises ViolationError and nothing is
    sent.
    """
    if length > port.max_message_size:
        raise ViolationError(
            Violation(
                kind="MESSAGE_TOO_LONG",
                partition=mem.partition_id,
                detail=(
                    f"message of {length} bytes exceeds max "
                    f"{port.max_message_size} on port '{port.name}'"
                ),
            )
        )
    if offset < 0 or offset + length > mem.size_bytes:
        raise ViolationError(mem.shadow.check_access(offset, length, "R"))
    init_violation = mem.init_shadow.check(offset, length, "PORT_SEND")
    if init_violation is not None:
        raise ViolationError(init_violation)
    mem.require_access(offset, length, "R")
    init_bits, origin_labels = mem.init_shadow.snapshot(offset, length)
    return Message(
        payload=memoryview(mem.data)[offset : offset + length].tobytes(),
        send_time=now,
        init_bits=init_bits,
        origin_labels=origin_labels,
    )


def _deliver(mem: PartitionMemory, offset: int, msg: Message) -> None:
    """Copy a message into the receiver's buffer.

    Initialization state comes from the message itself (copy semantics, not
    write semantics), so origin labels cross the partition boundary intact.
    """
    length = len(msg.payload)
    mem.require_access(offset, length, "W")
    mem.data[offset : offset + length] = msg.payload
    mem.init_shadow.apply_snapshot(offset, msg.init_bits, msg.origin_labels)


class SamplingPort:
    """Latest-value port with a freshness window."""

    def __init__(self, name: str, max_message_size: int, refresh_period: int):
        self.name = name
        self.max_message_size = max_message_size
        self.refresh_period = refresh_period
        self.latest: Message | None = None

    def write(self, mem: PartitionMemory, offset: int, length: int, now: int) -> None:
        """Publish a new value; unconditionally replaces the previous one."""
        self.latest = _collect_message(mem, offset, length, self, now)

    def read(self, mem: PartitionMemory, offset: int, now: int):
        """Deliver the latest value to ``offset``.

        Returns a SamplingResult whose validity is VALID while the message
        age is within the refresh period, STALE after.  An empty port
        returns None; that is a normal outcome, not a fault.
        """
        msg = self.latest
        if msg is None:
            return None
        _deliver(mem, offset, msg)
        age = now - msg.send_time
        validity = Validity.VALID if age <= self.refresh_period else Validity.STALE
        return SamplingResult(payload=msg.payload, validity=validity, age=age)


class QueueingPort:
    """Bounded FIFO port."""

    def __init__(self, name: str, max_message_size: int, capacity: int):
        self.name = name
        self.max_message_size = max_message_size
        self.capacity = capacity
        self.queue: deque[Message] = deque()

    def send(self, mem: PartitionMemory, offset: int, length: int, now: int) -> None:
        """Append to the queue; a full queue drops the new message."""
        msg = _collect_message(mem, offset, length, self, now)
        if len(self.queue) >= self.capacity:
            raise ViolationError(
                Violation(
                    kind="QUEUE_FULL",
                    partition=mem.partition_id,
                    detail=(
                        f"queue full on port '{self.name}' "
                        f"(capacity {self.capacity}), message dropped"
                    ),
                )
            )
        self.queue.append(msg)

    def receive(self, mem: PartitionMemory, offset: int, now: int):
        """Deliver the head message to ``offset``, then dequeue and return
        it; None when the queue is empty.  A delivery that faults leaves the
        message at the head."""
        if not self.queue:
            return None
        _deliver(mem, offset, self.queue[0])
        return self.queue.popleft()
