"""Sampling and queueing ports between partitions.

A channel connects a source endpoint to a destination endpoint.  Sampling
channels keep only the latest message and stamp reads with a freshness
verdict; queueing channels are bounded FIFOs that drop the *new* message
when full.

Sends are the enforcement point for initialization: a message must be fully
initialized before it crosses a partition boundary, because the receiver
has no way to tell junk from data.  Delivery copies the sender's per-byte
origin labels into the receiver's shadow, so blame survives the hop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError
from .guest_memory import PartitionMemory
from .violations import AccessKind, GuestAddr, UseSite, Violation, ViolationError


class PortDirection(Enum):
    SOURCE = "SOURCE"
    DESTINATION = "DESTINATION"


class Validity(Enum):
    VALID = "VALID"
    STALE = "STALE"


@dataclass(frozen=True)
class Message:
    payload: bytes
    send_time: int
    init_bits: bytes
    origin_labels: tuple

    @property
    def length(self) -> int:
        return len(self.payload)


@dataclass(frozen=True)
class SamplingResult:
    payload: bytes
    validity: Validity
    age: int


@dataclass(frozen=True)
class ReceiveResult:
    payload: bytes


class SamplingChannel:
    """Latest-value channel with a freshness window."""

    def __init__(self, name: str, max_message_size: int, refresh_period: int):
        if max_message_size < 1:
            raise ConfigError(f"max message size must be >= 1, got {max_message_size}")
        if refresh_period < 0:
            raise ConfigError(f"refresh period must be >= 0, got {refresh_period}")
        self.name = name
        self.max_message_size = max_message_size
        self.refresh_period = refresh_period
        self.latest: Message | None = None


class QueueingChannel:
    """Bounded FIFO channel."""

    def __init__(self, name: str, max_message_size: int, capacity: int):
        if max_message_size < 1:
            raise ConfigError(f"max message size must be >= 1, got {max_message_size}")
        if capacity < 1:
            raise ConfigError(f"queue capacity must be >= 1, got {capacity}")
        self.name = name
        self.max_message_size = max_message_size
        self.capacity = capacity
        self.queue: deque[Message] = deque()


def _collect_message(
    mem: PartitionMemory, addr: GuestAddr, length: int, channel, now: int
) -> Message:
    """Validate and snapshot an outgoing message.

    Check order: oversize, wild address, initialization (PORT_SEND use),
    address validity.  Any failure raises ViolationError and nothing is
    sent.
    """
    if length < 1:
        raise ConfigError(f"message length must be >= 1, got {length}")
    offset = addr.offset
    if length > channel.max_message_size:
        raise ViolationError(
            Violation(
                kind="MESSAGE_TOO_LONG",
                partition=mem.partition_id,
                detail=(
                    f"message of {length} bytes exceeds max "
                    f"{channel.max_message_size} on port '{channel.name}'"
                ),
            )
        )
    if offset < 0 or offset + length > mem.size_bytes:
        raise ViolationError(mem.shadow.check_access(offset, length, AccessKind.READ))
    init_violation = mem.init_shadow.check(offset, length, UseSite.PORT_SEND)
    if init_violation is not None:
        raise ViolationError(init_violation)
    addr_violation = mem.shadow.check_access(offset, length, AccessKind.READ)
    if addr_violation is not None:
        raise ViolationError(mem.name_region(addr_violation))
    init_bits, origin_labels = mem.init_shadow.snapshot(offset, length)
    return Message(
        payload=bytes(mem.data[offset : offset + length]),
        send_time=now,
        init_bits=init_bits,
        origin_labels=origin_labels,
    )


def _deliver(mem: PartitionMemory, addr: GuestAddr, msg: Message) -> None:
    """Copy a message into the receiver's buffer.

    Initialization state comes from the message itself (copy semantics, not
    write semantics), so origin labels cross the partition boundary intact.
    """
    offset = addr.offset
    violation = mem.shadow.check_access(offset, msg.length, AccessKind.WRITE)
    if violation is not None:
        raise ViolationError(mem.name_region(violation))
    mem.data[offset : offset + msg.length] = msg.payload
    mem.init_shadow.apply_snapshot(offset, msg.init_bits, msg.origin_labels)


class _Port:
    """One partition's endpoint of a channel."""

    def __init__(self, name: str, partition_id: int, direction: PortDirection, channel):
        self.name = name
        self.partition_id = partition_id
        self.direction = PortDirection(direction)
        self.channel = channel

    def _require(self, direction: PortDirection, op: str) -> None:
        if self.direction is not direction:
            raise ConfigError(
                f"port '{self.name}' of partition {self.partition_id} is "
                f"{self.direction.value}, cannot {op}"
            )


class SamplingPort(_Port):
    def write(self, mem: PartitionMemory, addr: GuestAddr, length: int, now: int) -> None:
        """Publish a new value; unconditionally replaces the previous one."""
        self._require(PortDirection.SOURCE, "write")
        self.channel.latest = _collect_message(mem, addr, length, self.channel, now)

    def read(self, mem: PartitionMemory, addr: GuestAddr, now: int):
        """Deliver the latest value into ``addr``.

        Returns a SamplingResult whose validity is VALID while the message
        age is within the refresh period, STALE after.  An empty channel
        returns None; that is a normal outcome, not a fault.
        """
        self._require(PortDirection.DESTINATION, "read")
        msg = self.channel.latest
        if msg is None:
            return None
        _deliver(mem, addr, msg)
        age = now - msg.send_time
        validity = Validity.VALID if age <= self.channel.refresh_period else Validity.STALE
        return SamplingResult(payload=msg.payload, validity=validity, age=age)


class QueueingPort(_Port):
    def send(self, mem: PartitionMemory, addr: GuestAddr, length: int, now: int) -> None:
        """Append to the queue; a full queue drops the new message."""
        self._require(PortDirection.SOURCE, "send")
        msg = _collect_message(mem, addr, length, self.channel, now)
        if len(self.channel.queue) >= self.channel.capacity:
            raise ViolationError(
                Violation(
                    kind="QUEUE_FULL",
                    partition=mem.partition_id,
                    detail=(
                        f"queue full on port '{self.channel.name}' "
                        f"(capacity {self.channel.capacity}), message dropped"
                    ),
                )
            )
        self.channel.queue.append(msg)

    def receive(self, mem: PartitionMemory, addr: GuestAddr, now: int):
        """Dequeue the head into ``addr``; None when the queue is empty."""
        self._require(PortDirection.DESTINATION, "receive")
        if not self.channel.queue:
            return None
        msg = self.channel.queue.popleft()
        _deliver(mem, addr, msg)
        return ReceiveResult(payload=msg.payload)
