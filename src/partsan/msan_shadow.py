"""Initialization shadow: one shadow bit plus one origin tag per guest byte.

Initialization state propagates silently through copies; only *uses* of a
value (syscall argument, branch condition, arithmetic operand, port send)
are checked.  Each byte carries an origin label: while uninitialized it
points at the allocation that produced the byte, once initialized at the
write/annotation/copy-source that defined it, so a violation can always say
where the offending value came from.

Labels are interned in an origin table and the ids kept in an
``array('I')``, one per byte.  Shadows may share one table (a simulator's
partitions do), so that copying between them copies the ids as they are.
Span operations are slice operations on the bits and the ids; a fill
assigns one fixed block slice by slice, so it builds no span-sized
temporary, and only a ``mark_initialized`` that keeps existing origins
walks its bytes.
The per-byte oracles in ``tests/oracles.py`` define what each operation
means.
"""

from __future__ import annotations

from array import array
from bisect import bisect
from dataclasses import dataclass

from .errors import ConfigError
from .violations import AccessKind, UseSite, Violation

__all__ = [
    "InitShadow",
    "ReservedInitConfig",
    "UseSite",
    "copy_propagate",
]

#: Bytes per slice assignment of a fill: a 1 MiB reset builds 80 KiB of
#: blocks, not a 4 MiB array of ids.
_FILL_BLOCK = 1 << 14


@dataclass
class ReservedInitConfig:
    """Optional 'reserved initialization value' handling.

    When enabled, a write whose every byte equals ``pattern`` is stored but
    does not count as initialization: memset-style pre-fills with the
    reserved pattern stay visible to the checker.
    """

    enabled: bool = False
    pattern: int = 0xCD

    def __post_init__(self):
        check_reserved_pattern(self.pattern)

    def masks_write(self, data: bytes) -> bool:
        return self.enabled and len(data) > 0 and data.count(self.pattern) == len(data)


def check_reserved_pattern(pattern: int) -> int:
    """The reserved initialization pattern is one byte value; returns it."""
    if not 0 <= pattern <= 0xFF:
        raise ConfigError(f"reserved pattern must be a byte value, got {pattern}")
    return pattern


class InitShadow:
    """Per-byte initialization map for one partition (1:1 granularity).

    ``origins`` is an origin table shared with other shadows: a pair of the
    label list, whose id 0 is None, and the dict from label to id.  Without
    it the shadow gets a table of its own.
    """

    def __init__(self, partition_id: int, size: int, origins=None):
        if size <= 0:
            raise ConfigError(f"shadow size must be positive, got {size}")
        self.partition_id = partition_id
        self.size = size
        self.bits = bytearray(size)  # 0 = uninitialized, 1 = initialized
        self._origin_ids = array("I", [0]) * size
        self._origin_table, self._origin_index = origins or ([None], {})
        # running count of check() calls, feeds the instrumented-time model
        self.checks_performed = 0

    def _intern(self, label: str | None) -> int:
        if label is None:
            return 0
        oid = self._origin_index.get(label)
        if oid is None:
            oid = len(self._origin_table)
            self._origin_table.append(label)
            self._origin_index[label] = oid
        return oid

    def _span(self, start: int, length: int, min_length: int = 1) -> int:
        if length < min_length:
            raise ConfigError(f"length must be >= {min_length}, got {length}")
        end = start + length
        if start < 0 or end > self.size:
            raise ConfigError(f"span [{start}, {end}) outside shadow of size {self.size}")
        return end

    # -- state transitions ----------------------------------------------------

    def _fill(self, start: int, end: int, bit: bytes, oid: int) -> None:
        """Set every byte of [start, end) to shadow ``bit`` and origin ``oid``."""
        block = min(end - start, _FILL_BLOCK)
        bits, ids = bit * block, array("I", (oid,)) * block
        for i in range(start, end - block, block):
            self.bits[i : i + block] = bits
            self._origin_ids[i : i + block] = ids
        # the last block ends at ``end``; it may overlap the one before
        self.bits[end - block : end] = bits
        self._origin_ids[end - block : end] = ids

    def set_uninitialized(self, start: int, length: int, origin: str | None = None) -> None:
        """Mark a span uninitialized, tagged with the allocation's origin."""
        self._fill(start, self._span(start, length), b"\x00", self._intern(origin))

    def mark_initialized(
        self, start: int, length: int, origin: str | None, force: bool = True
    ) -> None:
        """Mark a span initialized.

        With ``force`` every byte is re-tagged with ``origin`` (a genuine
        write).  Without it, bytes that were already initialized keep their
        existing origin (annotation-driven unpoison must not hide the real
        writer).
        """
        end = self._span(start, length)
        oid = self._intern(origin)
        if force:
            self._fill(start, end, b"\x01", oid)
            return
        for i in range(start, end):
            if not self.bits[i]:
                self._origin_ids[i] = oid
            self.bits[i] = 1

    # -- queries ----------------------------------------------------------------

    def is_initialized(self, offset: int) -> bool:
        return bool(self.bits[offset])

    def origin_at(self, offset: int) -> str | None:
        return self._origin_table[self._origin_ids[offset]]

    def check(self, start: int, length: int, context: UseSite):
        """Check that a span about to be *used* is fully initialized.

        Returns None, or an UNINIT_USE Violation for the first
        uninitialized byte.
        """
        self.checks_performed += 1
        end = self._span(start, length)
        bad = self.bits.find(0, start, end)
        if bad < 0:
            return None
        origin = self.origin_at(bad)
        blame = f"(origin {origin})" if origin else "(no origin)"
        return Violation(
            kind="UNINIT_USE",
            partition=self.partition_id,
            offset=bad,
            size=length,
            access=AccessKind.READ.value,
            detail=f"uninitialized byte used at {context.value} {blame}",
            context=context.value,
            origin=origin,
        )

    # -- propagation --------------------------------------------------------------

    def snapshot(self, start: int, length: int):
        """Bits and origin labels for a span, detached from this shadow.

        The labels are ``(origin table, id slice)``: the table only ever
        grows, so the ids stay valid however the shadow changes later.
        """
        end = self._span(start, length, min_length=0)
        return bytes(self.bits[start:end]), (self._origin_table, self._origin_ids[start:end])

    def apply_snapshot(self, start: int, bits: bytes, labels) -> None:
        """Write a ``snapshot`` at ``start``.  From a shadow with another
        origin table, each distinct origin is interned here once and the ids
        are translated."""
        end = self._span(start, len(bits), min_length=0)
        table, ids = labels
        if table is not self._origin_table:
            lut = {oid: self._intern(table[oid]) for oid in set(ids)}
            ids = array("I", map(lut.__getitem__, ids))
        self.bits[start:end] = bits
        self._origin_ids[start:end] = ids


def copy_propagate(
    src_shadow: InitShadow,
    src_start: int,
    dst_start: int,
    length: int,
    dst_shadow: InitShadow | None = None,
) -> None:
    """Propagate initialization state for a guest memory copy.

    Copies are never checked: uninitialized bytes travel freely and keep
    their origin labels.  Overlapping same-shadow copies behave like
    memmove thanks to the snapshot.
    """
    bits, labels = src_shadow.snapshot(src_start, length)
    (dst_shadow or src_shadow).apply_snapshot(dst_start, bits, labels)


def add_padding_range(
    accepted: list, type_name: str, off: int, ln: int, type_size: int
) -> None:
    """Insert padding range ``(off, ln)`` of ``type_name`` into ``accepted``,
    the type's ranges so far in sorted order.  The range must lie within the
    type's size and overlap none of the accepted ones."""
    if off + ln > type_size:
        raise ConfigError(
            f"padding range ({off}, {ln}) exceeds size {type_size} of "
            f"type '{type_name}'"
        )
    i = bisect(accepted, (off, ln))
    overlaps_before = i > 0 and sum(accepted[i - 1]) > off
    overlaps_after = i < len(accepted) and accepted[i][0] < off + ln
    if overlaps_before or overlaps_after:
        raise ConfigError(f"padding ranges of type '{type_name}' overlap")
    accepted.insert(i, (off, ln))


def unpoison_padding(shadow: InitShadow, ranges, base: int) -> None:
    """Mark the padding ``ranges`` (``(offset, length)`` pairs) of a struct
    at ``base`` initialized: compilers never initialize padding, so whole
    structs sent through ports or syscalls would otherwise be flagged."""
    for off, ln in ranges:
        shadow.mark_initialized(base + off, ln, origin="padding", force=False)
