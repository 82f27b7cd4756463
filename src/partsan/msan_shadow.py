"""Initialization shadow: one shadow bit plus one origin tag per guest byte.

Initialization state propagates silently through copies; only *uses* of a
value (syscall argument, branch condition, arithmetic operand, port send)
are checked.  Each byte carries an origin label: while uninitialized it
points at the allocation that produced the byte, once initialized at the
write/annotation/copy-source that defined it, so a violation can always say
where the offending value came from.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .violations import AccessKind, UseSite, Violation

__all__ = [
    "InitShadow",
    "PaddingRegistry",
    "ReservedInitConfig",
    "UseSite",
    "copy_propagate",
]


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
        if not 0 <= self.pattern <= 0xFF:
            raise ConfigError(f"reserved pattern must be a byte value, got {self.pattern}")

    def masks_write(self, data: bytes) -> bool:
        return self.enabled and len(data) > 0 and all(b == self.pattern for b in data)


class InitShadow:
    """Per-byte initialization map for one partition (1:1 granularity)."""

    def __init__(self, partition_id: int, size: int):
        if size <= 0:
            raise ConfigError(f"shadow size must be positive, got {size}")
        self.partition_id = partition_id
        self.size = size
        self.bits = bytearray(size)  # 0 = uninitialized, 1 = initialized
        self._origin_ids = [0] * size
        self._origin_table: list[str | None] = [None]
        self._origin_index: dict[str, int] = {}
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

    def set_uninitialized(self, start: int, length: int, origin: str | None = None) -> None:
        """Mark a span uninitialized, tagged with the allocation's origin."""
        end = self._span(start, length)
        oid = self._intern(origin)
        for i in range(start, end):
            self.bits[i] = 0
            self._origin_ids[i] = oid

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
        for i in range(start, end):
            if force or not self.bits[i]:
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
        """Bits and origin labels for a span, detached from this shadow."""
        end = self._span(start, length, min_length=0)
        bits = bytes(self.bits[start:end])
        labels = tuple(self._origin_table[self._origin_ids[i]] for i in range(start, end))
        return bits, labels

    def apply_snapshot(self, start: int, bits: bytes, labels) -> None:
        self._span(start, len(bits), min_length=0)
        for i, (bit, label) in enumerate(zip(bits, labels)):
            self.bits[start + i] = bit
            self._origin_ids[start + i] = self._intern(label)


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


class PaddingRegistry:
    """Declared padding ranges per named struct type.

    Compilers never initialize padding bytes; annotating them as
    defined-by-construction suppresses false positives when whole structs
    are sent through ports or syscalls.
    """

    def __init__(self):
        self._ranges: dict[str, tuple[tuple[int, int], ...]] = {}

    def register(self, type_name: str, ranges, type_size: int | None = None) -> None:
        checked = []
        prev_end = -1
        for off, ln in sorted(tuple(r) for r in ranges):
            if off < 0 or ln < 1:
                raise ConfigError(
                    f"padding range ({off}, {ln}) of type '{type_name}' invalid"
                )
            if off < prev_end:
                raise ConfigError(f"padding ranges of type '{type_name}' overlap")
            if type_size is not None and off + ln > type_size:
                raise ConfigError(
                    f"padding range ({off}, {ln}) exceeds size {type_size} of "
                    f"type '{type_name}'"
                )
            prev_end = off + ln
            checked.append((off, ln))
        self._ranges[type_name] = tuple(checked)

    def ranges_for(self, type_name: str) -> tuple[tuple[int, int], ...]:
        if type_name not in self._ranges:
            raise ConfigError(f"no padding declaration for type '{type_name}'")
        return self._ranges[type_name]


def unpoison_padding(
    shadow: InitShadow, registry: PaddingRegistry, type_name: str, base: int
) -> None:
    """Mark a struct instance's declared padding bytes initialized."""
    for off, ln in registry.ranges_for(type_name):
        shadow.mark_initialized(base + off, ln, origin="padding", force=False)
