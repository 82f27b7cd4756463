"""Per-partition guest memory: static bump allocation, redzones, no reuse.

All allocation happens while the partition is in INIT phase; once started,
the layout is frozen.  Freed memory does not exist: the allocation cursor
only moves forward, so a dangling reference can never alias a later
allocation.  Every region is fenced by poisoned redzones, and the first
bytes of the space form a permanently blacklisted null guard so that guest
offset 0 is never a valid access.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .asan_shadow import PoisonKind, ShadowMap, poison_detail
from .errors import ConfigError, OutOfMemory, PhaseError
from .msan_shadow import InitShadow, ReservedInitConfig
from .violations import AccessKind, Violation, ViolationError

__all__ = [
    "AccessKind",
    "NULL_GUARD",
    "Phase",
    "PartitionMemory",
    "Region",
]

#: Bytes at the bottom of every partition that are never allocated; keeps
#: guest offset 0 (the null pointer) permanently non-addressable.
NULL_GUARD = 16

DEFAULT_REDZONE = 16


def check_redzone(redzone: int, granularity: int) -> None:
    """Redzones are whole granules, at least one, so that region payloads
    stay granule-aligned."""
    if redzone < granularity or redzone % granularity != 0:
        raise ConfigError(
            f"redzone {redzone} must be a multiple of granularity "
            f"{granularity} and at least one granule"
        )


def place(cursor: int, payload_len: int, granularity: int, redzone: int) -> tuple[int, int]:
    """A region allocated at ``cursor``: its payload's base, and the end of
    its span (redzone, payload in whole granules, redzone)."""
    base = cursor + redzone
    return base, base + -(-payload_len // granularity) * granularity + redzone


class Phase(Enum):
    INIT = "INIT"
    RUNNING = "RUNNING"


@dataclass(frozen=True)
class Region:
    """One allocation.  ``span`` covers left redzone, payload, alignment pad
    and right redzone; only ``[base, base + payload_len)`` is addressable."""

    label: str
    base: int
    payload_len: int
    span_start: int
    span_end: int

    @property
    def payload_end(self) -> int:
        return self.base + self.payload_len


class PartitionMemory:
    """Byte space, shadow maps and allocation state for one partition."""

    def __init__(
        self,
        partition_id: int,
        size_bytes: int,
        granularity: int = 8,
        redzone: int = DEFAULT_REDZONE,
        reserved_init: ReservedInitConfig | None = None,
    ):
        check_redzone(redzone, granularity)
        self.partition_id = partition_id
        self.size_bytes = size_bytes
        self.granularity = granularity
        self.redzone = redzone
        self.data = bytearray(size_bytes)
        self.shadow = ShadowMap(partition_id, size_bytes, granularity)
        self.init_shadow = InitShadow(partition_id, size_bytes)
        self.reserved_init = reserved_init or ReservedInitConfig()
        self.phase = Phase.INIT
        self.regions: list[Region] = []
        self._cursor = NULL_GUARD
        # nothing is addressable until allocated
        self.shadow.poison(0, size_bytes, PoisonKind.MANUAL_BLACKLIST)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Freeze the layout and enter RUNNING phase."""
        if self.phase is not Phase.INIT:
            raise PhaseError(f"partition {self.partition_id} already started")
        self.phase = Phase.RUNNING

    def reset_partition(self) -> None:
        """Cold restart: back to INIT, all previous allocations invalidated.

        Old region contents stay in the byte array (the simulator does not
        scrub), but every access to them now reports PARTITION_RESET.
        """
        self.phase = Phase.INIT
        self.regions = []
        self._cursor = NULL_GUARD
        self.shadow.poison(0, self.size_bytes, PoisonKind.PARTITION_RESET)
        self.init_shadow.set_uninitialized(0, self.size_bytes, origin=None)

    # -- allocation ----------------------------------------------------------

    def alloc_region(self, payload_len: int, label: str) -> Region:
        if self.phase is not Phase.INIT:
            raise PhaseError(
                f"partition {self.partition_id} is RUNNING; allocation is "
                f"only allowed before start"
            )
        if payload_len < 1:
            raise ConfigError(f"payload length must be >= 1, got {payload_len}")
        if any(r.label == label for r in self.regions):
            raise ConfigError(f"region label '{label}' already allocated")
        span_start = self._cursor
        base, span_end = place(span_start, payload_len, self.granularity, self.redzone)
        if span_end > self.size_bytes:
            raise OutOfMemory(
                f"region '{label}' needs {span_end - span_start} bytes at offset "
                f"{span_start}, partition size is {self.size_bytes}"
            )
        self.shadow.poison(span_start, self.redzone, PoisonKind.LEFT_REDZONE)
        self.shadow.unpoison(base, payload_len)
        self.shadow.poison(span_end - self.redzone, self.redzone, PoisonKind.RIGHT_REDZONE)
        self.init_shadow.set_uninitialized(base, payload_len, origin=f"alloc:{label}")
        region = Region(
            label=label,
            base=base,
            payload_len=payload_len,
            span_start=span_start,
            span_end=span_end,
        )
        self.regions.append(region)
        self._cursor = span_end
        return region

    def region(self, label: str) -> Region:
        for r in self.regions:
            if r.label == label:
                return r
        raise ConfigError(f"no region '{label}' in partition {self.partition_id}")

    def nearest_region(self, offset: int) -> Region | None:
        """Region owning or closest to ``offset``; names the likely victim
        when reporting a redzone hit."""
        best, best_dist = None, None
        for r in self.regions:
            if r.span_start <= offset < r.span_end:
                return r
            dist = min(abs(offset - r.span_start), abs(offset - (r.span_end - 1)))
            if best_dist is None or dist < best_dist:
                best, best_dist = r, dist
        return best

    # -- checked accesses ------------------------------------------------------

    def check_access(self, offset: int, length: int, access: AccessKind) -> Violation | None:
        """The shadow's address check; a finding names the region owning or
        nearest to the offending byte in its detail."""
        violation = self.shadow.check_access(offset, length, access)
        if violation is None:
            return None
        region = self.nearest_region(violation.offset)
        if region is None:
            return violation
        return replace(violation, detail=poison_detail(violation.kind, region.label))

    def _check(self, offset: int, length: int, access: AccessKind) -> None:
        violation = self.check_access(offset, length, access)
        if violation is not None:
            raise ViolationError(violation)

    def checked_read(self, offset: int, length: int) -> bytes:
        """Read with address validation.  Reads never require or affect
        initialization state; only uses are checked for that."""
        self._check(offset, length, AccessKind.READ)
        return bytes(self.data[offset : offset + length])

    def checked_write(self, offset: int, data: bytes, origin: str = "write") -> None:
        """Write with address validation.  Marks bytes initialized unless the
        payload is exactly the reserved-init fill pattern."""
        if len(data) < 1:
            raise ConfigError("write payload must be non-empty")
        self._check(offset, len(data), AccessKind.WRITE)
        self.data[offset : offset + len(data)] = data
        if not self.reserved_init.masks_write(data):
            self.init_shadow.mark_initialized(offset, len(data), origin, force=True)

