"""Per-partition guest memory: static bump allocation, redzones, no reuse.

A partition allocates only before it starts and never frees: ``Layout``
holds its regions by label, the bump cursor and whether it has started,
and is the one place each allocation rule is checked.  The workload pass
of ``scenario`` replays a ``Layout`` per partition at load, so a scenario
that breaks a rule fails there with a JSON pointer; each
``PartitionMemory`` holds one and adds the byte space and its shadows.
The cursor only moves forward, so a dangling reference can never alias a
later allocation.  Every region is fenced by poisoned redzones, and the
first bytes of the space form a permanently blacklisted null guard so that
guest offset 0 is never a valid access.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter
from typing import NamedTuple

from .asan_shadow import PoisonKind, ShadowMap, check_memory_size, poison_detail
from .errors import ConfigError
from .msan_shadow import InitShadow
from .violations import AccessKind, Violation, ViolationError

__all__ = [
    "AccessKind",
    "MEMORY_CAP",
    "NULL_GUARD",
    "Layout",
    "PartitionMemory",
    "Region",
]

#: Bytes at the bottom of every partition that are never allocated; keeps
#: guest offset 0 (the null pointer) permanently non-addressable.
NULL_GUARD = 16

DEFAULT_REDZONE = 16

#: Bound on the memory of all of a scenario's partitions together, and on
#: the length of a WRITE step's ``fill``, so a scenario that loads can be
#: built and run.
MEMORY_CAP = 1 << 24

#: Partitions of at least this many bytes get a private anonymous mapping,
#: zero-filled by the kernel page by page on first touch; smaller ones get
#: a bytearray.  It is glibc's default mmap threshold: at or above it malloc
#: maps fresh pages anyway, and a bytearray then zeroes every one of them.
LAZY_ZERO_MIN = 128 << 10


class Region(NamedTuple):
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


_SPAN_START = attrgetter("span_start")


class Layout:
    """One partition's regions by label, bump cursor and phase.

    Each rule raises a ConfigError whose path, relative to the partition's
    config or to an ``ALLOC`` step, names the field at fault.
    """

    def __init__(self, partition_id: int, memory_size: int, granularity: int, redzone: int):
        try:
            check_memory_size(memory_size, granularity)
        except ConfigError as exc:
            raise ConfigError(exc.message, "/memory_size") from None
        # whole granules, at least one, so that region payloads stay aligned
        if redzone < granularity or redzone % granularity != 0:
            raise ConfigError(
                f"redzone {redzone} must be a multiple of granularity "
                f"{granularity} and at least one granule",
                "/redzone",
            )
        self.partition_id = partition_id
        self.memory_size = memory_size
        self.granularity = granularity
        self.redzone = redzone
        self.reset()

    def reset(self) -> None:
        """Cold restart: back to INIT with no regions and the whole space free."""
        self.regions: dict[str, Region] = {}
        self.in_order: list[Region] = []  # their spans tile [NULL_GUARD, cursor)
        self.cursor = NULL_GUARD
        self.started = False

    def start(self) -> None:
        """Freeze the layout."""
        if self.started:
            raise ConfigError(f"partition {self.partition_id} already started")
        self.started = True

    def alloc(self, label: str, size: int) -> Region:
        """Place ``size`` payload bytes at the cursor: redzone, payload in
        whole granules, redzone."""
        if self.started:
            raise ConfigError(
                f"partition {self.partition_id} is running; ALLOC must come before it starts"
            )
        if label in self.regions:
            raise ConfigError(f"region label '{label}' already allocated", "/label")
        g, start = self.granularity, self.cursor
        base = start + self.redzone
        end = base + -(-size // g) * g + self.redzone
        if end > self.memory_size:
            raise ConfigError(
                f"region '{label}' needs {end - start} bytes at offset "
                f"{start}, partition size is {self.memory_size}",
                "/size",
            )
        region = self.regions[label] = Region(label, base, size, start, end)
        self.in_order.append(region)
        self.cursor = end
        return region

    def region(self, label: str) -> Region:
        try:
            return self.regions[label]
        except KeyError:
            raise ConfigError(f"no region '{label}' at this step") from None


class PartitionMemory:
    """Byte space and shadow maps of one partition, allocated by its Layout.
    ``origins`` is the origin table its ``InitShadow`` shares, if any.
    ``reserved_pattern``, when given, is the byte value of the reserved
    initialization value: a write made entirely of it is stored but does not
    count as initialization, so memset-style pre-fills with it stay visible
    to the checker.

    The byte space ``data`` is a ``bytearray`` below ``LAZY_ZERO_MIN`` bytes
    and a private anonymous ``mmap`` from there up, as the ASan and MSan
    runtimes map their shadow and heap: a build then costs no zeroing, and
    a run pays a page fault only for each page it touches.  Mapping every
    partition would cost one system call pair per small partition, which
    a bytearray from the heap does not.
    """

    def __init__(
        self,
        partition_id: int,
        size_bytes: int,
        granularity: int = 8,
        redzone: int = DEFAULT_REDZONE,
        reserved_pattern: int | None = None,
        origins=None,
    ):
        self.layout = Layout(partition_id, size_bytes, granularity, redzone)
        self.partition_id = partition_id
        self.size_bytes = size_bytes
        if size_bytes >= LAZY_ZERO_MIN:
            import mmap  # only large partitions need it, so start-up does not

            self.data = mmap.mmap(-1, size_bytes, access=mmap.ACCESS_COPY)
        else:
            self.data = bytearray(size_bytes)
        self.shadow = ShadowMap(partition_id, size_bytes, granularity)
        self.init_shadow = InitShadow(partition_id, size_bytes, origins)
        self.reserved_pattern = reserved_pattern
        # nothing is addressable until allocated
        self.shadow.poison(0, size_bytes, PoisonKind.MANUAL_BLACKLIST)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        self.layout.start()

    def reset_partition(self) -> None:
        """Cold restart: back to INIT, all previous allocations invalidated.

        Old region contents stay in the byte space (the simulator does not
        scrub), but every access to them now reports PARTITION_RESET.
        """
        self.layout.reset()
        self.shadow.poison(0, self.size_bytes, PoisonKind.PARTITION_RESET)
        self.init_shadow.set_uninitialized(0, self.size_bytes, origin=None)

    # -- allocation ----------------------------------------------------------

    def alloc_region(self, payload_len: int, label: str) -> Region:
        region = self.layout.alloc(label, payload_len)
        self.shadow.write_allocation(region.span_start, payload_len, self.layout.redzone)
        self.init_shadow.set_uninitialized(region.base, payload_len, origin=f"alloc:{label}")
        return region

    def region(self, label: str) -> Region:
        return self.layout.region(label)

    def nearest_region(self, offset: int) -> Region | None:
        """Region owning or closest to ``offset``; names the likely victim
        when reporting a redzone hit.  The spans tile [NULL_GUARD, cursor)
        in address order, so the owner is the last region to start at or
        before ``offset``; below them the first region is the nearest, and
        beyond them the last."""
        regions = self.layout.in_order
        if not regions:
            return None
        return regions[max(bisect_right(regions, offset, key=_SPAN_START) - 1, 0)]

    # -- checked accesses ------------------------------------------------------

    def check_access(self, offset: int, length: int, access: AccessKind) -> Violation | None:
        """The shadow's address check; a finding names the region owning or
        nearest to the offending byte in its detail."""
        violation = self.shadow.check_access(offset, length, access)
        return None if violation is None else self._named(violation)

    def _named(self, violation: Violation) -> Violation:
        region = self.nearest_region(violation.offset)
        if region is None:
            return violation
        return violation._replace(detail=poison_detail(violation.kind, region.label))

    def require_access(self, offset: int, length: int, access: AccessKind) -> None:
        """``check_access``, with a finding raised as a ViolationError."""
        violation = self.shadow.check_access(offset, length, access)
        if violation is not None:
            raise ViolationError(self._named(violation))

    def checked_read(self, offset: int, length: int) -> bytes:
        """Read with address validation.  Reads never require or affect
        initialization state; only uses are checked for that."""
        self.require_access(offset, length, AccessKind.READ)
        return bytes(self.data[offset : offset + length])

    def checked_write(self, offset: int, data: bytes, origin: str = "write") -> None:
        """Write with address validation.  Marks bytes initialized unless the
        payload is made entirely of the reserved pattern."""
        self.require_access(offset, len(data), AccessKind.WRITE)
        self.data[offset : offset + len(data)] = data
        pattern = self.reserved_pattern
        if pattern is None or data.count(pattern) != len(data):
            self.init_shadow.mark_initialized(offset, len(data), origin, force=True)

