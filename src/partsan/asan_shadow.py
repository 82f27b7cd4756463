"""Address-validity shadow memory with k:1 byte compression.

Every shadow byte summarizes one granule of ``granularity`` guest bytes:

* ``0x00`` — all bytes in the granule are addressable;
* ``0x01 .. granularity-1`` — only that many leading bytes are addressable;
* ``0xF0`` and above — the whole granule is non-addressable, and the code
  identifies why (:class:`PoisonKind`).

The encoding can only express "addressable prefix, then nothing", which is
exactly what bump allocation with redzones produces.  Requests that would
need an addressable hole raise :class:`EncodingError` instead of silently
encoding the wrong thing.
"""

from __future__ import annotations

from enum import IntEnum

from .errors import ConfigError, EncodingError
from .violations import AccessKind, Violation

VALID_GRANULARITIES = (1, 2, 4, 8, 16)

#: Shadow codes at or above this value mark a fully non-addressable granule.
POISON_FLOOR = 0xF0

#: Violation kind for accesses outside the partition's byte space entirely.
WILD_ADDRESS = "WILD_ADDRESS"


class PoisonKind(IntEnum):
    """Why a granule is non-addressable.  Values are stable across runs and
    appear verbatim in shadow dumps and reports."""

    LEFT_REDZONE = 0xF1
    RIGHT_REDZONE = 0xF3
    PARTITION_RESET = 0xF8
    MANUAL_BLACKLIST = 0xFE


def poison_detail(kind: str, label: str | None = None) -> str:
    """Report text for an access that hit ``kind``; ``label`` names the
    region owning or nearest to the offending byte, when one is known."""
    if kind == WILD_ADDRESS:
        return "address outside partition memory"
    if kind == "PARTITION_RESET":
        return "memory invalidated by partition reset"
    if kind == "LEFT_REDZONE":
        return f"left redzone of region '{label}'" if label else "left redzone"
    if kind == "RIGHT_REDZONE":
        return f"right redzone of region '{label}'" if label else "right redzone"
    return f"blacklisted memory near region '{label}'" if label else "blacklisted memory"


def shadow_size_for(memory_size: int, granularity: int) -> int:
    """Number of shadow bytes needed for ``memory_size`` guest bytes."""
    _check_granularity(granularity)
    if memory_size <= 0 or memory_size % granularity != 0:
        raise ConfigError(
            f"memory size {memory_size} must be a positive multiple of "
            f"granularity {granularity}"
        )
    return memory_size // granularity


def _check_granularity(granularity: int) -> None:
    if granularity not in VALID_GRANULARITIES:
        raise ConfigError(
            f"granularity must be one of {VALID_GRANULARITIES}, got {granularity!r}"
        )


def encode_granule(flags, kind: PoisonKind = PoisonKind.MANUAL_BLACKLIST) -> int:
    """Encode a per-byte addressability vector for one granule.

    Only prefix-addressable vectors are representable; anything else raises
    EncodingError.  ``kind`` is used when no byte is addressable.
    """
    flags = list(flags)
    g = len(flags)
    _check_granularity(g)
    n = 0
    while n < g and flags[n]:
        n += 1
    if any(flags[n:]):
        raise EncodingError("addressable bytes after the first non-addressable one")
    if n == g:
        return 0x00
    if n == 0:
        return int(kind)
    return n


def decode_granule(code: int, granularity: int) -> tuple[bool, ...]:
    """Per-byte addressability of one granule given its shadow code."""
    _check_granularity(granularity)
    if code == 0x00:
        return (True,) * granularity
    if 0 < code < granularity:
        return (True,) * code + (False,) * (granularity - code)
    if code >= POISON_FLOOR:
        return (False,) * granularity
    raise EncodingError(f"shadow code {code:#04x} invalid for granularity {granularity}")


class ShadowMap:
    """Address-validity map for one partition's byte space."""

    def __init__(self, partition_id: int, memory_size: int, granularity: int = 8):
        self.partition_id = partition_id
        self.memory_size = memory_size
        self.granularity = granularity
        # all-addressable until the owner says otherwise
        self.shadow = bytearray(shadow_size_for(memory_size, granularity))
        # running count of check_access calls, feeds the instrumented-time model
        self.checks_performed = 0

    # -- encoding helpers ---------------------------------------------------

    def leading_addressable(self, granule_idx: int) -> int:
        """How many leading bytes of the granule are addressable (0..g)."""
        code = self.shadow[granule_idx]
        if code == 0x00:
            return self.granularity
        if code >= POISON_FLOOR:
            return 0
        return code

    def is_addressable(self, offset: int) -> bool:
        if not 0 <= offset < self.memory_size:
            return False
        g = self.granularity
        return offset % g < self.leading_addressable(offset // g)

    def _check_span(self, start: int, length: int, min_length: int = 1) -> None:
        if length < min_length:
            raise ConfigError(f"length must be >= {min_length}, got {length}")
        if start < 0 or start + length > self.memory_size:
            raise ConfigError(
                f"span [{start}, {start + length}) outside partition of size "
                f"{self.memory_size}"
            )

    # -- mutation -----------------------------------------------------------

    def poison(self, start: int, length: int, kind: PoisonKind) -> None:
        """Mark ``[start, start+length)`` non-addressable with ``kind``.

        Poisoning may shrink a granule's addressable prefix but can never
        leave an addressable hole; such requests raise EncodingError.
        """
        kind = PoisonKind(kind)
        self._check_span(start, length)
        g = self.granularity
        end = start + length
        first, last = start // g, (end - 1) // g
        # validate every granule before touching any, so a rejected request
        # leaves the map exactly as it was
        updates = []
        for idx in range(first, last + 1):
            lo = start - idx * g if idx == first else 0
            hi = end - idx * g if idx == last else g
            n = self.leading_addressable(idx)
            if idx == first and lo > 0 and 0 < n < g:
                raise EncodingError(
                    f"poison start {start} lands mid-granule on a partially "
                    f"addressable granule {idx}"
                )
            if hi < n:
                raise EncodingError(
                    f"poison of [{start}, {end}) would leave granule {idx} with "
                    f"an addressable hole after offset {idx * g + hi}"
                )
            keep = min(n, lo)
            updates.append((idx, int(kind) if keep == 0 else keep))
        for idx, code in updates:
            self.shadow[idx] = code

    def unpoison(self, start: int, length: int) -> None:
        """Mark ``[start, start+length)`` addressable.  ``start`` must be
        granule-aligned; a partial final granule gets ``length mod g`` as its
        addressable prefix."""
        if length == 0:
            return
        self._check_span(start, length)
        g = self.granularity
        if start % g != 0:
            raise EncodingError(f"unpoison start {start} not aligned to granularity {g}")
        end = start + length
        full_end = end // g
        for idx in range(start // g, full_end):
            self.shadow[idx] = 0x00
        if end % g != 0:
            self.shadow[full_end] = end % g

    # -- checking -----------------------------------------------------------

    def check_access(self, start: int, length: int, access: AccessKind):
        """Validate an access of ``length`` bytes at ``start``.

        Returns None when every byte is addressable, otherwise a Violation
        naming the first offending byte; its detail names no region until
        the owner's ``name_region`` adds one.  The map itself is never
        modified by a check.
        """
        self.checks_performed += 1
        if length < 1:
            raise ConfigError(f"access length must be >= 1, got {length}")
        end = start + length
        if start < 0 or end > self.memory_size:
            bad = start if (start < 0 or start >= self.memory_size) else self.memory_size
            return self._violation(WILD_ADDRESS, bad, length, access)
        g = self.granularity
        first, last = start // g, (end - 1) // g
        for idx in range(first, last + 1):
            lo = start - idx * g if idx == first else 0
            hi = end - idx * g if idx == last else g
            n = self.leading_addressable(idx)
            if n >= hi:
                continue
            bad = idx * g + max(lo, n)
            return self._violation(self._violation_kind(idx), bad, length, access)
        return None

    def _violation(self, kind: str, bad: int, length: int, access: AccessKind) -> Violation:
        return Violation(
            kind=kind,
            partition=self.partition_id,
            offset=bad,
            size=length,
            access=access.value,
            detail=poison_detail(kind),
        )

    def _violation_kind(self, granule_idx: int) -> str:
        """Kind for a violation detected in ``granule_idx``.

        A partially addressable granule carries no kind of its own; the blame
        goes to the next poisoned granule to the right (in allocation layouts
        that is the region's right redzone).
        """
        code = self.shadow[granule_idx]
        if code >= POISON_FLOOR:
            return PoisonKind(code).name
        for idx in range(granule_idx + 1, len(self.shadow)):
            if self.shadow[idx] >= POISON_FLOOR:
                return PoisonKind(self.shadow[idx]).name
        return PoisonKind.MANUAL_BLACKLIST.name
