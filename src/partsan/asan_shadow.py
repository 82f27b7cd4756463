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

A span can cover only its first and last granule in part, so span
operations check those two and write or scan everything in between with
one slice operation or C-level search.  An allocation (left redzone,
payload with its partial last granule, right redzone) covers whole
granules and is written in one slice by ``write_allocation``.  The per-byte
oracle in ``tests/oracles.py`` defines what each operation means.
"""

from __future__ import annotations

import re
from enum import IntEnum

from .errors import ConfigError, EncodingError
from .violations import AccessKind, Violation

VALID_GRANULARITIES = (1, 2, 4, 8, 16)

#: Shadow codes at or above this value mark a fully non-addressable granule.
POISON_FLOOR = 0xF0

#: Violation kind for accesses outside the partition's byte space entirely.
WILD_ADDRESS = "WILD_ADDRESS"

# C-speed searches of the shadow for a granule that is not wholly
# addressable, and for a wholly poisoned one
_NONZERO = re.compile(rb"[^\x00]")
_POISONED = re.compile(rb"[\xf0-\xff]")


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
    check_granularity(granularity)
    check_memory_size(memory_size, granularity)
    return memory_size // granularity


def check_granularity(granularity: int) -> int:
    """A shadow granularity is one of VALID_GRANULARITIES; returns it."""
    if granularity not in VALID_GRANULARITIES:
        raise ConfigError(
            f"granularity must be one of {VALID_GRANULARITIES}, got {granularity!r}"
        )
    return granularity


def check_memory_size(memory_size: int, granularity: int) -> None:
    """A partition's memory is a whole number of granules, at least one."""
    if memory_size <= 0 or memory_size % granularity != 0:
        raise ConfigError(
            f"memory size {memory_size} must be a positive multiple of "
            f"granularity {granularity}"
        )


def encode_granule(flags, kind: PoisonKind = PoisonKind.MANUAL_BLACKLIST) -> int:
    """Encode a per-byte addressability vector for one granule.

    Only prefix-addressable vectors are representable; anything else raises
    EncodingError.  ``kind`` is used when no byte is addressable.
    """
    flags = list(flags)
    g = len(flags)
    check_granularity(g)
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
    check_granularity(granularity)
    if code == 0x00:
        return (True,) * granularity
    if 0 < code < granularity:
        return (True,) * code + (False,) * (granularity - code)
    if code >= POISON_FLOOR:
        return (False,) * granularity
    raise EncodingError(f"shadow code {code:#04x} invalid for granularity {granularity}")


_LEFT_REDZONE = bytes((PoisonKind.LEFT_REDZONE,))
_RIGHT_REDZONE = bytes((PoisonKind.RIGHT_REDZONE,))


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
        if type(kind) is not PoisonKind:
            kind = PoisonKind(kind)
        self._check_span(start, length)
        g = self.granularity
        end = start + length
        first, last = start // g, (end - 1) // g
        # only the first and last granule can be partly covered; validate
        # both before touching any, so a rejected request leaves the map
        # exactly as it was
        lo = start - first * g
        n = self.leading_addressable(first)
        if lo > 0 and 0 < n < g:
            raise EncodingError(
                f"poison start {start} lands mid-granule on a partially "
                f"addressable granule {first}"
            )
        hi = end - last * g
        if hi < self.leading_addressable(last):
            raise EncodingError(
                f"poison of [{start}, {end}) would leave granule {last} with "
                f"an addressable hole after offset {last * g + hi}"
            )
        # every covered granule takes the kind, except that the first keeps
        # what was addressable before the span
        self.shadow[first : last + 1] = bytes((kind,)) * (last + 1 - first)
        keep = min(n, lo)
        if keep:
            self.shadow[first] = keep

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
        self.shadow[start // g : full_end] = bytes(full_end - start // g)
        if end % g != 0:
            self.shadow[full_end] = end % g

    def write_allocation(self, start: int, payload_len: int, redzone: int) -> None:
        """Write one allocation from granule-aligned ``start`` in one slice:
        ``redzone`` bytes of LEFT_REDZONE, ``payload_len`` addressable bytes
        (a partial last granule gets ``payload_len mod g`` as its prefix),
        then ``redzone`` bytes of RIGHT_REDZONE.  ``redzone`` is whole
        granules, so every granule of the span is covered wholly and the
        map ends as ``poison``, ``unpoison``, ``poison`` over the three parts
        would leave it, whatever the span held; a span that does not fit is
        rejected with nothing written."""
        g = self.granularity
        if payload_len < 0 or redzone < 1:
            raise ConfigError(
                f"allocation needs a payload >= 0 and a redzone >= 1 byte, got "
                f"{payload_len} and {redzone}"
            )
        if start % g != 0 or redzone % g != 0:
            raise EncodingError(
                f"allocation at {start} with redzone {redzone} not aligned to granularity {g}"
            )
        full, tail = divmod(payload_len, g)
        granules = full + (tail > 0)
        self._check_span(start, 2 * redzone + granules * g)
        fence = redzone // g
        # the payload's codes are the zeros the buffer starts with; built
        # in place, so a large payload costs one buffer, not a copy per part
        codes = bytearray(2 * fence + granules)
        codes[:fence] = _LEFT_REDZONE * fence
        codes[fence + granules :] = _RIGHT_REDZONE * fence
        if tail:
            codes[fence + full] = tail
        first = start // g
        self.shadow[first : first + len(codes)] = codes

    # -- checking -----------------------------------------------------------

    def check_access(self, start: int, length: int, access: AccessKind):
        """Validate an access of ``length`` bytes at ``start``.

        Returns None when every byte is addressable, otherwise a Violation
        naming the first offending byte; its detail names no region until
        ``PartitionMemory.check_access`` adds one.  The map itself is never
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
        if self.shadow.count(0, first, last + 1) == last + 1 - first:
            return None  # every granule of the span is wholly addressable
        # the first and last granule may be partly covered; every one in
        # between must be wholly addressable, i.e. code 0x00
        lo = start - first * g
        hi = end - first * g if first == last else g
        n = self.leading_addressable(first)
        if n < hi:
            idx, bad = first, first * g + max(lo, n)
        else:
            if self.shadow.count(0, first + 1, last) < last - first - 1:
                idx = _NONZERO.search(self.shadow, first + 1, last).start()
            elif last > first and self.leading_addressable(last) < end - last * g:
                idx = last
            else:
                return None
            bad = idx * g + self.leading_addressable(idx)
        return self._violation(self._violation_kind(idx), bad, length, access)

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
        hit = _POISONED.search(self.shadow, granule_idx + 1)
        if hit is None:
            return PoisonKind.MANUAL_BLACKLIST.name
        return PoisonKind(self.shadow[hit.start()]).name
