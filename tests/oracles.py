"""Reference oracles the production code is tested against.

Everything here is written from the documented contracts, not from the
implementation: a naive per-byte validity map instead of the k:1 shadow
encoding, a per-byte boolean-plus-label map instead of the interned origin
table, unbounded Python integers with a literal bounds table instead of
IntSpec arithmetic, and a linear scan instead of window arithmetic.  The
point is that a bug would have to be made twice, in two different shapes,
to go unnoticed.
"""

import math
from fractions import Fraction


class OracleError(Exception):
    pass


class OracleEncodingError(OracleError):
    pass


class OracleBoundsError(OracleError):
    pass


class ByteValidityMap:
    """Per-byte addressability with poison-kind labels.

    Mirrors the documented granule rules (prefix-only encoding, aligned
    unpoison, hole rejection, whole-granule re-kind) directly on a byte
    array, so every verdict can be read off with a linear scan.
    """

    def __init__(self, size, granularity):
        self.size = size
        self.g = granularity
        self.valid = [True] * size
        self.kind = [None] * size

    def _prefix_len(self, gstart):
        # leading addressable bytes of the granule starting at gstart
        n = 0
        for i in range(gstart, min(gstart + self.g, self.size)):
            if not self.valid[i]:
                break
            n += 1
        return n

    def _span(self, start, length, minimum=1):
        if length < minimum:
            raise OracleBoundsError(f"length {length}")
        if start < 0 or start + length > self.size:
            raise OracleBoundsError(f"span [{start}, {start + length})")

    def poison(self, start, length, kind):
        self._span(start, length)
        g = self.g
        end = start + length
        first = start - start % g
        plan = []
        for gstart in range(first, end, g):
            lo = max(start - gstart, 0)
            hi = min(end - gstart, g)
            n = self._prefix_len(gstart)
            if lo > 0 and 0 < n < g:
                raise OracleEncodingError("mid-granule start on partial granule")
            if hi < n:
                raise OracleEncodingError("would leave an addressable hole")
            plan.append((gstart, min(n, lo)))
        for gstart, keep in plan:
            # beyond the kept prefix the whole granule belongs to this kind
            for i in range(gstart + keep, min(gstart + g, self.size)):
                self.valid[i] = False
                self.kind[i] = kind

    def unpoison(self, start, length):
        if length == 0:
            return
        self._span(start, length)
        if start % self.g != 0:
            raise OracleEncodingError("unaligned unpoison start")
        end = start + length
        for i in range(start, end):
            self.valid[i] = True
            self.kind[i] = None
        if end % self.g != 0:
            # a partial tail granule keeps only the new prefix
            tail_end = end - end % self.g + self.g
            for i in range(end, min(tail_end, self.size)):
                self.valid[i] = False
                self.kind[i] = None

    def allocate(self, start, payload_len, redzone):
        """One allocation from ``start``: ``redzone`` bytes of left redzone,
        the payload, padded to whole granules, and ``redzone`` bytes of right
        redzone, written as the three span operations above.  A span that is
        not whole granules or does not fit changes nothing."""
        if payload_len < 0 or redzone < 1:
            raise OracleBoundsError(f"payload {payload_len}, redzone {redzone}")
        if start % self.g != 0 or redzone % self.g != 0:
            raise OracleEncodingError("allocation not in whole granules")
        base = start + redzone
        right = base + -(-payload_len // self.g) * self.g
        self._span(start, right + redzone - start)
        self.poison(start, redzone, "LEFT_REDZONE")
        self.unpoison(base, payload_len)
        self.poison(right, redzone, "RIGHT_REDZONE")

    def check(self, start, length):
        """None when fully addressable, else ('WILD'|'POISON', first bad byte)."""
        if length < 1:
            raise OracleBoundsError(f"length {length}")
        if start < 0 or start + length > self.size:
            bad = start if (start < 0 or start >= self.size) else self.size
            return ("WILD", bad)
        for i in range(start, start + length):
            if not self.valid[i]:
                return ("POISON", i)
        return None


class InitOracle:
    """Per-byte initialization flag plus origin label, no interning."""

    def __init__(self, size):
        self.size = size
        self.bits = bytearray(size)
        self.origins = [None] * size

    def _span(self, start, length, minimum=1):
        if length < minimum or start < 0 or start + length > self.size:
            raise OracleBoundsError(f"span [{start}, {start + length})")

    def set_uninit(self, start, length, origin=None):
        self._span(start, length)
        for i in range(start, start + length):
            self.bits[i] = 0
            self.origins[i] = origin

    def mark(self, start, length, origin, force=True):
        self._span(start, length)
        for i in range(start, start + length):
            if force or not self.bits[i]:
                self.origins[i] = origin
            self.bits[i] = 1

    def copy(self, src, src_start, dst_start, length):
        """src may be self; snapshot first so overlap behaves like memmove."""
        src._span(src_start, length, minimum=0)
        self._span(dst_start, length, minimum=0)
        bits = src.bits[src_start : src_start + length]
        origins = src.origins[src_start : src_start + length]
        for i in range(length):
            self.bits[dst_start + i] = bits[i]
            self.origins[dst_start + i] = origins[i]

    def check(self, start, length):
        """None when fully initialized, else (first bad byte, its origin)."""
        self._span(start, length)
        for i in range(start, start + length):
            if not self.bits[i]:
                return (i, self.origins[i])
        return None


# -- wide-integer reference for the checked primitives -------------------------

UB_BOUNDS = {
    "i8": (-128, 127),
    "u8": (0, 255),
    "i16": (-32768, 32767),
    "u16": (0, 65535),
    "i32": (-2147483648, 2147483647),
    "u32": (0, 4294967295),
    "i64": (-9223372036854775808, 9223372036854775807),
    "u64": (0, 18446744073709551615),
}

#: Every kind a checked primitive reports, as UBSan names its checks.
UB_KINDS = frozenset({
    "ADD_OVERFLOW",
    "SUB_OVERFLOW",
    "MUL_OVERFLOW",
    "DIV_BY_ZERO",
    "DIV_OVERFLOW",
    "SHIFT_RANGE",
    "MISALIGNED",
    "NULL_DEREF",
    "BOOL_RANGE",
    "ENUM_RANGE",
    "TRUNCATION",
})


def ref_arith(op, a, b, type_name, strict=False):
    """('ok', value) or ('violation', kind) for ADD/SUB/MUL."""
    lo, hi = UB_BOUNDS[type_name]
    if op == "ADD":
        exact = a + b
    elif op == "SUB":
        exact = a - b
    elif op == "MUL":
        exact = a * b
    else:
        raise OracleError(op)
    if lo <= exact <= hi:
        return ("ok", exact)
    if type_name.startswith("u") and not strict:
        return ("ok", exact % (hi + 1))
    return ("violation", f"{op}_OVERFLOW")


def ref_div(a, b, type_name):
    if b == 0:
        return ("violation", "DIV_BY_ZERO")
    lo, _hi = UB_BOUNDS[type_name]
    if type_name.startswith("i") and a == lo and b == -1:
        return ("violation", "DIV_OVERFLOW")
    # int() on a Fraction truncates toward zero
    return ("ok", int(Fraction(a, b)))


def ref_shift(a, s, type_name, strict=False):
    width = int(type_name[1:])
    if s < 0 or s >= width:
        return ("violation", "SHIFT_RANGE")
    lo, hi = UB_BOUNDS[type_name]
    exact = a * 2**s
    if lo <= exact <= hi:
        return ("ok", exact)
    if type_name.startswith("u") and not strict:
        return ("ok", exact % (hi + 1))
    return ("violation", "SHIFT_RANGE")


def ref_trunc(value, from_name, to_name):
    flo, fhi = UB_BOUNDS[from_name]
    if not flo <= value <= fhi:
        raise OracleBoundsError(f"{value} not a {from_name}")
    lo, hi = UB_BOUNDS[to_name]
    if lo <= value <= hi:
        return ("ok", value)
    return ("violation", "TRUNCATION")


# -- layout references -----------------------------------------------------------


def ref_nearest_region(regions, offset):
    """The region whose span holds ``offset``, else the one whose span's
    first or last byte is closest to it, the first allocated on a tie:
    a scan over every region in allocation order."""
    best, best_dist = None, None
    for r in regions:
        if r.span_start <= offset < r.span_end:
            return r
        dist = min(abs(offset - r.span_start), abs(offset - (r.span_end - 1)))
        if best_dist is None or dist < best_dist:
            best, best_dist = r, dist
    return best


# -- scheduling references ------------------------------------------------------


def ref_window(window_lengths, t):
    """(index, remaining) found by accumulating lengths, no modular tricks
    beyond reducing t into one frame."""
    frame = sum(length for _, length in window_lengths)
    pos = t % frame
    acc = 0
    for index, (_pid, length) in enumerate(window_lengths):
        if pos < acc + length:
            return index, acc + length - pos
        acc += length
    raise OracleError("lengths do not cover the frame")


def ref_dispatch(ready):
    """Expected pick among (process_id, priority) pairs: scan and keep the
    strictly better candidate, preferring lower id on equal priority."""
    best = None
    for pid, prio in ready:
        if best is None:
            best = (pid, prio)
        elif prio > best[1] or (prio == best[1] and pid < best[0]):
            best = (pid, prio)
    return None if best is None else best[0]


def ref_virtual(raw, factor):
    """floor(raw / factor) evaluated through Fraction division and floor."""
    return math.floor(Fraction(raw) / Fraction(factor))
