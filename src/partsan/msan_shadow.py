"""Initialization shadow: the offsets where a partition's initialization
state flips, plus origin runs.

Initialization state propagates silently through copies; only *uses* of a
value (syscall argument, branch condition, arithmetic operand, port send)
are checked.  Each byte carries an origin label: while uninitialized it
points at the allocation that produced the byte, once initialized at the
write/annotation/copy-source that defined it, so a violation can always say
where the offending value came from.

No state is kept per byte.  One sorted list holds the offsets where the
state flips, from uninitialized at byte 0, so a byte is initialized iff an
odd number of flips lie at or before it.  Labels are interned in an origin
table.  Shadows may share one table (a simulator's partitions do), so that
copying between them copies the ids as they are.  The ids are kept as runs:
two parallel lists hold each run's first offset, in ascending order from 0,
and its origin id, and a byte has the id of the last run that starts at or
before it.  Shadow memory thus grows with the number of flips and runs, not
with the partition size.  A span operation replaces the flips and the runs
over its span with a bisect and a slice assignment each, and a check is one
bisect; a copy shifts the source's flips and runs to the destination.
The per-byte oracles in ``tests/oracles.py`` define what each operation
means.
"""

from __future__ import annotations

from bisect import bisect, bisect_left

from .errors import ConfigError
from .violations import Violation

__all__ = [
    "InitShadow",
    "copy_propagate",
]


class Flips:
    """A span's initialization state as ``snapshot`` takes it: ``first`` (1 =
    initialized) at its first byte, the ``offsets`` from its start where it
    flips, and its ``length``, its ``len()``."""

    __slots__ = ("first", "offsets", "length")

    def __init__(self, first: int, offsets: tuple, length: int):
        self.first = first
        self.offsets = offsets
        self.length = length

    def __len__(self) -> int:
        return self.length


class InitShadow:
    """Initialization map for one partition (1:1 granularity), kept as the
    offsets where the state flips, with origin ids kept as runs.

    ``origins`` is an origin table shared with other shadows: a pair of the
    label list, whose id 0 is None, and the dict from label to id.  Without
    it the shadow gets a table of its own.  Each ``(start, end, origin)`` of
    ``runs``, in address order and apart, starts as an origin run of its
    own, as ``set_uninitialized`` over each would leave it.  ``size`` is
    positive, as the loader checks a partition's memory size.
    """

    def __init__(self, partition_id: int, size: int, origins=None, runs=()):
        self.partition_id = partition_id
        self.size = size
        # ascending offsets where the state flips: byte 0 starts
        # uninitialized, so byte i is initialized iff bisect(_edges, i) is odd
        self._edges = []
        self._origin_table, self._origin_index = origins or ([None], {})
        # origin runs: byte i has the id of the last run starting at or before
        # i; the bytes after each of ``runs`` are untagged
        starts = self._starts = [0]
        ids = self._ids = [0]
        for start, end, origin in runs:
            starts += start, end
            ids += self._intern(origin), 0
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
        """End of a span that must lie in the shadow.  The per-step methods
        test their span inline and call this only to raise its error."""
        if length < min_length:
            raise ConfigError(f"length must be >= {min_length}, got {length}")
        end = start + length
        if start < 0 or end > self.size:
            raise ConfigError(f"span [{start}, {end}) outside shadow of size {self.size}")
        return end

    def _offset(self, offset: int) -> int:
        if not 0 <= offset < self.size:
            raise ConfigError(f"offset {offset} outside shadow of size {self.size}")
        return offset

    # -- state transitions ----------------------------------------------------

    def _splice(self, start: int, end: int, first: int, flips, starts, ids) -> None:
        """Replace the state and the origin runs over [start, end): the
        state is ``first`` (1 = initialized) at ``start`` and flips at each
        of the offsets in the tuple ``flips`` inside the span; runs begin at
        each of ``starts``, the first at ``start``, with ``ids``."""
        edges = self._edges
        lo = bisect_left(edges, start)
        hi = bisect(edges, end, lo)
        # lo & 1 is the state of the byte before the span, hi & 1 that of
        # the byte at ``end``
        head = (start,) if lo & 1 != first else ()
        tail = (end,) if end < self.size and hi & 1 != first ^ len(flips) & 1 else ()
        edges[lo:hi] = head + flips + tail
        runs, run_ids = self._starts, self._ids
        lo = bisect_left(runs, start)
        hi = bisect_left(runs, end, lo)
        if end < self.size and (hi == len(runs) or runs[hi] != end):
            # the bytes from ``end`` on keep the id of the run they were in
            runs.insert(hi, end)
            run_ids.insert(hi, run_ids[hi - 1])
        runs[lo:hi] = starts
        run_ids[lo:hi] = ids

    def set_uninitialized(self, start: int, length: int, origin: str | None = None) -> None:
        """Mark a span uninitialized, tagged with the allocation's origin."""
        self._splice(start, self._span(start, length), 0, (), (start,), (self._intern(origin),))

    def mark_initialized(
        self, start: int, length: int, origin: str | None, force: bool = True
    ) -> None:
        """Mark a span initialized.

        With ``force`` every byte is re-tagged with ``origin`` (a genuine
        write).  Without it, bytes that were already initialized keep their
        existing origin (annotation-driven unpoison must not hide the real
        writer).
        """
        end = start + length
        if length < 1 or start < 0 or end > self.size:
            self._span(start, length)
        oid = self._intern(origin)
        if force:
            self._splice(start, end, 1, (), (start,), (oid,))
            return
        # fill each uninitialized segment: the span's flips cut it into
        # segments that alternate from the state at ``start``
        edges = self._edges
        i = bisect(edges, start)
        bounds = [start, *edges[i : bisect_left(edges, end, i)], end]
        first = i & 1
        for a, b in zip(bounds[first::2], bounds[first + 1 :: 2]):
            self._splice(a, b, 1, (), (a,), (oid,))

    # -- queries ----------------------------------------------------------------

    def is_initialized(self, offset: int) -> bool:
        return bisect(self._edges, self._offset(offset)) & 1 == 1

    def origin_at(self, offset: int) -> str | None:
        return self._origin_table[self._ids[bisect(self._starts, self._offset(offset)) - 1]]

    def check(self, start: int, length: int, context: str):
        """Check that a span about to be *used* at the use site ``context``
        ("SYSCALL_PRE", "BRANCH", "ARITH" or "PORT_SEND") is fully
        initialized.

        Returns None, or an UNINIT_USE Violation for the first
        uninitialized byte.
        """
        self.checks_performed += 1
        end = start + length
        if length < 1 or start < 0 or end > self.size:
            self._span(start, length)
        edges = self._edges
        i = bisect(edges, start)
        if not i & 1:
            bad = start
        elif i == len(edges) or edges[i] >= end:
            return None
        else:
            bad = edges[i]
        origin = self.origin_at(bad)
        blame = f"(origin {origin})" if origin else "(no origin)"
        return Violation(
            kind="UNINIT_USE",
            partition=self.partition_id,
            offset=bad,
            size=length,
            access="R",
            detail=f"uninitialized byte used at {context} {blame}",
            context=context,
            origin=origin,
        )

    # -- propagation --------------------------------------------------------------

    def snapshot(self, start: int, length: int):
        """Bits and origin labels for a span, detached from this shadow.

        The bits are a ``Flips``, nothing per span byte.  The labels are
        ``(origin table, start, inner run starts, run ids)``: the starts of
        the runs that begin inside the span, and the ids of every run the
        span overlaps, one more than the starts.  The table only ever
        grows, so the ids stay valid however the shadow changes later.
        """
        end = start + length
        if length < 0 or start < 0 or end > self.size:
            self._span(start, length, min_length=0)
        edges = self._edges
        i = bisect(edges, start)
        # the flips inside the span, most often none, taken relative to its start
        inside = edges[i : bisect_left(edges, end, i)] if i < len(edges) and edges[i] < end else ()
        bits = Flips(i & 1, tuple(map((-start).__add__, inside)) if inside else (), length)
        runs = self._starts
        lo = bisect(runs, start)
        if lo == len(runs) or runs[lo] >= end:  # inside one run
            labels = (self._origin_table, start, (), (self._ids[lo - 1],))
        else:
            hi = bisect_left(runs, end, lo)
            labels = (self._origin_table, start, runs[lo:hi], self._ids[lo - 1 : hi])
        return bits, labels

    def apply_snapshot(self, start: int, bits: Flips, labels) -> None:
        """Write a ``snapshot`` at ``start``: the flips of its ``bits`` and
        its runs, shifted there.  From a shadow with another origin table,
        each run's origin is interned here and its id translated."""
        end = start + bits.length
        if start < 0 or end > self.size:
            self._span(start, bits.length, min_length=0)
        if start == end:
            return
        table, src_start, inner, ids = labels
        if table is not self._origin_table:
            ids = [self._intern(table[oid]) for oid in ids]
        flips = tuple(map(start.__add__, bits.offsets)) if bits.offsets else ()
        starts = [start, *map((start - src_start).__add__, inner)] if inner else (start,)
        self._splice(start, end, bits.first, flips, starts, ids)


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
