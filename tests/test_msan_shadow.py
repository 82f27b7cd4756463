"""Initialization shadow and padding registry unit tests."""

import random
import tracemalloc

import pytest

from partsan.errors import ConfigError
from partsan.guest_memory import NULL_GUARD, PartitionMemory
from partsan.msan_shadow import (
    InitShadow,
    copy_propagate,
    unpoison_padding,
)

from equivalence import run_msan_edge_cases, run_msan_equivalence
from oracles import InitOracle


def test_fresh_shadow_is_fully_uninitialized():
    s = InitShadow(1, 32)
    v = s.check(0, 4, "SYSCALL_PRE")
    assert v is not None
    assert v.offset == 0
    assert v.context == "SYSCALL_PRE"
    assert v.kind == "UNINIT_USE"


def test_check_reports_first_unwritten_byte_and_origin():
    s = InitShadow(1, 32)
    s.set_uninitialized(0, 32, origin="alloc:buf")
    s.mark_initialized(0, 3, "write:w0")
    v = s.check(0, 8, "BRANCH")
    assert v.offset == 3
    assert v.origin == "alloc:buf"
    assert v.size == 8
    s.mark_initialized(0, 8, "write:w1")
    assert s.check(0, 8, "BRANCH") is None


def test_check_is_pure_and_counts():
    s = InitShadow(1, 16)
    s.mark_initialized(4, 4, "write:w0")
    before = s.snapshot(0, 16)[0], list(s._edges)
    assert s.checks_performed == 0
    s.check(0, 16, "ARITH")
    s.check(4, 4, "ARITH")
    assert s.checks_performed == 2
    assert (s.snapshot(0, 16)[0], s._edges) == before


def test_mark_initialized_force_retags_nonforce_preserves():
    s = InitShadow(1, 8)
    s.mark_initialized(0, 4, "write:w0")
    s.mark_initialized(0, 8, "annotation", force=False)
    assert [s.origin_at(i) for i in range(8)] == ["write:w0"] * 4 + ["annotation"] * 4
    s.mark_initialized(0, 8, "write:w1", force=True)
    assert [s.origin_at(i) for i in range(8)] == ["write:w1"] * 8


def test_copy_propagate_carries_bits_and_origins():
    s = InitShadow(1, 32)
    s.set_uninitialized(0, 32, origin="alloc:src")
    s.mark_initialized(0, 4, "write:w0")
    copy_propagate(s, 0, 16, 8)
    assert [s.is_initialized(i) for i in range(16, 24)] == [True] * 4 + [False] * 4
    v = s.check(16, 8, "PORT_SEND")
    assert v.offset == 20
    assert v.origin == "alloc:src"  # blame the original allocation, not the copy


def test_copy_propagate_never_fires():
    src = InitShadow(1, 16)
    dst = InitShadow(2, 16)
    dst.mark_initialized(0, 16, "write:w0")
    copy_propagate(src, 0, 0, 16, dst_shadow=dst)  # fully uninitialized source
    assert dst.check(0, 16, "BRANCH").offset == 0


def test_copy_propagate_overlap_behaves_like_memmove():
    s = InitShadow(1, 16)
    s.mark_initialized(0, 4, "write:w0")
    copy_propagate(s, 0, 2, 8)  # overlapping forward copy
    # source snapshot was taken before writing: bytes 2..6 initialized
    assert [s.is_initialized(i) for i in range(2, 10)] == [True] * 4 + [False] * 4


def _write_initializes(data, reserved_pattern=0xCD) -> bool:
    """Whether ``checked_write`` of ``data`` into a fresh region of its
    length, in a partition with this reserved pattern, initializes it."""
    mem = PartitionMemory(1, 4096 + len(data) // 8 * 8, reserved_pattern=reserved_pattern)
    region = mem.alloc_region(len(data), "var")
    mem.start()
    mem.checked_write(region.base, data)
    assert mem.checked_read(region.base, len(data)) == data  # stored either way
    return mem.init_shadow.check(region.base, len(data), "BRANCH") is None


def test_reserved_init_pattern_masks_whole_write_only():
    assert not _write_initializes(bytes([0xCD, 0xCD]))
    assert _write_initializes(bytes([0xCD, 0x01]))
    assert _write_initializes(bytes([0xCD]), reserved_pattern=None)  # disabled
    mem = PartitionMemory(1, 4096, reserved_pattern=0xCD)
    with pytest.raises(ConfigError):
        mem.checked_write(NULL_GUARD, b"")


def test_reserved_init_pattern_masks_mebibyte_writes():
    fill = bytes([0xCD]) * (1 << 20)
    assert not _write_initializes(fill)
    assert _write_initializes(fill[:-1] + b"\xcc")


def test_unpoison_padding_marks_declared_ranges_only():
    s = InitShadow(1, 32)
    s.set_uninitialized(0, 32, origin="alloc:m")
    unpoison_padding(s, ((4, 4),), base=8)
    assert [s.is_initialized(i) for i in range(8, 20)] == (
        [False] * 4 + [True] * 4 + [False] * 4
    )
    assert s.origin_at(12) == "padding"


def test_unpoison_padding_preserves_existing_origins():
    s = InitShadow(1, 16)
    s.mark_initialized(4, 2, "write:w0")
    unpoison_padding(s, ((0, 8),), base=0)
    assert s.origin_at(4) == "write:w0"
    assert s.origin_at(0) == "padding"


def test_unpoison_padding_empty_declaration_is_noop():
    s = InitShadow(1, 16)
    unpoison_padding(s, (), base=0)
    assert s.check(0, 8, "PORT_SEND").offset == 0


def test_snapshot_roundtrip():
    s = InitShadow(1, 16)
    s.set_uninitialized(0, 16, origin="alloc:a")
    s.mark_initialized(2, 4, "write:w0")
    bits, labels = s.snapshot(0, 8)
    other = InitShadow(2, 16)
    other.apply_snapshot(8, bits, labels)
    assert [other.is_initialized(i) for i in range(8, 16)] == [
        s.is_initialized(i) for i in range(8)
    ]
    assert [other.origin_at(i) for i in range(8, 16)] == [
        s.origin_at(i) for i in range(8)
    ]


def test_span_validation():
    s = InitShadow(1, 16)
    with pytest.raises(ConfigError):
        s.check(12, 8, "BRANCH")
    with pytest.raises(ConfigError):
        s.mark_initialized(-1, 4, "x")
    with pytest.raises(ConfigError):
        s.check(0, 0, "BRANCH")


def test_oracle_equivalence_dense_small_memory():
    tally = run_msan_equivalence(random.Random(77), 256, 2000, 1, label="unit")
    assert tally["check_pass"] + tally["check_fail"] > 300
    assert tally["copy"] > 100
    assert tally["copy_across"] > 20
    assert tally["copy_shared"] > 10


def test_oracle_equivalence_4096_bytes():
    tally = run_msan_equivalence(random.Random(78), 4096, 2000, 401, label="wide")
    assert tally["mark"] > 300


def test_oracle_equivalence_at_span_edges():
    # whole-shadow spans, overlapping copies, copies between two tables and
    # within one shared table
    for size in (16, 257, 4096, 2 * 16384 + 3):
        tally = run_msan_edge_cases(size, label=f"size={size}")
        assert tally["copy"] == 6 and tally["check_fail"] >= 4
        assert tally["copy_shared"] == 3


def test_snapshot_into_another_shadow_keeps_every_label():
    s = InitShadow(1, 64)
    for i in range(64):
        s.set_uninitialized(i, 1, origin=f"alloc:{i % 5}")
    s.mark_initialized(10, 20, "write:w")
    other = InitShadow(2, 128)
    other.mark_initialized(0, 128, "write:first")
    copy_propagate(s, 0, 32, 64, other)
    assert [other.origin_at(32 + i) for i in range(64)] == [
        s.origin_at(i) for i in range(64)
    ]
    assert other.snapshot(32, 64)[0] == s.snapshot(0, 64)[0]
    assert other.origin_at(0) == other.origin_at(127) == "write:first"


@pytest.mark.parametrize("offset", [-1, -16, 16, 17])
def test_origin_at_rejects_an_offset_outside_the_shadow(offset):
    s = InitShadow(1, 16)
    s.set_uninitialized(0, 16, origin="alloc:a")
    with pytest.raises(ConfigError, match="outside shadow of size 16"):
        s.origin_at(offset)
    assert s.origin_at(0) == s.origin_at(15) == "alloc:a"


@pytest.mark.parametrize("start", [2, 3])
@pytest.mark.parametrize("end", [13, 14])
def test_unforced_mark_over_alternating_bytes(start, end):
    # even bytes were written, odd ones only allocated; the span starts and
    # ends on either kind
    s, oracle = InitShadow(1, 16), InitOracle(16)
    s.set_uninitialized(0, 16, "alloc:a")
    oracle.set_uninit(0, 16, "alloc:a")
    for i in range(0, 16, 2):
        s.mark_initialized(i, 1, f"write:{i}")
        oracle.mark(i, 1, f"write:{i}")
    s.mark_initialized(start, end - start, "annotation", force=False)
    oracle.mark(start, end - start, "annotation", force=False)
    assert s.snapshot(0, 16)[0] == bytes(oracle.bits)
    assert [s.origin_at(i) for i in range(16)] == oracle.origins


def test_a_mebibyte_shadow_builds_and_resets_without_a_per_byte_origin_array():
    tracemalloc.start()
    try:
        s = InitShadow(1, 1 << 20)
        s.set_uninitialized(4096, 1 << 18, origin="alloc:a")
        s.set_uninitialized(8192 + (1 << 18), 1 << 18, origin="alloc:b")
        s.mark_initialized(0, 1 << 20, "write:w")
        s.set_uninitialized(0, 1 << 20, origin=None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one shadow byte per guest byte would take 1 MiB
    assert peak < 64 * 1024
    assert s._edges == [] and s._starts == [0]
    assert not s.is_initialized((1 << 20) - 1)
    assert s.origin_at((1 << 20) - 1) is None


@pytest.mark.parametrize("offset", [-1, -16, 16, 17])
def test_is_initialized_rejects_an_offset_outside_the_shadow(offset):
    s = InitShadow(1, 16)
    s.mark_initialized(15, 1, "write:w")
    with pytest.raises(ConfigError, match="outside shadow of size 16"):
        s.is_initialized(offset)
    assert s.is_initialized(15) and not s.is_initialized(0)


def test_snapshot_bits_have_one_byte_per_span_byte():
    # the benchmark's tracer sizes apply_snapshot calls by len(bits)
    s = InitShadow(1, 64)
    s.mark_initialized(0, 8, "write:w0")
    s.mark_initialized(20, 4, "write:w1")
    s.mark_initialized(63, 1, "write:w2")
    for start, length in ((0, 0), (0, 8), (8, 12), (0, 64), (5, 17), (21, 43), (63, 1)):
        bits, _ = s.snapshot(start, length)
        assert len(bits) == length
        assert list(bits) == [s.is_initialized(i) for i in range(start, start + length)]


def test_a_large_snapshot_holds_its_labels_in_runs():
    s = InitShadow(1, 1 << 20)
    s.set_uninitialized(0, 1 << 20, origin="alloc:big")
    for i in range(8):
        s.mark_initialized(4096 + i * 30000, 100, f"write:{i}")
    tracemalloc.start()
    try:
        bits, labels = s.snapshot(1000, 1 << 18)
        del bits
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 4096
    other = InitShadow(2, 1 << 20)
    copy_propagate(s, 1000, 5000, 1 << 18, other)
    assert [other.origin_at(5000 + i) for i in range(0, 1 << 18, 997)] == [
        s.origin_at(1000 + i) for i in range(0, 1 << 18, 997)
    ]
