"""Initialization shadow and padding registry unit tests."""

import random

import pytest

from partsan.errors import ConfigError
from partsan.msan_shadow import (
    InitShadow,
    PaddingRegistry,
    ReservedInitConfig,
    copy_propagate,
    unpoison_padding,
)
from partsan.violations import UseSite

from equivalence import run_msan_equivalence


def test_fresh_shadow_is_fully_uninitialized():
    s = InitShadow(1, 32)
    v = s.check(0, 4, UseSite.SYSCALL_PRE)
    assert v is not None
    assert v.offset == 0
    assert v.context == UseSite.SYSCALL_PRE.value
    assert v.kind == "UNINIT_USE"


def test_check_reports_first_unwritten_byte_and_origin():
    s = InitShadow(1, 32)
    s.set_uninitialized(0, 32, origin="alloc:buf")
    s.mark_initialized(0, 3, "write:w0")
    v = s.check(0, 8, UseSite.BRANCH)
    assert v.offset == 3
    assert v.origin == "alloc:buf"
    assert v.size == 8
    s.mark_initialized(0, 8, "write:w1")
    assert s.check(0, 8, UseSite.BRANCH) is None


def test_check_is_pure_and_counts():
    s = InitShadow(1, 16)
    before_bits = bytes(s.bits)
    assert s.checks_performed == 0
    s.check(0, 16, UseSite.ARITH)
    s.check(0, 16, UseSite.ARITH)
    assert s.checks_performed == 2
    assert bytes(s.bits) == before_bits


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
    v = s.check(16, 8, UseSite.PORT_SEND)
    assert v.offset == 20
    assert v.origin == "alloc:src"  # blame the original allocation, not the copy


def test_copy_propagate_never_fires():
    src = InitShadow(1, 16)
    dst = InitShadow(2, 16)
    dst.mark_initialized(0, 16, "write:w0")
    copy_propagate(src, 0, 0, 16, dst_shadow=dst)  # fully uninitialized source
    assert dst.check(0, 16, UseSite.BRANCH).offset == 0


def test_copy_propagate_overlap_behaves_like_memmove():
    s = InitShadow(1, 16)
    s.mark_initialized(0, 4, "write:w0")
    copy_propagate(s, 0, 2, 8)  # overlapping forward copy
    # source snapshot was taken before writing: bytes 2..6 initialized
    assert [s.is_initialized(i) for i in range(2, 10)] == [True] * 4 + [False] * 4


def test_reserved_init_pattern_masks_whole_write_only():
    cfg = ReservedInitConfig(enabled=True, pattern=0xCD)
    assert cfg.masks_write(bytes([0xCD, 0xCD]))
    assert not cfg.masks_write(bytes([0xCD, 0x01]))
    assert not cfg.masks_write(b"")
    assert not ReservedInitConfig().masks_write(bytes([0xCD]))
    with pytest.raises(ConfigError):
        ReservedInitConfig(enabled=True, pattern=300)


def test_padding_registry_validates_ranges():
    reg = PaddingRegistry()
    reg.register("msg_t", [(4, 4), (10, 2)], type_size=12)
    assert reg.ranges_for("msg_t") == ((4, 4), (10, 2))
    with pytest.raises(ConfigError):
        reg.register("bad", [(0, 4), (2, 4)], type_size=8)  # overlap
    with pytest.raises(ConfigError):
        reg.register("bad", [(6, 4)], type_size=8)  # exceeds size
    with pytest.raises(ConfigError):
        reg.register("bad", [(-1, 2)], type_size=8)
    with pytest.raises(ConfigError):
        reg.register("bad", [(0, 0)], type_size=8)
    with pytest.raises(ConfigError):
        reg.ranges_for("never_registered")


def test_unpoison_padding_marks_declared_ranges_only():
    s = InitShadow(1, 32)
    s.set_uninitialized(0, 32, origin="alloc:m")
    reg = PaddingRegistry()
    reg.register("msg_t", [(4, 4)], type_size=12)
    unpoison_padding(s, reg, "msg_t", base=8)
    assert [s.is_initialized(i) for i in range(8, 20)] == (
        [False] * 4 + [True] * 4 + [False] * 4
    )
    assert s.origin_at(12) == "padding"


def test_unpoison_padding_preserves_existing_origins():
    s = InitShadow(1, 16)
    s.mark_initialized(4, 2, "write:w0")
    reg = PaddingRegistry()
    reg.register("t", [(0, 8)], type_size=8)
    unpoison_padding(s, reg, "t", base=0)
    assert s.origin_at(4) == "write:w0"
    assert s.origin_at(0) == "padding"


def test_unpoison_padding_empty_declaration_is_noop():
    s = InitShadow(1, 16)
    reg = PaddingRegistry()
    reg.register("t", [], type_size=8)
    unpoison_padding(s, reg, "t", base=0)
    assert s.check(0, 8, UseSite.PORT_SEND).offset == 0


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
        s.check(12, 8, UseSite.BRANCH)
    with pytest.raises(ConfigError):
        s.mark_initialized(-1, 4, "x")
    with pytest.raises(ConfigError):
        s.check(0, 0, UseSite.BRANCH)
    with pytest.raises(ConfigError):
        InitShadow(1, 0)


def test_oracle_equivalence_dense_small_memory():
    tally = run_msan_equivalence(random.Random(77), 256, 2000, 1, label="unit")
    assert tally["check_pass"] + tally["check_fail"] > 300
    assert tally["copy"] > 100


def test_oracle_equivalence_4096_bytes():
    tally = run_msan_equivalence(random.Random(78), 4096, 2000, 401, label="wide")
    assert tally["mark"] > 300
