"""Partition memory lifecycle, allocation layout and checked accesses."""

import tracemalloc

import pytest

from partsan.asan_shadow import VALID_GRANULARITIES, PoisonKind
from partsan.errors import ConfigError
from partsan.guest_memory import (
    DEFAULT_REDZONE,
    NULL_GUARD,
    PartitionMemory,
)
from partsan.msan_shadow import ReservedInitConfig
from partsan.violations import AccessKind, UseSite, ViolationError

from equivalence import run_allocation_layouts


def make(size=512, **kw):
    return PartitionMemory(1, size, **kw)


def test_constructor_validates_redzone():
    with pytest.raises(ConfigError) as err:
        make(redzone=4, granularity=8)  # smaller than a granule
    assert err.value.path == "/redzone"
    with pytest.raises(ConfigError) as err:
        make(redzone=20, granularity=8)  # not a granule multiple
    assert err.value.path == "/redzone"
    mem = make(redzone=8, granularity=8)
    assert mem.layout.redzone == 8


def test_fresh_partition_is_fully_blacklisted():
    mem = make()
    for offset in (0, 1, 100, 511):
        v = mem.shadow.check_access(offset, 1, AccessKind.READ)
        assert v is not None and v.kind == PoisonKind.MANUAL_BLACKLIST.name


def test_first_region_layout_and_null_guard():
    mem = make()
    region = mem.alloc_region(16, "buffer")
    # null guard, then left redzone, then payload
    assert region.span_start == NULL_GUARD == 16
    assert region.base == NULL_GUARD + DEFAULT_REDZONE == 32
    assert region.payload_len == 16
    assert region.payload_end == 48
    assert region.span_end == 64
    # offset 0 stays permanently non-addressable
    assert not mem.shadow.is_addressable(0)
    assert mem.shadow.check_access(region.base, 16, AccessKind.WRITE) is None


def test_alignment_pad_for_offsize_payload():
    mem = make(granularity=8)
    region = mem.alloc_region(13, "odd")
    assert region.base == 32
    # payload rounds up to 16 for the right redzone to stay granule-aligned
    assert region.span_end == 32 + 16 + DEFAULT_REDZONE
    v = mem.shadow.check_access(region.base + 13, 1, AccessKind.READ)
    assert v is not None
    assert v.offset == region.base + 13
    assert v.kind == PoisonKind.RIGHT_REDZONE.name


def test_redzone_kinds_left_and_right():
    mem = make()
    region = mem.alloc_region(16, "buffer")
    left = mem.shadow.check_access(region.base - 1, 1, AccessKind.WRITE)
    assert left.kind == PoisonKind.LEFT_REDZONE.name
    right = mem.shadow.check_access(region.base + 16, 1, AccessKind.WRITE)
    assert right.kind == PoisonKind.RIGHT_REDZONE.name


@pytest.mark.parametrize("g", VALID_GRANULARITIES)
def test_one_write_allocation_matches_the_three_span_calls(g):
    # redzones of 1 and 2 granules, payloads of 1 to 2g+1 bytes, on a fresh
    # partition and after a reset
    assert run_allocation_layouts(g, label="alloc") == 2 * 2 * (2 * g + 1)


def test_regions_never_reuse_space():
    mem = make()
    first = mem.alloc_region(16, "a")
    second = mem.alloc_region(16, "b")
    assert second.span_start == first.span_end
    assert second.base == first.span_end + DEFAULT_REDZONE


def test_duplicate_label_rejected():
    mem = make()
    mem.alloc_region(8, "a")
    with pytest.raises(ConfigError) as err:
        mem.alloc_region(8, "a")
    assert err.value.path == "/label"


def test_out_of_memory_mutates_nothing():
    mem = make(size=128)
    mem.alloc_region(16, "a")
    regions_before = dict(mem.layout.regions)
    shadow_before = bytes(mem.shadow.shadow)
    with pytest.raises(ConfigError) as err:
        mem.alloc_region(1000, "big")
    assert err.value.path == "/size"
    assert str(err.value) == "/size: region 'big' needs 1032 bytes at offset 64, partition size is 128"
    assert mem.layout.regions == regions_before
    assert bytes(mem.shadow.shadow) == shadow_before
    mem.alloc_region(8, "fits")  # cursor untouched, allocation still works


def test_alloc_requires_init_phase():
    mem = make()
    mem.start()
    with pytest.raises(ConfigError) as err:
        mem.alloc_region(8, "late")
    assert err.value.path is None


def test_start_twice_is_a_phase_error():
    mem = make()
    mem.start()
    with pytest.raises(ConfigError) as err:
        mem.start()
    assert str(err.value) == "partition 1 already started"


def test_reset_invalidates_everything_and_reopens_init():
    mem = make()
    region = mem.alloc_region(16, "buffer")
    mem.start()
    mem.checked_write(region.base, b"\x01\x02")
    mem.reset_partition()
    assert not mem.layout.started
    assert mem.layout.regions == {}
    v = mem.shadow.check_access(region.base, 1, AccessKind.READ)
    assert v.kind == PoisonKind.PARTITION_RESET.name
    # old contents are not scrubbed, but initialization state is gone
    assert mem.init_shadow.check(region.base, 2, UseSite.BRANCH) is not None
    again = mem.alloc_region(16, "buffer")  # label free again, space is not
    assert again.span_start == NULL_GUARD
    assert again.base == region.base


def test_checked_write_then_read_roundtrip():
    mem = make()
    region = mem.alloc_region(16, "buffer")
    mem.start()
    mem.checked_write(region.base, b"\xaa\xbb\xcc")
    assert mem.checked_read(region.base, 3) == b"\xaa\xbb\xcc"
    assert mem.init_shadow.check(region.base, 3, UseSite.BRANCH) is None
    assert mem.init_shadow.origin_at(region.base) == "write"


def test_checked_access_raises_violation_with_region_name():
    mem = make()
    region = mem.alloc_region(16, "buffer")
    mem.start()
    with pytest.raises(ViolationError) as err:
        mem.checked_write(region.base - 1, b"\x01")
    violation = err.value.violation
    assert violation.kind == PoisonKind.LEFT_REDZONE.name
    assert violation.detail == "left redzone of region 'buffer'"
    assert violation.offset == region.base - 1
    with pytest.raises(ViolationError) as err:
        mem.checked_read(region.base + 16, 1)
    assert err.value.violation.kind == PoisonKind.RIGHT_REDZONE.name


def test_fresh_region_is_uninitialized_with_alloc_origin():
    mem = make()
    region = mem.alloc_region(8, "buffer")
    v = mem.init_shadow.check(region.base, 8, UseSite.SYSCALL_PRE)
    assert v is not None and v.origin == "alloc:buffer"


def test_reserved_init_write_does_not_initialize():
    mem = make(reserved_init=ReservedInitConfig(enabled=True, pattern=0xCD))
    region = mem.alloc_region(4, "var")
    mem.start()
    mem.checked_write(region.base, bytes([0xCD] * 4))
    assert mem.checked_read(region.base, 4) == bytes([0xCD] * 4)
    assert mem.init_shadow.check(region.base, 4, UseSite.BRANCH) is not None
    mem.checked_write(region.base, bytes([0xCD, 0x00, 0xCD, 0xCD]))
    assert mem.init_shadow.check(region.base, 4, UseSite.BRANCH) is None


def test_nearest_region_names_closest_neighbor():
    mem = make()
    a = mem.alloc_region(16, "a")
    b = mem.alloc_region(16, "b")
    assert mem.nearest_region(a.base).label == "a"
    assert mem.nearest_region(a.span_end - 1).label == "a"
    assert mem.nearest_region(b.span_start).label == "b"
    assert mem.nearest_region(mem.size_bytes - 1).label == "b"
    assert mem.nearest_region(0).label == "a"


def test_region_lookup_errors():
    mem = make()
    with pytest.raises(ConfigError):
        mem.region("missing")
    assert mem.nearest_region(10) is None


def test_mebibyte_partition_builds_in_bounded_memory():
    # byte space 1 MiB and validity shadow 1/8 MiB, plus the shadow's fill
    # temporary: about 1.4 MiB, since the initialization shadow keeps
    # nothing per byte; a reset refills the validity shadow in place
    tracemalloc.start()
    try:
        mem = PartitionMemory(1, 1 << 20)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        mem.reset_partition()
        _, reset_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * (1 << 20)
    assert reset_peak < 1.75 * (1 << 20)
