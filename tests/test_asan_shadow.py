"""Address-validity shadow map unit tests."""

import random

import pytest

from partsan.asan_shadow import (
    POISON_FLOOR,
    VALID_GRANULARITIES,
    PoisonKind,
    ShadowMap,
    WILD_ADDRESS,
    decode_granule,
    encode_granule,
    shadow_size_for,
)
from partsan.errors import ConfigError, EncodingError
from partsan.violations import AccessKind

from equivalence import run_asan_edge_cases, run_asan_equivalence


def test_shadow_size_examples():
    assert shadow_size_for(4096, 8) == 512
    assert shadow_size_for(4096, 1) == 4096
    assert shadow_size_for(4096, 16) == 256


def test_shadow_size_rejects_misalignment_and_bad_granularity():
    with pytest.raises(ConfigError):
        shadow_size_for(4095, 8)
    with pytest.raises(ConfigError):
        shadow_size_for(0, 8)
    with pytest.raises(ConfigError):
        shadow_size_for(4096, 3)
    with pytest.raises(ConfigError):
        ShadowMap(1, 64, granularity=5)


def test_poison_codes_are_stable():
    # report golden files depend on these exact byte values
    assert PoisonKind.LEFT_REDZONE == 0xF1
    assert PoisonKind.RIGHT_REDZONE == 0xF3
    assert PoisonKind.PARTITION_RESET == 0xF8
    assert PoisonKind.MANUAL_BLACKLIST == 0xFE
    assert all(kind >= POISON_FLOOR for kind in PoisonKind)


def test_encode_decode_identity_all_classes():
    for g in VALID_GRANULARITIES:
        for n in range(g + 1):
            flags = (True,) * n + (False,) * (g - n)
            for kind in PoisonKind:
                code = encode_granule(flags, kind)
                assert decode_granule(code, g) == flags
                if n == g:
                    assert code == 0x00
                elif n == 0:
                    assert code == int(kind)
                else:
                    assert code == n


def test_encode_rejects_holes():
    with pytest.raises(EncodingError):
        encode_granule((True, False, True, False, False, False, False, False))
    with pytest.raises(EncodingError):
        decode_granule(0x20, 8)


def test_unpoison_full_and_partial_tail():
    m = ShadowMap(1, 64, granularity=8)
    m.poison(0, 64, PoisonKind.MANUAL_BLACKLIST)
    m.unpoison(0, 16)
    assert m.shadow[0] == 0x00 and m.shadow[1] == 0x00
    m.poison(0, 64, PoisonKind.MANUAL_BLACKLIST)
    m.unpoison(0, 13)
    assert m.shadow[0] == 0x00 and m.shadow[1] == 0x05
    assert m.is_addressable(12) and not m.is_addressable(13)


def test_unpoison_zero_length_is_noop():
    m = ShadowMap(1, 64, granularity=8)
    m.poison(0, 64, PoisonKind.MANUAL_BLACKLIST)
    m.unpoison(0, 0)
    assert all(code == PoisonKind.MANUAL_BLACKLIST for code in m.shadow)


def test_unpoison_requires_aligned_start():
    m = ShadowMap(1, 64, granularity=8)
    with pytest.raises(EncodingError):
        m.unpoison(4, 8)


def test_poison_kind_bytes_land_in_shadow():
    m = ShadowMap(1, 64, granularity=8)
    m.poison(16, 16, PoisonKind.RIGHT_REDZONE)
    assert m.shadow[2] == 0xF3 and m.shadow[3] == 0xF3
    assert m.shadow[0] == 0x00 and m.shadow[4] == 0x00


def test_poison_takes_a_kind_or_its_code():
    m = ShadowMap(1, 64, granularity=8)
    m.poison(16, 8, int(PoisonKind.RIGHT_REDZONE))
    assert m.shadow[2] == PoisonKind.RIGHT_REDZONE
    with pytest.raises(ValueError, match="66 is not a valid PoisonKind"):
        m.poison(32, 8, 0x42)
    assert m.shadow[4] == 0x00


def test_poison_rejects_midgranule_start_on_partial_granule():
    m = ShadowMap(1, 64, granularity=8)
    m.poison(0, 64, PoisonKind.MANUAL_BLACKLIST)
    m.unpoison(0, 13)
    # granule 1 holds 5 addressable bytes; poisoning from byte 14 cannot
    # be encoded without losing track of bytes 8..13
    with pytest.raises(EncodingError):
        m.poison(14, 8, PoisonKind.LEFT_REDZONE)


def test_poison_rejects_addressable_hole():
    m = ShadowMap(1, 64, granularity=8)
    m.unpoison(0, 64)
    with pytest.raises(EncodingError):
        m.poison(0, 12, PoisonKind.LEFT_REDZONE)  # bytes 12..16 would survive


def test_failed_poison_leaves_map_untouched():
    m = ShadowMap(1, 64, granularity=8)
    m.unpoison(0, 64)
    before = bytes(m.shadow)
    with pytest.raises(EncodingError):
        m.poison(0, 12, PoisonKind.LEFT_REDZONE)
    assert bytes(m.shadow) == before


def test_poison_shrinks_prefix_from_aligned_interior():
    m = ShadowMap(1, 64, granularity=8)
    m.unpoison(0, 64)
    m.poison(4, 60, PoisonKind.RIGHT_REDZONE)
    assert m.shadow[0] == 0x04
    assert all(code == 0xF3 for code in m.shadow[1:])
    assert m.is_addressable(3) and not m.is_addressable(4)


def test_repoisoning_rekinds_whole_granule():
    m = ShadowMap(1, 64, granularity=8)
    m.poison(0, 64, PoisonKind.MANUAL_BLACKLIST)
    m.poison(8, 8, PoisonKind.PARTITION_RESET)
    assert m.shadow[1] == 0xF8
    assert m.shadow[0] == 0xFE and m.shadow[2] == 0xFE


def test_check_access_passes_full_payload():
    m = ShadowMap(1, 64, granularity=8)
    m.poison(0, 64, PoisonKind.MANUAL_BLACKLIST)
    m.unpoison(16, 16)
    assert m.check_access(16, 16, AccessKind.READ) is None


def test_check_access_flags_first_bad_byte_and_kind():
    m = ShadowMap(1, 64, granularity=8)
    m.poison(0, 64, PoisonKind.MANUAL_BLACKLIST)
    m.unpoison(16, 16)
    v = m.check_access(12, 8, AccessKind.WRITE)
    assert v.kind == PoisonKind.MANUAL_BLACKLIST.name
    assert v.offset == 12
    assert v.access == AccessKind.WRITE.value and v.size == 8
    assert (v.partition, v.detail) == (1, "blacklisted memory")
    v = m.check_access(16, 20, AccessKind.READ)
    assert v.offset == 32


def test_partial_granule_violation_blames_next_poison_to_the_right():
    m = ShadowMap(1, 64, granularity=8)
    m.poison(0, 64, PoisonKind.MANUAL_BLACKLIST)
    m.unpoison(16, 13)  # payload 16..29, granule 3 holds 5 addressable bytes
    m.poison(32, 16, PoisonKind.RIGHT_REDZONE)
    v = m.check_access(29, 1, AccessKind.READ)
    assert v.offset == 29
    assert v.kind == PoisonKind.RIGHT_REDZONE.name


def test_partial_granule_violation_without_right_poison_falls_back():
    m = ShadowMap(1, 16, granularity=8)
    m.unpoison(0, 16)
    m.unpoison(8, 5)  # tail granule prefix 5, nothing poisoned to the right
    v = m.check_access(13, 1, AccessKind.READ)
    assert v.offset == 13
    assert v.kind == PoisonKind.MANUAL_BLACKLIST.name


def test_check_access_wild_address_bounds():
    m = ShadowMap(1, 64, granularity=8)
    m.unpoison(0, 64)
    v = m.check_access(-1, 4, AccessKind.READ)
    assert v.kind == WILD_ADDRESS and v.offset == -1
    v = m.check_access(70, 2, AccessKind.READ)
    assert v.kind == WILD_ADDRESS and v.offset == 70
    v = m.check_access(60, 8, AccessKind.READ)
    assert v.kind == WILD_ADDRESS and v.offset == 64
    with pytest.raises(ConfigError):
        m.check_access(0, 0, AccessKind.READ)


def test_write_allocation_writes_redzones_payload_and_partial_granule():
    m = ShadowMap(1, 128, granularity=8)
    m.poison(0, 128, PoisonKind.MANUAL_BLACKLIST)
    m.write_allocation(16, 13, 16)
    assert bytes(m.shadow[:10]) == bytes(
        [0xFE, 0xFE, 0xF1, 0xF1, 0x00, 0x05, 0xF3, 0xF3, 0xFE, 0xFE]
    )


def test_write_allocation_rejects_with_nothing_written():
    m = ShadowMap(1, 128, granularity=8)
    m.poison(0, 128, PoisonKind.MANUAL_BLACKLIST)
    before = bytes(m.shadow)
    with pytest.raises(ConfigError):
        m.write_allocation(96, 1, 16)  # needs [96, 136)
    with pytest.raises(ConfigError):
        m.write_allocation(16, 1, 0)
    with pytest.raises(ConfigError):
        m.write_allocation(16, -1, 8)
    with pytest.raises(EncodingError):
        m.write_allocation(12, 4, 8)
    with pytest.raises(EncodingError):
        m.write_allocation(16, 4, 12)
    assert bytes(m.shadow) == before


def test_check_access_is_pure_and_counts():
    m = ShadowMap(1, 64, granularity=8)
    m.poison(0, 64, PoisonKind.MANUAL_BLACKLIST)
    m.unpoison(8, 8)
    before = bytes(m.shadow)
    assert m.checks_performed == 0
    first = m.check_access(6, 4, AccessKind.READ)
    second = m.check_access(6, 4, AccessKind.READ)
    assert first == second
    assert bytes(m.shadow) == before
    assert m.checks_performed == 2


def test_oracle_equivalence_dense_small_memory():
    # full per-byte state compare after every operation
    for g in VALID_GRANULARITIES:
        tally = run_asan_equivalence(
            random.Random(4000 + g), 256, g, 2000, 1, label="unit"
        )
        assert tally["check_pass"] + tally["check_fail"] > 300
        assert tally["poison"] > 100 and tally["unpoison"] > 100
        assert tally["alloc"] > 50 and tally["alloc_err"] > 5


@pytest.mark.parametrize("g", VALID_GRANULARITIES)
def test_oracle_equivalence_at_span_edges(g):
    # whole-partition spans, partial first and last granules, one- and
    # two-granule spans, interior first bad granules
    for size in (16 * g, 4096):
        tally = run_asan_edge_cases(size, g, label=f"size={size}")
        assert tally["check_fail"] >= 10 and tally["check_pass"] >= 3
        assert tally["poison"] >= 7 and tally["unpoison"] >= 9


def test_check_access_blames_first_bad_interior_granule():
    m = ShadowMap(1, 1 << 16, 8)
    m.poison(40000, 8, PoisonKind.RIGHT_REDZONE)
    m.poison(50000, 8, PoisonKind.LEFT_REDZONE)
    v = m.check_access(3, (1 << 16) - 6, AccessKind.WRITE)
    assert (v.offset, v.kind) == (40000, "RIGHT_REDZONE")
    m.unpoison(40000, 5)
    v = m.check_access(3, (1 << 16) - 6, AccessKind.WRITE)
    assert (v.offset, v.kind) == (40005, "LEFT_REDZONE")
