"""Partition memory lifecycle, allocation layout and checked accesses."""

import mmap
import random
import sys
import tracemalloc
from pathlib import Path

import mutation_differential  # the test directory is on sys.path
import pytest

from partsan.asan_shadow import VALID_GRANULARITIES
from partsan.errors import ConfigError
from partsan.guest_memory import (
    DEFAULT_REDZONE,
    LAZY_ZERO_MIN,
    NULL_GUARD,
    PartitionMemory,
)
from partsan.harness import Simulator
from partsan.scenario import builtin_names, load_builtin, load_scenario, load_scenario_text
from partsan.violations import ViolationError

from equivalence import run_allocation_layouts
from oracles import ref_nearest_region

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def make(size=512, **kw):
    return PartitionMemory(1, size, **kw)


def test_fresh_partition_is_fully_blacklisted():
    mem = make()
    for offset in (0, 1, 100, 511):
        v = mem.shadow.check_access(offset, 1, "R")
        assert v is not None and v.kind == "MANUAL_BLACKLIST"


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
    assert mem.shadow.check_access(region.base, 16, "W") is None


def test_alignment_pad_for_offsize_payload():
    mem = make(granularity=8)
    region = mem.alloc_region(13, "odd")
    assert region.base == 32
    # payload rounds up to 16 for the right redzone to stay granule-aligned
    assert region.span_end == 32 + 16 + DEFAULT_REDZONE
    v = mem.shadow.check_access(region.base + 13, 1, "R")
    assert v is not None
    assert v.offset == region.base + 13
    assert v.kind == "RIGHT_REDZONE"


def test_redzone_kinds_left_and_right():
    mem = make()
    region = mem.alloc_region(16, "buffer")
    left = mem.shadow.check_access(region.base - 1, 1, "W")
    assert left.kind == "LEFT_REDZONE"
    right = mem.shadow.check_access(region.base + 16, 1, "W")
    assert right.kind == "RIGHT_REDZONE"


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
    v = mem.shadow.check_access(region.base, 1, "R")
    assert v.kind == "PARTITION_RESET"
    # old contents are not scrubbed, but initialization state is gone
    assert mem.init_shadow.check(region.base, 2, "BRANCH") is not None
    again = mem.alloc_region(16, "buffer")  # label free again, space is not
    assert again.span_start == NULL_GUARD
    assert again.base == region.base


def test_checked_write_then_read_roundtrip():
    mem = make()
    region = mem.alloc_region(16, "buffer")
    mem.start()
    mem.checked_write(region.base, b"\xaa\xbb\xcc")
    assert mem.checked_read(region.base, 3) == b"\xaa\xbb\xcc"
    assert mem.init_shadow.check(region.base, 3, "BRANCH") is None
    assert mem.init_shadow.origin_at(region.base) == "write"


def test_an_empty_write_is_rejected_and_changes_nothing():
    """The address check rejects an access of no bytes, so an empty
    payload leaves the bytes and both shadows as they were."""
    mem = make()
    region = mem.alloc_region(16, "buffer")
    mem.start()
    mem.checked_write(region.base, b"\xaa\xbb")

    def state():
        init = mem.init_shadow
        shadows = bytes(mem.shadow.shadow), init._edges[:], init._starts[:], init._ids[:]
        return bytes(mem.data), shadows

    before = state()
    for offset in (region.base, region.base + 4, region.base - 1, 0):
        with pytest.raises(ConfigError, match="access length must be >= 1"):
            mem.checked_write(offset, b"")
        assert state() == before


def test_checked_access_raises_violation_with_region_name():
    mem = make()
    region = mem.alloc_region(16, "buffer")
    mem.start()
    with pytest.raises(ViolationError) as err:
        mem.checked_write(region.base - 1, b"\x01")
    violation = err.value.violation
    assert violation.kind == "LEFT_REDZONE"
    assert violation.detail == "left redzone of region 'buffer'"
    assert violation.offset == region.base - 1
    with pytest.raises(ViolationError) as err:
        mem.checked_read(region.base + 16, 1)
    assert err.value.violation.kind == "RIGHT_REDZONE"


def test_fresh_region_is_uninitialized_with_alloc_origin():
    mem = make()
    region = mem.alloc_region(8, "buffer")
    v = mem.init_shadow.check(region.base, 8, "SYSCALL_PRE")
    assert v is not None and v.origin == "alloc:buffer"


def test_reserved_init_write_does_not_initialize():
    mem = make(reserved_pattern=0xCD)
    region = mem.alloc_region(4, "var")
    mem.start()
    mem.checked_write(region.base, bytes([0xCD] * 4))
    assert mem.checked_read(region.base, 4) == bytes([0xCD] * 4)
    assert mem.init_shadow.check(region.base, 4, "BRANCH") is not None
    mem.checked_write(region.base, bytes([0xCD, 0x00, 0xCD, 0xCD]))
    assert mem.init_shadow.check(region.base, 4, "BRANCH") is None


def test_nearest_region_names_closest_neighbor():
    mem = make()
    a = mem.alloc_region(16, "a")
    b = mem.alloc_region(16, "b")
    assert mem.nearest_region(a.base).label == "a"
    assert mem.nearest_region(a.span_end - 1).label == "a"
    assert mem.nearest_region(b.span_start).label == "b"
    assert mem.nearest_region(mem.size_bytes - 1).label == "b"
    assert mem.nearest_region(0).label == "a"


def _offsets(mem, rng):
    """Offsets below, inside and beyond a partition's regions: every span
    edge and its neighbours, and random ones across the whole space."""
    edges = {0, mem.size_bytes - 1, mem.layout.cursor}
    for r in mem.layout.in_order:
        edges |= {r.span_start, r.base, r.payload_end, r.span_end - 1}
    near = {e + d for e in edges for d in (-1, 0, 1)}
    return sorted(near | {rng.randrange(-64, mem.size_bytes + 64) for _ in range(40)})


def test_nearest_region_agrees_with_the_scan_on_random_layouts():
    rng = random.Random(653)
    for _ in range(60):
        granularity = rng.choice(VALID_GRANULARITIES)
        mem = make(4096, granularity=granularity, redzone=granularity * rng.randint(1, 4))
        for phase in range(3):  # allocate, then reset and allocate again
            if phase:
                mem.reset_partition()
            for i in range(rng.randint(0, 12)):
                try:
                    mem.alloc_region(rng.randint(1, 200), f"r{i}")
                except ConfigError:  # the partition is full
                    break
            regions = list(mem.layout.regions.values())
            for offset in _offsets(mem, rng):
                assert mem.nearest_region(offset) == ref_nearest_region(regions, offset)


def _lines_traced(call):
    """How many lines ``call()`` runs, in every Python function it calls."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return trace

    outer = sys.gettrace()
    sys.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(outer)
    return count


def test_nearest_region_costs_no_line_per_region():
    """16 times the regions cost at most 2.2 times the lines: a lookup
    searches the regions, it does not visit each one."""

    def lines(n):
        mem = make(1 << 20, granularity=8, redzone=8)
        for i in range(n):
            mem.alloc_region(1, f"r{i}")
        offsets = [0, mem.layout.cursor + 5] + [r.base + 8 for r in mem.layout.in_order[::n // 50]]
        return _lines_traced(lambda: [mem.nearest_region(offset) for offset in offsets])

    assert lines(16_000) <= 2.2 * lines(1_000)


def test_region_lookup_errors():
    mem = make()
    with pytest.raises(ConfigError):
        mem.region("missing")
    assert mem.nearest_region(10) is None


def test_mebibyte_partition_builds_in_bounded_memory():
    # validity shadow 1/8 MiB plus the shadow's fill temporaries: about
    # 0.4 MiB, since the byte space is a mapping that tracemalloc does not
    # see (the bound would admit a 1 MiB bytearray too) and the
    # initialization shadow keeps nothing per byte; a reset refills the
    # validity shadow in place
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


# -- byte space: a bytearray below LAZY_ZERO_MIN, a private mapping from there up

#: a small partition keeps a bytearray, a mebibyte one is mapped
SIZES = pytest.mark.parametrize("size", [4 << 10, 1 << 20], ids=["4KiB", "1MiB"])


def whole(size):
    """The payload length of one region that fills a partition of ``size``."""
    return size - NULL_GUARD - 2 * DEFAULT_REDZONE


def simulate(size, workload, partitions=1, ports=()):
    """Runs ``workload`` on partitions 1.. of ``size`` bytes, each with one
    region ``buf`` that fills it; returns the simulator and its report."""
    data = {
        "name": "mapped",
        "partitions": [
            {"id": pid, "memory_size": size, "regions": [{"label": "buf", "size": whole(size)}]}
            for pid in range(1, partitions + 1)
        ],
        "ports": list(ports),
        "workload": workload,
    }
    sim = Simulator(load_scenario(data))
    return sim, sim.run()


@pytest.mark.parametrize(
    "size", [4 << 10, LAZY_ZERO_MIN - 8, LAZY_ZERO_MIN, 1 << 20]
)
def test_byte_space_is_mapped_from_the_lazy_zero_size_up(size):
    mem = make(size)
    assert type(mem.data) is (mmap.mmap if size >= LAZY_ZERO_MIN else bytearray)
    assert len(mem.data) == size


@SIZES
def test_bytes_never_written_read_as_zero(size):
    mem = make(size)
    region = mem.alloc_region(whole(size), "all")
    assert mem.checked_read(region.base, region.payload_len) == bytes(whole(size))
    assert mem.data[:] == bytes(size)


@SIZES
def test_write_at_the_last_addressable_byte(size):
    mem = make(size)
    region = mem.alloc_region(whole(size), "all")
    last = region.payload_end - 1
    assert last == size - DEFAULT_REDZONE - 1
    mem.checked_write(last, b"\xab")
    assert mem.checked_read(last, 1) == b"\xab"
    assert mem.data[last - 1 :] == b"\x00\xab" + bytes(DEFAULT_REDZONE)
    assert mem.init_shadow.is_initialized(last)
    with pytest.raises(ViolationError) as err:
        mem.checked_write(last + 1, b"\xcd")
    assert err.value.violation.kind == "RIGHT_REDZONE"
    assert mem.data[last + 1] == 0


@SIZES
@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_overlapping_copy_moves_bytes_as_memmove_does(size, direction):
    # eight chunks of distinct fills, then one COPY over half the region
    # whose source and destination overlap by three quarters of it
    n = whole(size) // 2
    chunk = whole(size) // 8
    base = NULL_GUARD + DEFAULT_REDZONE
    src, dst = (0, n // 4) if direction == "forward" else (n // 4, 0)
    workload = [
        {"op": "WRITE", "partition": 1, "region": "buf", "offset": i * chunk,
         "fill": 0x11 * (i + 1), "len": chunk}
        for i in range(8)
    ]
    workload.append({"op": "COPY", "partition": 1, "src_region": "buf", "src_offset": src,
                     "dst_region": "buf", "dst_offset": dst, "len": n})
    sim, report = simulate(size, workload)
    assert report.violations == ()
    oracle = bytearray(size)
    for i in range(8):
        start = base + i * chunk
        oracle[start : start + chunk] = bytes([0x11 * (i + 1)]) * chunk
    moved = bytes(oracle[base + src : base + src + n])
    oracle[base + dst : base + dst + n] = moved
    assert sim.partitions[1].data[:] == bytes(oracle)


@SIZES
def test_reset_keeps_the_bytes_but_reports_partition_reset(size):
    at = NULL_GUARD + DEFAULT_REDZONE + whole(size) - 64
    workload = [
        {"op": "WRITE", "partition": 1, "offset": at, "fill": 0x5A, "len": 64},
        {"op": "RESET_PARTITION", "partition": 1},
        {"op": "READ", "partition": 1, "offset": at, "len": 64},
    ]
    sim, report = simulate(size, workload)
    assert [(v.kind, v.offset, v.step) for v in report.violations] == [
        ("PARTITION_RESET", at, 2)
    ]
    assert sim.partitions[1].data[at : at + 64] == b"\x5a" * 64


@SIZES
def test_send_from_and_receive_into_a_partition_deliver_the_payload(size):
    offset = whole(size) - 8  # the last eight bytes of each region
    port = {"name": "q", "kind": "queueing", "source": 1, "destination": 2,
            "max_message_size": 8, "capacity": 1}
    workload = [
        {"op": "WRITE", "partition": 1, "region": "buf", "offset": offset,
         "data": "0102030405060708"},
        {"op": "SEND", "partition": 1, "port": "q", "region": "buf", "offset": offset, "len": 8},
        {"op": "RECEIVE", "partition": 2, "port": "q", "region": "buf", "offset": offset,
         "expect": "0102030405060708"},
    ]
    sim, report = simulate(size, workload, partitions=2, ports=[port])
    assert report.violations == () and report.verdict == "MATCH"
    at = NULL_GUARD + DEFAULT_REDZONE + offset
    mem = sim.partitions[2]
    assert mem.data[at : at + 8] == bytes(range(1, 9))
    assert mem.init_shadow.check(at, 8, "BRANCH") is None


# -- a build starts from the regions the load placed ---------------------------------


def _built_state(mem):
    """What a build sets in a partition: the shadow codes, the flips, the
    label of each origin run, and the layout."""
    init, layout = mem.init_shadow, mem.layout
    table = init._origin_table
    return (
        bytes(mem.shadow.shadow),
        list(init._edges),
        list(init._starts),
        [table[oid] for oid in init._ids],
        dict(layout.regions),
        list(layout.in_order),
        layout.cursor,
        layout.started,
    )


def _replayed(pconf):
    """A fresh partition fed its declared regions through ``alloc_region``."""
    mem = PartitionMemory(pconf["id"], pconf["memory_size"], pconf["granularity"], pconf["redzone"])
    for region in pconf["regions"]:
        mem.alloc_region(region.payload_len, region.label)
    if pconf["auto_start"]:
        mem.start()
    return mem


def _assert_built_as_replayed(scenario):
    built = Simulator(scenario).partitions
    for pconf in scenario.partitions:
        assert _built_state(built[pconf["id"]]) == _built_state(_replayed(pconf)), scenario.name


def _mutants_that_load():
    for _, doc in mutation_differential.mutants():
        try:
            yield load_scenario(doc)
        except ConfigError:
            pass


def test_builtins_and_their_mutants_build_as_their_regions_replayed():
    builtins = [load_builtin(name) for name in builtin_names()]
    mutants = list(_mutants_that_load())
    assert len(builtins) == 12 and len(mutants) > 1000
    for scenario in builtins + mutants:
        _assert_built_as_replayed(scenario)


@pytest.mark.parametrize("seed", [1, 4242])
def test_bench_workloads_build_as_their_regions_replayed(monkeypatch, seed):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    for name, generate in sorted(workloads.GENERATORS.items()):
        for text in generate(seed):
            _assert_built_as_replayed(load_scenario_text(text))


def test_a_run_changes_neither_the_scenario_nor_another_build_of_it():
    for name in builtin_names():
        scenario = load_builtin(name)
        partitions = repr(scenario.partitions)
        first, second = Simulator(scenario), Simulator(scenario)
        states = {pid: _built_state(mem) for pid, mem in second.partitions.items()}
        report = first.run()
        assert {pid: _built_state(mem) for pid, mem in second.partitions.items()} == states
        assert repr(scenario.partitions) == partitions
        assert second.run() == report
