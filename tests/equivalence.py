"""Randomized-op drivers that hold the production shadows against the
naive per-byte oracles.

Each driver applies one stream of operations to both implementations,
then compares verdicts, error classes and (periodically or always) the
complete per-byte state.  Divergences raise AssertionError with enough
context to replay the failure.
"""

from collections import Counter

from partsan.asan_shadow import (
    LEFT_REDZONE,
    MANUAL_BLACKLIST,
    PARTITION_RESET,
    POISON_FLOOR,
    POISON_KINDS,
    RIGHT_REDZONE,
    ShadowMap,
)
from partsan.errors import ConfigError, EncodingError
from partsan.guest_memory import PartitionMemory
from partsan.msan_shadow import InitShadow, copy_propagate

from oracles import (
    ByteValidityMap,
    InitOracle,
    OracleBoundsError,
    OracleEncodingError,
)

POISON_CODES = tuple(POISON_KINDS)


def _assert_same_validity(shadow: ShadowMap, oracle: ByteValidityMap, label: str):
    for offset in range(oracle.size):
        got = shadow.is_addressable(offset)
        want = oracle.valid[offset]
        assert got == want, (
            f"{label}: byte {offset} addressable={got}, oracle says {want} "
            f"(g={shadow.granularity})"
        )


#: Share of random spans drawn up to the end of memory rather than short,
#: so that long granule interiors are held against the oracle too.
WIDE_SPAN_SHARE = 0.03


def _random_span(rng, size, fuzz_bounds=False):
    if fuzz_bounds and rng.random() < 0.08:
        start = rng.randint(-12, size + 12)
    else:
        start = rng.randrange(0, size)
    if rng.random() < WIDE_SPAN_SHARE:
        return start, rng.randint(1, max(1, size - start))
    length = rng.choice((1, 1, 2, 3, rng.randint(1, 16), rng.randint(1, 64)))
    return start, length


def _same_error(ctx, call, impl, oracle):
    """Runs ``impl`` and ``oracle``; both must succeed or both fail with the
    same class.  Returns the class name of the failure, or None."""
    impl_err = oracle_err = None
    try:
        impl()
    except (EncodingError, ConfigError) as exc:
        impl_err = type(exc).__name__
    try:
        oracle()
    except OracleEncodingError:
        oracle_err = "EncodingError"
    except OracleBoundsError:
        oracle_err = "ConfigError"
    assert impl_err == oracle_err, f"{ctx}: {call} impl={impl_err} oracle={oracle_err}"
    return impl_err


def asan_poison(shadow, oracle, start, length, kind, ctx):
    err = _same_error(
        ctx,
        f"poison({start}, {length})",
        lambda: shadow.poison(start, length, kind),
        lambda: oracle.poison(start, length, POISON_KINDS[kind]),
    )
    return "poison_err" if err else "poison"


def asan_unpoison(shadow, oracle, start, length, ctx):
    err = _same_error(
        ctx,
        f"unpoison({start}, {length})",
        lambda: shadow.unpoison(start, length),
        lambda: oracle.unpoison(start, length),
    )
    return "unpoison_err" if err else "unpoison"


def asan_allocation(shadow, oracle, start, payload_len, redzone, ctx):
    err = _same_error(
        ctx,
        f"write_allocation({start}, {payload_len}, {redzone})",
        lambda: shadow.write_allocation(start, payload_len, redzone),
        lambda: oracle.allocate(start, payload_len, redzone),
    )
    return "alloc_err" if err else "alloc"


def asan_check(shadow, oracle, start, length, ctx):
    granularity = shadow.granularity
    verdict = shadow.check_access(start, length, "R")
    expected = oracle.check(start, length)
    if expected is None:
        assert verdict is None, f"{ctx}: check({start}, {length}) flagged {verdict}"
        return "check_pass"
    cls, bad = expected
    assert verdict is not None, (
        f"{ctx}: check({start}, {length}) passed, oracle wants {cls}@{bad}"
    )
    assert verdict.offset == bad, (
        f"{ctx}: first bad byte {verdict.offset}, oracle {bad}"
    )
    assert verdict.size == length
    assert verdict.access == "R"
    if cls == "WILD":
        assert verdict.kind == "WILD_ADDRESS", f"{ctx}: {verdict.kind}"
    else:
        assert verdict.kind != "WILD_ADDRESS", f"{ctx}: wild for in-bounds"
        # the encoding stores the kind only for fully poisoned granules
        if shadow.shadow[bad // granularity] >= POISON_FLOOR:
            assert verdict.kind == oracle.kind[bad], (
                f"{ctx}: kind {verdict.kind}, oracle {oracle.kind[bad]}"
            )
    return "check_fail"


def run_asan_equivalence(
    rng, size, granularity, n_ops, full_compare_every, label=""
):
    """Random allocation/poison/unpoison/check stream; returns outcome
    tally."""
    shadow = ShadowMap(7, size, granularity)
    oracle = ByteValidityMap(size, granularity)
    tally = Counter()
    for op_index in range(n_ops):
        ctx = f"{label} g={granularity} op#{op_index}"
        roll = rng.random()
        if roll < 0.08:
            # over whatever the span holds; mostly whole granules that fit
            start = rng.randrange(0, size)
            if rng.random() < 0.9:
                start -= start % granularity
            redzone = granularity * rng.choice((1, 1, 2))
            if rng.random() < 0.05:
                redzone = rng.randint(0, 2 * granularity)
            payload_len = rng.choice((rng.randint(1, 2 * granularity + 1), rng.randint(0, 64)))
            tally[asan_allocation(shadow, oracle, start, payload_len, redzone, ctx)] += 1
        elif roll < 0.34:
            start, length = _random_span(rng, size)
            # mostly representable requests, occasionally not
            if rng.random() < 0.6:
                start -= start % granularity
            if rng.random() < 0.5:
                length += -length % granularity
            if rng.random() >= 0.05:
                length = min(length, size - start)
            length = max(length, 1)
            kind = rng.choice(POISON_CODES)
            tally[asan_poison(shadow, oracle, start, length, kind, ctx)] += 1
        elif roll < 0.62:
            start, length = _random_span(rng, size)
            # bias toward aligned starts so unpoison usually succeeds
            if rng.random() < 0.8:
                start -= start % granularity
            length = min(length, size - start)
            tally[asan_unpoison(shadow, oracle, start, length, ctx)] += 1
        else:
            start, length = _random_span(rng, size, fuzz_bounds=True)
            tally[asan_check(shadow, oracle, start, length, ctx)] += 1
        if (op_index + 1) % full_compare_every == 0:
            _assert_same_validity(shadow, oracle, ctx)
    _assert_same_validity(shadow, oracle, f"{label} g={granularity} final")
    return tally


def asan_edge_ops(size, g):
    """Fixed ops at the edges of the slice operations: whole-partition
    spans, partly covered first and last granules, one-granule spans,
    two-granule spans with no interior, and failing checks whose first bad
    granule is interior.  ``size`` must be at least 16 granules."""
    mid = (size // g // 2) * g
    left, right = LEFT_REDZONE, RIGHT_REDZONE
    reset, manual = PARTITION_RESET, MANUAL_BLACKLIST
    return [
        # whole partition
        ("poison", 0, size, reset),
        ("check", 0, size),
        ("unpoison", 0, size),
        ("check", 0, size),
        # partly covered first granule
        ("poison", g + 1, 3 * g, left),
        ("check", g, 4 * g),
        ("check", 0, size),
        ("poison", g + 2, g, right),
        ("unpoison", 0, size),
        # partly covered last granule: a hole, then a valid shrink
        ("poison", 2 * g, g + 1, right),
        ("unpoison", 0, 4 * g + 2),
        ("poison", 3 * g, g + 2, right),
        ("check", 0, 5 * g),
        ("unpoison", 0, size - 1),
        ("check", 0, size),
        ("unpoison", 0, size),
        # one granule
        ("poison", 2 * g, g, manual),
        ("check", 2 * g, g),
        ("check", 2 * g - 1, g + 2),
        ("check", 2 * g, 1),
        ("unpoison", 2 * g, g),
        # two granules, no interior
        ("check", 3 * g - 1, 2),
        ("poison", 3 * g - 1, 2, left),
        ("poison", 2 * g, 2 * g, left),
        ("check", 2 * g - 1, 2),
        ("check", 3 * g - 1, 2),
        ("unpoison", 0, size),
        # first bad granule interior: wholly poisoned, then partly addressable
        ("poison", mid, g, right),
        ("check", 0, size),
        ("check", 1, size - 2),
        ("unpoison", mid, g - 1 if g > 1 else g),
        ("check", 1, size - 2),
        ("poison", size - g, g, left),
        ("check", 1, size - 1),
        ("unpoison", 0, mid + 1),
        ("check", 0, size),
        ("poison", 0, size, reset),
        ("check", 0, size),
    ]


def run_asan_edge_cases(size, granularity, label=""):
    """Every op of ``asan_edge_ops`` on a fresh map and its oracle, with a
    full compare after each; returns the outcome tally."""
    shadow = ShadowMap(7, size, granularity)
    oracle = ByteValidityMap(size, granularity)
    tally = Counter()
    for op_index, (op, start, length, *kind) in enumerate(asan_edge_ops(size, granularity)):
        ctx = f"{label} g={granularity} edge#{op_index}"
        if op == "poison":
            tally[asan_poison(shadow, oracle, start, length, kind[0], ctx)] += 1
        elif op == "unpoison":
            tally[asan_unpoison(shadow, oracle, start, length, ctx)] += 1
        else:
            tally[asan_check(shadow, oracle, start, length, ctx)] += 1
        _assert_same_validity(shadow, oracle, ctx)
    return tally


#: Memory of each partition ``run_allocation_layouts`` builds; holds every
#: layout it draws at granularity 16 with two-granule redzones.
LAYOUT_MEMORY = 4096


def run_allocation_layouts(granularity, label=""):
    """Payloads of 1 to 2g+1 bytes, with redzones of one and of two granules,
    bump-allocated through ``PartitionMemory.alloc_region`` on a fresh
    partition and again after a partition reset.  After each allocation the
    shadow must equal, byte for byte, a ShadowMap given the three span calls
    ``poison``, ``unpoison``, ``poison`` over redzone, payload and redzone;
    after each round, every byte's validity must be the oracle's.  Returns
    the number of allocations."""
    g = granularity
    count = 0
    for redzone in (g, 2 * g):
        mem = PartitionMemory(7, LAYOUT_MEMORY, g, redzone)
        spans = ShadowMap(7, LAYOUT_MEMORY, g)
        spans.poison(0, LAYOUT_MEMORY, MANUAL_BLACKLIST)
        oracle = ByteValidityMap(LAYOUT_MEMORY, g)
        oracle.poison(0, LAYOUT_MEMORY, "MANUAL_BLACKLIST")
        for round_label in ("fresh", "after reset"):
            for payload_len in range(1, 2 * g + 2):
                ctx = f"{label} g={g} redzone={redzone} {round_label} payload={payload_len}"
                region = mem.alloc_region(payload_len, f"r{payload_len}")
                right = region.span_end - redzone
                spans.poison(region.span_start, redzone, LEFT_REDZONE)
                spans.unpoison(region.base, payload_len)
                spans.poison(right, redzone, RIGHT_REDZONE)
                oracle.allocate(region.span_start, payload_len, redzone)
                assert mem.shadow.shadow == spans.shadow, ctx
                count += 1
            _assert_same_validity(mem.shadow, oracle, f"{label} g={g} {round_label}")
            mem.reset_partition()
            spans.poison(0, LAYOUT_MEMORY, PARTITION_RESET)
            oracle.poison(0, LAYOUT_MEMORY, "PARTITION_RESET")
    return count


ORIGIN_POOL = ("alloc:a", "alloc:b", "write:w1", "write:w2", "annotation", "padding")

USE_SITES = ("SYSCALL_PRE", "BRANCH", "ARITH", "PORT_SEND")


def _assert_same_init(shadow: InitShadow, oracle: InitOracle, ops: int, label: str):
    """Same bits and origins as the oracle, from flips and origin runs that
    are well formed and number at most two per operation so far (the runs
    one more)."""
    bits, _ = shadow.snapshot(0, shadow.size)
    assert bytes(bits) == bytes(oracle.bits), f"{label}: init bits differ"
    got = [shadow.origin_at(i) for i in range(oracle.size)]
    assert got == oracle.origins, f"{label}: origin labels differ"
    edges = shadow._edges
    assert all(a < b for a, b in zip(edges, edges[1:])), f"{label}: flips {edges}"
    assert not edges or 0 <= edges[0] and edges[-1] < shadow.size, f"{label}: flips {edges}"
    assert len(edges) <= 2 * ops, f"{label}: {len(edges)} flips after {ops} ops"
    starts, ids = shadow._starts, shadow._ids
    assert len(starts) == len(ids), f"{label}: {len(starts)} run starts, {len(ids)} ids"
    assert starts[0] == 0 and starts[-1] < shadow.size, f"{label}: runs {starts}"
    assert all(a < b for a, b in zip(starts, starts[1:])), f"{label}: runs {starts}"
    assert len(starts) <= 2 * ops + 1, f"{label}: {len(starts)} runs after {ops} ops"


def run_msan_equivalence(rng, size, n_ops, full_compare_every, label=""):
    """Random uninit/mark/copy/check stream with after-op state compares.

    A quarter of the copies go to or from a second shadow, whose origin
    table differs from the first's, or a third, which shares the first's
    table."""
    shared = ([None], {})
    shadow, sibling = InitShadow(3, size, shared), InitShadow(5, size, shared)
    other = InitShadow(4, size)
    oracle, other_oracle, sibling_oracle = (InitOracle(size) for _ in range(3))
    oracles = {shadow: oracle, other: other_oracle, sibling: sibling_oracle}
    tally = Counter()
    for op_index in range(n_ops):
        ctx = f"{label} op#{op_index}"
        roll = rng.random()
        start = rng.randrange(0, size)
        length = min(rng.choice((1, 2, 4, rng.randint(1, 32))), size - start)
        if rng.random() < WIDE_SPAN_SHARE:
            length = rng.randint(1, size - start)
        if roll < 0.15:
            origin = rng.choice(ORIGIN_POOL)
            shadow.set_uninitialized(start, length, origin=origin)
            oracle.set_uninit(start, length, origin=origin)
            tally["uninit"] += 1
        elif roll < 0.45:
            origin = rng.choice(ORIGIN_POOL)
            force = rng.random() < 0.5
            shadow.mark_initialized(start, length, origin, force=force)
            oracle.mark(start, length, origin, force=force)
            tally["mark"] += 1
        elif roll < 0.65:
            dst = rng.randrange(0, size - length + 1)
            src = dst_shadow = shadow
            if rng.random() < 0.25:
                src, dst_shadow = rng.choice(
                    ((shadow, other), (other, shadow), (shadow, sibling), (sibling, shadow))
                )
                tally["copy_across"] += 1
                tally["copy_shared"] += other not in (src, dst_shadow)
            copy_propagate(src, start, dst, length, dst_shadow)
            oracles[dst_shadow].copy(oracles[src], start, dst, length)
            tally["copy"] += 1
        else:
            context = rng.choice(USE_SITES)
            tally[msan_check(shadow, oracle, start, length, context, ctx)] += 1
        if (op_index + 1) % full_compare_every == 0:
            _assert_same_init(shadow, oracle, op_index + 1, ctx)
            _assert_same_init(other, other_oracle, op_index + 1, f"{ctx} other")
            _assert_same_init(sibling, sibling_oracle, op_index + 1, f"{ctx} sibling")
    _assert_same_init(shadow, oracle, n_ops, f"{label} final")
    _assert_same_init(other, other_oracle, n_ops, f"{label} final other")
    _assert_same_init(sibling, sibling_oracle, n_ops, f"{label} final sibling")
    return tally


def msan_check(shadow, oracle, start, length, context, ctx):
    verdict = shadow.check(start, length, context)
    expected = oracle.check(start, length)
    if expected is None:
        assert verdict is None, f"{ctx}: check({start}, {length}) flagged"
        return "check_pass"
    bad, origin = expected
    assert verdict is not None, (
        f"{ctx}: check({start}, {length}) passed, oracle wants byte {bad}"
    )
    assert verdict.offset == bad, (
        f"{ctx}: first uninit {verdict.offset}, oracle {bad}"
    )
    assert verdict.origin == origin, (
        f"{ctx}: origin {verdict.origin!r}, oracle {origin!r}"
    )
    assert verdict.context == context
    assert verdict.size == length
    return "check_fail"


def run_msan_edge_cases(size, label=""):
    """Whole-shadow spans, overlapping copies in both directions, copies
    between two shadows whose origin tables differ and copies between two
    that share one (tallied as ``copy_shared``), each followed by a full
    compare of every shadow; returns the outcome tally.  ``size`` must be at
    least 16."""
    shared = ([None], {})
    main, sibling = InitShadow(3, size, shared), InitShadow(5, size, shared)
    other = InitShadow(4, size)
    oracles = {main: InitOracle(size), other: InitOracle(size), sibling: InitOracle(size)}
    half, quarter = size // 2, size // 4
    ops = [
        ("uninit", main, 0, size, "alloc:a"),
        ("check", main, 0, size),
        ("mark", main, quarter, half, "write:w1", True),
        ("mark", main, 0, size, "annotation", False),
        ("check", main, 0, size),
        # the second shadow interns its labels in another order
        ("mark", other, 0, size, "padding", True),
        ("uninit", other, 1, half, "alloc:b"),
        ("mark", other, half, quarter, "write:w2", True),
        ("copy", main, 0, other, 1, size - 1),
        ("copy", other, 0, main, 0, size),
        ("check", main, 1, size - 1),
        ("uninit", main, half, 1, "alloc:a"),
        ("copy", main, 0, main, 1, size - 1),
        ("copy", main, 1, main, 0, size - 1),
        ("check", main, 0, size),
        ("copy", main, 0, other, 0, size),
        ("mark", main, 0, size, "write:w1", True),
        ("check", main, 0, size),
        ("copy", other, half, main, 0, half),
        ("check", main, 0, size),
        ("uninit", main, 0, size, None),
        ("check", main, size - 1, 1),
        # the third shadow shares the first's table and interns new labels in it
        ("uninit", sibling, 0, size, "alloc:b"),
        ("mark", sibling, quarter, quarter, "annotation", True),
        ("copy", main, 1, sibling, 0, half),
        ("check", sibling, 0, size),
        ("mark", sibling, half, quarter, "write:w3", True),
        ("copy", sibling, 0, main, half, half),
        ("check", main, 0, size),
        ("copy", sibling, quarter, main, 0, size - quarter),
        ("check", main, 0, size),
    ]
    tally = Counter()
    for op_index, (op, target, *args) in enumerate(ops):
        ctx = f"{label} edge#{op_index}"
        oracle = oracles[target]
        if op == "uninit":
            start, length, origin = args
            target.set_uninitialized(start, length, origin=origin)
            oracle.set_uninit(start, length, origin=origin)
        elif op == "mark":
            start, length, origin, force = args
            target.mark_initialized(start, length, origin, force=force)
            oracle.mark(start, length, origin, force=force)
        elif op == "copy":
            src_start, dst_shadow, dst_start, length = args
            copy_propagate(target, src_start, dst_start, length, dst_shadow)
            oracles[dst_shadow].copy(oracle, src_start, dst_start, length)
            if {target, dst_shadow} == {main, sibling}:
                op = "copy_shared"
        else:
            start, length = args
            op = msan_check(target, oracle, start, length, "BRANCH", ctx)
        tally[op] += 1
        _assert_same_init(main, oracles[main], op_index + 1, ctx)
        _assert_same_init(other, oracles[other], op_index + 1, f"{ctx} other")
        _assert_same_init(sibling, oracles[sibling], op_index + 1, f"{ctx} sibling")
    return tally
