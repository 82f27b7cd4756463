"""Randomized-op drivers that hold the production shadows against the
naive per-byte oracles.

Each driver applies one stream of operations to both implementations,
then compares verdicts, error classes and (periodically or always) the
complete per-byte state.  Divergences raise AssertionError with enough
context to replay the failure.
"""

from collections import Counter

from partsan.asan_shadow import POISON_FLOOR, PoisonKind, ShadowMap
from partsan.errors import ConfigError, EncodingError
from partsan.msan_shadow import InitShadow, copy_propagate
from partsan.violations import AccessKind, UseSite

from oracles import (
    ByteValidityMap,
    InitOracle,
    OracleBoundsError,
    OracleEncodingError,
)

POISON_KINDS = tuple(PoisonKind)


def _assert_same_validity(shadow: ShadowMap, oracle: ByteValidityMap, label: str):
    for offset in range(oracle.size):
        got = shadow.is_addressable(offset)
        want = oracle.valid[offset]
        assert got == want, (
            f"{label}: byte {offset} addressable={got}, oracle says {want} "
            f"(g={shadow.granularity})"
        )


def _random_span(rng, size, fuzz_bounds=False):
    if fuzz_bounds and rng.random() < 0.08:
        start = rng.randint(-12, size + 12)
    else:
        start = rng.randrange(0, size)
    length = rng.choice((1, 1, 2, 3, rng.randint(1, 16), rng.randint(1, 64)))
    return start, length


def run_asan_equivalence(
    rng, size, granularity, n_ops, full_compare_every, label=""
):
    """Random poison/unpoison/check stream; returns outcome tally."""
    shadow = ShadowMap(7, size, granularity)
    oracle = ByteValidityMap(size, granularity)
    tally = Counter()
    for op_index in range(n_ops):
        ctx = f"{label} g={granularity} op#{op_index}"
        roll = rng.random()
        if roll < 0.30:
            start, length = _random_span(rng, size)
            # mostly representable requests, occasionally not
            if rng.random() < 0.6:
                start -= start % granularity
            if rng.random() < 0.5:
                length += -length % granularity
            if rng.random() >= 0.05:
                length = min(length, size - start)
            length = max(length, 1)
            kind = rng.choice(POISON_KINDS)
            impl_err = oracle_err = None
            try:
                shadow.poison(start, length, kind)
            except (EncodingError, ConfigError) as exc:
                impl_err = type(exc).__name__
            try:
                oracle.poison(start, length, kind.name)
            except OracleEncodingError:
                oracle_err = "EncodingError"
            except OracleBoundsError:
                oracle_err = "ConfigError"
            assert impl_err == oracle_err, (
                f"{ctx}: poison({start}, {length}) impl={impl_err} oracle={oracle_err}"
            )
            tally["poison_err" if impl_err else "poison"] += 1
        elif roll < 0.60:
            start, length = _random_span(rng, size)
            # bias toward aligned starts so unpoison usually succeeds
            if rng.random() < 0.8:
                start -= start % granularity
            length = min(length, size - start)
            impl_err = oracle_err = None
            try:
                shadow.unpoison(start, length)
            except (EncodingError, ConfigError) as exc:
                impl_err = type(exc).__name__
            try:
                oracle.unpoison(start, length)
            except OracleEncodingError:
                oracle_err = "EncodingError"
            except OracleBoundsError:
                oracle_err = "ConfigError"
            assert impl_err == oracle_err, (
                f"{ctx}: unpoison({start}, {length}) impl={impl_err} oracle={oracle_err}"
            )
            tally["unpoison_err" if impl_err else "unpoison"] += 1
        else:
            start, length = _random_span(rng, size, fuzz_bounds=True)
            verdict = shadow.check_access(start, length, AccessKind.READ)
            expected = oracle.check(start, length)
            if expected is None:
                assert verdict is None, f"{ctx}: check({start}, {length}) flagged {verdict}"
                tally["check_pass"] += 1
                continue
            cls, bad = expected
            assert verdict is not None, (
                f"{ctx}: check({start}, {length}) passed, oracle wants {cls}@{bad}"
            )
            assert verdict.offset == bad, (
                f"{ctx}: first bad byte {verdict.offset}, oracle {bad}"
            )
            assert verdict.size == length
            assert verdict.access == AccessKind.READ.value
            if cls == "WILD":
                assert verdict.kind == "WILD_ADDRESS", f"{ctx}: {verdict.kind}"
            else:
                assert verdict.kind != "WILD_ADDRESS", f"{ctx}: wild for in-bounds"
                # the encoding stores the kind only for fully poisoned granules
                if shadow.shadow[bad // granularity] >= POISON_FLOOR:
                    assert verdict.kind == oracle.kind[bad], (
                        f"{ctx}: kind {verdict.kind}, oracle {oracle.kind[bad]}"
                    )
            tally["check_fail"] += 1
        if (op_index + 1) % full_compare_every == 0:
            _assert_same_validity(shadow, oracle, ctx)
    _assert_same_validity(shadow, oracle, f"{label} g={granularity} final")
    return tally


ORIGIN_POOL = ("alloc:a", "alloc:b", "write:w1", "write:w2", "annotation", "padding")

USE_SITES = (UseSite.SYSCALL_PRE, UseSite.BRANCH, UseSite.ARITH, UseSite.PORT_SEND)


def _assert_same_init(shadow: InitShadow, oracle: InitOracle, label: str):
    assert bytes(shadow.bits) == bytes(oracle.bits), f"{label}: init bits differ"
    got = [shadow.origin_at(i) for i in range(oracle.size)]
    assert got == oracle.origins, f"{label}: origin labels differ"


def run_msan_equivalence(rng, size, n_ops, full_compare_every, label=""):
    """Random uninit/mark/copy/check stream with after-op state compares."""
    shadow = InitShadow(3, size)
    oracle = InitOracle(size)
    tally = Counter()
    for op_index in range(n_ops):
        ctx = f"{label} op#{op_index}"
        roll = rng.random()
        start = rng.randrange(0, size)
        length = min(rng.choice((1, 2, 4, rng.randint(1, 32))), size - start)
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
            copy_propagate(shadow, start, dst, length)
            oracle.copy(oracle, start, dst, length)
            tally["copy"] += 1
        else:
            context = rng.choice(USE_SITES)
            verdict = shadow.check(start, length, context)
            expected = oracle.check(start, length)
            if expected is None:
                assert verdict is None, f"{ctx}: check({start}, {length}) flagged"
                tally["check_pass"] += 1
            else:
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
                assert verdict.context == context.value
                assert verdict.size == length
                tally["check_fail"] += 1
        if (op_index + 1) % full_compare_every == 0:
            _assert_same_init(shadow, oracle, ctx)
    _assert_same_init(shadow, oracle, f"{label} final")
    return tally
