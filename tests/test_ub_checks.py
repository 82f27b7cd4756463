"""Checked primitive unit tests against the wide-integer reference."""

import random

from partsan.ub_checks import (
    INT_SPECS,
    check_align,
    check_bool,
    check_enum,
    check_nonnull,
    checked_arith,
    checked_div,
    checked_shift,
    checked_trunc,
)
from partsan.violations import Violation

from oracles import UB_BOUNDS, ref_arith, ref_div, ref_shift, ref_trunc

I32 = INT_SPECS["i32"]
I64 = INT_SPECS["i64"]
U8 = INT_SPECS["u8"]


def test_bounds_table_matches_intspec():
    for name, (lo, hi) in UB_BOUNDS.items():
        spec = INT_SPECS[name]
        assert spec.min == lo and spec.max == hi


def test_int_spec_validation():
    assert INT_SPECS["u16"].name == "u16"
    assert len(INT_SPECS) == 8


def test_add_examples():
    assert checked_arith("ADD", 1, 2, I32) == 3
    v = checked_arith("ADD", 2**31 - 1, 1, I32)
    assert isinstance(v, Violation) and v.kind == "ADD_OVERFLOW"
    # operands and type are reported in the detail
    assert v.detail == (
        "i32 ADD of 2147483647 and 1 gives 2147483648, outside [-2147483648, 2147483647]"
    )


def test_sub_overflow_at_signed_floor():
    v = checked_arith("SUB", -(2**31), 1, I32)
    assert v.kind == "SUB_OVERFLOW"


def test_mul_overflow_narrow_fits_wide():
    v = checked_arith("MUL", 65535, 65537, I32)
    assert isinstance(v, Violation) and v.kind == "MUL_OVERFLOW"
    assert checked_arith("MUL", 65535, 65537, I64) == 4294967295


def test_unsigned_wraps_unless_strict():
    assert checked_arith("ADD", 200, 100, U8) == 44
    v = checked_arith("ADD", 200, 100, U8, strict=True)
    assert v.kind == "ADD_OVERFLOW"


def test_div_examples():
    assert checked_div(7, 2, I32) == 3
    assert checked_div(-7, 2, I32) == -3  # truncation toward zero, not floor
    assert checked_div(7, -2, I32) == -3
    assert checked_div(-7, -2, I32) == 3
    assert checked_div(1, 0, I32).kind == "DIV_BY_ZERO"
    assert checked_div(-(2**31), -1, I32).kind == "DIV_OVERFLOW"
    assert checked_div(-(2**31), 1, I32) == -(2**31)


def test_shift_examples():
    assert checked_shift(1, 4, I32) == 16
    assert checked_shift(1, 32, I32).kind == "SHIFT_RANGE"  # s = width
    assert checked_shift(1, -1, I32).kind == "SHIFT_RANGE"
    assert checked_shift(1, 31, I32).kind == "SHIFT_RANGE"  # sign flip
    assert checked_shift(1, 31, INT_SPECS["u32"]) == 2**31
    assert checked_shift(3, 31, INT_SPECS["u32"]) == (3 << 31) % 2**32
    assert checked_shift(3, 31, INT_SPECS["u32"], strict=True).kind == "SHIFT_RANGE"


def test_trunc_examples():
    assert checked_trunc(300, I32, INT_SPECS["i16"]) == 300
    v = checked_trunc(300, I32, INT_SPECS["i8"])
    assert v.kind == "TRUNCATION"
    assert checked_trunc(-1, I32, INT_SPECS["u32"]).kind == "TRUNCATION"
    assert checked_trunc(127, I32, INT_SPECS["i8"]) == 127


def test_align_examples():
    assert check_align(8, 4) is None
    v = check_align(5, 4)
    assert v.kind == "MISALIGNED" and v.offset == 5
    assert v.detail == "offset 5 not aligned to 4"


def test_nonnull_bool_enum():
    assert check_nonnull(32, 1) is None
    v = check_nonnull(0, 1)
    assert v.kind == "NULL_DEREF" and v.detail == "null dereference in partition 1"
    assert check_bool(0) is None and check_bool(1) is None
    assert check_bool(2).kind == "BOOL_RANGE"
    assert check_enum(2, "mode", (0, 1, 2)) is None
    v = check_enum(5, "mode", (2, 0, 1, 2))
    assert v.kind == "ENUM_RANGE"
    # the allowed values print as a sorted set, however the step lists them
    assert v.detail == "value 5 not in enum 'mode' [0, 1, 2]"


def _boundary_values(spec):
    vals = [spec.min, spec.max, 0, 1, spec.max - 1, spec.min + 1]
    if spec.signed:
        vals += [-1, spec.min // 2, spec.max // 2]
    return vals


def _sample_operand(rng, spec):
    if rng.random() < 0.4:
        return rng.choice(_boundary_values(spec))
    return rng.randint(spec.min, spec.max)


def _agree(result, expected, context):
    if isinstance(result, Violation):
        assert expected[0] == "violation", f"{context}: flagged, oracle ok {expected}"
        assert result.kind == expected[1], f"{context}: {result.kind} vs {expected}"
    else:
        assert expected == ("ok", result), f"{context}: {result} vs {expected}"


def test_randomized_sweep_every_op_and_spec():
    rng = random.Random(505)
    specs = list(INT_SPECS.values())
    for spec in specs:
        for _ in range(2000):
            a = _sample_operand(rng, spec)
            b = _sample_operand(rng, spec)
            strict = rng.random() < 0.3
            op = rng.choice(("ADD", "SUB", "MUL"))
            _agree(
                checked_arith(op, a, b, spec, strict=strict),
                ref_arith(op, a, b, spec.name, strict=strict),
                f"{spec.name} {op}({a}, {b}, strict={strict})",
            )
            b_div = rng.choice((0, -1 if spec.signed else 1, b))
            _agree(
                checked_div(a, b_div, spec),
                ref_div(a, b_div, spec.name),
                f"{spec.name} DIV({a}, {b_div})",
            )
            s = rng.choice((rng.randint(-2, spec.width + 2), rng.randint(0, spec.width - 1)))
            _agree(
                checked_shift(a, s, spec, strict=strict),
                ref_shift(a, s, spec.name, strict=strict),
                f"{spec.name} SHIFT({a}, {s}, strict={strict})",
            )
            to_spec = rng.choice(specs)
            _agree(
                checked_trunc(a, spec, to_spec),
                ref_trunc(a, spec.name, to_spec.name),
                f"{spec.name}->{to_spec.name} TRUNC({a})",
            )
