"""Checked integer and value-domain primitives.

Each primitive evaluates in unbounded integers first, then asks whether the
exact result is representable in the target width.  Signed overflow is a
violation; unsigned overflow wraps modulo 2**width by default (flagged only
under ``strict``).  Division truncates toward zero.  Shifts use value
semantics: a left shift violates when the shift count leaves the width or
when the exact value a * 2**s does not fit the type.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError
from .violations import GuestAddr, Violation

# perfbench/tracing.py counts UB findings as isinstance(result,
# ub_checks.UbViolation); the name stays bound to the one record class.
UbViolation = Violation


class UbKind(Enum):
    ADD_OVERFLOW = "ADD_OVERFLOW"
    SUB_OVERFLOW = "SUB_OVERFLOW"
    MUL_OVERFLOW = "MUL_OVERFLOW"
    DIV_BY_ZERO = "DIV_BY_ZERO"
    DIV_OVERFLOW = "DIV_OVERFLOW"
    SHIFT_RANGE = "SHIFT_RANGE"
    MISALIGNED = "MISALIGNED"
    NULL_DEREF = "NULL_DEREF"
    BOOL_RANGE = "BOOL_RANGE"
    ENUM_RANGE = "ENUM_RANGE"
    TRUNCATION = "TRUNCATION"


class ArithOp(Enum):
    ADD = "ADD"
    SUB = "SUB"
    MUL = "MUL"


_OVERFLOW_KIND = {
    ArithOp.ADD: UbKind.ADD_OVERFLOW,
    ArithOp.SUB: UbKind.SUB_OVERFLOW,
    ArithOp.MUL: UbKind.MUL_OVERFLOW,
}


@dataclass(frozen=True)
class IntSpec:
    """A fixed-width two's-complement (or unsigned) integer type."""

    width: int
    signed: bool

    def __post_init__(self):
        if self.width not in (8, 16, 32, 64):
            raise ConfigError(f"unsupported integer width {self.width}")

    @property
    def min(self) -> int:
        return -(1 << (self.width - 1)) if self.signed else 0

    @property
    def max(self) -> int:
        return (1 << (self.width - 1)) - 1 if self.signed else (1 << self.width) - 1

    @property
    def name(self) -> str:
        return f"{'i' if self.signed else 'u'}{self.width}"

    def contains(self, value: int) -> bool:
        return self.min <= value <= self.max

    def wrap(self, value: int) -> int:
        return value & ((1 << self.width) - 1)


INT_SPECS = {
    spec.name: spec
    for spec in (
        IntSpec(w, s) for w in (8, 16, 32, 64) for s in (True, False)
    )
}


@dataclass(frozen=True)
class EnumSpec:
    """A named enum type with an explicit set of valid underlying values."""

    name: str
    allowed: frozenset[int]

    def __post_init__(self):
        if not self.allowed:
            raise ConfigError(f"enum '{self.name}' has no allowed values")


def int_spec(name: str) -> IntSpec:
    try:
        return INT_SPECS[name]
    except KeyError:
        raise ConfigError(
            f"unknown integer type '{name}', expected one of {sorted(INT_SPECS)}"
        ) from None


def _trap(kind: UbKind, detail: str, offset: int | None = None) -> Violation:
    """A finding of a checked primitive.  Only alignment and null checks
    see an address; the caller stamps the partition."""
    return Violation(kind=kind.value, offset=offset, detail=detail)


def _require_operand(value: int, spec: IntSpec, role: str) -> None:
    if not spec.contains(value):
        raise ConfigError(f"{role} operand {value} not representable in {spec.name}")


def checked_arith(op: ArithOp, a: int, b: int, spec: IntSpec, strict: bool = False):
    """ADD/SUB/MUL with overflow detection.  Returns the result value, or a
    Violation when the exact result leaves the type."""
    op = ArithOp(op)
    _require_operand(a, spec, "left")
    _require_operand(b, spec, "right")
    if op is ArithOp.ADD:
        exact = a + b
    elif op is ArithOp.SUB:
        exact = a - b
    else:
        exact = a * b
    if spec.contains(exact):
        return exact
    if not spec.signed and not strict:
        return spec.wrap(exact)
    return _trap(
        _OVERFLOW_KIND[op],
        f"{spec.name} {op.value} of {a} and {b} gives {exact}, outside "
        f"[{spec.min}, {spec.max}]",
    )


def checked_div(a: int, b: int, spec: IntSpec):
    """Truncating division with zero-divisor and MIN/-1 detection."""
    _require_operand(a, spec, "left")
    _require_operand(b, spec, "right")
    if b == 0:
        return _trap(UbKind.DIV_BY_ZERO, f"{spec.name} division of {a} by zero")
    if spec.signed and a == spec.min and b == -1:
        return _trap(UbKind.DIV_OVERFLOW, f"{spec.name} division {a} / -1 overflows to {-a}")
    quotient = abs(a) // abs(b)
    return quotient if (a < 0) == (b < 0) else -quotient


def checked_shift(a: int, s: int, spec: IntSpec, strict: bool = False):
    """Left shift by ``s``.  The count must lie in [0, width); the shifted
    value must fit the type (unsigned wraps unless strict)."""
    _require_operand(a, spec, "left")
    if s < 0 or s >= spec.width:
        return _trap(
            UbKind.SHIFT_RANGE, f"shift count {s} outside [0, {spec.width}) for {spec.name}"
        )
    exact = a * (1 << s)
    if spec.contains(exact):
        return exact
    if not spec.signed and not strict:
        return spec.wrap(exact)
    return _trap(
        UbKind.SHIFT_RANGE,
        f"{spec.name} shift {a} << {s} gives {exact}, outside [{spec.min}, {spec.max}]",
    )


def checked_trunc(value: int, from_spec: IntSpec, to_spec: IntSpec):
    """Conversion between integer types: the value must survive unchanged."""
    _require_operand(value, from_spec, "source")
    if to_spec.contains(value):
        return value
    return _trap(
        UbKind.TRUNCATION,
        f"{from_spec.name} value {value} does not fit {to_spec.name} "
        f"[{to_spec.min}, {to_spec.max}]",
    )


def check_align(addr: GuestAddr, align: int):
    """Natural-alignment check for an access at ``addr``."""
    if align < 1 or align & (align - 1):
        raise ConfigError(f"alignment must be a power of two, got {align}")
    if addr.offset % align == 0:
        return None
    return _trap(
        UbKind.MISALIGNED, f"offset {addr.offset} not aligned to {align}", offset=addr.offset
    )


def check_nonnull(addr: GuestAddr):
    """Guest null is offset 0 of any partition (the bottom of every space is
    a permanently blacklisted guard)."""
    if addr.offset != 0:
        return None
    return _trap(
        UbKind.NULL_DEREF, f"null dereference in partition {addr.partition_id}", offset=addr.offset
    )


def check_bool(value: int):
    """A C _Bool must hold exactly 0 or 1."""
    if value in (0, 1):
        return None
    return _trap(UbKind.BOOL_RANGE, f"boolean holds {value}, expected 0 or 1")


def check_enum(value: int, enum_spec: EnumSpec):
    if value in enum_spec.allowed:
        return None
    return _trap(
        UbKind.ENUM_RANGE,
        f"value {value} not in enum '{enum_spec.name}' {sorted(enum_spec.allowed)}",
    )

