"""Checked integer and value-domain primitives.

Each primitive evaluates in unbounded integers first, then asks whether the
exact result is representable in the target width.  Signed overflow is a
violation; unsigned overflow wraps modulo 2**width by default (flagged only
under ``strict``).  Division truncates toward zero.  Shifts use value
semantics: a left shift violates when the shift count leaves the width or
when the exact value a * 2**s does not fit the type.

Operands arrive as values of their type, as loaded: the scenario loader
checks each immediate and memory operand against the step's type, each type
name, ``align`` and each enum's allowed values, so the primitives check
only what the guest's values decide.
"""

from __future__ import annotations

from .violations import Violation

# perfbench/tracing.py counts UB findings as isinstance(result,
# ub_checks.UbViolation); the name stays bound to the one record class.
UbViolation = Violation


class IntSpec:
    """A fixed-width two's-complement (or unsigned) integer type."""

    __slots__ = ("width", "signed", "min", "max")

    def __init__(self, width: int, signed: bool):
        self.width = width
        self.signed = signed
        # the type's bounds, set once from width and signedness
        half = 1 << (width - 1)
        self.min = -half if signed else 0
        self.max = half - 1 if signed else 2 * half - 1

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


def _trap(kind: str, detail: str, offset: int | None = None) -> Violation:
    """A finding of a checked primitive.  Only alignment and null checks
    see an address; the caller stamps the partition."""
    return Violation(kind=kind, offset=offset, detail=detail)


def checked_arith(op: str, a: int, b: int, spec: IntSpec, strict: bool = False):
    """``op`` "ADD", "SUB" or "MUL" with overflow detection.  Returns the
    result value, or a Violation when the exact result leaves the type."""
    if op == "ADD":
        exact = a + b
    elif op == "SUB":
        exact = a - b
    else:
        exact = a * b
    if spec.contains(exact):
        return exact
    if not spec.signed and not strict:
        return spec.wrap(exact)
    return _trap(
        f"{op}_OVERFLOW",
        f"{spec.name} {op} of {a} and {b} gives {exact}, outside "
        f"[{spec.min}, {spec.max}]",
    )


def checked_div(a: int, b: int, spec: IntSpec):
    """Truncating division with zero-divisor and MIN/-1 detection."""
    if b == 0:
        return _trap("DIV_BY_ZERO", f"{spec.name} division of {a} by zero")
    if spec.signed and a == spec.min and b == -1:
        return _trap("DIV_OVERFLOW", f"{spec.name} division {a} / -1 overflows to {-a}")
    quotient = abs(a) // abs(b)
    return quotient if (a < 0) == (b < 0) else -quotient


def checked_shift(a: int, s: int, spec: IntSpec, strict: bool = False):
    """Left shift by ``s``.  The count must lie in [0, width); the shifted
    value must fit the type (unsigned wraps unless strict)."""
    if s < 0 or s >= spec.width:
        return _trap(
            "SHIFT_RANGE", f"shift count {s} outside [0, {spec.width}) for {spec.name}"
        )
    exact = a * (1 << s)
    if spec.contains(exact):
        return exact
    if not spec.signed and not strict:
        return spec.wrap(exact)
    return _trap(
        "SHIFT_RANGE",
        f"{spec.name} shift {a} << {s} gives {exact}, outside [{spec.min}, {spec.max}]",
    )


def checked_trunc(value: int, from_spec: IntSpec, to_spec: IntSpec):
    """Conversion between integer types: the value must survive unchanged."""
    if to_spec.contains(value):
        return value
    return _trap(
        "TRUNCATION",
        f"{from_spec.name} value {value} does not fit {to_spec.name} "
        f"[{to_spec.min}, {to_spec.max}]",
    )


def check_align(offset: int, align: int):
    """Natural-alignment check for an access at ``offset``; ``align`` is a
    power of two."""
    if offset % align == 0:
        return None
    return _trap(
        "MISALIGNED", f"offset {offset} not aligned to {align}", offset=offset
    )


def check_nonnull(offset: int, partition_id: int):
    """Guest null is offset 0 of any partition (the bottom of every space is
    a permanently blacklisted guard)."""
    if offset != 0:
        return None
    return _trap(
        "NULL_DEREF", f"null dereference in partition {partition_id}", offset=offset
    )


def check_bool(value: int):
    """A C _Bool must hold exactly 0 or 1."""
    if value in (0, 1):
        return None
    return _trap("BOOL_RANGE", f"boolean holds {value}, expected 0 or 1")


def check_enum(value: int, name: str, allowed):
    """The value of an enum ``name`` must be one of its ``allowed`` values."""
    if value in allowed:
        return None
    return _trap(
        "ENUM_RANGE", f"value {value} not in enum '{name}' {sorted(set(allowed))}"
    )

