"""Addressing primitives and violation records shared by all checkers.

A violation is a finding about the simulated guest, not a failure of the
simulator.  Checkers either return a :class:`Violation` (pure query APIs)
or raise :class:`ViolationError` around one (mutating entry points, so that
the faulting operation has no side effects).  The harness catches the wrapper,
logs the record and continues the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import PartsanError


@dataclass(frozen=True)
class GuestAddr:
    """An offset into one partition's private byte space.

    Offsets are plain integers and may be negative or past the end; such
    addresses are representable (arithmetic never wraps) but any access
    through them is reported as WILD_ADDRESS.
    """

    partition_id: int
    offset: int

    def __add__(self, delta: int) -> "GuestAddr":
        return GuestAddr(self.partition_id, self.offset + delta)


class AccessKind(Enum):
    READ = "R"
    WRITE = "W"


class UseSite(Enum):
    """Where an initialization check happens. Only uses are checked, not copies."""

    SYSCALL_PRE = "SYSCALL_PRE"
    BRANCH = "BRANCH"
    ARITH = "ARITH"
    PORT_SEND = "PORT_SEND"


@dataclass(frozen=True)
class Violation:
    """One finding, in report form, whichever checker raised it.

    Checkers fill in what they know, with ``kind`` and ``detail`` already as
    they are printed; the harness stamps ``step`` when it logs the finding
    (and ``partition`` on arithmetic traps, which see only values).  The
    field names are the keys of a JSON report's violation objects.
    """

    kind: str
    partition: int | None = None
    offset: int | None = None
    size: int | None = None
    access: str | None = None  # AccessKind value, "R" or "W"
    step: int | None = None
    detail: str = ""
    context: str | None = None  # UseSite value, on UNINIT_USE only
    origin: str | None = None

    def to_line(self) -> str:
        addr = format(self.offset, "#x") if self.offset is not None else "-"
        return (
            f"VIOLATION kind={self.kind}"
            f" part={self.partition if self.partition is not None else '-'}"
            f" addr={addr}"
            f" size={self.size if self.size is not None else '-'}"
            f" access={self.access if self.access is not None else '-'}"
            f" step={self.step}"
            f' detail="{self.detail}"'
        )


class ViolationError(PartsanError):
    """Wrapper raised by mutating entry points so the operation aborts
    cleanly; carries the underlying violation record."""

    def __init__(self, violation):
        self.violation = violation
        super().__init__(str(violation))
