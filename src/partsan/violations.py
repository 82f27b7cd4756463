"""Access kinds, use sites and violation records shared by all checkers.

A violation is a finding about the simulated guest, not a failure of the
simulator.  Checkers either return a :class:`Violation` (pure query APIs)
or raise :class:`ViolationError` around one (mutating entry points, so that
the faulting operation has no side effects).  A raised one aborts its op and
is logged only by ``Simulator.run``, which then goes on with the next step; a
returned one is left to the op, which logs it and decides how to go on.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .errors import PartsanError


class AccessKind(Enum):
    READ = "R"
    WRITE = "W"


class UseSite(Enum):
    """Where an initialization check happens. Only uses are checked, not copies."""

    SYSCALL_PRE = "SYSCALL_PRE"
    BRANCH = "BRANCH"
    ARITH = "ARITH"
    PORT_SEND = "PORT_SEND"


class Violation(NamedTuple):
    """One finding, in report form, whichever checker raised it.

    Checkers fill in what they know, with ``kind`` and ``detail`` already as
    they are printed; the harness stamps ``step`` when it logs the finding
    (and ``partition`` on arithmetic traps, which see only values) with
    ``_replace``.  The field names are the keys of a JSON report's violation
    objects.
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
