"""Violation records shared by all checkers.

A violation is a finding about the simulated guest, not a failure of the
simulator.  Checkers either return a :class:`Violation` (pure query APIs)
or raise :class:`ViolationError` around one (mutating entry points, so that
the faulting operation has no side effects).  A raised one aborts its op and
is logged only by ``Simulator.run``, which then goes on with the next step; a
returned one is left to the op, which logs it and decides how to go on.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import PartsanError


class Violation(
    namedtuple(
        "Violation",
        "kind partition offset size access step detail context origin",
        defaults=(None, None, None, None, None, "", None, None),
    )
):
    """One finding, in report form, whichever checker raised it.

    Checkers fill in what they know, with ``kind`` and ``detail`` already as
    they are printed; the harness stamps ``step`` when it logs the finding
    (and ``partition`` on arithmetic traps, which see only values) with
    ``_replace``.  ``access`` is "R" or "W".  ``context``, on UNINIT_USE
    only, is the use site: "SYSCALL_PRE", "BRANCH", "ARITH" or "PORT_SEND".
    The field names are the keys of a JSON report's violation objects.
    """

    __slots__ = ()

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
