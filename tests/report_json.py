"""The inverse of ``render_report(..., "json")``, for round-trip checks."""

from __future__ import annotations

import json

from partsan.harness import Event, RunReport
from partsan.violations import Violation


def parse_report_json(text: str) -> RunReport:
    """The ``RunReport`` that ``render_report(report, "json")`` rendered as ``text``."""
    payload = json.loads(text)
    return RunReport(
        scenario_name=payload["scenario"],
        seed=payload["seed"],
        raw_ticks=payload["raw_ticks"],
        virtual_ticks=payload["virtual_ticks"],
        violations=tuple(Violation(**v) for v in payload["violations"]),
        events=tuple(
            Event(kind=e["kind"], t=e["t"], info=e["info"]) for e in payload["events"]
        ),
        verdict=payload["verdict"],
    )
