"""The seeded scenario generator of ``schedule_differential.py`` keeps
producing scenarios that load and run, so that comparing two versions with
it keeps meaning something."""

from collections import Counter
from itertools import islice

import schedule_differential


def test_schedule_differential_scenarios_load_or_fail_at_load_and_run_deterministically():
    first = [
        (scenario_id, schedule_differential.outcome(doc))
        for scenario_id, doc in islice(schedule_differential.scenarios(), 300)
    ]
    second = [
        (scenario_id, schedule_differential.outcome(doc))
        for scenario_id, doc in islice(schedule_differential.scenarios(), 300)
    ]
    assert first == second
    kinds = Counter(
        "run_error" if "run_error" in result else
        "load_error" if "load_error" in result else
        "missed" if result["deadline_misses"] else "report"
        for _, result in first
    )
    assert kinds["run_error"] == 0, [r for _, r in first if "run_error" in r][:3]
    # most scenarios run, and most runs miss a deadline
    assert kinds["missed"] + kinds["report"] > 150
    assert kinds["missed"] > kinds["report"]
