"""Top-level acceptance checks, one per core behavior.

conftest.py prints one ACCEPTANCE line per test here, pass or fail, so a
plain pytest run doubles as the checklist: `pytest tests/test_acceptance.py -q`.
"""

import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from partsan.harness import Simulator, run_scenario
from partsan.msan_shadow import InitShadow, copy_propagate
from partsan.scenario import load_builtin
from partsan.syscall_annotations import parse_template, render_template
from partsan.ub_checks import (
    INT_SPECS,
    checked_arith,
    checked_div,
    checked_shift,
    checked_trunc,
)

from equivalence import run_asan_equivalence, run_msan_equivalence
from oracles import UB_KINDS, ref_arith, ref_div, ref_shift, ref_trunc, ref_virtual
from test_sched import _time_model
from test_ub_checks import _agree, _sample_operand

FIXTURE = Path(__file__).parent / "data" / "thread_status_template.txt"


def test_01_redzone_overflow_detection():
    report = run_scenario(load_builtin("listing1_overflow"))
    assert report.verdict == "MATCH"
    left, right = report.violations
    assert (left.kind, left.partition, left.offset) == ("LEFT_REDZONE", 1, 31)
    assert (right.kind, right.partition, right.offset) == ("RIGHT_REDZONE", 1, 48)
    assert left.detail == "left redzone of region 'buffer'"
    assert right.detail == "right redzone of region 'buffer'"


def test_02_validity_shadow_oracle_equivalence():
    for granularity in (1, 2, 4, 8, 16):
        rng = random.Random(9000 + granularity)
        tally = run_asan_equivalence(
            rng,
            size=4096,
            granularity=granularity,
            n_ops=10_000,
            full_compare_every=617,
            label=f"acceptance g={granularity}",
        )
        # the op mix must actually exercise both accept and reject paths
        assert tally["poison"] > 1000
        assert tally["unpoison"] > 1000
        assert tally["check_pass"] + tally["check_fail"] > 1000
        assert tally["check_fail"] > 100


def test_03_init_shadow_oracle_equivalence():
    tally = run_msan_equivalence(
        random.Random(31337),
        size=512,
        n_ops=10_000,
        full_compare_every=1,
        label="acceptance msan",
    )
    assert tally["copy"] > 1000
    assert tally["check_pass"] + tally["check_fail"] > 2000
    assert tally["check_fail"] > 500

    # origin labels survive a copy hop and still name the true source
    shadow = InitShadow(1, 64)
    shadow.set_uninitialized(0, 8, "alloc:src")
    shadow.mark_initialized(4, 4, "write:w")
    copy_propagate(shadow, 0, 16, 8)
    violation = shadow.check(16, 8, "BRANCH")
    assert violation.offset == 16
    assert violation.origin == "alloc:src"
    assert shadow.origin_at(20) == "write:w"
    assert shadow.check(20, 4, "BRANCH") is None


def test_04_syscall_template_contracts():
    text = FIXTURE.read_text(encoding="utf-8")
    spec = parse_template(text)
    assert render_template(spec) == text
    assert parse_template(render_template(spec)) == spec

    scenario = load_builtin("uninit_syscall_param")
    assert scenario.syscalls[0] == spec

    simulator = Simulator(scenario)
    report = simulator.run()
    assert report.verdict == "MATCH"
    (violation,) = report.violations
    assert (violation.kind, violation.offset, violation.context) == (
        "UNINIT_USE",
        32,
        "SYSCALL_PRE",
    )
    assert violation.step == 0  # first call blocked, second one passes
    outcomes = [e.info["outcome"] for e in report.events if e.kind == "SYSCALL"]
    assert outcomes == ["blocked", "ok"]

    # POST unpoison covered the output buffers
    mem = simulator.partitions[1]
    for label, size in (("name", 32), ("entry", 8), ("status", 16)):
        base = mem.region(label).base
        assert mem.init_shadow.check(base, size, "BRANCH") is None
        assert mem.init_shadow.origin_at(base) == "annotation"


def test_05_ub_kind_catalogue():
    report = run_scenario(load_builtin("ub_catalogue"))
    assert report.verdict == "MATCH"
    kinds = sorted(v.kind for v in report.violations)
    assert kinds == sorted(UB_KINDS)
    assert len(kinds) == 11

    specs = list(INT_SPECS.values())
    for index, spec in enumerate(specs):
        rng = random.Random(7000 + index)
        for _ in range(25_000):
            a = _sample_operand(rng, spec)
            b = _sample_operand(rng, spec)
            strict = rng.random() < 0.3
            op = rng.choice(("ADD", "SUB", "MUL"))
            _agree(
                checked_arith(op, a, b, spec, strict=strict),
                ref_arith(op, a, b, spec.name, strict=strict),
                f"{spec.name} {op}({a}, {b})",
            )
            b_div = rng.choice((0, -1 if spec.signed else 1, b))
            _agree(
                checked_div(a, b_div, spec),
                ref_div(a, b_div, spec.name),
                f"{spec.name} DIV({a}, {b_div})",
            )
            s = rng.choice(
                (rng.randint(-2, spec.width + 2), rng.randint(0, spec.width - 1))
            )
            _agree(
                checked_shift(a, s, spec, strict=strict),
                ref_shift(a, s, spec.name, strict=strict),
                f"{spec.name} SHIFT({a}, {s})",
            )
            to_spec = rng.choice(specs)
            _agree(
                checked_trunc(a, spec, to_spec),
                ref_trunc(a, spec.name, to_spec.name),
                f"{spec.name}->{to_spec.name} TRUNC({a})",
            )


def test_06_slowdown_compensation():
    scenario = load_builtin("off_schedule_with_and_without_slowdown")
    compensated = run_scenario(scenario)
    assert compensated.verdict == "MATCH"
    assert (compensated.raw_ticks, compensated.virtual_ticks) == (80, 40)
    assert not [e for e in compensated.events if e.kind == "DEADLINE_MISS"]

    uncompensated = run_scenario(
        load_builtin("off_schedule_with_and_without_slowdown", slowdown_factor=1)
    )
    assert uncompensated.virtual_ticks == 80
    (miss,) = [e for e in uncompensated.events if e.kind == "DEADLINE_MISS"]
    assert (miss.info["elapsed"], miss.info["budget"]) == (52, "50")

    # when every step's instrumented cost is at most f times its plain
    # cost, dividing the clock by f never lengthens an observed interval
    rng = random.Random(606)
    for _ in range(100):
        n_steps = rng.randrange(2, 121)
        plain = [rng.randrange(1, 7) for _ in range(n_steps)]
        extra = [rng.randrange(0, 9) for _ in range(n_steps)]
        factor = max(Fraction(p + e, p) for p, e in zip(plain, extra))
        instrumented = _time_model(factor, asan_check=1)
        uninstrumented = _time_model(1)
        virt_i, virt_u = [0], [0]
        for p, e in zip(plain, extra):
            virt_i.append(instrumented.advance(p, asan_checks=e))
            virt_u.append(uninstrumented.advance(p))
        assert virt_i[-1] == ref_virtual(instrumented.raw_ticks, factor)
        assert virt_u[-1] == sum(plain)
        for _ in range(8):
            start = rng.randrange(0, n_steps)
            end = rng.randrange(start + 1, n_steps + 1)
            elapsed_u = virt_u[end] - virt_u[start]
            elapsed_i = virt_i[end] - virt_i[start]
            assert elapsed_i <= elapsed_u
            capacity = elapsed_u + rng.randrange(0, 5)
            assert elapsed_u <= capacity  # plain run meets its deadline
            assert elapsed_i <= capacity  # so the instrumented run does too


def test_07_padding_and_reserved_init():
    scenario = load_builtin("padding_false_positive")
    report = run_scenario(scenario)
    assert report.verdict == "MATCH"
    (violation,) = report.violations
    assert (violation.kind, violation.offset, violation.context) == (
        "UNINIT_USE",
        36,
        "PORT_SEND",
    )

    # declaring the two padding bytes turns the same workload clean
    fixed = scenario._replace(padding={"msg_t": ((4, 4),)}, expect=())
    fixed_report = run_scenario(fixed)
    assert fixed_report.violations == ()
    assert fixed_report.verdict == "MATCH"

    reserved = run_scenario(load_builtin("reserved_init_still_poisoned"))
    assert reserved.verdict == "MATCH"
    (violation,) = reserved.violations
    assert (violation.kind, violation.offset, violation.context) == (
        "UNINIT_USE",
        32,
        "BRANCH",
    )
    assert violation.step == 1  # the all-pattern write did not initialize


def test_08_port_semantics():
    blocked = run_scenario(load_builtin("port_uninit_send"))
    assert blocked.verdict == "MATCH"
    (violation,) = blocked.violations
    assert (violation.kind, violation.offset, violation.context) == (
        "UNINIT_USE",
        36,
        "PORT_SEND",
    )
    (read,) = [e for e in blocked.events if e.kind == "SAMPLING_READ"]
    assert read.info["validity"] == "EMPTY"  # the send never happened

    fifo = run_scenario(load_builtin("queueing_fifo"))
    assert fifo.verdict == "MATCH"
    assert fifo.violations == ()

    freshness = run_scenario(load_builtin("sampling_freshness"))
    assert freshness.verdict == "MATCH"
    reads = [
        (e.info["validity"], e.info["age"])
        for e in freshness.events
        if e.kind == "SAMPLING_READ"
    ]
    assert reads == [("VALID", 0), ("VALID", 10), ("STALE", 11)]


def test_09_get_my_id_regression():
    scenario = load_builtin("get_my_id_regression")
    assert run_scenario(scenario).verdict == "MATCH"

    scenario.time["legacy_get_my_id"] = True
    report = run_scenario(scenario)
    assert report.verdict == "MISMATCH"
    (violation,) = report.violations
    assert violation.kind == "API_CONTRACT"
    assert "INVALID_MODE" in violation.detail


def test_10_run_all_determinism():
    runs = [
        subprocess.run(
            [sys.executable, "-m", "partsan", "run-all"],
            capture_output=True,
            text=True,
            check=False,
        )
        for _ in range(2)
    ]
    assert runs[0].returncode == 0 and runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.count("VERDICT MATCH") == 12
