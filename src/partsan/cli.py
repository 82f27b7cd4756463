"""Command-line entry points.

Exit codes: 0 when every executed scenario's verdict is MATCH, 1 when any
verdict is MISMATCH, 2 for configuration/usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import PartsanError
from .harness import render_report, report_payload, run_scenario
from .scenario import builtin_names, load_builtin, load_scenario_file, read_utf8
from .syscall_annotations import parse_template, render_template


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partsan",
        description=(
            "Deterministic partition simulator with sanitizer runtimes and a "
            "fault-injection harness"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario (file path or builtin name)")
    run.add_argument("scenario", help="path to a scenario JSON file, or a builtin name")
    run.add_argument(
        "--slowdown-factor",
        metavar="F",
        help="override the scenario's timer slowdown factor (int, float or p/q)",
    )
    run.add_argument(
        "--granularity",
        type=int,
        metavar="G",
        help="override shadow granularity for every partition (1, 2, 4, 8 or 16)",
    )
    run.add_argument("--seed", type=int, default=0, metavar="N")
    run.add_argument("--report", choices=("text", "json"), default="text")
    run.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")

    sub.add_parser("list-scenarios", help="list builtin scenario names")

    run_all = sub.add_parser("run-all", help="run every builtin scenario")
    run_all.add_argument("--report", choices=("text", "json"), default="text")
    run_all.add_argument("--seed", type=int, default=0, metavar="N")
    run_all.add_argument(
        "--out", metavar="DIR", help="write one report file per scenario into DIR"
    )

    parse = sub.add_parser(
        "parse-template", help="parse an annotated syscall declaration and echo it back"
    )
    parse.add_argument("file", help="file holding one annotated declaration")
    return parser


def _load(name_or_path: str):
    if os.path.exists(name_or_path):
        return load_scenario_file(name_or_path)
    return load_builtin(name_or_path.removesuffix(".json"))


def _cmd_run(args) -> int:
    scenario = _load(args.scenario).with_overrides(
        slowdown_factor=args.slowdown_factor, granularity=args.granularity
    )
    report = run_scenario(scenario, seed=args.seed)
    text = render_report(report, args.report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            out.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.verdict == "MATCH" else 1


def _cmd_run_all(args) -> int:
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    reports = []
    for name in builtin_names():
        report = run_scenario(load_builtin(name), seed=args.seed)
        reports.append(report)
        if args.out:
            suffix = "txt" if args.report == "text" else "json"
            with open(os.path.join(args.out, f"{name}.{suffix}"), "w", encoding="utf-8") as out:
                out.write(render_report(report, args.report))
            sys.stdout.write(f"{name}: {report.verdict}\n")
        elif args.report == "text":
            sys.stdout.write(render_report(report, "text"))
    if not args.out and args.report == "json":
        payload = {"reports": [report_payload(r) for r in reports]}
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0 if all(r.verdict == "MATCH" for r in reports) else 1


def _cmd_parse_template(args) -> int:
    sys.stdout.write(render_template(parse_template(read_utf8(args.file))))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "run-all": _cmd_run_all,
        "list-scenarios": lambda a: (
            sys.stdout.write("".join(f"{n}\n" for n in builtin_names())),
            0,
        )[1],
        "parse-template": _cmd_parse_template,
    }
    try:
        return handlers[args.command](args)
    except PartsanError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
