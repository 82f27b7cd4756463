"""CLI subcommands, exit codes and output formats."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from partsan.cli import main
from partsan.errors import ConfigError
from partsan.scenario import builtin_names, load_scenario_file

FIXTURE = Path(__file__).parent / "data" / "thread_status_template.txt"
SRC = Path(__file__).resolve().parent.parent / "src"

MISMATCH_SCENARIO = {
    "name": "goes-sideways",
    "partitions": [{"id": 1, "regions": [{"label": "buf", "size": 16}]}],
    "workload": [
        {"op": "READ", "partition": 1, "region": "buf", "offset": -1, "len": 1}
    ],
    "expect": [],
}


def _write_scenario(tmp_path, data):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def test_run_builtin_by_name(capsys):
    assert main(["run", "listing1_overflow"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("SCENARIO name=listing1_overflow raw=18 virtual=18\n")
    assert out.endswith("VERDICT MATCH\n")


def test_run_builtin_name_tolerates_json_suffix(capsys):
    assert main(["run", "listing1_overflow.json"]) == 0
    assert "VERDICT MATCH" in capsys.readouterr().out


def test_run_scenario_file_with_mismatch_exits_1(tmp_path, capsys):
    path = _write_scenario(tmp_path, MISMATCH_SCENARIO)
    assert main(["run", str(path)]) == 1
    out = capsys.readouterr().out
    assert "kind=LEFT_REDZONE" in out
    assert "VERDICT MISMATCH" in out


def test_run_unknown_builtin_exits_2(capsys):
    assert main(["run", "no_such_scenario"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_run_invalid_scenario_file_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_files_that_are_not_utf8_exit_2(tmp_path, capsys):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe")
    for argv in (["run", str(path)], ["parse-template", str(path)]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: not valid UTF-8: invalid start byte at byte 0 of {path}\n"


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    """Nesting past the decoder's recursion limit is text that is not JSON
    to the loader, not a RecursionError traceback (exit 1, the MISMATCH
    code)."""
    path = tmp_path / "deep.json"
    for text in ("[" * 100_000, '{"a":' * 100_000):
        path.write_text(text, encoding="utf-8")
        assert main(["run", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: not valid JSON: maximum recursion depth exceeded")


def test_integers_past_64_bits_exit_2_before_the_run(tmp_path, capsys):
    """Each value loads below Python's 4,300-digit int-to-str limit, but
    their total would not render; the loader rejects the first one."""
    ticks = int("9" * 4300)
    cases = [
        ({"workload": [{"op": "IDLE", "ticks": ticks}] * 3}, "/workload/0/ticks"),
        ({"time": {"slowdown_factor": f"{2**64}/3"}}, "/time/slowdown_factor"),
    ]
    for fields, pointer in cases:
        path = _write_scenario(tmp_path, {"name": "huge", **fields})
        assert main(["run", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {pointer}: ")


def test_load_scenario_file_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_bytes(b'{"name": "caf\xe9"}')
    with pytest.raises(ConfigError) as err:
        load_scenario_file(path)
    assert err.value.message.startswith("not valid UTF-8: ")
    assert err.value.path is None


def test_run_invalid_granularity_exits_2(tmp_path, capsys):
    assert main(["run", "listing1_overflow", "--granularity", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: granularity must be one of")
    # a valid granularity the scenario's redzone is not a multiple of
    scenario = {"name": "rz8", "partitions": [{"id": 1, "redzone": 8}]}
    path = _write_scenario(tmp_path, scenario)
    assert main(["run", str(path), "--granularity", "16"]) == 2
    assert capsys.readouterr().err.startswith("error: /partitions/0/redzone: redzone 8 must be")


def test_run_invalid_slowdown_factor_exits_2(capsys):
    for factor in ("abc", "1/0"):
        assert main(["run", "queueing_fifo", "--slowdown-factor", factor]) == 2
        assert capsys.readouterr().err.startswith("error:")


def test_run_json_report(capsys):
    assert main(["run", "listing1_overflow", "--report", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scenario"] == "listing1_overflow"
    assert payload["verdict"] == "MATCH"
    assert [v["kind"] for v in payload["violations"]] == [
        "LEFT_REDZONE",
        "RIGHT_REDZONE",
    ]


def test_run_out_writes_file_and_keeps_stdout_quiet(tmp_path, capsys):
    out_file = tmp_path / "report.txt"
    assert main(["run", "listing1_overflow", "--out", str(out_file)]) == 0
    assert capsys.readouterr().out == ""
    assert out_file.read_text(encoding="utf-8").endswith("VERDICT MATCH\n")


def test_run_slowdown_factor_override(capsys):
    assert main(["run", "off_schedule_with_and_without_slowdown"]) == 0
    assert "DEADLINE_MISS" not in capsys.readouterr().out

    assert main(["run", "off_schedule_with_and_without_slowdown", "--slowdown-factor", "1"]) == 0
    out = capsys.readouterr().out
    assert "EVENT kind=DEADLINE_MISS t=52 part=1 process=1 elapsed=52 budget=50" in out


def test_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    names = capsys.readouterr().out.splitlines()
    assert names == builtin_names()
    assert len(names) == 12


def test_run_all_text(capsys):
    assert main(["run-all"]) == 0
    first = capsys.readouterr().out
    assert main(["run-all"]) == 0
    second = capsys.readouterr().out
    assert first == second  # byte-identical across invocations
    for name in builtin_names():
        assert f"SCENARIO name={name} " in first
    assert first.count("VERDICT MATCH") == 12


def test_run_all_json(capsys):
    assert main(["run-all", "--report", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["scenario"] for r in payload["reports"]] == builtin_names()
    assert all(r["verdict"] == "MATCH" for r in payload["reports"])


def test_run_all_out_dir(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    assert main(["run-all", "--out", str(out_dir)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"{name}: MATCH" for name in builtin_names()]
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == [f"{name}.txt" for name in builtin_names()]
    listing1 = (out_dir / "listing1_overflow.txt").read_text(encoding="utf-8")
    assert listing1.startswith("SCENARIO name=listing1_overflow ")


def test_parse_template_echoes_canonical_form(capsys):
    assert main(["parse-template", str(FIXTURE)]) == 0
    assert capsys.readouterr().out == FIXTURE.read_text(encoding="utf-8")


def test_parse_template_syntax_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("syscall_declare(int f);", encoding="utf-8")
    assert main(["parse-template", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["parse-template", str(tmp_path / "absent.txt")]) == 2
    assert "error:" in capsys.readouterr().err


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "partsan", "list-scenarios"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines() == builtin_names()


def test_cli_import_leaves_out_modules_it_never_uses():
    """Start-up imports no module that only generates or locates code, no
    path or URL machinery, and no mmap, which only large partitions need."""
    result = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, partsan.cli; print(*sorted(sys.modules))"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(result.stdout.split())
    assert "partsan.cli" in loaded
    unused = {
        "pathlib",
        "urllib.parse",
        "ipaddress",
        "mmap",
        "dataclasses",
        "inspect",
        "importlib.resources",
    }
    assert loaded.isdisjoint(unused), sorted(loaded & unused)


def test_cli_import_loads_no_typing():
    """No partsan module imports ``typing``: records are plain named
    tuples.  ``-S``, because ``site`` itself may import ``typing``."""
    result = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, partsan.cli; print('typing' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "False\n"


def test_no_module_imports_enum_or_typing():
    """No module of the package imports ``enum`` or ``typing``, read from
    its source: ``re`` loads ``enum`` at run time anyway, so a child's
    ``sys.modules`` cannot show it."""
    banned = {"enum", "typing"}
    found = []
    for path in sorted((SRC / "partsan").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [(path.name, name) for name in names if name.split(".")[0] in banned]
    assert found == []
