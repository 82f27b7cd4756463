"""Annotation-language parsing, rendering and contract enforcement."""

import json
import random
import re
from pathlib import Path

import pytest

from partsan.cli import main
from partsan.errors import ConfigError, ParseError
from partsan.msan_shadow import InitShadow
from partsan.scenario import load_scenario, load_scenario_text
from partsan.syscall_annotations import (
    Directive,
    SyscallSpec,
    enforce_post,
    enforce_pre,
    parse_template,
    render_template,
    resolve_sizes,
)

FIXTURE = Path(__file__).parent / "data" / "thread_status_template.txt"

EXPECTED_SPEC = SyscallSpec(
    user_name="jet_thread_status",
    return_type="jet_syscall_thread_status_t",
    syscall_name="jet_thread_get_status",
    params=(
        ("jet_thread_id_t", "thread_id"),
        ("max_name_t", "name"),
        ("void**", "entry"),
        ("jet_thread_status_t*", "status"),
    ),
    checks=(
        Directive("PRE", "msan_check", "&", "thread_id", "thread_id"),
        Directive("POST", "msan_unpoison", "", "name", "max_name_t"),
        Directive("POST", "msan_unpoison", "", "entry", "*entry"),
        Directive("POST", "msan_unpoison", "", "status", "*status"),
    ),
)


def test_fixture_parses_to_expected_spec():
    spec = parse_template(FIXTURE.read_text(encoding="utf-8"))
    assert spec == EXPECTED_SPEC
    phases = [d.phase for d in spec.checks]
    assert (phases.count("PRE"), phases.count("POST")) == (1, 3)


def test_render_parse_roundtrip_and_idempotence():
    text = FIXTURE.read_text(encoding="utf-8")
    spec = parse_template(text)
    rendered = render_template(spec)
    assert parse_template(rendered) == spec
    assert render_template(parse_template(rendered)) == rendered
    assert rendered == text  # the fixture is already in canonical form


def test_whitespace_is_insignificant():
    crushed = (
        "//!USER_NAME:jet_thread_status "
        "//!PRE:msan_check(&thread_id,sizeof(thread_id)); "
        "//!POST:msan_unpoison(name,sizeof(max_name_t)); "
        "//!POST:msan_unpoison(entry,sizeof(*entry)); "
        "//!POST:msan_unpoison(status,sizeof(*status)); "
        "syscall_declare(jet_syscall_thread_status_t,jet_thread_get_status,"
        "jet_thread_id_t,thread_id,max_name_t,name,void**,entry,"
        "jet_thread_status_t*,status);"
    )
    assert parse_template(crushed) == EXPECTED_SPEC
    spread = FIXTURE.read_text(encoding="utf-8").replace(" ", "\n  ")
    assert parse_template(spread) == EXPECTED_SPEC


def test_semicolons_are_optional():
    text = FIXTURE.read_text(encoding="utf-8").replace(";", "")
    assert parse_template(text) == EXPECTED_SPEC


def test_user_name_defaults_to_syscall_name():
    spec = parse_template("syscall_declare(int, plain_call);")
    assert spec.user_name == "plain_call"
    assert spec.params == () and spec.checks == ()


def test_literal_sizes_and_param_shadowing():
    # a bare sizeof name that is also a parameter means the parameter's
    # declared type, not the type of that name
    text = (
        "//!PRE: msan_check(buf, 16);\n"
        "//!PRE: msan_check(buf, sizeof(t));\n"
        "//!PRE: msan_check(buf, sizeof(u16));\n"
        "syscall_declare(int, f, char*, buf, u16, t);"
    )
    spec = parse_template(text)
    assert [d.size for d in spec.checks] == [16, "t", "u16"]
    resolved = resolve_sizes(spec, {"t": 8, "u16": 2}, {"buf": {"offset": 0}})
    assert [size for _, _, size in resolved] == [16, 2, 2]


def _error_at(text, line, col):
    with pytest.raises(ParseError) as err:
        parse_template(text)
    assert (err.value.line, err.value.col) == (line, col), str(err.value)
    return err.value


def test_parse_errors_carry_line_and_column():
    _error_at("//!WRONG: x\nsyscall_declare(int, f);", 1, 4)
    _error_at("syscall_declare(int f);", 1, 21)  # missing comma
    _error_at("//!PRE: bogus_call(a, 1);\nsyscall_declare(int, f, int, a);", 1, 9)
    _error_at("syscall_declare(int, f); extra", 1, 26)
    _error_at("//!PRE: msan_check(ghost, 4);\nsyscall_declare(int, f, int, a);", 1, 20)
    _error_at(
        "//!PRE: msan_check(a, sizeof(*t));\nsyscall_declare(int, f, int, a);", 1, 31
    )
    _error_at("//!PRE: msan_check(a, 0);\nsyscall_declare(int, f, int, a);", 1, 23)
    _error_at("syscall_declare(int, f, int, a, int, a);", 1, 38)
    _error_at(
        "//!USER_NAME: x\n//!USER_NAME: y\nsyscall_declare(int, f);", 2, 4
    )
    _error_at("// plain comment\nsyscall_declare(int, f);", 1, 1)
    _error_at("syscall_declare(int, f)$", 1, 24)
    _error_at("//!POST: msan_check(a, 4);\nsyscall_declare(int, f, int, a);", 1, 10)
    # line 3 or later
    _error_at(
        "//!USER_NAME: x\n//!PRE: msan_check(a, 4);\n"
        "//!PRE: msan_check(a, sizeof(a)) extra\nsyscall_declare(int, f, int, a);",
        3,
        34,
    )
    _error_at(
        "//!USER_NAME: x\n\n\n//!POST: msan_unpoison(a, 4);\n"
        "syscall_declare(int, f, int, a, int, a);",
        5,
        38,
    )
    _error_at("syscall_declare(int, f,\n\tint, a\u00e9);", 2, 8)
    # a tab is one column
    _error_at("syscall_declare(int,\tf\t$);", 1, 24)
    _error_at("\t//!PRE:\tmsan_check(a,\t0);\nsyscall_declare(int, f, int, a);", 1, 24)
    # a carriage return is a column of its line, not a line break
    _error_at("//!USER_NAME: x\r\n//!WRONG: y\r\nsyscall_declare(int, f);", 2, 4)
    _error_at("//!USER_NAME: x\r\nsyscall_declare(int, f)\r\n;\r\nextra", 4, 1)
    _error_at("//!USER_NAME: x\r\n\t// note\r\nsyscall_declare(int, f);", 2, 2)
    # non-ASCII whitespace is one column and breaks no line
    _error_at("syscall_declare(int,\u2003f\u2003$);", 1, 24)
    _error_at("//!USER_NAME:\u2003\u2003x\u2003y\nsyscall_declare(int, f);", 1, 18)
    _error_at("syscall_declare(int, f);\n\x0b\x0c\u2028\x85;", 2, 5)
    # at the end of input, after a trailing newline
    _error_at("syscall_declare(int, f\n", 2, 1)
    _error_at("//!USER_NAME: x\n", 2, 1)
    _error_at("\n\n", 3, 1)
    _error_at("syscall_declare(int, f)\n /", 2, 2)
    # in a //! line indented by spaces
    _error_at("    //!WRONG: x\nsyscall_declare(int, f);", 1, 8)
    _error_at(
        "//!USER_NAME: x\n  //!PRE: msan_check(ghost, 4);\nsyscall_declare(int, f, int, a);",
        2,
        22,
    )
    _error_at(
        "//!USER_NAME: x\n//!PRE: msan_check(a, 4);\n  /* c */ syscall_declare(int, f, int, a);",
        3,
        3,
    )


@pytest.mark.parametrize(
    "literal, message",
    [
        ("\u00b2", "unexpected character '\u00b2'"),
        ("\u0663", "unexpected character '\u0663'"),
        ("9" * 5000, "size literal of 5000 digits is too long"),
    ],
    ids=["superscript-two", "arabic-indic-three", "5000-digits"],
)
def test_size_literals_int_cannot_read_are_parse_errors(literal, message, tmp_path, capsys):
    text = f"//!PRE: msan_check(a, {literal});\nsyscall_declare(int, f, char*, a);"
    err = _error_at(text, 1, 23)
    assert str(err).endswith(message)
    with pytest.raises(ConfigError) as loaded:
        load_scenario_text(json.dumps({"name": "s", "syscalls": [text]}))
    assert loaded.value.path == "/syscalls/0"
    assert message in loaded.value.message
    path = tmp_path / "template.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["parse-template", str(path)]) == 2
    out, err_text = capsys.readouterr()
    assert out == "" and err_text.startswith("error: line 1, col 23: ")
    assert "Traceback" not in err_text


#: what fuzzed templates splice in: grammar tokens, then non-ASCII letters,
#: digits and spaces
_FUZZ_PIECES = (
    "//!", "USER_NAME", "PRE", "POST", ":", "msan_check", "msan_unpoison", "sizeof",
    "syscall_declare", "(", ")", "&", "*", ",", ";", "int", "char*", "a", "b", "t_2",
    "0", "4", "007", " ", "\n", "\t", "//", "/*", "$",
    "\u00e9", "\u00df", "\u03bb", "\u00b2", "\u0663", "\u00a0", "\u2003",
)


def _fuzz_template(rng: random.Random) -> str:
    """A well-formed template with up to three edits: a piece inserted, up
    to four characters deleted, or a name or literal replaced by a piece."""
    params = rng.sample(("a", "b", "buf", "out"), rng.randint(0, 3))
    lines = ["//!USER_NAME: u"] if rng.random() < 0.5 else []
    for _ in range(rng.randint(0, 3) if params else 0):
        phase, call = rng.choice(
            (("PRE", "msan_check"), ("PRE", "msan_unpoison"), ("POST", "msan_unpoison"))
        )
        target = rng.choice(("", "&", "*")) + rng.choice(params)
        size = rng.choice(
            ("8", f"sizeof({rng.choice(params)})", f"sizeof(*{rng.choice(params)})",
             "sizeof(word_t)")
        )
        lines.append(f"//!{phase}: {call}({target}, {size});")
    types = ("int", "char*", "word_t**")
    decl = ["int", "f"] + [f"{rng.choice(types)}, {param}" for param in params]
    lines.append(f"syscall_declare({', '.join(decl)});")
    text = "\n".join(lines)
    for _ in range(rng.randint(0, 3)):
        at = rng.randint(0, len(text))
        edit = rng.randrange(3)
        if edit == 0:
            text = text[:at] + rng.choice(_FUZZ_PIECES) + text[at:]
        elif edit == 1:
            text = text[:at] + text[at + rng.randint(1, 4):]
        else:
            word = rng.choice(list(re.finditer(r"\w+", text)))
            text = text[: word.start()] + rng.choice(_FUZZ_PIECES) + text[word.end():]
    return text


def test_parser_fuzz_gives_a_spec_or_a_parse_error():
    """Each input parses to a spec its canonical text re-parses to, or
    raises ParseError; any other exception fails."""
    rng = random.Random(653)
    parsed = 0
    for _ in range(2000):
        text = _fuzz_template(rng)
        try:
            spec = parse_template(text)
        except ParseError:
            continue
        assert parse_template(render_template(spec)) == spec, text
        parsed += 1
    assert 200 < parsed < 1800


def test_parse_error_message_mentions_position():
    with pytest.raises(ParseError) as err:
        parse_template("//!PRE: msan_check(\nsyscall_declare(int, f);")
    assert "line 2" in str(err.value)


SIZES = {
    "jet_thread_id_t": 4,
    "max_name_t": 32,
    "void*": 8,
    "jet_thread_status_t": 16,
}


def _bindings(base=32):
    return {
        "thread_id": {"offset": base, "len": 4},
        "name": {"offset": base + 40, "len": 32},
        "entry": {"offset": base + 88, "len": 8},
        "status": {"offset": base + 112, "len": 16},
    }


def test_resolve_sizes_every_form():
    spec = parse_template(FIXTURE.read_text(encoding="utf-8"))
    resolved = resolve_sizes(spec, SIZES, _bindings())
    assert [(offset, size) for _, offset, size in resolved] == [
        (32, 4),  # sizeof(thread_id) -> jet_thread_id_t
        (72, 32),  # sizeof(max_name_t) -> type lookup
        (120, 8),  # sizeof(*entry) -> void*
        (144, 16),  # sizeof(*status) -> jet_thread_status_t
    ]
    assert [d for d, _, _ in resolved] == list(spec.checks)


def test_resolve_sizes_errors():
    spec = parse_template(FIXTURE.read_text(encoding="utf-8"))
    bindings = _bindings()
    with pytest.raises(ConfigError) as err:
        resolve_sizes(spec, {}, bindings)
    assert err.value.path == "/name"
    short = dict(bindings)
    short["status"] = {"offset": 144, "len": 8}  # needs 16
    with pytest.raises(ConfigError, match="needs 16 bytes, binding provides 8") as err:
        resolve_sizes(spec, SIZES, short)
    assert err.value.path == "/bindings/status"
    deref_of_value = parse_template(
        "//!PRE: msan_check(a, sizeof(*a));\nsyscall_declare(int, f, int, a);"
    )
    with pytest.raises(ConfigError, match=r"sizeof\(\*a\) needs a pointer type, 'int' is not one"):
        resolve_sizes(
            deref_of_value,
            {"int": 4},
            {"a": {"offset": 32}},
        )


def test_type_size_table_validation():
    with pytest.raises(ConfigError) as err:
        load_scenario({"name": "s", "types": {"t": 0}})
    assert err.value.path == "/types/t"
    spec = parse_template(
        "//!PRE: msan_check(a, sizeof(unknown_t));\nsyscall_declare(int, f, int, a);"
    )
    with pytest.raises(ConfigError, match="no size known for type 'unknown_t'"):
        resolve_sizes(spec, SIZES, {"a": {"offset": 0}})


def test_enforce_pre_fires_on_uninitialized_input():
    spec = parse_template(FIXTURE.read_text(encoding="utf-8"))
    shadow = InitShadow(1, 256)
    resolved = resolve_sizes(spec, SIZES, _bindings())
    violation = enforce_pre(resolved, shadow)
    assert violation is not None
    assert violation.offset == 32
    assert violation.context == "SYSCALL_PRE"


def test_enforce_pre_passes_after_write_and_post_unpoisons_on_success():
    spec = parse_template(FIXTURE.read_text(encoding="utf-8"))
    shadow = InitShadow(1, 256)
    shadow.mark_initialized(32, 4, "write:w0")
    resolved = resolve_sizes(spec, SIZES, _bindings())
    assert enforce_pre(resolved, shadow) is None
    assert enforce_post(resolved, shadow, syscall_succeeded=True) is None
    for start, length in ((72, 32), (120, 8), (144, 16)):
        assert shadow.check(start, length, "BRANCH") is None
        assert shadow.origin_at(start) == "annotation"


def test_enforce_post_skipped_on_failure():
    spec = parse_template(FIXTURE.read_text(encoding="utf-8"))
    shadow = InitShadow(1, 256)
    shadow.mark_initialized(32, 4, "write:w0")
    resolved = resolve_sizes(spec, SIZES, _bindings())
    assert enforce_pre(resolved, shadow) is None
    assert enforce_post(resolved, shadow, syscall_succeeded=False) is None
    assert shadow.check(72, 32, "BRANCH") is not None


def test_enforce_pre_stops_at_first_violation_in_order():
    text = (
        "//!PRE: msan_check(a, 4);\n"
        "//!PRE: msan_unpoison(b, 4);\n"
        "//!PRE: msan_check(b, 4);\n"
        "syscall_declare(int, f, char*, a, char*, b);"
    )
    spec = parse_template(text)
    shadow = InitShadow(1, 64)
    bindings = {
        "a": {"offset": 0},
        "b": {"offset": 8},
    }
    resolved = resolve_sizes(spec, {}, bindings)
    violation = enforce_pre(resolved, shadow)
    assert violation.offset == 0
    # the unpoison after the failing check never ran
    assert shadow.check(8, 4, "BRANCH") is not None
    shadow.mark_initialized(0, 4, "w")
    assert enforce_pre(resolved, shadow) is None
    assert shadow.check(8, 4, "BRANCH") is None
