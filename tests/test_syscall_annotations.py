"""Annotation-language parsing, rendering and contract enforcement."""

from pathlib import Path

import pytest

from partsan.errors import BindError, ConfigError, ParseError, UnknownType
from partsan.msan_shadow import InitShadow
from partsan.syscall_annotations import (
    CheckDirective,
    CheckKind,
    CheckPhase,
    ParamBinding,
    SizeExpr,
    SizeForm,
    SyscallSpec,
    TargetExpr,
    TargetForm,
    TypeSizeTable,
    enforce_post,
    enforce_pre,
    parse_template,
    render_template,
    resolve_sizes,
)
from partsan.violations import UseSite

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
        CheckDirective(
            CheckPhase.PRE,
            CheckKind.MSAN_CHECK,
            TargetExpr(TargetForm.ADDR_OF, "thread_id"),
            SizeExpr(SizeForm.SIZEOF_PARAM, name="thread_id"),
        ),
        CheckDirective(
            CheckPhase.POST,
            CheckKind.MSAN_UNPOISON,
            TargetExpr(TargetForm.PARAM, "name"),
            SizeExpr(SizeForm.SIZEOF_TYPE, name="max_name_t"),
        ),
        CheckDirective(
            CheckPhase.POST,
            CheckKind.MSAN_UNPOISON,
            TargetExpr(TargetForm.PARAM, "entry"),
            SizeExpr(SizeForm.SIZEOF_DEREF, name="entry"),
        ),
        CheckDirective(
            CheckPhase.POST,
            CheckKind.MSAN_UNPOISON,
            TargetExpr(TargetForm.PARAM, "status"),
            SizeExpr(SizeForm.SIZEOF_DEREF, name="status"),
        ),
    ),
)


def test_fixture_parses_to_expected_spec():
    spec = parse_template(FIXTURE.read_text(encoding="utf-8"))
    assert spec == EXPECTED_SPEC
    phases = [c.phase for c in spec.checks]
    assert (phases.count(CheckPhase.PRE), phases.count(CheckPhase.POST)) == (1, 3)
    assert spec.param_type("status") == "jet_thread_status_t*"


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
    # a bare sizeof name that is also a parameter resolves to the parameter
    text = (
        "//!PRE: msan_check(buf, 16);\n"
        "//!PRE: msan_check(buf, sizeof(word_t));\n"
        "syscall_declare(int, f, char*, buf, word_t, word_t);"
    )
    spec = parse_template(text)
    first, second = spec.checks
    assert first.size == SizeExpr(SizeForm.LITERAL, value=16)
    assert second.size == SizeExpr(SizeForm.SIZEOF_PARAM, name="word_t")


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


def test_parse_error_message_mentions_position():
    with pytest.raises(ParseError) as err:
        parse_template("//!PRE: msan_check(\nsyscall_declare(int, f);")
    assert "line 2" in str(err.value)


SIZES = TypeSizeTable(
    {
        "jet_thread_id_t": 4,
        "max_name_t": 32,
        "void*": 8,
        "jet_thread_status_t": 16,
    }
)


def _bindings(base=32):
    return {
        "thread_id": ParamBinding(base, length=4),
        "name": ParamBinding(base + 40, length=32),
        "entry": ParamBinding(base + 88, length=8),
        "status": ParamBinding(base + 112, length=16),
    }


def test_resolve_sizes_every_form():
    spec = parse_template(FIXTURE.read_text(encoding="utf-8"))
    resolved = resolve_sizes(spec, SIZES, _bindings())
    assert [(c.offset, c.size) for c in resolved.checks] == [
        (32, 4),  # sizeof(thread_id) -> jet_thread_id_t
        (72, 32),  # sizeof(max_name_t) -> type lookup
        (120, 8),  # sizeof(*entry) -> void*
        (144, 16),  # sizeof(*status) -> jet_thread_status_t
    ]
    assert len(resolved.pre) == 1 and len(resolved.post) == 3


def test_resolve_sizes_errors():
    spec = parse_template(FIXTURE.read_text(encoding="utf-8"))
    bindings = _bindings()
    with pytest.raises(UnknownType):
        resolve_sizes(spec, TypeSizeTable({}), bindings)
    short = dict(bindings)
    short["status"] = ParamBinding(144, length=8)  # needs 16
    with pytest.raises(BindError):
        resolve_sizes(spec, SIZES, short)
    missing = dict(bindings)
    del missing["entry"]
    with pytest.raises(BindError):
        resolve_sizes(spec, SIZES, missing)
    deref_of_value = parse_template(
        "//!PRE: msan_check(a, sizeof(*a));\nsyscall_declare(int, f, int, a);"
    )
    with pytest.raises(UnknownType):
        resolve_sizes(
            deref_of_value,
            TypeSizeTable({"int": 4}),
            {"a": ParamBinding(32)},
        )


def test_type_size_table_validation():
    with pytest.raises(ConfigError):
        TypeSizeTable({"t": 0})
    with pytest.raises(UnknownType):
        SIZES.size_of("unknown_t")


def test_enforce_pre_fires_on_uninitialized_input():
    spec = parse_template(FIXTURE.read_text(encoding="utf-8"))
    shadow = InitShadow(1, 256)
    resolved = resolve_sizes(spec, SIZES, _bindings())
    violation = enforce_pre(resolved, shadow)
    assert violation is not None
    assert violation.offset == 32
    assert violation.context == UseSite.SYSCALL_PRE.value


def test_enforce_pre_passes_after_write_and_post_unpoisons_on_success():
    spec = parse_template(FIXTURE.read_text(encoding="utf-8"))
    shadow = InitShadow(1, 256)
    shadow.mark_initialized(32, 4, "write:w0")
    resolved = resolve_sizes(spec, SIZES, _bindings())
    assert enforce_pre(resolved, shadow) is None
    assert enforce_post(resolved, shadow, syscall_succeeded=True) is None
    for start, length in ((72, 32), (120, 8), (144, 16)):
        assert shadow.check(start, length, UseSite.BRANCH) is None
        assert shadow.origin_at(start) == "annotation"


def test_enforce_post_skipped_on_failure():
    spec = parse_template(FIXTURE.read_text(encoding="utf-8"))
    shadow = InitShadow(1, 256)
    shadow.mark_initialized(32, 4, "write:w0")
    resolved = resolve_sizes(spec, SIZES, _bindings())
    assert enforce_pre(resolved, shadow) is None
    assert enforce_post(resolved, shadow, syscall_succeeded=False) is None
    assert shadow.check(72, 32, UseSite.BRANCH) is not None


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
        "a": ParamBinding(0),
        "b": ParamBinding(8),
    }
    resolved = resolve_sizes(spec, TypeSizeTable({}), bindings)
    violation = enforce_pre(resolved, shadow)
    assert violation.offset == 0
    # the unpoison after the failing check never ran
    assert shadow.check(8, 4, UseSite.BRANCH) is not None
    shadow.mark_initialized(0, 4, "w")
    assert enforce_pre(resolved, shadow) is None
    assert shadow.check(8, 4, UseSite.BRANCH) is None
