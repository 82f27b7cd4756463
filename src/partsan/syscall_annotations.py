"""Contract-annotation language for syscall entry points.

Kernel syscall implementations read and write user memory through typed
pointer parameters, which plain data-flow tracking cannot see through.  A
small annotation language placed next to each syscall declaration closes
the gap:

    //!USER_NAME: jet_thread_status
    //!PRE: msan_check(&thread_id, sizeof(thread_id));
    //!POST: msan_unpoison(status, sizeof(*status));
    syscall_declare(jet_syscall_thread_status_t, jet_thread_get_status,
        jet_thread_id_t, thread_id,
        jet_thread_status_t*, status);

PRE checks run before the syscall body and verify that inputs the kernel
will consume are initialized; POST unpoisons mark the outputs the kernel
filled in, and apply only if the syscall succeeded.  The grammar is
whitespace-insensitive; annotations may appear in any order but always
before the declaration they describe.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import BindError, ConfigError, ParseError, UnknownType
from .msan_shadow import InitShadow
from .violations import GuestAddr, UseSite

_PUNCT = "()&*,;:"
_CALL_NAMES = ("msan_check", "msan_unpoison")


class CheckPhase(Enum):
    PRE = "PRE"
    POST = "POST"


class CheckKind(Enum):
    MSAN_CHECK = "msan_check"
    MSAN_UNPOISON = "msan_unpoison"


class TargetForm(Enum):
    PARAM = "PARAM"          # p        -> address held in p
    ADDR_OF = "ADDR_OF"      # &p       -> address of p itself
    DEREF = "DEREF"          # *p       -> address held in p (explicit)


class SizeForm(Enum):
    LITERAL = "LITERAL"            # 16
    SIZEOF_PARAM = "SIZEOF_PARAM"  # sizeof(p)  -> size of p's declared type
    SIZEOF_TYPE = "SIZEOF_TYPE"    # sizeof(T)  -> size of type T
    SIZEOF_DEREF = "SIZEOF_DEREF"  # sizeof(*p) -> size of p's pointee type


@dataclass(frozen=True)
class TargetExpr:
    form: TargetForm
    param: str


@dataclass(frozen=True)
class SizeExpr:
    form: SizeForm
    name: str | None = None
    value: int | None = None


@dataclass(frozen=True)
class CheckDirective:
    phase: CheckPhase
    kind: CheckKind
    target: TargetExpr
    size: SizeExpr


@dataclass(frozen=True)
class SyscallSpec:
    """One parsed template: declaration plus its contract annotations."""

    user_name: str
    return_type: str
    syscall_name: str
    params: tuple  # of (type_token, param_name) pairs
    checks: tuple  # of CheckDirective, in source order

    def param_type(self, name: str) -> str:
        for ptype, pname in self.params:
            if pname == name:
                return ptype
        raise BindError(f"syscall '{self.syscall_name}' has no parameter '{name}'")


# -- lexer -------------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # BANG | IDENT | INT | PUNCT | EOF
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            col += 1
            i += 1
            continue
        if text.startswith("//!", i):
            tokens.append(_Token("BANG", "//!", line, col))
            i += 3
            col += 3
            continue
        if text.startswith("//", i) or text.startswith("/*", i):
            raise ParseError("plain comments are not part of the template grammar", line, col)
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c in _PUNCT:
            tokens.append(_Token("PUNCT", c, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


# -- parser -------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect_punct(self, char: str) -> _Token:
        tok = self.next()
        if tok.kind != "PUNCT" or tok.text != char:
            self.fail(f"expected '{char}', got {tok.text!r}", tok)
        return tok

    def expect_ident(self, what: str) -> _Token:
        tok = self.next()
        if tok.kind != "IDENT":
            self.fail(f"expected {what}, got {tok.text!r}", tok)
        return tok

    def accept_punct(self, char: str) -> bool:
        tok = self.peek()
        if tok.kind == "PUNCT" and tok.text == char:
            self.pos += 1
            return True
        return False

    # annotations --------------------------------------------------------

    def parse_annotation(self):
        key = self.expect_ident("annotation keyword")
        if key.text == "USER_NAME":
            self.expect_punct(":")
            name = self.expect_ident("user-facing syscall name")
            return ("user", name.text, key)
        if key.text in ("PRE", "POST"):
            self.expect_punct(":")
            phase = CheckPhase(key.text)
            return ("check", phase, self.parse_call(phase))
        self.fail(f"unknown annotation keyword '{key.text}'", key)

    def parse_call(self, phase: CheckPhase):
        fn = self.expect_ident("msan_check or msan_unpoison")
        if fn.text not in _CALL_NAMES:
            self.fail(f"unknown annotation call '{fn.text}'", fn)
        kind = CheckKind(fn.text)
        if phase is CheckPhase.POST and kind is CheckKind.MSAN_CHECK:
            # a POST check would run after the kernel consumed the input
            self.fail("POST annotations can only msan_unpoison outputs", fn)
        self.expect_punct("(")
        target = self.parse_target()
        self.expect_punct(",")
        size = self.parse_size()
        self.expect_punct(")")
        self.accept_punct(";")
        return kind, target, size

    def parse_target(self):
        tok = self.peek()
        if tok.kind == "PUNCT" and tok.text in "&*":
            self.next()
            name = self.expect_ident("parameter name")
            form = TargetForm.ADDR_OF if tok.text == "&" else TargetForm.DEREF
            return form, name
        name = self.expect_ident("parameter name")
        return TargetForm.PARAM, name

    def parse_size(self):
        tok = self.next()
        if tok.kind == "INT":
            return ("literal", int(tok.text), tok)
        if tok.kind == "IDENT" and tok.text == "sizeof":
            self.expect_punct("(")
            deref = self.accept_punct("*")
            name = self.expect_ident("type or parameter name")
            self.expect_punct(")")
            return ("sizeof", deref, name)
        self.fail("expected a byte count or sizeof(...)", tok)

    # declaration --------------------------------------------------------

    def parse_type_token(self) -> str:
        base = self.expect_ident("type name")
        stars = ""
        while self.accept_punct("*"):
            stars += "*"
        return base.text + stars

    def parse_declaration(self):
        decl = self.expect_ident("syscall_declare")
        if decl.text != "syscall_declare":
            self.fail(f"expected syscall_declare, got '{decl.text}'", decl)
        self.expect_punct("(")
        return_type = self.parse_type_token()
        self.expect_punct(",")
        syscall_name = self.expect_ident("syscall name").text
        params = []
        while self.accept_punct(","):
            ptype = self.parse_type_token()
            self.expect_punct(",")
            pname = self.expect_ident("parameter name")
            if any(existing == pname.text for _, existing in params):
                self.fail(f"duplicate parameter name '{pname.text}'", pname)
            params.append((ptype, pname.text))
        self.expect_punct(")")
        self.accept_punct(";")
        return return_type, syscall_name, tuple(params)


def parse_template(text: str) -> SyscallSpec:
    """Parse one annotated declaration into a SyscallSpec.

    Annotations come first and may reference parameters of the declaration
    that follows; name resolution therefore happens after the declaration
    is read.  Bare names inside sizeof resolve to a parameter when one
    matches, else to a type name.
    """
    parser = _Parser(text)
    raw_annotations = []
    user_name = None
    while parser.peek().kind == "BANG":
        parser.next()
        ann = parser.parse_annotation()
        if ann[0] == "user":
            if user_name is not None:
                parser.fail("duplicate USER_NAME annotation", ann[2])
            user_name = ann[1]
        else:
            raw_annotations.append(ann)
    return_type, syscall_name, params = parser.parse_declaration()
    tail = parser.next()
    if tail.kind != "EOF":
        parser.fail(f"unexpected trailing input {tail.text!r}", tail)

    param_names = {name for _, name in params}

    checks = []
    for _, phase, (kind, target_draft, size_draft) in raw_annotations:
        form, name_tok = target_draft
        if name_tok.text not in param_names:
            raise ParseError(
                f"target '{name_tok.text}' is not a parameter of '{syscall_name}'",
                name_tok.line,
                name_tok.col,
            )
        target = TargetExpr(form, name_tok.text)
        if size_draft[0] == "literal":
            _, value, value_tok = size_draft
            if value < 1:
                raise ParseError("size literal must be >= 1", value_tok.line, value_tok.col)
            size = SizeExpr(SizeForm.LITERAL, value=value)
        else:
            _, deref, size_tok = size_draft
            if deref:
                if size_tok.text not in param_names:
                    raise ParseError(
                        f"sizeof(*{size_tok.text}) needs a parameter, "
                        f"'{size_tok.text}' is not one",
                        size_tok.line,
                        size_tok.col,
                    )
                size = SizeExpr(SizeForm.SIZEOF_DEREF, name=size_tok.text)
            elif size_tok.text in param_names:
                size = SizeExpr(SizeForm.SIZEOF_PARAM, name=size_tok.text)
            else:
                size = SizeExpr(SizeForm.SIZEOF_TYPE, name=size_tok.text)
        checks.append(CheckDirective(phase, kind, target, size))

    return SyscallSpec(
        user_name=user_name if user_name is not None else syscall_name,
        return_type=return_type,
        syscall_name=syscall_name,
        params=params,
        checks=tuple(checks),
    )


def render_template(spec: SyscallSpec) -> str:
    """Canonical text for a spec; parse(render(spec)) == spec."""
    lines = [f"//!USER_NAME: {spec.user_name}"]
    for check in spec.checks:
        target = {
            TargetForm.PARAM: "{p}",
            TargetForm.ADDR_OF: "&{p}",
            TargetForm.DEREF: "*{p}",
        }[check.target.form].format(p=check.target.param)
        if check.size.form is SizeForm.LITERAL:
            size = str(check.size.value)
        elif check.size.form is SizeForm.SIZEOF_DEREF:
            size = f"sizeof(*{check.size.name})"
        else:
            size = f"sizeof({check.size.name})"
        lines.append(f"//!{check.phase.value}: {check.kind.value}({target}, {size});")
    head = f"syscall_declare({spec.return_type}, {spec.syscall_name}"
    if spec.params:
        param_lines = [f"    {ptype}, {pname}" for ptype, pname in spec.params]
        lines.append(head + ",\n" + ",\n".join(param_lines) + ");")
    else:
        lines.append(head + ");")
    return "\n".join(lines) + "\n"


# -- size resolution and enforcement ---------------------------------------------


class TypeSizeTable:
    """Byte sizes of named types, exact token match (stars included)."""

    def __init__(self, sizes: dict[str, int] | None = None):
        self._sizes: dict[str, int] = {}
        for name, size in (sizes or {}).items():
            self.declare(name, size)

    def declare(self, name: str, size: int) -> None:
        if size < 1:
            raise ConfigError(f"type '{name}' must have positive size, got {size}")
        self._sizes[name] = size

    def size_of(self, name: str) -> int:
        try:
            return self._sizes[name]
        except KeyError:
            raise UnknownType(f"no size known for type '{name}'") from None


@dataclass(frozen=True)
class ParamBinding:
    """Concrete address (and optional capacity) for one parameter."""

    addr: GuestAddr
    length: int | None = None


@dataclass(frozen=True)
class ResolvedCheck:
    directive: CheckDirective
    addr: GuestAddr
    size: int


@dataclass(frozen=True)
class ResolvedSpec:
    spec: SyscallSpec
    checks: tuple

    @property
    def pre(self) -> tuple:
        return tuple(c for c in self.checks if c.directive.phase is CheckPhase.PRE)

    @property
    def post(self) -> tuple:
        return tuple(c for c in self.checks if c.directive.phase is CheckPhase.POST)


def _pointee(type_token: str, param: str) -> str:
    if not type_token.endswith("*"):
        raise UnknownType(
            f"sizeof(*{param}) needs a pointer type, '{type_token}' is not one"
        )
    return type_token[:-1]


def resolve_sizes(
    spec: SyscallSpec,
    table: TypeSizeTable,
    bindings: dict[str, ParamBinding],
) -> ResolvedSpec:
    """Bind every directive to a concrete (address, byte count) pair.

    A binding's optional ``length`` is a capacity: a directive resolving to
    more bytes than its parameter's buffer is a template/binding mismatch
    and raises BindError.
    """
    resolved = []
    for check in spec.checks:
        binding = bindings.get(check.target.param)
        if binding is None:
            raise BindError(
                f"no binding for parameter '{check.target.param}' of "
                f"'{spec.syscall_name}'"
            )
        size_expr = check.size
        if size_expr.form is SizeForm.LITERAL:
            size = size_expr.value
        elif size_expr.form is SizeForm.SIZEOF_TYPE:
            size = table.size_of(size_expr.name)
        elif size_expr.form is SizeForm.SIZEOF_PARAM:
            size = table.size_of(spec.param_type(size_expr.name))
        else:  # SIZEOF_DEREF
            size = table.size_of(
                _pointee(spec.param_type(size_expr.name), size_expr.name)
            )
        if binding.length is not None and size > binding.length:
            raise BindError(
                f"directive on '{check.target.param}' needs {size} bytes, "
                f"binding provides {binding.length}"
            )
        resolved.append(ResolvedCheck(directive=check, addr=binding.addr, size=size))
    return ResolvedSpec(spec=spec, checks=tuple(resolved))


def _shadow_for(shadows, addr: GuestAddr) -> InitShadow:
    try:
        return shadows[addr.partition_id]
    except KeyError:
        raise ConfigError(f"no shadow for partition {addr.partition_id}") from None


def enforce_pre(resolved: ResolvedSpec, shadows):
    """Run PRE directives in order; stops at the first violation.

    ``shadows`` maps partition id to InitShadow.  A PRE violation means the
    syscall never runs, so POST directives must not be applied afterwards.
    """
    for check in resolved.pre:
        shadow = _shadow_for(shadows, check.addr)
        if check.directive.kind is CheckKind.MSAN_CHECK:
            violation = shadow.check(check.addr.offset, check.size, UseSite.SYSCALL_PRE)
            if violation is not None:
                return violation
        else:
            shadow.mark_initialized(
                check.addr.offset, check.size, origin="annotation", force=False
            )
    return None


def enforce_post(resolved: ResolvedSpec, shadows, syscall_succeeded: bool) -> None:
    """Apply POST unpoisons, but only when the syscall actually succeeded;
    a failed syscall wrote nothing, so its outputs stay uninitialized.
    POST holds no checks (the parser rejects them), so nothing is reported."""
    if not syscall_succeeded:
        return
    for check in resolved.post:
        _shadow_for(shadows, check.addr).mark_initialized(
            check.addr.offset, check.size, origin="annotation", force=False
        )
