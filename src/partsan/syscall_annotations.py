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

import re
from enum import Enum
from typing import NamedTuple

from .errors import BindError, ParseError, UnknownType
from .msan_shadow import InitShadow
from .violations import UseSite


class CheckPhase(Enum):
    PRE = "PRE"
    POST = "POST"


class CheckKind(Enum):
    MSAN_CHECK = "msan_check"
    MSAN_UNPOISON = "msan_unpoison"


_CALL_NAMES = frozenset(kind.value for kind in CheckKind)


class TargetForm(Enum):
    PARAM = "PARAM"          # p        -> address held in p
    ADDR_OF = "ADDR_OF"      # &p       -> address of p itself
    DEREF = "DEREF"          # *p       -> address held in p (explicit)


class SizeForm(Enum):
    LITERAL = "LITERAL"            # 16
    SIZEOF_PARAM = "SIZEOF_PARAM"  # sizeof(p)  -> size of p's declared type
    SIZEOF_TYPE = "SIZEOF_TYPE"    # sizeof(T)  -> size of type T
    SIZEOF_DEREF = "SIZEOF_DEREF"  # sizeof(*p) -> size of p's pointee type


class TargetExpr(NamedTuple):
    form: TargetForm
    param: str


class SizeExpr(NamedTuple):
    form: SizeForm
    name: str | None = None
    value: int | None = None


class CheckDirective(NamedTuple):
    phase: CheckPhase
    kind: CheckKind
    target: TargetExpr
    size: SizeExpr


class SyscallSpec(NamedTuple):
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


class _Token(NamedTuple):
    kind: str  # BANG | IDENT | INT | PUNCT | EOF
    text: str
    line: int
    col: int


# one alternative per lexeme, tried in order at each position; the groups
# that are not tokens are NEWLINE, SPACE (any other str.isspace character)
# and the rejected COMMENT and OTHER
_LEXEME = re.compile(
    r"(?P<NEWLINE>\n)|(?P<SPACE>[^\S\n]+)|(?P<BANG>//!)|(?P<COMMENT>//|/\*)"
    r"|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)|(?P<INT>[0-9]+)|(?P<PUNCT>[()&*,;:])|(?P<OTHER>.)"
)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0
    for match in _LEXEME.finditer(text):
        kind = match.lastgroup
        if kind == "NEWLINE":
            line += 1
            line_start = match.end()
        elif kind != "SPACE":
            col = match.start() - line_start + 1
            if kind == "COMMENT":
                raise ParseError("plain comments are not part of the template grammar", line, col)
            if kind == "OTHER":
                raise ParseError(f"unexpected character {match.group()!r}", line, col)
            tokens.append(_Token(kind, match.group(), line, col))
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1))
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
            try:
                return ("literal", int(tok.text), tok)
            except ValueError:  # more digits than int() converts
                self.fail(f"size literal of {len(tok.text)} digits is too long", tok)
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


class ResolvedCheck(NamedTuple):
    directive: CheckDirective
    offset: int
    size: int


def _pointee(type_token: str, param: str) -> str:
    if not type_token.endswith("*"):
        raise UnknownType(
            f"sizeof(*{param}) needs a pointer type, '{type_token}' is not one"
        )
    return type_token[:-1]


def resolve_sizes(spec: SyscallSpec, sizes: dict, bindings: dict) -> tuple:
    """Bind every directive to a concrete (offset, byte count) pair, in
    source order.

    ``sizes`` maps type names (exact token, stars included) to byte counts.
    ``bindings`` maps parameters to ``{"at": offset, "len"?: capacity}``; a
    directive resolving to more bytes than its parameter's ``len`` is a
    template/binding mismatch and raises BindError.
    """
    resolved = []
    for check in spec.checks:
        binding = bindings.get(check.target.param)
        if binding is None:
            raise BindError(
                f"no binding for parameter '{check.target.param}' of "
                f"'{spec.syscall_name}'",
                check.target.param,
            )
        size_expr = check.size
        if size_expr.form is SizeForm.LITERAL:
            size = size_expr.value
        else:
            if size_expr.form is SizeForm.SIZEOF_TYPE:
                type_name = size_expr.name
            elif size_expr.form is SizeForm.SIZEOF_PARAM:
                type_name = spec.param_type(size_expr.name)
            else:  # SIZEOF_DEREF
                type_name = _pointee(spec.param_type(size_expr.name), size_expr.name)
            size = sizes.get(type_name)
            if size is None:
                raise UnknownType(f"no size known for type '{type_name}'")
        length = binding.get("len")
        if length is not None and size > length:
            raise BindError(
                f"directive on '{check.target.param}' needs {size} bytes, "
                f"binding provides {length}",
                check.target.param,
            )
        resolved.append(ResolvedCheck(check, binding["at"], size))
    return tuple(resolved)


def enforce_pre(resolved: tuple, shadow: InitShadow):
    """Run the PRE directives of ``resolved`` in order on the calling
    partition's ``shadow``; stops at the first violation.  A PRE violation
    means the syscall never runs, so POST directives must not be applied
    afterwards.
    """
    for check in resolved:
        if check.directive.phase is not CheckPhase.PRE:
            continue
        if check.directive.kind is CheckKind.MSAN_CHECK:
            violation = shadow.check(check.offset, check.size, UseSite.SYSCALL_PRE)
            if violation is not None:
                return violation
        else:
            shadow.mark_initialized(
                check.offset, check.size, origin="annotation", force=False
            )
    return None


def enforce_post(resolved: tuple, shadow: InitShadow, syscall_succeeded: bool) -> None:
    """Apply POST unpoisons, but only when the syscall actually succeeded;
    a failed syscall wrote nothing, so its outputs stay uninitialized.
    POST holds no checks (the parser rejects them), so nothing is reported."""
    if not syscall_succeeded:
        return
    for check in resolved:
        if check.directive.phase is CheckPhase.POST:
            shadow.mark_initialized(
                check.offset, check.size, origin="annotation", force=False
            )
