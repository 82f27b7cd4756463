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
from typing import NamedTuple

from .errors import BindError, ParseError, UnknownType
from .msan_shadow import InitShadow
from .violations import UseSite


class Directive(NamedTuple):
    """One PRE or POST annotation in the template's own words."""

    phase: str  # "PRE" or "POST"
    call: str  # "msan_check" or "msan_unpoison"
    form: str  # the target's prefix: "" (p), "&" (&p) or "*" (*p)
    param: str  # the target parameter
    size: int | str  # a byte count, or the sizeof operand: "t" or "*p"


class SyscallSpec(NamedTuple):
    """One parsed template: declaration plus its contract annotations."""

    user_name: str
    return_type: str
    syscall_name: str
    params: tuple  # of (type_token, param_name) pairs
    checks: tuple  # of Directive, in source order


# -- lexer -------------------------------------------------------------------


# one alternative per token, tried in order at each position; whitespace
# matches none of them, so findall skips it
_LEXEME = re.compile(r"//!?|/\*|[A-Za-z_][A-Za-z0-9_]*|[0-9]+|\S")

#: token kind by the token's first character (names, integers and
#: punctuation) or, for a token that starts with "/", by its whole text
_KINDS = {
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "IDENT"),
    **dict.fromkeys("0123456789", "INT"),
    **dict.fromkeys("()&*,;:", "PUNCT"),
    "//!": "BANG",
    "//": "COMMENT",
    "/*": "COMMENT",
}


def _position(text: str, index: int) -> tuple:
    """Line and column of token ``index`` of ``text``, or of the end of
    input when ``index`` is the token count.  Only an error needs them, so
    they are found by scanning the text again."""
    start = len(text)
    for i, match in enumerate(_LEXEME.finditer(text)):
        if i == index:
            start = match.start()
            break
    line_start = text.rfind("\n", 0, start) + 1
    return text.count("\n", 0, start) + 1, start - line_start + 1


def _tokenize(text: str) -> tuple:
    """The token texts of ``text``, then the end of input, and their kinds
    (BANG, IDENT, INT, PUNCT, EOF); a plain comment or any other character
    is a ParseError at the first one."""
    tokens = _LEXEME.findall(text)
    kinds = [_KINDS.get(tok[0]) or _KINDS.get(tok, "OTHER") for tok in tokens]
    if "COMMENT" in kinds or "OTHER" in kinds:
        index = next(i for i, kind in enumerate(kinds) if kind in ("COMMENT", "OTHER"))
        if kinds[index] == "COMMENT":
            message = "plain comments are not part of the template grammar"
        else:
            message = f"unexpected character {tokens[index]!r}"
        raise ParseError(message, *_position(text, index))
    # the end of input is a token no expected one matches
    tokens.append("")
    kinds.append("EOF")
    return tokens, kinds


# -- parser -------------------------------------------------------------------


class _Parser:
    """Reads the token texts in order; a token is named by its index, and
    its line and column are found only for an error."""

    def __init__(self, text: str):
        self.text = text
        self.tokens, self.kinds = _tokenize(text)
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos]

    def next(self) -> int:
        """Consume one token; returns its index."""
        self.pos += 1
        return self.pos - 1

    def fail(self, message: str, index: int):
        raise ParseError(message, *_position(self.text, index))

    def expect_punct(self, char: str) -> None:
        index = self.next()
        tok = self.tokens[index]
        if tok != char:  # a token with a punctuation character's text is one
            self.fail(f"expected '{char}', got {tok!r}", index)

    def expect_ident(self, what: str) -> int:
        index = self.next()
        if self.kinds[index] != "IDENT":
            self.fail(f"expected {what}, got {self.tokens[index]!r}", index)
        return index

    def accept_punct(self, char: str) -> bool:
        if self.tokens[self.pos] == char:
            self.pos += 1
            return True
        return False

    # annotations --------------------------------------------------------

    def parse_annotation(self):
        """``("USER_NAME", name, keyword index)``, or a PRE or POST
        directive's draft from parse_call."""
        key = self.expect_ident("annotation keyword")
        keyword = self.tokens[key]
        if keyword == "USER_NAME":
            self.expect_punct(":")
            name = self.expect_ident("user-facing syscall name")
            return (keyword, self.tokens[name], key)
        if keyword in ("PRE", "POST"):
            self.expect_punct(":")
            return self.parse_call(keyword)
        self.fail(f"unknown annotation keyword '{keyword}'", key)

    def parse_call(self, phase: str):
        """The directive's words, with the indexes of its target and size
        tokens in place of the names the declaration has yet to bind:
        ``(phase, call, form, target index, size, size index)``."""
        fn = self.expect_ident("msan_check or msan_unpoison")
        call = self.tokens[fn]
        if call not in ("msan_check", "msan_unpoison"):
            self.fail(f"unknown annotation call '{call}'", fn)
        if phase == "POST" and call == "msan_check":
            # a POST check would run after the kernel consumed the input
            self.fail("POST annotations can only msan_unpoison outputs", fn)
        self.expect_punct("(")
        form = self.tokens[self.next()] if self.peek() in ("&", "*") else ""
        target = self.expect_ident("parameter name")
        self.expect_punct(",")
        size, size_index = self.parse_size()
        self.expect_punct(")")
        self.accept_punct(";")
        return phase, call, form, target, size, size_index

    def parse_size(self):
        """A literal's value or the sizeof operand (``"t"`` or ``"*p"``),
        and the index of the literal or the sizeof name."""
        index = self.next()
        tok = self.tokens[index]
        if self.kinds[index] == "INT":
            try:
                return int(tok), index
            except ValueError:  # more digits than int() converts
                self.fail(f"size literal of {len(tok)} digits is too long", index)
        if tok == "sizeof":
            self.expect_punct("(")
            deref = "*" if self.accept_punct("*") else ""
            index = self.expect_ident("type or parameter name")
            self.expect_punct(")")
            return deref + self.tokens[index], index
        self.fail("expected a byte count or sizeof(...)", index)

    # declaration --------------------------------------------------------

    def parse_type_token(self) -> str:
        base = self.tokens[self.expect_ident("type name")]
        stars = ""
        while self.accept_punct("*"):
            stars += "*"
        return base + stars

    def parse_declaration(self):
        decl = self.expect_ident("syscall_declare")
        if self.tokens[decl] != "syscall_declare":
            self.fail(f"expected syscall_declare, got '{self.tokens[decl]}'", decl)
        self.expect_punct("(")
        return_type = self.parse_type_token()
        self.expect_punct(",")
        syscall_name = self.tokens[self.expect_ident("syscall name")]
        params = []
        while self.accept_punct(","):
            ptype = self.parse_type_token()
            self.expect_punct(",")
            index = self.expect_ident("parameter name")
            pname = self.tokens[index]
            if any(existing == pname for _, existing in params):
                self.fail(f"duplicate parameter name '{pname}'", index)
            params.append((ptype, pname))
        self.expect_punct(")")
        self.accept_punct(";")
        return return_type, syscall_name, tuple(params)


def parse_template(text: str) -> SyscallSpec:
    """Parse one annotated declaration into a SyscallSpec.

    Annotations come first and may reference parameters of the declaration
    that follows; their names are therefore checked after the declaration
    is read.  A sizeof operand stays as written; resolve_sizes turns it
    into a type.
    """
    parser = _Parser(text)
    tokens = parser.tokens
    drafts = []
    user_name = None
    while parser.peek() == "//!":
        parser.next()
        ann = parser.parse_annotation()
        if ann[0] == "USER_NAME":
            if user_name is not None:
                parser.fail("duplicate USER_NAME annotation", ann[2])
            user_name = ann[1]
        else:
            drafts.append(ann)
    return_type, syscall_name, params = parser.parse_declaration()
    tail = parser.next()
    if parser.kinds[tail] != "EOF":
        parser.fail(f"unexpected trailing input {tokens[tail]!r}", tail)

    param_names = {name for _, name in params}

    checks = []
    for phase, call, form, target, size, size_index in drafts:
        name = tokens[target]
        if name not in param_names:
            parser.fail(f"target '{name}' is not a parameter of '{syscall_name}'", target)
        if isinstance(size, int):
            if size < 1:
                parser.fail("size literal must be >= 1", size_index)
        elif size[0] == "*" and size[1:] not in param_names:
            parser.fail(
                f"sizeof({size}) needs a parameter, '{size[1:]}' is not one",
                size_index,
            )
        checks.append(Directive(phase, call, form, name, size))

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
    for d in spec.checks:
        size = d.size if isinstance(d.size, int) else f"sizeof({d.size})"
        lines.append(f"//!{d.phase}: {d.call}({d.form}{d.param}, {size});")
    head = f"syscall_declare({spec.return_type}, {spec.syscall_name}"
    if spec.params:
        param_lines = [f"    {ptype}, {pname}" for ptype, pname in spec.params]
        lines.append(head + ",\n" + ",\n".join(param_lines) + ");")
    else:
        lines.append(head + ");")
    return "\n".join(lines) + "\n"


# -- size resolution and enforcement ---------------------------------------------


def resolve_sizes(spec: SyscallSpec, sizes: dict, bindings: dict) -> tuple:
    """Bind every directive to a concrete offset and byte count: a
    ``(directive, offset, size)`` triple each, in source order.

    ``sizes`` maps type names (exact token, stars included) to byte counts.
    ``sizeof(x)`` is the size of parameter ``x``'s declared type when the
    template has a parameter ``x``, else of the type ``x``; ``sizeof(*p)``
    is the size of pointer parameter ``p``'s pointee type.
    ``bindings`` maps parameters to ``{"offset": offset, "len"?: capacity}``,
    the offset absolute in the partition, one for each directive's target,
    as the loader checks; a directive resolving to more bytes than its
    parameter's ``len`` is a template/binding mismatch and raises BindError.
    """
    declared = {pname: ptype for ptype, pname in spec.params}
    resolved = []
    for d in spec.checks:
        binding = bindings[d.param]
        size = d.size
        if not isinstance(size, int):
            deref = size[0] == "*"
            name = size[1:] if deref else size
            type_name = declared.get(name, name)
            if deref:
                if not type_name.endswith("*"):
                    raise UnknownType(
                        f"sizeof({size}) needs a pointer type, '{type_name}' is not one"
                    )
                type_name = type_name[:-1]
            size = sizes.get(type_name)
            if size is None:
                raise UnknownType(f"no size known for type '{type_name}'")
        length = binding.get("len")
        if length is not None and size > length:
            raise BindError(
                f"directive on '{d.param}' needs {size} bytes, "
                f"binding provides {length}",
                d.param,
            )
        resolved.append((d, binding["offset"], size))
    return tuple(resolved)


def enforce_pre(resolved: tuple, shadow: InitShadow):
    """Run the PRE directives of ``resolved`` in order on the calling
    partition's ``shadow``; stops at the first violation.  A PRE violation
    means the syscall never runs, so POST directives must not be applied
    afterwards.
    """
    for directive, offset, size in resolved:
        if directive.phase != "PRE":
            continue
        if directive.call == "msan_check":
            violation = shadow.check(offset, size, UseSite.SYSCALL_PRE)
            if violation is not None:
                return violation
        else:
            shadow.mark_initialized(
                offset, size, origin="annotation", force=False
            )
    return None


def enforce_post(resolved: tuple, shadow: InitShadow, syscall_succeeded: bool) -> None:
    """Apply POST unpoisons, but only when the syscall actually succeeded;
    a failed syscall wrote nothing, so its outputs stay uninitialized.
    POST holds no checks (the parser rejects them), so nothing is reported."""
    if not syscall_succeeded:
        return
    for directive, offset, size in resolved:
        if directive.phase == "POST":
            shadow.mark_initialized(
                offset, size, origin="annotation", force=False
            )
