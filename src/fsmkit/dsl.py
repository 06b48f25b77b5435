"""Text format for machine descriptions: `.fsm` files.

Line-oriented grammar, `#` comments, one directive per line:

    fsm <name>
    inputs <name>...
    outputs <name>...
    pulses <name>...
    initial <state>
    reset <input>            # optional
    state <Name> { <out>=<bit> ... }
    trans <Src> -> <Dst> when <expr> [emit <pulse>...]

Guard expressions use `!` (highest), `&`, `|` (lowest), parentheses, and the
literals `0`/`1`.  Names match ``[A-Za-z_][A-Za-z0-9_]*`` and are
case-sensitive; `when` and `emit` are reserved.

`parse` reads the text in one pass over its lines.  Each line, up to any
`#`, becomes a list of token strings through one `findall`, and is checked
against the grammar by token index.  A token's column is worked out only
when a diagnostic needs its span, by scanning its line again.  An error ends
only its own line, so one pass reports as many errors as possible; names
that other lines declare are resolved once every line is read.  `serialize`
emits a canonical form that `parse` maps back to a structurally equal spec.
"""
from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Container, Iterable
from itertools import accumulate

from .model import (
    MAX_INPUTS, And, Const, FsmError, FsmSpec, GuardExpr, Not, Or, StateDef, StructuralError,
    Transition, Var, value_type,
)

SYNTAX = "syntax"
UNKNOWN_SIGNAL = "unknown-signal"
DUPLICATE_NAME = "duplicate-name"
BAD_BIT = "bad-bit"

# Directives are recognized positionally at line start, so most directive
# keywords are fine as signal/state names (the bundled controller has an input
# named `reset`).  Only the in-line markers are truly ambiguous.
NAME_RESERVED = frozenset({"when", "emit"})

# Cap on guard nesting, applied to parentheses and to the operators on any
# root-to-leaf path.  Parsing recurses at most 3 frames per parenthesis,
# evaluation, printing and emission 1 per operator: all stay under the
# default limit 1000.
MAX_GUARD_DEPTH = 100
# `parse` also refuses more inputs than `model.MAX_INPUTS`, which validation caps.

_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|->|[0-9]+|[!&|(){}=]|\S")
# A token of _TOKEN_RE is a name exactly when its first character is one of these.
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_BITS = {"0": 0, "1": 1}


SourceSpan = value_type(namedtuple("SourceSpan", "line column length"))  # line, column 1-based


@value_type
class ParseError(namedtuple("ParseError", "span kind message")):
    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.span.line}:{self.span.column}: {self.kind}: {self.message}"


class ParseFailure(FsmError):
    """Raised when a source text cannot be parsed; carries all errors found."""

    def __init__(self, errors: list[ParseError]):
        self.errors = errors
        super().__init__("; ".join(str(e) for e in errors))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

class _LineError(Exception):
    """A line's first error, which ends the line.  Its arguments are those of
    `_error` after the line number: the token index it points at (past the
    last token for the line's end), message, and optionally kind and stop."""


def _error(lines: list[str], lineno: int, index: int, message: str, kind: str = SYNTAX,
           stop: int | None = None) -> ParseError:
    """The diagnostic for a `_LineError` of line `lineno`, whose tokens are
    found again, as `parse` found them, for their columns."""
    bounds = [m.span() for m in _TOKEN_RE.finditer(lines[lineno - 1].split("#", 1)[0])]
    if index >= len(bounds):
        return ParseError(SourceSpan(lineno, bounds[-1][1] + 1, 1), kind, message)
    start = bounds[index][0]
    width = bounds[(stop or index + 1) - 1][1] - start
    return ParseError(SourceSpan(lineno, start + 1, width), kind, message)


def _undeclared(lines: list[str], lineno: int, toks: list[str], indices: Iterable[int],
                what: str, known: Container[str]) -> list[ParseError]:
    """An error for each name not in `known` among `toks`, the tokens of line
    `lineno`, at `indices`; a token there that is no name is skipped."""
    return [_error(lines, lineno, i, f"'{toks[i]}' is not a declared {what}", UNKNOWN_SIGNAL)
            for i in indices if toks[i][0] in _NAME_START and toks[i] not in known]


def _name(toks: list[str], i: int, what: str) -> str:
    """toks[i], if it is a name that is not reserved."""
    if i < len(toks):
        if toks[i] in NAME_RESERVED:
            raise _LineError(i, f"'{toks[i]}' is a reserved word, not a valid {what}")
        if toks[i][0] in _NAME_START:
            return toks[i]
    raise _LineError(i, f"expected {what}")


def _names_end(toks: list[str], i: int) -> int:
    """The index of the first token from toks[i] on that `_name` refuses, or
    the line's length."""
    for j in range(i, len(toks)):
        if toks[j][0] not in _NAME_START or toks[j] in NAME_RESERVED:
            return j
    return len(toks)


def _expect(toks: list[str], i: int, literal: str) -> None:
    if i >= len(toks) or toks[i] != literal:
        raise _LineError(i, f"expected '{literal}'")


def _end(toks: list[str], i: int) -> None:
    if i < len(toks):
        raise _LineError(i, "unexpected trailing tokens")


def _parse_guard(toks: list[str], leaves: dict[str, GuardExpr]) -> tuple[GuardExpr, int]:
    """The guard from toks[5], after `trans A -> B when`, nested at most
    MAX_GUARD_DEPTH deep, and the index past it.  Parentheses are counted
    first, since `_guard` recurses on them."""
    end = toks.index("emit") if "emit" in toks else len(toks)
    parens = accumulate({"(": 1, ")": -1}.get(t, 0) for t in toks[5:end])
    if max(parens, default=0) <= MAX_GUARD_DEPTH:
        guard, depth, i = _guard(toks, 5, leaves)
        if depth <= MAX_GUARD_DEPTH:
            return guard, i
    raise _LineError(5, f"guard nests deeper than {MAX_GUARD_DEPTH} levels", SYNTAX, end)


_BINARY = {"|": (1, Or), "&": (2, And)}  # operator -> (precedence, node)


def _guard(toks: list[str], i: int, leaves: dict[str, GuardExpr],
           least: int = 1) -> tuple[GuardExpr, int, int]:
    """The expression at toks[i] whose binary operators bind at least as
    tightly as `least`, by precedence climbing: (expression, the most
    operators on one of its root-to-leaf paths, the index past it).
    `leaves` maps `0`, `1` and each input name read so far to its leaf."""
    n = len(toks)
    first = i
    while i < n and toks[i] == "!":
        i += 1
    nots = i - first
    if i < n and toks[i] == "(":
        expr, depth, i = _guard(toks, i + 1, leaves)
        _expect(toks, i, ")")
    else:
        expr = leaves.get(toks[i]) if i < n else None
        if expr is None:
            if i == n or toks[i][0] not in _NAME_START or toks[i] in NAME_RESERVED:
                raise _LineError(i, "expected guard expression")
            expr = leaves[toks[i]] = Var(toks[i])
        depth = 0
    i += 1
    for _ in range(nots):
        expr = Not(expr)
    depth += nots
    while i < n and (op := _BINARY.get(toks[i])) is not None and op[0] >= least:
        right, right_depth, i = _guard(toks, i + 1, leaves, op[0] + 1)
        expr, depth = op[1](expr, right), 1 + max(depth, right_depth)
    return expr, depth, i


def parse(text: str) -> FsmSpec:
    """Parse `.fsm` source into a spec; raises ParseFailure listing every
    error found (with 1-based source spans) if the text is malformed."""
    lines = text.split("\n")
    errors: list[ParseError] = []
    name: str | None = None
    inputs: list[str] = []
    outputs: list[str] = []
    pulses: list[str] = []
    declared = {"inputs": inputs, "outputs": outputs, "pulses": pulses}
    signal_lines: list[tuple[int, list[str]]] = []  # (line number, the names it declares)
    once: dict[str, tuple[int, str]] = {}  # "initial" and "reset" -> (line number, name)
    # state name -> {output name -> bit}, in declaration order
    states: dict[str, dict[str, int]] = {}
    # (line number, tokens, assignments) of each state line, which an error may cut short
    assignments: list[tuple[int, list[str], dict[str, int]]] = []
    # (line number, tokens, guard, index of `emit` or the line's end)
    transitions: list[tuple[int, list[str], GuardExpr, int]] = []
    leaves: dict[str, GuardExpr] = {"0": Const(0), "1": Const(1)}

    findall = _TOKEN_RE.findall
    saw_any = False
    for lineno, line in enumerate(lines, start=1):
        # The grammar has no string literals, so `#` always starts a comment.
        toks = findall(line.split("#", 1)[0])
        if not toks:
            continue
        head, n = toks[0], len(toks)
        try:
            if not saw_any:
                saw_any = True
                if head != "fsm":
                    raise _LineError(0, "missing fsm header")
                name = _name(toks, 1, "machine name")
                _end(toks, 2)
            elif head == "trans":
                _name(toks, 1, "source state")
                _expect(toks, 2, "->")
                _name(toks, 3, "destination state")
                _expect(toks, 4, "when")
                guard, i = _parse_guard(toks, leaves)
                if i < n:
                    if toks[i] != "emit":
                        raise _LineError(i, "expected 'emit' or end of line")
                    if (j := _names_end(toks, i + 1)) < n:
                        _name(toks, j, "pulse name")
                    if j == i + 1:
                        raise _LineError(n, "expected pulse name after 'emit'")
                transitions.append((lineno, toks, guard, i))
            elif head == "state":
                sname = _name(toks, 1, "state name")
                if sname in states:
                    raise _LineError(1, f"duplicate state name '{sname}'", DUPLICATE_NAME)
                _expect(toks, 2, "{")
                assigns: dict[str, int] = {}
                assignments.append((lineno, toks, assigns))
                i = 3
                while i < n and toks[i] != "}":
                    out = _name(toks, i, "output name")
                    _expect(toks, i + 1, "=")
                    if i + 2 == n:
                        raise _LineError(n, "expected bit value")
                    if (bit := _BITS.get(toks[i + 2])) is None:
                        raise _LineError(i + 2, f"bit value must be 0 or 1, got '{toks[i + 2]}'",
                                         BAD_BIT)
                    if out in assigns:
                        raise _LineError(i, f"duplicate assignment to '{out}'", DUPLICATE_NAME)
                    assigns[out] = bit
                    i += 3
                _expect(toks, i, "}")
                _end(toks, i + 1)
                states[sname] = assigns
            elif (target := declared.get(head)) is not None:
                i = _names_end(toks, 1)
                names = toks[1:i]
                target += names
                signal_lines.append((lineno, names))
                if i < n:
                    _name(toks, i, "signal name")
                if target is inputs and len(inputs) > MAX_INPUTS:
                    raise _LineError(
                        0, f"{len(inputs)} inputs declared; at most {MAX_INPUTS} are supported")
            elif head in ("initial", "reset"):
                if head in once:
                    raise _LineError(0, f"duplicate {head} directive")
                once[head] = lineno, _name(
                    toks, 1, "state name" if head == "initial" else "input name")
                _end(toks, 2)
            elif head == "fsm":
                raise _LineError(0, "duplicate fsm header")
            else:
                raise _LineError(0, f"unknown directive '{head}'")
        except _LineError as e:
            errors.append(_error(lines, lineno, *e.args))

    if not saw_any:
        errors.append(ParseError(SourceSpan(1, 1, 1), SYNTAX, "missing fsm header"))

    # Cross-line resolution, in source order within each kind of check.  A
    # name's span is found only when it is a duplicate or undeclared.
    seen: set[str] = set()
    for lineno, names in signal_lines:
        for i, signal in enumerate(names, start=1):
            if signal in seen:
                errors.append(_error(lines, lineno, i, f"duplicate signal name '{signal}'",
                                     DUPLICATE_NAME))
            seen.add(signal)
    known_inputs, known_pulses = set(inputs), set(pulses)
    for lineno, toks, assigns in assignments:
        errors += _undeclared(lines, lineno, toks, range(3, 3 * len(assigns) + 1, 3), "output",
                              outputs)
    for lineno, toks, guard, i in transitions:
        errors += _undeclared(lines, lineno, toks, (1, 3), "state", states)
        errors += _undeclared(lines, lineno, toks, range(5, i), "input", known_inputs)
        errors += _undeclared(lines, lineno, toks, range(i + 1, len(toks)), "pulse", known_pulses)
    initial, reset = once.get("initial"), once.get("reset")
    if name is not None:
        if initial is None:
            errors.append(ParseError(SourceSpan(1, 1, 1), SYNTAX, "missing initial directive"))
        elif initial[1] not in states:
            errors.append(_error(lines, initial[0], 1, f"initial state '{initial[1]}' is not "
                                 "declared", UNKNOWN_SIGNAL))
        if reset is not None and reset[1] not in known_inputs:
            errors.append(_error(lines, reset[0], 1, f"reset input '{reset[1]}' is not a "
                                 "declared input", UNKNOWN_SIGNAL))

    if errors:
        raise ParseFailure(errors)
    by_source: dict[str, list[Transition]] = {s: [] for s in states}
    for lineno, toks, guard, i in transitions:
        by_source[toks[1]].append(Transition(guard, toks[3], frozenset(toks[i + 1:])))
    return FsmSpec(
        name=name,
        inputs=tuple(inputs),
        moore_outputs=tuple(outputs),
        pulse_outputs=tuple(pulses),
        states=tuple(StateDef(s, assigns, tuple(by_source[s])) for s, assigns in states.items()),
        initial_state=initial[1],
        reset_input=reset[1] if reset is not None else None,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_PREC = {Or: 1, And: 2, Not: 3}


def format_guard(expr: GuardExpr, literals: tuple[str, str] = ("0", "1"),
                 _parent_prec: int = 0) -> str:
    """Canonical text of a guard, with minimal parentheses.  `literals`
    spells the constants 0 and 1, e.g. ("1'b0", "1'b1") for Verilog."""
    if isinstance(expr, Var) and isinstance(expr.name, str):
        return expr.name
    if isinstance(expr, Const):
        return literals[1 if expr.value else 0]
    prec = _PREC.get(type(expr))
    if prec is None:
        raise StructuralError(f"not a guard expression: {expr!r}")
    if isinstance(expr, Not):
        text = "!" + format_guard(expr.operand, literals, prec)
    else:
        op = " & " if isinstance(expr, And) else " | "
        text = (format_guard(expr.left, literals, prec) + op
                + format_guard(expr.right, literals, prec + 1))
    return f"({text})" if prec < _parent_prec else text


def serialize(spec: FsmSpec) -> str:
    """Canonical `.fsm` text: fixed directive order, declaration-order states
    and transitions, assignments ordered by output declaration.  Byte-stable
    for equal specs, and a fixed point of parse-then-serialize."""
    lines = [f"fsm {spec.name}"]
    if spec.inputs:
        lines.append("inputs " + " ".join(spec.inputs))
    if spec.moore_outputs:
        lines.append("outputs " + " ".join(spec.moore_outputs))
    if spec.pulse_outputs:
        lines.append("pulses " + " ".join(spec.pulse_outputs))
    lines.append(f"initial {spec.initial_state}")
    if spec.reset_input is not None:
        lines.append(f"reset {spec.reset_input}")
    output_order = {name: i for i, name in enumerate(spec.moore_outputs)}
    for s in spec.states:
        assigns = sorted(s.moore_assignments.items(),
                         key=lambda kv: output_order.get(kv[0], len(output_order)))
        body = " ".join(f"{k}={v}" for k, v in assigns)
        lines.append(f"state {s.name} {{ {body} }}" if body else f"state {s.name} {{ }}")
    pulse_order = {name: i for i, name in enumerate(spec.pulse_outputs)}
    for s in spec.states:
        for t in s.transitions:
            line = f"trans {s.name} -> {t.destination} when {format_guard(t.guard)}"
            if t.pulses:
                ordered = sorted(t.pulses, key=lambda p: pulse_order.get(p, len(pulse_order)))
                line += " emit " + " ".join(ordered)
            lines.append(line)
    return "\n".join(lines) + "\n"
