"""The `.fsm` parser as it was before `dsl.parse` tokenized each line with one
`findall`: a cursor object over per-token namedtuples, kept unchanged as the
oracle that `tests/test_dsl.py` compares the current parser against.  It
shares the error and spec types with `fsmkit.dsl`, so results compare equal.
"""
from __future__ import annotations

import itertools
import re
from collections import namedtuple
from collections.abc import Container

from fsmkit.dsl import (
    BAD_BIT, DUPLICATE_NAME, MAX_GUARD_DEPTH, NAME_RESERVED, SYNTAX, UNKNOWN_SIGNAL, ParseError,
    ParseFailure, SourceSpan,
)
from fsmkit.model import (
    MAX_INPUTS, And, Const, FsmSpec, GuardExpr, Not, Or, StateDef, Transition, Var,
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|->|[0-9]+|[!&|(){}=]|\S")


class _Token(namedtuple("_Token", "text line column")):
    __slots__ = ()

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.column, max(1, len(self.text)))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

class _LineParser:
    """Cursor over one line's tokens, at least one; errors abort only the
    current line.  `guard_vars` collects the input names a guard reads."""

    def __init__(self, tokens: list[_Token], errors: list[ParseError]):
        self.tokens = tokens
        self.pos = 0
        self.errors = errors
        self.guard_vars: list[_Token] = []

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token | None:
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def end_span(self) -> SourceSpan:
        last = self.tokens[-1]
        return SourceSpan(last.line, last.column + len(last.text), 1)

    def fail(self, message: str, tok: _Token | None = None, kind: str = SYNTAX,
             span: SourceSpan | None = None) -> None:
        span = span or (tok.span if tok is not None else self.end_span())
        self.errors.append(ParseError(span, kind, message))
        raise _LineAbort()

    def expect_name(self, what: str) -> _Token:
        tok = self.next()
        if tok is None or not _NAME_RE.fullmatch(tok.text):
            self.fail(f"expected {what}", tok)
        if tok.text in NAME_RESERVED:
            self.fail(f"'{tok.text}' is a reserved word, not a valid {what}", tok)
        return tok

    def expect(self, literal: str) -> _Token:
        tok = self.next()
        if tok is None or tok.text != literal:
            self.fail(f"expected '{literal}'", tok)
        return tok

    def expect_end(self) -> None:
        tok = self.peek()
        if tok is not None:
            self.fail("unexpected trailing tokens", tok)


class _LineAbort(Exception):
    pass


def _parse_guard(p: _LineParser) -> GuardExpr:
    """A guard, up to `emit` or the line's end, nested at most MAX_GUARD_DEPTH
    deep.  Parentheses are counted first, since the parser recurses on them."""
    toks = list(itertools.takewhile(lambda t: t.text != "emit", p.tokens[p.pos:]))
    parens = itertools.accumulate({"(": 1, ")": -1}.get(t.text, 0) for t in toks)
    if max(parens, default=0) <= MAX_GUARD_DEPTH:
        guard, depth = _parse_binary(p)
        if depth <= MAX_GUARD_DEPTH:
            return guard
    width = toks[-1].column + len(toks[-1].text) - toks[0].column
    p.fail(f"guard nests deeper than {MAX_GUARD_DEPTH} levels",
           span=SourceSpan(toks[0].line, toks[0].column, width))


_BINARY = (("|", Or), ("&", And))  # loosest first


def _parse_binary(p: _LineParser, level: int = 0) -> tuple[GuardExpr, int]:
    """An expression and the most operators on one of its root-to-leaf
    paths; `_parse_unary` and `_parse_atom` return the same pair."""
    if level == len(_BINARY):
        return _parse_unary(p)
    op, node = _BINARY[level]
    expr, depth = _parse_binary(p, level + 1)
    while (tok := p.peek()) is not None and tok.text == op:
        p.next()
        right, right_depth = _parse_binary(p, level + 1)
        expr, depth = node(expr, right), 1 + max(depth, right_depth)
    return expr, depth


def _parse_unary(p: _LineParser) -> tuple[GuardExpr, int]:
    nots = 0
    while (tok := p.peek()) is not None and tok.text == "!":
        p.next()
        nots += 1
    expr, depth = _parse_atom(p)
    for _ in range(nots):
        expr = Not(expr)
    return expr, depth + nots


def _parse_atom(p: _LineParser) -> tuple[GuardExpr, int]:
    tok = p.next()
    if tok is None:
        p.fail("expected guard expression")
    if tok.text == "(":
        parsed = _parse_binary(p)
        p.expect(")")
        return parsed
    if tok.text in ("0", "1"):
        return Const(int(tok.text)), 0
    if _NAME_RE.fullmatch(tok.text) and tok.text not in NAME_RESERVED:
        p.guard_vars.append(tok)
        return Var(tok.text), 0
    p.fail("expected guard expression", tok)


# source and destination are _Tokens; guard_vars and pulses are lists of them.
_PendingTrans = namedtuple("_PendingTrans", "source destination guard guard_vars pulses")


def parse(text: str) -> FsmSpec:
    """Parse `.fsm` source into a spec; raises ParseFailure listing every
    error found (with 1-based source spans) if the text is malformed."""
    errors: list[ParseError] = []
    name: str | None = None
    inputs: list[str] = []
    outputs: list[str] = []
    pulses: list[str] = []
    once: dict[str, _Token] = {}  # "initial" and "reset" -> the name each gives
    # state name -> {output name -> bit}, in declaration order
    states: dict[str, dict[str, int]] = {}
    output_toks: list[_Token] = []  # the output of every state assignment
    transitions: list[_PendingTrans] = []
    signal_toks: list[_Token] = []

    saw_any = False
    for lineno, raw in enumerate(text.split("\n"), start=1):
        # The grammar has no string literals, so `#` always starts a comment.
        tokens = [_Token(m.group(), lineno, m.start() + 1)
                  for m in _TOKEN_RE.finditer(raw.split("#", 1)[0])]
        if not tokens:
            continue
        p = _LineParser(tokens, errors)
        head = p.next()
        try:
            if not saw_any:
                saw_any = True
                if head.text != "fsm":
                    p.fail("missing fsm header", head)
                name = p.expect_name("machine name").text
                p.expect_end()
                continue
            if head.text == "fsm":
                p.fail("duplicate fsm header", head)
            elif head.text in ("inputs", "outputs", "pulses"):
                target = {"inputs": inputs, "outputs": outputs, "pulses": pulses}[head.text]
                while p.peek() is not None:
                    tok = p.expect_name("signal name")
                    target.append(tok.text)
                    signal_toks.append(tok)
                if target is inputs and len(inputs) > MAX_INPUTS:
                    p.fail(f"{len(inputs)} inputs declared; at most {MAX_INPUTS} are supported", head)
            elif head.text in ("initial", "reset"):
                if head.text in once:
                    p.fail(f"duplicate {head.text} directive", head)
                once[head.text] = p.expect_name(
                    "state name" if head.text == "initial" else "input name")
                p.expect_end()
            elif head.text == "state":
                tok = p.expect_name("state name")
                if tok.text in states:
                    p.fail(f"duplicate state name '{tok.text}'", tok, DUPLICATE_NAME)
                assigns: dict[str, int] = {}
                p.expect("{")
                while (nxt := p.peek()) is not None and nxt.text != "}":
                    out_tok = p.expect_name("output name")
                    p.expect("=")
                    bit_tok = p.next()
                    if bit_tok is None:
                        p.fail("expected bit value")
                    if bit_tok.text not in ("0", "1"):
                        p.fail(f"bit value must be 0 or 1, got '{bit_tok.text}'",
                               bit_tok, BAD_BIT)
                    if out_tok.text in assigns:
                        p.fail(f"duplicate assignment to '{out_tok.text}'",
                               out_tok, DUPLICATE_NAME)
                    assigns[out_tok.text] = int(bit_tok.text)
                    output_toks.append(out_tok)
                p.expect("}")
                p.expect_end()
                states[tok.text] = assigns
            elif head.text == "trans":
                src = p.expect_name("source state")
                p.expect("->")
                dst = p.expect_name("destination state")
                p.expect("when")
                guard = _parse_guard(p)
                emit_pulses: list[_Token] = []
                if (nxt := p.peek()) is not None:
                    if nxt.text != "emit":
                        p.fail("expected 'emit' or end of line", nxt)
                    p.next()
                    while p.peek() is not None:
                        emit_pulses.append(p.expect_name("pulse name"))
                    if not emit_pulses:
                        p.fail("expected pulse name after 'emit'")
                transitions.append(_PendingTrans(src, dst, guard, p.guard_vars, emit_pulses))
            else:
                p.fail(f"unknown directive '{head.text}'", head)
        except _LineAbort:
            continue

    if not saw_any:
        errors.append(ParseError(SourceSpan(1, 1, 1), SYNTAX, "missing fsm header"))

    # Cross-line resolution.
    declared_signals: set[str] = set()
    for tok in signal_toks:
        if tok.text in declared_signals:
            errors.append(ParseError(
                tok.span, DUPLICATE_NAME, f"duplicate signal name '{tok.text}'"))
        declared_signals.add(tok.text)

    def undeclared(toks: list[_Token], what: str, known: Container[str]) -> None:
        errors.extend(ParseError(tok.span, UNKNOWN_SIGNAL, f"'{tok.text}' is not a declared {what}")
                      for tok in toks if tok.text not in known)

    known_inputs = set(inputs)
    undeclared(output_toks, "output", outputs)
    for t in transitions:
        undeclared([t.source, t.destination], "state", states)
        undeclared(t.guard_vars, "input", known_inputs)
        undeclared(t.pulses, "pulse", pulses)
    initial, reset = once.get("initial"), once.get("reset")
    if name is not None:
        if initial is None:
            errors.append(ParseError(
                SourceSpan(1, 1, 1), SYNTAX, "missing initial directive"))
        elif initial.text not in states:
            errors.append(ParseError(
                initial.span, UNKNOWN_SIGNAL,
                f"initial state '{initial.text}' is not declared"))
        if reset is not None and reset.text not in known_inputs:
            errors.append(ParseError(
                reset.span, UNKNOWN_SIGNAL,
                f"reset input '{reset.text}' is not a declared input"))

    if errors:
        raise ParseFailure(errors)
    assert name is not None and initial is not None

    by_source: dict[str, list[Transition]] = {s: [] for s in states}
    for t in transitions:
        by_source[t.source.text].append(Transition(
            t.guard, t.destination.text, frozenset(tok.text for tok in t.pulses)))
    state_defs = tuple(
        StateDef(sname, assigns, tuple(by_source[sname]))
        for sname, assigns in states.items()
    )
    return FsmSpec(
        name=name,
        inputs=tuple(inputs),
        moore_outputs=tuple(outputs),
        pulse_outputs=tuple(pulses),
        states=state_defs,
        initial_state=initial.text,
        reset_input=reset.text if reset is not None else None,
    )
