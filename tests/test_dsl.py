import re
import sys

import pytest
from hypothesis import event, given, settings, strategies as st

import dsl_reference
from fsmkit import dsl
from fsmkit.model import Const, FsmSpec, StateDef, Transition, validate

from conftest import (
    EDITS, FSM_NOISE, FSM_TEXTS, FSM_TOKENS, bundled_source, edited, valid_machines,
)


class TestParse:
    def test_bundled_controller_source(self):
        spec = dsl.parse(bundled_source())
        assert spec.name == "itlc"
        assert spec.state_names() == ("S0", "S1", "S2", "S3")
        assert spec.inputs == ("reset", "c", "ts", "tl")
        assert spec.pulse_outputs == ("st",)
        assert spec.reset_input == "reset"

    def test_empty_string_reports_missing_header(self):
        with pytest.raises(dsl.ParseFailure) as exc:
            dsl.parse("")
        (err,) = exc.value.errors
        assert err.kind == dsl.SYNTAX
        assert err.message == "missing fsm header"
        assert (err.span.line, err.span.column) == (1, 1)

    def test_comment_only_source_reports_missing_header(self):
        with pytest.raises(dsl.ParseFailure) as exc:
            dsl.parse("# nothing here\n\n")
        assert exc.value.errors[0].message == "missing fsm header"

    def test_undeclared_guard_signal_with_span(self):
        src = "fsm m\ninputs a\ninitial A\nstate A { }\ntrans A -> A when x | a\n"
        with pytest.raises(dsl.ParseFailure) as exc:
            dsl.parse(src)
        (err,) = exc.value.errors
        assert err.kind == dsl.UNKNOWN_SIGNAL
        assert err.span.line == 5
        line = src.split("\n")[4]
        token = line[err.span.column - 1:err.span.column - 1 + err.span.length]
        assert token == "x"

    def test_duplicate_signal_name(self):
        src = "fsm m\ninputs a\noutputs a\ninitial A\nstate A { }\ntrans A -> A when 1\n"
        with pytest.raises(dsl.ParseFailure) as exc:
            dsl.parse(src)
        assert any(e.kind == dsl.DUPLICATE_NAME for e in exc.value.errors)

    def test_operator_chain_depth_is_capped_at_the_guard_span(self):
        def source(operators):
            guard = " | ".join(["a"] * (operators + 1))
            return (f"fsm m\ninputs a\npulses p\ninitial A\nstate A {{ }}\n"
                    f"trans A -> A when {guard} emit p\n"), guard
        text, guard = source(dsl.MAX_GUARD_DEPTH)
        spec = dsl.parse(text)
        assert dsl.format_guard(spec.states[0].transitions[0].guard) == guard
        assert validate(spec)  # a gap at a=0, found without recursing too deep
        text, guard = source(dsl.MAX_GUARD_DEPTH + 1)
        with pytest.raises(dsl.ParseFailure) as exc:
            dsl.parse(text)
        (err,) = exc.value.errors
        assert err.message == f"guard nests deeper than {dsl.MAX_GUARD_DEPTH} levels"
        line = text.split("\n")[5]
        assert line[err.span.column - 1:err.span.column - 1 + err.span.length] == guard

    def test_guard_parentheses_at_the_cap_recurse_at_most_3_frames_each(self):
        # Each `a | b & (` level climbs from `|` to `&` to the parenthesis.
        text = ("fsm m\ninputs a b\ninitial A\nstate A { }\ntrans A -> A when "
                + "a | b & (" * dsl.MAX_GUARD_DEPTH + "a" + ")" * dsl.MAX_GUARD_DEPTH + "\n")
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 3 * dsl.MAX_GUARD_DEPTH + 10)
        try:
            with pytest.raises(dsl.ParseFailure) as exc:
                dsl.parse(text)
        finally:
            sys.setrecursionlimit(limit)
        assert [str(e) for e in exc.value.errors] == [
            f"5:19: syntax: guard nests deeper than {dsl.MAX_GUARD_DEPTH} levels"]

    def test_errors_are_type_sensitive_values(self):
        span = dsl.SourceSpan(2, 5, 1)
        error = dsl.ParseError(span, dsl.SYNTAX, "expected '{'")
        assert str(error) == "2:5: syntax: expected '{'"
        assert span != (2, 5, 1) and error != (span, dsl.SYNTAX, "expected '{'")
        assert error == dsl.ParseError(dsl.SourceSpan(2, 5, 1), dsl.SYNTAX, "expected '{'")
        with pytest.raises(AttributeError):
            span.line = 3

    def test_bad_bit_value(self):
        src = "fsm m\noutputs y\ninitial A\nstate A { y=2 }\ntrans A -> A when 1\n"
        with pytest.raises(dsl.ParseFailure) as exc:
            dsl.parse(src)
        assert any(e.kind == dsl.BAD_BIT for e in exc.value.errors)

    def test_recovers_to_report_multiple_errors(self):
        src = ("fsm m\ninputs a\ninitial A\nstate A { }\n"
               "trans A -> A when zz\n"
               "trans A -> B when !a\n")
        with pytest.raises(dsl.ParseFailure) as exc:
            dsl.parse(src)
        assert [str(e) for e in exc.value.errors] == [
            "5:19: unknown-signal: 'zz' is not a declared input",
            "6:12: unknown-signal: 'B' is not a declared state"]

    def test_line_endings_do_not_matter(self):
        lf = bundled_source()
        crlf = lf.replace("\n", "\r\n")
        assert dsl.parse(lf) == dsl.parse(crlf)

    def test_precedence_not_binds_tighter_than_and_than_or(self):
        src = ("fsm m\ninputs a b c\ninitial A\nstate A { }\n"
               "trans A -> A when !a & b | c\n"
               "trans A -> A when !(!a & b | c)\n")
        spec = dsl.parse(src)
        guard = spec.states[0].transitions[0].guard
        assert dsl.format_guard(guard) == "!a & b | c"


_HEAD = "fsm m\ninputs a\ninitial A\nstate A { }\n"
# One text per diagnostic `parse` can raise, with every error it reports:
# "line:column: kind: message", in order.
_DIAGNOSTICS = {
    "bad machine name": ("fsm 1bad\n", ["1:5: syntax: expected machine name"]),
    # No name at all: the span is just past the line's last token.
    "missing machine name": ("fsm   # nothing\n", ["1:4: syntax: expected machine name"]),
    "missing header": ("state A { }\n", ["1:1: syntax: missing fsm header"]),
    "reserved word as a name": ("fsm m\ninitial A\nstate when { }\n", [
        "3:7: syntax: 'when' is a reserved word, not a valid state name",
        "2:9: unknown-signal: initial state 'A' is not declared"]),
    "expected arrow": (_HEAD + "trans A A when a\n", ["5:9: syntax: expected '->'"]),
    "trailing tokens": (_HEAD.replace("initial A", "initial A B"),
                        ["3:11: syntax: unexpected trailing tokens"]),
    "guard at end of line": (_HEAD + "trans A -> A when\n",
                             ["5:18: syntax: expected guard expression"]),
    "guard at a bad token": (_HEAD + "trans A -> A when a & }\n",
                             ["5:23: syntax: expected guard expression"]),
    "guard at a closing parenthesis": (_HEAD + "trans A -> A when ()\n",
                                       ["5:20: syntax: expected guard expression"]),
    "unclosed parenthesis": (_HEAD + "trans A -> A when (a\n", ["5:21: syntax: expected ')'"]),
    "duplicate header": (_HEAD + "fsm n\n", ["5:1: syntax: duplicate fsm header"]),
    "duplicate initial": (_HEAD + "initial A\ntrans A -> A when 1\n",
                          ["5:1: syntax: duplicate initial directive"]),
    "duplicate reset": ("fsm m\ninputs a\nreset a\nreset a\ninitial A\nstate A { }\n",
                        ["4:1: syntax: duplicate reset directive"]),
    "duplicate state": (_HEAD + "state A { }\n", ["5:7: duplicate-name: duplicate state name 'A'"]),
    "duplicate assignment": ("fsm m\noutputs y\ninitial A\nstate A { y=1 y=0 }\n", [
        "4:15: duplicate-name: duplicate assignment to 'y'",
        "3:9: unknown-signal: initial state 'A' is not declared"]),
    "missing bit": ("fsm m\noutputs y\ninitial A\nstate A { y=\n", [
        "4:13: syntax: expected bit value",
        "3:9: unknown-signal: initial state 'A' is not declared"]),
    "bad bit": ("fsm m\noutputs y\ninitial A\nstate A { y=2 }\n", [
        "4:13: bad-bit: bit value must be 0 or 1, got '2'",
        "3:9: unknown-signal: initial state 'A' is not declared"]),
    "expected emit": (_HEAD + "trans A -> A when a a\n",
                      ["5:21: syntax: expected 'emit' or end of line"]),
    "emit without a pulse": (_HEAD + "trans A -> A when a emit\n",
                             ["5:25: syntax: expected pulse name after 'emit'"]),
    "emit of a bad pulse name": (
        "fsm m\ninputs a\npulses p\ninitial A\nstate A { }\ntrans A -> A when a emit p 1\n",
        ["6:28: syntax: expected pulse name"]),
    "unknown directive": (_HEAD + "frob A\n", ["5:1: syntax: unknown directive 'frob'"]),
    "missing initial": ("fsm m\ninputs a\nstate A { }\n", ["1:1: syntax: missing initial directive"]),
    "reset not an input": ("fsm m\ninputs a\noutputs y\nreset y\ninitial A\nstate A { }\n",
                           ["4:7: unknown-signal: reset input 'y' is not a declared input"]),
    "initial not a state": ("fsm m\ninitial Z\nstate A { }\n",
                            ["2:9: unknown-signal: initial state 'Z' is not declared"]),
    # Names read before a bad token stay declared: `p0` is a pulse.
    "names before a bad token": ("fsm m\npulses p0 {\ninitial A\nstate A { }\n"
                                 "trans A -> A when 1 emit p0\n",
                                 ["2:11: syntax: expected signal name"]),
    "undeclared names": (
        "fsm m\ninputs a a\noutputs y\ninitial A\nstate A { z=1 }\ntrans A -> B when b emit q\n", [
            "2:10: duplicate-name: duplicate signal name 'a'",
            "5:11: unknown-signal: 'z' is not a declared output",
            "6:12: unknown-signal: 'B' is not a declared state",
            "6:19: unknown-signal: 'b' is not a declared input",
            "6:26: unknown-signal: 'q' is not a declared pulse"]),
    "expected open brace": ("fsm m\ninitial A\nstate A y=1 }\n", [
        "3:9: syntax: expected '{'",
        "2:9: unknown-signal: initial state 'A' is not declared"]),
    "expected close brace": ("fsm m\noutputs y\ninitial A\nstate A { y=1\n", [
        "4:14: syntax: expected '}'",
        "3:9: unknown-signal: initial state 'A' is not declared"]),
    "expected equals": ("fsm m\noutputs y\ninitial A\nstate A { y 1 }\n", [
        "4:13: syntax: expected '='",
        "3:9: unknown-signal: initial state 'A' is not declared"]),
    "bad output name": ("fsm m\noutputs y\ninitial A\nstate A { 1=1 }\n", [
        "4:11: syntax: expected output name",
        "3:9: unknown-signal: initial state 'A' is not declared"]),
    "missing source state": (_HEAD + "trans -> A when a\n", ["5:7: syntax: expected source state"]),
    "reserved word as a destination": (_HEAD + "trans A -> when a\n", [
        "5:12: syntax: 'when' is a reserved word, not a valid destination state"]),
    "expected when": (_HEAD + "trans A -> A a\n", ["5:14: syntax: expected 'when'"]),
    "bad reset name": ("fsm m\ninputs a\nreset 1\ninitial A\nstate A { }\n",
                       ["3:7: syntax: expected input name"]),
    "bare initial": ("fsm m\ninitial\nstate A { }\n", [
        "2:8: syntax: expected state name",
        "1:1: syntax: missing initial directive"]),
    "missing state name": ("fsm m\ninitial A\nstate { }\n", [
        "3:7: syntax: expected state name",
        "2:9: unknown-signal: initial state 'A' is not declared"]),
    # The guard is empty, so the parentheses after `emit` are not counted.
    "empty guard before deep parentheses": (
        _HEAD + "trans A -> A when emit " + "(" * (dsl.MAX_GUARD_DEPTH + 1) + "\n",
        ["5:19: syntax: expected guard expression"]),
}


@pytest.mark.parametrize("text, expected", _DIAGNOSTICS.values(), ids=_DIAGNOSTICS)
def test_every_diagnostic_is_pinned(text, expected):
    with pytest.raises(dsl.ParseFailure) as exc:
        dsl.parse(text)
    assert [str(e) for e in exc.value.errors] == expected


class TestSerialize:
    def test_canonical_and_stable(self, itlc_spec):
        assert dsl.serialize(itlc_spec) == dsl.serialize(itlc_spec)
        assert dsl.parse(dsl.serialize(itlc_spec)) == itlc_spec

    def test_minimal_machine_is_six_lines(self):
        spec = FsmSpec(
            name="m", inputs=("a",), moore_outputs=("y",), pulse_outputs=(),
            states=(StateDef("Idle", {"y": 1}, (Transition(Const(1), "Idle"),)),),
            initial_state="Idle")
        text = dsl.serialize(spec)
        assert text == ("fsm m\ninputs a\noutputs y\ninitial Idle\n"
                        "state Idle { y=1 }\ntrans Idle -> Idle when 1\n")
        assert len(text.rstrip("\n").split("\n")) == 6

    def test_odd_whitespace_normalizes(self, itlc_spec):
        messy = bundled_source().replace("trans S0 -> S1", "trans   S0->S1") \
                                .replace("state S2 { mr=1 sg=1 }",
                                         "state S2 {mr=1   sg=1}")
        assert dsl.serialize(dsl.parse(messy)) == dsl.serialize(itlc_spec)

    @settings(max_examples=100, deadline=None)
    @given(valid_machines())
    def test_round_trip_and_findings_stability(self, spec):
        text = dsl.serialize(spec)
        reparsed = dsl.parse(text)
        assert reparsed == spec
        assert dsl.serialize(reparsed) == text
        assert validate(reparsed) == validate(spec)


# Identifier occurrences in the guard of each trans line of the bundled
# source, for corruption tests.
_GUARD_IDENT = re.compile(r"when .*?\b(c|ts|tl)\b")


@settings(deadline=None)
@given(st.data())
def test_corrupted_guard_token_span_overlaps(data):
    lines = bundled_source().rstrip("\n").split("\n")
    trans_lines = [i for i, l in enumerate(lines) if l.startswith("trans")]
    idx = data.draw(st.sampled_from(trans_lines))
    m = re.search(r"\b(c|ts|tl)\b", lines[idx].split("when", 1)[1])
    assert m is not None
    offset = lines[idx].index("when") + 4 + m.start()
    corrupted = lines[idx][:offset] + "zzz" + lines[idx][offset + len(m.group()):]
    src = "\n".join(lines[:idx] + [corrupted] + lines[idx + 1:]) + "\n"
    with pytest.raises(dsl.ParseFailure) as exc:
        dsl.parse(src)
    spans = [e.span for e in exc.value.errors if e.kind == dsl.UNKNOWN_SIGNAL]
    assert any(
        s.line == idx + 1 and s.column <= offset + 1 < s.column + s.length + 2
        for s in spans)


@st.composite
def near_valid_fsm_texts(draw):
    """A text of `FSM_TEXTS` or a serialized random machine, edited as the
    command-line fuzz edits `.fsm` text, with the text's own tokens to swap in."""
    text = draw(st.one_of(st.sampled_from(FSM_TEXTS), valid_machines().map(dsl.serialize)))
    tokens = sorted(set(FSM_TOKENS).union(text.split()))
    return edited(draw, text.rstrip("\n").split("\n"), (*EDITS * 5, *FSM_NOISE), tokens, least=0)


def parse_outcome(parse, text):
    """The spec `parse` returns for `text`, or the errors it raises, as text."""
    try:
        return parse(text)
    except dsl.ParseFailure as exc:
        return [str(e) for e in exc.errors]


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(near_valid_fsm_texts())
def test_parse_agrees_with_the_reference_parser(text):
    outcome = parse_outcome(dsl.parse, text)
    event("raised" if isinstance(outcome, list) else "parsed")
    assert outcome == parse_outcome(dsl_reference.parse, text)
