import re

import pytest
from hypothesis import given, settings, strategies as st

from fsmkit import dsl
from fsmkit.itlc import bundled_source
from fsmkit.model import Const, FsmSpec, StateDef, Transition, validate

from conftest import valid_machines


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
        assert len(exc.value.errors) >= 2

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
