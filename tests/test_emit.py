import hashlib
import re
from pathlib import Path

import pytest
from hypothesis import given, settings

from fsmkit import dsl
from fsmkit.emit import (
    BINARY, EmitError, InvalidSpecError, ONE_HOT, emit_ucf, emit_verilog,
    parse_pin_file,
)
from fsmkit.itlc import DEFAULT_PIN_ROWS
from fsmkit.model import Const, FsmSpec, StateDef, Transition, Var

from conftest import valid_machines

GOLDEN = Path(__file__).resolve().parent.parent / "golden"


class TestEmitUcf:
    def test_default_board_map(self, itlc_spec):
        assert emit_ucf(itlc_spec, DEFAULT_PIN_ROWS) == (
            'NET "c" LOC = "N17";\n'
            'NET "ts" LOC = "H18";\n'
            'NET "tl" LOC = "L14";\n'
            'NET "mr" LOC = "F9";\n'
            'NET "my" LOC = "E9";\n'
            'NET "mg" LOC = "D11";\n'
            'NET "sr" LOC = "F11";\n'
            'NET "sy" LOC = "E11";\n'
            'NET "sg" LOC = "E12";\n')

    def test_empty_map(self, itlc_spec):
        assert emit_ucf(itlc_spec, ()) == ""

    def test_single_entry(self, itlc_spec):
        assert emit_ucf(itlc_spec, (("c", "N17", "input"),)) == 'NET "c" LOC = "N17";\n'

    def test_golden_file(self, itlc_spec):
        ucf = emit_ucf(itlc_spec, DEFAULT_PIN_ROWS)
        assert ucf.encode() == (GOLDEN / "itlc.ucf").read_bytes()

    def test_bad_kind_rejected_before_duplicate(self, itlc_spec):
        pins = (("c", "N17", "input"), ("c", "H18", "sideways"))
        with pytest.raises(EmitError, match="^pin 'c': kind must be input or output, got 'sideways'$"):
            emit_ucf(itlc_spec, pins)

    def test_duplicate_signal_rejected(self, itlc_spec):
        # Both rows also name a signal absent from the spec; the duplicate wins.
        pins = (("nope", "A1", "input"), ("nope", "A2", "input"))
        with pytest.raises(EmitError, match="^duplicate pin mapping for signal 'nope'$"):
            emit_ucf(itlc_spec, pins)

    def test_unknown_signal_rejected_against_spec(self, itlc_spec):
        pins = (("zz", "A1", "input"), ("c", "N17", "input"), ("aa", "A2", "output"))
        with pytest.raises(EmitError) as exc:
            emit_ucf(itlc_spec, pins)
        assert str(exc.value) == "pin map names signals absent from spec 'itlc': zz, aa"

    def test_kind_must_match_the_spec_direction(self, itlc_spec):
        # A light wired as an input and the sensor as an output; st is a pulse output.
        pins = (("mg", "D11", "input"), ("c", "N17", "output"), ("st", "A1", "output"),
                ("ts", "H18", "input"))
        with pytest.raises(EmitError) as exc:
            emit_ucf(itlc_spec, pins)
        assert str(exc.value) == "pin kind disagrees with spec 'itlc' for signals: mg, c"

    def test_absent_signal_reported_before_wrong_kind(self, itlc_spec):
        pins = (("mg", "D11", "input"), ("zz", "A1", "input"))
        with pytest.raises(EmitError) as exc:
            emit_ucf(itlc_spec, pins)
        assert str(exc.value) == "pin map names signals absent from spec 'itlc': zz"

    def test_pin_file_round_trip(self):
        text = "# board map\nc N17 input\nmg D11 output\n"
        assert parse_pin_file(text) == (("c", "N17", "input"), ("mg", "D11", "output"))
        bundled = "".join(" ".join(row) + "\n" for row in DEFAULT_PIN_ROWS)
        assert parse_pin_file(bundled) == DEFAULT_PIN_ROWS

    def test_pin_file_bad_line(self):
        with pytest.raises(EmitError, match="line 2"):
            parse_pin_file("c N17 input\nbogus\n")


class TestEmitVerilog:
    def test_golden_file(self, itlc_spec):
        text = emit_verilog(itlc_spec)
        assert text.encode() == (GOLDEN / "itlc.v").read_bytes()

    def test_one_hot_bytes_pinned(self, itlc_spec):
        text = emit_verilog(itlc_spec, ONE_HOT)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "3814a0f4b9d940c353f16a4e557ac79dea9c5fa9f9ac571b48032f5ecc3534de")

    def test_determinism(self, itlc_spec):
        assert emit_verilog(itlc_spec) == emit_verilog(itlc_spec)

    def test_port_list_order(self, itlc_spec):
        text = emit_verilog(itlc_spec)
        ports = re.findall(r"(?:input|output)\s+wire (\w+)", text)
        assert ports == ["clk", "reset", "c", "ts", "tl",
                         "mg", "my", "mr", "sg", "sy", "sr", "st"]

    def test_one_hot_same_ports_wider_register(self, itlc_spec):
        binary = emit_verilog(itlc_spec, BINARY)
        onehot = emit_verilog(itlc_spec, ONE_HOT)
        port = re.compile(r"(?:input|output)\s+wire \w+")
        assert port.findall(binary) == port.findall(onehot)
        assert "reg [1:0] state" in binary
        assert "reg [3:0] state" in onehot
        assert "4'b0001" in onehot and "2'd0" in binary

    def test_state_constant_count_matches_state_count(self, itlc_spec):
        for encoding in (BINARY, ONE_HOT):
            text = emit_verilog(itlc_spec, encoding)
            assert len(re.findall(r"localparam .*?=", text)) == len(itlc_spec.states)

    def test_single_state_constant_machine(self):
        spec = FsmSpec(
            name="blinkless", inputs=(), moore_outputs=("on",), pulse_outputs=(),
            states=(StateDef("Only", {"on": 1}, (Transition(Const(1), "Only"),)),),
            initial_state="Only")
        text = emit_verilog(spec)
        assert "state_next = Only;" in text
        assert "assign on = (state == Only);" in text
        assert "reg state" in text  # width collapses to a single bit

    def test_invalid_spec_rejected(self):
        spec = FsmSpec(
            name="m", inputs=("a",), moore_outputs=(), pulse_outputs=(),
            states=(StateDef("A", {}, (Transition(Var("a"), "A"),)),),
            initial_state="A")
        with pytest.raises(EmitError, match="findings"):
            emit_verilog(spec)

    def test_keyword_collision_listed(self):
        spec = FsmSpec(
            name="m", inputs=("wire",), moore_outputs=(), pulse_outputs=(),
            states=(StateDef("A", {}, (Transition(Const(1), "A"),)),),
            initial_state="A")
        with pytest.raises(EmitError, match="wire"):
            emit_verilog(spec)

    @pytest.mark.parametrize("word", [
        "wait", "event", "time", "real", "fork", "join", "table", "force", "release", "disable",
        "signed", "generate", "genvar", "buf", "small", "medium", "large", "config", "design",
        "cell", "use", "edge"])
    def test_a_verilog_2001_reserved_word_is_no_state_name(self, word):
        spec = dsl.parse(f"fsm m\ninitial {word}\nstate {word} {{ }}\n"
                         f"trans {word} -> {word} when 1\n")
        with pytest.raises(EmitError, match=f"^names unusable as HDL identifiers: {word}$"):
            emit_verilog(spec)

    def test_reserved_generated_name_collision(self):
        spec = FsmSpec(
            name="m", inputs=("state",), moore_outputs=(), pulse_outputs=(),
            states=(StateDef("A", {}, (Transition(Const(1), "A"),)),),
            initial_state="A")
        with pytest.raises(EmitError, match="state"):
            emit_verilog(spec)

    def test_bad_module_name(self):
        spec = FsmSpec(
            name="1bad", inputs=(), moore_outputs=(), pulse_outputs=(),
            states=(StateDef("A", {}, (Transition(Const(1), "A"),)),),
            initial_state="A")
        with pytest.raises(EmitError, match="module"):
            emit_verilog(spec)

    def test_findings_outrank_bad_module_name(self):
        spec = FsmSpec(
            name="1bad", inputs=("a",), moore_outputs=(), pulse_outputs=(),
            states=(StateDef("A", {}, (Transition(Var("a"), "A"),)),),
            initial_state="A")
        with pytest.raises(InvalidSpecError) as exc:
            emit_verilog(spec)
        assert [f.kind for f in exc.value.findings] == ["gap"]

    def test_unknown_encoding(self, itlc_spec):
        with pytest.raises(EmitError, match="unknown state encoding 'gray'"):
            emit_verilog(itlc_spec, "gray")

    @settings(max_examples=30, deadline=None)
    @given(valid_machines(max_states=4, max_inputs=3))
    def test_port_completeness_on_generated_machines(self, spec):
        text = emit_verilog(spec)
        ports = re.findall(r"(?:input|output)\s+wire (\w+)", text)
        expected = (["clk"] + list(spec.inputs) + list(spec.moore_outputs)
                    + list(spec.pulse_outputs))
        assert ports == expected
        assert len(re.findall(r"localparam .*?=", text)) == len(spec.states)


def test_serialized_machines_emit_identically(itlc_spec):
    # Emitting from a reparsed canonical description is byte-stable.
    reparsed = dsl.parse(dsl.serialize(itlc_spec))
    assert emit_verilog(reparsed) == emit_verilog(itlc_spec)
