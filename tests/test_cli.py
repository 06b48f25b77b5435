import argparse
import contextlib
import errno
import hashlib
import importlib.util
import io
import os
import re
import shlex
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    CLOSED_GAP_SPEC, EDITS, FSM_NOISE, FSM_TEXTS, FSM_TOKENS, GAP_SPEC, OVERLAP_SPEC, STIM_NOISE,
    edited, first_difference,
)
from fsmkit import cli, dsl, emit, env, model
from fsmkit.cli import main
from fsmkit.dsl import MAX_GUARD_DEPTH, MAX_INPUTS
from fsmkit.kernel import SimError

REPO = Path(__file__).resolve().parent.parent
ITLC = str(REPO / "designs" / "itlc.fsm")
STIM = str(REPO / "designs" / "paper_fig7_10.stim")
PERFBENCH = REPO / "perfbench"
PERFBENCH_INPUTS = PERFBENCH / "inputs.py"


@pytest.fixture
def gap_fsm(tmp_path):
    path = tmp_path / "gappy.fsm"
    path.write_text(GAP_SPEC)
    return str(path)


@pytest.fixture(scope="module")
def perfbench_inputs():
    """The benchmark's input generator, loaded by path (it is not a package)."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH_INPUTS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def check_findings(fsm, capsys):
    """What `check` prints for a spec with findings."""
    assert main(["check", fsm]) == 1
    out = capsys.readouterr().out
    assert out
    return out


class TestCheck:
    def test_bundled_design_passes(self, capsys):
        assert main(["check", ITLC]) == 0
        assert capsys.readouterr().out == ""

    def test_gap_reported(self, gap_fsm, capsys):
        assert main(["check", gap_fsm]) == 1
        assert capsys.readouterr() == ("gap A state 'A': no guard true at {a=0}\n", "")

    def test_missing_file(self, capsys):
        assert main(["check", "no-such-file.fsm"]) == 2
        assert "no-such-file.fsm" in capsys.readouterr().err

    def test_a_read_error_names_the_path_as_given(self, capsys):
        assert main(["check", "./no-such-file.fsm"]) == 2
        assert capsys.readouterr().err == (
            "cannot read machine description './no-such-file.fsm': "
            f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: './no-such-file.fsm'\n")

    @pytest.mark.parametrize("case, brk", [
        ("unreadable", "\n"), ("unparseable", "\n"), ("unreadable", "\r"), ("unparseable", "\r"),
        ("unreadable", "\u2028"), ("unparseable", "\u2028"),
    ], ids=["unreadable", "unparseable", "unreadable-return", "unparseable-return",
            "unreadable-u2028", "unparseable-u2028"])
    def test_a_path_holding_a_newline_is_quoted_on_one_line(self, tmp_path, capsys, case, brk):
        quoted = repr(brk)[1:-1]  # as repr quotes it: `\n`, `\r`, `\u2028`
        if case == "unreadable":
            assert main(["check", f"a{brk}b"]) == 2
            assert capsys.readouterr() == ("", f"cannot read machine description 'a{quoted}b': "
                                           f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: "
                                           f"'a{quoted}b'\n")
        else:  # the transition names an undeclared state
            fsm = write(tmp_path, f"a{brk}b.fsm", GAP_SPEC.replace("-> A", "-> B"))
            assert main(["check", fsm]) == 2
            err = capsys.readouterr().err
            assert err == (fsm.replace(brk, quoted) +
                           ":5:12: unknown-signal: 'B' is not a declared state\n")
            assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("text, code", [(Path(ITLC).read_text(), 0), (GAP_SPEC, 1)],
                             ids=["itlc", "gap"])
    def test_a_leading_byte_order_mark_is_skipped(self, tmp_path, text, code):
        plain = in_process(["check", write(tmp_path, "plain.fsm", text)])
        assert plain[0] == code
        assert in_process(["check", write(tmp_path, "marked.fsm", "\ufeff" + text)]) == plain

    def test_unparseable_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.fsm"
        bad.write_text("not an fsm\n")
        assert main(["check", str(bad)]) == 2
        assert "missing fsm header" in capsys.readouterr().err

    @pytest.mark.parametrize("seed, index, inject", [
        (0, 0, False), (0, 1, True), (1, 0, False), (1, 1, True), (2, 0, True)])
    def test_prints_the_findings_of_a_generated_design(self, tmp_path, capsys, perfbench_inputs,
                                                       seed, index, inject):
        # The benchmark's generator computes each design's findings from its own
        # description of the guards, independently of fsmkit.
        design = perfbench_inputs.make_design(seed, index, n_inputs=6, n_states=5, leaves=4,
                                              inject=inject)
        assert main(["check", write(tmp_path, "g.fsm", design.fsm_text())]) == (1 if inject else 0)
        assert capsys.readouterr().out == design.findings()


@st.composite
def near_valid_stimuli(draw, max_horizon=10_000, least=1):
    """Valid `.stim` text of at most `max_horizon` ticks with `least` to three
    edits, each to one field: noise put in, the field repeated, or a `#`
    glued on."""
    horizon = draw(st.integers(1, max_horizon))
    ticks = sorted(draw(st.sets(st.integers(0, horizon - 1), min_size=1, max_size=6)))
    lines = [f"horizon {horizon}", *(f"{t} c={draw(st.integers(0, 1))}"
                                     f"{draw(st.sampled_from(['', ' reset=1', '  # note']))}"
                                     for t in ticks)]
    return edited(draw, lines, ("repeat", "glue", *STIM_NOISE), least=least)


class TestSimulate:
    @pytest.mark.parametrize("spec_text", [OVERLAP_SPEC, CLOSED_GAP_SPEC])
    def test_findings_exit_1_before_tick_0(self, tmp_path, capsys, spec_text):
        fsm = write(tmp_path, "loop.fsm", spec_text)
        stim = write(tmp_path, "busy.stim", "horizon 40\n0 c=1\n")
        findings = check_findings(fsm, capsys)
        assert main(["simulate", fsm, stim]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == findings

    def test_idle_log_lights(self, tmp_path, capsys):
        stim = tmp_path / "idle.stim"
        stim.write_text("horizon 20\n0 c=0\n")
        assert main(["simulate", ITLC, str(stim)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 20
        assert all(line.endswith(" 100001") for line in lines)
        assert lines[0] == "0 S0 c=0 ts=0 tl=0 st=0 100001"

    # Per stimulus: the sha256 of the log and of the VCD (None: no VCD is
    # written), the log's line count, some of its lines by 1-based number, and
    # the VCD's count of `#t` blocks (None: not pinned).
    @pytest.mark.parametrize("stim, log_sha, vcd_sha, ticks, lines, blocks", [
        (Path(STIM).read_text(),
         "7b47fd9b13e9b02f6508caca52c9d7c04d3bdc42924c8dbdc2a1af2a98290e7e",
         hashlib.sha256((REPO / "golden" / "itlc_scenario.vcd").read_bytes()).hexdigest(),
         40, {}, None),
        # The same stimulus behind a UTF-8 byte-order mark.
        ("\ufeff" + Path(STIM).read_text(),
         "7b47fd9b13e9b02f6508caca52c9d7c04d3bdc42924c8dbdc2a1af2a98290e7e",
         hashlib.sha256((REPO / "golden" / "itlc_scenario.vcd").read_bytes()).hexdigest(),
         40, {}, None),
        # c rises two ticks before tick numbers reach four digits, with a reset there.
        ("horizon 2001\n998 c=1\n1000 reset=1\n1001 reset=0\n",
         "d02389e36f2de0a7179e25d09b1e8d94397663307a27ae7c8688ed53288e3429",
         "9fcff65f1b51bb70aca02753496323719ae86f8f6a321d9d4ba9a86a88dd9d12",
         2001, {1000: "999 S1 c=1 ts=0 tl=0 st=0 010001",
                1001: "1000 S1 c=1 ts=0 tl=0 st=0 010001"}, None),
        # c toggles on every tick, so every tick of the VCD writes a #t block.
        ("horizon 2001\n" + "".join(f"{t} c={t % 2}\n" for t in range(2001)),
         "78df3838ca8a57d375cc373cd734ae3044bbca140a2d5afdbf349c37ebde60e9",
         "dbae600a19bb9c1ff9fae829c95b119cf23fae2023b7ee992fc52b86984aa04f",
         2001, {}, 2001),
        ("horizon 1000000\n",
         "0c9fc8b9cdd3d0f1c79059047decd46884f06bf3ddd9259c2486c0f2307b6766", None,
         1_000_000, {1_000_000: "999999 S0 c=0 ts=1 tl=1 st=0 100001"}, None),
    ], ids=["paper", "paper-bom", "edge", "toggle", "long"])
    def test_log_bytes_are_pinned(self, tmp_path, stim, log_sha, vcd_sha, ticks, lines, blocks):
        # A real process's stdout, as the console script writes it, read back a
        # line at a time: the long log is 36 MB.
        log, vcd = tmp_path / "run.log", tmp_path / "run.vcd"
        with open(log, "wb") as out:
            done = child(["-m", "fsmkit.cli", "simulate", ITLC, write(tmp_path, "run.stim", stim),
                          *(["--vcd", str(vcd)] if vcd_sha else [])], stdout=out)
        assert (done.returncode, done.stderr) == (0, b"")
        digest, seen, count = hashlib.sha256(), {}, 0
        with open(log, "rb") as f:
            for count, line in enumerate(f, 1):
                digest.update(line)
                if count in lines:
                    seen[count] = line.decode().rstrip("\n")
        assert (count, seen, digest.hexdigest()) == (ticks, lines, log_sha)
        if vcd_sha:
            assert hashlib.sha256(vcd.read_bytes()).hexdigest() == vcd_sha
        if blocks is not None:
            assert vcd.read_text().count("\n#") == blocks

    def test_writes_vcd_and_log_deterministically(self, tmp_path):
        args = ["simulate", ITLC, STIM,
                "--vcd", str(tmp_path / "a.vcd"), "--log", str(tmp_path / "a.log")]
        assert main(args) == 0
        first = ((tmp_path / "a.vcd").read_bytes(), (tmp_path / "a.log").read_bytes())
        args2 = ["simulate", ITLC, STIM,
                 "--vcd", str(tmp_path / "b.vcd"), "--log", str(tmp_path / "b.log")]
        assert main(args2) == 0
        second = ((tmp_path / "b.vcd").read_bytes(), (tmp_path / "b.log").read_bytes())
        assert first == second
        assert first[0] == (REPO / "golden" / "itlc_scenario.vcd").read_bytes()

    def test_a_benchmark_stimulus_renders_like_the_reference(self, tmp_path, perfbench_inputs):
        # 50,000 ticks with c toggling and resets: the reference model steps
        # and formats every tick itself.
        text = perfbench_inputs.make_stimulus(601, 50_000)
        stim = write(tmp_path, "w.stim", text)
        assert "reset=1" in text and "reset=0" in text
        assert main(["simulate", ITLC, stim, "--vcd", str(tmp_path / "w.vcd"),
                     "--log", str(tmp_path / "w.log")]) == 0
        log, vcd = perfbench_inputs.itlc_reference(text)
        assert first_difference((tmp_path / "w.log").read_text(), log) is None
        assert first_difference((tmp_path / "w.vcd").read_text(), vcd) is None

    def test_bad_timer_config(self, capsys):
        assert main(["simulate", ITLC, STIM, "--short", "16", "--long", "4"]) == 2
        assert capsys.readouterr() == (
            "", "short_ticks must be positive and < long_ticks (got short=16, long=4)\n")

    def test_bad_stimulus(self, tmp_path, capsys):
        for text, message in [("horizon 2\n1 c=1\n0 c=0\n", "line 3: non-monotonic tick 0\n"),
                              ("horizon 2\n0 c=1 c=0\n", "line 2: duplicate assignment to 'c'\n"),
                              ("horizon 2\n0 c=2\n", "line 2: bit value must be 0 or 1, got '2'\n")]:
            stim = tmp_path / "bad.stim"
            stim.write_text(text)
            assert main(["simulate", ITLC, str(stim)]) == 2
            assert capsys.readouterr() == ("", message)

    def test_a_spec_over_other_inputs_exits_2_with_one_line(self, tmp_path, capsys):
        # A valid spec, but not over the traffic controller's inputs.
        fsm = write(tmp_path, "plain.fsm", GAP_SPEC.replace("when a", "when 1"))
        assert main(["simulate", fsm, STIM]) == 2
        assert capsys.readouterr() == (
            "", "closed-loop simulation needs inputs exactly ['c', 'reset', 'tl', 'ts'], "
                "spec 'gappy' has ['a']\n")

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(text=near_valid_stimuli())
    def test_near_valid_stimuli_exit_0_or_2_with_one_line(self, text, tmp_path_factory):
        stim = tmp_path_factory.getbasetemp() / "near_valid.stim"
        stim.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["simulate", ITLC, str(stim)])
        out, err = out.getvalue(), err.getvalue()
        assert "Traceback" not in err
        if code == 0:
            assert err == "" and 0 < out.count("\n") <= 10_000
        else:
            assert code == 2 and out == "" and err.count("\n") == 1 and err.endswith("\n")


class TestEmit:
    def test_ucf_default_pins(self, capsys):
        assert main(["emit", ITLC, "--format", "ucf"]) == 0
        out = capsys.readouterr().out
        assert out.encode() == (REPO / "golden" / "itlc.ucf").read_bytes()
        assert len(out.strip().split("\n")) == 9

    def test_verilog_matches_golden(self, tmp_path):
        out = tmp_path / "itlc.v"
        assert main(["emit", ITLC, "--format", "verilog", "-o", str(out)]) == 0
        assert out.read_bytes() == (REPO / "golden" / "itlc.v").read_bytes()

    def test_invalid_spec_blocks_emission(self, gap_fsm, capsys):
        assert main(["emit", gap_fsm, "--format", "verilog"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "gap" in captured.err

    def test_findings_outrank_bad_module_name(self, tmp_path, capsys):
        fsm = write(tmp_path, "gap.fsm", GAP_SPEC.replace("fsm gappy", "fsm module"))
        findings = check_findings(fsm, capsys)
        assert main(["emit", fsm]) == 1
        assert capsys.readouterr().err == findings
        clean = write(tmp_path, "clean.fsm", GAP_SPEC.replace("fsm gappy", "fsm module")
                      .replace("when a", "when 1"))
        assert main(["emit", clean]) == 2
        assert "module name" in capsys.readouterr().err
        keyword = write(tmp_path, "keyword.fsm", GAP_SPEC.replace("fsm gappy", "fsm module")
                        .replace("inputs a", "inputs wire").replace("when a", "when wire"))
        findings = check_findings(keyword, capsys)
        assert main(["emit", keyword]) == 1
        assert capsys.readouterr().err == findings

    @pytest.mark.parametrize("case, code", [
        ("verilog", 0), ("ucf", 0), ("ucf-bad-pins", 2), ("keyword-input", 2)])
    def test_validates_once_per_invocation(self, tmp_path, monkeypatch, capsys, case, code):
        calls = []

        def counting(spec):
            calls.append(spec.name)
            return model.validate(spec)

        monkeypatch.setattr(cli, "validate", counting)
        monkeypatch.setattr(emit, "validate", counting)
        pins = write(tmp_path, "pins.txt", "c N17 input\nbogus\n")
        keyword = write(tmp_path, "keyword.fsm", GAP_SPEC.replace("inputs a", "inputs wire")
                        .replace("when a", "when 1"))
        argv = {
            "verilog": ["emit", ITLC],
            "ucf": ["emit", ITLC, "--format", "ucf"],
            "ucf-bad-pins": ["emit", ITLC, "--format", "ucf", "--pins", pins],
            "keyword-input": ["emit", keyword],
        }[case]
        assert main(argv) == code
        assert len(calls) == 1
        if code:
            assert capsys.readouterr().err.count("\n") == 1

    def test_a_state_named_wait_exits_2(self, tmp_path, capsys):
        fsm = write(tmp_path, "wait.fsm", GAP_SPEC.replace("A", "wait").replace("when a", "when 1"))
        assert main(["emit", fsm]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "names unusable as HDL identifiers: wait\n"

    @pytest.mark.parametrize("rows, code, out, err", [
        ("c N17 input\n", 0, 'NET "c" LOC = "N17";\n', ""),
        ("zz A1 input\n", 2, "", "pin map names signals absent from spec 'itlc': zz\n"),
        ("mg D11 input\nc N17 output\n", 2, "",
         "pin kind disagrees with spec 'itlc' for signals: mg, c\n"),
        ("\ufeffc N17 input\n", 0, 'NET "c" LOC = "N17";\n', ""),
        # Every module that `emit` writes has a clk input port.
        ("clk C9 input\n", 0, 'NET "clk" LOC = "C9";\n', ""),
        ("clk C9 output\n", 2, "", "pin kind disagrees with spec 'itlc' for signals: clk\n"),
        ("c N17 inout\n", 2, "", "pin 'c': kind must be input or output, got 'inout'\n"),
        ("c N-17 input\n", 2, "",
         "pin 'c': location must be ASCII letters, digits or '_', got 'N-17'\n"),
        ("c N17\n", 2, "", "pin file line 1: expected '<signal> <pin> <input|output>'\n"),
    ], ids=["one-row", "absent-signal", "wrong-kind", "bom", "clk-row", "clk-as-output",
            "bad-kind", "bad-location", "short-line"])
    def test_custom_pin_file(self, tmp_path, capsys, rows, code, out, err):
        pins = tmp_path / "pins.txt"
        pins.write_text(rows)
        assert main(["emit", ITLC, "--format", "ucf", "--pins", str(pins)]) == code
        assert capsys.readouterr() == (out, err)

    def test_onehot_encoding_flag(self, capsys):
        assert main(["emit", ITLC, "--encoding", "onehot"]) == 0
        out = capsys.readouterr().out
        assert "4'b0001" in out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "3814a0f4b9d940c353f16a4e557ac79dea9c5fa9f9ac571b48032f5ecc3534de")


class TestBench:
    @pytest.mark.parametrize("spec_text", [OVERLAP_SPEC, CLOSED_GAP_SPEC])
    def test_findings_exit_1_before_tick_0(self, tmp_path, capsys, spec_text):
        fsm = write(tmp_path, "loop.fsm", spec_text)
        findings = check_findings(fsm, capsys)
        assert main(["bench", fsm, "--arrival", "1", "--horizon", "40"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == findings

    # Each run's sha256, and for the first its text too.
    @pytest.mark.parametrize("argv, digest, text", [
        (["--arrival", "0.1", "--seeds", "2", "--horizon", "100"],
         "ca0a3579d4395984b92e208356972639bc9c3e222d790323e0381e6dd53d90b5",
         "seed=0 mean_side_wait=16.500 max_side_wait=27 main_green_share=0.610 "
         "side_vehicles_served=6 cycles_completed=3\n"
         "seed=1 mean_side_wait=15.571 max_side_wait=25 main_green_share=0.600 "
         "side_vehicles_served=7 cycles_completed=3\n"
         "aggregate mean_side_wait=16.036 max_side_wait=27 main_green_share=0.605 "
         "side_vehicles_served=13 cycles_completed=6\n"),
        (["--arrival", "0.1", "--seeds", "8", "--horizon", "8000"],
         "3711ecf4f906b44038c3e608d3c60773999937027b5b3d4aeb0f292064d838d5", None),
        (["--arrival", "0.3", "--seeds", "3", "--horizon", "999", "--service-rate", "2"],
         "296cff05981558c3718eef69720b5c0e086679b2f8658fbaf17d543f3bf7ff9a", None),
        (["--arrival", "0.05", "--seeds", "2", "--horizon", "5000", "--short", "8", "--long", "64"],
         "e3e099babc55c1d10428a4f491c252aa948eb8a9d8c5134519c3f691db0f7d48", None),
    ], ids=["two-seeds", "bench-workload", "service-rate-2", "timers-8-64"])
    # One CPU runs every seed here; unpatched, `bench` forks a worker per further usable CPU.
    @pytest.mark.parametrize("one_cpu", [True, False], ids=["one-cpu", "all-cpus"])
    def test_pinned_output(self, capsys, argv, digest, text, one_cpu):
        with cpus(1) if one_cpu else contextlib.nullcontext():
            assert main(["bench", ITLC, *argv]) == 0
        out = capsys.readouterr().out
        if text is not None:
            assert out == text
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("horizon, cycles", [(43, 0), (44, 1)])
    def test_cycle_closing_on_final_tick_counts(self, capsys, horizon, cycles):
        # Saturated traffic returns to S0 on tick 43, the 44th tick.
        assert main(["bench", ITLC, "--arrival", "1", "--horizon", str(horizon)]) == 0
        assert capsys.readouterr().out.endswith(f" cycles_completed={cycles}\n")

    def test_idle_aggregate(self, capsys):
        assert main(["bench", ITLC, "--arrival", "0", "--seeds", "3",
                     "--horizon", "1000"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 4
        assert lines[0].startswith("seed=0 ")
        assert lines[-1].startswith("aggregate ")
        assert "main_green_share=1.000" in lines[-1]

    def test_deterministic_output(self, capsys):
        args = ["bench", ITLC, "--arrival", "0.1", "--seeds", "5",
                "--horizon", "500"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_arrival_out_of_range(self, capsys):
        assert main(["bench", ITLC, "--arrival", "1.5"]) == 2
        assert "arrival" in capsys.readouterr().err

    def test_seeds_must_be_positive(self, capsys):
        assert main(["bench", ITLC, "--arrival", "0.5", "--seeds", "0"]) == 2

    @pytest.mark.parametrize("case, message", [
        ("horizon", "horizon must be >= 1, got 0"),
        ("service-rate", "service_rate must be >= 1, got 0"),
        ("inputs", "closed-loop simulation needs inputs exactly ['c', 'reset', 'tl', 'ts'], "
                   "spec 'gappy' has ['a']"),
        ("timer", "short_ticks must be positive and < long_ticks (got short=16, long=4)"),
        ("arrival", "arrival_prob must be in [0, 1], got 1.5"),
        ("arrival-nan", "arrival_prob must be in [0, 1], got nan"),
        ("seeds", "seeds must be >= 1, got 0"),
        ("seeds-negative", "seeds must be >= 1, got -1"),
        # The model, and with it the horizon, is refused before the runs start.
        ("seeds-and-horizon", "horizon must be >= 1, got 0"),
    ])
    def test_a_refused_run_exits_2_with_one_line(self, tmp_path, capsys, case, message):
        argv = {"horizon": [ITLC, "--horizon", "0"], "service-rate": [ITLC, "--service-rate", "0"],
                "timer": [ITLC, "--short", "16", "--long", "4"],
                "arrival": [ITLC, "--arrival", "1.5"], "arrival-nan": [ITLC, "--arrival", "nan"],
                "seeds": [ITLC, "--seeds", "0"], "seeds-negative": [ITLC, "--seeds", "-1"],
                "seeds-and-horizon": [ITLC, "--seeds", "0", "--horizon", "0"],
                # A valid spec, but not over the traffic controller's inputs.
                "inputs": [write(tmp_path, "plain.fsm", GAP_SPEC.replace("when a", "when 1"))]}[case]
        # Every case runs at --arrival 0.1 unless it gives its own, later, which wins.
        assert main(["bench", "--arrival", "0.1", *argv]) == 2
        assert capsys.readouterr() == ("", message + "\n")

    @pytest.mark.parametrize("command", ["check", "emit", "simulate", "bench"])
    def test_a_bare_value_error_is_a_bug_and_propagates(self, monkeypatch, command):
        # Only an FsmError is a refusal.  Any other error inside a command leaves
        # `main`, so a process shows it as a traceback, which the fuzz catches.
        def parse(text):
            raise ValueError("max() arg is an empty sequence")
        monkeypatch.setattr(dsl, "parse", parse)
        with pytest.raises(ValueError, match="empty sequence"):
            main([command, ITLC, *COMMAND_ARGS[command]])

    def test_memory_does_not_grow_with_the_seed_count(self):
        def peak(seeds):
            args = ["bench", ITLC, "--arrival", "0.1", "--seeds", str(seeds), "--horizon", "1"]
            with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
                tracemalloc.start()
                try:
                    assert main(args) == 0
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        peak(2000)  # first-use allocations: the draws' lane constants, interpreter caches
        # Keeping every seed's Metrics to the end grew the peak by about 260 KB.
        assert peak(2000) < peak(200) + 50_000


def cpus(n):
    """Patches `os.sched_getaffinity` to report n usable CPUs."""
    return mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(n)), create=True)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestBenchProcesses:
    """`bench` runs its seeds round-robin on the usable CPUs; its output is
    that of a run on one CPU, and no worker outlives `main`."""

    @settings(max_examples=40, deadline=None)
    @given(seeds=st.integers(1, 9),
           horizon=st.one_of(st.sampled_from([1, 1023, 1024, 1025]), st.integers(1, 3000)),
           arrival=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)),
           service_rate=st.integers(1, 3),
           timer=st.sampled_from([[], ["--short", "1", "--long", "2"], ["--short", "8", "--long", "64"]]))
    def test_four_cpus_print_what_one_prints(self, seeds, horizon, arrival, service_rate, timer):
        argv = ["bench", ITLC, "--arrival", repr(arrival), "--seeds", str(seeds),
                "--horizon", str(horizon), "--service-rate", str(service_rate), *timer]
        with cpus(1):
            serial = in_process(argv)
        forks = []
        real_fork = os.fork
        def fork():
            forks.append(1)
            return real_fork()
        with cpus(4), mock.patch.object(os, "fork", fork):
            assert in_process(argv) == serial
        assert serial[0] == 0
        assert len(forks) == min(seeds, 4) - 1
        assert_no_child_left()

    @pytest.mark.parametrize("failing_seed", [4, 3], ids=["parent", "worker"])
    @pytest.mark.parametrize("error", [model.ConfigError, SimError, MemoryError])
    def test_an_error_at_a_seed_reads_as_on_one_cpu(self, monkeypatch, failing_seed, error):
        # On two CPUs this process runs the even seeds and a worker the odd ones.
        real = env.run_env
        def run_env(table, model):
            if model.seed == failing_seed:
                raise error(f"seed {model.seed} refused")
            return real(table, model)
        monkeypatch.setattr(env, "run_env", run_env)
        argv = ["bench", ITLC, "--arrival", "0.1", "--seeds", "7", "--horizon", "300"]
        with cpus(1):
            code, out, err = serial = in_process(argv)
        assert code == 2 and out.count(b"\n") == failing_seed and err.count(b"\n") == 1
        with cpus(2):
            assert in_process(argv) == serial
        assert_no_child_left()

    @pytest.mark.parametrize("fault", ["fork", "worker", "pipe"])
    def test_seeds_without_a_worker_run_here(self, monkeypatch, fault):
        # No process to fork, a worker that dies after its first seed, or no
        # descriptor for a pipe: this process runs those seeds itself.
        parent = os.getpid()
        if fault == "fork":
            monkeypatch.setattr(os, "fork", mock.Mock(side_effect=OSError(errno.EAGAIN, "no")))
        elif fault == "pipe":
            monkeypatch.setattr(os, "pipe", mock.Mock(side_effect=OSError(errno.EMFILE, "no")))
        else:
            real = env.run_env
            def run_env(table, model):
                if os.getpid() != parent and model.seed > 2:
                    os._exit(1)
                return real(table, model)
            monkeypatch.setattr(env, "run_env", run_env)
        argv = ["bench", ITLC, "--arrival", "0.2", "--seeds", "9", "--horizon", "500"]
        with cpus(1):
            serial = in_process(argv)
        with cpus(3):
            assert in_process(argv) == serial
        assert_no_child_left()

    def test_an_ignored_sigchld_changes_nothing(self):
        # With SIGCHLD ignored the system reaps each worker as it exits, so
        # a worker's pid may no longer name a child of the command.
        argv = ["bench", ITLC, "--arrival", "0.1", "--seeds", "4", "--horizon", "500"]
        with cpus(1):
            code, out, _ = in_process(argv)
        done = child(["-c", "import os; os.sched_getaffinity = lambda pid: set(range(4)); "
                            "from fsmkit import cli; cli.run()", *argv],
                     preexec_fn=lambda: signal.signal(signal.SIGCHLD, signal.SIG_IGN))
        assert code == 0
        assert (done.returncode, done.stdout, done.stderr) == (0, out, b"")

    def test_a_closed_stdout_leaves_no_worker(self, capsys):
        read, write = os.pipe()
        os.close(read)  # every write to the pipe fails with EPIPE
        argv = ["bench", ITLC, "--arrival", "0.1", "--seeds", "3000", "--horizon", "1"]
        with open(write, "w") as out, contextlib.redirect_stdout(out), cpus(2):
            assert main(argv) == 2
        assert capsys.readouterr().err == "cannot write output: standard output was closed\n"
        assert_no_child_left()


def capped_spec(form, above):
    """GAP_SPEC at a cap, which is valid, or one above it: guard nesting by
    parentheses or by nots, or the number of declared inputs."""
    if form == "inputs":
        names = " ".join(f"i{k}" for k in range(MAX_INPUTS + above - 1))
        return GAP_SPEC.replace("inputs a", f"inputs a {names}").replace("when a", "when a | !a")
    # At the cap (an even depth) both nested forms are true.
    depth = MAX_GUARD_DEPTH + above
    guard = "(" * depth + "1" + ")" * depth if form == "parens" else "!" * depth + "1"
    return GAP_SPEC.replace("when a", f"when {guard}")


CAP_ERRORS = {
    "parens": f"5:19: syntax: guard nests deeper than {MAX_GUARD_DEPTH} levels",
    "nots": f"5:19: syntax: guard nests deeper than {MAX_GUARD_DEPTH} levels",
    "inputs": f"2:1: syntax: {MAX_INPUTS + 1} inputs declared; at most {MAX_INPUTS} are supported",
}
COMMAND_ARGS = {"check": [], "emit": [], "simulate": [STIM], "bench": ["--arrival", "0.1", "--horizon", "1"]}


class TestGuardNesting:
    @pytest.mark.parametrize("form", ["parens", "nots", "inputs"])
    def test_at_the_cap_checks_and_emits(self, tmp_path, capsys, form):
        fsm = write(tmp_path, "deep.fsm", capped_spec(form, 0))
        assert main(["check", fsm]) == 0
        assert main(["emit", fsm]) == 0
        assert "always @*" in capsys.readouterr().out

    @pytest.mark.parametrize("form", ["parens", "nots", "inputs"])
    @pytest.mark.parametrize("command", ["check", "emit", "simulate", "bench"])
    def test_one_level_above_the_cap_is_a_parse_error(self, tmp_path, capsys, form, command):
        fsm = write(tmp_path, "deep.fsm", capped_spec(form, 1))
        assert main([command, fsm, *COMMAND_ARGS[command]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{fsm}:{CAP_ERRORS[form]}\n"


NOT_UTF8 = b"\xff\xfe not text\n"


def io_error_case(case, tmp_path):
    """Arguments for one of the CLI's read or write paths, made to fail."""
    bad = tmp_path / "bad.bin"
    bad.write_bytes(NOT_UTF8)
    nowhere = str(tmp_path / "missing-dir" / "out")
    return {
        "fsm-not-utf8": ["check", str(bad)],
        "stim-not-utf8": ["simulate", ITLC, str(bad)],
        "pins-not-utf8": ["emit", ITLC, "--format", "ucf", "--pins", str(bad)],
        "vcd-unwritable": ["simulate", ITLC, STIM, "--vcd", nowhere],
        "log-unwritable": ["simulate", ITLC, STIM, "--log", nowhere],
        "output-unwritable": ["emit", ITLC, "-o", nowhere],
        "vcd-empty-path": ["simulate", ITLC, STIM, "--vcd", ""],
        "log-empty-path": ["simulate", ITLC, STIM, "--log", ""],
        "output-empty-path": ["emit", ITLC, "-o", ""],
        "pins-empty-path": ["emit", ITLC, "--format", "ucf", "--pins", ""],
        "fsm-path-newline": ["check", str(tmp_path / "a\nb")],
        "output-path-newline": ["emit", ITLC, "-o", str(tmp_path / "a\nb" / "out")],
        "fsm-path-return": ["check", str(tmp_path / "a\rb")],
        "output-path-return": ["emit", ITLC, "-o", str(tmp_path / "a\rb" / "out")],
        "fsm-path-u2028": ["check", str(tmp_path / "a\u2028b")],
        "output-path-u2028": ["emit", ITLC, "-o", str(tmp_path / "a\u2028b" / "out")],
        # Opened, but every write fails with ENOSPC.
        "log-full": ["simulate", ITLC, STIM, "--log", "/dev/full"],
        "vcd-full": ["simulate", ITLC, STIM, "--vcd", "/dev/full"],
    }[case]


NO_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")


class TestInputOutputErrors:
    @pytest.mark.parametrize("case", [
        "fsm-not-utf8", "stim-not-utf8", "pins-not-utf8",
        "vcd-unwritable", "log-unwritable", "output-unwritable",
        "vcd-empty-path", "log-empty-path", "output-empty-path", "pins-empty-path",
        "fsm-path-newline", "output-path-newline", "fsm-path-return", "output-path-return",
        "fsm-path-u2028", "output-path-u2028",
        pytest.param("log-full", marks=NO_DEV_FULL), pytest.param("vcd-full", marks=NO_DEV_FULL),
    ])
    def test_exit_2_with_one_line_and_no_traceback(self, tmp_path, case):
        # A real process, so that an uncaught exception shows as a traceback.
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        result = subprocess.run([sys.executable, "-m", "fsmkit.cli", *io_error_case(case, tmp_path)],
                                capture_output=True, text=True, env=env, timeout=60)
        assert result.returncode == 2
        # The log goes out before the VCD.
        assert result.stdout == "" or case in ("vcd-unwritable", "vcd-empty-path", "vcd-full")
        assert "Traceback" not in result.stderr
        assert result.stderr.count("\n") == 1 and result.stderr.startswith("cannot ")
        assert len(result.stderr.splitlines()) == 1
        if case.endswith("-full"):
            what = {"log-full": "log", "vcd-full": "VCD"}[case]
            assert result.stderr.startswith(f"cannot write {what} '/dev/full': ")

    @pytest.mark.parametrize("command, unbuffered", [
        ("bench", False), ("simulate", False), ("simulate", True), ("check", True), ("bench", True),
    ], ids=["bench", "simulate", "simulate-unbuffered", "check-unbuffered", "bench-unbuffered"])
    def test_stdout_closed_early_exits_2_with_one_line(self, tmp_path, command, unbuffered):
        if command == "bench":
            argv = ["bench", ITLC, "--arrival", "0.1", "--seeds", "3000", "--horizon", "1"]
        elif command == "simulate":
            argv = ["simulate", ITLC, write(tmp_path, "long.stim", "horizon 20000\n0 c=1\n")]
        else:  # no guard ever holds: 4,096 gap lines
            inputs = " ".join(f"i{k}" for k in range(12))
            argv = ["check", write(tmp_path, "gaps.fsm", GAP_SPEC.replace("inputs a", f"inputs {inputs}")
                                   .replace("when a", "when i0 & !i0"))]
        # Block-buffered stdout, as from a shell, or unbuffered, where one large
        # write reaches the pipe as a raw write that may come up short.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        env["PYTHONPATH"] = str(REPO / "src")
        proc = subprocess.Popen([sys.executable, "-m", "fsmkit.cli", *argv], env=env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline()
        proc.stdout.close()  # far more output is still to come than a pipe holds
        _, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert "Traceback" not in stderr and "Exception ignored" not in stderr
        assert stderr == "cannot write output: standard output was closed\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
    @pytest.mark.parametrize("command", ["check", "simulate", "emit", "bench"])
    def test_full_stdout_exits_2_with_one_line(self, gap_fsm, command):
        argv = {"check": ["check", gap_fsm],  # a spec with findings, so check writes
                "simulate": ["simulate", ITLC, STIM],
                "emit": ["emit", ITLC],
                "bench": ["bench", ITLC, "--arrival", "0.1"]}[command]
        with open("/dev/full", "w") as full:  # every write fails with ENOSPC
            result = subprocess.run([sys.executable, "-m", "fsmkit.cli", *argv], stdout=full,
                                    stderr=subprocess.PIPE, text=True, timeout=60,
                                    env=dict(os.environ, PYTHONPATH=str(REPO / "src")))
        assert result.returncode == 2
        assert result.stderr == f"cannot write output: {os.strerror(errno.ENOSPC)}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
    @pytest.mark.parametrize("argv", [["--help"], ["bench", "--help"]], ids=["fsmkit", "bench"])
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_help_to_a_full_stdout_exits_2_with_one_line(self, argv, unbuffered):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:  # argparse's own printer would drop the failed write and exit 0
            env["PYTHONUNBUFFERED"] = "1"
        env["PYTHONPATH"] = str(REPO / "src")
        with open("/dev/full", "w") as full:
            result = subprocess.run([sys.executable, "-m", "fsmkit.cli", *argv], stdout=full,
                                    stderr=subprocess.PIPE, text=True, timeout=60, env=env)
        assert result.returncode == 2
        assert result.stderr == f"cannot write output: {os.strerror(errno.ENOSPC)}\n"

    @pytest.mark.parametrize("command", ["check-clean", "check", "simulate", "emit", "bench"])
    def test_a_closed_stdout_acts_as_an_unwritable_one(self, gap_fsm, command):
        # Started as `fsmkit ... >&-`: the process has no fd 1 at all.
        argv = {"check-clean": ["check", ITLC],  # writes nothing, so exits 0
                "check": ["check", gap_fsm],
                "simulate": ["simulate", ITLC, STIM],
                "emit": ["emit", ITLC],
                "bench": ["bench", ITLC, "--arrival", "0.1"]}[command]
        result = subprocess.run([sys.executable, "-m", "fsmkit.cli", *argv], stdout=None,
                                stderr=subprocess.PIPE, text=True, timeout=60,
                                preexec_fn=lambda: os.close(1),
                                env=dict(os.environ, PYTHONPATH=str(REPO / "src")))
        if command == "check-clean":
            assert (result.returncode, result.stderr) == (0, "")
        else:
            assert result.returncode == 2
            assert result.stderr == f"cannot write output: {os.strerror(errno.EBADF)}\n"

    @pytest.mark.skipif(resource is None, reason="needs the resource module")
    def test_out_of_memory_exits_2_with_one_line(self, tmp_path):
        # 10^11 table keys, one per tick, cannot be held; a 256 MB address-space limit on
        # the child alone makes it fail within seconds rather than swap.
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))
        stim = write(tmp_path, "huge.stim", "horizon 100000000000\n")
        result = subprocess.run([sys.executable, "-m", "fsmkit.cli", "simulate", ITLC, stim],
                                capture_output=True, text=True, timeout=60, preexec_fn=limit_memory,
                                env=dict(os.environ, PYTHONPATH=str(REPO / "src")))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "out of memory: the input asks for more than this process can hold\n"


class TestUnwritableStderr:
    @pytest.mark.parametrize("stderr", ["closed", pytest.param("full", marks=NO_DEV_FULL)])
    @pytest.mark.parametrize("case, code", [
        ("check-clean", 0), ("check-missing", 2), ("usage", 2), ("check-findings", 1),
        ("emit-findings", 1), ("bench", 0)])
    def test_a_lost_stderr_keeps_the_exit_code_and_stdout(self, tmp_path, gap_fsm, stderr,
                                                          case, code):
        argv = {"check-clean": ["check", ITLC],
                "check-missing": ["check", str(tmp_path / "missing.fsm")],
                "usage": ["bench", ITLC],  # no --arrival
                "check-findings": ["check", gap_fsm],  # findings on stdout
                "emit-findings": ["emit", gap_fsm],  # findings on stderr only
                "bench": ["bench", ITLC, "--arrival", "0.1", "--seeds", "2", "--horizon", "50"],
                }[case]
        command = [sys.executable, "-m", "fsmkit.cli", *argv]
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        seen = subprocess.run(command, capture_output=True, timeout=60, env=env)
        if stderr == "closed":  # started as `fsmkit ... 2>&-`: the process has no fd 2 at all
            lost = subprocess.run(command, stdout=subprocess.PIPE, timeout=60, env=env,
                                  preexec_fn=lambda: os.close(2))
        else:  # every write to stderr fails with ENOSPC
            with open("/dev/full", "w") as full:
                lost = subprocess.run(command, stdout=subprocess.PIPE, stderr=full, timeout=60,
                                      env=env)
        assert seen.returncode == lost.returncode == code
        assert lost.stdout == seen.stdout
        # A refusal has a line to lose; only check's findings and bench write stdout.
        assert (seen.stderr != b"") == (case in ("check-missing", "usage", "emit-findings"))
        assert (seen.stdout != b"") == (case in ("check-findings", "bench"))

    @pytest.mark.parametrize("case, code", [
        ("check-missing", 2), ("check-findings", 1), ("emit-findings", 1)])
    def test_no_stderr_object_keeps_the_exit_code(self, monkeypatch, tmp_path, gap_fsm, case,
                                                  code):
        # In-process, as after `run()` was bypassed with fd 2 closed: sys.stderr is None.
        argv = {"check-missing": ["check", str(tmp_path / "missing.fsm")],
                "check-findings": ["check", gap_fsm],
                "emit-findings": ["emit", gap_fsm],
                }[case]
        monkeypatch.setattr(sys, "stderr", None)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == code


def in_process(argv):
    """(exit code, stdout bytes, stderr bytes) of `main(argv)` with redirected streams."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: --help or a usage error
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue().encode()


def child(args, stdout=subprocess.PIPE, **kwargs):
    """A real `python <args>` on this source tree, stderr (and unless given,
    stdout) to a pipe."""
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          timeout=60, env=dict(os.environ, PYTHONPATH=str(REPO / "src")), **kwargs)


class TestProcessEntry:
    @pytest.mark.parametrize("case", [
        "check-clean", "check-findings", "emit-onehot", "simulate-log", "bench",
        "bench-help", "bench-bad-seeds"])
    def test_a_process_matches_main(self, tmp_path, monkeypatch, gap_fsm, case):
        # Help text wraps to the terminal width, so pin it for both runs.
        monkeypatch.setenv("COLUMNS", "80")
        argv = {
            "check-clean": ["check", ITLC],
            "check-findings": ["check", gap_fsm],
            "emit-onehot": ["emit", ITLC, "--encoding", "onehot"],
            "simulate-log": ["simulate", ITLC,
                             write(tmp_path, "long.stim", "horizon 20000\n0 c=1\n7000 c=0\n")],
            "bench": ["bench", ITLC, "--arrival", "0.1", "--seeds", "8", "--horizon", "8000"],
            "bench-help": ["bench", "--help"],
            "bench-bad-seeds": ["bench", ITLC, "--arrival", "0.1", "--seeds", "abc"],
        }[case]
        code, out, err = expected = in_process(argv)
        assert code == {"check-findings": 1, "bench-bad-seeds": 2}.get(case, 0)
        assert bool(out or err) == (case != "check-clean")
        done = child(["-m", "fsmkit.cli", *argv])
        assert (done.returncode, done.stdout, done.stderr) == expected

    def test_the_program_skips_teardown(self):
        # As `python -m fsmkit.cli` runs it: the process ends once its output
        # is flushed, so neither the atexit handler nor the next line runs.
        done = child(["-c", f"""
import atexit, runpy, sys
atexit.register(print, "atexit ran")
sys.argv = ["fsmkit", "check", {ITLC!r}]
runpy.run_module("fsmkit.cli", run_name="__main__")
print("returned")
"""], text=True)
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")

    def test_main_returns_and_the_caller_goes_on(self, gap_fsm):
        done = child(["-c", f"""
import atexit, contextlib, io
from fsmkit.cli import main
atexit.register(print, "atexit ran")
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(["check", path]) for path in ({ITLC!r}, {gap_fsm!r}, "no-such-file.fsm")]
print(codes)
"""], text=True)
        assert (done.returncode, done.stdout, done.stderr) == (0, "[0, 1, 2]\natexit ran\n", "")


def fields(args):
    """A namespace's attributes with each value's type, so that 1 and 1.0
    differ and a NaN equals itself."""
    return {name: (type(value), repr(value)) for name, value in vars(args).items()}


def parsed(argv):
    return fields(cli.build_parser().parse_args(argv))


# Per type, values that convert (and paths that take no "-" first), then
# values that do not; a draw takes one of the first three times as often.
VALUES = {
    int: (["3", "0", "16", " 7 ", "1_000", "٣"], ["-1", "", "abc", "1.5", "nan", "0x10"]),
    float: (["0.1", "1", "nan", "inf", "1e-3", " 0.2", "1_0"], ["-0.5", "", "abc", "0.1.2"]),
    str: ([ITLC, "out.v", "a b.fsm", "x=y", "ü.vcd", "", "dir/-x", "check"], ["-", "-x.fsm"]),
    tuple: (["verilog", "ucf", "binary", "onehot"], ["gray", "UCF", "onehot ", ""]),
}
# Pieces the matcher leaves to argparse: help, `--`, `--flag=value`,
# abbreviations, an attached short value and unknown names.
JUNK = ["-h", "--help", "--", "--seeds=3", "--output=o.v", "--hor", "--enc", "-oout.v",
        "--vcd", "-o", "--arrival", "frobnicate", "emit", "-x"]


@st.composite
def command_lines(draw):
    """An argv near a valid command: its positionals (sometimes one too few
    or too many), some of its flags with values of every kind, in any order,
    and sometimes a junk piece spliced in."""
    def value(kind):
        good, bad = VALUES[tuple if isinstance(kind, tuple) else kind]
        return draw(st.sampled_from(good * 3 + bad))

    name = draw(st.sampled_from([*cli.COMMANDS, "frobnicate", "-h"]))
    _, _, positionals, flags = cli.COMMANDS.get(name, (None, None, (), ()))
    count = draw(st.sampled_from([len(positionals)] * 4 + [0, len(positionals) + 1]))
    units = [[value(str)] for _ in range(count)]
    for spellings, _, kind, _, _, _ in draw(st.lists(st.sampled_from(flags), max_size=6)
                                            if flags else st.just([])):
        units.append([draw(st.sampled_from(spellings)), value(kind)])
    argv = [name, *(arg for unit in draw(st.permutations(units)) for arg in unit)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(JUNK)))
    return argv


@pytest.fixture
def perfbench_run():
    """The benchmark's runner, `perfbench/run.py`, loaded by path with its sibling modules."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in (spec.name, "inputs", "tracing"):
            sys.modules.pop(name, None)


class TestUsage:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (["bench", ITLC], "fsmkit bench: error: the following arguments are required: --arrival"),
        (["bench", ITLC, "--arrival", "0.1", "--seeds", "abc"],
         "fsmkit bench: error: argument --seeds: invalid int value: 'abc'"),
        (["emit", ITLC, "--encoding", "gray"],
         "fsmkit emit: error: argument --encoding: invalid choice: 'gray' "
         "(choose from 'binary', 'onehot')"),
        (["frobnicate"], "fsmkit: error: argument command: invalid choice: 'frobnicate' "
                         "(choose from 'check', 'simulate', 'emit', 'bench')"),
        ([], "fsmkit: error: the following arguments are required: command"),
        (["check", ITLC, "b\nc"], "fsmkit: error: unrecognized arguments: b\\nc"),
        (["check", ITLC, "b\rc\u2029d"], "fsmkit: error: unrecognized arguments: b\\rc\\u2029d"),
    ], ids=["missing-arrival", "bad-seeds", "bad-encoding", "unknown-command", "no-command",
            "extra-argument-with-newline", "extra-argument-with-line-breaks"])
    def test_a_usage_error_is_one_line(self, argv, message):
        assert in_process(argv) == (2, b"", f"{message}\n".encode())
        done = child(["-m", "fsmkit.cli", *argv])
        assert (done.returncode, done.stdout, done.stderr) == (2, b"", f"{message}\n".encode())

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse's layout varies by version")
    def test_help_texts_are_pinned(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        digests = {"": "10e17231e3a6ce74", "check": "95c459370175ba3a",
                   "simulate": "4591331ba46e2986", "emit": "d82d3c3bb1c898ca",
                   "bench": "560cd7a0ec9167db"}
        for command, digest in digests.items():
            code, out, err = in_process([command, "--help"] if command else ["--help"])
            assert (code, err, hashlib.sha256(out).hexdigest()[:16]) == (0, b"", digest), command

    @settings(max_examples=500, deadline=None)
    @given(command_lines())
    def test_an_argv_the_matcher_takes_parses_alike(self, argv):
        args = cli._match(argv)
        if args is not None:
            assert fields(args) == parsed(argv)

    def test_the_matcher_takes_every_documented_and_benchmarked_argv(self, tmp_path,
                                                                     perfbench_run):
        block = (REPO / "README.md").read_text().split("## CLI\n\n```sh\n", 1)[1]
        lines = block.split("```", 1)[0].replace("\\\n", " ").splitlines()
        argvs = [shlex.split(line, comments=True)[1:] for line in lines]
        assert len(argvs) == 5
        cmds = perfbench_run.flagship(tmp_path)
        for name, workload in perfbench_run.WORKLOADS.items():
            (tmp_path / name).mkdir()
            wl = workload(tmp_path / name, 1, perfbench_run.TINY)
            cmds += wl.setup + wl.round
        argvs += [cmd.argv for cmd in cmds]
        assert {argv[0] for argv in argvs} == set(cli.COMMANDS)
        for argv in argvs:
            args = cli._match(argv)
            assert args is not None, argv
            assert fields(args) == parsed(argv)

    def test_encoding_choices_are_the_emitters(self):
        # The parser spells the encodings out, so that it need not load emit.
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        encoding = next(a for a in sub.choices["emit"]._actions if a.dest == "encoding")
        assert encoding.choices == (emit.BINARY, emit.ONE_HOT)
        assert encoding.default == emit.BINARY


# Near-valid inputs for every command: `.fsm` and pin text edited as
# `edited` does, and each command's flags with values near their limits.
# Numbers stay small (--horizon <= 100, --seeds <= 3, --long <= 64), so that
# no run is long enough to dominate.
PIN_TEXT = "".join(f"{signal} {location} {kind}\n" for signal, location, kind
                   in (*emit.DEFAULT_PIN_ROWS, ("clk", "C9", "input")))
PIN_TOKENS = ("input", "output", "inout", "clk", "st", "reset", "P1", "N17")
# Per flag, values it takes and values it refuses; a draw takes one of the
# first three times as often.  "FILE" and "DIR" stand for an output path and
# a directory, "PINS" for the pin file.
FLAG_VALUES = {
    "short": (("1", "2", "4", "16", "63"), ("0", "64", "-1", "x")),
    "long": (("2", "4", "16", "64"), ("1", "0", "-1", "٣")),
    "vcd": (("FILE",), ("DIR", "")),
    "log": (("FILE",), ("DIR", "")),
    "format": (("verilog", "ucf"), ("UCF",)),
    "encoding": (("binary", "onehot"), ("gray",)),
    "pins": (("PINS",), ("DIR", "", "missing")),
    "output": (("FILE",), ("DIR", "")),
    "arrival": (("0", "1", "0.5", "1e-320", "-0.0"), ("nan", "inf", "1.5", "x")),
    "seeds": (("1", "2", "3"), ("0", "-1")),
    "horizon": (("1", "2", "43", "100"), ("0", "-1")),
    "service_rate": (("1", "2", "1" + "0" * 20), ("0",)),
}
FINDING_LINE = rf"({model.OVERLAP}|{model.GAP}|{model.STRUCTURAL}) \S+ .+"
PARSE_KINDS = "|".join((dsl.SYNTAX, dsl.UNKNOWN_SIGNAL, dsl.DUPLICATE_NAME, dsl.BAD_BIT))


@st.composite
def fuzzed_runs(draw):
    """(argv, .fsm text, pin text, .stim text) for one command from
    `cli.COMMANDS` over near-valid files, the argv naming them by "FSM",
    "STIM" and the `FLAG_VALUES` stand-ins."""
    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    _, _, positionals, flags = cli.COMMANDS[name]
    argv = [name, *(draw(st.sampled_from((p.upper(),) * 18 + ("DIR", "missing")))
                    for p in positionals)]
    for spellings, dest, _, _, required, _ in flags:
        if required or draw(st.booleans()):
            good, bad = FLAG_VALUES[dest]
            argv += [draw(st.sampled_from(spellings)), draw(st.sampled_from(good * 3 + bad))]
    fsm = draw(st.sampled_from(FSM_TEXTS[:1] * 2 + FSM_TEXTS))  # itlc three times as often
    fsm = fsm.rstrip("\n").split("\n")
    return (argv, edited(draw, fsm, (*EDITS * 5, *FSM_NOISE), FSM_TOKENS, least=0),
            edited(draw, PIN_TEXT.rstrip("\n").split("\n"), (*EDITS * 3, "#", "\x00"),
                   PIN_TOKENS, least=0),
            draw(near_valid_stimuli(max_horizon=100, least=0)))


class TestFuzz:
    @settings(max_examples=800, derandomize=True, deadline=None)
    @given(run=fuzzed_runs())
    def test_every_command_exits_0_1_or_2_with_its_documented_stderr(self, run,
                                                                       tmp_path_factory):
        argv, fsm_text, pin_text, stim_text = run
        base = tmp_path_factory.getbasetemp() / "fuzz"
        base.mkdir(exist_ok=True)
        files = {"FSM": base / "m.fsm", "PINS": base / "m.pins", "STIM": base / "m.stim"}
        for path, text in zip(files.values(), (fsm_text, pin_text, stim_text)):
            path.write_text(text, encoding="utf-8")
        paths = {**{key: str(path) for key, path in files.items()},
                 "FILE": str(base / "out"), "DIR": str(base), "missing": str(base / "missing")}
        argv = [paths.get(arg, arg) for arg in argv]
        with cpus(1):  # no worker processes: a run's cost stays in this one
            code, out, err = in_process(argv)
        out, err = out.decode(), err.decode()
        assert "Traceback" not in err and code in (0, 1, 2), (argv, code, err)
        if code == 0:
            assert err == ""
        elif code == 1:  # the findings, in `check`'s form
            lines = (out if argv[0] == "check" else err).splitlines()
            assert lines and all(re.fullmatch(FINDING_LINE, line) for line in lines), err
        else:  # one line, or parse errors that are one line each
            lines = err.split("\n")
            assert lines.pop() == "" and lines, err
            located = rf"{re.escape(paths['FSM'])}:\d+:\d+: ({PARSE_KINDS}): .+"
            assert len(lines) == 1 or all(re.fullmatch(located, line) for line in lines), err


OUT_OF_MEMORY = "out of memory: the input asks for more than this process can hold\n"
MEMORY_LIMIT = 128 << 20  # bytes of address space


def limited_child(argv):
    """`python -m fsmkit.cli <argv>` as a child whose address space is capped at
    MEMORY_LIMIT, so that running out of memory shows as a user would see it."""
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    return child(["-m", "fsmkit.cli", *argv], preexec_fn=limit_memory, text=True)


@pytest.mark.skipif(resource is None, reason="needs the resource module")
class TestUnderAMemoryLimit:
    def test_more_findings_than_fit_exit_2_with_one_line(self, tmp_path):
        # No guard holds in either state for any of 2^16 valuations: 131,072 gap
        # findings, which need more memory than the limit leaves.
        inputs = " ".join(f"i{k}" for k in range(16))
        fsm = write(tmp_path, "gaps.fsm",
                    f"fsm m\ninputs {inputs}\ninitial A\nstate A {{ }}\nstate B {{ }}\n")
        done = limited_child(["check", fsm])
        assert (done.returncode, done.stdout, done.stderr) == (2, "", OUT_OF_MEMORY)

    @pytest.mark.parametrize("argv", [
        ["check", ITLC], ["emit", ITLC], ["simulate", ITLC, STIM],
        ["bench", ITLC, "--arrival", "0.1", "--horizon", "100"],
    ], ids=["check", "emit", "simulate", "bench"])
    def test_the_bundled_design_runs_within_the_limit(self, argv):
        done = limited_child(argv)
        assert (done.returncode, done.stderr) == (0, "")

    def test_a_long_hold_streams_its_log_within_the_limit(self, tmp_path):
        # 2,000,000 log lines, about 73 MB: held whole, as one string, they
        # would not fit, but the log is written a 1000-tick block at a time.
        stim = write(tmp_path, "hold.stim", "horizon 2000000\n0 c=1\n")
        log = tmp_path / "hold.log"
        done = limited_child(["simulate", ITLC, stim, "--log", str(log)])
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
        with open(log, "rb") as f:
            lines = sum(block.count(b"\n") for block in iter(lambda: f.read(1 << 20), b""))
        log.unlink()  # pytest keeps the temporary folders of recent runs
        assert lines == 2_000_000
