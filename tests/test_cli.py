import argparse
import contextlib
import errno
import hashlib
import importlib.util
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from fsmkit import cli, emit, model
from fsmkit.cli import main
from fsmkit.dsl import MAX_GUARD_DEPTH, MAX_INPUTS

REPO = Path(__file__).resolve().parent.parent
ITLC = str(REPO / "designs" / "itlc.fsm")
STIM = str(REPO / "designs" / "paper_fig7_10.stim")
PERFBENCH_INPUTS = REPO / "perfbench" / "inputs.py"

GAP_SPEC = """fsm gappy
inputs a
initial A
state A { }
trans A -> A when a
"""


CLOSED_LOOP_HEADER = """fsm loop
inputs reset c ts tl
outputs mg
pulses st
initial S0
reset reset
state S0 { mg=1 }
"""
# Two guards overlap wherever c & tl holds.
OVERLAP_SPEC = CLOSED_LOOP_HEADER + """trans S0 -> S0 when !c
trans S0 -> S0 when c
trans S0 -> S0 when c & tl emit st
"""
# No guard holds while c is low, which a stimulus holding c high never hits.
CLOSED_GAP_SPEC = CLOSED_LOOP_HEADER + "trans S0 -> S0 when c\n"


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
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert out.startswith("gap A ")
        assert "a=0" in out

    def test_missing_file(self, capsys):
        assert main(["check", "no-such-file.fsm"]) == 2
        assert "no-such-file.fsm" in capsys.readouterr().err

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

    def test_log_bytes_are_pinned(self, capsys):
        assert main(["simulate", ITLC, STIM]) == 0
        log = capsys.readouterr().out
        assert log.count("\n") == 40
        assert hashlib.sha256(log.encode()).hexdigest() == (
            "7b47fd9b13e9b02f6508caca52c9d7c04d3bdc42924c8dbdc2a1af2a98290e7e")

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
        assert (tmp_path / "w.log").read_text() == log
        assert (tmp_path / "w.vcd").read_text() == vcd

    def test_bad_timer_config(self, capsys):
        assert main(["simulate", ITLC, STIM, "--short", "16", "--long", "4"]) == 2
        assert "short" in capsys.readouterr().err

    def test_bad_stimulus(self, tmp_path, capsys):
        for text, message in [("horizon 2\n1 c=1\n0 c=0\n", "non-monotonic"),
                              ("horizon 2\n0 c=1 c=0\n", "line 2: duplicate assignment to 'c'\n")]:
            stim = tmp_path / "bad.stim"
            stim.write_text(text)
            assert main(["simulate", ITLC, str(stim)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1
            assert message in captured.err


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

    def test_custom_pin_file(self, tmp_path, capsys):
        pins = tmp_path / "pins.txt"
        pins.write_text("c N17 input\n")
        assert main(["emit", ITLC, "--format", "ucf", "--pins", str(pins)]) == 0
        assert capsys.readouterr().out == 'NET "c" LOC = "N17";\n'

    def test_onehot_encoding_flag(self, capsys):
        assert main(["emit", ITLC, "--encoding", "onehot"]) == 0
        assert "4'b0001" in capsys.readouterr().out


class TestBench:
    @pytest.mark.parametrize("spec_text", [OVERLAP_SPEC, CLOSED_GAP_SPEC])
    def test_findings_exit_1_before_tick_0(self, tmp_path, capsys, spec_text):
        fsm = write(tmp_path, "loop.fsm", spec_text)
        findings = check_findings(fsm, capsys)
        assert main(["bench", fsm, "--arrival", "1", "--horizon", "40"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == findings

    def test_pinned_output(self, capsys):
        assert main(["bench", ITLC, "--arrival", "0.1", "--seeds", "2",
                     "--horizon", "100"]) == 0
        assert capsys.readouterr().out == (
            "seed=0 mean_side_wait=16.500 max_side_wait=27 main_green_share=0.610 "
            "side_vehicles_served=6 cycles_completed=3\n"
            "seed=1 mean_side_wait=15.571 max_side_wait=25 main_green_share=0.600 "
            "side_vehicles_served=7 cycles_completed=3\n"
            "aggregate mean_side_wait=16.036 max_side_wait=27 main_green_share=0.605 "
            "side_vehicles_served=13 cycles_completed=6\n")

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
    }[case]


class TestInputOutputErrors:
    @pytest.mark.parametrize("case", [
        "fsm-not-utf8", "stim-not-utf8", "pins-not-utf8",
        "vcd-unwritable", "log-unwritable", "output-unwritable",
    ])
    def test_exit_2_with_one_line_and_no_traceback(self, tmp_path, case):
        # A real process, so that an uncaught exception shows as a traceback.
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        result = subprocess.run([sys.executable, "-m", "fsmkit.cli", *io_error_case(case, tmp_path)],
                                capture_output=True, text=True, env=env, timeout=60)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr.count("\n") == 1 and result.stderr.startswith("cannot ")

    @pytest.mark.parametrize("command, unbuffered", [
        ("bench", False), ("simulate", False), ("simulate", True), ("check", True),
    ], ids=["bench", "simulate", "simulate-unbuffered", "check-unbuffered"])
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

    def test_out_of_memory_exits_2_with_one_line(self, tmp_path):
        # A trace of 10^11 ticks cannot be held; a 256 MB address-space limit on
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


class TestUsage:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_encoding_choices_are_the_emitters(self):
        # The parser spells the encodings out, so that it need not load emit.
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        encoding = next(a for a in sub.choices["emit"]._actions if a.dest == "encoding")
        assert encoding.choices == (emit.BINARY, emit.ONE_HOT)
        assert encoding.default == emit.BINARY
