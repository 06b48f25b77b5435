"""Acceptance suite: one test per shipped guarantee, each printing a
pass/fail line (run with `pytest -s tests/test_acceptance.py` to see them).
Tolerances and runtime budgets are pinned here, not configurable.
"""
import itertools
import time
from pathlib import Path

from hypothesis import given, settings

from fsmkit import dsl
from fsmkit.emit import DEFAULT_PIN_ROWS, emit_ucf, emit_verilog
from fsmkit.env import TrafficModel, TrafficTable, run_env
from fsmkit.model import moore_output, step_spec, validate
from fsmkit.sim import explore_reachable, parse_stimulus, simulate, write_vcd
from fsmkit.timer import TimerConfig

from conftest import all_valuations, bundled_spec, bundled_stimulus_source, valid_machines
from itlc_reference import ControllerState, ItlcInputs, reference_next, reference_output

REPO = Path(__file__).resolve().parent.parent
CFG = TimerConfig(short_ticks=4, long_ticks=16)

# Frozen from brute-force worst-case traces (observed maximum 28 for {4,16});
# the closed form dominates the kernel's worst dwell walk.
WAIT_BOUND = 2 * CFG.long_ticks + 2 * CFG.short_ticks + 4


def _report(name: str) -> None:
    print(f"ACCEPTANCE PASS: {name}")


def test_exhaustive_transition_conformance():
    start = time.perf_counter()
    spec = bundled_spec()
    cases = 0
    for state in ControllerState:
        for v in all_valuations(spec.inputs):
            nxt, pulses = step_spec(spec, state.value, v)
            ref_next, ref_st = reference_next(state, ItlcInputs(**v))
            assert nxt == ref_next.value, (state, v)
            assert (1 if "st" in pulses else 0) == ref_st, (state, v)
            cases += 1
        assert moore_output(spec, state.value) == reference_output(state).as_dict()
    assert cases == 64
    assert time.perf_counter() - start < 1.0
    _report("exhaustive transition conformance (64 cases, zero tolerance)")


def test_safety_model_check():
    start = time.perf_counter()
    spec = bundled_spec()
    for cfg in (CFG, TimerConfig(short_ticks=8, long_ticks=64)):
        violations = []
        for state, count in explore_reachable(spec, cfg):
            lights = moore_output(spec, state)
            main = lights["mg"] + lights["my"] + lights["mr"]
            side = lights["sg"] + lights["sy"] + lights["sr"]
            if main != 1 or side != 1 or not (lights["mr"] or lights["sr"]):
                violations.append((state, count))
        assert violations == []
    assert time.perf_counter() - start < 1.0
    _report("safety model check over all reachable configurations")


def test_scenario_ordering():
    spec = bundled_spec()
    trace = simulate(spec, CFG, parse_stimulus(bundled_stimulus_source()))
    phases = [k for k, _ in itertools.groupby(r.state for r in trace.records)]
    assert phases == ["S0", "S1", "S2", "S3", "S0"]
    expected_lights = {
        "S0": {"mg": 1, "sr": 1}, "S1": {"my": 1, "sr": 1},
        "S2": {"mr": 1, "sg": 1}, "S3": {"mr": 1, "sy": 1},
    }
    for tick, r in enumerate(trace.records):
        want = expected_lights[r.state]
        for name in ("mg", "my", "mr", "sg", "sy", "sr"):
            assert r.moore[name] == want.get(name, 0), (tick, name)
    _report("side-road scenario ordering with exact light patterns "
            "(absolute testbench timestamps out of scope)")


def test_idle_prioritization():
    metrics = run_env(
        TrafficTable(bundled_spec(), CFG), TrafficModel(0.0, seed=0, horizon=10_000))
    assert metrics.main_green_share == 1.0
    assert metrics.cycles_completed == 0
    _report("idle prioritization: main road green 100% with no side traffic")


def test_bounded_side_road_wait():
    start = time.perf_counter()
    spec = bundled_spec()
    for seed in range(20):
        metrics = run_env(
            TrafficTable(spec, CFG), TrafficModel(1.0, seed=seed, horizon=10_000))
        assert metrics.max_side_wait <= WAIT_BOUND, (seed, metrics.max_side_wait)
    assert time.perf_counter() - start < 5.0
    _report(f"bounded side-road wait under saturation (max <= {WAIT_BOUND}, 20 seeds)")


def test_determinism_and_golden_files():
    spec = bundled_spec()
    stim = parse_stimulus(bundled_stimulus_source())

    trace = simulate(spec, CFG, stim)
    assert simulate(spec, CFG, stim) == trace

    model = TrafficModel(0.2, seed=5, horizon=2000)
    assert run_env(TrafficTable(spec, CFG), model) == run_env(TrafficTable(spec, CFG), model)

    vcd = write_vcd(trace)
    assert write_vcd(trace) == vcd
    assert vcd.encode() == (REPO / "golden" / "itlc_scenario.vcd").read_bytes()

    verilog = emit_verilog(spec)
    assert emit_verilog(spec) == verilog
    assert verilog.encode() == (REPO / "golden" / "itlc.v").read_bytes()

    ucf = emit_ucf(spec, DEFAULT_PIN_ROWS)
    assert emit_ucf(spec, DEFAULT_PIN_ROWS) == ucf
    assert ucf.encode() == (REPO / "golden" / "itlc.ucf").read_bytes()
    _report("byte-identical reruns and exact golden-file matches")


def test_dsl_round_trip_property():
    start = time.perf_counter()

    @settings(max_examples=100, deadline=None)
    @given(valid_machines(max_states=6, max_inputs=4))
    def round_trip(spec):
        text = dsl.serialize(spec)
        reparsed = dsl.parse(text)
        assert reparsed == spec
        assert dsl.serialize(reparsed) == text
        assert validate(reparsed) == validate(spec)

    round_trip()
    assert time.perf_counter() - start < 10.0
    _report("DSL round trip and findings stability over 100 random machines")


def test_ucf_matches_board_mapping():
    lines = emit_ucf(bundled_spec(), DEFAULT_PIN_ROWS).strip().split("\n")
    assert lines == [
        'NET "c" LOC = "N17";',
        'NET "ts" LOC = "H18";',
        'NET "tl" LOC = "L14";',
        'NET "mr" LOC = "F9";',
        'NET "my" LOC = "E9";',
        'NET "mg" LOC = "D11";',
        'NET "sr" LOC = "F11";',
        'NET "sy" LOC = "E11";',
        'NET "sg" LOC = "E12";',
    ]
    _report("UCF emission matches the nine board pin assignments")


def test_vendor_synthesis_explicitly_out_of_scope():
    # Resource utilization and critical-path delay need vendor tooling on the
    # physical part; the README documents the manual synthesis procedure.
    readme = (REPO / "README.md").read_text("utf-8")
    assert "synthesis" in readme.lower()
    _report("FPGA utilization / timing excluded; manual synthesis documented")
