import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fsmkit import sim
from fsmkit.itlc import bundled_stimulus_source
from fsmkit.model import moore_output
from fsmkit.sim import (
    ExternalInputs, SimError, Stimulus, StimulusError, parse_stimulus,
    simulate, simulate_open, write_vcd, explore_reachable,
)
from fsmkit.timer import TimerConfig, TimerState, timer_outputs

GOLDEN = Path(__file__).resolve().parent.parent / "golden"


def constant_stim(n, c=0, reset=0):
    return Stimulus(tuple(ExternalInputs(c=c, reset=reset) for _ in range(n)))


class TestParseStimulus:
    def test_hold_semantics(self):
        stim = parse_stimulus("horizon 3\n0 c=1\n")
        assert stim.ticks == (ExternalInputs(1, 0),) * 3

    def test_initial_values_are_zero(self):
        stim = parse_stimulus("horizon 4\n2 c=1 reset=1\n")
        assert stim.ticks == (
            ExternalInputs(0, 0), ExternalInputs(0, 0),
            ExternalInputs(1, 1), ExternalInputs(1, 1))

    def test_non_monotonic_ticks_rejected(self):
        with pytest.raises(StimulusError, match="non-monotonic"):
            parse_stimulus("horizon 2\n1 c=1\n0 c=0\n")

    def test_tick_beyond_horizon_rejected(self):
        with pytest.raises(StimulusError, match="outside horizon"):
            parse_stimulus("horizon 2\n2 c=1\n")

    def test_malformed_bit_rejected(self):
        with pytest.raises(StimulusError, match="0 or 1"):
            parse_stimulus("horizon 2\n0 c=x\n")

    def test_missing_header_rejected(self):
        with pytest.raises(StimulusError, match="horizon"):
            parse_stimulus("0 c=1\n")

    def test_comments_and_blanks_ignored(self):
        stim = parse_stimulus("# hi\nhorizon 2\n\n0 c=1  # arrival\n")
        assert stim.ticks == (ExternalInputs(1, 0),) * 2


class TestSimulate:
    def test_idle_stays_in_initial_state(self, itlc_spec, default_cfg):
        trace = simulate(itlc_spec, default_cfg, constant_stim(64))
        assert len(trace.records) == 64
        for r in trace.records:
            assert r.state == "S0"
            assert r.moore["mg"] == 1 and r.moore["sr"] == 1

    def test_hand_verified_closed_loop_trace(self, itlc_spec, default_cfg):
        trace = simulate(itlc_spec, default_cfg, constant_stim(44, c=1))
        runs = [(k, len(list(g)))
                for k, g in itertools.groupby(r.state for r in trace.records)]
        assert runs == [("S0", 17), ("S1", 5), ("S2", 17), ("S3", 5)]
        assert [r.tick for r in trace.records if r.st] == [16, 21, 38, 43]

    def test_reset_forces_initial_state_next_tick(self, itlc_spec, default_cfg):
        ticks = [ExternalInputs(c=1) for _ in range(30)]
        ticks[20] = ExternalInputs(c=1, reset=1)
        trace = simulate(itlc_spec, default_cfg, Stimulus(tuple(ticks)))
        assert trace.records[20].state != "S0"  # mid-cycle when reset hits
        assert trace.records[21].state == "S0"
        assert trace.records[20].st == 0  # reset does not pulse the timer

    def test_wrong_input_set_rejected_before_tick_zero(self, default_cfg):
        from fsmkit import dsl
        other = dsl.parse(
            "fsm m\ninputs a\ninitial A\nstate A { }\ntrans A -> A when 1\n")
        with pytest.raises(SimError, match="closed-loop"):
            simulate(other, default_cfg, constant_stim(4))

    def test_record_consistency(self, itlc_spec, default_cfg):
        trace = simulate(itlc_spec, default_cfg, constant_stim(44, c=1))
        for r in trace.records:
            assert dict(r.moore) == moore_output(itlc_spec, r.state)
            ts, tl = timer_outputs(default_cfg, TimerState(r.timer_count))
            assert (r.inputs["ts"], r.inputs["tl"]) == (ts, tl)

    def test_closed_loop_pulse_law(self, itlc_spec, default_cfg):
        trace = simulate(itlc_spec, default_cfg, constant_stim(100, c=1))
        for a, b in zip(trace.records, trace.records[1:]):
            assert a.st == (1 if b.state != a.state else 0)

    def test_determinism(self, itlc_spec, default_cfg):
        stim = constant_stim(64, c=1)
        assert simulate(itlc_spec, default_cfg, stim) == \
            simulate(itlc_spec, default_cfg, stim)


class TestSimulateOpen:
    def test_external_timer_inputs(self, itlc_spec):
        vals = [
            {"reset": 0, "c": 1, "ts": 0, "tl": 1},  # S0 -> S1
            {"reset": 0, "c": 1, "ts": 1, "tl": 0},  # S1 -> S2
            {"reset": 0, "c": 1, "ts": 0, "tl": 1},  # S2 -> S3
            {"reset": 0, "c": 1, "ts": 1, "tl": 1},  # S3 -> S0
        ]
        trace = simulate_open(itlc_spec, vals)
        assert [r.state for r in trace.records] == ["S0", "S1", "S2", "S3"]
        assert all(r.st for r in trace.records)
        assert all(r.timer_count is None for r in trace.records)

    def test_valuation_key_mismatch_rejected(self, itlc_spec):
        with pytest.raises(SimError, match="valuation keys"):
            simulate_open(itlc_spec, [{"c": 1}])


class TestReachability:
    def test_all_reachable_configurations_are_safe(self, itlc_spec, default_cfg):
        reached = explore_reachable(itlc_spec, default_cfg)
        assert reached  # at least the initial configuration
        for state, count in reached:
            assert 0 <= count <= default_cfg.long_ticks
            lights = moore_output(itlc_spec, state)
            assert lights["mg"] + lights["my"] + lights["mr"] == 1
            assert lights["sg"] + lights["sy"] + lights["sr"] == 1
            assert lights["mr"] or lights["sr"]
            assert not (lights["mg"] and lights["sg"])


    def test_configuration_counts(self, itlc_spec):
        # Pinned so that a change to the tick kernel cannot shrink the set the
        # safety check ranges over without notice.
        assert len(explore_reachable(itlc_spec, TimerConfig(4, 16))) == 44
        assert len(explore_reachable(itlc_spec, TimerConfig(8, 64))) == 148


class TestWriteVcd:
    def test_open_loop_constant_trace_has_single_section(self, itlc_spec):
        vals = [{"reset": 0, "c": 0, "ts": 0, "tl": 0}] * 64
        vcd = write_vcd(simulate_open(itlc_spec, vals))
        sections = [l for l in vcd.splitlines() if l.startswith("#")]
        assert sections == ["#0"]

    def test_closed_loop_idle_changes_only_timer_levels(self, itlc_spec, default_cfg):
        vcd = write_vcd(simulate(itlc_spec, default_cfg, constant_stim(64)))
        sections = [l for l in vcd.splitlines() if l.startswith("#")]
        # ts rises at short expiry, tl at long expiry; nothing else moves.
        assert sections == ["#0", "#4", "#16"]

    def test_main_amber_first_appears_at_tick_17(self, itlc_spec, default_cfg):
        vcd = write_vcd(simulate(itlc_spec, default_cfg, constant_stim(44, c=1)))
        lines = vcd.splitlines()
        my_id = next(
            l.split()[3] for l in lines if l.startswith("$var") and " my " in l)
        current = None
        first_high = None
        for line in lines:
            if line.startswith("#"):
                current = line
            elif line == f"1{my_id}" and first_high is None:
                first_high = current
        assert first_high == "#17"

    def test_byte_identical_across_runs(self, itlc_spec, default_cfg):
        stim = parse_stimulus(bundled_stimulus_source())
        a = write_vcd(simulate(itlc_spec, default_cfg, stim))
        b = write_vcd(simulate(itlc_spec, default_cfg, stim))
        assert a == b

    def test_golden_scenario_vcd(self, itlc_spec, default_cfg):
        stim = parse_stimulus(bundled_stimulus_source())
        vcd = write_vcd(simulate(itlc_spec, default_cfg, stim))
        assert vcd.encode() == (GOLDEN / "itlc_scenario.vcd").read_bytes()

    def test_declares_every_signal_and_state_vector(self, itlc_spec, default_cfg):
        vcd = write_vcd(simulate(itlc_spec, default_cfg, constant_stim(4)))
        for name in ("reset", "c", "ts", "tl", "st",
                     "mg", "my", "mr", "sg", "sy", "sr"):
            assert f" {name} $end" in vcd
        assert "$var wire 2" in vcd and " state $end" in vcd
        assert "$timescale 1 ns $end" in vcd
        assert "$scope module itlc $end" in vcd


class TestScenarioOrdering:
    def test_bundled_stimulus_walks_the_full_cycle(self, itlc_spec, default_cfg):
        stim = parse_stimulus(bundled_stimulus_source())
        trace = simulate(itlc_spec, default_cfg, stim)
        phases = [k for k, _ in itertools.groupby(r.state for r in trace.records)]
        assert phases == ["S0", "S1", "S2", "S3", "S0"]
        patterns = {r.state: (r.moore["mg"], r.moore["my"], r.moore["mr"],
                              r.moore["sg"], r.moore["sy"], r.moore["sr"])
                    for r in trace.records}
        assert patterns["S0"] == (1, 0, 0, 0, 0, 1)
        assert patterns["S1"] == (0, 1, 0, 0, 0, 1)
        assert patterns["S2"] == (0, 0, 1, 1, 0, 0)
        assert patterns["S3"] == (0, 0, 1, 0, 1, 0)
