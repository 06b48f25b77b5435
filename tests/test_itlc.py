from pathlib import Path

from fsmkit.model import moore_output, step_spec, validate

from conftest import all_valuations, bundled_source, bundled_spec
from itlc_reference import (
    ControllerState, ItlcInputs, LightOutputs, reference_next, reference_output,
)

S0, S1, S2, S3 = ControllerState

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestReferenceNext:
    def test_side_green_holds_while_vehicle_and_timer(self):
        for ts in (0, 1):
            assert reference_next(S2, ItlcInputs(c=1, tl=0, ts=ts)) == (S2, 0)

    def test_side_green_ends_when_road_clears(self):
        assert reference_next(S2, ItlcInputs(c=0, tl=0)) == (S3, 1)

    def test_main_amber_waits_for_short_timer(self):
        assert reference_next(S1, ItlcInputs(ts=0, c=1, tl=1)) == (S1, 0)

    def test_reset_dominates_and_does_not_pulse(self):
        for state in ControllerState:
            assert reference_next(state, ItlcInputs(reset=1, c=1, ts=1, tl=1)) == (S0, 0)

    def test_pulse_iff_state_changes(self):
        for state in ControllerState:
            for c in (0, 1):
                for ts in (0, 1):
                    for tl in (0, 1):
                        nxt, st = reference_next(state, ItlcInputs(0, c, ts, tl))
                        assert st == (1 if nxt is not state else 0)


class TestReferenceOutput:
    def test_main_amber(self):
        assert reference_output(S1) == LightOutputs(my=1, sr=1)

    def test_side_amber(self):
        assert reference_output(S3) == LightOutputs(mr=1, sy=1)

    def test_idle(self):
        assert reference_output(S0) == LightOutputs(mg=1, sr=1)

    def test_safety_invariants(self):
        for state in ControllerState:
            lights = reference_output(state)
            assert lights.mg + lights.my + lights.mr == 1
            assert lights.sg + lights.sy + lights.sr == 1
            assert lights.mr or lights.sr


class TestBundledSpec:
    def test_shape(self):
        spec = bundled_spec()
        assert len(spec.states) == 4
        assert sum(len(s.transitions) for s in spec.states) == 8
        assert all(len(s.transitions) == 2 for s in spec.states)

    def test_validates_clean(self):
        assert validate(bundled_spec()) == ()

    def test_equivalent_to_reference_on_all_64_combinations(self):
        spec = bundled_spec()
        checked = 0
        for state in ControllerState:
            for v in all_valuations(spec.inputs):
                nxt, pulses = step_spec(spec, state.value, v)
                ref_next, ref_st = reference_next(state, ItlcInputs(**v))
                assert nxt == ref_next.value
                assert (1 if "st" in pulses else 0) == ref_st
                checked += 1
            assert moore_output(spec, state.value) == reference_output(state).as_dict()
        assert checked == 64

    def test_repo_design_file_matches_embedded_asset(self):
        on_disk = (REPO_ROOT / "designs" / "itlc.fsm").read_text("utf-8")
        assert on_disk == bundled_source()


class TestLiveness:
    FAIR_SEQUENCE = (
        ItlcInputs(c=1, tl=1),
        ItlcInputs(ts=1),
        ItlcInputs(c=1, tl=1),
        ItlcInputs(ts=1),
    )

    def test_fair_inputs_reach_idle_within_four_steps(self):
        for start in ControllerState:
            state = start
            visited = [state]
            for i in range(4):
                state, _ = reference_next(state, self.FAIR_SEQUENCE[i % 4])
                visited.append(state)
            assert S0 in visited[1:]

    def test_full_cycle_from_idle(self):
        state = S0
        seen = []
        for i in range(4):
            state, st = reference_next(state, self.FAIR_SEQUENCE[i % 4])
            assert st == 1
            seen.append(state)
        assert seen == [S1, S2, S3, S0]
