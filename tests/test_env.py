import pytest
from hypothesis import given, settings, strategies as st

from conftest import closed_loop_machines, timer_configs
from fsmkit.env import (
    EnvResult, Metrics, SplitMix64, TrafficModel, run_env, run_env_detailed,
)
from fsmkit.itlc import bundled_spec
from fsmkit.sim import Trace, closed_loop_tick
from fsmkit.timer import TimerConfig

# Frozen analytic worst-case wait for cfg {short, long}: a vehicle can at
# worst sit through the tail of one side-road green it just missed, the
# side amber, the full main green (long expiry), the main amber, and a
# couple of service ticks.  Brute-force traces at arrival_prob=1 peak at 28
# for {4, 16}; the closed form below dominates every observed trace.
def worst_case_wait_bound(cfg: TimerConfig) -> int:
    return 2 * cfg.long_ticks + 2 * cfg.short_ticks + 4


def reference_run_env(spec, cfg, model):
    """The untabulated traffic run: one kernel call per tick, arrivals drawn
    north before south, departures oldest first with north winning ties."""
    rng = SplitMix64(model.seed)
    state, count = spec.initial_state, 0
    slots = [None, None]
    records, waits = [], []
    arrivals = green_main = cycles = 0
    for tick in range(model.horizon):
        for approach in (0, 1):
            if rng.bernoulli(model.arrival_prob) and slots[approach] is None:
                slots[approach] = tick
                arrivals += 1
        c = 0 if slots == [None, None] else 1
        record, next_state, count = closed_loop_tick(spec, cfg, state, count, c, 0)
        records.append(record)
        if record.moore.get("mg"):
            green_main += 1
        if record.moore.get("sg"):
            served = 0
            while served < model.service_rate and slots != [None, None]:
                idx = min((i for i in (0, 1) if slots[i] is not None),
                          key=lambda i: (slots[i], i))
                waits.append(tick - slots[idx])
                slots[idx] = None
                served += 1
        if state != spec.initial_state and next_state == spec.initial_state:
            cycles += 1
        state = next_state
    metrics = Metrics(
        mean_side_wait=sum(waits) / len(waits) if waits else 0.0,
        max_side_wait=max(waits, default=0),
        main_green_share=green_main / model.horizon,
        side_vehicles_served=len(waits),
        cycles_completed=cycles)
    return EnvResult(metrics, Trace(spec, tuple(records)), arrivals, tuple(waits), 2 - slots.count(None))


class TestTabulatedRun:
    @settings(max_examples=150, deadline=None)
    @given(spec=st.one_of(st.just(bundled_spec()), closed_loop_machines()),
           cfg=timer_configs(),
           seed=st.integers(0, 2**64 - 1),
           p=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
           service_rate=st.integers(1, 3),
           horizon=st.integers(1, 400))
    def test_matches_the_untabulated_kernel(self, spec, cfg, seed, p, service_rate, horizon):
        model = TrafficModel(p, seed=seed, horizon=horizon, service_rate=service_rate)
        detailed = run_env_detailed(spec, cfg, model)
        assert detailed == reference_run_env(spec, cfg, model)
        assert run_env(spec, cfg, model) == detailed.metrics


class TestTrafficModel:
    @pytest.mark.parametrize("kwargs", [
        {"arrival_prob": -0.1}, {"arrival_prob": 1.5},
        {"arrival_prob": 0.5, "horizon": 0},
        {"arrival_prob": 0.5, "service_rate": 0},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            TrafficModel(**kwargs)


class TestSplitMix64:
    def test_known_sequence(self):
        # Published reference outputs of the splitmix64 recurrence, seed 1234567.
        rng = SplitMix64(1234567)
        assert [rng.next_u64() for _ in range(3)] == [
            6457827717110365317, 3203168211198807973, 9817491932198370423]

    def test_bernoulli_extremes(self):
        rng = SplitMix64(9)
        assert all(rng.bernoulli(1.0) for _ in range(100))
        assert not any(rng.bernoulli(0.0) for _ in range(100))


class TestRunEnv:
    def test_no_side_traffic_keeps_main_green(self, itlc_spec, default_cfg):
        r = run_env_detailed(
            itlc_spec, default_cfg, TrafficModel(0.0, seed=1, horizon=2000))
        assert r.metrics.main_green_share == 1.0
        assert r.metrics.side_vehicles_served == 0
        assert r.metrics.cycles_completed == 0
        assert all(rec.state == "S0" for rec in r.trace.records)

    def test_saturated_arrivals_bounded_wait(self, itlc_spec, default_cfg):
        bound = worst_case_wait_bound(default_cfg)
        for seed in range(5):
            metrics = run_env(
                itlc_spec, default_cfg,
                TrafficModel(1.0, seed=seed, horizon=2000))
            assert metrics.cycles_completed >= 1
            assert metrics.max_side_wait <= bound

    def test_determinism_for_fixed_seed(self, itlc_spec, default_cfg):
        model = TrafficModel(0.3, seed=42, horizon=1500)
        a = run_env_detailed(itlc_spec, default_cfg, model)
        b = run_env_detailed(itlc_spec, default_cfg, model)
        assert a == b

    def test_conservation(self, itlc_spec, default_cfg):
        r = run_env_detailed(
            itlc_spec, default_cfg, TrafficModel(0.25, seed=7, horizon=3000))
        assert r.arrivals == len(r.served_waits) + r.queue_remaining

    def test_no_service_on_red(self, itlc_spec, default_cfg):
        r = run_env_detailed(
            itlc_spec, default_cfg, TrafficModel(0.4, seed=11, horizon=3000))
        # Arrivals only fill slots, so the sensor can fall from 1 to 0 only
        # through a departure, and departures happen only on side-green ticks.
        recs = r.trace.records
        falls = [(tick, a) for tick, (a, b) in enumerate(zip(recs, recs[1:]))
                 if a.inputs["c"] == 1 and b.inputs["c"] == 0]
        assert falls  # the witness is not vacuous
        for tick, a in falls:
            assert a.moore["sg"] == 1, tick

    def test_sensor_honesty(self, itlc_spec, default_cfg):
        # Independent witness: replay slot occupancy from the seed's own
        # draws (north before south, an arrival only into a free slot) and
        # from departures on side-green ticks (oldest first, north on ties).
        model = TrafficModel(0.4, seed=13, horizon=2000)
        r = run_env_detailed(itlc_spec, default_cfg, model)
        rng = SplitMix64(model.seed)
        slots = [None, None]
        seen = set()
        for tick, rec in enumerate(r.trace.records):
            for i in (0, 1):
                if rng.bernoulli(model.arrival_prob) and slots[i] is None:
                    slots[i] = tick
            occupied = slots != [None, None]
            assert rec.inputs["c"] == (1 if occupied else 0), tick
            seen.add(occupied)
            waiting = [i for i in (0, 1) if slots[i] is not None]
            if rec.moore["sg"] and waiting:
                slots[min(waiting, key=lambda i: (slots[i], i))] = None
        assert seen == {False, True}  # both directions are exercised

    def test_pressure_endpoints(self, itlc_spec, default_cfg):
        idle = run_env(itlc_spec, default_cfg,
                       TrafficModel(0.0, seed=3, horizon=2000))
        jammed = run_env(itlc_spec, default_cfg,
                         TrafficModel(1.0, seed=3, horizon=2000))
        assert idle.main_green_share == 1.0
        assert jammed.main_green_share < idle.main_green_share

    def test_waits_are_measured_to_departure(self, itlc_spec, default_cfg):
        r = run_env_detailed(
            itlc_spec, default_cfg, TrafficModel(1.0, seed=0, horizon=500))
        assert all(w >= 0 for w in r.served_waits)
        assert max(r.served_waits) > 0


class TestMetricsSerialization:
    METRICS = Metrics(
        mean_side_wait=12.5, max_side_wait=27, main_green_share=0.6,
        side_vehicles_served=42, cycles_completed=7)

    def test_record_format(self):
        assert self.METRICS.as_record(prefix="seed=0 ") == (
            "seed=0 mean_side_wait=12.500 max_side_wait=27 "
            "main_green_share=0.600 side_vehicles_served=42 cycles_completed=7")
