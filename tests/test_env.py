import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from conftest import bundled_spec, closed_loop_machines, timer_configs
from fsmkit import env
from fsmkit.env import (
    BLOCK_TICKS, Metrics, SplitMix64, TrafficModel, TrafficTable, arrival_blocks, run_env,
    run_seeds,
)
from fsmkit.kernel import _ClosedLoop, closed_loop_tick
from fsmkit.model import ConfigError, FsmError
from fsmkit.timer import TimerConfig

# Frozen analytic worst-case wait for cfg {short, long}: a vehicle can at
# worst sit through the tail of one side-road green it just missed, the
# side amber, the full main green (long expiry), the main amber, and a
# couple of service ticks.  Brute-force traces at arrival_prob=1 peak at 28
# for {4, 16}; the closed form below dominates every observed trace.
def worst_case_wait_bound(cfg: TimerConfig) -> int:
    return 2 * cfg.long_ticks + 2 * cfg.short_ticks + 4


class ReferenceRun(NamedTuple):
    metrics: Metrics
    records: tuple  # one kernel record per tick
    arrivals: int
    waits: tuple[int, ...]  # in departure order
    queue_remaining: int


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
    return ReferenceRun(metrics, tuple(records), arrivals, tuple(waits), 2 - slots.count(None))


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
        assert run_env(TrafficTable(spec, cfg), model) == \
            reference_run_env(spec, cfg, model).metrics

    @settings(max_examples=100, deadline=None)
    @given(spec=st.one_of(st.just(bundled_spec()), closed_loop_machines()),
           cfg=timer_configs(),
           seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3),
           p=st.floats(0.0, 1.0),
           horizon=st.integers(1, 300))
    def test_every_filled_cell_is_the_kernel_plus_the_slot_rules(self, spec, cfg, seeds, p,
                                                                 horizon):
        table = TrafficTable(spec, cfg)
        for seed in seeds:
            run_env(table, TrafficModel(p, seed=seed, horizon=horizon))
        configs = table.loop.configs
        filled = [(k, cell) for k, cell in enumerate(table.cells) if cell is not None]
        assert filled
        for k, (nxt, event) in filled:
            (state, count), busy, symbol = configs[k >> 4], k >> 2 & 3, k & 3
            # A vehicle is registered only in a free slot; c is the OR of the slots.
            north = not busy & 2 and bool(symbol & 2)
            south = not busy & 1 and bool(symbol & 1)
            busy |= symbol
            kernel, next_state, next_count = closed_loop_tick(
                spec, cfg, state, count, 1 if busy else 0, 0)
            assert table.loop.cells[4 * (k >> 4) + (2 if busy else 0)][1] == kernel, k
            # A side-green tick with a vehicle waiting serves: the cell leaves
            # both busy bits 0 and `run_env` sets those of vehicles still waiting.
            serve = bool(busy) and bool(kernel.moore.get("sg"))
            cycle = state != spec.initial_state and next_state == spec.initial_state
            # mg rises or falls where the next tick's record shows it differently.
            after = closed_loop_tick(spec, cfg, next_state, next_count, 0, 0)[0]
            now, then = bool(kernel.moore.get("mg")), bool(after.moore.get("mg"))
            rise, fall = then and not now, now and not then
            assert event == 2 * north + south + 4 * serve + 8 * cycle + 16 * rise + 32 * fall, k
            j = table.loop.ids[(next_state, next_count)]
            assert nxt == 16 * j + (0 if serve else 4 * busy), k


class TestGreenAccounting:
    """`run_env` counts main green from the ticks where mg rises or falls, plus
    the horizon when the state after the last tick shows mg."""

    @settings(max_examples=120, deadline=None)
    @given(spec=st.sampled_from([(), ("mg",), ("sg",), ("sg", "mg")]).flatmap(
               lambda lights: closed_loop_machines(lights=lights)),
           cfg=timer_configs(),
           seed=st.integers(0, 2**64 - 1),
           p=st.floats(0.0, 1.0),
           service_rate=st.integers(1, 3),
           horizon=st.one_of(st.just(1), st.integers(1, 300)))
    def test_machines_lacking_a_light_match_the_reference(self, spec, cfg, seed, p,
                                                          service_rate, horizon):
        model = TrafficModel(p, seed=seed, horizon=horizon, service_rate=service_rate)
        metrics = run_env(TrafficTable(spec, cfg), model)
        assert metrics == reference_run_env(spec, cfg, model).metrics
        if "mg" not in spec.moore_outputs:
            assert metrics.main_green_share == 0.0

    def test_runs_ending_mid_green_or_not_match_the_reference(self, itlc_spec, default_cfg):
        endings = set()
        for horizon in range(1, 160):
            model = TrafficModel(0.3, seed=9, horizon=horizon)
            reference = reference_run_env(itlc_spec, default_cfg, model)
            assert run_env(TrafficTable(itlc_spec, default_cfg), model) == reference.metrics, \
                horizon
            share = reference.metrics.main_green_share
            endings.add((reference.records[-1].moore["mg"], 0 < share < 1))
        # Both endings occur after green has already fallen at least once.
        assert {(0, True), (1, True)} <= endings


class TestSharedTable:
    @settings(max_examples=60, deadline=None)
    @given(spec=st.one_of(st.just(bundled_spec()), closed_loop_machines()),
           cfg=timer_configs(),
           seeds=st.lists(st.integers(0, 2**64 - 1), min_size=2, max_size=4),
           p=st.floats(0.0, 1.0),
           horizon=st.integers(1, 300))
    def test_runs_sharing_a_table_match_fresh_runs(self, spec, cfg, seeds, p, horizon):
        # Each run's main-green share counts that run's ticks only.
        table = TrafficTable(spec, cfg)
        for seed in seeds:
            model = TrafficModel(p, seed=seed, horizon=horizon)
            assert run_env(table, model) == reference_run_env(spec, cfg, model).metrics

    def test_a_filled_table_is_not_refilled(self, itlc_spec, default_cfg):
        table = TrafficTable(itlc_spec, default_cfg)
        model = TrafficModel(0.3, seed=5, horizon=2000)
        run_env(table, model)
        filled = sum(cell is not None for cell in table.cells)
        run_env(table, model)
        assert sum(cell is not None for cell in table.cells) == filled


class TestBlockEdges:
    """Runs whose horizons end just before, on and after a block of draws."""

    @pytest.mark.parametrize("horizon", [BLOCK_TICKS - 1, BLOCK_TICKS, BLOCK_TICKS + 1,
                                         2 * BLOCK_TICKS + 3])
    @pytest.mark.parametrize("p", [0.0, 5e-324, 2.0 ** -53, 0.1, 1 - 2.0 ** -53, 1.0])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("service_rate", [1, 2, 3])
    def test_matches_the_untabulated_kernel(self, itlc_spec, default_cfg, horizon, p, seed,
                                            service_rate):
        model = TrafficModel(p, seed=seed, horizon=horizon, service_rate=service_rate)
        assert run_env(TrafficTable(itlc_spec, default_cfg), model) == \
            reference_run_env(itlc_spec, default_cfg, model).metrics

    @pytest.mark.parametrize("p", [0.0, 5e-324, 2.0 ** -53, 0.1, 0.5, 1 - 2.0 ** -53, 1.0])
    @pytest.mark.parametrize("seed", [0, 1234567, 2**64 - 1])
    def test_blocks_are_the_sequential_draws(self, p, seed):
        blocks = list(arrival_blocks(seed, p, 3 * BLOCK_TICKS))
        assert [len(b) for b in blocks] == [BLOCK_TICKS] * 3
        rng = SplitMix64(seed)  # north is drawn before south
        assert b"".join(blocks) == bytes(
            2 * rng.bernoulli(p) + rng.bernoulli(p) for _ in range(3 * BLOCK_TICKS))

    @pytest.mark.parametrize("horizon, sizes", [(3, [3]), (BLOCK_TICKS + 1, [BLOCK_TICKS, 1])])
    def test_blocks_are_sized_to_the_horizon(self, horizon, sizes):
        blocks = list(arrival_blocks(5, 0.5, horizon))
        assert [len(b) for b in blocks] == sizes
        rng = SplitMix64(5)
        assert b"".join(blocks) == bytes(
            2 * rng.bernoulli(0.5) + rng.bernoulli(0.5) for _ in range(horizon))

    def test_memory_does_not_grow_with_the_horizon(self, itlc_spec, default_cfg):
        # Drawing a 200,000-tick horizon at once would take 6.4 MB of lanes.
        tracemalloc.start()
        try:
            run_env(TrafficTable(itlc_spec, default_cfg),
                    TrafficModel(0.1, seed=0, horizon=200_000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestExactWaitBound:
    """The worst side-road wait over every arrival sequence, not a sample."""

    @pytest.mark.parametrize("short, long, exact", [(4, 16, 28), (2, 8, 16), (3, 5, 15),
                                                    (1, 2, 8)])
    def test_worst_wait_is_long_plus_two_short_plus_four(self, itlc_spec, short, long, exact):
        # A state is (closed-loop configuration, north age, south age), an age
        # being None for a free slot; every state is expanded under all four
        # arrival symbols, with one departure per side-green tick.  No waiting
        # vehicle may outgrow the shipped bound, which also keeps the search finite.
        cfg = TimerConfig(short_ticks=short, long_ticks=long)
        shipped = worst_case_wait_bound(cfg)
        loop = _ClosedLoop(itlc_spec, cfg)
        seen = {(0, None, None)}
        todo = list(seen)
        worst = 0
        while todo:
            j, north, south = todo.pop()
            for symbol in range(4):
                n = 0 if symbol & 2 and north is None else north
                s = 0 if symbol & 1 and south is None else south
                k = 4 * j + (0 if n is None and s is None else 2)
                nxt, record = loop.cells[k] or loop.fill(k)
                if record.moore["sg"]:  # the oldest departs; north wins ties
                    if n is not None and (s is None or n >= s):
                        worst, n = max(worst, n), None
                    elif s is not None:
                        worst, s = max(worst, s), None
                ages = tuple(None if a is None else a + 1 for a in (n, s))
                assert all(a is None or a <= shipped for a in ages), ages
                if (nxt, *ages) not in seen:
                    seen.add((nxt, *ages))
                    todo.append((nxt, *ages))
        assert worst == exact == long + 2 * short + 4
        assert len(seen) < 10_000


class TestTrafficModel:
    @pytest.mark.parametrize("kwargs", [
        {"arrival_prob": -0.1}, {"arrival_prob": 1.5},
        {"arrival_prob": 0.5, "horizon": 0},
        {"arrival_prob": 0.5, "service_rate": 0},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            TrafficModel(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"arrival_prob": -0.1}, "arrival_prob must be in [0, 1], got -0.1"),
        ({"arrival_prob": 1.5}, "arrival_prob must be in [0, 1], got 1.5"),
        ({"horizon": 0}, "horizon must be >= 1, got 0"),
        ({"service_rate": -2}, "service_rate must be >= 1, got -2"),
        # A field of the wrong type is refused before any range check.
        ({"arrival_prob": "0.1"}, "arrival_prob must be an int or a float, got '0.1'"),
        ({"arrival_prob": True}, "arrival_prob must be an int or a float, got True"),
        ({"seed": 1.5}, "seed must be an int, got 1.5"),
        ({"seed": False}, "seed must be an int, got False"),
        ({"horizon": 1.5}, "horizon must be an int, got 1.5"),
        ({"horizon": "10"}, "horizon must be an int, got '10'"),
        ({"service_rate": 1.5}, "service_rate must be an int, got 1.5"),
        ({"service_rate": True}, "service_rate must be an int, got True"),
    ])
    def test_rejection_messages_also_through_replace(self, kwargs, message):
        good = TrafficModel(0.5, seed=3, horizon=10)
        for build in (lambda: TrafficModel(**{**good._asdict(), **kwargs}),
                      lambda: good._replace(**kwargs)):
            with pytest.raises(ValueError) as exc:
                build()
            assert str(exc.value) == message
            assert type(exc.value) is ConfigError and isinstance(exc.value, FsmError)

    def test_replace_allocates_like_the_constructor(self):
        # `_replace` builds through `_make`.  Unpacking an iterator there would
        # size the argument tuple by a guess and shrink it in place, so no freed
        # tuple serves the next call: 3,000 calls would keep about 143 KB until
        # the free list of 4-tuples fills.  A fresh interpreter, where it is not.
        code = """
import tracemalloc
from fsmkit.env import TrafficModel
model = TrafficModel(0.1)
def kept(build):
    build(0)
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    built = [build(i) for i in range(3000)]
    del built
    grown = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    return grown
print(kept(lambda i: TrafficModel(0.1, seed=i)), kept(lambda i: model._replace(seed=i)))
"""
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env=dict(os.environ, PYTHONPATH=src))
        assert done.returncode == 0, done.stderr
        constructed, replaced = map(int, done.stdout.split())
        assert replaced < constructed + 4096

    def test_is_an_immutable_value(self):
        model = TrafficModel(0.25, seed=4)
        assert (model.horizon, model.service_rate) == (1000, 1)
        assert model._replace(seed=5) == TrafficModel(0.25, seed=5)
        assert model == TrafficModel(0.25, 4, 1000, 1) and hash(model) == hash((0.25, 4, 1000, 1))
        assert model != (0.25, 4, 1000, 1) and (0.25, 4, 1000, 1) != model
        with pytest.raises(AttributeError):
            model.seed = 5


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
        model = TrafficModel(0.0, seed=1, horizon=2000)
        metrics = run_env(TrafficTable(itlc_spec, default_cfg), model)
        assert metrics.main_green_share == 1.0
        assert metrics.side_vehicles_served == 0
        assert metrics.cycles_completed == 0
        r = reference_run_env(itlc_spec, default_cfg, model)
        assert r.metrics == metrics
        assert all(rec.state == "S0" for rec in r.records)

    def test_saturated_arrivals_bounded_wait(self, itlc_spec, default_cfg):
        bound = worst_case_wait_bound(default_cfg)
        for seed in range(5):
            metrics = run_env(
                TrafficTable(itlc_spec, default_cfg),
                TrafficModel(1.0, seed=seed, horizon=2000))
            assert metrics.cycles_completed >= 1
            assert metrics.max_side_wait <= bound

    def test_determinism_for_fixed_seed(self, itlc_spec, default_cfg):
        model = TrafficModel(0.3, seed=42, horizon=1500)
        assert run_env(TrafficTable(itlc_spec, default_cfg), model) == \
            run_env(TrafficTable(itlc_spec, default_cfg), model)

    def test_conservation(self, itlc_spec, default_cfg):
        r = reference_run_env(
            itlc_spec, default_cfg, TrafficModel(0.25, seed=7, horizon=3000))
        assert r.arrivals == len(r.waits) + r.queue_remaining

    def test_no_service_on_red(self, itlc_spec, default_cfg):
        r = reference_run_env(
            itlc_spec, default_cfg, TrafficModel(0.4, seed=11, horizon=3000))
        # Arrivals only fill slots, so the sensor can fall from 1 to 0 only
        # through a departure, and departures happen only on side-green ticks.
        recs = r.records
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
        r = reference_run_env(itlc_spec, default_cfg, model)
        rng = SplitMix64(model.seed)
        slots = [None, None]
        seen = set()
        for tick, rec in enumerate(r.records):
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
        idle = run_env(TrafficTable(itlc_spec, default_cfg),
                       TrafficModel(0.0, seed=3, horizon=2000))
        jammed = run_env(TrafficTable(itlc_spec, default_cfg),
                         TrafficModel(1.0, seed=3, horizon=2000))
        assert idle.main_green_share == 1.0
        assert jammed.main_green_share < idle.main_green_share

    def test_waits_are_measured_to_departure(self, itlc_spec, default_cfg):
        r = reference_run_env(
            itlc_spec, default_cfg, TrafficModel(1.0, seed=0, horizon=500))
        assert all(w >= 0 for w in r.waits)
        assert max(r.waits) > 0


class TestMetricsSerialization:
    METRICS = Metrics(
        mean_side_wait=12.5, max_side_wait=27, main_green_share=0.6,
        side_vehicles_served=42, cycles_completed=7)

    def test_is_an_immutable_value(self):
        m = self.METRICS
        assert m._replace(max_side_wait=30).as_record() == m.as_record().replace("=27", "=30")
        assert m == Metrics(*m) and hash(m) == hash(tuple(m))
        assert m != tuple(m) and tuple(m) != m
        with pytest.raises(AttributeError):
            m.max_side_wait = 0

    def test_record_format(self):
        assert self.METRICS.as_record(prefix="seed=0 ") == (
            "seed=0 mean_side_wait=12.500 max_side_wait=27 "
            "main_green_share=0.600 side_vehicles_served=42 cycles_completed=7")


class TestAggregate:
    def test_no_runs_is_a_config_error(self):
        with pytest.raises(ConfigError, match=r"^aggregate needs at least one run, got none$"):
            Metrics.aggregate(iter(()))


class TestRunSeeds:
    @pytest.mark.parametrize("seeds", [0, -1, 2.5, "2", True])
    def test_a_seed_count_below_1_is_refused_before_a_fork(
            self, monkeypatch, itlc_spec, default_cfg, seeds):
        def unreached(*args):
            raise AssertionError("reached")
        monkeypatch.setattr(os, "fork", unreached)
        runs = run_seeds(TrafficTable(itlc_spec, default_cfg), TrafficModel(0.1), seeds)
        with pytest.raises(ConfigError) as exc:
            next(runs)
        if seeds.__class__ is int:
            assert str(exc.value) == f"seeds must be >= 1, got {seeds}"
        else:  # checked before the range, so "2" raises no TypeError and True is not one seed
            assert str(exc.value) == f"seeds must be an int, got {seeds!r}"

    def test_sweeps_sharing_a_table_match_fresh_tables(self, itlc_spec, default_cfg):
        # A sweep over arrival probabilities keeps one table's cells.
        table = TrafficTable(itlc_spec, default_cfg)
        for p in (0.1, 0.3):
            model = TrafficModel(p, horizon=2000)
            fresh = [run_env(TrafficTable(itlc_spec, default_cfg), model._replace(seed=seed))
                     for seed in range(3)]
            assert list(run_seeds(table, model, 3)) == fresh
