import itertools
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    bundled_spec, bundled_stimulus_source, closed_loop_machines, first_difference,
    timer_configs,
)
from fsmkit import dsl, kernel
from fsmkit.cli import main
from fsmkit.env import TrafficModel, TrafficTable, run_env
from fsmkit.model import (
    ContractViolation, FsmSpec, Not, StateDef, StructuralError, Transition, Var,
    moore_output,
)
from fsmkit.kernel import SimError, closed_loop_tick
from fsmkit.sim import (
    Stimulus, StimulusError, parse_stimulus, simulate, write_vcd, explore_reachable,
)
from fsmkit.timer import TimerConfig, timer_outputs

GOLDEN = Path(__file__).resolve().parent.parent / "golden"


def constant_stim(n, c=0, reset=0):
    return Stimulus(((c, reset, n),))


# Runs that are not a tuple of tuples: a list or a dict does not hash, an
# iterator would read empty once a check had used it up, and an int is no runs.
_RUNS_ITERATOR = iter([(0, 0, 3)])
NON_TUPLE_RUNS = [
    pytest.param(([0, 0, 3],), "a run must be three values (c, reset, n), got [0, 0, 3]",
                 id="list-run"),
    pytest.param(({0: "x", 1: "y", 2: "z"},),
                 "a run must be three values (c, reset, n), got {0: 'x', 1: 'y', 2: 'z'}",
                 id="dict-run"),
    pytest.param([(0, 0, 3)],
                 "stimulus runs must be a tuple of (c, reset, n) tuples, got [(0, 0, 3)]",
                 id="list-of-runs"),
    pytest.param(_RUNS_ITERATOR, "stimulus runs must be a tuple of (c, reset, n) tuples, "
                 f"got {_RUNS_ITERATOR!r}", id="iterator-of-runs"),
    pytest.param(5, "stimulus runs must be a tuple of (c, reset, n) tuples, got 5",
                 id="int-runs"),
]


def repeated_runs(cfg, lengths=(30, 5, 60)):
    """c=1 runs of `lengths` ticks, each after `reset` held for `long_ticks`
    ticks.  Reset does not restart the timer, so the hold saturates it and
    every c=1 run starts in one cell: the 5-tick run replays part of the
    30-tick one, and the 60-tick run replays all of it and extends it."""
    return Stimulus(tuple(run for n in lengths for run in ((1, 1, cfg.long_ticks), (1, 0, n))))


def stim_of(bits):
    """Stimulus from a string of c bits, one character per tick."""
    return Stimulus(tuple((int(b), 0, 1) for b in bits))


def per_tick(runs):
    """(c, reset) of every tick, in order."""
    return [(c, reset) for c, reset, n in runs for _ in range(n)]


def reference_simulate(spec, cfg, stim):
    """The untabulated closed loop: one kernel call per tick."""
    state, count, records = spec.initial_state, 0, []
    loop = kernel._ClosedLoop(spec, cfg)  # the tick's spec, config and maps; not its memo
    for c, reset in per_tick(stim.runs):
        record, state, count = closed_loop_tick(loop, state, count, c, reset)
        records.append(record)
    return tuple(records)


def read_stim_per_tick(text):
    """(c, reset) of every tick of `.stim` text, held from line to line."""
    lines = [l.split("#", 1)[0].split() for l in text.splitlines()]
    lines = [fields for fields in lines if fields]
    events = {int(fields[0]): dict(f.split("=") for f in fields[1:]) for fields in lines[1:]}
    values, ticks = {"c": "0", "reset": "0"}, []
    for tick in range(int(lines[0][1])):
        values.update(events.get(tick, {}))
        ticks.append((int(values["c"]), int(values["reset"])))
    return ticks


def with_distinct_records(records):
    """The same records, every one a distinct object."""
    distinct = tuple(r._replace() for r in records)
    assert len({id(r) for r in distinct}) == len(records)
    return distinct


def per_tick_log(records):
    """`fsmkit simulate`'s log, formatted afresh on every tick."""
    return "".join(
        f"{tick} {r.state} c={r.inputs['c']} ts={r.inputs['ts']} tl={r.inputs['tl']} "
        f"st={r.st} " + "".join(str(r.moore.get(n, 0)) for n in ("mg", "my", "mr", "sg", "sy", "sr"))
        + "\n" for tick, r in enumerate(records))


def per_tick_vcd(spec, records):
    """`write_vcd`'s text from README's rules, formatted afresh on every tick:
    a wire per input, pulse and Moore output in spec order, then the state
    vector; `#0` dumps every value, and each later tick whose shown values
    differ from the previous tick's writes the ones that changed."""
    signals = [*spec.inputs, *spec.pulse_outputs, *spec.moore_outputs]
    printable = [chr(c) for c in range(33, 127)]  # codes '!'..'~', then '!!', '!"', ...
    id_codes = ("".join(p) for width in itertools.count(1)
                for p in itertools.product(printable, repeat=width))
    ids = list(itertools.islice(id_codes, len(signals) + 1))
    width = max(1, (len(spec.states) - 1).bit_length())
    code = {name: i for i, name in enumerate(spec.state_names())}
    lines = ["$timescale 1 ns $end", f"$scope module {spec.name} $end",
             *(f"$var wire 1 {i} {name} $end" for i, name in zip(ids, signals)),
             f"$var wire {width} {ids[-1]} state $end", "$upscope $end", "$enddefinitions $end"]
    before = None
    for tick, r in enumerate(records):
        values = {**r.inputs, **{p: int(p in r.pulses) for p in spec.pulse_outputs}, **r.moore}
        shown = [f"{values[name]}{i}" for name, i in zip(signals, ids)]
        shown.append(f"b{code[r.state]:0{width}b} {ids[-1]}")
        if before is None:
            lines += ["#0", "$dumpvars", *shown, "$end"]
        elif shown != before:
            lines += [f"#{tick}", *(now for now, was in zip(shown, before) if now != was)]
        before = shown
    return "\n".join(lines) + "\n"


def cli_outputs(spec, cfg, stim, d):
    """`fsmkit simulate`'s log and `--vcd` text for the run, from files in `d`
    with one `.stim` line per run."""
    (d / "m.fsm").write_text(dsl.serialize(spec))
    starts = itertools.accumulate((n for _, _, n in stim.runs), initial=0)
    (d / "m.stim").write_text(f"horizon {stim.horizon}\n" + "".join(
        f"{t} c={c} reset={reset}\n" for t, (c, reset, _) in zip(starts, stim.runs)))
    assert main(["simulate", str(d / "m.fsm"), str(d / "m.stim"), "--log", str(d / "m.log"),
                 "--vcd", str(d / "m.vcd"),
                 "--short", str(cfg.short_ticks), "--long", str(cfg.long_ticks)]) == 0
    return (d / "m.log").read_text(), (d / "m.vcd").read_text()


# Runs of 1-6 ticks: c at random, reset high on about one run in ten.
stimuli = st.lists(st.tuples(st.integers(0, 1), st.integers(0, 9), st.integers(1, 6)),
                   min_size=1, max_size=100).map(
    lambda runs: Stimulus(tuple((c, int(r == 0), n) for c, r, n in runs)))


@st.composite
def long_stimuli(draw):
    """Horizons up to 40,000, so tick numbers cross the 1,000 and 10,000 edges:
    runs of 1-6 or of up to 2,000 ticks, c at random, reset high on about one
    run in ten."""
    left = draw(st.integers(1, 40_000))
    rnd = draw(st.randoms(use_true_random=False))
    runs = []
    while left:
        n = min(left, rnd.randint(1, rnd.choice((6, 2000))))
        runs.append((rnd.randint(0, 1), int(rnd.random() < 0.1), n))
        left -= n
    return Stimulus(tuple(runs))


@st.composite
def stim_texts(draw):
    """`.stim` text with comments, blank lines and lines setting c, reset or both."""
    horizon = draw(st.integers(1, 40))
    ticks = sorted(draw(st.sets(st.integers(0, horizon - 1), max_size=12)))
    lines = [f"horizon {horizon}  # header"]
    for tick in ticks:
        assigned = draw(st.lists(st.sampled_from(["c", "reset"]), min_size=1, max_size=2,
                                 unique=True))
        lines.append(f"{tick} " + " ".join(f"{key}={draw(st.integers(0, 1))}" for key in assigned))
        lines += draw(st.sampled_from([[], [""], ["# note"]]))
    return "\n".join(lines) + "\n"

CLOSED_HEADER = "fsm m\ninputs reset c ts tl\noutputs mg\npulses st\ninitial S0\nreset reset\n"
GAP_SPEC = CLOSED_HEADER + "state S0 { mg=1 }\ntrans S0 -> S0 when !c\n"
OVERLAP_SPEC = CLOSED_HEADER + "state S0 { mg=1 }\ntrans S0 -> S0 when 1\ntrans S0 -> S0 when c & ts\n"


def into_undeclared_state():
    # The parser refuses a transition to an undeclared state; library callers
    # can still build one.
    s0 = StateDef("S0", {"mg": 1}, (Transition(Var("c"), "GONE", frozenset({"st"})),
                                    Transition(Not(Var("c")), "S0")))
    return FsmSpec("lost", ("reset", "c", "ts", "tl"), ("mg",), ("st",), (s0,), "S0", "reset")


@pytest.fixture
def tables(monkeypatch):
    """Every closed-loop table built while the test runs."""
    built = []
    init = kernel._ClosedLoop.__init__

    def recording_init(self, *args):
        init(self, *args)
        built.append(self)
    monkeypatch.setattr(kernel._ClosedLoop, "__init__", recording_init)
    return built


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count of closed-loop kernel evaluations while the test runs."""
    calls = [0]

    def counting_kernel(*args):
        calls[0] += 1
        return closed_loop_tick(*args)
    monkeypatch.setattr(kernel, "closed_loop_tick", counting_kernel)
    return calls


class TestParseStimulus:
    def test_hold_semantics(self):
        stim = parse_stimulus("horizon 3\n0 c=1\n")
        assert stim.runs == ((1, 0, 3),)

    def test_initial_values_are_zero(self):
        stim = parse_stimulus("horizon 4\n2 c=1 reset=1\n")
        assert stim.runs == ((0, 0, 2), (1, 1, 2))
        assert stim.horizon == 4

    @settings(max_examples=200, deadline=None)
    @given(text=stim_texts())
    def test_runs_expand_to_the_per_tick_reading(self, text):
        stim = parse_stimulus(text)
        assert per_tick(stim.runs) == read_stim_per_tick(text)
        # One run per tick line, plus a leading (0, 0, t) run when the first is after tick 0.
        ticks = [int(l.split()[0]) for l in text.splitlines()[1:] if l and l[0].isdigit()]
        assert len(stim.runs) == len(ticks) + (not ticks or ticks[0] > 0)

    def test_parsing_does_not_grow_with_the_horizon(self):
        tracemalloc.start()
        try:
            stim = parse_stimulus("horizon 1000000\n0 c=1\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stim.horizon == 1_000_000
        assert peak < 64 * 1024

    def test_non_monotonic_ticks_rejected(self):
        with pytest.raises(StimulusError, match="non-monotonic"):
            parse_stimulus("horizon 2\n1 c=1\n0 c=0\n")

    def test_tick_beyond_horizon_rejected(self):
        with pytest.raises(StimulusError, match="outside horizon"):
            parse_stimulus("horizon 2\n2 c=1\n")

    def test_malformed_bit_rejected(self):
        with pytest.raises(StimulusError, match="0 or 1"):
            parse_stimulus("horizon 2\n0 c=x\n")

    def test_repeated_signal_on_one_line_rejected(self):
        with pytest.raises(StimulusError) as exc:
            parse_stimulus("horizon 2\n0 c=1 c=0\n")
        assert str(exc.value) == "line 2: duplicate assignment to 'c'"

    def test_missing_header_rejected(self):
        with pytest.raises(StimulusError, match="horizon"):
            parse_stimulus("0 c=1\n")

    @pytest.mark.parametrize("text, message", [
        ("horizon ten\n", "line 1: bad horizon 'ten'"),
        ("# none yet\nhorizon 0\n", "line 2: horizon must be >= 1"),
        ("", "line 1: expected 'horizon <n>' header"),
        ("# only a comment\n\n", "line 1: expected 'horizon <n>' header"),
        ("horizon 4\nx c=1\n", "line 2: bad tick number 'x'"),
        ("horizon 4\n0 c=1 ts=1\n", "line 2: expected c=<bit> or reset=<bit>, got 'ts=1'"),
        ("horizon 4\n0 c1\n", "line 2: expected c=<bit> or reset=<bit>, got 'c1'"),
        ("horizon 4\n1  # no signal\n", "line 2: tick line assigns nothing"),
        # Only ASCII decimal digits make a number, though int() takes more.
        ("horizon 3\n1_0 c=1\n", "line 2: bad tick number '1_0'"),
        ("horizon 3\n+1 c=1\n", "line 2: bad tick number '+1'"),
        ("horizon 3\n-1 c=1\n", "line 2: bad tick number '-1'"),
        ("horizon 3\n\u0661 c=1\n", "line 2: bad tick number '\u0661'"),
        ("horizon \u0663\n", "line 1: bad horizon '\u0663'"),
        ("horizon +3\n", "line 1: bad horizon '+3'"),
        ("horizon 1_0\n", "line 1: bad horizon '1_0'"),
        # int() refuses a number past its digit limit, and so does the parser.
        pytest.param("horizon " + "1" * 5000 + "\n", "line 1: bad horizon '" + "1" * 5000 + "'",
                     id="5000-digit-horizon"),
        pytest.param("horizon 3\n" + "1" * 5000 + " c=1\n",
                     "line 2: bad tick number '" + "1" * 5000 + "'", id="5000-digit-tick"),
        # Well-formed fields are read by one lookup; these are refused all the same.
        ("horizon 4\n0 c=1 c=0\n", "line 2: duplicate assignment to 'c'"),
        ("horizon 4\n0 reset=1 reset=1\n", "line 2: duplicate assignment to 'reset'"),
        ("horizon 4\n0 c=2\n", "line 2: bit value must be 0 or 1, got '2'"),
        # A comment after a field is cut off, so line 2 is well formed.
        ("horizon 4\n0 c=1  # c=1 again\n0 c=0\n", "line 3: non-monotonic tick 0"),
        ("horizon 4\n0 c=1#reset=2\n1 c=\n", "line 3: bit value must be 0 or 1, got ''"),
    ])
    def test_error_messages_are_pinned(self, text, message):
        with pytest.raises(StimulusError) as exc:
            parse_stimulus(text)
        assert str(exc.value) == message

    # Comments, non-ASCII ones too, and blank lines are skipped.
    @pytest.mark.parametrize("text", ["# hi\nhorizon 2\n\n0 c=1  # arrival\n",
                                      "# h\u00e9\nhorizon 2\n\n0 c=1  # arriv\u00e9e\n"])
    def test_comments_and_blanks_ignored(self, text):
        stim = parse_stimulus(text)
        assert stim.runs == ((1, 0, 2),)


class TestSimulate:
    def test_idle_stays_in_initial_state(self, itlc_spec, default_cfg):
        records = simulate(itlc_spec, default_cfg, constant_stim(64))
        assert len(records) == 64
        for r in records:
            assert r.state == "S0"
            assert r.moore["mg"] == 1 and r.moore["sr"] == 1

    def test_hand_verified_closed_loop_trace(self, itlc_spec, default_cfg):
        records = simulate(itlc_spec, default_cfg, constant_stim(44, c=1))
        runs = [(k, len(list(g)))
                for k, g in itertools.groupby(r.state for r in records)]
        assert runs == [("S0", 17), ("S1", 5), ("S2", 17), ("S3", 5)]
        assert [t for t, r in enumerate(records) if r.st] == [16, 21, 38, 43]

    def test_reset_forces_initial_state_next_tick(self, itlc_spec, default_cfg):
        records = simulate(itlc_spec, default_cfg, Stimulus(((1, 0, 20), (1, 1, 1), (1, 0, 9))))
        assert records[20].state != "S0"  # mid-cycle when reset hits
        assert records[21].state == "S0"
        assert records[20].st == 0  # reset does not pulse the timer

    def test_wrong_input_set_rejected_before_tick_zero(self, default_cfg):
        from fsmkit import dsl
        other = dsl.parse(
            "fsm m\ninputs a\ninitial A\nstate A { }\ntrans A -> A when 1\n")
        with pytest.raises(SimError, match="closed-loop"):
            simulate(other, default_cfg, constant_stim(4))

    def test_record_consistency(self, itlc_spec, default_cfg):
        records = simulate(itlc_spec, default_cfg, constant_stim(44, c=1))
        for r in records:
            assert dict(r.moore) == moore_output(itlc_spec, r.state)
            ts, tl = timer_outputs(default_cfg, r.timer_count)
            assert (r.inputs["ts"], r.inputs["tl"]) == (ts, tl)

    def test_closed_loop_pulse_law(self, itlc_spec, default_cfg):
        records = simulate(itlc_spec, default_cfg, constant_stim(100, c=1))
        for a, b in zip(records, records[1:]):
            assert a.st == (1 if b.state != a.state else 0)

    @pytest.mark.parametrize("cfg", [TimerConfig(4, 16), TimerConfig(8, 64)])
    def test_pulse_law_at_every_reachable_cell(self, itlc_spec, cfg):
        # Every transition that changes state pulses st, and no other does;
        # reset, which returns to S0 without a pulse, is the one exception.
        loop = kernel._ClosedLoop(itlc_spec, cfg)
        for k, _ in enumerate(loop.cells):  # also visits the cells each fill appends
            loop.fill(k)
        checked = 0
        for k, (nxt, record) in enumerate(loop.cells):
            if k & 1 == 0:  # reset low
                assert record.st == (loop.configs[nxt][0] != record.state), (k, record)
                checked += 1
        assert checked == 2 * len(explore_reachable(itlc_spec, cfg))

    def test_determinism(self, itlc_spec, default_cfg):
        stim = constant_stim(64, c=1)
        assert simulate(itlc_spec, default_cfg, stim) == \
            simulate(itlc_spec, default_cfg, stim)


class TestClosedLoopTable:
    @settings(max_examples=150, deadline=None)
    @given(spec=st.one_of(st.just(bundled_spec()), closed_loop_machines()),
           cfg=timer_configs(), stim=stimuli)
    def test_simulate_matches_the_untabulated_kernel(self, spec, cfg, stim):
        assert simulate(spec, cfg, stim) == reference_simulate(spec, cfg, stim)

    def test_kernel_runs_once_per_filled_cell(self, itlc_spec, default_cfg, tables,
                                              kernel_calls):
        runs = [
            lambda: simulate(itlc_spec, default_cfg, stim_of("0110" * 1000)),
            lambda: run_env(TrafficTable(itlc_spec, default_cfg),
                            TrafficModel(0.2, seed=3, horizon=4000)),
            lambda: run_env(TrafficTable(itlc_spec, default_cfg),
                            TrafficModel(0.5, seed=4, horizon=4000)),
        ]
        for run in runs:
            kernel_calls[0] = 0
            run()
            filled = sum(cell is not None for cell in tables[-1].cells)
            assert kernel_calls[0] == filled <= 4 * 44

    @pytest.mark.parametrize("stim", [
        stim_of(("0011101" * 286)[:2000]),
        # Long runs that replay earlier ones: no cell past a copy is filled.
        repeated_runs(TimerConfig(4, 16)),
    ], ids=["bits", "repeated-runs"])
    def test_no_record_is_built_per_tick(self, itlc_spec, default_cfg, tables, stim):
        records = simulate(itlc_spec, default_cfg, stim)
        filled = sum(cell is not None for cell in tables[0].cells)
        assert len(records) == stim.horizon
        assert len({id(r) for r in records}) <= filled
        # `walk` hands over each hit cell's own record once, keyed by cell,
        # and one path per first key, no longer than the longest run from it.
        loop = kernel._ClosedLoop(itlc_spec, default_cfg)
        records, paths = loop.walk(stim.runs)
        lengths = [n for _, _, n in stim.runs]
        keys = [k for path, n in zip(paths, lengths) for k in path[:n]]
        assert len(keys) == stim.horizon
        assert records.keys() == set(keys)
        assert all(records[k] is loop.cells[k][1] for k in keys)
        first = {}  # first key -> (its path, the longest run from it)
        for path, n in zip(paths, lengths):
            shared, m = first.setdefault(path[0], (path, n))
            assert shared is path
            first[path[0]] = path, max(m, n)
        # No look-ahead: a path holds no key past the longest run from it.
        assert all(len(path) == m for path, m in first.values())

    @settings(max_examples=100, deadline=None)
    @given(spec=st.one_of(st.just(bundled_spec()), closed_loop_machines()),
           cfg=timer_configs(), stim=stimuli)
    def test_shared_records_render_like_distinct_ones(self, spec, cfg, stim, tmp_path_factory):
        records = simulate(spec, cfg, stim)
        vcd = write_vcd(spec, with_distinct_records(records))
        assert write_vcd(spec, records) == vcd
        # The CLI, which renders per table cell, against per-tick formatters
        # over the untabulated run and against write_vcd over distinct records.
        log, cli_vcd = cli_outputs(spec, cfg, stim, tmp_path_factory.mktemp("log"))
        reference = reference_simulate(spec, cfg, stim)
        assert log == per_tick_log(reference)
        assert cli_vcd == vcd == per_tick_vcd(spec, reference)

    @settings(max_examples=15, deadline=None)
    @given(spec=st.one_of(st.just(bundled_spec()), closed_loop_machines()),
           cfg=timer_configs(), stim=long_stimuli())
    # c toggles on every tick, so every tick writes a `#t` block, across the
    # 1000-tick edges too.
    @example(spec=bundled_spec(), cfg=TimerConfig(),
             stim=Stimulus(tuple((t % 2, 0, 1) for t in range(2001))))
    # Resets mid-cycle, one of them with c falling, in an 80-tick run.
    @example(spec=bundled_spec(), cfg=TimerConfig(),
             stim=Stimulus(((1, 0, 20), (1, 1, 2), (1, 0, 23), (0, 1, 1), (0, 0, 14), (1, 0, 20))))
    # The c=1 cycle returns to the initial cell after 44 ticks, so the last run
    # replays the path that the run just before it scanned first.
    @example(spec=bundled_spec(), cfg=TimerConfig(), stim=Stimulus(((1, 0, 44), (1, 0, 30))))
    # Runs from one cell, 30, 5 and 60 ticks long: a shorter replay, then an
    # extension; and one 5,000-tick run, which has nothing to replay.
    @example(spec=bundled_spec(), cfg=TimerConfig(4, 16), stim=repeated_runs(TimerConfig(4, 16)))
    @example(spec=bundled_spec(), cfg=TimerConfig(8, 64), stim=repeated_runs(TimerConfig(8, 64)))
    @example(spec=bundled_spec(), cfg=TimerConfig(1, 2), stim=repeated_runs(TimerConfig(1, 2)))
    @example(spec=bundled_spec(), cfg=TimerConfig(4, 16), stim=constant_stim(5000, c=1))
    @example(spec=bundled_spec(), cfg=TimerConfig(8, 64), stim=constant_stim(5000, c=1))
    @example(spec=bundled_spec(), cfg=TimerConfig(1, 2), stim=constant_stim(5000, c=1))
    # The log is written a 1000-tick block at a time: horizons at and next to
    # the block edges, a run that crosses an edge, and a 1,500-tick run that
    # outlasts the 300-tick run from its first key and crosses an edge.
    @example(spec=bundled_spec(), cfg=TimerConfig(), stim=constant_stim(1, c=1))
    @example(spec=bundled_spec(), cfg=TimerConfig(), stim=constant_stim(999, c=1))
    @example(spec=bundled_spec(), cfg=TimerConfig(), stim=constant_stim(1000, c=1))
    @example(spec=bundled_spec(), cfg=TimerConfig(), stim=constant_stim(1001, c=1))
    @example(spec=bundled_spec(), cfg=TimerConfig(), stim=constant_stim(2001, c=1))
    @example(spec=bundled_spec(), cfg=TimerConfig(),
             stim=Stimulus(((0, 0, 997), (1, 0, 7), (0, 1, 3))))
    @example(spec=bundled_spec(), cfg=TimerConfig(4, 16),
             stim=repeated_runs(TimerConfig(4, 16), lengths=(300, 1500)))
    def test_long_runs_render_like_the_per_tick_formatters(self, spec, cfg, stim,
                                                           tmp_path_factory):
        reference = reference_simulate(spec, cfg, stim)
        log, vcd = cli_outputs(spec, cfg, stim, tmp_path_factory.mktemp("long"))
        assert first_difference(log, per_tick_log(reference)) is None
        assert first_difference(vcd, per_tick_vcd(spec, reference)) is None
        assert write_vcd(spec, simulate(spec, cfg, stim)) == vcd

    @pytest.mark.parametrize("horizon", [1, 2, 999, 1000, 1001, 1999, 2000, 2001,
                                         9999, 10000, 10001, 100001])
    def test_tick_numbers_across_block_edges(self, itlc_spec, default_cfg, horizon, tmp_path):
        # A 42-tick cycle of runs with a reset, cut at the horizon.
        runs, left = [], horizon
        for c, reset, n in itertools.cycle([(1, 0, 29), (0, 0, 3), (1, 1, 2), (0, 0, 1),
                                            (1, 0, 7)]):
            if left <= n:
                break
            runs.append((c, reset, n))
            left -= n
        stim = Stimulus((*runs, (c, reset, left)))
        reference = reference_simulate(itlc_spec, default_cfg, stim)
        log, vcd = cli_outputs(itlc_spec, default_cfg, stim, tmp_path)
        assert first_difference(log, per_tick_log(reference)) is None
        assert first_difference(vcd, per_tick_vcd(itlc_spec, reference)) is None

    def test_simulate_memory_at_50k_ticks(self, tmp_path):
        # c toggles after 1-80 ticks; reset is high for 1-3 ticks about once
        # per 4,000.  The peak was 5.8 MB while the log made a string per
        # tick number and the VCD a tuple per change, and 4.0 MB without.
        # Written a 1000-tick block at a time, the 1.7 MB log is never held
        # whole, and the peak is about 1.0 MB.
        rnd, lines, tick, c = random.Random(50_000), ["horizon 50000"], 0, 0
        while tick < 50_000 - 85:
            tick += rnd.randint(1, 80)
            c ^= 1
            lines.append(f"{tick} c={c}")
            if rnd.random() < 1 / 100:
                tick += 1
                lines.append(f"{tick} reset=1")
                tick += rnd.randint(1, 3)
                lines.append(f"{tick} reset=0")
        (tmp_path / "long.stim").write_text("\n".join(lines) + "\n")
        argv = ["simulate", str(GOLDEN.parent / "designs" / "itlc.fsm"), str(tmp_path / "long.stim"),
                "--vcd", str(tmp_path / "long.vcd"), "--log", str(tmp_path / "long.log")]
        assert main(argv) == 0  # first-use allocations: interpreter caches
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (tmp_path / "long.log").read_text().count("\n") == 50_000
        assert peak < 4_650_000
        assert peak < (tmp_path / "long.log").stat().st_size

    def test_exploration_fills_every_cell(self, itlc_spec, default_cfg, tables, kernel_calls):
        reached = explore_reachable(itlc_spec, default_cfg)
        assert None not in tables[0].cells
        assert kernel_calls[0] == len(tables[0].cells) == 4 * len(reached)

    def test_no_table_in_proportion_to_the_timer_threshold(self, itlc_spec, tables):
        cfg = TimerConfig(4, 10**9)
        simulate(itlc_spec, cfg, constant_stim(300, c=1))
        run_env(TrafficTable(itlc_spec, cfg), TrafficModel(1.0, seed=0, horizon=300))
        assert len(tables) == 2
        for table in tables:
            assert len(table.configs) <= 301
            assert len(table.cells) == 4 * len(table.configs)

    @pytest.mark.parametrize("source, bits, k, message", [
        (GAP_SPEC, "0000001111", 6, "state 'S0': 0 transition guards true at "
                                    "{reset=0, c=1, ts=1, tl=0}; validate the spec first"),
        # c & ts is false on ticks 2 and 3, so the overlap first shows on tick 4.
        (OVERLAP_SPEC, "0011111111", 4, "state 'S0': 2 transition guards true at "
                                        "{reset=0, c=1, ts=1, tl=0}; validate the spec first"),
    ])
    def test_unvalidated_guards_fail_at_the_first_bad_tick(self, source, bits, k, message,
                                                          default_cfg):
        spec = dsl.parse(source)
        assert len(simulate(spec, default_cfg, stim_of(bits[:k]))) == k
        for run in (simulate, reference_simulate):
            with pytest.raises(ContractViolation) as exc:
                run(spec, default_cfg, stim_of(bits[:k + 1]))
            assert str(exc.value) == message

    def test_a_failed_kernel_caches_nothing(self, default_cfg):
        table = kernel._ClosedLoop(dsl.parse(GAP_SPEC), default_cfg)
        with pytest.raises(ContractViolation):
            table.fill(2)  # c=1, reset=0 on the initial configuration
        assert table.cells == [None] * 4
        assert table.configs == [("S0", 0)]

    def test_undeclared_state_fails_on_the_next_tick(self, default_cfg):
        spec = into_undeclared_state()
        records = simulate(spec, default_cfg, stim_of("0001"))  # fires on the final tick
        assert [r.state for r in records] == ["S0"] * 4
        assert records == reference_simulate(spec, default_cfg, stim_of("0001"))
        with pytest.raises(StructuralError, match="unknown state 'GONE'"):
            simulate(spec, default_cfg, stim_of("00010"))
        # The traffic run sees c=1 on tick 0 at arrival probability 1.
        metrics = run_env(TrafficTable(spec, default_cfg), TrafficModel(1.0, horizon=1))
        assert metrics.cycles_completed == 0
        with pytest.raises(StructuralError, match="unknown state 'GONE'"):
            run_env(TrafficTable(spec, default_cfg), TrafficModel(1.0, horizon=2))

    @pytest.mark.parametrize("c, reset", [
        (2, 0), (0, 2), (-1, 0), (1, 3), (1.0, 0), (0, 0.0), (True, 0)])
    def test_non_bit_inputs_are_refused(self, c, reset):
        # A non-bit would address a neighbouring cell of the table, or no
        # cell (a float key), so it cannot reach a run: the stimulus refuses
        # it when built.  A Bit is the int 0 or 1, not a bool or a float.
        with pytest.raises(SimError, match="must be 0 or 1"):
            Stimulus(((c, reset, 1),))

    @pytest.mark.parametrize("runs, message", [
        ((), "stimulus must cover at least one tick"),
        (((0, 0, 3), (1, 0, 0)), "a run must last an int number of ticks >= 1, got 0"),
        (((0, 0, -2),), "a run must last an int number of ticks >= 1, got -2"),
        (((1, 0, 2.0),), "a run must last an int number of ticks >= 1, got 2.0"),
        (((1, 0, "2"),), "a run must last an int number of ticks >= 1, got '2'"),
        (((1, 0, True),), "a run must last an int number of ticks >= 1, got True"),
        (((0, 1),), "a run must be three values (c, reset, n), got (0, 1)"),
        (((0, 0, 1, 1),), "a run must be three values (c, reset, n), got (0, 0, 1, 1)"),
        ((5,), "a run must be three values (c, reset, n), got 5"),
        *NON_TUPLE_RUNS,
    ])
    def test_empty_or_bad_length_runs_are_refused(self, runs, message):
        with pytest.raises(SimError) as exc:
            Stimulus(runs)
        assert str(exc.value) == message


class TestValueTypes:
    @pytest.mark.parametrize("runs, message", [
        ((), "stimulus must cover at least one tick"),
        (((1, 2, 1),), "c and reset must be 0 or 1, got c=1 reset=2"),
        (((0, 0, 3), (1, 0, 0)), "a run must last an int number of ticks >= 1, got 0"),
        (((1, 0, "2"),), "a run must last an int number of ticks >= 1, got '2'"),
        (((1, 0, True),), "a run must last an int number of ticks >= 1, got True"),
        (((0, 1),), "a run must be three values (c, reset, n), got (0, 1)"),
        (((0, 0, 1, 1),), "a run must be three values (c, reset, n), got (0, 0, 1, 1)"),
        ((5,), "a run must be three values (c, reset, n), got 5"),
        *NON_TUPLE_RUNS,
    ])
    def test_a_stimulus_refuses_bad_runs_also_through_replace(self, runs, message):
        good = constant_stim(3)
        for build in (lambda: Stimulus(runs), lambda: Stimulus(runs=runs),
                      lambda: good._replace(runs=runs), lambda: Stimulus._make((runs,))):
            with pytest.raises(SimError) as exc:
                build()
            assert str(exc.value) == message

    def test_stimulus_is_an_immutable_value(self):
        stim = Stimulus(((1, 0, 2), (0, 1, 3)))
        assert stim.horizon == 5 and stim._replace(runs=((0, 0, 7),)).horizon == 7
        assert stim == Stimulus(((1, 0, 2), (0, 1, 3))) and hash(stim) == hash((stim.runs,))
        assert stim != (stim.runs,) and (stim.runs,) != stim
        with pytest.raises(AttributeError):
            stim.runs = ()

    def test_records_and_traces_equal_only_their_own_type(self, itlc_spec, default_cfg):
        records = simulate(itlc_spec, default_cfg, constant_stim(20, c=1))
        record = records[16]  # S0 leaves on tl & c: the first st
        assert record.st == 1 and record._replace(pulses=frozenset()).st == 0
        assert record._replace() == record and record._replace() is not record
        assert record != tuple(record) and tuple(record) != record
        assert with_distinct_records(records) == records
        with pytest.raises(AttributeError):
            record.state = "S1"
        with pytest.raises(TypeError):
            records[16] = record._replace()


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
    def test_an_empty_trace_is_refused(self, itlc_spec):
        with pytest.raises(SimError, match="^cannot write VCD for an empty trace$"):
            write_vcd(itlc_spec, ())

    def test_open_loop_constant_trace_has_single_section(self, itlc_spec, default_cfg):
        # One record repeated as distinct objects: every (previous, current)
        # pair misses write_vcd's cache and is rendered afresh.
        record = simulate(itlc_spec, default_cfg, constant_stim(1))[0]
        vcd = write_vcd(itlc_spec, with_distinct_records((record,) * 64))
        sections = [l for l in vcd.splitlines() if l.startswith("#")]
        assert sections == ["#0"]

    def test_closed_loop_idle_changes_only_timer_levels(self, itlc_spec, default_cfg):
        vcd = write_vcd(itlc_spec, simulate(itlc_spec, default_cfg, constant_stim(64)))
        sections = [l for l in vcd.splitlines() if l.startswith("#")]
        # ts rises at short expiry, tl at long expiry; nothing else moves.
        assert sections == ["#0", "#4", "#16"]

    def test_main_amber_first_appears_at_tick_17(self, itlc_spec, default_cfg):
        vcd = write_vcd(itlc_spec, simulate(itlc_spec, default_cfg, constant_stim(44, c=1)))
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
        a = write_vcd(itlc_spec, simulate(itlc_spec, default_cfg, stim))
        b = write_vcd(itlc_spec, simulate(itlc_spec, default_cfg, stim))
        assert a == b

    def test_golden_scenario_vcd(self, itlc_spec, default_cfg):
        stim = parse_stimulus(bundled_stimulus_source())
        vcd = write_vcd(itlc_spec, simulate(itlc_spec, default_cfg, stim))
        assert vcd.encode() == (GOLDEN / "itlc_scenario.vcd").read_bytes()

    def test_per_tick_rules_give_the_golden_scenario_vcd(self, itlc_spec, default_cfg):
        stim = parse_stimulus(bundled_stimulus_source())
        vcd = per_tick_vcd(itlc_spec, reference_simulate(itlc_spec, default_cfg, stim))
        assert vcd.encode() == (GOLDEN / "itlc_scenario.vcd").read_bytes()

    def test_declares_every_signal_and_state_vector(self, itlc_spec, default_cfg):
        vcd = write_vcd(itlc_spec, simulate(itlc_spec, default_cfg, constant_stim(4)))
        for name in ("reset", "c", "ts", "tl", "st",
                     "mg", "my", "mr", "sg", "sy", "sr"):
            assert f" {name} $end" in vcd
        assert "$var wire 2" in vcd and " state $end" in vcd
        assert "$timescale 1 ns $end" in vcd
        assert "$scope module itlc $end" in vcd

    def test_inputs_are_declared_in_spec_order(self, itlc_spec, default_cfg):
        spec = itlc_spec._replace(inputs=("tl", "ts", "c", "reset"))
        vcd = write_vcd(spec, simulate(spec, default_cfg, constant_stim(40, c=1)))
        declared = [l.split()[4] for l in vcd.splitlines() if l.startswith("$var")]
        assert declared == ["tl", "ts", "c", "reset", "st", "mg", "my", "mr", "sg", "sy", "sr",
                            "state"]

    def test_a_repeated_input_name_keeps_one_code(self, itlc_spec, default_cfg):
        # simulate refuses a spec that lists an input twice, but write_vcd
        # takes any spec with any records.  Both of its wires take the name's code, and every
        # value line writes a declared code.
        spec = itlc_spec._replace(inputs=(*itlc_spec.inputs, "c"))
        with pytest.raises(SimError) as refused:
            simulate(spec, default_cfg, repeated_runs(default_cfg))
        assert str(refused.value) == (
            "closed-loop simulation needs inputs exactly ['c', 'reset', 'tl', 'ts'], "
            "spec 'itlc' has ['reset', 'c', 'ts', 'tl', 'c']")
        records = simulate(itlc_spec, default_cfg, repeated_runs(default_cfg))
        lines = write_vcd(spec, records).splitlines()
        declared = {l.split()[4]: l.split()[3] for l in lines if l.startswith("$var")}
        assert [l.split()[3] for l in lines if l.endswith(" c $end")] == [declared["c"]] * 2
        values = [l for l in lines if l[:1] in "01"]
        assert values and {l[1:] for l in values} <= set(declared.values())
        assert f"1{declared['c']}" in values


class TestScenarioOrdering:
    def test_bundled_stimulus_walks_the_full_cycle(self, itlc_spec, default_cfg):
        stim = parse_stimulus(bundled_stimulus_source())
        records = simulate(itlc_spec, default_cfg, stim)
        phases = [k for k, _ in itertools.groupby(r.state for r in records)]
        assert phases == ["S0", "S1", "S2", "S3", "S0"]
        patterns = {r.state: (r.moore["mg"], r.moore["my"], r.moore["mr"],
                              r.moore["sg"], r.moore["sy"], r.moore["sr"])
                    for r in records}
        assert patterns["S0"] == (1, 0, 0, 0, 0, 1)
        assert patterns["S1"] == (0, 1, 0, 0, 0, 1)
        assert patterns["S2"] == (0, 0, 1, 1, 0, 0)
        assert patterns["S3"] == (0, 0, 1, 0, 1, 0)
