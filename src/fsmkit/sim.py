"""Deterministic cycle-accurate simulation kernel.

Every run is closed-loop: it couples a machine whose inputs are exactly
{reset, c, ts, tl} to the interval timer.  c and reset come from outside,
ts/tl come from the counter, and a pulse named `st` restarts it.

Per-tick order, fixed and relied on by every downstream consumer:
  1. read the external inputs for this tick;
  2. compute ts/tl from the timer count accumulated so far;
  3. evaluate the transition step (next state, pulses);
  4. record the tick with the CURRENT state's Moore outputs;
  5. commit: state := next, timer advances (restarting on st).
`closed_loop_tick` is the one implementation of steps 2-5, evaluated once per
reached (configuration, input) cell of a `_ClosedLoop` table; `simulate`,
`explore_reachable` and `env.run_env` supply step 1 and read it.
A `Stimulus` holds step 1 as (c, reset, n) runs, one per `.stim` line, so it
grows with the text, not the horizon; `_ClosedLoop.walk` steps each run n
times and returns the cell key of every tick.  A record's tick is its index
in `Trace.records`: every tick that hits a cell gets the cell's one read-only
record, so output renders once per cell, and the VCD once per change of
what it shows: no renderer builds a string per tick or a tuple per change.
Moore outputs are registered, so a transition's new lights appear one tick
after its guard fires.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Hashable, Mapping
from itertools import compress, islice
from operator import ne

from .model import Bit, FsmSpec, moore_output, step_spec, value_type
from .timer import TimerConfig, timer_commit, timer_outputs

CLOSED_LOOP_INPUTS = frozenset({"reset", "c", "ts", "tl"})
START_PULSE = "st"


class SimError(Exception):
    """Configuration or stimulus problem detected before tick 0."""


class StimulusError(SimError):
    """Malformed stimulus text; message carries the line number."""


@value_type
class Stimulus(namedtuple("Stimulus", "runs")):
    """External inputs as runs: each (c, reset, n) holds for n ticks."""
    __slots__ = ()

    def __new__(cls, runs: tuple[tuple[Bit, Bit, int], ...]) -> Stimulus:
        if not runs:
            raise SimError("stimulus must cover at least one tick")
        for c, reset, n in runs:
            if c not in (0, 1) or reset not in (0, 1):
                raise SimError(f"c and reset must be 0 or 1, got c={c!r} reset={reset!r}")
            if not isinstance(n, int) or n < 1:
                raise SimError(f"a run must last an int number of ticks >= 1, got {n!r}")
        return super().__new__(cls, runs)

    @property
    def horizon(self) -> int:
        return sum(n for _, _, n in self.runs)


@value_type
class TickRecord(namedtuple("TickRecord", "state inputs moore pulses timer_count")):
    """One clock of a run; its tick is its index in `Trace.records`.  `inputs`
    and `moore` map signal names to Bits, `pulses` is a frozenset of names."""
    __slots__ = ()

    @property
    def st(self) -> Bit:
        return 1 if START_PULSE in self.pulses else 0


# A run's records, a tuple of TickRecords; its spec names the module, the pulses
# and the states.
Trace = value_type(namedtuple("Trace", "spec records"))


def parse_stimulus(text: str) -> Stimulus:
    """Parse `.stim` text: a `horizon <n>` header, then `<tick> c=<bit>
    [reset=<bit>]` lines with strictly increasing ticks, each signal at most
    once per line.  Unlisted ticks hold the previous values, starting at 0."""
    horizon: int | None = None
    runs: list[tuple[Bit, Bit, int]] = []
    c = reset = start = 0  # (c, reset) holds from tick `start` on
    last_tick = -1
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if horizon is None:
            if fields[0] != "horizon" or len(fields) != 2:
                raise StimulusError(f"line {lineno}: expected 'horizon <n>' header")
            try:
                horizon = int(fields[1])
            except ValueError:
                raise StimulusError(f"line {lineno}: bad horizon '{fields[1]}'") from None
            if horizon < 1:
                raise StimulusError(f"line {lineno}: horizon must be >= 1")
            continue
        try:
            tick = int(fields[0])
        except ValueError:
            raise StimulusError(f"line {lineno}: bad tick number '{fields[0]}'") from None
        if tick <= last_tick:
            raise StimulusError(f"line {lineno}: non-monotonic tick {tick}")
        if tick >= horizon:
            raise StimulusError(f"line {lineno}: tick {tick} is outside horizon {horizon}")
        values: dict[str, Bit] = {}
        for field in fields[1:]:
            key, eq, val = field.partition("=")
            if eq != "=" or key not in ("c", "reset"):
                raise StimulusError(f"line {lineno}: expected c=<bit> or reset=<bit>, got '{field}'")
            if key in values:
                raise StimulusError(f"line {lineno}: duplicate assignment to '{key}'")
            if val not in ("0", "1"):
                raise StimulusError(f"line {lineno}: bit value must be 0 or 1, got '{val}'")
            values[key] = int(val)
        if not values:
            raise StimulusError(f"line {lineno}: tick line assigns nothing")
        if tick:
            runs.append((c, reset, tick - start))
        c, reset = values.get("c", c), values.get("reset", reset)
        last_tick = start = tick
    if horizon is None:
        raise StimulusError("line 1: expected 'horizon <n>' header")
    return Stimulus((*runs, (c, reset, horizon - start)))


def closed_loop_tick(spec: FsmSpec, cfg: TimerConfig, state: str, count: int,
                     c: Bit, reset: Bit) -> tuple[TickRecord, str, int]:
    """One closed-loop clock, steps 2-5 above.  Returns the tick's record, the
    next state and the next timer count."""
    ts, tl = timer_outputs(cfg, count)
    valuation = {"reset": reset, "c": c, "ts": ts, "tl": tl}
    next_state, pulses = step_spec(spec, state, valuation)
    record = TickRecord(state, valuation, moore_output(spec, state), pulses, count)
    return record, next_state, timer_commit(cfg, count, record.st)


class _ClosedLoop:
    """Memo table over `closed_loop_tick` for one run.  Configuration i is the
    i-th (state, timer count) reached; cell 4*i + 2*c + reset holds (next id,
    kernel record), filled on its first hit.  `cells` only grows in place, so
    drivers may hold it; a record is shared by all ticks of its cell and read-only."""

    def __init__(self, spec: FsmSpec, cfg: TimerConfig):
        if set(spec.inputs) != CLOSED_LOOP_INPUTS:
            raise SimError(
                f"closed-loop simulation needs inputs exactly "
                f"{sorted(CLOSED_LOOP_INPUTS)}, spec '{spec.name}' has {list(spec.inputs)}")
        self.spec, self.cfg = spec, cfg
        self.configs: list[tuple[str, int]] = [(spec.initial_state, 0)]
        self.ids = {self.configs[0]: 0}
        self.cells: list[tuple[int, TickRecord] | None] = [None] * 4

    def fill(self, k: int) -> tuple[int, TickRecord]:
        record, nxt, count = closed_loop_tick(
            self.spec, self.cfg, *self.configs[k >> 2], k >> 1 & 1, k & 1)
        config = (nxt, count)
        if config not in self.ids:
            self.ids[config] = len(self.configs)
            self.configs.append(config)
            self.cells.extend((None,) * 4)
        cell = self.cells[k] = (self.ids[config], record)
        return cell

    def walk(self, runs: tuple[tuple[Bit, Bit, int], ...]) -> list[int]:
        """The cell key of every tick of the runs, from the initial configuration."""
        cells, fill = self.cells, self.fill
        keys: list[int] = []
        append = keys.append
        i = 0
        for c, reset, n in runs:
            x = 2 * c + reset
            for _ in range(n):
                k = 4 * i + x
                append(k)
                i = (cells[k] or fill(k))[0]
        return keys


def simulate(spec: FsmSpec, cfg: TimerConfig, stim: Stimulus) -> Trace:
    """Closed-loop run over the stimulus horizon.  Pure: identical arguments
    give identical traces."""
    loop = _ClosedLoop(spec, cfg)
    keys = loop.walk(stim.runs)
    records = [cell and cell[1] for cell in loop.cells]
    return Trace(spec, tuple(map(records.__getitem__, keys)))


# ---------------------------------------------------------------------------
# Reachability (bounded model check support)
# ---------------------------------------------------------------------------

def explore_reachable(spec: FsmSpec, cfg: TimerConfig) -> frozenset[tuple[str, int]]:
    """Set of all (state, timer count) configurations reachable in closed
    loop under arbitrary c/reset sequences: every cell of every reached
    configuration, filled.  Bounded because the counter saturates at
    long_ticks."""
    loop = _ClosedLoop(spec, cfg)
    for k, _ in enumerate(loop.cells):  # also visits the cells each fill appends
        loop.fill(k)
    return frozenset(loop.configs)


# ---------------------------------------------------------------------------
# VCD output
# ---------------------------------------------------------------------------

def _vcd_id(index: int) -> str:
    # Printable identifier codes assigned in declaration order from '!'.
    chars = ""
    index += 1
    while index:
        index, rem = divmod(index - 1, 94)
        chars = chr(33 + rem) + chars
    return chars


def write_vcd(trace: Trace) -> str:
    """Render a trace as minimal standard VCD text (1 tick = 1 ns).

    Declares one wire per input, pulse, and Moore output plus a vector
    `state` variable; dumps initial values at #0 and afterwards only the
    signals that changed.  Byte-identical for equal traces.
    """
    if not trace.records:
        raise SimError("cannot write VCD for an empty trace")
    # Records of one table cell are one object.  Every keyed record lives in
    # `trace.records` until we return, so its id cannot be reused for another.
    keys = list(map(id, trace.records))
    return render_vcd(trace.spec, dict(zip(keys, trace.records)), keys)


def render_vcd(spec: FsmSpec, records: Mapping[Hashable, TickRecord],
               keys: list[Hashable]) -> str:
    """`write_vcd` of the run whose tick t has the record `records[keys[t]]`.

    Each record maps to its visible class: its state and the value of every
    declared signal.  A tick writes a `#t` block exactly when its class
    differs from the previous tick's.  Each distinct (old, new) block is
    printed once into `rows[old][new]`, and one `%` pass writes every `#t`
    block, so no string is built per tick and no tuple per change."""
    # Declaration order: inputs in spec order, then pulses, then Moore
    # outputs, then the state vector.  Identifier codes follow that order.
    signals = [*spec.inputs, *spec.pulse_outputs, *spec.moore_outputs]
    ids = {name: _vcd_id(i) for i, name in enumerate(signals)}
    state_id = _vcd_id(len(signals))

    state_index = {name: i for i, name in enumerate(spec.state_names())}
    width = max(1, (len(spec.states) - 1).bit_length())

    out = [
        "$timescale 1 ns $end",
        f"$scope module {spec.name} $end",
    ]
    for name in signals:
        out.append(f"$var wire 1 {ids[name]} {name} $end")
    out.append(f"$var wire {width} {state_id} state $end")
    out.append("$upscope $end")
    out.append("$enddefinitions $end")

    def visible(r: TickRecord) -> tuple:
        vals = {**r.inputs, **{p: 1 if p in r.pulses else 0 for p in spec.pulse_outputs},
                **r.moore}
        return (r.state, *[vals[name] for name in signals])

    classes: dict[tuple, int] = {}  # visible class -> code, in first-seen order
    code_of = {key: classes.setdefault(visible(r), len(classes)) for key, r in records.items()}
    visible_of = list(classes)

    def changes(old: tuple, new: tuple) -> str:
        lines = [f"{value}{ids[name]}"
                 for name, was, value in zip(signals, old[1:], new[1:]) if was != value]
        if old[0] != new[0]:
            lines.append(f"b{state_index[new[0]]:0{width}b} {state_id}")
        return "\n".join(lines)

    codes = list(map(code_of.__getitem__, keys))
    # Nothing is shown before #0, so it dumps every signal and the state.
    out += ["#0", "$dumpvars", changes((None,) * (len(signals) + 1), visible_of[codes[0]]), "$end"]
    ticks = list(compress(range(1, len(codes)), map(ne, islice(codes, 1, None), codes)))
    new = list(map(codes.__getitem__, ticks))
    old = [codes[0], *new]  # between changes the class holds
    rows: list[dict[int, str]] = [{} for _ in visible_of]  # rows[old][new] is the block
    for was, now in set(zip(old, new)):
        rows[was][now] = changes(visible_of[was], visible_of[now])
    args: list = [None] * (2 * len(ticks))  # t, block, t, block, ...
    args[::2] = ticks
    args[1::2] = map(dict.__getitem__, map(rows.__getitem__, old), new)
    return "\n".join(out) + "\n" + ("#%d\n%s\n" * len(ticks)) % tuple(args)
