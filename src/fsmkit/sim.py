"""Stimulus-driven runs, reachability and the log and VCD renderers over
`kernel`.  A `Stimulus` holds the kernel's step 1, the external inputs, as
(c, reset, n) runs, one per `.stim` line, so it grows with the text, not the
horizon.  A run is rendered from `_ClosedLoop.walk`'s record per table cell
and key per tick: once per record, and the VCD once per change of what it
shows, so no renderer builds a string per tick or a tuple per change.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Hashable, Mapping

from .kernel import SimError, TickRecord, _ClosedLoop
from .model import Bit, FsmSpec, value_type
from .timer import TimerConfig


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


def simulate(spec: FsmSpec, cfg: TimerConfig, stim: Stimulus) -> Trace:
    """Closed-loop run over the stimulus horizon.  Pure: identical arguments
    give identical traces."""
    records, keys = _ClosedLoop(spec, cfg).walk(stim.runs)
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
# Rendering: tick t of a run is `records[keys[t]]`
# ---------------------------------------------------------------------------

LIGHT_ORDER = ("mg", "my", "mr", "sg", "sy", "sr")


def render_log(records: Mapping[Hashable, TickRecord], keys: list[Hashable]) -> str:
    """`fsmkit simulate`'s log, formatted once per key.  No string is made
    per tick number: below tick 1000 it is one of the shared "0".."999"; from
    1000 on, its 1000-tick block's shared prefix `str(t // 1000)`, then one of
    the shared "000".."999".  Its per-tick list is freed on return, before
    `fsmkit simulate` renders the VCD."""
    bodies = {}  # a key's line, less its tick number
    for k, r in records.items():
        lights = "".join(str(r.moore.get(name, 0)) for name in LIGHT_ORDER)
        bodies[k] = (f" {r.state} c={r.inputs['c']} ts={r.inputs['ts']} "
                     f"tl={r.inputs['tl']} st={r.st} {lights}\n")
    n = len(keys)
    log = [""] * (3 * n)  # per tick: block prefix, last digits, body
    digits = list(map(str, range(min(n, 1000))))  # "0".."999", only those used
    log[1:3000:3] = digits
    if n > 1000:
        padded = [d.zfill(3) for d in digits]  # "000".."999"
        for b in range(1000, n, 1000):
            m = min(n - b, 1000)
            log[3 * b:3 * (b + m):3] = [str(b // 1000)] * m
            log[3 * b + 1:3 * (b + m):3] = padded[:m]
    log[2::3] = map(bodies.__getitem__, keys)
    return "".join(log)


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

    Each record maps to the code of its visible class: its state and the
    value of every declared signal.  One pass over the keys writes a `#t`
    block exactly when a tick's class differs from the previous tick's.
    Each distinct (old, new) block is printed once and cached under
    `old * len(classes) + new`, so no tuple is built per change."""
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

    old = code_of[keys[0]]
    # Nothing is shown before #0, so it dumps every signal and the state.
    out += ["#0", "$dumpvars", changes((None,) * (len(signals) + 1), visible_of[old]), "$end"]
    blocks: dict[int, str] = {}  # old * len(classes) + new -> that change's block
    for t, new in enumerate(map(code_of.__getitem__, keys)):
        if new != old:
            pair = old * len(classes) + new
            block = blocks.get(pair)
            if block is None:
                block = blocks[pair] = changes(visible_of[old], visible_of[new])
            out.append(f"#{t}\n{block}")
            old = new
    return "\n".join(out) + "\n"
