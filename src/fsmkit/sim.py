"""Stimulus-driven runs, reachability and the log and VCD renderers over
`kernel`.  A `Stimulus` holds the kernel's step 1, the external inputs, as
(c, reset, n) runs, one per `.stim` line, so it grows with the text, not the
horizon.  `simulate` returns one `TickRecord` per tick, which `write_vcd`
renders under the spec it is given.  The CLI renders a run from
`_ClosedLoop.walk`'s record per table cell and path per stimulus run, and no
renderer builds a string per tick; the runs from one first key share its
path.  The log formats each record's line once and each path's lines once,
as a list that every run from it slices, and yields one string per 1000-tick
block, which `fsmkit simulate` writes as it comes.  The VCD formats each
change of what it shows once, scans each path once and replays its changes
for every later run from that key.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Hashable, Iterator, Mapping, Sequence
from itertools import chain, islice

from .kernel import SimError, TickRecord, _ClosedLoop
from .model import Bit, FsmSpec, value_type
from .timer import TimerConfig


class StimulusError(SimError):
    """Malformed stimulus text; message carries the line number."""


@value_type
class Stimulus(namedtuple("Stimulus", "runs")):
    """External inputs as runs, a tuple of (c, reset, n) tuples: each holds for n ticks."""
    __slots__ = ()

    def __new__(cls, runs: tuple[tuple[Bit, Bit, int], ...]) -> Stimulus:
        # A list hashes not at all, and an iterator reads empty once checked.
        if runs.__class__ is not tuple:
            raise SimError(f"stimulus runs must be a tuple of (c, reset, n) tuples, got {runs!r}")
        if not runs:
            raise SimError("stimulus must cover at least one tick")
        for run in runs:
            if run.__class__ is not tuple or len(run) != 3:
                raise SimError(f"a run must be three values (c, reset, n), got {run!r}")
            c, reset, n = run
            # `__class__` reads faster than `type()`, and refuses a bool or a float alike.
            if (c.__class__ is not int or reset.__class__ is not int
                    or c not in (0, 1) or reset not in (0, 1)):
                raise SimError(f"c and reset must be 0 or 1, got c={c!r} reset={reset!r}")
            if n.__class__ is not int or n < 1:
                raise SimError(f"a run must last an int number of ticks >= 1, got {n!r}")
        return super().__new__(cls, runs)

    @property
    def horizon(self) -> int:
        return sum(n for _, _, n in self.runs)


# Every well-formed field of a tick line, as (signal, bit).
_FIELDS = {f"{key}={bit}": (key, bit) for key in ("c", "reset") for bit in (0, 1)}


def parse_stimulus(text: str) -> Stimulus:
    """Parse `.stim` text: a `horizon <n>` header, then `<tick> c=<bit>
    [reset=<bit>]` lines with strictly increasing ticks, each signal at most
    once per line; the horizon and ticks are ASCII decimal digits.  Unlisted
    ticks hold the previous values, starting at 0."""
    horizon: int | None = None
    runs: list[tuple[Bit, Bit, int]] = []
    c = reset = start = 0  # (c, reset) holds from tick `start` on
    last_tick = -1
    # A number is ASCII digits; int() also takes a sign, `_` and other scripts' digits.
    comments = "#" in text
    for lineno, raw in enumerate(text.split("\n"), start=1):
        fields = (raw.split("#", 1)[0] if comments else raw).split()
        if not fields:
            continue
        if horizon is None:
            if fields[0] != "horizon" or len(fields) != 2:
                raise StimulusError(f"line {lineno}: expected 'horizon <n>' header")
            try:
                if not (fields[1].isdigit() and fields[1].isascii()):
                    raise ValueError
                horizon = int(fields[1])
            except ValueError:
                raise StimulusError(f"line {lineno}: bad horizon '{fields[1]}'") from None
            if horizon < 1:
                raise StimulusError(f"line {lineno}: horizon must be >= 1")
            continue
        try:
            if not (fields[0].isdigit() and fields[0].isascii()):
                raise ValueError
            tick = int(fields[0])
        except ValueError:
            raise StimulusError(f"line {lineno}: bad tick number '{fields[0]}'") from None
        if tick <= last_tick:
            raise StimulusError(f"line {lineno}: non-monotonic tick {tick}")
        if tick >= horizon:
            raise StimulusError(f"line {lineno}: tick {tick} is outside horizon {horizon}")
        values: dict[str, Bit] = {}
        for field in fields[1:]:
            signal = _FIELDS.get(field)
            if signal is None or signal[0] in values:  # refused: find out why
                key, eq, val = field.partition("=")
                if eq != "=" or key not in ("c", "reset"):
                    raise StimulusError(f"line {lineno}: expected c=<bit> or reset=<bit>, got '{field}'")
                if key in values:
                    raise StimulusError(f"line {lineno}: duplicate assignment to '{key}'")
                raise StimulusError(f"line {lineno}: bit value must be 0 or 1, got '{val}'")
            values[signal[0]] = signal[1]
        if not values:
            raise StimulusError(f"line {lineno}: tick line assigns nothing")
        if tick:
            runs.append((c, reset, tick - start))
        c, reset = values.get("c", c), values.get("reset", reset)
        last_tick = start = tick
    if horizon is None:
        raise StimulusError("line 1: expected 'horizon <n>' header")
    return Stimulus((*runs, (c, reset, horizon - start)))


def simulate(spec: FsmSpec, cfg: TimerConfig, stim: Stimulus) -> tuple[TickRecord, ...]:
    """Closed-loop run over the stimulus horizon: one `TickRecord` per tick.
    Pure: identical arguments give equal records."""
    records, paths = _ClosedLoop(spec, cfg).walk(stim.runs)
    keys = chain.from_iterable(map(islice, paths, (n for _, _, n in stim.runs)))
    return tuple(map(records.__getitem__, keys))


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
# Rendering: a run of n ticks has the records `records[k]` for k in `path[:n]`
# ---------------------------------------------------------------------------

LIGHT_ORDER = ("mg", "my", "mr", "sg", "sy", "sr")


def render_log(records: Mapping[Hashable, TickRecord], paths: list[list[Hashable]],
               lengths: Sequence[int]) -> Iterator[str]:
    """`fsmkit simulate`'s log of the runs whose run r has the keys
    `paths[r][:lengths[r]]`, yielded as one string per 1000-tick block of
    tick numbers, so that memory does not grow with the horizon.  Each key's
    line less its tick number is formatted once, and each path's lines once,
    as a list that every run from it slices.  No string is made per tick
    number: below tick 1000 it is one of the shared "0".."999"; from 1000
    on, its block's shared prefix `str(t // 1000)`, then one of the shared
    "000".."999"."""
    bodies = {}  # a key's line, less its tick number
    for k, r in records.items():
        lights = "".join(str(r.moore.get(name, 0)) for name in LIGHT_ORDER)
        bodies[k] = (f" {r.state} c={r.inputs['c']} ts={r.inputs['ts']} "
                     f"tl={r.inputs['tl']} st={r.st} {lights}\n")
    # First key -> its path's bodies.  `walk` hands each path over at its final
    # length, the longest run from it, so one list serves every run from it.
    lines = {}
    for path in paths:
        if path[0] not in lines:
            lines[path[0]] = list(map(bodies.__getitem__, path))
    ticks = chain.from_iterable(lines[path[0]][:n] for path, n in zip(paths, lengths))
    n = sum(lengths)
    digits = list(map(str, range(min(n, 1000))))  # "0".."999", only those used
    chunk = [""] * (3 * len(digits))  # per tick: block prefix, last digits, body
    chunk[1::3] = digits
    for b in range(0, n, 1000):
        m = min(n - b, 1000)
        del chunk[3 * m:]  # the last block may be shorter
        if b == 1000:
            chunk[1::3] = [d.zfill(3) for d in digits[:m]]  # "000".."999" from here on
        if b:
            chunk[0::3] = [str(b // 1000)] * m
        chunk[2::3] = islice(ticks, m)
        yield "".join(chunk)


def _vcd_id(index: int) -> str:
    # Printable identifier codes assigned in declaration order from '!'.
    chars = ""
    index += 1
    while index:
        index, rem = divmod(index - 1, 94)
        chars = chr(33 + rem) + chars
    return chars


def write_vcd(spec: FsmSpec, records: Sequence[TickRecord]) -> str:
    """Render one record per tick as minimal standard VCD text (1 tick = 1 ns).

    Declares one wire per input, pulse, and Moore output plus a vector
    `state` variable; dumps initial values at #0 and afterwards only the
    signals that changed.  Byte-identical for equal arguments.  An item that
    is not a `TickRecord`, or a record in a state the spec does not declare
    or without a value for each input and Moore output it declares, is a
    `SimError`.
    """
    if not records:
        raise SimError("cannot write VCD for an empty trace")
    # Records of one table cell are one object, so each is checked once.  Every
    # keyed record lives in `records` until we return, so its id cannot be
    # reused for another.
    ids = list(map(id, records))
    keyed = dict(zip(ids, records))
    states = spec.state_names()
    for r in keyed.values():
        if (r.__class__ is not TickRecord or r.state not in states
                or not all(name in r.inputs for name in spec.inputs)
                or not all(name in r.moore for name in spec.moore_outputs)):
            raise SimError(f"spec '{spec.name}' does not describe the record {r!r}")
    return render_vcd(spec, keyed, [ids], [len(ids)])


def render_vcd(spec: FsmSpec, records: Mapping[Hashable, TickRecord],
               paths: list[list[Hashable]], lengths: Sequence[int]) -> str:
    """`write_vcd` of the runs whose run r has the records `records[k]` for k
    in `paths[r][:lengths[r]]`, where the runs from one first key share one
    path, as `_ClosedLoop.walk` hands them over.

    Each record maps to the code of its visible class, its state and every
    declared signal's value, formatted once as the lines that show it.  `#0`
    dumps the first tick's lines.  A `#t` block, written exactly when a
    tick's class differs from the previous tick's, is the new class's lines
    that differ from the old one's, joined once per (old, new) and cached
    under `old * len(classes) + new`.  Each run's first tick is compared
    afresh; the changes inside a run depend only on its path.  The first run
    of more than one tick from a path scans it whole, writes the changes
    below its own length and keeps them all as (offset, block); later runs
    from it replay those below their length.  The last run keeps none, as no
    later run replays it."""
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
    # Each class as the lines that show it: every signal, then the state vector.
    lines = [(*[f"{value}{ids[name]}" for name, value in zip(signals, shown[1:])],
              f"b{state_index[shown[0]]:0{width}b} {state_id}") for shown in classes]

    old = code_of[paths[0][0]]
    # Nothing is shown before #0, so it dumps every line of the first class.
    out += ["#0", "$dumpvars", *lines[old], "$end"]
    blocks: dict[int, str] = {}  # old * n_classes + new -> that change's block
    n_classes = len(classes)

    def block(old: int, new: int) -> str:
        text = blocks[old * n_classes + new] = "\n".join(
            line for line, was in zip(lines[new], lines[old]) if line != was)
        return text

    kept: dict[Hashable, list[tuple[int, str]]] = {}  # first key -> its path's changes
    total, t = sum(lengths), 0
    for path, n in zip(paths, lengths):
        k = path[0]
        new = code_of[k]
        if new != old:
            out.append(f"#{t}\n{blocks.get(old * n_classes + new) or block(old, new)}")
        old = new
        if n > 1:  # a one-tick run has no inside
            moves = kept.get(k)
            if moves is None:  # the first run from this path scans it
                keep = t + n < total  # no later run replays the last one
                moves = kept[k] = []
                for u, new in enumerate(map(code_of.__getitem__, path), t):
                    if new != old:
                        text = blocks.get(old * n_classes + new) or block(old, new)
                        if keep:
                            moves.append((u - t, text))
                        else:
                            out.append(f"#{u}\n{text}")
                        old = new
            for offset, text in moves:
                if offset >= n:
                    break
                out.append(f"#{t + offset}\n{text}")
            old = code_of[path[n - 1]]
        t += n
    out.append("")  # the final newline, without copying the text to add it
    return "\n".join(out)
