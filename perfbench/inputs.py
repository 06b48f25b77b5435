"""Seeded input generators and the reference outputs each input must produce.

Everything here is independent of the code under test: the expected VCD,
log, Verilog, UCF and findings text are computed from the generator's own
description of each input, so the benchmark can check any workload seed
without having seen it before.  The reference model is checked against the
committed golden files by `selftest.py`.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

# ---------------------------------------------------------------------------
# vcd-waveform: stimulus for designs/itlc.fsm and its reference trace
# ---------------------------------------------------------------------------

SHORT_TICKS, LONG_TICKS = 4, 16  # fsmkit's default timer thresholds
LIGHTS = ("mg", "my", "mr", "sg", "sy", "sr")
_ITLC_MOORE = {  # state -> lights asserted, from designs/itlc.fsm
    "S0": {"mg", "sr"}, "S1": {"my", "sr"}, "S2": {"mr", "sg"}, "S3": {"mr", "sy"},
}
_ITLC_STATES = ("S0", "S1", "S2", "S3")


def make_stimulus(seed: int, horizon: int) -> str:
    """`.stim` text: `c` toggles after a random dwell of 1..80 ticks, and
    about once per 4,000 ticks `reset` is held high for 1..3 ticks."""
    rng = random.Random(f"stim-{seed}")
    events: dict[int, dict[str, int]] = {}
    tick, c = 0, 0
    while True:
        tick += rng.randint(1, 80)
        if tick >= horizon:
            break
        c ^= 1
        events.setdefault(tick, {})["c"] = c
    for start in range(1, horizon):
        if rng.random() < 1 / 4000:
            end = start + rng.randint(1, 3)
            if end < horizon and not any(t in events for t in range(start, end + 1)):
                events[start] = {"reset": 1}
                events[end] = {"reset": 0}
    lines = [f"horizon {horizon}"]
    for t in sorted(events):
        lines.append(f"{t} " + " ".join(f"{k}={v}" for k, v in sorted(events[t].items())))
    return "\n".join(lines) + "\n"


def _parse_stim(text: str) -> list[tuple[int, int]]:
    """(c, reset) per tick, for the stimulus texts this module writes."""
    rows = [line.split() for line in text.splitlines() if line.split("#", 1)[0].strip()]
    horizon = int(rows[0][1])
    changes = {int(r[0]): dict(f.split("=") for f in r[1:]) for r in rows[1:]}
    out, cur = [], {"c": "0", "reset": "0"}
    for tick in range(horizon):
        cur.update(changes.get(tick, {}))
        out.append((int(cur["c"]), int(cur["reset"])))
    return out


def itlc_reference(stim_text: str) -> tuple[str, str]:
    """Log text and VCD text that `fsmkit simulate designs/itlc.fsm` with the
    default timer must write for this stimulus."""
    state, count = "S0", 0
    log: list[str] = []
    rows: list[tuple[str, dict[str, int]]] = []
    for tick, (c, reset) in enumerate(_parse_stim(stim_text)):
        ts, tl = int(count >= SHORT_TICKS), int(count >= LONG_TICKS)
        if reset:
            nxt, st = "S0", 0
        elif state == "S0":
            nxt, st = ("S1", 1) if tl and c else ("S0", 0)
        elif state == "S1":
            nxt, st = ("S2", 1) if ts else ("S1", 0)
        elif state == "S2":
            nxt, st = ("S3", 1) if tl or not c else ("S2", 0)
        else:
            nxt, st = ("S0", 1) if ts else ("S3", 0)
        lights = {name: int(name in _ITLC_MOORE[state]) for name in LIGHTS}
        log.append(f"{tick} {state} c={c} ts={ts} tl={tl} st={st} "
                   + "".join(str(lights[n]) for n in LIGHTS))
        rows.append((state, {"reset": reset, "c": c, "ts": ts, "tl": tl, "st": st, **lights}))
        state, count = nxt, 0 if st else min(count + 1, LONG_TICKS)
    return "\n".join(log) + "\n", _itlc_vcd(rows)


def _itlc_vcd(rows: list[tuple[str, dict[str, int]]]) -> str:
    signals = ("reset", "c", "ts", "tl", "st") + LIGHTS
    ids = {name: chr(33 + i) for i, name in enumerate(signals)}
    state_id = chr(33 + len(signals))
    out = ["$timescale 1 ns $end", "$scope module itlc $end"]
    out += [f"$var wire 1 {ids[n]} {n} $end" for n in signals]
    out += [f"$var wire 2 {state_id} state $end", "$upscope $end", "$enddefinitions $end"]
    prev: dict[str, int] = {}
    prev_state = None
    for tick, (state, vals) in enumerate(rows):
        changes = [f"{vals[n]}{ids[n]}" for n in signals if prev.get(n) != vals[n]]
        if state != prev_state:
            changes.append(f"b{_ITLC_STATES.index(state):02b} {state_id}")
        if tick == 0:
            out += ["#0", "$dumpvars", *changes, "$end"]
        elif changes:
            out += [f"#{tick}", *changes]
        prev, prev_state = vals, state
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# design-check: random decision-tree machines and their expected outputs
# ---------------------------------------------------------------------------

OUTPUTS = ("o0", "o1", "o2", "o3")
PULSES = ("p0", "p1")

Literal = tuple[str, int]  # (input name, required value)


@dataclass(frozen=True)
class Trans:
    guard: tuple[Literal, ...]  # conjunction of literals
    dest: str
    pulses: tuple[str, ...]


@dataclass(frozen=True)
class Design:
    name: str
    inputs: tuple[str, ...]  # excluding reset, which is declared first
    states: tuple[str, ...]
    moore: tuple[tuple[str, ...], ...]  # outputs asserted, per state
    trans: tuple[tuple[Trans, ...], ...]  # per state, in file order
    pins: tuple[tuple[str, str, str], ...]  # (signal, location, kind)
    injected: bool

    def fsm_text(self) -> str:
        lines = [f"fsm {self.name}", "inputs reset " + " ".join(self.inputs),
                 "outputs " + " ".join(OUTPUTS), "pulses " + " ".join(PULSES),
                 f"initial {self.states[0]}", "reset reset"]
        for s, asserted in zip(self.states, self.moore):
            lines.append(f"state {s} {{ " + "".join(f"{o}=1 " for o in asserted) + "}")
        for s, ts in zip(self.states, self.trans):
            for t in ts:
                emit = " emit " + " ".join(t.pulses) if t.pulses else ""
                lines.append(f"trans {s} -> {t.dest} when {_guard_text(t.guard)}{emit}")
        return "\n".join(lines) + "\n"

    def pins_text(self) -> str:
        return pins_text(self.pins)

    def ucf(self) -> str:
        return ucf_for(self.pins_text())

    def findings(self) -> str:
        """`fsmkit check` output: per state, one line per valuation (reset
        low, binary counting order over the declared inputs) at which more
        than one guard holds or none does.  Tree guards do neither."""
        lines = []
        for s, ts in zip(self.states, self.trans):
            for bits in itertools.product((0, 1), repeat=len(self.inputs)):
                v = dict(zip(self.inputs, bits))
                hits = sum(all(v[n] == b for n, b in t.guard) for t in ts)
                shown = "{reset=0, " + ", ".join(f"{n}={b}" for n, b in v.items()) + "}"
                if hits > 1:
                    lines.append(f"overlap {s} state '{s}': {hits} guards true at {shown}")
                elif hits == 0:
                    lines.append(f"gap {s} state '{s}': no guard true at {shown}")
        return "".join(line + "\n" for line in lines)

    def verilog(self, onehot: bool) -> str:
        n = len(self.states)
        if onehot:
            width = n
            encode = lambda i: f"{n}'b" + "".join("1" if j == i else "0" for j in reversed(range(n)))
        else:
            width = max(1, (n - 1).bit_length())
            encode = lambda i: f"{width}'d{i}"
        rng = f"[{width - 1}:0] " if width > 1 else ""
        init = self.states[0]
        ports = ([("input", "clk"), ("input", "reset")] + [("input", i) for i in self.inputs]
                 + [("output", o) for o in OUTPUTS + PULSES])
        w = [f"// Machine '{self.name}' rendered as synthesizable Verilog. Generated file; do not edit.",
             f"module {self.name} ("]
        for k, (direction, name) in enumerate(ports):
            pad = " " if direction == "input" else ""
            w.append(f"    {direction} {pad}wire {name}{',' if k < len(ports) - 1 else ''}")
        w += [");", ""]
        w += [f"    localparam {rng}{s} = {encode(i)};" for i, s in enumerate(self.states)]
        w += ["", f"    reg {rng}state = {init};", f"    reg {rng}state_next;"]
        w += [f"    reg {p}_next;" for p in PULSES]
        w += ["", "    always @* begin", "        state_next = state;"]
        w += [f"        {p}_next = 1'b0;" for p in PULSES]
        w += ["        if (reset) begin", f"            state_next = {init};",
              "        end else begin", "            case (state)"]
        ind = " " * 16
        for s, ts in zip(self.states, self.trans):
            w.append(f"{ind}{s}: begin")
            for j, t in enumerate(ts):
                w.append(f"{ind}    {'if' if j == 0 else 'end else if'} ({_guard_text(t.guard)}) begin")
                w.append(f"{ind}        state_next = {t.dest};")
                w += [f"{ind}        {p}_next = 1'b1;" for p in PULSES if p in t.pulses]
            w += [f"{ind}    end", f"{ind}end"]
        w += [f"{ind}default: state_next = {init};", "            endcase", "        end",
              "    end", "", "    always @(posedge clk) begin", "        state <= state_next;",
              "    end", ""]
        for o in OUTPUTS:
            on = [s for s, asserted in zip(self.states, self.moore) if o in asserted]
            w.append(f"    assign {o} = " + (" | ".join(f"(state == {s})" for s in on) or "1'b0") + ";")
        w += [f"    assign {p} = {p}_next;" for p in PULSES]
        w += ["", "endmodule"]
        return "\n".join(w) + "\n"


def _guard_text(guard: tuple[Literal, ...]) -> str:
    return " & ".join(n if b else f"!{n}" for n, b in guard)


def make_design(seed: int, index: int, n_inputs: int, n_states: int, leaves: int,
                inject: bool) -> Design:
    """A machine whose per-state guards are the leaves of a random decision
    tree with `leaves` leaves over the non-reset inputs, so they are
    exclusive and exhaustive.  With `inject`, one state gets an extra
    transition whose guard is a leaf's guard minus its last literal; it
    overlaps that leaf and its sibling subtree."""
    rng = random.Random(f"design-{seed}-{index}")
    inputs = tuple(f"i{k}" for k in range(n_inputs))
    states = tuple(f"S{k}" for k in range(n_states))

    def split(path: tuple[Literal, ...], count: int) -> list[Trans]:
        if count == 1:
            return [Trans(path, rng.choice(states),
                          tuple(p for p in PULSES if rng.random() < 0.3))]
        var = rng.choice([i for i in inputs if i not in {n for n, _ in path}])
        left = count // 2 + rng.randint(0, count % 2)  # balanced: equal cost per seed
        return split(path + ((var, 0),), left) + split(path + ((var, 1),), count - left)

    trans = [split((), leaves) for _ in states]
    if inject:
        s = rng.randrange(n_states)
        victim = rng.choice([t for t in trans[s] if len(t.guard) >= 2])
        trans[s].append(Trans(victim.guard[:-1], rng.choice(states), ()))
    moore = tuple(tuple(o for o in OUTPUTS if rng.random() < 0.5) for _ in states)
    pins = _pin_rows(rng, ("reset",) + inputs, OUTPUTS + PULSES)
    return Design(f"g{seed}_{index}", inputs, states, moore,
                  tuple(tuple(ts) for ts in trans), pins, inject)


def _pin_rows(rng: random.Random, ins: tuple[str, ...],
              outs: tuple[str, ...]) -> tuple[tuple[str, str, str], ...]:
    """A random subset, in random order, of the signals, each on a random pin."""
    signals = [(s, "input") for s in ins] + [(s, "output") for s in outs]
    return tuple((s, f"P{rng.randint(1, 208)}", kind)
                 for s, kind in rng.sample(signals, rng.randint(4, len(signals))))


def pins_text(rows: tuple[tuple[str, str, str], ...]) -> str:
    return "".join(f"{sig} {loc} {kind}\n" for sig, loc, kind in rows)


def ucf_for(pins_text: str) -> str:
    """UCF text `fsmkit emit --format ucf --pins` writes for a pin file."""
    return "".join(f'NET "{sig}" LOC = "{loc}";\n'
                   for sig, loc, _ in (line.split() for line in pins_text.splitlines()))


def flagship_pins(seed: int) -> str:
    """A pin file for designs/itlc.fsm: a seeded subset of its signals."""
    return pins_text(_pin_rows(random.Random(f"pins-{seed}"), ("reset", "c", "ts", "tl"),
                               LIGHTS + ("st",)))
