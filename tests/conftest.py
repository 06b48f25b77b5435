"""Shared fixtures and hypothesis strategies for the suite."""
from __future__ import annotations

import itertools
from functools import lru_cache, reduce
from importlib import resources

import pytest
from hypothesis import strategies as st

from fsmkit import dsl
from fsmkit.dsl import MAX_GUARD_DEPTH
from fsmkit.model import (
    And, Const, FsmSpec, Not, Or, StateDef, Transition, Var, validate,
)
from fsmkit.timer import TimerConfig


def all_valuations(names):
    """All 2^n valuations of the given inputs, in binary counting order (the
    first input most significant): the enumeration `validate` must agree with."""
    for bits in itertools.product((0, 1), repeat=len(names)):
        yield dict(zip(names, bits))


def first_difference(got, want):
    """None for equal texts, else the first line where they differ, as (line
    number, got's line, want's line): pytest's own diff of two long texts
    takes minutes."""
    if got == want:
        return None
    a, b = got.splitlines(True), want.splitlines(True)
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return i + 1, a[i:i + 1], b[i:i + 1]


def bundled_source() -> str:
    """Text of the packaged `itlc.fsm` asset, the traffic light controller."""
    return resources.files("fsmkit").joinpath("designs/itlc.fsm").read_text("utf-8")


def bundled_stimulus_source() -> str:
    """Text of the packaged side-road scenario stimulus."""
    return resources.files("fsmkit").joinpath("designs/paper_fig7_10.stim").read_text("utf-8")


@lru_cache(maxsize=1)
def bundled_spec() -> FsmSpec:
    """Parsed and validated controller spec from the packaged asset."""
    spec = dsl.parse(bundled_source())
    findings = validate(spec)
    if findings:
        raise AssertionError(f"bundled controller spec is invalid: {findings}")
    return spec


@pytest.fixture(scope="session")
def itlc_spec():
    return bundled_spec()


@pytest.fixture(scope="session")
def default_cfg():
    return TimerConfig(short_ticks=4, long_ticks=16)


def guard_from_minterms(minterms, input_names, total):
    """OR-of-AND guard true exactly on the given valuations."""
    if len(minterms) == total:
        return Const(1)
    if not minterms:
        return Const(0)
    def literal(name, bit):
        return Var(name) if bit else Not(Var(name))
    def conj(v):
        if not input_names:
            return Const(1)
        return reduce(And, (literal(n, v[n]) for n in input_names))
    return reduce(Or, (conj(v) for v in minterms))


@st.composite
def guard_exprs(draw, input_names=("a", "b", "c"), depth=4):
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        if input_names and draw(st.booleans()):
            return Var(draw(st.sampled_from(input_names)))
        return Const(draw(st.integers(0, 1)))
    kind = draw(st.sampled_from(["not", "and", "or"]))
    if kind == "not":
        return Not(draw(guard_exprs(input_names=input_names, depth=depth - 1)))
    left = draw(guard_exprs(input_names=input_names, depth=depth - 1))
    right = draw(guard_exprs(input_names=input_names, depth=depth - 1))
    return And(left, right) if kind == "and" else Or(left, right)


@st.composite
def valid_machines(draw, max_states=6, max_inputs=4):
    """Random structurally valid machines whose guards partition the input
    space per state, so validate reports zero findings by construction."""
    n_states = draw(st.integers(1, max_states))
    n_inputs = draw(st.integers(0, max_inputs))
    n_outputs = draw(st.integers(0, 3))
    n_pulses = draw(st.integers(0, 2))
    state_names = [f"Q{i}" for i in range(n_states)]
    input_names = [f"in{i}" for i in range(n_inputs)]
    output_names = [f"out{i}" for i in range(n_outputs)]
    pulse_names = [f"p{i}" for i in range(n_pulses)]
    reset = input_names[0] if n_inputs and draw(st.booleans()) else None

    valuations = list(all_valuations(tuple(input_names)))
    states = []
    for sname in state_names:
        assigns = {
            o: draw(st.integers(0, 1))
            for o in output_names if draw(st.booleans())
        }
        n_trans = draw(st.integers(1, 3))
        owner = [draw(st.integers(0, n_trans - 1)) for _ in valuations]
        transitions = []
        for t_idx in range(n_trans):
            minterms = [v for v, o in zip(valuations, owner) if o == t_idx]
            guard = guard_from_minterms(minterms, input_names, len(valuations))
            dest = draw(st.sampled_from(state_names))
            pulses = frozenset(p for p in pulse_names if draw(st.booleans()))
            transitions.append(Transition(guard, dest, pulses))
        states.append(StateDef(sname, assigns, tuple(transitions)))
    return FsmSpec(
        name="m" + draw(st.sampled_from(["x", "y", "z"])),
        inputs=tuple(input_names),
        moore_outputs=tuple(output_names),
        pulse_outputs=tuple(pulse_names),
        states=tuple(states),
        initial_state=draw(st.sampled_from(state_names)),
        reset_input=reset,
    )


CLOSED_LOOP_INPUTS = ("reset", "c", "ts", "tl")


@st.composite
def closed_loop_machines(draw, max_states=5, lights=("mg", "sg")):
    """Random machines over exactly the closed-loop inputs, with the given
    lights (mg and sg by default) and the timer pulse st.  Each state's guards
    partition all 16 valuations, so every run is defined; reset is declared or
    left an ordinary input."""
    names = [f"Q{i}" for i in range(draw(st.integers(1, max_states)))]
    valuations = list(all_valuations(CLOSED_LOOP_INPUTS))
    states = []
    for name in names:
        n_trans = draw(st.integers(1, 3))
        owner = [draw(st.integers(0, n_trans - 1)) for _ in valuations]
        transitions = []
        for t_idx in range(n_trans):
            minterms = [v for v, o in zip(valuations, owner) if o == t_idx]
            guard = guard_from_minterms(minterms, CLOSED_LOOP_INPUTS, len(valuations))
            pulses = frozenset({"st"}) if draw(st.booleans()) else frozenset()
            transitions.append(Transition(guard, draw(st.sampled_from(names)), pulses))
        levels = {light: draw(st.integers(0, 1)) for light in lights}
        states.append(StateDef(name, levels, tuple(transitions)))
    return FsmSpec(
        name="loop", inputs=CLOSED_LOOP_INPUTS, moore_outputs=tuple(lights),
        pulse_outputs=("st",), states=tuple(states), initial_state=names[0],
        reset_input=draw(st.sampled_from(["reset", None])))


@st.composite
def timer_configs(draw, max_long=24):
    short = draw(st.integers(1, max_long - 1))
    return TimerConfig(short, draw(st.integers(short + 1, max_long)))


GAP_SPEC = """fsm gappy
inputs a
initial A
state A { }
trans A -> A when a
"""


CLOSED_LOOP_HEADER = """fsm loop
inputs reset c ts tl
outputs mg
pulses st
initial S0
reset reset
state S0 { mg=1 }
"""
# Two guards overlap wherever c & tl holds.
OVERLAP_SPEC = CLOSED_LOOP_HEADER + """trans S0 -> S0 when !c
trans S0 -> S0 when c
trans S0 -> S0 when c & tl emit st
"""
# No guard holds while c is low, which a stimulus holding c high never hits.
CLOSED_GAP_SPEC = CLOSED_LOOP_HEADER + "trans S0 -> S0 when c\n"


# What int() or str.split() take that the `.stim` format does not, or at its edges.
STIM_NOISE = ("+", "-", "_", "\u0661", "\uff11", "\x00", "\r", "\ufeff", "#", "1" * 5000)


def edited(draw, lines, edits, tokens=(), least=1):
    """`lines` joined as text after `least` to three edits drawn from `edits`,
    each to one space-separated field: the field repeated ("repeat"), a `#`
    glued on ("glue"), the field dropped ("drop") or replaced by one of
    `tokens` ("swap"), its line repeated ("line"), or else the edit put into
    the field as noise."""
    for _ in range(draw(st.integers(least, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split(" ")
        j = draw(st.integers(0, len(fields) - 1))
        edit = draw(st.sampled_from(edits))
        if edit == "repeat":
            fields.insert(j, fields[j])
        elif edit == "glue":
            fields[j] += "#"
        elif edit == "drop":
            del fields[j]
        elif edit == "swap":
            fields[j] = draw(st.sampled_from(tokens))
        elif edit == "line":
            lines.insert(i, lines[i])
        else:
            k = draw(st.integers(0, len(fields[j])))
            fields[j] = fields[j][:k] + edit + fields[j][k:]
        lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


# `.fsm` texts to edit, and what `edited` may put into them: every token of
# the texts, the `.stim` noise, a guard opened past the nesting cap, and each
# operator and reserved word.
FSM_TEXTS = [bundled_source(), GAP_SPEC, OVERLAP_SPEC, CLOSED_GAP_SPEC]
FSM_TOKENS = sorted({token for text in FSM_TEXTS for token in text.split()})
FSM_NOISE = (*STIM_NOISE, "(" * (MAX_GUARD_DEPTH + 1), "!", "&", "|", ")", "=", "{", "}", "->",
             "2", "\t", "when", "emit")
EDITS = ("repeat", "glue", "drop", "swap", "line")
