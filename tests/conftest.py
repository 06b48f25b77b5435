"""Shared fixtures and hypothesis strategies for the suite."""
from __future__ import annotations

import itertools
from functools import reduce

import pytest
from hypothesis import strategies as st

from fsmkit.itlc import bundled_spec
from fsmkit.model import (
    And, Const, FsmSpec, Not, Or, StateDef, Transition, Var,
)
from fsmkit.timer import TimerConfig


def all_valuations(names):
    """All 2^n valuations of the given inputs, in binary counting order (the
    first input most significant): the enumeration `validate` must agree with."""
    for bits in itertools.product((0, 1), repeat=len(names)):
        yield dict(zip(names, bits))


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
def closed_loop_machines(draw, max_states=5):
    """Random machines over exactly the closed-loop inputs, with lights mg/sg
    and the timer pulse st.  Each state's guards partition all 16 valuations,
    so every run is defined; reset is declared or left an ordinary input."""
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
        lights = {"mg": draw(st.integers(0, 1)), "sg": draw(st.integers(0, 1))}
        states.append(StateDef(name, lights, tuple(transitions)))
    return FsmSpec(
        name="loop", inputs=CLOSED_LOOP_INPUTS, moore_outputs=("mg", "sg"),
        pulse_outputs=("st",), states=tuple(states), initial_state=names[0],
        reset_input=draw(st.sampled_from(["reset", None])))


@st.composite
def timer_configs(draw, max_long=24):
    short = draw(st.integers(1, max_long - 1))
    return TimerConfig(short, draw(st.integers(short + 1, max_long)))
