"""Hand-coded reference oracle for the traffic light controller: a direct
transcription of its transition rules and light levels, which the tests hold
the bundled `designs/itlc.fsm` description equivalent to.

The controller is a four-state Moore machine over a main road (green by
default) and a sensed side road.  States: S0 main green / side red, S1 main
amber / side red, S2 side green / main red, S3 side amber / main red.  The
start-timer pulse (st) fires on every state change and restarts the shared
interval timer.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass


class ControllerState(enum.Enum):
    S0 = "S0"
    S1 = "S1"
    S2 = "S2"
    S3 = "S3"


@dataclass(frozen=True)
class ItlcInputs:
    reset: int = 0
    c: int = 0   # side-road presence sensor
    ts: int = 0  # short interval expired
    tl: int = 0  # long interval expired


@dataclass(frozen=True)
class LightOutputs:
    mg: int = 0
    my: int = 0
    mr: int = 0
    sg: int = 0
    sy: int = 0
    sr: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"mg": self.mg, "my": self.my, "mr": self.mr,
                "sg": self.sg, "sy": self.sy, "sr": self.sr}


def reference_next(state: ControllerState, inputs: ItlcInputs) -> tuple[ControllerState, int]:
    """Next state and start-timer pulse, straight from the transition rules.

    Reset dominates and does not pulse the timer.  The pulse fires exactly
    when the state changes.
    """
    if inputs.reset:
        return ControllerState.S0, 0
    if state is ControllerState.S0:
        if inputs.tl and inputs.c:
            return ControllerState.S1, 1
        return ControllerState.S0, 0
    if state is ControllerState.S1:
        if inputs.ts:
            return ControllerState.S2, 1
        return ControllerState.S1, 0
    if state is ControllerState.S2:
        if inputs.tl or not inputs.c:
            return ControllerState.S3, 1
        return ControllerState.S2, 0
    if inputs.ts:
        return ControllerState.S0, 1
    return ControllerState.S3, 0


_REFERENCE_LIGHTS = {
    ControllerState.S0: LightOutputs(mg=1, sr=1),
    ControllerState.S1: LightOutputs(my=1, sr=1),
    ControllerState.S2: LightOutputs(mr=1, sg=1),
    ControllerState.S3: LightOutputs(mr=1, sy=1),
}


def reference_output(state: ControllerState) -> LightOutputs:
    """Fixed light levels of a state (Moore outputs)."""
    return _REFERENCE_LIGHTS[state]
