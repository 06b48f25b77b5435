"""The traffic light controller: hand-coded reference oracle and bundled
machine description, kept provably equivalent by the test suite.

The controller is a four-state Moore machine over a main road (green by
default) and a sensed side road.  States: S0 main green / side red, S1 main
amber / side red, S2 side green / main red, S3 side amber / main red.  The
start-timer pulse (st) fires on every state change and restarts the shared
interval timer.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from . import dsl
from .model import FsmSpec, validate


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


def bundled_source() -> str:
    """Text of the packaged `itlc.fsm` asset."""
    return resources.files(__package__).joinpath("designs/itlc.fsm").read_text("utf-8")


def bundled_stimulus_source() -> str:
    """Text of the packaged side-road scenario stimulus."""
    return resources.files(__package__).joinpath(
        "designs/paper_fig7_10.stim").read_text("utf-8")


@lru_cache(maxsize=1)
def bundled_spec() -> FsmSpec:
    """Parsed and validated controller spec from the packaged asset."""
    spec = dsl.parse(bundled_source())
    findings = validate(spec)
    if findings:
        raise AssertionError(f"bundled controller spec is invalid: {findings}")
    return spec


# Board mapping for the Spartan-3E demo: the sensor and the two timer-expiry
# switches drive the controller; the six lights show on LEDs.  The start-timer
# pulse is a controller output and deliberately has no board input pin.
DEFAULT_PIN_ROWS: tuple[tuple[str, str, str], ...] = (
    ("c", "N17", "input"),
    ("ts", "H18", "input"),
    ("tl", "L14", "input"),
    ("mr", "F9", "output"),
    ("my", "E9", "output"),
    ("mg", "D11", "output"),
    ("sr", "F11", "output"),
    ("sy", "E11", "output"),
    ("sg", "E12", "output"),
)
