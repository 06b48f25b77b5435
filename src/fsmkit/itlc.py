"""The traffic light controller: the bundled machine description and stimulus,
and the board's default pin map.  The test suite keeps the description
provably equivalent to a hand-coded transcription of the controller's rules.

The controller is a four-state Moore machine over a main road (green by
default) and a sensed side road.  States: S0 main green / side red, S1 main
amber / side red, S2 side green / main red, S3 side amber / main red.  The
start-timer pulse (st) fires on every state change and restarts the shared
interval timer.
"""
from __future__ import annotations

from functools import lru_cache
from importlib import resources

from . import dsl
from .model import FsmSpec, validate


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
