"""Two-threshold interval timer driving the ts/tl level signals.

One free-running counter is restarted by the start pulse (st) and compared
against two thresholds.  Both outputs are levels, not pulses: once a
threshold is reached the signal stays high until the next restart, which is
what lets the controller test "has the interval expired" across many dwell
cycles.  The counter saturates at the long threshold; both comparisons are
already satisfied there, so saturation is invisible in the outputs.  The
timer's whole state is that count, a plain int in [0, long_ticks].
"""
from __future__ import annotations

from collections import namedtuple

from .model import ConfigError, is_int, shown, value_type

DEFAULT_SHORT_TICKS = 4
DEFAULT_LONG_TICKS = 16


@value_type
class TimerConfig(namedtuple("TimerConfig", "short_ticks long_ticks")):
    __slots__ = ()

    def __new__(cls, short_ticks: int = DEFAULT_SHORT_TICKS,
                long_ticks: int = DEFAULT_LONG_TICKS) -> TimerConfig:
        if not (is_int(short_ticks) and is_int(long_ticks)):
            raise ConfigError(f"short_ticks and long_ticks must be ints "
                              f"(got short={shown(short_ticks)}, long={shown(long_ticks)})")
        if not 0 < short_ticks < long_ticks:
            raise ConfigError(
                f"short_ticks must be positive and < long_ticks "
                f"(got short={short_ticks}, long={long_ticks})")
        return super().__new__(cls, short_ticks, long_ticks)


def timer_outputs(cfg: TimerConfig, count: int) -> tuple[int, int]:
    """Level outputs (ts, tl) for the current count; tl=1 implies ts=1."""
    ts = 1 if count >= cfg.short_ticks else 0
    tl = 1 if count >= cfg.long_ticks else 0
    return ts, tl


def timer_commit(cfg: TimerConfig, count: int, st: int) -> int:
    """The count after one clock: restart on st, otherwise count up, saturating."""
    return 0 if st else min(count + 1, cfg.long_ticks)
