import pytest
from hypothesis import given, strategies as st

from fsmkit.timer import TimerConfig, timer_commit, timer_outputs

CFG = TimerConfig(short_ticks=4, long_ticks=16)


class TestConfig:
    def test_defaults(self):
        cfg = TimerConfig()
        assert (cfg.short_ticks, cfg.long_ticks) == (4, 16)

    @pytest.mark.parametrize("short,long", [(16, 4), (4, 4), (0, 16), (-1, 3)])
    def test_rejects_bad_thresholds(self, short, long):
        with pytest.raises(ValueError):
            TimerConfig(short_ticks=short, long_ticks=long)

    def test_rejection_message(self):
        message = r"^short_ticks must be positive and < long_ticks \(got short=5, long=5\)$"
        with pytest.raises(ValueError, match=message):
            TimerConfig(5, 5)
        with pytest.raises(ValueError, match=message):
            CFG._replace(short_ticks=5, long_ticks=5)

    def test_is_an_immutable_value(self):
        assert CFG._replace(long_ticks=20) == TimerConfig(4, 20)
        assert CFG == TimerConfig() and hash(CFG) == hash(TimerConfig())
        assert CFG != (4, 16) and (4, 16) != CFG
        with pytest.raises(AttributeError):
            CFG.short_ticks = 5


class TestOutputs:
    def test_fresh_timer(self):
        assert timer_outputs(CFG, 0) == (0, 0)

    def test_short_boundary(self):
        assert timer_outputs(CFG, 3) == (0, 0)
        assert timer_outputs(CFG, 4) == (1, 0)

    def test_long_boundary(self):
        assert timer_outputs(CFG, 15) == (1, 0)
        assert timer_outputs(CFG, 16) == (1, 1)


class TestCommit:
    def test_restart(self):
        assert timer_commit(CFG, 7, st=1) == 0

    def test_saturation(self):
        assert timer_commit(CFG, 16, st=0) == 16

    def test_two_step_trace_reaches_short_expiry(self):
        t = timer_commit(CFG, 3, st=0)
        assert t == 4
        assert timer_outputs(CFG, t) == (1, 0)


@given(st.integers(0, 16), st.integers(1, 40))
def test_monotone_while_running(start, steps):
    count = start
    prev = timer_outputs(CFG, count)
    for _ in range(steps):
        count = timer_commit(CFG, count, st=0)
        cur = timer_outputs(CFG, count)
        assert cur[0] >= prev[0] and cur[1] >= prev[1]
        prev = cur


@given(st.lists(st.integers(0, 1), min_size=1, max_size=100))
def test_ordering_restart_and_bound(st_sequence):
    count = 0
    for pulse in st_sequence:
        count = timer_commit(CFG, count, pulse)
        ts, tl = timer_outputs(CFG, count)
        assert not (tl and not ts)  # long expiry implies short expiry
        assert 0 <= count <= CFG.long_ticks
        if pulse:
            assert (count, ts, tl) == (0, 0, 0)
