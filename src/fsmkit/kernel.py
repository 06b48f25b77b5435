"""The closed-loop transition kernel and its memo table.

Every run is closed-loop: it couples a machine whose inputs are exactly
{reset, c, ts, tl} to the interval timer.  c and reset come from outside,
ts/tl come from the counter, and a pulse named `st` restarts it.

Per-tick order, fixed and relied on by every downstream consumer:
  1. read the external inputs for this tick;
  2. compute ts/tl from the timer count accumulated so far;
  3. evaluate the transition step (next state, pulses);
  4. record the tick with the CURRENT state's Moore outputs;
  5. commit: state := next, timer advances (restarting on st).
`closed_loop_tick` is the one implementation of steps 2-5, evaluated once per
reached (configuration, input) cell of a `_ClosedLoop` table; `sim.simulate`,
`sim.explore_reachable`, `env.run_env` and `fsmkit simulate` supply step 1
and read it, the stimulus runs through `_ClosedLoop.walk`, which reads each
run off its first key's path: the cell keys of the longest run from that key,
stepped only past the runs before.  This module holds only that part, so
`bench` loads no stimulus parser or renderer.
Moore outputs are registered, so a transition's new lights appear one tick
after its guard fires.
"""
from __future__ import annotations

from collections import namedtuple

from .model import Bit, FsmError, FsmSpec, moore_output, step_spec, value_type
from .timer import TimerConfig, timer_commit, timer_outputs

CLOSED_LOOP_INPUTS = frozenset({"reset", "c", "ts", "tl"})
START_PULSE = "st"


class SimError(FsmError):
    """Configuration or stimulus problem detected before tick 0."""


@value_type
class TickRecord(namedtuple("TickRecord", "state inputs moore pulses timer_count")):
    """One clock of a run; its tick is its index in what `sim.simulate` returns.
    `inputs` and `moore` map signal names to Bits, `pulses` a frozenset of names."""
    __slots__ = ()

    @property
    def st(self) -> Bit:
        return 1 if START_PULSE in self.pulses else 0


def closed_loop_tick(spec: FsmSpec, cfg: TimerConfig, state: str, count: int,
                     c: Bit, reset: Bit) -> tuple[TickRecord, str, int]:
    """One closed-loop clock, steps 2-5 above.  Returns the tick's record, the
    next state and the next timer count."""
    ts, tl = timer_outputs(cfg, count)
    valuation = {"reset": reset, "c": c, "ts": ts, "tl": tl}
    next_state, pulses = step_spec(spec, state, valuation)
    record = TickRecord(state, valuation, moore_output(spec, state), pulses, count)
    return record, next_state, timer_commit(cfg, count, record.st)


class _ClosedLoop:
    """Memo table over `closed_loop_tick` for one run.  Configuration i is the
    i-th (state, timer count) reached; cell 4*i + 2*c + reset holds (next id,
    kernel record), filled on its first hit.  `cells` only grows in place, so
    callers may hold it; a record is shared by all ticks of its cell and read-only."""

    def __init__(self, spec: FsmSpec, cfg: TimerConfig):
        if sorted(spec.inputs) != sorted(CLOSED_LOOP_INPUTS):  # refuses an input listed twice
            raise SimError(
                f"closed-loop simulation needs inputs exactly "
                f"{sorted(CLOSED_LOOP_INPUTS)}, spec '{spec.name}' has {list(spec.inputs)}")
        self.spec, self.cfg = spec, cfg
        self.configs: list[tuple[str, int]] = [(spec.initial_state, 0)]
        self.ids = {self.configs[0]: 0}
        self.cells: list[tuple[int, TickRecord] | None] = [None] * 4

    def fill(self, k: int) -> tuple[int, TickRecord]:
        record, nxt, count = closed_loop_tick(
            self.spec, self.cfg, *self.configs[k >> 2], k >> 1 & 1, k & 1)
        config = (nxt, count)
        if config not in self.ids:
            self.ids[config] = len(self.configs)
            self.configs.append(config)
            self.cells.extend((None,) * 4)
        cell = self.cells[k] = (self.ids[config], record)
        return cell

    def walk(self, runs: tuple[tuple[Bit, Bit, int], ...]
             ) -> tuple[dict[int, TickRecord], list[list[int]]]:
        """The runs from the initial configuration as (records, paths): run r's
        ticks have the cell keys `paths[r][:n]`, n its length, and key k the
        record `records[k]`, the one stored in the cell.  On a fresh table
        `records` holds just the ticks' cells.

        Within a run (c, reset) is fixed, so a key is a function of the key
        before it, and two runs from one first key agree on their common
        length.  So the runs from one first key share one path, a list that
        holds the keys of the longest run from it; a run steps its path only
        past its earlier length, never ahead of a run that needs the keys."""
        cells, fill = self.cells, self.fill
        paths: list[list[int]] = []
        path_from: dict[int, list[int]] = {}  # first key -> its path
        i = 0
        for c, reset, n in runs:
            x = 2 * c + reset
            k = 4 * i + x
            path = path_from.get(k)
            if path is None:
                path = path_from[k] = [k]
            if n > len(path):
                append, k = path.append, path[-1]
                for _ in range(n - len(path)):
                    k = 4 * (cells[k] or fill(k))[0] + x
                    append(k)
            paths.append(path)
            k = path[n - 1]
            i = (cells[k] or fill(k))[0]
        return {k: cell[1] for k, cell in enumerate(cells) if cell}, paths
