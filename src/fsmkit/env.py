"""Stochastic side-road traffic closing the loop through the sensor.

Each of the two side-road approaches (north, south) has a sensor slot at the
stop line holding at most one waiting vehicle; a Bernoulli arrival is
registered only when that approach's slot is free, which is how a real
presence detector behaves and what keeps waiting times bounded.  The sensor
input c is the OR of both slots.  Vehicles depart oldest-first while the
side-road green is up, accumulating wait = departure tick - arrival tick.

Randomness comes from SplitMix64, a fixed 64-bit generator implemented here
in plain integer arithmetic so runs reproduce bit-for-bit on any platform.
Its draw k is mix64(seed + (k+1)*gamma mod 2**64), a pure function of k, so
`arrival_blocks` computes a block of draws at once in one big int with a
128-bit lane per draw, testing each against p as a carry into bit 64; tick t
takes draws 2t (north) and 2t+1 (south).  `SplitMix64` stays the sequential
definition the blocks are tested against.

A run steps a memo table one level above `kernel._ClosedLoop`: a product
state pairs a closed-loop configuration with the two slots' busy bits, and
each (product state, arrival symbol) cell holds the next product state and
an event code.  Arrival ticks, waits, cycle counts and main-green ticks
change only on event ticks, main green where mg rises or falls; every other
tick is one lookup.  This module loads `kernel`, not `sim`.

`run_seeds`, what `fsmkit bench` runs, spreads one model's seeds on one
table round-robin over the usable CPUs, in forked workers that each fill
their own copy of it, and yields their `Metrics` in seed order, equal to a
one-process run's.
"""
from __future__ import annotations

import marshal
import math
import os
from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import lru_cache
from itertools import chain

from .kernel import _ClosedLoop
from .model import ConfigError, FsmSpec, moore_output, value_type
from .timer import TimerConfig

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
BLOCK_TICKS = 1024  # ticks per block of draws: 2048 lanes, 32 KiB per lane constant
_SIGKILL = 9  # fixed by POSIX; importing `signal` for the name costs about 0.8 ms


class SplitMix64:
    """SplitMix64 sequence generator (Steele/Lea/Flood's mixing constants)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def bernoulli(self, p: float) -> int:
        # Top 53 bits give a uniform double in [0, 1).
        return 1 if (self.next_u64() >> 11) * (2.0 ** -53) < p else 0


@lru_cache(maxsize=1)
def _lanes(ticks: int) -> tuple[int, int, int, int]:
    """Constants for a block of 2*ticks 128-bit lanes: a 1 and 64 low ones in
    every lane, i*gamma mod 2**64 in lane i, and the stride from one block's
    counters to the next's, 2*ticks*gamma mod 2**64, in every lane."""
    n = 2 * ticks
    ones = int.from_bytes((b"\x01" + bytes(15)) * n, "little")
    steps = int.from_bytes(
        b"".join((i * _GAMMA & _MASK64).to_bytes(16, "little") for i in range(n)), "little")
    return ones, (ones << 64) - ones, steps, (n * _GAMMA & _MASK64) * ones


# Byte 8 of an even lane holds its own carry (bit 64, value 1: no north
# arrival) beside the next lane's (shifted to bit 65, value 2: no south one).
_SYMBOL = bytes.maketrans(bytes((0, 1, 2, 3)), bytes((3, 1, 2, 0)))


def arrival_blocks(seed: int, p: float, horizon: int) -> Iterator[bytes]:
    """Arrival symbols 2*north + south, one byte per tick, in blocks of
    min(horizon, BLOCK_TICKS) ticks; the last block is cut at the horizon.
    Bit for bit the draws of `SplitMix64(seed).bernoulli(p)`, north first."""
    ticks = min(horizon, BLOCK_TICKS)
    ones, low64, steps, stride = _lanes(ticks)
    # (z >> 11) * 2**-53 < p  iff  z < ceil(p * 2**53) << 11: scaling by a power
    # of two is exact.  Adding 2**64 minus that bound to z carries into bit 64
    # exactly when the draw is not an arrival; bits 64-96 of every lane are 0
    # before the add, so the carry stops there.
    above = ((1 << 64) - (math.ceil(p * 2 ** 53) << 11)) * ones
    carries = ones << 64
    # The counters of the block before the first: each block adds the stride.
    count = ((seed + (1 - 2 * ticks) * _GAMMA & _MASK64) * ones + steps) & low64
    for first in range(0, horizon, ticks):
        count = count + stride & low64
        z = ((count ^ count >> 30) & low64) * _MIX1 & low64
        z = ((z ^ z >> 27) & low64) * _MIX2 & low64
        f = (z ^ z >> 31) + above & carries
        pairs = (f | f >> 127).to_bytes(32 * ticks, "little")
        yield pairs[8:32 * (horizon - first):32].translate(_SYMBOL)


@value_type
class TrafficModel(namedtuple("TrafficModel", "arrival_prob seed horizon service_rate")):
    """service_rate: vehicles departing per side-road green tick."""
    __slots__ = ()

    def __new__(cls, arrival_prob: float, seed: int = 0, horizon: int = 1000,
                service_rate: int = 1) -> TrafficModel:
        # `__class__` refuses a bool, and a float for an int, as `Stimulus` does for its bits.
        if arrival_prob.__class__ not in (int, float):
            raise ConfigError(f"arrival_prob must be an int or a float, got {arrival_prob!r}")
        for name, value in ("seed", seed), ("horizon", horizon), ("service_rate", service_rate):
            if value.__class__ is not int:
                raise ConfigError(f"{name} must be an int, got {value!r}")
        if not 0.0 <= arrival_prob <= 1.0:
            raise ConfigError(f"arrival_prob must be in [0, 1], got {arrival_prob}")
        if horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {horizon}")
        if service_rate < 1:
            raise ConfigError(f"service_rate must be >= 1, got {service_rate}")
        return super().__new__(cls, arrival_prob, seed, horizon, service_rate)


@value_type
class Metrics(namedtuple("Metrics", "mean_side_wait max_side_wait main_green_share "
                                    "side_vehicles_served cycles_completed")):
    """The mean wait and the green share are floats, the rest ints."""
    __slots__ = ()

    def as_record(self, prefix: str = "") -> str:
        """Single-line record: space-separated key=value in field order."""
        body = " ".join(f"{name}={value:.3f}" if isinstance(value, float) else f"{name}={value}"
                        for name, value in zip(self._fields, self))
        return f"{prefix}{body}"

    @classmethod
    def aggregate(cls, runs: Iterable[Metrics]) -> Metrics:
        """Across runs: means of means and shares, maximum of maxima, sums of
        counts.  One pass, summing in run order, so `runs` may be a generator;
        no runs at all is a `ConfigError`."""
        k = wait = worst = share = served = cycles = 0
        for m in runs:
            k += 1
            wait += m.mean_side_wait
            worst = max(worst, m.max_side_wait)
            share += m.main_green_share
            served += m.side_vehicles_served
            cycles += m.cycles_completed
        if not k:
            raise ConfigError("aggregate needs at least one run, got none")
        return cls(
            mean_side_wait=wait / k,
            max_side_wait=worst,
            main_green_share=share / k,
            side_vehicles_served=served,
            cycles_completed=cycles,
        )


# Event codes of a product-table cell.  The arrival bits equal the symbol's.
_NORTH, _SOUTH = 2, 1  # a vehicle arrives in that approach's free slot
_SERVE = 4  # side green with a vehicle waiting; the next busy bits are left 0
_CYCLE = 8  # a non-trivial return to the initial state (itlc: S3 -> S0)
_RISE, _FALL = 16, 32  # the next state shows mg and this one does not, or the reverse


class TrafficTable:
    """Memo table over `_ClosedLoop` plus the sensor slots.  Product state
    4*j + 2*north busy + south busy pairs configuration j with the slots;
    cell 4*P + symbol holds (4 * next P, event code).  At most 16 cells per
    configuration.  Cells depend only on (spec, cfg), so runs of one spec
    and cfg may share a table whatever their seeds."""

    def __init__(self, spec: FsmSpec, cfg: TimerConfig):
        self.loop = _ClosedLoop(spec, cfg)
        self.initial = spec.initial_state
        # Whether each state shows mg.  An undeclared state reads as dark here;
        # the kernel refuses it on the tick that starts in it.
        self.main_green = {s.name: bool(moore_output(spec, s.name).get("mg"))
                           for s in spec.states}
        self.cells: list[tuple[int, int] | None] = [None] * 16

    def fill(self, k: int) -> tuple[int, int]:
        loop = self.loop
        j, busy, symbol = k >> 4, k >> 2 & 3, k & 3
        event, busy = symbol & ~busy, busy | symbol
        kk = 4 * j + (2 if busy else 0)  # c is the OR of the slots; reset stays low
        nxt, record = loop.cells[kk] or loop.fill(kk)
        if busy and record.moore.get("sg"):
            event, busy = event | _SERVE, 0
        state = loop.configs[nxt][0]
        if record.state != self.initial and state == self.initial:
            event |= _CYCLE
        green = self.main_green.get(state, False)
        if green != bool(record.moore.get("mg")):
            event |= _RISE if green else _FALL
        self.cells.extend((None,) * (16 * len(loop.configs) - len(self.cells)))
        cell = self.cells[k] = (16 * nxt + 4 * busy, event)
        return cell


def run_env(table: TrafficTable, model: TrafficModel) -> Metrics:
    """Metrics of one run against the traffic model, stepping the spec and
    timer config of `table`; builds no trace.  Per tick: arrivals (north drawn
    before south), sensor read, the kernel tick, then side-green service,
    which cannot change c.  Deterministic for fixed (table, model).  Runs
    given one table fill each of its cells once."""
    cells, fill = table.cells, table.fill
    horizon, rate = model.horizon, model.service_rate
    at = 0  # 4 * product state
    north: int | None = None  # arrival tick of the vehicle in each slot
    south: int | None = None
    served = total = worst = cycles = 0
    green = 0  # main-green ticks: minus each green stretch's start, plus its end

    symbols = chain.from_iterable(arrival_blocks(model.seed, model.arrival_prob, horizon))
    for tick, symbol in enumerate(symbols):
        at, event = cells[at + symbol] or fill(at + symbol)
        if event:
            if event & _NORTH:
                north = tick
            if event & _SOUTH:
                south = tick
            if event & _SERVE:
                for _ in range(rate):
                    # Oldest arrival first; north wins ties by draw order.
                    if north is not None and (south is None or north <= south):
                        wait, north = tick - north, None
                    elif south is not None:
                        wait, south = tick - south, None
                    else:
                        break
                    served, total, worst = served + 1, total + wait, max(worst, wait)
                at += (8 if north is not None else 0) + (4 if south is not None else 0)
            if event & _CYCLE:
                cycles += 1
            if event & _RISE:
                green -= tick + 1
            elif event & _FALL:
                green += tick + 1
    if table.main_green.get(table.loop.configs[at >> 4][0]):
        green += horizon  # the last stretch is still green
    return Metrics(
        mean_side_wait=(total / served) if served else 0.0,
        max_side_wait=worst,
        main_green_share=green / horizon,
        side_vehicles_served=served,
        cycles_completed=cycles,
    )


def run_seeds(table: TrafficTable, model: TrafficModel, seeds: int) -> Iterator[Metrics]:
    """The Metrics of seeds 0 .. seeds-1 of `model` (its own seed unused) on
    `table`, in seed order, from J = min(seeds, usable CPUs) processes: forked
    worker j (0 < j < J) runs seeds j, j + J, ..., and this process runs seeds
    0, J, ... and reads each other seed's from its worker when that seed's turn
    comes.  On the first `next()`, a seed count that is not an int (a bool is
    not) or is below 1 raises `ConfigError` before any fork.  A worker that
    stops early (an error in a run, or killed), or gets no pipe or process,
    leaves the rest of its seeds to this process, so a run's error raises here
    as in a one-process run.  J is 1 where there is no fork.  Workers are
    forked, not spawned: a fresh interpreter costs more than the runs it would
    take over, and fsmkit starts no threads.  Closing the iterator, or running
    it to its end, reaps every worker, killing it first if it still runs."""
    if seeds.__class__ is not int:  # as `TrafficModel` checks its int fields
        raise ConfigError(f"seeds must be an int, got {seeds!r}")
    if seeds < 1:
        raise ConfigError(f"seeds must be >= 1, got {seeds}")
    _lanes(min(model.horizon, BLOCK_TICKS))  # built once, shared with the workers

    def run(seed: int) -> Metrics:
        return run_env(table, model._replace(seed=seed))

    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    jobs = min(seeds, cpus) if hasattr(os, "fork") else 1
    # (pid, reader) of process j.  Seeds whose reader is None (this process, a
    # worker with no pipe) or at its end (a worker stopped or never forked) run here.
    workers = [(None, None)]
    try:
        for j in range(1, jobs):
            try:
                read, write = os.pipe()
            except OSError:  # no descriptor to spare
                workers.append((None, None))
                continue
            try:
                pid = os.fork()
            except OSError:  # no process to spare
                pid = None
            if pid == 0:  # the worker: it writes only its records, and never returns
                try:
                    for seed in range(j, seeds, jobs):  # a record is one atomic pipe write
                        os.write(write, marshal.dumps(tuple(run(seed))))
                finally:
                    os._exit(0)
            os.close(write)
            workers.append((pid, open(read, "rb")))
        for seed in range(seeds):
            _, reader = workers[seed % jobs]
            try:
                metrics = Metrics._make(marshal.load(reader)) if reader else None
            except EOFError:
                metrics = None
            yield metrics or run(seed)
    finally:
        for pid, reader in workers:
            try:  # kill a worker only while it is ours and running, then reap it
                if pid and os.waitpid(pid, os.WNOHANG)[0] == 0:
                    os.kill(pid, _SIGKILL)
                    os.waitpid(pid, 0)
            except (ChildProcessError, ProcessLookupError):  # SIGCHLD ignored: reaped already
                pass
            if reader:
                reader.close()
