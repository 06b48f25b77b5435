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
128-bit lane per draw; tick t takes draws 2t (north) and 2t+1 (south).
`SplitMix64` stays the sequential definition the blocks are tested against.

A run steps a memo table one level above `sim._ClosedLoop`: a product state
pairs a closed-loop configuration with the two slots' busy bits, and each
(product state, arrival symbol) cell holds the next product state, an event
code and the kernel record.  Arrival ticks, waits and cycle counts change
only on event ticks; every other tick is one lookup.
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator, NamedTuple

from .model import FsmSpec, value_type
from .sim import TickRecord, _ClosedLoop
from .timer import TimerConfig

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
BLOCK_TICKS = 1024  # ticks per block of draws: 2048 lanes, 32 KiB per lane constant


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
    """Constants for a block of 2*ticks 128-bit lanes: a 1, 64 low ones and
    53 low ones in every lane, and i*gamma mod 2**64 in lane i."""
    n = 2 * ticks
    ones = int.from_bytes((b"\x01" + bytes(15)) * n, "little")
    low64 = int.from_bytes((b"\xff" * 8 + bytes(8)) * n, "little")
    steps = int.from_bytes(
        b"".join((i * _GAMMA & _MASK64).to_bytes(16, "little") for i in range(n)), "little")
    return ones, low64, (ones << 53) - ones, steps


# Byte 6 of an even lane holds its own flag (bit 53, value 32: north) beside
# the next lane's (shifted to bit 52, value 16: south).
_SYMBOL = bytes.maketrans(bytes((0, 16, 32, 48)), bytes((0, 1, 2, 3)))


def arrival_blocks(seed: int, p: float, horizon: int) -> Iterator[bytes]:
    """Arrival symbols 2*north + south, one byte per tick, in blocks of
    min(horizon, BLOCK_TICKS) ticks; the last block is cut at the horizon.
    Bit for bit the draws of `SplitMix64(seed).bernoulli(p)`, north first."""
    ticks = min(horizon, BLOCK_TICKS)
    ones, low64, low53, steps = _lanes(ticks)
    # (z >> 11) * 2**-53 < p  iff  z >> 11 < ceil(p * 2**53): scaling by a
    # power of two is exact.  Adding the ceiling to 2**53-1 - (z >> 11) carries
    # into bit 53 exactly when the draw is an arrival.
    below = math.ceil(p * 2 ** 53) * ones
    flags = ones << 53
    for first in range(0, horizon, ticks):
        z = ((seed + (2 * first + 1) * _GAMMA & _MASK64) * ones + steps) & low64
        z = ((z ^ z >> 30) & low64) * _MIX1 & low64
        z = ((z ^ z >> 27) & low64) * _MIX2 & low64
        f = ((z ^ z >> 31) >> 11 & low53 ^ low53) + below & flags
        pairs = (f | f >> 129).to_bytes(32 * ticks, "little")
        yield pairs[6:32 * (horizon - first):32].translate(_SYMBOL)


class _TrafficFields(NamedTuple):
    arrival_prob: float
    seed: int
    horizon: int
    service_rate: int  # vehicles departing per side-road green tick


@value_type
class TrafficModel(_TrafficFields):
    __slots__ = ()

    def __new__(cls, arrival_prob: float, seed: int = 0, horizon: int = 1000,
                service_rate: int = 1) -> TrafficModel:
        if not 0.0 <= arrival_prob <= 1.0:
            raise ValueError(f"arrival_prob must be in [0, 1], got {arrival_prob}")
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        if service_rate < 1:
            raise ValueError(f"service_rate must be >= 1, got {service_rate}")
        return super().__new__(cls, arrival_prob, seed, horizon, service_rate)


@value_type
class Metrics(NamedTuple):
    mean_side_wait: float
    max_side_wait: int
    main_green_share: float
    side_vehicles_served: int
    cycles_completed: int

    def as_record(self, prefix: str = "") -> str:
        """Single-line record: space-separated key=value in field order."""
        body = " ".join(f"{name}={value:.3f}" if isinstance(value, float) else f"{name}={value}"
                        for name, value in zip(self._fields, self))
        return f"{prefix}{body}"

    @classmethod
    def aggregate(cls, runs: Iterable[Metrics]) -> Metrics:
        """Across runs: means of means and shares, maximum of maxima, sums of
        counts.  One pass, summing in run order, so `runs` may be a generator."""
        k = wait = worst = share = served = cycles = 0
        for m in runs:
            k += 1
            wait += m.mean_side_wait
            worst = max(worst, m.max_side_wait)
            share += m.main_green_share
            served += m.side_vehicles_served
            cycles += m.cycles_completed
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


class TrafficTable:
    """Memo table over `_ClosedLoop` plus the sensor slots.  Product state
    4*j + 2*north busy + south busy pairs configuration j with the slots;
    cell 4*P + symbol holds (4 * next P, event code, kernel record) and
    `hits` counts its ticks in the current run.  At most 16 cells per
    configuration.  Cells depend only on (spec, cfg), so runs of one spec
    and cfg may share a table whatever their seeds."""

    def __init__(self, spec: FsmSpec, cfg: TimerConfig):
        self.loop = _ClosedLoop(spec, cfg)
        self.initial = spec.initial_state
        self.cells: list[tuple[int, int, TickRecord] | None] = [None] * 16
        self.hits: list[int] = []  # per run: `run_env` sets it

    def fill(self, k: int) -> tuple[int, int, TickRecord]:
        loop = self.loop
        j, busy, symbol = k >> 4, k >> 2 & 3, k & 3
        event, busy = symbol & ~busy, busy | symbol
        kk = 4 * j + (2 if busy else 0)  # c is the OR of the slots; reset stays low
        nxt, record = loop.cells[kk] or loop.fill(kk)
        if busy and record.moore.get("sg"):
            event, busy = event | _SERVE, 0
        if record.state != self.initial and loop.configs[nxt][0] == self.initial:
            event |= _CYCLE
        grow = 16 * len(loop.configs) - len(self.cells)
        self.cells.extend((None,) * grow)
        self.hits.extend((0,) * grow)
        cell = self.cells[k] = (16 * nxt + 4 * busy, event, record)
        return cell


def run_env(spec: FsmSpec, cfg: TimerConfig, model: TrafficModel,
            table: TrafficTable | None = None) -> Metrics:
    """Metrics of one run against the traffic model; builds no trace.  Per
    tick: arrivals (north drawn before south), sensor read, the kernel tick,
    then side-green service, which cannot change c.  Deterministic for fixed
    (seed, model, cfg).  Runs given one `TrafficTable(spec, cfg)` fill each of
    its cells once."""
    if table is None:
        table = TrafficTable(spec, cfg)
    elif table.loop.spec is not spec or table.loop.cfg != cfg:
        raise ValueError("the traffic table was built for another spec or timer config")
    cells, fill = table.cells, table.fill
    hits = table.hits = [0] * len(cells)  # this run's ticks only; `fill` extends it
    horizon, rate = model.horizon, model.service_rate
    at = 0  # 4 * product state
    north: int | None = None  # arrival tick of the vehicle in each slot
    south: int | None = None
    served = total = worst = cycles = 0

    symbols = chain.from_iterable(arrival_blocks(model.seed, model.arrival_prob, horizon))
    for tick, symbol in enumerate(symbols):
        k = at + symbol
        at, event, _ = cells[k] or fill(k)
        hits[k] += 1
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

    green_main = sum(n for cell, n in zip(cells, hits) if n and cell[2].moore.get("mg"))
    return Metrics(
        mean_side_wait=(total / served) if served else 0.0,
        max_side_wait=worst,
        main_green_share=green_main / horizon,
        side_vehicles_served=served,
        cycles_completed=cycles,
    )
