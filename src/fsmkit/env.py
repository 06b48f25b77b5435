"""Stochastic side-road traffic closing the loop through the sensor.

Each of the two side-road approaches (north, south) has a sensor slot at the
stop line holding at most one waiting vehicle; a Bernoulli arrival is
registered only when that approach's slot is free, which is how a real
presence detector behaves and what keeps waiting times bounded.  The sensor
input c is the OR of both slots.  Vehicles depart oldest-first while the
side-road green is up, accumulating wait = departure tick - arrival tick.

Randomness comes from SplitMix64, a fixed 64-bit generator implemented here
in plain integer arithmetic so runs reproduce bit-for-bit on any platform.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

from .model import FsmSpec
from .sim import TickRecord, Trace, _ClosedLoop
from .timer import TimerConfig

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 sequence generator (Steele/Lea/Flood's mixing constants)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def bernoulli(self, p: float) -> int:
        # Top 53 bits give a uniform double in [0, 1).
        return 1 if (self.next_u64() >> 11) * (2.0 ** -53) < p else 0


@dataclass(frozen=True)
class TrafficModel:
    arrival_prob: float
    seed: int = 0
    horizon: int = 1000
    service_rate: int = 1  # vehicles departing per side-road green tick

    def __post_init__(self) -> None:
        if not 0.0 <= self.arrival_prob <= 1.0:
            raise ValueError(f"arrival_prob must be in [0, 1], got {self.arrival_prob}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.service_rate < 1:
            raise ValueError(f"service_rate must be >= 1, got {self.service_rate}")


@dataclass(frozen=True)
class Metrics:
    mean_side_wait: float
    max_side_wait: int
    main_green_share: float
    side_vehicles_served: int
    cycles_completed: int

    def as_record(self, prefix: str = "") -> str:
        """Single-line record: space-separated key=value in field order."""
        body = " ".join(f"{f.name}={self._fmt(f.name)}" for f in fields(self))
        return f"{prefix}{body}"

    def _fmt(self, key: str) -> str:
        value = getattr(self, key)
        return f"{value:.3f}" if isinstance(value, float) else str(value)

    @classmethod
    def aggregate(cls, runs: list[Metrics]) -> Metrics:
        """Across runs: means of means and shares, maximum of maxima, sums of counts."""
        k = len(runs)
        return cls(
            mean_side_wait=sum(m.mean_side_wait for m in runs) / k,
            max_side_wait=max(m.max_side_wait for m in runs),
            main_green_share=sum(m.main_green_share for m in runs) / k,
            side_vehicles_served=sum(m.side_vehicles_served for m in runs),
            cycles_completed=sum(m.cycles_completed for m in runs),
        )


@dataclass(frozen=True)
class EnvResult:
    """run_env_detailed output: metrics, trace and the bookkeeping tests lean on."""
    metrics: Metrics
    trace: Trace
    arrivals: int
    served_waits: tuple[int, ...]
    queue_remaining: int


def run_env(spec: FsmSpec, cfg: TimerConfig, model: TrafficModel) -> Metrics:
    """Metrics of one run against the traffic model; builds no trace."""
    return _run(spec, cfg, model, None).metrics


def run_env_detailed(spec: FsmSpec, cfg: TimerConfig, model: TrafficModel) -> EnvResult:
    """The same run as `run_env`, with its trace and bookkeeping."""
    return _run(spec, cfg, model, [])


def _run(spec: FsmSpec, cfg: TimerConfig, model: TrafficModel,
         records: list[TickRecord] | None) -> EnvResult:
    """Per tick: arrivals (north drawn before south), sensor read, the kernel
    tick, then side-green service, which cannot change c.  Deterministic for
    fixed (seed, model, cfg); each tick's record goes to `records` if given."""
    loop = _ClosedLoop(spec, cfg)
    cells, fill, configs = loop.cells, loop.fill, loop.configs
    rng = SplitMix64(model.seed)
    i = 0  # id of the current configuration in the table
    slots: list[int | None] = [None, None]  # [north, south] arrival ticks
    waits: list[int] = []
    arrivals = green_main = cycles = 0

    for tick in range(model.horizon):
        for approach in (0, 1):  # fixed draw order: north then south
            arrived = rng.bernoulli(model.arrival_prob)
            if arrived and slots[approach] is None:
                slots[approach] = tick
                arrivals += 1
        c = 0 if slots[0] is None and slots[1] is None else 1
        k = 4 * i + 2 * c  # reset stays low
        nxt, record = cells[k] or fill(k)
        if records is not None:
            records.append(record)
        if record.moore.get("mg"):
            green_main += 1
        if record.moore.get("sg"):
            # Oldest arrival first; north wins ties by draw order.
            waiting = sorted((a, n) for n, a in enumerate(slots) if a is not None)
            for arrived_at, n in waiting[:model.service_rate]:
                waits.append(tick - arrived_at)
                slots[n] = None
        # A completed cycle is a non-trivial return to the initial state
        # (for the traffic controller: the S3 -> S0 transition).
        if record.state != spec.initial_state and configs[nxt][0] == spec.initial_state:
            cycles += 1
        i = nxt

    metrics = Metrics(
        mean_side_wait=(sum(waits) / len(waits)) if waits else 0.0,
        max_side_wait=max(waits, default=0),
        main_green_share=green_main / model.horizon,
        side_vehicles_served=len(waits),
        cycles_completed=cycles,
    )
    return EnvResult(metrics, Trace(spec, tuple(records or ())), arrivals, tuple(waits),
                     sum(1 for a in slots if a is not None))
