"""Per-layer tracing of fsmkit from outside its source tree.

Each layer function is replaced, for the duration of a traced run, at every
name in the `fsmkit` package that is bound to it: `step_spec` is wrapped
where `sim` and `env` imported it, `validate` where `cli` and `emit` did,
and module attributes such as `sim.simulate` where `cli` reaches them.
Calls, total time and self time (total minus time in wrapped callees) are
accumulated in memory and read out when the run ends.
"""
from __future__ import annotations

import importlib
import sys
import weakref
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (layer name, module, attribute); a dotted attribute names a method.
LAYERS = (
    ("dsl.parse", "fsmkit.dsl", "parse"),
    ("model.validate", "fsmkit.model", "validate"),
    ("model.step_spec", "fsmkit.model", "step_spec"),
    ("model.moore_output", "fsmkit.model", "moore_output"),
    ("timer.timer_outputs", "fsmkit.timer", "timer_outputs"),
    ("timer.timer_commit", "fsmkit.timer", "timer_commit"),
    ("env.bernoulli", "fsmkit.env", "SplitMix64.bernoulli"),
    ("env.run_env", "fsmkit.env", "run_env"),
    ("sim.parse_stimulus", "fsmkit.sim", "parse_stimulus"),
    ("sim.simulate", "fsmkit.sim", "simulate"),
    ("sim.write_vcd", "fsmkit.sim", "write_vcd"),
    ("emit.emit_verilog", "fsmkit.emit", "emit_verilog"),
    ("emit.emit_ucf", "fsmkit.emit", "emit_ucf"),
)


class Tracer:
    """Accumulates calls, total seconds and self seconds per span name."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.records_discarded = 0
        self._child_time: list[float] = []  # one accumulator per open span
        self._returned: list[tuple[weakref.ref, int]] = []

    def wrap(self, name: str, fn):
        calls, total, self_s, stack = self.calls, self.total, self.self_s, self._child_time

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                calls[name] += 1
                total[name] += dt
                self_s[name] += dt - child
                if stack:
                    stack[-1] += dt

        return traced

    def watch_trace(self, result) -> None:
        """Remember the trace `run_env` returned, without keeping it alive."""
        trace = result[1] if isinstance(result, tuple) and len(result) > 1 else None
        records = getattr(trace, "records", None)
        if records:
            self._returned.append((weakref.ref(trace), len(records)))

    def settle(self) -> None:
        """After a command: count records of returned traces nobody kept."""
        self.records_discarded += sum(n for ref, n in self._returned if ref() is None)
        self._returned.clear()


@contextmanager
def installed(tracer: Tracer):
    """Wrap every layer of LAYERS at each name bound to it, then restore."""
    importlib.import_module("fsmkit.cli")
    modules = [m for name, m in list(sys.modules.items())
               if name == "fsmkit" or name.startswith("fsmkit.")]
    undo = []
    try:
        for layer, module, attr in LAYERS:
            owner = importlib.import_module(module)
            *cls, attr = attr.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            original = vars(owner)[attr]
            traced = tracer.wrap(layer, original)
            if layer == "env.run_env":
                traced = _watching(tracer, traced)
            sites = [(owner, attr)] + [(m, k) for m in modules for k, v in vars(m).items()
                                       if v is original and m is not owner]
            for obj, key in sites:
                undo.append((obj, key, original))
                setattr(obj, key, traced)
        yield tracer
    finally:
        for obj, key, original in reversed(undo):
            setattr(obj, key, original)


def _watching(tracer: Tracer, fn):
    def run_env(*args, **kwargs):
        result = fn(*args, **kwargs)
        tracer.watch_trace(result)
        return result
    return run_env
