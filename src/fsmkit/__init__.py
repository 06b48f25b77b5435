"""fsmkit: clocked Moore machines with transition pulses.

Define machines in the `.fsm` text format (or directly as FsmSpec values),
validate guard determinism exhaustively, simulate them cycle-accurately
against the bundled interval timer, render VCD waveforms, and emit
synthesizable Verilog plus UCF pin constraints.  The flagship design is a
sensor-driven traffic light controller shipped in `designs/itlc.fsm`.

The names below load their module on first use, so a command imports only
the modules it runs.
"""
import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "model": ("And", "ConfigError", "Const", "ContractViolation", "Finding", "FsmError",
              "FsmSpec", "GuardExpr", "Not", "Or", "StateDef", "StructuralError", "Transition",
              "Var", "eval_guard", "moore_output", "step_spec", "validate"),
    "dsl": ("ParseError", "ParseFailure", "SourceSpan", "parse", "serialize"),
    "timer": ("TimerConfig", "timer_commit", "timer_outputs"),
    "kernel": ("SimError", "TickRecord"),
    "sim": ("Stimulus", "StimulusError", "Trace", "explore_reachable", "parse_stimulus",
            "simulate", "write_vcd"),
    "env": ("Metrics", "TrafficModel", "TrafficTable", "run_env"),
    "emit": ("EmitError", "emit_ucf", "emit_verilog", "parse_pin_file"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups find it without calling this
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
