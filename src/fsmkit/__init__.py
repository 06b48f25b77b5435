"""fsmkit: clocked Moore machines with transition pulses.

Define machines in the `.fsm` text format (or directly as FsmSpec values),
validate guard determinism exhaustively, simulate them cycle-accurately
against the bundled interval timer, render VCD waveforms, and emit
synthesizable Verilog plus UCF pin constraints.  The flagship design is a
sensor-driven traffic light controller shipped in `designs/itlc.fsm`.
"""
from .model import (
    And, Const, ContractViolation, Finding, FsmError, FsmSpec, GuardExpr, Not,
    Or, StateDef, StructuralError, Transition, Var,
    eval_guard, moore_output, step_spec, validate,
)
from .dsl import ParseError, ParseFailure, SourceSpan, parse, serialize
from .timer import TimerConfig, timer_commit, timer_outputs
from .sim import (
    SimError, Stimulus, StimulusError, TickRecord, Trace, explore_reachable,
    parse_stimulus, simulate, write_vcd,
)
from .env import Metrics, TrafficModel, run_env, run_env_detailed
from .emit import EmitError, emit_ucf, emit_verilog, parse_pin_file

__version__ = "0.1.0"

__all__ = [
    "And", "Const", "ContractViolation", "EmitError", "Finding",
    "FsmError", "FsmSpec", "GuardExpr", "Metrics", "Not", "Or",
    "ParseError", "ParseFailure", "SimError", "SourceSpan", "StateDef",
    "Stimulus", "StimulusError", "StructuralError", "TickRecord",
    "TimerConfig", "Trace", "TrafficModel", "Transition", "Var", "emit_ucf",
    "emit_verilog", "eval_guard", "explore_reachable", "moore_output",
    "parse", "parse_pin_file", "parse_stimulus", "run_env",
    "run_env_detailed", "serialize", "simulate", "step_spec", "timer_commit",
    "timer_outputs", "validate", "write_vcd",
]
