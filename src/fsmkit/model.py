"""In-memory model of clocked Moore machines with guarded transition pulses.

A machine is a set of states, each carrying fixed output levels (Moore
outputs) and an ordered list of guarded transitions.  Transitions may emit
one-cycle pulses while they fire, which is how timer restarts are expressed.
Everything here is immutable and purely functional; validation and stepping
never mutate the spec.  The value types are `collections.namedtuple`s marked
`value_type`: equal only to values of their own type, and copied with a
changed field by `_replace`.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from types import MappingProxyType

Bit = int  # the int 0 or 1: a bool or a float is not a Bit


class FsmError(Exception):
    """Base of every error fsmkit raises for input it refuses."""


class ConfigError(FsmError, ValueError):
    """A configuration value out of range or of the wrong type, as a timer
    threshold, a traffic rate or a seed count; also a `ValueError`, so that
    callers catching that still catch it."""


class StructuralError(FsmError):
    """A name or reference does not resolve against the spec."""


class ContractViolation(FsmError):
    """An operation was applied to a spec that breaks its preconditions,
    e.g. stepping an unvalidated machine whose guards overlap."""


def _same_type_eq(self, other: object) -> bool:
    return type(other) is type(self) and tuple.__eq__(self, other)


def _same_type_ne(self, other: object) -> bool:
    return not _same_type_eq(self, other)


def value_type(cls):
    """Class decorator for a namedtuple: equal only to a value of the same type,
    since a plain tuple compares by its items alone (`And(a, b) == Or(a, b)`
    would hold), and hashed as its tuple, so equal values hash equal.  A class
    validating in `__new__` also validates what `_replace` builds via `_make`,
    which unpacks a list: an iterator's argument tuple is oversized, then shrunk."""
    cls.__eq__, cls.__ne__, cls.__hash__ = _same_type_eq, _same_type_ne, tuple.__hash__
    if "__new__" in vars(cls):
        cls._make = classmethod(lambda cls, iterable: cls(*list(iterable)))
    return cls


# ---------------------------------------------------------------------------
# Guard expressions
# ---------------------------------------------------------------------------

# A Var names an input; a Const's value is a Bit; the other fields are GuardExprs.
Var = value_type(namedtuple("Var", "name"))
Not = value_type(namedtuple("Not", "operand"))
And = value_type(namedtuple("And", "left right"))
Or = value_type(namedtuple("Or", "left right"))
Const = value_type(namedtuple("Const", "value"))


GuardExpr = Var | Not | And | Or | Const


def eval_guard(expr: GuardExpr, valuation: Mapping[str, int], full: int = 1) -> int:
    """Evaluate a guard under an input valuation, returning 0 or 1; or, with each
    input mapped to its mask over N valuations and `full` = 2^N - 1, its truth table."""
    if isinstance(expr, Var):
        try:
            return valuation[expr.name]
        except KeyError:
            raise StructuralError(f"guard references unknown input '{expr.name}'") from None
    if isinstance(expr, Not):
        return full ^ eval_guard(expr.operand, valuation, full)
    if isinstance(expr, And):
        return eval_guard(expr.left, valuation, full) & eval_guard(expr.right, valuation, full)
    if isinstance(expr, Or):
        return eval_guard(expr.left, valuation, full) | eval_guard(expr.right, valuation, full)
    if isinstance(expr, Const):
        return full if expr.value else 0
    raise TypeError(f"not a guard expression: {expr!r}")


def guard_variables(expr: GuardExpr) -> set[str]:
    """Names of all inputs referenced by a guard; a node that is not a `Var`
    naming a str, a `Not`, an `And`, an `Or` or a `Const` is a `StructuralError`."""
    if isinstance(expr, Var) and isinstance(expr.name, str):
        return {expr.name}
    if isinstance(expr, Not):
        return guard_variables(expr.operand)
    if isinstance(expr, (And, Or)):
        return guard_variables(expr.left) | guard_variables(expr.right)
    if isinstance(expr, Const):
        return set()
    raise StructuralError(f"not a guard expression: {expr!r}")


# ---------------------------------------------------------------------------
# Machine structure
# ---------------------------------------------------------------------------

# A transition fires `pulses`, a frozenset of pulse names, while its guard holds.
Transition = value_type(namedtuple("Transition", "guard destination pulses",
                                   defaults=(frozenset(),)))
# moore_assignments maps outputs to Bits; the default is read-only, so sharing it is safe.
StateDef = value_type(namedtuple("StateDef", "name moore_assignments transitions",
                                 defaults=(MappingProxyType({}), ())))


@value_type
class FsmSpec(namedtuple("FsmSpec", "name inputs moore_outputs pulse_outputs states "
                                    "initial_state reset_input", defaults=(None,))):
    """Signal names are str tuples, `states` a tuple of StateDefs; the
    reset input, if any, returns the machine to `initial_state`."""
    __slots__ = ()

    def state(self, name: str) -> StateDef:
        for s in self.states:
            if s.name == name:
                return s
        raise StructuralError(f"unknown state '{name}'")

    def state_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.states)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

OVERLAP = "overlap"
GAP = "gap"
STRUCTURAL = "structural"

# Validation holds a 2^n-bit truth table per guard and up to 2^(n-1) findings per state.
MAX_INPUTS = 16


# kind is overlap | gap | structural; state and valuation are None where none applies.
Finding = value_type(namedtuple("Finding", "kind state valuation message"))


def validate(spec: FsmSpec) -> tuple[Finding, ...]:
    """Check structure plus guard determinism and exhaustiveness; returns the
    findings, and an empty tuple means the spec is clean.

    Guard coverage is checked on truth tables over every input valuation but
    those with reset high: reset overrides guard matching entirely, so specs
    need not make their guards exclusive with respect to it.
    """
    findings: list[Finding] = []

    def structural(message: str, state: str | None = None) -> None:
        findings.append(Finding(STRUCTURAL, state, None, message))

    seen_states: set[str] = set()
    for s in spec.states:
        if s.name in seen_states:
            structural(f"duplicate state name '{s.name}'", s.name)
        seen_states.add(s.name)

    seen_signals: set[str] = set()
    for sig in (*spec.inputs, *spec.moore_outputs, *spec.pulse_outputs):
        if sig in seen_signals:
            structural(f"duplicate signal name '{sig}'")
        seen_signals.add(sig)

    declared = set(spec.state_names())
    if spec.initial_state not in declared:
        structural(f"initial state '{spec.initial_state}' is not declared")
    if spec.reset_input is not None and spec.reset_input not in spec.inputs:
        structural(f"reset input '{spec.reset_input}' is not a declared input")

    inputs = set(spec.inputs)
    broken_guard_states: set[str] = set()
    for s in spec.states:
        for out, bit in s.moore_assignments.items():
            if out not in spec.moore_outputs:
                structural(f"assignment to unknown output '{out}'", s.name)
            if type(bit) is not int or bit not in (0, 1):
                structural(f"output '{out}' assigned non-bit value {bit!r}", s.name)
        for t in s.transitions:
            if t.destination not in declared:
                structural(f"transition to unknown state '{t.destination}'", s.name)
            for p in t.pulses:
                if p not in spec.pulse_outputs:
                    structural(f"transition emits unknown pulse '{p}'", s.name)
            try:
                unknown = guard_variables(t.guard) - inputs
            except StructuralError:
                broken_guard_states.add(s.name)
                structural(f"transition guard is not a guard expression: {t.guard!r}", s.name)
                continue
            if unknown:
                broken_guard_states.add(s.name)
                for name in sorted(unknown):
                    structural(f"guard references unknown input '{name}'", s.name)
    n = len(spec.inputs)
    if n > MAX_INPUTS:
        structural(f"{n} inputs declared; at most {MAX_INPUTS} are supported")
        return tuple(findings)

    # Bit v of a table is valuation v in binary, the first input most significant,
    # so input k's mask repeats runs of size >> k+1 zeros then as many ones.
    size = 1 << n
    full = (1 << size) - 1
    masks = {name: full // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run)
             for name, run in zip(spec.inputs, (size >> k + 1 for k in range(n)))}
    care = full ^ masks.get(spec.reset_input, 0)
    # Coverage only makes sense once guards evaluate cleanly.
    for s in spec.states:
        if s.name in broken_guard_states:
            continue
        tables = [eval_guard(t.guard, masks, full) for t in s.transitions]
        one = two = 0  # valuations where at least one, and at least two, guards hold
        for g in tables:
            two |= one & g
            one |= g
        bad = format((two | full ^ one) & care, f"0{size}b")[::-1]
        v = bad.find("1")
        while v >= 0:
            valuation = dict(zip(spec.inputs, map(int, format(v, f"0{n}b"))))
            hits = sum(g >> v & 1 for g in tables)
            kind, what = (OVERLAP, f"{hits} guards") if hits > 1 else (GAP, "no guard")
            findings.append(Finding(kind, s.name, valuation,
                                    f"state '{s.name}': {what} true at {_fmt_valuation(valuation)}"))
            v = bad.find("1", v + 1)

    return tuple(findings)


def _fmt_valuation(v: Mapping[str, Bit]) -> str:
    return "{" + ", ".join(f"{k}={b}" for k, b in v.items()) + "}"


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------

def step_spec(
    spec: FsmSpec, current: str, valuation: Mapping[str, Bit],
) -> tuple[str, frozenset[str]]:
    """One synchronous step: next state and the pulses the transition emits.

    Reset, when declared and asserted, dominates: the machine returns to its
    initial state and no pulses fire.
    """
    state = spec.state(current)
    if spec.reset_input is not None and valuation.get(spec.reset_input):
        return spec.initial_state, frozenset()
    matches = [t for t in state.transitions if eval_guard(t.guard, valuation)]
    if len(matches) != 1:
        raise ContractViolation(
            f"state '{current}': {len(matches)} transition guards true at "
            f"{_fmt_valuation(dict(valuation))}; validate the spec first")
    t = matches[0]
    return t.destination, t.pulses


def moore_output(spec: FsmSpec, state: str) -> dict[str, Bit]:
    """Output levels of a state; outputs the state does not assign are 0."""
    s = spec.state(state)
    return {out: s.moore_assignments.get(out, 0) for out in spec.moore_outputs}
