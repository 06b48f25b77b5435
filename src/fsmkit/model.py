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


def value_type(cls):
    """Class decorator for a namedtuple: equal only to a value of the same type,
    since a plain tuple compares by its items alone (`And(a, b) == Or(a, b)`
    would hold), and hashed as its tuple, so equal values hash equal.  A class
    validating in `__new__` also validates what `_replace` builds via `_make`,
    which unpacks a list: an iterator's argument tuple is oversized, then shrunk."""
    # tuple's own `__ne__` compares items; `object.__ne__` inverts `__eq__`.
    cls.__eq__, cls.__ne__, cls.__hash__ = _same_type_eq, object.__ne__, tuple.__hash__
    if "__new__" in vars(cls):
        cls._make = classmethod(lambda cls, iterable: cls(*list(iterable)))
    return cls


# ---------------------------------------------------------------------------
# Guard expressions
# ---------------------------------------------------------------------------

# A Var names an input, as a str; a Const's value is a Bit; the other fields are GuardExprs.
Var = value_type(namedtuple("Var", "name"))
Not = value_type(namedtuple("Not", "operand"))
And = value_type(namedtuple("And", "left right"))
Or = value_type(namedtuple("Or", "left right"))
Const = value_type(namedtuple("Const", "value"))


GuardExpr = Var | Not | And | Or | Const


def eval_guard(expr: GuardExpr, valuation: Mapping[str, int], full: int = 1) -> int:
    """Evaluate a guard under an input valuation, returning 0 or 1; or, with each
    input mapped to its mask over N valuations and `full` = 2^N - 1, its truth table."""
    cls = expr.__class__
    if cls is Var:
        try:
            return valuation[expr.name]
        except KeyError:
            raise StructuralError(f"guard references unknown input '{expr.name}'") from None
    if cls is Not:
        return full ^ eval_guard(expr.operand, valuation, full)
    if cls is And:
        return eval_guard(expr.left, valuation, full) & eval_guard(expr.right, valuation, full)
    if cls is Or:
        return eval_guard(expr.left, valuation, full) | eval_guard(expr.right, valuation, full)
    return full if expr.value else 0


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


def is_int(value: object, least: float = -float("inf"), most: float = float("inf")) -> bool:
    return value.__class__ is int and least <= value <= most  # never a bool or a float


def is_number(value: object) -> bool:  # an int or a float, never a bool
    return value.__class__ is int or value.__class__ is float


def shown(value: object) -> str:  # repr for a refusal message, even of a value too deep
    try:
        return repr(value)
    except RecursionError:
        return f"a {type(value).__name__} nested too deep to show"


def _guard_break(guard: object, reads: set[str], depth: int = 0) -> str | bool | None:
    """None for a guard within MAX_GUARD_DEPTH, names put in `reads`; True for a non-guard part."""
    cls = guard.__class__
    if cls is Var and guard.name.__class__ is str:
        reads.add(guard.name)
    elif cls is Not or cls is And or cls is Or:
        if depth == MAX_GUARD_DEPTH:
            return f"transition guard nests deeper than {MAX_GUARD_DEPTH} levels"
        for operand in guard:  # an operator's fields are its operands
            if why := _guard_break(operand, reads, depth + 1):
                return why
    elif not (cls is Const and is_int(guard.value, 0, 1)):
        return True
    return None


def _refuse(message: str, state: str | None, shape: bool) -> None:
    if shape:
        raise StructuralError(message if state is None else f"state '{state}': {message}")


def check_spec(spec: FsmSpec, report=_refuse) -> list[StateDef] | None:
    """Walk `spec` once, calling report(message, state or None, shape) for each part out of
    shape at any depth (README, "The refusal contract") and, shape False, each unresolved name;
    by default a `StructuralError` for the first.  The states whose guards evaluate, or None."""
    if spec.__class__ is not FsmSpec:
        raise TypeError(f"expected an FsmSpec, got {type(spec).__name__}")
    name, inputs, outputs, pulses, states, initial, reset = spec
    if not (inputs.__class__ is outputs.__class__ is pulses.__class__ is states.__class__ is tuple
            and all(x.__class__ is str for x in (name, initial, *inputs, *outputs, *pulses))
            and (reset is None or reset.__class__ is str)):
        report("a spec's names must be str and its signals and states tuples", None, True)
        return None
    declared: set[str] = set()
    for s in states:
        if s.__class__ is StateDef and s.name.__class__ is str:  # else reported below
            if s.name in declared:
                report(f"duplicate state name '{s.name}'", s.name, False)
            declared.add(s.name)
    seen_signals: set[str] = set()
    for sig in (*inputs, *outputs, *pulses):
        if sig in seen_signals:
            report(f"duplicate signal name '{sig}'", None, False)
        seen_signals.add(sig)
    if initial not in declared:
        report(f"initial state '{initial}' is not declared", None, False)
    if reset is not None and reset not in inputs:
        report(f"reset input '{reset}' is not a declared input", None, False)
    sound, inputs, nothing = [], set(inputs), (None, None, None)
    for s in states:
        state, assigns, transitions = s if s.__class__ is StateDef else nothing
        if not (state.__class__ is str and transitions.__class__ is tuple
                and (assigns.__class__ is dict or isinstance(assigns, Mapping))):
            report("a state must be a StateDef of a str name, a mapping and a tuple", None, True)
            continue
        for out, bit in assigns.items():  # a key that is no str is out of shape too
            if out not in outputs:
                report(f"assignment to unknown output {shown(out)}", state, type(out) is not str)
            if bit.__class__ is not int or bit not in (0, 1):
                report(f"output {shown(out)} assigned non-bit value {shown(bit)}", state, True)
        evaluable = True
        for t in transitions:
            guard, destination, emits = t if t.__class__ is Transition else nothing
            reads: set[str] = set()
            if destination.__class__ is not str or emits.__class__ is not frozenset:
                why = "a transition must name its state and a frozenset of pulses"
            else:
                if destination not in declared:
                    report(f"transition to unknown state '{destination}'", state, False)
                for p in emits:
                    if p not in pulses:
                        report(f"transition emits unknown pulse {shown(p)}", state, type(p) is not str)
                why = _guard_break(guard, reads)
            if why:
                report(f"transition guard is not a guard expression: {shown(guard)}"
                       if why is True else why, state, True)
                evaluable = False
            elif not reads <= inputs:
                for unknown in sorted(reads - inputs):
                    report(f"guard references unknown input '{unknown}'", state, False)
                evaluable = False
        if evaluable:
            sound.append(s)
    return sound


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

OVERLAP = "overlap"
GAP = "gap"
STRUCTURAL = "structural"

# Validation holds a 2^n-bit truth table per guard and up to 2^(n-1) findings per state.
MAX_INPUTS = 16
# At most this many operators on a guard's root-to-leaf path, well within the recursion limit.
MAX_GUARD_DEPTH = 100


# kind is overlap | gap | structural; state and valuation are None where none applies.
Finding = value_type(namedtuple("Finding", "kind state valuation message"))


def validate(spec: FsmSpec) -> tuple[Finding, ...]:
    """Check structure plus guard determinism and exhaustiveness; returns the
    findings (a break in its shape is a structural one); none means the spec is clean.

    Guard coverage is checked on truth tables over every input valuation but
    those with reset high: reset overrides guard matching entirely, so specs
    need not make their guards exclusive with respect to it.
    """
    findings: list[Finding] = []

    def structural(message: str, state: str | None, shape: bool = True) -> None:
        findings.append(Finding(STRUCTURAL, state, None, message))

    sound = check_spec(spec, structural)
    if sound is None:
        return tuple(findings)
    n = len(spec.inputs)
    if n > MAX_INPUTS:
        structural(f"{n} inputs declared; at most {MAX_INPUTS} are supported", None)
        return tuple(findings)

    # Bit v of a table is valuation v in binary, the first input most significant,
    # so input k's mask repeats runs of size >> k+1 zeros then as many ones.
    size = 1 << n
    full = (1 << size) - 1
    masks = {name: full // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run)
             for name, run in zip(spec.inputs, (size >> k + 1 for k in range(n)))}
    care = full ^ masks.get(spec.reset_input, 0)
    # Coverage only makes sense once guards evaluate cleanly.
    for s in sound:
        tables = [eval_guard(t.guard, masks, full) for t in s.transitions]
        one = two = 0  # valuations where at least one, and at least two, guards hold
        for g in tables:
            two |= one & g
            one |= g
        bad = (two | full ^ one) & care  # as a string, bit v at index v
        bad = format(bad, f"0{size}b")[::-1] if bad else ""
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
    return "{" + ", ".join(f"{k}={shown(b)}" for k, b in v.items()) + "}"


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------

def step_spec(
    spec: FsmSpec, current: str, valuation: Mapping[str, Bit],
) -> tuple[str, frozenset[str]]:
    """One synchronous step: next state and the pulses the transition emits.

    Reset, when declared and asserted, dominates: the machine returns to its
    initial state and no pulses fire.  The spec is checked only if a step raises.
    """
    try:
        state = spec.state(current)
        if spec.reset_input is not None and valuation.get(spec.reset_input):
            return spec.initial_state, frozenset()
        matches = [t for t in state.transitions if eval_guard(t.guard, valuation)]
    except (AttributeError, TypeError, RecursionError):
        check_spec(spec)  # else the valuation is out of shape
        raise StructuralError("a valuation must map input names to Bits") from None
    if len(matches) != 1:
        raise ContractViolation(
            f"state '{current}': {len(matches)} transition guards true at "
            f"{_fmt_valuation(dict(valuation))}; validate the spec first")
    t = matches[0]
    return t.destination, t.pulses


def moore_output(spec: FsmSpec, state: str) -> dict[str, Bit]:
    """Output levels of a state; outputs the state does not assign are 0."""
    check_spec(spec)
    s = spec.state(state)
    return {out: s.moore_assignments.get(out, 0) for out in spec.moore_outputs}
