import copy
import inspect
import random

import pytest
from hypothesis import given, settings, strategies as st

from fsmkit.model import (
    And, Const, ContractViolation, Finding, FsmSpec, GAP, MAX_INPUTS, Not, Or,
    OVERLAP, StateDef, STRUCTURAL, StructuralError, Transition, Var, eval_guard,
    moore_output, step_spec, validate,
)

from conftest import all_valuations, guard_exprs, valid_machines


class TestEvalGuard:
    def test_conjunction_of_expiry_and_sensor(self):
        assert eval_guard(And(Var("tl"), Var("c")), {"tl": 1, "c": 1}) == 1
        assert eval_guard(And(Var("tl"), Var("c")), {"tl": 1, "c": 0}) == 0

    def test_constant_true_ignores_valuation(self):
        assert eval_guard(Const(1), {}) == 1
        assert eval_guard(Const(1), {"x": 0}) == 1

    def test_nested_negation(self):
        expr = Not(Or(Var("c"), Var("ts")))
        assert eval_guard(expr, {"c": 0, "ts": 0, "tl": 1}) == 1
        assert eval_guard(expr, {"c": 1, "ts": 0, "tl": 1}) == 0

    def test_unknown_variable_named_in_error(self):
        with pytest.raises(StructuralError, match="ghost"):
            eval_guard(Var("ghost"), {"c": 1})

    @given(guard_exprs(), st.tuples(*[st.integers(0, 1)] * 3))
    def test_de_morgan_duals(self, expr, bits):
        v = dict(zip(("a", "b", "c"), bits))
        lhs = Not(And(expr, Var("a")))
        rhs = Or(Not(expr), Not(Var("a")))
        assert eval_guard(lhs, v) == eval_guard(rhs, v)
        lhs2 = Not(Or(expr, Var("b")))
        rhs2 = And(Not(expr), Not(Var("b")))
        assert eval_guard(lhs2, v) == eval_guard(rhs2, v)

    @given(guard_exprs())
    def test_truth_table_agrees_with_each_valuation(self, expr):
        valuations = list(all_valuations(("a", "b", "c")))
        masks = {name: sum(v[name] << i for i, v in enumerate(valuations)) for name in "abc"}
        table = eval_guard(expr, masks, (1 << len(valuations)) - 1)
        assert [table >> i & 1 for i in range(len(valuations))] == [
            eval_guard(expr, v) for v in valuations]

    def test_truth_table_names_an_unknown_variable(self):
        with pytest.raises(StructuralError, match="ghost"):
            eval_guard(And(Var("a"), Var("ghost")), {"a": 0b1010}, 0b1111)


def coverage_oracle(spec):
    """Guard coverage findings by evaluating every guard at every valuation
    one at a time, as `validate` did before it worked on truth tables."""
    def fmt(v):
        return "{" + ", ".join(f"{k}={b}" for k, b in v.items()) + "}"
    findings = []
    for s in spec.states:
        for v in all_valuations(spec.inputs):
            if spec.reset_input is not None and v[spec.reset_input]:
                continue
            hits = sum(eval_guard(t.guard, v) for t in s.transitions)
            if hits > 1:
                findings.append(Finding(OVERLAP, s.name, v, f"state '{s.name}': {hits} guards true at {fmt(v)}"))
            elif hits == 0:
                findings.append(Finding(GAP, s.name, v, f"state '{s.name}': no guard true at {fmt(v)}"))
    return findings


@st.composite
def guarded_machines(draw):
    """Structurally valid machines with arbitrary guards, so that states have
    gaps and overlaps; 0 to 4 inputs, a reset or none, states with no
    transitions."""
    names = tuple(f"in{i}" for i in range(draw(st.integers(0, 4))))
    n_states = draw(st.integers(1, 3))
    states = tuple(
        StateDef(f"Q{i}", {}, tuple(
            Transition(draw(guard_exprs(input_names=names, depth=3)),
                       f"Q{draw(st.integers(0, n_states - 1))}")
            for _ in range(draw(st.integers(0, 4)))))
        for i in range(n_states))
    return FsmSpec("m", names, (), (), states, "Q0", draw(st.sampled_from((None, *names))))


def _single_state_spec(transitions):
    return FsmSpec(
        name="m", inputs=("c",), moore_outputs=("y",), pulse_outputs=(),
        states=(StateDef("A", {}, tuple(transitions)),), initial_state="A")


class TestValidate:
    def test_bundled_controller_is_clean(self, itlc_spec):
        assert validate(itlc_spec) == ()

    def test_tautology_self_loop_is_clean(self):
        spec = _single_state_spec([Transition(Const(1), "A")])
        assert validate(spec) == ()

    def test_overlap_reported_with_valuation(self):
        spec = _single_state_spec(
            [Transition(Var("c"), "A"), Transition(Const(1), "A")])
        findings = validate(spec)
        assert [f.kind for f in findings] == [OVERLAP]
        assert findings[0].state == "A"
        assert findings[0].valuation == {"c": 1}

    def test_gap_reported_with_valuation(self):
        spec = _single_state_spec([Transition(Var("c"), "A")])
        findings = validate(spec)
        assert [f.kind for f in findings] == [GAP]
        assert findings[0].valuation == {"c": 0}

    def test_structural_findings(self):
        spec = FsmSpec(
            name="m", inputs=("c", "c"), moore_outputs=("y", "t", "f"),
            pulse_outputs=(),
            states=(
                StateDef("A", {"nope": 1, "y": 2, "t": True, "f": 1.0},
                         (Transition(Var("x"), "B", frozenset({"zap"})),)),
                StateDef("A", {}, (Transition(Const(1), "A"),)),
            ),
            initial_state="Z")
        kinds = {f.kind for f in validate(spec)}
        assert kinds == {STRUCTURAL}
        messages = " | ".join(f.message for f in validate(spec))
        assert "duplicate state name 'A'" in messages
        assert "duplicate signal name 'c'" in messages
        assert "initial state 'Z'" in messages
        assert "unknown state 'B'" in messages
        assert "unknown input 'x'" in messages
        assert "unknown output 'nope'" in messages
        assert "output 'y' assigned non-bit value 2" in messages
        assert "output 't' assigned non-bit value True" in messages
        assert "output 'f' assigned non-bit value 1.0" in messages
        assert "transition emits unknown pulse 'zap'" in messages

    @pytest.mark.parametrize("guard", ["c", And(Var("c"), "x"), None, Var(5)])
    def test_a_guard_that_is_not_an_expression_is_one_structural_finding(self, guard):
        # The state's coverage is not checked: Var("c") alone would leave a gap at c=0.
        spec = _single_state_spec([Transition(guard, "A"), Transition(Var("c"), "A")])
        assert validate(spec) == (Finding(
            STRUCTURAL, "A", None, f"transition guard is not a guard expression: {guard!r}"),)

    def test_reset_valuations_skipped_in_coverage(self):
        # Guards ignore reset entirely; with reset declared the spec is
        # still exhaustive because reset=1 valuations are overridden.
        spec = FsmSpec(
            name="m", inputs=("rst", "c"), moore_outputs=(), pulse_outputs=(),
            states=(StateDef("A", {}, (
                Transition(Var("c"), "A"), Transition(Not(Var("c")), "A"))),),
            initial_state="A", reset_input="rst")
        assert validate(spec) == ()

    @settings(max_examples=300)
    @given(guarded_machines())
    def test_agrees_with_the_per_valuation_oracle(self, spec):
        def rows(findings):
            return [(f.kind, f.state, list(f.valuation.items()), f.message) for f in findings]
        assert rows(validate(spec)) == rows(coverage_oracle(spec))

    def test_one_structural_finding_above_the_input_cap(self):
        names = tuple(f"i{k}" for k in range(MAX_INPUTS + 1))
        # A state with no transitions would have a gap at every valuation.
        spec = FsmSpec("m", names, (), (), (StateDef("A"),), "A")
        assert validate(spec) == (Finding(
            STRUCTURAL, None, None, f"{MAX_INPUTS + 1} inputs declared; at most {MAX_INPUTS} are supported"),)

    def test_at_the_input_cap_coverage_is_checked(self):
        names = tuple(f"i{k}" for k in range(MAX_INPUTS))
        clean = FsmSpec("m", names, (), (), (StateDef("A", {}, (Transition(Const(1), "A"),)),), "A")
        assert validate(clean) == ()
        guards = (Var("i0"), And(Var("i0"), Var(names[-1])), Not(Var("i0")))
        overlap = FsmSpec("m", names, (), (), (StateDef("A", {}, tuple(Transition(g, "A") for g in guards)),),
                          "A", reset_input="i1")
        findings = validate(overlap)
        assert len(findings) == 2 ** (MAX_INPUTS - 3)
        assert findings[0].message == "state 'A': 2 guards true at {" + ", ".join(
            f"{n}={int(n in ('i0', names[-1]))}" for n in names) + "}"

    def test_undeclared_reset_is_structural_only(self):
        spec = FsmSpec("m", ("c",), (), (), (StateDef("A", {}, (Transition(Const(1), "A"),)),),
                       "A", reset_input="ghost")
        assert [f.message for f in validate(spec)] == [
            "reset input 'ghost' is not a declared input"]

    @given(valid_machines())
    def test_generated_machines_are_clean(self, spec):
        assert validate(spec) == ()

    @given(valid_machines(), st.randoms(use_true_random=False))
    def test_clean_verdict_invariant_under_transition_reorder(self, spec, rnd):
        shuffled_states = []
        for s in spec.states:
            transitions = list(s.transitions)
            rnd.shuffle(transitions)
            shuffled_states.append(
                StateDef(s.name, s.moore_assignments, tuple(transitions)))
        shuffled = FsmSpec(
            spec.name, spec.inputs, spec.moore_outputs, spec.pulse_outputs,
            tuple(shuffled_states), spec.initial_state, spec.reset_input)
        assert bool(validate(shuffled)) == bool(validate(spec))


class TestStepSpec:
    def test_sensor_and_long_expiry_leave_idle(self, itlc_spec):
        assert step_spec(itlc_spec, "S0", {"reset": 0, "c": 1, "ts": 0, "tl": 1}) \
            == ("S1", frozenset({"st"}))

    def test_idle_dwell_without_sensor(self, itlc_spec):
        assert step_spec(itlc_spec, "S0", {"reset": 0, "c": 0, "ts": 1, "tl": 1}) \
            == ("S0", frozenset())

    def test_side_amber_returns_to_idle(self, itlc_spec):
        assert step_spec(itlc_spec, "S3", {"reset": 0, "c": 1, "ts": 1, "tl": 1}) \
            == ("S0", frozenset({"st"}))

    def test_reset_overrides_guards_without_pulses(self, itlc_spec):
        for state in itlc_spec.state_names():
            assert step_spec(itlc_spec, state,
                             {"reset": 1, "c": 1, "ts": 1, "tl": 1}) \
                == ("S0", frozenset())

    def test_unvalidated_overlap_raises(self):
        spec = _single_state_spec(
            [Transition(Var("c"), "A"), Transition(Const(1), "A")])
        with pytest.raises(ContractViolation):
            step_spec(spec, "A", {"c": 1})

    def test_unvalidated_gap_raises(self):
        spec = _single_state_spec([Transition(Var("c"), "A")])
        with pytest.raises(ContractViolation):
            step_spec(spec, "A", {"c": 0})

    def test_unknown_state_raises(self, itlc_spec):
        with pytest.raises(StructuralError):
            step_spec(itlc_spec, "S9", {"reset": 0, "c": 0, "ts": 0, "tl": 0})

    @given(valid_machines())
    def test_determinism_and_totality(self, spec):
        for s in spec.states:
            for v in all_valuations(spec.inputs):
                nxt, _pulses = step_spec(spec, s.name, v)
                assert nxt in spec.state_names()


class TestMooreOutput:
    def test_idle_lights(self, itlc_spec):
        assert moore_output(itlc_spec, "S0") == {
            "mg": 1, "my": 0, "mr": 0, "sg": 0, "sy": 0, "sr": 1}

    def test_side_green_lights(self, itlc_spec):
        assert moore_output(itlc_spec, "S2") == {
            "mg": 0, "my": 0, "mr": 1, "sg": 1, "sy": 0, "sr": 0}

    def test_unassigned_outputs_default_to_zero(self):
        spec = _single_state_spec([Transition(Const(1), "A")])
        assert moore_output(spec, "A") == {"y": 0}

    def test_unknown_state_raises(self, itlc_spec):
        with pytest.raises(StructuralError):
            moore_output(itlc_spec, "S7")

    def test_signature_admits_no_valuation(self):
        # Moore property by construction: outputs are a function of the
        # state alone, so the operation cannot even accept inputs.
        params = list(inspect.signature(moore_output).parameters)
        assert params == ["spec", "state"]


def _swap_first_binary(expr):
    """The guard with its first And or Or, in pre-order, made the other one."""
    if isinstance(expr, (And, Or)):
        return (Or if isinstance(expr, And) else And)(expr.left, expr.right)
    if isinstance(expr, Not):
        inner = _swap_first_binary(expr.operand)
        return None if inner is None else Not(inner)
    return None


class TestValueTypes:
    A, B = Var("a"), Var("b")

    def test_equality_is_type_sensitive(self):
        assert And(self.A, self.B) != Or(self.A, self.B)
        assert not And(self.A, self.B) == Or(self.A, self.B)
        assert Var("x") != ("x",) and ("x",) != Var("x")
        assert not Var("x") == ("x",)
        assert Const(1) != Var(1)
        assert Not(And(self.A, self.B)) != Not(Or(self.A, self.B))
        assert Transition(Const(1), "A") != (Const(1), "A", frozenset())
        assert Finding(GAP, "A", None, "m") != (GAP, "A", None, "m")

    @given(guard_exprs())
    def test_equal_values_hash_equal(self, expr):
        twin = copy.deepcopy(expr)
        assert twin == expr and twin is not expr
        assert hash(twin) == hash(expr)
        assert not twin != expr
        swapped = _swap_first_binary(expr)
        if swapped is not None:
            assert swapped != expr

    @settings(max_examples=50, deadline=None)
    @given(valid_machines())
    def test_spec_round_trip_is_equal_and_sees_an_operator_swap(self, spec):
        from fsmkit import dsl

        assert dsl.parse(dsl.serialize(spec)) == spec
        s = spec.states[0]
        guard = _swap_first_binary(s.transitions[0].guard)
        if guard is not None:
            changed = s._replace(transitions=(
                s.transitions[0]._replace(guard=guard), *s.transitions[1:]))
            assert spec._replace(states=(changed, *spec.states[1:])) != spec

    @pytest.mark.parametrize("value, field", [
        (Var("x"), "name"), (Not(Var("x")), "operand"), (And(A, B), "left"),
        (Or(A, B), "right"), (Const(1), "value"), (Transition(Const(1), "A"), "destination"),
        (StateDef("A"), "transitions"), (Finding(GAP, "A", None, "m"), "message"),
    ])
    def test_fields_cannot_be_assigned(self, value, field):
        with pytest.raises(AttributeError):
            setattr(value, field, None)

    def test_spec_fields_cannot_be_assigned(self, itlc_spec):
        with pytest.raises(AttributeError):
            itlc_spec.name = "other"

    def test_replace_copies_with_a_changed_field(self, itlc_spec):
        renamed = itlc_spec._replace(name="other")
        assert renamed.name == "other" and itlc_spec.name == "itlc"
        assert renamed != itlc_spec and renamed._replace(name="itlc") == itlc_spec

    def test_default_assignments_are_read_only_and_equal_an_empty_dict(self):
        first, second = StateDef("A"), StateDef("B")
        with pytest.raises(TypeError):
            first.moore_assignments["y"] = 1
        assert dict(second.moore_assignments) == {}
        assert StateDef("A") == StateDef("A", {})
