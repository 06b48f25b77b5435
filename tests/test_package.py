import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from collections.abc import Mapping
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import fsmkit
from fsmkit.emit import DEFAULT_PIN_ROWS, InvalidSpecError
from fsmkit.env import run_seeds

REPO = Path(__file__).resolve().parent.parent
TRACING = REPO / "perfbench" / "tracing.py"
ITLC = str(REPO / "designs" / "itlc.fsm")


def fresh_interpreter(code: str):
    """Run `code` in a new interpreter on this source tree, after a prelude
    that defines `loaded()`; `code` prints JSON as its last stdout line, and
    that is returned."""
    prelude = ("import json, sys\n"
               "def loaded():\n"
               # Only fsmkit modules and these four are asserted on: what else
               # an interpreter loads at start-up varies with its site packages.
               "    return sorted(m for m in sys.modules if m.split('.')[0] == 'fsmkit'\n"
               "                  or m in ('dataclasses', 'inspect', 'argparse', 'gettext'))\n")
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", prelude + code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_every_public_name_resolves():
    assert [name for name in fsmkit.__all__ if not hasattr(fsmkit, name)] == []
    assert len(set(fsmkit.__all__)) == len(fsmkit.__all__)


def test_every_public_exception_is_an_fsm_error():
    # `cli.main` turns an FsmError into exit 2, so a refusal outside it
    # would show as a traceback.
    values = [getattr(fsmkit, name) for name in fsmkit.__all__]
    errors = [v for v in values if isinstance(v, type) and issubclass(v, BaseException)]
    assert {"SimError", "EmitError", "ParseFailure"} <= {e.__name__ for e in errors}
    assert [e.__name__ for e in errors if not issubclass(e, fsmkit.FsmError)] == []


def _deep_guard(depth=3000):
    """`c` under `depth` nested `!`s: deeper than the default recursion limit."""
    guard = fsmkit.Var("c")
    for _ in range(depth):
        guard = fsmkit.Not(guard)
    return guard


def _with_guard(spec, guard):
    """`spec` with `guard` as the only transition of its first state."""
    s0 = spec.states[0]
    return spec._replace(states=(s0._replace(transitions=(fsmkit.Transition(guard, "S1"),)),
                                 *spec.states[1:]))


def _library_refusals():
    """(id, call) pairs: each call is refused by the library."""
    spec = fsmkit.parse(Path(ITLC).read_text())
    open_loop = spec._replace(inputs=("c",))  # no reset, ts or tl
    non_guard = _with_guard(spec, "c")
    deep = _with_guard(spec, _deep_guard())
    cfg = fsmkit.TimerConfig()
    records = fsmkit.simulate(spec, cfg, fsmkit.Stimulus(((1, 0, 30),)))  # visits S0-S2
    undescribed = {"two-states": spec._replace(states=spec.states[:2]),
                   "extra-moore": spec._replace(moore_outputs=(*spec.moore_outputs, "extra"))}
    rows = [("c", "N17"), ("c", "N17", "input", "x"), ("c", 5, "input"), (1, "N17", "input")]
    return [
        *((f"emit_ucf-{row!r}", lambda row=row: fsmkit.emit_ucf(spec, (row,))) for row in rows),
        *((f"emit_ucf-pins-{pins!r}", lambda pins=pins: fsmkit.emit_ucf(spec, pins))
          for pins in (None, 5)),
        ("TrafficTable-open-loop", lambda: fsmkit.TrafficTable(open_loop, cfg)),
        ("explore_reachable-open-loop", lambda: fsmkit.explore_reachable(open_loop, cfg)),
        ("Stimulus-bad-c", lambda: fsmkit.Stimulus(((2, 0, 1),))),
        *((f"Stimulus-{runs!r}", lambda runs=runs: fsmkit.Stimulus(runs))
          for runs in (((0, 1),), ((0, 0, 1, 1),), (5,), ([0, 0, 3],),
                       ({0: "x", 1: "y", 2: "z"},), [(0, 0, 3)], 5)),
        ("Stimulus-iterator", lambda: fsmkit.Stimulus(iter([(0, 0, 3)]))),
        ("simulate-non-guard", lambda: fsmkit.simulate(
            non_guard, cfg, fsmkit.Stimulus(((0, 0, 3),)))),
        ("step_spec-non-guard", lambda: fsmkit.step_spec(
            non_guard, "S0", {"reset": 0, "c": 1, "ts": 0, "tl": 0})),
        ("serialize-non-guard", lambda: fsmkit.serialize(non_guard)),
        ("TimerConfig-str", lambda: fsmkit.TimerConfig("4", 16)),
        ("TrafficModel-str", lambda: fsmkit.TrafficModel("0.1")),
        ("run_seeds-float", lambda: next(fsmkit.env.run_seeds(
            fsmkit.TrafficTable(spec, cfg), fsmkit.TrafficModel(0.1), 2.5))),
        ("aggregate-empty", lambda: fsmkit.Metrics.aggregate([])),
        ("step_spec-unknown-state", lambda: fsmkit.step_spec(spec, "GONE", {})),
        ("write_vcd-empty", lambda: fsmkit.write_vcd(spec, ())),
        *((f"write_vcd-{name}", lambda other=other: fsmkit.write_vcd(other, records))
          for name, other in undescribed.items()),
        ("write_vcd-not-records", lambda: fsmkit.write_vcd(spec, [1, 2])),
        ("write_vcd-int", lambda: fsmkit.write_vcd(spec, 5)),
        *((f"write_vcd-{field}-None", lambda field=field: fsmkit.write_vcd(
            spec, (records[0]._replace(**{field: None}),))) for field in ("inputs", "pulses")),
        ("serialize-deep-guard", lambda: fsmkit.serialize(deep)),
        ("simulate-deep-guard", lambda: fsmkit.simulate(deep, cfg, fsmkit.Stimulus(((0, 0, 3),)))),
        ("run_env-deep-guard", lambda: fsmkit.run_env(fsmkit.TrafficTable(deep, cfg),
                                                      fsmkit.TrafficModel(0.5, horizon=10))),
        ("explore_reachable-deep-guard", lambda: fsmkit.explore_reachable(deep, cfg)),
        ("step_spec-deep-guard", lambda: fsmkit.step_spec(
            deep, "S0", {"reset": 0, "c": 1, "ts": 0, "tl": 0})),
        ("emit_verilog-deep-guard", lambda: fsmkit.emit_verilog(deep)),
    ]


@pytest.mark.parametrize("call", [pytest.param(call, id=name) for name, call in _library_refusals()])
def test_every_library_refusal_is_an_fsm_error(call):
    # README: every error fsmkit raises for input it refuses is an FsmError.
    with pytest.raises(fsmkit.FsmError):
        call()


@pytest.mark.parametrize("guard", ["c", fsmkit.And(fsmkit.Var("c"), "x"), None, _deep_guard()])
def test_validate_reports_a_non_guard_rather_than_raising(guard):
    spec = fsmkit.parse(Path(ITLC).read_text())
    s0 = spec.states[0]
    bad = s0._replace(transitions=(fsmkit.Transition(guard, "S1"), *s0.transitions))
    findings = fsmkit.validate(spec._replace(states=(bad, *spec.states[1:])))
    assert [(f.kind, f.state) for f in findings] == [("structural", s0.name)]


@pytest.mark.parametrize("guard", [
    "c", None, fsmkit.And(fsmkit.Var("c"), "x"), fsmkit.Var(5), fsmkit.Var([1]),
    fsmkit.Not(fsmkit.Var(("c",)))], ids=repr)
def test_every_guard_reader_refuses_the_same_non_guards(guard):
    # A Var names a str.  validate, every run, serialize and the emitter
    # agree on that with the parser, each with its own kind of FsmError.
    spec = fsmkit.parse(Path(ITLC).read_text())
    s0 = spec.states[0]
    spec = spec._replace(states=(s0._replace(transitions=(fsmkit.Transition(guard, "S1"),)),
                                 *spec.states[1:]))
    assert fsmkit.validate(spec) == (fsmkit.Finding(
        "structural", "S0", None, f"transition guard is not a guard expression: {guard!r}"),)
    cfg = fsmkit.TimerConfig()
    for run in (lambda: fsmkit.step_spec(spec, "S0", {"reset": 0, "c": 1, "ts": 0, "tl": 0}),
                lambda: fsmkit.simulate(spec, cfg, fsmkit.Stimulus(((0, 0, 3),))),
                lambda: fsmkit.run_env(fsmkit.TrafficTable(spec, cfg),
                                       fsmkit.TrafficModel(0.5, horizon=10)),
                lambda: fsmkit.explore_reachable(spec, cfg),
                lambda: fsmkit.serialize(spec)):
        with pytest.raises(fsmkit.StructuralError):
            run()
    with pytest.raises(InvalidSpecError):
        fsmkit.emit_verilog(spec)


# What a swap puts in place of one part of a value: README's contract says
# each is refused with an FsmError wherever it lands, or taken as it is.
_JUNK = (None, 5, -1, True, 1.5, "x", [1], {"a": 1}, frozenset({1}), b"x", _deep_guard())


def _parts(value):
    """The keys of the parts of `value` a swap may replace: fields and items,
    a mapping's values by key and, as (key,), its keys."""
    if isinstance(value, (tuple, list)):
        return list(range(len(value)))
    if isinstance(value, Mapping):
        return [*value, *((key,) for key in value)]
    if isinstance(value, frozenset):
        return sorted(value, key=repr)
    return []


def _part(value, key):
    if isinstance(value, frozenset):
        return key
    return key[0] if isinstance(value, Mapping) and isinstance(key, tuple) else value[key]


def _swapped(value, key, new):
    """`value` with its part at `key` replaced by `new`, built the way its type builds."""
    if hasattr(value, "_fields"):
        return value._replace(**{value._fields[key]: new})
    if isinstance(value, (tuple, list)):
        return type(value)((*value[:key], new, *value[key + 1:]))
    if isinstance(value, Mapping):
        if isinstance(key, tuple):  # the key itself, for a hashable part
            return {(new if new.__hash__ else 5) if k == key[0] else k: v for k, v in value.items()}
        return {**value, key: new}
    return value - {key} | {new if new.__hash__ else 5}


@st.composite
def _swap(draw, value, depth):
    """`value` with one part, `depth` levels down or at a leaf above, swapped for junk."""
    keys = _parts(value)
    if not keys:
        return draw(st.sampled_from(_JUNK))
    key = draw(st.sampled_from(keys))
    if depth == 1 or (isinstance(value, Mapping) and isinstance(key, tuple)):
        new = draw(st.sampled_from(_JUNK))
    else:
        new = draw(_swap(_part(value, key), depth - 1))
    return _swapped(value, key, new)


def _calls():
    """(name, arguments, call): each public call on valid arguments from
    `designs/itlc.fsm`, its spec, stimulus, records, pins and metrics."""
    f = fsmkit
    spec, cfg = f.parse(Path(ITLC).read_text()), f.TimerConfig()
    stim = f.Stimulus(((1, 0, 20), (0, 1, 2), (1, 0, 10)))
    model = f.TrafficModel(0.5, horizon=40)
    metrics = f.run_env(f.TrafficTable(spec, cfg), model)
    valuation = {"reset": 0, "c": 1, "ts": 1, "tl": 1}
    return [
        ("validate", (spec,), f.validate),
        ("serialize", (spec,), f.serialize),
        ("emit_verilog", (spec,), f.emit_verilog),
        ("emit_ucf", (spec, DEFAULT_PIN_ROWS), f.emit_ucf),
        ("simulate", (spec, cfg, stim), f.simulate),
        ("explore_reachable", (spec, cfg), f.explore_reachable),
        ("run_env", (spec, cfg, model), lambda s, c, m: f.run_env(f.TrafficTable(s, c), m)),
        ("run_seeds", (spec, cfg, model, 1),
         lambda s, c, m, n: list(run_seeds(f.TrafficTable(s, c), m, n))),
        ("step_spec", (spec, "S0", valuation), f.step_spec),
        ("moore_output", (spec, "S2"), f.moore_output),
        ("write_vcd", (spec, f.simulate(spec, cfg, stim)), f.write_vcd),
        ("TimerConfig", (cfg,), f.TimerConfig._make),
        ("TrafficModel", (model,), f.TrafficModel._make),
        ("Stimulus", (stim,), f.Stimulus._make),
        ("aggregate", ([metrics, metrics],), f.Metrics.aggregate),
    ]


_CALLS = _calls()


@settings(derandomize=True, max_examples=800, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.data())
def test_a_swapped_part_anywhere_returns_or_is_an_fsm_error(data):
    # README: any part of an argument, at any depth, may be malformed; a
    # call then returns or raises an FsmError, never another exception.
    name, args, call = data.draw(st.sampled_from(_CALLS), label="call")
    depth = data.draw(st.integers(1, 6), label="depth")
    with mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True):
        try:
            i = data.draw(st.sampled_from([i for i, arg in enumerate(args) if _parts(arg)]))
            swapped = data.draw(_swap(args[i], depth))  # a checked type may refuse it here
            call(*args[:i], swapped, *args[i + 1:])
        except fsmkit.FsmError:
            pass


@pytest.mark.parametrize("above", [1, 2900])
def test_a_guard_past_the_depth_cap_is_refused_by_every_guard_reader(above):
    # The parser's cap: at most MAX_GUARD_DEPTH operators on any path.
    cap, spec = fsmkit.model.MAX_GUARD_DEPTH, fsmkit.parse(Path(ITLC).read_text())
    assert {f.kind for f in fsmkit.validate(_with_guard(spec, _deep_guard(cap)))} == {"gap"}
    spec = _with_guard(spec, _deep_guard(cap + above))
    assert fsmkit.validate(spec) == (fsmkit.Finding(
        "structural", "S0", None, f"transition guard nests deeper than {cap} levels"),)
    readers = {"serialize", "emit_verilog", "emit_ucf", "simulate", "explore_reachable",
               "run_env", "run_seeds", "moore_output", "write_vcd"}
    if above > 1:  # step_spec checks only when stepping raises, as evaluating this one does
        readers.add("step_spec")
    for name, args, call in _CALLS:
        if name in readers:
            with pytest.raises(fsmkit.FsmError):
                call(spec, *args[1:])


def test_no_module_imports_another_modules_private_name():
    # `kernel._ClosedLoop` is the one private name that other modules share.
    found = []
    for path in sorted((REPO / "src" / "fsmkit").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # local name -> the fsmkit module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:  # `from . import env as env_mod`
                        modules[alias.asname or alias.name] = alias.name
                    elif alias.name.startswith("_"):
                        found.append((path.stem, node.module, alias.name))
        found += [(path.stem, modules[node.value.id], node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules and node.attr.startswith("_")]
    assert [f for f in found if f[1:] != ("kernel", "_ClosedLoop")] == []
    assert ("cli", "kernel", "_ClosedLoop") in found  # the check sees attribute access


def test_every_traced_layer_resolves():
    # The benchmark's traced run wraps these names; resolve each one the way
    # `tracing.installed` does, so that a rename fails here first.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for layer, module, attr in tracing.LAYERS:
        owner = importlib.import_module(module)
        *cls, attr = attr.split(".")
        if cls:
            owner = getattr(owner, cls[0], None)
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append(layer)
    assert tracing.LAYERS and missing == []


def test_kernel_names_live_in_the_kernel():
    from fsmkit import kernel, sim
    assert fsmkit.SimError is kernel.SimError and fsmkit.TickRecord is kernel.TickRecord
    assert issubclass(sim.StimulusError, kernel.SimError)
    # `sim` imports only the kernel names it runs; it passes none on.
    assert [name for name in ("closed_loop_tick", "CLOSED_LOOP_INPUTS", "START_PULSE")
            if hasattr(sim, name)] == []


def test_every_module_parses_as_python_3_10():
    # requires-python is >=3.10, whichever interpreter runs these tests.
    modules = sorted((REPO / "src" / "fsmkit").glob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_dir_and_star_import_list_every_public_name():
    assert set(fsmkit.__all__) <= set(dir(fsmkit))
    names = {}
    exec("from fsmkit import *", names)
    assert set(fsmkit.__all__) <= set(names)
    with pytest.raises(AttributeError, match="no_such_name"):
        fsmkit.no_such_name


def test_the_package_loads_a_module_on_first_use():
    loaded = fresh_interpreter("""
import fsmkit
before = loaded()
fsmkit.Metrics
print(json.dumps([before, loaded()]))
""")
    before, after = loaded
    assert before == ["fsmkit"]
    assert [m for m in after if m.startswith("fsmkit")] == [
        "fsmkit", "fsmkit.env", "fsmkit.kernel", "fsmkit.model", "fsmkit.timer"]


def test_commands_import_only_what_they_run(tmp_path):
    pins = tmp_path / "one.pins"
    pins.write_text("c N17 input\n")
    loaded = fresh_interpreter(f"""
from fsmkit import cli
steps = [loaded()]
assert cli.main(["check", {ITLC!r}]) == 0
steps.append(loaded())
assert cli.main(["emit", {ITLC!r}, "--format", "ucf", "--pins", {str(pins)!r}]) == 0
steps.append(loaded())
print(json.dumps(steps))
""")
    imported, checked, emitted = (set(step) for step in loaded)
    assert imported == {"fsmkit", "fsmkit.cli", "fsmkit.dsl", "fsmkit.model", "fsmkit.timer"}
    assert checked == imported
    assert emitted == imported | {"fsmkit.emit"}
    # Each in a fresh interpreter, as the console script runs them; a valid
    # command never loads argparse (nor, with it, gettext).
    stim = REPO / "designs" / "paper_fig7_10.stim"
    for argv, runs in [(["emit", ITLC], {"fsmkit.emit"}),
                       (["emit", ITLC, "--format", "ucf"], {"fsmkit.emit"}),
                       (["simulate", ITLC, str(stim), "--vcd", str(tmp_path / "run.vcd")],
                        {"fsmkit.sim", "fsmkit.kernel"}),
                       (["bench", ITLC, "--arrival", "0.1", "--horizon", "50"],
                        {"fsmkit.kernel", "fsmkit.env"})]:
        ran = fresh_interpreter(f"""
import contextlib, io
from fsmkit import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main({argv!r}) == 0
print(json.dumps(loaded()))
""")
        assert set(ran) == imported | runs, argv[0]
    # Help goes through argparse, built from the same table.
    code, text, helped = fresh_interpreter("""
import contextlib, io
from fsmkit import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    try:
        cli.main(["bench", "--help"])
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, out.getvalue(), loaded()]))
""")
    assert code == 0 and text.startswith("usage: fsmkit bench [-h] --arrival ARRIVAL")
    assert {"argparse", "gettext"} <= set(helped)


def test_traced_run_wraps_the_lazily_imported_layers():
    # `tracing.installed` imports each layer's module itself; a command that
    # imports it later must reach the wrapped function all the same.  One CPU,
    # so that `bench` runs every seed in this process, where the tracer counts.
    calls = fresh_interpreter(f"""
import importlib.util, os
os.sched_getaffinity = lambda pid: {{0}}
spec = importlib.util.spec_from_file_location("perfbench_tracing", {str(TRACING)!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
from fsmkit import cli
tracer = tracing.Tracer()
with tracing.installed(tracer):
    assert cli.main(["emit", {ITLC!r}]) == 0
    assert cli.main(["bench", {ITLC!r}, "--arrival", "0.1", "--seeds", "2",
                     "--horizon", "100"]) == 0
print(json.dumps(tracer.calls))
""")
    assert calls["emit.emit_verilog"] == 1
    assert calls["env.run_env"] == 2
    assert calls["dsl.parse"] == 2 and calls["model.validate"] == 2
    assert calls["model.step_spec"] > 0


def test_commands_load_neither_typing_nor_pathlib(tmp_path):
    # Without site packages, whose start-up hooks may load either, the
    # modules a command imports are its own: `-X importtime` lists each.
    pins = tmp_path / "one.pins"
    pins.write_text("c N17 input\n")
    stim = str(REPO / "designs" / "paper_fig7_10.stim")
    for argv in (["check", ITLC], ["emit", ITLC], ["emit", ITLC, "--format", "ucf"],
                 ["emit", ITLC, "--format", "ucf", "--pins", str(pins)],
                 ["simulate", ITLC, stim, "--vcd", str(tmp_path / "run.vcd")],
                 ["bench", ITLC, "--arrival", "0.1", "--horizon", "50"]):
        done = subprocess.run([sys.executable, "-S", "-X", "importtime", "-m", "fsmkit.cli", *argv],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(REPO / "src")})
        assert done.returncode == 0, done.stderr
        imported = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "fsmkit.model" in imported, argv[0]
        assert imported & {"typing", "pathlib"} == set(), argv


def public_values():
    """One value of every public value type."""
    f = fsmkit
    spec = f.parse(Path(ITLC).read_text())
    a = f.Var("a")
    return [a, f.Not(a), f.And(a, f.Const(1)), f.Or(a, a), f.Const(0),
            f.Transition(a, "B", frozenset({"st"})), f.StateDef("A"), spec,
            f.Finding("gap", "A", {"a": 0}, "no guard"), f.SourceSpan(1, 2, 3),
            f.ParseError(f.SourceSpan(1, 1, 1), "syntax", "bad"), f.TimerConfig(),
            f.Stimulus(((0, 0, 5),)), f.TickRecord("S0", {"c": 0}, {"mg": 1}, frozenset(), 0),
            f.TrafficModel(0.1), f.Metrics(1.5, 3, 0.5, 2, 1)]


def test_every_public_value_type_is_a_slotted_namedtuple():
    values = public_values()
    assert {type(v).__name__ for v in values} == {
        name for name in fsmkit.__all__ if hasattr(getattr(fsmkit, name), "_fields")}
    for v in values:
        assert not hasattr(v, "__dict__"), type(v)
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(v._fields, v))
        assert repr(v) == f"{type(v).__name__}({fields})"
