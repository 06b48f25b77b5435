import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fsmkit

REPO = Path(__file__).resolve().parent.parent
TRACING = REPO / "perfbench" / "tracing.py"
ITLC = str(REPO / "designs" / "itlc.fsm")


def fresh_interpreter(code: str):
    """Run `code` in a new interpreter on this source tree, after a prelude
    that defines `loaded()`; `code` prints JSON as its last stdout line, and
    that is returned."""
    prelude = ("import json, sys\n"
               "def loaded():\n"
               # Only fsmkit modules and these two are asserted on: what else
               # an interpreter loads at start-up varies with its site packages.
               "    return sorted(m for m in sys.modules if m.split('.')[0] == 'fsmkit'\n"
               "                  or m in ('dataclasses', 'inspect'))\n")
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", prelude + code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_every_public_name_resolves():
    assert [name for name in fsmkit.__all__ if not hasattr(fsmkit, name)] == []
    assert len(set(fsmkit.__all__)) == len(fsmkit.__all__)


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
        "fsmkit", "fsmkit.env", "fsmkit.model", "fsmkit.sim", "fsmkit.timer"]


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
    # Each in a fresh interpreter, as the console script runs them.
    stim = REPO / "designs" / "paper_fig7_10.stim"
    for argv, runs in [(["simulate", ITLC, str(stim), "--vcd", str(tmp_path / "run.vcd")],
                        {"fsmkit.sim"}),
                       (["bench", ITLC, "--arrival", "0.1", "--horizon", "50"],
                        {"fsmkit.sim", "fsmkit.env"})]:
        ran = fresh_interpreter(f"""
import contextlib, io
from fsmkit import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main({argv!r}) == 0
print(json.dumps(loaded()))
""")
        assert set(ran) == imported | runs, argv[0]


def test_traced_run_wraps_the_lazily_imported_layers():
    # `tracing.installed` imports each layer's module itself; a command that
    # imports it later must reach the wrapped function all the same.
    calls = fresh_interpreter(f"""
import importlib.util
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
