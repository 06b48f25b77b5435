import importlib
import importlib.util
from pathlib import Path

import fsmkit

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
