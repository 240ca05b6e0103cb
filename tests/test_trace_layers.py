"""Every function the benchmark's tracer wraps still exists in goldenslant.

``perfbench/run.py --trace 1`` looks each entry of ``perfbench.spans.LAYERS``
up by name, so deleting or renaming a traced function would break the traced
run with a KeyError that nothing else in these tests reaches.
"""

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
try:
    from perfbench.spans import LAYERS
finally:
    sys.path.remove(str(ROOT))


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_every_traced_name_resolves(layer):
    modname, names = LAYERS[layer]
    module = importlib.import_module(modname)
    for name in names or ():  # None traces the module's public functions, whatever they are
        owner, _, attr = name.rpartition(".")
        target = getattr(module, owner) if owner else module
        assert attr in vars(target), f"{layer}: {modname}.{name} is gone"
