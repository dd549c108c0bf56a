"""The benchmark's per-layer table names functions the package still has.

``perfbench/tracing.py`` wraps each name in ``LAYERS`` when a traced run
installs it; a name no module binds any more fails only there.  This checks
the table without installing anything.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, PERFBENCH)
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(PERFBENCH)


def _resolve(name, namespaces):
    """The callable a dotted name reaches from the first namespace binding
    its head, or None."""
    head, *rest = name.split(".")
    for module in namespaces:
        if hasattr(module, head):
            obj = getattr(module, head)
            for attr in rest:
                obj = getattr(obj, attr, None)
            return obj if callable(obj) else None
    return None


def test_every_layer_name_resolves(tracing):
    names = [name for layer in tracing.LAYERS.values() for name in layer]
    missing = [name for name in names if _resolve(name, tracing._NAMESPACES) is None]
    assert missing == []
