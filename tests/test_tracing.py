"""The benchmark's per-layer table names functions the package still has.

``perfbench/tracing.py`` wraps each name in ``LAYERS`` when a traced run
installs it; a name no module binds any more fails only there.  This checks
the table without installing anything.
"""

import importlib
import sys
from pathlib import Path

import pytest

from geodiscord.oracle import REFERENCE_GRID

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


def test_oracle_axis_count_reads_the_oracle(tracing):
    # oracle_pairs_per_call reads the oracle's grid and window size; a
    # one-sided call scores the 4 097 base axes and six 11 x 11 windows
    assert tracing.oracle_pairs_per_call(REFERENCE_GRID)["gd_bruteforce"] == 4097 + 6 * 121
