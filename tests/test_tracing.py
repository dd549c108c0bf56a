"""The benchmark's tables name what the package still has.

``perfbench/tracing.py`` wraps each name in ``LAYERS`` when a traced run
installs it; a name no module binds any more fails only there.  The
``verify`` workload counts the failure lines of the checks in
``workloads._COUNTED_CHECKS``; a prefix no check prints any more would gate
nothing.  This checks both tables without running the benchmark.
"""

import importlib
import sys
from pathlib import Path

import pytest

from geodiscord import cli
from geodiscord.oracle import REFERENCE_GRID

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


def _perfbench_module(name):
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(PERFBENCH)


@pytest.fixture(scope="module")
def tracing():
    return _perfbench_module("tracing")


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


def test_counted_checks_are_verify_checks():
    # each counted prefix must be the failure-line prefix of a check in
    # verify's table, so renaming a check fails here, not silently there
    counted = _perfbench_module("workloads")._COUNTED_CHECKS
    prefixes = {check.failure_prefix for check in cli.VERIFY_CHECKS}
    assert counted and set(counted) <= prefixes
