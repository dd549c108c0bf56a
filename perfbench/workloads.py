"""The benchmark's four workloads: seeded inputs, one op each, and its gates.

Every workload turns a seed into a pool of op inputs (``make_pool``), runs
one op through a public route of the package (``run``) and checks the op's
output against the acceptance suite's own bounds (``check``, which raises
GateFailure).  Inputs are generated item by item from one generator, so the
first ``n`` items of a pool do not depend on the pool's size; the set-up
probe and the traced run rely on that.  A timed run makes ``pool_per_s``
items per second of ``--seconds``, rounded up to whole ``pool_cycle``s of
the workload's mix, and cycles through them; a traced run makes
``trace_per_s`` and runs each once.

Each workload fixes the percentile it reports as its tail, so that runs
compare the same percentile; one picked from each run's own sample count
would move with the machine's speed.  README.md gives each choice and the
samples beyond it.

Ops look functions up on their module at call time, so the spans that
``tracing`` installs on those modules see every call.  ``ctx`` is the run's
``run.Context``: a scratch directory and the captured standard output.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass

import numpy as np

import geodiscord as gd
from geodiscord import cli


class GateFailure(Exception):
    """An op's output broke one of the benchmark's correctness gates."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise GateFailure(message)


@dataclass(frozen=True)
class Item:
    """One op's input: ``kind`` names the family, ``states`` counts states."""

    kind: str
    payload: object
    states: int = 1
    ref: tuple = ()


# --- input generators -------------------------------------------------------

_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _pure(rng) -> np.ndarray:
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def _rank2(rng) -> np.ndarray:
    w = rng.uniform(0.2, 0.8)
    return w * _pure(rng) + (1.0 - w) * _pure(rng)


def _qubit(rng) -> np.ndarray:
    r = rng.normal(size=3)
    r *= rng.uniform(0.0, 1.0) ** (1.0 / 3.0) / np.linalg.norm(r)
    return 0.5 * (np.eye(2) + sum(c * s for c, s in zip(r, _PAULIS)))


def _product(rng) -> np.ndarray:
    return np.kron(_qubit(rng), _qubit(rng))


def _werner_params(rng) -> gd.XStateParams:
    """p |psi-><psi-| + (1 - p) I/4, an X state with a negative real corner."""
    p = float(rng.uniform(0.0, 1.0))
    lo, hi = (1.0 - p) / 4.0, (1.0 + p) / 4.0
    return gd.XStateParams(lo, hi, hi, lo, 0.0, -p / 2.0)


def _dm4(matrix) -> str:
    return cli.format_dm4(gd.validate_density(matrix))


def _x_refs(params: gd.XStateParams) -> tuple[float, float]:
    norm = gd.normalize_x_phases(params).normalized
    return gd.gd_x(norm).value, gd.ggqd_x(norm).value


# --- the compute route ---------------------------------------------------------

def _compute_item(text: str, ctx, stem: str, method: str, measure: str):
    """Arguments for ``cli.cmd_compute``, with the DM4 text written to a file."""
    path = os.path.join(ctx.tmp_dir, f"state-{stem}.dm4")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return argparse.Namespace(state_file=path, measure=measure, method=method)


def _printed(code, text: str) -> tuple[bool, dict[str, float]]:
    """What ``cmd_compute`` printed: whether it named an X case, and the values."""
    lines = text.splitlines()
    _require(code == cli.EXIT_OK, f"compute exited {code}")
    values = {}
    for line in lines:
        name, sep, value = line.partition(" = ")
        if sep and name in ("gd", "ggqd"):
            values[name] = float(value)
    return any(line.startswith("case = ") for line in lines), values


def _check_gd_range(gd_value: float) -> None:
    _require(0.0 <= gd_value <= 0.5, f"gd = {gd_value!r} outside [0, 1/2]")


# --- sweep ------------------------------------------------------------------

_EXAMPLES = ("ex1", "ex2", "ex3", "ex4", "ex5")
_STEPS = (101, 201, 301, 401, 501)


class Sweep:
    """``geodiscord sweep`` in-process; the states of an op are its rows."""

    name = "sweep"
    pool_per_s = 5.0
    pool_cycle = len(_EXAMPLES) * len(_STEPS)  # each example at each size once
    trace_per_s = 3.0
    tail_percentile = 98.0

    def make_pool(self, seed: int, n: int, ctx) -> list[Item]:
        rng = np.random.default_rng(seed)
        out = os.path.join(ctx.tmp_dir, "sweep.csv")
        items = []
        for i in range(n):
            ex = _EXAMPLES[i % len(_EXAMPLES)]
            steps = _STEPS[(i // len(_EXAMPLES)) % len(_STEPS)]
            if ex == "ex1":
                lo, hi = rng.uniform(0.001, 0.3), rng.uniform(0.7, 1.0)
            elif ex == "ex2":  # spans both kinks, at 1/2 and 3/5
                lo, hi = rng.uniform(0.0, 0.45), rng.uniform(0.65, 1.0)
            elif ex == "ex3":
                lo, hi = rng.uniform(0.0, 0.4), rng.uniform(0.6, 1.0)
            elif ex == "ex4":
                lo = rng.uniform(0.0, 0.5)
                hi = lo + rng.uniform(0.5, 2.0)
            else:
                lo = rng.uniform(0.0, 1.0)
                hi = lo + rng.uniform(1.0, 10.0)
            argv = ["sweep", "--example", ex,
                    "--range", f"{float(lo)!r}:{float(hi)!r}:{steps}", "--out", out]
            if ex in ("ex4", "ex5"):
                argv += ["--alpha", repr(float(rng.uniform(0.0, 1.0)))]
            items.append(Item(ex, argv, steps))
        return items

    def run(self, item: Item, ctx):
        return cli.main(item.payload)

    def check(self, item: Item, code, ctx) -> None:
        out = item.payload[item.payload.index("--out") + 1]
        printed = ctx.take_stdout()
        _require(code == cli.EXIT_OK, f"sweep exited {code}")
        _require(printed == f"wrote {item.states} rows to {out}\n",
                 f"unexpected sweep output {printed!r}")
        with open(out, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        _require(lines[0] == "param,gd,ggqd", f"bad CSV header {lines[0]!r}")
        _require(len(lines) == item.states + 1,
                 f"{len(lines) - 1} rows, expected {item.states}")
        for line in lines[1:]:
            a, gd_v, gg_v = (float(v) for v in line.split(","))
            _require(gg_v >= gd_v - 1e-10, f"{item.kind} at {a!r}: ggqd < gd")
            if item.kind in ("ex1", "ex2", "ex3"):
                dev = max(abs(gd_v - gd.example_reference(item.kind, "gd", a)),
                          abs(gg_v - gd.example_reference(item.kind, "ggqd", a)))
                _require(dev <= 1e-12, f"{item.kind} at {a!r}: off the curve by {dev!r}")


# --- compute, analytic route --------------------------------------------------

class ComputeClosed:
    """``compute --method analytic`` twice per op: an X state, then a non-X one.

    The X state is evaluated with ``--measure both`` (the closed forms), the
    non-X state, Ginibre or pure in turn, with ``--measure gd``, which routes
    to ``gd_dakic`` and the Bloch form.  One op holds both, so every op costs
    the same and the median is not set by the mix.
    """

    name = "compute_closed"
    pool_per_s = 60.0
    pool_cycle = 2
    trace_per_s = 30.0
    tail_percentile = 85.0

    def make_pool(self, seed: int, n: int, ctx) -> list[Item]:
        rng = np.random.default_rng(seed)
        items = []
        for i in range(n):
            params = gd.random_x_params(rng)
            state = gd.x_state(params)
            ref = (gd.gd_dakic(state).value,
                   gd.gap_x(gd.normalize_x_phases(params).normalized))
            x = _compute_item(cli.format_dm4(state), ctx, f"x-{i}", "analytic", "both")
            if i % 2 == 0:
                kind, text = "ginibre", cli.format_dm4(gd.random_density(rng))
            else:
                kind, text = "pure", _dm4(_pure(rng))
            other = _compute_item(text, ctx, f"other-{i}", "analytic", "gd")
            items.append(Item(f"x+{kind}", (x, other), 2, ref))
        return items

    def run(self, item: Item, ctx):
        return [(cli.cmd_compute(args), ctx.take_stdout()) for args in item.payload]

    def check(self, item: Item, out, ctx) -> None:
        (x_code, x_text), (other_code, other_text) = out
        is_x, values = _printed(x_code, x_text)
        _require(is_x, "X state not read as an X state")
        gd_v, gg_v = values["gd"], values["ggqd"]
        gd_ref, gap_ref = item.ref
        _require(abs(gap_ref - (gg_v - gd_v)) <= 1e-12,
                 f"gap_x {gap_ref!r} vs ggqd - gd {gg_v - gd_v!r}")
        _require(gg_v >= gd_v - 1e-12, f"ggqd - gd = {gg_v - gd_v!r}")
        _require(abs(gd_v - gd_ref) <= 1e-10, f"gd_x {gd_v!r} vs gd_dakic {gd_ref!r}")
        is_x, values = _printed(other_code, other_text)
        _require(not is_x, f"{item.kind}: the non-X state was read as an X state")
        _check_gd_range(values["gd"])


# --- compute, numeric route ---------------------------------------------------

# Optimizer cost depends on the kind of state, so the mix is fixed and
# interleaved: any prefix of a pool has nearly the same proportions.  Werner
# states come first because the first op is part of setup_s, and their cost
# varies least from seed to seed.
_NUMERIC_KINDS = ("werner", "ginibre", "pure", "rank2", "product", "x")


class ComputeNumeric:
    """``compute --method numeric``: gd_dakic and ggqd_general on any state."""

    name = "compute_numeric"
    pool_per_s = 20.0
    pool_cycle = len(_NUMERIC_KINDS)
    trace_per_s = 4.0
    tail_percentile = 90.0

    def make_pool(self, seed: int, n: int, ctx) -> list[Item]:
        rng = np.random.default_rng(seed)
        items = []
        for i in range(n):
            kind = _NUMERIC_KINDS[i % len(_NUMERIC_KINDS)]
            if kind in ("werner", "x"):
                params = _werner_params(rng) if kind == "werner" else gd.random_x_params(rng)
                text, ref = cli.format_dm4(gd.x_state(params)), _x_refs(params)
            elif kind == "ginibre":
                text, ref = cli.format_dm4(gd.random_density(rng)), ()
            else:
                make = {"pure": _pure, "rank2": _rank2, "product": _product}[kind]
                text, ref = _dm4(make(rng)), ()
            args = _compute_item(text, ctx, str(i), "numeric", "both")
            items.append(Item(kind, args, ref=ref))
        return items

    def run(self, item: Item, ctx):
        return cli.cmd_compute(item.payload), ctx.take_stdout()

    def check(self, item: Item, out, ctx) -> None:
        _, values = _printed(*out)
        gd_v, gg_v = values["gd"], values["ggqd"]
        _check_gd_range(gd_v)
        _require(gg_v >= gd_v - 1e-10, f"{item.kind}: ggqd - gd = {gg_v - gd_v!r}")
        if item.ref:
            gd_ref, gg_ref = item.ref
            _require(abs(gd_v - gd_ref) <= 1e-10, f"{item.kind}: gd_dakic off gd_x by "
                     f"{abs(gd_v - gd_ref)!r}")
            _require(abs(gg_v - gg_ref) <= 1e-8, f"{item.kind}: ggqd_general off ggqd_x by "
                     f"{abs(gg_v - gg_ref)!r}")


# --- verify -------------------------------------------------------------------

# Check c (greedy vs joint search) fails by design; see the README's
# "Known discrepancy".  Its failure lines are not op failures.
_COUNTED_CHECKS = ("check a, trial", "check b, trial", "check d, trial")


class Verify:
    """``geodiscord verify --trials 1``: one X and one general state per op."""

    name = "verify"
    pool_per_s = 2.0
    pool_cycle = 1
    trace_per_s = 0.4
    tail_percentile = 75.0

    def make_pool(self, seed: int, n: int, ctx) -> list[Item]:
        rng = np.random.default_rng(seed)
        return [
            Item("verify", ["verify", "--seed", str(int(s)), "--trials", "1"], 2)
            for s in rng.integers(0, 2**31 - 1, size=n)
        ]

    def run(self, item: Item, ctx):
        return cli.main(item.payload)

    def check(self, item: Item, code, ctx) -> None:
        lines = ctx.take_stdout().splitlines()
        _require(code in (cli.EXIT_OK, cli.EXIT_VERIFY_FAILED), f"verify exited {code}")
        _require(bool(lines) and lines[-1] in ("all checks passed", "FAILED"),
                 "verify printed no verdict")
        bad = [line for line in lines if line.startswith(_COUNTED_CHECKS)]
        _require(not bad, "; ".join(bad))


WORKLOADS = {w.name: w for w in (Sweep(), ComputeClosed(), ComputeNumeric(), Verify())}
