"""geodiscord benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  # every workload, one table

Run from the repository root.  One process, one closed-loop client, BLAS and
OpenMP pinned to one thread; the package is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
holds the run's details (seed, sample count, tail percentile, versions).
Op times are scaled to a nominal host speed; see speed.py.  See README.md
beside this file for the metrics and workloads.
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("sweep", "compute_closed", "compute_numeric", "verify")
SETUP_PROBES = 8  # fresh processes that repeat the set-up, besides this one
MAX_REPORTED_FAILURES = 5


class Context:
    """Where ops write: a scratch directory and the captured standard output."""

    def __init__(self, tmp_dir: str):
        self.tmp_dir = tmp_dir
        self.stdout = io.StringIO()

    def take_stdout(self) -> str:
        text = self.stdout.getvalue()
        self.stdout.seek(0)
        self.stdout.truncate()
        return text


def set_up(workload: str, seed: int, ctx: Context):
    """Import the package and run the workload's first op, untimed.

    Returns (workload, set-up seconds).  The clock covers the import and the
    first op; generating the first op's input is not counted.
    """
    t0 = time.perf_counter()
    import workloads

    t1 = time.perf_counter()
    w = workloads.WORKLOADS[workload]
    first = w.make_pool(seed, 1, ctx)[0]
    t2 = time.perf_counter()
    out = w.run(first, ctx)
    t3 = time.perf_counter()
    w.check(first, out, ctx)
    return w, (t1 - t0) + (t3 - t2)


def pool_size(w, per_s: float, seconds: int) -> int:
    """per_s items per second, rounded up to whole cycles of the workload's mix."""
    return math.ceil(per_s * seconds / w.pool_cycle) * w.pool_cycle


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of one fresh interpreter running this script."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


class Loop:
    """Runs ops one after another, timing each and applying its gates.

    With a speed probe, the probe samples the host's speed between ops.
    """

    def __init__(self, w, ctx: Context, tracer=None, probe=None):
        self.w, self.ctx, self.tracer, self.probe = w, ctx, tracer, probe
        self.starts_ns: list[int] = []
        self.times_ns: list[int] = []
        self.busy_ns = 0
        self.states = 0
        self.failed = 0

    def run(self, items, budget_ns=None) -> int:
        """Run items in turn; with budget_ns, stop once ops have taken that long.

        Returns the time the ops took, in nanoseconds.  Pass an endless
        iterator with a budget: the loop takes an item only to run it.
        """
        busy = 0
        for item in items:
            if self.tracer:
                self.tracer.op = len(self.times_ns)
                self.tracer.enabled = True
            err = None
            t = time.perf_counter_ns()
            try:
                out = self.w.run(item, self.ctx)
            except Exception:  # a failed op is counted, and the run goes on
                err = traceback.format_exc()
            dt = time.perf_counter_ns() - t
            if self.tracer:
                self.tracer.enabled = False
            busy += dt
            self.busy_ns += dt
            self.starts_ns.append(t)
            self.times_ns.append(dt)
            self.states += item.states
            if err is None:
                try:
                    self.w.check(item, out, self.ctx)
                except Exception:
                    err = traceback.format_exc()
            if err is not None:
                self.failed += 1
                if self.failed <= MAX_REPORTED_FAILURES:
                    print(f"op {len(self.times_ns) - 1} ({item.kind}) failed:\n{err}",
                          file=sys.stderr)
            if self.probe:
                self.probe.sample(self.busy_ns)
            if budget_ns is not None and busy >= budget_ns:
                break
        return busy


def timed_run(w, args, ctx: Context, own_setup_s: float):
    """End-to-end metrics: ops cycle through the pool for --seconds of op time.

    Op times are scaled to the host's nominal speed (see speed.py); the
    unscaled figures go to the details line.  The set-up probes are spread
    over the run, one before each equal share of the op time, so that their
    median samples the whole run.
    """
    import speed

    setup_samples = [own_setup_s]
    pool = w.make_pool(args.seed, pool_size(w, w.pool_per_s, args.seconds), ctx)
    ops = itertools.cycle(pool)
    probe = speed.SpeedProbe()
    loop = Loop(w, ctx, probe=probe)
    for k in range(1, SETUP_PROBES + 1):
        setup_samples.append(probe_setup(args.workload, args.seed))
        loop.run(ops, args.seconds * 10**9 * k // SETUP_PROBES - loop.busy_ns)
    n = len(loop.times_ns)
    tail_rank = max(0, math.ceil(w.tail_percentile / 100 * n) - 1)  # nearest rank

    def timings(times):
        ordered = sorted(times)
        return {"states_per_s": loop.states / (sum(times) / 1e9),
                "op_ms_p50": statistics.median(ordered) / 1e6,
                "op_ms_tail": ordered[tail_rank] / 1e6}

    scales = [probe.scale(t, dt) for t, dt in zip(loop.starts_ns, loop.times_ns)]
    scaled = timings([dt * f for dt, f in zip(loop.times_ns, scales)])
    units = {"states_per_s": "states/s", "op_ms_p50": "ms", "op_ms_tail": "ms"}
    metrics = {name: (v, units[name]) for name, v in scaled.items()}
    metrics["setup_s"] = (statistics.median(setup_samples), "s")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    details = {"pool": len(pool), "samples": n, "states": loop.states,
               "tail_percentile": w.tail_percentile, "tail_samples_beyond": n - 1 - tail_rank,
               "error_rate": loop.failed / n, "setup_samples_s": setup_samples,
               "unscaled": timings(loop.times_ns), "kernel_samples": len(probe.took_ns),
               "speed_scale_quartiles": statistics.quantiles(scales, n=4)}
    return n, loop.failed, metrics, details


def traced_run(w, args, ctx: Context):
    """Per-layer metrics: one untraced, then one traced pass over a fixed pool.

    The pool's size depends only on the workload and --seconds, so call
    counts are fixed by the seed.
    """
    import tracing

    pool = w.make_pool(args.seed, pool_size(w, w.trace_per_s, args.seconds), ctx)
    plain = Loop(w, ctx)
    plain_ns = plain.run(pool)
    tracer = tracing.Tracer()
    tracer.install()
    traced = Loop(w, ctx, tracer)
    traced_ns = traced.run(pool)
    tracer.save(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz")

    metrics = {}
    for layer, row in tracer.summary(traced_ns).items():
        metrics[f"{layer}.calls"] = (row["calls"], "count")
        metrics[f"{layer}.self_s"] = (row["self_s"], "s")
        metrics[f"{layer}.share"] = (row["share"], "ratio")
        metrics[f"{layer}.errors"] = (row["errors"], "count")
    calls = tracer.calls_by_function()
    pairs = sum(calls[name] * k for name, k in tracing.oracle_pairs_per_call().items())
    oracle_s = metrics["oracle.self_s"][0]
    metrics["oracle.pairs"] = (pairs, "count")
    metrics["oracle.pairs_per_s"] = (pairs / oracle_s if oracle_s else 0.0, "1/s")
    metrics["trace.overhead"] = (
        (traced.states / traced_ns) / (plain.states / plain_ns), "ratio")
    details = {"pool": len(pool), "untraced_ops_s": plain_ns / 1e9,
               "traced_ops_s": traced_ns / 1e9, "spans": len(tracer.fn),
               "calls_by_function": calls}
    return 2 * len(pool), plain.failed + traced.failed, metrics, details


def run_one(args) -> int:
    OUT_DIR.mkdir(exist_ok=True)
    ctx = Context(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
    try:
        with contextlib.redirect_stdout(ctx.stdout):
            w, setup_s = set_up(args.workload, args.seed, ctx)
            if args.trace:
                attempted, failed, metrics, details = traced_run(w, args, ctx)
            elif not args.setup_probe:
                attempted, failed, metrics, details = timed_run(w, args, ctx, setup_s)
    finally:
        shutil.rmtree(ctx.tmp_dir, ignore_errors=True)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    import numpy

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "cpus": os.cpu_count(),
        "machine": platform.processor() or platform.machine(), **details,
    }))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process; one table of metrics."""
    all_ok = True
    print(f"{'workload':<16} {'metric':<28} {'value':>16}  unit")
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"{name:<16} run exited {proc.returncode}")
            all_ok = False
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        all_ok = all_ok and result["correct"]
        rows = dict(result["metrics"])
        rows["error_rate"] = {"value": result["failed"] / result["attempted"],
                              "unit": "ratio"}
        for metric, m in rows.items():
            print(f"{name:<16} {metric:<28} {m['value']:>16.6g}  {m['unit']}")
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "geodiscord" / "__init__.py").is_file():
        print(f"error: no geodiscord sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
