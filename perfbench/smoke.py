"""Tiny-size smoke test of the benchmark.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json for one second, untraced and traced.
Checks that each result names every metric of its mode with the unit
BENCHMARK.json gives it, that no op failed (error rate 0), and that a second
traced run of the same seed repeats every call, error and pair count
exactly.  Exits 1 on the first mismatch.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_SUFFIXES = (".calls", ".errors", ".pairs")


def expect(ok: bool, message: str) -> None:
    if not ok:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def run(workload: str, trace: int, seed: int = 1) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    expect(proc.returncode == 0, f"{workload} --trace {trace} exited {proc.returncode}:\n"
           f"{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def check(result: dict, spec_metrics: list, label: str) -> None:
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result keys {sorted(result)}")
    expected = {m["name"]: m["unit"] for m in spec_metrics}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == expected, f"{label}: metrics {got} != {expected}")
    expect(result["attempted"] >= 1, f"{label}: no op attempted")
    expect(result["failed"] == 0 and result["correct"],
           f"{label}: error rate {result['failed']}/{result['attempted']}")


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        check(run(workload, 0), SPEC["end_to_end"], f"{workload} untraced")
        first = run(workload, 1)
        check(first, SPEC["per_layer"], f"{workload} traced")
        again = run(workload, 1)
        for name, m in first["metrics"].items():
            if name.endswith(EXACT_SUFFIXES):
                expect(m["value"] == again["metrics"][name]["value"],
                       f"{workload}: {name} {m['value']} then "
                       f"{again['metrics'][name]['value']}")
        print(f"ok  {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
