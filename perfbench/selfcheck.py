"""Checks that the benchmark harness itself works.  Run from a checkout root:

    python3 perfbench/selfcheck.py

1. BENCHMARK.json, the workload table, the per-layer metric table and
   expectations.json name the same workloads and metrics.
2. A deliberately wrong expected answer makes the run report a failed case
   (failed_frac above 0) and exit non-zero.
3. Two traced runs of every workload on one seed report identical counts.

Takes about two minutes.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import EXACT_COUNTS, LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7


def run(workload: str, trace: int, *extra: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"run.py --workload {workload} exited {proc.returncode}:\n{proc.stderr}")
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def check_tables() -> list[str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect = json.loads((HERE / "expectations.json").read_text())
    errors = []
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if {m["name"]: m["unit"] for m in bench["per_layer"]} != LAYER_METRICS:
        errors.append("BENCHMARK.json per_layer differs from spans.LAYER_METRICS")
    known = set(LAYER_METRICS)
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    for name, entry in expect["workloads"].items():
        for move in entry["moves"]:
            errors += [f"expectations.json {name}: unknown layer metric {m}"
                       for m in move["layer"] if m not in known]
            errors += [f"expectations.json {name}: unknown end-to-end metric {m}"
                       for m in move["end_to_end"] if m not in end_to_end]
    for prediction in expect["predictions"]:
        errors += [f"expectations.json prediction: unknown layer metric {m}"
                   for m in prediction["lowers"] if m not in known]
    return errors


def main() -> int:
    errors = check_tables()

    code, result = run("catalog", 0, "--wrong-expected")
    if code == 0 or result["correct"] or not result["failed"] > 0:
        errors.append(f"wrong expected answer went unnoticed: exit {code}, {result}")

    for workload in WORKLOADS:
        runs = [run(workload, 1) for _ in range(2)]
        for code, result in runs:
            if code != 0:
                errors.append(f"traced {workload} run exited {code}")
        first, second = (r["metrics"] for _, r in runs)
        for name in EXACT_COUNTS:
            if first[name]["value"] != second[name]["value"]:
                errors.append(f"{workload}: {name} {first[name]['value']} "
                              f"!= {second[name]['value']} on seed {SEED}")

    for e in errors:
        print(f"FAIL {e}")
    print("selfcheck " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
