"""Benchmark of the torus-rips library: one workload, timed from outside.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gf2 --seed 0 --seconds 40 --trace 0

Each pass over the workload's case list runs in a fresh single-threaded
interpreter (worker.py), one after another, until the next pass would end
after ``--seconds``; at least one pass always runs.  Every case is checked
against its exact expected answer.

``--trace 0`` reports the end-to-end metrics.  ``wall_s`` is the wall time
of the whole case list, taken as the sum over cases of each case's median
wall time across passes, so a slow spell of the host in one pass moves only
the cases it hit.  ``peak_rss_mb`` is the median over passes of the worker's
peak RSS, and ``setup_s`` the median over all workers, including a few that
only set up, of the time from starting the interpreter to its first case.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of spans.py; ``trace.overhead_s`` is the median traced
minus the median untraced pass wall time.  Spans of a traced run are written
to ``perfbench/out/`` when it ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every case gave its expected answer, 1 when any case failed, and 2 when
the harness itself could not run (no library in the checkout, a worker died
or ran out of time); in that last case no result line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ONLY_WORKERS = 6
HARD_LIMIT_S = 170.0  # every run must end within 180 s
END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


class HarnessError(RuntimeError):
    """The benchmark could not produce a result (as opposed to a wrong answer)."""


def spawn(args: argparse.Namespace, deadline: float, trace: int = 0,
          setup_only: bool = False) -> tuple[float, dict]:
    """Run one worker to the end; return its set-up time and its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if args.wrong_expected:
        cmd.append("--wrong-expected")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0))
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - start
        if line.strip() != "ready":
            raise HarnessError("worker did not finish set-up")
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0))
    except (subprocess.TimeoutExpired, HarnessError) as exc:
        proc.kill()
        proc.wait()
        raise HarnessError(f"worker for {args.workload} stopped: {exc}") from exc
    if proc.returncode != 0:
        raise HarnessError(f"worker for {args.workload} exited with {proc.returncode}")
    if setup_only:
        return setup_s, {}
    return setup_s, json.loads(out.strip().splitlines()[-1])


def measure(args: argparse.Namespace) -> tuple[list[float], list[dict], list[dict]]:
    """Set-up samples, untraced pass results and traced pass results."""
    deadline = time.monotonic() + HARD_LIMIT_S
    setups: list[float] = []
    plain: list[dict] = []
    traced: list[dict] = []
    if not args.trace:
        for _ in range(SETUP_ONLY_WORKERS):
            setups.append(spawn(args, deadline, setup_only=True)[0])
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        setup_s, result = spawn(args, deadline)
        setups.append(setup_s)
        plain.append(result)
        if args.trace:
            traced.append(spawn(args, deadline, trace=1)[1])
        now = time.monotonic()
        if now - start + (now - round_start) > args.seconds:
            return setups, plain, traced


def write_spans(args: argparse.Namespace, plain: list[dict], traced: list[dict]) -> Path:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "span_fields": ["name", "start", "end", "parent", "case"],
        "untraced_wall_s": [p["wall_s"] for p in plain],
        "passes": [
            {key: t[key] for key in ("wall_s", "layers", "reductions", "spans")}
            for t in traced
        ],
    }
    path.write_text(json.dumps(doc))
    return path


def main() -> int:
    if not (ROOT / "src" / "torus_rips" / "__init__.py").is_file():
        print(f"error: no torus_rips sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The parent imports the library only for the tables in spans.py and
    # workloads.py; the measured work runs in worker processes.
    sys.path.insert(0, str(ROOT / "src"))
    from spans import LAYER_METRICS, merge_passes
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="0 runs the library's vertex order; others relabel each homology case")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--wrong-expected", action="store_true",
                        help="corrupt one expected answer, to check that the gate fails")
    args = parser.parse_args()

    try:
        setups, plain, traced = measure(args)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    results = plain + traced
    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    for f in failures:
        print(f"FAILED {json.dumps(f)}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(plain)} untraced and {len(traced)} traced passes")
    print("pass wall_s " + " ".join(f"{p['wall_s']:.4f}" for p in plain)
          + (" | traced " + " ".join(f"{t['wall_s']:.4f}" for t in traced) if traced else ""))
    print(f"failed_frac {len(failures) / attempted:.6g} ratio ({len(failures)}/{attempted} cases)")

    if args.trace:
        try:
            layers = merge_passes([t["layers"] for t in traced])
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        layers["trace.overhead_s"] = (
            statistics.median(t["wall_s"] for t in traced)
            - statistics.median(p["wall_s"] for p in plain)
        )
        for r in traced[0]["reductions"]:
            print("reduction " + " ".join(f"{k}={v}" for k, v in r.items()))
        print(f"spans written to {write_spans(args, plain, traced).relative_to(ROOT)}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in LAYER_METRICS.items()}
    else:
        values = {
            "wall_s": sum(statistics.median(p["case_s"][case] for p in plain)
                          for case in plain[0]["case_s"]),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "setup_s": statistics.median(setups),
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]}
                   for name, v in values.items()}

    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
