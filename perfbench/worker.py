"""One pass over a workload in a fresh interpreter.

Invoked by run.py with the checkout's ``src`` on PYTHONPATH.  It imports the
library, loads the expected-answer tables and generates the seeded inputs,
prints ``ready`` (the parent times set-up up to that line), runs every case
once with its correctness gate, and prints one JSON line with the pass's
wall time, peak RSS, failures and, when traced, spans and layer metrics.
With ``--setup-only`` it stops after ``ready``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

import workloads
from spans import Tracer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--wrong-expected", action="store_true",
                        help="corrupt the first case's expected answer (harness self-check)")
    args = parser.parse_args()

    tracer = Tracer() if args.trace else None
    prepared = workloads.prepare(
        args.workload, args.seed, tracer.counted_space if tracer else lambda s: s
    )
    print("ready", flush=True)
    if args.setup_only:
        return 0

    run_case = workloads.run_case
    if tracer:
        tracer.install()
        run_case = tracer.wrap("bench.case", run_case)
    failures = []
    case_s = {}
    start = time.perf_counter()
    for i, p in enumerate(prepared):
        if tracer:
            tracer.case = p.case.id
        case_start = time.perf_counter()
        try:
            got, want = run_case(p)
        except Exception:  # a raising case is a failed case, not a dead run
            failures.append({"case": p.case.id, "error": traceback.format_exc()})
        else:
            if args.wrong_expected and i == 0:
                want = workloads.corrupt(want)
            if got != want:
                failures.append({"case": p.case.id, **workloads.difference(got, want)})
        case_s[p.case.id] = time.perf_counter() - case_start
    wall = time.perf_counter() - start
    if tracer:
        tracer.uninstall()

    result = {
        "wall_s": wall,
        "case_s": case_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(prepared),
        "failures": failures,
    }
    if tracer:
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.spans
        result["reductions"] = tracer.reductions
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
