"""cgtkit benchmark: one workload, its metrics as one JSON line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sporadic --seed 1 --seconds 30 --trace 0

Untraced (``--trace 0``) it starts six set-up-only processes and then the
measuring process, each a fresh single-threaded Python, and prints the
end-to-end metrics; ``setup_s`` is the median of the seven set-up times.  Traced (``--trace 1``) it starts one process that alternates
untraced and traced rounds and prints the per-layer metrics.  Outputs are
checked against published references; the exit code is 0 only when every
check holds.  A copy of the result, and of the trace, goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("sporadic", "small_tables", "combinatorial")
SETUP_RUNS = 6
DEADLINE_S = 175
SINGLE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def run_worker(args, extra: list, deadline: float) -> dict:
    env = {**os.environ, **SINGLE_THREAD, "PYTHONHASHSEED": "0"}
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--spawned-ns", str(time.monotonic_ns())] + extra
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "cgtkit" / "__init__.py").is_file():
        print(f"no cgtkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        if args.trace:
            main_out = run_worker(args, extra + ["--trace-file",
                                                 str(RESULTS / f"{stem}.spans.json")],
                                  deadline)
            metrics = {name: {"value": v, "unit": unit}
                       for name, (v, unit) in main_out["layers"].items()}
        else:
            setups = [run_worker(args, ["--setup-only"], deadline)["setup_s"]
                      for _ in range(SETUP_RUNS)]
            main_out = run_worker(args, extra, deadline)
            setups.append(main_out["setup_s"])
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "wall_s": {"value": main_out["wall_s"], "unit": "s"},
                "cpu_s": {"value": main_out["cpu_s"], "unit": "s"},
                "peak_rss_mb": {"value": main_out["peak_rss_mb"], "unit": "MB"},
            }
            main_out["setup_samples_s"] = setups
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        return 3

    for msg in main_out["failures"]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    result = {"correct": not main_out["failures"], "attempted": main_out["attempted"],
              "failed": main_out["failed"], "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{stem}.json").write_text(json.dumps({**result, "detail": main_out},
                                                     indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
