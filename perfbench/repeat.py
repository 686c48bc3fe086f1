"""Run one workload under several seeds and print each end-to-end metric's
median, quartiles and spread (interquartile range over median).

    python3 perfbench/repeat.py --workload sporadic --seeds 1-10 --seconds 30

Each run is a separate ``run.py`` process; its result line is also kept in
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=int, default=30)
    args = ap.parse_args(argv)

    values: dict = {}
    units: dict = {}
    shares = set()
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add((result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()),
              flush=True)
    print(f"{args.workload}: {len(args.seeds)} runs, failed/attempted {sorted(shares)}")
    print(f"{'metric':<14}{'unit':<6}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:<14}{units[name]:<6}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}"
              f"{(q3 - q1) / med:>9.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
