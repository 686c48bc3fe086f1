"""One workload in one fresh process: set-up, timed rounds, checks.

``run.py`` starts this file and reads the one JSON line it prints.  With
``--setup-only`` it stops once the inputs are ready.  Untraced, it runs whole
rounds (at least ``MIN_ROUNDS``) until ``--seconds`` would be passed by
another round.  Traced, it runs pairs of one untraced and one traced round,
so that the tracing overhead is measured in the same process.

Every step of a round is timed between two runs of a fixed probe loop, and
its wall and CPU times are rescaled by the probe: a step that ran while the
host gave this process half its usual speed took twice as long, and so did
the probe around it.  ``wall_s`` and ``cpu_s`` are the sums over the steps of
each step's median rescaled time; the raw sums are kept beside them.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Per-layer metrics: every span name below gets "<name>.s" (outermost time,
# summed over the run) and "<name>.self_s" (minus child spans).
TIMED = [
    "catalog.load_group", "catalog.class_system", "catalog.character_table",
    "permgroup.conjugacy_classes", "permgroup.build_chain", "chartab.dixon_table",
    "chartab.verify", "fflinalg.modp", "classalg.triple_count",
    "classalg.two_mth_powers", "sl2.macbeath_cover", "gentriples.enumerate_triples",
    "gentriples.build_lemma", "fixspace.neumann_scan", "fixspace.scott_check",
    "symmchar.class_of_images", "symmchar.an_pair_covers", "symmchar.an_table",
    "zsigmondy.phi_star", "zsigmondy.prime_divisors",
]
COUNTED = [
    "permgroup.conjugacy_classes", "permgroup.build_chain", "chartab.dixon_table",
    "fflinalg.modp", "classalg.triple_count", "symmchar.class_of_images",
    "zsigmondy.prime_divisors",
]
PER_GROUP = {
    "permgroup.conjugacy_classes": ["M11", "M12"],
    "chartab.dixon_table": ["M11", "M12", "Sz8"],
    "gentriples.enumerate_triples": ["M11", "M12", "A10", "A8"],
}
MIN_ROUNDS = 3
# The probe loop's length, and the probe time that defines the reference
# speed: a figure rescaled by it reads as seconds on a host where the probe
# takes exactly 1 ms.  See README.md, "Noise".
PROBE_ITERATIONS = 4000
PROBE_REF_NS = 1_000_000


def layer_metrics(parts: list, overhead_s: float) -> dict:
    """Per-layer metrics from the summaries of one traced round and its set-up;
    the last part is the round."""
    def add(key, name):
        return sum(p[key].get(name, 0) for p in parts)

    out = {}
    for name in TIMED:
        out[f"{name}.s"] = (add("total_s", name), "s")
        out[f"{name}.self_s"] = (add("self_s", name), "s")
    for name in COUNTED:
        out[f"{name}.calls"] = (add("calls", name), "count")
    for name, tags in PER_GROUP.items():
        for tag in tags:
            out[f"{name}.s.{tag}"] = (add("tag_s", f"{name}|{tag}"), "s")
    out["catalog.index_builds"] = (add("site_calls", "catalog.conjugacy_classes"),
                                   "count")
    out["permgroup.index_rss_mb"] = (max(p["index_rss_mb"] for p in parts), "MB")
    out["cyclotomic.add.calls"] = (sum(p["cyclo_add"] for p in parts), "count")
    out["cyclotomic.mul.calls"] = (sum(p["cyclo_mul"] for p in parts), "count")
    out["cyclotomic.ops.s"] = (sum(p["cyclo_s"] for p in parts), "s")
    rnd = parts[-1]
    out["trace.top_level_share"] = (rnd["top_level_s"] / rnd["wall_s"], "ratio")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def probe_ns() -> int:
    """Wall time of a fixed pure-Python loop (integer arithmetic, dict and
    list updates, about 1 ms): the speed the host gives this process now."""
    t0 = time.perf_counter_ns()
    s, d, seen = 0, {}, []
    for i in range(PROBE_ITERATIONS):
        s += (i * 2654435761) % 1000003
        d[i & 255] = s
        seen.append(s & 7)
    return time.perf_counter_ns() - t0


def run_round(tasks: list, tracer=None) -> dict:
    """Every task once on the clock, then every check off it.

    Each step is timed on its own, between two probes; its times are also
    kept rescaled to the reference speed, by PROBE_REF_NS over the mean of
    the two probes.  A step that raises fails its task, whose remaining steps
    are skipped."""
    from workloads import reset_session
    reset_session()
    gc.collect()
    raw, wall, cpu = {}, {}, {}
    records = []
    failed = 0
    clock, cpu_clock = time.perf_counter_ns, time.process_time_ns
    t0 = clock()
    before = probe_ns()
    for task in tasks:
        if tracer is not None:
            tracer.tag = task.tag
        ctx: dict = {}
        try:
            for step, fn in task.steps:
                s0, c0 = clock(), cpu_clock()
                fn(ctx)
                s1, c1 = clock(), cpu_clock()
                after = probe_ns()
                scale = 2 * PROBE_REF_NS / (before + after)
                before = after
                key = f"{task.key}/{step}"
                raw[key] = s1 - s0
                wall[key] = (s1 - s0) * scale
                cpu[key] = (c1 - c0) * scale
            records.append((task, ctx["rec"]))
        except Exception:  # a failing operation is counted, not fatal
            failed += 1
            traceback.print_exc(file=sys.stderr)
            before = probe_ns()
        del ctx
    t1 = clock()
    if tracer is not None:
        tracer.tag = ""
    failures = [msg for task, rec in records for msg in task.check(rec)]
    return {"wall_ns": t1 - t0, "step_raw_ns": raw, "step_wall_ns": wall,
            "step_cpu_ns": cpu, "attempted": len(tasks), "failed": failed,
            "failures": failures}


def per_step(rounds: list, key: str, stat=statistics.median) -> dict:
    """Each step's ``stat`` over the rounds, in seconds."""
    steps = sorted({step for r in rounds for step in r[key]})
    return {step: stat([r[key][step] for r in rounds if step in r[key]]) / 1e9
            for step in steps}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned-ns", type=int, required=True,
                    help="time.monotonic_ns() when the parent started this process")
    ap.add_argument("--trace-file", type=Path)
    args = ap.parse_args(argv)
    first_probe = probe_ns()

    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    import workloads
    import cgtkit
    if not Path(cgtkit.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"cgtkit imported from {cgtkit.__file__}, not from src/")
    workload = workloads.WORKLOADS[args.workload]
    if tracer is not None:
        tracer.install()
    ctx = workloads.load_groups(workload.groups)
    setup_raw_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
    setup_s = setup_raw_s * 2 * PROBE_REF_NS / (first_probe + probe_ns())
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0
    tasks = workload.tasks(ctx, args.seed)

    rounds, traced, layers = [], [], []
    start = time.perf_counter()
    if tracer is not None:
        setup_part = tracer.summary(tracer.START, 0)
    while True:
        if tracer is not None:
            tracer.uninstall()
        rounds.append(run_round(tasks))
        if tracer is not None:
            tracer.install()
            mark = tracer.mark()
            r = run_round(tasks, tracer)
            tracer.uninstall()
            traced.append(r)
            layers.append(tracer.summary(mark, r["wall_ns"]))
        per_pass = (time.perf_counter() - start) / len(rounds)
        if (len(rounds) >= MIN_ROUNDS
                and time.perf_counter() - start + per_pass > args.seconds):
            break

    everything = rounds + traced
    step_wall = per_step(rounds, "step_wall_ns")
    out = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "wall_s": sum(step_wall.values()),
        "cpu_s": sum(per_step(rounds, "step_cpu_ns").values()),
        "raw_wall_s": sum(per_step(rounds, "step_raw_ns").values()),
        "fastest_raw_wall_s": sum(per_step(rounds, "step_raw_ns", min).values()),
        "rounds": len(rounds),
        "round_wall_s": [r["wall_ns"] / 1e9 for r in rounds],
        "step_wall_s": step_wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": sum(r["attempted"] for r in everything),
        "failed": sum(r["failed"] for r in everything),
        "failures": [f for r in everything for f in r["failures"]],
    }
    if tracer is not None:
        overhead = sum(per_step(traced, "step_wall_ns").values()) - out["wall_s"]
        per_round = [layer_metrics([setup_part, part], overhead) for part in layers]
        out["layers"] = {name: [statistics.median(m[name][0] for m in per_round),
                                per_round[0][name][1]]
                         for name in per_round[0]}
        if args.trace_file:
            write_trace(args.trace_file, tracer)
    print(json.dumps(out))
    return 0


def write_trace(path: Path, tracer) -> None:
    names = sorted({s[0] for s in tracer.spans} | {s[5] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"names": names,
                   "fields": ["name", "parent", "start_ns", "end_ns", "tag", "site",
                              "nested", "rss_before", "rss_after"],
                   "spans": [[index[s[0]], s[1], s[2], s[3], s[4], index[s[5]],
                              int(s[6]), s[7], s[8]] for s in tracer.spans]}, fh)


if __name__ == "__main__":
    sys.exit(main())
