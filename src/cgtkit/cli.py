"""Command-line front end.

Every subcommand prints a human-readable table by default and JSON lines
with --json.  Randomized operations take --seed (default 0) and echo the
seed in their output.  Exit status: 0 on success, 1 when a verification
check fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import catalog
from .classalg import covers, n_a
from .gentriples import (DEFAULT_BUDGET, beauville_search, build_lemma42, build_lemma43,
                         enumerate_triples, search_triple, spread_class_check)
from .fixspace import (catalog_module_rep, neumann_scan, random_scott_tuples,
                       scott_check, tensor_power_min_ratio)
from .sl2 import macbeath_cover, trace_image
from .zsigmondy import ZsigmondyReport, _categorize, phi_star, scan_reports
from .verify import DEFAULT_SEED, SUITES, run_suite


def _emit(args, obj, human: str | None = None):
    if args.json:
        print(json.dumps(obj))
    else:
        print(human if human is not None else json.dumps(obj, indent=2))


def _add_common(p):
    p.add_argument("--json", action="store_true", help="machine output (JSON lines)")
    p.add_argument("--data-dir", default=None,
                   help="override the data directory (or set CGT_DATA_DIR)")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="cgtkit",
        description="Exact computational group theory toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zsigmondy", help="Zsigmondy part of q^e - 1")
    p.add_argument("--q", type=int)
    p.add_argument("--e", type=int)
    p.add_argument("--scan", nargs=2, type=int, metavar=("QMAX", "EMAX"))
    _add_common(p)

    p = sub.add_parser("chartab", help="character table of a catalog group")
    p.add_argument("--group", required=True)
    p.add_argument("--save", default=None, help="write the table JSON here")
    _add_common(p)

    p = sub.add_parser("na", help="structure constant n_a(C)")
    p.add_argument("--group", required=True)
    p.add_argument("--class", dest="cname", required=True)
    p.add_argument("--a", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("cover", help="does C1*C2 cover all nontrivial classes")
    p.add_argument("--group", required=True)
    p.add_argument("--c1", required=True)
    p.add_argument("--c2", required=True)
    _add_common(p)

    p = sub.add_parser("triples", help="exhaustive generating-triple census")
    p.add_argument("--group", required=True)
    p.add_argument("--class", dest="cname", required=True)
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--classify", action="store_true")
    _add_common(p)

    p = sub.add_parser("searchtriple", help="randomized triple witness search")
    p.add_argument("--group", required=True)
    p.add_argument("--class", dest="cname", required=True)
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    _add_common(p)

    for nm in ("lemma42", "lemma43"):
        p = sub.add_parser(nm, help=f"explicit A_n construction ({nm})")
        p.add_argument("--n", type=int, required=True)
        _add_common(p)

    p = sub.add_parser("scott", help="Scott inequality on a generating tuple")
    p.add_argument("--group", required=True)
    p.add_argument("--rep", required=True, help="e.g. std4 or nat")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)

    p = sub.add_parser("neumann", help="eigenspace-bound witness scan")
    p.add_argument("--group", required=True)
    _add_common(p)

    p = sub.add_parser("tensorpower", help="min fixed-ratio on tensor powers")
    p.add_argument("--base", required=True, help="e.g. A5:5dim")
    p.add_argument("--m", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("macbeath", help="class-square coverage for L2(q)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--order", type=int, default=None,
                   help="restrict to classes of this element order")
    _add_common(p)

    p = sub.add_parser("traceimage", help="trace surjectivity for SL2(q)")
    p.add_argument("--q", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("spread", help="spread-type generation check")
    p.add_argument("--group", required=True)
    p.add_argument("--class", dest="cname", required=True)
    _add_common(p)

    p = sub.add_parser("beauville", help="unmixed Beauville structure search")
    p.add_argument("--group", required=True)
    _add_common(p)

    p = sub.add_parser("verify-paper", help="run the verification suites")
    p.add_argument("--suite", default="all",
                   help=f"one of: {', '.join(list(SUITES) + ['all'])}")
    _add_common(p)
    return ap


def cmd_zsigmondy(args) -> int:
    if args.scan:
        qmax, emax = args.scan
        for r in scan_reports(qmax, emax):
            print(json.dumps(r.to_json()))
        return 0
    if args.q is None or args.e is None:
        print("zsigmondy needs --q and --e (or --scan)", file=sys.stderr)
        return 2
    val = phi_star(args.q, args.e)
    r = ZsigmondyReport(args.q, args.e, val, _categorize(val, args.e))
    _emit(args, r.to_json(),
          f"phi_star({args.q}, {args.e}) = {val}  [{r.category}]")
    return 0


def cmd_chartab(args) -> int:
    table = catalog.character_table(args.group)
    if args.save:
        catalog.save_table(table, args.save)
    if args.json:
        print(json.dumps(table.to_json()))
    else:
        names = [c.name for c in table.classes]
        print(f"{table.group_name}: order {table.order}, "
              f"{table.n_classes} classes: {' '.join(names)}")
        for row in table.values:
            print("  " + "  ".join(str(v) for v in row))
    return 0


def cmd_na(args) -> int:
    table = catalog.character_table(args.group)
    count = n_a(table, args.cname, args.a)
    _emit(args, {"group": args.group, "class": args.cname, "a": args.a,
                 "count": count},
          f"n_{args.a}({args.cname}) = {count}")
    return 0


def cmd_cover(args) -> int:
    table = catalog.character_table(args.group)
    rep = covers(table, args.c1, args.c2)
    _emit(args, rep.to_json(),
          f"{args.c1}*{args.c2} covers: {rep.covered}"
          + (f"  missed: {', '.join(rep.missed)}" if rep.missed else ""))
    return 0


def cmd_triples(args) -> int:
    chain = catalog.load_group(args.group)[1]
    cs = catalog.class_system(args.group)
    table = catalog.character_table(args.group)
    r = enumerate_triples(chain, cs, args.cname, args.a,
                          classify=args.classify, table=table,
                          group_name=args.group)
    human = (f"{args.group} {r.class_name} a={args.a}: total {r.total_pairs}"
             + (f", generating {r.generating_pairs}" if args.classify else ""))
    if args.classify:
        for key, cnt in sorted(r.histogram_json().items()):
            human += f"\n  subgroup {key}: {cnt}"
    _emit(args, r.to_json(), human)
    return 0


def cmd_searchtriple(args) -> int:
    chain = catalog.load_group(args.group)[1]
    cs = catalog.class_system(args.group)
    w = search_triple(chain, cs, args.cname, args.a, seed=args.seed,
                      budget=args.budget)
    obj = {"group": args.group, "class": args.cname, "a": args.a,
           "seed": args.seed,
           "witness": [str(p) for p in w] if w else None}
    _emit(args, obj,
          f"seed {args.seed}: " + ("witness " + " ".join(str(p) for p in w)
                                   if w else "inconclusive"))
    return 0


def cmd_lemma(args, builder) -> int:
    c = builder(args.n)
    obj = {"n": args.n, "x": str(c.x), "y": str(c.y),
           "involution": str(c.involution), "order": c.chain.order()}
    _emit(args, obj,
          f"n={args.n}: x={c.x} y={c.y} involution moves "
          f"{c.involution.support_size()} points; <x,y> order {c.chain.order()}")
    return 0


def cmd_scott(args) -> int:
    module = catalog_module_rep(f"{args.group}:{args.rep}")
    tup = random_scott_tuples(module, 1, r=3, seed=args.seed)[0]
    res = scott_check(module, tup)
    res["seed"] = args.seed
    _emit(args, res,
          f"seed {args.seed}: lhs={res['lhs']} rhs={res['rhs']} ok={res['ok']}")
    return 0 if res["ok"] else 1


def cmd_neumann(args) -> int:
    table = catalog.character_table(args.group)
    res = neumann_scan(table)
    human = f"{args.group}: ok={res['ok']}"
    for i, cls in sorted(res["witness"].items()):
        human += f"\n  character {i} (degree {table.degrees[i]}): witness {cls}"
    _emit(args, {"group": args.group, **res}, human)
    return 0 if res["ok"] else 1


def cmd_tensorpower(args) -> int:
    base, _, dim = args.base.partition(":")
    if not dim.endswith("dim"):
        print("--base must look like A5:5dim", file=sys.stderr)
        return 2
    want = int(dim[:-3])
    table = catalog.character_table(base)
    idx = next((i for i, d in enumerate(table.degrees) if d == want), None)
    if idx is None:
        print(f"{base} has no irreducible of degree {want}", file=sys.stderr)
        return 2
    res = tensor_power_min_ratio(table, idx, args.m)
    obj = {"base": args.base, "m": args.m,
           "min_ratio": str(res["min_ratio"]),
           "argmin": ["*".join(t) for t in res["argmin"]]}
    _emit(args, obj,
          f"{args.base} m={args.m}: min ratio {res['min_ratio']} at "
          + "; ".join("*".join(t) for t in res["argmin"]))
    return 0


def cmd_macbeath(args) -> int:
    table = catalog.character_table(f"L2({args.q})")
    reports = macbeath_cover(table, args.q)
    if args.order is not None:
        reports = [r for r in reports if r.element_order == args.order]
    rows = []
    ok = True
    for r in reports:
        rows.append({"class": r.class_name, "order": r.element_order,
                     "in_hypothesis": r.in_hypothesis, "covered": r.covered,
                     "missed": r.missed})
        if r.in_hypothesis and not r.covered:
            ok = False
    human = "\n".join(
        f"L2({args.q}) {r['class']} (order {r['order']}): "
        f"{'covered' if r['covered'] else 'NOT covered'}"
        + ("" if r["in_hypothesis"] else "  [outside hypothesis]")
        for r in rows)
    _emit(args, {"q": args.q, "classes": rows, "ok": ok}, human)
    return 0 if ok else 1


def cmd_traceimage(args) -> int:
    values = sorted(trace_image(args.q))
    obj = {"q": args.q, "size": len(values), "full": len(values) == args.q}
    _emit(args, obj,
          f"q={args.q}: |trace image| = {len(values)}"
          + (" (all of GF(q))" if len(values) == args.q else ""))
    return 0


def cmd_spread(args) -> int:
    chain = catalog.load_group(args.group)[1]
    cs = catalog.class_system(args.group)
    ok, failing = spread_class_check(chain, cs, args.cname)
    _emit(args, {"group": args.group, "class": args.cname, "ok": ok,
                 "failing": failing},
          f"{args.group} spread with {args.cname}: {ok}"
          + (f"  failing: {', '.join(failing)}" if failing else ""))
    return 0 if ok else 1


def cmd_beauville(args) -> int:
    chain = catalog.load_group(args.group)[1]
    cs = catalog.class_system(args.group)
    got = beauville_search(chain, cs)
    if got is None:
        _emit(args, {"group": args.group, "found": None},
              f"{args.group}: no unmixed Beauville structure (exhaustive)")
        return 0
    (x1, y1), (x2, y2) = got
    obj = {"group": args.group,
           "found": {"pair1": [str(x1), str(y1)], "pair2": [str(x2), str(y2)]}}
    _emit(args, obj,
          f"{args.group}: ({x1}, {y1}) and ({x2}, {y2})")
    return 0


def cmd_verify(args) -> int:
    reports = run_suite(args.suite)
    ok = True
    for rep in reports:
        if args.json:
            print(json.dumps(rep.to_json()))
        else:
            print(f"suite {rep.suite} (seed {DEFAULT_SEED}):")
            for c in rep.checks:
                mark = c.status.upper()
                line = f"  [{mark}] {c.check_id}: got {c.got}"
                if c.status == "fail":
                    line += f"  (expected {c.expected})"
                line += f"  [{c.elapsed:.2f}s]"
                print(line)
        ok = ok and rep.ok
    return 0 if ok else 1


COMMANDS = {
    "zsigmondy": cmd_zsigmondy, "chartab": cmd_chartab, "na": cmd_na,
    "cover": cmd_cover, "triples": cmd_triples, "searchtriple": cmd_searchtriple,
    "lemma42": lambda args: cmd_lemma(args, build_lemma42),
    "lemma43": lambda args: cmd_lemma(args, build_lemma43),
    "scott": cmd_scott, "neumann": cmd_neumann, "tensorpower": cmd_tensorpower,
    "macbeath": cmd_macbeath, "traceimage": cmd_traceimage, "spread": cmd_spread,
    "beauville": cmd_beauville, "verify-paper": cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    saved = os.environ.get("CGT_DATA_DIR")
    if args.data_dir:
        os.environ["CGT_DATA_DIR"] = args.data_dir
    try:
        return COMMANDS[args.command](args)
    except (KeyError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:  # --data-dir applies to this command only
        if saved is None:
            os.environ.pop("CGT_DATA_DIR", None)
        else:
            os.environ["CGT_DATA_DIR"] = saved


if __name__ == "__main__":
    sys.exit(main())
