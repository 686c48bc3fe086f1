"""The three workloads: their inputs, their tasks and the check of each task.

A workload's ``groups`` are loaded in set-up through ``catalog.load_group``
(parse, Schreier-Sims, order check).  One round runs every task once.  A task
is a short list of steps, each one call (or a few small calls) into cgtkit's
public functions through their modules, so a traced run sees every call and
the worker can time every step on its own.  The steps of a task share a
context dict: the heavy objects (class systems, tables) live there until the
task ends, and the plain-data record under ``"rec"`` is what ``references``
checks after the round's clock has stopped.

Every step is kept well under the length of the host's slow spells (a few
seconds), so that the fastest of a run's repetitions of a step is a steady
figure; see README.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import sympy
from sympy.core.cache import clear_cache as clear_sympy_cache

from cgtkit import (catalog, chartab, classalg, fixspace, gentriples, permgroup,
                    sl2, symmchar, zsigmondy)

import references as ref


@dataclass
class Task:
    key: str
    tag: str  # group spelled as the data files spell it, for per-group spans
    steps: list  # [(step name, fn(ctx) -> None)]
    check: Callable[[dict], list]


def file_tag(name: str) -> str:
    """'L2(32)' -> 'L2_32', as catalog names the table files."""
    return name.replace("(", "_").replace(")", "")


def reset_session() -> None:
    """Drop what an earlier round left in cgtkit's session caches and in
    sympy's caches (its factor cache remembers every factorization), so that
    every round does the same work."""
    for cache in ("_class_cache", "_table_cache"):
        getattr(catalog, cache, {}).clear()
    clear_sympy_cache()
    getattr(sympy, "factor_cache", {}).clear()
    for module in (catalog, chartab, classalg, fixspace, gentriples, permgroup,
                   sl2, symmchar, zsigmondy):
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def load_groups(names) -> dict:
    return {name: catalog.load_group(name)[1] for name in names}


def _rec(ctx: dict) -> dict:
    return ctx.setdefault("rec", {})


# -- sporadic: the Table 5 pipeline, one group at a time ---------------------------

# M11 and M12: the element index, class finding and the class-sum matrices.
# J1 and M22 are left out: their class finding alone takes 4.6 s and 11.6 s
# here, longer than the host's fast and slow spells, so no repetition of it
# within a run is steady (README.md, "Noise").
SPORADIC_GROUPS = ["M11", "M12"]
SPORADIC_CLASS = {"M11": "11a", "M12": ref.TABLE5["M12"][0]}


def _sporadic_steps(name: str, chain) -> list:
    cname = SPORADIC_CLASS[name]

    def classes(ctx):
        ctx["gc"] = permgroup.conjugacy_classes(chain)
        _rec(ctx).update(group=name, order=chain.order(),
                         n_classes=len(ctx["gc"].classes))

    def dixon(ctx):
        ctx["table"] = chartab.dixon_table(ctx["gc"], name)
        _rec(ctx)["degrees"] = ctx["table"].degrees

    def formula(ctx):
        t = ctx["table"]
        _rec(ctx)["formula"] = [classalg.n_a(t, cname, 1), classalg.n_a(t, cname, -2)]

    def brute(ctx):
        _rec(ctx)["brute"] = [
            gentriples.enumerate_triples(chain, ctx["gc"], cname, a, classify=False,
                                         table=ctx["table"], group_name=name).total_pairs
            for a in (1, 2)]

    def neumann(ctx):
        _rec(ctx)["neumann_ok"] = fixspace.neumann_scan(ctx["table"])["ok"]

    return [("classes", classes), ("dixon", dixon), ("formula", formula),
            ("brute", brute), ("neumann", neumann)]


def sporadic_tasks(ctx: dict, seed: int) -> list:
    return [Task(f"table5.{name}", file_tag(name), _sporadic_steps(name, ctx[name]),
                 ref.check_sporadic)
            for name in SPORADIC_GROUPS]


# -- small_tables: a catalog session on small groups -----------------------------

# L2(q) for q > 25 is left out: L2(32)'s table alone takes about 9 s here,
# and each of L2(27..31) about 1-1.6 s in one call.
L2_QS = [5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25]
SMALL_GROUPS = [f"L2({q})" for q in L2_QS] + ["U3(3)", "SL3(2)"]
POWER_EXPONENTS = [r for r in range(2, 33) if ref.is_prime_power(r)]
SCOTT_REPS = ["A5:std4", "SL2(4):nat", "SL2(8):nat", "SL3(2):nat"]
SCOTT_TUPLES_PER_REP = 25
SCOTT_GROUPS = ["A5", "SL2(4)", "SL2(8)"]


def _small_steps(name: str, q) -> list:
    def classes(ctx):
        ctx["cs"] = catalog.class_system(name)

    def powers(ctx):
        _rec(ctx)["powers_not_ok"] = [r for r in POWER_EXPONENTS
                                      if not classalg.two_mth_powers(ctx["cs"], r).ok]

    def table(ctx):
        t = ctx["table"] = catalog.character_table(name, use_file_cache=False)
        _rec(ctx).update(group=name, q=q, order=t.order, n_classes=t.n_classes,
                         degrees=t.degrees)

    def neumann(ctx):
        _rec(ctx)["neumann_ok"] = fixspace.neumann_scan(ctx["table"])["ok"]

    def macbeath(ctx):
        _rec(ctx)["macbeath"] = [(r.class_name, r.element_order, r.covered)
                                 for r in sl2.macbeath_cover(ctx["table"], q)]

    steps = [("classes", classes), ("powers", powers), ("table", table),
             ("neumann", neumann)]
    return steps + [("macbeath", macbeath)] if q is not None else steps


def _sz8_steps() -> list:
    """Sz(8)'s table in two steps (class finding, then Dixon), each about a
    second, where ``catalog.character_table`` would be one of two."""
    def classes(ctx):
        ctx["cs"] = catalog.class_system("Sz(8)")

    def dixon(ctx):
        ctx["table"] = chartab.dixon_table(ctx["cs"], "Sz(8)")

    def n1_eps(ctx):
        _rec(ctx).update(n1_13a=classalg.n_a(ctx["table"], "13a", 1),
                         eps=classalg.eps_a(ctx["table"], "13a", 1))

    return [("classes", classes), ("dixon", dixon), ("n1.eps", n1_eps)]


def _u33_covers(ctx):
    table = catalog.character_table("U3(3)", use_file_cache=False)
    _rec(ctx)["covers"] = {c: classalg.covers(table, c, c).covered
                           for c in ("7a", "7b", "8a", "8b")}


def _scott_steps(spec: str, seed: int) -> list:
    def tuples(ctx):
        ctx["module"] = fixspace.catalog_module_rep(spec)
        ctx["tuples"] = fixspace.random_scott_tuples(ctx["module"],
                                                     SCOTT_TUPLES_PER_REP, r=3,
                                                     seed=seed)

    def check(ctx):
        violations = sum(not fixspace.scott_check(ctx["module"], t)["ok"]
                         for t in ctx["tuples"])
        _rec(ctx).update(module=spec, wanted=SCOTT_TUPLES_PER_REP,
                         tuples=len(ctx["tuples"]), violations=violations)

    return [("tuples", tuples), ("check", check)]


def small_tables_tasks(ctx: dict, seed: int) -> list:
    tasks = [Task(f"group.{name}", file_tag(name), _small_steps(name, q),
                  ref.check_small_group)
             for name, q in zip(SMALL_GROUPS, L2_QS + [None] * 2)]
    tasks.append(Task("sz8", "Sz8", _sz8_steps(), ref.check_sz8))
    tasks.append(Task("u33.covers", "U3_3", [("covers", _u33_covers)],
                      ref.check_u33_covers))
    tasks += [Task(f"scott.{spec}", file_tag(spec.split(":")[0]),
                   _scott_steps(spec, seed), ref.check_scott)
              for spec in SCOTT_REPS]
    return tasks


# -- combinatorial: no Dixon table, one small element index (A8) ----------------

ZSIG_Q_MAX = 64
ZSIG_E_MAX = 30
# q^e - 1 <= 2^96: beyond it single factorizations take up to 3.4 s here.
ZSIG_BOUND = 1 << 96
ZSIG_QS = [q for q in range(2, ZSIG_Q_MAX + 1) if ref.is_prime_power(q)]
LEMMA_NS = range(11, 31)
PROP77_NS = list(ref.PROP77_ORDERS) + [18]


def _zsigmondy_steps() -> list:
    def classify(ctx):
        found = zsigmondy.classify_small_zsigmondy(ZSIG_Q_MAX, ZSIG_E_MAX, ZSIG_BOUND)
        _rec(ctx).update({cat: sorted((r.q, r.e) for r in found if r.category == cat)
                          for cat in ("one", "e_plus_1", "two_e_plus_1")})
        _rec(ctx).update(q_max=ZSIG_Q_MAX, e_max=ZSIG_E_MAX, bound=ZSIG_BOUND,
                         factored={})

    def scan(ctx):
        ctx["reports"] = zsigmondy.scan_reports(ZSIG_Q_MAX, ZSIG_E_MAX, ZSIG_BOUND)

    def factor(q):
        def step(ctx):
            _rec(ctx)["factored"].update(
                {(r.q, r.e): (r.phi_star, zsigmondy.prime_divisors(r.phi_star))
                 for r in ctx["reports"] if r.q == q})
        return step

    return [("classify", classify), ("scan", scan)] + [
        (f"factor.q{q}", factor(q)) for q in ZSIG_QS]


def _an_triples_steps(n: int, chain, classify: bool) -> list:
    """Class 7a, a = 1, with ``symmchar.an_table(n)`` as the formula oracle;
    A8 classifies every pair by the subgroup it generates (one stabilizer
    chain per pair), A10 only counts them."""
    name = f"A{n}"

    def classes(ctx):
        ctx["cs"] = catalog.class_system(name)

    def table(ctx):
        ctx["table"] = symmchar.an_table(n)
        _rec(ctx)["formula"] = classalg.n_a(ctx["table"], "7a", 1)

    def triples(ctx):
        r = gentriples.enumerate_triples(chain, ctx["cs"], "7a", 1,
                                         classify=classify, table=ctx["table"],
                                         group_name=name)
        _rec(ctx).update(group=name, total=r.total_pairs,
                         generating=r.generating_pairs,
                         histogram=sorted(r.subgroup_histogram.items()))

    return [("classes", classes), ("table", table), ("triples", triples)]


def _lemma(n: int):
    def step(ctx):
        c = gentriples.build_lemma42(n) if n % 2 else gentriples.build_lemma43(n)
        _rec(ctx).update(n=n, order=c.chain.order(),
                         involution_support=c.involution.support_size())
    return step


def _prop77(n: int):
    def step(ctx):
        if n == 18:
            cs = symmchar.AnClassSystem(18)
            c17 = [c.name for c in cs.classes if c.rep_order == 17]
            _rec(ctx).update(n=n, covers=symmchar.an_pair_covers(18, c17[0], c17[1])[0])
            return
        o1, o2 = ref.PROP77_ORDERS[n]
        cs = symmchar.AnClassSystem(n)
        firsts = [c.name for c in cs.classes if c.rep_order == o1]
        seconds = [c.name for c in cs.classes if c.rep_order == o2]
        found = next(((a, b) for a in firsts for b in seconds
                      if symmchar.an_pair_covers(n, a, b)[0]), None)
        _rec(ctx).update(n=n, found=found)
        if n == 10:
            _rec(ctx)["pairs_cover"] = [symmchar.an_pair_covers(10, a, b)[0]
                                        for a, b in ref.PROP77_A10_PAIRS]
    return step


def combinatorial_tasks(ctx: dict, seed: int) -> list:
    tasks = [Task("zsigmondy", "", _zsigmondy_steps(), ref.check_zsigmondy),
             Task("a10.7a", "A10", _an_triples_steps(10, ctx["A10"], False),
                  ref.check_a10),
             Task("a8.7a", "A8", _an_triples_steps(8, ctx["A8"], True),
                  ref.check_a8)]
    tasks += [Task(f"lemma.n{n}", f"A{n}", [("build", _lemma(n))], ref.check_lemma)
              for n in LEMMA_NS]
    tasks += [Task(f"prop77.A{n}", f"A{n}", [("search", _prop77(n))], ref.check_prop77)
              for n in PROP77_NS]
    return tasks


@dataclass
class Workload:
    groups: list
    tasks: Callable[[dict, int], list]


WORKLOADS = {
    "sporadic": Workload(SPORADIC_GROUPS, sporadic_tasks),
    "small_tables": Workload(SMALL_GROUPS + SCOTT_GROUPS + ["Sz(8)"],
                             small_tables_tasks),
    "combinatorial": Workload(["A10", "A8"], combinatorial_tasks),
}
