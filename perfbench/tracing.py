"""Spans around cgtkit's public functions, installed from outside the package.

``Tracer.install`` replaces each function at the module attribute where its
caller looks it up (``cgtkit.chartab.modp_kernel``, ``cgtkit.gentriples.
build_chain``, ...) with a wrapper that records a span, and wraps the
``Cyclotomic`` operators with counters.  ``uninstall`` puts every original
back.  Spans stay in memory as ``[name, parent, start_ns, end_ns, tag, site,
nested, rss_before, rss_after]`` lists until the run ends; ``nested`` is
true when a span of the same name is already open.

Only the traced run installs the wrappers; the end-to-end numbers always
come from untraced rounds.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

# (module, attribute, span name).  The span name is the layer metric the call
# feeds; one function imported into several modules is wrapped at each.
PATCH_POINTS = [
    ("cgtkit.catalog", "load_group", "catalog.load_group"),
    ("cgtkit.catalog", "class_system", "catalog.class_system"),
    ("cgtkit.catalog", "character_table", "catalog.character_table"),
    ("cgtkit.catalog", "conjugacy_classes", "permgroup.conjugacy_classes"),
    ("cgtkit.catalog", "dixon_table", "chartab.dixon_table"),
    ("cgtkit.catalog", "build_chain", "permgroup.build_chain"),
    ("cgtkit.permgroup", "conjugacy_classes", "permgroup.conjugacy_classes"),
    ("cgtkit.permgroup", "build_chain", "permgroup.build_chain"),
    ("cgtkit.chartab", "conjugacy_classes", "permgroup.conjugacy_classes"),
    ("cgtkit.chartab", "dixon_table", "chartab.dixon_table"),
    ("cgtkit.chartab", "CharacterTable.verify", "chartab.verify"),
    ("cgtkit.chartab", "modp_charpoly", "fflinalg.modp"),
    ("cgtkit.chartab", "modp_kernel", "fflinalg.modp"),
    ("cgtkit.chartab", "modp_matvec", "fflinalg.modp"),
    ("cgtkit.chartab", "modp_roots", "fflinalg.modp"),
    ("cgtkit.chartab", "modp_rref", "fflinalg.modp"),
    ("cgtkit.classalg", "triple_count", "classalg.triple_count"),
    ("cgtkit.classalg", "triple_counts_all_k", "classalg.triple_counts_all_k"),
    ("cgtkit.classalg", "n_a", "classalg.n_a"),
    ("cgtkit.classalg", "eps_a", "classalg.eps_a"),
    ("cgtkit.classalg", "covers", "classalg.covers"),
    ("cgtkit.classalg", "two_mth_powers", "classalg.two_mth_powers"),
    ("cgtkit.gentriples", "enumerate_triples", "gentriples.enumerate_triples"),
    ("cgtkit.gentriples", "build_lemma42", "gentriples.build_lemma"),
    ("cgtkit.gentriples", "build_lemma43", "gentriples.build_lemma"),
    ("cgtkit.gentriples", "build_chain", "permgroup.build_chain"),
    ("cgtkit.sl2", "macbeath_cover", "sl2.macbeath_cover"),
    ("cgtkit.sl2", "build_chain", "permgroup.build_chain"),
    ("cgtkit.fixspace", "neumann_scan", "fixspace.neumann_scan"),
    ("cgtkit.fixspace", "eigdims_from_character", "fixspace.eigdims_from_character"),
    ("cgtkit.fixspace", "scott_check", "fixspace.scott_check"),
    ("cgtkit.fixspace", "random_scott_tuples", "fixspace.random_scott_tuples"),
    ("cgtkit.fixspace", "catalog_module_rep", "fixspace.catalog_module_rep"),
    ("cgtkit.fixspace", "build_chain", "permgroup.build_chain"),
    ("cgtkit.symmchar", "AnClassSystem.__init__", "symmchar.an_class_system"),
    ("cgtkit.symmchar", "an_table", "symmchar.an_table"),
    ("cgtkit.symmchar", "an_pair_covers", "symmchar.an_pair_covers"),
    ("cgtkit.symmchar", "AnClassSystem.class_of_images", "symmchar.class_of_images"),
    ("cgtkit.zsigmondy", "phi_star", "zsigmondy.phi_star"),
    ("cgtkit.zsigmondy", "prime_divisors", "zsigmondy.prime_divisors"),
    ("cgtkit.zsigmondy", "classify_small_zsigmondy", "zsigmondy.classify_small_zsigmondy"),
    ("cgtkit.zsigmondy", "scan_reports", "zsigmondy.scan_reports"),
]

# Cyclotomic operators: (attribute, counter).  Every call is counted; time is
# taken only for the outermost operator, since __sub__ and __truediv__ call
# __add__ and __mul__.
CYCLOTOMIC_OPS = [
    ("__add__", "add"), ("__radd__", "add"), ("__sub__", None), ("__rsub__", None),
    ("__neg__", None), ("__mul__", "mul"), ("__rmul__", "mul"),
    ("__truediv__", None), ("__pow__", None),
]

# Spans whose calls also record the resident-set growth across the call.
RSS_SPANS = {"permgroup.conjugacy_classes"}

_PAGE = os.sysconf("SC_PAGE_SIZE")


def current_rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    """Records spans and operator counts while installed."""

    def __init__(self):
        self.spans: list = []
        self.tag = ""
        self.cyclo = {"add": 0, "mul": 0, "ns": 0}
        self._stack: list = []
        self._active: dict = defaultdict(int)
        self._patches: list = []
        self._op_depth = 0

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, name: str, site: str):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter_ns
        measure_rss = name in RSS_SPANS
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0, 0, tracer.tag, site,
                   active[name] > 0, 0, 0]
            if measure_rss:
                rec[7] = current_rss_bytes()
            stack.append(len(spans))
            spans.append(rec)
            active[name] += 1
            rec[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                active[name] -= 1
                stack.pop()
                if measure_rss:
                    rec[8] = current_rss_bytes()
        return traced

    def _op_wrapper(self, fn, counter):
        cyclo = self.cyclo
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def op(*args):
            if counter:
                cyclo[counter] += 1
            if tracer._op_depth:
                return fn(*args)
            tracer._op_depth = 1
            t0 = clock()
            try:
                return fn(*args)
            finally:
                cyclo["ns"] += clock() - t0
                tracer._op_depth = 0
        return op

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name in PATCH_POINTS:
            owner, leaf = _resolve(module_name, attr)
            original = getattr(owner, leaf)
            site = f"{module_name.removeprefix('cgtkit.')}.{attr}"
            self._patches.append((owner, leaf, original))
            setattr(owner, leaf, self._span_wrapper(original, name, site))
        from cgtkit.cyclotomic import Cyclotomic
        for attr, counter in CYCLOTOMIC_OPS:
            original = Cyclotomic.__dict__[attr]
            self._patches.append((Cyclotomic, attr, original))
            setattr(Cyclotomic, attr, self._op_wrapper(original, counter))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._patches):
            setattr(owner, leaf, original)
        self._patches.clear()

    # -- phases ------------------------------------------------------------

    START = {"span": 0, "add": 0, "mul": 0, "ns": 0}

    def mark(self) -> dict:
        """The current position, to summarize a later phase from."""
        return {"span": len(self.spans), **self.cyclo}

    def summary(self, since: dict, wall_ns: int) -> dict:
        """Per-layer figures for everything recorded after ``since``."""
        delta = {k: self.cyclo[k] - since[k] for k in ("add", "mul", "ns")}
        return summarize(self.spans, since["span"], len(self.spans), delta, wall_ns)


def summarize(spans: list, start: int, stop: int, cyclo_delta: dict,
              wall_ns: int) -> dict:
    """Per-layer figures for spans[start:stop], one phase of a run.

    A name's total counts only its outermost spans, so recursion is not
    counted twice; self time is a span's duration minus its child spans.
    """
    total = defaultdict(int)
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    by_tag = defaultdict(int)
    site_calls = defaultdict(int)
    top_ns = 0
    rss_growth = 0
    for i in range(start, stop):
        name, parent, t0, t1, tag, site, nested, rss0, rss1 = spans[i]
        dur = t1 - t0
        calls[name] += 1
        site_calls[site] += 1
        self_ns[name] += dur
        if parent >= start:
            self_ns[spans[parent][0]] -= dur
        else:
            top_ns += dur
        if not nested:
            total[name] += dur
            if tag:
                by_tag[(name, tag)] += dur
        rss_growth = max(rss_growth, rss1 - rss0)
    return {
        "total_s": {k: v / 1e9 for k, v in total.items()},
        "self_s": {k: v / 1e9 for k, v in self_ns.items()},
        "calls": dict(calls),
        "site_calls": dict(site_calls),
        "tag_s": {f"{k}|{t}": v / 1e9 for (k, t), v in by_tag.items()},
        "top_level_s": top_ns / 1e9,
        "wall_s": wall_ns / 1e9,
        "index_rss_mb": rss_growth / 2 ** 20,
        "cyclo_add": cyclo_delta["add"],
        "cyclo_mul": cyclo_delta["mul"],
        "cyclo_s": cyclo_delta["ns"] / 1e9,
    }
