"""The acceptance gate: every criterion runs at its exact expected values.

One pass/fail line is printed per criterion (run pytest -s to see them
live); each sub-check carries its expected and computed value, and every
comparison is exact -- there are no tolerances in this artifact.
"""

from types import SimpleNamespace

import pytest

from cgtkit import verify
from cgtkit.symmchar import AnClassSystem
from cgtkit.verify import SUITES, run_suite

CRITERIA = [
    ("1", "zsigmondy", "Lemma 2.1 exception lists on the q<=64, e<=30 grid"),
    ("2", "table5", "sporadic structure constants, formula and brute force"),
    ("3", "a10", "A10 7-cycle statistics 7446/42 with subgroup histogram"),
    ("4", "lemmas", "explicit (n-2)/(n-3)-cycle generator constructions"),
    ("5", "smalln", "k-cycle triples for A5-A10 and the L2(7) exception"),
    ("6", "macbeath", "class-square coverage for L2(q) and U3(3)"),
    ("7", "sz8", "Sz(8) order-13 structure constant vs closed form"),
    ("8", "neumann", "eigenspace witnesses on every catalog table + Scott"),
    ("9", "tensor", "tensor-power fixed-space ratios for A5 and A4"),
    ("10", "crosscheck", "combinatorial vs class-algebra tables; coprime pairs"),
    ("11", "powers", "products of two m-th powers"),
    ("12", "section8", "spread, two-subgroup covers, Beauville structures"),
]


@pytest.mark.slow
@pytest.mark.parametrize("number,suite,label", CRITERIA,
                         ids=[f"criterion{c[0]}-{c[1]}" for c in CRITERIA])
def test_acceptance_criterion(number, suite, label):
    reports = run_suite(suite)
    failures = []
    for rep in reports:
        for check in rep.checks:
            if check.status == "fail":
                failures.append(
                    f"{check.check_id}: expected {check.expected}, "
                    f"got {check.got}")
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number} ({label}): {status}")
    assert not failures, "; ".join(failures)


def test_all_suites_registered():
    assert {c[1] for c in CRITERIA} == set(SUITES)


LOADING_SUITES = ["table5", "a10", "smalln", "macbeath", "sz8", "neumann",
                  "crosscheck", "section8"]


@pytest.mark.slow
@pytest.mark.parametrize("suite", LOADING_SUITES)
def test_check_elapsed_excludes_loading(monkeypatch, suite):
    """Each check's `elapsed` times the check only: on a clock that moves
    only while a chain, class system or table loads, every check reads 0."""
    clock = [0.0]
    monkeypatch.setattr(verify, "time", SimpleNamespace(perf_counter=lambda: clock[0]))

    def loading(load):
        def timed(*args):
            out = load(*args)
            clock[0] += 1.0
            return out
        return timed

    for name in ("_chain", "_cs", "_table", "_an_class_system"):
        monkeypatch.setattr(verify, name, loading(getattr(verify, name)))
    checks = [c for rep in run_suite(suite) for c in rep.checks]
    assert clock[0] > 0
    assert [c.check_id for c in checks if c.elapsed] == []


def test_crosscheck_reads_a_misclassified_class_as_false(monkeypatch):
    """The A_n table cross-check maps each element-index class to a
    cycle-type class through AnClassSystem.class_of: when that sends A6's
    4+2 to the class of 2+2+1+1, the map is no bijection, and the check
    reads False without raising."""
    class_of = AnClassSystem.class_of

    def misclassify(self, p):
        k = class_of(self, p)
        return self.class_named("2+2+1+1") if self.classes[k].name == "4+2" else k

    monkeypatch.setattr(AnClassSystem, "class_of", misclassify)
    got = {c.check_id: c.got for c in verify.suite_crosscheck().checks}
    assert got["crosscheck.A6_tables"] == "False"
    assert got["crosscheck.A5_tables"] == got["crosscheck.A7_tables"] == "True"
