"""Each workload's checker accepts a record that matches the published
references and rejects the same record with one value corrupted.

Run from the root of the repository:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import references as ref  # noqa: E402


def sporadic_record(name: str) -> dict:
    order, degrees = ref.ATLAS[name]
    # M11 is not in Table 5; its pair is only held to brute == formula.
    _, n1, nm2 = ref.TABLE5.get(name, ("11a", 35, 80))
    return {"group": name, "order": order, "n_classes": len(degrees),
            "degrees": list(degrees), "formula": [n1, nm2], "brute": [n1, nm2],
            "neumann_ok": True}


def l2_7_record() -> dict:
    return {"group": "L2(7)", "q": 7, "order": 168, "n_classes": 6,
            "degrees": [1, 3, 3, 6, 7, 8], "powers_not_ok": [], "neumann_ok": True,
            "macbeath": [("2a", 2, False), ("3a", 3, True), ("4a", 4, True),
                         ("7a", 7, True), ("7b", 7, True)]}


def zsigmondy_record(q_max: int = 8, e_max: int = 12) -> dict:
    grid = ref.zsigmondy_grid(q_max, e_max, 1 << 128)
    factored = {}
    for q, e in grid:
        phi = ref.phi_star_reference(q, e)
        factored[(q, e)] = (phi, sorted(sympy.factorint(phi)))
    return {"one": list(ref.ZSIG_ONE), "e_plus_1": list(ref.ZSIG_E_PLUS_1),
            "two_e_plus_1": list(ref.ZSIG_TWO_E_PLUS_1), "factored": factored,
            "q_max": q_max, "e_max": e_max, "bound": 1 << 128}


@pytest.mark.parametrize("name", sorted(ref.TABLE5) + ["M11"])
def test_sporadic_accepts_reference(name):
    assert ref.check_sporadic(sporadic_record(name)) == []


def test_sporadic_rejects_corrupted_degree():
    rec = sporadic_record("M22")
    rec["degrees"][4] += 1
    assert any("degrees" in f for f in ref.check_sporadic(rec))


def test_sporadic_rejects_corrupted_table5_pair():
    rec = sporadic_record("J1")
    rec["brute"] = [496, 418]
    assert any("table5.brute" in f for f in ref.check_sporadic(rec))


def test_sporadic_rejects_brute_count_off_the_formula():
    rec = sporadic_record("M11")
    rec["brute"] = [35, 81]
    assert any("brute_vs_formula" in f for f in ref.check_sporadic(rec))


def test_small_tables_accepts_reference():
    assert ref.check_small_group(l2_7_record()) == []


def test_small_tables_rejects_corrupted_degree():
    rec = l2_7_record()
    rec["degrees"][5] = 9
    assert any("degrees" in f for f in ref.check_small_group(rec))


def test_small_tables_rejects_uncovered_hypothesis_class():
    rec = l2_7_record()
    rec["macbeath"][2] = ("4a", 4, False)
    assert any("macbeath_uncovered" in f for f in ref.check_small_group(rec))


def test_sz8_closed_form():
    assert ref.sz8_eps_closed_form() == Fraction(187, 320)
    assert ref.check_sz8({"n1_13a": 273, "eps": ref.sz8_eps_closed_form()}) == []
    assert ref.check_sz8({"n1_13a": 272, "eps": ref.sz8_eps_closed_form()})


def test_zsigmondy_accepts_reference():
    assert ref.check_zsigmondy(zsigmondy_record()) == []


def test_zsigmondy_rejects_corrupted_exception():
    rec = zsigmondy_record()
    rec["e_plus_1"] = [x for x in rec["e_plus_1"] if x != (3, 6)]
    assert any("zsig.e_plus_1" in f for f in ref.check_zsigmondy(rec))


def test_zsigmondy_rejects_incomplete_factorization():
    rec = zsigmondy_record()
    phi, primes = rec["factored"][(7, 5)]
    rec["factored"][(7, 5)] = (phi, primes[:-1])
    assert any("cofactor" in f for f in ref.check_zsigmondy(rec))


def test_zsigmondy_accepts_cgtkit_output():
    from cgtkit import zsigmondy
    rec = zsigmondy_record()
    rec["factored"] = {(r.q, r.e): (r.phi_star, zsigmondy.prime_divisors(r.phi_star))
                       for r in zsigmondy.scan_reports(8, 12)}
    assert ref.check_zsigmondy(rec) == []


def test_a10_rejects_corrupted_count():
    rec = {"total": 7446, "formula": 7446}
    assert ref.check_a10(rec) == []
    rec["total"] = 7445
    assert any("a10.total" in f for f in ref.check_a10(rec))


def a8_record() -> dict:
    hist = [((7, (7, 1)), 1), ((56, (8,)), 14), ((2520, (7, 1)), 35),
            ((20160, (8,)), 329)]
    return {"group": "A8", "formula": 379, "total": 379, "generating": 329,
            "histogram": hist}


def test_a8_accepts_consistent_histogram():
    assert ref.check_a8(a8_record()) == []


def test_a8_rejects_corrupted_counts():
    rec = a8_record()
    rec["generating"] = 328
    assert any("a8.generating" in f for f in ref.check_a8(rec))
    rec = a8_record()
    rec["histogram"][1] = ((48, (8,)), 14)
    assert any("a8.subgroup_orders" in f for f in ref.check_a8(rec))


def test_lemma_and_prop77_checks():
    assert ref.check_lemma({"n": 11, "order": 19958400, "involution_support": 8}) == []
    assert ref.check_lemma({"n": 12, "order": 239500800, "involution_support": 8})
    assert ref.check_prop77({"n": 10, "found": None, "pairs_cover": [True, True]}) == []
    assert ref.check_prop77({"n": 10, "found": ("5+5", "7+1+1+1"),
                             "pairs_cover": [True, True]})
    assert ref.check_prop77({"n": 9, "found": None})
