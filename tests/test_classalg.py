import random
from fractions import Fraction

import numpy as np
import pytest

from cgtkit import catalog
from cgtkit.chartab import class_mult_coeff, dixon_table
from cgtkit.classalg import (covers, eps_a, n_a, thompson_check, triple_count,
                             triple_counts_all_k, two_mth_powers)
from cgtkit.permgroup import build_chain, conjugacy_classes
from cgtkit.symmchar import an_table


def test_forced_solution_patterns():
    t = catalog.character_table("A5")
    i1 = t.class_named("1a")
    for nm in ("2a", "3a", "5a", "5b"):
        i = t.class_named(nm)
        iinv = t.inverse_class(i)
        assert triple_count(t, i, iinv, i1) == 1
        assert triple_count(t, i1, i, i) == t.classes[i].size
    assert n_a(t, i1, 1) == 1


def test_total_triple_count_is_cyclically_invariant():
    # |C_i| * tc(i,j,k) counts (x,y,z) in C_i x C_j x C_k with xyz = 1
    t = catalog.character_table("L2(7)")
    import random
    rng = random.Random(4)
    k = t.n_classes
    for _ in range(30):
        i, j, kk = rng.randrange(k), rng.randrange(k), rng.randrange(k)
        total = t.classes[i].size * triple_count(t, i, j, kk)
        assert total == t.classes[j].size * triple_count(t, j, kk, i)
        assert total == t.classes[kk].size * triple_count(t, kk, i, j)


def _check_random_triples(gc, t, rng):
    # tc(i,j,kinv) * |C_i| = |C_k| * (fixed-z count) for 50 random triples
    nk = len(gc.classes)
    for _ in range(50):
        i, j, kk = rng.randrange(nk), rng.randrange(nk), rng.randrange(nk)
        kinv = t.inverse_class(kk)
        lhs = t.classes[i].size * triple_count(t, i, j, kinv)
        rhs = t.classes[kk].size * class_mult_coeff(gc, i, j, kk)
        assert lhs == rhs


def test_brute_force_equivalence_random_triples():
    # J1 (266 points) runs the count on the uint16 element index
    for name in ("A5", "L2(7)", "M11", "M12", "J1"):
        _check_random_triples(catalog.class_system(name), catalog.character_table(name),
                              random.Random(9))
    # seeded random 2-generated subgroups of catalog groups, each on its own
    # element index and Dixon table, until two proper ones were checked
    rng = random.Random(17)
    for name in ("S6", "A7", "L2(11)", "SL2(7)", "M11", "U3(3)"):
        chain = catalog.load_group(name)[1]
        proper = 0
        while proper < 2:
            sub = build_chain([chain.random_element(rng) for _ in range(2)], chain.degree)
            gc = conjugacy_classes(sub)
            _check_random_triples(gc, dixon_table(gc), rng)
            proper += sub.order() < chain.order()


@pytest.mark.parametrize("name", ["A5", "L2(7)", "M11", "A7"])
def test_triple_counts_all_k_is_triple_count_for_every_k(name):
    t = an_table(7) if name == "A7" else catalog.character_table(name)
    k = t.n_classes
    for i in range(k):
        for j in range(k):
            assert triple_counts_all_k(t, i, j) == [triple_count(t, i, j, kk)
                                                    for kk in range(k)]


def test_na_reference_value_m11():
    t = catalog.character_table("M11")
    assert n_a(t, "11a", 1) == 35
    assert n_a(t, "11a", -2) == 80
    # algebraically conjugate class gives the same values
    assert n_a(t, "11b", 1) == 35
    assert n_a(t, "11b", -2) == 80


def test_covers_a5():
    t = catalog.character_table("A5")
    assert covers(t, "5a", "5b").covered
    rep = covers(t, "5a", "5a")
    # class names follow the table (cycle types for the combinatorial A_n
    # tables); the missed class is the involution class
    assert not rep.covered and rep.missed == ["2+2+1"]
    rep = covers(t, "1a", "3a")
    assert not rep.covered and set(rep.missed) == {"2+2+1", "5a", "5b"}


def test_covers_a4_brute_force():
    import numpy as np
    t = catalog.character_table("A4")
    gc = catalog.class_system("A4")
    i3a, i3b = 2, 3
    # brute product set over the 12 elements
    hit = set()
    for x in gc.elements_of_class(i3a):
        for y in gc.elements_of_class(i3b):
            hit.add(gc.class_of_images(y[x]))
    brute_covered = set(range(len(gc.classes))) <= hit
    names = [gc.classes[i3a].name, gc.classes[i3b].name]
    rep = covers(t, t.class_named(names[0]), t.class_named(names[1]))
    assert rep.covered == brute_covered
    # exact fact (A4 is not simple): 3a*3b is the Klein four-group, so the
    # two order-3 classes are missed; formula and brute force agree
    assert not rep.covered and set(rep.missed) == {"3+1a", "3+1b"}


def test_thompson_check():
    t = catalog.character_table("A5")
    assert not thompson_check(t, "5a")  # 5a*5a misses 2a (exact brute fact)
    assert not thompson_check(t, "1a")
    t7 = catalog.character_table("L2(7)")
    # 4a is the unique real class of order 4; pin the exact value
    got = thompson_check(t7, "4a")
    rep = covers(t7, "4a", "4a")
    assert got == (rep.covered and t7.inverse_class(t7.class_named("4a")) ==
                   t7.class_named("4a"))
    assert got  # brute fact: 4a*4a covers L2(7)#


def test_eps_a_values_and_contract():
    t = catalog.character_table("A5")
    e = eps_a(t, "5a", 1)
    assert isinstance(e, Fraction)
    # relation n_a = d |G| / |C(x)|^2 (1 + eps) is re-verified inside
    s4 = catalog.character_table("S4")
    with pytest.raises(ValueError):
        eps_a(s4, "2+1+1", 1)  # transpositions lie outside the derived subgroup


def test_two_mth_powers():
    gc = catalog.class_system("A5")
    assert two_mth_powers(gc, 2).ok
    r = two_mth_powers(gc, 60)
    assert not r.ok and len(r.witnesses_missing) == len(gc.classes) - 1
    with pytest.raises(ValueError):
        two_mth_powers(catalog.class_system("M22"), 2)


@pytest.mark.parametrize("name", ["A5", "A6", "L2(7)", "SL3(2)"])
def test_two_mth_powers_matches_element_products(name):
    """Reference: P * P built as a set of elements of the catalog chain."""
    gc = catalog.class_system(name)
    elements = np.array([g.images for g in catalog.load_group(name)[1].elements()])
    for m in (2, 3, 4, 5, 6, 60):
        powers = elements
        for _ in range(m - 1):
            powers = np.take_along_axis(elements, powers, axis=1)
        p = np.unique(powers, axis=0)
        # x*y has images y[x[i]]
        products = {tuple(row) for row in p[:, p].reshape(-1, p.shape[1]).tolist()}
        want = [c.name for c in gc.classes if tuple(c.representative.images) not in products]
        got = two_mth_powers(gc, m)
        assert (got.ok, got.witnesses_missing) == (not want, want), (name, m)


def test_sz8_eps_closed_form():
    t = catalog.character_table("Sz(8)")
    assert n_a(t, "13a", 1) == 273
    assert eps_a(t, "13a", 1) == Fraction(1309, 2240)


def test_covers_is_galois_invariant():
    # replacing both classes by the same power-map image leaves coverage
    # unchanged (the table values get Galois-conjugated along)
    from math import gcd
    for name in ("A5", "L2(7)", "U3(3)"):
        t = catalog.character_table(name)
        e = t.exponent()
        for i in range(t.n_classes):
            for j in range(t.n_classes):
                base = covers(t, i, j).covered
                for a in (2, 3, 5):
                    if gcd(a, e) != 1:
                        continue
                    ii, jj = t.power_class(i, a), t.power_class(j, a)
                    assert covers(t, ii, jj).covered == base


def test_eps_identity_class_consistency():
    # for a perfect group the identity class is fine, and the internal
    # n_a = d |G|/|C(x)|^2 (1+eps) relation re-verifies n_a(1a) = 1
    t = catalog.character_table("A5")
    eps_a(t, "1a", 1)
    assert n_a(t, "1a", 1) == 1
