import numpy as np
import pytest

from cgtkit import catalog
from cgtkit.classalg import covers, n_a, triple_count
from cgtkit.gentriples import (beauville_search, build_lemma42, build_lemma43,
                               enumerate_triples, search_triple,
                               spread_class_check, translation_search,
                               two_subgroup_cover, union_cover_check,
                               _subgroup_elements)
from cgtkit.perms import Permutation, _mul, parse_perm
from cgtkit.permgroup import build_chain, conjugacy_classes, orbits
from cgtkit.symmchar import AnClassSystem


def test_enumerate_identity_class():
    chain = catalog.load_group("A5")[1]
    gc = catalog.class_system("A5")
    r = enumerate_triples(chain, gc, "1a", 1, group_name="A5")
    assert r.total_pairs == 1 and r.generating_pairs == 0


def test_enumerate_matches_n_a_and_histogram_sums():
    chain = catalog.load_group("L2(7)")[1]
    gc = catalog.class_system("L2(7)")
    t = catalog.character_table("L2(7)")
    for a in (1, 2, -2, 3):
        r = enumerate_triples(chain, gc, "7a", a, table=t, group_name="L2(7)")
        assert sum(r.subgroup_histogram.values()) == r.total_pairs
    # n_a pairs against the brute counts via the calibrated slots
    r1 = enumerate_triples(chain, gc, "7a", 1, table=t)
    r2 = enumerate_triples(chain, gc, "7a", 2, table=t)
    assert r1.total_pairs == n_a(t, "7a", 1)
    assert r2.total_pairs == n_a(t, "7a", -2)


def test_l27_exception():
    chain = catalog.load_group("L2(7)")[1]
    gc = catalog.class_system("L2(7)")
    t = catalog.character_table("L2(7)")
    r1 = enumerate_triples(chain, gc, "7a", 1, table=t)
    r2 = enumerate_triples(chain, gc, "7a", -2, table=t)
    assert r1.generating_pairs == 0
    assert r2.generating_pairs > 0
    x, y, z = r2.witness
    assert (x * y * z).is_identity()
    # witness product xy lies in the class of x^-2
    i7a = gc.class_named("7a")
    assert gc.class_of(x * y) == gc.power_class(i7a, -2)


def test_search_triple_deterministic():
    chain = catalog.load_group("A5")[1]
    cs = catalog.class_system("A5")
    w1 = search_triple(chain, cs, "5a", 1, seed=3)
    w2 = search_triple(chain, cs, "5a", 1, seed=3)
    assert w1 == w2 and w1 is not None
    x, y, z = w1
    assert (x * y * z).is_identity()


def test_lemma_constructions():
    c = build_lemma42(11)
    assert c.chain.order() == 19958400
    assert c.involution.support_size() == 8
    assert c.x.cycle_type()[0] == 9 and c.y.cycle_type()[0] == 9
    t1, t2, t3 = c.triple
    assert (t1 * t2 * t3).is_identity()
    c = build_lemma43(12)
    assert c.involution.support_size() == 12
    assert c.x.cycle_type()[0] == 9
    # the fixed points {2, 4, 6} of x are not a block: x(1) = 3, x(5) = 7
    assert [i for i in range(12) if c.x(i) == i] == [1, 3, 5]
    assert c.x(0) == 2 and c.x(4) == 6
    with pytest.raises(ValueError):
        build_lemma42(12)
    with pytest.raises(ValueError):
        build_lemma43(13)
    with pytest.raises(ValueError):
        build_lemma42(9)


def test_translation_search():
    c = build_lemma42(11)
    x, inv, z = c.triple
    res = translation_search(c.chain, x, inv, z, 1)
    assert res["index"] == 1
    # d = 2 with the involution first: x^2 = 1 kills the first factor and
    # two conjugates of the (n-2)-cycle generate an index <= 2 subgroup
    res2 = translation_search(c.chain, inv, x, (inv * x).inverse(), 2)
    assert res2 is not None and res2["index"] in (1, 2)
    assert translation_search(c.chain, x, inv, z, 3)["index"] == 1
    with pytest.raises(ValueError):
        translation_search(c.chain, x, x, x, 1)


def test_spread_class_check_a5():
    chain = catalog.load_group("A5")[1]
    cs = catalog.class_system("A5")
    ok, failing = spread_class_check(chain, cs, "5a")
    assert ok and failing == []
    ok, failing = spread_class_check(chain, cs, "2a")
    assert not ok and "2a" in failing  # two involutions generate a 2-group


def test_two_subgroup_cover_and_vacuous_fail():
    chain = catalog.load_group("A5")[1]
    cs = catalog.class_system("A5")
    maximals = catalog.maximal_subgroup_generators("A5")
    assert two_subgroup_cover(chain, cs, "5a", list(maximals.values()))
    # vacuous failure on a non-simple group: the 3-cycle class of S3 sits
    # inside the alternating subgroup
    s3 = build_chain([parse_perm("(1,2)", 3), parse_perm("(1,2,3)", 3)])
    gc3 = conjugacy_classes(s3)
    a3 = [parse_perm("(1,2,3)", 3)]
    m2 = [parse_perm("(1,2)", 3)]
    assert not two_subgroup_cover(s3, gc3, "3a", [a3, m2])


def test_sl32_three_subgroup_negative_control():
    chain = catalog.load_group("SL3(2)")[1]
    cs = catalog.class_system("SL3(2)")
    stabs = catalog.sl32_transvection_cover_subgroups()
    sets = [_subgroup_elements(chain, gens)[0] for gens in stabs]
    trans = cs.class_named("2a")
    assert union_cover_check(cs, trans, sets)
    assert not any(union_cover_check(cs, trans, [sets[i], sets[j]])
                   for i in range(3) for j in range(i + 1, 3))


def test_beauville():
    assert beauville_search(catalog.load_group("A5")[1],
                            catalog.class_system("A5")) is None
    got = beauville_search(catalog.load_group("L2(7)")[1],
                           catalog.class_system("L2(7)"))
    assert got is not None
    (x1, y1), (x2, y2) = got
    from math import gcd
    t1 = (x1.order(), y1.order(), (x1 * y1).order())
    t2 = (x2.order(), y2.order(), (x2 * y2).order())
    assert all(gcd(a, b) == 1 for a in t1 for b in t2)
    full = catalog.load_group("L2(7)")[1].order()
    assert build_chain([x1.images, y1.images], 8).order() == full
    assert build_chain([x2.images, y2.images], 8).order() == full


def test_lemma43_generates_primitive_group():
    from cgtkit.permgroup import is_primitive, is_transitive
    c = build_lemma43(12)
    assert is_transitive(c.chain) and is_primitive(c.chain)


def _per_pair_reference(chain, cs, cname, a):
    """The scan with one stabilizer chain per accepted y: (total,
    generating, histogram with its insertion order, witness y)."""
    ci = cs.class_named(cname)
    x = cs.classes[ci].representative.images
    target = cs.power_class(ci, a)
    total = generating = 0
    hist = {}
    witness = None
    for y in cs.iter_class_images(ci):
        if cs.class_of_images(_mul(x, y)) != target:
            continue
        total += 1
        sub = build_chain([x, y], len(x))
        key = (sub.order(), tuple(sorted((len(o) for o in orbits(sub)), reverse=True)))
        hist[key] = hist.get(key, 0) + 1
        if sub.order() == cs.order:
            generating += 1
            if witness is None:
                witness = y
    return total, generating, list(hist.items()), witness


@pytest.mark.parametrize("name,engine,cname,a", [
    ("A7", "index", "7a", 1), ("A7", "index", "3a", 1),
    ("A7", "an", "7a", 1), ("A7", "an", "7b", -2), ("A7", "an", "3a", 1),
    ("A8", "index", "7a", 1), ("A8", "an", "5a", 2), ("M11", "index", "11a", 1),
    # involution classes: C_G(x) of order 96, 192 and 48
    ("A8", "index", "2a", 1), ("A8", "index", "2b", 1), ("M11", "index", "2a", 1),
])
def test_orbit_weighted_classification_matches_per_pair(name, engine, cname, a):
    chain = catalog.load_group(name)[1]
    cs = AnClassSystem(int(name[1:])) if engine == "an" else catalog.class_system(name)
    r = enumerate_triples(chain, cs, cname, a, group_name=name)
    total, generating, hist, witness = _per_pair_reference(chain, cs, cname, a)
    assert (r.total_pairs, r.generating_pairs) == (total, generating)
    assert list(r.subgroup_histogram.items()) == hist
    if witness is None:
        assert r.witness is None
    else:
        x, y, z = r.witness
        assert y.images == witness and (x * y * z).is_identity()


def test_classes_of_a_larger_group_are_not_proved_against_the_chain():
    # S7's classes with A7's chain: x in 12a is odd, so <x, y> is not in the
    # group of the chain and its order must not be proved against |A7|
    chain = catalog.load_group("A7")[1]
    cs = catalog.class_system("S7")
    r = enumerate_triples(chain, cs, "12a", 2)
    total, generating, hist, witness = _per_pair_reference(chain, cs, "12a", 2)
    assert (r.total_pairs, r.generating_pairs) == (total, generating) == (25, 24)
    assert list(r.subgroup_histogram.items()) == hist
    assert r.witness[1].images == witness


def test_orbit_weighting_builds_one_chain_per_orbit(monkeypatch):
    import cgtkit.gentriples as gt
    calls = []

    def counting_build_chain(gens, degree=None, within=None):
        calls.append(1)
        return build_chain(gens, degree, within=within)

    monkeypatch.setattr(gt, "build_chain", counting_build_chain)
    chain = catalog.load_group("A8")[1]
    r = enumerate_triples(chain, catalog.class_system("A8"), "7a", 1)
    # C_A8(x) is <x> for the 7-cycle x; only <x, x^k>-type pairs have a
    # smaller orbit, so far fewer chains than pairs are built
    assert 0 < len(calls) < r.total_pairs / 5


def _spread_reference(chain, cs, cname):
    """spread_class_check with one deterministic chain per (s, y) pair."""
    ci = cs.class_named(cname)
    failing = []
    for cls in cs.classes:
        if cls.rep_order == 1:
            continue
        s = cls.representative.images
        if not any(build_chain([s, y], chain.degree).order() == cs.order
                   for y in cs.iter_class_images(ci)):
            failing.append(cls.name)
    return (not failing), failing


def _beauville_reference(chain, cs):
    """beauville_search with one deterministic chain per (x, y) pair."""
    from math import gcd
    order = chain.order()
    nontrivial = [k for k, cls in enumerate(cs.classes) if cls.rep_order > 1]
    triples = {}
    for k in nontrivial:
        x = cs.classes[k].representative
        for k2 in nontrivial:
            for y_img in cs.iter_class_images(k2):
                if build_chain([x.images, y_img], chain.degree).order() != order:
                    continue
                y = Permutation(y_img)
                key = tuple(sorted((x.order(), y.order(), (x * y).order())))
                triples.setdefault(key, (x, y))
    keys = sorted(triples)
    for i, t1 in enumerate(keys):
        for t2 in keys[i:]:
            if all(gcd(a, b) == 1 for a in t1 for b in t2):
                return triples[t1], triples[t2]
    return None


@pytest.mark.parametrize("name,engine", [
    ("A5", "index"), ("A6", "index"), ("L2(7)", "index"), ("A5", "an"), ("A6", "an"),
])
def test_orbit_scans_match_per_pair_spread_and_beauville(name, engine):
    chain = catalog.load_group(name)[1]
    cs = AnClassSystem(int(name[1:])) if engine == "an" else catalog.class_system(name)
    for cls in cs.classes:
        if cls.rep_order > 1:
            assert (spread_class_check(chain, cs, cls.name)
                    == _spread_reference(chain, cs, cls.name))
    assert beauville_search(chain, cs) == _beauville_reference(chain, cs)


@pytest.mark.parametrize("name, cname", [("A5", "5a"), ("L2(7)", "7a")])
def test_class_specs_agree_as_name_int_and_numpy_int(name, cname):
    chain = catalog.load_group(name)[1]
    cs = catalog.class_system(name)
    t = catalog.character_table(name)
    k = cs.class_named(cname)
    assert t.class_named(cname) == k

    def answers(spec):
        w = search_triple(chain, cs, spec, 1, seed=3)
        return (n_a(t, spec, 1), n_a(t, spec, -2), triple_count(t, spec, spec, spec),
                covers(t, spec, spec),
                enumerate_triples(chain, cs, spec, 1, table=t).to_json(),
                None if w is None else [str(p) for p in w],
                spread_class_check(chain, cs, spec))

    want = answers(cname)
    assert answers(k) == want
    assert answers(np.int64(k)) == want


def test_all_conjugate_sets_count_the_index_of_each_maximal():
    from cgtkit.gentriples import _all_conjugate_sets, _subgroup_elements
    # a maximal subgroup M of the simple group A5 is self-normalizing, so
    # it has |A5 : M| conjugates
    chain = catalog.load_group("A5")[1]
    for name, gens in catalog.maximal_subgroup_generators("A5").items():
        base, order = _subgroup_elements(chain, gens)
        conjugates = _all_conjugate_sets(chain, base)
        assert conjugates[0] == base
        assert len(set(conjugates)) == len(conjugates) == 60 // order, name
        assert all(len(s) == order for s in conjugates)
