import ast
import inspect
import random
import re
import time
from math import factorial, gcd, prod

import numpy as np
import pytest

from cgtkit import catalog, permgroup
from cgtkit.chartab import _class_sum_matrix_modp, dixon_prime, dixon_table
from cgtkit.gentriples import build_lemma42, build_lemma43
from cgtkit.perms import Permutation, _inv, _mul, parse_perm
from cgtkit.permgroup import (GroupClasses, GroupTooLargeError, build_chain,
                              class_letter, conjugacy_classes, derived_subgroup,
                              is_primitive, is_transitive, known_order, orbits)
from cgtkit.sl2 import l2_order, sl2_order


def A(n):
    gens = [parse_perm("(1,2,3)", n)]
    cyc = range(1, n + 1) if n % 2 else range(2, n + 1)
    gens.append(Permutation.from_cycles(n, [[i - 1 for i in cyc]]))
    return build_chain(gens)


def test_chain_orders():
    assert A(5).order() == 60
    assert build_chain([parse_perm("(1,2,3,4,5,6,7)", 7)]).order() == 7
    m11 = build_chain([parse_perm("(1,2,3,4,5,6,7,8,9,10,11)", 11),
                       parse_perm("(3,7,11,8)(4,10,5,6)", 11)])
    assert m11.order() == 7920
    # 4-transitivity shows up as base orbits 11*10*9*8
    assert m11.order() == 11 * 10 * 9 * 8


def test_order_matches_exhaustive_count_small():
    for chain in (A(5), build_chain([parse_perm("(1,2)", 4), parse_perm("(1,2,3,4)", 4)])):
        assert sum(1 for _ in chain.elements()) == chain.order()


def test_membership():
    a5 = A(5)
    assert not a5.contains(parse_perm("(1,2)", 5))
    for g in a5.generators:
        assert a5.contains(g)
    c5 = build_chain([parse_perm("(1,2,3,4,5)", 5)])
    assert c5.contains(parse_perm("(1,3,5,2,4)", 5))


def test_transitivity_and_primitivity():
    assert is_transitive(A(6)) and is_primitive(A(6))
    c4 = build_chain([parse_perm("(1,2,3,4)", 4)])
    ok, witness = is_primitive(c4, with_witness=True)
    assert is_transitive(c4) and not ok
    assert witness == [[0, 2], [1, 3]]
    intrans = build_chain([parse_perm("(1,2,3)", 5)])
    assert not is_transitive(intrans)
    assert orbits(intrans) == [[0, 1, 2], [3], [4]]


def test_chain_orbits_are_walked_once_and_handed_out_as_copies(monkeypatch):
    chain = build_chain([parse_perm("(1,2,3)", 5), parse_perm("(4,5)", 5)])
    orbs = orbits(chain)
    assert orbs == orbits(chain.generators, 5) == [[0, 1, 2], [3, 4]]
    orbs[0].append(4)
    orbs.pop()
    monkeypatch.setattr(permgroup, "orbit", None)  # a second walk would fail
    assert orbits(chain) == [[0, 1, 2], [3, 4]]


def test_s3_classes():
    s3 = build_chain([parse_perm("(1,2)", 3), parse_perm("(1,2,3)", 3)])
    gc = conjugacy_classes(s3)
    assert [c.size for c in gc.classes] == [1, 3, 2]
    assert [c.name for c in gc.classes] == ["1a", "2a", "3a"]
    assert gc.classes[0].power_map[0] == 0


def test_a5_classes_with_cycle_census():
    gc = conjugacy_classes(A(5))
    sizes = {c.name: c.size for c in gc.classes}
    assert sizes == {"1a": 1, "2a": 15, "3a": 20, "5a": 12, "5b": 12}
    i5a = gc.class_named("5a")
    assert gc.power_class(i5a, 2) == gc.class_named("5b")
    assert gc.power_class(i5a, -1) == i5a  # 5-cycles are real in A5


def test_m11_classes():
    m11 = build_chain([parse_perm("(1,2,3,4,5,6,7,8,9,10,11)", 11),
                       parse_perm("(3,7,11,8)(4,10,5,6)", 11)])
    gc = conjugacy_classes(m11)
    assert len(gc.classes) == 10
    sz = {c.name: c.size for c in gc.classes}
    assert sz["11a"] == 720 and sz["11b"] == 720
    assert gc.power_class(gc.class_named("11a"), 2) == gc.class_named("11b")
    assert sum(c.size for c in gc.classes) == 7920
    for c in gc.classes:
        assert 7920 % c.size == 0


def test_power_map_composition_property():
    gc = conjugacy_classes(A(6))
    for c in gc.classes:
        o = c.rep_order
        for a in range(1, o):
            if gcd(a, o) != 1:
                continue
            for b in range(1, o):
                if gcd(b, o) != 1:
                    continue
                k1 = c.power_map[a]
                step = gc.classes[k1].power_map[b % gc.classes[k1].rep_order]
                assert step == c.power_map[(a * b) % o]


def test_enumeration_bound():
    a13 = A(13)
    with pytest.raises(GroupTooLargeError) as err:
        conjugacy_classes(a13)
    assert str(1 << 21) in str(err.value)
    with pytest.raises(GroupTooLargeError):
        conjugacy_classes(A(9), bound=1000)


def test_derived_subgroup():
    s3 = build_chain([parse_perm("(1,2)", 3), parse_perm("(1,2,3)", 3)])
    assert derived_subgroup(s3).order() == 3


def test_random_element_uniform_support():
    import random
    rng = random.Random(0)
    a5 = A(5)
    seen = {a5.random_element(rng).images for _ in range(400)}
    assert len(seen) == 60  # all elements reachable


def _padded_a5(degree):
    return build_chain([parse_perm("(1,2,3)", degree), parse_perm("(1,2,3,4,5)", degree)])


def test_dtype_edge_255_and_256_points_agree():
    narrow = conjugacy_classes(_padded_a5(255))
    wide = conjugacy_classes(_padded_a5(256))
    assert narrow.elements_of_class(0).dtype == np.uint8
    assert wide.elements_of_class(0).dtype == np.uint16

    def data(gc):
        return [(c.name, c.size, c.rep_order, c.power_map,
                 c.representative.images[:5]) for c in gc.classes]

    assert data(narrow) == data(wide)
    assert np.array_equal(narrow.class_of_idx, wide.class_of_idx)
    for k in range(len(narrow.classes)):
        assert np.array_equal(narrow.elements_of_class(k)[:, :5],
                              wide.elements_of_class(k)[:, :5])


def _brute_classes(chain):
    """Conjugation closures of every element under the generators, in
    plain Python on image tuples."""
    gens = [(g.images, g.inverse().images) for g in chain.generators]
    todo = {p.images for p in chain.elements()}
    classes = []
    while todo:
        start = todo.pop()
        cls, frontier = {start}, [start]
        while frontier:
            nxt = []
            for x in frontier:
                for g, gi in gens:
                    y = tuple(g[x[gi[i]]] for i in range(len(x)))
                    if y not in cls:
                        cls.add(y)
                        nxt.append(y)
            frontier = nxt
        todo -= cls
        classes.append(frozenset(cls))
    return classes


@pytest.mark.parametrize("seed", range(6))
def test_classes_match_brute_force_closures(seed):
    rng = random.Random(seed)
    n = 7 + seed % 2
    gens = []
    for _ in range(2):
        moved = rng.sample(range(n), rng.randrange(2, n + 1))
        images = list(range(n))
        for a, b in zip(moved, rng.sample(moved, len(moved))):
            images[a] = b
        gens.append(Permutation(images))
    chain = build_chain(gens, n)
    gc = conjugacy_classes(chain)
    brute = _brute_classes(chain)
    assert len(gc.classes) == len(brute)
    by_rep = {min(c): c for c in brute}
    for k, c in enumerate(gc.classes):
        members = frozenset(gc.iter_class_images(k))
        assert by_rep[c.representative.images] == members
        assert c.size == len(members)
        for p in list(members)[:5]:
            assert gc.class_of_images(p) == k
        for t, j in c.power_map.items():
            assert (c.representative ** t).images in by_rep[gc.classes[j].representative.images]


def test_lookup_of_a_non_member_raises_key_error():
    gc = conjugacy_classes(A(5))
    # (4,5) fixes the base points 1, 2, 3, so it shares the identity's
    # coordinates
    assert sorted(gc.chain.base) == [0, 1, 2]
    with pytest.raises(KeyError):
        gc.class_of(parse_perm("(4,5)", 5))
    with pytest.raises(KeyError):
        gc.class_of(parse_perm("(1,2)", 5))
    with pytest.raises(KeyError):
        gc.class_of_images((0, 1, 2, 3))
    for images in [(7, 1, 2, 3, 4), (0, -1, 2, 3, 4)]:  # not points at all
        with pytest.raises(KeyError):
            gc.class_of_images(images)
    assert gc.class_of(parse_perm("(1,2)(4,5)", 5)) == gc.class_named("2a")


def _transpositions(k):
    return build_chain([Permutation.from_cycles(2 * k, [[2 * i, 2 * i + 1]])
                        for i in range(k)])


def test_index_of_a_group_with_a_long_base():
    # 14 disjoint transpositions on 28 points: order 2^14 and a base of 14
    # points; 28^14 > 2^67, so the base images do not pack into an int64,
    # but every coordinate stays below the order
    chain = _transpositions(14)
    assert chain.order() == 1 << 14 and len(chain.base) == 14
    gc = conjugacy_classes(chain)
    assert len(gc.classes) == 1 << 14 and {c.size for c in gc.classes} == {1}
    for k in (0, 1, 5000, (1 << 14) - 1):
        rep = gc.classes[k].representative
        assert gc.class_of(rep) == k
        assert gc.classes_of_base_images(np.array([rep.images])[:, gc.base]).tolist() == [k]
    with pytest.raises(KeyError):
        gc.class_of(Permutation.from_cycles(28, [[0, 2]]))


def test_class_letters_run_on_past_zz():
    letters = "abcdefghijklmnopqrstuvwxyz"
    old = [letters[i] if i < 26 else letters[i // 26 - 1] + letters[i % 26]
           for i in range(702)]
    assert [class_letter(i) for i in range(702)] == old
    assert [class_letter(i) for i in (702, 1377, 1378, 18277, 18278)] == \
        ["aaa", "azz", "baa", "zzz", "aaaa"]
    # 2^10 on 20 points: 1023 classes of involutions, the last beyond "2zz"
    gc = conjugacy_classes(_transpositions(10))
    names = [c.name for c in gc.classes if c.rep_order == 2]
    assert len(names) == 1023 == len(set(names)) and names[-1] == "2ami"
    assert all(gc.classes[gc.class_named(name)].name == name for name in names)


def test_class_named_resolves_every_name_of_a_long_base_group():
    # 16 384 classes: one scan per name took 8.5 s for all of them
    gc = conjugacy_classes(_transpositions(14))
    names = [c.name for c in gc.classes]
    start = time.perf_counter()
    assert [gc.class_named(name) for name in names] == list(range(len(names)))
    assert time.perf_counter() - start < 2.0


def test_uint16_index_agrees_with_the_unpadded_group():
    # A5 on 260 points (255 fixed) against A5 on 5: the uint16 rows feed
    # the same Cayley table, classes, class sums and character table
    small = conjugacy_classes(_padded_a5(5))
    wide = conjugacy_classes(_padded_a5(260))
    assert wide._images().dtype == np.uint16 and small._images().dtype == np.uint8
    assert np.array_equal(small._times, wide._times)
    assert small._entry_words == wide._entry_words
    assert np.array_equal(small.class_of_idx, wide.class_of_idx)
    fixed = tuple(range(5, 260))
    for a, b in zip(small.classes, wide.classes):
        assert (a.name, a.size, a.rep_order, a.power_map) == \
            (b.name, b.size, b.rep_order, b.power_map)
        assert b.representative.images == a.representative.images + fixed
    p = dixon_prime(small.order, small.exponent())
    for i in range(len(small.classes)):
        assert np.array_equal(_class_sum_matrix_modp(small, i, p),
                              _class_sum_matrix_modp(wide, i, p))
    assert dixon_table(small, "A5").to_json() == dixon_table(wide, "A5").to_json()


@pytest.mark.parametrize("group", ["A5", "L2(7)", "M11", "A5 on 256 points"])
def test_coordinates_are_a_bijection_onto_the_element_order(group):
    chain = _padded_a5(256) if group == "A5 on 256 points" else catalog.load_group(group)[1]
    gc = conjugacy_classes(chain)
    assert np.array_equal(gc._index(gc._images(points=gc.base)), np.arange(gc.order))
    # a column alone is the column of the full rows, in both dtypes
    idx = np.random.default_rng(0).permutation(gc.order)[:100]
    for c in range(gc.degree):
        assert np.array_equal(gc._images(idx, c), gc._images(idx)[:, c])
    # the identity's first base image, repeated, leaves the second level's orbit
    with pytest.raises(KeyError):
        gc.classes_of_base_images(np.array([[gc.base[0]] * len(gc.base)]))
    if chain.degree == 256:  # a point no element moves a base point to
        with pytest.raises(KeyError):
            gc.classes_of_base_images(np.array([[200] * len(gc.base)]))


def _catalog_order(name):
    m = re.fullmatch(r"([AS])(\d+)", name)
    if m:
        return factorial(int(m[2])) // (2 if m[1] == "A" else 1)
    m = re.fullmatch(r"(S?L)2\((\d+)\)", name)
    if m:
        return (l2_order if m[1] == "L" else sl2_order)(int(m[2]))
    return catalog.STORED_GROUPS[name][1]


# every catalog group whose class system is an element index of at most
# 10^5 elements, then the trivial group and a cyclic group of order 12
CAYLEY_GROUPS = ([n for n in catalog.catalog_names() if _catalog_order(n) <= 10 ** 5]
                 + ["trivial", "C12"])


def cayley_chain(name):
    if name == "trivial":
        return build_chain([], 4)
    if name == "C12":
        return build_chain([parse_perm("(1,2,3)(4,5,6,7)", 7)])
    return catalog.load_group(name)[1]


def _batched_lookup_class_sums(gc, i, p, lookup_rows=4096):
    """(M_i)[j][k] = a_{ijk} mod p by coordinate lookups: for each class
    representative z, the classes of w z, w over the inverse class of C_i
    (base images z[w[base]]), a batch of representatives per lookup.  The
    shape of a batch is spelled out for the trivial group's empty base."""
    k = len(gc.classes)
    w = gc.elements_of_class(gc.inverse_class(i))[:, gc.base]
    reps = np.array([c.representative.images for c in gc.classes])
    batch = max(1, lookup_rows // len(w))
    cols = []
    for lo in range(0, k, batch):
        z = reps[lo:lo + batch]
        found = (gc.classes_of_base_images(z[:, w].reshape(len(z) * len(w), w.shape[1]))
                 + np.repeat(np.arange(len(z)) * k, len(w)))
        cols.append(np.bincount(found, minlength=len(z) * k).reshape(len(z), k))
    return np.concatenate(cols).T % p


class _RecordingClasses(GroupClasses):
    def _conjugations(self, tree):
        self.conj = super()._conjugations(tree)
        return self.conj


@pytest.mark.parametrize("name", CAYLEY_GROUPS)
def test_cayley_table_matches_the_coordinate_lookups(name):
    chain = cayley_chain(name)
    gc = _RecordingClasses(chain)
    rows, base = gc._images(), gc.base
    gens = [g.images for g in chain.generators] or [tuple(range(chain.degree))]
    assert gc._times.shape == (len(gens), gc.order) and gc._times.dtype == np.int32
    for s, g in enumerate(np.array(gens, dtype=rows.dtype)):
        # x g_s has base images g_s[x[base]]
        assert np.array_equal(gc._times[s], gc._index(g[rows[:, base]]))
        # x -> g^-1 x g, whose base images are g[x[g^-1[base]]]
        assert np.array_equal(gc.conj[s], gc._index(g[rows[:, np.argsort(g)[base]]]))
    # each entry is its class's first element, and its word spells it
    assert len(gc._entry_words) == len(gc.classes)
    for k, word in enumerate(gc._entry_words):
        x = 0
        for s in word:
            x = gc._times[s, x]
        assert x == np.flatnonzero(gc.class_of_idx == k)[0]
    p = dixon_prime(gc.order, gc.exponent())
    for i in range(len(gc.classes)):
        M = _class_sum_matrix_modp(gc, i, p)
        assert M.dtype == np.int64
        assert np.array_equal(M, _batched_lookup_class_sums(gc, i, p))
    # the counts are made once per class, read-only, and are those of a
    # system built afresh on the same chain
    fresh = conjugacy_classes(chain)
    for k in range(len(gc.classes)):
        counts = gc.product_counts(k)
        assert gc.product_counts(k) is counts
        with pytest.raises(ValueError):
            counts[0, 0] = 0
        assert np.array_equal(counts, fresh.product_counts(k))


def _key_slots(chain, strip):
    """Slots of a key table that strips `strip` levels: the orbit lengths
    of those levels times n per base point left."""
    radii = [len(lv.points) for lv in chain.levels]
    return prod(radii[:strip]) * chain.degree ** (len(radii) - strip)


def _key_levels(chain):
    """The least number of levels to strip for which the table has at most
    `_KEY_SLOTS` slots per element, and its number of slots."""
    strip = 0
    while _key_slots(chain, strip) > permgroup._KEY_SLOTS * chain.order():
        strip += 1
    return strip, _key_slots(chain, strip)


def _reference_index(chain):
    """The element index built one element at a time over image tuples.
    Each product x g_s, x in element order and s in generator order, is
    appended the first time it is met, and spelled as its parent's word
    plus s.  A key strips one transversal entry per level for the first
    `_key_levels(chain)` levels, reading orbit positions in mixed radix,
    then reads the images of the remaining base points in radix n.  The
    classes are `_brute_classes`, ordered as GroupClasses orders them: by
    representative order, size and lex-least element.  Returns the rows,
    the key table, the Cayley table, each element's class and each
    class's first element's word."""
    n = chain.degree
    gens = [g.images for g in chain.generators] or [tuple(range(n))]
    rows, words = [tuple(range(n))], [()]
    place = {rows[0]: 0}
    times = [[] for _ in gens]
    i = 0
    while i < len(rows):
        for s, g in enumerate(gens):
            y = _mul(rows[i], g)
            if y not in place:
                place[y] = len(rows)
                rows.append(y)
                words.append(words[i] + (s,))
            times[s].append(place[y])
        i += 1
    strip, slots = _key_levels(chain)
    at = [-1] * slots
    for i, x in enumerate(rows):
        key = 0
        for lv in chain.levels[:strip]:
            beta = x[lv.base]
            key = key * len(lv.points) + lv.points.index(beta)
            x = _mul(x, lv.inverse[beta])
        for lv in chain.levels[strip:]:
            key = key * n + x[lv.base]
        at[key] = i
    classes = sorted(_brute_classes(chain),
                     key=lambda c: (Permutation(min(c)).order(), len(c), min(c)))
    class_of = [None] * len(rows)
    for k, c in enumerate(classes):
        for x in c:
            class_of[place[x]] = k
    entry_words = [words[min(place[x] for x in c)] for c in classes]
    return rows, at, times, class_of, entry_words


@pytest.mark.parametrize("gens, degree", [
    (["(1,2)", "(1,2,3,4)"], 4),
    (["(1,2)", "(1,2,3,4)", "(1,2)"], 4),  # a generator repeated
    (["()", "(1,2,3)", "(1,2,3,4,5)"], 5),  # the identity among the generators
    (["(1,2,3)(4,5,6,7)"], 7),
    ([], 3),  # the trivial group
    ("L2(7)", None),
    ("M11", None),
])
def test_element_index_matches_a_one_at_a_time_bfs(gens, degree):
    if degree is None:
        chain = catalog.load_group(gens)[1]
    else:
        chain = build_chain([parse_perm(g, degree) for g in gens], degree)
    gc = conjugacy_classes(chain)
    rows, at, times, class_of, entry_words = _reference_index(chain)
    assert np.array_equal(gc._images(), np.array(rows, dtype=gc._images().dtype))
    assert np.array_equal(gc._at, at)
    assert np.array_equal(gc._times, times)
    assert np.array_equal(gc.class_of_idx, class_of)
    assert gc._entry_words == entry_words


@pytest.mark.parametrize("name", CAYLEY_GROUPS)
def test_key_table_strips_the_fewest_levels_that_fit(name):
    chain = cayley_chain(name)
    gc = conjugacy_classes(chain)
    strip = len(gc._levels)
    assert gc._at.dtype == np.int32
    assert np.count_nonzero(gc._at >= 0) == gc.order
    assert np.array_equal(np.sort(gc._at[gc._at >= 0]), np.arange(gc.order))
    assert len(gc._at) == _key_slots(chain, strip) <= permgroup._KEY_SLOTS * gc.order
    # one level fewer would not fit
    assert strip == 0 or _key_slots(chain, strip - 1) > permgroup._KEY_SLOTS * gc.order
    # the three regimes: no strip, part of the chain, the whole chain
    expected = {"M11": 0, "A8": 5, "SL2(7)": len(chain.levels)}
    if name in expected:
        assert strip == expected[name]


def test_base_images_of_no_element_land_on_an_empty_slot():
    chain = catalog.load_group("L2(7)")[1]
    gc = conjugacy_classes(chain)
    assert len(gc._levels) == 0  # nothing stripped: the key packs the images
    n, base = gc.degree, list(gc.base)
    members = {tuple(row) for row in gc._images(points=gc.base).tolist()}
    # distinct points, each in its level's orbit (the group is 2-transitive),
    # that are the base images of no element
    triple = next(t for t in ((base[0], base[1], c) for c in range(n))
                  if len(set(t)) == 3 and t not in members)
    key = (triple[0] * n + triple[1]) * n + triple[2]
    assert gc._at[key] == -1
    assert gc._coordinates(np.array([triple])).tolist() == [key]
    with pytest.raises(KeyError):
        gc.classes_of_base_images(np.array([triple]))
    with pytest.raises(KeyError):  # one bad tuple among members fails the call
        gc.classes_of_base_images(np.array([base, triple]))


def test_base_images_that_are_not_points_raise_key_error():
    # L2(7) strips nothing: packed in radix 8, the image 9 = 1 + 8 in the
    # last place would alias one more in the middle place, the key of the
    # member [3 2 1]
    gc = conjugacy_classes(catalog.load_group("L2(7)")[1])
    assert len(gc._levels) == 0 and gc.degree == 8
    gc.classes_of_base_images(np.array([[3, 2, 1]]))  # a member
    with pytest.raises(KeyError):
        gc.classes_of_base_images(np.array([[3, 1, 9]]))
    # A8 strips 5 levels: a negative first image would wrap through the
    # orbit positions of the first level onto a member's key
    gc = conjugacy_classes(catalog.load_group("A8")[1])
    assert len(gc._levels) == 5
    member = gc._images(np.arange(0, gc.order, 997), gc.base).astype(np.int64)
    gc.classes_of_base_images(member)
    for row in member[:5]:
        wrapped = row.copy()
        wrapped[0] -= gc.degree
        with pytest.raises(KeyError):
            gc.classes_of_base_images(wrapped[None])
    with pytest.raises(KeyError):  # one bad tuple among members fails the call
        gc.classes_of_base_images(np.vstack([member, wrapped]))


@pytest.mark.parametrize("name", CAYLEY_GROUPS)
def test_forward_labels_give_the_classes_of_a_union_find(name):
    # labels flow forward through each conjugation only; a union-find over
    # the same maps gives the same partition, and each class's entry is its
    # least row
    gc = _RecordingClasses(cayley_chain(name))
    root = list(range(gc.order))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for c in gc.conj:
        for i, j in enumerate(c.tolist()):
            a, b = find(i), find(j)
            if a != b:  # the lesser root wins, so a root is its set's least row
                root[max(a, b)] = min(a, b)
    least = [find(i) for i in range(gc.order)]
    class_of_least = {}
    for r, k in zip(least, gc.class_of_idx.tolist()):
        assert class_of_least.setdefault(r, k) == k
    assert sorted(class_of_least.values()) == list(range(len(gc.classes)))
    for k, word in enumerate(gc._entry_words):
        x = 0
        for s in word:
            x = int(gc._times[s, x])
        assert least[x] == x and class_of_least[x] == k


def test_only_images_reads_the_stored_rows():
    # one reader, so that the rows can be rebuilt instead of stored by
    # changing one method; the stages hand their results on, so none is
    # parked on the instance and deleted
    tree = ast.parse(inspect.getsource(GroupClasses))
    readers, deletes = set(), []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and node.attr == "_rows"
                    and isinstance(node.value, ast.Name) and node.value.id == "self"):
                readers.add(fn.name)
            if isinstance(node, ast.Delete):
                deletes += [t for t in node.targets if isinstance(t, ast.Attribute)]
    assert readers == {"_images"}
    assert not deletes
    gc = conjugacy_classes(catalog.load_group("M11")[1])
    assert {a for a in vars(gc) if a.startswith("_")} == \
        {"_at", "_counts", "_entry_words", "_levels", "_rows", "_times"}


@pytest.mark.parametrize("gens, degree", [([], 4), ([(0,)], 1), ([(0, 1, 2)], 3)])
def test_trivial_group_classes(gens, degree):
    gc = conjugacy_classes(build_chain([Permutation(g) for g in gens], degree))
    assert [(c.name, c.size, c.power_map) for c in gc.classes] == [("1a", 1, {0: 0})]
    assert gc.class_of(Permutation.identity(degree)) == 0


def _check_level_caches(chain):
    identity = tuple(range(chain.degree))
    for lv in chain.levels:
        assert lv.points == list(lv.transversal)
        assert list(lv.inverse) == lv.points
        for beta, u in lv.transversal.items():
            assert _mul(u, lv.inverse[beta]) == identity
            assert _mul(lv.inverse[beta], u) == identity
        assert lv.gen_inverses == [_inv(s) for s in lv.gens]


@pytest.mark.parametrize("name", ["A7", "L2(16)", "M11", "U3(3)", "J1"])
def test_catalog_chains_cache_inverse_transversals(name):
    _check_level_caches(catalog.load_group(name)[1])


def test_lemma_chain_caches_inverse_transversals():
    _check_level_caches(build_lemma43(14).chain)


def _chain_data(chain):
    return [(lv.base, lv.gens, list(lv.transversal.items())) for lv in chain.levels]


@pytest.mark.parametrize("n", range(11, 31))
def test_known_order_chain_matches_the_deterministic_oracle(n):
    c = build_lemma42(n) if n % 2 else build_lemma43(n)
    ref = build_chain([c.x, c.y])
    assert c.chain.order() == ref.order() == factorial(n) // 2
    c.chain.verify()
    _check_level_caches(c.chain)
    # members of S_n, half of them odd
    rng = random.Random(n)
    for _ in range(50):
        g = list(range(n))
        rng.shuffle(g)
        assert c.chain.contains(g) == ref.contains(g)
    again = build_chain([c.x, c.y], within=factorial(n) // 2)
    assert _chain_data(again) == _chain_data(c.chain)


def test_known_order_falls_back_to_the_deterministic_chain():
    # AGL(3, 2) < A8: transitive, so only the stalled sifts tell it apart
    gens = [parse_perm("(1,2,5,3)(4,6,7,8)", 8), parse_perm("(1,5)(3,8,7,6)", 8)]
    ref = build_chain(gens)
    assert ref.order() == 1344
    assert _chain_data(build_chain(gens, within=20160)) == _chain_data(ref)


def test_known_order_refuses_an_order_it_passes():
    # the orbit lengths of S5's chain multiply to 5 and then to at least 10
    gens = [parse_perm("(1,2)", 5), parse_perm("(1,2,3,4,5)", 5)]
    with pytest.raises(AssertionError):
        build_chain(gens, within=7)
    assert build_chain(gens, within=120).order() == 120
    assert build_chain([], 4, within=1).order() == 1


def test_known_order_checks_membership_and_orbits():
    a5 = A(5)
    even = [parse_perm("(1,2,3)", 5), parse_perm("(1,2,3,4,5)", 5)]
    assert known_order(even, a5) == 60
    assert build_chain(even, within=known_order(even, a5)).order() == 60
    # an odd generator: <gens> = S5 is not a subgroup of A5
    odd = [parse_perm("(1,2)", 5), parse_perm("(1,2,3,4,5)", 5)]
    assert known_order(odd, a5) is None
    assert build_chain(odd, within=known_order(odd, a5)).order() == 120
    # other orbits than A5's: a proper subgroup
    assert known_order([parse_perm("(1,2,3)", 5)], a5) is None


def test_random_element_draws_from_the_transversal_points():
    chain = catalog.load_group("M11")[1]
    rng, ref_rng = random.Random(5), random.Random(5)
    for _ in range(50):
        g = tuple(range(chain.degree))
        for lv in reversed(chain.levels):
            g = _mul(g, lv.transversal[ref_rng.choice(list(lv.transversal))])
        assert chain.random_element(rng).images == g


@pytest.mark.parametrize("name", ["M11", "A8"])
def test_group_classes_centralizer_generators_are_few_and_generate_it(name):
    chain = catalog.load_group(name)[1]
    gc = conjugacy_classes(chain)
    for c in gc.classes:
        x = c.representative
        cent = gc.centralizer_generators(x.images)
        order = gc.order // c.size
        assert build_chain(cent, chain.degree).order() == order
        assert len(cent) <= order.bit_length() - 1
        assert all(x * Permutation(g) == Permutation(g) * x for g in cent)


@pytest.mark.parametrize("name", ["M11", "A8"])
def test_centralizer_generators_build_one_chain_per_kept_generator(name, monkeypatch):
    from cgtkit import permgroup
    gc = catalog.class_system(name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return build_chain(*args, **kwargs)

    monkeypatch.setattr(permgroup, "build_chain", counting)
    for c in gc.classes:
        calls.clear()
        cent = gc.centralizer_generators(c.representative.images)
        assert len(calls) == len(cent), c.name


def _whole_index_centralizer_generators(gc, x_images):
    """`centralizer_generators` with C_G(x) found by one scan over all of
    the stored rows at once."""
    x = np.asarray(x_images, dtype=gc._images().dtype)
    rows = gc._images()
    cent = rows[(rows[:, x] == x[rows]).all(axis=1)]
    ident = tuple(range(gc.degree))
    gens, sub = [], None
    for row in cent:
        if sub is not None and sub.order() == len(cent):
            break
        c = tuple(row.tolist())
        if c == ident if sub is None else sub.contains(c):
            continue
        gens.append(c)
        sub = build_chain(gens, gc.degree, within=len(cent))
    return gens


@pytest.mark.parametrize("name, cls", [("M12", "2a"), ("M12", "11b"), ("A8", "7a")])
def test_blocked_centralizer_scan_matches_the_whole_index_scan(name, cls):
    gc = conjugacy_classes(catalog.load_group(name)[1])
    # several blocks, the last one short
    assert gc.order > permgroup._SCAN_ROWS and gc.order % permgroup._SCAN_ROWS
    x = gc.classes[gc.class_named(cls)].representative.images
    assert gc.centralizer_generators(x) == _whole_index_centralizer_generators(gc, x)


def test_orbit_lists_the_seed_first_in_fifo_order():
    from cgtkit.permgroup import orbit
    # Z/7 under +1 and +3: breadth first from 0 reaches 1, 3 (one step),
    # then 2, 4 from 1 and 6 from 3 (two steps), then 5; a stack would
    # give 0, 1, 3, 4, 6, 2, 5
    assert orbit(0, [1, 3], lambda s, p: (p + s) % 7) == [0, 1, 3, 2, 4, 6, 5]
    assert orbit(4, [], lambda s, p: p) == [4]
    g = parse_perm("(1,2)(3,4,5)", 6).images
    assert orbit(2, [g], lambda h, b: h[b]) == [2, 3, 4]
    assert orbit(5, [g], lambda h, b: h[b]) == [5]


def test_orbits_match_a_union_find_partition():
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randrange(1, 13)
        gens = []
        for _ in range(rng.randrange(0, 4)):
            moved = rng.sample(range(n), rng.randrange(0, n + 1))
            images = list(range(n))
            for a, b in zip(moved, rng.sample(moved, len(moved))):
                images[a] = b
            gens.append(tuple(images))
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        for g in gens:
            for a in range(n):
                ra, rb = find(a), find(g[a])
                parent[max(ra, rb)] = min(ra, rb)
        blocks: dict = {}
        for a in range(n):
            blocks.setdefault(find(a), []).append(a)
        assert orbits(gens, n) == sorted(blocks.values()), (n, gens)
