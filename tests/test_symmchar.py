import itertools
import time
from functools import cache
from math import factorial, gcd

import numpy as np
import pytest

from cgtkit.chartab import class_mult_coeff, dixon_table
from cgtkit.classalg import covers
from cgtkit.cyclotomic import sqrt_int
from cgtkit.perms import Permutation, _mul
from cgtkit.permgroup import build_chain, conjugacy_classes
from cgtkit import catalog, symmchar, verify
from cgtkit.symmchar import (AnClassSystem, SnClassSystem, _aligns_evenly, _jacobi,
                             _power_fixed_points, _type_rows, an_pair_covers, an_table,
                             canonical_rep, class_size_sn, hook_degree, mn_value, partitions, sn_table,
                             splits_in_an)


def test_mn_trivial_and_sign():
    assert mn_value((5,), (3, 1, 1)) == 1
    # sign character value is (-1)^(n - #parts)
    for mu in partitions(6):
        assert mn_value((1,) * 6, mu) == (-1) ** (6 - len(mu))


def test_mn_degree_is_hook_length_formula():
    assert mn_value((3, 2), (1,) * 5) == 5
    for n in range(1, 13):
        for lam in partitions(n):
            assert mn_value(lam, (1,) * n) == hook_degree(lam)


def test_mn_size_mismatch():
    with pytest.raises(ValueError):
        mn_value((2, 1), (4,))


@pytest.mark.parametrize("lam, mu", [
    ((3,), (2, 1, 0)), ((3,), (4, -1)), ((1, 2), (3,)), ((2, 2, -1), (3,)),
    ((2, 1, 1.0), (4,)), ((3,), (1.5, 1.5))])
def test_mn_refuses_malformed_input(lam, mu):
    with pytest.raises(ValueError):
        mn_value(lam, mu)


def test_mn_takes_trailing_zero_parts():
    assert mn_value((3, 0), (2, 1)) == mn_value((3,), (2, 1)) == 1
    assert mn_value((0,), ()) == mn_value((), ()) == 1


def _reference_strips(lam, k):
    """Removable border strips of size k: yields (smaller_partition, sign)."""
    r = len(lam)
    beta = [lam[i] + (r - 1 - i) for i in range(r)]
    bset = set(beta)
    for b in beta:
        nb = b - k
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for x in beta if nb < x < b)
        newbeta = sorted((x for x in beta if x != b), reverse=True)
        newbeta.append(nb)
        newbeta.sort(reverse=True)
        newlam = tuple(newbeta[i] - (r - 1 - i) for i in range(r))
        newlam = tuple(x for x in newlam if x > 0)
        yield newlam, -1 if height % 2 else 1


@cache
def _reference_mn_value(lam, mu):
    """chi^lam(mu) by Murnaghan-Nakayama on beta-set tuples."""
    if not mu:
        return 1
    k, rest = mu[0], mu[1:]
    return sum(sign * _reference_mn_value(newlam, rest)
               for newlam, sign in _reference_strips(lam, k))


@pytest.mark.parametrize("n", range(0, 11))
def test_mn_matches_the_reference_recursion(n):
    for lam in partitions(n):
        for mu in partitions(n):
            assert mn_value(lam, mu) == _reference_mn_value(lam, mu), (lam, mu)


def test_s4_table():
    t = sn_table(4)
    assert sorted(t.degrees) == [1, 1, 2, 3, 3]
    assert sum(d * d for d in t.degrees) == 24


def test_sum_of_squares_identities():
    for n in (5, 6, 7):
        assert sum(hook_degree(l) ** 2 for l in partitions(n)) == factorial(n)
        t = an_table(n)
        assert sum(d * d for d in t.degrees) == factorial(n) // 2


def test_a5_split_classes_and_values():
    t = an_table(5)
    cs = AnClassSystem(5)
    split = [c for c in cs.classes if c.split_letter]
    assert len(split) == 2 and all(c.size == 12 for c in split)
    golden = (1 + sqrt_int(5)) / 2
    i5a = t.class_named("5a")
    vals = {t.values[i][i5a].sort_key() for i in range(5) if t.degrees[i] == 3}
    assert golden.sort_key() in vals


def test_a7_has_coprime_odd_orders():
    cs = AnClassSystem(7)
    orders = {c.rep_order for c in cs.classes}
    assert {5, 7} <= orders


def test_type_element_enumeration_counts():
    for n, mu in [(3, (2, 1)), (4, (2, 2)), (5, (3, 1, 1)), (5, (2, 2, 1)),
                  (6, (3, 3)), (6, (2, 2, 1, 1))]:
        cnt = sum(len(rows) for rows in _type_rows(n, mu))
        assert cnt == class_size_sn(n, mu), (n, mu)


def _reference_type_elements(n, mu):
    """Image tuples of cycle type mu, one cycle at a time: each cycle starts
    at its least point and equal-length cycles at increasing starts."""
    parts = [p for p in mu if p > 1]

    def rec(images, remaining, parts_left, prev_len, prev_start):
        if not parts_left:
            yield tuple(images)
            return
        length = parts_left[0]
        for start in sorted(remaining):
            if length == prev_len and start <= prev_start:
                continue
            larger = sorted(p for p in remaining if p > start)
            if len(larger) < length - 1:
                continue
            for others in itertools.permutations(larger, length - 1):
                cyc = (start,) + others
                for a, b in zip(cyc, cyc[1:]):
                    images[a] = b
                images[cyc[-1]] = start
                yield from rec(images, remaining - set(cyc), parts_left[1:],
                               length, start)
                for a in cyc:
                    images[a] = a

    yield from rec(list(range(n)), set(range(n)), parts, -1, -1)


@pytest.mark.parametrize("n", range(1, 10))
def test_type_rows_match_the_reference_recursion(n, monkeypatch):
    # at bound 1 every prefix is a block of its own, a few numpy calls per
    # element: all of S9 takes about 18 s (2-core machine), so n = 9 starts
    # at 37 and n <= 8 covers bound 1
    bounds = (37, symmchar._BLOCK_ROWS) if n == 9 else (1, 37, symmchar._BLOCK_ROWS)
    for mu in partitions(n):
        want = np.array(list(_reference_type_elements(n, mu)), dtype=np.int8)
        for bound in bounds:
            monkeypatch.setattr(symmchar, "_BLOCK_ROWS", bound)
            chunks = list(_type_rows(n, mu))
            assert all(rows.dtype == np.int8 and 0 < len(rows) <= bound + n
                       for rows in chunks), (mu, bound)
            assert np.array_equal(np.concatenate(chunks), want), (mu, bound)


def test_type_rows_stream_a_huge_class(monkeypatch):
    # 17+1 in S18 has 18!/17 elements; the first chunk must not need them all
    monkeypatch.setattr(symmchar, "_BLOCK_ROWS", 3000)
    t0 = time.perf_counter()
    rows = next(_type_rows(18, (17, 1)))
    assert time.perf_counter() - t0 < 5
    assert 0 < len(rows) <= 3000 + 18
    want = list(itertools.islice(_reference_type_elements(18, (17, 1)), len(rows)))
    assert [tuple(r) for r in rows.tolist()] == want


@pytest.mark.parametrize("bound", [1, 7, 50])
def test_type_rows_split_small_blocks_in_order(monkeypatch, bound):
    # a small block bound splits the levels from the second position on;
    # each chunk is one finished block
    monkeypatch.setattr(symmchar, "_BLOCK_ROWS", bound)
    for mu in [(2, 2, 1, 1, 1, 1), (3, 3, 2), (4, 2, 2), (5, 3), (6, 1, 1), (8,)]:
        want = np.array(list(_reference_type_elements(8, mu)), dtype=np.int8)
        chunks = list(_type_rows(8, mu))
        assert len(chunks) > 1 and all(0 < len(rows) <= bound + 8 for rows in chunks), mu
        assert np.array_equal(np.concatenate(chunks), want), mu


def test_split_class_halves_with_small_blocks(monkeypatch):
    monkeypatch.setattr(symmchar, "_BLOCK_ROWS", 100)
    cs = AnClassSystem(9)
    ref = np.array(list(_reference_type_elements(9, (9,))), dtype=np.int8)
    even = _aligns_evenly(ref, (9,))
    for name, half in (("9a", ref[even]), ("9b", ref[~even])):
        assert list(cs.iter_class_images(cs.class_named(name))) == list(map(tuple, half.tolist()))


def test_type_rows_of_four_cycles_in_s10():
    want = np.array(list(_reference_type_elements(10, (3, 3, 2, 2))), dtype=np.int8)
    chunks = list(_type_rows(10, (3, 3, 2, 2)))
    assert len(want) == 25200 and len(chunks) > 1
    assert all(0 < len(rows) <= symmchar._BLOCK_ROWS + 10 for rows in chunks)
    assert np.array_equal(np.concatenate(chunks), want)


def test_products_do_not_depend_on_the_chunk_size(monkeypatch):
    # products of two involutions of A9 reach the split classes 9a and 9b
    cs = AnClassSystem(9)
    k = cs.class_named("2+2+2+2+1")
    x = cs.classes[k].representative.images
    seen = {}
    for bound in (1, 37, symmchar._BLOCK_ROWS):
        monkeypatch.setattr(symmchar, "_BLOCK_ROWS", bound)
        seen[bound] = [list(cs.iter_class_images_with_product(k, x, target))
                       for target in range(len(cs.classes))]
    assert seen[1] == seen[37] == seen[symmchar._BLOCK_ROWS]
    assert sum(map(len, seen[1])) == cs.classes[k].size
    assert seen[1][cs.class_named("9a")] and seen[1][cs.class_named("9b")]


def test_jacobi_is_the_sign_of_multiplication():
    for m in range(1, 52, 2):
        for t in range(1, 2 * m + 1):
            if gcd(t, m) == 1:
                assert _jacobi(t, m) == Permutation([t * i % m for i in range(m)]).sign(), \
                    (t, m)


@pytest.mark.parametrize("n", range(3, 19))
def test_power_maps_match_powers_of_representatives(n):
    cs = AnClassSystem(n)
    for k, c in enumerate(cs.classes):
        want = {t: cs.class_of(c.representative ** t) for t in range(max(c.rep_order, 1))}
        assert {t: cs.power_class(k, t) for t in want} == want, (n, c.name)


def test_an_class_membership_and_split_sign():
    cs = AnClassSystem(7)
    i7a = cs.class_named("7a")
    i7b = cs.class_named("7b")
    rep = cs.classes[i7a].representative
    # an odd conjugator must land in the partner class
    tau = Permutation.from_cycles(7, [[0, 1]])
    assert cs.class_of(rep.conj(tau)) == i7b
    # even conjugator stays
    sigma = Permutation.from_cycles(7, [[0, 1, 2]])
    assert cs.class_of(rep.conj(sigma)) == i7a
    # 7a^(-1) is 7b in A7 (Legendre(-1|7) = -1)
    assert cs.power_class(i7a, -1) == i7b


@pytest.mark.parametrize("system", [AnClassSystem, SnClassSystem])
def test_class_of_refuses_what_is_not_an_element(system):
    # as the element index does: a wrong degree, repeated images (whose
    # cycle walk would never end) and, in A_5, an odd permutation
    cs = system(5)
    for images in [(1, 2, 0, 3, 4, 5), (0, 0, 1, 2, 3)]:
        with pytest.raises(KeyError, match="not an element of the group"):
            cs.class_of(Permutation(images))
    transposition = Permutation((1, 0, 2, 3, 4))
    if system is AnClassSystem:
        for images in [(1, 2, 0, 3, 4, 5), (0, 0, 1, 2, 3), transposition.images]:
            with pytest.raises(KeyError, match="not an element of the group"):
                cs.class_of_images(images)
    else:
        assert cs.classes[cs.class_of(transposition)].cycle_type == (2, 1, 1, 1)


@pytest.mark.parametrize("n", range(5, 10))
def test_every_split_class_element_classifies_back(n):
    cs = AnClassSystem(n)
    for k, c in enumerate(cs.classes):
        if c.split_letter:
            assert all(cs.class_of_images(y) == k for y in cs.iter_class_images(k)), c.name


def test_an_table_equals_dixon_small():
    # through the class map: each element-index class to the cycle-type
    # class of its representative
    for n in (5, 6):
        gc = catalog.class_system(f"A{n}")
        td = dixon_table(gc, f"A{n}")
        assert verify._mn_matches_dixon(AnClassSystem(n), gc, td)


def test_an_pair_covers_a5():
    ok, missed = an_pair_covers(5, "5a", "5b")
    assert ok and missed == []
    ok, missed = an_pair_covers(5, "5a", "5a")
    assert not ok and missed == ["2+2+1"]


@pytest.mark.parametrize("n", range(5, 10))
def test_an_pair_covers_matches_the_full_table(n):
    table = an_table(n)
    names = [c.name for c in AnClassSystem(n).classes if c.rep_order > 1]
    for a in names:
        for b in names:
            want = covers(table, a, b)
            assert an_pair_covers(n, a, b) == (want.covered, want.missed), (n, a, b)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_an_pair_covers_matches_brute_force(n):
    cs = AnClassSystem(n)
    gc = catalog.class_system(f"A{n}")
    match = [gc.class_of(c.representative) for c in cs.classes]
    assert sorted(match) == list(range(len(gc.classes)))
    nontrivial = [k for k, c in enumerate(cs.classes) if c.rep_order > 1]
    for i in nontrivial:
        for j in nontrivial:
            missed = [cs.classes[k].name for k in nontrivial
                      if class_mult_coeff(gc, match[i], match[j], match[k]) == 0]
            assert an_pair_covers(n, cs.classes[i].name, cs.classes[j].name) \
                == (not missed, missed), (n, i, j)


def test_class_sizes_sum_to_group_order():
    for n in (5, 6, 7, 8):
        cs = AnClassSystem(n)
        assert sum(c.size for c in cs.classes) == factorial(n) // 2
        sn = SnClassSystem(n)
        assert sum(c.size for c in sn.classes) == factorial(n)


def test_budget_guard():
    with pytest.raises(ValueError):
        AnClassSystem(19)
    with pytest.raises(ValueError):
        sn_table(19)


def _check_batched_products(n):
    cs = AnClassSystem(n)
    for k, c in enumerate(cs.classes):
        x = c.representative.images
        classified = [(y, cs.class_of_images(_mul(x, y))) for y in cs.iter_class_images(k)]
        for target in range(len(cs.classes)):
            want = [y for y, t in classified if t == target]
            assert list(cs.iter_class_images_with_product(k, x, target)) == want, \
                (n, c.name, cs.classes[target].name)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_batched_products_match_per_element_filter(n):
    _check_batched_products(n)


def test_batched_products_across_chunk_boundaries(monkeypatch):
    monkeypatch.setattr(symmchar, "_BLOCK_ROWS", 37)
    _check_batched_products(7)


def test_batched_products_with_an_arbitrary_x():
    cs = AnClassSystem(8)
    x = Permutation.from_cycles(8, [[0, 5, 2], [3, 7, 6, 4, 1]]).images
    k = cs.class_named("5a")
    classified = [(y, cs.class_of_images(_mul(x, y))) for y in cs.iter_class_images(k)]
    for target in range(len(cs.classes)):
        assert (list(cs.iter_class_images_with_product(k, x, target))
                == [y for y, t in classified if t == target])


def test_power_fixed_points_tell_every_cycle_type():
    # the premise of the product sieve: over the powers it checks, no other
    # cycle type has the target type's fixed-point counts
    for n in range(1, 13):
        counts = {}
        for nu in partitions(n):
            p = power = np.array(symmchar.canonical_rep(nu, n).images)
            counts[nu] = []
            for _ in range(n):
                counts[nu].append(int((power == np.arange(n)).sum()))
                power = p[power]
        for mu in partitions(n):
            profile = _power_fixed_points(mu)
            assert profile == counts[mu][:len(profile)], mu
            for nu in partitions(n):
                if nu != mu:
                    assert counts[nu][:len(profile)] != profile, (mu, nu)


@pytest.mark.parametrize("x_cycles", [None, [[0, 3], [1, 8, 5, 2], [4, 9, 7]]])
def test_a10_7a_products_match_per_element_filter(monkeypatch, x_cycles):
    # every 13th block of about 37 rows: over 6 000 elements spread over the class
    monkeypatch.setattr(symmchar, "_BLOCK_ROWS", 37)
    cs = AnClassSystem(10)
    k = cs.class_named("7a")
    x = (cs.classes[k].representative if x_cycles is None
         else Permutation.from_cycles(10, x_cycles)).images
    chunks = cs._class_chunks
    monkeypatch.setattr(cs, "_class_chunks",
                        lambda k: itertools.islice(chunks(k), 0, None, 13))
    ys = list(cs.iter_class_images(k))
    want = [y for y in ys if cs.class_of_images(_mul(x, y)) == k]
    assert len(ys) > 6000 and len(want) > 100
    assert list(cs.iter_class_images_with_product(k, x, k)) == want


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_centralizer_generators_generate_the_centralizer(n):
    cs = AnClassSystem(n)
    for c in cs.classes:
        x = c.representative
        gens = cs.centralizer_generators(x.images)
        for g in gens:
            g = Permutation(g)
            assert g.sign() == 1 and x * g == g * x
        order = build_chain(gens, n).order() if gens else 1
        assert order == cs.order // c.size, c.name


def align_sign(perm: Permutation, mu: tuple) -> int:
    """Sign of a conjugator carrying canonical_rep(mu) to perm, for mu with
    distinct parts (the split case), where it does not depend on the
    choice: the reference for _aligns_evenly."""
    n = perm.degree
    by_len_perm = {}
    for c in perm.cycles(include_fixed=True):
        i = c.index(min(c))
        by_len_perm[len(c)] = c[i:] + c[:i]
    images = [0] * n
    for c in canonical_rep(mu, n).cycles(include_fixed=True):
        for a, b in zip(c, by_len_perm[len(c)]):
            images[a] = b
    return Permutation(images).sign()


def test_vectorized_split_half_matches_align_sign(monkeypatch):
    monkeypatch.setattr(symmchar, "_BLOCK_ROWS", 3000)
    for n in (5, 6, 7, 8, 11):
        for mu in partitions(n):
            if not splits_in_an(mu):
                continue
            rows = next(_type_rows(n, mu))
            elements = [tuple(r) for r in rows.tolist()]
            want = [align_sign(Permutation(y), mu) == 1 for y in elements]
            assert _aligns_evenly(rows, mu).tolist() == want, (n, mu)
