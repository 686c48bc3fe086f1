from fractions import Fraction

import pytest

from cgtkit import catalog
from cgtkit._ntheory import primitive_root
from cgtkit.chartab import dixon_prime, dixon_table
from cgtkit.cyclotomic import Cyclotomic
from cgtkit.fflinalg import FFMatrix
from cgtkit.finitefield import FiniteField
from cgtkit.fixspace import (catalog_module_rep, deleted_permutation_rep,
                             diagonal_tuple_fixed_dim, eigdims_from_character,
                             fixed_dim_ff, neumann_scan, property_e_witness,
                             random_scott_tuples, scott_check,
                             tensor_power_min_ratio)


def test_fixed_dim_identity_word():
    rep = catalog_module_rep("A5:std4")
    assert fixed_dim_ff(rep, []) == 4


def test_a5_five_cycle_has_no_fixed_space():
    rep = catalog_module_rep("A5:std4")
    # find a word of order 5
    import random
    rng = random.Random(1)
    while True:
        word = [rng.randrange(2) for _ in range(rng.randrange(2, 8))]
        if rep.perm_of_word(word).order() == 5:
            break
    assert fixed_dim_ff(rep, word) == 0


def test_sl24_order5_no_fixed_space():
    rep = catalog_module_rep("SL2(4):nat")
    import random
    rng = random.Random(2)
    while True:
        word = [rng.randrange(len(rep.matrices)) for _ in range(rng.randrange(2, 8))]
        if rep.perm_of_word(word).order() == 5:
            break
    assert fixed_dim_ff(rep, word) == 0


def test_scott_equality_for_inverse_pair():
    rep = catalog_module_rep("A5:std4")
    word = [0, 1]
    inv = [-2, -1]
    res = scott_check(rep, [word, inv])
    assert res["lhs"] == res["rhs"] and res["ok"]


def test_scott_on_five_cycle_triple():
    rep = catalog_module_rep("A5:std4")
    import random
    rng = random.Random(0)
    while True:
        tuples = random_scott_tuples(rep, 1, r=3, seed=rng.randrange(10 ** 6))
        perms = [rep.perm_of_word(w) for w in tuples[0]]
        if all(p.order() == 5 for p in perms):
            break
    res = scott_check(rep, tuples[0])
    assert res["lhs"] == 12 and res["rhs"] == 8 and res["ok"]


def test_scott_rejects_nonproduct():
    rep = catalog_module_rep("A5:std4")
    with pytest.raises(ValueError):
        scott_check(rep, [[0], [0]])


def test_eigdims_identity_class():
    t = catalog.character_table("A5")
    ident = next(j for j, c in enumerate(t.classes) if c.rep_order == 1)
    for i, d in enumerate(t.degrees):
        assert eigdims_from_character(t, i, ident) == [(0, d)]


def test_eigdims_a5_degree4_on_five_cycles():
    t = catalog.character_table("A5")
    i4 = next(i for i, d in enumerate(t.degrees) if d == 4)
    j = t.class_named("5a")
    dims = eigdims_from_character(t, i4, j)
    assert [m for _, m in dims] == [0, 1, 1, 1, 1]


def test_eigdims_sum_to_degree():
    t = catalog.character_table("A6")
    for i in range(t.n_classes):
        for j in range(t.n_classes):
            dims = eigdims_from_character(t, i, j)
            assert sum(m for _, m in dims) == t.degrees[i]


def test_matrix_vs_character_eigenspace_agreement():
    # A5 std4 over GF(7): 5th roots of unity live in GF(7^4)
    rep = catalog_module_rep("A5:std4")
    import random
    rng = random.Random(5)
    while True:
        word = [rng.randrange(2) for _ in range(rng.randrange(2, 8))]
        if rep.perm_of_word(word).order() == 5:
            break
    m = rep.matrix_of_word(word)
    F4 = FiniteField(7, 4)
    big = FFMatrix(F4, m.map_entries(lambda a: m.field.embed(a, F4)).data)
    root = F4.pow(F4.gen_code, (F4.q - 1) // 5)
    mat_dims = sorted(
        (big - FFMatrix(F4, [[root_pow if a == b else 0 for b in range(4)]
                             for a in range(4)])).nullity()
        for root_pow in [F4.pow(root, l) for l in range(5)])
    t = catalog.character_table("A5")
    i4 = next(i for i, d in enumerate(t.degrees) if d == 4)
    char_dims = sorted(mult for _, mult in
                       eigdims_from_character(t, i4, t.class_named("5a")))
    assert mat_dims == char_dims == [0, 1, 1, 1, 1]


def _fix_minus_one(gc, table):
    """The row of `table` whose value on each class of `gc` is the number of
    points the class fixes, less one: the deleted permutation character,
    irreducible for a 2-transitive action."""
    fixed = [sum(i == x for i, x in enumerate(c.representative.images))
             for c in gc.classes]
    want = [Cyclotomic.from_rational(f - 1) for f in fixed]
    return next(i for i, row in enumerate(table.values) if row == want)


def _class_words(gc, rep):
    """A word in the module's generators for each class of `gc`: the class
    entry's word of the element index."""
    assert [g.images for g in gc.chain.generators] == \
        [g.images for g in rep.chain.generators]
    words = gc._entry_words
    assert [gc.class_of(rep.perm_of_word(w)) for w in words] == list(range(len(words)))
    return words


# 2-transitive in their catalog actions.  The natural SL2(q) and SL3(2)
# modules are left out: they are modular (p divides |G|), so no ordinary
# character gives their eigenspaces.
@pytest.mark.parametrize("name", ["A5", "A6", "L2(7)", "L2(11)", "M11", "M12"])
def test_eigdims_match_the_deleted_permutation_module_on_every_class(name):
    gc = catalog.class_system(name)
    # p = 1 mod every element order, and p does not divide |G|
    p = dixon_prime(gc.order, gc.exponent())
    rep = deleted_permutation_rep(name, gc.chain, p)
    words = _class_words(gc, rep)
    table = dixon_table(gc, name)  # class k of the table is class k of gc
    i = _fix_minus_one(gc, table)
    F, root = rep.field, primitive_root(p)
    for k, c in enumerate(gc.classes):
        o = c.rep_order
        zeta_o = pow(root, (p - 1) // o, p)
        M = rep.matrix_of_word(words[k])
        nullities = sorted(
            (M - FFMatrix(F, [[pow(zeta_o, l, p) if a == b else 0 for b in range(rep.dim)]
                              for a in range(rep.dim)])).nullity()
            for l in range(o))
        assert nullities == sorted(m for _, m in eigdims_from_character(table, i, k)), \
            (name, c.name)


def test_a5_std4_fixed_spaces_on_every_class():
    # GF(7) has no 5th roots of unity, so only the fixed spaces compare
    rep = catalog_module_rep("A5:std4")
    gc = catalog.class_system("A5")
    words = _class_words(gc, rep)
    table = dixon_table(gc, "A5")
    i = _fix_minus_one(gc, table)
    for k, c in enumerate(gc.classes):
        assert fixed_dim_ff(rep, words[k]) == dict(eigdims_from_character(table, i, k))[0], \
            c.name


def test_neumann_scan_a5_order5_witnesses_everything():
    t = catalog.character_table("A5")
    res = neumann_scan(t)
    assert res["ok"]
    j = t.class_named("5a")
    for i, d in enumerate(t.degrees):
        if d == 1:
            continue
        dims = eigdims_from_character(t, i, j)
        assert all(3 * m <= d for _, m in dims)


def test_neumann_scan_l28_order7_witness():
    t = catalog.character_table("L2(8)")
    res = neumann_scan(t)
    assert res["ok"]
    j = t.class_named("7a")
    for i, d in enumerate(t.degrees):
        if d == 1:
            continue
        dims = eigdims_from_character(t, i, j)
        assert all(3 * m <= d for _, m in dims)


def test_tensor_power_reference_values():
    t = catalog.character_table("A5")
    i5 = next(i for i, d in enumerate(t.degrees) if d == 5)
    r = tensor_power_min_ratio(t, i5, 1)
    assert r["min_ratio"] == Fraction(1, 5)
    inv = next(c.name for c in t.classes if c.rep_order == 2)
    for m in (1, 2, 3):
        assert diagonal_tuple_fixed_dim(t, i5, inv, m) == (5 ** m + 1) // 2
    with pytest.raises(ValueError):
        tensor_power_min_ratio(t, i5, 7)


@pytest.mark.parametrize("m", [0, -1])
def test_tensor_power_below_one_is_refused(m):
    t = catalog.character_table("A5")
    i5 = t.degrees.index(5)
    with pytest.raises(ValueError, match="at least 1"):
        tensor_power_min_ratio(t, i5, m)
    with pytest.raises(ValueError, match="at least 1"):
        diagonal_tuple_fixed_dim(t, i5, "2+2+1", m)


def test_property_e_witness():
    t11 = catalog.character_table("M11")
    w = property_e_witness(t11)
    assert w in ("11a", "11b")
    t4 = catalog.character_table("L2(4)")
    w = property_e_witness(t4)
    assert w is not None and t4.classes[t4.class_named(w)].rep_order == 5
    s4 = catalog.character_table("S4")
    assert property_e_witness(s4) is None  # not perfect


def test_module_rep_relation_check():
    from cgtkit.fixspace import ModuleRep
    from cgtkit.fflinalg import FFMatrix
    F = FiniteField(2, 1)
    chain = catalog.load_group("SL3(2)")[1]
    bad = [FFMatrix.identity(F, 3),
           FFMatrix(F, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])]
    with pytest.raises(ValueError):
        ModuleRep("bad", chain, bad)


def test_eigdims_m11_degree11_bound():
    t = catalog.character_table("M11")
    i11 = next(i for i, d in enumerate(t.degrees) if d == 11)
    dims = eigdims_from_character(t, i11, t.class_named("11a"))
    assert max(m for _, m in dims) <= 11 // 3


def test_scott_trivial_module():
    from cgtkit.fixspace import ModuleRep
    from cgtkit.fflinalg import FFMatrix
    chain = catalog.load_group("A5")[1]
    F = FiniteField(7, 1)
    triv = ModuleRep("A5:triv", chain,
                     [FFMatrix.identity(F, 1) for _ in chain.generators])
    res = scott_check(triv, [[0], [-1]])
    assert res == {"lhs": 0, "rhs": 0, "ok": True}


def test_fixed_dim_plus_rank_is_degree():
    import random
    rep = catalog_module_rep("A5:std4")
    from cgtkit.fflinalg import FFMatrix
    rng = random.Random(8)
    ident = FFMatrix.identity(rep.field, rep.dim)
    for _ in range(20):
        word = [rng.randrange(2) for _ in range(rng.randrange(1, 8))]
        m = rep.matrix_of_word(word)
        assert fixed_dim_ff(rep, word) + (m - ident).rank() == rep.dim


def test_average_fixed_dim_bound_instances():
    # instances of the averaged one-third bound for the norm-1 torus of
    # SL2(q), q in {4, 8}, over every twisted tensor module
    from fractions import Fraction as Fr
    from cgtkit.fflinalg import FFMatrix
    from cgtkit.sl2 import element_of_order_q_plus_1, gf
    import itertools
    for q in (4, 8):
        F = gf(q)
        x = element_of_order_q_plus_1(q)
        f = F.k
        twists = [x.frobenius_twist(i) for i in range(f)]
        for r in range(1, f + 1):
            for subset in itertools.combinations(range(f), r):
                m = twists[subset[0]]
                for i in subset[1:]:
                    m = m.kron(twists[i])
                ident = FFMatrix.identity(F, m.rows)
                total = 0
                cur = ident
                for _ in range(q + 1):
                    total += (cur - ident).nullity()
                    cur = cur * m
                assert Fr(total, q + 1) <= Fr(m.rows, 3)


@pytest.mark.parametrize("name", ["A5", "A4", "L2(7)"])
def test_diagonal_fixed_dim_is_the_convolution_of_eigenspace_dims(name):
    # h acts on the m-fold tensor power with eigenvalue zeta_o^(l_1+...+l_m)
    # on the product of the l_t-eigenspaces, so the fixed dimension is the
    # m-fold cyclic convolution of the multiplicities, read at exponent 0
    t = catalog.character_table(name)
    for i in range(t.n_classes):
        for j, c in enumerate(t.classes):
            o = c.rep_order
            dims = [0] * o
            for l, mult in eigdims_from_character(t, i, j):
                dims[l] = mult
            power = [1] + [0] * (o - 1)
            for m in range(1, 6):
                power = [sum(power[a] * dims[(s - a) % o] for a in range(o))
                         for s in range(o)]
                assert diagonal_tuple_fixed_dim(t, i, c.name, m) == power[0], \
                    (i, c.name, m)
