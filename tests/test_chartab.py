import dataclasses
import itertools
import json
import re
from fractions import Fraction
from math import gcd, isqrt

import numpy as np
import pytest

from cgtkit import catalog, chartab
from cgtkit.chartab import (CharacterTable, TableInvariantError,
                            class_mult_coeff, dixon_table, indicator)
from cgtkit.cyclotomic import Cyclotomic, sqrt_int, sum_of_products, zeta
from cgtkit.fflinalg import SplitFailure
from cgtkit.perms import parse_perm
from cgtkit.permgroup import GroupClasses, build_chain, conjugacy_classes


def _gc(name):
    return catalog.class_system(name)


def test_s3_dixon_degrees():
    s3 = build_chain([parse_perm("(1,2)", 3), parse_perm("(1,2,3)", 3)])
    t = dixon_table(conjugacy_classes(s3), "S3")
    assert sorted(t.degrees) == [1, 1, 2]


def test_a5_dixon_degrees_and_golden_values():
    t = dixon_table(_gc("A5"), "A5")
    assert sorted(t.degrees) == [1, 3, 3, 4, 5]
    i5a = t.class_named("5a")
    golden = {((1 + sqrt_int(5)) / 2).sort_key(), ((1 - sqrt_int(5)) / 2).sort_key()}
    got = {t.values[i][i5a].sort_key() for i in range(5) if t.degrees[i] == 3}
    assert got == golden


def test_dixon_retries_with_the_next_prime(monkeypatch):
    want = dixon_table(_gc("A5"), "A5").to_json()
    # a system of its own, so that no class-sum counts are made yet
    gc = conjugacy_classes(catalog.load_group("A5")[1])
    real, real_counts = chartab.dixon_prime, GroupClasses.product_counts
    tried, counted = [], []

    def prime(order, exponent, skip=0):
        tried.append(skip)
        # sqrt(5) is not in GF(7), so the first attempt cannot split
        return 7 if skip == 0 else real(order, exponent, skip)

    def counts(self, k):
        out = real_counts(self, k)
        counted.append((len(tried), k, out))
        return out

    monkeypatch.setattr(chartab, "dixon_prime", prime)
    monkeypatch.setattr(GroupClasses, "product_counts", counts)
    assert dixon_table(gc, "A5").to_json() == want
    assert tried == [0, 1]
    # the second prime's class sums come from the first attempt's count
    # arrays: no class's counts are made twice
    first = {k: a for t, k, a in counted if t == 1}
    second = [(k, a) for t, k, a in counted if t == 2]
    assert first and second
    assert all(a is first[k] for k, a in second)


def test_dixon_gives_up_after_max_prime_retries(monkeypatch):
    tried = []

    def prime(order, exponent, skip=0):
        tried.append(skip)
        return 7

    monkeypatch.setattr(chartab, "dixon_prime", prime)
    monkeypatch.setattr(chartab, "_MAX_PRIME_RETRIES", 3)
    with pytest.raises(SplitFailure, match="Dixon splitting failed for A5"):
        dixon_table(_gc("A5"), "A5")
    assert tried == list(range(chartab._MAX_PRIME_RETRIES))


def _retry_after(monkeypatch, name, corrupt_family=None, corrupt_spaces=None):
    """Run dixon_table on `name` with the first prime's class sums or
    eigenvectors corrupted.  Returns the table, the skips passed to
    dixon_prime and the SplitFailure messages of the failed attempts."""
    gc = _gc(name)
    first = chartab.dixon_prime(gc.order, gc.exponent())
    tried, errors = [], []
    real_prime, real_attempt = chartab.dixon_prime, chartab._dixon_with_prime
    real_matrix = chartab._class_sum_matrix_modp
    real_split = chartab.simultaneous_eigenspaces_modp
    drawn = []

    def prime(order, exponent, skip=0):
        tried.append(skip)
        return real_prime(order, exponent, skip)

    def attempt(*args):
        try:
            return real_attempt(*args)
        except SplitFailure as err:
            errors.append(str(err))
            raise

    def matrix(gc, i, p):
        M = real_matrix(gc, i, p)
        if p == first and corrupt_family:
            drawn.append(i)
            M = corrupt_family(len(drawn) - 1, M)
        return M

    def split(n, mats, p):
        spaces = real_split(n, mats, p)
        return corrupt_spaces(gc, p, spaces) if p == first and corrupt_spaces else spaces

    monkeypatch.setattr(chartab, "dixon_prime", prime)
    monkeypatch.setattr(chartab, "_dixon_with_prime", attempt)
    monkeypatch.setattr(chartab, "_class_sum_matrix_modp", matrix)
    monkeypatch.setattr(chartab, "simultaneous_eigenspaces_modp", split)
    return dixon_table(gc, name), tried, errors


def _replace_first(vector):
    return lambda gc, p, spaces: [[vector(gc, p)]] + spaces[1:]


def _zero_at_identity(gc, p):
    return [0] + [1] * (len(gc.classes) - 1)


def _isotropic(gc, p):
    # 1 + w_j^2 / |C_j| = 0 at a real class j: the degree functional vanishes
    for j, c in enumerate(gc.classes[1:], start=1):
        if gc.inverse_class(j) == j:
            root = next((x for x in range(p) if (x * x + c.size) % p == 0), None)
            if root is not None:
                return [1] + [root if i == j else 0 for i in range(1, len(gc.classes))]
    raise AssertionError("no class gives an isotropic vector")


def _identity_only(gc, p):
    # functional 1, so d^2 = |G| mod p, which no d <= sqrt|G| solves for A5
    assert all((d * d - gc.order) % p for d in range(1, isqrt(gc.order) + 1))
    return [1] + [0] * (len(gc.classes) - 1)


def _trivial_negated_at_3a(gc, p):
    # the trivial character's eigenvector with the sign of a real class of
    # order 3 flipped: degree 1 still, but the lift on 3a gives
    # multiplicity -1/3 mod p for eigenvalue 1
    j = gc.class_named("3a")
    assert gc.inverse_class(j) == j
    return [(-c.size if i == j else c.size) % p for i, c in enumerate(gc.classes)]


@pytest.mark.parametrize("vector,message", [
    (_zero_at_identity, "eigenvector vanishes at the identity class"),
    (_isotropic, "degree functional vanished"),
    (_identity_only, "no valid degree recovered"),
    (_trivial_negated_at_3a, r"eigenvalue multiplicity \d+ exceeds degree 1 \(bad lift\)"),
])
def test_dixon_moves_on_after_a_corrupt_eigenvector(monkeypatch, vector, message):
    want = dixon_table(_gc("A5"), "A5").to_json()
    table, tried, errors = _retry_after(monkeypatch, "A5",
                                        corrupt_spaces=_replace_first(vector))
    assert len(errors) == 1 and re.fullmatch(message, errors[0])
    assert tried == [0, 1]
    assert table.to_json() == want


def test_dixon_moves_on_after_a_space_that_is_not_invariant(monkeypatch):
    # L2(7) needs two class sums; the second is replaced by a cyclic shift
    # of the coordinates, which does not keep the plane the first leaves
    def shift(index, M):
        return np.roll(np.eye(len(M), dtype=np.int64), 1, axis=0) if index == 1 else M

    want = dixon_table(_gc("L2(7)"), "L2(7)").to_json()
    table, tried, errors = _retry_after(monkeypatch, "L2(7)", corrupt_family=shift)
    assert errors == ["vector not in invariant subspace (non-commuting family?)"]
    assert tried == [0, 1]
    assert table.to_json() == want


def test_class_mult_coeff_patterns():
    gc = _gc("A5")
    # a_{i, i^-1, 1} = |C_i|
    for k, c in enumerate(gc.classes):
        kinv = gc.inverse_class(k)
        assert class_mult_coeff(gc, k, kinv, 0) == c.size
        # a_{1jk} = delta_jk
        assert class_mult_coeff(gc, 0, k, k) == 1
        if k:
            assert class_mult_coeff(gc, 0, k, 0) == 0


def test_class_mult_coeff_s3_transpositions():
    s3 = build_chain([parse_perm("(1,2)", 3), parse_perm("(1,2,3)", 3)])
    gc = conjugacy_classes(s3)
    assert class_mult_coeff(gc, 1, 1, 2) == 3


def test_m11_table():
    t = catalog.character_table("M11")
    assert sorted(t.degrees) == [1, 10, 10, 10, 11, 16, 16, 44, 45, 55]
    assert sum(d * d for d in t.degrees) == 7920
    inds = [indicator(t, i) for i in range(10)]
    d16 = [ind for ind, d in zip(inds, t.degrees) if d == 16]
    assert d16 == [0, 0]
    assert indicator(t, 0) == 1  # trivial character


def test_indicator_a5_all_real():
    t = catalog.character_table("A5")
    assert [indicator(t, i) for i in range(5)] == [1] * 5


@pytest.mark.parametrize("name,want", [
    ("A5", [1, 1, 1, 1, 1]),
    ("L2(7)", [1, 0, 0, 1, 1, 1]),
    ("M11", [1, 0, 0, 1, 1, 0, 0, 1, 1, 1]),
    ("SL3(2)", [1, 0, 0, 1, 1, 1]),
])
def test_indicator_of_every_row(name, want):
    # the one-sum indicator against the recorded values and the operator fold
    t = catalog.character_table(name)
    assert [indicator(t, i) for i in range(t.n_classes)] == want
    for i, row in enumerate(t.values):
        total = Cyclotomic.zero()
        for j, c in enumerate(t.classes):
            total = total + c.size * row[t.power_class(j, 2)]
        assert total / t.order == Cyclotomic.from_rational(want[i])


def test_inverse_formula_oracle_equivalence():
    # a_{ijk} reconstructed from the table equals the brute count (|G|<=1e4),
    # for every (i, j, k)
    for name in ("A5", "L2(7)"):
        gc = _gc(name)
        t = catalog.character_table(name)
        order = t.order
        k = len(gc.classes)
        for i, j, kk in itertools.product(range(k), repeat=3):
            total = Cyclotomic.zero()
            for row in t.values:
                vi, vj, vk = row[i], row[j], row[kk].conj()
                if vi.is_zero() or vj.is_zero() or vk.is_zero():
                    continue
                total = total + vi * vj * vk / row[t._identity_col()].integer()
            val = Fraction(gc.classes[i].size * gc.classes[j].size, order) \
                * total.rational()
            assert val == class_mult_coeff(gc, i, j, kk)


def test_roundtrip_and_corruption_detection():
    t = catalog.character_table("A5")
    blob = json.dumps(t.to_json())
    t2 = CharacterTable.from_json(json.loads(blob))
    assert t2.to_json() == t.to_json()
    # perturb one character value: orthogonality must catch it
    obj = json.loads(blob)
    obj["characters"][2][1]["coeffs"] = [[0, 9, 1]]
    with pytest.raises(TableInvariantError):
        CharacterTable.from_json(obj)
    # truncation: schema error
    obj = json.loads(blob)
    del obj["classes"]
    with pytest.raises((KeyError, ValueError, TypeError)):
        CharacterTable.from_json(obj)


def _corrupt_power_map(blob, name, change):
    obj = json.loads(blob)
    change(next(c for c in obj["classes"] if c["name"] == name)["power_map"])
    return obj


def _a5_with_sizes(sizes: dict) -> dict:
    obj = catalog.character_table("A5").to_json()
    for c in obj["classes"]:
        c["size"] = sizes.get(c["name"], c["size"])
    return obj


def test_non_positive_class_size_is_refused():
    # the sizes still sum to 60, so only the size check can see it
    obj = _a5_with_sizes({"2+2+1": 0, "3+1+1": 35})
    with pytest.raises(TableInvariantError, match=r"class 2\+2\+1 has non-positive size 0"):
        CharacterTable.from_json(obj)
    obj = _a5_with_sizes({"2+2+1": -5, "3+1+1": 40})
    with pytest.raises(TableInvariantError, match="non-positive size -5"):
        CharacterTable.from_json(obj)


@pytest.mark.parametrize("order", [0, -3])
def test_non_positive_class_order_is_refused(order):
    # refused before the power map is read: with an empty map, range(0)
    # would pass the keyed-0..o-1 test and then fail at pm[0] with KeyError
    obj = catalog.character_table("A5").to_json()
    c = next(c for c in obj["classes"] if c["name"] == "2+2+1")
    c["rep_order"], c["power_map"] = order, {}
    with pytest.raises(TableInvariantError,
                       match=rf"class 2\+2\+1 has non-positive order {order}"):
        CharacterTable.from_json(obj)


def test_corrupt_stored_power_maps_are_refused():
    # a missing entry would surface later as a KeyError, and a wrong class of
    # the right kind as silently wrong eigenspace multiplicities
    blob = json.dumps(catalog.character_table("A5").to_json())
    corruptions = [("3+1+1", lambda pm: pm.pop("2"), "not keyed"),
                   ("5a", lambda pm: pm.update({"2": 0}), "sends 2 to 0, not a class of order 5"),
                   ("5a", lambda pm: pm.update({"3": 7}), "sends 3 to 7"),
                   ("2+2+1", lambda pm: pm.update({"1": 0}), "start at")]
    for name, change, message in corruptions:
        with pytest.raises(TableInvariantError, match=re.escape(name) + ".*" + message):
            CharacterTable.from_json(_corrupt_power_map(blob, name, change))


def test_irrational_corruption_caught_by_the_column_pass(monkeypatch):
    # zeta5 - zeta5^2 keeps the value in Q(zeta_5), the field of its 5-class,
    # and leaves every degree alone, so only orthogonality can see it
    good = catalog.character_table("A5")
    j = good.class_named("5a")
    values = [list(row) for row in good.values]
    i = next(i for i, row in enumerate(values) if row[j].e == 5)
    values[i][j] = values[i][j] + zeta(5) - zeta(5, 2)
    with monkeypatch.context() as m:
        m.setattr(CharacterTable, "verify", lambda self: None)
        bad = CharacterTable("A5", good.order, good.classes, values)
    with pytest.raises(TableInvariantError, match="column orthogonality"):
        bad._column_orthogonality()
    with pytest.raises(TableInvariantError):
        bad.verify()


def _row_orthogonality(table) -> bool:
    """Row orthogonality, sum_t chi_i(t) conj(chi_j(t)) |C_t| = |G| delta_ij:
    the pass verify() leaves out because its column pass implies it, kept
    here as the reference."""
    e = table.exponent()
    sizes = [c.size for c in table.classes]
    conj_rows = [[v.conj() for v in row] for row in table.values]
    try:
        return all(sum_of_products(e, zip(row, conj_rows[j], sizes))
                   == Cyclotomic.from_rational(table.order if i == j else 0)
                   for i, row in enumerate(table.values)
                   for j in range(i, len(table.values)))
    except ValueError:  # a value outside Q(zeta_exponent)
        return False


def _unit(o: int) -> int:
    """The least a > 1 prime to o: sigma_a moves zeta_o unless o <= 2."""
    return next(a for a in range(2, o + 2) if gcd(a, o) == 1)


def _planted_corruptions(t):
    """(kind, classes, values) variants of t: one value moved inside its
    class's field, a value replaced by its conjugate or a Galois twist, two
    values of a row swapped, a row doubled, two class sizes swapped, and
    whole rows or columns moved by a Galois automorphism."""
    k, ic = t.n_classes, t._identity_col()
    cols = [c for c in range(k) if c != ic]

    def edit(cells):
        values = [list(row) for row in t.values]
        for (i, j), v in cells.items():
            values[i][j] = v
        return values

    out = []
    for i in range(1, k):
        row = t.values[i]
        for j in cols:
            o = t.classes[j].rep_order
            out.append(("perturb", t.classes, edit({(i, j): row[j] + zeta(o) - zeta(o, 2)})))
            out.append(("perturb", t.classes, edit({(i, j): row[j] + 1})))
            if row[j] != row[j].conj():
                out.append(("conjugate", t.classes, edit({(i, j): row[j].conj()})))
            twist = row[j].galois(_unit(o))
            if twist != row[j]:
                out.append(("galois-entry", t.classes, edit({(i, j): twist})))
        for a, b in itertools.combinations(cols, 2):
            if row[a] != row[b]:
                out.append(("swap", t.classes, edit({(i, a): row[b], (i, b): row[a]})))
        for i2 in range(1, k):
            if i2 != i and t.degrees[i2] == t.degrees[i]:
                out.append(("double-row", t.classes, edit({(i, j): t.values[i2][j]
                                                           for j in range(k)})))
        out.append(("conjugate-row", t.classes, edit({(i, j): row[j].conj()
                                                      for j in range(k)})))
    for i in range(1, k):
        a = _unit(t.exponent())
        out.append(("galois-row", t.classes, edit({(i, j): t.values[i][j].galois(a)
                                                   for j in range(k)})))
    for j in cols:
        a = _unit(t.classes[j].rep_order)
        out.append(("galois-column", t.classes, edit({(i, j): t.values[i][j].galois(a)
                                                      for i in range(k)})))
    for a, b in itertools.combinations(cols, 2):
        if t.classes[a].size != t.classes[b].size:
            classes = list(t.classes)
            classes[a] = dataclasses.replace(t.classes[a], size=t.classes[b].size)
            classes[b] = dataclasses.replace(t.classes[b], size=t.classes[a].size)
            out.append(("swap-sizes", classes, [list(row) for row in t.values]))
    return out


def _refused(table) -> bool:
    try:
        table.verify()
    except TableInvariantError:
        return True
    return False


@pytest.mark.parametrize("name", ["A5", "A6", "L2(7)", "L2(8)", "S5", "M11"])
def test_column_pass_refuses_every_table_the_row_pass_refused(name, monkeypatch):
    """The row pass is gone from verify(): over planted corruptions, every
    table it refuses is still refused, and where the earlier checks all
    pass the two passes give the same verdict."""
    good = catalog.character_table(name)
    assert _row_orthogonality(good) and not _refused(good)
    decided = {True: set(), False: set()}
    for kind, classes, values in _planted_corruptions(good):
        with monkeypatch.context() as m:
            m.setattr(CharacterTable, "verify", lambda self: None)
            bad = CharacterTable(name, good.order, classes, values)
        refused = _refused(bad)
        by_reference = not _row_orthogonality(bad)
        assert refused or not by_reference, kind
        with monkeypatch.context() as m:
            m.setattr(CharacterTable, "_column_orthogonality", lambda self: None)
            if _refused(bad):
                continue
        # every earlier check passed: the orthogonality pass decides
        assert refused == by_reference, kind
        decided[refused].add(kind)
    assert {"perturb", "swap", "double-row", "swap-sizes"} <= decided[True]


def test_table_values_are_algebraic_integers():
    for name in ("A5", "L2(7)", "M11"):
        t = catalog.character_table(name)
        assert all(v.den == 1 for row in t.values for v in row)


def test_structure_constant_integrality_small():
    from cgtkit.classalg import triple_count
    for name in ("A5", "A6", "L2(7)", "U3(3)"):
        t = catalog.character_table(name)
        k = t.n_classes
        for i in range(k):
            for j in range(k):
                for kk in range(k):
                    assert triple_count(t, i, j, kk) >= 0
