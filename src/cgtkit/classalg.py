"""Class-algebra computations from a character table.

All structure constants follow the fixed-first-element normalization
n(C_i, C_j, C_k) = #{(y, z) in C_j x C_k : x y z = 1} for a fixed x in
C_i, which is what makes the sporadic-group reference values (M11: 35|80
etc.) come out on the nose.  Everything is exact; integrality of every
count is asserted, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .chartab import CharacterTable, TableInvariantError
from .cyclotomic import Cyclotomic, sum_of_products
from .permgroup import GroupClasses

__all__ = ["triple_count", "triple_counts_all_k", "n_a", "eps_a", "covers",
           "thompson_check", "two_mth_powers", "CoverReport", "PowerReport"]


def triple_count(table: CharacterTable, i, j, k) -> int:
    """#{(y,z) in C_j x C_k : xyz = 1} for fixed x in C_i (exact integer)."""
    i, j, k = table.class_index(i), table.class_index(j), table.class_index(k)
    [total] = _character_sums(table, i, j, [k], table.values)
    return _scale_count(table, j, k, total)


def triple_counts_all_k(table: CharacterTable, i, j) -> list:
    """[triple_count(i, j, k) for all k], sharing the chi(i)chi(j)/deg part."""
    i, j = table.class_index(i), table.class_index(j)
    totals = _character_sums(table, i, j, range(table.n_classes), table.values)
    return [_scale_count(table, j, k, total) for k, total in enumerate(totals)]


def _character_sums(table: CharacterTable, i: int, j: int, ks, rows) -> list:
    """[sum over rows of chi(i) chi(j) chi(k) / chi(1) for k in ks], exact,
    each chi(i) chi(j) formed once per row."""
    ic = table._identity_col()
    partial = [(row[i] * row[j], Fraction(1, row[ic].integer()), row)
               for row in rows if not (row[i].is_zero() or row[j].is_zero())]
    o_ij = lcm(table.classes[i].rep_order, table.classes[j].rep_order)
    return [sum_of_products(lcm(o_ij, table.classes[k].rep_order),
                            ((pij, row[k], scale) for pij, scale, row in partial))
            for k in ks]


def _scale_count(table: CharacterTable, j: int, k: int, total: Cyclotomic) -> int:
    if not total.is_rational():
        raise TableInvariantError(
            f"character-formula sum is irrational: {total}")
    count = Fraction(table.classes[j].size * table.classes[k].size,
                     table.order) * total.rational()
    if count.denominator != 1 or count < 0:
        raise TableInvariantError(
            f"structure constant is not a nonnegative integer: {count}")
    return int(count)


def na_slot(a: int) -> int:
    """z-slot exponent realizing the reference tables' n_a normalization.

    The sporadic reference pairs (M11 35|80 etc.) are the fixed-z class
    multiplication coefficients a(C, C, C^{|a|}), i.e. fixed-x counts with
    z in C^{-|a|}; the M11 value 35 is the calibration point.
    """
    return -abs(a)


def n_a(table: CharacterTable, c, a: int) -> int:
    """n_a(C): pairs x,y in C with xy in C^{|a|}, x fixed (see na_slot)."""
    i = table.class_index(c)
    k = table.power_class(i, na_slot(a))
    return triple_count(table, i, i, k)


def eps_a(table: CharacterTable, c, a: int) -> Fraction:
    """Normalized non-linear-character contribution to n_a(C).

    Requires C inside the derived subgroup (all linear characters equal 1
    on C); the result must be a real rational, and the defining relation
    n_a = d * |G| / |C_G(x)|^2 * (1 + eps_a) is re-verified before
    returning.
    """
    i = table.class_index(c)
    k = table.power_class(i, na_slot(a))
    linear = table.linear_characters()
    one = Cyclotomic.one()
    for li in linear:
        if table.values[li][i] != one:
            raise ValueError(
                "class is not inside the derived subgroup "
                "(a linear character is nontrivial on it)")
    nonlinear = [row for idx, row in enumerate(table.values) if idx not in linear]
    [total] = _character_sums(table, i, i, [k], nonlinear)
    if not total.is_rational():
        raise TableInvariantError(
            f"eps_a is irrational for this table: {total}")
    d = len(linear)
    eps = total.rational() / d
    size = table.classes[i].size
    centralizer = table.order // size
    expected = Fraction(d * table.order, centralizer ** 2) * (1 + eps)
    if expected != n_a(table, i, a):
        raise TableInvariantError("n_a relation failed to re-verify")
    return eps


@dataclass
class CoverReport:
    covered: bool
    missed: list

    def to_json(self):
        return {"covered": self.covered, "missed": self.missed}


def covers(table: CharacterTable, i, j) -> CoverReport:
    """Is every nontrivial class inside C_i * C_j?"""
    i, j = table.class_index(i), table.class_index(j)
    counts = triple_counts_all_k(table, i, j)
    missed = []
    for k, c in enumerate(table.classes):
        if c.rep_order == 1:
            continue
        kinv = table.inverse_class(k)
        if counts[kinv] == 0:
            missed.append(c.name)
    return CoverReport(not missed, missed)


def thompson_check(table: CharacterTable, i) -> bool:
    """G = C*C: coverage of G^# plus 1 in C*C (i.e. C real)."""
    i = table.class_index(i)
    if table.classes[i].rep_order == 1:
        return False
    if table.inverse_class(i) != i:
        return False
    return covers(table, i, i).covered


@dataclass
class PowerReport:
    ok: bool
    witnesses_missing: list

    def to_json(self):
        return {"ok": self.ok, "witnesses_missing": self.witnesses_missing}


TWO_MTH_POWER_BOUND = 10 ** 5


def two_mth_powers(gc: GroupClasses, m: int) -> PowerReport:
    """Brute-force check that P * P = G for P = {g^m : g in G}.

    Class t is covered when its entry z_t is x y with x and y in P, that is
    when w z_t lies in a power class for some w in the inverse of a power
    class; `product_counts` counts these products for every t at once.
    """
    if gc.order > TWO_MTH_POWER_BOUND:
        raise ValueError(
            f"group order {gc.order} exceeds the {TWO_MTH_POWER_BOUND} brute-force bound")
    k = len(gc.classes)
    power_classes = sorted({gc.power_class(i, m) for i in range(k)})
    covered = np.zeros(k, dtype=bool)
    for i in power_classes:
        covered |= gc.product_counts(gc.inverse_class(i))[power_classes].any(axis=0)
        if covered.all():
            break
    missing = [gc.classes[t].name for t in range(k) if not covered[t]]
    return PowerReport(not missing, missing)
