"""Exact complex character tables via the class-algebra (Dixon) method.

The table is computed by splitting the commuting family of class-sum
matrices over a prime field GF(p) with p = 1 mod exponent(G) and
p > 2*sqrt(|G|), then lifting each character value back to the cyclotomic
field through the discrete Fourier transform on the cyclic group generated
by a class representative (using complete power maps).  Every table is
verified against the full orthogonality relations, exactly, before it is
returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

import numpy as np

from ._ntheory import is_prime, primitive_root
from .cyclotomic import Cyclotomic, sum_of_products
from .fflinalg import SplitFailure, simultaneous_eigenspaces_modp
# not used here: the layer spans of perfbench/tracing.py patch these names on this module
from .fflinalg import modp_charpoly, modp_kernel, modp_matvec, modp_roots, modp_rref  # noqa: F401
from .permgroup import ClassSystem, GroupClasses, conjugacy_classes

__all__ = ["ClassInfo", "CharacterTable", "dixon_table", "class_mult_coeff",
           "indicator", "tables_equivalent", "table_from_rows", "TableInvariantError"]


class TableInvariantError(ValueError):
    """A character-table invariant failed (corrupt or inconsistent data)."""


@dataclass
class ClassInfo:
    name: str
    size: int
    rep_order: int
    power_map: dict  # t -> class index, for 0 <= t < rep_order


class CharacterTable(ClassSystem):
    """Matrix of exact character values, rows = irreducibles, cols = classes."""

    def __init__(self, group_name: str, order: int, classes: list,
                 values: list, verify: bool = True):
        self.group_name = group_name
        self.order = order
        self.classes = classes
        self.values = values
        if verify:
            self.verify()

    # -- basic accessors -----------------------------------------------------

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def degrees(self) -> list:
        return [v[self._identity_col()].integer() for v in self.values]

    def _identity_col(self) -> int:
        for i, c in enumerate(self.classes):
            if c.rep_order == 1:
                return i
        raise TableInvariantError("no identity class present")

    def value(self, char_index: int, class_index: int) -> Cyclotomic:
        return self.values[char_index][class_index]

    def linear_characters(self) -> list:
        ic = self._identity_col()
        return [i for i, row in enumerate(self.values) if row[ic] == Cyclotomic.one()]

    # -- verification ----------------------------------------------------------

    def verify(self):
        k = self.n_classes
        if len(self.values) != k:
            raise TableInvariantError("table is not square")
        if sum(c.size for c in self.classes) != self.order:
            raise TableInvariantError("class sizes do not sum to the group order")
        ic = self._identity_col()
        degs = []
        for row in self.values:
            if len(row) != k:
                raise TableInvariantError("ragged value matrix")
            d = row[ic]
            if not d.is_integer() or d.integer() <= 0:
                raise TableInvariantError("non-positive or non-integral degree")
            degs.append(d.integer())
            if self.order % d.integer():
                raise TableInvariantError("degree does not divide the group order")
            for v, c in zip(row, self.classes):
                if c.rep_order % v.e:
                    raise TableInvariantError("value outside Q(zeta_o) of its class order o")
        if sum(d * d for d in degs) != self.order:
            raise TableInvariantError("sum of squared degrees != group order")
        for c in self.classes:
            if self.order % c.size:
                raise TableInvariantError("class size does not divide the group order")
            if c.power_map.get(1 if c.rep_order > 1 else 0) not in (self.classes.index(c),):
                raise TableInvariantError("power_map(1) is not the class itself")
        conj_rows = [[v.conj() for v in row] for row in self.values]
        self._row_orthogonality(conj_rows)
        self._column_orthogonality(conj_rows)

    def _row_orthogonality(self, conj_rows: list):
        """Full, exact: sum_t chi_i(t) conj(chi_j(t)) |C_t| = |G| delta_ij."""
        e = self.exponent()
        sizes = [c.size for c in self.classes]
        for i, row in enumerate(self.values):
            for j in range(i, len(self.values)):
                s = sum_of_products(e, zip(row, conj_rows[j], sizes))
                expected = self.order if i == j else 0
                if s != Cyclotomic.from_rational(expected):
                    raise TableInvariantError(
                        f"row orthogonality fails at ({i},{j}): {s}")

    def _column_orthogonality(self, conj_rows: list):
        """Exact: sum_i chi_i(a) conj(chi_i(b)) = |C_G(a)| delta_ab."""
        k = self.n_classes
        for a in range(k):
            for b in range(a, k):
                e_ab = lcm(self.classes[a].rep_order, self.classes[b].rep_order)
                s = sum_of_products(e_ab, ((row[a], conj[b], 1)
                                           for row, conj in zip(self.values, conj_rows)))
                expected = Fraction(self.order, self.classes[a].size) if a == b else 0
                if s != Cyclotomic.from_rational(expected):
                    raise TableInvariantError(
                        f"column orthogonality fails at ({a},{b}): {s}")

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "group": self.group_name,
            "order": self.order,
            "exponent": self.exponent(),
            "classes": [
                {"name": c.name, "size": c.size, "rep_order": c.rep_order,
                 "power_map": {str(t): v for t, v in sorted(c.power_map.items())}}
                for c in self.classes
            ],
            "characters": [[v.to_json() for v in row] for row in self.values],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CharacterTable":
        classes = [ClassInfo(c["name"], int(c["size"]), int(c["rep_order"]),
                             {int(t): int(v) for t, v in c["power_map"].items()})
                   for c in obj["classes"]]
        values = [[Cyclotomic.from_json(v) for v in row] for row in obj["characters"]]
        table = cls(obj["group"], int(obj["order"]), classes, values, verify=True)
        if "exponent" in obj and int(obj["exponent"]) != table.exponent():
            raise TableInvariantError("stored exponent disagrees with class data")
        return table

    def __repr__(self):
        return (f"CharacterTable({self.group_name}, order={self.order}, "
                f"classes={self.n_classes})")


def table_from_rows(name: str, order: int, classes: list, rows: list) -> CharacterTable:
    """The verified table of `rows` on copies of `classes`, rows ordered by
    degree, then by the ``sort_key`` of their values."""
    ident = next(i for i, c in enumerate(classes) if c.rep_order == 1)
    rows = sorted(rows, key=lambda row: (row[ident].integer(),
                                         tuple(v.sort_key() for v in row)))
    infos = [ClassInfo(c.name, c.size, c.rep_order, dict(c.power_map)) for c in classes]
    return CharacterTable(name, order, infos, rows, verify=True)


# For x in C_i, z x^-1 runs over w z with w in the inverse class of C_i
# (apply w, then z), whose base images are z[w[base]]; the counts below
# run over those w, one batched lookup per representative z.

def class_mult_coeff(gc: GroupClasses, i: int, j: int, k: int) -> int:
    """a_{ijk} = #{(x,y) in C_i x C_j : xy = z} for a fixed z in C_k."""
    w = gc.base_images_of_class(gc.inverse_class(i))
    z = np.array(gc.classes[k].representative.images)
    return int(np.count_nonzero(gc.classes_of_base_images(z[w]) == j))


def _class_sum_matrix_modp(gc: GroupClasses, i: int, p: int):
    """(M_i)[j][k] = a_{ijk} mod p, one bincount over C_i per column k."""
    k = len(gc.classes)
    w = gc.base_images_of_class(gc.inverse_class(i))
    cols = [np.bincount(gc.classes_of_base_images(np.array(c.representative.images)[w]),
                        minlength=k)
            for c in gc.classes]
    return (np.stack(cols, axis=1) % p).tolist()


def dixon_prime(order: int, exponent: int, skip: int = 0) -> int:
    """Smallest prime p = 1 mod exponent with p > 2*sqrt(|G|) (skipping
    `skip` earlier candidates for retry)."""
    bound = 2 * isqrt(order) + 1
    k = max(1, (bound - 1) // exponent)
    found = 0
    while True:
        p = exponent * k + 1
        if p > bound and is_prime(p):
            if found == skip:
                return p
            found += 1
        k += 1


def dixon_table(source, group_name: str | None = None,
                max_prime_retries: int = 4) -> CharacterTable:
    """Character table of the group behind `source` (chain or GroupClasses)."""
    gc = source if isinstance(source, GroupClasses) else conjugacy_classes(source)
    name = group_name or f"G{gc.order}"
    e = gc.exponent()
    last_err = None
    for attempt in range(max_prime_retries):
        p = dixon_prime(gc.order, e, skip=attempt)
        try:
            return _dixon_with_prime(gc, name, e, p)
        except SplitFailure as err:
            last_err = err
    raise SplitFailure(f"Dixon splitting failed for {name}: {last_err}")


def _dixon_with_prime(gc: GroupClasses, name: str, e: int, p: int) -> CharacterTable:
    k = len(gc.classes)
    order = gc.order
    # split the commuting family, feeding class-sum matrices of the
    # cheapest (smallest) nontrivial classes first; the splitter builds the
    # next one only while some common eigenspace is still not a line
    by_size = sorted(range(k), key=lambda i: (gc.classes[i].size, i))
    mats = (_class_sum_matrix_modp(gc, i, p) for i in by_size
            if gc.classes[i].rep_order > 1)
    spaces = simultaneous_eigenspaces_modp(k, mats, p)
    if not all(len(b) == 1 for b in spaces):
        raise SplitFailure(f"family did not split into 1-dim spaces over GF({p})")
    vectors = [b[0] for b in spaces]
    if len(vectors) != k:
        raise SplitFailure("wrong number of common eigenvectors")

    sizes = [c.size for c in gc.classes]
    inv_sizes = [pow(s, -1, p) for s in sizes]
    inv_class = [gc.inverse_class(j) for j in range(k)]
    g0 = primitive_root(p)
    z_e = pow(g0, (p - 1) // e, p)

    rows = []
    sqrt_bound = isqrt(order)
    for w in vectors:
        if w[0] % p == 0:
            raise SplitFailure("eigenvector vanishes at the identity class")
        norm = pow(w[0], -1, p)
        w = [x * norm % p for x in w]
        # |G| / d^2 = sum_j w_j w_{j*} / |C_j|
        c = sum(w[j] * w[inv_class[j]] % p * inv_sizes[j] for j in range(k)) % p
        if c == 0:
            raise SplitFailure("degree functional vanished")
        d2 = order * pow(c, -1, p) % p
        d = None
        for cand in range(1, sqrt_bound + 1):
            if cand * cand % p == d2:
                d = cand
                break
        if d is None or order % d:
            raise SplitFailure("no valid degree recovered")
        chi_mod = [d * w[j] % p * inv_sizes[j] % p for j in range(k)]
        row = _lift_row(gc, chi_mod, d, e, z_e, p)
        rows.append(row)

    return table_from_rows(name, order, gc.classes, rows)


def _lift_row(gc: GroupClasses, chi_mod, d: int, e: int, z_e: int, p: int):
    """Lift one character from mod-p values to exact cyclotomics."""
    k = len(gc.classes)
    row = []
    for j in range(k):
        o = gc.classes[j].rep_order
        if o == 1:
            row.append(Cyclotomic.from_rational(d))
            continue
        pm = gc.classes[j].power_map
        z_o = pow(z_e, e // o, p)
        z_o_inv = pow(z_o, -1, p)
        inv_o = pow(o, -1, p)
        chis = [chi_mod[pm[t]] for t in range(o)]
        coeffs = {}
        for l in range(o):
            zpow = 1
            zstep = pow(z_o_inv, l, p)
            m = 0
            for t in range(o):
                m += chis[t] * zpow
                zpow = zpow * zstep % p
            m = m % p * inv_o % p
            if m > d:
                raise SplitFailure(
                    f"eigenvalue multiplicity {m} exceeds degree {d} (bad lift)")
            if m:
                coeffs[l] = m
        row.append(Cyclotomic(o, coeffs))
    return row


def indicator(table: CharacterTable, i: int) -> int:
    """Frobenius-Schur indicator of the i-th character."""
    total = Cyclotomic.zero()
    for j, c in enumerate(table.classes):
        sq = table.power_class(j, 2)
        total = total + c.size * table.values[i][sq]
    val = total / table.order
    if not val.is_integer() or val.integer() not in (-1, 0, 1):
        raise TableInvariantError(f"indicator out of range: {val}")
    return val.integer()


def tables_equivalent(t1: CharacterTable, t2: CharacterTable) -> bool:
    """Equality up to simultaneous row/column permutation.

    Class matching must preserve size, representative order and power-map
    structure; rows are compared as multisets after column alignment.
    """
    if (t1.order != t2.order or t1.n_classes != t2.n_classes):
        return False
    k = t1.n_classes
    buckets: dict = {}
    for j, c in enumerate(t2.classes):
        buckets.setdefault((c.size, c.rep_order), []).append(j)
    cands = []
    for c in t1.classes:
        lst = buckets.get((c.size, c.rep_order))
        if not lst:
            return False
        cands.append(lst)

    assignment = [-1] * k
    used = [False] * k

    def rows_match(sigma):
        r1 = sorted(tuple(v.sort_key() for v in row) for row in t1.values)
        r2 = sorted(tuple(row[sigma[j]].sort_key() for j in range(k))
                    for row in t2.values)
        return r1 == r2

    def power_ok(j1, j2, sigma_partial):
        c1, c2 = t1.classes[j1], t2.classes[j2]
        if c1.rep_order != c2.rep_order:
            return False
        for t, img in c1.power_map.items():
            img2 = c2.power_map.get(t)
            if img2 is None:
                return False
            if sigma_partial[img] >= 0 and sigma_partial[img] != img2:
                return False
        return True

    def backtrack(pos):
        if pos == k:
            return rows_match(assignment)
        for j2 in cands[pos]:
            if used[j2]:
                continue
            if not power_ok(pos, j2, assignment):
                continue
            assignment[pos] = j2
            used[j2] = True
            if backtrack(pos + 1):
                return True
            assignment[pos] = -1
            used[j2] = False
        return False

    return backtrack(0)
