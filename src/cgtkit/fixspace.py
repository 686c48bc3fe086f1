"""Fixed spaces and eigenspace dimensions, over finite fields and over C.

Finite-field side: ModuleRep carries a permutation group together with a
matrix assignment for its generators; fixed spaces are exact nullities.
Character side: one exact Fourier sum, `_eigenspace_dims`, gives every
dimension read off characters.  For classes h_1..h_m of lcm order d, the
zeta_d^l-eigenspace of h_1 x ... x h_m on the m-fold tensor power of chi has
dimension (1/d) sum_{j<d} prod_t chi(h_t^j) zeta_d^(-lj), the discrete
Fourier transform on the cyclic group of order d (Isaacs, Character Theory
of Finite Groups, 1976).  m = 1 and every l gives the eigenvalue
multiplicities of `eigdims_from_character`, behind the Neumann scan and
property (E); l = 0 gives the fixed dimensions of the tensor-power scans.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .chartab import CharacterTable, TableInvariantError
from .cyclotomic import Cyclotomic, sum_of_products, zeta
from .fflinalg import FFMatrix
from .perms import Permutation
from .permgroup import StabilizerChain, build_chain, known_order

__all__ = ["ModuleRep", "fixed_dim_ff", "scott_check", "random_scott_tuples",
           "eigdims_from_character", "neumann_scan", "tensor_power_min_ratio",
           "property_e_witness"]

_SPOT_CHECK_WORDS = 12
_SPOT_CHECK_SEED = 11


@dataclass
class ModuleRep:
    """A matrix representation of the group of `chain`.

    Words are lists of signed generator indices: i >= 0 is generator i,
    i < 0 is the inverse of generator (-i - 1).
    """
    name: str
    chain: StabilizerChain
    matrices: list  # FFMatrix per generator

    def __post_init__(self):
        if len(self.matrices) != len(self.chain.generators):
            raise ValueError("one matrix per generator required")
        self.dim = self.matrices[0].rows
        self.field = self.matrices[0].field
        for m in self.matrices:
            if m.rows != self.dim or m.cols != self.dim or m.field is not self.field:
                raise ValueError("mixed matrix shapes or fields")
        self._spot_check()
        # letter -i - 1 of a word: inverted once here, not at every use
        self._perm_inverses = [g.inverse() for g in self.chain.generators]
        self._matrix_inverses = [m.inverse() for m in self.matrices]

    def _spot_check(self):
        """Orders of words must agree between matrices and permutations:
        every generator and generator pair, plus _SPOT_CHECK_WORDS random
        words."""
        rng = random.Random(_SPOT_CHECK_SEED)
        k = len(self.chain.generators)
        words = [[i] for i in range(k)]
        words += [[i, j] for i in range(k) for j in range(k)]
        words += [[rng.randrange(k) for _ in range(rng.randrange(2, 8))]
                  for _ in range(_SPOT_CHECK_WORDS)]
        ident = FFMatrix.identity(self.field, self.dim)
        for word in words:
            p = self.perm_of_word(word)
            m = self.matrix_of_word(word)
            if m ** p.order() != ident:
                raise ValueError("matrix assignment violates a relation "
                                 f"(word {word} of order {p.order()})")

    def perm_of_word(self, word) -> Permutation:
        p = Permutation.identity(self.chain.degree)
        for i in word:
            g = self.chain.generators[i] if i >= 0 else self._perm_inverses[-i - 1]
            p = p * g
        return p

    def matrix_of_word(self, word) -> FFMatrix:
        m = FFMatrix.identity(self.field, self.dim)
        for i in word:
            g = self.matrices[i] if i >= 0 else self._matrix_inverses[-i - 1]
            m = m * g
        return m


def fixed_dim_ff(rep: ModuleRep, word) -> int:
    """dim of the fixed space of the word's element = nullity(M - I)."""
    m = rep.matrix_of_word(word)
    return (m - FFMatrix.identity(rep.field, rep.dim)).nullity()


def deleted_permutation_rep(name: str, chain: StabilizerChain, p: int) -> ModuleRep:
    """The (n-1)-dimensional deleted permutation module over GF(p)."""
    from .finitefield import FiniteField
    F = FiniteField(p, 1)
    n = chain.degree
    m = n - 1
    mats = []
    for g in chain.generators:
        rows = []
        for i in range(m):
            row = [0] * m
            gi, gm = g(i), g(m)
            if gi != m:
                row[gi] = (row[gi] + 1) % p
            if gm != m:
                row[gm] = (row[gm] - 1) % p
            rows.append(row)
        mats.append(FFMatrix(F, rows))
    return ModuleRep(name, chain, mats)


def catalog_module_rep(spec: str) -> ModuleRep:
    """Named matrix representations: 'A5:std4', 'SL2(q):nat', 'SL3(2):nat'."""
    from . import catalog
    group, _, rep = spec.partition(":")
    if not rep:
        raise ValueError("module rep spec must look like GROUP:REPNAME")
    if group.startswith("A") and rep.startswith("std"):
        _, chain = catalog.load_group(group)
        return deleted_permutation_rep(spec, chain, 7)
    if group.startswith("SL2(") and rep == "nat":
        import re
        from .sl2 import sl2_generators
        q = int(re.fullmatch(r"SL2\((\d+)\)", group).group(1))
        _, chain = catalog.load_group(group)
        return ModuleRep(spec, chain, sl2_generators(q))
    if group == "SL3(2)" and rep == "nat":
        from .finitefield import FiniteField
        _, chain = catalog.load_group(group)
        F2 = FiniteField(2, 1)
        A = FFMatrix(F2, [[0, 1, 0], [0, 0, 1], [1, 1, 0]])
        B = FFMatrix(F2, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
        return ModuleRep(spec, chain, [A, B])
    raise KeyError(f"unknown module rep {spec!r}")


def scott_check(rep: ModuleRep, words) -> dict:
    """Scott's inequality for a tuple of words with product 1.

    lhs = sum dim[g_i, V]; rhs = dim V - dim V^T + dim [T, V], computed
    from the tuple's own matrices (T = subgroup generated by the tuple).
    """
    if not rep.perm_of_word([i for w in words for i in w]).is_identity():
        raise ValueError("tuple product is not the identity")
    mats = [rep.matrix_of_word(w) for w in words]
    ident = FFMatrix.identity(rep.field, rep.dim)
    diffs = [m - ident for m in mats]
    lhs = sum(d.rank() for d in diffs)
    stacked_v = FFMatrix(rep.field, [row for d in diffs for row in d.data])
    fixed = stacked_v.nullity()
    stacked_h = FFMatrix(rep.field,
                         [sum((list(d.data[i]) for d in diffs), [])
                          for i in range(rep.dim)])
    commutator_dim = stacked_h.rank()
    rhs = rep.dim - fixed + commutator_dim
    return {"lhs": lhs, "rhs": rhs, "ok": lhs >= rhs}


MAX_WORD = 8  # random words have 1 to MAX_WORD - 1 letters


def random_scott_tuples(rep: ModuleRep, count: int, r: int = 3, seed: int = 0):
    """Random generating r-tuples of words with product 1 (as word lists)."""
    rng = random.Random(seed)
    gens = rep.chain.generators
    order = rep.chain.order()
    out = []
    guard = 0
    while len(out) < count and guard < count * 200:
        guard += 1
        words = [[rng.randrange(len(gens)) for _ in range(rng.randrange(1, MAX_WORD))]
                 for _ in range(r - 1)]
        # last word = inverse of the product, spelled backwards
        last = [-(i + 1) for w in reversed(words) for i in reversed(w)]
        tup = words + [last]
        images = [rep.perm_of_word(w).images for w in words]
        sub = build_chain(images, rep.chain.degree,
                          within=known_order(images, rep.chain))
        if sub.order() != order:
            continue
        out.append(tup)
    if len(out) < count:
        raise RuntimeError("failed to sample enough generating tuples")
    return out


# -- character-side eigenspace bookkeeping ------------------------------------

def _eigenspace_dims(table: CharacterTable, row, tup, ls) -> list:
    """Dimension of the zeta_d^l-eigenspace of h_1 x ... x h_m on the m-fold
    tensor power of the character `row`, for each l of `ls`, with h_t in
    class tup[t] and d the lcm of their orders:
    (1/d) sum_{j<d} prod_t chi(h_t^j) zeta_d^(-lj), one sum_of_products per l."""
    d = lcm(*(table.classes[t].rep_order for t in tup))
    first, *rest = tup
    products = []
    for j in range(d):
        p = row[table.power_class(first, j)]
        for t in rest:
            p = p * row[table.power_class(t, j)]
        products.append(p)
    # exponent 0 reads only zeta_d^0
    roots = [zeta(d, -s) for s in range(d if any(ls) else 1)]
    scale = Fraction(1, d)
    out = []
    for l in ls:
        m = sum_of_products(d, ((products[j], roots[l * j % d], scale)
                                for j in range(d)))
        if not m.is_integer() or m.integer() < 0:
            raise TableInvariantError(
                f"non-integral eigenspace dimension {m} (corrupt table)")
        out.append(m.integer())
    return out


def eigdims_from_character(table: CharacterTable, char_index: int,
                           class_index: int):
    """Multiplicities (exponent l, m_l) of the eigenvalues zeta_o^l."""
    o = table.classes[class_index].rep_order
    dims = _eigenspace_dims(table, table.values[char_index], (class_index,), range(o))
    if sum(dims) != table.degrees[char_index]:
        raise TableInvariantError("eigenvalue multiplicities do not sum to degree")
    return list(enumerate(dims))


def _eigenspaces_within_a_third(table: CharacterTable, char_index: int,
                                class_index: int, deg: int) -> bool:
    """Whether every eigenspace of the class on the character has
    dimension at most deg/3."""
    return all(3 * m <= deg for _, m in
               eigdims_from_character(table, char_index, class_index))


def neumann_scan(table: CharacterTable) -> dict:
    """Witness per nontrivial irreducible: a class with all eigenspace
    multiplicities <= degree/3."""
    ident = table._identity_col()
    witness = {}
    ok = True
    for i, row in enumerate(table.values):
        deg = row[ident].integer()
        if deg == 1 and all(v == Cyclotomic.one() for v in row):
            continue  # trivial character
        found = None
        for j, c in enumerate(table.classes):
            if c.rep_order != 1 and _eigenspaces_within_a_third(table, i, j, deg):
                found = c.name
                break
        if found is None:
            ok = False
        witness[i] = found
    return {"ok": ok, "witness": witness}


def _multisets(k: int, m: int):
    def rec(start, left):
        if left == 0:
            yield ()
            return
        for i in range(start, k):
            for rest in rec(i, left - 1):
                yield (i,) + rest
    return rec(0, m)


MAX_M = 6  # largest tensor power the tuple scan takes


def tensor_power_min_ratio(table: CharacterTable, char_index: int, m: int) -> dict:
    """Minimum of fixed-dim/dim over nontrivial class tuples for the m-fold
    tensor power of the given character row (one class per direct factor).

    Each tuple's fixed dimension is its eigenspace at exponent 0; symmetry
    over the factors reduces tuples to multisets.
    """
    if m < 1:
        raise ValueError(f"tensor power m = {m} must be at least 1")
    if m > MAX_M:
        raise ValueError(f"m = {m} beyond the tuple-scan budget {MAX_M}")
    deg = table.degrees[char_index]
    row = table.values[char_index]
    k = table.n_classes
    dim_total = Fraction(deg) ** m
    best = None
    argmin = []
    ident = table._identity_col()
    for tup in _multisets(k, m):
        if all(t == ident for t in tup):
            continue
        fix = _eigenspace_dims(table, row, tup, (0,))[0]
        ratio = Fraction(fix) / dim_total
        names = tuple(table.classes[t].name for t in tup)
        if best is None or ratio < best:
            best = ratio
            argmin = [names]
        elif ratio == best:
            argmin.append(names)
    return {"min_ratio": best, "argmin": argmin}


def diagonal_tuple_fixed_dim(table: CharacterTable, char_index: int,
                             class_name: str, m: int) -> int:
    """Fixed dimension of the diagonal tuple (h, ..., h) on the m-fold
    tensor power."""
    if m < 1:
        raise ValueError(f"tensor power m = {m} must be at least 1")
    j = table.class_named(class_name)
    return _eigenspace_dims(table, table.values[char_index], (j,) * m, (0,))[0]


def property_e_witness(table: CharacterTable):
    """A class C with n_{-2}-style evidence and all eigenspace bounds.

    Requires a perfect group (a single linear character); scans classes by
    descending representative order; returns the class name or None.
    """
    from .classalg import n_a
    if len(table.linear_characters()) > 1:
        return None
    ident = table._identity_col()
    degs = [row[ident].integer() for row in table.values]
    order = sorted(range(table.n_classes),
                   key=lambda j: (-table.classes[j].rep_order,
                                  table.classes[j].name))
    for j in order:
        c = table.classes[j]
        if c.rep_order == 1:
            continue
        if n_a(table, j, -2) <= 0:
            continue
        if all(_eigenspaces_within_a_third(table, i, j, deg)
               for i, deg in enumerate(degs) if deg != 1):
            return c.name
    return None
