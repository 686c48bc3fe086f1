"""Generating triples, spread checks, subgroup covers, Beauville search.

enumerate_triples fixes the canonical x in C and accepts the y in C whose
product x*y is conjugate to x^a (the "xy in C^a" convention of the
reference computations: a = 1 asks for x*y in C itself, a = -2 for x*y
conjugate to x^-2).  Totals are cross-asserted against the
character-formula triple_count with the matching z-slot whenever a table
is supplied, which is the central cross-oracle of the whole artifact.

The exhaustive searches (enumerate_triples' classification,
spread_class_check, beauville_search) share one scan, _pair_orbits: for a
fixed x it keeps the first y in scan order of each orbit of C_G(x) acting by
conjugation, and builds one chain of <x, y> per orbit, proved against the
order of the group of `chain` when the pair lies in it and has its orbits
(permgroup.known_order).  For c in C_G(x), <x, y^c> = <x, y>^c, and y^c and
x*y^c = (xy)^c keep the orders of y and xy, so each search returns what a
scan over every y returns: the first hit in scan order opens its own orbit.
search_triple and translation_search prove generation the same way.

Class systems are duck-typed: both permgroup.GroupClasses (element-indexed
small groups) and symmchar.AnClassSystem (combinatorial A_n classes) work;
their shared lookups come from permgroup.ClassSystem, and C_G(x) from their
centralizer_generators.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import factorial, gcd

from .perms import Permutation, _inv, _mul
from .permgroup import StabilizerChain, build_chain, known_order, orbit, orbits

__all__ = ["TripleReport", "enumerate_triples", "search_triple",
           "build_lemma42", "build_lemma43", "translation_search",
           "spread_class_check", "two_subgroup_cover", "union_cover_check",
           "beauville_search"]

ENUMERATION_BOUND = 10 ** 7
SPREAD_BOUND = 10 ** 6
BEAUVILLE_BOUND = 10 ** 5
DEFAULT_BUDGET = 10 ** 4


def _subgroup_key(chain: StabilizerChain):
    sizes = tuple(sorted((len(o) for o in orbits(chain)), reverse=True))
    return (chain.order(), sizes)


@dataclass
class TripleReport:
    group: str
    class_name: str
    a: int
    total_pairs: int
    generating_pairs: int
    subgroup_histogram: dict = field(default_factory=dict)
    witness: tuple | None = None  # (x, y, z) Permutations

    def histogram_json(self):
        return {f"{order}:{'+'.join(str(s) for s in sizes)}": count
                for (order, sizes), count in sorted(self.subgroup_histogram.items())}

    def to_json(self):
        return {
            "group": self.group, "class": self.class_name, "a": self.a,
            "total_pairs": self.total_pairs,
            "generating_pairs": self.generating_pairs,
            "subgroup_histogram": self.histogram_json(),
            "witness": [str(p) for p in self.witness] if self.witness else None,
        }


def enumerate_triples(chain: StabilizerChain, cs, class_spec, a: int,
                      classify: bool = True, table=None,
                      group_name: str = "") -> TripleReport:
    """Exhaustive scan of {y in C : (xy)^-1 in C^a} for the canonical x.

    cs is a class system for the group of `chain`.  When `classify` is
    set, every accepted pair is sorted into the (order, orbit-structure)
    histogram of the subgroup it generates, from one chain per
    C_G(x)-orbit of the accepted y (the module's orbit scan) weighted by
    the orbit's size; AssertionError is raised when the orbit sizes do
    not add up to the accepted set, which must be closed under C_G(x).
    The witness is the first generating y in scan order.
    """
    ci = cs.class_index(class_spec)
    cls = cs.classes[ci]
    if cls.size > ENUMERATION_BOUND:
        raise ValueError(f"class size {cls.size} exceeds exhaustive bound "
                         f"{ENUMERATION_BOUND}; use search_triple")
    # accept y iff x*y lies in C^a ("xy conjugate to x^a"); equivalently
    # z := (xy)^-1 lies in (C^a)^-1
    target = cs.power_class(ci, a)
    x = cls.representative
    x_img = x.images
    ys = cs.iter_class_images_with_product(ci, x_img, target)
    generating = 0
    hist: dict = {}
    witness = None
    if not classify:
        total = sum(1 for _ in ys)
    else:
        ys = list(ys)
        total = len(ys)
        covered = 0
        for y_img, size, sub in _pair_orbits(chain, cs, x_img, ys):
            covered += size
            key = _subgroup_key(sub)
            hist[key] = hist.get(key, 0) + size
            if sub.order() == cs.order:
                generating += size
                if witness is None:
                    z_img = _inv(_mul(x_img, y_img))
                    witness = (x, Permutation(y_img), Permutation(z_img))
        if covered != total:
            raise AssertionError("the accepted y are not closed under conjugation by C_G(x)")
    if table is not None:
        from .classalg import triple_count
        i = table.class_named(cls.name)
        k = table.inverse_class(table.power_class(i, a))
        want = triple_count(table, i, i, k)
        if want != total:
            raise AssertionError(
                f"enumerate_triples total {total} != character formula {want}")
    return TripleReport(group_name, cls.name, a, total, generating, hist, witness)


def _pair_orbits(chain: StabilizerChain, cs, x_img: tuple, ys):
    """The module's orbit scan: yields (y, orbit size, chain of <x, y>) for
    the first member y, in the order of `ys`, of each C_G(x)-orbit that
    meets `ys`; C_G(x) comes from `cs.centralizer_generators`."""
    conjugators = [(c, _inv(c)) for c in cs.centralizer_generators(x_img)]
    seen: set = set()
    for y_img in ys:
        if y_img in seen:
            continue
        orb = orbit(y_img, conjugators, _conjugate)
        seen.update(orb)
        gens = [x_img, y_img]
        yield y_img, len(orb), build_chain(gens, len(x_img),
                                           within=known_order(gens, chain))


def _conjugate(c_pair, y_img: tuple) -> tuple:
    """y^c = c^-1 y c for c_pair = (c, c^-1)."""
    c, c_inv = c_pair
    return _mul(_mul(c_inv, y_img), c)


def search_triple(chain: StabilizerChain, cs, class_spec, a: int,
                  seed: int = 0, budget: int = DEFAULT_BUDGET):
    """Randomized witness search: y runs over random conjugates of x.

    Deterministic for a fixed seed.  Returns (x, y, z) or None; None is
    inconclusive, never a refutation.
    """
    rng = random.Random(seed)
    ci = cs.class_index(class_spec)
    cls = cs.classes[ci]
    target = cs.power_class(ci, a)
    order = cs.order
    x = cls.representative
    for _ in range(budget):
        c = chain.random_element(rng)
        y = x.conj(c)
        xy = x * y
        if cs.class_of_images(xy.images) != target:
            continue
        gens = [x.images, y.images]
        sub = build_chain(gens, chain.degree, within=known_order(gens, chain))
        if sub.order() == order:
            return (x, y, xy.inverse())
    return None


# -- the explicit A_n constructions ------------------------------------------

@dataclass
class LemmaConstruction:
    n: int
    x: Permutation
    y: Permutation
    involution: Permutation  # vu, moving 8 (odd case) or 12 (even case) points
    triple: tuple  # (t1, t2, t3) with t1*t2*t3 = identity
    chain: StabilizerChain


def _build_lemma(n: int, x: Permutation, u: Permutation, x_first: bool,
                 shift: int, moved: int) -> LemmaConstruction:
    """The construction behind Lemmas 4.2 and 4.3.  w = x*u (x applied
    first) or u*x must be the standard n-cycle; s = w^shift commutes with w,
    so for v = u^s and y = x^s the n-cycle is also y*v (or v*y), and since
    u and v are disjoint products of transpositions, x (vu) y^-1 = 1 (or
    y^-1 (vu) x = 1).  vu must be an involution moving `moved` points, and
    x, y, both even, must generate A_n: their chain is proved against n!/2."""
    w = x * u if x_first else u * x
    if w.images != tuple((i + 1) % n for i in range(n)):
        raise AssertionError("construction broke: w is not the n-cycle")
    s = w ** shift
    v, y = u.conj(s), x.conj(s)
    vu = u * v
    triple = (x, vu, y.inverse()) if x_first else (y.inverse(), vu, x)
    if not (triple[0] * triple[1] * triple[2]).is_identity():
        raise AssertionError("construction broke: the triple's product is not 1")
    if vu.support_size() != moved or not (vu * vu).is_identity():
        raise AssertionError(f"vu is not an involution moving {moved} points")
    if x.sign() != 1:  # y = x^s has the sign of x
        raise AssertionError("x and y are odd permutations")
    chain = build_chain([x, y], within=factorial(n) // 2)
    if chain.order() != factorial(n) // 2:
        raise AssertionError("x, y do not generate the alternating group")
    return LemmaConstruction(n, x, y, vu, triple, chain)


def build_lemma42(n: int) -> LemmaConstruction:
    """Two (n-2)-cycles generating A_n whose quotient is an involution
    moving 8 points (n odd, n >= 11)."""
    if n % 2 == 0 or n < 11:
        raise ValueError("build_lemma42 needs odd n >= 11")
    x = Permutation.from_cycles(n, [[1] + list(range(3, n))])   # (2 4 5 ... n)
    u = Permutation.from_cycles(n, [[0, 1], [2, 3]])            # (1 2)(3 4)
    return _build_lemma(n, x, u, True, 4, 8)


def build_lemma43(n: int) -> LemmaConstruction:
    """Two (n-3)-cycles generating A_n, involution moving 12 points
    (n even, n >= 12)."""
    if n % 2 or n < 12:
        raise ValueError("build_lemma43 needs even n >= 12")
    x = Permutation.from_cycles(n, [[0, 2, 4] + list(range(6, n))])  # (1 3 5 7 ... n)
    u = Permutation.from_cycles(n, [[0, 1], [2, 3], [4, 5]])         # (1 2)(3 4)(5 6)
    return _build_lemma(n, x, u, False, 6, 12)


# -- translation lemma search --------------------------------------------------

def translation_search(chain: StabilizerChain, x: Permutation, y: Permutation,
                       z: Permutation, d: int):
    """Conjugates z_i = z^(y^(d-i)), i = 1..d, of z with x^d y^d z_1...z_d = 1,
    when with x^d and y^d they generate a subgroup of index dividing d.

    Returns {"conjugators": [...], "index": k, "elements": [...]} or None
    (inconclusive).
    """
    if not (x * y * z).is_identity():
        raise ValueError("xyz != 1")
    if d < 1:
        raise ValueError("d must be positive")
    gens = [x, y, z]
    if build_chain(gens, chain.degree, within=known_order(gens, chain)).order() != chain.order():
        raise ValueError("x, y, z do not generate the group of the chain")
    if d == 1:
        return {"conjugators": [Permutation.identity(chain.degree)], "index": 1,
                "elements": [z]}
    xd, yd = x ** d, y ** d
    cs = [y ** (d - i) for i in range(1, d + 1)]
    zs = [z.conj(c) for c in cs]
    prod = xd * yd
    for zi in zs:
        prod = prod * zi
    if not prod.is_identity():
        return None
    gens = [xd, yd] + zs
    sub = build_chain(gens, chain.degree, within=known_order(gens, chain))
    index = chain.order() // sub.order()
    if chain.order() % sub.order() == 0 and index <= d and d % index == 0:
        return {"conjugators": cs, "index": index, "elements": zs}
    return None


# -- spread and covers ---------------------------------------------------------

def spread_class_check(chain: StabilizerChain, cs, class_spec):
    """For each nontrivial class rep s, does some y in C give <s,y> = G?"""
    if chain.order() > SPREAD_BOUND:
        raise ValueError(f"group order exceeds spread bound {SPREAD_BOUND}")
    ci = cs.class_index(class_spec)
    order = cs.order
    failing = []
    for cls in cs.classes:
        if cls.rep_order == 1:
            continue
        scan = _pair_orbits(chain, cs, cls.representative.images,
                            cs.iter_class_images(ci))
        if not any(sub.order() == order for _, _, sub in scan):
            failing.append(cls.name)
    return (not failing), failing


def _subgroup_elements(chain: StabilizerChain, gens):
    sub = build_chain([g.images for g in gens], chain.degree)
    if sub.order() >= chain.order():
        raise ValueError("listed 'maximal' subgroup is the whole group")
    return frozenset(p.images for p in sub.elements()), sub.order()


def _all_conjugate_sets(chain: StabilizerChain, elems: frozenset):
    """Element sets of all conjugates of a subgroup (tiny groups only), in
    the order the orbit walk under the generators of `chain` reaches them."""
    return orbit(elems, chain.generators,
                 lambda g, es: frozenset(Permutation(e).conj(g).images for e in es))


def union_cover_check(cs, class_spec, subgroup_sets):
    """Is the class contained in the union of the given element sets?"""
    ci = cs.class_index(class_spec)
    for y in cs.iter_class_images(ci):
        if not any(y in s for s in subgroup_sets):
            return False
    return True


def two_subgroup_cover(chain: StabilizerChain, cs, class_spec,
                       maximal_gens: list) -> bool:
    """Lemma-style check: C is never inside M1 u M2 for conjugates of the
    listed maximal subgroups.  True means no pair covers C."""
    if not maximal_gens:
        raise ValueError("missing maximal subgroup generator data")
    conjugate_sets = []
    for gens in maximal_gens:
        base, _ = _subgroup_elements(chain, gens)
        conjugate_sets.extend(_all_conjugate_sets(chain, base))
    # different listed subgroups may share conjugates
    uniq = list(dict.fromkeys(conjugate_sets))
    ci = cs.class_index(class_spec)
    class_elems = list(cs.iter_class_images(ci))
    for i in range(len(uniq)):
        for j in range(i, len(uniq)):
            if all((y in uniq[i]) or (y in uniq[j]) for y in class_elems):
                return False
    return True


# -- Beauville structures --------------------------------------------------------

def beauville_search(chain: StabilizerChain, cs):
    """Unmixed Beauville structure by exhaustive order-triple scan.

    Scans generating pairs (x, y) with x a class representative (every
    generating pair is conjugate to one such) and y nontrivial, one y per
    C_G(x)-orbit (the module's orbit scan), collecting the realized order
    triples {o(x), o(y), o(xy)}.  Returns a pair of generating
    systems with coprime order triples, or None after exhausting all
    combinations (a proof of non-existence at this group size).
    """
    order = chain.order()
    if order > BEAUVILLE_BOUND:
        raise ValueError(f"group order exceeds Beauville bound {BEAUVILLE_BOUND}")
    nontrivial = [k for k, cls in enumerate(cs.classes) if cls.rep_order > 1]
    triples: dict = {}
    for k in nontrivial:
        x = cs.classes[k].representative
        ys = (y_img for k2 in nontrivial for y_img in cs.iter_class_images(k2))
        for y_img, _, sub in _pair_orbits(chain, cs, x.images, ys):
            if sub.order() != order:
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
