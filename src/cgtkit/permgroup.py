"""Permutation-group engine: stabilizer chains, orbits, blocks, classes.

The stabilizer chain is built with the deterministic Schreier-Sims
algorithm (every Schreier generator is processed), followed by an explicit
verification pass; group order and membership are exact.  Conjugacy
classes of groups up to a configured bound (default 2^21 elements) are
enumerated by breadth-first conjugation orbits with a full
element-to-class index, which also yields complete power maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm
import random
import re

import numpy as np

from .perms import Permutation

__all__ = [
    "StabilizerChain", "build_chain", "ClassSystem", "ConjClassData", "GroupClasses",
    "conjugacy_classes", "GroupTooLargeError", "orbits", "is_transitive",
    "is_primitive", "minimal_block_system",
]

DEFAULT_CLASS_BOUND = 1 << 21

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def class_letter(i: int) -> str:
    if i < 26:
        return _LETTERS[i]
    return _LETTERS[i // 26 - 1] + _LETTERS[i % 26]


class GroupTooLargeError(RuntimeError):
    pass


class _Level:
    __slots__ = ("base", "gens", "transversal")

    def __init__(self, base: int):
        self.base = base
        self.gens: list[tuple] = []
        self.transversal: dict[int, tuple] = {}


def _mul(p: tuple, q: tuple) -> tuple:
    return tuple(q[x] for x in p)


def _inv(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


class StabilizerChain:
    """Base and strong generating set for a permutation group."""

    def __init__(self, generators, degree: int | None = None):
        gens = [g.images if isinstance(g, Permutation) else tuple(g)
                for g in generators]
        if not gens:
            if degree is None:
                raise ValueError("empty generator list needs an explicit degree")
            gens = []
        self.degree = degree if degree is not None else len(gens[0])
        for g in gens:
            if len(g) != self.degree:
                raise ValueError("generators of mixed degree")
        self.generators = [Permutation(g) for g in gens]
        self._identity = tuple(range(self.degree))
        self.levels: list[_Level] = []
        for g in gens:
            if g != self._identity:
                self._add_to_level(0, g)
        if self.levels:
            self._build(0)
        self._order = 1
        for lv in self.levels:
            self._order *= len(lv.transversal)
        self.verify()

    # -- construction ------------------------------------------------------

    def _add_to_level(self, i: int, g: tuple):
        if i == len(self.levels):
            base = min(p for p in range(self.degree) if g[p] != p)
            self.levels.append(_Level(base))
        self.levels[i].gens.append(g)

    def _recompute_transversal(self, i: int):
        lv = self.levels[i]
        t = {lv.base: self._identity}
        frontier = [lv.base]
        while frontier:
            nxt = []
            for beta in frontier:
                u = t[beta]
                for s in lv.gens:
                    gamma = s[beta]
                    if gamma not in t:
                        t[gamma] = _mul(u, s)
                        nxt.append(gamma)
            frontier = nxt
        lv.transversal = t

    def _strip(self, g: tuple, from_level: int):
        for l in range(from_level, len(self.levels)):
            lv = self.levels[l]
            beta = g[lv.base]
            if beta == lv.base:
                continue
            u = lv.transversal.get(beta)
            if u is None:
                return g, l
            g = _mul(g, _inv(u))
        return g, len(self.levels)

    def _build(self, i: int):
        self._recompute_transversal(i)
        lv = self.levels[i]
        orbit = list(lv.transversal)
        for beta in orbit:
            u_beta = lv.transversal[beta]
            for s in lv.gens:
                gamma = s[beta]
                sg = _mul(_mul(u_beta, s), _inv(lv.transversal[gamma]))
                if sg == self._identity:
                    continue
                y, j = self._strip(sg, i + 1)
                if y != self._identity:
                    if j == len(self.levels):
                        base = min(p for p in range(self.degree) if y[p] != p)
                        self.levels.append(_Level(base))
                    for l in range(i + 1, j + 1):
                        self.levels[l].gens.append(y)
                    for l in range(j, i, -1):
                        self._build(l)

    def verify(self):
        """Verification pass: strong generation at every level."""
        ident = self._identity
        for idx, lv in enumerate(self.levels):
            for s in lv.gens:
                for l in range(idx):
                    if s[self.levels[l].base] != self.levels[l].base:
                        raise AssertionError("strong generator moves earlier base point")
            for beta, u in lv.transversal.items():
                if u[lv.base] != beta:
                    raise AssertionError("broken transversal")
                for s in lv.gens:
                    sg = _mul(_mul(u, s), _inv(lv.transversal[s[beta]]))
                    res, _ = self._strip(sg, idx + 1)
                    if res != ident:
                        raise AssertionError("Schreier generator fails to sift")

    # -- queries -----------------------------------------------------------

    def order(self) -> int:
        return self._order

    @property
    def base(self):
        return [lv.base for lv in self.levels]

    def contains(self, p: Permutation) -> bool:
        img = p.images if isinstance(p, Permutation) else tuple(p)
        if len(img) != self.degree:
            raise ValueError("degree mismatch")
        res, _ = self._strip(img, 0)
        return res == self._identity

    def random_element(self, rng: random.Random) -> Permutation:
        """Uniformly random element: every g factors uniquely as a product
        of one transversal representative per level, deepest level first."""
        g = self._identity
        for lv in reversed(self.levels):
            u = lv.transversal[rng.choice(list(lv.transversal))]
            g = _mul(g, u)
        return Permutation(g)

    def elements(self):
        """Iterate all elements (use only for small groups)."""
        def rec(i, prefix):
            if i == len(self.levels):
                yield Permutation(prefix)
                return
            for u in self.levels[i].transversal.values():
                yield from rec(i + 1, _mul(u, prefix))
        yield from rec(0, self._identity)

    def __repr__(self):
        return f"StabilizerChain(degree={self.degree}, order={self._order})"


def build_chain(gens, degree: int | None = None) -> StabilizerChain:
    """Spec surface: verified stabilizer chain from generators."""
    if not gens and degree is None:
        raise ValueError("nonempty generator list required")
    return StabilizerChain(gens, degree)


# -- orbit / block machinery -------------------------------------------------

def orbits(chain_or_gens, degree: int | None = None):
    if isinstance(chain_or_gens, StabilizerChain):
        gens = [g.images for g in chain_or_gens.generators]
        degree = chain_or_gens.degree
    else:
        gens = [g.images if isinstance(g, Permutation) else tuple(g) for g in chain_or_gens]
        if degree is None:
            degree = len(gens[0])
    seen = [False] * degree
    out = []
    for start in range(degree):
        if seen[start]:
            continue
        orb = [start]
        seen[start] = True
        frontier = [start]
        while frontier:
            nxt = []
            for b in frontier:
                for g in gens:
                    c = g[b]
                    if not seen[c]:
                        seen[c] = True
                        orb.append(c)
                        nxt.append(c)
            frontier = nxt
        out.append(sorted(orb))
    return out


def is_transitive(chain: StabilizerChain) -> bool:
    return len(orbits(chain)) == 1


def minimal_block_system(chain: StabilizerChain, alpha: int, beta: int):
    """Finest block system whose block contains {alpha, beta} (Atkinson)."""
    n = chain.degree
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        parent[max(rx, ry)] = min(rx, ry)
        return True

    gens = [g.images for g in chain.generators]
    union(alpha, beta)
    queue = [(alpha, beta)]
    while queue:
        a, b = queue.pop()
        for g in gens:
            c, d = g[a], g[b]
            if union(c, d):
                queue.append((c, d))
    blocks: dict[int, list] = {}
    for x in range(n):
        blocks.setdefault(find(x), []).append(x)
    return sorted(blocks.values())


def is_primitive(chain: StabilizerChain, with_witness: bool = False):
    """Primitivity via minimal block systems seeded by each point pair.

    Returns bool, or (bool, witness_blocks_or_None) when with_witness.
    """
    n = chain.degree
    if n < 2:
        raise ValueError("primitivity needs degree >= 2")
    orbs = orbits(chain)
    if len(orbs) > 1:
        return (False, orbs) if with_witness else False
    for beta in range(1, n):
        blocks = minimal_block_system(chain, 0, beta)
        if len(blocks) > 1 and len(blocks) < n:
            return (False, blocks) if with_witness else False
    return (True, None) if with_witness else True


# -- conjugacy classes --------------------------------------------------------

@dataclass
class ConjClassData:
    """One conjugacy class: canonical representative and power structure."""
    representative: Permutation
    size: int
    rep_order: int
    power_map: dict = field(default_factory=dict)
    name: str = ""

    def inverse_class(self) -> int:
        return self.power_map[(self.rep_order - 1) % self.rep_order if self.rep_order > 1 else 0]


def _np_dtype(degree: int):
    return np.uint8 if degree <= 255 else np.uint16


class ClassSystem:
    """Lookups shared by every class system and character table.

    Subclasses set `self.classes`, a list whose entries carry `name`,
    `rep_order` and a complete `power_map` (t -> class index for
    0 <= t < rep_order).
    """

    classes: list

    def class_named(self, name: str) -> int:
        for i, c in enumerate(self.classes):
            if c.name == name:
                return i
        # order-letter fallback ("7a" = first class of representative order
        # 7 in canonical order), so both naming schemes resolve everywhere
        m = re.fullmatch(r"(\d+)([a-z])", name)
        if m:
            order, pos = int(m.group(1)), ord(m.group(2)) - ord("a")
            idx = [i for i, c in enumerate(self.classes) if c.rep_order == order]
            if pos < len(idx):
                return idx[pos]
        raise KeyError(f"no class named {name!r}")

    def power_class(self, k: int, a: int) -> int:
        c = self.classes[k]
        return c.power_map[a % c.rep_order]

    def inverse_class(self, k: int) -> int:
        return self.power_class(k, -1)

    def exponent(self) -> int:
        return lcm(*(c.rep_order for c in self.classes))


class GroupClasses(ClassSystem):
    """Conjugacy classes with a full element-to-class index."""

    def __init__(self, chain: StabilizerChain, bound: int = DEFAULT_CLASS_BOUND):
        order = chain.order()
        if order > bound:
            raise GroupTooLargeError(
                f"group order {order} exceeds the class enumeration bound {bound}")
        self.chain = chain
        self.degree = chain.degree
        self.order = order
        self._enumerate_elements()
        self._find_classes()
        self._order_and_name_classes()
        self._power_maps()

    # element enumeration: BFS closure under right multiplication
    def _enumerate_elements(self):
        n = self.degree
        dtype = _np_dtype(n)
        gens = [np.array(g.images, dtype=dtype) for g in self.chain.generators]
        ident = np.arange(n, dtype=dtype)
        elems = [ident]
        index = {ident.tobytes(): 0}
        frontier = [ident]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = g[x]
                    key = y.tobytes()
                    if key not in index:
                        index[key] = len(elems)
                        elems.append(y)
                        nxt.append(y)
            frontier = nxt
        if len(elems) != self.order:
            raise AssertionError("element enumeration does not match group order")
        self.elements = elems
        self.index = index
        self._gen_arrays = gens
        self._gen_inv_arrays = [np.argsort(g).astype(dtype) for g in gens]

    def _find_classes(self):
        n_elems = self.order
        class_of = np.full(n_elems, -1, dtype=np.int32)
        reps = []
        sizes = []
        gens = self._gen_arrays
        gen_invs = self._gen_inv_arrays
        elems = self.elements
        index = self.index
        cid = 0
        for start in range(n_elems):
            if class_of[start] >= 0:
                continue
            class_of[start] = cid
            min_elem = elems[start]
            size = 1
            frontier = [start]
            while frontier:
                nxt = []
                for idx in frontier:
                    x = elems[idx]
                    for g, gi in zip(gens, gen_invs):
                        y = g[x[gi]]
                        j = index[y.tobytes()]
                        if class_of[j] < 0:
                            class_of[j] = cid
                            size += 1
                            nxt.append(j)
                            ye = elems[j]
                            if _lex_less(ye, min_elem):
                                min_elem = ye
                frontier = nxt
            reps.append(min_elem)
            sizes.append(size)
            cid += 1
        self._raw_class_of = class_of
        self._raw_reps = reps
        self._raw_sizes = sizes

    def _order_and_name_classes(self):
        reps = [Permutation(tuple(int(i) for i in r)) for r in self._raw_reps]
        orders = [r.order() for r in reps]
        perm = sorted(range(len(reps)),
                      key=lambda i: (orders[i], self._raw_sizes[i], reps[i].images))
        remap = np.zeros(len(reps), dtype=np.int32)
        for new, old in enumerate(perm):
            remap[old] = new
        self.class_of_idx = remap[self._raw_class_of]
        self.classes = []
        counters: dict[int, int] = {}
        for new, old in enumerate(perm):
            o = orders[old]
            k = counters.get(o, 0)
            counters[o] = k + 1
            self.classes.append(ConjClassData(
                representative=reps[old],
                size=self._raw_sizes[old],
                rep_order=o,
                name=f"{o}{class_letter(k)}",
            ))
        del self._raw_class_of, self._raw_reps, self._raw_sizes
        total = sum(c.size for c in self.classes)
        if total != self.order:
            raise AssertionError("class sizes do not sum to group order")
        for c in self.classes:
            if self.order % c.size:
                raise AssertionError("class size does not divide group order")

    def _power_maps(self):
        for c in self.classes:
            rep = c.representative
            o = c.rep_order
            pm = {}
            cur = Permutation.identity(self.degree)
            for t in range(o):
                pm[t] = self.class_of(cur)
                cur = cur * rep
            c.power_map = pm

    # -- lookups -----------------------------------------------------------

    def class_of(self, p: Permutation) -> int:
        arr = np.array(p.images, dtype=_np_dtype(self.degree))
        return int(self.class_of_idx[self.index[arr.tobytes()]])

    def class_of_array(self, arr) -> int:
        return int(self.class_of_idx[self.index[arr.tobytes()]])

    def elements_of_class(self, k: int):
        """Arrays of all elements in class k."""
        idxs = np.nonzero(self.class_of_idx == k)[0]
        return [self.elements[int(i)] for i in idxs]

    @property
    def group_order(self) -> int:
        return self.order

    def iter_class_images(self, k: int):
        for arr in self.elements_of_class(k):
            yield tuple(int(i) for i in arr)

    def class_of_images(self, images) -> int:
        arr = np.array(images, dtype=_np_dtype(self.degree))
        return int(self.class_of_idx[self.index[arr.tobytes()]])


def _lex_less(a, b) -> bool:
    neq = np.nonzero(a != b)[0]
    if len(neq) == 0:
        return False
    i = neq[0]
    return a[i] < b[i]


def conjugacy_classes(chain: StabilizerChain,
                      bound: int = DEFAULT_CLASS_BOUND) -> GroupClasses:
    """Spec surface: classes by BFS conjugation orbits, identity class first."""
    return GroupClasses(chain, bound)


def normal_closure(chain: StabilizerChain, seeds) -> StabilizerChain:
    """Normal closure of the seed elements inside the group of `chain`."""
    seeds = [s if isinstance(s, Permutation) else Permutation(s) for s in seeds]
    current = [s for s in seeds if not s.is_identity()]
    sub = StabilizerChain(current, chain.degree)
    changed = True
    while changed:
        changed = False
        for s in list(current):
            for g in chain.generators:
                c = s.conj(g)
                if not sub.contains(c):
                    current.append(c)
                    sub = StabilizerChain(current, chain.degree)
                    changed = True
    return sub


def derived_subgroup(chain: StabilizerChain) -> StabilizerChain:
    gens = chain.generators
    comms = [a.commutator(b) for a in gens for b in gens]
    return normal_closure(chain, comms)
