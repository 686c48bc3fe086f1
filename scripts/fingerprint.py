#!/usr/bin/env python3
"""Print sha256 fingerprints of the toolkit's exact outputs.

One line per output: ``<kind> <name> <sha256>``.  Two checkouts that print
the same lines produce byte-identical class data, character tables and
triple reports.  The outputs covered:

- ``classes``: names, representatives, sizes and power maps (read through
  ``power_class``) of ``catalog.class_system(name)`` for every ``verify.NEUMANN_GROUPS`` group;
- ``table``: ``catalog.character_table(name, use_file_cache=False).to_json()``
  for the same groups (the combinatorial engine for A_n);
- ``elements``: the rows of ``elements_of_class(k)`` (dtype and bytes), for
  every class k, of every one of those groups whose class system is a
  ``permgroup.GroupClasses``, so the element order is covered too;
- ``classsum``: every class-sum matrix (M_i)[j][k] = a_ijk mod p, as
  integer lists, p the first Dixon prime, of every one of those groups whose
  class system is a ``permgroup.GroupClasses`` of at most 10^5 elements;
- ``dixon``: ``dixon_table(...).to_json()`` for A5-A8, the class-algebra
  engine on the groups the combinatorial one also covers;
- ``triples``: ``enumerate_triples(...).to_json()`` (totals, histograms,
  witnesses) on a few small groups;
- ``chain``: every level's base point, strong generators and transversal
  items, in order, of the ``catalog.load_group`` chain of every
  ``verify.NEUMANN_GROUPS`` group and of the deterministic chain
  ``build_chain([x, y])`` of the Lemma 4.2/4.3 pairs for n = 11..30;
- ``lemma``: x, y, the involution, the triple, the order of ``c.chain`` and
  that chain's levels, as above, of the Lemma 4.2/4.3 construction ``c``
  for n = 11..30 (a chain proved against the order n!/2);
- ``triples-an``: ``enumerate_triples(..., classify=True).to_json()`` on
  ``symmchar.AnClassSystem``, split classes (A7 7a, A9 9a) included;
- ``search``: the witness of a seeded ``search_triple``;
- ``beauville``: ``str()`` of what ``beauville_search`` returns (the two
  generating pairs, or None) for A5, A6 and L2(7);
- ``spread``: (class, ok, failing) of ``spread_class_check`` for every
  nontrivial class of A5, A6, L2(7), A7 and M11 on
  ``catalog.class_system``, and of A5-A7 on ``symmchar.AnClassSystem(n)``;
- ``an-classes``: names, representatives, sizes and power maps of
  ``symmchar.AnClassSystem(n)`` for n = 3..18;
- ``sn-classes``: the same of ``symmchar.SnClassSystem(n)`` for n = 2..12;
- ``an-elements``: the order in which ``AnClassSystem.iter_class_images``
  lists every class of A_n for n = 3..9, and class 7a of A10;
- ``sn-table``: ``symmchar.sn_table(n).to_json()`` for n = 3..12;
- ``prop77``: (name1, name2, covered, missed) of ``symmchar.an_pair_covers``
  for every ordered pair of nontrivial classes of A_n, n = 5..10; for
  n > 10 in ``verify.PROP77_ORDERS``, for every pair of classes of the two
  orders there (every pair ``verify-paper --suite crosscheck`` can try); and
  for the first two classes of 17-cycles of A18;
- ``zsigmondy``: (q, e, phi_star, ``prime_divisors(phi_star)``) over the
  verify-paper grid (prime powers q <= 64, 3 <= e <= 30, q^e - 1 <= 2^128);
- ``ntheory``: ``conway_polynomial(p, k)`` for every prime power p^k <= 1024,
  ``is_prime_power(q)`` for q < 4096, and (``dixon_prime(order, exponent)``,
  the primitive root mod that prime) for every ``verify.NEUMANN_GROUPS`` group;
- ``roots``: ``fflinalg.modp_roots`` on seeded polynomials over GF(p) for
  p in ``ROOT_PRIMES``: products of linear factors with multiplicities, an
  irreducible quadratic factor, unreduced and untrimmed coefficients, the
  zero polynomial and constants;
- ``minpoly``: ``minimal_polynomial`` and ``has_distinct_eigenvalues`` of
  seeded ``FFMatrix``es (random, sparse, diagonal, triangular, scalar) over
  every field in ``MINPOLY_FIELDS``;
- ``even-q``: every report of ``sl2.even_q_eigen_facts(q)`` for q in
  ``EVEN_Q``;
- ``verify-paper`` (with ``--verify-paper``): ``verify-paper --json`` with
  every ``elapsed`` field masked.

Usage: python scripts/fingerprint.py [--verify-paper]

``tests/data/fingerprint.txt`` holds the ``--verify-paper`` lines that
``tests/test_fingerprint.py`` expects; a change that alters an output on
purpose regenerates it with this script.
"""

import argparse
import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cgtkit import catalog, cli, verify
from cgtkit.chartab import _class_sum_matrix_modp, dixon_prime, dixon_table
from cgtkit.fflinalg import FFMatrix, modp_roots
from cgtkit.finitefield import FiniteField, conway_polynomial
from cgtkit.gentriples import (beauville_search, build_lemma42, build_lemma43,
                               enumerate_triples, search_triple, spread_class_check)
from cgtkit.permgroup import GroupClasses, build_chain, conjugacy_classes
from cgtkit.sl2 import even_q_eigen_facts
from cgtkit.symmchar import (AnClassSystem, SnClassSystem, an_pair_covers, an_table,
                             sn_table)
from cgtkit.zsigmondy import is_prime_power, prime_divisors, scan_reports

try:
    from cgtkit._ntheory import primitive_root
except ImportError:  # older checkouts take the Dixon primitive root from sympy
    from sympy import primitive_root

DIXON_GROUPS = ["A5", "A6", "A7", "A8"]
CLASSSUM_BOUND = 10 ** 5
# (group, class, a, classify)
TRIPLES = [("A5", "5a", 1, True), ("A5", "3a", -2, True),
           ("L2(7)", "7a", 1, True), ("L2(7)", "7a", -2, True),
           ("A7", "7a", 1, True), ("M11", "11a", 1, True), ("M11", "11a", 2, False)]
# (n, class, a) on AnClassSystem(n), classified
AN_TRIPLES = [(7, "7a", 1), (7, "7b", -2), (9, "9a", 1), (10, "7a", 1)]
LEMMA_NS = range(11, 31)
AN_CLASS_NS = range(3, 19)
SN_CLASS_NS = range(2, 13)
# (n, class names or None for all classes) for the an-elements lines
AN_ELEMENTS = [(n, None) for n in range(3, 10)] + [(10, ["7a"])]
SN_TABLE_NS = range(3, 13)
PROP77_ALL_PAIRS_NS = range(5, 11)
# (group, class, a, seed); A_n (n >= 9) uses AnClassSystem through the catalog
SEARCHES = [("A7", "7a", 1, 1), ("M11", "11a", 1, 2), ("A10", "7a", 1, 3),
            ("A12", "11a", 1, 4)]
BEAUVILLE_GROUPS = ["A5", "A6", "L2(7)"]
# (group, engine): "catalog" is catalog.class_system, "an" is AnClassSystem(n)
SPREAD = [(name, "catalog") for name in ("A5", "A6", "L2(7)", "A7", "M11")] + \
    [(f"A{n}", "an") for n in (5, 6, 7)]
ROOT_PRIMES = [2, 3, 7, 43891, 65537]
# (p, k) of GF(p^k)
MINPOLY_FIELDS = [(2, 1), (2, 2), (7, 1), (3, 2), (2, 4)]
EVEN_Q = [4, 8, 16, 32]


def sha(obj) -> str:
    data = obj if isinstance(obj, bytes) else json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def class_data(cs) -> list:
    return [[c.name, list(c.representative.images), c.size, c.rep_order,
             [(t, cs.power_class(k, t)) for t in range(c.rep_order)]]
            for k, c in enumerate(cs.classes)]


def elements_sha(cs, names) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode())
        for images in cs.iter_class_images(cs.class_named(name)):
            h.update(bytes(images))
    return h.hexdigest()


def index_sha(gc) -> str:
    h = hashlib.sha256()
    for k in range(len(gc.classes)):
        rows = gc.elements_of_class(k)
        h.update(str(rows.dtype).encode())
        h.update(rows.tobytes())
    return h.hexdigest()


def class_sums_sha(gc) -> str:
    p = dixon_prime(gc.order, gc.exponent())
    return sha([_class_sum_matrix_modp(gc, i, p).tolist() for i in range(len(gc.classes))])


def chain_data(chain) -> list:
    return [[lv.base, [list(g) for g in lv.gens],
             [[beta, list(u)] for beta, u in lv.transversal.items()]]
            for lv in chain.levels]


def pair_covers_sha(n, firsts, seconds) -> str:
    return sha([[a, b, *an_pair_covers(n, a, b)] for a in firsts for b in seconds])


def _poly_mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return out


def root_polynomials(p) -> list:
    """Seeded test polynomials over GF(p), little-endian.  No root has a
    multiplicity divisible by p, and over GF(2) no polynomial has two
    distinct roots: the Cantor-Zassenhaus splitter of older checkouts drops
    such a root (f / gcd(f, f') loses the whole factor) and never separates
    x from x + 1.  Tier-1 tests cover both cases."""
    rng = random.Random(p)
    if p == 2:
        # x^3, (x+1)^3, x^2+x+1, x^3 (x^2+x+1), (x+1)(x^2+x+1)^2
        polys = [[0, 0, 0, 1], [1, 1, 1, 1], [1, 1, 1], [0, 0, 0, 1, 1, 1],
                 [1, 1, 1, 1, 1, 1]]
    else:
        # x^2 - n, n the least quadratic non-residue, has no root in GF(p)
        n = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
        polys = [[(-n) % p, 0, 1]]
        for _ in range(12):
            roots = rng.sample(range(p), min(p, rng.randint(1, 6)))
            roots[0] = rng.choice([roots[0], p - 1, p - 2, 0])
            f = [rng.randrange(1, p)]
            for r in dict.fromkeys(roots):
                for _ in range(rng.randint(1, min(3, p - 1))):
                    f = _poly_mul(f, [(-r) % p, 1], p)
            if rng.random() < 0.5:
                f = _poly_mul(f, polys[0], p)
            polys.append(f)
    zero_and_constants = [[], [0], [0, 0, p], [1], [p + 1, 0, 0], [-1]]
    unreduced = [[c + p * rng.randint(-2, 2) for c in f] + [0, p] for f in polys]
    return polys + unreduced + zero_and_constants


def minpoly_matrices(F) -> list:
    """Seeded square matrices over F, sizes 1 to 6."""
    rng = random.Random(F.q)
    mats = []
    for n in range(1, 7):
        few = [rng.randrange(F.q) for _ in range(2)]
        mats.append([[rng.randrange(F.q) for _ in range(n)] for _ in range(n)])
        mats.append([[rng.randrange(F.q) if rng.random() < 0.3 else 0
                      for _ in range(n)] for _ in range(n)])
        mats.append([[rng.choice(few) if i == j else 0 for j in range(n)]
                     for i in range(n)])
        mats.append([[rng.choice(few) if i == j else rng.randrange(F.q) if i < j else 0
                      for j in range(n)] for i in range(n)])
        mats.append([[few[0] if i == j else 0 for j in range(n)] for i in range(n)])
    return [FFMatrix(F, m) for m in mats]


def polynomial_lines() -> None:
    """Print the roots, minpoly and even-q lines."""
    for p in ROOT_PRIMES:
        print("roots", f"p={p}", sha([[f, modp_roots(f, p)] for f in root_polynomials(p)]),
              flush=True)
    for p, k in MINPOLY_FIELDS:
        F = FiniteField(p, k)
        print("minpoly", repr(F), sha([[M.data, M.minimal_polynomial(),
                                         M.has_distinct_eigenvalues()]
                                        for M in minpoly_matrices(F)]), flush=True)
    for q in EVEN_Q:
        print("even-q", f"q={q}", sha([[r.q, r.twists, r.dim, r.distinct_eigenvalues,
                                         r.fixed_dim] for r in even_q_eigen_facts(q)]),
              flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--verify-paper", action="store_true",
                    help="also hash `verify-paper --json` with elapsed masked")
    args = ap.parse_args(argv)
    for name in verify.NEUMANN_GROUPS:
        print("classes", name, sha(class_data(catalog.class_system(name))), flush=True)
        table = catalog.character_table(name, use_file_cache=False)
        print("table", name, sha(table.to_json()), flush=True)
    for name in verify.NEUMANN_GROUPS:
        cs = catalog.class_system(name)
        if isinstance(cs, GroupClasses):
            print("elements", name, index_sha(cs), flush=True)
    for name in verify.NEUMANN_GROUPS:
        cs = catalog.class_system(name)
        if isinstance(cs, GroupClasses) and cs.order <= CLASSSUM_BOUND:
            print("classsum", name, class_sums_sha(cs), flush=True)
    for name in DIXON_GROUPS:
        chain = catalog.load_group(name)[1]
        print("dixon", name, sha(dixon_table(conjugacy_classes(chain), name).to_json()),
              flush=True)
    for name, cname, a, classify in TRIPLES:
        chain = catalog.load_group(name)[1]
        r = enumerate_triples(chain, catalog.class_system(name), cname, a,
                              classify=classify, table=catalog.character_table(name),
                              group_name=name)
        print("triples", f"{name}:{cname}:{a}", sha(r.to_json()), flush=True)
    for name in verify.NEUMANN_GROUPS:
        print("chain", name, sha(chain_data(catalog.load_group(name)[1])), flush=True)
    for n in LEMMA_NS:
        c = build_lemma42(n) if n % 2 else build_lemma43(n)
        print("chain", f"lemma:A{n}", sha(chain_data(build_chain([c.x, c.y]))), flush=True)
        print("lemma", f"A{n}", sha([str(c.x), str(c.y), str(c.involution),
                                     [str(t) for t in c.triple], c.chain.order(),
                                     chain_data(c.chain)]), flush=True)
    for n, cname, a in AN_TRIPLES:
        name = f"A{n}"
        r = enumerate_triples(catalog.load_group(name)[1], AnClassSystem(n), cname, a,
                              table=an_table(n), group_name=name)
        print("triples-an", f"{name}:{cname}:{a}", sha(r.to_json()), flush=True)
    for name, cname, a, seed in SEARCHES:
        w = search_triple(catalog.load_group(name)[1], catalog.class_system(name),
                          cname, a, seed=seed)
        print("search", f"{name}:{cname}:{a}:{seed}", sha([str(p) for p in w]),
              flush=True)
    for name in BEAUVILLE_GROUPS:
        got = beauville_search(catalog.load_group(name)[1], catalog.class_system(name))
        print("beauville", name, sha(str(got).encode()), flush=True)
    for name, engine in SPREAD:
        chain = catalog.load_group(name)[1]
        cs = AnClassSystem(int(name[1:])) if engine == "an" else catalog.class_system(name)
        rows = [[c.name, *spread_class_check(chain, cs, c.name)]
                for c in cs.classes if c.rep_order > 1]
        print("spread", f"{name}:{engine}", sha(rows), flush=True)
    for n in AN_CLASS_NS:
        print("an-classes", f"A{n}", sha(class_data(AnClassSystem(n))), flush=True)
    for n in SN_CLASS_NS:
        print("sn-classes", f"S{n}", sha(class_data(SnClassSystem(n))), flush=True)
    for n, names in AN_ELEMENTS:
        cs = AnClassSystem(n)
        label = ",".join(names) if names else "all"
        names = names or [c.name for c in cs.classes]
        print("an-elements", f"A{n}:{label}", elements_sha(cs, names), flush=True)
    for n in SN_TABLE_NS:
        print("sn-table", f"S{n}", sha(sn_table(n).to_json()), flush=True)
    for n in PROP77_ALL_PAIRS_NS:
        names = [c.name for c in AnClassSystem(n).classes if c.rep_order > 1]
        print("prop77", f"A{n}", pair_covers_sha(n, names, names), flush=True)
    for n, orders in verify.PROP77_ORDERS.items():
        if n in PROP77_ALL_PAIRS_NS:
            continue
        cs = AnClassSystem(n)
        firsts, seconds = ([c.name for c in cs.classes if c.rep_order == o] for o in orders)
        print("prop77", f"A{n}:orders{orders[0]}_{orders[1]}",
              pair_covers_sha(n, firsts, seconds), flush=True)
    seventeens = [c.name for c in AnClassSystem(18).classes if c.rep_order == 17]
    print("prop77", "A18:17", pair_covers_sha(18, seventeens[:1], seventeens[1:2]), flush=True)
    grid = [[r.q, r.e, r.phi_star, prime_divisors(r.phi_star)]
            for r in scan_reports(64, 30)]
    print("zsigmondy", "q<=64:e<=30", sha(grid), flush=True)
    powers = [pk for pk in map(is_prime_power, range(1025)) if pk]
    print("ntheory", "conway:q<=1024", sha([[p, k, conway_polynomial(p, k)] for p, k in powers]),
          flush=True)
    print("ntheory", "is_prime_power:q<4096", sha([is_prime_power(q) for q in range(4096)]),
          flush=True)
    dixon = []
    for name in verify.NEUMANN_GROUPS:
        table = catalog.character_table(name)
        p = dixon_prime(table.order, table.exponent())
        dixon.append([name, p, primitive_root(p)])
    print("ntheory", "dixon:neumann", sha(dixon), flush=True)
    polynomial_lines()
    if args.verify_paper:
        out = io.StringIO()
        with redirect_stdout(out):
            status = cli.main(["verify-paper", "--json"])
        reports = [json.loads(line) for line in out.getvalue().splitlines()]
        for rep in reports:
            for check in rep["checks"]:
                check["elapsed"] = None
        print("verify-paper", f"status={status}", sha(reports), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
