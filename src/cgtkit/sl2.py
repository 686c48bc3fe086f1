"""SL2(q) / L2(q) matrix constructions and their rank-1 consequences.

Covers the trace-surjectivity computation for the split-torus class, the
projective-line permutation representation feeding the catalog, the
coverage harness for products of a class with itself, and the even-q
eigenvalue facts on tensor products of Frobenius twists of the natural
module.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .fflinalg import FFMatrix
from .finitefield import FiniteField
from .perms import Permutation
# not used here: the layer spans of perfbench/tracing.py patch this name on
# this module
from .permgroup import build_chain  # noqa: F401
from .zsigmondy import is_prime_power

__all__ = ["gf", "sl2_generators", "projective_line_rep", "trace_image",
           "macbeath_cover", "even_q_eigen_facts", "l2_order", "sl2_order",
           "element_of_order_q_plus_1"]

MAX_Q = 64


def gf(q: int) -> FiniteField:
    pk = is_prime_power(q)
    if pk is None:
        raise ValueError(f"{q} is not a prime power")
    return FiniteField(*pk)


def sl2_order(q: int) -> int:
    return q * (q * q - 1)


def l2_order(q: int) -> int:
    return sl2_order(q) // gcd(2, q - 1)


def sl2_generators(q: int):
    """Generators of SL2(q): unipotents, the torus element diag(g, g^-1),
    and the Weyl element [[0,1],[-1,0]]."""
    F = gf(q)
    g = F.gen_code
    mats = [FFMatrix(F, [[1, 1], [0, 1]])]
    if F.k > 1:
        mats.append(FFMatrix(F, [[1, g], [0, 1]]))
    if q > 3:
        mats.append(FFMatrix(F, [[g, 0], [0, F.inv(g)]]))
    mats.append(FFMatrix(F, [[0, 1], [F.neg(1), 0]]))
    for m in mats:
        if _det2(m) != 1:
            raise AssertionError("generator not in SL2")
    return mats


def _det2(m: FFMatrix) -> int:
    F = m.field
    a, b = m.data[0]
    c, d = m.data[1]
    return F.sub(F.mul(a, d), F.mul(b, c))


def trace2(m: FFMatrix) -> int:
    F = m.field
    return F.add(m.data[0][0], m.data[1][1])


def projective_points(q: int):
    """PG(1, q) as normalized row vectors: (1, 0) = infinity first, then
    (x, 1) by ascending field code."""
    F = gf(q)
    return [(1, 0)] + [(x, 1) for x in range(q)]


def _point_image(v, m: FFMatrix):
    F = m.field
    x, y = v
    a, b = m.data[0]
    c, d = m.data[1]
    nx = F.add(F.mul(x, a), F.mul(y, c))
    ny = F.add(F.mul(x, b), F.mul(y, d))
    if ny != 0:
        return (F.mul(nx, F.inv(ny)), 1)
    return (1, 0)


def projective_line_rep(q: int):
    """Permutation generators of L2(q) acting on the q+1 projective points."""
    if q > MAX_Q:
        raise ValueError(f"q = {q} beyond the q <= {MAX_Q} budget")
    pts = projective_points(q)
    index = {v: i for i, v in enumerate(pts)}
    perms = []
    for m in sl2_generators(q):
        images = [index[_point_image(v, m)] for v in pts]
        perms.append(Permutation(images))
    return perms


def _conjugation_orbit(x: FFMatrix, gens):
    """Orbit of x under conjugation by the group generated by gens."""
    seen = {x.data: x}
    frontier = [x]
    invs = [g.inverse() for g in gens]
    while frontier:
        nxt = []
        for m in frontier:
            for g, gi in zip(gens, invs):
                c = gi * m * g
                if c.data not in seen:
                    seen[c.data] = c
                    nxt.append(c)
        frontier = nxt
    return list(seen.values())


def trace_image(q: int):
    """{tr(x y) : y conjugate to x} for the diagonal x of order q - 1."""
    if q > MAX_Q:
        raise ValueError(f"q = {q} beyond the q <= {MAX_Q} budget")
    if q % 2 == 0 or q < 5:
        raise ValueError("trace_image expects odd q >= 5 (order q-1 torus)")
    F = gf(q)
    g = F.gen_code
    x = FFMatrix(F, [[g, 0], [0, F.inv(g)]])
    gens = sl2_generators(q)
    orbit = _conjugation_orbit(x, gens)
    if len(orbit) != q * (q + 1):
        raise AssertionError("unexpected class size for the split torus class")
    return {trace2(x * y) for y in orbit}


@dataclass
class MacbeathReport:
    q: int
    class_name: str
    element_order: int
    in_hypothesis: bool
    covered: bool | None
    missed: list


def macbeath_cover(table, q: int) -> list:
    """Coverage reports for every nontrivial class of the L2(q) table.

    The hypothesis is the rank-1 coverage theorem: q odd needs x
    non-unipotent of order > 2; q even needs o(x) not dividing q + 1.
    Unipotent detection: element order equals the characteristic.
    """
    from .classalg import covers
    p = is_prime_power(q)[0]
    out = []
    for i, c in enumerate(table.classes):
        if c.rep_order == 1:
            continue
        rep = covers(table, i, i)
        if q % 2:
            hyp = (c.rep_order != p) and (c.rep_order > 2)
        else:
            hyp = (q + 1) % c.rep_order != 0
        out.append(MacbeathReport(q, c.name, c.rep_order, hyp,
                                  rep.covered, rep.missed))
    return out


def element_of_order_q_plus_1(q: int) -> FFMatrix:
    """A matrix of order q+1 in SL2(q): companion of t^2 + tr t + 1 where
    the root generates the norm-1 torus of GF(q^2)."""
    F = gf(q)
    p, k = F.p, F.k
    F2 = FiniteField(p, 2 * k)
    lam = F2.pow(F2.gen_code, (F2.q - 1) // (q + 1))
    tr_big = F2.add(lam, F2.pow(lam, q))
    # tr lies in the subfield; pull it back through the canonical embedding
    tr = next(a for a in range(q) if F.embed(a, F2) == tr_big)
    m = FFMatrix(F, [[0, 1], [1, tr]]) if p == 2 else \
        FFMatrix(F, [[0, 1], [F.neg(1), tr]])
    if _det2(m) != 1:
        raise AssertionError("companion matrix not in SL2")
    if _matrix_order(m, q + 1) != q + 1:
        raise AssertionError("companion matrix does not have order q+1")
    return m


def _matrix_order(m: FFMatrix, bound: int) -> int:
    ident = FFMatrix.identity(m.field, m.rows)
    cur = m
    for o in range(1, bound + 1):
        if cur == ident:
            return o
        cur = cur * m
    return -1


@dataclass
class EigenFactsReport:
    q: int
    twists: tuple
    dim: int
    distinct_eigenvalues: bool
    fixed_dim: int


def even_q_eigen_facts(q: int, x: FFMatrix | None = None) -> list:
    """For x of order q+1 in SL2(q), q = 2^f: on every tensor product of
    distinct Frobenius twists of the natural module, x has distinct
    eigenvalues and trivial fixed space."""
    if q not in (4, 8, 16, 32):
        raise ValueError("even_q_eigen_facts expects q in {4, 8, 16, 32}")
    F = gf(q)
    f = F.k
    if x is None:
        x = element_of_order_q_plus_1(q)
    twists = [x.frobenius_twist(i) for i in range(f)]
    out = []
    import itertools
    for r in range(1, f + 1):
        for subset in itertools.combinations(range(f), r):
            m = twists[subset[0]]
            for i in subset[1:]:
                m = m.kron(twists[i])
            ident = FFMatrix.identity(F, m.rows)
            out.append(EigenFactsReport(
                q, subset, m.rows,
                m.has_distinct_eigenvalues(),
                (m - ident).nullity()))
    return out
