import random
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgtkit._ntheory import is_prime
from cgtkit.finitefield import FiniteField
from cgtkit.fflinalg import (FFMatrix, SplitFailure, ff_rank, ff_simultaneous_eigenspaces,
                             modp_charpoly, modp_kernel, modp_matvec, modp_rref,
                             simultaneous_eigenspaces_modp)

F2 = FiniteField(2, 1)
F7 = FiniteField(7, 1)


def test_identity_and_zero_ranks():
    assert ff_rank(FFMatrix.identity(F2, 4)) == 4
    Z = FFMatrix.zero(F7, 3, 5)
    assert ff_rank(Z) == 0 and Z.nullity() == 5


def test_companion_minus_identity_rank():
    # companion matrix of x^2+x+1 over GF(2): no fixed vectors
    C = FFMatrix(F2, [[0, 1], [1, 1]])
    assert ff_rank(C - FFMatrix.identity(F2, 2)) == 2


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 10 ** 6))
@settings(max_examples=80)
def test_rank_plus_nullity(rows, cols, seed):
    import random
    rng = random.Random(seed)
    M = FFMatrix(F7, [[rng.randrange(7) for _ in range(cols)] for _ in range(rows)])
    assert M.rank() + M.nullity() == cols
    ns = M.nullspace()
    assert ns.rows == M.nullity()
    # kernel vectors really annihilate
    for v in ns.data:
        out = [sum(M.data[i][j] * v[j] for j in range(cols)) % 7 for i in range(rows)]
        assert all(x == 0 for x in out)


def test_simultaneous_eigenspaces_identity():
    spaces = ff_simultaneous_eigenspaces([FFMatrix.identity(F7, 3)])
    assert [s.rows for s in spaces] == [3]


def test_simultaneous_eigenspaces_diagonal():
    M = FFMatrix(F7, [[1, 0, 0], [0, 2, 0], [0, 0, 2]])
    assert sorted(s.rows for s in ff_simultaneous_eigenspaces([M])) == [1, 2]


def test_simultaneous_eigenspaces_s3_class_sums():
    # class-sum matrices of S3 split into three 1-dim common eigenspaces
    # over a Dixon prime (p = 7 = 1 mod 6 > 2*sqrt(6)); entries are the
    # class-algebra structure constants K_i K_j = sum_k a_{ijk} K_k
    M_trans = FFMatrix(F7, [[0, 1, 0], [3, 0, 3], [0, 2, 0]])
    M_3cyc = FFMatrix(F7, [[0, 0, 1], [0, 2, 0], [2, 0, 1]])
    assert M_trans * M_3cyc == M_3cyc * M_trans
    spaces = ff_simultaneous_eigenspaces([M_trans, M_3cyc])
    assert sorted(s.rows for s in spaces) == [1, 1, 1]


def _family(*mats):
    """Yield mats, then fail: drawing past them means the splitter was not lazy."""
    yield from mats
    raise AssertionError("matrix drawn after the family split into lines")


def test_simultaneous_eigenspaces_modp_draws_only_what_it_needs():
    # a 1-dimensional space is split before any matrix is drawn
    assert simultaneous_eigenspaces_modp(1, _family(), 7) == [[[1]]]
    # diag(1, 1, 2) leaves a plane; diag(1, 2, 3) splits it, and the
    # generator is not pulled again
    spaces = simultaneous_eigenspaces_modp(
        3, _family([[1, 0, 0], [0, 1, 0], [0, 0, 2]],
                   [[1, 0, 0], [0, 2, 0], [0, 0, 3]]), 7)
    assert sorted(spaces) == [[[0, 0, 1]], [[0, 1, 0]], [[1, 0, 0]]]


def test_simultaneous_eigenspaces_modp_returns_unsplit_spaces_when_family_ends():
    spaces = simultaneous_eigenspaces_modp(3, iter([[[1, 0, 0], [0, 1, 0], [0, 0, 2]]]), 7)
    assert sorted(len(b) for b in spaces) == [1, 2]


def test_simultaneous_eigenspaces_modp_split_failure():
    # x^2 - 3 has no root mod 7 (3 is not a square)
    with pytest.raises(SplitFailure):
        simultaneous_eigenspaces_modp(2, [[[0, 1], [3, 0]]], 7)


def test_non_commuting_rejected():
    A = FFMatrix(F7, [[0, 1], [0, 0]])
    B = FFMatrix(F7, [[0, 0], [1, 0]])
    with pytest.raises(ValueError):
        ff_simultaneous_eigenspaces([A, B])


def test_inverse_and_kron():
    A = FFMatrix(F7, [[1, 2], [3, 4]])
    assert A * A.inverse() == FFMatrix.identity(F7, 2)
    B = FFMatrix(F7, [[0, 1], [1, 0]])
    K = A.kron(B)
    assert K.rows == 4 and K.data[0][1] == 1 and K.data[0][0] == 0


def test_minimal_polynomial_distinct_eigenvalues():
    assert FFMatrix(F7, [[2, 0], [0, 3]]).has_distinct_eigenvalues()
    assert not FFMatrix(F7, [[2, 1], [0, 2]]).has_distinct_eigenvalues()
    assert not FFMatrix(F7, [[2, 0], [0, 2]]).has_distinct_eigenvalues()


def _poly_at(M, poly):
    """poly(M) by Horner's rule; poly is little-endian."""
    F, n = M.field, M.rows
    out = FFMatrix.zero(F, n, n)
    for c in reversed(poly):
        out = out * M + FFMatrix(F, [[c if i == j else 0 for j in range(n)]
                                     for i in range(n)])
    return out


@pytest.mark.parametrize("p,k", [(7, 1), (2, 2), (2, 3)])
@given(st.integers(1, 5), st.integers(0, 10 ** 6))
@settings(max_examples=30)
def test_minimal_polynomial_is_the_least_annihilator(p, k, n, seed):
    import random
    rng = random.Random(seed)
    F = FiniteField(p, k)
    # sparse entries make repeated eigenvalues and small minimal polynomials common
    M = FFMatrix(F, [[rng.randrange(F.q) if rng.random() < 0.4 else 0 for _ in range(n)]
                     for _ in range(n)])
    mp = M.minimal_polynomial()
    assert mp[-1] == 1
    assert _poly_at(M, mp) == FFMatrix.zero(F, n, n)
    # deg = dim span(I, M, ..., M^n), read off the flattened powers
    powers = [M ** i for i in range(n + 1)]
    flat = FFMatrix(F, [[x for row in P.data for x in row] for P in powers])
    assert len(mp) - 1 == flat.rank()


# -- the int64 mod-p layer -------------------------------------------------------

def _py_rref(M, p):
    """Reduced row echelon form mod p in Python ints: (rows, pivots)."""
    m = [[x % p for x in row] for row in M]
    pivots, r = [], 0
    for c in range(len(m[0]) if m else 0):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def _py_kernel(M, p):
    red, pivots = _py_rref(M, p)
    cols = len(M[0])
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[fc] = 1
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc] % p
        basis.append(v)
    return basis


def _py_charpoly3(A, p):
    """det(xI - A) of a 3 x 3 matrix from its trace, principal minors and
    determinant, little-endian mod p."""
    (a, b, c), (d, e, f), (g, h, i) = A
    minors = (a * e - b * d) + (a * i - c * g) + (e * i - f * h)
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return [-det % p, minors % p, -(a + e + i) % p, 1]


def _int64_edge_primes(n):
    """The largest prime p with n*(p-1)^2 < 2^63, and the next prime."""
    top = isqrt(((1 << 63) - 1) // n) + 1
    below = next(q for q in range(top, 2, -1) if is_prime(q))
    above = next(q for q in range(top + 1, top + 10 ** 4) if is_prime(q))
    return below, above


def test_int64_bound_edge_matches_python_ints():
    p, above = _int64_edge_primes(3)
    assert 3 * (p - 1) ** 2 < 1 << 63 <= 3 * (above - 1) ** 2
    rng = random.Random(63)
    for _ in range(20):
        # entries near p - 1 make every product sum as large as it gets
        A = [[p - 1 - rng.randrange(3) for _ in range(3)] for _ in range(3)]
        assert modp_charpoly(A, p) == _py_charpoly3(A, p)
        x, y = rng.randrange(p), rng.randrange(p)
        S = [A[0], A[1], [(x * u + y * v) % p for u, v in zip(A[0], A[1])]]
        ker = modp_kernel(S, p)
        assert ker.tolist() == _py_kernel(S, p)
        assert all(sum(s * v for s, v in zip(row, k)) % p == 0
                   for row in S for k in ker.tolist())
        assert modp_matvec(A, A[0], p).tolist() == [
            sum(a * b for a, b in zip(row, A[0])) % p for row in A]
    A = [[above - 1] * 3 for _ in range(3)]
    for call in (lambda: modp_charpoly(A, above), lambda: modp_kernel(A, above),
                 lambda: modp_rref(A, above), lambda: modp_matvec(A, A[0], above),
                 lambda: simultaneous_eigenspaces_modp(3, [A], above)):
        with pytest.raises(ValueError, match=r"n\*\(p-1\)\^2 < 2\^63"):
            call()


def _random_invertible(n, p, rng):
    while True:
        P = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if len(_py_rref(P, p)[1]) == n:
            return P


def _py_inverse(P, p):
    n = len(P)
    red, _ = _py_rref([row + [int(i == j) for j in range(n)] for i, row in enumerate(P)], p)
    return [row[n:] for row in red]


@pytest.mark.parametrize("p", [11, 101, 7919])
def test_simultaneous_eigenspaces_are_the_eigenvector_spans(p):
    # commuting diagonalisable families P D_i P^-1: the common eigenspaces
    # are the spans of P's columns grouped by their eigenvalue tuples
    rng = random.Random(p)
    for _ in range(25):
        n = rng.randint(1, 8)
        P = _random_invertible(n, p, rng)
        Pinv = _py_inverse(P, p)
        # few distinct values, so eigenvalues repeat within and across the D_i
        diags = [[rng.randrange(3) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        mats = [[[sum(P[i][t] * D[t] * Pinv[t][j] for t in range(n)) % p
                  for j in range(n)] for i in range(n)] for D in diags]
        groups: dict = {}
        for j in range(n):
            groups.setdefault(tuple(D[j] for D in diags), []).append([row[j] for row in P])
        want = sorted(_py_rref(cols, p)[0] for cols in groups.values())
        spaces = simultaneous_eigenspaces_modp(n, mats, p)
        assert all(basis == _py_rref(basis, p)[0] for basis in spaces)
        assert sorted(spaces) == want
