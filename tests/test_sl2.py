import pytest

from cgtkit import catalog
from cgtkit.fflinalg import FFMatrix
from cgtkit.permgroup import build_chain
from cgtkit.sl2 import (element_of_order_q_plus_1, even_q_eigen_facts, gf,
                        l2_order, macbeath_cover, projective_line_rep,
                        trace_image)


def test_projective_line_classical_isomorphisms():
    for q, pts, order in [(4, 5, 60), (7, 8, 168), (9, 10, 360), (8, 9, 504),
                          (11, 12, 660)]:
        ch = build_chain(projective_line_rep(q))
        assert ch.degree == pts and ch.order() == order == l2_order(q)


def test_trace_image_full_at_13():
    ti = trace_image(13)
    assert len(ti) == 13
    assert 2 in ti  # y = x^-1 always contributes trace 2


def test_trace_image_q7():
    # q = 7 is below the q > 11 threshold; the computed set happens to be
    # full, but the group is still the generation exception (see classalg)
    assert len(trace_image(7)) == 7


def test_trace_image_rejects_even_q():
    with pytest.raises(ValueError):
        trace_image(8)


def test_macbeath_q11_order5_covered():
    t = catalog.character_table("L2(11)")
    reports = macbeath_cover(t, 11)
    order5 = [r for r in reports if r.element_order == 5]
    assert order5 and all(r.in_hypothesis and r.covered for r in order5)


def test_macbeath_q7_unipotent_excluded():
    t = catalog.character_table("L2(7)")
    reports = macbeath_cover(t, 7)
    unipotent = [r for r in reports if r.element_order == 7]
    assert unipotent and all(not r.in_hypothesis for r in unipotent)
    for r in reports:
        if r.in_hypothesis:
            assert r.covered


def test_macbeath_q8_order7_covered():
    t = catalog.character_table("L2(8)")
    reports = macbeath_cover(t, 8)
    order7 = [r for r in reports if r.element_order == 7]
    assert order7 and all(r.in_hypothesis and r.covered for r in order7)
    order9 = [r for r in reports if r.element_order == 9]
    assert order9 and all(not r.in_hypothesis for r in order9)


def test_even_q_eigen_facts_q4():
    reports = even_q_eigen_facts(4)
    assert {r.twists for r in reports} == {(0,), (1,), (0, 1)}
    for r in reports:
        assert r.distinct_eigenvalues and r.fixed_dim == 0


def test_even_q_eigen_facts_q8_twist_pair():
    reports = even_q_eigen_facts(8)
    four_dim = [r for r in reports if r.dim == 4]
    assert len(four_dim) == 3
    for r in four_dim:
        assert r.distinct_eigenvalues and r.fixed_dim == 0


def test_even_q_identity_negative_control():
    F = gf(4)
    ident = FFMatrix.identity(F, 2)
    reports = even_q_eigen_facts(4, x=ident)
    for r in reports:
        assert r.fixed_dim == r.dim
        if r.dim > 1:
            assert not r.distinct_eigenvalues


def test_element_of_order_q_plus_1():
    for q in (4, 8, 16):
        m = element_of_order_q_plus_1(q)
        ident = FFMatrix.identity(m.field, 2)
        assert m ** (q + 1) == ident
        assert all((m ** k) != ident for k in range(1, q + 1))


def test_l2_order_formula():
    assert l2_order(7) == 168 and l2_order(8) == 504 and l2_order(9) == 360


@pytest.mark.slow
def test_trace_image_full_for_all_odd_q_13_to_64():
    for q in (13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49, 53, 59, 61):
        assert len(trace_image(q)) == q, q


@pytest.mark.slow
def test_projective_line_order_formula_up_to_64():
    from cgtkit.zsigmondy import is_prime_power
    for q in range(4, 65):
        if is_prime_power(q) is None:
            continue
        ch = build_chain(projective_line_rep(q))
        assert ch.degree == q + 1 and ch.order() == l2_order(q), q


@pytest.mark.parametrize("q", [4, 5, 8, 9])
def test_point_action_is_the_row_vector_product(q):
    from cgtkit.sl2 import _point_action, sl2_generators
    F = gf(q)
    vectors = [(a, b) for a in range(q) for b in range(q) if (a, b) != (0, 0)]
    line = [(1, 0)] + [(x, 1) for x in range(q)]

    def normalized(v):
        # the projective point of v: scaled to last entry 1, or (1, 0)
        return (F.mul(v[0], F.inv(v[1])), 1) if v[1] else (1, 0)

    gens = sl2_generators(q)
    for m, on_vectors, on_line in zip(gens, _point_action(q),
                                      _point_action(q, projective=True)):
        images = [(FFMatrix(F, [v]) * m).data[0] for v in vectors]
        assert on_vectors.images == tuple(vectors.index(w) for w in images)
        images = [normalized((FFMatrix(F, [v]) * m).data[0]) for v in line]
        assert on_line.images == tuple(line.index(w) for w in images)
    assert projective_line_rep(q) == _point_action(q, projective=True)
