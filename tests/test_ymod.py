import numpy as np
import pytest

from kgt import builtin_fixtures
from kgt.cocycle import c_theta, trivial_cocycle
from kgt.errors import DegreeMismatch, DegreeNotDominated, NotSectionDecomposable
from fractions import Fraction

from kgt.phases import Phase
from kgt.xmod import (
    XElem,
    XOp,
    x_act,
    x_compact_align,
    x_inner,
    x_iota,
    x_theta,
    x_tmul,
)
from kgt.ymod import (
    CylElem,
    YOp,
    alpha,
    alpha_decompose,
    alpha_k,
    cylinder_density_check,
    phi_y,
    phi_y_decompose,
    shift_pullback,
    sup_norm_check,
    y_inner,
    y_iota,
    y_lift,
    y_theta,
    y_tmul,
)
from oracle import tail_off_block

F1 = builtin_fixtures("f1")
F2 = builtin_fixtures("f2")
SV = builtin_fixtures("single_vertex", k=2, edges=(2, 2))
EIGHTH = Phase.from_turns(Fraction(1, 8))


def path(g, n, edges):
    return next(p for p in g.paths(n) if p.edges == tuple(edges))


def rng_x(g, n, rng):
    size = len(g.paths(n))
    return XElem(g, n, rng.normal(size=size) + 1j * rng.normal(size=size))


def rng_y(g, n, depth, rng):
    size = len(g.paths(depth))
    return CylElem(g, n, depth, rng.normal(size=size) + 1j * rng.normal(size=size))


def rng_yop(g, n, depth, rng):
    """Random adjointable operator: a sum of rank-ones in the fiber."""
    out = YOp.zeros(g, n, depth)
    for _ in range(3):
        out = out + y_theta(rng_y(g, n, depth, rng), rng_y(g, n, depth, rng))
    return out


def test_lift_copies_prefix_coefficients():
    h = CylElem(F2, (1,), (1,), [2.0, 3.0])  # order: a, b
    up = y_lift(h, (2,))
    idx = F2.path_index((2,))
    assert up.coeffs[idx[path(F2, (2,), "ab")]] == 2.0
    assert up.coeffs[idx[path(F2, (2,), "ba")]] == 3.0


def test_lift_cannot_lower_depth():
    h = CylElem(F2, (1,), (2,), np.ones(2))
    with pytest.raises(DegreeNotDominated):
        y_lift(h, (1,))


def test_depth_must_dominate_module_degree():
    with pytest.raises(DegreeNotDominated):
        CylElem(F2, (2,), (1,), np.ones(2))


def test_equality_is_after_common_lift():
    h = CylElem(F2, (1,), (1,), [1.0, -1.0])
    assert h.close(y_lift(h, (3,)))
    other = CylElem(F2, (1,), (1,), [1.0, 1.0])
    assert not h.close(other)


def test_inner_sums_over_prefixes_fiberwise():
    idx = F2.path_index((2,))
    co = np.zeros(2, dtype=complex)
    co[idx[path(F2, (2,), "ab")]] = 2.0
    co[idx[path(F2, (2,), "ba")]] = 3.0j
    f = CylElem(F2, (1,), (2,), co)
    ip = y_inner(f, f)
    assert ip.module_degree == (0,) and ip.depth == (1,)
    i1 = F2.path_index((1,))
    assert ip.coeffs[i1[path(F2, (1,), "b")]] == pytest.approx(4.0)
    assert ip.coeffs[i1[path(F2, (1,), "a")]] == pytest.approx(9.0)


def test_inner_conjugate_linear_in_first_slot():
    rng = np.random.default_rng(5)
    f = rng_y(F2, (1,), (2,), rng)
    g = rng_y(F2, (1,), (2,), rng)
    assert y_inner(1j * f, g).close(-1j * y_inner(f, g))
    assert y_inner(f, 1j * g).close(1j * y_inner(f, g))


def test_inner_positive_on_diagonal():
    rng = np.random.default_rng(6)
    f = rng_y(SV, (1, 0), (2, 1), rng)
    ip = y_inner(f, f)
    assert np.all(np.abs(ip.coeffs.imag) < 1e-12)
    assert np.all(ip.coeffs.real >= 0)


def test_inner_commutes_with_lifting():
    rng = np.random.default_rng(7)
    f = rng_y(SV, (1, 0), (1, 1), rng)
    g = rng_y(SV, (1, 0), (1, 1), rng)
    deep = y_inner(y_lift(f, (2, 1)), y_lift(g, (2, 1)))
    assert y_inner(f, g).close(deep)


def test_shift_pullback_reads_the_tail():
    h = CylElem(F2, (0,), (1,), [5.0, 7.0])  # a, b
    up = shift_pullback(h, (1,))
    idx = F2.path_index((2,))
    assert up.coeffs[idx[path(F2, (2,), "ab")]] == 7.0  # tail is b
    assert up.coeffs[idx[path(F2, (2,), "ba")]] == 5.0
    with pytest.raises(DegreeMismatch):
        shift_pullback(CylElem(F2, (1,), (1,), [1, 1]), (1,))


def test_tmul_twists_by_the_factorization_phase():
    c = c_theta(F1, EIGHTH)
    f = alpha((0, 1), (0, 1), XElem.delta(F1, path(F1, (0, 1), "f")))
    g = alpha((1, 0), (1, 0), XElem.delta(F1, path(F1, (1, 0), "e")))
    prod = y_tmul(c, f, g)
    assert prod.module_degree == (1, 1) and prod.depth == (1, 1)
    assert prod.coeffs[0] == pytest.approx(complex(EIGHTH))


def test_tmul_depth_rule_and_lift_coherence():
    rng = np.random.default_rng(8)
    c = c_theta(F1, EIGHTH)
    f = rng_y(F1, (1, 0), (1, 1), rng)
    g = rng_y(F1, (0, 1), (0, 1), rng)
    prod = y_tmul(c, f, g)
    assert prod.depth == (1, 1)
    deeper = y_tmul(c, y_lift(f, (2, 1)), y_lift(g, (1, 1)))
    assert prod.close(deeper)


def test_alpha_requires_matching_degrees():
    f = rng_x(F2, (2,), np.random.default_rng(9))
    with pytest.raises(DegreeMismatch):
        alpha((1,), (1,), f)
    with pytest.raises(DegreeNotDominated):
        alpha((2,), (1,), rng_x(F2, (1,), np.random.default_rng(9)))


# Lemma-style compatibility of the inclusions with all module structure.


def test_left_action_intertwines():
    rng = np.random.default_rng(10)
    c = c_theta(F1, EIGHTH)
    a = XElem(F1, (0, 0), [2.0 + 1.0j])
    f = rng_x(F1, (1, 1), rng)
    lhs = alpha((1, 1), (1, 1), x_act(a, f, "left"))
    rhs = y_tmul(c, alpha((0, 0), (0, 0), a), alpha((1, 1), (1, 1), f))
    assert lhs.close(rhs)


def test_right_action_intertwines():
    rng = np.random.default_rng(11)
    c = c_theta(F1, EIGHTH)
    a = XElem(F1, (0, 0), [0.5 - 2.0j])
    f = rng_x(F1, (1, 1), rng)
    lhs = alpha((1, 1), (1, 1), x_act(a, f, "right"))
    rhs = y_tmul(c, alpha((1, 1), (1, 1), f), alpha((0, 0), (0, 0), a))
    assert lhs.close(rhs)


def test_inner_products_agree():
    rng = np.random.default_rng(12)
    f = rng_x(SV, (1, 1), rng)
    g = rng_x(SV, (1, 1), rng)
    lhs = y_inner(alpha((1, 1), (1, 1), f), alpha((1, 1), (1, 1), g))
    assert lhs.close(alpha((0, 0), (0, 0), x_inner(f, g)))


def test_products_agree():
    rng = np.random.default_rng(13)
    c = c_theta(SV, EIGHTH)
    f = rng_x(SV, (1, 0), rng)
    g = rng_x(SV, (0, 1), rng)
    lhs = alpha((1, 1), (1, 1), x_tmul(c, f, g))
    rhs = y_tmul(c, alpha((1, 0), (1, 0), f), alpha((0, 1), (0, 1), g))
    assert lhs.close(rhs)


def test_inclusions_are_injective():
    rng = np.random.default_rng(14)
    f = rng_x(SV, (1, 0), rng)
    h = y_lift(alpha((1, 0), (1, 0), f), (2, 2))
    assert h.sup_norm() > 0
    z = alpha((1, 0), (1, 0), XElem.zeros(SV, (1, 0)))
    assert y_lift(z, (2, 2)).sup_norm() == 0


# Operators.


def test_tail_mask_flags_tail_mixing():
    mask = tail_off_block(F2, (1,), (2,))
    assert np.ones((2, 2))[mask].any()  # ab vs ba have different tails
    assert not np.diag([1.0, 2.0])[mask].any()


def test_tail_mask_flags_source_mixing_at_full_degree():
    assert np.ones((2, 2))[tail_off_block(F2, (2,), (2,))].any()  # sources of ab, ba differ


def test_yop_apply_commutes_with_lift():
    rng = np.random.default_rng(15)
    op = rng_yop(F2, (1,), (1,), rng)
    h = rng_y(F2, (1,), (1,), rng)
    direct = op(h)
    lifted = op.lift((3,))(y_lift(h, (2,)))
    assert direct.close(lifted)


def test_yop_algebra_commutes_with_lift():
    rng = np.random.default_rng(16)
    a = rng_yop(SV, (1, 0), (1, 0), rng)
    b = rng_yop(SV, (1, 0), (1, 1), rng)
    assert (a @ b).lift((2, 1)).close(a.lift((2, 1)) @ b.lift((2, 1)))
    assert a.adjoint().lift((2, 1)).close(a.lift((2, 1)).adjoint())
    assert (a + b).lift((2, 1)).close(a.lift((2, 1)) + b.lift((2, 1)))


def test_yop_norm_does_not_grow_under_lift():
    rng = np.random.default_rng(17)
    op = rng_yop(F2, (1,), (1,), rng)
    assert op.lift((3,)).norm() <= op.norm() + 1e-9


def test_theta_acts_as_inner_then_multiply():
    rng = np.random.default_rng(18)
    f = rng_y(F2, (1,), (2,), rng)
    g = rng_y(F2, (1,), (1,), rng)
    h = rng_y(F2, (1,), (2,), rng)
    got = y_theta(f, g)(h)
    want = y_tmul(trivial_cocycle(F2), f, y_inner(g, h))
    assert got.close(want)


def test_theta_adjoint_swaps_legs():
    rng = np.random.default_rng(19)
    f = rng_y(SV, (0, 1), (0, 1), rng)
    g = rng_y(SV, (0, 1), (0, 1), rng)
    assert y_theta(f, g).adjoint().close(y_theta(g, f))


def test_alpha_k_sends_rank_ones_to_rank_ones():
    rng = np.random.default_rng(20)
    f = rng_x(SV, (1, 0), rng)
    g = rng_x(SV, (1, 0), rng)
    got = alpha_k(x_theta(f, g))
    want = y_theta(alpha((1, 0), (1, 0), f), alpha((1, 0), (1, 0), g))
    assert got.close(want)


def test_alpha_k_is_multiplicative_and_isometric_at_base_depth():
    rng = np.random.default_rng(21)
    k1 = x_theta(rng_x(F2, (1,), rng), rng_x(F2, (1,), rng))
    k2 = x_theta(rng_x(F2, (1,), rng), rng_x(F2, (1,), rng))
    assert alpha_k(k1 @ k2).close(alpha_k(k1) @ alpha_k(k2))
    assert alpha_k(k1).norm() == pytest.approx(k1.norm())
    assert alpha_k(k1).lift((4,)).norm() <= k1.norm() + 1e-9


def test_phi_y_multiplies_pointwise():
    rng = np.random.default_rng(22)
    a = rng_y(F2, (0,), (1,), rng)
    h = rng_y(F2, (1,), (2,), rng)
    got = phi_y(a, (1,))(h)
    la_order = F2.paths((2,))
    lifted = y_lift(a, (2,))
    want = CylElem(F2, (1,), (2,), lifted.coeffs * h.coeffs)
    assert got.close(want) and len(la_order) == 2


def test_iota_at_degree_zero_is_the_left_action():
    rng = np.random.default_rng(23)
    c = c_theta(F1, EIGHTH)
    a = rng_y(F1, (0, 0), (1, 1), rng)
    diag = YOp(F1, (0, 0), (1, 1), np.diag(a.coeffs))
    assert y_iota(c, diag, (1, 0)).close(phi_y(a, (1, 0)))


def test_iota_defining_relation():
    # extending an operator must act as "apply, then append a tail"
    rng = np.random.default_rng(24)
    c = c_theta(SV, EIGHTH)
    m, n = (1, 0), (1, 1)
    S = rng_yop(SV, m, m, rng)
    y = rng_y(SV, m, m, rng)
    z = rng_y(SV, (0, 1), (0, 1), rng)
    lhs = y_iota(c, S, n)(y_tmul(c, y, z))
    rhs = y_tmul(c, S(y), z)
    assert lhs.close(rhs)


def test_iota_agrees_with_the_finite_path_extension():
    rng = np.random.default_rng(25)
    c = c_theta(SV, EIGHTH)
    K = x_theta(rng_x(SV, (1, 0), rng), rng_x(SV, (1, 0), rng))
    got = y_iota(c, alpha_k(K), (1, 1))
    want = alpha_k(x_iota(c, K, (1, 1)))
    assert got.close(want)


def test_compact_products_interchange_with_alpha_k():
    rng = np.random.default_rng(26)
    c = c_theta(F1, EIGHTH)
    m, n = (1, 0), (0, 1)
    S = x_theta(rng_x(F1, m, rng), rng_x(F1, m, rng))
    T = x_theta(rng_x(F1, n, rng), rng_x(F1, n, rng))
    lhs = alpha_k(x_compact_align(c, S, T))
    rhs = y_iota(c, alpha_k(S), (1, 1)) @ y_iota(c, alpha_k(T), (1, 1))
    assert lhs.close(rhs)


# Decompositions and density.


def test_phi_y_decompose_reproduces_the_action():
    a = CylElem(F2, (0,), (1,), [0.5, 2.0 + 1.0j])
    parts = phi_y_decompose(a, (1,))
    assert len(parts) == 2
    total = YOp.zeros(F2, (1,), (1,))
    for g in parts:
        total = total + y_theta(alpha((1,), (1,), g), alpha((1,), (1,), g.conj()))
    assert total.close(phi_y(a, (1,)))


def test_phi_y_decompose_empty_for_zero():
    assert phi_y_decompose(CylElem.zeros(F2, (0,), (1,)), (1,)) == []


def assert_split_identities(c, f, n, dec):
    """The reassembly alpha(n, m, f) = sum alpha(xi) . alpha_0(f_tilde) and the
    tail action phi(alpha_0(f_tilde)) = sum Theta(alpha(f_tilde), alpha(eta))."""
    g, m = f.graph, f.degree
    p = tuple(a - b for a, b in zip(m, n))
    zero = (0,) * g.k
    tail = alpha(zero, p, dec.f_tilde)
    rhs = CylElem.zeros(g, n, m)
    for xi in dec.xi:
        rhs = rhs + y_tmul(c, alpha(n, n, xi), tail)
    assert alpha(n, m, f).close(rhs)
    right = YOp.zeros(g, p, p)
    for eta in dec.eta:
        right = right + y_theta(alpha(p, p, dec.f_tilde), alpha(p, p, eta))
    assert phi_y(tail, p).close(right)


def supports(indicators):
    """The edges of the one path each section indicator is supported on."""
    out = []
    for x in indicators:
        (i,) = np.flatnonzero(x.coeffs)
        out.append(x.graph.paths(x.degree)[i].edges)
    return out


def test_alpha_decompose_point_mass():
    c = c_theta(F1, EIGHTH)
    la = path(F1, (1, 1), "ef")
    f = XElem.delta(F1, la)
    dec = alpha_decompose(f, (1, 0))
    assert supports(dec.xi) == [("e",)]
    assert supports(dec.eta) == [("f",)]
    assert dec.f_tilde.coeffs[0] == 1.0
    assert_split_identities(c, f, (1, 0), dec)


def test_alpha_decompose_two_disjoint_prefixes():
    c = trivial_cocycle(F2)
    f = XElem(F2, (2,), [2.0, 3.0j])
    dec = alpha_decompose(f, (1,))
    assert len(dec.xi) == 2 and len(dec.eta) == 2
    assert sorted(supports(dec.eta)) == [("a",), ("b",)]
    assert_split_identities(c, f, (1,), dec)


def test_alpha_decompose_rejects_clashing_sections():
    g = builtin_fixtures("single_vertex", k=1, edges=(2,))
    f = XElem(g, (1,), [1.0, 1.0])
    with pytest.raises(NotSectionDecomposable):
        alpha_decompose(f, (1,))
    with pytest.raises(NotSectionDecomposable):
        alpha_decompose(f, (0,))


def test_cylinder_density_counts_extensions():
    rep = cylinder_density_check(F2, [path(F2, (1,), "a")], (2,))
    assert rep.ok and rep.cases_checked == 1
    rep3 = cylinder_density_check(F2, [path(F2, (1,), "a")], (3,))
    assert rep3.ok and rep3.cases_checked == 1


def test_cylinder_density_rejects_non_sections():
    g = builtin_fixtures("single_vertex", k=1, edges=(2,))
    rep = cylinder_density_check(g, list(g.paths((1,))), (2,))
    assert not rep.ok and rep.first_failure[0] == "not-an-s-section"


def test_sup_norm_matches_module_norm_on_sections():
    idx = F2.path_index((2,))
    co = np.zeros(2, dtype=complex)
    co[idx[path(F2, (2,), "ab")]] = 3.0j
    f = CylElem(F2, (1,), (2,), co)
    rep = sup_norm_check(f, [path(F2, (1,), "a")])
    assert rep.ok
    assert f.sup_norm() == pytest.approx(3.0)
    assert f.norm() == pytest.approx(3.0)


def test_sup_norm_check_flags_support_violations():
    idx = F2.path_index((2,))
    co = np.ones(2, dtype=complex)
    f = CylElem(F2, (1,), (2,), co)
    rep = sup_norm_check(f, [path(F2, (1,), "a")])
    assert not rep.ok and rep.first_failure[0] == "support-outside-sections"
    assert idx  # order sanity used above
