"""Finite-path module fibers: inner products, twisted products, compacts."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from kgt import degrees as dg
from kgt.cocycle import c_theta, trivial_cocycle
from kgt.errors import DegreeMismatch, DegreeNotDominated
from kgt.fock import FockSpace, cp_identity_check
from kgt.kgraph import fixture_f1, fixture_f2
from kgt.phases import Phase
from kgt.verify import SuiteConfig, default_instances
from kgt.xmod import (
    XElem,
    XOp,
    phi_x,
    phi_x_decompose,
    x_act,
    x_compact_align,
    x_inner,
    x_iota,
    x_tensor_iso_check,
    x_tmul,
    x_theta,
)
from oracle import source_off_block

F1 = fixture_f1()
F2 = fixture_f2()
QUARTER = Phase.from_turns(Fraction(1, 4))

DA = XElem.delta(F2, F2.edge_path("a"))
DB = XElem.delta(F2, F2.edge_path("b"))
DE = XElem.delta(F1, F1.edge_path("e"))
DF = XElem.delta(F1, F1.edge_path("f"))


def rng_elem(g, degree, seed):
    r = np.random.default_rng(seed)
    size = len(g.paths(degree))
    return XElem(g, degree, r.normal(size=size) + 1j * r.normal(size=size))


# -- inner product and actions -----------------------------------------------


def test_inner_of_point_masses():
    got = x_inner(DA, DA)
    assert got.degree == (0,)
    assert got.close(XElem.delta(F2, F2.vertex_path("v")), tol=0.0)
    assert x_inner(DA, DB).close(XElem.zeros(F2, (0,)), tol=0.0)


def test_inner_requires_matching_degree():
    with pytest.raises(DegreeMismatch):
        x_inner(DA, XElem.delta(F2, F2.paths((2,))[0]))


def test_inner_conjugate_linear_in_first_slot():
    f = rng_elem(F2, (2,), 1)
    g = rng_elem(F2, (2,), 2)
    lhs = x_inner(2j * f, g)
    rhs = x_inner(f, g) * (-2j)
    assert lhs.close(rhs)


def test_inner_positive():
    f = rng_elem(F2, (3,), 3)
    vals = x_inner(f, f).coeffs
    assert np.all(vals.real >= 0) and np.allclose(vals.imag, 0)


def test_hermitian_symmetry_and_right_linearity():
    f = rng_elem(F2, (2,), 4)
    g = rng_elem(F2, (2,), 5)
    assert x_inner(f, g).conj().close(x_inner(g, f))
    a = XElem(F2, (0,), [0.5, -2.0])
    lhs = x_inner(f, x_act(a, g, side="right"))
    rhs = XElem(F2, (0,), x_inner(f, g).coeffs * a.coeffs)
    assert lhs.close(rhs)


def test_left_action_reads_range():
    u = XElem.delta(F2, F2.vertex_path("u"))
    assert x_act(u, DA, side="left").close(DA, tol=0.0)
    assert x_act(u, DA, side="right").close(XElem.zeros(F2, (1,)), tol=0.0)
    ones = XElem(F2, (0,), np.ones(2))
    f = rng_elem(F2, (2,), 6)
    assert x_act(ones, f, side="left").close(f, tol=0.0)


# -- twisted multiplication --------------------------------------------------


def test_tmul_untwisted_concatenates():
    c = trivial_cocycle(F2)
    ab = F2.compose(F2.edge_path("a"), F2.edge_path("b"))
    assert x_tmul(c, DA, DB).close(XElem.delta(F2, ab), tol=0.0)


def test_tmul_picks_up_the_twist():
    c = c_theta(F1, QUARTER)
    p = F1.paths((1, 1))[0]
    ef = XElem.delta(F1, p)
    assert x_tmul(c, DE, DF).close(ef, tol=0.0)
    got = x_tmul(c, DF, DE)
    assert got.close(1j * ef, tol=1e-15)


def test_tmul_degree_zero_is_left_action():
    c = trivial_cocycle(F2)
    a = XElem(F2, (0,), [0.3, 1.7])
    f = rng_elem(F2, (2,), 7)
    assert x_tmul(c, a, f).close(x_act(a, f, side="left"))


def test_twisted_associativity_on_basis():
    c = c_theta(F1, Phase.exact_radians(Fraction(1)))
    for f in [DE, DF]:
        for gdeg in [(1, 0), (0, 1)]:
            for g_ in [XElem.delta(F1, p) for p in F1.paths(gdeg)]:
                for h in [XElem.delta(F1, p) for p in F1.paths((1, 1))]:
                    lhs = x_tmul(c, x_tmul(c, f, g_), h)
                    rhs = x_tmul(c, f, x_tmul(c, g_, h))
                    assert lhs.close(rhs, tol=1e-12)


# -- rank-one operators and embeddings ---------------------------------------


def test_theta_point_mass_matrix():
    op = x_theta(DA, DA)
    expect = np.zeros((2, 2))
    ia = F2.path_index((1,))[F2.edge_path("a")]
    expect[ia, ia] = 1
    assert np.allclose(op.matrix, expect)
    assert np.allclose(x_theta(DA, DB).matrix, 0)  # different sources
    assert np.allclose(x_theta(DA, XElem.zeros(F2, (1,))).matrix, 0)


def test_theta_adjoint_law():
    f = rng_elem(F2, (2,), 8)
    g = rng_elem(F2, (2,), 9)
    h = rng_elem(F2, (2,), 10)
    k = rng_elem(F2, (2,), 11)
    lhs = x_inner(x_theta(f, g)(h), k)
    rhs = x_inner(h, x_theta(g, f)(k))
    assert lhs.close(rhs)


def test_source_mask_flags_a_matrix_across_source_blocks():
    # the sources of a and b differ, so only the diagonal is in a block
    mask = source_off_block(F2, (1,))
    assert np.ones((2, 2))[mask].any()
    assert not np.eye(2)[mask].any()


def test_iota_of_identity_is_identity():
    c = c_theta(F1, QUARTER)
    got = x_iota(c, XOp.identity(F1, (1, 0)), (1, 1))
    assert got.close(XOp.identity(F1, (1, 1)), tol=0.0)


def test_iota_degree_domination_checked():
    c = trivial_cocycle(F1)
    with pytest.raises(DegreeNotDominated):
        x_iota(c, XOp.identity(F1, (1, 1)), (1, 0))


def test_iota_from_degree_zero_is_phi():
    c = c_theta(F1, QUARTER)
    a = XElem(F1, (0, 0), [0.7])
    S = XOp(F1, (0, 0), np.diag(a.coeffs))
    assert x_iota(c, S, (2, 1)).close(phi_x(a, (2, 1)), tol=0.0)


def test_iota_satisfies_defining_relation():
    # iota(S)(x y) = (S x) y for every basis pair, the relation that defines it
    c = c_theta(F1, Phase.exact_radians(Fraction(1)))
    r = np.random.default_rng(12)
    m, n = (1, 0), (1, 1)
    S = XOp(F1, m, np.diag(r.normal(size=len(F1.paths(m)))))
    emb = x_iota(c, S, n)
    for x in [XElem.delta(F1, p) for p in F1.paths(m)]:
        for y in [XElem.delta(F1, p) for p in F1.paths(dg_sub(n, m))]:
            assert emb(x_tmul(c, x, y)).close(x_tmul(c, S(x), y), tol=1e-12)


def dg_sub(n, m):
    return tuple(a - b for a, b in zip(n, m))


def test_iota_functorial():
    c = c_theta(F1, QUARTER)
    S = x_theta(DE, DE)
    one_step = x_iota(c, S, (1, 1))
    two_step = x_iota(c, x_iota(c, S, (1, 0)), (1, 1))
    assert one_step.close(two_step, tol=0.0)
    assert one_step.close(x_iota(c, S, (1, 1)), tol=0.0)


def test_phi_examples():
    assert phi_x(XElem(F2, (0,), np.ones(2)), (1,)).close(XOp.identity(F2, (1,)), tol=0.0)
    got = phi_x(XElem.delta(F2, F2.vertex_path("u")), (1,))
    ia = F2.path_index((1,))[F2.edge_path("a")]
    expect = np.zeros((2, 2))
    expect[ia, ia] = 1
    assert np.allclose(got.matrix, expect)


def test_phi_injective_on_source_free_graph():
    for v in F2.vertices:
        assert not np.allclose(phi_x(XElem.delta(F2, F2.vertex_path(v)), (2,)).matrix, 0)


def test_phi_decompose_identity_on_f2():
    gs = phi_x_decompose(XElem(F2, (0,), np.ones(2)), (1,))
    assert len(gs) == 2
    total = x_theta(gs[0], gs[0].conj()) + x_theta(gs[1], gs[1].conj())
    assert total.close(XOp.identity(F2, (1,)), tol=0.0)


def test_phi_decompose_zero_and_singleton():
    assert phi_x_decompose(XElem.zeros(F1, (0, 0)), (1, 1)) == []
    gs = phi_x_decompose(XElem(F1, (0, 0), [0.25]), (1, 1))
    assert len(gs) == 1
    assert np.allclose(gs[0].coeffs, [0.5])


def test_phi_decompose_reproduces_phi_generally():
    a = XElem(F2, (0,), [0.3, 2.0])
    gs = phi_x_decompose(a, (2,))
    total = XOp.zeros(F2, (2,))
    for gi in gs:
        total = total + x_theta(gi, gi.conj())
    assert total.close(phi_x(a, (2,)), tol=1e-12)


@pytest.mark.parametrize("N", [(1,), (2,)])
def test_the_coefficient_algebra_is_x0_only(N):
    # A is X_0, read in vertex order; an element of degree e_1 is refused,
    # also where the covariance check compares nothing (N = (1,))
    space = FockSpace(F2, N)
    with pytest.raises(DegreeMismatch):
        x_act(DA, DB)
    with pytest.raises(DegreeMismatch):
        phi_x(DA, (1,))
    with pytest.raises(DegreeMismatch):
        phi_x_decompose(DA, (1,))
    with pytest.raises(DegreeMismatch):
        cp_identity_check(space, trivial_cocycle(F2), DA, (1,))


def test_compact_align_examples():
    c = c_theta(F1, QUARTER)
    I1 = XOp.identity(F1, (1, 0))
    I2 = XOp.identity(F1, (0, 1))
    assert x_compact_align(c, I1, I2).close(XOp.identity(F1, (1, 1)), tol=0.0)
    # same degree: plain product
    S = x_theta(DE, DE)
    T = 0.5 * S
    assert x_compact_align(c, S, T).close(S @ T, tol=0.0)
    got = x_compact_align(c, x_theta(DE, DE), x_theta(DF, DF))
    assert np.allclose(got.matrix, [[1.0]])


# -- the two-step inner-product identity -------------------------------------


def test_tensor_iso_check_passes():
    assert x_tensor_iso_check(trivial_cocycle(F2), (1,), (2,)).ok
    assert x_tensor_iso_check(c_theta(F1, QUARTER), (1, 1), (1, 0)).ok
    rep = x_tensor_iso_check(c_theta(F1, Phase.exact_radians(Fraction(1))), (1, 0), (0, 1))
    assert rep.ok and rep.cases_checked > 0


def test_tensor_iso_check_catches_nonunitary_twist():
    class Corrupt:
        graph = F1

        def twist(self, m, n):
            # not unit modulus
            return SimpleNamespace(values=np.full(len(F1.paths(dg.add(m, n))), 2.0))

    rep = x_tensor_iso_check(Corrupt(), (1, 0), (0, 1))
    assert not rep.ok
    assert rep.first_failure[0] == "tps-inner-product"


def test_norms():
    f = XElem(F2, (1,), [3.0, 4.0])  # different source vertices
    assert f.norm() == pytest.approx(4.0)
    op = phi_x(XElem(F2, (0,), [2.0, -5.0]), (1,))
    assert op.norm() == pytest.approx(5.0)


# -- x_iota against the per-entry transport ------------------------------------


def x_iota_by_entries(c, S, n):
    """The definition x_iota replaced: for each column mu.nu, apply S to the
    prefix mu, re-multiply each image prefix with nu, and track the two
    cocycle phases, calling c once per entry."""
    g = S.graph
    m = S.degree
    diff = dg_sub(n, m)
    pm, pd = g.paths(m), g.paths(diff)
    pre, suf = g.factor_indices(m, diff)
    factors = list(zip(pre.tolist(), suf.tolist()))
    twist = [complex(c(pm[i], pd[j])) for i, j in factors]
    col_of = {pair: col for col, pair in enumerate(factors)}
    out = np.zeros((len(factors),) * 2, dtype=np.complex128)
    for col, (ip, isfx) in enumerate(factors):
        colvec = S.matrix[:, ip]
        nu = pd[isfx]
        for ip2 in np.nonzero(colvec)[0]:
            if pm[ip2].source != nu.range:
                continue
            row = col_of[(int(ip2), isfx)]
            out[row, col] = colvec[ip2] * twist[row] * np.conj(twist[col])
    return out


def test_iota_matches_the_per_entry_transport():
    rng = np.random.default_rng(5)
    for inst in default_instances(SuiteConfig()):
        g, c = inst.graph, inst.cocycle
        one = (1,) * g.k
        for m in dg.degrees_upto(one):
            sources = np.array([p.source for p in g.paths(m)])
            size = sources.size
            block = sources[:, None] == sources[None, :]
            S = XOp(g, m, (rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))) * block)
            for n in dg.degrees_upto(one):
                if dg.leq(m, n):
                    got = x_iota(c, S, n).matrix
                    assert np.allclose(got, x_iota_by_entries(c, S, n), atol=1e-12, rtol=0.0), inst.label
