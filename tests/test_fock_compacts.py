"""psi^(n), the Fock image of a compact, against the dense creation pairs.

`cp_identity_check` and `oracle.zeta_dense`, the dense route of
`zeta_surjectivity_check`, build every image of a compact with
`fock_compacts_x`.  Each call is recorded here and compared with the sum of
dense creation pairs C(g) C(h)* over the frame the paper writes: the
square-root singletons of phi_x and phi_y, and the tail sections of an
alpha decomposition.  `psi_check` compares Prop 5.1's two sides in
column-entry form; its cylinder side is compared here with the dense
`fock_compacts_y` it replaced.
"""

from fractions import Fraction

import numpy as np
import pytest

from kgt import degrees as dg
from kgt import fock
from kgt.cocycle import FLOAT, Coboundary, c_theta, trivial_cocycle
from kgt.constructions import crossed_product, identity_action
from kgt.fock import (
    FockSpace,
    cp_identity_check,
    creation_y,
    fock_compacts_y,
    psi_check,
    zeta_surjectivity_check,
)
from kgt.kgraph import fixture_f1, fixture_f2, single_vertex
from kgt.phases import Phase, parse_angle
from kgt.verify import SuiteConfig, _fock_caps, _rand_vertexfn, default_instances, run_suite
from kgt.xmod import XElem, arrays_close, phi_x_decompose, x_theta
from kgt.ymod import CylElem, alpha, alpha_decompose, alpha_k, phi_y_decompose
from oracle import creation_pairs, zeta_dense

TOL = 1e-12


@pytest.fixture
def images(monkeypatch):
    """Every operator fock_compacts_x returns, in call order."""
    seen = []
    real = fock.fock_compacts_x

    def record(space, c, S):
        out = real(space, c, S)
        seen.append(out)
        return out

    monkeypatch.setattr(fock, "fock_compacts_x", record)
    return seen


def frame_pairs(frame):
    return [(g, g.conj()) for g in frame]


def assert_close(got, want, where):
    assert arrays_close(got.matrix, want.matrix, TOL), where


def test_covariance_images_agree_with_the_creation_pairs(images):
    cfg = SuiteConfig(degree_entry_cap=1)
    rng = np.random.default_rng(5)
    zeta_seen = 0
    for inst in default_instances(cfg):
        g, c = inst.graph, inst.cocycle
        N, D = _fock_caps(g, cfg, inst)
        sy = FockSpace(g, N, depth=D)
        degrees = [dg.unit(g.k, 1), N] if any(N) else [N]

        a = _rand_vertexfn(g, rng)
        psi0 = creation_y(sy, c, CylElem.from_vertex_fn(a))
        for n in degrees:
            images.clear()
            assert cp_identity_check(sy, c, a, n).ok, (inst.label, n)
            (image,) = images
            want = creation_pairs(sy, c, frame_pairs(phi_x_decompose(a, n))) - psi0
            assert_close(image - psi0, want, (inst.label, "cp-identity", n))

        if not g.is_source_free()[0] or not dg.leq(dg.sub(D, N), N):
            continue
        zeta_seen += 1
        for n in degrees:
            assert zeta_surjectivity_check(sy, c, n).ok, (inst.label, n)
            images.clear()
            assert zeta_dense(sy, c, n).ok, (inst.label, n)
            depth = sy.block_depth(n)
            p = dg.sub(depth, n)
            paths = g.paths(depth)
            assert len(images) == 2 * len(paths)
            for la, inner_sum, compacts in zip(paths, images[::2], images[1::2]):
                dec = alpha_decompose(XElem.delta(g, la), n)
                want = creation_pairs(sy, c, [(dec.f_tilde, eta) for eta in dec.eta])
                assert_close(inner_sum, want, (inst.label, "inner-sum", la))
                tail = alpha(dg.zero(g.k), p, dec.f_tilde)
                psi0_tail = creation_y(sy, c, tail)
                want = creation_pairs(sy, c, frame_pairs(phi_y_decompose(tail, p))) - psi0_tail
                assert_close(compacts - psi0_tail, want, (inst.label, "defect", la))
    assert zeta_seen


def _float_coboundary(g):
    """The float coboundary of a path function that is not a product of
    edge phases, so that c(a, mu) conj(c(b, mu)) varies with the paths: the
    degree-only and edge-product cocycles make it 1 whenever d(a) = d(b)."""
    return Coboundary(g, lambda la: parse_angle(0.3 + 0.7 * g.path_index(la.degree)[la] ** 2)).delta(FLOAT)


def _cylinder_subjects():
    """(graph, cocycle) on F1, F2, single_vertex(2, (2, 2)) and a crossed
    product of F2, each with the trivial cocycle, c_theta (at rank 2) and a
    float coboundary."""
    f2 = fixture_f2()
    for g in (fixture_f1(), f2, single_vertex(2, (2, 2)), crossed_product(f2, identity_action(f2, 1), (3,))):
        yield g, trivial_cocycle(g)
        if g.k == 2:
            yield g, c_theta(g, Phase.from_turns(Fraction(1, 7)))
        yield g, _float_coboundary(g)


def test_cylinder_rank_ones_are_the_dense_cylinder_compacts():
    """On every pair (a, b) of every degree m, at D = N and at D > N, the
    column-entry cylinder side of Prop 5.1 is fock_compacts_y of
    alpha_k(x_theta(delta_a, delta_b)) on interior(m): the same entries,
    and the same values up to the rounding of one complex product (the
    dense side multiplies with numpy's complex loop, which may fuse
    multiply-adds).  N = (2, ..., 2) puts every degree m <= (1, ..., 1) in
    its own interior."""
    for g, c in _cylinder_subjects():
        N = (2,) * g.k
        for D in (N, (3,) * g.k):
            space = FockSpace(g, N, D)
            for m in space.blocks:
                inside = space.interior_mask(m)
                size = len(g.paths(m))
                a, b = (ix.ravel() for ix in np.indices((size, size)))
                rows, phases = fock._cylinder_rank_ones(space, c, m, a, b)
                assert (rows[:, ~inside] == -1).all()
                for p in range(len(a)):
                    S = x_theta(XElem.delta(g, g.paths(m)[a[p]]), XElem.delta(g, g.paths(m)[b[p]]))
                    want = fock_compacts_y(space, c, alpha_k(S)).matrix[:, inside]
                    got = np.zeros((space.dim, space.dim), dtype=np.complex128)
                    (cols,) = np.nonzero(rows[p] >= 0)
                    got[rows[p][cols], cols] = phases[p][cols]
                    where = (c.name, D, m, a[p], b[p])
                    assert np.array_equal(got[:, inside] != 0, want != 0), where
                    assert arrays_close(got[:, inside], want, 1e-15), where


def test_psi_check_builds_no_dense_cylinder_compacts(monkeypatch):
    def refuse(*args):
        raise AssertionError("psi_check built a dense cylinder compact")

    monkeypatch.setattr(fock, "fock_compacts_y", refuse)
    monkeypatch.setattr(fock, "y_iota", refuse)
    F2 = fixture_f2()
    assert psi_check(FockSpace(F2, (2,), (3,)), trivial_cocycle(F2)).cases_checked == 43
    F1 = fixture_f1()
    assert psi_check(FockSpace(F1, (2, 2), (3, 3)), c_theta(F1, Phase.from_turns(Fraction(1, 7)))).ok


def test_cp_identity_is_exact_at_tolerance_zero():
    """fock_compacts_x and y_iota round every complex product as
    xmod.times does, so on F1/delta(rand-b) at cap 2 the two covariance
    defects agree bit for bit; with numpy's complex loop in y_iota they
    differed by 3.1e-17 at degree (1, 0)."""
    cfg = SuiteConfig(seed=0, degree_entry_cap=2, tolerance=0)
    insts = [inst for inst in default_instances(cfg) if inst.label == "F1/delta(rand-b)"]
    (result,) = run_suite("eq-for-cp-covariance-of-zeta", cfg, instances=insts).results
    assert result.status == "pass", result.witness
