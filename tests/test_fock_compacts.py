"""psi^(n), the Fock image of a compact, against the dense creation pairs.

`cp_identity_check` lists the entries of psi^(n)(phi_x(a, n)) from the
point tables, and `oracle.zeta_dense`, the dense route of
`zeta_surjectivity_check`, builds every image of a compact with the
oracle's `fock_compacts_x`.  Each is recorded here and compared with the
sum of dense creation pairs C(g) C(h)* over the frame the paper writes: the
square-root singletons of phi_x and phi_y, and the tail sections of an
alpha decomposition.  The cylinder side of both `cp_identity_check` and
`psi_check` is `fock._cylinder_rank_ones`, and it is compared with the
dense `fock_compacts_y` it replaced: per rank-one of `psi_check`, and
weighted by phi_y(a, n) as `cp_identity_check` lists it.
"""

from fractions import Fraction

import numpy as np
import pytest

import oracle
from kgt import degrees as dg
from kgt import fock, ymod
from kgt.cocycle import Coboundary, c_theta, trivial_cocycle
from kgt.constructions import crossed_product, identity_action
from kgt.fock import (
    FockSpace,
    cp_identity_check,
    creation_y,
    psi_check,
    zeta_surjectivity_check,
)
from kgt.kgraph import fixture_f1, fixture_f2, single_vertex
from kgt.phases import Phase, parse_angle
from kgt.verify import SuiteConfig, _fock_caps, _rand_xelem, default_instances, run_suite
from kgt.xmod import XElem, arrays_close, phi_x_decompose, x_theta
from kgt.ymod import alpha, alpha_decompose, alpha_k, phi_y, phi_y_decompose
from oracle import creation_pairs, fock_compacts_y, zeta_dense

TOL = 1e-12


def recorder(monkeypatch, module, name):
    """Every call of module.name, as its arguments and its result, in call
    order."""
    seen = []
    real = getattr(module, name)

    def record(*args):
        out = real(*args)
        seen.append((args, out))
        return out

    monkeypatch.setattr(module, name, record)
    return seen


def scatter(space, entries):
    """The dense sum of a list of entries (owner, column, row, value)."""
    _, col, row, value = entries
    M = np.zeros((space.dim, space.dim), dtype=np.complex128)
    np.add.at(M, (row, col), value)
    return M


def frame_pairs(frame):
    return [(g, g.conj()) for g in frame]


def assert_close(got, want, where):
    assert arrays_close(got.matrix, want.matrix, TOL), where


def test_covariance_images_agree_with_the_creation_pairs(monkeypatch):
    """The X side of cp_identity_check, scattered densely, is the sum of the
    creation pairs over phi_x's frame on interior(n), where it lists its
    entries, and that sum vanishes there when the check builds neither side;
    the images of zeta_dense are the sums over their frames.  The suite's
    covariance degrees build a side only from degree cap 2 on, so the X side
    is read at cap 2 and the images at cap 1."""
    sums = recorder(monkeypatch, fock, "_sums_close")
    images = recorder(monkeypatch, oracle, "fock_compacts_x")
    rng = np.random.default_rng(5)
    cfg = SuiteConfig(degree_entry_cap=2)
    cp_seen = 0
    for inst in default_instances(cfg):
        g, c = inst.graph, inst.cocycle
        N, D = _fock_caps(g, cfg, inst)
        sy = FockSpace(g, N, depth=D)
        a = _rand_xelem(g, dg.zero(g.k), rng)
        for n in [dg.unit(g.k, 1), N] if any(N) else [N]:
            sums.clear()
            assert cp_identity_check(sy, c, a, n).ok, (inst.label, n)
            inside = sy.interior_mask(n)
            want = creation_pairs(sy, c, frame_pairs(phi_x_decompose(a, n))).matrix[:, inside]
            if not sums:
                assert not want.any(), (inst.label, n)
                continue
            (((_, _, lhs, _, _), _),) = sums
            assert inside[lhs[1]].all(), (inst.label, n)
            assert arrays_close(scatter(sy, lhs)[:, inside], want, TOL), (inst.label, "cp-identity", n)
            cp_seen += 1
    assert cp_seen

    cfg = SuiteConfig(degree_entry_cap=1)
    zeta_seen = 0
    for inst in default_instances(cfg):
        g, c = inst.graph, inst.cocycle
        N, D = _fock_caps(g, cfg, inst)
        if not g.is_source_free()[0] or not dg.leq(dg.sub(D, N), N):
            continue
        sy = FockSpace(g, N, depth=D)
        zeta_seen += 1
        for n in [dg.unit(g.k, 1), N] if any(N) else [N]:
            assert zeta_surjectivity_check(sy, c, n).ok, (inst.label, n)
            images.clear()
            assert zeta_dense(sy, c, n).ok, (inst.label, n)
            depth = sy.block_depth(n)
            p = dg.sub(depth, n)
            paths = g.paths(depth)
            outs = [out for _, out in images]
            assert len(outs) == 2 * len(paths)
            for la, inner_sum, compacts in zip(paths, outs[::2], outs[1::2]):
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
    return Coboundary(g, lambda la: parse_angle(0.3 + 0.7 * g.path_index(la.degree)[la] ** 2)).delta()


def _cylinder_subjects():
    """(graph, cocycle) on F1, F2, single_vertex(2, (2, 2)) and a crossed
    product of F2, each with the trivial cocycle, c_theta (at rank 2) and a
    float coboundary."""
    f2 = fixture_f2()
    for g in (fixture_f1(), f2, single_vertex(2, (2, 2)), crossed_product(f2, identity_action(f2, 1))):
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
                assert (rows[:, -1] == -1).all() and (phases[:, -1] == 0).all()
                rows, phases = rows[:, :-1], phases[:, :-1]
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


def test_covariance_cylinder_side_is_the_dense_cylinder_compacts(monkeypatch):
    """On every degree n <= N, at D = N and at D > N, the cylinder entries
    that cp_identity_check compares, the cylinder rank-ones weighted by
    phi_y(a, n), are fock_compacts_y(phi_y(a, n)) bit for bit on
    interior(n), and none lies outside the blocks q >= n that interior(n)
    holds.  Where there are none, the check builds neither side."""
    sums = recorder(monkeypatch, fock, "_sums_close")
    rng = np.random.default_rng(11)
    for g, c in _cylinder_subjects():
        N = (2,) * g.k
        z = dg.zero(g.k)
        a = XElem(g, z, rng.normal(size=len(g.vertices)) + 1j * rng.normal(size=len(g.vertices)))
        for D in (N, (3,) * g.k):
            space = FockSpace(g, N, D)
            for n in space.blocks:
                where = (c.name, D, n)
                sums.clear()
                assert cp_identity_check(space, c, a, n).ok, where
                cols = fock._acted_on(space, n)
                if not cols.any():
                    assert not sums, where
                    continue
                (((_, _, _, entries, _), _),) = sums
                assert (entries[0] == 0).all() and cols[entries[1]].all(), where
                inside = space.interior_mask(n)
                want = fock_compacts_y(space, c, phi_y(alpha(z, z, a), n)).matrix[:, inside]
                assert np.array_equal(scatter(space, entries)[:, inside], want), where


def test_psi_check_builds_no_dense_cylinder_compacts(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Fock check built a dense cylinder compact")

    monkeypatch.setattr(oracle, "fock_compacts_y", refuse)
    monkeypatch.setattr(ymod, "y_iota", refuse)
    F2 = fixture_f2()
    space = FockSpace(F2, (2,), (3,))
    assert psi_check(space, trivial_cocycle(F2)).cases_checked == 43
    assert cp_identity_check(space, trivial_cocycle(F2), XElem(F2, (0,), [1.0, 2.0]), (1,)).ok
    F1 = fixture_f1()
    space = FockSpace(F1, (2, 2), (3, 3))
    c = c_theta(F1, Phase.from_turns(Fraction(1, 7)))
    assert psi_check(space, c).ok
    assert cp_identity_check(space, c, XElem(F1, (0, 0), [1.0 + 1j]), (1, 0)).ok


def test_cp_identity_is_exact_at_tolerance_zero():
    """The rank-one entries of the X side and the cylinder rank-ones round
    every complex product as xmod.times does, so on F1/delta(rand-b) at cap
    2 the two covariance defects agree bit for bit; with numpy's complex
    loop in ymod.y_iota, the cylinder side's earlier route, they differed by
    3.1e-17 at degree (1, 0)."""
    cfg = SuiteConfig(seed=0, degree_entry_cap=2, tolerance=0)
    insts = [inst for inst in default_instances(cfg) if inst.label == "F1/delta(rand-b)"]
    (result,) = run_suite("eq-for-cp-covariance-of-zeta", cfg, instances=insts).results
    assert result.status == "pass", result.witness
