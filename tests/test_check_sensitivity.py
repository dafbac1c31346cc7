"""Each row corrupts the layer a registry check is about and asserts the
witness the check then reports; a check whose row passes can fail."""

import dataclasses

import numpy as np
import pytest

from kgt import fock, verify, ymod
from kgt.cocycle import trivial_cocycle
from kgt.kgraph import fixture_f2
from kgt.verify import Instance, SuiteConfig, run_suite

F2 = fixture_f2()


def witness(check_id, cap):
    """The witness of check_id on F2 with the trivial cocycle at degree cap
    `cap`, asserting that the case fails."""
    inst = Instance("F2/trivial", F2, trivial_cocycle(F2))
    (result,) = run_suite(check_id, SuiteConfig(degree_entry_cap=cap), instances=[inst]).results
    assert result.status == "fail", result
    return result.witness


def bend_cylinder_rank_ones(monkeypatch, degrees):
    """The cylinder rank-ones, the cylinder side of Prop 5.1 and of the
    covariance identity, with their entries on the block of the operator's
    own degree m scaled by 1 + 1e-6, for m in `degrees`."""
    real = fock._cylinder_rank_ones

    def bent(space, c, m, a, b):
        t = real(space, c, m, a, b)
        if degrees(m):
            t.phase[:, space.block_slice(m)] *= 1 + 1e-6
        return t

    monkeypatch.setattr(fock, "_cylinder_rank_ones", bent)


@pytest.fixture
def bent_cylinder_compacts(monkeypatch):
    bend_cylinder_rank_ones(monkeypatch, lambda m: True)


def test_cp_covariance_sees_the_cylinder_compacts(bent_cylinder_compacts):
    # at cap 2 the truncation N = (2,) holds the block (1,) in interior((1,))
    assert witness("eq-for-cp-covariance-of-zeta", 2) == ("cp-identity", (1,), None)


def test_prop_5_1_sees_the_cylinder_compacts(monkeypatch):
    bend_cylinder_rank_ones(monkeypatch, lambda m: True)
    label, pair, _ = witness("prop-5.1", 1)
    assert label == "psi-compacts"  # so psi-multiplicative passed
    assert len(pair) == 2


def test_prop_5_1_sees_nonzero_degree_cylinder_compacts(monkeypatch):
    bend_cylinder_rank_ones(monkeypatch, any)
    # psi-compacts compares the degree-m compacts on interior(m), the blocks
    # q <= N - m, and they act only on the blocks q >= m; at cap 1, N = (1,)
    # and interior((1,)) is block 0, so only cap 2 sees a nonzero degree
    a = F2.edge_path("a")
    assert witness("prop-5.1", 2) == ("psi-compacts", (a, a), None)


def test_prop_5_1_sees_a_missing_cylinder_entry(monkeypatch):
    """A column the cylinder side leaves empty, where the point tables put an
    entry, fails."""
    real = fock._cylinder_rank_ones

    def dropped(space, c, m, a, b):
        t = real(space, c, m, a, b)
        t.target[:, space.block_slice(m)], t.phase[:, space.block_slice(m)] = -1, 0
        return t

    monkeypatch.setattr(fock, "_cylinder_rank_ones", dropped)
    u = F2.vertex_path(F2.vertices[0])
    assert witness("prop-5.1", 1) == ("psi-compacts", (u, u), None)


@pytest.fixture
def bent_point_tables(monkeypatch):
    """Point tables of every nonzero shift, with each entry whose source
    column lies in a nonzero block turned by the phase e^(0.1i)."""
    real = fock._point_table

    def bent(space, c, d, depth):
        t = real(space, c, d, depth)
        if not any(d):
            return t
        k, col = np.nonzero(t.target[:, :-1] >= 0)
        hit = space._deg[col].any(axis=1)
        phase = t.phase.copy()
        phase[k[hit], col[hit]] *= np.exp(0.1j)
        return t._replace(phase=phase)

    monkeypatch.setattr(fock, "_point_table", bent)


@pytest.mark.parametrize("cap", [1, 2])
def test_gauge_check_sees_creations_that_keep_their_block(monkeypatch, cap):
    """Point tables of every nonzero shift that map each entry's column to
    itself, so that no creation leaves its block and the gauge unitary
    conjugates it to itself, not to z^d times it."""
    real = fock._point_table

    def kept(space, c, d, depth):
        t = real(space, c, d, depth)
        if not any(d):
            return t
        k, col = np.nonzero(t.target[:, :-1] >= 0)
        target = t.target.copy()
        target[k, col] = col
        return t._replace(target=target)

    monkeypatch.setattr(fock, "_point_table", kept)
    assert witness("remark-4.6ii", cap) == ("degree-character", "X", (1,))


def test_generator_relations_see_the_point_tables(bent_point_tables):
    # at cap 1, N = (1,): no shift-(1,) entry has its source in a nonzero block
    w = witness("def-4.4", 2)
    assert w == ("finite-path-model", "multiplicativity", ((1,), (1,), 0, 1), None)


def test_sup_norm_check_sees_the_sup_norm(monkeypatch):
    real = ymod.CylElem.sup_norm
    monkeypatch.setattr(ymod.CylElem, "sup_norm", lambda f: real(f) * (1 + 1e-6))
    label, _, _ = witness("lemma-6.3", 1)
    assert label == "norms-differ"


def test_zeta_surjectivity_sees_the_tail_function(monkeypatch):
    real = fock.alpha_decompose

    def doubled(f, n):
        dec = real(f, n)
        return dataclasses.replace(dec, f_tilde=dec.f_tilde * 2.0)

    monkeypatch.setattr(fock, "alpha_decompose", doubled)
    label, la, _ = witness("zeta-surjectivity", 1)
    assert label == "operator"
    assert la in F2.paths(la.degree)


def test_edge_correspondences_see_a_nan_in_the_range_action(monkeypatch):
    real = verify.phi_x

    def nan_corner(a, n):
        out = real(a, n)
        out.matrix[0, 0] = np.nan
        return out

    monkeypatch.setattr(verify, "phi_x", nan_corner)
    # |NaN - x| > tol is false, so a per-entry test written that way passes a NaN
    label, p = witness("lemma-edge-correspondences", 1)
    assert label == "range-action"
    assert p == F2.paths(p.degree)[0]


def test_katsura_inner_product_sees_a_nan_at_its_first_vertex(monkeypatch):
    real = verify.x_inner

    def nan_first(f, g):
        out = real(f, g)
        out.coeffs[..., 0] = np.nan
        return out

    monkeypatch.setattr(verify, "x_inner", nan_first)
    # the NaN once passed the direct-sum and positivity tests, and was first
    # seen by conjugate symmetry
    assert witness("eq-katsura-inner-product", 1)[:2] == ("direct-sum", F2.vertices[0])
