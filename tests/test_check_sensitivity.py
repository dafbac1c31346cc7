"""Each row corrupts the layer a registry check is about and asserts the
witness the check then reports; a check whose row passes can fail."""

import dataclasses

import pytest

from kgt import fock
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


@pytest.fixture
def bent_cylinder_compacts(monkeypatch):
    """fock_compacts_y with its block at the operator's own degree scaled by 1 + 1e-6."""
    real = fock.fock_compacts_y

    def bent(space, c, S):
        out = real(space, c, S)
        sl = space.block_slice(S.module_degree)
        out.matrix[sl, sl] *= 1 + 1e-6
        return out

    monkeypatch.setattr(fock, "fock_compacts_y", bent)


def test_cp_covariance_sees_the_cylinder_compacts(bent_cylinder_compacts):
    # at cap 2 the truncation N = (2,) holds the block (1,) in interior((1,))
    assert witness("eq-for-cp-covariance-of-zeta", 2) == ("cp-identity", (1,), None)


def test_prop_5_1_sees_the_cylinder_compacts(bent_cylinder_compacts):
    label, pair, _ = witness("prop-5.1", 1)
    assert label == "psi-compacts"  # so psi-multiplicative passed
    assert len(pair) == 2


def test_zeta_surjectivity_sees_the_tail_function(monkeypatch):
    real = fock.alpha_decompose

    def doubled(f, n):
        dec = real(f, n)
        return dataclasses.replace(dec, f_tilde=dec.f_tilde * 2.0)

    monkeypatch.setattr(fock, "alpha_decompose", doubled)
    label, la, _ = witness("zeta-surjectivity", 1)
    assert label == "operator"
    assert la in F2.paths(la.degree)
