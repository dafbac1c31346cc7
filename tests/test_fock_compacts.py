"""psi^(n), the Fock image of a compact, against the dense creation pairs.

`cp_identity_check` and `zeta_surjectivity_check` build every image of a
compact with `fock_compacts_x`.  Each call is recorded here and compared with
the sum of dense creation pairs C(g) C(h)* over the frame the paper writes:
the square-root singletons of phi_x and phi_y, and the tail sections of an
alpha decomposition.
"""

import numpy as np
import pytest

from kgt import degrees as dg
from kgt import fock
from kgt.fock import FockSpace, cp_identity_check, creation_y, zeta_surjectivity_check
from kgt.verify import SuiteConfig, _fock_caps, _rand_vertexfn, default_instances
from kgt.xmod import XElem, arrays_close, phi_x_decompose
from kgt.ymod import CylElem, alpha, alpha_decompose, phi_y_decompose
from oracle import creation_pairs

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
            images.clear()
            assert zeta_surjectivity_check(sy, c, n).ok, (inst.label, n)
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
