"""Every module-layer route builds an operator in the block shape of its
fiber: XOp and YOp do not test that shape, so each route is checked here to
hold exactly 0 on the entries that the oracle masks `source_off_block` (X_n)
and `tail_off_block` (Y_n at a working depth) mark."""

import numpy as np

from kgt import degrees as dg
from kgt.verify import SuiteConfig, default_instances
from kgt.xmod import XElem, phi_x, x_compact_align, x_iota, x_theta
from kgt.ymod import CylElem, alpha_k, phi_y, y_iota, y_theta
from oracle import source_off_block, tail_off_block

INSTANCES = default_instances(SuiteConfig(cocycles=1, degree_entry_cap=1))


def rand(size, rng):
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def x_ops(g, c, rng):
    """Operators on X_m for every degree m <= (1, ..., 1): rank-ones, the
    left action, their sums, products and adjoints, and every iota and
    aligned product between two such degrees."""
    degrees = dg.degrees_upto((1,) * g.k)
    a = XElem(g, dg.zero(g.k), rand(len(g.vertices), rng))
    theta = {}
    for m in degrees:
        f, h, p, q = (XElem(g, m, rand(len(g.paths(m)), rng)) for _ in range(4))
        S, T = x_theta(f, h), x_theta(p, q)
        theta[m] = S + T
        yield from (S, phi_x(a, m), S + T, S - 2j * T, S @ T, (S @ phi_x(a, m)).adjoint())
    for m in degrees:
        for n in degrees:
            if dg.leq(m, n):
                yield x_iota(c, theta[m], n)
            yield x_compact_align(c, theta[m], theta[n])


def y_ops(g, c, rng):
    """Operators on Y_m for every degree m <= D = (1, ..., 1): rank-ones at
    depths m and D, lifts, the left action, alpha_k, their sums, products
    and adjoints, and every y_iota between two such degrees."""
    D = (1,) * g.k
    degrees = dg.degrees_upto(D)
    z = dg.zero(g.k)
    a = CylElem(g, z, z, rand(len(g.vertices), rng))
    theta = {}
    for m in degrees:
        f, h = (CylElem(g, m, D, rand(len(g.paths(D)), rng)) for _ in range(2))
        p, q = (CylElem(g, m, m, rand(len(g.paths(m)), rng)) for _ in range(2))
        S, T = y_theta(f, h), y_theta(p, q)
        K = alpha_k(x_theta(*(XElem(g, m, rand(len(g.paths(m)), rng)) for _ in range(2))))
        theta[m] = S + T
        yield from (S, T, T.lift(D), K, K.lift(D), phi_y(a, m), S + T, S - 2j * K, S @ T, (S @ phi_y(a, m)).adjoint())
    for m in degrees:
        for n in degrees:
            if dg.leq(m, n):
                yield y_iota(c, theta[m], n)


def test_every_route_builds_block_diagonal_operators():
    rng = np.random.default_rng(0)
    marked = held = 0
    for inst in INSTANCES:
        g, c = inst.graph, inst.cocycle
        for S in x_ops(g, c, rng):
            mask = source_off_block(g, S.degree)
            assert not S.matrix[mask].any(), (inst.label, S)
            marked, held = marked + mask.sum(), held + np.count_nonzero(S.matrix)
        for T in y_ops(g, c, rng):
            mask = tail_off_block(g, T.module_degree, T.depth)
            assert not T.matrix[mask].any(), (inst.label, T)
            marked, held = marked + mask.sum(), held + np.count_nonzero(T.matrix)
    assert marked and held  # the masks mark entries, and the operators are not all zero
