"""Creation operators and Y twists read off Cocycle.twist, against the
per-element definitions.

`creation_x`, `creation_y`, `y_tmul` and `y_iota` read c from the cached
twist tables.  The functions below are the definitions they replaced: they
call c once per entry.  The arithmetic is the same, so the results must agree
bit for bit, zero signs included, wherever the point table behind a creation
can be built; a creation refuses exactly when its table does.
"""

from fractions import Fraction

import numpy as np
import pytest

from kgt import degrees as dg
from kgt import fock
from kgt.cocycle import c_theta, from_table, tabulate
from kgt.errors import CapTooSmallForRequestedDegree
from kgt.fock import FockSpace, creation_x, creation_y
from kgt.kgraph import fixture_f1, omega
from kgt.phases import Phase
from kgt.verify import SuiteConfig, _fock_caps, default_instances
from kgt.xmod import XElem, times
from kgt.ymod import CylElem, YOp, alpha, y_iota, y_tmul

F1 = fixture_f1()


def creation_x_by_entries(space, c, f):
    g = space.graph
    d = f.degree
    M = np.zeros((space.dim, space.dim), dtype=np.complex128)
    pd = g.paths(d)
    for q in space.blocks:
        t = dg.add(q, d)
        if not dg.leq(t, space.N):
            continue
        pre, suf = g.factor_indices(d, q)
        pq = g.paths(q)
        rows = space.block_slice(t).start
        cols = space.block_slice(q).start
        for i in range(len(pre)):
            w = f.coeffs[pre[i]]
            if w != 0:
                M[rows + i, cols + suf[i]] = complex(c(pd[pre[i]], pq[suf[i]])) * w
    return M


def creation_y_by_entries(space, c, h):
    g = space.graph
    d = h.module_degree
    M = np.zeros((space.dim, space.dim), dtype=np.complex128)
    pd = g.paths(d)
    for q in space.blocks:
        t = dg.add(q, d)
        if not dg.leq(t, space.N):
            continue
        Dq = space.block_depth(q)
        Dt = space.block_depth(t)
        pre_d, suf_d = g.factor_indices(d, Dq)
        pre_h, _ = g.factor_indices(h.depth, dg.sub(Dt, h.depth))
        tail_pre, _ = g.factor_indices(q, dg.sub(Dq, q))
        pq = g.paths(q)
        rows = space.block_slice(t).start
        cols = space.block_slice(q).start
        for i in range(len(pre_d)):
            w = h.coeffs[pre_h[i]]
            if w != 0:
                tw = complex(c(pd[pre_d[i]], pq[tail_pre[suf_d[i]]]))
                M[rows + i, cols + suf_d[i]] = tw * w
    return M


def y_tmul_twist_by_entries(c, m, n, depth):
    """c(x(0, m), x(m, m+n)) for every x in Lambda^depth."""
    g = c.graph
    pre_m, suf_m = g.factor_indices(m, dg.sub(depth, m))
    tail_pre_n, _ = g.factor_indices(n, dg.sub(dg.sub(depth, m), n))
    pm, pn = g.paths(m), g.paths(n)
    return np.array(
        [complex(c(pm[pre_m[i]], pn[tail_pre_n[suf_m[i]]])) for i in range(len(g.paths(depth)))],
        dtype=np.complex128,
    )


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def coefficient_vectors(size, rng):
    """Point masses, plus random vectors with some exact zeros."""
    for i in range(size):
        yield np.eye(size, dtype=np.complex128)[i]
    w = rng.normal(size=size) + 1j * rng.normal(size=size)
    w[rng.random(size) < 0.4] = 0
    yield w
    yield np.zeros(size, dtype=np.complex128)


def instances():
    return default_instances(SuiteConfig(seed=3, graphs=3, cocycles=1, degree_entry_cap=1))


def test_creation_x_matches_entries():
    rng = np.random.default_rng(0)
    for inst in instances():
        g, c = inst.graph, inst.cocycle
        space = FockSpace(g, (1,) * g.k)
        for n in space.blocks:
            for coeffs in coefficient_vectors(len(g.paths(n)), rng):
                f = XElem(g, n, coeffs)
                want = creation_x_by_entries(space, c, f)
                for _ in range(2):  # the second call reads the cached table
                    assert same_bits(creation_x(space, c, f).matrix, want), inst.label


def test_x_creation_is_the_cylinder_creation_at_depth_n():
    """The X model is the Y model at working depth D = N: creation by f in
    X_d equals creation by alpha(d, d, f), bit for bit, over the default
    battery."""
    rng = np.random.default_rng(2)
    for inst in default_instances(SuiteConfig(degree_entry_cap=1)):
        g, c = inst.graph, inst.cocycle
        N = (1,) * g.k
        sx, sy = FockSpace(g, N), FockSpace(g, N, depth=N)
        assert sx.basis() == sy.basis(), inst.label
        for d in sx.blocks:
            for coeffs in coefficient_vectors(len(g.paths(d)), rng):
                f = XElem(g, d, coeffs)
                got = creation_x(sx, c, f).matrix
                assert same_bits(got, creation_y(sy, c, alpha(d, d, f)).matrix), (inst.label, d)


def test_x_creation_on_a_deeper_space_is_the_cylinder_creation():
    """On a space with D > N, creation_x is the canonical map X_d -> L(F_Y):
    it equals creation by alpha(d, d, f), bit for bit, over the cap-1
    default battery at the suite's (N, D)."""
    rng = np.random.default_rng(4)
    cfg = SuiteConfig(degree_entry_cap=1)
    deeper = 0
    for inst in default_instances(cfg):
        g, c = inst.graph, inst.cocycle
        N, D = _fock_caps(g, cfg, inst)
        if D == N:
            continue
        deeper += 1
        space = FockSpace(g, N, D)
        for d in space.blocks:
            for coeffs in coefficient_vectors(len(g.paths(d)), rng):
                f = XElem(g, d, coeffs)
                got = creation_x(space, c, f).matrix
                assert same_bits(got, creation_y(space, c, alpha(d, d, f)).matrix), (inst.label, d)
    assert deeper


def cylinder_depths(space, n):
    """Every depth between the module degree n and the block depth of n."""
    top = space.block_depth(n)
    return [p for p in dg.degrees_upto(top) if dg.leq(n, p)]


def test_creation_y_matches_entries():
    rng = np.random.default_rng(1)
    for inst in instances():
        g, c = inst.graph, inst.cocycle
        space = FockSpace(g, (1,) * g.k, depth=(2,) * g.k if g.k < 3 else (1,) * g.k)
        for n in space.blocks:
            for depth in cylinder_depths(space, n):
                for coeffs in coefficient_vectors(len(g.paths(depth)), rng):
                    h = CylElem(g, n, depth, coeffs)
                    want = creation_y_by_entries(space, c, h)
                    for _ in range(2):  # the second call reads the cached table
                        assert same_bits(creation_y(space, c, h).matrix, want), (inst.label, n, depth)


def test_y_tmul_and_y_iota_twists_match_entries():
    rng = np.random.default_rng(2)
    for inst in instances():
        g, c = inst.graph, inst.cocycle
        one = (1,) * g.k
        for m in dg.degrees_upto(one):
            for n in dg.degrees_upto(one):
                depth = dg.add(m, n)
                f = CylElem(g, m, m, rng.normal(size=len(g.paths(m))) + 0j)
                h = CylElem(g, n, n, rng.normal(size=len(g.paths(n))) + 0j)
                twist = y_tmul_twist_by_entries(c, m, n, depth)
                want = twist * f.coeffs[g.factor_indices(m, n)[0]] * h.coeffs[g.factor_indices(m, n)[1]]
                assert same_bits(y_tmul(c, f, h).coeffs, want), inst.label

                # y_iota from Y_m to Y_(m+n), at working depth m+n
                _, tails = g.factor_indices(m, dg.zero(g.k))
                S = YOp(g, m, m, rng.normal(size=(tails.size,) * 2) * (tails[:, None] == tails) + 0j)
                mat = times(S.lift(depth).matrix, times(twist[:, None], np.conj(twist)))  # y_iota's rounding
                assert same_bits(y_iota(c, S, depth).matrix, mat), inst.label


def short_table():
    """An F1 table cocycle stored only up to degree (1, 1)."""
    c = c_theta(F1, Phase.from_turns(Fraction(1, 8)))
    return from_table(F1, tabulate(c, (1, 1)), (1, 1))


def raised(build, *args):
    """(type, message) of the error build(*args) raises, or None."""
    try:
        build(*args)
    except CapTooSmallForRequestedDegree as err:
        return type(err), str(err)
    return None


def assert_creation_fails_as_its_table(space, c, x, table_err):
    """A creation raises exactly the error its point table raises, whatever
    its coefficients; where it does not raise, it is the entry oracle's
    creation, bit for bit."""
    if isinstance(x, XElem):
        create, by_entries = creation_x, creation_x_by_entries
    else:
        create, by_entries = creation_y, creation_y_by_entries
    for _ in range(2):  # the second call reads the cached table
        assert raised(create, space, c, x) == table_err, x.coeffs
    oracle_err = raised(by_entries, space, c, x)
    assert table_err is not None or oracle_err is None  # every refusal of the oracle is kept
    if table_err is None:
        assert same_bits(create(space, c, x).matrix, by_entries(space, c, x))


def test_short_table_fails_alike():
    """A creation asks the cocycle for every block of its shift: past the
    table's cap, the point mass and the zero element both raise."""
    c = short_table()
    space = FockSpace(F1, (2, 2))
    e = XElem.delta(F1, F1.edge_path("e"))
    err = raised(fock._point_table, space, c, e.degree, e.degree)
    assert err is not None
    with pytest.raises(CapTooSmallForRequestedDegree):
        creation_x_by_entries(space, c, e)
    for f in (e, XElem.zeros(F1, e.degree)):
        assert_creation_fails_as_its_table(space, c, f, err)

    yspace = FockSpace(F1, (2, 2), depth=(2, 2))
    h = CylElem.delta(F1, F1.edge_path("e"))
    err = raised(fock._point_table, yspace, c, h.module_degree, h.depth)
    assert err is not None
    with pytest.raises(CapTooSmallForRequestedDegree):
        creation_y_by_entries(yspace, c, h)
    for x in (h, CylElem.zeros(F1, h.module_degree, h.depth)):
        assert_creation_fails_as_its_table(yspace, c, x, err)


def test_short_table_on_a_graph_with_sources():
    """On omega(2, (1, 1)) some point tables reach past the table cocycle's
    cap and some do not; a creation raises exactly when its table does, for
    every coefficient vector, the zero vector included."""
    g = omega(2, (1, 1))
    c = from_table(g, tabulate(c_theta(g, Phase.from_turns(Fraction(1, 8))), (1, 0)), (1, 0))

    def vectors(size):
        return [*np.eye(size, dtype=np.complex128), np.ones(size, dtype=np.complex128), np.zeros(size)]

    outcomes = set()
    for N, D in (((1, 1), (1, 1)), ((1, 0), (1, 1)), ((0, 1), (1, 1))):
        space = FockSpace(g, N, depth=D)
        for n in space.blocks:
            for depth in cylinder_depths(space, n):
                err = raised(fock._point_table, space, c, n, depth)
                for coeffs in vectors(len(g.paths(depth))):
                    assert_creation_fails_as_its_table(space, c, CylElem(g, n, depth, coeffs), err)
                outcomes.add(err is None)
    xspace = FockSpace(g, (1, 1))
    for n in xspace.blocks:
        err = raised(fock._point_table, xspace, c, n, n)
        for coeffs in vectors(len(g.paths(n))):
            assert_creation_fails_as_its_table(xspace, c, XElem(g, n, coeffs), err)
        outcomes.add(err is None)
    assert outcomes == {True, False}  # both outcomes are exercised
