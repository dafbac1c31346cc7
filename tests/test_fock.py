import cmath
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgt import builtin_fixtures
from kgt import degrees as dg
from kgt import fock
from kgt.cocycle import Cocycle, c_theta, trivial_cocycle
from kgt.errors import DegreeExceedsTruncation, DegreeMismatch, DepthOverflow, FockSpaceTooLarge
from kgt.fock import (
    MAX_OP_BYTES,
    FockOp,
    FockSpace,
    ck_relations_check,
    cp_identity_check,
    creation_x,
    creation_y,
    gauge_check,
    nica_check,
    psi_check,
    rep_axioms_check,
    zeta_surjectivity_check,
)
from kgt.kgraph import omega, single_vertex
from kgt.phases import ONE, Phase
from kgt.verify import Instance, SuiteConfig, _fock_caps, default_instances, run_suite
from kgt.xmod import XElem, XOp, arrays_close, compare, x_theta
from kgt.ymod import CylElem, YOp, alpha, alpha_k
from oracle import fock_compacts_y, gauge_unitary, point_creations

F1 = builtin_fixtures("f1")
F2 = builtin_fixtures("f2")


def delta_x(g, n, edges):
    la = next(p for p in g.paths(n) if p.edges == tuple(edges))
    return XElem.delta(g, la)


def test_block_layout_and_interior():
    F = FockSpace(F1, (2, 2))
    assert F.dim == 9  # one path per degree
    mask = F.interior_mask((1, 1))
    degs = [d for (d, _p) in F.basis()]
    assert [tuple(d) for d, m in zip(degs, mask) if m] == [
        (0, 0), (0, 1), (1, 0), (1, 1)
    ]


def test_vertex_creation_projects_onto_range():
    F = FockSpace(F2, (2,))
    c = trivial_cocycle(F2)
    su = creation_x(F, c, XElem(F2, (0,), [1.0, 0.0]))
    diag = np.diag(su.matrix)
    for val, (_d, p) in zip(diag, F.basis()):
        assert val == (1.0 if p.range == "u" else 0.0)
    assert np.count_nonzero(su.matrix - np.diag(diag)) == 0


def test_creation_of_zero_is_zero():
    F = FockSpace(F2, (2,))
    z = creation_x(F, trivial_cocycle(F2), XElem.zeros(F2, (1,)))
    assert np.all(z.matrix == 0)


def test_creation_degree_cap():
    F = FockSpace(F2, (1,))
    with pytest.raises(DegreeExceedsTruncation):
        creation_x(F, trivial_cocycle(F2), XElem(F2, (2,), [1.0, 0.0]))


def test_torus_commutation_phase():
    theta = Phase.exact_radians(1)
    c = c_theta(F1, theta)
    F = FockSpace(F1, (3, 3))
    se = creation_x(F, c, delta_x(F1, (1, 0), "e"))
    sf = creation_x(F, c, delta_x(F1, (0, 1), "f"))
    lhs = (sf @ se).on_interior((1, 1))
    rhs = cmath.exp(1j) * (se @ sf).on_interior((1, 1))
    assert np.allclose(lhs, rhs, atol=1e-12)
    assert not np.allclose((sf @ se).on_interior((1, 1)), (se @ sf).on_interior((1, 1)), atol=1e-3)


def assert_block_shaped(op):
    """Every entry of op above 1e-12 maps a degree-q block into q + op.shift."""
    space = op.space
    pos = {n: i for i, n in enumerate(space.blocks)}
    target = [pos.get(tuple(a + b for a, b in zip(n, op.shift)), -1) for n in space.blocks]
    block = np.repeat(np.arange(len(space.blocks)), space._sizes)
    ok = block[:, None] == np.repeat(target, space._sizes)[None, :]
    assert not np.any(np.abs(op.matrix[~ok]) > 1e-12), f"entries leave the shift-{op.shift} blocks"


def test_fock_op_requires_block_structure():
    F = FockSpace(F2, (1,))
    bad = np.ones((F.dim, F.dim))
    with pytest.raises(AssertionError):
        assert_block_shaped(FockOp(F, (0,), bad))
    assert_block_shaped(FockOp(F, (0,), np.eye(F.dim)))


def test_gauge_grading_scales_creations():
    c = c_theta(F1, Phase.exact_radians(1))
    F = FockSpace(F1, (2, 2))
    f = delta_x(F1, (1, 1), "ef")
    op = creation_x(F, c, f)
    for z in [(1j, 1.0), (cmath.exp(0.3j), cmath.exp(-1.1j))]:
        U = gauge_unitary(F, z)
        scaled = (z[0] ** 1) * (z[1] ** 1) * op
        assert (U @ op @ U.adjoint()).close(scaled, tol=1e-12)
        assert gauge_check(F, c, z, f, tol=1e-12).ok
    with pytest.raises(DegreeMismatch):
        gauge_check(F, c, (1j,), f)


def test_rep_axioms_pass_on_fixtures():
    assert rep_axioms_check(FockSpace(F2, (2,)), trivial_cocycle(F2)).ok
    assert rep_axioms_check(FockSpace(F1, (2, 2)), c_theta(F1, Phase.exact_radians(1))).ok
    assert rep_axioms_check(FockSpace(F2, (2,), (4,)), trivial_cocycle(F2), system="Y").ok
    assert rep_axioms_check(
        FockSpace(F1, (2, 2), (4, 4)), c_theta(F1, Phase.exact_radians(1)), system="Y"
    ).ok


def test_rep_axioms_refuse_an_unknown_system():
    with pytest.raises(ValueError, match="'Z'"):
        rep_axioms_check(FockSpace(F2, (1,)), trivial_cocycle(F2), system="Z")


def test_x_relations_hold_on_deeper_spaces():
    """X acts on the Fock space of Y: over the cap-1 default battery, at the
    suite's (N, D) with D > N, the generator relations hold at every relation
    degree, and products of rank-one compacts are Nica covariant."""
    rng = np.random.default_rng(5)

    def rank_one(g, n):
        f, h = (rng.normal(size=len(g.paths(n))) + 1j * rng.normal(size=len(g.paths(n))) for _ in range(2))
        return x_theta(XElem(g, n, f), XElem(g, n, h))

    cfg = SuiteConfig(degree_entry_cap=1)
    deeper = 0
    for inst in default_instances(cfg):
        g, c = inst.graph, inst.cocycle
        N, D = _fock_caps(g, cfg, inst)
        if D == N:
            continue
        deeper += 1
        space = FockSpace(g, N, D)
        degrees = fock.relation_degrees(N)
        rep = ck_relations_check(space, c)
        assert rep.ok, (inst.label, rep.first_failure)
        for m in degrees:
            for n in degrees:
                rep = nica_check(space, c, rank_one(g, m), rank_one(g, n))
                assert rep.ok, (inst.label, m, n, rep.first_failure)
    assert deeper


def test_rep_axioms_catch_a_dropped_phase():
    base = c_theta(F1, Phase.exact_radians(1))

    def corrupt(la, mu):
        if la.edges == ("f",) and mu.edges == ("e",):
            return ONE
        return base(la, mu)

    bad = Cocycle(F1, corrupt, name="dropped-phase")
    rep = rep_axioms_check(FockSpace(F1, (2, 2)), bad)
    assert not rep.ok
    assert rep.first_failure[0] == "multiplicativity"


def test_psi_check_catches_a_dropped_phase():
    base = c_theta(F1, Phase.exact_radians(1))

    def corrupt(la, mu):
        if la.edges == ("f",) and mu.edges == ("e",):
            return ONE
        return base(la, mu)

    bad = Cocycle(F1, corrupt, name="dropped-phase")
    rep = psi_check(FockSpace(F1, (2, 2), (3, 3)), bad)
    assert not rep.ok
    f = next(p for p in F1.paths((0, 1)) if p.edges == ("f",))
    assert rep.first_failure == ("psi-multiplicative", (f, f), None)


@pytest.mark.parametrize(
    "pair_cap, rep_x, rep_y, psi",
    [(1, 18, 11, 13), (3, 42, 25, 33), (64, 51, 30, 43)],
)
def test_pair_caps_sample_the_same_cases(pair_cap, rep_x, rep_y, psi):
    """The number of cases each check samples at a pair cap, pinned on F2."""
    c = trivial_cocycle(F2)
    assert rep_axioms_check(FockSpace(F2, (2,)), c, pair_cap=pair_cap).cases_checked == rep_x
    rep = rep_axioms_check(FockSpace(F2, (1,), (3,)), c, pair_cap=pair_cap, system="Y")
    assert rep.cases_checked == rep_y
    assert psi_check(FockSpace(F2, (2,), (3,)), c, pair_cap=pair_cap).cases_checked == psi


def test_fock_checks_count_their_cases():
    """The number of cases every column-entry Fock check counts, pinned on
    F2 at the cap-2 suite configuration N = (2,), D = (3,): def-4.4's two
    entry points at its pair cap, ck_relations_check over the whole
    truncation (four vertex pairs, three compose and isometry cases per
    path of degree (1,) and four per path of degree (2,), and two ck-sum
    cases per vertex at each relation degree), zeta_surjectivity_check at
    every degree (one operator and one vector case per path) and nica_check
    (one)."""
    c = trivial_cocycle(F2)
    sx, sy = FockSpace(F2, (2,)), FockSpace(F2, (2,), (3,))
    assert rep_axioms_check(sx, c, pair_cap=24).cases_checked == 51
    assert rep_axioms_check(sy, c, pair_cap=24, system="Y").cases_checked == 51
    assert ck_relations_check(sx, c).cases_checked == 26
    assert [zeta_surjectivity_check(sy, c, n).cases_checked for n in sy.blocks] == [4, 4, 4]
    a = XElem.delta(F2, F2.paths((1,))[0])
    assert nica_check(sy, c, x_theta(a, a), x_theta(a, a)).cases_checked == 1


def test_generator_relations_compose_each_relation_once(monkeypatch):
    """def-4.4 on F1 at cap 1, N = (1, 1), compares three batches of
    products each for the finite-path axioms, the relations (the vertex
    pairs, and the compositions and isometries of every degree) and the
    cylinder axioms."""
    calls = []
    real = fock._products_close
    monkeypatch.setattr(fock, "_products_close", lambda *args: calls.append(1) or real(*args))
    inst = Instance("F1/trivial", F1, trivial_cocycle(F1))
    (result,) = run_suite("def-4.4", SuiteConfig(degree_entry_cap=1), instances=[inst]).results
    assert result.status == "pass"
    assert len(calls) == 9


def test_vertex_point_creations_are_the_vertex_cylinder_creations():
    """At degree 0 the point-mass creations are the creations by the vertex
    indicators read as cylinders, bit for bit, on the deeper spaces of the
    cap-1 default battery."""
    cfg = SuiteConfig(degree_entry_cap=1)
    deeper = 0
    for inst in default_instances(cfg):
        g, c = inst.graph, inst.cocycle
        N, D = _fock_caps(g, cfg, inst)
        if D == N:
            continue
        deeper += 1
        space = FockSpace(g, N, D)
        ops = point_creations(space, c, dg.zero(g.k))
        assert len(ops) == len(g.vertices)
        for v, op in zip(g.vertices, ops):
            want = creation_y(space, c, CylElem.delta(g, g.vertex_path(v)))
            assert np.array_equal(op.matrix, want.matrix), (inst.label, v)
    assert deeper


def test_nica_check_on_fixture_pairs():
    c = c_theta(F1, Phase.exact_radians(1))
    F = FockSpace(F1, (2, 2))
    S = x_theta(delta_x(F1, (1, 0), "e"), delta_x(F1, (1, 0), "e"))
    T = x_theta(delta_x(F1, (0, 1), "f"), delta_x(F1, (0, 1), "f"))
    assert nica_check(F, c, S, T).ok
    assert nica_check(F, c, S, S).ok  # m = n reduces to the multiplication law


def test_nica_check_exhaustive_small_graph():
    c = trivial_cocycle(F2)
    F = FockSpace(F2, (2,))
    paths = list(F2.paths((1,)))
    for la in paths:
        for mu in paths:
            S = x_theta(XElem.delta(F2, la), XElem.delta(F2, la))
            T = x_theta(XElem.delta(F2, mu), XElem.delta(F2, mu))
            assert nica_check(F, c, S, T).ok


def test_nica_check_creates_each_degree_once(monkeypatch):
    """nica_check builds the point table of each distinct degree once and
    builds no dense operator.  At N = (2, 2) each pair is compared on a
    nonempty part of interior(m v n); at N = (1, 1) neither side acts
    there, and nothing is built."""
    g = single_vertex(2, (2, 2))
    made = []
    real = fock._point_table

    def counted(space, c, d, depth):
        if (c, d, depth) not in space._tables:  # a build, not a cache hit
            made.append(d)
        return real(space, c, d, depth)

    monkeypatch.setattr(fock, "_point_table", counted)
    monkeypatch.setattr(fock, "creation_x", None)
    monkeypatch.setattr(fock.FockOp, "__matmul__", None)
    rank_one = lambda n: x_theta(XElem.delta(g, g.paths(n)[0]), XElem.delta(g, g.paths(n)[-1]))
    for m, n in (((1, 1), (1, 0)), ((1, 0), (1, 1)), ((1, 0), (0, 1)), ((1, 0), (1, 0))):
        made.clear()
        assert nica_check(FockSpace(g, (1, 1)), trivial_cocycle(g), rank_one(m), rank_one(n)).ok
        assert made == []
        assert nica_check(FockSpace(g, (2, 2)), trivial_cocycle(g), rank_one(m), rank_one(n)).ok
        assert sorted(made) == sorted({m, n, dg.join(m, n)})


def test_cp_identity_on_fixtures():
    F = FockSpace(F2, (2,), (4,))
    c = trivial_cocycle(F2)
    assert cp_identity_check(F, c, XElem(F2, (0,), [1.0, 1.0]), (1,)).ok
    assert cp_identity_check(F, c, XElem.zeros(F2, (0,)), (1,)).ok
    Fy = FockSpace(F1, (2, 2), (4, 4))
    ct = c_theta(F1, Phase.exact_radians(1))
    for n in [(1, 0), (1, 1), (2, 2)]:
        assert cp_identity_check(Fy, ct, XElem(F1, (0, 0), [1.0]), n).ok


def test_ck_relations_untwisted_cycle():
    rep = ck_relations_check(FockSpace(F2, (2,)), trivial_cocycle(F2))
    assert rep.ok and rep.cases_checked > 4
    # at N = 0 there is no relation degree, and nothing is checked
    rep = ck_relations_check(FockSpace(F2, (0,)), trivial_cocycle(F2))
    assert rep.ok and rep.cases_checked == 0


def test_ck_relations_twisted_torus():
    """At N = (2, 2) the relations are checked at (1, 0), (0, 1) and (2, 2)."""
    c = c_theta(F1, Phase.exact_radians(1))
    rep = ck_relations_check(FockSpace(F1, (2, 2)), c)
    assert rep.ok


def test_creation_y_matches_alpha_route():
    # creating by an alpha image equals the psi definition used by psi_check
    c = c_theta(F1, Phase.exact_radians(1))
    F = FockSpace(F1, (2, 2), (4, 4))
    f = delta_x(F1, (1, 0), "e")
    direct = creation_y(F, c, alpha((1, 0), (1, 0), f))
    K = x_theta(f, f)
    via_compacts = fock_compacts_y(F, c, alpha_k(K))
    assert (direct @ direct.adjoint()).close_on_interior(via_compacts, (1, 0))


def test_creation_y_identity_and_overflow():
    F = FockSpace(F2, (2,), (4,))
    c = trivial_cocycle(F2)
    one = creation_y(F, c, CylElem.ones(F2))
    assert np.allclose(one.matrix, np.eye(F.dim))
    deep = CylElem(F2, (0,), (3,), np.ones(2))
    with pytest.raises(DepthOverflow):
        creation_y(F, c, deep)


def test_psi_check_fixtures():
    assert psi_check(FockSpace(F2, (2,), (4,)), trivial_cocycle(F2)).ok
    assert psi_check(
        FockSpace(F1, (2, 2), (4, 4)), c_theta(F1, Phase.exact_radians(1))
    ).ok


def test_zeta_surjectivity_fixtures():
    Fy = FockSpace(F1, (2, 2), (4, 4))
    ct = c_theta(F1, Phase.exact_radians(1))
    for n in [(0, 0), (1, 0), (2, 2)]:
        rep = zeta_surjectivity_check(Fy, ct, n)
        assert rep.ok, rep.first_failure
    Fy2 = FockSpace(F2, (2,), (4,))
    rep = zeta_surjectivity_check(Fy2, trivial_cocycle(F2), (2,))
    assert rep.ok, rep.first_failure


# -- comparisons -------------------------------------------------------------

SPACES = {
    "f1-x": lambda: FockSpace(F1, (2, 2)),
    "f2-y": lambda: FockSpace(F2, (2,), (3,)),
    # no path of degree (2, 0), so every block and every interior is empty
    "empty": lambda: FockSpace(omega(2, (1, 1)), (0, 0), (2, 0)),
}


def inject(rng, a, b, count, tol):
    """Put NaN, infinities (equal and not), signed zeros, differences of
    exactly tol and just over it at random entries of a and b."""
    for _ in range(count if a.size else 0):
        at = tuple(int(x) for x in rng.integers(0, a.shape[0], size=a.ndim))
        kind = int(rng.integers(0, 8))
        if kind == 0:
            (a if rng.random() < 0.5 else b)[at] = complex(np.nan, rng.normal())
        elif kind == 1:
            a[at] = b[at] = rng.choice([np.inf, -np.inf, 1j * np.inf])
        elif kind == 2:
            a[at], b[at] = np.inf, -np.inf
        elif kind == 3:
            (a if rng.random() < 0.5 else b)[at] = np.inf
        elif kind == 4:
            a[at], b[at] = complex(-0.0, -0.0), 0.0
        elif kind == 5:
            a[at], b[at] = 0.0, rng.choice([tol, -tol, 1j * tol])
        elif kind == 6:
            a[at], b[at] = 0.0, np.nextafter(tol, np.inf)
        else:
            a[at], b[at] = 1.0, 1.0 + tol


def noisy_pair(rng, shape, noise, count, tol):
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    b = a + noise * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    inject(rng, a, b, count, tol)
    return a, b


def allclose(a, b, tol):
    return bool(np.allclose(a, b, atol=tol, rtol=0.0))


def assert_verdict(a, b, tol):
    """compare(a, b, tol) row by row: ok is allclose's, worst the largest
    |a - b| (NaN included), seen whether either side has a nonzero entry."""
    v = compare(a, b, tol)
    assert len(v.ok) == len(v.worst) == len(v.seen) == len(a)
    with np.errstate(invalid="ignore"):
        for p in range(len(a)):
            assert v.ok[p] == allclose(a[p], b[p], tol)
            worst = np.max(np.abs(a[p] - b[p]), initial=0.0)
            assert v.worst[p] == worst or (np.isnan(v.worst[p]) and np.isnan(worst))
            assert v.seen[p] == bool(np.any(a[p] != 0) or np.any(b[p] != 0))


CLOSE_ARGS = dict(
    seed=st.integers(0, 2**32 - 1),
    tol=st.sampled_from([0.0, 1e-9, 0.25, 1.0]),
    count=st.integers(0, 4),
    noise=st.sampled_from([0.0, 1e-12, 1e-3]),
)


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(SPACES)), **CLOSE_ARGS)
def test_close_agrees_with_allclose(name, seed, tol, count, noise):
    space = SPACES[name]()
    rng = np.random.default_rng(seed)
    a, b = noisy_pair(rng, (space.dim, space.dim), noise, count, tol)
    A = FockOp(space, (0,) * space.graph.k, a)
    B = FockOp(space, (0,) * space.graph.k, b)
    assert arrays_close(a, b, tol) == allclose(a, b, tol)
    assert A.close(B, tol) == allclose(a, b, tol)
    assert_verdict(a, b, tol)
    degrees = [n for n, _ in space.basis()]
    for d in space.blocks:
        mask = np.array([dg.leq(n, dg.sub(space.N, d)) for n in degrees], dtype=bool).reshape(-1)
        want = allclose(a[:, mask], b[:, mask], tol)
        assert A.close_on_interior(B, d, tol) == want
        assert np.array_equal(space.interior_mask(d), mask)


SV = single_vertex(2, (2, 1))  # two paths of degree (1, 1), one source block


@settings(max_examples=80, deadline=None)
@given(**CLOSE_ARGS)
def test_module_close_agrees_with_allclose(seed, tol, count, noise):
    rng = np.random.default_rng(seed)
    n = (1, 1)
    size = len(SV.paths(n))
    a, b = noisy_pair(rng, (size,), noise, count, tol)
    want = allclose(a, b, tol)
    assert arrays_close(a, b, tol) == want
    assert XElem(SV, n, a).close(XElem(SV, n, b), tol) == want
    assert CylElem(SV, n, n, a).close(CylElem(SV, n, n, b), tol) == want
    assert_verdict(a[None], b[None], tol)
    a, b = noisy_pair(rng, (size, size), noise, count, tol)
    want = allclose(a, b, tol)
    assert arrays_close(a, b, tol) == want
    assert_verdict(a, b, tol)
    assert XOp(SV, n, a).close(XOp(SV, n, b), tol) == want
    Ya, Yb = YOp(SV, n, n, a), YOp(SV, n, n, b)
    assert Ya.close(Yb, tol) == want


def test_compare_fails_only_the_row_that_differs():
    a = np.array([[1.0, np.inf, 0.0], [1.0, 2.0, 3.0]])
    b = np.array([[1.0, np.inf, -0.0], [1.0, 2.0 + 1e-6, 3.0]])
    v = compare(a, b, 1e-9)
    assert v.ok.tolist() == [True, False]
    assert np.isnan(v.worst[0])  # inf - inf: equal infinities are close, but have no finite difference
    assert v.worst[1] == pytest.approx(1e-6)
    assert v.seen.tolist() == [True, True]
    assert_verdict(a, b, 1e-9)


def test_interior_mask_is_cached_read_only():
    F = FockSpace(F1, (2, 2))
    mask = F.interior_mask((1, 0))
    assert F.interior_mask([1, 0]) is mask
    assert not mask.flags.writeable
    with pytest.raises(DegreeExceedsTruncation):
        F.interior_mask((3, 0))


# -- the byte limit ----------------------------------------------------------


def test_oversized_space_is_refused_before_allocating():
    g = single_vertex(2, (3, 3))
    tracemalloc.start()
    try:
        with pytest.raises(FockSpaceTooLarge) as err:
            FockSpace(g, (4, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    dim = 121 * 121  # (1 + 3 + 9 + 27 + 81)^2 paths of degree <= (4, 4)
    assert err.value.witness == (dim, 16 * dim * dim, MAX_OP_BYTES)
    assert str(dim) in str(err.value) and str(MAX_OP_BYTES) in str(err.value)
    # Y counts its deeper blocks: 729 + 2 * 2187 + 6561 = 11664 coordinates
    with pytest.raises(FockSpaceTooLarge) as err:
        FockSpace(g, (1, 1), (4, 4))
    assert err.value.witness[0] == 11664


def test_byte_limit_boundary(monkeypatch):
    monkeypatch.setattr(fock, "MAX_OP_BYTES", 16 * 9 * 9)
    assert FockSpace(F1, (2, 2)).dim == 9
    monkeypatch.setattr(fock, "MAX_OP_BYTES", 16 * 9 * 9 - 1)
    with pytest.raises(FockSpaceTooLarge):
        FockSpace(F1, (2, 2))


def test_counted_dim_matches_the_layout():
    """The dimension counted from adjacency matrices equals the enumerated one."""
    graphs = [F1, F2, omega(2, (1, 1)), omega(2, (2, 1)), single_vertex(2, (2, 3))]
    graphs += [inst.graph for inst in default_instances(SuiteConfig(seed=0, cocycles=1))]
    for g in graphs:
        for N in dg.degrees_upto((2,) * min(g.k, 2) + (1,) * max(g.k - 2, 0)):
            x = FockSpace(g, N)
            assert fock._counted_dim(g, N, x.block_depth(dg.zero(g.k))) == x.dim
            D = dg.add(N, (1,) * g.k)
            y = FockSpace(g, N, D)
            assert fock._counted_dim(g, N, y.block_depth(dg.zero(g.k))) == y.dim


def test_require_block_mask_follows_the_shift():
    F = FockSpace(F1, (2, 2))
    c = c_theta(F1, Phase.exact_radians(1))
    op = creation_x(F, c, delta_x(F1, (1, 0), "e"))
    assert_block_shaped(FockOp(F, (1, 0), op.matrix))
    assert_block_shaped(FockOp(F, (-1, 0), op.adjoint().matrix))
    with pytest.raises(AssertionError):
        assert_block_shaped(FockOp(F, (0, 1), op.matrix))
    with pytest.raises(AssertionError):
        assert_block_shaped(FockOp(F, (1, 0), op.adjoint().matrix))
