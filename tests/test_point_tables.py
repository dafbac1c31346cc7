"""The Fock relation checks on point tables, against the dense loops they replaced.

`rep_axioms_check`, `ck_relations_check`, `psi_check`, `nica_check` and
`zeta_surjectivity_check` compare point creations as index tables, in
batches.  The functions below, and `nica_dense` and `zeta_dense` in
`oracle`, are the per-pair loops they replaced: every point creation is a
dense matrix, every relation one `@` and one `close`.
Both must report the same `ok`, the same first failure (in the loop order,
with the same witness) and the same number of cases, on valid input and
under corruptions that the checks must catch.
"""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from kgt import builtin_fixtures
from kgt import degrees as dg
from kgt import fock
from kgt.cocycle import Cocycle, c_theta, trivial_cocycle
from kgt.fock import (
    FockSpace,
    ck_relations_check,
    nica_check,
    psi_check,
    rep_axioms_check,
    zeta_surjectivity_check,
)
from kgt.kgraph import single_vertex
from kgt.phases import Phase
from kgt.verify import SuiteConfig, _fock_caps, _rand_section_elem, _rand_xop, default_instances
from kgt.xmod import ModuleReport, XElem, arrays_close, x_theta
from kgt.ymod import CylElem, alpha_k
from oracle import creation, fock_compacts_y, nica_dense, point_creations, zeta_dense, zeros

F1 = builtin_fixtures("f1")


# -- the dense loops -----------------------------------------------------------


def block_elems(space, n, system):
    """The point masses of degree n, one module element each."""
    g = space.graph
    if system == "X":
        return [XElem.delta(g, la) for la in g.paths(n)]
    return [CylElem.delta(g, la, n) for la in g.paths(space.block_depth(n))]


def multiplicativity_dense(space, c, elems, cre, rep, tol, pair_cap):
    for m in space.blocks:
        for n in space.blocks:
            if not dg.leq(dg.add(m, n), space.N):
                continue
            for (i, x), (j, y) in fock._first_pairs(enumerate(elems[m]), enumerate(elems[n]), pair_cap):
                rep.cases_checked += 1
                if not (cre[m][i] @ cre[n][j]).close(creation(space, c, fock._mul(c, x, y)), tol):
                    return (m, n, i, j)
    return None


def rep_axioms_dense(space, c, tol=1e-9, pair_cap=64, system="X"):
    g = space.graph
    rep = ModuleReport()
    elems = {n: block_elems(space, n, system) for n in space.blocks}
    cre = {n: [creation(space, c, x) for x in elems[n]] for n in space.blocks}

    for n in space.blocks:
        if len(elems[n]) >= 2:
            combo = elems[n][0] + 2.0j * elems[n][1]
            want = cre[n][0] + 2.0j * cre[n][1]
            rep.cases_checked += 1
            if not creation(space, c, combo).close(want, tol):
                return ModuleReport(rep.cases_checked, ("linearity", n, None))

    indicators = [XElem.delta(g, g.vertex_path(v)) for v in g.vertices]
    right = list(zip(indicators, point_creations(space, c, dg.zero(g.k))))
    for n in space.blocks:
        for i, x in enumerate(elems[n][:pair_cap]):
            for v, (a, ca) in enumerate(right):
                xa = fock._right(c, x, a)
                rep.cases_checked += 1
                if not creation(space, c, xa).close(cre[n][i] @ ca, tol):
                    witness = ("right-action", (n, i, g.vertices[v]), None)
                    return ModuleReport(rep.cases_checked, witness)

    for n in space.blocks:
        for i, j in fock._first_pairs(range(len(elems[n])), range(len(elems[n])), pair_cap):
            lhs = cre[n][i].adjoint() @ cre[n][j]
            rhs = creation(space, c, fock._inner0(elems[n][i], elems[n][j]))
            rep.cases_checked += 1
            if not lhs.close_on_interior(rhs, n, tol):
                return ModuleReport(rep.cases_checked, ("inner-product", (n, i, j), None))

    bad = multiplicativity_dense(space, c, elems, cre, rep, tol, pair_cap)
    if bad is not None:
        rep.first_failure = ("multiplicativity", bad, None)
    return rep


def ck_relations_dense(space, c, tol=1e-9):
    g = space.graph
    rep = ModuleReport()
    degrees = fock.relation_degrees(space.N)
    if not degrees:
        return rep
    sgen = {}
    for m in space.blocks:
        sgen.update(zip(g.paths(m), point_creations(space, c, m)))
    svtx = {p.range: sgen[p] for p in g.paths(dg.zero(g.k))}

    for v in g.vertices:
        for w in g.vertices:
            rep.cases_checked += 1
            want = svtx[v] if v == w else zeros(space)
            if not (svtx[v] @ svtx[w]).close(want, tol):
                return ModuleReport(rep.cases_checked, ("vertex", (v, w), None))

    for m in space.blocks:
        if not any(m):
            continue
        for la in g.paths(m):
            for p, _ in dg.splits(m, 2):
                mu, nu = g.split(la, p)
                rep.cases_checked += 1
                got = sgen[mu] @ sgen[nu]
                want = complex(c(mu, nu)) * sgen[la]
                if not arrays_close(got.on_interior(m), want.on_interior(m), tol):
                    return ModuleReport(rep.cases_checked, ("compose", (mu, nu), None))
            rep.cases_checked += 1
            if not (sgen[la].adjoint() @ sgen[la]).close_on_interior(svtx[la.source], m, tol):
                return ModuleReport(rep.cases_checked, ("isometry", la, None))

    for n in degrees:
        low = ~np.all(space._deg >= np.asarray(n), axis=1)
        up = np.ix_(~low, ~low)
        for v in g.vertices:
            total = zeros(space)
            for i in g.by_range(n)[v]:
                la = g.paths(n)[i]
                total = total + sgen[la] @ sgen[la].adjoint()
            rep.cases_checked += 1
            if not arrays_close(total.matrix[up], svtx[v].matrix[up], tol):
                return ModuleReport(rep.cases_checked, ("ck-sum", (n, v), None))
            defect = svtx[v].matrix - total.matrix
            want = svtx[v].matrix * np.outer(low, low)
            rep.cases_checked += 1
            if not arrays_close(defect, want, tol):
                return ModuleReport(rep.cases_checked, ("defect-shape", (n, v), None))
            got_rank = int(np.linalg.matrix_rank(defect)) if defect.size else 0
            want_rank = int(np.sum(np.abs(np.diag(svtx[v].matrix)) * low > 0.5))
            if got_rank != want_rank:
                return ModuleReport(rep.cases_checked, ("defect-rank", (n, v), (got_rank, want_rank)))
    return rep


def psi_dense(space, c, tol=1e-9, pair_cap=32):
    g = space.graph
    rep = ModuleReport()
    elems = {m: block_elems(space, m, "X") for m in space.blocks}
    psi = {m: point_creations(space, c, m) for m in space.blocks}

    bad = multiplicativity_dense(space, c, elems, psi, rep, tol, pair_cap)
    if bad is not None:
        m, n, i, j = bad
        witness = ("psi-multiplicative", (g.paths(m)[i], g.paths(n)[j]), None)
        return ModuleReport(rep.cases_checked, witness)

    for m in space.blocks:
        for (i, la), (j, mu) in fock._first_pairs(enumerate(g.paths(m)), enumerate(g.paths(m)), pair_cap):
            rep.cases_checked += 1
            lhs = psi[m][i] @ psi[m][j].adjoint()
            rhs = fock_compacts_y(space, c, alpha_k(x_theta(elems[m][i], elems[m][j])))
            if not lhs.close_on_interior(rhs, m, tol):
                return ModuleReport(rep.cases_checked, ("psi-compacts", (la, mu), None))

    for m in space.blocks:
        stack = np.stack([op.matrix.ravel() for op in psi[m]])
        rep.cases_checked += 1
        if int(np.linalg.matrix_rank(stack)) != len(psi[m]):
            return ModuleReport(rep.cases_checked, ("psi-injective", m, None))

    nonzero = [m for m in space.blocks if any(m)]
    for m, n in fock._first_pairs(nonzero, nonzero, pair_cap):
        S = x_theta(elems[m][0], elems[m][-1])
        T = x_theta(elems[n][0], elems[n][-1])
        sub = nica_dense(space, c, S, T, tol)
        rep.cases_checked += sub.cases_checked
        if not sub.ok:
            return ModuleReport(rep.cases_checked, ("psi-nica", (m, n), None))
    return rep


# -- fast against dense --------------------------------------------------------


def summary(rep):
    return rep.ok, rep.first_failure, rep.cases_checked


def reports(g, c, N, D, source_free, tol=1e-9):
    """(label, fast, dense) for every Fock relation check def-4.4 and
    prop-5.1 run at (N, D), in their order, and for nica_check on random
    rank-ones at the first and the last relation degree."""
    sx, sy = FockSpace(g, N), FockSpace(g, N, D)
    out = [("rep-X", rep_axioms_check(sx, c, tol, 24), rep_axioms_dense(sx, c, tol, 24))]
    out.append(("ck", ck_relations_check(sx, c, tol), ck_relations_dense(sx, c, tol)))
    out.append(("rep-Y", rep_axioms_check(sy, c, tol, 24, "Y"), rep_axioms_dense(sy, c, tol, 24, "Y")))
    if source_free:
        out.append(("psi", psi_check(sy, c, tol, 16), psi_dense(sy, c, tol, 16)))
    rng = np.random.default_rng(11)

    def rank_one(n):
        size = len(g.paths(n))
        f, h = (rng.normal(size=size) + 1j * rng.normal(size=size) for _ in range(2))
        return x_theta(XElem(g, n, f), XElem(g, n, h))

    degrees = fock.relation_degrees(N)
    if degrees:
        S, T = rank_one(degrees[0]), rank_one(degrees[-1])
        out.append(("nica", nica_check(sx, c, S, T, tol), nica_dense(sx, c, S, T, tol)))
    return out


def battery(cocycles):
    """The cap-1 default battery, with `cocycles` cocycles per random graph
    (the default has 4): the dense loops take most of a second per graph."""
    cfg = SuiteConfig(degree_entry_cap=1, cocycles=cocycles)
    for inst in default_instances(cfg):
        N, D = _fock_caps(inst.graph, cfg, inst)
        yield inst, N, D


def assert_agree(label, rows):
    for name, fast, dense in rows:
        assert summary(fast) == summary(dense), (label, name)


def test_fast_checks_match_the_dense_loops_on_the_battery():
    for inst, N, D in battery(cocycles=2):
        rows = reports(inst.graph, inst.cocycle, N, D, inst.graph.is_source_free()[0])
        assert_agree(inst.label, rows)
        assert all(fast.ok for _, fast, _ in rows), inst.label


def assembly_reports(g, c, N, D, source_free):
    """(label, fast, dense) for zeta_surjectivity_check at the degrees the
    suite checks on the cylinder space at (N, D), when it creates within the
    truncation, and
    for nica_check on the pairs of the first and the last relation degree:
    on the rank-ones of point masses that psi_check passes, on the cylinder
    space, and on random section compacts, as eq-nica-cov-for-nice-thetas
    passes them, on the finite-path space."""
    sx, sy = FockSpace(g, N), FockSpace(g, N, D)
    out = []
    if source_free and dg.leq(dg.sub(D, N), N):
        for n in [dg.unit(g.k, 1), N] if any(N) else [N]:
            out.append((("zeta", n), zeta_surjectivity_check(sy, c, n), zeta_dense(sy, c, n)))
    rng = np.random.default_rng(13)
    point = lambda d: x_theta(XElem.delta(g, g.paths(d)[0]), XElem.delta(g, g.paths(d)[-1]))
    degrees = [d for d in fock.relation_degrees(N) if g.paths(d)]
    ends = sorted({degrees[0], degrees[-1]}) if degrees else []
    for m, n in product(ends, ends):
        S, T = point(m), point(n)
        out.append((("nica-points", m, n), nica_check(sy, c, S, T), nica_dense(sy, c, S, T)))
        S, T = _rand_xop(g, m, rng, _rand_section_elem), _rand_xop(g, n, rng, _rand_section_elem)
        out.append((("nica-sections", m, n), nica_check(sx, c, S, T), nica_dense(sx, c, S, T)))
    return out


@pytest.mark.parametrize("cap, include_random", [(1, True), (2, False)])
def test_assembly_and_nica_match_the_dense_routes(cap, include_random):
    """The column-entry zeta_surjectivity_check and nica_check against their
    dense routes: the cap-1 default battery and the cap-2 fixtures, where
    N = (2,) on F2 puts the degree-(1,) comparisons on a nonzero block."""
    cfg = SuiteConfig(degree_entry_cap=cap, include_random=include_random)
    compared = set()
    for inst in default_instances(cfg):
        g = inst.graph
        N, D = _fock_caps(g, cfg, inst)
        rows = assembly_reports(g, inst.cocycle, N, D, g.is_source_free()[0])
        assert_agree(inst.label, rows)
        assert all(fast.ok for _, fast, _ in rows), inst.label
        compared.update(name[0] for name, _, _ in rows)
    assert compared == {"zeta", "nica-points", "nica-sections"}


def test_a_non_cocycle_fails_alike():
    """c(la, mu) = |la|^2 |mu| / 8 turn breaks (C1) only on triples of
    non-vertex legs, which fit a truncation whose entries sum to 3 or more."""
    length = lambda p: dg.total(p.degree)
    bad = Cocycle(F1, lambda la, mu: Phase.from_turns(Fraction(length(la) ** 2 * length(mu), 8)))
    rows = reports(F1, bad, (2, 2), (3, 3), True)
    assert_agree("non-cocycle", rows)
    def44 = [fast for name, fast, _ in rows if name in ("rep-X", "ck", "rep-Y")]
    assert not all(rep.ok for rep in def44)
    assert not next(fast for name, fast, _ in rows if name == "psi").ok


@pytest.fixture
def bent_fock_twist(monkeypatch):
    """Multiply the phases of every point table built by a varying unit
    phase where the shift and the source block are both nonzero; the module
    products stay exact."""
    real = fock._point_table

    def bent(space, c, d, depth):
        built = (c, d, depth) not in space._tables
        t = real(space, c, d, depth)
        if built and any(d):
            k, col = np.nonzero(t.target[:, :-1] >= 0)
            e = np.flatnonzero(space._deg[col].any(axis=1))  # entries with a nonzero source block
            t.phase[k[e], col[e]] *= np.exp(0.1j * t.target[k[e], col[e]])
        return t

    monkeypatch.setattr(fock, "_point_table", bent)


def test_a_bent_fock_twist_fails_alike(bent_fock_twist):
    seen = 0
    for inst, N, D in battery(cocycles=1):
        if inst.graph.k < 2:
            continue  # at N = (1,) no creation of nonzero degree meets a nonzero source block
        rows = reports(inst.graph, inst.cocycle, N, D, inst.graph.is_source_free()[0])
        assert_agree(inst.label, rows)
        assert not all(fast.ok for _, fast, _ in rows), inst.label
        seen += 1
    assert seen


def test_point_tables_are_the_dense_point_creations():
    """Scattered back to matrices, the point tables are the dense point
    creations; every point creation has at most one nonzero entry in each
    row and each column, in both models."""
    for inst, N, D in battery(cocycles=4):
        g, c = inst.graph, inst.cocycle
        for space, system in product((FockSpace(g, N), FockSpace(g, N, D)), ("X", "Y")):
            for n in space.blocks:
                table = fock._point_table(space, c, n, fock._depth(space, n, system))
                for k in range(len(table.target)):
                    op = creation(space, c, fock._points_at(space, n, system, k))
                    assert np.all(np.count_nonzero(op.matrix, axis=0) <= 1)
                    assert np.all(np.count_nonzero(op.matrix, axis=1) <= 1)
                    M = np.zeros_like(op.matrix)
                    (cols,) = np.nonzero(table.target[k, :-1] >= 0)
                    M[table.target[k, cols], cols] = table.phase[k, cols]
                    assert np.array_equal(M, op.matrix), (inst.label, n, k)
                assert not np.any(table.phase[table.target < 0])


def test_table_algebra_is_the_matrix_algebra():
    """Composition is a gather and the adjoint the inverse index map: on
    F1's cylinder space, for point creations of the listed degrees, S_i S_j,
    S_i*, S_i S_j* and (S_i S_j)* agree with the dense products."""
    c = c_theta(F1, Phase.exact_radians(1))
    space = FockSpace(F1, (2, 2), (3, 3))

    def dense(t, p):
        M = np.zeros((space.dim, space.dim), dtype=np.complex128)
        (cols,) = np.nonzero(t.target[p, :-1] >= 0)
        M[t.target[p, cols], cols] = t.phase[p, cols]
        return M

    for m, n in (((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 1), (1, 0)), ((1, 1), (1, 1))):
        a, b = fock._point_table(space, c, m, m), fock._point_table(space, c, n, n)
        A, B = point_creations(space, c, m), point_creations(space, c, n)
        pairs = [(i, j) for i in range(len(A)) for j in range(len(B))]
        i, j = np.array(pairs).T
        prod, star = fock._compose(a, i, b, j), fock._compose(a, i, fock._adjoint(b), j)
        prod_star = fock._adjoint(prod)
        for p, (x, y) in enumerate(pairs):
            assert np.allclose(dense(prod, p), (A[x] @ B[y]).matrix, atol=1e-15, rtol=0)
            assert np.allclose(dense(star, p), (A[x] @ B[y].adjoint()).matrix, atol=1e-15, rtol=0)
            assert np.allclose(dense(prod_star, p), (A[x] @ B[y]).adjoint().matrix, atol=1e-15, rtol=0)
        adj = fock._adjoint(a)
        for x in range(len(A)):
            assert np.array_equal(dense(adj, x), A[x].adjoint().matrix)


def test_entries_off_the_plan_are_compared():
    """_products_close compares every entry of the table side, also where
    the creation it is compared with has no entry: S_e against C(delta_e) is
    close; against C(delta_f), whose entries all lie elsewhere, and against
    the zero creations of degrees (1, 0) and (0, 1) it is not.  Nor is it
    close to a creation by a NaN or an infinite coefficient, or, on a graph
    with two edges e0, e1 of color 1, to the creation by delta_e1, which is
    zero exactly where S_e0 has its entries."""

    def close(space, c, x):
        e = fock._point_table(space, c, (1, 0), (1, 0))
        v = fock._point_table(space, c, (0, 0), (0, 0))  # S_e S_v = S_e
        stack = fock._stack(space, c, [(x.degree, x.degree)])
        return fock._products_close(space, stack, e, v, [[0]], [[0]], [(x, None)], 1e-9).tolist()

    c, space = c_theta(F1, Phase.exact_radians(1)), FockSpace(F1, (2, 2))
    assert close(space, c, XElem(F1, (1, 0), [[1.0]])) == [True]
    assert close(space, c, XElem(F1, (0, 1), [[1.0]])) == [False]
    for n in ((1, 0), (0, 1)):
        assert close(space, c, XElem(F1, n, [[0.0]])) == [False]
    with np.errstate(invalid="ignore"):  # inf times a zero part of a phase is NaN
        for bad in (np.nan, np.inf):
            assert close(space, c, XElem(F1, (1, 0), [[bad]])) == [False]
    g = single_vertex(2, (2, 1))
    assert close(FockSpace(g, (2, 2)), trivial_cocycle(g), XElem(g, (1, 0), [[0.0, 1.0]])) == [False]
