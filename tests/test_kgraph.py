"""Skeleton validation, path normal forms, and factorization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgt import degrees as dg
from kgt.errors import (
    DegreeOutOfRange,
    EndpointMismatch,
    HexagonViolation,
    MalformedSkeleton,
    NotComposable,
    SquareNotBijective,
    UnknownFixture,
)
from kgt.kgraph import (
    builtin_fixtures,
    fixture_f1,
    fixture_f2,
    make_skeleton,
    omega,
    single_vertex,
    validate_skeleton,
)
from kgt.verify import builtin_suite_graphs, random_kgraph
from oracle import factor_walk, split_by_squares

F1 = fixture_f1()
F2 = fixture_f2()


def edge_ids(path):
    return "".join(path.edges)


# -- validation --------------------------------------------------------------


def test_bare_constructor_is_blocked():
    from kgt.kgraph import KGraph

    with pytest.raises(MalformedSkeleton):
        KGraph(F1.skeleton)


def test_duplicate_edge_id_rejected():
    skel = make_skeleton(1, ["u"], [("a", 1, "u", "u"), ("a", 1, "u", "u")])
    with pytest.raises(MalformedSkeleton) as exc:
        validate_skeleton(skel)
    assert exc.value.witness == "a"


def test_dangling_endpoint_rejected():
    skel = make_skeleton(1, ["u"], [("a", 1, "u", "w")])
    with pytest.raises(MalformedSkeleton):
        validate_skeleton(skel)


def test_color_out_of_range_rejected():
    skel = make_skeleton(1, ["u"], [("a", 3, "u", "u")])
    with pytest.raises(MalformedSkeleton):
        validate_skeleton(skel)


def test_missing_square_reported_with_pair():
    skel = make_skeleton(2, ["*"], [("e", 1, "*", "*"), ("f", 2, "*", "*")])
    with pytest.raises(SquareNotBijective) as exc:
        validate_skeleton(skel)
    assert exc.value.witness == ("e", "f")


def test_repeated_square_image_reported():
    skel = make_skeleton(
        2,
        ["*"],
        [("e0", 1, "*", "*"), ("e1", 1, "*", "*"), ("f", 2, "*", "*")],
        [(("e0", "f"), ("f", "e0")), (("e1", "f"), ("f", "e0"))],
    )
    with pytest.raises(SquareNotBijective) as exc:
        validate_skeleton(skel)
    assert exc.value.witness[0] == ("f", "e0")


def test_square_moving_endpoints_rejected():
    # 2-cycle in color 1, a loop at each vertex in color 2
    skel = make_skeleton(
        2,
        ["u", "v"],
        [
            ("a", 1, "u", "v"),
            ("a2", 1, "v", "u"),
            ("hu", 2, "u", "u"),
            ("hv", 2, "v", "v"),
        ],
        [(("a", "hv"), ("hv", "a2")), (("a2", "hu"), ("hu", "a"))],
    )
    with pytest.raises(EndpointMismatch):
        validate_skeleton(skel)


def test_hexagon_violation_detected():
    # colors 1, 2 with one loop each, color 3 with three loops; the two
    # transpositions used below do not commute, so the triple (e, f, g0)
    # reverses differently along the two swap routes
    pi = {0: 1, 1: 0, 2: 2}
    rho = {0: 0, 1: 2, 2: 1}
    edges = [("e", 1, "*", "*"), ("f", 2, "*", "*")] + [
        (f"g{b}", 3, "*", "*") for b in range(3)
    ]
    squares = [(("e", "f"), ("f", "e"))]
    squares += [((f"e", f"g{b}"), (f"g{pi[b]}", "e")) for b in range(3)]
    squares += [((f"f", f"g{b}"), (f"g{rho[b]}", "f")) for b in range(3)]
    with pytest.raises(HexagonViolation):
        validate_skeleton(make_skeleton(3, ["*"], edges, squares))


def test_hexagon_accepts_commuting_flips():
    g = single_vertex(3, (1, 2, 1))
    assert len(g.paths((1, 1, 1))) == 2


# -- paths and normal forms --------------------------------------------------


def test_f2_paths_of_length_three():
    assert [edge_ids(p) for p in F2.paths((3,))] == ["aba", "bab"]


def test_f2_path_endpoints():
    aba = F2.paths((3,))[0]
    assert aba.range == "u" and aba.source == "v"


def test_f1_path_counts():
    assert len(F1.paths((2, 3))) == 1
    p = F1.paths((2, 3))[0]
    assert p.edges == ("e", "e", "f", "f", "f")


def test_degree_zero_paths_are_vertices():
    ps = F2.paths((0,))
    assert [p.range for p in ps] == ["u", "v"]
    assert all(p.is_vertex for p in ps)


def test_compose_renormalizes_to_ascending_blocks():
    e = F1.edge_path("e")
    f = F1.edge_path("f")
    fe = F1.compose(f, e)
    assert fe.edges == ("e", "f")
    assert fe.degree == (1, 1)


def test_compose_rejects_mismatched_endpoints():
    a = F2.edge_path("a")
    with pytest.raises(NotComposable):
        F2.compose(a, a)


def test_compose_with_vertex_paths():
    a = F2.edge_path("a")
    assert F2.compose(F2.vertex_path("u"), a) == a
    assert F2.compose(a, F2.vertex_path("v")) == a


def test_path_from_edges_normalizes():
    p = F1.path_from_edges(["f", "e", "f"])
    assert p.edges == ("e", "f", "f")
    assert p.degree == (1, 2)


def test_segment_of_f2_path():
    aba = F2.paths((3,))[0]
    seg = F2.segment(aba, (1,), (3,))
    assert edge_ids(seg) == "ba"
    assert seg.range == "v" and seg.source == "v"


def test_segment_degree_bounds_checked():
    aba = F2.paths((3,))[0]
    with pytest.raises(DegreeOutOfRange):
        F2.segment(aba, (2,), (1,))
    with pytest.raises(DegreeOutOfRange):
        F2.segment(aba, (0,), (4,))


def test_lattice_fixture_segment_law():
    g = omega(2, (2, 2))
    # the unique degree-(2,2) path out of the corner vertex
    top = [p for p in g.paths((2, 2)) if p.range == "0,0"]
    assert len(top) == 1
    seg = g.segment(top[0], (1, 0), (2, 1))
    assert seg.range == "1,0" and seg.source == "2,1"
    assert seg.degree == (1, 1)


def test_factorization_round_trip_exhaustive_f1():
    for la in F1.paths((2, 2)):
        for m in dg.degrees_upto((2, 2)):
            mu, nu = F1.split(la, m)
            assert F1.compose(mu, nu) == la


def test_factorization_unique_by_enumeration():
    for g, m, n in [(F1, (1, 0), (1, 2)), (F2, (2,), (1,))]:
        hits = {}
        for mu in g.paths(m):
            for nu in g.paths(n):
                if mu.source == nu.range:
                    hits.setdefault(g.compose(mu, nu), []).append((mu, nu))
        total = g.paths(dg.add(dg.as_degree(m, g.k), dg.as_degree(n, g.k)))
        assert set(hits) == set(total)
        assert all(len(v) == 1 for v in hits.values())


def _oracle_graphs():
    suite = dict(builtin_suite_graphs())
    yield "omega(2,(2,2))", suite["omega2"]
    yield "single_vertex(3,(2,1,1))", single_vertex(3, (2, 1, 1))
    for label in ("cartesian(F2,F2)", "skew(F2,Z2)", "crossed(F2,swap)"):
        yield label, suite[label]
    for k in (1, 2, 3):
        for seed in (0, 1, 2):
            yield f"random(k={k},seed={seed})", random_kgraph(seed, k=k)


def test_factor_indices_consistent_with_split():
    """factor_indices equals the normal-form walk over every pair and the
    factorization through the squares, and split reads it.  Up to (3, 3)
    or (2, 2, 1), n has two or more edges in mixed colors, so most tables
    are composed from one-edge tables; omega(2, (1, 1)) has sources and
    uneven in-degrees."""
    for label, g in [*_oracle_graphs(), ("omega(2,(1,1))", omega(2, (1, 1)))]:
        for d in dg.degrees_upto((3,) * g.k if g.k <= 2 else (2, 2, 1)):
            for m in dg.degrees_upto(d):
                n = dg.sub(d, m)
                pre, suf = g.factor_indices(m, n)
                assert (pre.tolist(), suf.tolist()) == factor_walk(g, m, n), (label, m, n)
                for la, i, j in zip(g.paths(d), pre.tolist(), suf.tolist()):
                    want = split_by_squares(g, la, m)
                    assert (g.paths(m)[i], g.paths(n)[j]) == want, (label, la, m)
                    assert g.split(la, m) == want, (label, la, m)


@given(seed=st.integers(0, 2**16), k=st.integers(1, 3), data=st.data())
@settings(max_examples=40, deadline=None)
def test_factor_indices_match_the_walk_on_random_graphs(seed, k, data):
    g = random_kgraph(seed, k=k)
    top = (3,) * k if k <= 2 else (2, 2, 1)
    m = tuple(data.draw(st.integers(0, x)) for x in top)
    n = tuple(data.draw(st.integers(0, x - y)) for x, y in zip(top, m))
    pre, suf = g.factor_indices(m, n)
    assert (pre.tolist(), suf.tolist()) == factor_walk(g, m, n)


# -- predicates and set operations ------------------------------------------


def test_source_free_fixtures():
    assert F1.is_source_free() == (True, None)
    assert F2.is_source_free() == (True, None)


def test_source_free_witness_after_removing_edge():
    skel = make_skeleton(1, ["u", "v"], [("a", 1, "u", "v")])
    g = validate_skeleton(skel)
    assert g.is_source_free() == (False, ("v", 1))


def test_lattice_fixture_is_not_source_free():
    ok, witness = omega(2, (1, 1)).is_source_free()
    assert not ok
    v, color = witness
    assert color in (1, 2)


def test_unit_fiber_counts():
    """|v.Lambda^n| read off by_range: one path of each length into each
    vertex of the two-cycle, and the edge count of each color into each
    vertex of omega(2, (1, 1)), which has sources."""
    assert {v: len(ix) for v, ix in F2.by_range((3,)).items()} == {"u": 1, "v": 1}
    g = omega(2, (1, 1))
    for i in (1, 2):
        into = {v: sum(e.range == v and e.color == i for e in g.all_edges) for v in g.vertices}
        assert {v: len(ix) for v, ix in g.by_range(dg.unit(2, i)).items()} == into
        assert sorted(into.values()) == [0, 0, 1, 1]


def test_vee_mce_on_f1():
    e = F1.edge_path("e")
    f = F1.edge_path("f")
    (mce,) = F1.vee([e], [f])
    assert mce.edges == ("e", "f")


def test_vee_disjoint_on_f2():
    a = F2.edge_path("a")
    b = F2.edge_path("b")
    assert F2.vee([a], [b]) == ()


def test_s_section_predicate():
    a = F2.edge_path("a")
    bab = F2.paths((3,))[1]
    aba = F2.paths((3,))[0]
    assert F2.is_s_section([a, bab])
    assert not F2.is_s_section([a, aba])


def test_by_range_and_by_source_partition():
    table = F2.by_range((2,))
    assert sorted(i for ix in table.values() for i in ix) == [0, 1]
    src = F2.by_source((2,))
    ps = F2.paths((2,))
    for v, ix in src.items():
        assert all(ps[i].source == v for i in ix)


# -- fixtures dispatch -------------------------------------------------------


def test_builtin_fixture_names():
    assert builtin_fixtures("f1").k == 2
    assert builtin_fixtures("f2").k == 1
    assert builtin_fixtures("single_vertex", k=2, edges=(2, 1)).k == 2
    assert builtin_fixtures("omega", k=2, cap=(2, 2)).k == 2
    for name in ("moebius", "random"):
        with pytest.raises(UnknownFixture):
            builtin_fixtures(name)


def test_single_vertex_path_count_is_multinomial():
    g = single_vertex(2, (2, 3))
    # normal forms are free words in each color block
    assert len(g.paths((2, 1))) == 4 * 3


# -- properties --------------------------------------------------------------


@st.composite
def path_and_cuts(draw):
    g = draw(st.sampled_from([F1, F2]))
    if g.k == 1:
        d = (draw(st.integers(0, 4)),)
    else:
        d = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    la = draw(st.sampled_from(g.paths(d)))
    m = tuple(draw(st.integers(0, x)) for x in d)
    n = tuple(draw(st.integers(mi, x)) for mi, x in zip(m, d))
    return g, la, m, n


@given(path_and_cuts())
@settings(max_examples=150, deadline=None)
def test_segment_composes_back(case):
    g, la, m, n = case
    left = g.segment(la, dg.zero(g.k), m)
    mid = g.segment(la, m, n)
    right = g.segment(la, n, la.degree)
    assert g.compose(left, g.compose(mid, right)) == la
    assert mid.degree == dg.sub(n, m)


@given(path_and_cuts())
@settings(max_examples=100, deadline=None)
def test_degree_is_functorial(case):
    g, la, m, _ = case
    mu, nu = g.split(la, m)
    assert dg.add(mu.degree, nu.degree) == la.degree
    assert mu.range == la.range and nu.source == la.source
    assert mu.source == nu.range
