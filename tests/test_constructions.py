"""Cartesian, skew, and crossed products, with the validator as oracle."""

import pytest

from kgt import degrees as dg
from kgt.constructions import (
    CartesianProductGraph,
    CrossedProductGraph,
    SkewProductGraph,
    ZlAction,
    cartesian,
    crossed_product,
    cyclic_group,
    identity_action,
    skew_product,
    trivial_group,
    validate_action,
)
from kgt.errors import MalformedSkeleton, NotAFunctor
from kgt.kgraph import fixture_f1, fixture_f2, single_vertex

F1 = fixture_f1()
F2 = fixture_f2()


def swap_action(g):
    """The order-2 symmetry of the two-cycle graph."""
    return ZlAction(g, ({"u": "v", "v": "u"},), ({"a": "b", "b": "a"},))


# -- actions -----------------------------------------------------------------


def test_identity_action_validates():
    assert validate_action(F2, identity_action(F2)) == (True, None)


def test_swap_action_validates():
    assert validate_action(F2, swap_action(F2)) == (True, None)


def test_action_with_broken_endpoints_rejected():
    beta = ZlAction(F2, ({"u": "v", "v": "u"},), ({"a": "a", "b": "b"},))
    ok, witness = validate_action(F2, beta)
    assert not ok
    assert witness[0] == "endpoints"


def test_noncommuting_generators_rejected():
    g = single_vertex(1, (3,))
    ids = [e.ident for e in g.all_edges]
    cyc = {ids[0]: ids[1], ids[1]: ids[2], ids[2]: ids[0]}
    swp = {ids[0]: ids[1], ids[1]: ids[0], ids[2]: ids[2]}
    beta = ZlAction(g, ({"*": "*"}, {"*": "*"}), (cyc, swp))
    ok, witness = validate_action(g, beta)
    assert not ok
    assert witness[0] == "commute"


# -- cartesian ---------------------------------------------------------------


def test_cartesian_f2_f2_counts():
    g = cartesian(F2, F2)
    assert g.k == 2
    assert len(g.vertices) == 4
    assert len(g.paths((1, 1))) == 4


def test_cartesian_path_count_is_product():
    g = cartesian(F2, F1)
    for m in [(0,), (1,), (2,)]:
        for n in [(0, 0), (1, 1), (2, 0)]:
            assert len(g.paths(m + n)) == len(F2.paths(m)) * len(F1.paths(n))


def test_cartesian_of_loops_matches_f1_counts():
    loop = single_vertex(1, (1,))
    g = cartesian(loop, loop)
    for n in dg.degrees_upto((2, 2)):
        assert len(g.paths(n)) == len(F1.paths(n)) == 1


def test_cartesian_project_round_trip():
    g = cartesian(F2, F2)
    for la in g.paths((2, 1)):
        p1, p2 = g.project(la)
        assert p1.degree == (2,) and p2.degree == (1,)
        assert la.range == f"{p1.range}|{p2.range}"
        assert la.source == f"{p1.source}|{p2.source}"


def test_nested_cartesian_projects_through_each_level():
    """The ids of cartesian(cartesian(F2, F2), F2) hold the separator more
    than once; projecting twice gives three F2 paths that join to the
    endpoints, and every triple of factor paths comes from one path."""
    inner = cartesian(F2, F2)
    g = cartesian(inner, F2)
    for n in [(0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 1, 1), (2, 0, 1)]:
        seen = set()
        for la in g.paths(n):
            left, p3 = g.project(la)
            p1, p2 = inner.project(left)
            assert (p1.degree, p2.degree, p3.degree) == ((n[0],), (n[1],), (n[2],))
            assert la.range == f"{p1.range}|{p2.range}|{p3.range}"
            assert la.source == f"{p1.source}|{p2.source}|{p3.source}"
            seen.add(tuple((p.range, p.edges) for p in (p1, p2, p3)))
        assert len(seen) == len(g.paths(n)) == len(F2.paths(n[:1])) * len(F2.paths(n[1:2])) * len(F2.paths(n[2:]))
    la = g.paths((1, 0, 1))[0]
    mu = next(m for m in g.paths((0, 1, 1)) if m.range == la.source)
    (l12, l3), (m12, m3) = g.project(la), g.project(mu)
    assert g.project(g.compose(la, mu)) == (inner.compose(l12, m12), F2.compose(l3, m3))


def test_cartesian_preserves_source_freeness():
    assert cartesian(F2, F1).is_source_free() == (True, None)


# -- skew product ------------------------------------------------------------


def test_skew_functor_validated():
    with pytest.raises(NotAFunctor):
        skew_product(F2, cyclic_group(2), {"a": "1"})  # missing b


def test_skew_by_trivial_group_keeps_counts():
    g = skew_product(F2, trivial_group(), {"a": "0", "b": "0"})
    for n in range(4):
        assert len(g.paths((n,))) == len(F2.paths((n,)))


def test_skew_f2_z2_both_edges_nontrivial():
    # every step flips both the u/v side and the group bit, so the four
    # vertices fall into two closed 2-cycles
    g = skew_product(F2, cyclic_group(2), {"a": "1", "b": "1"})
    assert isinstance(g, SkewProductGraph)
    assert len(g.vertices) == 4
    assert len(g.paths((1,))) == 4
    closed = [p for p in g.paths((2,)) if p.range == p.source]
    assert len(closed) == 4


def test_skew_f2_z2_single_twist_is_a_four_cycle():
    g = skew_product(F2, cyclic_group(2), {"a": "1", "b": "0"})
    # no closed path shorter than the full tour of the 4 vertices
    assert not [p for p in g.paths((2,)) if p.range == p.source]
    closed = [p for p in g.paths((4,)) if p.range == p.source]
    assert len(closed) == 4


def test_skew_degree_and_projection():
    g = skew_product(F2, cyclic_group(2), {"a": "1", "b": "1"})
    for la in g.paths((3,)):
        base, a0 = g.project(la)
        assert base.degree == la.degree
        assert la.range == f"{base.range}|{a0}"


def test_skew_preserves_source_freeness():
    g = skew_product(F2, cyclic_group(3), {"a": "2", "b": "1"})
    assert g.is_source_free() == (True, None)


# -- crossed product ---------------------------------------------------------


def test_crossed_rejects_invalid_action():
    beta = ZlAction(F2, ({"u": "v", "v": "u"},), ({"a": "a", "b": "b"},))
    with pytest.raises(MalformedSkeleton):
        crossed_product(F2, beta)


def test_crossed_f2_swap_compose_applies_action():
    g = crossed_product(F2, swap_action(F2))
    assert isinstance(g, CrossedProductGraph)
    assert g.k == 2
    # the degree-(1,1) path projecting to (a, 1)
    a1 = next(p for p in g.paths((1, 1)) if g.project(p)[0].edges == ("a",))
    sq = g.compose(a1, a1)
    base, m = g.project(sq)
    assert base.edges == ("a", "b")  # a . beta(a)
    assert m == (2,)


def test_crossed_path_counts_match_base():
    g = crossed_product(F2, swap_action(F2))
    for p in range(3):
        for m in range(3):
            assert len(g.paths((p, m))) == len(F2.paths((p,)))


def test_crossed_paths_and_compose_at_high_lattice_degrees():
    # the crossed product is a plain (k+l)-graph: lattice degrees 3 and 4 hold
    # one lift of each base path, and compose like any other degree
    g = crossed_product(F2, swap_action(F2))
    for p in range(3):
        for m in (3, 4):
            assert len(g.paths((p, m))) == len(F2.paths((p,)))
    a1 = g.paths((0, 2))[0]
    b1 = next(p for p in g.paths((0, 1)) if p.range == a1.source)
    composite = g.compose(a1, b1)
    assert composite.degree == (0, 3)
    assert g.split(composite, (0, 2)) == (a1, b1)
    long = g.paths((1, 4))[0]
    assert g.compose(*g.split(long, (1, 1))) == long


def test_crossed_trivial_action_matches_cartesian_counts():
    g = crossed_product(F2, identity_action(F2))
    h = cartesian(F2, single_vertex(1, (1,)))
    for p in range(3):
        for m in range(3):
            assert len(g.paths((p, m))) == len(h.paths((p, m)))


def test_crossed_of_rank_two_base_passes_hexagon():
    g = crossed_product(F1, identity_action(F1))
    assert g.k == 3
    assert len(g.paths((1, 1, 1))) == 1


def test_crossed_degree_functor():
    g = crossed_product(F2, swap_action(F2))
    for la in g.paths((1, 2)):
        base, m = g.project(la)
        assert la.degree == base.degree + m


def test_crossed_preserves_source_freeness():
    g = crossed_product(F2, swap_action(F2))
    assert g.is_source_free() == (True, None)
