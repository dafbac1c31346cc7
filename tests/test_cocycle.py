"""Cocycle identities, builtin families, coboundaries, and comparison."""

import cmath
from fractions import Fraction

import numpy as np
import pytest

from kgt.cocycle import (
    Coboundary,
    CohomologyCounterexample,
    Cocycle,
    are_cohomologous,
    bicharacter_cocycle,
    c_f,
    c_omega,
    c_sigma,
    c_theta,
    check_cocycle,
    from_table,
    product_cocycle,
    skew_lift,
    tabulate,
    trivial_cocycle,
)
from kgt.constructions import ZlAction, cartesian, crossed_product, cyclic_group, skew_product
from kgt.errors import (
    GraphMismatch,
    ParseError,
    NotACocycle,
    NotAFunctor,
    NotBetaInvariant,
    NotComposable,
)
from kgt.kgraph import fixture_f1, fixture_f2, make_skeleton, validate_skeleton
from kgt.phases import ONE, Phase, parse_angle

F1 = fixture_f1()
F2 = fixture_f2()
QUARTER = Phase.from_turns(Fraction(1, 4))
ONE_RAD = Phase.exact_radians(Fraction(1))


def swap_action(g):
    return ZlAction(g, ({"u": "v", "v": "u"},), ({"a": "b", "b": "a"},))


GAMMA = crossed_product(F2, swap_action(F2), (2,))


def find_path(g, degree, base_edges):
    for p in g.paths(degree):
        if g.project(p)[0].edges == base_edges:
            return p
    raise AssertionError(f"no path of degree {degree} over {base_edges}")


# -- the identity checker ----------------------------------------------------


def test_trivial_cocycle_passes_everywhere():
    for g, cap in [(F1, (2, 2)), (F2, (4,)), (GAMMA, (2, 2))]:
        rep = check_cocycle(trivial_cocycle(g), cap)
        assert rep.ok
        assert rep.triples_checked > 0


def test_c_theta_passes_for_assorted_angles():
    for theta in [QUARTER, ONE_RAD, Phase.from_turns(Fraction(3, 7))]:
        rep = check_cocycle(c_theta(F1, theta), (3, 3))
        assert rep.ok, rep.first_failure


def test_c_theta_values():
    c = c_theta(F1, ONE_RAD)
    ee = F1.paths((2, 0))[0]
    ff = F1.paths((0, 2))[0]
    # first argument contributes its color-2 count, second its color-1 count
    assert c(ff, ee) == ONE_RAD**4
    assert c(ee, ff) == ONE


def test_corrupted_exponent_fails_with_triple():
    def ev(la, mu):
        return ONE_RAD ** (la.degree[1] * mu.degree[0] ** 2)

    rep = check_cocycle(Cocycle(F1, ev, "corrupt"), (2, 2))
    assert not rep.ok
    kind, witness, values = rep.first_failure
    assert kind == "C1"
    assert len(witness) == 3


def test_cocycle_rejects_noncomposable_pair():
    a = F2.edge_path("a")
    with pytest.raises(NotComposable):
        trivial_cocycle(F2)(a, a)


def test_bicharacter_passes_for_any_matrix():
    mat = [[ONE_RAD, QUARTER], [Phase.from_turns(Fraction(1, 3)), ONE_RAD]]
    rep = check_cocycle(bicharacter_cocycle(F1, mat), (2, 2))
    assert rep.ok


# -- crossed-product families ------------------------------------------------


def test_c_f_formula_value():
    # f = one radian per edge, so f(nu) = exp(i |d(nu)|)
    c = c_f(GAMMA, {"a": ONE_RAD, "b": ONE_RAD})
    la = find_path(GAMMA, (1, 1), ("a",))  # source beta^{-1}(v) = u
    nu = find_path(GAMMA, (1, 0), ("a",))
    assert la.source == nu.range
    assert c(la, nu) == ONE_RAD
    two = find_path(GAMMA, (2, 0), ("a", "b"))
    assert la.source == two.range
    assert c(la, two) == ONE_RAD**2


def test_c_f_with_zero_lattice_part_is_one():
    c = c_f(GAMMA, {"a": ONE_RAD, "b": ONE_RAD})
    mu = find_path(GAMMA, (1, 0), ("a",))
    nu = find_path(GAMMA, (1, 0), ("b",))
    assert c(mu, nu) == ONE


def test_c_f_passes_check():
    c = c_f(GAMMA, {"a": ONE_RAD, "b": ONE_RAD})
    assert check_cocycle(c, (2, 2)).ok


def test_c_f_requires_functor():
    skel = make_skeleton(
        2,
        ["*"],
        [("e0", 1, "*", "*"), ("e1", 1, "*", "*"), ("f", 2, "*", "*")],
        [(("e0", "f"), ("f", "e1")), (("e1", "f"), ("f", "e0"))],
    )
    g = validate_skeleton(skel)
    beta = ZlAction(g, ({"*": "*"},), ({"e0": "e0", "e1": "e1", "f": "f"},))
    gamma = crossed_product(g, beta, (1,))
    with pytest.raises(NotAFunctor):
        c_f(gamma, {"e0": ONE, "e1": QUARTER, "f": ONE})


def test_c_f_requires_invariance():
    with pytest.raises(NotBetaInvariant):
        c_f(GAMMA, {"a": ONE, "b": QUARTER})


def test_c_omega_values_and_check():
    c = c_omega(GAMMA, [ONE_RAD])
    nu = find_path(GAMMA, (2, 0), ("b", "a"))
    la = next(p for p in GAMMA.paths((0, 1)) if p.source == nu.range)
    assert c(la, nu) == ONE_RAD**2
    assert check_cocycle(c, (2, 2)).ok


def test_c_omega_trivial_generator():
    c = c_omega(GAMMA, [ONE])
    la = find_path(GAMMA, (1, 1), ("a",))
    mu = next(p for p in GAMMA.paths((1, 0)) if p.range == la.source)
    assert c(la, mu) == ONE


def test_c_sigma_example_value():
    beta = ZlAction(
        F2,
        ({"u": "v", "v": "u"}, {"u": "u", "v": "v"}),
        ({"a": "b", "b": "a"}, {"a": "a", "b": "b"}),
    )
    gamma2 = crossed_product(F2, beta, (1, 1))
    c = c_sigma(gamma2, [[ONE, ONE_RAD], [ONE, ONE]])
    la = next(p for p in gamma2.paths((0, 0, 1)))  # lattice part (0,1)
    mu = next(p for p in gamma2.paths((0, 1, 0)) if p.range == la.source)
    assert c(la, mu) == ONE_RAD
    assert check_cocycle(c, (1, 1, 1)).ok


def test_c_sigma_zero_matrix_trivial():
    c = c_sigma(GAMMA, [[ONE]])
    la = find_path(GAMMA, (1, 1), ("a",))
    mu = next(p for p in GAMMA.paths((1, 1)) if p.range == la.source)
    assert c(la, mu) == ONE


# -- lifts and products ------------------------------------------------------


def test_skew_lift_matches_projection():
    base_c = c_theta(F1, QUARTER)
    skew = skew_product(F1, cyclic_group(2), {"e": "1", "f": "0"})
    lifted = skew_lift(base_c, skew)
    for la in skew.paths((1, 1)):
        for mu in skew.paths((1, 0)):
            if la.source != mu.range:
                continue
            p, _ = skew.project(la)
            q, _ = skew.project(mu)
            assert lifted(la, mu) == base_c(p, q)
    assert check_cocycle(lifted, (2, 2)).ok


def test_skew_lift_of_trivial_is_trivial():
    skew = skew_product(F2, cyclic_group(2), {"a": "1", "b": "1"})
    lifted = skew_lift(trivial_cocycle(F2), skew)
    for la in skew.paths((2,)):
        mu = next(p for p in skew.paths((1,)) if p.range == la.source)
        assert lifted(la, mu) == ONE


def test_skew_lift_graph_mismatch():
    skew = skew_product(F2, cyclic_group(2), {"a": "1", "b": "1"})
    with pytest.raises(GraphMismatch):
        skew_lift(c_theta(F1, QUARTER), skew)


def test_product_cocycle_values_and_check():
    prod = cartesian(F1, F2)
    c = product_cocycle(c_theta(F1, QUARTER), trivial_cocycle(F2), prod)
    for la in prod.paths((1, 1, 1)):
        mu = next(p for p in prod.paths((1, 0, 1)) if p.range == la.source)
        l1, _ = prod.project(la)
        m1, _ = prod.project(mu)
        assert c(la, mu) == c_theta(F1, QUARTER)(l1, m1)
    assert check_cocycle(c, (1, 1, 2)).ok


def test_product_cocycle_mismatch():
    prod = cartesian(F1, F2)
    with pytest.raises(GraphMismatch):
        product_cocycle(trivial_cocycle(F2), trivial_cocycle(F2), prod)


@pytest.mark.parametrize(
    "angle",
    [Fraction(1, 3), np.int64(1), 0.1, 2j, "1/3 turn", "1/3 turn + 2 rad", QUARTER],
    ids=["fraction", "numpy-int", "float", "complex", "turn", "turn-and-rad", "phase"],
)
def test_constructors_read_an_angle_as_parse_angle_does(angle):
    """bicharacter_cocycle, c_theta, c_f (through functor_from_edge_table),
    c_omega, c_sigma and from_table each take an outside angle to
    parse_angle(angle): a Fraction or numpy integer is exact radians, a float
    is float radians, and a string is the wire format."""
    want = parse_angle(angle)

    def same(got):
        return got.is_exact == want.is_exact and got.close(want, 1e-12)

    e, f = F1.paths((1, 0))[0], F1.paths((0, 1))[0]
    assert same(c_theta(F1, angle)(f, e))
    assert same(bicharacter_cocycle(F1, [[ONE, ONE], [angle, ONE]])(f, e))
    lat = GAMMA.paths((0, 1))[0]
    lat2 = next(p for p in GAMMA.paths((0, 1)) if p.range == lat.source)
    base = next(p for p in GAMMA.paths((1, 0)) if p.range == lat.source)
    assert same(c_f(GAMMA, {"a": angle, "b": angle})(lat, base))
    assert same(c_omega(GAMMA, [angle])(lat, base))
    assert same(c_sigma(GAMMA, [[angle]])(lat, lat2))
    entries = dict.fromkeys(tabulate(trivial_cocycle(F1), (1, 1)), ONE)
    entries[(f.edges, e.edges)] = angle
    assert same(from_table(F1, entries, (1, 1), check=False)(f, e))


def test_constructors_refuse_a_bool_angle():
    with pytest.raises(ParseError):
        c_theta(F1, True)
    with pytest.raises(ParseError):
        bicharacter_cocycle(F2, [[False]])


# -- tables ------------------------------------------------------------------


def test_table_round_trip():
    c = c_theta(F1, QUARTER)
    entries = tabulate(c, (2, 2))
    c2 = from_table(F1, entries, (2, 2))
    la = F1.paths((0, 1))[0]
    mu = F1.paths((1, 1))[0]
    assert c2(la, mu) == c(la, mu)


def test_corrupted_table_rejected():
    c = trivial_cocycle(F1)
    entries = tabulate(c, (2, 2))
    ef = F1.paths((1, 1))[0]
    e = F1.paths((1, 0))[0]
    entries[(e.edges, ef.edges)] = QUARTER
    with pytest.raises(NotACocycle):
        from_table(F1, entries, (2, 2))


# -- coboundaries and comparison ---------------------------------------------


def seeded_b(g):
    def b(la):
        if la.is_vertex:
            return ONE
        i = g.path_index(la.degree)[la]
        return Phase.from_turns(Fraction((i + sum(la.degree)) % 7, 7))

    return Coboundary(g, b, name="seeded")


def test_delta_b_is_a_cocycle():
    for g, cap in [(F1, (2, 2)), (F2, (4,))]:
        rep = check_cocycle(seeded_b(g).delta(), cap)
        assert rep.ok, rep.first_failure


def test_equal_cocycles_give_unit_coboundary():
    c = c_theta(F1, QUARTER)
    out = are_cohomologous(c, c, (2, 2))
    assert isinstance(out, Coboundary)
    for p in F1.paths((1, 1)):
        assert out(p) == ONE


def test_recovers_a_seeded_coboundary():
    for g, cap in [(F1, (2, 2)), (F2, (3,))]:
        base = trivial_cocycle(g)
        twisted = seeded_b(g).delta()
        out = are_cohomologous(twisted, base, cap)
        assert isinstance(out, Coboundary), out
        for total in [cap]:
            for la in g.paths(total):
                mu, nu = g.split(la, tuple(x // 2 for x in total))
                db = out(mu) * out(nu) * out(g.compose(mu, nu)).conj()
                assert db == twisted(mu, nu)


def test_c_theta_not_cohomologous_to_trivial_by_propagation():
    out = are_cohomologous(c_theta(F1, ONE_RAD), trivial_cocycle(F1), (2, 2))
    assert isinstance(out, CohomologyCounterexample)


def test_c_theta_counterexample_names_the_over_determined_edge():
    # the square e.f = f.e asks b(f) = b(f) * c(e, f) conj(c(f, e)), and c(f, e) = 1 rad
    out = are_cohomologous(c_theta(F1, ONE_RAD), trivial_cocycle(F1), (2, 2))
    assert out.reason == "square relations over-determine an edge value"
    assert out.witness == ("f", ONE, ONE_RAD)


def test_report_counts_are_plausible():
    rep = check_cocycle(trivial_cocycle(F2), (3,))
    # 2 paths per length, times the 1, 3, 6, 10 splits of lengths 0..3 into 3 parts
    assert rep.triples_checked == 2 * (1 + 3 + 6 + 10)
    assert rep.triples_checked > 0


def test_unit_law_holds_by_construction():
    def ev(la, mu):
        raise AssertionError(f"evaluator asked about {(la, mu)}")

    c = Cocycle(F2, ev, name="raising")
    for la in F2.paths((0,)) + F2.paths((2,)):
        assert c(la, F2.vertex_path(la.source)) is ONE
        assert c(F2.vertex_path(la.range), la) is ONE
    assert check_cocycle(c, (0,)).ok
