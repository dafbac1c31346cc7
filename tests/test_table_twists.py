"""Twist tables against their definitions.

A Twist computes its fields once per distinct value object and gathers them
through codes; every field must equal, bit for bit, the entry-by-entry
definition `oracle.twist_fields`.  A table cocycle (`from_table`) builds
twist(m, n) from the value objects of its entries; the degree-only builtins
repeat one value, and coboundaries and pointwise products combine the codes
of other twists.  Their entries, and every refusal, must agree with the same
evaluator in a Cocycle built without that hook, whose twist asks for one
pair at a time.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgt import degrees as dg
from kgt.cli import emit_cocycle_doc, emit_graph_doc, load_cocycle, main
from kgt.cocycle import (
    Coboundary,
    Cocycle,
    Twist,
    bicharacter_cocycle,
    c_omega,
    c_sigma,
    c_theta,
    check_cocycle,
    from_table,
    pointwise_product,
    tabulate,
    trivial_cocycle,
)
from kgt.constructions import crossed_product, identity_action
from kgt.errors import CapTooSmallForRequestedDegree, ParseError
from kgt.kgraph import KGraph, fixture_f1, fixture_f2, make_skeleton, single_vertex, validate_skeleton
from kgt.phases import ONE, Phase, parse_angle, product
from kgt.verify import SuiteConfig, default_instances, random_cocycle, random_kgraph
from oracle import twist_fields

F1 = fixture_f1()
F2 = fixture_f2()
SV = single_vertex(2, (2, 2))
# primes just above 2**40: their common multiple overflows int64
BIG_PRIMES = (1099511627791, 1099511627803, 1099511627831, 1099511627873)


def per_pair(c):
    return Cocycle(c.graph, c.evaluator)


def _bits(arr):
    return arr.view(np.uint8).tobytes()


def assert_fields(t, phases):
    """t's fields equal, bit for bit, the entry-by-entry fields of `phases`."""
    values, modulus, ints = twist_fields(phases)
    assert t.values.dtype == values.dtype and _bits(t.values) == _bits(values)
    assert t.modulus.dtype == modulus.dtype and _bits(t.modulus) == _bits(modulus)
    if ints is None:
        assert t.ints is None
    else:
        (gt, gtd, gr, grd), (wt, wtd, wr, wrd) = t.ints, ints
        assert (gtd, grd) == (wtd, wrd)
        assert gt.dtype == gr.dtype == np.int64
        assert np.array_equal(gt, wt) and np.array_equal(gr, wr)


def assert_same_twist(got, want):
    """got holds want's entries, and its fields are their definitions."""
    assert list(got.phases) == list(want.phases)
    assert [p.is_exact for p in got.phases] == [p.is_exact for p in want.phases]
    assert_fields(got, want.phases)


def assert_same_twists(c, cap):
    """Every twist(m, n) with m + n <= cap against the per-pair one."""
    oracle = per_pair(c)
    for total in dg.degrees_upto(dg.as_degree(cap, c.graph.k)):
        for m, n in dg.splits(total, 2):
            assert_same_twist(c.twist(m, n), oracle.twist(m, n))


def as_table(c, cap):
    return from_table(c.graph, tabulate(c, cap), cap)


def shared_floats(entries):
    """The entries as float phases, one Phase object per distinct exact value,
    so that the float table's codes repeat."""
    seen = {}
    return {key: seen.setdefault(p, Phase.from_complex(complex(p))) for key, p in entries.items()}


def _subjects():
    g3 = random_kgraph(5, k=3, max_vertices=2)
    return [
        (c_theta(F1, Phase.from_turns(Fraction(1, 8))), (2, 2)),
        (bicharacter_cocycle(F2, [[Phase.from_turns(Fraction(1, 3))]]), (4,)),
        (random_cocycle(11, single_vertex(2, (2, 1))), (2, 2)),
        (random_cocycle(12, g3), (1, 1, 1)),
    ]


# -- fields ------------------------------------------------------------------


@pytest.mark.parametrize("subject", range(4))
def test_coded_twists_equal_the_per_pair_twists(subject):
    c, cap = _subjects()[subject]
    table = as_table(c, cap)
    assert_same_twists(table, cap)
    entries = tabulate(c, cap)
    assert_same_twists(from_table(c.graph, shared_floats(entries), cap), cap)
    floats = {key: Phase.from_complex(complex(p)) for key, p in entries.items()}
    assert_same_twists(from_table(c.graph, floats, cap), cap)


def test_battery_table_twists_equal_the_per_pair_twists():
    """Every battery cocycle, through its own hook and as a table."""
    for inst in default_instances(SuiteConfig()):
        cap = (2,) * inst.graph.k if inst.graph.k <= 2 else (1,) * inst.graph.k
        assert_same_twists(inst.cocycle, cap)
        assert_same_twists(as_table(inst.cocycle, cap), cap)


def test_table_twists_are_coded_and_cached(monkeypatch):
    """A table twist reads its entries through factor_indices, never split."""
    c = as_table(c_theta(F1, Phase.from_turns(Fraction(1, 8))), (2, 2))
    split, calls = KGraph.split, []
    monkeypatch.setattr(KGraph, "split", lambda g, *args: calls.append(args) or split(g, *args))
    t = c.twist((1, 0), (0, 1))
    assert len(c.twist((1, 1), (1, 0))) > 0
    assert calls == []
    assert c.twist((1, 0), (0, 1)) is t
    # a vertex leg is (C2)'s, not the table's
    assert list(c.twist((0, 0), (1, 1)).phases) == [ONE]


# a new Phase object per draw, so that equal values can be distinct objects
FRESH_PHASES = st.one_of(
    st.fractions(max_denominator=12).map(Phase.from_turns),
    st.fractions(max_denominator=12).map(Phase.exact_radians),
    st.sampled_from(BIG_PRIMES).map(lambda p: Phase.from_turns(Fraction(1, p))),
    st.just(Fraction(2**64 + 1, 3)).map(Phase.exact_radians),
    st.sampled_from([1.0, -1.0]).flatmap(
        lambda re: st.sampled_from([0.0, -0.0]).map(lambda im: Phase(None, None, complex(re, im)))
    ),
    st.floats(-10, 10).map(Phase.from_radians),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(FRESH_PHASES, min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=24)
))
def test_twist_fields_equal_their_definition(phases):
    """Repeated objects, equal but distinct objects (signed zeros, equal
    fractions), exact and float mixes and big-prime denominators: each field
    is the entry-by-entry one, and the entries are the objects given."""
    t = Twist(phases)
    assert len(t) == len(phases) and all(a is b for a, b in zip(t.phases, phases))
    assert_fields(t, phases)


def test_signed_zero_imaginary_parts_keep_their_bits():
    """1+0j and 1-0j are equal and hash alike; the codes keep them apart."""
    pos, neg = Phase(None, None, complex(1.0, 0.0)), Phase(None, None, complex(1.0, -0.0))
    entries = {key: (pos, neg)[i % 2] for i, key in enumerate(sorted(tabulate(c_theta(SV, ONE), (2, 2))))}
    c = from_table(SV, entries, (2, 2))
    assert_same_twists(c, (2, 2))
    signs = {math.copysign(1.0, z.imag) for z in c.twist((1, 0), (0, 1)).values}
    assert signs == {1.0, -1.0}


def test_big_prime_denominators_have_no_integer_encoding():
    mat = [[Phase.from_turns(Fraction(1, p)) for p in BIG_PRIMES[:2]],
           [Phase.from_turns(Fraction(1, p)) for p in BIG_PRIMES[2:]]]
    c = as_table(bicharacter_cocycle(F1, mat), (2, 2))
    assert c.twist((1, 1), (1, 1)).ints is None
    assert_same_twists(c, (2, 2))


def test_integer_encoding_uses_only_the_values_a_twist_holds():
    """A twist's denominators come from the values it holds: the twists that
    meet one big prime, or none, keep their integer encoding, as the
    per-pair twist of the same values does."""
    mat = [[Phase.from_turns(Fraction(1, 4)), Phase.from_turns(Fraction(1, BIG_PRIMES[0]))],
           [Phase.from_turns(Fraction(1, BIG_PRIMES[1])), Phase.exact_radians(Fraction(2**64 + 1, 3))]]
    c = as_table(bicharacter_cocycle(F1, mat), (2, 2))
    assert c.twist((1, 0), (1, 0)).ints[1] == 4
    assert c.twist((1, 0), (0, 1)).ints[1] == BIG_PRIMES[0]
    assert c.twist((0, 1), (0, 1)).ints is None
    assert c.twist((1, 1), (1, 1)).ints is None
    assert_same_twists(c, (2, 2))


# -- builtin hooks -----------------------------------------------------------


def _edge_labels(g, angle):
    """A different phase on every edge: the i-th edge gets angle(i)."""
    return {e.ident: angle(i) for i, e in enumerate(g.all_edges)}


def _edge_coboundary(g, labels, name="b"):
    return Coboundary(g, lambda la: product(labels[e] for e in la.edges), name)


def _hooked_subjects():
    exact = _edge_labels(SV, lambda i: Phase.from_turns(Fraction(1, 3 + 2 * i)))
    floats = _edge_labels(SV, lambda i: Phase.from_radians(0.3 + 0.7 * i))
    cob = {"kind": "builtin", "name": "coboundary", "params": {"edge_phases": {"e": 0.3, "f": 1.1}}}
    float_theta = c_theta(SV, parse_angle(0.7))
    gamma = crossed_product(F2, identity_action(F2, 1))
    return [
        (c_theta(F1, parse_angle(0.7)), (3, 3)),
        (float_theta, (2, 2)),
        (c_sigma(gamma, [[parse_angle(0.4)]]), (2, 2)),
        (c_omega(gamma, [Phase.from_turns(Fraction(1, 5))]), (2, 2)),
        (load_cocycle(cob, F1), (3, 3)),
        (_edge_coboundary(SV, exact).delta(), (2, 2)),
        (_edge_coboundary(SV, floats).delta(), (2, 2)),
        (pointwise_product(_edge_coboundary(SV, exact).delta(), float_theta), (2, 2)),
        (pointwise_product(float_theta, random_cocycle(11, SV)), (2, 2)),
    ]


@pytest.mark.parametrize("subject", range(9))
def test_hooked_twists_equal_the_per_pair_twists(subject):
    """Float radians, the CLI's float coboundary on F1, per-edge path
    functions and a product with a float factor: each hooked twist holds the
    per-pair entries, bit for bit."""
    c, cap = _hooked_subjects()[subject]
    assert c._tabulate is not None
    assert_same_twists(c, cap)


def test_degree_only_twists_repeat_one_evaluation():
    c = c_theta(SV, parse_angle(0.7))
    calls = []
    ev = c.evaluator
    c.evaluator = lambda la, mu: calls.append((la, mu)) or ev(la, mu)
    t = c.twist((1, 1), (1, 0))
    assert len(t) == len(SV.paths((2, 1))) > 1 and len(calls) == 1
    assert len({id(p) for p in t.phases}) == 1
    assert calls == [SV.split(SV.paths((2, 1))[0], (1, 1))]


def test_products_multiply_once_per_distinct_pair_of_codes():
    labels = _edge_labels(SV, lambda i: Phase.from_turns(Fraction(i % 2, 4)))
    theta = c_theta(SV, Phase.from_turns(Fraction(1, 8)))
    flat = bicharacter_cocycle(SV, [[ONE, ONE], [ONE, ONE]])
    for c1, c2 in [(_edge_coboundary(SV, labels).delta(), theta), (theta, flat)]:
        t, t1, t2 = (c.twist((1, 1), (1, 1)) for c in (pointwise_product(c1, c2), c1, c2))
        assert len(t) == 16 and len(t._distinct) == len(set(zip(t1._codes.tolist(), t2._codes.tolist())))
    assert len(t._distinct) == 1


def test_coboundary_tables_code_exact_values_by_value():
    """A b that depends only on the degree, with a new Phase on every path:
    its exact values share one code per degree, so each twist is one
    product; float values stay coded by identity, and exact values that
    differ only in their radians keep apart."""
    exact = Coboundary(SV, lambda la: Phase.from_turns(Fraction(dg.total(la.degree), 7))).delta()
    floats = Coboundary(SV, lambda la: Phase.from_radians(0.1 * dg.total(la.degree))).delta()
    rads = Coboundary(SV, lambda la: Phase.exact_radians(SV.path_index(la.degree)[la])).delta()
    t, f = (c.twist((1, 1), (1, 0)) for c in (exact, floats))
    assert len(t) == len(SV.paths((2, 1))) > 1 and len(t._distinct) == 1
    assert len(f._distinct) == len(f)
    for c in (exact, floats, rads):
        assert_same_twists(c, (2, 2))


# -- refusals ----------------------------------------------------------------


def _raised(fn):
    with pytest.raises(CapTooSmallForRequestedDegree) as info:
        fn()
    return type(info.value), str(info.value), info.value.witness


@pytest.mark.parametrize("stored", [(1, 1), (2, 2)])
@pytest.mark.parametrize("m, n", [((1, 1), (1, 0)), ((2, 0), (0, 1)), ((0, 2), (1, 0))])
def test_short_cap_table_refuses_as_the_per_pair_twist(m, n, stored):
    """Past the cap a pair is refused, also when the table holds its entry."""
    entries = tabulate(c_theta(F1, Phase.from_turns(Fraction(1, 8))), stored)
    c = from_table(F1, entries, (1, 1))
    assert _raised(lambda: c.twist(m, n)) == _raised(lambda: per_pair(c).twist(m, n))
    assert _raised(lambda: check_cocycle(c, (2, 2))) == _raised(lambda: check_cocycle(per_pair(c), (2, 2)))


def test_missing_entry_refuses_as_the_per_pair_twist():
    entries = tabulate(c_theta(SV, Phase.from_turns(Fraction(1, 8))), (2, 2))
    missing = sorted(key for key in entries if len(key[0]) == 1 and len(key[1]) == 1)[2]
    del entries[missing]
    c = from_table(SV, entries, (2, 2))
    m, n = (dg.unit(2, SV.edge(leg[0]).color) for leg in missing)
    got = _raised(lambda: c.twist(m, n))
    assert got == _raised(lambda: per_pair(c).twist(m, n))
    assert got[2][0].edges == missing[0] and got[2][1].edges == missing[1]
    assert _raised(lambda: check_cocycle(c, (2, 2))) == _raised(lambda: check_cocycle(per_pair(c), (2, 2)))


def test_empty_degree_past_the_cap_is_an_empty_twist():
    """Past the cap, a pair of degrees with no paths asks for no entry."""
    g = validate_skeleton(make_skeleton(1, ["u", "v"], [("a", 1, "u", "v")]))
    c = as_table(trivial_cocycle(g), (1,))
    assert len(c.twist((1,), (1,))) == len(per_pair(c).twist((1,), (1,))) == 0
    assert_same_twist(c.twist((1,), (1,)), per_pair(c).twist((1,), (1,)))


# -- table documents ---------------------------------------------------------


def _doc(angles):
    """A cap-(1, 1) table on SV whose first entries carry `angles`; at that cap
    every triple has a vertex leg, so any values pass (C1)."""
    doc = emit_cocycle_doc(c_theta(SV, ONE), (1, 1))
    for ent, ang in zip(doc["entries"], angles):
        ent[2] = ang
    return doc


def test_numeric_and_string_angles_load_as_distinct_phases():
    angles = [1, 1.0, "1", 0.0, -0.0]
    doc = json.loads(json.dumps(_doc(angles)))
    c = load_cocycle(doc, SV)
    assert {p.is_exact for p in tabulate(c, (1, 1)).values()} == {True, False}
    got = [c(SV.path_from_edges(le), SV.path_from_edges(me)) for le, me, _ in doc["entries"][: len(angles)]]
    for p, ang in zip(got, angles):
        want = parse_angle(ang)
        assert p.is_exact == want.is_exact and p == want
        assert _bits(np.array([p.value()])) == _bits(np.array([want.value()]))
    assert (got[0].rads, got[0].turns) == (1, 0)
    assert not got[1].is_exact
    assert (got[2].rads, got[2].turns) == (0, 0)
    assert len({id(p) for p in got}) == len(got)
    assert_same_twists(c, (1, 1))


def test_repeated_angle_strings_share_one_phase():
    doc = emit_cocycle_doc(c_theta(SV, Phase.from_turns(Fraction(1, 8))), (2, 2))
    c = load_cocycle(doc, SV)
    phases = c.twist((1, 0), (1, 1)).phases
    assert len({id(p) for p in phases}) < len(phases)
    assert_same_twists(c, (2, 2))


def _with(edit):
    doc = _doc([])
    edit(doc)
    return doc


def _set_entry(i, value):
    return lambda d: d["entries"].__setitem__(i, value)


def _set_angle(i, value):
    return lambda d: d["entries"][i].__setitem__(2, value)


@pytest.mark.parametrize(
    "edit, where",
    [
        pytest.param(lambda d: d.update(cap=3), "cap", id="cap-not-list"),
        pytest.param(lambda d: d.update(cap=["a", 1]), r"cap\[0\]", id="cap-string"),
        pytest.param(lambda d: d.update(cap=[1, 1.5]), r"cap\[1\]", id="cap-float"),
        pytest.param(lambda d: d.update(cap=[True, 1]), r"cap\[0\]", id="cap-bool"),
        pytest.param(lambda d: d.update(cap=[1]), "cap", id="cap-short"),
        pytest.param(lambda d: d.update(cap=[1, -1]), "cap", id="cap-negative"),
        pytest.param(lambda d: d.update(entries=5), "entries", id="entries-not-list"),
        pytest.param(_set_entry(1, 5), r"entries\[1\]", id="entry-not-list"),
        pytest.param(_set_entry(1, [["a"], ["b"]]), r"entries\[1\]", id="entry-not-triple"),
        pytest.param(lambda d: d["entries"][2].__setitem__(0, "ab"), r"entries\[2\]\[0\]", id="path-string"),
        pytest.param(lambda d: d["entries"][2].__setitem__(1, [5]), r"entries\[2\]\[1\]", id="edge-id-not-string"),
        pytest.param(lambda d: d["entries"].append(list(d["entries"][3])), r"entries\[8\]", id="pair-twice"),
        pytest.param(_set_angle(3, "inf"), r"entries\[3\]", id="angle-inf"),
        pytest.param(_set_angle(3, "nan"), r"entries\[3\]", id="angle-nan"),
        pytest.param(_set_angle(3, float("nan")), r"entries\[3\]", id="angle-json-nan"),
        pytest.param(_set_angle(3, float("-inf")), r"entries\[3\]", id="angle-json-infinity"),
        pytest.param(_set_angle(3, "1/0"), r"entries\[3\]", id="angle-zero-denominator"),
    ],
)
def test_malformed_table_documents_exit_2(tmp_path, capsys, edit, where):
    doc = _with(edit)
    with pytest.raises(ParseError, match=where):
        load_cocycle(doc, SV)
    graph, cocycle = tmp_path / "g.json", tmp_path / "c.json"
    graph.write_text(json.dumps(emit_graph_doc(SV)))
    cocycle.write_text(json.dumps(doc))
    assert main(["check", str(graph), str(cocycle), "--suite", "def-3.1"]) == 2
    assert "ParseError" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["inf", "-inf", "nan", "Infinity", float("inf"), float("nan")])
def test_non_finite_radians_are_refused(text):
    with pytest.raises(ParseError, match="finite"):
        parse_angle(text)

