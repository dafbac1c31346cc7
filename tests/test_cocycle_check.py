"""The array form of check_cocycle and tabulate against the per-triple loop.

`oracle.check_by_triples` and `tabulate_by_split` are the definitions: they
walk every composable triple (pair), factored through the squares by
`oracle.split_by_squares`, and call the cocycle on it; (C2) holds by
construction, so there is no pair loop for it.  The library
checks the same identities on cached twist tables; every report field,
including the first failing triple and its Phase values, must agree.
"""

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgt import cocycle
from kgt import degrees as dg
from kgt.cli import _creations, emit_cocycle_doc, emit_graph_doc, main
from kgt.cocycle import (
    Coboundary,
    Cocycle,
    bicharacter_cocycle,
    c_theta,
    check_cocycle,
    from_table,
    tabulate,
)
from kgt.errors import CapTooSmallForRequestedDegree, DegreeOutOfRange, NotComposable
from kgt.fock import FockSpace
from kgt.kgraph import KGraph, fixture_f1, fixture_f2, omega, single_vertex
from kgt.phases import ONE, Phase, format_angle
from kgt.verify import SuiteConfig, default_instances, random_cocycle, random_kgraph
from oracle import check_by_triples, split_by_squares

F1 = fixture_f1()
F2 = fixture_f2()
SV = single_vertex(2, (2, 1))
# four primes just above 2**40: table denominators whose common multiple
# overflows int64
BIG_PRIMES = (1099511627791, 1099511627803, 1099511627831, 1099511627873)


# -- the per-triple definitions ----------------------------------------------


def tabulate_by_split(c, cap):
    g = c.graph
    cap = dg.as_degree(cap, g.k)
    out = {}
    for total in dg.degrees_upto(cap):
        for m, n in dg.splits(total, 2):
            if not any(m) or not any(n):
                continue
            for la in g.paths(total):
                mu, nu = split_by_squares(g, la, m)
                out[(mu.edges, nu.edges)] = c(mu, nu)
    return out


def _fields(rep):
    return rep.ok, rep.triples_checked, rep.first_failure


def assert_same(c, cap, tol=1e-9):
    want = check_by_triples(c, cap, tol)
    got = check_cocycle(c, cap, tol)
    assert _fields(got) == _fields(want)
    if want.first_failure is not None:
        assert type(got.first_failure[2]) is type(want.first_failure[2])
    return got


def suite_cap(g):
    return (2,) * g.k if g.k <= 2 else (1,) * g.k


# -- table fixtures ----------------------------------------------------------


def table_cocycle(g, cap, entries):
    return from_table(g, entries, cap)


def as_float_entries(entries):
    return {key: Phase.from_complex(complex(p)) for key, p in entries.items()}


def corrupt(entries, rng):
    """Move one entry, at a random position, by a phase well away from 1:
    an exact one by whole twelfths of a turn, a float one by float radians."""
    keys = sorted(entries)
    key = keys[int(rng.integers(0, len(keys)))]
    if entries[key].is_exact:
        shift = Phase.from_turns(Fraction(int(rng.integers(1, 12)), 12))
    else:
        shift = Phase.from_radians(float(rng.uniform(0.1, 2 * math.pi - 0.1)))
    out = dict(entries)
    out[key] = entries[key] * shift
    return out


def _subjects():
    g3 = random_kgraph(5, k=3, max_vertices=2)
    return [
        (c_theta(F1, Phase.from_turns(Fraction(1, 8))), (2, 2)),
        (bicharacter_cocycle(F2, [[Phase.from_turns(Fraction(1, 3))]]), (4,)),
        (random_cocycle(11, SV), (2, 2)),
        (random_cocycle(12, g3), (1, 1, 1)),
    ]


# -- agreement on whole batteries --------------------------------------------


def test_default_instances_agree_with_the_triple_loop():
    for inst in default_instances(SuiteConfig()):
        rep = assert_same(inst.cocycle, suite_cap(inst.graph))
        assert rep.ok, inst.label


def test_tabulate_and_emitted_documents_are_unchanged():
    """Each side gets its own instances, so no table is shared."""
    cfg = SuiteConfig()
    for new, old in zip(default_instances(cfg), default_instances(cfg)):
        cap = suite_cap(new.graph)
        want = tabulate_by_split(old.cocycle, cap)
        assert tabulate(new.cocycle, cap) == want
        doc = emit_cocycle_doc(new.cocycle, cap)
        assert doc["entries"] == [
            [list(le), list(me), format_angle(p)] for (le, me), p in sorted(want.items())
        ]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("floats", [False, True], ids=["exact-angle", "float"])
def test_corrupted_tables_report_the_same_first_failure(seed, floats):
    rng = np.random.default_rng(seed)
    for c, cap in _subjects():
        entries = tabulate_by_split(c, cap)
        if floats:
            entries = as_float_entries(entries)
        bad = table_cocycle(c.graph, cap, corrupt(entries, rng))
        for tol in (1e-9, 0.0):
            rep = assert_same(bad, cap, tol)
            assert not rep.ok


@pytest.mark.parametrize("floats", [False, True], ids=["exact-angle", "float"])
@pytest.mark.parametrize("g, count", [(F1, 19), (SV, 61)], ids=["F1", "SV"])
def test_every_moved_entry_reports_the_same_first_failure(g, count, floats):
    """Each entry of the table moved in turn, so the first failure falls at
    every offset of the batches of splits, past a batch's first split too."""
    entries = tabulate_by_split(c_theta(g, Phase.from_turns(Fraction(1, 8))), (2, 2))
    assert len(entries) == count
    shift = Phase.from_turns(Fraction(1, 3))
    if floats:
        entries, shift = as_float_entries(entries), Phase.from_radians(1.0)
    for key in sorted(entries):
        bad = table_cocycle(g, (2, 2), {**entries, key: entries[key] * shift})
        for tol in (1e-9, 0.0):
            assert not assert_same(bad, (2, 2), tol).ok


def test_float_table_entry_off_the_unit_circle():
    entries = as_float_entries(tabulate_by_split(c_theta(F1, Phase.from_turns(Fraction(1, 8))), (2, 2)))
    key = (("e",), ("f",))
    entries[key] = Phase(None, None, complex(entries[key]) * 1.5)
    rep = assert_same(table_cocycle(F1, (2, 2), entries), (2, 2))
    assert rep.first_failure[0] == "modulus"
    assert rep.first_failure[2] == pytest.approx(1.5)


def test_float_table_at_zero_tolerance():
    """Zero tolerance compares float values exactly, as Phase.close does."""
    entries = as_float_entries(tabulate_by_split(c_theta(F1, Phase.from_turns(Fraction(1, 8))), (2, 2)))
    assert_same(table_cocycle(F1, (2, 2), entries), (2, 2), tol=0.0)


def test_float_mode_tolerates_a_small_exact_deviation():
    """The tolerance absorbs float roundoff only: an exact entry moved by
    10**-12 turn fails at every tolerance."""
    entries = tabulate_by_split(c_theta(F1, Phase.from_turns(Fraction(1, 8))), (2, 2))
    key = (("e",), ("f",))
    entries[key] = entries[key] * Phase.from_turns(Fraction(1, 10**12))
    c = table_cocycle(F1, (2, 2), entries)
    for tol in (1e-9, 0.0):
        assert assert_same(c, (2, 2), tol).first_failure[0] == "C1"


def test_a_moved_exact_entry_beside_a_float_entry():
    """A float entry does not make the table's exact entries inexact: with
    c(e, e) = 1 held as float radians the table passes at zero tolerance,
    and an exact entry moved by 10**-12 turn beside it fails (C1) at 1e-9."""
    entries = tabulate_by_split(c_theta(F1, Phase.from_turns(Fraction(1, 3))), (2, 2))
    entries[(("e",), ("e",))] = Phase.from_radians(0.0)
    assert assert_same(table_cocycle(F1, (2, 2), entries), (2, 2), tol=0.0).ok
    key = (("e",), ("f",))
    entries[key] = entries[key] * Phase.from_turns(Fraction(1, 10**12))
    rep = assert_same(table_cocycle(F1, (2, 2), entries), (2, 2), tol=1e-9)
    assert rep.first_failure[0] == "C1"


def _big_prime_bicharacter():
    mat = [[Phase.from_turns(Fraction(1, p)) for p in BIG_PRIMES[:2]],
           [Phase.from_turns(Fraction(1, p)) for p in BIG_PRIMES[2:]]]
    return bicharacter_cocycle(F1, mat)


def test_large_turn_denominators_fall_back_to_phases():
    c = _big_prime_bicharacter()
    assert c.twist((1, 1), (1, 1)).ints is None
    rep = assert_same(c, (2, 2))
    assert rep.ok
    entries = tabulate_by_split(c, (2, 2))
    entries[(("e",), ("e", "f"))] = entries[(("e",), ("e", "f"))] * Phase.from_turns(Fraction(1, BIG_PRIMES[0]))
    rep = assert_same(table_cocycle(F1, (2, 2), entries), (2, 2))
    assert rep.first_failure[0] == "C1"


def test_large_radian_numerators_fall_back_to_phases():
    big = Phase.exact_radians(Fraction(2**64 + 1, 3))
    c = bicharacter_cocycle(F1, [[big, ONE], [Phase.from_turns(Fraction(1, 4)), big]])
    assert c.twist((1, 0), (1, 0)).ints is None
    assert assert_same(c, (2, 2)).ok


@pytest.mark.parametrize("tol", [1e-9, 0.0])
def test_float_mode_with_large_exact_radians(tol):
    """Angles near 1e8 rad are a few ulps of float apart from their rounded
    products, more than 1e-9; exact values are compared exactly, so equal
    products pass and an entry moved by 10**-12 rad fails, at every
    tolerance."""
    mat = [[Phase.exact_radians(Fraction(10**8 + 3, 7)), Phase.exact_radians(Fraction(123456789))],
           [Phase.exact_radians(Fraction(-(10**8), 3)), Phase.exact_radians(Fraction(98765432, 5))]]
    c = bicharacter_cocycle(F1, mat)
    assert c.twist((1, 1), (1, 1)).ints is not None
    assert assert_same(c, (2, 2), tol).ok
    entries = tabulate_by_split(c, (2, 2))
    key = (("e",), ("f",))
    entries[key] = entries[key] * Phase.exact_radians(Fraction(1, 10**12))
    bad = assert_same(table_cocycle(F1, (2, 2), entries), (2, 2), tol)
    assert bad.first_failure[0] == "C1"


def test_exact_mode_coboundary_with_float_values():
    """A coboundary of float values is compared as Phase objects at tol;
    at zero tolerance rounding in the float products decides, the same way."""
    for g, cap in [(F1, (2, 2)), (F2, (3,)), (SV, (1, 2))]:

        def b(la, g=g):
            i = g.path_index(la.degree)[la]
            return Phase.from_radians(0.3 + 0.7 * i + 1.1 * sum(la.degree))

        c = Coboundary(g, b).delta()
        assert_same(c, cap, tol=1e-9)
        assert_same(c, cap, tol=0.0)


def test_missing_table_entry_raises_the_same_error():
    entries = tabulate_by_split(c_theta(F1, Phase.from_turns(Fraction(1, 8))), (2, 2))
    del entries[(("e",), ("f",))]
    c = table_cocycle(F1, (2, 2), entries)
    with pytest.raises(CapTooSmallForRequestedDegree):
        check_by_triples(c, (2, 2))
    with pytest.raises(CapTooSmallForRequestedDegree):
        check_cocycle(c, (2, 2))


def test_evaluator_errors_keep_their_type():
    base = c_theta(F1, Phase.from_turns(Fraction(1, 8)))

    def ev(la, mu):
        if la.degree == (1, 1):
            raise NotComposable("refused", (la, mu))
        return base(la, mu)

    with pytest.raises(NotComposable):
        check_by_triples(Cocycle(F1, ev), (2, 2))
    with pytest.raises(NotComposable):
        check_cocycle(Cocycle(F1, ev), (2, 2))


# -- chunks of batches --------------------------------------------------------


def _chunk_sizes(monkeypatch):
    """The triples of each chunk that check_cocycle compares, in a list that
    fills as it runs."""
    sizes = []
    agree = cocycle._agree

    def spy(columns, tol):
        ok = agree(columns, tol)
        sizes.append(ok.size)
        return ok

    monkeypatch.setattr(cocycle, "_agree", spy)
    return sizes


def _c_theta_table(cap, floats=False, moved=None):
    """The c_theta(1/8) table of single_vertex(2, (2, 2)) at cap, its entries
    exact or floats, with the entry `moved` multiplied by 1/3 turn, or by 1
    float radian when the entries are floats."""
    g = single_vertex(2, (2, 2))
    entries = tabulate(c_theta(g, Phase.from_turns(Fraction(1, 8))), cap)
    if floats:
        entries = as_float_entries(entries)
    if moved is not None:
        entries[moved] = entries[moved] * (Phase.from_radians(1.0) if floats else Phase.from_turns(Fraction(1, 3)))
    return g, entries


def test_a_failure_before_a_missing_entry_is_reported_first():
    """One unit pair moved and one degree-(3, 3) entry deleted: the batches
    gathered before the twist that raises are checked first, so the report
    names the moved pair's first failure, as a check of one batch at a time
    does, not the missing entry."""
    g, entries = _c_theta_table((3, 3), moved=(("c1x0",), ("c1x1",)))
    del entries[next(key for key in sorted(entries) if len(key[0]) + len(key[1]) == 6)]
    rep = assert_same(table_cocycle(g, (3, 3), entries), (3, 3))
    assert rep.first_failure[0] == "C1" and rep.triples_checked == 380


@pytest.mark.parametrize("floats", [False, True], ids=["exact-angle", "float"])
def test_a_failure_in_the_second_chunk(floats, monkeypatch):
    """A corrupted (4, 4) table, 123,201 triples, whose first failure falls
    in the second chunk: the report of a check with one batch per chunk.
    The witness and count are those of check_by_triples, which takes
    seconds here."""
    g, entries = _c_theta_table((4, 4), floats, moved=(("c1x0",), ("c1x0", "c1x0", "c2x0", "c2x0", "c2x0", "c2x0")))
    with monkeypatch.context() as patch:
        patch.setattr(cocycle, "_CHUNK", 1)
        per_batch = check_cocycle(table_cocycle(g, (4, 4), entries), (4, 4))
    sizes = _chunk_sizes(monkeypatch)
    rep = check_cocycle(table_cocycle(g, (4, 4), entries), (4, 4))
    assert _fields(rep) == _fields(per_batch)
    assert len(sizes) == 2 and cocycle._CHUNK <= sizes[0] < rep.triples_checked <= sum(sizes)
    assert rep.triples_checked == 35010
    assert repr(rep.first_failure[1]) == "(<c1x0>, <c2x0>, <c1x0.c1x0.c2x0.c2x0.c2x0>)"
    if not floats:
        assert repr(rep.first_failure[2]) == "(Phase(1/4 turn), Phase(7/12 turn))"


@pytest.mark.parametrize("bound", [1, 2**15])
def test_degrees_without_paths(bound, monkeypatch):
    """omega(2, (2, 1)) has no path of degree (0, 2), (1, 2) or (2, 2), the
    last degrees of the window, so their batches are empty; with a bound of
    one triple the last chunk holds only empty batches."""
    monkeypatch.setattr(cocycle, "_CHUNK", bound)
    sizes = _chunk_sizes(monkeypatch)
    g = omega(2, (2, 1))
    entries = tabulate_by_split(random_cocycle(4, g), (2, 2))
    rep = assert_same(table_cocycle(g, (2, 2), entries), (2, 2))
    assert rep.ok and sizes[-1] == (0 if bound == 1 else rep.triples_checked)
    shift = Phase.from_turns(Fraction(1, 3))
    failures = 0
    for key in sorted(entries):
        bad = table_cocycle(g, (2, 2), {**entries, key: entries[key] * shift})
        failures += not assert_same(bad, (2, 2)).ok
    assert failures > 0


def test_a_chunk_past_the_int64_bound_falls_back_to_phases(monkeypatch):
    """Turns 1/P1 on color 1 and 1/P2 on color 2, with P1, P2 just above
    2**40: a batch of total degree (2, 0) or (0, 2) fits int64, but the
    shared denominator P1 P2 of their chunk does not, so the chunk compares
    Phase products, with the result of one batch at a time."""
    p1, p2 = (Phase.from_turns(Fraction(1, p)) for p in BIG_PRIMES[:2])
    c = bicharacter_cocycle(F1, [[p1, ONE], [ONE, p2]])
    assert c.twist((1, 0), (1, 0)).ints is not None and c.twist((0, 1), (0, 1)).ints is not None
    encoded = []  # per chunk: whether the integer encoding decided it
    int_agree = cocycle._int_agree

    def spy(columns):
        ok = int_agree(columns)
        encoded.append(ok is not None)
        return ok

    monkeypatch.setattr(cocycle, "_int_agree", spy)
    assert assert_same(c, (2, 2)).ok and encoded == [False]
    encoded.clear()
    with monkeypatch.context() as patch:
        patch.setattr(cocycle, "_CHUNK", 1)
        assert check_cocycle(c, (2, 2)).ok
    assert any(encoded) and not all(encoded)
    entries = tabulate_by_split(c, (2, 2))
    key = (("f",), ("f",))
    entries[key] = entries[key] * Phase.from_turns(Fraction(1, BIG_PRIMES[1]))
    for bound in (1, 2**15):
        monkeypatch.setattr(cocycle, "_CHUNK", bound)
        rep = assert_same(table_cocycle(F1, (2, 2), entries), (2, 2))
        assert rep.first_failure[0] == "C1"


def test_check_cocycle_memory_stays_bounded():
    """The README's promise: memory does not grow with the cap.  The peak
    of the (4, 4) check, its twists included, is about 4 MiB; one window
    over all 123,201 triples took 11 MiB."""
    g, entries = _c_theta_table((4, 4))
    c = table_cocycle(g, (4, 4), entries)
    tracemalloc.start()
    try:
        rep = check_cocycle(c, (4, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok and rep.triples_checked == 123201
    assert peak < 6 * 2**20


@settings(max_examples=30, deadline=None)
@given(
    subject=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    floats=st.booleans(),
    tol=st.sampled_from([1e-9, 0.0]),
    corrupted=st.booleans(),
)
def test_hypothesis_agreement(subject, seed, floats, tol, corrupted):
    c, cap = _subjects()[subject]
    entries = tabulate_by_split(c, cap)
    if floats:
        entries = as_float_entries(entries)
    if corrupted:
        entries = corrupt(entries, np.random.default_rng(seed))
    assert_same(table_cocycle(c.graph, cap, entries), cap, tol)


# -- the twist and factorization tables --------------------------------------


def test_twist_entries_are_the_values_on_factor_pairs():
    c = random_cocycle(3, SV)
    for m, n in [((1, 0), (0, 1)), ((1, 1), (1, 0)), ((0, 0), (2, 1))]:
        pre, suf = SV.factor_indices(m, n)
        t = c.twist(m, n)
        pm, pn = SV.paths(m), SV.paths(n)
        assert len(t) == len(SV.paths(dg.add(m, n)))
        assert list(t.phases) == [c(pm[i], pn[j]) for i, j in zip(pre, suf)]
        assert c.twist(m, n) is t
        turns, turn_den, rads, rad_den = t.ints
        assert turns.dtype == rads.dtype == np.int64
        for p, a, r in zip(t.phases, turns, rads):
            assert p.turns == Fraction(int(a), turn_den)
            assert p.rads == Fraction(int(r), rad_den)


def test_twist_cache_has_no_degree_bound():
    loop = single_vertex(1, (1,))
    c = bicharacter_cocycle(loop, [[Phase.from_turns(Fraction(1, 5))]])
    assert c.twist((8,), (8,)) is c.twist((8,), (8,))
    assert c.twist((9,), (8,)) is c.twist((9,), (8,))
    assert c.twist((9,), (8,)).phases[0] == Phase.from_turns(Fraction(72, 5))


def test_factor_indices_are_cached_read_only_arrays():
    pre, suf = SV.factor_indices((1, 0), (1, 1))
    assert pre.dtype == suf.dtype == np.intp
    pm, pn = SV.paths((1, 0)), SV.paths((1, 1))
    assert [split_by_squares(SV, la, (1, 0)) for la in SV.paths((2, 1))] == [
        (pm[i], pn[j]) for i, j in zip(pre, suf)
    ]
    again = SV.factor_indices([1, 0], [1, 1])
    assert again[0] is pre and again[1] is suf
    for arr in (pre, suf):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_factor_indices_compose_no_paths(monkeypatch):
    """factor_indices brings edge tuples into normal form and builds no Path
    per pair."""

    def refuse(*args):
        raise AssertionError("factor_indices composed a Path")

    monkeypatch.setattr(KGraph, "compose", refuse)
    g = single_vertex(2, (2, 2))
    for total in dg.degrees_upto((3, 3)):
        for m, n in dg.splits(total, 2):
            pre, suf = g.factor_indices(m, n)
            pm, pn = g.paths(m), g.paths(n)
            assert [split_by_squares(g, la, m) for la in g.paths(total)] == [
                (pm[i], pn[j]) for i, j in zip(pre, suf)
            ]


# -- degree coercion ---------------------------------------------------------


def test_as_degree_fast_path_and_coercion():
    canonical = (1, 2)
    assert dg.as_degree(canonical, 2) is canonical
    assert dg.as_degree([1, 2], 2) == (1, 2)
    got = dg.as_degree((np.int64(1), np.int32(2)), 2)
    assert got == (1, 2) and all(type(x) is int for x in got)
    got = dg.as_degree((True, False), 2)
    assert got == (1, 0) and all(type(x) is int for x in got)
    with pytest.raises(DegreeOutOfRange, match=r"degree \(1, 2, 3\) has length 3, expected 2"):
        dg.as_degree((1, 2, 3), 2)
    with pytest.raises(DegreeOutOfRange, match=r"degree \(1, -1\) has a negative entry"):
        dg.as_degree((1, -1), 2)
    with pytest.raises(DegreeOutOfRange, match=r"degree \(1, -1\) has a negative entry"):
        dg.as_degree([1, np.int64(-1)], 2)
    with pytest.raises(DegreeOutOfRange, match="is not a vector"):
        dg.as_degree(3, 1)


# -- dense matrix emission ---------------------------------------------------


def test_fock_matrices_document_is_byte_identical(tmp_path):
    c = c_theta(F1, Phase.from_turns(Fraction(1, 8)))
    g_doc, c_doc, out = tmp_path / "g.json", tmp_path / "c.json", tmp_path / "m.json"
    g_doc.write_text(json.dumps(emit_graph_doc(F1)))
    c_doc.write_text(json.dumps(emit_cocycle_doc(c, (3, 3))))
    assert main(["fock", str(g_doc), str(c_doc), "--N", "2,2", "--emit", "matrices", "--out", str(out)]) == 0
    written = out.read_text()
    doc = json.loads(written)
    ops = dict(_creations(FockSpace(F1, (2, 2)), c))
    assert [op["generator"] for op in doc["operators"]] == list(ops)
    # the per-entry construction that the vectorised one replaced
    doc["operators"] = [
        {"generator": name, "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in op.matrix]}
        for name, op in ops.items()
    ]
    assert json.dumps(doc, indent=2, sort_keys=False) + "\n" == written
