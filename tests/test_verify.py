"""Suite runner, registry, and random instance generators."""

from fractions import Fraction

import numpy as np
import pytest

from kgt import degrees as dg
from kgt import verify
from kgt.cocycle import Coboundary, Cocycle, are_cohomologous, check_cocycle, trivial_cocycle
from kgt.errors import GenerationExhausted, UnknownCheck
from kgt.kgraph import fixture_f1, fixture_f2, omega
from kgt.phases import Phase
from kgt.verify import (
    REGISTRY,
    Instance,
    SuiteConfig,
    default_instances,
    match_checks,
    random_cocycle,
    random_kgraph,
    replay,
    run_suite,
)

TINY = SuiteConfig(graphs=2, cocycles=1, pairs=3)
FIXTURES_ONLY = SuiteConfig(include_random=False)

FROZEN_IDS = [
    'cor-2.5', 'def-3.1', 'def-4.4',
    'def-cartesian-product', 'def-coboundary', 'def-cocycle-c1c2',
    'def-cylinder-sets', 'def-skew-product', 'def-source-free',
    'def-u-join-v', 'eq-action-decomp-for-alpha', 'eq-c-f',
    'eq-c-omega', 'eq-c-sigma', 'eq-crossed-product-graph',
    'eq-for-cp-covariance-of-zeta', 'eq-katsura-inner-product', 'eq-left-action-in-X',
    'eq-left-action-in-Y', 'eq-left-action-of-f-tilde-as-compacts', 'eq-nica-cov-for-nice-thetas',
    'eq-product-cocycle', 'eq-skew-lift', 'eq-tps-inner-product',
    'lemma-3.12', 'lemma-5.3i', 'lemma-5.3ii',
    'lemma-5.3iii', 'lemma-5.3iv', 'lemma-5.3v',
    'lemma-5.4', 'lemma-5.5x', 'lemma-5.5y',
    'lemma-5.8', 'lemma-6.2', 'lemma-6.3',
    'lemma-clsv5.12-y', 'lemma-edge-correspondences', 'lemma-prefix-maps',
    'lemma-segment-maps', 'prop-4.1', 'prop-4.2',
    'prop-4.3', 'prop-5.1', 'prop-shift-maps',
    'remark-4.6ii', 'zeta-surjectivity',
]


def test_registry_is_frozen():
    assert sorted(REGISTRY) == FROZEN_IDS


def test_registry_entries_are_complete():
    for cid, cd in REGISTRY.items():
        assert cd.check_id == cid
        assert cd.summary.strip()
        assert cd.needs in ("graph", "pair", "builtin")
        assert callable(cd.run)


# -- generators --------------------------------------------------------------


def test_random_kgraph_is_deterministic():
    g1 = random_kgraph(42, k=2)
    g2 = random_kgraph(42, k=2)
    assert [e.ident for e in g1.all_edges] == [e.ident for e in g2.all_edges]
    assert g1.skeleton.squares == g2.skeleton.squares
    assert random_kgraph(43, k=2).skeleton != g1.skeleton


def test_random_kgraph_is_source_free():
    for seed in range(8):
        g = random_kgraph(seed, k=2)
        ok, wit = g.is_source_free()
        assert ok, wit


def test_random_kgraph_rank_one_has_no_squares():
    g = random_kgraph(3, k=1)
    assert g.k == 1
    assert g.skeleton.squares == {}


def test_random_kgraph_rank_three_passes_validation():
    for seed in range(4):
        g = random_kgraph(seed, k=3, max_vertices=2)
        assert g.k == 3
        assert len(g.paths((1, 1, 1))) > 0


def test_random_kgraph_rejects_empty_bounds():
    with pytest.raises(GenerationExhausted):
        random_kgraph(0, k=2, max_vertices=0)


def test_random_cocycle_is_deterministic_and_valid():
    g = random_kgraph(5, k=2)
    c1 = random_cocycle(9, g)
    c2 = random_cocycle(9, g)
    for m in dg.degrees_upto((1, 1)):
        for n in dg.degrees_upto((1, 1)):
            for la in g.paths(m):
                for mu in g.paths(n):
                    if la.source == mu.range:
                        assert c1(la, mu).close(c2(la, mu), 0.0)
    for seed in range(10):
        c = random_cocycle(seed, g)
        rep = check_cocycle(c, (1, 1))
        assert rep.ok, (seed, rep.first_failure)


def test_random_cocycle_covers_the_families():
    g = random_kgraph(5, k=2)
    names = {random_cocycle(seed, g).name.split(":", 1)[1].split("(")[0] for seed in range(24)}
    assert {"trivial", "bicharacter", "delta", "product"} <= names


def test_random_coboundary_kind_is_recovered():
    g = random_kgraph(6, k=2)
    for seed in range(40):
        c = random_cocycle(seed, g)
        if "delta" not in c.name or "product" in c.name:
            continue
        solved = are_cohomologous(c, trivial_cocycle(g), (2, 2))
        assert isinstance(solved, Coboundary), (seed, solved)
        break
    else:
        pytest.fail("no coboundary sample in 40 seeds")


# -- selectors and running ---------------------------------------------------


def test_unknown_selector_raises():
    with pytest.raises(UnknownCheck):
        match_checks("no-such-check-*")
    with pytest.raises(UnknownCheck):
        run_suite([], FIXTURES_ONLY)


def test_selector_all_expands_to_everything():
    assert set(match_checks("all")) == set(REGISTRY)
    assert match_checks("lemma-5.3*") == [
        "lemma-5.3i", "lemma-5.3ii", "lemma-5.3iii", "lemma-5.3iv", "lemma-5.3v",
    ]


def test_inclusion_suite_passes_on_defaults():
    rep = run_suite("lemma-5.3*", TINY)
    assert rep.ok, rep.summary()
    assert rep.counts()["pass"] > 0


def test_single_check_on_explicit_instance():
    g = fixture_f1()
    inst = Instance("f1/flat", g, trivial_cocycle(g))
    rep = run_suite("eq-left-action-in-X", TINY, instances=[inst])
    assert rep.ok
    assert [r.case.subject for r in rep.results] == ["f1/flat"]


def test_builtin_checks_run_once_regardless_of_instances():
    rep = run_suite("eq-c-sigma", TINY, instances=[])
    assert len(rep.results) == 1
    assert rep.ok


def test_graph_checks_deduplicate_by_graph():
    g = fixture_f2()
    insts = [
        Instance("f2/a", g, trivial_cocycle(g)),
        Instance("f2/b", g, random_cocycle(1, g)),
    ]
    rep = run_suite("def-3.1", TINY, instances=insts)
    assert len(rep.results) == 1


def test_truncation_checks_pass_at_degree_cap_0():
    """At degree cap 0 the truncation is N = 0: the gauge check creates only
    at the unit degrees that fit, and the assembly, which creates at degree
    D - N, checks nothing when D - N does not fit."""
    rep = run_suite(["remark-4.6ii", "zeta-surjectivity"], SuiteConfig(seed=0, degree_entry_cap=0))
    assert rep.results
    assert not rep.failures(), rep.failures()[0].witness


def test_runs_are_deterministic():
    cfg = SuiteConfig(graphs=2, cocycles=1)
    r1 = run_suite("prop-4.1", cfg)
    r2 = run_suite("prop-4.1", cfg)
    key = lambda rep: [(r.case.check_id, r.case.subject, r.case.seed, r.status, repr(r.witness)) for r in rep.results]
    assert key(r1) == key(r2)


def test_failures_carry_replayable_seeds():
    g = fixture_f2()
    bad = Cocycle(
        g,
        lambda la, mu: Phase.from_turns(
            Fraction(dg.total(la.degree) ** 2 * dg.total(mu.degree), 8)
        ),
        "not-a-cocycle",
    )
    inst = Instance("f2/broken", g, bad)
    rep = run_suite("def-cocycle-c1c2", TINY, instances=[inst])
    assert not rep.ok
    fail = rep.failures()[0]
    assert fail.case.seed >= 0
    assert fail.witness is not None
    again = replay(fail, TINY, instances=[inst])
    assert again.status == "fail"
    assert repr(again.witness) == repr(fail.witness)


def test_action_decomposition_check_catches_a_dropped_prefix(monkeypatch):
    real = verify.alpha_decompose

    def drop_one_prefix(f, n):
        dec = real(f, n)
        if len(dec.xi) >= 2:
            dec.xi = dec.xi[1:]
        return dec

    monkeypatch.setattr(verify, "alpha_decompose", drop_one_prefix)
    rep = run_suite("eq-action-decomp-for-alpha", FIXTURES_ONLY)
    assert not rep.ok
    assert any(r.witness[0] == "product-reassembly" for r in rep.failures())


def test_replay_reproduces_a_passing_case():
    rep = run_suite("eq-katsura-inner-product", FIXTURES_ONLY)
    case = rep.results[0]
    again = replay(case, FIXTURES_ONLY)
    assert again.status == case.status == "pass"


def test_replay_rejects_unknown_ids_and_subjects():
    rep = run_suite("def-3.1", FIXTURES_ONLY)
    case = rep.results[0].case
    with pytest.raises(UnknownCheck):
        replay(case, TINY, instances=[])
    from kgt.verify import CheckCase

    with pytest.raises(UnknownCheck):
        replay(CheckCase("nope", "F1/x", 0), FIXTURES_ONLY)


def test_source_free_hypotheses_are_skipped_not_failed():
    g = omega(2, (2, 2))
    inst = Instance("omega/flat", g, trivial_cocycle(g))
    rep = run_suite("lemma-6.3", TINY, instances=[inst])
    assert rep.ok
    assert rep.results[0].status == "skipped"
    assert "source" in rep.results[0].reason


def test_replay_reproduces_a_skip():
    cfg = SuiteConfig(degree_entry_cap=0, include_random=False)
    case = run_suite("remark-4.6ii", cfg).results[0]
    again = replay(case, cfg)
    assert again.status == case.status == "skipped"
    assert again.reason == case.reason != ""


def test_report_dict_shape():
    rep = run_suite("def-u-join-v", FIXTURES_ONLY)
    doc = rep.to_dict()
    assert doc["suite"] == "def-u-join-v"
    assert all({"id", "subject", "seed", "status", "millis"} <= set(c) for c in doc["cases"])
    assert doc["config"]["seed"] == 0


def test_full_battery_smoke():
    rep = run_suite("*", SuiteConfig(graphs=3, cocycles=1, pairs=3))
    assert rep.ok, rep.summary()
    counts = rep.counts()
    assert counts["fail"] == 0
    assert counts["pass"] > 300


def test_default_instances_cover_ranks_and_products():
    insts = default_instances(SuiteConfig(graphs=6, cocycles=1))
    ks = {i.graph.k for i in insts if i.graph is not None}
    assert {1, 2, 3} <= ks
    labels = " ".join(i.label for i in insts)
    assert "cartesian" in labels and "skew" in labels and "crossed" in labels
