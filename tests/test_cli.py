"""Command line interface: documents, exit codes, pipelines."""

import json
import re
import time
from fractions import Fraction

import numpy as np
import pytest

from kgt import cli, fock
from kgt.cli import emit_cocycle_doc, emit_graph_doc, load_cocycle, main, parse_graph_doc
from kgt.cocycle import c_theta, from_table, tabulate, trivial_cocycle
from kgt.constructions import cartesian, crossed_product, identity_action
from kgt.errors import ParseError
from kgt.kgraph import fixture_f1, fixture_f2, omega, validate_skeleton
from kgt.phases import Phase, parse_angle
from oracle import check_by_triples


@pytest.fixture
def files(tmp_path):
    def write(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    return tmp_path, write


def _f1_doc():
    return emit_graph_doc(fixture_f1())


def _f2_doc():
    return emit_graph_doc(fixture_f2())


def _ctheta_doc(turns="1/4", cap=(2, 2)):
    c = c_theta(fixture_f1(), Phase.from_turns(Fraction(turns)))
    return emit_cocycle_doc(c, cap)


def _exact(c, cap):
    """Whether every value of c on the pairs within cap is exact."""
    return all(p.is_exact for p in tabulate(c, cap).values())


# -- documents ---------------------------------------------------------------


def test_graph_document_round_trip_is_bit_exact():
    doc = _f1_doc()
    assert emit_graph_doc(validate_skeleton(parse_graph_doc(doc))) == doc


def test_cocycle_table_round_trip_is_bit_exact():
    doc = _ctheta_doc()
    c = load_cocycle(doc, fixture_f1())
    assert _exact(c, (2, 2))
    assert emit_cocycle_doc(c, (2, 2)) == doc


@pytest.mark.parametrize(
    "entry",
    [
        pytest.param([["zz"], ["e"]], id="unknown-edge"),
        pytest.param([[], ["e"]], id="vertex-leg"),
        pytest.param([["e", "e"], ["e"]], id="past-cap"),
        pytest.param([["f", "e"], ["e"]], id="not-normal-form"),
    ],
)
def test_table_entries_no_twist_reads_are_refused(entry):
    doc = _ctheta_doc()
    doc["entries"].insert(3, entry + ["0 turn"])
    pair = re.escape(repr(entry))
    with pytest.raises(ParseError, match=rf"^entries\[3\]: no twist reads the pair {pair}:") as err:
        load_cocycle(doc, fixture_f1())
    assert err.value.witness == entry + ["0 turn"]


@pytest.mark.parametrize(
    "leg", ["ab", "ef", [1], [["a"]], {}], ids=["string", "string-of-a-listed-leg", "int-id", "list-id", "object"]
)
@pytest.mark.parametrize("side", [0, 1])
def test_table_legs_that_are_not_lists_of_edge_ids_are_refused(leg, side):
    """Each distinct leg is checked once per document; a bad leg is refused
    with the same text in the first entry and after valid legs repeat,
    also the string "ef" after the leg ["e", "f"]."""
    for i in (0, 9):
        doc = _ctheta_doc()
        assert doc["entries"][9][side] in [ent[side] for ent in doc["entries"][:9]]
        doc["entries"][i][side] = leg
        where = re.escape(f"entries[{i}][{side}]: expected a list of edge ids, got {leg!r}")
        with pytest.raises(ParseError, match=rf"^{where}$") as err:
            load_cocycle(doc, fixture_f1())
        assert err.value.witness == leg


def test_table_entry_that_is_not_composable_exits_2(files, capsys):
    _, write = files
    doc = {"kind": "table", "cap": [2], "entries": [[["a"], ["b"], "0 turn"], [["b"], ["a"], "0 turn"]]}
    doc["entries"].append([["a"], ["a"], "1/3 turn"])
    assert main(["fock", write("f2.json", _f2_doc()), write("c.json", doc), "--N", "1"]) == 2
    assert "ParseError: entries[2]: no twist reads the pair [['a'], ['a']]" in capsys.readouterr().err


def test_float_entry_leaves_the_exact_entries_exact(files, capsys):
    """The c_theta(F1, 1/3 turn) table at cap (6, 6) with c(e, e) = 1 written
    as 0.0 float radians: every other entry stays exact, so at zero
    tolerance no rounding of the exact entries fails (C1) or the modulus."""
    _, write = files
    doc = _ctheta_doc("1/3", (6, 6))
    (entry,) = [ent for ent in doc["entries"] if ent[:2] == [["e"], ["e"]]]
    entry[2] = 0.0
    argv = ["check", write("f1.json", _f1_doc()), write("c.json", doc), "--tolerance", "0"]
    assert main(argv + ["--suite", "def-cocycle-c1c2"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("ok   def-cocycle-c1c2")


def test_exact_radian_table_survives_its_document(files, capsys):
    """The c_theta(F1, 1) table at cap (2, 2) holds exact radians, written
    as 'r rad' strings; reloaded, every entry is the exact value again, so
    (C1) holds at tolerance 0."""
    _, write = files
    c = c_theta(fixture_f1(), 1)
    doc = emit_cocycle_doc(c, (2, 2))
    assert {ent[2] for ent in doc["entries"]} == {"0 turn", "1 rad", "2 rad", "4 rad"}
    assert tabulate(load_cocycle(doc, fixture_f1()), (2, 2)) == tabulate(c, (2, 2))
    argv = ["check", write("f1.json", _f1_doc()), write("c1rad.json", doc), "--tolerance", "0"]
    assert main(argv + ["--suite", "def-cocycle-c1c2"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("ok   def-cocycle-c1c2")


@pytest.mark.parametrize("argv", [["fock", "--N", "1"], ["check", "--suite", "def-3.1"]], ids=["fock", "check"])
def test_table_failing_c1_exits_3_with_the_first_failing_triple(files, capsys, argv):
    """A table document that fails (C1) is refused on loading; the
    counterexample is the first failure of the triple-by-triple walk."""
    _, write = files
    g = fixture_f1()
    doc = emit_cocycle_doc(trivial_cocycle(g), (2, 2))
    doc["entries"][5][2] = "1/3 turn"
    entries = {(tuple(le), tuple(me)): parse_angle(angle) for le, me, angle in doc["entries"]}
    want = check_by_triples(from_table(g, entries, (2, 2)), (2, 2)).first_failure
    assert repr(want) == "('C1', (<e>, <e>, <f>), (Phase(1/3 turn), Phase(0 turn)))"
    command, *options = argv
    assert main([command, write("f1.json", _f1_doc()), write("c.json", doc), *options]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("NotACocycle: ")
    assert err[1] == f"counterexample: {want!r}"


def test_unknown_graph_fields_rejected():
    doc = _f1_doc()
    doc["flavor"] = "extra"
    with pytest.raises(ParseError, match="flavor"):
        parse_graph_doc(doc)
    doc = _f1_doc()
    doc["edges"][0]["weight"] = 3
    with pytest.raises(ParseError, match="weight"):
        parse_graph_doc(doc)


def test_unknown_cocycle_fields_rejected():
    doc = _ctheta_doc()
    doc["note"] = "hi"
    with pytest.raises(ParseError, match="note"):
        load_cocycle(doc, fixture_f1())


def test_structured_builtins_need_a_structured_graph():
    doc = {"kind": "builtin", "name": "c_omega", "params": {"generators": ["1/4 turn"]}}
    with pytest.raises(ParseError, match="adjoined-lattice"):
        load_cocycle(doc, fixture_f2())


@pytest.mark.parametrize(
    "name, params, where",
    [
        pytest.param("c_omega", {"generators": 5}, r"params\.generators: expected a list", id="c_omega-generators-int"),
        pytest.param("c_omega", 5, "params: expected an object", id="c_omega-params-int"),
        pytest.param("c_f", {"f": ["a"]}, r"params\.f: expected an object", id="c_f-f-list"),
        pytest.param("c_f", {"f": {"a": "x", "b": 0}}, "cannot read angle 'x'", id="c_f-angle"),
        pytest.param("c_omega", {"generators": [True]}, "cannot read angle True", id="c_omega-angle"),
        pytest.param("c_sigma", {"theta": [1]}, r"params\.theta\[0\]: expected a list", id="c_sigma-row-int"),
        pytest.param("trivial", 7, "params: expected an object", id="trivial-params-int"),
        pytest.param("trivial", {"theta": [[0]]}, r"params: unknown field\(s\) \['theta'\]", id="trivial-field"),
        pytest.param("c_omega", {"generators": [], "f": {}}, r"unknown field\(s\) \['f'\]", id="c_omega-field"),
        pytest.param("product", {"left": {}, "base": {}}, r"unknown field\(s\) \['base'\]", id="product-field"),
        pytest.param(
            "coboundary", {"edge_phases": []}, r"params\.edge_phases: expected an object", id="coboundary-phases-list"
        ),
        pytest.param(
            "coboundary", {"degree_form": [0]}, r"params\.degree_form\[0\]: expected a list", id="coboundary-row-int"
        ),
    ],
)
def test_malformed_builtin_params_are_parse_errors(name, params, where):
    """Each builtin takes its own params fields, each of its own type."""
    f2 = fixture_f2()
    g = crossed_product(f2, identity_action(f2))
    with pytest.raises(ParseError, match=where):
        load_cocycle({"kind": "builtin", "name": name, "params": params}, g)


def test_build_with_malformed_builtin_params_exits_2(files, capsys):
    _, write = files
    f2 = write("f2.json", _f2_doc())
    comega = write("comega.json", {"kind": "builtin", "name": "c_omega", "params": {"generators": 5}})
    params = {"action": {"vertices": [{"u": "v", "v": "u"}], "edges": [{"a": "b", "b": "a"}]}}
    argv = ["build", f2, "--op", "crossed", "--params", json.dumps(params), "--cocycle", comega]
    assert main(argv + ["--out-graph", "/dev/null", "--out-cocycle", "/dev/null"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ParseError: ") and "params.generators" in err


@pytest.mark.parametrize(
    "name, params",
    [
        pytest.param("c_f", {"f": {"a": "1/2 turn", "b": "1/2 turn", "nope": "1/3 turn"}}, id="c_f"),
        pytest.param("coboundary", {"edge_phases": {"nope": "1/3 turn"}}, id="coboundary"),
    ],
)
def test_builtin_params_with_an_unknown_edge_exit_2(files, capsys, name, params):
    """c_f refuses an edge id that its base graph does not have, as
    coboundary refuses one that its graph does not have."""
    _, write = files
    f2 = write("f2.json", _f2_doc())
    doc = write("c.json", {"kind": "builtin", "name": name, "params": params})
    build = {"action": {"vertices": [{"u": "v", "v": "u"}], "edges": [{"a": "b", "b": "a"}]}}
    argv = ["build", f2, "--op", "crossed", "--params", json.dumps(build), "--cocycle", doc]
    assert main(argv + ["--out-graph", "/dev/null", "--out-cocycle", "/dev/null"]) == 2
    assert capsys.readouterr().err.startswith(f"ParseError: {name} params: unknown edge 'nope'")


def test_coboundary_builtin_loads_and_is_exact():
    doc = {
        "kind": "builtin",
        "name": "coboundary",
        "params": {"edge_phases": {"a": "1/3 turn"}, "degree_form": [["1/8 turn"]]},
    }
    c = load_cocycle(doc, fixture_f2())
    assert _exact(c, (3,))


def test_coboundary_builtin_with_float_angles_loads_as_float(files):
    _, write = files
    g = write("f1.json", _f1_doc())
    doc = {"kind": "builtin", "name": "coboundary", "params": {"edge_phases": {"e": 0.3, "f": 1.1}}}
    c = write("cob.json", doc)
    assert main(["check", g, c, "--suite", "def-3.1"]) == 0
    assert not _exact(load_cocycle(doc, fixture_f1()), (2, 2))
    angles = [["1/8 turn", 0.7], ["0 turn", "1/4 turn"]]
    form = {"kind": "builtin", "name": "coboundary", "params": {"degree_form": angles}}
    assert not _exact(load_cocycle(form, fixture_f1()), (2, 2))
    doc["params"]["edge_phases"] = {"e": "1/3 turn", "f": "1/5 turn"}
    assert _exact(load_cocycle(doc, fixture_f1()), (2, 2))


def test_json_integer_angles_are_exact_radians(files):
    """A JSON integer is exact radians, as parse_angle reads every rational
    number; a string holding an integer is whole turns; other numbers are
    float radians; a bool is refused."""
    _, write = files
    params = {"edge_phases": {"e": "1/3 turn", "f": 1}, "degree_form": [[0, 0], [0, 0]]}
    doc = {"kind": "builtin", "name": "coboundary", "params": params}
    assert _exact(load_cocycle(doc, fixture_f1()), (2, 2))
    assert main(["check", write("f1.json", _f1_doc()), write("cob.json", doc), "--suite", "def-3.1"]) == 0
    assert parse_angle(1) == Phase.exact_radians(1)
    assert parse_angle(-3).is_exact
    assert parse_angle("1") == Phase.from_turns(Fraction(1))
    assert not parse_angle(1.0).is_exact
    with pytest.raises(ParseError):
        parse_angle(True)


# -- validate ----------------------------------------------------------------


def test_validate_scales_with_the_colors_that_hold_edges(files, capsys):
    """F2's edges in a rank-20,000 document: the colors 2..k hold no edges,
    so no square table is checked for them, and validation is quick."""
    _, write = files
    doc = dict(_f2_doc(), k=20_000)
    path = write("f2-wide.json", doc)
    start = time.perf_counter()
    assert main(["validate", path]) == 0
    assert time.perf_counter() - start < 5.0
    assert capsys.readouterr().out == "ok: rank 20000, 2 vertices, 2 edges, 0 squares\n"


def test_validate_accepts_fixture(files):
    _, write = files
    assert main(["validate", write("f1.json", _f1_doc())]) == 0


@pytest.mark.parametrize("command", ["validate", "check", "build", "fock"])
def test_dangling_endpoint_exits_2(files, capsys, command):
    _, write = files
    doc = _f1_doc()
    doc["edges"][0]["source"] = "nowhere"
    bad = write("bad.json", doc)
    c = write("c.json", {"kind": "builtin", "name": "trivial"})
    argv = {
        "validate": ["validate", bad],
        "check": ["check", bad, c],
        "build": ["build", bad, bad, "--op", "cartesian", "--out-graph", "/dev/null"],
        "fock": ["fock", bad, c, "--N", "1,1"],
    }[command]
    assert main(argv) == 2
    assert "MalformedSkeleton" in capsys.readouterr().err


def _swapped_squares_doc():
    doc = emit_graph_doc(cartesian(fixture_f2(), fixture_f2()))
    sq = doc["squares"]
    sq[0]["second"], sq[1]["second"] = sq[1]["second"], sq[0]["second"]
    return doc


def test_validate_swapped_squares_exit_3(files, capsys):
    _, write = files
    assert main(["validate", write("swapped.json", _swapped_squares_doc())]) == 3
    err = capsys.readouterr().err
    assert "counterexample" in err


def test_check_swapped_squares_exit_3_with_counterexample(files, capsys):
    _, write = files
    g = write("swapped.json", _swapped_squares_doc())
    c = write("c.json", {"kind": "builtin", "name": "trivial"})
    assert main(["check", g, c]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("EndpointMismatch: ")
    assert err[1].startswith("counterexample: ")


def test_validate_garbage_json_exits_2(files, capsys):
    tmp, _ = files
    p = tmp / "junk.json"
    p.write_text("{nope")
    assert main(["validate", str(p)]) == 2
    assert "ParseError" in capsys.readouterr().err


_SWAP = {"vertices": [{"u": "v", "v": "u"}], "edges": [{"a": "b", "b": "a"}]}


def _build_with(op, params):
    def argv(write):
        f2 = write("f2.json", _f2_doc())
        return ["build", f2, "--op", op, "--params", params, "--out-graph", "/dev/null"]

    return argv


def _validate_with(edit):
    def argv(write):
        doc = _f1_doc()
        edit(doc)
        return ["validate", write("bad.json", doc)]

    return argv


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(_build_with("skew", "{nope"), id="params-not-json"),
        pytest.param(_build_with("skew", '{"group": 2, "labels": 5}'), id="skew-labels-not-object"),
        pytest.param(_build_with("skew", '{"group": "x", "labels": {}}'), id="skew-group-not-int"),
        pytest.param(
            _build_with("crossed", json.dumps({"action": {"vertices": [5], "edges": [5]}})),
            id="crossed-action-entry-not-object",
        ),
        pytest.param(
            _build_with("crossed", json.dumps({"action": {"vertices": [{"u": 5, "v": "u"}], "edges": _SWAP["edges"]}})),
            id="crossed-vertex-perm-not-string",
        ),
        pytest.param(
            _build_with("crossed", json.dumps({"action": {"vertices": _SWAP["vertices"], "edges": [{"a": 7, "b": "a"}]}})),
            id="crossed-edge-perm-not-string",
        ),
        # the crossed product takes no "cap" field: whatever its value, it is an unknown field
        pytest.param(_build_with("crossed", json.dumps({"action": _SWAP, "cap": "x"})), id="crossed-cap-not-list"),
        pytest.param(_build_with("crossed", json.dumps({"action": _SWAP, "cap": [2.9]})), id="crossed-cap-float"),
        pytest.param(_build_with("crossed", json.dumps({"action": _SWAP, "cap": [-1]})), id="crossed-cap-negative"),
        pytest.param(_build_with("skew", '{"group": true, "labels": {}}'), id="skew-group-bool"),
        pytest.param(_validate_with(lambda d: d.update(k="x")), id="k-not-int"),
        pytest.param(_validate_with(lambda d: d.update(k=1.5)), id="k-float"),
        pytest.param(_validate_with(lambda d: d.update(k="1")), id="k-numeric-string"),
        pytest.param(_validate_with(lambda d: d["edges"][0].update(color=True)), id="color-bool"),
        pytest.param(_validate_with(lambda d: d["edges"][0].update(color="x")), id="color-not-int"),
        pytest.param(_validate_with(lambda d: d.update(edges=5)), id="edges-not-list"),
        pytest.param(_validate_with(lambda d: d["squares"][0].update(first=5)), id="square-side-not-list"),
    ],
)
def test_malformed_input_exits_2(files, capsys, argv):
    _, write = files
    assert main(argv(write)) == 2
    assert "ParseError" in capsys.readouterr().err


# -- check -------------------------------------------------------------------


def test_check_full_suite_on_quarter_turn(files):
    _, write = files
    g = write("f1.json", _f1_doc())
    # table large enough for every pair the default suite evaluates
    c = write("c.json", _ctheta_doc("1/4", cap=(8, 8)))
    assert main(["check", g, c, "--suite", "all", "--format", "machine", "--out", str(files[0] / "r.json")]) == 0
    rep = json.loads((files[0] / "r.json").read_text())
    assert rep["schema"] == "kgt-report/1"
    assert all(case["status"] != "fail" for case in rep["cases"])
    assert len(rep["cases"]) >= 40


def test_builtin_on_a_graph_with_edgeless_colors_loads_and_checks(files):
    """A builtin is checked at load only in the colors that hold edges: a
    degree positive on an edgeless color has no paths. F2's two edges in a
    rank-8 document would otherwise put 3^8 degrees and their splits in the
    load check."""
    _, write = files
    doc = _f2_doc()
    doc["k"] = 8
    g = write("f2k8.json", doc)
    c = write("c.json", {"kind": "builtin", "name": "trivial"})
    assert main(["check", g, c, "--suite", "def-3.1"]) == 0
    assert main(["fock", g, c, "--N", "1"]) == 0


def test_checks_with_nothing_to_check_are_skipped(files):
    """At degree cap 0 the truncation holds no unit degree, so the gauge check
    and the generator assembly have nothing to check."""
    tmp, write = files
    g = write("f2.json", _f2_doc())
    c = write("c.json", {"kind": "builtin", "name": "trivial"})
    out = tmp / "r.json"
    argv = ["check", g, c, "--cap", "0", "--suite", "remark-4.6ii,zeta-surjectivity", "--format", "machine"]
    assert main(argv + ["--out", str(out)]) == 0
    cases = json.loads(out.read_text())["cases"]
    assert [(case["id"], case["status"]) for case in cases] == [
        ("remark-4.6ii", "skipped"),
        ("zeta-surjectivity", "skipped"),
    ]
    assert all(case["reason"] for case in cases)


def test_check_bad_selector_exits_4(files, capsys):
    _, write = files
    g = write("f1.json", _f1_doc())
    c = write("c.json", _ctheta_doc())
    assert main(["check", g, c, "--suite", "nonsense-*"]) == 4
    assert "UnknownCheck" in capsys.readouterr().err


def test_check_rejects_invalid_cocycle_table(files):
    _, write = files
    g = write("f1.json", _f1_doc())
    doc = _ctheta_doc()
    doc["entries"][0][2] = "1/3 turn"  # breaks the pair/triple laws
    c = write("bad.json", doc)
    assert main(["check", g, c, "--suite", "all"]) in (2, 3)


def test_check_seed_comes_from_environment(files, monkeypatch):
    _, write = files
    g = write("f1.json", _f1_doc())
    c = write("c.json", _ctheta_doc())
    monkeypatch.setenv("KGT_SEED", "7")
    out = files[0] / "r.json"
    assert main(["check", g, c, "--suite", "def-3.1", "--format", "machine", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["seed"] == 7


def test_check_refuses_a_malformed_environment_seed(files, monkeypatch, capsys):
    _, write = files
    g = write("f1.json", _f1_doc())
    c = write("c.json", _ctheta_doc())
    monkeypatch.setenv("KGT_SEED", "abc")
    out = files[0] / "r.json"
    assert main(["check", g, c, "--suite", "def-3.1", "--format", "machine", "--out", str(out)]) == 2
    assert "KGT_SEED" in capsys.readouterr().err
    assert not out.exists()
    # an explicit --seed does not read the environment
    assert main(["check", g, c, "--suite", "def-3.1", "--seed", "3", "--format", "machine", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["seed"] == 3


def test_check_refuses_a_negative_cap(files, capsys):
    _, write = files
    g = write("f2.json", _f2_doc())
    c = write("c.json", {"kind": "builtin", "name": "trivial"})
    for suite in ("def-3.1", "all"):
        assert main(["check", g, c, "--cap", "-1", "--suite", suite]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("ParseError: --cap") and captured.out == ""


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
@pytest.mark.parametrize("command", ["check", "fock"])
def test_tolerance_must_be_finite_and_non_negative(files, capsys, command, tol):
    _, write = files
    g = write("f2.json", _f2_doc())
    c = write("c.json", {"kind": "builtin", "name": "trivial"})
    extra = ["--suite", "def-3.1"] if command == "check" else ["--N", "1"]
    assert main([command, g, c, *extra, f"--tolerance={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("ParseError: --tolerance") and captured.out == ""
    assert main([command, g, c, *extra, "--tolerance", "0"]) == 0


def test_only_check_reads_the_environment_seed(files, monkeypatch):
    tmp, write = files
    g = write("f1.json", _f1_doc())
    c = write("c.json", _ctheta_doc())
    monkeypatch.setenv("KGT_SEED", "abc")
    assert main(["validate", g]) == 0
    assert main(["build", g, g, "--op", "cartesian", "--out-graph", str(tmp / "prod.json")]) == 0
    assert main(["fock", g, c, "--N", "1,1", "--out", str(tmp / "rel.txt")]) == 0


# -- build -------------------------------------------------------------------


def test_build_cartesian_has_four_vertices(files):
    tmp, write = files
    f2 = write("f2.json", _f2_doc())
    out = tmp / "prod.json"
    assert main(["build", f2, f2, "--op", "cartesian", "--out-graph", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["vertices"]) == 4
    assert main(["validate", str(out)]) == 0


def test_build_skew_has_four_vertices(files):
    tmp, write = files
    f2 = write("f2.json", _f2_doc())
    out = tmp / "skew.json"
    code = main(
        [
            "build", f2, "--op", "skew",
            "--params", json.dumps({"group": 2, "labels": {"a": "1", "b": "0"}}),
            "--out-graph", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["vertices"]) == 4
    assert main(["validate", str(out)]) == 0


def test_build_crossed_with_lifted_cocycle_passes_check(files):
    tmp, write = files
    f2 = write("f2.json", _f2_doc())
    gout, cout = tmp / "crossed.json", tmp / "lifted.json"
    comega = write(
        "comega.json",
        {"kind": "builtin", "name": "c_omega", "params": {"generators": ["1/4 turn"]}},
    )
    params = {"action": {"vertices": [{"u": "v", "v": "u"}], "edges": [{"a": "b", "b": "a"}]}}
    code = main(
        [
            "build", f2, "--op", "crossed", "--params", json.dumps(params),
            "--cocycle", comega, "--out-graph", str(gout), "--out-cocycle", str(cout),
        ]
    )
    assert code == 0
    assert main(["validate", str(gout)]) == 0
    lifted = json.loads(cout.read_text())
    assert lifted["kind"] == "table"
    assert any(a != "0 turn" for _, _, a in lifted["entries"])
    assert main(["check", str(gout), str(cout), "--suite", "all"]) == 0


def test_build_wrong_arity_exits_2(files):
    _, write = files
    f2 = write("f2.json", _f2_doc())
    assert main(["build", f2, "--op", "cartesian", "--out-graph", "/dev/null"]) == 2


# -- fock --------------------------------------------------------------------


def test_fock_y_without_depth_is_usage_error(files, capsys):
    _, write = files
    g = write("f1.json", _f1_doc())
    c = write("c.json", _ctheta_doc())
    assert main(["fock", g, c, "--system", "Y", "--N", "1,1"]) == 2
    assert "--D" in capsys.readouterr().err


def test_fock_depth_under_system_x_is_usage_error(files, capsys):
    _, write = files
    g = write("f2.json", _f2_doc())
    c = write("c.json", {"kind": "builtin", "name": "trivial"})
    assert main(["fock", g, c, "--system", "X", "--N", "1", "--D", "7"]) == 2
    assert main(["fock", g, c, "--N", "1", "--D", "2"]) == 2
    assert "--D" in capsys.readouterr().err


def test_fock_matrices_legend_and_zero_truncation(files):
    tmp, write = files
    g = write("f1.json", _f1_doc())
    c = write("c.json", _ctheta_doc())
    out = tmp / "m.json"
    assert main(["fock", g, c, "--N", "1,1", "--emit", "matrices", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "kgt-fock/1"
    assert [b["path"] for b in doc["basis"]] == ["*", "f", "e", "e.f"]
    assert {o["generator"] for o in doc["operators"]} == {"vertex:*", "edge:e", "edge:f"}
    mat = doc["operators"][0]["matrix"]
    assert len(mat) == doc["dim"] and len(mat[0]) == doc["dim"]
    assert all(len(cell) == 2 for row in mat for cell in row)

    out0 = tmp / "m0.json"
    assert main(["fock", g, c, "--N", "0", "--emit", "matrices", "--out", str(out0)]) == 0
    d0 = json.loads(out0.read_text())
    assert d0["dim"] == 1
    assert [o["generator"] for o in d0["operators"]] == ["vertex:*"]


def test_fock_relations_report_commutation_phase(files, capsys):
    _, write = files
    g = write("f1.json", _f1_doc())
    c = write("c.json", _ctheta_doc("1/4"))
    assert main(["fock", g, c, "--N", "2,2", "--emit", "relations"]) == 0
    text = capsys.readouterr().out
    assert "generator relations" in text
    assert "+1.000000000000i" in text


def test_commutation_table_at_tolerance_zero(files, capsys):
    """The commutation table does not depend on the tolerance, so tolerance 0
    prints the commutation lines of 1e-9 and no NaN."""
    _, write = files
    g = write("omega.json", emit_graph_doc(omega(2, (1, 1))))
    c = write("c.json", {"kind": "builtin", "name": "trivial"})
    lines = {}
    for tol in ("0", "1e-9"):
        assert main(["fock", g, c, "--N", "1,1", "--tolerance", tol]) == 0
        out = capsys.readouterr().out
        assert "nan" not in out
        lines[tol] = [x for x in out.splitlines() if "commutation " in x]
    assert lines["0"] == lines["1e-9"] != []


def test_commutation_table_names_a_vanishing_product(files, capsys):
    """On omega(2, (1, 1)) at N = (1, 1), each pair has one product that
    vanishes on the interior: no scalar z is printed for it, and the line
    names the product that vanishes."""
    _, write = files
    g = write("omega.json", emit_graph_doc(omega(2, (1, 1))))
    c = write("c.json", {"kind": "builtin", "name": "trivial"})
    assert main(["fock", g, c, "--N", "1,1"]) == 0
    lines = [x for x in capsys.readouterr().out.splitlines() if not x.startswith("ok ")]
    assert lines == [
        "no commutation scalar for S_c2:1,0 S_c1:0,0: S_c2:1,0 S_c1:0,0 vanishes on the interior",
        "no commutation scalar for S_c2:0,0 S_c1:0,1: S_c1:0,1 S_c2:0,0 vanishes on the interior",
    ]


def test_fock_y_relations_pass(files):
    _, write = files
    g = write("f1.json", _f1_doc())
    c = write("c.json", _ctheta_doc())
    assert main(["fock", g, c, "--system", "Y", "--N", "1,1", "--D", "2,2"]) == 0


def test_fock_y_covariance_lines_cover_every_degree_the_compacts_act_on(files, capsys):
    """One covariance line per vertex and degree n with 2n <= N: the
    compacts of degree n act on interior(n) only in the blocks q >= n."""
    _, write = files
    g = write("f2.json", _f2_doc())
    c = write("c.json", {"kind": "builtin", "name": "trivial"})
    for N, D, degrees in (("0", "1", ["(0,)"]), ("1", "2", ["(0,)"]), ("2", "3", ["(0,)", "(1,)"])):
        assert main(["fock", g, c, "--system", "Y", "--N", N, "--D", D]) == 0
        lines = [x for x in capsys.readouterr().out.splitlines() if "covariance" in x]
        vs = fixture_f2().vertices
        assert lines == [f"ok covariance defect match at degree {n}, vertex {v}" for n in degrees for v in vs]


def test_relations_are_checked_once_per_degree(files, capsys):
    _, write = files
    f1 = write("f1.json", _f1_doc())
    f2 = write("f2.json", _f2_doc())
    c = write("c.json", {"kind": "builtin", "name": "trivial"})
    cases = ((f2, "1", ["(1,)"]), (f2, "2", ["(1,)", "(2,)"]), (f1, "1,1", ["(1, 0)", "(0, 1)", "(1, 1)"]))
    for g, N, want in cases:
        assert main(["fock", g, c, "--N", N]) == 0
        lines = [x for x in capsys.readouterr().out.splitlines() if "generator relations" in x]
        assert lines == [f"ok generator relations at degree {n}" for n in want]
    # at the zero truncation no unit degree fits, so there is no relation to check
    assert main(["check", f2, c, "--cap", "0", "--suite", "def-4.4"]) == 0
    assert "1 passed, 0 failed" in capsys.readouterr().out


def test_a_failing_relation_prints_one_line_with_its_witness(files, capsys, monkeypatch):
    """With the phases of every point table of nonzero shift bent on the
    columns of nonzero blocks, S_e S_f no longer composes to c(e, f) S_ef:
    the report names that first failure on one line, and no degree reads ok."""
    _, write = files
    g = write("f2.json", _f2_doc())
    c = write("c.json", {"kind": "builtin", "name": "trivial"})
    real = fock._point_table

    def bent(space, c, d, depth):
        t = real(space, c, d, depth)
        if not any(d):
            return t
        hit = space._deg.any(axis=1)
        phase = t.phase.copy()
        phase[:, :-1][:, hit] *= np.exp(0.1j)
        return t._replace(phase=phase)

    monkeypatch.setattr(fock, "_point_table", bent)
    f2 = fixture_f2()
    witness = fock.ck_relations_check(fock.FockSpace(f2, (2,)), trivial_cocycle(f2)).first_failure
    assert witness[0] == "compose"
    assert main(["fock", g, c, "--N", "2"]) == 1
    lines = [x for x in capsys.readouterr().out.splitlines() if "generator relations" in x]
    assert lines == [f"FAIL generator relations: {witness!r}"]


@pytest.mark.parametrize("command", ["check", "fock", "build", "build-cocycle"])
def test_an_unwritable_output_path_is_usage_error(files, capsys, monkeypatch, command):
    """Every output path is opened before any document is read."""
    tmp, write = files
    g = write("f2.json", _f2_doc())
    c = write("c.json", {"kind": "builtin", "name": "trivial"})
    out = str(tmp / "missing" / "x.txt")
    argv = {
        "check": ["check", g, c, "--suite", "def-3.1", "--out", out],
        "fock": ["fock", g, c, "--N", "1", "--out", out],
        "build": ["build", g, g, "--op", "cartesian", "--out-graph", out],
        "build-cocycle": ["build", g, g, "--op", "cartesian", "--cocycle", c, "--out-cocycle", out],
    }[command]

    def unread(path):
        raise AssertionError(f"{path} was read before the output was opened")

    monkeypatch.setattr(cli, "load_graph", unread)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"ParseError: {out}: ")


def test_build_refuses_two_documents_on_stdout(files, capsys):
    """With --cocycle, build writes a graph and a cocycle document; one
    stream cannot hold both as JSON, so one of them needs a file."""
    _, write = files
    g = write("f2.json", _f2_doc())
    c = write("c.json", {"kind": "builtin", "name": "trivial"})
    params = json.dumps({"group": 2, "labels": {"a": "1", "b": "0"}})
    assert main(["build", g, "--op", "skew", "--params", params, "--cocycle", c]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("ParseError: --cocycle writes two documents")


def test_build_refuses_one_file_for_both_outputs(files, capsys):
    tmp, write = files
    g = write("f2.json", _f2_doc())
    c = write("c.json", {"kind": "builtin", "name": "trivial"})
    out = str(tmp / "both.json")
    assert main(["build", g, g, "--op", "cartesian", "--cocycle", c, "--out-graph", out, "--out-cocycle", out]) == 2
    assert capsys.readouterr().err.startswith("ParseError: --out-graph and --out-cocycle")


def test_build_writes_both_outputs_to_one_device(files):
    """Only a file that both outputs would overwrite is refused; /dev/null
    takes both."""
    _, write = files
    g = write("f2.json", _f2_doc())
    c = write("c.json", {"kind": "builtin", "name": "trivial"})
    params = json.dumps({"group": 2, "labels": {"a": "1", "b": "0"}})
    argv = ["build", g, "--op", "skew", "--params", params, "--cocycle", c]
    assert main(argv + ["--out-graph", "/dev/null", "--out-cocycle", "/dev/null"]) == 0


def test_build_parses_the_table_cap_before_writing(files, capsys):
    """A --table-cap that does not fit the built graph's rank is a usage
    error that leaves both outputs empty."""
    tmp, write = files
    g = write("f2.json", _f2_doc())
    c = write("c.json", {"kind": "builtin", "name": "trivial"})
    graph_out, cocycle_out = tmp / "g.json", tmp / "c-out.json"
    params = json.dumps({"group": 2, "labels": {"a": "1", "b": "0"}})
    argv = ["build", g, "--op", "skew", "--params", params, "--cocycle", c, "--table-cap", "9,9,9"]
    assert main(argv + ["--out-graph", str(graph_out), "--out-cocycle", str(cocycle_out)]) == 2
    assert capsys.readouterr().err.startswith("ParseError: degree '9,9,9' does not fit rank 1")
    assert graph_out.read_text() == "" and cocycle_out.read_text() == ""


@pytest.mark.parametrize("flag, value", [("--out-cocycle", "never.json"), ("--table-cap", "9,9,9")])
def test_build_refuses_a_cocycle_flag_without_a_cocycle(files, capsys, flag, value):
    """--out-cocycle and --table-cap shape the emitted cocycle, so without
    --cocycle they are usage errors, refused before any output is opened."""
    tmp, write = files
    f2 = write("f2.json", _f2_doc())
    if flag == "--out-cocycle":
        value = str(tmp / value)
    graph_out = tmp / "graph.json"
    params = json.dumps({"group": 2, "labels": {"a": "1", "b": "0"}})
    argv = ["build", f2, "--op", "skew", "--params", params, "--out-graph", str(graph_out), flag, value]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"ParseError: {flag} needs --cocycle")
    assert sorted(p.name for p in tmp.iterdir()) == ["f2.json"]


def test_fock_depth_below_the_truncation_is_usage_error(files, capsys):
    _, write = files
    g = write("f2.json", _f2_doc())
    c = write("c.json", {"kind": "builtin", "name": "trivial"})
    assert main(["fock", g, c, "--system", "Y", "--N", "2", "--D", "1"]) == 2
    assert capsys.readouterr().err == "ParseError: --D (1,) must dominate --N (2,)\n"


def test_fock_oversized_truncation_exits_2(files, capsys):
    _, write = files
    g = write("f2.json", _f2_doc())
    c = write("c.json", {"kind": "builtin", "name": "trivial"})
    assert main(["fock", g, c, "--N", "1"]) == 0
    capsys.readouterr()
    # 2 * 5001 coordinates: 1.6 GB per dense operator
    assert main(["fock", g, c, "--N", "5000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("FockSpaceTooLarge:") and "10002" in err
