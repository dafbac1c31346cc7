"""The CLI's JSON writer against json.dumps(indent=2).

`kgt fock --emit matrices` puts each matrix into its document as an entries
form, and the writer prints it as json.dumps would print the .tolist() of
its dense array.  Every test here compares the written bytes with json.dumps
of the same document built from nested lists, which is how the document was
built before.
"""

import json
import math
import tempfile
import tracemalloc
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kgt.cli import (
    _ArrayEntries,
    _creations,
    _generators,
    _matrix_entries,
    _path_str,
    _write_json,
    emit_cocycle_doc,
    emit_graph_doc,
    load_cocycle,
    load_graph,
    main,
)
from kgt.cocycle import bicharacter_cocycle, c_theta, tabulate
from kgt.fock import FockOp, FockSpace, creation_entries
from kgt.kgraph import fixture_f1, fixture_f2, single_vertex
from kgt.phases import Phase

F1 = fixture_f1()
F2 = fixture_f2()
# the benchmark's `kgt fock` graph, with an exact bicharacter of odd eighths of a turn
SV = single_vertex(2, (2, 2))
SV_C = bicharacter_cocycle(SV, [[Phase.from_turns(Fraction(t, 8)) for t in row] for row in ((1, 3), (5, 7))])


def tolist_document(g_path, c_path, N, system="X", D=None):
    """The --emit matrices document with every matrix as nested float lists."""
    g = load_graph(g_path)
    with open(c_path) as fh:
        c = load_cocycle(json.load(fh), g)
    space = FockSpace(g, N, depth=D)
    return {
        "schema": "kgt-fock/1",
        "system": system,
        "N": list(space.N),
        "D": list(space.D) if system == "Y" else None,
        "dim": space.dim,
        "basis": [
            {"index": i, "degree": list(n), "path": _path_str(p), "depth": list(space.block_depth(n))}
            for i, (n, p) in enumerate(space.basis())
        ],
        "operators": [
            {"generator": name, "matrix": np.stack((op.matrix.real, op.matrix.imag), -1).tolist()}
            for name, op in _creations(space, c)
        ],
    }


def write_pair(tmp_path, g, c, cap):
    g_doc, c_doc = tmp_path / "g.json", tmp_path / "c.json"
    g_doc.write_text(json.dumps(emit_graph_doc(g)))
    c_doc.write_text(json.dumps(emit_cocycle_doc(c, cap)))
    return str(g_doc), str(c_doc)


def assert_matrices_bytes(tmp_path, g, c, cap, N, system="X", D=None):
    g_doc, c_doc = write_pair(tmp_path, g, c, cap)
    out = tmp_path / "m.json"
    args = ["--N", ",".join(map(str, N)), "--system", system, "--emit", "matrices", "--out", str(out)]
    if D is not None:
        args += ["--D", ",".join(map(str, D))]
    assert main(["fock", g_doc, c_doc, *args]) == 0
    want = json.dumps(tolist_document(g_doc, c_doc, N, system, D), indent=2) + "\n"
    assert out.read_bytes() == want.encode()
    return want


# -- kgt fock --emit matrices ------------------------------------------------


def test_x_matrices_at_three_truncations(tmp_path):
    c = c_theta(F1, Phase.from_turns(Fraction(1, 8)))
    for N in ((0, 0), (1, 1), (2, 2)):
        assert_matrices_bytes(tmp_path, F1, c, (3, 3), N)


def test_y_matrices_with_depth(tmp_path):
    c = c_theta(F1, Phase.from_turns(Fraction(3, 8)))
    assert_matrices_bytes(tmp_path, F1, c, (3, 3), (1, 1), "Y", (2, 2))


def test_multi_vertex_matrices(tmp_path):
    c = bicharacter_cocycle(F2, [[Phase.from_turns(Fraction(1, 8))]])
    assert len(F2.vertices) == 2
    text = assert_matrices_bytes(tmp_path, F2, c, (4,), (3,))
    assert json.loads(text)["dim"] == 8


def test_float_table_matrices(tmp_path):
    # float radian entries load as inexact values with long float reprs
    c = c_theta(F1, Phase.from_radians(0.7))
    loaded = tabulate(load_cocycle(emit_cocycle_doc(c, (3, 3)), F1), (3, 3)).values()
    assert not all(p.is_exact for p in loaded)
    text = assert_matrices_bytes(tmp_path, F1, c, (3, 3), (2, 2))
    assert any(len(s) > 15 for s in text.split())


def test_benchmark_graph_matrices(tmp_path):
    text = assert_matrices_bytes(tmp_path, SV, SV_C, (2, 2), (2, 2))
    assert json.loads(text)["dim"] == 49


def test_matrices_to_stdout(tmp_path, capsys):
    c = c_theta(F1, Phase.from_turns(Fraction(1, 8)))
    g_doc, c_doc = write_pair(tmp_path, F1, c, (3, 3))
    assert main(["fock", g_doc, c_doc, "--N", "1,1", "--emit", "matrices"]) == 0
    want = json.dumps(tolist_document(g_doc, c_doc, (1, 1)), indent=2) + "\n"
    assert capsys.readouterr().out == want


def test_matrices_hold_no_dense_operator(tmp_path, monkeypatch):
    """--emit matrices writes each matrix from its creation's entries and
    builds no FockOp: at N = (3, 3) on the benchmark graph (dim 225) the
    whole command, loading included, peaks under two dense operators,
    2 * 16 * dim**2 bytes."""
    g_doc, c_doc = tmp_path / "g.json", tmp_path / "c.json"
    g_doc.write_text(json.dumps(emit_graph_doc(SV)))
    c_doc.write_text(json.dumps({"kind": "builtin", "name": "trivial"}))
    out = tmp_path / "m.json"
    argv = ["fock", str(g_doc), str(c_doc), "--N", "3,3", "--emit", "matrices", "--out", str(out)]

    def refuse(*args):
        raise AssertionError("--emit matrices built a dense operator")

    monkeypatch.setattr(FockOp, "__init__", refuse)
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dim = json.loads(out.read_text())["dim"]
    assert dim == 225
    assert peak < 2 * 16 * dim**2


# -- the writer on its own ---------------------------------------------------


def dense(form):
    """The dense array of an entries form."""
    arr = np.zeros(form.shape)
    arr.flat[form.flat] = form.values
    return arr


def entries_form(arr):
    """The entries form of a float array: its entries that are not +0.0."""
    flat = np.flatnonzero(arr.ravel().view("u8"))
    return _ArrayEntries(arr.shape, flat, arr.ravel()[flat])


def tolists(obj):
    if isinstance(obj, _ArrayEntries):
        return dense(obj).tolist()
    if isinstance(obj, dict):
        return {k: tolists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [tolists(v) for v in obj]
    return obj


def written(doc, tmp_path):
    out = tmp_path / "w.json"
    with open(out, "w") as fh:
        _write_json(doc, fh)
    return out.read_text()


def test_templates_are_kept_per_shape_and_indentation(tmp_path):
    """Entries forms of one shape at two indentations, and of one size in
    two shapes, with a signed zero or a non-finite value at each end."""

    def marked(shape, first, last):
        arr = np.arange(math.prod(shape)).reshape(shape) % 3 * 0.5
        arr.flat[0], arr.flat[-1] = first, last
        return entries_form(arr)

    doc = {
        "wide": marked((2, 3), -0.0, math.nan),
        "deeper": {"m": [marked((2, 3), math.inf, -math.inf)]},
        "tall": marked((3, 2), math.nan, -0.0),
        "tall again": marked((3, 2), -math.inf, math.inf),
    }
    assert written(doc, tmp_path) == json.dumps(tolists(doc), indent=2) + "\n"


def test_writer_holds_less_than_two_matrices(tmp_path):
    """The writer never holds an array's text: at N = (3, 3) it holds one
    row's template (a 225th of a matrix's text) and the entries, so its peak
    stays under a twentieth of the text of one of the five matrices."""
    space = FockSpace(SV, (3, 3))
    doc = {
        "operators": [
            {"matrix": _matrix_entries(space.dim, *creation_entries(space, SV_C, x))} for _, x in _generators(space)
        ]
    }
    # each matrix sits at indentation 6, as in the --emit matrices document
    one = len(json.dumps(tolists(doc["operators"][0]["matrix"]), indent=2).replace("\n", "\n" + " " * 6))
    tracemalloc.start()
    try:
        with open(tmp_path / "m.json", "w") as fh:
            _write_json(doc, fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(doc["operators"]) == 5 and (tmp_path / "m.json").stat().st_size > 5 * one
    assert peak < one / 20


def test_plain_documents_are_json_dumps(tmp_path):
    doc = {"k": 2, "é": ["x", None, True, 1.5], 3: {}, "t": (1, [2, ()]), "s": "a\nb\"c"}
    doc["nested"] = {"scalar": np.float64(-0.0), "c": {}, "d": []}
    assert written(doc, tmp_path) == json.dumps(doc, indent=2) + "\n"
    assert written([], tmp_path) == "[]\n"


@st.composite
def entries_forms(draw):
    """An entries form of random shape, 1-D to 4-D with empty sides, with
    entries at random distinct positions: signed zeros, non-finite values,
    subnormals and other floats."""
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=4))
    size = math.prod(shape)
    flat = sorted(draw(st.sets(st.integers(0, size - 1), max_size=size))) if size else []
    special = st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310, 2.2250738585072014e-308])
    values = draw(st.lists(st.one_of(special, st.floats()), min_size=len(flat), max_size=len(flat)))
    return _ArrayEntries(shape, np.array(flat, dtype=np.intp), np.array(values, dtype=np.float64))


@settings(max_examples=150, deadline=None)
@given(form=entries_forms(), nested=st.booleans())
def test_entries_forms_match_their_dense_arrays(form, nested):
    doc, want = ({"m": [form]}, {"m": [dense(form).tolist()]}) if nested else (form, dense(form).tolist())
    with tempfile.TemporaryDirectory() as d:
        path = f"{d}/w.json"
        with open(path, "w") as fh:
            _write_json(doc, fh)
        with open(path) as fh:
            assert fh.read() == json.dumps(want, indent=2) + "\n"
