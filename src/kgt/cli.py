"""Command line front end.

Four subcommands: `validate` checks a graph document, `check` runs identity
suites against a graph/cocycle pair, `build` assembles product graphs (and
lifted cocycles), and `fock` dumps truncated creation matrices or relation
reports.  Documents are JSON; an angle is read by phases.parse_angle and
written by its inverse phases.format_angle: an exact value as a "p/q turn",
"r rad" or "t turn + r rad" string, an inexact one as float radians.  A JSON
integer is exact radians, and a string holding one is whole turns.

Exit codes: 0 all good, 1 a check failed, 2 parse or usage trouble
(malformed input included, from every subcommand, and a `fock` truncation
whose dense operators would pass fock.MAX_OP_BYTES), 3 a validation
counterexample, printed on a `counterexample:` line when the error names
one, 4 an unknown suite selector.  The subcommands raise; `main` alone maps
an error to its exit code, through _EXIT_CODES.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import degrees as dg
from .cocycle import (
    Cocycle,
    c_f,
    c_omega,
    c_sigma,
    check_cocycle,
    edge_coboundary,
    from_table,
    product_cocycle,
    skew_lift,
    tabulate,
    trivial_cocycle,
)
from .constructions import (
    CartesianProductGraph,
    CrossedProductGraph,
    SkewProductGraph,
    ZlAction,
    cartesian,
    crossed_product,
    cyclic_group,
    skew_product,
)
from .errors import FockSpaceTooLarge, KgtError, MalformedSkeleton, ParseError, UnknownCheck
from .fock import (
    FockSpace,
    ck_relations_check,
    cp_identity_check,
    creation_entries,
    creation_x,
    psi_check,
    relation_degrees,
    rep_axioms_check,
)
from .kgraph import KGraph, Path, make_skeleton, validate_skeleton
from .phases import Phase, format_angle, parse_angle
from .verify import Instance, SuiteConfig, run_suite
from .xmod import XElem

REPORT_SCHEMA = "kgt-report/1"
FOCK_SCHEMA = "kgt-fock/1"


# -- document plumbing -------------------------------------------------------


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except OSError as err:
        raise ParseError(f"{path}: {err}", path) from err
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}:{err.lineno}:{err.colno}: {err.msg}", path) from err


def _write_json(doc, out):
    """Write json.dumps(doc, indent=2) and a newline to the text stream out.

    An _ArrayEntries in doc is written as the .tolist() of its dense array.
    The text goes out in pieces: an array one outer row at a time, each row
    the zero template of the row shape with the row's other entries spliced
    in.  One template per row shape and indentation is held for the length
    of the call, so neither the document's text nor an array's is held
    whole.
    """
    _write_text(_json_chunks(doc, "", {}), out)


def _write_text(chunks, out):
    """Write the pieces of text in chunks and a newline to the text stream out."""
    out.writelines(chunks)
    out.write("\n")


@contextlib.contextmanager
def _output(path: str | None):
    """The text stream to path, opened (so truncated) at once, or stdout when
    path is None.  An OSError from opening path is a ParseError, as for
    inputs.  Each command opens its outputs before it reads a document."""
    if not path:
        yield sys.stdout
        return
    try:
        fh = open(path, "w")
    except OSError as err:
        raise ParseError(f"{path}: {err}", path) from err
    with fh:
        yield fh


@dataclass(frozen=True)
class _ArrayEntries:
    """A float array in the form the JSON writer reads: its shape, and the
    flat positions, ascending, and the values of its entries that are not
    +0.0.  Every other entry is 0.0."""

    shape: tuple
    flat: np.ndarray
    values: np.ndarray


def _matrix_entries(dim: int, col, row, value) -> _ArrayEntries:
    """The [re, im] pairs of the complex dim x dim matrix with the given
    entries, at distinct positions, and zeros elsewhere: the entries form of
    np.stack((M.real, M.imag), -1).  The entries kept are those that are
    not +0.0, the only float whose bits are all zero."""
    pos = 2 * (row * dim + col)
    order = np.argsort(pos)
    flat = np.stack((pos, pos + 1), -1)[order].ravel()
    values = np.stack((value.real, value.imag), -1)[order].ravel()
    keep = np.flatnonzero(values.view("u8"))
    return _ArrayEntries((dim, dim, 2), flat[keep], values[keep])


def _holds_array(obj) -> bool:
    if isinstance(obj, dict):
        return any(map(_holds_array, obj.values()))
    if isinstance(obj, (list, tuple)):
        return any(map(_holds_array, obj))
    return isinstance(obj, _ArrayEntries)


def _json_chunks(obj, pad: str, templates: dict):
    """The text of json.dumps(obj, indent=2), nested at indentation pad.

    A value that holds no array is one json.dumps call, re-indented: json
    escapes every newline inside a string, so each newline it writes starts
    a line of its layout.
    """
    if isinstance(obj, _ArrayEntries):
        yield from _array_json(obj, pad, templates)
    elif not _holds_array(obj):
        yield json.dumps(obj, indent=2).replace("\n", "\n" + pad)
    elif isinstance(obj, dict):
        inner = pad + "  "
        sep = "{\n" + inner
        for key, value in obj.items():
            # json's own key text: non-str keys become strings as json makes them
            yield sep + json.dumps({key: 0})[1:-4] + ": "
            yield from _json_chunks(value, inner, templates)
            sep = ",\n" + inner
        yield "\n" + pad + "}"
    else:
        inner = pad + "  "
        sep = "[\n" + inner
        for item in obj:
            yield sep
            yield from _json_chunks(item, inner, templates)
            sep = ",\n" + inner
        yield "\n" + pad + "]"


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _zero_template(shape: tuple, pad: str):
    """(text, head, steps): json.dumps of the all-0.0 array of this shape at
    indentation pad, and where its entries start.  Every entry is 3
    characters, so entry (i_0, ..., i_{d-1}) starts at head + Σ i_t steps[t].
    The writer builds one per row shape, shape () being the entry "0.0"."""
    d = len(shape)
    ind = ["\n" + pad + "  " * t for t in range(d + 1)]
    text, steps = "0.0", [0] * d
    for t in range(d - 1, -1, -1):
        steps[t] = len(text) + 1 + len(ind[t + 1])
        # brackets go on the end parts, so the outermost text is built once
        parts = [text] * shape[t]
        parts[0] = "[" + ind[t + 1] + parts[0]
        parts[-1] += ind[t] + "]"
        text = ("," + ind[t + 1]).join(parts)
    return text, sum(1 + len(ind[t + 1]) for t in range(d)), steps


def _array_json(arr, pad: str, templates: dict):
    """The text of json.dumps(dense.tolist(), indent=2), nested at
    indentation pad, for the dense array of the _ArrayEntries arr.

    Each outer row is the zero template of the row shape at the row's
    indentation (kept in templates) with the row's entries spliced in: their
    repr, or NaN, Infinity or -Infinity.  Every entry's offset in its row is
    computed in one pass, and searchsorted cuts the entries by row.
    """
    if not math.prod(arr.shape):
        yield json.dumps(np.zeros(arr.shape).tolist(), indent=2).replace("\n", "\n" + pad)
        return
    rows, rest = arr.shape[0], arr.shape[1:]
    inner = pad + "  "
    key = (rest, inner)
    if key not in templates:
        templates[key] = _zero_template(rest, inner)
    text, head, steps = templates[key]
    size = math.prod(rest)
    index = np.unravel_index(arr.flat % size, rest) if rest else ()
    starts = sum((i * s for i, s in zip(index, steps)), np.full(len(arr.flat), head)).tolist()
    cuts = np.searchsorted(arr.flat, np.arange(rows + 1) * size).tolist()
    reprs = [_JSON_NONFINITE.get(r, r) for r in map(float.__repr__, arr.values.tolist())]
    sep = "[\n" + inner
    for lo, hi in zip(cuts, cuts[1:]):
        yield sep
        end = 0
        for j in range(lo, hi):
            yield text[end : starts[j]]
            yield reprs[j]
            end = starts[j] + 3
        yield text[end:]
        sep = ",\n" + inner
    yield "\n" + pad + "]"


_KINDS = {dict: "an object", list: "a list", int: "an integer"}


def _typed(value, kind: type, where: str):
    """value, if JSON decoding gave it the type `kind`; a boolean is no integer."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ParseError(f"{where}: expected {_KINDS[kind]}, got {type(value).__name__}", value)
    return value


def _as_object(doc, allowed, where: str) -> dict:
    extra = sorted(set(_typed(doc, dict, where)) - set(allowed))
    if extra:
        raise ParseError(f"{where}: unknown field(s) {extra}", extra)
    return doc


def _field(doc: dict, key: str, where: str):
    if key not in doc:
        raise ParseError(f"{where}: missing field {key!r}", key)
    return doc[key]


def parse_graph_doc(doc):
    """JSON object -> unvalidated skeleton; field errors raise ParseError."""
    _as_object(doc, {"k", "vertices", "edges", "squares"}, "graph document")
    k = _typed(_field(doc, "k", "graph document"), int, "k")
    vertices = [str(v) for v in _typed(_field(doc, "vertices", "graph document"), list, "vertices")]
    edges = []
    for i, e in enumerate(_typed(_field(doc, "edges", "graph document"), list, "edges")):
        _as_object(e, {"id", "color", "range", "source"}, f"edges[{i}]")
        edges.append(
            (
                str(_field(e, "id", f"edges[{i}]")),
                _typed(_field(e, "color", f"edges[{i}]"), int, f"edges[{i}].color"),
                str(_field(e, "range", f"edges[{i}]")),
                str(_field(e, "source", f"edges[{i}]")),
            )
        )
    squares = []
    for i, s in enumerate(_typed(doc.get("squares", []), list, "squares")):
        _as_object(s, {"first", "second"}, f"squares[{i}]")
        first = _typed(_field(s, "first", f"squares[{i}]"), list, f"squares[{i}].first")
        second = _typed(_field(s, "second", f"squares[{i}]"), list, f"squares[{i}].second")
        if len(first) != 2 or len(second) != 2:
            raise ParseError(f"squares[{i}]: need two edge ids per side", s)
        squares.append((tuple(map(str, first)), tuple(map(str, second))))
    return make_skeleton(k, vertices, edges, squares)


def emit_graph_doc(g) -> dict:
    """Canonical document form: sorted vertices, edges, and square keys."""
    sk = g.skeleton if isinstance(g, KGraph) else g
    return {
        "k": sk.k,
        "vertices": sorted(sk.vertices),
        "edges": [
            {"id": e.ident, "color": e.color, "range": e.range, "source": e.source}
            for e in sorted(sk.edges, key=lambda e: (e.color, e.ident))
        ],
        "squares": [
            {"first": list(key), "second": list(val)}
            for key, val in sorted(sk.squares.items())
        ],
    }


def load_graph(path: str) -> KGraph:
    return validate_skeleton(parse_graph_doc(_read_json(path)))


# each builtin cocycle -> the fields of its params
_BUILTIN_COCYCLES = {
    "trivial": set(),
    "c_f": {"f"},
    "c_omega": {"generators"},
    "c_sigma": {"theta"},
    "skew_lift": {"base"},
    "product": {"left", "right"},
    "coboundary": {"edge_phases", "degree_form"},
}


def _angle_rows(rows, where: str) -> list[list[Phase]]:
    """A matrix of angles: a list of lists."""
    rows = _typed(rows, list, where)
    return [[parse_angle(x) for x in _typed(row, list, f"{where}[{i}]")] for i, row in enumerate(rows)]


def _coboundary_from_params(g: KGraph, params: dict) -> Cocycle:
    label = {e.ident: Phase.one() for e in g.all_edges}
    for ident, ang in _typed(params.get("edge_phases", {}), dict, "params.edge_phases").items():
        if ident not in label:
            raise ParseError(f"coboundary params: unknown edge {ident!r}", ident)
        label[ident] = parse_angle(ang)
    form = _angle_rows(params.get("degree_form", []), "params.degree_form")
    if form and (len(form) != g.k or any(len(row) != g.k for row in form)):
        raise ParseError(f"coboundary params: degree_form must be {g.k}x{g.k}", form)
    return edge_coboundary(g, label, form, "coboundary").delta()


def _edge_ids(path, where: str, seen: dict) -> tuple[str, ...]:
    """A path of a table entry: a list of edge-id strings.  `seen` maps each
    leg the document has already passed to its tuple, so a leg listed again
    is not checked again."""
    if isinstance(path, list):
        key = tuple(path)
        try:
            return seen[key]
        except (KeyError, TypeError):  # a new leg, or one holding an unhashable id
            pass
    if not isinstance(path, list) or not all(isinstance(e, str) for e in path):
        raise ParseError(f"{where}: expected a list of edge ids, got {path!r}", path)
    seen[key] = key
    return key


def load_cocycle(doc, g: KGraph) -> Cocycle:
    """Build a cocycle document against g; the pair/triple laws are checked
    on loading (table documents within their stored cap)."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ParseError("cocycle document: missing field 'kind'", doc)
    kind = doc["kind"]
    if kind == "table":
        _as_object(doc, {"kind", "entries", "cap"}, "cocycle document")
        cap = _typed(_field(doc, "cap", "cocycle document"), list, "cap")
        cap = tuple(_typed(x, int, f"cap[{i}]") for i, x in enumerate(cap))
        if len(cap) != g.k or min(cap, default=0) < 0:
            raise ParseError(f"cap: need {g.k} non-negative integers, got {list(cap)}", list(cap))
        # each distinct angle string is parsed once; JSON numbers are parsed
        # per entry, as 1, 1.0, 0.0 and -0.0 are equal keys but give
        # different phases or different bits
        angles: dict[str, Phase] = {}
        legs: dict[tuple, tuple[str, ...]] = {}
        entries = {}
        for i, ent in enumerate(_typed(_field(doc, "entries", "cocycle document"), list, "entries")):
            if not isinstance(ent, list) or len(ent) != 3:
                raise ParseError(f"entries[{i}]: need [first, second, angle]", ent)
            le, me, ang = ent
            key = (_edge_ids(le, f"entries[{i}][0]", legs), _edge_ids(me, f"entries[{i}][1]", legs))
            if key in entries:
                raise ParseError(f"entries[{i}]: the pair {[list(p) for p in key]} is listed twice", key)
            p = angles.get(ang) if isinstance(ang, str) else None
            if p is None:
                try:
                    p = parse_angle(ang)
                except ParseError as err:
                    raise ParseError(f"entries[{i}]: {err}", err.witness) from err
                if isinstance(ang, str):
                    angles[ang] = p
            entries[key] = p
        c = from_table(g, entries, cap, check=True)
        # the check read one entry per non-vertex pair within the cap; no twist reads the rest
        pairs = sum(len(g.paths(t)) * (math.prod(x + 1 for x in t) - 2) for t in dg.degrees_upto(cap) if any(t))
        if len(entries) > pairs:
            read = tabulate(c, cap)
            i, (le, me) = next((i, key) for i, key in enumerate(entries) if key not in read)
            raise ParseError(
                f"entries[{i}]: no twist reads the pair {[list(le), list(me)]}: it has an unknown edge or a "
                "vertex leg, is past the cap, or is not a composable pair of paths in normal form",
                doc["entries"][i],
            )
        return c
    if kind != "builtin":
        raise ParseError(f"cocycle document: unknown kind {kind!r}", kind)
    _as_object(doc, {"kind", "name", "params"}, "cocycle document")
    name = _field(doc, "name", "cocycle document")
    if not isinstance(name, str) or name not in _BUILTIN_COCYCLES:
        raise ParseError(f"cocycle document: unknown builtin {name!r}; know {tuple(_BUILTIN_COCYCLES)}", name)
    params = _as_object(doc.get("params", {}), _BUILTIN_COCYCLES[name], "params")
    if name == "trivial":
        c = trivial_cocycle(g)
    elif name == "coboundary":
        c = _coboundary_from_params(g, params)
    elif name in ("c_f", "c_omega", "c_sigma"):
        if not isinstance(g, CrossedProductGraph):
            raise ParseError(
                f"{name} needs an adjoined-lattice graph; build one in the same "
                "invocation (kgt build --op crossed) or use a table document",
                name,
            )
        if name == "c_f":
            f = _typed(_field(params, "f", "params"), dict, "params.f")
            c = c_f(g, {e: parse_angle(v) for e, v in f.items()})
        elif name == "c_omega":
            gens = _typed(_field(params, "generators", "params"), list, "params.generators")
            c = c_omega(g, [parse_angle(x) for x in gens])
        else:
            c = c_sigma(g, _angle_rows(_field(params, "theta", "params"), "params.theta"))
    elif name == "skew_lift":
        if not isinstance(g, SkewProductGraph):
            raise ParseError("skew_lift needs a group-labelled graph built in the same invocation", name)
        c = skew_lift(load_cocycle(_field(params, "base", "params"), g.base), g)
    else:  # product
        if not isinstance(g, CartesianProductGraph):
            raise ParseError("product needs a product graph built in the same invocation", name)
        c = product_cocycle(
            load_cocycle(_field(params, "left", "params"), g.left),
            load_cocycle(_field(params, "right", "params"), g.right),
            g,
        )
    rep = check_cocycle(c, g.clip((2,) * g.k))
    if not rep.ok:
        raise ParseError(f"cocycle fails the pair/triple laws: {rep.first_failure!r}", rep.first_failure)
    return c


def _default_table_cap(g: KGraph):
    # the default suite evaluates cocycle pairs up to three times its
    # per-entry degree cap (associativity triples), so emitted tables must
    # reach that far to be usable by `check` afterwards
    return tuple([3 * SuiteConfig().degree_entry_cap] * g.k)


def emit_cocycle_doc(c: Cocycle, cap) -> dict:
    table = tabulate(c, cap)
    return {
        "kind": "table",
        "cap": [int(x) for x in dg.as_degree(cap, c.graph.k)],
        "entries": [
            [list(le), list(me), format_angle(p)] for (le, me), p in sorted(table.items())
        ],
    }


def _path_str(p: Path) -> str:
    return ".".join(p.edges) if p.edges else p.range


def _parse_degree(text: str, k: int):
    try:
        parts = [int(x) for x in str(text).split(",")]
    except ValueError as err:
        raise ParseError(f"bad degree {text!r}", text) from err
    if len(parts) == 1:
        parts = parts * k
    if len(parts) != k or any(x < 0 for x in parts):
        raise ParseError(f"degree {text!r} does not fit rank {k}", text)
    return tuple(parts)


# -- subcommands -------------------------------------------------------------


def cmd_validate(args) -> int:
    g = load_graph(args.graph)
    print(
        f"ok: rank {g.k}, {len(g.vertices)} vertices, {len(g.all_edges)} edges, "
        f"{len(g.skeleton.squares)} squares"
    )
    return 0


def _load_pair(args):
    g = load_graph(args.graph)
    c = load_cocycle(_read_json(args.cocycle), g)
    return g, c


def _env_seed() -> int:
    """The suite seed in KGT_SEED, 0 when it is unset."""
    text = os.environ.get("KGT_SEED", "0")
    try:
        return int(text)
    except ValueError as err:
        raise ParseError(f"KGT_SEED: expected an integer seed, got {text!r}", text) from err


def _check_tolerance(tol: float) -> None:
    """--tolerance is a finite number >= 0; NaN would pass no comparison and
    an infinite one every comparison."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ParseError(f"--tolerance: need a finite number >= 0, got {tol!r}", tol)


def cmd_check(args) -> int:
    if args.cap < 0:
        raise ParseError(f"--cap: need a non-negative degree window, got {args.cap}", args.cap)
    _check_tolerance(args.tolerance)
    seed = _env_seed() if args.seed is None else args.seed
    with _output(args.out) as out:
        g, c = _load_pair(args)
        cfg = SuiteConfig(
            seed=seed,
            degree_entry_cap=args.cap,
            tolerance=args.tolerance,
        )
        label = f"{os.path.basename(args.graph)}/{os.path.basename(args.cocycle)}"
        inst = Instance(label, g, c, is_fixture=True)
        selector = [s.strip() for s in args.suite.split(",") if s.strip()]
        rep = run_suite(selector, cfg, instances=[inst])
        if args.format == "machine":
            doc = rep.to_dict()
            doc["schema"] = REPORT_SCHEMA
            _write_json(doc, out)
        else:
            lines = [rep.summary()]
            for r in rep.results:
                mark = {"pass": "ok  ", "fail": "FAIL", "skipped": "skip"}[r.status]
                lines.append(f"{mark} {r.case.check_id:40s} {r.millis:8.1f} ms")
            _write_text(["\n".join(lines)], out)
    return 0 if rep.ok else 1


def _action_from_params(g: KGraph, doc) -> ZlAction:
    _as_object(doc, {"vertices", "edges"}, "action")

    def perms(key):
        entries = _typed(_field(doc, key, "action"), list, f"action.{key}")
        return [dict(_typed(d, dict, f"action.{key}[{i}]")) for i, d in enumerate(entries)]

    vperms, eperms = perms("vertices"), perms("edges")
    if len(vperms) != len(eperms):
        raise ParseError("action: vertex and edge permutation lists differ in length", doc)
    return ZlAction(g, tuple(vperms), tuple(eperms))


def cmd_build(args) -> int:
    try:
        params = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as err:
        raise ParseError(f"--params:{err.lineno}:{err.colno}: {err.msg}", args.params) from err
    if not isinstance(params, dict):
        raise ParseError("--params must be a JSON object", args.params)
    for flag, value in (("--out-cocycle", args.out_cocycle), ("--table-cap", args.table_cap)):
        if value is not None and not args.cocycle:
            raise ParseError(f"{flag} needs --cocycle", value)
    if args.cocycle and not args.out_graph and not args.out_cocycle:
        raise ParseError("--cocycle writes two documents: give --out-graph or --out-cocycle", args.cocycle)
    if args.out_graph and args.out_cocycle:
        # both are opened before the work, so one would overwrite the other; a
        # device such as /dev/null takes both
        path = os.path.realpath(args.out_graph)
        if path == os.path.realpath(args.out_cocycle) and (os.path.isfile(path) or not os.path.exists(path)):
            raise ParseError(f"--out-graph and --out-cocycle are the same file {args.out_graph!r}", args.out_graph)
    with _output(args.out_graph) as out_graph, _output(args.out_cocycle) as out_cocycle:
        graphs = [load_graph(p) for p in args.graphs]
        if args.op == "cartesian":
            if len(graphs) != 2:
                raise ParseError("cartesian needs two graph files", args.graphs)
            _as_object(params, set(), "params")
            built = cartesian(*graphs)
        elif args.op == "skew":
            if len(graphs) != 1:
                raise ParseError("skew needs one graph file", args.graphs)
            _as_object(params, {"group", "labels"}, "params")
            grp = cyclic_group(_typed(_field(params, "group", "params"), int, "params.group"))
            labels = _typed(_field(params, "labels", "params"), dict, "params.labels")
            labels = {str(e): str(a) for e, a in labels.items()}
            built = skew_product(graphs[0], grp, labels)
        elif args.op == "crossed":
            if len(graphs) != 1:
                raise ParseError("crossed needs one graph file", args.graphs)
            _as_object(params, {"action", "cap"}, "params")
            beta = _action_from_params(graphs[0], _field(params, "action", "params"))
            cap = _typed(_field(params, "cap", "params"), list, "params.cap")
            cap = tuple(_typed(x, int, "params.cap") for x in cap)
            if min(cap, default=0) < 0:
                raise ParseError(f"params.cap: degrees are non-negative, got {list(cap)}", cap)
            built = crossed_product(graphs[0], beta, cap)
        else:  # argparse choices guard this
            raise ParseError(f"unknown op {args.op!r}", args.op)
        if args.cocycle:  # read before any output is written, so a refusal leaves both empty
            cap = _parse_degree(args.table_cap, built.k) if args.table_cap else _default_table_cap(built)
            lift_on = built
            if isinstance(built, CrossedProductGraph):
                # the emitted graph document drops the lattice window, so `check`
                # re-reads it as a graph whose lattice edges compose freely; the
                # table must then cover the full cap, which can exceed the window
                # requested at build time.  The skeleton does not depend on the
                # window, so re-lift the cocycle on a wide enough copy.
                kb = built.base.k
                need = tuple(max(a, b) for a, b in zip(cap[kb:], built.cap))
                if need != built.cap:
                    lift_on = crossed_product(built.base, built.action, need)
            c = load_cocycle(_read_json(args.cocycle), lift_on)
        _write_json(emit_graph_doc(built), out_graph)
        if args.cocycle:
            _write_json(emit_cocycle_doc(c, cap), out_cocycle)
    return 0


def _generators(space: FockSpace) -> list:
    """(name, point mass) of the degree-zero vertex generators, then of each
    edge whose degree fits the truncation."""
    g = space.graph
    out = [(f"vertex:{v}", XElem.delta(g, g.vertex_path(v))) for v in g.vertices]
    for e in g.all_edges:
        if dg.leq(dg.unit(g.k, e.color), space.N):
            out.append((f"edge:{e.ident}", XElem.delta(g, g.edge_path(e.ident))))
    return out


def _creations(space: FockSpace, c: Cocycle):
    """(name, dense creation) of each generator."""
    return [(name, creation_x(space, c, x)) for name, x in _generators(space)]


def _commutation_table(space: FockSpace, c: Cocycle):
    """Report lines on the edge pairs e, f of colors i < j whose degree fits N:
    the measured scalar z in S_f S_e = z * S_e S_f on the interior where both
    products are nonzero there (their entries are unit phases or 0), a line
    naming the product that vanishes where only one does, none where both do."""
    g = space.graph
    ops = dict(_creations(space, c))
    lines = []
    for e in g.all_edges:
        for f in g.all_edges:
            if not e.color < f.color:
                continue
            ne, nf = dg.unit(g.k, e.color), dg.unit(g.k, f.color)
            d = dg.add(ne, nf)
            if not dg.leq(d, space.N):
                continue
            Se, Sf = ops[f"edge:{e.ident}"], ops[f"edge:{f.ident}"]
            mask = space.interior_mask(d)
            A = (Sf @ Se).matrix[:, mask]
            B = (Se @ Sf).matrix[:, mask]
            na, nb = float(np.vdot(A, A).real), float(np.vdot(B, B).real)
            fe, ef = f"S_{f.ident} S_{e.ident}", f"S_{e.ident} S_{f.ident}"
            if na == nb == 0:
                continue
            if na == 0 or nb == 0:
                lines.append(f"no commutation scalar for {fe}: {fe if na == 0 else ef} vanishes on the interior")
                continue
            z = complex(np.vdot(B, A) / nb)
            residual = float(np.linalg.norm(A - z * B))
            lines.append(f"commutation {fe} = z {ef}: z = {z.real:+.12f}{z.imag:+.12f}i (residual {residual:.3g})")
    return lines


def cmd_fock(args) -> int:
    """Creation matrices, or a relation report: the representation axioms,
    then under X one `ok generator relations at degree n` line per degree of
    relation_degrees(N), or one `FAIL generator relations:` line with the
    first failure, and the commutation table; under Y the cylinder
    representation and one covariance line per vertex.  A matrix is written
    from its creation's entries, and no dense operator is built for it."""
    _check_tolerance(args.tolerance)
    if (args.system == "Y") != (args.D is not None):
        raise ParseError("--system Y needs --D, the cylinder depth, and only --system Y takes it", args.D)
    with _output(args.out) as out:
        g, c = _load_pair(args)
        N = _parse_degree(args.N, g.k)
        D = None if args.D is None else _parse_degree(args.D, g.k)
        if D is not None and not dg.leq(N, D):
            raise ParseError(f"--D {D} must dominate --N {N}", (N, D))
        space = FockSpace(g, N, depth=D)

        if args.emit == "matrices":
            basis = [
                {
                    "index": i,
                    "degree": list(n),
                    "path": _path_str(p),
                    "depth": list(space.block_depth(n)),
                }
                for i, (n, p) in enumerate(space.basis())
            ]
            ops = [
                {"generator": name, "matrix": _matrix_entries(space.dim, *creation_entries(space, c, x))}
                for name, x in _generators(space)
            ]
            doc = {
                "schema": FOCK_SCHEMA,
                "system": args.system,
                "N": list(space.N),
                "D": list(space.D) if args.system == "Y" else None,
                "dim": space.dim,
                "basis": basis,
                "operators": ops,
            }
            _write_json(doc, out)
            return 0

        rep = rep_axioms_check(space, c, tol=args.tolerance, system=args.system)
        lines = [f"{'ok' if rep.ok else 'FAIL'} representation axioms ({rep.cases_checked} cases)"]
        if args.system == "X":
            rep = ck_relations_check(space, c, tol=args.tolerance)
            if rep.ok:
                lines += [f"ok generator relations at degree {n}" for n in relation_degrees(space.N)]
            else:
                lines.append(f"FAIL generator relations: {rep.first_failure!r}")
            lines += _commutation_table(space, c)
        else:
            rep = psi_check(space, c, tol=args.tolerance)
            lines.append(f"{'ok' if rep.ok else 'FAIL'} cylinder representation ({rep.cases_checked} cases)")
            for v in g.vertices:
                rep = cp_identity_check(space, c, XElem.delta(g, g.vertex_path(v)), space.N, tol=args.tolerance)
                lines.append(f"{'ok' if rep.ok else 'FAIL'} covariance defect match at vertex {v}")
        _write_text(["\n".join(lines)], out)
    return 1 if any(line.startswith("FAIL") for line in lines) else 0


# -- argument parsing --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kgt",
        description="Finite colored-graph algebras: validation, identity suites, "
        "product constructions, and truncated operator models.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="validate a graph document")
    v.add_argument("graph", help="graph JSON file (or - for stdin)")
    v.set_defaults(func=cmd_validate)

    ch = sub.add_parser("check", help="run identity suites on a graph/cocycle pair")
    ch.add_argument("graph")
    ch.add_argument("cocycle")
    ch.add_argument("--suite", default="all", help="comma-separated glob selectors (default: all)")
    ch.add_argument("--seed", type=int, default=None, help="suite seed (default: $KGT_SEED, else 0)")
    ch.add_argument("--cap", type=int, default=2, help="per-color degree window")
    ch.add_argument("--tolerance", type=float, default=1e-9)
    ch.add_argument("--format", choices=("text", "machine"), default="text")
    ch.add_argument("--out", default=None)
    ch.set_defaults(func=cmd_check)

    b = sub.add_parser("build", help="assemble a product graph, optionally with a cocycle")
    b.add_argument("graphs", nargs="+", help="input graph JSON files")
    b.add_argument("--op", required=True, choices=("cartesian", "skew", "crossed"))
    b.add_argument("--params", default=None, help="JSON object with op parameters")
    b.add_argument("--cocycle", default=None, help="cocycle document to resolve against the result")
    b.add_argument("--table-cap", default=None, help="degree window for the emitted table")
    b.add_argument("--out-graph", default=None)
    b.add_argument("--out-cocycle", default=None)
    b.set_defaults(func=cmd_build)

    f = sub.add_parser("fock", help="emit creation matrices or relation reports")
    f.add_argument("graph")
    f.add_argument("cocycle")
    f.add_argument("--system", choices=("X", "Y"), default="X")
    f.add_argument("--N", required=True, help="truncation degree, e.g. 2,2")
    f.add_argument("--D", default=None, help="cylinder depth (--system Y only)")
    f.add_argument("--emit", choices=("matrices", "relations"), default="relations")
    f.add_argument("--tolerance", type=float, default=1e-9)
    f.add_argument("--out", default=None)
    f.set_defaults(func=cmd_fock)
    return p


# error type -> exit code; the first match wins
_EXIT_CODES = ((UnknownCheck, 4), (ParseError, 2), (MalformedSkeleton, 2), (FockSpaceTooLarge, 2), (KgtError, 3))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KgtError as err:
        code = next(code for kind, code in _EXIT_CODES if isinstance(err, kind))
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        if code == 3 and err.witness is not None:
            print(f"counterexample: {err.witness!r}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
