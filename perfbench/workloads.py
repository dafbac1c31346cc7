"""The benchmark workloads: their inputs, operations and verdicts.

A workload's `build` function does all set-up: it generates the inputs from
the seed, builds and validates the graph and cocycle objects, and writes any
documents.  It returns the operations of one pass.  Each operation is a call
into the public kgt API, timed from outside by the worker, and a verdict
function that inspects its result afterwards.  A verdict returns None when the
result is right and a one-line description of what is wrong otherwise; it
raises Crashed when the result records an exception inside the operation.

Every random graph here has a fixed shape (vertex count and edges per color
per vertex).  The seed varies shifts, square pairings, angles and per-case
sampling, but the number of paths of each degree, and so the amount of work,
is the same for every seed.  This keeps the run-to-run spread a property of
the code and the machine, not of the seed.
"""

from __future__ import annotations

import builtins
import hashlib
import json
import math
import os
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from kgt import cli, cocycle, degrees, errors, verify
from kgt.kgraph import single_vertex
from kgt.phases import Phase

WORKLOADS = ("suite_battery", "fock_cli")


@dataclass
class Op:
    """One timed call: `call()` is timed, `verdict(result)` is not."""

    kind: str
    name: str
    call: object
    verdict: object


class Crashed(Exception):
    """Raised by a verdict whose result records a crash inside the operation."""

    def __init__(self, error_type: str, detail: str):
        super().__init__(detail)
        self.error_type = error_type


@dataclass
class Pass:
    """The operations of one pass, plus a digest the verdicts fill in."""

    ops: list
    digest: object = None


# -- seeded inputs -------------------------------------------------------------


def _rng(seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng([seed, int.from_bytes(hashlib.sha256(label.encode()).digest()[:4], "big")])


def path_count(shape, n) -> int:
    """|Lambda^n| for a graph of `shape` = (vertices, edges per color per vertex).

    Both fixture families used here (single-vertex graphs and the circulant
    random graphs) give every vertex the same number of incoming edges of each
    color, so the count is a closed form, independent of kgt.
    """
    vertices, mult = shape
    return vertices * math.prod(m**x for m, x in zip(mult, n))


def graph_shape(g):
    k = g.k
    verts = len(g.vertices)
    return verts, tuple(len(g.edges(i)) // verts for i in range(1, k + 1))


def shaped_random_kgraph(seed: int, k: int, shape, max_vertices: int, attempts: int = 4096):
    """The first `verify.random_kgraph` seed derived from `seed` whose graph has
    `shape`; returns (graph seed, graph)."""
    for j in range(attempts):
        gseed = seed * attempts + j
        g = verify.random_kgraph(gseed, k=k, max_vertices=max_vertices, max_shifts=max(shape[1]))
        if graph_shape(g) == shape:
            return gseed, g
    raise RuntimeError(f"no rank-{k} graph of shape {shape} among {attempts} seeds after {seed}")


def seeded_bicharacter(g, rng, name="bicharacter"):
    """A degree bicharacter whose entries are odd multiples of 1/8 turn.

    Odd numerators keep every seed's twist values equally far from the
    trivial ones (exactly 1, with short float forms), so the seed does not
    change how much arithmetic or output the twists cost.
    """
    mat = [[Phase.from_turns(Fraction(2 * int(rng.integers(0, 4)) + 1, 8)) for _ in range(g.k)] for _ in range(g.k)]
    return cocycle.bicharacter_cocycle(g, mat, name=name)


def _crash_type(witness) -> str | None:
    """run_suite turns an exception inside a check into a failing case whose
    witness reads '<ExceptionType>: message'; recover the type, if any."""
    if not isinstance(witness, str):
        return None
    head = witness.split(": ", 1)[0]
    cls = getattr(builtins, head, None) or getattr(errors, head, None)
    return head if isinstance(cls, type) and issubclass(cls, BaseException) else None


# -- suite_battery -------------------------------------------------------------

# Random graphs of the battery: rank, shape, and the cocycle family of each of
# its two cocycles (the tail of `random_cocycle`'s name).
SUITE_GRAPHS = (
    (2, (2, (2, 2)), 3),
    (1, (2, (2,)), 3),
    (3, (2, (1, 1, 1)), 2),
)
SUITE_COCYCLE_KINDS = ("bicharacter", "delta(rand-b)")


def suite_instances(seed: int, cfg, size: str):
    """Builtin fixtures plus one shaped random graph per rank 2, 1, 3, each
    with two cocycles, labelled as `default_instances` labels them."""
    insts = verify.default_instances(replace(cfg, include_random=False))
    graphs = SUITE_GRAPHS if size == "full" else SUITE_GRAPHS[1:2]
    for i, (k, shape, max_vertices) in enumerate(graphs):
        gseed, g = shaped_random_kgraph(seed * 3 + i, k, shape, max_vertices)
        for j, kind in enumerate(SUITE_COCYCLE_KINDS):
            cseed = gseed * 53 + j * 4096
            c = verify.random_cocycle(cseed, g)
            while not c.name.endswith(":" + kind):
                cseed += 1
                c = verify.random_cocycle(cseed, g)
            insts.append(verify.Instance(f"g{i}[k={k},seed={gseed}]/{c.name}", g, c, False))
    if size != "full":
        insts = [inst for inst in insts if not inst.is_fixture or inst.label.startswith("F2/")]
    return insts


SUITE_DEGREE_ENTRY_CAP = 1
SMOKE_CHECKS = ("def-3.1", "def-cocycle-c1c2", "def-4.4", "lemma-5.3i")


def suite_cases(ids, insts):
    """(check id, subject) of every case `run_suite(ids, cfg, instances=insts)`
    runs, in its order: a builtin check once, a graph check once per distinct
    graph, a pair check once per instance."""
    for cid in ids:
        needs = verify.REGISTRY[cid].needs
        if needs == "builtin":
            yield cid, "builtin"
            continue
        seen = set()
        for inst in insts:
            if needs == "graph":
                if id(inst.graph) in seen:
                    continue
                seen.add(id(inst.graph))
            yield cid, inst.label


def build_suite_battery(seed: int, size: str, workdir: str) -> Pass:
    """Every case of `run_suite("all", cfg, instances=insts)`, one `replay`
    call each, in the order run_suite runs them over one shared instance
    list, so memos are shared as in one run_suite call and every case gets
    the seed it gets there.

    One operation per case, not per check, keeps each timed call short:
    def-4.4 alone takes about 2 s over the whole instance list, and the best
    time of a 2 s call over a run follows the host's drift more than the
    best times of its cases do.  Degree entries are capped at 1, which
    halves the Fock truncations of the default configuration."""
    cfg = verify.SuiteConfig(seed=seed, degree_entry_cap=SUITE_DEGREE_ENTRY_CAP)
    insts = suite_instances(seed, cfg, size)
    ids = list(verify.REGISTRY) if size == "full" else list(SMOKE_CHECKS)
    the_pass = Pass([])
    digest = hashlib.sha256()

    def verdict(r):
        digest.update(f"{r.case.check_id}|{r.case.subject}|{r.case.seed}|{r.status}\n".encode())
        the_pass.digest = digest.hexdigest()
        if r.status != "fail":
            return None
        detail = f"fails on {r.case.subject}: {r.witness!r}"
        crash = _crash_type(r.witness)
        if crash:
            raise Crashed(crash, detail)
        return detail

    for cid, subject in suite_cases(ids, insts):
        # replay reads only the check id and the subject of the case
        case = verify.CheckCase(cid, subject, seed)
        the_pass.ops.append(Op("check", f"{cid} {subject}",
                               lambda case=case: verify.replay(case, cfg, instances=insts), verdict))
    return the_pass


# -- fock_cli ------------------------------------------------------------------

FOCK_SHAPE = (1, (2, 2))  # single_vertex(2, (2, 2))


def build_fock_cli(seed: int, size: str, workdir: str) -> Pass:
    """`kgt fock` in-process on a graph document and a table-cocycle document.

    Matrices are the dense emission of the X model at N = (3, 3), the baseline
    truncation (dimension 225).  The relation reports run at N = (2, 2) in X
    (dimension 49) and at working depth (2, 2) over N = (1, 1) in Y: at the
    baseline truncation one X report takes about 18 s, too long to time
    several times in a run on a shared host.
    """
    smoke = size != "full"
    g = single_vertex(2, FOCK_SHAPE[1])
    c = seeded_bicharacter(g, _rng(seed, "fock"))
    cap = (2, 2) if smoke else (3, 3)  # the table cap, and the matrices' truncation N
    graph_doc = os.path.join(workdir, "graph.json")
    cocycle_doc = os.path.join(workdir, "cocycle.json")
    with open(graph_doc, "w") as fh:
        json.dump(cli.emit_graph_doc(g), fh)
    with open(cocycle_doc, "w") as fh:
        json.dump(cli.emit_cocycle_doc(c, cap), fh)

    n = ",".join(map(str, cap))
    rel_n, depth = ("1,1", "1,1") if smoke else ("2,2", "2,2")
    x_dim = sum(path_count(FOCK_SHAPE, t) for t in degrees.degrees_upto(cap))

    def fock_op(kind, name, args, verdict):
        out = os.path.join(workdir, name.replace(" ", "-") + ".out")
        argv = ["fock", graph_doc, cocycle_doc, *args, "--out", out]
        return Op(kind, name, lambda: cli.main(argv), verdict(out))

    return Pass([
        fock_op("relations", "X relations", ["--N", rel_n], lambda out: _relations_verdict(g, c, out)),
        fock_op("relations", "Y relations", ["--system", "Y", "--N", "1,1", "--D", depth],
                lambda out: _relations_verdict(g, c, out)),
        fock_op("matrices", "X matrices", ["--N", n, "--emit", "matrices"],
                lambda out: _matrices_verdict(x_dim, len(g.vertices) + len(g.all_edges), out)),
    ])


def _relations_verdict(g, c, out: str):
    """Exit code 0, every relation line `ok`, and each commutation scalar z in
    S_f S_e = z S_e S_f equal to c(f, e) / c(e, f) to within 1e-12."""

    def verdict(code):
        if code != 0:
            return f"exit code {code}"
        with open(out) as fh:
            lines = fh.read().splitlines()
        if not lines:
            return "empty report"
        for line in lines:
            if line.startswith("commutation "):
                fid, eid = line.split()[1][2:], line.split()[2][2:]
                ef, ee = g.edge_path(fid), g.edge_path(eid)
                want = complex(c(ef, ee) * c(ee, ef).conj())
                zs = line.split("z = ", 1)[1].split(" ", 1)[0]
                z = complex(zs.replace("i", "j"))
                if abs(z - want) > 1e-12:
                    return f"commutation z = {z}, expected {want}"
            elif not line.startswith("ok "):
                return f"report line {line!r}"
        return None

    return verdict


def _matrices_verdict(dim: int, count: int, out: str):
    """Exit code 0, and a document with `count` operators of size `dim`."""

    def verdict(code):
        if code != 0:
            return f"exit code {code}"
        with open(out) as fh:
            doc = json.load(fh)
        if doc["dim"] != dim or len(doc["operators"]) != count:
            return f"dim {doc['dim']} with {len(doc['operators'])} operators, expected {dim} with {count}"
        if any(len(op["matrix"]) != dim for op in doc["operators"]):
            return "an operator matrix has the wrong size"
        return None

    return verdict


BUILDERS = {
    "suite_battery": build_suite_battery,
    "fock_cli": build_fock_cli,
}


def build(workload: str, seed: int, size: str, workdir: str) -> Pass:
    return BUILDERS[workload](seed, size, workdir)
