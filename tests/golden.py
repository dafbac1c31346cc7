"""Golden results: sha256 digests of the Fock relation reports and of the
lines of every registered check in the whole suite.

    PYTHONPATH=src python tests/golden.py

rewrites tests/golden.json from the current code.  tests/test_golden.py
recomputes every digest and compares it with that file, so a change to any
of these results fails the test.  A change that means to alter a result
runs this script and names every changed entry in CHANGES.md.
"""

import hashlib
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from kgt import cli
from kgt.cocycle import bicharacter_cocycle
from kgt.kgraph import single_vertex
from kgt.phases import Phase
from kgt.verify import SuiteConfig, run_suite

GOLDEN = Path(__file__).with_name("golden.json")

# the kgt fock relation reports, by truncation and model
FOCK_RUNS = {
    "fock X N=2,2": ["--N", "2,2"],
    "fock X N=1,2": ["--N", "1,2"],
    "fock Y N=1,1 D=2,2": ["--system", "Y", "--N", "1,1", "--D", "2,2"],
    "fock Y N=1,1 D=3,3": ["--system", "Y", "--N", "1,1", "--D", "3,3"],
}
# the (seed, degree cap) runs of the whole suite; cap 0 truncates at N = 0,
# the only run that reaches the skip reasons of remark-4.6ii and zeta-surjectivity
SUITE_RUNS = ((0, 1), (7919, 1), (0, 2), (0, 0))


def _sha(lines) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def _report_lines(text: str) -> list:
    """The lines of a relation report.  A commutation line keeps its edge
    pair and z rounded to 1e-9: its residual and the last digits of z are
    BLAS roundoff, which differs between platforms."""
    out = []
    for line in text.splitlines():
        if line.startswith("commutation "):
            head, z = line.split(": z = ")
            z = complex(z.split(" ")[0].replace("i", "j"))
            line = f"{head}: z = {round(z.real, 9) + 0.0:+.9f}{round(z.imag, 9) + 0.0:+.9f}i"
        out.append(line)
    return out


def fock_digests(workdir) -> dict:
    """`kgt fock` on single_vertex(2, (2, 2)) and an exact bicharacter (odd
    eighths of a turn), as graph and table documents."""
    g = single_vertex(2, (2, 2))
    turns = [[Fraction(1, 8), Fraction(3, 8)], [Fraction(5, 8), Fraction(7, 8)]]
    c = bicharacter_cocycle(g, [[Phase.from_turns(t) for t in row] for row in turns])
    graph_doc, cocycle_doc = os.path.join(workdir, "graph.json"), os.path.join(workdir, "cocycle.json")
    with open(graph_doc, "w") as fh:
        json.dump(cli.emit_graph_doc(g), fh)
    with open(cocycle_doc, "w") as fh:
        json.dump(cli.emit_cocycle_doc(c, (3, 3)), fh)
    out = {}
    for name, args in FOCK_RUNS.items():
        report = os.path.join(workdir, "report.txt")
        code = cli.main(["fock", graph_doc, cocycle_doc, *args, "--out", report])
        with open(report) as fh:
            out[name] = _sha([f"exit {code}"] + _report_lines(fh.read()))
    return out


def suite_digests() -> dict:
    """One digest per check id, over its (id, subject, seed, status,
    witness, skip reason) lines in every run of SUITE_RUNS."""
    lines = {}
    for seed, cap in SUITE_RUNS:
        for r in run_suite("all", SuiteConfig(seed=seed, degree_entry_cap=cap)).results:
            c = r.case
            line = f"{seed},{cap}|{c.check_id}|{c.subject}|{c.seed}|{r.status}|{r.witness!r}|{r.reason!r}"
            lines.setdefault(c.check_id, []).append(line)
    return {f"suite {cid}": _sha(found) for cid, found in lines.items()}


def digests(workdir) -> dict:
    return {**fock_digests(workdir), **suite_digests()}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        found = digests(tmp)
    GOLDEN.write_text(json.dumps(found, indent=2) + "\n")
    json.dump(found, sys.stdout, indent=2)
    print()
