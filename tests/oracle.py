"""Definitions that tests check the cached and batched code against.

`split_by_squares` walks the squares of the skeleton one edge at a time, so
tests can check KGraph.split, KGraph.factor_indices and everything built on
them against it, independent of KGraph's cached tables.  `point_creations`
builds every point-mass creation of a degree as a dense operator, for the
dense loops that the Fock point tables replaced, and `creation_pairs` sums
dense creation pairs C(f) C(g)*, the definition that the images of compacts
built by `fock_compacts_x` are checked against.  `twist_fields` computes
the fields of a cocycle twist table entry by entry, the definition that
`Twist`, which computes them once per distinct value, is checked against.
`check_by_triples` walks (C1) one composable triple at a time, the
definition of `check_cocycle`, which checks it in batches of degree splits.
"""

import math

import numpy as np

from kgt import degrees as dg
from kgt.cocycle import EXACT, FLOAT, CocycleReport
from kgt.fock import FockOp, creation_x
from kgt.kgraph import Path
from kgt.xmod import XElem


def _pull_front(g, seq, color):
    """Move the first color-`color` edge to position 0 through squares."""
    seq = list(seq)
    idx = next(j for j, ident in enumerate(seq) if g.edge(ident).color == color)
    while idx > 0:
        seq[idx - 1], seq[idx] = g.skeleton.squares[(seq[idx - 1], seq[idx])]
        idx -= 1
    return seq


def split_by_squares(g, la, m):
    """The definition of la = mu.nu with d(mu) = m: pull the first edge of
    the lowest color m needs to the front through the squares, then split
    the rest."""
    m = dg.as_degree(m, g.k)
    if not any(m):
        return g.vertex_path(la.range), la
    if m == la.degree:
        return la, g.vertex_path(la.source)
    i = next(c for c in range(1, g.k + 1) if m[c - 1] > 0)
    seq = _pull_front(g, la.edges, i)
    head = g.edge(seq[0])
    rest = Path(dg.sub(la.degree, dg.unit(g.k, i)), tuple(seq[1:]), head.source, la.source)
    mu_tail, nu = split_by_squares(g, rest, dg.sub(m, dg.unit(g.k, i)))
    return Path(m, (seq[0],) + mu_tail.edges, la.range, mu_tail.source), nu


def point_creations(space, c, n):
    """creation_x of every point mass XElem.delta of degree n, in path order;
    at n = 0 these are the vertex projections, in vertex order."""
    g = space.graph
    return [creation_x(space, c, XElem.delta(g, la)) for la in g.paths(n)]


def creation_pairs(space, c, pairs):
    """The sum of C(f) C(g)* over the pairs (f, g) of path functions, as
    dense creations; a frame gs gives its covariance sum through the pairs
    (g, conj g)."""
    out = FockOp.zeros(space)
    for f, g in pairs:
        out = out + creation_x(space, c, f) @ creation_x(space, c, g).adjoint()
    return out


def twist_fields(phases):
    """(values, modulus, ints) of the twist entries `phases`, entry by entry:
    complex(p), abs(complex(p)), and the integer encoding (turns, turn_den,
    rads, rad_den) over the lcm of every entry's denominators, or None when
    an entry is inexact or the encoding passes the int64-safe bound 2**60."""
    ps = list(phases)
    values = np.array([complex(p) for p in ps], dtype=np.complex128)
    modulus = np.array([abs(complex(p)) for p in ps], dtype=np.float64)
    if not all(p.is_exact for p in ps):
        return values, modulus, None
    turn_den = math.lcm(*(p.turns.denominator for p in ps))
    rad_den = math.lcm(*(p.rads.denominator for p in ps))
    turns = [p.turns.numerator * turn_den // p.turns.denominator for p in ps]
    rads = [p.rads.numerator * rad_den // p.rads.denominator for p in ps]
    if turn_den > 2**60 or any(abs(r) > 2**60 for r in rads):
        return values, modulus, None
    return values, modulus, (np.array(turns, dtype=np.int64), turn_den, np.array(rads, dtype=np.int64), rad_den)


def check_by_triples(c, cap, tol=1e-9):
    """The definition of check_cocycle: (C1), and in float mode the modulus
    of c(l1, l2), one triple at a time, in the order total degree, then
    dg.splits(total, 3), then g.paths(total)."""
    g = c.graph
    cap = dg.as_degree(cap, g.k)
    eps = 0.0 if c.mode == EXACT else tol
    rep = CocycleReport()
    for total in dg.degrees_upto(cap):
        for m, n, p in dg.splits(total, 3):
            for la in g.paths(total):
                l1, rest = split_by_squares(g, la, m)
                l2, l3 = split_by_squares(g, rest, n)
                lhs = c(l1, l2) * c(g.compose(l1, l2), l3)
                rhs = c(l1, g.compose(l2, l3)) * c(l2, l3)
                rep.triples_checked += 1
                if not lhs.close(rhs, eps):
                    rep.first_failure = ("C1", (l1, l2, l3), (lhs, rhs))
                    return rep
                if c.mode == FLOAT:
                    val = abs(complex(c(l1, l2)))
                    if abs(val - 1.0) > tol:
                        rep.first_failure = ("modulus", (l1, l2), val)
                        return rep
    return rep
