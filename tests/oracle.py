"""Definitions that tests check the cached and batched code against.

`split_by_squares` walks the squares of the skeleton one edge at a time, so
tests can check KGraph.split, KGraph.factor_indices and everything built on
them against it, independent of KGraph's cached tables.  `factor_walk` is
the normal-form walk over every composable pair, the definition of the
factor_indices tables that KGraph composes from one-edge tables.  `point_creations`
builds every point-mass creation of a degree as a dense operator, for the
dense loops that the Fock point tables replaced, and `creation_pairs` sums
dense creation pairs C(f) C(g)*, the definition that the images of compacts
built by `fock_compacts_x` are checked against.  `fock_compacts_x`,
`fock_compacts_y` and `gauge_unitary` are the dense images of compacts of X
and Y and the dense gauge unitary, which the Fock checks replaced by entry
lists of the point tables and of `y_iota`.  `twist_fields` computes
the fields of a cocycle twist table entry by entry, the definition that
`Twist`, which computes them once per distinct value, is checked against.
`check_by_triples` walks (C1) one composable triple at a time, the
definition of `check_cocycle`, which checks it in chunks of degree splits.
`zeta_dense` and `nica_dense` are the dense routes of
`zeta_surjectivity_check` and `nica_check`, which compare the same sides in
column-entry form: every image a dense operator, every product one `@`;
`nica_dense` sums its images of compacts from `point_creations`, and
`creation` is the dense creation by an element of either module.
`source_off_block` and `tail_off_block` mark the entries that an operator on
X_n and on Y_n at a working depth holds at 0: across the source blocks, and
across the tails la(n, depth) found by `split_by_squares`.  The module layer
builds every operator in that shape and does not test it.
"""

import math

import numpy as np

from kgt import degrees as dg
from kgt import fock
from kgt.cocycle import CocycleReport
from kgt.errors import DegreeExceedsTruncation, DegreeMismatch
from kgt.fock import FockOp, creation_x, creation_y
from kgt.kgraph import Path
from kgt.xmod import ModuleReport, XElem, XOp, arrays_close, x_compact_align, x_theta
from kgt.ymod import CylElem, alpha, alpha_decompose, phi_y, y_iota


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


def _differ(keys):
    """The mask of the pairs (i, j) with keys[i] != keys[j]."""
    return np.array([[a != b for b in keys] for a in keys], dtype=bool).reshape(len(keys), len(keys))


def source_off_block(g, n):
    """The entries of a matrix over Lambda^n between paths of different
    sources: an adjointable operator on X_n is 0 there."""
    return _differ([la.source for la in g.paths(n)])


def tail_off_block(g, n, depth):
    """The entries of a matrix over Lambda^depth between paths of different
    tails la(n, depth): an adjointable operator on Y_n at that working depth
    is 0 there."""
    return _differ([split_by_squares(g, la, n)[1] for la in g.paths(depth)])


def factor_walk(g, m, n):
    """The definition of factor_indices(m, n): bring the edges of each mu in
    Lambda^m followed by each nu in s(mu).Lambda^n into normal form, and find
    the composite by its Path.sort_key; as lists (pre, suf)."""
    m, n = dg.as_degree(m, g.k), dg.as_degree(n, g.k)
    index = {p.sort_key(): t for t, p in enumerate(g.paths(dg.add(m, n)))}
    pre, suf = [0] * len(index), [0] * len(index)
    for i, mu in enumerate(g.paths(m)):
        for j, nu in enumerate(g.paths(n)):
            if nu.range == mu.source:
                t = index[g._normal_form(mu.edges + nu.edges) or (mu.range,)]
                pre[t], suf[t] = i, j
    return pre, suf


def zeros(space, shift=None):
    """The zero operator of degree shift (default 0) on the Fock space."""
    shift = (0,) * space.graph.k if shift is None else shift
    return FockOp(space, shift, np.zeros((space.dim, space.dim)))


def gauge_unitary(space, z):
    """Diagonal unitary acting by prod z_i^(n_i) on the degree-n block."""
    z = tuple(complex(x) for x in z)
    if len(z) != space.graph.k:
        raise DegreeMismatch(f"need {space.graph.k} circle coordinates", z)
    diag = np.ones(space.dim, dtype=np.complex128)
    for i, zi in enumerate(z):
        diag *= zi ** space._deg[:, i]
    return FockOp(space, (0,) * space.graph.k, np.diag(diag))


def fock_compacts_x(space, c, S):
    """psi^(m)(S), the degree-shift-zero image of a compact S on X_m: the sum
    of S[i, j] C(delta_i) C(delta_j)* over the nonzero entries of S,
    scattered from fock._rank_ones, dim terms at a time; by bilinearity,
    C(f) C(g)* is the image of x_theta(f, g)."""
    m = S.degree
    if not dg.leq(m, space.N):
        raise DegreeExceedsTruncation(f"degree {m} exceeds {space.N}", m)
    i, j = np.nonzero(S.matrix)
    w = S.matrix[i, j]
    M = np.zeros((space.dim, space.dim), dtype=np.complex128)
    everywhere = np.ones(space.dim, dtype=bool)
    step = max(space.dim, 1)
    for at in range(0, len(i), step):
        s = slice(at, at + step)
        _, col, row, value = fock._entries(fock._rank_ones(space, c, m, i[s], j[s]), w[s], i[s], everywhere)
        np.add.at(M, (row, col), value)
    return FockOp(space, dg.zero(space.graph.k), M)


def fock_compacts_y(space, c, S):
    """The image of an adjointable operator on Y_n: y_iota(S) lifted into
    every block above n."""
    n = S.module_degree
    M = np.zeros((space.dim, space.dim), dtype=np.complex128)
    for q in space.blocks:
        if not dg.leq(n, q):
            continue
        block = y_iota(c, S, q).lift(space.block_depth(q)).matrix
        sl = space.block_slice(q)
        M[sl, sl] = block
    return FockOp(space, (0,) * space.graph.k, M)


def creation(space, c, x):
    """The dense creation by a path function or a cylinder element."""
    if isinstance(x, XElem):
        return creation_x(space, c, x)
    return creation_y(space, c, x)


def point_creations(space, c, n):
    """creation_x of every point mass XElem.delta of degree n, in path order;
    at n = 0 these are the vertex projections, in vertex order."""
    g = space.graph
    return [creation_x(space, c, XElem.delta(g, la)) for la in g.paths(n)]


def creation_pairs(space, c, pairs):
    """The sum of C(f) C(g)* over the pairs (f, g) of path functions, as
    dense creations; a frame gs gives its covariance sum through the pairs
    (g, conj g)."""
    out = zeros(space)
    for f, g in pairs:
        out = out + creation_x(space, c, f) @ creation_x(space, c, g).adjoint()
    return out


def twist_fields(phases):
    """(values, modulus, ints) of the twist entries `phases`, entry by entry:
    complex(p), abs(complex(p)) (1.0 for an exact p), and the integer
    encoding (turns, turn_den, rads, rad_den) over the lcm of every entry's
    denominators, or None when an entry is inexact or the encoding passes
    the int64-safe bound 2**60."""
    ps = list(phases)
    values = np.array([complex(p) for p in ps], dtype=np.complex128)
    modulus = np.array([1.0 if p.is_exact else abs(complex(p)) for p in ps], dtype=np.float64)
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
    """The definition of check_cocycle: (C1), two exact sides compared at 0
    and any other pair at tol, and the modulus of an inexact c(l1, l2), one
    triple at a time, in the order total degree, then dg.splits(total, 3),
    then g.paths(total)."""
    g = c.graph
    cap = dg.as_degree(cap, g.k)
    rep = CocycleReport()
    for total in dg.degrees_upto(cap):
        for m, n, p in dg.splits(total, 3):
            for la in g.paths(total):
                l1, rest = split_by_squares(g, la, m)
                l2, l3 = split_by_squares(g, rest, n)
                lhs = c(l1, l2) * c(g.compose(l1, l2), l3)
                rhs = c(l1, g.compose(l2, l3)) * c(l2, l3)
                rep.triples_checked += 1
                if not lhs.close(rhs, 0.0 if lhs.is_exact and rhs.is_exact else tol):
                    rep.first_failure = ("C1", (l1, l2, l3), (lhs, rhs))
                    return rep
                if not c(l1, l2).is_exact:
                    val = abs(complex(c(l1, l2)))
                    if abs(val - 1.0) > tol:
                        rep.first_failure = ("modulus", (l1, l2), val)
                        return rep
    return rep


def zeta_dense(space, c, n, tol=1e-9):
    """zeta_surjectivity_check with dense operators: per depth-(D-N+n) path
    la, sum_xi C(xi) @ (inner_sum - defect) from fock_compacts_x and dense
    creations, against the creation by the cylinder on interior(n), and
    applied to the basis vector at la's tail."""
    g = space.graph
    n = dg.as_degree(n, g.k)
    rep = ModuleReport()
    depth = space.block_depth(n)
    p = dg.sub(depth, n)
    for la in g.paths(depth):
        dec = alpha_decompose(XElem.delta(g, la), n)
        tail = alpha(dg.zero(g.k), p, dec.f_tilde)

        thetas = sum((x_theta(dec.f_tilde, eta) for eta in dec.eta), XOp.zeros(g, p))
        inner_sum = fock_compacts_x(space, c, thetas)
        defect = fock_compacts_x(space, c, XOp(g, p, phi_y(tail, p).matrix)) - creation_y(space, c, tail)

        assembled = zeros(space, n)
        for xi in dec.xi:
            assembled = assembled + creation_x(space, c, xi) @ (inner_sum - defect)

        target = creation_y(space, c, CylElem.delta(g, la, n))
        rep.cases_checked += 1
        if not assembled.close_on_interior(target, n, tol):
            return rep.fail(("operator", la, None))

        seed, want = np.zeros(space.dim), np.zeros(space.dim)  # the basis vectors at la's tail and at la
        seed[space.block_slice(dg.zero(g.k)).start + g.path_index(p)[g.split(la, n)[1]]] = 1.0
        want[space.block_slice(n).start + g.path_index(depth)[la]] = 1.0
        rep.cases_checked += 1
        if not arrays_close(assembled.matrix @ seed, want, tol):
            return rep.fail(("vector", la, None))
    return rep


def compacts_x_dense(space, ops, S):
    """psi(S), the sum of S[i, j] ops[i] @ ops[j]* over the nonzero entries
    of S, for the dense point creations ops of S's degree."""
    out = zeros(space)
    for (i, j), w in np.ndenumerate(S.matrix):
        if w != 0:
            out = out + w * (ops[i] @ ops[j].adjoint())
    return out


def nica_dense(space, c, S, T, tol=1e-9):
    """nica_check with dense operators: psi(S) @ psi(T) against psi of the
    aligned compact, each image summed from dense point creations, on
    interior(m v n)."""
    m, n = S.degree, T.degree
    j = dg.join(m, n)
    ops = {d: point_creations(space, c, d) for d in {m, n, j}}
    lhs = compacts_x_dense(space, ops[m], S) @ compacts_x_dense(space, ops[n], T)
    rhs = compacts_x_dense(space, ops[j], x_compact_align(c, S, T))
    rep = ModuleReport(cases_checked=1)
    if not lhs.close_on_interior(rhs, j, tol):
        return rep.fail(("nica", (m, n), None))
    return rep
