"""Truncated Fock models for the finite-path system X and the cylinder system Y.

The space is a direct sum of degree blocks n <= N; the block n carries
depth-(D-N+n) cylinder coordinates.  At the default working depth D = N this
is the finite-path model of X, whose block n carries coordinates over
Lambda^n; a deeper D is the cylinder model of Y, on which X still acts
through creation_x, as NT(X) embeds in NT(Y).  Creation by a depth-minimal
element of degree d sends the block-n stage exactly onto the block-(n+d)
stage.  Identities that survive truncation do so on interior(d), the span of
blocks of degree <= N-d; everything asserted here is asserted at that
compression, and defects are reported rather than dropped.

A point creation sends each basis vector to at most one basis vector, so
every check here compares entries of index maps and phases, the point
tables; only creation_x and creation_y build a dense operator.  The
cylinder image of a compact, on both sides of Prop 5.1 and of the
covariance identity, is one entry transport, _cylinder_rank_ones.

Adjoints are plain conjugate transposes: each block's pairing is the counting
l2 product of coefficient vectors, which is the module inner product summed
with weight one over the base.
"""

from __future__ import annotations

from itertools import islice, product
from typing import NamedTuple

import numpy as np

from . import degrees as dg
from .cocycle import Cocycle
from .errors import (
    DegreeExceedsTruncation,
    DegreeMismatch,
    DegreeNotDominated,
    DepthOverflow,
    FockSpaceTooLarge,
)
from .kgraph import KGraph
from .xmod import (
    ModuleReport,
    XElem,
    XOp,
    arrays_close,
    compare,
    phi_x,
    times,
    x_act,
    x_compact_align,
    x_inner,
    x_theta,
    x_tmul,
)
from .ymod import (
    CylElem,
    alpha,
    alpha_decompose,
    phi_y,
    y_inner,
    y_tmul,
)

# The most bytes one dense operator may take: 256 MiB, dimension 4,096.
MAX_OP_BYTES = 256 * 2**20
# Path counts saturate here, far above any dimension under MAX_OP_BYTES.
_COUNT_CAP = 2**62


def _counted_dim(graph: KGraph, N, base) -> int:
    """The sum of |Lambda^(base+n)| over n <= N, without enumerating a path.

    With A_i the color-i adjacency matrix, |Lambda^n| is the sum of the
    entries of A_1^n_1 ... A_k^n_k, and unique factorization makes the A_i
    commute, so the sum over n <= N factors color by color.  Every count
    saturates at _COUNT_CAP: the entries are nonnegative, so a result under
    the cap is exact.
    """
    at = {v: j for j, v in enumerate(graph.vertices)}
    adj = [np.zeros((len(at), len(at)), dtype=object) for _ in range(graph.k)]
    for e in graph.all_edges:
        adj[e.color - 1][at[e.source], at[e.range]] += 1
    row = np.ones(len(at), dtype=object)
    for A, b in zip(adj, base):
        for _ in range(b):
            row = np.minimum(row @ A, _COUNT_CAP)
    for A, n in zip(adj, N):
        total, term = row, row
        for _ in range(n):
            if sum(total) >= _COUNT_CAP:
                break
            term = np.minimum(term @ A, _COUNT_CAP)
            total = np.minimum(total + term, _COUNT_CAP)
        row = total
    return min(int(sum(row)), _COUNT_CAP)


class FockSpace:
    """Direct sum of the degree-n stages for n <= N, in graded lex order.

    The working depth D defaults to N.  The space is refused before any path
    is enumerated when one dense operator on it would take more than
    MAX_OP_BYTES.  Creation operators and the relation checks read one
    point table per shift, coefficient depth and cocycle, cached on the
    space.
    """

    def __init__(self, graph: KGraph, N, depth=None):
        self.graph = graph
        self.N = dg.as_degree(N, graph.k)
        self.D = self.N if depth is None else dg.as_degree(depth, graph.k)
        if not dg.leq(self.N, self.D):
            raise DegreeNotDominated(f"depth {self.D} must dominate {self.N}", None)
        dim = _counted_dim(graph, self.N, self.block_depth(dg.zero(graph.k)))
        if 16 * dim * dim > MAX_OP_BYTES:
            at_least = " or more" if dim == _COUNT_CAP else ""
            raise FockSpaceTooLarge(
                f"a dense operator on this Fock space (dim {dim}{at_least}) takes"
                f" {16 * dim * dim} bytes{at_least}, over the limit of {MAX_OP_BYTES} bytes",
                (dim, 16 * dim * dim, MAX_OP_BYTES),
            )
        self.blocks = dg.degrees_upto(self.N)
        self._pos = {n: i for i, n in enumerate(self.blocks)}
        self._offsets = []
        self._sizes = []
        at = 0
        for n in self.blocks:
            size = len(graph.paths(self.block_depth(n)))
            self._offsets.append(at)
            self._sizes.append(size)
            at += size
        self.dim = at
        self._deg = np.zeros((at, graph.k), dtype=int)
        for n in self.blocks:
            self._deg[self.block_slice(n)] = n
        self._interior: dict[dg.Degree, np.ndarray] = {}
        self._tables: dict[tuple, _PointTable] = {}

    def block_depth(self, n):
        return dg.add(dg.sub(self.D, self.N), dg.as_degree(n, self.graph.k))

    def block_slice(self, n) -> slice:
        i = self._pos[dg.as_degree(n, self.graph.k)]
        return slice(self._offsets[i], self._offsets[i] + self._sizes[i])

    def basis(self):
        """(degree, path) per coordinate, in storage order."""
        out = []
        for n in self.blocks:
            out.extend((n, p) for p in self.graph.paths(self.block_depth(n)))
        return tuple(out)

    def interior_mask(self, d) -> np.ndarray:
        """Read-only boolean mask of the coordinates in blocks of degree <= N - d; cached."""
        d = dg.as_degree(d, self.graph.k)
        mask = self._interior.get(d)
        if mask is None:
            if not dg.leq(d, self.N):
                raise DegreeExceedsTruncation(f"{d} exceeds the truncation {self.N}", d)
            mask = np.all(self._deg <= np.asarray(dg.sub(self.N, d)), axis=1)
            mask.flags.writeable = False
            self._interior[d] = mask
        return mask

    def __repr__(self) -> str:
        return f"FockSpace(N={self.N}, D={self.D}, dim={self.dim})"


class FockOp:
    """A matrix over the Fock basis mapping each degree-q block into q + shift.

    The shift is the operator's degree: sums require equal shifts and
    products add them.  The matrix is not checked against it."""

    def __init__(self, space: FockSpace, shift, matrix):
        self.space = space
        self.shift = tuple(int(x) for x in shift)
        if len(self.shift) != space.graph.k:
            raise DegreeMismatch(f"shift rank {len(self.shift)} != {space.graph.k}", None)
        self.matrix = np.asarray(matrix, dtype=np.complex128)
        if self.matrix.shape != (space.dim, space.dim):
            raise DegreeMismatch(f"matrix shape {self.matrix.shape}, expected {space.dim}", None)

    def _same(self, other: "FockOp") -> None:
        if self.space is not other.space:
            raise DegreeMismatch("operators on different spaces", None)

    def __add__(self, other: "FockOp") -> "FockOp":
        self._same(other)
        if self.shift != other.shift:
            raise DegreeMismatch(f"shifts differ: {self.shift} vs {other.shift}", None)
        return FockOp(self.space, self.shift, self.matrix + other.matrix)

    def __sub__(self, other: "FockOp") -> "FockOp":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "FockOp":
        return FockOp(self.space, self.shift, self.matrix * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other: "FockOp") -> "FockOp":
        self._same(other)
        shift = tuple(a + b for a, b in zip(self.shift, other.shift))
        return FockOp(self.space, shift, self.matrix @ other.matrix)

    def adjoint(self) -> "FockOp":
        return FockOp(self.space, tuple(-x for x in self.shift), self.matrix.conj().T)

    def on_interior(self, d) -> np.ndarray:
        """Columns restricted to interior vectors: the action tested by identities."""
        return self.matrix[:, self.space.interior_mask(d)]

    def close(self, other: "FockOp", tol: float = 1e-9) -> bool:
        self._same(other)
        return arrays_close(self.matrix, other.matrix, tol)

    def close_on_interior(self, other: "FockOp", d, tol: float = 1e-9) -> bool:
        self._same(other)
        return arrays_close(self.on_interior(d), other.on_interior(d), tol)

    def __repr__(self) -> str:
        return f"FockOp(shift {self.shift}, dim {self.space.dim})"


def _key(x) -> tuple:
    """The (shift, depth) of the point table that the creation by x reads."""
    return (x.degree, x.degree) if isinstance(x, XElem) else (x.module_degree, x.depth)


def creation_entries(space: FockSpace, c: Cocycle, x):
    """(column, row, value) of every entry of the creation by x: the rows of
    its point table at x's nonzero coefficients, weighted by them."""
    d, depth = _key(x)
    if not dg.leq(d, space.N):
        raise DegreeExceedsTruncation(f"degree {d} exceeds {space.N}", d)
    if not dg.leq(depth, space.block_depth(d)):
        raise DepthOverflow(f"depth {depth} cannot act within working depth {space.D}", (depth, space.D))
    t = _point_table(space, c, d, depth)
    (k,) = np.nonzero(x.coeffs)
    return _entries(_PointTable(t.target[k], t.phase[k]), x.coeffs[k], k, np.ones(space.dim, dtype=bool))[1:]


def _create(space: FockSpace, c: Cocycle, x) -> FockOp:
    """The dense creation by x: its entries in one scatter."""
    col, row, value = creation_entries(space, c, x)
    M = np.zeros((space.dim, space.dim), dtype=np.complex128)
    M[row, col] = value
    return FockOp(space, _key(x)[0], M)


def creation_x(space: FockSpace, c: Cocycle, f: XElem) -> FockOp:
    """Left twisted multiplication by f, compressed at the truncation boundary.

    On a space with D > N this is the canonical map X_d -> L(F_Y): f acts as
    the cylinder alpha(d, d, f)."""
    return _create(space, c, f)


def creation_y(space: FockSpace, c: Cocycle, h: CylElem) -> FockOp:
    """Left twisted multiplication by h on the cylinder blocks."""
    return _create(space, c, h)


# -- point creations as index tables -----------------------------------------


class _PointTable(NamedTuple):
    """The creations by the point masses of one shift and coefficient depth,
    as index tables.

    Creation k, by the point mass at coefficient k, sends the basis vector
    e_col to phase[k, col] e_target[k, col], or to zero where target[k, col]
    is -1: a point creation has at most one nonzero entry in each row and
    each column.  Column dim is a zero column, so a gather through a target
    of -1 lands on it.  Composition is then a gather, the adjoint is the
    inverse index map, and a range projection is a diagonal.  The entries
    are the (k, col) with target[k, col] >= 0.
    """

    target: np.ndarray  # (K, dim + 1) target rows, -1 for none
    phase: np.ndarray  # (K, dim + 1) phases, 0 where target is -1


def _point_table(space: FockSpace, c: Cocycle, d, depth) -> _PointTable:
    """The creations by the point masses of cylinder depth `depth` in the
    fiber of degree d, for every block pair (q, q+d) with q + d <= N, with
    no dense matrix; cached on the space per cocycle.  An X creation reads
    the table at depth d.  The cocycle is asked for every block of the shift
    that holds an entry, whatever coefficients a creation later weights the
    table with."""
    table = space._tables.get((c, d, depth))
    if table is not None:
        return table
    g, dim = space.graph, space.dim
    target = np.full((len(g.paths(depth)), dim + 1), -1, dtype=np.intp)
    phase = np.zeros(target.shape, dtype=np.complex128)
    for q in space.blocks:
        t = dg.add(q, d)
        if not dg.leq(t, space.N):
            continue
        # c(x(0, d), x(d, d+q)) for x in Lambda^Dt, read off the (d, q) twist
        Dt = space.block_depth(t)
        _, suf = g.factor_indices(d, space.block_depth(q))
        if not suf.size:
            continue  # no entry, so the cocycle is not asked
        k = g.factor_indices(depth, dg.sub(Dt, depth))[0]
        tw = g.factor_indices(t, dg.sub(Dt, t))[0]
        col = space.block_slice(q).start + suf
        row = space.block_slice(t).start + np.arange(len(suf))
        target[k, col] = row
        phase[k, col] = c.twist(d, q).values[tw]
    return space._tables.setdefault((c, d, depth), _PointTable(target, phase))


def _adjoint(t: _PointTable) -> _PointTable:
    """The adjoint of every creation in t: the inverse index maps, with
    conjugate phases."""
    target = np.full(t.target.shape, -1, dtype=np.intp)
    phase = np.zeros(t.phase.shape, dtype=np.complex128)
    k, col = np.nonzero(t.target[:, :-1] >= 0)
    row = t.target[k, col]
    target[k, row] = col
    phase[k, row] = np.conj(t.phase[k, col])
    return _PointTable(target, phase)


def _compose(a: _PointTable, i, b: _PointTable, j) -> _PointTable:
    """The tables of a[i[p]] b[j[p]], pair by pair: one gather."""
    mid = b.target[j]
    rows = np.asarray(i)[:, None]
    return _PointTable(a.target[rows, mid], times(a.phase[rows, mid], b.phase[j]))


class _Stack(NamedTuple):
    """The point tables of several (shift, depth) keys as one table, row
    after row: composition reads its rows, and _products_close reads a
    key's rows as the creations by the elements of that key."""

    table: _PointTable
    rows: dict  # key -> the indices of its rows in the stack


def _stack(space: FockSpace, c: Cocycle, keys) -> _Stack:
    keys = list(dict.fromkeys(keys))
    tables = [_point_table(space, c, *key) for key in keys]
    ends = np.cumsum([len(t.target) for t in tables])
    table = _PointTable(np.concatenate([t.target for t in tables]), np.concatenate([t.phase for t in tables]))
    return _Stack(table, {key: np.arange(end - len(t.target), end) for key, t, end in zip(keys, tables, ends)})


def _products_close(space: FockSpace, stack: _Stack, a: _PointTable, b: _PointTable, left, right, parts, tol):
    """Per pair, whether the composite a[i] b[j] is close to the creation by
    its module element, on interior(d), or everywhere when d is None: each
    (x, d) in parts gives the pairs (left[r], right[r]) their elements, x
    batched, and the stack holds the point table of every x.

    Every pair is composed and compared in one batch by _sums_close, both
    sides as entries, one owner per pair: the composite's, and the
    creation's, the entries of the stacked rows of x's nonzero coefficients
    weighted by them, as _create scatters it."""
    if not parts:
        return np.zeros(0, dtype=bool)
    lhs = _compose(a, np.concatenate(left), b, np.concatenate(right))
    inside = np.ones((len(lhs.target), space.dim), dtype=bool)
    rows, w, owner, at = [], [], [], 0
    for x, d in parts:
        s = slice(at, at + len(x.coeffs))
        if d is not None:
            inside[s] = space.interior_mask(d)
        p, k = np.nonzero(x.coeffs)
        rows.append(stack.rows[_key(x)][k])
        w.append(x.coeffs[p, k])
        owner.append(at + p)
        at = s.stop
    rows, w, owner = (np.concatenate(x) for x in (rows, w, owner))
    want = _entries(_PointTable(stack.table.target[rows], stack.table.phase[rows]), w, owner, inside[owner])
    got = _entries(lhs, np.ones(at, dtype=np.complex128), np.arange(at), inside)
    return _sums_close(space, at, got, want, tol)


def _entries(t: _PointTable, w: np.ndarray, owner: np.ndarray, inside: np.ndarray):
    """(owner, column, row, value) of every entry of the operators in t on
    the columns where the mask inside holds, one mask for every operator or
    one row each: operator p is row p of t weighted by w[p], and belongs to
    owner[p]."""
    p, col = np.nonzero((t.target[:, : inside.shape[-1]] >= 0) & inside)
    return owner[p], col, t.target[p, col], times(t.phase[p, col], w[p])


def _sums_close(space: FockSpace, owners: int, lhs, rhs, tol) -> np.ndarray:
    """Per owner o < owners, whether two sums of weighted point operators
    agree: lhs and rhs list their entries as _entries does, and entries at
    one (owner, column, row) add up.  The answer is arrays_close's on the
    two sums as dense matrices, one pair per owner, without them: each
    owner's distinct positions are laid out as one case of compare."""
    o, col, row = (np.concatenate([x, y]) for x, y in zip(lhs[:3], rhs[:3]))
    if not len(o):
        return np.ones(owners, dtype=bool)
    a = np.concatenate([lhs[3], np.zeros(len(rhs[3]), dtype=np.complex128)])
    b = np.concatenate([np.zeros(len(lhs[3]), dtype=np.complex128), rhs[3]])
    key = (o * (space.dim + 1) + col) * (space.dim + 1) + row
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    who = o[order[first]]
    counts = np.bincount(who, minlength=owners)
    at = np.arange(len(first)) - (np.cumsum(counts) - counts)[who]  # the position's place in its owner's row
    A = np.zeros((owners, counts.max()), dtype=np.complex128)
    B = np.zeros(A.shape, dtype=np.complex128)
    A[who, at] = np.add.reduceat(a[order], first)
    B[who, at] = np.add.reduceat(b[order], first)
    return compare(A, B, tol).ok


def _nonzeros(S: np.ndarray, sign: float = 1.0) -> list:
    """(i, j, sign * S[i, j]) for every nonzero entry of the matrix S."""
    i, j = np.nonzero(S)
    return list(zip(i, j, sign * S[i, j]))


def _tally(rep: ModuleReport, ok: np.ndarray):
    """Count the cases in ok, up to and including its first failure, into
    rep; return the index of that failure, or None."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        rep.cases_checked += int(bad[0]) + 1
        return int(bad[0])
    rep.cases_checked += len(ok)
    return None


def _rank(s: np.ndarray, size: int):
    """np.linalg.matrix_rank of a matrix with singular values s (the last
    axis; earlier axes are a batch) and larger side `size`, by its default
    threshold."""
    return np.count_nonzero(s > s.max(axis=-1, initial=0, keepdims=True) * size * np.finfo(np.float64).eps, axis=-1)


def _acted_on(space: FockSpace, m) -> np.ndarray:
    """The mask of the columns of interior(m) in the blocks q >= m: the only
    columns of interior(m) on which an image of compacts of degree m, or a
    product of such images, can act, since C(delta_b)* vanishes on every
    block that does not dominate m."""
    return space.interior_mask(m) & np.all(space._deg >= np.asarray(m), axis=1)


def _rank_ones(space: FockSpace, c: Cocycle, m, i, j) -> _PointTable:
    """C(delta_i[p]) C(delta_j[p])*, the image of x_theta(delta_i[p],
    delta_j[p]) on X_m, for every pair p, from the point table of degree m:
    a target row and a phase per column, -1 and 0 where the column maps to
    zero."""
    t = _point_table(space, c, m, m)
    out = _compose(t, i, _adjoint(t), j)
    return out._replace(phase=np.where(out.target >= 0, out.phase, 0))


def _cylinder_rank_ones(space: FockSpace, c: Cocycle, m, a, b) -> _PointTable:
    """psi_Y(alpha_k(x_theta(delta_a[p], delta_b[p]))), the image of the
    rank-one theta(delta_a[p], delta_b[p]) on the depth-m cylinders of Y_m,
    on interior(m), for every pair p, without a dense operator: a point
    table in _rank_ones's layout, zero column included, -1 and 0 where a
    column maps to zero or lies outside interior(m).  It is the cylinder
    side of Prop 5.1, and, weighted by the entries of phi_Y(a, m), of the
    covariance identity.

    This is ymod's entry transport from L(Y_m) to L(Y_q), read from
    factor_indices and the (m, q - m) twists, never from a point table.  On
    the block q >= m, at depth D, the column la with la(0, m) = b[p] maps to
    the row la' = a[p] la(m, D), when that path exists, with the phase
    c(la'(0, m), la'(m, q)) conj(c(la(0, m), la(m, q)))."""
    g = space.graph
    a, b = np.asarray(a)[:, None], np.asarray(b)[:, None]
    target = np.full((len(a), space.dim + 1), -1, dtype=np.intp)
    phase = np.zeros(target.shape, dtype=np.complex128)
    top = dg.sub(space.N, m)
    for q in space.blocks:
        if not (dg.leq(m, q) and dg.leq(q, top)):
            continue
        D = space.block_depth(q)
        pre, suf = g.factor_indices(m, dg.sub(D, m))
        at = np.full((len(g.paths(m)), len(g.paths(dg.sub(D, m)))), -1, dtype=np.intp)
        at[pre, suf] = np.arange(len(pre))  # the inverse of the factorization
        tw = c.twist(m, dg.sub(q, m)).values[g.factor_indices(q, dg.sub(D, q))[0]]
        row = at[a, suf]
        hit = (pre == b) & (row >= 0)
        sl = space.block_slice(q)
        target[:, sl] = np.where(hit, sl.start + row, -1)
        phase[:, sl] = np.where(hit, times(tw[row], np.conj(tw)), 0)
    return _PointTable(target, phase)


# -- relation suites ---------------------------------------------------------


def relation_degrees(N) -> list:
    """The degrees the generator relations are checked at in a truncation at
    N: the unit degrees <= N, then N itself when it is nonzero and no unit."""
    k = len(N)
    out = [dg.unit(k, i) for i in range(1, k + 1) if dg.leq(dg.unit(k, i), N)]
    if any(N) and N not in out:
        out.append(N)
    return out


def _depth(space: FockSpace, n, system: str):
    """The coefficient depth of the degree-n module elements of `system`:
    path functions of degree n ("X") or cylinders of depth D-N+n ("Y")."""
    return n if system == "X" else space.block_depth(n)


def _points_at(space: FockSpace, n, system: str, k):
    """The point mass at coefficient k of the degree-n elements of
    `system`; an array of k gives them as one batched element."""
    g = space.graph
    depth = _depth(space, n, system)
    coeffs = np.eye(len(g.paths(depth)), dtype=np.complex128)[k]
    if system == "X":
        return XElem(g, n, coeffs)
    return CylElem(g, n, depth, coeffs)


def _mul(c: Cocycle, x, y):
    if isinstance(x, XElem):
        return x_tmul(c, x, y)
    return y_tmul(c, x, y)


def _right(c: Cocycle, x, a: XElem):
    """x times a in X_0: the right action, or the product with alpha(0, 0, a)."""
    if isinstance(x, XElem):
        return x_act(a, x, "right")
    z = dg.zero(a.graph.k)
    return y_tmul(c, x, alpha(z, z, a))


def _inner0(x, y):
    """The inner product as a degree-0 module element of the same kind."""
    return x_inner(x, y) if isinstance(x, XElem) else y_inner(x, y)


def _first_pairs(a, b, cap: int):
    """The first `cap` pairs of a x b, in row-major order."""
    return islice(product(a, b), cap)


def _multiplicativity(space: FockSpace, c: Cocycle, system: str, stack: _Stack, rep: ModuleReport, tol, pair_cap):
    """C(x) C(y) against C(x y) for the first pair_cap pairs (x, y) of point
    masses of `system` in each degree pair (m, n) with m + n <= N, where the
    stack holds the point creations of every block; counts each case into
    rep and returns the first failing (m, n, i, j), or None.  The products
    x y come from the module layer, one batch per degree pair; every degree
    pair is composed and compared in one batch."""
    rows = {n: stack.rows[(n, _depth(space, n, system))] for n in space.blocks}
    left, right, parts, where = [], [], [], []
    for m in space.blocks:
        for n in space.blocks:
            if not dg.leq(dg.add(m, n), space.N):
                continue
            pairs = list(_first_pairs(range(len(rows[m])), range(len(rows[n])), pair_cap))
            if not pairs:
                continue
            i, j = np.array(pairs).T
            left.append(rows[m][i])
            right.append(rows[n][j])
            parts.append((_mul(c, _points_at(space, m, system, i), _points_at(space, n, system, j)), None))
            where += [(m, n) + pair for pair in pairs]
    bad = _tally(rep, _products_close(space, stack, stack.table, stack.table, left, right, parts, tol))
    return None if bad is None else where[bad]


def rep_axioms_check(
    space: FockSpace, c: Cocycle, tol: float = 1e-9, pair_cap: int = 64, system: str = "X"
) -> ModuleReport:
    """Representation axioms on interior vectors: linearity, the right module
    action, adjoint inner products, and multiplicativity across degrees.

    `system` names the module the creations take: "X" (path functions of
    degree n) or "Y" (cylinders of depth D-N+n in the fiber of degree n).
    Every axiom compares in column-entry form, on the point tables of all
    blocks stacked, with all its blocks or degree pairs in one batch."""
    if system not in ("X", "Y"):
        raise ValueError(f"system must be 'X' or 'Y', got {system!r}")
    g = space.graph
    rep = ModuleReport()
    stack = _stack(space, c, [(n, _depth(space, n, system)) for n in space.blocks])
    rows = {n: stack.rows[(n, _depth(space, n, system))] for n in space.blocks}
    t = stack.table

    # C(e0 + 2i e1) against C(e0) + 2i C(e1), one case per block of two or
    # more point masses, on the phases of its first two point creations
    lin = [n for n in space.blocks if len(rows[n]) >= 2]
    phases = t.phase[np.array([rows[n][:2] for n in lin], dtype=np.intp).reshape(-1, 2)]
    e0, e1 = np.array([[1.0], [0.0]], dtype=np.complex128), np.array([[0.0], [1.0]], dtype=np.complex128)
    bad = _tally(rep, compare(times(phases, e0 + 2.0j * e1), times(phases, e0) + 2.0j * times(phases, e1), tol).ok)
    if bad is not None:
        return rep.fail(("linearity", lin[bad], None))

    z = dg.zero(g.k)
    vertices = _point_table(space, c, z, z)  # creation by each vertex indicator, in vertex order
    left, vs, parts, where = [], [], [], []
    for n in space.blocks:
        pairs = list(product(range(min(pair_cap, len(rows[n]))), range(len(g.vertices))))
        if not pairs:
            continue
        i, v = np.array(pairs).T
        left.append(rows[n][i])
        vs.append(v)
        parts.append((_right(c, _points_at(space, n, system, i), XElem(g, z, np.eye(len(g.vertices))[v])), None))
        where += [(n, a, g.vertices[b]) for a, b in pairs]
    bad = _tally(rep, _products_close(space, stack, t, vertices, left, vs, parts, tol))
    if bad is not None:
        return rep.fail(("right-action", where[bad], None))

    left, right, parts, where = [], [], [], []
    for n in space.blocks:
        pairs = list(_first_pairs(range(len(rows[n])), range(len(rows[n])), pair_cap))
        if not pairs:
            continue
        i, j = np.array(pairs).T
        left.append(rows[n][i])
        right.append(rows[n][j])
        parts.append((_inner0(_points_at(space, n, system, i), _points_at(space, n, system, j)), n))
        where += [(n,) + pair for pair in pairs]
    bad = _tally(rep, _products_close(space, stack, _adjoint(t), t, left, right, parts, tol))
    if bad is not None:
        return rep.fail(("inner-product", where[bad], None))

    bad = _multiplicativity(space, c, system, stack, rep, tol, pair_cap)
    if bad is not None:
        return rep.fail(("multiplicativity", bad, None))
    return rep


def nica_check(space: FockSpace, c: Cocycle, S: XOp, T: XOp, tol: float = 1e-9) -> ModuleReport:
    """psi-hat(S) psi-hat(T) against psi-hat of the aligned compact product,
    on interior(m v n), in column-entry form: the rank-one tables of S and
    T composed pair by pair and weighted by S[i, j] T[k, l], against the
    rank-one tables of the aligned compact weighted by its entries.

    Both sides act only on the blocks q >= m v n, so they are compared on
    the columns of interior(m v n) in those blocks; where there are none
    (2 (m v n) <= N fails), both are zero there, and nothing is built."""
    m, n = S.degree, T.degree
    j = dg.join(m, n)
    rep = ModuleReport(cases_checked=1)
    cols = _acted_on(space, j)
    if not cols.any():
        return rep
    A = x_compact_align(c, S, T)
    (si, sj), (ti, tj), (ai, aj) = (np.nonzero(X.matrix) for X in (S, T, A))
    s, t = (ix.ravel() for ix in np.indices((len(si), len(ti))))
    lhs = _compose(_rank_ones(space, c, m, si, sj), s, _rank_ones(space, c, n, ti, tj), t)
    rhs = _rank_ones(space, c, j, ai, aj)
    w = times(S.matrix[si, sj][s], T.matrix[ti, tj][t])
    got = _entries(lhs, w, np.zeros(len(w), dtype=np.intp), cols)  # one owner
    want = _entries(rhs, A.matrix[ai, aj], np.zeros(len(ai), dtype=np.intp), cols)
    if not _sums_close(space, 1, got, want, tol)[0]:
        return rep.fail(("nica", (m, n), None))
    return rep


def cp_identity_check(space: FockSpace, c: Cocycle, a: XElem, n, tol: float = 1e-9) -> ModuleReport:
    """The covariance defect of the finite-path compacts equals the defect of
    the cylinder compacts, on interior(n), for a in X_0 = A, whose copy in
    Y_0 is alpha(0, 0, a); any other degree is refused with DegreeMismatch.

    Both defects subtract the same creation by a from an image of a's left
    action on the degree-n module, and only absolute differences count, so
    the two images are compared directly, as entries with one owner: the
    rank-ones of degree n weighted by phi_x(a, n), against the cylinder
    rank-ones of degree n weighted by phi_y(alpha(0, 0, a), n), whose depth
    is n.  Both act only on the blocks q >= n, so they are compared on the
    columns of interior(n) in those blocks; where there are none, nothing
    is built."""
    z, n = dg.zero(space.graph.k), dg.as_degree(n, space.graph.k)
    ya = alpha(z, z, a)  # refuses any degree but 0, even where nothing is compared
    rep = ModuleReport(cases_checked=1)
    cols = _acted_on(space, n)
    if not cols.any():
        return rep
    S, T = phi_x(a, n).matrix, phi_y(ya, n).matrix
    (i, j), (k, l) = np.nonzero(S), np.nonzero(T)
    lhs = _entries(_rank_ones(space, c, n, i, j), S[i, j], np.zeros(len(i), dtype=np.intp), cols)
    rhs = _entries(_cylinder_rank_ones(space, c, n, k, l), T[k, l], np.zeros(len(k), dtype=np.intp), cols)
    if not _sums_close(space, 1, lhs, rhs, tol)[0]:
        return rep.fail(("cp-identity", n, None))
    return rep


def gauge_check(space: FockSpace, c: Cocycle, z, x, tol: float = 1e-9) -> ModuleReport:
    """Remark 4.6(ii): the gauge unitary U of z, which acts by
    prod z_i^(q_i) on the block q, conjugates the creation C by x, of
    degree d, to z^d C.  U is diagonal, so U C U* is u[row] value
    conj(u[col]) on each entry that the creation scatters."""
    z = np.asarray(z, dtype=np.complex128)
    if z.shape != (space.graph.k,):
        raise DegreeMismatch(f"need {space.graph.k} circle coordinates", tuple(z))
    u = np.ones(space.dim, dtype=np.complex128)
    for i, zi in enumerate(z):
        u *= zi ** space._deg[:, i]
    d = _key(x)[0]
    col, row, value = creation_entries(space, c, x)
    rep = ModuleReport(cases_checked=1)
    if not arrays_close(u[row] * value * np.conj(u[col]), complex(np.prod(z ** np.asarray(d))) * value, tol):
        return rep.fail(("degree-character", d, None))
    return rep


def ck_relations_check(space: FockSpace, c: Cocycle, tol: float = 1e-9) -> ModuleReport:
    """The generator relations of the twisted algebra on the whole truncation.

    The vertex projections, then composition with the cocycle phase and the
    isometry relation at every degree <= N, in one batch; then the
    exhaustion sum at each degree n of relation_degrees(N), for every vertex
    at once, asserted on the blocks whose degree dominates n; its defect is
    the projection onto the complementary low-degree corner, and is
    reported, not ignored.  Each case is checked once, on the point tables.
    At N = 0 there is no relation degree, and nothing is checked."""
    g = space.graph
    rep = ModuleReport()
    degrees = relation_degrees(space.N)
    if not degrees:
        return rep
    z = dg.zero(g.k)
    at = {p.range: i for i, p in enumerate(g.paths(z))}  # vertex -> its projection in the vertex table

    stack = _stack(space, c, [(m, m) for m in space.blocks])
    pairs = list(product(g.vertices, g.vertices))
    i, j = np.array([(at[v], at[w]) for v, w in pairs]).T
    want = XElem(g, z, np.eye(len(at))[i] * (i == j)[:, None])  # S_v S_w = [v = w] S_v
    vertex = stack.rows[(z, z)]
    bad = _tally(rep, _products_close(space, stack, stack.table, stack.table, [vertex[i]], [vertex[j]], [(want, None)], tol))
    if bad is not None:
        return rep.fail(("vertex", pairs[bad], None))

    cl, cr, cparts, cwhere = [], [], [], []  # S_mu S_nu = c(mu, nu) S_la for la = mu nu
    il, iparts, iwhere = [], [], []  # S_la* S_la = S_s(la)
    for mi, m in enumerate(space.blocks):
        paths = g.paths(m)
        if not any(m) or not paths:
            continue
        cuts = dg.splits(m, 2)
        for s, (p, q) in enumerate(cuts):
            pre, suf = g.factor_indices(p, q)
            cl.append(stack.rows[(p, p)][pre])
            cr.append(stack.rows[(q, q)][suf])
            cparts.append((XElem(g, m, np.diag(c.twist(p, q).values)), m))
            cwhere += [(mi, k, s, la, p) for k, la in enumerate(paths)]
        il.append(stack.rows[(m, m)])
        iparts.append((XElem(g, z, np.eye(len(at))[[at[la.source] for la in paths]]), m))
        iwhere += [(mi, k, len(cuts), la, None) for k, la in enumerate(paths)]
    ok = np.concatenate([
        _products_close(space, stack, stack.table, stack.table, cl, cr, cparts, tol),
        _products_close(space, stack, _adjoint(stack.table), stack.table, il, il, iparts, tol),
    ])
    where = cwhere + iwhere
    order = sorted(range(len(where)), key=lambda r: where[r][:3])  # path by path: its splits, then its isometry
    bad = _tally(rep, ok[order])
    if bad is not None:
        _, _, _, la, p = where[order[bad]]
        if p is None:
            return rep.fail(("isometry", la, None))
        return rep.fail(("compose", tuple(g.split(la, p)), None))

    # every operator below is diagonal: a range projection of a point
    # creation, or a vertex projection; one row per vertex, as in the vertex table
    vtx = _point_table(space, c, z, z)
    proj = np.zeros((len(vtx.target), space.dim), dtype=np.complex128)  # diagonal of S_v
    k, col = np.nonzero(vtx.target[:, :-1] >= 0)
    proj[k, vtx.target[k, col]] = vtx.phase[k, col]
    for n in degrees:
        low = ~np.all(space._deg >= np.asarray(n), axis=1)  # blocks not dominating n
        top = _point_table(space, c, n, n)
        k, col = np.nonzero(top.target[:, :-1] >= 0)
        phases = top.phase[k, col]
        ranges = np.array([at[la.range] for la in g.paths(n)], dtype=np.intp)  # per path of degree n, its range's row
        total = np.zeros(proj.shape, dtype=np.complex128)  # diagonal of the sum of S_la S_la* over r(la) = v
        total[ranges[k], top.target[k, col]] = times(phases, np.conj(phases))  # distinct paths have disjoint ranges
        ck_sum = compare(total[:, ~low], proj[:, ~low], tol).ok
        defect = proj - total
        shape = compare(defect, proj * low, tol).ok
        got_rank, want_rank = _rank(np.abs(defect), space.dim), np.sum(np.abs(proj) * low > 0.5, axis=1)
        for v in g.vertices:
            r = at[v]
            rep.cases_checked += 1
            if not ck_sum[r]:
                return rep.fail(("ck-sum", (n, v), None))
            rep.cases_checked += 1
            if not shape[r]:
                return rep.fail(("defect-shape", (n, v), None))
            if got_rank[r] != want_rank[r]:
                return rep.fail(("defect-rank", (n, v), (int(got_rank[r]), int(want_rank[r]))))
    return rep


def psi_check(space: FockSpace, c: Cocycle, tol: float = 1e-9, pair_cap: int = 32) -> ModuleReport:
    """The canonical maps X_n -> L(F_Y) form a Nica-covariant representation
    whose compacts factor through the cylinder compacts, and are injective
    blockwise.  Prop 5.1 is compared in column-entry form, _rank_ones
    against _cylinder_rank_ones, on interior(m), for the first pair_cap
    pairs of point masses of each degree m at once."""
    g = space.graph
    rep = ModuleReport()
    tables = {m: _point_table(space, c, m, m) for m in space.blocks}

    bad = _multiplicativity(space, c, "X", _stack(space, c, [(m, m) for m in space.blocks]), rep, tol, pair_cap)
    if bad is not None:
        m, n, i, j = bad
        return rep.fail(("psi-multiplicative", (g.paths(m)[i], g.paths(n)[j]), None))

    for m in space.blocks:
        size = len(tables[m].target)
        pairs = list(_first_pairs(range(size), range(size), pair_cap))
        if not pairs:
            continue
        cols = _acted_on(space, m)
        if not cols.any():  # both sides vanish on interior(m)
            rep.cases_checked += len(pairs)
            continue
        a, b = np.array(pairs).T
        owner, one = np.arange(len(pairs)), np.ones(len(pairs), dtype=np.complex128)
        got = _entries(_rank_ones(space, c, m, a, b), one, owner, cols)
        want = _entries(_cylinder_rank_ones(space, c, m, a, b), one, owner, cols)
        bad = _tally(rep, _sums_close(space, len(pairs), got, want, tol))
        if bad is not None:
            a, b = pairs[bad]
            return rep.fail(("psi-compacts", (g.paths(m)[a], g.paths(m)[b]), None))

    for m in space.blocks:
        # distinct point creations have disjoint supports, so their norms
        # are the singular values of their stacked matrices
        norms = np.linalg.norm(tables[m].phase[:, :-1], axis=1)
        rep.cases_checked += 1
        if _rank(norms, max(len(norms), space.dim**2)) != len(norms):
            return rep.fail(("psi-injective", m, None))

    nonzero = [m for m in space.blocks if any(m)]
    pairs = list(_first_pairs(nonzero, nonzero, pair_cap))
    rank_one = {}  # per sampled degree, the rank-one compact from its last point mass to its first
    for m in dict.fromkeys(sum(pairs, ())):
        rank_one[m] = x_theta(_points_at(space, m, "X", 0), _points_at(space, m, "X", -1))
    for m, n in pairs:
        sub = nica_check(space, c, rank_one[m], rank_one[n], tol)
        rep.cases_checked += sub.cases_checked
        if not sub.ok:
            return rep.fail(("psi-nica", (m, n), None))
    return rep


def zeta_surjectivity_check(space: FockSpace, c: Cocycle, n, tol: float = 1e-9) -> ModuleReport:
    """Rebuild every degree-n basis cylinder from point-mass section data.

    For each depth-(D-N+n) path la, split the point mass at la into prefix
    sections xi, a tail function f~ and tail sections eta; assemble
    sum_xi C(xi) (psi^(p)(sum_eta Theta(f~, eta)) - [psi^(p)(phi_Y(tail)) -
    C_Y(tail)]); and compare it with direct creation by the cylinder, both
    as operators on interior(n) and by its column at la's tail, which must
    be the basis vector at la.

    Each term of the assembled side is a composed table: C(xi) after a
    rank-one of degree p, weighted by an entry of a compact, or after the
    point creation of C_Y(tail), weighted by the tail's coefficient.  Every
    la of degree n is one owner in a batch of _sums_close, one for each
    half, with no dense operator.
    """
    g = space.graph
    n = dg.as_degree(n, g.k)
    if not dg.leq(n, space.N):
        raise DegreeExceedsTruncation(f"degree {n} exceeds {space.N}", n)
    rep = ModuleReport()
    z = dg.zero(g.k)
    depth = space.block_depth(n)
    p = dg.sub(depth, n)
    paths = g.paths(depth)
    # the terms of the assembled side, each C(delta_xi) after a rank-one
    # (i, j) of degree p or after the point creation i of C_Y(tail):
    # (la, xi's point mass, weight, i, j) and (la, xi's point mass, weight, i)
    ones, points = [], []
    for at, la in enumerate(paths):
        dec = alpha_decompose(XElem.delta(g, la), n)
        tail = alpha(z, p, dec.f_tilde)
        # inner_sum - defect: the images of the compacts Theta(f~, eta) and
        # phi_Y(tail) on X_p, and the creation by the tail
        compacts = [e for eta in dec.eta for e in _nonzeros(x_theta(dec.f_tilde, eta).matrix)]
        compacts += _nonzeros(phi_y(tail, p).matrix, -1.0)
        for xi in dec.xi:
            for k in np.flatnonzero(xi.coeffs):
                ones += [(at, k, xi.coeffs[k] * w, i, j) for i, j, w in compacts]
                points += [(at, k, xi.coeffs[k] * tail.coeffs[i], i) for i in np.flatnonzero(tail.coeffs)]
    term = [("at", np.intp), ("xi", np.intp), ("w", np.complex128), ("i", np.intp)]
    ones, points = np.array(ones, dtype=term + [("j", np.intp)]), np.array(points, dtype=term)
    tn = _point_table(space, c, n, n)
    a = _compose(tn, ones["xi"], _rank_ones(space, c, p, ones["i"], ones["j"]), np.arange(len(ones)))
    b = _compose(tn, points["xi"], _point_table(space, c, z, p), points["i"])
    lhs = _PointTable(np.vstack([a.target, b.target]), np.vstack([a.phase, b.phase]))
    cols = space.interior_mask(n)
    got = _entries(lhs, np.concatenate([ones["w"], points["w"]]), np.concatenate([ones["at"], points["at"]]), cols)
    target = _point_table(space, c, n, depth)  # the creation by the cylinder at la is its row la
    owner = np.arange(len(paths))
    one = np.ones(len(paths), dtype=np.complex128)
    operator = _sums_close(space, len(paths), got, _entries(target, one, owner, cols), tol)

    # the column at la's tail, in block 0, against the basis vector at la in block n
    seed = space.block_slice(z).start + g.factor_indices(n, p)[1]
    on_seed = got[1] == seed[got[0]]
    basis = (owner, seed, space.block_slice(n).start + owner, one)
    vector = _sums_close(space, len(paths), [x[on_seed] for x in got], basis, tol)

    bad = _tally(rep, np.column_stack([operator, vector]).ravel())
    if bad is not None:
        at, half = divmod(bad, 2)
        return rep.fail((("operator", "vector")[half], paths[at], None))
    return rep
