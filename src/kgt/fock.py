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
    VertexFn,
    XElem,
    XOp,
    arrays_close,
    phi_x,
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
    y_iota,
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

    def embed(self, n, coeffs) -> np.ndarray:
        out = np.zeros(self.dim, dtype=np.complex128)
        out[self.block_slice(n)] = coeffs
        return out

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

    @classmethod
    def zeros(cls, space: FockSpace, shift=None) -> "FockOp":
        shift = (0,) * space.graph.k if shift is None else shift
        return cls(space, shift, np.zeros((space.dim, space.dim)))

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

    def __call__(self, vec) -> np.ndarray:
        return self.matrix @ np.asarray(vec, dtype=np.complex128)

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


def gauge_unitary(space: FockSpace, z) -> FockOp:
    """Diagonal unitary acting by prod z_i^(n_i) on the degree-n block."""
    z = tuple(complex(x) for x in z)
    if len(z) != space.graph.k:
        raise DegreeMismatch(f"need {space.graph.k} circle coordinates", z)
    diag = np.ones(space.dim, dtype=np.complex128)
    for i, zi in enumerate(z):
        diag *= zi ** space._deg[:, i]
    return FockOp(space, (0,) * space.graph.k, np.diag(diag))


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b entrywise, broadcast, rounded as a Python complex product:
    numpy's vector loop for complex multiplication may fuse multiply-adds,
    which moves the last bit of some entries."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _create(space: FockSpace, c: Cocycle, d, depth, coeffs: np.ndarray) -> FockOp:
    """The creation by coeffs, of coefficient depth `depth`: the point
    creations of the table (d, depth), weighted by coeffs, in one scatter."""
    t = _point_table(space, c, d, depth)
    M = np.zeros((space.dim, space.dim), dtype=np.complex128)
    w = coeffs[t.k]
    (i,) = np.nonzero(w)
    M[t.row[i], t.col[i]] = _times(t.phase[t.k[i], t.col[i]], w[i])
    return FockOp(space, d, M)


def creation_x(space: FockSpace, c: Cocycle, f: XElem) -> FockOp:
    """Left twisted multiplication by f, compressed at the truncation boundary.

    On a space with D > N this is the canonical map X_d -> L(F_Y): f acts as
    the cylinder alpha(d, d, f)."""
    d = f.degree
    if not dg.leq(d, space.N):
        raise DegreeExceedsTruncation(f"degree {d} exceeds {space.N}", d)
    return _create(space, c, d, d, f.coeffs)


def creation_y(space: FockSpace, c: Cocycle, h: CylElem) -> FockOp:
    """Left twisted multiplication by h on the cylinder blocks."""
    d = h.module_degree
    if not dg.leq(d, space.N):
        raise DegreeExceedsTruncation(f"degree {d} exceeds {space.N}", d)
    if not dg.leq(h.depth, space.block_depth(d)):
        raise DepthOverflow(
            f"depth {h.depth} cannot act within working depth {space.D}", (h.depth, space.D)
        )
    return _create(space, c, d, h.depth, h.coeffs)


def _creation(space: FockSpace, c: Cocycle, x) -> FockOp:
    if isinstance(x, XElem):
        return creation_x(space, c, x)
    return creation_y(space, c, x)


# -- point creations as index tables -----------------------------------------


class _PointTable(NamedTuple):
    """The creations by the point masses of one shift and coefficient depth,
    as index tables.

    Creation k, by the point mass at coefficient k, sends the basis vector
    e_col to phase[k, col] e_target[k, col], or to zero where target[k, col]
    is -1: a point creation has at most one nonzero entry in each row and
    each column.  Column dim is a zero column, so a gather through a target
    of -1 lands on it.  Composition is then a gather, the adjoint is the
    inverse index map, and a range projection is a diagonal.

    The entries, one per (k, col) with a target, are listed in k, col and
    row; a composite built by _compose does not list them.
    """

    target: np.ndarray  # (K, dim + 1) target rows, -1 for none
    phase: np.ndarray  # (K, dim + 1) phases, 0 where target is -1
    k: np.ndarray | None = None  # per entry: the coefficient
    col: np.ndarray | None = None  # per entry: the source column
    row: np.ndarray | None = None  # per entry: the target row, target[k, col]


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
    ks, cols, rows = [], [], []
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
        ks.append(k)
        cols.append(col)
        rows.append(row)
    entries = (np.concatenate([np.zeros(0, np.intp), *parts]) for parts in (ks, cols, rows))
    table = space._tables[(c, d, depth)] = _PointTable(target, phase, *entries)
    return table


def _adjoint(t: _PointTable) -> _PointTable:
    """The adjoint of every creation in t: the inverse index maps, with
    conjugate phases."""
    target = np.full(t.target.shape, -1, dtype=np.intp)
    phase = np.zeros(t.phase.shape, dtype=np.complex128)
    target[t.k, t.row] = t.col
    phase[t.k, t.row] = np.conj(t.phase[t.k, t.col])
    return _PointTable(target, phase, t.k, t.row, t.col)


def _compose(a: _PointTable, i, b: _PointTable, j) -> _PointTable:
    """The tables of a[i[p]] b[j[p]], pair by pair: one gather."""
    mid = b.target[j]
    rows = np.asarray(i)[:, None]
    return _PointTable(a.target[rows, mid], _times(a.phase[rows, mid], b.phase[j]))


def _rows_close(a: np.ndarray, b: np.ndarray, tol) -> np.ndarray:
    """arrays_close(a[p], b[p], tol) for every row p."""
    with np.errstate(invalid="ignore"):
        ok = (np.abs(a - b) <= tol).all(axis=1)
    for p in np.flatnonzero(~ok):
        ok[p] = arrays_close(a[p], b[p], tol)
    return ok


def _close_to(space: FockSpace, c: Cocycle, lhs: _PointTable, x, tol, d=None) -> np.ndarray:
    """Per pair p, whether the operator whose table is row p of lhs is close
    to the creation by element p of the batched module element x, on
    interior(d), or everywhere when d is None.

    The creation is read in column-entry form: the value at each entry of
    its point table is the entry's phase times the entry's coefficient of
    x, as _create scatters it.  Both sides are compared at every entry of
    that table and at every entry of lhs off it; everywhere else both are
    zero.  So the answer is arrays_close's on the dense matrices, in
    O(pairs * dim) memory.
    """
    dim = space.dim
    key = (x.degree, x.degree) if isinstance(x, XElem) else (x.module_degree, x.depth)  # as _creation reads
    t = _point_table(space, c, *key)
    want = _times(x.coeffs[:, t.k], t.phase[t.k, t.col])
    got = np.where(lhs.target[:, t.col] == t.row, lhs.phase[:, t.col], 0)
    col_of = np.full(dim + 1, -1, dtype=np.intp)  # the table's column at each row; one per row
    col_of[t.row] = t.col
    off = np.where(col_of[lhs.target[:, :dim]] != np.arange(dim), lhs.phase[:, :dim], 0)
    if d is not None:
        inside = space.interior_mask(d)
        got, want, off = got[:, inside[t.col]], want[:, inside[t.col]], off[:, inside]
    return _rows_close(np.hstack([got, off]), np.hstack([want, np.zeros_like(off)]), tol)


def _tally(rep: ModuleReport, ok: np.ndarray):
    """Count the cases in ok, up to and including its first failure, into
    rep; return the index of that failure, or None."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        rep.cases_checked += int(bad[0]) + 1
        return int(bad[0])
    rep.cases_checked += len(ok)
    return None


def _rank(s: np.ndarray, size: int) -> int:
    """np.linalg.matrix_rank of a matrix with singular values s and larger
    side `size`, by its default threshold."""
    return int(np.count_nonzero(s > s.max() * size * np.finfo(np.float64).eps)) if s.size else 0


def _rank_ones(space: FockSpace, c: Cocycle, m, i, j) -> _PointTable:
    """C(delta_i[p]) C(delta_j[p])*, the image of x_theta(delta_i[p],
    delta_j[p]) on X_m, for every pair p, from the point table of degree m:
    a target row and a phase per column, -1 and 0 where the column maps to
    zero."""
    t = _point_table(space, c, m, m)
    out = _compose(t, i, _adjoint(t), j)
    return out._replace(phase=np.where(out.target >= 0, out.phase, 0))


def fock_compacts_x(space: FockSpace, c: Cocycle, S: XOp) -> FockOp:
    """psi^(m)(S), the degree-shift-zero image of a compact S on X_m: the sum
    of S[i, j] C(delta_i) C(delta_j)* over the nonzero entries of S,
    scattered from _rank_ones, dim terms at a time.  The one builder of
    this image: by bilinearity, C(f) C(g)* is the image of x_theta(f, g)."""
    m = S.degree
    if not dg.leq(m, space.N):
        raise DegreeExceedsTruncation(f"degree {m} exceeds {space.N}", m)
    i, j = np.nonzero(S.matrix)
    w = S.matrix[i, j]
    M = np.zeros((space.dim, space.dim), dtype=np.complex128)
    cols = np.arange(space.dim)
    step = max(space.dim, 1)
    for at in range(0, len(i), step):
        part = _rank_ones(space, c, m, i[at : at + step], j[at : at + step])
        rows = part.target[:, :-1]
        hit = rows >= 0
        vals = part.phase[:, :-1] * w[at : at + step, None]
        np.add.at(M, (rows[hit], np.broadcast_to(cols, rows.shape)[hit]), vals[hit])
    return FockOp(space, dg.zero(space.graph.k), M)


def _cylinder_rank_ones(space: FockSpace, c: Cocycle, m, a, b) -> tuple[np.ndarray, np.ndarray]:
    """psi_Y(alpha_k(x_theta(delta_a[p], delta_b[p]))), the cylinder side of
    Prop 5.1, on interior(m), for every pair p: (pairs, dim) target rows and
    phases, -1 and 0 where a column maps to zero or lies outside
    interior(m), without a dense operator.

    This is y_iota's entry transport, read from factor_indices and the
    (m, q - m) twists, never from a point table.  On the block q >= m, at
    depth D, the column la with la(0, m) = b[p] maps to the row
    la' = a[p] la(m, D), when that path exists, with the phase
    c(la'(0, m), la'(m, q)) conj(c(la(0, m), la(m, q)))."""
    g = space.graph
    a, b = np.asarray(a)[:, None], np.asarray(b)[:, None]
    target = np.full((len(a), space.dim), -1, dtype=np.intp)
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
        phase[:, sl] = np.where(hit, _times(tw[row], np.conj(tw)), 0)
    return target, phase


def fock_compacts_y(space: FockSpace, c: Cocycle, S) -> FockOp:
    """The image of an adjointable operator on Y_n: extend to every block above n."""
    n = S.module_degree
    M = np.zeros((space.dim, space.dim), dtype=np.complex128)
    for q in space.blocks:
        if not dg.leq(n, q):
            continue
        block = y_iota(c, S, q).lift(space.block_depth(q)).matrix
        sl = space.block_slice(q)
        M[sl, sl] = block
    return FockOp(space, (0,) * space.graph.k, M)


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


def _right(c: Cocycle, x, a: VertexFn):
    if isinstance(x, XElem):
        return x_act(a, x, "right")
    return y_tmul(c, x, CylElem.from_vertex_fn(a))


def _inner0(x, y):
    """The inner product as a degree-0 module element of the same kind."""
    if isinstance(x, XElem):
        return XElem(x.graph, dg.zero(x.graph.k), x_inner(x, y).values)
    return y_inner(x, y)


def _first_pairs(a, b, cap: int):
    """The first `cap` pairs of a x b, in row-major order."""
    return islice(product(a, b), cap)


def _multiplicativity(space: FockSpace, c: Cocycle, system: str, tables, rep: ModuleReport, tol, pair_cap):
    """C(x) C(y) against C(x y) for the first pair_cap pairs (x, y) of point
    masses of `system` in each degree pair (m, n) with m + n <= N, where
    tables[m] holds the point creations of degree m; counts each case into
    rep and returns the first failing (m, n, i, j), or None.  The products
    x y come from the module layer, one batch per degree pair."""
    for m in space.blocks:
        for n in space.blocks:
            if not dg.leq(dg.add(m, n), space.N):
                continue
            rm, rn = range(len(tables[m].target)), range(len(tables[n].target))
            pairs = list(_first_pairs(rm, rn, pair_cap))
            if not pairs:
                continue
            i, j = np.array(pairs).T
            prods = _mul(c, _points_at(space, m, system, i), _points_at(space, n, system, j))
            bad = _tally(rep, _close_to(space, c, _compose(tables[m], i, tables[n], j), prods, tol))
            if bad is not None:
                return (m, n) + pairs[bad]
    return None


def rep_axioms_check(
    space: FockSpace, c: Cocycle, tol: float = 1e-9, pair_cap: int = 64, system: str = "X"
) -> ModuleReport:
    """Representation axioms on interior vectors: linearity, the right module
    action, adjoint inner products, and multiplicativity across degrees.

    `system` names the module the creations take: "X" (path functions of
    degree n) or "Y" (cylinders of depth D-N+n in the fiber of degree n).
    Linearity creates densely; the other axioms compare point tables, one
    block or degree pair at a time."""
    if system not in ("X", "Y"):
        raise ValueError(f"system must be 'X' or 'Y', got {system!r}")
    g = space.graph
    rep = ModuleReport()
    tables = {n: _point_table(space, c, n, _depth(space, n, system)) for n in space.blocks}
    size = {n: len(tables[n].target) for n in space.blocks}

    for n in space.blocks:
        if size[n] >= 2:
            e0, e1 = (_points_at(space, n, system, k) for k in (0, 1))
            want = _creation(space, c, e0) + 2.0j * _creation(space, c, e1)
            rep.cases_checked += 1
            if not _creation(space, c, e0 + 2.0j * e1).close(want, tol):
                return rep.fail(("linearity", n, None))

    z = dg.zero(g.k)
    vertices = _point_table(space, c, z, z)  # creation by each vertex indicator, in vertex order
    for n in space.blocks:
        pairs = list(product(range(min(pair_cap, size[n])), range(len(g.vertices))))
        if not pairs:
            continue
        i, v = np.array(pairs).T
        xa = _right(c, _points_at(space, n, system, i), VertexFn(g, np.eye(len(g.vertices))[v]))
        bad = _tally(rep, _close_to(space, c, _compose(tables[n], i, vertices, v), xa, tol))
        if bad is not None:
            a, b = pairs[bad]
            return rep.fail(("right-action", (n, a, g.vertices[b]), None))

    for n in space.blocks:
        pairs = list(_first_pairs(range(size[n]), range(size[n]), pair_cap))
        if not pairs:
            continue
        i, j = np.array(pairs).T
        inner = _inner0(_points_at(space, n, system, i), _points_at(space, n, system, j))
        lhs = _compose(_adjoint(tables[n]), i, tables[n], j)
        bad = _tally(rep, _close_to(space, c, lhs, inner, tol, n))
        if bad is not None:
            return rep.fail(("inner-product", (n,) + pairs[bad], None))

    bad = _multiplicativity(space, c, system, tables, rep, tol, pair_cap)
    if bad is not None:
        return rep.fail(("multiplicativity", bad, None))
    return rep


def nica_check(space: FockSpace, c: Cocycle, S: XOp, T: XOp, tol: float = 1e-9) -> ModuleReport:
    """psi-hat(S) psi-hat(T) against psi-hat of the aligned compact product."""
    m, n = S.degree, T.degree
    j = dg.join(m, n)
    lhs = fock_compacts_x(space, c, S) @ fock_compacts_x(space, c, T)
    rhs = fock_compacts_x(space, c, x_compact_align(c, S, T))
    rep = ModuleReport(cases_checked=1)
    if not lhs.close_on_interior(rhs, j, tol):
        return rep.fail(("nica", (m, n), None))
    return rep


def cp_identity_check(space: FockSpace, c: Cocycle, a: VertexFn, n, tol: float = 1e-9) -> ModuleReport:
    """The covariance defect of the finite-path compacts equals the defect of
    the cylinder compacts, on interior(n).

    Both defects subtract the same creation by a from an image of a's left
    action on the degree-n module, and only absolute differences count, so
    the two images of compacts are compared directly."""
    n = dg.as_degree(n, space.graph.k)
    lhs = fock_compacts_x(space, c, phi_x(a, n))
    rhs = fock_compacts_y(space, c, phi_y(CylElem.from_vertex_fn(a), n))
    rep = ModuleReport(cases_checked=1)
    if not lhs.close_on_interior(rhs, n, tol):
        return rep.fail(("cp-identity", n, None))
    return rep


def ck_relations_check(space: FockSpace, c: Cocycle, n, tol: float = 1e-9) -> ModuleReport:
    """The generator relations of the twisted algebra in the truncated model.

    (i) composition with the cocycle phase, (ii) the isometry relation,
    (iii) the exhaustion sum at degree n, asserted on the blocks whose degree
    dominates n; the uncompressed defect is the projection onto the
    complementary low-degree corner, and is reported, not ignored.  Every
    relation is checked on the point tables, one degree or split at a time.
    """
    g = space.graph
    n = dg.as_degree(n, g.k)
    if not dg.leq(n, space.N):
        raise DegreeExceedsTruncation(f"degree {n} exceeds {space.N}", n)
    rep = ModuleReport()
    tables = {m: _point_table(space, c, m, m) for m in dg.degrees_upto(n)}
    z = dg.zero(g.k)
    vtx = tables[z]
    at = {p.range: i for i, p in enumerate(g.paths(z))}  # vertex -> its projection in vtx

    pairs = list(product(g.vertices, g.vertices))
    i, j = np.array([(at[v], at[w]) for v, w in pairs]).T
    want = XElem(g, z, np.eye(len(at))[i] * (i == j)[:, None])  # S_v S_w = [v = w] S_v
    bad = _tally(rep, _close_to(space, c, _compose(vtx, i, vtx, j), want, tol))
    if bad is not None:
        return rep.fail(("vertex", pairs[bad], None))

    for m in dg.degrees_upto(n):
        paths = g.paths(m)
        if not any(m) or not paths:
            continue
        ks = np.arange(len(paths))
        cuts = [p for p, _ in dg.splits(m, 2)]
        oks = []
        for p in cuts:  # S_mu S_nu = c(mu, nu) S_la for la = mu nu
            q = dg.sub(m, p)
            pre, suf = g.factor_indices(p, q)
            lhs = _compose(tables[p], pre, tables[q], suf)
            oks.append(_close_to(space, c, lhs, XElem(g, m, np.diag(c.twist(p, q).values)), tol, m))
        want = XElem(g, z, np.eye(len(at))[[at[la.source] for la in paths]])  # S_la* S_la = S_s(la)
        lhs = _compose(_adjoint(tables[m]), ks, tables[m], ks)
        oks.append(_close_to(space, c, lhs, want, tol, m))
        bad = _tally(rep, np.column_stack(oks).ravel())  # path by path: its splits, then its isometry
        if bad is not None:
            k, s = divmod(bad, len(oks))
            if s < len(cuts):
                return rep.fail(("compose", tuple(g.split(paths[k], cuts[s])), None))
            return rep.fail(("isometry", paths[k], None))

    # every operator below is diagonal: a range projection of a point
    # creation, or a vertex projection
    dim = space.dim
    low = ~np.all(space._deg >= np.asarray(n), axis=1)  # blocks not dominating n
    top = tables[n]
    ranges = np.zeros((len(top.target), dim), dtype=np.complex128)  # diagonal of S_la S_la*
    phases = top.phase[top.k, top.col]
    ranges[top.k, top.row] = _times(phases, np.conj(phases))
    projs = np.zeros((len(vtx.target), dim), dtype=np.complex128)  # diagonal of S_v
    projs[vtx.k, vtx.row] = vtx.phase[vtx.k, vtx.col]
    for v in g.vertices:
        total = ranges[list(g.by_range(n)[v])].sum(axis=0)
        proj = projs[at[v]]
        rep.cases_checked += 1
        if not arrays_close(total[~low], proj[~low], tol):
            return rep.fail(("ck-sum", v, None))
        defect = proj - total
        rep.cases_checked += 1
        if not arrays_close(defect, proj * low, tol):
            return rep.fail(("defect-shape", v, None))
        got_rank = _rank(np.abs(defect), dim)
        want_rank = int(np.sum(np.abs(proj) * low > 0.5))
        if got_rank != want_rank:
            return rep.fail(("defect-rank", v, (got_rank, want_rank)))
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

    bad = _multiplicativity(space, c, "X", tables, rep, tol, pair_cap)
    if bad is not None:
        m, n, i, j = bad
        return rep.fail(("psi-multiplicative", (g.paths(m)[i], g.paths(n)[j]), None))

    for m in space.blocks:
        size = len(tables[m].target)
        pairs = list(_first_pairs(range(size), range(size), pair_cap))
        if not pairs:
            continue
        a, b = np.array(pairs).T
        lhs = _rank_ones(space, c, m, a, b)
        rows, phases = _cylinder_rank_ones(space, c, m, a, b)
        cols = np.flatnonzero(space.interior_mask(m))
        got, want = lhs.phase[:, cols], phases[:, cols]
        same = lhs.target[:, cols] == rows[:, cols]  # else each entry is compared with a zero
        got = np.hstack([np.where(same, got, 0), np.where(same, 0, got)])
        bad = _tally(rep, _rows_close(got, np.hstack([want, np.zeros_like(want)]), tol))
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
    for m, n in _first_pairs(nonzero, nonzero, pair_cap):
        # the rank-one compact from the last point mass of each degree to the first
        S = x_theta(_points_at(space, m, "X", 0), _points_at(space, m, "X", -1))
        T = x_theta(_points_at(space, n, "X", 0), _points_at(space, n, "X", -1))
        sub = nica_check(space, c, S, T, tol)
        rep.cases_checked += sub.cases_checked
        if not sub.ok:
            return rep.fail(("psi-nica", (m, n), None))
    return rep


def zeta_surjectivity_check(space: FockSpace, c: Cocycle, n, tol: float = 1e-9) -> ModuleReport:
    """Rebuild every degree-n basis cylinder from point-mass section data.

    For each depth-(D-N+n) path la, split the point mass at la into prefix
    sections, a tail function, and tail sections; assemble the creation
    products minus the covariance defect; and compare with direct creation by
    the cylinder, both as operators on interior(n) and on a seed vector.
    """
    g = space.graph
    n = dg.as_degree(n, g.k)
    if not dg.leq(n, space.N):
        raise DegreeExceedsTruncation(f"degree {n} exceeds {space.N}", n)
    rep = ModuleReport()
    depth = space.block_depth(n)
    p = dg.sub(depth, n)
    for la in g.paths(depth):
        dec = alpha_decompose(XElem.delta(g, la), n)
        tail = alpha(dg.zero(g.k), p, dec.f_tilde)

        thetas = sum((x_theta(dec.f_tilde, eta) for eta in dec.eta), XOp.zeros(g, p))
        inner_sum = fock_compacts_x(space, c, thetas)
        defect = fock_compacts_x(space, c, XOp(g, p, phi_y(tail, p).matrix)) - creation_y(space, c, tail)

        assembled = FockOp.zeros(space, n)
        for xi in dec.xi:
            cxi = creation_x(space, c, xi)
            assembled = assembled + cxi @ (inner_sum - defect)

        target = creation_y(space, c, CylElem.delta(g, la, n))
        rep.cases_checked += 1
        if not assembled.close_on_interior(target, n, tol):
            return rep.fail(("operator", la, None))

        tail_path = g.split(la, n)[1]
        seed = space.embed(dg.zero(g.k), np.eye(len(g.paths(p)))[g.path_index(p)[tail_path]])
        got = assembled(seed)
        want = space.embed(n, np.eye(len(g.paths(depth)))[g.path_index(depth)[la]])
        rep.cases_checked += 1
        if not arrays_close(got, want, tol):
            return rep.fail(("vector", la, None))
    return rep
