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
    phi_x_decompose,
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
    alpha_k,
    phi_y,
    phi_y_decompose,
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


class _Plan(NamedTuple):
    """One creation's entries over every block pair, concatenated."""

    flat: np.ndarray  # target row * dim + source column
    gather: np.ndarray  # index into the coefficient vector
    twist_at: np.ndarray  # index into the concatenated twist values
    block: np.ndarray  # position in qs of the entry's source block
    qs: tuple  # the source blocks q with q + d <= N, in order
    pads: tuple  # zeros as long as each block's twist table


class FockSpace:
    """Direct sum of the degree-n stages for n <= N, in graded lex order.

    The working depth D defaults to N.  The space is refused before any path
    is enumerated when one dense operator on it would take more than
    MAX_OP_BYTES.  Creation operators read one cached plan per shift and
    coefficient depth.
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
        self._block = np.repeat(np.arange(len(self.blocks)), self._sizes)
        self._interior: dict[dg.Degree, np.ndarray] = {}
        self._plans: dict[tuple, _Plan] = {}

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

    def _target_blocks(self, shift) -> np.ndarray:
        """Per coordinate, the position of the block its degree plus shift
        lands in, or -1 outside the space."""
        pos = [self._pos.get(tuple(a + b for a, b in zip(n, shift)), -1) for n in self.blocks]
        return np.repeat(np.asarray(pos, dtype=np.intp), self._sizes)

    def _creation_plan(self, d, depth) -> "_Plan":
        """The entries of a degree-d creation by coefficients of cylinder
        depth `depth`, for every block pair (q, q+d) with q + d <= N,
        concatenated; cached per (d, depth).  An X creation reads the plan
        at depth d."""
        plan = self._plans.get((d, depth))
        if plan is not None:
            return plan
        g = self.graph
        flat, gather, twist_at, block, qs, pads = [], [], [], [], [], []
        at = 0
        for q in self.blocks:
            t = dg.add(q, d)
            if not dg.leq(t, self.N):
                continue
            # c(x(0, d), x(d, d+q)) for x in Lambda^Dt, read off the (d, q) twist
            Dt = self.block_depth(t)
            _, suf = g.factor_indices(d, self.block_depth(q))
            coeff = g.factor_indices(depth, dg.sub(Dt, depth))[0]
            tw = g.factor_indices(t, dg.sub(Dt, t))[0]
            rows = self.block_slice(t).start + np.arange(len(suf))
            flat.append(rows * self.dim + self.block_slice(q).start + suf)
            gather.append(coeff)
            twist_at.append(at + tw)
            block.append(np.full(len(suf), len(qs)))
            qs.append(q)
            size = len(g.paths(t))  # the length of the (d, q) twist table
            pads.append(np.zeros(size, dtype=np.complex128))
            at += size
        arrays = [np.concatenate(parts).astype(np.intp) for parts in (flat, gather, twist_at, block)]
        plan = self._plans[(d, depth)] = _Plan(*arrays, tuple(qs), tuple(pads))
        return plan

    def embed(self, n, coeffs) -> np.ndarray:
        out = np.zeros(self.dim, dtype=np.complex128)
        out[self.block_slice(n)] = coeffs
        return out

    def __repr__(self) -> str:
        return f"FockSpace(N={self.N}, D={self.D}, dim={self.dim})"


class FockOp:
    """A matrix over the Fock basis mapping each degree-q block into q + shift."""

    def __init__(self, space: FockSpace, shift, matrix, require_block: bool = True):
        self.space = space
        self.shift = tuple(int(x) for x in shift)
        if len(self.shift) != space.graph.k:
            raise DegreeMismatch(f"shift rank {len(self.shift)} != {space.graph.k}", None)
        self.matrix = np.asarray(matrix, dtype=np.complex128)
        if self.matrix.shape != (space.dim, space.dim):
            raise DegreeMismatch(f"matrix shape {self.matrix.shape}, expected {space.dim}", None)
        if require_block:
            ok = space._block[:, None] == space._target_blocks(self.shift)[None, :]
            if np.any(np.abs(self.matrix[~ok]) > 1e-12):
                raise ValueError(f"matrix entries leave the shift-{self.shift} blocks")

    @classmethod
    def zeros(cls, space: FockSpace, shift=None) -> "FockOp":
        shift = (0,) * space.graph.k if shift is None else shift
        return cls(space, shift, np.zeros((space.dim, space.dim)), require_block=False)

    def _same(self, other: "FockOp") -> None:
        if self.space is not other.space:
            raise DegreeMismatch("operators on different spaces", None)

    def __add__(self, other: "FockOp") -> "FockOp":
        self._same(other)
        if self.shift != other.shift:
            raise DegreeMismatch(f"shifts differ: {self.shift} vs {other.shift}", None)
        return FockOp(self.space, self.shift, self.matrix + other.matrix, require_block=False)

    def __sub__(self, other: "FockOp") -> "FockOp":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "FockOp":
        return FockOp(self.space, self.shift, self.matrix * scalar, require_block=False)

    __rmul__ = __mul__

    def __matmul__(self, other: "FockOp") -> "FockOp":
        self._same(other)
        shift = tuple(a + b for a, b in zip(self.shift, other.shift))
        return FockOp(self.space, shift, self.matrix @ other.matrix, require_block=False)

    def adjoint(self) -> "FockOp":
        return FockOp(
            self.space, tuple(-x for x in self.shift), self.matrix.conj().T, require_block=False
        )

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

    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix, 2)) if self.matrix.size else 0.0

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
    return FockOp(space, (0,) * space.graph.k, np.diag(diag), require_block=False)


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b entrywise, rounded as a Python complex product: numpy's vector
    loop for complex multiplication may fuse multiply-adds, which moves the
    last bit of some entries."""
    out = np.empty(a.shape, dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _create(space: FockSpace, c: Cocycle, d, plan: _Plan, coeffs: np.ndarray) -> FockOp:
    """The creation read off `plan`: one gather, one scatter.  The cocycle is
    asked only for blocks that hold a nonzero coefficient."""
    M = np.zeros((space.dim, space.dim), dtype=np.complex128)
    w = coeffs[plan.gather]
    (i,) = np.nonzero(w)
    if i.size:
        hit = np.zeros(len(plan.qs), dtype=bool)
        hit[plan.block[i]] = True
        tw = np.concatenate(
            [c.twist(d, q).values if h else pad for q, h, pad in zip(plan.qs, hit.tolist(), plan.pads)]
        )
        M.reshape(-1)[plan.flat[i]] = _times(tw[plan.twist_at[i]], w[i])
    return FockOp(space, d, M, require_block=False)


def creation_x(space: FockSpace, c: Cocycle, f: XElem) -> FockOp:
    """Left twisted multiplication by f, compressed at the truncation boundary.

    On a space with D > N this is the canonical map X_d -> L(F_Y): f acts as
    the cylinder alpha(d, d, f)."""
    d = f.degree
    if not dg.leq(d, space.N):
        raise DegreeExceedsTruncation(f"degree {d} exceeds {space.N}", d)
    return _create(space, c, d, space._creation_plan(d, d), f.coeffs)


def creation_y(space: FockSpace, c: Cocycle, h: CylElem) -> FockOp:
    """Left twisted multiplication by h on the cylinder blocks."""
    d = h.module_degree
    if not dg.leq(d, space.N):
        raise DegreeExceedsTruncation(f"degree {d} exceeds {space.N}", d)
    if not dg.leq(h.depth, space.block_depth(d)):
        raise DepthOverflow(
            f"depth {h.depth} cannot act within working depth {space.D}", (h.depth, space.D)
        )
    return _create(space, c, d, space._creation_plan(d, h.depth), h.coeffs)


def _creation(space: FockSpace, c: Cocycle, x) -> FockOp:
    if isinstance(x, XElem):
        return creation_x(space, c, x)
    return creation_y(space, c, x)


def point_creations(space: FockSpace, c: Cocycle, n) -> list[FockOp]:
    """creation_x of every point mass XElem.delta of degree n, in path order;
    at n = 0 these are the vertex projections, in vertex order."""
    g = space.graph
    return [creation_x(space, c, XElem.delta(g, la)) for la in g.paths(n)]


def fock_compacts_x(space: FockSpace, ops: list, S: XOp) -> FockOp:
    """The degree-shift-zero image of a compact on X_m: sum of C(f) C(g)*,
    given the point creations `ops` of degree m (`point_creations`)."""
    out = FockOp.zeros(space)
    for (i, j), w in np.ndenumerate(S.matrix):
        if w != 0:
            out = out + w * (ops[i] @ ops[j].adjoint())
    return out


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
    return FockOp(space, (0,) * space.graph.k, M, require_block=False)


# -- relation suites ---------------------------------------------------------


def relation_degrees(N) -> list:
    """The degrees the generator relations are checked at in a truncation at
    N: the unit degrees <= N, then N itself when it is nonzero and no unit."""
    k = len(N)
    out = [dg.unit(k, i) for i in range(1, k + 1) if dg.leq(dg.unit(k, i), N)]
    if any(N) and N not in out:
        out.append(N)
    return out


def _block_elems(space: FockSpace, n, system: str):
    """Canonical point-mass module elements of degree n for relation checks."""
    g = space.graph
    if system == "X":
        return [XElem.delta(g, la) for la in g.paths(n)]
    return [CylElem.delta(g, la, n) for la in g.paths(space.block_depth(n))]


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


def _multiplicativity(space: FockSpace, c: Cocycle, elems, cre, rep: ModuleReport, tol, pair_cap):
    """C(x) C(y) against C(x y) for the first pair_cap pairs (x, y) of each
    degree pair (m, n) with m + n <= N; counts each case into rep and returns
    the first failing (m, n, i, j), or None."""
    for m in space.blocks:
        for n in space.blocks:
            if not dg.leq(dg.add(m, n), space.N):
                continue
            for (i, x), (j, y) in _first_pairs(enumerate(elems[m]), enumerate(elems[n]), pair_cap):
                rep.cases_checked += 1
                if not (cre[m][i] @ cre[n][j]).close(_creation(space, c, _mul(c, x, y)), tol):
                    return (m, n, i, j)
    return None


def rep_axioms_check(
    space: FockSpace, c: Cocycle, tol: float = 1e-9, pair_cap: int = 64, system: str = "X"
) -> ModuleReport:
    """Representation axioms on interior vectors: linearity, the right module
    action, adjoint inner products, and multiplicativity across degrees.

    `system` names the module the creations take: "X" (path functions of
    degree n) or "Y" (cylinders of depth D-N+n in the fiber of degree n)."""
    if system not in ("X", "Y"):
        raise ValueError(f"system must be 'X' or 'Y', got {system!r}")
    g = space.graph
    rep = ModuleReport(True)
    elems = {n: _block_elems(space, n, system) for n in space.blocks}
    cre = {n: [_creation(space, c, x) for x in elems[n]] for n in space.blocks}

    for n in space.blocks:
        if len(elems[n]) >= 2:
            combo = elems[n][0] + 2.0j * elems[n][1]
            want = cre[n][0] + 2.0j * cre[n][1]
            rep.cases_checked += 1
            if not _creation(space, c, combo).close(want, tol):
                rep.ok = False
                rep.first_failure = ("linearity", n, None)
                return rep

    indicators = [VertexFn.indicator(g, v) for v in g.vertices]
    right = list(zip(indicators, point_creations(space, c, dg.zero(g.k))))  # (a, creation by a)
    for n in space.blocks:
        for i, x in enumerate(elems[n][:pair_cap]):
            for v, (a, ca) in enumerate(right):
                xa = _right(c, x, a)
                rep.cases_checked += 1
                if not _creation(space, c, xa).close(cre[n][i] @ ca, tol):
                    rep.ok = False
                    rep.first_failure = ("right-action", (n, i, g.vertices[v]), None)
                    return rep

    for n in space.blocks:
        for i, j in _first_pairs(range(len(elems[n])), range(len(elems[n])), pair_cap):
            lhs = cre[n][i].adjoint() @ cre[n][j]
            rhs = _creation(space, c, _inner0(elems[n][i], elems[n][j]))
            rep.cases_checked += 1
            if not lhs.close_on_interior(rhs, n, tol):
                rep.ok = False
                rep.first_failure = ("inner-product", (n, i, j), None)
                return rep

    bad = _multiplicativity(space, c, elems, cre, rep, tol, pair_cap)
    if bad is not None:
        rep.ok = False
        rep.first_failure = ("multiplicativity", bad, None)
    return rep


def nica_check(space: FockSpace, c: Cocycle, S: XOp, T: XOp, tol: float = 1e-9) -> ModuleReport:
    """psi-hat(S) psi-hat(T) against psi-hat of the aligned compact product."""
    for d in (S.degree, T.degree):
        if not dg.leq(d, space.N):
            raise DegreeExceedsTruncation(f"degree {d} exceeds {space.N}", d)
    held = {}

    def creations(d):  # one degree at a time; _nica asks degree by degree, so each is built once
        if d not in held:
            held.clear()
            held[d] = point_creations(space, c, d)
        return held[d]

    return _nica(space, c, S, T, tol, creations)


def _nica(space: FockSpace, c: Cocycle, S: XOp, T: XOp, tol, creations) -> ModuleReport:
    """nica_check, reading the point creations of degree d from creations(d)."""
    m, n = S.degree, T.degree
    j = dg.join(m, n)
    if j == m:  # T's creations first, so that S's serve the aligned product too
        KT = fock_compacts_x(space, creations(n), T)
        lhs = fock_compacts_x(space, creations(m), S) @ KT
        del KT  # hold no more operators than the product while the aligned side is built
    else:
        lhs = fock_compacts_x(space, creations(m), S) @ fock_compacts_x(space, creations(n), T)
    rhs = fock_compacts_x(space, creations(j), x_compact_align(c, S, T))
    rep = ModuleReport(True, cases_checked=1)
    if not lhs.close_on_interior(rhs, j, tol):
        rep.ok = False
        rep.first_failure = ("nica", (m, n), None)
    return rep


def _covariance_defect(space: FockSpace, c: Cocycle, gs, psi0: FockOp) -> FockOp:
    """The sum of C(g_i) C(conj g_i)* over the frame gs, minus psi0."""
    out = FockOp.zeros(space)
    for gi in gs:
        out = out + creation_x(space, c, gi) @ creation_x(space, c, gi.conj()).adjoint()
    return out - psi0


def cp_identity_check(space: FockSpace, c: Cocycle, a: VertexFn, n, tol: float = 1e-9) -> ModuleReport:
    """The covariance defect of the finite-path compacts equals the defect of
    the cylinder compacts, on interior(n)."""
    n = dg.as_degree(n, space.graph.k)
    psi0 = creation_y(space, c, CylElem.from_vertex_fn(a))
    lhs = _covariance_defect(space, c, phi_x_decompose(a, n), psi0)
    rhs = fock_compacts_y(space, c, phi_y(CylElem.from_vertex_fn(a), n)) - psi0
    rep = ModuleReport(True, cases_checked=1)
    if not lhs.close_on_interior(rhs, n, tol):
        rep.ok = False
        rep.first_failure = ("cp-identity", n, None)
    return rep


def ck_relations_check(space: FockSpace, c: Cocycle, n, tol: float = 1e-9) -> ModuleReport:
    """The generator relations of the twisted algebra in the truncated model.

    (i) composition with the cocycle phase, (ii) the isometry relation,
    (iii) the exhaustion sum at degree n, asserted on the blocks whose degree
    dominates n; the uncompressed defect is the projection onto the
    complementary low-degree corner, and is reported, not ignored.
    """
    g = space.graph
    n = dg.as_degree(n, g.k)
    if not dg.leq(n, space.N):
        raise DegreeExceedsTruncation(f"degree {n} exceeds {space.N}", n)
    rep = ModuleReport(True)
    sgen = {}
    for m in dg.degrees_upto(n):
        sgen.update(zip(g.paths(m), point_creations(space, c, m)))
    svtx = {p.range: sgen[p] for p in g.paths(dg.zero(g.k))}

    for v in g.vertices:
        for w in g.vertices:
            rep.cases_checked += 1
            want = svtx[v] if v == w else FockOp.zeros(space)
            if not (svtx[v] @ svtx[w]).close(want, tol):
                rep.ok = False
                rep.first_failure = ("vertex", (v, w), None)
                return rep

    for m in dg.degrees_upto(n):
        if not any(m):
            continue
        for la in g.paths(m):
            for p, _ in dg.splits(m, 2):
                mu, nu = g.split(la, p)
                rep.cases_checked += 1
                got = sgen[mu] @ sgen[nu]
                want = complex(c(mu, nu)) * sgen[la]
                if not arrays_close(got.on_interior(m), want.on_interior(m), tol):
                    rep.ok = False
                    rep.first_failure = ("compose", (mu, nu), None)
                    return rep
            rep.cases_checked += 1
            if not (sgen[la].adjoint() @ sgen[la]).close_on_interior(svtx[la.source], m, tol):
                rep.ok = False
                rep.first_failure = ("isometry", la, None)
                return rep

    low = ~np.all(space._deg >= np.asarray(n), axis=1)  # blocks not dominating n
    up = np.ix_(~low, ~low)
    for v in g.vertices:
        total = FockOp.zeros(space)
        for i in g.by_range(n)[v]:
            la = g.paths(n)[i]
            total = total + sgen[la] @ sgen[la].adjoint()
        rep.cases_checked += 1
        if not arrays_close(total.matrix[up], svtx[v].matrix[up], tol):
            rep.ok = False
            rep.first_failure = ("ck-sum", v, None)
            return rep
        defect = svtx[v].matrix - total.matrix
        want = svtx[v].matrix * np.outer(low, low)
        rep.cases_checked += 1
        if not arrays_close(defect, want, tol):
            rep.ok = False
            rep.first_failure = ("defect-shape", v, None)
            return rep
        got_rank = int(np.linalg.matrix_rank(defect)) if defect.size else 0
        want_rank = int(np.sum(np.abs(np.diag(svtx[v].matrix)) * low > 0.5))
        if got_rank != want_rank:
            rep.ok = False
            rep.first_failure = ("defect-rank", v, (got_rank, want_rank))
            return rep
    return rep


def psi_check(space: FockSpace, c: Cocycle, tol: float = 1e-9, pair_cap: int = 32) -> ModuleReport:
    """The canonical maps X_n -> L(F_Y) form a Nica-covariant representation
    whose compacts factor through the cylinder compacts, and are injective
    blockwise."""
    g = space.graph
    rep = ModuleReport(True)
    elems = {m: _block_elems(space, m, "X") for m in space.blocks}
    psi = {m: point_creations(space, c, m) for m in space.blocks}

    bad = _multiplicativity(space, c, elems, psi, rep, tol, pair_cap)
    if bad is not None:
        m, n, i, j = bad
        rep.ok = False
        rep.first_failure = ("psi-multiplicative", (g.paths(m)[i], g.paths(n)[j]), None)
        return rep

    for m in space.blocks:
        for (i, la), (j, mu) in _first_pairs(enumerate(g.paths(m)), enumerate(g.paths(m)), pair_cap):
            rep.cases_checked += 1
            S = x_theta(elems[m][i], elems[m][j])
            lhs = psi[m][i] @ psi[m][j].adjoint()
            rhs = fock_compacts_y(space, c, alpha_k(S))
            if not lhs.close_on_interior(rhs, m, tol):
                rep.ok = False
                rep.first_failure = ("psi-compacts", (la, mu), None)
                return rep

    for m in space.blocks:
        stack = np.stack([op.matrix.ravel() for op in psi[m]])
        rep.cases_checked += 1
        if int(np.linalg.matrix_rank(stack)) != len(psi[m]):
            rep.ok = False
            rep.first_failure = ("psi-injective", m, None)
            return rep

    nonzero = [m for m in space.blocks if any(m)]
    for m, n in _first_pairs(nonzero, nonzero, pair_cap):
        # the rank-one compact from the last point mass of each degree to the first
        S = x_theta(elems[m][0], elems[m][-1])
        T = x_theta(elems[n][0], elems[n][-1])
        sub = _nica(space, c, S, T, tol, psi.__getitem__)
        rep.cases_checked += sub.cases_checked
        if not sub.ok:
            rep.ok = False
            rep.first_failure = ("psi-nica", (m, n), None)
            return rep
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
    rep = ModuleReport(True)
    depth = space.block_depth(n)
    p = dg.sub(depth, n)
    for la in g.paths(depth):
        dec = alpha_decompose(XElem.delta(g, la), n)
        tail = alpha(dg.zero(g.k), p, dec.f_tilde)

        inner_sum = FockOp.zeros(space)
        cf = creation_x(space, c, dec.f_tilde)
        for eta in dec.eta:
            inner_sum = inner_sum + cf @ creation_x(space, c, eta).adjoint()

        defect = _covariance_defect(space, c, phi_y_decompose(tail, p), creation_y(space, c, tail))

        assembled = FockOp.zeros(space, n)
        for xi in dec.xi:
            cxi = creation_x(space, c, xi)
            assembled = assembled + cxi @ (inner_sum - defect)

        target = creation_y(space, c, CylElem.delta(g, la, n))
        rep.cases_checked += 1
        if not assembled.close_on_interior(target, n, tol):
            rep.ok = False
            rep.first_failure = ("operator", la, None)
            return rep

        tail_path = g.split(la, n)[1]
        seed = space.embed(dg.zero(g.k), np.eye(len(g.paths(p)))[g.path_index(p)[tail_path]])
        got = assembled(seed)
        want = space.embed(n, np.eye(len(g.paths(depth)))[g.path_index(depth)[la]])
        rep.cases_checked += 1
        if not arrays_close(got, want, tol):
            rep.ok = False
            rep.first_failure = ("vector", la, None)
            return rep
    return rep
