"""The finite-path module system X: one Hilbert-module fiber X_n per degree.

X_n is the space of complex functions on Lambda^n.  The fiber X_0 is the
coefficient algebra A = C_0(Lambda^0) itself, its coefficients in vertex
order: the inner product sums conj(f) g over each source fiber into X_0, A
acts through r on the left and s on the right, and the cocycle twists the
multiplication

    (f g)(la) = c(la(0,m), la(m,m+n)) f(la(0,m)) g(la(m,m+n)).

Everything here is exact finite-dimensional linear algebra over numpy
arrays; adjointable operators on a fiber are precisely the matrices that are
block-diagonal over the source vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import degrees as dg
from .cocycle import Cocycle
from .errors import DegreeMismatch, DegreeNotDominated
from .kgraph import KGraph, Path


def _as_coeffs(values, size: int) -> np.ndarray:
    """Coefficients over `size` basis vectors; leading axes, if any, are a batch."""
    arr = np.asarray(values, dtype=np.complex128)
    if arr.shape[-1:] != (size,):
        raise DegreeMismatch(f"coefficient vector has shape {arr.shape}, expected (..., {size})", arr.shape)
    return arr


class Verdict(NamedTuple):
    """What compare saw, one entry per case."""

    ok: np.ndarray  # every entry of the case is close
    worst: np.ndarray  # the largest |a - b|; NaN if any difference is, as inf - inf is
    seen: np.ndarray  # either side has a nonzero entry


def compare(a, b, tol: float) -> Verdict:
    """The one float comparison behind every identity check.  Axis 0 of a and
    b, broadcast together, indexes cases.  An entry is close when |a - b| <= tol
    or a == b: only absolute differences count, equal infinities are close and
    NaN is close to nothing, as in numpy's closeness test at atol=tol, rtol=0."""
    a, b = np.asarray(a), np.asarray(b)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN
        diff = np.abs(a - b)
    at = tuple(range(1, diff.ndim))  # the axes of one case
    return Verdict(np.logical_and.reduce((diff <= tol) | (a == b), at), np.maximum.reduce(diff, at, initial=0.0),
                   np.logical_or.reduce((a != 0) | (b != 0), at))


def arrays_close(a, b, tol: float) -> bool:
    """compare for a single case: the comparison behind every `close`."""
    return bool(compare(np.asarray(a)[None], np.asarray(b)[None], tol).ok[0])


def times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b entrywise, broadcast, rounded as a Python complex product:
    numpy's vector loop for complex multiplication may fuse multiply-adds,
    which moves the last bit of some entries.  The one rounding of complex
    products that compared tables share."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.complex128)
    re, im, tmp = out.real, out.imag, np.empty(out.shape)
    np.subtract(np.multiply(a.real, b.real, out=re), np.multiply(a.imag, b.imag, out=tmp), out=re)
    np.add(np.multiply(a.real, b.imag, out=im), np.multiply(a.imag, b.real, out=tmp), out=im)
    return out


class XElem:
    """An element of X_n: coefficients over the canonical order of Lambda^n.

    Leading axes of the coefficients, if any, hold a batch of elements;
    x_tmul, x_act and x_inner act on a batch element by element."""

    def __init__(self, graph: KGraph, degree, coeffs):
        self.graph = graph
        self.degree = dg.as_degree(degree, graph.k)
        self.coeffs = _as_coeffs(coeffs, len(graph.paths(self.degree)))

    @classmethod
    def delta(cls, graph: KGraph, la: Path) -> "XElem":
        out = np.zeros(len(graph.paths(la.degree)), dtype=np.complex128)
        out[graph.path_index(la.degree)[la]] = 1.0
        return cls(graph, la.degree, out)

    @classmethod
    def zeros(cls, graph: KGraph, degree) -> "XElem":
        degree = dg.as_degree(degree, graph.k)
        return cls(graph, degree, np.zeros(len(graph.paths(degree))))

    def __call__(self, la: Path) -> complex:
        return complex(self.coeffs[self.graph.path_index(self.degree)[la]])

    def __add__(self, other: "XElem") -> "XElem":
        self._match(other)
        return XElem(self.graph, self.degree, self.coeffs + other.coeffs)

    def __sub__(self, other: "XElem") -> "XElem":
        self._match(other)
        return XElem(self.graph, self.degree, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "XElem":
        return XElem(self.graph, self.degree, self.coeffs * scalar)

    __rmul__ = __mul__

    def conj(self) -> "XElem":
        return XElem(self.graph, self.degree, np.conj(self.coeffs))

    def _match(self, other: "XElem") -> None:
        if self.degree != other.degree or self.graph is not other.graph:
            raise DegreeMismatch(
                f"elements live in different fibers: {self.degree} vs {other.degree}",
                (self.degree, other.degree),
            )

    def norm(self) -> float:
        """Module norm: max over vertices of the fiber l2 norm."""
        best = 0.0
        for ix in self.graph.by_source(self.degree).values():
            if ix:
                best = max(best, float(np.sum(np.abs(self.coeffs[list(ix)]) ** 2)))
        return best**0.5

    def close(self, other: "XElem", tol: float = 1e-9) -> bool:
        self._match(other)
        return arrays_close(self.coeffs, other.coeffs, tol)

    def __repr__(self) -> str:
        terms = [
            f"{x:.3g}*d[{'.'.join(p.edges) or p.range}]"
            for p, x in zip(self.graph.paths(self.degree), self.coeffs)
            if abs(x) > 1e-12
        ]
        return "XElem(" + (" + ".join(terms) if terms else "0") + f", deg {self.degree})"


class XOp:
    """An adjointable operator on X_n: a source-block-diagonal matrix."""

    def __init__(self, graph: KGraph, degree, matrix, require_block: bool = True):
        self.graph = graph
        self.degree = dg.as_degree(degree, graph.k)
        size = len(graph.paths(self.degree))
        self.matrix = np.asarray(matrix, dtype=np.complex128)
        if self.matrix.shape != (size, size):
            raise DegreeMismatch(
                f"matrix shape {self.matrix.shape} does not match |paths| = {size}",
                self.matrix.shape,
            )
        if require_block:
            sources = np.array([p.source for p in graph.paths(self.degree)])
            if not arrays_close(self.matrix[sources[:, None] != sources[None, :]], 0, 1e-12):
                raise ValueError("matrix couples different source vertices; not adjointable here")

    @classmethod
    def identity(cls, graph: KGraph, degree) -> "XOp":
        degree = dg.as_degree(degree, graph.k)
        return cls(graph, degree, np.eye(len(graph.paths(degree))), require_block=False)

    @classmethod
    def zeros(cls, graph: KGraph, degree) -> "XOp":
        degree = dg.as_degree(degree, graph.k)
        n = len(graph.paths(degree))
        return cls(graph, degree, np.zeros((n, n)), require_block=False)

    def __call__(self, f: XElem) -> XElem:
        if f.degree != self.degree:
            raise DegreeMismatch(f"operator degree {self.degree}, element degree {f.degree}", None)
        return XElem(self.graph, self.degree, self.matrix @ f.coeffs)

    def __add__(self, other: "XOp") -> "XOp":
        return XOp(self.graph, self.degree, self.matrix + other.matrix, require_block=False)

    def __sub__(self, other: "XOp") -> "XOp":
        return XOp(self.graph, self.degree, self.matrix - other.matrix, require_block=False)

    def __mul__(self, scalar) -> "XOp":
        return XOp(self.graph, self.degree, self.matrix * scalar, require_block=False)

    __rmul__ = __mul__

    def __matmul__(self, other: "XOp") -> "XOp":
        if self.degree != other.degree:
            raise DegreeMismatch("composing operators on different fibers", None)
        return XOp(self.graph, self.degree, self.matrix @ other.matrix, require_block=False)

    def adjoint(self) -> "XOp":
        return XOp(self.graph, self.degree, self.matrix.conj().T, require_block=False)

    def norm(self) -> float:
        """Operator norm; block structure makes this the max over source blocks."""
        return float(np.linalg.norm(self.matrix, 2)) if self.matrix.size else 0.0

    def close(self, other: "XOp", tol: float = 1e-9) -> bool:
        return arrays_close(self.matrix, other.matrix, tol)

    def __repr__(self) -> str:
        return f"XOp(deg {self.degree}, {self.matrix.shape[0]}x{self.matrix.shape[0]})"


# -- module operations -------------------------------------------------------


def vertex_values(a: XElem) -> np.ndarray:
    """The coefficients of a in X_0 = A, indexed like graph.vertices; an
    element of any other degree is refused with DegreeMismatch."""
    if any(a.degree):
        raise DegreeMismatch(f"the coefficient algebra is X_0, got an element of degree {a.degree}", a.degree)
    return a.coeffs


def x_inner(f: XElem, g: XElem) -> XElem:
    """<f, g> in X_0: at v, the sum over s(la) = v of conj(f(la)) g(la)."""
    f._match(g)
    graph = f.graph
    prod = np.conj(f.coeffs) * g.coeffs
    out = np.zeros(prod.shape[:-1] + (len(graph.vertices),), dtype=np.complex128)
    for v, ix in graph.by_source(f.degree).items():
        if ix:
            out[..., graph.vertex_index[v]] = np.sum(prod[..., list(ix)], axis=-1)
    return XElem(graph, dg.zero(graph.k), out)


def x_act(a: XElem, f: XElem, side: str = "left") -> XElem:
    """The action of a in X_0 on f: through the range map on the left, through
    the source map on the right."""
    values = vertex_values(a)
    graph = f.graph
    paths = graph.paths(f.degree)
    vidx = graph.vertex_index
    if side == "left":
        at = [vidx[p.range] for p in paths]
    elif side == "right":
        at = [vidx[p.source] for p in paths]
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return XElem(graph, f.degree, values[..., at] * f.coeffs)


def x_tmul(c: Cocycle, f: XElem, g: XElem) -> XElem:
    """Twisted product landing in X_(m+n)."""
    graph = f.graph
    m, n = f.degree, g.degree
    pre, suf = graph.factor_indices(m, n)
    twist = c.twist(m, n).values
    return XElem(graph, dg.add(m, n), twist * f.coeffs[..., pre] * g.coeffs[..., suf])


def x_theta(f: XElem, g: XElem) -> XOp:
    """The rank-one operator h -> f <g, h>."""
    f._match(g)
    graph = f.graph
    paths = graph.paths(f.degree)
    sources = np.array([p.source for p in paths])
    mat = np.outer(f.coeffs, np.conj(g.coeffs))
    mat[sources[:, None] != sources[None, :]] = 0.0
    return XOp(graph, f.degree, mat, require_block=False)


def phi_x(a: XElem, n) -> XOp:
    """Left multiplication by a in X_0 on X_n: the diagonal a(r(la))."""
    values = vertex_values(a)
    graph = a.graph
    vidx = graph.vertex_index
    diag = np.array([values[vidx[p.range]] for p in graph.paths(n)])
    return XOp(graph, n, np.diag(diag), require_block=False)


def x_iota(c: Cocycle, S: XOp, n) -> XOp:
    """Extend S in L(X_m) to L(X_n) via iota(S)(x y) = (S x) y.

    Computed by basis transport: with every degree-n path factored as
    mu.nu, d(mu) = m, the entry at (mu'.nu', mu.nu) is
    S[mu', mu] [nu' = nu] c(mu', nu) conj(c(mu, nu)).  With m = 0 this
    reproduces left multiplication by the diagonal of S.
    """
    g = S.graph
    m = S.degree
    n = dg.as_degree(n, g.k)
    if not dg.leq(m, n):
        raise DegreeNotDominated(f"target degree {n} does not dominate {m}", (m, n))
    diff = dg.sub(n, m)
    pre, suf = g.factor_indices(m, diff)
    twist = c.twist(m, diff).values
    out = S.matrix[np.ix_(pre, pre)] * (suf[:, None] == suf[None, :]) * np.outer(twist, np.conj(twist))
    return XOp(g, n, out, require_block=False)


def phi_x_decompose(a: XElem, n) -> list[XElem]:
    """Elements g_i with phi_x(a, n) = sum_i Theta_{g_i, conj(g_i)}, for a in X_0.

    Uses the finest partition: one singleton per path whose range carries
    mass.  Each singleton support is an s-section, and the complex square
    root makes the rank-one sum reproduce the diagonal exactly.
    """
    values = vertex_values(a)
    graph = a.graph
    out = []
    vidx = graph.vertex_index
    for la in graph.paths(n):
        w = values[vidx[la.range]]
        if w != 0:
            out.append(np.sqrt(complex(w)) * XElem.delta(graph, la))
    return out


def x_compact_align(c: Cocycle, S: XOp, T: XOp) -> XOp:
    """iota_m^(m v n)(S) . iota_n^(m v n)(T), the aligned product."""
    join = dg.join(S.degree, T.degree)
    return x_iota(c, S, join) @ x_iota(c, T, join)


# -- batch verification ------------------------------------------------------


@dataclass
class ModuleReport:
    """The cases a module check counted, and the witness of its first failure."""

    cases_checked: int = 0
    first_failure: tuple | None = None

    @property
    def ok(self) -> bool:
        return self.first_failure is None

    def fail(self, witness: tuple) -> ModuleReport:
        """Record `witness` as the failure and return the report."""
        self.first_failure = witness
        return self


def x_tensor_iso_check(c: Cocycle, m, n, tol: float = 1e-9) -> ModuleReport:
    """Check the two-step inner-product identity on the full delta basis and
    that the twisted products of basis vectors span X_(m+n).

    The identity: <f1 g1, f2 g2> = <g1, <f1, f2> g2> for all basis choices
    f from X_m, g from X_n.  The multipliers are read from c.twist(m, n).values,
    unit modulus or not: phases of unit modulus drop out, and a corrupted
    multiplier with |value| != 1 fails immediately.
    """
    g = c.graph
    m = dg.as_degree(m, g.k)
    n = dg.as_degree(n, g.k)
    total = dg.add(m, n)
    pm, pn, pt = g.paths(m), g.paths(n), g.paths(total)
    rep = ModuleReport()

    pre, suf = g.factor_indices(m, n)

    # products[i, j, :] = coefficients of delta_i * delta_j in X_total
    a, b, P = len(pm), len(pn), len(pt)
    products = np.zeros((a, b, P), dtype=np.complex128)
    products[pre, suf, np.arange(P)] = c.twist(m, n).values

    vsrc_t = {v: list(ix) for v, ix in g.by_source(total).items()}
    vsrc_n = {v: list(ix) for v, ix in g.by_source(n).items()}
    inner_m = np.zeros((len(g.vertices), a, a), dtype=np.complex128)
    for v, ix in g.by_source(m).items():
        vi = g.vertex_index[v]
        for i in ix:
            inner_m[vi, i, i] = 1.0  # <delta_i, delta_j> = [i=j] at s(mu_i)
    range_n = np.array([g.vertex_index[p.range] for p in pn])

    for v in g.vertices:
        vi = g.vertex_index[v]
        cols = vsrc_t.get(v, [])
        block = products[:, :, cols].reshape(a * b, -1)
        lhs = np.conj(block) @ block.T  # (ab, ab)
        rhs = np.zeros((a, b, a, b), dtype=np.complex128)
        for nu in vsrc_n.get(v, []):
            rhs[:, nu, :, nu] += inner_m[range_n[nu]]
        rhs = rhs.reshape(a * b, a * b)
        rep.cases_checked += lhs.size
        if not arrays_close(lhs, rhs, tol):
            bad = np.unravel_index(np.argmax(np.abs(lhs - rhs)), lhs.shape)
            i1, j1 = divmod(bad[0], b)
            i2, j2 = divmod(bad[1], b)
            return rep.fail(("tps-inner-product", (pm[i1], pn[j1], pm[i2], pn[j2], v), (lhs[bad], rhs[bad])))

    span_dim = int(np.linalg.matrix_rank(products.reshape(a * b, P)))
    if span_dim != P:
        return rep.fail(("span", (m, n), (span_dim, P)))
    return rep
