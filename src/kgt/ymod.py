"""Depth-filtered cylinder model of the infinite-path module system Y.

A CylElem of module degree n and depth m >= n stores coefficients over
Lambda^m and stands for the function x -> coeffs[x(0, m)] on infinite paths.
Raising the depth (y_lift) copies each coefficient onto every extension of
its prefix; all operations are compatible with lifting, so each fiber Y_n is
the directed union of its depth-m stages and nothing ever materializes an
infinite path.

Adjointable operators are suffix-block-diagonal matrices over Lambda^m: an
operator of module degree n may mix prefixes la(0, n) but leaves the tail
la(n, m) alone.  This is exactly the matrix shape of sums of rank-one
operators Theta_{f, g} in the model.  Every construction here keeps that
shape, which the test oracle checks, so YOp does not test it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import degrees as dg
from .cocycle import Cocycle
from .errors import (
    DegreeMismatch,
    DegreeNotDominated,
    NotSectionDecomposable,
)
from .kgraph import KGraph, Path
from .xmod import ModuleReport, XElem, XOp, arrays_close, compare, times


class CylElem:
    """A depth-m cylinder element of the fiber Y_n.

    Leading axes of the coefficients, if any, hold a batch of elements;
    y_lift, y_tmul and y_inner act on a batch element by element."""

    def __init__(self, graph: KGraph, module_degree, depth, coeffs):
        self.graph = graph
        self.module_degree = dg.as_degree(module_degree, graph.k)
        self.depth = dg.as_degree(depth, graph.k)
        if not dg.leq(self.module_degree, self.depth):
            raise DegreeNotDominated(
                f"depth {self.depth} must dominate module degree {self.module_degree}",
                (self.module_degree, self.depth),
            )
        size = len(graph.paths(self.depth))
        arr = np.asarray(coeffs, dtype=np.complex128)
        if arr.shape[-1:] != (size,):
            raise DegreeMismatch(f"coefficients shape {arr.shape}, expected (..., {size})", arr.shape)
        self.coeffs = arr

    @classmethod
    def delta(cls, graph: KGraph, la: Path, module_degree=None) -> "CylElem":
        """Indicator of the cylinder Z(la), viewed in Y_module_degree."""
        n = la.degree if module_degree is None else module_degree
        out = np.zeros(len(graph.paths(la.degree)), dtype=np.complex128)
        out[graph.path_index(la.degree)[la]] = 1.0
        return cls(graph, n, la.degree, out)

    @classmethod
    def zeros(cls, graph: KGraph, module_degree, depth) -> "CylElem":
        depth = dg.as_degree(depth, graph.k)
        return cls(graph, module_degree, depth, np.zeros(len(graph.paths(depth))))

    @classmethod
    def ones(cls, graph: KGraph) -> "CylElem":
        """The constant function 1 in Y_0."""
        z = dg.zero(graph.k)
        return cls(graph, z, z, np.ones(len(graph.vertices)))

    def lift(self, depth) -> "CylElem":
        return y_lift(self, depth)

    def _common(self, other: "CylElem"):
        if self.graph is not other.graph or self.module_degree != other.module_degree:
            raise DegreeMismatch(
                f"fibers differ: {self.module_degree} vs {other.module_degree}",
                (self.module_degree, other.module_degree),
            )
        d = dg.join(self.depth, other.depth)
        return y_lift(self, d), y_lift(other, d)

    def __add__(self, other: "CylElem") -> "CylElem":
        a, b = self._common(other)
        return CylElem(self.graph, self.module_degree, a.depth, a.coeffs + b.coeffs)

    def __sub__(self, other: "CylElem") -> "CylElem":
        a, b = self._common(other)
        return CylElem(self.graph, self.module_degree, a.depth, a.coeffs - b.coeffs)

    def __mul__(self, scalar) -> "CylElem":
        return CylElem(self.graph, self.module_degree, self.depth, self.coeffs * scalar)

    __rmul__ = __mul__

    def conj(self) -> "CylElem":
        return CylElem(self.graph, self.module_degree, self.depth, np.conj(self.coeffs))

    def close(self, other: "CylElem", tol: float = 1e-9) -> bool:
        a, b = self._common(other)
        return arrays_close(a.coeffs, b.coeffs, tol)

    def sup_norm(self) -> float:
        """Sup of |f|; exact because every prefix extends (source-free model)."""
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0

    def norm(self) -> float:
        """Module norm: sup over tails of the fiber l2 mass."""
        inner = y_inner(self, self)
        return float(np.sqrt(np.max(np.abs(inner.coeffs)))) if inner.coeffs.size else 0.0

    def __repr__(self) -> str:
        return (
            f"CylElem(deg {self.module_degree}, depth {self.depth}, "
            f"{np.count_nonzero(np.abs(self.coeffs) > 1e-12)} terms)"
        )


def y_lift(h: CylElem, depth) -> CylElem:
    """Reinterpret h at a greater depth: coeffs'[la] = coeffs[la(0, m)]."""
    g = h.graph
    depth = dg.as_degree(depth, g.k)
    if depth == h.depth:
        return h
    if not dg.leq(h.depth, depth):
        raise DegreeNotDominated(f"cannot lower depth {h.depth} to {depth}", (h.depth, depth))
    pre, _ = g.factor_indices(h.depth, dg.sub(depth, h.depth))
    return CylElem(g, h.module_degree, depth, h.coeffs[..., pre])


def y_inner(f: CylElem, g_: CylElem) -> CylElem:
    """<f, g> in Y_0: at tail tau, sum conj(f(mu tau)) g(mu tau) over prefixes."""
    f, g_ = f._common(g_)
    g = f.graph
    n = f.module_degree
    rest = dg.sub(f.depth, n)
    _, suf = g.factor_indices(n, rest)
    prod = np.conj(f.coeffs) * g_.coeffs
    out = np.zeros(prod.shape[:-1] + (len(g.paths(rest)),), dtype=np.complex128)
    np.add.at(out, (..., suf), prod)
    return CylElem(g, dg.zero(g.k), rest, out)


def y_tmul(c: Cocycle, f: CylElem, g_: CylElem) -> CylElem:
    """Twisted product: (f g)(x) = c(x(0,m), x(m,m+n)) f(x) g(T^m x)."""
    gph = f.graph
    m, n = f.module_degree, g_.module_degree
    depth = dg.join(f.depth, dg.add(m, g_.depth))
    _, suf_m = gph.factor_indices(m, dg.sub(depth, m))
    pre_f, _ = gph.factor_indices(f.depth, dg.sub(depth, f.depth))
    tail = dg.sub(depth, m)
    tail_pre_g, _ = gph.factor_indices(g_.depth, dg.sub(tail, g_.depth))
    # c(x(0, m), x(m, m+n)) for x in Lambda^depth, read off the (m, n) twist
    pre_mn, _ = gph.factor_indices(dg.add(m, n), dg.sub(depth, dg.add(m, n)))
    twist = c.twist(m, n).values[pre_mn]
    out = twist * f.coeffs[..., pre_f] * g_.coeffs[..., tail_pre_g[suf_m]]
    return CylElem(gph, dg.add(m, n), depth, out)


def shift_pullback(h: CylElem, p) -> CylElem:
    """Compose a degree-0 function with the shift: coeffs'[la] = coeffs[la(p, p+q)]."""
    g = h.graph
    if any(h.module_degree):
        raise DegreeMismatch("shift pullback acts on degree-0 functions", h.module_degree)
    p = dg.as_degree(p, g.k)
    _, suf = g.factor_indices(p, h.depth)
    return CylElem(g, dg.zero(g.k), dg.add(p, h.depth), h.coeffs[suf])


def alpha(n, m, f: XElem) -> CylElem:
    """Prop-style inclusion of X_m into Y_n by reading coefficients as a cylinder."""
    g = f.graph
    n = dg.as_degree(n, g.k)
    m = dg.as_degree(m, g.k)
    if f.degree != m:
        raise DegreeMismatch(f"element degree {f.degree}, expected {m}", (f.degree, m))
    if not dg.leq(n, m):
        raise DegreeNotDominated(f"target fiber {n} must be dominated by {m}", (n, m))
    return CylElem(g, n, m, f.coeffs.copy())


class YOp:
    """Adjointable operator on Y_n, stored at a working depth m >= n: block-
    diagonal over the tails la(n, m) by construction; the test oracle checks
    the shape."""

    def __init__(self, graph: KGraph, module_degree, depth, matrix):
        self.graph = graph
        self.module_degree = dg.as_degree(module_degree, graph.k)
        self.depth = dg.as_degree(depth, graph.k)
        if not dg.leq(self.module_degree, self.depth):
            raise DegreeNotDominated(
                f"depth {self.depth} must dominate module degree {self.module_degree}",
                (self.module_degree, self.depth),
            )
        size = len(graph.paths(self.depth))
        self.matrix = np.asarray(matrix, dtype=np.complex128)
        if self.matrix.shape != (size, size):
            raise DegreeMismatch(f"matrix shape {self.matrix.shape}, expected {size}", None)

    @classmethod
    def zeros(cls, graph: KGraph, module_degree, depth=None) -> "YOp":
        module_degree = dg.as_degree(module_degree, graph.k)
        depth = module_degree if depth is None else dg.as_degree(depth, graph.k)
        n = len(graph.paths(depth))
        return cls(graph, module_degree, depth, np.zeros((n, n)))

    def lift(self, depth) -> "YOp":
        g = self.graph
        depth = dg.as_degree(depth, g.k)
        if depth == self.depth:
            return self
        if not dg.leq(self.depth, depth):
            raise DegreeNotDominated(f"cannot lower depth {self.depth} to {depth}", None)
        pre, suf = g.factor_indices(self.depth, dg.sub(depth, self.depth))
        mat = self.matrix[np.ix_(pre, pre)] * (suf[:, None] == suf[None, :])
        return YOp(g, self.module_degree, depth, mat)

    def _common(self, other: "YOp"):
        if self.module_degree != other.module_degree:
            raise DegreeMismatch("operators on different fibers", None)
        d = dg.join(self.depth, other.depth)
        return self.lift(d), other.lift(d)

    def __add__(self, other: "YOp") -> "YOp":
        a, b = self._common(other)
        return YOp(a.graph, a.module_degree, a.depth, a.matrix + b.matrix)

    def __sub__(self, other: "YOp") -> "YOp":
        a, b = self._common(other)
        return YOp(a.graph, a.module_degree, a.depth, a.matrix - b.matrix)

    def __mul__(self, scalar) -> "YOp":
        return YOp(self.graph, self.module_degree, self.depth, self.matrix * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other: "YOp") -> "YOp":
        a, b = self._common(other)
        return YOp(a.graph, a.module_degree, a.depth, a.matrix @ b.matrix)

    def adjoint(self) -> "YOp":
        return YOp(self.graph, self.module_degree, self.depth, self.matrix.conj().T)

    def __call__(self, h: CylElem) -> CylElem:
        if h.module_degree != self.module_degree:
            raise DegreeMismatch("operator and element live in different fibers", None)
        d = dg.join(self.depth, h.depth)
        op = self.lift(d)
        hh = y_lift(h, d)
        return CylElem(h.graph, h.module_degree, d, op.matrix @ hh.coeffs)

    def norm(self) -> float:
        """Largest singular value; the tail blocks realize the fiber sup."""
        return float(np.linalg.norm(self.matrix, 2)) if self.matrix.size else 0.0

    def close(self, other: "YOp", tol: float = 1e-9) -> bool:
        a, b = self._common(other)
        return arrays_close(a.matrix, b.matrix, tol)

    def __repr__(self) -> str:
        return f"YOp(deg {self.module_degree}, depth {self.depth}, {self.matrix.shape[0]}x{self.matrix.shape[0]})"


def alpha_k(K: XOp) -> YOp:
    """K(X_n) -> K(Y_n): the same matrix read at depth n.

    On rank-ones this is Theta_{f, g} -> Theta_{alpha(f), alpha(g)}; linearity
    gives the general case, and the degree-0 tails make the source blocks of
    X_n coincide with the tail blocks of Y_n.
    """
    return YOp(K.graph, K.degree, K.degree, K.matrix.copy())


def y_theta(f: CylElem, g_: CylElem) -> YOp:
    """Rank-one operator h -> f . <g, h>."""
    f, g_ = f._common(g_)
    g = f.graph
    n = f.module_degree
    _, suf = g.factor_indices(n, dg.sub(f.depth, n))
    mat = np.outer(f.coeffs, np.conj(g_.coeffs)) * (suf[:, None] == suf[None, :])
    return YOp(g, n, f.depth, mat)


def phi_y(a: CylElem, n) -> YOp:
    """Left action of a degree-0 function on Y_n: a diagonal at the lifted depth."""
    g = a.graph
    if any(a.module_degree):
        raise DegreeMismatch("left action is by degree-0 functions", a.module_degree)
    n = dg.as_degree(n, g.k)
    depth = dg.join(a.depth, n)
    lifted = y_lift(a, depth)
    return YOp(g, n, depth, np.diag(lifted.coeffs))


def y_iota(c: Cocycle, S: YOp, n) -> YOp:
    """Extend S in L(Y_m) to L(Y_n), n >= m, twisting by the factor phases.

    Entry transport: at working depth D the extension is
    S[la', la] * c(la'(0,m), la'(m,n)) * conj(c(la(0,m), la(m,n))); with m = 0
    this is left multiplication by the diagonal of S.
    """
    g = S.graph
    m = S.module_degree
    n = dg.as_degree(n, g.k)
    if not dg.leq(m, n):
        raise DegreeNotDominated(f"target fiber {n} does not dominate {m}", (m, n))
    depth = dg.join(S.depth, n)
    lifted = S.lift(depth)
    pre_n, _ = g.factor_indices(n, dg.sub(depth, n))
    twist = c.twist(m, dg.sub(n, m)).values[pre_n]
    mat = times(lifted.matrix, times(twist[:, None], np.conj(twist)))
    return YOp(g, n, depth, mat)


# -- section decompositions --------------------------------------------------


def phi_y_decompose(a: CylElem, n) -> list[XElem]:
    """Elements g_i of X_D with phi_y(a, n) = sum Theta_{alpha(g_i), alpha(conj g_i)}.

    Finest partition: one complex-square-root singleton per supported depth-D
    path; each singleton is an s-section.  The suite check
    `eq-left-action-in-Y` verifies the sum.
    """
    g = a.graph
    if any(a.module_degree):
        raise DegreeMismatch("decomposition applies to degree-0 functions", a.module_degree)
    n = dg.as_degree(n, g.k)
    lifted = y_lift(a, dg.join(a.depth, n))
    return [
        np.sqrt(complex(w)) * XElem.delta(g, la)
        for la, w in zip(g.paths(lifted.depth), lifted.coeffs)
        if w != 0
    ]


@dataclass
class AlphaDecomposition:
    """Data realizing f in Y_n as sum_i alpha(xi_i) . alpha_0(f_tilde)."""

    xi: list  # XElem, degree n: the section indicators for the prefixes
    f_tilde: XElem  # degree m - n
    eta: list  # XElem, degree m - n: section indicators for the tails


def alpha_decompose(f: XElem, n) -> AlphaDecomposition:
    """Split f in X_m along prefix/tail sections.

    The suite checks `eq-action-decomp-for-alpha` and
    `eq-left-action-of-f-tilde-as-compacts` verify the two displayed
    identities: the product reassembly in Y_n and the compact form of the
    tail's left action.  Fails with NotSectionDecomposable when the
    support's prefixes (or tails) do not form s-sections; point masses
    always decompose.
    """
    g = f.graph
    m = f.degree
    n = dg.as_degree(n, g.k)
    if not dg.leq(n, m):
        raise DegreeNotDominated(f"need n <= d(f) = {m}", (n, m))
    rest = dg.sub(m, n)
    support = [la for la, w in zip(g.paths(m), f.coeffs) if w != 0]

    u_of: dict[str, Path] = {}
    v_of: dict[str, Path] = {}
    for la in support:
        mu, nu = g.split(la, n)
        if u_of.setdefault(mu.source, mu) != mu:
            raise NotSectionDecomposable(
                f"two support prefixes share the source {mu.source}", (u_of[mu.source], mu)
            )
        if v_of.setdefault(nu.source, nu) != nu:
            raise NotSectionDecomposable(
                f"two support tails share the source {nu.source}", (v_of[nu.source], nu)
            )
    U = tuple(u_of[v] for v in sorted(u_of))
    V = tuple(v_of[v] for v in sorted(v_of))

    ft = np.zeros(len(g.paths(rest)), dtype=np.complex128)
    fidx = g.path_index(m)
    for nu in V:
        la = g.compose(u_of[nu.range], nu)
        ft[g.path_index(rest)[nu]] = f.coeffs[fidx[la]]
    f_tilde = XElem(g, rest, ft)

    xi = [XElem.delta(g, mu) for mu in U]
    eta = [XElem.delta(g, nu) for nu in V]

    return AlphaDecomposition(xi, f_tilde, eta)


# -- density and norm reports ------------------------------------------------


def cylinder_density_check(g: KGraph, U, depth) -> ModuleReport:
    """Dimension of depth-`depth` functions supported on Z(U), two ways.

    Counts extensions source by source and compares with a direct filter of
    Lambda^depth; exact equality is the discrete density statement.
    """
    U = list(U)
    rep = ModuleReport()
    if not U:
        return rep
    n = U[0].degree
    if len({p.degree for p in U}) != 1 or not g.is_s_section(U):
        return rep.fail(("not-an-s-section", tuple(U), None))
    depth = dg.as_degree(depth, g.k)
    ext = dg.sub(depth, n)
    by_extension = sum(len(g.by_range(ext)[u.source]) for u in U)
    uset = set(U)
    direct = sum(1 for la in g.paths(depth) if g.split(la, n)[0] in uset)
    rep.cases_checked = direct
    if by_extension != direct:
        return rep.fail(("dimension", tuple(U), (by_extension, direct)))
    return rep


def sup_norm_check(f: CylElem, U, tol: float = 1e-9) -> ModuleReport:
    """For f supported on Z(U) with U an s-section, the sup norm equals the
    module norm; both sides are computed independently."""
    g = f.graph
    U = list(U)
    rep = ModuleReport()
    n = f.module_degree
    if any(p.degree != n for p in U) or not g.is_s_section(U):
        return rep.fail(("not-an-s-section", tuple(U), None))
    uset = set(U)
    for la, w in zip(g.paths(f.depth), f.coeffs):
        if w != 0 and g.split(la, n)[0] not in uset:
            return rep.fail(("support-outside-sections", la, w))
    sup, mod = f.sup_norm(), f.norm()
    rep.cases_checked = 1
    if not compare([sup], [mod], tol).ok[0]:
        return rep.fail(("norms-differ", None, (sup, mod)))
    return rep
