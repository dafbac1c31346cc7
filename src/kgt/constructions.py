"""Graph-producing constructions: Cartesian products, skew products by a
finite group, and crossed products by commuting lattice automorphisms.

All three return KGraph subclasses that remember their ingredients and can
project paths back to the factors.  Every output goes through
validate_skeleton, so the validator doubles as the correctness oracle for the
square tables written down here.  Composite vertex and edge ids join the
original ids with '|'; construction edges get a short prefix so ids stay
unique.  A Cartesian product records the factor vertices and factor edge of
each id as it writes it, so projecting never splits an id, which in a nested
product holds the separator more than once.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import degrees as dg
from .errors import (
    CapTooSmallForRequestedDegree,
    MalformedSkeleton,
    NotAFunctor,
)
from .kgraph import KGraph, Path, make_skeleton, validate_skeleton

SEP = "|"


# -- finite groups -----------------------------------------------------------


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group as a multiplication table on string element ids."""

    elements: tuple[str, ...]
    table: dict  # (a, b) -> ab

    def __post_init__(self):
        for a in self.elements:
            row = {self.table[(a, b)] for b in self.elements}
            if row != set(self.elements):
                raise MalformedSkeleton(f"multiplication by {a!r} is not a bijection", a)

    @property
    def identity(self) -> str:
        for a in self.elements:
            if all(self.table[(a, b)] == b for b in self.elements):
                return a
        raise MalformedSkeleton("group table has no identity", self.table)

    def mul(self, a: str, b: str) -> str:
        return self.table[(a, b)]


def cyclic_group(n: int) -> FiniteGroup:
    els = tuple(str(i) for i in range(n))
    table = {(a, b): str((int(a) + int(b)) % n) for a in els for b in els}
    return FiniteGroup(els, table)


def trivial_group() -> FiniteGroup:
    return cyclic_group(1)


# -- lattice actions ---------------------------------------------------------


@dataclass(frozen=True)
class ZlAction:
    """l commuting automorphisms of a graph, as vertex and edge permutations."""

    graph: KGraph
    vertex_perms: tuple[dict, ...]  # generator j-1: v -> beta_j(v)
    edge_perms: tuple[dict, ...]

    @property
    def l(self) -> int:
        return len(self.vertex_perms)

    def vertex(self, j: int, v: str, power: int = 1) -> str:
        perm = self.vertex_perms[j - 1] if power >= 0 else _invert(self.vertex_perms[j - 1])
        for _ in range(abs(power)):
            v = perm[v]
        return v

    def edge(self, j: int, e: str, power: int = 1) -> str:
        perm = self.edge_perms[j - 1] if power >= 0 else _invert(self.edge_perms[j - 1])
        for _ in range(abs(power)):
            e = perm[e]
        return e


def _invert(perm: dict) -> dict:
    return {v: k for k, v in perm.items()}


def identity_action(g: KGraph, l: int = 1) -> ZlAction:
    vp = {v: v for v in g.vertices}
    ep = {e.ident: e.ident for e in g.all_edges}
    return ZlAction(g, (dict(vp),) * l, (dict(ep),) * l)


def validate_action(g: KGraph, beta: ZlAction) -> tuple[bool, tuple | None]:
    """Check each generator is a color-preserving automorphism compatible
    with r, s, and the squares, and that the generators commute."""
    if beta.graph is not g:
        return False, ("graph", None)
    for j in range(1, beta.l + 1):
        vp, ep = beta.vertex_perms[j - 1], beta.edge_perms[j - 1]
        if sorted(vp) != sorted(vp.values()) or sorted(vp) != sorted(g.vertices):
            return False, ("vertex-bijection", j)
        if sorted(ep) != sorted(ep.values()) or sorted(ep) != sorted(
            e.ident for e in g.all_edges
        ):
            return False, ("edge-bijection", j)
        for e in g.all_edges:
            img = g.edge(ep[e.ident])
            if img.color != e.color:
                return False, ("color", (j, e.ident))
            if img.range != vp[e.range] or img.source != vp[e.source]:
                return False, ("endpoints", (j, e.ident))
        for (e, f), (f2, e2) in g.skeleton.squares.items():
            if g.skeleton.squares[(ep[e], ep[f])] != (ep[f2], ep[e2]):
                return False, ("squares", (j, (e, f)))
    for i in range(beta.l):
        for j in range(i + 1, beta.l):
            for v in g.vertices:
                a = beta.vertex_perms[i][beta.vertex_perms[j][v]]
                b = beta.vertex_perms[j][beta.vertex_perms[i][v]]
                if a != b:
                    return False, ("commute", (i + 1, j + 1, v))
            for e in g.all_edges:
                a = beta.edge_perms[i][beta.edge_perms[j][e.ident]]
                b = beta.edge_perms[j][beta.edge_perms[i][e.ident]]
                if a != b:
                    return False, ("commute", (i + 1, j + 1, e.ident))
    return True, None


# -- Cartesian product -------------------------------------------------------


class CartesianProductGraph(KGraph):
    def __init__(self, skeleton, _token=None, left=None, right=None, vertex_pair=None, factor_edge=None):
        super().__init__(skeleton, _token)
        self.left = left
        self.right = right
        self.vertex_pair = vertex_pair  # product vertex -> (left vertex, right vertex)
        self.factor_edge = factor_edge  # product edge -> (0 left or 1 right, factor edge)

    def project(self, la: Path) -> tuple[Path, Path]:
        """Split a path into its two factor paths."""
        k1 = self.left.k
        lv, rv = self.vertex_pair[la.range]
        edges = ([], [])
        for e in la.edges:
            side, f = self.factor_edge[e]
            edges[side].append(f)
        p1 = self.left.path_from_edges(edges[0]) if edges[0] else self.left.vertex_path(lv)
        p2 = self.right.path_from_edges(edges[1]) if edges[1] else self.right.vertex_path(rv)
        assert p1.degree == la.degree[:k1] and p2.degree == la.degree[k1:]
        return p1, p2


def cartesian(g1: KGraph, g2: KGraph) -> CartesianProductGraph:
    """Product graph of rank k1 + k2 on the product vertex set."""
    k1, k2 = g1.k, g2.k
    pairs = [(v1, v2) for v1 in g1.vertices for v2 in g2.vertices]
    verts = [f"{v1}{SEP}{v2}" for v1, v2 in pairs]  # validate_skeleton refuses a repeated id
    vertex_pair = dict(zip(verts, pairs))
    factor_edge = {}

    def lid(e, v2):
        ident = f"L:{e}{SEP}{v2}"
        factor_edge[ident] = (0, e)
        return ident

    def rid(v1, f):
        ident = f"R:{v1}{SEP}{f}"
        factor_edge[ident] = (1, f)
        return ident

    edges = []
    for e in g1.all_edges:
        for v2 in g2.vertices:
            edges.append((lid(e.ident, v2), e.color, f"{e.range}{SEP}{v2}", f"{e.source}{SEP}{v2}"))
    for f in g2.all_edges:
        for v1 in g1.vertices:
            edges.append((rid(v1, f.ident), k1 + f.color, f"{v1}{SEP}{f.range}", f"{v1}{SEP}{f.source}"))

    squares = []
    for (e, f), (f2, e2) in g1.skeleton.squares.items():
        for v2 in g2.vertices:
            squares.append(((lid(e, v2), lid(f, v2)), (lid(f2, v2), lid(e2, v2))))
    for (e, f), (f2, e2) in g2.skeleton.squares.items():
        for v1 in g1.vertices:
            squares.append(((rid(v1, e), rid(v1, f)), (rid(v1, f2), rid(v1, e2))))
    for e in g1.all_edges:  # mixed colors: the two orders factor through each other
        for f in g2.all_edges:
            squares.append(
                (
                    (lid(e.ident, f.range), rid(e.source, f.ident)),
                    (rid(e.range, f.ident), lid(e.ident, f.source)),
                )
            )

    skel = make_skeleton(k1 + k2, verts, edges, squares)
    return validate_skeleton(
        skel, _cls=CartesianProductGraph, left=g1, right=g2, vertex_pair=vertex_pair, factor_edge=factor_edge
    )


# -- skew product ------------------------------------------------------------


def validate_group_functor(g: KGraph, group: FiniteGroup, f: dict) -> None:
    """f maps edges to group elements and must agree across every square."""
    for e in g.all_edges:
        if e.ident not in f or f[e.ident] not in group.elements:
            raise NotAFunctor(f"f is missing or out of range on edge {e.ident!r}", e.ident)
    for (e, h), (h2, e2) in g.skeleton.squares.items():
        if group.mul(f[e], f[h]) != group.mul(f[h2], f[e2]):
            raise NotAFunctor(f"f disagrees on the square {(e, h)} = {(h2, e2)}", (e, h))


class SkewProductGraph(KGraph):
    def __init__(self, skeleton, _token=None, base=None, group=None, labels=None):
        super().__init__(skeleton, _token)
        self.base = base
        self.group = group
        self.labels = labels  # edge id -> group element

    def project(self, la: Path) -> tuple[Path, str]:
        """Return the base path and the group coordinate of the range."""
        v, a = la.range.rsplit(SEP, 1)
        base_edges = [e.rsplit(SEP, 1)[0] for e in la.edges]
        p = self.base.path_from_edges(base_edges) if base_edges else self.base.vertex_path(v)
        return p, a


def skew_product(g: KGraph, group: FiniteGroup, f: dict) -> SkewProductGraph:
    """Same rank as g, vertex set Lambda^0 x A, source shifted by f."""
    validate_group_functor(g, group, f)
    verts = [f"{v}{SEP}{a}" for v in g.vertices for a in group.elements]
    edges = []
    for e in g.all_edges:
        for a in group.elements:
            edges.append(
                (
                    f"{e.ident}{SEP}{a}",
                    e.color,
                    f"{e.range}{SEP}{a}",
                    f"{e.source}{SEP}{group.mul(a, f[e.ident])}",
                )
            )
    squares = []
    for (e, h), (h2, e2) in g.skeleton.squares.items():
        for a in group.elements:
            squares.append(
                (
                    (f"{e}{SEP}{a}", f"{h}{SEP}{group.mul(a, f[e])}"),
                    (f"{h2}{SEP}{a}", f"{e2}{SEP}{group.mul(a, f[h2])}"),
                )
            )
    skel = make_skeleton(g.k, verts, edges, squares)
    return validate_skeleton(skel, _cls=SkewProductGraph, base=g, group=group, labels=dict(f))


# -- crossed product ---------------------------------------------------------


class CrossedProductGraph(KGraph):
    """Rank k+l graph whose color-(k+j) edges realize the j-th generator.

    The morphism set of the untruncated crossed product is infinite in the
    lattice directions; this object is its full path category on a finite
    skeleton, with degree queries beyond the stored cap rejected lazily.
    """

    def __init__(self, skeleton, _token=None, base=None, action=None, cap=None):
        super().__init__(skeleton, _token)
        self.base = base
        self.action = action
        self.cap = cap

    @property
    def l(self) -> int:
        return len(self.cap)

    def _check_cap(self, lattice_part) -> None:
        if not dg.leq(lattice_part, self.cap):
            raise CapTooSmallForRequestedDegree(
                f"lattice degree {lattice_part} exceeds cap {self.cap}", lattice_part
            )

    def clip(self, d) -> dg.Degree:
        kb = self.base.k
        return tuple(d[:kb]) + tuple(min(x, c) for x, c in zip(d[kb:], self.cap))

    def paths(self, n):
        n = dg.as_degree(n, self.k)
        self._check_cap(n[self.base.k :])
        return super().paths(n)

    def compose(self, la, mu):
        total = dg.add(la.degree, mu.degree)
        self._check_cap(total[self.base.k :])
        return super().compose(la, mu)

    def project(self, la: Path) -> tuple[Path, dg.Degree]:
        """Return (base path, lattice coordinate vector)."""
        kb = self.base.k
        base_edges = [e for e in la.edges if self._color[e] <= kb]
        p = (
            self.base.path_from_edges(base_edges)
            if base_edges
            else self.base.vertex_path(la.range)
        )
        return p, la.degree[kb:]


def crossed_product(g: KGraph, beta: ZlAction, cap) -> CrossedProductGraph:
    """Adjoin one new color per generator of beta; the new color-(k+j) edge at
    v runs from beta_j^{-1}(v) to v, and pushing a base edge through it applies
    beta_j."""
    ok, witness = validate_action(g, beta)
    if not ok:
        raise MalformedSkeleton(f"not a lattice action: {witness}", witness)
    k, l = g.k, beta.l
    cap = dg.as_degree(cap, l)

    def zid(j, v):
        return f"z{j}{SEP}{v}"

    edges = [(e.ident, e.color, e.range, e.source) for e in g.all_edges]
    for j in range(1, l + 1):
        for v in g.vertices:
            edges.append((zid(j, v), k + j, v, beta.vertex(j, v, power=-1)))

    squares = [(kk, vv) for kk, vv in g.skeleton.squares.items()]
    # base color i < new color k+j: e then z_j at s(e) equals z_j at r(e) then beta_j^{-1}(e)
    for e in g.all_edges:
        for j in range(1, l + 1):
            squares.append(
                (
                    (e.ident, zid(j, e.source)),
                    (zid(j, e.range), beta.edge(j, e.ident, power=-1)),
                )
            )
    # new colors k+i < k+j
    for i in range(1, l + 1):
        for j in range(i + 1, l + 1):
            for v in g.vertices:
                squares.append(
                    (
                        (zid(i, v), zid(j, beta.vertex(i, v, power=-1))),
                        (zid(j, v), zid(i, beta.vertex(j, v, power=-1))),
                    )
                )

    skel = make_skeleton(k + l, g.vertices, edges, squares)
    return validate_skeleton(skel, _cls=CrossedProductGraph, base=g, action=beta, cap=cap)
