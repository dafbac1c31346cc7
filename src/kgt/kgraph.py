"""Finite higher-rank graphs presented by colored skeletons with squares.

A rank-k graph is given here by k colored edge layers over a common vertex
set, together with, for each color pair i < j, a bijection between the
composable two-edge paths (i then j) and (j then i).  Those bijections (the
"squares") generate the unique-factorization structure: every path has a
normal form listing its edges in ascending color blocks, and all composition
and factorization is done by applying squares to adjacent edge pairs.

Conventions: a path runs from its source to its range, so a pair (lambda, mu)
is composable when s(lambda) = r(mu), and v.Lambda^n denotes the degree-n
paths with range v.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import degrees as dg
from .errors import (
    DegreeOutOfRange,
    EndpointMismatch,
    HexagonViolation,
    MalformedSkeleton,
    NotComposable,
    SquareNotBijective,
    UnknownFixture,
)


@dataclass(frozen=True, slots=True)
class Edge:
    ident: str
    color: int  # 1-based
    range: str
    source: str


@dataclass(frozen=True, slots=True)
class Path:
    """A morphism in normal form: edge ids in ascending color blocks."""

    degree: dg.Degree
    edges: tuple[str, ...]
    range: str
    source: str

    @property
    def is_vertex(self) -> bool:
        return not self.edges

    def sort_key(self):
        return self.edges if self.edges else (self.range,)

    def __repr__(self) -> str:
        if self.edges:
            return "<" + ".".join(self.edges) + ">"
        return f"<vertex {self.range}>"


@dataclass
class KGraphSkeleton:
    """Raw presentation data, not yet validated."""

    k: int
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    squares: dict[tuple[str, str], tuple[str, str]] = field(default_factory=dict)


def make_skeleton(k, vertices, edges, squares=()) -> KGraphSkeleton:
    """Convenience constructor.

    edges: iterable of (ident, color, range, source) tuples or Edge objects.
    squares: iterable of ((e, f), (f2, e2)) id pairs, or an equivalent dict.
    """
    es = tuple(e if isinstance(e, Edge) else Edge(*e) for e in edges)
    sq = dict(squares.items() if isinstance(squares, dict) else squares)
    sq = {tuple(kk): tuple(v) for kk, v in sq.items()}
    return KGraphSkeleton(int(k), tuple(str(v) for v in vertices), es, sq)


class KGraph:
    """A validated skeleton plus memoized path tables.

    Instances are immutable after validation; the memo dictionaries only ever
    gain entries, and each entry is written once, so sharing across threads is
    safe under the usual dict atomicity guarantees.
    """

    def __init__(self, skeleton: KGraphSkeleton, _token=None):
        if _token is not _VALIDATED:
            raise MalformedSkeleton("use validate_skeleton() to build a KGraph")
        self.skeleton = skeleton
        self.k = skeleton.k
        self.vertices = tuple(sorted(skeleton.vertices))
        self.vertex_index = {v: i for i, v in enumerate(self.vertices)}
        self._edge = {e.ident: e for e in skeleton.edges}
        self._color = {e.ident: e.color for e in skeleton.edges}
        by_color: dict[int, list[Edge]] = {}
        for e in sorted(skeleton.edges, key=lambda e: e.ident):
            by_color.setdefault(e.color, []).append(e)
        self._by_color = dict.fromkeys(range(1, self.k + 1), ()) | {i: tuple(es) for i, es in by_color.items()}
        self._sq_inv = {v: kk for kk, v in skeleton.squares.items()}
        self._paths: dict[dg.Degree, tuple[Path, ...]] = {}
        self._index: dict[dg.Degree, dict[Path, int]] = {}
        self._factor: dict = {}
        self._ranges: dict = {}
        self._sources: dict = {}

    # -- basic structure ---------------------------------------------------

    def edge(self, ident: str) -> Edge:
        return self._edge[ident]

    def edges(self, color: int) -> tuple[Edge, ...]:
        return self._by_color[color]

    @property
    def all_edges(self) -> tuple[Edge, ...]:
        return self.skeleton.edges

    def vertex_path(self, v: str) -> Path:
        return Path(dg.zero(self.k), (), v, v)

    def edge_path(self, ident: str) -> Path:
        e = self._edge[ident]
        return Path(dg.unit(self.k, e.color), (ident,), e.range, e.source)

    def path_from_edges(self, seq) -> Path:
        """Build a path from a composable edge-id sequence (any color order)."""
        out = None
        for ident in seq:
            step = self.edge_path(ident)
            out = step if out is None else self.compose(out, step)
        if out is None:
            raise DegreeOutOfRange("empty sequence does not name a vertex path", seq)
        return out

    # -- path tables -------------------------------------------------------

    def paths(self, n) -> tuple[Path, ...]:
        n = dg.as_degree(n, self.k)
        hit = self._paths.get(n)
        if hit is not None:
            return hit
        partials = [(v, (), v) for v in self.vertices]  # (range, edges, source)
        for i in range(1, self.k + 1):
            for _ in range(n[i - 1]):
                nxt = []
                for r0, es, s0 in partials:
                    for e in self._by_color[i]:
                        if e.range == s0:
                            nxt.append((r0, es + (e.ident,), e.source))
                partials = nxt
        out = [Path(n, es, r0, s0) for r0, es, s0 in partials]
        out.sort(key=Path.sort_key)
        result = tuple(out)
        self._paths[n] = result
        return result

    def path_index(self, n) -> dict[Path, int]:
        n = dg.as_degree(n, self.k)
        hit = self._index.get(n)
        if hit is None:
            hit = {p: i for i, p in enumerate(self.paths(n))}
            self._index[n] = hit
        return hit

    def by_range(self, n) -> dict[str, tuple[int, ...]]:
        """Vertex v -> indices (into paths(n)) of v.Lambda^n."""
        return self._fibers(n, self._ranges, "range")

    def by_source(self, n) -> dict[str, tuple[int, ...]]:
        """Vertex v -> indices (into paths(n)) of Lambda^n.v."""
        return self._fibers(n, self._sources, "source")

    def _fibers(self, n, cache: dict, end: str) -> dict[str, tuple[int, ...]]:
        """Vertex v -> indices of the paths(n) whose `end` is v; cached in `cache`."""
        n = dg.as_degree(n, self.k)
        hit = cache.get(n)
        if hit is None:
            table = {v: [] for v in self.vertices}
            for i, p in enumerate(self.paths(n)):
                table[getattr(p, end)].append(i)
            hit = cache[n] = {v: tuple(ix) for v, ix in table.items()}
        return hit

    # -- composition and factorization ------------------------------------

    def compose(self, la: Path, mu: Path) -> Path:
        if la.source != mu.range:
            raise NotComposable(f"s({la!r}) = {la.source} != r({mu!r}) = {mu.range}", (la, mu))
        return Path(dg.add(la.degree, mu.degree), self._normal_form(la.edges + mu.edges), la.range, mu.source)

    def _normal_form(self, edges: tuple[str, ...]) -> tuple[str, ...]:
        """A composable edge sequence in ascending color blocks: an insertion
        sort by color, each backward swap applying one square."""
        seq, color = list(edges), self._color
        for j in range(1, len(seq)):
            while j and color[seq[j - 1]] > color[seq[j]]:
                seq[j - 1], seq[j] = self._sq_inv[seq[j - 1], seq[j]]
                j -= 1
        return tuple(seq)

    def split(self, la: Path, m) -> tuple[Path, Path]:
        """The unique factorization la = mu.nu with d(mu) = m, read from
        factor_indices(m, d(la) - m).  The first split at a degree pair
        builds that table, so it enumerates all of Lambda^d(la); the callers
        in this package already hold that set."""
        m = dg.as_degree(m, self.k)
        d = la.degree
        n = tuple(a - b for a, b in zip(d, m))
        if min(n, default=0) < 0:
            raise DegreeOutOfRange(f"{m} is not <= d({la!r}) = {d}", (la, m))
        pre, suf = self._factor.get((m, n)) or self.factor_indices(m, n)
        i = self.path_index(d)[la]
        return self._paths[m][pre[i]], self._paths[n][suf[i]]

    def segment(self, la: Path, m, n) -> Path:
        """The subpath la(m, n)."""
        m = dg.as_degree(m, self.k)
        n = dg.as_degree(n, self.k)
        if not (dg.leq(m, n) and dg.leq(n, la.degree)):
            raise DegreeOutOfRange(f"need {m} <= {n} <= {la.degree}", (la, m, n))
        _, rest = self.split(la, m)
        mid, _ = self.split(rest, dg.sub(n, m))
        return mid

    def factor_indices(self, m, n) -> tuple[np.ndarray, np.ndarray]:
        """Read-only prefix and suffix index arrays, cached: path i of
        paths(m+n) factors as paths(m)[pre[i]] . paths(n)[suf[i]].

        The only stored factorization.  When m is 0 or n is at most one
        edge, it is built in one pass that brings the edges of each mu in
        Lambda^m followed by each nu in s(mu).Lambda^n into normal form
        through the squares, as compose does, and finds the composite by its
        Path.sort_key; no Path is built per pair.  A longer n is n1 + e, with
        e the unit of its highest color, and by unique factorization the
        table is composed from three cached ones: la(0, m) is
        la(0, m+n1)(0, m), and la(m, m+n) is la(m, m+n1) . la(m+n1, m+n),
        found in an inverse of factor_indices(n1, e)."""
        m = dg.as_degree(m, self.k)
        n = dg.as_degree(n, self.k)
        key = (m, n)
        hit = self._factor.get(key)
        if hit is not None:
            return hit
        paths = self.paths(dg.add(m, n))
        if any(m) and dg.total(n) > 1:
            e = dg.unit(self.k, max(i for i, x in enumerate(n, 1) if x))
            n1 = dg.sub(n, e)
            pre_m, suf_m = self.factor_indices(m, n1)
            pre_e, suf_e = self.factor_indices(dg.add(m, n1), e)
            pre_n, suf_n = self.factor_indices(n1, e)
            inverse = np.zeros((len(self.paths(n1)), len(self.paths(e))), dtype=np.intp)
            inverse[pre_n, suf_n] = np.arange(len(pre_n))
            hit = (pre_m[pre_e], inverse[suf_m[pre_e], suf_e])
        else:
            index = {p.sort_key(): t for t, p in enumerate(paths)}
            pn, ranged = self.paths(n), self.by_range(n)
            pre, suf = [0] * len(index), [0] * len(index)
            for i, mu in enumerate(self.paths(m)):
                for j in ranged[mu.source]:
                    t = index[self._normal_form(mu.edges + pn[j].edges) or (mu.range,)]
                    pre[t], suf[t] = i, j
            hit = (np.array(pre, dtype=np.intp), np.array(suf, dtype=np.intp))
        for arr in hit:
            arr.flags.writeable = False
        self._factor[key] = hit
        return hit

    # -- predicates and set operations ------------------------------------

    def is_source_free(self) -> tuple[bool, tuple[str, int] | None]:
        """True iff every vertex receives an edge of every color."""
        for i in range(1, self.k + 1):
            ranged = {e.range for e in self._by_color[i]}
            for v in self.vertices:
                if v not in ranged:
                    return False, (v, i)
        return True, None

    def is_s_section(self, U) -> bool:
        """True iff the source map is injective on the path set U."""
        U = set(U)
        return len({p.source for p in U}) == len(U)

    def vee(self, U, V) -> tuple[Path, ...]:
        """Common extensions of U and V to degree join(m, n)."""
        U, V = list(U), list(V)
        if not U or not V:
            return ()
        for group in (U, V):
            if len({p.degree for p in group}) != 1:
                raise DegreeOutOfRange("vee requires uniform degrees within each set", group)
        m, n = U[0].degree, V[0].degree
        j = dg.join(m, n)
        extU = {
            self.compose(u, w)
            for u in U
            for w in self.paths(dg.sub(j, m))
            if w.range == u.source
        }
        extV = {
            self.compose(v, w)
            for v in V
            for w in self.paths(dg.sub(j, n))
            if w.range == v.source
        }
        return tuple(sorted(extU & extV, key=Path.sort_key))


_VALIDATED = object()


def validate_skeleton(skel: KGraphSkeleton, _cls=None, **extra) -> KGraph:
    """Check a skeleton and return the graph, or raise with a counterexample.

    Raises MalformedSkeleton for reference/arity problems, SquareNotBijective
    when some color pair's square table is not a bijection between composable
    pairs, EndpointMismatch when a square entry has inconsistent range or
    source, and HexagonViolation when (k >= 3) the two ways of reversing a
    tri-colored triple disagree.  The exception's .witness names the datum.

    _cls lets the product constructions return their KGraph subclasses while
    still going through every check here.
    """
    k = skel.k
    if k < 1:
        raise MalformedSkeleton(f"rank must be >= 1, got {k}", k)
    if not skel.vertices:
        raise MalformedSkeleton("empty vertex set", skel.vertices)
    if len(set(skel.vertices)) != len(skel.vertices):
        dup = sorted(v for v in set(skel.vertices) if list(skel.vertices).count(v) > 1)
        raise MalformedSkeleton(f"duplicate vertex ids {dup}", dup)
    vset = set(skel.vertices)
    seen = set()
    by_color: dict[int, list[Edge]] = {}  # only the colors that hold edges
    for e in skel.edges:
        if e.ident in seen:
            raise MalformedSkeleton(f"duplicate edge id {e.ident!r}", e.ident)
        seen.add(e.ident)
        if not 1 <= e.color <= k:
            raise MalformedSkeleton(f"edge {e.ident!r} has color {e.color} outside 1..{k}", e)
        if e.range not in vset or e.source not in vset:
            raise MalformedSkeleton(f"edge {e.ident!r} has a dangling endpoint", e)
        by_color.setdefault(e.color, []).append(e)
    edge = {e.ident: e for e in skel.edges}

    # square tables, one color pair at a time
    entries_by_pair: dict[tuple[int, int], dict] = {}
    for key, val in skel.squares.items():
        if len(key) != 2 or len(val) != 2:
            raise MalformedSkeleton(f"square entry {key} -> {val} has wrong arity", (key, val))
        for ident in (*key, *val):
            if ident not in edge:
                raise MalformedSkeleton(f"square references unknown edge {ident!r}", (key, val))
        e, f = edge[key[0]], edge[key[1]]
        f2, e2 = edge[val[0]], edge[val[1]]
        if not e.color < f.color:
            raise MalformedSkeleton(
                f"square key {key} is not in ascending color order", (key, val)
            )
        if (f2.color, e2.color) != (f.color, e.color):
            raise MalformedSkeleton(f"square {key} -> {val} changes colors", (key, val))
        if e.source != f.range:
            raise MalformedSkeleton(f"square key {key} is not composable", (key, val))
        if f2.source != e2.range:
            raise MalformedSkeleton(f"square value {val} is not composable", (key, val))
        if e.range != f2.range or f.source != e2.source:
            raise EndpointMismatch(
                f"square {key} -> {val} moves the endpoints", (key, val)
            )
        entries_by_pair.setdefault((e.color, f.color), {})[key] = val

    # a pair with an empty color has no composable pair and no table entry
    colors = sorted(by_color)
    for x, i in enumerate(colors):
        for j in colors[x + 1:]:
            asc = {(e.ident, f.ident) for e in by_color[i] for f in by_color[j] if e.source == f.range}
            desc = {(f.ident, e.ident) for f in by_color[j] for e in by_color[i] if f.source == e.range}
            table = entries_by_pair.get((i, j), {})
            missing = asc - set(table)
            if missing:
                w = sorted(missing)[0]
                raise SquareNotBijective(
                    f"colors ({i},{j}): composable pair {w} has no square", w
                )
            images = list(table.values())
            if len(set(images)) != len(images):
                dup = sorted(v for v in set(images) if images.count(v) > 1)[0]
                keys = sorted(kk for kk, v in table.items() if v == dup)
                raise SquareNotBijective(
                    f"colors ({i},{j}): image {dup} repeated for keys {keys}", (dup, keys)
                )
            uncovered = desc - set(images)
            if uncovered:
                w = sorted(uncovered)[0]
                raise SquareNotBijective(
                    f"colors ({i},{j}): factorization {w} is not a square image", w
                )

    if k >= 3:
        _check_hexagon(skel.squares, by_color)
    cls = _cls or KGraph
    return cls(skel, _token=_VALIDATED, **extra)


def _check_hexagon(sq: dict, by_color: dict[int, list[Edge]]) -> None:
    """Compare the two swap routes on every composable tri-colored triple,
    given the edges of each color that holds any."""

    def swap(a: str, b: str) -> tuple[str, str]:
        return sq[(a, b)]

    colors = sorted(by_color)
    for ai in range(len(colors)):
        for bi in range(ai + 1, len(colors)):
            for ci in range(bi + 1, len(colors)):
                i, j, l = colors[ai], colors[bi], colors[ci]
                for x in by_color[i]:
                    for y in by_color[j]:
                        if x.source != y.range:
                            continue
                        for z in by_color[l]:
                            if y.source != z.range:
                                continue
                            # route A: positions 23, 12, 23
                            z1, y1 = swap(y.ident, z.ident)
                            z2, x1 = swap(x.ident, z1)
                            y2, x2 = swap(x1, y1)
                            ra = (z2, y2, x2)
                            # route B: positions 12, 23, 12
                            yb, xb = swap(x.ident, y.ident)
                            zb, xb2 = swap(xb, z.ident)
                            zb2, yb2 = swap(yb, zb)
                            rb = (zb2, yb2, xb2)
                            if ra != rb:
                                raise HexagonViolation(
                                    f"triple ({x.ident},{y.ident},{z.ident}) "
                                    f"reverses to {ra} or {rb} depending on route",
                                    ((x.ident, y.ident, z.ident), ra, rb),
                                )


# -- fixtures ---------------------------------------------------------------


def fixture_f1() -> KGraph:
    """One vertex, one loop per color (k = 2), the only possible square."""
    skel = make_skeleton(
        2,
        ["*"],
        [("e", 1, "*", "*"), ("f", 2, "*", "*")],
        [(("e", "f"), ("f", "e"))],
    )
    return validate_skeleton(skel)


def fixture_f2() -> KGraph:
    """The 1-graph two-cycle: u <-a- v, v <-b- u."""
    skel = make_skeleton(1, ["u", "v"], [("a", 1, "u", "v"), ("b", 1, "v", "u")])
    return validate_skeleton(skel)


def single_vertex(k: int, loops) -> KGraph:
    """One vertex with loops[i-1] loops of color i and flip squares."""
    loops = tuple(int(x) for x in loops)
    if len(loops) != k or any(x < 1 for x in loops):
        raise UnknownFixture(f"need {k} positive loop counts, got {loops}", loops)
    edges = []
    for i in range(1, k + 1):
        for j in range(loops[i - 1]):
            edges.append((f"c{i}x{j}", i, "*", "*"))
    squares = []
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            for a in range(loops[i - 1]):
                for b in range(loops[j - 1]):
                    e, f = f"c{i}x{a}", f"c{j}x{b}"
                    squares.append(((e, f), (f, e)))
    return validate_skeleton(make_skeleton(k, ["*"], edges, squares))


def _vid(m) -> str:
    return ",".join(str(x) for x in m)


def omega(k: int, cap) -> KGraph:
    """The degree-truncated lattice graph: vertices m <= cap, one edge m -> m+e_i."""
    cap = dg.as_degree(cap, k)
    verts = list(dg.degrees_upto(cap))
    edges = []
    for m in verts:
        for i in range(1, k + 1):
            mi = dg.add(m, dg.unit(k, i))
            if dg.leq(mi, cap):
                # range m, source m+e_i: paths point toward larger lattice points
                edges.append((f"c{i}:{_vid(m)}", i, _vid(m), _vid(mi)))
    squares = []
    for m in verts:
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                mij = dg.add(m, dg.add(dg.unit(k, i), dg.unit(k, j)))
                if not dg.leq(mij, cap):
                    continue
                mi = dg.add(m, dg.unit(k, i))
                mj = dg.add(m, dg.unit(k, j))
                squares.append(
                    (
                        (f"c{i}:{_vid(m)}", f"c{j}:{_vid(mi)}"),
                        (f"c{j}:{_vid(m)}", f"c{i}:{_vid(mj)}"),
                    )
                )
    return validate_skeleton(make_skeleton(k, [_vid(m) for m in verts], edges, squares))


def builtin_fixtures(name: str, **params) -> KGraph:
    """Deterministic named fixtures."""
    if name == "f1":
        return fixture_f1()
    if name == "f2":
        return fixture_f2()
    if name == "single_vertex":
        return single_vertex(params.get("k", 2), params.get("edges", (1, 1)))
    if name == "omega":
        return omega(params["k"], params["cap"])
    raise UnknownFixture(f"no fixture named {name!r}", name)
