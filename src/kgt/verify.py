"""Registry-driven identity suites over fixtures and randomized instances.

Every identity the package claims is registered here under a stable string
id, so tests, the command line, and acceptance runs all drive the same
battery.  A suite run is deterministic given its seed: graphs, cocycles,
and per-case sampling all derive from it, and failing cases carry the seed
needed to replay them.
"""

from __future__ import annotations

import fnmatch
import time
import zlib
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import degrees as dg
from .cocycle import (
    Coboundary,
    Cocycle,
    are_cohomologous,
    bicharacter_cocycle,
    c_f,
    c_omega,
    c_sigma,
    c_theta,
    check_cocycle,
    edge_coboundary,
    pointwise_product,
    product_cocycle,
    skew_lift,
    trivial_cocycle,
)
from .constructions import (
    CrossedProductGraph,
    ZlAction,
    cartesian,
    crossed_product,
    cyclic_group,
    identity_action,
    skew_product,
)
from .errors import GenerationExhausted, KgtError, NotSectionDecomposable, UnknownCheck
from .fock import (
    FockSpace,
    ck_relations_check,
    cp_identity_check,
    gauge_check,
    nica_check,
    psi_check,
    rep_axioms_check,
    zeta_surjectivity_check,
)
from .kgraph import KGraph, Path, fixture_f1, fixture_f2, make_skeleton, omega, validate_skeleton
from .phases import Phase
from .xmod import (
    XElem,
    XOp,
    arrays_close,
    compare,
    phi_x,
    phi_x_decompose,
    x_act,
    x_compact_align,
    x_inner,
    x_iota,
    x_tensor_iso_check,
    x_theta,
    x_tmul,
)
from .ymod import (
    CylElem,
    YOp,
    alpha,
    alpha_decompose,
    alpha_k,
    cylinder_density_check,
    phi_y,
    phi_y_decompose,
    shift_pullback,
    sup_norm_check,
    y_inner,
    y_iota,
    y_lift,
    y_theta,
    y_tmul,
)

# -- configuration and result types ------------------------------------------


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 0
    graphs: int = 25
    cocycles: int = 4
    degree_entry_cap: int = 2
    pairs: int = 4
    tolerance: float = 1e-9
    include_fixtures: bool = True
    include_random: bool = True


DEFAULT_CONFIG = SuiteConfig()


@dataclass(frozen=True)
class CheckCase:
    check_id: str
    subject: str
    seed: int


@dataclass(frozen=True)
class Skip:
    """What a check returns when its instance leaves it nothing to check."""

    reason: str


@dataclass
class CaseResult:
    case: CheckCase
    status: str  # "pass" | "fail" | "skipped"
    witness: object = None
    reason: str = ""
    millis: float = 0.0

    def to_dict(self) -> dict:
        out = {
            "id": self.case.check_id,
            "subject": self.case.subject,
            "seed": self.case.seed,
            "status": self.status,
            "millis": round(self.millis, 3),
        }
        if self.witness is not None:
            out["witness"] = repr(self.witness)
        if self.reason:
            out["reason"] = self.reason
        return out


@dataclass
class Report:
    suite: str
    results: list
    config: SuiteConfig
    millis: float = 0.0

    @property
    def ok(self) -> bool:
        return all(r.status != "fail" for r in self.results)

    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "skipped": 0}
        for r in self.results:
            out[r.status] += 1
        return out

    def failures(self) -> list:
        return [r for r in self.results if r.status == "fail"]

    def summary(self) -> str:
        c = self.counts()
        lines = [
            f"suite {self.suite!r}: {c['pass']} passed, {c['fail']} failed, "
            f"{c['skipped']} skipped in {self.millis / 1000:.2f}s"
        ]
        for r in self.failures():
            lines.append(
                f"  FAIL {r.case.check_id} on {r.case.subject} "
                f"(seed {r.case.seed}): {r.witness!r}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "cases": [r.to_dict() for r in self.results],
            "config": {
                "seed": self.config.seed,
                "graphs": self.config.graphs,
                "cocycles": self.config.cocycles,
                "degree_entry_cap": self.config.degree_entry_cap,
                "tolerance": self.config.tolerance,
            },
            "millis": round(self.millis, 3),
        }


@dataclass
class Instance:
    """One subject a check runs against."""

    label: str
    graph: KGraph | None
    cocycle: Cocycle | None
    is_fixture: bool = True


# -- random generators -------------------------------------------------------


def _circulant_skeleton(M: int, shifts, rng):
    """Vertices Z_M; the t-th color-i edge at p runs from p+shift back to p.

    Square pairs are endpoint-compatible iff their shift sums agree, so the
    pairing is sampled (or, with rng None, taken index-preserving) within
    each constant-sum group.
    """
    k = len(shifts)
    verts = [f"v{p}" for p in range(M)]

    def eid(i, t, p):
        return f"c{i}t{t}v{p}"

    edges = []
    for i in range(1, k + 1):
        for t, s in enumerate(shifts[i - 1]):
            for p in range(M):
                edges.append((eid(i, t, p), i, f"v{p}", f"v{(p + s) % M}"))

    squares = []
    for i in range(1, k + 1):
        si = shifts[i - 1]
        for j in range(i + 1, k + 1):
            sj = shifts[j - 1]
            for p in range(M):
                groups: dict[int, list] = {}
                for t, a in enumerate(si):
                    for u, b in enumerate(sj):
                        groups.setdefault((a + b) % M, []).append((t, u))
                for members in groups.values():
                    targets = list(members)
                    if rng is not None:
                        targets = [targets[x] for x in rng.permutation(len(targets))]
                    for (t, u), (t2, u2) in zip(members, targets):
                        e = eid(i, t, p)
                        f = eid(j, u, (p + si[t]) % M)
                        f2 = eid(j, u2, p)
                        e2 = eid(i, t2, (p + sj[u2]) % M)
                        squares.append(((e, f), (f2, e2)))
    return make_skeleton(k, verts, edges, squares)


_SKELETON_ATTEMPTS = 24  # square pairings tried per shift set; the last is the canonical one


def random_kgraph(seed, k: int = 2, max_vertices: int = 3, max_shifts: int = 2) -> KGraph:
    """A random circulant k-colored graph that always passes validation.

    Every vertex is the range of an edge of every color, so the output has no
    sources.  For rank >= 3 a randomly paired square table usually violates
    associativity; the generator retries, then falls back to the
    index-preserving pairing (the product-type table, always consistent),
    shrinking the parallel edge counts if even that is rejected.
    """
    if k < 1 or max_vertices < 1 or max_shifts < 1:
        raise GenerationExhausted(
            "size bounds leave nothing to generate", (k, max_vertices, max_shifts)
        )
    rng = np.random.default_rng(seed)
    M = int(rng.integers(1, max_vertices + 1))
    mult = [int(rng.integers(1, max_shifts + 1)) for _ in range(k)]
    shifts = [[int(rng.integers(0, M)) for _ in range(mult[i])] for i in range(k)]

    while True:
        for attempt in range(_SKELETON_ATTEMPTS):
            sampled = attempt < _SKELETON_ATTEMPTS - 1  # last try uses the canonical pairing
            skel = _circulant_skeleton(M, shifts, rng if sampled else None)
            try:
                return validate_skeleton(skel)
            except KgtError:
                continue
        if all(len(s) == 1 for s in shifts):
            raise GenerationExhausted(
                "no valid skeleton within the attempt budget", (M, shifts)
            )
        shifts = [s[:1] for s in shifts]


_TURN_DENOMS = (2, 3, 4, 6, 8)


def _random_coboundary(rng, g: KGraph) -> Coboundary:
    """A path function with a random quadratic degree form, plus random edge
    phases when there are no squares.

    The boundary of a quadratic form is nontrivial, and this class stays
    inside what the propagation in `are_cohomologous` can reconstruct: with
    squares present, independent edge phases generically over-determine the
    relation graph, so they are only sampled at rank one.
    """
    label = {}
    for e in g.all_edges:
        if g.k == 1:
            q = int(_TURN_DENOMS[int(rng.integers(0, len(_TURN_DENOMS)))])
            label[e.ident] = Phase.from_turns(Fraction(int(rng.integers(0, q)), q))
        else:
            label[e.ident] = Phase.one()
    quad = [[int(rng.integers(0, 4)) for _ in range(g.k)] for _ in range(g.k)]
    if not any(x for row in quad for x in row):
        quad[0][0] = 1
    form = [[Phase.from_turns(Fraction(x, 8)) for x in row] for row in quad]
    return edge_coboundary(g, label, form, "rand-b")


def _random_bicharacter(rng, g: KGraph) -> Cocycle:
    mat = []
    for _ in range(g.k):
        row = []
        for _ in range(g.k):
            q = int(_TURN_DENOMS[int(rng.integers(0, len(_TURN_DENOMS)))])
            row.append(Phase.from_turns(Fraction(int(rng.integers(0, q)), q)))
        mat.append(row)
    return bicharacter_cocycle(g, mat)


def _sample_cocycle(rng, g: KGraph, depth: int) -> Cocycle:
    kinds = 4 if depth > 0 else 3
    kind = int(rng.integers(0, kinds))
    if kind == 0:
        return trivial_cocycle(g)
    if kind == 1:
        return _random_bicharacter(rng, g)
    if kind == 2:
        return _random_coboundary(rng, g).delta()
    c1 = _sample_cocycle(rng, g, depth - 1)
    c2 = _sample_cocycle(rng, g, depth - 1)
    return pointwise_product(c1, c2)


def random_cocycle(seed, g: KGraph) -> Cocycle:
    """Deterministic sample from the exact families on g.

    Kinds: the flat cocycle, degree bicharacters, boundaries of random path
    functions, and pointwise products of those.  All are exact and defined on
    every composable pair.
    """
    rng = np.random.default_rng(seed)
    c = _sample_cocycle(rng, g, depth=1)
    c.name = f"random[{seed}]:{c.name}"
    return c


# -- default instance battery ------------------------------------------------


def _swap_action(g: KGraph) -> ZlAction:
    """The order-two symmetry of the two-cycle graph."""
    return ZlAction(g, ({"u": "v", "v": "u"},), ({"a": "b", "b": "a"},))


def builtin_suite_graphs():
    """Named deterministic graphs: the two standing fixtures, the truncated
    lattice, and one product of each kind."""
    f1, f2 = fixture_f1(), fixture_f2()
    return [
        ("F1", f1),
        ("F2", f2),
        ("omega2", omega(2, (2, 2))),
        ("cartesian(F2,F2)", cartesian(f2, f2)),
        ("skew(F2,Z2)", skew_product(f2, cyclic_group(2), {"a": "1", "b": "0"})),
        ("crossed(F2,swap)", crossed_product(f2, _swap_action(f2))),
    ]


def _fixture_cocycles(label: str, g: KGraph, cfg: SuiteConfig):
    out = [trivial_cocycle(g)]
    if isinstance(g, CrossedProductGraph):
        out.append(c_sigma(g, [[Phase.from_turns(Fraction(1, 8))]]))
    elif g.k >= 2:
        out.append(c_theta(g, Phase.from_turns(Fraction(1, 8))))
    else:
        out.append(bicharacter_cocycle(g, [[Phase.from_turns(Fraction(1, 3))]]))
    rng = np.random.default_rng([cfg.seed, zlib.crc32(label.encode())])
    out.append(_random_coboundary(rng, g).delta())
    return out


def default_instances(cfg: SuiteConfig) -> list:
    out = []
    if cfg.include_fixtures:
        for label, g in builtin_suite_graphs():
            for c in _fixture_cocycles(label, g, cfg):
                out.append(Instance(f"{label}/{c.name}", g, c, True))
    if cfg.include_random:
        ks = (2, 1, 3)
        for i in range(cfg.graphs):
            k = ks[i % len(ks)]
            gseed = cfg.seed * 10007 + i
            g = random_kgraph(gseed, k=k, max_vertices=2 if k >= 3 else 3)
            for j in range(cfg.cocycles):
                c = random_cocycle(gseed * 53 + j, g)
                out.append(Instance(f"g{i}[k={k},seed={gseed}]/{c.name}", g, c, False))
    return out


# -- registry ----------------------------------------------------------------


@dataclass(frozen=True)
class CheckDef:
    check_id: str
    summary: str
    needs: str  # "graph" | "pair" | "builtin"
    source_free_only: bool = False
    run: object = None


# The ids below are the stable public names used by suite selectors and the
# command line; treat them as opaque keys.  A check returns None when its
# identity holds, a Skip when the instance leaves it nothing to check, and a
# witness otherwise.
REGISTRY: dict[str, CheckDef] = {}


def _register(check_id: str, summary: str, needs: str, source_free_only: bool = False):
    def deco(fn):
        REGISTRY[check_id] = CheckDef(check_id, summary, needs, source_free_only, fn)
        return fn

    return deco


# -- shared sampling helpers -------------------------------------------------


def _cap(g: KGraph, cfg: SuiteConfig):
    per_color = min(cfg.degree_entry_cap, 1) if g.k >= 3 else cfg.degree_entry_cap
    return (per_color,) * g.k


def _unit_cap(g: KGraph, cfg: SuiteConfig):
    return tuple(min(1, x) for x in _cap(g, cfg))


def _degree_pairs(g: KGraph, cfg: SuiteConfig, rng):
    ds = dg.degrees_upto(_unit_cap(g, cfg))
    pairs = [(m, n) for m in ds for n in ds]
    if len(pairs) > cfg.pairs:
        idx = rng.choice(len(pairs), size=cfg.pairs, replace=False)
        pairs = [pairs[int(i)] for i in idx]
        if g.k >= 2:
            e1, e2 = dg.unit(g.k, 1), dg.unit(g.k, 2)
            if (e1, e2) not in pairs:
                pairs[0] = (e1, e2)
    return pairs


def _some_degrees(g: KGraph, cfg: SuiteConfig, rng, count=3):
    ds = list(dg.degrees_upto(_cap(g, cfg)))
    if len(ds) <= count:
        return ds
    idx = rng.choice(len(ds) - 1, size=count - 1, replace=False)
    return [ds[-1]] + [ds[int(i)] for i in idx]


def _rand_xelem(g: KGraph, n, rng) -> XElem:
    size = len(g.paths(n))
    return XElem(g, n, rng.normal(size=size) + 1j * rng.normal(size=size))


def _rand_section_elem(g: KGraph, n, rng) -> XElem:
    """Random coefficients supported on at most one path per source vertex."""
    coeffs = np.zeros(len(g.paths(n)), dtype=np.complex128)
    picked = False
    for v, ix in g.by_source(n).items():
        if ix and rng.random() < 0.85:
            coeffs[ix[int(rng.integers(0, len(ix)))]] = rng.normal() + 1j * rng.normal()
            picked = True
    if not picked:
        for v, ix in g.by_source(n).items():
            if ix:
                coeffs[ix[0]] = 1.0
                break
    return XElem(g, n, coeffs)


def _section_paths(g: KGraph, n, rng):
    out = []
    for v, ix in g.by_source(n).items():
        if ix and rng.random() < 0.85:
            out.append(g.paths(n)[ix[int(rng.integers(0, len(ix)))]])
    if not out:
        for v, ix in g.by_source(n).items():
            if ix:
                out.append(g.paths(n)[ix[0]])
                break
    return out


def _rand_xop(g: KGraph, n, rng, elem=_rand_xelem) -> XOp:
    """A sum of two rank-one compacts Theta(f, h), f and h drawn by `elem`."""
    S = XOp.zeros(g, n)
    for _ in range(2):
        S = S + x_theta(elem(g, n, rng), elem(g, n, rng))
    return S


def _rand_cyl(g: KGraph, n, depth, rng) -> CylElem:
    size = len(g.paths(depth))
    return CylElem(g, n, depth, rng.normal(size=size) + 1j * rng.normal(size=size))


def _fock_caps(g: KGraph, cfg: SuiteConfig, inst: Instance):
    """Truncation degree and cylinder depth for the instance's operator model."""
    cap = _cap(g, cfg)
    if inst.is_fixture and g.k <= 2 and not isinstance(g, CrossedProductGraph):
        N = tuple(min(2, x) for x in cap)
    else:
        N = tuple(min(1, x) for x in cap)
    margin = 1 if g.k <= 2 else 0  # one extra cylinder level at rank <= 2
    return N, dg.add(N, (margin,) * g.k)


def _composable_pairs(g: KGraph, cap):
    """Every (la, mu) with s(la) = r(mu) and degrees <= cap, degree pair by
    degree pair in graded lex order, then in path order."""
    ds = dg.degrees_upto(cap)
    for d1 in ds:
        for d2 in ds:
            for la in g.paths(d1):
                for mu in g.paths(d2):
                    if la.source == mu.range:
                        yield la, mu


def _reassembles(c: Cocycle, f: XElem, n, dec, tol) -> bool:
    """(R) alpha(n, m, f) = sum_i alpha(xi_i) . alpha_0(f_tilde) in Y_n, for
    the split `dec` of f at n."""
    g, m = f.graph, f.degree
    tail = alpha(dg.zero(g.k), dg.sub(m, n), dec.f_tilde)
    rhs = CylElem.zeros(g, n, m)
    for xi in dec.xi:
        rhs = rhs + y_tmul(c, alpha(n, n, xi), tail)
    return alpha(n, m, f).close(rhs, tol)


def _tail_acts_as_compacts(dec, tol) -> bool:
    """(T) phi_Y(alpha_0(f_tilde)) = sum_j Theta(alpha(f_tilde), alpha(eta_j))
    on Y_p, p = d(f_tilde), for a split `dec`."""
    ft = dec.f_tilde
    g, p = ft.graph, ft.degree
    right = YOp.zeros(g, p, p)
    for eta in dec.eta:
        right = right + y_theta(alpha(p, p, ft), alpha(p, p, eta))
    return phi_y(alpha(dg.zero(g.k), p, ft), p).close(right, tol)


# -- structural checks -------------------------------------------------------


@_register(
    "def-3.1",
    "composition and splitting are mutually inverse with matching degrees and endpoints",
    "graph",
)
def _chk_factorization(inst, cfg, rng):
    g = inst.graph
    for total in dg.degrees_upto(_cap(g, cfg)):
        for la in g.paths(total):
            for m, n in dg.splits(total, 2):
                mu, nu = g.split(la, m)
                if mu.degree != m or nu.degree != n:
                    return ("split-degrees", la, m)
                if mu.range != la.range or nu.source != la.source or mu.source != nu.range:
                    return ("split-endpoints", la, m)
                if g.compose(mu, nu) != la:
                    return ("compose-of-split", la, m)
    return None


@_register(
    "def-source-free",
    "the no-sources predicate and unit fiber counts match an edge scan; generated graphs have no sources",
    "graph",
)
def _chk_source_free(inst, cfg, rng):
    g = inst.graph
    ok, wit = g.is_source_free()
    scan = Counter((e.range, e.color) for e in g.all_edges)
    brute = all(scan[(v, i)] for v in g.vertices for i in range(1, g.k + 1))
    if ok != brute:
        return ("predicate-vs-scan", ok, brute)
    if not inst.is_fixture and not ok:
        return ("generated-graph-has-a-source", wit)
    for i in range(1, g.k + 1):
        n = dg.unit(g.k, i)
        for v in g.vertices:
            if len(g.by_range(n)[v]) != scan[(v, i)]:
                return ("fiber-count", v, n)
    return None


@_register(
    "lemma-segment-maps",
    "middle segments have the right degree and nest: a segment of a segment is a segment",
    "graph",
)
def _chk_segments(inst, cfg, rng):
    g = inst.graph
    for d in _some_degrees(g, cfg, rng):
        paths = g.paths(d)
        if not paths:
            continue
        for la in (paths[int(i)] for i in rng.integers(0, len(paths), size=3)):
            for m, rest in dg.splits(d, 2):
                for p, _ in dg.splits(m, 2):
                    seg = g.segment(la, p, m)
                    if seg.degree != dg.sub(m, p):
                        return ("segment-degree", la, (p, m))
                    via_split = g.split(g.split(la, m)[0], p)[1]
                    if seg != via_split:
                        return ("segment-vs-split", la, (p, m))
                    if any(seg.degree):
                        inner = g.segment(seg, dg.zero(g.k), seg.degree)
                        if inner != seg:
                            return ("segment-idempotent", la, (p, m))
    return None


@_register(
    "lemma-prefix-maps",
    "prefix fibers are counted by extensions from the prefix's source",
    "graph",
)
def _chk_prefixes(inst, cfg, rng):
    g = inst.graph
    for d in _some_degrees(g, cfg, rng):
        for m, rest in dg.splits(d, 2):
            pre_counts = np.bincount(g.factor_indices(m, rest)[0], minlength=len(g.paths(m)))
            for i, mu in enumerate(g.paths(m)):
                if pre_counts[i] != len(g.by_range(rest)[mu.source]):
                    return ("prefix-fiber", mu, rest)
            for p, _ in dg.splits(m, 2):
                for la in g.paths(d)[:6]:
                    if g.split(g.split(la, m)[0], p)[0] != g.split(la, p)[0]:
                        return ("prefix-tower", la, (p, m))
    return None


@_register(
    "prop-shift-maps",
    "pulling a function back along the shift reads the right middle segment, and shifts compose",
    "graph",
)
def _chk_shifts(inst, cfg, rng):
    g = inst.graph
    cap = _unit_cap(g, cfg)
    for q in dg.degrees_upto(cap):
        h = _rand_cyl(g, dg.zero(g.k), q, rng)
        hidx = g.path_index(q)
        for i in range(1, g.k + 1):
            p = dg.unit(g.k, i)
            sh, paths = shift_pullback(h, p), g.paths(dg.add(p, q))
            want = [h.coeffs[hidx[g.segment(la, p, dg.add(p, q))]] for la in paths]
            bad = np.flatnonzero(~compare(sh.coeffs, want, cfg.tolerance).ok)
            if bad.size:
                return ("shift-segment", paths[bad[0]], p)
            again = shift_pullback(sh, p)
            direct = shift_pullback(h, dg.add(p, p))
            if not again.close(direct, cfg.tolerance):
                return ("shift-composition", p, q)
    return None


@_register(
    "def-cylinder-sets",
    "the dimension of functions on a cylinder union matches the extension count",
    "graph",
)
def _chk_cylinders(inst, cfg, rng):
    g = inst.graph
    for m in dg.degrees_upto(_unit_cap(g, cfg)):
        U = _section_paths(g, m, rng)
        if not U:
            continue
        for i in range(1, g.k + 1):
            depth = dg.add(m, dg.unit(g.k, i))
            rep = cylinder_density_check(g, U, depth)
            if not rep.ok:
                return rep.first_failure
        clash = [p for v, ix in g.by_source(m).items() if len(ix) >= 2 for p in (g.paths(m)[ix[0]], g.paths(m)[ix[1]])]
        if clash:
            rep = cylinder_density_check(g, clash[:2], m)
            if rep.ok:
                return ("section-clash-not-rejected", tuple(clash[:2]))
    return None


@_register(
    "lemma-3.12",
    "single paths are sections and their point masses always split into section data",
    "pair",
)
def _chk_point_sections(inst, cfg, rng):
    g, c = inst.graph, inst.cocycle
    for m in _some_degrees(g, cfg, rng, count=2):
        paths = g.paths(m)
        if not paths:
            continue
        for la in (paths[int(i)] for i in rng.integers(0, len(paths), size=2)):
            if not g.is_s_section([la]):
                return ("singleton-not-a-section", la)
            f = XElem.delta(g, la)
            for n in dg.degrees_upto(m)[:: max(1, len(dg.degrees_upto(m)) // 3)]:
                try:
                    dec = alpha_decompose(f, n)
                except NotSectionDecomposable as e:
                    return ("point-mass-rejected", la, str(e))
                if not _reassembles(c, f, n, dec, cfg.tolerance):
                    return ("reassembly", la, n)
                if not _tail_acts_as_compacts(dec, cfg.tolerance):
                    return ("tail-compacts", la, n)
    return None


@_register(
    "def-u-join-v",
    "common extensions computed by composing match a prefix filter at the join degree",
    "graph",
)
def _chk_vee(inst, cfg, rng):
    g = inst.graph
    ds = dg.degrees_upto(_unit_cap(g, cfg))
    for _ in range(3):
        m = ds[int(rng.integers(0, len(ds)))]
        n = ds[int(rng.integers(0, len(ds)))]
        pm, pn = g.paths(m), g.paths(n)
        if not pm or not pn:
            continue
        U = sorted({pm[int(i)] for i in rng.integers(0, len(pm), size=2)}, key=Path.sort_key)
        V = sorted({pn[int(i)] for i in rng.integers(0, len(pn), size=2)}, key=Path.sort_key)
        j = dg.join(m, n)
        Uset, Vset = set(U), set(V)
        brute = tuple(
            sorted(
                (
                    la
                    for la in g.paths(j)
                    if g.split(la, m)[0] in Uset and g.split(la, n)[0] in Vset
                ),
                key=Path.sort_key,
            )
        )
        if g.vee(U, V) != brute:
            return ("vee-vs-prefix-filter", (m, n))
    return None


# -- cocycle family checks ---------------------------------------------------


@_register(
    "def-cocycle-c1c2",
    "the associativity law holds on every composable triple in the window; the unit law holds by construction",
    "pair",
)
def _chk_cocycle_laws(inst, cfg, rng):
    g, c = inst.graph, inst.cocycle
    cap = list(_cap(g, cfg))
    while sum(cap) < 3:  # room for a triple with three nonzero parts
        cap[0] += 1
    return check_cocycle(c, tuple(cap), tol=cfg.tolerance).first_failure


def _swapped_f2() -> CrossedProductGraph:
    """F2 ×_β Z, with Z acting by the swap symmetry of F2."""
    f2 = fixture_f2()
    return crossed_product(f2, _swap_action(f2))


def _closed_form(c: Cocycle, cfg: SuiteConfig, pair_cap, want, label: str):
    """The cocycle laws of c on the window, then c(la, mu) == want(la, mu)
    exactly on every composable pair up to pair_cap; None or a witness
    (label, la, mu)."""
    rep = check_cocycle(c, _cap(c.graph, cfg))
    if not rep.ok:
        return rep.first_failure
    for la, mu in _composable_pairs(c.graph, pair_cap):
        if not c(la, mu).close(want(la, mu), 0.0):
            return (label, la, mu)
    return None


@_register(
    "eq-c-f",
    "the functor-counting twist matches its closed form and passes the pair/triple laws",
    "builtin",
)
def _chk_c_f(inst, cfg, rng):
    gamma = _swapped_f2()
    half = Phase.from_turns(Fraction(1, 2))
    table = {"a": half, "b": half}

    def want(la, mu):
        _, m = gamma.project(la)
        nu, _ = gamma.project(mu)
        out = Phase.one()
        for e in nu.edges:
            out = out * table[e] ** dg.total(m)
        return out

    return _closed_form(c_f(gamma, table), cfg, (1, 1), want, "closed-form")


@_register(
    "eq-c-omega",
    "the lattice-character twist matches its closed form and passes the pair/triple laws",
    "builtin",
)
def _chk_c_omega(inst, cfg, rng):
    gamma = _swapped_f2()
    w = Phase.from_turns(Fraction(1, 3))

    def want(la, mu):
        _, m = gamma.project(la)
        nu, _ = gamma.project(mu)
        return (w ** int(m[0])) ** dg.total(nu.degree)

    return _closed_form(c_omega(gamma, [w]), cfg, (1, 1), want, "closed-form")


@_register(
    "eq-c-sigma",
    "the lattice-coordinate twist matches its exponent form and passes the pair/triple laws",
    "builtin",
)
def _chk_c_sigma(inst, cfg, rng):
    gamma = _swapped_f2()
    th = Phase.from_turns(Fraction(1, 8))
    kb = gamma.base.k
    want = lambda la, mu: th ** (la.degree[kb] * mu.degree[kb])
    return _closed_form(c_sigma(gamma, [[th]]), cfg, (1, 2), want, "exponent-form")


@_register(
    "eq-skew-lift",
    "lifting through a skew projection preserves values and the cocycle laws",
    "builtin",
)
def _chk_skew_lift(inst, cfg, rng):
    f2 = fixture_f2()
    base_c = bicharacter_cocycle(f2, [[Phase.from_turns(Fraction(1, 3))]])
    skew = skew_product(f2, cyclic_group(2), {"a": "1", "b": "0"})
    want = lambda la, mu: base_c(skew.project(la)[0], skew.project(mu)[0])
    return _closed_form(skew_lift(base_c, skew), cfg, (2,), want, "projection-value")


@_register(
    "eq-product-cocycle",
    "the factorwise product on a product graph evaluates factor by factor",
    "builtin",
)
def _chk_product_cocycle(inst, cfg, rng):
    f2 = fixture_f2()
    prod = cartesian(f2, f2)
    c1 = bicharacter_cocycle(f2, [[Phase.from_turns(Fraction(1, 3))]])
    c2 = bicharacter_cocycle(f2, [[Phase.from_turns(Fraction(1, 5))]])

    def want(la, mu):
        (l1, l2), (m1, m2) = prod.project(la), prod.project(mu)
        return c1(l1, m1) * c2(l2, m2)

    return _closed_form(product_cocycle(c1, c2, prod), cfg, (1, 1), want, "factorwise-value")


@_register(
    "def-coboundary",
    "boundaries of path functions are exact cocycles and are recognized as trivial up to coboundary",
    "graph",
)
def _chk_coboundary(inst, cfg, rng):
    g = inst.graph
    b = _random_coboundary(rng, g)
    c = b.delta()
    cap = _cap(g, cfg)
    rep = check_cocycle(c, cap)
    if not rep.ok:
        return rep.first_failure
    solved = are_cohomologous(c, trivial_cocycle(g), cap)
    if not isinstance(solved, Coboundary):
        return ("not-recognized-as-coboundary", solved)
    return None


@_register(
    "eq-crossed-product-graph",
    "composition in an adjoined-lattice graph applies the action to the second factor",
    "builtin",
)
def _chk_crossed(inst, cfg, rng):
    f2 = fixture_f2()
    for act in (_swap_action(f2), identity_action(f2)):
        gamma = crossed_product(f2, act)
        kb = f2.k
        for la, mu in _composable_pairs(gamma, (1, 1)):
            p1, m1 = gamma.project(la)
            p2, _ = gamma.project(mu)
            moved = [act.edge(1, e, power=int(m1[0])) for e in p2.edges]
            shifted = (
                f2.path_from_edges(moved)
                if moved
                else f2.vertex_path(act.vertex(1, p2.range, power=int(m1[0])))
            )
            got_base, got_m = gamma.project(gamma.compose(la, mu))
            want_base = f2.compose(p1, shifted)
            if got_base != want_base or got_m != dg.add(la.degree, mu.degree)[kb:]:
                return ("composition-law", la, mu)
        for d in dg.degrees_upto((2, 2)):
            if len(gamma.paths(d)) != len(f2.paths(d[:kb])):
                return ("path-count", d)
    return None


@_register(
    "def-skew-product",
    "group-labelled graphs have product vertex sets and sources shifted by the label functor",
    "builtin",
)
def _chk_skew(inst, cfg, rng):
    f2 = fixture_f2()
    grp = cyclic_group(2)
    labels = {"a": "1", "b": "0"}
    skew = skew_product(f2, grp, labels)
    if len(skew.vertices) != len(f2.vertices) * 2:
        return ("vertex-count", len(skew.vertices))
    for d in dg.degrees_upto((2,)):
        if len(skew.paths(d)) != len(f2.paths(d)) * 2:
            return ("path-count", d)
        for la in skew.paths(d):
            p, a = skew.project(la)
            shift = a
            for e in p.edges:
                shift = grp.mul(shift, labels[e])
            _, src_group = skew.project(skew.vertex_path(la.source))
            if src_group != shift:
                return ("source-shift", la)
    return None


@_register(
    "def-cartesian-product",
    "product graphs have multiplicative path counts and componentwise composition",
    "builtin",
)
def _chk_cartesian(inst, cfg, rng):
    f1, f2 = fixture_f1(), fixture_f2()
    for g1, g2, cap in ((f2, f2, (1, 1)), (f1, f2, (1, 1, 1))):
        prod = cartesian(g1, g2)
        k1 = g1.k
        for d in dg.degrees_upto(cap):
            if len(prod.paths(d)) != len(g1.paths(d[:k1])) * len(g2.paths(d[k1:])):
                return ("path-count", d)
        for d1 in dg.degrees_upto(cap):
            for d2 in dg.degrees_upto(cap):
                for la in prod.paths(d1)[:3]:
                    for mu in prod.paths(d2)[:3]:
                        if la.source != mu.range:
                            continue
                        l1, l2 = prod.project(la)
                        m1, m2 = prod.project(mu)
                        w1, w2 = prod.project(prod.compose(la, mu))
                        if w1 != g1.compose(l1, m1) or w2 != g2.compose(l2, m2):
                            return ("componentwise-composition", la, mu)
    return None


# -- correspondence checks ---------------------------------------------------


@_register(
    "eq-katsura-inner-product",
    "the fiberwise inner product matches a direct source-grouped sum and is positive",
    "graph",
)
def _chk_inner(inst, cfg, rng):
    g = inst.graph
    for n in _some_degrees(g, cfg, rng, count=2):
        f = _rand_xelem(g, n, rng)
        h = _rand_xelem(g, n, rng)
        got = x_inner(f, h)
        brute = {v: 0.0 + 0.0j for v in g.vertices}
        for la, a, b in zip(g.paths(n), f.coeffs, h.coeffs):
            brute[la.source] += np.conj(a) * b
        bad = np.flatnonzero(~compare(got.coeffs, [brute[v] for v in g.vertices], cfg.tolerance).ok)
        if bad.size:
            return ("direct-sum", g.vertices[bad[0]], n)
        self_inner = x_inner(f, f).coeffs  # real and at least -tolerance
        if not arrays_close([self_inner.imag, np.minimum(self_inner.real, 0)], 0, cfg.tolerance):
            return ("positivity", n)
        if not x_inner(h, f).close(got.conj(), cfg.tolerance):
            return ("conjugate-symmetry", n)
        a = _rand_xelem(g, dg.zero(g.k), rng)
        lhs = x_inner(f, x_act(a, h, side="right"))
        rhs = XElem(g, a.degree, got.coeffs * a.coeffs)
        if not lhs.close(rhs, cfg.tolerance):
            return ("right-linearity", n)
    return None


@_register(
    "cor-2.5",
    "rank-one operators act, multiply, and adjoint as expected and span the source blocks",
    "graph",
)
def _chk_rank_ones(inst, cfg, rng):
    g = inst.graph
    tol = cfg.tolerance
    for n in _some_degrees(g, cfg, rng, count=2):
        f, p = _rand_xelem(g, n, rng), _rand_xelem(g, n, rng)
        h, q = _rand_xelem(g, n, rng), _rand_xelem(g, n, rng)
        if not x_theta(f, p)(h).close(x_act(x_inner(p, h), f, side="right"), tol):
            return ("rank-one-action", n)
        lhs = x_theta(f, p) @ x_theta(h, q)
        rhs = x_theta(x_act(x_inner(p, h), f, side="right"), q)
        if not lhs.close(rhs, tol):
            return ("rank-one-product", n)
        if not x_theta(f, p).adjoint().close(x_theta(p, f), tol):
            return ("rank-one-adjoint", n)
        paths = g.paths(n)
        sources = np.array([z.source for z in paths])
        mat = rng.normal(size=(len(paths), len(paths))) + 0j
        mat[sources[:, None] != sources[None, :]] = 0.0
        S = XOp(g, n, mat)
        T = XOp.zeros(g, n)
        for i, j in zip(*np.nonzero(mat)):
            T = T + mat[i, j] * x_theta(XElem.delta(g, paths[i]), XElem.delta(g, paths[j]))
        if not T.close(S, tol):
            return ("span", n)
    return None


@_register(
    "lemma-edge-correspondences",
    "each color's edge fiber carries the edge-set inner product and range action",
    "graph",
)
def _chk_edge_fibers(inst, cfg, rng):
    g = inst.graph
    for i in range(1, g.k + 1):
        n = dg.unit(g.k, i)
        paths = g.paths(n)
        if {p.edges[0] for p in paths} != {e.ident for e in g.edges(i)}:
            return ("edge-fiber-mismatch", i)
        a = _rand_xelem(g, dg.zero(g.k), rng)
        at_range = [a(g.vertex_path(p.range)) for p in paths]
        bad = np.flatnonzero(~compare(np.diag(phi_x(a, n).matrix), at_range, cfg.tolerance).ok)
        if bad.size:
            return ("range-action", paths[bad[0]])
        if paths:
            e0 = XElem.delta(g, paths[0])
            want = XElem.delta(g, g.vertex_path(paths[0].source))
            if not x_inner(e0, e0).close(want, cfg.tolerance):
                return ("edge-inner", paths[0])
    return None


@_register(
    "prop-4.1",
    "the graded product on path functions matches its pointwise formula and is associative",
    "pair",
)
def _chk_x_product(inst, cfg, rng):
    g, c = inst.graph, inst.cocycle
    for m, n in _degree_pairs(g, cfg, rng):
        f = _rand_xelem(g, m, rng)
        h = _rand_xelem(g, n, rng)
        prod = x_tmul(c, f, h)
        tw, paths = c.twist(m, n).values, g.paths(dg.add(m, n))
        want = [tw[i] * f(mu) * h(nu) for i, (mu, nu) in enumerate(g.split(la, m) for la in paths)]
        bad = np.flatnonzero(~compare(prod.coeffs, want, cfg.tolerance).ok)
        if bad.size:
            return ("pointwise-formula", paths[bad[0]], (m, n))
        p = _rand_xelem(g, _unit_cap(g, cfg), rng)
        left = x_tmul(c, x_tmul(c, f, h), p)
        right = x_tmul(c, f, x_tmul(c, h, p))
        # ×10: a triple product of N(0, 1) coefficients rounds further than
        # the base tolerance allows at 1e-14 (seed 7919, cap 1)
        if not left.close(right, cfg.tolerance * 10):
            return ("associativity", (m, n))
    m, n = _degree_pairs(g, cfg, rng)[0]
    return x_tensor_iso_check(inst.cocycle, m, n, tol=cfg.tolerance).first_failure


@_register(
    "prop-4.2",
    "the graded product on cylinder functions matches its segment formula at every depth",
    "pair",
)
def _chk_y_product(inst, cfg, rng):
    g, c = inst.graph, inst.cocycle
    for m, n in _degree_pairs(g, cfg, rng)[:3]:
        f = _rand_cyl(g, m, m, rng)
        h = _rand_cyl(g, n, n, rng)
        prod = y_tmul(c, f, h)
        fidx, hidx = g.path_index(f.depth), g.path_index(h.depth)
        tw, mnidx, paths = c.twist(m, n).values, g.path_index(dg.add(m, n)), g.paths(prod.depth)
        want = [
            tw[mnidx[g.compose(g.split(la, m)[0], g.segment(la, m, dg.add(m, n)))]]
            * f.coeffs[fidx[g.split(la, f.depth)[0]]]
            * h.coeffs[hidx[g.segment(la, m, dg.add(m, h.depth))]]
            for la in paths
        ]
        bad = np.flatnonzero(~compare(prod.coeffs, want, cfg.tolerance).ok)
        if bad.size:
            return ("segment-formula", paths[bad[0]], (m, n))
        lifted = y_tmul(c, y_lift(f, dg.add(f.depth, _unit_cap(g, cfg))), h)
        if not lifted.close(prod, cfg.tolerance):
            return ("depth-coherence", (m, n))
        p = _rand_cyl(g, dg.zero(g.k), dg.zero(g.k), rng)
        if not y_tmul(c, y_tmul(c, f, h), p).close(y_tmul(c, f, y_tmul(c, h, p)), cfg.tolerance):
            return ("associativity", (m, n))
    return None


@_register(
    "eq-tps-inner-product",
    "inner products against graded products collapse to the two-step inner product",
    "pair",
)
def _chk_tps(inst, cfg, rng):
    g, c = inst.graph, inst.cocycle
    # ×10: an inner product of two products of N(0, 1) coefficients rounds
    # further than the base tolerance allows at 1e-14 (seed 7919, cap 1)
    tol = cfg.tolerance * 10
    for m, n in _degree_pairs(g, cfg, rng):
        f1, f2 = _rand_xelem(g, m, rng), _rand_xelem(g, m, rng)
        h1, h2 = _rand_xelem(g, n, rng), _rand_xelem(g, n, rng)
        lhs = x_inner(x_tmul(c, f1, h1), x_tmul(c, f2, h2))
        rhs = x_inner(h1, x_act(x_inner(f1, f2), h2, side="left"))
        if not lhs.close(rhs, tol):
            return ("finite-path-side", (m, n))
        y1, y2 = _rand_cyl(g, m, m, rng), _rand_cyl(g, m, m, rng)
        z1, z2 = _rand_cyl(g, n, n, rng), _rand_cyl(g, n, n, rng)
        ylhs = y_inner(y_tmul(c, y1, z1), y_tmul(c, y2, z2))
        yrhs = y_inner(z1, y_tmul(c, y_inner(y1, y2), z2))
        if not ylhs.close(yrhs, tol):
            return ("cylinder-side", (m, n))
    return None


@_register(
    "prop-4.3",
    "extended compacts act by hitting the prefix factor, on both models",
    "pair",
)
def _chk_alignment(inst, cfg, rng):
    g, c = inst.graph, inst.cocycle
    # ×10: a random compact applied to a product of N(0, 1) coefficients
    # rounds further than the base tolerance allows at 1e-14 (seed 7919, cap 1)
    tol = cfg.tolerance * 10
    for m, n in _degree_pairs(g, cfg, rng)[:3]:
        j = dg.join(m, n)
        S = _rand_xop(g, m, rng)
        x = _rand_xelem(g, m, rng)
        y = _rand_xelem(g, dg.sub(j, m), rng)
        lhs = x_iota(c, S, j)(x_tmul(c, x, y))
        rhs = x_tmul(c, S(x), y)
        if not lhs.close(rhs, tol):
            return ("finite-path-extension", (m, j))
        Sy = y_theta(_rand_cyl(g, m, m, rng), _rand_cyl(g, m, m, rng))
        f = _rand_cyl(g, m, m, rng)
        h = _rand_cyl(g, dg.sub(j, m), dg.sub(j, m), rng)
        ylhs = y_iota(c, Sy, j)(y_tmul(c, f, h))
        yrhs = y_tmul(c, Sy(f), h)
        if not ylhs.close(yrhs, tol):
            return ("cylinder-extension", (m, j))
        # an entry across source blocks is a sum of products with an exact-zero factor
        sources = np.array([p.source for p in g.paths(j)])
        if np.any(x_compact_align(c, S, _rand_xop(g, n, rng)).matrix[sources[:, None] != sources]):
            return ("aligned-block", (m, j))
    return None


@_register(
    "def-4.4",
    "the truncated creation model satisfies the generator relations of the twisted algebra",
    "pair",
)
def _chk_generator_relations(inst, cfg, rng):
    g, c = inst.graph, inst.cocycle
    N, D = _fock_caps(g, cfg, inst)
    sx = FockSpace(g, N)
    rep = rep_axioms_check(sx, c, tol=cfg.tolerance, pair_cap=24)
    if not rep.ok:
        return ("finite-path-model",) + rep.first_failure
    rep = ck_relations_check(sx, c, tol=cfg.tolerance)
    if not rep.ok:
        return ("relations",) + rep.first_failure
    sy = FockSpace(g, N, depth=D)
    rep = rep_axioms_check(sy, c, tol=cfg.tolerance, pair_cap=24, system="Y")
    if not rep.ok:
        return ("cylinder-model",) + rep.first_failure
    return None


@_register(
    "remark-4.6ii",
    "the coordinate torus acts on creations by the degree character",
    "pair",
)
def _chk_gauge(inst, cfg, rng):
    g, c = inst.graph, inst.cocycle
    N, D = _fock_caps(g, cfg, inst)
    if not any(N):
        return Skip("no unit degree fits the truncation")
    z = np.exp(2j * np.pi * rng.random(size=g.k))
    for system, depth in (("X", N), ("Y", D)):
        space = FockSpace(g, N, depth)
        for i in range(1, g.k + 1):
            n = dg.unit(g.k, i)
            if not dg.leq(n, N):
                continue
            x = _rand_xelem(g, n, rng) if system == "X" else _rand_cyl(g, n, n, rng)
            if not gauge_check(space, c, z, x, cfg.tolerance).ok:
                return ("degree-character", system, n)
    return None


# -- inclusion-map checks ----------------------------------------------------


@_register(
    "prop-5.1",
    "reading path functions as cylinder functions gives a representation with injective stages",
    "pair",
    source_free_only=True,
)
def _chk_inclusion_rep(inst, cfg, rng):
    g, c = inst.graph, inst.cocycle
    N, D = _fock_caps(g, cfg, inst)
    f = _rand_xelem(g, N, rng)
    a = alpha(dg.zero(g.k), N, f)
    if not arrays_close(a.coeffs, f.coeffs, cfg.tolerance):
        return ("coefficient-transport", N)
    sy = FockSpace(g, N, depth=D)
    return psi_check(sy, c, tol=cfg.tolerance, pair_cap=16).first_failure


@_register(
    "lemma-5.3i",
    "the inclusion intertwines the left vertex action",
    "pair",
)
def _chk_alpha_left(inst, cfg, rng):
    g, c = inst.graph, inst.cocycle
    z = dg.zero(g.k)
    for m in _some_degrees(g, cfg, rng, count=3):
        f = _rand_xelem(g, m, rng)
        a = _rand_xelem(g, z, rng)
        lhs = alpha(m, m, x_act(a, f, side="left"))
        rhs = y_tmul(c, alpha(z, z, a), alpha(m, m, f))
        if not lhs.close(rhs, cfg.tolerance):
            return ("left-action", m)
    return None


@_register(
    "lemma-5.3ii",
    "the inclusion intertwines the right vertex action",
    "pair",
)
def _chk_alpha_right(inst, cfg, rng):
    g, c = inst.graph, inst.cocycle
    z = dg.zero(g.k)
    for m in _some_degrees(g, cfg, rng, count=3):
        f = _rand_xelem(g, m, rng)
        a = _rand_xelem(g, z, rng)
        lhs = alpha(m, m, x_act(a, f, side="right"))
        rhs = y_tmul(c, alpha(m, m, f), alpha(z, z, a))
        if not lhs.close(rhs, cfg.tolerance):
            return ("right-action", m)
    return None


@_register(
    "lemma-5.3iii",
    "the inclusion preserves inner products",
    "pair",
)
def _chk_alpha_inner(inst, cfg, rng):
    g, c = inst.graph, inst.cocycle
    z = dg.zero(g.k)
    for m in _some_degrees(g, cfg, rng, count=3):
        f = _rand_xelem(g, m, rng)
        h = _rand_xelem(g, m, rng)
        lhs = y_inner(alpha(m, m, f), alpha(m, m, h))
        rhs = alpha(z, z, x_inner(f, h))
        if not lhs.close(rhs, cfg.tolerance):
            return ("inner-product", m)
    return None


@_register(
    "lemma-5.3iv",
    "the inclusion is multiplicative for the graded products",
    "pair",
)
def _chk_alpha_multiplicative(inst, cfg, rng):
    g, c = inst.graph, inst.cocycle
    for m, n in _degree_pairs(g, cfg, rng):
        f = _rand_xelem(g, m, rng)
        h = _rand_xelem(g, n, rng)
        lhs = alpha(dg.add(m, n), dg.add(m, n), x_tmul(c, f, h))
        rhs = y_tmul(c, alpha(m, m, f), alpha(n, n, h))
        if not lhs.close(rhs, cfg.tolerance):
            return ("multiplicativity", (m, n))
    return None


@_register(
    "lemma-5.3v",
    "every finite path extends, so the inclusion stages are injective",
    "pair",
    source_free_only=True,
)
def _chk_alpha_injective(inst, cfg, rng):
    g, c = inst.graph, inst.cocycle
    for m in _some_degrees(g, cfg, rng, count=2):
        for i in range(1, g.k + 1):
            extra = dg.unit(g.k, i)
            pre, _ = g.factor_indices(m, extra)
            if set(pre.tolist()) != set(range(len(g.paths(m)))):
                return ("prefix-not-surjective", m, extra)
        f1 = _rand_xelem(g, m, rng)
        f2 = _rand_xelem(g, m, rng)
        deeper = dg.add(m, dg.unit(g.k, 1))
        if f1.close(f2, cfg.tolerance):
            continue
        if y_lift(alpha(m, m, f1), deeper).close(y_lift(alpha(m, m, f2), deeper), cfg.tolerance):
            return ("depth-lift-collapses", m)
    return None


@_register(
    "lemma-5.4",
    "transporting compacts to the cylinder model maps rank-ones to rank-ones without growing norms",
    "pair",
)
def _chk_compact_transport(inst, cfg, rng):
    g, c = inst.graph, inst.cocycle
    tol = cfg.tolerance
    for n in _some_degrees(g, cfg, rng, count=2):
        f = _rand_xelem(g, n, rng)
        h = _rand_xelem(g, n, rng)
        if not alpha_k(x_theta(f, h)).close(y_theta(alpha(n, n, f), alpha(n, n, h)), tol):
            return ("rank-one-transport", n)
        S = _rand_xop(g, n, rng)
        T = _rand_xop(g, n, rng)
        if not alpha_k(S @ T).close(alpha_k(S) @ alpha_k(T), tol):
            return ("multiplicativity", n)
        deeper = dg.add(n, _unit_cap(g, cfg))
        # the lift's norm exceeds S's by at most tol
        if not arrays_close(np.maximum(alpha_k(S).lift(deeper).norm() - S.norm(), 0), 0, tol):
            return ("norm-grows", n)
    return None


@_register(
    "lemma-clsv5.12-y",
    "extended rank-ones on cylinders act by section lookup with two twist factors",
    "pair",
)
def _chk_section_lookup(inst, cfg, rng):
    g, c = inst.graph, inst.cocycle
    for m, n in _degree_pairs(g, cfg, rng)[:3]:
        j = dg.join(m, n)
        f = _rand_xelem(g, m, rng)
        gsec = _rand_section_elem(g, m, rng)
        h = _rand_cyl(g, j, j, rng)
        got = y_iota(c, y_theta(alpha(m, m, f), alpha(m, m, gsec)), j)(h)
        lam_of = {}
        for la, w in zip(g.paths(m), gsec.coeffs):
            if w != 0:
                lam_of[la.source] = la
        hidx = g.path_index(j)
        tw = c.twist(m, dg.sub(j, m)).values
        paths = g.paths(got.depth)
        want = np.zeros(len(paths), dtype=np.complex128)  # zero where no section path lam has zm's source
        for iz, z in enumerate(paths):
            zm = g.split(z, m)[0]
            lam = lam_of.get(zm.source)
            if lam is not None:
                beta = g.segment(z, m, j)
                want[iz] = (
                    tw[hidx[g.compose(zm, beta)]]
                    * np.conj(tw[hidx[g.compose(lam, beta)]])
                    * f(zm)
                    * np.conj(gsec(lam))
                    * h.coeffs[hidx[g.compose(lam, beta)]]
                )
        bad = np.flatnonzero(~compare(got.coeffs, want, cfg.tolerance).ok)
        if bad.size:
            return ("section-lookup", paths[bad[0]], (m, n))
    return None


def _aligned_rank_ones(g: KGraph, cfg: SuiteConfig, rng):
    """For each of the first two sampled degree pairs (m, n): the join j,
    section elements f1, f2 of degree m and g1, g2 of degree n, the common
    extensions C of supp f2 and supp g1, and their tails past m and past n."""
    supp = lambda x: [la for la, w in zip(g.paths(x.degree), x.coeffs) if w != 0]
    for m, n in _degree_pairs(g, cfg, rng)[:2]:
        f1, f2 = _rand_section_elem(g, m, rng), _rand_section_elem(g, m, rng)
        g1, g2 = _rand_section_elem(g, n, rng), _rand_section_elem(g, n, rng)
        C = g.vee(supp(f2), supp(g1))
        tails_m = sorted({g.split(la, m)[1] for la in C}, key=Path.sort_key)
        tails_n = sorted({g.split(la, n)[1] for la in C}, key=Path.sort_key)
        yield m, n, dg.join(m, n), (f1, f2, g1, g2), C, tails_m, tails_n


@_register(
    "lemma-5.5x",
    "an aligned product of path rank-ones expands over section indicators of the common extensions",
    "pair",
)
def _chk_theta_expansion_x(inst, cfg, rng):
    g, c = inst.graph, inst.cocycle
    for m, n, j, (f1, f2, g1, g2), C, tails_m, tails_n in _aligned_rank_ones(g, cfg, rng):
        lhs = x_compact_align(c, x_theta(f1, f2), x_theta(g1, g2))
        rhs = XOp.zeros(g, j)
        for gi in (XElem.delta(g, t) for t in tails_m):
            left_i = x_tmul(c, f2, gi)
            for gj in (XElem.delta(g, t) for t in tails_n):
                w = x_inner(left_i, x_tmul(c, g1, gj))
                a_ij = x_tmul(c, f1, x_act(w, gi, side="right"))
                b_j = x_tmul(c, g2, gj)
                rhs = rhs + x_theta(a_ij, b_j)
        if not lhs.close(rhs, cfg.tolerance):
            return ("expansion", (m, n), len(C))
    return None


@_register(
    "lemma-5.5y",
    "an aligned product of cylinder rank-ones expands over cylinder section indicators",
    "pair",
)
def _chk_theta_expansion_y(inst, cfg, rng):
    g, c = inst.graph, inst.cocycle
    for m, n, j, (f1, f2, g1, g2), C, tails_m, tails_n in _aligned_rank_ones(g, cfg, rng):
        am = lambda x: alpha(x.degree, x.degree, x)
        lhs = y_iota(c, y_theta(am(f1), am(f2)), j) @ y_iota(c, y_theta(am(g1), am(g2)), j)
        rhs = YOp.zeros(g, j, j)
        for t_i in tails_m:
            xi_i = CylElem.delta(g, t_i)
            left_i = y_tmul(c, am(f2), xi_i)
            for t_j in tails_n:
                xi_j = CylElem.delta(g, t_j)
                w0 = y_inner(left_i, y_tmul(c, am(g1), xi_j))
                c_ij = y_tmul(c, am(f1), y_tmul(c, xi_i, w0))
                d_j = y_tmul(c, am(g2), xi_j)
                rhs = rhs + y_theta(c_ij, d_j)
        if not lhs.close(rhs, cfg.tolerance):
            return ("expansion", (m, n), len(C))
    return None


@_register(
    "lemma-5.8",
    "transport to the cylinder model commutes with aligned products of compacts",
    "pair",
)
def _chk_transport_interchange(inst, cfg, rng):
    g, c = inst.graph, inst.cocycle
    for m, n in _degree_pairs(g, cfg, rng)[:3]:
        j = dg.join(m, n)
        S = _rand_xop(g, m, rng, _rand_section_elem)
        T = _rand_xop(g, n, rng, _rand_section_elem)
        lhs = alpha_k(x_compact_align(c, S, T))
        rhs = y_iota(c, alpha_k(S), j) @ y_iota(c, alpha_k(T), j)
        if not lhs.close(rhs, cfg.tolerance):
            return ("interchange", (m, n))
    return None


@_register(
    "eq-nica-cov-for-nice-thetas",
    "products of section compacts in the truncated model factor through the aligned compact",
    "pair",
)
def _chk_nica(inst, cfg, rng):
    g, c = inst.graph, inst.cocycle
    N, _ = _fock_caps(g, cfg, inst)
    space = FockSpace(g, N)
    for m, n in _degree_pairs(g, cfg, rng)[:3]:
        if not (dg.leq(m, N) and dg.leq(n, N)):
            continue
        S = _rand_xop(g, m, rng, _rand_section_elem)
        T = _rand_xop(g, n, rng, _rand_section_elem)
        rep = nica_check(space, c, S, T, tol=cfg.tolerance)
        if not rep.ok:
            return rep.first_failure
    return None


# -- covariance and assembly checks ------------------------------------------


@_register(
    "eq-for-cp-covariance-of-zeta",
    "the covariance defects of the path and cylinder compacts agree on the interior",
    "pair",
)
def _chk_cp_defect(inst, cfg, rng):
    g, c = inst.graph, inst.cocycle
    N, D = _fock_caps(g, cfg, inst)
    sy = FockSpace(g, N, depth=D)
    a = _rand_xelem(g, dg.zero(g.k), rng)
    for n in ([dg.unit(g.k, 1), N] if any(N) else [N]):
        rep = cp_identity_check(sy, c, a, n, tol=cfg.tolerance)
        if not rep.ok:
            return rep.first_failure
    return None


@_register(
    "eq-left-action-in-X",
    "the left vertex action on path functions is a finite sum of square-root rank-ones",
    "pair",
)
def _chk_left_action_x(inst, cfg, rng):
    g = inst.graph
    a = _rand_xelem(g, dg.zero(g.k), rng)
    for n in _some_degrees(g, cfg, rng, count=2):
        parts = phi_x_decompose(a, n)
        total = XOp.zeros(g, n)
        for gi in parts:
            total = total + x_theta(gi, gi.conj())
        if not total.close(phi_x(a, n), cfg.tolerance):
            return ("reassembly", n)
    return None


@_register(
    "eq-left-action-in-Y",
    "the left action of a depth-limited function is a finite sum of cylinder rank-ones",
    "pair",
)
def _chk_left_action_y(inst, cfg, rng):
    g = inst.graph
    cap = _unit_cap(g, cfg)
    a = _rand_cyl(g, dg.zero(g.k), cap, rng)
    for n in (dg.zero(g.k), cap):
        parts = phi_y_decompose(a, n)
        depth = dg.join(a.depth, n)
        total = YOp.zeros(g, n, depth)
        for gi in parts:
            total = total + y_theta(alpha(n, depth, gi), alpha(n, depth, gi.conj()))
        if not total.close(phi_y(a, n), cfg.tolerance):
            return ("reassembly", n)
    zero = CylElem.zeros(g, dg.zero(g.k), cap)
    if phi_y_decompose(zero, cap):
        return ("zero-should-be-empty",)
    return None


@_register(
    "lemma-6.2",
    "cylinder indicators refine exactly: a lift equals the sum over one-step extensions",
    "graph",
)
def _chk_indicator_refinement(inst, cfg, rng):
    g = inst.graph
    for m in dg.degrees_upto(_unit_cap(g, cfg)):
        U = _section_paths(g, m, rng)
        for i in range(1, g.k + 1):
            depth = dg.add(m, dg.unit(g.k, i))
            rep = cylinder_density_check(g, U, depth)
            if not rep.ok:
                return rep.first_failure
            for mu in U[:2]:
                lifted = y_lift(CylElem.delta(g, mu), depth)
                direct = np.array(
                    [1.0 if g.split(la, m)[0] == mu else 0.0 for la in g.paths(depth)]
                )
                if not arrays_close(lifted.coeffs, direct, cfg.tolerance):
                    return ("lift-vs-extensions", mu, depth)
    return None


@_register(
    "lemma-6.3",
    "on section-supported cylinder functions the sup norm equals the module norm",
    "graph",
    source_free_only=True,
)
def _chk_sup_norm(inst, cfg, rng):
    g = inst.graph
    for n in _some_degrees(g, cfg, rng, count=2):
        U = _section_paths(g, n, rng)
        if not U:
            continue
        coeffs = np.zeros(len(g.paths(n)), dtype=np.complex128)
        pidx = g.path_index(n)
        for mu in U:
            coeffs[pidx[mu]] = rng.normal() + 1j * rng.normal()
        f = CylElem(g, n, n, coeffs)
        rep = sup_norm_check(f, U, tol=cfg.tolerance)
        if not rep.ok:
            return rep.first_failure
        deeper = dg.add(n, dg.unit(g.k, 1))
        rep = sup_norm_check(y_lift(f, deeper), U, tol=cfg.tolerance)
        if not rep.ok:
            return ("after-lift",) + rep.first_failure
    return None


@_register(
    "eq-action-decomp-for-alpha",
    "product-shaped path functions split into prefix sections times a tail function",
    "pair",
)
def _chk_action_decomp(inst, cfg, rng):
    g, c = inst.graph, inst.cocycle
    tol = cfg.tolerance
    for m in _some_degrees(g, cfg, rng, count=2):
        paths = g.paths(m)
        if not paths:
            continue
        la = paths[int(rng.integers(0, len(paths)))]
        f = XElem.delta(g, la)
        for n in {dg.zero(g.k), m}:
            if not _reassembles(c, f, n, alpha_decompose(f, n), tol):
                return ("point-mass-reassembly", la, n)
    # product-shaped support: one prefix per tail range, tails a section
    for n in _some_degrees(g, cfg, rng, count=1):
        rest = n
        m = dg.add(n, rest)
        V = _section_paths(g, rest, rng)
        coeffs = np.zeros(len(g.paths(m)), dtype=np.complex128)
        pidx = g.path_index(m)
        t_of = {}
        for nu in V:
            fiber = g.by_source(n).get(nu.range, ())
            if not fiber:
                continue
            mu = g.paths(n)[fiber[0]]
            t_of[nu] = rng.normal() + 1j * rng.normal()
            coeffs[pidx[g.compose(mu, nu)]] = t_of[nu]
        if not t_of:
            continue
        f = XElem(g, m, coeffs)
        try:
            dec = alpha_decompose(f, n)
        except NotSectionDecomposable:
            continue  # two chosen prefixes may share a source on loops
        if not _reassembles(c, f, n, dec, tol):
            return ("product-reassembly", n)
        if not _tail_acts_as_compacts(dec, tol):
            return ("product-tail-compacts", n)
        bad = np.flatnonzero(~compare([dec.f_tilde(nu) for nu in t_of], list(t_of.values()), tol).ok)
        if bad.size:
            return ("tail-values", list(t_of)[bad[0]])
    return None


@_register(
    "eq-left-action-of-f-tilde-as-compacts",
    "the tail function of a split acts on its fiber as a sum of section rank-ones",
    "pair",
)
def _chk_tail_compacts(inst, cfg, rng):
    g = inst.graph
    for m in _some_degrees(g, cfg, rng, count=2):
        paths = g.paths(m)
        if not paths:
            continue
        la = paths[int(rng.integers(0, len(paths)))]
        for n in {dg.zero(g.k), m}:
            if not _tail_acts_as_compacts(alpha_decompose(XElem.delta(g, la), n), cfg.tolerance):
                return ("tail-compacts", la, n)
    return None


@_register(
    "zeta-surjectivity",
    "every truncated cylinder generator is assembled from path creations and defect corrections",
    "pair",
    source_free_only=True,
)
def _chk_generator_assembly(inst, cfg, rng):
    g, c = inst.graph, inst.cocycle
    N, D = _fock_caps(g, cfg, inst)
    if not dg.leq(dg.sub(D, N), N):
        return Skip("the assembly creates at degree D - N, beyond the truncation")
    sy = FockSpace(g, N, depth=D)
    targets = [N] if not any(N) else [dg.unit(g.k, 1), N]
    for n in targets:
        rep = zeta_surjectivity_check(sy, c, n, tol=cfg.tolerance)
        if not rep.ok:
            return rep.first_failure
    return None


# -- suite runner ------------------------------------------------------------


def match_checks(selector) -> list:
    """Expand a glob selector (or list of them) against the registry."""
    pats = [selector] if isinstance(selector, str) else list(selector)
    pats = ["*" if p == "all" else p for p in pats]
    hits = [cid for cid in REGISTRY if any(fnmatch.fnmatchcase(cid, p) for p in pats)]
    if not hits:
        raise UnknownCheck(f"selector {selector!r} matches no registered check", selector)
    return hits


def _case_seed(base: int, check_id: str, index: int) -> int:
    return int((base * 1000003 + zlib.crc32(check_id.encode()) * 7919 + index) % (2**31))


def _run_one(cd: CheckDef, inst: Instance, cfg: SuiteConfig, index: int) -> CaseResult:
    seed = _case_seed(cfg.seed, cd.check_id, index)
    case = CheckCase(cd.check_id, inst.label, seed)
    t0 = time.perf_counter()
    if cd.source_free_only and inst.graph is not None and not inst.graph.is_source_free()[0]:
        out = CaseResult(case, "skipped", reason="hypotheses need a graph without sources")
    else:
        try:
            witness = cd.run(inst, cfg, np.random.default_rng(seed))
            if isinstance(witness, Skip):
                out = CaseResult(case, "skipped", reason=witness.reason)
            else:
                out = CaseResult(case, "pass" if witness is None else "fail", witness=witness)
        except Exception as e:  # a crash inside a check is a failure, with the error as witness
            out = CaseResult(case, "fail", witness=f"{type(e).__name__}: {e}")
    out.millis = (time.perf_counter() - t0) * 1000
    return out


def run_suite(selector, config: SuiteConfig | None = None, instances=None) -> Report:
    """Run every registry check matching `selector` over the instance battery.

    With `instances` unset the battery is the named fixtures plus
    `config.graphs` random graphs with `config.cocycles` cocycles each.
    Deterministic given `config.seed`.
    """
    cfg = config or DEFAULT_CONFIG
    ids = match_checks(selector)
    insts = default_instances(cfg) if instances is None else list(instances)
    t0 = time.perf_counter()
    results = []
    for cid in ids:
        cd = REGISTRY[cid]
        if cd.needs == "builtin":
            results.append(_run_one(cd, Instance("builtin", None, None), cfg, 0))
            continue
        seen = set()
        for index, inst in enumerate(insts):
            if cd.needs == "graph":
                if id(inst.graph) in seen:
                    continue
                seen.add(id(inst.graph))
            results.append(_run_one(cd, inst, cfg, index))
    name = selector if isinstance(selector, str) else ",".join(selector)
    return Report(name, results, cfg, (time.perf_counter() - t0) * 1000)


def replay(result_or_case, config: SuiteConfig | None = None, instances=None) -> CaseResult:
    """Re-run a single recorded case; same config and subject give the same outcome."""
    case = getattr(result_or_case, "case", result_or_case)
    cfg = config or DEFAULT_CONFIG
    cd = REGISTRY.get(case.check_id)
    if cd is None:
        raise UnknownCheck(f"no check registered under {case.check_id!r}", case.check_id)
    if cd.needs == "builtin":
        return _run_one(cd, Instance("builtin", None, None), cfg, 0)
    insts = default_instances(cfg) if instances is None else list(instances)
    for index, inst in enumerate(insts):
        if inst.label == case.subject:
            return _run_one(cd, inst, cfg, index)
    raise UnknownCheck(f"no instance labelled {case.subject!r} in this configuration", case.subject)
