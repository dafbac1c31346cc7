"""Circle-valued 2-cocycles on path categories.

A cocycle assigns a unit-modulus scalar c(lambda, mu) to every composable
pair, subject to

    (C1)  c(la, mu) c(la.mu, nu) = c(la, mu.nu) c(mu, nu)
    (C2)  c(la, s(la)) = c(r(la), la) = 1.

Values are Phase objects, exact whenever the construction permits, so that
the identity checks in the rest of the package can demand equality rather
than closeness.

Cocycle.twist(m, n) tabulates c once on every composable pair of degrees
(m, n), indexed by the composite path in Lambda^(m+n).  An exact table is
integer-encoded: turn numerators mod a shared denominator L and radian
numerators over a shared denominator, so exact equality of phases is
equality of integers.  A twist computes its fields once per distinct
value object.  The builtin cocycles fill their own twists: a cocycle whose
value depends only on the degrees repeats one value, a coboundary combines
per-degree tables of its path function, a pointwise product combines its
factors' twists, and a table cocycle (from_table) gathers the value objects
of its entries; the twists of any other cocycle, and every twist with a
vertex leg, are read one pair at a time.  (C2) holds by construction
(Cocycle.__call__ answers vertex legs itself), and check_cocycle tests (C1)
on Lambda^(m+n+p) as the array identity

    T(m,n)[pre] + T(m+n,p)  =  T(m,n+p) + T(n,p)[suf]   (turns mod 1)

with pre and suf from KGraph.factor_indices, once per chunk: the splits
(m, n, p) of consecutive batches, each batch the splits of one total
degree with the same first leg m, concatenated until they hold _CHUNK
triples, each twist scaled once to the chunk's shared denominators.  Integer
equality decides alone when every table is exact and the encoding fits
int64; otherwise the Phase products are compared one triple at a time.
Exactness is read from each value: two exact sides must be equal, and the
tolerance absorbs the roundoff of float values only.  Likewise only an
inexact value is tested for unit modulus; an exact one lies on the circle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

import numpy as np

from . import degrees as dg
from .constructions import CartesianProductGraph, CrossedProductGraph, SkewProductGraph
from .errors import (
    CapTooSmallForRequestedDegree,
    GraphMismatch,
    NotACocycle,
    NotAFunctor,
    NotBetaInvariant,
    NotComposable,
)
from .kgraph import KGraph, Path
from .phases import ONE, Phase, parse_angle, product

# Bound on every scaled numerator in an int64 identity, so that a sum of four
# of them cannot overflow; past it the identities run on Python ints.
_INT64_SAFE = 2**60

# check_cocycle compares (C1) once per chunk of at least this many triples.
_CHUNK = 2**15


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class Twist:
    """The values of c on the composable pairs of degrees (m, n): entry i is
    c(mu, nu) for the factorization paths(m+n)[i] = mu . nu.

    `phases` holds the Phase values.  `ints` encodes them as integers when
    every value is exact and the encoding fits int64; `values` are their
    complex values and `modulus` their moduli, 1.0 for an exact value, which
    lies on the circle.  Entries are coded once, by object
    identity (so float values keep their exact bits), as indices `_codes`
    into the distinct objects `_distinct`; each field is computed on the
    distinct objects and gathered through the codes.  Given `codes`, the
    entries are already coded: `phases` lists the objects the codes index.
    """

    def __init__(self, phases: list[Phase], codes: np.ndarray | None = None):
        if codes is None:
            first = {id(p): p for p in phases}
            code_of = {key: i for i, key in enumerate(first)}
            codes = np.array([code_of[id(p)] for p in phases], dtype=np.intp)
            phases = list(first.values())
        self._distinct = np.empty(len(phases), dtype=object)
        self._distinct[:] = phases
        self._codes = _read_only(codes)
        self.phases = _read_only(self._distinct[self._codes])

    @cached_property
    def ints(self) -> tuple[np.ndarray, int, np.ndarray, int] | None:
        """(turns, turn_den, rads, rad_den): entry i is turns[i] / turn_den
        turns (reduced mod 1) plus rads[i] / rad_den radians, in int64
        arrays, over the denominators of the values the twist holds.  None
        when a value is inexact or a denominator or numerator exceeds the
        int64-safe bound."""
        ps = self._distinct.tolist()
        if not all(p.is_exact for p in ps):
            return None
        turn_den = math.lcm(*(p.turns.denominator for p in ps))
        rad_den = math.lcm(*(p.rads.denominator for p in ps))
        turns = [p.turns.numerator * (turn_den // p.turns.denominator) for p in ps]
        rads = [p.rads.numerator * (rad_den // p.rads.denominator) for p in ps]
        if turn_den > _INT64_SAFE or max(map(abs, rads), default=0) > _INT64_SAFE:
            return None
        turns = _read_only(np.array(turns, dtype=np.int64)[self._codes])
        return turns, turn_den, _read_only(np.array(rads, dtype=np.int64)[self._codes]), rad_den

    @cached_property
    def values(self) -> np.ndarray:
        """complex(c) per entry."""
        return _read_only(np.array([complex(p) for p in self._distinct], dtype=np.complex128)[self._codes])

    @cached_property
    def modulus(self) -> np.ndarray:
        """abs(complex(c)) per inexact entry, 1.0 per exact one."""
        moduli = [1.0 if p.is_exact else abs(complex(p)) for p in self._distinct]
        return _read_only(np.array(moduli, dtype=np.float64)[self._codes])

    def __len__(self) -> int:
        return len(self.phases)


def _combined(fn, legs) -> Twist:
    """The twist whose entry i is fn(*(t.phases[ix[i]] for t, ix in legs)),
    an ix of None reading t.phases[i]; fn runs once per distinct tuple of
    the legs' codes, and its results are gathered back."""
    codes = [t._codes if ix is None else t._codes[ix] for t, ix in legs]
    dims = [len(t._distinct) for t, _ in legs]
    keys, inverse = np.unique(np.ravel_multi_index(codes, dims), return_inverse=True)
    rows = zip(*(col.tolist() for col in np.unravel_index(keys, dims)))
    return Twist([fn(*(t._distinct[i] for (t, _), i in zip(legs, row))) for row in rows], inverse)


def _one_value(c: "Cocycle", m, n) -> Twist:
    """twist(m, n) of a cocycle whose value depends only on the degrees: the
    evaluator's value at the first factorization, one object repeated."""
    g = c.graph
    paths = g.paths(dg.add(m, n))
    if not paths:
        return Twist([])
    return Twist([c.evaluator(*g.split(paths[0], m))], np.zeros(len(paths), dtype=np.intp))


class Cocycle:
    """Evaluator plus twist tables, its only cache; construct via the functions
    below.  `_tabulate(c, m, n)`, when given, builds twist(m, n) of c for
    nonzero m and n in place of asking the evaluator one pair at a time,
    with the same values: the degree-only families, coboundaries, pointwise
    products and table cocycles pass one."""

    def __init__(self, graph: KGraph, evaluator, name: str = "cocycle", *, _tabulate=None):
        self.graph = graph
        self.evaluator = evaluator
        self.name = name
        self._tabulate = _tabulate
        self._twist_memo: dict[tuple[dg.Degree, dg.Degree], Twist] = {}

    def __call__(self, la: Path, mu: Path) -> Phase:
        """c(la, mu).  A vertex leg gives ONE without asking the evaluator,
        so (C2) holds by construction for every Cocycle."""
        if la.source != mu.range:
            raise NotComposable(f"cocycle argument pair is not composable", (la, mu))
        if la.is_vertex or mu.is_vertex:
            return ONE
        return self.evaluator(la, mu)

    def twist(self, m, n) -> Twist:
        """c(split(la, m)) for each la in paths(m+n), in that order; cached."""
        g = self.graph
        key = (dg.as_degree(m, g.k), dg.as_degree(n, g.k))
        hit = self._twist_memo.get(key)
        if hit is None:
            if self._tabulate is not None and any(key[0]) and any(key[1]):
                hit = self._tabulate(self, *key)
            else:
                hit = Twist([self(*g.split(la, key[0])) for la in g.paths(dg.add(*key))])
            self._twist_memo[key] = hit
        return hit

    def __repr__(self) -> str:
        return f"Cocycle({self.name})"


def trivial_cocycle(g: KGraph) -> Cocycle:
    return Cocycle(g, lambda la, mu: ONE, "trivial", _tabulate=_one_value)


# -- degree bicharacters -----------------------------------------------------


def bicharacter_cocycle(g: KGraph, theta, name="bicharacter") -> Cocycle:
    """c(la, mu) = prod_ij theta[i][j]^(d(la)_i d(mu)_j), theta entries being
    angles as parse_angle reads them.  Bilinearity of the exponent makes
    (C1) hold for any matrix, and degree-0 legs kill the product, giving (C2).
    """
    mat = [[parse_angle(x) for x in row] for row in theta]
    if len(mat) != g.k or any(len(row) != g.k for row in mat):
        raise GraphMismatch(f"need a {g.k}x{g.k} matrix, got {len(mat)} rows", theta)

    def ev(la: Path, mu: Path) -> Phase:
        return product(
            mat[i][j] ** (la.degree[i] * mu.degree[j])
            for i in range(g.k)
            for j in range(g.k)
            if la.degree[i] and mu.degree[j]
        )

    return Cocycle(g, ev, name, _tabulate=_one_value)


def c_theta(g: KGraph, theta) -> Cocycle:
    """The standard twist exp(i * theta * d(la)_2 * d(mu)_1) on a rank >= 2 graph."""
    if g.k < 2:
        raise GraphMismatch("this twist needs at least two colors", g.k)
    mat = [[Phase.one() for _ in range(g.k)] for _ in range(g.k)]
    mat[1][0] = parse_angle(theta)
    return bicharacter_cocycle(g, mat, name="c_theta")


# -- crossed-product families ------------------------------------------------


def _require_crossed(g) -> CrossedProductGraph:
    if not isinstance(g, CrossedProductGraph):
        raise GraphMismatch("this family is defined on crossed products", g)
    return g


def functor_from_edge_table(g: KGraph, table: dict) -> dict:
    """Validate that edge values extend to a functor (squares agree) and
    return the table with values read by parse_angle."""
    out = {}
    for e in g.all_edges:
        if e.ident not in table:
            raise NotAFunctor(f"no value for edge {e.ident!r}", e.ident)
        out[e.ident] = parse_angle(table[e.ident])
    for (e, f), (f2, e2) in g.skeleton.squares.items():
        if out[e] * out[f] != out[f2] * out[e2]:
            raise NotAFunctor(f"values disagree on the square {(e, f)} = {(f2, e2)}", (e, f))
    return out


def _functor_value(table: dict, la: Path) -> Phase:
    return product(table[e] for e in la.edges)


def c_f(gamma: CrossedProductGraph, f_table: dict) -> Cocycle:
    """c((mu,m),(nu,n)) = f(nu)^|m| for a beta-invariant functor f on the base."""
    gamma = _require_crossed(gamma)
    base = gamma.base
    table = functor_from_edge_table(base, f_table)
    for j in range(1, gamma.l + 1):
        for e in base.all_edges:
            if table[gamma.action.edge(j, e.ident)] != table[e.ident]:
                raise NotBetaInvariant(
                    f"f moves under generator {j} at edge {e.ident!r}", (j, e.ident)
                )

    def ev(la: Path, mu: Path) -> Phase:
        _, m = gamma.project(la)
        nu, _ = gamma.project(mu)
        return _functor_value(table, nu) ** dg.total(m)

    return Cocycle(gamma, ev, "c_f")


def c_omega(gamma: CrossedProductGraph, generators) -> Cocycle:
    """c((mu,m),(nu,n)) = omega(m)^|d(nu)| for omega given by l phases."""
    gamma = _require_crossed(gamma)
    gens = [parse_angle(x) for x in generators]
    if len(gens) != gamma.l:
        raise GraphMismatch(f"need {gamma.l} generators, got {len(gens)}", generators)

    def ev(la: Path, mu: Path) -> Phase:
        _, m = gamma.project(la)
        nu, _ = gamma.project(mu)
        omega_m = product(p**mi for p, mi in zip(gens, m))
        return omega_m ** dg.total(nu.degree)

    return Cocycle(gamma, ev, "c_omega", _tabulate=_one_value)


def c_sigma(gamma: CrossedProductGraph, theta) -> Cocycle:
    """Lattice-coordinate twist: entry theta[i][j] contributes the angle
    theta[i][j] * m_j * n_i for lattice parts m (first argument) and n
    (second).  Realized as a degree bicharacter supported on the new-color
    block, so the cocycle identity is inherited from bilinearity.
    """
    gamma = _require_crossed(gamma)
    l, k = gamma.l, gamma.base.k
    rows = [[parse_angle(x) for x in row] for row in theta]
    if len(rows) != l or any(len(r) != l for r in rows):
        raise GraphMismatch(f"need an {l}x{l} matrix", theta)
    full = [[Phase.one() for _ in range(gamma.k)] for _ in range(gamma.k)]
    for i in range(l):
        for j in range(l):
            full[k + j][k + i] = rows[i][j]
    return bicharacter_cocycle(gamma, full, name="c_sigma")


# -- lifts and products ------------------------------------------------------


def skew_lift(c: Cocycle, skew: SkewProductGraph) -> Cocycle:
    """The same values read through the skew projection."""
    if not isinstance(skew, SkewProductGraph):
        raise GraphMismatch("need a skew product graph", skew)
    if skew.base is not c.graph:
        raise GraphMismatch("skew product was built from a different base", (c.graph, skew.base))

    def ev(la: Path, mu: Path) -> Phase:
        p, _ = skew.project(la)
        q, _ = skew.project(mu)
        return c(p, q)

    return Cocycle(skew, ev, f"skew_lift({c.name})")


def product_cocycle(c1: Cocycle, c2: Cocycle, prod: CartesianProductGraph) -> Cocycle:
    """Factorwise product on a Cartesian product graph."""
    if not isinstance(prod, CartesianProductGraph):
        raise GraphMismatch("need a Cartesian product graph", prod)
    if prod.left is not c1.graph or prod.right is not c2.graph:
        raise GraphMismatch("product graph was built from different factors", prod)

    def ev(la: Path, mu: Path) -> Phase:
        l1, l2 = prod.project(la)
        m1, m2 = prod.project(mu)
        return c1(l1, m1) * c2(l2, m2)

    return Cocycle(prod, ev, f"product({c1.name},{c2.name})")


def pointwise_product(c1: Cocycle, c2: Cocycle) -> Cocycle:
    """c1 * c2 on their common graph; twist(m, n) is T1 * T2 of the factors'
    twists, multiplied once per distinct pair of codes."""
    if c1.graph is not c2.graph:
        raise GraphMismatch("cocycles live on different graphs", (c1.graph, c2.graph))

    def tabulate_twist(_, m, n) -> Twist:
        return _combined(Phase.__mul__, [(c1.twist(m, n), None), (c2.twist(m, n), None)])

    name = f"product({c1.name},{c2.name})"
    return Cocycle(c1.graph, lambda la, mu: c1(la, mu) * c2(la, mu), name, _tabulate=tabulate_twist)


# -- table-backed cocycles ---------------------------------------------------


def from_table(g: KGraph, entries: dict, cap, check=True) -> Cocycle:
    """entries: (la.edges, mu.edges) -> phase, on composable non-vertex pairs.

    Pairs with a vertex leg are served by (C2).  Lookups beyond the stored cap
    raise CapTooSmallForRequestedDegree.

    A twist table looks up the value object of each of its pairs, so it
    shares the entries' objects and computes its fields once per distinct
    value.  A twist that meets a pair past the cap or without an entry asks
    ev for every pair in paths(m+n) order, so it raises where a pair-by-pair
    twist would.
    """
    cap = dg.as_degree(cap, g.k)
    table = {(tuple(le), tuple(me)): parse_angle(val) for (le, me), val in entries.items()}

    def tabulate_twist(_, m, n) -> Twist:
        pm, pn = g.paths(m), g.paths(n)
        pre, suf = g.factor_indices(m, n)
        got = [table.get((pm[i].edges, pn[j].edges)) for i, j in zip(pre.tolist(), suf.tolist())]
        if any(p is None for p in got) or not dg.leq(dg.add(m, n), cap):
            for la in g.paths(dg.add(m, n)):
                ev(*g.split(la, m))
        return Twist(got)

    def ev(la: Path, mu: Path) -> Phase:
        if not dg.leq(dg.add(la.degree, mu.degree), cap):
            raise CapTooSmallForRequestedDegree(
                f"pair degree {dg.add(la.degree, mu.degree)} beyond table cap {cap}",
                (la, mu),
            )
        try:
            return table[(la.edges, mu.edges)]
        except KeyError:
            raise CapTooSmallForRequestedDegree(
                f"no table entry for {(la, mu)}", (la, mu)
            ) from None

    c = Cocycle(g, ev, "table", _tabulate=tabulate_twist)
    if check:
        rep = check_cocycle(c, cap)
        if not rep.ok:
            raise NotACocycle(
                f"table fails {rep.first_failure[0]} at {rep.first_failure[1]}",
                rep.first_failure,
            )
    return c


def tabulate(c: Cocycle, cap) -> dict:
    """Dump c on all composable non-vertex pairs with total degree <= cap."""
    g = c.graph
    cap = dg.as_degree(cap, g.k)
    out = {}
    for total in dg.degrees_upto(cap):
        for m, n in dg.splits(total, 2):
            if not any(m) or not any(n):
                continue
            pm, pn = g.paths(m), g.paths(n)
            pre, suf = g.factor_indices(m, n)
            for i, j, val in zip(pre.tolist(), suf.tolist(), c.twist(m, n).phases):
                out[(pm[i].edges, pn[j].edges)] = val
    return out


# -- coboundaries ------------------------------------------------------------


class Coboundary:
    """A path function b with b = 1 on vertices; delta() is its 2-coboundary,
    whose twist(m, n) is B(m)[pre] * B(n)[suf] * conj(B(m+n)), B(d) being b
    tabulated once over paths(d), multiplied once per distinct triple of codes.
    B(d) codes exact values by value, so a b that depends only on the degree
    gives each twist one product; float values keep their own objects."""

    def __init__(self, graph: KGraph, fn, name: str = "b"):
        self.graph = graph
        self._fn = fn
        self.name = name

    def __call__(self, la: Path) -> Phase:
        if la.is_vertex:
            return ONE
        return self._fn(la)

    def delta(self) -> Cocycle:
        g = self.graph

        @cache
        def b_table(d) -> Twist:
            first: dict[tuple[Fraction, Fraction], Phase] = {}
            values = (self(la) for la in g.paths(d))
            return Twist([first.setdefault((p.turns, p.rads), p) if p.is_exact else p for p in values])

        def ev(la: Path, mu: Path) -> Phase:
            return self(la) * self(mu) * self(g.compose(la, mu)).conj()

        def tabulate_twist(_, m, n) -> Twist:
            pre, suf = g.factor_indices(m, n)
            legs = [(b_table(m), pre), (b_table(n), suf), (b_table(dg.add(m, n)), None)]
            return _combined(lambda x, y, z: x * y * z.conj(), legs)

        return Cocycle(g, ev, f"delta({self.name})", _tabulate=tabulate_twist)


def edge_coboundary(g: KGraph, label: dict, form, name: str) -> Coboundary:
    """The path function b(la) = prod_e label[e] * prod_ij form[i][j]^(d_i d_j)
    over the edges e and the degree d of la; an empty form adds nothing."""

    def b(la: Path) -> Phase:
        out = product(label[e] for e in la.edges)
        for i, row in enumerate(form):
            for j, p in enumerate(row):
                out = out * p ** (la.degree[i] * la.degree[j])
        return out

    return Coboundary(g, b, name)


# -- exhaustive checking -----------------------------------------------------


@dataclass
class CocycleReport:
    triples_checked: int = 0
    first_failure: tuple | None = None  # (kind, witness paths, values)

    @property
    def ok(self) -> bool:
        return self.first_failure is None


def _close(x: Phase, y: Phase, tol: float) -> bool:
    """x == y when both are exact, else x.close(y, tol): the tolerance
    absorbs float roundoff, and only that."""
    return x.close(y, 0.0 if x.is_exact and y.is_exact else tol)


_close_each = np.frompyfunc(_close, 3, 1)


def _gather(column, read) -> np.ndarray:
    """One term of (C1) over a batch: read(twist) of each split's term,
    gathered by its index array (whole when None), concatenated."""
    return np.concatenate([read(t) if ix is None else read(t)[ix] for t, ix in column])


def _int_agree(columns) -> np.ndarray | None:
    """Exact elementwise equality of the two sides of (C1) from the twists'
    integer encodings, each twist scaled once to the batch's shared
    denominators; None when a twist has none or a scaled numerator would
    exceed the int64-safe bound."""
    twists = dict.fromkeys(t for column in columns for t, _ in column)
    ints = [t.ints for t in twists]
    if any(e is None for e in ints):
        return None
    den_t = math.lcm(*(e[1] for e in ints))
    den_r = math.lcm(*(e[3] for e in ints))
    if den_t > _INT64_SAFE or any(
        den_r > e[3] and int(np.abs(e[2]).max(initial=0)) * (den_r // e[3]) > _INT64_SAFE for e in ints
    ):
        return None
    turns = {t: tn if td == den_t else tn * (den_t // td) for t, (tn, td, _, _) in zip(twists, ints)}
    rads = {t: rn if rd == den_r else rn * (den_r // rd) for t, (_, _, rn, rd) in zip(twists, ints)}
    t1, t2, t3, t4 = (_gather(column, turns.__getitem__) for column in columns)
    r1, r2, r3, r4 = (_gather(column, rads.__getitem__) for column in columns)
    return ((t1 + t2 - t3 - t4) % den_t == 0) & (r1 + r2 == r3 + r4)


def _agree(columns, tol: float) -> np.ndarray:
    """Elementwise _close(first * second, third * fourth, tol) of the four
    (C1) terms over a batch.  When every twist has an integer encoding,
    both sides are exact and integer equality decides alone."""
    ok = _int_agree(columns)
    if ok is not None:
        return ok
    a, b, c, d = (_gather(column, lambda t: t.phases) for column in columns)
    return np.asarray(_close_each(a * b, c * d, tol), dtype=bool)


def check_cocycle(c: Cocycle, cap, tol: float = 1e-9) -> CocycleReport:
    """Exhaustively verify (C1) on composable triples with total degree <= cap
    ((C2) holds by construction).  Two exact sides must be equal; tol
    applies where a side is inexact, and bounds |abs(c(l1, l2)) - 1| for an
    inexact value c(l1, l2).

    Triples are visited, and counted up to the first failure, in the order
    total degree, then dg.splits(total, 3), then g.paths(total); each
    failure is reported with the Phase values the evaluator gives there.

    The twists are built one batch at a time: the splits (m, n, p) of one
    total degree with the same first leg m, contiguous in dg.splits order,
    which share T(m, n+p) and suf.  Consecutive batches are gathered into a
    chunk, and the identity runs once per chunk, as soon as it holds
    _CHUNK triples, and on what is left at the end; a batch of at least
    _CHUNK triples is a chunk of its own.  So a chunk holds fewer than
    2 * _CHUNK triples or one batch, and memory does not grow with the cap.
    When building a twist raises, the batches gathered before it are
    checked first: their failure is reported, and otherwise the error
    propagates, as a check of one batch at a time would do.
    """
    g = c.graph
    cap = dg.as_degree(cap, g.k)
    rep = CocycleReport()
    chunk: list[tuple] = []  # per split (m, n, p): total, m, n and the four (twist, index) terms of (C1)
    held = 0  # the triples in chunk
    for total in dg.degrees_upto(cap):
        for m, batch in itertools.groupby(dg.splits(total, 3), key=lambda split: split[0]):
            try:
                size = len(g.paths(total))
                nq = dg.sub(total, m)
                _, suf = g.factor_indices(m, nq)  # la -> la(m, m+n+p)
                whole = c.twist(m, nq)
                gathered = []
                for _, n, p in batch:
                    mn = dg.add(m, n)
                    pre, _ = g.factor_indices(mn, p)  # la -> la(0, m+n)
                    terms = ((c.twist(m, n), pre), (c.twist(mn, p), None), (whole, None), (c.twist(n, p), suf))
                    gathered.append((total, m, n, terms))
            except Exception:
                if _failed(c, chunk, tol, rep):
                    return rep
                raise
            triples = size * len(gathered)
            if triples >= _CHUNK:  # a chunk of its own
                if _failed(c, chunk, tol, rep):
                    return rep
                held = 0
            chunk += gathered
            held += triples
            if held >= _CHUNK:
                if _failed(c, chunk, tol, rep):
                    return rep
                held = 0
    _failed(c, chunk, tol, rep)
    return rep


def _failed(c: Cocycle, chunk: list, tol: float, rep: CocycleReport) -> bool:
    """Check (C1), and the modulus of inexact first-leg values, on the
    splits gathered in chunk, and empty it.  Adds the triples checked to
    rep, up to and including the first failure, which it records; True on
    a failure."""
    g = c.graph
    splits = chunk.copy()
    chunk.clear()
    if not splits:
        return False
    columns = list(zip(*(terms for *_, terms in splits)))
    c1_ok = _agree(columns, tol)
    bad = ~c1_ok
    if any(t.ints is None for t, _ in columns[0]):  # an exact entry's modulus reads 1.0
        bad = bad | (np.abs(_gather(columns[0], lambda t: t.modulus) - 1.0) > tol)
    hits = np.flatnonzero(bad)
    if not hits.size:
        rep.triples_checked += bad.size
        return False
    hit = int(hits[0])
    rep.triples_checked += hit + 1
    i = hit
    for total, m, n, _ in splits:
        if i < len(g.paths(total)):
            break
        i -= len(g.paths(total))
    l1, rest = g.split(g.paths(total)[i], m)
    l2, l3 = g.split(rest, n)
    if not c1_ok[hit]:
        lhs = c(l1, l2) * c(g.compose(l1, l2), l3)
        rhs = c(l1, g.compose(l2, l3)) * c(l2, l3)
        rep.first_failure = ("C1", (l1, l2, l3), (lhs, rhs))
    else:
        rep.first_failure = ("modulus", (l1, l2), abs(complex(c(l1, l2))))
    return True


# -- cohomology comparison ---------------------------------------------------


@dataclass
class CohomologyCounterexample:
    reason: str
    witness: tuple


def are_cohomologous(c1: Cocycle, c2: Cocycle, cap):
    """Try to build b with c1 = (delta b) * c2, pinning b = 1 on color-1 edges.

    Unknown edge values are solved color by color from the square relations,
    longer paths are filled in by first-edge propagation, and the candidate is
    re-verified on every composable pair with total degree <= cap.  A
    counterexample only certifies that this propagation failed, not that no
    coboundary exists.
    """
    if c1.graph is not c2.graph:
        raise GraphMismatch("cocycles live on different graphs", (c1.graph, c2.graph))
    g = c1.graph
    cap = dg.as_degree(cap, g.k)

    def q(la, mu):
        m, n = la.degree, mu.degree
        i = g.path_index(dg.add(m, n))[g.compose(la, mu)]
        return c1.twist(m, n).phases[i] * c2.twist(m, n).phases[i].conj()

    b_edge: dict[str, Phase] = {e.ident: ONE for e in g.edges(1)}
    for j in range(2, g.k + 1):
        # relation graph on color-j edges: for each square (e,f) = (f2,e2)
        # with e, e2 of lower (already solved) color:
        #   b(f) * conj(b(f2)) = b(e2) * conj(b(e)) * q(e,f) * conj(q(f2,e2))
        adj: dict[str, list] = {e.ident: [] for e in g.edges(j)}
        for (e, f), (f2, e2) in g.skeleton.squares.items():
            ce, cf = g.edge(e).color, g.edge(f).color
            if cf != j or ce >= j:
                continue
            pe, pf = g.edge_path(e), g.edge_path(f)
            pf2, pe2 = g.edge_path(f2), g.edge_path(e2)
            ratio = b_edge[e2] * b_edge[e].conj() * q(pe, pf) * q(pf2, pe2).conj()
            adj[f].append((f2, ratio))  # b(f) = ratio * b(f2)
            adj[f2].append((f, ratio.conj()))
        for start in sorted(adj):
            if start in b_edge:
                continue
            b_edge[start] = ONE
            stack = [start]
            while stack:
                x = stack.pop()
                for y, ratio in adj[x]:
                    want = b_edge[x] * ratio.conj()  # b(y) from b(x) = ratio*b(y)
                    if y in b_edge:
                        if not _close(b_edge[y], want, 1e-9):
                            return CohomologyCounterexample(
                                "square relations over-determine an edge value",
                                (y, b_edge[y], want),
                            )
                    else:
                        b_edge[y] = want
                        stack.append(y)

    values: dict[Path, Phase] = {}

    def b(la: Path) -> Phase:
        if la.is_vertex:
            return ONE
        hit = values.get(la)
        if hit is None:
            if dg.total(la.degree) == 1:
                hit = b_edge[la.edges[0]]
            else:
                first = g.edge(la.edges[0])
                head = g.edge_path(first.ident)
                _, tail = g.split(la, dg.unit(g.k, first.color))
                hit = b(head) * b(tail) * q(head, tail).conj()
            values[la] = hit
        return hit

    for total in dg.degrees_upto(cap):
        for m, n in dg.splits(total, 2):
            for la in g.paths(total):
                mu, nu = g.split(la, m)
                db = b(mu) * b(nu) * b(la).conj()
                if not _close(db, q(mu, nu), 1e-9):
                    return CohomologyCounterexample(
                        "propagated b fails on a pair", (mu, nu, db, q(mu, nu))
                    )
    cob = Coboundary(g, b, name="solved")
    return cob
