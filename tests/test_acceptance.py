"""End-to-end acceptance battery.

Each test prints one summary line (run with -s to see them all on one screen):

    python3 -m pytest tests/test_acceptance.py -s

The battery is deliberately heavier than the unit tests: exhaustive small
degree enumeration, 25-instance random sweeps, and a 1000-case fuzz of the
skeleton validator.  Every test carries a wall-clock budget.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

import kgt.degrees as dg
from kgt.cocycle import (
    bicharacter_cocycle,
    c_f,
    c_omega,
    c_sigma,
    c_theta,
    check_cocycle,
    product_cocycle,
    skew_lift,
    tabulate,
    trivial_cocycle,
)
from kgt.constructions import (
    ZlAction,
    cartesian,
    crossed_product,
    cyclic_group,
    identity_action,
    skew_product,
)
from kgt.errors import KgtError
from kgt.fock import (
    FockSpace,
    cp_identity_check,
    creation_x,
    psi_check,
    zeta_surjectivity_check,
)
from kgt.kgraph import fixture_f1, fixture_f2, make_skeleton, validate_skeleton
from kgt.phases import Phase
from kgt.verify import Instance, SuiteConfig, default_instances, random_cocycle, random_kgraph, run_suite
from kgt.xmod import XElem, x_act, x_inner, x_tmul
from kgt.ymod import CylElem, y_inner, y_tmul


@contextmanager
def _criterion(num, label, budget):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nacceptance {num}/8 {label}: FAIL ({time.monotonic() - t0:.2f}s)")
        raise
    dt = time.monotonic() - t0
    print(f"\nacceptance {num}/8 {label}: PASS ({dt:.2f}s)")
    assert dt < budget, f"{label}: {dt:.2f}s over the {budget}s budget"


def _swap_action(g):
    return ZlAction(g, ({"u": "v", "v": "u"},), ({"a": "b", "b": "a"},))


def _turn(p, q):
    return Phase.from_turns(Fraction(p, q))


# -- 1: every cocycle constructor stays exact --------------------------------


def test_cocycle_constructors_verify_exactly():
    with _criterion(1, "cocycle constructors verify exactly", 5.0):
        f1, f2 = fixture_f1(), fixture_f2()
        crossed2 = crossed_product(f2, _swap_action(f2))
        crossed1 = crossed_product(f1, identity_action(f1))
        skew2 = skew_product(f2, cyclic_group(2), {"a": "1", "b": "0"})
        skew1 = skew_product(f1, cyclic_group(2), {"e": "1", "f": "0"})
        cart22 = cartesian(f2, f2)
        cart12 = cartesian(f1, f2)

        bich2 = bicharacter_cocycle(f2, [[_turn(1, 3)]])
        theta1 = c_theta(f1, _turn(1, 8))
        # unit-modulus functor with value exp(i) on every base edge, so the
        # functor value on a path is exp(i * total degree)
        one_rad = {e.ident: Phase.exact_radians(1) for e in f2.all_edges}

        built = [
            c_f(crossed2, one_rad),
            c_omega(crossed2, [_turn(1, 4)]),
            c_sigma(crossed1, [[_turn(1, 8)]]),
            skew_lift(bich2, skew2),
            skew_lift(theta1, skew1),
            product_cocycle(bich2, bich2, cart22),
            product_cocycle(theta1, bich2, cart12),
        ]
        for c in built:
            cap = (3,) * c.graph.k
            assert all(p.is_exact for p in tabulate(c, cap).values()), c.name
            rep = check_cocycle(c, cap, tol=0.0)
            assert rep.ok, (c.name, rep)


# -- 2: product axioms on the full small-degree bases ------------------------


def _x_basis_axioms(g, c, cap, tol, rng):
    """Exhaustive product table, associativity over every three-way split,
    and the two-step inner-product rule on the point-mass basis of the
    finite-path fibers."""
    by_deg = {d: g.paths(d) for d in dg.degrees_upto(cap)}
    prods = {}
    for m, pm in by_deg.items():
        for n, pn in by_deg.items():
            if not dg.leq(dg.add(m, n), cap):
                continue
            for la in pm:
                for mu in pn:
                    got = x_tmul(c, XElem.delta(g, la), XElem.delta(g, mu))
                    if la.source == mu.range:
                        want = complex(c(la, mu)) * XElem.delta(g, g.compose(la, mu))
                        assert got.close(want, tol), ("table", la, mu)
                        prods[(la, mu)] = got
                    else:
                        assert got.norm() <= tol, ("table-zero", la, mu)

    zero = dg.zero(g.k)
    for t, pt in by_deg.items():
        for w in pt:
            for a, b, _d in dg.splits(t, 3):
                u = g.segment(w, zero, a)
                v = g.segment(w, a, dg.add(a, b))
                z = g.segment(w, dg.add(a, b), t)
                left = x_tmul(c, prods[(u, v)], XElem.delta(g, z))
                right = x_tmul(c, XElem.delta(g, u), prods[(v, z)])
                assert left.close(right, tol), ("assoc", w, (a, b))

    for t, pt in by_deg.items():
        for w in pt:
            for m, _n in dg.splits(t, 2):
                la, mu = g.split(w, m)
                fh = prods[(la, mu)]
                lhs = x_inner(fh, fh)
                du, dv = XElem.delta(g, la), XElem.delta(g, mu)
                rhs = x_inner(dv, x_act(x_inner(du, du), dv, side="left"))
                assert lhs.close(rhs, tol), ("inner-diag", w, m)

    # cross terms and zero bookkeeping, sampled
    degs = [
        (m, n)
        for m in by_deg
        for n in by_deg
        if dg.leq(dg.add(m, n), cap) and by_deg[m] and by_deg[n]
    ]
    for _ in range(200):
        m, n = degs[rng.integers(len(degs))]
        la1, la2 = (by_deg[m][rng.integers(len(by_deg[m]))] for _ in range(2))
        mu1, mu2 = (by_deg[n][rng.integers(len(by_deg[n]))] for _ in range(2))
        lhs = x_inner(
            x_tmul(c, XElem.delta(g, la1), XElem.delta(g, mu1)),
            x_tmul(c, XElem.delta(g, la2), XElem.delta(g, mu2)),
        )
        rhs = x_inner(
            XElem.delta(g, mu1),
            x_act(x_inner(XElem.delta(g, la1), XElem.delta(g, la2)), XElem.delta(g, mu2), side="left"),
        )
        assert lhs.close(rhs, tol), ("inner-cross", (la1, mu1), (la2, mu2))
    for _ in range(5):
        m, n = degs[rng.integers(len(degs))]
        out = x_tmul(c, XElem.zeros(g, m), XElem.delta(g, by_deg[n][0]))
        assert out.norm() <= tol, ("zero-arg", m, n)


def _y_basis_axioms(g, c, cap, tol, rng):
    """The same three facts for the cylinder fibers, plus the factorization
    of every depth-cap basis vector through a point mass and a tail."""
    by_deg = {d: g.paths(d) for d in dg.degrees_upto(cap)}
    zero = dg.zero(g.k)
    yprods = {}
    for m, pm in by_deg.items():
        for n, pn in by_deg.items():
            if not dg.leq(dg.add(m, n), cap):
                continue
            for la in pm:
                for mu in pn:
                    got = y_tmul(c, CylElem.delta(g, la), CylElem.delta(g, mu))
                    if la.source == mu.range:
                        want = complex(c(la, mu)) * CylElem.delta(g, g.compose(la, mu))
                        assert got.close(want, tol), ("ytable", la, mu)
                        yprods[(la, mu)] = got
                    else:
                        assert got.sup_norm() <= tol, ("ytable-zero", la, mu)

    for t, pt in by_deg.items():
        for w in pt:
            for a, b, _d in dg.splits(t, 3):
                u = g.segment(w, zero, a)
                v = g.segment(w, a, dg.add(a, b))
                z = g.segment(w, dg.add(a, b), t)
                left = y_tmul(c, yprods[(u, v)], CylElem.delta(g, z))
                right = y_tmul(c, CylElem.delta(g, u), yprods[(v, z)])
                assert left.close(right, tol), ("yassoc", w, (a, b))

    for t, pt in by_deg.items():
        for w in pt:
            for m, _n in dg.splits(t, 2):
                la, mu = g.split(w, m)
                fh = yprods[(la, mu)]
                lhs = y_inner(fh, fh)
                du, dv = CylElem.delta(g, la), CylElem.delta(g, mu)
                rhs = y_inner(dv, y_tmul(c, y_inner(du, du), dv))
                assert lhs.close(rhs, tol), ("yinner-diag", w, m)

    # every depth-cap basis vector of Y_m is the product of the point mass at
    # its length-m prefix with the module-degree-0 indicator of its tail
    words = [(w, m) for t, pt in by_deg.items() for w in pt for m in dg.degrees_upto(t)]
    for _ in range(60):
        w, m = words[rng.integers(len(words))]
        la, tail = g.split(w, m)
        fine = CylElem.delta(g, w, module_degree=m)
        built = y_tmul(c, CylElem.delta(g, la), CylElem.delta(g, tail, module_degree=zero))
        assert fine.close(built, tol), ("fine-basis", w, m)
    # lifting a factor to a coarser-resolution depth never changes a product
    keys = list(yprods)
    for _ in range(40):
        if not keys:
            break
        la, mu = keys[rng.integers(len(keys))]
        room = dg.sub(cap, la.degree)
        extra = tuple(int(rng.integers(r + 1)) for r in room)
        lifted = CylElem.delta(g, la).lift(dg.add(la.degree, extra))
        got = y_tmul(c, lifted, CylElem.delta(g, mu))
        assert got.close(yprods[(la, mu)], tol), ("lift", la, mu, extra)


def test_product_axioms_on_full_bases():
    with _criterion(2, "product axioms on the full small-degree bases", 60.0):
        for i in range(25):
            k = (2, 1, 3)[i % 3]
            g = random_kgraph(
                4100 + i,
                k=k,
                max_vertices=2 if k == 3 else 3,
                max_shifts=1 if k == 3 else 2,
            )
            c = random_cocycle(8900 + 31 * i, g)
            cap = (2,) * k
            tol = 1e-12 if all(p.is_exact for p in tabulate(c, cap).values()) else 1e-9
            rng = np.random.default_rng([2, i])
            _x_basis_axioms(g, c, cap, tol, rng)
            _y_basis_axioms(g, c, cap, tol, rng)


# -- 3 and 4: the registry suites over fixtures plus the random battery ------


def _fixture_instances():
    f1 = fixture_f1()
    f2 = fixture_f2()
    angles = [
        ("theta=0", Phase.one()),
        ("theta=quarter-turn", _turn(1, 4)),
        ("theta=1rad", Phase.exact_radians(1)),
    ]
    out = [Instance(f"F1/{name}", f1, c_theta(f1, p), True) for name, p in angles]
    out.append(Instance("F2/trivial", f2, trivial_cocycle(f2), True))
    out.append(Instance("F2/bicharacter", f2, bicharacter_cocycle(f2, [[_turn(1, 3)]]), True))
    return out


def _run_selected(selectors):
    cfg = SuiteConfig(include_fixtures=False)
    instances = _fixture_instances() + default_instances(cfg)
    rep = run_suite(selectors, config=cfg, instances=instances)
    counts = rep.counts()
    assert counts.get("fail", 0) == 0, rep.failures()
    assert counts.get("pass", 0) > 0
    return counts


def test_depth_map_and_covariance_suite():
    with _criterion(3, "depth-map and covariance identity suite", 120.0):
        _run_selected(
            [
                "lemma-5.3i",
                "lemma-5.3ii",
                "lemma-5.3iii",
                "lemma-5.3iv",
                "lemma-5.3v",
                "lemma-5.4",
                "lemma-5.5x",
                "lemma-5.5y",
                "lemma-clsv5.12-y",
                "lemma-5.8",
                "eq-nica-cov-for-nice-thetas",
            ]
        )


def test_shift_action_and_compacts_suite():
    with _criterion(4, "shift-action and compacts identity suite", 60.0):
        _run_selected(
            [
                "eq-for-cp-covariance-of-zeta",
                "eq-left-action-in-X",
                "eq-left-action-in-Y",
                "eq-action-decomp-for-alpha",
                "eq-left-action-of-f-tilde-as-compacts",
                "def-cylinder-sets",
                "lemma-6.3",
            ]
        )


# -- 5: rotation-algebra commutation ------------------------------------------


def test_rotation_commutation_smoke():
    with _criterion(5, "rotation-algebra commutation smoke", 1.0):
        f1 = fixture_f1()
        pe = XElem.delta(f1, f1.edge_path("e"))
        pf = XElem.delta(f1, f1.edge_path("f"))
        for ph in [Phase.one(), _turn(1, 6), _turn(1, 4)]:
            c = c_theta(f1, ph)
            # brute-force oracle for the phase: compare the two product orders
            # of the generators as module elements
            fe = x_tmul(c, pf, pe).coeffs
            ef = x_tmul(c, pe, pf).coeffs
            i = int(np.nonzero(ef)[0][0])
            z = fe[i] / ef[i]
            assert abs(z - complex(ph)) <= 1e-12

            sp = FockSpace(f1, (2, 2))
            se = creation_x(sp, c, pe)
            sf = creation_x(sp, c, pf)
            assert (sf @ se).close_on_interior(complex(ph) * (se @ sf), (1, 1), 1e-12)


# -- 6: creation-model axioms and the covariance identity --------------------


def _model_fixtures():
    f1, f2 = fixture_f1(), fixture_f2()
    cart = cartesian(f2, f2)
    skew = skew_product(f2, cyclic_group(2), {"a": "1", "b": "0"})
    crossed = crossed_product(f2, _swap_action(f2))
    bich2 = bicharacter_cocycle(f2, [[_turn(1, 3)]])
    return [
        (f1, c_theta(f1, _turn(1, 8))),
        (f2, bich2),
        (cart, product_cocycle(bich2, bich2, cart)),
        (skew, skew_lift(bich2, skew)),
        (crossed, c_omega(crossed, [_turn(1, 4)])),
    ]


def test_creation_model_and_covariance():
    with _criterion(6, "creation-model axioms and covariance identity", 120.0):
        # the truncated-lattice fixture is excluded: these identities assume a
        # graph without sources
        for g, c in _model_fixtures():
            N = (2,) * g.k
            D = (4,) * g.k
            sp = FockSpace(g, N, depth=D)
            rep = psi_check(sp, c)
            assert rep.ok, (c.name, rep.first_failure)
            for v in g.vertices:
                a = XElem.delta(g, g.vertex_path(v))
                for n in dg.degrees_upto(N):
                    rep = cp_identity_check(sp, c, a, n)
                    assert rep.ok, (c.name, v, n, rep.first_failure)


# -- 7: cylinder reconstruction from section data ----------------------------


def test_cylinder_reconstruction():
    with _criterion(7, "cylinder reconstruction from sections", 30.0):
        f1, f2 = fixture_f1(), fixture_f2()
        cases = [
            (f1, c_theta(f1, _turn(1, 8)), (2, 2), (4, 4)),
            (f2, bicharacter_cocycle(f2, [[_turn(1, 3)]]), (2,), (4,)),
        ]
        for g, c, N, D in cases:
            sp = FockSpace(g, N, depth=D)
            for n in dg.degrees_upto(N):
                rep = zeta_surjectivity_check(sp, c, n)
                assert rep.ok, (c.name, n, rep.first_failure)
                assert rep.cases_checked > 0


# -- 8: the validator rejects every corrupted square -------------------------


def test_validator_rejects_corrupted_squares():
    with _criterion(8, "corrupted squares all rejected", 30.0):
        used = set()
        for i in range(1000):
            k = 2 + (i % 2)
            g = random_kgraph(90000 + i, k=k, max_vertices=3 if k == 2 else 2)
            skel = g.skeleton
            rng = np.random.default_rng([11, i])
            keys = sorted(skel.squares)
            key = keys[int(rng.integers(len(keys)))]
            old = skel.squares[key]

            options = ["swap-value-order"]
            if len(keys) >= 2:
                options.append("copy-other-value")
            col = g.edge(old[1]).color
            others = [e.ident for e in g.edges(col) if e.ident != old[1]]
            if others:
                options.append("replace-value-edge")
            strat = options[int(rng.integers(len(options)))]
            used.add(strat)

            squares = dict(skel.squares)
            touched = set(key) | set(old)
            if strat == "swap-value-order":
                squares[key] = (old[1], old[0])
            elif strat == "copy-other-value":
                rest = [kk for kk in keys if kk != key]
                other = rest[int(rng.integers(len(rest)))]
                squares[key] = skel.squares[other]
                touched |= set(other) | set(skel.squares[other])
            else:
                squares[key] = (old[0], others[int(rng.integers(len(others)))])
                touched |= set(squares[key])

            bad = make_skeleton(skel.k, skel.vertices, skel.edges, squares)
            try:
                validate_skeleton(bad)
            except KgtError as exc:
                named = str(exc) + repr(exc.witness)
                assert any(e in named for e in touched), (i, strat, named)
            else:
                raise AssertionError(f"corruption {i} ({strat}) was accepted")
        assert used == {"swap-value-order", "copy-other-value", "replace-value-edge"}
