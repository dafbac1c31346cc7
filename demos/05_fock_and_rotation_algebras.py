"""Truncated Fock representations: concrete matrices for the twisted algebra.

The Fock space stacks the module fibers up to a degree cap; creation
operators are strictly block-lower matrices there.  On the rank-2 one-vertex
graph the two edge creations generate a rotation algebra: their commutation
phase on the interior of the truncation is exactly the cocycle angle.
"""

from fractions import Fraction

import numpy as np

from kgt import Phase
from kgt.cocycle import c_theta, trivial_cocycle
from kgt.fock import FockSpace, ck_relations_check, creation_x, rep_axioms_check
from kgt.kgraph import fixture_f1, fixture_f2
from kgt.xmod import XElem

g = fixture_f1()
sp = FockSpace(g, (2, 2))
print("Fock space over the one-vertex rank-2 graph, cap (2,2): dim", sp.dim)
print("basis blocks:", {n: sp.block_slice(n) for n in [(0, 0), (1, 0), (1, 1)]})

for turns in [Fraction(0), Fraction(1, 6), Fraction(1, 4)]:
    c = c_theta(g, Phase.from_turns(turns))
    se = creation_x(sp, c, XElem.delta(g, g.edge_path("e")))
    sf = creation_x(sp, c, XElem.delta(g, g.edge_path("f")))
    fe = (sf @ se).matrix
    ef = (se @ sf).matrix
    i, j = np.argwhere(ef != 0)[0]
    print(f"theta = {turns} turn: S_f S_e / S_e S_f = {fe[i, j] / ef[i, j]:.6f}")

# the standard relations hold wherever the truncation has room
c = c_theta(g, Phase.from_turns(Fraction(1, 4)))
print("\nrepresentation axioms:", rep_axioms_check(sp, c).ok)
print("generator relations on the truncation (2,2):", ck_relations_check(sp, c).ok)

# same machinery on a graph with two vertices: creations track sources
g2 = fixture_f2()
sp2 = FockSpace(g2, (3,))
s = creation_x(sp2, trivial_cocycle(g2), XElem.delta(g2, g2.edge_path("a")))
print("\ntwo-cycle graph, creation by the edge a:")
print(np.array2string(s.matrix.real, precision=0))
print("isometry on its support:", np.allclose((s.adjoint() @ s).matrix, np.diag(np.diag((s.adjoint() @ s).matrix))))
