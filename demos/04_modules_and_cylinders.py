"""The two module models: finite-path fibers and depth-filtered cylinders.

X_n is spanned by point masses on degree-n paths; the twisted product glues
fibers together with cocycle phases.  Y_n holds the same data as functions on
cylinder sets of the infinite-path space, stored at a chosen resolution depth
so everything stays a finite vector.
"""

from fractions import Fraction

import numpy as np

from kgt import Phase
from kgt.cocycle import c_theta
from kgt.kgraph import fixture_f1
from kgt.xmod import XElem, phi_x, x_act, x_inner, x_tmul
from kgt.ymod import CylElem, alpha, alpha_decompose, cylinder_density_check, y_inner, y_tmul

g = fixture_f1()
c = c_theta(g, Phase.from_turns(Fraction(1, 4)))

de = XElem.delta(g, g.edge_path("e"))
df = XElem.delta(g, g.edge_path("f"))

print("product of generators, both orders:")
print("  e*f coeffs:", x_tmul(c, de, df).coeffs)
print("  f*e coeffs:", x_tmul(c, df, de).coeffs)
print("  the ratio is the twist", complex(c(g.edge_path('f'), g.edge_path('e'))))

# the coefficient algebra C_0(Lambda^0) is the fiber X_0: vertex functions are
# degree-0 elements, their coefficients in vertex order
ip = x_inner(de, de)
print("\n<delta_e, delta_e> in X_0:", ip.coeffs)
a = XElem.delta(g, g.vertex_path("*"))
print("left action of the vertex indicator:", x_act(a, de, side="left").coeffs)
print("phi(a) at degree (1,1):", phi_x(a, (1, 1)).matrix.real)

# cylinder model: the same element viewed at two depths
h = CylElem.delta(g, g.paths((1, 0))[0])
print("\ncylinder indicator at its own depth:", h.coeffs)
print("lifted to depth (2,1):", h.lift((2, 1)).coeffs, "(same function, finer chart)")

hh = y_tmul(c, h, CylElem.delta(g, g.paths((0, 1))[0]))
print("a cylinder product lands in module degree", hh.module_degree, "at depth", hh.depth)
print("its inner product is a tail function:", y_inner(hh, hh).coeffs)

# alpha embeds a finite-path element as a cylinder at a lower module degree,
# and alpha_decompose inverts that: sections times a tail function
f = XElem(g, (2, 1), np.array([0.5 + 0.25j]))
emb = alpha((1, 0), (2, 1), f)
dec = alpha_decompose(f, (1, 0))
print("\nalpha embedding has module degree", emb.module_degree, "and depth", emb.depth)
print("decomposition returns", len(dec.xi), "prefix sections and", len(dec.eta), "tail sections")

# at every depth the cylinder span is everything: exact dimension count
rep = cylinder_density_check(g, g.paths((1, 1)), (2, 2))
print("\ncylinder spans fill the depth-(2,2) chart:", rep.ok)
