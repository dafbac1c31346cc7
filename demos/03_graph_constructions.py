"""Three ways to manufacture new graphs, each with its own cocycle supply.

Cartesian products merge two graphs color-disjointly, skew products unfold a
graph over a finite group labeling, and crossed products adjoin lattice
colors along a vertex/edge automorphism.  Each construction comes with a
matching way to produce cocycles on the result.
"""

from fractions import Fraction

from kgt import Phase, check_cocycle
from kgt.cocycle import bicharacter_cocycle, c_f, c_omega, c_sigma, product_cocycle, skew_lift
from kgt.constructions import ZlAction, cartesian, crossed_product, cyclic_group, skew_product
from kgt.kgraph import fixture_f2

f2 = fixture_f2()  # two vertices u, v with a color-1 two-cycle a, b
third = Phase.from_turns(Fraction(1, 3))
base = bicharacter_cocycle(f2, [[third]])

# Cartesian product: rank adds, paths are pairs of paths
prod = cartesian(f2, f2)
print("cartesian:", len(prod.vertices), "vertices, rank", prod.k)
la = prod.paths((2, 1))[0]
print("  a product path:", la, "->", tuple(str(p) for p in prod.project(la)))
cp = product_cocycle(base, base, prod)
print("  factorwise cocycle passes:", check_cocycle(cp, (2, 2), tol=0.0).ok)

# skew product: vertices fan out over Z/2, edge labels move the group leg
skew = skew_product(f2, cyclic_group(2), {"a": "1", "b": "0"})
print("\nskew:", sorted(skew.vertices))
lifted = skew_lift(base, skew)
print("  lifted cocycle passes:", check_cocycle(lifted, (3,), tol=0.0).ok)

# crossed product: adjoin one lattice color along the swap automorphism
swap = ZlAction(f2, ({"u": "v", "v": "u"},), ({"a": "b", "b": "a"},))
gamma = crossed_product(f2, swap, cap=(3,))
print("\ncrossed: rank", gamma.k, "with lattice window", gamma.cap)
mu = gamma.paths((1, 2))[0]
print("  a mixed path:", mu, "-> base part", gamma.project(mu)[0], ", lattice part", gamma.project(mu)[1])

# the three standing families on a crossed product
families = [
    ("functor family", c_f(gamma, {"a": third, "b": third})),
    ("lattice family", c_omega(gamma, [Phase.from_turns(Fraction(1, 4))])),
    ("coordinate twist", c_sigma(gamma, [[Phase.from_turns(Fraction(1, 8))]])),
]
print()
for name, c in families:
    rep = check_cocycle(c, (2, 2), tol=0.0)
    print(f"  {name} ({c.name}): ok={rep.ok}, "
          f"{rep.triples_checked} triples checked")
