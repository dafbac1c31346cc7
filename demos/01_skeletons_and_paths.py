"""Build a two-colored graph from scratch and poke at its path category.

A graph here is a finite set of vertices, edges in k colors, and a square
table pairing two-colored edge words that represent the same length-2 path.
Validation either accepts the data or points at the exact datum that breaks.
"""

from kgt import make_skeleton, validate_skeleton
from kgt.errors import KgtError

# two vertices, one loop pair per color, arranged as a 2-cycle in color 1
skel = make_skeleton(
    k=2,
    vertices=["u", "v"],
    edges=[
        ("a", 1, "u", "v"),  # color-1 edge into u
        ("b", 1, "v", "u"),
        ("p", 2, "u", "u"),  # color-2 loops
        ("q", 2, "v", "v"),
    ],
    squares=[(("a", "q"), ("p", "a")), (("b", "p"), ("q", "b"))],
)
g = validate_skeleton(skel)
print(f"accepted: {len(g.vertices)} vertices, {len(g.all_edges)} edges, rank {g.k}")

print("\npaths by degree:")
for n in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]:
    print(f"  {n}: {[str(la) for la in g.paths(n)]}")

# every path of mixed degree factors uniquely at each split point
la = g.paths((2, 1))[0]
print("\nsplits of", la)
for m in [(1, 0), (0, 1), (2, 0)]:
    pre, suf = g.split(la, m)
    print(f"  at {m}: {pre} * {suf}")

# now corrupt the square table and watch the validator name the problem
broken = dict(skel.squares)
broken[("a", "q")] = ("q", "b")
try:
    validate_skeleton(make_skeleton(skel.k, skel.vertices, skel.edges, broken))
except KgtError as exc:
    print("\nrejected as expected:", exc)
    print("witness:", exc.witness)

# source-freeness and growth of the path spaces
ok, witness = g.is_source_free()
print("\nsource-free:", ok)
for n in [(1, 0), (0, 1), (2, 2)]:
    for v, ix in sorted(g.by_range(n).items()):
        print("  paths into", v, "of degree", n, "->", len(ix))
