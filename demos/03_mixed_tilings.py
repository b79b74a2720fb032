"""Mixed tilings on cycle blow-ups and the leftover edge budgets.

Each mixed copy takes one vertex per part and carries either a 3-vertex
path on consecutive parts or two disjoint edges; the rest ride along as
isolated fillers.  A greedy that only adds copies stops when no shape
fits inside the leftover (addition-maximal), and on the instance below
it can strand a leftover.  Such a tiling need not be exchange-closed:
some copy can be traded, together with leftover vertices, for two
disjoint copies.  The leftover edge budgets are promised only on
exchange-closed tilings, and above a modest degree floor they leave no
room for a leftover at all.  This demo strands a tiling by hand, then
applies the exchanges and additions that the invariant check reports
until the leftover is gone, and finally shows that
`maximal_mixed_tiling`, which closes under both moves, never strands on
this instance.
"""

from itertools import product

from transtile import (
    MixedCopy,
    MixedTiling,
    Pattern,
    check_appendix_invariants,
    complete_blowup,
    delta_star,
    maximal_mixed_tiling,
)
from transtile.core import bits

k, n, s = 4, 5, 2
G = complete_blowup(Pattern.cycle(k), n)
# cut all edges between the first s vertices of consecutive parts: a
# transversal tuple drawn from those blocks is edgeless, hence shapeless
dels = []
for a in range(1, k + 1):
    b = a % k + 1
    dels.extend((a, x, b, y) for x in range(s) for y in range(s))
G = G.delete_edges(dels)
floor = (2 / k + 0.1) * n
print(f"k={k} n={n}: delta*={delta_star(G)}, degree floor {floor:.1f}")


def add(T, placement):
    """T plus one copy of the reported placement, found in the leftover."""
    kind, *anchor = placement
    starts = (anchor[0], anchor[0] % k + 1) if kind == "p3" else anchor
    left = T.leftover_masks()
    for tup in product(*(list(bits(left[p])) for p in range(1, k + 1))):
        if all(G.has_edge((a, tup[a - 1]), (a % k + 1, tup[a % k])) for a in starts):
            return MixedTiling(T.copies + (MixedCopy(kind, tuple(anchor), tup),), n, k)


# a greedy that covers the unblocked vertices first strands the blocks
T = MixedTiling(
    tuple(MixedCopy("p3", (1,), (j,) * k) for j in range(s, n)), n, k
)
print()
# an exchange can hand a vertex of the replaced copy back to the leftover,
# so additions are checked again after each one
while True:
    rep = check_appendix_invariants(G, T)
    paths = sum(c.kind == "p3" for c in T.copies)
    print(
        f"{paths} path + {len(T.copies) - paths} matching copies, leftover "
        f"{T.leftover_per_part} per part: addition-maximal={rep.maximal}, "
        f"{len(rep.violations)} budget violations, ok={rep.ok}"
    )
    if rep.extension is not None:
        print(f"  addition: {rep.extension} fits in the leftover")
        T = add(T, rep.extension)
    elif rep.exchange is not None:
        idx, first, second = rep.exchange
        print(
            f"  exchange: copy {idx} {T.copies[idx].verts} -> "
            f"{first.kind} {first.verts} + {second.kind} {second.verts}"
        )
        T = MixedTiling(T.copies[:idx] + T.copies[idx + 1 :] + (first, second), n, k)
    else:
        break

stranded = sum(
    maximal_mixed_tiling(G, seed=seed).leftover_per_part > 0 for seed in range(200)
)
print()
print(f"maximal_mixed_tiling: {stranded}/200 seeds strand a leftover.")
print("Above the degree floor the budgets that exchange-closure forces leave")
print("no room for a leftover, so every exchange-closed tiling here is perfect.")
