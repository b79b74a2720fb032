"""Transversal tilings: greedy packing, exact factor decisions, and the
construction that caps how low the degree threshold can go.

A transversal copy takes one vertex per part and induces the pattern.
Greedy packing always stops within one hole of a factor; the exact
backtracking search decides factor existence outright, and its refusal
is a proof, not a timeout.
"""

from transtile import (
    Pattern,
    alpha_star_exact,
    complete_blowup,
    delta_star,
    exact_transversal_factor_search,
    find_transversal_cycle,
    find_transversal_path,
    greedy_clique_tiling,
    random_spanning_subgraph,
    space_barrier,
)
from transtile.core import mask_of

K3 = Pattern.complete(3)
C4 = Pattern.cycle(4)

print("-- greedy packing vs the hole bound --")
G = random_spanning_subgraph(complete_blowup(K3, 6), 0.55, seed=9)
tiling = greedy_clique_tiling(G)
alpha = alpha_star_exact(G, 3).alpha
print(
    f"n={G.n}: greedy placed {len(tiling.copies)} copies, "
    f"leftover {tiling.leftover_per_part} per part, alpha*_3={alpha}"
)
print(f"  leftover never exceeds the hole size: {tiling.leftover_per_part} <= {alpha}")

print()
print("-- exact factor decision, both answers carry evidence --")
full, stats = exact_transversal_factor_search(G)
if full is None:
    print(f"no factor exists (search closed {stats.nodes} nodes, that is the proof)")
else:
    print(f"factor found with {len(full.copies)} copies after {stats.nodes} nodes")

print()
print("-- transversal paths thread consecutive parts through allowed sets --")
# a vertex set per part is a list of bitmasks, slot p for part p (slot 0 unused)
H = complete_blowup(C4, 5)
X = [0, mask_of((0, 1)), mask_of(range(4)), mask_of(range(4)), mask_of((0, 1))]
path = find_transversal_path(H, 1, 4, X)
print(f"path across parts 1..4: {[tuple(v) for v in path]}")
cyc = find_transversal_cycle(H, [0] + [H.full_mask] * 4)
print(f"closing it into a cycle: {[(p + 1, v) for p, v in enumerate(cyc.verts)]}")

print()
print("-- the space barrier: a small blocker meets every cycle, so no cycle factor --")
B, U, report = space_barrier(C4, 8, seed=5)
print(f"n={B.n} delta*={delta_star(B)} blocker sizes {[U[p].bit_count() for p in (1, 2, 3, 4)]}")
outside = [0] + [B.full_mask & ~U[p] for p in range(1, 5)]
print(f"cycle avoiding the blocker: {find_transversal_cycle(B, outside)}")
print(f"full factor: {exact_transversal_factor_search(B)[0]}")
print("every transversal cycle must pass through the blocker, and the blocker")
print("is too small to cover a factor, so both answers above are None")
