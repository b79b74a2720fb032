"""Partite degrees and multipartite holes, on instances small enough to
inspect by hand.

A blow-up instance keeps one independent set per pattern vertex; the two
quantities that control everything downstream are the partite minimum
degree (the worst bipartite degree along any pattern edge) and the hole
sizes (how large a family of per-part subsets can avoid spanning any
transversal clique).
"""

import sys

from transtile import (
    Pattern,
    alpha_star_exact,
    certify_no_hole,
    complete_blowup,
    delta_star,
    random_spanning_subgraph,
    verify_hole,
)

K3 = Pattern.complete(3)

print("-- complete blow-up: no holes at all --")
G = complete_blowup(K3, 6)
print(f"k={G.k} n={G.n} delta*={delta_star(G)}")
for r in (2, 3):
    rep = alpha_star_exact(G, r)
    print(f"  alpha*_{r} = {rep.alpha} ({rep.method}, {rep.explored} branch nodes)")

print()
print("-- random spanning subgraph: holes appear as edges thin out --")
for p in (0.9, 0.6, 0.3):
    H = random_spanning_subgraph(G, p, seed=5)
    rep = alpha_star_exact(H, 2)
    print(f"p={p}: delta*={delta_star(H)} alpha*_2={rep.alpha}")
    if rep.alpha > 0:
        w = rep.witness
        print(f"  witness hole on parts {w.parts}: {[sorted(s) for s in w.sets]}")
        # a certificate is cheap to re-check, and re-checking is the point
        if not verify_hole(H, w):
            sys.exit(f"witness on parts {w.parts} is not a hole")

print()
print("-- certification decides one hole size exactly, with a counterexample --")
ok, regime, cert = certify_no_hole(G, r=2, s=1)
print(f"complete instance, s=1: certified={ok} via {regime}")
H = random_spanning_subgraph(G, 0.4, seed=11)
ok, regime, cert = certify_no_hole(H, r=2, s=2)
print(f"sparse instance, s=2: certified={ok} via {regime}")
if cert is not None:
    print(f"  counterexample on parts {cert.parts}: {[sorted(s) for s in cert.sets]}")
