"""Shared instance builders and brute-force oracles for the test suite.

Oracles here are deliberately naive (full enumeration) so that the
library's pruned searches are checked against independent ground truth.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, permutations, product

from transtile.core import Pattern, PartiteGraph, VertexId, mask_of
from transtile.generators import rng_for
from transtile.tiling import exact_transversal_factor_search


def random_instance(pattern: Pattern, n: int, p: float, seed: int) -> PartiteGraph:
    """Keep each allowed edge independently with probability p."""
    rng = random.Random(seed)
    edges = []
    for i, j in sorted(pattern.edges):
        for a in range(n):
            for b in range(n):
                if rng.random() < p:
                    edges.append((i, a, j, b))
    return PartiteGraph.from_edges(pattern, n, edges)


def edge_process_prefix(n: int, seed: int, t: int) -> PartiteGraph:
    """The first t edges of the seeded K3 edge process on n vertices per part.

    The process lists the 3n^2 cross edges of the complete K3 blow-up,
    pair (1, 2), then (1, 3), then (2, 3), with i then j ascending inside
    each pair, shuffles them with `random.Random(seed)`, and adds them in
    that order."""
    edges = [(p, i, q, j) for p, q in ((1, 2), (1, 3), (2, 3)) for i in range(n) for j in range(n)]
    random.Random(seed).shuffle(edges)
    return PartiteGraph.from_edges(Pattern.complete(3), n, []).add_edges(edges[:t])


def naive_delta_star(G: PartiteGraph) -> int:
    best = G.n
    for i, j in G.pattern.edges:
        for a in range(G.n):
            d = sum(G.has_edge((i, a), (j, b)) for b in range(G.n))
            best = min(best, d)
        for b in range(G.n):
            d = sum(G.has_edge((i, a), (j, b)) for a in range(G.n))
            best = min(best, d)
    return best


def naive_has_transversal_tuple(G: PartiteGraph, parts, sets) -> bool:
    """Any tuple with one vertex per listed set realizing all part-pair edges?"""
    pairs = [
        (x, y)
        for x, y in combinations(range(len(parts)), 2)
        if G.pattern.adjacent(parts[x], parts[y])
    ]
    for tup in product(*sets):
        if all(G.has_edge((parts[x], tup[x]), (parts[y], tup[y])) for x, y in pairs):
            return True
    return False


def naive_alpha_star(G: PartiteGraph, r: int) -> int:
    """Largest s admitting r equal-size sets, one per pattern-clique part
    tuple, with no transversal clique.  Full double enumeration."""
    best = 0
    for parts in G.pattern.clique_part_tuples(r):
        for s in range(G.n, best, -1):
            found = False
            for sets in product(*[combinations(range(G.n), s) for _ in parts]):
                if not naive_has_transversal_tuple(G, parts, sets):
                    found = True
                    break
            if found:
                best = s
                break
    return best


def table_alpha_pair(G: PartiteGraph) -> int:
    """alpha*_2 from a 2^n subset table per pattern-edge part pair.

    Sweeps every subset A of part pi once: its common non-neighbourhood
    T(A) in part pj satisfies T(A) = T(A - a) & T({a}), so one AND per
    table entry, and max_A min(|A|, |T(A)|) is the hole number.
    """
    n = G.n
    full = (1 << n) - 1
    best = 0
    for pi, pj in G.pattern.clique_part_tuples(2):
        non = [full & ~G.nbr_mask(pi, a, pj) for a in range(n)]
        t = [0] * (1 << n)
        t[0] = full
        for m in range(1, 1 << n):
            low = m & -m
            t[m] = t[m ^ low] & non[low.bit_length() - 1]
            best = max(best, min(m.bit_count(), t[m].bit_count()))
    return best


def mask(ids) -> int:
    return mask_of(ids)


def ids(masks) -> tuple[VertexId, ...]:
    """The vertices of per-part masks, by part and then index."""
    return tuple(
        VertexId(p, i)
        for p in range(1, len(masks))
        for i in range(masks[p].bit_length())
        if masks[p] >> i & 1
    )


def naive_has_perfect_matching(G: PartiteGraph, p: int, q: int, mp: int, mq: int) -> bool:
    """Perfect matching between the vertices of masks mp (part p) and mq
    (part q)?  Tries every bijection."""
    left = [v for v in range(G.n) if mp >> v & 1]
    right = [v for v in range(G.n) if mq >> v & 1]
    if len(left) != len(right):
        return False
    return any(
        all(G.has_edge((p, a), (q, b)) for a, b in zip(left, perm))
        for perm in permutations(right)
    )


def naive_random_spanning_subgraph(G: PartiteGraph, p: float, seed: int) -> PartiteGraph:
    """`generators.random_spanning_subgraph` through `from_edges`: the same
    draws in the same order, each kept edge checked and listed once."""
    kept = []
    for i, j in sorted(G.pattern.edges):
        rng = rng_for(seed, "pair", i, j)
        for a in range(G.n):
            for b in range(G.n):
                if G.has_edge((i, a), (j, b)) and rng.random() < p:
                    kept.append((i, a, j, b))
    return PartiteGraph.from_edges(G.pattern, G.n, kept)


def naive_verify_absorbing_property(G, R, trials=32, seed=0, exhaustive_limit=256):
    """(ok, failing, checks) of `absorbing.verify_absorbing_property` by one
    full exact factor search on G[R u U] per U, the same U in the same order."""
    k, n = G.k, G.n
    r = R.R
    outside = [[v for v in range(n) if not r[p] >> v & 1] for p in range(1, k + 1)]
    s_max = min(int(R.xi * n // k), min(len(o) for o in outside))
    if s_max < 1:
        return True, None, 0

    def factors(u_sets) -> bool:
        masks = [0] + [r[p] | mask_of(u_sets[p - 1]) for p in range(1, k + 1)]
        return exact_transversal_factor_search(G, masks)[0] is not None

    if s_max == 1 and math.prod(map(len, outside)) <= exhaustive_limit:
        candidates = [[[v] for v in pick] for pick in product(*outside)]
    else:
        candidates = []
        for trial in range(trials):
            rng = rng_for(seed, "absorb-verify", trial)
            s = rng.randint(1, s_max)
            candidates.append([sorted(rng.sample(o, s)) for o in outside])
    for checks, u_sets in enumerate(candidates, 1):
        if not factors(u_sets):
            return False, (0, *map(mask_of, u_sets)), checks
    return True, None, len(candidates)


def naive_is_factor(G: PartiteGraph, copies, masks) -> bool:
    """Do `copies` (verts[p-1] in part p) partition the vertices of the
    per-part `masks` into copies that carry every pattern edge?"""
    k = G.k
    for c in copies:
        if len(c.verts) != k:
            return False
        for i, j in G.pattern.edges:
            if not G.has_edge((i, c.verts[i - 1]), (j, c.verts[j - 1])):
                return False
    for p in range(1, k + 1):
        column = [c.verts[p - 1] for c in copies]
        if len(set(column)) != len(column) or mask_of(column) != masks[p]:
            return False
    return True
