"""Shared instance builders and brute-force oracles for the test suite.

Oracles here are deliberately naive (full enumeration) so that the
library's pruned searches are checked against independent ground truth.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations, product

from transtile.core import Pattern, PartiteGraph, mask_of


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


def mask(ids) -> int:
    return mask_of(ids)


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
