"""Hole analysis for balanced blow-up instances.

An r-partite *hole* of size s consists of r equal-size vertex subsets
U_1, ..., U_r, one in each part of an r-tuple of parts that is a clique
in the pattern, such that no transversal clique picks one vertex from
every U_i.  The hole number alpha_r is the largest such s; it measures
how far the instance is from having well-spread edges, and every tiling
guarantee in this package degrades as it grows.

Holes are only hunted on pattern-clique part tuples: across a
non-adjacent part pair the empty relation would make every pair of
subsets a hole and the quantity degenerates.

Every exact answer rests on one decision per part tuple, "is there an
s-hole here?", set up once per tuple and asked for any s.  For r=2 it
is the pair search: a subset search over one part that tracks the
common non-neighbourhood in the other and cuts a branch once too few
vertices can still extend it.  For r>=3 it reduces to the pair search.
Fixing the sets in the first r-2 parts leaves the link graph H between
the last two: ab is an edge when a clique through a fixed vertex passes
through a and b, and the fixed sets complete to an s-hole exactly when
H has a bipartite s-hole.  The sets of parts 1..r-3 are branched on as
s-subsets, keeping the cliques still realizable as one bitmask, and
the set of part r-2 vertex by vertex, cutting a branch once its H has
no s-hole (H only grows along a branch).

Both exact entries share one decision loop: `_decisions` applies the
one refusal rule (n above a cap is refused for r>=3 only; r=2 has no
cap) and yields each clique part tuple with its decision, and
`_certificate` turns the masks of a found hole into a
`HoleCertificate` that `verify_hole` has checked.  `certify_no_hole`
asks each tuple once for the given s and certifies its first hole.
Having an s-hole is monotone in s (dropping one vertex from each set of
an s-hole leaves an (s-1)-hole), so `alpha_star_exact` asks each tuple
for s = best+1, best+2, ... and stops at the first absence; it
certifies its best hole once, at the end.  Both report absence only as
a proof.  `alpha_star_lower_bound` is a randomized hole finder: its
holes are verified, but finding none proves nothing, and no
certification rests on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import and_, or_
from typing import Callable, Iterator, Optional, Sequence

from transtile.core import PartiteGraph, bits, mask_of
from transtile.search import copy_enumerator, iter_copies

__all__ = [
    "HoleCertificate",
    "HoleReport",
    "verify_hole",
    "alpha_star_exact",
    "alpha_star_lower_bound",
    "certify_no_hole",
]

EXACT_CAP_DEFAULT = 10

# `exists(s, counter)`: the masks of an s-hole on one part tuple, or None
Exists = Callable[[int, list[int]], Optional[tuple[int, ...]]]


@dataclass(frozen=True)
class HoleCertificate:
    """Equal-size vertex sets, one per part of a pattern-clique part
    tuple, claimed to be a hole; `verify_hole` decides the claim."""

    r: int
    parts: tuple[int, ...]
    sets: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class HoleReport:
    """Outcome of a hole computation, tagged with the regime that ran."""

    alpha: int
    witness: HoleCertificate
    method: str  # always "exact"
    explored: int


def _check_arena(G: PartiteGraph, r: int, parts: Sequence[int]) -> None:
    if len(parts) != r or len(set(parts)) != r:
        raise ValueError(f"invalid hole arena: need {r} distinct parts, got {parts}")
    for p in parts:
        if not 1 <= p <= G.k:
            raise ValueError(f"invalid hole arena: part {p} out of range [1..{G.k}]")
    for a, b in combinations(parts, 2):
        if not G.pattern.adjacent(a, b):
            raise ValueError(
                f"invalid hole arena: parts {a} and {b} are not pattern-adjacent"
            )


def verify_hole(G: PartiteGraph, cand: HoleCertificate) -> bool:
    """True iff the candidate's sets really form a hole.

    The arena (distinct pattern-clique parts, equal-size in-range sets)
    is validated strictly; a malformed arena raises rather than
    returning False.  The copy search is complete, so both answers are
    proofs.
    """
    _check_arena(G, cand.r, cand.parts)
    sizes = {len(u) for u in cand.sets}
    if len(cand.sets) != cand.r or len(sizes) != 1:
        raise ValueError("invalid hole arena: need one equal-size set per part")
    for u in cand.sets:
        if any(not 0 <= v < G.n for v in u):
            raise ValueError("invalid hole arena: vertex index out of range")
    if sizes == {0}:
        return True
    masks = [mask_of(u) for u in cand.sets]
    return next(iter_copies(G, cand.parts, masks), None) is None


# -- exact decisions ---------------------------------------------------------


def _pair_hole(non: Sequence[int], s: int, counter: list[int]) -> Optional[tuple[int, int]]:
    """The first s-hole (A, B) of a bipartite relation, or None (a proof).

    `non[a]` is the bitmask of the vertices b not joined to a.  The
    search picks A in ascending order, keeping T(A), its common
    non-neighbourhood, so s-subsets A come in `combinations` order.  A
    vertex a is a candidate when |T(A) & non[a]| >= s, and T only
    shrinks as A grows, so a node with fewer candidates than A still
    needs has no hole below it and is cut.  B is the s lowest vertices
    of T(A).  Adds its branch nodes to counter[0].
    """
    n = len(non)

    def rec(pool: list[int], need: int, a_mask: int, t: int) -> Optional[tuple[int, int]]:
        counter[0] += 1
        if not need:
            return a_mask, mask_of(list(bits(t))[:s])
        cands = [a for a in pool if (t & non[a]).bit_count() >= s]
        # a child's candidates are among the ones after it, so the last
        # need-1 cannot start a hole
        for i in range(len(cands) - need + 1):
            a = cands[i]
            if found := rec(cands[i + 1 :], need - 1, a_mask | 1 << a, t & non[a]):
                return found
        return None

    try:
        return rec(list(range(n)), s, 0, (1 << n) - 1)
    finally:
        del rec  # it calls itself: unbind it so its state is freed now, not by the GC


def _pair_finder(G: PartiteGraph, parts: Sequence[int]) -> Exists:
    """Read the non-neighbour rows of a part pair once; return `exists`,
    the pair search on them: A in parts[0], B in parts[1]."""
    pi, pj = parts
    non = [G.full_mask & ~G.nbr_mask(pi, a, pj) for a in range(G.n)]
    return lambda s, counter: _pair_hole(non, s, counter)


def _hole_finder(G: PartiteGraph, parts: Sequence[int]) -> Exists:
    """Index the transversal cliques on `parts` once, by prefix and link
    rows; return `exists`.

    `exists(s, counter)` returns the masks of an s-hole on `parts`, or
    None (a proof), adding its branch nodes to counter[0].  The index
    does not depend on s, so one finder answers every s.

    With head = r-3, each clique splits into its prefix (its vertices in
    parts[:head]) and its tail (u, a, b) in parts[head:].  The index
    numbers the prefixes that close some clique: rows[level][v] holds
    the prefixes whose vertex in parts[level] is v, and links[i] lists
    the (u, a, ends) of prefix i, ends being the b that close a clique
    with it, u and a.  The search keeps the bitmask of prefixes inside
    the partial choice: the cliques still realizable are those with an
    active prefix.  Levels 0..head-1 branch on an s-subset of their part
    (subsets in `combinations` order); one branch costs one AND with
    the OR of the subset's rows.  Level head branches vertex by vertex
    in ascending order and keeps the link graph H: a in parts[r-2] is
    joined to b in parts[r-1] when a clique with an active prefix passes
    through a chosen u, a and b.  The choice completes to an s-hole
    exactly when H has a bipartite s-hole, and H only grows with the
    choice, so a node whose H has none is cut.  At a full choice the
    last two sets are H's first s-hole: when at least s vertices of
    parts[r-2] have no H-edge, the lowest s of them with the lowest s of
    parts[r-1], else the pair search's.

    Every subset level and the vertex level first return when no clique
    is active (any completion works) or when at least s of their
    vertices lie in no active clique.  Subsets and vertices are tried in
    ascending order and every cut drops only subtrees without a hole, so
    the hole returned is the first one in that order.
    """
    n, full = G.n, G.full_mask
    r = len(parts)
    head = r - 3
    x, y, z = parts[head:]
    xy, xz, yz = ([G.nbr_mask(p, v, q) for v in range(n)] for p, q in ((x, y), (x, z), (y, z)))
    rows = [[0] * n for _ in range(head)]
    links: list[list[tuple[int, int, int]]] = []
    for prefix in iter_copies(G, parts[:head], [full] * head) if head else [()]:
        # the prefix's common neighbourhoods in the three tail parts
        cu, ca, cb = (
            reduce(and_, (G.nbr_mask(p, v, q) for p, v in zip(parts, prefix)), full)
            for q in (x, y, z)
        )
        edges = [
            (u, a, ends)
            for u in bits(cu)
            for a in bits(ca & xy[u])
            if (ends := cb & xz[u] & yz[a])
        ]
        if edges:
            for row, v in zip(rows, prefix):
                row[v] |= 1 << len(links)
            links.append(edges)
    everything = (1 << len(links)) - 1

    def exists(s: int, counter: list[int]) -> Optional[tuple[int, ...]]:
        branches = [
            [(mask_of(c), reduce(or_, (row[v] for v in c), 0)) for c in combinations(range(n), s)]
            for row in rows
        ]
        lowest = mask_of(range(s))

        def link_hole(h: list[int]) -> Optional[tuple[int, int]]:
            # the first s-hole of H, given by its rows h[a]
            free = [a for a in range(n) if not h[a]]
            if len(free) >= s:
                return mask_of(free[:s]), lowest
            return _pair_hole([full & ~row for row in h], s, counter)

        def grow(link: list[list[int]], start: int, need: int, chosen: int, h: list[int]):
            counter[0] += 1
            hole = link_hole(h)
            if hole is None:
                return None
            if not need:
                return chosen, *hole
            for u in range(start, n - need + 1):
                res = grow(link, u + 1, need - 1, chosen | 1 << u, list(map(or_, h, link[u])))
                if res is not None:
                    return res
            return None

        def rec(level: int, active: int, chosen: list[int]) -> Optional[list[int]]:
            counter[0] += 1
            if not active:
                return chosen + [lowest] * (r - level)
            if level < head:
                used = mask_of(v for v, row in enumerate(rows[level]) if row & active)
            else:
                # link[u][a]: the b joined to a in H once u is chosen
                link = [[0] * n for _ in range(n)]
                for i in bits(active):
                    for u, a, ends in links[i]:
                        link[u][a] |= ends
                used = mask_of(u for u in range(n) if any(link[u]))
            free = full & ~used
            if free.bit_count() >= s:
                return chosen + [mask_of(list(bits(free))[:s])] + [lowest] * (r - level - 1)
            if level == head:
                last = grow(link, 0, s, 0, [0] * n)
                return None if last is None else chosen + list(last)
            for u, keep in branches[level]:
                res = rec(level + 1, active & keep, chosen + [u])
                if res is not None:
                    return res
            return None

        try:
            out = rec(0, everything, [])
        finally:
            del grow, rec  # they call themselves: unbind them so their state is freed now
        return tuple(out) if out is not None else None

    return exists


def _decisions(
    G: PartiteGraph, r: int, cap: int
) -> Iterator[tuple[tuple[int, ...], Exists]]:
    """Yield (parts, exists) for each clique part tuple of size r, under
    the one refusal rule: n above `cap` is refused for r>=3 only, before
    any tuple.  The pair search has no cap; for r>=3 the branches on the
    first r-2 parts grow exponentially with n and r.
    """
    if r > 2 and G.n > cap:
        raise ValueError(f"exact mode refused: n={G.n} exceeds cap {cap} for r={r}; raise cap")
    finder = _pair_finder if r == 2 else _hole_finder
    for parts in G.pattern.clique_part_tuples(r):
        yield parts, finder(G, parts)


def _certificate(
    G: PartiteGraph, r: int, parts: tuple[int, ...], masks: Sequence[int]
) -> HoleCertificate:
    """The certificate of the hole `masks` on `parts`, once `verify_hole`
    confirms it.  An explicit raise, not an `assert`: a hole answer rests
    on this check, and `python -O` strips asserts.
    """
    witness = HoleCertificate(r, parts, tuple(frozenset(bits(m)) for m in masks))
    if not verify_hole(G, witness):
        raise RuntimeError(
            f"hole search returned a non-hole on parts {witness.parts}: sets {witness.sets}"
        )
    return witness


def alpha_star_exact(
    G: PartiteGraph, r: int, cap: int = EXACT_CAP_DEFAULT
) -> HoleReport:
    """Exact hole number alpha_r with a maximum witness.

    For r>=3 it refuses n above `cap`; r=2 has no cap.  alpha_r = 0 is
    reported with the empty certificate.  Part tuples with no
    transversal-clique arena simply do not contribute.  Each part tuple
    takes one exact decision (the pair search for r=2, its reduction
    through the link graph for r>=3) and climbs s from the best value so
    far, stopping at the first s with no hole: holes are monotone in s,
    so that None proves the tuple's maximum.  A tuple replaces the
    witness only when it beats the best; the witness is the hole its
    last successful decision found, certified once, at the end.
    `explored` sums the branch nodes of every decision: for r>=3 the
    subset and vertex nodes and the pair-search nodes they ask for.
    """
    if not 2 <= r <= G.k:
        raise ValueError(f"hole order r={r} out of range [2..{G.k}]")
    best, hole, counter = 0, None, [0]
    for parts, exists in _decisions(G, r, cap):
        while best < G.n and (masks := exists(best + 1, counter)) is not None:
            best, hole = best + 1, (parts, masks)
    witness = _certificate(G, r, *hole) if hole else HoleCertificate(r, (), ())
    return HoleReport(alpha=best, witness=witness, method="exact", explored=counter[0])


def certify_no_hole(G: PartiteGraph, r: int, s: int) -> tuple[bool, str, Optional[HoleCertificate]]:
    """Decide whether the instance has no r-partite hole of size s.

    Returns (certified, "exact", counterexample-or-None).  Both answers
    are proofs, and a counterexample is a verified hole of size exactly
    s.  It asks the same decisions as `alpha_star_exact`, under the
    same refusal rule at EXACT_CAP_DEFAULT.
    """
    if not 2 <= r <= G.k or s < 1:
        raise ValueError(f"hole order r={r} or size s={s} out of range")
    if s > G.n:
        return True, "exact", None
    for parts, exists in _decisions(G, r, EXACT_CAP_DEFAULT):
        if (masks := exists(s, [0])) is not None:
            return False, "exact", _certificate(G, r, parts, masks)
    return True, "exact", None


# -- randomized hole finder ---------------------------------------------------


def alpha_star_lower_bound(
    G: PartiteGraph, r: int, s: int, trials: int = 200, seed: int = 0
) -> Optional[HoleCertificate]:
    """Randomized search for a size-s hole: greedy grow with random
    swaps and restarts.  A returned certificate is verified; None means
    none found within the trial budget, which is not a proof of absence.
    """
    if not 2 <= r <= G.k:
        raise ValueError(f"hole order r={r} out of range [2..{G.k}]")
    if not 1 <= s <= G.n:
        raise ValueError(f"hole size s={s} out of range [1..{G.n}]")
    plans = [(parts, copy_enumerator(G, parts)) for parts in G.pattern.clique_part_tuples(r)]
    if not plans:
        return None
    for trial in range(trials):
        rng = random.Random((seed * 0x9E3779B1 + trial) & 0xFFFFFFFF)
        parts, first = plans[trial % len(plans)]
        masks = [0] * r
        budget = 40 * (s * r + 4)
        while budget > 0:
            budget -= 1
            sizes = [m.bit_count() for m in masks]
            if min(sizes) == s:
                cand = HoleCertificate(
                    r, parts, tuple(frozenset(bits(m)) for m in masks)
                )
                if verify_hole(G, cand):
                    return cand
                break
            t = rng.choice([i for i in range(r) if sizes[i] == min(sizes)])
            good = []
            for v in bits(G.full_mask & ~masks[t]):
                probe = list(masks)
                probe[t] = 1 << v
                if next(first(probe), None) is not None:
                    continue
                good.append(v)
            if good:
                masks[t] |= 1 << rng.choice(good)
            else:
                donors = [i for i in range(r) if sizes[i] > 0]
                if not donors:
                    break
                d = rng.choice(donors)
                masks[d] &= ~(1 << rng.choice(list(bits(masks[d]))))
    return None
