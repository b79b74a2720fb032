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

`alpha_star_exact` computes the hole number with a maximum witness and
refuses n above a cap.  `certify_no_hole` decides exactly whether an
s-hole exists, without the hole number: for r=2 by a pruned subset
search with no cap, for r>=3 by the same branch-and-bound under the cap.
That branch-and-bound keeps the transversal cliques still realizable as
one bitmask over clique indices, so a branch on a subset costs one AND.
Both report absence only as a proof.  `alpha_star_lower_bound` is a
randomized hole finder: its holes are verified, but finding none proves
nothing, and no certification rests on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import or_
from typing import Optional, Sequence

from transtile.core import PartiteGraph, bits, mask_of
from transtile.search import iter_copies

__all__ = [
    "HoleCertificate",
    "HoleReport",
    "verify_hole",
    "alpha_star_exact",
    "alpha_star_lower_bound",
    "certify_no_hole",
]

EXACT_CAP_DEFAULT = 10


@dataclass(frozen=True)
class HoleCertificate:
    """Candidate or verified hole: equal-size subsets on clique parts."""

    r: int
    parts: tuple[int, ...]
    sets: tuple[frozenset[int], ...]
    verified: bool = False

    @property
    def s(self) -> int:
        return len(self.sets[0]) if self.sets else 0


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


def _alpha_pair_exact(G: PartiteGraph, pi: int, pj: int) -> tuple[int, tuple[int, int], int]:
    """Exact 2-partite hole number for one part pair.

    Sweeps every subset A of part pi once: the common non-neighborhood
    T(A) in part pj is monotone decreasing in A, so
    max_A min(|A|, |T(A)|) is the exact answer.  Returns
    (alpha, (A_mask, T_mask), nodes).
    """
    n = G.n
    full = (1 << n) - 1
    non = [full & ~G.nbr_mask(pi, a, pj) for a in range(n)]
    t = [0] * (1 << n)
    t[0] = full
    best, wa, wt = 0, 0, 0
    for m in range(1, 1 << n):
        low = m & -m
        t[m] = t[m ^ low] & non[low.bit_length() - 1]
        val = min(m.bit_count(), t[m].bit_count())
        if val > best:
            best, wa, wt = val, m, t[m]
    return best, (wa, wt), (1 << n) - 1


def _pair_hole(G: PartiteGraph, pi: int, pj: int, s: int) -> Optional[tuple[int, int]]:
    """Masks (A, B) of an s-hole on parts pi, pj, or None (a proof).

    Picks A in part pi in ascending order, keeping T(A), its common
    non-neighbourhood in part pj, and cuts a branch once |T(A)| < s:
    T only shrinks as A grows.  B is the s lowest vertices of T(A).
    """
    def rec(start: int, a_mask: int, t: int) -> Optional[tuple[int, int]]:
        if a_mask.bit_count() == s:
            return a_mask, mask_of(list(bits(t))[:s])
        for a in range(start, G.n):
            u = t & ~G.nbr_mask(pi, a, pj)
            if u.bit_count() >= s and (found := rec(a + 1, a_mask | 1 << a, u)):
                return found
        return None

    return rec(0, 0, G.full_mask)


def _exists_hole(
    G: PartiteGraph, parts: Sequence[int], s: int, counter: list[int]
) -> Optional[tuple[int, ...]]:
    """Branch-and-bound: masks of an s-hole on `parts`, or None (a proof).

    Enumerates transversal cliques on the parts once and indexes them as
    bitmasks over clique indices: rows[level][v] holds the cliques whose
    vertex in parts[level] is v.  Then branches on the s-subset chosen
    for each part in ascending part order (subsets in `combinations`
    order), keeping the bitmask of cliques still realizable inside the
    partial choice; one branch costs one AND with the OR of the subset's
    rows.  An empty active set means any completion works; so does a
    level whose vertices outside every active clique number at least s.
    """
    n, full = G.n, G.full_mask
    r = len(parts)
    cliques = list(iter_copies(G, parts, [full] * r))
    rows = [[0] * n for _ in parts]
    for i, clique in enumerate(cliques):
        for row, v in zip(rows, clique):
            row[v] |= 1 << i
    combos = list(combinations(range(n), s))
    branches = [
        [(mask_of(c), reduce(or_, (row[v] for v in c), 0)) for c in combos]
        for row in rows[:-1]
    ]
    lowest = mask_of(range(s))

    def rec(level: int, active: int, chosen: list[int]) -> Optional[list[int]]:
        counter[0] += 1
        if not active:
            return chosen + [lowest] * (r - level)
        used = 0
        for v, row in enumerate(rows[level]):
            if row & active:
                used |= 1 << v
        free = full & ~used
        if free.bit_count() >= s:
            return chosen + [mask_of(list(bits(free))[:s])] + [lowest] * (r - level - 1)
        if level == r - 1:
            return None
        for u, keep in branches[level]:
            res = rec(level + 1, active & keep, chosen + [u])
            if res is not None:
                return res
        return None

    out = rec(0, (1 << len(cliques)) - 1, [])
    return tuple(out) if out is not None else None


def alpha_star_exact(
    G: PartiteGraph, r: int, cap: int = EXACT_CAP_DEFAULT
) -> HoleReport:
    """Exact hole number alpha_r with a maximum witness.

    Guarded: refuses instances with n above `cap` since the search is
    exponential in n.  alpha_r = 0 is reported with the empty
    certificate.  Part tuples with no transversal-clique arena simply do
    not contribute.
    """
    if not 2 <= r <= G.k:
        raise ValueError(f"hole order r={r} out of range [2..{G.k}]")
    if G.n > cap:
        raise ValueError(
            f"exact mode refused: n={G.n} exceeds cap {cap}; "
            "raise cap or use alpha_star_lower_bound"
        )
    tuples = G.pattern.clique_part_tuples(r)
    best = 0
    witness = HoleCertificate(r=r, parts=(), sets=(), verified=True)
    explored = 0
    for parts in tuples:
        if r == 2:
            val, (wa, wt), nodes = _alpha_pair_exact(G, parts[0], parts[1])
            explored += nodes
            if val > best:
                best = val
                ua = frozenset(list(bits(wa))[:val])
                ub = frozenset(list(bits(wt))[:val])
                witness = HoleCertificate(r, parts, (ua, ub), verified=True)
        else:
            counter = [0]
            for s in range(G.n, best, -1):
                masks = _exists_hole(G, parts, s, counter)
                if masks is not None:
                    best = s
                    witness = HoleCertificate(
                        r, parts, tuple(frozenset(bits(m)) for m in masks), verified=True
                    )
                    break
            explored += counter[0]
    if best > 0:
        assert verify_hole(G, witness)
    return HoleReport(alpha=best, witness=witness, method="exact", explored=explored)


def certify_no_hole(G: PartiteGraph, r: int, s: int) -> tuple[bool, str, Optional[HoleCertificate]]:
    """Decide whether the instance has no r-partite hole of size s.

    Returns (certified, "exact", counterexample-or-None).  Both answers
    are proofs, and a counterexample is a verified hole of size exactly
    s.  For r=2 the search is exact at every n; for r >= 3 it refuses n
    above EXACT_CAP_DEFAULT, as `alpha_star_exact` does.
    """
    if not 2 <= r <= G.k or s < 1:
        raise ValueError(f"hole order r={r} or size s={s} out of range")
    if s > G.n:
        return True, "exact", None
    if r > 2 and G.n > EXACT_CAP_DEFAULT:
        raise ValueError(f"exact mode refused: n={G.n} exceeds cap {EXACT_CAP_DEFAULT} for r={r}")
    for parts in G.pattern.clique_part_tuples(r):
        masks = _pair_hole(G, *parts, s) if r == 2 else _exists_hole(G, parts, s, [0])
        if masks is not None:
            witness = HoleCertificate(r, parts, tuple(frozenset(bits(m)) for m in masks), True)
            assert verify_hole(G, witness)
            return False, "exact", witness
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
    tuples = G.pattern.clique_part_tuples(r)
    if not tuples:
        return None
    for trial in range(trials):
        rng = random.Random((seed * 0x9E3779B1 + trial) & 0xFFFFFFFF)
        parts = tuples[trial % len(tuples)]
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
                    return HoleCertificate(r, parts, cand.sets, verified=True)
                break
            t = rng.choice([i for i in range(r) if sizes[i] == min(sizes)])
            good = []
            for v in bits(G.full_mask & ~masks[t]):
                probe = list(masks)
                probe[t] = 1 << v
                if next(iter_copies(G, parts, probe), None) is not None:
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
