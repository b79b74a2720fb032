"""Transversal copies, tilings, factors, and mixed tilings.

A *transversal copy* picks one vertex per part and realizes every
pattern edge.  A *tiling* is a family of pairwise disjoint copies; its
leftover is automatically balanced because every copy consumes exactly
one vertex per part.  A *factor* is a tiling with empty leftover.

Search strategy notes
---------------------
* The search kernels live in `transtile.search`.  Copy searches use
  its copy kernel (`copy_enumerator`, planned once per search, or the
  one-off `iter_copies`): complete backtracking over parts with bitmask
  neighborhood propagation, always branching on the part with the
  fewest candidates and breaking ties toward the lowest part index and
  lowest vertex index.  "None" answers are therefore proofs.
* Paths and cycles use `sweep` and `trace_back`.  The cycle finder
  anchors on every vertex of one part in turn and sweeps layer sets
  around the cycle, its first and last layers restricted to the
  anchor's neighbours; layered reachability is exact for each anchor,
  and all anchors are tried, so this search is complete at every size
  (no fallback needed for negative answers).
* The factor solver branches on the copies covering the lowest-degree
  uncovered vertex of part 1 (fail-first ordering).  It is exponential
  in the worst case and guarded by a size cap; absence answers come
  with search statistics.
* The factor solver takes optional per-part root masks and then decides
  a factor of the induced instance in place, in G's own labels.  The
  relabelling of `PartiteGraph.induced` is monotone within each part,
  so on the induced copy every choice (fail-first order, copy order,
  Hall matchings) would be the same; the masks only skip building it.
* The factor solver prunes by Hall's condition, lazily.  A factor of
  the remaining vertices restricts to a perfect matching between the
  remaining vertices of parts p and q for every pattern edge pq, so a
  node where some such bipartite graph has no perfect matching holds no
  factor.  `has_perfect_matching` from `transtile.search` decides each
  matching on the graph's own neighbour rows.  The check runs at a node
  only after its first child has failed, before the second is tried: a
  search that never backtracks pays nothing for it.  The prune only cuts subtrees without a factor
  and leaves the branching order alone, so the first factor found (the
  witness) is the one the unpruned search finds, and None is still a
  proof; only `nodes` and `max_depth` shrink.

Mixed tilings use two shapes on cycle patterns, each padded to one
vertex per part by isolated filler vertices: a 3-vertex path across
consecutive parts, and two vertex-disjoint edges on disjoint
consecutive part pairs.  Two closures matter for a mixed tiling with
leftover L:

* *addition-maximal*: no copy fits inside L;
* *exchange-closed*: no copy N can be replaced by two disjoint copies
  that use only V(N) and L (a one-for-two exchange, which gains a copy).

`maximal_mixed_tiling` grows a tiling randomly and stops only when
exhaustive scans find neither an addition nor an exchange, so its result
has both closures by construction.  `check_appendix_invariants`
re-verifies both and reports the leftover-degree bounds: per-copy edge
counts into the leftover, direction exclusivity for isolated vertices,
the window bound for isolated pairs, and the total isolated-edge budget.
Each bound is the contrapositive of an exchange, so the bounds are
promised only on exchange-closed tilings; addition-maximality alone
does not force them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from transtile.core import (
    PartiteGraph,
    VertexId,
    VertexSetFamily,
    bits,
    is_transversal_copy,
    mask_of,
)
from transtile.search import (
    copy_enumerator,
    has_perfect_matching,
    iter_copies,
    sweep,
    trace_back,
)

__all__ = [
    "TransversalCopy",
    "Tiling",
    "MixedCopy",
    "MixedTiling",
    "SearchStats",
    "InvariantReport",
    "find_transversal_clique",
    "greedy_clique_tiling",
    "find_transversal_path",
    "find_transversal_cycle",
    "greedy_cycle_tiling",
    "exact_transversal_factor",
    "exact_transversal_factor_search",
    "maximal_mixed_tiling",
    "check_appendix_invariants",
    "iter_transversal_copies",
]

FACTOR_CAP_DEFAULT = 12


@dataclass(frozen=True)
class TransversalCopy:
    """One vertex per part: verts[p-1] is the index chosen in part p."""

    verts: tuple[int, ...]

    def vertex_ids(self) -> tuple[VertexId, ...]:
        return tuple(VertexId(p + 1, v) for p, v in enumerate(self.verts))


class _DisjointCopies:
    """Masks of `copies`, disjoint copies with one vertex per part each
    (`verts[p-1]` in part p), in a balanced instance of part size `n`."""

    copies: tuple
    n: int
    k: int

    def covered_masks(self) -> list[int]:
        masks = [0] * (self.k + 1)
        for c in self.copies:
            for p in range(1, self.k + 1):
                masks[p] |= 1 << c.verts[p - 1]
        return masks

    def leftover_masks(self) -> list[int]:
        full = (1 << self.n) - 1
        return [0] + [full & ~m for m in self.covered_masks()[1:]]

    @property
    def leftover_per_part(self) -> int:
        return self.n - len(self.copies)


@dataclass(frozen=True)
class Tiling(_DisjointCopies):
    """Disjoint transversal copies plus the derived covered masks."""

    copies: tuple[TransversalCopy, ...]
    n: int
    k: int

    @staticmethod
    def build(G: PartiteGraph, copies: Sequence[TransversalCopy]) -> "Tiling":
        t = Tiling(tuple(copies), G.n, G.k)
        for c in copies:
            if not is_transversal_copy(G, c.vertex_ids()):
                raise ValueError(f"not a transversal copy: {c.verts}")
        covered = t.covered_masks()
        if any(covered[p].bit_count() != len(copies) for p in range(1, G.k + 1)):
            raise ValueError("copies overlap")
        return t


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    max_depth: int

    def to_json_dict(self) -> dict:
        return {"nodes": self.nodes, "max_depth": self.max_depth}


# -- copy search ----------------------------------------------------------------


def iter_transversal_copies(
    G: PartiteGraph, masks: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    """All transversal copies with part-p vertex inside masks[p].

    `masks` is indexed 1..k (slot 0 ignored).  The copy kernel of
    `transtile.search` over all parts: complete, deterministic order.
    """
    return iter_copies(G, range(1, G.k + 1), masks[1:])


def _family_masks(G: PartiteGraph, constraints: VertexSetFamily) -> list[int]:
    masks = [0] * (G.k + 1)
    for p in range(1, G.k + 1):
        try:
            sub = constraints.subset(p)
        except KeyError:
            raise ValueError(f"constraint missing part {p}") from None
        if any(not 0 <= v < G.n for v in sub):
            raise ValueError(f"constraint for part {p} has an index out of range")
        masks[p] = mask_of(sub)
    return masks


def find_transversal_clique(
    G: PartiteGraph, constraints: VertexSetFamily
) -> Optional[TransversalCopy]:
    """First transversal clique inside the constraint sets, or None (a proof)."""
    if not G.pattern.is_complete:
        raise ValueError("transversal clique search needs a complete pattern")
    found = next(iter_transversal_copies(G, _family_masks(G, constraints)), None)
    return TransversalCopy(found) if found else None


def greedy_clique_tiling(G: PartiteGraph) -> Tiling:
    """Repeatedly extract the first available transversal clique.

    The leftover per part never exceeds the k-partite hole number: the
    leftover sets are equal-size and clique-free, hence form a hole.
    """
    if not G.pattern.is_complete:
        raise ValueError("transversal clique tiling needs a complete pattern")
    first = copy_enumerator(G, range(1, G.k + 1))
    masks = [G.full_mask] * G.k  # by position: part p sits at p - 1
    copies = []
    while True:
        found = next(first(masks), None)
        if found is None:
            break
        copies.append(TransversalCopy(found))
        masks = [m & ~(1 << v) for m, v in zip(masks, found)]
    return Tiling(tuple(copies), G.n, G.k)


# -- paths and cycles -----------------------------------------------------------


def find_transversal_path(
    G: PartiteGraph, i: int, j: int, X: VertexSetFamily
) -> Optional[tuple[VertexId, ...]]:
    """Path x_i .. x_j, one vertex per part, inside the given sets.

    Parts i..j must be consecutive and each consecutive pair must be
    pattern-adjacent.  Forward sweep of layer sets, then backtrack; the
    sweep computes exact reachability, so None is a proof that no such
    path exists inside the sets.
    """
    if not 1 <= i < j <= G.k:
        raise ValueError(f"non-consecutive parts: need 1 <= i < j <= k, got ({i},{j})")
    span = tuple(range(i, j + 1))
    if tuple(sorted(X.parts)) != span:
        raise ValueError(
            f"non-consecutive parts: constraint family covers {X.parts}, need {span}"
        )
    for a in range(i, j):
        if not G.pattern.adjacent(a, a + 1):
            raise ValueError(f"non-consecutive parts: {a} and {a + 1} not joined")
    if any(not 0 <= v < G.n for p in span for v in X.subset(p)):
        raise ValueError("constraint index out of range")
    layers = sweep(G._adj, span, [X.mask(p) for p in span])
    if layers is None:
        return None
    return tuple(VertexId(p, v) for p, v in zip(span, trace_back(G._adj, span, layers)))


def find_transversal_cycle(
    G: PartiteGraph, constraints: VertexSetFamily
) -> Optional[TransversalCopy]:
    """Transversal cycle inside the constraint sets, or None (a proof).

    Anchors on each vertex of the most constrained part and sweeps the
    remaining arc; per anchor the sweep decides existence exactly, and
    every anchor is tried.
    """
    if not G.pattern.is_cycle:
        raise ValueError("transversal cycle search needs a cycle pattern")
    masks = _family_masks(G, constraints)
    k = G.k
    c = min(range(1, k + 1), key=lambda p: (masks[p].bit_count(), p))
    seq = [(c - 1 + t) % k + 1 for t in range(1, k)]
    arc = [masks[p] for p in seq]
    for v in bits(masks[c]):
        first, last = G.nbr_mask(c, v, seq[0]), G.nbr_mask(c, v, seq[-1])
        layers = sweep(G._adj, seq, [arc[0] & first, *arc[1:-1], arc[-1] & last])
        if layers is None:
            continue
        verts = [0] * (k + 1)
        verts[c] = v
        for p, u in zip(seq, trace_back(G._adj, seq, layers)):
            verts[p] = u
        return TransversalCopy(tuple(verts[1:]))
    return None


def greedy_cycle_tiling(G: PartiteGraph) -> Tiling:
    """Repeatedly extract transversal cycles until none remain."""
    if not G.pattern.is_cycle:
        raise ValueError("transversal cycle tiling needs a cycle pattern")
    masks = [G.full_mask] * (G.k + 1)
    copies = []
    while all(masks[p] for p in range(1, G.k + 1)):
        fam = VertexSetFamily([(p, bits(masks[p])) for p in range(1, G.k + 1)])
        found = find_transversal_cycle(G, fam)
        if found is None:
            break
        copies.append(found)
        for p in range(1, G.k + 1):
            masks[p] &= ~(1 << found.verts[p - 1])
    return Tiling(tuple(copies), G.n, G.k)


# -- exact factor decision ---------------------------------------------------------


def exact_transversal_factor_search(
    G: PartiteGraph,
    cap: Optional[int] = FACTOR_CAP_DEFAULT,
    masks: Optional[Sequence[int]] = None,
) -> tuple[Optional[Tiling], SearchStats]:
    """Complete factor decision with search statistics.

    `masks`, indexed 1..k (slot 0 ignored), are per-part root masks: the
    search decides a factor of the induced instance G[masks] in place,
    without relabelling.  They must select equally many vertices in
    every part, all below n; None means the whole graph.  Branches on
    the copies through the lowest-degree uncovered part-1 vertex, and
    prunes a node by Hall's condition once its first child has failed.
    Returns (factor, stats) or (None, stats); None is a proof of
    absence.  A factor is a `Tiling` of G in G's own labels whose
    leftover is exactly the complement of the masks.  Refuses a mask
    size above the cap unless cap is None.
    """
    k = G.k
    if masks is None:
        root = [G.full_mask] * (k + 1)
    elif len(masks) != k + 1 or any(m & ~G.full_mask for m in masks[1:]):
        raise ValueError(f"factor masks need slots 1..{k} with bits below n={G.n}")
    else:
        root = list(masks)
    sizes = sorted({root[p].bit_count() for p in range(1, k + 1)})
    if len(sizes) != 1:
        raise ValueError(f"factor masks unbalanced: sizes {sizes}")
    if cap is not None and sizes[0] > cap:
        raise ValueError(
            f"exact mode refused: n={sizes[0]} exceeds cap {cap}; pass a larger cap to force"
        )
    rows1 = [(G._adj[1, q], root[q]) for q in G.pattern.neighbors(1)]
    order = sorted(
        bits(root[1]),
        key=lambda v: (sum((rows[v] & m).bit_count() for rows, m in rows1), v),
    )
    # the search only ever narrows part masks: plan the copy kernel and
    # look up the Hall prune's neighbour rows once, not at every node;
    # below, masks are indexed by position, part p at p - 1
    copies = copy_enumerator(G, range(1, k + 1))
    hall = [(G._adj[p, q], p - 1, q - 1) for p, q in G.pattern.edge_list()]
    nodes = 0
    best_depth = 0
    acc: list[tuple[int, ...]] = []

    def rec(cur: list[int], depth: int, start: int) -> bool:
        # part 1 only loses vertices along a branch, and each branch
        # removes its branching vertex order[i], so the scan for the next
        # uncovered vertex resumes at i + 1
        nonlocal nodes, best_depth
        if depth > best_depth:
            best_depth = depth
        left1 = cur[0]
        if not left1:
            return True  # balanced parts: part 1 covered means all are
        i = start
        while not left1 >> order[i] & 1:
            i += 1
        cand = cur.copy()
        cand[0] = 1 << order[i]
        for tried, found in enumerate(copies(cand)):
            if tried == 1 and not all(
                has_perfect_matching(rows, cur[p], cur[q]) for rows, p, q in hall
            ):
                return False
            nodes += 1
            acc.append(found)
            if rec([m ^ (1 << v) for m, v in zip(cur, found)], depth + 1, i + 1):
                return True
            acc.pop()
        return False

    ok = rec(root[1:], 0, 0)
    stats = SearchStats(nodes=nodes, max_depth=best_depth)
    if not ok:
        return None, stats
    return Tiling(tuple(map(TransversalCopy, acc)), G.n, G.k), stats


def exact_transversal_factor(
    G: PartiteGraph, cap: Optional[int] = FACTOR_CAP_DEFAULT
) -> Optional[Tiling]:
    """Transversal factor, or None as a proof of absence (cap-guarded)."""
    return exact_transversal_factor_search(G, cap)[0]


# -- mixed tilings -------------------------------------------------------------------


@dataclass(frozen=True)
class MixedCopy:
    """One vertex per part; `kind` and `anchor` say which are non-isolated.

    kind "p3": path verts[a-1] - verts[a] - verts[a+1] on parts
    (a, a+1, a+2) cyclically, anchor = (a,).
    kind "m2": edges on part pairs (a, a+1) and (b, b+1), anchor = (a, b).
    All remaining positions are isolated fillers.
    """

    kind: str
    anchor: tuple[int, ...]
    verts: tuple[int, ...]

    def nonisolated_parts(self, k: int) -> tuple[int, ...]:
        if self.kind == "p3":
            a = self.anchor[0]
            return tuple(sorted({a, a % k + 1, (a + 1) % k + 1}))
        a, b = self.anchor
        return tuple(sorted({a, a % k + 1, b, b % k + 1}))

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "anchor": list(self.anchor), "verts": list(self.verts)}


@dataclass(frozen=True)
class MixedTiling(_DisjointCopies):
    copies: tuple[MixedCopy, ...]
    n: int
    k: int

    @property
    def p3_copies(self) -> tuple[MixedCopy, ...]:
        return tuple(c for c in self.copies if c.kind == "p3")

    def counts(self) -> dict:
        p3 = len(self.p3_copies)
        return {"p3": p3, "m2": len(self.copies) - p3}

    def to_json_dict(self) -> dict:
        return {
            "copies": [c.to_json_dict() for c in self.copies],
            "leftover_per_part": self.leftover_per_part,
        }


def _cyc(p: int, k: int) -> int:
    return (p - 1) % k + 1


def _p3_feasible(G: PartiteGraph, L: Sequence[int], a: int) -> bool:
    k = G.k
    mid, right = _cyc(a + 1, k), _cyc(a + 2, k)
    for u in bits(L[mid]):
        if G.nbr_mask(mid, u, a) & L[a] and G.nbr_mask(mid, u, right) & L[right]:
            return True
    return False


def _pair_feasible(G: PartiteGraph, L: Sequence[int], a: int) -> bool:
    nxt = _cyc(a + 1, G.k)
    return any(G.nbr_mask(a, u, nxt) & L[nxt] for u in bits(L[a]))


def _mixed_placements(G: PartiteGraph, L: Sequence[int]) -> list[tuple]:
    """All currently addable shapes, exhaustively: the stop criterion."""
    k = G.k
    if any(not L[p] for p in range(1, k + 1)):
        return []
    out = []
    for a in range(1, k + 1):
        if _p3_feasible(G, L, a):
            out.append(("p3", a))
    for a in range(1, k + 1):
        for b in range(a + 2, k + 1):
            parts = {a, _cyc(a + 1, k), b, _cyc(b + 1, k)}
            if len(parts) < 4:
                continue
            if _pair_feasible(G, L, a) and _pair_feasible(G, L, b):
                out.append(("m2", a, b))
    return out


def _realizations(
    G: PartiteGraph, L: Sequence[int], choice: tuple, order
) -> Iterator[list[int]]:
    """Concrete vertices of placement `choice` inside L, -1 at the fillers.

    `order` maps each candidate list to the candidates to try, in turn:
    the list itself enumerates every realization, a one-element random
    pick yields a single random one.
    """
    k = G.k
    verts = [-1] * (k + 1)
    if choice[0] == "p3":
        a = choice[1]
        mid, right = _cyc(a + 1, k), _cyc(a + 2, k)
        mids = [
            u
            for u in bits(L[mid])
            if G.nbr_mask(mid, u, a) & L[a] and G.nbr_mask(mid, u, right) & L[right]
        ]
        for verts[mid] in order(mids):
            for verts[a] in order(list(bits(G.nbr_mask(mid, verts[mid], a) & L[a]))):
                right_nbrs = G.nbr_mask(mid, verts[mid], right) & L[right]
                for verts[right] in order(list(bits(right_nbrs))):
                    yield list(verts)
        return
    _, a, b = choice
    nxt_a, nxt_b = _cyc(a + 1, k), _cyc(b + 1, k)

    def ends(start: int, nxt: int) -> list[int]:
        return [u for u in bits(L[start]) if G.nbr_mask(start, u, nxt) & L[nxt]]

    for verts[a] in order(ends(a, nxt_a)):
        for verts[nxt_a] in order(list(bits(G.nbr_mask(a, verts[a], nxt_a) & L[nxt_a]))):
            for verts[b] in order(ends(b, nxt_b)):
                b_nbrs = G.nbr_mask(b, verts[b], nxt_b) & L[nxt_b]
                for verts[nxt_b] in order(list(bits(b_nbrs))):
                    yield list(verts)


def _filled_copy(L: Sequence[int], choice: tuple, verts: list[int], pick) -> MixedCopy:
    """The copy with `verts` as its shape and fillers picked from L."""
    full = tuple(
        v if v >= 0 else pick(list(bits(L[p]))) for p, v in enumerate(verts) if p
    )
    return MixedCopy(kind=choice[0], anchor=tuple(choice[1:]), verts=full)


def _exchange(
    G: PartiteGraph, N: MixedCopy, L: Sequence[int], order, pick
) -> Optional[tuple[MixedCopy, MixedCopy]]:
    """Two disjoint copies inside V(N) and L, or None.

    The first copy's shape runs over every placement and realization in
    `order`, and the second is any placement that fits in what the first
    shape leaves; fillers always fit because each part offers at least
    two vertices.  With `order` exhaustive, None proves that N admits no
    exchange.
    """
    k = G.k
    if not all(L[p] for p in range(1, k + 1)):
        return None
    A = [0] + [L[p] | 1 << N.verts[p - 1] for p in range(1, k + 1)]
    for first in order(_mixed_placements(G, A)):
        for shape in _realizations(G, A, first, order):
            rest = [m & ~(1 << shape[p]) if shape[p] >= 0 else m for p, m in enumerate(A)]
            seconds = _mixed_placements(G, rest)
            if not seconds:
                continue
            second = pick(seconds)
            shape2 = next(_realizations(G, rest, second, lambda xs: [pick(xs)]))
            copy2 = _filled_copy(rest, second, shape2, pick)
            for p in range(1, k + 1):
                rest[p] &= ~(1 << copy2.verts[p - 1])
            return _filled_copy(rest, first, shape, pick), copy2
    return None


def maximal_mixed_tiling(G: PartiteGraph, seed: int = 0) -> MixedTiling:
    """Randomized mixed tiling, addition-maximal and exchange-closed.

    Each round enumerates every addable placement exhaustively and adds
    one (with its concrete vertices) at random.  When no shape fits but
    a leftover remains, it scans the copies in random order for an
    exchange and applies the first one found.  Every step gains a copy,
    so there are at most n of them, and the loop stops only when neither
    an addition nor an exchange exists.  An exchange can return vertices
    of the replaced copy to the leftover, so additions are scanned again
    after each exchange.  Deterministic per seed; a tiling that the
    additions leave perfect draws nothing for the exchange scan.
    """
    if not G.pattern.is_cycle or G.k < 4:
        raise ValueError("mixed tiling needs a cycle pattern with k >= 4")
    k = G.k
    rng = random.Random(seed)

    def shuffled(xs) -> list:
        return rng.sample(list(xs), len(xs))

    L = [0] + [G.full_mask] * k
    copies: list[MixedCopy] = []
    while True:
        options = _mixed_placements(G, L)
        if options:
            choice = rng.choice(options)
            shape = next(_realizations(G, L, choice, lambda xs: [rng.choice(xs)]))
            new = [_filled_copy(L, choice, shape, rng.choice)]
        else:
            swap = None
            if any(L):
                for idx in shuffled(range(len(copies))):
                    pair = _exchange(G, copies[idx], L, shuffled, rng.choice)
                    if pair is not None:
                        swap = idx, pair
                        break
            if swap is None:
                break
            idx, new = swap
            old = copies.pop(idx)
            for p in range(1, k + 1):
                L[p] |= 1 << old.verts[p - 1]
        for c in new:
            copies.append(c)
            for p in range(1, k + 1):
                L[p] &= ~(1 << c.verts[p - 1])
    return MixedTiling(tuple(copies), G.n, G.k)


@dataclass(frozen=True)
class InvariantReport:
    maximal: bool
    vacuous: bool
    violations: tuple[tuple, ...]
    copies_checked: int
    extension: Optional[tuple] = None
    exchange: Optional[tuple[int, MixedCopy, MixedCopy]] = None

    @property
    def ok(self) -> bool:
        return self.maximal and self.exchange is None and not self.violations

    def to_json_dict(self) -> dict:
        return {
            "maximal": self.maximal,
            "vacuous": self.vacuous,
            "copies_checked": self.copies_checked,
            "violations": [list(v) for v in self.violations],
            "extension": list(self.extension) if self.extension else None,
            "exchange": (
                [self.exchange[0]] + [c.to_json_dict() for c in self.exchange[1:]]
                if self.exchange
                else None
            ),
        }


def _validate_mixed(G: PartiteGraph, T: MixedTiling) -> None:
    k = G.k
    for c in T.copies:
        if len(c.verts) != k or any(not 0 <= v < G.n for v in c.verts):
            raise ValueError(f"invalid mixed copy: {c}")
        if c.kind == "p3":
            (a,) = c.anchor
            mid, right = _cyc(a + 1, k), _cyc(a + 2, k)
            if not (
                G.has_edge((a, c.verts[a - 1]), (mid, c.verts[mid - 1]))
                and G.has_edge((mid, c.verts[mid - 1]), (right, c.verts[right - 1]))
            ):
                raise ValueError(f"path edges missing in copy {c}")
        elif c.kind == "m2":
            a, b = c.anchor
            for start in (a, b):
                nxt = _cyc(start + 1, k)
                if not G.has_edge((start, c.verts[start - 1]), (nxt, c.verts[nxt - 1])):
                    raise ValueError(f"matching edge missing in copy {c}")
            if len({a, _cyc(a + 1, k), b, _cyc(b + 1, k)}) < 4:
                raise ValueError(f"matching pairs overlap in copy {c}")
        else:
            raise ValueError(f"unknown copy kind {c.kind!r}")
    covered = T.covered_masks()
    if any(covered[p].bit_count() != len(T.copies) for p in range(1, k + 1)):
        raise ValueError("leftover unbalanced: copies overlap or collide")


def check_appendix_invariants(G: PartiteGraph, T: MixedTiling) -> InvariantReport:
    """Both closures and the leftover-degree bounds of a mixed tiling.

    Re-verifies addition-maximality first (exhaustively over
    placements); a tiling that admits an addition is flagged as such in
    `extension`, never as an invariant violation.  On an
    addition-maximal tiling with nonempty leftover L, it re-verifies
    exchange-closure exhaustively over the copies, reports the first
    improving exchange found in `exchange` (the index of the replaced
    copy and its two replacements), and checks per copy N:

    * e(V(N), L) <= 4|L|/k,
    * each isolated vertex sends edges into at most one of the two
      adjacent leftover parts,
    * isolated vertices of the same copy adjacent to L sit within
      cyclic distance 2 of each other,
    * e(isolated(N), L) <= 2|L|/k.

    The bounds are promised only on exchange-closed tilings; violations
    are still listed when an exchange exists, and `ok` needs both
    closures and no violation.
    """
    if not G.pattern.is_cycle:
        raise ValueError("mixed tiling invariants need a cycle pattern")
    _validate_mixed(G, T)
    k = G.k
    L = T.leftover_masks()
    total_leftover = sum(L[p].bit_count() for p in range(1, k + 1))
    if total_leftover == 0:
        return InvariantReport(
            maximal=True, vacuous=True, violations=(), copies_checked=0
        )
    blockers = _mixed_placements(G, L)
    if blockers:
        return InvariantReport(
            maximal=False,
            vacuous=False,
            violations=(),
            copies_checked=0,
            extension=blockers[0],
        )
    violations: list[tuple] = []
    for idx, c in enumerate(T.copies):
        noniso = set(c.nonisolated_parts(k))
        e_copy = 0
        e_iso = 0
        adjacent_iso: list[int] = []
        for p in range(1, k + 1):
            v = c.verts[p - 1]
            fwd = (G.nbr_mask(p, v, _cyc(p + 1, k)) & L[_cyc(p + 1, k)]).bit_count()
            bwd = (G.nbr_mask(p, v, _cyc(p - 1, k)) & L[_cyc(p - 1, k)]).bit_count()
            e_copy += fwd + bwd
            if p in noniso:
                continue
            e_iso += fwd + bwd
            if fwd and bwd:
                violations.append((idx, "isolated-direction", p))
            if fwd or bwd:
                adjacent_iso.append(p)
        for x in range(len(adjacent_iso)):
            for y in range(x + 1, len(adjacent_iso)):
                d = abs(adjacent_iso[x] - adjacent_iso[y])
                if min(d, k - d) > 2:
                    violations.append(
                        (idx, "isolated-pair-window", adjacent_iso[x], adjacent_iso[y])
                    )
        if k * e_copy > 4 * total_leftover:
            violations.append((idx, "copy-edge-budget", e_copy))
        if k * e_iso > 2 * total_leftover:
            violations.append((idx, "isolated-edge-budget", e_iso))
    exchange = None
    for idx, c in enumerate(T.copies):
        pair = _exchange(G, c, L, lambda xs: xs, lambda xs: xs[0])
        if pair is not None:
            exchange = (idx, *pair)
            break
    return InvariantReport(
        maximal=True,
        vacuous=False,
        violations=tuple(violations),
        copies_checked=len(T.copies),
        exchange=exchange,
    )
