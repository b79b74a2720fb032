"""Transversal copies, tilings, factors, and mixed tilings.

A *transversal copy* picks one vertex per part and realizes every
pattern edge.  A *tiling* is a family of pairwise disjoint copies; its
leftover is automatically balanced because every copy consumes exactly
one vertex per part.  A *factor* is a tiling with empty leftover.

Every search that takes a vertex set per part takes it as per-part
masks (see `core.part_masks`): the path and cycle searches, the
factor search and the cover check.  Each checks its masks at the call and raises ValueError
on a short list, a bit at or above n, or a negative mask.  An empty slot
holds no vertex, so a path or cycle search through that part answers
None, and that None is a proof.

Search strategy notes
---------------------
* The search kernels live in `transtile.search`.  Copy searches use
  its copy kernel (`copy_enumerator`, planned once per search):
  complete backtracking over parts with bitmask neighborhood
  propagation, always branching on the part with the fewest candidates
  and breaking ties toward the lowest part index and lowest vertex
  index.  "None" answers are therefore proofs.
* Paths and cycles use `sweep` and `trace_back`.  The cycle finder
  anchors on every vertex of one part in turn and sweeps layer sets
  around the cycle, its first and last layers restricted to the
  anchor's neighbours; layered reachability is exact for each anchor,
  and all anchors are tried, so this search is complete at every size
  (no fallback needed for negative answers).
* The factor solver's phases, witness order, statistics and memory are
  stated once, in the `exact_transversal_factor_search` docstring.  The
  reasons behind them, which the code does not show:
  - The root masks change no choice.  The relabelling of
    `PartiteGraph.induced` is monotone within each part, so on the
    induced copy every choice (fail-first order, copy order, column
    choice, Hall matchings) would be the same; the masks only skip
    building it.
  - The Hall prune keeps every witness.  A factor of the remaining
    vertices restricts to a perfect matching between the remaining
    vertices of parts p and q for every pattern edge pq, so a node where
    one of them has none holds no factor.  The prune cuts only such
    subtrees, so a search that ends within its budget finds the witness
    the unpruned part-1 search finds, and None is still a proof; only
    `nodes` and `max_depth` shrink.
  - The column rule has one cut, the dead column.  The Hall prune almost
    never cuts there, and a column-phase None with one kind of leaf is a
    refutation tree that is simple to read.

Mixed tilings use two shapes on cycle patterns, each padded to one
vertex per part by isolated filler vertices: a 3-vertex path across
consecutive parts (one star, at its middle part), and two vertex-disjoint
edges on disjoint consecutive part pairs (one star per edge).  A star is
a centre part and the leaf parts its centre must reach.  The table
`_shapes(k)` declares every placement's stars once; placement,
realization, validation and the invariant check all read it.  Two
closures matter for a mixed tiling with leftover L:

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

import functools
import itertools
import random
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

from transtile.core import (
    PartiteGraph,
    VertexId,
    bits,
    is_transversal_tuple,
    part_masks,
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
    "greedy_clique_tiling",
    "find_transversal_path",
    "find_transversal_cycle",
    "greedy_cycle_tiling",
    "exact_transversal_factor_search",
    "cover_refutes_factor",
    "maximal_mixed_tiling",
    "check_appendix_invariants",
]


class TransversalCopy(NamedTuple):
    """One vertex per part: verts[p-1] is the index chosen in part p."""

    verts: tuple[int, ...]


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

    def overlaps(self) -> bool:
        """True iff two copies share a vertex."""
        return sum(m.bit_count() for m in self.covered_masks()) != self.k * len(self.copies)

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
            if not is_transversal_tuple(G, c.verts):
                raise ValueError(f"not a transversal copy: {c.verts}")
        if t.overlaps():
            raise ValueError("copies overlap")
        return t


class SearchStats(NamedTuple):
    nodes: int
    max_depth: int


# -- copy search ----------------------------------------------------------------


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
    G: PartiteGraph, i: int, j: int, masks: Sequence[int]
) -> Optional[tuple[VertexId, ...]]:
    """Path x_i .. x_j, one vertex per part, with x_p in masks[p].

    `masks` are per-part masks (see `core.part_masks`), empty outside
    parts i..j.  Parts i..j must be consecutive and each consecutive
    pair must be pattern-adjacent.  Forward sweep of layer sets, then
    backtrack; the sweep computes exact reachability, so None is a
    proof that no such path exists inside the masks.
    """
    if not 1 <= i < j <= G.k:
        raise ValueError(f"non-consecutive parts: need 1 <= i < j <= k, got ({i},{j})")
    masks = part_masks(G, masks, "path masks")
    if any(masks[p] for p in range(1, G.k + 1) if not i <= p <= j):
        raise ValueError(f"path masks must be empty outside parts {i}..{j}")
    for a in range(i, j):
        if not G.pattern.adjacent(a, a + 1):
            raise ValueError(f"non-consecutive parts: {a} and {a + 1} not joined")
    span = range(i, j + 1)
    layers = sweep(G._adj, span, masks[i : j + 1])
    if layers is None:
        return None
    return tuple(VertexId(p, v) for p, v in zip(span, trace_back(G._adj, span, layers)))


def _first_cycle(G: PartiteGraph, masks: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Transversal cycle with its part-p vertex in masks[p], or None.

    Anchors on each vertex of the most constrained part and sweeps the
    remaining arc; per anchor the sweep decides existence exactly, and
    every anchor is tried.  `masks` is indexed 1..k (slot 0 ignored).

    Not the copy kernel (`copy_enumerator`), on purpose: a sweep costs one
    pass per anchor, while the kernel backtracks over partial copies, and
    most where the answer is None.  On the `outside` masks of
    `space_barrier(C_k, n, seed=1)` both answer None: C8 at n=48 in 0.9 ms
    against 544 ms, C6 at n=60 in 1.0 ms against 17.5 ms (Python 3.11,
    2-core VM).  The kernel also returns other cycles: on 480 random C4-C6
    hosts (n 6 or 8, keep probability 0.3 to 0.6, 20 seeds) it changed the
    greedy cycle tiling's copy count on 152.
    """
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
        return tuple(verts[1:])
    return None


def find_transversal_cycle(
    G: PartiteGraph, masks: Sequence[int]
) -> Optional[TransversalCopy]:
    """Transversal cycle with part-p vertex in masks[p], or None (a proof)."""
    if not G.pattern.is_cycle:
        raise ValueError("transversal cycle search needs a cycle pattern")
    found = _first_cycle(G, part_masks(G, masks, "cycle masks"))
    return None if found is None else TransversalCopy(found)


def greedy_cycle_tiling(G: PartiteGraph) -> Tiling:
    """Repeatedly extract transversal cycles until none remain."""
    if not G.pattern.is_cycle:
        raise ValueError("transversal cycle tiling needs a cycle pattern")
    masks = [G.full_mask] * (G.k + 1)
    copies = []
    while (found := _first_cycle(G, masks)) is not None:
        copies.append(TransversalCopy(found))
        masks = [0, *(m & ~(1 << v) for m, v in zip(masks[1:], found))]
    return Tiling(tuple(copies), G.n, G.k)


# -- exact factor decision ---------------------------------------------------------


class _OverBudget(Exception):
    """The part-1 phase of the factor search would pass its node budget."""


def _cover_refutes(rows: list[int], live: int, m: int) -> bool:
    """True when a greedy cover of at most m - 1 vertices meets every copy
    in `live`, which proves there is no factor.

    `rows` masks, per vertex, the copies through it, in (part, index)
    order.  A factor of m copies needs m distinct vertices to meet them
    all, so a smaller cover is a proof.  Each pick is the vertex in the
    most live copies, the first in `rows` on a tie; False says only that
    the greedy found no smaller cover.  No pick meets more live copies
    than the one before it, so once the best count times the picks left
    falls short of the live copies, the greedy cannot finish: it stops
    there with the same False.
    """
    if not live:
        return m > 0
    for left in range(m - 1, 0, -1):
        counts = [(r & live).bit_count() for r in rows]
        best = max(counts)
        if best * left < live.bit_count():
            return False
        live &= ~rows[counts.index(best)]
        if not live:
            return True
    return False


def exact_transversal_factor_search(
    G: PartiteGraph, masks: Optional[Sequence[int]] = None
) -> tuple[Optional[Tiling], SearchStats]:
    """Complete factor decision with search statistics.

    `masks`, indexed 1..k (slot 0 ignored), are per-part root masks: the
    search decides a factor of the induced instance G[masks] in place,
    without relabelling.  They must select equally many vertices in
    every part, all below n; None means the whole graph.  Returns
    (factor, stats) or (None, stats); None is a proof of absence.  A
    factor is a `Tiling` of G in G's own labels whose leftover is
    exactly the complement of the masks.  The search has no size cap:
    a caller that bounds its work checks the size first, as `lab` does.

    The search is one recursive node, which counts one node per copy
    tried.  A node with part 1 covered is solved; otherwise it tries the
    copies its branching rule yields, in turn.  Two rules feed it, each
    complete, one per phase.
    1. `part1` yields the copies through the lowest-degree uncovered
       part-1 vertex (fail-first), and prunes by Hall's condition once
       the first has failed.  If the search ends within 2m nodes, its
       answer and stats are the result, and a factor lists its copies in
       the order of their part-1 vertices by degree.
    2. Otherwise the search starts again at the root under `column`,
       Knuth's column choice ("Dancing Links", arXiv:cs/0011047) over an
       index of every copy inside the masks, which also sees a vertex of
       another part that lies in no copy.  Its state is `(live, rows)`:
       `live` masks the copies disjoint from every copy taken, and `rows`
       holds one bitmap per uncovered vertex, in (part, index) order, of
       the copies through it.  It yields the live copies of the first
       vertex with the fewest of them (so ties go to the lowest part,
       then index), in index order, and nothing where that count is 0;
       each child drops the k rows of its copy.  Before its first node,
       the greedy cover of `_cover_refutes` picks at most m - 1 vertices
       from the root's rows; if they meet every copy, no m disjoint
       copies exist, and the answer is None with the part-1 phase's
       stats.  A root with a factor is never refuted this way.  A factor
       lists its copies in the order they were taken, and `nodes` and
       `max_depth` count both phases.
    Every search past the budget builds the whole index, and its memory
    is the column phase's price: one tuple per copy, plus k*m bitmaps
    (one per root vertex) with one bit per copy, and a list of at most
    k*m references per node on the search path.
    """
    k = G.k
    if masks is None:
        root = [G.full_mask] * (k + 1)
    else:
        root = part_masks(G, masks, "factor masks")
    sizes = sorted({root[p].bit_count() for p in range(1, k + 1)})
    if len(sizes) != 1:
        raise ValueError(f"factor masks unbalanced: sizes {sizes}")
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
    budget: Optional[int] = 2 * sizes[0]
    nodes = 0
    best_depth = 0
    acc: list[tuple[int, ...]] = []

    def node(cur: list[int], depth: int, state) -> bool:
        # one node of either phase: `rule` yields its moves, each a copy
        # and the state its child starts from
        nonlocal nodes, best_depth
        if depth > best_depth:
            best_depth = depth
        if not cur[0]:
            return True  # balanced parts: part 1 covered means all are
        for found, child in rule(cur, state):
            if nodes == budget:
                raise _OverBudget
            nodes += 1
            acc.append(found)
            if node([m ^ (1 << v) for m, v in zip(cur, found)], depth + 1, child):
                return True
            acc.pop()
        return False

    def part1(cur: list[int], start: int) -> Iterator:
        # part 1 only loses vertices along a branch, and each branch
        # removes its branching vertex order[i], so the scan for the next
        # uncovered vertex resumes at i + 1
        left1 = cur[0]
        i = start
        while not left1 >> order[i] & 1:
            i += 1
        cand = cur.copy()
        cand[0] = 1 << order[i]
        for tried, move in enumerate(zip(copies(cand), itertools.repeat(i + 1))):
            # the first child failed: prune by Hall's condition before the second
            if tried == 1 and not all(has_perfect_matching(r, cur[p], cur[q]) for r, p, q in hall):
                return
            yield move

    def column(cur: list[int], state: tuple[int, list[int]]) -> Iterator:
        live, rows = state
        counts = [(r & live).bit_count() for r in rows]
        least = min(counts)
        if not least:
            return  # a dead column: no live copy covers that vertex
        for i in bits(rows[counts.index(least)] & live):
            found = index[i]
            # a live copy's vertices are all uncovered, and the row of its
            # part-p vertex v follows the rows of the earlier parts and of
            # the uncovered part-p vertices below v
            child, kill, start, at = [], 0, 0, 0
            for m, v in zip(cur, found):
                j = at + (m & ((1 << v) - 1)).bit_count()
                kill |= rows[j]
                child += rows[start:j]
                start, at = j + 1, at + m.bit_count()
            yield found, (live & ~kill, child + rows[start:])

    rule = part1
    try:
        ok = node(list(root[1:]), 0, 0)
    except _OverBudget:
        acc.clear()
        budget = None
        index = list(copies(root[1:]))
        # one bitmap per (part, vertex), built bytewise: OR-ing one bit at
        # a time into growing ints would be quadratic in copies
        maps = [[bytearray(len(index) + 7 >> 3) for _ in range(G.n)] for _ in range(k)]
        for i, found in enumerate(index):
            for p, v in enumerate(found):
                maps[p][v][i >> 3] |= 1 << (i & 7)
        rows = [int.from_bytes(maps[p][v], "little") for p in range(k) for v in bits(root[p + 1])]
        del maps  # the buffers, as large as `rows`, are spent
        rule = column
        live = (1 << len(index)) - 1
        ok = not _cover_refutes(rows, live, sizes[0]) and node(list(root[1:]), 0, (live, rows))
    finally:
        del node  # it calls itself: unbind it so its state is freed now, not by the GC
    stats = SearchStats(nodes=nodes, max_depth=best_depth)
    if not ok:
        return None, stats
    return Tiling(tuple(map(TransversalCopy, acc)), G.n, G.k), stats


def cover_refutes_factor(G: PartiteGraph, cover: Sequence[int]) -> bool:
    """True when `cover` proves that G has no factor; False proves nothing.

    `cover` is per-part masks (see `core.part_masks`), such as the U of
    `space_barrier`.  It proves absence when it has fewer than n vertices
    and every transversal copy meets it: a factor's n disjoint copies
    would each need a vertex of their own in it.  Both are checked here,
    so a cover is never trusted.  The copy scan runs on the masks outside
    the cover, with the anchor sweep of `_first_cycle` on a cycle pattern
    and the copy kernel on any other; each scan's None is a proof.
    """
    cover = part_masks(G, cover, "cover masks")
    if sum(m.bit_count() for m in cover) >= G.n:
        return False
    outside = [0, *(G.full_mask & ~m for m in cover[1:])]
    if G.pattern.is_cycle:
        return _first_cycle(G, outside) is None
    return next(iter_copies(G, range(1, G.k + 1), outside[1:]), None) is None


# -- mixed tilings -------------------------------------------------------------------


class MixedCopy(NamedTuple):
    """One vertex per part; `kind` and `anchor` say which are non-isolated.

    kind "p3": path verts[a-1] - verts[a] - verts[a+1] on parts
    (a, a+1, a+2) cyclically, anchor = (a,).
    kind "m2": edges on disjoint part pairs (a, a+1), (b, b+1), anchor = (a, b), a < b.
    All remaining positions are isolated fillers.
    """

    kind: str
    anchor: tuple[int, ...]
    verts: tuple[int, ...]

    def stars(self, k: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """The stars of this copy's shape on C_k (see `_shapes`)."""
        stars = _shapes(k).get((self.kind, *self.anchor))
        if stars is None:
            raise ValueError(f"no {self.kind!r} shape at anchor {self.anchor} on C{k}")
        return stars

    def nonisolated_parts(self, k: int) -> tuple[int, ...]:
        return tuple(sorted({p for c, leaves in self.stars(k) for p in (c, *leaves)}))

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "anchor": list(self.anchor), "verts": list(self.verts)}


@dataclass(frozen=True)
class MixedTiling(_DisjointCopies):
    copies: tuple[MixedCopy, ...]
    n: int
    k: int

    def to_json_dict(self) -> dict:
        return {
            "copies": [c.to_json_dict() for c in self.copies],
            "leftover_per_part": self.leftover_per_part,
        }


def _cyc(p: int, k: int) -> int:
    return (p - 1) % k + 1


@functools.cache
def _shapes(k: int) -> Mapping[tuple, tuple[tuple[int, tuple[int, ...]], ...]]:
    """Each placement `(kind, *anchor)` on C_k, in placement order, to its
    stars (centre part, leaf parts), listed in the order they are picked."""
    table = {("p3", a): ((_cyc(a + 1, k), (a, _cyc(a + 2, k))),) for a in range(1, k + 1)}
    for a in range(1, k + 1):
        for b in range(a + 2, k + 1):
            if len({a, _cyc(a + 1, k), b, _cyc(b + 1, k)}) == 4:
                table["m2", a, b] = ((a, (_cyc(a + 1, k),)), (b, (_cyc(b + 1, k),)))
    return MappingProxyType(table)  # cached and shared: read-only


def _centres(G: PartiteGraph, L: Sequence[int], c: int, leaves: tuple) -> Iterator[int]:
    """Centres in L[c] with a neighbour in L in every leaf part, ascending."""
    rows = [(G._adj[c, q], L[q]) for q in leaves]
    for u in bits(L[c]):
        for row, m in rows:
            if not row[u] & m:
                break
        else:
            yield u


def _mixed_placements(G: PartiteGraph, L: Sequence[int]) -> list[tuple]:
    """All currently addable shapes, exhaustively: the stop criterion.

    Each distinct star is decided once, at its first fitting centre.
    """
    if not all(L[1:]):
        return []
    fits: dict = {}
    out = []
    for key, stars in _shapes(G.k).items():
        for star in stars:
            fit = fits.get(star)
            if fit is None:
                fit = fits[star] = next(_centres(G, L, *star), None) is not None
            if not fit:
                break
        else:
            out.append(key)
    return out


def _realizations(
    G: PartiteGraph, L: Sequence[int], choice: tuple, order
) -> Iterator[list[int]]:
    """Concrete vertices of placement `choice` inside L, -1 at the fillers.

    Star by star, the centre first and then each leaf among the centre's
    neighbours.  `order` maps each candidate list to the candidates to
    try, in turn: the list itself enumerates every realization, a
    one-element random pick yields a single random one.
    """
    return _walk(G, L, _shapes(G.k)[choice], order, [-1] * (G.k + 1), 0, 0, ())


def _walk(
    G: PartiteGraph, L: Sequence[int], stars: tuple, order, verts: list, s: int, c: int, leaves
) -> Iterator[list[int]]:
    """The realizations of `_realizations` that pick `leaves` around the
    chosen centre c, then stars s, s+1, ..., into `verts`.  A module
    function, not a closure: the generator outlives its caller, and a
    closure that calls itself would keep its state alive until the GC."""
    if leaves:
        q, rest = leaves[0], leaves[1:]
        for verts[q] in order(list(bits(G._adj[c, q][verts[c]] & L[q]))):
            yield from _walk(G, L, stars, order, verts, s, c, rest)
    elif s == len(stars):
        yield list(verts)
    else:
        c, leaves = stars[s]
        for verts[c] in order(list(_centres(G, L, c, leaves))):
            yield from _walk(G, L, stars, order, verts, s + 1, c, leaves)


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


class InvariantReport(NamedTuple):
    maximal: bool
    vacuous: bool
    violations: tuple[tuple, ...] = ()
    copies_checked: int = 0
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
        for centre, leaves in c.stars(k):
            u = (centre, c.verts[centre - 1])
            if not all(G.has_edge(u, (q, c.verts[q - 1])) for q in leaves):
                raise ValueError(f"shape edges missing in copy {c}")
    if T.overlaps():
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
        return InvariantReport(maximal=True, vacuous=True)
    blockers = _mixed_placements(G, L)
    if blockers:
        return InvariantReport(maximal=False, vacuous=False, extension=blockers[0])
    violations: list[tuple] = []
    for idx, c in enumerate(T.copies):
        noniso = set(c.nonisolated_parts(k))
        e_copy = e_iso = 0
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
        for x, y in itertools.combinations(adjacent_iso, 2):  # ascending: x < y
            if min(y - x, k - y + x) > 2:
                violations.append((idx, "isolated-pair-window", x, y))
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
        maximal=True, vacuous=False, violations=tuple(violations),
        copies_checked=len(T.copies), exchange=exchange,
    )
