"""The three search kernels that every transversal question reduces to.

* `copy_enumerator` enumerates transversal copies: one vertex per
  listed part, each drawn from that part's mask, realizing every
  pattern edge among the listed parts.  It plans once and iterates
  many times: `copy_enumerator(G, parts)` looks up the neighbour rows
  between the parts and returns a function from masks to copies, whose
  search memoises each level's plan.  The search is one loop over an
  explicit stack of branching levels, in the manner of Knuth's Dancing
  Links, not a recursion of nested generators: a copy reaches the caller
  through one generator frame at any depth.  The factor search (asking at
  every node), fans, connectors, greedy tilings and the randomized hole
  search keep one enumerator per loop; `iter_copies` is the one-off
  form for a single question, such as a hole check.
* `sweep` computes layered reachability along a sequence of parts, and
  `trace_back` reads one walk out of the layers.  Transversal paths,
  transversal cycles (one sweep per anchor vertex) and the
  space-barrier generator's edge test are such walks.
* `has_perfect_matching` decides a perfect matching of a bipartite
  graph given by neighbour-mask rows.  The factor search's Hall prune
  and robust-template verification ask it.

All three are complete: an exhausted enumeration, a None sweep or a
False matching answer is a proof that no copy, walk or perfect matching
exists inside the masks.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping, Optional, Sequence

from transtile.core import PartiteGraph, bits

__all__ = [
    "copy_enumerator",
    "has_perfect_matching",
    "iter_copies",
    "sweep",
    "trace_back",
]


def copy_enumerator(
    G: PartiteGraph, parts: Sequence[int]
) -> Callable[[Sequence[int]], Iterator[tuple[int, ...]]]:
    """Plan the copy search on `parts` once; return masks -> copies.

    The returned function yields every transversal copy on `parts` with
    position t's vertex in masks[t], as tuples aligned with `parts`.
    Complete backtracking in a deterministic order: branch on the open
    position with the fewest candidates (ties to the lower part index),
    try its vertices in ascending order, and narrow the candidates of
    the open positions whose parts the pattern joins to it.  Which
    positions stay open after branching at t, and which of them t's
    neighbour rows narrow, depend only on `parts` and the branches
    taken, so each level keeps its plan per branching position for the
    enumerator's lifetime.  The backtracking is one loop over an
    explicit stack, one entry per open branching level holding its
    masks, branching position, plan and untried vertices.
    """
    adj = G._adj
    width = len(parts)

    def plan(level: list, t: int) -> tuple:
        # rows are looked up per level reached, not up front, so a
        # one-off search (`iter_copies`) pays only for the levels it reaches
        p = parts[t]
        rest = []
        narrow = []
        for u in level[0]:
            if u != t:
                rest.append(u)
                rows = adj.get((p, parts[u]))
                if rows is not None:
                    narrow.append((u, rows))
        level[1][t] = got = (narrow, [rest, [None] * width])
        return got

    # a level is [open positions in ascending part order, plan per branch]
    top = [sorted(range(width), key=parts.__getitem__), [None] * width]

    def enumerate_copies(masks: Sequence[int]) -> Iterator[tuple[int, ...]]:
        if not all(masks):
            return
        chosen = [0] * width
        # the deepest open branching level lives in locals (its masks, its
        # position, its narrowing rows, the level below it and its untried
        # vertices); the levels above it wait on the stack, above an empty
        # sentinel, so every copy leaves through this one generator frame,
        # whatever the depth
        stack: list[tuple] = []
        base, bt, narrow, below, untried = None, 0, (), None, 0
        cur, level = list(masks), top
        while True:
            # branch on the open position with the fewest candidates; only
            # a strictly smaller count moves t, so ties go to the lower
            # part index
            left = level[0]
            t = left[0]
            least = cur[t].bit_count()
            for u in left:
                c = cur[u].bit_count()
                if c < least:
                    t, least = u, c
            if len(left) == 1:
                m = cur[t]
                while m:
                    low = m & -m
                    chosen[t] = low.bit_length() - 1
                    yield tuple(chosen)
                    m ^= low
            else:
                stack.append((base, bt, narrow, below, untried))
                base, bt, untried = cur, t, cur[t]
                narrow, below = level[1][t] or plan(level, t)
            # resume the deepest level at its next vertex, ascending, whose
            # narrowing leaves every open position a candidate
            while True:
                if not untried:
                    if not stack:
                        return
                    base, bt, narrow, below, untried = stack.pop()
                    continue
                low = untried & -untried
                untried ^= low
                v = low.bit_length() - 1
                nxt = base.copy()
                for u, urows in narrow:
                    nxt[u] &= urows[v]
                    if not nxt[u]:
                        break
                else:
                    chosen[bt] = v
                    cur, level = nxt, below
                    break

    return enumerate_copies


def iter_copies(
    G: PartiteGraph, parts: Sequence[int], masks: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    """Every transversal copy on `parts` with position t's vertex in masks[t].

    A one-off `copy_enumerator(G, parts)(masks)`; a caller that searches
    the same parts under many masks should plan once and keep the
    enumerator instead.
    """
    return copy_enumerator(G, parts)(masks)


def sweep(
    adj: Mapping[tuple[int, int], Sequence[int]], seq: Sequence[int], masks: Sequence[int]
) -> Optional[list[int]]:
    """Layered reachability along the parts seq[0], seq[1], ...

    `adj[(p, q)][v]` is the mask of part-q neighbours of vertex v of
    part p, and consecutive parts of `seq` must be joined.  Layer 0 is
    masks[0]; layer t is the set of vertices of masks[t] adjacent to
    some vertex of layer t-1.  Returns the layers, or None as soon as
    one is empty, which proves that no walk through the masks exists.
    """
    layer = masks[0]
    layers = [layer]
    for t in range(1, len(seq)):
        rows = adj[seq[t - 1], seq[t]]
        reach = 0
        while layer:  # the bits of layer, inlined: this loop is the hot path
            low = layer & -layer
            reach |= rows[low.bit_length() - 1]
            layer ^= low
        layer = reach & masks[t]
        if not layer:
            return None
        layers.append(layer)
    return layers if layer else None


def trace_back(
    adj: Mapping[tuple[int, int], Sequence[int]], seq: Sequence[int], layers: Sequence[int]
) -> list[int]:
    """One walk through the layers of a successful `sweep`, as vertex indices.

    Takes the lowest vertex of the last layer, then, going back along
    `seq`, the lowest vertex of each layer adjacent to the one after it.
    """
    walk = [0] * len(layers)
    cand = layers[-1]
    for t in range(len(layers) - 1, -1, -1):
        v = (cand & -cand).bit_length() - 1
        walk[t] = v
        if t:
            cand = layers[t - 1] & adj[seq[t], seq[t - 1]][v]
    return walk


def has_perfect_matching(rows: Sequence[int], left: int, right: int) -> bool:
    """Perfect matching between the vertices of the masks `left` and `right`?

    `rows[u]` is the mask of right-side neighbours of left vertex u, and
    the two masks must have equal sizes.  Kuhn's augmenting paths; each
    augment takes a free neighbour when there is one and only then
    recurses through matched ones.
    """
    owner: dict[int, int] = {}
    taken = 0
    seen = 0

    def augment(u: int) -> bool:
        nonlocal taken, seen
        cand = rows[u] & right & ~seen
        free = cand & ~taken
        if free:
            w = (free & -free).bit_length() - 1
            taken |= 1 << w
            owner[w] = u
            return True
        seen |= cand
        for w in bits(cand):
            if augment(owner[w]):
                owner[w] = u
                return True
        return False

    for u in bits(left):
        seen = 0
        if not augment(u):
            return False
    return True
