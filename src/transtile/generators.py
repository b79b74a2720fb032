"""Instance generators: structured families for the experiment runner.

Every generator is deterministic in its seed.  Randomness is drawn from
named sub-streams derived by hashing (seed, label...) with SHA-256, so
each part, pass, or process step owns an independent stream and adding
a new consumer never perturbs existing ones.  Two calls with an
identical `GenSpec` produce byte-identical serializations.

Families
--------
complete            complete n-blow-up of the pattern
random_subgraph     keep each allowed edge independently with probability p
hole_suppressed     shortest prefix of a random edge order that leaves no
                    r-partite hole of size s (an exact decision)
space_barrier       complete blow-up of a cycle pattern, thinned so that
                    every transversal cycle meets a set U too small to
                    cover a factor, so no transversal cycle factor exists;
                    delta* >= n/k - 1.  The graph carries U as its `cover`
random_split        balanced uniform k-split of an arbitrary host edge list
"""

from __future__ import annotations

import hashlib
import os
import random
from bisect import bisect_left
from dataclasses import InitVar, dataclass, field
from typing import Iterable, Optional

from transtile.core import Param, Pattern, PartiteGraph, bits
from transtile.core import json_field, json_params
from transtile.holes import certify_no_hole

__all__ = [
    "GenSpec",
    "subseed",
    "rng_for",
    "complete_blowup",
    "random_spanning_subgraph",
    "hole_suppressed_process",
    "space_barrier",
    "random_k_split",
    "sample_balanced_partition",
    "read_edge_list",
]


def subseed(seed: int, *labels) -> int:
    """64-bit sub-stream seed derived from (seed, labels) via SHA-256."""
    data = ":".join([str(seed), *map(str, labels)]).encode()
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


def rng_for(seed: int, *labels) -> random.Random:
    return random.Random(subseed(seed, *labels))


def complete_blowup(pattern: Pattern, n: int) -> PartiteGraph:
    return PartiteGraph.complete(pattern, n)


def random_spanning_subgraph(G: PartiteGraph, p: float, seed: int) -> PartiteGraph:
    """Keep each edge of G independently with probability p.

    One RNG sub-stream per pattern edge, consumed in canonical edge
    order, so results are reproducible part pair by part pair.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability p={p} outside [0, 1]")
    # each kept edge is an edge of G, so it joins adjacent parts, lies in
    # range and comes up once: the rows are built without from_edges' checks
    adj: dict[tuple[int, int], tuple[int, ...]] = {}
    # each distinct host row's (column, column bit) pairs, listed once
    columns: dict[int, tuple[tuple[int, int], ...]] = {}
    for i, j in sorted(G.pattern.edges):
        draw = rng_for(seed, "pair", i, j).random
        fwd = []
        back = [0] * G.n
        for a, row in enumerate(G._adj[(i, j)]):
            if row not in columns:
                columns[row] = tuple((b, 1 << b) for b in bits(row))
            # one draw per edge of the row, in ascending column order; a
            # kept edge goes into its backward row as it is drawn
            bit = 1 << a
            kept = 0
            for b, low in columns[row]:
                if draw() < p:
                    kept |= low
                    back[b] |= bit
            fwd.append(kept)
        adj[(i, j)] = tuple(fwd)
        adj[(j, i)] = tuple(back)
    return PartiteGraph(G.pattern, G.n, adj)


def _first_hole_free(base: PartiteGraph, edges: list, r: int, s: int) -> tuple:
    """Shortest prefix of `edges` whose addition to `base` leaves no
    r-partite hole of size s, as (graph, length, certified, checks).

    Adding edges never creates a hole, so bisection finds the prefix
    that a scan certifying after every edge would stop at.  If even the
    whole list leaves a hole, all of it is added and certified is False.
    Each probe moves from the previous probe's graph, adding or deleting
    only the edges between the two prefixes, so `edges` must be distinct
    and absent from `base`.
    """
    checks = 0
    G, at = base, 0

    def prefix(t: int) -> PartiteGraph:
        nonlocal G, at
        G = G.add_edges(edges[at:t]) if t >= at else G.delete_edges(edges[t:at])
        at = t
        return G

    def hole_free(t: int) -> bool:
        nonlocal checks
        checks += 1
        return certify_no_hole(prefix(t), r, s)[0]

    t = bisect_left(range(len(edges) + 1), True, key=hole_free)
    kept = min(t, len(edges))
    return prefix(kept), kept, t <= len(edges), checks


def hole_suppressed_process(
    pattern: Pattern,
    n: int,
    r: int,
    s: int,
    seed: int,
    budget: Optional[int] = None,
) -> tuple[PartiteGraph, dict]:
    """Add the absent cross edges in a seeded random order up to the
    first prefix with no r-partite hole of size s, or `budget` edges.

    The prefix is found by bisection with the exact `certify_no_hole`,
    so "certified" is a proof.  Returns (graph, report) with report keys
    `edges_added`, `certified` and `checks`.
    """
    if not 1 <= s <= n:
        raise ValueError(f"hole size s={s} out of range [1..{n}]")
    if budget is not None and budget < 0:
        raise ValueError(f"edge budget must be >= 0, got {budget}")
    order = [
        (i, a, j, b)
        for i, j in sorted(pattern.edges)
        for a in range(n)
        for b in range(n)
    ]
    rng_for(seed, "order").shuffle(order)
    order = order[:budget]
    empty = PartiteGraph.from_edges(pattern, n, [])
    G, added, certified, checks = _first_hole_free(empty, order, r, s)
    return G, {"edges_added": added, "certified": certified, "checks": checks}


def space_barrier(
    pattern: Pattern,
    n: int,
    seed: int = 0,
    hole_target_s: Optional[int] = None,
    budget: Optional[int] = None,
) -> tuple[PartiteGraph, tuple[int, ...], dict]:
    """Cycle-pattern instance where every transversal cycle meets a set U
    too small to cover a factor, with delta* >= n/k - 1.  U comes back as
    per-part masks (see `core.part_masks`).

    Takes the complete blow-up of C_k, fixes U_i = the first n/k - 1
    vertices of each part, deletes every edge with both ends outside U,
    then runs a constrained random process that re-adds outside edges
    one by one, rejecting any edge that would close a transversal cycle
    avoiding U.  Each candidate comes bound to the rows its test reads,
    so the pass looks nothing up per candidate: it is tested before it is
    added, by one walk round the rest of the cycle, and only a kept edge
    is added.  Rejection is permanent (more edges only create more
    cycles), so a single shuffled pass reaches a maximal admissible set.
    Without a hole target, `candidates_tried` is the budget, or every
    candidate if that is fewer.

    Every transversal cycle of the result meets U, and |U| = k(n/k - 1)
    is too small to cover a factor, so no transversal cycle factor
    exists.  The partite minimum degree stays >= n/k - 1 because U is
    completely joined to everything.  U is that certificate: G has no
    `cover`, the `space_barrier` family attaches U as one, and the lab's
    factor decision checks it (`tiling.cover_refutes_factor`) and
    searches only if the check fails.

    If `hole_target_s` is given, only the shortest prefix of the accepted
    edges that leaves no 2-partite hole of that size is kept (bisection
    with the exact `certify_no_hole`); if there is one, `candidates_tried`
    counts up to and including the last kept edge.
    """
    if not pattern.is_cycle or pattern.k < 4:
        raise ValueError("space barrier needs a cycle pattern with k >= 4")
    k = pattern.k
    if n % k != 0:
        raise ValueError(f"part size not divisible: n={n} must be a multiple of k={k}")
    if budget is not None and budget < 0:
        raise ValueError(f"candidate budget must be >= 0, got {budget}")
    u_size = n // k - 1
    u_mask = (1 << u_size) - 1
    full = (1 << n) - 1
    outside = full & ~u_mask

    # keep exactly the edges meeting U on either side: the same rows in
    # both orientations
    u_rows = tuple(full if a < u_size else u_mask for a in range(n))
    adj: dict[tuple[int, int], list[int]] = {}
    for i, j in pattern.edges:
        adj[(i, j)] = list(u_rows)
        adj[(j, i)] = list(u_rows)

    # each sorted cycle edge (i, i + 1) is oriented i -> i + 1 once, and
    # the wrap edge (1, k) runs k -> 1.  An edge (i,a)-(j,b) of the
    # orientation i -> j closes a transversal cycle avoiding U iff a walk
    # from b round the arc from j to the part before i, staying outside
    # U, ends at a neighbour of a (a itself is outside U).  So each edge
    # binds its rows once: the arc's steps, the closing rows from i to the
    # part before it and the pair's own two row lists.  The first step
    # starts from the one vertex b, and the last stops at the first vertex
    # with a neighbour of a outside U.  The walk never reads the pair
    # (i, j), so a candidate is tested before it is added, and all rows
    # are the process's own lists, which see every edge kept so far.  A
    # candidate is (edge, bound rows, a, b) with a in the edge's tail, so
    # the wrap edge's ends come swapped.  Before the seeded shuffle the
    # list runs by sorted edge, then a, then b of the edge as sorted
    candidates = []
    span = range(u_size, n)
    for i, j in sorted(pattern.edges):
        wrap = (i, j) == (1, k)
        edge = tail, head = (k, 1) if wrap else (i, j)
        seq = [(tail + t) % k + 1 for t in range(k - 1)]
        first, *middle, last = [adj[(p, q)] for p, q in zip(seq, seq[1:])]
        bound = first, middle, last, adj[(tail, seq[-1])], adj[edge], adj[(head, tail)]
        candidates += [
            (edge, bound, b, a) if wrap else (edge, bound, a, b) for a in span for b in span
        ]
    rng_for(seed, "order").shuffle(candidates)
    window = candidates[:budget]

    kept = []
    for cand in window:
        _, (first, middle, last, close, fwd, back), a, b = cand
        layer = first[b] & outside
        for rows in middle:
            reach = 0
            while layer:
                low = layer & -layer
                reach |= rows[low.bit_length() - 1]
                layer ^= low
            layer = reach & outside
        target = close[a] & outside
        while layer:
            low = layer & -layer
            if last[low.bit_length() - 1] & target:
                break  # the edge would close a cycle avoiding U
            layer ^= low
        else:
            fwd[a] |= 1 << b
            back[b] |= 1 << a
            kept.append(cand)
    added, certified, checks, tried = len(kept), None, 0, len(window)
    if hole_target_s is None:
        # adj holds the base edges plus exactly the kept ones
        G = PartiteGraph(pattern, n, {key: tuple(v) for key, v in adj.items()})
    else:
        base = PartiteGraph(pattern, n, dict.fromkeys(adj, u_rows))
        edges = [(i, a, j, b) for (i, j), _, a, b in kept]
        G, added, certified, checks = _first_hole_free(base, edges, 2, hole_target_s)
        if certified:
            # the shuffled position of the last kept edge
            tried = candidates.index(kept[added - 1]) + 1 if added else 0
    U = (0,) + (u_mask,) * k
    report = {
        "u_size": u_size,
        "edges_added": added,
        "candidates_tried": tried,
        "certified": certified,
        "checks": checks,
    }
    return G, U, report


def sample_balanced_partition(m: int, k: int, seed: int) -> list[list[int]]:
    """Uniform partition of [0..m-1] into k blocks of equal size.

    Returned as `blocks[p]` for parts p = 1..k (slot 0 empty); block
    order within a part records the part-relative index of each host
    vertex.  Exposed so callers can re-derive the split a seed produced.
    """
    if m % k != 0:
        raise ValueError(f"host order not divisible: m={m} must be a multiple of k={k}")
    perm = list(range(m))
    rng_for(seed, "split").shuffle(perm)
    size = m // k
    return [[]] + [perm[(p - 1) * size : p * size] for p in range(1, k + 1)]


def random_k_split(
    host_edges: Iterable[tuple[int, int]],
    pattern: Pattern,
    seed: int,
    m: Optional[int] = None,
) -> PartiteGraph:
    """Balanced uniform k-split of a host graph.

    Host vertices 0..m-1 are shuffled into k equal parts; host edges
    whose ends land in pattern-adjacent parts survive, all others
    (including intra-part edges) are dropped.
    """
    edges = []
    low, top = 0, -1
    for u, v in host_edges:
        if u == v:
            raise ValueError(f"host edge ({u},{v}) is a loop")
        edges.append((u, v) if u < v else (v, u))
        low, top = min(low, u, v), max(top, u, v)
    edges = sorted(set(edges))
    if m is None:
        m = top + 1
    if low < 0 or top >= m:
        raise ValueError(f"host vertex {low if low < 0 else top} out of range for m={m}")
    blocks = sample_balanced_partition(m, pattern.k, seed)
    where = {}
    for p in range(1, pattern.k + 1):
        for idx, host_v in enumerate(blocks[p]):
            where[host_v] = (p, idx)
    n = m // pattern.k
    kept = []
    for u, v in edges:
        (pu, iu), (pv, iv) = where[u], where[v]
        if pu != pv and pattern.adjacent(pu, pv):
            kept.append((pu, iu, pv, iv))
    return PartiteGraph.from_edges(pattern, n, kept)


def read_edge_list(path) -> list[tuple[int, int]]:
    """Host edge file: one `u v` pair per line, 0-based; blank lines and
    `#` comments ignored."""
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                u, v = map(int, line.split())
            except ValueError:  # a field count other than 2, or a field not an integer
                raise ValueError(f"{path}:{lineno}: expected `u v`, got {line!r}") from None
            out.append((u, v))
    return out


# -- declarative specs --------------------------------------------------------


def _random_subgraph(spec: "GenSpec") -> PartiteGraph:
    base = complete_blowup(spec.pattern, spec.n)
    return random_spanning_subgraph(base, spec.args["p"], spec.seed)


def _hole_suppressed(spec: "GenSpec") -> PartiteGraph:
    return hole_suppressed_process(spec.pattern, spec.n, seed=spec.seed, **spec.args)[0]


def _space_barrier(spec: "GenSpec") -> PartiteGraph:
    G, U, _ = space_barrier(spec.pattern, spec.n, seed=spec.seed, **spec.args)
    return PartiteGraph(G.pattern, G.n, G._adj, U)


def _random_split(spec: "GenSpec") -> PartiteGraph:
    a = spec.args
    edges = a["host_edges"] if a["host_file"] is None else read_edge_list(a["host_file"])
    return random_k_split(edges, spec.pattern, spec.seed, m=a["m"])


def _hole_suppressed_fits(spec: "GenSpec") -> None:
    a, k = spec.args, spec.pattern.k
    if a["s"] > spec.n:
        raise ValueError(f"gen.params.s must be <= n={spec.n}, got {a['s']}")
    if a["r"] > k:
        raise ValueError(f"gen.params.r must be <= the pattern's k={k}, got {a['r']}")


def _space_barrier_fits(spec: "GenSpec") -> None:
    k = spec.pattern.k
    if not spec.pattern.is_cycle or k < 4:
        raise ValueError("space_barrier needs gen.pattern a cycle with k >= 4")
    if spec.n % k:
        raise ValueError(f"space_barrier needs gen.n a multiple of k={k}, got {spec.n}")


# family -> (declared params, builder).  A builder returns the instance
# graph; space_barrier's carries its U as `cover` (see `GenSpec.build`).
# The builders call the generators by their module names, so a wrapper
# bound to those names sees each call; hole_suppressed and space_barrier
# declare their generators' keywords.
_BUDGET = Param("budget", int | None, None, low=0)
FAMILIES = {
    "complete": ((), lambda spec: complete_blowup(spec.pattern, spec.n)),
    "random_subgraph": ((Param("p", float, low=0, high=1),), _random_subgraph),
    "hole_suppressed": (
        (Param("r", int, low=2), Param("s", int, low=1), _BUDGET),
        _hole_suppressed,
    ),
    "space_barrier": (
        (Param("hole_target_s", int | None, None, low=1), _BUDGET),
        _space_barrier,
    ),
    "random_split": (
        (
            Param("host_file", str, None),
            Param("host_edges", list[tuple[int, int]], unless="host_file"),
            Param("m", int | None, None),
        ),
        _random_split,
    ),
}
# family -> what its params must satisfy given the spec's own n and
# pattern, checked with the params so that a misfit is a config error
FITS = {"hole_suppressed": _hole_suppressed_fits, "space_barrier": _space_barrier_fits}


@dataclass(frozen=True)
class GenSpec:
    """Declarative instance description used by experiment configs.

    `params` holds the family's arguments as given, and the JSON form
    keeps them; `args` holds them parsed at construction by the family's
    declaration in FAMILIES.  A missing, mistyped or out-of-range param,
    or one that does not fit n or the pattern (FITS), raises ValueError
    naming `gen.params.<key>` (or `gen.n`, `gen.pattern`); other keys are
    ignored.  Given `base_dir`, a relative `host_file` is joined to it in
    both, so the spec reads the same file from any working directory.
    """

    family: str
    pattern: Pattern
    n: int
    seed: int = 0
    params: dict = field(default_factory=dict)
    args: dict = field(init=False, repr=False, compare=False)
    base_dir: InitVar[Optional[str]] = None

    def __post_init__(self, base_dir: Optional[str]):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; pick from {tuple(FAMILIES)}")
        declared, _ = FAMILIES[self.family]
        args = json_params(self.params, declared, self.family, "gen.params")
        if base_dir is not None and args.get("host_file") is not None:
            args["host_file"] = os.path.join(base_dir, args["host_file"])
            object.__setattr__(self, "params", {**self.params, "host_file": args["host_file"]})
        object.__setattr__(self, "args", args)
        if self.family in FITS:
            FITS[self.family](self)

    def build(self) -> PartiteGraph:
        """The instance graph.  Only a `space_barrier` graph carries a
        `cover`, its U; for every other family `cover` is None.  A cover
        is a claim, not a proof: `tiling.cover_refutes_factor` checks it.
        """
        return FAMILIES[self.family][1](self)

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "pattern": self.pattern.to_json_dict(),
            "n": self.n,
            "seed": self.seed,
            "params": dict(self.params),
        }

    @staticmethod
    def from_json_dict(data: dict, base_dir: Optional[str] = None) -> "GenSpec":
        return GenSpec(
            family=json_field(data, "family", str, "gen"),
            pattern=Pattern.from_json_dict(json_field(data, "pattern", dict, "gen")),
            n=json_field(data, "n", int, "gen"),
            seed=json_field(data, "seed", int, "gen", 0),
            params=dict(json_field(data, "params", dict, "gen", {})),
            base_dir=base_dir,
        )
