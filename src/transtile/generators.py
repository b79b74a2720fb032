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
                    delta* >= n/k - 1
random_split        balanced uniform k-split of an arbitrary host edge list
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Optional

from transtile.core import Pattern, PartiteGraph, VertexSetFamily, bits, json_field
from transtile.holes import certify_no_hole
from transtile.search import sweep

__all__ = [
    "GenSpec",
    "GenResult",
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
    for i, j in sorted(G.pattern.edges):
        draw = rng_for(seed, "pair", i, j).random
        fwd = []
        for row in G._adj[(i, j)]:
            # one draw per edge of the row, in ascending column order
            kept = 0
            while row:
                low = row & -row
                if draw() < p:
                    kept |= low
                row ^= low
            fwd.append(kept)
        back = [0] * G.n
        for a, kept in enumerate(fwd):
            bit = 1 << a
            while kept:
                low = kept & -kept
                back[low.bit_length() - 1] |= bit
                kept ^= low
        adj[(i, j)] = tuple(fwd)
        adj[(j, i)] = tuple(back)
    return PartiteGraph(G.pattern, G.n, adj)


def _first_hole_free(base: PartiteGraph, edges: list, r: int, s: int) -> tuple:
    """Shortest prefix of `edges` whose addition to `base` leaves no
    r-partite hole of size s, as (graph, length, certified, checks).

    Adding edges never creates a hole, so bisection finds the prefix
    that a scan certifying after every edge would stop at.  If even the
    whole list leaves a hole, all of it is added and certified is False.
    """
    checks = 0

    def hole_free(t: int) -> bool:
        nonlocal checks
        checks += 1
        return certify_no_hole(base.add_edges(edges[:t]), r, s)[0]

    t = bisect_left(range(len(edges) + 1), True, key=hole_free)
    kept = min(t, len(edges))
    return base.add_edges(edges[:kept]), kept, t <= len(edges), checks


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
    `edges_added`, `certified`, `regime` (always "exact") and `checks`.
    """
    if not 1 <= s <= n:
        raise ValueError(f"hole size s={s} out of range [1..{n}]")
    order = [
        (i, a, j, b)
        for i, j in sorted(pattern.edges)
        for a in range(n)
        for b in range(n)
    ]
    rng_for(seed, "order").shuffle(order)
    order = order[: len(order) if budget is None else max(budget, 0)]
    empty = PartiteGraph.from_edges(pattern, n, [])
    G, added, certified, checks = _first_hole_free(empty, order, r, s)
    return G, {
        "edges_added": added,
        "certified": certified,
        "regime": "exact",
        "checks": checks,
    }


def space_barrier(
    pattern: Pattern,
    n: int,
    seed: int = 0,
    hole_target_s: Optional[int] = None,
    budget: Optional[int] = None,
) -> tuple[PartiteGraph, VertexSetFamily, dict]:
    """Cycle-pattern instance where every transversal cycle meets a set U
    too small to cover a factor, with delta* >= n/k - 1.

    Takes the complete blow-up of C_k, fixes U_i = the first n/k - 1
    vertices of each part, deletes every edge with both ends outside U,
    then runs a constrained random process that re-adds outside edges
    one by one, rejecting any edge that would close a transversal cycle
    avoiding U.  Rejection is permanent (more edges only create more
    cycles), so a single shuffled pass reaches a maximal admissible set.

    Every transversal cycle of the result meets U, and |U| = k(n/k - 1)
    is too small to cover a factor, so no transversal cycle factor
    exists.  The partite minimum degree stays >= n/k - 1 because U is
    completely joined to everything.

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
    u_size = n // k - 1
    u_mask = (1 << u_size) - 1
    outside = [0] + [((1 << n) - 1) & ~u_mask for _ in range(k)]

    adj: dict[tuple[int, int], list[int]] = {}
    full = (1 << n) - 1
    for i, j in pattern.edges:
        # keep exactly the edges meeting U on either side
        adj[(i, j)] = [full if a < u_size else u_mask for a in range(n)]
        adj[(j, i)] = [full if b < u_size else u_mask for b in range(n)]

    candidates = [
        (i, a, j, b)
        for i, j in sorted(pattern.edges)
        for a in bits(outside[i])
        for b in bits(outside[j])
    ]
    rng_for(seed, "order").shuffle(candidates)
    if budget is None:
        budget = len(candidates)

    # per orientation i -> j, the cycle parts from j round to i and the
    # outside masks of the parts strictly between them: an edge (i,a)-(j,b)
    # closes a transversal cycle avoiding U iff a walk from b reaches a
    arcs = {}
    for j in range(1, k + 1):
        seq = [(j - 1 + t) % k + 1 for t in range(k)]
        arcs[j] = seq, [outside[p] for p in seq[1:-1]]

    base = PartiteGraph(pattern, n, {key: tuple(v) for key, v in adj.items()})
    kept = []
    tried = 0
    for i, a, j, b in candidates:
        if tried >= budget:
            break
        tried += 1
        # orient so that pj follows pi on the cycle; sorted cycle edges
        # are (i, i+1) except the wrap edge (1, k)
        if i == 1 and j == k:
            pi, pa, pj, pb = k, b, 1, a
        else:
            pi, pa, pj, pb = i, a, j, b
        adj[(pi, pj)][pa] |= 1 << pb
        adj[(pj, pi)][pb] |= 1 << pa
        seq, between = arcs[pj]
        if sweep(adj, seq, [1 << pb, *between, outside[pi] & 1 << pa]) is not None:
            adj[(pi, pj)][pa] &= ~(1 << pb)
            adj[(pj, pi)][pb] &= ~(1 << pa)
            continue
        kept.append((i, a, j, b))
    G, added = base.add_edges(kept), len(kept)
    certified = regime = None
    checks = 0
    if hole_target_s is not None:
        G, added, certified, checks = _first_hole_free(base, kept, 2, hole_target_s)
        regime = "exact"
        if certified:
            tried = candidates.index(kept[added - 1]) + 1 if added else 0
    U = VertexSetFamily([(p, range(u_size)) for p in range(1, k + 1)])
    report = {
        "u_size": u_size,
        "edges_added": added,
        "candidates_tried": tried,
        "certified": certified,
        "regime": regime,
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
    top = -1
    for u, v in host_edges:
        if u == v:
            raise ValueError(f"host edge ({u},{v}) is a loop")
        edges.append((u, v) if u < v else (v, u))
        top = max(top, u, v)
    edges = sorted(set(edges))
    if m is None:
        m = top + 1
    if top >= m:
        raise ValueError(f"host vertex {top} out of range for m={m}")
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
            fields = line.split()
            if len(fields) != 2:
                raise ValueError(f"{path}:{lineno}: expected `u v`, got {line!r}")
            out.append((int(fields[0]), int(fields[1])))
    return out


# -- declarative specs --------------------------------------------------------


@dataclass(frozen=True)
class GenResult:
    graph: PartiteGraph
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class GenSpec:
    """Declarative instance description used by experiment configs;
    `params` holds the family's arguments (p; r, s, budget; hole_target_s,
    budget; host_file or host_edges, m), and other keys are ignored."""

    family: str
    pattern: Pattern
    n: int
    seed: int = 0
    params: dict = field(default_factory=dict)

    FAMILIES = ("complete", "random_subgraph", "hole_suppressed", "space_barrier", "random_split")

    def __post_init__(self):
        if self.family not in self.FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; pick from {self.FAMILIES}")
        if self.family == "random_subgraph" and "p" not in self.params:
            raise ValueError("random_subgraph needs params.p")
        if self.family == "hole_suppressed":
            for key in ("r", "s"):
                if key not in self.params:
                    raise ValueError(f"hole_suppressed needs params.{key}")
        if self.family == "random_split" and not (
            "host_file" in self.params or "host_edges" in self.params
        ):
            raise ValueError("random_split needs params.host_file or params.host_edges")

    def build(self) -> GenResult:
        p = dict(self.params)
        if self.family == "complete":
            return GenResult(complete_blowup(self.pattern, self.n))
        if self.family == "random_subgraph":
            base = complete_blowup(self.pattern, self.n)
            return GenResult(random_spanning_subgraph(base, p["p"], self.seed))
        if self.family == "hole_suppressed":
            G, report = hole_suppressed_process(
                self.pattern,
                self.n,
                p["r"],
                p["s"],
                self.seed,
                budget=p.get("budget"),
            )
            return GenResult(G, {"report": report})
        if self.family == "space_barrier":
            G, U, report = space_barrier(
                self.pattern,
                self.n,
                seed=self.seed,
                hole_target_s=p.get("hole_target_s"),
                budget=p.get("budget"),
            )
            extras = {
                "U": [[part, sorted(U.subset(part))] for part in U.parts],
                "report": report,
            }
            return GenResult(G, extras)
        if self.family == "random_split":
            edges = (
                read_edge_list(p["host_file"])
                if "host_file" in p
                else [tuple(e) for e in p["host_edges"]]
            )
            G = random_k_split(edges, self.pattern, self.seed, m=p.get("m"))
            return GenResult(G)
        raise AssertionError(self.family)

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "pattern": self.pattern.to_json_dict(),
            "n": self.n,
            "seed": self.seed,
            "params": dict(self.params),
        }

    @staticmethod
    def from_json_dict(data: dict) -> "GenSpec":
        return GenSpec(
            family=json_field(data, "family", str, "gen"),
            pattern=Pattern.from_json_dict(json_field(data, "pattern", dict, "gen")),
            n=json_field(data, "n", int, "gen"),
            seed=json_field(data, "seed", int, "gen", 0),
            params=dict(json_field(data, "params", dict, "gen", {})),
        )
