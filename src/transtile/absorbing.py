"""Absorption toolchain for complete patterns.

The pieces fit together bottom-up:

* a *fan* at v collects disjoint (k-1)-sets, each completing v to a
  transversal copy;
* a *connector* for same-part vertices u, v is a small set S such that
  both {u} union S and {v} union S carry transversal factors, found even
  when an adversarial forbidden set W must be avoided;
* an *absorber* for a transversal k-set S is a set A, disjoint from S,
  such that both A and A union S carry transversal factors, assembled
  from one transversal clique plus one connector per part;
* a *robust template* is a sparse bipartite gadget whose right side can
  be perfectly matched no matter which m-subset of the X-side shows up;
* `build_absorbing_set` wires per-part templates to per-edge absorbers
  so that the assembled set R can swallow any small balanced leftover,
  and `verify_absorbing_property` probes that claim empirically.

Every returned object carries explicit witness factors and a
`validate` method that re-checks them from scratch, so downstream code
never has to trust the search that produced them.  Each is checked
once: a public entry (`find_connector`, `find_absorber`) checks its
arguments and validates what it returns.  Private builders
(`_fan_sets`, the `_connector*` searches, `_factor_witness`,
`_absorb_factor`) neither check arguments nor validate: they trust the
entry that called them, and an absorber's witnesses hold every copy of
its connectors, so its one `validate` covers them.  Each parameter rule
(t is 1 or 2, the template scale, the template X cap) is written once,
and the pipeline reuses it under its stage name.

A vertex set is per-part masks (see `core.part_masks`) inside the
module and at its boundary alike: `forbidden`, `W`, the `verts` of
connectors and absorbers, `AbsorbingSet.R` and `AbsorbVerdict.failing`,
each checked with `part_masks` where it enters.  Single vertices and
copy-like tuples stay (part, index) pairs: connector endpoints and
absorber targets.

Scale notes.  The thresholds that are asymptotic constants in the
underlying theory (q, tau, beta_prime) are explicit parameters here,
sized by the caller for instances of a few dozen vertices per part; see
AbsorbParams.  The leftover bound xi is the set's own claim: the builder
records it on the AbsorbingSet, and the verifier reads it there.  An
absorber's witnesses are assembled from its clique and its connectors'
witnesses, with no search.  A set with one vertex per part factors only
as itself, so an edge check decides it with no search either.  Every
other factor check runs the exact solver on G itself, restricted to
per-part masks, so no relabelled copy of the graph is built.  Stage
sample-x needs a fan at every vertex, but a fan depends on v only
through its part and its neighbourhoods in the sample, so it searches
one fan per such class (at most k per sample on a complete blow-up,
not kn).
`verify_absorbing_property` needs a factor of G[R u U], and R alone is
most of the graph at the reference parameters (49 to 59 of 60 vertices
per part in the check-7 and benchmark configs).  So it searches G[R]
once, with no size cap, and builds each check's factor from that one:
it adds a factor of G[U] (step 1, an edge check when U has one vertex
per part), or else swaps one copy C of it for a factor of G[C u U], two
vertices per part when U has one (step 2).
Only when both fail does the exact search run on all of R u U (step 3),
the one step that can answer no and the one that can backtrack deep.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field
from itertools import combinations, islice, product
from typing import Optional, Sequence

from transtile.core import (
    PartiteGraph,
    VertexId,
    bits,
    is_transversal_tuple,
    mask_of,
    part_masks,
    vertex_masks,
)
from transtile.generators import rng_for
from transtile.search import copy_enumerator, has_perfect_matching, iter_copies
from transtile.tiling import Tiling, TransversalCopy, exact_transversal_factor_search

__all__ = [
    "Connector",
    "Absorber",
    "Template",
    "AbsorbingSet",
    "AbsorbParams",
    "AbsorbVerdict",
    "find_connector",
    "find_absorber",
    "disjoint_absorbers",
    "generate_template",
    "verify_template",
    "build_absorbing_set",
    "verify_absorbing_property",
]

TEMPLATE_X_CAP = 20
TEMPLATE_TRIES = 1000
TEMPLATE_MAX_DEGREE = 40
SAMPLE_TRIES = 64
CONNECTOR_EXHAUSTIVE_CAP = 6


def _union(a: Sequence[int], b: Sequence[int]) -> list[int]:
    return [x | y for x, y in zip(a, b)]


def _copy(parts: Sequence[int], idxs: Sequence[int]) -> TransversalCopy:
    """The copy with vertex idxs[t] in part parts[t], for parts 1..k in any order."""
    return TransversalCopy(tuple(i for _, i in sorted(zip(parts, idxs))))


def _forbidden(G: PartiteGraph, masks: Optional[Sequence[int]]) -> tuple[int, ...]:
    """The checked per-part masks of a forbidden set; None forbids nothing."""
    return (0,) * (G.k + 1) if masks is None else part_masks(G, masks, "forbidden masks")


def _check_partition(
    G: PartiteGraph,
    copies: Sequence[TransversalCopy],
    expected: Sequence[int],
    label: str,
) -> None:
    try:
        exact = Tiling.build(G, copies).covered_masks()[1:] == list(expected[1:])
    except ValueError as e:
        raise ValueError(f"{label}: {e}") from None
    if not exact:
        raise ValueError(f"{label}: witness factor does not cover the set exactly")


def _factor_witness(
    G: PartiteGraph, masks: Sequence[int]
) -> Optional[tuple[TransversalCopy, ...]]:
    """Transversal factor of G[masks], or None if it has none.

    A k-set, one vertex per part, has one candidate factor, the set
    itself, so an edge check decides it: the copy when the set is one,
    else None, which is what the exact search would return.  Any other
    set goes to the exact search, which runs on G itself, so the copies
    come back in G's labels.
    """
    if all(m.bit_count() == 1 for m in masks[1:]):
        verts = tuple(m.bit_length() - 1 for m in masks[1:])
        return (TransversalCopy(verts),) if is_transversal_tuple(G, verts) else None
    tiling, _ = exact_transversal_factor_search(G, masks)
    return None if tiling is None else tiling.copies


# -- fans ---------------------------------------------------------------------


def _fan_sets(
    G: PartiteGraph, v: VertexId, target_size: int, arena: Sequence[int]
) -> list[tuple[int, ...]]:
    """Greedy disjoint completion index tuples for v (over the other
    parts, ascending), drawn from the `arena` masks."""
    parts = [p for p in range(1, G.k + 1) if p != v.part]
    masks = [arena[p] & G.nbr_mask(v.part, v.idx, p) for p in parts]
    first = copy_enumerator(G, parts)
    out: list[tuple[int, ...]] = []
    while len(out) < target_size:
        found = next(first(masks), None)
        if found is None:
            break
        out.append(found)
        masks = [m & ~(1 << i) for m, i in zip(masks, found)]
    return out


def _every_vertex_keeps_a_fan(
    G: PartiteGraph, target_size: int, arena: Sequence[int]
) -> bool:
    """True iff `_fan_sets` finds `target_size` sets at every vertex of G.

    A fan at v reads v only through its part and its neighbourhoods in
    the arena, so vertices that share both (twins, on a blow-up) share a
    verdict, and each such class is searched once.
    """
    verdicts: dict[tuple[int, ...], bool] = {}
    for part in range(1, G.k + 1):
        others = [p for p in range(1, G.k + 1) if p != part]
        for idx in range(G.n):
            key = (part, *[arena[p] & G.nbr_mask(part, idx, p) for p in others])
            if key not in verdicts:
                fan = _fan_sets(G, VertexId(part, idx), target_size, arena)
                verdicts[key] = len(fan) >= target_size
            if not verdicts[key]:
                return False
    return True


# -- connectors ----------------------------------------------------------------


def _check_t(t: int, prefix: str = "") -> None:
    if t not in (1, 2):
        raise ValueError(f"{prefix}connector parameter t must be 1 or 2, got {t}")


def _connector_args(
    G: PartiteGraph, u: VertexId | tuple[int, int], v: VertexId | tuple[int, int], t: int
) -> tuple[VertexId, VertexId]:
    """u and v as VertexIds, once G's pattern is complete, t is 1 or 2, and
    u and v are distinct same-part vertices of G; else ValueError."""
    if not G.pattern.is_complete:
        raise ValueError("connector search needs a complete pattern")
    _check_t(t)
    vertex_masks(G, (u, v))  # rejects an endpoint outside G
    u, v = VertexId(*u), VertexId(*v)
    if u.part != v.part or u == v:
        raise ValueError("connector endpoints must be distinct same-part vertices")
    return u, v


@dataclass(frozen=True)
class Connector:
    """Set joining two same-part vertices: both sides factor with it."""

    pair: tuple[VertexId, VertexId]
    verts: tuple[int, ...]
    t: int
    witness_u: tuple[TransversalCopy, ...]
    witness_v: tuple[TransversalCopy, ...]

    def validate(self, G: PartiteGraph) -> None:
        u, v = _connector_args(G, *self.pair, self.t)
        s = part_masks(G, self.verts, "connector set masks")
        if s[u.part] >> u.idx & 1 or s[v.part] >> v.idx & 1:
            raise ValueError("connector set must avoid its endpoints")
        size = sum(m.bit_count() for m in s)
        if size > G.k * self.t - 1:
            raise ValueError(f"connector too large: {size} > k*t - 1 = {G.k * self.t - 1}")
        _check_partition(G, self.witness_u, _union(s, vertex_masks(G, [u])), "connector u-side")
        _check_partition(G, self.witness_v, _union(s, vertex_masks(G, [v])), "connector v-side")


def _connector_t1(
    G: PartiteGraph, u: VertexId, v: VertexId, W: Sequence[int]
) -> Optional[Connector]:
    """Complete search for a (k-1)-set in the joint neighborhood.

    A connector of size k-1 makes {u} union S a single transversal
    copy, which forces every S-vertex adjacent to both u and v; so
    searching the joint neighborhoods is exhaustive and None is a
    proof that no size-(k-1) connector avoids W.
    """
    parts = [p for p in range(1, G.k + 1) if p != u.part]
    masks = [G.nbr_mask(*u, p) & G.nbr_mask(*v, p) & ~W[p] for p in parts]
    found = next(iter_copies(G, parts, masks), None)
    if found is None:
        return None
    s = [0] * (G.k + 1)
    for p, i in zip(parts, found):
        s[p] = 1 << i
    wit_u = (_copy([u.part, *parts], (u.idx, *found)),)
    wit_v = (_copy([u.part, *parts], (v.idx, *found)),)
    return Connector(pair=(u, v), verts=tuple(s), t=1, witness_u=wit_u, witness_v=wit_v)


def _connector_t2_construct(
    G: PartiteGraph, u: VertexId, v: VertexId, W: Sequence[int]
) -> Optional[Connector]:
    """Two-clique construction: split candidate pools, find a shared apex.

    Per part j, the u-side pool takes the lower-index half of u's free
    neighborhood and the v-side pool takes what is left of v's, so the
    two pools are disjoint.  An apex w in the endpoint part must
    complete a clique into each pool; the union of the two cliques is
    the connector.
    """
    k = G.k
    p0 = u.part
    others = [p for p in range(1, k + 1) if p != p0]
    d1: list[int] = []
    d2: list[int] = []
    for j in others:
        pool_u = G.nbr_mask(p0, u.idx, j) & ~W[j]
        m1 = mask_of(islice(bits(pool_u), (pool_u.bit_count() + 1) // 2))
        m2 = G.nbr_mask(p0, v.idx, j) & ~W[j] & ~m1
        if not m1 or not m2:
            return None
        d1.append(m1)
        d2.append(m2)
    parts = [p0, *others]
    apex_pool = G.full_mask & ~W[p0] & ~(1 << u.idx) & ~(1 << v.idx)
    first = copy_enumerator(G, parts)
    for w_idx in bits(apex_pool):
        k1 = next(first([1 << w_idx, *d1]), None)
        if k1 is None:
            continue
        k2 = next(first([1 << w_idx, *d2]), None)
        if k2 is None:
            continue
        s = [0] * (k + 1)
        for p, a, b in zip(parts, k1, k2):
            s[p] = 1 << a | 1 << b
        # u completes the u-side clique through its own pool; the apex
        # clique into the v-side pool covers the rest, and symmetrically
        wit_u = (_copy(parts, (u.idx, *k1[1:])), _copy(parts, k2))
        wit_v = (_copy(parts, (v.idx, *k2[1:])), _copy(parts, k1))
        return Connector(pair=(u, v), verts=tuple(s), t=2, witness_u=wit_u, witness_v=wit_v)
    return None


def _connector_t2_exhaustive(
    G: PartiteGraph, u: VertexId, v: VertexId, W: Sequence[int]
) -> Optional[Connector]:
    """Every candidate set of the (1, 2, ..., 2) per-part profile.

    A size-(2k-1) connector must place one vertex in the endpoint part
    and two in every other part, so this enumeration plus the complete
    size-(k-1) search decides t=2 connectivity outright at small n.
    """
    k = G.k
    p0 = u.part
    others = [p for p in range(1, k + 1) if p != p0]
    pools = [list(bits(G.full_mask & ~W[j])) for j in others]
    um, vm = vertex_masks(G, [u]), vertex_masks(G, [v])
    for w_idx in bits(G.full_mask & ~W[p0] & ~(1 << u.idx) & ~(1 << v.idx)):
        for pick in product(*(combinations(pool, 2) for pool in pools)):
            s = [0] * (k + 1)
            s[p0] = 1 << w_idx
            for j, (a, b) in zip(others, pick):
                s[j] = 1 << a | 1 << b
            wit_u = _factor_witness(G, _union(s, um))
            if wit_u is None:
                continue
            wit_v = _factor_witness(G, _union(s, vm))
            if wit_v is None:
                continue
            return Connector(pair=(u, v), verts=tuple(s), t=2, witness_u=wit_u, witness_v=wit_v)
    return None


def _connector(
    G: PartiteGraph, u: VertexId, v: VertexId, W: Sequence[int], t: int
) -> Optional[Connector]:
    """The connector search on the forbidden masks W; see find_connector.

    No search reads u or v from W: the t=1 search reads only the other
    parts, and both t=2 searches leave the endpoints out of the apex pool.
    """
    conn = _connector_t1(G, u, v, W)
    if conn is not None or t == 1:
        return conn
    conn = _connector_t2_construct(G, u, v, W)
    if conn is None and G.n <= CONNECTOR_EXHAUSTIVE_CAP:
        conn = _connector_t2_exhaustive(G, u, v, W)
    return conn


def find_connector(
    G: PartiteGraph,
    u: VertexId | tuple[int, int],
    v: VertexId | tuple[int, int],
    W: Optional[Sequence[int]] = None,
    t: int = 1,
) -> Optional[Connector]:
    """Connector for same-part u, v avoiding the per-part masks W, or None.

    W=None forbids nothing, and the endpoints' bits in W are ignored.
    t=1 runs the complete joint-neighborhood search: None is a proof.
    t=2 first tries the split-pool apex construction; when that fails
    and n <= CONNECTOR_EXHAUSTIVE_CAP, falls through to full enumeration
    (making None a proof there too).  At larger n a t=2 None only means
    the construction failed.  A vertex outside G raises ValueError.
    """
    u, v = _connector_args(G, u, v, t)
    conn = _connector(G, u, v, _forbidden(G, W), t)
    if conn is not None:
        conn.validate(G)
    return conn


# -- absorbers -----------------------------------------------------------------


@dataclass(frozen=True)
class Absorber:
    """Set A for a transversal k-set: A and A union the set both factor."""

    target: tuple[VertexId, ...]
    verts: tuple[int, ...]
    t: int
    witness_inner: tuple[TransversalCopy, ...]
    witness_full: tuple[TransversalCopy, ...]

    def validate(self, G: PartiteGraph) -> None:
        if sorted(p for p, _ in self.target) != list(range(1, G.k + 1)):
            raise ValueError("absorber target must have one vertex in each part")
        s = vertex_masks(G, self.target)  # rejects a target vertex outside G
        a = part_masks(G, self.verts, "absorber set masks")
        if any(x & y for x, y in zip(a, s)):
            raise ValueError("absorber set must avoid its target")
        size = sum(m.bit_count() for m in a)
        if size > G.k * self.t:
            raise ValueError(f"absorber too large: {size} > k*t = {G.k * self.t}")
        _check_partition(G, self.witness_inner, a, "absorber inner")
        _check_partition(G, self.witness_full, _union(a, s), "absorber full")


def find_absorber(
    G: PartiteGraph,
    S: Sequence[VertexId | tuple[int, int]],
    forbidden: Optional[Sequence[int]] = None,
    connector_t: int = 1,
) -> Optional[Absorber]:
    """Absorber for the transversal k-set S, or None.

    One transversal clique T plus, per part p, a connector C_p between
    the S-vertex s_p and the T-vertex t_p, each avoiding the per-part
    masks `forbidden` (None forbids nothing), S and what is already
    taken.  The witnesses need no search: the v-sides C_p u {t_p} tile
    A, and T with the u-sides C_p u {s_p} tiles A u S.  connector_t=1
    (the default, as in AbsorbParams) gives |A| <= k^2, connector_t=2
    gives |A| <= 2k^2; the absorber records t = 2k, so |A| <= k*t
    either way.  A vertex outside G, or a connector_t other than 1 or
    2, raises ValueError.
    """
    if not G.pattern.is_complete:
        raise ValueError("absorber search needs a complete pattern")
    _check_t(connector_t)
    k = G.k
    target = vertex_masks(G, S)
    if len(S) != k or any(m.bit_count() != 1 for m in target[1:]):
        raise ValueError("absorber target must have one vertex in each part")
    s_ids = tuple(sorted(VertexId(*x) for x in S))
    blocked = _union(_forbidden(G, forbidden), target)
    free = [G.full_mask & ~b for b in blocked[1:]]
    clique = next(iter_copies(G, range(1, k + 1), free), None)
    if clique is None:
        return None
    acc = [0, *(1 << i for i in clique)]
    inner: list[TransversalCopy] = []
    full = [TransversalCopy(clique)]
    for p in range(1, k + 1):
        conn = _connector(
            G, s_ids[p - 1], VertexId(p, clique[p - 1]), _union(blocked, acc), connector_t
        )
        if conn is None:
            return None
        inner += conn.witness_v
        full += conn.witness_u
        acc = _union(acc, conn.verts)
    absorber = Absorber(
        target=s_ids,
        verts=tuple(acc),
        t=2 * k,
        witness_inner=tuple(inner),
        witness_full=tuple(full),
    )
    absorber.validate(G)
    return absorber


def disjoint_absorbers(
    G: PartiteGraph,
    S: Sequence[VertexId | tuple[int, int]],
    count_target: int,
    connector_t: int = 1,
) -> list[Absorber]:
    """Greedy maximal family of pairwise-disjoint absorbers for S."""
    if count_target < 0:
        raise ValueError(f"absorber family needs count_target >= 0, got {count_target}")
    used = (0,) * (G.k + 1)
    out: list[Absorber] = []
    while len(out) < count_target:
        a = find_absorber(G, S, used, connector_t=connector_t)
        if a is None:
            break
        out.append(a)
        used = _union(used, a.verts)
    return out


# -- robust templates -----------------------------------------------------------


@dataclass(frozen=True)
class Template:
    """Bipartite gadget (X u Y, Z): every m-subset of X still matches Z.

    Left indices 0..m+beta_m-1 are X, the next 2m are Y; right indices
    run over 3m.  Robustness means: for each X' of size m, the graph
    induced on (X' u Y, Z) has a perfect matching.
    """

    m: int
    beta_m: int
    edges: frozenset[tuple[int, int]]

    @property
    def x_size(self) -> int:
        return self.m + self.beta_m

    @property
    def y_size(self) -> int:
        return 2 * self.m

    @property
    def z_size(self) -> int:
        return 3 * self.m

    @property
    def left_size(self) -> int:
        return self.x_size + self.y_size

    def validate(self) -> None:
        _check_scale(self.m, self.beta_m)
        left = [0] * self.left_size
        right = [0] * self.z_size
        for l, z in self.edges:
            if not (0 <= l < self.left_size and 0 <= z < self.z_size):
                raise ValueError(f"template edge ({l},{z}) out of range")
            left[l] += 1
            right[z] += 1
        worst = max(left + right, default=0)
        if worst > TEMPLATE_MAX_DEGREE:
            raise ValueError(f"template degree {worst} exceeds the cap {TEMPLATE_MAX_DEGREE}")

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "beta_m": self.beta_m,
            "max_degree": TEMPLATE_MAX_DEGREE,
            "edges": sorted([l, z] for l, z in self.edges),
        }


def _check_scale(m: int, beta_m: int, prefix: str = "") -> None:
    if m < 1 or beta_m < 0:
        raise ValueError(f"{prefix}template scale needs m >= 1, beta_m >= 0")


def _check_x_cap(x_size: int) -> None:
    if x_size > TEMPLATE_X_CAP:
        raise ValueError(
            f"template verification refused: |X| = {x_size} exceeds cap {TEMPLATE_X_CAP}"
        )


def verify_template(T: Template) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Exhaustive robustness check; returns (ok, violating X' or None)."""
    T.validate()
    _check_x_cap(T.x_size)
    rows = [0] * T.left_size
    for l, z in T.edges:
        rows[l] |= 1 << z
    y_mask = ((1 << T.y_size) - 1) << T.x_size
    z_mask = (1 << T.z_size) - 1
    for chosen in combinations(range(T.x_size), T.m):
        if not has_perfect_matching(rows, mask_of(chosen) | y_mask, z_mask):
            return False, chosen
    return True, None


def generate_template(m: int, beta_m: int, seed: int = 0) -> Optional[Template]:
    """Randomized sparse-first template search.

    Attempt i samples each right vertex's neighborhood at degree
    1 + i // 25 (so the sparsest candidates come first), patches any
    uncovered left vertex, and keeps the first sample that verifies.
    It makes TEMPLATE_TRIES attempts, keeps every degree within
    TEMPLATE_MAX_DEGREE, and returns None when no attempt verifies.
    """
    _check_scale(m, beta_m)
    _check_x_cap(m + beta_m)
    left_size = m + beta_m + 2 * m
    z_size = 3 * m
    for attempt in range(TEMPLATE_TRIES):
        rng = rng_for(seed, "template", attempt)
        d = min(1 + attempt // 25, left_size, TEMPLATE_MAX_DEGREE)
        edges: set[tuple[int, int]] = set()
        left_deg = [0] * left_size
        for z in range(z_size):  # d distinct left vertices each
            for l in rng.sample(range(left_size), d):
                edges.add((l, z))
                left_deg[l] += 1
        right_deg = [d] * z_size
        ok = True
        for l in range(left_size):
            if left_deg[l]:
                continue
            start = rng.randrange(z_size)
            for off in range(z_size):
                z = (start + off) % z_size
                if right_deg[z] < TEMPLATE_MAX_DEGREE:
                    edges.add((l, z))
                    right_deg[z] += 1
                    left_deg[l] += 1
                    break
            else:
                ok = False
                break
        if not ok or max(left_deg) > TEMPLATE_MAX_DEGREE:
            continue
        cand = Template(m=m, beta_m=beta_m, edges=frozenset(edges))
        if verify_template(cand)[0]:
            return cand
    return None


# -- absorbing-set assembly -------------------------------------------------------


@dataclass(frozen=True)
class AbsorbParams:
    """Desk-scale knobs for the absorbing-set pipeline.

    q sizes the X samples (|X_i| = round(q*n)); tau budgets |R|;
    beta_prime sets the per-vertex fan requirement inside the X sample
    (ceil(2*k*beta_prime*n)); m and beta_m size the per-part template.
    connector_t picks the connector flavor used inside absorbers: 1
    keeps absorbers at k vertices per part, 2 doubles that.  The stages
    try at most SAMPLE_TRIES X samples and TEMPLATE_TRIES templates.
    """

    q: float
    tau: float
    beta_prime: float
    m: int
    seed: int
    beta_m: int = 1
    connector_t: int = 1


@dataclass(frozen=True)
class AbsorbingSet:
    """Balanced set R, as per-part masks, meant to swallow any balanced
    leftover U with |U| <= xi*n."""

    R: tuple[int, ...]
    xi: float
    provenance: dict = field(compare=False)

    def size_per_part(self) -> int:
        return self.R[1].bit_count()

    def total_size(self) -> int:
        return sum(m.bit_count() for m in self.R[1:])

    def validate(self) -> None:
        if len({m.bit_count() for m in self.R[1:]}) > 1:
            raise ValueError("absorbing set must be balanced")

    def to_json_dict(self) -> dict:
        return {
            "xi": self.xi,
            "r": {str(p): list(bits(self.R[p])) for p in range(1, len(self.R))},
            "provenance": self.provenance,
        }


def build_absorbing_set(G: PartiteGraph, params: AbsorbParams) -> AbsorbingSet:
    """Assemble an absorbing set in five stages.

    sample-x: per-part random X_i of size round(q*n), re-sampled until
    every vertex of G keeps a fan of the required size whose sets live
    inside the union of the X_i.
    select-yz: lowest-index Y_i (2m) and Z_{i,j} (3m each) outside X_i.
    template: a verified robust template per part.
    absorbers: per template edge, a fresh absorber for the k-set made
    of the edge's left vertex and the index-aligned transversal
    (k-1)-set its right vertex names; absorbers stay disjoint from each
    other and from X u Y u Z.
    assemble: R = X u Y u Z u all absorbers, checked balanced and
    within the tau*n budget.

    Any stage that exhausts its search raises with the stage name and
    the deficit, so callers can rescale.
    """
    if not G.pattern.is_complete:
        raise ValueError("absorbing-set assembly needs a complete pattern")
    k, n = G.k, G.n
    m, beta_m = params.m, params.beta_m
    _check_scale(m, beta_m, "stage sample-x: ")
    _check_t(params.connector_t, "stage absorbers: ")
    if not 0 <= params.q <= 1:
        raise ValueError(f"stage sample-x: q must lie in [0, 1], got {params.q}")
    if params.beta_prime < 0:
        raise ValueError(f"stage sample-x: beta_prime must be >= 0, got {params.beta_prime}")
    if params.tau < 0:
        raise ValueError(f"stage sample-x: tau must be >= 0, got {params.tau}")
    qn = round(params.q * n)
    x_side = m + beta_m
    if qn < x_side:
        raise ValueError(
            f"stage sample-x: q*n = {qn} cannot host the template left side "
            f"(m + beta_m = {x_side})"
        )
    fan_min = math.ceil(2 * k * params.beta_prime * n)
    if fan_min > qn:
        raise ValueError(
            f"stage sample-x: fan requirement {fan_min} exceeds the X part size {qn}"
        )
    yz_need = 2 * m + 3 * m * (k - 1)
    if n - qn < yz_need:
        raise ValueError(
            f"stage select-yz: parts need {yz_need} vertices beyond X "
            f"but only {n - qn} remain"
        )

    # stage sample-x
    for attempt in range(SAMPLE_TRIES):
        xs = [
            sorted(rng_for(params.seed, "x", attempt, i).sample(range(n), qn))
            for i in range(1, k + 1)
        ]
        arena = [0] + [mask_of(xs[i - 1]) for i in range(1, k + 1)]
        if fan_min == 0 or _every_vertex_keeps_a_fan(G, fan_min, arena):
            break
    else:
        raise ValueError(
            f"stage sample-x: no sample kept fans of size {fan_min} "
            f"after {SAMPLE_TRIES} tries"
        )

    # stage select-yz
    ys: list[list[int]] = []
    zs: dict[tuple[int, int], list[int]] = {}
    for i in range(1, k + 1):
        pool = [v for v in range(n) if not arena[i] >> v & 1]
        ys.append(pool[: 2 * m])
        at = 2 * m
        for j in range(1, k + 1):
            if j == i:
                continue
            zs[(i, j)] = pool[at : at + 3 * m]
            at += 3 * m

    # stage template
    templates: list[Template] = []
    for i in range(1, k + 1):
        tpl = generate_template(m, beta_m, seed=params.seed * (k + 1) + i)
        if tpl is None:
            raise ValueError(
                f"stage template: no verified template for part {i} "
                f"within {TEMPLATE_TRIES} tries"
            )
        templates.append(tpl)

    # stage absorbers
    reserved = [0] * (k + 1)
    for i in range(1, k + 1):
        reserved[i] = arena[i] | mask_of(ys[i - 1])
    for (i, j), block in zs.items():
        reserved[i] |= mask_of(block)
    absorbers: list[tuple[tuple[int, int, int], Absorber]] = []
    total_edges = sum(len(t.edges) for t in templates)
    for j in range(1, k + 1):
        tpl = templates[j - 1]
        left_side = xs[j - 1][: tpl.x_size] + ys[j - 1]  # the template's X then Y
        for l, z in sorted(tpl.edges):
            left_vertex = VertexId(j, left_side[l])
            partner = [
                VertexId(i, zs[(i, j)][z]) for i in range(1, k + 1) if i != j
            ]
            # the target lies inside `reserved`, and find_absorber keeps
            # its target out of the absorber anyway
            a = find_absorber(
                G, [left_vertex, *partner], reserved, connector_t=params.connector_t
            )
            if a is None:
                raise ValueError(
                    f"stage absorbers: no disjoint absorber for template edge "
                    f"({j},{l},{z}); {len(absorbers)} of {total_edges} placed"
                )
            absorbers.append(((j, l, z), a))
            reserved = _union(reserved, a.verts)

    # stage assemble
    sizes = {reserved[p].bit_count() for p in range(1, k + 1)}
    if len(sizes) != 1:
        raise ValueError(f"stage assemble: R unbalanced across parts: {sorted(sizes)}")
    total = sum(reserved[p].bit_count() for p in range(1, k + 1))
    if total > params.tau * n:
        raise ValueError(
            f"stage assemble: |R| = {total} exceeds tau*n = {params.tau * n:g}"
        )
    xi = k / n
    provenance = {
        "params": asdict(params),
        "fan_min": fan_min,
        "sample_attempts": attempt + 1,
        "x": [sorted(xs[i]) for i in range(k)],
        "y": [sorted(ys[i]) for i in range(k)],
        "z": {f"{i},{j}": sorted(v) for (i, j), v in sorted(zs.items())},
        "templates": [t.to_json_dict() for t in templates],
        "absorbers": [
            {
                "edge": list(edge),
                "target": [list(x) for x in a.target],
                "set": [[p, i] for p in range(1, k + 1) for i in bits(a.verts[p])],
            }
            for edge, a in absorbers
        ],
    }
    # stage assemble checked the balance that AbsorbingSet.validate checks
    return AbsorbingSet(R=tuple(reserved), xi=xi, provenance=provenance)


@dataclass(frozen=True)
class AbsorbVerdict:
    ok: bool
    failing: Optional[tuple[int, ...]]
    checks: int


def _absorb_factor(
    G: PartiteGraph,
    r_masks: Sequence[int],
    r_factor: Optional[tuple[TransversalCopy, ...]],
    u_masks: Sequence[int],
) -> tuple[int, Optional[tuple[TransversalCopy, ...]]]:
    """A factor of G[R u U] and the step that found it, as (step, copies).

    `r_factor` is a factor of G[R], or None when there is none to build on.
    Step 1 adds a factor of G[U] to it unchanged.  Step 2 swaps the first
    copy C of it whose G[C u U] factors for that factor.  Step 3 runs the
    exact search on R u U, so (3, None) is a proof that G[R u U] has no
    factor; steps 1 and 2 only ever answer yes.
    """
    if r_factor is not None:
        own = _factor_witness(G, u_masks)
        if own is not None:
            return 1, r_factor + own
        for t, c in enumerate(r_factor):
            swap = _factor_witness(G, _union([0, *(1 << i for i in c.verts)], u_masks))
            if swap is not None:
                return 2, r_factor[:t] + r_factor[t + 1 :] + swap
    tiling, _ = exact_transversal_factor_search(G, _union(r_masks, u_masks))
    return 3, None if tiling is None else tiling.copies


def verify_absorbing_property(
    G: PartiteGraph,
    R: AbsorbingSet,
    trials: int = 32,
    seed: int = 0,
    exhaustive_limit: int = 256,
) -> AbsorbVerdict:
    """Probe: does G[R u U] factor for balanced U outside R, |U| <= R.xi*n?

    Runs exhaustive enumeration when the one-per-part candidate space
    is small enough; otherwise samples `trials` random balanced U.

    Each check builds its factor of G[R u U] from one factor F_R of
    G[R], searched once at the first check: F_R plus a factor of G[U]
    (step 1; when U has one vertex per part, that factor is U itself if
    U is a copy, decided by an edge check with no search), or else F_R
    with its first copy C whose G[C u U] factors swapped for that factor
    (step 2).  Only when both fail does the exact search run on all of
    R u U (step 3), so every pass has a witness, and a fail carries the
    defeating U and is always a proof (the factor solver's absence
    answers are complete).
    """
    k, n = G.k, G.n
    if R.xi * n < k:
        raise ValueError("absorbing verification needs xi*n >= k")
    for name, value, low in (("trials", trials, 1), ("exhaustive_limit", exhaustive_limit, 0)):
        if value < low:
            raise ValueError(f"absorbing verification needs {name} >= {low}, got {value}")
    r_masks = part_masks(G, R.R, "absorbing set masks")
    outside = [()] + [
        tuple(v for v in range(n) if not (r_masks[p] >> v & 1)) for p in range(1, k + 1)
    ]
    s_max = min(int(R.xi * n // k), min(len(o) for o in outside[1:]))
    if s_max < 1:
        return AbsorbVerdict(ok=True, failing=None, checks=0)
    r_factor = functools.cache(lambda: _factor_witness(G, r_masks))

    def sample(trial: int) -> list[list[int]]:
        rng = rng_for(seed, "absorb-verify", trial)
        s = rng.randint(1, s_max)
        return [sorted(rng.sample(outside[p], s)) for p in range(1, k + 1)]

    if s_max == 1 and math.prod(map(len, outside[1:])) <= exhaustive_limit:
        draws = ([[v] for v in pick] for pick in product(*outside[1:]))
    else:
        draws = map(sample, range(trials))
    checks = 0
    for u_sets in draws:
        checks += 1
        u_masks = (0, *map(mask_of, u_sets))
        if _absorb_factor(G, r_masks, r_factor(), u_masks)[1] is None:
            return AbsorbVerdict(ok=False, failing=u_masks, checks=checks)
    return AbsorbVerdict(ok=True, failing=None, checks=checks)
