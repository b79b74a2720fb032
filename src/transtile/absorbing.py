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
never has to trust the search that produced them.

Inside the module a vertex set is only ever held as per-part masks, a
`list[int]` with slots 1..k as `iter_copies` and the factor search take
them.  `_masks` converts each vertex argument once and rejects a vertex
outside G; `_ids` turns masks back into sorted vertex tuples where a
returned object or another public function needs them.

Scale notes.  All thresholds that are asymptotic constants in the
underlying theory (q, tau, beta_prime, xi) are explicit parameters
here, sized by the caller for instances of a few dozen vertices per
part; see AbsorbParams.  Every factor check runs the exact solver on G
itself, restricted to per-part masks, so no relabelled copy of the graph
is built.  Connector and absorber witnesses have at most 2k+1 vertices
per part, which is always feasible.  `verify_absorbing_property` factors
G[R u U] with no size cap, and that is most of the graph at the
reference parameters (R alone holds 49 to 59 of 60 vertices per part in
the check-7 and benchmark configs); those checks stay fast only while
the search does not backtrack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, islice, product
from typing import Iterable, Optional, Sequence

from transtile.core import (
    PartiteGraph,
    VertexId,
    VertexSetFamily,
    bits,
    common_neighborhood,
    is_transversal_copy,
    mask_of,
)
from transtile.generators import rng_for
from transtile.search import has_perfect_matching, iter_copies
from transtile.tiling import TransversalCopy, exact_transversal_factor_search

__all__ = [
    "Fan",
    "Connector",
    "Absorber",
    "Template",
    "AbsorbingSet",
    "AbsorbParams",
    "ReachVerdict",
    "AbsorbVerdict",
    "find_fan",
    "find_connector",
    "is_reachable",
    "find_absorber",
    "disjoint_absorbers",
    "generate_template",
    "verify_template",
    "build_absorbing_set",
    "verify_absorbing_property",
]

TEMPLATE_X_CAP = 20
TEMPLATE_TRIES = 1000
SAMPLE_TRIES = 64
CONNECTOR_EXHAUSTIVE_CAP = 6


def _masks(G: PartiteGraph, ids: Iterable[VertexId | tuple[int, int]]) -> list[int]:
    """Per-part masks, slots 1..k, of the vertices `ids`, which must lie in G."""
    masks = [0] * (G.k + 1)
    for p, i in ids:
        if not (1 <= p <= G.k and 0 <= i < G.n):
            raise ValueError(
                f"vertex ({p}, {i}) is not in G: parts run 1..{G.k}, "
                f"indices 0..{G.n - 1}"
            )
        masks[p] |= 1 << i
    return masks


def _ids(masks: Sequence[int]) -> tuple[VertexId, ...]:
    """The vertices of per-part masks, sorted."""
    return tuple(VertexId(p, i) for p in range(1, len(masks)) for i in bits(masks[p]))


def _union(a: Sequence[int], b: Sequence[int]) -> list[int]:
    return [x | y for x, y in zip(a, b)]


def _copy(parts: Sequence[int], idxs: Sequence[int]) -> TransversalCopy:
    """The copy with vertex idxs[t] in part parts[t], for parts 1..k in any order."""
    return TransversalCopy(tuple(i for _, i in sorted(zip(parts, idxs))))


def _vids_json(vs: Iterable[VertexId]) -> list[list[int]]:
    return [[p, i] for p, i in vs]


def _check_partition(
    G: PartiteGraph,
    copies: Sequence[TransversalCopy],
    expected: set[VertexId],
    label: str,
) -> None:
    seen: set[VertexId] = set()
    for c in copies:
        ids = c.vertex_ids()
        if not is_transversal_copy(G, ids):
            raise ValueError(f"{label}: witness copy {c.verts} is not transversal")
        for v in ids:
            if v in seen:
                raise ValueError(f"{label}: witness copies overlap at {v}")
            seen.add(v)
    if seen != expected:
        raise ValueError(f"{label}: witness factor does not cover the set exactly")


def _factor_witness(
    G: PartiteGraph, masks: Sequence[int]
) -> Optional[tuple[TransversalCopy, ...]]:
    """Transversal factor of G[masks], or None if it has none.

    None also when the masks are empty or unbalanced across the parts.
    The exact search runs on G itself, so the copies come back in G's
    labels.
    """
    sizes = {masks[p].bit_count() for p in range(1, G.k + 1)}
    if len(sizes) != 1 or sizes == {0}:
        return None
    tiling, _ = exact_transversal_factor_search(G, cap=None, masks=masks)
    return None if tiling is None else tiling.copies


# -- fans ---------------------------------------------------------------------


@dataclass(frozen=True)
class Fan:
    """Pairwise disjoint (k-1)-sets, each completing `at` to a copy."""

    at: VertexId
    sets: tuple[tuple[VertexId, ...], ...]

    @property
    def size(self) -> int:
        return len(self.sets)

    def validate(self, G: PartiteGraph) -> None:
        used: set[VertexId] = {self.at}
        for s in self.sets:
            if len(s) != G.k - 1:
                raise ValueError(f"fan set {s} has the wrong size")
            for v in s:
                if v in used:
                    raise ValueError(f"fan sets are not disjoint at {v}")
                used.add(v)
            if not is_transversal_copy(G, (self.at, *s)):
                raise ValueError(f"fan set {s} does not complete {self.at}")


def _fan_sets(
    G: PartiteGraph, v: VertexId, target_size: int, arena: Sequence[int]
) -> list[tuple[VertexId, ...]]:
    """Greedy disjoint completion sets for v, drawn from the `arena` masks."""
    parts = [p for p in range(1, G.k + 1) if p != v.part]
    masks = [arena[p] & G.nbr_mask(v.part, v.idx, p) for p in parts]
    out: list[tuple[VertexId, ...]] = []
    while len(out) < target_size:
        found = next(iter_copies(G, parts, masks), None)
        if found is None:
            break
        out.append(tuple(VertexId(p, i) for p, i in zip(parts, found)))
        masks = [m & ~(1 << i) for m, i in zip(masks, found)]
    return out


def find_fan(G: PartiteGraph, v: VertexId | tuple[int, int], target_size: int) -> Fan:
    """Greedy fan at v: stops at target_size or exhaustion.

    Greedy extraction is maximal, not maximum; the reported size is a
    lower bound on the best possible fan.
    """
    if not G.pattern.is_complete:
        raise ValueError("fan search needs a complete pattern")
    _masks(G, [v])  # rejects a vertex outside G
    v = VertexId(*v)
    arena = [G.full_mask] * (G.k + 1)
    fan = Fan(at=v, sets=tuple(_fan_sets(G, v, target_size, arena)))
    fan.validate(G)
    return fan


# -- connectors ----------------------------------------------------------------


@dataclass(frozen=True)
class Connector:
    """Set joining two same-part vertices: both sides factor with it."""

    pair: tuple[VertexId, VertexId]
    verts: tuple[VertexId, ...]
    t: int
    witness_u: tuple[TransversalCopy, ...]
    witness_v: tuple[TransversalCopy, ...]

    def validate(self, G: PartiteGraph) -> None:
        u, v = self.pair
        if u.part != v.part or u == v:
            raise ValueError("connector endpoints must be distinct same-part vertices")
        s = set(self.verts)
        if len(s) != len(self.verts):
            raise ValueError("connector set has repeated vertices")
        if u in s or v in s:
            raise ValueError("connector set must avoid its endpoints")
        if len(s) > G.k * self.t - 1:
            raise ValueError(
                f"connector too large: {len(s)} > k*t - 1 = {G.k * self.t - 1}"
            )
        _check_partition(G, self.witness_u, s | {u}, "connector u-side")
        _check_partition(G, self.witness_v, s | {v}, "connector v-side")


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
    masks = [common_neighborhood(G, (u, v), p) & ~W[p] for p in parts]
    found = next(iter_copies(G, parts, masks), None)
    if found is None:
        return None
    s = tuple(VertexId(p, i) for p, i in zip(parts, found))
    wit_u = (_copy([u.part, *parts], (u.idx, *found)),)
    wit_v = (_copy([u.part, *parts], (v.idx, *found)),)
    conn = Connector(pair=(u, v), verts=s, t=1, witness_u=wit_u, witness_v=wit_v)
    conn.validate(G)
    return conn


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
    for w_idx in bits(apex_pool):
        k1 = next(iter_copies(G, parts, [1 << w_idx, *d1]), None)
        if k1 is None:
            continue
        k2 = next(iter_copies(G, parts, [1 << w_idx, *d2]), None)
        if k2 is None:
            continue
        s = [0] * (k + 1)
        for p, a, b in zip(parts, k1, k2):
            s[p] = 1 << a | 1 << b
        # u completes the u-side clique through its own pool; the apex
        # clique into the v-side pool covers the rest, and symmetrically
        wit_u = (_copy(parts, (u.idx, *k1[1:])), _copy(parts, k2))
        wit_v = (_copy(parts, (v.idx, *k2[1:])), _copy(parts, k1))
        conn = Connector(
            pair=(u, v), verts=_ids(s), t=2, witness_u=wit_u, witness_v=wit_v
        )
        conn.validate(G)
        return conn
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
    um, vm = _masks(G, [u]), _masks(G, [v])
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
            verts = (
                VertexId(p0, w_idx),
                *(VertexId(j, i) for j, pair in zip(others, pick) for i in pair),
            )
            conn = Connector(
                pair=(u, v), verts=verts, t=2, witness_u=wit_u, witness_v=wit_v
            )
            conn.validate(G)
            return conn
    return None


def find_connector(
    G: PartiteGraph,
    u: VertexId | tuple[int, int],
    v: VertexId | tuple[int, int],
    W: Iterable[VertexId | tuple[int, int]] = (),
    t: int = 1,
) -> Optional[Connector]:
    """Connector for same-part u, v avoiding W, or None.

    Endpoints listed in W are ignored.  t=1 runs the complete
    joint-neighborhood search: None is a proof.  t=2 first tries the
    split-pool apex construction; when that fails and
    n <= CONNECTOR_EXHAUSTIVE_CAP, falls through to full enumeration
    (making None a proof there too).  At larger n a t=2 None only means
    the construction failed.  A vertex outside G raises ValueError.
    """
    if not G.pattern.is_complete:
        raise ValueError("connector search needs a complete pattern")
    _masks(G, (u, v))  # rejects an endpoint outside G
    u, v = VertexId(*u), VertexId(*v)
    if u.part != v.part or u == v:
        raise ValueError("connector endpoints must be distinct same-part vertices")
    if t not in (1, 2):
        raise ValueError(f"connector parameter t must be 1 or 2, got {t}")
    # no search reads u or v from W: the t=1 search reads only the other
    # parts, and both t=2 searches leave the endpoints out of the apex pool
    wm = _masks(G, W)
    conn = _connector_t1(G, u, v, wm)
    if conn is not None or t == 1:
        return conn
    conn = _connector_t2_construct(G, u, v, wm)
    if conn is None and G.n <= CONNECTOR_EXHAUSTIVE_CAP:
        conn = _connector_t2_exhaustive(G, u, v, wm)
    return conn


@dataclass(frozen=True)
class ReachVerdict:
    ok: bool
    witness: Optional[tuple[VertexId, ...]]
    checks: int


def is_reachable(
    G: PartiteGraph,
    u: VertexId | tuple[int, int],
    v: VertexId | tuple[int, int],
    m: int,
    t: int = 1,
    trials: int = 32,
    seed: int = 0,
) -> ReachVerdict:
    """Adversarial probe: does every size-m forbidden set leave a connector?

    Tries the structured sets (each endpoint's neighborhood, truncated
    to m) plus `trials` random ones.  A pass is evidence, not a proof;
    a fail carries the defeating W, which is a proof whenever the
    connector search itself was complete (t=1 always, t=2 at small n).
    A vertex outside G raises ValueError.
    """
    _masks(G, (u, v))  # rejects an endpoint outside G
    u, v = VertexId(*u), VertexId(*v)
    if u.part != v.part or u == v:
        raise ValueError("reachability needs distinct same-part vertices")
    everything = [x for x in G.vertices() if x != u and x != v]

    def neighborhood(x: VertexId) -> tuple[VertexId, ...]:
        return _ids([0] + [G.nbr_mask(x.part, x.idx, q) for q in range(1, G.k + 1)])[:m]

    candidates = [neighborhood(u), neighborhood(v)]
    rng = rng_for(seed, "reach")
    for _ in range(trials):
        size = min(m, len(everything))
        candidates.append(tuple(sorted(rng.sample(everything, size))))
    checks = 0
    for w in candidates:
        checks += 1
        if find_connector(G, u, v, w, t) is None:
            return ReachVerdict(ok=False, witness=w, checks=checks)
    return ReachVerdict(ok=True, witness=None, checks=checks)


# -- absorbers -----------------------------------------------------------------


@dataclass(frozen=True)
class Absorber:
    """Set A for a transversal k-set: A and A union the set both factor."""

    target: tuple[VertexId, ...]
    verts: tuple[VertexId, ...]
    t: int
    witness_inner: tuple[TransversalCopy, ...]
    witness_full: tuple[TransversalCopy, ...]

    def validate(self, G: PartiteGraph) -> None:
        if sorted(p for p, _ in self.target) != list(range(1, G.k + 1)):
            raise ValueError("absorber target must have one vertex in each part")
        a = set(self.verts)
        s = set(self.target)
        if len(a) != len(self.verts):
            raise ValueError("absorber set has repeated vertices")
        if a & s:
            raise ValueError("absorber set must avoid its target")
        if len(a) > G.k * self.t:
            raise ValueError(f"absorber too large: {len(a)} > k*t = {G.k * self.t}")
        _check_partition(G, self.witness_inner, a, "absorber inner")
        _check_partition(G, self.witness_full, a | s, "absorber full")


def find_absorber(
    G: PartiteGraph,
    S: Sequence[VertexId | tuple[int, int]],
    forbidden: Iterable[VertexId | tuple[int, int]] = (),
    connector_t: int = 2,
) -> Optional[Absorber]:
    """Absorber for the transversal k-set S, or None.

    One transversal clique T plus, per part, a connector between the
    S-vertex and the T-vertex; the uniform connector parameter keeps
    the union balanced, so the witness instances stay factorable.
    connector_t=2 gives |A| <= 2k^2, connector_t=1 gives |A| <= k^2;
    the absorber records t = 2k, so |A| <= k*t either way.  A vertex
    outside G raises ValueError.
    """
    if not G.pattern.is_complete:
        raise ValueError("absorber search needs a complete pattern")
    k = G.k
    target = _masks(G, S)
    if len(S) != k or any(m.bit_count() != 1 for m in target[1:]):
        raise ValueError("absorber target must have one vertex in each part")
    s_ids = _ids(target)
    blocked = _union(_masks(G, forbidden), target)
    free = [G.full_mask & ~b for b in blocked[1:]]
    clique = next(iter_copies(G, range(1, k + 1), free), None)
    if clique is None:
        return None
    acc = [0, *(1 << i for i in clique)]
    for p in range(1, k + 1):
        conn = find_connector(
            G,
            s_ids[p - 1],
            VertexId(p, clique[p - 1]),
            _ids(_union(blocked, acc)),
            t=connector_t,
        )
        if conn is None:
            return None
        acc = _union(acc, _masks(G, conn.verts))
    wit_inner = _factor_witness(G, acc)
    if wit_inner is None:
        return None
    wit_full = _factor_witness(G, _union(acc, target))
    if wit_full is None:
        return None
    absorber = Absorber(
        target=s_ids,
        verts=_ids(acc),
        t=2 * k,
        witness_inner=wit_inner,
        witness_full=wit_full,
    )
    absorber.validate(G)
    return absorber


def disjoint_absorbers(
    G: PartiteGraph,
    S: Sequence[VertexId | tuple[int, int]],
    count_target: int,
    forbidden: Iterable[VertexId | tuple[int, int]] = (),
    connector_t: int = 2,
) -> list[Absorber]:
    """Greedy maximal family of pairwise-disjoint absorbers for S."""
    used = _masks(G, forbidden)
    out: list[Absorber] = []
    while len(out) < count_target:
        a = find_absorber(G, S, _ids(used), connector_t=connector_t)
        if a is None:
            break
        out.append(a)
        used = _union(used, _masks(G, a.verts))
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
    max_degree: int = 40

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

    def degree_table(self) -> tuple[list[int], list[int]]:
        left = [0] * self.left_size
        right = [0] * self.z_size
        for l, z in self.edges:
            left[l] += 1
            right[z] += 1
        return left, right

    def validate(self) -> None:
        if self.m < 1 or self.beta_m < 0:
            raise ValueError("template needs m >= 1 and beta_m >= 0")
        for l, z in self.edges:
            if not (0 <= l < self.left_size and 0 <= z < self.z_size):
                raise ValueError(f"template edge ({l},{z}) out of range")
        left, right = self.degree_table()
        worst = max(left + right, default=0)
        if worst > self.max_degree:
            raise ValueError(
                f"template degree {worst} exceeds the cap {self.max_degree}"
            )

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "beta_m": self.beta_m,
            "max_degree": self.max_degree,
            "edges": sorted([l, z] for l, z in self.edges),
        }

    @staticmethod
    def from_json_dict(data: dict) -> "Template":
        return Template(
            m=data["m"],
            beta_m=data["beta_m"],
            max_degree=data["max_degree"],
            edges=frozenset((l, z) for l, z in data["edges"]),
        )


def verify_template(T: Template) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Exhaustive robustness check; returns (ok, violating X' or None)."""
    T.validate()
    if T.x_size > TEMPLATE_X_CAP:
        raise ValueError(
            f"template verification refused: |X| = {T.x_size} exceeds cap {TEMPLATE_X_CAP}"
        )
    rows = [0] * T.left_size
    for l, z in T.edges:
        rows[l] |= 1 << z
    y_mask = ((1 << T.y_size) - 1) << T.x_size
    z_mask = (1 << T.z_size) - 1
    for chosen in combinations(range(T.x_size), T.m):
        if not has_perfect_matching(rows, mask_of(chosen) | y_mask, z_mask):
            return False, chosen
    return True, None


def generate_template(
    m: int,
    beta_m: int,
    max_tries: int = 1000,
    seed: int = 0,
    max_degree: int = 40,
) -> Optional[Template]:
    """Randomized sparse-first template search.

    Attempt i samples each right vertex's neighborhood at degree
    1 + i // 25 (so the sparsest candidates come first), patches any
    uncovered left vertex, and keeps the first sample that verifies.
    """
    if m < 1 or beta_m < 0:
        raise ValueError("template needs m >= 1 and beta_m >= 0")
    if m + beta_m > TEMPLATE_X_CAP:
        raise ValueError(
            f"template verification refused: |X| = {m + beta_m} exceeds cap {TEMPLATE_X_CAP}"
        )
    left_size = m + beta_m + 2 * m
    z_size = 3 * m
    for attempt in range(max_tries):
        rng = rng_for(seed, "template", attempt)
        d = min(1 + attempt // 25, left_size, max_degree)
        edges: set[tuple[int, int]] = set()
        right_deg = [0] * z_size
        left_deg = [0] * left_size
        for z in range(z_size):
            for l in rng.sample(range(left_size), d):
                if (l, z) not in edges:
                    edges.add((l, z))
                    right_deg[z] += 1
                    left_deg[l] += 1
        ok = True
        for l in range(left_size):
            if left_deg[l]:
                continue
            start = rng.randrange(z_size)
            for off in range(z_size):
                z = (start + off) % z_size
                if right_deg[z] < max_degree:
                    edges.add((l, z))
                    right_deg[z] += 1
                    left_deg[l] += 1
                    break
            else:
                ok = False
                break
        if not ok or max(left_deg) > max_degree:
            continue
        cand = Template(
            m=m, beta_m=beta_m, edges=frozenset(edges), max_degree=max_degree
        )
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
    """Balanced set R meant to swallow any small balanced leftover."""

    R: VertexSetFamily
    xi: float
    provenance: dict = field(compare=False)

    def size_per_part(self) -> int:
        return len(self.R.subset(1)) if 1 in self.R.parts else 0

    def total_size(self) -> int:
        return sum(len(self.R.subset(p)) for p in self.R.parts)

    def validate(self) -> None:
        sizes = {len(self.R.subset(p)) for p in self.R.parts}
        if len(sizes) > 1:
            raise ValueError("absorbing set must be balanced")

    def to_json_dict(self) -> dict:
        return {
            "xi": self.xi,
            "r": {str(p): sorted(self.R.subset(p)) for p in sorted(self.R.parts)},
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
    if m < 1 or beta_m < 0:
        raise ValueError("stage sample-x: template scale needs m >= 1, beta_m >= 0")
    if params.connector_t not in (1, 2):
        raise ValueError("stage absorbers: connector_t must be 1 or 2")
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
    xs: Optional[list[list[int]]] = None
    attempts = 0
    for attempt in range(SAMPLE_TRIES):
        attempts = attempt + 1
        cand = [
            sorted(rng_for(params.seed, "x", attempt, i).sample(range(n), qn))
            for i in range(1, k + 1)
        ]
        arena = [0] + [mask_of(cand[i - 1]) for i in range(1, k + 1)]
        if fan_min == 0 or all(
            len(_fan_sets(G, v, fan_min, arena)) >= fan_min for v in G.vertices()
        ):
            xs = cand
            break
    if xs is None:
        raise ValueError(
            f"stage sample-x: no sample kept fans of size {fan_min} "
            f"after {SAMPLE_TRIES} tries"
        )

    # stage select-yz
    ys: list[list[int]] = []
    zs: dict[tuple[int, int], list[int]] = {}
    for i in range(1, k + 1):
        pool = [v for v in range(n) if v not in set(xs[i - 1])]
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
        tpl = generate_template(
            m,
            beta_m,
            max_tries=TEMPLATE_TRIES,
            seed=params.seed * (k + 1) + i,
        )
        if tpl is None:
            raise ValueError(
                f"stage template: no verified template for part {i} "
                f"within {TEMPLATE_TRIES} tries"
            )
        templates.append(tpl)

    # stage absorbers
    reserved = [0] * (k + 1)
    for i in range(1, k + 1):
        reserved[i] = mask_of(xs[i - 1]) | mask_of(ys[i - 1])
    for (i, j), block in zs.items():
        reserved[i] |= mask_of(block)
    absorbers: list[tuple[tuple[int, int, int], Absorber]] = []
    total_edges = sum(len(t.edges) for t in templates)
    for j in range(1, k + 1):
        tpl = templates[j - 1]
        for l, z in sorted(tpl.edges):
            if l < tpl.x_size:
                left_vertex = VertexId(j, xs[j - 1][l])
            else:
                left_vertex = VertexId(j, ys[j - 1][l - tpl.x_size])
            partner = [
                VertexId(i, zs[(i, j)][z]) for i in range(1, k + 1) if i != j
            ]
            # the target lies inside `reserved`, and find_absorber keeps
            # its target out of the absorber anyway
            a = find_absorber(
                G, [left_vertex, *partner], _ids(reserved), connector_t=params.connector_t
            )
            if a is None:
                raise ValueError(
                    f"stage absorbers: no disjoint absorber for template edge "
                    f"({j},{l},{z}); {len(absorbers)} of {total_edges} placed"
                )
            absorbers.append(((j, l, z), a))
            reserved = _union(reserved, _masks(G, a.verts))

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
        "params": {
            "q": params.q,
            "tau": params.tau,
            "beta_prime": params.beta_prime,
            "m": m,
            "beta_m": beta_m,
            "seed": params.seed,
            "connector_t": params.connector_t,
        },
        "fan_min": fan_min,
        "sample_attempts": attempts,
        "x": [sorted(xs[i]) for i in range(k)],
        "y": [sorted(ys[i]) for i in range(k)],
        "z": {f"{i},{j}": sorted(v) for (i, j), v in sorted(zs.items())},
        "templates": [t.to_json_dict() for t in templates],
        "absorbers": [
            {
                "edge": list(edge),
                "target": _vids_json(a.target),
                "set": _vids_json(a.verts),
            }
            for edge, a in absorbers
        ],
    }
    out = AbsorbingSet(
        R=VertexSetFamily.of({p: bits(reserved[p]) for p in range(1, k + 1)}),
        xi=xi,
        provenance=provenance,
    )
    out.validate()
    return out


@dataclass(frozen=True)
class AbsorbVerdict:
    ok: bool
    failing: Optional[VertexSetFamily]
    checks: int


def verify_absorbing_property(
    G: PartiteGraph,
    R: AbsorbingSet,
    xi: float,
    trials: int = 32,
    seed: int = 0,
    exhaustive_limit: int = 256,
) -> AbsorbVerdict:
    """Probe: does G[R u U] factor for balanced U outside R, |U| <= xi*n?

    Runs exhaustive enumeration when the one-per-part candidate space
    is small enough; otherwise samples `trials` random balanced U.  A
    fail carries the defeating U and is always a proof (the factor
    solver's absence answers are complete).
    """
    k, n = G.k, G.n
    if xi * n < k:
        raise ValueError("absorbing verification needs xi*n >= k")
    r_masks = [0] * (k + 1)
    for p in range(1, k + 1):
        if p in R.R.parts:
            r_masks[p] = mask_of(R.R.subset(p))
    outside = [()] + [
        tuple(v for v in range(n) if not (r_masks[p] >> v & 1)) for p in range(1, k + 1)
    ]
    s_max = min(int(xi * n // k), min(len(o) for o in outside[1:]))
    if s_max < 1:
        return AbsorbVerdict(ok=True, failing=None, checks=0)

    def factors(u_sets: Sequence[Sequence[int]]) -> bool:
        masks = _union(r_masks, [0, *map(mask_of, u_sets)])
        return exact_transversal_factor_search(G, cap=None, masks=masks)[0] is not None

    space = 1
    for o in outside[1:]:
        space *= len(o)
    checks = 0
    if s_max == 1 and space <= exhaustive_limit:
        for pick in product(*outside[1:]):
            checks += 1
            u_sets = [[v] for v in pick]
            if not factors(u_sets):
                fam = VertexSetFamily.of(
                    {p: u_sets[p - 1] for p in range(1, k + 1)}
                )
                return AbsorbVerdict(ok=False, failing=fam, checks=checks)
        return AbsorbVerdict(ok=True, failing=None, checks=checks)
    for trial in range(trials):
        rng = rng_for(seed, "absorb-verify", trial)
        s = rng.randint(1, s_max)
        u_sets = [sorted(rng.sample(outside[p], s)) for p in range(1, k + 1)]
        checks += 1
        if not factors(u_sets):
            fam = VertexSetFamily.of({p: u_sets[p - 1] for p in range(1, k + 1)})
            return AbsorbVerdict(ok=False, failing=fam, checks=checks)
    return AbsorbVerdict(ok=True, failing=None, checks=checks)
