"""Fans, connectors, absorbers, templates, and the absorbing-set pipeline.

Search results are checked against full-enumeration oracles where the
instance is small enough to afford them; the pipeline tests pin exact
outputs for fixed seeds so regressions show up as value drift.
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ids,
    naive_is_factor,
    naive_verify_absorbing_property,
    random_instance,
)
from transtile import absorbing
from transtile.core import (
    Pattern,
    PartiteGraph,
    VertexId,
    bits,
    vertex_masks,
)
from transtile.generators import (
    complete_blowup,
    hole_suppressed_process,
    random_spanning_subgraph,
)
from transtile.absorbing import (
    _absorb_factor,
    _connector_t2_construct,
    _factor_witness,
    Absorber,
    AbsorbingSet,
    AbsorbParams,
    Connector,
    Template,
    build_absorbing_set,
    disjoint_absorbers,
    find_absorber,
    find_connector,
    generate_template,
    verify_absorbing_property,
    verify_template,
)

K3 = Pattern.complete(3)


# -- oracles -------------------------------------------------------------------


def max_fan_size_k3(G: PartiteGraph, v: VertexId, arena=None) -> int:
    """Maximum fan at v for k=3: a fan set is an edge between v's two
    neighborhoods, so the best fan is a maximum matching between them.
    An `arena` (per-part masks) limits both neighborhoods to its vertices."""
    a_pool = [a for a in range(G.n) if G.has_edge(v, (2, a))]
    b_pool = [b for b in range(G.n) if G.has_edge(v, (3, b))]
    if arena is not None:
        a_pool = [a for a in a_pool if arena[2] >> a & 1]
        b_pool = [b for b in b_pool if arena[3] >> b & 1]
    best = 0

    def rec(ai: int, used_b: frozenset, size: int) -> None:
        nonlocal best
        best = max(best, size)
        if ai == len(a_pool):
            return
        rec(ai + 1, used_b, size)
        for b in b_pool:
            if b not in used_b and G.has_edge((2, a_pool[ai]), (3, b)):
                rec(ai + 1, used_b | {b}, size + 1)

    rec(0, frozenset(), 0)
    return best


def naive_small_connector_exists(G, u, v, W=()) -> bool:
    """Any (k-1)-set in the joint neighborhood forming a transversal
    copy with each endpoint?  Full product scan over edge lookups."""
    wset = {VertexId(*w) for w in W}
    pools = [
        [
            x
            for x in (VertexId(p, i) for i in range(G.n))
            if x not in wset and G.has_edge(u, x) and G.has_edge(v, x)
        ]
        for p in range(1, G.k + 1)
        if p != u.part
    ]
    for pick in product(*pools):
        if all(G.has_edge(x, y) for x, y in combinations(pick, 2)):
            return True
    return False


def naive_pm_exists(rows, z_size: int) -> bool:
    """Perfect matching on (rows, Z) by scanning all assignments."""
    if len(rows) != z_size:
        return False
    for perm in permutations(range(z_size)):
        if all(perm[i] in rows[i] for i in range(len(rows))):
            return True
    return False


def naive_template_robust(T: Template) -> bool:
    nbrs = [set() for _ in range(T.left_size)]
    for l, z in T.edges:
        nbrs[l].add(z)
    y_rows = [nbrs[T.x_size + i] for i in range(T.y_size)]
    return all(
        naive_pm_exists([nbrs[l] for l in chosen] + y_rows, T.z_size)
        for chosen in combinations(range(T.x_size), T.m)
    )


# -- fans ----------------------------------------------------------------------
#
# The greedy fan is a private step of the pipeline's sample-x stage, so
# these tests call `_fan_sets` directly; `everywhere` is the full arena.


def everywhere(G: PartiteGraph) -> list[int]:
    return [G.full_mask] * (G.k + 1)


def check_fan(G: PartiteGraph, v: VertexId, sets, arena) -> None:
    """Each set completes v to a copy inside `arena`, and no two meet."""
    parts = [p for p in range(1, G.k + 1) if p != v.part]
    flat = [VertexId(p, i) for s in sets for p, i in zip(parts, s)]
    assert len(set(flat)) == len(flat), "fan sets are not disjoint"
    assert all(arena[x.part] >> x.idx & 1 for x in flat), "fan set leaves the arena"
    for s in sets:
        copy = [v, *map(VertexId, parts, s)]
        assert all(G.has_edge(x, y) for x, y in combinations(copy, 2)), s


def test_fan_on_complete_blowup_reaches_part_size():
    G = complete_blowup(K3, 4)
    sets = absorbing._fan_sets(G, VertexId(1, 0), 10, everywhere(G))
    assert len(sets) == 4
    check_fan(G, VertexId(1, 0), sets, everywhere(G))


def test_fan_target_size_truncates():
    G = complete_blowup(K3, 4)
    assert len(absorbing._fan_sets(G, VertexId(1, 0), 2, everywhere(G))) == 2


def test_fan_at_isolated_vertex_is_empty():
    G = complete_blowup(K3, 3).delete_edges(
        [(1, 0, p, a) for p in (2, 3) for a in range(3)]
    )
    assert absorbing._fan_sets(G, VertexId(1, 0), 5, everywhere(G)) == []


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 200),
    arena=st.none() | st.lists(st.integers(0, 31), min_size=4, max_size=4),
)
def test_fan_greedy_within_matching_bounds(seed, arena):
    # greedy is maximal, which pins it between max/2 and max of the
    # arena's fans; sample-x passes a random subset of each part, which
    # need not hold v, and None stands for the full arena
    G = random_instance(K3, 5, 0.55, seed)
    arena = everywhere(G) if arena is None else arena
    v = VertexId(1, 0)
    greedy = absorbing._fan_sets(G, v, 99, arena)
    check_fan(G, v, greedy, arena)
    best = max_fan_size_k3(G, v, arena)
    assert len(greedy) <= best <= 2 * len(greedy)


def test_fan_greedy_hits_maximum_on_pinned_seed():
    G = random_instance(K3, 5, 0.55, 1)
    v = VertexId(1, 0)
    assert len(absorbing._fan_sets(G, v, 99, everywhere(G))) == max_fan_size_k3(G, v) == 3


def test_fan_greedy_can_fall_short_of_maximum():
    G = random_instance(K3, 5, 0.55, 6)
    assert len(absorbing._fan_sets(G, VertexId(1, 0), 99, everywhere(G))) == 2
    assert max_fan_size_k3(G, VertexId(1, 0)) == 3


def _partition_checks(monkeypatch) -> list[str]:
    """The labels of every witness partition check made from now on."""
    labels: list[str] = []
    check = absorbing._check_partition

    def counted(G, copies, expected, label):
        labels.append(label)
        check(G, copies, expected, label)

    monkeypatch.setattr(absorbing, "_check_partition", counted)
    return labels


# -- connectors ----------------------------------------------------------------


def test_small_connector_on_complete_blowup():
    G = complete_blowup(K3, 3)
    c = find_connector(G, (1, 0), (1, 1), t=1)
    assert c.t == 1 and len(ids(c.verts)) == 2
    assert len(c.witness_u) == len(c.witness_v) == 1
    c.validate(G)


def test_small_connector_respects_forbidden_set():
    G = complete_blowup(K3, 2)
    blocked = find_connector(G, (1, 0), (1, 1), vertex_masks(G, [(2, 0), (2, 1)]), t=1)
    assert blocked is None
    c = find_connector(G, (1, 0), (1, 1), vertex_masks(G, [(2, 0)]), t=1)
    assert VertexId(2, 1) in ids(c.verts)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 300))
def test_small_connector_absence_matches_enumeration(seed):
    G = random_instance(K3, 4, 0.5, seed)
    u, v = VertexId(1, 0), VertexId(1, 1)
    W = [(2, 0), (3, 3)]
    c = find_connector(G, u, v, vertex_masks(G, W), t=1)
    assert (c is not None) == naive_small_connector_exists(G, u, v, W)
    if c is not None:
        c.validate(G)
        assert not {u, v} & set(ids(c.verts))


def test_connector_drops_endpoints_from_forbidden():
    G = complete_blowup(K3, 3)
    with_eps = find_connector(G, (1, 0), (1, 1), vertex_masks(G, [(1, 0), (1, 1)]), t=1)
    without = find_connector(G, (1, 0), (1, 1), t=1)
    assert with_eps.verts == without.verts


def test_connector_argument_validation():
    G = complete_blowup(K3, 3)
    with pytest.raises(ValueError, match="same-part"):
        find_connector(G, (1, 0), (2, 0))
    with pytest.raises(ValueError, match="same-part"):
        find_connector(G, (1, 0), (1, 0))
    with pytest.raises(ValueError, match="t must be 1 or 2"):
        find_connector(G, (1, 0), (1, 1), t=3)
    C = complete_blowup(Pattern.cycle(4), 3)
    with pytest.raises(ValueError, match="complete pattern"):
        find_connector(C, (1, 0), (1, 1))


def test_two_clique_connector_when_joint_neighborhood_splits():
    # u and v see disjoint halves of part 2, so no size-2 connector
    # exists; the apex construction must bridge them
    G = complete_blowup(K3, 4).delete_edges(
        [(1, 0, 2, 2), (1, 0, 2, 3), (1, 1, 2, 0), (1, 1, 2, 1)]
    )
    u, v = VertexId(1, 0), VertexId(1, 1)
    assert find_connector(G, u, v, t=1) is None
    c = find_connector(G, u, v, t=2)
    assert c.t == 2 and len(ids(c.verts)) == 5
    assert sorted(ids(c.verts)) == [
        VertexId(1, 2),
        VertexId(2, 0),
        VertexId(2, 2),
        VertexId(3, 0),
        VertexId(3, 2),
    ]
    assert len(c.witness_u) == len(c.witness_v) == 2
    c.validate(G)


def test_two_clique_connector_gives_u_the_larger_half_of_an_odd_pool():
    # u's free part-3 neighbourhood has five vertices: the u-side pool
    # takes the lower three, so the v-side clique starts at index 3
    G = complete_blowup(K3, 5).delete_edges(
        [(1, 0, 2, 3), (1, 0, 2, 4), (1, 1, 2, 0), (1, 1, 2, 1), (1, 1, 2, 2)]
    )
    u, v = VertexId(1, 0), VertexId(1, 1)
    assert find_connector(G, u, v, t=1) is None
    c = find_connector(G, u, v, t=2)
    assert ids(c.verts) == (
        VertexId(1, 2), VertexId(2, 0), VertexId(2, 3), VertexId(3, 0), VertexId(3, 3)
    )
    assert [w.verts for w in c.witness_u] == [(0, 0, 0), (2, 3, 3)]
    assert [w.verts for w in c.witness_v] == [(1, 3, 3), (2, 0, 0)]


def test_exhaustive_fallback_finds_what_the_construction_misses():
    # the split-pool construction pins part 3 candidates to index 0 for
    # the u-side clique, and both edges into it are gone; full
    # enumeration at this size still finds a working 5-set
    G = complete_blowup(K3, 4).delete_edges(
        [(1, 0, 3, 2), (1, 0, 3, 3), (1, 1, 3, 0), (1, 1, 3, 1),
         (2, 0, 3, 0), (2, 1, 3, 0)]
    )
    u, v = VertexId(1, 0), VertexId(1, 1)
    assert find_connector(G, u, v, t=1) is None
    assert _connector_t2_construct(G, u, v, [0] * 4) is None
    c = find_connector(G, u, v, t=2)
    assert c is not None and c.t == 2
    assert ids(c.verts) == (
        VertexId(1, 2), VertexId(2, 0), VertexId(2, 1), VertexId(3, 1), VertexId(3, 2)
    )
    assert [w.verts for w in c.witness_u] == [(0, 0, 1), (2, 1, 2)]
    assert [w.verts for w in c.witness_v] == [(1, 0, 2), (2, 1, 1)]
    c.validate(G)


@pytest.mark.parametrize(
    "W",
    [
        [0, 0, 0],  # no slot for part 3
        [0, 0, 0, 0, 0],  # a slot for a part 4
        [0, 0, 0, 0, 1],  # a vertex in a part 4
        [0, 0, -1, 0],  # a negative mask has every bit set
        [0, 0, 1 << 3, 0],  # index 3 at n = 3
    ],
)
def test_connector_rejects_forbidden_vertices_outside_the_graph(W):
    G = complete_blowup(K3, 3)
    message = r"forbidden masks need slots 1\.\.3 with bits below n=3"
    with pytest.raises(ValueError, match=message):
        find_connector(G, (1, 0), (1, 1), W=W, t=1)


@pytest.mark.parametrize("u, v", [((1, 0), (1, 3)), ((1, -1), (1, 0)), ((0, 0), (0, 1))])
def test_connector_and_reachability_reject_endpoints_outside_the_graph(u, v):
    G = complete_blowup(K3, 3)
    with pytest.raises(ValueError, match="is not in G"):
        find_connector(G, u, v, t=1)


def test_exhaustive_connector_lists_the_apex_first():
    # the fallback instance above with parts 1 and 2 swapped: the
    # enumerated set is the apex and then its pairs, and a mask keeps no
    # order, so it compares sorted
    G = complete_blowup(K3, 4).delete_edges(
        [(2, 0, 3, 2), (2, 0, 3, 3), (2, 1, 3, 0), (2, 1, 3, 1),
         (1, 0, 3, 0), (1, 1, 3, 0)]
    )
    c = find_connector(G, (2, 0), (2, 1), t=2)
    assert ids(c.verts) == tuple(sorted((
        VertexId(2, 2), VertexId(1, 0), VertexId(1, 1), VertexId(3, 1), VertexId(3, 2)
    )))
    assert [w.verts for w in c.witness_u] == [(0, 0, 1), (1, 2, 2)]
    assert [w.verts for w in c.witness_v] == [(0, 1, 2), (1, 2, 1)]
    c.validate(G)


def test_connector_absence_for_cut_off_endpoint():
    # v has no part-2 neighbor at all, so no connector of either size
    # can exist; at n=4 the search is exhaustive and None is a proof
    G = complete_blowup(K3, 4).delete_edges([(1, 1, 2, a) for a in range(4)])
    assert find_connector(G, (1, 0), (1, 1), t=2) is None


@pytest.mark.parametrize(
    "deleted, t",
    [
        ([], 1),  # the joint-neighbourhood search
        ([(1, 0, 2, 2), (1, 0, 2, 3), (1, 1, 2, 0), (1, 1, 2, 1)], 2),  # the apex construction
        (
            [(1, 0, 3, 2), (1, 0, 3, 3), (1, 1, 3, 0), (1, 1, 3, 1), (2, 0, 3, 0), (2, 1, 3, 0)],
            2,
        ),  # the exhaustive fallback
    ],
    ids=["t1", "t2-construct", "t2-exhaustive"],
)
def test_find_connector_checks_its_witnesses_once(monkeypatch, deleted, t):
    # the builders return unchecked connectors; find_connector validates
    # the one it returns, one partition check per side
    G = complete_blowup(K3, 4).delete_edges(deleted)
    labels = _partition_checks(monkeypatch)
    assert find_connector(G, (1, 0), (1, 1), t=t).t == t
    assert labels == ["connector u-side", "connector v-side"]


def test_connector_validate_rejects_tampered_witness():
    G = complete_blowup(K3, 3)
    c = find_connector(G, (1, 0), (1, 1), t=1)
    bad = Connector(
        pair=c.pair,
        verts=c.verts,
        t=c.t,
        witness_u=c.witness_v,  # covers v, not u
        witness_v=c.witness_v,
    )
    with pytest.raises(ValueError, match="does not cover"):
        bad.validate(G)


@pytest.mark.parametrize(
    "verts, message",
    [
        ((0, 0b10, 0b10), r"connector set masks need slots 1\.\.3"),
        ((0, 0, -1, 0b10), r"connector set masks need slots 1\.\.3"),
        ((0, 0, 0b1000, 0b10), r"connector set masks .* with bits below n=3"),
        ((0, 0b1, 0b10, 0b10), "connector set must avoid its endpoints"),
        ((0, 0b10, 0b10, 0b10), "connector set must avoid its endpoints"),
    ],
)
def test_connector_validate_checks_its_masks(verts, message):
    # short, negative, a bit at n, and each endpoint inside the set
    G = complete_blowup(K3, 3)
    c = find_connector(G, (1, 0), (1, 1), t=1)
    with pytest.raises(ValueError, match=message):
        Connector(c.pair, verts, c.t, c.witness_u, c.witness_v).validate(G)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda G: disjoint_absorbers(G, [(1, 0), (2, 0), (3, 0)], -2),
            "count_target >= 0, got -2",
        ),
        (
            lambda G: verify_absorbing_property(
                G, _set_of([0, 0, 0, 0]), 1.5, exhaustive_limit=-1
            ),
            "exhaustive_limit >= 0, got -1",
        ),
    ],
    ids=["disjoint_absorbers", "exhaustive_limit"],
)
def test_absorbing_entries_reject_negative_counts(call, message):
    # each once passed: no absorbers, and a sampled check instead of an
    # exhaustive one
    with pytest.raises(ValueError, match=message):
        call(complete_blowup(K3, 3))


# -- absorbers -----------------------------------------------------------------


def test_absorber_on_complete_blowup():
    G = complete_blowup(K3, 6)
    a = find_absorber(G, [(1, 0), (2, 0), (3, 0)], connector_t=1)
    assert a is not None and a.t == 6 and len(ids(a.verts)) == 9
    assert not set(a.target) & set(ids(a.verts))
    a.validate(G)


def test_absorber_connector_t2_stays_balanced_on_rich_instance():
    # every pair admits a small connector, so the union keeps k
    # vertices per part even under the larger connector budget
    G = complete_blowup(K3, 6)
    a = find_absorber(G, [(1, 0), (2, 0), (3, 0)], connector_t=2)
    assert a is not None and len(ids(a.verts)) == 9
    per_part = [sum(1 for x in ids(a.verts) if x.part == p) for p in (1, 2, 3)]
    assert per_part == [3, 3, 3]


def test_absorber_respects_forbidden_set():
    G = complete_blowup(K3, 6)
    keep_out = [(p, i) for p in (1, 2, 3) for i in (1, 2)]
    a = find_absorber(
        G, [(1, 0), (2, 0), (3, 0)], forbidden=vertex_masks(G, keep_out), connector_t=1
    )
    assert a is not None
    assert not set(ids(a.verts)) & {VertexId(p, i) for p, i in keep_out}


def test_absorber_with_isolated_target_vertex_is_none():
    G = complete_blowup(K3, 6).delete_edges(
        [(1, 0, p, a) for p in (2, 3) for a in range(6)]
    )
    assert find_absorber(G, [(1, 0), (2, 0), (3, 0)], connector_t=1) is None


def test_absorber_requires_transversal_target():
    G = complete_blowup(K3, 4)
    with pytest.raises(ValueError, match="one vertex in each part"):
        find_absorber(G, [(1, 0), (1, 1), (2, 0)])


def test_absorber_rejects_vertices_outside_the_graph():
    G = complete_blowup(K3, 3)
    with pytest.raises(ValueError, match=r"vertex \(1, 7\) is not in G"):
        find_absorber(G, [(1, 7), (2, 0), (3, 0)])
    with pytest.raises(ValueError, match=r"forbidden masks need slots 1\.\.3"):
        find_absorber(G, [(1, 0), (2, 0), (3, 0)], forbidden=[0, 1 << 3, 0, 0])
    with pytest.raises(ValueError, match=r"vertex \(1, 7\) is not in G"):
        disjoint_absorbers(G, [(1, 7), (2, 0), (3, 0)], 2)


def test_absorber_rejects_a_repeated_target_vertex():
    G = complete_blowup(K3, 4)
    with pytest.raises(ValueError, match="one vertex in each part"):
        find_absorber(G, [(1, 0), (1, 0), (2, 0), (3, 0)])


def test_absorber_assembles_its_witnesses_without_a_factor_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("find_absorber ran a factor search")

    monkeypatch.setattr(absorbing, "exact_transversal_factor_search", no_search)
    G = random_spanning_subgraph(complete_blowup(K3, 8), 0.8, 1)
    a = find_absorber(G, [(1, 0), (2, 0), (3, 0)], connector_t=1)
    assert a is not None and len(a.witness_full) == len(a.witness_inner) + 1
    a.validate(G)


def test_find_absorber_checks_each_witness_once(monkeypatch):
    # the absorber's inner and full witnesses hold every copy of its
    # connectors, so its own check is the only one: 2 partition checks
    # where checking each connector too made 2k + 2 = 8
    labels = _partition_checks(monkeypatch)
    a = find_absorber(complete_blowup(K3, 6), [(1, 0), (2, 0), (3, 0)], connector_t=1)
    assert a is not None and len(a.witness_inner) == 3
    assert labels == ["absorber inner", "absorber full"]


def test_absorber_rejects_connector_t_3_before_any_search():
    # on the edgeless graph there is no clique, and both once answered
    # "none found" (None and []) instead of refusing the parameter
    G = PartiteGraph.from_edges(K3, 3, [])
    with pytest.raises(ValueError, match="t must be 1 or 2, got 3"):
        find_absorber(G, [(1, 0), (2, 0), (3, 0)], connector_t=3)
    with pytest.raises(ValueError, match="t must be 1 or 2, got 3"):
        disjoint_absorbers(G, [(1, 0), (2, 0), (3, 0)], 2, connector_t=3)


@pytest.mark.parametrize(
    "verts, message",
    [
        ((0, 0b1110, 0b1110), r"absorber set masks need slots 1\.\.3"),
        ((0, 0b1110, -1, 0b1110), r"absorber set masks need slots 1\.\.3"),
        ((0, 0b1110, 0b1110, 0b10110), r"absorber set masks .* with bits below n=4"),
        ((0, 0b1110, 0b1111, 0b1110), "absorber set must avoid its target"),
    ],
)
def test_absorber_validate_checks_its_masks(verts, message):
    # short, negative, a bit at n, and a target vertex inside the set
    G = complete_blowup(K3, 4)
    a = find_absorber(G, [(1, 0), (2, 0), (3, 0)], connector_t=1)
    assert a.verts == (0, 0b1110, 0b1110, 0b1110)
    with pytest.raises(ValueError, match=message):
        Absorber(a.target, verts, a.t, a.witness_inner, a.witness_full).validate(G)


def test_absorber_forbidden_everything_is_none():
    G = complete_blowup(K3, 4)
    everything = [(p, i) for p in (1, 2, 3) for i in range(4)]
    forbidden = vertex_masks(G, everything)
    assert find_absorber(G, [(1, 0), (2, 0), (3, 0)], forbidden=forbidden) is None


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100))
def test_absorber_witnesses_revalidate_on_random_instances(seed):
    G = random_instance(K3, 5, 0.8, seed)
    a = find_absorber(G, [(1, 0), (2, 0), (3, 0)], connector_t=1)
    if a is not None:
        a.validate(G)
        assert len(ids(a.verts)) <= 3 * a.t


def test_disjoint_absorber_family_fills_the_instance():
    G = complete_blowup(K3, 12)
    fam = disjoint_absorbers(G, [(1, 0), (2, 0), (3, 0)], 99, connector_t=1)
    assert len(fam) == 3  # (n - |S|) // (per-part absorber size)
    seen: set[VertexId] = set()
    for a in fam:
        a.validate(G)
        assert not seen & set(ids(a.verts))
        seen.update(ids(a.verts))


def test_disjoint_absorbers_stop_at_count_target():
    G = complete_blowup(K3, 12)
    assert len(disjoint_absorbers(G, [(1, 0), (2, 0), (3, 0)], 2, connector_t=1)) == 2


def test_disjoint_absorbers_on_empty_graph():
    G = PartiteGraph.from_edges(K3, 4, [])
    assert disjoint_absorbers(G, [(1, 0), (2, 0), (3, 0)], 5) == []


# SHA-256 of json.dumps(rows) over 294 outputs: for k in 3, 4, n in 4, 6,
# 8, p in 0.6, 0.8, 0.95, seeds 0..3 and t in 1, 2, G is a random
# spanning subgraph (p, seed) of the K_k blow-up and S = {(q, seed % n)};
# each combination adds find_absorber(G, S, forbidden=the masks of
# [(1, (seed+1) % n)], connector_t=t) as [verts, target, t] or None, then
# the verts of disjoint_absorbers(G, S, 3, connector_t=t), each verts the
# sorted vertex list of the absorber's masks.  Six build_absorbing_set
# runs on the K3 blow-up at n = 45 (q = 1/45, seeds 0..5) close the list,
# as to_json_dict() or the error message.  Moving an absorber vertex, a
# None or a pipeline message moves it.
ABSORBER_GRID_SHA = "8a66a9b54f755196baa244fa2cc5805cdb7c071ef10732d2b2149dd178fdf7b1"


def test_absorbers_are_pinned():
    rows = []
    for k, n, p, seed, t in product((3, 4), (4, 6, 8), (0.6, 0.8, 0.95), range(4), (1, 2)):
        G = random_spanning_subgraph(complete_blowup(Pattern.complete(k), n), p, seed)
        S = [(q, seed % n) for q in range(1, k + 1)]
        forbidden = vertex_masks(G, [(1, (seed + 1) % n)])
        a = find_absorber(G, S, forbidden=forbidden, connector_t=t)
        rows.append(None if a is None else [ids(a.verts), a.target, a.t])
        rows.append([ids(a.verts) for a in disjoint_absorbers(G, S, 3, connector_t=t)])
    G = complete_blowup(K3, 45)
    for seed in range(6):
        params = AbsorbParams(q=1 / 45, tau=3.0, beta_prime=0.003, m=1, seed=seed)
        try:
            rows.append(build_absorbing_set(G, params).to_json_dict())
        except ValueError as exc:
            rows.append(str(exc))
    assert len(rows) == 294
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == ABSORBER_GRID_SHA


# SHA-256 of json.dumps([build_absorbing_set(G, AbsorbParams(q=1/30,
# tau=3.0, beta_prime=0.001, m=1, seed=s, connector_t=t)).to_json_dict()
# ...], sort_keys=True) for t in 1, 2 and s in 0..2, G a random spanning subgraph (0.97,
# s) of the K3 blow-up at n = 60: six full builds whose absorbers avoid
# missing edges, under both connector flavours.
RANDOM_HOST_BUILD_SHA = "b8964a46eb7aa6ff659a1b140b22994aa64f09f26d14e30ac688172aa04cb312"


def test_absorbing_sets_on_random_hosts_are_pinned():
    rows = []
    for t, seed in product((1, 2), range(3)):
        G = random_spanning_subgraph(complete_blowup(K3, 60), 0.97, seed)
        params = AbsorbParams(
            q=1 / 30, tau=3.0, beta_prime=0.001, m=1, seed=seed, connector_t=t
        )
        rows.append(build_absorbing_set(G, params).to_json_dict())
    canon = json.dumps(rows, sort_keys=True).encode()
    assert hashlib.sha256(canon).hexdigest() == RANDOM_HOST_BUILD_SHA


# -- templates -----------------------------------------------------------------


def test_template_minimal_scale_generates_and_verifies():
    T = generate_template(1, 0, seed=0)
    assert T is not None and T.x_size == 1 and T.z_size == 3
    assert verify_template(T) == (True, None)


def test_template_m2_b1_generates_and_verifies():
    T = generate_template(2, 1, seed=0)
    assert T is not None
    assert verify_template(T) == (True, None)
    left, right = T.degree_table()
    assert max(left + right) <= 40


def test_template_degree_cap_one_is_unsatisfiable(monkeypatch):
    # six right vertices at degree one cannot cover seven left vertices
    monkeypatch.setattr(absorbing, "TEMPLATE_TRIES", 60)
    monkeypatch.setattr(absorbing, "TEMPLATE_MAX_DEGREE", 1)
    assert generate_template(2, 1, seed=0) is None


def test_template_hand_built_robust_pair():
    edges = {(2, 0), (3, 1), (0, 2), (1, 2)}  # y0-z0, y1-z1, x0-z2, x1-z2
    T = Template(m=1, beta_m=1, edges=frozenset(edges))
    assert verify_template(T) == (True, None)
    crippled = Template(m=1, beta_m=1, edges=frozenset(edges - {(1, 2)}))
    assert verify_template(crippled) == (False, (1,))


def test_template_starved_right_vertex_fails_with_witness():
    T = generate_template(1, 0, seed=0)
    pruned = Template(
        m=1, beta_m=0, edges=frozenset((l, z) for l, z in T.edges if z != 0)
    )
    ok, bad = verify_template(pruned)
    assert not ok and bad == (0,)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 200))
def test_template_verifier_matches_brute_force(seed):
    import random

    rng = random.Random(seed)
    edges = set()
    for z in range(6):
        for l in rng.sample(range(7), rng.randint(1, 3)):
            edges.add((l, z))
    T = Template(m=2, beta_m=1, edges=frozenset(edges))
    assert verify_template(T)[0] == naive_template_robust(T)


def test_template_x_cap_refusal():
    with pytest.raises(ValueError, match="exceeds cap 20"):
        generate_template(21, 0)
    with pytest.raises(ValueError, match="exceeds cap 20"):
        verify_template(Template(m=20, beta_m=1, edges=frozenset()))


def test_template_scale_validation():
    with pytest.raises(ValueError, match="m >= 1"):
        generate_template(0, 0)
    with pytest.raises(ValueError, match="m >= 1"):
        Template(m=1, beta_m=-1, edges=frozenset()).validate()
    with pytest.raises(ValueError, match="out of range"):
        Template(m=1, beta_m=0, edges=frozenset({(3, 0)})).validate()
    with pytest.raises(ValueError, match="exceeds the cap"):
        Template(
            m=1, beta_m=0, edges=frozenset((l, 0) for l in range(3)), max_degree=2
        ).validate()


def test_template_json_round_trip():
    T = generate_template(2, 1, seed=4)
    again = Template.from_json_dict(json.loads(json.dumps(T.to_json_dict())))
    assert again == T


def test_template_generation_is_deterministic():
    a = generate_template(2, 1, seed=9)
    b = generate_template(2, 1, seed=9)
    assert a == b


# SHA-256 of json.dumps(rows), one row per generate_template(m, beta_m,
# seed) for m in 1..3, beta_m in 0..2 and seed in 0..3 (36 templates):
# the template's sorted edges as [left, right] pairs, or None.  Moving an
# edge, a degree cap or the number of tries moves it.
TEMPLATE_GRID_SHA = "1702e75715a9d3d1b8a0a5dd09fb4bf50b7222e75e8b5c5b94d66dd6a37ae036"


def test_templates_are_pinned():
    rows = []
    for m, beta_m, seed in product(range(1, 4), range(3), range(4)):
        T = generate_template(m, beta_m, seed=seed)
        rows.append(None if T is None else sorted(T.edges))
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == TEMPLATE_GRID_SHA


# -- absorbing-set pipeline ------------------------------------------------------


def pipeline_params(seed: int = 7) -> AbsorbParams:
    return AbsorbParams(
        q=1 / 45, tau=3.0, beta_prime=0.003, m=1, beta_m=1, seed=seed, connector_t=1
    )


def test_build_absorbing_set_on_complete_blowup():
    G = complete_blowup(K3, 90)
    out = build_absorbing_set(G, pipeline_params())
    out.validate()
    assert out.xi == pytest.approx(3 / 90)
    assert out.size_per_part() == 55
    assert out.total_size() == 165 <= 3.0 * 90
    prov = out.provenance
    assert prov["fan_min"] == 2 and prov["sample_attempts"] == 1
    assert len(prov["absorbers"]) == 15
    json.dumps(prov)  # provenance must be serializable as-is


def test_build_keeps_stage_sets_inside_r():
    G = complete_blowup(K3, 90)
    out = build_absorbing_set(G, pipeline_params())
    prov = out.provenance
    for i in range(3):
        assert set(prov["x"][i]) <= set(bits(out.R[i + 1]))
        assert set(prov["y"][i]) <= set(bits(out.R[i + 1]))
    fixed = {
        (p, v)
        for p in range(1, 4)
        for v in prov["x"][p - 1] + prov["y"][p - 1]
    }
    for key, block in prov["z"].items():
        i = int(key.split(",")[0])
        fixed |= {(i, v) for v in block}
        assert set(block) <= set(bits(out.R[i]))
    seen = set(map(tuple, ()))
    for rec in prov["absorbers"]:
        verts = {tuple(v) for v in rec["set"]}
        assert not verts & fixed, "absorbers must avoid the template hosts"
        assert not verts & seen, "absorbers must be pairwise disjoint"
        seen |= verts


def test_build_output_is_pinned():
    # canonical JSON of the check-7 complete instance, pinned so that a
    # change of representation inside the pipeline cannot move a byte
    G = complete_blowup(K3, 60)
    params = AbsorbParams(
        q=1 / 30, tau=3.0, beta_prime=0.003, m=1, beta_m=1, seed=7, connector_t=1
    )
    data = build_absorbing_set(G, params).to_json_dict()
    canon = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(canon).hexdigest() == (
        "0684fbcd8d3f69698a58bf5b1d41774191ccb75f7d4ec83638aeaa0a4b6df1f3"
    )


def test_build_is_deterministic():
    G = complete_blowup(K3, 90)
    a = build_absorbing_set(G, pipeline_params())
    b = build_absorbing_set(G, pipeline_params())
    assert a.to_json_dict() == b.to_json_dict()


def test_build_rejects_tiny_x_sample():
    G = complete_blowup(K3, 12)
    with pytest.raises(ValueError, match="stage sample-x: q\\*n = 1 cannot host"):
        build_absorbing_set(
            G, AbsorbParams(q=1 / 12, tau=3.0, beta_prime=0.001, m=1, beta_m=1, seed=0)
        )


def test_build_rejects_oversized_fan_requirement():
    G = complete_blowup(K3, 90)
    with pytest.raises(ValueError, match="fan requirement .* exceeds the X part size"):
        build_absorbing_set(
            G, AbsorbParams(q=1 / 45, tau=3.0, beta_prime=0.05, m=1, beta_m=1, seed=0)
        )


def test_build_rejects_insufficient_yz_room():
    # m=2 wants 2m + 3m(k-1) = 16 vertices per part beyond X; 18 - 3 = 15
    G = complete_blowup(K3, 18)
    with pytest.raises(ValueError, match="stage select-yz"):
        build_absorbing_set(
            G, AbsorbParams(q=1 / 6, tau=3.0, beta_prime=0.001, m=2, beta_m=1, seed=0)
        )


@pytest.mark.parametrize(
    "q, beta_prime, message",
    [
        (1.5, 0.003, r"stage sample-x: q must lie in \[0, 1\], got 1.5"),
        (-0.1, 0.003, r"stage sample-x: q must lie in \[0, 1\], got -0.1"),
        (0.1, -0.01, "stage sample-x: beta_prime must be >= 0, got -0.01"),
        # the rules the pipeline shares with the searches it calls, under
        # its stage names; these rows give the fields they change
        pytest.param(
            0.1,
            {"connector_t": 3},
            "^stage absorbers: connector parameter t must be 1 or 2, got 3$",
            id="connector_t-3",
        ),
        pytest.param(
            0.1,
            {"m": 0},
            "^stage sample-x: template scale needs m >= 1, beta_m >= 0$",
            id="m-0",
        ),
        pytest.param(
            0.1,
            {"beta_m": -1},
            "^stage sample-x: template scale needs m >= 1, beta_m >= 0$",
            id="beta_m--1",
        ),
    ],
)
def test_build_rejects_out_of_range_sample_params(q, beta_prime, message):
    # q = 1.5 once failed at stage select-yz ("only -15 remain"), and a
    # negative beta_prime ran as no fan requirement
    G = complete_blowup(K3, 30)
    fields = {"q": q, "tau": 3.0, "beta_prime": 0.003, "m": 1, "seed": 0}
    fields.update(beta_prime if isinstance(beta_prime, dict) else {"beta_prime": beta_prime})
    with pytest.raises(ValueError, match=message):
        build_absorbing_set(G, AbsorbParams(**fields))


def test_build_rejects_negative_tau_up_front(monkeypatch):
    # tau = -1 once ran every stage and failed only at "stage assemble:
    # |R| = 147 exceeds tau*n = -60"
    G = complete_blowup(K3, 60)
    monkeypatch.setattr(absorbing, "rng_for", None)  # stage sample-x may not start
    params = AbsorbParams(q=1 / 30, tau=-1.0, beta_prime=0.003, m=1, seed=0)
    with pytest.raises(ValueError, match=r"^stage sample-x: tau must be >= 0, got -1.0$"):
        build_absorbing_set(G, params)


def test_build_fan_stage_fails_on_empty_graph():
    G = PartiteGraph.from_edges(K3, 12, [])
    with pytest.raises(ValueError, match="no sample kept fans of size 1"):
        build_absorbing_set(
            G,
            AbsorbParams(q=1 / 6, tau=3.0, beta_prime=0.01, m=1, beta_m=1, seed=0),
        )


def test_verify_absorbing_property_on_built_set():
    G = complete_blowup(K3, 90)
    out = build_absorbing_set(G, pipeline_params())
    v = verify_absorbing_property(G, out, xi=out.xi, trials=3, seed=1)
    assert v.ok and v.failing is None and v.checks == 3


def test_verify_absorbing_property_finds_isolated_failure():
    G = complete_blowup(K3, 2).delete_edges(
        [(1, 0, p, a) for p in (2, 3) for a in range(2)]
    )
    empty = AbsorbingSet(R=(0, 0, 0, 0), xi=1.5, provenance={})
    v = verify_absorbing_property(G, empty, xi=1.5, trials=8, seed=0)
    assert not v.ok and v.checks == 1  # exhaustive scan hits (1,0) first
    assert v.failing[1] == 0b1


def test_verify_absorbing_property_xi_precondition():
    G = complete_blowup(K3, 2)
    empty = AbsorbingSet(R=(0, 0, 0, 0), xi=0.5, provenance={})
    with pytest.raises(ValueError, match="xi\\*n >= k"):
        verify_absorbing_property(G, empty, xi=0.5)


@pytest.mark.parametrize("trials", [0, -1])
def test_verify_absorbing_property_needs_a_trial(trials):
    # zero trials once passed with no check made: a "verified" that checked nothing
    G = complete_blowup(K3, 6)
    empty = AbsorbingSet(R=(0, 0, 0, 0), xi=1.5, provenance={})
    with pytest.raises(ValueError, match="trials >= 1"):
        verify_absorbing_property(G, empty, xi=1.5, trials=trials)


def test_verify_absorbing_property_vacuous_when_nothing_outside():
    G = complete_blowup(K3, 2)
    everything = AbsorbingSet(R=(0, 0b11, 0b11, 0b11), xi=1.5, provenance={})
    v = verify_absorbing_property(G, everything, xi=1.5, trials=4, seed=0)
    assert v.ok and v.checks == 0


# -- absorbing verification against the full-search oracle ------------------------


CHECK7_PARAMS = {
    "complete": AbsorbParams(
        q=1 / 30, tau=3.0, beta_prime=0.003, m=1, beta_m=1, seed=7, connector_t=1
    ),
    "dense": AbsorbParams(
        q=0.1, tau=3.0, beta_prime=0.003, m=1, beta_m=1, seed=7, connector_t=1
    ),
}


@pytest.fixture(scope="module")
def check7_sets():
    """Check 7's two instances at n=60 with the absorbing sets built on them."""
    Ga = complete_blowup(K3, 60)
    Gb, rep = hole_suppressed_process(K3, 60, 2, 2, seed=3)
    assert rep["certified"]
    return [
        (Ga, build_absorbing_set(Ga, CHECK7_PARAMS["complete"])),
        (Gb, build_absorbing_set(Gb, CHECK7_PARAMS["dense"])),
    ]


def _verdict(v):
    return v.ok, v.failing, v.checks


def _r_masks(r: int) -> list[int]:
    """The lowest r vertices of each K3 part."""
    return [0] + [(1 << r) - 1] * 3


def _set_of(masks) -> AbsorbingSet:
    return AbsorbingSet(R=tuple(masks), xi=0.0, provenance={})


@pytest.mark.parametrize("which", [0, 1])
def test_verify_matches_full_search_oracle_on_check7_sets(check7_sets, which):
    G, R = check7_sets[which]
    for kwargs in (
        {"trials": 100, "seed": 11, "exhaustive_limit": 0},
        {"trials": 1, "seed": 11, "exhaustive_limit": 1000},
    ):
        v = verify_absorbing_property(G, R, R.xi, **kwargs)
        assert v.ok
        assert _verdict(v) == naive_verify_absorbing_property(G, R, R.xi, **kwargs)


def test_verify_matches_full_search_oracle_on_complete_n90():
    G = complete_blowup(K3, 90)
    R = build_absorbing_set(G, pipeline_params())
    for limit in (0, 256):
        v = verify_absorbing_property(G, R, R.xi, trials=20, seed=1, exhaustive_limit=limit)
        oracle = naive_verify_absorbing_property(
            G, R, R.xi, trials=20, seed=1, exhaustive_limit=limit
        )
        assert v.ok and _verdict(v) == oracle


@pytest.mark.parametrize("p, seed", [(0.95, 0), (0.85, 1), (0.75, 0)])
def test_verify_matches_full_search_oracle_on_random_dense_n60(p, seed):
    G = random_spanning_subgraph(complete_blowup(K3, 60), p, seed)
    R = build_absorbing_set(G, CHECK7_PARAMS["dense"])
    for limit in (0, 256):
        v = verify_absorbing_property(G, R, R.xi, trials=30, seed=11, exhaustive_limit=limit)
        oracle = naive_verify_absorbing_property(
            G, R, R.xi, trials=30, seed=11, exhaustive_limit=limit
        )
        assert _verdict(v) == oracle


def test_verify_matches_full_search_oracle_on_small_random_graphs():
    # R is the lowest r vertices of each part; xi=1.5 allows U of up to
    # 3 vertices per part, so the sampled regime mixes sizes
    verdicts = []
    for seed in range(12):
        G = random_instance(K3, 6, 0.5 + 0.04 * seed, seed)
        for r in range(4):
            R = _set_of(_r_masks(r))
            for xi, limit in ((1.5, 0), (0.5, 256)):
                v = verify_absorbing_property(
                    G, R, xi, trials=12, seed=seed, exhaustive_limit=limit
                )
                assert _verdict(v) == naive_verify_absorbing_property(
                    G, R, xi, trials=12, seed=seed, exhaustive_limit=limit
                )
                verdicts.append(v.ok)
    assert any(verdicts) and not all(verdicts)


def _steps_instance(p: float, r: int):
    G = random_instance(K3, 4, p, 1)
    r_masks = _r_masks(r)
    r_factor = _factor_witness(G, r_masks)
    assert naive_is_factor(G, r_factor, r_masks)
    return G, r_masks, r_factor


@pytest.mark.parametrize(
    "p, r, pick, step",
    [
        (0.5, 1, (1, 1, 3), 1),  # U is itself a copy
        (0.5, 1, (1, 3, 3), 2),  # U and one copy of the G[R] factor re-tile
        (0.6, 2, (3, 3, 3), 3),  # only a fresh search on R u U factors it
    ],
)
def test_absorb_factor_steps_give_checkable_witnesses(p, r, pick, step):
    G, r_masks, r_factor = _steps_instance(p, r)
    u_masks = [0, *(1 << v for v in pick)]
    got, copies = _absorb_factor(G, r_masks, r_factor, u_masks)
    assert got == step
    assert naive_is_factor(G, copies, [a | b for a, b in zip(r_masks, u_masks)])
    if step < 3:
        # step 1 keeps every copy of the G[R] factor, step 2 all but one
        assert len(set(copies) & set(r_factor)) == len(r_factor) - (step - 1)


def test_absorb_factor_failure_is_the_full_search_verdict():
    G, r_masks, r_factor = _steps_instance(0.5, 1)
    assert _absorb_factor(G, r_masks, r_factor, [0, 0b10, 0b10, 0b10]) == (3, None)
    # the verifier's exhaustive scan meets this U first
    R = _set_of(r_masks)
    v = verify_absorbing_property(G, R, xi=0.75)
    assert not v.ok and v.checks == 1
    assert v.failing == (0, 0b10, 0b10, 0b10)
    assert _verdict(v) == naive_verify_absorbing_property(G, R, xi=0.75)


def test_exhaustive_check7_verify_searches_one_large_instance(check7_sets, monkeypatch):
    # work guard: besides the one search of G[R], every check factors at
    # most two vertices per part
    G, R = check7_sets[0]
    sizes = []
    search = absorbing.exact_transversal_factor_search

    def counted(G, cap=None, masks=None):
        sizes.append(max(m.bit_count() for m in masks[1:]))
        return search(G, cap=cap, masks=masks)

    monkeypatch.setattr(absorbing, "exact_transversal_factor_search", counted)
    v = verify_absorbing_property(G, R, R.xi, trials=1, seed=11, exhaustive_limit=1000)
    assert v.ok and v.checks == 125
    assert [s for s in sizes if s > 2] == [R.size_per_part()]


def test_absorbing_set_json_shape():
    G = complete_blowup(K3, 90)
    out = build_absorbing_set(G, pipeline_params())
    data = out.to_json_dict()
    assert set(data) == {"xi", "r", "provenance"}
    assert sorted(data["r"]) == ["1", "2", "3"]
    assert data["r"]["1"] == list(bits(out.R[1]))
