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

from conftest import random_instance
from transtile.core import (
    Pattern,
    PartiteGraph,
    VertexId,
    VertexSetFamily,
    bits,
    common_neighborhood,
)
from transtile.generators import complete_blowup
from transtile.absorbing import (
    _connector_t2_construct,
    Absorber,
    AbsorbingSet,
    AbsorbParams,
    Connector,
    Fan,
    Template,
    build_absorbing_set,
    disjoint_absorbers,
    find_absorber,
    find_connector,
    find_fan,
    generate_template,
    is_reachable,
    verify_absorbing_property,
    verify_template,
)

K3 = Pattern.complete(3)


# -- oracles -------------------------------------------------------------------


def max_fan_size_k3(G: PartiteGraph, v: VertexId) -> int:
    """Maximum fan at v for k=3: a fan set is an edge between v's two
    neighborhoods, so the best fan is a maximum matching between them."""
    a_pool = list(bits(G.nbr_mask(v.part, v.idx, 2)))
    b_pool = list(bits(G.nbr_mask(v.part, v.idx, 3)))
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
    copy with each endpoint?  Full product scan."""
    wset = {VertexId(*w) for w in W}
    pools = []
    for p in range(1, G.k + 1):
        if p == u.part:
            continue
        cands = [
            VertexId(p, i)
            for i in bits(common_neighborhood(G, (u, v), p))
            if VertexId(p, i) not in wset
        ]
        pools.append(cands)
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


def test_fan_on_complete_blowup_reaches_part_size():
    G = complete_blowup(K3, 4)
    fan = find_fan(G, VertexId(1, 0), 10)
    assert fan.size == 4
    fan.validate(G)


def test_fan_target_size_truncates():
    G = complete_blowup(K3, 4)
    assert find_fan(G, VertexId(1, 0), 2).size == 2


def test_fan_accepts_a_plain_tuple_vertex():
    fan = find_fan(complete_blowup(K3, 3), (1, 0), 2)
    assert fan.at == VertexId(1, 0)
    assert fan.size == 2


def test_fan_at_isolated_vertex_is_empty():
    G = complete_blowup(K3, 3).delete_edges(
        [(1, 0, p, a) for p in (2, 3) for a in range(3)]
    )
    assert find_fan(G, VertexId(1, 0), 5).sets == ()


def test_fan_rejects_a_vertex_outside_the_graph():
    G = complete_blowup(K3, 3)
    with pytest.raises(ValueError, match=r"vertex \(1, 3\) is not in G"):
        find_fan(G, VertexId(1, 3), 2)


def test_fan_requires_complete_pattern():
    G = complete_blowup(Pattern.cycle(4), 3)
    with pytest.raises(ValueError, match="complete pattern"):
        find_fan(G, VertexId(1, 0), 2)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 200))
def test_fan_greedy_within_matching_bounds(seed):
    # greedy is maximal, which pins it between max/2 and max
    G = random_instance(K3, 5, 0.55, seed)
    v = VertexId(1, 0)
    greedy = find_fan(G, v, 99)
    greedy.validate(G)
    best = max_fan_size_k3(G, v)
    assert greedy.size <= best <= 2 * greedy.size


def test_fan_greedy_hits_maximum_on_pinned_seed():
    G = random_instance(K3, 5, 0.55, 1)
    assert find_fan(G, VertexId(1, 0), 99).size == max_fan_size_k3(G, VertexId(1, 0)) == 3


def test_fan_greedy_can_fall_short_of_maximum():
    G = random_instance(K3, 5, 0.55, 6)
    assert find_fan(G, VertexId(1, 0), 99).size == 2
    assert max_fan_size_k3(G, VertexId(1, 0)) == 3


def test_fan_validate_rejects_overlapping_sets():
    G = complete_blowup(K3, 3)
    s = (VertexId(2, 0), VertexId(3, 0))
    with pytest.raises(ValueError, match="not disjoint"):
        Fan(at=VertexId(1, 0), sets=(s, s)).validate(G)


# -- connectors ----------------------------------------------------------------


def test_small_connector_on_complete_blowup():
    G = complete_blowup(K3, 3)
    c = find_connector(G, (1, 0), (1, 1), t=1)
    assert c.t == 1 and len(c.verts) == 2
    assert len(c.witness_u) == len(c.witness_v) == 1
    c.validate(G)


def test_small_connector_respects_forbidden_set():
    G = complete_blowup(K3, 2)
    blocked = find_connector(G, (1, 0), (1, 1), [(2, 0), (2, 1)], t=1)
    assert blocked is None
    c = find_connector(G, (1, 0), (1, 1), [(2, 0)], t=1)
    assert VertexId(2, 1) in c.verts


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 300))
def test_small_connector_absence_matches_enumeration(seed):
    G = random_instance(K3, 4, 0.5, seed)
    u, v = VertexId(1, 0), VertexId(1, 1)
    W = [(2, 0), (3, 3)]
    c = find_connector(G, u, v, W, t=1)
    assert (c is not None) == naive_small_connector_exists(G, u, v, W)
    if c is not None:
        c.validate(G)
        assert not {u, v} & set(c.verts)


def test_connector_drops_endpoints_from_forbidden():
    G = complete_blowup(K3, 3)
    with_eps = find_connector(G, (1, 0), (1, 1), [(1, 0), (1, 1)], t=1)
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
    assert c.t == 2 and len(c.verts) == 5
    assert sorted(c.verts) == [
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
    assert c.verts == (
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
    assert c.verts == (
        VertexId(1, 2), VertexId(2, 0), VertexId(2, 1), VertexId(3, 1), VertexId(3, 2)
    )
    assert [w.verts for w in c.witness_u] == [(0, 0, 1), (2, 1, 2)]
    assert [w.verts for w in c.witness_v] == [(1, 0, 2), (2, 1, 1)]
    c.validate(G)


@pytest.mark.parametrize(
    "W",
    [
        [(-1, 0), (-1, 1), (-1, 2)],  # part -1 would index the last mask slot
        [(0, 1)],
        [(4, 0)],
        [(2, -1)],
        [(2, 3)],
    ],
)
def test_connector_rejects_forbidden_vertices_outside_the_graph(W):
    G = complete_blowup(K3, 3)
    with pytest.raises(ValueError, match="is not in G"):
        find_connector(G, (1, 0), (1, 1), W=W, t=1)


@pytest.mark.parametrize("u, v", [((1, 0), (1, 3)), ((1, -1), (1, 0)), ((0, 0), (0, 1))])
def test_connector_and_reachability_reject_endpoints_outside_the_graph(u, v):
    G = complete_blowup(K3, 3)
    with pytest.raises(ValueError, match="is not in G"):
        find_connector(G, u, v, t=1)
    with pytest.raises(ValueError, match="is not in G"):
        is_reachable(G, u, v, m=1)


def test_exhaustive_connector_lists_the_apex_first():
    # the fallback instance above with parts 1 and 2 swapped: the
    # enumerated set keeps its apex-then-pairs order
    G = complete_blowup(K3, 4).delete_edges(
        [(2, 0, 3, 2), (2, 0, 3, 3), (2, 1, 3, 0), (2, 1, 3, 1),
         (1, 0, 3, 0), (1, 1, 3, 0)]
    )
    c = find_connector(G, (2, 0), (2, 1), t=2)
    assert c.verts == (
        VertexId(2, 2), VertexId(1, 0), VertexId(1, 1), VertexId(3, 1), VertexId(3, 2)
    )
    assert [w.verts for w in c.witness_u] == [(0, 0, 1), (1, 2, 2)]
    assert [w.verts for w in c.witness_v] == [(0, 1, 2), (1, 2, 1)]
    c.validate(G)


def test_connector_absence_for_cut_off_endpoint():
    # v has no part-2 neighbor at all, so no connector of either size
    # can exist; at n=4 the search is exhaustive and None is a proof
    G = complete_blowup(K3, 4).delete_edges([(1, 1, 2, a) for a in range(4)])
    assert find_connector(G, (1, 0), (1, 1), t=2) is None


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


# -- reachability --------------------------------------------------------------


def test_reachable_on_complete_blowup():
    G = complete_blowup(K3, 4)
    r = is_reachable(G, (1, 0), (1, 1), m=2, t=1, trials=8, seed=3)
    assert r.ok and r.witness is None and r.checks == 10


def test_reachability_fail_returns_defeating_set():
    # u keeps only two part-2 neighbors; forbidding exactly those
    # (the structured candidate) severs every small connector
    G = complete_blowup(K3, 4).delete_edges([(1, 0, 2, 2), (1, 0, 2, 3)])
    r = is_reachable(G, (1, 0), (1, 1), m=2, t=1, trials=4, seed=0)
    assert not r.ok and r.checks == 1
    assert r.witness == (VertexId(2, 0), VertexId(2, 1))
    assert find_connector(G, (1, 0), (1, 1), r.witness, t=1) is None


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 150))
def test_reachability_consistent_with_exhaustive_forbidden_scan(seed):
    G = random_instance(K3, 3, 0.7, seed)
    u, v = VertexId(1, 0), VertexId(1, 1)
    rest = [x for x in G.vertices() if x not in (u, v)]
    truth = all(
        naive_small_connector_exists(G, u, v, W)
        for W in combinations(rest, 2)
    )
    r = is_reachable(G, u, v, m=2, t=1, trials=30, seed=seed)
    if truth:
        assert r.ok
    if not r.ok:
        assert not truth
        assert not naive_small_connector_exists(G, u, v, r.witness)


def test_reachability_argument_validation():
    G = complete_blowup(K3, 3)
    with pytest.raises(ValueError, match="same-part"):
        is_reachable(G, (1, 0), (2, 0), m=1)


# -- absorbers -----------------------------------------------------------------


def test_absorber_on_complete_blowup():
    G = complete_blowup(K3, 6)
    a = find_absorber(G, [(1, 0), (2, 0), (3, 0)], connector_t=1)
    assert a is not None and a.t == 6 and len(a.verts) == 9
    assert not set(a.target) & set(a.verts)
    a.validate(G)


def test_absorber_connector_t2_stays_balanced_on_rich_instance():
    # every pair admits a small connector, so the union keeps k
    # vertices per part even under the larger connector budget
    G = complete_blowup(K3, 6)
    a = find_absorber(G, [(1, 0), (2, 0), (3, 0)], connector_t=2)
    assert a is not None and len(a.verts) == 9
    per_part = [sum(1 for x in a.verts if x.part == p) for p in (1, 2, 3)]
    assert per_part == [3, 3, 3]


def test_absorber_respects_forbidden_set():
    G = complete_blowup(K3, 6)
    keep_out = [(p, i) for p in (1, 2, 3) for i in (1, 2)]
    a = find_absorber(G, [(1, 0), (2, 0), (3, 0)], forbidden=keep_out, connector_t=1)
    assert a is not None
    assert not set(a.verts) & {VertexId(p, i) for p, i in keep_out}


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
    with pytest.raises(ValueError, match=r"vertex \(-1, 0\) is not in G"):
        find_absorber(G, [(1, 0), (2, 0), (3, 0)], forbidden=[(-1, 0)])
    with pytest.raises(ValueError, match=r"vertex \(1, 7\) is not in G"):
        disjoint_absorbers(G, [(1, 7), (2, 0), (3, 0)], 2)


def test_absorber_rejects_a_repeated_target_vertex():
    G = complete_blowup(K3, 4)
    with pytest.raises(ValueError, match="one vertex in each part"):
        find_absorber(G, [(1, 0), (1, 0), (2, 0), (3, 0)])


def test_absorber_forbidden_everything_is_none():
    G = complete_blowup(K3, 4)
    everything = [(p, i) for p in (1, 2, 3) for i in range(4)]
    assert find_absorber(G, [(1, 0), (2, 0), (3, 0)], forbidden=everything) is None


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100))
def test_absorber_witnesses_revalidate_on_random_instances(seed):
    G = random_instance(K3, 5, 0.8, seed)
    a = find_absorber(G, [(1, 0), (2, 0), (3, 0)], connector_t=1)
    if a is not None:
        a.validate(G)
        assert len(a.verts) <= 3 * a.t


def test_disjoint_absorber_family_fills_the_instance():
    G = complete_blowup(K3, 12)
    fam = disjoint_absorbers(G, [(1, 0), (2, 0), (3, 0)], 99, connector_t=1)
    assert len(fam) == 3  # (n - |S|) // (per-part absorber size)
    seen: set[VertexId] = set()
    for a in fam:
        a.validate(G)
        assert not seen & set(a.verts)
        seen.update(a.verts)


def test_disjoint_absorbers_stop_at_count_target():
    G = complete_blowup(K3, 12)
    assert len(disjoint_absorbers(G, [(1, 0), (2, 0), (3, 0)], 2, connector_t=1)) == 2


def test_disjoint_absorbers_on_empty_graph():
    G = PartiteGraph.from_edges(K3, 4, [])
    assert disjoint_absorbers(G, [(1, 0), (2, 0), (3, 0)], 5) == []


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


def test_template_degree_cap_one_is_unsatisfiable():
    # six right vertices at degree one cannot cover seven left vertices
    assert generate_template(2, 1, max_tries=60, seed=0, max_degree=1) is None


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
        generate_template(21, 0, max_tries=1)
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
        assert set(prov["x"][i]) <= set(out.R.subset(i + 1))
        assert set(prov["y"][i]) <= set(out.R.subset(i + 1))
    fixed = {
        (p, v)
        for p in range(1, 4)
        for v in prov["x"][p - 1] + prov["y"][p - 1]
    }
    for key, block in prov["z"].items():
        i = int(key.split(",")[0])
        fixed |= {(i, v) for v in block}
        assert set(block) <= set(out.R.subset(i))
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
    empty = AbsorbingSet(
        R=VertexSetFamily.of({1: [], 2: [], 3: []}), xi=1.5, provenance={}
    )
    v = verify_absorbing_property(G, empty, xi=1.5, trials=8, seed=0)
    assert not v.ok and v.checks == 1  # exhaustive scan hits (1,0) first
    assert v.failing.subset(1) == {0}


def test_verify_absorbing_property_xi_precondition():
    G = complete_blowup(K3, 2)
    empty = AbsorbingSet(
        R=VertexSetFamily.of({1: [], 2: [], 3: []}), xi=0.5, provenance={}
    )
    with pytest.raises(ValueError, match="xi\\*n >= k"):
        verify_absorbing_property(G, empty, xi=0.5)


def test_verify_absorbing_property_vacuous_when_nothing_outside():
    G = complete_blowup(K3, 2)
    everything = AbsorbingSet(
        R=VertexSetFamily.of({p: range(2) for p in (1, 2, 3)}), xi=1.5, provenance={}
    )
    v = verify_absorbing_property(G, everything, xi=1.5, trials=4, seed=0)
    assert v.ok and v.checks == 0


def test_absorbing_set_json_shape():
    G = complete_blowup(K3, 90)
    out = build_absorbing_set(G, pipeline_params())
    data = out.to_json_dict()
    assert set(data) == {"xi", "r", "provenance"}
    assert sorted(data["r"]) == ["1", "2", "3"]
    assert data["r"]["1"] == sorted(out.R.subset(1))
