import hashlib
import json
import re
from itertools import combinations, product

import pytest

from conftest import (
    naive_alpha_star,
    naive_has_transversal_tuple,
    naive_random_spanning_subgraph,
    random_instance,
)
from transtile.core import Pattern, PartiteGraph, bits, delta_star, is_transversal_tuple
from transtile.generators import (
    GenSpec,
    complete_blowup,
    hole_suppressed_process,
    random_k_split,
    random_spanning_subgraph,
    read_edge_list,
    rng_for,
    sample_balanced_partition,
    space_barrier,
    subseed,
)
from transtile.holes import alpha_star_exact
from transtile.tiling import cover_refutes_factor


# -- complete blow-ups ---------------------------------------------------------


def test_complete_blowup_counts():
    G = complete_blowup(Pattern.complete(3), 2)
    assert len(list(G.iter_edges())) == 12 and delta_star(G) == 2
    H = complete_blowup(Pattern.cycle(4), 3)
    assert len(list(H.iter_edges())) == 36 and delta_star(H) == 3
    single = complete_blowup(Pattern.complete(4), 1)
    assert len(list(single.iter_edges())) == 6
    assert is_transversal_tuple(single, [0, 0, 0, 0])


# -- random subgraphs -----------------------------------------------------------


def test_random_subgraph_extremes():
    G = complete_blowup(Pattern.complete(3), 4)
    assert random_spanning_subgraph(G, 1.0, seed=5) == G
    assert len(list(random_spanning_subgraph(G, 0.0, seed=5).iter_edges())) == 0
    with pytest.raises(ValueError, match="outside"):
        random_spanning_subgraph(G, 1.5, seed=5)


def test_random_subgraph_deterministic():
    G = complete_blowup(Pattern.cycle(5), 6)
    a = random_spanning_subgraph(G, 0.5, seed=123)
    b = random_spanning_subgraph(G, 0.5, seed=123)
    assert a == b
    assert a != random_spanning_subgraph(G, 0.5, seed=124)
    # frozen count for the pinned sub-stream rule (seed, "pair", i, j)
    assert len(list(a.iter_edges())) == 77


@pytest.mark.parametrize(
    "pattern", [Pattern.complete(3), Pattern.cycle(4), Pattern.complete(4)]
)
@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
def test_random_subgraph_matches_from_edges_construction(pattern, p):
    # a complete host and a sparse one, whose rows skip absent edges
    for seed in range(4):
        for host in (complete_blowup(pattern, 6), random_instance(pattern, 6, 0.6, seed)):
            got = random_spanning_subgraph(host, p, seed)
            assert got._adj == naive_random_spanning_subgraph(host, p, seed)._adj


def graph_bytes(G):
    """The graph's JSON plus its rows in both orientations, so a backward
    row that disagrees with its forward row moves a digest too."""
    return [G.to_json_dict(), sorted([list(key), list(rows)] for key, rows in G._adj.items())]


# SHA-256 of `graph_bytes` over the golden threshold sweep's 220 hosts
# (K3, n=12, p = 0.5..1.0, 20 seeds each, config seed 2024), then p = 0,
# 0.5 and 1 on a sparse C5 host, whose rows are not full, and on the
# complete K4 blow-up
RANDOM_SUBGRAPH_SHA = "c27f643eeec464fcaf6dfdf6387ac8ec0384028cf0bfcdf2cf2afdab6b17a169"


def test_random_subgraph_pins_its_bytes():
    K3 = Pattern.complete(3)
    grid = [round(0.5 + 0.05 * i, 2) for i in range(11)]
    rows = []
    for index, p in enumerate(p for p in grid for _ in range(20)):
        host = complete_blowup(K3, 12)
        rows.append(graph_bytes(random_spanning_subgraph(host, p, subseed(2024, "instance", index))))
    for host in (random_instance(Pattern.cycle(5), 9, 0.6, 3), complete_blowup(Pattern.complete(4), 6)):
        for p in (0.0, 0.5, 1.0):
            rows.append(graph_bytes(random_spanning_subgraph(host, p, 7)))
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == RANDOM_SUBGRAPH_SHA


def test_subseed_stability():
    assert subseed(0, "pair", 1, 2) != subseed(0, "pair", 2, 1)
    assert subseed(7, "order") == subseed(7, "order")


# -- hole-suppressed process ------------------------------------------------------


def test_hole_suppressed_trivial_s1():
    # killing size-1 holes means every cross pair of vertices with a
    # pattern edge between their parts spans an edge: the complete blow-up
    G, report = hole_suppressed_process(Pattern.complete(2), 3, r=2, s=1, seed=4)
    assert report["certified"] and "regime" not in report
    assert len(list(G.iter_edges())) == 9


def test_hole_suppressed_certified_small():
    G, report = hole_suppressed_process(Pattern.complete(3), 5, r=2, s=2, seed=9)
    assert report["certified"]
    assert alpha_star_exact(G, 2).alpha < 2
    assert 0 < report["edges_added"] <= 75


def test_hole_suppressed_budget_exhaustion():
    G, report = hole_suppressed_process(
        Pattern.complete(2), 5, r=2, s=1, seed=2, budget=3
    )
    assert report["edges_added"] == 3
    assert not report["certified"]


def test_hole_suppressed_validation():
    with pytest.raises(ValueError, match="out of range"):
        hole_suppressed_process(Pattern.complete(2), 3, r=2, s=0, seed=0)


def test_negative_generator_budget_is_rejected():
    # both once ran: the process clamped -3 to 0 edges and reported
    # certified False, and the barrier tried no candidate
    with pytest.raises(ValueError, match="budget must be >= 0, got -3"):
        hole_suppressed_process(Pattern.complete(3), 4, 2, 2, seed=0, budget=-3)
    with pytest.raises(ValueError, match="budget must be >= 0, got -1"):
        space_barrier(Pattern.cycle(4), 8, budget=-1)


def test_hole_suppressed_deterministic():
    a, ra = hole_suppressed_process(Pattern.complete(3), 4, r=2, s=2, seed=31)
    b, rb = hole_suppressed_process(Pattern.complete(3), 4, r=2, s=2, seed=31)
    assert a == b and ra == rb


def linear_hole_suppressed(pattern, n, r, s, seed, budget=None):
    """Reference process: add the seeded edge order one edge at a time and
    stop at the first prefix whose exact hole number is below s."""
    order = [(i, a, j, b) for i, j in sorted(pattern.edges) for a in range(n) for b in range(n)]
    rng_for(seed, "order").shuffle(order)
    if budget is not None:
        order = order[:budget]
    G = PartiteGraph.from_edges(pattern, n, [])
    for t in range(len(order) + 1):
        if t:
            G = G.add_edges([order[t - 1]])
        if alpha_star_exact(G, r).alpha < s:
            return G, t, True
    return G, len(order), False


@pytest.mark.parametrize("seed", range(16))
def test_hole_suppressed_matches_linear_scan(seed):
    pattern = (Pattern.complete(3), Pattern.complete(4), Pattern.cycle(4), Pattern.cycle(5))[
        seed % 4
    ]
    n = 3 + seed % 3
    for r in (2, 3):
        if not pattern.clique_part_tuples(r):
            continue
        for s in (1, 2, 3):
            G, t, certified = linear_hole_suppressed(pattern, n, r, s, seed)
            H, rep = hole_suppressed_process(pattern, n, r, s, seed=seed)
            assert (H, rep["edges_added"], rep["certified"]) == (G, t, certified)
            assert set(rep) == {"edges_added", "certified", "checks"}
            # a budget that stops short of the first hole-free prefix, and one past it
            for budget in {max(t - 1, 0), t // 2, t + 3}:
                G, t_b, certified = linear_hole_suppressed(pattern, n, r, s, seed, budget)
                H, rep = hole_suppressed_process(pattern, n, r, s, seed=seed, budget=budget)
                assert (H, rep["edges_added"], rep["certified"]) == (G, t_b, certified)


# -- space barrier ------------------------------------------------------------------


def exhaustive_transversal_cycles(G):
    k = G.k
    for tup in product(*[range(G.n) for _ in range(k)]):
        if all(G.has_edge((p, tup[p - 1]), (p % k + 1, tup[p % k])) for p in range(1, k + 1)):
            yield tup


def test_space_barrier_k4_n8():
    G, U, report = space_barrier(Pattern.cycle(4), 8, seed=17)
    assert report["u_size"] == 1
    assert delta_star(G) >= 1
    assert U == (0, 0b1, 0b1, 0b1, 0b1)
    # every transversal cycle must meet U (exhaustive check)
    for tup in exhaustive_transversal_cycles(G):
        assert any(U[p] >> tup[p - 1] & 1 for p in range(1, 5))


def test_space_barrier_every_cycle_hits_u_small():
    G, U, _ = space_barrier(Pattern.cycle(4), 8, seed=3)
    outside = [None] + [set(range(8)) - set(bits(U[p])) for p in range(1, 5)]
    for tup in product(*[sorted(outside[p]) for p in range(1, 5)]):
        ok = all(G.has_edge((p, tup[p - 1]), (p % 4 + 1, tup[p % 4])) for p in range(1, 5))
        assert not ok


def test_space_barrier_c5_cycles_all_meet_u():
    # no transversal C5 lies wholly outside U, by brute force over 9^5 tuples
    for seed in range(2):
        G, U, _ = space_barrier(Pattern.cycle(5), 10, seed=seed)
        parts = tuple(range(1, 6))
        outside = [list(bits(G.full_mask & ~U[p])) for p in parts]
        assert not naive_has_transversal_tuple(G, parts, outside), seed


def assert_barrier_maximal(k, n, seed):
    # the process rejects an edge only if it closes a transversal cycle
    # avoiding U, so every absent outside-outside edge must close one
    G, U, _ = space_barrier(Pattern.cycle(k), n, seed=seed)
    parts = tuple(range(1, k + 1))
    outside = {p: list(bits(G.full_mask & ~U[p])) for p in parts}
    absent = [
        (i, a, j, b)
        for i, j in sorted(G.pattern.edges)
        for a in outside[i]
        for b in outside[j]
        if not G.has_edge((i, a), (j, b))
    ]
    assert absent
    for i, a, j, b in absent:
        H = G.add_edges([(i, a, j, b)])
        sets = [[a] if p == i else [b] if p == j else outside[p] for p in parts]
        assert naive_has_transversal_tuple(H, parts, sets), (i, a, j, b)


@pytest.mark.parametrize("seed", range(4))
def test_space_barrier_is_maximal(seed):
    assert_barrier_maximal(4, 8, seed)


@pytest.mark.parametrize("seed", range(2))
def test_space_barrier_c5_is_maximal(seed):
    # C5's arc from the edge's far end round to its near end takes three
    # steps where C4's takes two
    assert_barrier_maximal(5, 10, seed)


# SHA-256 of `graph_bytes`, U and the report over the refute benchmark's
# 24 reference barriers (C4, n=8, config seed 1), then C4 n=16, C5 n=10,
# C6 n=12, a budget that stops among rejections, and hole targets that
# certify and that do not
SPACE_BARRIER_SHA = "3c63a0e65212533647a595024a282cf2ec47cb6d8ffaa9242a9744613e17b19c"


SPACE_BARRIER_CASES = [
    (Pattern.cycle(4), 8, {"seed": subseed(1, "instance", index)}) for index in range(24)
] + [
    (Pattern.cycle(4), 16, {"seed": 0}),
    (Pattern.cycle(5), 10, {"seed": 0}),
    (Pattern.cycle(6), 12, {"seed": 0}),
    (Pattern.cycle(4), 8, {"seed": 5, "budget": 120}),
    (Pattern.cycle(4), 8, {"seed": 29, "hole_target_s": 6}),
    (Pattern.cycle(4), 8, {"seed": 0, "hole_target_s": 4}),
    (Pattern.cycle(5), 10, {"seed": 1, "hole_target_s": 5}),
]


def test_space_barrier_pins_its_bytes():
    rows = []
    for pattern, n, kw in SPACE_BARRIER_CASES:
        G, U, report = space_barrier(pattern, n, **kw)
        rows.append([graph_bytes(G), list(U), report])
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == SPACE_BARRIER_SHA


# SHA-256 of the same rows over C7 n=14 and C8 n=16 at seeds 0-2, whose
# arcs take five and six steps, then a C7 budget that stops among
# rejections and a C8 hole target that certifies after rejections
SPACE_BARRIER_LONG_ARC_SHA = "214dfd1c655de1c7d836dbb11668c7037b09ad8134c016d65ce80b661d94fe55"


def test_space_barrier_pins_its_long_arc_bytes():
    cases = [(Pattern.cycle(k), 2 * k, {"seed": seed}) for k in (7, 8) for seed in range(3)]
    cases += [
        (Pattern.cycle(7), 14, {"seed": 0, "budget": 150}),
        (Pattern.cycle(8), 16, {"seed": 1, "hole_target_s": 10}),
    ]
    rows = []
    for pattern, n, kw in cases:
        G, U, report = space_barrier(pattern, n, **kw)
        rows.append([graph_bytes(G), list(U), report])
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == SPACE_BARRIER_LONG_ARC_SHA


@pytest.mark.parametrize("k, n", [(4, 8), (5, 10), (7, 14)])
def test_space_barrier_tries_the_budget_or_every_candidate(k, n):
    # each of the k pattern edges offers (n - n/k + 1)^2 outside pairs
    every = k * (n - n // k + 1) ** 2
    for budget in (0, 1, 10**6):
        _, _, report = space_barrier(Pattern.cycle(k), n, seed=2, budget=budget)
        assert report["candidates_tried"] == min(budget, every), budget


def test_every_space_barrier_cover_passes_its_check():
    # U is the certificate the lab's factor decision checks: every
    # variant's U must pass, the pinned ones and an empty budget alike
    cases = SPACE_BARRIER_CASES + [(Pattern.cycle(4), 8, {"seed": 5, "budget": 0})]
    for pattern, n, kw in cases:
        G, U, _ = space_barrier(pattern, n, **kw)
        assert cover_refutes_factor(G, U), (pattern.k, n, kw)


def test_only_space_barrier_specs_carry_a_cover():
    # the spec hands the generator's own graph and U over unchanged
    spec = GenSpec("space_barrier", Pattern.cycle(4), 8, seed=3, params={"hole_target_s": 6})
    G, U, _ = space_barrier(Pattern.cycle(4), 8, seed=3, hole_target_s=6)
    assert spec.build() == (G, U)
    K3 = Pattern.complete(3)
    for family, params in [
        ("complete", {}),
        ("random_subgraph", {"p": 0.5}),
        ("hole_suppressed", {"r": 2, "s": 2}),
        ("random_split", {"host_edges": [[0, 1], [1, 2]], "m": 6}),
    ]:
        assert GenSpec(family, K3, 2, seed=1, params=params).build()[1] is None, family


def test_space_barrier_validation():
    with pytest.raises(ValueError, match="not divisible"):
        space_barrier(Pattern.cycle(4), 9)
    with pytest.raises(ValueError, match="cycle pattern"):
        space_barrier(Pattern.complete(4), 8)
    with pytest.raises(ValueError, match="cycle pattern"):
        space_barrier(Pattern.cycle(3), 9)


def test_space_barrier_deterministic():
    a = space_barrier(Pattern.cycle(4), 8, seed=11)
    b = space_barrier(Pattern.cycle(4), 8, seed=11)
    assert a == b
    # the result's rows are frozen from the process's own; both
    # orientations must agree with a rebuild from its edge list
    rebuilt = PartiteGraph.from_edges(a[0].pattern, 8, a[0].iter_edges())
    assert rebuilt == a[0] and rebuilt.to_json_dict() == a[0].to_json_dict()


def test_space_barrier_certification_loop():
    G, U, report = space_barrier(Pattern.cycle(4), 8, seed=29, hole_target_s=6)
    assert report["certified"] is True
    assert "regime" not in report


@pytest.mark.parametrize("seed", range(3))
def test_space_barrier_hole_target_matches_linear_scan(seed):
    # the process after b candidates is space_barrier(..., budget=b); the
    # hole target must stop at the first b whose graph has no s-hole
    C4 = Pattern.cycle(4)
    full, _, untargeted = space_barrier(C4, 8, seed=seed)
    tried = untargeted["candidates_tried"]
    steps = [space_barrier(C4, 8, seed=seed, budget=b) for b in range(tried + 1)]
    for s in (4, 5, 6, 7):  # 4-holes survive every barrier here; 5 to 7 do not
        first = next(
            (b for b, (G, _, _) in enumerate(steps) if alpha_star_exact(G, 2).alpha < s), None
        )
        G, _, rep = space_barrier(C4, 8, seed=seed, hole_target_s=s)
        if first is None:
            assert G == full and rep["certified"] is False
            assert rep["candidates_tried"] == tried
            assert rep["edges_added"] == untargeted["edges_added"]
        else:
            assert G == steps[first][0] and rep["certified"] is True
            assert rep["candidates_tried"] == first
            assert rep["edges_added"] == steps[first][2]["edges_added"]


# -- random split ---------------------------------------------------------------------


def test_random_split_complete_host():
    # K_6 split into 2 parts of 3: exactly the 9 cross pairs survive
    host = list(combinations(range(6), 2))
    G = random_k_split(host, Pattern.complete(2), seed=8)
    assert G.n == 3 and len(list(G.iter_edges())) == 9


def test_random_split_empty_host():
    G = random_k_split([], Pattern.complete(2), seed=0, m=4)
    assert len(list(G.iter_edges())) == 0 and G.n == 2


def test_random_split_cycle_host_count():
    # 6-cycle host: cross-edge count re-derived from the sampled partition
    host = [(i, (i + 1) % 6) for i in range(6)]
    G = random_k_split(host, Pattern.complete(2), seed=21)
    blocks = sample_balanced_partition(6, 2, seed=21)
    part_of = {v: p for p in (1, 2) for v in blocks[p]}
    expected = sum(1 for u, v in host if part_of[u] != part_of[v])
    assert len(list(G.iter_edges())) == expected


def test_random_split_validation():
    with pytest.raises(ValueError, match="not divisible"):
        random_k_split([(0, 1)], Pattern.complete(2), seed=0, m=5)
    with pytest.raises(ValueError, match="loop"):
        random_k_split([(2, 2)], Pattern.complete(2), seed=0, m=4)
    with pytest.raises(ValueError, match="out of range"):
        random_k_split([(0, 9)], Pattern.complete(2), seed=0, m=4)


def test_random_split_rejects_a_negative_host_vertex():
    # once a bare KeyError: -1 from the partition lookup
    with pytest.raises(ValueError, match=r"^host vertex -1 out of range for m=6$"):
        random_k_split([(-1, 2), (0, 1)], Pattern.complete(3), 0, m=6)


def test_read_edge_list(tmp_path):
    f = tmp_path / "host.txt"
    f.write_text("0 1\n# comment\n2 3  # trailing\n\n1 2\n")
    assert read_edge_list(f) == [(0, 1), (2, 3), (1, 2)]
    f.write_text("0 1 2\n")
    with pytest.raises(ValueError, match="expected"):
        read_edge_list(f)
    f.write_text("0 1\n1 x\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(f))}:2: expected `u v`, got '1 x'$"):
        read_edge_list(f)


# -- GenSpec ---------------------------------------------------------------------------


def test_genspec_round_trip_and_determinism(tmp_path):
    spec = GenSpec(
        family="random_subgraph",
        pattern=Pattern.cycle(4),
        n=5,
        seed=77,
        params={"p": 0.6},
    )
    data = json.loads(json.dumps(spec.to_json_dict()))
    again = GenSpec.from_json_dict(data)
    assert again == spec
    g1, _ = spec.build()
    g2, _ = again.build()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    g1.save(p1)
    g2.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


# a wrong JSON type for every declared param of every family and, for
# integers, a non-integral number, plus values out of range; each was
# once accepted at construction and failed, or ran, only when built
BAD_GEN_PARAMS = [
    ("random_subgraph", Pattern.complete(2), {}, {"p": "x"}),
    ("random_subgraph", Pattern.complete(2), {}, {"p": "0.5"}),
    ("random_subgraph", Pattern.complete(2), {}, {"p": 1.5}),
    ("hole_suppressed", Pattern.complete(3), {"r": 2, "s": 2}, {"r": "2"}),
    ("hole_suppressed", Pattern.complete(3), {"r": 2, "s": 2}, {"r": 2.5}),
    ("hole_suppressed", Pattern.complete(3), {"r": 2, "s": 2}, {"r": 1}),
    ("hole_suppressed", Pattern.complete(3), {"r": 2, "s": 2}, {"s": "2"}),
    ("hole_suppressed", Pattern.complete(3), {"r": 2, "s": 2}, {"s": 2.5}),
    ("hole_suppressed", Pattern.complete(3), {"r": 2, "s": 2}, {"s": 0}),
    ("hole_suppressed", Pattern.complete(3), {"r": 2, "s": 2}, {"budget": "3"}),
    ("hole_suppressed", Pattern.complete(3), {"r": 2, "s": 2}, {"budget": 2.5}),
    # above the spec's n=4 and the pattern's k=3
    ("hole_suppressed", Pattern.complete(3), {"r": 2, "s": 2}, {"s": 5}),
    ("hole_suppressed", Pattern.complete(3), {"r": 2, "s": 2}, {"r": 4}),
    ("space_barrier", Pattern.cycle(4), {}, {"hole_target_s": "x"}),
    ("space_barrier", Pattern.cycle(4), {}, {"hole_target_s": 1.5}),
    ("space_barrier", Pattern.cycle(4), {}, {"hole_target_s": 0}),
    ("space_barrier", Pattern.cycle(4), {}, {"budget": "3"}),
    ("space_barrier", Pattern.cycle(4), {}, {"budget": 2.5}),
    ("random_split", Pattern.complete(2), {"host_edges": [[0, 1]]}, {"host_file": 5}),
    ("random_split", Pattern.complete(2), {}, {"host_edges": [[0, "1"]]}),
    ("random_split", Pattern.complete(2), {}, {"host_edges": [[0, 1.5]]}),
    ("random_split", Pattern.complete(2), {"host_edges": [[0, 1]]}, {"m": "4"}),
    ("random_split", Pattern.complete(2), {"host_edges": [[0, 1]]}, {"m": 4.5}),
    # a negative budget once loaded and clamped to 0 or tried nothing
    ("hole_suppressed", Pattern.complete(3), {"r": 2, "s": 2}, {"budget": -3}),
    ("space_barrier", Pattern.cycle(4), {}, {"budget": -1}),
]


def test_genspec_validation():
    with pytest.raises(ValueError, match="unknown family"):
        GenSpec(family="nope", pattern=Pattern.complete(2), n=2)
    with pytest.raises(ValueError, match="params.p"):
        GenSpec(family="random_subgraph", pattern=Pattern.complete(2), n=2)
    with pytest.raises(ValueError, match="params.r"):
        GenSpec(family="hole_suppressed", pattern=Pattern.complete(2), n=2)
    with pytest.raises(ValueError, match="host_file"):
        GenSpec(family="random_split", pattern=Pattern.complete(2), n=2)
    for family, pattern, base, bad in BAD_GEN_PARAMS:
        (key,) = bad
        with pytest.raises(ValueError, match=rf"gen\.params\.{key}\b"):
            GenSpec(family=family, pattern=pattern, n=4, params={**base, **bad})


def test_bad_gen_param_cases_cover_every_declared_param():
    from transtile.generators import FAMILIES

    covered = {(family, key) for family, _, _, bad in BAD_GEN_PARAMS for key in bad}
    declared = {(name, p.key) for name, (params, _) in FAMILIES.items() for p in params}
    assert covered == declared
