import json
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_delta_star, random_instance
from transtile.core import (
    Pattern,
    PartiteGraph,
    delta_star,
    is_transversal_tuple,
    part_masks,
)


# -- patterns ---------------------------------------------------------------


def test_pattern_constructors():
    K3 = Pattern.complete(3)
    assert K3.is_complete
    assert K3.edges == frozenset({(1, 2), (1, 3), (2, 3)})
    C4 = Pattern.cycle(4)
    assert C4.is_cycle and not C4.is_complete
    assert C4.edges == frozenset({(1, 2), (2, 3), (3, 4), (1, 4)})
    # K_3 is simultaneously C_3
    assert Pattern.complete(3).is_cycle


def test_pattern_validation():
    with pytest.raises(ValueError):
        Pattern(1, [])
    with pytest.raises(ValueError):
        Pattern(3, [(1, 1)])
    with pytest.raises(ValueError):
        Pattern(3, [(1, 4)])
    with pytest.raises(ValueError):
        Pattern.cycle(2)


def test_pattern_constructors_share_one_pattern_per_k():
    for k in (3, 4, 5):
        assert Pattern.cycle(k) is Pattern.cycle(k)
        assert Pattern.complete(k) is Pattern.complete(k)
        assert Pattern.from_json_dict({"kind": "cycle", "k": k}) is Pattern.cycle(k)
        assert Pattern.from_json_dict({"kind": "complete", "k": k}) is Pattern.complete(k)
        for cached in (Pattern.cycle(k), Pattern.complete(k)):
            built = Pattern(k, cached.edge_list())
            assert built is not cached
            assert built == cached and hash(built) == hash(cached)
    # a call that raises is not cached, so it raises every time
    for _ in range(2):
        with pytest.raises(ValueError, match="k >= 3"):
            Pattern.cycle(2)


def test_pattern_shape_flags_match_their_definitions():
    # every edge set on k <= 5 parts: complete is every pair, and a cycle
    # is exactly the ring 1 - 2 - ... - k - 1 on k >= 3 parts
    for k in range(2, 6):
        pairs = list(combinations(range(1, k + 1), 2))
        ring = {(min(i, i % k + 1), max(i, i % k + 1)) for i in range(1, k + 1)}
        for take in product((False, True), repeat=len(pairs)):
            edges = {e for e, t in zip(pairs, take) if t}
            P = Pattern(k, edges)
            assert P.is_complete == (len(edges) == len(pairs)), (k, edges)
            assert P.is_cycle == (k >= 3 and edges == ring), (k, edges)


def test_clique_part_tuples():
    assert Pattern.cycle(4).clique_part_tuples(2) == ((1, 2), (1, 4), (2, 3), (3, 4))
    assert Pattern.cycle(4).clique_part_tuples(3) == ()
    assert Pattern.complete(4).clique_part_tuples(3) == (
        (1, 2, 3),
        (1, 2, 4),
        (1, 3, 4),
        (2, 3, 4),
    )


# -- construction and basic queries ------------------------------------------


def test_complete_blowup_counts():
    G = PartiteGraph.complete(Pattern.complete(3), 2)
    assert len(list(G.iter_edges())) == 12
    assert delta_star(G) == 2
    H = PartiteGraph.complete(Pattern.cycle(4), 2)
    assert len(list(H.iter_edges())) == 16
    assert delta_star(H) == 2


def test_from_edges_validation():
    K2 = Pattern.complete(2)
    with pytest.raises(ValueError, match="non-adjacent"):
        PartiteGraph.from_edges(Pattern.cycle(4), 2, [(1, 0, 3, 0)])
    with pytest.raises(ValueError, match="out of range"):
        PartiteGraph.from_edges(K2, 2, [(1, 0, 2, 5)])
    with pytest.raises(ValueError, match="twice"):
        PartiteGraph.from_edges(K2, 2, [(1, 0, 2, 1), (2, 1, 1, 0)])


def test_delta_star_examples():
    G = PartiteGraph.complete(Pattern.complete(3), 4)
    assert delta_star(G) == 4
    assert delta_star(G.delete_edges([(1, 0, 2, 0)])) == 3
    assert delta_star(PartiteGraph.complete(Pattern.cycle(4), 2)) == 2


def test_delta_star_empty_pattern():
    G = PartiteGraph(Pattern(2, []), 3, {})
    with pytest.raises(ValueError, match="empty pattern"):
        delta_star(G)


def test_nonadjacent_read_is_empty():
    G = PartiteGraph.complete(Pattern.cycle(4), 2)
    assert G.nbr_mask(1, 0, 3) == 0
    assert not G.has_edge((1, 0), (3, 0))


# -- transversal copies -------------------------------------------------------


def test_is_transversal_copy_complete():
    G = PartiteGraph.complete(Pattern.complete(3), 2)
    assert is_transversal_tuple(G, [0, 1, 0])


def test_is_transversal_copy_missing_edge():
    G = PartiteGraph.complete(Pattern.cycle(4), 2).delete_edges([(1, 0, 2, 0)])
    assert not is_transversal_tuple(G, [0, 0, 0, 0])
    assert is_transversal_tuple(G, [1, 0, 0, 0])


def test_is_transversal_copy_malformed():
    G = PartiteGraph.complete(Pattern.complete(3), 2)
    assert not is_transversal_tuple(G, [0, 0])     # too short
    assert not is_transversal_tuple(G, [0, 0, 9])  # bad index


def test_transversal_copies_complete_small():
    # in a complete blow-up every one-per-part tuple is a copy
    for k in (2, 3):
        G = PartiteGraph.complete(Pattern.complete(k), 3)
        from itertools import product

        for tup in product(range(3), repeat=k):
            assert is_transversal_tuple(G, tup)


# -- per-part masks ---------------------------------------------------------------


def test_part_masks_checks_slots_and_bits():
    G = PartiteGraph.complete(Pattern.complete(2), 4)
    assert part_masks(G, [7, 0b11, 0b1000], "m") == (0, 0b11, 0b1000)
    assert part_masks(G, (0, 0, 0), "m") == (0, 0, 0)
    for bad in ([0, 0b1], [0, 0b1, 0b1, 0b1], [0, 0b1, 1 << 4], [0, -1, 0b1]):
        with pytest.raises(ValueError, match=r"m need slots 1\.\.2 with bits below n=4"):
            part_masks(G, bad, "m")


# -- serialization ---------------------------------------------------------------


def test_round_trip_bit_exact(tmp_path):
    G = random_instance(Pattern.cycle(4), 5, 0.4, seed=99)
    path = tmp_path / "g.json"
    G.save(path)
    H = PartiteGraph.load(path)
    assert H == G
    # byte-identical re-serialization
    H.save(tmp_path / "h.json")
    assert (tmp_path / "g.json").read_bytes() == (tmp_path / "h.json").read_bytes()


def test_load_validates():
    K2 = Pattern.complete(2)
    data = PartiteGraph.complete(K2, 2).to_json_dict()
    data["format"] = "nope"
    with pytest.raises(ValueError, match="format"):
        PartiteGraph.from_json_dict(data)
    data = PartiteGraph.complete(K2, 2).to_json_dict()
    data["edges"].append([1, 0, 2, 0])
    with pytest.raises(ValueError, match="twice"):
        PartiteGraph.from_json_dict(data)


def test_json_fields():
    G = PartiteGraph.complete(Pattern.complete(2), 1)
    d = G.to_json_dict()
    assert d == {
        "format": "ptg-v1",
        "k": 2,
        "n": 1,
        "pattern_edges": [[1, 2]],
        "edges": [[1, 0, 2, 0]],
    }
    json.dumps(d)


# -- induced subgraphs -------------------------------------------------------------


def test_induced_subgraph():
    G = PartiteGraph.complete(Pattern.complete(3), 4).delete_edges([(1, 1, 2, 2)])
    H, maps = G.induced([0, 0b0110, 0b1100, 0b0011])
    assert H.n == 2
    assert maps[1] == (1, 2) and maps[2] == (2, 3) and maps[3] == (0, 1)
    # (1,1)-(2,2) was deleted; those map to new indices (1,0) and (2,0)
    assert not H.has_edge((1, 0), (2, 0))
    assert H.has_edge((1, 0), (2, 1))
    with pytest.raises(ValueError, match="unbalanced"):
        G.induced([0, 0b1, 0b11, 0b1])


# -- hypothesis properties -----------------------------------------------------------


@st.composite
def small_instance(draw):
    k = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(["K", "C"])) if k >= 3 else "K"
    pattern = Pattern.complete(k) if kind == "K" else Pattern.cycle(k)
    n = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 10**9))
    p = draw(st.sampled_from([0.2, 0.5, 0.8, 1.0]))
    return random_instance(pattern, n, p, seed)


@settings(max_examples=40, deadline=None)
@given(small_instance())
def test_delta_star_matches_naive_scan(G):
    assert delta_star(G) == naive_delta_star(G)


@settings(max_examples=30, deadline=None)
@given(small_instance(), st.integers(0, 10**9))
def test_delta_star_monotone_under_deletion(G, seed):
    import random as _r

    rng = _r.Random(seed)
    edges = list(G.iter_edges())
    if not edges:
        return
    drop = rng.sample(edges, 1 + rng.randrange(len(edges)))
    assert delta_star(G.delete_edges(drop)) <= delta_star(G)
