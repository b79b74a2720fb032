import hashlib
import json
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    naive_alpha_star,
    naive_has_transversal_tuple,
    random_instance,
    table_alpha_pair,
)
from transtile.core import Pattern, PartiteGraph, bits, mask_of
from transtile.generators import hole_suppressed_process
from transtile.holes import (
    HoleCertificate,
    _hole_finder,
    _pair_finder,
    alpha_star_exact,
    alpha_star_lower_bound,
    certify_no_hole,
    verify_hole,
)
from transtile.search import iter_copies


def empty_instance(pattern, n):
    return PartiteGraph.from_edges(pattern, n, [])


# -- verify_hole ---------------------------------------------------------------


def test_verify_hole_complete_vs_empty():
    K3 = Pattern.complete(3)
    full = PartiteGraph.complete(K3, 3)
    hole = HoleCertificate(2, (1, 2), (frozenset({0, 1}), frozenset({0, 1})))
    assert not verify_hole(full, hole)
    assert verify_hole(empty_instance(K3, 3), hole)


def test_verify_hole_gadget():
    # kill the 2x2 biclique between {0,1} in part 1 and {1,2} in part 2
    G = PartiteGraph.complete(Pattern.complete(2), 3).delete_edges(
        [(1, a, 2, b) for a in (0, 1) for b in (1, 2)]
    )
    assert verify_hole(G, HoleCertificate(2, (1, 2), (frozenset({0, 1}), frozenset({1, 2}))))
    assert not verify_hole(G, HoleCertificate(2, (1, 2), (frozenset({0, 1}), frozenset({0, 2}))))


def test_verify_hole_arena_errors():
    G = PartiteGraph.complete(Pattern.cycle(4), 2)
    bad = HoleCertificate(2, (1, 3), (frozenset({0}), frozenset({0})))
    with pytest.raises(ValueError, match="invalid hole arena"):
        verify_hole(G, bad)  # parts 1,3 not adjacent in C_4
    with pytest.raises(ValueError, match="invalid hole arena"):
        verify_hole(G, HoleCertificate(2, (1, 1), (frozenset({0}), frozenset({1}))))
    with pytest.raises(ValueError, match="invalid hole arena"):
        verify_hole(G, HoleCertificate(2, (1, 2), (frozenset({0}), frozenset({0, 1}))))
    with pytest.raises(ValueError, match="invalid hole arena"):
        verify_hole(G, HoleCertificate(2, (1, 2), (frozenset({0}), frozenset({7}))))


def test_verify_hole_empty_certificate():
    G = PartiteGraph.complete(Pattern.complete(3), 2)
    assert verify_hole(G, HoleCertificate(2, (1, 2), (frozenset(), frozenset())))


# -- exact solver -----------------------------------------------------------------


def test_alpha_exact_complete_is_zero():
    report = alpha_star_exact(PartiteGraph.complete(Pattern.complete(3), 4), 2)
    assert report.alpha == 0
    assert report.method == "exact"
    assert report.witness.sets == ()


def test_alpha_exact_empty_graph():
    K3 = Pattern.complete(3)
    for r in (2, 3):
        report = alpha_star_exact(empty_instance(K3, 4), r)
        assert report.alpha == 4
        assert verify_hole(empty_instance(K3, 4), report.witness)


def test_alpha_exact_planted():
    # plant a 3x3 non-edge block between parts 1 and 2
    G = PartiteGraph.complete(Pattern.complete(3), 5).delete_edges(
        [(1, a, 2, b) for a in (0, 1, 2) for b in (2, 3, 4)]
    )
    report = alpha_star_exact(G, 2)
    assert report.alpha == 3
    assert len(report.witness.sets[0]) == 3 and verify_hole(G, report.witness)
    # r=3 holes need a row of missing triangles; the planted block gives them too
    report3 = alpha_star_exact(G, 3)
    assert report3.alpha == 3


def test_alpha_exact_cap_refusal():
    # the cap bounds n for r>=3 only; the pair search answers above it
    G = PartiteGraph.complete(Pattern.complete(3), 11)
    with pytest.raises(ValueError, match="exact mode refused"):
        alpha_star_exact(G, 3)
    assert alpha_star_exact(G, 3, cap=11).alpha == 0
    for n in (11, 13):
        H = random_instance(Pattern.complete(3), n, 0.5, seed=7000 + n)
        report = alpha_star_exact(H, 2, cap=n - 1)
        assert report.alpha == table_alpha_pair(H) > 0
        assert len(report.witness.sets[0]) == report.alpha and verify_hole(H, report.witness)


@pytest.mark.parametrize("seed", range(32))
def test_alpha_pair_matches_table_oracle(seed):
    # n = 11..16 lies above the default cap, which no longer bounds r=2
    pattern = (Pattern.complete(3), Pattern.complete(4), Pattern.cycle(4), Pattern.cycle(5))[
        seed % 4
    ]
    n = 2 + seed % 9 if seed < 24 else 11 + seed % 6
    G = random_instance(pattern, n, (0.3, 0.5, 0.7, 0.85)[seed // 4 % 4], seed=6000 + seed)
    report = alpha_star_exact(G, 2)
    assert report.alpha == table_alpha_pair(G), (seed, n)
    if report.alpha:
        assert len(report.witness.sets[0]) == report.alpha and verify_hole(G, report.witness)
    else:
        assert report.witness.sets == ()


def test_alpha_exact_r_range():
    G = PartiteGraph.complete(Pattern.complete(3), 2)
    with pytest.raises(ValueError, match="out of range"):
        alpha_star_exact(G, 1)
    with pytest.raises(ValueError, match="out of range"):
        alpha_star_exact(G, 4)


def test_alpha_exact_cycle_pattern_pairs_only():
    # C_4 has no part triangles, so r=3 holes have no arena at all
    G = empty_instance(Pattern.cycle(4), 3)
    assert alpha_star_exact(G, 2).alpha == 3
    assert alpha_star_exact(G, 3).alpha == 0


@pytest.mark.parametrize("seed", range(12))
def test_alpha_exact_matches_naive(seed):
    k = 2 + seed % 3
    n = 3 + seed % 3
    G = random_instance(Pattern.complete(k), n, 0.4 + 0.1 * (seed % 4), seed=1000 + seed)
    for r in (2, 3):
        if r > k:
            continue
        assert alpha_star_exact(G, r).alpha == naive_alpha_star(G, r), (k, n, r, seed)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([0.3, 0.5, 0.7]))
def test_alpha_exact_monotone_under_deletion(seed, p):
    import random as _r

    G = random_instance(Pattern.complete(3), 4, p, seed)
    edges = list(G.iter_edges())
    if not edges:
        return
    rng = _r.Random(seed ^ 0xABCDEF)
    H = G.delete_edges(rng.sample(edges, 1 + rng.randrange(len(edges))))
    # removing edges can only create or enlarge holes
    assert alpha_star_exact(H, 2).alpha >= alpha_star_exact(G, 2).alpha


def list_exists_hole(G, parts, s, counter):
    """Reference for `_hole_finder`: the same branch-and-bound, keeping
    the active cliques as a list of tuples refiltered per subset."""
    n = G.n
    r = len(parts)
    all_cliques = list(iter_copies(G, parts, [G.full_mask] * r))
    lowest = mask_of(range(s))

    def rec(level, active, chosen):
        counter[0] += 1
        if not active:
            return chosen + [lowest] * (r - level)
        if level == r - 1:
            free = G.full_mask & ~mask_of(c[level] for c in active)
            if free.bit_count() >= s:
                return chosen + [mask_of(list(bits(free))[:s])]
            return None
        used = {c[level] for c in active}
        if n - len(used) >= s:
            free = G.full_mask & ~mask_of(used)
            return chosen + [mask_of(list(bits(free))[:s])] + [lowest] * (r - level - 1)
        for combo in combinations(range(n), s):
            u = mask_of(combo)
            res = rec(level + 1, [c for c in active if u >> c[level] & 1], chosen + [u])
            if res is not None:
                return res
        return None

    out = rec(0, all_cliques, [])
    return tuple(out) if out is not None else None


def list_reference_case(seed):
    """A random instance and its r = 3..5 arenas; the list reference
    branches on every subset, so r >= 4 arenas stay at n <= 6."""
    pattern = (Pattern.complete(3), Pattern.complete(4), Pattern.cycle(3), Pattern.complete(5))[
        seed % 4
    ]
    n = 2 + seed % 6
    G = random_instance(pattern, n, (0.3, 0.5, 0.7, 0.85)[seed // 4 % 4], seed=3000 + seed)
    arenas = list(pattern.clique_part_tuples(3))
    if n <= 6:
        arenas += pattern.clique_part_tuples(4)[:2] + pattern.clique_part_tuples(5)
    return G, arenas


@pytest.mark.parametrize("seed", range(24))
def test_exists_hole_matches_list_reference(seed):
    # same masks: the link search visits the reference's subsets in the
    # same order and cuts only subtrees that hold no hole
    G, arenas = list_reference_case(seed)
    for parts in arenas:
        exists = _hole_finder(G, parts)
        for s in range(1, G.n + 1):
            assert exists(s, [0]) == list_exists_hole(G, parts, s, [0]), (parts, s)


def test_link_search_takes_fewer_nodes_than_list_reference():
    # per decision the link search can take a few more nodes (each vertex
    # node asks a pair search, and tiny instances have little to cut);
    # summed over the instances above it takes far fewer
    got, want = [0], [0]
    for seed in range(24):
        G, arenas = list_reference_case(seed)
        for parts in arenas:
            for s in range(1, G.n + 1):
                _hole_finder(G, parts)(s, got)
                list_exists_hole(G, parts, s, want)
    assert got[0] < want[0]


@pytest.mark.parametrize("seed", range(8))
def test_hole_finder_reuse_matches_fresh(seed):
    # neither the clique index nor the pair rows depend on s: one finder
    # asked for every s answers as a fresh finder per s does, node for node
    pattern = (Pattern.complete(3), Pattern.complete(4))[seed % 2]
    n = 3 + seed % 5
    G = random_instance(pattern, n, (0.3, 0.5, 0.7, 0.85)[seed // 2 % 4], seed=4000 + seed)
    for r in range(2, pattern.k + 1):
        finder = _pair_finder if r == 2 else _hole_finder
        for parts in pattern.clique_part_tuples(r):
            exists = finder(G, parts)
            for s in range(1, n + 1):
                reused, fresh = [0], [0]
                assert exists(s, reused) == finder(G, parts)(s, fresh)
                assert reused == fresh, (parts, s)


def per_node_pair_hole(G, pi, pj, s):
    """Reference for `_pair_finder`: the same subset search, asking
    `nbr_mask` for each part-pi vertex at every node."""

    def rec(start, a_mask, t):
        if a_mask.bit_count() == s:
            return a_mask, mask_of(list(bits(t))[:s])
        for a in range(start, G.n):
            u = t & ~G.nbr_mask(pi, a, pj)
            if u.bit_count() >= s and (found := rec(a + 1, a_mask | 1 << a, u)):
                return found
        return None

    return rec(0, 0, G.full_mask)


@pytest.mark.parametrize("seed", range(16))
def test_pair_finder_matches_per_node_reference(seed):
    # rows read once per finder change the cost of a node, never the
    # branching order, so every s-hole it returns is the reference's
    pattern = (Pattern.complete(3), Pattern.cycle(4), Pattern.cycle(5))[seed % 3]
    n = 2 + seed % 8
    G = random_instance(pattern, n, (0.3, 0.5, 0.7, 0.85)[seed // 3 % 4], seed=4500 + seed)
    for parts in pattern.clique_part_tuples(2):
        exists = _pair_finder(G, parts)
        for s in range(1, n + 1):
            assert exists(s, [0]) == per_node_pair_hole(G, *parts, s), (parts, s)


def descending_alpha(G, r):
    """Reference for r >= 3 `alpha_star_exact`: each part tuple descends
    from s = n to the best so far and stops at the first hole."""
    best, witness, explored = 0, ((), ()), 0
    for parts in G.pattern.clique_part_tuples(r):
        counter = [0]
        for s in range(G.n, best, -1):
            masks = _hole_finder(G, parts)(s, counter)
            if masks is not None:
                best = s
                witness = (parts, tuple(frozenset(bits(m)) for m in masks))
                break
        explored += counter[0]
    return best, witness, explored


def assert_matches_descending(G, r):
    """Same alpha, witness parts and witness sets as the reference;
    returns (explored, reference explored)."""
    report = alpha_star_exact(G, r)
    alpha, witness, explored = descending_alpha(G, r)
    assert report.alpha == alpha
    assert (report.witness.parts, report.witness.sets) == witness
    return report.explored, explored


def test_alpha_exact_matches_descending_reference():
    # ascending from the best so far finds the same maximum and the same
    # witness as the descending search.  Per instance it can take a few
    # more nodes where alpha is near n, since every successful decision
    # costs a node (with no transversal clique at all: 1 node descending,
    # n ascending); summed, it takes fewer.  K5 stops at n=6: at n=8 the
    # r=5 reference runs for minutes.
    ascending = descending = 0
    for seed in range(24):
        pattern = (Pattern.complete(3), Pattern.complete(4), Pattern.cycle(4), Pattern.complete(5))[
            seed % 4
        ]
        n = min(3 + seed % 6, 6 if pattern.k == 5 else 8)
        G = random_instance(pattern, n, (0.3, 0.5, 0.7, 0.85)[seed // 4 % 4], seed=5000 + seed)
        for r in range(3, pattern.k + 1):
            got, want = assert_matches_descending(G, r)
            ascending, descending = ascending + got, descending + want
    assert ascending < descending


@pytest.mark.parametrize("seed", range(6))
def test_alpha_exact_matches_descending_on_hole_suppressed(seed):
    G, _ = hole_suppressed_process(Pattern.complete(4), 8, r=2, s=2, seed=seed)
    ascending, descending = assert_matches_descending(G, 3)
    assert ascending <= descending


def test_alpha_exact_work_count_pinned():
    # explored counts branch nodes summed over the ascending decisions
    # s = best+1, best+2, ...: the vertex nodes of the link search and
    # the pair-search nodes they ask for; a faster node must not change it
    G, _ = hole_suppressed_process(Pattern.complete(4), 8, r=2, s=2, seed=3)
    report = alpha_star_exact(G, 3)
    assert report.alpha == 2 and report.explored == 96
    assert report.witness.parts == (1, 2, 3)
    assert report.witness.sets == (frozenset({2, 3}), frozenset({3, 4}), frozenset({2, 5}))


def test_alpha_pair_work_count_pinned():
    # r=2 climbs the same way, on the pair search; the witness comes from
    # the last part pair that beat the best so far
    G = random_instance(Pattern.complete(3), 12, 0.4, seed=11)
    report = alpha_star_exact(G, 2)
    assert report.alpha == 5 and report.explored == 68
    assert report.witness.parts == (1, 3)
    assert report.witness.sets == (frozenset({1, 2, 4, 6, 11}), frozenset({1, 3, 9, 10, 11}))


def test_alpha_r3_node_budget_at_n14():
    # random K4 at n=14, above the default cap: a work bound on the link
    # search where the subset search grows about 4x per unit of n
    G = random_instance(Pattern.complete(4), 14, 0.5, seed=0)
    report = alpha_star_exact(G, 3, cap=14)
    assert report.alpha == 7 and report.explored == 50286


# SHA-256 of every hole answer over 224 random hosts (K3, K4, C4 and C5,
# n = 2..8, p = 0.3..0.85, two seeds each): alpha_star_exact's alpha,
# witness parts, sorted sets and explored for r = 2 and 3, then
# certify_no_hole's answer and witness for s = 1..n+1
HOLE_GRID_SHA = "39b836c59fbf6409923e7c3186fb498b136ab4891311c23ac29d95942141387b"


def test_hole_answers_are_pinned():
    rows = []
    patterns = (Pattern.complete(3), Pattern.complete(4), Pattern.cycle(4), Pattern.cycle(5))
    for (at, pattern), n, p, seed in product(
        enumerate(patterns), range(2, 9), (0.3, 0.5, 0.7, 0.85), range(2)
    ):
        G = random_instance(pattern, n, p, seed=8000 + 100 * at + 10 * n + seed)
        for r in (2, 3):
            report = alpha_star_exact(G, r)
            w = report.witness
            rows.append([report.alpha, w.parts, [sorted(u) for u in w.sets], report.explored])
            for s in range(1, n + 2):
                ok, regime, w = certify_no_hole(G, r, s)
                rows.append([ok, regime, w and [w.parts, [sorted(u) for u in w.sets]]])
    assert len(rows) == 3136
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == HOLE_GRID_SHA


@pytest.mark.parametrize("r", (2, 3))
def test_unverified_witness_raises(monkeypatch, r):
    # the witness check is an explicit raise, so `python -O` keeps it
    G = empty_instance(Pattern.complete(3), 3)
    monkeypatch.setattr("transtile.holes.verify_hole", lambda G, cand: False)
    with pytest.raises(RuntimeError, match="non-hole"):
        alpha_star_exact(G, r)
    with pytest.raises(RuntimeError, match="non-hole"):
        certify_no_hole(G, r, 2)


# -- randomized lower bound ----------------------------------------------------------


def test_lower_bound_complete_finds_nothing():
    G = PartiteGraph.complete(Pattern.complete(3), 4)
    assert alpha_star_lower_bound(G, 2, 1, trials=40, seed=3) is None


def test_lower_bound_planted_found():
    G = PartiteGraph.complete(Pattern.complete(3), 8).delete_edges(
        [(1, a, 2, b) for a in (1, 3, 5) for b in (0, 2, 4)]
    )
    cert = alpha_star_lower_bound(G, 2, 3, trials=100, seed=11)
    assert cert is not None and len(cert.sets[0]) == 3
    assert verify_hole(G, cert)


def test_lower_bound_empty_graph():
    G = empty_instance(Pattern.complete(2), 6)
    cert = alpha_star_lower_bound(G, 2, 6, trials=10, seed=0)
    assert cert is not None and len(cert.sets[0]) == 6


def test_lower_bound_validation():
    G = PartiteGraph.complete(Pattern.complete(2), 3)
    with pytest.raises(ValueError, match="out of range"):
        alpha_star_lower_bound(G, 2, 0)
    with pytest.raises(ValueError, match="out of range"):
        alpha_star_lower_bound(G, 2, 4)


# -- certification wrapper -------------------------------------------------------------


def test_certify_exact_regime():
    G = PartiteGraph.complete(Pattern.complete(3), 4)
    ok, regime, witness = certify_no_hole(G, 2, 1)
    assert ok and regime == "exact" and witness is None
    H = empty_instance(Pattern.complete(3), 4)
    ok, regime, witness = certify_no_hole(H, 2, 2)
    assert not ok and regime == "exact" and len(witness.sets[0]) >= 2


def test_certify_pairs_exact_above_cap():
    # the r=2 decision has no size cap: it stays exact past EXACT_CAP_DEFAULT
    for n in (12, 60):
        G = PartiteGraph.complete(Pattern.complete(2), n)
        ok, regime, witness = certify_no_hole(G, 2, 2)
        assert ok and regime == "exact" and witness is None
        H = G.delete_edges([(1, a, 2, b) for a in (3, n - 1) for b in (0, 5)])
        ok, regime, witness = certify_no_hole(H, 2, 2)
        assert not ok and regime == "exact"
        # the only 2x2 hole is the deleted block
        assert witness.sets == (frozenset({3, n - 1}), frozenset({0, 5}))
        assert verify_hole(H, witness)


def test_certify_r3_above_cap_refused():
    G = PartiteGraph.complete(Pattern.complete(3), 11)
    refused = r"^exact mode refused: n=11 exceeds cap 10 for r=3; raise cap$"
    with pytest.raises(ValueError, match=refused):
        certify_no_hole(G, 3, 2)
    assert certify_no_hole(G, 2, 2)[0]
    # argument checks come first, then the vacuous s > n answer, then the refusal
    with pytest.raises(ValueError, match="out of range"):
        certify_no_hole(G, 3, 0)
    assert certify_no_hole(G, 3, 12) == (True, "exact", None)
    # the refusal comes before any part tuple, so a pattern without one is refused too
    with pytest.raises(ValueError, match="exact mode refused"):
        certify_no_hole(empty_instance(Pattern.cycle(4), 11), 3, 2)
    with pytest.raises(ValueError, match="exact mode refused"):
        alpha_star_exact(empty_instance(Pattern.cycle(4), 11), 3)


def test_certify_validation():
    G = PartiteGraph.complete(Pattern.complete(3), 3)
    for r, s in ((1, 1), (4, 1), (2, 0)):
        with pytest.raises(ValueError, match="out of range"):
            certify_no_hole(G, r, s)


@pytest.mark.parametrize("seed", range(40))
def test_certify_matches_exact_hole_number(seed):
    pattern = (Pattern.complete(3), Pattern.complete(4), Pattern.cycle(4), Pattern.cycle(5))[
        seed % 4
    ]
    n = 2 + seed % 6
    G = random_instance(pattern, n, (0.3, 0.5, 0.7, 0.85)[seed // 4 % 4], seed=2000 + seed)
    for r in (2, 3):
        if not G.pattern.clique_part_tuples(r):
            continue
        alpha = alpha_star_exact(G, r).alpha
        for s in range(1, n + 2):
            ok, regime, witness = certify_no_hole(G, r, s)
            assert regime == "exact"
            assert ok == (alpha < s), (seed, r, s, alpha)
            if ok:
                assert witness is None
            else:
                assert witness.r == r
                assert all(len(u) == s for u in witness.sets)
                assert verify_hole(G, witness)


def test_certify_oversized_hole_vacuous():
    G = PartiteGraph.complete(Pattern.complete(2), 3)
    ok, regime, _ = certify_no_hole(G, 2, 4)
    assert ok and regime == "exact"


# -- property: verify matches naive tuple search ------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_verify_hole_matches_naive(seed):
    import random as _r

    rng = _r.Random(seed)
    G = random_instance(Pattern.complete(3), 4, 0.5, seed)
    s = 1 + rng.randrange(3)
    parts = (1, 2, 3)
    sets = tuple(frozenset(rng.sample(range(4), s)) for _ in parts)
    cand = HoleCertificate(3, parts, sets)
    naive = not naive_has_transversal_tuple(G, parts, [sorted(u) for u in sets])
    assert verify_hole(G, cand) == naive
