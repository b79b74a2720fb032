"""Acceptance gate: nine checks, one printed pass/fail line each.

Run `python3 -m pytest tests/test_acceptance.py -v -s` to watch the lines
as they complete; without `-s` pytest still shows the line of any failing
check in its report.

Check 8 holds mixed tilings to two closures: addition-maximal (no copy
fits inside the leftover) and exchange-closed (no copy can be traded
for two disjoint copies inside its own vertices and the leftover).  The
leftover edge budgets are promised only on exchange-closed tilings;
addition-maximality alone does not force them.  Above the degree floor
the budgets cannot hold on a nonempty leftover (the assertion message
carries the counting argument), so there every exchange-closed tiling
must strand nothing.  Below the floor, stranded exchange-closed tilings
exist, and each must meet every budget after naive rechecks of both
closures.
"""

from __future__ import annotations

import math
import random
import time
from itertools import combinations, product

from conftest import ids, naive_alpha_star, random_instance
from transtile.core import (
    Pattern,
    PartiteGraph,
    VertexId,
    bits,
    delta_star,
)
from transtile.generators import (
    GenSpec,
    complete_blowup,
    hole_suppressed_process,
    space_barrier,
)
from transtile.holes import HoleCertificate, alpha_star_exact, verify_hole
from transtile.tiling import (
    check_appendix_invariants,
    exact_transversal_factor_search,
    find_transversal_cycle,
    find_transversal_path,
    greedy_clique_tiling,
    maximal_mixed_tiling,
)
from transtile.absorbing import (
    AbsorbParams,
    Template,
    build_absorbing_set,
    find_absorber,
    find_connector,
    generate_template,
    verify_absorbing_property,
    verify_template,
)
from transtile.lab import ExperimentConfig, canonical_json, emit_plot, run

K3 = Pattern.complete(3)
K4 = Pattern.complete(4)
C4 = Pattern.cycle(4)


def _finish(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _balanced_factorable(G: PartiteGraph, verts) -> bool:
    """Independent certificate check: exact factor of the induced subgraph."""
    masks = [0] * (G.k + 1)
    for vid in verts:
        masks[vid.part] |= 1 << vid.idx
    if len({masks[p].bit_count() for p in range(1, G.k + 1)}) != 1:
        return False
    H, _ = G.induced(masks)
    tiling, _ = exact_transversal_factor_search(H)
    return tiling is not None


def test_criterion_1_exact_hole_analyzer_matches_naive_enumeration():
    t0 = time.monotonic()
    combos = [(K3, 2), (K3, 3), (K4, 2), (K4, 3), (C4, 2)]
    checked = mismatches = 0
    for pat, r in combos:
        for seed in range(40):
            n = 2 + seed % 4
            p = (0.2, 0.45, 0.7, 0.9)[(seed // 4) % 4]
            G = random_instance(pat, n, p, seed)
            if alpha_star_exact(G, r).alpha != naive_alpha_star(G, r):
                mismatches += 1
            checked += 1
    dt = time.monotonic() - t0
    _finish(
        1,
        "exact hole analyzer equals naive enumeration",
        checked >= 200 and mismatches == 0 and dt < 300,
        f"{checked} instances, {mismatches} mismatches, {dt:.1f}s",
    )


def test_criterion_2_greedy_leftover_never_exceeds_exact_hole_size():
    t0 = time.monotonic()
    checked = violations = 0
    for seed in range(100):
        n = 3 + seed % 4
        p = (0.3, 0.5, 0.7, 0.85)[(seed // 4) % 4]
        G = random_instance(K3, n, p, 1000 + seed)
        leftover = greedy_clique_tiling(G).leftover_per_part
        if leftover > alpha_star_exact(G, 3).alpha:
            violations += 1
        checked += 1
    dt = time.monotonic() - t0
    _finish(
        2,
        "greedy leftover within exact hole size",
        checked >= 100 and violations == 0,
        f"{checked} instances, {violations} violations, {dt:.1f}s",
    )


def test_criterion_3_space_barrier_blocks_every_transversal_cycle():
    t0 = time.monotonic()
    G, U, _ = space_barrier(C4, 8, seed=5)
    k, n = G.k, G.n
    degree_ok = delta_star(G) >= n // k - 1 == 1

    # exhaustive scan: no transversal cycle avoids U
    outside = [list(bits(G.full_mask & ~U[p])) for p in range(1, k + 1)]
    stray = 0
    for tup in product(*outside):
        ring = all(
            G.has_edge((a, tup[a - 1]), (a % k + 1, tup[a % k]))
            for a in range(1, k + 1)
        )
        stray += ring
    sweep_agrees = (
        find_transversal_cycle(G, [0] + [G.full_mask & ~U[p] for p in range(1, k + 1)])
        is None
    )
    no_factor = exact_transversal_factor_search(G)[0] is None
    dt = time.monotonic() - t0
    _finish(
        3,
        "space barrier admits no transversal cycle factor",
        degree_ok and stray == 0 and sweep_agrees and no_factor and dt < 60,
        f"delta*={delta_star(G)}, {stray} cycles off the blocker, "
        f"factor absence proved, {dt:.1f}s",
    )


def test_criterion_4_certified_instances_always_carry_spanning_path():
    t0 = time.monotonic()
    instances = []
    for k in (4, 5):
        for n in (6, 8, 10):
            for seed in range(12):
                if len(instances) >= 50:
                    break
                G, rep = hole_suppressed_process(Pattern.cycle(k), n, 2, 2, seed=seed)
                if not rep["certified"]:
                    continue
                # independent re-check of the certificate, exact at these sizes
                assert alpha_star_exact(G, 2).alpha < 2
                instances.append((G, k))
    found = bad = 0
    for G, k in instances[:50]:
        X = [0] + [0b11 if p in (1, k) else 0b1111 for p in range(1, k + 1)]
        path = find_transversal_path(G, 1, k, X)
        if path is None:
            continue
        valid = len(path) == k
        for slot, vid in enumerate(path, start=1):
            valid = valid and vid.part == slot and X[slot] >> vid.idx & 1
        for a in range(k - 1):
            valid = valid and G.has_edge(path[a], path[a + 1])
        found += 1
        bad += not valid
    dt = time.monotonic() - t0
    _finish(
        4,
        "spanning transversal path on certified instances",
        len(instances) >= 50 and found == 50 and bad == 0,
        f"{found}/50 paths found, {bad} invalid, {dt:.1f}s",
    )


def test_criterion_5_connector_and_absorber_certificates_revalidate():
    t0 = time.monotonic()
    corpus: list[PartiteGraph] = [complete_blowup(K3, 5), complete_blowup(K4, 5)]
    for seed in range(4):
        corpus.append(random_instance(K3, 6, 0.85, seed))
        corpus.append(random_instance(K4, 6, 0.9, 50 + seed))

    connectors = absorbers = bad = 0
    for G in corpus:
        for part in (1, 2):
            u, v = VertexId(part, 0), VertexId(part, 1)
            for t in (1, 2):
                c = find_connector(G, u, v, t=t)
                if c is None:
                    continue
                connectors += 1
                c.validate(G)
                sound = len(ids(c.verts)) <= G.k * c.t - 1
                sound = sound and _balanced_factorable(G, (u, *ids(c.verts)))
                sound = sound and _balanced_factorable(G, (v, *ids(c.verts)))
                bad += not sound
        targets = [
            tuple(VertexId(p, 0) for p in range(1, G.k + 1)),
            tuple(VertexId(p, p % G.n) for p in range(1, G.k + 1)),
        ]
        for S in targets:
            for ct in (1, 2):
                a = find_absorber(G, S, connector_t=ct)
                if a is None:
                    continue
                absorbers += 1
                a.validate(G)
                sound = len(ids(a.verts)) <= G.k * a.t
                sound = sound and _balanced_factorable(G, ids(a.verts))
                sound = sound and _balanced_factorable(G, (*ids(a.verts), *S))
                bad += not sound
    dt = time.monotonic() - t0
    _finish(
        5,
        "connector and absorber certificates revalidate",
        connectors >= 40 and absorbers >= 20 and bad == 0,
        f"{connectors} connectors, {absorbers} absorbers, {bad} unsound, {dt:.1f}s",
    )


def _pm_onto_z(rows: list[list[int]], z_size: int) -> bool:
    """Perfect matching of rows onto all z columns, by subset DP."""
    reach = {0}
    for nbrs in rows:
        reach = {
            state | 1 << z for state in reach for z in nbrs if not state >> z & 1
        }
        if not reach:
            return False
    return (1 << z_size) - 1 in reach


def _robust_by_brute_force(T: Template):
    nbrs: list[list[int]] = [[] for _ in range(T.left_size)]
    for l, z in T.edges:
        nbrs[l].append(z)
    y_rows = [nbrs[T.x_size + i] for i in range(T.y_size)]
    for chosen in combinations(range(T.x_size), T.m):
        if not _pm_onto_z([nbrs[l] for l in chosen] + y_rows, T.z_size):
            return False, chosen
    return True, None


def test_criterion_6_template_verifier_agrees_with_matching_brute_force():
    t0 = time.monotonic()
    generated = disagreements = 0
    for m in (1, 2, 3):
        T = generate_template(m, 1, seed=0)
        if T is None:
            continue
        ok, failing = verify_template(T)
        brute_ok, _ = _robust_by_brute_force(T)
        generated += ok and brute_ok and failing is None
    # agreement on arbitrary (mostly non-robust) templates
    rng = random.Random(19)
    compared = 0
    for _ in range(150):
        edges = set()
        for z in range(6):
            for l in rng.sample(range(7), rng.randint(1, 3)):
                edges.add((l, z))
        T = Template(m=2, beta_m=1, edges=frozenset(edges))
        ok, failing = verify_template(T)
        brute_ok, _ = _robust_by_brute_force(T)
        if ok != brute_ok:
            disagreements += 1
        if not ok:
            nbrs = [[] for _ in range(T.left_size)]
            for l, z in T.edges:
                nbrs[l].append(z)
            rows = [nbrs[l] for l in failing]
            rows += [nbrs[T.x_size + i] for i in range(T.y_size)]
            if _pm_onto_z(rows, T.z_size):
                disagreements += 1  # reported counterexample actually matches
        compared += 1
    dt = time.monotonic() - t0
    _finish(
        6,
        "robust templates verify against independent matcher",
        generated == 3 and compared == 150 and disagreements == 0,
        f"3 sizes generated, {compared} arbitrary templates compared, "
        f"{disagreements} disagreements, {dt:.1f}s",
    )


def test_criterion_7_absorbing_pipeline_end_to_end():
    t0 = time.monotonic()
    results = []
    Ga = complete_blowup(K3, 60)
    pa = AbsorbParams(
        q=1 / 30, tau=3.0, beta_prime=0.003, m=1, beta_m=1, seed=7, connector_t=1
    )
    Gb, rep = hole_suppressed_process(K3, 60, 2, 2, seed=3)
    assert rep["certified"]
    # independent naive recheck of "no 2x2 hole": every pair of vertices
    # in one part has fewer than 2 common non-neighbours in the other
    for i, j in sorted(K3.edges):
        for a, a2 in combinations(range(Gb.n), 2):
            common = [
                b
                for b in range(Gb.n)
                if not Gb.has_edge((i, a), (j, b)) and not Gb.has_edge((i, a2), (j, b))
            ]
            assert len(common) < 2, (i, a, a2, j, common)
    # the 2x2 hole that the 10557-edge prefix of this process still has
    old_hole = HoleCertificate(2, (1, 3), (frozenset({9, 50}), frozenset({38, 39})))
    assert not verify_hole(Gb, old_hole)
    pb = AbsorbParams(
        q=0.1, tau=3.0, beta_prime=0.003, m=1, beta_m=1, seed=7, connector_t=1
    )
    for G, params in ((Ga, pa), (Gb, pb)):
        R = build_absorbing_set(G, params)
        R.validate()
        randomized = verify_absorbing_property(G, R, trials=100, seed=11, exhaustive_limit=0)
        exhaustive = verify_absorbing_property(G, R, trials=1, seed=11, exhaustive_limit=1000)
        # the exhaustive call really enumerated: one check per transversal
        # k-set outside R (125 on the complete instance, 1 on the other)
        space = math.prod(G.n - R.R[p].bit_count() for p in range(1, G.k + 1))
        assert space <= 1000 and exhaustive.checks == space, (space, exhaustive)
        results.append(
            randomized.ok and randomized.checks >= 100 and exhaustive.ok
        )
    dt = time.monotonic() - t0
    _finish(
        7,
        "absorbing pipeline builds and verifies",
        all(results) and len(results) == 2 and dt < 600,
        f"complete and certified-dense instances at n=60, 100 randomized "
        f"plus exhaustive size-3 checks each, {dt:.1f}s",
    )


def _blocked_ring(k: int, n: int, s: int) -> PartiteGraph:
    """Complete cycle blow-up minus all edges between low-index s-sets of
    consecutive parts; the blocked tuples are the only shapeless leftovers."""
    G = complete_blowup(Pattern.cycle(k), n)
    dels = []
    for a in range(1, k + 1):
        b = a % k + 1
        dels.extend((a, x, b, y) for x in range(s) for y in range(s))
    return G.delete_edges(dels)


def _tuple_has_shape(G: PartiteGraph, tup) -> bool:
    """Does the transversal tuple hold a path-of-3 or a two-edge matching?"""
    k = G.k
    ring = [
        G.has_edge((a, tup[a - 1]), (a % k + 1, tup[a % k]))
        for a in range(1, k + 1)
    ]
    for a in range(k):
        if ring[a] and ring[(a + 1) % k]:
            return True
    for a in range(k):
        for b in range(a + 1, k):
            pair_parts = {a, (a + 1) % k, b, (b + 1) % k}
            if ring[a] and ring[b] and len(pair_parts) == 4:
                return True
    return False


def _leftover_has_no_shape(G: PartiteGraph, L: list[int]) -> bool:
    """Exhaustive maximality re-check: no leftover tuple holds a path-of-3
    or a two-edge matching, scanning every transversal combination."""
    sets = [list(bits(L[p])) for p in range(1, G.k + 1)]
    return not any(_tuple_has_shape(G, tup) for tup in product(*sets))


def _admits_exchange(G: PartiteGraph, T) -> bool:
    """Exhaustive exchange re-check: for some copy N, two disjoint shaped
    transversal tuples inside V(N) and the leftover, scanning every tuple
    for the first and every tuple of what it leaves for the second."""
    k = G.k
    L = T.leftover_masks()
    for c in T.copies:
        avail = [L[p] | 1 << c.verts[p - 1] for p in range(1, k + 1)]
        for first in product(*(list(bits(m)) for m in avail)):
            if not _tuple_has_shape(G, first):
                continue
            rest = [0] + [m & ~(1 << v) for m, v in zip(avail, first)]
            if not _leftover_has_no_shape(G, rest):
                return True
    return False


def test_criterion_8_maximal_mixed_tilings_respect_leftover_budgets():
    t0 = time.monotonic()
    # above the degree floor: every tiling must be exchange-closed and perfect
    above = stranded_above = not_ok = 0
    for k, n, s, tries in ((4, 5, 2, 2400), (5, 6, 3, 900), (6, 9, 5, 450)):
        G = _blocked_ring(k, n, s)
        assert delta_star(G) >= (2 / k + 0.1) * n
        for seed in range(tries):
            T = maximal_mixed_tiling(G, seed=seed)
            above += 1
            stranded_above += T.leftover_per_part > 0
            not_ok += not check_appendix_invariants(G, T).ok
    # below the floor: stranded tilings exist, and each must meet the budgets
    qualifying = violating = not_closed = 0
    for k, tries in ((4, 600), (5, 400), (6, 300)):
        for seed in range(tries):
            G = random_instance(Pattern.cycle(k), 5, 0.2, seed)
            assert delta_star(G) < (2 / k + 0.1) * 5
            T = maximal_mixed_tiling(G, seed=seed)
            if T.leftover_per_part < 1:
                continue
            qualifying += 1
            L = T.leftover_masks()
            if not _leftover_has_no_shape(G, L) or _admits_exchange(G, T):
                not_closed += 1
                continue
            report = check_appendix_invariants(G, T)
            assert report.maximal and not report.vacuous and report.exchange is None
            violating += bool(report.violations)
    dt = time.monotonic() - t0
    _finish(
        8,
        "leftover edge budgets hold on maximal mixed tilings",
        above == 3750
        and stranded_above == 0
        and not_ok == 0
        and qualifying >= 500
        and not_closed == 0
        and violating == 0
        and dt < 30,
        f"above the floor: {above} tilings, {stranded_above} stranded, "
        f"{not_ok} failing the invariant check; below the floor: {qualifying} "
        f"stranded tilings, {not_closed} admitting an addition or exchange, "
        f"{violating} with a copy over budget; {dt:.1f}s. Above the floor a "
        "stranded exchange-closed tiling cannot exist: with leftover size l per "
        "part, each of the k*l leftover vertices sends at least (2/k + 0.1)*n "
        "edges into each of its two neighbor parts, and a shapeless leftover "
        "keeps at most l*l edges internal, so at least 4*n*l + 0.2*k*n*l - 2*l*l "
        "edge endpoints land on the n - l tiling copies, while the per-copy "
        "budget admits at most 4*l*(n - l) in total; the gap 0.2*k*n*l + 2*l*l "
        "is strictly positive, so the budgets that exchange-closure forces "
        "leave no room for a nonempty leftover",
    )


def test_criterion_9_identical_configs_produce_identical_result_files(tmp_path):
    t0 = time.monotonic()
    outputs = []
    for tag in ("first", "second"):
        d = tmp_path / tag
        d.mkdir()
        cfg = ExperimentConfig(
            scenario="threshold_sweep",
            gen=GenSpec(family="complete", pattern=K3, n=6),
            params={"p_grid": [0.6, 0.8, 1.0], "seeds_per_p": 5, "cap": 12},
            seed=91,
            out_csv=str(d / "r.csv"),
            out_json=str(d / "r.json"),
        )
        records = run(cfg)
        emit_plot(records, "line", str(d / "r.svg"))
        outputs.append(
            tuple((d / f"r.{ext}").read_bytes() for ext in ("csv", "json", "svg"))
        )
    files_equal = outputs[0] == outputs[1]

    builds = []
    G = complete_blowup(K3, 60)
    params = AbsorbParams(
        q=1 / 30, tau=3.0, beta_prime=0.003, m=1, beta_m=1, seed=7, connector_t=1
    )
    for _ in range(2):
        builds.append(canonical_json(build_absorbing_set(G, params).to_json_dict()))
    dt = time.monotonic() - t0
    _finish(
        9,
        "identical configs give byte-identical result files",
        files_equal and builds[0] == builds[1],
        f"csv, json, svg and pipeline provenance compared, {dt:.1f}s",
    )
