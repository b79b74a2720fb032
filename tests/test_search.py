"""The copy kernel against a naive product scan and a one-shot reference."""

from __future__ import annotations

import random
from itertools import product

import pytest

from conftest import naive_has_transversal_tuple, random_instance
from transtile.core import Pattern, bits
from transtile.search import copy_enumerator, iter_copies


def naive_copies(G, parts, masks) -> set[tuple[int, ...]]:
    """Every tuple of the masks' product that realizes the pattern edges."""
    return {
        tup
        for tup in product(*(list(bits(m)) for m in masks))
        if naive_has_transversal_tuple(G, parts, [[v] for v in tup])
    }


def reference_copies(G, parts, masks):
    """Reference for `copy_enumerator`: the same search with every level
    planned afresh at every node (branching position by min(), narrowing
    rows looked up per pair), so nothing carries over between calls."""
    if not all(masks):
        return
    adj = G._adj
    chosen = [0] * len(parts)

    def rec(cur, left):
        t = min(left, key=lambda u: cur[u].bit_count())
        if len(left) == 1:
            for chosen[t] in bits(cur[t]):
                yield tuple(chosen)
            return
        p = parts[t]
        rest = []
        narrow = []
        for u in left:
            if u != t:
                rest.append(u)
                rows = adj.get((p, parts[u]))
                if rows is not None:
                    narrow.append((u, rows))
        for v in bits(cur[t]):
            nxt = cur.copy()
            for u, rows in narrow:
                nxt[u] &= rows[v]
                if not nxt[u]:
                    break
            else:
                chosen[t] = v
                yield from rec(nxt, rest)

    yield from rec(list(masks), sorted(range(len(parts)), key=parts.__getitem__))


PATTERNS = pytest.mark.parametrize(
    "pattern",
    [Pattern.complete(3), Pattern.complete(4), Pattern.cycle(4), Pattern.cycle(5)],
    ids=["K3", "K4", "C4", "C5"],
)


def random_query(rng, pattern):
    """A random instance and part list: a random subset of the parts in
    arbitrary order, led by a random part, so the positions differ from
    the part indices and skip pattern edges on cycles."""
    n = rng.randint(2, 5)
    G = random_instance(pattern, n, rng.choice([0.4, 0.6, 0.8]), rng.randrange(10**9))
    p0 = rng.randint(1, pattern.k)
    others = [p for p in range(1, pattern.k + 1) if p != p0]
    parts = [p0] + rng.sample(others, rng.randint(1, len(others)))
    return G, parts


@PATTERNS
def test_iter_copies_matches_naive_scan(pattern):
    rng = random.Random(f"iter-copies-{pattern.k}-{len(pattern.edges)}")
    nonempty = 0
    for _ in range(60):
        G, parts = random_query(rng, pattern)
        masks = [rng.randrange(1 << G.n) for _ in parts]
        got = list(iter_copies(G, parts, masks))
        assert len(got) == len(set(got))
        assert set(got) == naive_copies(G, parts, masks)
        assert got == list(reference_copies(G, parts, masks))
        nonempty += bool(got)
    assert nonempty >= 10


@PATTERNS
def test_reused_enumerator_keeps_the_reference_order(pattern):
    # one enumerator serves many mask lists, so a plan memoised under one
    # list must not change the copies or their order under another
    rng = random.Random(f"copy-enumerator-{pattern.k}-{len(pattern.edges)}")
    nonempty = 0
    for _ in range(30):
        G, parts = random_query(rng, pattern)
        copies = copy_enumerator(G, parts)
        for _ in range(25):
            masks = [rng.randrange(1 << G.n) for _ in parts]
            got = list(copies(masks))
            assert got == list(reference_copies(G, parts, masks)), (parts, masks)
            nonempty += bool(got)
    assert nonempty >= 100
