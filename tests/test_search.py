"""The copy kernel against a naive product scan."""

from __future__ import annotations

import random
from itertools import product

import pytest

from conftest import naive_has_transversal_tuple, random_instance
from transtile.core import Pattern, bits
from transtile.search import iter_copies


def naive_copies(G, parts, masks) -> set[tuple[int, ...]]:
    """Every tuple of the masks' product that realizes the pattern edges."""
    return {
        tup
        for tup in product(*(list(bits(m)) for m in masks))
        if naive_has_transversal_tuple(G, parts, [[v] for v in tup])
    }


@pytest.mark.parametrize(
    "pattern",
    [Pattern.complete(3), Pattern.complete(4), Pattern.cycle(4), Pattern.cycle(5)],
    ids=["K3", "K4", "C4", "C5"],
)
def test_iter_copies_matches_naive_scan(pattern):
    # random part subsets in arbitrary order, led by a random part, so the
    # positions differ from the part indices and skip pattern edges on cycles
    rng = random.Random(f"iter-copies-{pattern.k}-{len(pattern.edges)}")
    nonempty = 0
    for _ in range(60):
        n = rng.randint(2, 5)
        G = random_instance(pattern, n, rng.choice([0.4, 0.6, 0.8]), rng.randrange(10**9))
        p0 = rng.randint(1, pattern.k)
        others = [p for p in range(1, pattern.k + 1) if p != p0]
        parts = [p0] + rng.sample(others, rng.randint(1, len(others)))
        masks = [rng.randrange(1 << n) for _ in parts]
        got = list(iter_copies(G, parts, masks))
        assert len(got) == len(set(got))
        assert set(got) == naive_copies(G, parts, masks)
        nonempty += bool(got)
    assert nonempty >= 10
