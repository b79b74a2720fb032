"""k-partite pattern graphs and their elementary quantities.

A *pattern* is a small graph on parts [1..k].  A *blow-up instance*
replaces every part by n vertices and every pattern edge {i, j} by some
subset of the complete bipartite graph between parts i and j.  Edges
never run inside a part, and never across a part pair the pattern does
not join.  All instances here are balanced: every part has exactly n
vertices.

Conventions
-----------
* Parts are 1-based: part indices live in [1..k].
* Vertices are part-relative: (part, idx) with idx in [0..n-1].
* Neighborhoods are stored as one bitmask per vertex per
  pattern-adjacent part, so intersecting neighborhoods is a single
  `&`.  Reads across a non-adjacent part pair return the empty mask
  rather than raising; write paths validate strictly.

The partite minimum degree of an instance is the minimum, over pattern
edges {i, j}, of the least number of part-j neighbors of a part-i
vertex (and vice versa).  It is the degree notion all tiling and
absorption thresholds in this package are phrased in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

GRAPH_FORMAT = "ptg-v1"

__all__ = [
    "GRAPH_FORMAT",
    "Pattern",
    "VertexId",
    "PartiteGraph",
    "delta_star",
    "is_transversal_tuple",
    "mask_of",
    "part_masks",
    "vertex_masks",
    "bits",
    "json_field",
    "json_rows",
    "json_params",
    "Param",
]


def mask_of(indices: Iterable[int]) -> int:
    """Bitmask with one bit per index."""
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def part_masks(G: PartiteGraph, masks: Sequence[int], what: str) -> tuple[int, ...]:
    """`masks` as per-part masks of G: k+1 ints, slot 0 ignored (read as 0)
    and slot p a mask of part p below 2^n.  Raises ValueError naming
    `what` otherwise, a negative mask included."""
    full = G.full_mask
    if len(masks) != G.k + 1 or any(m & ~full for m in masks[1:]):
        raise ValueError(f"{what} need slots 1..{G.k} with bits below n={G.n}")
    return (0, *masks[1:])


def vertex_masks(G: PartiteGraph, ids: Iterable[VertexId | tuple[int, int]]) -> list[int]:
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


def bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_REQUIRED = object()


def _json_is(value, kind) -> bool:
    """isinstance for JSON values, where a bool is not a number."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if isinstance(value, bool) and bool not in kinds:
        return False
    return isinstance(value, kinds)


def json_field(data, key: str, kind, where: str, default=_REQUIRED):
    """`data[key]`, checked to be a `kind` (a type or tuple of types).

    Raises ValueError naming `where` and the field when `data` is not a
    JSON object, the field is missing and has no default, or its value
    has another type.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object, got {data!r}")
    if key not in data:
        if default is _REQUIRED:
            raise ValueError(f"{where} needs field {key!r}")
        return default
    value = data[key]
    if not _json_is(value, kind):
        raise ValueError(f"{where}.{key} has the wrong type: {value!r}")
    return value


def json_rows(data, key: str, width: int, where: str) -> list[tuple[int, ...]]:
    """`data[key]` as a list of rows of `width` integers (see json_field)."""
    rows = json_field(data, key, list, where)
    for t, row in enumerate(rows):
        if not (
            isinstance(row, list)
            and len(row) == width
            and all(_json_is(x, int) for x in row)
        ):
            raise ValueError(f"{where}.{key}[{t}] must be {width} integers: {row!r}")
    return [tuple(row) for row in rows]


_PAIRS = list[tuple[int, int]]
_NUMBERS = list[float]


class Param(NamedTuple):
    """One declared param of a JSON object: key, kind, default and range.

    `kind` is int (a JSON integer), float (any JSON number, read as a
    float), str, `int | None` (an integer or null), `list[float]` (a
    non-empty list of numbers, read as floats) or `list[tuple[int, int]]`
    (a list of [int, int] rows, read as tuples).  A param without a
    default is required, unless the key `unless` is given, and then it
    reads as None.  A given number, and each member of a `list[float]`,
    must lie in [low, high]; a bound left at None is open.
    """

    key: str
    kind: object
    default: object = _REQUIRED
    low: Optional[float] = None
    high: Optional[float] = None
    unless: Optional[str] = None


def _param_value(data: dict, p: Param, where: str):
    """The given value of `p` in `data`, read as its kind says."""
    if p.kind == _PAIRS:
        return json_rows(data, p.key, 2, where)
    if p.kind == _NUMBERS:
        value = json_field(data, p.key, list, where)
        if not value or not all(_json_is(x, (int, float)) for x in value):
            raise ValueError(f"{where}.{p.key} must be a non-empty list of numbers: {value!r}")
    elif p.kind is float:
        value = json_field(data, p.key, (int, float), where)
    else:
        return json_field(data, p.key, p.kind, where)
    try:
        return [float(x) for x in value] if p.kind == _NUMBERS else float(value)
    except OverflowError:
        raise ValueError(f"{where}.{p.key} is out of range: {value!r}") from None


def json_params(data, params: Sequence[Param], owner: str, where: str) -> dict:
    """The declared `params` of the object `data`, typed and by key.

    Keys that `params` does not declare are ignored.  Raises ValueError
    naming `where` and the key when a required param is missing (as
    "<owner> needs <where>.<key>"), or a value has the wrong kind or
    lies out of range.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object, got {data!r}")
    out = {}
    for p in params:
        if p.key not in data:
            if p.default is _REQUIRED and (p.unless is None or p.unless not in data):
                alt = "" if p.unless is None else f" or {where}.{p.unless}"
                raise ValueError(f"{owner} needs {where}.{p.key}{alt}")
            out[p.key] = None if p.default is _REQUIRED else p.default
            continue
        value = _param_value(data, p, where)
        if any(
            (p.low is not None and not p.low <= v) or (p.high is not None and not v <= p.high)
            for v in (value if p.kind == _NUMBERS else [value])
            if v is not None
        ):
            span = f">= {p.low}" if p.high is None else f"in [{p.low}, {p.high}]"
            raise ValueError(f"{where}.{p.key} must be {span}, got {value!r}")
        out[p.key] = value
    return out


class VertexId(NamedTuple):
    """Part-relative vertex address."""

    part: int
    idx: int


@dataclass(frozen=True)
class Pattern:
    """Graph on parts [1..k] prescribing which part pairs may carry edges."""

    k: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, k: int, edges: Iterable[tuple[int, int]]):
        if k < 2:
            raise ValueError(f"pattern needs k >= 2, got k={k}")
        norm = set()
        for i, j in edges:
            if i == j:
                raise ValueError(f"pattern edge ({i},{j}) is a loop")
            if not (1 <= i <= k and 1 <= j <= k):
                raise ValueError(f"pattern edge ({i},{j}) out of range [1..{k}]")
            norm.add((i, j) if i < j else (j, i))
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "edges", frozenset(norm))

    @staticmethod
    def complete(k: int) -> "Pattern":
        return Pattern(k, combinations(range(1, k + 1), 2))

    @staticmethod
    def cycle(k: int) -> "Pattern":
        if k < 3:
            raise ValueError(f"cycle pattern needs k >= 3, got k={k}")
        return Pattern(k, [(i, i + 1) for i in range(1, k)] + [(1, k)])

    @property
    def is_complete(self) -> bool:
        return len(self.edges) == self.k * (self.k - 1) // 2

    @property
    def is_cycle(self) -> bool:
        return self.k >= 3 and self.edges == Pattern.cycle(self.k).edges

    def adjacent(self, i: int, j: int) -> bool:
        return ((i, j) if i < j else (j, i)) in self.edges

    def neighbors(self, i: int) -> tuple[int, ...]:
        return tuple(j for j in range(1, self.k + 1) if self.adjacent(i, j))

    def edge_list(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    def clique_part_tuples(self, r: int) -> tuple[tuple[int, ...], ...]:
        """All ascending r-tuples of parts that are pairwise adjacent."""
        out = []
        for parts in combinations(range(1, self.k + 1), r):
            if all(self.adjacent(a, b) for a, b in combinations(parts, 2)):
                out.append(parts)
        return tuple(out)

    def to_json_dict(self) -> dict:
        if self.is_complete:
            return {"kind": "complete", "k": self.k}
        if self.is_cycle:
            return {"kind": "cycle", "k": self.k}
        return {"k": self.k, "edges": [list(e) for e in self.edge_list()]}

    @staticmethod
    def from_json_dict(data: dict) -> "Pattern":
        kind = json_field(data, "kind", (str, type(None)), "pattern", None)
        k = json_field(data, "k", int, "pattern")
        if kind == "complete":
            return Pattern.complete(k)
        if kind == "cycle":
            return Pattern.cycle(k)
        if kind is None and "edges" in data:
            return Pattern(k, json_rows(data, "edges", 2, "pattern"))
        raise ValueError(f"unknown pattern description: {data!r}")


@dataclass(frozen=True)
class PartiteGraph:
    """Immutable balanced blow-up instance of a pattern.

    `_adj[(i, j)][a]` is the bitmask of part-j neighbors of vertex
    (i, a); both orientations of every pattern edge are stored and kept
    symmetric.  Construct via `from_edges`, `complete`, or the
    generator functions; do not mutate.
    """

    pattern: Pattern
    n: int
    _adj: dict[tuple[int, int], tuple[int, ...]]

    @staticmethod
    def from_edges(
        pattern: Pattern, n: int, edges: Iterable[tuple[int, int, int, int]]
    ) -> "PartiteGraph":
        """Build from (part, idx, part, idx) rows, one per unordered pair."""
        if n < 1:
            raise ValueError(f"need n >= 1, got n={n}")
        adj: dict[tuple[int, int], list[int]] = {}
        for i, j in pattern.edges:
            adj[(i, j)] = [0] * n
            adj[(j, i)] = [0] * n
        seen: set[tuple[int, int, int, int]] = set()
        for i, a, j, b in edges:
            if not pattern.adjacent(i, j):
                raise ValueError(f"edge ({i},{a})-({j},{b}) joins non-adjacent parts")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({i},{a})-({j},{b}) has an index out of range")
            key = (i, a, j, b) if (i, a) < (j, b) else (j, b, i, a)
            if key in seen:
                raise ValueError(f"edge ({i},{a})-({j},{b}) listed twice")
            seen.add(key)
            adj[(i, j)][a] |= 1 << b
            adj[(j, i)][b] |= 1 << a
        return PartiteGraph(pattern, n, {k: tuple(v) for k, v in adj.items()})

    @staticmethod
    def complete(pattern: Pattern, n: int) -> "PartiteGraph":
        """Complete n-blow-up: every allowed edge present."""
        if n < 1:
            raise ValueError(f"need n >= 1, got n={n}")
        full = (1 << n) - 1
        adj: dict[tuple[int, int], tuple[int, ...]] = {}
        row = (full,) * n
        for i, j in pattern.edges:
            adj[(i, j)] = row
            adj[(j, i)] = row
        return PartiteGraph(pattern, n, adj)

    # -- elementary queries ------------------------------------------------

    @property
    def k(self) -> int:
        return self.pattern.k

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def nbr_mask(self, part: int, idx: int, other: int) -> int:
        """Neighbors of (part, idx) in `other`; empty if parts not joined."""
        rows = self._adj.get((part, other))
        return rows[idx] if rows is not None else 0

    def has_edge(self, u: VertexId | tuple[int, int], v: VertexId | tuple[int, int]) -> bool:
        (pu, iu), (pv, iv) = u, v
        return bool(self.nbr_mask(pu, iu, pv) >> iv & 1)

    def iter_edges(self) -> Iterator[tuple[int, int, int, int]]:
        """Edges once per unordered pair, in canonical sorted order."""
        for i, j in sorted(self.pattern.edges):
            rows = self._adj[(i, j)]
            for a in range(self.n):
                for b in bits(rows[a]):
                    yield (i, a, j, b)

    # -- derived graphs ----------------------------------------------------

    def delete_edges(self, edges: Iterable[tuple[int, int, int, int]]) -> "PartiteGraph":
        """New graph with the listed edges removed (absent edges ignored)."""
        adj = {key: list(rows) for key, rows in self._adj.items()}
        for i, a, j, b in edges:
            if (i, j) in adj:
                adj[(i, j)][a] &= ~(1 << b)
                adj[(j, i)][b] &= ~(1 << a)
        return PartiteGraph(self.pattern, self.n, {k: tuple(v) for k, v in adj.items()})

    def add_edges(self, edges: Iterable[tuple[int, int, int, int]]) -> "PartiteGraph":
        """New graph with the listed edges added; parts must be adjacent."""
        adj = {key: list(rows) for key, rows in self._adj.items()}
        for i, a, j, b in edges:
            if (i, j) not in adj:
                raise ValueError(f"edge ({i},{a})-({j},{b}) joins non-adjacent parts")
            adj[(i, j)][a] |= 1 << b
            adj[(j, i)][b] |= 1 << a
        return PartiteGraph(self.pattern, self.n, {k: tuple(v) for k, v in adj.items()})

    def induced(
        self, masks: Sequence[int]
    ) -> tuple["PartiteGraph", tuple[tuple[int, ...], ...]]:
        """Balanced induced subgraph on the given per-part masks.

        `masks` is indexed 1..k (slot 0 ignored), with bits below n
        (see `core.part_masks`).  All masks must select the same number
        of vertices; returns the reindexed graph plus, per part, the
        tuple mapping new idx -> old idx.
        """
        masks = part_masks(self, masks, "induced masks")
        keep = [tuple(bits(m)) for m in masks]
        sizes = {len(keep[p]) for p in range(1, self.k + 1)}
        if len(sizes) != 1:
            raise ValueError(f"induced subgraph unbalanced: sizes {sorted(sizes)}")
        m = sizes.pop()
        if m == 0:
            raise ValueError("induced subgraph is empty")
        pos = [
            {old: new for new, old in enumerate(keep[p])} for p in range(self.k + 1)
        ]
        adj: dict[tuple[int, int], list[int]] = {}
        for i, j in self.pattern.edges:
            for a, b in ((i, j), (j, i)):
                rows = []
                for old in keep[a]:
                    nb = self.nbr_mask(a, old, b) & masks[b]
                    rows.append(mask_of(pos[b][o] for o in bits(nb)))
                adj[(a, b)] = rows
        g = PartiteGraph(self.pattern, m, {k: tuple(v) for k, v in adj.items()})
        return g, tuple(keep[p] for p in range(self.k + 1))

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "format": GRAPH_FORMAT,
            "k": self.k,
            "n": self.n,
            "pattern_edges": [list(e) for e in self.pattern.edge_list()],
            "edges": [list(e) for e in self.iter_edges()],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "PartiteGraph":
        fmt = json_field(data, "format", object, "graph", None)
        if fmt != GRAPH_FORMAT:
            raise ValueError(f"unsupported graph format: {fmt!r}")
        pattern = Pattern(
            json_field(data, "k", int, "graph"), json_rows(data, "pattern_edges", 2, "graph")
        )
        return PartiteGraph.from_edges(
            pattern, json_field(data, "n", int, "graph"), json_rows(data, "edges", 4, "graph")
        )

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")

    @staticmethod
    def load(path) -> "PartiteGraph":
        with open(path) as fh:
            return PartiteGraph.from_json_dict(json.load(fh))


# -- module-level operations ----------------------------------------------


def delta_star(G: PartiteGraph) -> int:
    """Partite minimum degree: worst degree across any pattern edge."""
    if not G.pattern.edges:
        raise ValueError("empty pattern: partite minimum degree undefined")
    # _adj holds both orientations of every pattern edge, so one min over
    # every stored row takes the worst degree in both directions
    return min(map(int.bit_count, chain.from_iterable(G._adj.values())))


def is_transversal_tuple(G: PartiteGraph, verts: Sequence[int]) -> bool:
    """True iff the indices `verts`, verts[p-1] in part p, pick one vertex
    of G per part and realize every pattern edge."""
    if len(verts) != G.k or not all(0 <= i < G.n for i in verts):
        return False
    adj = G._adj  # rows read directly: a pattern edge always has them
    return all(adj[i, j][verts[i - 1]] >> verts[j - 1] & 1 for i, j in G.pattern.edges)
