"""Scale graphs, clique (flag) complexes, and simplex listings.

The scale-k graph of a finite metric space joins two vertices when their
distance is positive and at most k; its clique complex is the Vietoris-Rips
complex at scale k under the closed convention (a simplex is any vertex set
of diameter at most k).  Neighbourhoods and simplices alike are stored as
vertex bitmasks, bit v set iff v is in the set; vertex tuples are made only
for listings.  ``iter_layers`` streams the complex one dimension at a time,
each simplex with its extension mask, and ``enumerate_simplices`` collects it.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, TextIO

from .errors import BudgetError, SimplexBudgetError, TruncatedComplexError
from .spaces import FiniteMetricSpace

Simplex = tuple[int, ...]

DEFAULT_SIMPLEX_BUDGET = 50_000_000

# Parents extended between two readings of the deadline clock.
_DEADLINE_CHUNK = 4096

# Farthest-point landmarks whose distance rows filter the pairs of vr_graph.
_LANDMARKS = 4


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set-bit positions of a nonnegative int in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected graph stored as one adjacency bitmask per vertex.

    ``masks[u]`` has bit v set iff {u, v} is an edge.  Degrees and edge
    counts are popcounts of these masks, and the clique enumeration, the
    maximal-clique search and the certificates all operate on them directly.
    """

    vertex_count: int
    masks: tuple[int, ...]

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if vertex_count < 1:
            raise ValueError(f"vertex_count must be positive, got {vertex_count}")
        masks = [0] * vertex_count
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop edge at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return cls(vertex_count=vertex_count, masks=tuple(masks))

    def degree(self, v: int) -> int:
        return self.masks[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return (self.masks[u] >> v) & 1 == 1

    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.masks)) // 2

    def is_complete(self) -> bool:
        full = self.vertex_count - 1
        return all(m.bit_count() == full for m in self.masks)


def vr_graph(space: FiniteMetricSpace, k: int) -> Graph:
    """Scale-k graph of a finite metric space: edge iff 0 < distance <= k.

    Most pairs are settled by the triangle inequality through four
    farthest-point landmarks, so ``distance`` is called on few pairs besides
    the landmark rows.  For a landmark l, a pair u, v with
    |d(l, u) - d(l, v)| > k cannot be an edge, and a pair with
    d(l, u) + d(l, v) <= k must be one.  Bucketing the vertices by their
    distance to each landmark into prefix bitmasks turns both tests into one
    AND or OR of prefix windows per landmark; only pairs that pass every
    window and no sum test are measured.  The result is exact for any space
    satisfying the axioms of :class:`FiniteMetricSpace`.
    """
    if k < 0:
        raise ValueError(f"scale must be nonnegative, got {k}")
    n = space.point_count
    dist = space.distance

    # (distances to the landmark, prefix masks) per landmark, where bit v of
    # prefix[d] is set iff d(landmark, v) <= d.
    landmarks: list[tuple[list[int], list[int]]] = []
    nearest: list[int] = []
    centre = 0
    for _ in range(_LANDMARKS):
        row = [dist(centre, v) for v in range(n)]
        prefix = [0] * (max(row) + 1)
        for v, d in enumerate(row):
            prefix[d] |= 1 << v
        for d in range(1, len(prefix)):
            prefix[d] |= prefix[d - 1]
        landmarks.append((row, prefix))
        nearest = list(map(min, nearest, row)) if nearest else row
        farthest = max(nearest)
        if farthest == 0:
            break
        centre = nearest.index(farthest)

    masks = [0] * n
    for u in range(n):
        possible = -1
        certain = 0
        for row, prefix in landmarks:
            du = row[u]
            top = len(prefix) - 1
            window = prefix[min(du + k, top)]
            if du > k:
                window &= ~prefix[du - k - 1]
            possible &= window
            if du <= k:
                certain |= prefix[min(k - du, top)]
        bit = 1 << u
        masks[u] |= certain & ~bit
        # Pairs still open; each is measured once, from its smaller end.
        unknown = (possible & ~certain) >> (u + 1)
        found = 0
        while unknown:
            low = unknown & -unknown
            unknown ^= low
            v = u + low.bit_length()
            if dist(u, v) <= k:
                found |= low
                masks[v] |= bit
        masks[u] |= found << (u + 1)
    return Graph(vertex_count=n, masks=tuple(masks))


@dataclass(frozen=True, eq=False)
class FlagComplex:
    """Clique complex of a graph, enumerated up to a dimension cap.

    ``keys[d]`` lists the d-simplices (cliques of d + 1 vertices) as vertex
    bitmasks in the lexicographic order of their vertex tuples, which
    ``simplices[d]`` builds on first access.  ``complete`` is True when the
    enumeration proved no simplex beyond the last listed dimension exists,
    so the listed skeleton is the whole complex.
    """

    graph: Graph
    keys: tuple[tuple[int, ...], ...]
    counts: tuple[int, ...]
    complete: bool

    @cached_property
    def simplices(self) -> tuple[tuple[Simplex, ...], ...]:
        return tuple(tuple(tuple(iter_bits(key)) for key in layer) for layer in self.keys)

    @property
    def top_dim(self) -> int:
        return len(self.counts) - 1

    def count_at(self, d: int) -> int:
        """Simplex count at dimension d; 0 beyond the listed range of a complete complex."""
        if 0 <= d <= self.top_dim:
            return self.counts[d]
        if d > self.top_dim and self.complete:
            return 0
        raise TruncatedComplexError(
            f"complex truncated at dimension {self.top_dim}; count at {d} unknown"
        )


def iter_layers(
    graph: Graph,
    max_dim: int | None = None,
    budget: int | None = DEFAULT_SIMPLEX_BUDGET,
    deadline: float | None = None,
) -> Iterator[tuple[list[int], list[int]]]:
    """Yield the clique layers of the graph from dimension 0 up, each when asked for.

    Layer d is the list of d-simplices as vertex bitmasks, in the
    lexicographic order of their vertex tuples, and the list of their
    extension masks ``cand``: the vertices beyond the last member adjacent to
    all of it.  Layer d + 1 takes one AND per extension and one OR per new
    key.  The stream ends after max_dim or before an empty layer.  The
    popcounts of ``cands`` are the exact size of layer d + 1, so the budget,
    a cap on simplices across all dimensions, refuses it with
    SimplexBudgetError before layer d is handed out.  The deadline, a
    time.monotonic() cutoff, is read every 4096 parents extended.
    """
    if max_dim is not None and max_dim < 0:
        raise ValueError(f"max_dim must be nonnegative, got {max_dim}")
    n = graph.vertex_count
    masks = graph.masks
    keys: list[int] = [1 << v for v in range(n)]
    cands: list[int] = [masks[v] & -(1 << (v + 1)) for v in range(n)]
    total = n
    if budget is not None and total > budget:
        raise SimplexBudgetError(budget, 0)
    for d in itertools.count():
        size = sum(map(int.bit_count, cands))
        if not size or d == max_dim:
            yield keys, cands
            return
        total += size
        if budget is not None and total > budget:
            raise SimplexBudgetError(budget, d + 1)
        yield keys, cands
        next_keys: list[int] = []
        next_cands: list[int] = []
        append_s = next_keys.append
        append_c = next_cands.append
        for start in range(0, len(keys), _DEADLINE_CHUNK):
            if deadline is not None and time.monotonic() > deadline:
                raise BudgetError(f"time budget exceeded while enumerating dimension {d + 1}")
            stop = start + _DEADLINE_CHUNK
            for key, cand in zip(keys[start:stop], cands[start:stop]):
                m = cand
                while m:
                    low = m & -m
                    m ^= low
                    append_s(key | low)
                    append_c(cand & masks[low.bit_length() - 1] & -(low << 1))
        keys, cands = next_keys, next_cands


def enumerate_simplices(
    graph: Graph,
    max_dim: int,
    budget: int | None = DEFAULT_SIMPLEX_BUDGET,
    deadline: float | None = None,
) -> FlagComplex:
    """All cliques of the graph with at most max_dim + 1 vertices, from ``iter_layers``.

    max_dim must be nonnegative; the budget (None disables it) and the
    deadline act as in ``iter_layers``.  The FlagComplex is ``complete`` iff
    the complex has no simplex above the last enumerated dimension.
    """
    layers = []
    for keys, cands in iter_layers(graph, max_dim, budget, deadline):
        layers.append(tuple(keys))
    return FlagComplex(
        graph=graph,
        keys=tuple(layers),
        counts=tuple(map(len, layers)),
        complete=len(layers) <= max_dim or not any(cands),
    )


def euler_characteristic(counts: FlagComplex | Iterable[int]) -> int:
    """Alternating sum of simplex counts or Betti numbers; refuses a truncated complex."""
    if isinstance(counts, FlagComplex):
        if not counts.complete:
            raise TruncatedComplexError(
                f"complex truncated at dimension {counts.top_dim}; Euler characteristic unknown"
            )
        counts = counts.counts
    return sum(c if d % 2 == 0 else -c for d, c in enumerate(counts))


def format_simplex_lines(
    simplices: Iterable[Simplex], header: dict[str, object] | None = None
) -> str:
    """Render simplices in the one-per-line text format.

    Each line carries the ascending vertex indices of one simplex separated by
    single spaces; lines are sorted lexicographically as integer tuples.
    Header entries become leading ``# key: value`` lines, except those whose
    value is None, which the format cannot write.
    """
    lines = [f"# {key}: {value}" for key, value in (header or {}).items() if value is not None]
    for sigma in sorted(simplices):
        if list(sigma) != sorted(set(sigma)):
            raise ValueError(f"simplex {sigma} is not strictly ascending")
        lines.append(" ".join(str(v) for v in sigma))
    return "\n".join(lines) + "\n"


def read_simplex_list(f: TextIO) -> tuple[dict[str, str], list[Simplex]]:
    """Parse the text format back into a header dict and a simplex list."""
    header: dict[str, str] = {}
    simplices: list[Simplex] = []
    for raw in f:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if ":" in body:
                key, value = body.split(":", 1)
                header[key.strip()] = value.strip()
            continue
        sigma = tuple(int(tok) for tok in line.split())
        if list(sigma) != sorted(set(sigma)):
            raise ValueError(f"malformed simplex line: {line!r}")
        simplices.append(sigma)
    return header, simplices
