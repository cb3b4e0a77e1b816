"""Scale graphs, clique (flag) complexes, and simplex listings.

The scale-k graph of a finite metric space joins two vertices when their
distance is positive and at most k; its clique complex is the Vietoris-Rips
complex at scale k under the closed convention (a simplex is any vertex set
of diameter at most k).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

from .errors import BudgetError, SimplexBudgetError, TruncatedComplexError
from .spaces import FiniteMetricSpace

Simplex = tuple[int, ...]

DEFAULT_SIMPLEX_BUDGET = 50_000_000

# Parents extended between two readings of the deadline clock.
_DEADLINE_CHUNK = 4096


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set-bit positions of a nonnegative int in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected graph with sorted neighbor lists and bitmask adjacency.

    ``masks[u]`` has bit v set iff {u, v} is an edge; the bitmask form is what
    the clique enumeration and the maximal-clique search operate on.
    """

    vertex_count: int
    neighbors: tuple[tuple[int, ...], ...]
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
        neighbors = tuple(tuple(iter_bits(m)) for m in masks)
        return cls(vertex_count=vertex_count, neighbors=neighbors, masks=tuple(masks))

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def has_edge(self, u: int, v: int) -> bool:
        return (self.masks[u] >> v) & 1 == 1

    def edge_count(self) -> int:
        return sum(len(nb) for nb in self.neighbors) // 2

    def is_complete(self) -> bool:
        full = self.vertex_count - 1
        return all(len(nb) == full for nb in self.neighbors)


def vr_graph(space: FiniteMetricSpace, k: int) -> Graph:
    """Scale-k graph of a finite metric space: edge iff 0 < distance <= k."""
    if k < 0:
        raise ValueError(f"scale must be nonnegative, got {k}")
    n = space.point_count
    dist = space.distance
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if 0 < dist(u, v) <= k]
    return Graph.from_edges(n, edges)


@dataclass(frozen=True, eq=False)
class FlagComplex:
    """Clique complex of a graph, enumerated up to a dimension cap.

    ``simplices[d]`` lists the d-simplices (cliques of d + 1 vertices) as
    ascending vertex tuples in lexicographic order.  ``complete`` is True when
    the enumeration proved no simplex beyond the last listed dimension exists,
    so the listed skeleton is the whole complex.
    """

    graph: Graph
    max_dim: int
    simplices: tuple[tuple[Simplex, ...], ...]
    counts: tuple[int, ...]
    complete: bool

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


def enumerate_simplices(
    graph: Graph,
    max_dim: int,
    budget: int | None = DEFAULT_SIMPLEX_BUDGET,
    deadline: float | None = None,
) -> FlagComplex:
    """Enumerate all cliques of the graph with at most max_dim + 1 vertices.

    Dimension d + 1 is built from dimension d by extending each simplex with
    the vertices beyond its last member that are adjacent to all of it, which
    the bitmask form reduces to one AND per extension.  Output order within a
    dimension is lexicographic, and the whole enumeration is deterministic.
    Those extension bitmasks give the exact size of the next dimension, so
    the budget refuses it before any of it is built.

    Args:
        graph: the graph whose clique complex is wanted.
        max_dim: inclusive dimension cap; must be nonnegative.
        budget: global cap on the number of simplices across all dimensions.
            Exceeding it raises SimplexBudgetError naming the dimension
            reached; pass None to disable.
        deadline: optional time.monotonic() cutoff, checked before every
            4096 simplices are extended.

    Returns:
        A FlagComplex; its ``complete`` flag is True iff the complex has no
        simplex of dimension above the last enumerated one.
    """
    if max_dim < 0:
        raise ValueError(f"max_dim must be nonnegative, got {max_dim}")
    n = graph.vertex_count
    masks = graph.masks

    layer: list[Simplex] = [(v,) for v in range(n)]
    cands: list[int] = [masks[v] & -(1 << (v + 1)) for v in range(n)]
    layers: list[tuple[Simplex, ...]] = [tuple(layer)]
    total = n
    if budget is not None and total > budget:
        raise SimplexBudgetError(budget, 0)

    complete = False
    for d in range(1, max_dim + 1):
        size = sum(map(int.bit_count, cands))
        if not size:
            complete = True
            break
        total += size
        if budget is not None and total > budget:
            raise SimplexBudgetError(budget, d)
        next_layer: list[Simplex] = []
        next_cands: list[int] = []
        append_s = next_layer.append
        append_c = next_cands.append
        for start in range(0, len(layer), _DEADLINE_CHUNK):
            if deadline is not None and time.monotonic() > deadline:
                raise BudgetError(f"time budget exceeded while enumerating dimension {d}")
            stop = start + _DEADLINE_CHUNK
            for sigma, cand in zip(layer[start:stop], cands[start:stop]):
                m = cand
                while m:
                    low = m & -m
                    v = low.bit_length() - 1
                    m ^= low
                    append_s(sigma + (v,))
                    append_c(cand & masks[v] & -(low << 1))
        layers.append(tuple(next_layer))
        layer = next_layer
        cands = next_cands

    if not complete:
        complete = all(c == 0 for c in cands)

    return FlagComplex(
        graph=graph,
        max_dim=max_dim,
        simplices=tuple(layers),
        counts=tuple(len(ls) for ls in layers),
        complete=complete,
    )


def euler_characteristic(cx: FlagComplex) -> int:
    """Alternating sum of simplex counts; refuses truncated complexes."""
    if not cx.complete:
        raise TruncatedComplexError(
            f"complex truncated at dimension {cx.top_dim}; Euler characteristic unknown"
        )
    return sum(c if d % 2 == 0 else -c for d, c in enumerate(cx.counts))


def format_simplex_lines(
    simplices: Iterable[Simplex], header: dict[str, object] | None = None
) -> str:
    """Render simplices in the one-per-line text format.

    Each line carries the ascending vertex indices of one simplex separated by
    single spaces; lines are sorted lexicographically as integer tuples.
    Header entries become leading ``# key: value`` lines.
    """
    lines = []
    if header:
        for key, value in header.items():
            lines.append(f"# {key}: {value}")
    for sigma in sorted(simplices):
        if list(sigma) != sorted(set(sigma)):
            raise ValueError(f"simplex {sigma} is not strictly ascending")
        lines.append(" ".join(str(v) for v in sigma))
    return "\n".join(lines) + "\n"


def write_simplex_list(
    f: TextIO, simplices: Iterable[Simplex], header: dict[str, object] | None = None
) -> None:
    f.write(format_simplex_lines(simplices, header))


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
