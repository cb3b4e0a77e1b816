"""Scale graphs and their clique (flag) complexes.

The scale-k graph of a finite metric space joins two vertices when their
distance is positive and at most k; its clique complex is the Vietoris-Rips
complex at scale k under the closed convention (a simplex is any vertex set
of diameter at most k).  Neighbourhoods and simplices alike are stored as
vertex bitmasks, bit v set iff v is in the set; vertex tuples are made only
for listings.  ``collapse_edges`` drops dominated edges, keeping the homotopy
type, and ``degeneracy_order`` relabels the vertices smallest-last, which
keeps the clique subtrees small whatever the input's labels.
``scan_clique_tree`` walks the complex one vertex subtree at a time and keeps
only what the coboundary reducer needs: the counts per dimension, the number
of simplices with an extension and the dead ends.  One layer loop extends
each subtree; it keeps the keys and extension masks of the simplices below
max_dim that extend, and of layer max_dim only the extension masks.
``enumerate_simplices`` builds whole layers, one from the other, and keeps
them in a ``FlagComplex``: the tests' unbounded reference listing, which
library runs never reach and the package root does not export.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import BudgetError, SimplexBudgetError, TruncatedComplexError
from .spaces import FiniteMetricSpace

Simplex = tuple[int, ...]

DEFAULT_SIMPLEX_BUDGET = 50_000_000

# Scale-graph rows, edges visited, vertices ordered, parents extended or
# reducer columns drawn between two readings of the deadline clock.
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


def _check_deadline(deadline: float | None, doing: str) -> None:
    """The library's one clock reading: raise BudgetError once a deadline has passed."""
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetError(f"time budget exceeded {doing}")


def vr_graph(space: FiniteMetricSpace, k: int, deadline: float | None = None) -> Graph:
    """Scale-k graph of a finite metric space: edge iff 0 < distance <= k.

    Most pairs are settled by the triangle inequality through four
    farthest-point landmarks, so ``distance`` is called on few pairs besides
    the landmark rows.  For a landmark l, a pair u, v with
    |d(l, u) - d(l, v)| > k cannot be an edge, and a pair with
    d(l, u) + d(l, v) <= k must be one.  Bucketing the vertices by their
    distance to each landmark into prefix bitmasks turns both tests into one
    AND or OR of prefix windows per landmark; only pairs that pass every
    window and no sum test are measured.  The result is exact for any space
    satisfying the axioms of :class:`FiniteMetricSpace`.  The deadline, a
    time.monotonic() value, is read before each landmark row and every 4096
    vertex rows.
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
        _check_deadline(deadline, "while building the scale graph")
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
        if u % _DEADLINE_CHUNK == 0:
            _check_deadline(deadline, "while building the scale graph")
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


def collapse_edges(graph: Graph, deadline: float | None = None) -> Graph:
    """The graph less its dominated edges, removed pass by pass to a fixed point.

    Edge uv is dominated when a common neighbour w has N[u] ∩ N[v] ⊆ N[w], and
    removing it keeps the flag complex's homotopy type (Boissonnat & Pritam,
    SoCG 2020).  Each pass visits the edges u < v in ascending order against
    the current masks, until a pass removes nothing.

    Masks only lose bits, so an edge found undominated stays so until u or v
    loses a neighbour: its common neighbourhood C is unchanged and every N[w]
    has only shrunk.  Pass 1 tests every edge; a later pass tests uv only if
    u or v lost an edge in the previous pass or earlier in this one, and
    skips the rest.  A dominator of uv is adjacent to every other vertex of
    C, so the search tests the lowest candidate w and, if it fails, keeps
    only the candidates in N(w).  The edges removed, and their order, are
    those of a full rescan.  The deadline is read every 4096 edges visited,
    skipped ones included.
    """
    # changed: vertices that lost an edge this pass; -1 (all of them) before pass 1.
    masks, visited, changed = list(graph.masks), 0, -1
    while changed:
        active, changed = changed, 0
        for u in range(graph.vertex_count):
            bit = 1 << u
            row = masks[u] & -(bit << 1)
            while row:
                low = row & -row
                row ^= low
                if deadline is not None and visited % _DEADLINE_CHUNK == 0:
                    _check_deadline(deadline, "while collapsing edges")
                visited += 1
                if not active & (bit | low):
                    continue
                v = low.bit_length() - 1
                common = masks[u] & masks[v]
                left = common
                while left:
                    w = left & -left
                    near = masks[w.bit_length() - 1]
                    if (common | near) ^ near == w:
                        masks[u] ^= low
                        masks[v] ^= bit
                        changed |= bit | low
                        active |= bit | low
                        break
                    left &= near
    return Graph(vertex_count=graph.vertex_count, masks=tuple(masks))


def degeneracy_order(graph: Graph, deadline: float | None = None) -> Graph:
    """The graph relabelled in smallest-last order (Matula & Beck, J. ACM 1983).

    Vertices are removed one at a time, each of least degree among those
    left, the lowest index first on a tie; the i-th removed becomes vertex i.
    So no vertex has more higher neighbours than the graph's degeneracy,
    which bounds the clique subtrees ``scan_clique_tree`` walks (Eppstein,
    Löffler & Strash, ISAAC 2010).  A bucket queue holds one bitmask of the
    vertices left per degree, so each removal and each edge costs a few mask
    operations.  Each new mask first gathers the labels of the neighbours
    removed before its vertex, and one pass over those lower bits adds the
    higher ones.  The deadline is read every 4096 removals.
    """
    n = graph.vertex_count
    masks = graph.masks
    degree = [m.bit_count() for m in masks]
    buckets = [0] * (max(degree) + 1)
    for v, d in enumerate(degree):
        buckets[d] |= 1 << v
    # lower[v]: the new labels of v's neighbours removed so far, as a mask.
    lower = [0] * n
    ordered: list[int] = []
    left = (1 << n) - 1
    least = 0
    for i in range(n):
        if i % _DEADLINE_CHUNK == 0:
            _check_deadline(deadline, "while ordering the vertices")
        while not buckets[least]:
            least += 1
        bucket = buckets[least]
        low = bucket & -bucket
        buckets[least] = bucket ^ low
        left ^= low
        v = low.bit_length() - 1
        ordered.append(lower[v])
        label = 1 << i
        row = masks[v] & left
        while row:
            bit = row & -row
            row ^= bit
            w = bit.bit_length() - 1
            lower[w] |= label
            d = degree[w]
            degree[w] = d - 1
            buckets[d] ^= bit
            buckets[d - 1] |= bit
        # A removal lowers a degree by at most one, so the least by at most one.
        if least:
            least -= 1
    for j in range(n):
        row, label = ordered[j], 1 << j
        while row:
            low = row & -row
            row ^= low
            ordered[low.bit_length() - 1] |= label
    return Graph(vertex_count=n, masks=tuple(ordered))


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


def _has_edge_within(masks: tuple[int, ...], cand: int) -> bool:
    """Whether two vertices of cand are adjacent, so its simplex has a coface two up."""
    while cand:
        low = cand & -cand
        cand ^= low
        if cand & masks[low.bit_length() - 1]:
            return True
    return False


@dataclass(frozen=True, eq=False)
class CliqueScan:
    """What the coboundary reducer needs of a clique complex, from one walk of its clique tree.

    ``counts[d]`` is the number of d-simplices, through the layer above
    max_dim, which is only counted.  For each dimension d the reducer
    reduces, ``apparent[d]`` counts the d-simplices with a nonzero extension
    mask, and ``dead_ends[d]`` lists, in lexicographic order, those with none
    that are not their parent's last child (for d = 0, every vertex with no
    higher neighbour).  ``complete`` is True when no simplex lies above the
    counted layers.
    """

    counts: tuple[int, ...]
    apparent: tuple[int, ...]
    dead_ends: tuple[list[int], ...]
    complete: bool


def scan_clique_tree(
    graph: Graph,
    max_dim: int | None = None,
    budget: int | None = DEFAULT_SIMPLEX_BUDGET,
    deadline: float | None = None,
) -> CliqueScan:
    """Count the clique complex through max_dim + 1, one vertex subtree at a time.

    The clique tree hangs each simplex under the face that drops its top
    vertex, and the subtree of vertex v holds the cliques whose lowest
    vertex is v.  Each subtree is extended layer by layer as in
    ``enumerate_simplices``, and the subtrees in vertex order give every
    dimension in lexicographic order.  One loop builds every layer: the
    simplices below max_dim with a nonzero extension mask are kept, key and
    mask, to be extended; of layer max_dim, never extended, only the nonzero
    masks are kept, and they count the layer above it and probe that layer
    for a simplex one dimension higher.  So the live set is two layers of
    one subtree, plus the dead ends.  None means every dimension.

    The budget caps the running total of simplices, vertices first, and
    refuses with SimplexBudgetError before a subtree layer that would pass it
    is built.  So a complex is refused iff it holds more simplices through
    max_dim + 1 than the budget, and the dimension reported is the one being
    counted when the total passed it.  The deadline, a time.monotonic()
    cutoff, is read before each subtree layer is extended and every 4096
    parents within it.
    """
    if max_dim is not None and max_dim < 0:
        raise ValueError(f"max_dim must be nonnegative, got {max_dim}")
    n = graph.vertex_count
    masks = graph.masks
    counts, apparent, dead_ends = [], [0], [[]]
    total = 0
    reaches = False

    def count(d: int, size: int) -> None:
        nonlocal total
        if d == len(counts):
            counts.append(0)
        counts[d] += size
        total += size
        if budget is not None and total > budget:
            raise SimplexBudgetError(budget, d, total)

    count(0, n)
    for v in range(n):
        key = 1 << v
        cand = masks[v] & -(key << 1)
        if not cand:
            dead_ends[0].append(key)
            continue
        apparent[0] += 1
        # The simplices of layer d - 1 in this subtree that have an extension;
        # of layer max_dim only the extension masks are kept.
        keys, cands = [key], [cand]
        for d in itertools.count(1):
            count(d, sum(map(int.bit_count, cands)))
            if d - 1 == max_dim:
                reaches = reaches or any(_has_edge_within(masks, c) for c in cands)
                break
            if d == len(apparent):
                apparent.append(0)
                dead_ends.append([])
            dead = dead_ends[d].append
            pairs = zip(keys, cands)
            keep = d != max_dim
            next_keys: list[int] = []
            next_cands: list[int] = []
            append_k = next_keys.append
            append_c = next_cands.append
            for _ in range(0, len(keys), _DEADLINE_CHUNK):
                _check_deadline(deadline, f"while enumerating dimension {d}")
                for key, m in itertools.islice(pairs, _DEADLINE_CHUNK):
                    while m:
                        low = m & -m
                        m ^= low
                        c = m & masks[low.bit_length() - 1]
                        if c:
                            if keep:
                                append_k(key | low)
                            append_c(c)
                        elif m:
                            dead(key | low)
            if not next_cands:
                break
            apparent[d] += len(next_cands)
            keys, cands = next_keys, next_cands
    return CliqueScan(
        counts=tuple(counts),
        apparent=tuple(apparent),
        dead_ends=tuple(dead_ends),
        complete=not reaches,
    )


def enumerate_simplices(graph: Graph, max_dim: int) -> FlagComplex:
    """All cliques of the graph with at most max_dim + 1 vertices, layer by layer.

    Layer d lists the d-simplices as vertex bitmasks in the lexicographic
    order of their vertex tuples, each with its extension mask ``cand``: the
    vertices beyond its last member adjacent to all of it.  The bits of cand
    are taken from the lowest up, so once bit v is taken what is left of
    cand is its part above v, and the child key | v gets that part ANDed
    with v's neighbours as its mask.  Layer d + 1 thus takes one AND per
    extension and one OR per new key.  No budget or deadline bounds it: it
    is the unbounded reference listing of the tests, and library runs count
    the complex with ``scan_clique_tree`` instead.  max_dim must be
    nonnegative.  The FlagComplex is ``complete`` iff the complex has no
    simplex above the last enumerated dimension.
    """
    if max_dim < 0:
        raise ValueError(f"max_dim must be nonnegative, got {max_dim}")
    n = graph.vertex_count
    masks = graph.masks
    keys: list[int] = [1 << v for v in range(n)]
    cands: list[int] = [masks[v] & -(1 << (v + 1)) for v in range(n)]
    layers = [tuple(keys)]
    for _ in range(max_dim):
        if not any(cands):
            break
        next_keys: list[int] = []
        next_cands: list[int] = []
        append_k = next_keys.append
        append_c = next_cands.append
        for key, m in zip(keys, cands):
            while m:
                low = m & -m
                m ^= low
                append_k(key | low)
                append_c(m & masks[low.bit_length() - 1])
        keys, cands = next_keys, next_cands
        layers.append(tuple(keys))
    return FlagComplex(
        graph=graph,
        keys=tuple(layers),
        counts=tuple(map(len, layers)),
        complete=not any(cands),
    )


def euler_characteristic(counts: Iterable[int]) -> int:
    """Alternating sum of simplex counts or Betti numbers, dimension 0 first."""
    return sum(c if d % 2 == 0 else -c for d, c in enumerate(counts))

