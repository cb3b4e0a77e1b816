"""Closed-form facet catalogs and the brute-force maximal-clique oracle.

Facets (maximal simplices) of the scale-k Vietoris-Rips complex have exact
descriptions for the plane lattice, for cycles away from a few short-cycle
regimes, and for torus grids in the regimes implemented here.  Every plane
facet is an integer translate of one of two fixed point sets per scale (see
``_diamonds``): the window catalog keeps the translates inside the window's
interior, and the torus catalog lays both sets at all n * n translates
mod n.  Like the oracle, each catalog holds a facet as a vertex bitmask
(bit v set iff v is in it) and builds it by shifting one stencil mask, so
the two sets compare as ints; ``FacetSet`` decodes ascending vertex tuples
only for listings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .complexes import Graph, Simplex, iter_bits
from .errors import BudgetError, UnsupportedRegimeError
from .spaces import Window

BRUTE_FORCE_VERTEX_BUDGET = 2000
# A graph far under the vertex budget can still have exponentially many
# maximal cliques: the cross-polytope boundary of T8 k7 has 2**32.
BRUTE_FORCE_CLIQUE_BUDGET = 1_000_000


@dataclass(frozen=True)
class FacetSet:
    """An immutable set of facet bitmasks, iterated as ascending vertex tuples in sorted order."""

    facets: frozenset[int]

    def __len__(self) -> int:
        return len(self.facets)

    def __iter__(self) -> Iterator[Simplex]:
        return iter(sorted(tuple(iter_bits(mask)) for mask in self.facets))

    def symmetric_difference(self, other: "FacetSet") -> tuple[list[Simplex], list[Simplex]]:
        """Facets only in self and only in other, as sorted ascending tuples."""
        return list(FacetSet(self.facets - other.facets)), list(FacetSet(other.facets - self.facets))


def _rotate(mask: int, shift: int, width: int) -> int:
    """A width-bit mask rotated up by shift bits, 0 <= shift < width."""
    return (mask << shift | mask >> width - shift) & ((1 << width) - 1)


def _diamonds(k: int) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """The two plane facet stencils of scale k, as ascending (dx, dy) offsets.

    A plane facet is the set of lattice points within L1 distance k/2 of an
    admissible center.  In doubled coordinates the admissible centers are
    the integer translates of two base centers: (0, 0) and (1, 1) for even
    k, (1, 0) and (0, 1) for odd k.  Each stencil lists the points p with
    |2 * p.x - cx| + |2 * p.y - cy| <= k for one base center (cx, cy), so
    every plane facet is an integer translate of one of the two.
    """
    centers = ((0, 0), (1, 1)) if k % 2 == 0 else ((1, 0), (0, 1))
    return tuple(
        tuple(
            (x, y)
            for x in range(-k, k + 1)
            for y in range(-k, k + 1)
            if abs(2 * x - cx) + abs(2 * y - cy) <= k
        )
        for cx, cy in centers
    )


def z2_facets_in_window(window: Window, k: int) -> FacetSet:
    """Interior facets of the scale-k complex of a lattice window.

    Only facets lying at least ceil(k/2) away from the window boundary are
    returned; everything nearer the edge is truncated by the window and is
    not a facet of the full plane.  They are the translates of the two
    stencils of ``_diamonds`` that fit inside that interior box, each one
    stencil mask shifted by its base index.  The window must be at least
    2k + 3 on each side so that an interior region exists.
    """
    if k < 1:
        raise ValueError(f"scale must be at least 1, got {k}")
    side = 2 * k + 3
    if window.width < side or window.height < side:
        raise ValueError(
            f"window {window.width}x{window.height} too small for scale {k}; "
            f"need at least {side} on each side"
        )
    margin = (k + 1) // 2
    height = window.height
    facets = set()
    for stencil in _diamonds(k):
        xs, ys = zip(*stencil)
        # The stencil's bounding box at the window origin, shifted by a * height + b.
        shape = sum(1 << (dx - min(xs)) * height + dy - min(ys) for dx, dy in stencil)
        for a in range(margin, window.width - margin - max(xs) + min(xs)):
            for b in range(margin, height - margin - max(ys) + min(ys)):
                facets.add(shape << a * height + b)
    return FacetSet(facets=frozenset(facets))


@lru_cache(maxsize=8)
def _interior(window: Window, k: int) -> int:
    """The mask of the window indices at least ceil(k/2) off the boundary."""
    margin = (k + 1) // 2
    column = (1 << max(window.height - 2 * margin, 0)) - 1 << margin
    return sum(column << dx * window.height for dx in range(margin, window.width - margin))


def in_window_interior(window: Window, k: int, mask: int) -> bool:
    """True when every vertex of a window-index mask is ceil(k/2) off the boundary.

    Raises ValueError for a mask with a bit at or past the window's width * height.
    """
    size = window.width * window.height
    if mask >> size:
        raise ValueError(f"mask {mask:#x} has an index out of range for the {size} "
                         f"vertices of window {window}")
    return not mask & ~_interior(window, k)


def _axis_facets(n: int, k: int) -> set[int] | None:
    """Facets of the scale-k complex of the n-cycle other than its arcs, as n-bit masks.

    Empty for n > 3k; the rotations of the offsets (0, k, 2k) for n = 3k
    with k >= 2, and of (0, k, 2k - 1, 2k) for n = 3k - 1 with k >= 3;
    None in every other regime.  The torus catalog lays each of them along
    every row and every column.
    """
    if n > 3 * k:
        return set()
    if n == 3 * k and k >= 2:
        offsets = (0, k, 2 * k)
    elif n == 3 * k - 1 and k >= 3:
        offsets = (0, k, 2 * k - 1, 2 * k)
    else:
        return None
    line = sum(1 << o for o in offsets)
    return {_rotate(line, i, n) for i in range(n)}


def cycle_facets(n: int, k: int) -> FacetSet:
    """Facets of the scale-k complex of the n-cycle, by closed form.

    Supported regimes: n > 3k gives the n arcs of k + 1 consecutive vertices;
    n = 3k (k >= 2) adds the equally spaced triples; n = 3k - 1 (k >= 3) adds
    the near-equally-spaced 4-point sets.  Other (n, k) raise
    UnsupportedRegimeError.  Each facet is a rotation of one n-bit mask, and
    rotations that coincide are collapsed, so counts reflect distinct facets.
    """
    if n < 3:
        raise ValueError(f"cycle length must be at least 3, got {n}")
    if k < 1:
        raise ValueError(f"scale must be at least 1, got {k}")

    extras = _axis_facets(n, k)
    if extras is None:
        raise UnsupportedRegimeError(
            f"no closed-form cycle facet catalog for n={n}, k={k}; "
            "supported: n > 3k, n = 3k with k >= 2, n = 3k - 1 with k >= 3"
        )
    arc = (1 << k + 1) - 1
    return FacetSet(facets=frozenset({_rotate(arc, i, n) for i in range(n)} | extras))


def torus_facets(n: int, k: int) -> FacetSet:
    """Facets of the scale-k complex of the n-by-n torus grid, by closed form.

    Supported regimes: n > 3k with k >= 2 (the n * n translates mod n of
    both plane stencils of ``_diamonds`` only), n = 3k with k >= 2 (plus row
    and column triples), and n = 3k - 1 with k >= 3 (plus row and column
    4-point sets).  Everything else raises UnsupportedRegimeError and must
    go through the brute-force oracle.  Each stencil is laid mod n at the n
    column offsets once; a row translate rotates those n * n-bit masks by a
    multiple of n.
    """
    if n < 3:
        raise ValueError(f"torus side must be at least 3, got {n}")
    if k < 1:
        raise ValueError(f"scale must be at least 1, got {k}")

    axis = _axis_facets(n, k)
    if axis is None or k < 2:
        raise UnsupportedRegimeError(
            f"no closed-form torus facet catalog for n={n}, k={k}; "
            "supported: n > 3k (k >= 2), n = 3k (k >= 2), n = 3k - 1 (k >= 3)"
        )
    size = n * n
    facets: set[int] = set()
    for stencil in _diamonds(k):
        for b in range(n):
            # A repeated cell carries into another bit, so the popcount falls short.
            column = sum(1 << dx % n * n + (b + dy) % n for dx, dy in stencil)
            if column.bit_count() != len(stencil):
                raise RuntimeError(
                    f"a stencil of scale {k} wraps onto itself on the torus of side {n}; "
                    "catalog construction invariant violated"
                )
            facets.update(_rotate(column, a * n, size) for a in range(n))
    if len(facets) != 2 * size:
        raise RuntimeError(
            f"translated stencil family for n={n}, k={k} has {len(facets)} members, "
            f"expected {2 * size}; catalog construction invariant violated"
        )
    for line in axis:
        rows = sum(1 << r * n for r in iter_bits(line))
        for b in range(n):
            facets.add(rows << b)
            facets.add(line << b * n)
    return FacetSet(facets=frozenset(facets))


def check_brute_force_budget(vertex_count: int) -> None:
    """Raise BudgetError when a brute-force facet search would pass the vertex budget.

    Callers that build the scale graph only for the search check its point
    count first, so a refused run builds nothing whose size grows with it.
    """
    if vertex_count > BRUTE_FORCE_VERTEX_BUDGET:
        raise BudgetError(
            f"brute-force facet search limited to {BRUTE_FORCE_VERTEX_BUDGET} vertices, "
            f"graph has {vertex_count}"
        )


def brute_force_facets(graph: Graph) -> FacetSet:
    """All maximal cliques of a graph via Bron-Kerbosch with pivoting.

    Each node holds a clique R, its candidates P and its excluded vertices
    X, all as bitmasks.  A node with X nonempty scans X alone and pivots on
    the X vertex whose neighbourhood covers most of P; one adjacent to all
    of P ends the node, since every maximal clique below it would extend by
    that vertex.  Only a node with X empty scans P: one pass finds its
    universal vertices U, those adjacent to all the rest of P, and the best
    vertex outside U.  Every clique C with R <= C <= R + P extends by each
    vertex of U, so the node (R, P, {}) equals (R + U, P - U, {}) and the
    search moves U across at once; once P is empty the node reports R.
    Otherwise the pivot is that best vertex of P - U.

    The worst-case bound of Tomita, Tanaka & Takahashi (2006), O(3**(n/3))
    for n vertices, is proved for the vertex of P + X of largest coverage;
    skipping the P scan where X is nonempty rests on measurement instead.
    Against a search that scanned P at every node, it cuts the
    adjacency-mask reads from 425,355 to 144,559 on T30 k6, from 366,980 to
    111,495 on T24 k7 and from 227,195 to 93,616 on the 31 x 31 window at
    k5 (three of the benchmark's catalog graphs), and from 4,840,895 to
    4,685,941 on a random G(60, 0.9) and from 388,484 to 332,505 on a random
    G(120, 0.5); it leaves T6 k5 (262,144 facets) at 2,359,251 and the
    Moon-Moser graphs K3x10 and K4x8 at 339,511 and 313,101.

    The scans walk from the top bit down and keep the first vertex of
    largest coverage, and the node branches on P less the pivot's
    neighbours, also from the top down.  The last branch extends R in place
    and loops instead of recursing, so a chain of single-branch nodes costs
    no recursion.  Any pivot in P + X yields every maximal clique exactly
    once (Bron & Kerbosch 1973), so the pivot rule and the scan order change
    the search tree, never the facet set; the search is deterministic, and
    a clique reported twice raises RuntimeError.  Each facet is the clique
    mask the search already holds.
    Refuses graphs above the vertex budget, through
    ``check_brute_force_budget``, and raises BudgetError when it finds one
    more maximal clique than ``BRUTE_FORCE_CLIQUE_BUDGET``, rather than
    running unbounded.
    """
    n = graph.vertex_count
    check_brute_force_budget(n)
    masks = graph.masks
    out: list[int] = []

    def expand(clique: int, candidates: int, excluded: int) -> None:
        while candidates:
            size = candidates.bit_count()
            best = -1
            if excluded:
                m = excluded
                while m:
                    u = m.bit_length() - 1
                    m ^= 1 << u
                    c = (candidates & masks[u]).bit_count()
                    if c > best:
                        if c == size:
                            return
                        best = c
                        pivot = u
            else:
                universal = 0
                m = candidates
                while m:
                    u = m.bit_length() - 1
                    bit = 1 << u
                    m ^= bit
                    c = (candidates & masks[u]).bit_count()
                    if c == size - 1:
                        universal |= bit
                    elif c > best:
                        best = c
                        pivot = u
                if universal:
                    clique |= universal
                    candidates ^= universal
                    if not candidates:
                        break
            branch = candidates & masks[pivot] ^ candidates
            while True:
                v = branch.bit_length() - 1
                bit = 1 << v
                branch ^= bit
                if not branch:
                    break
                expand(clique | bit, candidates & masks[v], excluded & masks[v])
                candidates ^= bit
                excluded |= bit
            clique |= bit
            candidates &= masks[v]
            excluded &= masks[v]
        if not excluded:
            if len(out) == BRUTE_FORCE_CLIQUE_BUDGET:
                raise BudgetError(
                    f"brute-force facet search limited to {BRUTE_FORCE_CLIQUE_BUDGET} "
                    "maximal cliques"
                )
            out.append(clique)

    expand(0, (1 << n) - 1, 0)
    facets = frozenset(out)
    if len(facets) != len(out):
        raise RuntimeError(f"Bron-Kerbosch reported {len(out) - len(facets)} repeated cliques")
    return FacetSet(facets=facets)


def is_maximal_clique(graph: Graph, mask: int) -> bool:
    """Check that the vertices of a mask are pairwise adjacent and extend to no larger clique."""
    common = (1 << graph.vertex_count) - 1
    for v in iter_bits(mask):
        neighbours = graph.masks[v]
        if mask & ~neighbours != 1 << v:
            return False
        common &= neighbours
    return not common
