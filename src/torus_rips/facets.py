"""Closed-form facet catalogs and the brute-force maximal-clique oracle.

Facets (maximal simplices) of the scale-k Vietoris-Rips complex have exact
descriptions for the plane lattice, for cycles away from a few short-cycle
regimes, and for torus grids in the regimes implemented here.  Each catalog
returns plain vertex-index simplices so it can be compared verbatim against
the Bron-Kerbosch oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .complexes import Graph, Simplex, iter_bits
from .errors import BudgetError, UnsupportedRegimeError
from .spaces import HalfIntegerPoint, LatticePoint, Window

BRUTE_FORCE_VERTEX_BUDGET = 2000


@dataclass(frozen=True)
class FacetSet:
    """An immutable set of facets, iterated in sorted order."""

    facets: frozenset[Simplex]

    def __len__(self) -> int:
        return len(self.facets)

    def __iter__(self) -> Iterator[Simplex]:
        return iter(sorted(self.facets))

    def symmetric_difference(self, other: "FacetSet") -> tuple[list[Simplex], list[Simplex]]:
        """Facets only in self and only in other, both sorted."""
        return (
            sorted(self.facets - other.facets),
            sorted(other.facets - self.facets),
        )


@dataclass(frozen=True)
class DiamondCenter:
    """Center of a plane facet at a given scale, in doubled coordinates.

    The lattice points within L1 distance k/2 of an admissible center form a
    facet of the scale-k complex of the plane.  Admissibility is a parity
    condition: for even k both doubled coordinates are even or both odd; for
    odd k exactly one of them is odd.
    """

    center: HalfIntegerPoint
    scale: int

    def __post_init__(self) -> None:
        k = self.scale
        if k < 1:
            raise ValueError(f"scale must be at least 1, got {k}")
        x2, y2 = self.center
        if k % 2 == 0:
            if x2 % 2 != y2 % 2:
                raise ValueError(
                    f"even scale {k} needs doubled coordinates of equal parity, got {(x2, y2)}"
                )
        else:
            if x2 % 2 == y2 % 2:
                raise ValueError(
                    f"odd scale {k} needs exactly one odd doubled coordinate, got {(x2, y2)}"
                )


def z2_facet(center: DiamondCenter) -> tuple[LatticePoint, ...]:
    """Lattice points within L1 distance scale/2 of the center, ascending.

    In doubled coordinates the membership test for point p is
    |2*p.x - x2| + |2*p.y - y2| <= scale, which is exact.
    """
    x2, y2 = center.center
    k = center.scale
    points = []
    x_lo = -((k - x2) // 2)  # ceil((x2 - k) / 2)
    x_hi = (x2 + k) // 2
    for x in range(x_lo, x_hi + 1):
        slack = k - abs(2 * x - x2)
        y_lo = -((slack - y2) // 2)
        y_hi = (y2 + slack) // 2
        for y in range(y_lo, y_hi + 1):
            points.append(LatticePoint(x, y))
    return tuple(sorted(points))


def _admissible_parities(k: int) -> tuple[tuple[int, int], ...]:
    if k % 2 == 0:
        return ((0, 0), (1, 1))
    return ((0, 1), (1, 0))


def z2_facets_in_window(window: Window, k: int) -> FacetSet:
    """Interior facets of the scale-k complex of a lattice window.

    Only facets lying at least ceil(k/2) away from the window boundary are
    returned; everything nearer the edge is truncated by the window and is
    not a facet of the full plane.  Facets are given as window-index
    simplices.  The window must be at least 2k + 3 on each side so that an
    interior region exists.
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
    ix_lo, ix_hi = window.x_min + margin, window.x_max - margin
    iy_lo, iy_hi = window.y_min + margin, window.y_max - margin

    facets = set()
    for x2 in range(2 * ix_lo, 2 * ix_hi + 1):
        for y2 in range(2 * iy_lo, 2 * iy_hi + 1):
            if (x2 % 2, y2 % 2) not in _admissible_parities(k):
                continue
            points = z2_facet(DiamondCenter(HalfIntegerPoint(x2, y2), k))
            if all(ix_lo <= p.x <= ix_hi and iy_lo <= p.y <= iy_hi for p in points):
                facets.add(tuple(sorted(window.index(p) for p in points)))
    return FacetSet(facets=frozenset(facets))


def in_window_interior(window: Window, k: int, simplex: Sequence[int]) -> bool:
    """True when every vertex of a window-index simplex is ceil(k/2) off the boundary."""
    margin = (k + 1) // 2
    for idx in simplex:
        p = window.point(idx)
        if not (
            window.x_min + margin <= p.x <= window.x_max - margin
            and window.y_min + margin <= p.y <= window.y_max - margin
        ):
            return False
    return True


def _axis_facets(n: int, k: int) -> set[Simplex] | None:
    """Facets of the scale-k complex of the n-cycle other than its arcs.

    Empty for n > 3k; the rotations of the offsets (0, k, 2k) for n = 3k
    with k >= 2, and of (0, k, 2k - 1, 2k) for n = 3k - 1 with k >= 3, as
    ascending tuples; None in every other regime.  The torus catalog lays
    each of them along every row and every column.
    """
    if n > 3 * k:
        return set()
    if n == 3 * k and k >= 2:
        offsets = (0, k, 2 * k)
    elif n == 3 * k - 1 and k >= 3:
        offsets = (0, k, 2 * k - 1, 2 * k)
    else:
        return None
    return {tuple(sorted((i + o) % n for o in offsets)) for i in range(n)}


def cycle_facets(n: int, k: int) -> FacetSet:
    """Facets of the scale-k complex of the n-cycle, by closed form.

    Supported regimes: n > 3k gives the n arcs of k + 1 consecutive vertices;
    n = 3k (k >= 2) adds the equally spaced triples; n = 3k - 1 (k >= 3) adds
    the near-equally-spaced 4-point sets.  Other (n, k) raise
    UnsupportedRegimeError.  Duplicate sets arising from index shifts are
    collapsed, so counts reflect distinct facets.
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
    arcs = {tuple(sorted((i + j) % n for j in range(k + 1))) for i in range(n)}
    return FacetSet(facets=frozenset(arcs | extras))


def project_facet(points: Iterable[LatticePoint | tuple[int, int]], n: int) -> Simplex:
    """Project a plane facet onto the n-by-n torus grid, as vertex indices.

    Valid when the torus is wide enough that the projection is injective on
    the facet (n > 2k + 1 at scale k); a collision raises ValueError.  The
    lattice x coordinate maps to the torus row, so the index is
    (x mod n) * n + (y mod n).
    """
    pts = list(points)
    indices = sorted(((x % n) * n + (y % n)) for x, y in pts)
    if len(set(indices)) != len(pts):
        raise ValueError(
            f"projection onto torus side {n} identifies points of the facet; "
            "the torus is too small for this scale"
        )
    return tuple(indices)


def _projected_torus_facets(n: int, k: int) -> set[Simplex]:
    """Projections of one period of plane facets; 2 * n * n distinct facets."""
    facets: set[Simplex] = set()
    for x2 in range(2 * n):
        for y2 in range(2 * n):
            if (x2 % 2, y2 % 2) not in _admissible_parities(k):
                continue
            facets.add(project_facet(z2_facet(DiamondCenter(HalfIntegerPoint(x2, y2), k)), n))
    if len(facets) != 2 * n * n:
        raise RuntimeError(
            f"projected facet family for n={n}, k={k} has {len(facets)} members, "
            f"expected {2 * n * n}; catalog construction invariant violated"
        )
    return facets


def torus_facets(n: int, k: int) -> FacetSet:
    """Facets of the scale-k complex of the n-by-n torus grid, by closed form.

    Supported regimes: n > 3k with k >= 2 (projected plane facets only),
    n = 3k with k >= 2 (plus row and column triples), and n = 3k - 1 with
    k >= 3 (plus row and column 4-point sets).  Everything else raises
    UnsupportedRegimeError and must go through the brute-force oracle.
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
    facets = _projected_torus_facets(n, k)
    for line in axis:
        for b in range(n):
            # line is ascending, so both vertex lists are too.
            facets.add(tuple(r * n + b for r in line))
            facets.add(tuple(b * n + r for r in line))
    return FacetSet(facets=frozenset(facets))


def brute_force_facets(graph: Graph) -> FacetSet:
    """All maximal cliques of a graph via Bron-Kerbosch with pivoting.

    Deterministic: the pivot scan walks the candidates and excluded vertices
    in ascending order and keeps the first one with the largest candidate
    coverage, stopping early at the first vertex that leaves at most one
    branch; branching follows ascending vertex order.  Any pivot from the
    candidates and excluded vertices yields every maximal clique exactly
    once, so the early stop changes the search tree, never the facet set;
    a clique reported twice raises RuntimeError.  Refuses graphs above the
    vertex budget rather than running unbounded.
    """
    n = graph.vertex_count
    if n > BRUTE_FORCE_VERTEX_BUDGET:
        raise BudgetError(
            f"brute-force facet search limited to {BRUTE_FORCE_VERTEX_BUDGET} vertices, "
            f"graph has {n}"
        )
    masks = graph.masks
    out: list[Simplex] = []

    def expand(clique: int, candidates: int, excluded: int) -> None:
        if candidates == 0 and excluded == 0:
            out.append(tuple(iter_bits(clique)))
            return
        pivot = -1
        best = -1
        enough = candidates.bit_count() - 1
        m = candidates | excluded
        while m:
            low = m & -m
            m ^= low
            u = low.bit_length() - 1
            c = (candidates & masks[u]).bit_count()
            if c > best:
                best = c
                pivot = u
                if c >= enough:
                    break
        for v in iter_bits(candidates & ~masks[pivot]):
            bit = 1 << v
            expand(clique | bit, candidates & masks[v], excluded & masks[v])
            candidates &= ~bit
            excluded |= bit

    expand(0, (1 << n) - 1, 0)
    facets = frozenset(out)
    if len(facets) != len(out):
        raise RuntimeError(f"Bron-Kerbosch reported {len(out) - len(facets)} repeated cliques")
    return FacetSet(facets=facets)


def is_maximal_clique(graph: Graph, simplex: Sequence[int]) -> bool:
    """Check that the vertices are pairwise adjacent and extend to no larger clique."""
    verts = list(simplex)
    common = (1 << graph.vertex_count) - 1
    mask = 0
    for v in verts:
        mask |= 1 << v
        common &= graph.masks[v]
    for u in verts:
        for v in verts:
            if u < v and not graph.has_edge(u, v):
                return False
    return common & ~mask == 0
