"""Betti numbers over GF(2) and exact integer homology with torsion.

One reducer serves both rings, the way Ripser is parameterised by its
coefficient modulus: the coboundary matrices are reduced from dimension 0
upward, entries taken mod 2 over GF(2) and kept exact over the integers.  In
the column order used here, lexicographic on vertex tuples with the largest
coface key as pivot, almost no column needs arithmetic (Bauer, Ripser 2021):

- a column whose extension mask ``cand`` is nonzero is an apparent pair with
  the row key | topbit(cand), because every other facet of that row comes
  later;
- no pivot row r has a vertex above its top vertex adjacent to all of it:
  for R = r + u, every face of R but r lies above r, so
  (δδz)(R) = ±δz(r) = 0.  So a column with a nonzero ``cand`` is never
  cleared, and a last child, the row of its parent's apparent pair, always
  is.

These apparent pairs match each simplex with a nonzero ``cand`` to its last
child, an acyclic matching whose critical cells are the dead ends, the other
columns (see ``complexes.CliqueScan``).  A pair adds one d-simplex and one
(d + 1)-simplex, and one to the rank of δ_d, so it cancels out of every
Betti number: with c_d the number of d-dimensional dead ends and r_d the
rank that reducing them adds to δ_d (r_{-1} = 0), β_d = c_d - r_{d-1} - r_d.
``scan_clique_tree`` counts the complex and collects its dead ends one
vertex subtree at a time; ``_coboundary_profile`` then builds each
dimension's uncleared dead-end columns as they are drawn and ``_reduce``
reduces them against a pivot map that holds the explicit pivots and resolves
the apparent rows from the graph's adjacency bitmasks on demand.  No tuple,
boundary matrix, face index or whole clique layer is built.  One walk,
``_free_rows``, does every elimination, popping a column's rows from a
max-heap, largest first, with one pivot lookup each.  Over the integers a
reduced column whose low entry is not +/-1 is set aside; once every column
is filed, the walk runs each set-aside column to its end, and the dense
core of what is left is finished in two textbook steps: least-entry
elimination splits off a diagonal, then pairwise gcd/lcm orders it by
divisibility.  ``smith_invariants`` is the same reducer behind a front end
that checks its rows.  Python ints cannot overflow; torsion is read off
exactly.

The deadline is read through ``complexes._check_deadline``, the library's
one clock reader, by ``_reduce`` alone while columns are drawn: before
column 0, every ``_DEADLINE_CHUNK`` columns after it and before each
residual column, with the stage named in the BudgetError.  The dense
finish reads it once per elimination round.

Both rings are bounded in size only by the simplex budget and in time by the
deadline; live memory is two layers of one vertex subtree (below max_dim
the keys and extension masks of the simplices that extend, of layer max_dim
the masks alone), the dead ends and the explicit pivots.  The one fixed
limit is ``_DENSE_CORE_LIMIT`` entries in the dense Smith core, refused with
BudgetError before it is allocated.  It bounds memory, not time: a unit-free
360 x 120 core, 4 % of the limit, takes about 13 s, and only the deadline
stops a larger one.

``boundary_matrix``, ``signed_boundary_columns`` and ``gf2_rank`` build and
reduce boundary matrices in the homology direction from the vertex tuples;
the library neither calls nor exports them: they are the tests' reference.
``gf2_rank`` is the front end of ``_reduce`` with modulus 2, so
``_free_rows`` is the library's one elimination loop; the tests check its
rank against numpy's dense one.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from .complexes import (_DEADLINE_CHUNK, DEFAULT_SIMPLEX_BUDGET, FlagComplex, Graph,
                        _check_deadline, euler_characteristic, scan_clique_tree)
from .errors import BudgetError

# Most entries of the dense Smith core (live rows x live columns).  Measured
# with tracemalloc, 1,000,000 entries take 7.7 MiB as allocated (all zero)
# and 38 MiB once every entry is a one-digit int outside the small-int cache.
_DENSE_CORE_LIMIT = 1_000_000


@dataclass(frozen=True)
class BettiProfile:
    """Homology ranks of one complex, dimension by dimension.

    ``betti[d]`` is the unreduced Betti number in dimension d (so betti[0]
    counts connected components).  ``torsion[d]`` lists the nontrivial
    invariant factors of H_d and is all-empty for GF(2) runs.  ``euler`` is
    the Euler characteristic of the full complex when it is known, else None.
    ``truncated_at`` is None when the profile covers every dimension of a
    completely enumerated complex, else the deepest reported dimension.
    ``counts`` has the simplex count of each dimension the reducer met, if any.
    From ``compute_profile`` the complex is the edge-collapsed one, so
    ``euler`` or ``truncated_at`` may be known where the raw complex's are not.
    """

    coefficients: str
    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    euler: int | None
    truncated_at: int | None
    counts: tuple[int, ...] = ()

    def betti_at(self, d: int) -> int:
        return self.betti[d] if 0 <= d < len(self.betti) else 0

    def covers(self, d: int) -> bool:
        """True when the profile faithfully reports homology through dimension d."""
        return d < len(self.betti) and (self.truncated_at is None or d <= self.truncated_at)


def gf2_rank(columns: Iterable[Iterable[int]]) -> tuple[int, frozenset[int]]:
    """Rank of a GF(2) matrix given as sparse columns, plus its pivot rows.

    The front end of ``_reduce`` with modulus 2, as ``smith_invariants`` is
    with modulus 0: each column enters as its set of rows, every entry 1,
    and is reduced against the pivots filed so far until its largest row is
    free, which becomes its pivot row, or it vanishes.  ``columns`` may be a
    lazy sequence.  Nothing in the library calls it: ``betti_gf2`` runs the
    coboundary reducer mod 2, and the tests check this homology-direction
    rank against an independent dense elimination in numpy.
    """
    pivots: dict[int, dict[int, int]] = {}
    rank, _ = _reduce((dict.fromkeys(col, 1) for col in columns), pivots, 2, None,
                      "GF(2) elimination")
    return rank, frozenset(pivots)


def signed_boundary_columns(cx: FlagComplex, d: int) -> list[dict[int, int]]:
    """Integer boundary columns for dimension d with alternating-sign entries.

    The boundary of an ascending simplex drops one vertex at a time, the face
    dropping position i weighted (-1)^i.  Row indices follow the lexicographic
    order of the (d - 1)-simplices.  ``homology_integer`` does not build it;
    the tests use it with ``smith_invariants`` as the homology-direction
    reference.
    """
    if not 1 <= d <= cx.top_dim:
        raise ValueError(f"dimension {d} outside enumerated range 1..{cx.top_dim}")
    face_index = {s: i for i, s in enumerate(cx.simplices[d - 1])}
    columns = []
    for sigma in cx.simplices[d]:
        col = {}
        for i in range(len(sigma)):
            col[face_index[sigma[:i] + sigma[i + 1 :]]] = 1 if i % 2 == 0 else -1
        columns.append(col)
    return columns


@dataclass(frozen=True, eq=False)
class SparseBitMatrix:
    """GF(2) matrix stored as columns of strictly ascending row indices."""

    n_rows: int
    n_cols: int
    columns: tuple[tuple[int, ...], ...]


def boundary_matrix(cx: FlagComplex, d: int) -> SparseBitMatrix:
    """GF(2) boundary matrix from d-simplices to their (d - 1)-faces.

    ``signed_boundary_columns`` with the signs dropped and the rows sorted:
    rows are indexed by the lexicographic position of each (d - 1)-simplex,
    columns by the position of each d-simplex.  ``betti_gf2`` does not build
    it; the tests use it as the homology-direction reference.
    """
    columns = tuple(tuple(sorted(col)) for col in signed_boundary_columns(cx, d))
    return SparseBitMatrix(n_rows=cx.counts[d - 1], n_cols=cx.counts[d], columns=columns)


def smith_invariants(
    n_rows: int,
    columns: Sequence[dict[int, int]],
    deadline: float | None = None,
) -> tuple[int, tuple[int, ...]]:
    """Rank and nontrivial invariant factors of a sparse integer matrix.

    The front end of ``_reduce``, the coboundary reducer's elimination: it
    drops zero entries and checks every row index against ``n_rows``.
    ``_reduce`` files the columns on the unit lows of a pivot map keyed by
    the largest row index, finishes the residual columns on the pivot rows
    and finishes what is left of them densely: least-entry elimination to a
    diagonal, then pairwise gcd/lcm on it.  The dense core is refused with
    BudgetError when it would hold more than ``_DENSE_CORE_LIMIT`` entries.
    It reads the deadline as it draws the columns, under the stage name
    "integer elimination".

    Returns:
        (rank, factors) where factors are the invariant factors greater
        than 1 in divisibility order.
    """

    def checked() -> Iterator[dict[int, int]]:
        for col in columns:
            live = {r: v for r, v in col.items() if v}
            for r in live:
                if not 0 <= r < n_rows:
                    raise ValueError(f"row index {r} out of range 0..{n_rows - 1}")
            yield live

    return _reduce(checked(), {}, 0, deadline, "integer elimination")


def _dense_snf_diagonal(m: list[list[int]], deadline: float | None = None) -> list[int]:
    """Diagonalize a small dense integer matrix, consuming it; return its diagonal.

    Each round moves an entry p of least absolute value to the corner, the
    last row and column, and reduces the rest of its column and its row
    modulo p: every other row drops q times the corner row, where
    (q, x) = divmod(row[-1], p), and then, as the column operations that
    reduce the corner row, x times the corner row's quotients by p.  What
    is left beside the corner is smaller than p, so a later round picks it;
    once the corner stands alone it is split off.  One pairwise pass then
    replaces each pair (a, b) of the diagonal by (gcd, lcm), an equivalent
    diagonal, which leaves the entries positive with each dividing the next
    (Newman, Integral Matrices, 1972, ch. II).
    """
    diagonal = []
    while True:
        _check_deadline(deadline, "during dense Smith normal form")
        flat = list(map(abs, chain.from_iterable(m)))
        least = min(filter(None, flat), default=0)
        if not least:
            break
        i, j = divmod(flat.index(least), len(m[0]))
        m[i], m[-1] = m[-1], m[i]
        for row in m:
            row[j], row[-1] = row[-1], row[j]
        corner = m[-1]
        p = corner[-1]
        quotients = [v // p for v in corner[:-1]] + [0]
        for i, row in enumerate(m[:-1]):
            if row[-1]:
                q, x = divmod(row[-1], p)
                m[i] = [a - q * b - x * c for a, b, c in zip(row, corner, quotients)]
        m[-1] = [v - q * p for v, q in zip(corner, quotients)]
        if not any(m[-1][:-1]) and not any(row[-1] for row in m[:-1]):
            diagonal.append(abs(p))
            m.pop()
            for row in m:
                row.pop()
    for i in range(len(diagonal)):
        for j in range(i + 1, len(diagonal)):
            diagonal[i], diagonal[j] = (gcd(diagonal[i], diagonal[j]),
                                        lcm(diagonal[i], diagonal[j]))
    return diagonal


def _common_neighbours(masks: Sequence[int], key: int) -> int:
    """AND of the adjacency masks of the vertices in key.

    It has a bit for each vertex adjacent to all of them, so each coface of
    the simplex key is key | (1 << v) for a bit v of the result.
    """
    common = -1
    while key:
        v = key.bit_length() - 1
        common &= masks[v]
        key ^= 1 << v
    return common


def _signed_column(key: int, common: int) -> dict[int, int]:
    """Integer coboundary column of the simplex with vertex bitmask key.

    The coface key + v enters with sign (-1)^i, where i is the number of
    vertices of the simplex below v: the position at which the boundary of
    the coface drops v, as in ``signed_boundary_columns``.
    """
    column = {}
    while common:
        low = common & -common
        column[key | low] = -1 if (key & (low - 1)).bit_count() & 1 else 1
        common ^= low
    return column


class _PivotMap(dict):
    """Explicit pivot columns by row key, which also resolves the apparent rows.

    Row r is the low of an apparent pair iff the face p = r minus its top
    vertex t has no common neighbour above t: the column of p then has r as
    its largest row, and no earlier column meets r.  ``get`` builds it from
    the masks on each lookup, scaled to +1 at r.  Only explicit columns are
    stored and counted by ``len``.
    """

    def __init__(self, masks: Sequence[int]) -> None:
        super().__init__()
        self.masks = masks

    def get(self, row: int) -> dict[int, int] | None:
        """The explicit or apparent pivot column of row, or None when it has none."""
        column = dict.get(self, row)
        if column is not None:
            return column
        top = row.bit_length() - 1
        face = row ^ (1 << top)
        common = _common_neighbours(self.masks, face)
        if common >> top != 1:
            return None
        column = _signed_column(face, common)
        if column[row] == -1:
            for r in column:
                column[r] = -column[r]
        return column


def _free_rows(col: dict[int, int], pivots: dict, modulus: int) -> Iterator[int]:
    """Yield the rows of col with no pivot, largest first, clearing the others in place.

    Rows pop from a max-heap, each looked up once.  Clearing row r with its
    pivot (+1 at r, zero above) pushes only the rows it adds, all below r, so
    a row that left col and came back pops twice in a row, the second time skipped.
    """
    heap, last = [-r for r in col], None
    heapq.heapify(heap)
    while heap:
        row = -heapq.heappop(heap)
        if row == last or row not in col:
            continue
        last = row
        if (other := pivots.get(row)) is None:
            yield row
            continue
        a = col[row]
        for r, v in other.items():
            old = col.get(r)
            nv = (old or 0) - a * v
            if modulus:
                nv %= modulus
            if nv:
                if old is None:
                    heapq.heappush(heap, -r)
                col[r] = nv
            else:
                del col[r]


def _add_column(col: dict[int, int], pivots: dict, residual: list[dict[int, int]],
                modulus: int) -> None:
    """Reduce col in place down to its first free row, its low, then file it.

    It becomes the pivot of its low row, scaled so the low entry is +1, when
    that entry is +/-1; a column whose low entry is not a unit, which only
    happens over the integers, is appended to residual; a zero column goes.
    """
    low = next(_free_rows(col, pivots, modulus), None)
    if low is None:
        return
    a = col[low]
    if a == -1:
        for r in col:
            col[r] = -col[r]
    elif a != 1:
        residual.append(col)
        return
    pivots[low] = col


def _reduce(columns: Iterable[dict[int, int]], pivots: dict, modulus: int,
            deadline: float | None, stage: str) -> tuple[int, tuple[int, ...]]:
    """Rank and invariant factors > 1 of the columns, filed into pivots as they are reduced.

    Each column is filed by ``_add_column``, entries taken mod ``modulus``
    when it is nonzero and kept exact when it is 0.  ``_free_rows`` then
    walks each residual column to its end, clearing every pivot row it
    meets.  Every unit pivot so splits off an invariant factor of 1: on the
    pivot rows the pivots form a triangular matrix with unit diagonal, so
    row operations from those rows clear the pivots' other entries and leave
    the residual columns, zero there, alone.  The rank is the number of
    explicit pivots plus the rank of the residual core on the other rows,
    and the invariant factors are the core's: ``_dense_snf_diagonal``
    eliminates it from its least entries to a diagonal and orders that by
    pairwise gcd/lcm.  The core is refused with BudgetError, before it is
    allocated, when it would hold more than ``_DENSE_CORE_LIMIT`` entries.

    This is the one reading of the deadline while columns are drawn: before
    column 0 and every ``_DEADLINE_CHUNK`` columns after it, then before each
    residual column; the BudgetError names ``stage`` and the column reached.
    """
    residual: list[dict[int, int]] = []
    for j, col in enumerate(columns):
        if deadline is not None and j % _DEADLINE_CHUNK == 0:
            _check_deadline(deadline, f"during {stage} at column {j}")
        _add_column(col, pivots, residual, modulus)
    if not residual:
        return len(pivots), ()
    for i, col in enumerate(residual):
        _check_deadline(deadline, f"during {stage} at residual {i}")
        for _ in _free_rows(col, pivots, modulus):
            pass

    live_rows = sorted(set().union(*residual))
    entries = len(live_rows) * len(residual)
    if entries > _DENSE_CORE_LIMIT:
        raise BudgetError(
            f"dense Smith normal form core of {len(live_rows)} x {len(residual)} "
            f"= {entries} entries, over the limit of {_DENSE_CORE_LIMIT}"
        )
    dense = [[col.get(r, 0) for col in residual] for r in live_rows]
    factors = _dense_snf_diagonal(dense, deadline)
    return len(pivots) + len(factors), tuple(f for f in factors if f > 1)


def _coboundary_profile(graph: Graph, max_dim: int | None, modulus: int,
                        deadline: float | None, budget: int | None) -> BettiProfile:
    """Betti profile through max_dim from the coboundaries reduced mod ``modulus``.

    ``modulus`` is 2 for GF(2) or 0 for the integers; over any other prime a
    non-unit low entry would reach the integer Smith normal form.  One scan
    of the clique tree counts the complex and collects its dead ends, the
    critical cells c_d of its matching; then β_d = c_d - r_{d-1} - r_d,
    where r_d is the rank ``_reduce`` finds for the dead ends of dimension d
    (r_{-1} = 0, and r_d = 0 with no layer above d).  Every other column
    needs no arithmetic: one with a nonzero extension mask is an apparent
    pair, and a last child is the row of its parent's apparent pair, so it
    is cleared; each such pair adds as many simplices as rank, so it drops
    out of every Betti number.  The dead ends of dimension d not cleared by
    the explicit pivot rows of dimension d - 1 are built from the masks, in
    lexicographic order, as ``_reduce`` draws them, and reduced against a
    ``_PivotMap``; ``_reduce`` reads the deadline.
    """
    scan = scan_clique_tree(graph, max_dim, budget, deadline)
    counts = scan.counts
    masks = graph.masks
    ring = "GF(2)" if modulus else "integer"
    betti, torsion, below, cleared = [], [], 0, {}
    for d, dead_ends in enumerate(scan.dead_ends):
        rank, factors = 0, ()
        # With no layer above, the coboundary is zero.
        if d + 1 < len(counts):
            pivots = _PivotMap(masks)
            columns = (_signed_column(key, _common_neighbours(masks, key))
                       for key in dead_ends if key not in cleared)
            rank, factors = _reduce(columns, pivots, modulus, deadline,
                                    f"{ring} reduction of dimension {d}")
            cleared = pivots
        betti.append(len(dead_ends) - below - rank)
        torsion.append(factors)
        below = rank

    depth = len(betti) if max_dim is None else max_dim + 1
    pad = depth - len(betti)
    return BettiProfile(
        coefficients="gf2" if modulus else "integer",
        betti=tuple(betti) + (0,) * pad,
        torsion=tuple(torsion) + ((),) * pad,
        euler=euler_characteristic(counts) if scan.complete else None,
        truncated_at=None if scan.complete and len(counts) <= depth else max_dim,
        counts=counts,
    )


def betti_gf2(graph: Graph, max_dim: int | None, deadline: float | None = None,
              budget: int | None = DEFAULT_SIMPLEX_BUDGET) -> BettiProfile:
    """GF(2) Betti numbers of the clique complex of a graph through max_dim.

    None means every dimension.  The budget caps the simplices through
    max_dim + 1 as in ``scan_clique_tree``.  Over a field the rank of
    the boundary d+1 -> d equals the rank of the coboundary d -> d+1, so the
    coboundaries are reduced instead, from dimension 0 upward, by the
    reducer of ``homology_integer`` with entries taken mod 2.  Every simplex
    is keyed by the bitmask of its vertices, with the largest key as pivot.
    The columns with an extension are apparent pairs and need no
    arithmetic; a (d + 1)-simplex that is a pivot row of the coboundary of
    dimension d has a column that reduces to zero one dimension up, so it is
    cleared without being built (de Silva, Morozov & Vejdemo-Johansson 2011;
    Bauer, Ripser 2021).  Only the other dead ends are reduced, and
    betti[d] = c_d - r_{d-1} - r_d, with c_d the d-dimensional dead ends,
    the critical cells of the apparent pairs' acyclic matching, and r_d the
    rank their reduction finds.
    """
    return _coboundary_profile(graph, max_dim, 2, deadline, budget)


def homology_integer(graph: Graph, max_dim: int | None, deadline: float | None = None,
                     budget: int | None = DEFAULT_SIMPLEX_BUDGET) -> BettiProfile:
    """Integer homology of the clique complex of a graph through max_dim.

    betti[d] is the free rank of H_d and torsion[d] its invariant factors
    greater than 1.  Both come from the boundary one dimension up, whose
    transpose, the coboundary of dimension d, has the same rank and the same
    invariant factors.  The coboundaries are reduced from dimension 0 upward
    by exact integer column operations on unit pivots, the same reducer
    ``betti_gf2`` runs mod 2: the apparent pairs, an acyclic matching, drop
    out, and only the dead ends, its critical cells, are reduced, so
    betti[d] = c_d - r_{d-1} - r_d with c_d the d-dimensional dead ends and
    r_d the rank their reduction finds.  Each unit pivot pair is an
    elementary reduction of the chain complex (Kaczynski, Mrozek & Slusarek 1998), so the
    (d + 1)-simplices that are unit pivot rows of dimension d are cleared
    one dimension up without changing the rank or any invariant factor.  The
    columns whose low entry is not +/-1 are finished against the unit pivots
    once the dimension is reduced, and only what is left of them goes to
    the dense Smith normal form.  Bounded like the GF(2) path by the simplex
    budget and the deadline, except for the dense-core limit
    ``_DENSE_CORE_LIMIT``, which raises BudgetError.
    """
    return _coboundary_profile(graph, max_dim, 0, deadline, budget)


def expected_cycle_profile(n: int, k: int) -> BettiProfile:
    """Closed-form Betti profile of the scale-k Vietoris-Rips complex of an n-cycle.

    The homotopy type is governed by the position of k/n among the rational
    breakpoints l/(2l+1): at the breakpoint the complex is a wedge of
    n - 2k - 1 spheres of dimension 2l, strictly between breakpoints it is a
    single sphere of dimension 2l + 1, and for 2k >= n it is a full simplex.
    All case tests are exact integer comparisons.
    """
    if n < 3:
        raise ValueError(f"cycle length must be at least 3, got {n}")
    if k < 0:
        raise ValueError(f"scale must be nonnegative, got {k}")
    if 2 * k >= n:
        return BettiProfile("gf2", (1,), ((),), 1, None)

    level = k // (n - 2 * k)
    betti: list[int]
    if k * (2 * level + 1) == level * n:
        wedge = n - 2 * k - 1
        betti = [1] + [0] * (2 * level)
        betti[2 * level] += wedge
    else:
        betti = [1] + [0] * (2 * level + 1)
        betti[2 * level + 1] = 1
    while len(betti) > 1 and betti[-1] == 0:
        betti.pop()
    return BettiProfile(
        coefficients="gf2",
        betti=tuple(betti),
        torsion=tuple(() for _ in betti),
        euler=euler_characteristic(betti),
        truncated_at=None,
    )
