"""Betti numbers over GF(2) and exact integer homology with torsion.

One reducer serves both rings, the way Ripser is parameterised by its
coefficient modulus: the coboundary matrices are reduced from dimension 0
upward with a pivot map and clearing, entries taken mod 2 over GF(2) and kept
exact over the integers.  Clique layers stream from ``iter_layers``: layer
d + 1 is built after the coboundary of layer d is reduced, and the layer above
the top reported dimension is only counted.  Each coboundary column comes
from the graph's adjacency bitmasks on demand, so no tuple, boundary matrix
or face index is built.  Over the integers a reduced column whose low entry
is not +/-1 is set aside, and once the dimension is reduced, what is left of
those columns off the unit pivots' rows goes to a sparse Smith normal form,
which eliminates on unit entries first and finishes any leftover core
densely.  All arithmetic is on Python ints, so overflow cannot occur and
torsion is read off the invariant factors.

Both rings are bounded in size only by the simplex budget and in time by the
deadline.  The one fixed limit is ``_DENSE_CORE_LIMIT`` entries in the dense
Smith core, refused with BudgetError before it is allocated.

``boundary_matrix``, ``signed_boundary_columns`` and ``gf2_rank`` build and
reduce boundary matrices in the homology direction from the vertex tuples;
the library does not call them, and the tests use them as the reference.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Sequence

from .complexes import (DEFAULT_SIMPLEX_BUDGET, FlagComplex, Graph, euler_characteristic,
                        iter_layers)
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


def gf2_rank(
    columns: Iterable[Iterable[int]],
    skip: AbstractSet[int] = frozenset(),
    deadline: float | None = None,
) -> tuple[int, frozenset[int]]:
    """Rank of a GF(2) matrix given as sparse columns, plus its pivot rows.

    Standard left-to-right reduction: each column is XOR-reduced against the
    recorded pivot columns until it gains a fresh pivot row (its largest row
    index) or vanishes.  Columns whose index is in ``skip`` are known in
    advance to reduce to zero (the clearing optimization) and are not
    touched.  ``columns`` may be a lazy sequence; the deadline is checked
    every 4096 columns, cleared ones included, as they are drawn from it.
    Nothing in the library calls it: ``betti_gf2`` runs the shared coboundary
    reducer mod 2.  It stays public API and an independent GF(2) reference.
    """
    pivots: dict[int, tuple[int, ...]] = {}
    rank = 0
    for j, col in enumerate(columns):
        if deadline is not None and j % 4096 == 0 and time.monotonic() > deadline:
            raise BudgetError(f"time budget exceeded during GF(2) reduction at column {j}")
        if j in skip:
            continue
        cur = set(col)
        while cur:
            low = max(cur)
            other = pivots.get(low)
            if other is None:
                pivots[low] = tuple(cur)
                rank += 1
                break
            cur.symmetric_difference_update(other)
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

    Phase one repeatedly eliminates entries of absolute value 1, choosing
    among them the pivot with the smallest fill estimate; every such step is
    unimodular and contributes an invariant factor of 1.  Whatever survives
    has no unit entries and is handed to a dense textbook Smith normal form,
    refused with BudgetError when it would hold more than
    ``_DENSE_CORE_LIMIT`` entries.

    Returns:
        (rank, factors) where factors are the invariant factors greater
        than 1 in divisibility order.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for j, col in enumerate(columns):
        live = {r: v for r, v in col.items() if v}
        if live:
            cols[j] = set(live)
            for r, v in live.items():
                rows.setdefault(r, {})[j] = v
    for r in rows:
        if not 0 <= r < n_rows:
            raise ValueError(f"row index {r} out of range 0..{n_rows - 1}")

    rank = 0
    pending = deque(sorted(cols))
    queued = set(pending)
    steps = 0
    while pending:
        c0 = pending.popleft()
        queued.discard(c0)
        colset = cols.get(c0)
        if not colset:
            continue
        steps += 1
        if deadline is not None and steps % 1024 == 0 and time.monotonic() > deadline:
            raise BudgetError("time budget exceeded during integer elimination")
        best = None
        for r in colset:
            v = rows[r][c0]
            if v == 1 or v == -1:
                key = ((len(rows[r]) - 1) * (len(colset) - 1), r)
                if best is None or key < best[0]:
                    best = (key, r, v)
        if best is None:
            continue
        _, r0, v0 = best
        rank += 1
        col_entries = [(r, rows[r][c0]) for r in cols[c0] if r != r0]
        row_entries = [(c, rows[r0][c]) for c in rows[r0] if c != c0]
        for c, a in row_entries:
            f = a * v0  # v0 is +/-1, so this is exact division a / v0
            target = cols[c]
            for r, b in col_entries:
                rowmap = rows[r]
                nv = rowmap.get(c, 0) - f * b
                if nv:
                    rowmap[c] = nv
                    target.add(r)
                else:
                    if c in rowmap:
                        del rowmap[c]
                    target.discard(r)
            target.discard(r0)
            if target and c not in queued:
                pending.append(c)
                queued.add(c)
        for r, _ in col_entries:
            rows[r].pop(c0, None)
        del rows[r0]
        del cols[c0]

    # Dense finish on whatever the unit pivots could not clear.
    live_rows = sorted(r for r, entries in rows.items() if entries)
    live_cols = sorted(c for c, entries in cols.items() if entries)
    factors: list[int] = []
    if live_rows:
        entries = len(live_rows) * len(live_cols)
        if entries > _DENSE_CORE_LIMIT:
            raise BudgetError(
                f"dense Smith normal form core of {len(live_rows)} x {len(live_cols)} "
                f"= {entries} entries, over the limit of {_DENSE_CORE_LIMIT}"
            )
        col_pos = {c: j for j, c in enumerate(live_cols)}
        dense = [[0] * len(live_cols) for _ in live_rows]
        for i, r in enumerate(live_rows):
            for c, v in rows[r].items():
                dense[i][col_pos[c]] = v
        factors = _dense_snf_diagonal(dense, deadline)
        rank += len(factors)
    return rank, tuple(f for f in factors if f > 1)


def _dense_snf_diagonal(m: list[list[int]], deadline: float | None = None) -> list[int]:
    """Diagonalize a small dense integer matrix in place; return its diagonal.

    The entries are positive and each divides the next: a pivot is accepted
    only once it divides every entry left below and right of it, and the
    later pivots are integer combinations of those entries.
    """
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    out: list[int] = []
    t = 0
    while True:
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetError("time budget exceeded during dense Smith normal form")
        pivot = None
        for i in range(t, n_rows):
            row = m[i]
            for j in range(t, n_cols):
                v = row[j]
                if v and (pivot is None or abs(v) < pivot[0]):
                    pivot = (abs(v), i, j)
        if pivot is None:
            break
        _, pi, pj = pivot
        m[t], m[pi] = m[pi], m[t]
        if pj != t:
            for row in m:
                row[t], row[pj] = row[pj], row[t]
        if m[t][t] < 0:
            m[t] = [-v for v in m[t]]

        p = m[t][t]
        dirty = False
        for i in range(t + 1, n_rows):
            if m[i][t]:
                q = m[i][t] // p
                if q:
                    row_i, row_t = m[i], m[t]
                    for j in range(t, n_cols):
                        row_i[j] -= q * row_t[j]
                if m[i][t]:
                    dirty = True
        row_t = m[t]
        for j in range(t + 1, n_cols):
            if row_t[j]:
                q = row_t[j] // p
                if q:
                    for row in m[t:]:
                        row[j] -= q * row[t]
                if row_t[j]:
                    dirty = True
        if dirty:
            continue

        # Pivot row and column are clear; fold in any entry the pivot misses.
        offender = None
        for i in range(t + 1, n_rows):
            row = m[i]
            for j in range(t + 1, n_cols):
                if row[j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_t, row_o = m[t], m[offender]
            for j in range(t, n_cols):
                row_t[j] += row_o[j]
            continue
        out.append(p)
        t += 1
        if t == n_rows or t == n_cols:
            break
    return out


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


def _eliminate(col: dict[int, int], low: int, pivots: dict, masks: Sequence[int], modulus: int):
    """Clear row low of col in place with its unit pivot, built and scaled to +1 if deferred."""
    other = pivots[low]
    if isinstance(other, int):
        other = pivots[low] = _signed_column(other, _common_neighbours(masks, other))
        if other[low] == -1:
            for r in other:
                other[r] = -other[r]
    a = col[low]
    for r, v in other.items():
        nv = col.get(r, 0) - a * v
        if modulus:
            nv %= modulus
        if nv:
            col[r] = nv
        else:
            del col[r]


def _coboundary_invariants(
    masks: Sequence[int], keys: Sequence[int], cands: Sequence[int],
    cleared_rows: AbstractSet[int], modulus: int, deadline: float | None,
) -> tuple[int, tuple[int, ...], dict[int, int | dict[int, int]]]:
    """Rank and invariant factors > 1 of the coboundary of the layer (keys, cands).

    Reduces the signed coboundary columns left to right by column operations
    against a pivot map keyed by the largest row key, skipping the columns
    of simplices in ``cleared_rows``.  Entries are taken mod ``modulus``
    after each operation when it is nonzero (2 for GF(2)) and kept as exact
    integers when it is 0.  A column whose low entry is +/-1 becomes the
    pivot of that row, scaled so the entry is +1.  An unreduced column's low
    entry is always a unit, so a column whose low row is still free is
    recorded by its key and only built when a later column reduces against
    it.  That low row is key | topbit(cand) when ``cand`` is nonzero, so
    common neighbours are only computed for the other columns and the built
    ones.  The deadline is checked every 4096 columns, cleared ones included.

    A reduced column whose low entry is not a unit, which only happens over
    the integers, is kept as residual.  After the last column each residual
    column is reduced against the unit pivot of every pivot row it meets,
    largest first.  Each unit pivot splits off an invariant factor of 1: on
    the pivot rows the pivots form a triangular matrix with unit diagonal,
    so row operations from those rows clear the pivots' other entries and
    leave the residual columns, zero there, alone.  The rank is then the
    pivot count plus the rank of the residual core on the other rows, and
    the invariant factors are the core's, from ``smith_invariants`` with
    the rows renumbered from the columns' own row keys.

    Also returns the pivot map, whose rows clear the coboundary one
    dimension up.
    """
    ring = "GF(2)" if modulus == 2 else "integer"
    pivots: dict[int, int | dict[int, int]] = {}
    residual: list[dict[int, int]] = []
    for j, (key, cand) in enumerate(zip(keys, cands)):
        if deadline is not None and j % 4096 == 0 and time.monotonic() > deadline:
            raise BudgetError(f"time budget exceeded during {ring} reduction at column {j}")
        if key in cleared_rows:
            continue
        top = cand or _common_neighbours(masks, key)
        if not top:
            continue
        low = key | (1 << (top.bit_length() - 1))
        if low not in pivots:
            pivots[low] = key
            continue
        col = _signed_column(key, _common_neighbours(masks, key) if cand else top)
        while col:
            low = max(col)
            if low not in pivots:
                break
            _eliminate(col, low, pivots, masks, modulus)
        if not col:
            continue
        a = col[low]
        if a == -1:
            for r in col:
                col[r] = -col[r]
        elif a != 1:
            residual.append(col)
            continue
        pivots[low] = col

    if not residual:
        return len(pivots), (), pivots
    for i, col in enumerate(residual):
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetError(f"time budget exceeded during integer reduction at residual {i}")
        while (low := max((r for r in col if r in pivots), default=None)) is not None:
            _eliminate(col, low, pivots, masks, modulus)
    rows = {r: i for i, r in enumerate(sorted(set().union(*residual)))}
    core = [{rows[r]: v for r, v in col.items()} for col in residual]
    rank, factors = smith_invariants(len(rows), core, deadline)
    return len(pivots) + rank, factors, pivots


def _reaches_two_up(masks: Sequence[int], cands: Sequence[int], d: int,
                    deadline: float | None) -> bool:
    """Whether some simplex of layer d has two adjacent extensions: a (d + 2)-simplex."""
    for j, cand in enumerate(cands):
        if deadline is not None and j % 4096 == 0 and time.monotonic() > deadline:
            raise BudgetError(f"time budget exceeded while probing dimension {d + 2}")
        while cand:
            low = cand & -cand
            cand ^= low
            if cand & masks[low.bit_length() - 1]:
                return True
    return False


def _coboundary_profile(graph: Graph, max_dim: int | None, modulus: int,
                        deadline: float | None, budget: int | None) -> BettiProfile:
    """Betti profile through max_dim from the coboundaries reduced mod ``modulus``.

    ``modulus`` is 2 for GF(2) or 0 for the integers; over any other prime a
    non-unit low entry would reach the integer Smith normal form.  At most
    two layers and their pivot maps are alive.  The layer above max_dim is
    counted from the extension masks, against the budget too, and one probe
    of them settles whether the complex goes higher still.
    """
    if max_dim is not None and max_dim < 0:
        raise ValueError(f"max_dim must be nonnegative, got {max_dim}")
    masks = graph.masks
    counts, ranks, torsion, pivots = [], [0], [], {}
    complete = True
    top = None if max_dim is None else max_dim + 1
    for d, (keys, cands) in enumerate(iter_layers(graph, top, budget, deadline)):
        counts.append(len(keys))
        # With no extension anywhere the layer is the top and its coboundary zero.
        rank, factors, pivots = _coboundary_invariants(
            masks, keys, cands, pivots, modulus, deadline
        ) if any(cands) else (0, (), {})
        ranks.append(rank)
        torsion.append(factors)
        if d == max_dim:
            size = sum(map(int.bit_count, cands))
            if size:
                counts.append(size)
                complete = not _reaches_two_up(masks, cands, d, deadline)
            break

    depth = len(torsion) if max_dim is None else max_dim + 1
    pad = depth - len(torsion)
    ranks += [0] * pad
    cells = counts + [0] * pad
    return BettiProfile(
        coefficients="gf2" if modulus else "integer",
        betti=tuple(cells[d] - ranks[d] - ranks[d + 1] for d in range(depth)),
        torsion=tuple(torsion) + ((),) * pad,
        euler=euler_characteristic(counts) if complete else None,
        truncated_at=None if complete and len(counts) <= depth else max_dim,
        counts=tuple(counts),
    )


def betti_gf2(graph: Graph, max_betti_dim: int | None, deadline: float | None = None,
              budget: int | None = DEFAULT_SIMPLEX_BUDGET) -> BettiProfile:
    """GF(2) Betti numbers of the clique complex of a graph through max_betti_dim.

    None means every dimension.  The budget caps the simplices through
    max_betti_dim + 1 as in ``iter_layers``.  Over a field the rank of the
    boundary d+1 -> d equals the rank of the coboundary d -> d+1, so the
    coboundaries are reduced instead, from dimension 0 upward, by the
    reducer of ``homology_integer`` with entries taken mod 2.  Every simplex
    is keyed by the bitmask of its vertices, with the largest key as pivot.
    A (d + 1)-simplex that is a pivot row of the coboundary of dimension d
    has a column that reduces to zero one dimension up, so it is cleared
    without being built (de Silva, Morozov & Vejdemo-Johansson 2011; Bauer,
    Ripser 2021).
    """
    return _coboundary_profile(graph, max_betti_dim, 2, deadline, budget)


def homology_integer(graph: Graph, max_dim: int | None, deadline: float | None = None,
                     budget: int | None = DEFAULT_SIMPLEX_BUDGET) -> BettiProfile:
    """Integer homology of the clique complex of a graph through max_dim.

    betti[d] is the free rank of H_d and torsion[d] its invariant factors
    greater than 1.  Both come from the boundary one dimension up, whose
    transpose, the coboundary of dimension d, has the same rank and the same
    invariant factors.  The coboundaries are reduced from dimension 0 upward
    by exact integer column operations on unit pivots, the same reducer
    ``betti_gf2`` runs mod 2.  Each unit pivot pair is an elementary
    reduction of the chain complex (Kaczynski, Mrozek & Slusarek 1998), so
    the (d + 1)-simplices that are unit pivot rows of dimension d are cleared
    one dimension up without changing the rank or any invariant factor.  The
    columns whose low entry is not +/-1 are finished against the unit pivots
    once the dimension is reduced, and only what is left of them goes to
    ``smith_invariants``.  Bounded like the GF(2) path by the simplex budget
    and the deadline, except for the dense-core limit of
    ``smith_invariants``, which raises BudgetError.
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
