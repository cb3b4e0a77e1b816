"""Betti numbers over GF(2) and exact integer homology with torsion.

One reducer serves both rings, the way Ripser is parameterised by its
coefficient modulus: the coboundary matrices are reduced from dimension 0
upward with a pivot map and clearing, entries taken mod 2 over GF(2) and kept
exact over the integers.  Simplices are keyed by the bitmask of their
vertices, and each coboundary column is generated on demand from the graph's
adjacency bitmasks, so no boundary matrix or face index is built.  Over the
integers a dimension that meets a pivot other than +/-1 goes to a sparse
Smith normal form, which eliminates on unit entries first and finishes any
leftover core densely.  All arithmetic is exact arbitrary-precision integers,
so overflow cannot occur and torsion is read off the invariant factors.

``boundary_matrix``, ``signed_boundary_columns`` and ``gf2_rank`` build and
reduce boundary matrices in the homology direction; the library does not call
them, and the tests use them as the reference.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from math import gcd
from typing import AbstractSet, Iterable, Iterator, Sequence

from .complexes import FlagComplex, euler_characteristic
from .errors import BudgetError, TruncatedComplexError

DEFAULT_SNF_COLUMN_BUDGET = 200_000


@dataclass(frozen=True)
class BettiProfile:
    """Homology ranks of one complex, dimension by dimension.

    ``betti[d]`` is the unreduced Betti number in dimension d (so betti[0]
    counts connected components).  ``torsion[d]`` lists the nontrivial
    invariant factors of H_d and is all-empty for GF(2) runs.  ``euler`` is
    the Euler characteristic of the full complex when it is known, else None.
    ``truncated_at`` is None when the profile covers every dimension of a
    completely enumerated complex, else the deepest reported dimension.
    """

    coefficients: str
    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    euler: int | None
    truncated_at: int | None

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
    has no unit entries and is handed to a dense textbook Smith normal form.

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
        col_pos = {c: j for j, c in enumerate(live_cols)}
        dense = [[0] * len(live_cols) for _ in live_rows]
        for i, r in enumerate(live_rows):
            for c, v in rows[r].items():
                dense[i][col_pos[c]] = v
        diagonal = _dense_snf_diagonal(dense, deadline)
        rank += len(diagonal)
        factors = _divisibility_chain(diagonal)
    return rank, tuple(f for f in factors if f > 1)


def _dense_snf_diagonal(m: list[list[int]], deadline: float | None = None) -> list[int]:
    """Diagonalize a small dense integer matrix in place; return |diagonal| entries."""
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


def _divisibility_chain(diagonal: list[int]) -> list[int]:
    """Normalize positive diagonal entries so each divides the next."""
    chain = [abs(d) for d in diagonal if d]
    changed = True
    while changed:
        changed = False
        for i in range(len(chain)):
            for j in range(i + 1, len(chain)):
                if chain[j] % chain[i]:
                    g = gcd(chain[i], chain[j])
                    chain[i], chain[j] = g, chain[i] * chain[j] // g
                    changed = True
    return sorted(chain)


def _keys_and_cofaces(cx: FlagComplex, d: int) -> Iterator[tuple[int, int]]:
    """(key, common) for each d-simplex, in order.

    key is the bitmask of the simplex's vertices; common has a bit for each
    vertex adjacent to all of them, so each coface is key | (1 << v) for a
    bit v of common.
    """
    masks = cx.graph.masks
    for sigma in cx.simplices[d]:
        key = 0
        common = -1
        for v in sigma:
            key |= 1 << v
            common &= masks[v]
        yield key, common


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


def _coboundary_invariants(
    cx: FlagComplex,
    d: int,
    cleared_rows: frozenset[int],
    modulus: int,
    deadline: float | None,
) -> tuple[int, tuple[int, ...], frozenset[int]]:
    """Rank and invariant factors > 1 of the coboundary of dimension d.

    Reduces the signed coboundary columns left to right by column operations
    against a pivot map keyed by the largest row key, skipping the columns
    of simplices in ``cleared_rows``.  Entries are taken mod ``modulus``
    after each operation when it is nonzero (2 for GF(2)) and kept as exact
    integers when it is 0.  A column whose low entry is +/-1 becomes the
    pivot of that row, scaled so the entry is +1.  An unreduced column's low
    entry is always a unit, so a column whose low row is still free is
    recorded as (key, common) and only built when a later column reduces
    against it.  The deadline is checked every 4096 columns, cleared ones
    included.

    When every low entry is a unit, the reduced matrix has a square submatrix
    that is triangular with unit diagonal, so the rank is the pivot count and
    every invariant factor is 1.  Mod 2 every nonzero entry is a unit.  Over
    the integers the first low entry that is not a unit hands the uncleared
    columns, row keys renumbered, to ``smith_invariants``.

    Also returns the unit pivot rows, which clear the coboundary one
    dimension up.
    """
    ring = "GF(2)" if modulus == 2 else "integer"
    pivots: dict[int, tuple[int, int] | dict[int, int]] = {}
    for j, (key, common) in enumerate(_keys_and_cofaces(cx, d)):
        if deadline is not None and j % 4096 == 0 and time.monotonic() > deadline:
            raise BudgetError(f"time budget exceeded during {ring} reduction at column {j}")
        if not common or key in cleared_rows:
            continue
        low = key | (1 << (common.bit_length() - 1))
        if low not in pivots:
            pivots[low] = (key, common)
            continue
        col = _signed_column(key, common)
        while col:
            low = max(col)
            other = pivots.get(low)
            if other is None:
                break
            if isinstance(other, tuple):
                other = pivots[low] = _signed_column(*other)
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
        if not col:
            continue
        a = col[low]
        if a == -1:
            for r in col:
                col[r] = -col[r]
        elif a != 1:
            rank, factors = _coboundary_smith(cx, d, cleared_rows, deadline)
            return rank, factors, frozenset(pivots)
        pivots[low] = col
    return len(pivots), (), frozenset(pivots)


def _coboundary_smith(
    cx: FlagComplex, d: int, cleared_rows: frozenset[int], deadline: float | None
) -> tuple[int, tuple[int, ...]]:
    """``smith_invariants`` of the uncleared coboundary columns of dimension d."""
    row_index = {key: i for i, (key, _) in enumerate(_keys_and_cofaces(cx, d + 1))}
    columns = [
        {row_index[r]: v for r, v in _signed_column(key, common).items()}
        for key, common in _keys_and_cofaces(cx, d)
        if key not in cleared_rows
    ]
    return smith_invariants(cx.counts[d + 1], columns, deadline)


def _coboundary_profile(
    cx: FlagComplex,
    max_dim: int,
    modulus: int,
    column_budget: int | None,
    deadline: float | None,
) -> BettiProfile:
    """Betti profile through max_dim from the coboundaries reduced mod ``modulus``.

    ``modulus`` is 2 for GF(2) or 0 for the integers; over any other prime a
    non-unit low entry would reach the integer Smith normal form.
    """
    coefficients, entry = ("gf2", "betti_gf2") if modulus else ("integer", "homology_integer")
    if max_dim < 0:
        raise ValueError(f"max_dim must be nonnegative, got {max_dim}")
    if not cx.complete and cx.top_dim < max_dim + 1:
        raise TruncatedComplexError(
            f"{entry} needs enumeration through dimension {max_dim + 1}, "
            f"but the complex is truncated at {cx.top_dim}"
        )
    top = min(max_dim + 1, cx.top_dim)
    if column_budget is not None:
        for d in range(1, top + 1):
            if cx.counts[d] > column_budget:
                raise BudgetError(
                    f"boundary matrix at dimension {d} has {cx.counts[d]} columns, "
                    f"over the Smith normal form budget of {column_budget}"
                )

    ranks = [0] * (max_dim + 2)
    torsion: list[tuple[int, ...]] = [() for _ in range(max_dim + 1)]
    pivot_rows: frozenset[int] = frozenset()
    for d in range(top):
        ranks[d + 1], torsion[d], pivot_rows = _coboundary_invariants(
            cx, d, pivot_rows, modulus, deadline
        )

    betti = tuple(cx.count_at(d) - ranks[d] - ranks[d + 1] for d in range(max_dim + 1))
    return BettiProfile(
        coefficients=coefficients,
        betti=betti,
        torsion=tuple(torsion),
        euler=euler_characteristic(cx) if cx.complete else None,
        truncated_at=None if (cx.complete and max_dim >= cx.top_dim) else max_dim,
    )


def betti_gf2(
    cx: FlagComplex, max_betti_dim: int, deadline: float | None = None
) -> BettiProfile:
    """GF(2) Betti numbers of a flag complex through dimension max_betti_dim.

    Requires the complex to be enumerated through max_betti_dim + 1 (or to be
    complete), because betti[d] subtracts the rank of the boundary one
    dimension up.  Over a field the rank of the boundary d+1 -> d equals the
    rank of the coboundary d -> d+1, so the coboundaries are reduced instead,
    from dimension 0 upward, by the reducer of ``homology_integer`` with
    entries taken mod 2.  Every simplex is keyed by the bitmask of its
    vertices, with the largest key as pivot.  A (d + 1)-simplex that is a
    pivot row of the coboundary of dimension d has a column that reduces to
    zero one dimension up, so it is cleared without being built (de Silva,
    Morozov & Vejdemo-Johansson 2011; Bauer, Ripser 2021).
    """
    return _coboundary_profile(cx, max_betti_dim, 2, None, deadline)


def homology_integer(
    cx: FlagComplex,
    max_dim: int,
    column_budget: int | None = DEFAULT_SNF_COLUMN_BUDGET,
    deadline: float | None = None,
) -> BettiProfile:
    """Integer homology of a flag complex through dimension max_dim.

    betti[d] is the free rank of H_d and torsion[d] its invariant factors
    greater than 1.  Both come from the boundary one dimension up, whose
    transpose, the coboundary of dimension d, has the same rank and the same
    invariant factors.  The coboundaries are reduced from dimension 0 upward
    by exact integer column operations on unit pivots, the same reducer
    ``betti_gf2`` runs mod 2.  Each unit pivot pair is an elementary
    reduction of the chain complex (Kaczynski, Mrozek & Slusarek 1998), so
    the (d + 1)-simplices that are unit pivot rows of dimension d are cleared
    one dimension up without changing the rank or any invariant factor.  A
    dimension whose reduction meets a low entry other than +/-1 is handed
    whole to ``smith_invariants``.  Needs enumeration through max_dim + 1
    like the GF(2) path.

    Args:
        cx: the enumerated complex.
        max_dim: top homology dimension to report.
        column_budget: per-dimension cap on the simplex count, checked on
            dimensions 1 .. max_dim + 1 in ascending order before any
            reduction; exceeding it raises BudgetError naming the first
            dimension over it.  None disables.
        deadline: optional time.monotonic() cutoff.
    """
    return _coboundary_profile(cx, max_dim, 0, column_budget, deadline)


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
    euler = sum(b if d % 2 == 0 else -b for d, b in enumerate(betti))
    return BettiProfile(
        coefficients="gf2",
        betti=tuple(betti),
        torsion=tuple(() for _ in betti),
        euler=euler,
        truncated_at=None,
    )
