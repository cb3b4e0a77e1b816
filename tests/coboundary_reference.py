"""The layer-by-layer coboundary reducer, kept as the tests' reference.

It takes whole clique layers from ``clique_layers`` and reduces every
uncleared column of each layer against a pivot map that records a column
whose low row is still free by its key alone, building it only when a later
column reduces against it.  The library reads the apparent pairs off the
clique tree instead and reduces only the dead-end columns; both must give
the same ``BettiProfile``.  Its eliminations rescan the column with ``max``
after every step, the slow path of the library's heap-ordered walk
``homology._free_rows``.
"""

from __future__ import annotations

import time
from itertools import islice

from torus_rips.complexes import _DEADLINE_CHUNK, enumerate_simplices, euler_characteristic
from torus_rips.errors import BudgetError
from torus_rips.homology import BettiProfile, _common_neighbours, _signed_column, smith_invariants


def clique_layers(graph, max_dim=None):
    """(keys, cands) of each clique layer through max_dim, None for every one.

    The keys are those of ``enumerate_simplices``; the cand of a key, its
    extension mask, is recomputed as the common neighbours of its vertices
    above its top vertex.
    """
    cx = enumerate_simplices(graph, graph.vertex_count - 1 if max_dim is None else max_dim,
                             budget=None)
    layers = []
    for keys in cx.keys:
        cands = []
        for key in keys:
            top = key.bit_length()
            cands.append(_common_neighbours(graph.masks, key) >> top << top)
        layers.append((keys, cands))
    return layers


def _eliminate(col, low, pivots, masks, modulus):
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


def rescan_low(col, pivots, masks, modulus):
    """Reduce col on the unit lows of pivots, rescanning it for its largest row after each step.

    Returns the largest row left, which has no pivot, or None once col is zero.
    """
    while col:
        low = max(col)
        if low not in pivots:
            return low
        _eliminate(col, low, pivots, masks, modulus)
    return None


def _add_column(col, pivots, residual, masks, modulus):
    """Reduce col on the unit lows of pivots, then file it as a pivot, a residual or nothing."""
    low = rescan_low(col, pivots, masks, modulus)
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


def finish_residual(residual, pivots, masks, modulus, deadline=None):
    """Reduce each residual column on every pivot row it meets, largest first, by rescans."""
    for i, col in enumerate(residual):
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetError(f"time budget exceeded during integer reduction at residual {i}")
        while (low := max((r for r in col if r in pivots), default=None)) is not None:
            _eliminate(col, low, pivots, masks, modulus)


def coboundary_invariants(masks, keys, cands, cleared_rows, modulus, deadline=None):
    """Rank, invariant factors > 1 and pivot map of the coboundary of the layer (keys, cands).

    Every column not in ``cleared_rows`` is reduced left to right.  A column
    whose low row is still free is recorded by its key, and only built when
    a later column reduces against it.  The pivot map's rows clear the
    coboundary one dimension up.
    """
    ring = "GF(2)" if modulus == 2 else "integer"
    pivots = {}
    residual = []
    columns = zip(keys, cands)
    for start in range(0, len(keys), _DEADLINE_CHUNK):
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetError(f"time budget exceeded during {ring} reduction at column {start}")
        for key, cand in islice(columns, _DEADLINE_CHUNK):
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
            _add_column(col, pivots, residual, masks, modulus)

    if not residual:
        return len(pivots), (), pivots
    finish_residual(residual, pivots, masks, modulus, deadline)
    rows = {r: i for i, r in enumerate(sorted(set().union(*residual)))}
    core = [{rows[r]: v for r, v in col.items()} for col in residual]
    rank, factors = smith_invariants(len(rows), core, deadline)
    return len(pivots) + rank, factors, pivots


def reaches_two_up(masks, cands):
    """Whether some simplex of the layer has two adjacent extensions: a simplex two dimensions up."""
    for cand in cands:
        while cand:
            low = cand & -cand
            cand ^= low
            if cand & masks[low.bit_length() - 1]:
                return True
    return False


def reference_profile(graph, max_dim, ring):
    """The Betti profile of the clique complex through max_dim, layer by layer."""
    modulus = 2 if ring == "gf2" else 0
    masks = graph.masks
    counts, ranks, torsion, pivots = [], [0], [], {}
    complete = True
    top = None if max_dim is None else max_dim + 1
    for d, (keys, cands) in enumerate(clique_layers(graph, top)):
        counts.append(len(keys))
        rank, factors, pivots = coboundary_invariants(
            masks, keys, cands, pivots, modulus
        ) if any(cands) else (0, (), {})
        ranks.append(rank)
        torsion.append(factors)
        if d == max_dim:
            size = sum(map(int.bit_count, cands))
            if size:
                counts.append(size)
                complete = not reaches_two_up(masks, cands)
            break

    depth = len(torsion) if max_dim is None else max_dim + 1
    pad = depth - len(torsion)
    ranks += [0] * pad
    cells = counts + [0] * pad
    return BettiProfile(
        coefficients=ring,
        betti=tuple(cells[d] - ranks[d] - ranks[d + 1] for d in range(depth)),
        torsion=tuple(torsion) + ((),) * pad,
        euler=euler_characteristic(counts) if complete else None,
        truncated_at=None if complete and len(counts) <= depth else max_dim,
        counts=tuple(counts),
    )
