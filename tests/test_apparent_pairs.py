"""The clique-tree reducer against the layer-by-layer reference it replaced.

The library counts every column with a nonzero extension mask as an apparent
pair and reduces only the dead ends.  Two facts make that exact, in the
column order of the library (lexicographic on vertex tuples, pivot = the
largest coface key); both are checked here on the reference.
"""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import torus_rips as tr
from coboundary_reference import _add_column as reference_add_column
from coboundary_reference import (clique_layers, coboundary_invariants, finish_residual,
                                  reference_profile, rescan_low)
from torus_rips.complexes import collapse_edges
from torus_rips.homology import (_add_column, _common_neighbours, _free_rows, _PivotMap,
                                 _signed_column)


def relabelled(graph, seed):
    """The graph with its vertices renamed by a permutation drawn from the seed."""
    perm = list(range(graph.vertex_count))
    random.Random(seed).shuffle(perm)
    edges = [(perm[u], perm[v]) for u in range(graph.vertex_count)
             for v in range(u + 1, graph.vertex_count) if graph.has_edge(u, v)]
    return tr.Graph.from_edges(graph.vertex_count, edges)


@st.composite
def graphs(draw):
    """A random graph on at most 10 vertices, or a relabelled small torus."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=1, max_value=10))
        pairs = list(itertools.combinations(range(n), 2))
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return tr.Graph.from_edges(n, edges)
    n, k = draw(st.sampled_from([(3, 1), (4, 1), (4, 2), (5, 1), (5, 2), (6, 2)]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return relabelled(tr.vr_graph(tr.torus_space(n), k), seed)


REDUCERS = {"gf2": tr.betti_gf2, "integer": tr.homology_integer}


@given(graphs(), st.sampled_from(sorted(REDUCERS)),
       st.one_of(st.none(), st.integers(min_value=0, max_value=4)))
@settings(deadline=None, max_examples=150)
def test_profile_equals_the_reference(graph, ring, max_dim):
    assert REDUCERS[ring](graph, max_dim) == reference_profile(graph, max_dim, ring)


@pytest.mark.parametrize(
    "n,k,ring,max_dim",
    [(9, 4, "gf2", 5), (7, 3, "integer", None), (13, 5, "integer", None)],
)
def test_collapsed_torus_equals_the_reference(n, k, ring, max_dim):
    # T13 k5 over the integers reaches the residual core, H_3 = Z^3 + (Z/2)^24.
    graph = collapse_edges(tr.vr_graph(tr.torus_space(n), k))
    assert REDUCERS[ring](graph, max_dim) == reference_profile(graph, max_dim, ring)


def top_bit(mask):
    return 1 << mask.bit_length() - 1


def unit_column(masks, key):
    """The coboundary column of key, scaled to +1 at its largest row."""
    column = _signed_column(key, _common_neighbours(masks, key))
    sign = column[max(column)]
    return {r: sign * v for r, v in column.items()}


@given(graphs(), st.sampled_from([2, 0]))
@settings(deadline=None, max_examples=100)
def test_reference_pivots_obey_both_facts(graph, modulus):
    # 1. An uncleared column with a nonzero extension mask cand finds its row
    #    key | topbit(cand) free: every other facet of that row comes later.
    # 2. No pivot row has a vertex above its top vertex adjacent to all of
    #    it, so no column with a nonzero cand is ever cleared.
    masks = graph.masks
    pivots = {}
    for keys, cands in clique_layers(graph):
        cleared = pivots
        _, _, pivots = coboundary_invariants(masks, keys, cands, cleared, modulus)
        for row in pivots:
            assert not _common_neighbours(masks, row) >> row.bit_length()
        for key, cand in zip(keys, cands):
            if cand:
                assert key not in cleared
                # The reference files a column whose low row is free by its
                # key, and builds it, unreduced, once a later column needs it.
                assert pivots[key | top_bit(cand)] in (key, unit_column(masks, key))


@given(graphs())
@settings(deadline=None, max_examples=60)
def test_pivot_map_resolves_exactly_the_apparent_rows(graph):
    # A row is apparent iff it is the last child of a simplex with an
    # extension; its pivot is that simplex's column, +1 at the row.
    layers = clique_layers(graph)
    apparent = {key | top_bit(cand) for keys, cands in layers
                for key, cand in zip(keys, cands) if cand}
    pivots = _PivotMap(graph.masks)
    for keys, _ in layers[1:]:
        for row in keys:
            column = pivots.get(row)
            if row in apparent:
                assert column == unit_column(graph.masks, row ^ top_bit(row))
                assert max(column) == row and column[row] == 1
            else:
                assert column is None
    assert not len(pivots)


@st.composite
def pivots_and_columns(draw):
    """(modulus, pivots, column): a unit-triangular pivot map, each column +1 at its low, and a sparse column.

    Rows are drawn from a small range so that an elimination often cancels a
    row of the column that a later one adds back.
    """
    modulus = draw(st.sampled_from([2, 0]))
    values = st.just(1) if modulus else st.integers(min_value=-3, max_value=3).filter(bool)
    pivots = {}
    for low in sorted(draw(st.sets(st.integers(min_value=0, max_value=11)))):
        below = draw(st.dictionaries(st.integers(min_value=0, max_value=max(low - 1, 0)), values,
                                     max_size=4)) if low else {}
        pivots[low] = {**below, low: 1}
    column = draw(st.dictionaries(st.integers(min_value=0, max_value=11), values, max_size=6))
    return modulus, pivots, column


# Row 2 leaves the column with the pivot of row 5 and comes back with that of
# row 4, so it sits in the heap twice; it is free in the first case and
# cleared by the pivot of row 2 in the second.
REENTRY = {5: {5: 1, 2: 1}, 4: {4: 1, 2: 1}}


@given(pivots_and_columns())
@example((2, REENTRY, {5: 1, 4: 1, 2: 1}))
@example((0, {**REENTRY, 2: {2: 1, 0: -1}}, {5: 1, 4: -1, 2: 1, 1: 2}))
@settings(deadline=None, max_examples=300)
def test_walk_matches_the_max_rescans(case):
    modulus, pivots, column = case
    # Stopped at the first free row: the low and the column _add_column files.
    walked, rescanned = dict(column), dict(column)
    low = next(_free_rows(walked, pivots, modulus), None)
    assert low == rescan_low(rescanned, pivots, None, modulus)
    assert walked == rescanned
    filed, reference_filed = [dict(pivots), []], [dict(pivots), []]
    _add_column(dict(column), *filed, modulus)
    reference_add_column(dict(column), *reference_filed, None, modulus)
    assert filed == reference_filed
    # Run to the end, as in the residual finish: every row yielded once, in
    # descending order, and what is left are exactly those rows.
    walked, rescanned = dict(column), dict(column)
    free = list(_free_rows(walked, pivots, modulus))
    finish_residual([rescanned], pivots, None, modulus)
    assert walked == rescanned
    assert free == sorted(rescanned, reverse=True)
