"""Tests for GF(2) reduction, integer Smith normal form, and Betti profiles."""

import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form

import torus_rips as tr
from coboundary_reference import clique_layers
from torus_rips.complexes import FlagComplex, enumerate_simplices, iter_bits
from torus_rips.errors import BudgetError, SimplexBudgetError
from torus_rips.homology import (
    _common_neighbours,
    _dense_snf_diagonal,
    boundary_matrix,
    gf2_rank,
    signed_boundary_columns,
    smith_invariants,
)


def dense_gf2_rank(n_rows, columns):
    """Row-echelon rank of a GF(2) matrix, written independently with numpy."""
    if not columns:
        return 0
    a = np.zeros((n_rows, len(columns)), dtype=np.uint8)
    for j, col in enumerate(columns):
        for r in col:
            a[r, j] = 1
    rank = 0
    for j in range(a.shape[1]):
        hit = np.nonzero(a[rank:, j])[0]
        if hit.size == 0:
            continue
        p = rank + hit[0]
        a[[rank, p]] = a[[p, rank]]
        others = np.nonzero(a[:, j])[0]
        for i in others:
            if i != rank:
                a[i] ^= a[rank]
        rank += 1
        if rank == n_rows:
            break
    return rank


def component_count(graph):
    """Number of connected components via union-find."""
    parent = list(range(graph.vertex_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u in range(graph.vertex_count):
        for v in iter_bits(graph.masks[u]):
            parent[find(u)] = find(v)
    return len({find(v) for v in range(graph.vertex_count)})


def homology_direction_betti(cx, max_dim):
    """GF(2) Betti numbers from dense numpy ranks of the boundary matrices."""
    ranks = [0] * (max_dim + 2)
    for d in range(1, min(max_dim + 1, cx.top_dim) + 1):
        mat = boundary_matrix(cx, d)
        ranks[d] = dense_gf2_rank(mat.n_rows, mat.columns)
    return tuple(cx.count_at(d) - ranks[d] - ranks[d + 1] for d in range(max_dim + 1))


def homology_direction_integer(cx, max_dim):
    """Integer Betti numbers and torsion from the Smith normal form of the boundaries."""
    ranks = [0] * (max_dim + 2)
    torsion = [()] * (max_dim + 1)
    for d in range(1, min(max_dim + 1, cx.top_dim) + 1):
        ranks[d], torsion[d - 1] = smith_invariants(
            cx.counts[d - 1], signed_boundary_columns(cx, d)
        )
    betti = tuple(cx.count_at(d) - ranks[d] - ranks[d + 1] for d in range(max_dim + 1))
    return betti, tuple(torsion)


def projective_plane_subdivision():
    """Barycentric subdivision of the six-vertex real projective plane, as a graph.

    Its vertices are the 31 faces of the triangulation; two are joined when one
    face contains the other, so the flag complex is the order complex of the
    face poset, a triangulation of the projective plane.
    """
    triangles = [
        (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 5), (0, 4, 5),
        (1, 2, 4), (1, 2, 5), (1, 3, 5), (2, 3, 4), (3, 4, 5),
    ]
    faces = sorted(
        {frozenset(f) for t in triangles for r in (1, 2, 3) for f in itertools.combinations(t, r)},
        key=lambda f: (len(f), sorted(f)),
    )
    edges = [(i, j) for i, j in itertools.combinations(range(len(faces)), 2)
             if faces[i] < faces[j] or faces[j] < faces[i]]
    return tr.Graph.from_edges(len(faces), edges)


def edge_list(graph):
    """The edges of a graph as pairs u < v, in ascending order."""
    return [(u, v) for u in range(graph.vertex_count) for v in iter_bits(graph.masks[u]) if u < v]


def with_midpoint_chord(graph):
    """The RP2 subdivision with its vertices 6 and 11 joined.

    They are the midpoints of the edges 01 and 12 of the six-vertex RP2, so
    the chord adds one triangle on vertex 1 and keeps the homotopy type.
    """
    return tr.Graph.from_edges(graph.vertex_count, edge_list(graph) + [(6, 11)])


def suspension(graph):
    """The join with two non-adjacent apexes, whose flag complex is the suspension."""
    n = graph.vertex_count
    edges = edge_list(graph) + [(apex, v) for apex in (n, n + 1) for v in range(n)]
    return tr.Graph.from_edges(n + 2, edges)


def relabelled(graph, seed):
    """The graph with its vertices renamed by a permutation drawn from the seed."""
    perm = list(range(graph.vertex_count))
    random.Random(seed).shuffle(perm)
    return tr.Graph.from_edges(graph.vertex_count, [(perm[u], perm[v]) for u, v in edge_list(graph)])


def graph_space(graph):
    """The metric space whose scale-1 graph is the given one: 1 on edges, 2 off them."""
    return tr.FiniteMetricSpace(
        point_count=graph.vertex_count,
        distance=lambda a, b: 0 if a == b else (1 if graph.has_edge(a, b) else 2),
        label="graph metric",
    )


@pytest.fixture
def dense_cores(monkeypatch):
    """(rows, columns) of each dense Smith core the library diagonalises."""
    cores = []
    dense = tr.homology._dense_snf_diagonal

    def spy(m, deadline=None):
        cores.append((len(m), len(m[0])))
        return dense(m, deadline)

    monkeypatch.setattr(tr.homology, "_dense_snf_diagonal", spy)
    return cores


@pytest.fixture
def reducer_clock(monkeypatch):
    """A clock that ticks once per reading of the reducer; the enumeration's never passes.

    Both read it through ``complexes._check_deadline``; the reducer's
    readings are the calls from ``homology``.
    """

    class Clock:
        ticks = 0
        reducer = False

        def monotonic(self):
            if not Clock.reducer:
                return float("-inf")
            Clock.ticks += 1
            return Clock.ticks

    check = tr.complexes._check_deadline

    def reducer_check(deadline, doing):
        Clock.reducer = True
        try:
            check(deadline, doing)
        finally:
            Clock.reducer = False

    monkeypatch.setattr(tr.complexes, "time", Clock())
    monkeypatch.setattr(tr.homology, "_check_deadline", reducer_check)
    return Clock


@st.composite
def random_graph_complexes(draw):
    """A complete complex of a random graph on at most 8 vertices, all dimensions."""
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    cx = enumerate_simplices(tr.Graph.from_edges(n, edges), n - 1)
    return cx, cx.top_dim


@st.composite
def relabelled_torus_complexes(draw):
    """A small torus complex whose vertices are renamed by a seeded permutation."""
    n, k = draw(st.sampled_from([(3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2)]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    cx = enumerate_simplices(relabelled(tr.vr_graph(tr.torus_space(n), k), seed), 8)
    return cx, cx.top_dim


@st.composite
def relabelled_torsion_complexes(draw):
    """The RP2 subdivision or its suspension, renamed by a seeded permutation.

    The reduction meets the non-unit entry of the torsion Z/2 in dimension 1
    of the first, and in dimension 2 of the second, after dimension 1 has
    been cleared.
    """
    graph = projective_plane_subdivision()
    if draw(st.booleans()):
        graph = suspension(graph)
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    cx = enumerate_simplices(relabelled(graph, seed), graph.vertex_count - 1)
    return cx, cx.top_dim


@st.composite
def truncated_complexes(draw):
    """A complex cut off below its top, reported below its last enumerated dimension."""
    n, k = draw(st.sampled_from([(4, 2), (5, 2), (6, 2), (7, 2)]))
    depth = draw(st.integers(min_value=1, max_value=3))
    cx = enumerate_simplices(tr.vr_graph(tr.torus_space(n), k), depth)
    return cx, draw(st.integers(min_value=0, max_value=cx.top_dim - 1))


class TestGf2Rank:
    def test_examples(self):
        assert gf2_rank([(0,), (1,), (2,)])[0] == 3
        assert gf2_rank([(0, 1), (1, 2), (0, 2)])[0] == 2
        assert gf2_rank([(), ()])[0] == 0
        rank, pivots = gf2_rank([(0, 1), (1,)])
        assert rank == 2
        assert pivots == {0, 1}

    @given(
        st.integers(min_value=1, max_value=8).flatmap(
            lambda nr: st.tuples(
                st.just(nr),
                st.lists(
                    st.lists(
                        st.integers(min_value=0, max_value=nr - 1),
                        unique=True,
                        max_size=nr,
                    ),
                    max_size=8,
                ),
            )
        )
    )
    @settings(deadline=None)
    def test_matches_dense_oracle(self, case):
        n_rows, columns = case
        cols = [tuple(sorted(c)) for c in columns]
        assert gf2_rank(cols)[0] == dense_gf2_rank(n_rows, cols)


class TestBettiGf2:
    def test_square_is_a_circle(self):
        cx = enumerate_simplices(tr.vr_graph(tr.cycle_space(4), 1), 3)
        profile = tr.betti_gf2(cx.graph, 1)
        assert profile.betti == (1, 1)
        assert profile.coefficients == "gf2"
        assert profile.euler == 0
        assert profile.truncated_at is None

    def test_cycle_six_scale_two_is_a_sphere(self):
        cx = enumerate_simplices(tr.vr_graph(tr.cycle_space(6), 2), 5)
        assert tr.betti_gf2(cx.graph, 2).betti == (1, 0, 1)

    def test_scale_zero_counts_components(self):
        cx = enumerate_simplices(tr.vr_graph(tr.cycle_space(7), 0), 1)
        assert tr.betti_gf2(cx.graph, 0).betti == (7,)

    def test_truncated_profile_has_no_euler(self):
        cx = enumerate_simplices(tr.vr_graph(tr.torus_space(5), 2), 2)
        profile = tr.betti_gf2(cx.graph, 1)
        assert profile.euler is None
        assert profile.truncated_at == 1
        assert profile.covers(1)
        assert not profile.covers(2)

    def test_depth_beyond_top_of_complete_complex(self):
        cx = enumerate_simplices(tr.vr_graph(tr.cycle_space(4), 1), 9)
        profile = tr.betti_gf2(cx.graph, 5)
        assert profile.betti == (1, 1, 0, 0, 0, 0)
        assert profile.truncated_at is None

    def test_betti_sum_matches_euler(self):
        for space, k, depth in [
            (tr.cycle_space(6), 2, 3),
            (tr.cycle_space(9), 3, 4),
            (tr.torus_space(4), 2, 5),
            (tr.torus_space(4), 3, 8),
        ]:
            cx = enumerate_simplices(tr.vr_graph(space, k), depth)
            assert cx.complete
            profile = tr.betti_gf2(cx.graph, cx.top_dim)
            alternating = sum(
                b if d % 2 == 0 else -b for d, b in enumerate(profile.betti)
            )
            assert alternating == tr.euler_characteristic(cx.counts) == profile.euler

    def test_random_graphs_match_dense_oracle(self):
        rng = random.Random(20240817)
        for _ in range(12):
            n = rng.randint(4, 9)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.45
            ]
            graph = tr.Graph.from_edges(n, edges)
            cx = enumerate_simplices(graph, n - 1)
            assert cx.complete
            profile = tr.betti_gf2(cx.graph, cx.top_dim)
            assert profile.betti == homology_direction_betti(cx, cx.top_dim)
            assert profile.betti[0] == component_count(graph)

    @given(
        st.one_of(random_graph_complexes(), relabelled_torus_complexes(), truncated_complexes())
    )
    @settings(deadline=None, max_examples=60)
    def test_cohomology_matches_homology_direction(self, case):
        cx, max_dim = case
        assert tr.betti_gf2(cx.graph, max_dim).betti == homology_direction_betti(cx, max_dim)

    def test_deadline_already_passed(self):
        cx = enumerate_simplices(tr.vr_graph(tr.torus_space(5), 2), 3)
        with pytest.raises(BudgetError):
            tr.betti_gf2(cx.graph, 2, deadline=time.monotonic() - 1.0)
        config = tr.RunConfig(max_dim=2, time_budget_secs=0.0)
        with pytest.raises(BudgetError):
            tr.compute_profile(tr.torus_space(5), 2, config)

    def test_deadline_checked_within_a_dimension(self, monkeypatch, reducer_clock):
        # The run must stop partway through the dead ends of one dimension,
        # not only between dimensions.  With the clock read every 16 columns
        # drawn, the last reading comes within those of dimension 3.
        monkeypatch.setattr(tr.homology, "_DEADLINE_CHUNK", 16)
        graph = tr.vr_graph(tr.torus_space(7), 3)
        assert len(tr.complexes.scan_clique_tree(graph, 3).dead_ends[3]) > 16
        tr.betti_gf2(graph, 3, deadline=float("inf"))
        readings = reducer_clock.ticks
        reducer_clock.ticks = 0
        with pytest.raises(BudgetError, match=r"GF\(2\) reduction of dimension 3 at column [1-9]"):
            tr.betti_gf2(graph, 3, deadline=readings - 0.5)

    def test_projective_plane_reduces_mod_two(self, dense_cores):
        # H_1 = Z/2 makes betti 1 in dimensions 1 and 2 over GF(2).  Exact
        # integer operations without the mod-2 step would lose both, and no
        # GF(2) dimension may reach the integer Smith normal form.
        graph = projective_plane_subdivision()
        cx = enumerate_simplices(graph, graph.vertex_count - 1)
        profile = tr.betti_gf2(cx.graph, 2)
        assert profile.betti == (1, 1, 1) == homology_direction_betti(cx, 2)
        assert profile.torsion == ((), (), ())
        assert not dense_cores

    def test_component_count_on_torus_scales(self):
        for n, k in [(4, 0), (6, 1), (5, 2)]:
            graph = tr.vr_graph(tr.torus_space(n), k)
            cx = enumerate_simplices(graph, 1)
            assert tr.betti_gf2(cx.graph, 0).betti[0] == component_count(graph)

    def test_rejects_negative_dimension(self):
        cx = enumerate_simplices(tr.vr_graph(tr.cycle_space(4), 1), 2)
        with pytest.raises(ValueError):
            tr.betti_gf2(cx.graph, -1)


class TestSignedBoundary:
    def test_signs_alternate(self):
        g = tr.Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        cx = enumerate_simplices(g, 2)
        (col,) = signed_boundary_columns(cx, 2)
        edges = {s: i for i, s in enumerate(cx.simplices[1])}
        assert col == {edges[(1, 2)]: 1, edges[(0, 2)]: -1, edges[(0, 1)]: 1}

    def test_boundary_of_boundary_is_zero(self):
        cx = enumerate_simplices(tr.vr_graph(tr.torus_space(4), 2), 4)
        for d in range(2, cx.top_dim + 1):
            low = signed_boundary_columns(cx, d - 1)
            for col in signed_boundary_columns(cx, d):
                acc = {}
                for face, sign in col.items():
                    for r, v in low[face].items():
                        acc[r] = acc.get(r, 0) + sign * v
                assert all(v == 0 for v in acc.values())

    def test_rejects_out_of_range(self):
        cx = enumerate_simplices(tr.vr_graph(tr.cycle_space(5), 1), 2)
        with pytest.raises(ValueError):
            signed_boundary_columns(cx, 0)


def columns_from_rows(rows):
    n_cols = len(rows[0]) if rows else 0
    return [
        {i: rows[i][j] for i in range(len(rows)) if rows[i][j]}
        for j in range(n_cols)
    ]


@st.composite
def integer_matrices(draw, size, entries):
    """A matrix of at most size x size entries, as a list of rows."""
    n_rows = draw(st.integers(min_value=1, max_value=size))
    n_cols = draw(st.integers(min_value=1, max_value=size))
    row = st.lists(entries, min_size=n_cols, max_size=n_cols)
    return draw(st.lists(row, min_size=n_rows, max_size=n_rows))


def sympy_invariants(matrix):
    """Rank and invariant factors > 1 from sympy's Smith normal form over ZZ."""
    snf = smith_normal_form(matrix, domain=ZZ)
    nonzero = [abs(snf[i, i]) for i in range(min(snf.shape)) if snf[i, i]]
    return len(nonzero), tuple(v for v in nonzero if v > 1)


class TestSmithInvariants:
    def test_examples(self):
        assert smith_invariants(2, columns_from_rows([[1, 0], [0, 1]])) == (2, ())
        assert smith_invariants(2, columns_from_rows([[0, 0], [0, 0]])) == (0, ())
        # No unit entries: the dense finish must run and normalize to (2, 4).
        assert smith_invariants(2, columns_from_rows([[2, 4], [6, 8]])) == (2, (2, 4))
        # Divisibility normalization across a diagonal.
        assert smith_invariants(2, columns_from_rows([[2, 0], [0, 3]])) == (2, (6,))

    def test_rejects_bad_row_index(self):
        with pytest.raises(ValueError):
            smith_invariants(1, [{1: 1}])

    def test_deadline(self):
        cols = columns_from_rows([[2, 4], [6, 8]])
        with pytest.raises(BudgetError):
            smith_invariants(2, cols, deadline=time.monotonic() - 1.0)

    def test_deadline_checked_within_the_columns(self, monkeypatch, reducer_clock):
        # Unit pivots on the diagonal leave no residual and no dense core, so
        # every reading is one of the columns drawn: one per column with the
        # clock read every column, and a deadline between two stops partway.
        monkeypatch.setattr(tr.homology, "_DEADLINE_CHUNK", 1)
        cols = [{j: 1} for j in range(8)]
        assert smith_invariants(8, cols, deadline=float("inf")) == (8, ())
        assert reducer_clock.ticks == 8
        reducer_clock.ticks = 0
        with pytest.raises(BudgetError, match=r"integer elimination at column [1-9]"):
            smith_invariants(8, cols, deadline=3.5)
        assert reducer_clock.ticks == 4

    def test_deadline_checked_in_dense_finish(self, reducer_clock):
        # No entry is a unit, so both columns reach the dense core.  The
        # clock is read before column 0 and before each residual column,
        # three readings; a deadline after those stops at the first round
        # of the dense finish.
        cols = columns_from_rows([[2, 4], [6, 8]])
        assert smith_invariants(2, cols, deadline=float("inf")) == (2, (2, 4))
        assert reducer_clock.ticks > 4
        reducer_clock.ticks = 0
        with pytest.raises(BudgetError, match="during dense Smith normal form"):
            smith_invariants(2, cols, deadline=3.5)
        assert reducer_clock.ticks == 4

    @given(
        st.one_of(
            integer_matrices(5, st.integers(min_value=-9, max_value=9)),
            # Sparse, with unit entries beside non-unit lows.
            integer_matrices(10, st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3])),
        )
    )
    @settings(deadline=None, max_examples=100)
    def test_matches_sympy(self, rows):
        n_rows, n_cols = len(rows), len(rows[0])
        rank, factors = smith_invariants(n_rows, columns_from_rows(rows))
        assert (rank, factors) == sympy_invariants(Matrix(rows))

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.data(),
    )
    @settings(deadline=None, max_examples=200)
    def test_dense_diagonal_is_a_divisibility_chain(self, n_rows, n_cols, data):
        # smith_invariants returns the dense finish's diagonal as it comes,
        # so that diagonal must already be positive with each entry
        # dividing the next.
        rows = data.draw(
            st.lists(
                st.lists(
                    st.sampled_from([0, 0, 1, -2, 2, 3, -4, 6, 9, -12]),
                    min_size=n_cols,
                    max_size=n_cols,
                ),
                min_size=n_rows,
                max_size=n_rows,
            )
        )
        diagonal = _dense_snf_diagonal([list(row) for row in rows])
        assert all(d > 0 for d in diagonal)
        assert all(b % a == 0 for a, b in zip(diagonal, diagonal[1:]))


class TestHomologyInteger:
    def test_square_is_a_circle(self):
        cx = enumerate_simplices(tr.vr_graph(tr.cycle_space(4), 1), 3)
        profile = tr.homology_integer(cx.graph, 1)
        assert profile.coefficients == "integer"
        assert profile.betti == (1, 1)
        assert profile.torsion == ((), ())

    def test_projective_plane_torsion(self):
        # Minimal six-vertex triangulation of the real projective plane:
        # every vertex pair is an edge and ten triangles close the surface.
        # H_1 must come out as the cyclic group of order 2.
        faces = [
            (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 5), (0, 4, 5),
            (1, 2, 4), (1, 2, 5), (1, 3, 5), (2, 3, 4), (3, 4, 5),
        ]
        edges = sorted(itertools.combinations(range(6), 2))
        edge_index = {e: i for i, e in enumerate(edges)}
        # Each edge lies in exactly two triangles; this pins the face list.
        use = {e: 0 for e in edges}
        for f in faces:
            for e in itertools.combinations(f, 2):
                use[e] += 1
        assert set(use.values()) == {2}

        d1 = [{u: -1, v: 1} for u, v in edges]
        d2 = []
        for a, b, c in faces:
            d2.append({edge_index[(b, c)]: 1, edge_index[(a, c)]: -1, edge_index[(a, b)]: 1})
        rank1, factors1 = smith_invariants(6, d1)
        rank2, factors2 = smith_invariants(len(edges), d2)
        assert (rank1, factors1) == (5, ())
        assert (rank2, factors2) == (10, (2,))
        assert 6 - rank1 == 1                    # one component
        assert len(edges) - rank1 - rank2 == 0   # H_1 free rank 0
        assert len(faces) - rank2 == 0           # H_2 = 0

    def test_agrees_with_gf2_when_torsion_free(self):
        for space, k, depth in [
            (tr.torus_space(5), 2, 3),
            (tr.cycle_space(9), 3, 3),
            (tr.torus_space(12), 5, 3),
        ]:
            cx = enumerate_simplices(tr.vr_graph(space, k), depth)
            a = tr.betti_gf2(cx.graph, depth - 1)
            b = tr.homology_integer(cx.graph, depth - 1)
            assert all(t == () for t in b.torsion)
            assert a.betti == b.betti

    def test_smith_fallback_limits(self, monkeypatch, dense_cores):
        # The dense Smith core is refused before it is allocated when it
        # would hold more than _DENSE_CORE_LIMIT entries.
        graph = projective_plane_subdivision()
        cx = enumerate_simplices(graph, graph.vertex_count - 1)
        monkeypatch.setattr(tr.homology, "_DENSE_CORE_LIMIT", 0)
        with pytest.raises(BudgetError, match=r"dense Smith normal form core of 1 x 1"):
            tr.homology_integer(cx.graph, 2)
        assert dense_cores == []

    def test_projective_plane_subdivision_torsion(self, dense_cores):
        # H_1 = Z/2 has an invariant factor 2, which no reduction on unit
        # pivots alone can produce: the one residual column of dimension 1,
        # and no other, must reach the dense Smith core, on one row.
        graph = projective_plane_subdivision()
        cx = enumerate_simplices(graph, graph.vertex_count - 1)
        assert cx.complete and cx.counts == (31, 90, 60)
        profile = tr.homology_integer(cx.graph, 2)
        assert profile.betti == (1, 0, 0)
        assert profile.torsion == ((), (2,), ())
        assert profile.euler == 1
        assert dense_cores == [(1, 1)]
        assert (profile.betti, profile.torsion) == homology_direction_integer(cx, 2)

        config = tr.RunConfig(coefficients="integer")
        via_pipeline, _ = tr.compute_profile(graph_space(graph), 1, config)
        assert via_pipeline == profile

    def test_projective_plane_suspension_torsion(self, dense_cores):
        # Suspension moves Z/2 up to H_2.  Dimension 1 is torsion-free, and
        # all its unit pivots clear dimension 2 before that dimension meets
        # its non-unit entry.
        graph = suspension(projective_plane_subdivision())
        cx = enumerate_simplices(graph, graph.vertex_count - 1)
        assert cx.complete and cx.counts == (33, 152, 240, 120)
        profile = tr.homology_integer(cx.graph, 3)
        assert profile.betti == (1, 0, 0, 0)
        assert profile.torsion == ((), (), (2,), ())
        assert dense_cores == [(1, 1)]

    def test_torus_13_scale_5_torsion(self, dense_cores):
        # The first torus with torsion: H_3 = Z^3 + (Z/2)^24.  Its 24 factors
        # of 2 come out of one dense finish on 25 residual columns of 91 rows.
        config = tr.RunConfig(coefficients="integer", max_dim=4)
        profile, _ = tr.compute_profile(tr.torus_space(13), 5, config)
        assert profile.betti == (1, 0, 0, 3, 2)
        assert profile.torsion == ((), (), (), (2,) * 24, ())
        assert dense_cores == [(91, 25)]

    def test_torus_13_scale_5_looks_up_each_row_once(self, monkeypatch, dense_cores):
        # The walk looks each row up once as it pops.  Rescanning every
        # residual column for its rows with a pivot after each elimination
        # built 408,062 common neighbourhoods here; the walk builds 13,161.
        calls = [0]
        common_neighbours = tr.homology._common_neighbours

        def counted(masks, key):
            calls[0] += 1
            return common_neighbours(masks, key)

        monkeypatch.setattr(tr.homology, "_common_neighbours", counted)
        config = tr.RunConfig(coefficients="integer", max_dim=4)
        profile, _ = tr.compute_profile(tr.torus_space(13), 5, config)
        assert profile.torsion[3] == (2,) * 24
        assert dense_cores == [(91, 25)]
        assert calls[0] < 20_000

    @pytest.mark.parametrize(
        "graph",
        [
            projective_plane_subdivision(),
            suspension(projective_plane_subdivision()),
            with_midpoint_chord(projective_plane_subdivision()),
        ],
        ids=["rp2", "rp2-suspension", "rp2-midpoint-chord"],
    )
    def test_boundary_invariants_match_sympy(self, graph):
        # The homology-direction reference shares its elimination with the
        # reducer, so sympy checks it on every boundary of the torsion cases.
        cx = enumerate_simplices(graph, graph.vertex_count - 1)
        assert cx.complete
        for d in range(1, cx.top_dim + 1):
            columns = signed_boundary_columns(cx, d)
            matrix = Matrix(cx.counts[d - 1], len(columns), lambda i, j: columns[j].get(i, 0))
            assert smith_invariants(cx.counts[d - 1], columns) == sympy_invariants(matrix)

    def test_each_uncleared_dead_end_is_filed_once(self, monkeypatch):
        # The residual column of dimension 1 is finished in place and goes
        # straight to the dense core: _add_column sees each uncleared dead
        # end once and no column twice.
        uncleared, filed = [], []
        reduce = tr.homology._reduce
        add_column = tr.homology._add_column

        def count_uncleared(columns, *args):
            columns = list(columns)
            uncleared.append(len(columns))
            return reduce(columns, *args)

        def count_filed(col, *args):
            filed.append(col)
            return add_column(col, *args)

        monkeypatch.setattr(tr.homology, "_reduce", count_uncleared)
        monkeypatch.setattr(tr.homology, "_add_column", count_filed)
        profile = tr.homology_integer(projective_plane_subdivision(), 2)
        assert profile.torsion == ((), (2,), ())
        assert len(filed) == sum(uncleared) == 40

    def test_residual_is_finished_on_pivot_rows(self, dense_cores):
        # With the midpoint chord the residual column of dimension 1 has odd
        # entries in unit pivot rows: alone it has no factor 2, and only
        # once reduced against those pivots does it keep the torsion.
        graph = with_midpoint_chord(projective_plane_subdivision())
        cx = enumerate_simplices(graph, graph.vertex_count - 1)
        assert cx.complete and cx.counts == (31, 91, 61)
        profile = tr.homology_integer(cx.graph, 2)
        assert (profile.betti, profile.torsion) == ((1, 0, 0), ((), (2,), ()))
        assert dense_cores == [(1, 1)]
        assert (profile.betti, profile.torsion) == homology_direction_integer(cx, 2)

    @given(
        st.one_of(
            random_graph_complexes(),
            relabelled_torus_complexes(),
            truncated_complexes(),
            relabelled_torsion_complexes(),
        )
    )
    @settings(deadline=None, max_examples=60)
    def test_cohomology_matches_homology_direction(self, case):
        cx, max_dim = case
        profile = tr.homology_integer(cx.graph, max_dim)
        assert (profile.betti, profile.torsion) == homology_direction_integer(cx, max_dim)

    def test_deadline_checked_within_a_dimension(self, monkeypatch, reducer_clock):
        monkeypatch.setattr(tr.homology, "_DEADLINE_CHUNK", 16)
        graph = tr.vr_graph(tr.torus_space(7), 3)
        tr.homology_integer(graph, 3, deadline=float("inf"))
        readings = reducer_clock.ticks
        reducer_clock.ticks = 0
        with pytest.raises(BudgetError, match=r"integer reduction of dimension 3 at column [1-9]"):
            tr.homology_integer(graph, 3, deadline=readings - 0.5)

    def test_deadline_checked_in_residual_finish(self, monkeypatch, reducer_clock):
        # With the dense Smith normal form stubbed out, the last reading of
        # the clock is the one before the residual column is finished: the
        # triangles have no coboundary, and nothing lies above them to probe.
        graph = projective_plane_subdivision()
        monkeypatch.setattr(tr.homology, "_dense_snf_diagonal", lambda m, deadline: [2])
        tr.homology_integer(graph, 2, deadline=float("inf"))
        readings = reducer_clock.ticks
        reducer_clock.ticks = 0
        with pytest.raises(BudgetError, match=r"integer reduction of dimension 1 at residual 0"):
            tr.homology_integer(graph, 2, deadline=readings - 0.5)


def test_reducers_never_read_vertex_tuples(monkeypatch):
    # Both rings reduce FlagComplex.keys alone, the integer residual core
    # included; the tuple view serves listings and the references.
    torus_cx = enumerate_simplices(tr.vr_graph(tr.torus_space(5), 2), 3)
    want_gf2 = homology_direction_betti(torus_cx, 2)
    want_integer = homology_direction_integer(torus_cx, 2)
    graph = projective_plane_subdivision()
    rp2_cx = enumerate_simplices(graph, graph.vertex_count - 1)
    want_rp2 = homology_direction_integer(rp2_cx, 2)
    assert want_rp2 == ((1, 0, 0), ((), (2,), ()))

    def refuse(cx):
        raise AssertionError("a reducer read FlagComplex.simplices")

    monkeypatch.setattr(FlagComplex, "simplices", property(refuse))
    with pytest.raises(AssertionError):
        rp2_cx.simplices
    gf2, _ = tr.compute_profile(tr.torus_space(5), 2, tr.RunConfig(max_dim=2))
    assert gf2.betti == want_gf2
    integer, _ = tr.compute_profile(
        tr.torus_space(5), 2, tr.RunConfig(coefficients="integer", max_dim=2)
    )
    assert (integer.betti, integer.torsion) == want_integer
    rp2 = tr.homology_integer(rp2_cx.graph, 2)
    assert (rp2.betti, rp2.torsion) == want_rp2


def test_scan_counts_every_layer_before_any_reduction(monkeypatch):
    # One scan counts the layers through max_dim + 1 before the dead ends of
    # any dimension are reduced, so a refusal comes before any reduction.
    reduced = []
    reduce = tr.homology._reduce

    def spy(columns, pivots, modulus, deadline, stage):
        reduced.append(int(stage.rsplit(" ", 1)[1]))
        return reduce(columns, pivots, modulus, deadline, stage)

    monkeypatch.setattr(tr.homology, "_reduce", spy)
    graph = tr.vr_graph(tr.torus_space(5), 2)
    for reducer in (tr.betti_gf2, tr.homology_integer):
        reduced.clear()
        profile = reducer(graph, 2)
        assert reduced == [0, 1, 2]
        assert profile.counts == (25, 150, 300, 200)

    # The whole complex: the top layer has no coboundary to reduce.
    reduced.clear()
    assert tr.betti_gf2(tr.vr_graph(tr.cycle_space(6), 2), None).counts == (6, 12, 8)
    assert reduced == [0, 1]

    # The fixture betti_torus8_k6_d6_over_budget: the running total passes
    # the budget while the subtree of vertex 0 is counted in dimension 5.
    reduced.clear()
    with pytest.raises(SimplexBudgetError,
                       match="while enumerating dimension 5 at 2156579 simplices") as info:
        tr.betti_gf2(tr.vr_graph(tr.torus_space(8), 6), 6, budget=1_000_000)
    assert (info.value.dim, info.value.count) == (5, 2156579)
    assert reduced == []


@st.composite
def graphs_and_depths(draw):
    """A random graph or relabelled torus, a ring, and a max_dim near its top dimension."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=1, max_value=8))
        pairs = list(itertools.combinations(range(n), 2))
        graph = tr.Graph.from_edges(n, draw(st.lists(st.sampled_from(pairs), unique=True))
                                    if pairs else [])
    else:
        n, k = draw(st.sampled_from([(3, 1), (4, 1), (4, 2), (5, 1), (5, 2)]))
        seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
        graph = relabelled(tr.vr_graph(tr.torus_space(n), k), seed)
    top = enumerate_simplices(graph, graph.vertex_count - 1).top_dim
    max_dim = max(0, top + draw(st.integers(min_value=-2, max_value=2)))
    return graph, max_dim, draw(st.sampled_from(["gf2", "integer"]))


@given(graphs_and_depths())
@settings(deadline=None, max_examples=80)
def test_stream_matches_enumerated_reference(case):
    # The reference enumerates two dimensions above max_dim: the second one
    # settles whether the complex ends within one dimension of max_dim.
    graph, max_dim, ring = case
    cx = enumerate_simplices(graph, max_dim + 2)
    if ring == "gf2":
        profile = tr.betti_gf2(graph, max_dim)
        betti, torsion = homology_direction_betti(cx, max_dim), ((),) * (max_dim + 1)
    else:
        profile = tr.homology_integer(graph, max_dim)
        betti, torsion = homology_direction_integer(cx, max_dim)
    ends = cx.top_dim <= max_dim + 1
    # Enumerated two up, a complex that ends within one of max_dim is complete.
    assert cx.complete or not ends
    assert (profile.betti, profile.torsion, profile.euler, profile.truncated_at) == (
        betti,
        torsion,
        tr.euler_characteristic(cx.counts) if ends else None,
        None if cx.top_dim <= max_dim else max_dim,
    )
    assert profile.counts == cx.counts[: max_dim + 2]


@st.composite
def torsion_graphs_and_depths(draw):
    """A relabelled RP2 subdivision or its suspension, a ring, and a max_dim near its top.

    Joining the midpoints 6 and 11, as in test_residual_is_finished_on_pivot_rows,
    adds an edge the collapse removes, so the torsion has to survive a collapse.
    """
    graph = projective_plane_subdivision()
    if draw(st.booleans()):
        graph = with_midpoint_chord(graph)
    top = 2
    if draw(st.booleans()):
        graph, top = suspension(graph), 3
    graph = relabelled(graph, draw(st.integers(min_value=0, max_value=2**32 - 1)))
    max_dim = top + draw(st.integers(min_value=-2, max_value=1))
    return graph, max_dim, draw(st.sampled_from(["gf2", "integer"]))


@given(st.one_of(graphs_and_depths(), torsion_graphs_and_depths()), st.booleans())
@settings(deadline=None, max_examples=80)
def test_collapsed_profile_matches_raw_reducers(case, full):
    # compute_profile reduces the collapsed graph, the reducers called
    # directly the raw one.  The complexes are homotopy equivalent, but the
    # collapsed one can end lower, and so know euler or completeness sooner.
    graph, max_dim, ring = case
    if full:
        max_dim = None
    reduce = tr.betti_gf2 if ring == "gf2" else tr.homology_integer
    raw = reduce(graph, max_dim)
    collapsed, _ = tr.compute_profile(
        graph_space(graph), 1, tr.RunConfig(coefficients=ring, max_dim=max_dim)
    )
    depth = max(len(raw.betti), len(collapsed.betti))

    def padded(p):
        return [(p.betti_at(d), p.torsion[d] if d < len(p.torsion) else ()) for d in range(depth)]

    assert padded(collapsed) == padded(raw)
    if raw.euler is not None and collapsed.euler is not None:
        assert collapsed.euler == raw.euler
    if raw.truncated_at is None:
        assert collapsed.truncated_at is None


def test_cases_include_columns_without_extensions():
    # A column with a nonzero extension mask is an apparent pair with the
    # low key | topbit(cand).  These inputs of the property above also have
    # columns with none whose cofaces add a vertex below the last one, so the
    # dead-end reduction is crossed as well.
    for graph in (
        tr.vr_graph(tr.torus_space(4), 2),
        relabelled(tr.vr_graph(tr.torus_space(5), 2), 1),
        tr.Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]),
    ):
        assert any(
            cand == 0 and _common_neighbours(graph.masks, key)
            for keys, cands in clique_layers(graph)
            for key, cand in zip(keys, cands)
        )


@pytest.mark.parametrize(
    "space,k,max_dim",
    [
        (graph_space(projective_plane_subdivision()), 1, 2),
        (graph_space(suspension(projective_plane_subdivision())), 1, 3),
        (tr.torus_space(13), 5, 4),
    ],
    ids=["rp2", "rp2-suspension", "torus-13-k5"],
)
def test_universal_coefficients_across_rings(space, k, max_dim):
    # Over GF(2), every even invariant factor of H_d(Z) adds one to the Betti
    # numbers of dimensions d and d + 1; odd factors vanish.
    integer, _ = tr.compute_profile(space, k, tr.RunConfig("integer", max_dim))
    gf2, _ = tr.compute_profile(space, k, tr.RunConfig("gf2", max_dim))
    assert any(integer.torsion)

    def even(d):
        return sum(1 for t in integer.torsion[d] if t % 2 == 0) if d >= 0 else 0

    want = tuple(b + even(d) + even(d - 1) for d, b in enumerate(integer.betti))
    assert gf2.betti == want


class TestExpectedCycleProfile:
    @pytest.mark.parametrize(
        "n,k,betti",
        [
            (4, 1, (1, 1)),
            (7, 1, (1, 1)),
            (12, 3, (1, 1)),
            (3, 1, (1,)),
            (5, 2, (1,)),
            (7, 3, (1,)),
            (6, 2, (1, 0, 1)),
            (9, 3, (1, 0, 2)),
            (8, 3, (1, 0, 0, 1)),
            (11, 4, (1, 0, 0, 1)),
            (10, 4, (1, 0, 0, 0, 1)),
            (9, 4, (1,)),
            (5, 0, (5,)),
            (6, 3, (1,)),
            (4, 2, (1,)),
        ],
    )
    def test_examples(self, n, k, betti):
        profile = tr.expected_cycle_profile(n, k)
        assert profile.betti == betti
        assert profile.truncated_at is None
        assert profile.euler == sum(
            b if d % 2 == 0 else -b for d, b in enumerate(betti)
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            tr.expected_cycle_profile(2, 1)
        with pytest.raises(ValueError):
            tr.expected_cycle_profile(5, -1)


class TestBettiProfile:
    def test_betti_at_and_covers(self):
        profile = tr.BettiProfile("gf2", (1, 2), ((), ()), None, 1)
        assert profile.betti_at(0) == 1
        assert profile.betti_at(1) == 2
        assert profile.betti_at(5) == 0
        assert profile.covers(1)
        assert not profile.covers(2)
