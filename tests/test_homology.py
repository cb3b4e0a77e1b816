"""Tests for GF(2) reduction, integer Smith normal form, and Betti profiles."""

import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

import torus_rips as tr
from torus_rips.errors import BudgetError, TruncatedComplexError
from torus_rips.homology import signed_boundary_columns, smith_invariants


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
        for v in graph.neighbors[u]:
            parent[find(u)] = find(v)
    return len({find(v) for v in range(graph.vertex_count)})


def homology_direction_betti(cx, max_dim):
    """GF(2) Betti numbers from dense numpy ranks of the boundary matrices."""
    ranks = [0] * (max_dim + 2)
    for d in range(1, min(max_dim + 1, cx.top_dim) + 1):
        mat = tr.boundary_matrix(cx, d)
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


@st.composite
def random_graph_complexes(draw):
    """A complete complex of a random graph on at most 8 vertices, all dimensions."""
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    cx = tr.enumerate_simplices(tr.Graph.from_edges(n, edges), n - 1)
    return cx, cx.top_dim


@st.composite
def relabelled_torus_complexes(draw):
    """A small torus complex whose vertices are renamed by a seeded permutation."""
    n, k = draw(st.sampled_from([(3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2)]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    graph = tr.vr_graph(tr.torus_space(n), k)
    perm = list(range(graph.vertex_count))
    random.Random(seed).shuffle(perm)
    edges = [(perm[u], perm[v]) for u in range(graph.vertex_count) for v in graph.neighbors[u]
             if u < v]
    cx = tr.enumerate_simplices(tr.Graph.from_edges(graph.vertex_count, edges), 8)
    return cx, cx.top_dim


@st.composite
def truncated_complexes(draw):
    """A complex cut off below its top, reported below its last enumerated dimension."""
    n, k = draw(st.sampled_from([(4, 2), (5, 2), (6, 2), (7, 2)]))
    depth = draw(st.integers(min_value=1, max_value=3))
    cx = tr.enumerate_simplices(tr.vr_graph(tr.torus_space(n), k), depth)
    return cx, draw(st.integers(min_value=0, max_value=cx.top_dim - 1))


class TestGf2Rank:
    def test_examples(self):
        assert tr.gf2_rank([(0,), (1,), (2,)])[0] == 3
        assert tr.gf2_rank([(0, 1), (1, 2), (0, 2)])[0] == 2
        assert tr.gf2_rank([(), ()])[0] == 0
        rank, pivots = tr.gf2_rank([(0, 1), (1,)])
        assert rank == 2
        assert pivots == {0, 1}

    def test_skip_clears_known_zero_columns(self):
        cols = [(0, 1), (0, 1), (2,)]
        assert tr.gf2_rank(cols)[0] == 2
        # Declaring column 1 already-reduced must not change the rank of the
        # remaining columns.
        assert tr.gf2_rank(cols, skip=frozenset({1}))[0] == 2

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
        assert tr.gf2_rank(cols)[0] == dense_gf2_rank(n_rows, cols)

    def test_deadline(self):
        cols = [(i,) for i in range(10)]
        with pytest.raises(BudgetError):
            tr.gf2_rank(cols, deadline=time.monotonic() - 1.0)
        # The check also runs over cleared columns.
        with pytest.raises(BudgetError):
            tr.gf2_rank(cols, skip=frozenset(range(10)), deadline=time.monotonic() - 1.0)


class TestBettiGf2:
    def test_square_is_a_circle(self):
        cx = tr.enumerate_simplices(tr.vr_graph(tr.cycle_space(4), 1), 3)
        profile = tr.betti_gf2(cx, 1)
        assert profile.betti == (1, 1)
        assert profile.coefficients == "gf2"
        assert profile.euler == 0
        assert profile.truncated_at is None

    def test_cycle_six_scale_two_is_a_sphere(self):
        cx = tr.enumerate_simplices(tr.vr_graph(tr.cycle_space(6), 2), 5)
        assert tr.betti_gf2(cx, 2).betti == (1, 0, 1)

    def test_scale_zero_counts_components(self):
        cx = tr.enumerate_simplices(tr.vr_graph(tr.cycle_space(7), 0), 1)
        assert tr.betti_gf2(cx, 0).betti == (7,)

    def test_requires_one_extra_dimension(self):
        cx = tr.enumerate_simplices(tr.vr_graph(tr.torus_space(5), 2), 2)
        assert not cx.complete
        tr.betti_gf2(cx, 1)
        with pytest.raises(TruncatedComplexError):
            tr.betti_gf2(cx, 2)

    def test_truncated_profile_has_no_euler(self):
        cx = tr.enumerate_simplices(tr.vr_graph(tr.torus_space(5), 2), 2)
        profile = tr.betti_gf2(cx, 1)
        assert profile.euler is None
        assert profile.truncated_at == 1
        assert profile.covers(1)
        assert not profile.covers(2)

    def test_depth_beyond_top_of_complete_complex(self):
        cx = tr.enumerate_simplices(tr.vr_graph(tr.cycle_space(4), 1), 9)
        profile = tr.betti_gf2(cx, 5)
        assert profile.betti == (1, 1, 0, 0, 0, 0)
        assert profile.truncated_at is None

    def test_betti_sum_matches_euler(self):
        for space, k, depth in [
            (tr.cycle_space(6), 2, 3),
            (tr.cycle_space(9), 3, 4),
            (tr.torus_space(4), 2, 5),
            (tr.torus_space(4), 3, 8),
        ]:
            cx = tr.enumerate_simplices(tr.vr_graph(space, k), depth)
            assert cx.complete
            profile = tr.betti_gf2(cx, cx.top_dim)
            alternating = sum(
                b if d % 2 == 0 else -b for d, b in enumerate(profile.betti)
            )
            assert alternating == tr.euler_characteristic(cx) == profile.euler

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
            cx = tr.enumerate_simplices(graph, n - 1)
            assert cx.complete
            profile = tr.betti_gf2(cx, cx.top_dim)
            assert profile.betti == homology_direction_betti(cx, cx.top_dim)
            assert profile.betti[0] == component_count(graph)

    @given(
        st.one_of(random_graph_complexes(), relabelled_torus_complexes(), truncated_complexes())
    )
    @settings(deadline=None, max_examples=60)
    def test_cohomology_matches_homology_direction(self, case):
        cx, max_dim = case
        assert tr.betti_gf2(cx, max_dim).betti == homology_direction_betti(cx, max_dim)

    def test_deadline_already_passed(self):
        cx = tr.enumerate_simplices(tr.vr_graph(tr.torus_space(5), 2), 3)
        with pytest.raises(BudgetError):
            tr.betti_gf2(cx, 2, deadline=time.monotonic() - 1.0)
        config = tr.RunConfig(max_dim=2, time_budget_secs=0.0)
        with pytest.raises(BudgetError):
            tr.compute_profile(tr.torus_space(5), 2, config)

    def test_deadline_checked_within_a_dimension(self, monkeypatch):
        # A clock that ticks once per reading: the run must stop partway
        # through the columns of one dimension, not only between dimensions.
        class Clock:
            ticks = 0

            def monotonic(self):
                Clock.ticks += 1
                return Clock.ticks

        cx = tr.enumerate_simplices(tr.vr_graph(tr.torus_space(7), 3), 4)
        assert cx.counts[3] > 4096
        monkeypatch.setattr(tr.homology, "time", Clock())
        tr.betti_gf2(cx, 3, deadline=float("inf"))
        readings = Clock.ticks
        Clock.ticks = 0
        with pytest.raises(BudgetError, match=r"GF\(2\) reduction at column [1-9]"):
            tr.betti_gf2(cx, 3, deadline=readings - 0.5)

    def test_projective_plane_reduces_mod_two(self, monkeypatch):
        # H_1 = Z/2 makes betti 1 in dimensions 1 and 2 over GF(2).  Exact
        # integer operations without the mod-2 step would lose both, and no
        # GF(2) dimension may reach the integer Smith normal form.
        graph = projective_plane_subdivision()
        cx = tr.enumerate_simplices(graph, graph.vertex_count - 1)
        calls = []
        smith = tr.homology.smith_invariants

        def spy(*args, **kwargs):
            calls.append(args)
            return smith(*args, **kwargs)

        monkeypatch.setattr(tr.homology, "smith_invariants", spy)
        profile = tr.betti_gf2(cx, 2)
        assert profile.betti == (1, 1, 1) == homology_direction_betti(cx, 2)
        assert profile.torsion == ((), (), ())
        assert not calls

    def test_component_count_on_torus_scales(self):
        for n, k in [(4, 0), (6, 1), (5, 2)]:
            graph = tr.vr_graph(tr.torus_space(n), k)
            cx = tr.enumerate_simplices(graph, 1)
            assert tr.betti_gf2(cx, 0).betti[0] == component_count(graph)

    def test_rejects_negative_dimension(self):
        cx = tr.enumerate_simplices(tr.vr_graph(tr.cycle_space(4), 1), 2)
        with pytest.raises(ValueError):
            tr.betti_gf2(cx, -1)


class TestSignedBoundary:
    def test_signs_alternate(self):
        g = tr.Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        cx = tr.enumerate_simplices(g, 2)
        (col,) = signed_boundary_columns(cx, 2)
        edges = {s: i for i, s in enumerate(cx.simplices[1])}
        assert col == {edges[(1, 2)]: 1, edges[(0, 2)]: -1, edges[(0, 1)]: 1}

    def test_boundary_of_boundary_is_zero(self):
        cx = tr.enumerate_simplices(tr.vr_graph(tr.torus_space(4), 2), 4)
        for d in range(2, cx.top_dim + 1):
            low = signed_boundary_columns(cx, d - 1)
            for col in signed_boundary_columns(cx, d):
                acc = {}
                for face, sign in col.items():
                    for r, v in low[face].items():
                        acc[r] = acc.get(r, 0) + sign * v
                assert all(v == 0 for v in acc.values())

    def test_rejects_out_of_range(self):
        cx = tr.enumerate_simplices(tr.vr_graph(tr.cycle_space(5), 1), 2)
        with pytest.raises(ValueError):
            signed_boundary_columns(cx, 0)


def columns_from_rows(rows):
    n_cols = len(rows[0]) if rows else 0
    return [
        {i: rows[i][j] for i in range(len(rows)) if rows[i][j]}
        for j in range(n_cols)
    ]


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

    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
        st.data(),
    )
    @settings(deadline=None, max_examples=60)
    def test_matches_sympy(self, n_rows, n_cols, data):
        rows = data.draw(
            st.lists(
                st.lists(
                    st.integers(min_value=-9, max_value=9),
                    min_size=n_cols,
                    max_size=n_cols,
                ),
                min_size=n_rows,
                max_size=n_rows,
            )
        )
        rank, factors = smith_invariants(n_rows, columns_from_rows(rows))
        snf = smith_normal_form(Matrix(rows))
        diag = [abs(snf[i, i]) for i in range(min(n_rows, n_cols))]
        nonzero = [v for v in diag if v]
        assert rank == len(nonzero)
        assert factors == tuple(v for v in nonzero if v > 1)


class TestHomologyInteger:
    def test_square_is_a_circle(self):
        cx = tr.enumerate_simplices(tr.vr_graph(tr.cycle_space(4), 1), 3)
        profile = tr.homology_integer(cx, 1)
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
        ]:
            cx = tr.enumerate_simplices(tr.vr_graph(space, k), depth)
            a = tr.betti_gf2(cx, depth - 1)
            b = tr.homology_integer(cx, depth - 1)
            assert all(t == () for t in b.torsion)
            assert a.betti == b.betti

    def test_column_budget(self):
        cx = tr.enumerate_simplices(tr.vr_graph(tr.torus_space(5), 2), 3)
        with pytest.raises(BudgetError, match="Smith normal form budget"):
            tr.homology_integer(cx, 2, column_budget=10)
        # The lowest dimension over the cap is named, before any reduction.
        over = cx.counts[2] - 1
        assert cx.counts[1] <= over
        with pytest.raises(BudgetError, match=rf"dimension 2 has {cx.counts[2]} columns"):
            tr.homology_integer(cx, 2, column_budget=over, deadline=time.monotonic() - 1.0)

    def test_projective_plane_subdivision_torsion(self, monkeypatch):
        # H_1 = Z/2 has an invariant factor 2, which no reduction on unit
        # pivots alone can produce: this dimension must reach smith_invariants.
        graph = projective_plane_subdivision()
        cx = tr.enumerate_simplices(graph, graph.vertex_count - 1)
        assert cx.complete and cx.counts == (31, 90, 60)
        calls = []
        smith = tr.homology.smith_invariants

        def spy(n_rows, columns, deadline=None):
            calls.append(len(columns))
            return smith(n_rows, columns, deadline)

        monkeypatch.setattr(tr.homology, "smith_invariants", spy)
        profile = tr.homology_integer(cx, 2)
        assert profile.betti == (1, 0, 0)
        assert profile.torsion == ((), (2,), ())
        assert profile.euler == 1
        assert calls
        assert (profile.betti, profile.torsion) == homology_direction_integer(cx, 2)

        space = tr.FiniteMetricSpace(
            point_count=graph.vertex_count,
            distance=lambda a, b: 0 if a == b else (1 if graph.has_edge(a, b) else 2),
            label="RP2 subdivision",
        )
        config = tr.RunConfig(coefficients="integer")
        via_pipeline, _ = tr.compute_profile(space, 1, config)
        assert via_pipeline == profile

    @given(
        st.one_of(random_graph_complexes(), relabelled_torus_complexes(), truncated_complexes())
    )
    @settings(deadline=None, max_examples=60)
    def test_cohomology_matches_homology_direction(self, case):
        cx, max_dim = case
        profile = tr.homology_integer(cx, max_dim)
        assert (profile.betti, profile.torsion) == homology_direction_integer(cx, max_dim)

    def test_deadline_checked_within_a_dimension(self, monkeypatch):
        class Clock:
            ticks = 0

            def monotonic(self):
                Clock.ticks += 1
                return Clock.ticks

        cx = tr.enumerate_simplices(tr.vr_graph(tr.torus_space(7), 3), 4)
        assert cx.counts[3] > 4096
        monkeypatch.setattr(tr.homology, "time", Clock())
        tr.homology_integer(cx, 3, deadline=float("inf"))
        readings = Clock.ticks
        Clock.ticks = 0
        with pytest.raises(BudgetError, match=r"integer reduction at column [1-9]"):
            tr.homology_integer(cx, 3, deadline=readings - 0.5)

    def test_requires_one_extra_dimension(self):
        cx = tr.enumerate_simplices(tr.vr_graph(tr.torus_space(5), 2), 2)
        with pytest.raises(TruncatedComplexError):
            tr.homology_integer(cx, 2)


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
