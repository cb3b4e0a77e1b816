"""Tests for scale graphs, clique enumeration, and GF(2) boundary matrices."""

import io
import itertools
import math
import time
import tracemalloc

import pytest

import torus_rips as tr
from torus_rips.complexes import iter_bits
from torus_rips.errors import (
    BudgetError,
    SimplexBudgetError,
    TruncatedComplexError,
)


def clique_oracle(graph, max_size):
    """All cliques of the graph with at most max_size vertices, by brute force."""
    found = {frozenset((v,)) for v in range(graph.vertex_count)}
    for size in range(2, max_size + 1):
        for subset in itertools.combinations(range(graph.vertex_count), size):
            if all(graph.has_edge(u, v) for u, v in itertools.combinations(subset, 2)):
                found.add(frozenset(subset))
    return found


class TestGraph:
    def test_from_edges(self):
        g = tr.Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
        assert g.neighbors == ((1, 2), (0, 2), (0, 1), ())
        assert g.degree(0) == 2
        assert g.degree(3) == 0
        assert g.has_edge(0, 2)
        assert not g.has_edge(0, 3)
        assert g.edge_count() == 3
        assert not g.is_complete()

    def test_masks_match_neighbors(self):
        g = tr.Graph.from_edges(5, [(0, 4), (1, 3), (2, 4)])
        for v in range(5):
            assert tuple(iter_bits(g.masks[v])) == g.neighbors[v]

    def test_complete_graph(self):
        edges = itertools.combinations(range(5), 2)
        assert tr.Graph.from_edges(5, edges).is_complete()

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            tr.Graph.from_edges(3, [(1, 1)])
        with pytest.raises(ValueError):
            tr.Graph.from_edges(3, [(0, 3)])
        with pytest.raises(ValueError):
            tr.Graph.from_edges(0, [])


class TestVrGraph:
    def test_torus_scale_one(self):
        g = tr.vr_graph(tr.torus_space(4), 1)
        assert g.vertex_count == 16
        assert all(g.degree(v) == 4 for v in range(16))
        assert g.edge_count() == 32

    def test_cycle_scale_two(self):
        g = tr.vr_graph(tr.cycle_space(6), 2)
        assert all(g.degree(v) == 4 for v in range(6))

    def test_scale_zero_has_no_edges(self):
        g = tr.vr_graph(tr.torus_space(3), 0)
        assert g.edge_count() == 0

    def test_scale_at_diameter_is_complete(self):
        g = tr.vr_graph(tr.torus_space(5), tr.torus_diameter(5))
        assert g.is_complete()

    def test_rejects_negative_scale(self):
        with pytest.raises(ValueError):
            tr.vr_graph(tr.cycle_space(5), -1)


class TestEnumerateSimplices:
    def test_cycle_six_scale_two_counts(self):
        # Six triangles of consecutive vertices plus the two "long" triangles
        # {0,2,4} and {1,3,5}; no tetrahedra.  Euler characteristic 2.
        cx = tr.enumerate_simplices(tr.vr_graph(tr.cycle_space(6), 2), 5)
        assert cx.counts == (6, 12, 8)
        assert cx.complete
        assert tr.euler_characteristic(cx) == 2
        assert (0, 2, 4) in cx.simplices[2]
        assert (1, 3, 5) in cx.simplices[2]

    @pytest.mark.parametrize(
        "space,k",
        [
            (tr.cycle_space(7), 2),
            (tr.cycle_space(9), 3),
            (tr.torus_space(4), 2),
        ],
    )
    def test_matches_brute_force_cliques(self, space, k):
        graph = tr.vr_graph(space, k)
        cx = tr.enumerate_simplices(graph, 4)
        got = {
            frozenset(sigma)
            for layer in cx.simplices
            for sigma in layer
        }
        assert got == clique_oracle(graph, 5)

    def test_cross_polytope_counts(self):
        # At one below its diameter the 4x4 torus grid drops only antipodal
        # pairs, so the complex is the boundary of the 8-dimensional
        # cross-polytope: 2^(d+1) * C(8, d+1) simplices in dimension d.
        cx = tr.enumerate_simplices(tr.vr_graph(tr.torus_space(4), 3), 16)
        assert cx.top_dim == 7
        assert cx.complete
        for d in range(8):
            assert cx.counts[d] == 2 ** (d + 1) * math.comb(8, d + 1)
        assert tr.euler_characteristic(cx) == 0

    def test_layers_are_sorted_and_deterministic(self):
        graph = tr.vr_graph(tr.torus_space(5), 2)
        cx1 = tr.enumerate_simplices(graph, 4)
        cx2 = tr.enumerate_simplices(graph, 4)
        assert cx1.simplices == cx2.simplices
        for layer in cx1.simplices:
            assert list(layer) == sorted(layer)
            assert all(list(s) == sorted(set(s)) for s in layer)

    def test_faces_of_every_simplex_are_listed(self):
        cx = tr.enumerate_simplices(tr.vr_graph(tr.cycle_space(8), 3), 4)
        for d in range(1, cx.top_dim + 1):
            below = set(cx.simplices[d - 1])
            for sigma in cx.simplices[d]:
                for i in range(len(sigma)):
                    assert sigma[:i] + sigma[i + 1:] in below

    def test_truncation_is_detected(self):
        graph = tr.vr_graph(tr.torus_space(5), 2)
        cx = tr.enumerate_simplices(graph, 1)
        assert not cx.complete
        assert cx.count_at(1) == cx.counts[1]
        with pytest.raises(TruncatedComplexError):
            cx.count_at(2)
        with pytest.raises(TruncatedComplexError):
            tr.euler_characteristic(cx)

    def test_complete_count_at_beyond_top(self):
        cx = tr.enumerate_simplices(tr.vr_graph(tr.cycle_space(6), 2), 9)
        assert cx.complete
        assert cx.count_at(3) == 0
        assert cx.count_at(9) == 0

    def test_simplex_budget(self):
        graph = tr.vr_graph(tr.torus_space(6), 2)
        with pytest.raises(SimplexBudgetError) as info:
            tr.enumerate_simplices(graph, 10, budget=100)
        assert info.value.budget == 100
        assert info.value.dim >= 1
        assert "dimension" in str(info.value)
        # None disables the cap.
        cx = tr.enumerate_simplices(graph, 2, budget=None)
        assert cx.counts[0] == 36

    def test_time_deadline(self):
        graph = tr.vr_graph(tr.torus_space(5), 2)
        with pytest.raises(BudgetError):
            tr.enumerate_simplices(graph, 4, deadline=time.monotonic() - 1.0)

    def test_simplex_budget_is_exact(self):
        graph = tr.vr_graph(tr.torus_space(6), 2)
        counts = tr.enumerate_simplices(graph, 3).counts
        for d in range(1, 4):
            through = sum(counts[: d + 1])
            assert tr.enumerate_simplices(graph, d, budget=through).counts == counts[: d + 1]
            with pytest.raises(SimplexBudgetError) as info:
                tr.enumerate_simplices(graph, d, budget=through - 1)
            assert info.value.dim == d
            assert str(info.value) == (
                f"simplex budget of {through - 1} exceeded while enumerating dimension {d}"
            )

    def test_simplex_budget_refuses_before_building(self):
        # K_24 through dimension 3 holds 12,950 simplices; dimension 4 would
        # add 42,504.  A budget of 12,950 must stop without building them.
        graph = tr.Graph.from_edges(24, itertools.combinations(range(24), 2))
        budget = sum(math.comb(24, r) for r in range(1, 5))

        def peak(**kwargs):
            tracemalloc.start()
            try:
                tr.enumerate_simplices(graph, **kwargs)
            except SimplexBudgetError:
                pass
            finally:
                peak_bytes = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            return peak_bytes

        kept = peak(max_dim=3)
        built = peak(max_dim=4)
        refused = peak(max_dim=4, budget=budget)
        assert built > 3 * kept
        assert refused < 1.5 * kept

    def test_deadline_checked_within_a_dimension(self, monkeypatch):
        # A clock that ticks once per reading: the run must stop partway
        # through the parents of one dimension, not only between dimensions.
        class Clock:
            ticks = 0

            def monotonic(self):
                Clock.ticks += 1
                return Clock.ticks

        graph = tr.vr_graph(tr.torus_space(7), 3)
        assert tr.enumerate_simplices(graph, 4).counts[4] > 4096
        monkeypatch.setattr(tr.complexes, "time", Clock())
        tr.enumerate_simplices(graph, 5, deadline=float("inf"))
        readings = Clock.ticks
        # More readings than dimensions: some dimension was checked twice.
        assert readings > 5
        for late in (0.5, 1.5):
            Clock.ticks = 0
            with pytest.raises(BudgetError, match="enumerating dimension 5"):
                tr.enumerate_simplices(graph, 5, deadline=readings - late)

    def test_rejects_negative_max_dim(self):
        with pytest.raises(ValueError):
            tr.enumerate_simplices(tr.vr_graph(tr.cycle_space(4), 1), -1)

    def test_isometry_invariance(self):
        # Composing a quarter turn with a translation is an isometry of the
        # torus grid, so simplex counts must not change when vertices are
        # relabeled through it.
        n = 5
        base = tr.torus_space(n)

        def permute(v):
            r, c = divmod(v, n)
            return ((c + 2) % n) * n + ((n - 1 - r + 1) % n)

        perm = [permute(v) for v in range(n * n)]
        assert sorted(perm) == list(range(n * n))
        twisted = tr.FiniteMetricSpace(
            point_count=n * n,
            distance=lambda a, b: base.distance(perm[a], perm[b]),
            label="twisted torus 5",
        )
        for k in (1, 2, 3):
            cx_a = tr.enumerate_simplices(tr.vr_graph(base, k), 3)
            cx_b = tr.enumerate_simplices(tr.vr_graph(twisted, k), 3)
            assert cx_a.counts == cx_b.counts
            assert cx_a.complete == cx_b.complete


class TestBoundaryMatrix:
    def test_small_example(self):
        # Path 0-1-2: two edges sharing vertex 1.
        g = tr.Graph.from_edges(3, [(0, 1), (1, 2)])
        cx = tr.enumerate_simplices(g, 2)
        mat = tr.boundary_matrix(cx, 1)
        assert mat.n_rows == 3
        assert mat.n_cols == 2
        assert mat.columns == ((0, 1), (1, 2))

    def test_boundary_of_boundary_is_zero(self):
        cx = tr.enumerate_simplices(tr.vr_graph(tr.torus_space(5), 2), 4)
        for d in range(2, cx.top_dim + 1):
            low = tr.boundary_matrix(cx, d - 1)
            high = tr.boundary_matrix(cx, d)
            for col in high.columns:
                acc = set()
                for face in col:
                    acc.symmetric_difference_update(low.columns[face])
                assert not acc

    def test_rejects_out_of_range_dimension(self):
        cx = tr.enumerate_simplices(tr.vr_graph(tr.cycle_space(5), 1), 3)
        with pytest.raises(ValueError):
            tr.boundary_matrix(cx, 0)
        with pytest.raises(ValueError):
            tr.boundary_matrix(cx, cx.top_dim + 1)


class TestTextFormat:
    def test_roundtrip(self):
        cx = tr.enumerate_simplices(tr.vr_graph(tr.cycle_space(7), 2), 3)
        buf = io.StringIO()
        tr.write_simplex_list(
            buf, cx.simplices[2], header={"space": "cycle 7", "k": 2, "dim": 2}
        )
        buf.seek(0)
        header, simplices = tr.read_simplex_list(buf)
        assert header == {"space": "cycle 7", "k": "2", "dim": "2"}
        assert simplices == sorted(cx.simplices[2])

    def test_lines_are_sorted(self):
        text = tr.format_simplex_lines([(2, 5), (0, 3), (0, 1)])
        assert text == "0 1\n0 3\n2 5\n"

    def test_rejects_unsorted_simplex(self):
        with pytest.raises(ValueError):
            tr.format_simplex_lines([(3, 1)])
        with pytest.raises(ValueError):
            tr.read_simplex_list(io.StringIO("1 1\n"))

    def test_blank_lines_and_plain_comments_skipped(self):
        header, simplices = tr.read_simplex_list(
            io.StringIO("# note without colon\n\n# k: 3\n0 2\n")
        )
        assert header == {"k": "3"}
        assert simplices == [(0, 2)]


def test_iter_bits():
    assert list(iter_bits(0)) == []
    assert list(iter_bits(0b10110)) == [1, 2, 4]
