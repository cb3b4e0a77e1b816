"""Tests for the closed-form facet catalogs and the maximal-clique oracle."""

import builtins
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torus_rips as tr
from bron_kerbosch_reference import reference_facets
from facet_catalog_reference import cycle_reference, torus_reference, window_reference
from torus_rips import facets as facets_module
from torus_rips.complexes import enumerate_simplices, iter_bits
from torus_rips.errors import BudgetError, UnsupportedRegimeError
from torus_rips.facets import _diamonds


def oracle_for(space, k):
    return tr.brute_force_facets(tr.vr_graph(space, k))


def mask_of(vertices):
    """The bitmask of a vertex collection: bit v set iff v is in it."""
    return sum(1 << v for v in set(vertices))


def doubled_center(stencil):
    """The stencil's center in doubled coordinates; a stencil is symmetric about it."""
    xs = [x for x, _ in stencil]
    ys = [y for _, y in stencil]
    return min(xs) + max(xs), min(ys) + max(ys)


class TestDiamondCenter:
    def test_even_scale_needs_equal_parity(self):
        for k in (2, 4, 6):
            centers = [doubled_center(s) for s in _diamonds(k)]
            assert centers == [(0, 0), (1, 1)]
            assert all(x2 % 2 == y2 % 2 for x2, y2 in centers)

    def test_odd_scale_needs_mixed_parity(self):
        for k in (1, 3, 5):
            centers = [doubled_center(s) for s in _diamonds(k)]
            assert centers == [(1, 0), (0, 1)]
            assert all(x2 % 2 != y2 % 2 for x2, y2 in centers)


class TestZ2Facet:
    """The two plane facet stencils per scale that both catalogs translate."""

    def test_scale_one_is_an_edge(self):
        assert _diamonds(1) == (((0, 0), (1, 0)), ((0, 0), (0, 1)))

    def test_scale_two_diamond_and_square(self):
        diamond, square = _diamonds(2)
        assert len(diamond) == 5
        assert set(diamond) == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}
        assert set(square) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_scale_three_size(self):
        assert [len(stencil) for stencil in _diamonds(3)] == [8, 8]

    def test_points_sorted_and_within_scale(self):
        for k in range(1, 6):
            for stencil in _diamonds(k):
                assert list(stencil) == sorted(stencil)
                for (ax, ay), (bx, by) in itertools.combinations(stencil, 2):
                    assert abs(ax - bx) + abs(ay - by) <= k


class TestWindowFacets:
    def test_matches_interior_filtered_oracle(self):
        for k in (1, 2, 3):
            win = tr.Window(-(k + 2), k + 2, -(k + 2), k + 2)
            got = tr.z2_facets_in_window(win, k)
            oracle = oracle_for(tr.window_space(win), k)
            interior = {
                f for f in oracle.facets if tr.in_window_interior(win, k, f)
            }
            assert got.facets == interior

    def test_scale_two_shapes(self):
        win = tr.Window(-4, 4, -4, 4)
        got = tr.z2_facets_in_window(win, 2)
        sizes = {len(f) for f in got}
        assert sizes == {4, 5}
        shapes = set()
        for f in got:
            pts = [win.point(i) for i in f]
            x0 = min(p.x for p in pts)
            y0 = min(p.y for p in pts)
            shapes.add(frozenset((p.x - x0, p.y - y0) for p in pts))
        # Up to translation there are exactly two facet shapes at scale 2:
        # the 5-point diamond and the unit square.
        assert len(shapes) == 2

    def test_window_too_small(self):
        with pytest.raises(ValueError):
            tr.z2_facets_in_window(tr.Window(0, 5, 0, 5), 2)
        with pytest.raises(ValueError):
            tr.z2_facets_in_window(tr.Window(0, 8, 0, 8), 0)

    def test_in_window_interior(self):
        win = tr.Window(-4, 4, -4, 4)
        center = win.index((0, 0))
        edge = win.index((4, 0))
        assert tr.in_window_interior(win, 2, mask_of([center]))
        assert not tr.in_window_interior(win, 2, mask_of([center, edge]))

    @pytest.mark.parametrize("idx", [-1, 81, 200])
    def test_in_window_interior_rejects_outside_index(self, idx):
        # 81 is one past the 9 x 9 window's last index; -1 is the int whose
        # every bit is set, so it holds every index past the window too.
        win = tr.Window(-4, 4, -4, 4)
        mask = 1 << win.index((0, 0)) | (idx if idx < 0 else 1 << idx)
        with pytest.raises(ValueError, match="out of range for the 81 vertices"):
            tr.in_window_interior(win, 2, mask)


class TestCycleFacets:
    def test_arc_regime(self):
        got = tr.cycle_facets(10, 3)
        assert len(got) == 10
        assert (0, 1, 2, 3) in set(got)
        assert (0, 1, 8, 9) in set(got)

    def test_triple_regime(self):
        got = tr.cycle_facets(9, 3)
        assert len(got) == 12
        assert (0, 3, 6) in set(got)
        assert (1, 4, 7) in set(got)
        assert (2, 5, 8) in set(got)

    def test_tetra_regime(self):
        got = tr.cycle_facets(8, 3)
        assert len(got) == 16
        assert (0, 3, 5, 6) in set(got)

    def test_short_cycle_triples_collapse(self):
        # On the 6-cycle at scale 2 the index shifts repeat each equally
        # spaced triple three times; set semantics must leave exactly two of
        # them alongside the six consecutive arcs.
        got = tr.cycle_facets(6, 2)
        assert len(got) == 8
        assert {(0, 2, 4), (1, 3, 5)} <= set(got)
        arcs = set(got) - {(0, 2, 4), (1, 3, 5)}
        assert arcs == {tuple(sorted((i + j) % 6 for j in range(3))) for i in range(6)}

    @pytest.mark.parametrize(
        "n,k",
        [(7, 1), (10, 3), (6, 2), (9, 3), (12, 4), (8, 3), (11, 4), (30, 9)],
    )
    def test_matches_oracle(self, n, k):
        got = tr.cycle_facets(n, k)
        assert got.facets == oracle_for(tr.cycle_space(n), k).facets

    def test_facets_are_maximal_and_within_scale(self):
        n, k = 9, 3
        space = tr.cycle_space(n)
        graph = tr.vr_graph(space, k)
        for f in tr.cycle_facets(n, k).facets:
            assert tr.is_maximal_clique(graph, f)
            for u, v in itertools.combinations(iter_bits(f), 2):
                assert space.distance(u, v) <= k

    @pytest.mark.parametrize("n,k", [(3, 1), (5, 2), (4, 2), (6, 3), (7, 3)])
    def test_unsupported_regimes(self, n, k):
        with pytest.raises(UnsupportedRegimeError, match="supported"):
            tr.cycle_facets(n, k)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            tr.cycle_facets(2, 1)
        with pytest.raises(ValueError):
            tr.cycle_facets(5, 0)


class TestTorusFacets:
    def test_wide_regime_count(self):
        got = tr.torus_facets(7, 2)
        assert len(got) == 98
        assert {len(f) for f in got} == {4, 5}

    def test_triple_regime_count(self):
        got = tr.torus_facets(6, 2)
        assert len(got) == 96
        triangles = {f for f in got if len(f) == 3}
        assert len(triangles) == 24

    def test_tetra_regime_count(self):
        assert len(tr.torus_facets(8, 3)) == 256
        assert len(tr.torus_facets(9, 3)) == 216
        assert len(tr.torus_facets(12, 4)) == 384

    # T12 k4 and T11 k4 are the n = 3k and n = 3k - 1 regimes; T16 k5 and
    # T20 k4 are graphs of the benchmark's size, 256 and 400 vertices.
    @pytest.mark.parametrize(
        "n,k", [(6, 2), (7, 2), (8, 3), (12, 4), (11, 4), (16, 5), (20, 4)]
    )
    def test_matches_oracle(self, n, k):
        got = tr.torus_facets(n, k)
        assert got.facets == oracle_for(tr.torus_space(n), k).facets

    def test_axis_triples_share_at_most_one_vertex(self):
        triangles = [f for f in tr.torus_facets(6, 2) if len(f) == 3]
        for a, b in itertools.combinations(triangles, 2):
            assert len(set(a) & set(b)) <= 1

    @pytest.mark.parametrize("n,k", [(6, 1), (7, 3), (6, 4), (5, 2), (12, 6)])
    def test_unsupported_regimes(self, n, k):
        with pytest.raises(UnsupportedRegimeError, match="supported"):
            tr.torus_facets(n, k)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            tr.torus_facets(2, 2)
        with pytest.raises(ValueError):
            tr.torus_facets(6, 0)


class TestProjectFacet:
    def test_plain_projection(self):
        # The scale-2 diamond around the origin, taken mod 7 onto the torus.
        assert (0, 1, 6, 7, 42) in set(tr.torus_facets(7, 2))

    def test_collision_detected(self, monkeypatch):
        # A stencil as wide as the torus would land two points on one vertex.
        wide = (((0, 0), (7, 0)), ((0, 0), (0, 1)))
        monkeypatch.setattr(facets_module, "_diamonds", lambda k: wide)
        with pytest.raises(RuntimeError, match="wraps onto itself"):
            tr.torus_facets(7, 2)

    def test_family_size_checked(self, monkeypatch):
        # Two copies of one stencil give n * n facets, not 2 * n * n.
        square = ((0, 0), (0, 1), (1, 0), (1, 1))
        monkeypatch.setattr(facets_module, "_diamonds", lambda k: (square, square))
        with pytest.raises(RuntimeError, match="expected 98"):
            tr.torus_facets(7, 2)


def random_graphs(max_vertices=12, densities=(0.2, 0.5, 0.8, 0.95)):
    """Graphs on at most max_vertices vertices, each pair an edge with a drawn density."""

    @st.composite
    def graphs(draw):
        n = draw(st.integers(min_value=1, max_value=max_vertices))
        density = draw(st.sampled_from(densities))
        rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
        return tr.Graph.from_edges(n, edges)

    return graphs()


class TestBruteForceFacets:
    def test_edgeless_graph(self):
        g = tr.Graph.from_edges(3, [])
        assert oracle_set(g) == {(0,), (1,), (2,)}

    def test_complete_graph(self):
        g = tr.Graph.from_edges(4, itertools.combinations(range(4), 2))
        assert oracle_set(g) == {(0, 1, 2, 3)}

    def test_path_graph(self):
        g = tr.Graph.from_edges(3, [(0, 1), (1, 2)])
        assert oracle_set(g) == {(0, 1), (1, 2)}

    def test_deterministic(self):
        g = tr.vr_graph(tr.torus_space(5), 2)
        assert sorted(tr.brute_force_facets(g)) == sorted(tr.brute_force_facets(g))

    def test_vertex_budget(self):
        g = tr.Graph.from_edges(2001, [])
        with pytest.raises(BudgetError):
            tr.brute_force_facets(g)

    def test_clique_budget(self, monkeypatch):
        # Three isolated vertices are three maximal cliques.
        g = tr.Graph.from_edges(3, [])
        monkeypatch.setattr(facets_module, "BRUTE_FORCE_CLIQUE_BUDGET", 3)
        assert len(tr.brute_force_facets(g)) == 3
        monkeypatch.setattr(facets_module, "BRUTE_FORCE_CLIQUE_BUDGET", 2)
        with pytest.raises(BudgetError, match="limited to 2 maximal cliques"):
            tr.brute_force_facets(g)

    def test_repeated_clique_detected(self, monkeypatch):
        # The search reports each maximal clique once whatever the masks say,
        # so the guard is reached only through a fault: here the set of the
        # reported cliques comes out one short of their list.
        monkeypatch.setattr(facets_module, "frozenset",
                            lambda out: builtins.frozenset(out[1:]), raising=False)
        g = tr.Graph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(RuntimeError, match="reported 1 repeated cliques"):
            tr.brute_force_facets(g)

    def test_universal_vertices_join_the_clique(self):
        # 0 and 1 are adjacent to every other vertex, so the root moves both
        # into the clique before it branches on 3 and 2.
        g = tr.Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
        assert oracle_set(g) == {(0, 1, 2), (0, 1, 3)}

    def test_excluded_vertex_off_the_universal_set_leaves(self):
        # On the path 4 - 0 - 1 - 2 - 3 the edge (0, 1) is reached at the
        # node R = {0}, P = {1}, X = {4}: 1 is universal in P and 4 is not
        # adjacent to it, so 4 must leave X for the edge to be reported.
        g = tr.Graph.from_edges(5, [(4, 0), (0, 1), (1, 2), (2, 3)])
        assert oracle_set(g) == {(0, 4), (0, 1), (1, 2), (2, 3)}

    @given(random_graphs(max_vertices=24, densities=(0.1, 0.3, 0.5, 0.7, 0.9, 0.97, 1.0)))
    @settings(deadline=None, max_examples=200)
    def test_matches_reference_on_random_graphs(self, graph):
        assert tr.brute_force_facets(graph).facets == reference_facets(graph).facets

    @given(random_graphs())
    @settings(deadline=None, max_examples=150)
    def test_matches_maximal_enumerated_cliques(self, graph):
        # Independent of the pivot rule: every clique is listed, then the
        # ones some common neighbour extends are dropped.
        cx = enumerate_simplices(graph, graph.vertex_count - 1)
        want = {
            sigma for layer in cx.simplices for sigma in layer
            if tr.is_maximal_clique(graph, mask_of(sigma))
        }
        assert set(tr.brute_force_facets(graph)) == want


# The benchmark's catalog graphs, then the acceptance tori and window scales.
REFERENCE_CASES = [
    *(pytest.param(tr.torus_space(n), k, id=f"T{n} k{k}")
      for n, k in [(16, 5), (20, 4), (20, 6), (24, 5), (24, 7), (30, 6)]),
    *(pytest.param(tr.window_space(tr.Window(-h, h, -h, h)), k, id=f"W{2 * h + 1} k{k}")
      for h, k in [(12, 4), (15, 5)]),
    *(pytest.param(tr.torus_space(n), k, id=f"T{n} k{k}")
      for n, k in [(7, 2), (8, 2), (9, 2), (10, 2), (11, 2), (12, 2), (10, 3), (11, 3),
                   (12, 3), (6, 2), (9, 3), (12, 4), (8, 3), (11, 4)]),
    *(pytest.param(tr.window_space(tr.Window(-6, 6, -6, 6)), k, id=f"W13 k{k}")
      for k in range(1, 6)),
]


@pytest.mark.parametrize("space,k", REFERENCE_CASES)
def test_matches_reference_search(space, k):
    graph = tr.vr_graph(space, k)
    assert tr.brute_force_facets(graph).facets == reference_facets(graph).facets


def oracle_set(graph):
    """The oracle's facets, decoded to ascending vertex tuples."""
    return set(tr.brute_force_facets(graph))


def maximal_cliques_by_subsets(graph):
    """Every vertex subset that is a clique and that no added vertex keeps a clique."""
    n = graph.vertex_count
    clique = [True] * (1 << n)
    for s in range(1, 1 << n):
        low = (s & -s).bit_length() - 1
        rest = s ^ 1 << low
        clique[s] = clique[rest] and all(graph.has_edge(low, v) for v in iter_bits(rest))
    return {
        s for s in range(1 << n)
        if clique[s] and not any(clique[s | 1 << v] for v in range(n) if not s >> v & 1)
    }


class TestIsMaximalClique:
    def test_examples(self):
        g = tr.Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert tr.is_maximal_clique(g, mask_of((0, 1, 2)))
        assert tr.is_maximal_clique(g, mask_of((2, 3)))
        assert not tr.is_maximal_clique(g, mask_of((0, 1)))      # extends by 2
        assert not tr.is_maximal_clique(g, mask_of((0, 3)))      # not a clique

    @given(random_graphs())
    @settings(deadline=None, max_examples=60)
    def test_matches_every_subset(self, graph):
        n = graph.vertex_count
        got = {s for s in range(1 << n) if tr.is_maximal_clique(graph, s)}
        assert got == maximal_cliques_by_subsets(graph)


@st.composite
def windows_and_masks(draw):
    """A window of side 1 to 12 at any offset, a scale, and a mask of its indices."""
    width = draw(st.integers(min_value=1, max_value=12))
    height = draw(st.integers(min_value=1, max_value=12))
    x0 = draw(st.integers(min_value=-6, max_value=6))
    y0 = draw(st.integers(min_value=-6, max_value=6))
    window = tr.Window(x0, x0 + width - 1, y0, y0 + height - 1)
    k = draw(st.integers(min_value=1, max_value=6))
    mask = draw(st.integers(min_value=0, max_value=(1 << width * height) - 1))
    return window, k, mask


class TestInWindowInteriorMask:
    @given(windows_and_masks())
    @settings(deadline=None, max_examples=300)
    def test_matches_per_vertex_definition(self, case):
        window, k, mask = case
        margin = (k + 1) // 2
        want = all(
            window.x_min + margin <= p.x <= window.x_max - margin
            and window.y_min + margin <= p.y <= window.y_max - margin
            for p in map(window.point, iter_bits(mask))
        )
        assert tr.in_window_interior(window, k, mask) == want

    @given(windows_and_masks(), st.integers(min_value=0, max_value=200))
    @settings(deadline=None, max_examples=150)
    def test_bit_past_the_window_raises(self, case, past):
        window, k, mask = case
        size = window.width * window.height
        with pytest.raises(ValueError, match=f"out of range for the {size} vertices"):
            tr.in_window_interior(window, k, mask | 1 << size + past)


class TestFacetSet:
    def test_iteration_sorted(self):
        fs = tr.FacetSet(facets=frozenset({mask_of((2, 3)), mask_of((0, 1))}))
        assert list(fs) == [(0, 1), (2, 3)]
        assert len(fs) == 2

    def test_symmetric_difference(self):
        a = tr.FacetSet(facets=frozenset({mask_of((0, 1)), mask_of((2, 3))}))
        b = tr.FacetSet(facets=frozenset({mask_of((2, 3)), mask_of((4, 5))}))
        only_a, only_b = a.symmetric_difference(b)
        assert only_a == [(0, 1)]
        assert only_b == [(4, 5)]

    def test_listing_is_sorted_as_vertex_tuples(self):
        # Mask order is not listing order: {0, 5} is the larger int, {1, 2}
        # the later tuple.
        fs = tr.FacetSet(facets=frozenset({mask_of((1, 2)), mask_of((0, 5))}))
        assert list(fs) == [(0, 5), (1, 2)]


def supported(catalog, n, k):
    try:
        catalog(n, k)
    except UnsupportedRegimeError:
        return False
    return True


class TestReferenceCatalogs:
    """The mask catalogs, decoded, equal the catalogs built vertex by vertex."""

    def test_every_supported_torus_up_to_side_16(self):
        cases = [(n, k) for n in range(3, 17) for k in range(1, n)
                 if supported(tr.torus_facets, n, k)]
        assert len(cases) == 29
        for n, k in cases:
            assert set(tr.torus_facets(n, k)) == torus_reference(n, k), f"T{n} k{k}"

    def test_every_supported_cycle_up_to_length_40(self):
        cases = [(n, k) for n in range(3, 41) for k in range(1, n)
                 if supported(tr.cycle_facets, n, k)]
        assert len(cases) == 270
        for n, k in cases:
            assert set(tr.cycle_facets(n, k)) == cycle_reference(n, k), f"C{n} k{k}"

    def test_every_window_up_to_21_by_21(self):
        # Square and non-square windows of every side from 2k + 3 to 21, with
        # corners off the origin so that no index is a plain coordinate.
        count = 0
        for k in range(1, 10):
            for width in range(2 * k + 3, 22):
                for height in range(2 * k + 3, 22):
                    window = tr.Window(-(width // 2), width - 1 - width // 2, 3, 2 + height)
                    got = set(tr.z2_facets_in_window(window, k))
                    assert got == window_reference(window, k), f"{width}x{height} k{k}"
                    count += 1
        assert count == 969


def test_compare_path_keeps_masks_not_tuples():
    # Both sides of the T30 k6 comparison hold 1,800 facets of 25 vertices.
    # As vertex tuples one facet took about 860 bytes (a 256-byte tuple plus
    # a fresh int per vertex id above 256) and the traced peak was 3.23 MB;
    # as one 900-bit mask it takes about 150 plus its set slot, and the peak
    # with the scale graph built inside the trace is 0.81 MB.
    tracemalloc.start()
    try:
        catalog = tr.torus_facets(30, 6)
        oracle = tr.brute_force_facets(tr.vr_graph(tr.torus_space(30), 6))
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    held = len(catalog) + len(oracle)
    assert held == 3600
    assert peak < 320 * held
