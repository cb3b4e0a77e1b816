"""Tests for scale graphs, clique enumeration, GF(2) boundary matrices and the
facets text format."""

import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import torus_rips as tr
from coboundary_reference import clique_layers
from torus_rips.cli import format_simplex_lines
from torus_rips.complexes import (
    collapse_edges,
    degeneracy_order,
    enumerate_simplices,
    iter_bits,
    scan_clique_tree,
)
from torus_rips.errors import (
    BudgetError,
    SimplexBudgetError,
    TruncatedComplexError,
)
from torus_rips.homology import boundary_matrix


def clique_oracle(graph, max_size):
    """All cliques of the graph with at most max_size vertices, by brute force."""
    found = {frozenset((v,)) for v in range(graph.vertex_count)}
    for size in range(2, max_size + 1):
        for subset in itertools.combinations(range(graph.vertex_count), size):
            if all(graph.has_edge(u, v) for u, v in itertools.combinations(subset, 2)):
                found.add(frozenset(subset))
    return found


def all_pairs_vr_graph(space, k):
    """The scale-k graph by measuring every pair: the reference for vr_graph."""
    n = space.point_count
    dist = space.distance
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if 0 < dist(u, v) <= k]
    return tr.Graph.from_edges(n, edges)


def matrix_space(rows, label):
    return tr.FiniteMetricSpace(
        point_count=len(rows), distance=lambda a, b: rows[a][b], label=label
    )


def random_graph(n, density, seed):
    """A seeded random graph on n vertices, each pair an edge with the given probability."""
    rng = random.Random(seed)
    pairs = itertools.combinations(range(n), 2)
    return tr.Graph.from_edges(n, [pair for pair in pairs if rng.random() < density])


def random_graph_space(n, density, seed):
    """Distance 1 on the edges of ``random_graph(n, density, seed)``, 2 elsewhere.

    Its scale-1 graph is the random graph itself.
    """
    graph = random_graph(n, density, seed)
    rows = [[0 if u == v else 2 - graph.has_edge(u, v) for v in range(n)] for u in range(n)]
    return matrix_space(rows, f"random graph {n} {density} {seed}")


@st.composite
def weighted_graph_spaces(draw):
    """Shortest-path metric of a random connected graph with weights 1 to 5."""
    n = draw(st.integers(min_value=1, max_value=12))
    inf = float("inf")
    rows = [[0 if u == v else inf for v in range(n)] for u in range(n)]

    def join(u, v, w):
        rows[u][v] = rows[v][u] = min(rows[u][v], w)

    weights = st.integers(min_value=1, max_value=5)
    for v in range(1, n):
        join(draw(st.integers(min_value=0, max_value=v - 1)), v, draw(weights))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        for u, v in draw(st.lists(st.sampled_from(pairs), unique=True)):
            join(u, v, draw(weights))
    for w, u, v in itertools.product(range(n), repeat=3):
        rows[u][v] = min(rows[u][v], rows[u][w] + rows[w][v])
    return matrix_space([[int(d) for d in row] for row in rows], f"weighted graph {n}")


def relabelled_torus(n, seed):
    """The n-torus grid with its vertices renamed by ``random.Random(seed)``."""
    base = tr.torus_space(n)
    perm = list(range(base.point_count))
    random.Random(seed).shuffle(perm)
    return tr.FiniteMetricSpace(
        point_count=base.point_count,
        distance=lambda a, b: base.distance(perm[a], perm[b]),
        label=f"relabelled torus {n}",
    )


@st.composite
def relabelled_tori(draw):
    """A torus grid whose vertices are renamed by a seeded permutation."""
    return relabelled_torus(draw(st.integers(min_value=3, max_value=7)),
                            draw(st.integers(min_value=0, max_value=2**32 - 1)))


windows = st.builds(
    lambda w, h: tr.window_space(tr.Window(0, w - 1, 0, h - 1)),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=1, max_value=7),
)
cycles = st.builds(tr.cycle_space, st.integers(min_value=3, max_value=16))


class TestGraph:
    def test_from_edges(self):
        g = tr.Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])
        assert g.masks == (0b110, 0b101, 0b011, 0)
        assert g.degree(0) == 2
        assert g.degree(3) == 0
        assert g.has_edge(0, 2)
        assert not g.has_edge(0, 3)
        assert g.edge_count() == 3
        assert not g.is_complete()

    def test_degrees_are_mask_popcounts(self):
        g = tr.Graph.from_edges(5, [(0, 4), (1, 3), (2, 4)])
        popcounts = [bin(m).count("1") for m in g.masks]
        assert [g.degree(v) for v in range(5)] == popcounts == [1, 1, 1, 1, 2]
        assert g.edge_count() == sum(popcounts) // 2 == 3

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
        g = tr.vr_graph(tr.torus_space(5), 4)  # the diameter of the 5-torus
        assert g.is_complete()

    def test_rejects_negative_scale(self):
        with pytest.raises(ValueError):
            tr.vr_graph(tr.cycle_space(5), -1)

    @given(st.one_of(weighted_graph_spaces(), relabelled_tori(), windows, cycles))
    @example(tr.window_space(tr.Window(0, 0, 0, 0)))
    @example(matrix_space([[0, 3], [3, 0]], "two points"))
    @settings(deadline=None, max_examples=80)
    def test_matches_all_pairs_scan(self, space):
        n = space.point_count
        diameter = max(space.distance(u, v) for u in range(n) for v in range(n))
        for k in range(diameter + 2):
            got = tr.vr_graph(space, k)
            want = all_pairs_vr_graph(space, k)
            assert got.vertex_count == n
            assert got.masks == want.masks

    def test_measures_few_pairs(self):
        # A fall back to measuring every pair would make N(N - 1)/2 calls.
        # The landmarks are deterministic, so the pairs measured are too.
        base = tr.torus_space(30)
        calls = [0]

        def dist(a, b):
            calls[0] += 1
            return base.distance(a, b)

        space = tr.FiniteMetricSpace(point_count=base.point_count, distance=dist, label="counted")
        graph = tr.vr_graph(space, 6)
        n = space.point_count
        assert graph.edge_count() == n * 84 // 2  # a radius-6 L1 ball has 85 points
        assert calls[0] == 57_964

    def test_deadline_checked_within_the_rows(self, monkeypatch):
        # A clock that ticks once per reading: the build reads it before each
        # of its four landmark rows and every 4096 vertex rows, so it stops
        # partway through the rows, not after the last one.
        class Clock:
            ticks = 0

            def monotonic(self):
                Clock.ticks += 1
                return Clock.ticks

        space = tr.torus_space(65)
        n = space.point_count
        assert n > 4096
        monkeypatch.setattr(tr.complexes, "time", Clock())
        tr.vr_graph(space, 1, deadline=float("inf"))
        readings = Clock.ticks
        assert readings == 4 + -(-n // 4096)
        for late in (0.5, 1.5, 4.5, readings - 0.5):
            Clock.ticks = 0
            with pytest.raises(BudgetError,
                               match="^time budget exceeded while building the scale graph$"):
                tr.vr_graph(space, 1, deadline=late)
            assert Clock.ticks == math.ceil(late)
        Clock.ticks = 0
        with pytest.raises(BudgetError, match="building the scale graph"):
            tr.compute_profile(space, 1, tr.RunConfig(max_dim=1), deadline=0.5)


def edge_set(graph):
    return {(u, v) for u in range(graph.vertex_count) for v in iter_bits(graph.masks[u]) if u < v}


def dominated_edges(graph):
    """Edges uv with a common neighbour w and N[u] & N[v] <= N[w], from closed-neighbourhood sets."""
    closed = [set(iter_bits(m)) | {v} for v, m in enumerate(graph.masks)]
    return {
        (u, v) for u, v in edge_set(graph)
        if any(closed[u] & closed[v] <= closed[w] for w in closed[u] & closed[v] - {u, v})
    }


def reference_collapse(graph):
    """Dominated-edge removal on neighbourhood sets: the edges left and the edges scanned.

    Each pass scans the edges present at its start in ascending order, testing
    each against the sets as they are then; passes repeat until one removes
    nothing.
    """
    closed = [set(iter_bits(m)) | {v} for v, m in enumerate(graph.masks)]
    scanned = 0
    removed = True
    while removed:
        removed = False
        for u, v in sorted((u, v) for u, near in enumerate(closed) for v in near if u < v):
            scanned += 1
            common = closed[u] & closed[v]
            if any(common <= closed[w] for w in common - {u, v}):
                closed[u].remove(v)
                closed[v].remove(u)
                removed = True
    return {(u, v) for u, near in enumerate(closed) for v in near if u < v}, scanned


class TestCollapseEdges:
    @given(st.one_of(weighted_graph_spaces(), relabelled_tori(), windows, cycles),
           st.integers(min_value=1, max_value=4))
    @example(tr.cycle_space(3), 1)
    @settings(deadline=None, max_examples=80)
    def test_removes_dominated_edges_to_a_fixed_point(self, space, k):
        graph = tr.vr_graph(space, k)
        collapsed = collapse_edges(graph)
        assert collapsed.vertex_count == graph.vertex_count
        assert not dominated_edges(collapsed)
        assert edge_set(collapsed) <= edge_set(graph)
        assert edge_set(collapsed) == reference_collapse(graph)[0]
        assert collapse_edges(collapsed).masks == collapsed.masks
        assert collapse_edges(graph).masks == collapsed.masks

    @given(st.one_of(
        st.builds(tr.vr_graph, relabelled_tori(), st.integers(min_value=1, max_value=6)),
        st.builds(random_graph, st.integers(min_value=4, max_value=40),
                  st.floats(min_value=0.3, max_value=0.95),
                  st.integers(min_value=0, max_value=2**32 - 1)),
    ))
    @settings(deadline=None, max_examples=60)
    def test_skipped_edges_match_a_full_rescan(self, graph):
        # Dense graphs need several passes, and from the second pass on the
        # collapse tests only edges with an end that lost a neighbour.  It
        # must remove what a full rescan removes and visit as many edges:
        # with one edge per deadline chunk, a clock reading is one visit.
        readings = itertools.count()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tr.complexes, "_DEADLINE_CHUNK", 1)
            mp.setattr(tr.complexes, "time", type("Clock", (), {
                "monotonic": staticmethod(lambda: next(readings))}))
            collapsed = collapse_edges(graph, deadline=float("inf"))
        edges, scanned = reference_collapse(graph)
        assert edge_set(collapsed) == edges
        assert next(readings) == scanned

    def test_triangle_collapses_to_a_path(self):
        # Edge 01 goes, dominated by 2; then no edge has a common neighbour.
        triangle = tr.Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert edge_set(collapse_edges(triangle)) == {(0, 2), (1, 2)}

    @pytest.mark.parametrize(
        "n,k,before,after",
        [(13, 4, 3380, 273), (12, 4, 2880, 1176), (9, 4, 1620, 1492),
         (6, 3, 396, 396), (8, 6, 1856, 1856),
         # 7, 4 and 4 passes: most edge tests fall where the skip rule applies.
         (7, 4, 882, 77), (13, 5, 5070, 3632), (16, 6, 10752, 6077)],
    )
    def test_torus_edge_counts(self, n, k, before, after):
        graph = tr.vr_graph(tr.torus_space(n), k)
        assert graph.edge_count() == before
        assert collapse_edges(graph).edge_count() == after

    def test_deadline_checked_within_a_pass(self, monkeypatch):
        # A clock that ticks once per reading: the collapse must stop partway
        # through its edges, not run the pass to its end.
        class Clock:
            ticks = 0

            def monotonic(self):
                Clock.ticks += 1
                return Clock.ticks

        graph = tr.vr_graph(tr.torus_space(12), 4)
        monkeypatch.setattr(tr.complexes, "time", Clock())
        collapse_edges(graph, deadline=float("inf"))
        readings = Clock.ticks
        # One reading per 4096 edges scanned, across passes.
        scanned = reference_collapse(graph)[1]
        assert scanned > 4096
        assert readings == -(-scanned // 4096)
        for late in (0.5, 1.5):
            Clock.ticks = 0
            with pytest.raises(BudgetError, match="^time budget exceeded while collapsing edges$"):
                collapse_edges(graph, deadline=readings - late)
        Clock.ticks = 0
        with pytest.raises(BudgetError, match="collapsing edges"):
            tr.compute_profile(tr.torus_space(12), 4, tr.RunConfig(max_dim=2), graph=graph,
                               deadline=0.5)


@st.composite
def sparse_graphs(draw):
    """A ``Graph.from_edges`` graph on 4 to 40 vertices with at most 3 edges per vertex."""
    n = draw(st.integers(min_value=4, max_value=40))
    pairs = list(itertools.combinations(range(n), 2))
    return tr.Graph.from_edges(n, draw(st.lists(st.sampled_from(pairs), unique=True,
                                                max_size=3 * n)))


def smallest_last(graph):
    """The removal order by definition: least degree among the vertices left, then lowest index."""
    left = set(range(graph.vertex_count))
    order = []
    while left:
        rest = sum(1 << v for v in left)
        v = min(left, key=lambda u: ((graph.masks[u] & rest).bit_count(), u))
        order.append(v)
        left.remove(v)
    return order


class TestDegeneracyOrder:
    @given(sparse_graphs())
    @example(tr.Graph.from_edges(4, itertools.combinations(range(4), 2)))
    @example(tr.Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (3, 4)]))
    @settings(deadline=None, max_examples=200)
    def test_relabels_smallest_last_and_keeps_the_homology(self, graph):
        ordered = degeneracy_order(graph)
        order = smallest_last(graph)
        label = {v: i for i, v in enumerate(order)}
        # The input under one permutation: vertex i of the output is order[i].
        assert ordered.vertex_count == graph.vertex_count
        assert ordered.masks == tuple(
            sum(1 << label[w] for w in iter_bits(graph.masks[v])) for v in order
        )
        # Read off the output alone: vertex i has least degree among i, i + 1, ...
        for i in range(graph.vertex_count):
            assert (ordered.masks[i] >> i).bit_count() == min(
                (m >> i).bit_count() for m in ordered.masks[i:]
            )
        # The reducer on the unordered graph is the cross-check.
        for reduce in (tr.betti_gf2, tr.homology_integer):
            want, got = reduce(graph, None), reduce(ordered, None)
            assert (got.betti, got.torsion, got.counts, got.euler) == (
                want.betti, want.torsion, want.counts, want.euler)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_torus_9_scale_4_has_few_dead_ends_under_relabellings(self, seed, monkeypatch):
        # A perf guard with no timer.  The collapsed graph of T9 k4 keeps
        # 9,118 to 10,059 dead ends through dimension 5 in these three
        # labellings and 2,291 in the library's; smallest-last leaves
        # 2,024 to 2,659 in every one.
        scans = []

        def spy(*args):
            scans.append(scan_clique_tree(*args))
            return scans[-1]

        monkeypatch.setattr(tr.homology, "scan_clique_tree", spy)
        profile, _ = tr.compute_profile(relabelled_torus(9, seed), 4, tr.RunConfig(max_dim=5))
        assert profile.betti == (1, 0, 0, 1, 0, 36)
        assert sum(map(len, scans[0].dead_ends)) <= 3_100

    def test_deadline_checked_every_chunk_of_removals(self):
        # A clock that ticks once per reading, one removal per chunk: one
        # reading per vertex, and a deadline between two readings stops the
        # order there.
        class Clock:
            ticks = 0

            def monotonic(self):
                Clock.ticks += 1
                return Clock.ticks

        graph = tr.vr_graph(tr.torus_space(7), 3)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tr.complexes, "_DEADLINE_CHUNK", 1)
            mp.setattr(tr.complexes, "time", Clock())
            degeneracy_order(graph, deadline=float("inf"))
            assert Clock.ticks == graph.vertex_count
            Clock.ticks = 0
            late = "^time budget exceeded while ordering the vertices$"
            with pytest.raises(BudgetError, match=late):
                degeneracy_order(graph, deadline=10.5)
            assert Clock.ticks == 11
            # compute_profile passes its deadline on: the collapse reads the
            # clock once per edge visited, and the order's first reading is late.
            Clock.ticks = 0
            scanned = reference_collapse(graph)[1]
            with pytest.raises(BudgetError, match="ordering the vertices"):
                tr.compute_profile(tr.torus_space(7), 3, tr.RunConfig(max_dim=2), graph=graph,
                                   deadline=scanned + 0.5)
            assert Clock.ticks == scanned + 1


class TestEnumerateSimplices:
    def test_cycle_six_scale_two_counts(self):
        # Six triangles of consecutive vertices plus the two "long" triangles
        # {0,2,4} and {1,3,5}; no tetrahedra.  Euler characteristic 2.
        cx = enumerate_simplices(tr.vr_graph(tr.cycle_space(6), 2), 5)
        assert cx.counts == (6, 12, 8)
        assert cx.complete
        assert tr.euler_characteristic(cx.counts) == 2
        assert (0, 2, 4) in cx.simplices[2]
        assert (1, 3, 5) in cx.simplices[2]

    @pytest.mark.parametrize(
        "space,k",
        [
            (tr.cycle_space(7), 2),
            (tr.cycle_space(9), 3),
            (tr.torus_space(4), 2),
            (random_graph_space(12, 0.5, 1), 1),
            (random_graph_space(11, 0.75, 2), 1),
            (random_graph_space(10, 0.9, 3), 1),
        ],
    )
    def test_matches_brute_force_cliques(self, space, k):
        graph = tr.vr_graph(space, k)
        cx = enumerate_simplices(graph, 4)
        for keys, layer in zip(cx.keys, cx.simplices):
            assert len(keys) == len(layer)
            for key, sigma in zip(keys, layer):
                assert key == sum(1 << v for v in sigma)
            assert all(a < b for a, b in zip(layer, layer[1:]))
        got = {frozenset(sigma) for layer in cx.simplices for sigma in layer}
        cliques = clique_oracle(graph, 6)
        assert got == {c for c in cliques if len(c) <= 5}
        sizes = [sum(len(c) == d + 1 for c in cliques) for d in range(6)]
        assert cx.counts == tuple(c for c in sizes[:5] if c)
        assert cx.complete == (sizes[5] == 0)

    @given(st.builds(random_graph, st.integers(min_value=1, max_value=14),
                     st.floats(min_value=0.2, max_value=0.95),
                     st.integers(min_value=0, max_value=2**32 - 1)))
    @settings(deadline=None, max_examples=60)
    def test_extension_masks_are_common_neighbours_above_the_key(self, graph):
        # Layer d + 1 is layer d extended, key by key in order, by each
        # vertex of its cand: the AND of its vertices' masks, cut to the
        # vertices above its largest vertex.
        layers = clique_layers(graph)
        for (keys, cands), (children, _) in zip(layers, layers[1:]):
            assert list(children) == [key | 1 << v for key, cand in zip(keys, cands)
                                      for v in iter_bits(cand)]
        assert not any(layers[-1][1])

    def test_cross_polytope_counts(self):
        # At one below its diameter the 4x4 torus grid drops only antipodal
        # pairs, so the complex is the boundary of the 8-dimensional
        # cross-polytope: 2^(d+1) * C(8, d+1) simplices in dimension d.
        cx = enumerate_simplices(tr.vr_graph(tr.torus_space(4), 3), 16)
        assert cx.top_dim == 7
        assert cx.complete
        for d in range(8):
            assert cx.counts[d] == 2 ** (d + 1) * math.comb(8, d + 1)
        assert tr.euler_characteristic(cx.counts) == 0

    def test_layers_are_sorted_and_deterministic(self):
        graph = tr.vr_graph(tr.torus_space(5), 2)
        cx1 = enumerate_simplices(graph, 4)
        cx2 = enumerate_simplices(graph, 4)
        assert cx1.simplices == cx2.simplices
        for layer in cx1.simplices:
            assert list(layer) == sorted(layer)
            assert all(list(s) == sorted(set(s)) for s in layer)

    def test_faces_of_every_simplex_are_listed(self):
        cx = enumerate_simplices(tr.vr_graph(tr.cycle_space(8), 3), 4)
        for d in range(1, cx.top_dim + 1):
            below = set(cx.simplices[d - 1])
            for sigma in cx.simplices[d]:
                for i in range(len(sigma)):
                    assert sigma[:i] + sigma[i + 1:] in below

    def test_truncation_is_detected(self):
        graph = tr.vr_graph(tr.torus_space(5), 2)
        cx = enumerate_simplices(graph, 1)
        assert not cx.complete
        assert cx.count_at(1) == cx.counts[1]
        with pytest.raises(TruncatedComplexError):
            cx.count_at(2)

    def test_complete_count_at_beyond_top(self):
        cx = enumerate_simplices(tr.vr_graph(tr.cycle_space(6), 2), 9)
        assert cx.complete
        assert cx.count_at(3) == 0
        assert cx.count_at(9) == 0

    def test_rejects_negative_max_dim(self):
        with pytest.raises(ValueError):
            enumerate_simplices(tr.vr_graph(tr.cycle_space(4), 1), -1)

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
            cx_a = enumerate_simplices(tr.vr_graph(base, k), 3)
            cx_b = enumerate_simplices(tr.vr_graph(twisted, k), 3)
            assert cx_a.counts == cx_b.counts
            assert cx_a.complete == cx_b.complete


def scan_reference(graph, max_dim):
    """What scan_clique_tree should report, read off the layers of enumerate_simplices."""
    counts, apparent, dead_ends = [], [], []
    complete = True
    top = None if max_dim is None else max_dim + 1
    for d, (keys, cands) in enumerate(clique_layers(graph, top)):
        counts.append(len(keys))
        if d == top:
            complete = not any(cands)
            break
        apparent.append(sum(1 for cand in cands if cand))
        ends = []
        for key, cand in zip(keys, cands):
            parent = key ^ 1 << key.bit_length() - 1
            siblings = (1 << graph.vertex_count) - 1
            for v in iter_bits(parent):
                siblings &= graph.masks[v]
            # A last child has no sibling above it; every vertex is its own root.
            if not cand and (not parent or siblings >> key.bit_length()):
                ends.append(key)
        dead_ends.append(ends)
    return tuple(counts), tuple(apparent), tuple(dead_ends), complete


K5_EDGES = list(itertools.combinations(range(5), 2))


class TestScanCliqueTree:
    @given(
        st.one_of(
            st.builds(random_graph, st.integers(min_value=1, max_value=12),
                      st.floats(min_value=0.2, max_value=0.95),
                      st.integers(min_value=0, max_value=2**32 - 1)),
            st.builds(tr.vr_graph, relabelled_tori(), st.integers(min_value=1, max_value=3)),
        ),
        st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
    )
    @settings(deadline=None, max_examples=80)
    def test_matches_the_enumerated_layers(self, graph, max_dim):
        scan = scan_clique_tree(graph, max_dim)
        want = scan_reference(graph, max_dim)
        assert (scan.counts, scan.apparent, tuple(scan.dead_ends), scan.complete) == want

    @given(st.builds(random_graph, st.integers(min_value=1, max_value=12),
                     st.floats(min_value=0.3, max_value=0.95),
                     st.integers(min_value=0, max_value=2**32 - 1)),
           st.one_of(st.none(), st.integers(min_value=0, max_value=3)))
    @settings(deadline=None, max_examples=40)
    def test_budget_refuses_iff_the_total_passes_it(self, graph, max_dim):
        # The refusal comes from a running total across the vertex subtrees,
        # so the dimension it reports may lie above the one where the total
        # through each dimension first passes the budget; whether it comes
        # depends on the total through max_dim + 1 alone.
        total = sum(scan_clique_tree(graph, max_dim, budget=None).counts)
        assert sum(scan_clique_tree(graph, max_dim, budget=total).counts) == total
        with pytest.raises(SimplexBudgetError) as info:
            scan_clique_tree(graph, max_dim, budget=total - 1)
        assert total - 1 < info.value.count <= total
        assert str(info.value).endswith(f"at {info.value.count} simplices")

    @pytest.mark.parametrize("max_dim, budget, dim, count",
                             [(0, 4, 0, 5), (0, 8, 1, 9), (1, 14, 2, 15)])
    def test_refusal_in_the_counted_layer(self, max_dim, budget, dim, count):
        # K5: the 5 vertices are counted first; then vertex 0's subtree counts
        # 4 edges, then 3 + 2 + 1 triangles, so the layer above max_dim passes
        # the budget in the first subtree.
        graph = tr.Graph.from_edges(5, K5_EDGES)
        with pytest.raises(SimplexBudgetError) as info:
            scan_clique_tree(graph, max_dim, budget=budget)
        assert (info.value.dim, info.value.count) == (dim, count)

    def test_simplex_budget_refuses_before_building(self):
        # K24 through dimension 4 holds 55,454 simplices.  Vertex 0's subtree
        # brings the running total to 44,575 through dimension 5, and its
        # 100,947 6-simplices pass the budget at 145,522: the scan must refuse
        # them before it builds their extension masks, so it peaks well below
        # the unbounded run.
        graph = tr.Graph.from_edges(24, itertools.combinations(range(24), 2))
        budget = sum(math.comb(24, r) for r in range(1, 6))
        tracemalloc.start()
        try:
            scan_clique_tree(graph, 6, budget=None)
            built = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            with pytest.raises(SimplexBudgetError) as info:
                scan_clique_tree(graph, 6, budget=budget)
            refused = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (info.value.dim, info.value.count) == (6, 145_522)
        assert refused < 0.75 * built

    @pytest.mark.parametrize("edges, max_dim, complete", [
        (K5_EDGES, 0, False),
        (K5_EDGES, 2, False),
        (K5_EDGES, 3, True),
        ([(0, 1), (1, 2), (2, 3)], 0, True),
    ])
    def test_counted_layer_is_probed_one_dimension_up(self, edges, max_dim, complete):
        graph = tr.Graph.from_edges(1 + max(map(max, edges)), edges)
        assert scan_clique_tree(graph, max_dim).complete is complete

    def test_deadline_read_once_per_parent_extended(self, monkeypatch):
        readings = itertools.count()
        monkeypatch.setattr(tr.complexes, "_DEADLINE_CHUNK", 1)
        monkeypatch.setattr(tr.complexes, "time", type("Clock", (), {
            "monotonic": staticmethod(lambda: next(readings))}))
        graph = tr.vr_graph(tr.torus_space(6), 2)
        for max_dim in (None, 1, 2, 4):
            readings = itertools.count()
            scan = scan_clique_tree(graph, max_dim, deadline=float("inf"))
            # Every simplex with an extension below max_dim is extended once.
            assert next(readings) == sum(scan.apparent[:max_dim])

    def test_deadline_checked_within_a_dimension(self, monkeypatch):
        # The scan reads the clock every 4096 parents, so it stops partway
        # through the subtrees, not only between them.
        class Clock:
            ticks = 0

            def monotonic(self):
                Clock.ticks += 1
                return Clock.ticks

        graph = tr.vr_graph(tr.torus_space(7), 3)
        monkeypatch.setattr(tr.complexes, "time", Clock())
        scan_clique_tree(graph, 4, deadline=float("inf"))
        readings = Clock.ticks
        assert readings > 1
        Clock.ticks = 0
        with pytest.raises(BudgetError, match="while enumerating dimension [1-4]$"):
            scan_clique_tree(graph, 4, deadline=readings - 0.5)

    def test_top_layer_is_counted_not_kept(self):
        # Only the simplices with an extension below the top reduced layer
        # are kept, one vertex subtree at a time, so the peak is a few bytes
        # per simplex of the top layer: one int key alone takes 28 or more.
        graph = tr.vr_graph(tr.torus_space(8), 3)
        counts = scan_clique_tree(graph, 4).counts
        assert counts[4] > 5000
        tracemalloc.start()
        try:
            scan_clique_tree(graph, 4)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peak < 10 * counts[4]


class TestBoundaryMatrix:
    def test_small_example(self):
        # Path 0-1-2: two edges sharing vertex 1.
        g = tr.Graph.from_edges(3, [(0, 1), (1, 2)])
        cx = enumerate_simplices(g, 2)
        mat = boundary_matrix(cx, 1)
        assert mat.n_rows == 3
        assert mat.n_cols == 2
        assert mat.columns == ((0, 1), (1, 2))

    def test_boundary_of_boundary_is_zero(self):
        cx = enumerate_simplices(tr.vr_graph(tr.torus_space(5), 2), 4)
        for d in range(2, cx.top_dim + 1):
            low = boundary_matrix(cx, d - 1)
            high = boundary_matrix(cx, d)
            for col in high.columns:
                acc = set()
                for face in col:
                    acc.symmetric_difference_update(low.columns[face])
                assert not acc

    def test_rejects_out_of_range_dimension(self):
        cx = enumerate_simplices(tr.vr_graph(tr.cycle_space(5), 1), 3)
        with pytest.raises(ValueError):
            boundary_matrix(cx, 0)
        with pytest.raises(ValueError):
            boundary_matrix(cx, cx.top_dim + 1)


class TestTextFormat:
    def test_header_and_lines(self):
        cx = enumerate_simplices(tr.vr_graph(tr.cycle_space(7), 2), 3)
        text = format_simplex_lines(
            cx.simplices[2], header={"space": "cycle 7", "n": None, "k": 2, "dim": 2}
        )
        # n = 7 > 3k = 6: the triangles are the seven arcs of three vertices.
        assert text == (
            "# space: cycle 7\n# k: 2\n# dim: 2\n"
            "0 1 2\n0 1 6\n0 5 6\n1 2 3\n2 3 4\n3 4 5\n4 5 6\n"
        )

    def test_lines_are_sorted(self):
        text = format_simplex_lines([(2, 5), (0, 3), (0, 1)], {})
        assert text == "0 1\n0 3\n2 5\n"

    def test_rejects_unsorted_simplex(self):
        with pytest.raises(ValueError):
            format_simplex_lines([(3, 1)], {})


def test_iter_bits():
    assert list(iter_bits(0)) == []
    assert list(iter_bits(0b10110)) == [1, 2, 4]
