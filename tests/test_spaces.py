"""Tests for the metric spaces: cycles, tori, and plane windows."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

import torus_rips as tr


def torus_pair_distance(n, p, q):
    """Torus distance between (row, col) pairs, through the space's vertex index."""
    return tr.torus_space(n).distance(p[0] * n + p[1], q[0] * n + q[1])


def closed_ball_sizes(space, r):
    """Closed-ball size around every centre, read off the scale-r graph.

    Each closed neighbourhood mask is checked against the ball computed here
    from ``space.distance`` by a scan over every point.
    """
    graph = tr.vr_graph(space, r)
    sizes = []
    for c in range(space.point_count):
        ball = [v for v in range(space.point_count) if space.distance(c, v) <= r]
        assert graph.masks[c] | 1 << c == sum(1 << v for v in ball)
        sizes.append(graph.masks[c].bit_count() + 1)
    return sizes


class TestCycleDistance:
    def test_small_examples(self):
        d6 = tr.cycle_space(6).distance
        assert d6(0, 0) == 0
        assert d6(0, 1) == 1
        assert d6(0, 3) == 3
        assert d6(0, 4) == 2
        assert d6(1, 5) == 2
        assert tr.cycle_space(7).distance(0, 4) == 3

    def test_identity_of_indiscernibles(self):
        for n in (3, 4, 9):
            dist = tr.cycle_space(n).distance
            for i, j in itertools.product(range(n), repeat=2):
                assert (dist(i, j) == 0) == (i == j)

    @given(st.integers(min_value=3, max_value=500),
           st.integers(min_value=0, max_value=499),
           st.integers(min_value=0, max_value=499))
    def test_symmetry_and_range(self, n, i, j):
        i %= n
        j %= n
        dist = tr.cycle_space(n).distance
        d = dist(i, j)
        assert d == dist(j, i)
        assert 0 <= d <= n // 2

    def test_triangle_inequality_exhaustive(self):
        for n in range(3, 9):
            dist = tr.cycle_space(n).distance
            for i, j, m in itertools.product(range(n), repeat=3):
                assert dist(i, m) <= dist(i, j) + dist(j, m)

    def test_every_pair_matches_definition(self):
        for n in range(3, 13):
            dist = tr.cycle_space(n).distance
            for i, j in itertools.product(range(n), repeat=2):
                assert dist(i, j) == min(abs(i - j), n - abs(i - j))

    def test_rejects_bad_arguments(self):
        for n in (2, 1, 0, -3):
            with pytest.raises(ValueError):
                tr.cycle_space(n)


class TestTorusDistance:
    def test_small_examples(self):
        assert torus_pair_distance(4, (0, 0), (0, 0)) == 0
        assert torus_pair_distance(4, (0, 0), (1, 1)) == 2
        assert torus_pair_distance(4, (0, 0), (2, 2)) == 4
        assert torus_pair_distance(4, (0, 1), (3, 0)) == 2
        assert torus_pair_distance(5, (0, 0), (2, 2)) == 4
        assert torus_pair_distance(5, (1, 2), (1, 2)) == 0

    def test_diameter(self):
        # n for even n, n - 1 for odd n: half the side along each axis.
        for n, diam in [(3, 2), (4, 4), (5, 4), (6, 6), (7, 6), (8, 8), (9, 8)]:
            dist = tr.torus_space(n).distance
            points = range(n * n)
            assert max(dist(u, v) for u in points for v in points) == diam

    def test_quotient_metric_identity(self):
        # The torus distance between projected points equals the minimum of
        # the plane l1 distance over all translates of one point by (a*n, b*n)
        # with integer a, b.  Checked exhaustively on a 3n x 3n block of plane
        # representatives for every n up to 8.  The l1 minimum separates per
        # coordinate, and for coordinate gaps below 3n it is enough to scan
        # multiples of n up to 3n in absolute value.
        for n in range(3, 9):
            md = [min(abs(gap - g) for g in range(-3 * n, 3 * n + 1, n))
                  for gap in range(3 * n)]
            dist = tr.torus_space(n).distance
            for px, py in itertools.product(range(3 * n), repeat=2):
                u = (px % n) * n + (py % n)
                for qx, qy in itertools.product(range(3 * n), repeat=2):
                    v = (qx % n) * n + (qy % n)
                    assert dist(u, v) == md[abs(px - qx)] + md[abs(py - qy)]

    def test_symmetry_exhaustive(self):
        for n in (3, 5):
            dist = tr.torus_space(n).distance
            for u, v in itertools.product(range(n * n), repeat=2):
                assert dist(u, v) == dist(v, u)
                assert (dist(u, v) == 0) == (u == v)

    def test_triangle_inequality_exhaustive(self):
        for n in (3, 4, 5):
            dist = tr.torus_space(n).distance
            for u, v, w in itertools.product(range(n * n), repeat=3):
                assert dist(u, w) <= dist(u, v) + dist(v, w)

    def test_rejects_bad_arguments(self):
        for n in (2, 1, 0, -3):
            with pytest.raises(ValueError):
                tr.torus_space(n)


class TestSpaces:
    def test_cycle_space(self):
        space = tr.cycle_space(8)
        assert space.point_count == 8
        assert space.distance(1, 6) == 3
        assert space.label == "cycle 8"

    def test_torus_space(self):
        space = tr.torus_space(5)
        assert space.point_count == 25
        assert space.distance(0, 12) == 4
        assert space.label == "torus 5"

    def test_window_space(self):
        win = tr.Window(-2, 2, -2, 2)
        space = tr.window_space(win)
        assert space.point_count == 25
        a = win.index(tr.LatticePoint(0, 0))
        b = win.index(tr.LatticePoint(2, -1))
        assert space.distance(a, b) == 3


class TestWindowDistance:
    @pytest.mark.parametrize("win", [
        tr.Window(-3, 4, -1, 2),    # 8 wide, 4 high
        tr.Window(0, 2, 5, 11),     # 3 wide, 7 high
        tr.Window(-5, -5, 0, 6),    # one column
        tr.Window(1, 9, -2, -2),    # one row
    ], ids=lambda w: w.label)
    def test_every_pair_is_plane_l1(self, win):
        # Non-square windows: a distance that mixed up width and height
        # would still pass on a square one.
        space = tr.window_space(win)
        assert space.point_count == win.width * win.height
        for a, b in itertools.product(range(space.point_count), repeat=2):
            p, q = win.point(a), win.point(b)
            assert space.distance(a, b) == abs(p.x - q.x) + abs(p.y - q.y)


class TestWindow:
    def test_index_point_roundtrip(self):
        win = tr.Window(-3, 4, -2, 5)
        assert win.width == 8
        assert win.height == 8
        seen = set()
        for p in itertools.product(range(-3, 5), range(-2, 6)):
            i = win.index(p)
            assert win.point(i) == p
            seen.add(i)
        assert seen == set(range(64))

    def test_contains(self):
        win = tr.Window(0, 2, 0, 2)
        assert win.contains(tr.LatticePoint(2, 0))
        assert not win.contains(tr.LatticePoint(3, 0))
        assert not win.contains(tr.LatticePoint(0, -1))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            tr.Window(3, 2, 0, 1)

    def test_label(self):
        assert tr.Window(-6, 6, -6, 6).label == "window -6:6,-6:6"


class TestClosedBall:
    def test_sizes_on_large_torus(self):
        # l1 balls in a torus big enough that no wraparound overlap occurs:
        # |B(r)| = 2r^2 + 2r + 1.
        space = tr.torus_space(11)
        assert set(closed_ball_sizes(space, 3)) == {25}
        assert set(closed_ball_sizes(space, 4)) == {41}

    def test_key_wraparound_sizes(self):
        # These two ball counts drive the counting connectivity bound for
        # the 5x5 torus at scale 3 and the 7x7 torus at scale 4.
        assert set(closed_ball_sizes(tr.torus_space(5), 3)) == {21}
        assert set(closed_ball_sizes(tr.torus_space(7), 4)) == {37}
        assert set(closed_ball_sizes(tr.torus_space(7), 2)) == {13}

    def test_center_independence(self):
        # Vertex-transitivity: the ball size cannot depend on the center.
        for n in range(3, 11):
            space = tr.torus_space(n)
            for r in range(0, n + 1):
                assert len(set(closed_ball_sizes(space, r))) == 1

    def test_radius_zero_and_diameter(self):
        space = tr.torus_space(4)
        assert tr.vr_graph(space, 0).masks[5] == 0
        assert closed_ball_sizes(space, 0)[5] == 1
        assert closed_ball_sizes(space, 4)[5] == 16

