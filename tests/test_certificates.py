"""Tests for antipode detection, connectivity bounds, and fingerprints."""

import dataclasses
import functools
import itertools
import operator
import random

import pytest

import torus_rips as tr


def torus_cx(n, k, depth):
    return tr.enumerate_simplices(tr.vr_graph(tr.torus_space(n), k), depth)


def relabelled(space, seed):
    perm = list(range(space.point_count))
    random.Random(seed).shuffle(perm)
    return tr.FiniteMetricSpace(
        point_count=space.point_count,
        distance=lambda a, b: space.distance(perm[a], perm[b]),
        label=f"relabelled {space.label}",
    )


def missing_partner_pairs(graph):
    """Each vertex with its one non-neighbour, found by scanning has_edge."""
    pairs = set()
    for v in range(graph.vertex_count):
        missing = [u for u in range(graph.vertex_count) if u != v and not graph.has_edge(u, v)]
        assert len(missing) == 1
        pairs.add((min(v, missing[0]), max(v, missing[0])))
    return tuple(sorted(pairs))


def closed_ball_certificate(space, r, max_k, method):
    """certified_k and the minimum ball size, from balls built with space.distance.

    ``counting`` applies the counting bound to the minimum ball size;
    ``exhaustive`` intersects the balls around every choice of 2k + 2
    distinct centres, the exact answer the counting bound can only undercut.
    """
    size = space.point_count
    balls = [[u for u in range(size) if space.distance(v, u) <= r] for v in range(size)]
    min_ball = min(map(len, balls))
    masks = [sum(1 << u for u in ball) for ball in balls]
    certified = -1
    for k in range(max_k + 1):
        if method == "counting":
            ok = size - (2 * k + 2) * (size - min_ball) >= 1
        else:
            ok = all(
                functools.reduce(operator.and_, (masks[c] for c in centres))
                for centres in itertools.combinations(range(size), min(2 * k + 2, size))
            )
        if not ok:
            break
        certified = k
    return certified, min_ball


class TestAntipodeCheck:
    def test_torus_four_below_diameter(self):
        report = tr.antipode_check(tr.vr_graph(tr.torus_space(4), 3))
        assert report.is_antipode
        assert report.cross_polytope_dim == 8
        # The missing partner of (r, c) is (r + 2, c + 2) mod 4.
        want = set()
        for r, c in itertools.product(range(4), repeat=2):
            v = r * 4 + c
            u = ((r + 2) % 4) * 4 + ((c + 2) % 4)
            want.add((min(u, v), max(u, v)))
        assert set(report.pairs) == want

    def test_octahedron_from_cycle(self):
        report = tr.antipode_check(tr.vr_graph(tr.cycle_space(6), 2))
        assert report.is_antipode
        assert report.pairs == ((0, 3), (1, 4), (2, 5))
        assert report.cross_polytope_dim == 3

    def test_larger_tori_one_below_diameter(self):
        for n, dim in [(6, 18), (8, 32)]:
            report = tr.antipode_check(tr.vr_graph(tr.torus_space(n), n - 1))
            assert report.is_antipode
            assert report.cross_polytope_dim == dim

    def test_odd_vertex_count_rejected(self):
        report = tr.antipode_check(tr.vr_graph(tr.torus_space(7), 5))
        assert not report.is_antipode
        assert report.pairs == ()
        assert report.cross_polytope_dim is None

    def test_wrong_degree_rejected(self):
        assert not tr.antipode_check(tr.vr_graph(tr.torus_space(4), 2)).is_antipode
        complete = tr.Graph.from_edges(4, itertools.combinations(range(4), 2))
        assert not tr.antipode_check(complete).is_antipode
        assert not tr.antipode_check(tr.Graph.from_edges(4, [(0, 1), (2, 3)])).is_antipode

    @pytest.mark.parametrize("n,seed", [(4, 1), (6, 2), (8, 3), (10, 4)])
    def test_pairs_match_has_edge_scan_on_relabelled_tori(self, n, seed):
        graph = tr.vr_graph(relabelled(tr.torus_space(n), seed), n - 1)
        report = tr.antipode_check(graph)
        assert report.is_antipode
        assert report.pairs == missing_partner_pairs(graph)

    def test_non_mutual_partners_rejected(self):
        # Every vertex misses exactly one other, but v misses v + 1 mod 4,
        # so the missing partners form a directed 4-cycle, not a matching.
        n = 4
        masks = tuple(((1 << n) - 1) & ~(1 << v) & ~(1 << (v + 1) % n) for v in range(n))
        graph = tr.Graph(vertex_count=n, masks=masks)
        assert all(graph.degree(v) == n - 2 for v in range(n))
        report = tr.antipode_check(graph)
        assert not report.is_antipode
        assert report.pairs == ()

    def test_simplices_avoid_antipodal_pairs(self):
        # In the cross-polytope boundary a simplex never contains an
        # antipodal pair, and every pair-free vertex set is a simplex; the
        # counts per dimension follow from that.
        graph = tr.vr_graph(tr.torus_space(4), 3)
        report = tr.antipode_check(graph)
        cx = tr.enumerate_simplices(graph, 16)
        forbidden = set(report.pairs)
        for layer in cx.simplices:
            for sigma in layer:
                for u, v in itertools.combinations(sigma, 2):
                    assert (u, v) not in forbidden


class TestConnectivityBound:
    def test_counting_on_key_spaces(self):
        cert = tr.connectivity_bound(tr.vr_graph(tr.torus_space(5), 3), 3, max_k=3)
        assert cert.method == "counting"
        assert cert.scale == 3
        assert cert.min_ball == 21
        assert cert.points == 25
        # 25 - (2k + 2) * 4 stays positive through k = 2.
        assert cert.certified_k == 2

        cert = tr.connectivity_bound(tr.vr_graph(tr.torus_space(7), 4), 4, max_k=3)
        assert cert.min_ball == 37
        # 49 - 4 * 12 = 1 certifies k = 1 and nothing above.
        assert cert.certified_k == 1

    def test_counting_can_fail_at_pairs(self):
        cert = tr.connectivity_bound(tr.vr_graph(tr.torus_space(7), 2), 2, max_k=1)
        assert cert.certified_k == -1

    def test_max_k_caps_the_walk(self):
        cert = tr.connectivity_bound(tr.vr_graph(tr.torus_space(5), 3), 3, max_k=0)
        assert cert.certified_k == 0

    def test_exhaustive_agrees_with_counting_when_counting_wins(self):
        space = tr.torus_space(5)
        counting = tr.connectivity_bound(tr.vr_graph(space, 3), 3, max_k=1)
        assert counting.certified_k == 1
        assert closed_ball_certificate(space, 3, 1, "exhaustive")[0] == 1

    def test_exhaustive_finds_disjoint_pair(self):
        # At scale 1 on the 4x4 torus grid, balls around an antipodal pair
        # are disjoint, so even pairwise intersection fails.
        space = tr.torus_space(4)
        counting = tr.connectivity_bound(tr.vr_graph(space, 1), 1, max_k=1)
        assert counting.certified_k == -1
        assert closed_ball_certificate(space, 1, 1, "exhaustive")[0] == -1

    def test_counting_never_beats_exhaustive(self):
        # The counting bound is sound, so the exhaustive answer can only be
        # larger or equal wherever both run.
        for n, r in [(4, 1), (4, 2), (5, 2), (5, 3), (6, 3)]:
            space = tr.torus_space(n)
            counting = tr.connectivity_bound(tr.vr_graph(space, r), r, max_k=1)
            exhaustive, _ = closed_ball_certificate(space, r, 1, "exhaustive")
            assert counting.certified_k <= exhaustive

    @pytest.mark.parametrize(
        "space",
        [
            tr.cycle_space(6),
            tr.cycle_space(9),
            tr.cycle_space(12),
            tr.torus_space(4),
            tr.torus_space(5),
            tr.torus_space(6),
            tr.window_space(tr.Window(0, 2, 0, 3)),
            tr.window_space(tr.Window(-2, 2, -2, 2)),
        ],
        ids=lambda space: space.label,
    )
    def test_matches_closed_balls(self, space):
        n = space.point_count
        diameter = max(space.distance(u, v) for u in range(n) for v in range(n))
        for r in range(diameter + 1):
            cert = tr.connectivity_bound(tr.vr_graph(space, r), r, max_k=1)
            want = closed_ball_certificate(space, r, 1, "counting")
            assert (cert.certified_k, cert.min_ball) == want
            assert cert.method == "counting"

    def test_validation(self):
        graph = tr.vr_graph(tr.torus_space(4), 1)
        with pytest.raises(ValueError):
            tr.connectivity_bound(graph, 1, max_k=-1)


class TestExpectedTorusProfile:
    @pytest.mark.parametrize(
        "n,k,claim,betti",
        [
            (4, 0, "wedge_S0(15)", (16,)),
            (3, 1, "wedge_S1(4)", (1, 4)),
            (5, 1, "wedge_S1(26)", (1, 26)),
            (7, 2, "torus", (1, 2, 1)),
            (10, 3, "torus", (1, 2, 1)),
            (6, 2, "wedge_S2(23)", (1, 0, 23)),
            (9, 3, "wedge_S2(53)", (1, 0, 53)),
            (12, 4, "wedge_S2(95)", (1, 0, 95)),
            (8, 3, "wedge_S2_S3(15,16)", (1, 0, 15, 16)),
            (5, 2, "wedge_S2(9)", (1, 0, 9)),
            (4, 3, "sphere(7)", (1, 0, 0, 0, 0, 0, 0, 1)),
            (6, 5, "sphere(17)", (1,) + (0,) * 16 + (1,)),
            (6, 6, "contractible", (1,)),
            (5, 4, "contractible", (1,)),
            (7, 6, "contractible", (1,)),
        ],
    )
    def test_table(self, n, k, claim, betti):
        assert tr.expected_torus_profile(n, k) == (claim, betti)

    def test_unknown_regimes(self):
        assert tr.expected_torus_profile(4, 2) is None
        assert tr.expected_torus_profile(7, 4) is None
        assert tr.expected_torus_profile(6, 3) is None
        assert tr.expected_torus_profile(7, 3) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            tr.expected_torus_profile(2, 1)
        with pytest.raises(ValueError):
            tr.expected_torus_profile(5, -1)


def integer_profile(betti, torsion=None, truncated_at=None):
    torsion = torsion if torsion is not None else tuple(() for _ in betti)
    return tr.BettiProfile("integer", betti, torsion, None, truncated_at)


def conn_cert(k):
    # fingerprint reads only certified_k; the ball counts are those of T5 k3.
    return tr.ConnectivityCertificate(
        scale=3, method="counting", certified_k=k, min_ball=21, points=25
    )


class TestFingerprint:
    def test_antipode_certifies_without_profile(self):
        report = tr.antipode_check(tr.vr_graph(tr.torus_space(4), 3))
        fp = tr.fingerprint(None, report, None, 4, 3)
        assert fp.claim == "sphere(7)"
        assert fp.level == "certified"
        assert fp.consistent

    def test_antipode_with_matching_profile(self):
        cx = torus_cx(4, 3, 16)
        profile = tr.betti_gf2(cx.graph, 7)
        report = tr.antipode_check(cx.graph)
        fp = tr.fingerprint(profile, report, None, 4, 3)
        assert fp.claim == "sphere(7)"
        assert fp.level == "certified"

    def test_antipode_with_contradicting_profile(self):
        report = tr.antipode_check(tr.vr_graph(tr.torus_space(4), 3))
        bad = integer_profile((1, 0, 0, 0, 0, 0, 0, 2))
        fp = tr.fingerprint(bad, report, None, 4, 3)
        assert fp.level == "inconsistent"
        assert not fp.consistent

    def test_wedge_license_certifies(self):
        profile = integer_profile((1, 0, 0, 0, 9))
        fp = tr.fingerprint(profile, None, conn_cert(1), 5, 3)
        assert fp.claim == "wedge_S4(9)"
        assert fp.level == "certified"

    def test_wedge_license_single_sphere(self):
        profile = integer_profile((1, 0, 0, 1))
        fp = tr.fingerprint(profile, None, conn_cert(1), 7, 4)
        assert fp.claim == "sphere(3)"
        assert fp.level == "certified"

    def test_gf2_profile_never_licenses(self):
        profile = tr.BettiProfile("gf2", (1, 0, 0, 1), ((),) * 4, None, None)
        fp = tr.fingerprint(profile, None, conn_cert(1), 7, 4)
        assert fp.claim == "unknown"
        assert fp.level == "consistent"

    @pytest.mark.parametrize(
        "profile,conn_k",
        [
            (integer_profile((1, 0, 0, 1)), 0),                      # not 1-connected
            (integer_profile((1, 0, 0, 1), ((), (), (2,), ())), 1),  # torsion
            (integer_profile((2, 0, 0, 1)), 1),                      # disconnected
            (integer_profile((1, 0, 1, 1)), 1),                      # two dimensions
            (integer_profile((1, 1)), 1),                            # concentrated too low
            (integer_profile((1, 0, 0, 1), truncated_at=3), 1),      # truncated
        ],
    )
    def test_wedge_license_blockers(self, profile, conn_k):
        fp = tr.fingerprint(profile, None, conn_cert(conn_k), 7, 4)
        assert fp.level != "certified"

    def test_consistent_against_expected_profile(self):
        cx = torus_cx(7, 2, 3)
        profile = tr.betti_gf2(cx.graph, 2)
        fp = tr.fingerprint(profile, None, None, 7, 2)
        assert fp.claim == "torus"
        assert fp.level == "consistent"
        assert fp.consistent

    def test_inconsistent_against_expected_profile(self):
        doctored = tr.BettiProfile("gf2", (1, 2, 2), ((),) * 3, None, None)
        fp = tr.fingerprint(doctored, None, None, 7, 2)
        assert fp.claim == "torus"
        assert fp.level == "inconsistent"
        assert not fp.consistent

    def test_shallow_profile_refused(self):
        shallow = tr.BettiProfile("gf2", (1, 2), ((), ()), None, 1)
        with pytest.raises(ValueError, match="compute deeper"):
            tr.fingerprint(shallow, None, None, 7, 2)

    def test_profile_required_without_certificates(self):
        with pytest.raises(ValueError, match="profile is required"):
            tr.fingerprint(None, None, None, 7, 2)

    def test_consistent_follows_level(self):
        assert [f.name for f in dataclasses.fields(tr.Fingerprint)] == ["claim", "level"]
        levels = ("certified", "consistent", "inconsistent")
        assert [tr.Fingerprint("torus", level).consistent for level in levels] == [
            True, True, False
        ]

    def test_unknown_regime(self):
        profile = tr.BettiProfile("gf2", (1, 0, 0, 9), ((),) * 4, None, None)
        fp = tr.fingerprint(profile, None, None, 4, 2)
        assert fp.claim == "unknown"
        assert fp.consistent
