"""Acceptance suite: one test per criterion, printing one summary line each.

Run with ``pytest tests/test_acceptance.py -v`` to get exactly one pass/fail
line per criterion; ``-s`` additionally shows the summary line with the
measured numbers.  Expected values were frozen from independent oracle runs
(brute-force clique search, dense rank checks, and the certified closed
forms) before the tests were written.
"""

import itertools
import random
import time

import torus_rips as tr
from torus_rips.complexes import enumerate_simplices, iter_bits
from torus_rips.homology import boundary_matrix, signed_boundary_columns, smith_invariants

FIVE_MINUTES = 300.0
HALF_HOUR = 1800.0


def timed(fn, *args, **kwargs):
    start = time.monotonic()
    result = fn(*args, **kwargs)
    return result, time.monotonic() - start


def gf2_profile(n, k, max_dim):
    space = tr.torus_space(n)
    config = tr.RunConfig(coefficients="gf2", max_dim=max_dim)
    profile, _ = tr.compute_profile(space, k, config)
    return profile


def test_criterion_1_small_torus_gf2_homology_table():
    """Nine small-torus GF(2) Betti cells, each within a five minute budget."""
    cells = [
        (4, 1, 1, {0: 1, 1: 17}),
        (4, 2, 3, {0: 1, 1: 0, 2: 0, 3: 9}),
        (5, 2, 2, {0: 1, 1: 0, 2: 9}),
        (6, 2, 2, {0: 1, 1: 0, 2: 23}),
        (7, 2, 2, {0: 1, 1: 2, 2: 1}),
        (10, 3, 2, {0: 1, 1: 2, 2: 1}),
        (8, 3, 3, {2: 15, 3: 16}),
        (9, 3, 2, {2: 53}),
        (7, 3, 4, {3: 1, 4: 14}),
    ]
    total = 0.0
    for n, k, max_dim, expect in cells:
        profile, elapsed = timed(gf2_profile, n, k, max_dim)
        total += elapsed
        assert elapsed < FIVE_MINUTES, f"(n={n}, k={k}) took {elapsed:.1f}s"
        for d, b in expect.items():
            assert profile.betti_at(d) == b, (
                f"(n={n}, k={k}) dim {d}: expected {b}, got {profile.betti_at(d)}"
            )
    print(f"\ncriterion 1 PASS: 9 GF(2) cells verified in {total:.1f}s")


def test_criterion_2_deeper_gf2_homology():
    """Three deeper GF(2) computations, each within a thirty minute budget."""
    cells = [
        (6, 3, 5, {3: 1, 5: 12}),
        (5, 3, 4, {4: 9}),
        (7, 4, 3, {0: 1, 1: 0, 2: 0, 3: 1}),
    ]
    total = 0.0
    for n, k, max_dim, expect in cells:
        profile, elapsed = timed(gf2_profile, n, k, max_dim)
        total += elapsed
        assert elapsed < HALF_HOUR, f"(n={n}, k={k}) took {elapsed:.1f}s"
        for d, b in expect.items():
            assert profile.betti_at(d) == b, (
                f"(n={n}, k={k}) dim {d}: expected {b}, got {profile.betti_at(d)}"
            )
    print(f"criterion 2 PASS: deep GF(2) cells verified in {total:.1f}s")


def test_criterion_3_integer_homology_and_connectivity_certificates():
    """Exact integer homology plus ball-counting certificates upgrade two
    wedge claims to certified status."""
    start = time.monotonic()

    # 5x5 torus at scale 3: free integer homology concentrated in dimension 4.
    fp5, profile5, antipode5, conn5 = tr.certify_torus(
        5, 3, tr.RunConfig(coefficients="integer")
    )
    assert not antipode5.is_antipode
    assert profile5.truncated_at is None
    assert profile5.betti[:5] == (1, 0, 0, 0, 9)
    assert all(b == 0 for b in profile5.betti[5:])
    assert all(t == () for t in profile5.torsion)
    # Counting certificate: 25 points, smallest ball 21, so any four balls
    # miss at most 16 points and must share one: 25 - 4 * (25 - 21) = 9 >= 1.
    assert conn5.min_ball == 21
    assert 25 - 4 * (25 - 21) == 9 >= 1
    assert conn5.certified_k == 1
    assert fp5.claim == "wedge_S4(9)"
    assert fp5.level == "certified"

    # 7x7 torus at scale 4, whole complex: H_3 free of rank one and every
    # other reduced homology group zero.
    fp7, profile7, antipode7, conn7 = tr.certify_torus(
        7, 4, tr.RunConfig(coefficients="integer")
    )
    assert not antipode7.is_antipode
    assert profile7.truncated_at is None
    assert profile7.betti[:4] == (1, 0, 0, 1)
    assert all(b == 0 for b in profile7.betti[4:])
    assert all(t == () for t in profile7.torsion)
    # 49 - 4 * (49 - 37) = 1 >= 1: the tightest counting certificate in use.
    assert conn7.min_ball == 37
    assert 49 - 4 * (49 - 37) == 1 >= 1
    assert conn7.certified_k == 1
    assert fp7.claim == "sphere(3)"
    assert fp7.level == "certified"

    elapsed = time.monotonic() - start
    assert elapsed < HALF_HOUR
    print(f"criterion 3 PASS: integer wedge_S4(9) and sphere(3) certified in {elapsed:.1f}s")


def test_criterion_4_antipodal_cross_polytope_family():
    """One below the diameter on even tori the complex is certified a sphere
    of dimension n^2/2 - 1, with no homology computation needed."""
    start = time.monotonic()
    for n, sphere_dim in [(4, 7), (6, 17), (8, 31), (10, 49)]:
        graph = tr.vr_graph(tr.torus_space(n), n - 1)
        report = tr.antipode_check(graph)
        assert report.is_antipode, f"n={n}"
        assert report.cross_polytope_dim == n * n // 2
        fp = tr.fingerprint(None, report, None, n, n - 1)
        assert fp.claim == f"sphere({sphere_dim})"
        assert fp.level == "certified"

    # Odd side: no perfect antipodal matching exists.
    assert not tr.antipode_check(tr.vr_graph(tr.torus_space(7), 5)).is_antipode

    # For the 4x4 torus the full GF(2) profile confirms the certified answer.
    profile = gf2_profile(4, 3, 7)
    assert profile.betti == (1, 0, 0, 0, 0, 0, 0, 1)
    assert profile.euler == 0
    elapsed = time.monotonic() - start
    print(f"criterion 4 PASS: cross-polytope spheres S^7/S^17/S^31/S^49 in {elapsed:.1f}s")


def supported_cycle_scales(n):
    ks = [k for k in range(1, n) if n > 3 * k]
    if n % 3 == 0 and n // 3 >= 2:
        ks.append(n // 3)
    if (n + 1) % 3 == 0 and (n + 1) // 3 >= 3:
        ks.append((n + 1) // 3)
    return sorted(set(ks))


def test_criterion_5_facet_catalogs_match_brute_force():
    """Every closed-form facet catalog equals the maximal-clique oracle."""
    start = time.monotonic()

    cycle_runs = 0
    for n in range(3, 31):
        for k in supported_cycle_scales(n):
            catalog = tr.cycle_facets(n, k)
            oracle = tr.brute_force_facets(tr.vr_graph(tr.cycle_space(n), k))
            assert catalog.facets == oracle.facets, f"cycle n={n}, k={k}"
            cycle_runs += 1

    torus_pairs = [
        (7, 2), (8, 2), (9, 2), (10, 2), (11, 2), (12, 2),
        (10, 3), (11, 3), (12, 3),
        (6, 2), (9, 3), (12, 4),
        (8, 3), (11, 4),
    ]
    for n, k in torus_pairs:
        catalog = tr.torus_facets(n, k)
        oracle = tr.brute_force_facets(tr.vr_graph(tr.torus_space(n), k))
        assert catalog.facets == oracle.facets, f"torus n={n}, k={k}"

    window = tr.Window(-6, 6, -6, 6)
    window_counts = {}
    for k in range(1, 6):
        catalog = tr.z2_facets_in_window(window, k)
        oracle = tr.brute_force_facets(tr.vr_graph(tr.window_space(window), k))
        interior = {
            f for f in oracle.facets if tr.in_window_interior(window, k, f)
        }
        assert catalog.facets == interior, f"window k={k}"
        window_counts[k] = len(catalog)

    elapsed = time.monotonic() - start
    print(
        f"criterion 5 PASS: {cycle_runs} cycle, {len(torus_pairs)} torus, "
        f"5 window catalogs match the oracle in {elapsed:.1f}s "
        f"(window counts {window_counts})"
    )


def test_criterion_6_cycle_homotopy_sweep_under_two_minutes():
    """Computed cycle homology matches the closed-form profile for every
    0 <= k <= n with n up to 20, inside a two minute budget."""
    start = time.monotonic()
    pairs = 0
    for n in range(3, 21):
        for k in range(0, n + 1):
            expected = tr.expected_cycle_profile(n, k)
            profile, _ = tr.compute_profile(tr.cycle_space(n), k, tr.RunConfig())
            padded_len = max(len(expected.betti), len(profile.betti))
            got = tuple(profile.betti_at(d) for d in range(padded_len))
            want = tuple(expected.betti[d] if d < len(expected.betti) else 0
                         for d in range(padded_len))
            assert got == want, f"cycle n={n}, k={k}: expected {want}, got {got}"
            pairs += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"sweep took {elapsed:.1f}s"
    print(f"criterion 6 PASS: {pairs} cycle pairs matched the closed form in {elapsed:.1f}s")


def test_criterion_7_structural_property_battery():
    """Cross-cutting invariants: boundary squares to zero, Euler consistency,
    coefficient agreement without torsion, and component counting."""
    start = time.monotonic()

    # Boundary of boundary vanishes, over GF(2) and over the integers.
    for space, k, depth in [(tr.torus_space(5), 2, 4), (tr.cycle_space(9), 3, 4)]:
        cx = enumerate_simplices(tr.vr_graph(space, k), depth)
        for d in range(2, cx.top_dim + 1):
            low_gf2 = boundary_matrix(cx, d - 1).columns
            for col in boundary_matrix(cx, d).columns:
                acc = set()
                for face in col:
                    acc ^= set(low_gf2[face])
                assert not acc
            low_int = signed_boundary_columns(cx, d - 1)
            for col in signed_boundary_columns(cx, d):
                sums = {}
                for face, sign in col.items():
                    for r, v in low_int[face].items():
                        sums[r] = sums.get(r, 0) + sign * v
                assert all(v == 0 for v in sums.values())

    # Euler characteristic equals the alternating Betti sum on complete
    # enumerations.
    for space, k in [
        (tr.torus_space(4), 2), (tr.torus_space(4), 3),
        (tr.cycle_space(6), 2), (tr.cycle_space(10), 3),
    ]:
        cx = enumerate_simplices(tr.vr_graph(space, k), space.point_count - 1)
        assert cx.complete
        profile = tr.betti_gf2(cx.graph, cx.top_dim)
        alternating = sum(b if d % 2 == 0 else -b for d, b in enumerate(profile.betti))
        assert alternating == tr.euler_characteristic(cx.counts) == profile.euler

    # GF(2) and integer Betti numbers agree wherever torsion is absent.
    for space, k, depth in [
        (tr.torus_space(5), 2, 3), (tr.torus_space(4), 2, 4), (tr.cycle_space(8), 3, 4),
    ]:
        cx = enumerate_simplices(tr.vr_graph(space, k), depth)
        a = tr.betti_gf2(cx.graph, depth - 1)
        b = tr.homology_integer(cx.graph, depth - 1)
        assert all(t == () for t in b.torsion)
        assert a.betti == b.betti

    # Dimension-zero homology counts connected components.
    rng = random.Random(7)
    graphs = [
        tr.vr_graph(tr.torus_space(6), 1),
        tr.vr_graph(tr.cycle_space(12), 0),
        tr.Graph.from_edges(
            10, [(u, v) for u in range(10) for v in range(u + 1, 10) if rng.random() < 0.2]
        ),
    ]
    for graph in graphs:
        parent = list(range(graph.vertex_count))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u in range(graph.vertex_count):
            for v in iter_bits(graph.masks[u]):
                parent[find(u)] = find(v)
        components = len({find(v) for v in range(graph.vertex_count)})
        cx = enumerate_simplices(graph, 1)
        assert tr.betti_gf2(cx.graph, 0).betti[0] == components

    elapsed = time.monotonic() - start
    print(f"criterion 7 PASS: structural invariants hold in {elapsed:.1f}s")


def test_criterion_8_contractible_regime_is_a_full_simplex():
    """From twice the floored half-side upward the scale graph is complete,
    so the complex is one simplex and all reduced homology vanishes."""
    start = time.monotonic()
    for n in range(3, 9):
        threshold = 2 * (n // 2)
        for k in range(threshold, n + 2):
            graph = tr.vr_graph(tr.torus_space(n), k)
            assert graph.is_complete(), f"n={n}, k={k}"
            profile, counts = tr.compute_profile(
                tr.torus_space(n), k, tr.RunConfig(max_dim=2)
            )
            assert counts is None
            assert profile.betti == (1, 0, 0)
        # Sharpness: one step below the threshold the graph is not complete.
        below = tr.vr_graph(tr.torus_space(n), threshold - 1)
        assert not below.is_complete(), f"n={n} threshold not sharp"
    elapsed = time.monotonic() - start
    print(f"criterion 8 PASS: contractible regime verified for n=3..8 in {elapsed:.1f}s")
