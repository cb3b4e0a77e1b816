"""Topological certificates: antipodal structure, connectivity bounds, fingerprints.

Two certificate routes can upgrade a Betti profile to a proven homotopy type:
a graph whose non-edges form a perfect matching has the boundary of a
cross-polytope as its clique complex (hence a sphere), and a space whose
closed balls at the working scale intersect 2k + 2 at a time has a
k-connected complex, which together with free integer homology concentrated
in one dimension pins down a wedge of spheres.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .complexes import Graph
from .homology import BettiProfile


@dataclass(frozen=True)
class AntipodeReport:
    """Result of testing a graph for all-but-one adjacency.

    When ``is_antipode`` holds, ``pairs`` lists the mutually missing vertex
    pairs (each sorted, the list sorted) and ``cross_polytope_dim`` is half
    the vertex count m: the clique complex is the boundary of the
    m-dimensional cross-polytope, a sphere of dimension m - 1.
    """

    is_antipode: bool
    pairs: tuple[tuple[int, int], ...]
    cross_polytope_dim: Optional[int]


def antipode_check(graph: Graph) -> AntipodeReport:
    """Decide whether every vertex is adjacent to all vertices but exactly one.

    The one missing vertex of a vertex v of degree n - 2 is the single bit
    left in the complement of its closed neighbourhood mask.
    """
    n = graph.vertex_count
    if n % 2 == 1:
        return AntipodeReport(False, (), None)
    full = (1 << n) - 1
    partner = [-1] * n
    for v in range(n):
        if graph.degree(v) != n - 2:
            return AntipodeReport(False, (), None)
        partner[v] = (full & ~graph.masks[v] & ~(1 << v)).bit_length() - 1
    for v in range(n):
        if partner[partner[v]] != v:
            return AntipodeReport(False, (), None)
    pairs = tuple(sorted((v, partner[v]) for v in range(n) if v < partner[v]))
    return AntipodeReport(True, pairs, n // 2)


@dataclass(frozen=True)
class ConnectivityCertificate:
    """Largest k for which 2k + 2 closed balls at the scale always intersect.

    ``certified_k`` = -1 means even pairwise intersection could not be
    certified.  A certificate at k >= 1 implies the complex is simply
    connected.  ``method`` is always ``"counting"``, the one way the bound
    is computed; ``min_ball`` is the smallest closed-ball size and
    ``points`` the point count the count ran on.
    """

    scale: int
    method: str
    certified_k: int
    min_ball: int
    points: int


def connectivity_bound(graph: Graph, r: int, max_k: int) -> ConnectivityCertificate:
    """Certify k-connectivity of the scale-r complex through ball intersections.

    ``graph`` is the scale-r graph of the space, ``vr_graph(space, r)``.  In
    a metric space distance 0 holds only on the diagonal, so the closed ball
    of radius r around v is the closed neighbourhood of v in that graph: its
    size is degree + 1.  The certificate counts: with b the minimum
    closed-ball size, any 2k + 2 balls must overlap when
    |X| - (2k + 2)(|X| - b) >= 1.  It walks k upward from 0 to ``max_k`` and
    reports the last success, so the result is monotone by construction.
    """
    if max_k < 0:
        raise ValueError(f"max_k must be nonnegative, got {max_k}")

    size = graph.vertex_count
    min_ball = min(map(int.bit_count, graph.masks)) + 1
    certified = -1
    for k in range(max_k + 1):
        if size - (2 * k + 2) * (size - min_ball) < 1:
            break
        certified = k
    return ConnectivityCertificate(r, "counting", certified, min_ball, size)


@dataclass(frozen=True)
class Fingerprint:
    """Topological identification of one (n, k) torus complex.

    ``claim`` is a tag like ``torus``, ``sphere(3)``, ``wedge_S2(23)``,
    ``wedge_S2_S3(15,16)``, ``contractible``, or ``unknown``.  ``level``
    states how strong the identification is: ``certified`` (a combinatorial
    or connectivity certificate proves the homotopy type), ``consistent``
    (the computed profile matches the expected one), or ``inconsistent``.
    """

    claim: str
    level: str

    @property
    def consistent(self) -> bool:
        return self.level != "inconsistent"


def expected_torus_profile(n: int, k: int) -> Optional[tuple[str, tuple[int, ...]]]:
    """Expected claim tag and unreduced Betti numbers for a torus regime, if known."""
    if n < 3 or k < 0:
        raise ValueError(f"bad torus parameters n={n}, k={k}")
    if k >= 2 * (n // 2):
        return ("contractible", (1,))
    if k == 0:
        return (f"wedge_S0({n * n - 1})", (n * n,))
    if n % 2 == 0 and k == n - 1:
        d = n * n // 2 - 1
        return (f"sphere({d})", (1,) + (0,) * (d - 1) + (1,))
    if k == 1:
        count = 4 if n == 3 else n * n + 1
        return (f"wedge_S1({count})", (1, count))
    if n > 3 * k:
        return ("torus", (1, 2, 1))
    if n == 3 * k:
        count = 6 * k * k - 1
        return (f"wedge_S2({count})", (1, 0, count))
    if n == 3 * k - 1 and k >= 3:
        lower, upper = 6 * k - 3, 6 * k - 2
        return (f"wedge_S2_S3({lower},{upper})", (1, 0, lower, upper))
    if (n, k) == (5, 2):
        return ("wedge_S2(9)", (1, 0, 9))
    return None


def _wedge_license(
    profile: Optional[BettiProfile], conn: Optional[ConnectivityCertificate]
) -> Optional[tuple[int, int]]:
    """Dimension and sphere count when the connectivity certificate applies.

    It applies to a simply connected complex whose integer profile covers
    the whole complex, is torsion-free, and is concentrated in one
    dimension d >= 2.
    """
    if profile is None or conn is None:
        return None
    if profile.coefficients != "integer" or conn.certified_k < 1:
        return None
    # A truncated profile says nothing about the dimensions it did not
    # reach, so homology there could break the concentration.
    if profile.truncated_at is not None or any(profile.torsion):
        return None
    if profile.betti_at(0) != 1:
        return None
    nonzero = [d for d in range(1, len(profile.betti)) if profile.betti[d]]
    if len(nonzero) != 1 or nonzero[0] < 2:
        return None
    d = nonzero[0]
    return d, profile.betti[d]


def _profile_matches(profile: BettiProfile, expected: tuple[int, ...]) -> bool:
    top = len(expected) - 1
    if not profile.covers(top):
        raise ValueError(
            f"profile reports dimensions 0..{len(profile.betti) - 1} but the expected "
            f"profile reaches dimension {top}; compute deeper before fingerprinting"
        )
    span = max(len(profile.betti), len(expected))
    for d in range(span):
        want = expected[d] if d < len(expected) else 0
        if profile.betti_at(d) != want:
            return False
    return True


def fingerprint(
    profile: Optional[BettiProfile],
    antipode: Optional[AntipodeReport],
    conn: Optional[ConnectivityCertificate],
    n: int,
    k: int,
) -> Fingerprint:
    """Combine a Betti profile with certificates into a claimed homotopy type.

    Certification never goes beyond what a certificate licenses: the
    cross-polytope identification (antipodal graph) or simple connectivity
    plus free homology concentrated in one dimension >= 2.  Without a
    certificate the claim is downgraded to consistency with the expected
    profile for the (n, k) regime, or to ``unknown``.
    """
    expected = expected_torus_profile(n, k)

    if antipode is not None and antipode.is_antipode:
        d = antipode.cross_polytope_dim - 1
        consistent = True
        if profile is not None:
            sphere_profile = (1,) + (0,) * (d - 1) + (1,) if d >= 1 else (2,)
            consistent = _profile_matches(profile, sphere_profile)
        return Fingerprint(f"sphere({d})", "certified" if consistent else "inconsistent")

    license_ = _wedge_license(profile, conn)
    if license_ is not None:
        d, count = license_
        claim = f"sphere({d})" if count == 1 else f"wedge_S{d}({count})"
        consistent = expected is None or _profile_matches(profile, expected[1])
        return Fingerprint(claim, "certified" if consistent else "inconsistent")

    if expected is not None:
        if profile is None:
            raise ValueError("a Betti profile is required when no certificate applies")
        consistent = _profile_matches(profile, expected[1])
        return Fingerprint(expected[0], "consistent" if consistent else "inconsistent")

    return Fingerprint("unknown", "consistent")
