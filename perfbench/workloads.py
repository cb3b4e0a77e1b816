"""Case lists, seeded inputs and correctness gates of the three workloads.

Every case is driven through the library entry points the command line uses:
``compute_profile`` for ``betti``, ``certify_torus`` for ``certify``, and the
facet catalog plus Bron-Kerbosch oracle for ``facets --mode compare``.  The
library is always reached through module attributes (``pipeline.X``,
``facets.X``) at call time, so the traced run can swap in timing wrappers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from torus_rips import certificates, complexes, facets, pipeline
from torus_rips.spaces import FiniteMetricSpace, Window


@dataclass(frozen=True)
class Case:
    """One unit of work with an exact expected answer.

    ``kind`` is ``betti`` (a homology profile through ``max_dim``),
    ``certify`` (a claim and level from the certificate pipeline) or
    ``facets`` (closed-form facets against the oracle; ``side`` set means a
    side-by-side lattice window centred on the origin instead of a torus).
    """

    kind: str
    n: int
    k: int
    coefficients: str = "gf2"
    max_dim: Optional[int] = None
    side: Optional[int] = None
    claim: str = ""

    @property
    def id(self) -> str:
        if self.kind == "betti":
            tag = "Z" if self.coefficients == "integer" else "gf2"
            return f"betti-{tag}-T{self.n}-k{self.k}-d{self.max_dim}"
        if self.kind == "certify":
            return f"certify-{self.coefficients}-T{self.n}-k{self.k}"
        if self.side is not None:
            return f"facets-W{self.side}-k{self.k}"
        return f"facets-T{self.n}-k{self.k}"


def _betti(n: int, k: int, d: int, coefficients: str = "gf2") -> Case:
    return Case("betti", n, k, coefficients=coefficients, max_dim=d)


# Why each workload has these cases: BENCHMARK.json and expectations.json.
WORKLOADS: dict[str, tuple[Case, ...]] = {
    "gf2": (
        _betti(9, 4, 5),
        _betti(12, 4, 2),
        _betti(13, 4, 2),
        _betti(10, 3, 2),
        _betti(8, 3, 3),
        _betti(6, 3, 5),
        _betti(7, 3, 4),
    ),
    "integer": (
        _betti(7, 4, 3, "integer"),
        _betti(12, 4, 2, "integer"),
        _betti(6, 3, 5, "integer"),
        _betti(8, 3, 3, "integer"),
        # Full depth: integer certify with no max_dim enumerates to completion.
        Case("certify", 5, 3, coefficients="integer", claim="wedge_S4(9)"),
    ),
    "catalog": (
        Case("facets", 16, 5),
        Case("facets", 20, 4),
        Case("facets", 20, 6),
        Case("facets", 24, 5),
        Case("facets", 24, 7),
        Case("facets", 30, 6),
        Case("facets", 0, 4, side=25),
        Case("facets", 0, 5, side=31),
        # Antipodal tori: the clique complex is the boundary of the
        # n^2/2-dimensional cross-polytope, the sphere of dimension n^2/2 - 1.
        Case("certify", 16, 15, claim="sphere(127)"),
        Case("certify", 20, 19, claim="sphere(199)"),
        Case("certify", 24, 23, claim="sphere(287)"),
    ),
}


def case_list(workload: str, seed: int) -> list[Case]:
    """The workload's cases; a nonzero seed shuffles the catalog order only."""
    cases = list(WORKLOADS[workload])
    if workload == "catalog" and seed != 0:
        random.Random(seed).shuffle(cases)
    return cases


def relabelled(space: FiniteMetricSpace, seed: int, case_id: str) -> FiniteMetricSpace:
    """The space with its vertices renamed by a permutation drawn from the seed.

    Seed 0 returns the library's own space, the vertex order every command
    line user runs.  A relabelling is an isometry, so every expected answer is
    unchanged, but the simplex order and hence the reduction cost change.
    """
    if seed == 0:
        return space
    perm = list(range(space.point_count))
    random.Random(f"{seed}/{case_id}").shuffle(perm)
    base = space.distance

    def dist(a: int, b: int) -> int:
        return base(perm[a], perm[b])

    return FiniteMetricSpace(point_count=space.point_count, distance=dist, label=space.label)


def expected_betti_table() -> dict[tuple[int, int, int], tuple[int, ...]]:
    """Golden-table Betti numbers of every torus row, keyed by (n, k, max_dim).

    Skipped rows are included: their expected values are still exact.  The
    key ignores coefficients because a gate on an integer case also demands
    empty torsion, and torsion-free integer Betti numbers equal GF(2) ones.
    """
    return {
        (row.n, row.k, row.max_dim): row.expected_betti()
        for row in pipeline.load_golden_table()
        if row.space == "torus"
    }


def expected_betti(table: dict, case: Case) -> tuple[int, ...]:
    """Golden-table row of the case, else the closed-form torus regime profile."""
    key = (case.n, case.k, case.max_dim)
    if key in table:
        return table[key]
    regime = certificates.expected_torus_profile(case.n, case.k)
    if regime is None:
        raise ValueError(f"no expected answer for {case.id}")
    betti = regime[1][: case.max_dim + 1]
    return betti + (0,) * (case.max_dim + 1 - len(betti))


@dataclass
class Prepared:
    """A case with its generated input and the answer its output must equal."""

    case: Case
    expected: object
    space: Optional[FiniteMetricSpace] = None
    window: Optional[Window] = None


def prepare(
    workload: str,
    seed: int,
    wrap_space: Callable[[FiniteMetricSpace], FiniteMetricSpace] = lambda s: s,
) -> list[Prepared]:
    """Generate every input and expected answer of a workload from the seed.

    ``wrap_space`` lets the traced run count distance calls on the spaces the
    benchmark builds.
    """
    table = expected_betti_table()
    out = []
    for case in case_list(workload, seed):
        if case.kind == "betti":
            space = relabelled(pipeline.build_space("torus", n=case.n), seed, case.id)
            out.append(Prepared(case, expected_betti(table, case), space=wrap_space(space)))
        elif case.kind == "certify":
            out.append(Prepared(case, (case.claim, "certified")))
        elif case.side is not None:
            half = case.side // 2
            window = Window(-half, case.side - 1 - half, -half, case.side - 1 - half)
            space = pipeline.build_space("window", window=window)
            out.append(Prepared(case, None, space=wrap_space(space), window=window))
        else:
            space = pipeline.build_space("torus", n=case.n)
            out.append(Prepared(case, None, space=wrap_space(space)))
    return out


def run_case(p: Prepared) -> tuple[object, object]:
    """Run one case; return (what the program produced, what it must equal)."""
    case = p.case
    if case.kind == "betti":
        config = pipeline.RunConfig(coefficients=case.coefficients, max_dim=case.max_dim)
        profile, _ = pipeline.compute_profile(p.space, case.k, config)
        got = (profile.betti, profile.torsion)
        want = (p.expected, tuple(() for _ in p.expected))
        return got, want
    if case.kind == "certify":
        fp, _, _, _ = pipeline.certify_torus(
            case.n, case.k, pipeline.RunConfig(coefficients=case.coefficients)
        )
        return (fp.claim, fp.level), p.expected
    if p.window is not None:
        catalog = facets.z2_facets_in_window(p.window, case.k)
    else:
        catalog = facets.torus_facets(case.n, case.k)
    oracle = facets.brute_force_facets(complexes.vr_graph(p.space, case.k)).facets
    if p.window is not None:
        # Cliques clipped by the window edge are not facets of the plane.
        oracle = frozenset(f for f in oracle if facets.in_window_interior(p.window, case.k, f))
    return oracle, catalog.facets


def corrupt(want: object) -> object:
    """A deliberately wrong version of an expected answer, for the self-check."""
    if isinstance(want, frozenset):
        return frozenset(sorted(want)[1:])
    if isinstance(want, tuple) and isinstance(want[0], str):
        return (want[0] + "-wrong", want[1])
    betti, torsion = want
    return ((betti[0] + 1,) + betti[1:], torsion)


def difference(got: object, want: object) -> dict:
    """A short account of how a wrong answer differs from the expected one."""
    if isinstance(want, frozenset):
        return {"only_got": sorted(got - want)[:5], "only_want": sorted(want - got)[:5]}
    return {"got": repr(got), "want": repr(want)}
