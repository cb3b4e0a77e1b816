"""Vietoris-Rips complexes of torus grids, cycles, and lattice windows.

The package computes homology over GF(2) and over the integers, carries
closed-form facet catalogs cross-checked against a brute-force oracle, and
issues topological certificates (cross-polytope spheres, connectivity
bounds, homotopy-type fingerprints).
"""

from __future__ import annotations

__version__ = "0.1.0"

from .certificates import (
    AntipodeReport,
    ConnectivityCertificate,
    Fingerprint,
    antipode_check,
    connectivity_bound,
    expected_torus_profile,
    fingerprint,
)
from .complexes import (
    DEFAULT_SIMPLEX_BUDGET,
    Graph,
    Simplex,
    euler_characteristic,
    vr_graph,
)
from .errors import (
    BudgetError,
    SimplexBudgetError,
    TruncatedComplexError,
    UnsupportedRegimeError,
)
from .facets import (
    FacetSet,
    brute_force_facets,
    cycle_facets,
    in_window_interior,
    is_maximal_clique,
    torus_facets,
    z2_facets_in_window,
)
from .homology import (
    BettiProfile,
    betti_gf2,
    expected_cycle_profile,
    homology_integer,
    smith_invariants,
)
from .pipeline import (
    GoldenRow,
    RunConfig,
    build_space,
    certify_torus,
    compute_profile,
    load_golden_table,
    run_golden_row,
)
from .spaces import (
    FiniteMetricSpace,
    LatticePoint,
    Window,
    cycle_space,
    torus_space,
    window_space,
)

__all__ = [
    "AntipodeReport",
    "BettiProfile",
    "BudgetError",
    "ConnectivityCertificate",
    "DEFAULT_SIMPLEX_BUDGET",
    "FacetSet",
    "Fingerprint",
    "FiniteMetricSpace",
    "GoldenRow",
    "Graph",
    "LatticePoint",
    "RunConfig",
    "Simplex",
    "SimplexBudgetError",
    "TruncatedComplexError",
    "UnsupportedRegimeError",
    "Window",
    "antipode_check",
    "betti_gf2",
    "brute_force_facets",
    "build_space",
    "certify_torus",
    "compute_profile",
    "connectivity_bound",
    "cycle_facets",
    "cycle_space",
    "euler_characteristic",
    "expected_cycle_profile",
    "expected_torus_profile",
    "fingerprint",
    "homology_integer",
    "in_window_interior",
    "is_maximal_clique",
    "load_golden_table",
    "run_golden_row",
    "smith_invariants",
    "torus_facets",
    "torus_space",
    "vr_graph",
    "window_space",
    "z2_facets_in_window",
]
