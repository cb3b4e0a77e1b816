"""Layer tracing from outside the library: spans, counts and derived metrics.

The tracer replaces the module attributes through which callers look up the
public functions of ``spaces``, ``complexes``, ``homology``, ``facets``,
``certificates`` and ``pipeline`` with wrappers that record a span (name,
start, end, parent span, case id) and read work counts off the arguments and
results.  Spans stay in memory until the run ends.  No library file changes.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import defaultdict
from typing import Callable, Optional

import torus_rips.complexes
import torus_rips.facets
import torus_rips.homology
import torus_rips.pipeline
from torus_rips.spaces import FiniteMetricSpace

# Per-layer metrics and their units, in the order BENCHMARK.json lists them.
LAYER_METRICS: dict[str, str] = {
    "spaces.distance_calls": "count",
    "complexes.vr_graph_s": "s",
    "complexes.edges": "count",
    "complexes.enumerate_s": "s",
    "complexes.simplices": "count",
    "complexes.boundary_s": "s",
    "complexes.boundary_columns": "count",
    "homology.gf2_rank_s": "s",
    "homology.gf2_top_s": "s",
    "homology.gf2_columns": "count",
    "homology.gf2_cleared": "count",
    "homology.gf2_pivots": "count",
    "homology.gf2_zero_columns": "count",
    "homology.gf2_useful_ratio": "ratio",
    "homology.signed_columns_s": "s",
    "homology.snf_s": "s",
    "homology.snf_columns": "count",
    "homology.snf_rank": "count",
    "homology.snf_factors": "count",
    "facets.closed_form_s": "s",
    "facets.oracle_s": "s",
    "facets.count": "count",
    "certificates.antipode_s": "s",
    "certificates.connectivity_s": "s",
    "certificates.fingerprint_s": "s",
    "pipeline.self_s": "s",
    "gc.pause_s": "s",
    "gc.collections": "count",
    "trace.overhead_s": "s",
}

# Counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = (
    "spaces.distance_calls",
    "complexes.edges",
    "complexes.simplices",
    "complexes.boundary_columns",
    "homology.gf2_columns",
    "homology.gf2_cleared",
    "homology.gf2_pivots",
    "homology.gf2_zero_columns",
    "homology.snf_columns",
    "homology.snf_rank",
    "homology.snf_factors",
    "facets.count",
)

# Self time of these spans, summed, gives each timed layer metric.
SPAN_METRICS = {
    "complexes.vr_graph_s": ("complexes.vr_graph",),
    "complexes.enumerate_s": ("complexes.enumerate_simplices",),
    "complexes.boundary_s": ("complexes.boundary_matrix",),
    "homology.gf2_rank_s": ("homology.gf2_rank",),
    "homology.signed_columns_s": ("homology.signed_boundary_columns",),
    "homology.snf_s": ("homology.smith_invariants",),
    "facets.closed_form_s": ("facets.closed_form",),
    "facets.oracle_s": ("facets.oracle",),
    "certificates.antipode_s": ("certificates.antipode_check",),
    "certificates.connectivity_s": ("certificates.connectivity_bound",),
    "certificates.fingerprint_s": ("certificates.fingerprint",),
    "pipeline.self_s": ("pipeline.compute_profile", "pipeline.certify_torus"),
}


class Tracer:
    """Spans and counts of one pass over a workload, kept in memory.

    A span is ``[name, start, end, parent, case]`` with ``parent`` the index
    of the enclosing span or None.  Calls are single-threaded, so the open
    spans form a stack.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.reductions: list[dict] = []  # one entry per GF(2) or SNF matrix
        self.case: Optional[str] = None
        self._stack: list[int] = []
        self._dim: Optional[int] = None  # dimension of the last boundary built
        self._distance_boxes: list[list[int]] = []
        self._gc_start = 0.0
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span; ``count(args, result)`` runs after it ends."""

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, self.case]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(args, result)
            return result

        return traced

    def counted_space(self, space: FiniteMetricSpace) -> FiniteMetricSpace:
        """The same space whose distance counts its calls."""
        box = [0]
        self._distance_boxes.append(box)
        base = space.distance

        def dist(a: int, b: int) -> int:
            box[0] += 1
            return base(a, b)

        return FiniteMetricSpace(point_count=space.point_count, distance=dist, label=space.label)

    # -- counts read at layer boundaries -------------------------------------

    def _graph(self, args, graph) -> None:
        self.counts["complexes.edges"] += graph.edge_count()

    def _complex(self, args, cx) -> None:
        self.counts["complexes.simplices"] += sum(cx.counts)

    def _boundary(self, args, matrix) -> None:
        self._dim = args[1]
        self.counts["complexes.boundary_columns"] += matrix.n_cols

    def _gf2(self, args, result) -> None:
        columns = len(args[0])
        cleared = len(args[1]) if len(args) > 1 else 0
        pivots = result[0]
        self.counts["homology.gf2_columns"] += columns
        self.counts["homology.gf2_cleared"] += cleared
        self.counts["homology.gf2_pivots"] += pivots
        self.reductions.append(
            {"case": self.case, "kind": "gf2", "dim": self._dim, "columns": columns,
             "cleared": cleared, "pivots": pivots, "zero": columns - cleared - pivots}
        )

    def _signed(self, args, columns) -> None:
        self._dim = args[1]

    def _snf(self, args, result) -> None:
        rank, factors = result
        self.counts["homology.snf_columns"] += len(args[1])
        self.counts["homology.snf_rank"] += rank
        self.counts["homology.snf_factors"] += len(factors)
        self.reductions.append(
            {"case": self.case, "kind": "snf", "dim": self._dim, "columns": len(args[1]),
             "rank": rank, "factors": list(factors)}
        )

    def _facets(self, args, facet_set) -> None:
        self.counts["facets.count"] += len(facet_set)

    # -- installing the wrappers -------------------------------------------

    def _patch(self, module, attr: str, name: str, count: Optional[Callable] = None) -> None:
        original = getattr(module, attr)
        self._restore.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, count))

    def install(self) -> None:
        """Wrap every library entry point the workloads reach, and hook the GC."""
        pipe, cx, hom, fac = (
            torus_rips.pipeline, torus_rips.complexes, torus_rips.homology, torus_rips.facets
        )
        self._patch(pipe, "compute_profile", "pipeline.compute_profile")
        self._patch(pipe, "certify_torus", "pipeline.certify_torus")
        space_factory = pipe.torus_space
        self._restore.append((pipe, "torus_space", space_factory))
        pipe.torus_space = self.wrap(
            "spaces.torus_space", lambda n: self.counted_space(space_factory(n))
        )
        self._patch(pipe, "vr_graph", "complexes.vr_graph", self._graph)
        self._patch(cx, "vr_graph", "complexes.vr_graph", self._graph)
        self._patch(pipe, "enumerate_simplices", "complexes.enumerate_simplices", self._complex)
        self._patch(hom, "boundary_matrix", "complexes.boundary_matrix", self._boundary)
        self._patch(pipe, "betti_gf2", "homology.betti_gf2")
        self._patch(hom, "gf2_rank", "homology.gf2_rank", self._gf2)
        self._patch(pipe, "homology_integer", "homology.homology_integer")
        self._patch(hom, "signed_boundary_columns", "homology.signed_boundary_columns",
                    self._signed)
        self._patch(hom, "smith_invariants", "homology.smith_invariants", self._snf)
        self._patch(fac, "torus_facets", "facets.closed_form", self._facets)
        self._patch(fac, "z2_facets_in_window", "facets.closed_form", self._facets)
        self._patch(fac, "brute_force_facets", "facets.oracle")
        self._patch(pipe, "antipode_check", "certificates.antipode_check")
        self._patch(pipe, "connectivity_bound", "certificates.connectivity_bound")
        self._patch(pipe, "fingerprint", "certificates.fingerprint")
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    # -- derived metrics ---------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of this pass except ``trace.overhead_s``."""
        own = self.self_times()
        by_name: dict[str, float] = defaultdict(float)
        for span, t in zip(self.spans, own):
            by_name[span[0]] += t
        out: dict[str, float] = {name: self.counts.get(name, 0) for name in EXACT_COUNTS}
        out["spaces.distance_calls"] = sum(box[0] for box in self._distance_boxes)
        for metric, names in SPAN_METRICS.items():
            out[metric] = sum(by_name[n] for n in names)
        # The first reduction of each case is the top dimension, which
        # nothing above it can clear.
        top: dict[str, float] = {}
        for span, t in zip(self.spans, own):
            if span[0] == "homology.gf2_rank" and span[4] not in top:
                top[span[4]] = t
        out["homology.gf2_top_s"] = sum(top.values())
        c = self.counts
        out["homology.gf2_zero_columns"] = (
            c["homology.gf2_columns"] - c["homology.gf2_cleared"] - c["homology.gf2_pivots"]
        )
        attempted = c["homology.gf2_columns"] - c["homology.gf2_cleared"]
        out["homology.gf2_useful_ratio"] = (
            c["homology.gf2_pivots"] / attempted if attempted else 0.0
        )
        out["gc.pause_s"] = self.gc_pause_s
        out["gc.collections"] = self.gc_collections
        return out


def merge_passes(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over traced passes; counts must agree exactly."""
    merged = {}
    for name in passes[0]:
        values = [p[name] for p in passes]
        if name in EXACT_COUNTS and len(set(values)) != 1:
            raise RuntimeError(f"count {name} differs between passes of one seed: {values}")
        merged[name] = statistics.median(values)
    return merged
