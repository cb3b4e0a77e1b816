"""End-to-end runners shared by the command line and the verification suites."""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace
from importlib import resources
from typing import Optional

from .certificates import (
    AntipodeReport,
    ConnectivityCertificate,
    Fingerprint,
    antipode_check,
    connectivity_bound,
    expected_torus_profile,
    fingerprint,
)
# enumerate_simplices is not called here; perfbench/spans.py traces it by this name.
from .complexes import (
    DEFAULT_SIMPLEX_BUDGET,
    Graph,
    collapse_edges,
    degeneracy_order,
    enumerate_simplices,  # noqa: F401
    euler_characteristic,
    vr_graph,
)
from .errors import BudgetError
from .homology import BettiProfile, betti_gf2, homology_integer
from .spaces import FiniteMetricSpace, Window, cycle_space, torus_space, window_space


COEFFICIENTS = ("gf2", "integer")


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs beyond the space itself; mirrored into output."""

    coefficients: str = "gf2"
    max_dim: Optional[int] = None  # None means enumerate the whole complex
    simplex_budget: Optional[int] = DEFAULT_SIMPLEX_BUDGET
    time_budget_secs: Optional[float] = None

    def __post_init__(self) -> None:
        if self.coefficients not in COEFFICIENTS:
            raise ValueError(f"unknown coefficients {self.coefficients!r}")
        if self.max_dim is not None and self.max_dim < 0:
            raise ValueError(f"max_dim must be nonnegative or None, got {self.max_dim}")
        # None disables the simplex budget; zero would refuse even the vertices.
        b = self.simplex_budget
        if b is not None and b <= 0:
            raise ValueError(f"simplex budget must be positive or None, got {b}")
        # A NaN deadline never compares as passed, so it would bound nothing.
        t = self.time_budget_secs
        if t is not None and not (math.isfinite(t) and t >= 0):
            raise ValueError(f"time budget must be a finite number >= 0, got {t}")

    def deadline(self) -> Optional[float]:
        if self.time_budget_secs is None:
            return None
        return time.monotonic() + self.time_budget_secs


def build_space(kind: str, n: Optional[int] = None, window: Optional[Window] = None) -> FiniteMetricSpace:
    """A cycle or torus of side n, or a window of bounds window; the other size is refused."""
    if kind == "window":
        if window is None or n is not None:
            raise ValueError("window space needs window bounds and takes no n")
        return window_space(window)
    if kind not in ("cycle", "torus"):
        raise ValueError(f"unknown space kind {kind!r}")
    if n is None or window is not None:
        raise ValueError(f"{kind} space needs n and takes no window bounds")
    return cycle_space(n) if kind == "cycle" else torus_space(n)


def check_depth(max_dim: Optional[int], point_count: int, label: str) -> None:
    """Refuse a max_dim of at least the point count: no simplex on N points has dimension N."""
    if max_dim is not None and max_dim >= point_count:
        raise ValueError(f"max_dim {max_dim} is not below the {point_count} points of {label}")


def compute_profile(
    space: FiniteMetricSpace,
    k: int,
    config: RunConfig,
    graph: Optional[Graph] = None,
    deadline: Optional[float] = None,
) -> tuple[BettiProfile, Optional[tuple[int, ...]]]:
    """Build the scale-k graph of a space and compute its Betti profile.

    A complete scale graph short-circuits to the one-simplex profile without
    enumeration; otherwise ``collapse_edges`` removes the dominated edges,
    ``degeneracy_order`` relabels the collapsed graph smallest-last, and the
    requested coefficient pipeline scans the clique tree through one
    dimension above max_dim (or to completion when max_dim is None), then
    reduces the dead ends the scan collected.  The order only sets the cost
    of the scan and the reduction: no answer depends on it.  The deadline,
    when not given, is read from ``config`` before anything else, so it
    bounds every stage, the build of the scale graph included.  The collapse
    keeps Betti numbers and torsion; ``euler``, ``truncated_at``, the length
    of a full-depth ``betti`` and the returned simplex counts per dimension
    (the counted top layer included, None for a complete graph) describe the
    collapsed complex.  Returns the profile and those counts.  A max_dim of
    at least the point count raises ValueError before anything is built: no
    simplex on N points has dimension N or more (``check_depth``).
    """
    max_dim = config.max_dim
    check_depth(max_dim, space.point_count, space.label)
    if deadline is None:
        deadline = config.deadline()
    if graph is None:
        graph = vr_graph(space, k, deadline)
    if graph.is_complete():
        betti = (1,) + (0,) * (max_dim or 0)
        return BettiProfile(
            coefficients=config.coefficients,
            betti=betti,
            torsion=tuple(() for _ in betti),
            euler=euler_characteristic(betti),
            truncated_at=None,
        ), None

    reduce = betti_gf2 if config.coefficients == "gf2" else homology_integer
    graph = degeneracy_order(collapse_edges(graph, deadline), deadline)
    profile = reduce(graph, max_dim, deadline=deadline, budget=config.simplex_budget)
    return profile, profile.counts


def default_certify_depth(n: int, k: int) -> Optional[int]:
    """Enumeration depth implied by the expected regime profile, if any."""
    expected = expected_torus_profile(n, k)
    if expected is None:
        return None
    return len(expected[1]) - 1


def certify_torus(
    n: int,
    k: int,
    config: RunConfig,
) -> tuple[Fingerprint, Optional[BettiProfile], AntipodeReport, ConnectivityCertificate]:
    """Run the whole certificate pipeline for one (n, k) torus complex.

    The antipodal test and the counting connectivity certificate are always
    computed (both are cheap).  The Betti profile is skipped when the
    antipodal certificate already pins the homotopy type; otherwise it goes
    to ``config.max_dim``, where None means the whole complex, as in
    ``compute_profile``; a max_dim of at least n * n raises ValueError
    before the scale graph is built.
    """
    space = torus_space(n)
    check_depth(config.max_dim, space.point_count, space.label)
    deadline = config.deadline()
    graph = vr_graph(space, k, deadline)
    antipode = antipode_check(graph)
    conn = connectivity_bound(graph, k, max_k=1)

    profile: Optional[BettiProfile] = None
    if not antipode.is_antipode:
        profile, _ = compute_profile(space, k, config, graph=graph, deadline=deadline)
    fp = fingerprint(profile, antipode, conn, n, k)
    return fp, profile, antipode, conn


@dataclass(frozen=True)
class GoldenRow:
    """One expected-homology table entry.

    ``expected`` maps each dimension in 0..max_dim to a Betti number; every
    unlisted one is asserted 0 (dimension 0 defaults to 1); max_dim must be
    below the point count (n for a cycle, n * n for a torus).  Rows with
    ``skip`` true are outside the desk-scale budget and are reported as
    skipped with their non-empty ``skip_reason``, never run.
    """

    space: str
    n: int
    k: int
    coefficients: str
    max_dim: int
    expected: dict[int, int]
    source: str
    skip: bool = False
    skip_reason: str = ""

    def __post_init__(self) -> None:
        numbers = {"n": self.n, "k": self.k, "max_dim": self.max_dim}
        numbers.update((f"expected[{d}]", b) for d, b in self.expected.items())
        for name, value in numbers.items():
            # bool is a subclass of int, but true is no count.
            if type(value) is not int or value < 0:
                raise TypeError(f"{name} must be a nonnegative integer, got {value!r}")
        for d in self.expected:
            if not 0 <= d <= self.max_dim:
                raise ValueError(f"expected dimension {d} outside 0..max_dim {self.max_dim}")
        if type(self.skip) is not bool:
            raise TypeError(f"skip must be true or false, got {self.skip!r}")
        if self.skip and not (isinstance(self.skip_reason, str) and self.skip_reason.strip()):
            raise ValueError(
                f"a skipped row needs a non-empty skip_reason, got {self.skip_reason!r}"
            )
        if self.coefficients not in COEFFICIENTS:
            raise ValueError(f"unknown coefficients {self.coefficients!r}")
        if not (isinstance(self.source, str) and self.source.strip()):
            raise ValueError(f"source must be a non-empty string, got {self.source!r}")
        # build_space needs only n for these two kinds.
        if self.space not in ("cycle", "torus"):
            raise ValueError(f"space must be 'cycle' or 'torus', got {self.space!r}")
        if self.n < 3:
            raise ValueError(f"n must be at least 3, got {self.n}")
        points = self.n if self.space == "cycle" else self.n * self.n
        check_depth(self.max_dim, points, f"{self.space} {self.n}")

    def expected_betti(self) -> tuple[int, ...]:
        return tuple(
            self.expected.get(d, 1 if d == 0 else 0) for d in range(self.max_dim + 1)
        )


class _JsonObject(dict):
    """A parsed JSON object that keeps its key-value pairs, repeated keys included."""

    def __init__(self, pairs: list[tuple[str, object]]) -> None:
        super().__init__(pairs)
        self.pairs = pairs


def _expected_dims(expected: _JsonObject) -> dict[int, object]:
    """A golden row's ``expected`` object keyed by dimension.

    Two keys that name one dimension, like "1" twice or "1" and "01", raise
    ValueError.
    """
    dims: dict[int, object] = {}
    for key, betti in expected.pairs:
        d = int(key)
        if d in dims:
            raise ValueError(f"expected dimension {d} is given twice")
        dims[d] = betti
    return dims


def load_golden_table(path: Optional[str] = None) -> list[GoldenRow]:
    """Load the golden homology table from the packaged data file or a path.

    A file that cannot be read or parsed or whose ``rows`` is not a list, or
    a row that lacks a required key, is not an object, names an unknown
    ring, names a space other than a cycle or a torus, holds a count that is
    not a nonnegative integer, has a max_dim no simplex of its space
    reaches, expects a dimension outside 0..max_dim or twice, has a ``source`` that is not a non-empty string or a ``skip``
    that is not a boolean, or is skipped without a reason, raises ValueError
    naming the file (and the row index).
    """
    if path is None:
        path = "packaged golden_table.json"
        text = resources.files("torus_rips.data").joinpath("golden_table.json").read_text()
    else:
        try:
            with open(path, "r", encoding="utf-8") as f:
                text = f.read()
        except OSError as exc:
            raise ValueError(f"cannot read golden table {path}: {exc.strerror}") from exc
    try:
        entries = json.loads(text, object_pairs_hook=_JsonObject)["rows"]
        if not isinstance(entries, list):
            raise TypeError(f"'rows' is {entries!r}")
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(
            f"golden table {path} is not a JSON object with a 'rows' list: {exc}"
        ) from exc
    rows = []
    for i, entry in enumerate(entries):
        try:
            rows.append(
                GoldenRow(
                    space=entry["space"],
                    n=entry["n"],
                    k=entry["k"],
                    coefficients=entry.get("coefficients", "gf2"),
                    max_dim=entry["max_dim"],
                    expected=_expected_dims(entry["expected"]),
                    source=entry["source"],
                    skip=entry.get("skip", False),
                    skip_reason=entry.get("skip_reason", ""),
                )
            )
        except KeyError as exc:
            raise ValueError(f"golden table {path}: row {i} lacks key {exc.args[0]!r}") from exc
        except (TypeError, AttributeError, ValueError) as exc:
            raise ValueError(f"golden table {path}: row {i} is malformed: {exc}") from exc
    return rows


def run_golden_row(row: GoldenRow, config: RunConfig) -> dict:
    """Run one golden row and report PASS / FAIL / SKIPPED with details."""
    base = {
        "space": row.space,
        "n": row.n,
        "k": row.k,
        "coefficients": row.coefficients,
        "max_dim": row.max_dim,
        "expected": list(row.expected_betti()),
        "source": row.source,
    }
    if row.skip:
        base.update(status="SKIPPED", reason=row.skip_reason)
        return base
    start = time.monotonic()
    space = build_space(row.space, n=row.n)
    row_config = replace(config, coefficients=row.coefficients, max_dim=row.max_dim)
    try:
        profile, _ = compute_profile(space, row.k, row_config)
    except BudgetError as exc:
        base.update(status="SKIPPED", reason=f"budget: {exc}")
        return base
    elapsed_ms = int((time.monotonic() - start) * 1000)
    computed = tuple(profile.betti_at(d) for d in range(row.max_dim + 1))
    ok = computed == row.expected_betti()
    if row.coefficients == "integer" and any(profile.torsion):
        ok = False
        base["torsion"] = [list(t) for t in profile.torsion]
    base.update(
        status="PASS" if ok else "FAIL",
        computed=list(computed),
        wall_time_ms=elapsed_ms,
    )
    return base
