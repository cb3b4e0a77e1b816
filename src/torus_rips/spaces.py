"""Finite metric spaces: cycles, square torus grids, and lattice windows.

Each space has exactly one distance, the closure that ``cycle_space``,
``torus_space`` or ``window_space`` returns in its ``FiniteMetricSpace``;
everything downstream (scale graphs, balls, certificates) reads that one.
Every distance is an exact nonnegative integer; nothing here touches
floating point.

Each closure only looks its answer up: the constructor builds small
coordinate tables once per space, O(point_count) ints in all, and the
closure reads them with no division or ``min`` per call (the principle of
Ripser: compute metric data once, look it up in the inner loop).  A distance
is defined on vertex indices 0..point_count - 1 only; an index past the end
raises ``IndexError`` and a negative index is not checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple


class LatticePoint(NamedTuple):
    """An integer point of the plane."""

    x: int
    y: int


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """A finite metric space addressed by vertex index 0..point_count-1.

    Torus vertices are indexed row * n + col; window vertices in lexicographic
    (x, y) order.  ``distance`` is defined on 0..point_count-1, nonnegative
    and integer-valued, and must satisfy the metric axioms, which ``vr_graph``
    and ``connectivity_bound`` rely on:

    - d(u, v) = 0 exactly when u = v;
    - d(u, v) = d(v, u);
    - d(u, w) <= d(u, v) + d(v, w).
    """

    point_count: int
    distance: Callable[[int, int], int]
    label: str

    def __post_init__(self) -> None:
        if self.point_count < 1:
            raise ValueError(f"point_count must be positive, got {self.point_count}")


def cycle_space(n: int) -> FiniteMetricSpace:
    """The n-point cycle with hop metric; vertex index equals cycle position.

    ``hops[d]`` is the hop distance of a gap d; a negative gap -d indexes
    from the end, and ``hops[n - d] == hops[d]``.
    """
    if n < 3:
        raise ValueError(f"cycle length must be at least 3, got {n}")
    hops = [min(d, n - d) for d in range(n)]

    def dist(i: int, j: int) -> int:
        return hops[i - j]

    return FiniteMetricSpace(point_count=n, distance=dist, label=f"cycle {n}")


def torus_space(n: int) -> FiniteMetricSpace:
    """The n-by-n torus grid with the L1 product metric; index = row * n + col.

    ``row[a]`` and ``col[a]`` are vertex a's coordinates, and the distance
    sums the cycle's ``hops`` of the two coordinate gaps.
    """
    if n < 3:
        raise ValueError(f"torus side must be at least 3, got {n}")
    hops = [min(d, n - d) for d in range(n)]
    row = [r for r in range(n) for _ in range(n)]
    col = list(range(n)) * n

    def dist(a: int, b: int) -> int:
        return hops[row[a] - row[b]] + hops[col[a] - col[b]]

    return FiniteMetricSpace(point_count=n * n, distance=dist, label=f"torus {n}")


@dataclass(frozen=True)
class Window:
    """An axis-aligned rectangle of lattice points, both bounds inclusive.

    Vertex indices run in lexicographic (x, y) order: index 0 is
    (x_min, y_min), index 1 is (x_min, y_min + 1), and so on.
    """

    x_min: int
    x_max: int
    y_min: int
    y_max: int

    def __post_init__(self) -> None:
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise ValueError(f"empty window {self}")

    @property
    def width(self) -> int:
        return self.x_max - self.x_min + 1

    @property
    def height(self) -> int:
        return self.y_max - self.y_min + 1

    def contains(self, p: LatticePoint | tuple[int, int]) -> bool:
        x, y = p
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max

    def index(self, p: LatticePoint | tuple[int, int]) -> int:
        if not self.contains(p):
            raise ValueError(f"point {tuple(p)} outside window {self}")
        x, y = p
        return (x - self.x_min) * self.height + (y - self.y_min)

    def point(self, index: int) -> LatticePoint:
        if not 0 <= index < self.width * self.height:
            raise ValueError(f"index {index} out of range for window {self}")
        dx, dy = divmod(index, self.height)
        return LatticePoint(self.x_min + dx, self.y_min + dy)

    @property
    def label(self) -> str:
        return f"window {self.x_min}:{self.x_max},{self.y_min}:{self.y_max}"


def window_space(window: Window) -> FiniteMetricSpace:
    """A finite chunk of the plane with the L1 metric, indexed per the window.

    ``xs[a]`` and ``ys[a]`` are vertex a's offsets from (x_min, y_min).
    """
    width, height = window.width, window.height
    xs = [x for x in range(width) for _ in range(height)]
    ys = list(range(height)) * width

    def dist(a: int, b: int) -> int:
        return abs(xs[a] - xs[b]) + abs(ys[a] - ys[b])

    return FiniteMetricSpace(point_count=width * height, distance=dist, label=window.label)
