"""The closed-form facet catalogs built vertex by vertex, kept as the tests' reference.

Each facet is made as an ascending vertex tuple: a window translate adds
its base index to every stencil offset, a torus translate reduces every
stencil point mod n and sorts, and a cycle arc or axis line sorts its
vertices mod n.  The library shifts one vertex bitmask per facet instead;
decoded, both must give the same sets.  The checks that guard the
library's catalogs (window size, stencil wrap, family size, supported
regimes) are the library's to test; these assume valid arguments.
"""

from __future__ import annotations

from torus_rips.facets import _diamonds


def window_reference(window, k):
    """Interior facets of a lattice window at scale k, as ascending tuples."""
    margin = (k + 1) // 2
    ix_lo, ix_hi = window.x_min + margin, window.x_max - margin
    iy_lo, iy_hi = window.y_min + margin, window.y_max - margin
    height = window.height
    facets = set()
    for stencil in _diamonds(k):
        xs = [dx for dx, _ in stencil]
        ys = [dy for _, dy in stencil]
        offsets = [dx * height + dy for dx, dy in stencil]
        for a in range(ix_lo - min(xs), ix_hi - max(xs) + 1):
            for b in range(iy_lo - min(ys), iy_hi - max(ys) + 1):
                base = (a - window.x_min) * height + (b - window.y_min)
                facets.add(tuple(sorted(base + o for o in offsets)))
    return frozenset(facets)


def axis_reference(n, k):
    """The non-arc facets of the n-cycle at scale k, as ascending tuples; None if unsupported."""
    if n > 3 * k:
        return set()
    if n == 3 * k and k >= 2:
        offsets = (0, k, 2 * k)
    elif n == 3 * k - 1 and k >= 3:
        offsets = (0, k, 2 * k - 1, 2 * k)
    else:
        return None
    return {tuple(sorted((i + o) % n for o in offsets)) for i in range(n)}


def cycle_reference(n, k):
    """Facets of the n-cycle at scale k, as ascending tuples."""
    arcs = {tuple(sorted((i + j) % n for j in range(k + 1))) for i in range(n)}
    return frozenset(arcs | axis_reference(n, k))


def torus_reference(n, k):
    """Facets of the n-by-n torus grid at scale k, as ascending tuples."""
    facets = set()
    for stencil in _diamonds(k):
        for a in range(n):
            for b in range(n):
                facets.add(tuple(sorted({((a + dx) % n) * n + (b + dy) % n
                                         for dx, dy in stencil})))
    for line in axis_reference(n, k):
        for b in range(n):
            facets.add(tuple(sorted(r * n + b for r in line)))
            facets.add(tuple(sorted(b * n + r for r in line)))
    return frozenset(facets)
