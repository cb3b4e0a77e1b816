"""The one-vertex-at-a-time Bron-Kerbosch search, kept as the tests' reference.

Each node scans X, then P until the first vertex that covers |P| - 1, and
branches on that one pivot; a chain of universal vertices of P costs one
loop iteration, with a fresh X and P scan, per vertex.  The library scans
P only at a node whose X is empty, where it moves every universal vertex of
P into the clique in one pass; a node with X nonempty pivots on X's best
vertex without scanning P.  Both must give the same facet set.
"""

from __future__ import annotations

from torus_rips.facets import FacetSet


def reference_facets(graph):
    """All maximal cliques of a graph, as vertex bitmasks.

    The search stops at the first universal vertex of each node.
    """
    n = graph.vertex_count
    masks = graph.masks
    out = []

    def expand(clique, candidates, excluded):
        while candidates:
            size = candidates.bit_count()
            best = -1
            m = excluded
            while m:
                u = m.bit_length() - 1
                m ^= 1 << u
                c = (candidates & masks[u]).bit_count()
                if c > best:
                    if c == size:
                        return
                    best = c
                    pivot = u
            m = candidates if best < size - 1 else 0
            while m:
                u = m.bit_length() - 1
                m ^= 1 << u
                c = (candidates & masks[u]).bit_count()
                if c > best:
                    best = c
                    pivot = u
                    if c == size - 1:
                        break
            branch = candidates & masks[pivot] ^ candidates
            while True:
                v = branch.bit_length() - 1
                bit = 1 << v
                branch ^= bit
                if not branch:
                    break
                expand(clique | bit, candidates & masks[v], excluded & masks[v])
                candidates ^= bit
                excluded |= bit
            clique |= bit
            candidates &= masks[v]
            excluded &= masks[v]
        if not excluded:
            out.append(clique)

    expand(0, (1 << n) - 1, 0)
    facets = frozenset(out)
    if len(facets) != len(out):
        raise RuntimeError(f"Bron-Kerbosch reported {len(out) - len(facets)} repeated cliques")
    return FacetSet(facets=facets)
