"""The clique tree's matching, whose critical cells are the scan's dead ends.

Each simplex with an extension (a common neighbour above its top vertex) is
matched with the simplex plus its highest extension vertex.  The reducer
reads every Betti number off the critical cells as c_d - r_{d-1} - r_d; that
is exact because this is an acyclic matching whose unmatched simplices are
``scan_clique_tree``'s dead ends.  Both facts are checked here on the whole
enumerated complex, with the weak Morse inequalities and the Euler identity
they imply.
"""

import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torus_rips as tr
from torus_rips.complexes import (collapse_edges, degeneracy_order, enumerate_simplices,
                                  euler_characteristic, iter_bits, scan_clique_tree)


def random_graph(n, density, seed):
    rng = random.Random(seed)
    pairs = itertools.combinations(range(n), 2)
    return tr.Graph.from_edges(n, [pair for pair in pairs if rng.random() < density])


small_graphs = st.builds(random_graph, st.integers(min_value=1, max_value=11),
                         st.floats(min_value=0.2, max_value=0.95),
                         st.integers(min_value=0, max_value=2**32 - 1))


def matching(graph):
    """Every layer of the clique complex, and the map σ -> σ + its highest extension vertex."""
    layers = enumerate_simplices(graph, graph.vertex_count - 1).keys
    up = {}
    for key in itertools.chain.from_iterable(layers):
        common = -1
        for v in iter_bits(key):
            common &= graph.masks[v]
        cand = common >> key.bit_length()
        if cand:
            up[key] = key | 1 << key.bit_length() + cand.bit_length() - 1
    return layers, up


def has_gradient_cycle(layers, up):
    """Whether the Hasse diagram with every matched edge turned upward has a directed cycle."""
    down = {value: key for key, value in up.items()}
    arrows = {}
    for key in itertools.chain.from_iterable(layers):
        # Unmatched face edges point down; the matched one points up.
        facets = [key ^ 1 << v for v in iter_bits(key) if key ^ 1 << v]
        arrows[key] = [f for f in facets if down.get(key) != f]
        if key in up:
            arrows[key].append(up[key])
    state = dict.fromkeys(arrows, 0)  # 0 unseen, 1 on the stack, 2 done
    for root in arrows:
        if state[root]:
            continue
        state[root] = 1
        stack = [(root, iter(arrows[root]))]
        while stack:
            node, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                state[node] = 2
                stack.pop()
            elif state[nxt] == 1:
                return True
            elif state[nxt] == 0:
                state[nxt] = 1
                stack.append((nxt, iter(arrows[nxt])))
    return False


def morse_failures(graph, scan):
    """The names of the checks failed: a matching, acyclic, with the dead ends as critical cells."""
    layers, up = matching(graph)
    failures = []
    matched_up, matched_down = set(up), set(up.values())
    if len(matched_down) != len(up) or matched_up & matched_down:
        failures.append("matching")
    if has_gradient_cycle(layers, up):
        failures.append("acyclic")
    critical = [[key for key in layer if key not in matched_up | matched_down]
                for layer in layers]
    while critical and not critical[-1]:
        critical.pop()
    dead_ends = list(map(list, scan.dead_ends))
    while dead_ends and not dead_ends[-1]:
        dead_ends.pop()
    if dead_ends != critical:
        failures.append("critical cells")
    return failures


@given(small_graphs)
@settings(deadline=None, max_examples=120)
def test_dead_ends_are_the_critical_cells_of_an_acyclic_matching(graph):
    assert morse_failures(graph, scan_clique_tree(graph)) == []


@given(small_graphs)
@settings(deadline=None, max_examples=120)
def test_morse_numbers_bound_the_integer_betti_numbers(graph):
    scan = scan_clique_tree(graph)
    assert scan.complete
    c = [len(ends) for ends in scan.dead_ends]
    betti = tr.homology_integer(graph, None).betti
    assert len(betti) == len(c)
    assert all(c_d >= b_d for c_d, b_d in zip(c, betti))
    assert euler_characteristic(c) == euler_characteristic(scan.counts)
    assert euler_characteristic(c) == euler_characteristic(betti)


def with_last_children(graph, scan):
    """The scan a mutant would return that also filed every last child as a dead end."""
    layers, up = matching(graph)
    last = set(up.values())
    dead = [set(ends) for ends in scan.dead_ends]
    ends = tuple([key for key in layer if key in last or key in dead[d]]
                 for d, layer in enumerate(layers[:len(dead)]))
    return replace(scan, dead_ends=ends)


@given(small_graphs.filter(lambda g: g.edge_count() > 0))
@settings(deadline=None, max_examples=40)
def test_a_scan_that_files_last_children_fails(graph):
    mutant = with_last_children(graph, scan_clique_tree(graph))
    assert "critical cells" in morse_failures(graph, mutant)


def test_a_gradient_cycle_is_found():
    # On a triangle, matching 0 -> 01, 1 -> 12 and 2 -> 02 closes the V-path
    # 0, 01, 1, 12, 2, 02, 0.
    layers = ((1, 2, 4), (3, 5, 6), (7,))
    assert has_gradient_cycle(layers, {1: 3, 2: 6, 4: 5})
    assert not has_gradient_cycle(layers, {1: 3, 2: 6, 5: 7})


@pytest.mark.parametrize("n, k, dead_ends, counts", [
    (7, 4, {0: 1, 3: 1}, (49, 77, 56, 28)),
    (9, 3, {0: 1, 1: 25, 2: 132, 3: 59, 4: 5}, None),
    (12, 4, {0: 1, 1: 39, 2: 196, 3: 77, 4: 15}, None),
])
def test_dead_ends_of_the_profile_graph(n, k, dead_ends, counts):
    # compute_profile collapses the scale graph, then orders it smallest-last.
    graph = degeneracy_order(collapse_edges(tr.vr_graph(tr.torus_space(n), k)))
    scan = scan_clique_tree(graph)
    assert {d: len(ends) for d, ends in enumerate(scan.dead_ends) if ends} == dead_ends
    if counts is not None:
        assert scan.counts == counts
