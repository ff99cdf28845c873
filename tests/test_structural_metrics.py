"""Property tests pinning the structural metrics to graph-search references.

The references below are the straightforward per-node searches (DFS
components, set-intersection triangle counts, one BFS per source) over
the binarized undirected projection. The library metrics must return
the same value bit for bit, or raise the same error, on random graphs
in all three pair spaces.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from zipnets import MultiGraph, avg_clustering, spectral_gap_info
from zipnets.exceptions import DataError, NumericalError
from zipnets.metrics import _symmetric_weights, avg_path_length_info
from zipnets.numerics import second_smallest_eigenvalue

SPACES = [(True, True), (True, False), (False, False)]  # (directed, loops)


def ref_components(adj_sets):
    n = len(adj_sets)
    seen = np.zeros(n, dtype=bool)
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = [start]
        while stack:
            v = stack.pop()
            for u in adj_sets[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
                    comp.append(u)
        comps.append(sorted(comp))
    return comps


def ref_adjacency_sets(w):
    return [set(np.nonzero(row)[0].tolist()) for row in w]


def ref_spectral_gap_info(g):
    w = _symmetric_weights(g)
    comps = ref_components(ref_adjacency_sets(w))
    giant = max(comps, key=len)
    if len(giant) < 2:
        raise NumericalError("giant component too small for a spectral gap")
    sub = w[np.ix_(giant, giant)]
    deg = sub.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(deg)
    lap = np.eye(len(giant)) - inv_sqrt[:, None] * sub * inv_sqrt[None, :]
    gap = second_smallest_eigenvalue(lap, symmetric_hint=True)
    return gap, len(giant) / g.n_nodes


def ref_avg_clustering(g):
    if g.n_nodes < 3:
        raise DataError("clustering needs at least 3 nodes")
    w = _symmetric_weights(g)
    nbrs = ref_adjacency_sets(w)
    total = 0.0
    for v in range(g.n_nodes):
        nb = nbrs[v]
        d = len(nb)
        if d < 2:
            continue
        links = 0
        nb_list = sorted(nb)
        for a_idx, a in enumerate(nb_list):
            links += len(nbrs[a].intersection(nb_list[a_idx + 1:]))
        total += 2.0 * links / (d * (d - 1))
    return total / g.n_nodes


def ref_avg_path_length_info(g):
    if g.n_nodes < 2:
        raise DataError("path length needs at least 2 nodes")
    if g.n_links == 0:
        raise DataError("path length undefined without edges")
    w = _symmetric_weights(g)
    nbrs = [np.nonzero(row)[0] for row in w]
    n = g.n_nodes
    total = 0
    pairs = 0
    for s in range(n):
        dist = np.full(n, -1, dtype=np.int64)
        dist[s] = 0
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for v in frontier:
                for u in nbrs[v]:
                    if dist[u] < 0:
                        dist[u] = d
                        nxt.append(u)
            frontier = nxt
        reach = dist > 0
        total += int(dist[reach].sum())
        pairs += int(np.count_nonzero(reach))
    mean = total / pairs if pairs else float("nan")
    coverage = (pairs // 2) / (n * (n - 1) // 2)
    return mean, coverage


PAIRS = [(spectral_gap_info, ref_spectral_gap_info),
         (avg_clustering, ref_avg_clustering),
         (avg_path_length_info, ref_avg_path_length_info)]


def outcome(fn, g):
    """repr of the result (pins type and every bit, nan included) or the
    error's type and message."""
    try:
        return "ok", repr(fn(g))
    except (DataError, NumericalError) as exc:
        return type(exc), str(exc)


def assert_pinned(g):
    for fn, ref in PAIRS:
        assert outcome(fn, g) == outcome(ref, g), fn.__name__


def build(n, entries, directed, loops):
    counts = {}
    for i, j, w in entries:
        if i == j and not loops:
            continue
        counts[(i, j)] = counts.get((i, j), 0) + w
    return MultiGraph([f"v{k}" for k in range(n)], counts, directed, loops)


@st.composite
def random_graphs(draw):
    """Sparse to dense graphs: isolated nodes, several components, one-way
    directed edges and (directed with loops) self-loops all occur."""
    directed, loops = draw(st.sampled_from(SPACES))
    n = draw(st.integers(1, 14))
    node = st.integers(0, n - 1)
    entries = draw(st.lists(st.tuples(node, node, st.integers(1, 9)), max_size=3 * n))
    return build(n, entries, directed, loops)


@st.composite
def tied_giants(draw):
    """Two components of equal, largest size at random node positions,
    plus isolated nodes and smaller components."""
    directed, loops = draw(st.sampled_from(SPACES))
    k = draw(st.integers(2, 6))
    n = draw(st.integers(2 * k, 2 * k + 5))
    order = draw(st.permutations(range(n)))
    entries = []
    for comp in (order[:k], order[k:2 * k]):
        # a spanning path keeps the component connected; chords vary its shape
        for a, b in zip(comp, comp[1:]):
            entries.append((a, b, draw(st.integers(1, 5))) if draw(st.booleans())
                           else (b, a, draw(st.integers(1, 5))))
        chords = draw(st.lists(st.tuples(st.sampled_from(comp), st.sampled_from(comp),
                                         st.integers(1, 5)), max_size=k))
        entries.extend(chords)
    rest = order[2 * k:]
    if len(rest) >= 2 and draw(st.booleans()):
        entries.append((rest[0], rest[1], 1))
    return build(n, entries, directed, loops)


@settings(max_examples=300, deadline=None)
@given(random_graphs())
def test_metrics_equal_references(g):
    assert_pinned(g)


@settings(max_examples=150, deadline=None)
@given(tied_giants())
def test_giant_component_tie_break(g):
    assert_pinned(g)


def test_hand_built_cases():
    cases = [
        # isolated node plus a triangle
        build(4, [(1, 2, 1), (2, 3, 2), (1, 3, 1)], False, False),
        # two equal components, node 0's listed last
        build(6, [(3, 4, 1), (4, 5, 1), (0, 1, 1), (1, 2, 3)], False, False),
        # one-way directed edges only
        build(5, [(0, 1, 2), (2, 1, 1), (3, 2, 4), (4, 0, 1)], True, False),
        # self-loops only: no link of the projection
        build(3, [(0, 0, 2), (1, 1, 1)], True, True),
        # self-loops beside a path
        build(4, [(0, 0, 5), (0, 1, 1), (1, 2, 1), (2, 2, 3)], True, True),
    ]
    for g in cases:
        assert_pinned(g)
