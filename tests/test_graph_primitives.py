"""Property tests pinning the graph primitives to per-edge loop references.

Each reference below is the straightforward Python loop over
``g.counts.items()``; the library versions must agree with them exactly
(integer arithmetic) on random graphs in all three pair spaces.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from zipnets import (
    BlockAssignment,
    MultiGraph,
    block_tallies,
    degrees,
    graph_from_json,
    graph_to_json,
)
from zipnets.blocks import _expanded_arrays
from zipnets.multigraph import _pair_positions

SPACES = [(True, True), (True, False), (False, False)]  # (directed, loops)


@st.composite
def graphs_with_blocks(draw):
    directed, loops = draw(st.sampled_from(SPACES))
    n = draw(st.integers(1, 9))
    node = st.integers(0, n - 1)
    entries = draw(st.lists(st.tuples(node, node, st.integers(0, 40)), max_size=30))
    counts = {}
    for i, j, w in entries:
        if i == j and not loops:
            continue
        # for undirected graphs (i, j) and (j, i) both stay as keys and
        # are summed by the constructor
        counts[(i, j)] = counts.get((i, j), 0) + w
    g = MultiGraph([f"v{k}" for k in range(n)], counts, directed, loops)
    B = draw(st.integers(1, n))
    extra = draw(st.lists(st.integers(0, B - 1), min_size=n - B, max_size=n - B))
    labels = draw(st.permutations(list(range(B)) + extra))
    return g, BlockAssignment(labels=tuple(labels), n_blocks=B)


def ref_count_vector(g):
    vec = np.zeros(g.space.size, dtype=np.int64)
    if g.counts:
        keys = np.array(list(g.counts.keys()), dtype=np.int64)
        pos = _pair_positions(g.space, keys[:, 0], keys[:, 1])
        vec[pos] = np.fromiter(g.counts.values(), dtype=np.int64, count=len(g.counts))
    return vec


def ref_dense_matrix(g):
    n = g.n_nodes
    mat = np.zeros((n, n), dtype=np.int64)
    for (i, j), w in g.counts.items():
        mat[i, j] = w
        if not g.directed and i != j:
            mat[j, i] = w
    return mat


def ref_degrees(g):
    kout = np.zeros(g.n_nodes, dtype=np.int64)
    kin = np.zeros(g.n_nodes, dtype=np.int64)
    for (i, j), w in g.counts.items():
        if g.directed:
            kout[i] += w
            kin[j] += w
        else:
            kout[i] += w
            kout[j] += w
    if not g.directed:
        kin = kout
    return kout, kin


def ref_block_m_links(g, blocks):
    B = blocks.n_blocks
    lab = blocks.as_array()
    m = np.zeros((B, B), dtype=np.int64)
    links = np.zeros((B, B), dtype=np.int64)
    for (i, j), w in g.counts.items():
        b, d = lab[i], lab[j]
        if not g.directed and b > d:
            b, d = d, b
        m[b, d] += w
        links[b, d] += 1
    if not g.directed:
        m = m + m.T - np.diag(np.diag(m))
        links = links + links.T - np.diag(np.diag(links))
    return m, links


def ref_expanded(g):
    kout = np.zeros(g.n_nodes)
    kin = np.zeros(g.n_nodes)
    triples = []
    for (i, j), w in g.counts.items():
        triples.append((i, j, w))
        kout[i] += w
        kin[j] += w
        if not g.directed and i != j:
            triples.append((j, i, w))
            kout[j] += w
            kin[i] += w
    return sorted(triples), kout, kin, float(kout.sum())


@settings(max_examples=300, deadline=None)
@given(graphs_with_blocks())
def test_primitives_match_loop_references(case):
    g, blocks = case
    vec = g.count_vector()
    assert vec.dtype == np.int64
    assert np.array_equal(vec, ref_count_vector(g))
    assert np.array_equal(g.dense_matrix(), ref_dense_matrix(g))

    kout, kin = degrees(g)
    rout, rin = ref_degrees(g)
    assert kout.dtype == kin.dtype == np.int64
    assert np.array_equal(kout, rout) and np.array_equal(kin, rin)

    tall = block_tallies(g, blocks)
    m, links = ref_block_m_links(g, blocks)
    assert np.array_equal(tall.m, m) and np.array_equal(tall.links, links)
    assert tall.m.dtype == tall.links.dtype == np.int64
    if g.directed:
        assert np.array_equal(tall.kappa_out, m.sum(axis=1))
        assert np.array_equal(tall.kappa_in, m.sum(axis=0))
    else:
        assert np.array_equal(tall.kappa_out, m.sum(axis=1) + np.diag(m))

    obj = graph_to_json(g)
    assert obj["edges"] == sorted([int(i), int(j), int(w)] for (i, j), w in g.counts.items())
    assert all(type(x) is int for edge in obj["edges"] for x in edge)
    assert graph_from_json(obj).counts == g.counts

    src, dst, wgt, ekout, ekin, em = _expanded_arrays(g)
    triples, rkout, rkin, rm = ref_expanded(g)
    assert sorted(zip(src.tolist(), dst.tolist(), wgt.tolist())) == triples
    assert np.array_equal(ekout, rkout) and np.array_equal(ekin, rkin)
    assert em == rm
