import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from zipnets import (
    BlockAssignment,
    DataError,
    MultiGraph,
    degrees,
    detect_communities,
    fit_poisson,
    fit_zi_clcm,
    modularity,
)
from zipnets.blocks import _expanded_arrays
from conftest import planted_zi_graph, random_blocks


def _clique_pair(sizes=(5, 5), weight=1):
    pairs = {}
    offset = 0
    for size in sizes:
        for i in range(offset, offset + size):
            for j in range(i + 1, offset + size):
                pairs[(i, j)] = weight
        offset += size
    n = sum(sizes)
    return MultiGraph([f"v{k}" for k in range(n)], pairs, directed=False, loops=False)


def _direct_modularity(g, labels):
    """Oracle: literal double sum over the expanded ordered pairs."""
    n = g.n_nodes
    A = g.dense_matrix().astype(float)
    if not g.directed:
        m = 2.0 * g.n_multiedges
    else:
        m = float(g.n_multiedges)
    kout = A.sum(axis=1)
    kin = A.sum(axis=0)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if labels[i] == labels[j]:
                total += A[i, j] - kout[i] * kin[j] / m
    return total / m


class TestModularity:
    def test_two_dyads(self):
        g = MultiGraph(list("abcd"), {(0, 1): 1, (2, 3): 1}, directed=False, loops=False)
        part = BlockAssignment(labels=(0, 0, 1, 1), n_blocks=2)
        assert _direct_modularity(g, part.labels) == pytest.approx(0.5)
        assert modularity(g, part).q_value == pytest.approx(0.5)

    def test_all_singletons(self):
        g = planted_zi_graph(0, 8, directed=True, loops=False, q=0.6, rate=3.0)
        part = BlockAssignment(labels=tuple(range(8)), n_blocks=8)
        kout, kin = degrees(g)
        m = g.n_multiedges
        expected = -float((kout * kin).sum()) / m ** 2
        assert modularity(g, part).q_value == pytest.approx(expected, rel=1e-12)

    def test_single_community(self):
        g = planted_zi_graph(1, 8, directed=True, loops=False, q=0.6, rate=3.0)
        part = BlockAssignment(labels=(0,) * 8, n_blocks=1)
        kout, kin = degrees(g)
        m = g.n_multiedges
        expected = 1.0 - float(kout.sum() * kin.sum()) / m ** 2
        assert modularity(g, part).q_value == pytest.approx(expected, rel=1e-12)

    def test_matches_direct_sum_on_random_graphs(self):
        for seed in range(5):
            g = planted_zi_graph(seed, 12, directed=bool(seed % 2), loops=False,
                                 q=0.5, rate=3.0)
            part = random_blocks(seed + 50, 12, 3)
            assert modularity(g, part).q_value == pytest.approx(
                _direct_modularity(g, part.labels), rel=1e-12)

    def test_empty_graph_rejected(self):
        g = MultiGraph(["a", "b"], {}, directed=False, loops=False)
        with pytest.raises(DataError):
            modularity(g, BlockAssignment(labels=(0, 0), n_blocks=1))


class TestNullTermEquivalence:
    def test_plain_and_zi_clcm_share_the_null_matrix(self):
        # the modularity null term k_out k_in / m equals the expected-count
        # matrix of both the plain and the zero-inflated configuration fit
        for seed in range(10):
            g = planted_zi_graph(seed, 12, directed=True, loops=True, q=0.5, rate=4.0)
            kout, kin = degrees(g)
            m = g.n_multiedges
            null = np.outer(kout, kin) / m
            plain = fit_poisson("clcm", g)
            zi = fit_zi_clcm(g)
            rate_plain = np.outer(plain.theta_out, plain.theta_in)
            rate_zi = zi.q_global * np.outer(zi.theta_out, zi.theta_in)
            assert np.allclose(rate_plain, null, rtol=1e-12, atol=1e-12)
            assert np.allclose(rate_zi, null, rtol=1e-12, atol=1e-12)

    def test_undirected_zi_equals_plain(self):
        for seed in range(5):
            g = planted_zi_graph(seed + 30, 14, q=0.5, rate=4.0)
            plain = fit_poisson("clcm", g)
            zi = fit_zi_clcm(g)
            rate_plain = np.outer(plain.theta_out, plain.theta_out)
            rate_zi = zi.q_global * np.outer(zi.theta_out, zi.theta_out)
            assert np.allclose(rate_zi, rate_plain, rtol=1e-12, atol=1e-12)


class TestDetectCommunities:
    def test_two_cliques(self):
        g = _clique_pair((5, 5))
        found = detect_communities(g, seed=1)
        assert found.n_blocks == 2
        lab = found.as_array()
        assert len(set(lab[:5])) == 1 and len(set(lab[5:])) == 1
        assert lab[0] != lab[5]

    def test_single_edge(self):
        g = MultiGraph(["a", "b"], {(0, 1): 1}, directed=False, loops=False)
        found = detect_communities(g, seed=0)
        assert found.n_blocks == 1

    def test_determinism(self):
        g = planted_zi_graph(3, 30, q=0.3, rate=4.0)
        a = detect_communities(g, seed=42)
        b = detect_communities(g, seed=42)
        assert a.labels == b.labels

    def test_beats_baselines(self):
        for seed in range(5):
            g = planted_zi_graph(seed + 10, 20, q=0.4, rate=3.0)
            found = detect_communities(g, seed=seed)
            q_found = modularity(g, found).q_value
            q_single = modularity(g, BlockAssignment(labels=(0,) * 20, n_blocks=1)).q_value
            q_sing = modularity(g, BlockAssignment(labels=tuple(range(20)),
                                                   n_blocks=20)).q_value
            assert q_found >= q_single - 1e-12
            assert q_found >= q_sing - 1e-12
            assert min(np.bincount(found.as_array())) >= 1

    def test_label_isomorphism_under_permutation(self):
        g = _clique_pair((6, 4), weight=3)
        base = detect_communities(g, seed=5)
        perm = np.array([3, 9, 0, 7, 5, 1, 8, 2, 6, 4])
        remapped = {}
        for (i, j), w in g.counts.items():
            a, b = int(perm[i]), int(perm[j])
            remapped[(min(a, b), max(a, b))] = w
        g2 = MultiGraph([f"w{k}" for k in range(10)], remapped, directed=False, loops=False)
        found = detect_communities(g2, seed=5)
        base_lab = base.as_array()
        found_lab = found.as_array()
        # partition must be identical up to relabeling
        groups_base = {}
        for node in range(10):
            groups_base.setdefault(base_lab[node], set()).add(int(perm[node]))
        groups_found = {}
        for node in range(10):
            groups_found.setdefault(found_lab[node], set()).add(node)
        assert set(map(frozenset, groups_base.values())) == \
            set(map(frozenset, groups_found.values()))

    def test_empty_graph_rejected(self):
        g = MultiGraph(["a", "b"], {}, directed=False, loops=False)
        with pytest.raises(DataError):
            detect_communities(g, seed=0)

    def test_resolution_parameter(self):
        g = _clique_pair((5, 5))
        low = detect_communities(g, seed=2, resolution=0.05)
        assert low.n_blocks <= 2
        high = detect_communities(g, seed=2, resolution=4.0)
        assert high.n_blocks >= 2

    @pytest.mark.parametrize("resolution", [0.0, -1.0, float("nan"), float("inf")])
    def test_resolution_must_be_finite_and_positive(self, resolution):
        with pytest.raises(DataError, match="resolution"):
            detect_communities(_clique_pair((5, 5)), seed=0, resolution=resolution)


# -- reference: the dict-of-dicts Louvain that the array level builder
# replaced, kept verbatim (names prefixed) to pin the partitions --------------


class _RefLevelGraph:
    """Working graph for one Louvain level: combined-weight adjacency."""

    def __init__(self, n, comb, kout, kin, m):
        self.n = n
        self.comb = comb          # list of dicts u -> w_vu + w_uv (u != v)
        self.kout = kout
        self.kin = kin
        self.m = m

    @classmethod
    def from_multigraph(cls, g: MultiGraph):
        # comb[v][u] = w_vu + w_uv: the expansion lists each direction once,
        # and every listing contributes to both endpoints' rows
        src, dst, wgt, kout, kin, m = _expanded_arrays(g)
        comb = [dict() for _ in range(g.n_nodes)]
        for a, b, w in zip(src, dst, wgt):
            if a == b:
                continue  # self-loops cancel in move gains
            comb[a][b] = comb[a].get(b, 0.0) + w
            comb[b][a] = comb[b].get(a, 0.0) + w
        return cls(g.n_nodes, comb, kout, kin, m)

    def aggregate(self, labels: np.ndarray, n_comm: int) -> "_RefLevelGraph":
        kout = np.bincount(labels, weights=self.kout, minlength=n_comm)
        kin = np.bincount(labels, weights=self.kin, minlength=n_comm)
        # summing symmetric rows over members preserves the comb convention
        comb = [dict() for _ in range(n_comm)]
        for v in range(self.n):
            cv = labels[v]
            row = comb[cv]
            for u, w in self.comb[v].items():
                cu = labels[u]
                if cu == cv:
                    continue
                row[cu] = row.get(cu, 0.0) + w
        return _RefLevelGraph(n_comm, comb, kout, kin, self.m)


def _ref_local_moving(lg: _RefLevelGraph, labels: np.ndarray, resolution: float,
                      rng: np.random.Generator, max_passes: int = 64) -> bool:
    """Greedy node moves until no move improves modularity.

    Candidates are the neighbouring communities plus an empty one; a
    move happens only on a strict gain, and since candidates are probed
    in ascending community index, ties go to the lowest index. Returns
    True if anything moved.
    """
    m = lg.m
    n = lg.n
    ko_c = np.bincount(labels, weights=lg.kout, minlength=n).astype(np.float64)
    ki_c = np.bincount(labels, weights=lg.kin, minlength=n).astype(np.float64)
    sizes = np.bincount(labels, minlength=n)
    free = sorted((c for c in range(n) if sizes[c] == 0), reverse=True)
    moved_any = False
    for _ in range(max_passes):
        moved = False
        order = rng.permutation(n)
        for v in order:
            c_old = labels[v]
            kov, kiv = lg.kout[v], lg.kin[v]
            # detach v and compare candidate communities from scratch
            ko_c[c_old] -= kov
            ki_c[c_old] -= kiv
            sizes[c_old] -= 1
            w_to = {}
            for u, w in lg.comb[v].items():
                cu = labels[u]
                w_to[cu] = w_to.get(cu, 0.0) + w
            best_c = c_old
            best_gain = (w_to.get(c_old, 0.0) / m
                         - resolution * (kov * ki_c[c_old] + kiv * ko_c[c_old]) / (m * m))
            if free and sizes[c_old] > 0 and best_gain < -1e-13:
                best_c, best_gain = free[-1], 0.0  # fresh singleton community
            for cu in sorted(w_to):
                if cu == c_old:
                    continue
                gain = (w_to[cu] / m
                        - resolution * (kov * ki_c[cu] + kiv * ko_c[cu]) / (m * m))
                if gain > best_gain + 1e-13:
                    best_gain = gain
                    best_c = cu
            if best_c != c_old:
                moved = True
                moved_any = True
                if sizes[best_c] == 0 and free and best_c == free[-1]:
                    free.pop()
                if sizes[c_old] == 0:
                    free.append(c_old)
                    free.sort(reverse=True)
            labels[v] = best_c
            ko_c[best_c] += kov
            ki_c[best_c] += kiv
            sizes[best_c] += 1
        if not moved:
            break
    return moved_any


def _ref_compress_labels(labels: np.ndarray) -> tuple:
    """Relabel to dense 0..B-1 in order of first appearance."""
    remap = {}
    out = np.empty_like(labels)
    for k, c in enumerate(labels):
        if c not in remap:
            remap[c] = len(remap)
        out[k] = remap[c]
    return out, len(remap)


def _reference_detect(g, seed, resolution=1.0):
    """The body of ``detect_communities`` after its input checks."""
    rng = np.random.default_rng(seed)
    base = _RefLevelGraph.from_multigraph(g)

    lg = base
    flat = np.arange(g.n_nodes, dtype=np.int64)  # node -> community of original nodes
    level_labels = np.arange(lg.n, dtype=np.int64)
    while True:
        moved = _ref_local_moving(lg, level_labels, resolution, rng)
        level_labels, n_comm = _ref_compress_labels(level_labels)
        flat = level_labels[flat]
        if not moved or n_comm == lg.n:
            break
        lg = lg.aggregate(level_labels, n_comm)
        level_labels = np.arange(n_comm, dtype=np.int64)

    # refinement: one more sweep at the original-node level
    flat, n_comm = _ref_compress_labels(flat)
    _ref_local_moving(base, flat, resolution, rng, max_passes=1)
    flat, n_comm = _ref_compress_labels(flat)

    candidate = BlockAssignment(labels=tuple(int(x) for x in flat), n_blocks=n_comm)
    q_cand = modularity(g, candidate, resolution).q_value
    singletons = BlockAssignment(labels=tuple(range(g.n_nodes)), n_blocks=g.n_nodes)
    single = BlockAssignment(labels=(0,) * g.n_nodes, n_blocks=1)
    q_singletons = modularity(g, singletons, resolution).q_value
    q_single = modularity(g, single, resolution).q_value
    best = candidate
    if q_singletons > q_cand + 1e-12 and q_singletons >= q_single:
        best = singletons
    elif q_single > q_cand + 1e-12:
        best = single
    return best


class TestReferencePartitions:
    @pytest.mark.parametrize("directed,loops", [(False, False), (True, False), (True, True)])
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(3, 30), graph_seed=st.integers(0, 2**32 - 1),
           detect_seed=st.integers(0, 2**32 - 1), resolution=st.sampled_from([0.5, 1.0, 2.0]))
    def test_matches_the_dict_of_dicts_louvain(self, directed, loops, n, graph_seed,
                                               detect_seed, resolution):
        g = planted_zi_graph(graph_seed, n, directed=directed, loops=loops)
        assume(g.n_multiedges > 0)
        found = detect_communities(g, seed=detect_seed, resolution=resolution)
        ref = _reference_detect(g, detect_seed, resolution)
        assert (found.labels, found.n_blocks) == (ref.labels, ref.n_blocks)
