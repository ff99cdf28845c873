"""Modularity and modularity-maximizing community detection.

Modularity compares observed multi-edge counts with the degree-product
null expectation k_out_i * k_in_j / m. Undirected graphs are evaluated
on their symmetric directed expansion (A_ij = A_ji, m -> 2m), which is
the convention that makes Q identical for a graph and its expansion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DataError
from .multigraph import BlockAssignment, MultiGraph

__all__ = ["ModularityScore", "modularity", "detect_communities"]


@dataclass(frozen=True)
class ModularityScore:
    q_value: float
    resolution: float = 1.0


def _expanded_arrays(g: MultiGraph):
    """Directed expansion: edge arrays (src, dst, w), degree vectors and m."""
    src, dst, wgt = g.edge_arrays()
    if not g.directed:  # undirected pair spaces have no self-loops
        src, dst, wgt = np.concatenate([src, dst]), np.concatenate([dst, src]), np.tile(wgt, 2)
    wgt = wgt.astype(np.float64)
    kout = np.bincount(src, weights=wgt, minlength=g.n_nodes)
    kin = np.bincount(dst, weights=wgt, minlength=g.n_nodes)
    return src, dst, wgt, kout, kin, float(kout.sum())


def modularity(g: MultiGraph, assignment: BlockAssignment, resolution: float = 1.0) -> ModularityScore:
    """Multi-edge modularity of a partition.

    Q = (1/m) sum_ij (A_ij - r * kout_i kin_j / m) delta(c_i, c_j),
    summed over ordered pairs of the (expanded) graph.
    """
    if g.n_multiedges == 0:
        raise DataError("modularity undefined for a graph without edges")
    if len(assignment.labels) != g.n_nodes:
        raise DataError("assignment length does not match the graph")
    src, dst, wgt, kout, kin, m = _expanded_arrays(g)
    lab = assignment.as_array()
    same = lab[src] == lab[dst]
    internal = float(wgt[same].sum())
    ko_c = np.bincount(lab, weights=kout, minlength=assignment.n_blocks)
    ki_c = np.bincount(lab, weights=kin, minlength=assignment.n_blocks)
    q = internal / m - resolution * float(ko_c @ ki_c) / (m * m)
    return ModularityScore(q_value=q, resolution=resolution)


class _LevelGraph:
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

    def aggregate(self, labels: np.ndarray, n_comm: int) -> "_LevelGraph":
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
        return _LevelGraph(n_comm, comb, kout, kin, self.m)


def _local_moving(lg: _LevelGraph, labels: np.ndarray, resolution: float,
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


def _compress_labels(labels: np.ndarray) -> tuple:
    """Relabel to dense 0..B-1 in order of first appearance."""
    remap = {}
    out = np.empty_like(labels)
    for k, c in enumerate(labels):
        if c not in remap:
            remap[c] = len(remap)
        out[k] = remap[c]
    return out, len(remap)


def detect_communities(g: MultiGraph, seed: int, resolution: float = 1.0) -> BlockAssignment:
    """Louvain-style modularity maximization with one refinement pass.

    Local moving and graph aggregation repeat until stable; a final
    sweep re-examines every original node against the flat partition.
    Deterministic for a fixed seed. The result never scores below the
    all-singletons or single-community baselines.
    """
    if g.n_multiedges == 0:
        raise DataError("community detection needs at least one edge")
    rng = np.random.default_rng(seed)
    base = _LevelGraph.from_multigraph(g)

    lg = base
    flat = np.arange(g.n_nodes, dtype=np.int64)  # node -> community of original nodes
    level_labels = np.arange(lg.n, dtype=np.int64)
    while True:
        moved = _local_moving(lg, level_labels, resolution, rng)
        level_labels, n_comm = _compress_labels(level_labels)
        flat = level_labels[flat]
        if not moved or n_comm == lg.n:
            break
        lg = lg.aggregate(level_labels, n_comm)
        level_labels = np.arange(n_comm, dtype=np.int64)

    # refinement: one more sweep at the original-node level
    flat, n_comm = _compress_labels(flat)
    _local_moving(base, flat, resolution, rng, max_passes=1)
    flat, n_comm = _compress_labels(flat)

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
