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


def _level(rows, cols, w, n: int) -> tuple:
    """One Louvain level on n nodes from pairs listed in both directions.

    Drops self-pairs (they cancel in move gains) and sums duplicate
    pairs; every weight is a sum of integer multi-edge counts, so the
    summation order changes no bit. Returns the summed (rows, cols, w)
    and each node's [(neighbour, weight), ...] in ascending neighbour order.
    """
    keep = rows != cols
    keys, inv = np.unique(rows[keep] * n + cols[keep], return_inverse=True)
    w = np.bincount(inv, weights=w[keep], minlength=keys.size)
    rows, cols = np.divmod(keys, n)
    ends = np.cumsum(np.bincount(rows, minlength=n)).tolist()
    pairs = list(zip(cols.tolist(), w.tolist()))
    return rows, cols, w, [pairs[a:b] for a, b in zip([0] + ends[:-1], ends)]


def _local_moving(nbrs: list, kout: np.ndarray, kin: np.ndarray, labels: np.ndarray,
                  resolution: float, rng: np.random.Generator, max_passes: int = 64) -> bool:
    """Greedy node moves until no move improves modularity.

    Candidates are the neighbouring communities plus the lowest empty
    one; a move happens only on a strict gain, and since candidates are
    probed in ascending community index, ties go to the lowest index.
    Returns True if anything moved.
    """
    n = kout.size
    m = float(kout.sum())
    ko_c = np.bincount(labels, weights=kout, minlength=n)
    ki_c = np.bincount(labels, weights=kin, minlength=n)
    sizes = np.bincount(labels, minlength=n)
    moved_any = False
    for _ in range(max_passes):
        moved = False
        order = rng.permutation(n)
        for v in order:
            c_old = labels[v]
            kov, kiv = kout[v], kin[v]
            # detach v and compare candidate communities from scratch
            ko_c[c_old] -= kov
            ki_c[c_old] -= kiv
            sizes[c_old] -= 1
            w_to = {}
            for u, w in nbrs[v]:
                cu = labels[u]
                w_to[cu] = w_to.get(cu, 0.0) + w
            best_c = c_old
            best_gain = (w_to.get(c_old, 0.0) / m
                         - resolution * (kov * ki_c[c_old] + kiv * ko_c[c_old]) / (m * m))
            if sizes[c_old] > 0 and best_gain < -1e-13:
                # fresh singleton: without v, n - 1 nodes leave a community empty
                best_c, best_gain = sizes.argmin(), 0.0
            for cu in sorted(w_to):
                if cu == c_old:
                    continue
                gain = (w_to[cu] / m
                        - resolution * (kov * ki_c[cu] + kiv * ko_c[cu]) / (m * m))
                if gain > best_gain + 1e-13:
                    best_gain = gain
                    best_c = cu
            if best_c != c_old:
                moved = moved_any = True
            labels[v] = best_c
            ko_c[best_c] += kov
            ki_c[best_c] += kiv
            sizes[best_c] += 1
        if not moved:
            break
    return moved_any


def _compress_labels(labels: np.ndarray) -> tuple:
    """Relabel to dense 0..B-1 in order of first appearance."""
    _, first, inv = np.unique(labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inv], first.size


def detect_communities(g: MultiGraph, seed: int, resolution: float = 1.0) -> BlockAssignment:
    """Louvain-style modularity maximization with one refinement pass.

    Local moving and graph aggregation repeat until stable; a final
    sweep re-examines every original node against the flat partition.
    Deterministic for a fixed seed. The result never scores below the
    all-singletons or single-community baselines.
    """
    if g.n_multiedges == 0:
        raise DataError("community detection needs at least one edge")
    if not (np.isfinite(resolution) and resolution > 0):
        raise DataError(f"resolution must be finite and positive, got {resolution}")
    rng = np.random.default_rng(seed)
    src, dst, wgt, kout, kin, _ = _expanded_arrays(g)
    rows, cols, w, nbrs = _level(np.concatenate([src, dst]), np.concatenate([dst, src]),
                                 np.tile(wgt, 2), g.n_nodes)
    base = nbrs, kout, kin
    flat = np.arange(g.n_nodes, dtype=np.int64)  # node -> community of original nodes
    while True:
        labels = np.arange(len(nbrs), dtype=np.int64)
        moved = _local_moving(nbrs, kout, kin, labels, resolution, rng)
        labels, n_comm = _compress_labels(labels)
        flat = labels[flat]
        if not moved or n_comm == len(nbrs):
            break
        # a community's weights and degrees are the sums over its members
        rows, cols, w, nbrs = _level(labels[rows], labels[cols], w, n_comm)
        kout, kin = (np.bincount(labels, weights=k, minlength=n_comm) for k in (kout, kin))

    # refinement: one more sweep at the original-node level
    flat, _ = _compress_labels(flat)
    _local_moving(*base, flat, resolution, rng, max_passes=1)
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
