"""Shared generators and dataset discovery for the test suite."""

import functools
import os
from pathlib import Path

import numpy as np
import pytest

from zipnets import MultiGraph, BlockAssignment, PairSpace, sample
from zipnets.models import FittedModel, ModelFamily
from zipnets.datasets import default_cache_dir, default_registry


def planted_zi_graph(seed, n, directed=False, loops=False, q=0.5, rate=4.0,
                     blocks=None, q_matrix=None, theta=None, node_q=None):
    """Sample a multigraph from a planted zero-inflated Poisson model.

    ``rate`` scales the Poisson mean of active pairs; heterogeneity
    comes from optional per-node propensities ``theta`` and a per-block
    mixture matrix ``q_matrix`` or per-node mixture ``node_q``.
    """
    rng = np.random.default_rng(seed)
    if theta is None:
        theta = rng.uniform(0.6, 1.6, size=n)
    theta = np.asarray(theta, dtype=np.float64)
    lab = np.zeros(n, dtype=np.int64) if blocks is None else np.asarray(blocks, dtype=np.int64)

    if directed:
        ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        ii, jj = ii.ravel(), jj.ravel()
        if not loops:
            keep = ii != jj
            ii, jj = ii[keep], jj[keep]
    else:
        ii, jj = np.triu_indices(n, k=1)

    lam = rate * theta[ii] * theta[jj] / np.mean(theta) ** 2
    if q_matrix is not None:
        qm = np.asarray(q_matrix, dtype=np.float64)
        qv = qm[lab[ii], lab[jj]]
    else:
        qv = np.full(len(ii), q)
    if node_q is not None:
        nq = np.asarray(node_q, dtype=np.float64)
        qv = qv * nq[ii] * nq[jj]
    active = rng.random(len(ii)) < qv
    counts = np.zeros(len(ii), dtype=np.int64)
    counts[active] = rng.poisson(lam[active])
    nz = counts > 0
    pairs = {(int(a), int(b)): int(w) for a, b, w in zip(ii[nz], jj[nz], counts[nz])}
    return MultiGraph([f"v{k}" for k in range(n)], pairs, directed=directed, loops=loops)


@functools.lru_cache(maxsize=None)
def zi_block_surrogate(kind):
    """Sparse heavy-tailed test graphs shaped like the two benchmark
    regimes: a small dense-ish one (47 nodes) and a larger sparse one
    (120 nodes). Both are draws from a planted zero-inflated block
    model, so the zero-inflated fit is well-specified and the plain fit
    is not."""
    if kind == "small":
        seed, n, b, rate, sigma, q_in, q_out = 101, 47, 3, 60.0, 1.3, 0.75, 0.25
    else:
        seed, n, b, rate, sigma, q_in, q_out = 7, 120, 5, 30.0, 1.1, 0.35, 0.05
    rng = np.random.default_rng(seed)
    sizes = [n // b] * b
    for k in range(n - sum(sizes)):
        sizes[k] += 1
    labels = np.repeat(np.arange(b), sizes)
    blocks = BlockAssignment(labels=tuple(int(x) for x in labels), n_blocks=b)
    theta = rng.lognormal(0.0, sigma, size=n)
    for c in range(b):
        sel = labels == c
        theta[sel] /= theta[sel].sum()
    nb = np.bincount(labels)
    lam = rate * np.outer(nb, nb).astype(float)
    lam[np.eye(b, dtype=bool)] *= 2.0
    qmat = np.full((b, b), q_out)
    np.fill_diagonal(qmat, q_in)
    truth = FittedModel(ModelFamily.ZI_DCSBM, PairSpace(n, False, False),
                        blocks=blocks, theta_out=theta, theta_in=theta,
                        lambda_blocks=lam, q_blocks=qmat)
    return sample(truth, seed)



def random_blocks(seed, n, b):
    """A random assignment with every block non-empty."""
    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.arange(b), rng.integers(0, b, size=n - b)])
    rng.shuffle(labels)
    return BlockAssignment(labels=tuple(int(x) for x in labels), n_blocks=b)


def graph_from_matrix(mat, directed, loops):
    mat = np.asarray(mat)
    n = mat.shape[0]
    pairs = {}
    for i in range(n):
        for j in range(n):
            if mat[i, j] == 0:
                continue
            if not directed and j < i:
                continue
            pairs[(i, j)] = int(mat[i, j])
    return MultiGraph([f"v{k}" for k in range(n)], pairs, directed=directed, loops=loops)


# -- optional real datasets ---------------------------------------------------

_TABLE1 = {
    # name: (N, M, m, d, rho, kurtosis)
    "HS13": (327, 5818, 188508, 0.11, 3.54, 1244.05),
    "SFHH": (403, 9565, 70261, 0.12, 0.87, 4109.62),
    "HS12": (180, 2220, 45047, 0.14, 2.80, 712.33),
    "WP": (92, 755, 9827, 0.18, 2.35, 880.08),
    "WP15": (217, 4274, 78249, 0.18, 3.34, 695.74),
    "HS11": (126, 1709, 28561, 0.22, 3.63, 725.30),
    "Thiers11": (126, 1709, 28561, 0.22, 3.63, 725.30),
    "LyonSchool": (242, 8317, 125773, 0.29, 4.31, 237.41),
    "HT09": (113, 2196, 20818, 0.35, 3.29, 1771.89),
    "HO": (75, 1139, 32424, 0.41, 11.68, 152.0),
    "KH": (47, 504, 32643, 0.47, 30.20, 38.38),
    "BB": (13, 78, 63095, 1.00, 808.91, 10.62),
}


def table1_reference():
    return dict(_TABLE1)


def find_dataset_file(name):
    """Path of a cached dataset file, or None when unavailable."""
    candidates = []
    env_dir = os.environ.get("ZIPNETS_DATA_DIR")
    if env_dir:
        candidates.append(Path(env_dir))
    candidates.append(default_cache_dir())
    registry = default_registry()
    fname = registry[name].filename() if name in registry else None
    for base in candidates:
        if not base.is_dir():
            continue
        if fname and (base / fname).exists():
            return base / fname
        hits = sorted(base.glob(f"{name}__*")) + sorted(base.glob(f"{name}.*"))
        if hits:
            return hits[0]
    return None


def require_dataset(name):
    path = find_dataset_file(name)
    if path is None:
        pytest.skip(f"dataset {name} not present in the local cache")
    return path
