"""Empirical-versus-model comparison metrics.

Edge-count histograms and their cumulative error, the chi-squared
goodness-of-fit statistic, structural metrics of realizations (spectral
gap, clustering, path length, count kurtosis) and Monte Carlo capture
reports with significance tests between model ensembles.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import special

from .exceptions import DataError, NumericalError
from .multigraph import MultiGraph, _graph_kurtosis
from .numerics import TTestResult, second_smallest_eigenvalue, welch_t_test
from . import models as _models

__all__ = [
    "CountHistogram",
    "CaptureReport",
    "bin_lowers",
    "edge_count_histogram",
    "model_count_histogram",
    "cumulative_error",
    "chi_squared_from_binned",
    "chi_squared_gof",
    "spectral_gap",
    "spectral_gap_info",
    "avg_clustering",
    "avg_path_length",
    "avg_path_length_info",
    "saturation_curve",
    "ensemble_capture",
    "write_histogram_csv",
]

METRIC_FUNCTIONS = {}


@dataclass(frozen=True)
class CountHistogram:
    """Binned edge-count distribution over the pair space.

    Bin k covers [lowers[k], lowers[k+1]); the final bin is open-ended.
    The first bin is always exactly {0}.
    """

    lowers: np.ndarray
    mass: np.ndarray
    source: str = "empirical"

    def __post_init__(self):
        lowers = np.asarray(self.lowers, dtype=np.int64)
        mass = np.asarray(self.mass, dtype=np.float64)
        object.__setattr__(self, "lowers", lowers)
        object.__setattr__(self, "mass", mass)
        if lowers.size < 2 or lowers[0] != 0 or lowers[1] != 1:
            raise DataError("histogram must start with the {0} bin")
        if np.any(np.diff(lowers) <= 0):
            raise DataError("bin boundaries must be strictly increasing")
        if lowers.size != mass.size:
            raise DataError("boundaries and masses disagree in length")
        if np.any(mass < -1e-12) or abs(mass.sum() - 1.0) > 1e-9:
            raise DataError("masses must be non-negative and sum to 1")

    def n_bins(self) -> int:
        return len(self.lowers)

    def bin_ranges(self) -> list:
        """Inclusive (lo, hi) per bin, hi = None for the open tail."""
        out = []
        for k, lo in enumerate(self.lowers):
            hi = int(self.lowers[k + 1]) - 1 if k + 1 < len(self.lowers) else None
            out.append((int(lo), hi))
        return out


@dataclass(frozen=True)
class CaptureReport:
    """How much of an empirical metric a model ensemble reproduces."""

    metric_name: str
    empirical_value: float
    model_mean: float
    model_sd: float
    n_realizations: int
    capture_pct: float
    t_test: Optional[TTestResult] = None


def bin_lowers(max_count: int, policy: str = "geometric") -> np.ndarray:
    """Bin boundaries for counts up to ``max_count`` plus an open tail.

    "geometric": the {0} bin, unit bins through 9, then doubling bins.
    "unit": one bin per count value.
    """
    if max_count < 1:
        max_count = 1
    if policy == "unit":
        lowers = list(range(max_count + 2))
    elif policy == "geometric":
        lowers = list(range(min(10, max_count + 1)))
        edge = 10
        while edge <= max_count:
            lowers.append(edge)
            edge *= 2
        lowers.append(edge)  # tail start
    else:
        raise DataError(f"unknown binning policy {policy!r}")
    return np.asarray(lowers, dtype=np.int64)


def edge_count_histogram(g: MultiGraph, policy: str = "geometric",
                         lowers: Optional[np.ndarray] = None) -> CountHistogram:
    """Fraction of pairs per count bin, zeros included."""
    counts = g.count_vector()
    if lowers is None:
        lowers = bin_lowers(int(counts.max(initial=0)), policy)
    idx = np.searchsorted(lowers, counts, side="right") - 1
    mass = np.bincount(idx, minlength=len(lowers)).astype(np.float64) / counts.size
    return CountHistogram(lowers=lowers, mass=mass, source="empirical")


def _model_cdf_at(model, x: np.ndarray) -> np.ndarray:
    """Mean over pairs of P(A_ij <= x_k) for each boundary x_k: a pmf recursion
    while the boundaries run 0, 1, ..., 9 (no further: exp(-lambda) underflows
    past 745), then ``pdtr`` on the pairs whose CDF is still below 1."""
    q, lam = _models._pair_arrays(model)
    out = np.zeros(len(x))
    cdf = np.zeros(lam.size)
    pmf = np.exp(-lam)
    step = 0  # next count the recursion adds; -1 once a boundary skips one
    for k, xv in enumerate(x):
        if xv < 0:
            continue
        if xv == step and step < 10:
            if step:
                pmf *= lam / step
            cdf += pmf
            step += 1
        else:
            live = cdf < 1.0
            cdf[live] = special.pdtr(float(xv), lam[live])
            step = -1
        out[k] = float(np.mean((1.0 - q) + q * cdf))
    return out


def model_count_histogram(model, lowers: np.ndarray) -> CountHistogram:
    """Expected bin masses under a fitted model for given boundaries."""
    lowers = np.asarray(lowers, dtype=np.int64)
    cdf = _model_cdf_at(model, lowers - 1)  # P(A < lower)
    mass = np.empty(len(lowers))
    mass[:-1] = np.diff(cdf)
    mass[-1] = 1.0 - cdf[-1]
    mass = np.clip(mass, 0.0, None)
    return CountHistogram(lowers=lowers, mass=mass, source="model-expected")


def cumulative_error(empirical: CountHistogram, model: CountHistogram) -> np.ndarray:
    """CE(k) = sum over bins <= k of |f_emp - f_model|; the final value
    is twice the total-variation distance."""
    if not np.array_equal(empirical.lowers, model.lowers):
        raise DataError("histograms use different bin boundaries")
    return np.cumsum(np.abs(empirical.mass - model.mass))


def chi_squared_from_binned(observed, expected, min_expected: float = 5.0) -> tuple:
    """Chi-squared statistic for aligned binned counts.

    Adjacent bins are greedily merged (small bins absorb into the group
    above them) until every expected count reaches ``min_expected``; a
    short remainder merges back. Returns (statistic, bins_used).
    """
    merged_o, merged_e = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            merged_o.append(acc_o)
            merged_e.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0.0 or acc_o > 0.0:
        if merged_e:
            merged_o[-1] += acc_o
            merged_e[-1] += acc_e
        else:
            merged_o.append(acc_o)
            merged_e.append(acc_e)
    if len(merged_e) < 2:
        raise DataError("fewer than 2 bins left after merging; data too concentrated")
    merged_o = np.asarray(merged_o)
    merged_e = np.asarray(merged_e)
    stat = float(np.sum((merged_o - merged_e) ** 2 / merged_e))
    return stat, len(merged_e)


def chi_squared_gof(g: MultiGraph, model, policy: str = "geometric") -> tuple:
    """Chi-squared statistic of observed pair counts against the model.

    Bins follow the requested policy and are merged so that every
    expected count is at least 5. Returns (statistic, bins_used).
    """
    _models._check_same_space(model, g)
    counts = g.count_vector()
    lowers = bin_lowers(int(counts.max(initial=0)), policy)
    emp = edge_count_histogram(g, lowers=lowers)
    mod = model_count_histogram(model, lowers)
    P = counts.size
    return chi_squared_from_binned(emp.mass * P, mod.mass * P)


# -- structural metrics -------------------------------------------------------


def _symmetric_weights(g: MultiGraph) -> np.ndarray:
    w = g.dense_matrix().astype(np.float64)
    if g.directed:
        w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 0.0)
    return w


def _hop_distances(adj: np.ndarray) -> np.ndarray:
    """Hop counts between all node pairs of a symmetric 0/1 adjacency,
    -1 where unreachable: a BFS from every source at once, one matrix
    product per level from level 2 on, until every pair is reached or a
    level reaches none."""
    a = adj.astype(np.float64)
    dist = np.where(a > 0, 1, -1)
    np.fill_diagonal(dist, 0)
    frontier, d = a, 1
    while frontier.any() and (dist < 0).any():
        d += 1
        nxt = (frontier @ a > 0) & (dist < 0)
        dist[nxt] = d
        frontier = nxt.astype(np.float64)
    return dist


def _structure(g: MultiGraph, hops: bool = True) -> tuple:
    """Read-only (0/1 adjacency of the symmetric weights, its hop distances),
    each built on first use and kept with the immutable graph for its whole
    lifetime (16 N^2 bytes); without ``hops`` the distances stay None."""
    s = g._derived
    if "adjacency" not in s:
        rows, cols, _ = g.edge_arrays()
        s["adjacency"] = a = np.zeros((g.n_nodes, g.n_nodes))
        a[rows, cols] = a[cols, rows] = rows != cols
    if hops and "hops" not in s:
        s["hops"] = _hop_distances(s["adjacency"])
    for arr in s.values():
        arr.flags.writeable = False
    return s["adjacency"], s.get("hops")


def spectral_gap_info(g: MultiGraph) -> tuple:
    """(gap, coverage): second-smallest random-walk Laplacian eigenvalue
    of the weighted giant component, and the fraction of nodes covered.
    Of equal largest components the one with the lowest node is taken.
    The adjacency and hop distances stay cached on ``g`` (see _structure)."""
    reach = _structure(g)[1] >= 0
    giant = np.nonzero(reach[np.argmax(reach.sum(axis=1))])[0]
    if len(giant) < 2:
        raise NumericalError("giant component too small for a spectral gap")
    sub = _symmetric_weights(g)[np.ix_(giant, giant)]
    deg = sub.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(deg)
    lap = np.eye(len(giant)) - inv_sqrt[:, None] * sub * inv_sqrt[None, :]
    gap = second_smallest_eigenvalue(lap, symmetric_hint=True)
    return gap, len(giant) / g.n_nodes


def spectral_gap(g: MultiGraph) -> float:
    return spectral_gap_info(g)[0]


def avg_clustering(g: MultiGraph) -> float:
    """Mean local clustering coefficient of the binarized undirected
    projection; nodes with degree < 2 contribute 0. The adjacency stays
    cached on ``g`` (see _structure)."""
    if g.n_nodes < 3:
        raise DataError("clustering needs at least 3 nodes")
    a = _structure(g, hops=False)[0]
    # 0/1 products summing at most N terms: exact in float64
    deg = a.sum(axis=1).astype(np.int64).tolist()
    links = (((a @ a) * a).sum(axis=1) / 2).astype(np.int64).tolist()
    total = 0.0
    # accumulated in node order, as np.sum's pairwise order would move the last bit
    for d, t in zip(deg, links):
        if d >= 2:
            total += 2.0 * t / (d * (d - 1))
    return total / g.n_nodes


def avg_path_length_info(g: MultiGraph) -> tuple:
    """(mean shortest path over connected pairs, coverage fraction). The
    adjacency and hop distances stay cached on ``g`` (see _structure)."""
    if g.n_nodes < 2:
        raise DataError("path length needs at least 2 nodes")
    if g.n_links == 0:
        raise DataError("path length undefined without edges")
    dist = _structure(g)[1]
    n = g.n_nodes
    reach = dist[dist > 0]
    total = int(reach.sum())
    pairs = reach.size
    # every unordered pair is counted once from each endpoint
    mean = total / pairs if pairs else float("nan")
    coverage = (pairs // 2) / (n * (n - 1) // 2)
    return mean, coverage


def avg_path_length(g: MultiGraph) -> float:
    return avg_path_length_info(g)[0]


METRIC_FUNCTIONS.update({
    "spectral_gap": spectral_gap,
    "avg_clustering": avg_clustering,
    "avg_path_length": avg_path_length,
    "excess_kurtosis": _graph_kurtosis,
})


def saturation_curve(series, n_pairs: int) -> list:
    """(m, empirical density, plain-Poisson predicted density) triples.

    The prediction is 1 - exp(-m/P): the saturating link fraction of a
    constant-rate Poisson model matched to m.
    """
    if n_pairs <= 0:
        raise DataError("pair count must be positive")
    out = []
    for entry in series:
        m, M = entry[0], entry[1]
        out.append((m, M / n_pairs, float(-np.expm1(-m / n_pairs))))
    return out


def ensemble_capture(model_a, g: MultiGraph, metric, n: int, seed: int,
                     model_b=None):
    """Monte Carlo capture reports for one or two models.

    Samples ``n`` realizations per model, evaluates the metric on each,
    and reports the ensemble mean, sd and the captured percentage of
    the empirical value. With two models a Welch test compares their
    ensembles. Realizations where the metric fails are skipped; more
    than 20% skipped is an error.

    ``metric`` is a name of ``METRIC_FUNCTIONS`` or a sequence of names.
    A name returns ``(report_a, report_b)`` (``report_b`` None without
    ``model_b``). A sequence returns ``{name: (report_a, report_b)}``:
    each realization is drawn once and scored on every metric, and the
    reports and errors are those of one call per name with the same
    seed, in order (a metric, then model a, then model b).
    """
    if n < 2:
        raise DataError("need at least 2 realizations")
    names = [metric] if isinstance(metric, str) else list(metric)
    if not names:
        raise DataError("no metric given")
    fns, empirical = {}, {}
    pending = None  # error of the first metric that fails on g, raised after those before it
    for name in names:
        try:
            if name not in METRIC_FUNCTIONS:
                raise DataError(f"unknown metric {name!r}")
            fn = METRIC_FUNCTIONS[name]
            empirical[name] = fn(g)
        except (NumericalError, DataError) as exc:
            pending = exc
            break
        fns[name] = fn
    if not fns:
        raise pending
    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, 2 ** 62, size=(2, n))
    models = [model_a] if model_b is None else [model_a, model_b]
    values = {name: [[] for _ in models] for name in fns}
    for row, model in enumerate(models):
        for k in range(n):
            realization = _models.sample(model, int(seeds[row, k]))
            for name, fn in fns.items():
                try:
                    values[name][row].append(fn(realization))
                except (NumericalError, DataError):
                    pass

    out = {}
    for name, per_model in values.items():
        for vals in per_model:
            skipped = n - len(vals)
            if skipped > 0.2 * n:
                raise NumericalError(f"metric {name} failed on {skipped}/{n} realizations")
        arrays = [np.asarray(vals) for vals in per_model]
        ttest = welch_t_test(*arrays) if len(arrays) == 2 else None
        emp = empirical[name]
        reports = []
        for vals in arrays:
            mean = float(vals.mean())
            pct = 100.0 * mean / emp if emp != 0 else float("nan")
            reports.append(CaptureReport(
                metric_name=name, empirical_value=float(emp), model_mean=mean,
                model_sd=float(vals.std(ddof=1)), n_realizations=len(vals),
                capture_pct=pct, t_test=ttest))
        out[name] = (reports[0], reports[1] if len(reports) == 2 else None)
    if pending is not None:
        raise pending
    return out[metric] if isinstance(metric, str) else out


def write_histogram_csv(path, empirical: CountHistogram, model_a: CountHistogram,
                        model_b: Optional[CountHistogram] = None) -> None:
    """CSV rows bin_lo, bin_hi, empirical_mass, model_mass[, model_b_mass]."""
    for other in (model_a, model_b):
        if other is not None and not np.array_equal(empirical.lowers, other.lowers):
            raise DataError("histograms use different bin boundaries")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["bin_lo", "bin_hi", "empirical_mass", "model_mass"]
        if model_b is not None:
            header.append("model_b_mass")
        writer.writerow(header)
        for k, (lo, hi) in enumerate(empirical.bin_ranges()):
            row = [lo, "" if hi is None else hi,
                   repr(float(empirical.mass[k])), repr(float(model_a.mass[k]))]
            if model_b is not None:
                row.append(repr(float(model_b.mass[k])))
            writer.writerow(row)
