"""Plain and zero-inflated Poisson multi-edge network models.

Every family assigns each admissible node pair an independent law

    A_ij ~ (1 - q_ij) * delta_0 + q_ij * Poisson(lambda_ij)

with q_ij = 1 for the plain families. The rate lambda_ij is constant
(GNP), block-wise (SBM), a product of node propensities (CLCM), or both
(DCSBM); the mixture q_ij is global, block-wise, or carries node-level
factors in the *_NODE variants.

Fitting follows a moment-then-profile strategy: rate parameters are
tied to observed totals (multi-edges, block tallies, degrees) through
first-moment equations, and the remaining mixture parameters maximize
the profile log-likelihood. On pair spaces without self-loops the naive
degree scalings solve the moment equations only approximately, so they
are refined by a short per-block fixed point until expected degrees and
block totals match the observations to near machine precision.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np
from scipy import special

from .exceptions import DataError, NumericalError, PairSpaceMismatch
from .multigraph import (
    BlockAssignment,
    BlockTallies,
    MultiGraph,
    PairSpace,
    block_tallies,
    degrees,
    single_block,
)
from .numerics import OptimizerConfig, lambert_w0, maximize_box_constrained, maximize_scalar_bounded

__all__ = [
    "ModelFamily",
    "PairLaw",
    "FittedModel",
    "zip_pmf",
    "pair_law",
    "log_likelihood",
    "fit",
    "fit_poisson",
    "fit_zi_gnp",
    "fit_zi_sbm",
    "fit_zi_clcm",
    "fit_zi_dcsbm",
    "fit_zi_node_level",
    "expected_edges_links",
    "expected_degrees",
    "expected_count_distribution",
    "sample",
    "model_to_json",
    "model_from_json",
    "save_model",
    "load_model",
]

_EPS_Q = 1e-12
_BINARY_EPS = 1e-9


class ModelFamily(str, Enum):
    GNP = "gnp"
    SBM = "sbm"
    CLCM = "clcm"
    DCSBM = "dcsbm"
    ZI_GNP = "zi_gnp"
    ZI_SBM = "zi_sbm"
    ZI_CLCM = "zi_clcm"
    ZI_DCSBM = "zi_dcsbm"
    ZI_CLCM_NODE = "zi_clcm_node"
    ZI_DCSBM_NODE = "zi_dcsbm_node"

    @property
    def needs_blocks(self) -> bool:
        return self in (ModelFamily.SBM, ModelFamily.DCSBM, ModelFamily.ZI_SBM,
                        ModelFamily.ZI_DCSBM, ModelFamily.ZI_DCSBM_NODE)

    @property
    def zero_inflated(self) -> bool:
        return self.value.startswith("zi_")

    @property
    def has_node_rates(self) -> bool:
        return self in (ModelFamily.CLCM, ModelFamily.DCSBM, ModelFamily.ZI_CLCM,
                        ModelFamily.ZI_DCSBM, ModelFamily.ZI_CLCM_NODE,
                        ModelFamily.ZI_DCSBM_NODE)


@dataclass(frozen=True)
class PairLaw:
    """Per-pair zero-inflated Poisson law: (1-q) delta_0 + q Poisson(lam)."""

    q: float
    lam: float

    @property
    def mean(self) -> float:
        return self.q * self.lam

    def p_zero(self) -> float:
        return (1.0 - self.q) + self.q * math.exp(-self.lam)


@dataclass
class FittedModel:
    """A model family plus its parameter vectors and fit diagnostics."""

    family: ModelFamily
    space: PairSpace
    node_ids: Optional[tuple] = None
    blocks: Optional[BlockAssignment] = None
    p: Optional[float] = None
    lambda_blocks: Optional[np.ndarray] = None
    theta_out: Optional[np.ndarray] = None
    theta_in: Optional[np.ndarray] = None
    q_global: Optional[float] = None
    q_blocks: Optional[np.ndarray] = None
    q_nodes_out: Optional[np.ndarray] = None
    q_nodes_in: Optional[np.ndarray] = None
    constraint: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    @property
    def log_lik(self) -> Optional[float]:
        return self.diagnostics.get("loglik")

    def block_of(self) -> np.ndarray:
        if self.blocks is None:
            return np.zeros(self.space.n, dtype=np.int64)
        return self.blocks.as_array()


# -- elementary laws ---------------------------------------------------------


def zip_pmf(n: int, law: PairLaw) -> float:
    """Probability of observing count ``n`` under a per-pair ZIP law."""
    if n < 0:
        raise ValueError("count must be non-negative")
    q, lam = law.q, law.lam
    if lam < 0 or not 0.0 <= q <= 1.0:
        raise ValueError("invalid pair law")
    if lam == 0.0:
        pois = 1.0 if n == 0 else 0.0
    else:
        pois = math.exp(n * math.log(lam) - lam - math.lgamma(n + 1))
    prob = q * pois
    if n == 0:
        prob += 1.0 - q
    return prob


def _zip_loglik(counts: np.ndarray, q: np.ndarray, lam: np.ndarray) -> float:
    """Total ZIP log-likelihood over pairs; -inf if data is impossible."""
    counts = np.asarray(counts)
    q = np.broadcast_to(np.asarray(q, dtype=np.float64), counts.shape)
    lam = np.broadcast_to(np.asarray(lam, dtype=np.float64), counts.shape)
    zero = counts == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_q = np.log(q)
        # P(0) = (1-q) + q e^{-lam}, evaluated as logaddexp for stability
        lz = np.logaddexp(np.log1p(-q), log_q - lam)
    total = float(lz[zero].sum())
    pos = ~zero
    if np.any(pos):
        qp = q[pos]
        lp = lam[pos]
        cp = counts[pos]
        if np.any(qp <= 0.0) or np.any(lp <= 0.0):
            return float("-inf")
        total += float(np.sum(np.log(qp) + cp * np.log(lp) - lp - special.gammaln(cp + 1.0)))
    return total


# -- per-pair parameter arrays ------------------------------------------------


def _pair_arrays(model: FittedModel, ii=None, jj=None) -> tuple:
    """(q_ij, lambda_ij) arrays over the pairs (ii, jj); by default the
    canonical pair enumeration."""
    if ii is None:
        ii, jj = model.space.pair_indices()
    fam = model.family
    if fam in (ModelFamily.GNP, ModelFamily.ZI_GNP):
        lam = np.full(len(ii), float(model.p))
    elif fam in (ModelFamily.SBM, ModelFamily.ZI_SBM):
        lab = model.block_of()
        lam = model.lambda_blocks[lab[ii], lab[jj]]
    elif fam in (ModelFamily.CLCM, ModelFamily.ZI_CLCM, ModelFamily.ZI_CLCM_NODE):
        lam = model.theta_out[ii] * model.theta_in[jj]
    else:
        lab = model.block_of()
        lam = model.theta_out[ii] * model.theta_in[jj] * model.lambda_blocks[lab[ii], lab[jj]]

    if not fam.zero_inflated:
        q = np.ones(len(ii))
    elif fam in (ModelFamily.ZI_GNP, ModelFamily.ZI_CLCM):
        q = np.full(len(ii), float(model.q_global))
    elif fam in (ModelFamily.ZI_SBM, ModelFamily.ZI_DCSBM):
        lab = model.block_of()
        q = model.q_blocks[lab[ii], lab[jj]]
    elif fam is ModelFamily.ZI_CLCM_NODE:
        q = model.q_nodes_out[ii] * model.q_nodes_in[jj]
    else:  # ZI_DCSBM_NODE
        lab = model.block_of()
        q = _block_mixture(model, lab[ii], lab[jj]) * model.q_nodes_out[ii] * model.q_nodes_in[jj]
    return np.asarray(q, dtype=np.float64), np.asarray(lam, dtype=np.float64)


def _block_mixture(model: FittedModel, b: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Block factor of the mixture for node-level models."""
    if model.constraint.get("block_q") == "diag":
        # per-block factor applied to within-block pairs only
        qdiag = np.diag(model.q_blocks)
        return np.where(b == d, qdiag[b], 1.0)
    return model.q_blocks[b, d]


def pair_law(model: FittedModel, i: int, j: int) -> PairLaw:
    """The ZIP law the model assigns to the ordered pair (i, j)."""
    if not model.space.admissible(i, j):
        raise DataError(f"pair ({i}, {j}) is not admissible in this pair space")
    q, lam = _pair_arrays(model, np.array([i]), np.array([j]))
    return PairLaw(q=float(q[0]), lam=float(lam[0]))


def _check_same_space(model: FittedModel, g: MultiGraph) -> None:
    if model.space != g.space:
        raise PairSpaceMismatch(
            f"model pair space {model.space} does not match graph {g.space}")


def log_likelihood(model: FittedModel, g: MultiGraph) -> float:
    """Log-likelihood of the observed counts; -inf flags impossible data."""
    _check_same_space(model, g)
    q, lam = _pair_arrays(model)
    return _zip_loglik(g.count_vector(), q, lam)


# -- moment-locked rate decomposition -----------------------------------------


@dataclass
class _RateParts:
    """Mean-count factorization r_ij = phi_out_i phi_in_j Lambda_{b_i b_j}.

    phi is normalized to sum 1 within each block, so Lambda carries the
    block totals. The factorization satisfies the first-moment equations
    (block totals and degrees) on the actual pair space; ``exact`` is
    False when the no-loop fixed point could not be solved and the
    closed-form approximation was kept.
    """

    phi_out: np.ndarray
    phi_in: np.ndarray
    Lambda: np.ndarray
    exact: bool
    iterations: int


def _decompose_rates(g: MultiGraph, blocks: BlockAssignment, max_iter: int = 500) -> _RateParts:
    tall = block_tallies(g, blocks)
    kout, kin = degrees(g)
    kout = kout.astype(np.float64)
    kin = kin.astype(np.float64)
    lab = blocks.as_array()
    B = blocks.n_blocks

    with np.errstate(invalid="ignore", divide="ignore"):
        phi_out = np.where(tall.kappa_out[lab] > 0, kout / tall.kappa_out[lab], 0.0)
        phi_in = np.where(tall.kappa_in[lab] > 0, kin / tall.kappa_in[lab], 0.0)

    if g.directed and g.loops_allowed:
        return _RateParts(phi_out, phi_in, tall.m.astype(np.float64), exact=True, iterations=0)

    Lambda = tall.m.astype(np.float64)
    if not g.directed:
        Lambda = Lambda.copy()  # diagonal rescaled below; off-diagonal = unordered tallies
        phi_in = phi_out  # tied for undirected graphs

    exact = True
    iterations = 0
    for b in range(B):
        members = np.where(lab == b)[0]
        mbb = float(tall.m[b, b])
        if not g.directed:
            ok, it = _refine_block_undirected(phi_out, members, kout, tall, b, Lambda, max_iter)
        else:
            ok, it = _refine_block_directed(phi_out, phi_in, members, kout, kin, tall, b, Lambda, max_iter)
        iterations += it
        if not ok:
            exact = False
            # keep the closed-form scaling; restore the raw tally scale
            Lambda[b, b] = (2.0 if not g.directed else 1.0) * mbb
    return _RateParts(phi_out, phi_in, Lambda, exact=exact, iterations=iterations)


def _refine_block_undirected(phi, members, k, tall, b, Lambda, max_iter) -> tuple:
    """Per-block fixed point matching degrees on loop-free undirected pairs.

    Within block b the degree equations read
        k_i = phi_i * (T - Lbb * phi_i),  T = a_b + Lbb,
    with a_b the multi-edges leaving the block and Lbb = 2 m_bb / (1 - S),
    S = sum phi^2. Off-diagonal Lambda entries stay at the observed
    tallies, which already satisfy the cross-block moment equations.
    """
    kb = k[members]
    kappa = kb.sum()
    if kappa == 0:
        Lambda[b, b] = 0.0
        return True, 0
    a_b = float(tall.m[b].sum() - tall.m[b, b])
    mbb = float(tall.m[b, b])
    if mbb == 0.0:
        Lambda[b, b] = 0.0
        phi[members] = kb / a_b
        return True, 0
    x = kb / kappa
    for it in range(1, max_iter + 1):
        S = float(x @ x)
        if S >= 1.0:
            return False, it
        lbb = 2.0 * mbb / (1.0 - S)
        T = a_b + lbb
        resid = np.max(np.abs(x * (T - lbb * x) - kb) / np.maximum(kb, 1.0))
        if resid < 5e-14:
            Lambda[b, b] = lbb
            phi[members] = x
            return True, it
        disc = T * T - 4.0 * lbb * kb
        if np.min(disc) < 0.0:
            return False, it
        x = 2.0 * kb / (T + np.sqrt(disc))
        x = x / x.sum()
    return False, max_iter


def _refine_block_directed(phi_out, phi_in, members, kout, kin, tall, b, Lambda, max_iter) -> tuple:
    """Fixed point for directed graphs without self-loops.

    Degrees exclude the diagonal pair (i, i), so
        kout_i = phi_out_i * (T_out - Lbb * phi_in_i)
    and symmetrically for kin, with Lbb = m_bb / (1 - X), X = sum of
    phi_out * phi_in over the block.
    """
    ko = kout[members]
    ki = kin[members]
    mbb = float(tall.m[b, b])
    if mbb == 0.0:
        Lambda[b, b] = 0.0
        a_out = float(tall.m[b].sum())
        a_in = float(tall.m[:, b].sum())
        if ko.sum() > 0:
            phi_out[members] = ko / a_out
        if ki.sum() > 0:
            phi_in[members] = ki / a_in
        return True, 0
    a_out = float(tall.m[b].sum() - mbb)
    a_in = float(tall.m[:, b].sum() - mbb)
    xo = ko / ko.sum() if ko.sum() > 0 else np.zeros_like(ko, dtype=float)
    xi = ki / ki.sum() if ki.sum() > 0 else np.zeros_like(ki, dtype=float)
    for it in range(1, max_iter + 1):
        X = float(xo @ xi)
        if X >= 1.0:
            return False, it
        lbb = mbb / (1.0 - X)
        t_out = a_out + lbb
        t_in = a_in + lbb
        r_out = np.max(np.abs(xo * (t_out - lbb * xi) - ko) / np.maximum(ko, 1.0))
        r_in = np.max(np.abs(xi * (t_in - lbb * xo) - ki) / np.maximum(ki, 1.0))
        if max(r_out, r_in) < 5e-14:
            Lambda[b, b] = lbb
            phi_out[members] = xo
            phi_in[members] = xi
            return True, it
        den_o = t_out - lbb * xi
        den_i = t_in - lbb * xo
        if np.min(den_o) <= 0.0 or np.min(den_i) <= 0.0:
            return False, it
        xo = ko / den_o
        if xo.sum() > 0:
            xo = xo / xo.sum()
        xi = ki / den_i
        if xi.sum() > 0:
            xi = xi / xi.sum()
    return False, max_iter


def _mean_rate_array(space: PairSpace, parts: _RateParts, lab: np.ndarray) -> np.ndarray:
    ii, jj = space.pair_indices()
    return parts.phi_out[ii] * parts.phi_in[jj] * parts.Lambda[lab[ii], lab[jj]]


# -- mixture profile optimization ---------------------------------------------


def _optimize_mixture(counts: np.ndarray, rates: np.ndarray, cfg: OptimizerConfig) -> tuple:
    """Maximize the profile likelihood over the mixture weight q.

    ``rates`` holds the moment-locked mean counts r_ij, so the Poisson
    rate is r_ij / q and the expected multi-edges match the data for
    every q. Returns (q_hat, value, iterations).
    """
    n_pairs = counts.size
    n_links = int(np.count_nonzero(counts))
    q_lo = n_links / n_pairs + _EPS_Q
    if q_lo >= 1.0:
        return 1.0, _zip_loglik(counts, np.float64(1.0), rates), 0

    def profile(q):
        return _zip_loglik(counts, np.float64(q), rates / q)

    # coarse scan guards the golden-section search against flat regions
    grid = np.linspace(q_lo, 1.0, 33)
    vals = np.array([profile(q) for q in grid])
    k = int(np.argmax(vals))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    if lo >= hi:
        lo, hi = q_lo, 1.0
    res = maximize_scalar_bounded(profile, float(lo), float(hi), cfg)
    if vals[k] > res.value:
        return float(grid[k]), float(vals[k]), res.iterations
    return float(res.x), float(res.value), res.iterations


# -- fitting -------------------------------------------------------------------


def _base_diag(g: MultiGraph, parts: Optional[_RateParts]) -> dict:
    diag = {"converged": True, "iterations": 0}
    if parts is not None:
        diag["exact_moments"] = parts.exact
        diag["refine_iterations"] = parts.iterations
    return diag


def _require_blocks(family: ModelFamily, blocks: Optional[BlockAssignment], g: MultiGraph) -> BlockAssignment:
    if family.needs_blocks:
        if blocks is None:
            raise DataError(f"family {family.value} requires a block assignment")
        if len(blocks.labels) != g.n_nodes:
            raise DataError("block assignment length does not match the graph")
        return blocks
    if blocks is not None:
        raise DataError(f"family {family.value} does not take blocks")
    return single_block(g.n_nodes)


def _check_block_degrees(tall: BlockTallies) -> None:
    for b in range(len(tall.n_per_block)):
        if tall.kappa_out[b] == 0 or tall.kappa_in[b] == 0:
            raise DataError(f"block {b} has zero degree; cannot fit degree-corrected rates")


def fit_poisson(family, g: MultiGraph, blocks: Optional[BlockAssignment] = None) -> FittedModel:
    """Fit a plain Poisson family (GNP, SBM, CLCM or DCSBM).

    Rate parameters come from the first-moment equations, so all
    expected totals (multi-edges, block tallies, degrees) reproduce the
    observations exactly.
    """
    family = ModelFamily(family)
    if family.zero_inflated:
        raise DataError(f"{family.value} is not a plain family")
    if g.n_multiedges == 0:
        raise DataError("cannot fit an empty graph (no multi-edges)")
    blk = _require_blocks(family, blocks, g)

    if family is ModelFamily.GNP:
        model = FittedModel(family, g.space, node_ids=g.node_ids,
                            p=g.n_multiedges / g.n_pairs)
    elif family is ModelFamily.SBM:
        tall = block_tallies(g, blk)
        with np.errstate(invalid="ignore", divide="ignore"):
            lam = np.where(tall.pairs > 0, tall.m / tall.pairs, 0.0)
        model = FittedModel(family, g.space, node_ids=g.node_ids, blocks=blk,
                            lambda_blocks=lam)
    else:
        tall = block_tallies(g, blk)
        if family is ModelFamily.DCSBM:
            _check_block_degrees(tall)
        parts = _decompose_rates(g, blk)
        if family is ModelFamily.CLCM:
            scale = math.sqrt(parts.Lambda[0, 0])
            theta_out = parts.phi_out * scale
            theta_in = parts.phi_in * scale if g.directed else theta_out
            model = FittedModel(family, g.space, node_ids=g.node_ids,
                                theta_out=theta_out, theta_in=theta_in,
                                constraint={"type": "theta_sum", "values": [scale]})
        else:
            model = FittedModel(family, g.space, node_ids=g.node_ids, blocks=blk,
                                theta_out=parts.phi_out,
                                theta_in=parts.phi_in if g.directed else parts.phi_out,
                                lambda_blocks=parts.Lambda,
                                constraint={"type": "block_theta_sum",
                                            "values": [1.0] * blk.n_blocks})
        model.diagnostics.update(_base_diag(g, parts))
        model.diagnostics["loglik"] = log_likelihood(model, g)
        return model
    model.diagnostics.update(_base_diag(g, None))
    model.diagnostics["loglik"] = log_likelihood(model, g)
    return model


def _zignp_closed_form(m: float, M: float, P: float) -> tuple:
    """Mixture and rate solving E[m] = m and E[links] = M on P pairs.

    Returns (q, p, fallback_reason). Binary counts (m == M) and data
    denser than the Poisson saturation bound collapse to the plain
    Poisson boundary q = 1.
    """
    if M == 0:
        raise DataError("no links; cannot fit a zero-inflated model")
    ratio = m / M
    if ratio <= 1.0 + _BINARY_EPS:
        return 1.0, m / P, "binary-counts"
    arg = -ratio * math.exp(-ratio)
    # for multi-edged data the argument always sits in (-1/e, 0]; one ulp
    # of slack at the branch point, and exp underflow flushes huge ratios
    # to -0.0, whose principal-branch value is exactly 0
    if not -1.0 / math.e - 1e-15 <= arg <= 0.0:
        raise NumericalError(f"Lambert argument {arg} escaped (-1/e, 0); m={m}, M={M}")
    w = lambert_w0(arg)
    q = m * M / (P * (m + M * w))
    if not math.isfinite(q) or q <= 0.0:
        raise NumericalError(f"inconsistent mixture estimate q={q} for m={m}, M={M}, P={P}")
    if q > 1.0 + _BINARY_EPS:
        # observed link count exceeds what any q <= 1 mixture produces at
        # this mean; the constrained optimum sits on the plain boundary
        return 1.0, m / P, "dense-boundary"
    q = min(q, 1.0)
    return q, m / (P * q), None


def fit_zi_gnp(g: MultiGraph) -> FittedModel:
    """Closed-form fit of the zero-inflated G(N,p) model."""
    m = g.n_multiedges
    M = g.n_links
    P = g.n_pairs
    if m == 0:
        raise DataError("cannot fit an empty graph (no multi-edges)")
    q, p, fallback = _zignp_closed_form(float(m), float(M), float(P))
    model = FittedModel(ModelFamily.ZI_GNP, g.space, node_ids=g.node_ids,
                        p=p, q_global=q)
    model.diagnostics.update(_base_diag(g, None))
    if fallback:
        model.diagnostics["fallback"] = fallback
    else:
        # both moment equations must hold at the solution
        em = q * p * P
        eM = q * P * (1.0 - math.exp(-p))
        if abs(em - m) > 1e-9 * m or abs(eM - M) > 1e-9 * M:
            raise NumericalError(f"moment equations violated: E[m]={em} vs {m}, E[M]={eM} vs {M}")
    model.diagnostics["loglik"] = log_likelihood(model, g)
    return model


def fit_zi_sbm(g: MultiGraph, blocks: BlockAssignment) -> FittedModel:
    """Per-block-pair closed-form fit of the zero-inflated SBM.

    Each block pair is an independent zi-G(N,p) problem on its own
    pairs. Degenerate cells get conventions instead of errors:
    empty cells (q, lambda) = (0, 0), binary or over-dense cells the
    plain boundary q = 1.
    """
    blk = _require_blocks(ModelFamily.ZI_SBM, blocks, g)
    if g.n_multiedges == 0:
        raise DataError("cannot fit an empty graph (no multi-edges)")
    tall = block_tallies(g, blk)
    B = blk.n_blocks
    qmat = np.zeros((B, B))
    lmat = np.zeros((B, B))
    fallbacks = 0
    for b in range(B):
        for d in range(B):
            if not g.directed and d < b:
                qmat[b, d] = qmat[d, b]
                lmat[b, d] = lmat[d, b]
                continue
            mbd = float(tall.m[b, d])
            if mbd == 0.0:
                continue
            q, lam_bd, fb = _zignp_closed_form(mbd, float(tall.links[b, d]), float(tall.pairs[b, d]))
            if fb:
                fallbacks += 1
            qmat[b, d] = q
            lmat[b, d] = lam_bd
    model = FittedModel(ModelFamily.ZI_SBM, g.space, node_ids=g.node_ids, blocks=blk,
                        q_blocks=qmat, lambda_blocks=lmat)
    model.diagnostics.update(_base_diag(g, None))
    if fallbacks:
        model.diagnostics["block_fallbacks"] = fallbacks
    model.diagnostics["loglik"] = log_likelihood(model, g)
    return model


def fit_zi_clcm(g: MultiGraph, cfg: Optional[OptimizerConfig] = None) -> FittedModel:
    """Fit the zero-inflated Chung-Lu configuration model.

    Node rates are tied to observed degrees through the first-moment
    equations; the single mixture weight maximizes the resulting
    profile log-likelihood over (M/P, 1].
    """
    if g.n_multiedges == 0:
        raise DataError("cannot fit an empty graph (no multi-edges)")
    cfg = cfg or OptimizerConfig()
    blk = single_block(g.n_nodes)
    parts = _decompose_rates(g, blk)
    rates = _mean_rate_array(g.space, parts, blk.as_array())
    counts = g.count_vector()
    q, value, iters = _optimize_mixture(counts, rates, cfg)
    scale = math.sqrt(parts.Lambda[0, 0] / q)
    theta_out = parts.phi_out * scale
    theta_in = parts.phi_in * scale if g.directed else theta_out
    model = FittedModel(ModelFamily.ZI_CLCM, g.space, node_ids=g.node_ids,
                        theta_out=theta_out, theta_in=theta_in, q_global=q,
                        constraint={"type": "theta_sum", "values": [scale]})
    model.diagnostics.update(_base_diag(g, parts))
    model.diagnostics["iterations"] = iters
    model.diagnostics["loglik"] = value
    return model


def _block_pair_groups(space: PairSpace, lab: np.ndarray, B: int) -> dict:
    """Pair-array index slices grouped by (canonical) block pair."""
    ii, jj = space.pair_indices()
    b, d = lab[ii], lab[jj]
    if not space.directed:
        b, d = np.minimum(b, d), np.maximum(b, d)
    code = b * B + d
    order = np.argsort(code, kind="stable")
    sorted_code = code[order]
    groups = {}
    bounds = np.searchsorted(sorted_code, np.arange(B * B + 1))
    for c in range(B * B):
        sel = order[bounds[c]:bounds[c + 1]]
        if sel.size:
            groups[(c // B, c % B)] = sel
    return groups


def fit_zi_dcsbm(g: MultiGraph, blocks: BlockAssignment,
                 cfg: Optional[OptimizerConfig] = None,
                 constraints=None) -> FittedModel:
    """Fit the zero-inflated degree-corrected SBM.

    Node and block rates are fixed in closed form by the first-moment
    equations (block theta sums constrained to ``constraints``, default
    1). Each block pair's mixture weight is then an independent
    one-dimensional profile-likelihood problem.
    """
    blk = _require_blocks(ModelFamily.ZI_DCSBM, blocks, g)
    if g.n_multiedges == 0:
        raise DataError("cannot fit an empty graph (no multi-edges)")
    cfg = cfg or OptimizerConfig()
    tall = block_tallies(g, blk)
    _check_block_degrees(tall)
    B = blk.n_blocks
    lab = blk.as_array()
    parts = _decompose_rates(g, blk)
    rates = _mean_rate_array(g.space, parts, lab)
    counts = g.count_vector()
    groups = _block_pair_groups(g.space, lab, B)

    qmat = np.zeros((B, B))
    total_iters = 0
    loglik = 0.0
    for (b, d), sel in sorted(groups.items()):
        sub_counts = counts[sel]
        if not np.any(sub_counts):
            continue  # q = 0 convention for empty block pairs
        q, value, iters = _optimize_mixture(sub_counts, rates[sel], cfg)
        qmat[b, d] = q
        if not g.directed and b != d:
            qmat[d, b] = q
        total_iters += iters
        loglik += value
    # empty block pairs contribute log 1 = 0 per pair

    cvec = _constraint_vector(constraints, B)
    with np.errstate(invalid="ignore", divide="ignore"):
        lam = np.where(qmat > 0, parts.Lambda / qmat, 0.0)
    lam = lam / np.outer(cvec, cvec)
    theta_out = parts.phi_out * cvec[lab]
    theta_in = (parts.phi_in * cvec[lab]) if g.directed else theta_out
    model = FittedModel(ModelFamily.ZI_DCSBM, g.space, node_ids=g.node_ids, blocks=blk,
                        theta_out=theta_out, theta_in=theta_in,
                        lambda_blocks=lam, q_blocks=qmat,
                        constraint={"type": "block_theta_sum", "values": list(map(float, cvec))})
    model.diagnostics.update(_base_diag(g, parts))
    model.diagnostics["iterations"] = total_iters
    model.diagnostics["n_mixture_problems"] = B * B if g.directed else B * (B + 1) // 2
    model.diagnostics["loglik"] = loglik
    return model


def _constraint_vector(constraints, B: int) -> np.ndarray:
    if constraints is None:
        return np.ones(B)
    c = np.asarray(constraints, dtype=np.float64)
    if c.ndim == 0:
        c = np.full(B, float(c))
    if c.shape != (B,) or np.any(c <= 0):
        raise DataError("constraints must be positive, one per block")
    return c


def fit_zi_node_level(g: MultiGraph, blocks: Optional[BlockAssignment] = None,
                      cfg: Optional[OptimizerConfig] = None,
                      block_q: str = "pair") -> FittedModel:
    """Fit a model with node-level zero-inflation factors.

    The mixture weight of pair (i, j) is q_out_i * q_in_j, times a
    block factor when ``blocks`` is given: the full matrix q_bd
    (``block_q="pair"``) or a per-block factor applied to within-block
    pairs (``block_q="diag"``). Node rates stay tied to degrees through
    the first-moment equations, which makes the mean count of every
    pair independent of the mixture parameters; those are found by
    box-constrained coordinate ascent. Zero-degree nodes get q = 0 and
    are excluded from the optimization.
    """
    if g.n_multiedges == 0:
        raise DataError("cannot fit an empty graph (no multi-edges)")
    if block_q not in ("pair", "diag"):
        raise DataError(f"unknown block_q structure {block_q!r}")
    cfg = cfg or OptimizerConfig(max_iterations=2000)
    family = ModelFamily.ZI_DCSBM_NODE if blocks is not None else ModelFamily.ZI_CLCM_NODE
    blk = blocks if blocks is not None else single_block(g.n_nodes)
    if blocks is not None and len(blk.labels) != g.n_nodes:
        raise DataError("block assignment length does not match the graph")
    tall = block_tallies(g, blk)
    if family is ModelFamily.ZI_DCSBM_NODE:
        _check_block_degrees(tall)
    B = blk.n_blocks
    lab = blk.as_array()
    parts = _decompose_rates(g, blk)
    rates = _mean_rate_array(g.space, parts, lab)
    counts = g.count_vector()
    ii, jj = g.space.pair_indices()
    kout, kin = degrees(g)

    # free parameters: node factors for nodes with positive degree,
    # plus block factors for non-empty block pairs (or blocks)
    out_free = np.where(kout > 0)[0]
    in_free = np.where(kin > 0)[0] if g.directed else np.array([], dtype=np.int64)
    if blocks is not None:
        if block_q == "pair":
            if g.directed:
                cells = [(b, d) for b in range(B) for d in range(B) if tall.m[b, d] > 0]
            else:
                cells = [(b, d) for b in range(B) for d in range(b, B) if tall.m[b, d] > 0]
        else:
            cells = [(b, b) for b in range(B) if tall.m[b, b] > 0]
    else:
        cells = []

    n_params = len(out_free) + len(in_free) + len(cells)
    q_out = np.where(kout > 0, 1.0, 0.0)
    q_in = np.where(kin > 0, 1.0, 0.0) if g.directed else q_out
    qmat = np.ones((B, B))

    def unpack(x):
        qo = q_out.copy()
        qo[out_free] = x[:len(out_free)]
        if g.directed:
            qi = q_in.copy()
            qi[in_free] = x[len(out_free):len(out_free) + len(in_free)]
        else:
            qi = qo
        qm = np.ones((B, B))
        base = len(out_free) + len(in_free)
        for k, (b, d) in enumerate(cells):
            qm[b, d] = x[base + k]
            qm[d, b] = x[base + k]
        return qo, qi, qm

    bi, bj = lab[ii], lab[jj]

    def mixture(qo, qi, qm):
        q = qo[ii] * qi[jj]
        if blocks is not None:
            if block_q == "pair":
                q = q * qm[bi, bj]
            else:
                q = q * np.where(bi == bj, np.diag(qm)[bi], 1.0)
        return q

    def objective(x):
        qo, qi, qm = unpack(x)
        q = mixture(qo, qi, qm)
        with np.errstate(invalid="ignore", divide="ignore"):
            lam = np.where(q > 0, rates / np.where(q > 0, q, 1.0), 0.0)
        return _zip_loglik(counts, q, lam)

    x0 = np.ones(n_params)
    lower = np.full(n_params, 1e-6)
    upper = np.ones(n_params)
    res = maximize_box_constrained(objective, x0, lower, upper, cfg)
    q_out, q_in, qmat = unpack(res.x)
    if blocks is not None and block_q == "pair":
        # zero out block cells with no activity so sampling stays consistent
        qmat = np.where(tall.m > 0, qmat, 0.0)

    scale = math.sqrt(parts.Lambda[0, 0]) if blocks is None else 1.0
    with np.errstate(invalid="ignore", divide="ignore"):
        theta_out = np.where(q_out > 0, parts.phi_out * scale / np.where(q_out > 0, q_out, 1.0), 0.0)
        if g.directed:
            theta_in = np.where(q_in > 0, parts.phi_in * scale / np.where(q_in > 0, q_in, 1.0), 0.0)
        else:
            theta_in = theta_out
    if blocks is None:
        model = FittedModel(family, g.space, node_ids=g.node_ids,
                            theta_out=theta_out, theta_in=theta_in,
                            q_nodes_out=q_out, q_nodes_in=q_in,
                            constraint={"type": "theta_sum_effective", "values": [scale]})
    else:
        blockq = qmat.copy()
        with np.errstate(invalid="ignore", divide="ignore"):
            lam = np.where(blockq > 0, parts.Lambda / blockq, 0.0)
        if block_q == "diag":
            # off-diagonal mixture factor is 1; rates keep raw tallies there
            off = ~np.eye(B, dtype=bool)
            lam[off] = parts.Lambda[off]
        model = FittedModel(family, g.space, node_ids=g.node_ids, blocks=blk,
                            theta_out=theta_out, theta_in=theta_in,
                            lambda_blocks=lam, q_blocks=blockq,
                            q_nodes_out=q_out, q_nodes_in=q_in,
                            constraint={"type": "block_theta_sum_effective",
                                        "values": [1.0] * B, "block_q": block_q})
    model.diagnostics.update(_base_diag(g, parts))
    model.diagnostics["iterations"] = res.iterations
    model.diagnostics["converged"] = res.converged
    model.diagnostics["n_free_parameters"] = n_params
    model.diagnostics["loglik"] = res.value
    return model


# family -> fitter(g, blocks, cfg); blocks is None for families without blocks
_FITTERS = {
    ModelFamily.GNP: lambda g, blocks, cfg: fit_poisson(ModelFamily.GNP, g),
    ModelFamily.SBM: lambda g, blocks, cfg: fit_poisson(ModelFamily.SBM, g, blocks),
    ModelFamily.CLCM: lambda g, blocks, cfg: fit_poisson(ModelFamily.CLCM, g),
    ModelFamily.DCSBM: lambda g, blocks, cfg: fit_poisson(ModelFamily.DCSBM, g, blocks),
    ModelFamily.ZI_GNP: lambda g, blocks, cfg: fit_zi_gnp(g),
    ModelFamily.ZI_SBM: lambda g, blocks, cfg: fit_zi_sbm(g, blocks),
    ModelFamily.ZI_CLCM: lambda g, blocks, cfg: fit_zi_clcm(g, cfg),
    ModelFamily.ZI_DCSBM: lambda g, blocks, cfg: fit_zi_dcsbm(g, blocks, cfg),
    ModelFamily.ZI_CLCM_NODE: lambda g, blocks, cfg: fit_zi_node_level(g, cfg=cfg),
    ModelFamily.ZI_DCSBM_NODE: lambda g, blocks, cfg: fit_zi_node_level(g, blocks, cfg),
}


def fit(family, g: MultiGraph, blocks: Optional[BlockAssignment] = None,
        cfg: Optional[OptimizerConfig] = None) -> FittedModel:
    """Fit any family with its fitter's defaults.

    Block families require ``blocks``; the others ignore it. ``cfg``
    reaches the families that optimize a mixture (zi_clcm, zi_dcsbm and
    the node-level variants, where ``max_iterations`` is the
    coordinate-step budget); the closed-form families ignore it.
    """
    family = ModelFamily(family)
    if not family.needs_blocks:
        blocks = None
    elif blocks is None:
        raise DataError(f"family {family.value} requires a block assignment")
    return _FITTERS[family](g, blocks, cfg)


# -- model expectations --------------------------------------------------------


def expected_edges_links(model: FittedModel) -> tuple:
    """(E[m], E[M]): expected multi-edges and connected pairs."""
    q, lam = _pair_arrays(model)
    e_m = float(np.sum(q * lam))
    e_links = float(np.sum(q * (-np.expm1(-lam))))
    return e_m, e_links


def expected_degrees(model: FittedModel) -> tuple:
    """Expected out/in degree vectors for degree-corrected families."""
    if not model.family.has_node_rates:
        raise DataError(f"family {model.family.value} has no node rate parameters")
    q, lam = _pair_arrays(model)
    mean = q * lam
    ii, jj = model.space.pair_indices()
    n = model.space.n
    e_out = np.bincount(ii, weights=mean, minlength=n)
    e_in = np.bincount(jj, weights=mean, minlength=n)
    if not model.space.directed:
        e_out = e_out + e_in
        e_in = e_out
    return e_out, e_in


def expected_count_distribution(model: FittedModel, max_count: int):
    """Expected fraction of pairs per count 0..max_count plus a tail bucket."""
    from .metrics import CountHistogram

    if max_count < 1:
        raise ValueError("max_count must be at least 1")
    q, lam = _pair_arrays(model)
    P = lam.size
    mass = np.zeros(max_count + 2)
    # Poisson pmf tracked in log space to survive large rates
    with np.errstate(divide="ignore"):
        log_lam = np.log(lam)
    log_pois = -lam
    mass[0] = float(np.sum((1.0 - q) + q * np.exp(log_pois))) / P
    for n in range(1, max_count + 1):
        log_pois = log_pois + log_lam - math.log(n)
        mass[n] = float(np.sum(q * np.exp(log_pois))) / P
    mass[max_count + 1] = max(0.0, 1.0 - mass[:max_count + 1].sum())
    lowers = np.concatenate([np.arange(max_count + 1), [max_count + 1]])
    return CountHistogram(lowers=lowers, mass=mass, source="model-expected")


def sample(model: FittedModel, seed: int) -> MultiGraph:
    """Draw one realization: Bernoulli(q_ij) gating a Poisson(lambda_ij)."""
    rng = np.random.default_rng(seed)
    q, lam = _pair_arrays(model)
    ii, jj = model.space.pair_indices()
    active = rng.random(q.size) < q
    counts = np.zeros(q.size, dtype=np.int64)
    if np.any(active):
        counts[active] = rng.poisson(lam[active])
    nz = counts > 0
    node_ids = model.node_ids or tuple(f"v{k}" for k in range(model.space.n))
    pairs = {(int(a), int(b)): int(w) for a, b, w in zip(ii[nz], jj[nz], counts[nz])}
    return MultiGraph(node_ids, pairs, model.space.directed, model.space.loops)


# -- serialization ---------------------------------------------------------------


def _opt_list(x) -> Optional[list]:
    return None if x is None else np.asarray(x).tolist()


def model_to_json(model: FittedModel) -> dict:
    obj = {
        "family": model.family.value,
        "pair_space": {"n": model.space.n, "directed": model.space.directed,
                       "loops": model.space.loops},
        "node_ids": list(model.node_ids) if model.node_ids else None,
        "blocks": list(model.blocks.labels) if model.blocks else None,
        "p": model.p,
        "lambda": _opt_list(model.lambda_blocks),
        "theta_out": _opt_list(model.theta_out),
        "theta_in": _opt_list(model.theta_in),
        "q": model.q_global,
        "q_blocks": _opt_list(model.q_blocks),
        "q_nodes": None,
        "constraint": model.constraint,
        "diagnostics": model.diagnostics,
    }
    if model.q_nodes_out is not None:
        obj["q_nodes"] = {"out": _opt_list(model.q_nodes_out), "in": _opt_list(model.q_nodes_in)}
    return obj


def model_from_json(obj: dict) -> FittedModel:
    try:
        space = PairSpace(obj["pair_space"]["n"], obj["pair_space"]["directed"],
                          obj["pair_space"]["loops"])
        family = ModelFamily(obj["family"])
    except (KeyError, ValueError) as exc:
        raise DataError(f"invalid model JSON: {exc}") from None
    blocks = None
    if obj.get("blocks") is not None:
        blocks = BlockAssignment(labels=tuple(obj["blocks"]))

    def arr(key):
        val = obj.get(key)
        return None if val is None else np.asarray(val, dtype=np.float64)

    theta_out = arr("theta_out")
    theta_in = arr("theta_in")
    if theta_out is not None and not space.directed:
        theta_in = theta_out
    q_nodes = obj.get("q_nodes") or {}
    q_nodes_out = None if not q_nodes else np.asarray(q_nodes["out"], dtype=np.float64)
    q_nodes_in = None if not q_nodes else np.asarray(q_nodes["in"], dtype=np.float64)
    if q_nodes_out is not None and not space.directed:
        q_nodes_in = q_nodes_out
    return FittedModel(
        family=family,
        space=space,
        node_ids=tuple(obj["node_ids"]) if obj.get("node_ids") else None,
        blocks=blocks,
        p=obj.get("p"),
        lambda_blocks=arr("lambda"),
        theta_out=theta_out,
        theta_in=theta_in,
        q_global=obj.get("q"),
        q_blocks=arr("q_blocks"),
        q_nodes_out=q_nodes_out,
        q_nodes_in=q_nodes_in,
        constraint=obj.get("constraint") or {},
        diagnostics=obj.get("diagnostics") or {},
    )


def save_model(model: FittedModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_json(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> FittedModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(json.load(fh))
