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
_REFINE_MAX_STEPS = 500  # per-block budget of the degree fixed point
_REFINE_TOL = 5e-14  # relative degree residual the fixed point must reach


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
        return _KIND[self][2]

    @property
    def zero_inflated(self) -> bool:
        return _KIND[self][1] is not None

    @property
    def has_node_rates(self) -> bool:
        return _KIND[self][0]


# family -> (degree-corrected rates, mixture stage, fitted on blocks). The
# mixture stage is None for the plain families, "closed" (zi_gnp's closed
# form per block pair), "profile" (a profile search per block pair) or
# "node" (node factors by coordinate ascent). A family without blocks is
# fitted as the family on the same row with blocks, on one block (_fit).
_KIND = {
    ModelFamily.GNP: (False, None, False),
    ModelFamily.SBM: (False, None, True),
    ModelFamily.CLCM: (True, None, False),
    ModelFamily.DCSBM: (True, None, True),
    ModelFamily.ZI_GNP: (False, "closed", False),
    ModelFamily.ZI_SBM: (False, "closed", True),
    ModelFamily.ZI_CLCM: (True, "profile", False),
    ModelFamily.ZI_DCSBM: (True, "profile", True),
    ModelFamily.ZI_CLCM_NODE: (True, "node", False),
    ModelFamily.ZI_DCSBM_NODE: (True, "node", True),
}


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


def _log_p0(q: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """log P(0) = log((1-q) + q e^{-lam}) per pair, as a logaddexp for stability."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.logaddexp(np.log1p(-q), np.log(q) - lam)


def _zip_loglik(counts: np.ndarray, q: np.ndarray, lam: np.ndarray) -> float:
    """Total ZIP log-likelihood over pairs; -inf if data is impossible."""
    counts = np.asarray(counts)
    q = np.broadcast_to(np.asarray(q, dtype=np.float64), counts.shape)
    lam = np.broadcast_to(np.asarray(lam, dtype=np.float64), counts.shape)
    zero = counts == 0
    total = float(_log_p0(q[zero], lam[zero]).sum())
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


def _layout(model: FittedModel) -> tuple:
    """(theta_out, theta_in, Lambda, Q, q_out, q_in) of the law every family
    shares, lambda_ij = theta_out_i theta_in_j Lambda[b_i, b_j] and
    q_ij = Q[b_i, b_j] q_out_i q_in_j. A factor the family lacks is ones:
    ``p`` is a 1x1 Lambda and ``q_global`` a 1x1 Q."""
    def ones(x, shape):
        return np.ones(shape) if x is None else np.asarray(x, dtype=np.float64)

    n, B = model.space.n, model.blocks.n_blocks if model.blocks else 1
    lam = model.lambda_blocks if model.p is None else [[float(model.p)]]
    q = model.q_blocks if model.q_global is None else [[float(model.q_global)]]
    return (ones(model.theta_out, n), ones(model.theta_in, n), ones(lam, (B, B)),
            ones(q, (B, B)), ones(model.q_nodes_out, n), ones(model.q_nodes_in, n))


def _pair_arrays(model: FittedModel, ii=None, jj=None) -> tuple:
    """(q_ij, lambda_ij) arrays over the pairs (ii, jj); by default the
    canonical pair enumeration."""
    if ii is None:
        ii, jj = model.space.pair_indices()
    theta_out, theta_in, lam, q, q_out, q_in = _layout(model)
    lab = model.block_of()
    cell = lab[ii]  # flat index of (b_i, b_j) into the B x B matrices
    cell *= len(q)
    cell += lab[jj]
    # products in place, left to right: every temporary of P floats costs
    # a fresh allocation
    qs, lams = q.ravel()[cell], theta_out[ii]
    qs *= q_out[ii]
    qs *= q_in[jj]
    lams *= theta_in[jj]
    lams *= lam.ravel()[cell]
    return qs, lams


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
    (block totals and degrees) on the actual pair space. ``exact`` is
    False when the per-block fixed point failed for some block; its last
    iterate is kept, which still matches that block's total but not its
    degrees. ``residual`` is the largest relative degree residual over
    the blocks.
    """

    phi_out: np.ndarray
    phi_in: np.ndarray
    Lambda: np.ndarray
    exact: bool
    iterations: int
    residual: float


def _decompose_rates(g: MultiGraph, blocks: BlockAssignment, tall: BlockTallies) -> _RateParts:
    kout, kin = (k.astype(np.float64) for k in degrees(g))
    lab = blocks.as_array()

    with np.errstate(invalid="ignore", divide="ignore"):
        phi_out = np.where(tall.kappa_out[lab] > 0, kout / tall.kappa_out[lab], 0.0)
        phi_in = np.where(tall.kappa_in[lab] > 0, kin / tall.kappa_in[lab], 0.0)

    Lambda = tall.m.astype(np.float64)
    if g.directed and g.loops_allowed:
        return _RateParts(phi_out, phi_in, Lambda, exact=True, iterations=0, residual=0.0)
    if not g.directed:
        phi_in = phi_out  # tied for undirected graphs; tall.m is symmetric
    scale = 1.0 if g.directed else 2.0

    its, rs = zip(*(_refine_block(phi_out, phi_in, np.where(lab == b)[0], kout, kin, tall, b,
                                  Lambda, scale) for b in range(blocks.n_blocks)))
    rs = np.array(rs)
    return _RateParts(phi_out, phi_in, Lambda, exact=bool(np.all(rs < _REFINE_TOL)),
                      iterations=sum(its), residual=float(rs.max()))


def _refine_block(phi_out, phi_in, members, kout, kin, tall, b, Lambda, scale) -> tuple:
    """Per-block fixed point matching degrees on pair spaces without loops.

    Degrees exclude the diagonal pair (i, i), so within block b
        kout_i = phi_out_i * (T_out - Lbb * phi_in_i),  T_out = a_out + Lbb,
    and symmetrically for kin, with a_out the multi-edges leaving the
    block and Lbb = scale * m_bb / (1 - X), X = sum of phi_out * phi_in
    over the block. ``scale`` is 1 for directed pairs and 2 for
    undirected ones, whose tallies count a within-block pair once and
    where phi_in is phi_out; there only the out-half is iterated. Off-
    diagonal Lambda entries stay at the observed tallies, which already
    satisfy the cross-block equations.

    The reciprocal update x <- k / (T - Lbb x) is the loop-free analogue
    of iterative proportional fitting. If it fails (X >= 1, a
    non-positive denominator, or the budget runs out), the last iterate
    is kept. Returns (iterations, the kept iterate's largest relative
    degree residual).
    """
    mbb = float(tall.m[b, b])
    if mbb == 0.0:  # the starting phi = k / kappa already solves the block
        return 0, 0.0
    ks = [kout[members]] if phi_in is phi_out else [kout[members], kin[members]]
    a = [float(tall.m[b].sum() - mbb), float(tall.m[:, b].sum() - mbb)][:len(ks)]

    def residual(xs, lbb):
        # each half's denominator T - Lbb x takes the other half's iterate
        dens = [(a_h + lbb) - lbb * x_other for a_h, x_other in zip(a, xs[::-1])]
        r = max(np.max(np.abs(x * den - k) / np.maximum(k, 1.0)) for x, den, k in zip(xs, dens, ks))
        return float(r), dens

    xs = [k / k.sum() for k in ks]
    kept = (xs, Lambda[b, b])
    for it in range(1, _REFINE_MAX_STEPS + 1):
        X = float(xs[0] @ xs[-1])
        if X >= 1.0:
            break
        lbb = scale * mbb / (1.0 - X)
        kept = (xs, lbb)
        r, dens = residual(xs, lbb)
        if r < _REFINE_TOL or min(np.min(den) for den in dens) <= 0.0:
            break
        xs = [x / x.sum() for x in (k / den for k, den in zip(ks, dens))]
    xs, lbb = kept
    phi_out[members], phi_in[members], Lambda[b, b] = xs[0], xs[-1], lbb
    return it, residual(xs, lbb)[0]


def _mean_rate_array(space: PairSpace, parts: _RateParts, lab: np.ndarray) -> np.ndarray:
    ii, jj = space.pair_indices()
    return parts.phi_out[ii] * parts.phi_in[jj] * parts.Lambda[lab[ii], lab[jj]]


# -- mixture profile optimization ---------------------------------------------


def _mixture_profile(counts: np.ndarray, rates: np.ndarray):
    """One cell's profile log-likelihood as a function of q in (0, 1].

    The value at q is _zip_loglik(counts, q, rates / q). With the mean
    counts r held fixed, a positive pair contributes
    log q + c log(r / q) - r / q - log c!, so the positive pairs sum to

        S1 log q - S2 / q + K,  S1 = M - m,  S2 = sum r,  K = sum (c log r - log c!),

    with K taken once (-inf if a positive pair has r <= 0). A zero pair
    contributes log((1 - q) + q e^{-r/q}), whose two terms are
    non-negative; q == 1 is taken exactly as -r, so the endpoint stays
    finite where e^{-r} underflows. One evaluation costs O(zero pairs).
    """
    zero = counts == 0
    neg_r0 = -rates[zero]
    cp, rp = counts[~zero], rates[~zero]
    s1 = float(cp.size - cp.sum())
    s2 = float(rp.sum())
    if np.any(rp <= 0.0):
        k = -math.inf
    else:
        k = float(np.sum(cp * np.log(rp) - special.gammaln(cp + 1.0)))
    at_one = float(neg_r0.sum())

    def profile(q) -> float:
        if q == 1.0:
            zeros = at_one
        else:  # in place: one temporary array instead of five
            t = neg_r0 / q
            np.exp(t, out=t)
            t *= q
            t += 1.0 - q
            zeros = float(np.log(t, out=t).sum())
        return s1 * math.log(q) - s2 / q + k + zeros

    return profile


def _optimize_mixture(counts: np.ndarray, rates: np.ndarray, cfg: OptimizerConfig) -> tuple:
    """Maximize the profile likelihood over the mixture weight q.

    ``rates`` holds the moment-locked mean counts r_ij, so the Poisson
    rate is r_ij / q and the expected multi-edges match the data for
    every q. The profile is unimodal on [links/pairs, 1], so one bounded
    Brent search there, which also scores both ends, finds its maximum.
    Returns (q_hat, value, iterations, converged).
    """
    q_lo = np.count_nonzero(counts) / counts.size + _EPS_Q
    profile = _mixture_profile(counts, rates)
    if q_lo >= 1.0:
        return 1.0, profile(1.0), 0, True
    res = maximize_scalar_bounded(profile, q_lo, 1.0, cfg)
    return res.x, res.value, res.iterations, res.converged


# -- fitting -------------------------------------------------------------------


def _base_diag(g: MultiGraph, parts: Optional[_RateParts]) -> dict:
    diag = {"converged": True, "iterations": 0}
    if parts is not None:
        diag["exact_moments"] = parts.exact
        diag["refine_iterations"] = parts.iterations
        if not parts.exact:
            diag["moment_residual"] = parts.residual
    return diag


def _require_blocks(family: ModelFamily, blocks: Optional[BlockAssignment], g: MultiGraph) -> BlockAssignment:
    if family.needs_blocks:
        if blocks is None:
            raise DataError(f"family {family.value} requires a block assignment")
        return blocks
    if blocks is not None:
        raise DataError(f"family {family.value} does not take blocks")
    return single_block(g.n_nodes)


def _check_block_degrees(tall: BlockTallies) -> None:
    for b in range(len(tall.n_per_block)):
        if tall.kappa_out[b] == 0 or tall.kappa_in[b] == 0:
            raise DataError(f"block {b} has zero degree; cannot fit degree-corrected rates")


def _over(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """x / q where q > 0, else 0."""
    return np.where(q > 0, x / np.where(q > 0, q, 1.0), 0.0)


def _zignp_closed_form(m: float, M: float, P: float) -> tuple:
    """Mixture and rate solving E[m] = m and E[links] = M on P pairs.

    Returns (q, lambda, fallback_reason). Binary counts (m == M) and data
    denser than the Poisson saturation bound collapse to the plain
    Poisson boundary q = 1. Otherwise both moment equations must hold at
    the solution to 1e-9 relative, or NumericalError is raised.
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
    lam = m / (P * q)
    em, eM = q * lam * P, q * P * (1.0 - math.exp(-lam))
    if abs(em - m) > 1e-9 * m or abs(eM - M) > 1e-9 * M:
        raise NumericalError(f"moment equations violated: E[m]={em} vs {m}, E[M]={eM} vs {M}")
    return q, lam, None


def _block_pair_groups(space: PairSpace, lab: np.ndarray, B: int) -> dict:
    """Pair-array index slices grouped by (canonical) block pair."""
    ii, jj = space.pair_indices()
    b, d = lab[ii], lab[jj]
    if not space.directed:
        b, d = np.minimum(b, d), np.maximum(b, d)
    code = b * B + d
    # a stable sort of 16-bit keys is a radix sort; its order is the same
    order = np.argsort(code.astype(np.uint16) if B <= 256 else code, kind="stable")
    code = code[order]
    starts = np.flatnonzero(code[1:] != code[:-1]) + 1
    return {divmod(int(code[k]), B): sel for k, sel in zip(np.r_[0, starts], np.split(order, starts))}


def _fit(family: ModelFamily, g: MultiGraph, blocks: Optional[BlockAssignment],
         cfg: Optional[OptimizerConfig] = None, constraints=None) -> FittedModel:
    """Fit any family as its block form (_KIND).

    Block tallies come first, then each block pair's rates: the pair mean
    m_bd / P_bd, or the moment-locked phi_out phi_in Lambda. The mixture
    stage fits q per block pair, by zi_gnp's closed form or a profile
    search (empty pairs keep q = 0), or as node factors; lambda is then
    Lambda / q, over the constraint vector's outer product. A family
    without blocks is its block form on one block, with the fitted 1x1
    lambda folded into p or into theta = phi sqrt(lambda).
    """
    corrected, mixture, on_blocks = _KIND[family]
    blk = _require_blocks(family, blocks, g)
    tall = block_tallies(g, blk)
    if g.n_multiedges == 0:
        raise DataError("cannot fit an empty graph (no multi-edges)")
    B, lab = blk.n_blocks, blk.as_array()
    cvec = _constraint_vector(constraints, B)
    parts = None
    if corrected:
        _check_block_degrees(tall)
        parts = _decompose_rates(g, blk, tall)
    diag = _base_diag(g, parts)
    # the block pairs with multi-edges, b <= d when undirected
    cells = [(b, d) for b in range(B) for d in range(0 if g.directed else b, B) if tall.m[b, d] > 0]
    rows, cols = np.array(cells).T

    def by_cell(values) -> np.ndarray:
        mat = np.zeros((B, B))
        mat[rows, cols] = values
        if not g.directed:
            mat[cols, rows] = values
        return mat

    qmat, q_out, q_in = np.ones((B, B)), None, None
    if mixture == "closed":
        qs, lams, reasons = zip(*(_zignp_closed_form(float(tall.m[c]), float(tall.links[c]),
                                                     float(tall.pairs[c])) for c in cells))
        qmat, lam = by_cell(qs), by_cell(lams)
        fallbacks = [r for r in reasons if r]
        if fallbacks and on_blocks:
            diag["block_fallbacks"] = len(fallbacks)
        elif fallbacks:
            diag["fallback"] = fallbacks[0]
    else:
        if mixture == "profile":
            rates, counts = _mean_rate_array(g.space, parts, lab), g.count_vector()
            groups, cfg = _block_pair_groups(g.space, lab, B), cfg or OptimizerConfig()
            qs, values, iters, oks = zip(*(_optimize_mixture(counts[groups[c]], rates[groups[c]], cfg)
                                           for c in cells))
            qmat = by_cell(qs)
            diag.update(iterations=sum(iters), converged=all(oks), loglik=sum(values))
            if on_blocks:
                diag["n_mixture_problems"] = B * B if g.directed else B * (B + 1) // 2
        elif mixture == "node":
            q_out, q_in, qmat = _fit_node_factors(g, lab, parts, cells if on_blocks else [], cfg, diag)
            # block cells with no activity get q = 0 so sampling stays consistent
            qmat = np.where(tall.m > 0, qmat, 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            Lambda = parts.Lambda if corrected else np.where(tall.pairs > 0, tall.m / tall.pairs, 0.0)
        lam = _over(Lambda, qmat) / np.outer(cvec, cvec)

    theta_out = theta_in = None
    constraint = {}
    if corrected:
        scale = cvec[lab] if on_blocks else math.sqrt(lam[0, 0])
        theta_out, theta_in = parts.phi_out * scale, parts.phi_in * scale
        if q_out is not None:  # divided last: theta = (phi scale) / q
            theta_out, theta_in = _over(theta_out, q_out), _over(theta_in, q_in)
        if not g.directed:
            theta_in = theta_out
        effective = "_effective" if mixture == "node" else ""
        constraint = {"type": ("block_theta_sum" if on_blocks else "theta_sum") + effective,
                      "values": list(map(float, cvec)) if on_blocks else [scale]}
        if on_blocks and mixture == "node":
            constraint["block_q"] = "pair"
    folded = not on_blocks
    model = FittedModel(
        family, g.space, node_ids=g.node_ids, blocks=None if folded else blk,
        p=float(lam[0, 0]) if folded and not corrected else None,
        lambda_blocks=None if folded else lam, theta_out=theta_out, theta_in=theta_in,
        q_global=float(qmat[0, 0]) if folded and mixture in ("closed", "profile") else None,
        q_blocks=qmat if on_blocks and mixture else None, q_nodes_out=q_out, q_nodes_in=q_in,
        constraint=constraint, diagnostics=diag)
    if "loglik" not in diag:
        diag["loglik"] = log_likelihood(model, g)
    return model


def fit_poisson(family, g: MultiGraph, blocks: Optional[BlockAssignment] = None) -> FittedModel:
    """Fit a plain Poisson family (GNP, SBM, CLCM or DCSBM).

    Rate parameters come from the first-moment equations, so all
    expected totals (multi-edges, block tallies, degrees) reproduce the
    observations to near machine precision. For clcm and dcsbm on pair
    spaces without self-loops the degrees come from a per-block fixed
    point; ``diagnostics["exact_moments"]`` is False if it failed.
    """
    family = ModelFamily(family)
    if family.zero_inflated:
        raise DataError(f"{family.value} is not a plain family")
    return _fit(family, g, blocks)


def fit_zi_gnp(g: MultiGraph) -> FittedModel:
    """Closed-form fit of the zero-inflated G(N,p) model: zi_sbm on one block."""
    return _fit(ModelFamily.ZI_GNP, g, None)


def fit_zi_sbm(g: MultiGraph, blocks: BlockAssignment) -> FittedModel:
    """Per-block-pair closed-form fit of the zero-inflated SBM.

    Each block pair is an independent zi-G(N,p) problem on its own
    pairs. Degenerate cells get conventions instead of errors:
    empty cells (q, lambda) = (0, 0), binary or over-dense cells the
    plain boundary q = 1.
    """
    return _fit(ModelFamily.ZI_SBM, g, blocks)


def fit_zi_clcm(g: MultiGraph, cfg: Optional[OptimizerConfig] = None) -> FittedModel:
    """Fit the zero-inflated Chung-Lu configuration model: zi_dcsbm with
    one block, parameterized as theta_i = phi_i sqrt(Lambda / q).

    Node rates are tied to observed degrees through the first-moment
    equations; the single mixture weight maximizes the resulting
    profile log-likelihood over (M/P, 1].
    """
    return _fit(ModelFamily.ZI_CLCM, g, None, cfg)


def fit_zi_dcsbm(g: MultiGraph, blocks: BlockAssignment,
                 cfg: Optional[OptimizerConfig] = None,
                 constraints=None) -> FittedModel:
    """Fit the zero-inflated degree-corrected SBM.

    Node and block rates are fixed in closed form by the first-moment
    equations (block theta sums constrained to ``constraints``, default
    1). Each block pair's mixture weight is then an independent
    one-dimensional profile-likelihood problem.
    """
    return _fit(ModelFamily.ZI_DCSBM, g, blocks, cfg, constraints)


def _constraint_vector(constraints, B: int) -> np.ndarray:
    if constraints is None:
        return np.ones(B)
    c = np.asarray(constraints, dtype=np.float64)
    if c.ndim == 0:
        c = np.full(B, float(c))
    if c.shape != (B,) or np.any(c <= 0):
        raise DataError("constraints must be positive, one per block")
    return c


class _NodeMixture:
    """Node-level mixture log-likelihood as a function of the free factors x.

    Pair p's mixture weight q_p is the product of three entries of the
    factor vector [x, 1, 0], found at its ``slots``: the out-node factor,
    the in-node factor and the block factor. The mean count r_p is fixed
    by the moment equations, so lambda_p = r_p / q_p.

    Along one free factor v, every pair it touches has q_p = v a_p, with
    a_p the product of the pair's two other factors (no pair carries a
    free factor twice: undirected pair spaces have no loops). Up to a
    constant, the log-likelihood along v is then

        S1 log v - S2 / v + sum over its zero pairs of log P0(v a_p, r_p / (v a_p)),

    where S1 = sum (1 - c_p) and S2 = sum r_p / a_p over its positive pairs.
    """

    def __init__(self, counts: np.ndarray, rates: np.ndarray, slots: tuple, n_free: int):
        self.counts, self.rates, self.slots = counts, rates, slots
        so, si, sc = slots
        # one entry per (pair, slot of that pair) with the pair's two other
        # slots; pairs next to a zero-degree node keep q = 0 and get none
        key = np.concatenate(slots)
        other = np.stack((np.concatenate((si, so, so)), np.concatenate((sc, sc, si))))
        pair = np.tile(np.arange(counts.size), 3)
        keep = (key < n_free) & np.all(other != n_free + 1, axis=0)
        # CSR by slot: each coordinate's positive pairs, then its zero pairs
        code = 2 * key[keep] + (counts[pair[keep]] == 0)
        order = np.argsort(code, kind="stable")
        self._bounds = np.searchsorted(code[order], np.arange(2 * n_free + 1))
        sel = np.flatnonzero(keep)[order]
        self._other = other[:, sel]
        self._r = rates[pair[sel]]
        c = counts[pair[sel]]
        pos = c > 0
        self._s1 = np.bincount(key[sel][pos], weights=1.0 - c[pos], minlength=n_free)

    def factors(self, x: np.ndarray) -> np.ndarray:
        return np.concatenate((x, [1.0, 0.0]))

    def loglik(self, x: np.ndarray) -> float:
        qf = self.factors(x)
        so, si, sc = self.slots
        q = qf[so] * qf[si] * qf[sc]
        return _zip_loglik(self.counts, q, _over(self.rates, q))

    def coordinate(self, x: np.ndarray, k: int):
        """The log-likelihood along x[k], up to a constant."""
        qf = self.factors(x)
        lo, mid, hi = self._bounds[2 * k:2 * k + 3]
        a = qf[self._other[0, lo:hi]] * qf[self._other[1, lo:hi]]
        s1 = float(self._s1[k])
        s2 = float(np.sum(self._r[lo:mid] / a[:mid - lo]))
        a0, r0 = a[mid - lo:], self._r[mid:hi]

        def along(v):
            q = v * a0
            return s1 * math.log(v) - s2 / v + float(_log_p0(q, r0 / q).sum())

        return along


def _fit_node_factors(g: MultiGraph, lab: np.ndarray, parts: _RateParts, cells: list,
                      cfg: Optional[OptimizerConfig], diag: dict) -> tuple:
    """The node-level mixture factors by coordinate ascent (fit_zi_node_level).

    The free factors are the node factors of the nodes with positive
    degree and one factor per block pair in ``cells``. Returns (q_out,
    q_in, Q) and records the ascent in ``diag``.
    """
    B = len(parts.Lambda)
    rates = _mean_rate_array(g.space, parts, lab)
    ii, jj = g.space.pair_indices()
    kout, kin = degrees(g)
    out_free = np.where(kout > 0)[0]
    in_free = np.where(kin > 0)[0] if g.directed else np.array([], dtype=np.int64)
    n_params = len(out_free) + len(in_free) + len(cells)
    cfg = cfg or OptimizerConfig(max_iterations=max(2000, 20 * n_params))
    # slot of each factor in the vector [x, 1, 0]: fixed block factors
    # are 1, the node factors of zero-degree nodes 0
    one, zero = n_params, n_params + 1
    slot_out = np.full(g.n_nodes, zero)
    slot_out[out_free] = np.arange(len(out_free))
    if g.directed:
        slot_in = np.full(g.n_nodes, zero)
        slot_in[in_free] = len(out_free) + np.arange(len(in_free))
    else:
        slot_in = slot_out
    slot_cell = np.full((B, B), one)
    base = len(out_free) + len(in_free)
    for k, (b, d) in enumerate(cells):
        slot_cell[b, d] = base + k
        if not g.directed:
            slot_cell[d, b] = base + k
    mix = _NodeMixture(g.count_vector(), rates,
                       (slot_out[ii], slot_in[jj], slot_cell[lab[ii], lab[jj]]), n_params)
    res = maximize_box_constrained(mix.loglik, np.ones(n_params), np.full(n_params, 1e-6),
                                   np.ones(n_params), cfg, coordinate=mix.coordinate)
    diag.update(iterations=res.iterations, converged=res.converged,
                n_free_parameters=n_params, loglik=res.value)
    qf = mix.factors(res.x)
    return qf[slot_out], qf[slot_in], qf[slot_cell]


def fit_zi_node_level(g: MultiGraph, blocks: Optional[BlockAssignment] = None,
                      cfg: Optional[OptimizerConfig] = None) -> FittedModel:
    """Fit a model with node-level zero-inflation factors.

    The mixture weight of pair (i, j) is q_out_i * q_in_j, times the
    block factor q_{b_i b_j} when ``blocks`` is given. Node rates stay
    tied to degrees through the first-moment equations, which makes the
    mean count of every pair independent of the mixture parameters;
    those are found by box-constrained coordinate ascent on [1e-6, 1],
    where each coordinate's search evaluates only the pairs that factor
    touches (``_NodeMixture.coordinate``), so one sweep costs O(P). In a
    directed space the block factors q_bd and q_db are separate.
    Zero-degree nodes get q = 0 and are excluded from the optimization.
    Without ``cfg`` the step budget is max(2000, 20 x free factors), twenty
    sweeps, so it grows with the problem; ``cfg.max_iterations`` counts
    coordinate steps. ``diagnostics["loglik"]`` is the full log-likelihood
    at the result.
    """
    family = ModelFamily.ZI_CLCM_NODE if blocks is None else ModelFamily.ZI_DCSBM_NODE
    return _fit(family, g, blocks, cfg)


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
    elif blocks is None:  # else fit_zi_node_level(g, None) fits zi_clcm_node
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
        e_out = e_in = e_out + e_in
    return e_out, e_in


def expected_count_distribution(model: FittedModel, max_count: int):
    """Expected fraction of pairs per count 0..max_count plus a tail bucket."""
    from .metrics import model_count_histogram
    if max_count < 1:
        raise ValueError("max_count must be at least 1")
    return model_count_histogram(model, np.arange(max_count + 2))


def sample(model: FittedModel, seed: int) -> MultiGraph:
    """Draw one realization: Bernoulli(q_ij) gating a Poisson(lambda_ij)."""
    rng = np.random.default_rng(seed)
    q, lam = _pair_arrays(model)
    ii, jj = model.space.pair_indices()
    active = rng.random(q.size) < q
    counts = np.zeros(q.size, dtype=np.int64)
    if np.any(active):
        counts[active] = rng.poisson(lam[active])
    nz = np.flatnonzero(counts)  # the constructor drops zeros too, but over all P pairs
    node_ids = model.node_ids or tuple(f"v{k}" for k in range(model.space.n))
    return MultiGraph(node_ids, (ii[nz], jj[nz], counts[nz]), model.space.directed,
                      model.space.loops)


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


# the non-null parameter fields of each family's model JSON
_MODEL_FIELDS = {
    "gnp": "p", "sbm": "blocks lambda", "clcm": "theta_out theta_in",
    "dcsbm": "blocks lambda theta_out theta_in", "zi_gnp": "p q",
    "zi_sbm": "blocks lambda q_blocks", "zi_clcm": "theta_out theta_in q",
    "zi_dcsbm": "blocks lambda theta_out theta_in q_blocks",
    "zi_clcm_node": "theta_out theta_in q_nodes",
    "zi_dcsbm_node": "blocks lambda theta_out theta_in q_blocks q_nodes",
}


def model_from_json(obj: dict) -> FittedModel:
    """The model a JSON object describes. Its non-null parameter fields
    must be exactly its family's (_MODEL_FIELDS), with theta and q_nodes
    of length N, lambda and q_blocks B x B, blocks of length N, finite
    non-negative numbers (not strings or booleans) and mixture weights at
    most 1; anything else raises DataError. Parameters are stored as
    floats."""
    try:
        return _model_from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"invalid model JSON: {exc}") from None


def _is_number(v) -> bool:
    """A JSON number, or nested lists of them; booleans and strings are not."""
    return all(map(_is_number, v)) if isinstance(v, list) else type(v) in (int, float)


def _model_from_json(obj: dict) -> FittedModel:
    ps = obj["pair_space"]
    if type(ps["n"]) is not int:  # bool and float are malformed too
        raise DataError(f"invalid model JSON: node count {ps['n']!r} is not an integer")
    space = PairSpace(ps["n"], ps["directed"], ps["loops"])
    family = ModelFamily(obj["family"])
    given = {k for k in "blocks p lambda theta_out theta_in q q_blocks q_nodes".split()
             if obj.get(k) is not None}
    if given != set(_MODEL_FIELDS[family.value].split()):
        raise DataError(f"invalid model JSON: family {family.value} takes the fields "
                        f"{_MODEL_FIELDS[family.value]}, not {' '.join(sorted(given))}")
    constraint = obj.get("constraint") or {}
    if constraint.get("block_q", "pair") != "pair":
        raise DataError(f"invalid model JSON: unknown block_q {constraint['block_q']!r}")
    for key in ("node_ids", "blocks"):
        if obj.get(key) is not None and len(obj[key]) != space.n:
            raise DataError(f"invalid model JSON: {key} must have one entry per node")
    blocks = None if obj.get("blocks") is None else BlockAssignment(labels=tuple(obj["blocks"]))
    n, B = space.n, blocks.n_blocks if blocks else 1
    pairs = [(k, obj[k]) for k in sorted(given - {"blocks", "q_nodes"})]
    if "q_nodes" in given:
        pairs += [("q_out", obj["q_nodes"]["out"]), ("q_in", obj["q_nodes"]["in"])]
    for k, v in pairs:
        if not _is_number(v):
            raise DataError(f"invalid model JSON: {k} must hold numbers only")
    par = {k: np.asarray(v, dtype=np.float64) for k, v in pairs}
    for k, v in par.items():
        shape = {"p": (), "q": (), "lambda": (B, B), "q_blocks": (B, B)}.get(k, (n,))
        if v.shape != shape:
            raise DataError(f"invalid model JSON: {k} has shape {v.shape}, not {shape}")
        if not np.all(np.isfinite(v) & (v >= 0)) or (k.startswith("q") and np.any(v > 1)):
            raise DataError(f"invalid model JSON: {k} must be finite, non-negative"
                            f"{' and at most 1' if k.startswith('q') else ''}")
    tie = not space.directed
    return FittedModel(
        family=family,
        space=space,
        node_ids=tuple(obj["node_ids"]) if obj.get("node_ids") else None,
        blocks=blocks,
        p=float(par["p"]) if "p" in par else None,
        lambda_blocks=par.get("lambda"),
        theta_out=par.get("theta_out"),
        theta_in=par.get("theta_out" if tie else "theta_in"),
        q_global=float(par["q"]) if "q" in par else None,
        q_blocks=par.get("q_blocks"),
        q_nodes_out=par.get("q_out"),
        q_nodes_in=par.get("q_out" if tie else "q_in"),
        constraint=constraint,
        diagnostics=obj.get("diagnostics") or {},
    )


def save_model(model: FittedModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_json(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> FittedModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(json.load(fh))
