"""Scalar special functions, bounded optimizers, an eigensolver wrapper
and a two-sample significance test.

These are the numerical kernels behind model fitting and the ensemble
metrics; they are deliberately small, deterministic and derivative-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from .exceptions import NumericalError

__all__ = [
    "OptimizerConfig",
    "OptResult",
    "TTestResult",
    "lambert_w0",
    "maximize_scalar_bounded",
    "maximize_box_constrained",
    "second_smallest_eigenvalue",
    "welch_t_test",
]

_INV_E = math.exp(-1.0)
_GOLDEN = 0.3819660112501051  # 2 - golden ratio


@dataclass(frozen=True)
class OptimizerConfig:
    """Convergence controls shared by the scalar and box optimizers."""

    abs_tolerance: float = 1e-10       # on the argument (scalar)
    rel_ll_tolerance: float = 1e-8     # on the objective (multivariate)
    max_iterations: int = 200          # scalar; pass 2000 for multivariate

    def __post_init__(self):
        if self.abs_tolerance <= 0 or self.rel_ll_tolerance <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class OptResult:
    """Optimizer output: argmax, attained value and termination info."""

    x: object
    value: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class TTestResult:
    t_statistic: float
    degrees_of_freedom: float
    p_value: float


def lambert_w0(z: float) -> float:
    """Principal branch of Lambert's W, solving w * exp(w) = z.

    Defined for z >= -1/e; arguments within 1e-15 (relative) below the
    branch point are clamped to it, where W = -1. Elsewhere a thin wrapper
    over ``scipy.special.lambertw`` (Corless et al. 1996), whose residual
    |w e^w - z| stays below about 1e-15 * max(1, |z|).
    """
    z = float(z)
    if math.isnan(z):
        raise NumericalError("lambert_w0: argument is NaN")
    if z <= -_INV_E:
        # scipy returns nan at the branch point itself
        if z <= -_INV_E - 1e-15 * max(1.0, abs(z)):
            raise NumericalError(f"lambert_w0: argument {z} below -1/e")
        return -1.0
    return float(special.lambertw(z).real)


def _check_finite(fx: float, x: float) -> float:
    if not math.isfinite(fx):
        raise NumericalError(f"objective is not finite at x={x!r} (value {fx!r})")
    return fx


def maximize_scalar_bounded(
    objective: Callable[[float], float],
    lo: float,
    hi: float,
    cfg: OptimizerConfig = OptimizerConfig(),
) -> OptResult:
    """Maximize a smooth scalar function on [lo, hi].

    Golden-section search with parabolic interpolation steps (Brent).
    Both endpoints are evaluated and compete with the interior optimum,
    so boundary maxima are returned exactly.
    """
    if not (lo < hi):
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")

    def f(x):
        return _check_finite(float(objective(x)), x)

    tol = cfg.abs_tolerance
    a, b = lo, hi
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    iterations = 0
    converged = False
    for iterations in range(1, cfg.max_iterations + 1):
        mid = 0.5 * (a + b)
        tol1 = tol + 4.0 * np.finfo(float).eps * abs(x)
        tol2 = 2.0 * tol1
        if abs(x - mid) <= tol2 - 0.5 * (b - a):
            converged = True
            break
        use_golden = True
        if abs(e) > tol1:
            # try a parabolic step through (v, w, x)
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev = e
            e = d
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                d = p / q
                u = x + d
                if (u - a) < tol2 or (b - u) < tol2:
                    d = math.copysign(tol1, mid - x)
                use_golden = False
        if use_golden:
            e = (b if x < mid else a) - x
            d = _GOLDEN * e
        u = x + d if abs(d) >= tol1 else x + math.copysign(tol1, d)
        fu = f(u)
        if fu >= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, w = w, u
                fv, fw = fw, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    # endpoints compete with the interior candidate
    f_lo, f_hi = f(lo), f(hi)
    best_x, best_f = x, fx
    if f_hi > best_f:
        best_x, best_f = hi, f_hi
    if f_lo > best_f:
        best_x, best_f = lo, f_lo
    return OptResult(x=float(best_x), value=float(best_f), iterations=iterations, converged=converged)


def maximize_box_constrained(
    objective: Callable[[np.ndarray], float],
    x0,
    lower,
    upper,
    cfg: OptimizerConfig = OptimizerConfig(max_iterations=2000),
) -> OptResult:
    """Maximize over a box by cyclic coordinate ascent.

    Each coordinate is optimized with the bounded scalar search while
    the others are held fixed; the objective never decreases. Terminates
    when a complete sweep improves the objective by less than
    ``rel_ll_tolerance`` (relative), which sets ``converged``, or when
    ``max_iterations`` coordinate steps have been spent.
    """
    x = np.array(x0, dtype=np.float64).copy()
    lo = np.asarray(lower, dtype=np.float64)
    hi = np.asarray(upper, dtype=np.float64)
    if x.shape != lo.shape or x.shape != hi.shape:
        raise ValueError("x0, lower and upper must share a shape")
    if np.any(lo > hi):
        raise ValueError("lower bound exceeds upper bound")
    if np.any(x < lo) or np.any(x > hi):
        raise ValueError("x0 is infeasible")

    def f(vec):
        val = float(objective(vec))
        if not math.isfinite(val):
            raise NumericalError(f"objective is not finite at x={vec!r}")
        return val

    fx = f(x)
    n = x.size
    scalar_cfg = OptimizerConfig(
        abs_tolerance=max(cfg.abs_tolerance, 1e-12),
        rel_ll_tolerance=cfg.rel_ll_tolerance,
        max_iterations=100,
    )
    steps = 0
    converged = False
    while steps < cfg.max_iterations:
        f_sweep_start = fx
        for k in range(n):
            if steps >= cfg.max_iterations:
                break
            steps += 1
            if lo[k] == hi[k]:
                continue

            def coord(val, k=k):
                trial = x.copy()
                trial[k] = val
                return f(trial)

            res = maximize_scalar_bounded(coord, lo[k], hi[k], scalar_cfg)
            if res.value > fx:
                x[k] = res.x
                fx = res.value
        else:  # only a complete sweep may declare convergence
            if fx - f_sweep_start <= cfg.rel_ll_tolerance * max(1.0, abs(fx)):
                converged = True
                break
    return OptResult(x=x, value=fx, iterations=steps, converged=converged)


def second_smallest_eigenvalue(matrix, symmetric_hint: bool = False) -> float:
    """Second-smallest eigenvalue of a square real matrix with a real
    spectrum (e.g. a random-walk Laplacian).

    The smallest eigenvalue is asserted to be ~0 (|lambda_1| <= 1e-8),
    which holds for Laplacians of connected or disconnected graphs.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if a.shape[0] < 2:
        raise NumericalError("need at least a 2x2 matrix")
    try:
        if symmetric_hint:
            vals, vecs = np.linalg.eigh(a)
            # reconstruction check on the returned pair
            v = vecs[:, 1]
            resid = np.linalg.norm(a @ v - vals[1] * v)
            if resid > 1e-8 * max(1.0, np.linalg.norm(v)):
                raise NumericalError(f"eigenpair residual too large: {resid:g}")
        else:
            cv = np.linalg.eigvals(a)
            if np.max(np.abs(cv.imag)) > 1e-8 * max(1.0, np.max(np.abs(cv))):
                raise NumericalError("matrix has a significantly complex spectrum")
            vals = np.sort(cv.real)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from exc
    if abs(vals[0]) > 1e-8 * max(1.0, abs(vals[-1])):
        raise NumericalError(f"smallest eigenvalue {vals[0]:g} is not ~0; not a Laplacian?")
    return float(vals[1])


def welch_t_test(sample_a, sample_b) -> TTestResult:
    """Welch's unequal-variance t-test with a two-sided p-value.

    The p-value comes from the Student-t distribution function,
    evaluated through the regularized incomplete beta.
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise NumericalError("each sample needs at least two values")
    va = a.var(ddof=1)
    vb = b.var(ddof=1)
    if not (np.isfinite(va) and np.isfinite(vb)) or (va == 0.0 and vb == 0.0):
        raise NumericalError("degenerate samples: zero variance in both")
    sa = va / a.size
    sb = vb / b.size
    se2 = sa + sb
    t = (a.mean() - b.mean()) / math.sqrt(se2)
    dof = se2 * se2 / (sa * sa / (a.size - 1) + sb * sb / (b.size - 1))
    if t == 0.0:
        p = 1.0
    else:
        x = dof / (dof + t * t)
        p = float(special.betainc(dof / 2.0, 0.5, x))
    return TTestResult(t_statistic=float(t), degrees_of_freedom=float(dof), p_value=min(max(p, 0.0), 1.0))
