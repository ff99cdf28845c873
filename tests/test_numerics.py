import math

import numpy as np
import pytest
import scipy.optimize
import scipy.stats

from zipnets import (
    NumericalError,
    OptimizerConfig,
    lambert_w0,
    maximize_box_constrained,
    maximize_scalar_bounded,
    second_smallest_eigenvalue,
    welch_t_test,
)


def _w_bisection(z):
    """Independent Lambert-W oracle: bisection on w e^w = z."""
    lo, hi = -1.0, max(1.0, math.log(max(z, 1.0)) + 1.0)
    if z < 0:
        lo, hi = -1.0, 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < z:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestLambertW:
    def test_zero(self):
        assert lambert_w0(0.0) == 0.0

    def test_branch_point(self):
        assert lambert_w0(-1.0 / math.e) == -1.0

    def test_unit_against_bisection(self):
        assert lambert_w0(1.0) == pytest.approx(_w_bisection(1.0), abs=1e-12)
        assert lambert_w0(1.0) == pytest.approx(0.5671432904097838, abs=1e-14)

    def test_domain_error(self):
        with pytest.raises(NumericalError):
            lambert_w0(-0.5)

    def test_residual_on_grid(self):
        zs = np.concatenate([
            -1.0 / math.e + np.logspace(-9, -0.5, 300),
            np.logspace(-9, 6, 300),
            [-0.01, -0.25, -0.35, 0.5, 2.0, math.e],
        ])
        for z in zs:
            w = lambert_w0(float(z))
            assert abs(w * math.exp(w) - z) <= 1e-12 * max(1.0, abs(z))
            assert w >= -1.0

    def test_monotone(self):
        zs = np.concatenate([-1.0 / math.e + np.logspace(-9, -0.46, 200),
                             np.logspace(-6, 5, 200)])
        ws = [lambert_w0(float(z)) for z in np.sort(zs)]
        assert all(b >= a for a, b in zip(ws, ws[1:]))


class TestScalarMaximizer:
    def test_quadratic(self):
        res = maximize_scalar_bounded(lambda x: -(x - 0.3) ** 2, 0.0, 1.0)
        assert res.x == pytest.approx(0.3, abs=1e-10)

    def test_boundary(self):
        res = maximize_scalar_bounded(lambda x: x, 0.0, 1.0)
        assert res.x == 1.0 and res.value == 1.0

    def test_never_below_endpoints(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            c = rng.uniform(-2, 2, size=4)
            f = lambda x, c=c: c[0] + c[1] * x + c[2] * math.sin(3 * x) + c[3] * x * x
            res = maximize_scalar_bounded(f, -1.0, 2.0)
            floor = max(f(-1.0), f(2.0), f(0.5))
            assert res.value >= floor - 1e-12

    def test_nonfinite_objective(self):
        with pytest.raises(NumericalError):
            maximize_scalar_bounded(lambda x: float("nan"), 0.0, 1.0)

    def test_zip_profile_against_dense_grid(self):
        # profile log-likelihood of a univariate zero-inflated Poisson
        # sample, with the rate tied to the mean; oracle is a 1e6-point scan
        rng = np.random.default_rng(10)
        active = rng.random(400) < 0.35
        xs = np.where(active, rng.poisson(4.0, size=400), 0)
        n = len(xs)
        n0 = int(np.sum(xs == 0))
        s = float(xs.sum())
        mean = s / n
        logfact = float(np.sum(scipy.special.gammaln(xs[xs > 0] + 1.0)))

        def profile(q):
            lam = mean / q
            return (n0 * np.log((1 - q) + q * np.exp(-lam))
                    + (n - n0) * np.log(q) + s * np.log(lam) - (n - n0) * lam - logfact)

        lo = (n - n0) / n + 1e-9
        grid = np.linspace(lo, 1.0, 10 ** 6)
        vals = profile(grid)
        q_grid = float(grid[np.argmax(vals)])
        res = maximize_scalar_bounded(profile, lo, 1.0)
        assert res.x == pytest.approx(q_grid, abs=1e-6)


class TestBoxMaximizer:
    def test_separable_quadratic(self):
        c = np.array([0.2, 0.5, 0.8])
        res = maximize_box_constrained(lambda x: -np.sum((x - c) ** 2),
                                       np.full(3, 0.5), np.zeros(3), np.ones(3))
        assert np.allclose(res.x, c, atol=1e-6)
        assert res.converged

    def test_truncated_sweep_not_converged(self):
        # the one-step budget stops the first sweep after x0, which cannot
        # gain while x1 sits at 0.1; the maximum 0 is at x0 = x1 = 0.9
        def f(x):
            return -(x[0] - x[1]) ** 2 - (x[1] - 0.9) ** 2

        res = maximize_box_constrained(f, np.array([0.1, 0.1]), np.zeros(2), np.ones(2),
                                       OptimizerConfig(max_iterations=1))
        assert res.iterations == 1
        assert res.value == pytest.approx(-0.64)
        assert not res.converged
        full = maximize_box_constrained(f, np.array([0.1, 0.1]), np.zeros(2), np.ones(2))
        assert full.converged and full.value > -1e-6

    def test_clamped_boundary(self):
        c = np.array([1.5, -0.2])
        res = maximize_box_constrained(lambda x: -np.sum((x - c) ** 2),
                                       np.full(2, 0.5), np.zeros(2), np.ones(2))
        assert np.allclose(res.x, [1.0, 0.0], atol=1e-8)

    def test_infeasible_start(self):
        with pytest.raises(ValueError):
            maximize_box_constrained(lambda x: 0.0, np.array([2.0]),
                                     np.zeros(1), np.ones(1))

    def test_objective_never_decreases(self):
        values = []

        def f(x):
            v = -np.sum((x - 0.3) ** 4) + np.sum(np.cos(2 * x))
            return v

        res = maximize_box_constrained(f, np.full(4, 0.9), np.zeros(4), np.ones(4))
        assert res.value >= f(np.full(4, 0.9)) - 1e-12

    def test_node_level_zi_likelihood_vs_grid_refinement(self):
        # 5-node zero-inflated likelihood in the per-node mixture weights;
        # oracle refines each coordinate on a dense grid at the optimum
        rng = np.random.default_rng(3)
        n = 5
        theta = rng.uniform(0.8, 1.5, size=n)
        q_true = rng.uniform(0.3, 0.9, size=n)
        ii, jj = np.triu_indices(n, k=1)
        lam = 4.0 * theta[ii] * theta[jj]
        active = rng.random(len(ii)) < q_true[ii] * q_true[jj]
        counts = np.where(active, rng.poisson(lam), 0)

        def loglik(qv):
            q = qv[ii] * qv[jj]
            zero = counts == 0
            out = float(np.sum(np.log((1 - q[zero]) + q[zero] * np.exp(-lam[zero]))))
            out += float(np.sum(np.log(q[~zero]) + counts[~zero] * np.log(lam[~zero])
                                - lam[~zero]))
            return out

        res = maximize_box_constrained(loglik, np.full(n, 0.9),
                                       np.full(n, 1e-4), np.ones(n),
                                       OptimizerConfig(max_iterations=2000))
        best = res.value
        for k in range(n):
            grid = np.linspace(1e-4, 1.0, 4001)
            vals = []
            for v in grid:
                x = res.x.copy()
                x[k] = v
                vals.append(loglik(x))
            assert best >= max(vals) - 1e-4


class TestEigen:
    def test_k3_random_walk_laplacian(self):
        # oracle: roots of the characteristic polynomial of L = I - T
        T = (np.ones((3, 3)) - np.eye(3)) / 2.0
        L = np.eye(3) - T
        coeffs = np.poly(L)
        roots = np.sort(np.roots(coeffs).real)
        assert roots[1] == pytest.approx(1.5, abs=1e-9)
        assert second_smallest_eigenvalue(L) == pytest.approx(1.5, abs=1e-9)

    def test_path_p3(self):
        A = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        T = A / A.sum(axis=1, keepdims=True)
        L = np.eye(3) - T
        assert second_smallest_eigenvalue(L) == pytest.approx(1.0, abs=1e-9)

    def test_disconnected_gap_zero(self):
        A = np.zeros((4, 4))
        A[0, 1] = A[1, 0] = 1.0
        A[2, 3] = A[3, 2] = 1.0
        T = A / A.sum(axis=1, keepdims=True)
        L = np.eye(4) - T
        assert second_smallest_eigenvalue(L) == pytest.approx(0.0, abs=1e-10)

    def test_symmetric_hint_path(self):
        rng = np.random.default_rng(2)
        A = rng.random((6, 6))
        A = A + A.T
        np.fill_diagonal(A, 0.0)
        d = A.sum(axis=1)
        inv_sqrt = 1.0 / np.sqrt(d)
        L = np.eye(6) - inv_sqrt[:, None] * A * inv_sqrt[None, :]
        gap_sym = second_smallest_eigenvalue(L, symmetric_hint=True)
        gap_gen = second_smallest_eigenvalue(np.eye(6) - A / d[:, None])
        assert gap_sym == pytest.approx(gap_gen, abs=1e-9)

    def test_not_square(self):
        with pytest.raises(ValueError):
            second_smallest_eigenvalue(np.zeros((2, 3)))


class TestWelch:
    def test_identical_samples(self):
        res = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert res.t_statistic == 0.0 and res.p_value == 1.0

    def test_strong_separation(self):
        a = 1000.0 + np.array([0.0, 1e-4, -1e-4, 2e-4])
        b = np.array([0.0, 1e-4, -1e-4, 2e-4])
        assert welch_t_test(a, b).p_value < 1e-10

    def test_hand_formula(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([1.5, 2.5, 3.5])
        # longhand Welch statistic and Welch-Satterthwaite dof
        va, vb = a.var(ddof=1) / 3, b.var(ddof=1) / 3
        t_hand = (a.mean() - b.mean()) / math.sqrt(va + vb)
        dof_hand = (va + vb) ** 2 / (va ** 2 / 2 + vb ** 2 / 2)
        res = welch_t_test(a, b)
        assert res.t_statistic == pytest.approx(t_hand, rel=1e-12)
        assert res.degrees_of_freedom == pytest.approx(dof_hand, rel=1e-12)
        ref = scipy.stats.ttest_ind(a, b, equal_var=False)
        assert res.t_statistic == pytest.approx(ref.statistic, rel=1e-10)
        assert res.p_value == pytest.approx(ref.pvalue, rel=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        a = rng.normal(0, 1, size=12)
        b = rng.normal(0.5, 2, size=9)
        r1 = welch_t_test(a, b)
        r2 = welch_t_test(b, a)
        assert r1.t_statistic == pytest.approx(-r2.t_statistic, rel=1e-12)
        assert r1.p_value == pytest.approx(r2.p_value, rel=1e-12)

    def test_degenerate(self):
        with pytest.raises(NumericalError):
            welch_t_test([1.0], [1.0, 2.0])
        with pytest.raises(NumericalError):
            welch_t_test([1.0, 1.0], [2.0, 2.0])
