import dataclasses
import functools
import json
import math
from typing import Callable, Optional
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, seed, settings, strategies as st

from zipnets import (
    BlockAssignment,
    DataError,
    MultiGraph,
    OptimizerConfig,
    PairLaw,
    PairSpace,
    PairSpaceMismatch,
    block_tallies,
    degrees,
    detect_communities,
    expected_count_distribution,
    expected_degrees,
    expected_edges_links,
    fit,
    fit_poisson,
    fit_zi_clcm,
    fit_zi_dcsbm,
    fit_zi_gnp,
    fit_zi_node_level,
    fit_zi_sbm,
    graph_to_json,
    load_model,
    log_likelihood,
    model_from_json,
    model_to_json,
    pair_law,
    sample,
    save_model,
    single_block,
    zip_pmf,
)
import zipnets.models
from zipnets.exceptions import NumericalError
from zipnets.models import (
    FittedModel,
    ModelFamily,
    _EPS_Q,
    _base_diag,
    _check_block_degrees,
    _decompose_rates,
    _mean_rate_array,
    _pair_arrays,
    _zip_loglik,
)
from zipnets.numerics import OptResult, maximize_box_constrained, maximize_scalar_bounded
from conftest import graph_from_matrix, planted_zi_graph, random_blocks, zi_block_surrogate


class TestZipPmf:
    def test_pure_poisson(self):
        assert zip_pmf(0, PairLaw(q=1.0, lam=1.0)) == pytest.approx(math.exp(-1), rel=1e-12)

    def test_degenerate_rate(self):
        assert zip_pmf(3, PairLaw(q=0.7, lam=0.0)) == 0.0
        assert zip_pmf(0, PairLaw(q=0.7, lam=0.0)) == 1.0

    def test_mixture_zero(self):
        assert zip_pmf(0, PairLaw(q=0.5, lam=1.0)) == pytest.approx(0.5 + 0.5 * math.exp(-1), rel=1e-12)

    def test_normalization(self):
        for q, lam in [(0.3, 2.0), (0.9, 7.5), (1.0, 0.2)]:
            top = int(lam + 40 * math.sqrt(lam) + 10)
            total = sum(zip_pmf(n, PairLaw(q=q, lam=lam)) for n in range(top))
            assert total == pytest.approx(1.0, abs=1e-12)


def _gnp_graph_n2_loopy():
    return graph_from_matrix([[2, 0], [0, 2]], directed=True, loops=True)


class TestPairLaw:
    def test_gnp_constant(self):
        g = planted_zi_graph(0, 6, directed=True, loops=True)
        model = fit_poisson("gnp", g)
        laws = {pair_law(model, i, j) for i in range(6) for j in range(6)}
        assert laws == {PairLaw(q=1.0, lam=model.p)}

    def test_dcsbm_structure(self):
        g = planted_zi_graph(1, 12, directed=True, loops=True, q=0.5, rate=5.0)
        blocks = random_blocks(2, 12, 3)
        model = fit_zi_dcsbm(g, blocks)
        lab = blocks.as_array()
        for i, j in [(0, 5), (3, 3), (7, 11)]:
            law = pair_law(model, i, j)
            assert law.lam == pytest.approx(
                model.theta_out[i] * model.theta_in[j] * model.lambda_blocks[lab[i], lab[j]])
            assert law.q == model.q_blocks[lab[i], lab[j]]
        # block theta sums honour the unit constraint
        for b in range(3):
            assert model.theta_out[lab == b].sum() == pytest.approx(1.0, abs=1e-9)

    def test_constraint_convention_invariance(self):
        g = planted_zi_graph(3, 14, directed=True, loops=True, q=0.4, rate=5.0)
        blocks = random_blocks(4, 14, 2)
        base = fit_zi_dcsbm(g, blocks)
        refit = fit_zi_dcsbm(g, blocks, constraints=[2.0, 2.0])
        for i in range(14):
            for j in range(14):
                assert pair_law(refit, i, j).lam == pytest.approx(
                    pair_law(base, i, j).lam, rel=1e-10)

    def test_inadmissible_pair(self):
        g = planted_zi_graph(4, 5)
        model = fit_poisson("gnp", g)
        with pytest.raises(DataError):
            pair_law(model, 2, 2)


class TestLogLikelihood:
    def test_hand_sum_zi_gnp(self):
        g = graph_from_matrix([[1, 2, 0], [0, 0, 3], [0, 1, 0]], directed=True, loops=True)
        model = fit_zi_gnp(g)
        # oracle: direct per-pair summation of log pmf
        expected = 0.0
        for i in range(3):
            for j in range(3):
                expected += math.log(zip_pmf(g.count(i, j), pair_law(model, i, j)))
        assert log_likelihood(model, g) == pytest.approx(expected, rel=1e-12)

    def test_mixture_collapse(self):
        g = planted_zi_graph(5, 10, directed=True, loops=True)
        plain = fit_poisson("clcm", g)
        zi_at_one = FittedModel(ModelFamily.ZI_CLCM, g.space, node_ids=g.node_ids,
                                theta_out=plain.theta_out, theta_in=plain.theta_in,
                                q_global=1.0)
        assert log_likelihood(zi_at_one, g) == pytest.approx(
            log_likelihood(plain, g), abs=1e-10)

    def test_empty_graph_under_q_zero(self):
        g = MultiGraph(["a", "b", "c"], {}, directed=False, loops=False)
        model = FittedModel(ModelFamily.ZI_GNP, g.space, p=3.0, q_global=0.0)
        assert log_likelihood(model, g) == 0.0

    def test_impossible_data(self):
        g = MultiGraph(["a", "b", "c"], {(0, 1): 2}, directed=False, loops=False)
        model = FittedModel(ModelFamily.ZI_GNP, g.space, p=3.0, q_global=0.0)
        assert log_likelihood(model, g) == float("-inf")

    def test_pair_space_mismatch(self):
        g = planted_zi_graph(6, 8)
        model = fit_zi_gnp(planted_zi_graph(7, 9))
        with pytest.raises(PairSpaceMismatch):
            log_likelihood(model, g)


class TestFitPoisson:
    def test_gnp_trivial(self):
        g = graph_from_matrix([[2, 0], [0, 2]], directed=True, loops=True)
        model = fit_poisson("gnp", g)
        assert model.p == pytest.approx(1.0)

    def test_dcsbm_degrees_exact(self):
        for directed, loops in [(True, True), (True, False), (False, False)]:
            g = planted_zi_graph(8, 18, directed=directed, loops=loops, q=0.6, rate=4.0)
            blocks = random_blocks(9, 18, 3)
            model = fit_poisson("dcsbm", g, blocks)
            kout, kin = degrees(g)
            e_out, e_in = expected_degrees(model)
            assert np.allclose(e_out, kout, rtol=1e-9, atol=1e-9)
            assert np.allclose(e_in, kin, rtol=1e-9, atol=1e-9)

    def test_local_perturbation_oracle(self):
        g = planted_zi_graph(10, 15, directed=True, loops=True, q=0.7, rate=4.0)
        blocks = random_blocks(11, 15, 2)
        model = fit_poisson("dcsbm", g, blocks)
        base = log_likelihood(model, g)
        rng = np.random.default_rng(0)
        for _ in range(12):
            theta = model.theta_out.copy()
            k = rng.integers(0, 15)
            theta[k] *= 1.01 if rng.random() < 0.5 else 0.99
            bumped = dataclasses.replace(model, theta_out=theta)
            assert log_likelihood(bumped, g) <= base + 1e-9
            lam = model.lambda_blocks.copy()
            lam[rng.integers(0, 2), rng.integers(0, 2)] *= 1.01
            bumped = dataclasses.replace(model, lambda_blocks=lam)
            assert log_likelihood(bumped, g) <= base + 1e-9

    def test_empty_graph_rejected(self):
        g = MultiGraph(["a", "b"], {}, directed=False, loops=False)
        with pytest.raises(DataError):
            fit_poisson("gnp", g)

    def test_zero_degree_block_named(self):
        g = MultiGraph(list("abcd"), {(0, 1): 3}, directed=False, loops=False)
        blocks = BlockAssignment(labels=(0, 0, 1, 1), n_blocks=2)
        with pytest.raises(DataError, match="block 1"):
            fit_poisson("dcsbm", g, blocks)

    def test_blocks_compatibility(self):
        g = planted_zi_graph(12, 6)
        with pytest.raises(DataError):
            fit_poisson("sbm", g)
        with pytest.raises(DataError):
            fit_poisson("gnp", g, single_block(6))


def _zignp_moment_oracle(m, M, P):
    """Bisection on the paired moment equations E[m]=m, E[M]=M."""
    target = m / M

    def f(p):
        return p / -math.expm1(-p) - target

    lo, hi = 1e-12, 1.0
    while f(hi) < 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    p = 0.5 * (lo + hi)
    return m / (P * p), p


class TestFitZiGnp:
    def test_against_bisection_oracle(self):
        g = _gnp_graph_n2_loopy()
        q_ref, p_ref = _zignp_moment_oracle(4.0, 2.0, 4.0)
        model = fit_zi_gnp(g)
        assert model.q_global == pytest.approx(q_ref, abs=1e-9)
        assert model.p == pytest.approx(p_ref, abs=1e-9)
        assert model.q_global == pytest.approx(0.6275, abs=1e-4)
        assert model.p == pytest.approx(1.5936, abs=1e-4)

    def test_moment_equations_hold(self):
        for seed in range(5):
            g = planted_zi_graph(seed, 20, directed=True, loops=True, q=0.4, rate=5.0)
            model = fit_zi_gnp(g)
            e_m, e_M = expected_edges_links(model)
            assert e_m == pytest.approx(g.n_multiedges, rel=1e-9)
            assert e_M == pytest.approx(g.n_links, rel=1e-9)

    def test_poisson_consistent_data(self):
        # when links sit exactly on the Poisson saturation curve the data
        # carries no evidence of zero-inflation; binary counts collapse too
        g = graph_from_matrix([[1, 1], [1, 1]], directed=True, loops=True)
        model = fit_zi_gnp(g)
        assert model.q_global == 1.0
        assert model.p == pytest.approx(1.0)
        assert model.diagnostics.get("fallback") == "binary-counts"

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            fit_zi_gnp(MultiGraph(["a", "b"], {}, directed=True, loops=True))

    def test_extreme_multiedge_ratio(self):
        # m/M large enough that -r exp(-r) underflows to -0.0; in that
        # limit the estimates are exactly q = M/P and p = m/M
        g = MultiGraph(["a", "b", "c"], {(0, 1): 50000, (1, 2): 3},
                       directed=False, loops=False)
        model = fit_zi_gnp(g)
        assert model.q_global == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert model.p == pytest.approx(50003.0 / 2.0, rel=1e-12)
        e_m, e_M = expected_edges_links(model)
        assert e_m == pytest.approx(50003.0, rel=1e-9)
        assert e_M == pytest.approx(2.0, rel=1e-9)

    def test_dense_boundary_fallback(self):
        # nearly binary but dense data: the unconstrained estimate leaves
        # (0, 1], so the constrained optimum is the plain boundary
        mat = np.ones((3, 3), dtype=int)
        mat[0, 0] = 2
        g = graph_from_matrix(mat, directed=True, loops=True)
        model = fit_zi_gnp(g)
        assert model.q_global == 1.0
        assert model.p == pytest.approx(10.0 / 9.0)
        assert model.diagnostics.get("fallback") == "dense-boundary"


def _zisbm_block_oracle(m, M, P):
    """1-D bisection on q: q P (1 - exp(-m/(qP))) = M (increasing in q)."""
    def g(q):
        return q * P * -math.expm1(-m / (q * P)) - M

    lo, hi = 1e-12, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestFitZiSbm:
    def test_single_block_reduces_to_gnp(self):
        # gnp and zi_gnp are sbm and zi_sbm fitted on one block, bit for bit
        for k, (directed, loops) in enumerate(_SPACES):
            for q in (0.3, 0.7):
                g = planted_zi_graph(2 + k, 15, directed=directed, loops=loops, q=q, rate=4.0)
                one = single_block(15)
                assert fit_poisson("gnp", g).p == fit_poisson("sbm", g, one).lambda_blocks[0, 0]
                ref, model = fit_zi_gnp(g), fit_zi_sbm(g, one)
                assert (ref.p, ref.q_global) == (model.lambda_blocks[0, 0], model.q_blocks[0, 0])

    def test_empty_block_pair_convention(self):
        g = MultiGraph(list("abcd"), {(0, 1): 4, (2, 3): 5}, directed=False, loops=False)
        model = fit_zi_sbm(g, BlockAssignment(labels=(0, 0, 1, 1), n_blocks=2))
        assert model.q_blocks[0, 1] == 0.0 and model.lambda_blocks[0, 1] == 0.0

    def test_against_block_bisection(self):
        g = planted_zi_graph(4, 24, q=0.5, rate=5.0)
        blocks = random_blocks(5, 24, 2)
        model = fit_zi_sbm(g, blocks)
        from zipnets import block_tallies
        t = block_tallies(g, blocks)
        for b in range(2):
            for d in range(b, 2):
                if t.m[b, d] == 0:
                    continue
                q_ref = _zisbm_block_oracle(float(t.m[b, d]), float(t.links[b, d]),
                                            float(t.pairs[b, d]))
                assert model.q_blocks[b, d] == pytest.approx(q_ref, abs=1e-8)

    def test_block_moments_hold(self):
        g = planted_zi_graph(6, 20, directed=True, loops=True, q=0.45, rate=5.0)
        blocks = random_blocks(7, 20, 3)
        model = fit_zi_sbm(g, blocks)
        assert not model.diagnostics.get("block_fallbacks")
        q, lam = _pair_arrays(model)
        ii, jj = g.space.pair_indices()
        lab = blocks.as_array()
        from zipnets import block_tallies
        t = block_tallies(g, blocks)
        mean = q * lam
        plink = q * (-np.expm1(-lam))
        for b in range(3):
            for d in range(3):
                sel = (lab[ii] == b) & (lab[jj] == d)
                assert mean[sel].sum() == pytest.approx(t.m[b, d], rel=1e-9, abs=1e-9)
                assert plink[sel].sum() == pytest.approx(t.links[b, d], rel=1e-9, abs=1e-9)


class TestFitZiClcm:
    def test_symmetric_graph_matches_gnp(self):
        g = _gnp_graph_n2_loopy()
        clcm = fit_zi_clcm(g)
        gnp = fit_zi_gnp(g)
        assert clcm.q_global == pytest.approx(gnp.q_global, abs=1e-6)

    def test_constraint_value(self):
        g = planted_zi_graph(8, 16, directed=True, loops=True, q=0.5, rate=4.0)
        model = fit_zi_clcm(g)
        C = model.constraint["values"][0]
        assert C == pytest.approx(math.sqrt(g.n_multiedges / model.q_global), rel=1e-12)
        assert model.theta_out.sum() == pytest.approx(C, rel=1e-9)

    def test_profile_grid_oracle(self):
        # independent profile: theta_i(q) = k_i / sqrt(m q) substituted in
        g = planted_zi_graph(9, 30, directed=True, loops=True, q=0.35, rate=4.0)
        model = fit_zi_clcm(g)
        kout, kin = degrees(g)
        counts = g.count_vector()
        ii, jj = g.space.pair_indices()
        m = g.n_multiedges
        R = kout[ii].astype(float) * kin[jj].astype(float) / m
        zero = counts == 0
        pos = ~zero
        A_pos = counts[pos]
        R_zero, R_pos = R[zero], R[pos]
        logfact = float(scipy.special.gammaln(A_pos + 1.0).sum())
        q_lo = g.n_links / g.n_pairs + 1e-12
        grid = np.linspace(q_lo, 1.0, 100_000)
        best_q, best_val = None, -np.inf
        for chunk in np.array_split(grid, 50):
            lam_zero = R_zero[None, :] / chunk[:, None]
            vals = np.log((1 - chunk)[:, None] + chunk[:, None] * np.exp(-lam_zero)).sum(axis=1)
            vals += len(A_pos) * np.log(chunk)
            vals += (A_pos[None, :] * np.log(R_pos[None, :] / chunk[:, None])).sum(axis=1)
            vals -= R_pos.sum() / chunk
            vals -= logfact
            k = int(np.argmax(vals))
            if vals[k] > best_val:
                best_val, best_q = float(vals[k]), float(chunk[k])
        assert model.q_global == pytest.approx(best_q, abs=1e-4)

    def test_degrees_and_edges_match(self):
        for directed, loops in [(True, True), (False, False)]:
            g = planted_zi_graph(10, 25, directed=directed, loops=loops, q=0.5, rate=4.0)
            model = fit_zi_clcm(g)
            kout, kin = degrees(g)
            e_out, e_in = expected_degrees(model)
            assert np.allclose(e_out, kout, rtol=1e-8, atol=1e-8)
            assert np.allclose(e_in, kin, rtol=1e-8, atol=1e-8)
            e_m, _ = expected_edges_links(model)
            assert e_m == pytest.approx(g.n_multiedges, rel=1e-8)


class TestFitZiDcsbm:
    def test_single_block_reduces_to_clcm(self):
        for directed, loops in _SPACES:
            g = planted_zi_graph(12, 20, directed=directed, loops=loops, q=0.5, rate=4.0)
            clcm = fit_zi_clcm(g)
            dcsbm = fit_zi_dcsbm(g, single_block(20))
            qc, lc = _pair_arrays(clcm)
            qd, ld = _pair_arrays(dcsbm)
            assert np.allclose(lc, ld, rtol=1e-8)
            assert np.allclose(qc, qd, rtol=1e-10)
            # clcm and zi_clcm are dcsbm and zi_dcsbm on one block with the
            # 1x1 lambda folded into theta, bit for bit
            assert clcm.q_global == dcsbm.q_blocks[0, 0]
            pairs = [(clcm, dcsbm), (fit_poisson("clcm", g), fit_poisson("dcsbm", g, single_block(20)))]
            for folded, block in pairs:
                scale = math.sqrt(block.lambda_blocks[0, 0])
                assert np.array_equal(folded.theta_out, block.theta_out * scale)
                assert np.array_equal(folded.theta_in, block.theta_in * scale)

    def test_dense_poisson_collapse(self):
        # saturated Poisson data leaves no room for zero-inflation
        rng = np.random.default_rng(3)
        n = 16
        mat = rng.poisson(6.0, size=(n, n)) + 1
        g = graph_from_matrix(mat, directed=True, loops=True)
        blocks = random_blocks(4, n, 2)
        zi = fit_zi_dcsbm(g, blocks)
        plain = fit_poisson("dcsbm", g, blocks)
        assert np.all(zi.q_blocks == 1.0)
        qz, lz = _pair_arrays(zi)
        qp, lp = _pair_arrays(plain)
        assert np.allclose(lz, lp, rtol=1e-10)

    def test_block_moments_hold(self):
        g = planted_zi_graph(14, 30, q=0.5, rate=5.0)
        blocks = random_blocks(15, 30, 3)
        model = fit_zi_dcsbm(g, blocks)
        from zipnets import block_tallies
        t = block_tallies(g, blocks)
        q, lam = _pair_arrays(model)
        mean = q * lam
        ii, jj = g.space.pair_indices()
        lab = blocks.as_array()
        for b in range(3):
            for d in range(b, 3):
                sel = (np.minimum(lab[ii], lab[jj]) == b) & (np.maximum(lab[ii], lab[jj]) == d)
                assert mean[sel].sum() == pytest.approx(t.m[b, d], rel=1e-8, abs=1e-8)

    def test_zero_degree_block_rejected(self):
        g = MultiGraph(list("abcd"), {(0, 1): 3}, directed=False, loops=False)
        with pytest.raises(DataError, match="block 1"):
            fit_zi_dcsbm(g, BlockAssignment(labels=(0, 0, 1, 1), n_blocks=2))


class TestMixtureConvergence:
    def test_budget_of_one_step_is_not_converged(self):
        g = planted_zi_graph(14, 30, q=0.5, rate=5.0)
        blocks = random_blocks(15, 30, 3)
        cfg = OptimizerConfig(max_iterations=1)
        assert fit_zi_clcm(g, cfg).diagnostics["converged"] is False
        assert fit_zi_dcsbm(g, blocks, cfg).diagnostics["converged"] is False
        assert fit_zi_clcm(g).diagnostics["converged"] is True
        assert fit_zi_dcsbm(g, blocks).diagnostics["converged"] is True


def _refine_block_undirected(phi, members, k, tall, b, Lambda, max_iter):
    """The quadratic per-block update the reciprocal fixed point replaced,
    kept verbatim as a reference for undirected pair spaces."""
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


# an undirected block whose hub leaves the quadratic update without a
# real root at its first step
_HUB_PAIRS = {(0, 1): 6, (0, 2): 1, (0, 3): 1, (0, 5): 9, (0, 6): 7,
              (1, 3): 1, (1, 5): 1, (1, 7): 1, (2, 7): 1, (3, 4): 1}


def _assert_moments(model, g, tol):
    assert model.diagnostics["exact_moments"] is True
    e_m, _ = expected_edges_links(model)
    assert abs(e_m - g.n_multiedges) <= tol * g.n_multiedges
    kout, kin = degrees(g)
    e_out, e_in = expected_degrees(model)
    assert np.all(np.abs(e_out - kout) <= tol * np.maximum(kout, 1))
    assert np.all(np.abs(e_in - kin) <= tol * np.maximum(kin, 1))


class TestMomentFixedPoint:
    def test_hub_blocks_match_moments(self):
        g = zi_block_surrogate("small")
        blocks = detect_communities(g, seed=11)
        _assert_moments(fit_poisson("dcsbm", g, blocks), g, 1e-12)
        _assert_moments(fit_zi_dcsbm(g, blocks), g, 1e-12)
        hub = MultiGraph([f"v{k}" for k in range(8)], _HUB_PAIRS, directed=False, loops=False)
        tall = block_tallies(hub, single_block(8))
        k = degrees(hub)[0].astype(float)
        ok, _ = _refine_block_undirected(np.zeros(8), np.arange(8), k, tall, 0,
                                         tall.m.astype(float), 500)
        assert not ok
        _assert_moments(fit_poisson("clcm", hub), hub, 1e-12)
        _assert_moments(fit_poisson("dcsbm", hub, single_block(8)), hub, 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_quadratic_update_where_it_converges(self, data):
        n = data.draw(st.integers(3, 12))
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
        entries = data.draw(st.lists(st.tuples(pair, st.integers(1, 20)), min_size=1, max_size=3 * n))
        pairs = {}
        for (i, j), w in entries:
            key = (min(i, j), max(i, j))
            pairs[key] = pairs.get(key, 0) + w
        g = MultiGraph([f"v{k}" for k in range(n)], pairs, directed=False, loops=False)
        n_blocks = data.draw(st.integers(1, 3))
        blocks = random_blocks(data.draw(st.integers(0, 2 ** 32 - 1)), n, n_blocks)

        tall = block_tallies(g, blocks)
        parts = _decompose_rates(g, blocks, tall)
        k = degrees(g)[0].astype(float)
        lab = blocks.as_array()
        kappa = tall.kappa_out[lab]
        with np.errstate(invalid="ignore", divide="ignore"):
            phi = np.where(kappa > 0, k / kappa, 0.0)
        Lambda = tall.m.astype(float)
        for b in range(n_blocks):
            members = np.where(lab == b)[0]
            ok, _ = _refine_block_undirected(phi, members, k, tall, b, Lambda, 500)
            if ok:
                assert np.allclose(parts.phi_out[members], phi[members], rtol=1e-12, atol=0)
                assert parts.Lambda[b, b] == pytest.approx(Lambda[b, b], rel=1e-12, abs=0)
        assert np.array_equal(parts.phi_in, parts.phi_out)

        if np.all(tall.kappa_out > 0):
            for model in (fit_poisson("dcsbm", g, blocks), fit_zi_dcsbm(g, blocks)):
                if model.diagnostics["exact_moments"]:
                    _assert_moments(model, g, 1e-10)


class TestMomentResidual:
    def test_failed_fixed_point_records_its_residual(self, monkeypatch):
        g = zi_block_surrogate("small")
        blocks = detect_communities(g, seed=11)
        assert "moment_residual" not in fit_poisson("dcsbm", g, blocks).diagnostics
        monkeypatch.setattr(zipnets.models, "_REFINE_MAX_STEPS", 1)
        kout, _ = degrees(g)
        for model in (fit_poisson("clcm", g), fit_poisson("dcsbm", g, blocks),
                      fit_zi_dcsbm(g, blocks)):
            diag = model.diagnostics
            assert diag["exact_moments"] is False
            # the largest relative miss of the kept iterate's expected degrees
            e_out, _ = expected_degrees(model)
            worst = np.max(np.abs(e_out - kout) / np.maximum(kout, 1))
            assert diag["moment_residual"] == pytest.approx(worst, rel=1e-9)
            assert diag["moment_residual"] > 1e-6
            assert model_to_json(model)["diagnostics"]["moment_residual"] == diag["moment_residual"]


class TestFitNodeLevel:
    def test_vertex_transitive_symmetry(self):
        # directed cycle with uniform counts: all node factors must agree
        n = 8
        pairs = {(i, (i + 1) % n): 3 for i in range(n)}
        g = MultiGraph([f"v{k}" for k in range(n)], pairs, directed=True, loops=True)
        model = fit_zi_node_level(g)
        q = model.q_nodes_out
        assert q.max() - q.min() < 1e-4
        q_in = model.q_nodes_in
        assert q_in.max() - q_in.min() < 1e-4

    def test_boundary_collapse_to_plain(self):
        rng = np.random.default_rng(6)
        n = 10
        mat = rng.poisson(6.0, size=(n, n)) + 1
        g = graph_from_matrix(mat, directed=True, loops=True)
        model = fit_zi_node_level(g)
        if np.all(model.q_nodes_out == 1.0) and np.all(model.q_nodes_in == 1.0):
            plain = fit_poisson("clcm", g)
            assert model.diagnostics["loglik"] == pytest.approx(
                log_likelihood(plain, g), abs=1e-6)
        else:
            # optimizer may stop a hair inside the box; likelihood must
            # still dominate the plain fit
            plain = fit_poisson("clcm", g)
            assert model.diagnostics["loglik"] >= log_likelihood(plain, g) - 1e-6

    def test_moments_hold_regardless_of_mixture(self):
        g = planted_zi_graph(16, 14, q=0.6, rate=5.0)
        model = fit_zi_node_level(g)
        kout, _ = degrees(g)
        e_out, _ = expected_degrees(model)
        assert np.allclose(e_out, kout, rtol=1e-8, atol=1e-8)
        e_m, _ = expected_edges_links(model)
        assert e_m == pytest.approx(g.n_multiedges, rel=1e-8)

    def test_planted_rank_recovery(self):
        # generate-and-refit oracle: one planted mixture vector, twenty
        # refits; the averaged estimates must rank-match the truth. A
        # single N=20 replicate carries only ~19 Bernoulli observations
        # per node, so per-replicate correlations sit near 0.75.
        rng = np.random.default_rng(77)
        n = 20
        node_q = rng.uniform(0.25, 0.95, size=n)
        estimates = []
        per_rep = []
        for rep in range(20):
            g = planted_zi_graph(500 + rep, n, q=1.0, rate=6.0, node_q=node_q)
            model = fit_zi_node_level(g)
            estimates.append(model.q_nodes_out)
            per_rep.append(scipy.stats.spearmanr(model.q_nodes_out, node_q).statistic)
        pooled = scipy.stats.spearmanr(np.mean(estimates, axis=0), node_q).statistic
        assert pooled > 0.8
        assert float(np.mean(per_rep)) > 0.6

    def test_blocked_variant_records_structure(self):
        g = planted_zi_graph(18, 16, q=0.5, rate=5.0)
        blocks = random_blocks(19, 16, 2)
        model = fit_zi_node_level(g, blocks=blocks)
        assert model.family is ModelFamily.ZI_DCSBM_NODE
        assert model.constraint["block_q"] == "pair"
        law = pair_law(model, 0, 5)
        lab = blocks.as_array()
        expected_q = (model.q_blocks[lab[0], lab[5]]
                      * model.q_nodes_out[0] * model.q_nodes_in[5])
        assert law.q == pytest.approx(expected_q, rel=1e-12)

    def test_directed_pair_block_factors_are_separate(self):
        # planted q_01 = 0.15 and q_10 = 0.8; a symmetric block-factor matrix
        # fits both at 0.748 with loglik -988.1409
        labels = [0] * 12 + [1] * 12
        g = planted_zi_graph(5, 24, directed=True, q_matrix=[[0.9, 0.15], [0.8, 0.9]],
                             blocks=labels, rate=4.0)
        blocks = BlockAssignment(labels=tuple(labels), n_blocks=2)
        model = fit_zi_node_level(g, blocks=blocks)
        assert model.q_blocks[0, 1] < model.q_blocks[1, 0]
        assert model.diagnostics["loglik"] >= -988.1408740541159


class TestExpectations:
    def test_q_zero_model(self):
        space = PairSpace(4, False, False)
        model = FittedModel(ModelFamily.ZI_GNP, space, p=2.0, q_global=0.0)
        assert expected_edges_links(model) == (0.0, 0.0)

    def test_plain_gnp_formula(self):
        g = planted_zi_graph(20, 12)
        model = fit_poisson("gnp", g)
        _, e_M = expected_edges_links(model)
        P = g.n_pairs
        assert e_M == pytest.approx(P * -math.expm1(-g.n_multiedges / P), rel=1e-12)

    def test_expected_degrees_requires_node_rates(self):
        g = planted_zi_graph(21, 8)
        with pytest.raises(DataError):
            expected_degrees(fit_poisson("gnp", g))

    def test_scaling_invariance(self):
        g = planted_zi_graph(22, 10, directed=True, loops=True, q=0.6, rate=4.0)
        model = fit_zi_dcsbm(g, single_block(10))
        scaled = dataclasses.replace(model, theta_out=model.theta_out * 2.0,
                                     theta_in=model.theta_in * 2.0,
                                     lambda_blocks=model.lambda_blocks / 4.0)
        e1 = expected_degrees(model)
        e2 = expected_degrees(scaled)
        assert np.allclose(e1[0], e2[0], rtol=1e-12)


class TestCountDistribution:
    def test_gnp_matches_single_pmf(self):
        g = planted_zi_graph(23, 10, directed=True, loops=True, q=0.5, rate=3.0)
        model = fit_zi_gnp(g)
        hist = expected_count_distribution(model, max_count=15)
        law = PairLaw(q=model.q_global, lam=model.p)
        for n in range(16):
            assert hist.mass[n] == pytest.approx(zip_pmf(n, law), abs=1e-12)

    def test_zero_bin_identity(self):
        g = planted_zi_graph(24, 12, q=0.5, rate=4.0)
        model = fit_zi_clcm(g)
        hist = expected_count_distribution(model, max_count=10)
        _, e_M = expected_edges_links(model)
        assert hist.mass[0] == pytest.approx(1.0 - e_M / g.n_pairs, abs=1e-10)

    def test_heterogeneous_brute_force(self):
        g = planted_zi_graph(25, 5, q=0.6, rate=4.0)  # 10 pairs
        model = fit_zi_clcm(g)
        hist = expected_count_distribution(model, max_count=12)
        ii, jj = g.space.pair_indices()
        for n in range(13):
            manual = np.mean([zip_pmf(n, pair_law(model, int(i), int(j)))
                              for i, j in zip(ii, jj)])
            assert hist.mass[n] == pytest.approx(manual, abs=1e-12)
        assert hist.mass.sum() == pytest.approx(1.0, abs=1e-9)


class TestSampling:
    def test_q_zero_always_empty(self):
        space = PairSpace(5, False, False)
        model = FittedModel(ModelFamily.ZI_GNP, space, p=4.0, q_global=0.0)
        for seed in range(5):
            assert sample(model, seed).n_multiedges == 0

    def test_determinism(self):
        g = planted_zi_graph(26, 15, q=0.5, rate=4.0)
        model = fit_zi_clcm(g)
        a = sample(model, 123)
        b = sample(model, 123)
        assert a.counts == b.counts
        c = sample(model, 124)
        assert c.counts != a.counts

    def test_sampled_law_chi_squared(self):
        # ~1e5 iid pair draws of ZIP(q=0.5, lam=2) from one realization
        n = 317
        space = PairSpace(n, True, True)
        model = FittedModel(ModelFamily.ZI_GNP, space, p=2.0, q_global=0.5)
        g = sample(model, 2024)
        counts = g.count_vector()
        law = PairLaw(q=0.5, lam=2.0)
        top = 9
        observed = np.bincount(np.minimum(counts, top), minlength=top + 1)
        expected = np.array([zip_pmf(k, law) for k in range(top)])
        expected = np.append(expected, 1.0 - expected.sum()) * counts.size
        stat = ((observed - expected) ** 2 / expected).sum()
        p = scipy.stats.chi2.sf(stat, df=top)
        assert p > 0.001


def _reference_sample(model, seed):
    """The dict-building sample the array path replaced, kept verbatim."""
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


class TestSampleReference:
    @pytest.mark.parametrize("directed,loops", [(False, False), (True, False), (True, True)])
    def test_every_family_matches_dict_sample(self, directed, loops):
        g = planted_zi_graph(40, 11, directed=directed, loops=loops, q=0.6, rate=4.0)
        blocks = random_blocks(41, 11, 2)
        for family in ModelFamily:
            model = fit(family, g, blocks if family.needs_blocks else None)
            for seed in (0, 1, 2 ** 40 + 3):
                got, want = sample(model, seed), _reference_sample(model, seed)
                assert got.node_ids == want.node_ids and got.space == want.space
                assert got.counts == want.counts
                assert graph_to_json(got) == graph_to_json(want)


class TestInvariants:
    def test_likelihood_dominance(self):
        for seed in range(6):
            g = planted_zi_graph(seed, 15, directed=bool(seed % 2), loops=bool(seed % 2),
                                 q=0.5, rate=4.0)
            plain = fit_poisson("clcm", g)
            zi = fit_zi_clcm(g)
            assert zi.diagnostics["loglik"] >= log_likelihood(plain, g) - 1e-9
            blocks = random_blocks(seed, 15, 2)
            plain_b = fit_poisson("dcsbm", g, blocks)
            zi_b = fit_zi_dcsbm(g, blocks)
            assert zi_b.diagnostics["loglik"] >= log_likelihood(plain_b, g) - 1e-9

    def test_lambert_argument_safety(self):
        for seed in range(20):
            g = planted_zi_graph(seed, 12, q=0.5, rate=3.0)
            m, M = g.n_multiedges, g.n_links
            if m > M > 0:
                r = m / M
                arg = -r * math.exp(-r)
                assert -1.0 / math.e < arg < 0.0

    def test_loglik_diagnostic_matches_recomputation(self):
        g = planted_zi_graph(30, 18, q=0.5, rate=4.0)
        blocks = random_blocks(31, 18, 2)
        for model in (fit_zi_gnp(g), fit_zi_sbm(g, blocks), fit_zi_clcm(g),
                      fit_zi_dcsbm(g, blocks), fit_zi_node_level(g)):
            assert model.diagnostics["loglik"] == pytest.approx(
                log_likelihood(model, g), rel=1e-10, abs=1e-8)


class TestModelSerialization:
    @pytest.mark.parametrize("family", ["gnp", "sbm", "clcm", "dcsbm", "zi_gnp",
                                        "zi_sbm", "zi_clcm", "zi_dcsbm",
                                        "zi_clcm_node", "zi_dcsbm_node"])
    def test_round_trip(self, tmp_path, family):
        g = planted_zi_graph(33, 12, q=0.6, rate=4.0)
        blocks = random_blocks(34, 12, 2)
        fam = ModelFamily(family)
        if fam in (ModelFamily.GNP, ModelFamily.SBM, ModelFamily.CLCM, ModelFamily.DCSBM):
            model = fit_poisson(fam, g, blocks if fam.needs_blocks else None)
        elif fam is ModelFamily.ZI_GNP:
            model = fit_zi_gnp(g)
        elif fam is ModelFamily.ZI_SBM:
            model = fit_zi_sbm(g, blocks)
        elif fam is ModelFamily.ZI_CLCM:
            model = fit_zi_clcm(g)
        elif fam is ModelFamily.ZI_DCSBM:
            model = fit_zi_dcsbm(g, blocks)
        elif fam is ModelFamily.ZI_CLCM_NODE:
            model = fit_zi_node_level(g)
        else:
            model = fit_zi_node_level(g, blocks=blocks)
        assert model_to_json(fit(family, g, blocks)) == model_to_json(model)
        q, lam = _pair_arrays(model)
        ii, jj = model.space.pair_indices()
        for k in range(0, len(ii), 7):
            assert pair_law(model, ii[k], jj[k]) == PairLaw(q=q[k], lam=lam[k])
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.family == model.family
        assert loaded.space == model.space
        q1, l1 = _pair_arrays(model)
        q2, l2 = _pair_arrays(loaded)
        assert np.array_equal(q1, q2)
        assert np.array_equal(l1, l2)
        assert log_likelihood(loaded, g) == log_likelihood(model, g)

    def test_fit_requires_blocks(self):
        # without the check, fit_zi_node_level would fit zi_clcm_node instead
        g = planted_zi_graph(36, 10, q=0.6, rate=4.0)
        with pytest.raises(DataError, match="requires a block assignment"):
            fit("zi_dcsbm_node", g)

    def test_json_shape(self):
        g = planted_zi_graph(35, 9, q=0.6, rate=4.0)
        obj = model_to_json(fit_zi_gnp(g))
        assert set(obj) >= {"family", "pair_space", "p", "q", "constraint", "diagnostics"}
        clone = model_from_json(obj)
        assert clone.p == obj["p"]


@functools.lru_cache(maxsize=None)
def _fitted_json(family: str) -> str:
    g = planted_zi_graph(33, 12, directed=True, q=0.6, rate=4.0)
    return json.dumps(model_to_json(fit(family, g, random_blocks(34, 12, 2))))


_PARAMETER_FIELDS = ("blocks", "p", "lambda", "theta_out", "theta_in", "q", "q_blocks", "q_nodes")


def _misshapen(key, value):
    """``value`` with the wrong shape: one entry too many or a scalar boxed."""
    if key == "q_nodes":
        return {"out": value["out"][:-1], "in": value["in"]}
    if key in ("p", "q"):
        return [value]
    return value + value[:1]


class TestModelJsonValidation:
    @pytest.mark.parametrize("family", [f.value for f in ModelFamily])
    def test_fields_must_be_exactly_the_familys(self, family):
        obj = json.loads(_fitted_json(family))
        model_from_json(obj)
        stray = {"p": 1.5, "q": 0.5, "lambda": [[1.0, 1.0], [1.0, 1.0]],
                 "q_blocks": [[0.5, 0.5], [0.5, 0.5]], "theta_out": [1.0] * 12,
                 "theta_in": [1.0] * 12, "blocks": [0, 1] * 6,
                 "q_nodes": {"out": [0.5] * 12, "in": [0.5] * 12}}
        for key in _PARAMETER_FIELDS:
            if obj[key] is None:
                edits = [stray[key]]
            else:
                edits = [None, _misshapen(key, obj[key])]
            for value in edits:
                with pytest.raises(DataError, match="invalid model JSON"):
                    model_from_json(dict(obj, **{key: value}))

    @pytest.mark.parametrize("key,value", [("theta_out", -1.0), ("lambda", float("nan")),
                                           ("q_blocks", 1.5), ("theta_in", float("inf")),
                                           ("p", "2.85"), ("q", True), ("p", False),
                                           ("lambda", "1.0"), ("theta_out", True),
                                           ("q_blocks", None)])
    def test_values_out_of_range(self, key, value):
        # strings and booleans used to be kept raw and written back out
        obj = json.loads(_fitted_json("zi_gnp" if key in ("p", "q") else "zi_dcsbm"))
        bad = np.array(obj[key], dtype=object)
        bad.flat[0] = value
        with pytest.raises(DataError, match="invalid model JSON"):
            model_from_json(dict(obj, **{key: bad.tolist()}))

    def test_scalars_are_stored_as_floats(self):
        obj = json.loads(_fitted_json("zi_gnp"))
        model = model_from_json(dict(obj, p=3, q=1))
        assert (type(model.p), type(model.q_global)) == (float, float)
        assert (model_to_json(model)["p"], model_to_json(model)["q"]) == (3.0, 1.0)

    @pytest.mark.parametrize("long", [False, True])
    def test_node_ids_one_per_node(self, long):
        # one label too many used to sample a graph with an extra node
        obj = json.loads(_fitted_json("zi_gnp"))
        ids = obj["node_ids"] + ["extra"] if long else obj["node_ids"][:-1]
        with pytest.raises(DataError, match="invalid model JSON"):
            model_from_json(dict(obj, node_ids=ids))

    def test_diag_block_factor_file_is_rejected(self, tmp_path):
        # the retired ``block_q="diag"`` layout applied q_bb to within-block pairs only
        obj = json.loads(_fitted_json("zi_dcsbm_node"))
        obj["constraint"]["block_q"] = "diag"
        path = tmp_path / "diag.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(DataError, match="block_q"):
            load_model(path)

    @pytest.mark.parametrize("obj", [{}, {"family": "zi_gnp"}, {"family": "nope"},
                                     {"family": "gnp", "pair_space": {"n": 3}},
                                     {"family": "gnp", "pair_space": [3, False, False]},
                                     {"family": "gnp", "p": 1.0,
                                      "pair_space": {"n": 3.5, "directed": False, "loops": False}}])
    def test_malformed_header(self, obj):
        with pytest.raises(DataError, match="invalid model JSON"):
            model_from_json(obj)


def _reference_pair_arrays(model: FittedModel, ii=None, jj=None) -> tuple:
    """The per-family case analysis the shared layout replaced, kept
    verbatim, with ``_block_mixture``'s ``pair`` branch inlined."""
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
        q = model.q_blocks[lab[ii], lab[jj]] * model.q_nodes_out[ii] * model.q_nodes_in[jj]
    return np.asarray(q, dtype=np.float64), np.asarray(lam, dtype=np.float64)


class TestSharedLayout:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_the_per_family_case_analysis(self, data):
        family = data.draw(st.sampled_from(list(ModelFamily)))
        directed, loops = data.draw(st.sampled_from([(False, False), (True, False), (True, True)]))
        n = data.draw(st.integers(2, 9))
        B = data.draw(st.integers(1, min(n, 3))) if family.needs_blocks else 1
        labels = data.draw(st.permutations(list(range(B)) + data.draw(
            st.lists(st.integers(0, B - 1), min_size=n - B, max_size=n - B))))
        # full-mantissa values, so that a reordered product shows in the
        # last bits; exact zeros stand for q = 0 cells, zero-degree nodes
        # and lambda = 0
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))

        def draw(shape, mixture=False):
            x = rng.uniform(0.0, 1.0, shape) if mixture else rng.lognormal(0.0, 4.0, shape)
            x[rng.random(shape) < 0.15] = 0.0
            if mixture:
                x[rng.random(shape) < 0.1] = 1.0
            return x.tolist()

        values = {"blocks": labels, "p": draw(()), "q": draw((), True),
                  "lambda": draw((B, B)), "q_blocks": draw((B, B), True),
                  "theta_out": draw(n), "theta_in": draw(n),
                  "q_nodes": {"out": draw(n, True), "in": draw(n, True)}}
        fields = zipnets.models._MODEL_FIELDS[family.value].split()
        obj = {"family": family.value, "pair_space": {"n": n, "directed": directed, "loops": loops},
               **{k: values[k] if k in fields else None for k in values}}
        model = model_from_json(obj)
        ii, jj = model.space.pair_indices()
        k = data.draw(st.integers(0, len(ii) - 1))
        for pairs in ((), (ii[k:], jj[k:])):
            got, want = _pair_arrays(model, *pairs), _reference_pair_arrays(model, *pairs)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# -- node-level fits against the full-objective coordinate ascent ---------------
#
# The coordinate ascent and the node-level fitter as they were when every
# coordinate search evaluated the full log-likelihood over all pairs, kept
# verbatim as the reference. The one change: the fitter calls the copied
# ascent. Its ``unpack`` mirrors q_bd into q_db in every pair space, so on
# directed ``pair`` fits it has one dead block factor per off-diagonal pair.


def _reference_box_ascent(
    objective: Callable[[np.ndarray], float],
    x0,
    lower,
    upper,
    cfg: OptimizerConfig = OptimizerConfig(max_iterations=2000),
) -> OptResult:
    """Maximize over a box by cyclic coordinate ascent.

    Each coordinate is optimized with the bounded scalar search while
    the others are held fixed; the objective never decreases. Terminates
    when a complete sweep improves the objective by less than 1e-8
    (relative), which sets ``converged``, or when
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
    scalar_cfg = OptimizerConfig(max_iterations=100)  # argument tolerance 1e-10
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
            if fx - f_sweep_start <= 1e-8 * max(1.0, abs(fx)):
                converged = True
                break
    return OptResult(x=x, value=fx, iterations=steps, converged=converged)


def _reference_fit_zi_node_level(g: MultiGraph, blocks: Optional[BlockAssignment] = None,
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
    parts = _decompose_rates(g, blk, tall)
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
    res = _reference_box_ascent(objective, x0, lower, upper, cfg)
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


def _reference_case(directed, loops, block_q, empty_cell=False):
    """A small planted graph with one isolated node, and its blocks."""
    n, labels = 12, [0] * 6 + [1] * 6
    q_matrix = [[0.7, 0.0], [0.0, 0.8]] if empty_cell else [[0.7, 0.3], [0.5, 0.8]]
    g = planted_zi_graph(60 + 3 * directed + loops, n, directed=directed, loops=loops,
                         blocks=labels, q_matrix=q_matrix, rate=4.0)
    rows, cols, w = g.edge_arrays()
    g = MultiGraph(g.node_ids + ("iso",), (rows, cols, w), directed, loops)
    blocks = None if block_q is None else BlockAssignment(labels=tuple(labels + [0]), n_blocks=2)
    return g, blocks


_SPACES = [(False, False), (True, False), (True, True)]


class TestNodeLevelReference:
    @pytest.mark.parametrize("directed,loops", _SPACES)
    @pytest.mark.parametrize("block_q,empty_cell", [(None, False), ("pair", False),
                                                    ("pair", True)])
    def test_matches_full_objective_ascent(self, directed, loops, block_q, empty_cell):
        g, blocks = _reference_case(directed, loops, block_q, empty_cell)
        got = fit_zi_node_level(g, blocks=blocks)
        want = _reference_fit_zi_node_level(g, blocks=blocks)
        assert got.q_nodes_out[-1] == 0.0
        assert got.diagnostics["loglik"] == pytest.approx(log_likelihood(got, g), rel=1e-12)
        if directed and block_q == "pair" and not empty_cell:
            # the reference ties q_bd to q_db; separate factors fit at least as well
            assert got.diagnostics["loglik"] >= want.diagnostics["loglik"]
            return
        for key in ("iterations", "converged", "n_free_parameters"):
            assert got.diagnostics[key] == want.diagnostics[key]
        assert got.diagnostics["loglik"] == pytest.approx(want.diagnostics["loglik"], rel=1e-10)
        assert np.allclose(got.q_nodes_out, want.q_nodes_out, rtol=0, atol=1e-6)
        assert np.allclose(got.q_nodes_in, want.q_nodes_in, rtol=0, atol=1e-6)
        if blocks is not None:
            assert np.allclose(got.q_blocks, want.q_blocks, rtol=0, atol=1e-6)


@functools.lru_cache(maxsize=None)
def _node_level_problem(directed, loops, block_q):
    """(objective, coordinate, n_free) the node-level fitter hands its optimizer."""
    g, blocks = _reference_case(directed, loops, block_q)
    seen = {}

    def record(objective, x0, lower, upper, cfg, coordinate):
        seen.update(objective=objective, coordinate=coordinate, n=len(x0))
        return maximize_box_constrained(objective, x0, lower, upper, OptimizerConfig(max_iterations=1),
                                        coordinate=coordinate)

    with mock.patch.object(zipnets.models, "maximize_box_constrained", record):
        fit_zi_node_level(g, blocks=blocks)
    return seen["objective"], seen["coordinate"], seen["n"]


class TestCoordinateFunction:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_differences_match_the_full_likelihood(self, data):
        directed, loops = data.draw(st.sampled_from(_SPACES))
        block_q = data.draw(st.sampled_from([None, "pair"]))
        objective, coordinate, n = _node_level_problem(directed, loops, block_q)
        unit = st.floats(1e-6, 1.0)
        x = np.array(data.draw(st.lists(unit, min_size=n, max_size=n)))
        k = data.draw(st.integers(0, n - 1))
        v, w = data.draw(unit), data.draw(unit)
        along = coordinate(x, k)
        xv, xw = x.copy(), x.copy()
        xv[k], xw[k] = v, w
        fv, fw = objective(xv), objective(xw)
        assert abs((along(v) - along(w)) - (fv - fw)) <= 1e-9 * abs(fv)


# The cell optimizer as it was when every profile point was a full
# _zip_loglik call over the cell, kept verbatim as the reference.


def _reference_optimize_mixture(counts: np.ndarray, rates: np.ndarray, cfg: OptimizerConfig) -> tuple:
    """Maximize the profile likelihood over the mixture weight q.

    ``rates`` holds the moment-locked mean counts r_ij, so the Poisson
    rate is r_ij / q and the expected multi-edges match the data for
    every q. Returns (q_hat, value, iterations, converged).
    """
    n_pairs = counts.size
    n_links = int(np.count_nonzero(counts))
    q_lo = n_links / n_pairs + _EPS_Q
    if q_lo >= 1.0:
        return 1.0, _zip_loglik(counts, np.float64(1.0), rates), 0, True

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
        return float(grid[k]), float(vals[k]), res.iterations, res.converged
    return float(res.x), float(res.value), res.iterations, res.converged


class TestMixtureProfile:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_full_likelihood(self, data):
        directed, loops = data.draw(st.sampled_from(_SPACES))
        n = data.draw(st.integers(3, 12))
        g = planted_zi_graph(data.draw(st.integers(0, 10_000)), n, directed=directed, loops=loops,
                             q=data.draw(st.floats(0.1, 1.0)), rate=data.draw(st.floats(0.2, 40.0)))
        counts = g.count_vector()
        if not counts.any():
            return
        blk = single_block(n)
        parts = _decompose_rates(g, blk, block_tallies(g, blk))
        rates = _mean_rate_array(g.space, parts, blk.as_array())
        # a cell: every pair, a random subset, or only the positive pairs (q_lo >= 1)
        cell = data.draw(st.sampled_from(["all", "subset", "positive"]))
        if cell == "positive":
            sel = counts > 0
        elif cell == "all":
            sel = np.ones(counts.size, dtype=bool)
        else:
            sel = np.array(data.draw(st.lists(st.booleans(), min_size=counts.size,
                                              max_size=counts.size)), dtype=bool)
        counts, rates = counts[sel], rates[sel]
        if cell != "positive" and data.draw(st.booleans()):
            # a zero pair whose e^{-r} underflows
            counts = np.append(counts, 0)
            rates = np.append(rates, data.draw(st.floats(746.0, 1600.0)))
        if counts.size == 0:
            return
        q_lo = np.count_nonzero(counts) / counts.size + _EPS_Q
        qs = [1.0]
        if q_lo < 1.0:
            qs += [q_lo, data.draw(st.floats(q_lo, 1.0, exclude_max=True))]
        profile = zipnets.models._mixture_profile(counts, rates)
        for q in qs:
            want = _zip_loglik(counts, np.float64(q), rates / q)
            got = profile(q)
            assert math.isfinite(got)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("directed,loops", _SPACES)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_cell_profiles_are_unimodal(self, directed, loops, data):
        # _optimize_mixture runs one Brent search over [q_lo, 1]; that is
        # sound only if no cell profile has a second local maximum there
        n = data.draw(st.integers(3, 12))
        seed = data.draw(st.integers(0, 10_000))
        blk = random_blocks(seed, n, data.draw(st.integers(1, min(4, n))))
        B = blk.n_blocks
        q_matrix = data.draw(st.lists(st.floats(0.1, 1.0), min_size=B * B, max_size=B * B))
        g = planted_zi_graph(seed, n, directed=directed, loops=loops, blocks=blk.labels,
                             q_matrix=np.reshape(q_matrix, (B, B)),
                             rate=data.draw(st.floats(0.2, 40.0)))
        lab = blk.as_array()
        rates = _mean_rate_array(g.space, _decompose_rates(g, blk, block_tallies(g, blk)), lab)
        counts = g.count_vector()
        for sel in zipnets.models._block_pair_groups(g.space, lab, B).values():
            c, r = counts[sel], rates[sel]
            q_lo = np.count_nonzero(c) / c.size + _EPS_Q
            if not c.any() or q_lo >= 1.0:
                continue
            profile = zipnets.models._mixture_profile(c, r)
            vals = np.array([profile(q) for q in np.linspace(q_lo, 1.0, 2001)])
            step = np.diff(vals)
            flat = np.abs(step) < 1e-12 * np.maximum(np.abs(vals[:-1]), np.abs(vals[1:]))
            signs = np.sign(step[~flat])
            # one local maximum: no rise follows a fall
            assert not np.any((signs[:-1] < 0) & (signs[1:] > 0)), (c.tolist(), r.tolist())

    @pytest.mark.parametrize("directed,loops", _SPACES)
    @seed(31)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_converged_search_reaches_the_reference_maximum(self, directed, loops, data):
        # reference: a 201-point grid over [q_lo, 1], then golden-section
        # refinement between the grid neighbours of its best point
        n = data.draw(st.integers(3, 24))
        graph_seed = data.draw(st.integers(0, 10_000))
        blk = random_blocks(graph_seed, n, data.draw(st.integers(1, min(4, n))))
        B = blk.n_blocks
        q_matrix = data.draw(st.lists(st.floats(0.1, 1.0), min_size=B * B, max_size=B * B))
        g = planted_zi_graph(graph_seed, n, directed=directed, loops=loops, blocks=blk.labels,
                             q_matrix=np.reshape(q_matrix, (B, B)),
                             rate=data.draw(st.floats(0.2, 40.0)))
        lab = blk.as_array()
        rates = _mean_rate_array(g.space, _decompose_rates(g, blk, block_tallies(g, blk)), lab)
        counts = g.count_vector()
        for sel in zipnets.models._block_pair_groups(g.space, lab, B).values():
            c, r = counts[sel], rates[sel]
            if not c.any():
                continue
            _, value, _, converged = zipnets.models._optimize_mixture(c, r, OptimizerConfig())
            if not converged:
                continue
            profile = zipnets.models._mixture_profile(c, r)
            q_lo = min(np.count_nonzero(c) / c.size + _EPS_Q, 1.0)
            grid = np.linspace(q_lo, 1.0, 201)
            vals = [profile(q) for q in grid]
            k = int(np.argmax(vals))
            a, b = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
            best, inv_phi = vals[k], (math.sqrt(5.0) - 1.0) / 2.0
            for _ in range(80):
                x1, x2 = b - inv_phi * (b - a), a + inv_phi * (b - a)
                f1, f2 = profile(x1), profile(x2)
                best = max(best, f1, f2)
                a, b = (a, x2) if f1 >= f2 else (x1, b)
            assert value >= best - 1e-12 * abs(best), (c.tolist(), r.tolist())

    def test_underflowing_zero_pair_at_q_one(self):
        counts = np.array([0, 3, 0, 1])
        rates = np.array([1200.0, 2.5, 0.4, 0.7])
        profile = zipnets.models._mixture_profile(counts, rates)
        want = _zip_loglik(counts, np.float64(1.0), rates)
        assert math.isfinite(want)
        assert profile(1.0) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("bad_rate", [0.0, -0.5])
    def test_positive_pair_without_rate_is_impossible(self, bad_rate):
        counts = np.array([0, 2, 1])
        rates = np.array([0.3, bad_rate, 1.1])
        profile = zipnets.models._mixture_profile(counts, rates)
        for q in (0.7, 1.0):
            assert _zip_loglik(counts, np.float64(q), rates / q) == -math.inf
            assert profile(q) == -math.inf

    def test_cell_without_zero_pairs_sits_at_q_one(self):
        counts = np.array([2, 1, 5])
        rates = np.array([1.5, 0.8, 6.0])
        q, value, iterations, converged = zipnets.models._optimize_mixture(
            counts, rates, OptimizerConfig())
        assert (q, iterations, converged) == (1.0, 0, True)
        assert value == pytest.approx(_zip_loglik(counts, np.float64(1.0), rates), rel=1e-15)


def _large_reference_case(directed, loops):
    """An 80-node planted graph with 4 random blocks, and its blocks."""
    blocks = random_blocks(80, 80, 4)
    g = planted_zi_graph(80 + 3 * directed + loops, 80, directed=directed, loops=loops,
                         blocks=blocks.labels, q_matrix=np.linspace(0.1, 0.85, 16).reshape(4, 4),
                         rate=4.0)
    return g, blocks


class TestMixtureReference:
    @pytest.mark.parametrize("directed,loops", _SPACES)
    @pytest.mark.parametrize("family,empty_cell", [("zi_clcm", False), ("zi_dcsbm", False),
                                                   ("zi_dcsbm", True),
                                                   pytest.param("zi_dcsbm", None, id="zi_dcsbm-large")])
    def test_matches_full_likelihood_search(self, directed, loops, family, empty_cell):
        if empty_cell is None:
            g, blocks = _large_reference_case(directed, loops)
        else:
            g, blocks = _reference_case(directed, loops, "pair", empty_cell)
        blocks = blocks if family == "zi_dcsbm" else None
        got = fit(family, g, blocks)
        with mock.patch.object(zipnets.models, "_optimize_mixture", _reference_optimize_mixture):
            want = fit(family, g, blocks)
        ll = got.diagnostics["loglik"]
        assert ll == pytest.approx(log_likelihood(got, g), rel=1e-12)
        assert ll >= want.diagnostics["loglik"] - 1e-9 * abs(ll)
        for key in ("converged", "n_mixture_problems"):
            assert got.diagnostics.get(key) == want.diagnostics.get(key)
        if family == "zi_clcm":
            assert got.q_global == pytest.approx(want.q_global, rel=0, abs=1e-6)
        else:
            assert np.allclose(got.q_blocks, want.q_blocks, rtol=0, atol=1e-6)
