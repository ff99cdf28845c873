import dataclasses
import math

import numpy as np
import pytest
import scipy.stats

from zipnets import (
    BlockAssignment,
    DataError,
    MultiGraph,
    PairLaw,
    PairSpace,
    PairSpaceMismatch,
    degrees,
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
from zipnets.models import FittedModel, ModelFamily, _pair_arrays
from conftest import graph_from_matrix, planted_zi_graph, random_blocks


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
        g = planted_zi_graph(2, 15, directed=True, loops=True, q=0.5, rate=4.0)
        ref = fit_zi_gnp(g)
        model = fit_zi_sbm(g, single_block(15))
        assert model.q_blocks[0, 0] == pytest.approx(ref.q_global, rel=1e-12)
        assert model.lambda_blocks[0, 0] == pytest.approx(ref.p, rel=1e-12)

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
        for directed, loops in [(True, True), (False, False)]:
            g = planted_zi_graph(12, 20, directed=directed, loops=loops, q=0.5, rate=4.0)
            clcm = fit_zi_clcm(g)
            dcsbm = fit_zi_dcsbm(g, single_block(20))
            qc, lc = _pair_arrays(clcm)
            qd, ld = _pair_arrays(dcsbm)
            assert np.allclose(lc, ld, rtol=1e-8)
            assert np.allclose(qc, qd, rtol=1e-10)

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
        model = fit_zi_node_level(g, blocks=blocks, block_q="pair")
        assert model.family is ModelFamily.ZI_DCSBM_NODE
        assert model.constraint["block_q"] == "pair"
        law = pair_law(model, 0, 5)
        lab = blocks.as_array()
        expected_q = (model.q_blocks[lab[0], lab[5]]
                      * model.q_nodes_out[0] * model.q_nodes_in[5])
        assert law.q == pytest.approx(expected_q, rel=1e-12)
        diag = fit_zi_node_level(g, blocks=blocks, block_q="diag")
        assert diag.constraint["block_q"] == "diag"
        lab2 = blocks.as_array()
        within = [(i, j) for i in range(16) for j in range(i + 1, 16)
                  if lab2[i] == lab2[j]][0]
        cross = [(i, j) for i in range(16) for j in range(i + 1, 16)
                 if lab2[i] != lab2[j]][0]
        qd = np.diag(diag.q_blocks)
        assert pair_law(diag, *within).q == pytest.approx(
            qd[lab2[within[0]]] * diag.q_nodes_out[within[0]]
            * diag.q_nodes_in[within[1]], rel=1e-12)
        assert pair_law(diag, *cross).q == pytest.approx(
            diag.q_nodes_out[cross[0]] * diag.q_nodes_in[cross[1]], rel=1e-12)

    def test_diag_variant_round_trip(self, tmp_path):
        g = planted_zi_graph(44, 14, q=0.5, rate=5.0)
        blocks = random_blocks(45, 14, 2)
        model = fit_zi_node_level(g, blocks=blocks, block_q="diag")
        path = tmp_path / "diag.json"
        save_model(model, path)
        loaded = load_model(path)
        q1, l1 = _pair_arrays(model)
        q2, l2 = _pair_arrays(loaded)
        assert np.array_equal(q1, q2) and np.array_equal(l1, l2)


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
