"""Acceptance suite.

One test per numbered criterion; each prints a "[criterion N] PASS"
line with its headline numbers, so a verbose run doubles as a
reproduction report. Criteria that need the real contact datasets skip
cleanly when no files are cached (set ZIPNETS_DATA_DIR or run the fetch
command); synthetic stand-ins exercising the identical pipeline always
run and are labelled "surrogate".
"""

import functools
import io
import itertools
import math
import time

import numpy as np
import pytest
from scipy.special import gammaln

import zipnets as z
from zipnets import OptimizerConfig
from zipnets.cli import main as cli_main
from zipnets.models import FittedModel, ModelFamily, _pair_arrays
from conftest import (
    find_dataset_file,
    planted_zi_graph,
    random_blocks,
    require_dataset,
    table1_reference,
    zi_block_surrogate,
)


def _announce(num, detail):
    print(f"[criterion {num}] PASS  {detail}")


def _load_dataset_graph(name):
    path = require_dataset(name)
    with open(path, "rb") as fh:
        log = z.parse_contact_log(fh)
    return z.aggregate_contacts(log), log


# -- shared synthetic benchmark graphs ----------------------------------------


@functools.lru_cache(maxsize=None)
def _surrogate_fits(kind):
    g = zi_block_surrogate(kind)
    blocks = z.detect_communities(g, seed=11)
    plain = z.fit_poisson("dcsbm", g, blocks)
    zi = z.fit_zi_dcsbm(g, blocks)
    return g, blocks, plain, zi


@functools.lru_cache(maxsize=None)
def _dataset_fits(name):
    g, _ = _load_dataset_graph(name)
    blocks = z.detect_communities(g, seed=11)
    plain = z.fit_poisson("dcsbm", g, blocks)
    zi = z.fit_zi_dcsbm(g, blocks)
    return g, blocks, plain, zi


# -- criterion 1: dataset summary statistics ----------------------------------


@pytest.mark.parametrize("name", sorted(table1_reference()))
def test_criterion_1_summary_statistics(name):
    ref_n, ref_links, ref_m, ref_d, ref_rho, ref_kurt = table1_reference()[name]
    start = time.perf_counter()
    g, _ = _load_dataset_graph(name)
    s = z.summary_stats(g)
    elapsed = time.perf_counter() - start
    assert s.n_nodes == ref_n
    assert s.n_links == ref_links
    assert s.n_multiedges == ref_m
    assert abs(s.density - ref_d) <= 0.01
    assert abs(s.multiedge_density - ref_rho) <= 0.01
    assert abs(s.excess_kurtosis - ref_kurt) <= 0.05 * ref_kurt
    assert elapsed < 10.0
    _announce(1, f"{name}: N={s.n_nodes} M={s.n_links} m={s.n_multiedges} "
                 f"kurtosis={s.excess_kurtosis:.2f} in {elapsed:.1f}s")


# -- criterion 2: moment matching over random graphs --------------------------


def _assert_close(a, b, tol=1e-6):
    assert abs(a - b) <= tol * max(1.0, abs(b)), f"{a} vs {b}"


def test_criterion_2_moment_matching_suite():
    start = time.perf_counter()
    spaces = [(True, True), (False, False), (True, False)]
    checked = 0
    for rep in range(100):
        directed, loops = spaces[rep % 3]
        n = 20 + (rep * 7) % 31  # 20..50
        g = planted_zi_graph(9000 + rep, n, directed=directed, loops=loops,
                             q=0.5, rate=5.0)
        kout, kin = z.degrees(g)
        m, M = g.n_multiedges, g.n_links
        blocks = random_blocks(9500 + rep, n, 2 + rep % 2)
        tall = z.block_tallies(g, blocks)

        fits = {
            "gnp": z.fit_poisson("gnp", g),
            "zi_gnp": z.fit_zi_gnp(g),
            "clcm": z.fit_poisson("clcm", g),
            "zi_clcm": z.fit_zi_clcm(g),
            "sbm": z.fit_poisson("sbm", g, blocks),
            "zi_sbm": z.fit_zi_sbm(g, blocks),
            "dcsbm": z.fit_poisson("dcsbm", g, blocks),
            "zi_dcsbm": z.fit_zi_dcsbm(g, blocks),
        }
        assert "fallback" not in fits["zi_gnp"].diagnostics
        assert not fits["zi_sbm"].diagnostics.get("block_fallbacks")

        for name, model in fits.items():
            e_m, e_M = z.expected_edges_links(model)
            _assert_close(e_m, m)
            if name == "zi_gnp":
                _assert_close(e_M, M)
            if name in ("clcm", "zi_clcm", "dcsbm", "zi_dcsbm"):
                e_out, e_in = z.expected_degrees(model)
                assert np.all(np.abs(e_out - kout) <= 1e-6 * np.maximum(kout, 1.0))
                assert np.all(np.abs(e_in - kin) <= 1e-6 * np.maximum(kin, 1.0))
            if name in ("sbm", "zi_sbm", "dcsbm", "zi_dcsbm"):
                q_arr, lam_arr = _pair_arrays(model)
                mean = q_arr * lam_arr
                ii, jj = g.space.pair_indices()
                lab = blocks.as_array()
                bi, bj = lab[ii], lab[jj]
                if not directed:
                    bi, bj = np.minimum(bi, bj), np.maximum(bi, bj)
                for b in range(blocks.n_blocks):
                    for d in range(blocks.n_blocks):
                        if not directed and d < b:
                            continue
                        sel = (bi == b) & (bj == d)
                        _assert_close(mean[sel].sum(), tall.m[b, d])
                        if name == "zi_sbm":
                            plink = (q_arr * -np.expm1(-lam_arr))[sel].sum()
                            _assert_close(plink, tall.links[b, d])
            checked += 1

    # node-level mixtures: moments are locked in by construction, so a
    # short optimizer budget keeps this affordable
    cfg = OptimizerConfig(max_iterations=40)
    for rep in range(100):
        n = 10 + (rep % 3) * 3
        g = planted_zi_graph(12000 + rep, n, q=0.7, rate=5.0)
        kout, _ = z.degrees(g)
        if rep % 2:
            model = z.fit_zi_node_level(g, cfg=cfg)
        else:
            blocks = random_blocks(12500 + rep, n, 2)
            model = z.fit_zi_node_level(g, blocks=blocks, cfg=cfg)
        e_m, _ = z.expected_edges_links(model)
        _assert_close(e_m, g.n_multiedges)
        e_out, _ = z.expected_degrees(model)
        assert np.all(np.abs(e_out - kout) <= 1e-6 * np.maximum(kout, 1.0))
        checked += 1

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _announce(2, f"{checked} fitted models matched their first moments "
                 f"within 1e-6 in {elapsed:.1f}s")


# -- criterion 3: closed form versus exhaustive likelihood maximization -------


def _profile_mle_oracle(hist, P):
    """Profile-likelihood oracle for the constant-rate zero-inflated
    model: exact inner maximization over the rate (bisection on the
    strictly concave stationarity condition) and a dense scan plus one
    refinement over the mixture weight."""
    n0 = hist.get(0, 0)
    pos = {c: k for c, k in hist.items() if c > 0}
    m = float(sum(c * k for c, k in pos.items()))
    S = float(sum(pos.values()))
    logfact = sum(k * gammaln(c + 1.0) for c, k in pos.items())

    def p_hat(q):
        lo = np.full_like(q, 1e-10)
        hi = np.full_like(q, 4.0 * m / P + 16.0)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            e = np.exp(-mid)
            grad = m / mid - S - n0 * q * e / ((1 - q) + q * e)
            upward = grad > 0
            lo = np.where(upward, mid, lo)
            hi = np.where(upward, hi, mid)
        return 0.5 * (lo + hi)

    def ll(q, p):
        with np.errstate(divide="ignore"):
            return (n0 * np.log((1 - q) + q * np.exp(-p))
                    + S * np.log(q) + m * np.log(p) - S * p - logfact)

    qs = np.linspace(1e-7, 1.0, 20_001)
    best = None
    for _ in range(2):
        ps = p_hat(qs)
        vals = ll(qs, ps)
        k = int(np.argmax(vals))
        best = (float(qs[k]), float(ps[k]))
        lo, hi = qs[max(k - 2, 0)], qs[min(k + 2, len(qs) - 1)]
        qs = np.linspace(lo, hi, 4_001)
    return best


def test_criterion_3_closed_form_vs_brute_force():
    start = time.perf_counter()
    worst_q = worst_p = 0.0
    cases = 0
    for n_nodes in (1, 2, 3):
        P = n_nodes * n_nodes
        # the likelihood depends on the counts only through their
        # histogram, so sweeping histograms covers every graph
        for combo in itertools.combinations_with_replacement(range(4), P):
            if sum(combo) == 0:
                continue
            hist = {}
            for c in combo:
                hist[c] = hist.get(c, 0) + 1
            mat = np.array(combo).reshape(n_nodes, n_nodes)
            pairs = {(i, j): int(mat[i, j]) for i in range(n_nodes)
                     for j in range(n_nodes) if mat[i, j]}
            g = z.MultiGraph([f"v{k}" for k in range(n_nodes)], pairs,
                             directed=True, loops=True)
            fit = z.fit_zi_gnp(g)
            q_ref, p_ref = _profile_mle_oracle(hist, P)
            worst_q = max(worst_q, abs(fit.q_global - q_ref))
            worst_p = max(worst_p, abs(fit.p - p_ref))
            cases += 1
    elapsed = time.perf_counter() - start
    assert worst_q <= 1e-4 and worst_p <= 1e-4
    assert elapsed < 120.0
    _announce(3, f"{cases} count histograms, max |dq|={worst_q:.2e}, "
                 f"max |dp|={worst_p:.2e} in {elapsed:.1f}s")


# -- criterion 4: reduction identities ----------------------------------------


def test_criterion_4_reduction_identities():
    import dataclasses

    for directed, loops in [(True, True), (False, False)]:
        g = planted_zi_graph(41, 22, directed=directed, loops=loops, q=0.5, rate=5.0)
        blocks = random_blocks(42, 22, 3)

        # mixture collapse: pinning every mixture weight to 1 reproduces
        # the plain counterpart exactly
        plain_clcm = z.fit_poisson("clcm", g)
        collapsed = dataclasses.replace(plain_clcm, family=ModelFamily.ZI_CLCM,
                                        q_global=1.0)
        assert abs(z.log_likelihood(collapsed, g)
                   - z.log_likelihood(plain_clcm, g)) <= 1e-8
        plain_dcsbm = z.fit_poisson("dcsbm", g, blocks)
        collapsed_b = dataclasses.replace(plain_dcsbm, family=ModelFamily.ZI_DCSBM,
                                          q_blocks=np.ones((3, 3)))
        assert abs(z.log_likelihood(collapsed_b, g)
                   - z.log_likelihood(plain_dcsbm, g)) <= 1e-8
        for i, j in [(0, 1), (5, 9)]:
            assert z.pair_law(collapsed, i, j).lam == z.pair_law(plain_clcm, i, j).lam

        # zi-SBM with one block is exactly the closed-form global fit
        gnp = z.fit_zi_gnp(g)
        sbm1 = z.fit_zi_sbm(g, z.single_block(22))
        assert abs(sbm1.q_blocks[0, 0] - gnp.q_global) <= 1e-8
        assert abs(sbm1.lambda_blocks[0, 0] - gnp.p) <= 1e-8

        # zi-DCSBM with one block matches the configuration fit pair rates
        clcm = z.fit_zi_clcm(g)
        dcsbm1 = z.fit_zi_dcsbm(g, z.single_block(22))
        qc, lc = _pair_arrays(clcm)
        qd, ld = _pair_arrays(dcsbm1)
        assert np.max(np.abs(lc - ld)) <= 1e-8 * max(1.0, float(np.max(lc)))
        assert np.max(np.abs(qc - qd)) <= 1e-8

        # constraint constants are absorbed by the block rates
        base = z.fit_zi_dcsbm(g, blocks)
        qb, lb = _pair_arrays(base)
        for c in (0.5, 2.0):
            refit = z.fit_zi_dcsbm(g, blocks, constraints=[c] * 3)
            qr, lr = _pair_arrays(refit)
            assert np.max(np.abs(lr - lb)) <= 1e-8 * max(1.0, float(np.max(lb)))
            assert np.array_equal(qr, qb)
    _announce(4, "collapse, single-block reductions and constraint "
                 "invariance all hold to 1e-8")


# -- criterion 5: chi-squared goodness-of-fit ordering -------------------------


def test_criterion_5_gof_surrogate():
    g, _, plain, zi = _surrogate_fits("small")
    stat_plain, _ = z.chi_squared_gof(g, plain)
    stat_zi, _ = z.chi_squared_gof(g, zi)
    assert stat_zi < stat_plain / 5.0
    g2, _, plain2, zi2 = _surrogate_fits("large")
    stat_plain2, _ = z.chi_squared_gof(g2, plain2)
    stat_zi2, _ = z.chi_squared_gof(g2, zi2)
    assert stat_zi2 * 1.3 <= stat_plain2
    _announce(5, f"surrogate chi2: small {stat_plain:.1f} vs {stat_zi:.1f}, "
                 f"large {stat_plain2:.1f} vs {stat_zi2:.1f}")


def test_criterion_5_gof_kh():
    g, _, plain, zi = _dataset_fits("KH")
    stat_plain, _ = z.chi_squared_gof(g, plain)
    stat_zi, _ = z.chi_squared_gof(g, zi)
    assert stat_zi < stat_plain / 5.0
    _announce(5, f"KH chi2: plain {stat_plain:.1f} vs zi {stat_zi:.1f}")


def test_criterion_5_gof_hs13():
    g, _, plain, zi = _dataset_fits("HS13")
    stat_plain, _ = z.chi_squared_gof(g, plain)
    stat_zi, _ = z.chi_squared_gof(g, zi)
    assert stat_zi * 1.3 <= stat_plain
    _announce(5, f"HS13 chi2: plain {stat_plain:.1f} vs zi {stat_zi:.1f}")


# -- criterion 6: sparsity saturation ------------------------------------------


def _synthetic_contact_log():
    g = zi_block_surrogate("small")
    rng = np.random.default_rng(5)
    lines = []
    for (i, j), w in sorted(g.counts.items()):
        for t in sorted(rng.integers(0, 10_000, size=w)):
            lines.append(f"{t} {g.node_ids[i]} {g.node_ids[j]}")
    lines.sort(key=lambda s: int(s.split()[0]))
    return z.parse_contact_log(io.BytesIO("\n".join(lines).encode()))


def test_criterion_6_saturation():
    log = _synthetic_contact_log()
    series = z.prefix_series(log, 30)
    P = len(log.labels()) * (len(log.labels()) - 1) // 2
    curve = z.saturation_curve(series, P)
    checked = 0
    for (m, M, *_), (_, d_emp, d_gnp) in zip(series, curve):
        if m / P >= 5.0:
            assert d_gnp > 0.99
            assert d_emp < 0.5
            checked += 1
    assert checked > 0
    # the zero-inflated closed form reproduces the observed density by
    # construction of its link-count moment equation
    for t1 in (5_000, 10_001):
        g = z.aggregate_contacts(log, (0, t1))
        fit = z.fit_zi_gnp(g)
        _, e_M = z.expected_edges_links(fit)
        assert abs(e_M / g.n_pairs - g.n_links / g.n_pairs) <= 1e-9
    _announce(6, f"{checked} prefix points with m/P >= 5: plain predicts "
                 f">0.99 density, data stays <0.5, zi matches exactly")


def test_criterion_6_saturation_dataset():
    name = next((c for c in ("KH", "HT09", "HO", "LyonSchool", "HS13")
                 if find_dataset_file(c)), None)
    if name is None:
        pytest.skip("no cached dataset with a sparse prefix series")
    _, log = _load_dataset_graph(name)
    series = z.prefix_series(log, 30)
    P = len(log.labels()) * (len(log.labels()) - 1) // 2
    curve = z.saturation_curve(series, P)
    checked = 0
    for (m, M, *_), (_, d_emp, d_gnp) in zip(series, curve):
        if m / P >= 5.0:
            assert d_gnp > 0.99
            assert d_emp < 0.5
            checked += 1
    if checked == 0:
        pytest.skip(f"{name} never reaches m/P >= 5")
    _announce(6, f"{name}: {checked} saturated prefix points behave as claimed")


# -- criterion 7: spectral gap ordering ----------------------------------------


def _gap_ordering(g, plain, zi, n, seed):
    rep_zi, rep_plain = z.ensemble_capture(zi, g, "spectral_gap", n=n,
                                           seed=seed, model_b=plain)
    emp = rep_zi.empirical_value
    assert rep_plain.model_mean > rep_zi.model_mean
    assert abs(rep_zi.model_mean - emp) < abs(rep_plain.model_mean - emp)
    assert rep_zi.t_test.p_value < 1e-3
    return emp, rep_zi.model_mean, rep_plain.model_mean, rep_zi.t_test.p_value


def test_criterion_7_spectral_gap_surrogate():
    start = time.perf_counter()
    g, _, plain, zi = _surrogate_fits("small")
    emp, zi_mean, plain_mean, p = _gap_ordering(g, plain, zi, 200, 5)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _announce(7, f"surrogate gap: empirical {emp:.4f}, zi {zi_mean:.4f}, "
                 f"plain {plain_mean:.4f}, Welch p={p:.2e} in {elapsed:.0f}s")


def test_criterion_7_spectral_gap_kh():
    g, _, plain, zi = _dataset_fits("KH")
    emp, zi_mean, plain_mean, p = _gap_ordering(g, plain, zi, 200, 5)
    _announce(7, f"KH gap: empirical {emp:.4f}, zi {zi_mean:.4f}, "
                 f"plain {plain_mean:.4f}, Welch p={p:.2e}")


# -- criterion 8: kurtosis capture ---------------------------------------------


def _kurtosis_capture(g, plain, zi, n, seed):
    # the same capture claim as criterion 7: the zero-inflated ensemble
    # sits closer to the observed kurtosis, and the two ensembles differ
    rep_zi, rep_plain = z.ensemble_capture(zi, g, "excess_kurtosis", n=n,
                                           seed=seed, model_b=plain)
    emp = rep_zi.empirical_value
    assert abs(rep_zi.model_mean - emp) < abs(rep_plain.model_mean - emp)
    assert rep_zi.t_test.p_value < 1e-3
    return emp, rep_zi.model_mean, rep_plain.model_mean, rep_zi.t_test.p_value


def test_criterion_8_kurtosis_surrogate():
    for kind in ("small", "large"):
        g, _, plain, zi = _surrogate_fits(kind)
        emp, zi_mean, plain_mean, p = _kurtosis_capture(g, plain, zi, 200, 6)
        _announce(8, f"surrogate {kind} kurtosis: empirical {emp:.1f}, "
                     f"zi {zi_mean:.1f}, plain {plain_mean:.1f}, Welch p={p:.2e}")


@pytest.mark.parametrize("name", ["KH", "HS13"])
def test_criterion_8_kurtosis_dataset(name):
    g, _, plain, zi = _dataset_fits(name)
    emp, zi_mean, plain_mean, p = _kurtosis_capture(g, plain, zi, 200, 6)
    _announce(8, f"{name} kurtosis: empirical {emp:.1f}, zi {zi_mean:.1f}, "
                 f"plain {plain_mean:.1f}, Welch p={p:.2e}")


# -- criterion 9: planted mixture recovery --------------------------------------


def test_criterion_9_planted_recovery():
    start = time.perf_counter()
    N, B = 100, 3
    truth = np.array([[0.3, 0.6, 0.9], [0.6, 0.9, 0.3], [0.9, 0.3, 0.6]])
    labels = np.repeat(np.arange(B), [34, 33, 33])
    blocks = z.BlockAssignment(labels=tuple(int(x) for x in labels), n_blocks=B)
    rng = np.random.default_rng(13)
    theta = rng.uniform(0.7, 1.3, size=N)
    for b in range(B):
        sel = labels == b
        theta[sel] /= theta[sel].sum()
    sizes = np.bincount(labels)
    lam = 8.0 * np.outer(sizes, sizes).astype(float)
    planted = FittedModel(ModelFamily.ZI_DCSBM, z.PairSpace(N, True, True),
                          blocks=blocks, theta_out=theta, theta_in=theta,
                          lambda_blocks=lam, q_blocks=truth)
    estimates = np.zeros((20, B, B))
    for rep in range(20):
        g = z.sample(planted, 2000 + rep)
        estimates[rep] = z.fit_zi_dcsbm(g, blocks).q_blocks
    mean = estimates.mean(axis=0)
    se = estimates.std(axis=0, ddof=1) / math.sqrt(20)
    failures = int(np.sum(np.abs(mean - truth) > 3.0 * se))
    assert failures <= 1
    assert float(np.max(np.abs(mean - truth))) < 0.02
    elapsed = time.perf_counter() - start
    _announce(9, f"9 mixture cells recovered, {failures} outside 3 SE, "
                 f"max abs error {np.max(np.abs(mean - truth)):.4f} in {elapsed:.0f}s")


# -- criterion 10: modularity null-term invariance -------------------------------


def test_criterion_10_modularity_invariance():
    # on the self-loop pair space the fitted expected-count matrix is
    # exactly the degree-product null term, for the plain and the
    # zero-inflated configuration fit alike
    for rep in range(50):
        g = planted_zi_graph(7000 + rep, 12 + rep % 9, directed=True, loops=True,
                             q=0.45, rate=4.0)
        kout, kin = z.degrees(g)
        null = np.outer(kout, kin) / g.n_multiedges
        plain = z.fit_poisson("clcm", g)
        zi = z.fit_zi_clcm(g)
        mat_plain = np.outer(plain.theta_out, plain.theta_in)
        mat_zi = zi.q_global * np.outer(zi.theta_out, zi.theta_in)
        scale = max(1.0, float(np.max(null)))
        assert np.max(np.abs(mat_plain - null)) <= 1e-12 * scale
        assert np.max(np.abs(mat_zi - null)) <= 1e-12 * scale
    # without self-loops the two fits still share one expected-count
    # matrix bit-for-bit, so modularity is a single function of the graph
    for rep in range(10):
        g = planted_zi_graph(7700 + rep, 15, q=0.5, rate=4.0)
        plain = z.fit_poisson("clcm", g)
        zi = z.fit_zi_clcm(g)
        mat_plain = np.outer(plain.theta_out, plain.theta_out)
        mat_zi = zi.q_global * np.outer(zi.theta_out, zi.theta_out)
        scale = max(1.0, float(np.max(mat_plain)))
        assert np.max(np.abs(mat_zi - mat_plain)) <= 1e-12 * scale
    _announce(10, "plain and zero-inflated configuration fits share the "
                  "degree-product null matrix to 1e-12 on 60 graphs")


# -- criterion 11: numerics (Lambert residual, sampling law) ---------------------


def test_criterion_11_lambert_grid():
    zs = np.concatenate([
        -1.0 / math.e + np.logspace(-9, math.log10(1.0 / math.e - 1e-9), 3000),
        np.logspace(-9, 6, 7000),
    ])
    worst = 0.0
    for v in zs:
        w = z.lambert_w0(float(v))
        worst = max(worst, abs(w * math.exp(w) - v) / max(1.0, abs(v)))
    assert worst <= 1e-12
    _announce(11, f"Lambert residual <= {worst:.2e} over a 10^4-point grid")


def test_criterion_11_sampling_law():
    import scipy.stats

    n = 317  # one realization yields ~1e5 iid pair counts
    model = FittedModel(ModelFamily.ZI_GNP, z.PairSpace(n, True, True),
                        p=2.0, q_global=0.5)
    g = z.sample(model, 2024)
    counts = g.count_vector()
    law = z.PairLaw(q=0.5, lam=2.0)
    top = 9
    observed = np.bincount(np.minimum(counts, top), minlength=top + 1)
    expected = np.array([z.zip_pmf(k, law) for k in range(top)])
    expected = np.append(expected, 1.0 - expected.sum()) * counts.size
    stat = float(((observed - expected) ** 2 / expected).sum())
    p = float(scipy.stats.chi2.sf(stat, df=top))
    assert p > 0.001
    _announce(11, f"sampling law chi2 p={p:.3f} on {counts.size} draws")


# -- criterion 12: estimation scaling structure ----------------------------------


def test_criterion_12_scaling_structure(tmp_path):
    out = tmp_path / "bench.csv"
    code = cli_main(["bench", "--family", "zi_dcsbm", "--n-range", "24",
                     "--b-range", "2,3,4", "--reps", "2", "--seed", "1",
                     "--out", str(out)])
    assert code == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert rows
    for row in rows:
        cells = row.split(",")
        assert int(cells[-1]) == int(cells[2]) ** 2

    # node-level fits: the same 400-step budget at twice the nodes, so twice
    # the free factors and four times the pairs. A step touches only its
    # factor's O(N) pairs, so the time ratio is at most about 2; full O(P)
    # likelihood evaluations per step would make it about 4.
    times, n_free = {}, {}
    for n in (50, 100):
        g = planted_zi_graph(1, n, directed=True, loops=True, q=0.5, rate=5.0)
        cfg = OptimizerConfig(max_iterations=400)
        t0 = time.perf_counter()
        model = z.fit_zi_node_level(g, cfg=cfg)
        times[n] = time.perf_counter() - t0
        assert model.diagnostics["iterations"] == 400
        n_free[n] = model.diagnostics["n_free_parameters"]
    assert n_free[100] == 2 * n_free[50]
    ratio = times[100] / times[50]
    assert ratio < 3.0
    _announce(12, f"mixture-problem count = B^2 in bench CSV; node-level "
                  f"fit time ratio t(100)/t(50) = {ratio:.1f}")
