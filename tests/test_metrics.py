import csv
import math

import numpy as np
import pytest

from zipnets import (
    CountHistogram,
    DataError,
    MultiGraph,
    avg_clustering,
    avg_path_length,
    bin_lowers,
    chi_squared_gof,
    cumulative_error,
    edge_count_histogram,
    ensemble_capture,
    fit_poisson,
    fit_zi_dcsbm,
    fit_zi_gnp,
    model_count_histogram,
    pair_law,
    saturation_curve,
    spectral_gap,
    spectral_gap_info,
    zip_pmf,
)
from zipnets.exceptions import NumericalError
from zipnets.metrics import (METRIC_FUNCTIONS, avg_path_length_info, chi_squared_from_binned,
                             write_histogram_csv)
from zipnets.models import FittedModel, ModelFamily
from conftest import graph_from_matrix, planted_zi_graph, random_blocks


def _exact_model_for(g, scale=50):
    """A model whose realizations reproduce g's structure almost surely:
    singleton-block SBM with per-pair rates scale * A_ij and q = 1."""
    n = g.n_nodes
    lam = g.dense_matrix().astype(float) * scale
    blocks = None
    from zipnets import BlockAssignment
    blocks = BlockAssignment(labels=tuple(range(n)), n_blocks=n)
    return FittedModel(ModelFamily.SBM, g.space, node_ids=g.node_ids,
                       blocks=blocks, lambda_blocks=lam)


class TestHistogram:
    def test_two_pair_example(self):
        g = graph_from_matrix([[0, 3], [0, 0]], directed=True, loops=False)
        hist = edge_count_histogram(g, policy="unit")
        assert hist.mass[0] == pytest.approx(0.5)
        assert hist.mass[3] == pytest.approx(0.5)

    def test_mass_sums_to_one(self):
        for seed in range(5):
            g = planted_zi_graph(seed, 15, q=0.5, rate=6.0)
            hist = edge_count_histogram(g)
            assert hist.mass.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_bin_separate(self):
        lowers = bin_lowers(25, "geometric")
        assert lowers[0] == 0 and lowers[1] == 1
        assert list(lowers[:10]) == list(range(10))
        with pytest.raises(DataError):
            CountHistogram(lowers=np.array([0, 2, 4]), mass=np.array([0.5, 0.25, 0.25]))

    def test_model_histogram_matches_pmf(self):
        g = planted_zi_graph(3, 10, q=0.4, rate=3.0)
        model = fit_zi_gnp(g)
        lowers = bin_lowers(8, "unit")
        hist = model_count_histogram(model, lowers)
        law = pair_law(model, 0, 1)
        for n in range(9):
            assert hist.mass[n] == pytest.approx(zip_pmf(n, law), abs=1e-10)
        assert hist.mass.sum() == pytest.approx(1.0, abs=1e-9)


class TestCumulativeError:
    def test_identical(self):
        h = CountHistogram(lowers=np.array([0, 1, 2]), mass=np.array([0.5, 0.3, 0.2]))
        assert np.allclose(cumulative_error(h, h), 0.0)

    def test_disjoint_support_reaches_two(self):
        a = CountHistogram(lowers=np.array([0, 1, 2]), mass=np.array([1.0, 0.0, 0.0]))
        b = CountHistogram(lowers=np.array([0, 1, 2]), mass=np.array([0.0, 0.0, 1.0]))
        ce = cumulative_error(a, b)
        assert ce[-1] == pytest.approx(2.0)

    def test_hand_built_three_bins(self):
        a = CountHistogram(lowers=np.array([0, 1, 5]), mass=np.array([0.6, 0.3, 0.1]))
        b = CountHistogram(lowers=np.array([0, 1, 5]), mass=np.array([0.5, 0.2, 0.3]))
        ce = cumulative_error(a, b)
        assert ce == pytest.approx([0.1, 0.2, 0.4])

    def test_total_variation_identity(self):
        g = planted_zi_graph(4, 12, q=0.5, rate=4.0)
        model = fit_zi_gnp(g)
        lowers = bin_lowers(int(g.count_vector().max()), "geometric")
        emp = edge_count_histogram(g, lowers=lowers)
        mod = model_count_histogram(model, lowers)
        ce = cumulative_error(emp, mod)
        tv = 0.5 * np.abs(emp.mass - mod.mass).sum()
        assert ce[-1] == pytest.approx(2.0 * tv, rel=1e-12)

    def test_mismatched_bins(self):
        a = CountHistogram(lowers=np.array([0, 1, 2]), mass=np.array([0.5, 0.3, 0.2]))
        b = CountHistogram(lowers=np.array([0, 1, 3]), mass=np.array([0.5, 0.3, 0.2]))
        with pytest.raises(DataError):
            cumulative_error(a, b)


class TestChiSquared:
    def test_zero_when_observed_equals_expected(self):
        expected = np.array([40.0, 30.0, 20.0, 7.0, 3.0])
        stat, nbins = chi_squared_from_binned(expected.copy(), expected.copy())
        assert stat == 0.0
        assert nbins >= 2

    def test_hand_computed(self):
        observed = np.array([10.0, 20.0, 30.0])
        expected = np.array([15.0, 15.0, 30.0])
        stat, nbins = chi_squared_from_binned(observed, expected)
        assert stat == pytest.approx(25.0 / 15.0 + 25.0 / 15.0)
        assert nbins == 3

    def test_merging_respects_min_expected(self):
        observed = np.array([50.0, 3.0, 1.0, 1.0, 0.0])
        expected = np.array([48.0, 2.0, 2.0, 2.0, 1.0])
        stat, nbins = chi_squared_from_binned(observed, expected)
        assert nbins == 2  # the tail merges into one group of expected 7

    def test_zi_fits_sparse_data_better(self):
        g = planted_zi_graph(5, 25, q=0.35, rate=5.0)
        blocks = random_blocks(6, 25, 2)
        plain = fit_poisson("dcsbm", g, blocks)
        zi = fit_zi_dcsbm(g, blocks)
        stat_plain, _ = chi_squared_gof(g, plain)
        stat_zi, _ = chi_squared_gof(g, zi)
        assert stat_zi < stat_plain

    def test_pair_space_guard(self):
        g = planted_zi_graph(7, 10)
        model = fit_zi_gnp(planted_zi_graph(8, 11))
        with pytest.raises(Exception):
            chi_squared_gof(g, model)


class TestSpectralGap:
    def test_triangle(self):
        g = graph_from_matrix(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
                              directed=False, loops=False)
        assert spectral_gap(g) == pytest.approx(1.5, abs=1e-9)

    def test_path(self):
        g = MultiGraph(list("abc"), {(0, 1): 1, (1, 2): 1}, directed=False, loops=False)
        assert spectral_gap(g) == pytest.approx(1.0, abs=1e-9)

    def test_count_scaling_invariance(self):
        g = planted_zi_graph(9, 14, q=0.5, rate=4.0)
        scaled = MultiGraph(g.node_ids, {k: 10 * w for k, w in g.counts.items()},
                            directed=False, loops=False)
        assert spectral_gap(scaled) == pytest.approx(spectral_gap(g), abs=1e-10)

    def test_relabeling_invariance(self):
        g = planted_zi_graph(10, 10, q=0.6, rate=4.0)
        perm = np.random.default_rng(1).permutation(10)
        remapped = {}
        for (i, j), w in g.counts.items():
            a, b = int(perm[i]), int(perm[j])
            remapped[(min(a, b), max(a, b))] = w
        g2 = MultiGraph(g.node_ids, remapped, directed=False, loops=False)
        assert spectral_gap(g2) == pytest.approx(spectral_gap(g), abs=1e-10)

    def test_giant_component_coverage(self):
        g = MultiGraph(list("abcde"), {(0, 1): 1, (1, 2): 1, (3, 4): 1},
                       directed=False, loops=False)
        gap, coverage = spectral_gap_info(g)
        assert coverage == pytest.approx(3 / 5)
        assert gap > 0.0


class TestClusteringAndPaths:
    def test_triangle_clustering(self):
        g = graph_from_matrix(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
                              directed=False, loops=False)
        assert avg_clustering(g) == pytest.approx(1.0)

    def test_star_clustering(self):
        g = MultiGraph(list("abcd"), {(0, 1): 1, (0, 2): 1, (0, 3): 1},
                       directed=False, loops=False)
        assert avg_clustering(g) == 0.0

    def test_k4_minus_edge(self):
        pairs = {(0, 2): 1, (0, 3): 1, (1, 2): 1, (1, 3): 1, (2, 3): 1}
        g = MultiGraph(list("abcd"), pairs, directed=False, loops=False)
        assert avg_clustering(g) == pytest.approx((2 / 3 + 2 / 3 + 1 + 1) / 4)

    def test_triangle_path_length(self):
        g = graph_from_matrix(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
                              directed=False, loops=False)
        assert avg_path_length(g) == pytest.approx(1.0)

    def test_p3_path_length(self):
        g = MultiGraph(list("abc"), {(0, 1): 1, (1, 2): 1}, directed=False, loops=False)
        assert avg_path_length(g) == pytest.approx(4.0 / 3.0)

    def test_disjoint_edges(self):
        g = MultiGraph(list("abcd"), {(0, 1): 1, (2, 3): 1}, directed=False, loops=False)
        mean, coverage = avg_path_length_info(g)
        assert mean == pytest.approx(1.0)
        assert coverage == pytest.approx(2.0 / 6.0)

    def test_no_edges_error(self):
        g = MultiGraph(list("ab"), {}, directed=False, loops=False)
        with pytest.raises(DataError):
            avg_path_length(g)


class TestSaturation:
    def test_zero_edges(self):
        out = saturation_curve([(0, 0)], 10)
        assert out[0][2] == 0.0

    def test_unit_ratio(self):
        out = saturation_curve([(10, 5)], 10)
        assert out[0][2] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    def test_monotone_and_bounded(self):
        ms = np.linspace(0, 500, 40)
        out = saturation_curve([(m, 0) for m in ms], 50)
        preds = [row[2] for row in out]
        assert all(b >= a for a, b in zip(preds, preds[1:]))
        assert all(0.0 <= p <= 1.0 for p in preds)


class TestEnsembleCapture:
    def test_exact_model_captures_everything(self):
        g = planted_zi_graph(11, 16, q=0.4, rate=4.0)
        model = _exact_model_for(g, scale=60)
        for metric in ("avg_clustering", "avg_path_length", "spectral_gap",
                       "excess_kurtosis"):
            rep, _ = ensemble_capture(model, g, metric, n=20, seed=9)
            assert rep.capture_pct == pytest.approx(100.0, abs=6.0)

    def test_bit_reproducible(self):
        g = planted_zi_graph(12, 12, q=0.5, rate=4.0)
        model = fit_zi_gnp(g)
        r1, _ = ensemble_capture(model, g, "excess_kurtosis", n=25, seed=3)
        r2, _ = ensemble_capture(model, g, "excess_kurtosis", n=25, seed=3)
        assert r1 == r2

    def test_two_models_get_welch_test(self):
        g = planted_zi_graph(13, 20, q=0.35, rate=5.0)
        plain = fit_poisson("gnp", g)
        zi = fit_zi_gnp(g)
        rep_zi, rep_plain = ensemble_capture(zi, g, "excess_kurtosis", n=40,
                                             seed=17, model_b=plain)
        assert rep_zi.t_test is not None
        assert rep_zi.t_test.p_value <= 1.0
        # zero-inflated realizations keep heavier count tails
        assert rep_zi.model_mean > rep_plain.model_mean

    def test_minimum_realizations(self):
        g = planted_zi_graph(14, 8)
        model = fit_zi_gnp(g)
        with pytest.raises(DataError):
            ensemble_capture(model, g, "excess_kurtosis", n=1, seed=0)


METRIC_NAMES = ("spectral_gap", "avg_clustering", "avg_path_length", "excess_kurtosis")


def _flaky(empirical):
    """A metric that evaluates only on ``empirical`` and fails on every
    realization."""
    def fn(h):
        if h is not empirical:
            raise NumericalError("realization rejected")
        return 1.0
    return fn


def _broken(h):
    raise DataError("cannot evaluate")


def _raised(call):
    with pytest.raises((DataError, NumericalError)) as info:
        call()
    return type(info.value), str(info.value)


class TestEnsembleCaptureOnePass:
    """The sequence form draws each realization once and scores it on every
    metric; its reports and errors are those of one call per name."""

    @pytest.mark.parametrize("two_models", [False, True])
    def test_sequence_matches_single_calls(self, two_models):
        g = planted_zi_graph(16, 14, q=0.45, rate=4.0)
        zi = fit_zi_gnp(g)
        plain = fit_poisson("gnp", g) if two_models else None
        together = ensemble_capture(zi, g, METRIC_NAMES, n=9, seed=4, model_b=plain)
        assert list(together) == list(METRIC_NAMES)
        for name in METRIC_NAMES:
            alone = ensemble_capture(zi, g, name, n=9, seed=4, model_b=plain)
            assert repr(together[name]) == repr(alone)

    def test_failing_metric_raises_as_single_call(self, monkeypatch):
        g = planted_zi_graph(17, 10, q=0.5, rate=4.0)
        model = fit_zi_gnp(g)
        monkeypatch.setitem(METRIC_FUNCTIONS, "flaky", _flaky(g))
        monkeypatch.setitem(METRIC_FUNCTIONS, "broken", _broken)
        single = _raised(lambda: ensemble_capture(model, g, "flaky", n=5, seed=1))
        assert single == (NumericalError, "metric flaky failed on 5/5 realizations")
        for names in (["flaky"], ["excess_kurtosis", "flaky", "broken"],
                      ["flaky", "no_such_metric"]):
            assert _raised(lambda: ensemble_capture(model, g, names, n=5, seed=1)) == single
        # a metric that fails on the empirical graph first raises its own error
        assert _raised(lambda: ensemble_capture(model, g, ["broken", "flaky"], n=5,
                                                seed=1)) == (DataError, "cannot evaluate")
        assert _raised(lambda: ensemble_capture(model, g, ["avg_clustering", "nope"],
                                                n=5, seed=1)) == (
            DataError, "unknown metric 'nope'")


class TestHistogramCsv:
    def test_columns_round_trip(self, tmp_path):
        g = planted_zi_graph(15, 12, q=0.5, rate=4.0)
        model = fit_zi_gnp(g)
        lowers = bin_lowers(int(g.count_vector().max()), "geometric")
        emp = edge_count_histogram(g, lowers=lowers)
        mod = model_count_histogram(model, lowers)
        path = tmp_path / "hist.csv"
        write_histogram_csv(path, emp, mod)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(lowers)
        assert rows[0]["bin_lo"] == "0" and rows[0]["bin_hi"] == "0"
        assert rows[-1]["bin_hi"] == ""
        total = sum(float(r["empirical_mass"]) for r in rows)
        assert total == pytest.approx(1.0, abs=1e-9)
