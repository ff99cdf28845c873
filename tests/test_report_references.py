"""Reference tests for the numbers `report` aggregates.

The count law, the graph kurtosis and the per-graph structure the
structural metrics share are each pinned to the straightforward
computation they replace: the count law to per-boundary ``pdtr`` over
all pairs, the kurtosis to ``excess_kurtosis`` of the full count vector,
and every metric on a realization to the same metric on a fresh copy of
that graph, which has nothing cached.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import special

import zipnets.metrics
from zipnets import MultiGraph, bin_lowers, ensemble_capture, fit, model_count_histogram
from zipnets.cli import main
from zipnets.exceptions import DataError, NumericalError
from zipnets.metrics import METRIC_FUNCTIONS
from zipnets.models import ModelFamily, _pair_arrays, expected_count_distribution, sample
from zipnets.multigraph import _graph_kurtosis, excess_kurtosis, save_graph
from conftest import planted_zi_graph, random_blocks

SPACES = [(True, True), (True, False), (False, False)]  # (directed, loops)
METRIC_NAMES = ("spectral_gap", "avg_clustering", "avg_path_length", "excess_kurtosis")


def outcome(fn, g):
    try:
        return "ok", fn(g)
    except (DataError, NumericalError) as exc:
        return type(exc), str(exc)


def build(n, entries, directed, loops):
    counts = {}
    for i, j, w in entries:
        if i == j and not loops:
            continue
        counts[(i, j)] = counts.get((i, j), 0) + w
    return MultiGraph([f"v{k}" for k in range(n)], counts, directed, loops)


# -- graph kurtosis ---------------------------------------------------------------


def assert_kurtosis_pinned(g):
    got = outcome(_graph_kurtosis, g)
    want = outcome(lambda h: excess_kurtosis(h.count_vector()), g)
    if want[0] != "ok":
        assert got == want
        return
    assert got[0] == "ok"
    # relative to the kurtosis m4/m2^2, as the excess can cancel to about 0
    assert abs(got[1] - want[1]) <= 1e-13 * (want[1] + 3.0)


@st.composite
def kurtosis_graphs(draw):
    """Graphs in all three pair spaces, from one pair to complete ones.
    Counts up to 2**20 make the fourth power sums overflow int64; they
    are drawn only when a zero pair is left, as the float reference
    loses digits on large, nearly equal counts without one."""
    directed, loops = draw(st.sampled_from(SPACES))
    n = draw(st.integers(1, 9))
    big = draw(st.booleans())
    node = st.integers(0, n - 1)
    count = st.integers(1, 2 ** 20) if big else st.integers(1, 9)
    entries = draw(st.lists(st.tuples(node, node, count), max_size=n * n))
    g = build(n, entries, directed, loops)
    if big:
        assume(g.n_links < g.n_pairs)
    return g


@settings(max_examples=300, deadline=None)
@given(kurtosis_graphs())
def test_graph_kurtosis_equals_count_vector_kurtosis(g):
    assert_kurtosis_pinned(g)


def test_graph_kurtosis_edge_cases():
    cases = [
        build(1, [], False, False),                                   # P = 0
        build(1, [(0, 0, 4)], True, True),                            # P = 1
        build(2, [(0, 1, 3)], False, False),                          # P = 1
        build(4, [], True, False),                                    # all zero
        build(3, [(0, 1, 2), (0, 2, 2), (1, 2, 2)], False, False),    # complete, constant
        build(2, [(0, 1, 7), (1, 0, 7), (0, 0, 7), (1, 1, 7)], True, True),
        build(2, [(0, 1, 1), (1, 0, 2)], True, False),                # two values
        build(3, [(0, 1, 2 ** 40)], False, False),                    # Python-int sums
        build(5, [(0, 1, 65_000), (2, 3, 1), (1, 4, 40_000)], True, False),
    ]
    for g in cases:
        assert_kurtosis_pinned(g)
    assert outcome(_graph_kurtosis, cases[0]) == (
        DataError, "need at least two values for kurtosis")
    assert outcome(_graph_kurtosis, cases[4]) == (
        NumericalError, "kurtosis undefined: zero variance")


def test_report_kurtosis_is_the_capture_value(tmp_path):
    g = planted_zi_graph(31, 16, q=0.4, rate=5.0)
    graph, model = tmp_path / "graph.json", tmp_path / "m.json"
    save_graph(g, graph)
    assert main(["fit", "--input", str(graph), "--family", "zi_gnp", "--out", str(model)]) == 0
    out = tmp_path / "rep"
    assert main(["report", "--input", str(graph), "--model-a", str(model), "--seed", "4",
                 "--realizations", "3", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    kurt = report["graph"]["excess_kurtosis"]
    assert kurt == report["capture"]["excess_kurtosis"]["empirical"]
    assert repr(kurt) == repr(_graph_kurtosis(g))


# -- metrics on realizations against uncached copies ------------------------------------


def fresh_copy(g):
    return MultiGraph(g.node_ids, g.edge_arrays(), g.directed, g.loops_allowed)


def pinned(result):
    """repr of a value (pins type and every bit, nan included), or the error."""
    kind, value = result
    return (kind, repr(value)) if kind == "ok" else result


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SPACES), st.integers(3, 14), st.integers(0, 2 ** 16),
       st.floats(0.1, 0.9))
def test_captured_values_equal_uncached_metrics(space, n, seed, q):
    """Every value ensemble_capture scores on a realization, where the metrics
    share one cached structure, equals the metric on a fresh copy."""
    directed, loops = space
    g = planted_zi_graph(seed, n, directed=directed, loops=loops, q=q, rate=3.0)
    assume(g.n_links > 0)
    model = fit("zi_gnp", g)
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        for name in METRIC_NAMES:
            def recording(h, fn=METRIC_FUNCTIONS[name], name=name):
                result = outcome(fn, h)
                seen.append((name, h, result))
                if result[0] != "ok":
                    raise result[0](result[1])
                return result[1]
            mp.setitem(METRIC_FUNCTIONS, name, recording)
        try:
            ensemble_capture(model, g, METRIC_NAMES, n=3, seed=seed)
        except (DataError, NumericalError):
            pass
    assume(any(h is not g for _, h, _ in seen))
    for name, h, result in seen:
        assert pinned(result) == pinned(outcome(METRIC_FUNCTIONS[name], fresh_copy(h))), name


def test_hop_distances_run_at_most_once_per_realization(monkeypatch):
    g = planted_zi_graph(32, 20, q=0.5, rate=4.0)
    realization = sample(fit("zi_gnp", g), 5)
    calls = []
    original = zipnets.metrics._hop_distances
    monkeypatch.setattr(zipnets.metrics, "_hop_distances",
                        lambda adj: calls.append(1) or original(adj))
    METRIC_FUNCTIONS["avg_clustering"](realization)
    assert not calls  # clustering needs no distances
    for name in METRIC_NAMES + METRIC_NAMES:
        METRIC_FUNCTIONS[name](realization)
    assert len(calls) == 1


# -- count law ----------------------------------------------------------------------


def ref_model_cdf_at(model, x):
    """Mean over pairs of P(A_ij <= x_k): pdtr on every pair at every boundary."""
    q, lam = _pair_arrays(model)
    out = np.empty(len(x))
    for k, xv in enumerate(x):
        if xv < 0:
            out[k] = 0.0
            continue
        pois_cdf = special.pdtr(float(xv), lam)
        out[k] = float(np.mean((1.0 - q) + q * pois_cdf))
    return out


def ref_masses(model, lowers):
    cdf = ref_model_cdf_at(model, lowers - 1)
    mass = np.empty(len(lowers))
    mass[:-1] = np.diff(cdf)
    mass[-1] = 1.0 - cdf[-1]
    return np.clip(mass, 0.0, None)


def with_extremes(model):
    """The model with zero-rate pairs, pairs whose rate is above 745 (where
    exp(-lambda) underflows) and, for the block and node mixtures, q = 0 pairs."""
    changes = {}
    if model.p is not None:
        changes["p"] = 800.0
    if model.lambda_blocks is not None:
        lb = model.lambda_blocks.copy()
        lb[0, 0] = 0.0
        lb[1, :] *= 1e3
        changes["lambda_blocks"] = lb
    if model.theta_out is not None:
        th = model.theta_out.copy()
        th[0] = 0.0
        th[1] *= 1e3
        changes["theta_out"] = th
    if model.q_blocks is not None:
        qb = model.q_blocks.copy()
        qb[2, :] = 0.0
        changes["q_blocks"] = qb
    if model.q_nodes_out is not None:
        qn = model.q_nodes_out.copy()
        qn[2] = 0.0
        changes["q_nodes_out"] = qn
    return dataclasses.replace(model, **changes)


@pytest.fixture(scope="module")
def fitted_models():
    out = []
    for k, (directed, loops) in enumerate(SPACES):
        g = planted_zi_graph(40 + k, 12, directed=directed, loops=loops, q=0.5, rate=4.0)
        blocks = random_blocks(50 + k, 12, 3)
        out.extend(fit(fam, g, blocks) for fam in ModelFamily)
    return out


def test_count_law_matches_per_boundary_pdtr(fitted_models):
    assert len(fitted_models) == 30
    extreme_rates = 0
    for fitted in fitted_models:
        # a rate of 720 makes exp(-lambda) subnormal
        subnormal = [dataclasses.replace(fitted, p=720.0)] if fitted.p is not None else []
        for model in [fitted, with_extremes(fitted)] + subnormal:
            lam = _pair_arrays(model)[1]
            extreme_rates += bool((lam == 0).any() and (lam > 745).any())
            for lowers in (bin_lowers(40), bin_lowers(20_000), bin_lowers(12, "unit"),
                           bin_lowers(1000, "unit"), np.array([0, 1, 2, 5, 6, 7, 3000])):
                got = model_count_histogram(model, lowers).mass
                assert np.abs(got - ref_masses(model, lowers)).max() <= 1e-15
            got = expected_count_distribution(model, 1000)
            assert np.abs(got.mass - ref_masses(model, np.arange(1002))).max() <= 1e-15
    assert extreme_rates >= 24  # all but the two gnp families, in three spaces
