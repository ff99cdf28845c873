"""zipnets: zero-inflated Poisson multi-edge network models.

Fitting, sampling and goodness-of-fit evaluation for plain and
zero-inflated G(N,p), stochastic block, Chung-Lu configuration and
degree-corrected block models on integer-count multigraphs.
"""

__version__ = "0.1.0"

from .exceptions import DataError, NumericalError, PairSpaceMismatch, ParseError, ZipnetsError
from .multigraph import (
    BlockAssignment,
    BlockTallies,
    GraphSummary,
    MultiGraph,
    PairSpace,
    TemporalContactLog,
    aggregate_contacts,
    block_tallies,
    degrees,
    excess_kurtosis,
    graph_from_json,
    graph_to_json,
    load_graph,
    parse_contact_log,
    parse_weighted_edgelist,
    prefix_series,
    read_block_assignment,
    save_graph,
    single_block,
    summary_stats,
    write_block_assignment,
)
from .numerics import (
    OptimizerConfig,
    OptResult,
    TTestResult,
    lambert_w0,
    maximize_box_constrained,
    maximize_scalar_bounded,
    second_smallest_eigenvalue,
    welch_t_test,
)
from .models import (
    FittedModel,
    ModelFamily,
    PairLaw,
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
    zip_pmf,
)
from .blocks import ModularityScore, detect_communities, modularity
from .metrics import (
    CaptureReport,
    CountHistogram,
    avg_clustering,
    avg_path_length,
    bin_lowers,
    chi_squared_gof,
    cumulative_error,
    edge_count_histogram,
    ensemble_capture,
    model_count_histogram,
    saturation_curve,
    spectral_gap,
    spectral_gap_info,
)
from .datasets import DatasetDescriptor, default_registry, fetch_dataset, load_registry
