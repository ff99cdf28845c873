"""Command-line interface: the pipeline from raw contact logs to
fitted models and comparison reports.

Subcommands: fetch, aggregate, detect-blocks, fit, sample, report,
bench. All randomness flows from --seed; given the same inputs and seed
every command writes identical bytes (bench timing columns excepted).
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, is_dataclass, asdict
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .exceptions import DataError, NumericalError, ZipnetsError
from . import blocks as _blocks
from . import datasets as _datasets
from . import metrics as _metrics
from . import models as _models
from .multigraph import (
    MultiGraph,
    aggregate_contacts,
    load_graph,
    parse_contact_log,
    parse_weighted_edgelist,
    read_block_assignment,
    save_graph,
    summary_stats,
    write_block_assignment,
)
from .numerics import OptimizerConfig

__all__ = ["main", "RunConfig"]


@dataclass
class RunConfig:
    """Resolved options shared by the fitting and reporting commands."""

    input: str
    format: str = "graph-json"
    directed: bool = False
    loops: bool = False
    family: Optional[str] = None
    blocks: str = "single"
    seed: int = 0
    n_realizations: int = 200
    binning: str = "geometric"
    out: Optional[str] = None
    resolution: float = 1.0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(asdict(obj))
    return obj


def _dump_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _existing(path, what: str = "input") -> Path:
    path = Path(path)
    if not path.exists():
        raise DataError(f"{what} file not found: {path}")
    return path


def _load_input(args) -> MultiGraph:
    path = _existing(args.input)
    fmt = args.format
    if fmt == "graph-json":
        return load_graph(path)
    if fmt == "contact-log":
        return aggregate_contacts(parse_contact_log(path))
    if fmt == "edgelist":
        with open(path, "rb") as fh:
            return parse_weighted_edgelist(fh, directed=args.directed, loops=args.loops)
    raise DataError(f"unknown input format {fmt!r}")


def _resolve_blocks(args, g: MultiGraph):
    """Returns (assignment or None, whether detection ran)."""
    src = args.blocks
    if src == "single":
        return None, False
    if src == "detect":
        assignment = _blocks.detect_communities(g, seed=args.seed, resolution=args.resolution)
        return assignment, True
    with open(_existing(src, "blocks"), "rb") as fh:
        return read_block_assignment(g, fh), False


def _q_summary(model: _models.FittedModel) -> str:
    if model.q_global is not None:
        return f"q={model.q_global:.6g}"
    if model.q_blocks is not None:
        q = np.asarray(model.q_blocks)
        live = q[q > 0]
        if live.size == 0:
            return "q=0"
        return f"q_blocks in [{live.min():.4g}, {live.max():.4g}]"
    if model.q_nodes_out is not None:
        q = np.asarray(model.q_nodes_out)
        return f"q_nodes in [{q.min():.4g}, {q.max():.4g}]"
    return "plain (q=1)"


# -- subcommands ------------------------------------------------------------


def _cmd_fetch(args) -> int:
    registry = (_datasets.load_registry(args.registry) if args.registry
                else _datasets.default_registry())
    names = sorted(registry) if args.name == "all" else [args.name]
    for name in names:
        if name not in registry:
            raise DataError(f"unknown dataset {name!r}; registry has {sorted(registry)}")
        path = _datasets.fetch_dataset(registry[name], cache_dir=args.cache_dir)
        print(f"{name}\t{path}")
    return 0


def _cmd_aggregate(args) -> int:
    log = parse_contact_log(_existing(args.input))
    window = None
    if args.t0 is not None or args.t1 is not None:
        t0 = args.t0 if args.t0 is not None else log.t_min
        t1 = args.t1 if args.t1 is not None else log.t_max + 1
        window = (t0, t1)
    g = aggregate_contacts(log, window)
    save_graph(g, args.out)
    s = summary_stats(g)
    print(f"N={s.n_nodes} M={s.n_links} m={s.n_multiedges} "
          f"d={s.density:.4f} rho={s.multiedge_density:.4f}")
    return 0


def _cmd_detect_blocks(args) -> int:
    g = _load_input(args)
    assignment = _blocks.detect_communities(g, seed=args.seed, resolution=args.resolution)
    write_block_assignment(g, assignment, args.out)
    q = _blocks.modularity(g, assignment, args.resolution).q_value
    print(f"B={assignment.n_blocks} Q={q:.6f}")
    return 0


def _cmd_fit(args) -> int:
    g = _load_input(args)
    family = _models.ModelFamily(args.family)
    assignment, detected = _resolve_blocks(args, g) if family.needs_blocks else (None, False)
    model = _models.fit(family, g, assignment)
    out = Path(args.out)
    _models.save_model(model, out)
    if detected:
        blocks_path = out.with_suffix(".blocks.txt")
        write_block_assignment(g, assignment, blocks_path)
        print(f"blocks written to {blocks_path}")
    diag = model.diagnostics
    exact = f" exact_moments={diag['exact_moments']}" if "exact_moments" in diag else ""
    if "moment_residual" in diag:
        exact += f" moment_residual={diag['moment_residual']:.3g}"
    print(f"family={model.family.value} loglik={diag.get('loglik'):.6f} "
          f"converged={diag.get('converged')}{exact} {_q_summary(model)}")
    return 0


def _cmd_sample(args) -> int:
    model = _models.load_model(_existing(args.model, "model"))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    seeds = rng.integers(0, 2 ** 62, size=args.n_samples)
    manifest = {"model": str(args.model), "seed": args.seed, "files": []}
    for k in range(args.n_samples):
        g = _models.sample(model, int(seeds[k]))
        path = out_dir / f"sample_{k:04d}.json"
        save_graph(g, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        manifest["files"].append({"file": path.name, "sha256": digest})
    _dump_json(manifest, out_dir / "manifest.json")
    print(f"wrote {args.n_samples} samples to {out_dir}")
    return 0


def _capture_block(rep_a, rep_b):
    def fmt(rep):
        if rep is None:
            return None
        return {"mean": rep.model_mean, "sd": rep.model_sd, "n": rep.n_realizations,
                "capture_pct": rep.capture_pct}

    block = {"metric": rep_a.metric_name, "empirical": rep_a.empirical_value,
             "a": fmt(rep_a), "b": fmt(rep_b)}
    if rep_a.t_test is not None:
        block["t_test"] = {"t": rep_a.t_test.t_statistic,
                           "dof": rep_a.t_test.degrees_of_freedom,
                           "p": rep_a.t_test.p_value}
    return block


def _cmd_report(args) -> int:
    g = _load_input(args)
    model_a = _models.load_model(_existing(args.model_a, "model"))
    model_b = _models.load_model(_existing(args.model_b, "model")) if args.model_b else None
    _models._check_same_space(model_a, g)
    if model_b is not None:
        _models._check_same_space(model_b, g)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    s = summary_stats(g)
    counts = g.count_vector()
    lowers = _metrics.bin_lowers(int(counts.max(initial=0)), args.binning)
    emp = _metrics.edge_count_histogram(g, lowers=lowers)
    hist_a = _metrics.model_count_histogram(model_a, lowers)
    hist_b = _metrics.model_count_histogram(model_b, lowers) if model_b else None
    _metrics.write_histogram_csv(out_dir / "histogram.csv", emp, hist_a, hist_b)

    def model_block(model, hist):
        stat, nbins = _metrics.chi_squared_from_binned(emp.mass * counts.size,
                                                       hist.mass * counts.size)
        return {
            "family": model.family.value,
            "loglik": _models.log_likelihood(model, g),
            "chi_squared": {"statistic": stat, "bins": nbins},
            "cumulative_error": _metrics.cumulative_error(emp, hist),
        }

    # out is omitted: report bytes depend only on (inputs, seed)
    config = RunConfig(input=str(args.input), format=args.format,
                       seed=args.seed, n_realizations=args.realizations,
                       binning=args.binning)
    report = {
        "version": __version__,
        "config": asdict(config),
        "graph": {"n_nodes": s.n_nodes, "links": s.n_links, "multiedges": s.n_multiedges,
                  "density": s.density, "multiedge_density": s.multiedge_density,
                  "excess_kurtosis": s.excess_kurtosis},
        "bins": emp.lowers,
        "models": {"a": model_block(model_a, hist_a)},
    }
    if model_b is not None:
        report["models"]["b"] = model_block(model_b, hist_b)
    captures = _metrics.ensemble_capture(
        model_a, g, ("spectral_gap", "avg_clustering", "avg_path_length", "excess_kurtosis"),
        args.realizations, args.seed, model_b=model_b)
    report["capture"] = {metric: _capture_block(*reps) for metric, reps in captures.items()}
    _dump_json(report, out_dir / "report.json")

    chi_a = report["models"]["a"]["chi_squared"]["statistic"]
    line = f"chi2[a]={chi_a:.4f}"
    if model_b is not None:
        chi_b = report["models"]["b"]["chi_squared"]["statistic"]
        line += f" chi2[b]={chi_b:.4f}"
    print(f"report written to {out_dir / 'report.json'}; {line}")
    return 0


def _random_block_graph(n: int, b: int, rng: np.random.Generator) -> tuple:
    """Random dense multigraph with planted blocks, for benchmarking.

    Roughly 10 N^2 multi-edges and a link density drawn uniformly from
    (0.05, 0.5), mirroring a randomized block-structure workload.
    """
    from .multigraph import BlockAssignment

    labels = np.concatenate([np.arange(b), rng.integers(0, b, size=n - b)])
    rng.shuffle(labels)
    assignment = BlockAssignment(labels=tuple(int(x) for x in labels), n_blocks=b)
    theta = rng.uniform(0.5, 1.5, size=n)
    lam_b = rng.uniform(0.5, 1.5, size=(b, b))
    lab = labels
    rates = theta[:, None] * theta[None, :] * lam_b[np.ix_(lab, lab)]
    density = rng.uniform(0.05, 0.5)
    rates *= 10.0 * n * n / rates.sum() / max(density, 0.05)
    active = rng.random((n, n)) < density
    counts = np.where(active, rng.poisson(rates * max(density, 0.05)), 0)
    rows, cols = np.nonzero(counts)
    g = MultiGraph([f"v{k}" for k in range(n)], (rows, cols, counts[rows, cols]),
                   directed=True, loops=True)
    return g, assignment


def _cmd_bench(args) -> int:
    rng = np.random.default_rng(args.seed)
    fam = _models.ModelFamily(args.family)
    node_level = fam in (_models.ModelFamily.ZI_CLCM_NODE, _models.ModelFamily.ZI_DCSBM_NODE)
    cfg = None
    if node_level and args.max_steps is not None:
        cfg = OptimizerConfig(max_iterations=args.max_steps)
    rows = []
    for n in args.n_range:
        for b in args.b_range:
            if not 0 < b < n:
                continue
            times = []
            problems = None
            for _ in range(args.reps):
                g, assignment = _random_block_graph(n, b, rng)
                try:
                    start = time.perf_counter()
                    diag = _models.fit(fam, g, assignment, cfg).diagnostics
                    times.append(time.perf_counter() - start)
                    problems = diag.get("n_mixture_problems", diag.get("n_free_parameters", 1))
                except ZipnetsError:
                    continue
            if not times:
                continue
            t = np.asarray(times)
            rows.append((fam.value, n, b, len(times), float(t.mean()),
                         float(np.quantile(t, 0.25)), float(np.quantile(t, 0.75)),
                         float(np.quantile(t, 0.05)), float(np.quantile(t, 0.95)),
                         problems))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("family,n,b,reps,mean_s,q25_s,q75_s,q05_s,q95_s,opt_problems\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")
    print(f"bench results written to {args.out} ({len(rows)} rows)")
    return 0


# -- parser -------------------------------------------------------------------


def _count(text: str) -> int:
    """argparse type: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _positive(text: str) -> int:
    """argparse type: a positive integer."""
    if not text.isdecimal() or int(text) == 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _counts(text: str) -> list:
    """argparse type: comma-separated non-negative integers."""
    return [_count(x) for x in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="zipnets",
                     description="Zero-inflated Poisson multi-edge network models")
    parser.add_argument("--version", action="version", version=f"zipnets {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_opts(p):
        p.add_argument("--input", required=True, help="input file")
        p.add_argument("--format", default="graph-json",
                       choices=["graph-json", "contact-log", "edgelist"])
        p.add_argument("--directed", action="store_true")
        p.add_argument("--loops", action="store_true")

    p = sub.add_parser("fetch", help="download a dataset into the cache")
    p.add_argument("--name", required=True, help="dataset name or 'all'")
    p.add_argument("--registry", default=None, help="JSON registry override")
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(func=_cmd_fetch)

    p = sub.add_parser("aggregate", help="aggregate a contact log into a graph")
    p.add_argument("--input", required=True)
    p.add_argument("--t0", type=int, default=None)
    p.add_argument("--t1", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser("detect-blocks", help="modularity community detection")
    add_input_opts(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--resolution", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_detect_blocks)

    p = sub.add_parser("fit", help="fit a model family to a graph")
    add_input_opts(p)
    p.add_argument("--family", required=True,
                   choices=[f.value for f in _models.ModelFamily])
    p.add_argument("--blocks", default="single",
                   help="'single', 'detect', or a blocks file path; "
                        "only families with blocks read it")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--resolution", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("sample", help="draw realizations from a model file")
    p.add_argument("--model", required=True)
    p.add_argument("-n", "--n-samples", type=_count, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("report", help="compare one or two fitted models against a graph")
    add_input_opts(p)
    p.add_argument("--model-a", required=True)
    p.add_argument("--model-b", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--realizations", type=int, default=200)
    p.add_argument("--bins", dest="binning", default="geometric",
                   choices=["geometric", "unit"])
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("bench", help="fit-time scaling over graph sizes")
    p.add_argument("--family", default="zi_dcsbm",
                   choices=[f.value for f in _models.ModelFamily])
    p.add_argument("--n-range", type=_counts, default="20,40", help="comma-separated node counts")
    p.add_argument("--b-range", type=_counts, default="2,4", help="comma-separated block counts")
    p.add_argument("--reps", type=_count, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=_positive, default=None,
                   help="coordinate-step budget of the node-level fits "
                        "(default: max(2000, 20 x free factors))")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args) or 0
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except ZipnetsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
