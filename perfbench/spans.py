"""Spans around the zipnets functions the CLI calls into.

The program has no spans of its own yet, so the traced run wraps each
function from outside: every module-level name, method or
``METRIC_FUNCTIONS`` entry that refers to the function is replaced by a
wrapper that records a span (name, start, end, parent id) and a few
counters. Spans are kept in memory and written out when the run ends.
``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


# (layer name, owner path under the zipnets package, attribute, hook kind);
# the owner is a module, a class, or the METRIC_FUNCTIONS table
TARGETS = tuple(
    [(f"multigraph.{f}", "multigraph", f, None) for f in (
        "parse_contact_log", "aggregate_contacts", "save_graph", "load_graph",
        "degrees", "block_tallies")]
    + [("multigraph.MultiGraph", "multigraph.MultiGraph", "__init__", None)]
    + [(f"multigraph.MultiGraph.{f}", "multigraph.MultiGraph", f, None)
       for f in ("count_vector", "dense_matrix")]
    + [(f"blocks.{f}", "blocks", f, None)
       for f in ("detect_communities", "modularity", "_local_moving")]
    + [(f"models.{f}", "models", f, None) for f in (
        "fit_poisson", "fit_zi_gnp", "fit_zi_sbm", "fit_zi_clcm", "fit_zi_dcsbm",
        "fit_zi_node_level", "_zip_loglik", "log_likelihood")]
    + [("models.sample", "models", "sample", "sample")]
    + [(f"numerics.{f}", "numerics", f, "optimizer")
       for f in ("maximize_box_constrained", "maximize_scalar_bounded")]
    + [(f"numerics.{f}", "numerics", f, None)
       for f in ("second_smallest_eigenvalue", "welch_t_test", "lambert_w0")]
    + [(f"metrics.{f}", "metrics.METRIC_FUNCTIONS", f, "metric")
       for f in ("spectral_gap", "avg_clustering", "avg_path_length", "excess_kurtosis")]
    + [(f"metrics.{f}", "metrics", f, None)
       for f in ("ensemble_capture", "chi_squared_gof", "model_count_histogram")])

LAYER_NAMES = tuple(t[0] for t in TARGETS)

# extra counters beyond calls, s and self_s: (layer, stat, unit)
EXTRA_STATS = (("models.sample", "unique_ratio", "ratio"),
               ("numerics.maximize_box_constrained", "evals", "count"),
               ("numerics.maximize_box_constrained", "converged", "count"),
               ("numerics.maximize_scalar_bounded", "evals", "count"),
               ("metrics.spectral_gap", "failed", "count"),
               ("metrics.avg_clustering", "failed", "count"),
               ("metrics.avg_path_length", "failed", "count"),
               ("metrics.excess_kurtosis", "failed", "count"))


class Tracer:
    """Records spans while ``active``; wrappers pass straight through otherwise.

    ``clock`` is the run's Clock: the time its calibration kernel runs
    inside a span is recorded with the span and left out of its duration.
    """

    def __init__(self, clock):
        self.active = False
        self.clock = clock
        self.spans = []          # (name, start, end, parent id, kernel s); id = index
        self.counters = defaultdict(int)
        self._draws = set()      # distinct (model, seed) pairs given to sample
        self._models = []        # keeps sampled models alive so their ids stay unique
        self._stack = []
        self._patches = []       # (owner, attribute, original)

    # -- installation ---------------------------------------------------------

    def install(self, zipnets):
        """Wrap every target in every zipnets namespace that binds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "zipnets" or name.startswith("zipnets.")]
        for layer, owner_path, attr, kind in TARGETS:
            owner = functools.reduce(getattr, owner_path.split("."), zipnets)
            if isinstance(owner, dict):
                self._patches.append((owner, attr, owner[attr]))
                owner[attr] = self._wrap(layer, owner[attr], kind)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(layer, original, kind)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches = []

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, layer, fn, kind):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if kind == "optimizer":
                # every call site passes the objective first
                args = (tracer._counted(f"{layer}.evals", args[0]),) + args[1:]
            elif kind == "sample":
                model, seed = args[0], int(args[1])
                tracer._models.append(model)
                tracer._draws.add((id(model), seed))
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(sid)
            kernel = tracer.clock.sampling_s
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if kind == "metric":
                    tracer.counters[f"{layer}.failed"] += 1
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = (layer, start, end, parent,
                                     tracer.clock.sampling_s - kernel)
            if kind == "optimizer" and layer.endswith("box_constrained"):
                tracer.counters[f"{layer}.converged"] += bool(result.converged)
            return result

        return wrapper

    def _counted(self, key, objective):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[key] += 1
            return objective(*args, **kwargs)

        return counted

    # -- results ------------------------------------------------------------------

    def layer_stats(self) -> dict:
        """``<layer>.<stat>`` -> value for every layer and extra counter."""
        calls = dict.fromkeys(LAYER_NAMES, 0)
        total = dict.fromkeys(LAYER_NAMES, 0.0)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, kernel in self.spans:
            calls[name] += 1
            total[name] += end - start - kernel
            if parent >= 0:
                child[parent] += end - start - kernel
        own = dict.fromkeys(LAYER_NAMES, 0.0)
        for sid, (name, start, end, _, kernel) in enumerate(self.spans):
            own[name] += end - start - kernel - child[sid]
        out = {}
        for name in LAYER_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = own[name]
        for layer, stat, _ in EXTRA_STATS:
            out[f"{layer}.{stat}"] = self.counters.get(f"{layer}.{stat}", 0)
        n_sample = calls["models.sample"]
        out["models.sample.unique_ratio"] = len(self._draws) / n_sample if n_sample else 0.0
        return out

    def write_spans(self, fh, twin: int):
        """Append the recorded spans as JSON lines, times relative to the
        first span; ``kernel`` is the calibration kernel's time inside."""
        t0 = self.spans[0][1] if self.spans else 0.0
        for sid, (name, start, end, parent, kernel) in enumerate(self.spans):
            fh.write(json.dumps({"twin": twin, "id": sid, "parent": parent, "name": name,
                                 "start": start - t0, "end": end - t0,
                                 "kernel": kernel}) + "\n")
