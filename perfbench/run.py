#!/usr/bin/env python3
"""Benchmark of the zipnets command-line pipeline on Table-1 twins.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload pipeline_hs13 --seed 1 --seconds 30 --trace 0

The run repeats the workload's CLI calls until ``--seconds`` are spent.
Repetition k runs on its own twin, drawn from (``--seed``, k) (see
twins.py), so a run's medians average over inputs as well as over time,
and the same seed always gives the same sequence of inputs. The calls go
through ``zipnets.cli.main(argv)`` in this process, exactly as the
``zipnets`` command would run them. Every output is checked after each
repetition. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where every CLI call
and every output check counts as one operation.

``--trace 0`` reports the end-to-end metrics: stage times are medians
over the repetitions, calibrated against machine speed (clock.py).
``--trace 1`` runs every twin twice, untraced then traced, checks that
both give identical output bytes, and reports the per-layer metrics:
spans recorded around each zipnets function the CLI calls into
(spans.py), the single stages, and the tracing overhead. Span times are
raw wall times less the calibration kernel's runs; span counts come from
the first twin, so they repeat exactly for a seed. Details of each run go to
``.perfbench_results/`` in the checkout.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import twins  # noqa: E402
from clock import REFERENCE_NOMINAL_S, Clock  # noqa: E402
from spans import EXTRA_STATS, LAYER_NAMES, Tracer  # noqa: E402
from workloads import N_REALIZATIONS, N_SAMPLES, WORKLOADS  # noqa: E402

WARM_UP = 2 ** 32 - 1  # twin index of the warm-up pass; timed twins count from 0

END_TO_END = {"wall_s": "s", "fit_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# single stages, reported by the traced run from its untraced repetitions;
# 0 where the workload lacks the stage. Ingest is here rather than end to
# end: its 0.2 s of allocation-heavy parsing varies by a quarter between
# repetitions on a shared machine, calibrated or not.
STAGE_METRICS = {"ingest_s": "ingest", "detect_s": "detect", "sample_s": "sample",
                 "report_s": "report",
                 "fit_zi_clcm_node_s": "fit_zi_clcm_node",
                 "fit_zi_dcsbm_node_s": "fit_zi_dcsbm_node"}


def per_layer_units() -> dict:
    units = {name: "s" for name in STAGE_METRICS}
    units["trace_overhead_s"] = "s"
    for layer in LAYER_NAMES:
        units.update({f"{layer}.calls": "count", f"{layer}.s": "s", f"{layer}.self_s": "s"})
    units.update({f"{layer}.{stat}": unit for layer, stat, unit in EXTRA_STATS})
    return units


class Ops:
    """Tally of operations: every CLI call and every output check is one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED {what}", file=sys.stderr)

    def check(self, what: str, predicate) -> None:
        """Run one output check; an exception counts as a failure."""
        try:
            ok = bool(predicate())
        except Exception:
            traceback.print_exc()
            ok = False
        self.record(ok, what)


def import_zipnets():
    """Import zipnets from this checkout's src/, never from site-packages."""
    sys.path.insert(0, str(ROOT / "src"))
    import zipnets
    import zipnets.cli

    if not Path(zipnets.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"zipnets was found at {zipnets.__file__}, not under {ROOT / 'src'}")
    return zipnets


def run_cli(zipnets, argv, ops: Ops, clock: Clock, tracer=None) -> tuple:
    """Time one ``zipnets.cli.main(argv)`` call, stdout discarded; returns
    (own seconds, calibrated seconds)."""
    def call():
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return zipnets.cli.main(argv)
        except Exception:
            traceback.print_exc()
            return None

    gc.collect()  # start each call from a collected heap, as a fresh process would
    if tracer is not None:
        tracer.active = True
    try:
        code, own, cal = clock.timed(call)
    finally:
        if tracer is not None:
            tracer.active = False
    ops.record(code == 0, f"zipnets {' '.join(argv)} exited with {code}")
    return own, cal


def check_outputs(zipnets, wl, out: Path, twin, ops: Ops) -> None:
    """Correctness checks on one repetition's outputs, one operation each."""
    from zipnets.models import expected_edges_links, load_model, log_likelihood

    g = None
    with contextlib.suppress(Exception):
        g = zipnets.load_graph(out / "graph.json")
    m = twin.n_contacts
    ops.check("aggregate reproduces the twin's (N, M, m)",
              lambda: (g.n_nodes, g.n_links, g.n_multiedges) == (twin.n, twin.n_links, m))
    if wl.detect:
        ops.check("detect-blocks assigns every node once", lambda: sorted(
            line.split()[0] for line in (out / "blocks.txt").read_text().splitlines())
            == sorted(g.node_ids))
    for fam in wl.families:
        model = None
        with contextlib.suppress(Exception):
            model = load_model(out / f"{fam}.json")
        ops.check(f"{fam}: E[m] = m to 1e-8",
                  lambda: abs(expected_edges_links(model)[0] - m) <= 1e-8 * m)
        ops.check(f"{fam}: diagnostics loglik equals log_likelihood", lambda: math.isclose(
            model.diagnostics["loglik"], log_likelihood(model, g), rel_tol=1e-9))
    if wl.sample_from:
        def samples_ok():
            files = json.loads((out / "samples" / "manifest.json").read_text())["files"]
            return len(files) == N_SAMPLES and all(
                hashlib.sha256((out / "samples" / f["file"]).read_bytes()).hexdigest()
                == f["sha256"] and zipnets.load_graph(out / "samples" / f["file"]).n_nodes
                == twin.n for f in files)
        ops.check("sample writes the files its manifest lists", samples_ok)
    if wl.report:
        def report_ok():
            report = json.loads((out / "report" / "report.json").read_text())
            blocks = report["capture"].values()
            return (report["graph"]["multiedges"] == m and len(blocks) == 4
                    and all(b[k]["n"] == N_REALIZATIONS for b in blocks for k in "ab"))
        ops.check("report covers all four metrics and both ensembles", report_ok)


def digest(out: Path) -> str:
    """One hash over every output file of a repetition."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_repetition(zipnets, wl, work: Path, seed: int, twin, ops: Ops, clock: Clock,
                   tracer=None):
    """Run the workload's CLI calls once on the twin in ``work``.

    Returns (stage -> raw seconds, stage -> calibrated seconds, output digest).
    """
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    raw, cal = {}, {}
    clock.mark()
    for stage, argv in wl.steps(out, work, seed):
        raw[stage], cal[stage] = run_cli(zipnets, argv, ops, clock, tracer)
    check_outputs(zipnets, wl, out, twin, ops)
    return raw, cal, digest(out)


def stage_sums(times: dict) -> dict:
    return {"wall_s": sum(times.values()),
            "fit_s": sum(t for stage, t in times.items() if stage.startswith("fit_"))}


def _is_time(key: str) -> bool:
    return key.endswith((".s", ".self_s"))


def median_of(rows, key):
    return statistics.median(row[key] for row in rows)


# -- machine record -------------------------------------------------------------


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def _blas():
    """(BLAS library description, its thread count or None)."""
    import ctypes
    import glob

    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info.get('name')} {info.get('version')}"
    except Exception:
        name = "unknown"
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        with contextlib.suppress(OSError):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return name, int(fn())
    return name, None


def _git_rev():
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def machine_info() -> dict:
    import numpy
    import scipy

    blas, threads = _blas()
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": nproc, "cpu_model": _cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": threads, "git_rev": _git_rev(), "platform": platform.platform()}


# -- main ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="use a tiny twin instead of the Table-1 row (smoke test)")
    return p.parse_args(argv)


def measure(zipnets, wl, work: Path, args, shape, ops: Ops, clock: Clock) -> dict:
    """Repeat the workload on fresh twins until --seconds are spent."""
    record = {"twin_write_s": [], "untraced": [], "traced": [], "digests": []}
    layers = []
    spans_path = ROOT / ".perfbench_results" / f"{wl.name}-seed{args.seed}-spans.jsonl"
    spans_fh = open(spans_path, "w", encoding="utf-8") if args.trace else None
    # the first pass through the CLI pays one-off costs (lazy imports,
    # interpreter warm-up), so one untimed, unchecked pass on a tiny twin
    # comes first
    twins.write_twin(work, *wl.tiny, seed=(args.seed, WARM_UP))
    out = work / "out"
    out.mkdir()
    for _, argv in wl.steps(out, work, args.seed):
        run_cli(zipnets, argv, ops, clock)
    begin = time.perf_counter()
    try:
        for k in itertools.count():
            clock.mark()
            twin, _, write_s = clock.timed(
                lambda: twins.write_twin(work, *shape, seed=(args.seed, k)))
            record["twin_write_s"].append(write_s)
            digests = []
            for traced in (False, True) if args.trace else (False,):
                tracer = Tracer(clock) if traced else None
                if traced:
                    tracer.install(zipnets)
                try:
                    raw, cal, dig = run_repetition(zipnets, wl, work, args.seed, twin, ops,
                                                   clock, tracer)
                finally:
                    if traced:
                        tracer.uninstall()
                record["traced" if traced else "untraced"].append({"raw": raw, "cal": cal})
                digests.append(dig)
            record["digests"].append(digests)
            if args.trace:
                ops.record(digests[0] == digests[1], "traced outputs identical to untraced")
                layers.append(tracer.layer_stats())
                tracer.write_spans(spans_fh, k)
            elapsed = time.perf_counter() - begin
            if elapsed + elapsed / (k + 1) > args.seconds:
                break
    finally:
        if spans_fh is not None:
            spans_fh.close()
    record["layers"] = layers
    return record


def end_to_end_values(record, setup_s) -> dict:
    sums = [stage_sums(rep["cal"]) for rep in record["untraced"]]
    values = {k: median_of(sums, k) for k in ("wall_s", "fit_s")}
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return values


def per_layer_values(record) -> dict:
    untraced = [rep["cal"] for rep in record["untraced"]]
    traced = [rep["cal"] for rep in record["traced"]]
    values = {name: median_of(untraced, stage) if stage in untraced[0] else 0.0
              for name, stage in STAGE_METRICS.items()}
    values["trace_overhead_s"] = (median_of([stage_sums(t) for t in traced], "wall_s")
                                  - median_of([stage_sums(t) for t in untraced], "wall_s"))
    layers = record["layers"]
    for key in layers[0]:
        values[key] = median_of(layers, key) if _is_time(key) else layers[0][key]
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        zipnets = import_zipnets()
    except ImportError as exc:
        print(f"perfbench: cannot import zipnets from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _STARTED
    clock = Clock()
    wl = WORKLOADS[args.workload]
    shape = wl.tiny if args.tiny else twins.TABLE1[wl.dataset]
    work = ROOT / ".perfbench_work" / f"{wl.name}-seed{args.seed}-{os.getpid()}"
    results = ROOT / ".perfbench_results"
    results.mkdir(exist_ok=True)
    work.mkdir(parents=True)
    ops = Ops()
    try:
        record = measure(zipnets, wl, work, args, shape, ops, clock)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    # set-up: the import, calibrated by the run's median reference (the
    # import ran before the kernel could), plus the median twin write
    setup_s = (import_s * REFERENCE_NOMINAL_S / statistics.median(clock.references)
               + statistics.median(record["twin_write_s"]))
    if args.trace:
        values, units = per_layer_values(record), per_layer_units()
    else:
        values, units = end_to_end_values(record, setup_s), END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    machine = machine_info()
    record.update({"machine": machine, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "tiny": args.tiny,
                   "workload": {"name": wl.name, "why": wl.why, "dataset": wl.dataset,
                                "shape": list(shape)},
                   "import_s": import_s, "setup_s": setup_s,
                   "references_s": clock.references,
                   "attempted": ops.attempted, "failed": ops.failed, "metrics": metrics})
    with open(results / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("machine: " + json.dumps(machine))
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
