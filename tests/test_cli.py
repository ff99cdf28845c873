import gzip
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zipnets.metrics
import zipnets.models

from zipnets import (aggregate_contacts, graph_to_json, load_graph, load_model,
                     parse_contact_log, sample, save_graph)
from zipnets.cli import main
from conftest import planted_zi_graph, zi_block_surrogate


@pytest.fixture()
def contact_log(tmp_path):
    rng = np.random.default_rng(0)
    lines = []
    for t in range(0, 4000, 20):
        for _ in range(rng.integers(1, 4)):
            i, j = rng.integers(0, 12, size=2)
            while j == i:
                j = rng.integers(0, 12)
            lines.append(f"{t} p{i} p{j}")
    path = tmp_path / "contacts.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture()
def graph_file(tmp_path):
    g = planted_zi_graph(21, 18, q=0.45, rate=4.0)
    path = tmp_path / "graph.json"
    save_graph(g, path)
    return path


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["fit"]) == 1
        assert main(["no-such-command"]) == 1

    def test_data_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        code = main(["fit", "--input", str(missing), "--family", "zi_gnp",
                     "--out", str(tmp_path / "m.json")])
        assert code == 2

    @pytest.mark.parametrize("flag,what", [("aggregate --input", "input"),
                                           ("sample --model", "model")])
    def test_missing_file_is_a_data_error(self, tmp_path, capsys, flag, what):
        argv = flag.split() + [str(tmp_path / "nope"), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{what} file not found" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [["sample", "--model", "m.json", "-n", "-1"],
                                      ["bench", "--reps", "-1"],
                                      ["bench", "--n-range", "10,x"],
                                      ["bench", "--max-steps", "0"],
                                      ["report", "--realizations", "1"],
                                      ["report", "--realizations", "0"],
                                      ["report", "--realizations", "-3"],
                                      ["detect-blocks", "--resolution", "-1"],
                                      ["detect-blocks", "--resolution", "0"],
                                      ["detect-blocks", "--resolution", "nan"],
                                      ["detect-blocks", "--resolution", "inf"],
                                      ["fit", "--resolution", "nan"],
                                      ["fit", "--resolution", "x"]])
    def test_bad_counts_are_usage_errors(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "expected" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_help_is_success(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("edges", [[[0, 1]], [[0, 1, 1.5]], [[0, "x", 1]]])
    def test_corrupt_graph_json_is_a_data_error(self, graph_file, tmp_path, capsys, edges):
        obj = json.loads(graph_file.read_text())
        obj["edges"] = edges
        graph_file.write_text(json.dumps(obj))
        code = main(["fit", "--input", str(graph_file), "--family", "zi_gnp",
                     "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert "rows of integers" in capsys.readouterr().err


def test_import_leaves_heavy_scipy_modules_unloaded():
    # each of these adds import time and tens of MB to every CLI call
    heavy = ("scipy.optimize", "scipy.stats", "scipy.sparse")
    code = f"import sys, zipnets.cli; print([m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(Path(zipnets.models.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestAggregate:
    def test_aggregate_and_window(self, contact_log, tmp_path, capsys):
        out = tmp_path / "g.json"
        assert main(["aggregate", "--input", str(contact_log), "--out", str(out)]) == 0
        g = load_graph(out)
        assert g.n_nodes == 12
        out2 = tmp_path / "g2.json"
        assert main(["aggregate", "--input", str(contact_log), "--t1", "2000",
                     "--out", str(out2)]) == 0
        g2 = load_graph(out2)
        assert g2.n_multiedges < g.n_multiedges
        assert g2.n_nodes == g.n_nodes

    def test_gzip_input(self, contact_log, tmp_path):
        packed = tmp_path / "contacts.txt.gz"
        packed.write_bytes(gzip.compress(contact_log.read_bytes()))
        out = tmp_path / "g.json"
        out_gz = tmp_path / "g_gz.json"
        assert main(["aggregate", "--input", str(contact_log), "--out", str(out)]) == 0
        assert main(["aggregate", "--input", str(packed), "--out", str(out_gz)]) == 0
        assert out.read_text() == out_gz.read_text()

    def test_labels_that_need_escaping_round_trip(self, tmp_path):
        labels = ['q"uote', "back\\slash", "ctl\x01\x7f", "né", "雪", "\U0001f600"]
        lines = [f"{t} {labels[t % 6]} {labels[(t + 1 + t // 6) % 6]}" for t in range(30)]
        log = tmp_path / "contacts.txt"
        log.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "g.json"
        assert main(["aggregate", "--input", str(log), "--out", str(out)]) == 0
        g = load_graph(out)
        assert sorted(g.node_ids) == sorted(labels)
        assert graph_to_json(g) == graph_to_json(aggregate_contacts(parse_contact_log(log)))


class TestFit:
    def test_fit_zi_gnp_schema(self, graph_file, tmp_path, capsys):
        out = tmp_path / "model.json"
        assert main(["fit", "--input", str(graph_file), "--family", "zi_gnp",
                     "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["family"] == "zi_gnp"
        assert obj["q"] is not None and obj["p"] is not None
        stdout = capsys.readouterr().out
        assert "family=zi_gnp" in stdout and "q=" in stdout

    def test_fit_with_detected_blocks_emits_blocks_file(self, graph_file, tmp_path):
        out = tmp_path / "model.json"
        assert main(["fit", "--input", str(graph_file), "--family", "zi_dcsbm",
                     "--blocks", "detect", "--seed", "7", "--out", str(out)]) == 0
        blocks_path = tmp_path / "model.blocks.txt"
        assert blocks_path.exists()
        assert len(blocks_path.read_text().strip().splitlines()) == 18

    def test_family_without_blocks_ignores_detect(self, graph_file, tmp_path, capsys):
        out = tmp_path / "gnp.json"
        assert main(["fit", "--input", str(graph_file), "--family", "gnp",
                     "--blocks", "detect", "--seed", "7", "--out", str(out)]) == 0
        assert not (tmp_path / "gnp.blocks.txt").exists()
        assert "blocks written" not in capsys.readouterr().out
        assert json.loads(out.read_text())["blocks"] is None

    def test_summary_reports_exact_moments(self, graph_file, tmp_path, capsys):
        assert main(["fit", "--input", str(graph_file), "--family", "dcsbm",
                     "--blocks", "detect", "--seed", "7",
                     "--out", str(tmp_path / "m.json")]) == 0
        assert "converged=True exact_moments=True " in capsys.readouterr().out
        assert main(["fit", "--input", str(graph_file), "--family", "zi_gnp",
                     "--out", str(tmp_path / "g.json")]) == 0
        assert "exact_moments" not in capsys.readouterr().out

    def test_summary_reports_moment_residual(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "graph.json"
        save_graph(zi_block_surrogate("small"), path)
        monkeypatch.setattr(zipnets.models, "_REFINE_MAX_STEPS", 1)
        assert main(["fit", "--input", str(path), "--family", "dcsbm", "--blocks", "detect",
                     "--seed", "11", "--out", str(tmp_path / "m.json")]) == 0
        residual = json.loads((tmp_path / "m.json").read_text())["diagnostics"]["moment_residual"]
        assert f"exact_moments=False moment_residual={residual:.3g} " in capsys.readouterr().out

    def test_blocks_required(self, graph_file, tmp_path):
        code = main(["fit", "--input", str(graph_file), "--family", "zi_sbm",
                     "--out", str(tmp_path / "m.json")])
        assert code == 2

    def test_refit_round_trip_exact(self, graph_file, tmp_path):
        # fit, serialize the graph and model, reload both, refit: the
        # parameters must agree to the last digit
        out1 = tmp_path / "m1.json"
        assert main(["fit", "--input", str(graph_file), "--family", "zi_clcm",
                     "--out", str(out1)]) == 0
        g = load_graph(graph_file)
        round_tripped = tmp_path / "graph2.json"
        save_graph(g, round_tripped)
        out2 = tmp_path / "m2.json"
        assert main(["fit", "--input", str(round_tripped), "--family", "zi_clcm",
                     "--out", str(out2)]) == 0
        assert json.loads(out1.read_text()) == json.loads(out2.read_text())


class TestSample:
    def test_manifest_deterministic(self, graph_file, tmp_path):
        model_path = tmp_path / "model.json"
        main(["fit", "--input", str(graph_file), "--family", "zi_gnp",
              "--out", str(model_path)])
        d1, d2 = tmp_path / "s1", tmp_path / "s2"
        for d in (d1, d2):
            assert main(["sample", "--model", str(model_path), "-n", "3",
                         "--seed", "11", "--out", str(d)]) == 0
        m1 = json.loads((d1 / "manifest.json").read_text())
        m2 = json.loads((d2 / "manifest.json").read_text())
        assert m1["files"] == m2["files"]
        assert len(m1["files"]) == 3

    def test_files_hash_and_load_as_drawn(self, tmp_path):
        graph = tmp_path / "graph.json"
        save_graph(planted_zi_graph(5, 14, directed=True, loops=True, q=0.5, rate=3.0), graph)
        model_path, out = tmp_path / "model.json", tmp_path / "samples"
        assert main(["fit", "--input", str(graph), "--family", "zi_clcm",
                     "--out", str(model_path)]) == 0
        assert main(["sample", "--model", str(model_path), "-n", "4", "--seed", "9",
                     "--out", str(out)]) == 0
        model = load_model(model_path)
        assert model.space.directed and model.space.loops
        seeds = np.random.default_rng(9).integers(0, 2 ** 62, size=4)
        files = json.loads((out / "manifest.json").read_text())["files"]
        assert [f["file"] for f in files] == [f"sample_{k:04d}.json" for k in range(4)]
        for f, seed in zip(files, seeds):
            path = out / f["file"]
            assert hashlib.sha256(path.read_bytes()).hexdigest() == f["sha256"]
            assert graph_to_json(load_graph(path)) == graph_to_json(sample(model, int(seed)))

    def test_bulk_sampling_is_fast(self, tmp_path):
        # a KH-sized model (47 nodes) must sample hundreds of
        # realizations well inside the desk-scale minute budget
        import time
        g = planted_zi_graph(40, 47, q=0.45, rate=30.0)
        model_path = tmp_path / "m.json"
        from zipnets import fit_zi_gnp, save_model
        save_model(fit_zi_gnp(g), model_path)
        start = time.perf_counter()
        assert main(["sample", "--model", str(model_path), "-n", "200",
                     "--seed", "1", "--out", str(tmp_path / "bulk")]) == 0
        assert time.perf_counter() - start < 60.0

    def test_q_zero_model_samples_empty(self, tmp_path):
        model_obj = {
            "family": "zi_gnp",
            "pair_space": {"n": 6, "directed": False, "loops": False},
            "node_ids": None, "blocks": None, "p": 3.0, "lambda": None,
            "theta_out": None, "theta_in": None, "q": 0.0, "q_blocks": None,
            "q_nodes": None, "constraint": {}, "diagnostics": {},
        }
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(model_obj))
        out = tmp_path / "samples"
        assert main(["sample", "--model", str(model_path), "-n", "1",
                     "--seed", "0", "--out", str(out)]) == 0
        g = load_graph(out / "sample_0000.json")
        assert g.n_multiedges == 0

    @pytest.mark.parametrize("edit", [{"q_blocks": None}, {"theta_out": None},
                                      {"q": 0.5}, {"theta_in": [1.0]}])
    def test_malformed_model_is_a_data_error(self, graph_file, tmp_path, capsys, edit):
        model_path = tmp_path / "model.json"
        assert main(["fit", "--input", str(graph_file), "--family", "zi_dcsbm",
                     "--blocks", "detect", "--out", str(model_path)]) == 0
        obj = json.loads(model_path.read_text())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(obj, **edit)))
        out = tmp_path / "samples"
        assert main(["sample", "--model", str(bad), "-n", "1", "--seed", "0",
                     "--out", str(out)]) == 2
        assert "invalid model JSON" in capsys.readouterr().err
        assert not (out / "sample_0000.json").exists()


class TestReport:
    def test_report_two_models(self, graph_file, tmp_path, capsys):
        ma, mb = tmp_path / "zi.json", tmp_path / "plain.json"
        main(["fit", "--input", str(graph_file), "--family", "zi_dcsbm",
              "--blocks", "detect", "--seed", "3", "--out", str(ma)])
        blocks_file = tmp_path / "zi.blocks.txt"
        main(["fit", "--input", str(graph_file), "--family", "dcsbm",
              "--blocks", str(blocks_file), "--out", str(mb)])
        out = tmp_path / "report"
        assert main(["report", "--input", str(graph_file), "--model-a", str(ma),
                     "--model-b", str(mb), "--seed", "5", "--realizations", "12",
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["models"]["a"]["chi_squared"]["statistic"] >= 0
        assert "spectral_gap" in report["capture"]
        assert (out / "histogram.csv").exists()

    def test_report_byte_identical(self, graph_file, tmp_path):
        ma = tmp_path / "m.json"
        main(["fit", "--input", str(graph_file), "--family", "zi_gnp",
              "--out", str(ma)])
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["report", "--input", str(graph_file), "--model-a", str(ma),
                         "--seed", "9", "--realizations", "8", "--out", str(out)]) == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_report_draws_each_realization_once(self, graph_file, tmp_path, monkeypatch):
        ma, mb = tmp_path / "zi.json", tmp_path / "plain.json"
        main(["fit", "--input", str(graph_file), "--family", "zi_gnp", "--out", str(ma)])
        main(["fit", "--input", str(graph_file), "--family", "gnp", "--out", str(mb)])
        draws = []
        original = zipnets.models.sample

        def counting(model, seed):
            draws.append(seed)
            return original(model, seed)

        monkeypatch.setattr(zipnets.models, "sample", counting)
        assert main(["report", "--input", str(graph_file), "--model-a", str(ma),
                     "--model-b", str(mb), "--seed", "2", "--realizations", "6",
                     "--out", str(tmp_path / "rep")]) == 0
        assert len(draws) == 12 and len(set(draws)) == 12

    @pytest.mark.parametrize("directed, loops", [(False, False), (True, False), (True, True)])
    def test_config_records_the_pair_space(self, tmp_path, directed, loops):
        g = planted_zi_graph(13, 30, directed=directed, loops=loops, q=0.5, rate=3.0)
        rows, cols, w = g.edge_arrays()
        edges = tmp_path / "edges.txt"
        edges.write_text("".join(f"n{i} n{j} {c}\n" for i, j, c in zip(rows, cols, w)))
        flags = ["--format", "edgelist"] + ["--directed"] * directed + ["--loops"] * loops
        model, out = tmp_path / "m.json", tmp_path / "rep"
        assert main(["fit", "--input", str(edges), *flags, "--family", "zi_gnp",
                     "--out", str(model)]) == 0
        assert main(["report", "--input", str(edges), *flags, "--model-a", str(model),
                     "--realizations", "4", "--out", str(out)]) == 0
        config = json.loads((out / "report.json").read_text())["config"]
        assert (config["directed"], config["loops"]) == (directed, loops)
        assert set(config) == {"input", "format", "directed", "loops", "seed",
                               "n_realizations", "binning"}

    def test_failed_report_writes_no_file(self, graph_file, tmp_path, monkeypatch):
        model, out = tmp_path / "m.json", tmp_path / "rep"
        assert main(["fit", "--input", str(graph_file), "--family", "zi_gnp",
                     "--out", str(model)]) == 0

        def failing(g):
            raise zipnets.NumericalError("metric failed")

        monkeypatch.setitem(zipnets.metrics.METRIC_FUNCTIONS, "avg_path_length", failing)
        assert main(["report", "--input", str(graph_file), "--model-a", str(model),
                     "--realizations", "4", "--out", str(out)]) == 3
        assert not (out / "histogram.csv").exists() and not (out / "report.json").exists()

    def test_pair_space_mismatch(self, graph_file, tmp_path):
        other = planted_zi_graph(5, 9, q=0.5, rate=3.0)
        other_path = tmp_path / "other.json"
        save_graph(other, other_path)
        model_path = tmp_path / "m.json"
        main(["fit", "--input", str(other_path), "--family", "zi_gnp",
              "--out", str(model_path)])
        code = main(["report", "--input", str(graph_file), "--model-a",
                     str(model_path), "--out", str(tmp_path / "rep")])
        assert code == 2


class TestDetectBlocks:
    def test_detect_blocks_output(self, graph_file, tmp_path, capsys):
        out = tmp_path / "blocks.txt"
        assert main(["detect-blocks", "--input", str(graph_file), "--seed", "1",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 18
        assert "Q=" in capsys.readouterr().out


class TestBench:
    def test_bench_counts_mixture_problems(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--family", "zi_dcsbm", "--n-range", "16,24",
                     "--b-range", "2,3", "--reps", "2", "--seed", "0",
                     "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        header = rows[0].split(",")
        assert header[-1] == "opt_problems"
        for row in rows[1:]:
            cells = row.split(",")
            b = int(cells[2])
            assert int(cells[-1]) == b * b

    def test_bench_max_steps_reaches_node_level_fits(self, tmp_path, monkeypatch):
        import zipnets.models as models

        fits = []
        direct = models.fit_zi_node_level

        def recording(*args, **kwargs):
            fits.append(direct(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(models, "fit_zi_node_level", recording)
        out = tmp_path / "bench.csv"
        assert main(["bench", "--family", "zi_dcsbm_node", "--n-range", "12",
                     "--b-range", "2", "--reps", "1", "--max-steps", "5",
                     "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 2 and len(fits) == 1
        diag = fits[0].diagnostics
        assert fits[0].family.value == "zi_dcsbm_node"
        assert int(rows[1].split(",")[-1]) == diag["n_free_parameters"] > 5
        assert diag["iterations"] <= 5 and not diag["converged"]
