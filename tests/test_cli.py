import hashlib
import json
import shlex
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from kerlap import bench
from kerlap.bench import ExperimentConfig, export_eigenvectors, load_records_csv, preset
from kerlap.cli import _bench_config, _config, _parser, main
from kerlap.estimator import model_from_json, predict, schedule
from kerlap.kernel import GaussianKernel
from kerlap.operators import load_dataset_csv, read_points, save_dataset_csv
from kerlap.svgplot import render_svg
from kerlap.synthdata import CirclesSpec, gen_circles


def run(argv):
    return main(argv)


class TestGenerate:
    def test_gauss2(self, tmp_path):
        out = tmp_path / "data.csv"
        code = run(["generate", "--family", "gauss2", "--n", "50", "--n-labeled", "5",
                    "--d", "3", "--seed", "1", "--out", str(out)])
        assert code == 0
        ds = load_dataset_csv(out)
        assert (ds.n, ds.d, ds.n_labeled) == (50, 3, 5)

    def test_circles(self, tmp_path):
        out = tmp_path / "c.csv"
        code = run(["generate", "--family", "circles", "--n", "40", "--n-labeled", "4",
                    "--seed", "2", "--out", str(out)])
        assert code == 0
        ds = load_dataset_csv(out)
        assert ds.d == 2

    def test_matches_generator(self, tmp_path):
        # the CLI writes exactly the dataset the generator spec describes
        out, ref = tmp_path / "c.csv", tmp_path / "ref.csv"
        code = run(["generate", "--family", "circles", "--n", "41", "--n-labeled", "5",
                    "--num-circles", "3", "--inner-radius", "0.5", "--radius-step", "0.7",
                    "--angles", "equispaced", "--allocation", "proportional",
                    "--seed", "3", "--out", str(out)])
        assert code == 0
        save_dataset_csv(gen_circles(CirclesSpec(
            n=41, n_labeled=5, num_circles=3, inner_radius=0.5, radius_step=0.7,
            angles="equispaced", allocation="proportional", seed=3,
        )), ref)
        assert out.read_bytes() == ref.read_bytes()

    def test_invalid_args_exit_2(self, tmp_path):
        code = run(["generate", "--family", "circles", "--n", "2", "--n-labeled", "4",
                    "--seed", "0", "--out", str(tmp_path / "x.csv")])
        assert code == 2


class TestFitPredict:
    @pytest.fixture()
    def dataset(self, tmp_path):
        out = tmp_path / "data.csv"
        run(["generate", "--family", "gauss2", "--n", "60", "--n-labeled", "10",
             "--d", "3", "--separation", "3", "--seed", "4", "--out", str(out)])
        return out

    def test_kernel_laplacian_round_trip(self, dataset, tmp_path):
        model = tmp_path / "model.json"
        code = run(["fit", "--data", str(dataset), "--method", "kernel_laplacian",
                    "--sigma", "2.0", "--p", "20", "--mu", "0.02",
                    "--filter", "tikhonov", "--lambda", "1.0", "--seed", "0",
                    "--out", str(model)])
        assert code == 0
        doc = json.loads(model.read_text())
        assert doc["basis_kind"] == "landmark_kernel"
        assert len(doc["coefficients"]) == 20

        preds = tmp_path / "preds.csv"
        assert run(["predict", "--model", str(model), "--data", str(dataset),
                    "--out", str(preds)]) == 0
        lines = preds.read_text().strip().splitlines()
        assert lines[0] == "score,label"
        assert len(lines) == 61
        score, label = lines[1].split(",")
        float(score)
        assert label in ("-1", "1")

    def test_predict_names_the_query_file_and_both_widths(self, tmp_path, capsys):
        data, queries, model = tmp_path / "d.csv", tmp_path / "q.csv", tmp_path / "m.json"
        data.write_text("x0,y\n0.0,1.0\n1.0,-1.0\n")
        queries.write_text("x0,x1,y\n0.0,0.0,\n")
        assert run(["fit", "--data", str(data), "--sigma", "1.0", "--p", "2",
                    "--out", str(model)]) == 0
        capsys.readouterr()
        assert run(["predict", "--model", str(model), "--data", str(queries),
                    "--out", str(tmp_path / "s.csv")]) == 2
        assert capsys.readouterr().err == (
            f"error: {queries}: queries must have the model's d=1 columns, got 2\n")

    def test_krr(self, dataset, tmp_path):
        model = tmp_path / "krr.json"
        code = run(["fit", "--data", str(dataset), "--method", "krr",
                    "--sigma", "2.0", "--ridge", "0.01", "--out", str(model)])
        assert code == 0
        assert len(json.loads(model.read_text())["coefficients"]) == 10

    def test_krr_clip(self, dataset, tmp_path):
        model = tmp_path / "krr.json"
        code = run(["fit", "--data", str(dataset), "--method", "krr",
                    "--sigma", "2.0", "--ridge", "0.01", "--clip", "--out", str(model)])
        assert code == 0
        bound = np.abs(load_dataset_csv(dataset).labels).max()
        assert json.loads(model.read_text())["clip_bound"] == bound

    def test_exact_cap_exit_4(self, dataset, tmp_path):
        code = run(["fit", "--data", str(dataset), "--method", "exact",
                    "--sigma", "2.0", "--mu", "0.01", "--lambda", "0.5",
                    "--dense-cap", "10", "--out", str(tmp_path / "m.json")])
        assert code == 4

    def test_exact_fits_under_cap(self, dataset, tmp_path):
        model = tmp_path / "exact.json"
        code = run(["fit", "--data", str(dataset), "--method", "exact",
                    "--sigma", "2.0", "--mu", "0.01", "--lambda", "0.5",
                    "--dense-cap", "400", "--out", str(model)])
        assert code == 0
        assert json.loads(model.read_text())["basis_kind"] == "dense_representer"

    @pytest.mark.parametrize("method", ["kernel_laplacian", "exact"])
    @pytest.mark.parametrize("sigma", ["1e300", "1e-300"])
    def test_sigma_outside_double_range_exits_2(self, dataset, tmp_path, capsys, method, sigma):
        model = tmp_path / "m.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["fit", "--data", str(dataset), "--method", method, "--sigma", sigma,
                        "--p", "20", "--out", str(model)])
        err = capsys.readouterr().err
        assert code == 2 and not model.exists()
        assert err.startswith("error: kernel_sigma must lie between") and err.count("\n") == 1

    @pytest.mark.parametrize("query", [
        "x0,x1,x2,y\n0,0,0,\n1,1,1,1.0\n-1,2,0.5,\n",
        "x0,x1,x2,y\n0,0,0,\n1,1,1,\n-1,2,0.5,\n",
    ], ids=["interleaved", "unlabeled"])
    def test_predict_reads_query_rows_in_file_order(self, dataset, tmp_path, query):
        model, data, preds = tmp_path / "m.json", tmp_path / "q.csv", tmp_path / "preds.csv"
        assert run(["fit", "--data", str(dataset), "--sigma", "2.0", "--p", "20",
                    "--out", str(model)]) == 0
        data.write_text(query)
        assert run(["predict", "--model", str(model), "--data", str(data),
                    "--out", str(preds)]) == 0
        scores = predict(model_from_json(model.read_text()),
                         np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [-1.0, 2.0, 0.5]]))
        assert preds.read_bytes() == b"score,label\r\n" + b"".join(
            f"{s!r},{1 if s >= 0 else -1}\r\n".encode() for s in scores.tolist())

    def test_non_finite_cell_exits_2_naming_the_line(self, tmp_path, capsys):
        data = tmp_path / "nan.csv"
        data.write_text("x0,y\n0.5,1.0\n0.25,\nnan,-1.0\n")
        code = run(["fit", "--data", str(data), "--sigma", "1.0", "--p", "2",
                    "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {data}:4: non-finite value 'nan'\n"

    def test_missing_file_exit_2(self, tmp_path):
        code = run(["fit", "--data", str(tmp_path / "nope.csv"), "--sigma", "1.0",
                    "--out", str(tmp_path / "m.json")])
        assert code == 2


class TestEigvecs:
    def test_export(self, tmp_path):
        data = tmp_path / "data.csv"
        run(["generate", "--family", "circles", "--n", "60", "--n-labeled", "4",
             "--seed", "3", "--out", str(data)])
        out = tmp_path / "eig.csv"
        code = run(["eigvecs", "--data", str(data), "--sigma", "0.3", "--p", "20",
                    "--mu", "0.02", "--count", "4", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x0,x1,e1,e2,e3,e4"
        assert len(lines) == 61

    @pytest.mark.parametrize("labels", [("", "1.0"), ("", "")], ids=["interleaved", "unlabeled"])
    def test_grid_rows_in_file_order(self, tmp_path, labels):
        data, grid, out = tmp_path / "data.csv", tmp_path / "grid.csv", tmp_path / "eig.csv"
        run(["generate", "--family", "circles", "--n", "60", "--n-labeled", "4",
             "--seed", "3", "--out", str(data)])
        grid.write_text("x0,x1,y\n0.5,0.0,{}\n-1.0,2.0,{}\n".format(*labels))
        assert run(["eigvecs", "--data", str(data), "--sigma", "0.3", "--p", "20",
                    "--mu", "0.02", "--count", "2", "--grid", str(grid), "--out", str(out)]) == 0
        rows = [line.split(",")[:2] for line in out.read_text().splitlines()[1:]]
        assert rows == [["0.5", "0.0"], ["-1.0", "2.0"]]


class TestWrittenBytes:
    """The files ``kerlap eigvecs`` and ``kerlap plot`` write, byte for byte."""

    @pytest.fixture
    def data(self, tmp_path):
        path = tmp_path / "data.csv"
        run(["generate", "--family", "circles", "--n", "12", "--n-labeled", "4", "--seed", "3",
             "--out", str(path)])
        return path

    @pytest.mark.parametrize("count, grid", [(2, None), (0, None), (2, "0.5,-0.25,\n3.0,1.0,1.0")],
                             ids=["data", "count 0", "grid"])
    def test_eigvecs(self, tmp_path, data, count, grid):
        # the header, then each grid row's coordinates and values as their
        # round-trip reprs, every line ending in \r\n; no rows when count = 0
        points, out = tmp_path / "grid.csv", tmp_path / "eig.csv"
        argv = ["eigvecs", "--data", str(data), "--sigma", "0.5", "--p", "6", "--mu", "0.1",
                "--count", str(count), "--out", str(out)]
        if grid:
            points.write_text("x0,x1,y\n" + grid + "\n")
            argv += ["--grid", str(points)]
        assert run(argv) == 0
        X = read_points(points)[0] if grid else load_dataset_csv(data).inputs
        values = export_eigenvectors(load_dataset_csv(data), GaussianKernel(0.5), 6, 0.1, count, X)
        header = ["x0", "x1"] + [f"e{j + 1}" for j in range(count)]
        rows = [[repr(v) for v in x + e] for x, e in zip(X.tolist(), values.tolist())]
        expected = "".join(",".join(row) + "\r\n" for row in [header] + (rows if count else []))
        assert out.read_bytes() == expected.encode()
        if count == 0:
            assert out.read_bytes() == b"x0,x1\r\n"

    def test_plot(self, tmp_path):
        rec, out = tmp_path / "rec.csv", tmp_path / "rec.svg"
        rec.write_text(
            "method,n,n_labeled,trial,error,fit_seconds,predict_seconds,seed\n"
            "krr,10,5,0,0.4,0.01,0.001,1\nkrr,10,5,1,0.5,0.01,0.001,2\n"
            "krr,100,50,0,0.2,0.02,0.001,3\nkrr,100,50,1,nan,0.02,0.0,4\n"
            "graph,10,5,0,0.45,0.01,0.0,5\ngraph,100,50,0,0.35,0.01,0.0,6\n")
        assert run(["plot", "--records", str(rec), "--out", str(out)]) == 0
        assert out.read_bytes() == render_svg(load_records_csv(rec)).encode()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "be01997e8a916ab5510f0bf478ce428db62fcdb06dbe401080a7b943e4ebd9ce")


class TestPlotRecords:
    @pytest.mark.parametrize("row, problem", [
        ("krr,0,1,0,0.4,0.01,0.001,1", "n must be >= 1, got 0"),
        ("krr,10,0,0,0.4,0.01,0.001,1", "n_labeled must be in [1, n=10], got 0"),
        ("krr,10,11,0,0.4,0.01,0.001,1", "n_labeled must be in [1, n=10], got 11"),
        ("krr,10,5,-1,0.4,0.01,0.001,1", "trial must be >= 0, got -1"),
        ("krr,10,5,0,inf,0.01,0.001,1", "error must be NaN or a finite value >= 0, got inf"),
        ("krr,10,5,0,-0.1,0.01,0.001,1", "error must be NaN or a finite value >= 0, got -0.1"),
        ("krr,10,5,0,0.4,-0.01,0.001,1", "fit_seconds must be finite and >= 0, got -0.01"),
        ("krr,10,5,0,0.4,0.01,nan,1", "predict_seconds must be finite and >= 0, got nan"),
    ])
    def test_plot_refuses_a_record_no_sweep_writes(self, tmp_path, capsys, row, problem):
        rec, out = tmp_path / "rec.csv", tmp_path / "rec.svg"
        rec.write_text(",".join(bench.RECORD_HEADER) + "\nkrr,10,5,0,nan,0.01,0.0,1\n" + row + "\n")
        assert run(["plot", "--records", str(rec), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {rec}:3: {problem}\n"
        assert not out.exists()


class TestBench:
    def test_bench_error_and_plot(self, tmp_path):
        rec = tmp_path / "rec.csv"
        code = run(["bench-error", "--family", "gauss2", "--n-grid", "30,60",
                    "--trials", "2", "--kernel-sigma", "3.0", "--sigma-over-labeled",
                    "--seed", "5", "--out", str(rec)])
        assert code == 0
        lines = rec.read_text().strip().splitlines()
        assert len(lines) == 5
        assert all(row.fit_seconds > 0 for row in load_records_csv(rec))
        svg = tmp_path / "plot.svg"
        assert run(["plot", "--records", str(rec), "--out", str(svg)]) == 0
        assert svg.read_text().startswith("<svg")

    def test_preset_with_overrides(self, tmp_path):
        rec = tmp_path / "rec.csv"
        code = run(["bench-error", "--preset", "fig2", "--n-grid", "40",
                    "--trials", "2", "--out", str(rec)])
        assert code == 0
        assert len(rec.read_text().strip().splitlines()) == 3

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "family": "gauss2", "method": "krr", "n_grid": [25], "trials": 1,
            "kernel_sigma": 2.0, "seed": 1,
        }))
        rec = tmp_path / "rec.csv"
        assert run(["bench-error", "--config", str(cfg), "--out", str(rec)]) == 0
        assert "krr,25" in rec.read_text()

    def test_baseline_flag(self, tmp_path):
        rec = tmp_path / "rec.csv"
        code = run(["bench-error", "--baseline", "graph", "--n-grid", "40",
                    "--trials", "1", "--graph-sigma", "auto", "--seed", "2",
                    "--out", str(rec)])
        assert code == 0
        assert "graph,40" in rec.read_text()

    def test_conflicting_sources_exit(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        code = run(["bench-error", "--config", str(cfg), "--preset", "fig2",
                    "--out", str(tmp_path / "rec.csv")])
        assert code == 2


class TestReproducibility:
    def test_same_master_seed_same_records(self, tmp_path):
        args = ["bench-error", "--family", "gauss2", "--n-grid", "40", "--trials", "3",
                "--kernel-sigma", "3.0", "--seed", "11"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        col = lambda p: [line.split(",")[4] for line in p.read_text().splitlines()[1:]]
        assert col(a) == col(b)


@pytest.mark.parametrize("command", ["generate", "fit", "eigvecs"])
def test_negative_seed_exits_2(tmp_path, command):
    data, out = tmp_path / "data.csv", tmp_path / "out"
    run(["generate", "--family", "circles", "--n", "40", "--n-labeled", "4",
         "--out", str(data)])
    argv = {
        "generate": ["--family", "circles", "--n", "40", "--n-labeled", "4"],
        "fit": ["--data", str(data), "--sigma", "0.3", "--p", "10"],
        "eigvecs": ["--data", str(data), "--sigma", "0.3", "--p", "10", "--mu", "0.02",
                    "--count", "2"],
    }[command]
    assert run([command, *argv, "--seed", "-1", "--out", str(out)]) == 2
    assert not out.exists()


class TestFitLimits:
    def test_p_above_n_exit_2(self, tmp_path):
        # a single fit asks for exactly p landmarks; only sweeps cap p at n
        data = tmp_path / "data.csv"
        run(["generate", "--family", "gauss2", "--n", "60", "--n-labeled", "10",
             "--d", "3", "--seed", "4", "--out", str(data)])
        model = tmp_path / "m.json"
        code = run(["fit", "--data", str(data), "--sigma", "2.0", "--p", "100",
                    "--out", str(model)])
        assert code == 2
        assert not model.exists()


# one non-default value per ExperimentConfig field, as flag text and as parsed
FIELD_VALUES = {
    "family": ("circles", "circles"), "method": ("krr", "krr"),
    "n_grid": ("30,60", [30, 60]), "trials": ("2", 2), "label_ratio": ("0.2", 0.2),
    "n_labeled": ("5", 5), "d": ("3", 3), "separation": ("2.5", 2.5),
    "num_circles": ("3", 3), "inner_radius": ("0.5", 0.5), "radius_step": ("0.7", 0.7),
    "angles": ("equispaced", "equispaced"), "allocation": ("proportional", "proportional"),
    "kernel_sigma": ("2.0", 2.0), "lam": ("0.5", 0.5), "mu": ("0.01", 0.01),
    "p": ("sqrt-log", "sqrt-log"), "filter_kind": ("cutoff", "cutoff"),
    "sigma_over_labeled": (None, True), "graph_sigma": ("0.8", 0.8),
    "ridge": ("0.01", 0.01), "dense_cap": ("500", 500), "metric": ("rmse", "rmse"),
    "inductive_test": ("100", 100), "clip": (None, True), "seed": ("7", 7),
}


def bench_config(*flags):
    return _bench_config(_parser().parse_args(["bench-error", "--out", "r.csv", *flags]))


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects unparsable flag text
        return exc.code


class TestBenchFlags:
    def test_every_config_field_has_a_flag(self):
        assert list(FIELD_VALUES) == [f.name for f in fields(ExperimentConfig)]
        default = ExperimentConfig()
        for name, (text, value) in FIELD_VALUES.items():
            flag = "--" + name.replace("_", "-")
            cfg = bench_config(flag) if text is None else bench_config(flag, text)
            assert getattr(cfg, name) == value != getattr(default, name), name

    def test_aliases(self):
        cfg = bench_config("--filter", "cutoff", "--lambda", "0.25", "--baseline", "graph")
        assert (cfg.filter_kind, cfg.lam, cfg.method) == ("cutoff", 0.25, "graph")

    def test_number_or_word_fields_keep_words(self):
        cfg = bench_config("--mu", "1/n", "--p", "n", "--graph-sigma", "auto")
        assert (cfg.mu, cfg.p, cfg.graph_sigma) == ("1/n", "n", "auto")
        cfg = bench_config("--mu", "0.5", "--p", "12", "--graph-sigma", "2")
        assert (cfg.mu, cfg.p, cfg.graph_sigma) == (0.5, 12, 2.0)

    def test_boolean_switched_off_after_preset(self):
        assert preset("fig2").sigma_over_labeled
        cfg = bench_config("--preset", "fig2", "--no-sigma-over-labeled")
        assert cfg.sigma_over_labeled is False

    @pytest.mark.parametrize("flags", [
        ["--lambda", "-1"],
        ["--ridge", "-1", "--method", "krr"],
        ["--mu", "-0.5"],
        ["--inductive-test", "-5"],
        ["--graph-sigma", "-2", "--method", "graph"],
        ["--p", "5.5"],
        ["--mu", "abc"],
        ["--n-grid", "10,x"],
        ["--dense-cap", "0", "--method", "exact"],
        ["--mu", "0", "--method", "exact"],
        ["--angles", "bogus", "--trials", "1"],
        ["--allocation", "bogus", "--trials", "1"],
        ["--sigma", "--trials", "1"],  # was --sigma-over-labeled, abbreviated
        ["--kernel", "0.5", "--trials", "1"],  # was --kernel-sigma, abbreviated
        ["--tri", "1"],
    ])
    def test_bad_value_exits_2_without_records(self, tmp_path, flags):
        rec = tmp_path / "rec.csv"
        assert exit_code(["bench-error", "--n-grid", "20", *flags, "--out", str(rec)]) == 2
        assert not rec.exists()

    @pytest.mark.parametrize("flags, field", [
        (["--kernel-sigma", "0"], "kernel_sigma"),
        (["--method", "graph", "--graph-sigma", "-2"], "graph_sigma"),
    ])
    def test_bad_value_message_names_the_field(self, tmp_path, capsys, flags, field):
        assert exit_code(["bench-error", *flags, "--out", str(tmp_path / "rec.csv")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field} must be")

    @pytest.mark.parametrize("flags", [
        ["--preset", "fig2", "--n-grid", "25", "--trials", "1", "--kernel-sigma", "1e-300"],
        ["--preset", "fig2", "--n-grid", "25", "--trials", "1", "--kernel-sigma", "1e300"],
        ["--method", "graph", "--graph-sigma", "1e-300"],
    ], ids=["kernel 1e-300", "kernel 1e300", "graph 1e-300"])
    def test_sigma_outside_double_range_exits_2_before_any_trial(
        self, tmp_path, capsys, monkeypatch, flags
    ):
        # a sigma whose square underflows or overflows is refused with the
        # config, silently; no trial runs and no record is written
        def refuse(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(bench, "fit_model", refuse)
        monkeypatch.setattr(bench, "harmonic_propagate", refuse)
        rec = tmp_path / "rec.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert exit_code(["bench-error", *flags, "--out", str(rec)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "sigma must lie between" in err
        assert err.count("\n") == 1 and not rec.exists()

    @pytest.mark.parametrize("text", ['{"p": "bogus"}', '{"trials": "3"}', "5",
                                      '{"angles": "bogus"}', '{"allocation": "bogus"}'])
    def test_bad_config_file_exits_2_without_records(self, tmp_path, text):
        cfg, rec = tmp_path / "cfg.json", tmp_path / "rec.csv"
        cfg.write_text(text)
        assert exit_code(["bench-error", "--config", str(cfg), "--out", str(rec)]) == 2
        assert not rec.exists()


# the config fields each command reads, and the flags it needs besides them,
# whose values differ from FIELD_VALUES' so that those show through
COMMAND_FIELDS = {
    "generate": ("family", "n_labeled", "d", "separation", "num_circles", "inner_radius",
                 "radius_step", "angles", "allocation", "seed"),
    "fit": ("method", "kernel_sigma", "lam", "mu", "p", "filter_kind", "sigma_over_labeled",
            "ridge", "dense_cap", "clip", "seed"),
    "eigvecs": ("kernel_sigma", "mu", "p", "seed"),
}
REQUIRED = {
    "generate": ["--n", "40", "--family", "gauss2", "--n-labeled", "9"],
    "fit": ["--data", "d.csv", "--sigma", "1.5"],
    "eigvecs": ["--data", "d.csv", "--count", "2", "--sigma", "1.5", "--p", "7", "--mu", "0.3"],
}
ALIASES = {"kernel_sigma": ["--sigma"], "filter_kind": ["--filter"], "lam": ["--lambda"],
           "method": ["--baseline"]}


def command_config(command, *flags):
    args = _parser().parse_args([command, *REQUIRED[command], "--out", "o", *flags])
    return _config(args, ExperimentConfig())


class TestCommandFlags:
    @pytest.mark.parametrize("command", sorted(COMMAND_FIELDS))
    def test_each_field_parses_as_in_bench_error(self, command):
        for name, (text, value) in FIELD_VALUES.items():
            for flag in ["--" + name.replace("_", "-"), *ALIASES.get(name, [])]:
                argv = [flag] if text is None else [flag, text]
                if name in COMMAND_FIELDS[command]:
                    got = getattr(command_config(command, *argv), name)
                    assert got == getattr(bench_config(*argv), name) == value, (name, flag)
                else:
                    with pytest.raises(SystemExit):
                        command_config(command, *argv)

    @pytest.mark.parametrize("command", sorted(COMMAND_FIELDS))
    def test_word_fields_list_their_words_in_help(self, command, capsys):
        with pytest.raises(SystemExit):
            _parser().parse_args([command, "--help"])
        usage = capsys.readouterr().out
        for name in COMMAND_FIELDS[command]:
            if name in ("family", "method", "angles", "allocation", "filter_kind"):
                assert "{" + ",".join(bench._WORDS[name]) + "}" in usage, name

    def test_fit_defaults(self, tmp_path):
        # fit's mu defaults to 1e-3, where a sweep's is 1/n
        data, implied, spelled = tmp_path / "data.csv", tmp_path / "a.json", tmp_path / "b.json"
        run(["generate", "--family", "gauss2", "--n", "60", "--n-labeled", "10", "--d", "3",
             "--seed", "4", "--out", str(data)])
        assert run(["fit", "--data", str(data), "--sigma", "2.0", "--out", str(implied)]) == 0
        assert run(["fit", "--data", str(data), "--sigma", "2.0", "--method", "kernel_laplacian",
                    "--p", "50", "--mu", "0.001", "--filter", "tikhonov", "--lambda", "1.0",
                    "--seed", "0", "--no-sigma-over-labeled", "--no-clip",
                    "--out", str(spelled)]) == 0
        assert implied.read_bytes() == spelled.read_bytes()

    @pytest.mark.parametrize("command, flags", [
        ("generate", ["--family", "circles", "--n", "40", "--n-lab", "4"]),
        ("fit", ["--sigma", "0.3", "--p", "10", "--lamb", "0.5"]),
        ("eigvecs", ["--sigma", "0.3", "--p", "10", "--mu", "0.02", "--co", "2"]),
    ])
    def test_abbreviation_exits_2(self, tmp_path, command, flags):
        # each abbreviation is a unique prefix, which argparse expands by default
        data, out = tmp_path / "data.csv", tmp_path / "out"
        run(["generate", "--family", "circles", "--n", "40", "--n-labeled", "4",
             "--out", str(data)])
        source = [] if command == "generate" else ["--data", str(data)]
        assert exit_code([command, *source, *flags, "--out", str(out)]) == 2
        assert not out.exists()

    def test_eigvecs_error_names_the_config_field(self, tmp_path, capsys):
        data, out = tmp_path / "data.csv", tmp_path / "eig.csv"
        run(["generate", "--family", "circles", "--n", "40", "--n-labeled", "4",
             "--out", str(data)])
        assert run(["eigvecs", "--data", str(data), "--sigma", "0", "--p", "10", "--mu", "0.02",
                    "--count", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: kernel_sigma must ")
        assert not out.exists()

    @pytest.mark.parametrize("command, extra", [
        ("fit", []), ("eigvecs", ["--count", "3", "--mu", "0.02"]),
    ])
    def test_p_word_resolves_against_the_dataset(self, tmp_path, command, extra):
        data = tmp_path / "data.csv"
        run(["generate", "--family", "gauss2", "--n", "60", "--n-labeled", "10", "--d", "3",
             "--seed", "4", "--out", str(data)])
        outs = {}
        for p in ("n", "60", "sqrt-log", str(schedule(60)[2])):
            outs[p] = tmp_path / f"{p}.out"
            assert run([command, "--data", str(data), "--sigma", "2.0", "--p", p, *extra,
                        "--out", str(outs[p])]) == 0
        assert outs["n"].read_bytes() == outs["60"].read_bytes()
        assert outs["sqrt-log"].read_bytes() == outs[str(schedule(60)[2])].read_bytes()


def readme_cli_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("kerlap ")]


def test_readme_cli_examples_parse():
    commands = readme_cli_commands()
    assert len(commands) >= 6
    for argv in commands:
        _parser().parse_args(argv)
