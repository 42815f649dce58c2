import math
from dataclasses import fields, replace
from typing import get_type_hints

import numpy as np
import pytest

from kerlap import kernel as kernel_module
from kerlap.bench import (
    DATASETS,
    FAMILIES,
    FIELD_TYPES,
    METHODS,
    PRESETS,
    RECORD_HEADER,
    BenchRecord,
    ExperimentConfig,
    export_eigenvectors,
    fit_model,
    generate_instance,
    load_records_csv,
    preset,
    run_error_curve,
    splitmix64,
    trial_seed,
    write_records_csv,
)
from kerlap.cli import main
from kerlap.errors import InvalidArgumentError
from kerlap.kernel import GaussianKernel
from kerlap.operators import SemiDataset, save_dataset_csv, write_csv
from kerlap.synthdata import (
    ALLOCATIONS, ANGLES, CirclesSpec, GaussianMixSpec, gen_circles_with_truth,
    gen_gaussian_mix_with_truth,
)


class TestSeeds:
    def test_splitmix64_reference_vector(self):
        # first output of the published SplitMix64 for seed 0
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(1) == 10451216379200822465

    def test_trial_seed_frozen(self):
        # these values are part of the stable interface; changing them
        # silently breaks reproducibility of archived benchmark records
        assert trial_seed(0, 100, 0) == 12342737865669978812
        assert trial_seed(42, 100, 0) == 12342737865669978774
        assert trial_seed(42, 100, 1) == 15395825031197978013
        assert trial_seed(42, 200, 0) == 9739938700623818324

    def test_distinct_across_trials_and_n(self):
        seeds = {trial_seed(7, n, t) for n in (10, 20, 40) for t in range(50)}
        assert len(seeds) == 150


class TestConfig:
    def test_round_trip(self):
        cfg = preset("fig2")
        back = ExperimentConfig.from_json(cfg.to_json())
        assert back == cfg

    @pytest.mark.parametrize("family", FAMILIES)
    def test_dataset_fields_are_the_spec_parameters(self, family):
        # a config field for every spec parameter a sweep does not set per draw
        spec = DATASETS[family][0]
        defaults = {f.name: f.default for f in fields(ExperimentConfig)}
        for f in fields(spec):
            if f.name not in ("n", "n_labeled", "seed"):
                assert FIELD_TYPES[f.name] == get_type_hints(spec)[f.name]
                assert defaults[f.name] == f.default

    @pytest.mark.parametrize("family, spec, generate, params", [
        ("circles", CirclesSpec, gen_circles_with_truth,
         {"num_circles": 3, "inner_radius": 0.5, "radius_step": 0.7, "angles": "equispaced",
          "allocation": "proportional"}),
        ("gauss2", GaussianMixSpec, gen_gaussian_mix_with_truth, {"d": 3, "separation": 1.5}),
    ], ids=["circles", "gauss2"])
    def test_instance_is_the_generator_on_the_config_fields(self, family, spec, generate, params):
        cfg = ExperimentConfig(family=family, n_labeled=7, label_ratio=None, **params)
        ds, truth = generate_instance(cfg, 90, 11)
        ref, ref_truth = generate(spec(n=90, n_labeled=7, seed=11, **params))
        assert np.array_equal(ds.inputs, ref.inputs) and np.array_equal(ds.labels, ref.labels)
        assert np.array_equal(truth, ref_truth)

    def test_unknown_fields_rejected(self):
        with pytest.raises(InvalidArgumentError, match="unknown config fields"):
            ExperimentConfig.from_json('{"nonsense": 1}')

    def test_malformed_json(self):
        with pytest.raises(InvalidArgumentError, match="^malformed config JSON: "):
            ExperimentConfig.from_json('{"trials": ')

    def test_unknown_preset(self):
        with pytest.raises(InvalidArgumentError):
            preset("fig9")

    def test_resolvers(self):
        cfg = ExperimentConfig(n_grid=[100], mu="1/n", p="sqrt-log", label_ratio=0.1)
        assert cfg.resolve_mu(100) == pytest.approx(0.01)
        assert cfg.resolve_p(100) == math.ceil(10 * math.log(100))
        assert cfg.resolve_n_labeled(100) == 10
        cfg2 = ExperimentConfig(n_grid=[100], p="n")
        assert cfg2.resolve_p(64) == 64

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(n_grid=[])
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(n_grid=[200, 100])
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(method="boosting")
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(method="graph", inductive_test=500)
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(label_ratio=0.0)

    def test_wrong_types_rejected(self):
        for doc in ('{"trials": "3"}', '{"n_grid": [25.0]}', '{"clip": 1}', '{"seed": true}',
                    '{"kernel_sigma": "3"}', '5', '[]'):
            with pytest.raises(InvalidArgumentError):
                ExperimentConfig.from_json(doc)

    def test_fit_values_checked_by_their_readers(self):
        for kwargs in ({"lam": -1.0}, {"kernel_sigma": 0.0}, {"filter_kind": "box"},
                       {"mu": -0.5}, {"mu": 0.0}, {"mu": "1/n2"}, {"p": 0}, {"p": "all"},
                       {"ridge": 0.0}, {"inductive_test": -5},
                       {"method": "graph", "graph_sigma": -2.0},
                       {"method": "graph", "graph_sigma": "wide"}):
            with pytest.raises(InvalidArgumentError):
                ExperimentConfig(**kwargs)
        # the dense oracle's assembly needs mu > 0 too: at mu = 0 its B is singular
        with pytest.raises(InvalidArgumentError, match="mu"):
            ExperimentConfig(method="exact", mu=0.0)

    @pytest.mark.parametrize("field, words", [("angles", ANGLES), ("allocation", ALLOCATIONS)])
    def test_circle_words_checked_at_construction(self, field, words):
        # the config takes the words CirclesSpec takes, for any family
        for word in words:
            assert getattr(ExperimentConfig(**{field: word}), field) == word
            CirclesSpec(n=8, n_labeled=4, **{field: word})
        message = f"^{field} 'bogus' is not one of"
        with pytest.raises(InvalidArgumentError, match=message):
            ExperimentConfig(family="gauss2", **{field: "bogus"})
        with pytest.raises(InvalidArgumentError, match=message):
            ExperimentConfig.from_json(f'{{"{field}": "bogus"}}')
        with pytest.raises(InvalidArgumentError, match=f"unknown {field} mode"):
            CirclesSpec(n=8, n_labeled=4, **{field: "bogus"})

    def test_presets_accept_every_method(self):
        for name in sorted(PRESETS):
            for method in METHODS:
                assert replace(preset(name), method=method).method == method

    def test_fit_model_refuses_the_graph_baseline(self):
        cfg = ExperimentConfig(method="graph")
        ds = gen_gaussian_mix_with_truth(GaussianMixSpec(n=20, n_labeled=2, d=2, seed=0))[0]
        with pytest.raises(InvalidArgumentError, match="fits no model"):
            fit_model(cfg, ds, seed=0)

    def test_presets_have_documented_hyperparameters(self):
        fig1 = preset("fig1")
        assert fig1.family == "circles" and fig1.n_labeled == 4
        assert fig1.p == "n" and fig1.mu == "1/n" and fig1.lam == 1.0
        assert fig1.kernel_sigma == pytest.approx(0.2 * fig1.inner_radius)
        fig2 = preset("fig2")
        assert fig2.family == "gauss2" and fig2.d == 10 and fig2.separation == 3.0
        assert fig2.label_ratio == 0.1 and fig2.p == 50 and fig2.mu == "1/n"


class TestRunErrorCurve:
    def test_schema_single_record(self):
        cfg = ExperimentConfig(method="krr", n_grid=[10], trials=1, label_ratio=0.5,
                               d=2, kernel_sigma=1.0, seed=3)
        records = run_error_curve(cfg)
        assert len(records) == 1
        r = records[0]
        assert r.method == "krr" and r.n == 10 and r.n_labeled == 5 and r.trial == 0
        assert 0.0 <= r.error <= 1.0
        assert r.fit_seconds >= 0 and r.predict_seconds >= 0
        assert r.seed == trial_seed(3, 10, 0)

    def test_reproducible_errors(self):
        cfg = ExperimentConfig(n_grid=[40, 80], trials=3, kernel_sigma=2.0,
                               sigma_over_labeled=True, seed=9)
        a = run_error_curve(cfg)
        b = run_error_curve(cfg)
        assert [r.error for r in a] == [r.error for r in b]

    def test_chance_level_at_zero_separation(self):
        cfg = ExperimentConfig(n_grid=[500], trials=20, separation=0.0,
                               kernel_sigma=3.0, p=50, sigma_over_labeled=True, seed=0)
        records = run_error_curve(cfg)
        mean_err = np.mean([r.error for r in records])
        assert 0.4 <= mean_err <= 0.6

    def test_failure_marked_and_run_continues(self):
        # the exact method is refused by a tiny dense cap at n=50 but runs at n=4
        cfg = ExperimentConfig(method="exact", n_grid=[4, 50], trials=1, d=2,
                               label_ratio=0.5, kernel_sigma=1.0, dense_cap=20, seed=1)
        records = run_error_curve(cfg)
        assert len(records) == 2
        assert not math.isnan(records[0].error)
        assert math.isnan(records[1].error)

    def test_graph_method(self):
        cfg = ExperimentConfig(method="graph", n_grid=[60], trials=2, graph_sigma="auto",
                               seed=5)
        records = run_error_curve(cfg)
        assert all(0.0 <= r.error <= 1.0 for r in records)
        assert all(r.predict_seconds == 0.0 for r in records)

    def test_inductive_mode(self):
        cfg = ExperimentConfig(n_grid=[50], trials=1, kernel_sigma=3.0, inductive_test=200,
                               sigma_over_labeled=True, seed=2)
        records = run_error_curve(cfg)
        assert 0.0 <= records[0].error <= 1.0

    def test_rmse_metric(self):
        cfg = ExperimentConfig(n_grid=[50], trials=1, kernel_sigma=3.0, metric="rmse",
                               sigma_over_labeled=True, seed=4)
        records = run_error_curve(cfg)
        assert records[0].error >= 0.0

    def test_circles_family(self):
        cfg = ExperimentConfig(family="circles", n_grid=[80], trials=1, n_labeled=4,
                               label_ratio=None, kernel_sigma=0.2, p="n",
                               angles="equispaced", seed=6)
        records = run_error_curve(cfg)
        assert 0.0 <= records[0].error <= 1.0


class TestRecordsCsv:
    def test_round_trip(self, tmp_path):
        cfg = ExperimentConfig(method="krr", n_grid=[20], trials=2, kernel_sigma=1.0, seed=8)
        records = run_error_curve(cfg)
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        back = load_records_csv(path)
        assert back == records

    def test_nan_round_trip(self, tmp_path):
        cfg = ExperimentConfig(method="exact", n_grid=[50], trials=1, kernel_sigma=1.0,
                               dense_cap=10, seed=0)
        records = run_error_curve(cfg)
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        back = load_records_csv(path)
        assert math.isnan(back[0].error)

    def test_bytes_of_one_record(self, tmp_path):
        assert RECORD_HEADER == [f.name for f in fields(BenchRecord)]
        path = tmp_path / "records.csv"
        write_records_csv([BenchRecord("krr", 20, 2, 1, 0.1, 0.25, 1e-05, 7)], path)
        assert path.read_bytes() == (
            b"method,n,n_labeled,trial,error,fit_seconds,predict_seconds,seed\r\n"
            b"krr,20,2,1,0.1,0.25,1e-05,7\r\n"
        )
        assert load_records_csv(path) == [BenchRecord("krr", 20, 2, 1, 0.1, 0.25, 1e-05, 7)]

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(InvalidArgumentError, match=":1"):
            load_records_csv(path)

    @pytest.mark.parametrize("rows, match", [
        ("", "empty file"),
        (",".join(RECORD_HEADER) + "\nkrr,10\n", ":2: expected 8 cells, got 2")],
        ids=["empty", "narrow"])
    def test_empty_file_and_wrong_width(self, tmp_path, rows, match):
        path = tmp_path / "bad.csv"
        path.write_text(rows)
        with pytest.raises(InvalidArgumentError, match=match):
            load_records_csv(path)

    def test_bad_cell_line_number(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text(
            "method,n,n_labeled,trial,error,fit_seconds,predict_seconds,seed\n"
            "krr,10,5,0,0.5,0.1,0.1,7\n"
            "krr,oops,5,0,0.5,0.1,0.1,7\n"
        )
        with pytest.raises(InvalidArgumentError, match=":3"):
            load_records_csv(path)


def eigvecs_csv(tmp_path, ds, grid, sigma, p, mu, count):
    """The file ``kerlap eigvecs`` writes for ``ds`` at the ``grid`` rows."""
    data, points, out = tmp_path / "data.csv", tmp_path / "grid.csv", tmp_path / "eig.csv"
    save_dataset_csv(ds, data)
    write_csv(points, [f"x{j}" for j in range(ds.d)] + ["y"], [x + [""] for x in grid.tolist()])
    assert main(["eigvecs", "--data", str(data), "--grid", str(points), "--sigma", str(sigma),
                 "--p", str(p), "--mu", str(mu), "--count", str(count), "--out", str(out)]) == 0
    return out


class TestExportEigenvectors:
    def test_zero_count_header_only(self, tmp_path):
        ds = gen_gaussian_mix_with_truth(GaussianMixSpec(n=30, n_labeled=3, d=2, seed=0))[0]
        out = export_eigenvectors(ds, GaussianKernel(1.0), p=10, mu=0.1, count=0, grid=ds.inputs)
        assert out.shape == (30, 0)
        path = eigvecs_csv(tmp_path, ds, ds.inputs, 1.0, p=10, mu=0.1, count=0)
        lines = path.read_text().strip().splitlines()
        assert lines == ["x0,x1"]

    def test_sign_convention(self, monkeypatch):
        ds = gen_gaussian_mix_with_truth(GaussianMixSpec(n=40, n_labeled=4, d=2, seed=1))[0]
        vals = export_eigenvectors(ds, GaussianKernel(1.0), p=15, mu=0.1, count=5,
                                   grid=ds.inputs)
        # at 400-row query chunks (15 landmarks), 30 copies of the data span
        # three chunks, and each copy gets the values of the one-chunk grid
        monkeypatch.setattr(kernel_module, "_CHUNK_BUDGET", 400 * 15)
        tiled = export_eigenvectors(ds, GaussianKernel(1.0), p=15, mu=0.1, count=5,
                                    grid=np.tile(ds.inputs, (30, 1)))
        assert np.abs(tiled.reshape(30, 40, 5) - vals).max() <= 1e-12 * np.abs(vals).max()
        for j in range(5):
            col = vals[:, j]
            nz = np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())
            assert col[nz[0]] > 0

    def test_empty_grid(self, tmp_path):
        # like predict on 0 queries: a (0, count) array, and a header-only CSV
        ds = gen_gaussian_mix_with_truth(GaussianMixSpec(n=30, n_labeled=3, d=2, seed=0))[0]
        out = export_eigenvectors(ds, GaussianKernel(1.0), p=10, mu=0.1, count=3,
                                  grid=np.zeros((0, 2)))
        assert out.shape == (0, 3)
        path = eigvecs_csv(tmp_path, ds, np.zeros((0, 2)), 1.0, p=10, mu=0.1, count=3)
        assert path.read_text().strip().splitlines() == ["x0,x1,e1,e2,e3"]

    def test_csv_shape(self, tmp_path):
        ds = gen_circles_with_truth(CirclesSpec(n=60, n_labeled=4, seed=2))[0]
        path = eigvecs_csv(tmp_path, ds, ds.inputs, 0.3, p=20, mu=0.05, count=3)
        values = export_eigenvectors(ds, GaussianKernel(0.3), p=20, mu=0.05, count=3,
                                     grid=ds.inputs)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x0,x1,e1,e2,e3"
        assert len(lines) == 61
        rows = np.array([line.split(",") for line in lines[1:]], dtype=float)
        assert np.array_equal(rows, np.hstack([ds.inputs, values]))

    def test_bytes_of_one_export(self, tmp_path):
        # one point, p = 1, mu = 0.5: A = 1, B = 0.5, so the B-normalized
        # eigenfunction is 2^(1/2) k(x, 0), and k(100, 0) underflows to 0
        ds, grid = SemiDataset([[0.0]], [2.0]), np.array([[0.0], [100.0]])
        values = export_eigenvectors(ds, GaussianKernel(1.0), p=1, mu=0.5, count=1, grid=grid)
        assert values.tolist() == [[1.414213562373095], [0.0]]
        path = eigvecs_csv(tmp_path, ds, grid, 1.0, p=1, mu=0.5, count=1)
        assert path.read_bytes() == b"x0,e1\r\n0.0,1.414213562373095\r\n100.0,0.0\r\n"

    def test_count_validation(self):
        ds = gen_gaussian_mix_with_truth(GaussianMixSpec(n=20, n_labeled=2, d=2, seed=3))[0]
        with pytest.raises(InvalidArgumentError):
            export_eigenvectors(ds, GaussianKernel(1.0), p=5, mu=0.1, count=6,
                                grid=ds.inputs)

    def test_count_beyond_kept_landmarks(self):
        # ten distinct points drawn twice each: 10 landmarks are kept of 20
        X = np.repeat(np.arange(10.0)[:, None] * np.ones((1, 2)), 2, axis=0)
        ds = SemiDataset(inputs=X, labels=[1.0, -1.0])
        vals = export_eigenvectors(ds, GaussianKernel(0.5), p=20, mu=0.1, count=10, grid=X)
        assert vals.shape == (20, 10) and np.all(np.isfinite(vals))
        with pytest.raises(InvalidArgumentError, match="10 landmarks kept"):
            export_eigenvectors(ds, GaussianKernel(0.5), p=20, mu=0.1, count=11, grid=X)

    @pytest.mark.parametrize("p, mu, count, seed, name", [
        ("x", 0.1, 1, 0, "p"),
        (-5, 0.1, 2, 0, "p"),
        (0, -1.0, 0, 0, "p"),
        (5, -1.0, 0, 0, "mu"),
        (5, 0.1, 0, -1, "seed"),
    ])
    def test_fit_parameters_checked_for_every_count(self, p, mu, count, seed, name):
        # count = 0 still draws the landmarks and assembles, so every fit
        # parameter is checked and the error names the bad one
        ds = gen_gaussian_mix_with_truth(GaussianMixSpec(n=20, n_labeled=2, d=2, seed=3))[0]
        with pytest.raises(InvalidArgumentError, match=f"^{name} must be"):
            export_eigenvectors(ds, GaussianKernel(1.0), p=p, mu=mu, count=count,
                                grid=ds.inputs, seed=seed)
