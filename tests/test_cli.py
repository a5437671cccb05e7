import csv
import json
from pathlib import Path

import numpy as np
import pytest
import yaml
from numpy.testing import assert_allclose

from evidem import simulation
from evidem.censoring import conventional_scheme, read_dataset_csv
from evidem.cli import EXIT_CONFIG, EXIT_NOT_CONVERGED, EXIT_OK, main
from evidem.config import ConfigError, parse_config
from evidem.estimator import E2MConfig, SoftLabeledDataset, fit, read_soft_labels_csv, write_soft_labels_csv
from evidem.rayleigh import MixtureParams
from evidem.simulation import truth_offset_init

PAPER_MODEL = {"lambdas": [1 / 3, 1 / 3, 1 / 3], "xis": [4.0, 0.5, 0.8]}


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_config(path, payload):
    path.write_text(yaml.safe_dump(payload))
    return str(path)


class TestParseConfig:
    def test_defaults_applied(self, tmp_path):
        cfg_file = write_config(tmp_path / "c.yaml", {"data": "d.csv", "labels": "l.csv"})
        cfg = parse_config(cfg_file, command="fit")
        assert cfg.fit_config.tol == 1e-8
        assert cfg.fit_config.max_iters == 1000
        assert cfg.sd == 0.2
        assert cfg.seed == 0
        assert cfg.reps == 20

    def test_censor_frac_expansion(self, tmp_path):
        cfg_file = write_config(tmp_path / "c.yaml", {"scheme": {"n": 500}})
        cfg = parse_config(cfg_file, {"scheme.censor_frac": 0.4}, command="generate")
        assert cfg.scheme.J == 300
        assert cfg.scheme.removals[-1] == 200
        assert sum(cfg.scheme.removals[:-1]) == 0

    def test_unknown_keys_listed(self, tmp_path):
        cfg_file = write_config(
            tmp_path / "c.yaml",
            {"seeed": 1, "scheme": {"n": 10, "J": 10, "bogus": 2}},
        )
        with pytest.raises(ConfigError) as err:
            parse_config(cfg_file)
        assert "seeed" in str(err.value)
        assert "scheme.bogus" in str(err.value)

    def test_bad_removal_sum_is_scheme_error(self, tmp_path):
        cfg_file = write_config(tmp_path / "c.yaml", {"scheme": {"n": 10, "R": [1, 1, 1]}})
        with pytest.raises(ConfigError, match="scheme"):
            parse_config(cfg_file)

    def test_flag_overrides_beat_file(self, tmp_path):
        cfg_file = write_config(tmp_path / "c.yaml", {"seed": 7, "scheme": {"n": 100, "R": [0] * 99 + [1]}})
        cfg = parse_config(cfg_file, {"seed": 9, "scheme.censor_frac": 0.5}, command="generate")
        assert cfg.seed == 9
        assert cfg.scheme.J == 50

    def test_method_all(self, tmp_path):
        cfg_file = write_config(tmp_path / "c.yaml", {})
        cfg = parse_config(cfg_file, {"methods": "all"})
        assert [m.value for m in cfg.methods] == ["uncertain", "noisy", "unknown"]

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("does-not-exist.yaml")

    def test_truncated_yaml_is_config_error(self, tmp_path, capsys):
        text = yaml.safe_dump({"model": PAPER_MODEL, "scheme": {"n": 6, "R": [1, 1, 1]}}, default_flow_style=None)
        cfg_file = tmp_path / "truncated.yaml"
        cfg_file.write_text(text[: text.index("R: [") + len("R: [1,")])
        assert main(["generate", "--config", str(cfg_file)]) == EXIT_CONFIG
        assert "is not valid YAML" in capsys.readouterr().err

    def test_model_invariants_checked(self, tmp_path):
        cfg_file = write_config(tmp_path / "c.yaml", {"model": {"lambdas": [0.6, 0.6], "xis": [1, 2]}})
        with pytest.raises(ConfigError, match="model"):
            parse_config(cfg_file)


def generate_args(tmp_path, out, seed=123, n=40, censor=0.5, rho=0.2):
    cfg_file = write_config(
        tmp_path / "gen.yaml",
        {
            "model": PAPER_MODEL,
            "scheme": {"n": n, "censor_frac": censor},
            "corruption": {"rho": rho},
            "seed": seed,
            "out": str(out),
        },
    )
    return ["generate", "--config", cfg_file]


class TestGenerate:
    def test_writes_expected_rows(self, tmp_path):
        out = tmp_path / "run"
        assert main(generate_args(tmp_path, out)) == EXIT_OK
        ds = read_dataset_csv(out / "data.csv")
        assert ds.n == 40
        assert int(ds.observed.sum()) == 20
        ids, pl = read_soft_labels_csv(out / "labels.csv")
        assert pl.shape == (40, 3)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 123
        assert manifest["config"]["scheme"]["J"] == 20

    def test_complete_sample(self, tmp_path):
        out = tmp_path / "complete"
        args = generate_args(tmp_path, out, n=10, censor=0.0)
        assert main(args) == EXIT_OK
        ds = read_dataset_csv(out / "data.csv")
        assert int(ds.observed.sum()) == 10
        assert int((~ds.observed).sum()) == 0

    def test_reference_config_counts(self, tmp_path):
        out = tmp_path / "paperlike"
        args = generate_args(tmp_path, out, n=500, censor=0.4)
        assert main(args) == EXIT_OK
        ds = read_dataset_csv(out / "data.csv")
        assert int(ds.observed.sum()) == 300
        assert int((~ds.observed).sum()) == 200

    def test_seed_reproducibility(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(generate_args(tmp_path, out1))
        main(generate_args(tmp_path, out2))
        assert (out1 / "data.csv").read_bytes() == (out2 / "data.csv").read_bytes()
        assert (out1 / "labels.csv").read_bytes() == (out2 / "labels.csv").read_bytes()

    def test_missing_model_is_config_error(self, tmp_path):
        cfg_file = write_config(tmp_path / "bad.yaml", {"scheme": {"n": 10, "censor_frac": 0.0}})
        assert main(["generate", "--config", cfg_file]) == EXIT_CONFIG


class TestFitCommand:
    @pytest.fixture
    def generated(self, tmp_path):
        out = tmp_path / "gen"
        main(generate_args(tmp_path, out, n=60, censor=0.4, rho=0.1))
        return out

    def test_fit_runs_and_matches_library(self, tmp_path, generated):
        out = tmp_path / "fitout"
        cfg_file = write_config(
            tmp_path / "fit.yaml",
            {
                "data": str(generated / "data.csv"),
                "labels": str(generated / "labels.csv"),
                "model": PAPER_MODEL,
                "fit": {"init": "truth-offset"},
                "out": str(out),
            },
        )
        assert main(["fit", "--config", cfg_file]) == EXIT_OK
        with open(out / "estimate.csv") as fh:
            row = list(csv.DictReader(fh))[0]
        ds = read_dataset_csv(generated / "data.csv")
        ids, pl = read_soft_labels_csv(generated / "labels.csv")
        order = {int(i): k for k, i in enumerate(ids)}
        soft = SoftLabeledDataset(ds, pl[[order[int(i)] for i in ds.item_id]])
        truth = MixtureParams(np.array(PAPER_MODEL["lambdas"]), np.array(PAPER_MODEL["xis"]))
        est, trace = fit(soft, truth_offset_init(truth), E2MConfig())
        for z in range(3):
            assert_allclose(float(row[f"xi_{z + 1}"]), est.xis[z], rtol=1e-12)
        assert row["converged"] == "true"
        trace_rows = list(csv.DictReader(open(out / "trace.csv")))
        assert len(trace_rows) == trace.iterations_used + 1

    def test_vacuous_label_file_matches_em_baseline(self, tmp_path, generated):
        ds = read_dataset_csv(generated / "data.csv")
        vacuous = tmp_path / "vacuous.csv"
        write_soft_labels_csv(np.ones((ds.n, 3)), vacuous, item_ids=ds.item_id)
        out = tmp_path / "fitvac"
        cfg_file = write_config(
            tmp_path / "fitvac.yaml",
            {
                "data": str(generated / "data.csv"),
                "labels": str(vacuous),
                "model": PAPER_MODEL,
                "fit": {"init": "truth-offset"},
                "out": str(out),
            },
        )
        assert main(["fit", "--config", cfg_file]) == EXIT_OK
        row = list(csv.DictReader(open(out / "estimate.csv")))[0]
        truth = MixtureParams(np.array(PAPER_MODEL["lambdas"]), np.array(PAPER_MODEL["xis"]))
        soft = SoftLabeledDataset(ds, np.ones((ds.n, 3)))
        est, _ = fit(soft, truth_offset_init(truth), E2MConfig())
        for z in range(3):
            assert_allclose(float(row[f"xi_{z + 1}"]), est.xis[z], rtol=1e-12)
            assert_allclose(float(row[f"lambda_{z + 1}"]), est.lambdas[z], rtol=1e-12)

    def test_inline_soft_labels(self, tmp_path, generated):
        ds = read_dataset_csv(generated / "data.csv")
        out = tmp_path / "fitinline"
        cfg_file = write_config(
            tmp_path / "fitinline.yaml",
            {
                "data": str(generated / "data.csv"),
                "soft_labels": [[1.0, 1.0, 1.0]] * ds.n,
                "model": PAPER_MODEL,
                "fit": {"init": "truth-offset"},
                "out": str(out),
            },
        )
        assert main(["fit", "--config", cfg_file]) == EXIT_OK
        row = list(csv.DictReader(open(out / "estimate.csv")))[0]
        truth = MixtureParams(np.array(PAPER_MODEL["lambdas"]), np.array(PAPER_MODEL["xis"]))
        soft = SoftLabeledDataset(ds, np.ones((ds.n, 3)))
        est, _ = fit(soft, truth_offset_init(truth), E2MConfig())
        assert_allclose(float(row["xi_1"]), est.xis[0], rtol=1e-12)

    def test_clean_reference_run_recovers_truth(self, tmp_path):
        gen_out = tmp_path / "genclean"
        main(generate_args(tmp_path, gen_out, seed=5, n=500, censor=0.4, rho=0.0))
        out = tmp_path / "fitclean"
        cfg_file = write_config(
            tmp_path / "fitclean.yaml",
            {
                "data": str(gen_out / "data.csv"),
                "labels": str(gen_out / "labels.csv"),
                "model": PAPER_MODEL,
                "fit": {"init": "truth-offset"},
                "out": str(out),
            },
        )
        assert main(["fit", "--config", cfg_file]) == EXIT_OK
        row = list(csv.DictReader(open(out / "estimate.csv")))[0]
        for z, xi_true in enumerate(PAPER_MODEL["xis"]):
            assert abs(float(row[f"xi_{z + 1}"]) - xi_true) / xi_true < 0.15

    def test_not_converged_exit_code(self, tmp_path, generated):
        out = tmp_path / "fitshort"
        cfg_file = write_config(
            tmp_path / "fit2.yaml",
            {
                "data": str(generated / "data.csv"),
                "labels": str(generated / "labels.csv"),
                "out": str(out),
            },
        )
        code = main(["fit", "--config", cfg_file, "--max-iters", "1"])
        assert code == EXIT_NOT_CONVERGED
        assert (out / "estimate.csv").exists()

    @pytest.mark.parametrize("defect", ["nan", "-1.0", "0.0", "duplicate-id", "failure-beyond-J", "short-row"])
    def test_malformed_data_is_config_error(self, tmp_path, generated, capsys, defect):
        with open(generated / "data.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        if defect == "duplicate-id":
            rows[2][0] = rows[1][0]
        elif defect == "failure-beyond-J":
            censored = next(r for r in rows if r[2] == "censored")
            censored[3] = str(len(rows))
        elif defect == "short-row":
            rows[1] = rows[1][:1]
        else:
            rows[1][rows[0].index("y_star")] = defect
        data = tmp_path / "bad.csv"
        with open(data, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        cfg_file = write_config(
            tmp_path / "fit_bad.yaml",
            {"data": str(data), "labels": str(generated / "labels.csv"), "out": str(tmp_path / "bad_out")},
        )
        assert main(["fit", "--config", cfg_file]) == EXIT_CONFIG
        assert "invalid input data" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "defect, message",
        [("nan", "plausibilities must be finite"), ("inf", "plausibilities must be finite"),
         ("short-row", "row 1 has 2 fields, expected 4")],
        ids=["nan", "inf", "short-row"],
    )
    def test_malformed_labels_is_config_error(self, tmp_path, generated, capsys, defect, message):
        with open(generated / "labels.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        if defect == "short-row":
            rows[1] = rows[1][:2]
        else:
            rows[1][rows[0].index("pl_1")] = defect
        labels = tmp_path / "bad_labels.csv"
        with open(labels, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        cfg_file = write_config(
            tmp_path / "fit_bad_labels.yaml",
            {"data": str(generated / "data.csv"), "labels": str(labels), "out": str(tmp_path / "bad_out")},
        )
        assert main(["fit", "--config", cfg_file]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "invalid input data" in err
        assert message in err

    @pytest.mark.parametrize("init", ["model", "truth-offset"])
    def test_label_width_differs_from_model(self, tmp_path, generated, capsys, init):
        ds = read_dataset_csv(generated / "data.csv")
        labels = tmp_path / "two_columns.csv"
        write_soft_labels_csv(np.ones((ds.n, 2)), labels, item_ids=ds.item_id)
        cfg_file = write_config(
            tmp_path / "fit_width.yaml",
            {"data": str(generated / "data.csv"), "labels": str(labels), "model": PAPER_MODEL,
             "fit": {"init": init}, "out": str(tmp_path / "width_out")},
        )
        assert main(["fit", "--config", cfg_file]) == EXIT_CONFIG
        assert "the labels have 2 components but 'model' has 3" in capsys.readouterr().err

    def test_truth_offset_needs_xi_above_offset(self, tmp_path, generated, capsys):
        out = tmp_path / "small_xi"
        cfg_file = write_config(
            tmp_path / "fit_small_xi.yaml",
            {"data": str(generated / "data.csv"), "labels": str(generated / "labels.csv"),
             "model": {"lambdas": PAPER_MODEL["lambdas"], "xis": [4.0, 0.008, 0.8]},
             "fit": {"init": "truth-offset"}, "out": str(out)},
        )
        assert main(["fit", "--config", cfg_file]) == EXIT_CONFIG
        assert "'model.xis' must exceed 0.01" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_inputs_config_error(self, tmp_path):
        cfg_file = write_config(
            tmp_path / "fit3.yaml", {"data": "nope.csv", "labels": "nope2.csv", "out": str(tmp_path / "x")}
        )
        assert main(["fit", "--config", cfg_file]) == EXIT_CONFIG


def sweep_config(tmp_path, out, *, grid=(0.0, 0.3), reps=2, n=60, methods=("uncertain", "noisy"), seed=77):
    return write_config(
        tmp_path / f"sweep_{Path(out).name}.yaml",
        {
            "model": PAPER_MODEL,
            "scheme": {"n": n, "censor_frac": 0.4},
            "corruption": {"rho": 0.1},
            "methods": list(methods),
            "reps": reps,
            "seed": seed,
            "sweep": {"variable": "rho", "grid": list(grid)},
            "out": str(out),
        },
    )


class TestSweepCommand:
    def test_outputs_written(self, tmp_path):
        out = tmp_path / "sweepout"
        cfg_file = sweep_config(tmp_path, out)
        assert main(["sweep", "--config", cfg_file]) == EXIT_OK
        assert (out / "results.csv").exists()
        assert (out / "summary.csv").exists()
        for z in (1, 2, 3):
            assert (out / f"figure_xi_{z}.csv").exists()
            svg = (out / f"figure_xi_{z}.svg").read_text()
            assert svg.startswith("<svg")
            assert "polyline" in svg
        with open(out / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 2 * 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["effective_sd"][0] == 0.0

    def test_single_cell_summary_equals_row(self, tmp_path):
        out = tmp_path / "single"
        cfg_file = sweep_config(tmp_path, out, grid=(0.2,), reps=1, methods=("uncertain",))
        assert main(["sweep", "--config", cfg_file]) == EXIT_OK
        results = list(csv.DictReader(open(out / "results.csv")))
        summary = list(csv.DictReader(open(out / "summary.csv")))
        assert len(results) == 1
        xi1 = [r for r in summary if r["parameter"] == "xi_1"][0]
        assert_allclose(float(xi1["mean_rabias"]), float(results[0]["rabias_xi_1"]), rtol=1e-12)
        assert float(xi1["sd_rabias"]) == 0.0

    def test_byte_identical_across_worker_counts(self, tmp_path):
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        cfg1 = sweep_config(tmp_path, out1, grid=(0.1, 0.4), reps=2, n=50)
        cfg2 = sweep_config(tmp_path, out2, grid=(0.1, 0.4), reps=2, n=50)
        assert main(["sweep", "--config", cfg1, "--workers", "1"]) == EXIT_OK
        assert main(["sweep", "--config", cfg2, "--workers", "2"]) == EXIT_OK
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()

    def test_progressive_plan_rejected_before_any_fit(self, tmp_path, capsys):
        out = tmp_path / "progressive"
        cfg_file = sweep_config(tmp_path, out)
        payload = yaml.safe_load(Path(cfg_file).read_text())
        payload["scheme"] = {"n": 6, "R": [1, 1, 1]}
        write_config(Path(cfg_file), payload)
        assert main(["sweep", "--config", cfg_file]) == EXIT_CONFIG
        assert "conventional plans only" in capsys.readouterr().err
        assert not out.exists()

    def test_conventional_plan_replayed_as_configured(self, tmp_path, monkeypatch):
        seen = []
        run_life_test = simulation.run_life_test

        def spy(times, labels, scheme, rng):
            seen.append(scheme)
            return run_life_test(times, labels, scheme, rng)

        monkeypatch.setattr(simulation, "run_life_test", spy)
        out = tmp_path / "conventional"
        cfg_file = sweep_config(tmp_path, out, grid=(0.1,), reps=2)
        payload = yaml.safe_load(Path(cfg_file).read_text())
        payload["scheme"] = {"n": 10, "J": 3}
        write_config(Path(cfg_file), payload)
        assert main(["sweep", "--config", cfg_file, "--workers", "1"]) == EXIT_OK
        assert seen and all(scheme == conventional_scheme(10, 3) for scheme in seen)

    def test_too_many_components_rejected_before_any_fit(self, tmp_path, capsys):
        out = tmp_path / "eight"
        cfg_file = sweep_config(tmp_path, out)
        payload = yaml.safe_load(Path(cfg_file).read_text())
        payload["model"] = {"lambdas": [1 / 8] * 8, "xis": [float(k) for k in range(1, 9)]}
        write_config(Path(cfg_file), payload)
        assert main(["sweep", "--config", cfg_file]) == EXIT_CONFIG
        assert "at most 6 components" in capsys.readouterr().err
        assert not out.exists()

    def test_truth_offset_needs_xi_above_offset(self, tmp_path, capsys):
        out = tmp_path / "small_xi"
        cfg_file = sweep_config(tmp_path, out)
        payload = yaml.safe_load(Path(cfg_file).read_text())
        payload["model"] = {"lambdas": PAPER_MODEL["lambdas"], "xis": [4.0, 0.008, 0.8]}
        write_config(Path(cfg_file), payload)
        assert main(["sweep", "--config", cfg_file]) == EXIT_CONFIG
        assert "'model.xis' must exceed 0.01" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "variable, grid",
        [("rho", [0.1, 1.2]), ("rho", [-0.1]), ("rho", [float("nan")]), ("n", [60, 0.4]), ("n", [float("inf")])],
        ids=["rho-above-1", "rho-below-0", "rho-nan", "n-rounds-to-0", "n-inf"],
    )
    def test_out_of_range_grid_rejected_before_any_fit(self, tmp_path, capsys, variable, grid):
        out = tmp_path / "range"
        cfg_file = sweep_config(tmp_path, out)
        payload = yaml.safe_load(Path(cfg_file).read_text())
        payload["sweep"] = {"variable": variable, "grid": grid}
        write_config(Path(cfg_file), payload)
        assert main(["sweep", "--config", cfg_file]) == EXIT_CONFIG
        assert "'sweep.grid' values of" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("sweep.grid", 0.1), ("methods", 5), ("model.lambdas", 1),
                                            ("model.xis", 4.0), ("scheme.R", 3)])
    def test_scalar_where_a_list_is_expected(self, tmp_path, capsys, key, value):
        out = tmp_path / "scalar"
        cfg_file = sweep_config(tmp_path, out)
        payload = yaml.safe_load(Path(cfg_file).read_text())
        *sections, leaf = key.split(".")
        node = payload
        for section in sections:
            node = node[section]
        node[leaf] = value
        write_config(Path(cfg_file), payload)
        assert main(["sweep", "--config", cfg_file]) == EXIT_CONFIG
        assert f"'{key}' must be a list, got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid", [(0.1, 0.1), (0.1, 0.10000000001)], ids=["equal", "close"])
    def test_repeated_grid_values_make_separate_cells(self, tmp_path, grid):
        out = tmp_path / "repeated"
        cfg_file = sweep_config(tmp_path, out, grid=grid, reps=2, methods=("uncertain",))
        assert main(["sweep", "--config", cfg_file, "--workers", "1"]) == EXIT_OK
        results, summary, figure = (read_rows(out / name) for name in ("results.csv", "summary.csv", "figure_xi_1.csv"))
        summary = [r for r in summary if r["parameter"] == "xi_1"]
        assert len(results) == 4 and len(summary) == 2 and len(figure) == 2
        for k, (cell, point) in enumerate(zip(summary, figure)):
            rows = results[2 * k:2 * k + 2]
            assert int(cell["n_success"]) == 2 and int(cell["n_failed"]) == 0
            assert float(cell["mean_rabias"]) == np.mean([float(r["rabias_xi_1"]) for r in rows])
            assert point["mean_rabias"] == cell["mean_rabias"]
        assert summary[0]["mean_rabias"] != summary[1]["mean_rabias"]
