import csv
import hashlib
import json
import os
import re
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import evidem
from evidem import censoring, cli, config, simulation
from evidem.censoring import conventional_scheme, read_dataset_csv, write_dataset_csv
from evidem.cli import EXIT_CONFIG, EXIT_DEGENERATE, EXIT_IO, EXIT_NOT_CONVERGED, EXIT_OK, main
from evidem.config import READS, ConfigError, RunConfig, parse_config
from evidem.estimator import E2MConfig, SoftLabeledDataset, read_soft_labels_csv, write_soft_labels_csv
from evidem.rayleigh import MixtureParams
from evidem.simulation import truth_offset_init
from helpers import fit, reference_e2m, starving_problem
from oracles import reference_read_dataset_csv

PAPER_MODEL = {"lambdas": [1 / 3, 1 / 3, 1 / 3], "xis": [4.0, 0.5, 0.8]}


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_config(path, payload):
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def read_manifest(path):
    """Parse a manifest as strict JSON, which has no NaN or Infinity."""
    def reject(constant):
        raise ValueError(f"{path} holds {constant}, which is not JSON")
    return json.loads(path.read_text(), parse_constant=reject)


@pytest.fixture(autouse=True)
def manifests_are_strict_json(tmp_path):
    yield
    for path in tmp_path.rglob("manifest.json"):
        read_manifest(path)


class TestParseConfig:
    def test_defaults_applied(self, tmp_path):
        cfg_file = write_config(tmp_path / "c.yaml", {"data": "d.csv", "labels": "l.csv"})
        cfg = parse_config(cfg_file, command="fit")
        assert cfg.fit_config.tol == 1e-8
        assert cfg.fit_config.max_iters == 1000
        assert cfg.corruption.sd == 0.2
        assert cfg.seed == 0
        assert cfg.reps == 20
        assert cfg.workers == RunConfig(command="fit").workers == len(os.sched_getaffinity(0))

    def test_censor_frac_expansion(self, tmp_path):
        cfg_file = write_config(tmp_path / "c.yaml", {"model": PAPER_MODEL, "scheme": {"n": 500}})
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
            parse_config(cfg_file, command="generate")
        assert "seeed" in str(err.value)
        assert "scheme.bogus" in str(err.value)

    def test_bad_removal_sum_is_scheme_error(self, tmp_path):
        cfg_file = write_config(tmp_path / "c.yaml", {"scheme": {"n": 10, "R": [1, 1, 1]}})
        with pytest.raises(ConfigError, match="scheme"):
            parse_config(cfg_file, command="generate")

    def test_flag_overrides_beat_file(self, tmp_path):
        cfg_file = write_config(
            tmp_path / "c.yaml", {"seed": 7, "model": PAPER_MODEL, "scheme": {"n": 100, "R": [0] * 99 + [1]}}
        )
        cfg = parse_config(cfg_file, {"seed": 9, "scheme.censor_frac": 0.5}, command="generate")
        assert cfg.seed == 9
        assert cfg.scheme.J == 50

    @pytest.mark.parametrize(
        "scheme, given",
        [({"n": 10, "J": 3, "censor_frac": 0.1}, "censor_frac, J"), ({"n": 10, "J": 3, "R": [0, 0, 7]}, "J, R"),
         ({"n": 10, "censor_frac": 0.7, "R": [0, 0, 7]}, "censor_frac, R"),
         ({"n": 10, "censor_frac": 0.7, "J": 3, "R": [0, 0, 7]}, "censor_frac, J, R")],
        ids=["J-censor_frac", "J-R", "R-censor_frac", "all-three"],
    )
    def test_conflicting_plans_rejected(self, tmp_path, capsys, scheme, given):
        out = tmp_path / "out"
        cfg_file = write_config(tmp_path / "c.yaml", {"model": PAPER_MODEL, "scheme": scheme, "out": str(out)})
        assert main(["generate", "--config", cfg_file]) == EXIT_CONFIG
        assert f"'scheme' must give only one of 'censor_frac', 'J' and 'R', got {given}\n" in capsys.readouterr().err
        assert not out.exists()
        # --censor-frac drops the file's 'J' and 'R', so the flag's plan is the one plan
        cfg = parse_config(cfg_file, {"scheme.censor_frac": 0.5}, command="generate")
        assert (cfg.censor_frac, cfg.scheme.J) == (0.5, 5)

    def test_method_all(self, tmp_path):
        cfg_file = write_config(tmp_path / "c.yaml", _COMPLETE_INPUTS["sweep"])  # only sweep reads 'methods'
        cfg = parse_config(cfg_file, {"methods": "all"}, command="sweep")
        assert [m.value for m in cfg.methods] == ["uncertain", "noisy", "unknown"]

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("does-not-exist.yaml", command="fit")

    def test_truncated_yaml_is_config_error(self, tmp_path, capsys):
        text = yaml.safe_dump({"model": PAPER_MODEL, "scheme": {"n": 6, "R": [1, 1, 1]}}, default_flow_style=None)
        cfg_file = tmp_path / "truncated.yaml"
        cfg_file.write_text(text[: text.index("R: [") + len("R: [1,")])
        assert main(["generate", "--config", str(cfg_file)]) == EXIT_CONFIG
        assert "is not valid YAML" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry", [b"scheme: {n: " + b"9" * 5000 + b", censor_frac: 0.5}", b"seed: 2020-02-30", b"seed: \xff"],
        ids=["integer-beyond-digit-limit", "impossible-date", "not-utf8"],
    )
    def test_unreadable_value_is_config_error(self, tmp_path, capsys, entry):
        cfg_file = tmp_path / "unreadable.yaml"
        cfg_file.write_bytes(b"model: {lambdas: [0.5, 0.5], xis: [1.0, 2.0]}\n" + entry + b"\n")
        assert main(["generate", "--config", str(cfg_file)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: config file {cfg_file} holds a value that cannot be read: ")
        assert "99999" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--seed", "--n", "--reps", "--workers", "--max-iters"])
    @pytest.mark.parametrize("value, shown", [("9" * 5000, "<5000 digits>"), ("x" * 5000, "<5000 characters>"),
                                              ("1.5", "'1.5'")], ids=["digits", "text", "short"])
    def test_invalid_integer_flag_is_not_echoed(self, capsys, flag, value, shown):
        with pytest.raises(SystemExit) as exit_:
            main(["sweep", flag, value])
        assert exit_.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.endswith(f"error: argument {flag}: invalid integer value: {shown}\n") and len(err) < 1000

    def test_model_invariants_checked(self, tmp_path):
        cfg_file = write_config(tmp_path / "c.yaml", {"model": {"lambdas": [0.6, 0.6], "xis": [1, 2]}})
        with pytest.raises(ConfigError, match="model"):
            parse_config(cfg_file, command="generate")


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
        manifest = read_manifest(out / "manifest.json")
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

    @pytest.mark.parametrize("removals", [[2**63 - 1, 2**63 - 1, 4], [2**63, 0, 0], [2**64 + 3, -(2**64)]])
    def test_removals_beyond_int64_are_config_errors(self, tmp_path, capsys, removals):
        # in int64 the first plan sums to 2 and the last to 3, so either would exhaust n = 5 with its J
        out = tmp_path / "out"
        cfg_file = write_config(
            tmp_path / "bad.yaml", {"model": PAPER_MODEL, "scheme": {"n": 5, "R": removals}, "out": str(out)}
        )
        assert main(["generate", "--config", cfg_file]) == EXIT_CONFIG
        assert "'scheme' is invalid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "scheme, flags",
        [({"n": 1.0e300, "censor_frac": 0.5}, []), ({"n": 10, "censor_frac": 0.5}, ["--n", str(10**400)]),
         ({"n": 10**20 + 1, "R": [10**20]}, [])],
        ids=["float-n", "flag-n", "plan"],
    )
    def test_more_units_than_the_maximum_is_config_error(self, tmp_path, capsys, scheme, flags):
        out = tmp_path / "out"
        cfg_file = write_config(tmp_path / "huge.yaml", {"model": PAPER_MODEL, "scheme": scheme, "out": str(out)})
        assert main(["generate", "--config", cfg_file, *flags]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert re.search(r"'scheme' is invalid: need 1 <= (J <= )?n <= 100000000, got", err)
        # the huge n is given as its digit count, so the message stays one short line
        assert re.search(r"n=<(21|301|401) digits>\n$", err) and err.count("\n") == 1 and len(err) < 120
        assert not out.exists()

    def test_progressive_plan_outputs_are_pinned(self, tmp_path):
        # a plan mixing R_j in {0, 1, 3}, drawn directly by draw_experiment: its failure times from
        # uniform spacings, its labels given the times; and a conventional plan, replayed by
        # run_life_test, whose labels.csv also pins the generator state the replay leaves
        removals = ([1] * 50 + [0] * 10 + [3] * 5) * 23
        pinned = [({"n": sum(removals) + len(removals), "R": removals}, {
            "data.csv": "9073aae14d74f6b82afeb16dffa7a25d5f66f3fff3af483571a20b12969bf132",
            "labels.csv": "8832a764c1cb5565776e0b21ed8ac981b46e797f13bf5701cc5df6bf9a66a5e6",
        }), ({"n": 2000, "J": 800}, {
            "data.csv": "9d28ba85168f0b8a9f6b01d5e0432839f7535e76d7ba8cd55c772ec91b19e826",
            "labels.csv": "aa700e38705c0d3cf6371461df7f444c1916e34b0000230e27c006aabdcd1bf3",
        })]
        for k, (scheme, hashes) in enumerate(pinned):
            out = tmp_path / f"run{k}"
            cfg_file = write_config(tmp_path / f"gen{k}.yaml", {
                "model": PAPER_MODEL, "scheme": scheme, "corruption": {"rho": 0.2}, "seed": 2024, "out": str(out),
            })
            assert main(["generate", "--config", cfg_file]) == EXIT_OK
            assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in hashes} == hashes


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
        for k, r in enumerate(trace_rows):
            assert int(r["iteration"]) == k
            assert float(r["gll"]) == trace.gll_values[k]
            for z in range(3):
                assert float(r[f"lambda_{z + 1}"]) == trace.lambdas[k, z]
                assert float(r[f"xi_{z + 1}"]) == trace.xis[k, z]

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

    def test_trace_and_estimate_match_the_reference_e2m(self, tmp_path):
        """Every row of trace.csv, and estimate.csv, against the independent record-major E2M, not the library."""
        gen = tmp_path / "gen"
        assert main(generate_args(tmp_path, gen, seed=2024, n=1000, censor=0.4, rho=0.2)) == EXIT_OK
        out = tmp_path / "fitref"
        cfg_file = write_config(tmp_path / "fitref.yaml", {
            "data": str(gen / "data.csv"), "labels": str(gen / "labels.csv"), "model": PAPER_MODEL,
            "fit": {"init": "truth-offset"}, "out": str(out)})
        assert main(["fit", "--config", cfg_file]) == EXIT_OK
        ds = read_dataset_csv(gen / "data.csv")
        ids, pl = read_soft_labels_csv(gen / "labels.csv")
        assert np.array_equal(ids, ds.item_id) and 0.0 < pl.min() <= pl.max() < 1.0  # UNCERTAIN rows
        init = truth_offset_init(MixtureParams(np.array(PAPER_MODEL["lambdas"]), np.array(PAPER_MODEL["xis"])))
        trace = read_rows(out / "trace.csv")
        n_updates = len(trace) - 1
        glls, params = reference_e2m(ds.y_star, ds.observed, pl, init.lambdas, init.xis, n_updates)
        params = [(init.lambdas, init.xis), *params]
        for k, row in enumerate(trace):
            assert int(row["iteration"]) == k
            assert_allclose(float(row["gll"]), glls[k], rtol=1e-12)
            for z in range(3):
                assert_allclose(float(row[f"lambda_{z + 1}"]), params[k][0][z], rtol=1e-12)
                assert_allclose(float(row[f"xi_{z + 1}"]), params[k][1][z], rtol=1e-12)
        (estimate,) = read_rows(out / "estimate.csv")
        assert (int(estimate["iterations"]), estimate["converged"]) == (n_updates, "true")
        assert_allclose(float(estimate["gll"]), glls[-1], rtol=1e-12)
        for z in range(3):
            assert_allclose(float(estimate[f"lambda_{z + 1}"]), params[-1][0][z], rtol=1e-12)
            assert_allclose(float(estimate[f"xi_{z + 1}"]), params[-1][1][z], rtol=1e-12)

    def test_labels_and_inline_soft_labels_rejected(self, tmp_path, generated, capsys):
        # with both, fit used to read labels.csv and record the unused matrix in its manifest
        out = tmp_path / "both"
        cfg_file = write_config(tmp_path / "both.yaml", {
            "data": str(generated / "data.csv"), "labels": str(generated / "labels.csv"),
            "soft_labels": [[1.0, 0.0, 0.0]] * read_dataset_csv(generated / "data.csv").n, "out": str(out)})
        assert main(["fit", "--config", cfg_file]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "configuration error: the fit command takes only one of 'labels' and 'soft_labels'\n")
        assert not out.exists()

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

    @pytest.mark.parametrize("defect", ["nan", "-1.0", "0.0", "duplicate-id", "failure-beyond-J", "short-row",
                                        "censored-at-9e-09-for-1e-09", "censored-at-2.00001-for-2.0"])
    def test_malformed_data_is_config_error(self, tmp_path, generated, capsys, defect):
        with open(generated / "data.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        if defect.startswith("censored-at-"):
            # every record at the failure time, but one censored record just off it
            censored, failure = defect.removeprefix("censored-at-").split("-for-")
            y = rows[0].index("y_star")
            for row in rows[1:]:
                row[y] = failure
            next(r for r in rows if r[2] == "censored")[y] = censored
        elif defect == "duplicate-id":
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
        err = capsys.readouterr().err
        assert "invalid input data" in err
        if defect.startswith("censored-at-"):
            assert "each censored time must equal the failure time" in err
        assert not (tmp_path / "bad_out").exists()

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
        assert not (tmp_path / "bad_out").exists()

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_label_row_order_does_not_change_the_fit(self, tmp_path, generated, order):
        # labels.csv in data.csv's order is taken as it is, any other order is aligned by item_id
        header, *rows = (generated / "labels.csv").read_text().splitlines(keepends=True)
        rows = rows[::-1] if order == "reversed" else [rows[k] for k in np.random.default_rng(5).permutation(len(rows))]
        (tmp_path / "reordered.csv").write_text("".join([header, *rows]))
        outputs = {}
        for name, labels in (("in-order", generated / "labels.csv"), (order, tmp_path / "reordered.csv")):
            cfg_file = write_config(tmp_path / f"{name}.yaml", {
                "data": str(generated / "data.csv"), "labels": str(labels), "model": PAPER_MODEL,
                "out": str(tmp_path / name)})
            assert main(["fit", "--config", cfg_file]) == EXIT_OK
            outputs[name] = [(tmp_path / name / f).read_bytes() for f in ("estimate.csv", "trace.csv")]
        assert outputs[order] == outputs["in-order"]
        ds, want = read_dataset_csv(generated / "data.csv"), reference_read_dataset_csv(generated / "data.csv")
        assert ds.item_id.tobytes() == want.item_id.tobytes() and ds.true_label.tobytes() == want.true_label.tobytes()

    @pytest.mark.parametrize("defect", ["unknown-id", "duplicate-id", "missing-row"])
    def test_label_ids_that_do_not_match_the_dataset(self, tmp_path, generated, capsys, defect):
        with open(generated / "labels.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        if defect == "unknown-id":
            rows[1][0] = str(len(rows) + 5)
        elif defect == "duplicate-id":
            rows[2][0] = rows[1][0]
        else:
            del rows[-1]
        labels = tmp_path / "bad_labels.csv"
        with open(labels, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        cfg_file = write_config(tmp_path / "fit_ids.yaml", {"data": str(generated / "data.csv"), "labels": str(labels),
                                                            "out": str(tmp_path / "ids_out")})
        assert main(["fit", "--config", cfg_file]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "configuration error: invalid input data: label file item_ids do not match the dataset\n")
        assert not (tmp_path / "ids_out").exists()

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
        assert not (tmp_path / "width_out").exists()

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

    @pytest.mark.parametrize("case, flags, code, pinned", [
        ("converged", [], EXIT_OK,
         {"estimate.csv": "9cebe7058e3e038e799cd0dcb78fd14a4bd077c8ff0aaca27e9343bb9d1d4268",
          "trace.csv": "b5c5ec2f8669297deaaae5ce77f4015493fba05af5fae15deeb9b639b551323c",
          "manifest.json": "95cfa099a12955614841801f6822b00c949f994582bf77bb709209f8a12a8056"}),
        ("capped", ["--max-iters", "1"], EXIT_NOT_CONVERGED,
         {"estimate.csv": "19de09093ba508fb4ecedb608f6c54270452604be01701a8ebe3232456624720",
          "trace.csv": "ee70006d37a9b9b5175b370be291ce369dc7557377840aa267c95f194d5eabc6",
          "manifest.json": "0836a8be169fdf1c5fc93ce1dcffd0033c24c450fdd0f2761603afc6884b8d27"}),
        ("degenerate", [], EXIT_DEGENERATE,
         {"manifest.json": "c449961a214b176187754a86f6b62fea9ba96ea48579df25abb25227bd18beae"}),
    ])
    def test_fit_outputs_are_pinned(self, tmp_path, monkeypatch, case, flags, code, pinned):
        # the hashes are those of the fit that assembled its trace from per-fit history segments;
        # relative paths keep the manifest free of the temporary directory
        monkeypatch.chdir(tmp_path)
        model = {"lambdas": [0.5, 0.5], "xis": [1.0, 2.0]}
        gen = write_config(tmp_path / "gen.yaml", {"model": model, "scheme": {"n": 40, "censor_frac": 0.5},
                                                   "seed": 123, "out": "gen"})
        assert main(["generate", "--config", gen]) == EXIT_OK
        if case == "degenerate":
            # the first record is plausible only under the second component, which has no weight
            model = dict(model, lambdas=[1.0, 0.0])
            header, first, *rest = Path("gen/labels.csv").read_text().splitlines(keepends=True)
            Path("gen/labels.csv").write_text("".join([header, first.split(",")[0] + ",0.0,1.0\n", *rest]))
        cfg_file = write_config(tmp_path / "fit.yaml", {"data": "gen/data.csv", "labels": "gen/labels.csv",
                                                        "model": model, "fit": {"init": "model"}, "out": "fit"})
        assert main(["fit", "--config", cfg_file, *flags]) == code
        written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in Path("fit").iterdir()}
        assert written == pinned

    def test_large_progressive_fit_is_pinned(self, tmp_path, monkeypatch):
        # 8 000 units under a progressive plan, fitted from the quantile-spread start
        monkeypatch.chdir(tmp_path)
        removals = [0, 2, 1] * 1000 + [1] * 1000
        gen = write_config(tmp_path / "gen.yaml", {"model": PAPER_MODEL, "corruption": {"rho": 0.2}, "seed": 7,
                                                   "scheme": {"n": sum(removals) + len(removals), "R": removals},
                                                   "out": "gen"})
        assert main(["generate", "--config", gen]) == EXIT_OK
        cfg_file = write_config(tmp_path / "fit.yaml", {"data": "gen/data.csv", "labels": "gen/labels.csv",
                                                        "fit": {"init": "quantile-spread", "max_iters": 300},
                                                        "out": "fit"})
        assert main(["fit", "--config", cfg_file]) == EXIT_OK
        pinned = {"estimate.csv": "45d52b8085067f804aac187787845dbb9168b1b4b846e4e21155355a0f952dae",
                  "trace.csv": "0a47352db74d71046a6e6e2cfd79380317b69dd82b71a32f2129fd411824875b"}
        assert {name: hashlib.sha256(Path("fit", name).read_bytes()).hexdigest() for name in pinned} == pinned

    def test_thousands_of_impossible_records_give_a_short_message(self, tmp_path, capsys):
        # every record is plausible only under the second component, which has no weight
        gen = write_config(tmp_path / "gen.yaml", {"model": {"lambdas": [0.5, 0.5], "xis": [1.0, 2.0]},
                                                   "scheme": {"n": 5000, "censor_frac": 0.5}, "seed": 5})
        assert main(["generate", "--config", gen, "--out", str(tmp_path / "gen")]) == EXIT_OK
        ids, pl = read_soft_labels_csv(tmp_path / "gen" / "labels.csv")
        write_soft_labels_csv(np.tile([0.0, 1.0], (len(ids), 1)), tmp_path / "impossible.csv", item_ids=ids)
        cfg_file = write_config(tmp_path / "fit.yaml", {
            "data": str(tmp_path / "gen" / "data.csv"), "labels": str(tmp_path / "impossible.csv"),
            "model": {"lambdas": [1.0, 0.0], "xis": [1.0, 2.0]}, "fit": {"init": "model"}, "out": str(tmp_path / "fit")})
        assert main(["fit", "--config", cfg_file]) == EXIT_DEGENERATE
        err = capsys.readouterr().err
        assert f"record(s) {list(range(32))}"[:-1] + ", ...] (5000 in all)" in err and len(err.encode()) < 2048
        manifest = tmp_path / "fit" / "manifest.json"
        assert read_manifest(manifest)["outcome"].startswith("degenerate: ") and manifest.stat().st_size < 2048

    def test_starved_fit_is_named_in_the_manifest(self, tmp_path, capsys):
        soft, init = starving_problem()
        write_dataset_csv(soft.data, tmp_path / "data.csv")
        write_soft_labels_csv(soft.pl, tmp_path / "labels.csv", item_ids=soft.data.item_id)
        cfg_file = write_config(tmp_path / "fit.yaml", {
            "data": str(tmp_path / "data.csv"), "labels": str(tmp_path / "labels.csv"),
            "model": {"lambdas": init.lambdas.tolist(), "xis": init.xis.tolist()}, "fit": {"init": "model"},
            "out": str(tmp_path / "fit")})
        assert main(["fit", "--config", cfg_file]) == EXIT_DEGENERATE
        assert "component(s) [0]" in capsys.readouterr().err
        outcome = read_manifest(tmp_path / "fit" / "manifest.json")["outcome"]
        assert outcome == "starved: component(s) [0] have a degenerate moment denominator"
        assert not (tmp_path / "fit" / "estimate.csv").exists()

    def test_overflowing_times_exit_4_with_only_a_manifest(self, tmp_path, generated, capsys):
        # y*^2 overflows; the suite's filter would turn any floating-point warning into a traceback
        with open(generated / "data.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            row[1] = "1e300"
        with open(tmp_path / "huge.csv", "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        cfg_file = write_config(tmp_path / "fit.yaml", {
            "data": str(tmp_path / "huge.csv"), "labels": str(generated / "labels.csv"), "out": str(tmp_path / "fit")})
        assert main(["fit", "--config", cfg_file]) == EXIT_DEGENERATE
        assert "generalized log-likelihood is non-finite at record(s) [0, 1, 2," in capsys.readouterr().err
        assert read_manifest(tmp_path / "fit" / "manifest.json")["outcome"].startswith("degenerate: ")
        assert [path.name for path in (tmp_path / "fit").iterdir()] == ["manifest.json"]


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


_FAILED_FIT = {"model": {"lambdas": [0.5, 0.5], "xis": [1.0, 2.0]}, "scheme": {"n": 12, "censor_frac": 0.5},
               "corruption": {"rho": 0.3}, "methods": "all", "reps": 4, "seed": 1275, "fit": {"max_iters": 200},
               "sweep": {"variable": "rho", "grid": [0.1, 0.3]}}
_PINNED_SWEEPS = {
    "rho": ({"model": PAPER_MODEL, "scheme": {"n": 60, "censor_frac": 0.4}, "methods": "all", "reps": 3, "seed": 11,
             "sweep": {"variable": "rho", "grid": [0.0, 0.2, 0.4]}},
            {"results.csv": "511b4cd88e2bd70d18f21b1de5b76fae89a66fe7245e3d1fd1899873d0ca5c81",
             "summary.csv": "fd762692eb593df93803fc155ede827671fbd1dd9ef4e7604b5b7c40cebbf797",
             "figure_xi_1.csv": "44506a3886531a4b32ed0ab8b6ab4de171e2fe079561df6a6264e995b8efb342",
             "figure_xi_2.csv": "b45102faf5ce88f20ad5e18ca79dce37c40d0fd1d080f5d46b7cf5c1a4928eb7",
             "figure_xi_3.csv": "401b218aaa33c74b4be5e65cfc51fcfd194c2f52e9ccb36cef4933d14b42a9f8",
             "figure_xi_1.svg": "6e77aedf25f481f4d28c0744b16c1c9bd7c8fa0d51108b04000b9cc27fd5b8df",
             "figure_xi_2.svg": "ba96505c2bdd509fd72ce53102fcb7afcf0540a61df72eed58fb2577971d79a1",
             "figure_xi_3.svg": "fdd7991d9fd792cde868148db62ce23bdd900a4dc9e4ffde6629942790a25d82"}),
    "n": ({"model": PAPER_MODEL, "scheme": {"n": 60, "censor_frac": 0.4}, "corruption": {"rho": 0.2}, "methods": "all",
           "reps": 2, "seed": 5, "sweep": {"variable": "n", "grid": [60, 90, 60]}},
          {"results.csv": "6e4a00dd9d1e6ed383d6d4bdf4ab5cc9f000e5cc2dbd57a5356f50a884dd57bb",
           "summary.csv": "ce4c1f42ef51ac6baf96ac0c3b1d808badd583de627114490bf5745911f5d8ed",
           "figure_xi_1.csv": "f02524f7148450a51b1244964794e2b82cacfe11e548cf73f8f4701d263b15c1",
           "figure_xi_2.csv": "9274849f72828983e5a09408b54567de694a8bc396d41e99c2c9260fe2a3d402",
           "figure_xi_3.csv": "521324b7c3d99818dc815c820c2f1321af69fb5c65488f2f2677e1eeff2138bc",
           "figure_xi_1.svg": "fdca56f2f37da7dea76f7f7b0d47549b7d51495db791ddc605631efaff25ce89",
           "figure_xi_2.svg": "0192becf0fc8ab9fe4cea8308fa5d41328dc462213b549fd3a45ea420da51f47",
           "figure_xi_3.svg": "68db3975501a63f63add3e99c420afe4dff860f1d46992d2406138c3431de6fe"}),
    "failed-fit": (_FAILED_FIT,
                   {"results.csv": "9a643cab827aa43dd079fe156e4bbdbd2769f0c8daeb51e4380ebe8c9d97d0ba",
                    "summary.csv": "8dfac140999fce24dc4e4fc9f95fd9238595c407f3c1ce38e06b2ecca44aa3fa",
                    "figure_xi_1.csv": "0bd89f93c5e3e021e18a12ea599cd5d9434b488fa36a59398f8c25808187bb02",
                    "figure_xi_2.csv": "214d7bdf82badc3bdd3e3668bac5dd3e93d9e0b1e296f2ec5a68cfe0c3d9e33c",
                    "figure_xi_1.svg": "dfed8bac5943cf0140eb869d96afe04c91a65adc6328b904987fcd0c0091b444",
                    "figure_xi_2.svg": "fb0bcdcfaa928e570747399fc08ab36593c592da90e716c9226c3184b7e9d991"}),
    # six components, the UNKNOWN fits capped at 400 updates
    "rho-p6": ({"model": {"lambdas": [0.1, 0.2, 0.1, 0.25, 0.15, 0.2], "xis": [4.0, 0.5, 0.8, 2.0, 1.2, 0.3]},
                "scheme": {"n": 200, "censor_frac": 0.3}, "methods": "all", "reps": 2, "seed": 29,
                "fit": {"max_iters": 400}, "sweep": {"variable": "rho", "grid": [0.0, 0.25]}},
               {"results.csv": "05ba54c334b408b8f722a132c2b55292c673f86d8eedf48ebb536e7a6a64972e",
                "summary.csv": "a211efe972998d09189b5b9ac95d9c4a930baf0180b453507e288d909262f76b"}),
    # the (0.3, noisy) cell has 9 successes and 1 failure: a mean over all 10 slots, the failed one
    # zero-filled, sums in another order and moves the cell's xi_1 and xi_2 means in their last digit
    "failed-fit-reps-10": (dict(_FAILED_FIT, reps=10),
                           {"results.csv": "d0f189ded0edc38cca46cfc915b89d4bccc0f6add5d4735a4cf243eca911bfff",
                            "summary.csv": "684943bc3d8f799e4a2a45e00526499e7e685bccfb41f91a13e57f5ef08a2f7f",
                            "figure_xi_1.csv": "da54d9db9b6cc6c26941f45411f5442bec1b32d304055c010fb336a5bf21d833",
                            "figure_xi_2.csv": "bce5aa59eb2786289ef3bd2f9b3e84b5ccff7acec89f49e7c4fce29f79813920",
                            "figure_xi_1.svg": "983d8d172ece616a57f16d6aab21d346c1e199950760fe6f4e62c19627439db3",
                            "figure_xi_2.svg": "fd478b1bc480520f4118d3777e8f078c16813dd95f5498858b6b7699b65ffbb6"}),
}


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
        manifest = read_manifest(out / "manifest.json")
        assert manifest["effective_sd"][0] == 0.0

    def test_summary_line_counts_rows(self, tmp_path, capsys):
        # 4 replications give 24 rows (2 grid points x 3 methods), and one fit fails: NOISY at rho 0.3, rep 2
        out = tmp_path / "counted"
        cfg_file = write_config(tmp_path / "sweep.yaml", dict(_FAILED_FIT, out=str(out)))
        assert main(["sweep", "--config", cfg_file, "--workers", "1"]) == EXIT_OK
        assert capsys.readouterr().out == f"24 rows, 1 failed; outputs in {out}\n"

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

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("case", ["rho", "n", "failed-fit", "failed-fit-reps-10", "rho-p6"])
    def test_sweep_outputs_are_pinned(self, tmp_path, case, workers):
        # the hashes are those of the sweep that draws one experiment per replication and fits all its
        # methods in one batch; each of these sweeps is one batch in this process at any worker count
        payload, hashes = _PINNED_SWEEPS[case]
        out = tmp_path / "run"
        cfg_file = write_config(tmp_path / "sweep.yaml", dict(payload, out=str(out)))
        assert main(["sweep", "--config", cfg_file, "--workers", str(workers)]) == EXIT_OK
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in hashes} == hashes
        results = read_rows(out / "results.csv")
        failed = [(r["grid_value"], r["method"], r["rep"]) for r in results if r["failed"] == "true"]
        # the starved fit's row records the error, and every other fit of its batch runs on
        assert failed == ([("0.3", "noisy", "2")] if case.startswith("failed-fit") else [])

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("case, methods, kept, pinned", [
        ("rho", "all", "rho,0.0,uncertain,", "7f47cb7f2e7bddacf5424c8c00ca22bd4f3520e126799a17a49b84d59e574ffd"),
        ("n", ["uncertain"], "n,", "1c127b14b771663182fa99e2f0062770619ec16b662575ad374569569846544c")])
    def test_uncertain_rows_keep_their_draws(self, tmp_path, workers, case, methods, kept, pinned):
        # the UNCERTAIN rows of a rho sweep's first grid point, and of an UNCERTAIN-only n sweep, draw
        # from the substreams they drew from when every method had its own: the hashes are of their
        # lines, header first, as written before the experiment was shared
        out = tmp_path / "run"
        payload = dict(_PINNED_SWEEPS[case][0], methods=methods, out=str(out))
        cfg_file = write_config(tmp_path / "sweep.yaml", payload)
        assert main(["sweep", "--config", cfg_file, "--workers", str(workers)]) == EXIT_OK
        header, *lines = (out / "results.csv").read_text().splitlines(keepends=True)
        rows = [header, *(line for line in lines if line.startswith(kept))]
        assert len(rows) == 1 + {"rho": 3, "n": 6}[case]
        assert hashlib.sha256("".join(rows).encode()).hexdigest() == pinned

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
        run_life_test = censoring.run_life_test

        def spy(times, labels, scheme, rng):
            seen.append(scheme)
            return run_life_test(times, labels, scheme, rng)

        monkeypatch.setattr(censoring, "run_life_test", spy)
        out = tmp_path / "conventional"
        cfg_file = sweep_config(tmp_path, out, grid=(0.1,), reps=2)
        payload = yaml.safe_load(Path(cfg_file).read_text())
        payload["scheme"] = {"n": 10, "J": 3}
        write_config(Path(cfg_file), payload)
        assert main(["sweep", "--config", cfg_file, "--workers", "1"]) == EXIT_OK
        assert seen and all(scheme == conventional_scheme(10, 3) for scheme in seen)

    def test_conventional_plan_whose_censor_frac_does_not_give_back_its_j(self, tmp_path):
        # 1 - J / n at this (n, J) gives back J + 1, and the plan was rejected as progressive; a rho sweep
        # replays the configured plan itself
        cfg_file = write_config(tmp_path / "sweep.yaml", {
            "model": PAPER_MODEL, "scheme": {"n": 54362499, "J": 2107888}, "reps": 1, "methods": "unknown",
            "sweep": {"variable": "rho", "grid": [0.1]}})
        cfg = parse_config(cfg_file, command="sweep")
        assert cfg.sweep.schemes[0].J == 2107888
        assert cfg.sweep.schemes[0] is cfg.scheme

    def test_model_start_begins_every_fit_at_the_truth(self, tmp_path, monkeypatch):
        starts = []
        fit_batch = simulation.fit_batch

        def spy(datasets, inits, config, **kwargs):
            starts.extend(inits)
            return fit_batch(datasets, inits, config, **kwargs)

        monkeypatch.setattr(simulation, "fit_batch", spy)
        out = tmp_path / "model_start"
        cfg_file = sweep_config(tmp_path, out, grid=(0.1, 0.3), reps=2, n=40)
        payload = yaml.safe_load(Path(cfg_file).read_text())
        payload["fit"] = {"init": "model"}
        write_config(Path(cfg_file), payload)
        assert main(["sweep", "--config", cfg_file, "--workers", "1"]) == EXIT_OK
        assert len(starts) == 2 * 2 * 2
        for start in starts:
            assert start.lambdas.tolist() == PAPER_MODEL["lambdas"]
            assert start.xis.tolist() == PAPER_MODEL["xis"]

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

    def test_zero_true_weight_rejected_before_any_fit(self, tmp_path, capsys):
        out = tmp_path / "zero_weight"
        cfg_file = sweep_config(tmp_path, out, grid=(0.1,), reps=1, n=200)
        payload = yaml.safe_load(Path(cfg_file).read_text())
        payload["model"] = {"lambdas": [1.0, 0.0], "xis": [1.0, 2.0]}
        payload["fit"] = {"init": "quantile-spread"}
        write_config(Path(cfg_file), payload)
        assert main(["sweep", "--config", cfg_file, "--workers", "1"]) == EXIT_CONFIG
        assert "'model.lambdas' must all be positive, got [1.0, 0.0]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("reps, shown", [("416667", "<9 digits>"), ("10000000000", "<13 digits>")])
    def test_more_sweep_units_than_the_maximum_rejected_before_any_directory(self, tmp_path, capsys, reps, shown):
        # two methods at two grid points of n = 60 fit 240 records a rep: 416 666 reps are 99 999 840 records
        out = tmp_path / "huge"
        cfg_file = sweep_config(tmp_path, out)
        assert parse_config(cfg_file, {"reps": 416666}, command="sweep").sweep.reps == 416666
        assert main(["sweep", "--config", cfg_file, "--reps", reps]) == EXIT_CONFIG
        assert capsys.readouterr().err == ("configuration error: a sweep may fit at most 100000000 records in all "
                                           "(reps x fits per replication x n, summed over an n sweep's grid); "
                                           f"this one fits {shown}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "variable, grid",
        [("rho", [0.1, 1.2]), ("rho", [-0.1]), ("rho", [float("nan")]), ("n", [60, 0.4]), ("n", [float("inf")]),
         ("n", [1.0e300])],
        ids=["rho-above-1", "rho-below-0", "rho-nan", "n-rounds-to-0", "n-inf", "n-huge"],
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

    def test_overflowing_moment_denominator_starves_every_fit(self, tmp_path, capsys):
        # the true xi_1 = 1e-160 as the start: 2 / xi_1^2 overflows in the first M-step
        cfg_file = write_config(tmp_path / "sweep.yaml", {
            "model": {"lambdas": [0.5, 0.5], "xis": [1.0e-160, 1.0]}, "scheme": {"n": 20, "censor_frac": 0.5},
            "fit": {"init": "model"}, "methods": "all", "reps": 1, "sweep": {"variable": "rho", "grid": [0.1]},
            "out": str(tmp_path / "out")})
        assert main(["sweep", "--config", cfg_file, "--workers", "1"]) == EXIT_DEGENERATE
        assert "every replication failed" in capsys.readouterr().err
        errors = {row["error"] for row in read_rows(tmp_path / "out" / "results.csv")}
        assert errors == {"ComponentStarvedError: component(s) [0] have a degenerate moment denominator"}

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


@pytest.mark.parametrize("command", ["generate", "sweep"])
@pytest.mark.parametrize("defect", ["nan-weight", "nan-sd", "negative-seed"])
def test_invalid_number_is_config_error(tmp_path, capsys, command, defect):
    out = tmp_path / "out"
    payload = {"model": {"lambdas": [0.5, 0.5], "xis": [1.0, 2.0]}, "scheme": {"n": 20, "censor_frac": 0.5},
               "sweep": {"variable": "rho", "grid": [0.1]}, "reps": 1, "out": str(out)}
    flags = []
    if defect == "nan-weight":
        payload["model"]["lambdas"][0] = float("nan")
    elif defect == "nan-sd":
        payload["corruption"] = {"sd": float("nan")}
    else:
        flags = ["--seed", "-1"]
    cfg_file = write_config(tmp_path / "bad.yaml", payload)
    workers = ["--workers", "1"] if command == "sweep" else []
    assert main([command, "--config", cfg_file, *workers, *flags]) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


_BETA_WITHOUT_FLOAT_SHAPES = {
    "sd-squared-underflows": {"corruption": {"rho": 0.3, "sd": 1.0e-170}},
    "shapes-overflow": {"corruption": {"rho": 0.3, "sd": 1.0e-155}},
    "subnormal-rho": {"corruption": {"rho": 5.0e-324}},
    "subnormal-grid-value": {"sweep": {"variable": "rho", "grid": [0.0, 5.0e-324]}},
}


# generate reads no sweep grid
@pytest.mark.parametrize("command, case", [(command, case) for command in ("generate", "sweep")
                                           for case in _BETA_WITHOUT_FLOAT_SHAPES
                                           if command == "sweep" or "sweep" not in _BETA_WITHOUT_FLOAT_SHAPES[case]])
def test_corruption_without_float_beta_is_config_error(tmp_path, capsys, command, case):
    out = tmp_path / "out"
    payload = {"model": {"lambdas": [0.5, 0.5], "xis": [1.0, 2.0]}, "scheme": {"n": 20, "censor_frac": 0.5},
               "sweep": {"variable": "rho", "grid": [0.1]}, "reps": 1, "out": str(out),
               **_BETA_WITHOUT_FLOAT_SHAPES[case]}
    cfg_file = write_config(tmp_path / "beta.yaml", payload)
    workers = ["--workers", "1"] if command == "sweep" else []
    assert main([command, "--config", cfg_file, *workers]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "give no Beta in floating point" in err
    assert not out.exists()


_COMPLETE_INPUTS = {
    "generate": {"model": PAPER_MODEL, "scheme": {"n": 20, "censor_frac": 0.5}},
    "fit": {"data": "data.csv", "labels": "labels.csv"},
    "sweep": {"model": PAPER_MODEL, "scheme": {"n": 20, "censor_frac": 0.5}, "reps": 1,
              "sweep": {"variable": "rho", "grid": [0.1]}},
}


@pytest.mark.parametrize(
    "command, missing, fit_section, needs",
    [("generate", "model", {}, "a 'model' section"),
     ("generate", "scheme", {}, "a 'scheme' section"),
     ("fit", "data", {}, "a 'data' path"),
     ("fit", "labels", {}, "'labels' (CSV path) or inline 'soft_labels'"),
     ("fit", "model", {"init": "model"}, "a 'model' section (fit.init = model)"),
     ("fit", "model", {"init": "truth-offset"}, "a 'model' section (fit.init = truth-offset)"),
     ("sweep", "model", {}, "a 'model' section"),
     ("sweep", "scheme", {}, "a 'scheme' section"),
     ("sweep", "sweep", {}, "a 'sweep' section")],
    ids=["generate-model", "generate-scheme", "fit-data", "fit-labels", "fit-model-start", "fit-truth-offset-start",
         "sweep-model", "sweep-scheme", "sweep-sweep"],
)
def test_missing_required_input_is_config_error(tmp_path, capsys, command, missing, fit_section, needs):
    out = tmp_path / "out"
    payload = {**_COMPLETE_INPUTS[command], "fit": fit_section, "out": str(out)}
    payload.pop(missing, None)
    cfg_file = write_config(tmp_path / "missing.yaml", payload)
    assert main([command, "--config", cfg_file]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: the {command} command needs {needs}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "fit", "sweep"])
@pytest.mark.parametrize("out", [None, ["a", "b"], {"dir": "a"}, 7, "a\0b"],
                         ids=["empty", "list", "mapping", "number", "nul-byte"])
def test_out_that_is_not_a_path_is_config_error(tmp_path, monkeypatch, capsys, command, out):
    # an empty 'out:' used to send every output into a directory named None
    monkeypatch.chdir(tmp_path)
    cfg_file = write_config(tmp_path / "out.yaml", {**_COMPLETE_INPUTS[command], "out": out})
    assert main([command, "--config", cfg_file]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: 'out' must be a path, got {out!r}\n"
    assert os.listdir(tmp_path) == ["out.yaml"]


@pytest.mark.parametrize("key", ["data", "labels"])
@pytest.mark.parametrize("value", [["a", "b"], {"file": "a"}, 5, "", "a\0b"],
                         ids=["list", "mapping", "number", "empty", "nul-byte"])
def test_input_that_is_not_a_path_is_config_error(tmp_path, monkeypatch, capsys, key, value):
    monkeypatch.chdir(tmp_path)
    cfg_file = write_config(tmp_path / "inputs.yaml", {**_COMPLETE_INPUTS["fit"], key: value})
    assert main(["fit", "--config", cfg_file]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: '{key}' must be a path, got {value!r}\n"
    assert os.listdir(tmp_path) == ["inputs.yaml"]


def test_quote_left_open_in_an_ignored_column_is_config_error(tmp_path, capsys):
    # the open quote reads rows 4 and 5 into row 3's note, a column the reader skips, so the parse succeeds with 3
    # records, as many as labels.csv lists: the fit must not run on them
    data, labels, out = tmp_path / "data.csv", tmp_path / "labels.csv", tmp_path / "out"
    data.write_text("item_id,y_star,status,censored_at_failure,true_label,note\n1,1.5,observed,,1,a\n"
                    '2,2.0,observed,,2,b\n3,2.5,observed,,1,"c\n4,2.5,censored,3,2,d\n5,2.5,censored,3,1,e\n')
    labels.write_text("item_id,pl_1,pl_2\n1,1,0.5\n2,0.5,1\n3,1,1\n")
    cfg_file = write_config(tmp_path / "fit.yaml", {"data": str(data), "labels": str(labels), "out": str(out)})
    assert main(["fit", "--config", cfg_file]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"configuration error: invalid input data: {data}: row 3 opens a quoted field that its line does not close\n")
    assert not out.exists()


@pytest.mark.parametrize("command, entry, name", [
    ("generate", {"corruption": {"rho": 10**400}}, "corruption.rho"),
    ("sweep", {"sweep": {"variable": "n", "grid": [60, -10**400]}}, "sweep.grid")])
def test_integer_beyond_the_float_range_is_config_error(tmp_path, capsys, command, entry, name):
    out = tmp_path / "out"
    cfg_file = write_config(tmp_path / "huge.yaml", {**_COMPLETE_INPUTS[command], **entry, "out": str(out)})
    assert main([command, "--config", cfg_file]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"configuration error: '{name}' must be a number in the float range, got <401 digits>\n")
    assert not out.exists()


# each key's command, entry and error; the words are dumped quoted and written bare, so YAML reads them as booleans
_BOOLEANS = {
    "corruption.rho": ("generate", {"corruption": {"rho": "on"}}, "'corruption.rho' must be a number, got True"),
    "corruption.sd": ("generate", {"corruption": {"sd": "off"}}, "'corruption.sd' must be a number, got False"),
    "model.lambdas": ("generate", {"model": {"lambdas": ["yes", "no"], "xis": [1.0, 2.0]}},
                      "'model.lambdas' must be a number, got True"),
    "model.xis": ("generate", {"model": {"lambdas": [0.5, 0.5], "xis": ["yes", 2.0]}},
                  "'model.xis' must be a number, got True"),
    "scheme.censor_frac": ("generate", {"scheme": {"n": 20, "censor_frac": "no"}},
                           "'scheme.censor_frac' must be a number, got False"),
    "fit.tol": ("sweep", {"fit": {"tol": "true"}}, "'fit.tol' must be a number, got True"),
    "sweep.grid": ("sweep", {"sweep": {"variable": "rho", "grid": ["false", "true"]}},
                   "'sweep.grid' must be a number, got False"),
    "soft_labels": ("fit", {"labels": None, "soft_labels": [["yes", "off"], [1.0, 0.5]]},
                    "'soft_labels' must be an array of equal-length numeric arrays"),
}


@pytest.mark.parametrize("key", _BOOLEANS)
def test_boolean_where_a_number_is_expected_is_config_error(tmp_path, capsys, key):
    command, entry, error = _BOOLEANS[key]
    out = tmp_path / "out"
    text = yaml.safe_dump({**_COMPLETE_INPUTS[command], **entry, "out": str(out)}).replace("'", "")
    (tmp_path / "bool.yaml").write_text(text)
    workers = ["--workers", "1"] if command == "sweep" else []
    assert main([command, "--config", str(tmp_path / "bool.yaml"), *workers]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {error}\n"
    assert not out.exists()


def test_number_yaml_reads_as_a_string_is_a_number(tmp_path):
    # YAML 1.1 reads 1e-8, which has no dot, as the string '1e-8'
    (tmp_path / "c.yaml").write_text("data: d.csv\nlabels: l.csv\nfit: {tol: 1e-8}\n")
    assert parse_config(tmp_path / "c.yaml", command="fit").fit_config.tol == 1e-8


_LONG_PLAN = [0, 1, 3, 12, 0, 1] * 2000


@pytest.mark.parametrize("command, scheme", [
    ("generate", {"n": sum(_LONG_PLAN) + len(_LONG_PLAN), "R": _LONG_PLAN}),
    ("generate", {"n": 5, "R": [4]}),
    ("sweep", {"n": 60, "censor_frac": 0.4}),
    ("fit", None)])
def test_manifest_is_json_dumps_indent_2(tmp_path, command, scheme):
    # the plan R is laid out apart from json's indent=2 encoder, which must give the same bytes
    entry = {} if scheme is None else {"scheme": scheme}
    cfg = parse_config(write_config(tmp_path / "c.yaml", {**_COMPLETE_INPUTS[command], **entry}), command=command)
    cfg.out = tmp_path / "out"
    cfg.out.mkdir()
    cli._write_manifest(cfg, {"outcome": "converged"})
    payload = {"version": evidem.__version__, "config": cfg.manifest_dict(), "outcome": "converged"}
    if "seed" in payload["config"]:
        payload["master_seed"] = cfg.seed
    assert (cfg.out / "manifest.json").read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("command, model, rule", [("fit", True, "model"), ("fit", False, "quantile-spread"),
                                                  ("sweep", True, "truth-offset")])
def test_manifest_records_the_resolved_start_rule(tmp_path, command, model, rule):
    out = tmp_path / "out"
    if command == "fit":
        main(generate_args(tmp_path, tmp_path / "gen", n=60, censor=0.4, rho=0.1))
        payload = {"data": str(tmp_path / "gen" / "data.csv"), "labels": str(tmp_path / "gen" / "labels.csv"),
                   "out": str(out)}
        if model:
            payload["model"] = PAPER_MODEL
        cfg_file = write_config(tmp_path / "fit.yaml", payload)
    else:
        cfg_file = sweep_config(tmp_path, out, grid=(0.1,), reps=1, n=40, methods=("uncertain",))
    workers = ["--workers", "1"] if command == "sweep" else []
    assert main([command, "--config", cfg_file, *workers]) in (EXIT_OK, EXIT_NOT_CONVERGED)
    manifest = read_manifest(out / "manifest.json")
    assert manifest["config"]["fit"]["init"] == rule
    assert "init" not in manifest


_FLAG_VALUES = {"--seed": "9", "--n": "30", "--censor-frac": "0.5", "--rho": "0.3", "--reps": "7", "--method": "noisy",
                "--out": "elsewhere", "--workers": "2", "--tol": "1e-6", "--max-iters": "5"}
_TAKES = {"generate": {"--seed", "--n", "--censor-frac", "--rho", "--out"}, "fit": {"--out", "--tol", "--max-iters"},
          "sweep": set(_FLAG_VALUES)}


@pytest.mark.parametrize("flag", _FLAG_VALUES)
@pytest.mark.parametrize("command", _TAKES)
def test_a_command_takes_the_flags_of_the_sections_it_reads(capsys, command, flag):
    assert set(cli._FLAGS) == set(_FLAG_VALUES)
    dest = cli._FLAGS[flag]["dest"]
    assert (flag in _TAKES[command]) == (dest.split(".")[0] in READS[command])
    if flag in _TAKES[command]:
        args = vars(cli.build_parser().parse_args([command, "--config", "c.yaml", flag, _FLAG_VALUES[flag]]))
        assert set(args) == {"command", "config"} | {cli._FLAGS[f]["dest"] for f in _TAKES[command]}
        assert str(args[dest]) == _FLAG_VALUES[flag] or args[dest] == float(_FLAG_VALUES[flag])
    else:
        with pytest.raises(SystemExit) as exit_:
            main([command, flag, _FLAG_VALUES[flag]])
        assert exit_.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: {flag} {_FLAG_VALUES[flag]}\n" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [(command, flag) for command, takes in _TAKES.items()
                                           for flag in _FLAG_VALUES if flag not in takes])
def test_a_flag_a_command_does_not_take_is_reported_with_its_usage(capsys, command, flag):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--config", "c.yaml", flag, _FLAG_VALUES[flag]])
    assert exit_.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"usage: evidem {command} [-h] [--config CONFIG]")
    assert err.endswith(f"evidem {command}: error: unrecognized arguments: {flag} {_FLAG_VALUES[flag]}\n")


_USAGE = {
    "generate": "usage: evidem generate [-h] [--config CONFIG] [--seed SEED] [--n N] [--censor-frac CENSOR_FRAC] "
                "[--rho RHO] [--out OUT]",
    "fit": "usage: evidem fit [-h] [--config CONFIG] [--out OUT] [--tol TOL] [--max-iters MAX_ITERS]",
    "sweep": "usage: evidem sweep [-h] [--config CONFIG] [--seed SEED] [--n N] [--censor-frac CENSOR_FRAC] [--rho RHO] "
             "[--reps REPS] [--method {uncertain,noisy,unknown,all}] [--out OUT] [--workers WORKERS] [--tol TOL] "
             "[--max-iters MAX_ITERS]",
}


@pytest.mark.parametrize("command", _USAGE)
def test_a_flag_shows_its_name_not_its_config_key(capsys, command):
    """The usage line of --help and of a usage error names each value after its flag, or lists its choices."""
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == EXIT_OK
    assert " ".join(capsys.readouterr().out.split("\n\n")[0].split()) == _USAGE[command]
    with pytest.raises(SystemExit) as exit_:
        main([command, "--bogus"])
    assert exit_.value.code == EXIT_CONFIG
    assert " ".join(capsys.readouterr().err.split(f"\nevidem {command}: error:")[0].split()) == _USAGE[command]


# a malformed value of each top-level section, which a command that does not read the section never parses
_MALFORMED = {"seed": -1, "reps": "many", "workers": 0, "methods": ["bogus"], "data": [1, 2], "labels": [1, 2],
              "soft_labels": [["x"]], "scheme": {"n": 100}, "corruption": {"rho": 2}, "fit": {"tol": -1},
              "sweep": {"variable": "bogus", "grid": 3}}


@pytest.mark.parametrize("command, section", [(command, section) for command, reads in READS.items()
                                              for section in config._SCHEMA if section not in reads])
def test_a_section_a_command_does_not_read_is_checked_only_for_unknown_keys(tmp_path, capsys, fit_inputs, command,
                                                                           section):
    for name, data in fit_inputs.items():
        (tmp_path / name).write_bytes(data)
    out = tmp_path / "out"
    model = {"lambdas": [0.5, 0.5], "xis": [1.0, 2.0]}
    complete = {
        "generate": {"model": model, "scheme": {"n": 20, "censor_frac": 0.5}, "seed": 3},
        "fit": {"data": str(tmp_path / "data.csv"), "labels": str(tmp_path / "labels.csv")},
        "sweep": {"model": model, "scheme": {"n": 20, "censor_frac": 0.5}, "reps": 1, "workers": 1,
                  "methods": "uncertain", "sweep": {"variable": "rho", "grid": [0.1]}},
    }

    def run(name, payload):
        shutil.rmtree(out, ignore_errors=True)
        code = main([name, "--config", write_config(tmp_path / "c.yaml", {**payload, "out": str(out)})])
        files = {path.name: path.read_bytes() for path in out.iterdir()} if out.exists() else None
        return code, files, capsys.readouterr()

    # the value is malformed: a command that reads the section rejects it
    reader = next(name for name, reads in READS.items() if section in reads)
    code, files, printed = run(reader, {**complete[reader], section: _MALFORMED[section]})
    assert (code, files) == (EXIT_CONFIG, None) and printed.err.startswith("configuration error")
    without = run(command, complete[command])
    assert without[0] in (EXIT_OK, EXIT_NOT_CONVERGED) and without[1]
    assert run(command, {**complete[command], section: _MALFORMED[section]}) == without
    # its keys are still checked
    if isinstance(_MALFORMED[section], dict):
        assert run(command, {**complete[command], section: {"bogus": 1}})[0] == EXIT_CONFIG


def cpus(monkeypatch, host: int, usable: int | None) -> None:
    """A host of ``host`` CPUs, of which this process may run on ``usable``; at None, ``os.sched_getaffinity`` is absent."""
    monkeypatch.setattr(os, "cpu_count", lambda: host)
    if usable is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(usable)), raising=False)


def test_default_workers_are_the_cpus_this_process_may_run_on(tmp_path, monkeypatch):
    """On one CPU of a host of several, a sweep's default is one worker, which its manifest records; a sweep
    of more fit records than one batch then starts no pool."""
    cpus(monkeypatch, 4, 1)
    monkeypatch.setattr(simulation, "_BATCH_RECORDS", 8)
    monkeypatch.setattr(simulation, "Pool", lambda processes: pytest.fail(f"a pool of {processes} started"))
    assert RunConfig(command="sweep").workers == 1
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", sweep_config(tmp_path, out)]) == EXIT_OK
    assert read_manifest(out / "manifest.json")["config"]["workers"] == 1


def test_default_workers_without_an_affinity_are_the_host_cpus(monkeypatch):
    cpus(monkeypatch, 3, None)
    assert RunConfig(command="sweep").workers == 3


def test_fit_and_generate_manifests_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch):
    manifests = {}
    for count in (1, 4):
        cpus(monkeypatch, count, count)
        run = tmp_path / f"cpus{count}"
        run.mkdir()
        monkeypatch.chdir(run)
        write_config(run / "gen.yaml", {"model": {"lambdas": [0.5, 0.5], "xis": [1.0, 2.0]},
                                        "scheme": {"n": 40, "censor_frac": 0.5}, "seed": 123})
        write_config(run / "fit.yaml", {"data": "gen/data.csv", "labels": "gen/labels.csv"})
        assert main(["generate", "--config", "gen.yaml", "--out", "gen"]) == EXIT_OK
        assert main(["fit", "--config", "fit.yaml", "--out", "fit"]) == EXIT_OK
        manifests[count] = [(run / command / "manifest.json").read_bytes() for command in ("gen", "fit")]
    assert manifests[1] == manifests[4]
    generate, fit_ = (json.loads(text) for text in manifests[1])
    assert set(generate["config"]) == {"command", "seed", "out", "model", "scheme", "corruption"}
    assert set(fit_["config"]) == {"command", "out", "data", "labels", "soft_labels", "model", "fit"}
    assert "master_seed" in generate and "master_seed" not in fit_


# byte strings a mutation may splice in: numbers at and beyond the float range, CSV structure, bad encodings
_SPLICES = [b"1e300", b"1e-320", b"1e400", b"nan", b"-inf", b"-1", b"0", b"0.0", b"99999999999999999999", b"observed",
            b"censored", b",", b"\n", b"\r\n", b'"', b" ", b"\xff\xfe", b"\x00"]


@pytest.fixture(scope="module")
def fit_inputs(tmp_path_factory):
    """The bytes of a generated data.csv and labels.csv of 16 units, a quarter censored, which fit in 11 updates."""
    base = tmp_path_factory.mktemp("fuzz")
    cfg_file = write_config(base / "gen.yaml", {"model": {"lambdas": [0.5, 0.5], "xis": [1.0, 3.0]}, "seed": 2,
                                                "scheme": {"n": 16, "censor_frac": 0.25}, "out": str(base / "gen")})
    assert main(["generate", "--config", cfg_file]) == EXIT_OK
    return {name: (base / "gen" / name).read_bytes() for name in ("data.csv", "labels.csv")}


@st.composite
def mutated(draw, valid):
    """``valid`` with one to four short spans, half of them at a digit, replaced by spliced or random bytes."""
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        digits = [i for i, byte in enumerate(data) if byte in b"0123456789"]
        at = draw(st.sampled_from(digits) if digits and draw(st.booleans()) else st.integers(0, len(data)))
        splice = st.sampled_from(_SPLICES) | st.from_regex(rb"[0-9.eE+-]{1,6}", fullmatch=True) | st.binary(max_size=3)
        data[at:at + draw(st.integers(0, 3))] = draw(splice)
    return bytes(data)


@settings(max_examples=100, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fit_survives_mutated_csv_bytes(tmp_path, fit_inputs, data):
    """Any bytes in data.csv and labels.csv end ``evidem fit`` with an exit code, never an exception,
    under the suite's filter that turns every RuntimeWarning into an error."""
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    changed = data.draw(st.sampled_from([["data.csv"], ["labels.csv"], ["data.csv", "labels.csv"]]))
    for name, valid in fit_inputs.items():
        (work / name).write_bytes(data.draw(mutated(valid), label=name) if name in changed else valid)
    cfg_file = write_config(work / "fit.yaml", {"data": str(work / "data.csv"), "labels": str(work / "labels.csv"),
                                                "out": str(work / "out")})
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        code = main(["fit", "--config", cfg_file])
    assert code in {EXIT_OK, EXIT_CONFIG, EXIT_NOT_CONVERGED, EXIT_DEGENERATE, EXIT_IO}
