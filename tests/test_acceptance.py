"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The Monte-Carlo
criteria (8 and 9) pin the master seed below; the whole suite is
deterministic and takes a couple of minutes on one core.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
import yaml
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.stats import kstest

from evidem.censoring import CensoringScheme, conventional_scheme, run_life_test
from evidem.cli import EXIT_OK, main
from evidem.estimator import (
    E2MConfig,
    LabelMode,
    SoftLabeledDataset,
    e_step,
    fit,
    m_step,
    make_soft_labels,
)
from evidem.rayleigh import (
    MixtureParams,
    cdf,
    pdf,
    quantile,
    sample_labeled,
    survival,
    truncated_second_moment,
)
from evidem.simulation import ExperimentConfig, SweepSpec, run_sweep
from helpers import (
    classical_censored_em,
    golden_section_max,
    max_weighted_log_simplex,
    random_soft_instance,
)
from oracles import (
    ContourFunction,
    Frame,
    ProbabilityVector,
    bayes_contour_combine,
    bayesian,
    consonant_from_contour,
    contour_of,
    dempster_combine,
)

MASTER_SEED = 100
TRUTH = MixtureParams(np.array([1, 1, 1]) / 3, np.array([4.0, 0.5, 0.8]))
RHO_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
N_GRID = (100, 200, 300, 400, 500, 800)


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:2d} [{name}]: FAIL")
        raise
    print(f"ACCEPTANCE {num:2d} [{name}]: PASS")


def base_experiment():
    return ExperimentConfig(
        true_params=TRUTH,
        n=500,
        censor_frac=0.4,
        rho=0.1,
        sd=0.2,
        init="truth-offset",
        fit_config=E2MConfig(),
    )


@pytest.fixture(scope="module")
def figure1_result():
    spec = SweepSpec("rho", RHO_GRID, 20, base_experiment())
    return run_sweep(spec, master_seed=MASTER_SEED)


@pytest.fixture(scope="module")
def figure2_result():
    spec = SweepSpec("n", N_GRID, 20, base_experiment(), methods=(LabelMode.UNCERTAIN,))
    return run_sweep(spec, master_seed=MASTER_SEED)


def test_criterion_01_ascent_property():
    with criterion(1, "ascent property"):
        rng = np.random.default_rng(MASTER_SEED)
        start = time.perf_counter()
        for _ in range(100):
            soft, _, init = random_soft_instance(rng, n_lo=20, n_hi=200, p_choices=(2, 3))
            _, trace = fit(soft, init, E2MConfig(max_iters=200))
            g = trace.gll_values
            assert np.all(np.diff(g) >= -1e-10 * np.abs(g[:-1])), "log-likelihood decreased"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_02_em_equivalence_oracle():
    with criterion(2, "EM equivalence under vacuous labels"):
        rng = np.random.default_rng(MASTER_SEED + 1)
        for _ in range(20):
            n = int(rng.integers(20, 61))
            p = int(rng.choice([2, 3]))
            truth = MixtureParams(rng.dirichlet(np.full(p, 4.0)), rng.uniform(0.5, 2.5, size=p))
            times, labels = sample_labeled(truth, n, rng)
            J = int(rng.integers(max(2, n // 2), n + 1))
            ds = run_life_test(times, labels, conventional_scheme(n, J), rng)
            soft = SoftLabeledDataset(ds, np.ones((n, p)))
            init = MixtureParams(np.full(p, 1.0 / p), np.linspace(0.8, 1.6, p))
            n_updates = 25
            _, trace = fit(soft, init, E2MConfig(max_iters=n_updates, tol=1e-300))
            oracle = classical_censored_em(
                ds.y_star.tolist(), ds.observed.tolist(), init.lambdas, init.xis, n_updates
            )
            for k, (lam_o, xi_o) in enumerate(oracle, start=1):
                got = trace.iterates[k][0]
                assert_allclose(got.lambdas, lam_o, rtol=1e-12, atol=1e-12)
                assert_allclose(got.xis, xi_o, rtol=1e-12, atol=1e-12)


def test_criterion_03_complete_data_mle():
    with criterion(3, "complete-data MLE in one step"):
        rng = np.random.default_rng(MASTER_SEED + 2)
        for _ in range(10):
            n = int(rng.integers(20, 80))
            p = int(rng.choice([2, 3]))
            truth = MixtureParams(rng.dirichlet(np.full(p, 4.0)), rng.uniform(0.5, 3.0, size=p))
            times, labels = sample_labeled(truth, n, rng)
            if len(np.unique(labels)) < p:
                continue
            ds = run_life_test(times, labels, CensoringScheme(n, tuple([0] * n)), rng)
            soft = SoftLabeledDataset(
                ds, make_soft_labels(LabelMode.NOISY, p, hard_labels=ds.true_label)
            )
            start = MixtureParams(np.full(p, 1.0 / p), np.full(p, 1.0))
            est = m_step(soft, e_step(soft, start), start)
            for z in range(p):
                members = ds.true_label == z
                nz = int(members.sum())
                assert_allclose(est.lambdas[z], nz / n, rtol=1e-12)
                assert_allclose(
                    est.xis[z], math.sqrt(2 * nz / np.sum(ds.y_star[members] ** 2)), rtol=1e-12
                )


def test_criterion_04_m_step_optimality_oracle():
    with criterion(4, "M-step optimality"):
        rng = np.random.default_rng(MASTER_SEED + 3)
        for _ in range(50):
            soft, _, params = random_soft_instance(rng, n_lo=5, n_hi=12, p_choices=(2, 3))
            p = soft.n_components
            W = e_step(soft, params)
            new = m_step(soft, W, params)
            y = soft.data.y_star
            obs = soft.data.observed
            tsm = y[:, None] ** 2 + 2.0 / params.xis[None, :] ** 2

            def q_xi(z, xi):
                total = 0.0
                for j in range(soft.data.n):
                    second = y[j] ** 2 if obs[j] else tsm[j, z]
                    total += W[j, z] * (2.0 * math.log(xi) - 0.5 * xi**2 * second)
                return total

            for z in range(p):
                best = golden_section_max(lambda v: q_xi(z, v), 1e-3, 50.0)
                assert_allclose(new.xis[z], best, rtol=1e-6)
            lam_best = max_weighted_log_simplex(W.sum(axis=0))
            assert_allclose(new.lambdas, lam_best, rtol=1e-6, atol=1e-8)


def test_criterion_05_combination_rule_oracle():
    with criterion(5, "combination-rule oracle"):
        rng = np.random.default_rng(MASTER_SEED + 4)
        for _ in range(1000):
            p = int(rng.integers(1, 5))
            frame = Frame(p)
            probs = rng.dirichlet(np.ones(p))
            plv = rng.random(p)
            plv[rng.integers(p)] = 1.0
            pv = ProbabilityVector(frame, probs)
            cf = ContourFunction(frame, plv)
            fast, k_fast = bayes_contour_combine(pv, cf)
            full, k_full = dempster_combine(bayesian(pv), consonant_from_contour(cf))
            assert_allclose(fast.p, contour_of(full).pl, atol=1e-12)
            assert_allclose(k_fast, k_full, atol=1e-12)
            assert_allclose(k_fast, 1.0 - float(np.sum(probs * plv)), atol=1e-12)


def test_criterion_06_distributional_identities():
    with criterion(6, "distributional identities"):
        rng = np.random.default_rng(MASTER_SEED + 5)
        for _ in range(100):
            xi = rng.uniform(0.3, 3.0)
            x = quantile(xi, rng.uniform(0.01, 0.99))
            mass, _ = quad(lambda t: pdf(xi, t), 0, x)
            assert_allclose(survival(xi, x), 1.0 - mass, rtol=1e-6)
            y = rng.uniform(0.0, 2.0 / xi)
            num, _ = quad(lambda t: t * t * pdf(xi, t), y, np.inf)
            assert_allclose(truncated_second_moment(xi, y), num / survival(xi, y), rtol=1e-6)
            u = rng.uniform(0.02, 0.98)
            oracle_x = brentq(
                lambda t: quad(lambda s: pdf(xi, s), 0, t)[0] - u, 1e-9, 30.0 / xi, xtol=1e-12
            )
            assert_allclose(quantile(xi, u), oracle_x, rtol=1e-6)
        xi = 1.3
        times, _ = sample_labeled(MixtureParams(np.array([1.0]), np.array([xi])), 5000, rng)
        stat = kstest(times, lambda t: cdf(xi, t))
        assert stat.pvalue > 0.01


def test_criterion_07_censoring_sampler():
    with criterion(7, "censoring sampler equivalences"):
        rng = np.random.default_rng(MASTER_SEED + 6)
        for _ in range(100):
            n = int(rng.integers(5, 60))
            J = int(rng.integers(1, n + 1))
            times = rng.uniform(0.05, 10.0, size=n)
            ds = run_life_test(
                times, np.zeros(n, dtype=int), conventional_scheme(n, J), rng
            )
            srt = np.sort(times)
            assert np.array_equal(ds.y_star[ds.observed], srt[:J])
            assert np.all(ds.y_star[~ds.observed] == srt[J - 1])
            assert set(ds.item_id[ds.observed].tolist()) == set(np.argsort(times)[:J].tolist())
        for _ in range(20):
            n = int(rng.integers(2, 40))
            times = rng.uniform(0.05, 10.0, size=n)
            ds = run_life_test(
                times, np.zeros(n, dtype=int), CensoringScheme(n, tuple([0] * n)), rng
            )
            assert np.array_equal(ds.y_star, np.sort(times))
            assert np.all(ds.observed)


def test_criterion_08_figure1_trends(figure1_result):
    with criterion(8, "error-probability sweep trends"):
        report = figure1_result.report
        assert sum(r.failed for r in figure1_result.rows) == 0
        xi_names = ("xi_1", "xi_2", "xi_3")
        # (a) corrupted-label methods degrade from rho = 0 to rho = 0.5
        for method in (LabelMode.NOISY, LabelMode.UNCERTAIN):
            lo = np.mean([report.cell(method, 0.0, nm).mean for nm in xi_names])
            hi = np.mean([report.cell(method, 0.5, nm).mean for nm in xi_names])
            assert hi > lo, f"{method.value}: {hi} <= {lo}"
        # (b) soft labels dominate hard noisy labels where noise is heavy
        for rho in (0.3, 0.4, 0.5):
            for nm in ("xi_1", "xi_3"):
                u = report.cell(LabelMode.UNCERTAIN, rho, nm).mean
                v = report.cell(LabelMode.NOISY, rho, nm).mean
                assert u <= v, f"rho={rho} {nm}: uncertain {u} > noisy {v}"
        # (c) mild soft labels beat no labels
        for nm in ("xi_1", "xi_3"):
            u = report.cell(LabelMode.UNCERTAIN, 0.1, nm).mean
            v = report.cell(LabelMode.UNKNOWN, 0.1, nm).mean
            assert u <= v, f"{nm}: uncertain {u} > unknown {v}"


def test_criterion_09_figure2_trends(figure2_result):
    with criterion(9, "sample-size sweep trends"):
        report = figure2_result.report
        assert sum(r.failed for r in figure2_result.rows) == 0
        for nm in ("xi_1", "xi_2", "xi_3"):
            _, mean, _ = report.curve(LabelMode.UNCERTAIN, nm)
            violations = [
                (mean[i + 1] - mean[i]) / mean[i]
                for i in range(len(mean) - 1)
                if mean[i + 1] > mean[i]
            ]
            assert len(violations) <= 1, f"{nm}: {len(violations)} increases {violations}"
            assert all(v <= 0.2 for v in violations), f"{nm}: increase {violations} > 20%"


def test_criterion_10_sweep_determinism(tmp_path):
    with criterion(10, "seeded determinism across workers"):
        payload = {
            "model": {"lambdas": [1 / 3, 1 / 3, 1 / 3], "xis": [4.0, 0.5, 0.8]},
            "scheme": {"n": 60, "censor_frac": 0.4},
            "corruption": {"rho": 0.1},
            "methods": ["uncertain", "noisy"],
            "reps": 2,
            "seed": MASTER_SEED,
            "sweep": {"variable": "rho", "grid": [0.1, 0.3]},
        }
        outputs = []
        for name, workers in (("a", 1), ("b", 2), ("c", 1)):
            out = tmp_path / name
            cfg = dict(payload, out=str(out))
            cfg_file = tmp_path / f"{name}.yaml"
            cfg_file.write_text(yaml.safe_dump(cfg))
            assert main(["sweep", "--config", str(cfg_file), "--workers", str(workers)]) == EXIT_OK
            outputs.append((out / "results.csv").read_bytes())
        assert outputs[0] == outputs[1], "results differ across worker counts"
        assert outputs[0] == outputs[2], "results differ across reruns"
