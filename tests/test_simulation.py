import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from evidem.estimator import E2MConfig, LabelMode
from evidem.rayleigh import MixtureParams
from evidem.simulation import (
    METHOD_ORDER,
    CorruptionConfig,
    ExperimentConfig,
    SweepSpec,
    ReplicationResult,
    aggregate_report,
    align_to_truth,
    beta_shape_params,
    corrupt_labels,
    draw_error_probs,
    effective_sd,
    rabias,
    run_cell,
    run_replication,
    run_sweep,
    substream,
    truth_offset_init,
)

TRUTH = MixtureParams(np.array([1, 1, 1]) / 3, np.array([4.0, 0.5, 0.8]))


def small_config(**kwargs):
    defaults = dict(
        true_params=TRUTH,
        n=120,
        censor_frac=0.4,
        rho=0.1,
        sd=0.2,
        init="truth-offset",
        fit_config=E2MConfig(),
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestErrorProbs:
    def test_zero_sd_is_degenerate(self, rng):
        q = draw_error_probs(CorruptionConfig(0.3, sd=0.0), 50, rng)
        assert np.all(q == 0.3)

    def test_moment_matched_shapes(self):
        alpha, beta = beta_shape_params(0.5, 0.2)
        assert_allclose(alpha, 2.625, rtol=1e-12)
        assert_allclose(beta, 2.625, rtol=1e-12)

    def test_sample_mean_clt_bound(self, rng):
        n = 50_000
        q = draw_error_probs(CorruptionConfig(0.3, sd=0.2), n, rng)
        assert np.all((q >= 0) & (q <= 1))
        assert abs(q.mean() - 0.3) < 3 * 0.2 / math.sqrt(n)

    def test_infeasible_sd_clamped(self, rng):
        # a Beta with mean 0.01 cannot have sd 0.2
        sd_eff = effective_sd(0.01, 0.2)
        assert sd_eff < 0.2
        assert sd_eff**2 < 0.01 * 0.99
        q = draw_error_probs(CorruptionConfig(0.01, sd=0.2), 2000, rng)
        assert np.all((q >= 0) & (q <= 1))

    def test_rho_zero_gives_all_zero(self, rng):
        q = draw_error_probs(CorruptionConfig(0.0, sd=0.2), 10, rng)
        assert np.all(q == 0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CorruptionConfig(1.2)
        with pytest.raises(ValueError):
            CorruptionConfig(0.5, sd=-0.1)


class TestCorruptLabels:
    def test_no_error_keeps_labels(self, rng):
        z = rng.integers(0, 3, size=40)
        z_star, plm = corrupt_labels(z, np.zeros(40), 3, rng)
        assert np.array_equal(z_star, z)
        expect = np.zeros((40, 3))
        expect[np.arange(40), z] = 1.0
        assert_allclose(plm, expect)

    def test_full_error_gives_uniform_rows(self, rng):
        z = rng.integers(0, 3, size=40)
        _, plm = corrupt_labels(z, np.ones(40), 3, rng)
        assert_allclose(plm, np.full((40, 3), 1 / 3))

    def test_reference_row_value(self, rng):
        # q = 0.3, p = 3, noisy label = second component
        z_star, plm = corrupt_labels(np.array([1]), np.array([0.3]), 3, rng)
        expect = np.full(3, 0.1)
        expect[z_star[0]] += 0.7
        assert_allclose(plm[0], expect, rtol=1e-12)

    @given(st.floats(min_value=0.0, max_value=0.99), st.integers(min_value=2, max_value=5))
    @settings(max_examples=80, deadline=None)
    def test_row_structure(self, q, p):
        rng = np.random.default_rng(3)
        _, plm = corrupt_labels(np.zeros(1, dtype=int), np.array([q]), p, rng)
        row = plm[0]
        assert_allclose(row.max() - row.min(), 1 - q, atol=1e-12)
        assert np.sum(np.isclose(row, q / p + 1 - q)) >= 1
        assert np.sum(np.isclose(row, q / p)) >= p - 1


class TestRABias:
    def test_exact_estimate_is_zero(self):
        assert rabias(1.0, 1.0) == 0.0

    def test_simple_values(self):
        assert_allclose(rabias(1.1, 1.0), 0.1)
        assert rabias(0.0, 4.0) == 1.0

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            rabias(1.0, 0.0)


class TestAlignment:
    def test_recovers_permutation(self):
        est = MixtureParams(np.array([0.2, 0.5, 0.3]), np.array([0.81, 3.9, 0.52]))
        aligned = align_to_truth(est, TRUTH)
        assert_allclose(aligned.xis, [3.9, 0.52, 0.81])
        assert_allclose(aligned.lambdas, [0.5, 0.3, 0.2])

    def test_identity_when_already_aligned(self):
        est = MixtureParams(np.array([0.4, 0.3, 0.3]), np.array([4.1, 0.49, 0.83]))
        aligned = align_to_truth(est, TRUTH)
        assert_allclose(aligned.xis, est.xis)


class TestReplication:
    def test_deterministic_under_substream(self):
        cfg = small_config()
        a = run_replication(cfg, LabelMode.UNCERTAIN, substream(99, 0, 0, 0))
        b = run_replication(cfg, LabelMode.UNCERTAIN, substream(99, 0, 0, 0))
        assert not a.failed and not b.failed
        assert a.gll == b.gll
        assert np.array_equal(a.lambdas, b.lambdas)
        assert np.array_equal(a.xis, b.xis)

    def test_zero_error_probability_equates_uncertain_and_noisy(self):
        cfg = small_config(rho=0.0, sd=0.0)
        a = run_replication(cfg, LabelMode.UNCERTAIN, substream(5, 0, 0, 0))
        b = run_replication(cfg, LabelMode.NOISY, substream(5, 1, 0, 0))
        # different substream keys would give different datasets; force the
        # same one to compare the methods on identical inputs
        b = run_replication(cfg, LabelMode.NOISY, substream(5, 0, 0, 0))
        assert np.array_equal(a.xis, b.xis)
        assert np.array_equal(a.lambdas, b.lambdas)

    def test_finite_outputs(self):
        cfg = small_config()
        for method in LabelMode:
            row = run_replication(cfg, method, substream(17, 0, 0, 0))
            assert not row.failed
            assert row.converged
            assert np.isfinite(row.gll)
            assert np.all(row.rabias_xis >= 0)

    def test_clean_labels_recover_truth(self):
        # reference setup with exact labels: estimates land near the truth
        cfg = small_config(n=500, rho=0.0, sd=0.0)
        row = run_replication(cfg, LabelMode.UNCERTAIN, substream(8, 0, 0, 0))
        assert row.converged
        assert np.all(row.rabias_xis < 0.15)


class TestCell:
    @pytest.mark.parametrize("method", list(LabelMode))
    def test_rows_equal_single_replications(self, method):
        cfg = small_config(n=80)

        def rngs():
            return [substream(3, 0, METHOD_ORDER.index(method), rep) for rep in range(3)]

        cell = run_cell(cfg, method, rngs())
        assert [row.rep for row in cell] == [0, 1, 2]
        for rep, (row, rng) in enumerate(zip(cell, rngs())):
            solo = run_replication(cfg, method, rng, rep=rep)
            assert (row.iterations, row.converged, row.failed, row.gll) == (
                solo.iterations, solo.converged, solo.failed, solo.gll)
            assert np.array_equal(row.xis, solo.xis) and np.array_equal(row.rabias_lambdas, solo.rabias_lambdas)

    def test_report_needs_rows_in_sweep_order(self):
        cfg = small_config(n=60)
        spec = SweepSpec("rho", (0.1, 0.3), 1, cfg, methods=(LabelMode.UNCERTAIN,))
        rows = run_sweep(spec, master_seed=5).rows
        with pytest.raises(ValueError, match="not in sweep order"):
            aggregate_report(spec, rows[::-1])
        with pytest.raises(ValueError, match="expected 2 rows"):
            aggregate_report(spec, rows[:1])


class TestSweep:
    def test_single_cell_report_equals_row(self):
        cfg = small_config(n=80)
        spec = SweepSpec("rho", (0.1,), 1, cfg, methods=(LabelMode.UNCERTAIN,))
        result = run_sweep(spec, master_seed=11)
        assert len(result.rows) == 1
        row = result.rows[0]
        for z in range(3):
            cell = result.report.cell(LabelMode.UNCERTAIN, 0.1, f"xi_{z + 1}")
            assert_allclose(cell.mean, row.rabias_xis[z])
            assert cell.sd == 0.0
            assert cell.n_success == 1 and cell.n_failed == 0

    def test_rows_independent_of_method_subset(self):
        cfg = small_config(n=80)
        solo = run_sweep(SweepSpec("rho", (0.1,), 2, cfg, methods=(LabelMode.NOISY,)), master_seed=4)
        both = run_sweep(
            SweepSpec("rho", (0.1,), 2, cfg, methods=(LabelMode.UNCERTAIN, LabelMode.NOISY)), master_seed=4
        )
        noisy_solo = [r for r in solo.rows if r.method is LabelMode.NOISY]
        noisy_both = [r for r in both.rows if r.method is LabelMode.NOISY]
        for a, b in zip(noisy_solo, noisy_both):
            assert a.gll == b.gll
            assert np.array_equal(a.xis, b.xis)

    def test_sweep_determinism(self):
        cfg = small_config(n=60)
        spec = SweepSpec("n", (60, 90), 2, cfg, methods=(LabelMode.UNCERTAIN,))
        r1 = run_sweep(spec, master_seed=2)
        r2 = run_sweep(spec, master_seed=2)
        for a, b in zip(r1.rows, r2.rows):
            assert a.grid_value == b.grid_value and a.rep == b.rep
            assert a.gll == b.gll

    def test_failure_accounting_and_reliability(self):
        cfg = small_config(n=40)
        spec = SweepSpec("rho", (0.2,), 4, cfg, methods=(LabelMode.UNCERTAIN,))
        rows = [
            ReplicationResult("rho", 0.2, LabelMode.UNCERTAIN, rep=k, failed=True, error="ComponentStarvedError: x")
            for k in range(3)
        ]
        ok = run_replication(cfg, LabelMode.UNCERTAIN, substream(1, 0, 0, 3), grid_value=0.2, rep=3)
        report = aggregate_report(spec, rows + [ok])
        cell = report.cell(LabelMode.UNCERTAIN, 0.2, "xi_1")
        assert cell.n_failed == 3
        assert cell.n_success == 1
        assert not cell.reliable
        assert cell.n_failed + cell.n_success == spec.reps

    def test_spec_validation(self):
        cfg = small_config()
        with pytest.raises(ValueError):
            SweepSpec("bad", (0.1,), 1, cfg)
        with pytest.raises(ValueError):
            SweepSpec("rho", (), 1, cfg)
        with pytest.raises(ValueError):
            SweepSpec("rho", (0.1,), 0, cfg)


class TestInitRule:
    def test_truth_offset(self):
        init = truth_offset_init(TRUTH)
        assert_allclose(init.lambdas, TRUTH.lambdas)
        assert_allclose(init.xis, TRUTH.xis - 0.01)
