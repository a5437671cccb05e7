import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from evidem import estimator
from evidem.censoring import CensoredDataset, CensoringScheme, conventional_scheme, run_life_test
from evidem.estimator import (
    ComponentStarvedError,
    DegenerateLikelihoodError,
    E2MConfig,
    EstimationError,
    LabelMode,
    SoftLabeledDataset,
    fit,
    fit_batch,
    make_soft_labels,
    quantile_spread_init,
    read_soft_labels_csv,
    write_soft_labels_csv,
)
from evidem.rayleigh import MixtureParams, sample_labeled
from evidem.simulation import CorruptionConfig, corrupt_labels, draw_error_probs
from helpers import (
    classical_censored_em,
    e_step,
    generalized_loglik,
    golden_section_max,
    history,
    m_step,
    max_weighted_log_simplex,
    random_soft_instance,
    reference_e2m,
    starving_problem,
    toy_dataset,
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
    pdf,
    reference_life_test,
    survival,
)


class TestGeneralizedLoglik:
    def test_vacuous_labels_give_mixture_loglik(self, rng):
        params = MixtureParams(np.array([0.4, 0.6]), np.array([0.8, 1.6]))
        times, _ = sample_labeled(params, 40, rng)
        ds = toy_dataset(np.sort(times), np.ones(40, dtype=bool))
        soft = SoftLabeledDataset(ds, np.ones((40, 2)))
        expected = float(
            np.log(0.4 * pdf(0.8, ds.y_star) + 0.6 * pdf(1.6, ds.y_star)).sum()
        )
        assert_allclose(generalized_loglik(soft, params), expected, rtol=1e-12)

    def test_certain_labels_give_supervised_loglik(self, rng):
        params = MixtureParams(np.array([0.4, 0.6]), np.array([0.8, 1.6]))
        times, labels = sample_labeled(params, 30, rng)
        order = np.argsort(times)
        times, labels = times[order], labels[order]
        ds = toy_dataset(times, np.ones(30, dtype=bool), labels)
        soft = SoftLabeledDataset(ds, make_soft_labels(LabelMode.NOISY, 2, hard_labels=labels))
        expected = float(
            sum(math.log(params.lambdas[z] * pdf(params.xis[z], y)) for y, z in zip(times, labels))
        )
        assert_allclose(generalized_loglik(soft, params), expected, rtol=1e-12)

    def test_mixed_toy_brute_force(self):
        # 3 observed + 1 censored record, evaluated term by term in plain
        # arithmetic
        times = np.array([0.5, 0.9, 1.4, 1.4])
        observed = np.array([True, True, True, False])
        plm = np.array([[1.0, 0.3], [0.2, 1.0], [0.7, 0.7], [1.0, 0.4]])
        ds = toy_dataset(times, observed)
        soft = SoftLabeledDataset(ds, plm)
        params = MixtureParams(np.array([0.35, 0.65]), np.array([2.2, 0.6]))
        expected = 0.0
        for j in range(4):
            term = 0.0
            for z in range(2):
                if observed[j]:
                    like = params.xis[z] ** 2 * times[j] * math.exp(-0.5 * params.xis[z] ** 2 * times[j] ** 2)
                else:
                    like = math.exp(-0.5 * params.xis[z] ** 2 * times[j] ** 2)
                term += params.lambdas[z] * like * plm[j, z]
            expected += math.log(term)
        assert_allclose(generalized_loglik(soft, params), expected, rtol=1e-12)

    def test_degenerate_record_warns_and_returns_neg_inf(self):
        ds = toy_dataset([1.0], [True])
        soft = SoftLabeledDataset(ds, np.array([[1.0, 0.0]]))
        params = MixtureParams(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(DegenerateLikelihoodError, match=r"record\(s\) \[0\]"):
            generalized_loglik(soft, params)


class TestEStep:
    def test_vacuous_rows_are_classical_responsibilities(self, rng):
        params = MixtureParams(np.array([0.3, 0.7]), np.array([0.9, 1.8]))
        times, _ = sample_labeled(params, 25, rng)
        observed = np.ones(25, dtype=bool)
        observed[20:] = False
        times = np.sort(times)
        times[20:] = times[19]  # censor the tail at the last failure
        ds = toy_dataset(times, observed)
        soft = SoftLabeledDataset(ds, np.ones((25, 2)))
        W = e_step(soft, params)
        for j in range(25):
            if observed[j]:
                num = params.lambdas * pdf(params.xis, times[j])
            else:
                num = params.lambdas * survival(params.xis, times[j])
            assert_allclose(W[j], num / num.sum(), rtol=1e-12)

    def test_certain_label_dominates(self, rng):
        params = MixtureParams(np.array([0.5, 0.5]), np.array([1.0, 2.0]))
        labels = np.array([1, 0, 1])
        ds = toy_dataset([0.4, 0.8, 1.5], [True, True, True], labels)
        soft = SoftLabeledDataset(ds, make_soft_labels(LabelMode.NOISY, 2, hard_labels=labels))
        W = e_step(soft, params)
        expect = np.zeros((3, 2))
        expect[np.arange(3), labels] = 1.0
        assert_allclose(W, expect)

    def test_single_censored_record_hand_value(self):
        # base is survival-weighted: (e^-0.5 * 0.5 * 1, e^-2 * 0.5 * 0.5)
        ds = toy_dataset([1.0, 1.0], [True, False])
        plm = np.array([[1.0, 1.0], [1.0, 0.5]])
        soft = SoftLabeledDataset(ds, plm)
        params = MixtureParams(np.array([0.5, 0.5]), np.array([1.0, 2.0]))
        W = e_step(soft, params)
        assert_allclose(W[1], [0.8996324353165482, 0.10036756468345168], rtol=1e-12)

    def test_rows_match_belief_combination(self, rng):
        # the vectorized E-step equals the contour fast path, which in turn
        # equals full power-set combination with a consonant realization
        soft, _, params = random_soft_instance(rng, n_lo=12, n_hi=12)
        p = soft.n_components
        frame = Frame(p)
        W = e_step(soft, params)
        for j in range(soft.data.n):
            y = soft.data.y_star[j]
            if soft.data.observed[j]:
                base = params.lambdas * pdf(params.xis, y)
            else:
                base = params.lambdas * survival(params.xis, y)
            pv = ProbabilityVector(frame, base / base.sum())
            plv = soft.pl[j]
            fast, _ = bayes_contour_combine(pv, ContourFunction(frame, plv))
            assert_allclose(W[j], fast.p, rtol=1e-9, atol=1e-12)
            scaled = ContourFunction(frame, plv / plv.max())
            full, _ = dempster_combine(bayesian(pv), consonant_from_contour(scaled))
            assert_allclose(W[j], contour_of(full).pl, rtol=1e-9, atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        soft, _, params = random_soft_instance(rng)
        W = e_step(soft, params)
        assert_allclose(W.sum(axis=1), 1.0, atol=1e-12)

    def test_total_conflict_row_raises(self):
        ds = toy_dataset([1.0], [True])
        soft = SoftLabeledDataset(ds, np.array([[1.0, 0.0]]))
        params = MixtureParams(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(DegenerateLikelihoodError, match="0"):
            e_step(soft, params)


class TestMStep:
    def test_hard_labels_no_censoring_give_complete_data_mle(self, rng):
        params = MixtureParams(np.array([0.5, 0.5]), np.array([0.7, 2.0]))
        times, labels = sample_labeled(params, 60, rng)
        order = np.argsort(times)
        times, labels = times[order], labels[order]
        ds = toy_dataset(times, np.ones(60, dtype=bool), labels)
        soft = SoftLabeledDataset(ds, make_soft_labels(LabelMode.NOISY, 2, hard_labels=labels))
        W = np.zeros((60, 2))
        W[np.arange(60), labels] = 1.0
        new = m_step(soft, W, params)
        for z in range(2):
            nz = int((labels == z).sum())
            assert_allclose(new.lambdas[z], nz / 60, rtol=1e-12)
            assert_allclose(new.xis[z], math.sqrt(2 * nz / np.sum(times[labels == z] ** 2)), rtol=1e-12)

    def test_no_information_fixed_point(self):
        # records censored at a vanishing time carry only the truncated
        # moment 2 / xi_k^2, which reproduces xi_k exactly in the limit
        t = 1e-8
        ds = toy_dataset([t, t, t], [True, False, False])
        soft = SoftLabeledDataset(ds, np.ones((3, 2)))
        params = MixtureParams(np.array([0.5, 0.5]), np.array([1.3, 0.6]))
        W = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        new = m_step(soft, W, params)
        assert_allclose(new.xis[1], params.xis[1], rtol=1e-12)

    def test_matches_numerical_q_maximization(self, rng):
        # golden-section per xi plus simplex-constrained search for the
        # weights, on the explicit pseudo-likelihood expansion
        for _ in range(6):
            soft, _, params = random_soft_instance(rng, n_lo=6, n_hi=10, p_choices=(2,))
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

            for z in range(2):
                best = golden_section_max(lambda v: q_xi(z, v), 1e-3, 50.0)
                assert_allclose(new.xis[z], best, rtol=1e-6)
            lam_best = max_weighted_log_simplex(W.sum(axis=0))
            assert_allclose(new.lambdas, lam_best, rtol=1e-6, atol=1e-8)

    def test_starved_component_raises(self):
        ds = toy_dataset([0.5, 1.0], [True, True])
        soft = SoftLabeledDataset(ds, np.ones((2, 2)))
        params = MixtureParams(np.array([0.5, 0.5]), np.array([1.0, 2.0]))
        W = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(Exception, match="component"):
            m_step(soft, W, params)


class TestFit:
    def test_single_component_censored_mle(self, rng):
        params = MixtureParams(np.array([1.0]), np.array([1.2]))
        times, labels = sample_labeled(params, 80, rng)
        scheme = conventional_scheme(80, 50)
        ds = run_life_test(times, labels, scheme, rng)
        soft = SoftLabeledDataset(ds, np.ones((80, 1)))
        est, trace = fit(soft, MixtureParams(np.array([1.0]), np.array([0.5])), E2MConfig(tol=1e-13))
        assert trace.converged
        closed_form = math.sqrt(2 * 50 / np.sum(ds.y_star**2))
        # parameter precision is about the square root of the gll tolerance
        assert_allclose(est.xis[0], closed_form, rtol=1e-6)
        g = trace.gll_values
        assert np.all(np.diff(g) >= -1e-10 * np.abs(g[:-1]))

    def test_vacuous_labels_match_plain_em_per_iteration(self, rng):
        for _ in range(5):
            n = int(rng.integers(20, 60))
            truth = MixtureParams(rng.dirichlet([4.0, 4.0]), rng.uniform(0.6, 2.0, size=2))
            times, labels = sample_labeled(truth, n, rng)
            J = int(rng.integers(max(2, n // 2), n + 1))
            ds = run_life_test(times, labels, conventional_scheme(n, J), rng)
            soft = SoftLabeledDataset(ds, np.ones((n, 2)))
            init = MixtureParams(np.array([0.5, 0.5]), np.array([0.8, 1.5]))
            n_updates = 25
            _, trace = fit(soft, init, E2MConfig(max_iters=n_updates, tol=1e-300))
            oracle = classical_censored_em(
                ds.y_star.tolist(), ds.observed.tolist(), init.lambdas, init.xis, n_updates
            )
            for k, (lam_o, xi_o) in enumerate(oracle, start=1):
                assert_allclose(trace.lambdas[k], lam_o, rtol=1e-12, atol=1e-12)
                assert_allclose(trace.xis[k], xi_o, rtol=1e-12, atol=1e-12)

    def test_monotone_gll_random_instances(self, rng):
        for _ in range(10):
            soft, _, init = random_soft_instance(rng, n_lo=20, n_hi=80)
            _, trace = fit(soft, init, E2MConfig(max_iters=150))
            g = trace.gll_values
            assert np.all(np.diff(g) >= -1e-10 * np.abs(g[:-1]))

    def test_fixed_point_has_zero_gradient(self, rng):
        soft, _, init = random_soft_instance(rng, n_lo=40, n_hi=60, p_choices=(2,), censor_fracs=(0.4,))
        est, trace = fit(soft, init, E2MConfig(max_iters=20000, tol=1e-14))
        assert trace.converged
        gll_hat = generalized_loglik(soft, est)

        def gll_at(lam, xis):
            return generalized_loglik(soft, MixtureParams(lam, xis))

        for z in range(2):
            h = 1e-6 * est.xis[z]
            hi = est.xis.copy()
            lo = est.xis.copy()
            hi[z] += h
            lo[z] -= h
            deriv = (gll_at(est.lambdas, hi) - gll_at(est.lambdas, lo)) / (2 * h)
            assert abs(deriv * est.xis[z]) <= 1e-4 * abs(gll_hat)
        # simplex direction e_0 - e_1
        h = 1e-7
        shift = np.array([h, -h])
        deriv = (gll_at(est.lambdas + shift, est.xis) - gll_at(est.lambdas - shift, est.xis)) / (2 * h)
        assert abs(deriv) <= 1e-4 * abs(gll_hat)

    def test_scale_coherence(self, rng):
        soft, _, init = random_soft_instance(rng, n_lo=40, n_hi=60, censor_fracs=(0.4,))
        c = 3.7
        ds = soft.data
        scaled_ds = CensoredDataset(
            scheme=ds.scheme,
            item_id=ds.item_id,
            y_star=ds.y_star * c,
            observed=ds.observed,
            censored_at_failure=ds.censored_at_failure,
            true_label=ds.true_label,
        )
        scaled = SoftLabeledDataset(scaled_ds, soft.pl)
        scaled_init = MixtureParams(init.lambdas, init.xis / c)
        est, _ = fit(soft, init, E2MConfig(tol=1e-12))
        est_scaled, _ = fit(scaled, scaled_init, E2MConfig(tol=1e-12))
        assert_allclose(est_scaled.lambdas, est.lambdas, atol=1e-8)
        assert_allclose(est_scaled.xis * c, est.xis, rtol=1e-8)
        assert_allclose(e_step(scaled, est_scaled), e_step(soft, est), atol=1e-8)

    def test_max_iters_one_not_converged(self, rng):
        soft, _, init = random_soft_instance(rng, n_lo=50, n_hi=50)
        _, trace = fit(soft, init, E2MConfig(max_iters=1))
        assert not trace.converged
        assert trace.iterations_used == 1

    def test_degenerate_init_aborts_with_trace(self):
        ds = toy_dataset([1.0], [True])
        soft = SoftLabeledDataset(ds, np.array([[1.0, 0.0]]))
        params = MixtureParams(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(DegenerateLikelihoodError, match=r"record\(s\) \[0\]$"):
            fit(soft, params)
        table, steps = fit_batch([soft], [params])
        assert type(table["error"][0]) is DegenerateLikelihoodError and table["iterations"][0] == 0
        assert len(steps) == 1 and np.isnan(table["gll"][0])

    def test_overflowing_log_likelihood_sum_is_degenerate(self):
        # every record's log-likelihood is finite, about -0.85e308, but three of them sum beyond the float range
        soft = SoftLabeledDataset(toy_dataset([1.3e154] * 3, [True] * 3), np.ones((3, 1)))
        with pytest.raises(DegenerateLikelihoodError, match=r"^generalized log-likelihood is non-finite in the sum"):
            fit(soft, MixtureParams(np.array([1.0]), np.array([1.0])))


XI_POOL = np.array([4.0, 0.5, 0.8, 1.6, 2.5, 1.1])


def labelled_problem(mode, p, plan):
    """75 %-censored data with ``mode`` labels and a start far from the truth.

    The heavy censoring keeps every regime moving for at least 60 updates.
    """
    n = 60 * p
    J = n // 4
    scheme = conventional_scheme(n, J) if plan == "conventional" else CensoringScheme(n, (3,) * J)
    truth = MixtureParams(np.full(p, 1.0 / p), XI_POOL[:p])
    rng = np.random.default_rng(p)
    ds = reference_life_test(*sample_labeled(truth, n, rng), scheme, rng)
    q = draw_error_probs(CorruptionConfig(0.3), n, rng)
    pl = make_soft_labels(mode, p, n, corrupt_labels(ds.true_label, q, p, rng), q)
    return SoftLabeledDataset(ds, pl), MixtureParams(np.full(p, 1.0 / p), 0.3 * XI_POOL[:p])


def kernel_failing_on_pass(on_pass, targets):
    """A ``_Kernel`` whose E-step number ``on_pass`` finds record 0 of each
    dataset in ``targets`` impossible under every component."""

    class Kernel(estimator._Kernel):
        def __init__(self, datasets):
            super().__init__(datasets)
            self.target = np.array([any(ds is t for t in targets) for ds in datasets])
            self.passes = 0

        def keep(self, rows):
            super().keep(rows)
            self.target = self.target[rows]

        def loglik_and_posterior(self, theta):
            self.passes += 1
            if self.passes == on_pass:
                self.log_base[self.target, :, 0] = -np.inf
            return super().loglik_and_posterior(theta)

    return Kernel


def ending_problems():
    """Four problems whose fits in one batch end differently at 30 updates: one converges at the second update,
    one starves at its fifth, one is capped, and the last, ``failing``, finds record 0 impossible at its fourth
    E-step under ``kernel_failing_on_pass(4, [failing])``.  Returns (problems, failing)."""
    times = [0.5, 0.9, 1.4, 2.0, 2.6]
    labels = np.array([0, 1, 0, 1, 0])
    certain = make_soft_labels(LabelMode.NOISY, 2, hard_labels=labels)
    supervised = SoftLabeledDataset(toy_dataset(times, [True] * 5), certain)
    vacuous = SoftLabeledDataset(toy_dataset(times[:4] + [2.0], [True] * 4 + [False]), np.ones((5, 2)))
    failing = SoftLabeledDataset(toy_dataset(times, [True] * 5), np.full((5, 2), 0.5) + 0.4 * np.eye(2)[labels])
    start = MixtureParams(np.array([0.5, 0.5]), np.array([0.8, 1.5]))
    return [(supervised, start), starving_problem(), (vacuous, start), (failing, start)], failing


def assert_is_solo_fit(got, soft, init, config):
    """``got``, a :func:`fit_batch` record, is the outcome of fitting ``soft`` from ``init`` alone."""
    est, trace = fit(soft, init, config)
    assert got["error"] is None and got["iterations"] == trace.iterations_used and got["converged"] == trace.converged
    assert np.array_equal(got["lambdas"], est.lambdas) and np.array_equal(got["xis"], est.xis)
    assert got["gll"] == trace.gll_values[-1]


class TestKernel:
    @pytest.mark.parametrize("plan", ["conventional", "progressive"])
    @pytest.mark.parametrize("p", [2, 3, 6])
    @pytest.mark.parametrize("mode", list(LabelMode))
    def test_fit_iterates_match_reference(self, mode, p, plan):
        soft, init = labelled_problem(mode, p, plan)
        n_updates = 60
        _, trace = fit(soft, init, E2MConfig(max_iters=n_updates, tol=1e-300))
        assert trace.iterations_used == n_updates
        glls, params = reference_e2m(soft.data.y_star, soft.data.observed, soft.pl, init.lambdas, init.xis, n_updates)
        assert_allclose(trace.gll_values, glls, rtol=1e-12)
        for k, (lam, xi) in enumerate(params, start=1):
            assert_allclose(trace.lambdas[k], lam, rtol=1e-12)
            assert_allclose(trace.xis[k], xi, rtol=1e-12)

    @pytest.mark.parametrize("mode", list(LabelMode))
    def test_public_steps_are_fits_first_update(self, mode):
        soft, init = labelled_problem(mode, 3, "progressive")
        _, trace = fit(soft, init, E2MConfig(max_iters=1))
        W = e_step(soft, init)
        assert_allclose(W.sum(axis=1), 1.0, rtol=1e-12)
        new = m_step(soft, W, init)
        assert np.array_equal(new.lambdas, trace.lambdas[1])
        assert np.array_equal(new.xis, trace.xis[1])
        assert generalized_loglik(soft, init) == trace.gll_values[0]
        assert generalized_loglik(soft, new) == trace.gll_values[1]

    def test_degenerate_likelihood_keeps_partial_trace(self, monkeypatch):
        soft, init = labelled_problem(LabelMode.UNCERTAIN, 3, "conventional")
        _, full = fit(soft, init, E2MConfig(max_iters=2, tol=1e-300))
        monkeypatch.setattr(estimator, "_Kernel", kernel_failing_on_pass(4, [soft]))
        config = E2MConfig(max_iters=10, tol=1e-300)
        with pytest.raises(DegenerateLikelihoodError, match=r"record\(s\) \[0\]$"):
            fit(soft, init, config)
        (result,), steps = fit_batch([soft], [init], config)
        assert result["iterations"] == 2 and not result["converged"]
        # the steps before the failing one are the capped run's iterates
        partial = [values[:-1] for values in history(steps, 0)]
        for values, name in zip(partial, ("lambdas", "xis", "gll_values")):
            assert np.array_equal(values, getattr(full, name))

    def test_component_collapsing_on_tiny_time_is_starved(self):
        with pytest.raises(ComponentStarvedError, match=r"component\(s\) \[0\]"):
            fit(*starving_problem())
        # its fifth update starves: capped before it, the fit completes four
        _, trace = fit(*starving_problem(), E2MConfig(max_iters=4))
        assert trace.iterations_used == 4 and not trace.converged

    @pytest.mark.parametrize("where", ["weight", "xi2"])
    @pytest.mark.parametrize("value", [np.nan, 0.0])
    def test_bad_m_step_value_in_a_later_row_fails_only_its_fit(self, monkeypatch, where, value):
        # the second M-step sees a NaN or a 0 in component 1 of batch row 1: in its posterior weight, or in the
        # xi^2 its censored term divides by.  A check that took Python's min() would miss a NaN that is not first.
        problems = [labelled_problem(mode, 3, "conventional") for mode in LabelMode]

        class Kernel(estimator._Kernel):
            passes = 0

            def m_step(self, W, xi2):
                self.passes += 1
                if self.passes == 2:
                    (W if where == "weight" else xi2)[1, 1] = value
                return super().m_step(W, xi2)

        config = E2MConfig(max_iters=10, tol=1e-300)
        with monkeypatch.context() as patched:
            patched.setattr(estimator, "_Kernel", Kernel)
            table, _ = fit_batch([soft for soft, _ in problems], [init for _, init in problems], config)
        starved = where == "weight" and value == 0.0
        reason = "received no posterior weight" if starved else "have a degenerate moment denominator"
        error = table["error"][1]
        assert type(error) is ComponentStarvedError and str(error) == f"component(s) [1] {reason}"
        assert table["iterations"][1] == 1
        for b in (0, 2):
            assert_is_solo_fit(table[b], *problems[b], config)

    @pytest.mark.parametrize("p", [2, 3, 6])
    def test_batch_iterates_match_reference_and_solo_fits(self, p):
        problems = [labelled_problem(mode, p, plan) for mode in LabelMode for plan in ("conventional", "progressive")]
        config = E2MConfig(max_iters=60, tol=1e-300)
        table, steps = fit_batch([soft for soft, _ in problems], [init for _, init in problems], config)
        assert table.dtype == estimator.fit_dtype(p)
        for b, ((soft, init), got) in enumerate(zip(problems, table)):
            lambdas, xis, gll = history(steps, b)
            glls, params = reference_e2m(soft.data.y_star, soft.data.observed, soft.pl, init.lambdas, init.xis, 60)
            assert_allclose(gll, glls, rtol=1e-12)
            for k, (lam, xi) in enumerate(params, start=1):
                assert_allclose(lambdas[k], lam, rtol=1e-12)
                assert_allclose(xis[k], xi, rtol=1e-12)
            solo_est, solo = fit(soft, init, config)
            assert got["iterations"] == solo.iterations_used == 60
            assert not got["converged"] and not solo.converged and got["error"] is None
            assert np.array_equal(got["lambdas"], solo_est.lambdas) and np.array_equal(got["xis"], solo_est.xis)
            assert got["gll"] == solo.gll_values[-1]
            assert np.array_equal(lambdas, solo.lambdas) and np.array_equal(xis, solo.xis)
            assert np.array_equal(gll, solo.gll_values)

    def test_batch_fits_end_differently_as_solo_fits_do(self, monkeypatch):
        problems, failing = ending_problems()
        monkeypatch.setattr(estimator, "_Kernel", kernel_failing_on_pass(4, [failing]))
        config = E2MConfig(max_iters=30, tol=1e-300)
        table, steps = fit_batch([soft for soft, _ in problems], [init for _, init in problems], config)
        solos = []
        for soft, init in problems:
            try:
                solos.append(fit(soft, init, config))
            except EstimationError as exc:
                solos.append(exc)
        kinds = []
        for b, ((soft, init), got, solo) in enumerate(zip(problems, table, solos)):
            trace = history(steps, b)
            if isinstance(solo, EstimationError):
                assert type(got["error"]) is type(solo) and str(got["error"]) == str(solo)
                assert np.isnan(got["lambdas"]).all() and np.isnan(got["xis"]).all() and np.isnan(got["gll"])
                assert not got["converged"]
                kinds.append(type(solo).__name__)
                # the failing step's values are meaningless; the steps before it are the completed updates,
                # the same as in a batch of one
                assert len(trace[2]) == got["iterations"] + 2
                solo_steps = history(fit_batch([soft], [init], config)[1], 0)
                trace, expected = ([values[:-1] for values in t] for t in (trace, solo_steps))
            else:
                solo_est, solo_trace = solo
                assert got["error"] is None
                assert np.array_equal(got["lambdas"], solo_est.lambdas) and np.array_equal(got["xis"], solo_est.xis)
                assert got["gll"] == solo_trace.gll_values[-1]
                assert got["iterations"] == solo_trace.iterations_used
                assert got["converged"] == solo_trace.converged
                kinds.append("converged" if got["converged"] else "capped")
                expected = [solo_trace.lambdas, solo_trace.xis, solo_trace.gll_values]
            for values, solo_values in zip(trace, expected):
                assert np.array_equal(values, solo_values)
        assert kinds == ["converged", "ComponentStarvedError", "capped", "DegenerateLikelihoodError"]
        assert table["iterations"].tolist() == [2, 4, 30, 2]
        assert str(table["error"][3]).endswith("record(s) [0]")
        assert "component(s) [0]" in str(table["error"][1])

    def test_fits_leaving_the_batch_stay_in_the_buffers_made_at_its_start(self, monkeypatch):
        problems, failing = ending_problems()
        names = ("posterior", "features", "log_base", "coef")
        left = []

        class Kernel(kernel_failing_on_pass(4, [failing])):
            def __init__(self, datasets):
                super().__init__(datasets)
                self.made = [getattr(self, name) for name in names]

            def keep(self, rows):
                super().keep(rows)
                left.append(len(self.posterior))
                for name, made in zip(names, self.made):
                    assert np.shares_memory(getattr(self, name), made), name

        monkeypatch.setattr(estimator, "_Kernel", Kernel)
        config = E2MConfig(max_iters=30, tol=1e-300)
        table, _ = fit_batch([soft for soft, _ in problems], [init for _, init in problems], config)
        assert left == [3, 2, 1]
        assert table["iterations"].tolist() == [2, 4, 30, 2]

    @pytest.mark.parametrize("failing", [False, True])
    def test_table_is_the_same_without_the_steps(self, monkeypatch, failing):
        # fits that leave one batch at different steps: in every way, or by converging and at the cap
        if failing:
            problems, target = ending_problems()
            monkeypatch.setattr(estimator, "_Kernel", kernel_failing_on_pass(4, [target]))
        else:
            problems = [labelled_problem(mode, 3, plan) for mode in LabelMode
                        for plan in ("conventional", "progressive")]
        config = E2MConfig(max_iters=30, tol=1e-300) if failing else E2MConfig()
        datasets, inits = [soft for soft, _ in problems], [init for _, init in problems]
        table, steps = fit_batch(datasets, inits, config)
        bare, none = fit_batch(datasets, inits, config, record_steps=False)
        assert steps and none == []
        assert bare.dtype == table.dtype
        for name in ("lambdas", "xis", "gll", "iterations", "converged"):
            assert np.array_equal(bare[name], table[name], equal_nan=name in ("lambdas", "xis", "gll")), name
        assert [(type(e), str(e)) for e in bare["error"]] == [(type(e), str(e)) for e in table["error"]]
        assert table["iterations"].tolist() == ([2, 4, 30, 2] if failing else [1000, 270, 121, 84, 904, 1000])

    def test_overflowing_times_fail_only_their_own_fit(self):
        # y*^2 overflows, and the quantile start's xi^2 underflows to 0: the batch must
        # raise no floating-point warning, which the suite turns into an error
        soft, init = labelled_problem(LabelMode.UNCERTAIN, 2, "conventional")
        ds = soft.data
        huge = SoftLabeledDataset(CensoredDataset(scheme=ds.scheme, item_id=ds.item_id, y_star=np.full(ds.n, 1e300),
                                                  observed=ds.observed, censored_at_failure=ds.censored_at_failure),
                                  soft.pl)
        config = E2MConfig(max_iters=30)
        table, _ = fit_batch([soft, huge], [init, quantile_spread_init(huge.data, 2)], config)
        assert_is_solo_fit(table[0], soft, init, config)
        assert type(table["error"][1]) is DegenerateLikelihoodError and table["iterations"][1] == 0
        assert str(table["error"][1]).startswith("generalized log-likelihood is non-finite at record(s) [0, 1, 2,")

    def test_overflowing_moment_denominator_starves_only_its_own_fit(self):
        # at xi_0 = 1e-160 the censored term 2 / xi_0^2 overflows, which would make the updated xi_0 zero
        soft, init = labelled_problem(LabelMode.UNCERTAIN, 2, "conventional")
        tiny = MixtureParams(init.lambdas, np.array([1e-160, init.xis[1]]))
        config = E2MConfig(max_iters=30)
        table, _ = fit_batch([soft, soft], [init, tiny], config)
        assert_is_solo_fit(table[0], soft, init, config)
        assert type(table["error"][1]) is ComponentStarvedError and table["iterations"][1] == 0
        assert str(table["error"][1]) == "component(s) [0] have a degenerate moment denominator"
        with pytest.raises(ComponentStarvedError, match=r"^component\(s\) \[0\] have a degenerate moment denominator$"):
            fit(soft, tiny, config)

    def test_batch_needs_equal_shapes(self):
        small, init = labelled_problem(LabelMode.UNKNOWN, 2, "conventional")
        wide, wide_init = labelled_problem(LabelMode.UNKNOWN, 3, "conventional")
        with pytest.raises(ValueError, match="equal numbers"):
            fit_batch([small, wide], [init, wide_init])
        with pytest.raises(ValueError, match="dimensions disagree"):
            fit_batch([small], [wide_init])


class TestSoftLabels:
    def test_unknown_is_vacuous(self):
        plm = make_soft_labels(LabelMode.UNKNOWN, 3, n_items=7)
        assert plm.shape == (7, 3)
        assert np.all(plm == 1.0)

    def test_uncertain_at_zero_error_is_indicator(self):
        z = np.array([2, 0, 1])
        plm = make_soft_labels(LabelMode.UNCERTAIN, 3, hard_labels=z, error_probs=np.zeros(3))
        expect = np.zeros((3, 3))
        expect[np.arange(3), z] = 1.0
        assert_allclose(plm, expect)

    def test_uncertain_at_full_error_is_uniform(self):
        z = np.array([0, 1])
        plm = make_soft_labels(LabelMode.UNCERTAIN, 3, hard_labels=z, error_probs=np.ones(2))
        assert_allclose(plm, np.full((2, 3), 1 / 3))

    def test_mode_accepts_strings(self):
        plm = make_soft_labels("noisy", 2, hard_labels=np.array([1]))
        assert_allclose(plm, [[0.0, 1.0]])

    def test_label_bounds_checked(self):
        with pytest.raises(ValueError):
            make_soft_labels(LabelMode.NOISY, 2, hard_labels=np.array([2]))

    @pytest.mark.parametrize("q", [np.nan, -0.1, 1.1, np.inf])
    def test_error_probability_outside_unit_interval_rejected(self, q):
        with pytest.raises(ValueError, match="error probabilities must lie in"):
            make_soft_labels("uncertain", 2, hard_labels=[0, 1], error_probs=[q, 0.2])

    def test_csv_roundtrip(self, tmp_path, rng):
        plm = rng.uniform(0.0, 1.0, size=(9, 3))
        ids = rng.permutation(9)
        path = tmp_path / "labels.csv"
        write_soft_labels_csv(plm, path, item_ids=ids)
        back_ids, back = read_soft_labels_csv(path)
        assert np.array_equal(back_ids, ids)
        assert_allclose(back, plm)

    def test_messages_name_at_most_32_records(self):
        ds = toy_dataset(np.arange(1.0, 41.0), [True] * 40)
        listed = re.escape(f"record(s) {list(range(32))}"[:-1] + ", ...] (40 in all)")
        with pytest.raises(ValueError, match=listed + " have all-zero plausibility"):
            SoftLabeledDataset(ds, np.zeros((40, 2)))
        with pytest.raises(ValueError, match=listed + " are not"):
            SoftLabeledDataset(ds, np.full((40, 2), np.nan))
        with pytest.raises(ValueError, match="y_star must be finite and positive; " + listed):
            CensoredDataset(ds.scheme, ds.item_id, -ds.y_star, ds.observed, ds.censored_at_failure)
        # 32 records or fewer are all named
        pl = np.ones((40, 2))
        pl[8:] = 0.0
        with pytest.raises(ValueError, match=re.escape(f"record(s) {list(range(8, 40))} have")):
            SoftLabeledDataset(ds, pl)

    @pytest.mark.parametrize("rows, message", [
        ([[0.5, 0.5], [-0.1, 0.5], [0.5, np.nan]], "plausibilities must be finite; record(s) [2] are not"),
        ([[1.1, 0.5], [np.inf, 0.5], [0.5, 0.5]], "plausibilities must be finite; record(s) [1] are not"),
        ([[0.5, -np.inf], [0.5, 0.5], [np.nan, 0.5]], "plausibilities must be finite; record(s) [0, 2] are not"),
        ([[0.5, 0.5], [-0.1, 0.5], [0.0, 0.0]], "plausibilities must lie in [0, 1]"),
        ([[0.5, 0.5], [0.5, 1.0 + 2**-52], [0.0, 0.0]], "plausibilities must lie in [0, 1]"),
        ([[0.5, 0.0], [0.0, 0.0], [0.0, 1.0]], "record(s) [1] have all-zero plausibility"),
        ([[-0.0, 0.5], [0.5, 0.5], [-0.0, 0.0]], "record(s) [2] have all-zero plausibility"),
        ([[0.0, 0.5], [1.0, 0.0], [-0.0, 1.0]], None),
        ([[2**-1074, 1.0], [1.0, 2**-1074], [1.0, 1.0]], None),
    ], ids=["nan-before-range", "inf-before-range", "every-nonfinite-row", "below-zero", "above-one",
            "zero-row", "signed-zero-row", "zeros-in-every-row", "positive-entries"])
    def test_plausibility_checks_in_order(self, rows, message):
        ds = toy_dataset([1.0, 2.0, 3.0], [True] * 3)
        if message is None:
            assert SoftLabeledDataset(ds, np.array(rows)).pl.tolist() == rows
            return
        with pytest.raises(ValueError) as err:
            SoftLabeledDataset(ds, np.array(rows))
        assert str(err.value) == message


class TestInit:
    def test_quantile_spread_shapes(self, rng):
        truth = MixtureParams(np.array([1 / 3, 1 / 3, 1 / 3]), np.array([4.0, 0.5, 0.8]))
        times, labels = sample_labeled(truth, 300, rng)
        ds = run_life_test(times, labels, conventional_scheme(300, 180), rng)
        init = quantile_spread_init(ds, 3)
        assert_allclose(init.lambdas, np.full(3, 1 / 3))
        assert init.xis.shape == (3,)
        assert np.all(init.xis > 0)
        assert len(np.unique(init.xis)) == 3
