import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from evidem.rayleigh import MixtureParams, sample_labeled
from oracles import cdf, log_pdf, log_survival, pdf, quantile, survival, truncated_second_moment

PAPER_LAMBDAS = np.array([1, 1, 1]) / 3
PAPER_XIS = np.array([4.0, 0.5, 0.8])


class TestParams:
    def test_mixture_weights_sum(self):
        with pytest.raises(ValueError):
            MixtureParams(np.array([0.5, 0.4]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            MixtureParams(np.array([1.2, -0.2]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            MixtureParams(np.array([0.5, 0.5]), np.array([1.0, -2.0]))

    def test_params_are_frozen_copies(self):
        lam = np.array([0.5, 0.5])
        params = MixtureParams(lam, np.array([1.0, 2.0]))
        lam[0] = 0.9
        assert params.lambdas[0] == 0.5
        with pytest.raises(ValueError):
            params.lambdas[0] = 0.1


class TestPdf:
    def test_vanishes_at_origin(self):
        assert pdf(1.0, 1e-12) < 1e-11

    def test_rejects_nonpositive_x(self):
        with pytest.raises(ValueError):
            pdf(1.0, 0.0)
        with pytest.raises(ValueError):
            pdf(1.0, np.array([0.5, -1.0]))

    def test_integrates_to_one(self):
        total, _ = quad(lambda t: pdf(1.0, t), 0, np.inf)
        assert_allclose(total, 1.0, atol=1e-9)

    def test_point_value(self):
        # 4 * 0.5 * exp(-0.5), cross-checked against quadrature of the cdf slope
        assert_allclose(pdf(2.0, 0.5), 1.2130613194252668, rtol=1e-12)

    def test_log_pdf_consistent(self, rng):
        x = rng.uniform(0.05, 5.0, size=64)
        xi = rng.uniform(0.2, 4.0, size=64)
        assert_allclose(np.exp(log_pdf(xi, x)), pdf(xi, x), rtol=1e-12)


class TestSurvival:
    def test_at_zero(self):
        for xi in (0.2, 1.0, 7.0):
            assert survival(xi, 0.0) == 1.0

    def test_median_inversion(self):
        assert_allclose(survival(1.0, math.sqrt(2.0 * math.log(2.0))), 0.5, rtol=1e-12)

    def test_tail_quadrature_oracle(self):
        tail, _ = quad(lambda t: pdf(0.5, t), 2.0, np.inf)
        assert_allclose(survival(0.5, 2.0), tail, rtol=1e-9)
        assert_allclose(survival(0.5, 2.0), 0.6065306597126334, rtol=1e-12)

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError):
            survival(1.0, -0.1)

    def test_matches_one_minus_cdf_integral(self, rng):
        # quadrature comparison at 100 random (xi, x) pairs
        for _ in range(100):
            xi = rng.uniform(0.2, 4.0)
            x = rng.uniform(0.05, 4.0 / xi)
            mass, _ = quad(lambda t: pdf(xi, t), 0, x)
            assert_allclose(survival(xi, x), 1.0 - mass, atol=1e-8)

    def test_log_survival_consistent(self, rng):
        x = rng.uniform(0.0, 5.0, size=32)
        xi = rng.uniform(0.2, 4.0, size=32)
        assert_allclose(np.exp(log_survival(xi, x)), survival(xi, x), rtol=1e-12)


class TestQuantile:
    def test_small_u_small_x(self):
        assert quantile(1.0, 1e-12) < 2e-6

    def test_inversion_identity_point(self):
        assert_allclose(quantile(1.0, 1.0 - math.exp(-0.5)), 1.0, rtol=1e-12)

    def test_point_value_with_survival_check(self):
        x = quantile(4.0, 0.9)
        assert_allclose(x, 0.5364915065723368, rtol=1e-12)
        assert_allclose(survival(4.0, x), 0.1, rtol=1e-10)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                quantile(1.0, bad)

    def test_roundtrip_with_cdf(self, rng):
        u = rng.uniform(0.001, 0.999, size=200)
        xi = rng.uniform(0.2, 4.0, size=200)
        assert_allclose(cdf(xi, quantile(xi, u)), u, atol=1e-10)
        x = quantile(xi, rng.uniform(0.001, 0.999, size=200))
        assert_allclose(quantile(xi, cdf(xi, x)), x, rtol=1e-10)


class TestTruncatedSecondMoment:
    def test_untruncated_moment(self):
        assert_allclose(truncated_second_moment(2.0, 0.0), 0.5)

    def test_point_values_vs_quadrature(self):
        num, _ = quad(lambda t: t * t * pdf(1.0, t), 1.0, np.inf)
        assert_allclose(truncated_second_moment(1.0, 1.0), num / survival(1.0, 1.0), rtol=1e-9)
        assert_allclose(truncated_second_moment(1.0, 1.0), 3.0, rtol=1e-12)
        assert_allclose(truncated_second_moment(0.8, 2.0), 7.125, rtol=1e-12)

    def test_quadrature_oracle_random_points(self, rng):
        for _ in range(100):
            xi = rng.uniform(0.3, 3.0)
            y = rng.uniform(0.0, 2.5 / xi)
            num, _ = quad(lambda t: t * t * pdf(xi, t), y, np.inf)
            assert_allclose(truncated_second_moment(xi, y), num / survival(xi, y), rtol=1e-6)


class TestSampling:
    def test_degenerate_weights(self, rng):
        params = MixtureParams(np.array([1.0, 0.0]), np.array([1.0, 2.0]))
        _, labels = sample_labeled(params, 500, rng)
        assert np.all(labels == 0)

    def test_label_frequencies(self, rng):
        n = 50_000
        params = MixtureParams(PAPER_LAMBDAS, PAPER_XIS)
        _, labels = sample_labeled(params, n, rng)
        freq = np.bincount(labels, minlength=3) / n
        sigma = math.sqrt((1 / 3) * (2 / 3) / n)
        assert np.all(np.abs(freq - 1 / 3) < 3 * sigma)

    def test_second_moment(self, rng):
        n = 50_000
        params = MixtureParams(np.array([1.0]), np.array([1.0]))
        times, _ = sample_labeled(params, n, rng)
        # X^2 is exponential with mean 2 and variance 4
        assert abs((times**2).mean() - 2.0) < 3 * 2.0 / math.sqrt(n)

    def test_rejects_bad_n(self, rng):
        params = MixtureParams(np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            sample_labeled(params, 0, rng)
