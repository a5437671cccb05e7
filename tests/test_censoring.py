import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.stats import kstest, ks_2samp

from evidem import censoring
from evidem.censoring import (
    CensoredDataset,
    CensoringScheme,
    SchemeError,
    conventional_scheme,
    draw_experiment,
    read_dataset_csv,
    run_life_test,
    scheme_from_censor_frac,
    write_dataset_csv,
)
from evidem.rayleigh import MixtureParams, sample_labeled
from oracles import log_pdf, log_survival, pdf, progressive_loglik, reference_life_test


@st.composite
def conventional_life_tests(draw, tie_block=None):
    """(times, labels, scheme, seed): a random conventional plan over lifetimes with ties.

    Lifetimes take a random number of distinct values, or, given ``tie_block``,
    tie in blocks of that many units spread over the input order.
    """
    n = draw(st.integers(1, 400))
    scheme = conventional_scheme(n, draw(st.integers(1, n)))
    distinct = draw(st.integers(1, n)) if tie_block is None else None
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if tie_block is None:
        times = 0.5 + 0.25 * rng.integers(0, distinct, size=n)
    else:
        times = 0.5 + 0.25 * rng.permutation(np.arange(n) // tie_block)
    labels = rng.integers(0, 3, size=n)
    return times, labels, scheme, draw(st.integers(0, 2**32 - 1))


def assert_same_replay(times, labels, scheme, seed):
    got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = run_life_test(times, labels, scheme, got_rng)
    ref = reference_life_test(times, labels, scheme, ref_rng)
    for name in ("item_id", "y_star", "observed", "censored_at_failure", "true_label"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state


class TestScheme:
    def test_reference_plan_valid(self):
        scheme = CensoringScheme(500, tuple([0] * 299 + [200]))
        assert scheme.J == 300

    def test_complete_sample_valid(self):
        assert CensoringScheme(5, (0, 0, 0, 0, 0)).n_censored == 0

    def test_mismatched_totals(self):
        with pytest.raises(SchemeError, match="6.*10|10.*6"):
            CensoringScheme(10, (1, 1, 1))

    def test_negative_removals(self):
        with pytest.raises(SchemeError):
            CensoringScheme(4, (-1, 3))

    @pytest.mark.parametrize("n, removals", [(4, (1.5, 0.5, 0)), (4.0, (1, 1)), (4, (1, 1.0))],
                             ids=["fractional-removals", "float-n", "float-removal"])
    def test_non_integral_counts(self, n, removals):
        # int() would truncate the first plan to the valid (1, 0, 0)
        with pytest.raises(SchemeError, match="must be integers"):
            CensoringScheme(n, removals)

    @pytest.mark.parametrize(
        "build",
        [lambda: CensoringScheme(10**20 + 1, (10**20,)), lambda: conventional_scheme(10**400, 1),
         lambda: scheme_from_censor_frac(10**400, 0.5), lambda: scheme_from_censor_frac(int(1e300), 0.5)],
        ids=["plan", "conventional", "censor-frac", "censor-frac-float-sized"],
    )
    def test_more_units_than_the_maximum(self, build):
        # each is checked before any arithmetic on n or any list of its size, so none overflows
        with pytest.raises(SchemeError, match=f"n <= {censoring.MAX_UNITS}, got"):
            build()

    def test_numpy_integers_become_python_ints(self):
        scheme = CensoringScheme(np.int64(4), np.array([1, 1]))
        assert scheme == CensoringScheme(4, (1, 1))
        assert type(scheme.n) is int and all(type(r) is int for r in scheme.removals)

    def test_censor_frac_expansion(self):
        scheme = scheme_from_censor_frac(500, 0.4)
        assert scheme.n == 500
        assert scheme.J == 300
        assert scheme.removals[-1] == 200
        assert all(r == 0 for r in scheme.removals[:-1])

    def test_censor_frac_rounds_to_intended_failure_count(self):
        # 10 * (1 - 0.7) is 3.0000000000000004 in floating point
        assert scheme_from_censor_frac(10, 0.7).J == 3

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 10**6).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))))
    def test_censor_frac_of_conventional_plan_round_trips(self, n_and_J):
        n, J = n_and_J
        assert scheme_from_censor_frac(n, 1.0 - J / n).J == J

    def test_conventional_scheme(self):
        scheme = conventional_scheme(10, 4)
        assert scheme.removals == (0, 0, 0, 6)


class TestRunLifeTest:
    # run_life_test takes conventional plans only, so the checks below on progressive plans check
    # the reference replay: run_life_test matches it draw for draw on conventional plans, and
    # draw_experiment's direct draws match it in distribution on the others
    def test_complete_sample_is_sorted(self, rng):
        times = rng.uniform(0.1, 5.0, size=12)
        labels = rng.integers(0, 2, size=12)
        scheme = CensoringScheme(12, tuple([0] * 12))
        ds = run_life_test(times, labels, scheme, rng)
        assert np.all(ds.observed)
        assert_allclose(ds.y_star, np.sort(times))

    def test_labels_carried_through(self, rng):
        times = rng.uniform(0.1, 5.0, size=30)
        labels = rng.integers(0, 3, size=30)
        scheme = conventional_scheme(30, 18)
        ds = run_life_test(times, labels, scheme, rng)
        assert np.array_equal(ds.true_label, labels[ds.item_id])

    def test_status_counts(self, rng):
        scheme = CensoringScheme(20, (2, 0, 3, 0, 1, 3, 0, 0, 1, 0))
        times = rng.uniform(0.1, 5.0, size=20)
        ds = reference_life_test(times, np.zeros(20, dtype=int), scheme, rng)
        assert int(ds.observed.sum()) == 10
        assert int((~ds.observed).sum()) == 10

    def test_censored_at_current_failure_time(self, rng):
        scheme = CensoringScheme(15, (1, 2, 0, 1, 6))
        times = rng.uniform(0.1, 5.0, size=15)
        ds = reference_life_test(times, np.zeros(15, dtype=int), scheme, rng)
        fail_times = ds.y_star[ds.observed]
        for i in np.flatnonzero(~ds.observed):
            j = ds.censored_at_failure[i]
            assert ds.y_star[i] == fail_times[j - 1]

    def test_removal_enumeration_oracle(self):
        # n=4, J=2, R=(1,1) on lifetimes (1,2,3,4): after the failure at 1,
        # one of {2,3,4} is withdrawn, each with probability 1/3, and the
        # second failure is the smallest remaining lifetime.
        scheme = CensoringScheme(4, (1, 1))
        lifetimes = np.array([1.0, 2.0, 3.0, 4.0])
        outcomes = Counter()
        reps = 9000
        rng = np.random.default_rng(7)
        for _ in range(reps):
            ds = reference_life_test(lifetimes, np.zeros(4, dtype=int), scheme, rng)
            first_removed = ds.item_id[np.flatnonzero(~ds.observed)[0]]
            second_failure = ds.y_star[ds.observed][1]
            outcomes[(int(first_removed), float(second_failure))] += 1
        # removing unit 1 (lifetime 2) makes 3 the next failure, else 2
        assert set(outcomes) == {(1, 3.0), (2, 2.0), (3, 2.0)}
        for count in outcomes.values():
            freq = count / reps
            sigma = math.sqrt((1 / 3) * (2 / 3) / reps)
            assert abs(freq - 1 / 3) < 4 * sigma

    # conventional plans, whose events but the last remove 0 units, over lifetimes with random ties,
    # all distinct (blocks of 1) or tied in blocks of 4 units, so ties break by input order
    @pytest.mark.parametrize("tie_block", [None, 1, 4], ids=["0", "0-blocks-of-1", "0-blocks-of-4"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_reference_replay(self, tie_block, data):
        assert_same_replay(*data.draw(conventional_life_tests(tie_block)))

    def test_progressive_plan_rejected(self, rng):
        with pytest.raises(SchemeError, match="draw_experiment draws any other plan"):
            run_life_test(np.ones(3), np.zeros(3, dtype=int), CensoringScheme(3, (1, 0)), rng)

    def test_wrong_sample_size_rejected(self, rng):
        with pytest.raises(ValueError):
            run_life_test([1.0], [0], CensoringScheme(2, (0, 0)), rng)

    def test_terminal_removal_equals_conventional_type2(self, rng):
        # R = (0,...,0,n-J): observed are the J smallest lifetimes and all
        # censored units leave at the J-th failure time
        for _ in range(50):
            n = int(rng.integers(5, 40))
            J = int(rng.integers(1, n + 1))
            times = rng.uniform(0.1, 10.0, size=n)
            ds = run_life_test(
                times, np.zeros(n, dtype=int), conventional_scheme(n, J), rng
            )
            srt = np.sort(times)
            assert_allclose(ds.y_star[ds.observed], srt[:J])
            assert np.all(ds.y_star[~ds.observed] == srt[J - 1])
            assert set(ds.item_id[ds.observed].tolist()) == set(np.argsort(times)[:J].tolist())

    def test_first_failure_distribution(self, rng):
        # the first observed failure is the minimum of n i.i.d. Rayleigh
        # draws, itself Rayleigh with rate xi * sqrt(n)
        n, xi, reps = 12, 1.3, 5000
        scheme = CensoringScheme(n, (3, 2, n - 5 - 3))
        firsts = np.empty(reps)
        for i in range(reps):
            times = np.sqrt(-2.0 * np.log1p(-rng.random(n))) / xi
            ds = reference_life_test(times, np.zeros(n, dtype=int), scheme, rng)
            firsts[i] = ds.y_star[ds.observed][0]
        stat = kstest(firsts, lambda x: 1.0 - np.exp(-0.5 * (xi**2) * n * x**2))
        assert stat.pvalue > 0.01

    def test_normalized_spacings_are_standard_exponential(self):
        # Balakrishnan & Sandhu (1995, Amer. Statist. 49:229): on the
        # exponential scale X = xi^2 y^2 / 2, the spacings
        # gamma_i (X_i - X_{i-1}) with gamma_i = n - sum_{k<i} (R_k + 1)
        # of a progressively censored sample are i.i.d. Exp(1)
        xi, removals, reps = 1.7, (3, 0, 2, 1, 0, 4), 2000
        scheme = CensoringScheme(sum(removals) + len(removals), removals)
        gamma = scheme.n - np.concatenate(([0], np.cumsum(np.array(removals) + 1)[:-1]))
        truth = MixtureParams(np.array([1.0]), np.array([xi]))
        rng = np.random.default_rng(1995)
        spacings = np.empty((reps, scheme.J))
        for i in range(reps):
            times, labels = sample_labeled(truth, scheme.n, rng)
            x = 0.5 * xi**2 * reference_life_test(times, labels, scheme, rng).observed_times ** 2
            spacings[i] = gamma * np.diff(x, prepend=0.0)
        assert kstest(spacings.ravel(), "expon").pvalue > 0.01


def survival_oracle(model, log_s, iters=200):
    """x = t^2 / 2 with log S = log_s, by bisection in long double: log1p(-F) while F < 1/2, else a log-sum-exp."""
    lam = model.lambdas.astype(np.longdouble)[:, None]
    xi2 = (model.xis.astype(np.longdouble) ** 2)[:, None]
    target = np.asarray(log_s, dtype=np.longdouble)

    def log_survival(x):
        e = xi2 * x
        F = np.sum(lam * -np.expm1(-e), axis=0)
        with np.errstate(divide="ignore"):
            a = np.log(lam) - e
        top = a.max(axis=0)
        return np.where(F < 0.5, np.log1p(-np.minimum(F, 0.5)), top + np.log(np.exp(a - top).sum(axis=0)))

    lo = np.zeros_like(target)
    hi = -target / xi2.min()  # every S_z(hi) <= s, so S(hi) <= s <= S(0)
    for _ in range(iters):
        mid = (lo + hi) / 2
        above = log_survival(mid) > target
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return (lo + hi) / 2


# The distribution checks below were fixed before their first run: one generator per side
# (seeds 2601 and 2602), 3 000 experiments per side, a two-sample KS test per statistic,
# every p-value at least ALPHA.
ALPHA = 1e-3
SIDES = 3000
MIXED_MODEL = MixtureParams(np.array([0.5, 0.3, 0.2]), np.array([2.0, 0.5, 1.0]))
ONE_COMPONENT = MixtureParams(np.array([1.0]), np.array([1.7]))


def experiment_statistics(ds, p):
    """Four failure times, then the failed and the removed units' label counts per component."""
    t = ds.observed_times
    J = t.size
    labels = ds.true_label
    return np.concatenate((t[[0, J // 3, 2 * J // 3, J - 1]], np.bincount(labels[ds.observed], minlength=p),
                           np.bincount(labels[~ds.observed], minlength=p)))


class TestDrawExperiment:
    @pytest.mark.parametrize("scheme", [conventional_scheme(500, 300), CensoringScheme(7, (0,) * 7),
                                        CensoringScheme(1, (0,))], ids=["conventional", "complete", "one-unit"])
    def test_conventional_plan_is_replayed(self, scheme):
        got_rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = draw_experiment(MIXED_MODEL, scheme, got_rng)
        ref = run_life_test(*sample_labeled(MIXED_MODEL, scheme.n, ref_rng), scheme, ref_rng)
        for name in ("item_id", "y_star", "observed", "censored_at_failure", "true_label"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_drawn_plan_records(self):
        # a component of weight 0 is never drawn, for a failed or a removed unit
        model = MixtureParams(np.array([0.5, 0.0, 0.5]), np.array([1.0, 3.0, 0.2]))
        scheme = CensoringScheme(1750, (1, 0, 3) * 250)
        rng = np.random.default_rng(17)
        ds = draw_experiment(model, scheme, rng)
        assert np.array_equal(ds.item_id, np.arange(scheme.n))
        assert ds.scheme == scheme and set(np.unique(ds.true_label).tolist()) == {0, 2}
        fail_times = ds.observed_times
        assert np.all(fail_times > 0) and np.all(np.diff(fail_times) >= 0)
        # two uniforms a failure and one a removal: the W_i, then one call per label set
        again = np.random.default_rng(17)
        again.random(2 * scheme.J + scheme.n_censored)
        assert rng.bit_generator.state == again.bit_generator.state

    @pytest.mark.parametrize("model, removals", [
        (MIXED_MODEL, (0, 1, 3, 1, 0, 3, 1, 0, 3, 0, 1, 3)),
        (MIXED_MODEL, (1,) * 10),
        (ONE_COMPONENT, (3, 0, 2, 1, 0, 4)),
    ], ids=["mixed", "single-removals", "one-component"])
    def test_matches_reference_replay_in_distribution(self, model, removals):
        scheme = CensoringScheme(sum(removals) + len(removals), removals)
        p = model.n_components
        drawn_rng, replay_rng = np.random.default_rng(2601), np.random.default_rng(2602)
        drawn = np.array([experiment_statistics(draw_experiment(model, scheme, drawn_rng), p) for _ in range(SIDES)])
        replayed = np.array([
            experiment_statistics(reference_life_test(*sample_labeled(model, scheme.n, replay_rng), scheme, replay_rng), p)
            for _ in range(SIDES)
        ])
        pvalues = [ks_2samp(drawn[:, k], replayed[:, k]).pvalue for k in range(drawn.shape[1])]
        assert min(pvalues) >= ALPHA, pvalues

    def test_one_component_normalized_spacings_are_standard_exponential(self):
        # gamma_i (X_i - X_{i-1}) on X = xi^2 t^2 / 2, with gamma_i = n - sum_{k<i} (R_k + 1), are i.i.d. Exp(1):
        # pooled, and at each failure index
        removals = (3, 0, 2, 1, 0, 4)
        scheme = CensoringScheme(sum(removals) + len(removals), removals)
        gamma = scheme.n - np.concatenate(([0], np.cumsum(np.array(removals) + 1)[:-1]))
        rng = np.random.default_rng(2603)
        x = np.array([0.5 * 1.7**2 * draw_experiment(ONE_COMPONENT, scheme, rng).observed_times ** 2
                      for _ in range(SIDES)])
        spacings = gamma * np.diff(x, axis=1, prepend=0.0)
        pvalues = [kstest(spacings.ravel(), "expon").pvalue] + [kstest(col, "expon").pvalue for col in spacings.T]
        assert min(pvalues) >= ALPHA, pvalues

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended-precision long double")
    @pytest.mark.parametrize("model", [
        MixtureParams(np.full(3, 1 / 3), np.array([4.0, 0.5, 0.8])),
        MixtureParams(np.array([0.6, 0.0, 0.4]), np.array([1.0, 2.0, 0.3])),
        MixtureParams(np.array([0.98, 0.02]), np.array([10.0, 0.1])),
        MixtureParams(np.array([0.01, 0.09, 0.9]), np.array([100.0, 1.0, 0.01])),
        ONE_COMPONENT,
    ], ids=["paper", "zero-weight", "spread", "four-decades", "one-component"])
    def test_newton_solve_matches_long_double_bisection(self, model):
        # the first and last failures of n = 200 000 single removals, where s is near 1 and only
        # log1p(-F) is accurate; values around F = 1/2; and -log s from 1e-12 far into the tail
        rng = np.random.default_rng(200_000)
        J = 100_000
        g = np.arange(1, J + 1) + np.arange(1, J + 1)
        plan = np.cumsum((np.log1p(-rng.random(J)) / g)[::-1])
        log_s = np.concatenate((plan[:500], plan[-500:], np.log(0.5) + np.array([-1e-9, 0.0, 1e-9]),
                                -np.logspace(-12, 5, 400), [-700.0, -5000.0]))
        xi_max = model.xis.max()
        y, share = censoring._solve_survival(model.lambdas, (model.xis / xi_max) ** 2, log_s)
        want = np.longdouble(xi_max) ** 2 * survival_oracle(model, log_s)
        assert np.all(np.abs(y / want - 1) <= 1e-13)
        assert_allclose(share.sum(axis=0), 1.0, rtol=1e-15)


class TestProgressiveLoglik:
    def test_complete_sample_reduces_to_order_statistics(self, rng):
        n = 6
        scheme = CensoringScheme(n, tuple([0] * n))
        times = np.sort(rng.uniform(0.2, 3.0, size=n))
        got = progressive_loglik(scheme, times, lambda t: log_pdf(1.0, t), lambda t: log_survival(1.0, t))
        expected = math.lgamma(n + 1) + float(np.sum(log_pdf(1.0, times)))
        assert_allclose(got, expected, rtol=1e-12)

    def test_combinatorial_constant(self):
        # n=3, J=2, R=(1,0): C = 3 * (3 - 1 - 1) = 3
        scheme = CensoringScheme(3, (1, 0))
        times = np.array([1.0, 2.0])
        zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
        assert_allclose(progressive_loglik(scheme, times, zero, zero), math.log(3.0))

    def test_joint_density_quadrature_oracle(self):
        # integrate out the unit withdrawn at the first failure
        scheme = CensoringScheme(3, (1, 0))
        times = np.array([1.0, 2.0])
        got = progressive_loglik(scheme, times, lambda t: log_pdf(1.0, t), lambda t: log_survival(1.0, t))
        tail, _ = quad(lambda u: pdf(1.0, u), 1.0, np.inf)
        expected = 3.0 * pdf(1.0, 1.0) * tail * pdf(1.0, 2.0)
        assert_allclose(math.exp(got), expected, rtol=1e-9)

    def test_permutation_invariance(self, rng):
        scheme = CensoringScheme(10, (2, 0, 1, 2, 0))
        base = np.sort(rng.uniform(0.1, 4.0, size=5))
        ll = progressive_loglik(scheme, base, lambda t: log_pdf(0.7, t), lambda t: log_survival(0.7, t))
        shuffled = base.copy()
        rng.shuffle(shuffled)
        ll2 = progressive_loglik(scheme, np.sort(shuffled), lambda t: log_pdf(0.7, t), lambda t: log_survival(0.7, t))
        assert ll == ll2

    def test_unsorted_times_rejected(self):
        scheme = CensoringScheme(3, (1, 0))
        with pytest.raises(ValueError):
            progressive_loglik(scheme, [2.0, 1.0], lambda t: t, lambda t: t)

    def test_degenerate_survival_gives_neg_inf(self):
        scheme = CensoringScheme(3, (1, 0))
        neg_inf_sf = lambda t: np.full_like(np.asarray(t, dtype=float), -np.inf)
        got = progressive_loglik(scheme, [1.0, 2.0], lambda t: log_pdf(1.0, t), neg_inf_sf)
        assert got == -math.inf


def single_removals(J):
    """The records of a plan of J single removals, each failure followed by its one removal: the event
    order alternates between observed and censored records."""
    scheme = CensoringScheme(2 * J, (1,) * J)
    y = np.repeat(np.arange(1.0, J + 1.0), 2)
    observed = np.arange(2 * J) % 2 == 0
    return dict(scheme=scheme, item_id=np.arange(2 * J), y_star=y, observed=observed,
                censored_at_failure=np.where(observed, 0, np.arange(2 * J) // 2 + 1))


def broken(records, defect):
    """``records``, changed in place to hold one defect that a dataset's checks must reject."""
    if defect == "duplicate-id":
        records["item_id"][[3, 0]] = 1  # unsorted, so the ids are not increasing
    elif defect == "duplicate-id-at-end":
        records["item_id"][-1] = records["item_id"][-2]
    elif defect == "observed-count":
        records["observed"][1] = True
    elif defect == "failure-order":
        records["y_star"][:2] = records["y_star"][2]
        records["y_star"][2:4] = 1.0
    elif defect == "observed-references-failure":
        records["censored_at_failure"][2] = 1
    elif defect == "failure-beyond-J":
        records["censored_at_failure"][-1] = records["scheme"].J + 1
    elif defect == "counts":
        records["censored_at_failure"][3] = 1
    elif defect == "censored-time":
        records["y_star"][-1] *= 1.5
    return records


# Each defect of ``broken`` and the message of the check that rejects it
DEFECT_MESSAGES = {
    "duplicate-id": "item_id values must be unique",
    "duplicate-id-at-end": "item_id values must be unique",
    "observed-count": "observed records, found",
    "failure-order": "observed failure times must be nondecreasing",
    "observed-references-failure": "observed records must carry censored_at_failure = 0",
    "failure-beyond-J": "censored records must reference a failure index in 1..J",
    "counts": "censored counts per failure [2, 0",
    "censored-time": "each censored time must equal the failure time",
}


class TestDatasetChecks:
    @pytest.mark.parametrize("J", [3, 50])
    @pytest.mark.parametrize("defect", list(DEFECT_MESSAGES))
    def test_each_defect_is_rejected(self, J, defect):
        CensoredDataset(**single_removals(J))
        with pytest.raises(ValueError) as err:
            CensoredDataset(**broken(single_removals(J), defect))
        assert DEFECT_MESSAGES[defect] in str(err.value)

    def test_counts_message_lists_python_ints(self):
        records = broken(single_removals(3), "counts")
        with pytest.raises(ValueError, match=r"per failure \[2, 0, 1\] do not match removals \[1, 1, 1\]"):
            CensoredDataset(**records)


class TestDatasetCsv:
    def test_roundtrip(self, rng, tmp_path):
        scheme = CensoringScheme(12, (1, 0, 2, 0, 3, 0))
        times = rng.uniform(0.1, 5.0, size=12)
        labels = rng.integers(0, 3, size=12)
        ds = reference_life_test(times, labels, scheme, rng)
        path = tmp_path / "data.csv"
        write_dataset_csv(ds, path)
        back = read_dataset_csv(path)
        assert back.scheme == ds.scheme
        assert np.array_equal(back.item_id, ds.item_id)
        assert_allclose(back.y_star, ds.y_star)
        assert np.array_equal(back.observed, ds.observed)
        assert np.array_equal(back.true_label, ds.true_label)
