import math
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.stats import kstest

from evidem import censoring
from evidem.censoring import (
    CensoringScheme,
    SchemeError,
    conventional_scheme,
    read_dataset_csv,
    run_life_test,
    scheme_from_censor_frac,
    write_dataset_csv,
)
from evidem.rayleigh import MixtureParams, sample_labeled
from oracles import log_pdf, log_survival, pdf, progressive_loglik, reference_life_test


@st.composite
def life_tests(draw):
    """(times, labels, scheme, seed): a random plan over lifetimes with ties."""
    n = draw(st.integers(1, 400))
    J = draw(st.integers(1, n))
    distinct = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cuts = np.sort(rng.integers(0, n - J + 1, size=J - 1))
    removals = np.diff(np.concatenate(([0], cuts, [n - J])))
    times = 0.5 + 0.25 * rng.integers(0, distinct, size=n)
    labels = rng.integers(0, 3, size=n)
    return times, labels, CensoringScheme(n, tuple(removals.tolist())), draw(st.integers(0, 2**32 - 1))


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
        ds = run_life_test(times, np.zeros(20, dtype=int), scheme, rng)
        assert int(ds.observed.sum()) == 10
        assert int((~ds.observed).sum()) == 10

    def test_censored_at_current_failure_time(self, rng):
        scheme = CensoringScheme(15, (1, 2, 0, 1, 6))
        times = rng.uniform(0.1, 5.0, size=15)
        ds = run_life_test(times, np.zeros(15, dtype=int), scheme, rng)
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
            ds = run_life_test(lifetimes, np.zeros(4, dtype=int), scheme, rng)
            first_removed = ds.item_id[np.flatnonzero(~ds.observed)[0]]
            second_failure = ds.y_star[ds.observed][1]
            outcomes[(int(first_removed), float(second_failure))] += 1
        # removing unit 1 (lifetime 2) makes 3 the next failure, else 2
        assert set(outcomes) == {(1, 3.0), (2, 2.0), (3, 2.0)}
        for count in outcomes.values():
            freq = count / reps
            sigma = math.sqrt((1 / 3) * (2 / 3) / reps)
            assert abs(freq - 1 / 3) < 4 * sigma

    # 0 sends every removal through the rank tree, 1 splits events between
    # the tree and the mask scan even at n <= 400, where the measured
    # constant sends every event to the mask scan; blocks of 1 and 4 units
    # make n <= 400 span many blocks, the last one full or partial
    @pytest.mark.parametrize("entries_per_step, block_shift", [
        (0, censoring._BLOCK_SHIFT), (1, censoring._BLOCK_SHIFT),
        (censoring._MASK_ENTRIES_PER_TREE_STEP, censoring._BLOCK_SHIFT),
        (0, 0), (1, 0), (0, 2), (1, 2),
    ], ids=["0", "1", str(censoring._MASK_ENTRIES_PER_TREE_STEP), "0-blocks-of-1", "1-blocks-of-1",
            "0-blocks-of-4", "1-blocks-of-4"])
    @settings(max_examples=100, deadline=None)
    @given(case=life_tests())
    def test_matches_reference_replay(self, entries_per_step, block_shift, case):
        with patch.object(censoring, "_MASK_ENTRIES_PER_TREE_STEP", entries_per_step), \
                patch.object(censoring, "_BLOCK_SHIFT", block_shift):
            assert_same_replay(*case)

    def test_rank_tree_and_mask_paths_interleaved(self, monkeypatch):
        # one-per-failure events use the rank tree; the 2000-unit event reads
        # the mask and must keep the tree current for the events after it
        taken = []
        take = censoring._RankTree.take
        monkeypatch.setattr(censoring._RankTree, "take", lambda tree, rank: taken.append(rank) or take(tree, rank))
        scheme = CensoringScheme(4000, tuple([1] * 500 + [2000] + [1] * 499 + [0]))
        times = np.random.default_rng(3).uniform(0.1, 5.0, size=4000)
        assert_same_replay(times, np.zeros(4000, dtype=int), scheme, seed=11)
        assert len(taken) == 999

    @pytest.mark.parametrize("draw_chunk", [7, censoring._DRAW_CHUNK])
    @pytest.mark.parametrize(
        "n, removals",
        [(4000, [1] * 1000 + [0] * 100 + [2] * 3 + [1] * 400 + [3] + [0] * 10 + [1] * 300 + [476]),
         (6500, [0] * 5 + [1] * 2500 + [7] + [1] * 3 + [0] + [1] * 9 + [2, 0, 2] + [1] * 600 + [0] * 40 + [214]),
         (4000, [1] * 2000),
         (32000, [1] * 16000)],
        ids=["runs-between-larger-events", "long-run-then-short-runs", "one-per-failure", "one-per-failure-32000"],
    )
    def test_single_removal_runs_on_the_rank_tree_match_reference_replay(self, draw_chunk, n, removals):
        # at these n every single removal, and at n = 6500 every pair, goes
        # through the rank tree; a chunk of 7 events splits every run
        scheme = CensoringScheme(n, tuple(removals))
        times = np.random.default_rng(n).uniform(0.1, 5.0, size=n)
        with patch.object(censoring, "_DRAW_CHUNK", draw_chunk):
            assert_same_replay(times, np.arange(n) % 3, scheme, seed=29)

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
            ds = run_life_test(times, np.zeros(n, dtype=int), scheme, rng)
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
            x = 0.5 * xi**2 * run_life_test(times, labels, scheme, rng).observed_times ** 2
            spacings[i] = gamma * np.diff(x, prepend=0.0)
        assert kstest(spacings.ravel(), "expon").pvalue > 0.01


class TestNumpyDrawContract:
    def test_one_integers_call_draws_what_one_choice_per_event_draws(self):
        # run_life_test draws a run of single removals with one rng.integers
        # call, which must give the values of one choice(m, 1, replace=False)
        # per event and leave the generator in the same state; every bound
        # m <= MAX_UNITS < 2**32 takes numpy's 32-bit path
        assert censoring.MAX_UNITS < 2**32
        bounds = [1, 2, 3, 7, 100, 9_999, 10_000, 10_001, 65_537, 2**24 + 1, censoring.MAX_UNITS - 1, censoring.MAX_UNITS]
        for seed in range(200):
            ms = np.random.default_rng(seed).permutation(bounds + [1, 2, 10_000])
            batch, per_event = np.random.default_rng(seed), np.random.default_rng(seed)
            drawn = batch.integers(0, ms).tolist()
            assert drawn == [int(per_event.choice(int(m), 1, replace=False)[0]) for m in ms]
            assert batch.bit_generator.state == per_event.bit_generator.state


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


class TestDatasetCsv:
    def test_roundtrip(self, rng, tmp_path):
        scheme = CensoringScheme(12, (1, 0, 2, 0, 3, 0))
        times = rng.uniform(0.1, 5.0, size=12)
        labels = rng.integers(0, 3, size=12)
        ds = run_life_test(times, labels, scheme, rng)
        path = tmp_path / "data.csv"
        write_dataset_csv(ds, path)
        back = read_dataset_csv(path)
        assert back.scheme == ds.scheme
        assert np.array_equal(back.item_id, ds.item_id)
        assert_allclose(back.y_star, ds.y_star)
        assert np.array_equal(back.observed, ds.observed)
        assert np.array_equal(back.true_label, ds.true_label)
