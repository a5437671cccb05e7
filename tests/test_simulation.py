import itertools
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from evidem import simulation
from evidem.censoring import CensoringScheme, scheme_from_censor_frac
from evidem.estimator import E2MConfig, LabelMode, make_soft_labels
from evidem.rayleigh import MixtureParams
from evidem.simulation import (
    CorruptionConfig,
    SweepSpec,
    aggregate_report,
    align_to_truth,
    corrupt_labels,
    curve,
    draw_error_probs,
    rabias,
    row_dtype,
    run_shard,
    run_sweep,
    truth_offset_init,
)
import helpers

TRUTH = MixtureParams(np.array([1, 1, 1]) / 3, np.array([4.0, 0.5, 0.8]))
U, N, K = LabelMode.UNCERTAIN, LabelMode.NOISY, LabelMode.UNKNOWN


def small_spec(variable, grid, reps, *, true_params=TRUTH, n=120, censor_frac=0.4, scheme=None, rho=0.1, sd=0.2,
               **fields):
    """A sweep of ``true_params`` over ``scheme``, by default the conventional plan censoring ``censor_frac`` of
    ``n`` units, its labels corrupted at (rho, sd); ``fields`` sets the other :class:`SweepSpec` fields."""
    scheme = scheme or scheme_from_censor_frac(n, censor_frac)
    return SweepSpec(variable, grid, reps, true_params, scheme, censor_frac, CorruptionConfig(rho, sd), **fields)


class TestErrorProbs:
    def test_zero_sd_is_degenerate(self, rng):
        q = draw_error_probs(CorruptionConfig(0.3, sd=0.0), 50, rng)
        assert np.all(q == 0.3)

    def test_moment_matched_shapes(self):
        alpha, beta = CorruptionConfig(0.5, 0.2).shapes
        assert_allclose(alpha, 2.625, rtol=1e-12)
        assert_allclose(beta, 2.625, rtol=1e-12)

    def test_sample_mean_clt_bound(self, rng):
        n = 50_000
        q = draw_error_probs(CorruptionConfig(0.3, sd=0.2), n, rng)
        assert np.all((q >= 0) & (q <= 1))
        assert abs(q.mean() - 0.3) < 3 * 0.2 / math.sqrt(n)

    def test_infeasible_sd_clamped(self, rng):
        # a Beta with mean 0.01 cannot have sd 0.2
        sd_eff = CorruptionConfig(0.01, 0.2).effective_sd
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

    @pytest.mark.parametrize("rho, sd", [(0.3, 1.0e-170), (0.3, 1.0e-155), (5.0e-324, 0.2)],
                             ids=["sd-squared-underflows", "shapes-overflow", "subnormal-rho"])
    def test_beta_without_float_shapes_rejected(self, rho, sd):
        with pytest.raises(ValueError, match="give no Beta in floating point"):
            CorruptionConfig(rho, sd)

    def test_constant_draw_has_no_shapes(self):
        for rho, sd in [(0.3, 0.0), (0.0, 0.2), (1.0, 0.2)]:
            cfg = CorruptionConfig(rho, sd)
            assert cfg.shapes is None and cfg.effective_sd == 0.0

    @given(st.one_of(st.floats(0.0, 1.0), st.sampled_from([5e-324, 1e-310, 2.5e-308, 1e-300, 1 - 2.0**-52])),
           st.one_of(st.floats(0.0, 1e300), st.sampled_from([5e-324, 1e-170, 1e-155, 1e-154, 1e-150])))
    @settings(max_examples=300, deadline=None)
    def test_built_config_draws_probabilities(self, rho, sd):
        """A config either fails to build or draws finite error probabilities in [0, 1]."""
        try:
            cfg = CorruptionConfig(rho, sd)
        except ValueError:
            return
        q = draw_error_probs(cfg, 64, np.random.default_rng(0))
        assert np.all(np.isfinite(q) & (q >= 0.0) & (q <= 1.0))


def uncertain_rows(z_star, q, p):
    return make_soft_labels(LabelMode.UNCERTAIN, p, hard_labels=z_star, error_probs=q)


class TestCorruptLabels:
    def test_no_error_keeps_labels(self, rng):
        z = rng.integers(0, 3, size=40)
        z_star = corrupt_labels(z, np.zeros(40), 3, rng)
        assert np.array_equal(z_star, z)
        expect = np.zeros((40, 3))
        expect[np.arange(40), z] = 1.0
        assert_allclose(uncertain_rows(z_star, np.zeros(40), 3), expect)

    def test_full_error_gives_uniform_rows(self, rng):
        z = rng.integers(0, 3, size=40)
        z_star = corrupt_labels(z, np.ones(40), 3, rng)
        assert_allclose(uncertain_rows(z_star, np.ones(40), 3), np.full((40, 3), 1 / 3))

    def test_reference_row_value(self, rng):
        # q = 0.3, p = 3, noisy label = second component
        z_star = corrupt_labels(np.array([1]), np.array([0.3]), 3, rng)
        expect = np.full(3, 0.1)
        expect[z_star[0]] += 0.7
        assert_allclose(uncertain_rows(z_star, np.array([0.3]), 3)[0], expect, rtol=1e-12)

    @given(st.floats(min_value=0.0, max_value=0.99), st.integers(min_value=2, max_value=5))
    @settings(max_examples=80, deadline=None)
    def test_row_structure(self, q, p):
        rng = np.random.default_rng(3)
        z_star = corrupt_labels(np.zeros(1, dtype=int), np.array([q]), p, rng)
        row = uncertain_rows(z_star, np.array([q]), p)[0]
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
        lambdas, xis = align_to_truth(np.array([[0.2, 0.5, 0.3]]), np.array([[0.81, 3.9, 0.52]]), TRUTH)
        assert_allclose(xis, [[3.9, 0.52, 0.81]])
        assert_allclose(lambdas, [[0.5, 0.3, 0.2]])

    def test_identity_when_already_aligned(self):
        xis = np.array([[4.1, 0.49, 0.83]])
        assert_allclose(align_to_truth(np.array([[0.4, 0.3, 0.3]]), xis, TRUTH)[1], xis)

    def test_rows_take_the_first_least_cost_order(self, rng):
        # each row is aligned as a loop over itertools.permutations keeping the first least cost would;
        # a tied row keeps the earlier order, and a NaN row its own
        xis = rng.uniform(0.3, 5.0, size=(40, 3))
        xis[0] = [0.5, 0.5, 0.5]
        xis[1] = np.nan
        lambdas = rng.dirichlet(np.ones(3), size=40)
        got_lambdas, got_xis = align_to_truth(lambdas, xis, TRUTH)
        for row in range(40):
            costs = [np.abs((xis[row, list(perm)] - TRUTH.xis) / TRUTH.xis).sum()
                     for perm in itertools.permutations(range(3))]
            best = list(itertools.permutations(range(3)))[int(np.argmin(costs))]
            assert np.array_equal(got_xis[row], xis[row, list(best)], equal_nan=True)
            assert np.array_equal(got_lambdas[row], lambdas[row, list(best)])


def failed_rows(grid_value, reps, error):
    """Hand-built UNCERTAIN records of failed fits of a 3-component model, as run_shard writes them."""
    return np.rec.fromrecords([(grid_value, "uncertain", rep, np.nan, np.nan, 0, False, np.nan, np.nan, np.nan, True,
                                error) for rep in reps], dtype=row_dtype(3))


@pytest.fixture
def serial_pool(monkeypatch):
    """Stand in for ``multiprocessing.Pool`` with a pool that runs its tasks
    in this process; the list returned holds the worker count of each pool started."""
    started = []

    class SerialPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, tasks, chunksize):
            return [fn(*task) for task in tasks]

    monkeypatch.setattr(simulation, "Pool", SerialPool)
    return started


@pytest.fixture
def batch_sizes(monkeypatch):
    """Record the number of fits of each ``fit_batch`` call a sweep makes, in call order."""
    sizes = []
    fit_batch = simulation.fit_batch

    def spy(datasets, inits, config):
        sizes.append(len(datasets))
        return fit_batch(datasets, inits, config)

    monkeypatch.setattr(simulation, "fit_batch", spy)
    return sizes


class TestReplication:
    def test_deterministic_under_substream(self):
        spec = small_spec("rho", (0.1,), 1)
        a = run_shard(spec, 99, [(0, 0)])[0]
        b = run_shard(spec, 99, [(0, 0)])[0]
        assert not a.failed and not b.failed
        assert a.gll == b.gll
        assert np.array_equal(a.lambdas, b.lambdas)
        assert np.array_equal(a.xis, b.xis)

    def test_zero_error_probability_equates_uncertain_and_noisy(self):
        # both methods read one set of noisy labels per (grid point, rep), the true labels at rho = 0,
        # whether it continues the experiment's generator (grid index 0) or has its own (index 2)
        spec = small_spec("rho", (0.0, 0.3, 0.0), 2, methods=(LabelMode.UNCERTAIN, LabelMode.NOISY))
        rows = run_sweep(spec, master_seed=5)
        uncertain = rows[(rows.grid_value == 0.0) & (rows.method == "uncertain")]
        noisy = rows[(rows.grid_value == 0.0) & (rows.method == "noisy")]
        assert len(uncertain) == 4 and not uncertain.failed.any()
        for name in row_dtype(3).names:
            if name != "method":
                assert np.array_equal(uncertain[name], noisy[name]), name

    def test_finite_outputs(self):
        spec = small_spec("rho", (0.1,), 1)
        rows = run_shard(spec, 17, [(0, 0)])
        assert [row.method for row in rows] == [method.value for method in LabelMode]
        for row in rows:
            assert not row.failed
            assert row.converged
            assert np.isfinite(row.gll)
            assert np.all(row.rabias_xis >= 0)

    def test_clean_labels_recover_truth(self):
        # reference setup with exact labels: estimates land near the truth
        spec = small_spec("rho", (0.0,), 1, n=500, sd=0.0)
        row = run_shard(spec, 8, [(0, 0)])[0]
        assert row.converged
        assert np.all(row.rabias_xis < 0.15)


class TestCell:
    @pytest.mark.parametrize("method", list(LabelMode))
    def test_rows_equal_single_replications(self, method):
        # one shard fits every method of its replications in one batch: a rho sweep's keys (0, rep) each
        # serve every grid point, an n sweep's (grid index, rep) their own; a method's rows equal those
        # of one replication at a time that fits that method alone
        for spec, keys in [(small_spec("rho", (0.1, 0.3), 3, n=80), [(0, 2), (0, 0), (0, 1)]),
                           (small_spec("n", (80, 80), 3, n=80), [(1, 2), (0, 0), (1, 0)])]:
            shard = run_shard(spec, 3, keys)
            points = {"rho": lambda g: (0, 1), "n": lambda g: (g,)}[spec.variable]
            assert [(row.grid_value, row.method, row.rep) for row in shard] == [
                (spec.grid[gi], m.value, rep) for g, rep in keys for gi in points(g) for m in LabelMode]
            mine = shard[shard.method == method.value]
            per_key = len(mine) // len(keys)
            for k, key in enumerate(keys):
                solo = run_shard(replace(spec, methods=(method,)), 3, [key])
                for row, alone in zip(mine[k * per_key:(k + 1) * per_key], solo, strict=True):
                    assert (row.grid_value, row.rep, row.iterations, row.converged, row.failed, row.gll) == (
                        alone.grid_value, alone.rep, alone.iterations, alone.converged, alone.failed, alone.gll)
                    assert np.array_equal(row.xis, alone.xis)
                    assert np.array_equal(row.rabias_lambdas, alone.rabias_lambdas)

    def test_failed_fit_leaves_the_rest_of_its_shard(self):
        # at seed 1275 the NOISY fit of (0.3, rep 2) starves a component, and its batch runs on
        truth = MixtureParams(np.array([0.5, 0.5]), np.array([1.0, 2.0]))
        spec = small_spec("rho", (0.1, 0.3), 4, true_params=truth, n=12, censor_frac=0.5,
                          fit_config=E2MConfig(max_iters=200), methods=(LabelMode.NOISY,))
        shard = run_shard(spec, 1275, [(0, rep) for rep in range(4)])
        assert [(row.grid_value, row.rep) for row in shard if row.failed] == [(0.3, 2)]
        assert shard[5].error.startswith("ComponentStarvedError: ") and np.isnan(shard[5].lambdas).all()
        assert shard[5].error == run_shard(spec, 1275, [(0, 2)])[1].error
        assert all(row.converged and np.isfinite(row.gll) for row in shard if not row.failed)

    def test_report_needs_rows_in_sweep_order(self):
        spec = small_spec("rho", (0.1, 0.3), 1, n=60, methods=(LabelMode.UNCERTAIN,))
        rows = run_sweep(spec, master_seed=5)
        with pytest.raises(ValueError, match="not in sweep order"):
            aggregate_report(spec, rows[::-1])
        with pytest.raises(ValueError, match="expected 2 rows"):
            aggregate_report(spec, rows[:1])


class TestSweep:
    def test_single_cell_report_equals_row(self):
        spec = small_spec("rho", (0.1,), 1, n=80, methods=(LabelMode.UNCERTAIN,))
        rows = run_sweep(spec, master_seed=11)
        assert len(rows) == 1
        row = rows[0]
        for z in range(3):
            cell = helpers.cell(aggregate_report(spec, rows), LabelMode.UNCERTAIN, 0.1, f"xi_{z + 1}")
            assert_allclose(cell.mean_rabias, row.rabias_xis[z])
            assert cell.sd_rabias == 0.0
            assert cell.n_success == 1 and cell.n_failed == 0

    def test_rows_independent_of_method_subset(self):
        solo = run_sweep(small_spec("rho", (0.1,), 2, n=80, methods=(LabelMode.NOISY,)), master_seed=4)
        both = run_sweep(small_spec("rho", (0.1,), 2, n=80, methods=(LabelMode.UNCERTAIN, LabelMode.NOISY)),
                         master_seed=4)
        noisy_solo = [r for r in solo if r.method == "noisy"]
        noisy_both = [r for r in both if r.method == "noisy"]
        for a, b in zip(noisy_solo, noisy_both):
            assert a.gll == b.gll
            assert np.array_equal(a.xis, b.xis)

    def test_unknown_fitted_once_per_replication(self, batch_sizes):
        # UNKNOWN reads no corruption: one fit per replication of a rho sweep, its row repeated at every grid point
        spec = small_spec("rho", (0.0, 0.2, 0.4), 2, n=80)
        rows = run_sweep(spec, master_seed=7)
        assert batch_sizes == [2 * (3 * 2 + 1)]
        unknown = rows[rows.method == "unknown"]
        assert unknown.grid_value.tolist() == [0.0, 0.0, 0.2, 0.2, 0.4, 0.4]
        for rep in range(2):
            first, *others = unknown[unknown.rep == rep]
            for other in others:
                for name in row_dtype(3).names:
                    if name != "grid_value":
                        assert np.array_equal(other[name], first[name]), name

    @pytest.mark.parametrize("workers, records, batches", [(1, 2**15, [15]), (2, 2**15, [5, 10]),
                                                           (1, 600, [5, 5, 5])])
    def test_one_batch_per_shard_of_replications(self, monkeypatch, serial_pool, batch_sizes, workers, records,
                                                 batches):
        # a rho sweep's shard holds whole replications: 2 grid points x 2 corrupted methods + 1 UNKNOWN fit
        # each, 600 records at n = 120
        monkeypatch.setattr(simulation, "_BATCH_RECORDS", records)
        spec = small_spec("rho", (0.1, 0.3), 3)
        rows = run_sweep(spec, master_seed=2, workers=workers)
        assert batch_sizes == batches
        assert serial_pool == ([workers] if workers > 1 else [])
        assert [(row.grid_value, row.method, row.rep) for row in rows] == [
            (gv, m.value, rep) for gv in (0.1, 0.3) for m in LabelMode for rep in range(3)]

    def test_sweep_determinism(self):
        spec = small_spec("n", (60, 90), 2, n=60, methods=(LabelMode.UNCERTAIN,))
        r1 = run_sweep(spec, master_seed=2)
        r2 = run_sweep(spec, master_seed=2)
        for a, b in zip(r1, r2):
            assert a.grid_value == b.grid_value and a.rep == b.rep
            assert a.gll == b.gll

    @pytest.mark.parametrize("workers, records, batches", [(1, 2**15, [4, 2]), (3, 2**15, [1, 1, 2, 1, 1]),
                                                           (1, 100, [1, 1, 2, 1, 1])])
    def test_one_batch_per_shard_of_each_sample_size(self, monkeypatch, serial_pool, batch_sizes, workers, records,
                                                      batches):
        monkeypatch.setattr(simulation, "_BATCH_RECORDS", records)
        spec = small_spec("n", (60, 90, 60), 2, methods=(LabelMode.UNCERTAIN,))
        rows = run_sweep(spec, master_seed=2, workers=workers)
        # the two n = 60 points share their batches, split into 3 uneven shards on 3 workers
        # or when 2 of their 4 replications would exceed the records of a batch
        assert batch_sizes == batches
        assert serial_pool == ([workers] if workers > 1 else [])
        assert [(row.grid_value, row.rep) for row in rows] == [(60, 0), (60, 1), (90, 0), (90, 1), (60, 0), (60, 1)]

    @pytest.mark.parametrize("methods, started", [((LabelMode.UNCERTAIN,), []),
                                                  ((LabelMode.UNCERTAIN, LabelMode.NOISY), [])])
    def test_starts_no_worker_without_a_task(self, serial_pool, methods, started):
        # one grid point at reps 1 is one task, however many methods and workers are asked for
        spec = small_spec("rho", (0.1,), 1, n=40, methods=methods)
        run_sweep(spec, master_seed=3, workers=16)
        assert serial_pool == started

    @pytest.mark.parametrize("variable, grid", [("rho", (0.1, 0.3)), ("n", (60, 90, 60))])
    def test_each_grid_point_experiment_built_once(self, monkeypatch, variable, grid):
        built = []
        build = simulation.scheme_from_censor_frac

        def spy(n, censor_frac):
            built.append(n)
            return build(n, censor_frac)

        monkeypatch.setattr(simulation, "scheme_from_censor_frac", spy)
        spec = small_spec(variable, grid, 2, n=60, methods=(LabelMode.UNCERTAIN, LabelMode.NOISY))
        run_sweep(spec, master_seed=1, workers=1)
        # a rho sweep replays the plan it is given; an n sweep builds each grid value's plan with the spec
        assert built == ([] if variable == "rho" else list(grid))

    def test_failure_accounting_and_reliability(self):
        spec = small_spec("rho", (0.2,), 4, n=40, methods=(LabelMode.UNCERTAIN,))
        rows = failed_rows(0.2, range(3), "ComponentStarvedError: x")
        ok = run_shard(spec, 1, [(0, 3)])
        summary = aggregate_report(spec, np.concatenate([rows, ok]).view(np.recarray))
        cell = helpers.cell(summary, LabelMode.UNCERTAIN, 0.2, "xi_1")
        assert cell.n_failed == 3
        assert cell.n_success == 1
        assert not cell.reliable
        assert cell.n_failed + cell.n_success == spec.reps

    def test_cell_lookup_rejects_a_repeated_grid_value(self):
        spec = small_spec("rho", (0.1, 0.1), 1, n=40, methods=(LabelMode.UNCERTAIN,))
        rows = failed_rows(0.1, [0, 0], "x")
        summary = aggregate_report(spec, rows)
        assert len(curve(summary, LabelMode.UNCERTAIN, "xi_1")) == 2
        with pytest.raises(KeyError, match="grid value 0.1 matches 2"):
            helpers.cell(summary, LabelMode.UNCERTAIN, 0.1, "xi_1")
        with pytest.raises(KeyError, match="grid value 0.3 matches 0"):
            helpers.cell(summary, LabelMode.UNCERTAIN, 0.3, "xi_1")

    def test_cell_lookup_tells_close_grid_values_apart(self):
        # the table holds the grid as given, so a lookup matches a grid value exactly
        spec = small_spec("rho", (0.1, 0.1000001), 1, n=40, methods=(LabelMode.UNCERTAIN,))
        rows = np.concatenate([failed_rows(0.1, [0], "x"), failed_rows(0.1000001, [0], "x")]).view(np.recarray)
        summary = aggregate_report(spec, rows)
        for gv in spec.grid:
            cell = helpers.cell(summary, LabelMode.UNCERTAIN, gv, "xi_1")
            assert (cell.grid_value, cell.method, cell.parameter) == (gv, "uncertain", "xi_1")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            small_spec("bad", (0.1,), 1)
        with pytest.raises(ValueError):
            small_spec("rho", (), 1)
        with pytest.raises(ValueError):
            small_spec("rho", (0.1,), 0)
        # every grid value is checked when the spec is built, not when a worker runs it
        for variable, value in [("rho", 1.2), ("rho", math.nan), ("n", 0.4), ("n", math.inf)]:
            with pytest.raises(ValueError, match="'sweep.grid' values of"):
                small_spec(variable, (0.1 if variable == "rho" else 60, value), 1)
        eight = MixtureParams(np.full(8, 1 / 8), np.arange(1.0, 9.0))
        with pytest.raises(ValueError, match="at most 6 components"):
            small_spec("rho", (0.1,), 1, true_params=eight)
        with pytest.raises(ValueError, match="unknown init rule 'middle'; valid: truth-offset, quantile-spread, model"):
            small_spec("rho", (0.1,), 1, init="middle")

    @pytest.mark.parametrize("variable", ["rho", "n"])
    def test_integer_grid_value_beyond_the_float_range(self, variable):
        # float() of such a value raises OverflowError; the spec reports it as its ValueError
        with pytest.raises(ValueError, match="'sweep.grid' values must be numbers in the float range, got <401 "):
            small_spec(variable, (0.1 if variable == "rho" else 60, -(10**400)), 1)

    @pytest.mark.parametrize("variable", ["rho", "n"])
    def test_progressive_plan_rejected(self, variable):
        # sweeps replay conventional plans only: no unit is removed before the last failure
        progressive = CensoringScheme(6, (1, 1, 1))
        with pytest.raises(ValueError, match="conventional plans only"):
            small_spec(variable, (0.1 if variable == "rho" else 6,), 1, scheme=progressive)
        small_spec(variable, (0.1 if variable == "rho" else 6,), 1, scheme=CensoringScheme(6, (0, 0, 3)))

    def test_figure_one_grid_builds_up_to_the_record_bound(self):
        # the figure-1 sweep fits UNCERTAIN and NOISY at 6 grid points and UNKNOWN once: 13 fits of 500 a rep
        spec = small_spec("rho", (0.0, 0.1, 0.2, 0.3, 0.4, 0.5), 11112, n=500)
        assert len(spec.fits) == 13 and spec.reps * len(spec.fits) * 500 == 72_228_000
        with pytest.raises(ValueError, match=r"at most 100000000 records .* this one fits <9 digits>"):
            small_spec("rho", spec.grid, 15385, n=500)
        # an n sweep fits every method once per grid point
        assert len(small_spec("n", (60, 90), 2).fits) == 3

    def test_zero_true_weight_rejected(self):
        # the relative bias of a weight whose true value is 0 is undefined
        zero = MixtureParams(np.array([1.0, 0.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="'model.lambdas' must all be positive"):
            small_spec("rho", (0.1,), 1, true_params=zero, init="quantile-spread")

    def test_builds_the_plan_and_corruption_it_replays(self):
        # a rho sweep replays its plan itself and corrupts at each grid value with the configured sd
        spec = small_spec("rho", (0.1, 0.3), 1, rho=0.5)
        assert all(scheme is spec.scheme for scheme in spec.schemes) and len(spec.schemes) == 2
        assert spec.corruptions == (CorruptionConfig(0.1, 0.2), CorruptionConfig(0.3, 0.2))
        # an n sweep censors censor_frac of each grid value's units and keeps the configured corruption
        spec = small_spec("n", (60, 90.4), 1, censor_frac=1 / 3)
        assert spec.schemes == (scheme_from_censor_frac(60, 1 / 3), scheme_from_censor_frac(90, 1 / 3))
        assert [scheme.J for scheme in spec.schemes] == [40, 60]
        assert all(corruption is spec.corruption for corruption in spec.corruptions)
        assert spec.corruption == CorruptionConfig(0.1, 0.2)
        # an n beyond MAX_UNITS is named by its digits
        with pytest.raises(ValueError, match=r"1e\+300 does not: need 1 <= n <= 100000000, got n=<301 digits>"):
            small_spec("n", (60, 1e300), 1)

    @pytest.mark.parametrize("variable, grid, experiments", [
        ("rho", (0.0, 0.1, 0.3), ((0, 1, 2),)),
        ("n", (60, 90), ((0,), (1,))),
        ("n", (40, 60, 40), ((0,), (1,), (2,))),
    ], ids=["rho", "n", "repeated-n"])
    def test_experiments_map_each_drawing_grid_index_to_where_it_is_fitted(self, variable, grid, experiments):
        # a rho sweep draws one experiment, at grid index 0, and fits it at every grid point; an n sweep draws one
        # at each grid index, a repeated n included, and fits it there alone
        spec = small_spec(variable, grid, 1)
        assert spec.experiments == experiments
        with pytest.raises(TypeError):
            spec.experiments[0] = (0,)

    @pytest.mark.parametrize("variable, grid, methods, fits, row_fit", [
        # the figure-1 grid: UNCERTAIN and NOISY at each of 6 grid points, UNKNOWN once, its row repeated
        ("rho", (0.0, 0.1, 0.2, 0.3, 0.4, 0.5), (U, N, K),
         ((U, 0), (N, 0), (K, 0), *((m, k) for k in range(1, 6) for m in (U, N))),
         (0, 1, 2, *(f for k in range(1, 6) for f in (2 * k + 1, 2 * k + 2, 2)))),
        ("rho", (0.1, 0.3, 0.5), (U, N), ((U, 0), (N, 0), (U, 1), (N, 1), (U, 2), (N, 2)), (0, 1, 2, 3, 4, 5)),
        ("rho", (0.1, 0.3, 0.5), (K,), ((K, 0),), (0, 0, 0)),
        # the first occurrence sets the order: UNKNOWN listed first is fitted first
        ("rho", (0.1, 0.3), (K, U), ((K, 0), (U, 0), (U, 1)), (0, 1, 0, 2)),
        ("n", (60, 90), (U, N, K), ((U, 0), (N, 0), (K, 0)), (0, 1, 2)),
        ("n", (40, 60, 40), (U, N, K), ((U, 0), (N, 0), (K, 0)), (0, 1, 2)),
    ], ids=["figure-1", "rho-without-unknown", "unknown-alone", "unknown-first", "n", "repeated-n"])
    def test_fits_and_row_fit_list_each_experiments_fits_once(self, variable, grid, methods, fits, row_fit):
        # fits: (method, position in experiments[g] of the labels read) in batch order; row_fit: the fit of each
        # row, grid point by grid point, method by method
        spec = small_spec(variable, grid, 1, methods=methods)
        assert spec.fits == fits and spec.row_fit == row_fit
        assert len(spec.row_fit) == len(spec.experiments[0]) * len(methods)

    @pytest.mark.parametrize("variable, grid", [("rho", (0.0, 0.1, 0.3)), ("n", (40, 60, 40))], ids=["rho", "n"])
    def test_pickles_as_plain_data(self, monkeypatch, variable, grid):
        # a spec reaches a worker as the fields it holds: the worker builds no plan or corruption again
        spec = small_spec(variable, grid, 1)
        calls = []

        def spy(original):
            def call(*args, **kwargs):
                calls.append(original)
                return original(*args, **kwargs)
            return call

        monkeypatch.setattr(simulation, "scheme_from_censor_frac", spy(simulation.scheme_from_censor_frac))
        monkeypatch.setattr(CorruptionConfig, "__post_init__", spy(CorruptionConfig.__post_init__))
        copy = pickle.loads(pickle.dumps(spec))
        assert calls == []
        assert repr(copy) == repr(spec)
        for name in ("schemes", "corruptions", "experiments", "fits", "row_fit"):
            assert getattr(copy, name) == getattr(spec, name)
        # the spies do see a spec built from its arguments
        small_spec(variable, grid, 1)
        assert calls


class TestInitRule:
    def test_truth_offset(self):
        init = truth_offset_init(TRUTH)
        assert_allclose(init.lambdas, TRUTH.lambdas)
        assert_allclose(init.xis, TRUTH.xis - 0.01)

    def test_truth_offset_start_is_checked_when_the_experiment_is_built(self):
        # a spec that builds is one run_sweep can run; the start xi of 0.005 - 0.01 is not a valid xi
        small = MixtureParams(np.array([0.5, 0.5]), np.array([0.005, 1.0]))
        message = r"'model.xis' must exceed 0.01 for the truth-offset start, got \[0.005, 1.0\]"
        with pytest.raises(ValueError, match=message):
            small_spec("rho", (0.1,), 1, true_params=small, n=40, censor_frac=0.5)
        with pytest.raises(ValueError, match=message):
            truth_offset_init(small)
        small_spec("rho", (0.1,), 1, true_params=small, init="model")  # the other rules start from a valid xi
