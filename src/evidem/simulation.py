"""Monte-Carlo study of label quality versus estimation bias.

A replication draws a labelled mixture sample and replays a conventional life
test on it (its experiment; a sweep takes no other plan), corrupts the
labels with per-item Beta error probabilities, builds each method's soft
labels, fits the mixture, aligns components, and scores absolute relative
bias.  A sweep repeats this over a grid of error probabilities or sample
sizes.  ``SweepSpec.experiments[g]`` lists the grid indices gi at which the
experiment drawn at grid index g is fitted: in a rho sweep g = 0 at all, in an
n sweep each g at itself.  Repetition r draws g's experiment, then g's
corruption, from substream (g, 0, r), and each other gi's corruption from
(gi, 0, r), so results never depend on scheduling or worker count.  All
methods fit the same experiment; ``SweepSpec.fits`` lists its fits, UNCERTAIN
and NOISY once per grid point, on its noisy labels, and UNKNOWN, which reads
none, once, and ``SweepSpec.row_fit`` the fit of each of its rows.

The experiments at one n are split into ``min(workers, count)`` contiguous
shards, or more if a shard would hold over ``_BATCH_RECORDS`` fit records.
A shard is one pool task; ``estimator.fit_batch`` fits all its fits in one
batch, each with the iterates it takes alone.  A sweep's rows are one
:func:`row_dtype` record array in (grid point, method, repetition) order,
the columns of ``results.csv``; the summary aggregates them by position, so
a grid value listed twice makes two cells, into one :func:`summary_dtype`
record per (grid point, method, parameter), the columns of ``summary.csv``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from multiprocessing import Pool
from typing import Sequence

import numpy as np

from .censoring import (MAX_UNITS, CensoredDataset, CensoringScheme, _shown, draw_experiment, scheme_from_censor_frac,
                        write_table)
from .estimator import (E2MConfig, LabelMode, SoftLabeledDataset, fit_batch, fit_dtype, make_soft_labels,
                        quantile_spread_init)
from .rayleigh import MixtureParams

__all__ = [
    "CorruptionConfig",
    "SweepSpec",
    "INIT_RULES",
    "draw_error_probs",
    "corrupt_labels",
    "rabias",
    "align_to_truth",
    "truth_offset_init",
    "start_params",
    "substream",
    "row_dtype",
    "summary_dtype",
    "run_shard",
    "run_sweep",
    "aggregate_report",
    "curve",
    "parameter_names",
    "write_results_csv",
    "write_summary_csv",
    "write_figure_csv",
]

UNRELIABLE_FAILURE_FRAC = 0.5
TRUTH_OFFSET = 0.01
# the first-iterate rules of start_params, shared by fit and sweeps
INIT_RULES = ("truth-offset", "quantile-spread", "model")
# align_to_truth searches all p! component orders
MAX_ALIGN_COMPONENTS = 6
# records per sweep batch: past about this many, a batched E2M step costs more
# per record than a smaller batch's (its arrays outgrow the CPU caches)
_BATCH_RECORDS = 2**15


@dataclass(frozen=True)
class CorruptionConfig:
    """Per-item error probabilities: i.i.d. Beta with mean rho and the given sd.

    Construction solves the Beta once.  An sd infeasible for a Beta with mean
    rho is clamped to 0.95 * sqrt(rho (1 - rho)); ``effective_sd`` is the value
    actually used, and run manifests record it.  ``shapes`` is the
    moment-matched (alpha, beta), or None when the draw is the constant rho
    (an effective sd of 0: sd 0 or rho in {0, 1}).  A ValueError is raised
    when either shape is not a finite positive float: when sd**2 is so small
    that they overflow (sd 1e-155, say), or rho so small that they round to 0
    (rho 5e-324).
    """

    rho: float
    sd: float = 0.2
    effective_sd: float = field(init=False, compare=False)
    shapes: tuple[float, float] | None = field(init=False, compare=False)

    def __post_init__(self) -> None:
        rho = self.rho
        if not 0.0 <= rho <= 1.0:
            raise ValueError(f"rho must be in [0, 1], got {rho}")
        if not self.sd >= 0.0:
            raise ValueError(f"sd must be nonnegative, got {self.sd}")
        sd = float(min(self.sd, 0.95 * np.sqrt(rho * (1.0 - rho))))
        shapes = None
        if sd > 0.0:
            nu = rho * (1.0 - rho) / sd**2 - 1.0 if sd**2 > 0.0 else math.inf
            shapes = (rho * nu, (1.0 - rho) * nu)
            if not all(0.0 < shape < math.inf for shape in shapes):
                raise ValueError(f"rho={rho} and sd={sd} give no Beta in floating point: "
                                 f"its shapes {shapes} must be finite and positive")
        object.__setattr__(self, "effective_sd", sd)
        object.__setattr__(self, "shapes", shapes)


def draw_error_probs(cfg: CorruptionConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n error probabilities; degenerate draws (``cfg.shapes`` None) are constant."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if cfg.shapes is None:
        return np.full(n, cfg.rho)
    return rng.beta(*cfg.shapes, size=n)


def corrupt_labels(
    true_labels: np.ndarray,
    error_probs: np.ndarray,
    n_components: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Apply the label-noise protocol and return the noisy hard labels.

    With probability q_j the hard label is redrawn uniformly over all
    components (the original included), otherwise it is kept.
    """
    z = np.asarray(true_labels, dtype=int)
    q = np.asarray(error_probs, dtype=float)
    if z.shape != q.shape:
        raise ValueError("true_labels and error_probs must have equal length")
    flip = rng.random(z.size) < q
    redraw = rng.integers(0, n_components, size=z.size)
    return np.where(flip, redraw, z)


def rabias(estimate: float | np.ndarray, truth: float | np.ndarray) -> float | np.ndarray:
    """Absolute relative bias |(estimate - truth) / truth|, elementwise for arrays."""
    truth = np.asarray(truth, dtype=float)
    if np.any(truth == 0.0):
        raise ValueError("truth must be nonzero")
    return np.abs((np.asarray(estimate, dtype=float) - truth) / truth)


def align_to_truth(lambdas: np.ndarray, xis: np.ndarray, truth: MixtureParams) -> tuple[np.ndarray, np.ndarray]:
    """Resolve label switching: reorder the components of each row of the (B, p)
    estimates by the first order, in ``itertools.permutations`` order, of least
    total relative xi bias against the truth (exhaustive for small p).  A row
    holding NaN keeps its order."""
    p = truth.n_components
    if xis.shape[1] != p:
        raise ValueError("estimate and truth must have the same number of components")
    if p > MAX_ALIGN_COMPONENTS:
        raise ValueError(f"exhaustive alignment is only supported for p <= {MAX_ALIGN_COMPONENTS}")
    order, least = np.tile(np.arange(p), (len(xis), 1)), np.full(len(xis), np.inf)
    for perm in itertools.permutations(range(p)):
        cost = rabias(xis[:, list(perm)], truth.xis).sum(axis=1)
        better = cost < least
        order[better], least[better] = perm, cost[better]
    return np.take_along_axis(lambdas, order, axis=1), np.take_along_axis(xis, order, axis=1)


def truth_offset_init(truth: MixtureParams) -> MixtureParams:
    """Reproduction-protocol starting point: true weights, true xi minus :data:`TRUTH_OFFSET`, which each must exceed."""
    if np.any(truth.xis <= TRUTH_OFFSET):
        raise ValueError(f"'model.xis' must exceed {TRUTH_OFFSET} for the truth-offset start, got {truth.xis.tolist()}")
    return MixtureParams(truth.lambdas, truth.xis - TRUTH_OFFSET)


def start_params(rule: str, ds: CensoredDataset, n_components: int, model: MixtureParams | None) -> MixtureParams:
    """The first E2M iterate under ``rule``, one of :data:`INIT_RULES`: the
    model itself, the model's truth-offset start, or the data's quantile
    spread, for which ``model`` may be None."""
    if rule == "quantile-spread":
        return quantile_spread_init(ds, n_components)
    return model if rule == "model" else truth_offset_init(model)


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one replication, stable in (seed, key)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(master_seed, spawn_key=tuple(key))))


@dataclass(frozen=True)
class SweepSpec:
    """Grid driver: vary ``rho`` or ``n`` over ``grid``, ``reps`` runs per cell.

    A rho sweep replays ``scheme`` at every grid value, with ``corruption.sd``
    at rho = ``grid[k]``; an n sweep scales the plan, ``censor_frac`` of
    ``round(grid[k])`` units censored, and keeps ``corruption``.
    Construction builds, and so checks, the plan ``schemes[k]`` and the
    corruption ``corruptions[k]`` each grid value replays and the layout:
    ``experiments``, ``((0, ..., G - 1),)`` over rho and ``((0,), (1,), ...)``
    over n; ``fits``, one experiment's fits as (method, k), k the position in
    ``experiments[g]`` of the labels read, 0 for UNKNOWN; ``row_fit``, each
    row's fit.  It checks the start rule and the model, and bounds the records
    fitted by ``MAX_UNITS``, so a spec that builds is one :func:`run_sweep` can run.
    """

    variable: str
    grid: tuple[float, ...]
    reps: int
    true_params: MixtureParams
    scheme: CensoringScheme
    censor_frac: float
    corruption: CorruptionConfig
    methods: tuple[LabelMode, ...] = tuple(LabelMode)
    init: str = "truth-offset"
    fit_config: E2MConfig = field(default_factory=E2MConfig)
    schemes: tuple[CensoringScheme, ...] = field(init=False, repr=False, compare=False)
    corruptions: tuple[CorruptionConfig, ...] = field(init=False, repr=False, compare=False)
    experiments: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    fits: tuple[tuple[LabelMode, int], ...] = field(init=False, repr=False, compare=False)
    row_fit: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.variable not in ("rho", "n"):
            raise ValueError(f"'sweep.variable' must be 'rho' or 'n', got {self.variable!r}")
        if len(self.grid) == 0:
            raise ValueError("'sweep.grid' must be nonempty")
        if self.reps < 1:
            raise ValueError("'reps' must be at least 1")
        if self.init not in INIT_RULES:
            raise ValueError(f"unknown init rule {self.init!r}; valid: {', '.join(INIT_RULES)}")
        if self.init == "truth-offset":
            truth_offset_init(self.true_params)
        if self.true_params.n_components > MAX_ALIGN_COMPONENTS:
            raise ValueError(f"sweeps align at most {MAX_ALIGN_COMPONENTS} components to the truth, "
                             f"the model has {self.true_params.n_components}")
        if not np.all(self.true_params.lambdas > 0.0):
            raise ValueError("sweeps score the relative bias of every weight, so 'model.lambdas' must all be "
                             f"positive, got {self.true_params.lambdas.tolist()}")
        if not self.scheme.conventional:
            raise ValueError("sweeps replay conventional plans only, which remove every survivor at the last "
                             "failure; the configured 'scheme.R' removes units before it")
        grid = []
        for g in self.grid:
            try:
                grid.append(float(g))
            except OverflowError:  # an integer beyond the float range
                raise ValueError(f"'sweep.grid' values must be numbers in the float range, "
                                 f"got <{len(str(abs(g)))} digits>") from None
        object.__setattr__(self, "grid", tuple(grid))
        object.__setattr__(self, "methods", tuple(LabelMode(m) for m in self.methods))
        schemes, corruptions = [], []
        for g in self.grid:
            try:
                if self.variable == "rho":
                    schemes.append(self.scheme)
                    corruptions.append(CorruptionConfig(g, self.corruption.sd))
                elif not math.isfinite(g):
                    raise ValueError(f"n must be finite, got {g}")
                else:
                    schemes.append(scheme_from_censor_frac(int(round(g)), self.censor_frac))
                    corruptions.append(self.corruption)
            except ValueError as exc:
                raise ValueError(f"'sweep.grid' values of a sweep over {self.variable} must each give a "
                                 f"valid experiment; {g!r} does not: {exc}") from None
        object.__setattr__(self, "schemes", tuple(schemes))
        object.__setattr__(self, "corruptions", tuple(corruptions))
        experiments = (tuple(range(len(grid))),) if self.variable == "rho" else tuple((g,) for g in range(len(grid)))
        fits = {}  # each fit's index, in first-occurrence order: UNKNOWN once, the others once per grid point
        row_fit = tuple(fits.setdefault((m, 0 if m is LabelMode.UNKNOWN else k), len(fits))
                        for k in range(len(experiments[0])) for m in self.methods)
        object.__setattr__(self, "experiments", experiments)
        object.__setattr__(self, "fits", tuple(fits))
        object.__setattr__(self, "row_fit", row_fit)
        records = self.reps * len(fits) * sum(schemes[g].n for g in range(len(experiments)))
        if records > MAX_UNITS:
            raise ValueError(f"a sweep may fit at most {MAX_UNITS} records in all (reps x fits per replication x n, "
                             f"summed over an n sweep's grid); this one fits {_shown(records)}")


def row_dtype(p: int) -> np.dtype:
    """The fields of a sweep's rows, one record per (grid point, method, rep) of a p-component model.

    The fit's fields are those of ``estimator.fit_dtype``, its ``error`` given
    as a message.  A failed fit holds NaN floats and its error message.
    ``method`` (the label mode's name) and ``error`` are objects, as a message
    has no length bound.
    """
    *fitted, error = fit_dtype(p).descr
    return np.dtype([("grid_value", float), ("method", object), ("rep", int), *fitted,
                     ("rabias_lambdas", float, (p,)), ("rabias_xis", float, (p,)), ("failed", bool), error])


def run_shard(spec: SweepSpec, master_seed: int, keys: Sequence[tuple[int, int]]) -> np.recarray:
    """Sample, censor, corrupt, fit, align, score: the experiment of each (grid
    index g, rep) key of ``spec``, g one of ``spec.experiments``, all at one n,
    with every fit in one batch: the labels of each grid point of
    ``spec.experiments[g]``, then a dataset per entry of ``spec.fits``.  The
    :func:`row_dtype` rows go key by key, grid point by grid point, method by
    method, each the fit ``spec.row_fit`` names.  A failed fit (starved
    component, degenerate likelihood) records its error on its rows instead
    of raising it, so sweep aggregates can account for it.
    """
    truth = spec.true_params
    p = truth.n_components
    datasets, inits, fit_of, keyed = [], [], [], []  # row k: fit fit_of[k] at keyed[k], (grid value, method, rep)
    for g, rep in keys:
        rng = substream(master_seed, g, 0, rep)
        ds = draw_experiment(truth, spec.schemes[g], rng)
        labels = []  # (noisy labels, error probabilities) of each grid point
        for gi in spec.experiments[g]:
            noise = rng if gi == g else substream(master_seed, gi, 0, rep)
            q = draw_error_probs(spec.corruptions[gi], ds.n, noise)
            labels.append((corrupt_labels(ds.true_label, q, p, noise), q))
        fit_of += [len(datasets) + f for f in spec.row_fit]
        datasets += [SoftLabeledDataset(ds, make_soft_labels(m, p, ds.n, *labels[k])) for m, k in spec.fits]
        inits += [start_params(spec.init, ds, p, truth)] * len(spec.fits)
        keyed += [(spec.grid[gi], m.value, rep) for gi in spec.experiments[g] for m in spec.methods]
    table, _ = fit_batch(datasets, inits, spec.fit_config)
    fitted = np.zeros(len(datasets), row_dtype(p)).view(np.recarray)
    fitted.lambdas, fitted.xis = align_to_truth(table["lambdas"], table["xis"], truth)
    fitted.iterations, fitted.converged, fitted.gll = table["iterations"], table["converged"], table["gll"]
    fitted.error = ["" if exc is None else f"{type(exc).__name__}: {exc}" for exc in table["error"]]
    fitted.failed = fitted.error != ""
    fitted.rabias_lambdas = rabias(fitted.lambdas, truth.lambdas)
    fitted.rabias_xis = rabias(fitted.xis, truth.xis)
    rows = fitted[fit_of]
    rows.grid_value, rows.method, rows.rep = (list(column) for column in zip(*keyed))
    return rows


def summary_dtype() -> np.dtype:
    """The fields of a sweep's summary, one record per (grid point, method,
    parameter): the columns of ``summary.csv`` after ``variable``."""
    return np.dtype([("grid_value", float), ("method", object), ("parameter", object), ("mean_rabias", float),
                     ("sd_rabias", float), ("n_success", int), ("n_failed", int), ("reliable", bool)])


def curve(summary: np.ndarray, method: LabelMode | str, parameter: str) -> np.ndarray:
    """One method's summary records for one parameter, by grid value; repeated grid values keep their order."""
    pts = summary[(summary["method"] == LabelMode(method).value) & (summary["parameter"] == parameter)]
    return pts[np.argsort(pts["grid_value"], kind="stable")]


def parameter_names(p: int) -> list[str]:
    return [f"lambda_{z + 1}" for z in range(p)] + [f"xi_{z + 1}" for z in range(p)]


def run_sweep(spec: SweepSpec, master_seed: int, workers: int = 1) -> np.recarray:
    """The :func:`row_dtype` rows of the full grid, in (grid point, method, rep) order: one task per
    shard of the experiment keys at one n (see :func:`run_shard`); deterministic in (spec, master_seed)
    regardless of workers."""
    tasks = []
    for n in dict.fromkeys(spec.schemes[g].n for g in range(len(spec.experiments))):
        keys = [(g, rep) for g in range(len(spec.experiments)) if spec.schemes[g].n == n for rep in range(spec.reps)]
        shards = min(len(keys), max(workers, -(-len(keys) * len(spec.fits) * n // _BATCH_RECORDS)))
        tasks += [(spec, master_seed, keys[len(keys) * k // shards:len(keys) * (k + 1) // shards])
                  for k in range(shards)]
    processes = min(workers, len(tasks))
    if processes > 1:
        with Pool(processes) as pool:
            shard_rows = pool.starmap(run_shard, tasks, chunksize=1)
    else:
        shard_rows = [run_shard(*task) for task in tasks]
    position = [(gi * len(spec.methods) + m) * spec.reps + rep for *_, keys in tasks  # in run_shard's row order
                for g, rep in keys for gi in spec.experiments[g] for m in range(len(spec.methods))]
    return np.concatenate(shard_rows)[np.argsort(position)].view(np.recarray)


def aggregate_report(spec: SweepSpec, rows: np.recarray) -> np.ndarray:
    """The :func:`summary_dtype` summary of ``rows`` in :func:`run_sweep` order:
    ``spec.reps`` rows per (grid point, method) cell, grid point by grid point.
    Cells are found by position, so a repeated grid value makes cells of its own."""
    p = spec.true_params.n_components
    keys = [(gv, method) for gv in spec.grid for method in spec.methods]
    if len(rows) != len(keys) * spec.reps:
        raise ValueError(f"expected {len(keys) * spec.reps} rows, got {len(rows)}")
    values = np.hstack([rows.rabias_lambdas, rows.rabias_xis])  # in parameter_names order
    table = np.zeros(len(keys) * 2 * p, summary_dtype())
    for k, (gv, method) in enumerate(keys):
        block = slice(k * spec.reps, (k + 1) * spec.reps)
        if np.any(rows.grid_value[block] != gv) or any(m != method.value for m in rows.method[block]):
            raise ValueError(f"rows are not in sweep order: cell {k} should be ({gv}, {method.value})")
        # one contiguous row per parameter: numpy sums each row in the order it sums a 1-D array
        ok = np.ascontiguousarray(values[block][~rows.failed[block]].T)
        n_ok = ok.shape[1]
        cell = table[k * 2 * p:(k + 1) * 2 * p]
        cell["grid_value"], cell["method"], cell["parameter"] = gv, method.value, parameter_names(p)
        cell["n_success"], cell["n_failed"] = n_ok, spec.reps - n_ok
        cell["reliable"] = spec.reps - n_ok <= UNRELIABLE_FAILURE_FRAC * spec.reps
        cell["mean_rabias"] = ok.mean(axis=1) if n_ok else np.nan
        cell["sd_rabias"] = ok.std(axis=1, ddof=1) if n_ok > 1 else (0.0 if n_ok else np.nan)
    return table


def write_results_csv(spec: SweepSpec, rows: np.recarray, path) -> None:
    """One row per fit, byte-stable for a fixed (spec, seed): a column per
    :func:`row_dtype` field, or per component of a parameter vector.  A failed
    fit's estimates, iterations and convergence are blank."""
    header, columns = ["variable"], [lambda s: [spec.variable] * (s.stop - s.start)]
    for name in rows.dtype.names:
        values = rows[name]
        if values.ndim == 2:
            header += [f"{name[:-1]}_{z + 1}" for z in range(values.shape[1])]
            columns += list(values.T)
            continue
        header.append(name)
        if name in ("iterations", "converged"):
            columns.append(lambda s, values=values: np.where(rows.failed[s], None, values[s]))
        else:
            columns.append(values)
    write_table(path, header, len(rows), columns)


def write_summary_csv(spec: SweepSpec, summary: np.ndarray, path) -> None:
    """Per (grid point, method, parameter) aggregate of the replication rows:
    the sweep variable, then a column per :func:`summary_dtype` field."""
    write_table(path, ["variable", *summary.dtype.names], len(summary),
                [lambda s: [spec.variable] * (s.stop - s.start), *(summary[name] for name in summary.dtype.names)])


def write_figure_csv(spec: SweepSpec, curves: Sequence[np.ndarray], path) -> None:
    """Plot-ready long-format table for one parameter across the grid: its :func:`curve` for each of
    ``spec.methods``, in that order."""
    table = np.concatenate(curves)
    names = ["grid_value", "method", "mean_rabias", "sd_rabias", "n_failed"]
    write_table(path, [spec.variable, *names[1:]], len(table), [table[name] for name in names])
