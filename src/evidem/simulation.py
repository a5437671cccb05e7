"""Monte-Carlo study of label quality versus estimation bias.

One replication draws a labelled mixture sample, runs the progressively
censored life test, corrupts the labels with per-item Beta error
probabilities, builds the soft labels for the requested supervision regime,
fits the mixture, aligns components, and scores absolute relative bias.
A sweep repeats this over a grid of error probabilities or sample sizes,
with one independent random substream per (grid point, method, repetition)
so results never depend on scheduling or worker count.

The sweep's pool task is one (grid point, method) cell: it draws every
replication from its own substream, in replication order, and fits them all
as one batch with ``estimator.fit_batch``, which gives each fit the iterates
it would take alone.  The cell's rows are aggregated by their position in the
sweep, so a grid value listed twice makes two cells.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field, replace
from multiprocessing import Pool
from typing import Sequence

import numpy as np

from .censoring import CensoredDataset, CensoringScheme, run_life_test, scheme_from_censor_frac
from .estimator import (
    E2MConfig,
    EstimationError,
    LabelMode,
    SoftLabeledDataset,
    fit_batch,
    make_soft_labels,
    quantile_spread_init,
)
from .rayleigh import MixtureParams, sample_labeled

__all__ = [
    "CorruptionConfig",
    "ExperimentConfig",
    "SweepSpec",
    "ReplicationResult",
    "RABiasCell",
    "RABiasReport",
    "SweepResult",
    "METHOD_ORDER",
    "effective_sd",
    "beta_shape_params",
    "draw_error_probs",
    "corrupt_labels",
    "simulate_dataset",
    "rabias",
    "align_to_truth",
    "truth_offset_init",
    "substream",
    "run_cell",
    "run_replication",
    "run_sweep",
    "parameter_names",
    "write_results_csv",
    "write_summary_csv",
    "write_figure_csv",
]

# Canonical method ordering; substream keys index into this, not into the
# user's method list, so adding or dropping a method never reshuffles seeds.
METHOD_ORDER = (LabelMode.UNCERTAIN, LabelMode.NOISY, LabelMode.UNKNOWN)

UNRELIABLE_FAILURE_FRAC = 0.5
TRUTH_OFFSET = 0.01
# align_to_truth searches all p! component orders
MAX_ALIGN_COMPONENTS = 6


@dataclass(frozen=True)
class CorruptionConfig:
    """Per-item error probabilities: i.i.d. Beta with mean rho and the given sd.

    When the requested sd is infeasible for a Beta with mean rho it is
    clamped to 0.95 * sqrt(rho (1 - rho)); ``effective_sd`` reports the
    value actually used, and run manifests record it.
    """

    rho: float
    sd: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must be in [0, 1], got {self.rho}")
        if self.sd < 0.0:
            raise ValueError(f"sd must be nonnegative, got {self.sd}")


def effective_sd(rho: float, sd: float) -> float:
    """The sd actually used: clamped to keep the Beta moment match feasible."""
    bound = 0.95 * np.sqrt(rho * (1.0 - rho))
    return float(min(sd, bound))


def beta_shape_params(rho: float, sd: float) -> tuple[float, float]:
    """Moment-matched Beta(alpha, beta) with mean rho and standard deviation sd."""
    if sd <= 0.0:
        raise ValueError("sd must be positive to solve for Beta shapes")
    nu = rho * (1.0 - rho) / sd**2 - 1.0
    if nu <= 0.0:
        raise ValueError(f"sd={sd} is infeasible for a Beta with mean {rho}")
    return rho * nu, (1.0 - rho) * nu


def draw_error_probs(cfg: CorruptionConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n error probabilities; degenerate draws (sd 0 or rho in {0, 1}) are constant."""
    if n < 1:
        raise ValueError("n must be at least 1")
    sd = effective_sd(cfg.rho, cfg.sd)
    if sd == 0.0:
        return np.full(n, cfg.rho)
    alpha, beta = beta_shape_params(cfg.rho, sd)
    return rng.beta(alpha, beta, size=n)


def corrupt_labels(
    true_labels: np.ndarray,
    error_probs: np.ndarray,
    n_components: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the label-noise protocol.

    With probability q_j the hard label is redrawn uniformly over all
    components (the original included), otherwise it is kept.  Returns the
    noisy hard labels and the plausibility rows q/p + (1 - q) * indicator.
    """
    z = np.asarray(true_labels, dtype=int)
    q = np.asarray(error_probs, dtype=float)
    if z.shape != q.shape:
        raise ValueError("true_labels and error_probs must have equal length")
    flip = rng.random(z.size) < q
    redraw = rng.integers(0, n_components, size=z.size)
    z_star = np.where(flip, redraw, z)
    pl = make_soft_labels(LabelMode.UNCERTAIN, n_components, hard_labels=z_star, error_probs=q)
    return z_star, pl


def simulate_dataset(
    truth: MixtureParams,
    scheme: CensoringScheme,
    corruption: CorruptionConfig,
    rng: np.random.Generator,
) -> tuple[CensoredDataset, np.ndarray, np.ndarray]:
    """Sample labelled lifetimes, run the life test, and corrupt the labels.

    Returns the censored dataset, the noisy hard labels and the UNCERTAIN
    plausibility rows, both in the dataset's record order.
    """
    times, labels = sample_labeled(truth, scheme.n, rng)
    ds = run_life_test(times, labels, scheme, rng)
    q = draw_error_probs(corruption, scheme.n, rng)
    z_star, pl = corrupt_labels(ds.true_label, q, truth.n_components, rng)
    return ds, z_star, pl


def rabias(estimate: float, truth: float) -> float:
    """Absolute relative bias |(estimate - truth) / truth|."""
    if truth == 0.0:
        raise ValueError("truth must be nonzero")
    return abs((float(estimate) - float(truth)) / float(truth))


def align_to_truth(estimate: MixtureParams, truth: MixtureParams) -> MixtureParams:
    """Resolve label switching: permute estimated components to minimize
    the total relative xi bias against the truth (exhaustive for small p)."""
    p = truth.n_components
    if estimate.n_components != p:
        raise ValueError("estimate and truth must have the same number of components")
    if p > MAX_ALIGN_COMPONENTS:
        raise ValueError(f"exhaustive alignment is only supported for p <= {MAX_ALIGN_COMPONENTS}")
    best, best_cost = None, np.inf
    for perm in itertools.permutations(range(p)):
        cost = float(np.abs((estimate.xis[list(perm)] - truth.xis) / truth.xis).sum())
        if cost < best_cost:
            best, best_cost = perm, cost
    return estimate.permuted(list(best))


def truth_offset_init(truth: MixtureParams, offset: float = TRUTH_OFFSET) -> MixtureParams:
    """Reproduction-protocol starting point: true weights, true xi minus a nudge."""
    return MixtureParams(truth.lambdas, truth.xis - offset)


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one replication, stable in (seed, key)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(master_seed, spawn_key=tuple(key))))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one replication needs except the method and the generator."""

    true_params: MixtureParams
    n: int
    censor_frac: float
    rho: float
    sd: float = 0.2
    init: str = "truth-offset"
    fit_config: E2MConfig = field(default_factory=E2MConfig)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 0.0 <= self.censor_frac < 1.0:
            raise ValueError("censor_frac must be in [0, 1)")
        if self.init not in ("truth-offset", "quantile-spread"):
            raise ValueError(f"unknown init rule {self.init!r}")
        CorruptionConfig(self.rho, self.sd)


@dataclass(frozen=True)
class SweepSpec:
    """Grid driver: vary ``rho`` or ``n`` over ``grid``, ``reps`` runs per cell."""

    variable: str
    grid: tuple[float, ...]
    reps: int
    base: ExperimentConfig
    methods: tuple[LabelMode, ...] = METHOD_ORDER

    def __post_init__(self) -> None:
        if self.variable not in ("rho", "n"):
            raise ValueError(f"sweep variable must be 'rho' or 'n', got {self.variable!r}")
        if len(self.grid) == 0:
            raise ValueError("grid must be nonempty")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        object.__setattr__(self, "grid", tuple(float(g) for g in self.grid))
        object.__setattr__(self, "methods", tuple(LabelMode(m) for m in self.methods))

    def config_at(self, grid_value: float) -> ExperimentConfig:
        if self.variable == "rho":
            return replace(self.base, rho=float(grid_value))
        return replace(self.base, n=int(round(grid_value)))


@dataclass(frozen=True)
class ReplicationResult:
    """One fitted replication (or its recorded failure)."""

    variable: str
    grid_value: float
    method: LabelMode
    rep: int
    converged: bool = False
    iterations: int = 0
    gll: float = np.nan
    lambdas: np.ndarray | None = None
    xis: np.ndarray | None = None
    rabias_lambdas: np.ndarray | None = None
    rabias_xis: np.ndarray | None = None
    failed: bool = False
    error: str = ""


def run_cell(cfg: ExperimentConfig, method: LabelMode | str, rngs: Sequence[np.random.Generator],
             variable: str = "rho", grid_value: float | None = None) -> list[ReplicationResult]:
    """Sample, censor, corrupt, fit, align, score: one full pipeline pass per
    generator, with all the fits run as one batch.  Row k is replication k,
    drawn from ``rngs[k]`` alone.

    Estimation failures (starved components, degenerate likelihoods) are
    recorded on the failing replication's row instead of raised, so sweep
    aggregates can account for them.
    """
    method = LabelMode(method)
    truth = cfg.true_params
    p = truth.n_components
    if grid_value is None:
        grid_value = cfg.rho if variable == "rho" else float(cfg.n)
    scheme = scheme_from_censor_frac(cfg.n, cfg.censor_frac)
    corruption = CorruptionConfig(cfg.rho, cfg.sd)
    datasets, inits = [], []
    for rng in rngs:
        ds, z_star, pl_uncertain = simulate_dataset(truth, scheme, corruption, rng)
        if method is LabelMode.UNCERTAIN:
            pl = pl_uncertain
        elif method is LabelMode.NOISY:
            pl = make_soft_labels(LabelMode.NOISY, p, hard_labels=z_star)
        else:
            pl = make_soft_labels(LabelMode.UNKNOWN, p, n_items=cfg.n)
        datasets.append(SoftLabeledDataset(ds, pl))
        inits.append(truth_offset_init(truth) if cfg.init == "truth-offset" else quantile_spread_init(ds, p))
    rows = []
    for rep, outcome in enumerate(fit_batch(datasets, inits, cfg.fit_config)):
        if isinstance(outcome, EstimationError):
            rows.append(ReplicationResult(variable, float(grid_value), method, rep,
                                          failed=True, error=f"{type(outcome).__name__}: {outcome}"))
            continue
        est, trace = outcome
        est = align_to_truth(est, truth)
        rows.append(ReplicationResult(
            variable=variable,
            grid_value=float(grid_value),
            method=method,
            rep=rep,
            converged=trace.converged,
            iterations=trace.iterations_used,
            gll=float(trace.gll_values[-1]),
            lambdas=est.lambdas,
            xis=est.xis,
            rabias_lambdas=np.array([rabias(e, t) for e, t in zip(est.lambdas, truth.lambdas)]),
            rabias_xis=np.array([rabias(e, t) for e, t in zip(est.xis, truth.xis)]),
            failed=False,
        ))
    return rows


def run_replication(cfg: ExperimentConfig, method: LabelMode | str, rng: np.random.Generator,
                    variable: str = "rho", grid_value: float | None = None, rep: int = 0) -> ReplicationResult:
    """The one-replication cell: :func:`run_cell` with the single generator ``rng``."""
    (row,) = run_cell(cfg, method, [rng], variable, grid_value)
    return replace(row, rep=rep)


@dataclass(frozen=True)
class RABiasCell:
    """Aggregate for one (method, grid point, parameter)."""

    method: LabelMode
    grid_value: float
    parameter: str
    mean: float
    sd: float
    n_success: int
    n_failed: int
    reliable: bool


@dataclass
class RABiasReport:
    variable: str
    cells: list[RABiasCell]

    def cell(self, method: LabelMode | str, grid_value: float, parameter: str) -> RABiasCell:
        method = LabelMode(method)
        for c in self.cells:
            if c.method is method and c.parameter == parameter and np.isclose(c.grid_value, grid_value):
                return c
        raise KeyError((method, grid_value, parameter))

    def points(self, method: LabelMode | str, parameter: str) -> list[RABiasCell]:
        """One method's cells for one parameter, by grid value; repeated grid values keep their order."""
        method = LabelMode(method)
        return sorted(
            (c for c in self.cells if c.method is method and c.parameter == parameter),
            key=lambda c: c.grid_value,
        )

    def curve(self, method: LabelMode | str, parameter: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Grid values with per-point mean and sd for one method and parameter."""
        pts = self.points(method, parameter)
        return (
            np.array([c.grid_value for c in pts]),
            np.array([c.mean for c in pts]),
            np.array([c.sd for c in pts]),
        )


@dataclass
class SweepResult:
    spec: SweepSpec
    master_seed: int
    rows: list[ReplicationResult]
    report: RABiasReport

    @property
    def effective_sds(self) -> list[float]:
        if self.spec.variable == "rho":
            return [effective_sd(g, self.spec.base.sd) for g in self.spec.grid]
        return [effective_sd(self.spec.base.rho, self.spec.base.sd)]


def parameter_names(p: int) -> list[str]:
    return [f"lambda_{z + 1}" for z in range(p)] + [f"xi_{z + 1}" for z in range(p)]


def _cell_task(args) -> list[ReplicationResult]:
    spec, master_seed, grid_index, method = args
    grid_value = spec.grid[grid_index]
    rngs = [substream(master_seed, grid_index, METHOD_ORDER.index(method), rep) for rep in range(spec.reps)]
    return run_cell(spec.config_at(grid_value), method, rngs, variable=spec.variable, grid_value=grid_value)


def run_sweep(spec: SweepSpec, master_seed: int, workers: int = 1) -> SweepResult:
    """Run the full grid, one task per (grid point, method) cell; deterministic
    in (spec, master_seed) regardless of workers."""
    tasks = [(spec, master_seed, gi, method) for gi in range(len(spec.grid)) for method in spec.methods]
    if workers > 1:
        with Pool(workers) as pool:
            cells = pool.map(_cell_task, tasks, chunksize=1)
    else:
        cells = [_cell_task(t) for t in tasks]
    rows = [row for cell in cells for row in cell]
    return SweepResult(spec, master_seed, rows, aggregate_report(spec, rows))


def aggregate_report(spec: SweepSpec, rows: Sequence[ReplicationResult]) -> RABiasReport:
    """Aggregate ``rows`` in :func:`run_sweep` order: ``spec.reps`` rows per
    (grid point, method) cell, grid point by grid point.  Cells are found by
    position, so a repeated grid value makes cells of its own."""
    p = spec.base.true_params.n_components
    names = parameter_names(p)
    keys = [(gv, method) for gv in spec.grid for method in spec.methods]
    if len(rows) != len(keys) * spec.reps:
        raise ValueError(f"expected {len(keys) * spec.reps} rows, got {len(rows)}")
    cells: list[RABiasCell] = []
    for k, (gv, method) in enumerate(keys):
        block = rows[k * spec.reps:(k + 1) * spec.reps]
        if any(r.method is not method or r.grid_value != gv for r in block):
            raise ValueError(f"rows are not in sweep order: cell {k} should be ({gv}, {method.value})")
        ok = [r for r in block if not r.failed]
        n_failed = len(block) - len(ok)
        reliable = n_failed <= UNRELIABLE_FAILURE_FRAC * len(block)
        for pi, name in enumerate(names):
            values = np.array(
                [r.rabias_lambdas[pi] if pi < p else r.rabias_xis[pi - p] for r in ok]
            )
            if values.size == 0:
                mean, sd = np.nan, np.nan
            elif values.size == 1:
                mean, sd = float(values[0]), 0.0
            else:
                mean, sd = float(values.mean()), float(values.std(ddof=1))
            cells.append(RABiasCell(method, gv, name, mean, sd, len(ok), n_failed, reliable))
    return RABiasReport(spec.variable, cells)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and np.isnan(value):
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_results_csv(result: SweepResult, path) -> None:
    """One row per replication, byte-stable for a fixed (spec, seed)."""
    p = result.spec.base.true_params.n_components
    names = parameter_names(p)
    header = (
        ["variable", "grid_value", "method", "rep"]
        + names
        + ["iterations", "converged", "gll"]
        + [f"rabias_{name}" for name in names]
        + ["failed", "error"]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for r in result.rows:
            cells = [r.variable, _fmt(r.grid_value), r.method.value, r.rep]
            if r.failed:
                cells += [""] * (4 * p + 3) + ["true", r.error]
            else:
                for arr in (r.lambdas, r.xis):
                    cells += [_fmt(v) for v in arr]
                cells += [r.iterations, _fmt(r.converged), _fmt(r.gll)]
                for arr in (r.rabias_lambdas, r.rabias_xis):
                    cells += [_fmt(v) for v in arr]
                cells += ["false", ""]
            writer.writerow(cells)


def write_summary_csv(result: SweepResult, path) -> None:
    """Per (grid point, method, parameter) aggregate of the replication rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["variable", "grid_value", "method", "parameter", "mean_rabias", "sd_rabias",
             "n_success", "n_failed", "reliable"]
        )
        for c in result.report.cells:
            writer.writerow(
                [result.spec.variable, _fmt(c.grid_value), c.method.value, c.parameter,
                 _fmt(c.mean), _fmt(c.sd), c.n_success, c.n_failed, _fmt(c.reliable)]
            )


def write_figure_csv(result: SweepResult, parameter: str, path) -> None:
    """Plot-ready long-format table for one parameter across the grid."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([result.spec.variable, "method", "mean_rabias", "sd_rabias", "n_failed"])
        for method in result.spec.methods:
            for c in result.report.points(method, parameter):
                writer.writerow([_fmt(c.grid_value), method.value, _fmt(c.mean), _fmt(c.sd), c.n_failed])
