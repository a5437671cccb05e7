"""Evidential EM for censored Rayleigh mixtures.

Each record carries a soft label: a contour function giving the
plausibility of every component.  The generalized observed-data
log-likelihood weighs each component's density (observed records) or
survival (censored records) by that plausibility:

    sum_obs  log sum_z lambda_z f(y*; xi_z) pl(z)
  + sum_cens log sum_z lambda_z S(y*; xi_z) pl(z)

The E-step combines the model-based posterior with the soft label, which
collapses to renormalizing lambda * (f or S) * pl per record; the M-step is
closed form because the censored second moment of a Rayleigh component is
exact.  Vacuous labels (all ones) recover classical EM; certain labels
recover supervised fitting.  Everything is computed in log space and
normalized by subtracting each record's maximum, never by flooring.

``fit_batch`` fits B datasets of equal size together.  It computes their
constants once, component-major, on a leading batch axis: log pl + log y*
(observed) as a (B, p, n) array, and feature rows scaled by powers of two,
which is exact (see ``_Kernel``).  An iteration is then one stacked
log-weight product, one shifted ``exp`` giving every fit's log-likelihood and
posterior, and one stacked M-step product, into buffers the batch reuses.  A
fit leaves the batch when it converges, reaches the iteration cap or fails,
and its failure is its own error: the other fits go on; the fits left move
down in the same buffers.  Every stacked operation works one dataset's slice
at a time, so a fit takes the same iterates in any batch.  The outcome is
one :func:`fit_dtype` record per fit and, unless the caller drops them, the
iterates of every step, which ``evidem fit`` stacks into its trace.
``MixtureParams`` are validated only at the start and for each finished
fit's estimate.  Floating-point warnings are off: the kernel tests every
value it hands on, so an overflow or NaN ends only its own fit.

``read_soft_labels_csv`` parses ``labels.csv`` with the same one-call
``loadtxt`` reader as ``data.csv``: an integer id and p plausibilities a row.
``SoftLabeledDataset`` checks them by whole-array bounds, naming rows only on failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .censoring import CensoredDataset, _records, csv_fields, load_csv_rows, write_tables
from .rayleigh import MixtureParams

__all__ = [
    "EstimationError",
    "ComponentStarvedError",
    "DegenerateLikelihoodError",
    "LabelMode",
    "SoftLabeledDataset",
    "E2MConfig",
    "fit_dtype",
    "fit_batch",
    "make_soft_labels",
    "quantile_spread_init",
    "soft_labels_table",
    "write_soft_labels_csv",
    "read_soft_labels_csv",
]

# A component whose total posterior weight falls below STARVATION_FRAC * n
# can no longer be updated meaningfully; the fit aborts rather than restart.
STARVATION_FRAC = 1e-10
_TINY = float(np.finfo(float).tiny)


class EstimationError(RuntimeError):
    """Base class for unrecoverable estimation failures."""


class ComponentStarvedError(EstimationError):
    """Some component received (numerically) zero posterior weight."""


class DegenerateLikelihoodError(EstimationError):
    """A record is impossible under every component it finds plausible, or the
    log-likelihood leaves the floating-point range."""


class LabelMode(str, Enum):
    """The three supervision regimes: soft, hard, and absent labels."""

    UNCERTAIN = "uncertain"
    NOISY = "noisy"
    UNKNOWN = "unknown"


@dataclass(frozen=True, eq=False)
class SoftLabeledDataset:
    """A censored dataset plus one plausibility row per record."""

    data: CensoredDataset
    pl: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.pl, dtype=float).copy()
        if arr.ndim != 2 or arr.shape[0] != self.data.n:
            raise ValueError(f"plausibility matrix must have {self.data.n} rows, got {arr.shape}")
        # whole-array bounds settle the common case, False on any NaN; the rows are named only on failure
        hi, lo = arr.max(), arr.min()
        if not 0.0 <= lo <= hi <= 1.0:
            bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
            if bad.size:
                raise ValueError(f"plausibilities must be finite; record(s) {_records(bad)} are not")
            raise ValueError("plausibilities must lie in [0, 1]")
        bad = np.flatnonzero(~arr.any(axis=1)) if lo == 0.0 else ()  # a row is all zero only if some entry is
        if len(bad):
            raise ValueError(f"record(s) {_records(bad)} have all-zero plausibility")
        arr.flags.writeable = False
        object.__setattr__(self, "pl", arr)

    @property
    def n_components(self) -> int:
        return int(self.pl.shape[1])


@dataclass(frozen=True)
class E2MConfig:
    """Convergence control.

    ``tol`` is the relative improvement of the generalized log-likelihood
    below which iteration stops.
    """

    max_iters: int = 1000
    tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")


def _all_healthy(weights: list, xi_sqs: list, floor: float) -> bool:
    """Whether every M-step weight is at least ``floor`` and every xi^2 finite and positive; False on any NaN."""
    for ws, xs in zip(weights, xi_sqs):
        for w, x in zip(ws, xs):
            if not (w >= floor and 0.0 < x < math.inf):
                return False
    return True


class _Kernel:
    """The E2M constants of B datasets of equal size n and width p, stacked on a
    leading batch axis, and the buffers a step writes into.  ``features[b]``
    rows are 2 obs, 1, -y*^2 / 2 and cens (obs and cens the observed and
    censored indicators), so E-step coefficients (log xi, log lambda, xi^2) give
    every product, sum and iterate of rows (obs, 1, y*^2, cens) and coefficients
    (2 log xi, log lambda, -xi^2 / 2): a factor of 2 or -1/2 is exact outside the
    subnormal and overflow ranges.  ``log_base[b]`` is log pl + log y* (observed),
    component-major (p, n).  A step's parameters are one (B, 2, p) array, xis
    then lambdas; ``keep`` keeps the datasets still in the batch, with their rows
    of ``posterior`` and ``coef``, whose row ``xi2`` the next M-step reads.  It
    copies each kept row down into the arrays made at the start and takes views
    of their first rows, so a batch never holds more than it started with.  Both
    steps run under :func:`fit_batch`'s floating-point state, which ignores every
    warning, and report a fit that cannot go on in a dict from its row to its
    error.  That row's values are then meaningless, but they stay in its own
    slice, so one failing fit never stops or taints the others."""

    def __init__(self, datasets: Sequence[SoftLabeledDataset]) -> None:
        y = np.stack([ds.data.y_star for ds in datasets])
        obs = np.stack([ds.data.observed for ds in datasets])
        self.features = np.stack([obs, np.ones_like(y), y * y, ~obs], axis=1)
        self.features[:, 0:3:2] *= [[2.0], [-0.5]]
        self.log_base = np.log(np.stack([ds.pl.T for ds in datasets]), order="C")
        self.log_base += np.where(obs, np.log(y), 0.0)[:, None, :]
        B, p, n = self.log_base.shape
        self._buffers(np.empty_like(self.log_base), np.empty((B, 3, p)), *np.empty((2, B, n)), np.empty((B, p, 3)))

    def keep(self, rows: np.ndarray) -> None:
        # a kept row only moves down, onto a row that has left or moved on, so no copy needs a temporary
        kept = np.flatnonzero(rows).tolist()
        held = (self.features, self.log_base, self.posterior, self.coef)
        for to, b in enumerate(kept):
            if to != b:
                for a in held:
                    a[to] = a[b]
        m = len(kept)
        self.features, self.log_base = self.features[:m], self.log_base[:m]
        self._buffers(*(a[:m] for a in (self.posterior, self.coef, self.hi, self.total, self.sums)))

    def _buffers(self, posterior: np.ndarray, coef: np.ndarray, hi: np.ndarray, total: np.ndarray,
                 sums: np.ndarray) -> None:
        self.posterior, self.coef, self.hi, self.total, self.sums = posterior, coef, hi, total, sums
        self.xi2 = coef[:, 2]
        # views made once per batch, as a view costs about what a small ufunc call does
        self._logs, self._coef_t, self._hi_b = self.coef[:, :2], self.coef.transpose(0, 2, 1), self.hi[:, None]
        self._e_rows, self._m_rows = self.features[:, :3], self.features[:, 1:].transpose(0, 2, 1)
        self._total_b, (self._weight, self._half_moment, self._cens) = self.total[:, None], self.sums.transpose(2, 0, 1)

    def loglik_and_posterior(self, theta: np.ndarray) -> tuple[np.ndarray, list, dict]:
        """Log-weights log[lambda_z (f or S)(y*_j; xi_z) pl_j(z)], then one max-shifted ``exp`` gives ``posterior``
        and the (B,) generalized log-likelihoods, returned also as Python floats.  A non-finite record max
        makes its fit's sum non-finite, so one test finds both."""
        np.log(theta, out=self._logs)
        np.square(theta[:, 0], out=self.xi2)
        w = np.matmul(self._coef_t, self._e_rows, out=self.posterior)
        w += self.log_base
        hi = np.maximum.reduce(w, axis=1, out=self.hi)
        w -= self._hi_b
        np.exp(w, out=w)
        total = np.add.reduce(w, axis=1, out=self.total)
        w /= self._total_b
        np.log(total, out=total)
        total += hi
        gll = np.add.reduce(total, axis=1)
        values = gll.tolist()
        failed = {}
        for b in (b for b, g in enumerate(values) if not math.isfinite(g)):
            bad = np.flatnonzero(~np.isfinite(hi[b]))
            where = f"at record(s) {_records(bad)}" if bad.size else "in the sum over records"
            failed[b] = DegenerateLikelihoodError(f"generalized log-likelihood is non-finite {where}")
        return gll, values, failed

    def m_step(self, W: np.ndarray, xi2: np.ndarray) -> tuple[np.ndarray, dict]:
        """The closed-form M-step on the (B, p, n) posteriors W at the squared xis ``xi2``, giving the raw (B, 2, p)
        xis and lambdas: lambda_z = mean_j W_jz and, censored records taking their exact truncated second moment,

            xi_z^2 = sum_j W_jz / [ sum_cens W_jz / xi_z(k)^2 - sum_j W_jz (-y*^2 / 2) ]
                   = 2 sum_j W_jz / [ sum_obs W_jz y*^2 + sum_cens W_jz (y*^2 + 2 / xi_z(k)^2) ]."""
        np.matmul(W, self._m_rows, out=self.sums)
        theta, weight, floor = np.empty((len(W), 2, W.shape[1])), self._weight, STARVATION_FRAC * W.shape[2]
        np.divide(weight, np.add.reduce(weight, axis=1, keepdims=True), out=theta[:, 1])
        xi_sq = np.divide(self._cens, xi2, out=theta[:, 0])  # the denominator first
        xi_sq -= self._half_moment
        np.divide(weight, xi_sq, out=xi_sq)
        failed = {}
        if not _all_healthy(weight.tolist(), xi_sq.tolist(), floor):
            # a denominator that vanishes, overflows or is NaN leaves no finite positive xi^2
            starved, flat = weight < floor, ~((xi_sq > 0.0) & (xi_sq < np.inf))
            for b in np.flatnonzero(starved.any(axis=1) | flat.any(axis=1)).tolist():
                why = "received no posterior weight" if starved[b].any() else "have a degenerate moment denominator"
                bad = np.flatnonzero(starved[b] if starved[b].any() else flat[b]).tolist()
                failed[b] = ComponentStarvedError(f"component(s) {bad} {why}")
        np.sqrt(xi_sq, out=xi_sq)
        return theta, failed


def fit_dtype(p: int) -> np.dtype:
    """The fields of :func:`fit_batch`'s table, one record per fit of a p-component model.

    ``iterations`` counts the completed updates, also for a failed fit, whose
    estimate and ``gll`` are NaN; ``error`` is its :class:`EstimationError`,
    or None.
    """
    return np.dtype([("lambdas", float, (p,)), ("xis", float, (p,)), ("iterations", int), ("converged", bool),
                     ("gll", float), ("error", object)])


@np.errstate(all="ignore")  # the kernel tests what it hands on; see _Kernel
def fit_batch(
    datasets: Sequence[SoftLabeledDataset],
    inits: Sequence[MixtureParams],
    config: E2MConfig = E2MConfig(),
    *,
    record_steps: bool = True,
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]]:
    """Fit each dataset from its own start, all in one batch.

    The datasets must share their number of records and of components.  Every
    iteration updates all fits still in the batch with one stacked E-step and
    one stacked M-step; a fit leaves the batch when it converges, reaches
    ``config.max_iters`` or fails, and the others go on.  Returns the
    :func:`fit_dtype` table, whose record ``b`` is the outcome of fitting
    ``datasets[b]`` from ``inits[b]`` alone, and the steps: per E-step, the
    datasets of the rows still in the batch and their (rows, p) lambdas and
    xis and (rows,) log-likelihoods.  Step 0 is the start; a failed fit's last
    step holds meaningless values, and the steps before it its completed updates.
    With ``record_steps`` false the steps list stays empty, and no step's
    iterates outlive it; the table is the same.
    """
    if len(datasets) != len(inits) or not datasets:
        raise ValueError("a batch needs one start per dataset and at least one dataset")
    n, p = datasets[0].data.n, datasets[0].n_components
    for ds, init in zip(datasets, inits):
        if init.n_components != ds.n_components:
            raise ValueError("parameter and label dimensions disagree")
        if (ds.data.n, ds.n_components) != (n, p):
            raise ValueError("the datasets of a batch must have equal numbers of records and components")
    kernel = _Kernel(datasets)
    theta = np.stack([np.stack([init.xis, init.lambdas]) for init in inits])
    table = np.zeros(len(datasets), fit_dtype(p))
    table["lambdas"], table["xis"], table["gll"], table["error"] = np.nan, np.nan, np.nan, None
    rows = np.arange(len(datasets))  # the dataset of each batch row
    steps, it, converged = [], 0, [False] * len(rows)
    gll, values, failed = kernel.loglik_and_posterior(theta)
    while True:
        if record_steps:
            steps.append((rows, theta[:, 1], theta[:, 0], gll))
        if failed or it == config.max_iters or any(converged):
            leaving = np.array(converged) | (it == config.max_iters)
            leaving[list(failed)] = True
            for k in np.flatnonzero(leaving).tolist():
                if k in failed:
                    # the updates completed before the failing one
                    table["iterations"][rows[k]], table["error"][rows[k]] = max(it - 1, 0), failed[k]
                else:
                    MixtureParams(theta[k, 1], theta[k, 0])  # checks the estimate
                    table[rows[k]] = theta[k, 1], theta[k, 0], it, converged[k], values[k], None
            keep = ~leaving
            rows, values = rows[keep], [g for g, gone in zip(values, leaving.tolist()) if not gone]
            if not rows.size:
                return table, steps
            kernel.keep(keep)
        it += 1
        theta, starved = kernel.m_step(kernel.posterior, kernel.xi2)
        gll, new_values, degenerate = kernel.loglik_and_posterior(theta)
        failed = {**degenerate, **starved}
        # a few Python floats compare faster than numpy calls on (B,) arrays
        converged = [(g - g0) / max(abs(g0), _TINY) < config.tol for g, g0 in zip(new_values, values)]
        values = new_values


def make_soft_labels(
    mode: LabelMode | str,
    n_components: int,
    n_items: int | None = None,
    hard_labels: np.ndarray | None = None,
    error_probs: np.ndarray | None = None,
) -> np.ndarray:
    """Plausibility matrix for one supervision regime.

    UNKNOWN ignores labels entirely: ``n_items`` vacuous rows of ones.
    NOISY takes the hard labels at face value (indicator rows).  UNCERTAIN
    tempers a hard label with its error probability q: the labelled
    component gets q/p + 1 - q, every other component q/p.
    """
    mode = LabelMode(mode)
    p = int(n_components)
    if mode is LabelMode.UNKNOWN:
        if n_items is None:
            raise ValueError("UNKNOWN mode needs n_items")
        return np.ones((int(n_items), p))
    if hard_labels is None:
        raise ValueError(f"{mode.value} mode needs hard labels")
    z = np.asarray(hard_labels, dtype=int)
    if np.any((z < 0) | (z >= p)):
        raise ValueError("hard labels must be 0-based component indices")
    onehot = np.zeros((z.size, p))
    onehot[np.arange(z.size), z] = 1.0
    if mode is LabelMode.NOISY:
        return onehot
    if error_probs is None:
        raise ValueError("UNCERTAIN mode needs error probabilities")
    q = np.asarray(error_probs, dtype=float)
    if q.shape != z.shape:
        raise ValueError("error_probs must match hard_labels in length")
    if not np.all((q >= 0.0) & (q <= 1.0)):  # NaN fails both comparisons
        raise ValueError("error probabilities must lie in [0, 1]")
    return q[:, None] / p + (1.0 - q)[:, None] * onehot


def quantile_spread_init(ds: CensoredDataset, n_components: int) -> MixtureParams:
    """Data-driven starting point: uniform weights, one xi per spread quantile.

    Component z is given the xi that would put the empirical
    (z + 1)/(p + 1) quantile of the observed times at that same quantile
    of a single Rayleigh component.
    """
    p = int(n_components)
    t = ds.observed_times
    if t.size == 0:
        raise ValueError("cannot initialize from a dataset with no observed failures")
    levels = (np.arange(p) + 1.0) / (p + 1.0)
    anchors = np.quantile(t, levels)
    anchors = np.maximum(anchors, np.finfo(float).tiny)
    xis = np.sqrt(-2.0 * np.log1p(-levels)) / anchors
    return MixtureParams(np.full(p, 1.0 / p), xis)


def soft_labels_table(pl: np.ndarray, item_ids: np.ndarray):
    """``write_tables``' header, row count and columns of the labels' CSV form: item_id, pl_1, ..., pl_p
    (ids written 1-based)."""
    pl = np.asarray(pl, dtype=float)
    n, p = pl.shape
    ids = np.asarray(item_ids, dtype=int)
    return ["item_id"] + [f"pl_{z + 1}" for z in range(p)], n, [lambda rows: ids[rows] + 1, *pl.T]


def write_soft_labels_csv(pl: np.ndarray, path, item_ids: np.ndarray) -> None:
    """CSV form: item_id, pl_1, ..., pl_p (ids written 1-based)."""
    write_tables((path, *soft_labels_table(pl, item_ids)))


def read_soft_labels_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Returns (item_ids 0-based, plausibility matrix) in file row order."""
    path = Path(path)
    with open(path, newline="") as fh:
        header = csv_fields(fh.readline(), path, 0)
        if not header or header[0] != "item_id" or len(header) < 2:
            raise ValueError(f"{path}: expected header item_id, pl_1, ..., pl_p")
        row = np.dtype([("item_id", np.int64), ("pl", np.float64, (len(header) - 1,))])
        table = load_csv_rows(fh, path, row, None, len(header), exact=True)
    return table["item_id"] - 1, np.ascontiguousarray(table["pl"])
