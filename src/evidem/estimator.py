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
constants once, component-major, on a leading batch axis: y*^2, log y* on
observed records, log pl as a (B, p, n) array, and the observed and censored
indicators.  An iteration is then one stacked log-weight product, one shifted
``exp`` giving every fit's log-likelihood and posterior, and one stacked
M-step product, on raw arrays.  A fit leaves the batch when it converges,
reaches the iteration cap or fails, and its failure is its own error: the
other fits go on.  Every stacked operation works one dataset's slice at a
time, so a fit takes the same iterates in any batch; ``fit`` is the batch of
one.  ``MixtureParams`` are validated only at the start, the result and the
trace.

``read_soft_labels_csv`` parses ``labels.csv`` with the same one-call
``loadtxt`` reader as ``data.csv``: an integer id and p plausibilities a row.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .censoring import CensoredDataset, load_csv_rows
from .rayleigh import MixtureParams

__all__ = [
    "EstimationError",
    "ComponentStarvedError",
    "DegenerateLikelihoodError",
    "LabelMode",
    "SoftLabeledDataset",
    "E2MConfig",
    "E2MTrace",
    "generalized_loglik",
    "e_step",
    "m_step",
    "fit",
    "fit_batch",
    "make_soft_labels",
    "quantile_spread_init",
    "write_soft_labels_csv",
    "read_soft_labels_csv",
]

# A component whose total posterior weight falls below STARVATION_FRAC * n
# can no longer be updated meaningfully; the fit aborts rather than restart.
STARVATION_FRAC = 1e-10
_TINY, _HUGE = float(np.finfo(float).tiny), float(np.finfo(float).max)


class EstimationError(RuntimeError):
    """Base class for unrecoverable estimation failures."""


class ComponentStarvedError(EstimationError):
    """Some component received (numerically) zero posterior weight."""


class DegenerateLikelihoodError(EstimationError):
    """A record is impossible under every component it finds plausible.

    When :func:`fit` raises it (or :func:`fit_batch` returns it) after the
    first update, ``trace`` holds the iterations completed so far; otherwise
    it is None.
    """

    trace: "E2MTrace | None" = None


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
        bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
        if bad.size:
            raise ValueError(f"plausibilities must be finite; record(s) {bad.tolist()} are not")
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValueError("plausibilities must lie in [0, 1]")
        if np.any(arr.max(axis=1) <= 0.0):
            bad = np.flatnonzero(arr.max(axis=1) <= 0.0)
            raise ValueError(f"record(s) {bad.tolist()} have all-zero plausibility")
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


@dataclass(eq=False)
class E2MTrace:
    """Parameters and generalized log-likelihood per iterate; row 0 is the start."""

    lambdas: np.ndarray
    xis: np.ndarray
    gll_values: np.ndarray
    converged: bool

    @property
    def iterations_used(self) -> int:
        return len(self.gll_values) - 1

    @property
    def iterates(self) -> list[tuple[MixtureParams, float]]:
        return [(MixtureParams(lam, xi), float(g)) for lam, xi, g in zip(self.lambdas, self.xis, self.gll_values)]


class _Kernel:
    """The E2M constants of B datasets of equal size n and width p, stacked on a
    leading batch axis: ``features[b]`` rows are the observed indicator, 1, y*^2
    and the censored indicator; ``log_base[b]`` is log pl + log y* (observed),
    component-major (p, n).  ``posterior`` is the one (B, p, n) buffer every
    E-step writes into.  ``keep`` drops the datasets whose fits left the batch.

    Both steps report a fit that cannot go on in a dict from its row to its
    error, and give that row placeholder values that raise no floating-point
    warning, so one failing fit never stops or taints the others.
    """

    def __init__(self, datasets: Sequence[SoftLabeledDataset]) -> None:
        y = np.stack([ds.data.y_star for ds in datasets])
        obs = np.stack([ds.data.observed for ds in datasets])
        self.features = np.stack([obs, np.ones_like(y), y * y, ~obs], axis=1)
        with np.errstate(divide="ignore"):
            self.log_base = np.log(np.stack([ds.pl.T for ds in datasets]), order="C")
        self.log_base += np.where(obs, np.log(y), 0.0)[:, None, :]
        self.posterior = np.empty_like(self.log_base)

    def keep(self, rows: np.ndarray) -> None:
        self.features, self.log_base = self.features[rows], self.log_base[rows]
        self.posterior = np.empty_like(self.log_base)

    def loglik_and_posterior(self, lambdas: np.ndarray, xis: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
        """Log-weights log[lambda_z (f or S)(y*_j; xi_z) pl_j(z)], then one max-shifted
        ``exp`` gives both the (B,) generalized log-likelihoods and ``posterior``."""
        with np.errstate(divide="ignore"):
            coef = np.array([2.0 * np.log(xis), np.log(lambdas), -0.5 * xis**2]).transpose(1, 2, 0)
        w = np.matmul(coef, self.features[:, :3], out=self.posterior)
        w += self.log_base
        hi = w.max(axis=1)
        finite = np.isfinite(hi)
        failed = {}
        if not finite.all():
            for b in np.flatnonzero(~finite.all(axis=1)):
                records = np.flatnonzero(~finite[b]).tolist()
                failed[int(b)] = DegenerateLikelihoodError(
                    f"generalized log-likelihood is non-finite at record(s) {records}")
            rows = list(failed)
            hi[rows] = 0.0
            w[rows] = 0.0
        w -= hi[:, None, :]
        np.exp(w, out=w)
        total = w.sum(axis=1)
        w /= total[:, None, :]
        np.log(total, out=total)
        total += hi
        return total.sum(axis=1), w, failed

    def m_step(self, W: np.ndarray, xis: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict]:
        """:func:`m_step` on the (B, p, n) posteriors, returning raw (B, p) lambdas and xis."""
        weight, moment, cens = np.matmul(W, self.features[:, 1:].transpose(0, 2, 1)).transpose(2, 0, 1)
        starved = weight < STARVATION_FRAC * W.shape[2]
        denom = moment + cens * 2.0 / xis**2
        twice = 2.0 * weight
        # xi^2 = 2 weight / denom must stay finite, so denom must not vanish
        flat = ~(denom > twice / _HUGE)
        failed = {}
        if (starved | flat).any():
            for b in np.flatnonzero(starved.any(axis=1) | flat.any(axis=1)):
                if starved[b].any():
                    reason = f"component(s) {np.flatnonzero(starved[b]).tolist()} received no posterior weight"
                else:
                    reason = f"component(s) {np.flatnonzero(flat[b]).tolist()} have a degenerate moment denominator"
                failed[int(b)] = ComponentStarvedError(reason)
            rows = list(failed)
            weight[rows] = twice[rows] = denom[rows] = 1.0
        return weight / weight.sum(axis=1, keepdims=True), np.sqrt(twice / denom), failed


def _one_kernel(ds: SoftLabeledDataset, params: MixtureParams) -> _Kernel:
    if params.n_components != ds.n_components:
        raise ValueError("parameter and label dimensions disagree")
    return _Kernel([ds])


def _loglik_and_posterior(ds: SoftLabeledDataset, params: MixtureParams) -> tuple[float, np.ndarray]:
    gll, W, failed = _one_kernel(ds, params).loglik_and_posterior(params.lambdas[None], params.xis[None])
    if failed:
        raise failed[0]
    return float(gll[0]), W[0]


def generalized_loglik(ds: SoftLabeledDataset, params: MixtureParams) -> float:
    """Generalized observed-data log-likelihood of ``params``.

    Raises :class:`DegenerateLikelihoodError` naming the offending records
    when some record is impossible under every component its soft label
    allows.
    """
    return _loglik_and_posterior(ds, params)[0]


def e_step(ds: SoftLabeledDataset, params: MixtureParams) -> np.ndarray:
    """Posterior component weights, one row per record, rows summing to 1.

    Each row is the combination of the model-based posterior (density-based
    for observed records, survival-based for censored ones) with the
    record's soft label, i.e. proportional to lambda * (f or S) * pl.
    """
    return _loglik_and_posterior(ds, params)[1].T


def m_step(ds: SoftLabeledDataset, W: np.ndarray, params_k: MixtureParams) -> MixtureParams:
    """Closed-form maximizer of the expected complete-data log-likelihood.

    lambda_z   = mean_j W_jz
    xi_z^2     = 2 sum_j W_jz / [ sum_obs W_jz y*^2
                                  + sum_cens W_jz (y*^2 + 2 / xi_z(k)^2) ]

    The censored term is the exact truncated second moment under the
    current parameters, never a numerical integral.
    """
    W = np.asarray(W, dtype=float)
    if W.shape != (ds.data.n, ds.n_components):
        raise ValueError("posterior matrix shape does not match the dataset")
    lambdas, xis, failed = _one_kernel(ds, params_k).m_step(W.T[None], params_k.xis[None])
    if failed:
        raise failed[0]
    return MixtureParams(lambdas[0], xis[0])


def fit_batch(
    datasets: Sequence[SoftLabeledDataset],
    inits: Sequence[MixtureParams],
    config: E2MConfig = E2MConfig(),
) -> list[tuple[MixtureParams, E2MTrace] | EstimationError]:
    """Fit each dataset from its own start, all in one batch.

    The datasets must share their number of records and of components.  Every
    iteration updates all fits still in the batch with one stacked E-step and
    one stacked M-step; a fit leaves the batch when it converges, reaches
    ``config.max_iters`` or fails, and the others go on.  Entry ``b`` of the
    result is what ``fit(datasets[b], inits[b], config)`` returns, or the
    :class:`EstimationError` it raises, with the same iterates.
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
    lambdas = np.stack([init.lambdas for init in inits])
    xis = np.stack([init.xis for init in inits])
    results: list = [None] * len(datasets)
    rows = np.arange(len(datasets))  # the dataset of each batch row
    steps = []  # iterates since the rows last changed
    segments = []  # (rows, lambdas, xis, gll), each stacked over the iterates between two row changes

    def history(b: int) -> list[np.ndarray]:
        parts = [[a[:, np.searchsorted(seg_rows, b)] for a in arrays] for seg_rows, *arrays in segments]
        return [np.concatenate(a) for a in zip(*parts)]

    it = 0
    gll, W, failed = kernel.loglik_and_posterior(lambdas, xis)
    converged = [False] * len(rows)
    while True:
        steps.append((lambdas, xis, gll))
        if failed or it == config.max_iters or any(converged):
            leaving = np.array(converged) | (it == config.max_iters)
            leaving[list(failed)] = True
            segments.append((rows, *map(np.stack, zip(*steps))))
            steps = []
            for k in np.flatnonzero(leaving).tolist():
                b = int(rows[k])
                if k in failed:
                    results[b] = exc = failed[k]
                    if it and isinstance(exc, DegenerateLikelihoodError):
                        # the iterations completed before the failing one
                        exc.trace = E2MTrace(*(a[:-1] for a in history(b)), False)
                else:
                    results[b] = (MixtureParams(lambdas[k], xis[k]), E2MTrace(*history(b), bool(converged[k])))
            keep = ~leaving
            rows, lambdas, xis, gll, W = rows[keep], lambdas[keep], xis[keep], gll[keep], W[keep]
            if not rows.size:
                return results
            kernel.keep(keep)
        it += 1
        lambdas, xis, starved = kernel.m_step(W, xis)
        gll_new, W, degenerate = kernel.loglik_and_posterior(lambdas, xis)
        failed = {**degenerate, **starved}
        # a few Python floats compare faster than numpy calls on (B,) arrays
        converged = [(g - g0) / max(abs(g0), _TINY) < config.tol for g, g0 in zip(gll_new.tolist(), gll.tolist())]
        gll = gll_new


def fit(
    ds: SoftLabeledDataset,
    init: MixtureParams,
    config: E2MConfig = E2MConfig(),
) -> tuple[MixtureParams, E2MTrace]:
    """Alternate E- and M-steps from ``init`` until the generalized
    log-likelihood improvement falls below ``config.tol`` (relative) or
    ``config.max_iters`` updates have been applied.

    Returns the final parameters and the full iteration trace.  Raises
    :class:`DegenerateLikelihoodError` (with the partial trace attached)
    if the log-likelihood leaves the finite range, and
    :class:`ComponentStarvedError` if the M-step cannot update a
    component.  This is the one-dataset call of :func:`fit_batch`.
    """
    (result,) = fit_batch([ds], [init], config)
    if isinstance(result, EstimationError):
        raise result
    return result


def make_soft_labels(
    mode: LabelMode | str,
    n_components: int,
    n_items: int | None = None,
    hard_labels: np.ndarray | None = None,
    error_probs: np.ndarray | None = None,
) -> np.ndarray:
    """Plausibility matrix for one supervision regime.

    UNKNOWN ignores labels entirely (vacuous rows of ones).  NOISY takes the
    hard labels at face value (indicator rows).  UNCERTAIN tempers a hard
    label with its error probability q: the labelled component gets
    q/p + 1 - q, every other component q/p.
    """
    mode = LabelMode(mode)
    p = int(n_components)
    if mode is LabelMode.UNKNOWN:
        if n_items is None:
            if hard_labels is None:
                raise ValueError("UNKNOWN mode needs n_items (or hard_labels for its length)")
            n_items = len(hard_labels)
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
    if np.any((q < 0.0) | (q > 1.0)):
        raise ValueError("error probabilities must lie in [0, 1]")
    return q[:, None] / p + (1.0 - q)[:, None] * onehot


def quantile_spread_init(ds: CensoredDataset, n_components: int) -> MixtureParams:
    """Data-driven starting point: uniform weights, one xi per spread quantile.

    Component z is given the xi that would put the empirical
    (z + 1)/(p + 1) quantile of the observed times at that same quantile
    of a single Rayleigh component.
    """
    p = int(n_components)
    t = np.sort(ds.observed_times)
    if t.size == 0:
        raise ValueError("cannot initialize from a dataset with no observed failures")
    levels = (np.arange(p) + 1.0) / (p + 1.0)
    anchors = np.quantile(t, levels)
    anchors = np.maximum(anchors, np.finfo(float).tiny)
    xis = np.sqrt(-2.0 * np.log1p(-levels)) / anchors
    return MixtureParams(np.full(p, 1.0 / p), xis)


def write_soft_labels_csv(pl: np.ndarray, path, item_ids: np.ndarray | None = None) -> None:
    """CSV form: item_id, pl_1, ..., pl_p (ids written 1-based)."""
    pl = np.asarray(pl, dtype=float)
    n, p = pl.shape
    ids = np.arange(n) if item_ids is None else np.asarray(item_ids, dtype=int)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["item_id"] + [f"pl_{z + 1}" for z in range(p)])
        for i in range(n):
            writer.writerow([int(ids[i]) + 1] + [repr(float(v)) for v in pl[i]])


def read_soft_labels_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Returns (item_ids 0-based, plausibility matrix) in file row order."""
    path = Path(path)
    with open(path, newline="") as fh:
        header = next(csv.reader([fh.readline()]))
        if not header or header[0] != "item_id" or len(header) < 2:
            raise ValueError(f"{path}: expected header item_id, pl_1, ..., pl_p")
        row = np.dtype([("item_id", np.int64), ("pl", np.float64, (len(header) - 1,))])
        table = load_csv_rows(fh, path, row, None, len(header), exact=True)
    return table["item_id"] - 1, np.ascontiguousarray(table["pl"])
