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

A fit computes its per-dataset constants once, component-major: y*^2,
log y* on observed records, log pl as a (p, n) array, and the observed and
censored indicators.  An iteration is then one (p, n) log-weight product,
one shifted ``exp`` giving both log-likelihood and posterior, and one M-step
product, on raw arrays; ``MixtureParams`` are validated only at the start,
the result and the trace.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .censoring import CensoredDataset
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
    "make_soft_labels",
    "quantile_spread_init",
    "write_soft_labels_csv",
    "read_soft_labels_csv",
]

# A component whose total posterior weight falls below STARVATION_FRAC * n
# can no longer be updated meaningfully; the fit aborts rather than restart.
STARVATION_FRAC = 1e-10


class EstimationError(RuntimeError):
    """Base class for unrecoverable estimation failures."""


class ComponentStarvedError(EstimationError):
    """Some component received (numerically) zero posterior weight."""


class DegenerateLikelihoodError(EstimationError):
    """A record is impossible under every component it finds plausible.

    When :func:`fit` raises it after the first update, ``trace`` holds the
    iterations completed so far; otherwise it is None.
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
    """A dataset's E2M constants: ``features`` rows are the observed indicator,
    1, y*^2 and the censored indicator; ``log_base`` is log pl + log y* (observed).
    ``posterior`` is the one (p, n) buffer every E-step writes into."""

    def __init__(self, ds: SoftLabeledDataset, params: MixtureParams) -> None:
        if params.n_components != ds.n_components:
            raise ValueError("parameter and label dimensions disagree")
        y, obs = ds.data.y_star, ds.data.observed
        self.features = np.stack([obs, np.ones_like(y), y * y, ~obs])
        with np.errstate(divide="ignore"):
            self.log_base = np.log(ds.pl.T, order="C")
        self.log_base += np.where(obs, np.log(y), 0.0)
        self.posterior = np.empty_like(self.log_base)

    def loglik_and_posterior(self, lambdas: np.ndarray, xis: np.ndarray) -> tuple[float, np.ndarray]:
        """Log-weights log[lambda_z (f or S)(y*_j; xi_z) pl_j(z)], then one max-shifted
        ``exp`` gives both the generalized log-likelihood and ``posterior``."""
        with np.errstate(divide="ignore"):
            coef = np.array([2.0 * np.log(xis), np.log(lambdas), -0.5 * xis**2]).T
        w = np.matmul(coef, self.features[:3], out=self.posterior)
        w += self.log_base
        hi = w.max(axis=0)
        bad = np.flatnonzero(~np.isfinite(hi))
        if bad.size:
            raise DegenerateLikelihoodError(f"generalized log-likelihood is non-finite at record(s) {bad.tolist()}")
        w -= hi
        np.exp(w, out=w)
        total = w.sum(axis=0)
        w /= total
        np.log(total, out=total)
        total += hi
        return float(total.sum()), w

    def m_step(self, W: np.ndarray, xis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:func:`m_step` on the (p, n) posterior, returning raw (lambdas, xis)."""
        weight, moment, cens = (W @ self.features[1:].T).T
        starved = np.flatnonzero(weight < STARVATION_FRAC * W.shape[1])
        if starved.size:
            raise ComponentStarvedError(f"component(s) {starved.tolist()} received no posterior weight")
        denom = moment + cens * 2.0 / xis**2
        # xi^2 = 2 weight / denom must stay finite, so denom must not vanish
        bad = np.flatnonzero(~(denom > 2.0 * weight / np.finfo(float).max))
        if bad.size:
            raise ComponentStarvedError(f"component(s) {bad.tolist()} have a degenerate moment denominator")
        return weight / weight.sum(), np.sqrt(2.0 * weight / denom)


def generalized_loglik(ds: SoftLabeledDataset, params: MixtureParams) -> float:
    """Generalized observed-data log-likelihood of ``params``.

    Raises :class:`DegenerateLikelihoodError` naming the offending records
    when some record is impossible under every component its soft label
    allows.
    """
    return _Kernel(ds, params).loglik_and_posterior(params.lambdas, params.xis)[0]


def e_step(ds: SoftLabeledDataset, params: MixtureParams) -> np.ndarray:
    """Posterior component weights, one row per record, rows summing to 1.

    Each row is the combination of the model-based posterior (density-based
    for observed records, survival-based for censored ones) with the
    record's soft label, i.e. proportional to lambda * (f or S) * pl.
    """
    return _Kernel(ds, params).loglik_and_posterior(params.lambdas, params.xis)[1].T


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
    return MixtureParams(*_Kernel(ds, params_k).m_step(W.T, params_k.xis))


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
    if the log-likelihood leaves the finite range, and propagates
    :class:`ComponentStarvedError` from the M-step.
    """
    kernel = _Kernel(ds, init)
    lambdas, xis = init.lambdas, init.xis
    gll, W = kernel.loglik_and_posterior(lambdas, xis)
    steps = [(lambdas, xis, gll)]
    converged = False
    for _ in range(config.max_iters):
        lambdas, xis = kernel.m_step(W, xis)
        try:
            gll_new, W = kernel.loglik_and_posterior(lambdas, xis)
        except DegenerateLikelihoodError as exc:
            exc.trace = E2MTrace(*map(np.array, zip(*steps)), False)
            raise
        steps.append((lambdas, xis, gll_new))
        rel = (gll_new - gll) / max(abs(gll), np.finfo(float).tiny)
        gll = gll_new
        if rel < config.tol:
            converged = True
            break
    return MixtureParams(lambdas, xis), E2MTrace(*map(np.array, zip(*steps)), converged)


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
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "item_id" or len(header) < 2:
            raise ValueError(f"{path}: expected header item_id, pl_1, ..., pl_p")
        ids: list[int] = []
        rows: list[list[float]] = []
        for row_no, r in enumerate(filter(None, reader), start=1):
            if len(r) != len(header):
                raise ValueError(f"{path}: row {row_no} has {len(r)} fields, expected {len(header)}")
            ids.append(int(r[0]) - 1)
            rows.append([float(v) for v in r[1:]])
    return np.array(ids, dtype=int), np.array(rows, dtype=float)
