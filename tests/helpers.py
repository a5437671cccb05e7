"""Independent oracles shared by the test modules.

Everything here but the last section is deliberately written against the
formulas only, with scalar loops, math.fsum, and generic search routines, so
that agreement with the library is a genuine cross-check rather than a
tautology.  The last sections hold small hand-built datasets and expose the
library's own batched kernel one dataset and one step at a time, for the
tests that check single steps, and look up one cell of a sweep's summary.
"""

import math
from dataclasses import dataclass

import numpy as np

from evidem import estimator
from evidem.censoring import CensoredDataset, CensoringScheme
from evidem.estimator import E2MConfig, LabelMode, SoftLabeledDataset
from evidem.rayleigh import MixtureParams
from evidem.simulation import curve
from oracles import log_pdf, log_survival, truncated_second_moment


def classical_censored_em(y, observed, lam0, xi0, n_updates):
    """Plain EM for a censored Rayleigh mixture, no soft labels anywhere.

    Responsibilities are density-based for observed records and
    survival-based for censored ones; the parameter updates use the exact
    censored second moment y^2 + 2/xi^2.  Returns the list of parameter
    pairs after each update.
    """
    p = len(lam0)
    n = len(y)
    lam = [float(v) for v in lam0]
    xi = [float(v) for v in xi0]
    trace = []
    for _ in range(n_updates):
        W = []
        for j in range(n):
            terms = []
            for z in range(p):
                if observed[j]:
                    dens = xi[z] ** 2 * y[j] * math.exp(-0.5 * xi[z] ** 2 * y[j] ** 2)
                else:
                    dens = math.exp(-0.5 * xi[z] ** 2 * y[j] ** 2)
                terms.append(lam[z] * dens)
            s = math.fsum(terms)
            W.append([t / s for t in terms])
        new_lam, new_xi = [], []
        for z in range(p):
            wz = math.fsum(W[j][z] for j in range(n))
            denom = math.fsum(
                W[j][z] * (y[j] ** 2 + (0.0 if observed[j] else 2.0 / xi[z] ** 2))
                for j in range(n)
            )
            new_lam.append(wz / n)
            new_xi.append(math.sqrt(2.0 * wz / denom))
        lam, xi = new_lam, new_xi
        trace.append((list(lam), list(xi)))
    return trace


def reference_e2m(y, observed, pl, lam0, xi0, n_updates):
    """E2M with soft labels in plain record-major numpy, built on the oracle formulas.

    Log-weights log[lambda_z * (f or S)(y_j; xi_z) * pl_j(z)] come from
    ``oracles.log_pdf`` and ``oracles.log_survival`` as an (n, p) array
    normalized by row-max subtraction; the M-step takes the censored records'
    second moments from ``oracles.truncated_second_moment``.  Returns the
    generalized log-likelihood at the start and after each update, and the
    (lambdas, xis) pair after each update.
    """
    y = np.asarray(y, dtype=float)
    obs = np.asarray(observed, dtype=bool)
    pl = np.asarray(pl, dtype=float)
    y_col = y[:, None]

    def loglik_and_posterior(lam, xi):
        with np.errstate(divide="ignore"):
            logw = np.log(lam) + np.log(pl)
        logw += np.where(obs[:, None], log_pdf(xi, y_col), log_survival(xi, y_col))
        hi = logw.max(axis=1, keepdims=True)
        w = np.exp(logw - hi)
        total = w.sum(axis=1, keepdims=True)
        return float(np.sum(hi + np.log(total))), w / total

    lam, xi = np.asarray(lam0, dtype=float), np.asarray(xi0, dtype=float)
    gll, W = loglik_and_posterior(lam, xi)
    glls, params = [gll], []
    for _ in range(n_updates):
        weight = W.sum(axis=0)
        second = np.where(obs[:, None], y_col**2, truncated_second_moment(xi, y_col))
        denom = (W * second).sum(axis=0)
        lam, xi = weight / weight.sum(), np.sqrt(2.0 * weight / denom)
        gll, W = loglik_and_posterior(lam, xi)
        glls.append(gll)
        params.append((lam, xi))
    return glls, params


def golden_section_max(f, lo, hi, n_iters=120):
    """Maximize a unimodal function on [lo, hi] by golden-section search."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(n_iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def max_weighted_log_simplex(weights):
    """Numerically maximize sum_z w_z log(l_z) over the probability simplex."""
    import warnings

    from scipy.optimize import minimize

    w = np.asarray(weights, dtype=float)
    p = w.size

    def neg(l):
        if np.any(l <= 0.0):
            return np.inf
        return -float(np.sum(w * np.log(l)))

    with warnings.catch_warnings():
        # SLSQP may momentarily step outside the bounds; that is its business
        warnings.simplefilter("ignore", RuntimeWarning)
        res = minimize(
            neg,
            np.full(p, 1.0 / p),
            method="SLSQP",
            bounds=[(1e-12, 1.0)] * p,
            constraints=[{"type": "eq", "fun": lambda l: np.sum(l) - 1.0}],
            options={"ftol": 1e-14, "maxiter": 500},
        )
    return res.x


def random_mass_assignments(frame_size, rng, max_focal=None):
    """Random bba as a dict over nonempty subset bitmasks."""
    full = (1 << frame_size) - 1
    subsets = list(range(1, full + 1))
    k = int(rng.integers(1, (max_focal or len(subsets)) + 1))
    chosen = rng.choice(subsets, size=min(k, len(subsets)), replace=False)
    masses = rng.random(len(chosen))
    masses = masses / masses.sum()
    return {int(mask): float(m) for mask, m in zip(chosen, masses)}


def random_soft_instance(rng, n_lo=20, n_hi=200, p_choices=(2, 3), censor_fracs=(0.0, 0.4)):
    """Random censored dataset with random soft labels, plus an initial point."""
    from evidem.censoring import run_life_test, scheme_from_censor_frac
    from evidem.rayleigh import sample_labeled

    n = int(rng.integers(n_lo, n_hi + 1))
    p = int(rng.choice(p_choices))
    lam = rng.dirichlet(np.full(p, 5.0))
    xis = rng.uniform(0.5, 3.0, size=p)
    truth = MixtureParams(lam, xis)
    times, labels = sample_labeled(truth, n, rng)
    frac = float(rng.choice(censor_fracs))
    scheme = scheme_from_censor_frac(n, frac)
    ds = run_life_test(times, labels, scheme, rng)
    pl = rng.uniform(0.05, 1.0, size=(n, p))
    soft = SoftLabeledDataset(ds, pl)
    init = MixtureParams(rng.dirichlet(np.full(p, 8.0)), rng.uniform(0.6, 2.5, size=p))
    return soft, truth, init


def toy_dataset(times, observed, labels=None, rng=None):
    """Assemble a dataset in event order from explicit record arrays."""
    times = np.asarray(times, dtype=float)
    observed = np.asarray(observed, dtype=bool)
    n = times.size
    J = int(observed.sum())
    fail_times = times[observed]
    removals = [0] * J
    caf = np.zeros(n, dtype=int)
    for i in np.flatnonzero(~observed):
        j = int(np.searchsorted(fail_times, times[i], side="left"))
        assert fail_times[j] == times[i], "censored times must equal a failure time"
        removals[j] += 1
        caf[i] = j + 1
    return CensoredDataset(
        scheme=CensoringScheme(n, tuple(removals)),
        item_id=np.arange(n),
        y_star=times,
        observed=observed,
        censored_at_failure=caf,
        true_label=None if labels is None else np.asarray(labels, dtype=int),
    )


def starving_problem():
    """Component 0 keeps only a failure at 1e-160, so xi_0^2 = 2 / y^2 overflows."""
    ds = toy_dataset([1e-160, 1.0, 1.5, 2.0, 2.5], [True] * 5)
    pl = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
    return SoftLabeledDataset(ds, pl), MixtureParams(np.array([0.5, 0.5]), np.array([1.0, 1.0]))


@np.errstate(all="ignore")  # the kernel runs under fit_batch's floating-point state
def _loglik_and_posterior(ds, params):
    kernel = estimator._Kernel([ds])
    gll, _, failed = kernel.loglik_and_posterior(np.stack([params.xis, params.lambdas])[None])
    if failed:
        raise failed[0]
    return float(gll[0]), kernel.posterior[0]


def generalized_loglik(ds, params):
    """The kernel's generalized observed-data log-likelihood of ``params``.

    Raises ``DegenerateLikelihoodError`` naming the offending records when
    some record is impossible under every component its soft label allows.
    """
    return _loglik_and_posterior(ds, params)[0]


def e_step(ds, params):
    """The kernel's posterior component weights, one row per record, each
    proportional to lambda * (f or S) * pl."""
    return _loglik_and_posterior(ds, params)[1].T


@np.errstate(all="ignore")
def m_step(ds, W, params_k):
    """The kernel's closed-form M-step on the (n, p) posterior ``W``;
    raises ``ComponentStarvedError`` where it cannot update a component."""
    theta, failed = estimator._Kernel([ds]).m_step(np.asarray(W, dtype=float).T[None], params_k.xis[None] ** 2)
    if failed:
        raise failed[0]
    return MixtureParams(theta[0, 1], theta[0, 0])


@dataclass(eq=False)
class IteratedTrace:
    """Parameters and generalized log-likelihood per iterate of one fit; row 0 is the start."""

    lambdas: np.ndarray
    xis: np.ndarray
    gll_values: np.ndarray
    converged: bool

    @property
    def iterations_used(self):
        return len(self.gll_values) - 1

    @property
    def iterates(self):
        """(MixtureParams, generalized log-likelihood) per iterate; entry 0 is the start."""
        return [(MixtureParams(lam, xi), float(g)) for lam, xi, g in zip(self.lambdas, self.xis, self.gll_values)]


def fit(ds, init, config=E2MConfig()):
    """Fit ``ds`` from ``init`` alone: ``fit_batch``'s batch of one, whose error it raises.

    Returns the estimate and its :class:`IteratedTrace`, the steps stacked.
    """
    (result,), steps = estimator.fit_batch([ds], [init], config)
    if result["error"] is not None:
        raise result["error"]
    _, lambdas, xis, gll = (np.concatenate(a) for a in zip(*steps))
    return MixtureParams(result["lambdas"], result["xis"]), IteratedTrace(lambdas, xis, gll, bool(result["converged"]))


def history(steps, b):
    """The (lambdas, xis, gll) iterates of fit ``b`` among the steps ``fit_batch`` returns."""
    picks = [(lam[k], xi[k], g[k]) for rows, lam, xi, g in steps for k in np.flatnonzero(rows == b)]
    return [np.array(a) for a in zip(*picks)]


def cell(summary, method, grid_value, parameter):
    """The one summary record at exactly ``grid_value``; a KeyError if none or several (a repeated grid value) match."""
    pts = curve(summary, method, parameter)
    found = pts[pts["grid_value"] == grid_value]
    if len(found) != 1:
        raise KeyError(f"grid value {grid_value!r} matches {len(found)} {LabelMode(method).value} cells of {parameter}")
    return found.view(np.recarray)[0]
