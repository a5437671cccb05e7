"""Independent oracles shared by the test modules.

Everything here is deliberately written against the formulas only, with
scalar loops, math.fsum, and generic search routines, so that agreement
with the library is a genuine cross-check rather than a tautology.
"""

import math

import numpy as np


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
    """E2M with soft labels in plain record-major numpy, written from the formulas.

    Log-weights log[lambda_z * (f or S)(y_j; xi_z) * pl_j(z)] form an (n, p)
    array normalized by row-max subtraction; the M-step uses the exact
    censored second moment y^2 + 2 / xi^2.  Returns the generalized
    log-likelihood at the start and after each update, and the
    (lambdas, xis) pair after each update.
    """
    y = np.asarray(y, dtype=float)
    obs = np.asarray(observed, dtype=bool)
    pl = np.asarray(pl, dtype=float)

    def loglik_and_posterior(lam, xi):
        with np.errstate(divide="ignore"):
            logw = np.log(lam) - 0.5 * np.outer(y**2, xi**2) + np.log(pl)
        logw[obs] += 2.0 * np.log(xi) + np.log(y[obs])[:, None]
        hi = logw.max(axis=1, keepdims=True)
        w = np.exp(logw - hi)
        total = w.sum(axis=1, keepdims=True)
        return float(np.sum(hi + np.log(total))), w / total

    lam, xi = np.asarray(lam0, dtype=float), np.asarray(xi0, dtype=float)
    gll, W = loglik_and_posterior(lam, xi)
    glls, params = [gll], []
    for _ in range(n_updates):
        weight = W.sum(axis=0)
        denom = W.T @ y**2 + W[~obs].sum(axis=0) * 2.0 / xi**2
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
    from evidem.estimator import SoftLabeledDataset
    from evidem.rayleigh import MixtureParams, sample_labeled

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
