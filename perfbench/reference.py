"""Independent E2M oracle used by the benchmark's correctness checks.

Written from the model, not from the program: the generalized
log-likelihood of a censored Rayleigh mixture with soft labels,

    sum_j log sum_z lambda_z pl_jz f_or_S(y_j; xi_z),
    f(y; xi) = xi^2 y exp(-xi^2 y^2 / 2),   S(y; xi) = exp(-xi^2 y^2 / 2),

and the EM path of its closed-form update from a given start.
"""

from __future__ import annotations

import numpy as np

# A converged fit must match, within XI_RTOL (relative, on every xi), an EM
# iterate from the same start that lies between the first one meeting the
# relative log-likelihood stop rule (less one, for rounding at the threshold)
# and the fixed point.  So a stricter stopping rule passes, and a wrong E- or
# M-step, which leaves the path, does not.
XI_RTOL = 1e-6


def _log_weights(y, observed, pl, lambdas, xis):
    with np.errstate(divide="ignore"):
        out = np.log(lambdas)[None, :] - 0.5 * (y[:, None] * xis[None, :]) ** 2 + np.log(pl)
        out[observed] += 2.0 * np.log(xis)[None, :] + np.log(y[observed])[:, None]
    return out


def gll(y, observed, pl, lambdas, xis) -> float:
    """Generalized observed-data log-likelihood."""
    lw = _log_weights(y, observed, pl, np.asarray(lambdas, float), np.asarray(xis, float))
    hi = lw.max(axis=1)
    return float(np.sum(hi + np.log(np.exp(lw - hi[:, None]).sum(axis=1))))


def em_path(y, observed, pl, lambdas, xis, tol: float, max_iters: int = 20000, rtol: float = 1e-12):
    """xi iterates from (lambdas, xis), from the one before the first whose
    relative log-likelihood gain is below ``tol`` up to the fixed point
    (no parameter moving by more than ``rtol``, relative)."""
    lam = np.asarray(lambdas, float).copy()
    xi = np.asarray(xis, float).copy()
    y2 = y**2
    censored = ~observed
    path = [xi]
    stop = None
    gll_prev = None
    for k in range(max_iters + 1):
        lw = _log_weights(y, observed, pl, lam, xi)
        hi = lw.max(axis=1, keepdims=True)
        w = np.exp(lw - hi)
        total = w.sum(axis=1, keepdims=True)
        g = float(np.sum(hi[:, 0] + np.log(total[:, 0])))
        if stop is None and gll_prev is not None and (g - gll_prev) / max(abs(gll_prev), np.finfo(float).tiny) < tol:
            stop = k
        gll_prev = g
        w /= total
        weight = w.sum(axis=0)
        # censored units contribute E[T^2 | T > y] = y^2 + 2 / xi^2
        denom = y2 @ w + w[censored].sum(axis=0) * 2.0 / xi**2
        lam_new = weight / weight.sum()
        xi_new = np.sqrt(2.0 * weight / denom)
        moved = max(np.max(np.abs(lam_new - lam)), np.max(np.abs(xi_new - xi) / xi))
        lam, xi = lam_new, xi_new
        path.append(xi)
        if stop is not None and moved < rtol:
            break
    return path[max((stop or 1) - 1, 0):]


def check_fit(y, observed, pl, init, est, converged: bool, tol: float, compare_to_reference: bool) -> list[str]:
    """Problems with one fit: non-finite or off-simplex parameters, a final
    log-likelihood below the initial one, or (when asked, for converged fits)
    xi off the reference EM path from the same start."""
    lam, xi = np.asarray(est[0], float), np.asarray(est[1], float)
    if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(xi)) and np.all(xi > 0)):
        return ["non-finite or non-positive parameters"]
    problems = []
    if np.any(lam < 0) or abs(lam.sum() - 1.0) > 1e-9:
        problems.append(f"lambdas off the simplex: {lam.tolist()}")
    g0 = gll(y, observed, pl, *init)
    g1 = gll(y, observed, pl, lam, xi)
    if not g1 >= g0 - 1e-9 * abs(g0):
        problems.append(f"final log-likelihood {g1!r} below initial {g0!r}")
    if converged and compare_to_reference:
        path = em_path(y, observed, pl, *init, tol=tol)
        dev = min(float(np.max(np.abs(xi - ref) / ref)) for ref in path)
        if not dev <= XI_RTOL:
            problems.append(f"xi {xi.tolist()} is {dev:.3g} (relative) from the reference EM path "
                            f"ending at {path[-1].tolist()}; tolerance {XI_RTOL}")
    return problems
