"""Finite mixtures of Rayleigh lifetime components: parameters and labelled sampling.

The component is parametrized by a rate-like ``xi > 0``:

    pdf       f(x; xi)    = xi^2 * x * exp(-xi^2 x^2 / 2),   x > 0
    survival  S(x; xi)    = exp(-xi^2 x^2 / 2)
    quantile  F^-1(u; xi) = sqrt(-2 ln(1 - u)) / xi

Under this parametrization X^2 is exponential with rate xi^2 / 2, so the
second moment truncated from below has the closed form y^2 + 2 / xi^2.
That identity is what makes the censored M-step of the estimator exact.
The estimator writes these formulas into its kernel, and the sampler inlines
the quantile; the tests keep them as standalone reference functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MixtureParams", "sample_labeled"]

_WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class MixtureParams:
    """Mixing weights and component parameters of a Rayleigh mixture."""

    lambdas: np.ndarray
    xis: np.ndarray

    def __post_init__(self) -> None:
        lam = np.asarray(self.lambdas, dtype=float).copy()
        xis = np.asarray(self.xis, dtype=float).copy()
        if lam.ndim != 1 or xis.shape != lam.shape:
            raise ValueError("lambdas and xis must be 1-d arrays of equal length")
        if lam.size < 1:
            raise ValueError("a mixture needs at least one component")
        if np.any(~np.isfinite(lam)) or np.any(lam < 0.0):
            raise ValueError("mixing weights must be finite and nonnegative")
        if abs(float(lam.sum()) - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"mixing weights sum to {lam.sum()!r}, expected 1")
        if np.any(~np.isfinite(xis)) or np.any(xis <= 0.0):
            raise ValueError("all xi must be finite and positive")
        lam.flags.writeable = False
        xis.flags.writeable = False
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "xis", xis)

    @property
    def n_components(self) -> int:
        return int(self.lambdas.size)


def sample_labeled(params: MixtureParams, n: int, rng: np.random.Generator):
    """Draw ``n`` labelled lifetimes from the mixture.

    Labels follow the mixing weights; lifetimes are produced by inverse
    transform through the quantile F^-1(u; xi), so runs are exactly
    reproducible under a seeded generator.

    Returns
    -------
    times : ndarray of shape (n,)
    labels : ndarray of shape (n,), 0-based component indices
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    labels = rng.choice(params.n_components, size=n, p=params.lambdas)
    u = rng.random(n)
    times = np.sqrt(-2.0 * np.log1p(-u)) / params.xis[labels]
    return times, labels
