"""Power-set reference implementations that the tests check the library against.

Belief functions on a finite frame of component labels: mass functions live
on the power set of the frame, represented as bitmasks (bit z set means
label z is in the subset).  The module provides credibility and
plausibility, Dempster's conjunctive combination, and the probability-times-
contour combination that the estimator's E-step computes row by row on
plain arrays.  It also holds the Rayleigh component's formulas (density,
survival, quantile and the exact truncated second moment, broadcasting over
``xi`` and ``x``), which the estimator's kernel writes out inline; the exact
observed-data log-likelihood of a progressively censored sample of ordered
failure times; the O(n J) replay of a progressive life test, which
``run_life_test`` must match draw for draw on conventional plans and
``draw_experiment`` in distribution on the others; and the row-by-row
``csv``-module readers of ``data.csv`` and ``labels.csv`` that the column
readers must match value for value, and the row-by-row ``csv.writer`` form of
one ``write_tables`` table whose bytes the column writer must match.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from evidem.censoring import CensoredDataset, CensoringScheme

__all__ = [
    "TotalConflictError",
    "Frame",
    "MassFunction",
    "ContourFunction",
    "ProbabilityVector",
    "vacuous",
    "categorical",
    "bayesian",
    "consonant_from_contour",
    "bel",
    "pl",
    "contour_of",
    "dempster_combine",
    "bayes_contour_combine",
    "pdf",
    "log_pdf",
    "cdf",
    "survival",
    "log_survival",
    "quantile",
    "truncated_second_moment",
    "progressive_loglik",
    "reference_life_test",
    "reference_read_dataset_csv",
    "reference_read_soft_labels_csv",
    "reference_write_table",
]

# Combination only fails when the conflict is this close to certainty.
CONFLICT_TOL = 1e-12
_MASS_SUM_TOL = 1e-12


class TotalConflictError(ValueError):
    """Two pieces of evidence place no joint mass on any common outcome."""


@dataclass(frozen=True)
class Frame:
    """Discernment frame of ``size`` mutually exclusive labels."""

    size: int

    def __post_init__(self) -> None:
        if not isinstance(self.size, int) or isinstance(self.size, bool):
            raise ValueError(f"frame size must be an integer, got {self.size!r}")
        if not 1 <= self.size <= 64:
            raise ValueError(f"frame size must be in [1, 64], got {self.size}")

    @property
    def full(self) -> int:
        """Bitmask of the whole frame."""
        return (1 << self.size) - 1

    def singleton(self, z: int) -> int:
        """Bitmask of the single label ``z`` (0-based)."""
        if not 0 <= z < self.size:
            raise ValueError(f"label index {z} outside frame of size {self.size}")
        return 1 << z

    def check_subset(self, mask: int, *, allow_empty: bool = False) -> None:
        if not isinstance(mask, int) or isinstance(mask, bool):
            raise ValueError(f"subset must be an int bitmask, got {mask!r}")
        if mask & ~self.full:
            raise ValueError(f"bitmask {mask:#x} has bits outside the frame of size {self.size}")
        if mask == 0 and not allow_empty:
            raise ValueError("the empty set is not a valid argument here")


@dataclass(frozen=True, eq=False)
class MassFunction:
    """Basic belief assignment: nonnegative masses on nonempty subsets, summing to 1.

    ``assignments`` maps subset bitmasks to masses.  Zero-mass entries are
    dropped, so the stored keys are exactly the focal elements.
    """

    frame: Frame
    assignments: Mapping[int, float]

    def __post_init__(self) -> None:
        clean: dict[int, float] = {}
        total = 0.0
        for mask, mass in self.assignments.items():
            self.frame.check_subset(mask, allow_empty=True)
            if mask == 0:
                if mass != 0.0:
                    raise ValueError("mass on the empty set is not allowed")
                continue
            mass = float(mass)
            if mass < 0.0:
                raise ValueError(f"negative mass {mass} on subset {mask:#x}")
            if mass == 0.0:
                continue
            clean[mask] = clean.get(mask, 0.0) + mass
            total += mass
        if abs(total - 1.0) > _MASS_SUM_TOL:
            raise ValueError(f"masses sum to {total!r}, expected 1 within {_MASS_SUM_TOL}")
        object.__setattr__(self, "assignments", MappingProxyType(clean))

    @property
    def focal_elements(self) -> list[int]:
        return list(self.assignments.keys())

    def is_bayesian(self) -> bool:
        return all(mask & (mask - 1) == 0 for mask in self.assignments)


@dataclass(frozen=True, eq=False)
class ContourFunction:
    """Plausibility of each singleton label; not required to sum to 1."""

    frame: Frame
    pl: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.pl, dtype=float).copy()
        if arr.shape != (self.frame.size,):
            raise ValueError(f"contour length {arr.shape} does not match frame size {self.frame.size}")
        # tolerate (and clip) roundoff drift from summing masses
        if np.any(arr < -_MASS_SUM_TOL) or np.any(arr > 1.0 + _MASS_SUM_TOL):
            raise ValueError("contour entries must lie in [0, 1]")
        arr = np.clip(arr, 0.0, 1.0)
        if not np.any(arr > 0.0):
            raise ValueError("contour must have at least one positive entry")
        arr.flags.writeable = False
        object.__setattr__(self, "pl", arr)


@dataclass(frozen=True, eq=False)
class ProbabilityVector:
    """A Bayesian mass function stored as a plain probability vector."""

    frame: Frame
    p: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.p, dtype=float).copy()
        if arr.shape != (self.frame.size,):
            raise ValueError(f"probability length {arr.shape} does not match frame size {self.frame.size}")
        if np.any(arr < 0.0):
            raise ValueError("probabilities must be nonnegative")
        if abs(float(arr.sum()) - 1.0) > _MASS_SUM_TOL:
            raise ValueError(f"probabilities sum to {arr.sum()!r}, expected 1")
        arr.flags.writeable = False
        object.__setattr__(self, "p", arr)


def vacuous(frame: Frame) -> MassFunction:
    """Total ignorance: all mass on the full frame."""
    return MassFunction(frame, {frame.full: 1.0})


def categorical(frame: Frame, mask: int) -> MassFunction:
    """All mass on one nonempty subset."""
    frame.check_subset(mask)
    return MassFunction(frame, {mask: 1.0})


def bayesian(pv: ProbabilityVector) -> MassFunction:
    """Probability vector as a mass function on singletons."""
    assignments = {pv.frame.singleton(z): float(pv.p[z]) for z in range(pv.frame.size) if pv.p[z] > 0.0}
    return MassFunction(pv.frame, assignments)


def consonant_from_contour(cf: ContourFunction) -> MassFunction:
    """The consonant (nested focal sets) mass function whose contour is ``cf``.

    Exists only when max(pl) = 1: stacking nested sets ordered by descending
    plausibility forces the most plausible label to reach plausibility one.
    """
    plv = cf.pl
    if abs(float(plv.max()) - 1.0) > _MASS_SUM_TOL:
        raise ValueError("a consonant mass function requires max plausibility 1; rescale the contour")
    order = np.argsort(-plv, kind="stable")
    assignments: dict[int, float] = {}
    mask = 0
    for i, z in enumerate(order):
        mask |= cf.frame.singleton(int(z))
        nxt = float(plv[order[i + 1]]) if i + 1 < len(order) else 0.0
        step = float(plv[z]) - nxt
        if step > 0.0:
            assignments[mask] = assignments.get(mask, 0.0) + step
    return MassFunction(cf.frame, assignments)


def bel(m: MassFunction, subset: int) -> float:
    """Credibility: total mass of nonempty focal elements contained in ``subset``."""
    m.frame.check_subset(subset)
    return float(sum(mass for focal, mass in m.assignments.items() if focal & ~subset == 0))


def pl(m: MassFunction, subset: int) -> float:
    """Plausibility: total mass of focal elements intersecting ``subset``."""
    m.frame.check_subset(subset)
    return float(sum(mass for focal, mass in m.assignments.items() if focal & subset))


def contour_of(m: MassFunction) -> ContourFunction:
    """Plausibility restricted to singletons."""
    values = np.array([pl(m, m.frame.singleton(z)) for z in range(m.frame.size)])
    return ContourFunction(m.frame, values)


def dempster_combine(m1: MassFunction, m2: MassFunction) -> tuple[MassFunction, float]:
    """Conjunctive, normalized combination of two independent mass functions.

    Returns the combined mass function and the conflict k (mass initially
    falling on the empty set).  Raises :class:`TotalConflictError` when
    k exceeds 1 - CONFLICT_TOL.
    """
    if m1.frame != m2.frame:
        raise ValueError("mass functions must share a frame")
    combined: dict[int, float] = {}
    conflict = 0.0
    for a, ma in m1.assignments.items():
        for b, mb in m2.assignments.items():
            c = a & b
            w = ma * mb
            if c == 0:
                conflict += w
            else:
                combined[c] = combined.get(c, 0.0) + w
    if conflict > 1.0 - CONFLICT_TOL:
        raise TotalConflictError(f"total conflict: k = {conflict!r}")
    norm = 1.0 - conflict
    normalized = {mask: mass / norm for mask, mass in combined.items()}
    return MassFunction(m1.frame, normalized), conflict


def bayes_contour_combine(p1: ProbabilityVector, pl2: ContourFunction) -> tuple[ProbabilityVector, float]:
    """Combine a probability vector with a contour function.

    The result is the Bayesian mass function proportional to p1(z) * pl2(z);
    the conflict is one minus the expectation of pl2 with respect to p1.
    Equivalent to Dempster-combining the Bayesian mass function with any
    consonant mass function realizing pl2, but needs no power-set work.
    """
    if p1.frame != pl2.frame:
        raise ValueError("operands must share a frame")
    weights = p1.p * pl2.pl
    total = float(weights.sum())
    conflict = 1.0 - total
    if conflict > 1.0 - CONFLICT_TOL:
        raise TotalConflictError(f"total conflict: k = {conflict!r}")
    return ProbabilityVector(p1.frame, weights / total), conflict


def _require_positive(x, name: str):
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError(f"{name} must be strictly positive")
    return arr


def pdf(xi, x):
    """Density xi^2 * x * exp(-xi^2 x^2 / 2) for x > 0."""
    xv = _require_positive(x, "x")
    xi = np.asarray(xi, dtype=float)
    return xi**2 * xv * np.exp(-0.5 * xi**2 * xv**2)


def log_pdf(xi, x):
    """Log density, stable for arguments far in the tail."""
    xv = _require_positive(x, "x")
    xi = np.asarray(xi, dtype=float)
    return 2.0 * np.log(xi) + np.log(xv) - 0.5 * xi**2 * xv**2


def cdf(xi, x):
    xv = np.asarray(x, dtype=float)
    if np.any(xv < 0.0):
        raise ValueError("x must be nonnegative")
    xi = np.asarray(xi, dtype=float)
    return -np.expm1(-0.5 * xi**2 * xv**2)


def survival(xi, x):
    """Survival exp(-xi^2 x^2 / 2) for x >= 0."""
    xv = np.asarray(x, dtype=float)
    if np.any(xv < 0.0):
        raise ValueError("x must be nonnegative")
    xi = np.asarray(xi, dtype=float)
    return np.exp(-0.5 * xi**2 * xv**2)


def log_survival(xi, x):
    xv = np.asarray(x, dtype=float)
    if np.any(xv < 0.0):
        raise ValueError("x must be nonnegative")
    xi = np.asarray(xi, dtype=float)
    return -0.5 * xi**2 * xv**2


def quantile(xi, u):
    """Inverse cdf: the x with F(x; xi) = u, for 0 < u < 1."""
    uv = np.asarray(u, dtype=float)
    if np.any(uv <= 0.0) or np.any(uv >= 1.0):
        raise ValueError("u must lie strictly inside (0, 1)")
    xi = np.asarray(xi, dtype=float)
    return np.sqrt(-2.0 * np.log1p(-uv)) / xi


def truncated_second_moment(xi, y):
    """E[X^2 | X > y] = y^2 + 2 / xi^2, exact because X^2 is exponential."""
    yv = np.asarray(y, dtype=float)
    if np.any(yv < 0.0):
        raise ValueError("y must be nonnegative")
    xi = np.asarray(xi, dtype=float)
    return yv**2 + 2.0 / xi**2


def progressive_loglik(
    scheme: CensoringScheme,
    observed_times: Sequence[float],
    logpdf: Callable[[np.ndarray], np.ndarray],
    logsf: Callable[[np.ndarray], np.ndarray],
) -> float:
    """Exact log-likelihood of the ordered failure times under the scheme.

    log C + sum_j [ log f(x_j) + R_j log S(x_j) ] with the combinatorial
    constant C = prod_j (n - j + 1 - R_1 - ... - R_{j-1}).  Returns -inf
    when some removal happens at a time the model declares impossible to
    survive (S = 0 with R_j > 0).
    """
    times = np.asarray(observed_times, dtype=float)
    J = scheme.J
    if times.shape != (J,):
        raise ValueError(f"expected {J} observed times, got shape {times.shape}")
    if np.any(np.diff(times) < 0):
        raise ValueError("observed times must be sorted nondecreasing")
    R = np.asarray(scheme.removals)
    remaining = scheme.n - np.arange(J) - np.concatenate(([0], np.cumsum(R)[:-1]))
    log_c = float(np.log(remaining).sum())
    lp = np.asarray(logpdf(times), dtype=float)
    ls = np.asarray(logsf(times), dtype=float)
    total = log_c + float(lp.sum())
    mask = R > 0
    if np.any(mask):
        tail = ls[mask]
        if np.any(np.isneginf(tail)):
            return -math.inf
        total += float((R[mask] * tail).sum())
    return total


def reference_life_test(times, labels, scheme: CensoringScheme, rng: np.random.Generator) -> CensoredDataset:
    """Replay the life test by scanning the whole alive mask at every removal.

    Draws the removed units with ``rng.choice`` over the survivors' indices,
    one call per event with ``R_j > 0``.
    """
    times = np.asarray(times, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if times.shape != (scheme.n,) or labels.shape != (scheme.n,):
        raise ValueError(f"expected {scheme.n} lifetimes and labels")
    order = np.argsort(times, kind="stable")
    alive = np.ones(scheme.n, dtype=bool)
    ids: list[int] = []
    y: list[float] = []
    obs: list[bool] = []
    caf: list[int] = []
    cursor = 0
    for j, r_j in enumerate(scheme.removals, start=1):
        while not alive[order[cursor]]:
            cursor += 1
        fail = int(order[cursor])
        t_j = float(times[fail])
        alive[fail] = False
        ids.append(fail)
        y.append(t_j)
        obs.append(True)
        caf.append(0)
        if r_j > 0:
            survivors = np.flatnonzero(alive)
            removed = rng.choice(survivors, size=r_j, replace=False)
            for unit in sorted(int(u) for u in removed):
                alive[unit] = False
                ids.append(unit)
                y.append(t_j)
                obs.append(False)
                caf.append(j)
    id_arr = np.array(ids)
    return CensoredDataset(
        scheme=scheme,
        item_id=id_arr,
        y_star=np.array(y),
        observed=np.array(obs),
        censored_at_failure=np.array(caf),
        true_label=labels[id_arr],
    )


def reference_read_dataset_csv(path) -> CensoredDataset:
    """Read ``data.csv`` row by row with ``csv.DictReader`` and Python's int/float."""
    path = Path(path)
    ids: list[int] = []
    ys: list[float] = []
    obs: list[bool] = []
    caf: list[int] = []
    labels: list[int | None] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"item_id", "y_star", "status", "censored_at_failure", "true_label"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(f"{path}: expected columns {sorted(required)}")
        for row_no, row in enumerate(reader, start=1):
            if None in row.values():
                raise ValueError(f"{path}: row {row_no} has fewer than {len(reader.fieldnames)} fields")
            ids.append(int(row["item_id"]) - 1)
            ys.append(float(row["y_star"]))
            status = row["status"].strip().lower()
            if status not in ("observed", "censored"):
                raise ValueError(f"{path}: unknown status {row['status']!r}")
            obs.append(status == "observed")
            caf.append(int(row["censored_at_failure"]) if row["censored_at_failure"] else 0)
            labels.append(int(row["true_label"]) - 1 if row["true_label"] else None)
    n = len(ids)
    J = sum(obs)
    counts = [0] * J
    for row_no, (is_obs, j) in enumerate(zip(obs, caf), start=1):
        if not is_obs:
            if not 1 <= j <= J:
                raise ValueError(f"{path}: row {row_no} is censored at failure {j}, outside 1..{J}")
            counts[j - 1] += 1
    scheme = CensoringScheme(n, tuple(counts))
    have_labels = all(z is not None for z in labels)
    return CensoredDataset(
        scheme=scheme,
        item_id=np.array(ids),
        y_star=np.array(ys),
        observed=np.array(obs),
        censored_at_failure=np.array(caf),
        true_label=np.array(labels, dtype=int) if have_labels else None,
    )


def reference_read_soft_labels_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read ``labels.csv`` row by row with ``csv.reader``: (0-based ids, plausibility matrix)."""
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


def _reference_cell(value):
    """A boolean as true/false and NaN as None, an empty field; other values as they are."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return None if value != value else value


def _reference_cells(values) -> list:
    """One column as the values csv.writer writes; it writes a float as its repr."""
    values = np.asarray(values)
    cells = values.tolist()
    if values.dtype.kind in "bO" or (values.dtype.kind == "f" and np.isnan(values).any()):
        return [_reference_cell(v) for v in cells]
    return cells


def reference_write_table(path, header, n_rows: int, columns) -> None:
    """Write a table of ``n_rows`` rows as ``csv.writer.writerows`` does, one row of cells at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if n_rows:
            writer.writerows(zip(*(_reference_cells(col) for col in columns)))
