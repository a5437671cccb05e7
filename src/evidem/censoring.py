"""Progressive Type-II censored life tests.

A scheme places ``n`` units on test, observes ``J`` failures, and removes
``R_j`` still-functioning units immediately after the j-th failure, so
``sum(R) + J == n``.  The module validates schemes, replays the physical
experiment on labelled lifetimes (labels must survive censoring so that the
label-corruption protocol can act on every unit), and reads and writes the
resulting datasets as CSV.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "SchemeError",
    "CensoringScheme",
    "CensoredDataset",
    "conventional_scheme",
    "scheme_from_censor_frac",
    "validate",
    "run_life_test",
    "write_dataset_csv",
    "read_dataset_csv",
]


class SchemeError(ValueError):
    """A censoring plan violates its accounting constraints."""


@dataclass(frozen=True)
class CensoringScheme:
    """Test plan: ``n`` units, removals ``R_1..R_J`` after each observed failure."""

    n: int
    removals: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "removals", tuple(int(r) for r in self.removals))
        validate(self)

    @property
    def J(self) -> int:
        """Number of observed failures."""
        return len(self.removals)

    @property
    def n_censored(self) -> int:
        return self.n - self.J


def validate(scheme: CensoringScheme) -> None:
    """Raise :class:`SchemeError` unless the plan's accounting holds."""
    n, R = scheme.n, scheme.removals
    J = len(R)
    if not 1 <= J <= n:
        raise SchemeError(f"need 1 <= J <= n, got J={J}, n={n}")
    if any(r < 0 for r in R):
        raise SchemeError(f"removal counts must be nonnegative, got {R}")
    total = sum(R) + J
    if total != n:
        raise SchemeError(f"sum(R) + J = {total} but n = {n}; the plan must exhaust all units")


def conventional_scheme(n: int, J: int) -> CensoringScheme:
    """Plan removing all survivors at the last failure: R = (0, ..., 0, n - J)."""
    if not 1 <= J <= n:
        raise SchemeError(f"need 1 <= J <= n, got J={J}, n={n}")
    removals = [0] * J
    removals[-1] = n - J
    return CensoringScheme(n, tuple(removals))


def scheme_from_censor_frac(n: int, censor_frac: float) -> CensoringScheme:
    """Conventional plan observing ceil(n * (1 - censor_frac)) failures.

    Subtracting 1e-9 before the ceiling absorbs round-off in
    ``n * (1 - censor_frac)``, so that ``censor_frac = 1 - J / n`` gives
    back J rather than J + 1.
    """
    if not 0.0 <= censor_frac < 1.0:
        raise SchemeError(f"censor_frac must be in [0, 1), got {censor_frac}")
    J = max(1, math.ceil(n * (1.0 - censor_frac) - 1e-9))
    return conventional_scheme(n, J)


@dataclass(frozen=True, eq=False)
class CensoredDataset:
    """Outcome of one progressively censored life test, in event order.

    Records are ordered failure by failure: the j-th observed failure,
    then the ``R_j`` units withdrawn at that failure time.  For censored
    units ``y_star`` is the failure time at which they were removed and
    ``censored_at_failure`` is j (1-based); both are 0 on observed rows.
    ``item_id`` is the 0-based position of the unit in the input sample.
    """

    scheme: CensoringScheme
    item_id: np.ndarray
    y_star: np.ndarray
    observed: np.ndarray
    censored_at_failure: np.ndarray
    true_label: np.ndarray | None = None

    def __post_init__(self) -> None:
        item_id = np.asarray(self.item_id, dtype=int).copy()
        y = np.asarray(self.y_star, dtype=float).copy()
        obs = np.asarray(self.observed, dtype=bool).copy()
        caf = np.asarray(self.censored_at_failure, dtype=int).copy()
        n = self.scheme.n
        for name, arr in (("item_id", item_id), ("y_star", y), ("observed", obs), ("censored_at_failure", caf)):
            if arr.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
        label = self.true_label
        if label is not None:
            label = np.asarray(label, dtype=int).copy()
            if label.shape != (n,):
                raise ValueError(f"true_label must have shape ({n},), got {label.shape}")
            label.flags.writeable = False
        bad = np.flatnonzero(~(np.isfinite(y) & (y > 0.0)))
        if bad.size:
            raise ValueError(f"y_star must be finite and positive; record(s) {bad.tolist()} are not")
        ordered = np.sort(item_id)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("item_id values must be unique")
        self._check_event_structure(y, obs, caf)
        for arr in (item_id, y, obs, caf):
            arr.flags.writeable = False
        object.__setattr__(self, "item_id", item_id)
        object.__setattr__(self, "y_star", y)
        object.__setattr__(self, "observed", obs)
        object.__setattr__(self, "censored_at_failure", caf)
        object.__setattr__(self, "true_label", label)

    def _check_event_structure(self, y, obs, caf) -> None:
        scheme = self.scheme
        if int(obs.sum()) != scheme.J:
            raise ValueError(f"expected {scheme.J} observed records, found {int(obs.sum())}")
        fail_times = y[obs]
        if np.any(np.diff(fail_times) < 0):
            raise ValueError("observed failure times must be nondecreasing in record order")
        if np.any(caf[obs] != 0):
            raise ValueError("observed records must carry censored_at_failure = 0")
        cens_j = caf[~obs]
        if np.any((cens_j < 1) | (cens_j > scheme.J)):
            raise ValueError("censored records must reference a failure index in 1..J")
        counts = np.bincount(cens_j, minlength=scheme.J + 1)[1:]
        if list(counts) != list(scheme.removals):
            raise ValueError(f"censored counts per failure {list(counts)} do not match removals {list(scheme.removals)}")
        if not np.allclose(y[~obs], fail_times[cens_j - 1]):
            raise ValueError("each censored time must equal the failure time at which the unit was removed")

    @property
    def n(self) -> int:
        return self.scheme.n

    @property
    def observed_times(self) -> np.ndarray:
        return self.y_star[self.observed]


def run_life_test(
    labeled_lifetimes: Sequence[tuple[float, int]],
    scheme: CensoringScheme,
    rng: np.random.Generator,
) -> CensoredDataset:
    """Replay the physical experiment on a complete labelled sample.

    Repeatedly the smallest remaining lifetime fails; then ``R_j`` of the
    survivors are removed uniformly at random without replacement and
    recorded as censored at that failure time.  Lifetime ties (probability
    zero under continuous models) break by input order.
    """
    pairs = list(labeled_lifetimes)
    if len(pairs) != scheme.n:
        raise ValueError(f"expected {scheme.n} lifetimes, got {len(pairs)}")
    times = np.array([float(t) for t, _ in pairs])
    labels = np.array([int(z) for _, z in pairs])

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


def write_dataset_csv(ds: CensoredDataset, path) -> None:
    """CSV form: item_id, y_star, status, censored_at_failure, true_label (1-based ids)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["item_id", "y_star", "status", "censored_at_failure", "true_label"])
        for i in range(ds.n):
            status = "observed" if ds.observed[i] else "censored"
            caf = str(int(ds.censored_at_failure[i])) if not ds.observed[i] else ""
            label = str(int(ds.true_label[i]) + 1) if ds.true_label is not None else ""
            writer.writerow([int(ds.item_id[i]) + 1, repr(float(ds.y_star[i])), status, caf, label])


def read_dataset_csv(path) -> CensoredDataset:
    """Inverse of :func:`write_dataset_csv`; reconstructs the scheme from the rows."""
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
