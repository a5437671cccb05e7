"""Progressive Type-II censored life tests.

A scheme places ``n`` units on test, observes ``J`` failures, and removes
``R_j`` still-functioning units immediately after the j-th failure, so
``sum(R) + J == n``.  The module validates schemes, produces the datasets of
life tests with their component labels (labels must survive censoring so
that the label-corruption protocol can act on every record), and reads and
writes them as CSV.  ``write_tables`` writes every output table of the
program, ``write_table`` being its one-table case, and ``_chunk_fields``
alone gives a field's text, each distinct float of a chunk formatted once;
csv.writer only quotes.  Tables of at least ``_SPLIT_ROWS`` rows in all, in
a process that may run on two or more CPUs, are written by two processes: a
forked child appends the first half of each, cut on a chunk boundary, while
this process formats the second halves.  The bytes do not depend on it.

``draw_experiment`` produces the life test of a plan on units drawn from a
mixture.  A conventional plan, removing units only at its last failure, is
replayed by ``run_life_test`` on ``sample_labeled``'s units, whose draws fix
the dataset of each seed of a sweep: a stable sort of the lifetimes, and one
``rng.choice`` of the survivors, whose draws and generator state are those of
the unit-by-unit replay ``tests/oracles.reference_life_test``.  Any other plan
is drawn directly from the joint law of its failure times (Balakrishnan &
Aggarwala 2000, *Progressive Censoring*, ch. 2), through uniform spacings, and
its records' labels from their conditional law given those times, in O(n p).

``read_dataset_csv`` parses all rows with one ``np.loadtxt`` call into a
structured array, picking its columns by header name: item_id and y_star as
numbers, and the status and the two columns that may be empty as byte
strings, which numpy compares as whole columns.  loadtxt is handed the path,
which its C reader pulls in large chunks, not the open file, which it reads a
line at a time, unless numpy would decompress the file by its suffix.  An
integer column whose fields are all empty or plain ASCII digits is parsed a
byte position at a time, through a view of the records' bytes; any other
spelling goes through numpy's conversion, which takes what Python's ``int``
takes.  The file is read again only to name a bad row: if that one parse
fails, or if it succeeds on a file that one byte search finds to hold a '"',
as a quote left open reads the lines after it into a field loadtxt may skip.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import os
import signal
import warnings
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .rayleigh import MixtureParams, sample_labeled

__all__ = [
    "SchemeError",
    "CensoringScheme",
    "CensoredDataset",
    "conventional_scheme",
    "scheme_from_censor_frac",
    "run_life_test",
    "draw_experiment",
    "dataset_table",
    "write_table",
    "write_tables",
    "write_dataset_csv",
    "read_dataset_csv",
]


# The most units a plan may hold, checked before any arithmetic on n or any
# list of its size, so a huge n never overflows or allocates gigabytes.
MAX_UNITS = 10**8


class SchemeError(ValueError):
    """A censoring plan violates its accounting constraints."""


def _shown(n: int) -> int | str:
    """A count as an error message gives it: above MAX_UNITS only its number of digits."""
    return n if n <= MAX_UNITS else f"<{len(str(n))} digits>"


def _records(indices: np.ndarray) -> str:
    """Record indices as an error message names them: the first 32, and past 32 also their count."""
    shown = str(indices[:32].tolist())
    return shown if indices.size <= 32 else f"{shown[:-1]}, ...] ({indices.size} in all)"


@dataclass(frozen=True)
class CensoringScheme:
    """Test plan: ``n`` units, removals ``R_1..R_J`` after each observed failure."""

    n: int
    removals: tuple[int, ...]

    def __post_init__(self) -> None:
        """Raise :class:`SchemeError` unless ``n`` and every removal are integers
        (a float, even 2.0, is an error and is never truncated) and the plan's
        accounting holds."""
        try:
            n, removals = operator.index(self.n), tuple(map(operator.index, self.removals))
        except TypeError as exc:
            raise SchemeError(f"n and removal counts must be integers: {exc}") from None
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "removals", removals)
        J = len(removals)
        if not 1 <= J <= n <= MAX_UNITS:
            raise SchemeError(f"need 1 <= J <= n <= {MAX_UNITS}, got J={J}, n={_shown(n)}")
        # min and sum over Python ints are exact at any size, where an int64 sum can wrap
        if min(removals) < 0:
            raise SchemeError(f"removal counts must be nonnegative, but R_{removals.index(min(removals)) + 1} is not")
        total = sum(removals) + J
        if total != n:
            raise SchemeError(f"sum(R) + J = {_shown(total)} but n = {n}; the plan must exhaust all units")

    @property
    def J(self) -> int:
        """Number of observed failures."""
        return len(self.removals)

    @property
    def n_censored(self) -> int:
        return self.n - self.J

    @property
    def conventional(self) -> bool:
        """Whether the plan removes no unit before its last failure."""
        return not any(self.removals[:-1])


def conventional_scheme(n: int, J: int) -> CensoringScheme:
    """Plan removing all survivors at the last failure: R = (0, ..., 0, n - J)."""
    if not 1 <= J <= n <= MAX_UNITS:
        raise SchemeError(f"need 1 <= J <= n <= {MAX_UNITS}, got J={_shown(J)}, n={_shown(n)}")
    removals = [0] * J
    removals[-1] = n - J
    return CensoringScheme(n, tuple(removals))


def scheme_from_censor_frac(n: int, censor_frac: float) -> CensoringScheme:
    """Conventional plan observing ceil(n * (1 - censor_frac)) failures.

    Subtracting 1e-9 before the ceiling absorbs round-off in
    ``n * (1 - censor_frac)``, so that ``censor_frac = 1 - J / n`` gives
    back J rather than J + 1.
    """
    if not 1 <= n <= MAX_UNITS:
        raise SchemeError(f"need 1 <= n <= {MAX_UNITS}, got n={_shown(n)}")
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
    ``item_id`` identifies a record's unit: in a replayed life test its 0-based
    position in the input sample, and in one drawn directly (see
    :func:`draw_experiment`) the record's own 0-based position.
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
        named = (("item_id", item_id), ("y_star", y), ("observed", obs), ("censored_at_failure", caf))
        for name, arr in named:
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
            raise ValueError(f"y_star must be finite and positive; record(s) {_records(bad)} are not")
        if not np.all(item_id[1:] > item_id[:-1]):  # increasing ids, as a drawn test's, are unique unsorted
            ordered = np.sort(item_id)
            if np.any(ordered[1:] == ordered[:-1]):
                raise ValueError("item_id values must be unique")
        self._check_event_structure(y, obs, caf)
        for name, arr in named:
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "true_label", label)

    def _check_event_structure(self, y, obs, caf) -> None:
        scheme = self.scheme
        if np.count_nonzero(obs) != scheme.J:
            raise ValueError(f"expected {scheme.J} observed records, found {np.count_nonzero(obs)}")
        # positions, not masks: a mask that alternates, as in a plan of single removals, indexes slowly
        observed, censored = np.flatnonzero(obs), np.flatnonzero(~obs)
        fail_times = y[observed]
        if np.any(fail_times[1:] < fail_times[:-1]):
            raise ValueError("observed failure times must be nondecreasing in record order")
        if np.any(caf[observed] != 0):
            raise ValueError("observed records must carry censored_at_failure = 0")
        cens_j = caf[censored]
        if np.any((cens_j < 1) | (cens_j > scheme.J)):
            raise ValueError("censored records must reference a failure index in 1..J")
        counts = np.bincount(cens_j, minlength=scheme.J + 1)[1:].tolist()  # compared as ints: no array of the plan
        if counts != list(scheme.removals):
            raise ValueError(f"censored counts per failure {counts} do not match removals {list(scheme.removals)}")
        if not np.array_equal(y[censored], fail_times[cens_j - 1]):
            raise ValueError("each censored time must equal the failure time at which the unit was removed")

    @property
    def n(self) -> int:
        return self.scheme.n

    @property
    def observed_times(self) -> np.ndarray:
        return self.y_star[self.observed]


def run_life_test(
    times: np.ndarray,
    labels: np.ndarray,
    scheme: CensoringScheme,
    rng: np.random.Generator,
) -> CensoredDataset:
    """Replay a conventional life test on a complete labelled sample.

    Unit i has lifetime ``times[i]`` and component label ``labels[i]``.  The J
    smallest lifetimes fail in turn, ties broken by input order; the other units
    are removed at the J-th failure, in unit order, after one ``rng.choice`` of
    them, the generator's draw for removing units at random.  Any other plan
    raises :class:`SchemeError`: :func:`draw_experiment` draws it.
    """
    if not scheme.conventional:
        raise SchemeError("run_life_test replays conventional plans only, which remove every survivor at the "
                          "last failure; draw_experiment draws any other plan")
    times = np.asarray(times, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n, J = scheme.n, scheme.J
    if times.shape != (n,) or labels.shape != (n,):
        raise ValueError(f"expected {n} lifetimes and labels, got shapes {times.shape} and {labels.shape}")

    order = np.argsort(times, kind="stable")
    order[J:].sort()
    if n > J:
        rng.choice(n - J, size=n - J, replace=False)
    y_star = times[order]
    y_star[J:] = y_star[J - 1]
    observed = np.arange(n) < J
    return CensoredDataset(scheme, order, y_star, observed, np.where(observed, 0, J), labels[order])


# Newton's method stops once a step moves no y by more than this share: the steps are then in
# their quadratic phase, and the error left is at the rounding floor.  The paper's model took 7
# steps, mixtures whose xi span two to four orders of magnitude 9 to 13; the cap only bounds a
# solve that cannot settle, as on a NaN.
_NEWTON_RTOL = 1e-9
_MAX_NEWTON_STEPS = 64


def _log_survival(lambdas: np.ndarray, rate: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log S(y) for S(y) = sum_z lambdas_z exp(-rate_z y), and, component-major, each component's share
    of S there: log1p(-F) while F = 1 - S < 1/2, which is accurate where S is near 1, and a
    log-sum-exp beyond, which holds in the far tail."""
    e = np.multiply.outer(rate, y)
    with np.errstate(divide="ignore"):  # a weight of 0 has log -inf; log1p(-F) is -inf where F = 1, and not used
        a = np.log(lambdas)[:, None] - e
        top = a.max(axis=0)
        terms = np.exp(a - top)
        total = terms.sum(axis=0)
        F = lambdas @ -np.expm1(-e)
        return np.where(F < 0.5, np.log1p(-F), top + np.log(total)), terms / total


def _solve_survival(lambdas: np.ndarray, rate: np.ndarray, log_s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The y at which log S(y) = ``log_s``, for S(y) = sum_z lambdas_z exp(-rate_z y) with every
    rate_z <= 1, and, component-major, each component's share of S there.

    log S is convex and decreasing in y, so Newton's method from y = -log s, where S >= s, rises to
    the root.
    """
    y = -log_s
    for _ in range(_MAX_NEWTON_STEPS):
        log_S, share = _log_survival(lambdas, rate, y)
        step = (log_S - log_s) / (rate @ share)  # d log S / dy = -sum_z share_z rate_z
        y = y + step
        if np.all(np.abs(step) <= _NEWTON_RTOL * y):
            break
    return y, _log_survival(lambdas, rate, y)[1]


def _categorical(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per column of component-major ``weights``, the component drawn by the uniform ``u`` with
    probability proportional to its weight."""
    cdf = np.cumsum(weights, axis=0)
    return np.count_nonzero(u >= cdf / cdf[-1], axis=0)


def draw_experiment(model: MixtureParams, scheme: CensoringScheme, rng: np.random.Generator) -> CensoredDataset:
    """One life test of ``scheme`` on units drawn from ``model``.

    A conventional plan, which removes no unit before its last failure, is replayed:
    :func:`run_life_test` on the units of :func:`~evidem.rayleigh.sample_labeled`, each of whose
    ``item_id`` is its position in that sample.  Any other plan is drawn directly (Balakrishnan &
    Sandhu 1995, *Amer. Statist.* 49:229): with W_i ~ U(0, 1) and g_i = i + R_J + ... + R_{J-i+1},
    the j-th failure time solves log S(t_j) = sum_{i=J-j+1}^{J} log(W_i) / g_i.  Given the times,
    the unit failing at t_j has label z with probability proportional to lambda_z f_z(t_j), and
    each unit removed there, independently, with probability proportional to lambda_z S_z(t_j).
    No unit has an identity before it fails, so record k, in event order, has ``item_id`` k.
    """
    if scheme.conventional:
        return run_life_test(*sample_labeled(model, scheme.n, rng), scheme, rng)
    removals = np.array(scheme.removals)
    g = np.arange(1, scheme.J + 1) + np.cumsum(removals[::-1])
    log_s = np.cumsum((np.log1p(-rng.random(scheme.J)) / g)[::-1])  # W_i = 1 - u_i, uniform as u_i is
    # in y = max xi^2 t^2 / 2, S_z(y) = exp(-rate_z y) and f_z is proportional to rate_z S_z
    xi_max = model.xis.max()
    rate = (model.xis / xi_max) ** 2
    y, share = _solve_survival(model.lambdas, rate, log_s)
    records = removals + 1  # failure j, then the R_j units removed at it
    failure_of = np.repeat(np.arange(1, scheme.J + 1), records)
    observed = np.zeros(scheme.n, dtype=bool)
    observed[np.cumsum(records) - records] = True
    labels = np.empty(scheme.n, dtype=int)
    labels[observed] = _categorical(share * rate[:, None], rng.random(scheme.J))
    labels[~observed] = _categorical(np.repeat(share, removals, axis=1), rng.random(scheme.n_censored))
    return CensoredDataset(scheme, np.arange(scheme.n), (np.sqrt(2.0 * y) / xi_max)[failure_of - 1], observed,
                           np.where(observed, 0, failure_of), labels)


# Rows per write_table chunk: one chunk's cells and fields are all the Python objects
# a table of any length holds at once; at 1 024 rows the peak RSS is a row-at-a-time writer's.
_CHUNK_ROWS = 1024

# Rows, over all the tables of one write_tables call, from which a forked child writes the first half of each.
# A fork and its reap cost about 2 ms, and data.csv and labels.csv about 2.5 us a row of each; two processes
# broke even near 6 000 rows in all, and wrote 8 192 in 8.8 ms against 10.4 ms for one.
_SPLIT_ROWS = 8192


def _cell(value) -> str:
    """A bool or object cell as csv.writer writes it, a float as float's repr, but a boolean as true/false, NaN empty."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None or value != value:
        return ""
    return float.__repr__(value) if isinstance(value, float) else str(value)


def _chunk_fields(values: list[np.ndarray]) -> list[list[str]]:
    """Each column's chunk as its fields: an integer as its repr, text as it is, any other non-float64 cell
    through ``_cell``.  The float64 columns are formatted together, one repr per distinct bit pattern, so a
    repeated float is formatted once and -0.0 stays apart from 0.0; NaN is an empty field."""
    floats = [v for v in values if v.dtype == np.float64]
    if floats:
        bits = np.stack(floats).view(np.int64).ravel()
        distinct = np.sort(bits)
        distinct = distinct[np.concatenate(([True], distinct[1:] != distinct[:-1]))]
        # not np.unique: its inverse takes a default argsort, a numpy kernel `generate` does not otherwise load,
        # whose code pages raised perfbench's generate-progressive peak RSS by 0.6 MB; sort and searchsorted it runs anyway
        strings = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
        strings[np.isnan(distinct.view(np.float64))] = ""
        cols = iter(strings[np.searchsorted(distinct, bits)].reshape(len(floats), -1).tolist())
    return [next(cols) if v.dtype == np.float64 else v.tolist() if v.dtype.kind == "U"
            else list(map(repr if v.dtype.kind in "iu" else _cell, v.tolist())) for v in values]


def _chunk_texts(columns, start: int, stop: int):
    """The text of each chunk of rows ``start`` to ``stop``: a chunk boundary, and another or the table's end."""
    for begin in range(start, stop, _CHUNK_ROWS):
        rows = slice(begin, min(begin + _CHUNK_ROWS, stop))
        values = [np.asarray(col(rows) if callable(col) else col[rows]) for col in columns]
        fields = _chunk_fields(values)
        text = "".join(chain.from_iterable(f for v, f in zip(values, fields) if v.dtype.kind not in "fiu"))
        if len(fields) > 1 and not any(c in text for c in ',"\r\n\x00'):
            yield "\n".join(map(",".join, zip(*fields))) + "\n"
        else:
            quoted = io.StringIO()
            csv.writer(quoted, lineterminator="\n").writerows(zip(*fields))
            yield quoted.getvalue()


def write_table(path, header, n_rows: int, columns) -> None:
    """Write one output table: a CSV of ``n_rows`` rows under ``header``, a chunk of rows at a time.

    A column holds ``n_rows`` values, or maps a slice of rows to their values,
    which builds a derived column a chunk at a time.  Floats are written as their
    shortest round-trip repr, booleans as true/false, None and NaN as empty fields,
    fields holding ",", '"' or a newline quoted with '"' doubled; rows end in "\\n".
    ``_chunk_fields`` gives every field's text, each distinct float of a chunk
    formatted once.  csv.writer writes the header, and a chunk only when a field
    needs its quoting or NUL rule, which differ across Python versions, or when
    the table has one column, whose empty field it writes as '""'.  A table of at
    least ``_SPLIT_ROWS`` rows is written by two processes, as :func:`write_tables`
    says; the bytes are the same either way.
    """
    write_tables([(path, header, n_rows, columns)])


def write_tables(tables) -> None:
    """Write each ``(path, header, n_rows, columns)`` of ``tables`` as :func:`write_table` writes one.

    When the tables hold at least ``_SPLIT_ROWS`` rows in all and this process may run on two or more
    CPUs, one forked child appends the first half of every table's rows, cut on a chunk boundary, while
    this process formats the second halves; it appends them once the child has exited.  Every chunk's
    text is that of a one-process write, so the bytes do not depend on the split.  If the child fails,
    or anything here raises, the child is reaped and the tables are written again by this process alone,
    which raises what a one-process write raises.
    """
    tables = list(tables)
    cuts = [n_rows // (2 * _CHUNK_ROWS) * _CHUNK_ROWS for _, _, n_rows, _ in tables]
    if (sum(n_rows for _, _, n_rows, _ in tables) >= _SPLIT_ROWS and any(cuts)
            and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2):
        try:
            if _write_split(tables, cuts):
                return
        except Exception:
            pass  # the one-process write below raises the error a one-process write gives
    for path, header, n_rows, columns in tables:
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerow(header)
            fh.writelines(_chunk_texts(columns, 0, n_rows))


def _write_split(tables, cuts) -> bool:
    """Write ``tables`` as :func:`write_tables` says, a forked child appending each table's rows before its
    cut; whether the child exited 0.  The child leaves only through ``os._exit``, which runs no clean-up of
    this process's state and prints no traceback; it calls no BLAS, whose threads a fork does not copy."""
    for path, header, _, _ in tables:
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerow(header)
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            for (path, _, _, columns), cut in zip(tables, cuts):
                with open(path, "a", newline="") as fh:
                    fh.writelines(_chunk_texts(columns, 0, cut))
            code = 0
        finally:
            os._exit(code)
    try:
        rest = [list(_chunk_texts(columns, cut, n_rows)) for (_, _, n_rows, columns), cut in zip(tables, cuts)]
    except BaseException:
        os.kill(pid, signal.SIGKILL)  # its half is written again
        raise
    finally:
        status = os.waitpid(pid, 0)[1]
    if os.waitstatus_to_exitcode(status):
        return False
    for (path, _, _, _), texts in zip(tables, rest):
        with open(path, "a", newline="") as fh:
            fh.writelines(texts)
    return True


def dataset_table(ds: CensoredDataset):
    """``write_tables``' header, row count and columns of the dataset's CSV form: item_id, y_star, status,
    censored_at_failure, true_label (1-based ids)."""
    return ["item_id", "y_star", "status", "censored_at_failure", "true_label"], ds.n, [
        lambda rows: ds.item_id[rows] + 1,
        ds.y_star,
        lambda rows: np.where(ds.observed[rows], "observed", "censored"),
        lambda rows: np.where(ds.observed[rows], "", ds.censored_at_failure[rows].astype(str)),
        lambda rows: [""] * (rows.stop - rows.start) if ds.true_label is None else ds.true_label[rows] + 1,
    ]


def write_dataset_csv(ds: CensoredDataset, path) -> None:
    """CSV form: item_id, y_star, status, censored_at_failure, true_label (1-based ids)."""
    write_table(path, *dataset_table(ds))


def csv_fields(line: str, path, row_no: int) -> list[str]:
    """The fields of one line, row ``row_no`` or, at 0, the header, of the CSV file at ``path``.  A line csv
    does not split, as one with a field over its size limit, is a ValueError naming the file and row."""
    try:
        return next(csv.reader([line]))
    except csv.Error as exc:
        raise ValueError(f"{path}: {f'row {row_no}' if row_no else 'the header'} cannot be read as CSV: {exc}") from None


def load_csv_rows(fh, path, dtype: np.dtype, usecols, n_fields: int, exact: bool) -> np.ndarray:
    """Parse the rows after the header, which ``fh`` has read, of the CSV file at ``path`` with one
    ``np.loadtxt`` call: on the path, skipping the header line, or, for a name numpy would decompress
    by its suffix, on ``fh``.

    Blank lines are skipped and not counted.  If loadtxt fails, the rows are read again to name the
    first with fewer than ``n_fields`` fields (another number if ``exact``) or with a field loadtxt
    cannot convert, and else the first whose last field holds its line end, in a quote left open.
    If it succeeds on a file holding a '"' byte, the rows are read again for that last check alone: a
    quote left open may have read the lines after it into a field loadtxt skips or reads as text.  That
    check splits a line with csv's field size limit raised to the line's length, as loadtxt has none.
    """
    kwargs = dict(delimiter=",", dtype=dtype, usecols=usecols, comments=None, quotechar='"', ndmin=1)
    start, row_no = fh.tell(), 0
    compressed = Path(path).suffix in (".gz", ".bz2", ".xz", ".lzma")  # loadtxt decompresses a path by these
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt warns, not raises, on a header-only file
        try:
            table = np.loadtxt(fh, **kwargs) if compressed else np.loadtxt(str(path), skiprows=1, **kwargs)
        except (ValueError, Warning) as exc:
            table, reason = None, str(exc)
        if table is None:
            for row_no, line in _rows(fh, start):
                fields = csv_fields(line, path, row_no)
                if exact and len(fields) != n_fields:
                    raise ValueError(f"{path}: row {row_no} has {len(fields)} fields, expected {n_fields}")
                if len(fields) < n_fields:
                    raise ValueError(f"{path}: row {row_no} has fewer than {n_fields} fields")
                try:
                    np.loadtxt([line], **kwargs)
                except (ValueError, Warning) as exc:
                    raise ValueError(f"{path}: row {row_no} is malformed: {str(exc).split(' at row ')[0]}") from None
        else:
            with open(path, "rb") as raw:  # no quote, no quote left open: one byte search, a block at a time
                if not any(b'"' in block for block in iter(lambda: raw.read(1 << 16), b"")):
                    return table
    limit = csv.field_size_limit()
    try:
        for row_no, line in _rows(fh, start):  # only a line holding a '"' can leave a quote open
            if '"' in line:
                csv.field_size_limit(max(limit, len(line)))  # a field loadtxt took may be over csv's limit
                if csv_fields(line, path, row_no)[-1].endswith(("\r", "\n")):
                    raise ValueError(f"{path}: row {row_no} opens a quoted field that its line does not close")
    finally:
        csv.field_size_limit(limit)
    if table is not None:
        return table
    raise ValueError(f"{path}: {reason if row_no else 'row 1 is missing; the file holds only a header'}")


def _rows(fh, start):
    """The lines of ``fh`` from ``start`` that are not blank, numbered from 1."""
    fh.seek(start)
    return enumerate((line for line in fh if line.strip("\r\n")), start=1)


# Columns that may be empty or hold any spelling of a status are read as
# bytes, and a field that fills its width may have been cut.  "last" is the
# header's last column, read so that a row with fewer fields fails.
_DATASET_ROW = np.dtype([("item_id", np.int64), ("y_star", np.float64), ("status", "S24"),
                         ("censored_at_failure", "S24"), ("true_label", "S24"), ("last", "S1")])


# The most digits of a field parsed byte by byte: any 18 digits fit an int64.
_MAX_DIGITS = 18


def _integers(table: np.ndarray, name: str, lengths: np.ndarray, path) -> np.ndarray:
    """An integer column read as bytes, empty fields as 0; ``lengths`` holds its fields' byte counts."""
    width = int(lengths.max())
    if width <= _MAX_DIGITS:
        # byte k of every field, less ord("0"); the bytes past a field's end are NUL and read 208
        digits = table[name].view((np.uint8, table.dtype[name].itemsize))[:, :width] - ord("0")
        if np.count_nonzero(digits < 10) == lengths.sum():  # every field empty or plain digits
            value = np.zeros(len(table), dtype=np.int64)
            for column in digits.T:  # in place, so that no n-entry int64 temporary is made
                digit = column < 10
                np.multiply(value, 10, out=value, where=digit)
                np.add(value, column, out=value, where=digit)
            return value
    col = np.where(table[name] == b"", b"0", table[name])
    try:
        return col.astype(np.int64)
    except (ValueError, OverflowError):
        for row_no, field in enumerate(col.tolist(), start=1):
            try:
                np.int64(int(field))
            except (ValueError, OverflowError):
                raise ValueError(f"{path}: row {row_no} has {name} {field.decode('latin-1')!r}, not an integer") from None
        raise


def read_dataset_csv(path) -> CensoredDataset:
    """Inverse of :func:`write_dataset_csv`; reconstructs the scheme from the rows.

    Columns are found by their header names, in any order; other columns are
    ignored, but every row needs as many fields as the header.
    """
    path = Path(path)
    names = _DATASET_ROW.names[:5]
    with open(path, newline="") as fh:
        header = csv_fields(fh.readline(), path, 0)
        column = {name: k for k, name in enumerate(header)}
        if not set(names).issubset(column):
            raise ValueError(f"{path}: expected columns {sorted(names)}")
        usecols = [column[name] for name in names] + [len(header) - 1]
        table = load_csv_rows(fh, path, _DATASET_ROW, usecols, len(header), exact=False)
    # each field's byte count, at most 24, shared by the cut check and the integer parse; as uint8,
    # so that the three columns held while the dataset is built take 3 bytes a row, not 24
    lengths = {name: np.char.str_len(table[name]).astype(np.uint8) for name in names[2:]}
    for name in names[2:]:
        width = _DATASET_ROW[name].itemsize
        cut = np.flatnonzero(lengths[name] == width)
        if cut.size:
            raise ValueError(f"{path}: row {cut[0] + 1} has a {name} field longer than {width - 1} bytes")
    status = table["status"]
    observed = status == b"observed"
    if not np.all(observed | (status == b"censored")):
        spelled = np.char.lower(np.char.strip(status))
        observed = spelled == b"observed"
        bad = np.flatnonzero(~observed & (spelled != b"censored"))
        if bad.size:
            raise ValueError(f"{path}: row {bad[0] + 1} has unknown status {status[bad[0]].decode('latin-1')!r}")
    caf = _integers(table, "censored_at_failure", lengths["censored_at_failure"], path)
    labels = _integers(table, "true_label", lengths["true_label"], path)
    J = int(observed.sum())
    bad = np.flatnonzero(~observed & ((caf < 1) | (caf > J)))
    if bad.size:
        raise ValueError(f"{path}: row {bad[0] + 1} is censored at failure {caf[bad[0]]}, outside 1..{J}")
    scheme = CensoringScheme(len(table), tuple(np.bincount(caf[~observed] - 1, minlength=J).tolist()))
    have_labels = np.all(lengths["true_label"] > 0)
    return CensoredDataset(
        scheme, table["item_id"] - 1, table["y_star"], observed, caf, labels - 1 if have_labels else None
    )
