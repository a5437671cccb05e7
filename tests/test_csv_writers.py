"""Golden bytes of every output table, written from small hand-built inputs,
and the bytes of ``write_table`` on drawn columns against the row-by-row
``csv.writer`` oracle.

Each table is also written with the writer's chunk size set to 1 and to 3
rows, so that rows split over chunks, and a last chunk shorter than the
others, give the same bytes.  At those sizes the split threshold is 2 rows on
two CPUs, so that a forked child writes the first half of a table of a few
rows, except under the ``writerows_calls`` spy, which cannot see a child's calls.
"""

import csv
import os
import sys

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evidem import censoring, estimator
from evidem.censoring import (CensoredDataset, CensoringScheme, scheme_from_censor_frac,
                              write_dataset_csv, write_table, write_tables)
from evidem.cli import EXIT_OK, main
from evidem.estimator import LabelMode, make_soft_labels, write_soft_labels_csv
from evidem.rayleigh import MixtureParams, sample_labeled
from evidem.simulation import (
    CorruptionConfig,
    SweepSpec,
    aggregate_report,
    corrupt_labels,
    curve,
    draw_error_probs,
    row_dtype,
    write_figure_csv,
    write_results_csv,
    write_summary_csv,
)
from oracles import reference_life_test, reference_write_table


def split_at(monkeypatch, chunk_rows: int, cpus=(0, 1)) -> None:
    """Write tables in chunks of ``chunk_rows`` rows, and by two processes from 2 rows on if ``cpus`` lists two."""
    monkeypatch.setattr(censoring, "_CHUNK_ROWS", chunk_rows)
    monkeypatch.setattr(censoring, "_SPLIT_ROWS", 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)


@pytest.fixture(params=[None, 1, 3], ids=["default-chunk", "chunk-1", "chunk-3"], autouse=True)
def chunk_rows(request, monkeypatch):
    if request.param is not None:
        split_at(monkeypatch, request.param)


@pytest.fixture
def writerows_calls(chunk_rows, monkeypatch):
    """The rows handed to csv.writer's writerows while the test runs; the writer joins every other chunk itself.
    Tables are written by this process alone, whose calls are the only ones the spy sees."""
    monkeypatch.setattr(censoring, "_SPLIT_ROWS", float("inf"))
    calls, make = [], csv.writer

    class Spy:
        def __init__(self, *args, **kwargs):
            self.writer = make(*args, **kwargs)
            self.writerow = self.writer.writerow

        def writerows(self, rows):
            calls.append(list(rows))
            self.writer.writerows(calls[-1])

    monkeypatch.setattr(csv, "writer", Spy)
    return calls


def written(path) -> str:
    """The file's text with its line ends as written."""
    return path.read_bytes().decode()


def dataset(labelled: bool) -> CensoredDataset:
    return CensoredDataset(
        scheme=CensoringScheme(5, (1, 0, 1)),
        item_id=np.array([2, 0, 4, 3, 1]),
        y_star=np.array([0.1, 0.1, 1 / 3, 7.0, 7.0]),
        observed=np.array([True, False, True, True, False]),
        censored_at_failure=np.array([0, 1, 0, 0, 3]),
        true_label=np.array([1, 0, 0, 2, 1]) if labelled else None,
    )


@pytest.mark.parametrize(
    "labelled, expected",
    [
        (True, "item_id,y_star,status,censored_at_failure,true_label\n"
               "3,0.1,observed,,2\n"
               "1,0.1,censored,1,1\n"
               "5,0.3333333333333333,observed,,1\n"
               "4,7.0,observed,,3\n"
               "2,7.0,censored,3,2\n"),
        (False, "item_id,y_star,status,censored_at_failure,true_label\n"
                "3,0.1,observed,,\n"
                "1,0.1,censored,1,\n"
                "5,0.3333333333333333,observed,,\n"
                "4,7.0,observed,,\n"
                "2,7.0,censored,3,\n"),
    ],
    ids=["labelled", "unlabelled"],
)
def test_dataset_csv(tmp_path, labelled, expected, writerows_calls):
    write_dataset_csv(dataset(labelled), tmp_path / "data.csv")
    assert written(tmp_path / "data.csv") == expected
    assert writerows_calls == []


def test_labels_csv(tmp_path, writerows_calls):
    pl = np.array([[1.0, 0.25, 0.1 + 0.2], [1 / 3, 1e-20, 0.0], [0.5, 1.0, 2 / 3], [1.0, 1.0, 1.0]])
    write_soft_labels_csv(pl, tmp_path / "labels.csv", item_ids=np.array([3, 0, 2, 1]))
    assert written(tmp_path / "labels.csv") == (
        "item_id,pl_1,pl_2,pl_3\n"
        "4,1.0,0.25,0.30000000000000004\n"
        "1,0.3333333333333333,1e-20,0.0\n"
        "3,0.5,1.0,0.6666666666666666\n"
        "2,1.0,1.0,1.0\n"
    )
    assert writerows_calls == []


def sweep_result():
    """The spec, rows and summary of a rho sweep with one grid point and reps 2:
    UNCERTAIN fits once and fails once, NOISY fails twice, UNKNOWN fits twice."""
    truth = MixtureParams(np.array([0.5, 0.5]), np.array([1.0, 2.0]))
    spec = SweepSpec(
        variable="rho",
        grid=(0.1,),
        reps=2,
        true_params=truth,
        scheme=scheme_from_censor_frac(10, 0.5),
        censor_frac=0.5,
        corruption=CorruptionConfig(0.1),
    )

    def fitted(method, rep, lambdas, xis, iterations, converged, gll):
        lambdas, xis = np.array(lambdas), np.array(xis)
        return (0.1, method, rep, lambdas, xis, iterations, converged, gll,
                np.abs(lambdas - truth.lambdas) / truth.lambdas, np.abs(xis - truth.xis) / truth.xis, False, "")

    def failed(method, rep, error):
        return (0.1, method, rep, np.nan, np.nan, 0, False, np.nan, np.nan, np.nan, True, error)

    rows = np.rec.fromrecords([
        fitted("uncertain", 0, [0.25, 0.75], [1.5, 2.0], 7, True, -12.5),
        failed("uncertain", 1, 'ComponentStarvedError: components 1, 2 starved; "weight" 0'),
        failed("noisy", 0, "DegenerateLikelihoodError: non-finite at record(s) [1, 4]"),
        failed("noisy", 1, "ComponentStarvedError: component 2"),
        fitted("unknown", 0, [0.5, 0.5], [0.9, 2.2], 1000, False, -20.0 / 3),
        fitted("unknown", 1, [0.4, 0.6], [1.1, 1.8], 12, True, -7.25),
    ], dtype=row_dtype(2))
    return spec, rows, aggregate_report(spec, rows)


def test_results_csv(tmp_path, writerows_calls):
    spec, rows, _ = sweep_result()
    write_results_csv(spec, rows, tmp_path / "results.csv")
    assert written(tmp_path / "results.csv") == (
        "variable,grid_value,method,rep,lambda_1,lambda_2,xi_1,xi_2,iterations,converged,gll,"
        "rabias_lambda_1,rabias_lambda_2,rabias_xi_1,rabias_xi_2,failed,error\n"
        "rho,0.1,uncertain,0,0.25,0.75,1.5,2.0,7,true,-12.5,0.5,0.5,0.5,0.0,false,\n"
        'rho,0.1,uncertain,1,,,,,,,,,,,,true,"ComponentStarvedError: components 1, 2 starved; ""weight"" 0"\n'
        'rho,0.1,noisy,0,,,,,,,,,,,,true,"DegenerateLikelihoodError: non-finite at record(s) [1, 4]"\n'
        "rho,0.1,noisy,1,,,,,,,,,,,,true,ComponentStarvedError: component 2\n"
        "rho,0.1,unknown,0,0.5,0.5,0.9,2.2,1000,false,-6.666666666666667,0.0,0.0,0.09999999999999998,"
        "0.10000000000000009,false,\n"
        "rho,0.1,unknown,1,0.4,0.6,1.1,1.8,12,true,-7.25,0.19999999999999996,0.19999999999999996,"
        "0.10000000000000009,0.09999999999999998,false,\n"
    )
    # only a chunk holding an error with a comma or a quote reaches csv.writer, to be quoted
    assert writerows_calls
    writerows_calls.clear()
    write_results_csv(spec, rows[[0, 3, 4, 5]], tmp_path / "unquoted.csv")
    lines = written(tmp_path / "results.csv").splitlines(keepends=True)
    assert written(tmp_path / "unquoted.csv") == "".join(lines[i] for i in (0, 1, 4, 5, 6))
    assert writerows_calls == []
    # an error message of any length, with a comma and quotes, comes out whole and quoted
    long_error = 'DegenerateLikelihoodError: non-finite at "record(s)" [' + ", ".join(map(str, range(90))) + "]"
    spec, rows, _ = sweep_result()
    rows.error[3] = long_error
    write_results_csv(spec, rows, tmp_path / "long.csv")
    assert written(tmp_path / "long.csv").splitlines()[4] == (
        'rho,0.1,noisy,1,,,,,,,,,,,,true,"' + long_error.replace('"', '""') + '"')
    with open(tmp_path / "long.csv", newline="") as fh:
        assert [row["error"] for row in csv.DictReader(fh)][3] == long_error and len(long_error) > 300


def test_summary_csv(tmp_path, writerows_calls):
    spec, _, summary = sweep_result()
    write_summary_csv(spec, summary, tmp_path / "summary.csv")
    assert written(tmp_path / "summary.csv") == (
        "variable,grid_value,method,parameter,mean_rabias,sd_rabias,n_success,n_failed,reliable\n"
        "rho,0.1,uncertain,lambda_1,0.5,0.0,1,1,true\n"
        "rho,0.1,uncertain,lambda_2,0.5,0.0,1,1,true\n"
        "rho,0.1,uncertain,xi_1,0.5,0.0,1,1,true\n"
        "rho,0.1,uncertain,xi_2,0.0,0.0,1,1,true\n"
        "rho,0.1,noisy,lambda_1,,,0,2,false\n"
        "rho,0.1,noisy,lambda_2,,,0,2,false\n"
        "rho,0.1,noisy,xi_1,,,0,2,false\n"
        "rho,0.1,noisy,xi_2,,,0,2,false\n"
        "rho,0.1,unknown,lambda_1,0.09999999999999998,0.14142135623730948,2,0,true\n"
        "rho,0.1,unknown,lambda_2,0.09999999999999998,0.14142135623730948,2,0,true\n"
        "rho,0.1,unknown,xi_1,0.10000000000000003,7.850462293418876e-17,2,0,true\n"
        "rho,0.1,unknown,xi_2,0.10000000000000003,7.850462293418876e-17,2,0,true\n"
    )
    assert writerows_calls == []


def test_figure_csv(tmp_path, writerows_calls):
    spec, _, summary = sweep_result()
    write_figure_csv(spec, [curve(summary, method, "xi_2") for method in spec.methods], tmp_path / "figure_xi_2.csv")
    assert written(tmp_path / "figure_xi_2.csv") == (
        "rho,method,mean_rabias,sd_rabias,n_failed\n"
        "0.1,uncertain,0.0,0.0,1\n"
        "0.1,noisy,,,2\n"
        "0.1,unknown,0.10000000000000003,7.850462293418876e-17,0\n"
    )
    assert writerows_calls == []


def test_estimate_and_trace_csv(tmp_path, monkeypatch, writerows_calls):
    """``evidem fit`` writes the estimate and the trace of the fit it ran."""
    table = np.array([([0.25, 0.75], [1 / 3, 2.0], 2, True, -1e-300, None)], estimator.fit_dtype(2))
    # one step per iterate, as fit_batch gives them: the batch's rows, then their lambdas, xis and gll
    iterates = [([0.5, 0.5], [1.0, 3.0], -10.0), ([0.3, 0.7], [0.1 + 0.2, 2.5], -9.5), ([0.25, 0.75], [1 / 3, 2.0], -1e-300)]
    steps = [(np.array([0]), np.array([lam]), np.array([xi]), np.array([gll])) for lam, xi, gll in iterates]
    monkeypatch.setattr("evidem.cli.fit_batch", lambda datasets, inits, config: (table, steps))
    write_dataset_csv(dataset(True), tmp_path / "data.csv")
    write_soft_labels_csv(np.full((5, 2), 0.5), tmp_path / "labels.csv", item_ids=np.arange(5))
    out = tmp_path / "fit"
    config = {"data": str(tmp_path / "data.csv"), "labels": str(tmp_path / "labels.csv"), "out": str(out)}
    (tmp_path / "fit.yaml").write_text(yaml.safe_dump(config))
    assert main(["fit", "--config", str(tmp_path / "fit.yaml")]) == EXIT_OK
    assert written(out / "estimate.csv") == (
        "lambda_1,lambda_2,xi_1,xi_2,iterations,converged,gll\n"
        "0.25,0.75,0.3333333333333333,2.0,2,true,-1e-300\n"
    )
    assert written(out / "trace.csv") == (
        "iteration,gll,lambda_1,lambda_2,xi_1,xi_2\n"
        "0,-10.0,0.5,0.5,1.0,3.0\n"
        "1,-9.5,0.3,0.7,0.30000000000000004,2.5\n"
        "2,-1e-300,0.25,0.75,0.3333333333333333,2.0\n"
    )
    assert writerows_calls == []


def reference_bytes(monkeypatch, module, write, path) -> bytes:
    """The bytes ``write(path)`` leaves when ``module``'s ``write_table`` is the row-by-row oracle."""
    def oracle(path, header, n_rows, columns):
        reference_write_table(path, header, n_rows, [col(slice(0, n_rows)) if callable(col) else col for col in columns])

    with monkeypatch.context() as patched:
        patched.setattr(module, "write_table", oracle)
        write(path)
    return path.read_bytes()


@pytest.mark.parametrize("q", ["0", "1", "beta"])
def test_uncertain_labels_csv_matches_csv_writer(tmp_path, monkeypatch, q):
    """UNCERTAIN rows q/p + (1 - q) one-hot repeat q/p in a row and down the columns: one-hot rows at q = 0,
    every cell 1/3 at q = 1."""
    rng = np.random.default_rng(7)
    n, p = 2500, 3
    z = rng.integers(0, p, n)
    q = np.full(n, float(q)) if q != "beta" else draw_error_probs(CorruptionConfig(0.1), n, rng)
    pl, ids = make_soft_labels(LabelMode.UNCERTAIN, p, n, corrupt_labels(z, q, p, rng), q), rng.permutation(n)
    want = reference_bytes(monkeypatch, estimator, lambda path: write_soft_labels_csv(pl, path, ids), tmp_path / "want.csv")
    write_soft_labels_csv(pl, tmp_path / "got.csv", ids)
    assert (tmp_path / "got.csv").read_bytes() == want


def test_progressive_dataset_csv_matches_csv_writer(tmp_path, monkeypatch):
    """Each censored record of a progressive replay repeats the y* of the failure it was removed at."""
    rng = np.random.default_rng(8)
    scheme = CensoringScheme(2500, (1,) * 1250)
    truth = MixtureParams(np.full(3, 1 / 3), np.array([4.0, 0.5, 0.8]))
    ds = reference_life_test(*sample_labeled(truth, scheme.n, rng), scheme, rng)
    want = reference_bytes(monkeypatch, censoring, lambda path: write_dataset_csv(ds, path), tmp_path / "want.csv")
    write_dataset_csv(ds, tmp_path / "got.csv")
    assert (tmp_path / "got.csv").read_bytes() == want


_INT64 = np.iinfo(np.int64)
FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2e-308, 1e16,
                                                  0.1, 1 / 3, sys.float_info.max, -sys.float_info.max]))
# a pool this small repeats values within a column, across a row and across chunks
POOLED = st.sampled_from([0.0, -0.0, 0.1, 1 / 3, 5e-324, 1e16, np.inf, -np.inf])
INTS = st.one_of(st.integers(_INT64.min, _INT64.max), st.sampled_from([_INT64.min, _INT64.max, -1, 0]))
# NUL is left out: csv.writer raises on it before Python 3.11 and writes it after; test_nul_fields covers it
TEXT = st.text(st.one_of(st.sampled_from(',"\n\r '), st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")),
               max_size=6)
OBJECTS = st.one_of(st.none(), st.just(float("nan")), FLOATS.map(np.float64), FLOATS, INTS, st.booleans(),
                    st.booleans().map(np.bool_), TEXT)


def object_array(values) -> np.ndarray:
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


@st.composite
def tables(draw):
    """A header and columns of one length: float (wide-ranging or from a small pool), int64, bool, text
    and mixed object columns."""
    n_rows = draw(st.integers(0, 8))
    kinds = {
        "float": (FLOATS, lambda v: np.array(v, dtype=float)),
        "pooled": (POOLED, lambda v: np.array(v, dtype=float)),
        "int": (INTS, lambda v: np.array(v, dtype=np.int64)),
        "bool": (st.booleans(), lambda v: np.array(v, dtype=bool)),
        "text": (TEXT, lambda v: np.array(v, dtype=str)),
        "object": (OBJECTS, object_array),
    }
    columns = []
    for kind in draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=5)):
        values, build = kinds[kind]
        columns.append(build(draw(st.lists(values, min_size=n_rows, max_size=n_rows))))
    header = draw(st.lists(TEXT, min_size=len(columns), max_size=len(columns)))
    return header, n_rows, columns


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=tables())
def test_write_table_matches_csv_writer(tmp_path, table):
    header, n_rows, columns = table
    reference_write_table(tmp_path / "want.csv", header, n_rows, columns)
    write_table(tmp_path / "got.csv", header, n_rows, columns)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def outcome(write, path, table):
    """The bytes a writer leaves, or the type of the error it raises."""
    try:
        write(path, *table)
    except csv.Error as exc:
        return type(exc)
    return path.read_bytes()


@pytest.mark.parametrize("table", [
    (["a", "\x00"], 2, [np.array([0.5, 1.5]), np.array([True, False])]),
    (["a", "b"], 2, [np.array([1, 2]), np.array(["x\x00y", "z"])]),
    (["a", "b"], 2, [np.array([0.5, 1.5]), object_array(["c", "\x00"])]),
], ids=["header", "text", "object"])
def test_nul_fields(tmp_path, table):
    """A NUL is written, or raises, exactly as csv.writer does on the running Python, in the first row, which a
    forked child writes at chunk size 1, or in the second, which this process writes."""
    assert outcome(write_table, tmp_path / "got.csv", table) == outcome(reference_write_table, tmp_path / "want.csv", table)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(several=st.lists(tables(), min_size=1, max_size=3))
def test_write_tables_matches_each_table_alone(tmp_path, several):
    paths = [tmp_path / f"table{k}.csv" for k in range(len(several))]
    write_tables([(path, *table) for path, table in zip(paths, several)])
    for path, table in zip(paths, several):
        write_table(tmp_path / "alone.csv", *table)
        assert path.read_bytes() == (tmp_path / "alone.csv").read_bytes()


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children that os.fork makes while the test runs."""
    pids, fork = [], os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


class ColumnError(Exception):
    pass


def column(bad):
    """A column of the row numbers that raises ColumnError on a chunk of rows for which ``bad(rows)`` holds."""
    def values(rows):
        if bad(rows):
            raise ColumnError(f"cannot build rows {rows.start}:{rows.stop}")
        return np.arange(rows.start, rows.stop)
    return values


@pytest.mark.parametrize("side", ["child", "parent"])
def test_failed_split_raises_as_one_process(tmp_path, monkeypatch, capfd, forks, side):
    """At chunk size 2 a child writes rows 0-3 of each 8-row table, and this process rows 4-7: a column that raises on
    the child's rows of the first table, or on this process's rows of the second, raises as a one-process write does.
    The child is reaped, and prints no traceback."""
    def raised(cpus):
        split_at(monkeypatch, 2, cpus)
        bad = [lambda rows: side == "child" and rows.start < 4, lambda rows: side == "parent" and rows.start >= 4]
        tables = [(tmp_path / f"{k}.csv", ["k", "row"], 8, [np.full(8, k), column(bad[k])]) for k in range(2)]
        with pytest.raises(ColumnError) as err:
            write_tables(tables)
        return str(err.value)

    assert raised([0]) == ("cannot build rows 0:2" if side == "child" else "cannot build rows 4:6")
    assert forks == []
    assert raised([0, 1]) == raised([0])
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("affinity", ["two-cpus", "one-cpu", "absent"])
def test_split_only_on_two_cpus(tmp_path, monkeypatch, forks, affinity):
    """A process that may run on one CPU, or that cannot tell, writes alone; the bytes are the same either way."""
    table = (["item_id", "pl_1", "pl_2"], 10, [np.arange(1, 11), np.linspace(0.0, 1.0, 10), np.full(10, 1 / 3)])
    split_at(monkeypatch, 2, [0, 1] if affinity == "two-cpus" else [0])
    if affinity == "absent":
        monkeypatch.delattr(os, "sched_getaffinity")
    write_table(tmp_path / "got.csv", *table)
    reference_write_table(tmp_path / "want.csv", *table)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert len(forks) == (affinity == "two-cpus")
