"""The column readers of data.csv and labels.csv against the row-by-row oracles.

Generated files vary what a hand-written or spreadsheet-exported file may
vary: column order, extra columns, blank lines, LF, CRLF or CR line ends, a
missing final line end, quoting, the spelling of the status, padding, and
floats at the ends of the double range.  The readers must return the same
arrays, bit for bit and dtype for dtype, as ``tests/oracles``' ``csv``-module
readers, also from a plain-text file under a suffix numpy decompresses by;
malformed files must raise a ValueError naming the row, without a warning.
"""

import csv
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evidem.censoring import read_dataset_csv
from evidem.estimator import read_soft_labels_csv
from oracles import reference_read_dataset_csv, reference_read_soft_labels_csv

DATA_COLUMNS = ["item_id", "y_star", "status", "censored_at_failure", "true_label"]
EDGE_FLOATS = [5e-324, 1e-310, 2.2250738585072014e-308, 1e308, 1.7976931348623157e308]
FLOAT_FORMATS = [repr, "{:.17e}".format, "{:.17G}".format, "{:.25g}".format]

positive_floats = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
any_floats = st.one_of(st.sampled_from(EDGE_FLOATS + [-x for x in EDGE_FLOATS]), st.floats())


@st.composite
def csv_text(draw, header, rows):
    """Join fields into CSV text with random quoting, blank lines and line ends, the last maybe missing."""
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))

    def field(value):
        if any(c in value for c in ',"') or draw(st.booleans()):
            return '"' + value.replace('"', '""') + '"'
        return value

    lines = [",".join(field(v) for v in header) + newline]
    for row in rows:
        lines.append(",".join(field(v) for v in row) + newline)
        lines.extend([newline] * draw(st.integers(0, 2)))
    text = "".join(lines)
    return text.rstrip("\r\n") if draw(st.booleans()) else text


@st.composite
def number(draw, value):
    """A float or int as one of its exact spellings, maybe padded with spaces."""
    text = draw(st.sampled_from(FLOAT_FORMATS))(value) if isinstance(value, float) else str(value)
    pad = draw(st.sampled_from(["", " ", "  "]))
    return pad + text + draw(st.sampled_from(["", " "]))


@st.composite
def dataset_files(draw):
    removals = draw(st.lists(st.integers(0, 3), min_size=1, max_size=6))
    n = len(removals) + sum(removals)
    times = sorted(draw(st.lists(positive_floats, min_size=len(removals), max_size=len(removals))))
    ids = draw(st.permutations(range(1, n + 1)))
    labels = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    with_labels = draw(st.booleans())
    extras = draw(st.lists(st.sampled_from(["note", "batch", "z"]), unique=True, max_size=2))
    header = draw(st.permutations(DATA_COLUMNS + extras))
    spelled = {
        True: st.sampled_from(["observed", " Observed ", "OBSERVED", "observed\t"]),
        False: st.sampled_from(["censored", "Censored", " censored"]),
    }
    rows, k = [], 0
    for j, (t, r_j) in enumerate(zip(times, removals), start=1):
        for is_obs in [True] + [False] * r_j:
            record = {
                "item_id": draw(number(ids[k])),
                "y_star": draw(number(t)),
                "status": draw(spelled[is_obs]),
                "censored_at_failure": "" if is_obs else draw(number(j)),
                "true_label": draw(number(labels[k])) if with_labels else "",
                "note": draw(st.text(alphabet='ab ,#"', max_size=4)),
                "batch": draw(number(draw(any_floats))),
                "z": "",
            }
            rows.append([record[c] for c in header])
            k += 1
    return draw(csv_text(header, rows))


@st.composite
def label_files(draw):
    p = draw(st.integers(1, 4))
    n = draw(st.integers(1, 8))
    ids = draw(st.lists(st.integers(-(10**12), 10**12), min_size=n, max_size=n))
    rows = [[draw(number(i))] + [draw(number(draw(any_floats))) for _ in range(p)] for i in ids]
    return draw(csv_text(["item_id"] + [f"pl_{z + 1}" for z in range(p)], rows))


def assert_same_array(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


# The suffixes by which numpy decompresses a file it opens by name
COMPRESSED_SUFFIXES = [".gz", ".bz2", ".xz", ".lzma"]


def written(directory, name, text):
    """``text`` written as ``name`` and, as plain text, under each compressed suffix: the paths, plain first."""
    paths = [directory / name] + [directory / (name + suffix) for suffix in COMPRESSED_SUFFIXES]
    for path in paths:
        path.write_bytes(text.encode())
    return paths


@settings(max_examples=150, deadline=None)
@given(text=dataset_files())
def test_dataset_reader_matches_oracle(tmp_path_factory, text):
    paths = written(tmp_path_factory.mktemp("data"), "data.csv", text)
    want = reference_read_dataset_csv(paths[0])
    for got in map(read_dataset_csv, paths):
        assert got.scheme == want.scheme
        for name in ("item_id", "y_star", "observed", "censored_at_failure"):
            assert_same_array(getattr(got, name), getattr(want, name))
        assert (got.true_label is None) == (want.true_label is None)
        if want.true_label is not None:
            assert_same_array(got.true_label, want.true_label)


@settings(max_examples=150, deadline=None)
@given(text=label_files())
def test_label_reader_matches_oracle(tmp_path_factory, text):
    paths = written(tmp_path_factory.mktemp("labels"), "labels.csv", text)
    want_ids, want_pl = reference_read_soft_labels_csv(paths[0])
    for got_ids, got_pl in map(read_soft_labels_csv, paths):
        assert_same_array(got_ids, want_ids)
        assert_same_array(got_pl, want_pl)


DATA_HEADER = ",".join(DATA_COLUMNS) + "\n"
GOOD_ROW = "1,1.5,observed,,1\n"


@pytest.mark.parametrize(
    "body, message",
    [
        ("", "row 1 is missing"),
        ("\n\n", "row 1 is missing"),
        (GOOD_ROW + "2,1.5,censored,1,#2\n", "row 2 has true_label '#2', not an integer"),
        ("1,1.5#2,observed,,1\n", "row 1 is malformed: could not convert string '1.5#2'"),
        (GOOD_ROW + "2,1.5,censored," + "0" * 40 + "1,2\n", "row 2 has a censored_at_failure field longer than"),
        (GOOD_ROW + "2,1.5,censored,1," + "9" * 22 + "\n", "row 2 has true_label '" + "9" * 22 + "', not an integer"),
        (GOOD_ROW + "2,1.5,censored,1," + "9" * 19 + "\n", "row 2 has true_label '" + "9" * 19 + "', not an integer"),
        (GOOD_ROW + "\n2,abc,censored,1,2\n", "row 2 is malformed: could not convert string 'abc'"),
        (GOOD_ROW + "2,1.5,removed,1,2\n", "row 2 has unknown status 'removed'"),
        (GOOD_ROW + "2,1.5\n", "row 2 has fewer than 5 fields"),
        (GOOD_ROW + "   \n", "row 2 has fewer than 5 fields"),
        (GOOD_ROW + "2,1.5,censored,2,2\n", "row 2 is censored at failure 2, outside 1..1"),
    ],
    ids=["header-only", "header-and-blank-lines", "hash-in-label", "hash-in-y_star", "over-long-integer",
         "int64-overflow", "int64-overflow-19-digits", "non-numeric-y_star", "unknown-status", "short-row",
         "whitespace-row", "failure-beyond-J"],
)
def test_malformed_data_names_the_row(tmp_path, body, message):
    path = tmp_path / "data.csv"
    path.write_text(DATA_HEADER + body)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="row ") as err:
            read_dataset_csv(path)
    assert message in str(err.value)
    assert caught == []


@pytest.mark.parametrize(
    "caf, labels",
    [("", ("", "", "")), ("002", ("1", "02", "007")), ("2", ("1", "2", "9" * 18)), ("2", ("1", "2", "1" + "0" * 18)),
     (" 2", ("1", "2", " 3")), ("+2", ("1", "2", "+3")), ("2", ("1", "2", "3_0")), ("2", ("1", "2", "1.0"))],
    ids=["all-empty", "leading-zeros", "18-digits", "19-digits", "padded", "signed", "underscore", "decimal"],
)
def test_integer_spellings_match_oracle(tmp_path, caf, labels):
    # a column of plain digits is parsed a byte position at a time, any other as Python's int() reads it
    path = tmp_path / "data.csv"
    last = f"3,2.5,{'censored' if caf else 'observed'},{caf},{labels[2]}\n"
    path.write_text(DATA_HEADER + f"1,1.5,observed,,{labels[0]}\n2,2.5,observed,,{labels[1]}\n" + last)
    try:
        want = reference_read_dataset_csv(path)
    except ValueError:
        with pytest.raises(ValueError, match=f"row 3 has true_label '{labels[2]}', not an integer"):
            read_dataset_csv(path)
        return
    got = read_dataset_csv(path)
    assert got.scheme == want.scheme
    for name in ("item_id", "y_star", "observed", "censored_at_failure"):
        assert_same_array(getattr(got, name), getattr(want, name))
    assert (got.true_label is None) == (want.true_label is None)
    if want.true_label is not None:
        assert_same_array(got.true_label, want.true_label)


def test_row_missing_an_ignored_column_is_short(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(DATA_HEADER.rstrip("\n") + ",note\n" + GOOD_ROW.rstrip("\n") + ",x\n2,1.5,censored,1,2\n")
    with pytest.raises(ValueError, match="row 2 has fewer than 6 fields"):
        read_dataset_csv(path)


@pytest.mark.parametrize(
    "body, message",
    [
        ("", "row 1 is missing"),
        ("1,1,1,1\n2,1,1\n", "row 2 has 3 fields, expected 4"),
        ("1,1,1,1,1\n", "row 1 has 5 fields, expected 4"),
        ("1,1,1,1\n\n2,1,abc,1\n", "row 2 is malformed: could not convert string 'abc'"),
        ("1,1,#1,1\n", "row 1 is malformed: could not convert string '#1'"),
        ("1.5,1,1,1\n", "row 1 is malformed: could not convert string '1.5'"),
    ],
    ids=["header-only", "short-row", "long-row", "non-numeric", "hash-in-field", "non-integer-id"],
)
def test_malformed_labels_names_the_row(tmp_path, body, message):
    path = tmp_path / "labels.csv"
    path.write_text("item_id,pl_1,pl_2,pl_3\n" + body)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="row ") as err:
            read_soft_labels_csv(path)
    assert message in str(err.value)
    assert caught == []


@pytest.mark.parametrize("read, name, text", [
    (read_dataset_csv, "data.csv", DATA_HEADER + GOOD_ROW),
    (read_soft_labels_csv, "labels.csv", "item_id,pl_1,pl_2\n1,0.5,1\n"),
], ids=["data", "labels"])
def test_readers_hand_loadtxt_the_path(monkeypatch, tmp_path, read, name, text):
    # numpy parses a file it opens by name in large chunks, and an open file one line at a time
    received = []
    loadtxt = np.loadtxt

    def spy(fname, *args, **kwargs):
        received.append(fname)
        return loadtxt(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    for path in written(tmp_path, name, text):
        received.clear()
        read(path)
        first = received[0]
        if path.suffix == ".csv":
            assert isinstance(first, (str, os.PathLike)) and os.fspath(first) == str(path)
        else:  # numpy would decompress the file by its suffix
            assert hasattr(first, "read")


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("row", [1, 3])
def test_quote_left_open_names_its_row(tmp_path, row, newline):
    # every line has its four fields and converts alone: only the whole-file parse, which reads the open quote
    # on into the next lines, fails
    rows = ["1,1,1,1", "2,1,1,1", "3,1,1,1", "4,1,1,1"]
    rows[row - 1] = rows[row - 1][:-1] + '"1'
    path = tmp_path / "labels.csv"
    path.write_bytes(newline.join(["item_id,pl_1,pl_2,pl_3", *rows, ""]).encode())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError) as err:
            read_soft_labels_csv(path)
    assert str(err.value) == f"{path}: row {row} opens a quoted field that its line does not close"
    assert caught == []


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("column", ["note", "true_label"])
def test_quote_left_open_names_its_row_when_the_parse_succeeds(tmp_path, column, newline):
    # the whole-file parse reads rows 4 and 5 into row 3's open field and succeeds, whether the reader skips that
    # column (an extra note) or reads it as text (true_label)
    header = ",".join(DATA_COLUMNS + ["note"] * (column == "note"))
    rows = ["1,1.5,observed,,1", "2,2.0,observed,,2", "3,2.5,observed,,1", "4,2.5,censored,3,2", "5,2.5,censored,3,1"]
    if column == "note":
        rows = [f"{row},n" for row in rows]
    rows[2] = rows[2][:-1] + ('"c' if column == "note" else '"1')
    path = tmp_path / "data.csv"
    path.write_bytes(newline.join([header, *rows, ""]).encode())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError) as err:
            read_dataset_csv(path)
    assert str(err.value) == f"{path}: row 3 opens a quoted field that its line does not close"
    assert caught == []


@pytest.mark.parametrize("read, name, good, bad", [
    (read_dataset_csv, "data.csv", DATA_HEADER + GOOD_ROW, DATA_HEADER + GOOD_ROW + "2,abc,censored,1,2\n"),
    (read_soft_labels_csv, "labels.csv", "item_id,pl_1,pl_2\n1,0.5,1\n", "item_id,pl_1,pl_2\n1,0.5,1\n2,abc,1\n"),
], ids=["data", "labels"])
def test_each_read_parses_the_whole_file_once(monkeypatch, tmp_path, read, name, good, bad):
    # the row scan that names a failing file's bad row hands loadtxt one line at a time, as a list
    whole = []
    loadtxt = np.loadtxt

    def spy(fname, *args, **kwargs):
        if not isinstance(fname, list):
            whole.append(fname)
        return loadtxt(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    for text, directory in ((good, tmp_path / "good"), (bad, tmp_path / "bad")):
        directory.mkdir()
        for path in written(directory, name, text):
            whole.clear()
            if text == good:
                read(path)
            else:
                with pytest.raises(ValueError, match="row 2 is malformed: could not convert string 'abc'"):
                    read(path)
            assert len(whole) == 1


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("quote", ["header", "status"])
def test_valid_quotes_read_the_unquoted_table(monkeypatch, tmp_path, quote, newline):
    # a file holding a '"' is read again for a quote left open; quotes that close on their line change nothing,
    # and csv parses only the header and the rows that hold a '"'
    rows = ["1,1.5,observed,,1", "2,2.0,observed,,2", "3,2.5,observed,,1", "4,2.5,censored,3,2", "5,2.5,censored,3,1"]
    quoted = [f'"{column}"' if quote == "header" and column == "status" else column for column in DATA_COLUMNS]
    if quote == "status":
        rows = [row.replace(",observed,", ',"observed",').replace(",censored,", ',"censored",') for row in rows]
    plain, path = tmp_path / "plain.csv", tmp_path / "data.csv"
    plain.write_bytes(newline.join([",".join(DATA_COLUMNS), *rows, ""]).encode().replace(b'"', b""))
    path.write_bytes(newline.join([",".join(quoted), *rows, ""]).encode())
    assert b'"' in path.read_bytes()
    want = read_dataset_csv(plain)
    parsed, reader = [], csv.reader

    def spy(lines, *args, **kwargs):
        parsed.append(lines)
        return reader(lines, *args, **kwargs)

    monkeypatch.setattr(csv, "reader", spy)
    got = read_dataset_csv(path)
    assert len(parsed) == 1 + (len(rows) if quote == "status" else 0)
    assert got.scheme == want.scheme
    for name in ("item_id", "y_star", "observed", "censored_at_failure", "true_label"):
        assert_same_array(getattr(got, name), getattr(want, name))


LONG = "1" * 200_000  # over csv's default field size limit of 131 072 characters


@pytest.mark.parametrize("read, name, text, where", [
    (read_dataset_csv, "data.csv", DATA_HEADER.rstrip("\n") + f",{LONG}\n" + GOOD_ROW.rstrip("\n") + ",n\n",
     "the header"),
    (read_dataset_csv, "data.csv", DATA_HEADER.rstrip("\n") + ",note\n" + GOOD_ROW.rstrip("\n") + ",n\n"
     + f'2,1.5,censored,1,2,"{LONG}"\n', None),
    (read_soft_labels_csv, "labels.csv", f'item_id,pl_1,pl_2\n1,0.5,1\n2,"{LONG}",1\n3,abc,1\n', "row 2"),
], ids=["header", "quoted-field-after-a-parse", "quoted-field-after-a-failed-parse"])
def test_field_over_csv_size_limit_names_its_row(tmp_path, read, name, text, where):
    # csv splits the header before any parse, and a row in the row scan after a parse that fails (row 3's 'abc');
    # the walk for a quote left open after a parse that succeeds splits a line whatever its fields' length, so the
    # quoted extra column is read as the same field unquoted is
    limit = csv.field_size_limit()
    path = tmp_path / name
    path.write_text(text)
    if where is None:
        unquoted = tmp_path / f"unquoted_{name}"
        unquoted.write_text(text.replace('"', ""))
        got, want = read(path), read(unquoted)
        assert got.scheme == want.scheme
        for field in ("item_id", "y_star", "observed", "censored_at_failure", "true_label"):
            assert_same_array(getattr(got, field), getattr(want, field))
    else:
        with pytest.raises(ValueError) as err:
            read(path)
        assert str(err.value).startswith(f"{path}: {where} cannot be read as CSV: field larger than field limit")
    assert csv.field_size_limit() == limit
