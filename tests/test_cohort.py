import copy
import csv
import dataclasses
import itertools
import json
import os
import pickle
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dp_tails import cli, cohort, influence
from dp_tails.errors import ConfigurationError, DomainError, ParseError

from conftest import make_cohort, raw_cohort
from oracles.cohort_reader_oracle import read_cohort as oracle_read_cohort


def test_determinism_byte_identical():
    a = make_cohort(n=1000, d=4, seed=7)
    b = make_cohort(n=1000, d=4, seed=7)
    assert a == b
    assert a.features.tobytes() == b.features.tobytes()


def test_balanced_prevalence_within_band():
    c = make_cohort(n=1000, d=4, prevalence=0.5, seed=7)
    assert 450 <= int(c.labels.sum()) <= 550


def test_tail_prevalence_three_sigma_interval():
    # n*p +/- 3*sqrt(n*p*(1-p)) for n=20000, p=0.02 -> [340.6, 459.4],
    # widened to the stated [311, 489] check interval.
    c = make_cohort(n=20000, d=4, prevalence=0.02, seed=3)
    assert 311 <= int(c.labels.sum()) <= 489


def test_standardization_contract():
    c = make_cohort(n=50000, d=8, prevalence=0.3, years=(2001, 2004),
                    yearly_drift=0.2, seed=11)
    assert np.all(np.abs(c.features.mean(axis=0)) < 0.1)
    assert np.all(np.abs(c.features.std(axis=0) - 1.0) < 0.1)


def test_drift_monotonicity_exact():
    config = cohort.CohortConfig(n=1000, d=6, years=(2001, 2006),
                                 yearly_drift=0.25, transition_year=2004,
                                 transition_shift=1.5, seed=5)
    means = cohort.class_year_means(config)
    for k in (0, 1):
        for y in range(2001, 2006):
            dist = np.linalg.norm(means[(k, y + 1)] - means[(k, y)])
            expected = 0.25 + (1.5 if y + 1 == 2004 else 0.0)
            assert abs(dist - expected) < 1e-9


def test_group_label_association_zero_uncorrelated():
    c = make_cohort(n=20000, d=3, prevalence=0.5, seed=2,
                    group_prevalences=(0.5, 0.5), group_label_association=0.0)
    corr = np.corrcoef(c.groups, c.labels)[0, 1]
    assert abs(corr) <= 0.03


def test_group_label_association_strong_couples():
    c = make_cohort(n=20000, d=3, prevalence=0.5, seed=2,
                    group_prevalences=(0.5, 0.5), group_label_association=0.9)
    corr = np.corrcoef(c.groups, c.labels)[0, 1]
    assert corr > 0.8


def test_split_cumulative():
    c = make_cohort(n=600, d=3, years=(2001, 2003), seed=1)
    split = cohort.split_yearly(c, 2003)
    assert set(split.train.years.tolist()) == {2001, 2002}
    assert set(split.test.years.tolist()) == {2003}
    assert not set(split.train.ids.tolist()) & set(split.test.ids.tolist())
    assert split.train.n + split.test.n == c.n


def test_split_four_year_train_fraction():
    c = make_cohort(n=1000, d=3, years=(2001, 2004), seed=9)
    split = cohort.split_yearly(c, 2004)
    # |train| ~ Binomial(1000, 0.75); 3 sigma ~ 41.
    assert abs(split.train.n - 750) <= 3 * np.sqrt(1000 * 0.75 * 0.25)


def test_split_errors():
    c = make_cohort(n=200, d=3, years=(2001, 2002), seed=0)
    with pytest.raises(ConfigurationError):
        cohort.split_yearly(c, 1999)
    with pytest.raises(ConfigurationError):
        cohort.split_yearly(c, 2001)  # no prior year


def test_cohort_refuses_labels_outside_0_1():
    # Every label is 0 or 1 from construction on, so no trainer or audit
    # checks again; raw_cohort, subset and dataclasses.replace build
    # through the same check, and the arrays refuse a write after it.
    c = raw_cohort(np.zeros((4, 2)), [0, 1, 1, 0])
    for bad in (2, 0.5):
        with pytest.raises(DomainError, match=r"labels must lie in \[0,2\)"):
            cohort.Cohort(c.features, np.array([0, 1, bad, 0]), c.groups,
                          c.years, c.ids)
    with pytest.raises(DomainError, match=r"labels must lie in \[0,2\)"):
        raw_cohort(np.zeros((4, 2)), [0, 1, 2, 0])
    with pytest.raises(DomainError, match=r"labels must lie in \[0,2\)"):
        dataclasses.replace(c, labels=np.array([0, 1, 2, 0]))
    for array in (c.features, c.labels, c.groups, c.years, c.ids):
        with pytest.raises(ValueError, match="read-only"):
            array[2] = 2
    assert np.array_equal(c.labels, [0, 1, 1, 0])
    assert c.subset([0, 1, 3]).n == 3
    empty = raw_cohort(np.zeros((0, 2)), [])
    assert empty.n == 0 and empty.subset(np.arange(0)).n == 0


def test_cohort_copies_a_view_of_its_features():
    base = np.zeros((4, 2))
    c = raw_cohort(base[:, :], [0, 1, 1, 0])
    base[0, 0] = 5
    assert c.features[0, 0] == 0


def test_cohort_labels_passed_as_a_view_stay_checked():
    lab = np.array([0, 1, 1, 0])
    c = raw_cohort(np.zeros((4, 2)), lab[:])
    lab[0] = 2
    assert set(c.labels.tolist()) <= {0, 1}


def test_cohort_fields_cannot_be_reassigned():
    c = raw_cohort(np.zeros((4, 2)), [0, 1, 1, 0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.labels = np.array([2, 2, 2, 2])
    assert np.array_equal(c.labels, [0, 1, 1, 0])


def test_every_entry_point_gives_owned_read_only_arrays(tmp_path):
    c = make_cohort(n=120, d=3, years=(2001, 2003), seed=5)
    path = tmp_path / "cohort.csv"
    cohort.write_cohort(c, path)
    quoted = tmp_path / "quoted.csv"     # a quote takes the row parser
    quoted.write_text(path.read_text().replace("\n0,", '\n"0",', 1))
    split = cohort.split_yearly(c, 2002)
    built = {"generate_cohort": c, "read_cohort": cohort.read_cohort(path),
             "read_cohort rows": cohort.read_cohort(quoted),
             "subset index": c.subset([3, 1, 2]),
             "subset mask": c.subset(c.labels == 1),
             "subset slice": c.subset(slice(10, 50)),
             "split train": split.train, "split test": split.test}
    for name, got in built.items():
        for f in dataclasses.fields(got):
            array = getattr(got, f.name)
            assert array.flags.owndata, (name, f.name)
            assert not array.flags.writeable, (name, f.name)


@pytest.mark.parametrize("make_copy", [
    copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))],
    ids=["copy", "deepcopy", "pickle"])
def test_copies_of_a_cohort_stay_checked(make_copy):
    # A copy is rebuilt through the constructor: its arrays are read-only
    # and own their memory, and it equals the original.
    c = raw_cohort(np.zeros((4, 2)), [0, 1, 1, 0])
    x = make_copy(c)
    assert x == c
    for f in dataclasses.fields(x):
        array = getattr(x, f.name)
        assert array.flags.owndata and not array.flags.writeable, f.name
    with pytest.raises(ValueError, match="read-only"):
        x.labels[0] = 2
    assert np.array_equal(x.labels, [0, 1, 1, 0])


@pytest.mark.parametrize("rows", [0, 30])
def test_row_parser_hands_cohort_owned_arrays(tmp_path, monkeypatch, rows):
    # The row parser builds arrays that own their memory, so the
    # constructor copies none of them; a header-only file still reads.
    c = make_cohort(n=120, d=3, years=(2001, 2003), seed=5)
    path = tmp_path / "quoted.csv"     # a quote takes the row parser
    cohort.write_cohort(c.subset(slice(0, rows)), path)
    path.write_text(path.read_text().replace("id,", '"id",', 1))
    handed, real = [], cohort.Cohort

    def spy(**arrays):
        handed.append(arrays)
        return real(**arrays)

    monkeypatch.setattr(cohort, "Cohort", spy)
    back = cohort.read_cohort(path)
    monkeypatch.undo()
    assert len(handed) == 1 and sorted(handed[0]) == sorted(
        f.name for f in dataclasses.fields(back))
    for name, array in handed[0].items():
        assert array.flags.owndata, name
    assert back == c.subset(slice(0, rows))
    assert back.features.shape == (rows, 3)


def test_io_round_trip(tmp_path):
    c = make_cohort(n=150, d=4, years=(2001, 2003), seed=13,
                    yearly_drift=0.1)
    path = tmp_path / "cohort.csv"
    cohort.write_cohort(c, path)
    back = cohort.read_cohort(path)
    assert back == c


def test_io_label_out_of_range(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,year,group,label,f0\n0,2001,0,2,1.0\n")
    with pytest.raises(ParseError) as err:
        cohort.read_cohort(path)
    assert (err.value.row, err.value.column) == (1, 3)
    assert "label 2 out of range [0,2)" in str(err.value)


def test_io_non_numeric_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,year,group,label,f0,f1\n0,2001,0,1,1.0,oops\n")
    with pytest.raises(ParseError) as err:
        cohort.read_cohort(path)
    assert err.value.row == 1
    assert err.value.column == 5


def test_io_non_finite_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,year,group,label,f0,f1\n0,2001,0,1,nan,1.0\n")
    with pytest.raises(ParseError) as err:
        cohort.read_cohort(path)
    assert (err.value.row, err.value.column) == (1, 4)


_finite_features = arrays(
    np.float64, st.tuples(st.integers(1, 6), st.integers(1, 4)),
    elements=st.floats(allow_nan=False, allow_infinity=False))


def _write_and_read(c):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cohort.csv")
        cohort.write_cohort(c, path)
        return cohort.read_cohort(path)


@settings(max_examples=50, deadline=None)
@given(features=_finite_features, data=st.data())
def test_io_round_trip_property(features, data):
    n = features.shape[0]
    ints = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    labels = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    c = raw_cohort(features, data.draw(labels), groups=data.draw(ints),
                   years=[2000 + y for y in data.draw(ints)])
    assert _write_and_read(c) == c


@settings(max_examples=50, deadline=None)
@given(features=_finite_features, data=st.data())
def test_io_non_finite_cell_located_property(features, data):
    n, d = features.shape
    r = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, d - 1))
    features[r, j] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    with pytest.raises(ParseError) as err:
        _write_and_read(raw_cohort(features, np.zeros(n)))
    assert (err.value.row, err.value.column) == (r + 1, 4 + j)


# Cell texts that int() or float() may read differently from numpy.
_ODD_CELLS = ["1_0", "+1", "-0", "007", " 2 ", "\t1", "1\xa0", "\u0661",
              "0x10", "1e3", "", "1e400", "-1e-400", "5e-324", "-0.0",
              "Infinity", "-nan", "99999999999999999999", "1.5.", "\0",
              "1\x1c", "\x1f2", "\r1", "1\r"]


def _mutate(lines, kind, data):
    """Apply one mutation to the header + body `lines` (no line endings)."""
    body = range(1, len(lines))
    r = data.draw(st.sampled_from(body)) if len(lines) > 1 else None
    cells = lines[r].split(",") if r else None

    def put(j, text):
        cells[j] = text
        lines[r] = ",".join(cells)

    if kind == "blank-line":
        lines.insert(data.draw(st.integers(1, len(lines))), "")
    elif kind == "non-utf8-byte":
        # Written as the byte 0xff through the surrogateescape handler.
        at = data.draw(st.integers(0, len(lines) - 1))
        pos = data.draw(st.integers(0, len(lines[at])))
        lines[at] = lines[at][:pos] + "\udcff" + lines[at][pos:]
    elif kind == "hash-line":
        lines.insert(data.draw(st.integers(1, len(lines))),
                     "#" + data.draw(st.sampled_from(lines)))
    elif kind == "quoted-cell":
        at = data.draw(st.integers(0, len(lines) - 1))
        quoted = lines[at].split(",")
        j = data.draw(st.integers(0, len(quoted) - 1))
        quoted[j] = f'"{quoted[j]}"'
        lines[at] = ",".join(quoted)
    elif r is None or len(cells) < 4:
        return
    elif kind == "extra-cell":
        lines[r] += "," + data.draw(st.sampled_from(["0", "", "1.5"]))
    elif kind == "missing-cell":
        lines[r] = ",".join(cells[:-1])
    elif kind == "int-cell":
        j = data.draw(st.integers(0, 3))
        put(j, data.draw(st.sampled_from(["1.0", " " + cells[j]])))
    elif kind == "non-finite" and len(cells) > 4:
        put(data.draw(st.integers(4, len(cells) - 1)),
            data.draw(st.sampled_from(["nan", "inf", "-inf", "NaN"])))
    elif kind == "negative":
        put(data.draw(st.sampled_from([2, 3])), "-1")
    elif kind == "label-above-1":
        put(3, data.draw(st.sampled_from(["2", "3"])))
    elif kind == "duplicate-id":
        put(0, lines[data.draw(st.sampled_from(body))].split(",")[0])
    elif kind == "odd-cell":
        put(data.draw(st.integers(0, len(cells) - 1)),
            data.draw(st.sampled_from(_ODD_CELLS)))


def _oracle_read(path):
    """The frozen oracle at num_classes=2, where it refuses every label
    other than 0 and 1, as the reader does."""
    return oracle_read_cohort(path, num_classes=2)


def _oracle_outcome(path):
    """The frozen oracle's outcome, except where the oracle overflows int64
    (its OverflowError): there the reader must raise ParseError at the
    first id, year, group or label cell outside int64, in row order."""
    expected = _outcome(_oracle_read, path)
    if expected[0] != "OverflowError":
        return expected
    with open(path, newline="") as fh:
        r, j = next((r, j) for r, row in enumerate(csv.reader(fh)) if r
                    for j, cell in enumerate(row[:4])
                    if not -2**63 <= int(cell) < 2**63)
    return ("ParseError", f"integer cell outside int64 (row {r}, column {j})",
            r, j)


def _outcome(read, path):
    """What a reader makes of a file: the cohort's exact bytes, or the
    error with its message and location."""
    try:
        c = read(path)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.row, exc.column)
    except Exception as exc:
        return (type(exc).__name__, str(exc))
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in
                 (c.features, c.labels, c.groups, c.years, c.ids))


_MUTATIONS = st.lists(st.sampled_from([
    "blank-line", "quoted-cell", "hash-line", "extra-cell",
    "missing-cell", "int-cell", "non-finite", "negative", "label-above-1",
    "duplicate-id", "no-trailing-newline", "odd-cell", "non-utf8-byte"]),
    max_size=3)


def _check_against_oracle(features, kinds, data):
    """Write a valid cohort of `features`, apply the mutation `kinds` and
    require the reader's outcome to be the frozen oracle's, with LF and
    with CRLF line ends."""
    n = features.shape[0]
    ints = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    labels = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    c = raw_cohort(features, data.draw(labels), groups=data.draw(ints),
                   years=[2000 + y for y in data.draw(ints)])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cohort.csv")
        cohort.write_cohort(c, path)
        with open(path, newline="") as fh:
            lines = fh.read().split("\n")[:-1]
        for kind in kinds:
            _mutate(lines, kind, data)
        for ending in ("\n", "\r\n"):
            text = ending.join(lines)
            if "no-trailing-newline" not in kinds:
                text += ending
            with open(path, "w", newline="",
                      errors="surrogateescape") as fh:
                fh.write(text)
            expected = _oracle_outcome(path)
            assert _outcome(cohort.read_cohort, path) == expected, ending


@settings(max_examples=300, deadline=None)
@given(features=arrays(np.float64, st.tuples(st.integers(0, 5),
                                             st.integers(0, 3)),
                       elements=st.floats(allow_nan=False,
                                          allow_infinity=False)),
       kinds=_MUTATIONS, data=st.data())
def test_reader_matches_row_parser_oracle(features, kinds, data):
    _check_against_oracle(features, kinds, data)


@settings(max_examples=300, deadline=None)
@given(features=arrays(np.float64, st.tuples(st.integers(0, 8),
                                             st.integers(0, 3)),
                       elements=st.floats(allow_nan=False,
                                          allow_infinity=False)),
       kinds=_MUTATIONS, chars=st.integers(1, 48), data=st.data())
def test_reader_matches_row_parser_oracle_across_chunks(features, kinds,
                                                        chars, data):
    # Chunks of a few dozen characters: a refusal or a bad byte may sit in
    # a later chunk only, and a line may be longer than a chunk.
    with mock.patch.object(cohort, "_READ_CHARS", chars):
        _check_against_oracle(features, kinds, data)


def test_reader_matches_row_parser_oracle_on_odd_cells(tmp_path,
                                                       monkeypatch):
    path = tmp_path / "cohort.csv"
    # First in one chunk, then in chunks of 8 characters with the odd row
    # second, so that only a later chunk holds it; with LF and CRLF ends.
    for chars, odd_first in ((cohort._READ_CHARS, True), (8, False)):
        monkeypatch.setattr(cohort, "_READ_CHARS", chars)
        for cell, column, end in itertools.product(_ODD_CELLS, (0, 3, 4),
                                                   ("\n", "\r\n")):
            row = ["0", "2001", "0", "1", "0.5"]
            row[column] = cell
            rows = [",".join(row), "1,2001,1,0,-2.0"]
            path.write_text(end.join(["id,year,group,label,f0",
                                      *(rows if odd_first else rows[::-1])])
                            + end, newline="")
            assert (_outcome(cohort.read_cohort, path)
                    == _oracle_outcome(path)), (cell, column, chars, end)


@pytest.mark.parametrize("chars", [None, 64])
def test_reader_bad_byte_after_an_earlier_error(tmp_path, monkeypatch,
                                               chars):
    # The file spans several of the oracle's 8 KiB decode buffers, so a
    # byte 0xff far down is decoded only after row 1 is parsed: the row
    # error comes first, and without one the decode error is the oracle's.
    if chars:
        monkeypatch.setattr(cohort, "_READ_CHARS", chars)
    rows = [f"{i},2001,0,1,0.5" for i in range(2000)]
    path = tmp_path / "cohort.csv"
    for first, end in itertools.product(("0,2001,0,1,oops", rows[0]),
                                        ("\n", "\r\n")):
        text = end.join(["id,year,group,label,f0", first, *rows[1:]])
        at = text.rindex("\n") + 3
        path.write_bytes(text[:at].encode() + b"\xff" + text[at:].encode())
        expected = _oracle_outcome(path)
        assert expected[0] == ("ParseError" if "oops" in first
                               else "UnicodeDecodeError")
        assert _outcome(cohort.read_cohort, path) == expected


@pytest.mark.parametrize("column", range(4))
def test_metadata_cell_int64_edges(tmp_path, column):
    path = tmp_path / "cohort.csv"

    def read_with(cell):
        row = ["0", "2001", "0", "1", "0.5"]
        row[column] = cell
        path.write_text("id,year,group,label,f0\n1,2001,1,0,-2.0\n"
                        + ",".join(row) + "\n", newline="")
        return cohort.read_cohort(path)

    if column == 3:
        # Labels are binary, so the largest int64 is refused at its cell.
        with pytest.raises(ParseError, match=r"label \d+ out of range"):
            read_with(str(2**63 - 1))
    else:
        c = read_with(str(2**63 - 1))
        assert (c.ids, c.years, c.groups)[column][1] == 2**63 - 1
    # A negative group or label is refused at the same cell as out of range.
    for cell in (str(2**63), "99999999999999999999", str(-2**63 - 1)):
        with pytest.raises(ParseError) as err:
            read_with(cell)
        assert (err.value.row, err.value.column) == (2, column)


def _write_scientific(c, path):
    """A cohort CSV in the earlier notation: csv.writer rows with features
    from np.format_float_scientific(unique=True)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "year", "group", "label"]
                        + [f"f{j}" for j in range(c.d)])
        for i in range(c.n):
            writer.writerow([int(c.ids[i]), int(c.years[i]), int(c.groups[i]),
                             int(c.labels[i])]
                            + [np.format_float_scientific(v, unique=True)
                               for v in c.features[i]])


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                2.2250738585072014e-308, 1.7976931348623157e308, 1e16,
                1e-5, 0.1, 1 / 3]


@settings(max_examples=100, deadline=None)
@given(features=arrays(np.float64, st.tuples(st.integers(1, 6),
                                             st.integers(1, 4)),
                       elements=st.one_of(
                           st.floats(allow_nan=False, allow_infinity=False),
                           st.sampled_from(_EDGE_FLOATS))))
def test_scientific_and_shortest_notation_read_back_bit_identical(features):
    c = raw_cohort(features, np.zeros(len(features)))
    with tempfile.TemporaryDirectory() as tmp:
        old, new = os.path.join(tmp, "old.csv"), os.path.join(tmp, "new.csv")
        _write_scientific(c, old)
        cohort.write_cohort(c, new)
        for path in (old, new):
            back = cohort.read_cohort(path)
            assert back == c
            assert back.features.tobytes() == c.features.tobytes()


def _traced_peak(fn, *args):
    """The tracemalloc peak, in bytes, of fn(*args); the result counts."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_MEMORY_ROWS = (5000, 20000)


def _memory_cohort(n):
    return make_cohort(n=n, d=16, years=(2001, 2005), seed=5)


def test_write_cohort_memory_does_not_grow_with_rows(tmp_path):
    path = tmp_path / "cohort.csv"
    for n in _MEMORY_ROWS:
        c = _memory_cohort(n)
        assert _traced_peak(cohort.write_cohort, c, path) < 3e6, n


def test_influence_csv_memory_does_not_grow_with_rows(tmp_path):
    path = tmp_path / "influence.csv"
    for n in _MEMORY_ROWS:
        matrix = influence.InfluenceMatrix(
            np.random.default_rng(n).normal(size=(n, 16)),
            np.arange(n, dtype=np.int64), np.arange(16, dtype=np.int64))
        assert _traced_peak(cli._write_influence_csv, matrix, path) < 3e6, n


def test_read_cohort_memory_is_a_few_times_its_arrays(tmp_path):
    path = tmp_path / "cohort.csv"
    for n in _MEMORY_ROWS:
        c = _memory_cohort(n)
        cohort.write_cohort(c, path)
        arrays = sum(a.nbytes for a in (c.features, c.labels, c.groups,
                                        c.years, c.ids))
        assert _traced_peak(cohort.read_cohort, path) < 3 * arrays + 4e6, n


def test_read_cohort_crlf_memory_within_lf_figure(tmp_path):
    # A CRLF file takes the chunked path too: its peak stays at the LF
    # file's, where the row parser's lists took 2.4 times as much.
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    cohort.write_cohort(_memory_cohort(_MEMORY_ROWS[-1]), lf)
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    assert _outcome(cohort.read_cohort, crlf) == _outcome(cohort.read_cohort,
                                                          lf)
    assert (_traced_peak(cohort.read_cohort, crlf)
            <= 1.05 * _traced_peak(cohort.read_cohort, lf))


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_writers_match_whole_matrix_formula(tmp_path, offset):
    # n below, at and above two blocks of rows, for each writer's width.
    rng = np.random.default_rng(offset + 1)
    d = 3
    n = 2 * (cohort._WRITE_CELLS // (4 + d)) + offset
    features = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-300, 300,
                                                               (n, d))
    c = raw_cohort(features, rng.integers(0, 2, n),
                   groups=rng.integers(0, 3, n),
                   years=rng.integers(2001, 2006, n),
                   ids=rng.permutation(10 * n)[:n])
    meta = np.column_stack((c.ids, c.years, c.groups, c.labels))
    path = tmp_path / "cohort.csv"
    cohort.write_cohort(c, path)
    assert path.read_text() == "id,year,group,label,f0,f1,f2\n" + "".join(
        ",".join(map(repr, m + f)) + "\n"
        for m, f in zip(meta.tolist(), features.tolist()))

    m = 5
    n = 2 * (cohort._WRITE_CELLS // (1 + m)) + offset
    matrix = influence.InfluenceMatrix(rng.normal(size=(n, m)),
                                       rng.permutation(10 * n)[:n],
                                       np.arange(100, 100 + m))
    path = tmp_path / "influence.csv"
    cli._write_influence_csv(matrix, path)
    assert path.read_text() == "train_id,100,101,102,103,104\n" + "".join(
        ",".join(map(repr, [tid, *row])) + "\n"
        for tid, row in zip(matrix.train_ids.tolist(),
                            matrix.values.tolist()))


def test_io_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("id,year,group,label,f0\n")
    back = cohort.read_cohort(path)
    assert back.n == 0
    assert back.d == 1


def test_config_errors_name_field():
    with pytest.raises(ConfigurationError, match="positive_prevalence"):
        cohort.CohortConfig(n=1000, d=3, positive_prevalence=1.5)
    with pytest.raises(ConfigurationError, match="group_prevalences"):
        cohort.CohortConfig(n=1000, d=3, group_prevalences=(0.9, 0.3))
    with pytest.raises(ConfigurationError, match="yearly_drift"):
        cohort.CohortConfig(n=1000, d=3, yearly_drift=-1.0)
    with pytest.raises(ConfigurationError, match="n:"):
        cohort.CohortConfig(n=5, d=3)


def test_config_json_round_trip():
    config = cohort.CohortConfig(n=500, d=7, positive_prevalence=0.2,
                                 years=(2001, 2005), yearly_drift=0.3,
                                 transition_year=2003, transition_shift=1.0,
                                 seed=42)
    assert cohort.CohortConfig.from_dict(json.loads(config.to_json())) == config
