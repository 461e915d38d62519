"""Frozen row-by-row cohort CSV reader, the reference for read_cohort.

A verbatim copy of dp_tails.cohort.read_cohort as it stood before the
reader gained its bulk numpy parse: csv.reader plus int()/float() per
cell. The differential test in tests/test_cohort.py checks that the
current reader accepts the same files, returns equal cohorts and raises
the same ParseError (message, row, column). Do not edit it to follow the
package.
"""

import csv

import numpy as np

from dp_tails.cohort import Cohort
from dp_tails.errors import ParseError


def read_cohort(path, num_classes=None) -> Cohort:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file, header required")
        if header[:4] != ["id", "year", "group", "label"]:
            raise ParseError("header must start with id,year,group,label")
        d = len(header) - 4
        for j, name in enumerate(header[4:]):
            if name != f"f{j}":
                raise ParseError(f"feature column {j} must be named f{j}",
                                 row=0, column=4 + j)

        ids, years, groups, labels, feats = [], [], [], [], []
        for r, row in enumerate(reader, start=1):
            if len(row) != 4 + d:
                raise ParseError(f"expected {4 + d} cells, got {len(row)}", row=r)
            try:
                ids.append(int(row[0]))
                years.append(int(row[1]))
                groups.append(int(row[2]))
                labels.append(int(row[3]))
            except ValueError as exc:
                raise ParseError(f"non-integer metadata cell: {exc}", row=r)
            try:
                feats.append([float(c) for c in row[4:]])
            except ValueError:
                bad = next(j for j, c in enumerate(row[4:])
                           if not _is_float(c))
                raise ParseError("non-numeric feature cell", row=r, column=4 + bad)
            if labels[-1] < 0:
                raise ParseError("label out of range", row=r, column=3)
            if num_classes is not None and labels[-1] >= num_classes:
                raise ParseError(
                    f"label {labels[-1]} out of range [0,{num_classes})",
                    row=r, column=3)
            if groups[-1] < 0:
                raise ParseError("group out of range", row=r, column=2)

    n = len(ids)
    if len(set(ids)) != n:
        raise ParseError("duplicate record ids")
    features = np.asarray(feats, dtype=float).reshape(n, d)
    bad = np.argwhere(~np.isfinite(features))
    if len(bad):
        r, j = bad[0]
        raise ParseError("non-finite feature cell", row=int(r) + 1,
                         column=4 + int(j))
    return Cohort(
        features=features,
        labels=np.asarray(labels, dtype=np.int64),
        groups=np.asarray(groups, dtype=np.int64),
        years=np.asarray(years, dtype=np.int64),
        ids=np.asarray(ids, dtype=np.int64),
    )


def _is_float(cell):
    try:
        float(cell)
        return True
    except ValueError:
        return False
