"""Synthetic long-tailed, yearly-drifting classification cohorts.

Records are drawn from per-(class, year) Gaussian clusters with a shared
isotropic covariance. Class imbalance is controlled purely by prevalence,
year-over-year drift translates cluster means along a fixed random
direction, and an optional transition year adds a one-off larger shift on
top of the drift. Cluster means are centred and the noise scale chosen so
each feature column has population mean 0 and variance 1; no empirical
re-scaling is applied, so configured drift distances are preserved
exactly.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import (ConfigurationError, DomainError, ParseError,
                     SplitError, config_from_dict)


@dataclass(frozen=True)
class CohortConfig:
    n: int
    d: int
    positive_prevalence: float = 0.5
    group_prevalences: tuple[float, ...] = (0.8, 0.2)
    group_label_association: float = 0.0
    years: tuple[int, int] = (2001, 2001)    # inclusive (first, last)
    yearly_drift: float = 0.0
    transition_year: int | None = None
    transition_shift: float = 0.0
    class_separation: float = 2.0
    seed: int = 0

    def class_prevalences(self):
        p = float(self.positive_prevalence)
        return np.array([1.0 - p, p])

    def year_list(self):
        first, last = self.years
        return list(range(int(first), int(last) + 1))

    def __post_init__(self):
        prev = self.class_prevalences()
        if np.any(prev <= 0) or np.any(prev >= 1):
            raise ConfigurationError(
                "positive_prevalence: p and 1 - p must lie in (0,1)")
        gp = np.asarray(self.group_prevalences, dtype=float)
        if np.any(gp <= 0) or np.any(gp >= 1) or abs(gp.sum() - 1.0) > 1e-9:
            raise ConfigurationError(
                "group_prevalences: fractions must lie in (0,1) and sum to 1")
        if not 0.0 <= self.group_label_association <= 1.0:
            raise ConfigurationError(
                "group_label_association: must lie in [0,1]")
        if not self.year_list():
            raise ConfigurationError("years: empty year range")
        if self.yearly_drift < 0 or self.transition_shift < 0:
            raise ConfigurationError(
                "yearly_drift/transition_shift: drift magnitudes must be >= 0")
        if self.n < 20:
            raise ConfigurationError("n: need at least 10 records per class")
        if self.d < 1:
            raise ConfigurationError("d: need at least one feature")
        if self.seed < 0:
            raise ConfigurationError("seed: must be >= 0")

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_dict(cls, raw):
        """Config from a JSON object; JSON lists become tuples."""
        if isinstance(raw, dict):
            raw = {k: tuple(v) if isinstance(v, list) else v
                   for k, v in raw.items()}
        return config_from_dict(cls, raw, "cohort")


@dataclass(frozen=True)
class Cohort:
    """Records of binary-labelled data, the single owner of its five arrays.
    An array that is a view of another is copied once; every array is then
    made read-only, and every label is checked to be 0 or 1, here only, so
    no code that reads a cohort checks again. The fields cannot be
    reassigned: a changed cohort is a new one (`dataclasses.replace`).
    An array that owns its memory is frozen in place, not copied, so a
    caller must not keep a writable view of an array it hands over."""
    features: np.ndarray   # n x d, float64
    labels: np.ndarray     # n, int, 0 or 1
    groups: np.ndarray     # n, int
    years: np.ndarray      # n, int
    ids: np.ndarray        # n, int, unique

    def __post_init__(self):
        for f in fields(self):
            array = getattr(self, f.name)
            if not array.flags.owndata:
                array = np.array(array, order="C")
            array.flags.writeable = False
            object.__setattr__(self, f.name, array)
        if not ((self.labels == 0) | (self.labels == 1)).all():
            raise DomainError("labels must lie in [0,2)")

    def __reduce__(self):
        # copy.deepcopy and pickle rebuild through the constructor, so a
        # copy's arrays are read-only and its labels checked too.
        return Cohort, tuple(getattr(self, f.name) for f in fields(self))

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def d(self):
        return self.features.shape[1]

    def subset(self, mask_or_index):
        """The records at an index, a boolean mask or a slice."""
        return Cohort(
            features=self.features[mask_or_index],
            labels=self.labels[mask_or_index],
            groups=self.groups[mask_or_index],
            years=self.years[mask_or_index],
            ids=self.ids[mask_or_index],
        )

    def __eq__(self, other):
        if not isinstance(other, Cohort):
            return NotImplemented
        return (
            np.array_equal(self.features, other.features)
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self.groups, other.groups)
            and np.array_equal(self.years, other.years)
            and np.array_equal(self.ids, other.ids)
        )


@dataclass
class CohortSplit:
    train: Cohort
    test: Cohort
    pivot_year: int


def class_year_means(config: CohortConfig):
    """Centred cluster means, keyed by (class, year).

    Deterministic in the config seed; the same means are used by
    generate_cohort, so drift distances between consecutive years can be
    checked exactly.
    """
    rng = np.random.default_rng(config.seed)
    class_dir = rng.normal(size=config.d)
    class_dir /= np.linalg.norm(class_dir)
    drift_dir = rng.normal(size=config.d)
    drift_dir /= np.linalg.norm(drift_dir)

    years = config.year_list()
    y0 = years[0]
    means = {}
    for k in range(2):
        class_mean = (k - 0.5) * config.class_separation * class_dir
        for y in years:
            shift = (y - y0) * config.yearly_drift
            if config.transition_year is not None and y >= config.transition_year:
                shift += config.transition_shift
            means[(k, y)] = class_mean + shift * drift_dir

    # Centre so the population feature mean is exactly zero.
    prev = config.class_prevalences()
    w_year = 1.0 / len(years)
    overall = np.zeros(config.d)
    for (k, y), mu in means.items():
        overall += prev[k] * w_year * mu
    return {key: mu - overall for key, mu in means.items()}


def _noise_scale(config, means):
    # Per-column variance budget: between-cluster variance plus noise
    # variance should total 1. Floor keeps the generator usable when
    # configured shifts already exceed unit variance.
    prev = config.class_prevalences()
    years = config.year_list()
    w_year = 1.0 / len(years)
    between = np.zeros(config.d)
    for (k, y), mu in means.items():
        between += prev[k] * w_year * mu ** 2
    return np.sqrt(np.maximum(1.0 - between, 0.04))


def generate_cohort(config: CohortConfig) -> Cohort:
    means = class_year_means(config)
    scale = _noise_scale(config, means)

    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    n, d = config.n, config.d
    prev = config.class_prevalences()
    years = np.array(config.year_list())

    labels = rng.choice(2, size=n, p=prev)
    year_tags = rng.choice(years, size=n)

    gp = np.asarray(config.group_prevalences, dtype=float)
    G = len(gp)
    groups = rng.choice(G, size=n, p=gp)
    coupled = rng.random(n) < config.group_label_association
    groups[coupled] = labels[coupled] % G

    mu = np.empty((n, d))
    for (k, y), m in means.items():
        mask = (labels == k) & (year_tags == y)
        mu[mask] = m
    features = mu + rng.normal(size=(n, d)) * scale

    return Cohort(
        features=features,
        labels=labels.astype(np.int64),
        groups=groups.astype(np.int64),
        years=year_tags.astype(np.int64),
        ids=np.arange(n, dtype=np.int64),
    )


def train_rows(cohort: Cohort, pivot_year: int) -> np.ndarray:
    """Indices of the records before the pivot year: the training side of
    its cumulative split, in cohort order."""
    return np.flatnonzero(cohort.years < pivot_year)


def split_yearly(cohort: Cohort, pivot_year: int) -> CohortSplit:
    """The cumulative split at a pivot year: train on every earlier year,
    test on the pivot year."""
    if pivot_year not in set(cohort.years.tolist()):
        raise SplitError(f"pivot year {pivot_year} not present in cohort")
    rows = train_rows(cohort, pivot_year)
    if not len(rows):
        raise SplitError(f"no data prior to pivot year {pivot_year}")
    return CohortSplit(cohort.subset(rows),
                       cohort.subset(cohort.years == pivot_year), pivot_year)


def pivot_years(cohort: Cohort):
    """Every year after the cohort's first: the pivots of the yearly
    protocol of every grid cell and of `audit-shift`."""
    years = sorted(set(cohort.years.tolist()))
    if len(years) < 2:
        raise ConfigurationError("yearly protocol needs >= 2 years")
    return years[1:]


def yearly_splits(cohort: Cohort):
    """Yield (pivot, cumulative split) for every pivot year."""
    for pivot in pivot_years(cohort):
        yield pivot, split_yearly(cohort, pivot)


def stable_seed(*parts):
    """A 64-bit seed derived from `parts` by hashing, so every grid cell and
    audit is reproducible on its own."""
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


_META = ["id", "year", "group", "label"]
# Cells formatted per block of rows by write_csv_rows (about 1.3 MB of
# Python objects), and characters of text per chunk parsed by read_cohort:
# what CSV I/O holds beyond the arrays does not grow with the row count.
_WRITE_CELLS = 2 ** 15
_READ_CHARS = 2 ** 20


def write_csv_rows(fh, keys, values):
    """One line per row of the (n, m) float array `values`: the row's cell
    of each integer column in `keys`, then its values, every cell in
    Python's shortest round-trip notation (repr), which reads back
    bit-identical. Rows are formatted in blocks of about _WRITE_CELLS
    cells."""
    rows = max(1, _WRITE_CELLS // (len(keys) + values.shape[1]))
    for lo in range(0, len(values), rows):
        block = slice(lo, lo + rows)
        meta = np.column_stack([k[block] for k in keys]).astype(np.int64,
                                                                 copy=False)
        fh.writelines(",".join(map(repr, m + v)) + "\n" for m, v in
                      zip(meta.tolist(), values[block].tolist()))


def write_cohort(cohort: Cohort, path):
    """The cohort CSV: a header, then one line per record of the metadata
    as ints and the features as floats (write_csv_rows)."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_META + [f"f{j}" for j in range(cohort.d)]) + "\n")
        write_csv_rows(fh, (cohort.ids, cohort.years, cohort.groups,
                            cohort.labels), cohort.features)


def read_cohort(path) -> Cohort:
    """The cohort in a cohort CSV; every label must be 0 or 1. Raises
    ParseError, naming the row and column where it can, or
    UnicodeDecodeError for a file that is not UTF-8, which the CLI reports
    as a `not UTF-8` ParseError."""
    with open(path, newline="") as fh:
        try:
            cohort = _bulk_parse(fh)
        except UnicodeDecodeError:
            cohort = None   # the row parser raises it, after any earlier error
        if cohort is None:
            fh.seek(0)
            cohort = _parse_rows(csv.reader(fh))
    return cohort


def _bulk_parse(fh):
    """The cohort in the text file `fh`, parsed in chunks of about
    _READ_CHARS characters completed to a line end, or None wherever the
    row parser might decide otherwise (see _parse_chunk; also a file
    without a data line), so both accept the same files and _parse_rows
    raises every error. A file whose header ends in CRLF has each CRLF of
    a chunk read as LF; a CR left over is refused."""
    header = fh.readline()
    crlf = header.endswith("\r\n")
    names = header.removesuffix("\r\n" if crlf else "\n").split(",")
    d = len(names) - 4
    if (not header.endswith("\n")
            or names != _META + [f"f{j}" for j in range(d)]):
        return None
    pieces = []
    while chunk := fh.read(_READ_CHARS):
        if not chunk.endswith("\n"):
            chunk += fh.readline()
        if crlf:
            chunk = chunk.replace("\r\n", "\n")
        piece = _parse_chunk(chunk, d)
        if piece is None:
            return None
        pieces.append(piece)
    if not pieces:
        return None
    ids, years, groups, labels = (np.concatenate([m[k] for m, _ in pieces])
                                  for k in range(4))
    if len(np.unique(ids)) != len(ids):
        return None
    features = np.concatenate([f for _, f in pieces])
    return Cohort(features, labels, groups, years, ids)


def _parse_chunk(chunk, d):
    """The metadata (4, rows) and features (rows, d) of the data lines in
    `chunk` from one np.loadtxt call, or None wherever the row parser might
    decide otherwise. Left to it: quotes, CR, NUL, blank or over-long
    lines, the separators 0x1c-0x1f (whitespace to numpy, not to int() and
    float()), cells loadtxt rejects and failed checks."""
    lines = chunk.removesuffix("\n").split("\n")
    if (any(c in chunk for c in '"\r\0\x1c\x1d\x1e\x1f') or "" in lines
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=1,
                           dtype=[("meta", np.int64, 4),
                                  ("features", np.float64, d)])
    except ValueError:
        return None
    meta, features = table["meta"].T, table["features"]
    if (meta[3].min() < 0 or meta[3].max() > 1 or meta[2].min() < 0
            or not np.isfinite(features).all()):
        return None
    return meta, features


def _parse_rows(reader):
    """The cohort from csv.reader rows; errors name the row and column."""
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty file, header required")
    if header[:4] != _META:
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
        if labels[-1] > 1:
            raise ParseError(f"label {labels[-1]} out of range [0,2)",
                             row=r, column=3)
        if groups[-1] < 0:
            raise ParseError("group out of range", row=r, column=2)

    n = len(ids)
    if len(set(ids)) != n:
        raise ParseError("duplicate record ids")
    # Arrays built here own their memory, so Cohort copies none of them.
    features = np.array(feats, dtype=float) if n else np.empty((0, d))
    bad = np.argwhere(~np.isfinite(features))
    if len(bad):
        r, j = bad[0]
        raise ParseError("non-finite feature cell", row=int(r) + 1,
                         column=4 + int(j))
    try:
        ids, years, groups, labels = (np.array(v, dtype=np.int64) for v in
                                      (ids, years, groups, labels))
    except OverflowError:
        r, j = next((r, j) for r, meta in enumerate(
            zip(ids, years, groups, labels), start=1)
            for j, v in enumerate(meta) if not -2**63 <= v < 2**63)
        raise ParseError("integer cell outside int64", row=r, column=j)
    return Cohort(features=features, labels=labels, groups=groups,
                  years=years, ids=ids)


def _is_float(cell):
    try:
        float(cell)
        return True
    except ValueError:
        return False
