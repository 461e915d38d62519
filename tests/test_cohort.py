import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dp_tails import cohort
from dp_tails.errors import ConfigurationError, ParseError, SplitError

from conftest import make_cohort, raw_cohort


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
    split = cohort.split_yearly(c, 2003, "cumulative")
    assert set(split.train.years.tolist()) == {2001, 2002}
    assert set(split.test.years.tolist()) == {2003}
    assert not set(split.train.ids.tolist()) & set(split.test.ids.tolist())
    assert split.train.n + split.test.n == c.n


def test_split_single_year_disjoint_halves():
    c = make_cohort(n=600, d=3, years=(2006, 2007), seed=1)
    split = cohort.split_yearly(c, 2006, "single-year")
    assert set(split.train.years.tolist()) == {2006}
    assert set(split.test.years.tolist()) == {2006}
    assert not set(split.train.ids.tolist()) & set(split.test.ids.tolist())
    n_2006 = int(np.sum(c.years == 2006))
    assert split.train.n + split.test.n == n_2006
    assert abs(split.train.n - split.test.n) <= 1


def test_split_four_year_train_fraction():
    c = make_cohort(n=1000, d=3, years=(2001, 2004), seed=9)
    split = cohort.split_yearly(c, 2004, "cumulative")
    # |train| ~ Binomial(1000, 0.75); 3 sigma ~ 41.
    assert abs(split.train.n - 750) <= 3 * np.sqrt(1000 * 0.75 * 0.25)


def test_split_errors():
    c = make_cohort(n=200, d=3, years=(2001, 2002), seed=0)
    with pytest.raises(SplitError):
        cohort.split_yearly(c, 1999)
    with pytest.raises(SplitError):
        cohort.split_yearly(c, 2001, "cumulative")  # no prior year
    with pytest.raises(SplitError):
        cohort.split_yearly(c, 2002, "bogus")


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
        cohort.read_cohort(path, num_classes=2)
    assert err.value.row == 1


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
    c = raw_cohort(features, data.draw(ints), groups=data.draw(ints),
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


def test_io_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("id,year,group,label,f0\n")
    back = cohort.read_cohort(path)
    assert back.n == 0
    assert back.d == 1


def test_config_errors_name_field():
    with pytest.raises(ConfigurationError, match="positive_prevalence"):
        cohort.CohortConfig(n=1000, d=3, positive_prevalence=1.5).validate()
    with pytest.raises(ConfigurationError, match="group_prevalences"):
        cohort.CohortConfig(n=1000, d=3,
                            group_prevalences=(0.9, 0.3)).validate()
    with pytest.raises(ConfigurationError, match="yearly_drift"):
        cohort.CohortConfig(n=1000, d=3, yearly_drift=-1.0).validate()
    with pytest.raises(ConfigurationError, match="n:"):
        cohort.CohortConfig(n=5, d=3).validate()


def test_config_json_round_trip():
    config = cohort.CohortConfig(n=500, d=7, positive_prevalence=0.2,
                                 years=(2001, 2005), yearly_drift=0.3,
                                 transition_year=2003, transition_shift=1.0,
                                 seed=42)
    assert cohort.CohortConfig.from_dict(json.loads(config.to_json())) == config
