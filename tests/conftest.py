"""Shared helpers for the test suite."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from dp_tails import cohort


def make_cohort(n=200, d=5, prevalence=0.5, years=(2001, 2001), seed=0, **kw):
    config = cohort.CohortConfig(n=n, d=d, positive_prevalence=prevalence,
                                 years=years, seed=seed, **kw)
    return cohort.generate_cohort(config)


def raw_cohort(features, labels, groups=None, years=None, ids=None):
    """Build a Cohort directly from arrays (for constructed examples)."""
    features = np.asarray(features, dtype=float)
    n = features.shape[0]
    return cohort.Cohort(
        features=features,
        labels=np.asarray(labels, dtype=np.int64),
        groups=np.zeros(n, dtype=np.int64) if groups is None
        else np.asarray(groups, dtype=np.int64),
        years=np.zeros(n, dtype=np.int64) if years is None
        else np.asarray(years, dtype=np.int64),
        ids=np.arange(n, dtype=np.int64) if ids is None
        else np.asarray(ids, dtype=np.int64),
    )


def oracle_config(config):
    """A DPTrainingConfig as the frozen trainer oracle reads it: its fields,
    `private`, and the one update rule the package keeps, `optimizer="sgd"`."""
    return SimpleNamespace(**dataclasses.asdict(config),
                           private=config.private, optimizer="sgd")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
