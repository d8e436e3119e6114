"""Tests for the statistics helpers."""

from __future__ import annotations

import math

import pytest

from repro.analysis.stats import required_samples, summarize, t_critical


def test_empty_samples():
    s = summarize([])
    assert s.n == 0
    assert s.mean == 0.0


def test_single_sample_infinite_ci():
    s = summarize([5.0])
    assert s.n == 1
    assert s.mean == 5.0
    assert math.isinf(s.ci_halfwidth)


def test_mean_and_ci_known_values():
    # t(0.975, 3) = 3.1824; sd of [1,2,3,4] = 1.2910
    s = summarize([1.0, 2.0, 3.0, 4.0])
    assert s.mean == pytest.approx(2.5)
    assert s.stdev == pytest.approx(1.29099, abs=1e-4)
    assert s.ci_halfwidth == pytest.approx(3.18245 * 1.29099 / 2.0, abs=1e-3)
    assert s.ci_low < s.mean < s.ci_high


def test_constant_samples_zero_ci():
    s = summarize([3.0] * 10)
    assert s.ci_halfwidth == 0.0
    assert s.relative_ci == 0.0
    assert s.meets_paper_precision()


def test_relative_ci_with_zero_mean():
    s = summarize([-1.0, 1.0])
    assert s.mean == 0.0
    assert math.isinf(s.relative_ci)
    assert not s.meets_paper_precision()


def test_paper_precision_threshold():
    """§5.2: 95% CI within 10% of the mean."""
    tight = summarize([10.0, 10.1, 9.9, 10.05, 9.95] * 4)
    assert tight.meets_paper_precision()
    loose = summarize([1.0, 20.0, 3.0])
    assert not loose.meets_paper_precision()


@pytest.mark.parametrize(
    "df, expected",
    [
        (1, 12.706204736174694),
        (2, 4.302652729749462),
        (5, 2.5705818356363146),
        (10, 2.228138851986274),
        (30, 2.0422724563012378),
        (120, 1.9799304050824402),
        (1000, 1.9623390808264083),
    ],
)
def test_t_critical_matches_reference_table(df, expected):
    """0.975 quantiles of Student's t as published (no scipy needed)."""
    assert t_critical(df) == pytest.approx(expected, rel=1e-9)


def test_required_samples_grows_with_variance():
    noisy = summarize([1.0, 10.0, 2.0, 9.0, 5.0])
    assert required_samples(noisy) > noisy.n
    clean = summarize([5.0, 5.0, 5.0])
    assert required_samples(clean) == clean.n


def test_str_representation():
    s = summarize([1.0, 2.0, 3.0])
    assert "n=3" in str(s)
