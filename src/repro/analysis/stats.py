"""Statistics helpers: means and confidence intervals.

The paper reports means over many samples with 95 % confidence intervals
within ~10 % of the mean (§5.2); :func:`summarize` computes the same
Student-t interval so experiment output can state whether a run met the
paper's precision bar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

#: the paper's confidence level (§5.2); the only one any caller uses
CONFIDENCE = 0.95


@dataclass(frozen=True)
class Summary:
    """Mean with a symmetric confidence interval."""

    n: int
    mean: float
    stdev: float
    ci_halfwidth: float

    @property
    def ci_low(self) -> float:
        return self.mean - self.ci_halfwidth

    @property
    def ci_high(self) -> float:
        return self.mean + self.ci_halfwidth

    @property
    def relative_ci(self) -> float:
        """CI half-width as a fraction of the mean (inf when mean is 0)."""
        if self.mean == 0:
            return math.inf if self.ci_halfwidth > 0 else 0.0
        return abs(self.ci_halfwidth / self.mean)

    def meets_paper_precision(self, threshold: float = 0.10) -> bool:
        """Whether the 95 % CI is within ``threshold`` of the mean (§5.2)."""
        return self.relative_ci <= threshold

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.ci_halfwidth:.2g} (n={self.n})"


def _t_central_mass(t: float, df: int) -> float:
    """P(|T| <= t) for Student's t with integer ``df``, exactly.

    The closed-form finite series in theta = atan(t / sqrt(df))
    (Abramowitz & Stegun 26.7.3/26.7.4): every term is positive, so the
    sum loses no digits to cancellation.

    odd df:  2/pi * (theta + sin * (cos + 2/3 cos^3 + 2*4/(3*5) cos^5 + ...))
    even df: sin * (1 + 1/2 cos^2 + 1*3/(2*4) cos^4 + ...)
    """
    theta = math.atan(t / math.sqrt(df))
    sin, cos = math.sin(theta), math.cos(theta)
    odd = df % 2
    term, total = (cos if odd else 1.0), 0.0
    for k in range(1 + odd, df, 2):
        total += term
        term *= cos * cos * k / (k + 1)
    if odd:
        return (theta + sin * total) * 2.0 / math.pi
    return sin * total


@lru_cache(maxsize=64)
def t_critical(df: int) -> float:
    """Two-sided Student-t critical value at :data:`CONFIDENCE`.

    Bisection on the exact CDF to the last float; the root lies between
    the normal quantile (df -> inf) and the df = 1 value 12.706. Cached:
    the series is O(df) per step and a campaign summarizes every point
    at the same sample size.
    """
    lo, hi = 1.9, 12.8
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if _t_central_mass(mid, df) < CONFIDENCE:
            lo = mid
        else:
            hi = mid


def summarize(samples: Sequence[float]) -> Summary:
    """Mean and 95 % Student-t confidence interval of ``samples``."""
    n = len(samples)
    if n == 0:
        return Summary(0, 0.0, 0.0, 0.0)
    mean = sum(samples) / n
    if n == 1:
        return Summary(1, mean, 0.0, math.inf)
    variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
    stdev = math.sqrt(variance)
    halfwidth = t_critical(n - 1) * stdev / math.sqrt(n)
    return Summary(n, mean, stdev, halfwidth)


def required_samples(summary: Summary, target_relative_ci: float = 0.10) -> int:
    """Rough sample size needed to shrink the CI to the target.

    Uses the normal approximation: n ∝ (stdev / (target · mean))².
    Returns at least the current n.
    """
    if summary.mean == 0 or summary.stdev == 0:
        return summary.n
    z = 1.96
    needed = (z * summary.stdev / (target_relative_ci * abs(summary.mean))) ** 2
    return max(summary.n, math.ceil(needed))
