"""Species-richness estimators (how many unique entities exist in total).

The paper builds on the Chao92 sample-coverage estimator (Section 3.1.1).
For comparison and for downstream users we also provide the classic
alternatives the species-estimation literature offers (Chao84, first-order
Jackknife, ACE) and the raw Good-Turing coverage.  All estimators consume
:class:`~repro.core.fstatistics.FrequencyStatistics` and return a
:class:`SpeciesRichnessEstimate`.

A degenerate sample in which *every* observed entity is a singleton has zero
estimated coverage; the coverage-based estimators then return ``inf``, which
mirrors the division-by-zero behaviour the paper points out for all-singleton
buckets (Section 3.3.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fstatistics import FrequencyStatistics
from repro.data.sample import ObservedSample
from repro.utils.exceptions import ValidationError


@dataclass(frozen=True)
class SpeciesRichnessEstimate:
    """Result of a species-richness estimation.

    Attributes
    ----------
    n_hat:
        Estimated total number of unique entities in the ground truth
        (``N̂``); may be ``inf`` for degenerate inputs.
    coverage:
        Estimated sample coverage ``Ĉ`` at the time of estimation.
    cv_squared:
        Estimated squared coefficient of variation ``γ̂²`` (0.0 for
        estimators that do not use it).
    method:
        Name of the estimator that produced the value.
    """

    n_hat: float
    coverage: float
    cv_squared: float
    method: str

    @property
    def missing(self) -> float:
        """Estimated number of unobserved unique entities given ``c`` is known.

        Note: this is only meaningful relative to a specific sample; use
        ``n_hat - sample.c`` when you have the sample at hand.
        """
        return self.n_hat


def _as_stats(stats_or_sample: "FrequencyStatistics | ObservedSample") -> FrequencyStatistics:
    if isinstance(stats_or_sample, FrequencyStatistics):
        return stats_or_sample
    if isinstance(stats_or_sample, ObservedSample):
        return FrequencyStatistics.from_sample(stats_or_sample)
    raise ValidationError(
        "expected FrequencyStatistics or ObservedSample, got "
        f"{type(stats_or_sample).__name__}"
    )


def good_turing_coverage(stats_or_sample: "FrequencyStatistics | ObservedSample") -> float:
    """Good-Turing sample coverage ``Ĉ = 1 − f₁/n`` (Equation 4)."""
    return _as_stats(stats_or_sample).sample_coverage()


def chao92_estimate(
    stats_or_sample: "FrequencyStatistics | ObservedSample",
) -> SpeciesRichnessEstimate:
    """The Chao & Lee (1992) sample-coverage estimator (Equation 7).

    ``N̂ = c/Ĉ + n(1−Ĉ)/Ĉ · γ̂²``.  Returns ``inf`` when the estimated
    coverage is zero (all observed entities are singletons).
    """
    stats = _as_stats(stats_or_sample)
    coverage = stats.sample_coverage()
    cv_sq = stats.cv_squared()
    n_hat = float(chao92_count(stats.n, stats.c, coverage, cv_sq))
    return SpeciesRichnessEstimate(
        n_hat=n_hat, coverage=coverage, cv_squared=cv_sq, method="chao92"
    )


def chao92_count(n, c, coverage, cv_squared):
    """Equation 7's ``N̂``, elementwise; ``inf`` where the coverage is zero."""
    coverage = np.asarray(coverage)
    with np.errstate(divide="ignore", invalid="ignore"):
        n_hat = np.asarray(c) / coverage + np.asarray(n) * (1.0 - coverage) / coverage * cv_squared
    return np.where(coverage <= 0, np.inf, n_hat)


def chao84_estimate(
    stats_or_sample: "FrequencyStatistics | ObservedSample",
) -> SpeciesRichnessEstimate:
    """The Chao (1984) lower-bound estimator ``N̂ = c + f₁²/(2·f₂)``.

    When no doubletons exist the bias-corrected form
    ``c + f₁(f₁−1)/2`` is used, which stays finite.
    """
    stats = _as_stats(stats_or_sample)
    f1 = stats.singletons
    f2 = stats.doubletons
    if f2 > 0:
        n_hat = stats.c + f1 * f1 / (2.0 * f2)
    else:
        n_hat = stats.c + f1 * (f1 - 1) / 2.0
    return SpeciesRichnessEstimate(
        n_hat=float(n_hat),
        coverage=stats.sample_coverage(),
        cv_squared=0.0,
        method="chao84",
    )


def jackknife_estimate(
    stats_or_sample: "FrequencyStatistics | ObservedSample",
    order: int = 1,
) -> SpeciesRichnessEstimate:
    """First- or second-order jackknife richness estimator.

    ``N̂₁ = c + f₁ · (n−1)/n`` and
    ``N̂₂ = c + f₁·(2n−3)/n − f₂·(n−2)²/(n(n−1))``.
    """
    stats = _as_stats(stats_or_sample)
    n = stats.n
    c = stats.c
    f1 = stats.singletons
    f2 = stats.doubletons
    if order == 1:
        n_hat = c + f1 * (n - 1) / n if n > 0 else float(c)
    elif order == 2:
        if n >= 2:
            n_hat = c + f1 * (2 * n - 3) / n - f2 * (n - 2) ** 2 / (n * (n - 1))
        else:
            n_hat = float(c)
    else:
        raise ValidationError(f"jackknife order must be 1 or 2, got {order}")
    return SpeciesRichnessEstimate(
        n_hat=float(max(n_hat, c)),
        coverage=stats.sample_coverage(),
        cv_squared=0.0,
        method=f"jackknife{order}",
    )


def ace_estimate(
    stats_or_sample: "FrequencyStatistics | ObservedSample",
    rare_cutoff: int = 10,
) -> SpeciesRichnessEstimate:
    """Abundance-based Coverage Estimator (ACE).

    Entities observed at most ``rare_cutoff`` times are "rare"; coverage and
    skew are estimated from the rare group only, abundant entities are added
    verbatim.  Returns ``inf`` if every rare entity is a singleton.
    """
    stats = _as_stats(stats_or_sample)
    if rare_cutoff < 1:
        raise ValidationError(f"rare_cutoff must be >= 1, got {rare_cutoff}")
    freqs = stats.frequencies
    c_rare = sum(fj for j, fj in freqs.items() if j <= rare_cutoff)
    c_abundant = sum(fj for j, fj in freqs.items() if j > rare_cutoff)
    n_rare = sum(j * fj for j, fj in freqs.items() if j <= rare_cutoff)
    f1 = stats.singletons
    if n_rare == 0:
        # No rare entities at all: the sample looks complete.
        return SpeciesRichnessEstimate(
            n_hat=float(stats.c),
            coverage=stats.sample_coverage(),
            cv_squared=0.0,
            method="ace",
        )
    coverage_rare = 1.0 - f1 / n_rare
    if coverage_rare <= 0:
        return SpeciesRichnessEstimate(
            n_hat=float("inf"),
            coverage=stats.sample_coverage(),
            cv_squared=0.0,
            method="ace",
        )
    moment = sum(j * (j - 1) * fj for j, fj in freqs.items() if j <= rare_cutoff)
    if n_rare > 1:
        gamma_sq = max(
            (c_rare / coverage_rare) * moment / (n_rare * (n_rare - 1)) - 1.0, 0.0
        )
    else:
        gamma_sq = 0.0
    n_hat = c_abundant + c_rare / coverage_rare + f1 / coverage_rare * gamma_sq
    return SpeciesRichnessEstimate(
        n_hat=float(n_hat),
        coverage=stats.sample_coverage(),
        cv_squared=gamma_sq,
        method="ace",
    )
