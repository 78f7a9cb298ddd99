"""The naive estimator (Section 3.1).

``Δ̂_naive = φ_K / c · (N̂_Chao92 − c)``: the Chao92 estimate of how many
unique entities are missing, each assumed to carry the mean observed value
(mean substitution).  It is the baseline every other estimator improves on;
with a publicity-value correlation it systematically over- or
under-estimates because the observed mean is itself biased.
"""

from __future__ import annotations

import numpy as np

from repro.core.estimator import Estimate, SumEstimator
from repro.core.fstatistics import FrequencyStatistics
from repro.core.incremental import IncrementalSampleState, SampleDelta
from repro.core.species import chao92_count
from repro.data.sample import ObservedSample


class NaiveEstimator(SumEstimator):
    """Chao92 count estimate × mean-substitution value estimate (Eq. 3 / 8)."""

    name = "naive"

    #: Δ̂_naive is a pure function of the f-statistics histogram and the
    #: observed SUM, both of which the incremental state maintains
    #: exactly -- so the delta path is O(|delta|) and bit-identical.
    supports_updates = True

    def estimate(self, sample: ObservedSample, attribute: str) -> Estimate:
        """Estimate the unknown-unknowns impact on ``SUM(attribute)``.

        Degenerate samples in which every observed entity is a singleton
        have zero estimated coverage; the Chao92 count estimate and hence
        ``Δ̂`` are reported as ``inf`` (matching the division by ``n − f₁``
        in Equation 8), and the caller decides how to handle it.
        """
        self._check_attribute(sample, attribute)
        return self._estimate_from(self._statistics(sample), sample.sum(attribute))

    # ------------------------------------------------------------------ #
    # Incremental seam
    # ------------------------------------------------------------------ #

    def update(
        self, handle: IncrementalSampleState, delta: "SampleDelta | None" = None
    ) -> Estimate:
        """Advance ``handle`` by ``delta`` and return the fresh estimate."""
        if delta is not None:
            handle.apply(delta)
        return self._estimate_from(handle.statistics(), handle.observed_sum())

    # ------------------------------------------------------------------ #
    # Shared math (the batch path is the parity oracle)
    # ------------------------------------------------------------------ #

    def _estimate_from(self, stats: FrequencyStatistics, observed_sum: float) -> Estimate:
        delta, count_estimate, mean_value = self._formula(stats, observed_sum)
        return self._assemble_estimate(
            stats,
            observed_sum,
            delta=float(delta),
            count_estimate=float(count_estimate),
            value_estimate=float(mean_value),
            details={
                "chao92_coverage": stats.sample_coverage(),
                "chao92_cv_squared": stats.cv_squared(),
            },
        )

    @staticmethod
    def _formula(stats, observed_sum, singleton_sum=None):
        """``(Δ̂, N̂, mean value)`` elementwise, for one sample or every split.

        ``stats`` is a :class:`FrequencyStatistics` or the bucket split
        scan's array counterpart; ``Δ̂`` is monotone in ``observed_sum``.
        """
        c = np.asarray(stats.c)
        n_hat = chao92_count(stats.n, c, stats.sample_coverage(), stats.cv_squared())
        mean_value = observed_sum / c
        with np.errstate(invalid="ignore"):  # inf · 0 where N̂ diverges
            delta = mean_value * (n_hat - c)
        diverged = np.where(observed_sum > 0, np.inf, np.where(observed_sum < 0, -np.inf, 0.0))
        return np.where(np.isinf(n_hat), diverged, delta), n_hat, mean_value
