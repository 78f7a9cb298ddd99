"""The frequency estimator (Section 3.2).

Instead of assuming missing entities look like the *average* observed entity
(mean substitution), the frequency estimator assumes they look like the
*singletons* -- the entities observed exactly once, which are the best
available proxy for what has not been observed at all:

``Δ̂_freq = φ_f1 / f₁ · (N̂_Chao92 − c) = φ_f1 · (c + γ̂²·n) / (n − f₁)``.

This makes the estimate robust against popular high-impact entities (the
"Google effect"): well-known large companies stop being singletons quickly
and therefore stop inflating the value estimate for the missing entities.
"""

from __future__ import annotations

import numpy as np

from repro.core.estimator import Estimate, SumEstimator
from repro.core.fstatistics import FrequencyStatistics
from repro.core.incremental import IncrementalSampleState, SampleDelta
from repro.data.sample import ObservedSample


class FrequencyEstimator(SumEstimator):
    """Chao92 count estimate × singleton-mean value estimate (Eq. 9 / 10).

    Parameters
    ----------
    assume_uniform:
        When True, drop the skew correction (``γ̂² = 0``), which turns the
        estimator into the pure Good-Turing form of Equation 10.  The paper
        notes this variant still converges, just more slowly, and is handy
        as a quick completeness check.
    """

    name = "frequency"

    #: Equation 9 reads only the f-statistics histogram and the singleton
    #: SUM; both are maintained exactly by the incremental state (the
    #: singleton sum re-sums sequentially after a promotion, preserving
    #: the batch summation order), so updates are O(|delta|) amortized.
    supports_updates = True

    def __init__(self, assume_uniform: bool = False) -> None:
        self.assume_uniform = bool(assume_uniform)
        if self.assume_uniform:
            self.name = "frequency-uniform"

    def estimate(self, sample: ObservedSample, attribute: str) -> Estimate:
        """Estimate the unknown-unknowns impact on ``SUM(attribute)``."""
        self._check_attribute(sample, attribute)
        return self._estimate_from(
            self._statistics(sample),
            sample.sum(attribute),
            sample.singleton_sum(attribute),
        )

    # ------------------------------------------------------------------ #
    # Incremental seam
    # ------------------------------------------------------------------ #

    def update(
        self, handle: IncrementalSampleState, delta: "SampleDelta | None" = None
    ) -> Estimate:
        """Advance ``handle`` by ``delta`` and return the fresh estimate."""
        if delta is not None:
            handle.apply(delta)
        return self._estimate_from(
            handle.statistics(), handle.observed_sum(), handle.singleton_sum()
        )

    # ------------------------------------------------------------------ #
    # Shared math (the batch path is the parity oracle)
    # ------------------------------------------------------------------ #

    def _estimate_from(
        self,
        stats: FrequencyStatistics,
        observed_sum: float,
        singleton_sum: float,
    ) -> Estimate:
        delta, count_estimate, value_estimate = self._formula(stats, observed_sum, singleton_sum)
        return self._assemble_estimate(
            stats,
            observed_sum,
            delta=float(delta),
            count_estimate=float(count_estimate),
            value_estimate=float(value_estimate),
            details={
                "singleton_sum": singleton_sum,
                "singleton_count": stats.singletons,
                "gamma_squared_used": 0.0 if self.assume_uniform else stats.cv_squared(),
            },
        )

    def _formula(self, stats, observed_sum, singleton_sum):
        """``(Δ̂, N̂, singleton mean)`` elementwise, for one sample or every split.

        ``stats`` is a :class:`FrequencyStatistics` or the bucket split
        scan's array counterpart; ``Δ̂`` is monotone in ``singleton_sum``.
        """
        n, c, f1 = stats.n, stats.c, np.asarray(stats.singletons)
        gamma_sq = 0.0 if self.assume_uniform else stats.cv_squared()
        with np.errstate(divide="ignore", invalid="ignore"):
            skewed, covered = c + gamma_sq * n, n - f1
            delta = singleton_sum * skewed / covered
            count_estimate = c + f1 * skewed / covered
            value_estimate = singleton_sum / f1
        # No singletons: the sample looks complete and Equation 9 is zero.
        # All singletons: zero coverage, Δ̂ diverges like the Chao92 count.
        diverged = np.where(singleton_sum > 0, np.inf, np.where(singleton_sum < 0, -np.inf, 0.0))
        complete = f1 == 0
        return (
            np.where(complete, 0.0, np.where(covered == 0, diverged, delta)),
            np.where(complete, c, np.where(covered == 0, np.inf, count_estimate)),
            np.where(complete, 0.0, value_estimate),
        )
