"""Frequency statistics (the f-statistics) of an observed sample.

The f-statistics ``f_j`` -- the number of entities observed exactly ``j``
times across all data sources -- are the only input the non-parametric
estimators need.  This module wraps them together with the derived
quantities used throughout the paper:

* the Good-Turing sample coverage estimate ``Ĉ = 1 − f₁/n`` (Equation 4),
* the estimated squared coefficient of variation ``γ̂²`` (Equation 6).

Both are also module functions over scalars or NumPy arrays alike (the
dynamic bucket split scan evaluates them for all candidate splits at once).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.data.sample import ObservedSample
from repro.utils.exceptions import InsufficientDataError, ValidationError


def coverage_estimate(n, f1):
    """``Ĉ = 1 − f₁/n`` (Eq. 4), elementwise."""
    return 1.0 - np.asarray(f1) / np.asarray(n)


def cv_squared_estimate(n, c, f1, moment):
    """``γ̂²`` (Eq. 6) given ``moment = Σ j(j−1)·f_j``, elementwise."""
    n, coverage = np.asarray(n), coverage_estimate(n, f1)
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma_sq = (np.asarray(c) / coverage) * np.asarray(moment) / (n * (n - 1)) - 1.0
    return np.where((n < 2) | (coverage <= 0), 0.0, np.maximum(gamma_sq, 0.0))


class FrequencyStatistics:
    """The f-statistics of a sample plus derived coverage / skew estimates.

    Parameters
    ----------
    frequencies:
        Mapping ``{j: f_j}`` with ``j >= 1`` and ``f_j >= 1`` (zero entries
        may simply be omitted).
    """

    def __init__(self, frequencies: Mapping[int, int]) -> None:
        cleaned: dict[int, int] = {}
        for occurrences, count in frequencies.items():
            if occurrences < 1:
                raise ValidationError(
                    f"occurrence counts must be >= 1, got {occurrences}"
                )
            if count < 0:
                raise ValidationError(
                    f"f_{occurrences} must be non-negative, got {count}"
                )
            if count > 0:
                cleaned[int(occurrences)] = int(count)
        if not cleaned:
            raise InsufficientDataError("frequency statistics are empty")
        self._frequencies = dict(sorted(cleaned.items()))
        # The instance is immutable after construction, so the derived
        # scalars can be computed once here; the estimator hot loops read
        # ``n``, ``c`` and ``max_occurrences`` thousands of times per fit.
        self._n = sum(j * fj for j, fj in self._frequencies.items())
        self._c = sum(self._frequencies.values())
        self._max_occurrences = max(self._frequencies)
        moment = sum(j * (j - 1) * fj for j, fj in self._frequencies.items())
        self._coverage = float(coverage_estimate(self._n, self.singletons))
        self._cv_squared = float(
            cv_squared_estimate(self._n, self._c, self.singletons, moment)
        )

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_sample(cls, sample: ObservedSample) -> "FrequencyStatistics":
        """Build the f-statistics of an :class:`ObservedSample`."""
        return cls(sample.frequency_counts())

    @classmethod
    def from_counts(cls, counts: Sequence[int]) -> "FrequencyStatistics":
        """Build the f-statistics from raw per-entity observation counts."""
        arr = np.asarray(counts, dtype=int)
        if arr.size == 0:
            raise InsufficientDataError("cannot build statistics from zero counts")
        if np.any(arr < 1):
            raise ValidationError("all observation counts must be >= 1")
        values, tallies = np.unique(arr, return_counts=True)
        return cls({int(v): int(t) for v, t in zip(values, tallies)})

    # ------------------------------------------------------------------ #
    # Raw statistics
    # ------------------------------------------------------------------ #

    def f(self, occurrences: int) -> int:
        """``f_j``: number of entities observed exactly ``occurrences`` times."""
        if occurrences < 1:
            raise ValidationError(f"occurrences must be >= 1, got {occurrences}")
        return self._frequencies.get(occurrences, 0)

    @property
    def frequencies(self) -> dict[int, int]:
        """Copy of the ``{j: f_j}`` mapping (only non-zero entries)."""
        return dict(self._frequencies)

    @property
    def singletons(self) -> int:
        """``f₁``: entities observed exactly once."""
        return self.f(1)

    @property
    def doubletons(self) -> int:
        """``f₂``: entities observed exactly twice."""
        return self.f(2)

    @property
    def n(self) -> int:
        """Total number of observations ``n = Σ j · f_j`` (cached)."""
        return self._n

    @property
    def c(self) -> int:
        """Number of unique observed entities ``c = Σ f_j`` (cached)."""
        return self._c

    @property
    def max_occurrences(self) -> int:
        """Largest observation count of any entity (cached)."""
        return self._max_occurrences

    # ------------------------------------------------------------------ #
    # Derived quantities (Equations 4 and 6)
    # ------------------------------------------------------------------ #

    def sample_coverage(self) -> float:
        """Good-Turing sample coverage estimate ``Ĉ = 1 − f₁ / n`` (Eq. 4)."""
        return self._coverage

    def cv_squared(self) -> float:
        """Estimated squared coefficient of variation ``γ̂²`` (Eq. 6).

        Returns 0.0 when the sample coverage is zero (every observed entity
        is a singleton) or when ``n < 2``; in both situations the correction
        term is statistically meaningless and the Chao92 estimator falls
        back to its coverage-only form (which itself diverges -- callers
        deal with that).
        """
        return self._cv_squared

    def singleton_ratio(self) -> float:
        """``f₁ / n`` -- the quick "is my data complete?" indicator of §3.2."""
        n = self.n
        if n == 0:
            raise InsufficientDataError("singleton ratio undefined for n = 0")
        return self.singletons / n

    def as_histogram(self, length: int | None = None) -> np.ndarray:
        """Dense vector ``[f_1, f_2, ..., f_length]`` (zero-padded).

        Used by the Monte-Carlo estimator to compare observed and simulated
        frequency statistics index by index.
        """
        max_j = self.max_occurrences
        size = max_j if length is None else int(length)
        if size < max_j:
            raise ValidationError(
                f"length {size} is smaller than the largest occurrence count {max_j}"
            )
        hist = np.zeros(size, dtype=float)
        for j, fj in self._frequencies.items():
            hist[j - 1] = fj
        return hist

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrequencyStatistics):
            return NotImplemented
        return self._frequencies == other._frequencies

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FrequencyStatistics(n={self.n}, c={self.c}, f1={self.singletons})"
