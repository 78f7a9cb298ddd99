"""The bucket estimator (Section 3.3) with static and dynamic bucketing.

The naive and frequency estimators ignore the publicity-value correlation:
when popular entities tend to have large values, assuming the missing
entities look like the observed ones biases the estimate.  The bucket
estimator splits the observed value range into sub-ranges ("buckets"),
treats each bucket as its own small data set, estimates the impact of
unknown unknowns per bucket, and sums the per-bucket estimates
(``Δ_bucket = Σ_i Δ(b_i)``, Equation 11).

Three bucketing strategies are provided:

* :class:`EquiWidthBucketing` -- fixed number of equal-width value ranges
  (Section 3.3.1).
* :class:`EquiHeightBucketing` -- fixed number of buckets holding an equal
  number of unique entities (Appendix B).
* :class:`DynamicBucketing` -- the paper's recursive conservative splitting
  (Algorithm 1): a bucket is split only when the split reduces the total
  absolute impact estimate, which provably cannot reduce the count error
  and therefore only triggers when the per-bucket value detail genuinely
  improves the estimate.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import compress
from typing import Any, NamedTuple

import numpy as np

from repro.core.estimator import Estimate, SumEstimator
from repro.core.fstatistics import coverage_estimate, cv_squared_estimate
from repro.core.incremental import IncrementalSampleState, SampleDelta
from repro.core.naive import NaiveEstimator
from repro.data.sample import ObservedSample
from repro.utils.exceptions import EstimationError, ValidationError

#: Default bucket count of the static (equi-width / equi-height) strategies;
#: the estimator registry reads this instead of repeating the value.
DEFAULT_STATIC_BUCKETS = 4


@dataclass
class Bucket:
    """One value-range bucket with its sub-sample and per-bucket estimate.

    Attributes
    ----------
    low, high:
        Inclusive value range covered by the bucket.
    sample:
        The restriction of the full sample to entities whose attribute value
        falls in ``[low, high]`` (``None`` for an empty bucket).
    estimate:
        The base estimator's result over ``sample`` (``None`` for empty
        buckets).
    """

    low: float
    high: float
    sample: ObservedSample | None = None
    estimate: Estimate | None = None

    @property
    def is_empty(self) -> bool:
        """True when no observed entity falls into the bucket."""
        return self.sample is None

    @property
    def delta(self) -> float:
        """The per-bucket impact estimate (0.0 for empty buckets)."""
        if self.estimate is None:
            return 0.0
        return self.estimate.delta

    @property
    def abs_delta(self) -> float:
        """Absolute per-bucket impact (the objective of Algorithm 1)."""
        return abs(self.delta)

    @property
    def size(self) -> int:
        """Number of unique entities in the bucket."""
        return 0 if self.sample is None else self.sample.c


class BucketingStrategy(ABC):
    """Strategy that partitions a sample into value-range buckets."""

    @abstractmethod
    def build(
        self, sample: ObservedSample, attribute: str, base: SumEstimator
    ) -> list[Bucket]:
        """Partition ``sample`` and attach per-bucket estimates."""

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def _estimate_bucket(
        bucket_sample: ObservedSample | None,
        low: float,
        high: float,
        attribute: str,
        base: SumEstimator,
    ) -> Bucket:
        """Build a :class:`Bucket`, running the base estimator when non-empty."""
        if bucket_sample is None:
            return Bucket(low=low, high=high, sample=None, estimate=None)
        estimate = base.estimate(bucket_sample, attribute)
        return Bucket(low=low, high=high, sample=bucket_sample, estimate=estimate)


class EquiWidthBucketing(BucketingStrategy):
    """Fixed number of equal-width value ranges (Section 3.3.1).

    Parameters
    ----------
    n_buckets:
        Number of buckets ``nb``; the bucket width is
        ``(max − min) / nb`` over the observed value range.
    """

    def __init__(self, n_buckets: int) -> None:
        if n_buckets < 1:
            raise ValidationError(f"n_buckets must be >= 1, got {n_buckets}")
        self.n_buckets = int(n_buckets)

    def build(
        self, sample: ObservedSample, attribute: str, base: SumEstimator
    ) -> list[Bucket]:
        values = sample.values(attribute)
        lo = float(values.min())
        hi = float(values.max())
        if lo == hi or self.n_buckets == 1:
            return [self._estimate_bucket(sample, lo, hi, attribute, base)]
        width = (hi - lo) / self.n_buckets
        buckets: list[Bucket] = []
        for i in range(self.n_buckets):
            b_lo = lo + i * width
            b_hi = hi if i == self.n_buckets - 1 else lo + (i + 1) * width
            include_high = i == self.n_buckets - 1
            restricted = sample.restrict_to_value_range(
                attribute, b_lo, b_hi, include_high=include_high
            )
            buckets.append(self._estimate_bucket(restricted, b_lo, b_hi, attribute, base))
        return buckets


class EquiHeightBucketing(BucketingStrategy):
    """Fixed number of buckets holding an equal number of unique entities.

    This is the "equi-height" variant mentioned in Appendix B: sort the
    unique entities by value and cut the sorted list into ``n_buckets``
    groups of (nearly) equal cardinality.
    """

    def __init__(self, n_buckets: int) -> None:
        if n_buckets < 1:
            raise ValidationError(f"n_buckets must be >= 1, got {n_buckets}")
        self.n_buckets = int(n_buckets)

    def build(
        self, sample: ObservedSample, attribute: str, base: SumEstimator
    ) -> list[Bucket]:
        ordered = sorted(
            sample.entity_ids, key=lambda eid: sample.value(eid, attribute)
        )
        n_buckets = min(self.n_buckets, len(ordered))
        buckets: list[Bucket] = []
        # Distribute entities as evenly as possible (first buckets get the
        # remainder), cutting only between entities so ties never straddle a
        # boundary in a surprising way.
        base_size, remainder = divmod(len(ordered), n_buckets)
        start = 0
        for i in range(n_buckets):
            size = base_size + (1 if i < remainder else 0)
            group = ordered[start : start + size]
            start += size
            if not group:
                continue
            restricted = sample.restrict_to_entities(group)
            lo = min(sample.value(eid, attribute) for eid in group)
            hi = max(sample.value(eid, attribute) for eid in group)
            buckets.append(self._estimate_bucket(restricted, lo, hi, attribute, base))
        return buckets


class DynamicBucketing(BucketingStrategy):
    """The paper's conservative recursive splitting (Algorithm 1).

    Starting from a single bucket covering the whole observed value range,
    each bucket is recursively split at the unique value boundary that
    minimises the *total* absolute impact estimate; a bucket is only split
    when some split strictly lowers that total.  Buckets whose estimate
    diverges (all singletons) have an infinite objective and therefore never
    result from a chosen split unless they were already unavoidable.

    Naive and frequency bases (``_formula``) score all splits of a bucket
    at once from prefix statistics, then exactly only those rounding cannot
    rule out (:func:`_contenders`); other bases score every split exactly.

    Parameters
    ----------
    max_depth:
        Safety cap on the recursion depth (each level at most doubles the
        number of buckets).  The paper's algorithm needs no such cap in
        practice; the default is generous.
    """

    def __init__(self, max_depth: int = 32) -> None:
        if max_depth < 1:
            raise ValidationError(f"max_depth must be >= 1, got {max_depth}")
        self.max_depth = int(max_depth)

    def build(
        self, sample: ObservedSample, attribute: str, base: SumEstimator
    ) -> list[Bucket]:
        lo = float(sample.values(attribute).min())
        hi = float(sample.values(attribute).max())
        root = self._estimate_bucket(sample, lo, hi, attribute, base)

        # delta_min tracks the best (smallest) total |Δ| over all buckets
        # discovered so far, exactly as Algorithm 1 does.
        delta_min = root.abs_delta
        todo: list[tuple[Bucket, int]] = [(root, 0)]
        final: list[Bucket] = []

        while todo:
            bucket, depth = todo.pop(0)
            if bucket.is_empty or bucket.size <= 1 or depth >= self.max_depth:
                final.append(bucket)
                continue
            # Total |Δ| over every bucket except this one; candidate splits
            # are judged by what they would make the new total.
            delta_rest = delta_min - bucket.abs_delta
            if not math.isfinite(delta_rest):
                # The running total is infinite (e.g. the root bucket is all
                # singletons); compare splits purely by their own objective.
                delta_rest = 0.0
                delta_min = bucket.abs_delta
            best_pair: tuple[Bucket, Bucket] | None = None
            for left, right in self._candidate_splits(
                bucket, attribute, base, delta_rest, delta_min
            ):
                candidate_total = delta_rest + left.abs_delta + right.abs_delta
                if candidate_total < delta_min:
                    delta_min = candidate_total
                    best_pair = (left, right)
            if best_pair is None:
                final.append(bucket)
            else:
                todo.append((best_pair[0], depth + 1))
                todo.append((best_pair[1], depth + 1))
        return sorted(final, key=lambda b: b.low)

    def _candidate_splits(
        self,
        bucket: Bucket,
        attribute: str,
        base: SumEstimator,
        delta_rest: float,
        delta_min: float,
    ) -> list[tuple[Bucket, Bucket]]:
        """The splits of ``bucket`` that may win, by ascending value, scored exactly.

        The split at a distinct value ``v`` (any but the largest) sends the
        entities with value ``<= v`` left; each side keeps insertion order.
        """
        assert bucket.sample is not None
        sample = bucket.sample
        values = sample.values(attribute)
        # Stable, so a tie group's first entity is the one a set of the
        # values keeps: it fixes the sign of a zero boundary.
        order = np.argsort(values, kind="stable")
        ordered = values[order]
        cuts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
        split_values = ordered[np.concatenate(([0], cuts[:-1]))].tolist()
        chosen: Iterable[int] = range(cuts.size)
        formula = getattr(base, "_formula", None)
        if formula is not None and cuts.size:
            counts = np.fromiter(sample.counts.values(), dtype=np.int64)[order]
            chosen = _contenders(formula, counts, ordered, cuts, delta_rest, delta_min)
        entity_ids = sample.entity_ids
        pairs = []
        for index in chosen:
            split = split_values[index]
            left = values <= split
            left_sample = sample.restrict_to_entities(compress(entity_ids, left))
            right_sample = sample.restrict_to_entities(compress(entity_ids, ~left))
            pairs.append(
                (
                    self._estimate_bucket(left_sample, bucket.low, split, attribute, base),
                    self._estimate_bucket(right_sample, split, bucket.high, attribute, base),
                )
            )
        return pairs


class _SplitStatistics(NamedTuple):
    """:class:`FrequencyStatistics` of one side of every split, as arrays."""

    n: np.ndarray
    c: np.ndarray
    singletons: np.ndarray
    moment: np.ndarray  # Σ k(k−1) over the side's entities

    def sample_coverage(self) -> np.ndarray:
        return coverage_estimate(self.n, self.singletons)

    def cv_squared(self) -> np.ndarray:
        return cv_squared_estimate(self.n, self.c, self.singletons, self.moment)


def _leading_statistics(counts: np.ndarray, values: np.ndarray, lengths: np.ndarray):
    """Statistics, value sums and singleton sums of the first ``lengths[i]`` entities."""
    at = lengths - 1
    single = counts == 1
    stats = _SplitStatistics(
        n=np.cumsum(counts)[at],
        c=lengths,
        singletons=np.cumsum(single)[at],
        moment=np.cumsum(counts * (counts - 1))[at],
    )
    return stats, np.cumsum(values)[at], np.cumsum(np.where(single, values, 0.0))[at]


def _contenders(formula, counts, values, cuts, delta_rest, delta_min) -> np.ndarray:
    """Indices of the splits whose exact total may be Algorithm 1's pick.

    ``counts`` and ``values`` are the bucket's ``m`` entities sorted by value;
    split ``i`` sends the first ``cuts[i]`` left.  The integer statistics of
    each side are exact.  Its two sums are taken in value order here but in
    insertion order by the exact path; any two float64 summations of a subset
    differ by at most ``2·γ_m·Σ|value| < slack``.  ``Δ̂`` is monotone in the
    sum and float addition is monotone, so the formula at ``sum ∓ slack``
    brackets every exact total.  A split may win only if its lower bound is
    below ``delta_min`` (the no-split comparison) and at most the smallest
    upper bound; a NaN bound excludes nothing.
    """
    m = values.size
    slack = 2.0 * m * np.finfo(np.float64).eps * float(np.abs(values).sum())
    lows = highs = delta_rest
    for stats, sums, singleton_sums in (
        _leading_statistics(counts, values, cuts),
        _leading_statistics(counts[::-1], values[::-1], m - cuts),
    ):
        with np.errstate(all="ignore"):  # overflow only widens a bound
            below = formula(stats, sums - slack, singleton_sums - slack)[0]
            above = formula(stats, sums + slack, singleton_sums + slack)[0]
        low, high = np.minimum(below, above), np.maximum(below, above)
        straddles = (low <= 0) & (high >= 0)
        lows = lows + np.where(straddles, 0.0, np.minimum(np.abs(low), np.abs(high)))
        highs = highs + np.maximum(np.abs(low), np.abs(high))
    best = np.min(np.where(np.isnan(highs), np.inf, highs))
    return np.flatnonzero(~(lows > best) & ~(lows >= delta_min))


class BucketEstimator(SumEstimator):
    """Per-bucket unknown-unknowns estimation (Section 3.3).

    Parameters
    ----------
    strategy:
        The bucketing strategy; defaults to the paper's dynamic strategy.
    base:
        The estimator applied inside each bucket -- the naive estimator by
        default (as in the paper); the frequency estimator is a drop-in
        alternative (Appendix D).
    search_base:
        Optional cheaper estimator used only while *searching* for bucket
        boundaries (the dynamic strategy scores every candidate split).
        When set, the final buckets are re-estimated with ``base``.  This is
        how the Monte-Carlo + bucket combination of Appendix D stays
        tractable: boundaries are found with the naive estimator, values are
        estimated per bucket with the Monte-Carlo estimator.
    """

    name = "bucket"

    def __init__(
        self,
        strategy: BucketingStrategy | None = None,
        base: SumEstimator | None = None,
        search_base: SumEstimator | None = None,
    ) -> None:
        self.strategy = strategy or DynamicBucketing()
        self.base = base or NaiveEstimator()
        self.search_base = search_base
        if isinstance(self.strategy, EquiWidthBucketing):
            self.name = f"bucket-equiwidth-{self.strategy.n_buckets}"
        elif isinstance(self.strategy, EquiHeightBucketing):
            self.name = f"bucket-equiheight-{self.strategy.n_buckets}"
        if not isinstance(self.base, NaiveEstimator):
            self.name = f"{self.name}+{self.base.name}"

    @property
    def supports_updates(self) -> bool:  # type: ignore[override]
        """True when every underlying estimator is itself update-capable.

        The incremental path recomputes the batch decomposition from the
        maintained sample, so it is exact for any base; the seam is still
        only offered over closed-form bases, which keeps a Monte-Carlo
        bucket (fresh ``runtime`` block per call) a batch-only estimator.
        """
        return bool(self.base.supports_updates) and (
            self.search_base is None or bool(self.search_base.supports_updates)
        )

    def estimate(self, sample: ObservedSample, attribute: str) -> Estimate:
        """Estimate the unknown-unknowns impact on ``SUM(attribute)``."""
        return self._summarize(sample, attribute, self.buckets(sample, attribute))

    # ------------------------------------------------------------------ #
    # Incremental seam
    # ------------------------------------------------------------------ #

    def update(
        self, handle: IncrementalSampleState, delta: "SampleDelta | None" = None
    ) -> Estimate:
        """Advance ``handle`` by ``delta``: the batch estimate of its sample."""
        if delta is not None:
            handle.apply(delta)
        return self.estimate(handle.sample(), handle.attribute)

    # ------------------------------------------------------------------ #
    # Shared decomposition + summary (batch and incremental paths)
    # ------------------------------------------------------------------ #

    def _summarize(
        self, sample: ObservedSample, attribute: str, buckets: list[Bucket]
    ) -> Estimate:
        delta = 0.0
        count_estimate = 0.0
        for bucket in buckets:
            delta += bucket.delta
            if bucket.estimate is not None:
                count_estimate += bucket.estimate.count_estimate
        details: dict[str, Any] = {
            "n_buckets": len([b for b in buckets if not b.is_empty]),
            "bucket_boundaries": [(b.low, b.high) for b in buckets],
            "bucket_deltas": [b.delta for b in buckets],
            "bucket_counts": [
                b.estimate.count_estimate if b.estimate is not None else 0.0
                for b in buckets
            ],
        }
        missing = count_estimate - sample.c if math.isfinite(count_estimate) else float("inf")
        value_estimate = delta / missing if (math.isfinite(missing) and missing > 0) else float("nan")
        return self._build_estimate(
            sample,
            attribute,
            delta=delta,
            count_estimate=count_estimate,
            value_estimate=value_estimate,
            details=details,
        )

    def buckets(self, sample: ObservedSample, attribute: str) -> list[Bucket]:
        """Return the buckets (with per-bucket estimates) for ``sample``.

        Exposed separately because the AVG / MIN / MAX estimators of
        Section 5 reuse the bucket decomposition directly.
        """
        self._check_attribute(sample, attribute)
        base, search_base = self.base, self.search_base
        buckets = self.strategy.build(sample, attribute, search_base or base)
        if not buckets:
            raise EstimationError("bucketing strategy produced no buckets")
        if search_base is not None and search_base is not base:
            buckets = [
                bucket
                if bucket.is_empty
                else BucketingStrategy._estimate_bucket(
                    bucket.sample, bucket.low, bucket.high, attribute, base
                )
                for bucket in buckets
            ]
        return buckets
