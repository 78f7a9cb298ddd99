"""The dynamic bucket split scan against the all-pairs reference.

:class:`AllPairsDynamicBucketing` is Algorithm 1 as first implemented:
every split of every bucket is restricted and scored by the base
estimator.  The production scan scores all splits at once from prefix
statistics and re-scores only the splits rounding cannot rule out; its
full estimate must be byte-identical to the reference, and its cost in
sample restrictions must stay linear in the number of final buckets.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api.specs import build_estimator
from repro.core.bucket import BucketEstimator, DynamicBucketing
from repro.data.sample import ObservedSample
from repro.datasets import load_dataset
from repro.serving.http import dumps_result


class AllPairsDynamicBucketing(DynamicBucketing):
    """Algorithm 1 scoring every two-way split exactly (the reference)."""

    def _candidate_splits(self, bucket, attribute, base, delta_rest, delta_min):
        sample = bucket.sample
        unique_values = sorted(set(float(v) for v in sample.values(attribute)))
        pairs = []
        # Splitting after the largest value would leave the right side empty.
        for split_value in unique_values[:-1]:
            left_ids = [
                eid
                for eid in sample.entity_ids
                if sample.value(eid, attribute) <= split_value
            ]
            right_ids = [
                eid
                for eid in sample.entity_ids
                if sample.value(eid, attribute) > split_value
            ]
            left_sample = sample.restrict_to_entities(left_ids)
            right_sample = sample.restrict_to_entities(right_ids)
            if left_sample is None or right_sample is None:
                continue
            left = self._estimate_bucket(
                left_sample, bucket.low, split_value, attribute, base
            )
            right = self._estimate_bucket(
                right_sample, split_value, bucket.high, attribute, base
            )
            pairs.append((left, right))
        return pairs


def reference_for(spec: str) -> BucketEstimator:
    """The spec's estimator with the all-pairs scan swapped in."""
    built = build_estimator(spec)
    return BucketEstimator(
        strategy=AllPairsDynamicBucketing(),
        base=built.base,
        search_base=built.search_base,
    )


def served_bytes(estimator, sample, attribute="v") -> bytes:
    return dumps_result(estimator.estimate(sample, attribute).to_dict())


# ---------------------------------------------------------------------- #
# Generated samples
# ---------------------------------------------------------------------- #

values = st.one_of(
    # Ties, negative values and zeros.
    st.integers(min_value=-4, max_value=4).map(float),
    # Decimals that round differently in different summation orders.
    st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0, 3.0]),
    # Magnitudes whose sums depend on the summation order.
    st.sampled_from([0.0, -0.0, 0.1, 3.0, 1e-9, 1e16, -1e16, 2.5e15]),
    st.floats(min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False),
)
counts = st.one_of(st.just(1), st.integers(min_value=1, max_value=6))


def sample_of(entries) -> ObservedSample:
    return ObservedSample.from_entity_values(
        [(f"e{i}", value, count) for i, (value, count) in enumerate(entries)],
        attribute="v",
    )


@st.composite
def samples(draw, max_size=30):
    entries = draw(st.lists(st.tuples(values, counts), min_size=1, max_size=max_size))
    # Optionally make every entity up to some value a singleton, so whole
    # buckets (and split sides) are all-singleton and diverge.
    cutoff = draw(st.none() | st.sampled_from([value for value, _ in entries]))
    return sample_of(
        [
            (value, 1 if cutoff is not None and value <= cutoff else count)
            for value, count in entries
        ]
    )


#: Samples whose best split is a near tie that prefix sums alone misrank:
#: they fail a scan that re-scores only the splits tied in float64.
NEAR_TIES = [
    [(0.1, 2), (0.1, 1), (0.1, 1), (0.3, 3), (3.0, 3), (0.3, 3), (0.1, 2)],
    [
        (0.3, 2), (0.7, 3), (0.1, 1), (0.3, 3), (1.0, 1), (0.7, 2), (0.3, 2),
        (0.1, 2), (0.3, 1), (3.0, 1), (3.0, 1), (1.0, 1), (0.7, 1),
    ],
    [
        (1.0, 2), (0.7, 1), (0.1, 3), (0.1, 2), (0.2, 3), (1.0, 1), (0.7, 3),
        (0.1, 2), (1.0, 3), (0.7, 2), (0.2, 1), (0.1, 1),
    ],
    [
        (0.3, 2), (0.7, 1), (1.0, 3), (3.0, 3), (1.0, 1), (0.3, 2), (0.2, 1),
        (0.1, 1), (0.7, 1), (0.1, 2), (0.3, 2),
    ],
    [
        (1.0, 1), (3.0, 1), (0.1, 1), (0.1, 1), (2.5e15, 2), (0.5, 2),
        (2.5e15, 1), (3.0, 2), (3.0, 1), (1e16, 1),
    ],
]


def near_tie_examples(test):
    for entries in NEAR_TIES:
        test = example(sample=sample_of(entries))(test)
    return test


class TestMatchesAllPairsReference:
    @pytest.mark.parametrize(
        "spec", ["bucket", "bucket/frequency", "bucket/frequency-uniform"]
    )
    @given(sample=samples())
    @near_tie_examples
    @settings(max_examples=150, deadline=None)
    def test_closed_form_bases(self, spec, sample):
        assert served_bytes(build_estimator(spec), sample) == served_bytes(
            reference_for(spec), sample
        )

    @given(sample=samples(max_size=15))
    @settings(max_examples=15, deadline=None)
    def test_naive_search_with_seeded_monte_carlo_base(self, sample):
        spec = "bucket/monte-carlo?search=naive&seed=7&n_runs=2&n_count_steps=3"
        assert served_bytes(build_estimator(spec), sample) == served_bytes(
            reference_for(spec), sample
        )

    @pytest.mark.parametrize("spec", ["bucket", "bucket/frequency"])
    def test_paper_stream(self, spec):
        dataset = load_dataset("us-tech-employment", seed=42)
        sample, attribute = dataset.sample(), dataset.attribute
        assert served_bytes(build_estimator(spec), sample, attribute) == served_bytes(
            reference_for(spec), sample, attribute
        )


# ---------------------------------------------------------------------- #
# Cost bound
# ---------------------------------------------------------------------- #

#: Sample restrictions allowed per final bucket.  The reference makes two
#: per distinct value per examined bucket (2418 for the paper stream's
#: 10 buckets); the scan needs about two per split it takes.
MAX_RESTRICTIONS_PER_BUCKET = 8


def paper_sample():
    dataset = load_dataset("us-tech-employment", seed=42)
    return dataset.sample(), dataset.attribute


def synthetic_sample(c=10_000):
    rng = np.random.default_rng(0)
    entries = zip(rng.lognormal(8.0, 2.0, c), rng.geometric(0.6, c))
    return (
        ObservedSample.from_entity_values(
            [(f"e{i}", float(v), int(k)) for i, (v, k) in enumerate(entries)],
            attribute="v",
        ),
        "v",
    )


@pytest.mark.parametrize("make_sample", [paper_sample, synthetic_sample])
@pytest.mark.parametrize("spec", ["bucket", "bucket/frequency"])
def test_restrictions_linear_in_final_buckets(spec, make_sample, monkeypatch):
    sample, attribute = make_sample()
    calls = []
    restrict = ObservedSample.restrict_to_entities

    def counting(self, entity_ids):
        calls.append(1)
        return restrict(self, entity_ids)

    monkeypatch.setattr(ObservedSample, "restrict_to_entities", counting)
    estimate = build_estimator(spec).estimate(sample, attribute)
    final_buckets = len(estimate.details["bucket_boundaries"])
    assert final_buckets > 1
    assert len(calls) <= MAX_RESTRICTIONS_PER_BUCKET * final_buckets
