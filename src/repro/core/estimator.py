"""Base classes and result types shared by all unknown-unknowns estimators.

Every SUM-impact estimator implements :class:`SumEstimator` and returns an
:class:`Estimate`, which bundles

* the impact estimate ``Δ̂`` (Definition 2),
* the corrected query answer ``φ̂_D = φ_K + Δ̂`` (Equation 2),
* the underlying count estimate ``N̂`` and value estimate,
* diagnostics (sample coverage, CV², whether the estimate is reliable).

The paper recommends only trusting estimates once the predicted sample
coverage exceeds roughly 40% (Section 6.5); :attr:`Estimate.reliable`
encodes that recommendation without hiding the raw numbers.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

import math

from repro.core.fstatistics import FrequencyStatistics
from repro.core.incremental import IncrementalSampleState
from repro.data.sample import ObservedSample
from repro.utils.exceptions import EstimationError
from repro.utils.serialization import envelope, unwrap

#: Minimum estimated sample coverage below which the paper advises not to
#: trust coverage-based estimates (Section 6.5).
COVERAGE_RELIABILITY_THRESHOLD = 0.40


@dataclass(frozen=True)
class Estimate:
    """Result of estimating the impact of unknown unknowns on one aggregate.

    Attributes
    ----------
    observed:
        The closed-world query answer ``φ_K`` over the integrated database.
    delta:
        The estimated impact ``Δ̂`` of the unknown unknowns.
    corrected:
        The open-world answer estimate ``φ̂_D = φ_K + Δ̂``.
    count_estimate:
        Estimated total number of unique entities ``N̂`` in the ground truth.
    missing_count:
        Estimated number of unobserved unique entities ``N̂ − c`` (never
        negative).
    value_estimate:
        The per-missing-entity value estimate used (mean substitution value,
        singleton mean, ...); ``nan`` when not applicable (e.g. COUNT).
    coverage:
        Estimated sample coverage ``Ĉ`` at estimation time.
    cv_squared:
        Estimated squared coefficient of variation ``γ̂²``.
    estimator:
        Name of the estimator that produced this result.
    details:
        Estimator-specific diagnostics (bucket boundaries, fitted MC
        parameters, ...).
    runtime:
        Optional execution metadata (``wall_time_s``, ``backend``,
        ``n_workers``) recorded by estimators that run through a
        :mod:`repro.parallel` backend; ``None`` for closed-form estimators.
    """

    observed: float
    delta: float
    corrected: float
    count_estimate: float
    missing_count: float
    value_estimate: float
    coverage: float
    cv_squared: float
    estimator: str
    details: dict[str, Any] = field(default_factory=dict)
    runtime: "dict[str, Any] | None" = None

    @property
    def reliable(self) -> bool:
        """True when the coverage-based reliability recommendation is met.

        The estimate is flagged unreliable when the predicted sample
        coverage is below 40% or the estimate itself is non-finite.
        """
        return (
            math.isfinite(self.delta)
            and math.isfinite(self.corrected)
            and self.coverage >= COVERAGE_RELIABILITY_THRESHOLD
        )

    @property
    def is_finite(self) -> bool:
        """True when both Δ̂ and the corrected answer are finite numbers."""
        return math.isfinite(self.delta) and math.isfinite(self.corrected)

    def relative_error(self, ground_truth: float) -> float:
        """|corrected − ground_truth| / |ground_truth| (for evaluation)."""
        if ground_truth == 0:
            raise EstimationError("relative error undefined for zero ground truth")
        return abs(self.corrected - ground_truth) / abs(ground_truth)

    # ------------------------------------------------------------------ #
    # Serialization (repro.api.results contract)
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict[str, Any]:
        """Strict-JSON representation under the shared result envelope."""
        return envelope(
            "estimate",
            {
                "observed": self.observed,
                "delta": self.delta,
                "corrected": self.corrected,
                "count_estimate": self.count_estimate,
                "missing_count": self.missing_count,
                "value_estimate": self.value_estimate,
                "coverage": self.coverage,
                "cv_squared": self.cv_squared,
                "estimator": self.estimator,
                "reliable": self.reliable,
                "details": self.details,
                "runtime": self.runtime,
            },
        )

    @classmethod
    def from_dict(cls, payload: "dict[str, Any]") -> "Estimate":
        """Rebuild an :class:`Estimate` serialized with :meth:`to_dict`.

        Payloads written before the ``runtime`` field existed (schema v1
        without the key) still round-trip: the field defaults to ``None``.
        """
        body = unwrap(payload, "estimate")
        body.pop("reliable", None)  # derived property, not a field
        body.setdefault("runtime", None)
        return cls(**body)


class SumEstimator(ABC):
    """Interface of every SUM-impact estimator.

    Subclasses implement :meth:`estimate` and report a stable :attr:`name`
    used by the experiment harness and the estimator registry.

    Estimators that can maintain their result under updates additionally
    set :attr:`supports_updates` and implement the incremental seam
    (:meth:`begin` / :meth:`update`).  The batch :meth:`estimate` always
    remains available and is the parity oracle: for any sequence of
    deltas, ``update`` must return an :class:`Estimate` identical to what
    ``estimate`` would compute over the equivalent full sample.
    """

    #: Stable identifier of the estimator (overridden by subclasses).
    name: str = "abstract"

    #: True when the estimator implements the incremental seam below.
    #: Class-level default; :class:`~repro.core.bucket.BucketEstimator`
    #: overrides it with a property derived from its base estimators.
    supports_updates: bool = False

    @abstractmethod
    def estimate(self, sample: ObservedSample, attribute: str) -> Estimate:
        """Estimate the unknown-unknowns impact on ``SUM(attribute)``."""

    # ------------------------------------------------------------------ #
    # Incremental seam (optional; see supports_updates)
    # ------------------------------------------------------------------ #

    def begin(self, sample: ObservedSample, attribute: str) -> Any:
        """Open an incremental handle positioned at ``sample``.

        The handle is opaque to callers; feed it back to :meth:`update`
        together with the :class:`~repro.core.incremental.SampleDelta`
        digests committed since.  Estimators with
        ``supports_updates = False`` raise :class:`EstimationError`.
        """
        if not self.supports_updates:
            raise EstimationError(
                f"estimator {self.name!r} does not support incremental updates"
            )
        self._check_attribute(sample, attribute)
        return IncrementalSampleState(sample, attribute)

    def update(self, handle: Any, delta: Any = None) -> Estimate:
        """Advance ``handle`` by ``delta`` and return the fresh estimate.

        ``delta=None`` recomputes from the handle's current state without
        advancing it (used right after :meth:`begin` and for reads with
        no intervening ingest).
        """
        raise EstimationError(
            f"estimator {self.name!r} does not support incremental updates"
        )

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #

    def _check_attribute(self, sample: ObservedSample, attribute: str) -> None:
        """Raise a clear error when the attribute is missing from the sample."""
        if not sample.has_attribute(attribute):
            raise EstimationError(
                f"sample does not carry attribute {attribute!r} on every entity; "
                f"available attributes: {sample.attributes}"
            )

    @staticmethod
    def _statistics(sample: ObservedSample) -> FrequencyStatistics:
        """Frequency statistics of the sample (shared shortcut)."""
        return FrequencyStatistics.from_sample(sample)

    def _build_estimate(
        self,
        sample: ObservedSample,
        attribute: str,
        delta: float,
        count_estimate: float,
        value_estimate: float,
        details: dict[str, Any] | None = None,
        runtime: dict[str, Any] | None = None,
    ) -> Estimate:
        """Assemble an :class:`Estimate` with the common bookkeeping filled in."""
        return self._assemble_estimate(
            self._statistics(sample),
            sample.sum(attribute),
            delta=delta,
            count_estimate=count_estimate,
            value_estimate=value_estimate,
            details=details,
            runtime=runtime,
        )

    def _assemble_estimate(
        self,
        stats: FrequencyStatistics,
        observed: float,
        delta: float,
        count_estimate: float,
        value_estimate: float,
        details: dict[str, Any] | None = None,
        runtime: dict[str, Any] | None = None,
    ) -> Estimate:
        """Assemble an :class:`Estimate` from pre-reduced inputs.

        The batch path (:meth:`_build_estimate`) and the incremental path
        share this assembly, so the two can only differ in how ``stats``
        and ``observed`` were obtained -- which is exactly what the
        incremental state keeps bit-identical.  Note ``stats.c`` equals
        ``sample.c`` by construction (``c = Σ f_j``).
        """
        missing = count_estimate - stats.c
        if math.isfinite(missing):
            missing = max(missing, 0.0)
        return Estimate(
            observed=observed,
            delta=delta,
            corrected=observed + delta,
            count_estimate=count_estimate,
            missing_count=missing,
            value_estimate=value_estimate,
            coverage=stats.sample_coverage(),
            cv_squared=stats.cv_squared(),
            estimator=self.name,
            details=dict(details or {}),
            runtime=dict(runtime) if runtime is not None else None,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
