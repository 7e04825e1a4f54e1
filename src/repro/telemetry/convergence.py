"""Streaming convergence monitoring for the chunked runner.

The paper's headline quantities are small hitting probabilities (e.g.
Theorem 1.1(a)'s ``Omega(1/l^{3-alpha} log^2 l)``), so a sweep is only as
trustworthy as its estimator's confidence interval -- and only as cheap
as the moment it could have stopped.  :class:`ConvergenceMonitor` rides
inside :meth:`repro.runner.Runner.run`, consuming each chunk's merged
payload as it completes, and provides three things:

* **running estimates** -- for payloads exposing the Bernoulli duck type
  (``.n_hits`` / ``.n``, i.e. :class:`~repro.engine.results
  .HittingTimeSample`), a streaming success count with a running Wilson
  interval, emitted as an ``estimate`` event per chunk;
* **sequential stopping** -- with a configured relative CI half-width
  target (CLI: ``--stop-when-ci``), :meth:`should_stop` turns true once
  the running interval is tight enough, and the runner finishes early
  with ``converged=True`` -- a *successful* early exit, distinct from a
  ``deadline``-degraded one;
* **anomaly detection** -- chunk walltimes far above the running median
  (a wedged worker, a pathological seed) and success-rate drift between
  the first and second half of the chunk history (mis-seeded resume,
  non-stationarity) are surfaced as ``incident`` events.

Payloads without the Bernoulli duck type (e.g. foraging results) still
get walltime stall detection; they simply never produce ``estimate``
events, so a CI-based stop can never fire for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.streaming import (
    RunningMedian,
    StreamingProportion,
    success_drift_z,
)


@dataclass(frozen=True)
class ConvergenceConfig:
    """Tuning knobs for :class:`ConvergenceMonitor`.

    Parameters
    ----------
    rel_ci_width:
        Stop once the 95% Wilson half-width drops below this fraction of
        the point estimate (``None`` monitors without ever stopping).
    min_chunks:
        Never stop before this many chunks have been observed -- a single
        lucky chunk must not end a sweep.
    min_successes:
        Never stop before this many successes; below it the Wilson
        interval is formally tight around 0 long before the estimate is
        meaningful for the paper's ``1/poly(l)`` probabilities.
    stall_factor / min_stall_chunks:
        A chunk slower than ``stall_factor`` times the running median of
        at least ``min_stall_chunks`` prior chunks raises a
        ``slow_chunk`` incident.
    drift_z / min_drift_chunks:
        |two-proportion z| between the first and second half of the chunk
        history above ``drift_z`` (once at least ``min_drift_chunks``
        chunks are in) raises a ``success_drift`` incident, once per run.
    """

    rel_ci_width: Optional[float] = None
    min_chunks: int = 3
    min_successes: int = 10
    stall_factor: float = 5.0
    min_stall_chunks: int = 4
    drift_z: float = 4.0
    min_drift_chunks: int = 6

    def __post_init__(self) -> None:
        if self.rel_ci_width is not None and not self.rel_ci_width > 0:
            raise ValueError(
                f"rel_ci_width must be positive, got {self.rel_ci_width}"
            )
        if self.min_chunks < 1:
            raise ValueError(f"min_chunks must be positive, got {self.min_chunks}")
        if self.stall_factor <= 1.0:
            raise ValueError(f"stall_factor must exceed 1, got {self.stall_factor}")


class ConvergenceMonitor:
    """Per-``run()`` streaming estimator state (one instance per label).

    The runner feeds it resumed chunks silently (:meth:`observe_resumed`,
    so a resumed run starts from the correct totals without re-emitting
    history) and live chunks as they complete (:meth:`observe_chunk`).
    """

    def __init__(self, config: ConvergenceConfig, recorder, label: str) -> None:
        self.config = config
        self._rec = recorder
        self._label = label
        self._proportion = StreamingProportion()
        self._chunk_walltimes = RunningMedian()
        self._chunks_observed = 0
        self._drift_flagged = False
        #: True once the CI target is met (latched; chunks only add data).
        self.converged = False

    # ------------------------------------------------------------- ingestion

    def observe_resumed(self, payload) -> None:
        """Fold a checkpointed chunk in without events or stall checks."""
        self._ingest(payload)
        self._chunks_observed += 1
        self._update_converged()

    def observe_chunk(self, index: int, payload, seconds: float) -> None:
        """Fold one freshly computed chunk in and emit telemetry."""
        self._check_stall(index, seconds)
        self._chunk_walltimes.push(seconds)
        had_counts = self._ingest(payload)
        self._chunks_observed += 1
        if not had_counts:
            return
        self._update_converged()
        self._emit_estimate(index)
        self._check_drift()

    def _ingest(self, payload) -> bool:
        """Fold a Bernoulli payload's counts in; False if it has none."""
        n_hits = getattr(payload, "n_hits", None)
        n = getattr(payload, "n", None)
        if n_hits is None or n is None:
            return False
        self._proportion.update(int(n_hits), int(n))
        return True

    # -------------------------------------------------------------- stopping

    def target_met(self) -> bool:
        """Whether the chunks observed so far meet the CI target.

        A function of the observed totals only, not of the order the
        chunks arrived in: the runner decides a run's final ``converged``
        flag from it, so serial and pooled runs that merged the same
        chunks agree.
        """
        config = self.config
        proportion = self._proportion
        return (
            config.rel_ci_width is not None
            and proportion.trials > 0
            and self._chunks_observed >= config.min_chunks
            and proportion.successes >= config.min_successes
            and proportion.rel_half_width <= config.rel_ci_width
        )

    def _update_converged(self) -> None:
        if not self.converged and self.target_met():
            self.converged = True

    def should_stop(self) -> bool:
        """True once the runner may finish early (the target was met)."""
        return self.converged

    def stop_fields(self) -> dict:
        """CI details stamped onto the runner's ``converged`` event."""
        estimate = self._proportion.estimate
        return {
            "target": self.config.rel_ci_width,
            "successes": estimate.successes,
            "trials": estimate.trials,
            "p": round(estimate.point, 8),
            "low": round(estimate.low, 8),
            "high": round(estimate.high, 8),
            "rel_half_width": round(self._proportion.rel_half_width, 6),
        }

    # --------------------------------------------------------------- events

    def _emit_estimate(self, index: int) -> None:
        proportion = self._proportion
        estimate = proportion.estimate
        fields = {
            "label": self._label,
            "chunk": index,
            "successes": estimate.successes,
            "trials": estimate.trials,
            "p": round(estimate.point, 8),
            "low": round(estimate.low, 8),
            "high": round(estimate.high, 8),
            "half_width": round(proportion.half_width, 8),
        }
        # rel_half_width is inf at p = 0, which JSON cannot carry; omit it.
        rel = proportion.rel_half_width
        if rel != float("inf"):
            fields["rel_half_width"] = round(rel, 6)
        if self.config.rel_ci_width is not None:
            fields["target"] = self.config.rel_ci_width
            fields["converged"] = self.converged
        self._rec.event("estimate", **fields)

    def _incident(self, kind: str, **fields) -> None:
        self._rec.event("incident", kind=kind, label=self._label, **fields)
        self._rec.metrics.counter("runner.incidents").add()

    def _check_stall(self, index: int, seconds: float) -> None:
        if self._chunk_walltimes.n < self.config.min_stall_chunks:
            return
        median = self._chunk_walltimes.median
        if median is None or median <= 0.0:
            return
        if seconds > self.config.stall_factor * median:
            self._incident(
                "slow_chunk",
                chunk=index,
                seconds=round(seconds, 6),
                median_seconds=round(median, 6),
                factor=round(seconds / median, 2),
            )

    def _check_drift(self) -> None:
        if self._drift_flagged:
            return
        batches = self._proportion.batches
        if len(batches) < self.config.min_drift_chunks:
            return
        z = success_drift_z(batches)
        if abs(z) > self.config.drift_z:
            self._drift_flagged = True
            mid = len(batches) // 2
            self._incident(
                "success_drift",
                z=round(z, 3),
                threshold=self.config.drift_z,
                first_half_chunks=mid,
                second_half_chunks=len(batches) - mid,
            )
