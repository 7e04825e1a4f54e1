"""The fault-tolerant chunked runner: checkpoint, resume, deadline, retry.

:class:`Runner` executes a :mod:`~repro.runner.tasks` task as a sequence
of independently seeded chunks (:class:`~repro.runner.chunking.ChunkPlan`)
and makes each chunk durable the moment it finishes:

* **checkpointing** -- every completed chunk is written atomically with a
  checksummed manifest (:mod:`~repro.runner.checkpoint`), so a crash loses
  at most the chunk in flight;
* **resume** -- with ``resume=True`` and a ``checkpoint_dir``, completed
  chunks are validated and skipped; corrupt or stale ones are quarantined
  and recomputed.  Determinism: for a fixed ``(seed, n_total, n_chunks)``
  the merged sample is identical whether the run was uninterrupted,
  killed and resumed, serial, or pooled;
* **deadline** -- ``max_seconds`` is a walltime budget shared by all
  ``run()`` calls of this Runner; when it expires the runner stops
  *between* chunks and returns the merged partial sample flagged
  ``degraded=True`` instead of raising;
* **isolation & retry** -- with ``workers >= 1`` chunks execute in a
  :class:`~concurrent.futures.ProcessPoolExecutor`; a hung chunk is
  detected by ``chunk_timeout``, the pool is killed and rebuilt, and the
  chunk is retried with exponential backoff up to ``max_retries`` times
  (likewise for workers that die outright);
* **signals** -- inside a :func:`trap_signals` block, SIGINT/SIGTERM ask
  the runner to stop at the next chunk boundary; everything finished so
  far is already on disk and the outcome reports ``interrupted=True``.
"""

from __future__ import annotations

import os
import pickle
import signal as _signal
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.engine import shm as _shm
from repro.runner import tasks as _tasks
from repro.runner.checkpoint import SCHEMA_VERSION, CheckpointStore
from repro.runner.chunking import ChunkPlan, clamp_chunks
from repro.runner.faults import FaultInjector
from repro.runner.supervision import (
    FATAL,
    ResourceGuards,
    ResourceMonitor,
    RetryPolicy,
    Supervisor,
    chunk_retry_key,
    validate_payload,
)
from repro.telemetry.convergence import ConvergenceConfig, ConvergenceMonitor
from repro.telemetry.recorder import get_recorder


# ------------------------------------------------------------------- signals


class _SignalTrap:
    def __init__(self) -> None:
        self.triggered: Optional[int] = None


_ACTIVE_TRAP: Optional[_SignalTrap] = None


@contextmanager
def trap_signals(signums=(_signal.SIGINT, _signal.SIGTERM)):
    """Convert SIGINT/SIGTERM into a cooperative stop request.

    While the context is active, the first signal sets a flag that
    :func:`stop_requested` exposes (the runner checks it between chunks);
    a second SIGINT raises :class:`KeyboardInterrupt` as an escape hatch.
    Previous handlers are restored on exit.
    """
    global _ACTIVE_TRAP
    trap = _SignalTrap()

    def _handler(signum, frame):
        if trap.triggered is not None and signum == _signal.SIGINT:
            raise KeyboardInterrupt
        trap.triggered = signum

    previous = {}
    for signum in signums:
        previous[signum] = _signal.signal(signum, _handler)
    outer, _ACTIVE_TRAP = _ACTIVE_TRAP, trap
    try:
        yield trap
    finally:
        _ACTIVE_TRAP = outer
        for signum, handler in previous.items():
            _signal.signal(signum, handler)


def stop_requested() -> bool:
    """True once a trapped SIGINT/SIGTERM has been received."""
    return _ACTIVE_TRAP is not None and _ACTIVE_TRAP.triggered is not None


# ----------------------------------------------------------------- execution


def _execute_chunk(
    task,
    index: int,
    n: int,
    seed,
    injector: Optional[FaultInjector],
    attempt: int = 1,
    heartbeat: Optional[Tuple[str, float]] = None,
    profile: bool = False,
    slab: Optional[str] = None,
):
    """Run one chunk (in the parent or a pool worker).

    Returns ``(index, result, meta)`` where ``meta`` always carries the
    executing process's pid as ``worker_id`` and -- when ``profile`` is
    set -- the chunk's drained engine phase timings (``phases`` seconds
    per stage, ``engines`` call counts) and, from a pool worker, its
    engine work counters (``counts``: ``engine.steps_simulated`` and
    ``engine.jumps_sampled``).  The parent turns the meta into the
    ``chunk_end``/``phase_profile`` events and counter bumps, which is
    how both escape pool workers whose recorder is a null
    :class:`WorkerHeartbeat` with no event log or metrics of its own.

    ``heartbeat`` is ``(path, interval)``: when set, a
    :class:`~repro.runner.supervision.WorkerHeartbeat` recorder is
    installed for the duration of the chunk so the engine round loops'
    ``tick()`` calls touch the per-chunk heartbeat file the parent's
    watchdog observes.  Installed *before* the injector hook runs, so an
    injected hang is exactly what it simulates: a worker that stopped
    heartbeating mid-chunk.

    ``slab`` (pool mode, shm transport) names the shared-memory segment
    to write the payload into: ``result`` is then a tiny
    :class:`~repro.engine.shm.SlabRef` instead of the pickled payload and
    ``meta["transport"]`` is ``"shm"``.  Payload kinds without a slab
    layout return the payload itself with ``meta["transport"]`` set to
    ``"pickle-fallback"`` so the parent can flag the silent downgrade.
    """
    from repro.telemetry.recorder import get_recorder as _get_recorder

    previous = None
    if heartbeat is not None:
        from repro.runner.supervision import WorkerHeartbeat
        from repro.telemetry.recorder import set_recorder

        path, interval = heartbeat
        previous = set_recorder(WorkerHeartbeat(path, interval))
    try:
        recorder = _get_recorder()
        if (
            profile
            and not recorder.enabled
            and getattr(recorder, "profile", None) is None
        ):
            # Pool worker: its (null) recorder has no accumulator of its
            # own.  Attach one so the engines time their phases; it stays
            # for the worker's lifetime and drain() resets it per chunk.
            from repro.telemetry.profile import PhaseAccumulator

            recorder.profile = PhaseAccumulator()
        if injector is not None:
            injector.in_worker(index, attempt)
        payload = task(n, seed)
        meta: Dict[str, Any] = {"worker_id": os.getpid()}
        accumulator = getattr(_get_recorder(), "profile", None) if profile else None
        if accumulator is not None:
            drained = accumulator.drain()
            if drained is not None:
                meta["phases"], meta["engines"] = drained
            # Non-empty only where the engines had no live recorder to
            # count into, i.e. in a pool worker.
            counts = accumulator.take_counts()
            if counts:
                meta["counts"] = counts
        result: Any = payload
        if slab is not None:
            ref = _shm.encode_payload(payload, slab)
            if ref is not None:
                result = ref
                meta["transport"] = "shm"
            else:
                meta["transport"] = "pickle-fallback"
        return index, result, meta
    finally:
        if heartbeat is not None:
            set_recorder(previous)


def _pool_initializer(descriptors) -> None:
    """Set up a fresh pool worker: null recorder, the run's CDF tables.

    A forked worker inherits a copy of the parent's live recorder, whose
    metrics and event buffer never reach the parent; the engines would
    pay for telemetry nobody reads and park no counts for the chunk
    meta.  Workers therefore start from a null recorder, and everything
    they report travels back in :func:`_execute_chunk`'s meta.

    Passed as the :class:`ProcessPoolExecutor` initializer with the
    registry's picklable descriptors, so *every* pool this Runner builds
    -- including rebuilds after a broken pool or a hung-chunk kill --
    re-attaches the same shared segments instead of re-deriving tables.
    A vanished segment is skipped (the worker derives locally).
    """
    from repro.telemetry.recorder import set_recorder

    set_recorder(None)
    if descriptors:
        _shm.attach_tables(descriptors)


@dataclass(frozen=True)
class Job:
    """One task execution request for :meth:`Runner.run_many`.

    A job is the unit the grid scheduler works with: a picklable task, a
    sample size, a root seed, and a label naming its checkpoint
    subdirectory and telemetry stream.  ``Runner.run(task, n, seed)`` is
    exactly ``run_many([Job(task, n, seed)])[0]``.
    """

    task: Any
    n_total: int
    seed: int
    label: str = "sample"


@dataclass
class _JobState:
    """Mutable per-job bookkeeping shared by the scheduling loops."""

    task: Any
    plan: ChunkPlan
    label: str
    store: Optional[CheckpointStore]
    completed: Dict[int, Any]
    quarantined: List[str]
    notes: List[str]
    resumed: int
    monitor: Any
    sizes: List[int]
    seeds: List[Any]
    started: float
    retries: int = 0
    #: Per-job stop reason ("converged"/"quarantined"); global stops are
    #: passed separately.
    reason: Optional[str] = None
    attempts: Dict[int, int] = field(default_factory=dict)
    #: Total chunk failures (any chunk, any reason) -- feeds the per-point
    #: circuit breaker.
    failures: int = 0
    quarantine_after: Optional[int] = None

    @property
    def stopped(self) -> bool:
        return self.reason is not None


@dataclass
class RunOutcome:
    """What one :meth:`Runner.run` call produced, and how it got there."""

    payload: Any
    plan: ChunkPlan
    completed_chunks: int
    total_chunks: int
    resumed_chunks: int = 0
    degraded: bool = False
    interrupted: bool = False
    converged: bool = False
    quarantined: List[str] = field(default_factory=list)
    retries: int = 0
    notes: List[str] = field(default_factory=list)
    #: The per-point circuit breaker tripped: this job was abandoned as
    #: poison and its payload merges only the chunks that did complete.
    quarantined_point: bool = False
    #: Resource watermarks degraded checkpointing to manifest-only writes.
    storage_degraded: bool = False

    @property
    def complete(self) -> bool:
        return self.completed_chunks == self.total_chunks


class ChunkFailedError(RuntimeError):
    """A chunk kept failing after exhausting its retry budget."""


class Runner:
    """Chunked, checkpointed, deadline-aware Monte-Carlo execution.

    Parameters
    ----------
    checkpoint_dir:
        Root directory for durable chunk checkpoints (one subdirectory per
        ``run()`` label).  ``None`` disables persistence (chunked execution,
        deadline, and retry still work).
    n_chunks:
        Default chunk count; clamped to ``[1, n_total]`` per call.
    workers:
        0 runs chunks serially in-process; ``>= 1`` runs them in a process
        pool of that size (isolation: a dying or hanging worker cannot take
        the parent down).
    max_seconds:
        Walltime budget shared across all ``run()`` calls of this Runner
        (the clock starts at the first call).  Expiry degrades, never raises.
    chunk_timeout:
        Per-chunk *liveness* walltime (pool mode only): workers heartbeat
        from inside the engine round loop, and a chunk silent for longer
        than this is declared hung by the watchdog, its pool killed, and
        the chunk retried (a slow-but-heartbeating straggler is left
        alone).
    max_retries:
        Retry budget per chunk for worker death / timeout / task errors
        (shorthand for ``retry_policy.max_attempts = max_retries + 1``).
    backoff_base:
        First retry sleeps this many seconds, doubling per attempt.
    retry_policy:
        Full declarative control over retry behaviour
        (:class:`~repro.runner.supervision.RetryPolicy`): attempt budget,
        backoff shape, deterministic jitter, error classification, and
        the per-point circuit breaker (``quarantine_after``).  When given
        it supersedes ``max_retries``/``backoff_base``.
    resource_guards:
        Optional :class:`~repro.runner.supervision.ResourceGuards`
        disk/memory watermarks; tripping one degrades checkpointing to
        manifest-only writes (``incident`` events, never a crash).
    resume:
        Allow continuing an existing checkpoint directory.  Without it, a
        populated directory raises (no silent mixing of runs).
    fault_injector:
        Optional :class:`~repro.runner.faults.FaultInjector` for tests.
    convergence:
        Optional :class:`~repro.telemetry.convergence.ConvergenceConfig`
        enabling sequential stopping: once the running Wilson interval of
        a Bernoulli payload (``.n_hits``/``.n``) is tighter than
        ``rel_ci_width``, the run finishes early with ``converged=True``
        (CLI: ``--stop-when-ci``/``--min-chunks``).  Even without it, a
        live telemetry recorder gets per-chunk ``estimate`` events and
        stall/drift ``incident`` events from a default monitor.
    recorder:
        Telemetry recorder for run/chunk/retry/deadline events and
        metrics.  ``None`` (default) uses the process-global
        :func:`repro.telemetry.get_recorder` seam, a no-op unless the
        CLI (``--log-json``/``--metrics-out``/``--progress``) or a test
        enabled telemetry.
    pool_transport:
        ``"shm"`` / ``"pickle"`` / ``"auto"`` -- how pooled chunk results
        cross the pool boundary and whether CDF tables are published to
        workers via shared memory (:mod:`repro.engine.shm`).  ``"auto"``
        (default) picks shm where available.  Bit-identical either way.
    """

    def __init__(
        self,
        checkpoint_dir=None,
        n_chunks: int = 8,
        workers: int = 0,
        max_seconds: Optional[float] = None,
        chunk_timeout: Optional[float] = None,
        max_retries: int = 3,
        backoff_base: float = 0.05,
        resume: bool = False,
        fault_injector: Optional[FaultInjector] = None,
        convergence: Optional[ConvergenceConfig] = None,
        recorder=None,
        retry_policy: Optional[RetryPolicy] = None,
        resource_guards: Optional[ResourceGuards] = None,
        heartbeat_interval: Optional[float] = None,
        pool_transport: str = "auto",
    ) -> None:
        if n_chunks < 1:
            raise ValueError(f"n_chunks must be positive, got {n_chunks}")
        if workers < 0:
            raise ValueError(f"workers must be non-negative, got {workers}")
        if pool_transport not in ("shm", "pickle", "auto"):
            raise ValueError(
                f"pool_transport must be 'shm', 'pickle' or 'auto', got {pool_transport!r}"
            )
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
        self.n_chunks = int(n_chunks)
        self.workers = int(workers)
        self.max_seconds = max_seconds
        self.chunk_timeout = chunk_timeout
        self.max_retries = int(max_retries)
        self.backoff_base = float(backoff_base)
        self.retry_policy = (
            retry_policy
            if retry_policy is not None
            else RetryPolicy(
                max_attempts=self.max_retries + 1, backoff_base=self.backoff_base
            )
        )
        self.resource_guards = resource_guards
        self.heartbeat_interval = heartbeat_interval
        #: Chunk-result transport for pool mode: "shm" moves payloads as
        #: fixed-layout shared-memory slabs and publishes CDF tables to
        #: workers zero-copy, "pickle" is the legacy pipe transport, and
        #: "auto" (default) uses shm where the platform supports it.
        #: Transport never changes the merged sample -- slab round-trips
        #: are bit-exact -- only how the bytes move.
        self.pool_transport = pool_transport
        #: Segment-name prefix of the last pooled run's shm transport
        #: (tests / leak audits); None until a pooled shm run happens.
        self.shm_prefix: Optional[str] = None
        self.resume = bool(resume)
        self.fault_injector = fault_injector
        self.convergence = convergence
        self._recorder = recorder
        self._deadline: Optional[float] = None
        self._labels_used: Dict[str, int] = {}
        #: Aggregate flags over every run() of this Runner (CLI exit codes).
        self.degraded = False
        self.interrupted = False
        self.converged = False
        self.quarantined_points = 0
        self.storage_degraded = False

    # ----------------------------------------------------------- small utils

    def _start_clock(self) -> None:
        if self.max_seconds is not None and self._deadline is None:
            self._deadline = time.monotonic() + float(self.max_seconds)

    def _out_of_time(self) -> bool:
        return self._deadline is not None and time.monotonic() >= self._deadline

    def _unique_label(self, label: str) -> str:
        safe = "".join(c if (c.isalnum() or c in "._-") else "_" for c in label) or "sample"
        count = self._labels_used.get(safe, 0)
        self._labels_used[safe] = count + 1
        return safe if count == 0 else f"{safe}-{count + 1}"

    def _store_for(self, label: str, recorder) -> Optional[CheckpointStore]:
        if self.checkpoint_dir is None:
            return None
        return CheckpointStore(self.checkpoint_dir / label, recorder=recorder)

    def _write_checkpoint(self, store, task, index: int, payload, n: int, rec, label) -> None:
        injector = self.fault_injector
        if injector is not None:
            injector.before_write(index)
        path = store.write_chunk(index, task.kind, payload, n) if store else None
        if path is not None and rec.enabled:
            rec.event("checkpoint", label=label, chunk=index, path=str(path))
            rec.metrics.counter("runner.checkpoints_written").add()
        if injector is not None:
            injector.after_write(index, path)

    def _screen_payload(self, state: "_JobState", index: int, attempt: int, payload):
        """Validate a chunk's return value before it is trusted.

        Runs the injector's ``on_return`` hook first (the chaos harness's
        corrupted-return fault lives there), then checks the payload's
        sample size against the chunk plan.  A bad payload raises
        :class:`~repro.runner.supervision.CorruptPayloadError`, which the
        callers route through the normal (transient) retry path.
        """
        injector = self.fault_injector
        hook = getattr(injector, "on_return", None) if injector is not None else None
        if hook is not None:
            payload = hook(index, attempt, payload)
        return validate_payload(payload, state.sizes[index], index)

    def _handle_failure(
        self, state: "_JobState", index: int, reason: str, rec, error=None
    ) -> str:
        """Classify one chunk failure; returns ``"retry"``/``"quarantined"``.

        Bumps the chunk's attempt count and the job's failure total, then
        applies the :class:`RetryPolicy`: a transient failure inside the
        attempt budget retries (the *caller* requeues and sleeps the
        policy backoff); an exhausted or fatal one either trips the
        per-point circuit breaker (job quarantined, siblings continue) or
        -- with no breaker configured -- raises :class:`ChunkFailedError`.
        """
        policy = self.retry_policy
        state.attempts[index] = state.attempts.get(index, 0) + 1
        state.failures += 1
        attempts = state.attempts[index]
        fatal = error is not None and policy.classify(error) == FATAL
        exhausted = fatal or attempts >= policy.max_attempts
        breaker = state.quarantine_after
        if exhausted or (breaker is not None and state.failures >= breaker):
            if breaker is not None:
                self._quarantine_point(state, index, reason, rec)
                return "quarantined"
            raise ChunkFailedError(
                f"chunk {index} failed {attempts} times (last: {reason})"
            )
        state.retries += 1
        state.notes.append(f"retrying chunk {index} (attempt {attempts}: {reason})")
        rec.event(
            "retry", label=state.label, chunk=index, attempt=attempts, reason=reason
        )
        rec.metrics.counter("runner.retries").add()
        return "retry"

    def _quarantine_point(self, state: "_JobState", index: int, reason: str, rec) -> None:
        """Trip the circuit breaker: abandon this job, keep its siblings."""
        state.reason = "quarantined"
        state.notes.append(
            f"point quarantined after {state.failures} chunk failure(s) "
            f"(last: chunk {index}: {reason})"
        )
        rec.event(
            "quarantine",
            scope="point",
            label=state.label,
            chunk=index,
            failures=state.failures,
            reason=reason,
            completed=len(state.completed),
            total=state.plan.n_chunks,
        )
        rec.metrics.counter("runner.points_quarantined").add()

    def _check_resources(
        self, monitor: Optional[ResourceMonitor], states, rec, force: bool = False
    ) -> None:
        """Probe the disk/memory watermarks; degrade checkpointing once."""
        if monitor is None or not monitor.check(rec, force=force):
            return
        self.storage_degraded = True
        detail = "; ".join(monitor.reasons)
        for state in states:
            if state.store is not None and not state.store.degraded:
                state.store.degraded = True
                state.notes.append(
                    f"checkpointing degraded to manifests only ({detail})"
                )

    def _stop_reason(self, rec, label: str, completed: int, total: int) -> Optional[str]:
        """Check the two between-chunk stop conditions, emitting the event.

        Returns ``"signal"``/``"deadline"`` (and records it) or ``None``.
        Each caller returns immediately on a non-None reason, so the
        event is emitted once per stop, not once per remaining chunk.
        """
        reason = None
        if stop_requested():
            reason = "signal"
        elif self._out_of_time():
            reason = "deadline"
        if reason is not None:
            rec.event(reason, label=label, completed=completed, total=total)
            rec.metrics.counter(f"runner.{reason}_stops").add()
        return reason

    def _converged_stop(self, rec, label: str, monitor, completed: int, total: int) -> str:
        """Record a successful sequential stop (CI target met) once."""
        rec.event(
            "converged", label=label, completed=completed, total=total,
            **monitor.stop_fields(),
        )
        rec.metrics.counter("runner.converged_stops").add()
        return "converged"

    def _build_monitor(self, rec, label: str, completed: Dict[int, Any]):
        """A convergence monitor when stopping or telemetry wants one.

        Resumed chunks are folded in silently so a resumed run continues
        from the correct running totals (and may even stop immediately if
        the checkpointed data already meets the CI target).
        """
        if self.convergence is None and not rec.enabled:
            return None
        config = self.convergence if self.convergence is not None else ConvergenceConfig()
        monitor = ConvergenceMonitor(config, rec, label)
        for index in sorted(completed):
            monitor.observe_resumed(completed[index])
        return monitor

    # ----------------------------------------------------- prepare / finalize

    def _prepare(self, job: Job, rec) -> _JobState:
        """Build a job's plan/store/monitor and emit its ``run_start``."""
        started = time.monotonic()
        plan = ChunkPlan(
            n_total=int(job.n_total),
            n_chunks=clamp_chunks(job.n_total, self.n_chunks),
            seed=int(job.seed),
        )
        label = self._unique_label(job.label)
        rec.event(
            "run_start",
            label=label,
            kind=job.task.kind,
            n_total=plan.n_total,
            n_chunks=plan.n_chunks,
            seed=plan.seed,
            workers=self.workers,
        )
        store = self._store_for(label, rec)
        notes: List[str] = []
        quarantined: List[str] = []
        completed: Dict[int, Any] = {}
        if store is not None:
            manifest = {
                "schema_version": SCHEMA_VERSION,
                "kind": job.task.kind,
                "task": _tasks.fingerprint(job.task),
                **plan.describe(),
            }
            had_checkpoint = store.initialise(manifest, resume=self.resume)
            if had_checkpoint:
                state = store.load_completed(job.task.kind)
                completed = {
                    index: payload
                    for index, payload in state.completed.items()
                    if 0 <= index < plan.n_chunks
                }
                quarantined = [str(p) for p in state.quarantined]
                if completed:
                    notes.append(
                        f"resumed {len(completed)}/{plan.n_chunks} chunks from {store.directory}"
                    )
                if quarantined:
                    notes.append(
                        f"quarantined {len(quarantined)} damaged checkpoint file(s)"
                    )
        resumed = len(completed)
        if resumed or quarantined:
            rec.event(
                "resume",
                label=label,
                resumed=resumed,
                quarantined=len(quarantined),
                total=plan.n_chunks,
            )
            rec.metrics.counter("runner.chunks_resumed").add(resumed)
        monitor = self._build_monitor(rec, label, completed)
        return _JobState(
            task=job.task,
            plan=plan,
            label=label,
            store=store,
            completed=completed,
            quarantined=quarantined,
            notes=notes,
            resumed=resumed,
            monitor=monitor,
            sizes=list(plan.sizes()),
            seeds=list(plan.child_seeds()),
            started=started,
        )

    def _finalize(self, state: _JobState, rec, global_reason: Optional[str]) -> RunOutcome:
        """Merge a job's chunks, classify the outcome, emit ``run_end``."""
        plan, completed, notes = state.plan, state.completed, state.notes
        reason = state.reason or global_reason
        # `converged` means "stopped early on the CI target", judged on the
        # chunks actually merged -- not on when the loop last polled the
        # monitor, which differs between serial and pooled execution.
        converged = (
            reason == "converged"
            and len(completed) < plan.n_chunks
            and state.monitor.target_met()
        )
        quarantined_point = reason == "quarantined"
        resolved = reason == "converged" or quarantined_point
        interrupted = reason is not None and not resolved and stop_requested()
        degraded = (
            len(completed) < plan.n_chunks and not interrupted and not resolved
        )
        storage_degraded = bool(state.store is not None and state.store.degraded)
        if converged and len(completed) < plan.n_chunks:
            notes.append(
                f"converged after {len(completed)}/{plan.n_chunks} chunks: "
                f"CI half-width target met (--stop-when-ci)"
            )
        if interrupted:
            notes.append(
                f"interrupted by signal after {len(completed)}/{plan.n_chunks} chunks; "
                "completed chunks are checkpointed"
            )
        elif degraded:
            notes.append(
                f"walltime budget exhausted after {len(completed)}/{plan.n_chunks} chunks; "
                "returning censored partial sample (degraded=True)"
            )
        self.degraded = self.degraded or degraded
        self.interrupted = self.interrupted or interrupted
        self.converged = self.converged or converged
        self.quarantined_points += int(quarantined_point)
        self.storage_degraded = self.storage_degraded or storage_degraded
        run_seconds = time.monotonic() - state.started
        rec.event(
            "run_end",
            label=state.label,
            completed=len(completed),
            total=plan.n_chunks,
            resumed=state.resumed,
            retries=state.retries,
            quarantined=len(state.quarantined),
            degraded=degraded,
            interrupted=interrupted,
            converged=converged,
            point_quarantined=quarantined_point,
            storage_degraded=storage_degraded,
            seconds=round(run_seconds, 6),
        )
        if rec.enabled:
            walks_done = sum(state.sizes[i] for i in completed)
            rec.metrics.counter("runner.runs").add()
            rec.metrics.counter("runner.walks_completed").add(walks_done)
            if run_seconds > 0:
                rec.metrics.gauge("runner.samples_per_sec").set(
                    round(walks_done / run_seconds, 3)
                )
        return RunOutcome(
            payload=state.task.merge(plan, completed),
            plan=plan,
            completed_chunks=len(completed),
            total_chunks=plan.n_chunks,
            resumed_chunks=state.resumed,
            degraded=degraded,
            interrupted=interrupted,
            converged=converged,
            quarantined=state.quarantined,
            retries=state.retries,
            notes=notes,
            quarantined_point=quarantined_point,
            storage_degraded=storage_degraded,
        )

    # ------------------------------------------------------------------- run

    def run(self, task, n_total: int, seed: int, label: str = "sample") -> RunOutcome:
        """Execute ``task`` over ``n_total`` walks and merge the chunks.

        Deterministic for fixed ``(seed, n_total, n_chunks)`` regardless of
        interruption, resume, or worker count.  Returns a
        :class:`RunOutcome`; a deadline or signal yields a *partial* merged
        payload with ``degraded``/``interrupted`` set instead of raising.
        """
        job = Job(task=task, n_total=int(n_total), seed=int(seed), label=label)
        return self.run_many([job])[0]

    def run_many(
        self, jobs: Sequence[Job], quarantine_after: Optional[int] = None
    ) -> List[RunOutcome]:
        """Execute several jobs over one shared pool, deadline, and stream.

        This is the grid scheduler behind :mod:`repro.sweep`: all jobs'
        chunks feed one queue, interleaved round-robin (chunk 0 of every
        job, then chunk 1, ...), so every grid point makes early progress
        and a per-job convergence monitor that resolves a point frees its
        remaining chunks' worker slots for unresolved points.  Outcomes
        are returned in job order.

        Per-job results are bit-identical to running each job alone (same
        ``(seed, n_total, n_chunks)``), serial or pooled: every chunk's
        seed is a pure function of its own job's plan, never of the
        scheduling order.

        ``quarantine_after`` arms the per-point circuit breaker for this
        call (overriding ``retry_policy.quarantine_after``): a job that
        accumulates that many chunk failures is abandoned as poison --
        ``RunOutcome.quarantined_point`` -- while its siblings complete.
        """
        jobs = list(jobs)
        if not jobs:
            return []
        self._start_clock()
        rec = self._recorder if self._recorder is not None else get_recorder()
        breaker = (
            quarantine_after
            if quarantine_after is not None
            else self.retry_policy.quarantine_after
        )
        if breaker is not None and breaker < 1:
            breaker = None
        states = [self._prepare(job, rec) for job in jobs]
        for state in states:
            state.quarantine_after = breaker
        resources = None
        if self.resource_guards is not None and self.resource_guards.enabled:
            resources = ResourceMonitor(
                self.resource_guards, self.checkpoint_dir or Path(".")
            )
            # Preflight: a disk already below the watermark degrades the
            # run's checkpointing before the first chunk is attempted.
            self._check_resources(resources, states, rec, force=True)
        global_reason: Optional[str] = None
        if any(len(s.completed) < s.plan.n_chunks for s in states):
            if self.workers >= 1:
                global_reason = self._run_pooled(states, rec, resources)
            else:
                global_reason = self._run_serial(states, rec, resources)
        return [self._finalize(state, rec, global_reason) for state in states]

    # ------------------------------------------------------------ scheduling

    @staticmethod
    def _interleaved(states: Sequence[_JobState]) -> List[Tuple[_JobState, int]]:
        """Round-robin (job, chunk) schedule over all pending chunks."""
        queue: List[Tuple[_JobState, int]] = []
        max_chunks = max((s.plan.n_chunks for s in states), default=0)
        for chunk in range(max_chunks):
            for state in states:
                if chunk < state.plan.n_chunks and chunk not in state.completed:
                    queue.append((state, chunk))
        return queue

    @staticmethod
    def _profiling(rec) -> bool:
        """True when the parent recorder wants engine phase profiles."""
        return rec.enabled and getattr(rec, "profile", None) is not None

    def _run_serial(
        self, states: Sequence[_JobState], rec, resources: Optional[ResourceMonitor] = None
    ) -> Optional[str]:
        """Run all pending chunks in-process; returns a global stop reason."""
        profile = self._profiling(rec)
        for state, index in self._interleaved(states):
            if state.stopped:
                continue
            reason = self._stop_reason(
                rec, state.label, len(state.completed), state.plan.n_chunks
            )
            if reason is not None:
                return reason
            if state.monitor is not None and state.monitor.should_stop():
                state.reason = self._converged_stop(
                    rec, state.label, state.monitor,
                    len(state.completed), state.plan.n_chunks,
                )
                continue
            self._check_resources(resources, states, rec)
            while True:
                attempt = state.attempts.get(index, 0) + 1
                # worker_id on chunk_start is serial-only: a pooled
                # chunk's worker is unknown until its result comes back.
                rec.event(
                    "chunk_start", label=state.label, chunk=index,
                    n=state.sizes[index], attempt=attempt, worker_id=os.getpid(),
                )
                chunk_started = time.monotonic()
                try:
                    _, payload, meta = _execute_chunk(
                        state.task, index, state.sizes[index], state.seeds[index],
                        self.fault_injector, attempt, None, profile,
                    )
                    payload = self._screen_payload(state, index, attempt, payload)
                except Exception as exc:
                    verdict = self._handle_failure(
                        state, index, f"{type(exc).__name__}: {exc}", rec, exc
                    )
                    if verdict == "quarantined":
                        break
                    time.sleep(
                        self.retry_policy.backoff(
                            state.attempts[index],
                            chunk_retry_key(state.label, index),
                        )
                    )
                    continue
                # Outside the retry guard on purpose: a checkpoint-hook
                # fault (FaultInjected) simulates parent death and must
                # propagate, not be retried.
                self._write_checkpoint(
                    state.store, state.task, index, payload, state.sizes[index],
                    rec, state.label,
                )
                state.completed[index] = payload
                chunk_seconds = time.monotonic() - chunk_started
                self._record_chunk_end(
                    rec, state.label, index, state.sizes[index], chunk_seconds,
                    attempt, meta=meta,
                )
                if state.monitor is not None:
                    state.monitor.observe_chunk(index, payload, chunk_seconds)
                break
        return "signal" if stop_requested() else None

    def _record_chunk_end(
        self,
        rec,
        label: str,
        index: int,
        n: int,
        seconds: float,
        attempt: int,
        meta: Optional[Dict[str, Any]] = None,
        ipc: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Emit the chunk's phase_profile (if any) and chunk_end events.

        ``meta`` is :func:`_execute_chunk`'s third return value
        (``worker_id``, drained phase timings and pool-worker engine
        counters); ``ipc`` is the
        parent-side serialization accounting for pooled results.  The
        phase_profile goes first so the chunk_end flush makes both
        durable together.
        """
        meta = meta or {}
        worker_id = meta.get("worker_id")
        worker_fields = {} if worker_id is None else {"worker_id": worker_id}
        phases = meta.get("phases")
        if phases:
            rec.event(
                "phase_profile",
                label=label,
                chunk=index,
                attempt=attempt,
                phases=phases,
                engines=meta.get("engines") or {},
                **worker_fields,
            )
        rec.event(
            "chunk_end",
            label=label,
            chunk=index,
            n=n,
            seconds=round(seconds, 6),
            attempt=attempt,
            **worker_fields,
            **(ipc or {}),
        )
        if rec.enabled:
            rec.metrics.counter("runner.chunks_completed").add()
            rec.metrics.histogram("runner.chunk_seconds").observe(seconds)
            for phase, phase_seconds in (phases or {}).items():
                rec.metrics.counter(f"engine.phase_seconds.{phase}").add(
                    phase_seconds
                )
            for name, value in (meta.get("counts") or {}).items():
                rec.metrics.counter(name).add(value)
            if ipc:
                rec.metrics.counter("runner.ipc_bytes").add(ipc.get("ipc_bytes", 0))
                rec.metrics.counter("runner.pickle_seconds").add(
                    ipc.get("pickle_seconds", 0.0)
                )
                rec.metrics.counter("runner.unpickle_seconds").add(
                    ipc.get("unpickle_seconds", 0.0)
                )
                if ipc.get("shm_bytes"):
                    rec.metrics.counter("runner.shm_bytes").add(ipc["shm_bytes"])
                if ipc.get("shm_seconds"):
                    rec.metrics.counter("runner.shm_seconds").add(ipc["shm_seconds"])
                if ipc.get("transport") == "pickle-fallback":
                    rec.metrics.counter("runner.shm_fallbacks").add()

    # -------------------------------------------------------------- pool mode

    def _kill_pool(self, executor: ProcessPoolExecutor) -> None:
        # ProcessPoolExecutor has no public "abandon a running worker": a
        # hung or poisoned worker must be killed or shutdown() blocks on it.
        for process in list(getattr(executor, "_processes", {}).values()):
            process.kill()
        executor.shutdown(wait=False, cancel_futures=True)

    def _run_pooled(
        self, states: Sequence[_JobState], rec, resources: Optional[ResourceMonitor] = None
    ) -> Optional[str]:
        """Run all pending chunks over one shared process pool.

        Returns a global stop reason ("deadline"/"signal") or None; per-job
        convergence stops are recorded on each job's ``_JobState.reason``
        and simply release that job's queued chunks back to the pool.

        With ``chunk_timeout`` set, a :class:`Supervisor` watchdog watches
        per-chunk heartbeat files that workers touch from inside the
        engine round loops; a chunk silent past the timeout gets its pool
        killed and is rescheduled from its original seed (bit-identical),
        while a slow-but-heartbeating straggler is left alone.
        """
        queue = self._interleaved(states)
        profile = self._profiling(rec)
        use_shm = self.pool_transport != "pickle" and _shm.shm_available()
        if self.pool_transport == "shm" and not use_shm:
            # Explicit shm on a host without working named shared memory:
            # degrade to pickle loudly, never fail the run over transport.
            rec.event(
                "incident", kind="shm_unavailable", action="pickle-transport"
            )
            for state in states:
                state.notes.append(
                    "shm transport unavailable on this host; using pickle"
                )
        registry: Optional[_shm.SharedTableRegistry] = None
        table_descriptors: Tuple[_shm.TableSegment, ...] = ()
        if use_shm:
            # Publish every job's CDF tables once; workers of every pool
            # this run builds (rebuilds included) attach the same
            # segments via the pool initializer.
            registry = _shm.SharedTableRegistry()
            self.shm_prefix = registry.prefix
            registry.publish_for_tasks([s.task for s in states])
            table_descriptors = registry.descriptors()
            if rec.enabled and table_descriptors:
                rec.event(
                    "shm_tables",
                    tables=len(table_descriptors),
                    bytes=registry.nbytes,
                )
                rec.metrics.counter("runner.shm_table_bytes").add(registry.nbytes)
        executor: Optional[ProcessPoolExecutor] = None
        # future -> (job state, chunk index, submit time, slab name)
        inflight: Dict[Any, Tuple[_JobState, int, float, Optional[str]]] = {}
        poll = 0.05 if self.chunk_timeout is None else min(0.05, self.chunk_timeout / 4)
        supervisor: Optional[Supervisor] = None
        hb_interval = 0.0
        if self.chunk_timeout is not None:
            supervisor = Supervisor(
                tempfile.mkdtemp(prefix="repro-hb-"), float(self.chunk_timeout)
            ).start()
            hb_interval = (
                float(self.heartbeat_interval)
                if self.heartbeat_interval is not None
                else max(0.02, min(0.5, float(self.chunk_timeout) / 5.0))
            )

        def requeue(entries) -> None:
            """Handle failed (job, chunk, reason, error) tuples.

            Retryable chunks go back to the queue head and the policy
            backoff is slept once (the longest of the batch); exhausted
            ones quarantine their point or raise per the policy.
            """
            delay = 0.0
            for state, index, reason, error in entries:
                if state.stopped:
                    continue
                verdict = self._handle_failure(state, index, reason, rec, error)
                if verdict == "quarantined":
                    continue
                queue.insert(0, (state, index))
                delay = max(
                    delay,
                    self.retry_policy.backoff(
                        state.attempts[index], chunk_retry_key(state.label, index)
                    ),
                )
            # A quarantined point's remaining chunks are dropped so its
            # slots go to healthy jobs.
            queue[:] = [(s, i) for s, i in queue if not s.stopped]
            if delay > 0:
                time.sleep(delay)

        def rebuild_pool(label: str, reason: str) -> None:
            rec.event("pool_rebuild", label=label, reason=reason)
            rec.metrics.counter("runner.pool_rebuilds").add()

        try:
            while queue or inflight:
                probe = next((s for s in states if not s.stopped), states[0])
                reason = self._stop_reason(
                    rec, probe.label, len(probe.completed), probe.plan.n_chunks
                )
                if reason is not None:
                    return reason
                newly_stopped = False
                for state in states:
                    if state.stopped or state.monitor is None:
                        continue
                    if state.monitor.should_stop():
                        # The job's in-flight chunks are left to finish (or
                        # die with the pool); its queued chunks are dropped
                        # so the freed slots go to unresolved jobs.
                        state.reason = self._converged_stop(
                            rec, state.label, state.monitor,
                            len(state.completed), state.plan.n_chunks,
                        )
                        newly_stopped = True
                if newly_stopped:
                    queue = [(s, i) for s, i in queue if not s.stopped]
                if all(s.stopped for s in states):
                    # Every job resolved: abandon in-flight chunks (the
                    # finally block kills the pool); completed chunks are
                    # checkpointed.
                    return None
                self._check_resources(resources, states, rec)
                if executor is None:
                    executor = ProcessPoolExecutor(
                        max_workers=self.workers,
                        initializer=_pool_initializer,
                        initargs=(table_descriptors,),
                    )
                while queue and len(inflight) < self.workers:
                    state, index = queue.pop(0)
                    attempt = state.attempts.get(index, 0) + 1
                    # The parent names the chunk's result slab up front so
                    # it can always unlink it, even if the worker dies
                    # mid-write; a fresh attempt gets a fresh name.
                    slab = (
                        _shm.slab_name(registry.prefix, state.label, index, attempt)
                        if registry is not None
                        else None
                    )
                    heartbeat = None
                    if supervisor is not None:
                        heartbeat = (
                            supervisor.register(state.label, index, slab=slab),
                            hb_interval,
                        )
                    try:
                        future = executor.submit(
                            _execute_chunk,
                            state.task,
                            index,
                            state.sizes[index],
                            state.seeds[index],
                            self.fault_injector,
                            attempt,
                            heartbeat,
                            profile,
                            slab,
                        )
                    except BrokenProcessPool:
                        # A worker died since the last poll: this chunk
                        # never started.  Put it back; the dead worker's
                        # in-flight future fails and triggers the rebuild.
                        if supervisor is not None:
                            supervisor.unregister(state.label, index)
                        queue.insert(0, (state, index))
                        if not inflight:  # it died idle: nothing will fail
                            self._kill_pool(executor)
                            executor = None
                            rebuild_pool(state.label, "worker process died")
                        break
                    inflight[future] = (state, index, time.monotonic(), slab)
                    rec.event(
                        "chunk_start",
                        label=state.label,
                        chunk=index,
                        n=state.sizes[index],
                        attempt=attempt,
                    )
                done, _ = wait(list(inflight), timeout=poll, return_when=FIRST_COMPLETED)
                broken: List[Tuple[_JobState, int]] = []
                for future in done:
                    state, index, _submitted, slab = inflight.pop(future)
                    if supervisor is not None:
                        supervisor.unregister(state.label, index)
                    attempt = state.attempts.get(index, 0) + 1
                    slab_ref: Optional[_shm.SlabRef] = None
                    decode_seconds = 0.0
                    try:
                        _, result, meta = future.result()
                        if isinstance(result, _shm.SlabRef):
                            # shm transport: the worker shipped a handle;
                            # copy the payload out and unlink the slab.
                            slab_ref = result
                            decode_started = time.perf_counter()
                            payload = _shm.decode_slab(slab_ref)
                            decode_seconds = time.perf_counter() - decode_started
                        else:
                            payload = result
                        payload = self._screen_payload(state, index, attempt, payload)
                    except BrokenProcessPool:
                        if slab is not None:
                            _shm.unlink_if_exists(slab)
                        broken.append((state, index))
                        continue
                    except Exception as exc:  # task error inside the worker
                        if slab is not None:
                            _shm.unlink_if_exists(slab)
                        requeue([(state, index, f"{type(exc).__name__}: {exc}", exc)])
                        continue
                    self._write_checkpoint(
                        state.store, state.task, index, payload,
                        state.sizes[index], rec, state.label,
                    )
                    state.completed[index] = payload
                    chunk_seconds = time.monotonic() - _submitted
                    ipc = None
                    if rec.enabled:
                        if slab_ref is not None:
                            # shm transport: the only bytes that crossed
                            # the pipe are the pickled SlabRef handle; the
                            # payload moved through the slab (zero-copy on
                            # the worker side, one copy-out here).
                            ipc = {
                                "ipc_bytes": len(
                                    pickle.dumps(
                                        slab_ref, protocol=pickle.HIGHEST_PROTOCOL
                                    )
                                ),
                                "shm_bytes": slab_ref.nbytes,
                                "shm_seconds": round(decode_seconds, 6),
                                "pickle_seconds": 0.0,
                                "unpickle_seconds": 0.0,
                                "transport": "shm",
                            }
                        else:
                            # Pool IPC accounting: the executor already
                            # paid one pickle/unpickle moving this payload
                            # across the process boundary; re-serializing
                            # it here measures that cost directly
                            # (enabled-path only, once per chunk).
                            pickle_started = time.perf_counter()
                            blob = pickle.dumps(
                                payload, protocol=pickle.HIGHEST_PROTOCOL
                            )
                            pickled_at = time.perf_counter()
                            pickle.loads(blob)
                            ipc = {
                                "ipc_bytes": len(blob),
                                "pickle_seconds": round(
                                    pickled_at - pickle_started, 6
                                ),
                                "unpickle_seconds": round(
                                    time.perf_counter() - pickled_at, 6
                                ),
                                "transport": meta.get("transport", "pickle"),
                            }
                    self._record_chunk_end(
                        rec, state.label, index, state.sizes[index], chunk_seconds,
                        attempt, meta=meta, ipc=ipc,
                    )
                    if state.monitor is not None:
                        state.monitor.observe_chunk(index, payload, chunk_seconds)
                if broken:
                    # The pool is poisoned: every other in-flight chunk is
                    # lost with it.  Rebuild and retry them all.
                    broken.extend(
                        (state, index) for state, index, _, _ in inflight.values()
                    )
                    for state, index, _, slab in inflight.values():
                        if supervisor is not None:
                            supervisor.unregister(state.label, index)
                        if slab is not None:
                            # The worker may have died before, during, or
                            # after writing its slab; unlink whatever made
                            # it to /dev/shm.
                            _shm.unlink_if_exists(slab)
                    inflight.clear()
                    self._kill_pool(executor)
                    executor = None
                    rebuild_pool(probe.label, "worker process died")
                    lost, seen = [], set()
                    for state, index in broken:
                        if (id(state), index) not in seen:
                            seen.add((id(state), index))
                            lost.append((state, index, "worker process died", None))
                    requeue(lost)
                    continue
                hung = supervisor.take_hung() if supervisor is not None else {}
                if hung:
                    # The watchdog flagged silent chunks.  A hung worker
                    # takes the whole pool with it: retry every in-flight
                    # chunk against a fresh pool (completed-but-unprocessed
                    # futures were drained above, so nothing is lost twice).
                    for (label, chunk), silent in sorted(hung.items()):
                        # The worker wrote its pid into the heartbeat file
                        # on first touch, so even a hung chunk can be
                        # attributed to a specific worker process.
                        pid = supervisor.worker_pid(label, chunk)
                        rec.event(
                            "heartbeat",
                            label=label,
                            chunk=chunk,
                            status="hung",
                            silent=round(silent, 3),
                            timeout=self.chunk_timeout,
                            **({} if pid is None else {"worker_id": pid}),
                        )
                        rec.metrics.counter("runner.hung_chunks").add()
                    lost = []
                    for state, index, _, slab in inflight.values():
                        supervisor.unregister(state.label, index)
                        if slab is not None:
                            _shm.unlink_if_exists(slab)
                        if (state.label, index) in hung:
                            reason = (
                                f"no heartbeat for {hung[(state.label, index)]:.1f}s "
                                f"(timeout {self.chunk_timeout}s)"
                            )
                        else:
                            reason = "pool killed to recover a hung chunk"
                        lost.append((state, index, reason, None))
                    inflight.clear()
                    self._kill_pool(executor)
                    executor = None
                    rebuild_pool(
                        probe.label,
                        f"hung-chunk watchdog ({self.chunk_timeout}s timeout)",
                    )
                    requeue(lost)
            return "signal" if stop_requested() else None
        finally:
            if supervisor is not None:
                supervisor.stop()
            if executor is not None:
                if inflight:
                    self._kill_pool(executor)
                else:
                    executor.shutdown(wait=False, cancel_futures=True)
            for _state, _index, _submitted, slab in inflight.values():
                if slab is not None:
                    _shm.unlink_if_exists(slab)
            if registry is not None:
                registry.close()
                # Backstop sweep: anything under this run's prefix that
                # survived the targeted unlinks above (e.g. a slab written
                # by a worker we SIGKILLed mid-encode) is a leak; reap it
                # and make the leak visible.
                leaked = _shm.cleanup_segments(registry.prefix)
                if leaked:
                    rec.event(
                        "incident",
                        kind="shm_leak",
                        segments=len(leaked),
                        action="reaped",
                    )
                    rec.metrics.counter("runner.shm_segments_reaped").add(
                        len(leaked)
                    )
