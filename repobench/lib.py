"""Pure logic of the repository benchmark: inputs, metric rules, accounting.

Nothing here imports ``repro`` or touches the clock, so the tests in
``test_lib.py`` can check every rule without running a workload.
"""

from __future__ import annotations

import json
import math
import os
import statistics
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

WORKLOADS = ("engine-widths", "sweep-ci", "serve-mix")

#: Metrics gated by the driver (``BENCHMARK.json`` ``end_to_end``).  The
#: benchmark contract asks every workload to report every one of them, so
#: each is defined on every workload's own unit of work:
#:
#: ``wall_s``        median wall time of one pass of the fixed work
#:                   (engine-widths: the call list; sweep-ci: one
#:                   ``run_sweep`` to its CI target; serve-mix: the request
#:                   stream);
#: ``latency_p50_ms`` median per-operation latency: an engine call at chunk
#:                   width (``ENGINE_LATENCY_CLASS``), the time until a grid
#:                   point's CI is met, or a refined query's final.
#:
#: The tail percentile is printed in the report but not gated: on a 2-vCPU
#: host its run-to-run spread reached 0.21-0.24 of its median, the most
#: that any bound allows.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "wall_s": ("s", "lower"),
    "latency_p50_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: The user-facing metrics each workload exercises; the human-readable
#: report prints exactly these per workload, never another's.
REPORT_METRICS: Dict[str, Tuple[str, ...]] = {
    "engine-widths": ("walks_per_s", "setup_s", "peak_rss_mb"),
    "sweep-ci": ("time_to_ci_s", "setup_s", "peak_rss_mb"),
    "serve-mix": (
        "queries_per_s",
        "query_p50_ms",
        "query_tail_ms",
        "first_answer_p50_ms",
        "setup_s",
        "peak_rss_mb",
    ),
}

REPORT_UNITS = {
    "walks_per_s": "walks/s",
    "time_to_ci_s": "s",
    "queries_per_s": "queries/s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "first_answer_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

ENGINE_CLASSES = (
    "walk_n1",
    "walk_n250",
    "walk_n2000",
    "walk_n20000",
    "flight",
    "ball",
    "multi_target",
)
PHASES = ("rng", "cdf_lookup", "state_update", "target_check", "compaction")

#: Per-layer metrics of the traced run: name -> (unit, better, layers'
#: workloads).  A workload that does not cross a layer reports 0 for it.
PER_LAYER: Dict[str, Tuple[str, str, Tuple[str, ...]]] = {
    "distributions.table_build_ms": ("ms", "lower", WORKLOADS),
    **{
        f"engine.call_ms.{name}": ("ms", "lower", ("engine-widths",))
        for name in ENGINE_CLASSES
    },
    **{
        f"engine.phase_seconds.{phase}": ("s", "lower", ("engine-widths", "sweep-ci"))
        for phase in PHASES
    },
    "engine.steps_simulated": ("count", "lower", ("engine-widths",)),
    "engine.jumps_sampled": ("count", "lower", ("engine-widths",)),
    "runner.walks_per_s": ("walks/s", "higher", ("sweep-ci",)),
    "runner.chunks_completed": ("count", "lower", ("sweep-ci",)),
    "runner.chunk_busy_s": ("s", "lower", ("sweep-ci",)),
    "runner.pool_idle_share": ("share", "lower", ("sweep-ci",)),
    "runner.ipc_bytes": ("B", "lower", ("sweep-ci",)),
    "runner.pickle_seconds": ("s", "lower", ("sweep-ci",)),
    "runner.unpickle_seconds": ("s", "lower", ("sweep-ci",)),
    "runner.shm_seconds": ("s", "lower", ("sweep-ci",)),
    "runner.checkpoints_written": ("count", "lower", ("sweep-ci",)),
    "runner.checkpoint_bytes": ("B", "lower", ("sweep-ci",)),
    "runner.retries": ("count", "lower", ("sweep-ci",)),
    "runner.walks_completed": ("walks", "lower", ("sweep-ci",)),
    "runner.converged_points": ("count", "higher", ("sweep-ci",)),
    "sweep.reduce_s": ("s", "lower", ("sweep-ci",)),
    "telemetry.overhead_share": ("share", "lower", ("engine-widths",)),
    "telemetry.event_bytes": ("B", "lower", ("sweep-ci",)),
    "serve.first_ms.cache": ("ms", "lower", ("serve-mix",)),
    "serve.first_ms.theory": ("ms", "lower", ("serve-mix",)),
    "serve.refine_walks": ("walks", "lower", ("serve-mix",)),
    "serve.server_query_ms": ("ms", "lower", ("serve-mix",)),
    "serve.coalesce_ratio": ("ratio", "lower", ("serve-mix",)),
    "serve.cache_hits": ("count", "higher", ("serve-mix",)),
    "serve.theory_answers": ("count", "higher", ("serve-mix",)),
    "serve.errors": ("count", "lower", ("serve-mix",)),
    "trace.overhead_share": ("share", "lower", WORKLOADS),
    "decomp.residual_share": ("share", "lower", WORKLOADS),
    "host.probe_ms": ("ms", "lower", WORKLOADS),
    "host.steal_share": ("share", "lower", WORKLOADS),
    "host.cpus": ("count", "higher", WORKLOADS),
}


# ------------------------------------------------------------------ inputs


def child_seed(seed: int, *path: int) -> int:
    """A 63-bit seed that is a pure function of ``(seed, *path)``."""
    words = np.random.SeedSequence([int(seed), *map(int, path)]).generate_state(
        2, dtype=np.uint64
    )
    return int(words[0] >> 1)


#: engine-widths: ell, horizon ell**2, and calls per class per alpha, sized
#: so each width class takes a comparable share of a pass's wall time
#: (about 33, 65, 165 and 850 ms per call on a 2-vCPU x86 host).
ENGINE_ELL = 24
ENGINE_TARGET = (16, 8)
ENGINE_ALPHAS = (2.2, 2.6, 3.0)
ENGINE_MIX = (
    # (class, engine, n, calls per alpha per pass)
    ("walk_n1", "walk", 1, 18),
    ("walk_n250", "walk", 250, 9),
    ("walk_n2000", "walk", 2000, 4),
    ("walk_n20000", "walk", 20000, 1),
    ("flight", "flight", 2000, 1),
    ("ball", "ball", 2000, 1),
    ("multi_target", "multi_target", 1000, 2),
)
#: The class whose calls give engine-widths its ``latency_p50_ms``: the
#: chunk width that sweep-ci and serve-mix also run.  The median over all
#: calls would fall between the n=1 and n=250 classes (half the calls are
#: n=1), where it swung by 0.17 of itself across ten runs.
ENGINE_LATENCY_CLASS = "walk_n250"
MULTI_TARGETS = ((16, 8), (-9, 11), (4, -20))
BALL_RADIUS = 2
#: Nominal seconds of one engine-widths pass; passes per run follow from
#: ``--seconds`` through this constant, never from a host measurement, so
#: the work of a run is fixed.
ENGINE_PASS_S = 7.0

#: Fresh interpreters timed per run for ``setup_s`` (the median is reported).
SETUP_REPEATS = 5


def import_setup_code(alphas: Sequence[float]) -> str:
    """Child-process code for ``setup_s``: import the API, build each table."""
    return (
        "from repro.api import ZetaJumpDistribution, walk_hitting_times\n"
        f"for a in {tuple(alphas)!r}:\n"
        "    walk_hitting_times(ZetaJumpDistribution(a), (3, 1), horizon=4, n=1, rng=0)\n"
    )


def engine_calls(seed: int) -> List[Dict]:
    """One pass of the engine-widths call list (a pure function of ``seed``).

    Every pass of a run replays this list, so passes do identical work
    and their samples must hash identically.
    """
    calls = []
    for alpha in ENGINE_ALPHAS:
        for cls, engine, n, count in ENGINE_MIX:
            for _ in range(count):
                calls.append({"cls": cls, "engine": engine, "alpha": alpha, "n": n})
    order = np.random.default_rng(child_seed(seed, 1)).permutation(len(calls))
    calls = [calls[i] for i in order]
    for i, call in enumerate(calls):
        call["seed"] = child_seed(seed, 2, i)
    return calls


#: sweep-ci: the T1.5 smoke grid, capped at SWEEP_CAP walks per point in
#: SWEEP_CHUNKS chunks and stopped at a relative 95% CI half-width of
#: SWEEP_REL_CI; at this target most points stop after 4-7 chunks and some
#: run to the cap.
SWEEP_ALPHAS = (2.2, 2.5, 2.8, 3.0)
SWEEP_ELLS = (24, 48)
SWEEP_K = 8
SWEEP_GROUPS = 200
SWEEP_CAP = 4000
SWEEP_CHUNKS = 8
SWEEP_REL_CI = 0.18
SWEEP_WORKERS = 2
#: Nominal seconds of one sweep pass (see ENGINE_PASS_S).
SWEEP_PASS_S = 5.0


#: serve-mix: the fixed grid of refined keys (every seed refines all of
#: them, so refinement work is the same at every seed; the seed picks the
#: order, which keys are sent as coalesced pairs and where repeats fall).
SERVE_REFINE_ALPHAS = (2.1, 2.2, 2.3, 2.4, 2.5, 2.6, 2.7, 2.8, 2.9, 3.0)
SERVE_REFINE_ELLS = (16,)
SERVE_MAX_CI = {1: 0.0065, 2: 0.012, 4: 0.021}
SERVE_THEORY_ALPHAS = (2.3, 2.7)
SERVE_THEORY_ELLS = (32, 64)
SERVE_THEORY_KS = (1, 2, 8, 16)
SERVE_PAIRS = 6
#: Nominal seconds of one serve-mix pass (see ENGINE_PASS_S).
SERVE_PASS_S = 30.0


def serve_keys(pass_index: int = 0) -> Tuple[List[Dict], List[Dict]]:
    """The fixed refine and theory request grids of one stream pass.

    Pass ``r > 0`` shifts every horizon by ``r`` so its keys are fresh.
    """
    refine, theory = [], []
    for alpha in SERVE_REFINE_ALPHAS:
        for ell in SERVE_REFINE_ELLS:
            for k, max_ci in SERVE_MAX_CI.items():
                refine.append(
                    {"alpha": alpha, "l": ell, "k": k, "max_ci": max_ci,
                     "horizon": ell * ell + pass_index}
                )
    for alpha in SERVE_THEORY_ALPHAS:
        for ell in SERVE_THEORY_ELLS:
            for k in SERVE_THEORY_KS:
                theory.append(
                    {"alpha": alpha, "l": ell, "k": k, "horizon": ell * ell + pass_index}
                )
    return refine, theory


def serve_stream(seed: int, pass_index: int = 0) -> List[List[Dict]]:
    """Per-connection request lists for one pass (pure in ``seed``).

    Both connections run the same sequence of request kinds in lockstep
    rounds: they meet at a barrier before every round, so at every seed
    each request shares the daemon with exactly one request of its own
    kind.  Each entry is ``{"kind", "request"}``, where ``kind`` is
    ``refine``, ``theory`` or ``repeat``; a coalesced round sends the same
    fresh key on both connections and marks both entries with ``"pair"``.
    A repeat names a key its own connection already had answered, so it
    must be a cache read.
    """
    rng = np.random.default_rng(child_seed(seed, 3, pass_index))
    refine, theory = serve_keys(pass_index)
    order = rng.permutation(len(refine))
    paired = [refine[i] for i in order[:SERVE_PAIRS]]
    solo = [refine[i] for i in order[SERVE_PAIRS:]]
    drawn = [theory[i] for i in rng.permutation(len(theory))]
    rounds = [("refine", solo[i], solo[i + 1], None) for i in range(0, len(solo), 2)]
    rounds += [("refine", key, key, pair) for pair, key in enumerate(paired)]
    rounds += [("theory", drawn[i], drawn[i + 1], None) for i in range(0, len(drawn), 2)]
    rounds = [rounds[i] for i in rng.permutation(len(rounds))]
    # Every refined key is repeated once, on one connection that saw its
    # final; a repeat round pairs the two connections' next repeats and
    # goes anywhere after both answers.
    answered: List[List[Tuple]] = [[], []]
    for rnd in rounds:
        if rnd[0] == "refine":
            lane = rnd[3] % 2 if rnd[3] is not None else None
            for side in (0, 1):
                if lane is None or lane == side:
                    answered[side].append((rnd, rnd[1 + side]))
    for (first, key0), (second, key1) in zip(*answered):
        earliest = max(rounds.index(first), rounds.index(second)) + 1
        at = int(rng.integers(earliest, len(rounds) + 1))
        rounds.insert(at, ("repeat", key0, key1, None))
    lanes: List[List[Dict]] = [[], []]
    for kind, key0, key1, pair in rounds:
        for side, key in ((0, key0), (1, key1)):
            entry = {"kind": kind, "request": key}
            if pair is not None:
                entry["pair"] = pair
            lanes[side].append(entry)
    return lanes


def stream_counts(lanes: Sequence[Sequence[Dict]]) -> Dict[str, int]:
    """Requests per kind (coalesced requests counted per connection)."""
    counts = {"refine": 0, "coalesced": 0, "theory": 0, "repeat": 0}
    for lane in lanes:
        for entry in lane:
            counts[entry["kind"]] += 1
            if "pair" in entry:
                counts["coalesced"] += 1
    return counts


# ------------------------------------------------------------ metric rules


def tail_percentile(values: Sequence[float], beyond: int = 10) -> Optional[Tuple[float, float, int]]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(percentile, value, n)`` -- the value is the order statistic
    with exactly ``beyond`` samples beyond it -- or ``None`` when fewer
    than ``beyond + 1`` samples exist.
    """
    n = len(values)
    if n <= beyond:
        return None
    ordered = sorted(values)
    rank = n - beyond  # 1-based rank of the reported sample
    return 100.0 * rank / n, float(ordered[rank - 1]), n


def latency_note(what: str, values_ms: Sequence[float]) -> str:
    """One report line: the median and the tail percentile of ``values_ms``."""
    tail = tail_percentile(values_ms)
    shown = f"p{tail[0]:.1f} {tail[1]:.4f} ms" if tail else "no tail (fewer than 11)"
    return f"{what} over {len(values_ms)} samples: p50 {median(values_ms):.4f} ms, {shown}"


def median(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


class Tally:
    """Operations attempted and failed, with every failed check named."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks: Dict[str, List[int]] = {}
        self.failures: List[str] = []

    def op(self, ok: bool, check: str, detail: str = "") -> bool:
        """Count one operation; it fails if its check does not hold."""
        self.attempted += 1
        passed, total = self.checks.setdefault(check, [0, 0])
        self.checks[check] = [passed + bool(ok), total + 1]
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{check}: {detail}" if detail else check)
        return ok

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


def select_metrics(workload: str, trace: bool, values: Dict[str, float]) -> Dict[str, Dict]:
    """The JSON ``metrics`` object for one run.

    Untraced runs carry every end-to-end metric; traced runs every
    per-layer metric, 0 for layers the workload does not cross.  A metric
    the workload should have measured but did not raises ``KeyError``.
    """
    out = {}
    if not trace:
        for name, (unit, _) in END_TO_END.items():
            out[name] = {"value": float(values[name]), "unit": unit}
        return out
    for name, (unit, _, crossed) in PER_LAYER.items():
        value = float(values[name]) if workload in crossed else 0.0
        if not math.isfinite(value):
            value = 0.0
        out[name] = {"value": value, "unit": unit}
    return out


def report_lines(workload: str, values: Dict[str, float], notes: Dict[str, str]) -> List[str]:
    """Human-readable lines: exactly this workload's user-facing metrics."""
    lines = []
    for name in REPORT_METRICS[workload]:
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"  {name:<22} {values[name]:>14.4f} {REPORT_UNITS[name]}{note}")
    return lines


# ---------------------------------------------------------------- ledger


def ledger_check(path: Path, counts: Dict) -> Optional[Dict]:
    """Compare ``counts`` with the ones first recorded at ``path``.

    The first run at a (workload, seed, seconds, trace) records its work
    counts; every later run must reproduce them exactly.  Returns the
    recorded counts when they differ, else ``None``.
    """
    canonical = json.loads(json.dumps(counts, sort_keys=True))
    if path.exists():
        recorded = json.loads(path.read_text())
        return None if recorded == canonical else recorded
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(canonical, sort_keys=True))
    os.replace(tmp, path)
    return None
