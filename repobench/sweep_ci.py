"""sweep-ci: the T1.5 smoke grid through ``run_sweep`` to a CI target.

Each pass runs the same grid at the run's seed through
``Runner(workers=2, checkpoint_dir=<fresh>, convergence=<relative CI>)``
with the program's event log on and the profiler at its CLI default, as
a documented ``--log-json`` run does.  ``time_to_ci_s`` is the wall time
of ``run_sweep``, pool start and reductions included.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

import host
import lib
from engine_widths import table_build_ms


def _shm_segments() -> int:
    """The runner's shared-memory segments alive now (named by our pid)."""
    prefix = f"repro-{os.getpid()}-"
    try:
        return sum(1 for name in os.listdir("/dev/shm") if name.startswith(prefix))
    except OSError:
        return 0


def _reap_children() -> None:
    for proc in multiprocessing.active_children():
        proc.join(30)


def _events(path: Path) -> List[Dict]:
    events = []
    with open(path) as handle:
        for line in handle:
            try:
                events.append(json.loads(line))
            except ValueError:
                continue
    return events


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) if path.exists() else 0


def _one_sweep(api, telemetry, spec, seed: int, workdir: Path) -> Dict:
    from repro.telemetry.convergence import ConvergenceConfig

    workdir.mkdir(parents=True)
    log = workdir / "events.jsonl"
    previous = telemetry.get_recorder()
    recorder = telemetry.configure(log_path=log)
    runner = api.Runner(
        workers=lib.SWEEP_WORKERS,
        n_chunks=lib.SWEEP_CHUNKS,
        checkpoint_dir=workdir / "checkpoints",
        convergence=ConvergenceConfig(rel_ci_width=lib.SWEEP_REL_CI),
    )
    shm_before = _shm_segments()
    started = time.perf_counter()
    try:
        result = api.run_sweep(spec, seed=seed, runner=runner, label="bench")
    finally:
        wall = time.perf_counter() - started
        recorder.close()
        telemetry.set_recorder(previous)
        _reap_children()
    return {
        "wall": wall,
        "result": result,
        "events": _events(log),
        "event_bytes": log.stat().st_size,
        "checkpoint_bytes": _tree_bytes(workdir / "checkpoints"),
        "chunk_sums": _chunk_checksums(workdir / "checkpoints"),
        "shm_leaked": _shm_segments() - shm_before,
    }


def _point_latencies_ms(events: List[Dict]) -> List[float]:
    """Per grid point: sweep start to the point's last finished chunk."""
    start = next(e["t"] for e in events if e.get("type") == "sweep_start")
    last = defaultdict(float)
    for event in events:
        if event.get("type") == "chunk_end":
            last[event["label"]] = max(last[event["label"]], event["t"])
    return [1000.0 * (t - start) for t in last.values()]


def _chunk_checksums(checkpoints: Path) -> Dict[str, str]:
    """``"<point>/<chunk>" -> payload sha256`` from the chunk manifests."""
    sums = {}
    for manifest in checkpoints.glob("*/chunks/chunk_*.json"):
        record = json.loads(manifest.read_text())
        if record.get("checksum"):
            sums[f"{manifest.parent.parent.name}/{record['chunk_index']}"] = record["checksum"]
    return sums


def _work(sweep: Dict) -> Dict:
    chunks = defaultdict(int)
    for event in sweep["events"]:
        if event.get("type") == "chunk_end":
            chunks[event["label"]] += 1
    return {
        "walks_per_point": [int(p.sample.n) for p in sweep["result"]],
        "chunks_per_point": [chunks[label] for label in sorted(chunks)],
        "walks": sum(int(p.sample.n) for p in sweep["result"]),
        "chunks": sum(chunks.values()),
    }


def _layers(sweep: Dict) -> Dict[str, float]:
    events, wall = sweep["events"], sweep["wall"]
    by_type = defaultdict(list)
    for event in events:
        by_type[event.get("type")].append(event)
    ends = by_type["chunk_end"]
    busy = sum(float(e.get("seconds", 0.0)) for e in ends)
    phases = defaultdict(float)
    for event in by_type["phase_profile"]:
        for phase, seconds in (event.get("phases") or {}).items():
            phases[phase] += float(seconds)
    sweep_start = by_type["sweep_start"][0]["t"]
    sweep_end = by_type["sweep_end"][-1]["t"]
    last_run_end = max((e["t"] for e in by_type["run_end"]), default=sweep_end)
    walks = sum(int(p.sample.n) for p in sweep["result"])
    values = {
        "runner.walks_per_s": walks / wall,
        "runner.chunks_completed": float(len(ends)),
        "runner.chunk_busy_s": busy,
        "runner.pool_idle_share": 1.0 - busy / (lib.SWEEP_WORKERS * wall),
        "runner.ipc_bytes": float(sum(e.get("ipc_bytes", 0) for e in ends)),
        "runner.pickle_seconds": sum(e.get("pickle_seconds", 0.0) for e in ends),
        "runner.unpickle_seconds": sum(e.get("unpickle_seconds", 0.0) for e in ends),
        "runner.shm_seconds": sum(e.get("shm_seconds", 0.0) for e in ends),
        "runner.checkpoints_written": float(len(by_type["checkpoint"])),
        "runner.checkpoint_bytes": float(sweep["checkpoint_bytes"]),
        "runner.retries": float(len(by_type["retry"])),
        "runner.walks_completed": float(walks),
        "runner.converged_points": float(sum(p.outcome.converged for p in sweep["result"])),
        "sweep.reduce_s": sweep_end - last_run_end,
        "telemetry.event_bytes": float(sweep["event_bytes"]),
    }
    for phase in lib.PHASES:
        values[f"engine.phase_seconds.{phase}"] = phases.get(phase, 0.0)
    first_start = min((e["t"] for e in by_type["chunk_start"]), default=sweep_start)
    last_end = max((e["t"] for e in ends), default=sweep_end)
    in_events = sweep_end - sweep_start
    decomp = [
        ("run_sweep wall (traced)", wall),
        ("sweep start to first chunk submitted", first_start - sweep_start),
        ("first chunk submitted to last chunk end", last_end - first_start),
        ("last chunk end to sweep_end (reduce)", sweep_end - last_end),
        ("residual (outside sweep events)", wall - in_events),
        ("  worker-seconds available (workers x span)",
         lib.SWEEP_WORKERS * (last_end - first_start)),
        ("  of which chunk busy", busy),
        ("    engine phases", sum(phases.values())),
        ("    chunk outside engine phases", busy - sum(phases.values())),
        ("  of which pool idle", lib.SWEEP_WORKERS * (last_end - first_start) - busy),
    ]
    values["decomp.residual_share"] = (wall - in_events) / wall
    return values, decomp


def run(root, tmp, seed: int, seconds: float, trace: bool, tally: lib.Tally) -> Dict:
    setup = [
        host.timed_python(lib.import_setup_code(lib.SWEEP_ALPHAS), root, tmp)
        for _ in range(lib.SETUP_REPEATS)
    ]
    from repro import api, telemetry

    for alpha in lib.SWEEP_ALPHAS:  # the parent's tables, as set-up did
        api.walk_hitting_times(api.ZetaJumpDistribution(alpha), (3, 1), horizon=4, n=1, rng=0)
    spec = api.SweepSpec(
        axes={"alpha": lib.SWEEP_ALPHAS, "l": lib.SWEEP_ELLS},
        n=lib.SWEEP_CAP,
        horizon=lambda p: p["l"] ** 2,
        k=lib.SWEEP_K,
        n_groups=lib.SWEEP_GROUPS,
    )
    passes = max(2, round(seconds / lib.SWEEP_PASS_S))
    cpu0 = host.cpu_times()
    probes, sweeps = [], []
    for p in range(passes):
        probes.append(host.probe_ms())
        sweeps.append(_one_sweep(api, telemetry, spec, seed, Path(tmp) / f"sweep-{p}"))
    probes.append(host.probe_ms())
    cpu1 = host.cpu_times()

    # Determinism contract (repro.sweep): every chunk's sample is a pure
    # function of (seed, point, chunk index).  Which chunks finish before
    # a point's CI stop depends on pool scheduling, so walks and chunks per
    # point are recorded and their spread reported, but not gated.
    reference = sweeps[0]["chunk_sums"]
    for sweep in sweeps:
        tally.op(sweep["shm_leaked"] <= 0, "no /dev/shm segment leaked by the runner",
                 f"{sweep['shm_leaked']} leaked")
        for point in sweep["result"]:
            outcome = point.outcome
            tally.op(
                not (outcome.degraded or outcome.quarantined_point or outcome.interrupted),
                "no grid point degraded, interrupted or quarantined",
                point.point.label,
            )
        for chunk, checksum in sorted(sweep["chunk_sums"].items()):
            if chunk in reference:
                tally.op(checksum == reference[chunk],
                         "chunk samples repeat across passes at one seed", chunk)
    works = [_work(s) for s in sweeps]
    first_chunks = {c: v for c, v in reference.items() if c.endswith("/0")}

    timed = sweeps[0::2] if trace else sweeps
    wall_s = lib.median(s["wall"] for s in timed)
    latencies = [ms for s in timed for ms in _point_latencies_ms(s["events"])]
    converged = [int(sum(p.outcome.converged for p in s["result"])) for s in sweeps]
    out = {
        "setup": setup,
        "pass_walls": [s["wall"] for s in sweeps],
        "counts": {"points": len(sweeps[0]["result"]), "first_chunk_sums": first_chunks},
        "probes": probes,
        "steal": host.steal_share(cpu0, cpu1),
        "report": {"time_to_ci_s": wall_s, "setup_s": lib.median(setup)},
        "notes": {
            "time_to_ci_s": f"median of {len(timed)} sweeps; walks per pass "
            f"{[w['walks'] for w in works]}, converged points per pass {converged}",
        },
        "values": {
            "wall_s": wall_s,
            "latency_p50_ms": lib.median(latencies),
            "setup_s": lib.median(setup),
        },
        "latency_note": lib.latency_note("grid-point time to CI", latencies),
    }
    if not trace:
        return out
    traced = sweeps[1::2]
    values, decomp = _layers(traced[-1])
    values["trace.overhead_share"] = lib.median(s["wall"] for s in traced) / wall_s - 1.0
    values["distributions.table_build_ms"] = table_build_ms(lib.SWEEP_ALPHAS)
    out["values"].update(values)
    out["decomp"] = decomp
    return out
