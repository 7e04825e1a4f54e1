"""engine-widths: serial direct engine calls, no Runner, telemetry off.

Each pass replays the same seeded call list (``lib.engine_calls``):
``walk_hitting_times`` at n in {1, 250, 2000, 20000} over three exponents,
plus flight, ball and multi-target calls.  The timed phase is the sum of
the calls' own wall times; the host probe runs between calls.
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

import host
import lib


def _metric_value(snapshot: Dict, name: str) -> float:
    return float((snapshot.get(name) or {}).get("value") or 0.0)


def _check_times(times, n: int, horizon: int, censored: int) -> bool:
    times = np.asarray(times)
    ok_range = (times == censored) | ((times >= 0) & (times <= horizon))
    return times.shape == (n,) and bool(ok_range.all())


def _runner(api):
    horizon = lib.ENGINE_ELL ** 2
    target = lib.ENGINE_TARGET
    laws = {alpha: api.ZetaJumpDistribution(alpha) for alpha in lib.ENGINE_ALPHAS}

    def call(spec: Dict):
        law, n, seed = laws[spec["alpha"]], spec["n"], spec["seed"]
        engine = spec["engine"]
        if engine == "walk":
            return api.walk_hitting_times(law, target, horizon=horizon, n=n, rng=seed)
        if engine == "flight":
            return api.flight_hitting_times(law, target, horizon=horizon, n=n, rng=seed)
        if engine == "ball":
            return api.ball_hitting_times(
                law, target, radius=lib.BALL_RADIUS, horizon=horizon, n=n, rng=seed
            )
        return api.multi_target_search(
            law, list(lib.MULTI_TARGETS), horizon=horizon, n=n, rng=seed
        )

    return call, horizon


def _run_pass(call, horizon, calls, tally, censored, probes) -> Dict:
    """One pass of the call list; returns timings and the sample digest."""
    times: List[Optional[float]] = []
    samples = hashlib.sha256()
    started = time.perf_counter()
    busy = 0.0
    for i, spec in enumerate(calls):
        if i % 8 == 0:
            probes.append(host.probe_ms())
        t0 = time.perf_counter()
        try:
            result = call(spec)
        except Exception as exc:  # an engine failure is a failed operation
            tally.op(False, "engine call raised", f"{spec['cls']}: {exc!r}")
            times.append(None)
            continue
        seconds = time.perf_counter() - t0
        busy += seconds
        times.append(seconds)
        if spec["engine"] == "multi_target":
            found = result.discovery_times
            ok = _check_times(found, len(lib.MULTI_TARGETS), horizon, censored) and bool(
                ((result.discoverer >= -1) & (result.discoverer < spec["n"])).all()
            )
            samples.update(found.tobytes() + result.discoverer.tobytes())
        else:
            ok = _check_times(result.times, spec["n"], horizon, censored)
            samples.update(result.times.tobytes())
        tally.op(ok, "engine sample has length n and times in [0, horizon] or CENSORED",
                 spec["cls"])
    wall = time.perf_counter() - started
    return {
        "busy": busy,
        "wall": wall,
        "times": times,
        "digest": samples.hexdigest()[:16],
    }


def _per_call_median(results: Sequence[Dict]) -> List[float]:
    """Each call's median wall time over the given passes."""
    per_call = []
    for samples in zip(*(r["times"] for r in results)):
        kept = [t for t in samples if t is not None]
        if kept:
            per_call.append(lib.median(kept))
    return per_call


def table_build_ms(alphas) -> float:
    """Median cold ``get_table`` time over ``alphas`` (0 if the API is gone)."""
    try:
        from repro.distributions import cdf_table
    except ImportError:
        return 0.0
    if not hasattr(cdf_table, "clear_cache") or not hasattr(cdf_table, "get_table"):
        return 0.0
    samples = []
    for alpha in alphas:
        cdf_table.clear_cache()
        t0 = time.perf_counter()
        cdf_table.get_table(alpha)
        samples.append(1000.0 * (time.perf_counter() - t0))
    return lib.median(samples)


def run(root, tmp, seed: int, seconds: float, trace: bool, tally: lib.Tally) -> Dict:
    setup = [
        host.timed_python(lib.import_setup_code(lib.ENGINE_ALPHAS), root, tmp)
        for _ in range(lib.SETUP_REPEATS)
    ]
    from repro import api, telemetry

    call, horizon = _runner(api)
    calls = lib.engine_calls(seed)
    # Warm every (engine, alpha) path so tables and lazy imports are built
    # before timing (set-up cost is measured by `setup` above), and run each
    # class once at full width: the first large arrays change the
    # allocator's state, which slows later n=250 calls by up to a third.
    for alpha in lib.ENGINE_ALPHAS:
        for engine in ("walk", "flight", "ball", "multi_target"):
            call({"engine": engine, "alpha": alpha, "n": 1, "seed": 0})
    for _, engine, n, _ in lib.ENGINE_MIX:
        call({"engine": engine, "alpha": lib.ENGINE_ALPHAS[1], "n": n, "seed": 0})

    passes = max(3, round(seconds / lib.ENGINE_PASS_S))
    probes: List[float] = []
    cpu0 = host.cpu_times()
    results = []
    phases: Dict[str, float] = {}
    counters: Dict[str, float] = {}
    for p in range(passes):
        traced = trace and p % 2 == 1
        if not traced:
            results.append(_run_pass(call, horizon, calls, tally, api.CENSORED, probes))
            continue
        recorder = telemetry.TelemetryRecorder(profile=True)
        with telemetry.use_recorder(recorder):
            results.append(_run_pass(call, horizon, calls, tally, api.CENSORED, probes))
            profile = getattr(recorder, "profile", None)
            drained = profile.drain() if profile is not None else None
        for phase, value in ((drained or ({}, {}))[0]).items():
            phases[phase] = phases.get(phase, 0.0) + value
        snapshot = recorder.metrics.snapshot()
        for name in ("engine.steps_simulated", "engine.jumps_sampled"):
            counters[name] = counters.get(name, 0.0) + _metric_value(snapshot, name)
        recorder.close()
    cpu1 = host.cpu_times()

    first = results[0]["digest"]
    for later in results[1:]:
        tally.op(later["digest"] == first, "samples repeat across passes at one seed")

    walks = sum(spec["n"] for spec in calls)
    counts = {
        "walks_per_pass": walks,
        "calls_per_class": {
            cls: sum(1 for c in calls if c["cls"] == cls) for cls in lib.ENGINE_CLASSES
        },
        "walks_per_class": {
            cls: sum(c["n"] for c in calls if c["cls"] == cls) for cls in lib.ENGINE_CLASSES
        },
        "sample_digest": first,
    }
    untraced = results[0::2] if trace else results
    traced = results[1::2] if trace else []
    # Each call's median over passes: a transient host stall in one pass
    # does not move it.
    per_call = _per_call_median(untraced)
    wall_s = sum(per_call)
    latencies = [
        1000.0 * t for spec, t in zip(calls, per_call) if spec["cls"] == lib.ENGINE_LATENCY_CLASS
    ]
    out = {
        "setup": setup,
        "pass_walls": [r["busy"] for r in results],
        "counts": counts,
        "probes": probes,
        "steal": host.steal_share(cpu0, cpu1),
        "report": {
            "walks_per_s": walks / wall_s,
            "setup_s": lib.median(setup),
        },
        "notes": {
            "walks_per_s": f"{walks} walks per pass over the sum of per-call medians "
            f"of {len(untraced)} passes",
        },
        "values": {
            "wall_s": wall_s,
            "latency_p50_ms": lib.median(latencies),
            "setup_s": lib.median(setup),
        },
        "latency_note": lib.latency_note(f"{lib.ENGINE_LATENCY_CLASS} engine-call latency", latencies),
    }
    if not trace:
        return out
    traced_call = _per_call_median(traced)
    overhead = sum(traced_call) / wall_s - 1.0
    # The profiler's phases are summed over the traced passes, so the
    # decomposition uses per-pass means throughout.
    wall = sum(r["wall"] for r in traced) / len(traced)
    busy = sum(r["busy"] for r in traced) / len(traced)
    total_phases = sum(phases.values()) / len(traced)
    probe_s = (len(calls) + 7) // 8 * lib.median(probes) / 1000.0
    residual = wall - busy - probe_s
    values = out["values"]
    values.update({
        "distributions.table_build_ms": table_build_ms(lib.ENGINE_ALPHAS),
        "engine.steps_simulated": counters.get("engine.steps_simulated", 0.0) / len(traced),
        "engine.jumps_sampled": counters.get("engine.jumps_sampled", 0.0) / len(traced),
        "telemetry.overhead_share": overhead,
        "trace.overhead_share": overhead,
        "decomp.residual_share": residual / wall,
    })
    for cls in lib.ENGINE_CLASSES:
        values[f"engine.call_ms.{cls}"] = 1000.0 * lib.median(
            t for spec, t in zip(calls, traced_call) if spec["cls"] == cls
        )
    for phase in lib.PHASES:
        values[f"engine.phase_seconds.{phase}"] = phases.get(phase, 0.0) / len(traced)
    out["decomp"] = [
        ("pass wall (traced, mean per pass)", wall),
        *[(f"engine phase {ph}", phases.get(ph, 0.0) / len(traced)) for ph in lib.PHASES],
        ("engine outside the five phases", busy - total_phases),
        ("host probe", probe_s),
        ("residual (benchmark loop)", residual),
    ]
    counts["jumps_sampled"] = int(counters.get("engine.jumps_sampled", 0.0))
    return out
