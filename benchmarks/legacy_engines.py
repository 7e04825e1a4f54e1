"""Frozen engine implementations, for paired benchmarks and law tests only.

Two generations are kept.

**Pre-fusing** (``legacy_*``): verbatim simplifications of ``walk_hitting_times`` and
``ball_hitting_times`` as they existed before the fused-kernel layer
(cached inverse-CDF jump tables, batched per-round uniforms, flattened
ring testing): the walk engine calls the sampler and the ring sampler
with fresh per-round draws, and the ball engine tests candidate rings in
a Python ``for offset_index in range(2 * radius + 1)`` loop.  The paired
benchmark runs them inside
:func:`repro.distributions.cdf_table.legacy_sampling` so the jump draws
also take the original Devroye-rejection path.

**Per-round** (``round_loop_*``): the fused per-round loops the walk,
flight and multi-target engines ran before the staged block loop of
:mod:`repro.engine.ring` replaced them -- one round of every live walk
per pass, preallocated round buffers, one ``rng.random`` call per round,
lazy 1/8 compaction -- with the telemetry hooks stripped.

They exist so BENCH_engine.json can record honest before/after timings
(``*_legacy_mean_seconds`` vs ``*_fused_mean_seconds``, and the
``engine_width_*`` pairs) on the same machine in the same run, and so
``tests/test_ring_loop.py`` can check the block loop's law against an
independent implementation -- do not use them for experiments; they
receive no fixes or features.
"""

from __future__ import annotations

import numpy as np

from repro.engine.results import CENSORED, HittingTimeSample
from repro.engine.vectorized import _as_sampler
from repro.lattice.direct_path import sample_direct_path_nodes
from repro.lattice.rings import sample_ring_offsets
from repro.rng import as_generator


def legacy_walk_hitting_times(
    jumps,
    target,
    *,
    horizon: int,
    n: int,
    rng=None,
    start=(0, 0),
    detect_during_jump: bool = True,
) -> HittingTimeSample:
    """Pre-fusing ``walk_hitting_times`` (lazy 1/8-compaction, per-round
    allocations, one generator call per consumer)."""
    sampler = _as_sampler(jumps)
    rng = as_generator(rng)
    n_walks = int(n)
    tx, ty = int(target[0]), int(target[1])
    times = np.full(n_walks, CENSORED, dtype=np.int64)
    if (int(start[0]), int(start[1])) == (tx, ty):
        return HittingTimeSample(times=np.zeros(n_walks, dtype=np.int64), horizon=horizon)
    idx = np.arange(n_walks)
    pos = np.empty((n_walks, 2), dtype=np.int64)
    pos[:, 0] = int(start[0])
    pos[:, 1] = int(start[1])
    elapsed = np.zeros(n_walks, dtype=np.int64)
    alive = np.ones(n_walks, dtype=bool)
    n_dead = 0
    while idx.size:
        d = sampler.sample(rng, idx)
        d[~alive] = 0
        v = pos + sample_ring_offsets(d, rng)
        m = np.abs(tx - pos[:, 0]) + np.abs(ty - pos[:, 1])
        if detect_during_jump:
            reach = alive & (m <= d)
            hit = np.zeros(idx.shape[0], dtype=bool)
            if np.any(reach):
                nodes = sample_direct_path_nodes(pos[reach], v[reach], m[reach], rng)
                hit[reach] = (nodes[:, 0] == tx) & (nodes[:, 1] == ty)
            hit_step = elapsed + m
        else:
            hit = alive & (v[:, 0] == tx) & (v[:, 1] == ty)
            hit_step = elapsed + np.maximum(d, 1)
        success = hit & (hit_step <= horizon)
        if np.any(success):
            times[idx[success]] = hit_step[success]
        elapsed += np.maximum(d, 1)
        pos = v
        died = alive & (success | (elapsed >= horizon))
        if np.any(died):
            alive &= ~died
            n_dead += int(died.sum())
            if n_dead * 8 >= idx.size:
                idx = idx[alive]
                pos = pos[alive]
                elapsed = elapsed[alive]
                alive = np.ones(idx.size, dtype=bool)
                n_dead = 0
    return HittingTimeSample(times=times, horizon=horizon)


def legacy_ball_hitting_times(
    jumps,
    center,
    *,
    radius: int,
    horizon: int,
    n: int,
    rng=None,
    start=(0, 0),
    detect_during_jump: bool = True,
) -> HittingTimeSample:
    """Pre-fusing ``ball_hitting_times`` (gather/scatter ``active`` index,
    Python loop over the ``2 * radius + 1`` candidate rings)."""
    sampler = _as_sampler(jumps)
    rng = as_generator(rng)
    n_walks = int(n)
    cx, cy = int(center[0]), int(center[1])
    times = np.full(n_walks, CENSORED, dtype=np.int64)
    start_distance = abs(cx - start[0]) + abs(cy - start[1])
    if start_distance <= radius:
        return HittingTimeSample(times=np.zeros(n_walks, np.int64), horizon=horizon)
    pos = np.empty((n_walks, 2), dtype=np.int64)
    pos[:, 0] = int(start[0])
    pos[:, 1] = int(start[1])
    elapsed = np.zeros(n_walks, dtype=np.int64)
    active = np.arange(n_walks)
    while active.size:
        d = sampler.sample(rng, active)
        offsets = sample_ring_offsets(d, rng)
        u = pos[active]
        v = u + offsets
        m = np.abs(cx - u[:, 0]) + np.abs(cy - u[:, 1])
        if detect_during_jump:
            hit = np.zeros(active.shape[0], dtype=bool)
            hit_step = np.zeros(active.shape[0], dtype=np.int64)
            low = np.maximum(m - radius, 1)
            high = np.minimum(d, m + radius)
            reachable = low <= high
            if np.any(reachable):
                rows = np.flatnonzero(reachable)
                for offset_index in range(2 * radius + 1):
                    ring = low[rows] + offset_index
                    valid = ring <= high[rows]
                    test_rows = rows[valid & ~hit[rows]]
                    if test_rows.size == 0:
                        continue
                    nodes = sample_direct_path_nodes(
                        u[test_rows], v[test_rows], (low + offset_index)[test_rows], rng
                    )
                    inside = (
                        np.abs(nodes[:, 0] - cx) + np.abs(nodes[:, 1] - cy)
                    ) <= radius
                    newly = test_rows[inside]
                    hit[newly] = True
                    hit_step[newly] = elapsed[active[newly]] + (low + offset_index)[newly]
        else:
            end_distance = np.abs(v[:, 0] - cx) + np.abs(v[:, 1] - cy)
            hit = end_distance <= radius
            hit_step = elapsed[active] + np.maximum(d, 1)
        success = hit & (hit_step <= horizon)
        times[active[success]] = hit_step[success]
        elapsed[active] += np.maximum(d, 1)
        pos[active] = v
        survivors = ~success & (elapsed[active] < horizon)
        active = active[survivors]
    return HittingTimeSample(times=times, horizon=horizon)


def round_loop_walk_hitting_times(
    jumps,
    target,
    *,
    horizon: int,
    n: int,
    rng=None,
    start=(0, 0),
    detect_during_jump: bool = True,
) -> HittingTimeSample:
    """Per-round ``walk_hitting_times`` (fused kernels, lazy compaction)."""
    sampler = _as_sampler(jumps)
    rng = as_generator(rng)
    n_walks = int(n)
    tx, ty = int(target[0]), int(target[1])
    times = np.full(n_walks, CENSORED, dtype=np.int64)
    if (int(start[0]), int(start[1])) == (tx, ty):
        return HittingTimeSample(times=np.zeros(n_walks, dtype=np.int64), horizon=horizon)
    idx = np.arange(n_walks)
    pos_buf = np.empty((n_walks, 2), dtype=np.int64)
    end_buf = np.empty((n_walks, 2), dtype=np.int64)
    d_buf = np.empty(n_walks, dtype=np.int64)
    off_buf = np.empty((n_walks, 2), dtype=np.int64)
    u_buf = np.empty(2 * n_walks, dtype=np.float64)
    pos = pos_buf[:n_walks]
    pos[:, 0] = int(start[0])
    pos[:, 1] = int(start[1])
    elapsed = np.zeros(n_walks, dtype=np.int64)
    alive = np.ones(n_walks, dtype=bool)
    n_dead = 0
    while idx.size:
        k = idx.size
        u = u_buf[: 2 * k]
        rng.random(out=u)
        d = sampler.sample(rng, idx, u=u[:k], out=d_buf[:k])
        d[~alive] = 0
        off = sample_ring_offsets(d, rng, u=u[k:], out=off_buf[:k])
        v = np.add(pos, off, out=end_buf[:k])
        m = np.abs(tx - pos[:, 0]) + np.abs(ty - pos[:, 1])
        if detect_during_jump:
            reach = alive & (m <= d)
            hit = np.zeros(k, dtype=bool)
            if np.any(reach):
                nodes = sample_direct_path_nodes(pos[reach], v[reach], m[reach], rng)
                hit[reach] = (nodes[:, 0] == tx) & (nodes[:, 1] == ty)
            hit_step = elapsed + m
        else:
            hit = alive & (v[:, 0] == tx) & (v[:, 1] == ty)
            hit_step = elapsed + np.maximum(d, 1)
        success = hit & (hit_step <= horizon)
        if np.any(success):
            times[idx[success]] = hit_step[success]
        elapsed += np.maximum(d, 1)
        pos_buf, end_buf = end_buf, pos_buf
        pos = v
        died = alive & (success | (elapsed >= horizon))
        if np.any(died):
            alive &= ~died
            n_dead += int(died.sum())
            if n_dead * 8 >= idx.size:
                idx = idx[alive]
                survivors = pos[alive]
                pos = pos_buf[: idx.size]
                pos[:] = survivors
                elapsed = elapsed[alive]
                alive = np.ones(idx.size, dtype=bool)
                n_dead = 0
    return HittingTimeSample(times=times, horizon=horizon)


def round_loop_flight_hitting_times(
    jumps, target, *, horizon: int, n: int, rng=None, start=(0, 0)
) -> HittingTimeSample:
    """Per-round ``flight_hitting_times`` (times and horizon in jumps)."""
    sampler = _as_sampler(jumps)
    rng = as_generator(rng)
    n_flights = int(n)
    tx, ty = int(target[0]), int(target[1])
    times = np.full(n_flights, CENSORED, dtype=np.int64)
    if (int(start[0]), int(start[1])) == (tx, ty):
        return HittingTimeSample(times=np.zeros(n_flights, dtype=np.int64), horizon=horizon)
    idx = np.arange(n_flights)
    pos = np.empty((n_flights, 2), dtype=np.int64)
    pos[:, 0] = int(start[0])
    pos[:, 1] = int(start[1])
    d_buf = np.empty(n_flights, dtype=np.int64)
    off_buf = np.empty((n_flights, 2), dtype=np.int64)
    u_buf = np.empty(2 * n_flights, dtype=np.float64)
    alive = np.ones(n_flights, dtype=bool)
    n_dead = 0
    for jump_index in range(1, int(horizon) + 1):
        if not idx.size:
            break
        k = idx.size
        u = u_buf[: 2 * k]
        rng.random(out=u)
        d = sampler.sample(rng, idx, u=u[:k], out=d_buf[:k])
        d[~alive] = 0
        pos += sample_ring_offsets(d, rng, u=u[k:], out=off_buf[:k])
        hit = alive & (pos[:, 0] == tx) & (pos[:, 1] == ty)
        if np.any(hit):
            times[idx[hit]] = jump_index
            alive &= ~hit
            n_dead += int(hit.sum())
            if n_dead * 8 >= idx.size:
                idx = idx[alive]
                pos = pos[alive]
                alive = np.ones(idx.size, dtype=bool)
                n_dead = 0
    return HittingTimeSample(times=times, horizon=horizon)


def round_loop_multi_target_search(
    jumps, targets, *, horizon: int, n: int, rng=None, start=(0, 0)
):
    """Per-round ``multi_target_search``; returns ``(times, discoverer)``."""
    sampler = _as_sampler(jumps)
    rng = as_generator(rng)
    target_array = np.asarray(targets, dtype=np.int64)
    n_items = target_array.shape[0]
    n_walks = int(n)
    never = np.iinfo(np.int64).max
    best_time = np.full(n_items, never, dtype=np.int64)
    best_walk = np.full(n_items, -1, dtype=np.int64)
    at_start = (target_array[:, 0] == start[0]) & (target_array[:, 1] == start[1])
    best_time[at_start] = 0
    best_walk[at_start] = 0
    idx = np.arange(n_walks)
    pos_buf = np.empty((n_walks, 2), dtype=np.int64)
    end_buf = np.empty((n_walks, 2), dtype=np.int64)
    d_buf = np.empty(n_walks, dtype=np.int64)
    off_buf = np.empty((n_walks, 2), dtype=np.int64)
    u_buf = np.empty(2 * n_walks, dtype=np.float64)
    pos = pos_buf[:n_walks]
    pos[:, 0] = int(start[0])
    pos[:, 1] = int(start[1])
    elapsed = np.zeros(n_walks, dtype=np.int64)
    alive = np.ones(n_walks, dtype=bool)
    n_dead = 0
    while idx.size:
        frontier = int(elapsed[alive].min())
        contestable = np.flatnonzero(best_time > frontier)
        if contestable.size == 0:
            break
        k = idx.size
        uniforms = u_buf[: 2 * k]
        rng.random(out=uniforms)
        d = sampler.sample(rng, idx, u=uniforms[:k], out=d_buf[:k])
        d[~alive] = 0
        off = sample_ring_offsets(d, rng, u=uniforms[k:], out=off_buf[:k])
        v = np.add(pos, off, out=end_buf[:k])
        tx = target_array[contestable, 0]
        ty = target_array[contestable, 1]
        m = np.abs(tx[None, :] - pos[:, 0:1]) + np.abs(ty[None, :] - pos[:, 1:2])
        reach_w, reach_i = np.nonzero((m <= d[:, None]) & alive[:, None])
        if reach_w.size:
            rings = m[reach_w, reach_i]
            pairs = np.stack([reach_w, rings], axis=1)
            unique_pairs, inverse = np.unique(pairs, axis=0, return_inverse=True)
            unique_nodes = sample_direct_path_nodes(
                pos[unique_pairs[:, 0]], v[unique_pairs[:, 0]], unique_pairs[:, 1], rng
            )
            nodes = unique_nodes[inverse.reshape(-1)]
            hit = (nodes[:, 0] == tx[reach_i]) & (nodes[:, 1] == ty[reach_i])
            if np.any(hit):
                hit_steps = elapsed[reach_w[hit]] + rings[hit]
                hit_items = contestable[reach_i[hit]]
                hit_walks = idx[reach_w[hit]]
                in_time = hit_steps <= horizon
                if np.any(in_time):
                    cand_items = hit_items[in_time]
                    cand_steps = hit_steps[in_time]
                    cand_walks = hit_walks[in_time]
                    order = np.lexsort((cand_walks, cand_steps, cand_items))
                    items_sorted = cand_items[order]
                    first = np.ones(items_sorted.shape[0], dtype=bool)
                    first[1:] = items_sorted[1:] != items_sorted[:-1]
                    winners = order[first]
                    w_items = cand_items[winners]
                    better = cand_steps[winners] < best_time[w_items]
                    w_items = w_items[better]
                    best_time[w_items] = cand_steps[winners][better]
                    best_walk[w_items] = cand_walks[winners][better]
        elapsed += np.maximum(d, 1)
        pos_buf, end_buf = end_buf, pos_buf
        pos = v
        died = alive & (elapsed >= horizon)
        if np.any(died):
            alive &= ~died
            n_dead += int(died.sum())
            if n_dead * 8 >= idx.size:
                idx = idx[alive]
                survivors = pos[alive]
                pos = pos_buf[: idx.size]
                pos[:] = survivors
                elapsed = elapsed[alive]
                alive = np.ones(idx.size, dtype=bool)
                n_dead = 0
    times = np.where(best_time == never, CENSORED, best_time)
    return times, best_walk
