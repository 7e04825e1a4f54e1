"""The engines' one round loop: staged blocks sized to the live width.

Every engine (:func:`~repro.engine.vectorized.walk_hitting_times`,
:func:`~repro.engine.vectorized.flight_hitting_times`,
:func:`~repro.engine.ball_targets.ball_hitting_times`,
:func:`~repro.engine.multi_target.multi_target_search`) runs the loop in
this module.  It follows ThunderRW's interleaved walker-ring design
(SNIPPETS.md 3): instead of interleaving the five hot-loop stages *per
round*, ``R`` consecutive rounds of every live walk are staged as one
block --

1. one ``rng.random`` fill for the whole block (``2 * R * k`` uniforms:
   fused lazy+distance draw and ring index per walk-round);
2. one batched CDF lookup for all ``R * k`` distances;
3. one ring-offset sampling plus a ``cumsum`` over the round axis that
   turns per-round offsets into per-round endpoints (the state update);
4. batched target detection over every ``(round, walk)`` pair;
5. compaction: after a deep block, finished walks are dropped at once
   (masking dead rows would cost extra passes over all ``R * k`` slots);
   after a depth-1 block they stay as dead rows (jump length forced to
   0, masked out of detection) until 1/8 of the rows died, as in a
   per-round loop.

**Depth rule.**  ``R = clamp(BLOCK_BUDGET // width, 1, MAX_DEPTH)``,
where ``width`` is the number of live rows (for multi-target, rows times
contestable items).  Blocks are deep while few walks are live -- the
n=1 floor and the tail of every call, where per-numpy-call overhead
dominates -- and shrink to one round as the width grows, where the
block's extra passes would only cost memory bandwidth.  ``R`` is also
capped by the rounds left before every walk is censored (each round
lasts at least one step).  At ``R = 1`` the loop does exactly the work
of a per-round loop: preallocated buffers, no tiling, no ``cumsum``.

**Exactness.**  Walks that hit or get censored mid-block are simulated to
the end of the block; the resolution step keeps each walk's *first*
in-horizon success, which reproduces the sequential law exactly -- a
hitting time depends only on the trajectory prefix up to the hit, so
post-death rounds are discarded work, not bias (and no in-horizon hit
can follow censoring, see :meth:`_Walkers.first_hits`).  The waste is
bounded by ``R - 1`` rounds per walk.  The law is checked against the
frozen per-round loops in ``tests/test_ring_loop.py`` at depth 1, an
intermediate depth and ``MAX_DEPTH``, in both detection modes.

**Determinism.**  The depth is a pure function of the live width and the
elapsed times, so a fixed seed and sample size reproduce a sample
exactly, and the Runner's pooled chunks stay bit-identical to serial
ones.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

import numpy as np

from repro.engine.results import CENSORED
from repro.engine.samplers import BatchJumpSampler
from repro.lattice.direct_path import sample_direct_path_nodes
from repro.lattice.rings import sample_ring_offsets
from repro.telemetry.recorder import get_recorder

IntPoint = Tuple[int, int]

#: Walk-rounds staged per block: the block depth is this budget divided
#: by the live width.  Calibrated on paired per-width engine timings
#: (docs/performance.md §4): past ~16k walk-rounds a block's arrays fall
#: out of cache and deeper blocks lose.  It also caps the block buffers
#: (~1 MB per engine call).
BLOCK_BUDGET = 16384

#: Deepest block, reached at widths up to ``BLOCK_BUDGET // MAX_DEPTH``.
MAX_DEPTH = 128

_EMPTY = np.empty(0, dtype=np.int64)


def block_depth(width: int) -> int:
    """Rounds per block for ``width`` live rows (the depth rule)."""
    return max(1, min(MAX_DEPTH, BLOCK_BUDGET // max(int(width), 1)))


def _record_engine_sample(engine: str, n: int, steps: int, seconds: float) -> None:
    """Metrics for one engine invocation (telemetry enabled only)."""
    metrics = get_recorder().metrics
    metrics.counter(f"engine.{engine}.samples").add(n)
    metrics.counter("engine.steps_simulated").add(steps)
    if seconds > 0:
        metrics.gauge("engine.samples_per_sec").set(round(n / seconds, 3))
        metrics.gauge("engine.steps_per_sec").set(round(steps / seconds, 3))


def _l1(points: np.ndarray, cx: int, cy: int, out: np.ndarray) -> np.ndarray:
    """``|x - cx| + |y - cy|`` of ``points[..., :2]``, written into ``out``."""
    np.subtract(points[..., 0], cx, out=out)
    np.abs(out, out=out)
    dy = points[..., 1] - cy
    out += np.abs(dy, out=dy)
    return out


class _Walkers:
    """Live walk state plus the preallocated block buffers.

    Row ``j`` of ``pos``/``elapsed``/``alive`` belongs to walk ``idx[j]``
    (``idx`` stays sorted, so row order is walk-id order).  After
    :meth:`advance`, ``d``/``step``/``after`` are ``(R, k)`` and ``ends``
    is ``(R, k, 2)``: jump lengths, step lengths, elapsed steps after each
    round, and each round's endpoint.  ``elapsed`` counts steps, or jumps
    when ``unit_steps`` is set (flights, Definition 3.3).

    Endpoints and elapsed times live in two buffer sets: side 0 holds a
    whole block (``cap`` rows), side 1 one round (``n`` rows).  A deep
    block writes side 0 and parks its last round on side 1; depth-1
    blocks alternate sides, like a per-round loop's ping-pong buffers,
    so the next block reads the walks' state in place.
    """

    def __init__(
        self,
        sampler: BatchJumpSampler,
        rng: np.random.Generator,
        n: int,
        start: IntPoint,
        depth: Optional[int],
        unit_steps: bool = False,
        count: bool = False,
    ) -> None:
        self.sampler = sampler
        self.rng = rng
        cap = n * depth if depth else max(n, min(BLOCK_BUDGET, n * MAX_DEPTH))
        self._u = np.empty(2 * cap, dtype=np.float64)
        self._d = np.empty(cap, dtype=np.int64)
        self._step = np.empty(cap, dtype=np.int64)
        self._m = np.empty(cap, dtype=np.int64)
        self._ends = (np.empty((cap, 2), np.int64), np.empty((n, 2), np.int64))
        self._after = (np.empty(cap, np.int64), np.empty(n, np.int64))
        self.idx = np.arange(n)
        self.pos = self._ends[1]
        self.pos[:, 0] = int(start[0])
        self.pos[:, 1] = int(start[1])
        self.elapsed = self._after[1]
        self.elapsed[:] = 0
        #: Buffer side holding ``pos``/``elapsed`` (None: neither).
        self._side: Optional[int] = 1
        self.alive = np.ones(n, dtype=bool)
        self.n_dead = 0
        self.unit_steps = unit_steps
        self.count = count
        self.steps = 0
        self.jumps = 0

    def depth(self, horizon: int, width: int, pinned: Optional[int] = None) -> int:
        """This block's depth: the rule (or a pinned depth), horizon-capped."""
        rounds = pinned if pinned else block_depth(width)
        if rounds > 1:
            # Every round lasts at least one step (one jump for flights),
            # so no live walk outlasts `horizon - min(elapsed)` rounds.
            rounds = max(1, min(rounds, horizon - int(self.elapsed.min())))
        return rounds

    def advance(self, rounds: int, prof) -> None:
        """Stages 1-3: uniforms, jump lengths, endpoints and elapsed times."""
        k = self.idx.size
        total = rounds * k
        rng = self.rng
        u = self._u[: 2 * total]
        rng.random(out=u)
        if prof is not None:
            prof.lap("rng")
        walk_ids = self.idx if rounds == 1 else np.tile(self.idx, rounds)
        d_flat = self.sampler.sample(rng, walk_ids, u=u[:total], out=self._d[:total])
        d = d_flat.reshape(rounds, k)
        if self.n_dead:
            d *= self.alive  # dead rows stay put until the next compaction
        if prof is not None:
            prof.lap("cdf_lookup")
        if rounds == 1:
            side = 0 if self._side != 0 else 1
        else:
            if self._side == 0:
                self._park(self.pos, self.elapsed)
            side = 0
        self._written = side
        # Ring offsets go straight into the endpoint buffer; a cumulative
        # sum over the round axis plus the start turns them into endpoints.
        ends = sample_ring_offsets(
            d_flat, rng, u=u[total:], out=self._ends[side][:total]
        ).reshape(rounds, k, 2)
        after = self._after[side][:total].reshape(rounds, k)
        if rounds > 1:
            np.cumsum(ends, axis=0, out=ends)
        ends += self.pos
        if self.unit_steps:
            step = None
            np.add(self.elapsed, np.arange(1, rounds + 1)[:, None], out=after)
        else:
            step = np.maximum(d, 1, out=self._step[:total].reshape(rounds, k))
            if rounds == 1:
                np.add(self.elapsed, step[0], out=after[0])
            else:
                np.cumsum(step, axis=0, out=after)
                after += self.elapsed
        if self.count:
            self.jumps += total
            self.steps += total if step is None else int(step.sum())
        self.rounds, self.k = rounds, k
        self.d, self.step, self.ends, self.after = d, step, ends, after
        if prof is not None:
            prof.lap("state_update")

    def start_distance(self, cx: int, cy: int) -> np.ndarray:
        """``(R, k)`` L1 distance from each round's start node to ``(cx, cy)``."""
        rounds, k = self.rounds, self.k
        m = self._m[: rounds * k].reshape(rounds, k)
        _l1(self.pos, cx, cy, m[0])
        if rounds > 1:
            _l1(self.ends[:-1], cx, cy, m[1:])
        return m

    def starts_at(self, rr: np.ndarray, cc: np.ndarray) -> np.ndarray:
        """Start nodes of the ``(round, row)`` phases ``(rr, cc)``."""
        if self.rounds == 1:
            return self.pos[cc]
        starts = self.ends[rr - 1, cc]  # rr == 0 wraps; replaced below
        first = rr == 0
        starts[first] = self.pos[cc[first]]
        return starts

    def first_hits(self, cc: np.ndarray, t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Each row's first success, from successes in round-major order.

        No censoring check is needed: a round-``r`` hit happens at or
        after ``after[r - 1]`` (rounds last at least one step), so an
        in-horizon hit has ``after[r - 1] <= horizon``.  Equality -- a
        walk censored exactly at the horizon -- leaves only a ring-0 hit
        of the node where round ``r - 1`` ended, which round ``r - 1``
        already found at the same time.
        """
        if self.rounds == 1 or not cc.size:
            return cc, t
        cc, first = np.unique(cc, return_index=True)
        return cc, t[first]

    def _park(self, pos: np.ndarray, elapsed: np.ndarray) -> None:
        """Copy the walks' state onto buffer side 1."""
        k = self.idx.size
        self.pos, self.elapsed = self._ends[1][:k], self._after[1][:k]
        self.pos[:] = pos
        self.elapsed[:] = elapsed
        self._side = 1

    def retire(self, finished: np.ndarray, horizon: int) -> None:
        """End the block: move to its last round, drop finished rows."""
        if self.rounds == 1:
            self.pos, self.elapsed = self.ends[0], self.after[0]
            self._side = self._written
        else:
            self._park(self.ends[-1], self.after[-1])
        dead = self.elapsed >= horizon
        if finished.size:
            dead[finished] = True
        if self.n_dead:
            dead &= self.alive
        n_new = int(np.count_nonzero(dead))
        if not n_new:
            return
        self.alive &= ~dead
        self.n_dead += n_new
        if self.rounds > 1 or self.n_dead * 8 >= self.idx.size:
            keep = self.alive
            self.idx = self.idx[keep]
            self.pos = self.pos[keep]
            self.elapsed = self.elapsed[keep]
            self._side = None
            self.alive = np.ones(self.idx.size, dtype=bool)
            self.n_dead = 0

    def finish(self, engine: str, n: int, started: float, track: bool, prof) -> None:
        """Telemetry epilogue, once per engine call.

        With a live recorder the counts go straight to its metrics; a pool
        worker (null recorder, attached profiler) parks them on the phase
        accumulator, and the runner ships them to the parent with the
        chunk's phase profile.
        """
        if track:
            self.sampler.flush_jump_accounting()
            _record_engine_sample(engine, n, self.steps, time.perf_counter() - started)
        elif prof is not None:
            prof.count(self.steps, self.jumps)
        if prof is not None:
            prof.finish(engine)


# ----------------------------------------------------------------- detection


# Each detector returns ``(rows, times)`` of the block's hits in
# round-major order, so a row's first entry is its earliest round.


def _point_crossings(w: _Walkers, tx: int, ty: int):
    """Mid-jump visits of one node: the ring-``m`` marginal of Def. 3.1."""
    m = w.start_distance(tx, ty)
    reach = m <= w.d
    if w.n_dead:
        reach &= w.alive
    rr, cc = np.nonzero(reach)
    if not rr.size:
        return _EMPTY, _EMPTY
    rings = m[rr, cc]
    nodes = sample_direct_path_nodes(w.starts_at(rr, cc), w.ends[rr, cc], rings, w.rng)
    hit = (nodes[:, 0] == tx) & (nodes[:, 1] == ty)
    rr, cc = rr[hit], cc[hit]
    return cc, w.after[rr, cc] - w.step[rr, cc] + rings[hit]


def _ball_crossings(w: _Walkers, cx: int, cy: int, radius: int):
    """First mid-jump entry into ``B_radius(center)`` per ``(round, row)``.

    A phase of length ``d`` from ``u`` can touch the ball only on rings
    ``i`` in ``[max(m - radius, 1), min(d, m + radius)]`` (``m`` the
    distance from ``u`` to the center).  Marginals at distinct rings of
    one phase are independent, so every candidate ring of the block is
    sampled in one direct-path call; rings ascend within each group, so
    the first in-ball occurrence is the group's first-entry ring.  Dead
    rows have ``d = 0`` and so no candidate ring.
    """
    k = w.k
    m = w.start_distance(cx, cy)
    low = np.maximum(m - radius, 1)
    counts = np.minimum(w.d, m + radius)
    counts -= low
    counts += 1
    counts = counts.ravel()
    groups = np.flatnonzero(counts > 0)
    if not groups.size:
        return _EMPTY, _EMPTY
    reps = counts[groups]
    group_rep = np.repeat(groups, reps)
    first_of = np.cumsum(reps) - reps
    rings = low.ravel()[group_rep] + (
        np.arange(group_rep.size) - np.repeat(first_of, reps)
    )
    rr, cc = np.divmod(group_rep, k)
    nodes = sample_direct_path_nodes(w.starts_at(rr, cc), w.ends[rr, cc], rings, w.rng)
    inside = np.flatnonzero(
        np.abs(nodes[:, 0] - cx) + np.abs(nodes[:, 1] - cy) <= radius
    )
    if not inside.size:
        return _EMPTY, _EMPTY
    hit_groups, first = np.unique(group_rep[inside], return_index=True)
    rr, cc = np.divmod(hit_groups, k)
    return cc, w.after[rr, cc] - w.step[rr, cc] + rings[inside[first]]


def _endpoint_hits(w: _Walkers, cx: int, cy: int, radius: int):
    """Phase endpoints inside ``B_radius(center)`` (intermittent detection)."""
    if radius == 0:
        hit = w.ends[..., 0] == cx
        hit &= w.ends[..., 1] == cy
    else:
        dist = w._m[: w.rounds * w.k].reshape(w.rounds, w.k)
        hit = _l1(w.ends, cx, cy, dist) <= radius
    if w.n_dead:
        hit &= w.alive
    # Hits are rare: find the rows with any first, then their rounds.
    rows = np.flatnonzero(hit.any(axis=0))
    rr, j = np.nonzero(hit[:, rows])
    cc = rows[j]
    return cc, w.after[rr, cc]


# --------------------------------------------------------------------- loops


def hitting_times(
    sampler: BatchJumpSampler,
    center: IntPoint,
    *,
    radius: int,
    horizon: int,
    n: int,
    rng: np.random.Generator,
    start: IntPoint,
    detect_during_jump: bool,
    unit_steps: bool,
    engine: str,
    depth: Optional[int] = None,
) -> np.ndarray:
    """Censored hitting times of ``B_radius(center)`` for ``n`` walks.

    The loop behind the walk (``radius = 0``), flight (``unit_steps``,
    endpoint detection) and ball engines; arguments are pre-validated by
    the public engine, which also handles a start inside the target.
    ``depth`` pins the block depth (tests); ``None`` applies the rule.
    """
    cx, cy = int(center[0]), int(center[1])
    times = np.full(n, CENSORED, dtype=np.int64)
    recorder = get_recorder()
    track = recorder.enabled
    tick = recorder.tick
    prof = recorder.profile
    walkers = _Walkers(
        sampler, rng, n, start, depth, unit_steps, count=track or prof is not None
    )
    started = time.perf_counter() if track else 0.0
    while walkers.idx.size:
        tick()
        if prof is not None:
            prof.start()
        walkers.advance(walkers.depth(horizon, walkers.idx.size, depth), prof)
        if not detect_during_jump:
            cc, t = _endpoint_hits(walkers, cx, cy, radius)
        elif radius == 0:
            cc, t = _point_crossings(walkers, cx, cy)
        else:
            cc, t = _ball_crossings(walkers, cx, cy, radius)
        cols = _EMPTY
        if cc.size:
            ok = t <= horizon
            cols, t = walkers.first_hits(cc[ok], t[ok])
            times[walkers.idx[cols]] = t
        if prof is not None:
            prof.lap("target_check")
        walkers.retire(cols, horizon)
        if prof is not None:
            prof.lap("compaction")
    walkers.finish(engine, n, started, track, prof)
    return times


def multi_target_times(
    sampler: BatchJumpSampler,
    targets: np.ndarray,
    *,
    horizon: int,
    n: int,
    rng: np.random.Generator,
    start: IntPoint,
    depth: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-item earliest crossing time and walk over ``n`` walks.

    Returns ``(best_time, best_walk)`` with ``int64 max`` / ``-1`` for
    items never reached.  Ties at one step go to the lowest walk id, so
    the attribution does not depend on how rounds are blocked.  Items
    stop being tested once no live walk can cross them earlier than the
    recorded time (their time is at or below every walk's elapsed time),
    which keeps the pruning exact although walks drift apart in time.

    Two items on the same ring of one phase must be tested against a
    *single* sampled crossing node, so ``(round, row, ring)`` triples are
    deduplicated before sampling.
    """
    n_items = targets.shape[0]
    never = np.iinfo(np.int64).max
    best_time = np.full(n_items, never, dtype=np.int64)
    best_walk = np.full(n_items, -1, dtype=np.int64)
    at_start = (targets[:, 0] == start[0]) & (targets[:, 1] == start[1])
    best_time[at_start] = 0
    best_walk[at_start] = 0
    recorder = get_recorder()
    track = recorder.enabled
    tick = recorder.tick
    prof = recorder.profile
    walkers = _Walkers(sampler, rng, n, start, depth, count=track or prof is not None)
    started = time.perf_counter() if track else 0.0
    while walkers.idx.size:
        tick()
        if prof is not None:
            prof.start()
        live = walkers.elapsed[walkers.alive] if walkers.n_dead else walkers.elapsed
        contestable = np.flatnonzero(best_time > int(live.min()))
        if not contestable.size:
            break
        if prof is not None:
            prof.lap("target_check")
        k = walkers.idx.size
        walkers.advance(walkers.depth(horizon, k * contestable.size, depth), prof)
        tx = targets[contestable, 0]
        ty = targets[contestable, 1]
        starts = np.empty_like(walkers.ends)
        starts[0] = walkers.pos
        starts[1:] = walkers.ends[:-1]
        m = np.abs(tx - starts[..., 0:1]) + np.abs(ty - starts[..., 1:2])
        reach = m <= walkers.d[..., None]
        if walkers.n_dead:
            reach &= walkers.alive[:, None]
        rr, cc, ii = np.nonzero(reach)
        if rr.size:
            rings = m[rr, cc, ii]
            # One crossing node per distinct (round, row, ring).
            phase = rr * k + cc
            order = np.lexsort((rings, phase))
            sorted_phase, sorted_rings = phase[order], rings[order]
            new = np.ones(order.size, dtype=bool)
            new[1:] = (sorted_phase[1:] != sorted_phase[:-1]) | (
                sorted_rings[1:] != sorted_rings[:-1]
            )
            inverse = np.empty(order.size, dtype=np.int64)
            inverse[order] = np.cumsum(new) - 1
            ur, uc = np.divmod(sorted_phase[new], k)
            nodes = sample_direct_path_nodes(
                starts[ur, uc], walkers.ends[ur, uc], sorted_rings[new], rng
            )[inverse]
            hit = (nodes[:, 0] == tx[ii]) & (nodes[:, 1] == ty[ii])
            steps = walkers.after[rr, cc] - walkers.step[rr, cc] + rings
            ok = hit & (steps <= horizon)
            if np.any(ok):
                _record_best(
                    contestable[ii[ok]], steps[ok], walkers.idx[cc[ok]],
                    best_time, best_walk,
                )
        if prof is not None:
            prof.lap("target_check")
        walkers.retire(_EMPTY, horizon)
        if prof is not None:
            prof.lap("compaction")
    walkers.finish("multi_target", n, started, track, prof)
    return best_time, best_walk


def _record_best(
    items: np.ndarray,
    steps: np.ndarray,
    walks: np.ndarray,
    best_time: np.ndarray,
    best_walk: np.ndarray,
) -> None:
    """Fold candidate crossings in: earliest step, then lowest walk id."""
    order = np.lexsort((walks, steps, items))
    sorted_items = items[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = sorted_items[1:] != sorted_items[:-1]
    winners = order[first]
    item, step, walk = items[winners], steps[winners], walks[winners]
    better = (step < best_time[item]) | (
        (step == best_time[item]) & (walk < best_walk[item])
    )
    best_time[item[better]] = step[better]
    best_walk[item[better]] = walk[better]

