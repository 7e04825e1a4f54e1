"""Micro-benchmarks of the simulation engine's hot paths.

These measure raw throughput (proper pytest-benchmark timing loops, unlike
the one-shot experiment benchmarks): the exact Zipf sampler, the uniform
ring-destination sampler, the direct-path ring-marginal sampler, and the
end-to-end walk/flight hitting-time engines.

Each test persists its mean runtime into ``BENCH_engine.json`` at the repo
root (see benchmarks/bench_utils.py), so hot-path perf is diffable per
commit.

The walk and ball engines are additionally recorded as *paired* timings:
``*_fused_mean_seconds`` is the current fused-kernel engine (same
measurement as the headline ``*_mean_seconds`` key) and
``*_legacy_mean_seconds`` re-times the frozen pre-fusing implementations
(benchmarks/legacy_engines.py) under
:func:`repro.distributions.cdf_table.legacy_sampling` on the same
machine in the same run.  bench-history hard-gates the fused keys and
warns when fused is not comfortably ahead of legacy (docs/performance.md).

The ``engine_width_*`` keys pair the one staged block loop with the
frozen per-round loops it replaced, at the repository benchmark's
engine-widths shapes (walk at n = 1, 250, 2000 and 20000; flight, ball
and multi-target).  The two sides alternate call by call (ABAB, the
first side swapping every repeat), so host drift hits both equally:
``*_one_loop_seconds`` / ``*_round_loop_seconds`` are per-call medians
and ``*_speedup`` is the median of the per-pair ratios (round / one).
"""

import time

import numpy as np
import pytest

from bench_utils import record_bench
from legacy_engines import (
    legacy_ball_hitting_times,
    legacy_walk_hitting_times,
    round_loop_flight_hitting_times,
    round_loop_multi_target_search,
    round_loop_walk_hitting_times,
)
from repro.distributions.cdf_table import get_table, legacy_sampling
from repro.distributions.zeta import ZetaJumpDistribution
from repro.distributions.zipf_sampler import rejection_conditional_zipf
from repro.engine.ball_targets import ball_hitting_times
from repro.engine.multi_target import multi_target_search
from repro.engine.samplers import HeterogeneousZetaSampler
from repro.engine.vectorized import flight_hitting_times, walk_hitting_times
from repro.lattice.direct_path import sample_direct_path_nodes
from repro.lattice.rings import sample_ring_offsets

_N = 100_000


def _persist(benchmark, name: str) -> None:
    """Record one test's mean seconds into the engine snapshot."""
    record_bench("engine", {f"{name}_mean_seconds": benchmark.stats.stats.mean})


def test_zipf_rejection_sampler(benchmark):
    rng = np.random.default_rng(0)
    alphas = np.full(_N, 2.5)
    benchmark(rejection_conditional_zipf, alphas, rng, _N)
    _persist(benchmark, "zipf_rejection_sampler")


def test_zipf_heterogeneous_sampler(benchmark):
    rng = np.random.default_rng(0)
    sampler = HeterogeneousZetaSampler(rng.uniform(2.0, 3.0, _N))
    indices = np.arange(_N)
    benchmark(sampler.sample, rng, indices)
    _persist(benchmark, "zipf_heterogeneous_sampler")


def test_zeta_distribution_sample(benchmark):
    rng = np.random.default_rng(0)
    law = ZetaJumpDistribution(2.5)
    benchmark(law.sample, rng, _N)
    _persist(benchmark, "zeta_distribution_sample")


def test_ring_offset_sampler(benchmark):
    rng = np.random.default_rng(0)
    distances = np.random.default_rng(1).integers(0, 1000, _N)
    benchmark(sample_ring_offsets, distances, rng)
    _persist(benchmark, "ring_offset_sampler")


def test_direct_path_marginal_sampler(benchmark):
    rng = np.random.default_rng(0)
    starts = np.zeros((_N, 2), dtype=np.int64)
    ends = sample_ring_offsets(np.full(_N, 500, dtype=np.int64), rng)
    rings = np.random.default_rng(2).integers(0, 501, _N)
    benchmark(sample_direct_path_nodes, starts, ends, rings, rng)
    _persist(benchmark, "direct_path_marginal_sampler")


def test_walk_engine_end_to_end(benchmark):
    law = ZetaJumpDistribution(2.5)
    get_table(law.alpha, law.lazy_probability, law.cap)  # build outside the timer

    def run():
        rng = np.random.default_rng(3)
        return walk_hitting_times(law, (24, 12), horizon=1_000, n=2_000, rng=rng)

    sample = benchmark(run)
    _persist(benchmark, "walk_engine_end_to_end")
    _persist(benchmark, "walk_engine_end_to_end_fused")
    assert sample.n == 2_000


def test_walk_engine_end_to_end_legacy(benchmark):
    """The frozen pre-fusing walk engine, for the paired comparison."""
    law = ZetaJumpDistribution(2.5)

    def run():
        rng = np.random.default_rng(3)
        with legacy_sampling():
            return legacy_walk_hitting_times(
                law, (24, 12), horizon=1_000, n=2_000, rng=rng
            )

    sample = benchmark(run)
    _persist(benchmark, "walk_engine_end_to_end_legacy")
    assert sample.n == 2_000


def test_flight_engine_end_to_end(benchmark):
    law = ZetaJumpDistribution(2.5)

    def run():
        rng = np.random.default_rng(4)
        return flight_hitting_times(law, (8, 4), horizon=200, n=2_000, rng=rng)

    sample = benchmark(run)
    _persist(benchmark, "flight_engine_end_to_end")
    assert sample.n == 2_000


def test_ball_target_engine(benchmark):
    from repro.engine.ball_targets import ball_hitting_times

    law = ZetaJumpDistribution(2.5)
    get_table(law.alpha, law.lazy_probability, law.cap)  # build outside the timer

    def run():
        rng = np.random.default_rng(5)
        return ball_hitting_times(law, (24, 12), radius=4, horizon=1_000, n=2_000, rng=rng)

    sample = benchmark(run)
    _persist(benchmark, "ball_target_engine")
    _persist(benchmark, "ball_target_engine_fused")
    assert sample.n == 2_000


def test_ball_target_engine_legacy(benchmark):
    """The frozen pre-fusing ball engine, for the paired comparison."""
    law = ZetaJumpDistribution(2.5)

    def run():
        rng = np.random.default_rng(5)
        with legacy_sampling():
            return legacy_ball_hitting_times(
                law, (24, 12), radius=4, horizon=1_000, n=2_000, rng=rng
            )

    sample = benchmark(run)
    _persist(benchmark, "ball_target_engine_legacy")
    assert sample.n == 2_000


def test_multi_target_engine(benchmark):
    from repro.engine.multi_target import multi_target_search, scatter_poisson_field

    law = ZetaJumpDistribution(2.5)
    field = scatter_poisson_field(0.01, 40, np.random.default_rng(6))

    def run():
        rng = np.random.default_rng(7)
        return multi_target_search(law, field, horizon=2_000, n=32, rng=rng)

    result = benchmark(run)
    _persist(benchmark, "multi_target_engine")
    assert result.n_items == field.shape[0]


# ------------------------------------------------ one loop vs per-round loop

#: The engine-widths shapes: ell = 24, horizon ell**2, alpha = 2.6.
_WIDTH_LAW = ZetaJumpDistribution(2.6)
_WIDTH_TARGET = (16, 8)
_WIDTH_HORIZON = 24 * 24
_WIDTH_FIELD = [(16, 8), (-9, 11), (4, -20)]
#: (class, engine, n, paired repeats)
_WIDTH_CLASSES = (
    ("walk_n1", "walk", 1, 301),
    ("walk_n250", "walk", 250, 61),
    ("walk_n2000", "walk", 2000, 21),
    ("walk_n20000", "walk", 20000, 7),
    ("flight", "flight", 2000, 21),
    ("ball", "ball", 2000, 21),
    ("multi_target", "multi_target", 1000, 21),
)


def _width_pair(engine: str, n: int):
    """``(one_loop(seed), round_loop(seed))`` callables for one class."""
    law, target, horizon = _WIDTH_LAW, _WIDTH_TARGET, _WIDTH_HORIZON
    if engine == "walk":
        return (
            lambda s: walk_hitting_times(law, target, horizon=horizon, n=n, rng=s),
            lambda s: round_loop_walk_hitting_times(law, target, horizon=horizon, n=n, rng=s),
        )
    if engine == "flight":
        return (
            lambda s: flight_hitting_times(law, target, horizon=horizon, n=n, rng=s),
            lambda s: round_loop_flight_hitting_times(law, target, horizon=horizon, n=n, rng=s),
        )
    if engine == "ball":
        # The frozen ball twin is the pre-fusing loop, under its sampler.
        def frozen_ball(s):
            with legacy_sampling():
                return legacy_ball_hitting_times(
                    law, target, radius=2, horizon=horizon, n=n, rng=s
                )

        return (
            lambda s: ball_hitting_times(law, target, radius=2, horizon=horizon, n=n, rng=s),
            frozen_ball,
        )
    field = _WIDTH_FIELD
    return (
        lambda s: multi_target_search(law, field, horizon=horizon, n=n, rng=s),
        lambda s: round_loop_multi_target_search(law, field, horizon=horizon, n=n, rng=s),
    )


def _paired_seconds(one, other, repeats: int):
    """Alternate the two callables; per-call seconds for each side."""
    times = ([], [])
    for rep in range(repeats):
        order = (0, 1) if rep % 2 == 0 else (1, 0)
        for side in order:
            fn = (one, other)[side]
            started = time.perf_counter()
            fn(rep)
            times[side].append(time.perf_counter() - started)
    return times


@pytest.mark.parametrize("cls,engine,n,repeats", _WIDTH_CLASSES)
def test_engine_width_one_loop_vs_round_loop(benchmark, cls, engine, n, repeats):
    get_table(_WIDTH_LAW.alpha, _WIDTH_LAW.lazy_probability, _WIDTH_LAW.cap)
    one, other = _width_pair(engine, n)
    one(0), other(0)  # warm both paths outside the timer
    one_s, round_s = benchmark.pedantic(
        _paired_seconds, args=(one, other, repeats), rounds=1, iterations=1
    )
    ratios = np.array(round_s) / np.array(one_s)
    record_bench("engine", {
        f"engine_width_{cls}_one_loop_seconds": float(np.median(one_s)),
        f"engine_width_{cls}_round_loop_seconds": float(np.median(round_s)),
        f"engine_width_{cls}_speedup": float(np.median(ratios)),
    })
