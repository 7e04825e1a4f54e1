"""The engines' one round loop: determinism and law conformance.

The staged block loop (:mod:`repro.engine.ring`) consumes the generator
in a different *order* than a per-round loop whenever a block spans more
than one round, so the contract against the frozen per-round loops of
``benchmarks/legacy_engines.py`` is equivalence in law, not
bit-identity -- except at depth 1, where the block loop does exactly a
per-round loop's draws and must reproduce it bit for bit.

Every law gate is a two-sample chi-square homogeneity test at a fixed
seed with per-test level 1e-3; the depths are pinned through the inner
loop's private ``depth`` parameter (1, an intermediate depth and
``MAX_DEPTH``), in both detection modes and for all four engines.
Worker-count bit-identity is covered by the runner and sweep suites.
"""

import functools
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from repro.distributions.zeta import ZetaJumpDistribution
from repro.engine.ball_targets import ball_hitting_times
from repro.engine.results import CENSORED
from repro.engine.ring import MAX_DEPTH, hitting_times, multi_target_times
from repro.engine.samplers import HeterogeneousZetaSampler, HomogeneousSampler
from repro.engine.vectorized import flight_hitting_times, walk_hitting_times


def _load_frozen_engines():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "legacy_engines.py"
    spec = importlib.util.spec_from_file_location("legacy_engines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


frozen = _load_frozen_engines()

LAW = ZetaJumpDistribution(2.5)
TARGET = (5, 3)
HORIZON = 200
N = 4_000
DEPTHS = (1, 8, MAX_DEPTH)
ALPHA = 1e-3


def _walk(seed, **kw):
    return walk_hitting_times(
        LAW, TARGET, horizon=HORIZON, n=N, rng=np.random.default_rng(seed), **kw
    )


def _frozen_walk(seed, **kw):
    return frozen.round_loop_walk_hitting_times(
        LAW, TARGET, horizon=HORIZON, n=N, rng=np.random.default_rng(seed), **kw
    )


def _pinned(seed, depth, *, center=TARGET, radius=0, detect=True, flight=False,
            horizon=HORIZON, sampler=None):
    return hitting_times(
        sampler if sampler is not None else HomogeneousSampler(LAW),
        center,
        radius=radius,
        horizon=horizon,
        n=N,
        rng=np.random.default_rng(seed),
        start=(0, 0),
        detect_during_jump=detect and not flight,
        unit_steps=flight,
        engine="walk",
        depth=depth,
    )


# -------------------------------------------------------------- determinism


def test_ring_walk_is_deterministic_per_seed():
    np.testing.assert_array_equal(_walk(7).times, _walk(7).times)


def test_ring_walk_differs_from_legacy_stream():
    # Narrow widths run deep blocks, which reorder the draws: equality
    # would mean the loop never staged more than one round.
    assert not np.array_equal(_walk(7).times, _frozen_walk(7).times)


def test_rounds_of_one_matches_legacy_dispatch():
    # Depth 1 is a per-round loop: same draws, same order, same sample.
    for detect in (True, False):
        np.testing.assert_array_equal(
            _pinned(7, 1, detect=detect), _frozen_walk(7, detect_during_jump=detect).times
        )
    flights = frozen.round_loop_flight_hitting_times(
        LAW, TARGET, horizon=60, n=N, rng=np.random.default_rng(8)
    )
    np.testing.assert_array_equal(_pinned(8, 1, flight=True, horizon=60), flights.times)


def test_start_on_target_short_circuits_before_delegation():
    sample = _walk(7, start=TARGET)
    assert np.all(sample.times == 0)


def test_block_depth_follows_the_live_width():
    from repro.engine.ring import BLOCK_BUDGET, block_depth

    assert block_depth(1) == MAX_DEPTH
    assert block_depth(BLOCK_BUDGET // 8) == min(8, MAX_DEPTH)
    assert block_depth(BLOCK_BUDGET) == 1
    assert block_depth(20 * BLOCK_BUDGET) == 1
    assert block_depth(0) == MAX_DEPTH


# ------------------------------------------------------------ law equivalence


def _chi2_homogeneity(a: np.ndarray, b: np.ndarray, edges) -> float:
    """p-value of the two-sample chi-square homogeneity test on ``edges``."""
    ca, _ = np.histogram(a, bins=edges)
    cb, _ = np.histogram(b, bins=edges)
    keep = (ca + cb) >= 10  # merge ultra-sparse cells away
    table = np.vstack([ca[keep], cb[keep]])
    return float(stats.chi2_contingency(table).pvalue)


def _edges(horizon=HORIZON):
    # Geometric time bins over [1, horizon] plus a censored-mass cell.
    bins = np.unique(np.geomspace(1, horizon + 1, 12).astype(int))
    return np.concatenate([[CENSORED - 0.5], bins.astype(float)])


def _flight_edges(horizon=60):
    return np.concatenate([[CENSORED - 0.5], np.arange(1, horizon + 2, 6, dtype=float)])


@pytest.mark.parametrize("detect", [True, False])
def test_walk_ring_matches_legacy_in_law(detect):
    legacy = _frozen_walk(11, detect_during_jump=detect)
    ring = _walk(12, detect_during_jump=detect)
    assert _chi2_homogeneity(legacy.times, ring.times, _edges()) > ALPHA


def test_flight_ring_matches_legacy_in_law():
    legacy = frozen.round_loop_flight_hitting_times(
        LAW, TARGET, horizon=60, n=N, rng=np.random.default_rng(21)
    )
    ring = flight_hitting_times(LAW, TARGET, horizon=60, n=N, rng=np.random.default_rng(22))
    assert _chi2_homogeneity(legacy.times, ring.times, _flight_edges()) > ALPHA


def _frozen_ball(seed, detect):
    return frozen.legacy_ball_hitting_times(
        LAW, (9, 6), radius=2, horizon=HORIZON, n=N,
        rng=np.random.default_rng(seed), detect_during_jump=detect,
    )


@pytest.mark.parametrize("detect", [True, False])
def test_ball_ring_matches_legacy_in_law(detect):
    ring = ball_hitting_times(
        LAW, (9, 6), radius=2, horizon=HORIZON, n=N,
        rng=np.random.default_rng(32), detect_during_jump=detect,
    )
    legacy = _frozen_ball(31, detect)
    assert _chi2_homogeneity(legacy.times, ring.times, _edges()) > ALPHA


def test_ring_hit_rate_tracks_legacy():
    legacy = _frozen_walk(41)
    ring = _walk(42)
    p_legacy = np.mean(legacy.times != CENSORED)
    p_ring = np.mean(ring.times != CENSORED)
    # Two-proportion z-gate, generous: 5 sigma of the pooled std error.
    pooled = (p_legacy + p_ring) / 2
    sigma = np.sqrt(2 * pooled * (1 - pooled) / N)
    assert abs(p_legacy - p_ring) < 5 * sigma + 1e-9


# ------------------------------------------------------- pinned block depths


@pytest.mark.parametrize("detect", [True, False])
@pytest.mark.parametrize("depth", DEPTHS)
def test_walk_law_at_pinned_depth(depth, detect):
    legacy = _frozen_walk(51, detect_during_jump=detect)
    ring = _pinned(52 + depth, depth, detect=detect)
    assert _chi2_homogeneity(legacy.times, ring, _edges()) > ALPHA


@pytest.mark.parametrize("depth", DEPTHS)
def test_flight_law_at_pinned_depth(depth):
    legacy = frozen.round_loop_flight_hitting_times(
        LAW, TARGET, horizon=60, n=N, rng=np.random.default_rng(61)
    )
    ring = _pinned(62 + depth, depth, flight=True, horizon=60)
    assert _chi2_homogeneity(legacy.times, ring, _flight_edges()) > ALPHA


@pytest.mark.parametrize("detect", [True, False])
@pytest.mark.parametrize("depth", DEPTHS)
def test_ball_law_at_pinned_depth(depth, detect):
    legacy = _frozen_ball(71, detect)
    ring = _pinned(72 + depth, depth, center=(9, 6), radius=2, detect=detect)
    assert _chi2_homogeneity(legacy.times, ring, _edges()) > ALPHA


def test_per_walk_exponents_at_deep_blocks():
    # Deep blocks tile the walk ids across rounds; a per-walk sampler
    # must still give every walk its own exponent.
    alphas = np.where(np.arange(N) % 2 == 0, 2.2, 2.9)
    legacy = frozen.round_loop_walk_hitting_times(
        HeterogeneousZetaSampler(alphas), TARGET, horizon=HORIZON, n=N,
        rng=np.random.default_rng(81),
    )
    ring = _pinned(82, MAX_DEPTH, sampler=HeterogeneousZetaSampler(alphas))
    for parity in (0, 1):
        assert _chi2_homogeneity(
            legacy.times[parity::2], ring[parity::2], _edges()
        ) > ALPHA


FIELD = np.array([(4, 2), (-3, 3), (4, 3)], dtype=np.int64)  # two share ring 6
FIELD_HORIZON, FIELD_CALLS, FIELD_WALKS = 150, 600, 8


def _field_cells(times: np.ndarray) -> np.ndarray:
    """Counts per (item, time bin) cell over many independent fields."""
    edges = _edges(FIELD_HORIZON)
    return np.concatenate(
        [np.histogram(times[:, i], bins=edges)[0] for i in range(len(FIELD))]
    )


@functools.lru_cache(maxsize=1)
def _frozen_field_cells() -> np.ndarray:
    rng = np.random.default_rng(91)
    return _field_cells(np.array([
        frozen.round_loop_multi_target_search(
            LAW, FIELD, horizon=FIELD_HORIZON, n=FIELD_WALKS, rng=rng
        )[0]
        for _ in range(FIELD_CALLS)
    ]))


@pytest.mark.parametrize("depth", DEPTHS)
def test_multi_target_law_at_pinned_depth(depth):
    # Per-item first-discovery times over many small independent fields,
    # compared as one (item, time bin) contingency table.
    sampler = HomogeneousSampler(LAW)
    rng = np.random.default_rng(92 + depth)
    ring = []
    for _ in range(FIELD_CALLS):
        best, _ = multi_target_times(
            sampler, FIELD, horizon=FIELD_HORIZON, n=FIELD_WALKS, rng=rng,
            start=(0, 0), depth=depth,
        )
        ring.append(np.where(best == np.iinfo(np.int64).max, CENSORED, best))
    table = np.vstack([_frozen_field_cells(), _field_cells(np.array(ring))])
    table = table[:, table.sum(axis=0) >= 10]
    assert stats.chi2_contingency(table).pvalue > ALPHA


def test_multi_target_ties_go_to_the_lowest_walk_id():
    # Walks drift apart in time, so a later block can find an item at the
    # step already recorded; the lower walk id must win either way.
    from repro.engine.ring import _record_best

    best_time = np.full(2, np.iinfo(np.int64).max)
    best_walk = np.full(2, -1)
    _record_best(np.array([0, 1]), np.array([9, 5]), np.array([7, 3]), best_time, best_walk)
    _record_best(
        np.array([0, 1, 0]), np.array([9, 8, 12]), np.array([2, 1, 0]), best_time, best_walk
    )
    assert best_time.tolist() == [9, 5]
    assert best_walk.tolist() == [2, 3]
