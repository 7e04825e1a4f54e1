"""Tests for the multi-target foraging engine."""

import numpy as np
import pytest

from repro.distributions.unit import ConstantJumpDistribution, UnitJumpDistribution
from repro.distributions.zeta import ZetaJumpDistribution
from repro.engine.multi_target import (
    ForagingResult,
    multi_target_search,
    scatter_poisson_field,
)
from repro.engine.results import CENSORED
from repro.engine.vectorized import walk_hitting_times


def test_item_at_start_collected_at_zero(rng):
    result = multi_target_search(
        ZetaJumpDistribution(2.5), [(0, 0), (5, 5)], horizon=50, n=3, rng=rng
    )
    assert result.discovery_times[0] == 0
    assert result.discoverer[0] == 0


def test_validation(rng):
    with pytest.raises(ValueError):
        multi_target_search(ZetaJumpDistribution(2.5), [(1, 2, 3)], horizon=10, n=2, rng=rng)
    with pytest.raises(ValueError):
        multi_target_search(ZetaJumpDistribution(2.5), [(1, 2)], horizon=-1, n=2, rng=rng)
    with pytest.raises(ValueError):
        multi_target_search(ZetaJumpDistribution(2.5), [(1, 2)], horizon=10, n=0, rng=rng)


def test_discovery_times_respect_distance(rng):
    targets = [(3, 0), (10, 10), (0, -4)]
    result = multi_target_search(
        ZetaJumpDistribution(2.2), targets, horizon=300, n=16, rng=rng
    )
    distances = [3, 20, 4]
    for time, distance in zip(result.discovery_times, distances):
        if time != CENSORED:
            assert time >= distance


def test_collected_properties(rng):
    result = multi_target_search(
        ZetaJumpDistribution(2.5), [(2, 1), (40, 40)], horizon=30, n=8, rng=rng
    )
    assert result.n_items == 2
    assert result.discovery_times[1] == CENSORED  # unreachable in 30 steps
    assert 0 <= result.n_collected <= 2
    assert result.collected_fraction == result.n_collected / 2


def test_collection_curve_monotone(rng):
    field = scatter_poisson_field(0.05, 12, rng)
    result = multi_target_search(
        ZetaJumpDistribution(2.5), field, horizon=400, n=12, rng=rng
    )
    curve = result.collection_curve([10, 50, 100, 400])
    assert list(curve) == sorted(curve)
    assert curve[-1] == result.n_collected


def test_collections_per_walk_sums(rng):
    field = scatter_poisson_field(0.05, 10, rng)
    result = multi_target_search(
        ZetaJumpDistribution(2.5), field, horizon=300, n=6, rng=rng
    )
    per_walk = result.collections_per_walk(6)
    assert per_walk.sum() == result.n_collected


def test_single_item_matches_single_target_engine(rng):
    """With one item and one walk, the multi-target engine's first-discovery
    law equals the single-target engine's hitting-time law."""
    target = (4, 2)
    horizon = 120
    n = 6_000
    law = ZetaJumpDistribution(2.4)
    multi_times = np.empty(n, dtype=np.int64)
    # Run n single-walk multi-target searches in batches via n=1.
    for i in range(0, n, 1000):
        batch = min(1000, n - i)
        for j in range(batch):
            result = multi_target_search(law, [target], horizon=horizon, n=1, rng=rng)
            multi_times[i + j] = result.discovery_times[0]
    single = walk_hitting_times(law, target, horizon=horizon, n=n, rng=rng)
    p_multi = float((multi_times != CENSORED).mean())
    gap = 4.0 * (p_multi * (1 - p_multi) / n + 0.25 / n) ** 0.5 + 1e-3
    assert abs(p_multi - single.hit_fraction) < gap


def test_multi_walk_first_discovery_is_min(rng):
    """k walks' first discovery of one item == parallel hitting time: check
    it is stochastically earlier than one walk's."""
    target = (6, 3)
    horizon = 200
    law = ZetaJumpDistribution(2.4)
    one = multi_target_search(law, [target] * 1, horizon=horizon, n=1, rng=rng)
    many_found = 0
    one_found = 0
    trials = 300
    for _ in range(trials):
        many = multi_target_search(law, [target], horizon=horizon, n=16, rng=rng)
        many_found += int(many.discovery_times[0] != CENSORED)
        solo = multi_target_search(law, [target], horizon=horizon, n=1, rng=rng)
        one_found += int(solo.discovery_times[0] != CENSORED)
    assert many_found > one_found
    del one


def test_same_ring_items_share_crossing(rng):
    """Two items on the same ring of a length-6 jump cannot both be hit in
    one phase; with a constant-6 law from the origin and horizon 6, the
    total hits over both items per run is at most 1.

    The second pair are the two tie candidates at ring 3 of a jump to
    (3, 3) (probability 1/24): one sampled crossing node per ring finds
    exactly one of them, where sampling each item's ring on its own
    would find both a quarter of the time."""
    law = ConstantJumpDistribution(6)
    for items, runs in (([(3, 0), (0, 3)], 400), ([(2, 1), (1, 2)], 2000)):
        both = 0
        for _ in range(runs):
            result = multi_target_search(law, items, horizon=6, n=1, rng=rng)
            found = result.discovery_times != CENSORED
            if found.all():
                both += 1
        assert both == 0


def test_unit_law_walk(rng):
    result = multi_target_search(
        UnitJumpDistribution(), [(1, 0), (0, 1)], horizon=40, n=4, rng=rng
    )
    assert result.n_collected >= 1


# ------------------------------------------------------------ field helper


def test_scatter_poisson_field_density(rng):
    field = scatter_poisson_field(0.5, 20, rng)
    # |B_20| - 1 = 840 candidate nodes; expect ~420 items.
    assert 320 <= field.shape[0] <= 520
    l1 = np.abs(field[:, 0]) + np.abs(field[:, 1])
    assert l1.max() <= 20
    assert l1.min() >= 1  # origin excluded


def test_scatter_poisson_field_origin_inclusion(rng):
    field = scatter_poisson_field(1.0, 3, rng, exclude_origin=False)
    assert field.shape[0] == 25  # |B_3| with density 1
    field2 = scatter_poisson_field(1.0, 3, rng)
    assert field2.shape[0] == 24


def test_scatter_poisson_field_validation(rng):
    with pytest.raises(ValueError):
        scatter_poisson_field(0.0, 5, rng)
    with pytest.raises(ValueError):
        scatter_poisson_field(0.5, 0, rng)


def test_foraging_result_dataclass():
    result = ForagingResult(
        targets=np.array([[1, 0]]),
        discovery_times=np.array([CENSORED]),
        discoverer=np.array([-1]),
        horizon=10,
    )
    assert result.n_collected == 0
    assert result.collected_fraction == 0.0
