"""Determinism and scheduling properties of the declarative sweep API.

The contract under test (docs/sweep.md): a grid point's sample is a pure
function of ``(sweep seed, point index, n, n_chunks)`` -- identical
across in-process execution, a shared worker pool, and a
checkpoint-resumed rerun -- and per-point aggregation (bootstrap groups)
is reproducible from the point's analysis seed.
"""

import numpy as np
import pytest

from repro.engine.results import CENSORED
from repro.runner import CCRWTask, HittingTimeTask, Runner
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.scheduler import point_seeds
from repro.sweep.spec import default_task

SEED = 11


def make_spec():
    return SweepSpec(
        axes={"alpha": (2.2, 2.8), "l": (12, 20), "detect": (True, False)},
        n=240,
        horizon=lambda p: p["l"] ** 2,
        k=6,
        n_groups=40,
    )


@pytest.fixture(scope="module")
def serial():
    return run_sweep(make_spec(), seed=SEED)


# ------------------------------------------------------------- expansion


def test_expansion_order_and_policies():
    points = make_spec().expand()
    assert len(points) == 8
    # Last axis varies fastest (cartesian in declaration order).
    assert [p.params["detect"] for p in points[:2]] == [True, False]
    assert [p.params["alpha"] for p in points] == [2.2] * 4 + [2.8] * 4
    assert points[0].horizon == 144 and points[2].horizon == 400
    assert points[0].label == "point-0000"
    assert points[0].k == 6 and points[0].n_groups == 40


def test_where_filter_reindexes():
    spec = make_spec()
    filtered = SweepSpec(
        axes=spec.axes,
        n=spec.n,
        horizon=spec.horizon,
        where=lambda p: p["detect"],
    ).expand()
    assert len(filtered) == 4
    assert [p.index for p in filtered] == [0, 1, 2, 3]
    assert all(p.params["detect"] for p in filtered)


def test_zipped_mapping_axis_merges_params():
    spec = SweepSpec(
        axes={"cell": [{"k": 8, "l": 12}, {"k": 16, "l": 20}], "alpha": (2.5,)},
        n=10,
        horizon=100,
    )
    points = spec.expand()
    assert [(p.params["k"], p.params["l"]) for p in points] == [(8, 12), (16, 20)]


def test_default_task_reserved_axes():
    walk = default_task({"alpha": 2.5, "l": 12, "detect": False}, 144)
    assert isinstance(walk, HittingTimeTask)
    assert walk.detect_during_jump is False
    ccrw = default_task({"bout": 8.0, "l": 12}, 144)
    assert isinstance(ccrw, CCRWTask)
    assert ccrw.extensive_bout_mean == 8.0
    with pytest.raises(ValueError):
        default_task({"l": 12}, 144)
    with pytest.raises(ValueError):
        default_task({"alpha": 2.5}, 144)


def test_point_seeds_pure_in_seed_and_index():
    first = point_seeds(7, 5)
    again = point_seeds(7, 5)
    assert first == again
    # A prefix of a longer spawn is unchanged: adding points never
    # re-seeds existing ones.
    longer = point_seeds(7, 9)
    assert longer[:5] == first
    assert point_seeds(8, 5) != first


# ----------------------------------------------------------- determinism


def test_pooled_matches_serial(serial):
    pooled = run_sweep(make_spec(), seed=SEED, runner=Runner(workers=2))
    assert len(pooled) == len(serial)
    for a, b in zip(serial, pooled):
        np.testing.assert_array_equal(a.sample.times, b.sample.times)
        np.testing.assert_array_equal(a.parallel, b.parallel)


def test_resumed_matches_serial(tmp_path, serial):
    first = run_sweep(
        make_spec(), seed=SEED, runner=Runner(checkpoint_dir=tmp_path)
    )
    for a, b in zip(serial, first):
        np.testing.assert_array_equal(a.sample.times, b.sample.times)
    # Destroy a third of the durable chunks across several points, then
    # resume: the missing chunks are recomputed, the surviving ones
    # loaded, and the merged samples must be bit-identical regardless.
    destroyed = 0
    for payload in sorted(tmp_path.glob("*/chunks/chunk_*.npz"))[::3]:
        payload.unlink()
        payload.with_suffix(".json").unlink()
        destroyed += 1
    assert destroyed > 0
    resumed = run_sweep(
        make_spec(), seed=SEED, runner=Runner(checkpoint_dir=tmp_path, resume=True)
    )
    for a, b in zip(serial, resumed):
        np.testing.assert_array_equal(a.sample.times, b.sample.times)
        np.testing.assert_array_equal(a.parallel, b.parallel)
    assert any(r.outcome.resumed_chunks > 0 for r in resumed)


def test_analysis_seed_reproducible(serial):
    point = serial.results[0]
    np.testing.assert_array_equal(point.bootstrap(4, 25), point.bootstrap(4, 25))


# ------------------------------------------------------------ scheduling


def test_shared_pool_interleaves_and_aggregates(tmp_path):
    """All points share one runner: one pool, one checkpoint root."""
    runner = Runner(checkpoint_dir=tmp_path, workers=2, n_chunks=4)
    result = run_sweep(make_spec(), seed=SEED, runner=runner, label="grid")
    assert len(result) == 8
    assert not result.degraded and not result.interrupted
    # Every point's chunks landed under its own label in the shared root.
    directories = sorted(p.name for p in tmp_path.iterdir() if p.is_dir())
    assert directories == [f"grid-point-{i:04d}" for i in range(8)]


def test_group_minimum_aggregation_without_n_groups():
    spec = SweepSpec(
        axes={"alpha": (2.5,), "l": (12,)},
        n=120,
        horizon=144,
        k=8,
    )
    result = run_sweep(spec, seed=3)
    point = result.results[0]
    assert point.parallel is not None
    assert point.parallel.shape == (15,)  # 120 walks / k=8 exact blocks
    valid = (point.parallel == CENSORED) | (point.parallel >= 0)
    assert valid.all()


def test_summary_and_dict_roundtrip(serial):
    text = serial.summary_table().render()
    assert "alpha=2.2" in text and "complete" in text
    payload = serial.to_dict()
    assert payload["n_points"] == 8
    assert len(payload["points"]) == 8
    assert payload["points"][0]["completed_chunks"] == 8


def test_select_and_one(serial):
    assert len(serial.select(alpha=2.2)) == 4
    point = serial.one(alpha=2.2, l=12, detect=True)
    assert point.point.index == 0
    with pytest.raises(KeyError):
        serial.one(alpha=2.2)


def test_empty_grid():
    spec = SweepSpec(axes={"alpha": (2.5,)}, n=10, horizon=10, where=lambda p: False)
    result = run_sweep(spec, seed=0)
    assert len(result) == 0 and not result.degraded


def test_pool_workers_publish_engine_counters():
    """A complete sweep counts the same engine work at workers=0 and 2."""
    from repro import telemetry

    names = ("engine.steps_simulated", "engine.jumps_sampled")
    counts = []
    for workers in (0, 2):
        recorder = telemetry.TelemetryRecorder()
        with telemetry.use_recorder(recorder):
            run_sweep(make_spec(), seed=SEED, runner=Runner(n_chunks=3, workers=workers))
        snapshot = recorder.metrics.snapshot()
        counts.append({name: snapshot[name]["value"] for name in names})
    assert counts[0] == counts[1]
    assert counts[0]["engine.steps_simulated"] >= counts[0]["engine.jumps_sampled"] > 0


def test_converged_flag_agrees_serial_and_pooled():
    """The T1.5 point alpha=2.8, l=48 meets its CI target only on all 8 chunks.

    Such a run skipped no work, so it is not ``converged`` -- serial and
    pooled alike, whenever the pooled loop happens to poll the monitor.
    """
    import itertools

    from repro.analysis.streaming import StreamingProportion
    from repro.telemetry.convergence import ConvergenceConfig

    spec = SweepSpec(axes={"alpha": (2.8, 3.0), "l": (48,)}, n=8000,
                     horizon=lambda p: p["l"] ** 2)
    full = run_sweep(spec, seed=1, runner=Runner(n_chunks=8)).results[0]
    sizes = list(full.outcome.plan.sizes())
    chunk_times = np.split(full.sample.times, np.cumsum(sizes)[:-1])
    hits = [int((times != CENSORED).sum()) for times in chunk_times]

    def rel_width(chunks):
        proportion = StreamingProportion()
        proportion.update(sum(hits[i] for i in chunks), sum(sizes[i] for i in chunks))
        return proportion.rel_half_width

    target = rel_width(range(8)) * (1 + 1e-9)
    assert min(rel_width(c) for c in itertools.combinations(range(8), 7)) > target
    config = ConvergenceConfig(rel_ci_width=target)
    outcomes = []
    for workers in (0, 2):
        point = run_sweep(
            spec, seed=1, runner=Runner(n_chunks=8, workers=workers, convergence=config)
        ).results[0]
        np.testing.assert_array_equal(point.sample.times, full.sample.times)
        outcomes.append(point.outcome)
    assert [o.converged for o in outcomes] == [False, False]
    assert not any(o.degraded for o in outcomes)
