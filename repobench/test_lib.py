"""Tests of the benchmark's own logic (no workload is run).

    python -m pytest repobench/test_lib.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import lib

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# ------------------------------------------------------------- generators


def test_engine_calls_are_a_pure_function_of_the_seed():
    assert lib.engine_calls(7) == lib.engine_calls(7)
    assert lib.engine_calls(7) != lib.engine_calls(8)


def test_engine_work_is_the_same_at_every_seed():
    def work(calls):
        return sorted((c["cls"], c["alpha"], c["n"]) for c in calls)

    assert work(lib.engine_calls(1)) == work(lib.engine_calls(99))
    classes = {c["cls"] for c in lib.engine_calls(1)}
    assert classes == set(lib.ENGINE_CLASSES)


def test_serve_stream_is_a_pure_function_of_the_seed():
    assert lib.serve_stream(3) == lib.serve_stream(3)
    assert lib.serve_stream(3) != lib.serve_stream(4)
    assert lib.serve_stream(3, 1) != lib.serve_stream(3, 0)


def test_serve_stream_refines_the_fixed_key_grid_at_every_seed():
    def refined(lanes):
        return sorted(
            json.dumps(e["request"], sort_keys=True)
            for lane in lanes for e in lane if e["kind"] == "refine"
        )

    grid, theory = lib.serve_keys()
    for seed in range(5):
        lanes = lib.serve_stream(seed)
        keys = set(refined(lanes))
        assert keys == {json.dumps(r, sort_keys=True) for r in grid}
        assert lib.stream_counts(lanes) == lib.stream_counts(lib.serve_stream(0))
    assert lib.stream_counts(lib.serve_stream(0)) == {
        "refine": len(grid) + lib.SERVE_PAIRS,
        "coalesced": 2 * lib.SERVE_PAIRS,
        "theory": len(theory),
        "repeat": len(grid),
    }


@pytest.mark.parametrize("seed", range(6))
def test_serve_stream_runs_lockstep_rounds_and_repeats_follow_their_answer(seed):
    lanes = lib.serve_stream(seed)
    assert [e["kind"] for e in lanes[0]] == [e["kind"] for e in lanes[1]]
    for left, right in zip(*lanes):
        assert ("pair" in left) == ("pair" in right)
        if "pair" in left:
            assert left == right
    assert sorted(e["pair"] for e in lanes[0] if "pair" in e) == list(range(lib.SERVE_PAIRS))
    for lane in lanes:
        answered = set()
        for entry in lane:
            key = json.dumps(entry["request"], sort_keys=True)
            if entry["kind"] == "repeat":
                assert key in answered
            elif entry["kind"] == "refine":
                answered.add(key)


# ------------------------------------------------------------ metric rules


def test_tail_percentile_keeps_ten_samples_beyond():
    assert lib.tail_percentile(list(range(10))) is None
    percentile, value, n = lib.tail_percentile(list(range(11)))
    assert (value, n) == (0.0, 11)
    assert percentile == pytest.approx(100.0 / 11)
    values = [float(v) for v in range(40, 0, -1)]
    percentile, value, n = lib.tail_percentile(values)
    assert (percentile, n) == (75.0, 40)
    assert sum(v > value for v in values) == 10


def test_failures_are_counted_against_attempts():
    tally = lib.Tally()
    assert not tally.correct  # nothing attempted is not a pass
    tally.op(True, "a")
    tally.op(False, "a", "detail")
    tally.op(True, "b")
    assert (tally.attempted, tally.failed) == (3, 1)
    assert tally.checks == {"a": [1, 2], "b": [1, 1]}
    assert tally.failures == ["a: detail"]
    assert not tally.correct
    clean = lib.Tally()
    clean.op(True, "a")
    assert clean.correct


def _values_for(workload):
    values = {name: 1.5 for name in lib.END_TO_END}
    values.update({
        name: 2.5 for name, (_, _, crossed) in lib.PER_LAYER.items() if workload in crossed
    })
    return values


@pytest.mark.parametrize("workload", lib.WORKLOADS)
def test_metric_selection_per_workload(workload):
    untraced = lib.select_metrics(workload, False, _values_for(workload))
    assert set(untraced) == {m["name"] for m in SPEC["end_to_end"]}
    traced = lib.select_metrics(workload, True, _values_for(workload))
    assert set(traced) == {m["name"] for m in SPEC["per_layer"]}
    for name, (_, _, crossed) in lib.PER_LAYER.items():
        assert (traced[name]["value"] != 0.0) == (workload in crossed), name
    with pytest.raises(KeyError):
        lib.select_metrics(workload, False, {})


@pytest.mark.parametrize("workload", lib.WORKLOADS)
def test_report_prints_only_the_workloads_own_metrics(workload):
    values = {name: 1.0 for name in lib.REPORT_UNITS}
    printed = {line.split()[0] for line in lib.report_lines(workload, values, {})}
    assert printed == set(lib.REPORT_METRICS[workload])
    for other, names in lib.REPORT_METRICS.items():
        if other != workload:
            assert not (printed & (set(names) - set(lib.REPORT_METRICS[workload])))


def test_benchmark_json_matches_the_metric_tables():
    assert [w["name"] for w in SPEC["workloads"]] == list(lib.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == lib.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in lib.PER_LAYER.items()
    }


def test_ledger_flags_counts_that_change_at_one_seed(tmp_path):
    path = tmp_path / "ledger" / "w.json"
    assert lib.ledger_check(path, {"walks": 10, "per": [1, 2]}) is None
    assert lib.ledger_check(path, {"per": [1, 2], "walks": 10}) is None
    assert lib.ledger_check(path, {"walks": 11, "per": [1, 2]}) == {"walks": 10, "per": [1, 2]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "engine-widths",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
