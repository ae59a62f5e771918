"""Tests of the pipeline benchmark's own rules, and a smoke run of every
workload.

    PYTHONPATH=src python -m pytest -q benchmarks/pipeline
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
import timing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- percentiles and op loops -----------------------------------------------
def test_nearest_rank_picks_observed_samples():
    values = [10, 1, 9, 2, 8, 3, 7, 4, 6, 5]
    assert timing.nearest_rank(values, 50) == 5
    assert timing.nearest_rank(values, 90) == 9
    assert timing.nearest_rank(values, 91) == 10
    assert timing.nearest_rank(values, 100) == 10
    assert timing.nearest_rank([7.5], 90) == 7.5


@pytest.mark.parametrize("values, percent", [([], 50), ([1.0], 0),
                                              ([1.0], 101)])
def test_nearest_rank_rejects_bad_input(values, percent):
    with pytest.raises(ValueError):
        timing.nearest_rank(values, percent)


def test_summary_carries_its_sample_count():
    summary = timing.Summary.of([5.0, 1.0, 3.0])
    assert (summary.n, summary.p50, summary.p90) == (3, 3.0, 5.0)


def test_run_ops_count_floor_and_cap():
    _, results, calibrations = timing.run_ops(lambda index: index, 4)
    assert results == [0, 1, 2, 3]
    assert len(calibrations) == 4 and min(calibrations) > 0
    # An elapsed window stops at the floor, a long one at the cap.
    _, results, _ = timing.run_ops(lambda index: index, 50, min_count=3,
                                   seconds=1e-9)
    assert results == [0, 1, 2]
    durations, results, _ = timing.run_ops(lambda index: index, 5,
                                           min_count=1, seconds=60)
    assert results == [0, 1, 2, 3, 4] and len(durations) == 5
    with pytest.raises(ValueError):
        timing.run_ops(lambda index: index, 2, min_count=3)


def test_host_scale_maps_the_reference_speed_to_one():
    assert timing.host_scale([timing.CALIBRATION_REF_S]) == 1.0
    assert timing.host_scale([2 * timing.CALIBRATION_REF_S, 1.0, 1e-9]) \
        == 0.5
    assert timing.scaled(3.0, 2 * timing.CALIBRATION_REF_S) \
        == pytest.approx(1.5)


@pytest.mark.parametrize("every_s, expected", [(0.01, 5.0), (60.0, 1.0)])
def test_calibrated_samples_the_host_while_the_call_runs(monkeypatch,
                                                         every_s, expected):
    # Samples read 1.0 outside the call and 5.0 inside it; the median
    # follows the inside ones once there are enough of them.
    inside = False

    def busy():
        nonlocal inside
        inside = True
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
        inside = False
        return "done"

    monkeypatch.setattr(timing, "calibration_s",
                        lambda: 5.0 if inside else 1.0)
    monkeypatch.setattr(timing, "SAMPLE_EVERY_S", every_s)
    seconds, calibration, result = timing.calibrated(busy)
    assert (calibration, result) == (expected, "done")
    assert 0.15 < seconds < 0.5


def test_median_setup_times_every_repeat():
    states = iter(range(3))
    seconds, state = timing.median_setup(lambda: next(states), repeats=3)
    assert state == 2 and seconds >= 0


# -- compare ----------------------------------------------------------------
STEADY = [100.0, 101.0, 99.0, 100.0]


@pytest.mark.parametrize("after, better, verdict", [
    ([100.0, 100.5, 99.5, 100.0], "lower", "unchanged"),
    ([110.0, 111.0, 109.0, 110.0], "lower", "regressed"),
    ([110.0, 111.0, 109.0, 110.0], "higher", "improved"),
    ([90.0, 91.0, 89.0, 90.0], "lower", "improved"),
    ([90.0, 91.0, 89.0, 90.0], "higher", "regressed"),
    ([100.0, 130.0, 70.0, 100.0], "lower", "unresolved"),
    ([100.0], "lower", "unresolved"),
])
def test_judge_is_direction_aware_and_spread_aware(after, better, verdict):
    assert compare.judge(STEADY, after, better, 0.05)[1] == verdict


def _results(value_of):
    return {"runs": [
        {"workload": workload["name"], "seed": seed, "trace": 0,
         "result": {"metrics": {
             metric["name"]: {"value": value_of(workload["name"],
                                                metric["name"]) + seed * 1e-6,
                              "unit": metric["unit"]}
             for metric in BENCHMARK["end_to_end"]}}}
        for workload in BENCHMARK["workloads"] for seed in range(3)]}


def test_compare_exits_1_only_on_a_regression(tmp_path):
    before, same, slower = (tmp_path / f"{name}.json"
                            for name in ("before", "same", "slower"))
    before.write_text(json.dumps(_results(lambda w, m: 100.0)))
    same.write_text(json.dumps(_results(lambda w, m: 100.0)))
    slower.write_text(json.dumps(_results(
        lambda w, m: 150.0 if (w, m) == ("deploy-5nf", "op_ms_p50")
        else 100.0)))
    assert compare.main([str(before), str(same)]) == 0
    assert compare.main([str(before), str(slower)]) == 1


# -- BENCHMARK.json ---------------------------------------------------------
def test_benchmark_names_are_well_formed_and_implemented():
    names = [entry["name"] for key in ("workloads", "end_to_end",
                                       "per_layer")
             for entry in BENCHMARK[key]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


# -- workloads --------------------------------------------------------------
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_two_op_smoke(name):
    workload = WORKLOADS[name]
    state = workload.setup(0)
    results = [workload.op(state, index) for index in range(2)]
    for result in results:
        assert workload.problems(state, result) == []
    assert workload.gate(state, results) == {}
    sim = workload.sim_metrics(state, results)
    assert all(math.isfinite(value) for value in sim.values())


def _run(cwd, *args):
    return subprocess.run([sys.executable, "benchmarks/pipeline/run.py",
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def test_a_pass_ends_with_the_result_line():
    done = _run(ROOT, "--workload", "kernel-saturated", "--seed", "1",
                "--seconds", "0.1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == WORKLOADS["kernel-saturated"].min_ops
    assert set(result["metrics"]) == {m["name"]
                                      for m in BENCHMARK["end_to_end"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "pipeline",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    done = _run(tmp_path, "--workload", "deploy-5nf", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0 and done.stdout == ""
