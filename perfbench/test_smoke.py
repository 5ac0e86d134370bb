"""Smoke tests for the benchmark: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checker  # noqa: E402
import run  # noqa: E402


def bench(script: str, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", sorted(run.workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_without_failures(workload, trace):
    out = bench(os.path.join(HERE, "run.py"), workload, trace)
    assert out.returncode == 0, out.stderr
    *_, report, result = out.stdout.strip().splitlines()
    report, result = json.loads(report)["report"], json.loads(result)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = dict(run.PER_LAYER if trace else run.END_TO_END)
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert report["fail_ratio"] == 0
    assert report["seed"] == 7 and report["machine"]["nproc"] >= 1


def test_without_bhr_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    out = bench(str(tmp_path / "perfbench" / "run.py"), "grow-ops", 0)
    assert out.returncode != 0
    assert out.stdout == ""


def test_checker_rejects_wrong_answers():
    counts = {1: 2, 2: 3, 3: 1}  # realized by 0 1 2 4 6 3 5
    assert checker.realizes([0, 1, 2, 4, 6, 3, 5], counts) is None
    assert checker.realizes([0, 1, 2, 4, 6, 3, 3], counts)
    assert checker.realizes([0, 1, 2, 4, 6, 5, 3], counts)
    assert checker.realizes([0, 1, 2, 4, 6, 3], counts)
    assert checker.admissible({1: 5})
    assert not checker.admissible({2: 5})  # 5 even lengths, v = 6
    assert not checker.admissible({4: 6})  # 4 > v/2 = 3


def test_scaled_times_follow_the_nearest_probes():
    import reference

    loop = run.Loop(None, None)
    slow, fast = 2 * reference.NOMINAL_S, reference.NOMINAL_S
    # a probe at every CPU second 0..9; the host runs at half speed
    # until second 4, then at full speed
    loop.probes = [(t, slow if t < 4 else fast) for t in range(10)]
    # one long call over seconds 0.5..3.5, then short ones
    loop.spans = [(0.5, 3.5), (3.5, 3.6), (6.5, 6.6), (8.5, 8.6)]
    loop.latencies = [1.0] * 4
    # the probes inside a call and three on either side: all slow for
    # the first, three slow and three fast around second 3.5, then fast
    expected = [0.5, 2 / 3, 1.0, 1.0]
    assert loop.scaled() == pytest.approx(expected)


def test_reference_work_is_fixed():
    import reference

    assert reference.work() == reference.CHECKSUM
    assert reference.probe() > 0


def test_throughput_counts_the_straddling_target_in_part():
    assert run.throughput([1.0, 1.0, 2.0], 3.0) == pytest.approx(2.5 / 3)
    assert run.throughput([1.0, 1.0], 3.0) == pytest.approx(1.0)
