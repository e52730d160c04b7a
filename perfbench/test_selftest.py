"""Self-test of the benchmark harness at tiny input sizes.

Every workload runs in both modes, every metric that BENCHMARK.json names
is emitted with its unit, and a failing input is counted rather than
dropped.  It checks that the harness works, not how fast the program is.

    python3 -m pytest perfbench
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run as bench  # noqa: E402
import workloads  # noqa: E402
from hostspeed import REFERENCES, SpeedLog  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
_results: dict = {}


def result(workload: str, trace: bool) -> tuple[dict, list[str]]:
    """One tiny run per (workload, mode), shared by the tests below."""
    if (workload, trace) not in _results:
        lines: list[str] = []
        res = bench.run(workload, seed=1, seconds=0.0, trace=trace, tiny=True, emit=lines.append)
        json.dumps(res)  # the result line must serialize
        _results[workload, trace] = res, lines
    return _results[workload, trace]


def test_benchmark_json_lists_the_runnable_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    res, _ = result(workload, trace)
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"] for m in listed} == set(res["metrics"])
    for m in listed:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]
    assert res["correct"] is True
    assert res["attempted"] >= 1


def test_divergent_coupling_counts_as_a_failed_op():
    # The tiny sweep holds the coupling (a=0, b1=3, T=1) on which the
    # mean-field fixed point diverges; it must show up as a failure.
    planted = workloads.MEANFIELD[0]
    assert planted["cost"]["a"] == 0.0 and planted["cost"]["meanfield"]["b1"] == 3.0
    for trace in (False, True):
        res, lines = result("solve_sweep", trace)
        fails = [ln for ln in lines if ln.startswith("FAIL")]
        assert res["failed"] == len(fails) >= 1
        assert any("meanfield" in ln and "ConvergenceError" in ln for ln in fails)
        assert res["correct"] is True  # a raised NumericsError is a failure, not a wrong output
    res, lines = result("solve_sweep", False)
    rate = next(ln for ln in lines if ln.split()[0] == "error_rate")
    assert float(rate.split()[1]) == pytest.approx(res["failed"] / res["attempted"], abs=1e-6)
    res, _ = result("solve_sweep", True)
    assert res["metrics"]["moments.meanfield_failed"]["value"] >= 1


def test_wrong_output_is_recorded_as_wrong(monkeypatch):
    ops = workloads.build_density(1, True, HERE).ops[:1]

    def wrong(tracer):
        raise workloads.CheckFailed("planted gap 1.0e+00")

    monkeypatch.setattr(ops[0], "run", wrong)
    speed = SpeedLog("loop")
    records, _ = bench.closed_loop(workloads, ops, Tracer(False), 0.0, speed)
    assert [r[1] for r in records] == ["wrong"]
    assert len(speed.samples) == len(records) + 1


def test_timings_are_divided_by_the_host_factor():
    records = [(None, "ok", lat, "") for lat in (1.0, 2.0, 3.0, 4.0)]
    got = bench.timings(records, [0.8, 0.6], [2.0] * 4, [2.0, 2.0], pass_size=4)
    assert got["op_p50_s"] == pytest.approx(1.25) and got["op_tail_s"] == 2.0
    assert got["ops_per_s"] == pytest.approx(4 / 5.0)
    assert got["setup_s"] == pytest.approx(0.35)
    speed = SpeedLog("loop")
    nominal = REFERENCES["loop"][1]
    speed.samples = [nominal * f for f in [1.0] * 5 + [2.0] * 10]
    assert speed.factor(0) == 1.0 and speed.factor(9) == 2.0
    near = SpeedLog("loop", window=1)
    near.samples = speed.samples
    assert near.factor(3) == 1.0 and near.factor(4) == pytest.approx(1.5)


def test_percentile_is_a_smooth_order_statistic():
    xs = [float(v) for v in range(1, 102)]
    assert bench.percentile(xs, 50.0) == pytest.approx(51.0)
    assert 75.0 < bench.percentile(xs, 75.0) < 77.0
    assert bench.percentile([3.0], 50.0) == 3.0
    assert bench.percentile(xs, 100.0) == 101.0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert bench.tail_percentile(40) == 75.0
    assert bench.tail_percentile(24) == 50.0
    assert bench.tail_percentile(5) == 100.0
    for n in (20, 24, 40, 69, 100, 1000):
        assert bench.beyond(n, bench.tail_percentile(n)) >= bench.MIN_BEYOND
