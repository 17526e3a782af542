"""The pair comparison of ``tools/bench_pairs.py`` (no benchmark runs)."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(correct=True, failed=0, exit_code=0, **metrics):
    return {"correct": correct, "failed": failed, "exit": exit_code,
            "metrics": {name: {"value": value}
                        for name, value in metrics.items()}}


END_TO_END = [
    {"name": "throughput_cps", "unit": "1/s", "better": "higher",
     "bound": 0.25},
    {"name": "latency_p99_ms", "unit": "ms", "better": "lower",
     "bound": 0.25},
    {"name": "rss_peak_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def test_medians_ratio_wins_and_bounds(bench_pairs):
    results = {
        "base": [result(throughput_cps=100.0, latency_p99_ms=10.0,
                        rss_peak_mb=100.0),
                 result(throughput_cps=120.0, latency_p99_ms=12.0,
                        rss_peak_mb=100.0),
                 result(throughput_cps=110.0, latency_p99_ms=11.0,
                        rss_peak_mb=100.0)],
        "change": [result(throughput_cps=70.0, latency_p99_ms=9.0,
                          rss_peak_mb=111.0),
                   result(throughput_cps=130.0, latency_p99_ms=13.0,
                          rss_peak_mb=112.0),
                   result(throughput_cps=80.0, latency_p99_ms=10.0,
                          rss_peak_mb=109.0)],
    }
    rows, flagged = bench_pairs.compare(results, END_TO_END)
    by_name = {row[0]: row for row in rows}
    name, unit, base, change, ratio, wins, pairs, flag = \
        by_name["throughput_cps"]
    assert (base, change, wins, pairs) == (110.0, 80.0, 1, 3)
    assert ratio == pytest.approx(80.0 / 110.0)
    assert flag                       # 27 % fewer chunks/s > 25 % bound
    assert by_name["latency_p99_ms"][5] == 2       # lower is better
    assert not by_name["latency_p99_ms"][7]
    assert by_name["rss_peak_mb"][7]  # +11 % > 10 % bound
    assert flagged == ["throughput_cps", "rss_peak_mb"]


def test_metrics_missing_on_a_side_are_skipped(bench_pairs):
    results = {"base": [result(throughput_cps=1.0)],
               "change": [result(latency_p99_ms=1.0)]}
    rows, flagged = bench_pairs.compare(results, END_TO_END)
    assert rows == [] and flagged == []


def test_bad_runs_reports_incorrect_failed_and_crashed(bench_pairs):
    results = {"base": [result(), result(correct=False)],
               "change": [result(failed=3), result(exit_code=1)]}
    assert bench_pairs.bad_runs(results) == [
        "base run 2: correct=False failed=0 exit=0",
        "change run 1: correct=True failed=3 exit=0",
        "change run 2: correct=True failed=0 exit=1",
    ]
