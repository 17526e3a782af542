"""Smoke test of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench/smoke.py -q

It runs every workload briefly in both modes and validates the result
line against ``BENCHMARK.json``, plants a one-spike output corruption and
a gradient corruption through benchmark-side wrappers and asserts that the
correctness checks fail the run, and checks that the command refuses to
run where there is no program.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = "0.5"


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", SECONDS,
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_schema(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, metric["name"]


@pytest.fixture
def bench_main(monkeypatch):
    """The runner's ``main``, imported in-process so a test can wrap
    program calls before it runs."""
    monkeypatch.syspath_prepend(str(HERE))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import run

    return run.main


def _last_result(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_one_flipped_output_spike_fails_the_run(bench_main, monkeypatch,
                                                capsys):
    import workloads
    from repro.serve.batcher import Ticket

    # Check every session, so one corrupted chunk is always replayed.
    monkeypatch.setattr(workloads, "CHECK_SESSIONS",
                        workloads.SATURATE_SESSIONS)
    state = {"armed": False, "flipped": False}
    complete = Ticket.complete
    measure = workloads.StreamSaturate.measure

    def armed_measure(self, *args, **kwargs):
        state["armed"] = True
        return measure(self, *args, **kwargs)

    def corrupting_complete(self, outputs, now):
        if state["armed"] and not state["flipped"]:
            outputs = outputs.copy()
            outputs[0, 0] = 1.0 - outputs[0, 0]
            state["flipped"] = True
        return complete(self, outputs, now)

    monkeypatch.setattr(workloads.StreamSaturate, "measure", armed_measure)
    monkeypatch.setattr(Ticket, "complete", corrupting_complete)
    code = bench_main(["--workload", "stream-saturate", "--seed", "3",
                       "--seconds", SECONDS, "--trace", "0"])
    result = _last_result(capsys)
    assert state["flipped"]
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_corrupted_gradient_fails_the_run(bench_main, monkeypatch, capsys):
    from repro.core import engine

    fused_backward = engine.fused_backward

    def corrupting_backward(*args, **kwargs):
        result = fused_backward(*args, **kwargs)
        result.weight_grads[0][0, 0] += 1e-3
        return result

    monkeypatch.setattr(engine, "fused_backward", corrupting_backward)
    code = bench_main(["--workload", "train-bptt", "--seed", "3",
                       "--seconds", SECONDS, "--trace", "0"])
    result = _last_result(capsys)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
