"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload stream-steady --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` alternates untraced and traced blocks and reports the
per-layer metrics instead, writing the spans to
``.bench_out/trace-<workload>-seed<seed>.jsonl``.  The program is
imported from ``src/`` of the same checkout.  The last line of standard
output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The command exits 1 when a correctness check fails (every operation of
the run then counts as failed) and 2 when the checkout holds no program.
"""

import os
import sys
import time

_START = time.perf_counter()

#: BLAS threads, pinned before numpy loads so that ambient settings do not
#: change the numbers; one thread fits every machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# The program reads a few REPRO_* settings (worker count, pool start
# method, experiment profile); none may leak in from the environment.
for _var in [v for v in os.environ if v.startswith("REPRO_")]:
    del os.environ[_var]

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
#: How many times set-up runs; ``setup_s`` takes the median.
SETUP_REPEATS = 3

E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "throughput_cps": "1/s",
    "slo_ratio": "ratio",
    "train_sps": "1/s",
    "step_p50_ms": "ms",
    "step_p90_ms": "ms",
    "rss_peak_mb": "MB",
}

LAYER_UNITS = {
    "serve.submit.calls": "count",
    "serve.submit.ms": "ms",
    "serve.poll.calls": "count",
    "serve.poll.ms": "ms",
    "serve.poll.self_ms": "ms",
    "serve.ticks": "count",
    "serve.batch_mean": "count",
    "serve.queue_wait_p95_ms": "ms",
    "serve.rejected": "count",
    "serve.failed": "count",
    "engine.copy_row.calls": "count",
    "engine.copy_row.ms": "ms",
    "network.run_stream.calls": "count",
    "network.run_stream.ms": "ms",
    "network.run_stream.self_ms": "ms",
    "engine.spike_matmul.calls": "count",
    "engine.spike_matmul.ms": "ms",
    "engine.spike_matmul.density": "ratio",
    "engine.exp_scan.calls": "count",
    "engine.exp_scan.ms": "ms",
    "trainer.train_batch.ms": "ms",
    "network.run.ms": "ms",
    "network.run.self_ms": "ms",
    "backprop.backward.ms": "ms",
    "backprop.backward.self_ms": "ms",
    "engine.spike_outer.ms": "ms",
    "engine.exp_scan_reverse.ms": "ms",
    "loss.value_and_grad.ms": "ms",
    "optim.step.ms": "ms",
    "workspace.hit_ratio": "ratio",
    "obs.histogram.samples": "count",
    "loadgen.late_p99_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.coverage_ratio": "ratio",
    "failed_ratio": "ratio",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _git_commit():
    """The checkout's commit, when it is a git work tree (read directly)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest() -> str:
    """SHA-256 over the program's source files, for checkouts without git."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas():
    """``(name, version, live thread count or None)`` of numpy's BLAS."""
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = int(getter())
                break
    return info.get("name"), info.get("version"), threads


def provenance() -> dict:
    import platform

    import numpy as np
    import scipy

    name, version, threads = _blas()
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": name,
        "blas_version": version,
        "blas_threads": threads,
        "blas_threads_pinned": BLAS_THREADS,
    }


def _quartiles(values):
    values = [float(v) for v in values]
    if not values:
        return None, None, None
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def _report(workload, metrics, units, samples, attempted, failed):
    """Human-readable table: each metric with the median, quartiles and
    count of the samples it was computed from."""
    print(f"workload {workload}: attempted={attempted} failed={failed}")
    print(f"{'metric':32s} {'unit':6s} {'value':>12s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'n':>7s}")
    for name, value in metrics.items():
        median, q1, q3 = _quartiles(samples.get(name, [value]))
        n = len(samples.get(name, [value]))
        cells = [f"{x:12.5g}" if x is not None else f"{'-':>12s}"
                 for x in (value, median, q1, q3)]
        print(f"{name:32s} {units[name]:6s} {' '.join(cells)} {n:7d}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # noqa: E402  (needs the program on sys.path)
    from spans import Tracer  # noqa: E402

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    imported = time.perf_counter() - _START
    tracer = None
    if args.trace:
        tracer = Tracer()
        workloads.install_layer_spans(tracer)

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = workloads.WORKLOADS[args.workload]()
        workload.prepare(args.seed, args.seconds)
        setups.append(time.perf_counter() - t0)
    # Park the import-time heap outside the collector, so that no 20 ms
    # full collection of module objects lands inside the timed window;
    # objects the run allocates are still collected as usual.
    gc.collect()
    gc.freeze()
    result = workload.measure(args.seconds, tracer)
    problems = workload.check()

    attempted, failed = result.attempted, result.failed
    if problems:
        failed = attempted
    if args.trace:
        metrics = {name: result.layers.get(name, 0.0) for name in LAYER_UNITS}
        metrics["failed_ratio"] = failed / attempted
        units, samples = LAYER_UNITS, {}
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(trace_path)
        print(f"spans: {len(tracer)} written to "
              f"{trace_path.relative_to(ROOT)}")
    else:
        setup = [imported + s for s in setups]
        metrics = {"setup_s": statistics.median(setup)}
        metrics.update(result.e2e)
        metrics["rss_peak_mb"] = (resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        units = E2E_UNITS
        samples = dict(result.samples, setup_s=setup)
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    _report(args.workload, metrics, units, samples, attempted, failed)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
