"""Command-line entry point: ``repro-exp`` / ``python -m repro.experiments``.

Usage::

    repro-exp list                 # show all experiment ids
    repro-exp run fig7             # run one experiment, print its report
    repro-exp run table2-shd --profile full
    repro-exp run-all              # run everything (CI profile)
    repro-exp harness smoke        # scenario grid -> run_table.csv
"""

from __future__ import annotations

import argparse
import sys
import time

from .harness import PRESETS
from .registry import EXPERIMENTS, run_experiment

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-exp",
        description="Regenerate the tables and figures of 'Neuromorphic "
                    "Algorithm-hardware Codesign for Temporal Pattern "
                    "Learning' (DAC 2021).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiment ids")

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment_id", choices=sorted(EXPERIMENTS))
    run.add_argument("--profile", choices=["ci", "full"], default=None,
                     help="scale profile (default: REPRO_PROFILE or ci)")

    run_all = sub.add_parser("run-all", help="run every experiment")
    run_all.add_argument("--profile", choices=["ci", "full"], default=None)

    harness = sub.add_parser(
        "harness",
        help="run a declarative scenario preset into one run table")
    harness.add_argument("preset", choices=sorted(PRESETS),
                         help="scenario grid to expand and execute "
                              "(see docs/experiments.md)")
    harness.add_argument("--table", default="run_table.csv",
                         help="run-table CSV output path "
                              "(default: run_table.csv)")
    harness.add_argument("--trace-dir", default=None,
                         help="switch telemetry on and export per-run "
                              "JSONL traces + Prometheus snapshots into "
                              "this directory (see docs/observability.md)")
    return parser


def _stopwatch(timer=time.perf_counter):
    """Elapsed-seconds closure over an injectable timer.

    Operator progress display only — never a measurement; results come
    from the harness's own injectable timers.
    """
    started = timer()
    return lambda: timer() - started


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        width = max(len(i) for i in EXPERIMENTS)
        for spec in EXPERIMENTS.values():
            print(f"{spec.experiment_id:<{width}}  {spec.paper_artifact:<22}"
                  f"  {spec.description}")
        return 0
    if args.command == "run":
        elapsed = _stopwatch()
        result = run_experiment(args.experiment_id, args.profile)
        print(result.render())
        print(f"\n[{args.experiment_id} finished in {elapsed():.1f}s]")
        return 0
    if args.command == "run-all":
        for experiment_id in EXPERIMENTS:
            elapsed = _stopwatch()
            result = run_experiment(experiment_id, args.profile)
            print("=" * 78)
            print(result.render())
            print(f"[{experiment_id}: {elapsed():.1f}s]")
        return 0
    if args.command == "harness":
        from .harness import preset_scenarios, run_scenarios

        elapsed = _stopwatch()
        table = run_scenarios(preset_scenarios(args.preset), log=print,
                              trace_dir=args.trace_dir)
        table.write_csv(args.table)
        print(f"wrote {args.table} ({len(table)} rows, {elapsed():.1f}s)")
        if args.trace_dir:
            print(f"wrote telemetry artifacts to {args.trace_dir}/")
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
