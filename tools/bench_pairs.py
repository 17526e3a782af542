#!/usr/bin/env python
"""Alternating base/change pairs of the ``BENCHMARK.json`` benchmark.

One benchmark run is too noisy on a shared host to compare two commits,
so this tool runs *pairs*: for each pair it runs ``perfbench/run.py``
once in a checkout of ``--base`` and once in the working tree, swapping
which goes first from pair to pair so slow drift of the host cancels.
It then prints, per end-to-end metric of ``BENCHMARK.json``, the
medians of both sides, the change/base ratio and how many pairs the
change won, and flags every metric whose median got worse by more than
its declared bound.

Usage, from the repo root, with ``--base`` the commit the change is
built on::

    python tools/bench_pairs.py --base <base-commit> --pairs 5 \\
        --seconds 30 --workload stream-saturate

``--base`` is checked out into a temporary ``git worktree`` that is
removed afterwards.  Pair ``i`` runs both trees with seed ``--seed + i``;
another ``--seed`` gives an independent set of pairs.  The tool only
reads ``perfbench/`` and ``BENCHMARK.json`` (runs use ``--trace 0``,
which writes nothing).  It exits 1 when a run fails or is incorrect or a
metric is flagged, else 0.

``--claim METRIC`` also judges a claimed gain on one end-to-end metric
under the gain rule: at least ``MIN_PAIRS`` pairs, the change wins at
least ``WIN_SHARE`` of them (a tie is not a win), and the medians differ
in the better direction by more than the interquartile range of the
base's runs.  It prints both sides' quartiles and ``GAIN`` or
``NO GAIN``; a claim that is not met exits 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
#: The gain rule: enough pairs, nearly all won, a gap beyond the base IQR.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``tree``; its result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{tree}: no result line "
                           f"(exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    return result


def run_pairs(base: Path, change: Path, workload: str, pairs: int,
              seconds: float, seed: int, log=print) -> dict:
    """Alternate runs in both trees; returns ``{"base": [...], "change":
    [...]}`` result lines in pair order."""
    results = {"base": [], "change": []}
    for pair in range(pairs):
        order = (("base", base), ("change", change))
        if pair % 2:
            order = order[::-1]
        for side, tree in order:
            result = run_once(tree, workload, seed + pair, seconds)
            results[side].append(result)
            cps = result["metrics"].get("throughput_cps", {}).get("value")
            log(f"  pair {pair + 1}/{pairs} {side:6s} correct="
                f"{result['correct']} failed={result['failed']}"
                + (f" throughput_cps={cps:.0f}" if cps is not None else ""))
    return results


def compare(results: dict, end_to_end: list[dict]) -> tuple[list, list]:
    """Per-metric medians, ratio, pair wins and bound flags.

    Returns ``(rows, flagged)`` where each row is ``(name, unit, base
    median, change median, change/base, wins, pairs, flag)``.
    """
    rows, flagged = [], []
    for spec in end_to_end:
        name = spec["name"]
        base = [r["metrics"][name]["value"] for r in results["base"]
                if name in r["metrics"]]
        change = [r["metrics"][name]["value"] for r in results["change"]
                  if name in r["metrics"]]
        if not base or len(base) != len(change):
            continue
        higher = spec["better"] == "higher"
        wins = sum((c > b) if higher else (c < b)
                   for b, c in zip(base, change))
        base_med = statistics.median(base)
        change_med = statistics.median(change)
        ratio = change_med / base_med if base_med else float("nan")
        worse = (1.0 - ratio) if higher else (ratio - 1.0)
        flag = bool(base_med) and worse > spec["bound"]
        if flag:
            flagged.append(name)
        rows.append((name, spec["unit"], base_med, change_med, ratio,
                     wins, len(base), flag))
    return rows, flagged


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, linearly interpolated (numpy's default)."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def judge_claim(results: dict, spec: dict) -> dict:
    """The gain rule for the metric ``spec`` (a ``BENCHMARK.json``
    end-to-end entry); returns the numbers behind the verdict and the
    list of ``unmet`` conditions (empty: ``GAIN``)."""
    name = spec["name"]
    base = [r["metrics"][name]["value"] for r in results["base"]]
    change = [r["metrics"][name]["value"] for r in results["change"]]
    higher = spec["better"] == "higher"
    pairs = len(base)
    wins = sum((c > b) if higher else (c < b)
               for b, c in zip(base, change))
    base_q = quartiles(base)
    change_q = quartiles(change)
    gap = change_q[1] - base_q[1]
    iqr = base_q[2] - base_q[0]
    unmet = []
    if pairs < MIN_PAIRS:
        unmet.append(f"{pairs} pairs < {MIN_PAIRS}")
    if wins < WIN_SHARE * pairs:
        unmet.append(f"won {wins}/{pairs} < {WIN_SHARE:.0%}")
    if (gap if higher else -gap) <= iqr:
        unmet.append(f"median gap {gap:+.6g} within the base IQR {iqr:.6g}")
    return {"metric": name, "better": spec["better"], "pairs": pairs,
            "wins": wins, "base": base_q, "change": change_q, "gap": gap,
            "iqr": iqr, "unmet": unmet}


def claim_report(verdict: dict) -> str:
    def fmt(q):
        return "/".join(f"{v:.6g}" for v in q)

    lines = [f"claim {verdict['metric']} ({verdict['better']} is better): "
             f"q1/median/q3 base {fmt(verdict['base'])}, "
             f"change {fmt(verdict['change'])}",
             f"  won {verdict['wins']}/{verdict['pairs']}, median gap "
             f"{verdict['gap']:+.6g}, base IQR {verdict['iqr']:.6g}"]
    if verdict["unmet"]:
        lines.append(f"NO GAIN {verdict['metric']}: "
                     + "; ".join(verdict["unmet"]))
    else:
        lines.append(f"GAIN {verdict['metric']}")
    return "\n".join(lines)


def report(workload: str, results: dict, rows: list) -> str:
    lines = [f"== {workload}: {len(results['base'])} pairs",
             f"{'metric':16s} {'unit':>5s} {'base':>12s} {'change':>12s} "
             f"{'ratio':>7s} {'wins':>6s}"]
    for name, unit, base, change, ratio, wins, pairs, flag in rows:
        lines.append(f"{name:16s} {unit:>5s} {base:12.6g} {change:12.6g} "
                     f"{ratio:7.3f} {wins:>3d}/{pairs:<2d}"
                     + ("  PAST BOUND" if flag else ""))
    return "\n".join(lines)


def bad_runs(results: dict) -> list[str]:
    return [f"{side} run {index + 1}: correct={r['correct']} "
            f"failed={r['failed']} exit={r['exit']}"
            for side, runs in results.items()
            for index, r in enumerate(runs)
            if not r["correct"] or r["failed"] or r["exit"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="git ref of the commit the change is built on")
    parser.add_argument("--workload", required=True,
                        help="BENCHMARK.json workload name")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair (pair i uses seed+i)")
    parser.add_argument("--claim", metavar="METRIC",
                        help="judge a gain on this end-to-end metric "
                             "under the gain rule (exit 1 if not met)")
    args = parser.parse_args(argv)
    sys.stdout.reconfigure(line_buffering=True)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    known = sorted(w["name"] for w in spec["workloads"])
    if args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; known: {known}")
    claimed = {m["name"]: m for m in spec["end_to_end"]}.get(args.claim)
    if args.claim is not None and claimed is None:
        parser.error(f"--claim {args.claim!r} is not an end-to-end metric")

    base = Path(tempfile.mkdtemp(prefix="bench-base-"))
    try:
        subprocess.run(["git", "worktree", "add", "--detach", str(base),
                        args.base], cwd=REPO, check=True, capture_output=True)
        print(f"-- {args.workload}: base={args.base} change={REPO}")
        results = run_pairs(base, REPO, args.workload, args.pairs,
                            args.seconds, args.seed)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(base)],
                       cwd=REPO, capture_output=True)
        shutil.rmtree(base, ignore_errors=True)
    rows, flagged = compare(results, spec["end_to_end"])
    print(report(args.workload, results, rows))
    failures = bad_runs(results) + [f"{name} past its bound"
                                    for name in flagged]
    if claimed is not None:
        if bad_runs(results):
            print(f"NO GAIN {args.claim}: not every run was correct")
        else:
            verdict = judge_claim(results, claimed)
            print(claim_report(verdict))
            failures += [f"claim: {line}" for line in verdict["unmet"]]
    for line in failures:
        print(f"FAIL {args.workload}: {line}")
    return 1 if failures else 0

if __name__ == "__main__":
    sys.exit(main())
