#!/usr/bin/env python3
"""Run alternating parent/change pairs of ``perfbench/run.py`` from two
trees and write the paired results as one ``BENCH_*.json`` file.

Each pair runs the parent tree and the change tree once each on the same
workload and seed, back to back, every run a fresh process started in its
own tree::

    python3 perfbench/run.py --workload <workload> --seed <seed> --seconds <run_seconds> --trace 0

with ``run_seconds`` from ``BENCHMARK.json``. The side that runs first
alternates pair by pair over the whole batch, starting with the parent. A
run's value is the final JSON line it prints; its ``# measured`` lines (the
metrics before slowdown scaling, and the host slowdowns) are kept with it
under ``measured``. A run that exits non-zero is recorded in its pair by
its exit code and the tail of its stderr, the batch goes on, and the
summaries read only the pairs whose two runs completed.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload calibrate_sigma:3101-3110 --workload experiment_t1_easy:3111-3114 \\
        --claim calibrate_sigma:trials_per_s:1.2 --out BENCH_31.json

``BENCHMARK.json`` is read from the change tree. For every end-to-end metric
it declares, each workload's summary gives both sides' quartiles, the
pairs the change won (ties count for neither side), the parent's
interquartile range, the gap between the medians, and whether the change's
median stays within the metric's bound of the parent's. A metric whose
parent runs spread wider than the bound is also marked ``unresolved``
unless every change run is better than every parent run.

``--claim workload:metric:factor`` names the claimed gain. It is met when
the change wins at least nine tenths of the pairs, its median is better
than the parent's by more than the parent's interquartile range, and the
ratio of the medians, taken in the better direction (change over parent
for a metric where higher is better, parent over change otherwise), is at
least ``factor``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> list[float]:
    """First quartile, median and third quartile, interpolated linearly
    between order statistics (numpy's default percentile rule)."""
    if len(values) == 1:
        return [values[0]] * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def summarize(rows: list[tuple[float, float]], better: str, bound: float) -> dict:
    """One metric's summary over ``(parent, change)`` pairs of values."""
    sign = 1.0 if better == "higher" else -1.0
    parent = [p for p, _ in rows]
    change = [c for _, c in rows]
    pq, cq = quartiles(parent), quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in rows)
    parent_iqr = pq[2] - pq[0]
    within = sign * (cq[1] - pq[1]) >= -bound * abs(pq[1])
    return {
        "parent_q1_median_q3": pq,
        "change_q1_median_q3": cq,
        "rows_parent_change": [list(row) for row in rows],
        "change_wins": f"{wins}/{len(rows)}",
        "median_change_pct": 100.0 * (cq[1] / pq[1] - 1.0) if pq[1] else 0.0,
        "parent_iqr": parent_iqr,
        "median_gap": abs(cq[1] - pq[1]),
        "within_bound": within,
        "unresolved": parent_iqr > bound * abs(pq[1])
        and not min(sign * c for c in change) > max(sign * p for p in parent),
    }


def claim_verdict(summary: dict, better: str, factor: float) -> dict:
    """The claimed gain's verdict from its metric's ``summarize`` entry."""
    pq, cq = summary["parent_q1_median_q3"], summary["change_q1_median_q3"]
    wins, pairs = (int(n) for n in summary["change_wins"].split("/"))
    ratio = cq[1] / pq[1] if better == "higher" else pq[1] / cq[1]
    improvement = cq[1] - pq[1] if better == "higher" else pq[1] - cq[1]
    return {
        "parent_q1_median_q3": pq,
        "change_q1_median_q3": cq,
        "median_change_pct": summary["median_change_pct"],
        "median_ratio": ratio,
        "change_wins": summary["change_wins"],
        "parent_iqr": summary["parent_iqr"],
        "median_gap": summary["median_gap"],
        "met": 10 * wins >= 9 * pairs and improvement > summary["parent_iqr"] and ratio >= factor,
    }


def summarize_workload(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per-metric summaries over one workload's complete pairs, and run
    counts over all its runs. A crashed run counts as not correct."""
    sides = ("parent", "change")
    complete = [pair for pair in pairs if all("metrics" in pair[side] for side in sides)]
    summary = {}
    for metric in end_to_end if complete else []:
        name = metric["name"]
        rows = [tuple(pair[side]["metrics"][name]["value"] for side in sides) for pair in complete]
        summary[name] = summarize(rows, metric["better"], metric["bound"])
    return {
        "seeds": [pair["seed"] for pair in pairs],
        "pairs": pairs,
        "summary": summary,
        "crashed_parent_change": [sum("exit_code" in pair[s] for pair in pairs) for s in sides],
        "failed_parent_change": [sum(pair[s].get("failed", 0) for pair in pairs) for s in sides],
        "attempted_parent_change": [sum(pair[s].get("attempted", 0) for pair in pairs)
                                    for s in sides],
        "correct_parent_change": [all(pair[s].get("correct", False) for pair in pairs)
                                  for s in sides],
    }


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, str]:
    """One benchmark run's final JSON line, with its ``# measured name =
    value`` lines (unscaled metrics and host slowdowns) under ``measured``,
    and the machine facts it prints; or, for a run that exits non-zero,
    its exit code and last stderr lines."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        return {"exit_code": done.returncode,
                "stderr_tail": done.stderr.strip().splitlines()[-20:]}, ""
    lines = done.stdout.strip().splitlines()
    machine = next((line.split(":", 1)[1].strip() for line in lines
                    if line.startswith("# machine:")), "")
    measured = {}
    for line in lines:
        if line.startswith("# measured "):
            name, _, value = line.removeprefix("# measured ").partition(" = ")
            measured[name] = float(value)
    return {**json.loads(lines[-1]), "measured": measured}, machine


def _trials(run: dict) -> str:
    if "exit_code" in run:
        return f"exit {run['exit_code']}"
    return f"{run['metrics']['trials_per_s']['value']:.4g} trials/s"


def _workload_seeds(text: str) -> tuple[str, list[int]]:
    name, _, seeds = text.partition(":")
    first, _, last = seeds.partition("-")
    if not name or not first.isdigit() or not (last or first).isdigit():
        raise argparse.ArgumentTypeError(f"expected workload:first-last, got {text!r}")
    return name, list(range(int(first), int(last or first) + 1))


def _claim(text: str) -> tuple[str, str, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected workload:metric:factor, got {text!r}")
    try:
        return parts[0], parts[1], float(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"factor must be a number, got {parts[2]!r}") from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent commit's tree")
    parser.add_argument("--change", type=Path, required=True, help="the change's tree")
    parser.add_argument("--workload", type=_workload_seeds, action="append", required=True,
                        help="workload:first-last seeds, run in the order given")
    parser.add_argument("--claim", type=_claim, help="workload:metric:factor")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--what", default="", help="what the change does")
    parser.add_argument("--parent-rev", default="", help="the parent commit's name")
    parser.add_argument("--note", action="append", default=[], help="a note to record")
    args = parser.parse_args(argv)

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    end_to_end = benchmark["end_to_end"]
    seconds = benchmark["run_seconds"]
    trees = {"parent": args.parent, "change": args.change}
    batch: dict[str, list[dict]] = {}
    machine = ""
    index = 0
    for workload, seeds in args.workload:
        for seed in seeds:
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            pair = {"workload": workload, "seed": seed, "first": order[0]}
            for side in order:
                pair[side], printed = run_once(trees[side], workload, seed, seconds)
                machine = printed or machine
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{side} {_trials(pair[side])}" for side in ("parent", "change")),
                file=sys.stderr)
            batch.setdefault(workload, []).append(pair)
            index += 1

    workloads = {name: summarize_workload(pairs, end_to_end) for name, pairs in batch.items()}
    report = {
        "what": args.what,
        "parent": args.parent_rev,
        "machine": machine,
        "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {seconds:g} --trace 0",
        "pairing": "each pair runs parent and change on one seed, back to back, each from its "
                   "own tree; 'first' names the side that ran first, alternating pair by pair "
                   "over the whole batch in the order listed; each run's value is the final "
                   "JSON line perfbench/run.py prints",
    }
    if args.claim:
        workload, metric, factor = args.claim
        better = next(m["better"] for m in end_to_end if m["name"] == metric)
        summary = workloads.get(workload, {}).get("summary", {}).get(metric)
        report["claim"] = {"workload": workload, "metric": metric, "better": better,
                           "factor": factor,
                           **(claim_verdict(summary, better, factor) if summary
                              else {"met": False})}
    report["notes"] = args.note
    report["workloads"] = workloads
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
