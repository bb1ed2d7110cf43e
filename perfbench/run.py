"""momaplan benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload replan_t8_chair_top --seed 7 --seconds 25 --trace 0

Run from the repository root. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` prints the per-layer metrics of a traced pass. The last line
of standard output is the JSON result; the lines before it repeat every
metric with its unit and direction, plus the machine it ran on. See
perfbench/README.md for the metric definitions.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# An untraced run sets up at least ``workload.setups`` times and until
# SETUP_SECONDS have passed; setup_s is the median set-up.
SETUP_SECONDS = 1.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = (
    # name, unit, better
    ("setup_s", "s", "lower"),
    ("trials_per_s", "1/s", "higher"),
    ("plan_ms.p50", "ms", "lower"),
    ("plan_ms.p75", "ms", "lower"),
    ("plan_utility.mean", "utility", "higher"),
    ("executions_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def layer_unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("us_per_run"):
        return "us"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("ms") or "ms_per" in name:
        return "ms"
    if name.endswith(("ratio", "coverage", "rate", "gap.max")):
        return "ratio"
    return "count"


def _git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown"


def machine_facts() -> str:
    import numpy
    import scipy

    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} git={_git_rev()} "
            f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']}")


def _percentile(values: list[float], q: int) -> float:
    """Linearly interpolated percentile (numpy's default method)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end_metrics(workload, state, log) -> tuple[dict[str, float], dict[str, float]]:
    """The end-to-end metrics at reference speed, and as measured.

    Each set-up's and each round's times are divided by the host's
    slowdown sampled right after it (see speed.py), and its rates
    multiplied by it, so a run on a host slowed by other tenants reads as
    it would at the reference speed.
    """
    def metrics(scale: bool) -> dict[str, float]:
        def slowdown(value):
            return value if scale else 1.0

        setups = [s / slowdown(d) for s, d in zip(log.setup_seconds, log.setup_slowdowns)]
        plan_ms = [ms / slowdown(log.rounds[k].slowdown) for ms, k in workload.plan_samples(log)]
        utilities = workload.utilities(state, log)
        timed = sum(r.seconds / slowdown(r.slowdown) for r in log.rounds)
        inside = sum(r.execution_seconds / slowdown(r.slowdown) for r in log.rounds)
        return {
            "setup_s": statistics.median(setups),
            "trials_per_s": sum(r.operations for r in log.rounds) / timed,
            "plan_ms.p50": _percentile(plan_ms, 50),
            "plan_ms.p75": _percentile(plan_ms, 75),
            "plan_utility.mean": sum(utilities) / len(utilities) if utilities else 0.0,
            "executions_per_s": sum(r.executions for r in log.rounds) / inside if inside else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    return metrics(True), metrics(False)


def layer_metrics(tracer, log, untraced_log) -> dict[str, float]:
    """Per-layer numbers of one traced pass.

    Layers that only run while setting up (goal generation, the
    consistency check, navigator construction) are read from the traced
    set-up; every other layer from the traced timed phase.
    """
    timed, setup = tracer.stats("timed"), tracer.stats("setup")

    def ms(stats, name):
        return stats[name].seconds * 1e3 if name in stats else 0.0

    def calls(stats, name):
        return stats[name].calls if name in stats else 0

    def count(phase, name):
        return tracer.counts[(phase, name)]

    def self_ms(stats, layer):
        return sum(s.self_seconds for n, s in stats.items() if n.split(".")[0] == layer) * 1e3

    requests = calls(timed, "feasibility.compute_feasibility_map")
    computed = calls(timed, "feasibility.trial_outcomes")
    plan_s = ms(timed, "planning.plan_task") / 1e3
    runs = calls(timed, "execution.execute_plan")
    wall_ms = log.timed_seconds * 1e3
    roots_ms = tracer.root_seconds("timed") * 1e3
    out = {
        "goalgen.generate_goal.ms": ms(setup, "goalgen.generate_goal"),
        "goalgen.backend_calls": count("setup", "goalgen.backend_calls"),
        "relations.check_consistency.calls": calls(setup, "relations.check_consistency"),
        "relations.check_consistency.ms": ms(setup, "relations.check_consistency"),
        "grounding.sample_configurations.ms": ms(timed, "grounding.sample_configurations"),
        "grounding.configurations": count("timed", "grounding.configurations"),
        "feasibility.map_requests": requests,
        "feasibility.maps_computed": computed,
        "feasibility.map_hit_ratio": 1.0 - computed / requests if requests else 0.0,
        "feasibility.trial_outcomes.ms": ms(timed, "feasibility.trial_outcomes"),
        "feasibility.ms_per_map": ms(timed, "feasibility.trial_outcomes") / computed if computed else 0.0,
        "feasibility.task_feasibility.calls": calls(timed, "feasibility.task_feasibility"),
        "feasibility.task_feasibility.ms": ms(timed, "feasibility.task_feasibility"),
        "motion.cost_field.calls": count("timed", "motion.cost_field"),
        "motion.dijkstra.calls": calls(timed, "motion.dijkstra"),
        "motion.dijkstra.ms": ms(timed, "motion.dijkstra"),
        "motion.astar.calls": calls(timed, "motion.astar"),
        "motion.astar.ms": ms(timed, "motion.astar"),
        "motion.navigator.ms": ms(setup, "motion.navigator"),
        "planning.plan_task.calls": calls(timed, "planning.plan_task"),
        "planning.plan_task.ms": plan_s * 1e3,
        "planning.self_ms": self_ms(timed, "planning"),
        "planning.candidates": count("timed", "planning.candidates"),
        "planning.candidates_per_s": count("timed", "planning.candidates") / plan_s if plan_s else 0.0,
        "execution.execute_plan.calls": runs,
        "execution.us_per_run": ms(timed, "execution.execute_plan") * 1e3 / runs if runs else 0.0,
        "execution.success_ratio": count("timed", "execution.successes") / runs if runs else 0.0,
        "harness.run_trial.self_ms": self_ms(timed, "harness"),
        "world.solid_rects.calls": count("timed", "world.solid_rects"),
        "world.cell_centers.calls": count("timed", "world.cell_centers"),
    }
    for layer in ("grounding", "feasibility", "motion", "execution"):
        out[f"{layer}.self_ms"] = self_ms(timed, layer)
    for layer in ("goalgen", "relations", "grounding", "feasibility", "motion", "planning"):
        out[f"setup.{layer}.self_ms"] = self_ms(setup, layer)
    out["trace.setup_ms"] = log.setup_seconds[-1] * 1e3
    out["trace.timed_ms"] = wall_ms
    out["trace.untraced_timed_ms"] = untraced_log.timed_seconds * 1e3
    out["trace.overhead_pct"] = 100.0 * (log.timed_seconds / untraced_log.timed_seconds - 1.0)
    out["trace.span_coverage"] = roots_ms / wall_ms
    return out


def run_untraced(workload, seed: int, seconds: float):
    from workloads import Log, install_end_to_end, run_pass

    log = Log(keep_runs=workload.keep_runs)
    with Tracer() as tracer:
        install_end_to_end(tracer, log)
        state = run_pass(workload, seed, log, tracer, workload.setups, seconds=seconds,
                         min_setup_seconds=SETUP_SECONDS, sample_speed=True)
    workload.check(state, log)
    values, measured = end_to_end_metrics(workload, state, log)
    measured["slowdown.setup"] = statistics.median(log.setup_slowdowns)
    measured["slowdown.timed"] = statistics.median(r.slowdown for r in log.rounds)
    return values, measured, workload.quality(state, log), [log]


def run_traced(workload, seed: int, seconds: float):
    """An untraced and a traced pass over the same fixed number of rounds,
    each on its own fresh set-up, so the two timed phases do identical
    work and their difference is the tracing overhead."""
    from workloads import Log, install_end_to_end, install_layers, run_pass

    rounds = max(1, round(seconds * workload.rounds_per_trace_second))
    untraced = Log(keep_runs=workload.keep_runs)
    with Tracer() as tracer:
        install_end_to_end(tracer, untraced)
        state_u = run_pass(workload, seed, untraced, tracer, 1, rounds=rounds)
    traced = Log(keep_runs=workload.keep_runs)
    with Tracer() as tracer:
        install_layers(tracer, traced)
        state = run_pass(workload, seed, traced, tracer, 1, rounds=rounds)
    workload.check(state_u, untraced)
    workload.check(state, traced)
    metrics = layer_metrics(tracer, traced, untraced)
    return metrics, {}, workload.quality(state, traced), [untraced, traced]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "momaplan" / "__init__.py").is_file():
        print(f"perfbench: no momaplan sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    # Pin native thread pools before numpy loads, so the numbers do not
    # depend on how many cores BLAS or OpenMP would grab.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    print(f"# {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# machine: {machine_facts()}")
    if args.trace:
        values, measured, quality, logs = run_traced(workload, args.seed, args.seconds)
    else:
        values, measured, quality, logs = run_untraced(workload, args.seed, args.seconds)
    attempted = sum(log.ops for log in logs)
    failed = sum(len(log.failed) for log in logs)
    for log in logs:
        for op, problems in sorted(log.failed.items()):
            print(f"# FAILED op {op}: {'; '.join(problems)}")
    quality["error_rate"] = failed / attempted if attempted else 1.0
    if args.trace:
        values.update(quality)
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}
        for name, entry in metrics.items():
            print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    else:
        metrics = {}
        for name, unit, better in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"# {name} = {values[name]:.6g} {unit} ({better} is better)")
        print(f"# plan_ms samples = {len(workload.plan_samples(logs[0]))}")
        for name, value in measured.items():
            print(f"# measured {name} = {value:.6g}")
        for name, value in quality.items():
            print(f"# {name} = {value:.6g} (quality, not gated)")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
