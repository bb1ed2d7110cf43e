"""Top-level acceptance checks for the whole pipeline.

Each test records one PASS/FAIL verdict line; the conftest hook prints
them as an "acceptance verdicts" summary section, so even a piped pytest
run shows all ten. The checks exercise the shipped package end to end:
consistency checking, feasibility dataset arithmetic, oracle agreement at
volume, heatmap convergence, distance parsing, obstacle avoidance,
comparative system behavior, report determinism and plan calibration.
"""
import math
import time

import numpy as np

import conftest

from momaplan.feasibility import (
    FeasibilityMap,
    FeasibilityParams,
    build_feasibility_dataset,
    compute_feasibility_map,
    sample_standing_cell,
    task_feasibility,
)
from momaplan.execution import execute_plan
from momaplan.goalgen import parse_distance_cm, parse_goal_line
from momaplan.grounding import GroundingParams, sample_configurations
from momaplan.harness import (
    OBJECT_CATALOG,
    SYSTEMS,
    TASK_OBJECTS,
    ExperimentConfig,
    make_scene,
    report_bytes,
    run_experiment,
)
from momaplan.motion import Navigator, step_cost
from momaplan.planning import PlanningParams, plan_task
from momaplan.relations import PlacementAtom, atoms_consistent, check_consistency
from momaplan.world import OccupancyGrid, location_by_id, symbolic_locations

from oracles import (
    consistent_by_axis_enumeration,
    dijkstra_counts,
    random_relation_set,
    weighted_mean_feasibility,
)

RADII = {name: spec[0] for name, spec in OBJECT_CATALOG.items()}


def _verdict(number: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance {number:2d}] {'PASS' if ok else 'FAIL'}: {label}"
    if detail:
        line += f" ({detail})"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)  # visible immediately when capture is off (-s)
    assert ok, line


# A six-instruction layout with a hidden contradiction: steps 2 and 3 pin
# the first object below the fork, step 5 demands pure left-right instead.
CONTRADICTORY_LISTING = [
    "Place fruit bowl in the center of table.",
    "Place butter knife above and to the right of fruit bowl.",
    "Place dinner fork to the left of butter knife.",
    "Place dinner knife to the right of butter knife.",
    "Place fruit bowl to the right of dinner fork.",
    "Place water cup below and to the left of dinner knife.",
]
LISTING_OBJECTS = ["fruit_bowl", "butter_knife", "dinner_fork", "dinner_knife", "water_cup"]


def test_criterion_01_contradiction_detected():
    start = time.perf_counter()
    atoms = [parse_goal_line(line, LISTING_OBJECTS) for line in CONTRADICTORY_LISTING]
    assert all(a is not None for a in atoms)
    report = check_consistency(atoms)
    minus_step5 = atoms[:4] + atoms[5:]
    ok_flag = not report.consistent
    ok_conflict = 4 in report.conflict  # step 5, 0-indexed
    ok_without = atoms_consistent(minus_step5)
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "six-step layout flagged inconsistent, step 5 in the conflict, rest consistent",
        ok_flag and ok_conflict and ok_without and elapsed < 1.0,
        f"conflict steps {tuple(i + 1 for i in report.conflict)}, {elapsed:.3f}s",
    )


def test_criterion_02_dataset_size():
    start = time.perf_counter()
    params = FeasibilityParams(trials_per_cell=5)
    total = 0
    for env_seed in range(10):
        scene = make_scene(1, "random", seed=env_seed)
        locations = symbolic_locations(scene, "dining")
        data = build_feasibility_dataset(
            scene, locations, n_tasks=10, params=params, seed=env_seed
        )
        assert len(data) == 10 * 8 * 24 * 5
        total += len(data)
    elapsed = time.perf_counter() - start
    _verdict(
        2,
        "10 environments x 10 unload tasks x 24x8 cells x 5 trials = 96,000 records",
        total == 96_000 and elapsed < 60.0,
        f"{total} records in {elapsed:.1f}s",
    )


def test_criterion_03_checker_matches_enumeration():
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(10_000):
        triples = random_relation_set(rng, max_objects=4)
        atoms = [PlacementAtom(rel, sub, ref) for rel, sub, ref in triples]
        if atoms_consistent(atoms) != consistent_by_axis_enumeration(atoms):
            mismatches += 1
    _verdict(
        3,
        "constraint checker agrees with exhaustive grid enumeration on 10,000 sets",
        mismatches == 0,
        f"{mismatches} mismatches",
    )


def test_criterion_04_astar_matches_dijkstra():
    rng = np.random.default_rng(99)
    grids = 0
    comparisons = 0
    exact = True
    while grids < 50:
        occupied = rng.random((20, 20)) < 0.25
        grid = OccupancyGrid(0.1, (0.0, 0.0), occupied)
        nav = Navigator.from_grid(grid)
        free_cells = [tuple(c) for c in np.argwhere(nav.free)]
        if len(free_cells) < 2:
            continue
        grids += 1
        start = free_cells[int(rng.integers(len(free_cells)))]
        oracle = dijkstra_counts(nav.free, start)
        for goal, (s, d) in oracle.items():
            if goal == start:
                continue
            plan = nav.astar(start, goal)
            comparisons += 1
            if plan.cost != step_cost(s, d, grid.resolution):
                exact = False
    _verdict(
        4,
        "A* cost equals Dijkstra cost exactly on 50 random 20x20 grids",
        exact and grids == 50,
        f"{comparisons} start/goal pairs",
    )


def _hand_built_map() -> FeasibilityMap:
    values = np.zeros((8, 24))
    values[:, :8] = 0.9
    values[:, 8:16] = 0.5
    values[2:6, 16:24] = 0.1
    values[0, 23] = 1.0
    return FeasibilityMap("hand_built", (0.0, 0.0), values)


def _mean_drawn_value(fmap: FeasibilityMap, draws: int, rng: np.random.Generator) -> float:
    """Mean map value at ``draws`` standing cells drawn one at a time."""
    return float(np.mean([fmap.values[sample_standing_cell(fmap, rng)] for _ in range(draws)]))


def test_criterion_05_weighted_draw_convergence():
    fmap = _hand_built_map()
    exact = task_feasibility(fmap)
    # Same closed form, summed cell by cell.
    assert math.isclose(weighted_mean_feasibility(fmap.values), exact, rel_tol=1e-12)
    big = _mean_drawn_value(fmap, 10_000, np.random.default_rng(0))
    ok_close = abs(big - exact) <= 0.05
    mean_abs_err = {}
    for draws in (100, 1_000, 10_000):
        errs = [
            abs(_mean_drawn_value(fmap, draws, np.random.default_rng(500 + rep)) - exact)
            for rep in range(30)
        ]
        mean_abs_err[draws] = float(np.mean(errs))
    ok_monotone = mean_abs_err[100] > mean_abs_err[1_000] > mean_abs_err[10_000]
    _verdict(
        5,
        "mean value at sample_standing_cell draws within 0.05 of task_feasibility, "
        "error shrinking with draws",
        ok_close and ok_monotone,
        f"|err|@1e4 {abs(big - exact):.4f}; mean err 1e2/1e3/1e4 = "
        f"{mean_abs_err[100]:.4f}/{mean_abs_err[1_000]:.4f}/{mean_abs_err[10_000]:.4f}",
    )


def test_criterion_06_distance_midpoint():
    sentence = (
        "Generally, the dinner knife should be placed about 5-7 centimeters "
        "to the right of the dinner plate."
    )
    value = parse_distance_cm(sentence)
    _verdict(6, "range answer parses to its midpoint", value == 6.0, f"{value} cm")


def test_criterion_07_blocked_side_avoided(goal1):
    scene0 = make_scene(1, "chair_top", seed=0)
    table = scene0.table("dining")
    target = table.center
    blocked = task_feasibility(
        compute_feasibility_map(scene0, location_by_id(scene0, "dining/north"), target)
    )
    open_side = task_feasibility(
        compute_feasibility_map(scene0, location_by_id(scene0, "dining/south"), target)
    )
    ok_bands = blocked < 0.1 and open_side > 0.8
    north_picks = 0
    for seed in range(50):
        scene = make_scene(1, "chair_top", seed=seed)
        configs = sample_configurations(
            goal1,
            RADII,
            table.half_extents,
            np.random.default_rng(seed),
            GroundingParams(configurations=2),
        ).configurations
        plan = plan_task(scene, "dining", configs, goal1.atoms, PlanningParams())
        north_picks += sum(s.unload_location == "dining/north" for s in plan.steps)
    _verdict(
        7,
        "chair-side band never selected over 50 seeds; band probabilities split",
        ok_bands and north_picks == 0,
        f"north fea_t {blocked:.4f}, south fea_t {open_side:.4f}, north picks {north_picks}",
    )


def test_criterion_08_system_comparison():
    start = time.perf_counter()
    config = ExperimentConfig(
        task=1,
        environment="easy",
        systems=SYSTEMS,
        trials=100,
        seed=42,
        configurations=3,
    )
    report = run_experiment(config)
    elapsed = time.perf_counter() - start
    agg = report["aggregates"]
    sat = {s: agg[s]["mean_satisfaction"] for s in SYSTEMS}
    cost = {s: agg[s]["mean_cost_all"] for s in SYSTEMS}
    ok_sat = sat["llm_grop"] > sat["tpra"] and sat["llm_grop"] > sat["grop"]
    ok_cost = cost["llm_grop"] <= cost["latp"]
    ok_success = agg["llm_grop"]["success_rate"] >= 0.80
    _verdict(
        8,
        "100-trial comparison: satisfaction, cost and success orderings hold",
        ok_sat and ok_cost and ok_success and elapsed < 300.0,
        f"sat {sat['llm_grop']:.3f} vs tpra {sat['tpra']:.3f} / grop {sat['grop']:.3f}; "
        f"cost {cost['llm_grop']:.2f} vs latp {cost['latp']:.2f}; "
        f"success {agg['llm_grop']['success_rate']:.2f}; {elapsed:.0f}s",
    )


def test_criterion_09_reports_are_byte_identical():
    diffs = []
    for task in sorted(TASK_OBJECTS):
        config = ExperimentConfig(
            task=task,
            environment="easy",
            systems=SYSTEMS,
            trials=1,
            seed=42,
            configurations=2,
        )
        first = report_bytes(run_experiment(config))
        second = report_bytes(run_experiment(config))
        if first != second:
            diffs.append(task)
    _verdict(
        9,
        "offline runs with seed 42 reproduce byte-identical reports for tasks 1-9",
        not diffs,
        f"differing tasks: {diffs or 'none'}",
    )


def test_criterion_10_plan_feasibility_calibrated(goal1):
    results = []
    for environment in ("easy", "chair_top"):
        scene = make_scene(1, environment, seed=42)
        table = scene.table("dining")
        configs = sample_configurations(
            goal1,
            RADII,
            table.half_extents,
            np.random.default_rng(0),
            GroundingParams(configurations=3),
        ).configurations
        plan = plan_task(scene, "dining", configs, goal1.atoms, PlanningParams())
        successes = sum(
            execute_plan(scene, plan, np.random.default_rng(10_000 + i)).success
            for i in range(1_000)
        )
        empirical = successes / 1_000
        results.append((environment, plan.feasibility, empirical))
    ok = all(abs(emp - fea) <= 0.10 for _, fea, emp in results)
    detail = "; ".join(f"{env}: F={fea:.3f} emp={emp:.3f}" for env, fea, emp in results)
    _verdict(10, "planned feasibility predicts execution success within 0.10", ok, detail)
