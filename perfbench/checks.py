"""Output checks made through momaplan's public API, after the timed phase.

Each function returns a list of problems; an empty list means the output
passed.
"""
from __future__ import annotations

import math

from momaplan import motion, planning
from momaplan.relations import ON_TOP_OF

# Plan costs and executed costs add the same terms in different orders.
COST_TOL = 1e-9


def plan_problems(plan, atoms) -> list[str]:
    """Checks on a plan returned by ``plan_task`` for the given goal atoms."""
    problems = []
    expected = planning.REWARD * plan.feasibility - plan.cost
    if not math.isclose(plan.utility, expected, rel_tol=COST_TOL, abs_tol=COST_TOL):
        problems.append(f"utility {plan.utility!r} != 100*F - cost = {expected!r}")
    position = {obj: i for i, obj in enumerate(plan.order)}
    for atom in atoms:
        if atom.relation != ON_TOP_OF:
            continue
        if atom.subject in position and atom.reference in position:
            if position[atom.reference] > position[atom.subject]:
                problems.append(f"{atom.subject} is placed before its support {atom.reference}")
    return problems


def path_problems(scene, plan) -> list[str]:
    """Every leg starts and ends on its step's cells and crosses only free,
    8-adjacent navigator cells."""
    nav = motion.navigator_for(scene)
    problems = []
    previous = nav.cell_of(*scene.robot_pose.xy)
    for i, step in enumerate(plan.steps):
        legs = (
            ("to load", step.path_to_load, previous, step.load_cell),
            ("to unload", step.path_to_unload, step.load_cell, step.unload_cell),
        )
        for label, path, start, goal in legs:
            if path is None:
                if start != goal:
                    problems.append(f"step {i} {label}: no path from {start} to {goal}")
                continue
            cells = path.cells
            if cells[0] != start or cells[-1] != goal:
                problems.append(f"step {i} {label}: path runs {cells[0]}->{cells[-1]}, "
                                f"expected {start}->{goal}")
            if not all(nav.is_free(c) for c in cells):
                problems.append(f"step {i} {label}: path crosses a blocked cell")
            if any(max(abs(a[0] - b[0]), abs(a[1] - b[1])) != 1 for a, b in zip(cells, cells[1:])):
                problems.append(f"step {i} {label}: path jumps between cells")
        previous = step.unload_cell
    return problems


def execution_problems(plan, success: bool, cost: float) -> list[str]:
    """A run that finishes costs exactly what was planned."""
    if success and not math.isclose(cost, plan.cost, rel_tol=COST_TOL, abs_tol=COST_TOL):
        return [f"successful run cost {cost!r} != planned cost {plan.cost!r}"]
    return []


def verification_problems(verified: bool, satisfaction: float) -> list[str]:
    """A verified arrangement satisfies every goal atom."""
    if verified and satisfaction != 1.0:
        return [f"verified run has satisfaction {satisfaction!r}"]
    return []


def run_problems(plan, success: bool, cost: float, verified: bool, satisfaction: float) -> list[str]:
    return execution_problems(plan, success, cost) + verification_problems(verified, satisfaction)
