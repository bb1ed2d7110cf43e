"""Command line front end.

Verbs:

* ``scenarios``    - list benchmark tasks, environments and systems.
* ``plan``         - generate a goal, ground it and print the selected plan.
* ``heatmap``      - compute a standing-cell feasibility map and export it
                     as a PGM image plus a YAML sidecar.
* ``run``          - run a full experiment and write the YAML report.
* ``export-scene`` - write a benchmark scene to a YAML file.
* ``validate``     - load a scene file and report its contents.

``momaplan run`` accepts either ``--config file.yaml`` or individual flags;
flags override nothing when a config file is given (mixing the two is an
error so a report never silently diverges from its config file).

The global ``--log-level`` sets the level of the ``momaplan`` package
loggers, whose messages go to stderr; at the default ``WARNING`` the output
is that of an unconfigured program.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path
from typing import NoReturn

import numpy as np
import yaml

from . import __version__
from .feasibility import (
    FeasibilityMap,
    FeasibilityParams,
    compute_feasibility_map,
    expected_task_feasibility,
)
from .goalgen import GoalGenerationError, generate_goal
from .grounding import GroundingError, GroundingParams, sample_configurations
from .harness import (
    ENVIRONMENTS,
    SYSTEMS,
    TARGET_TABLE,
    TASK_OBJECTS,
    ConfigError,
    ExperimentConfig,
    dump_report,
    make_scene,
    report_bytes,
    run_experiment,
    scripted_backend_for_task,
)
from .motion import MotionError
from .planning import PlanningError, PlanningParams, plan_task
from .world import SceneError, load_scene, location_by_id, save_scene, symbolic_locations


LOG_LEVELS = ("WARNING", "INFO", "DEBUG")


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag on one line, as ``_invalid`` reports a bad file;
    ``add_subparsers`` gives each verb's parser this class too."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {' '.join(message.split())}\n")


def _seed(text: str) -> int:
    """A ``--seed`` value: numpy seeds generators only from non-negative ints."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _count(text: str) -> int:
    """A ``--trials`` or ``--configurations`` value: a positive integer."""
    if not text.isdecimal() or int(text) == 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


# Every experiment flag defaults to its ``ExperimentConfig`` field.
_DEFAULTS = ExperimentConfig()


def _add_scene_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--task", type=int, default=_DEFAULTS.task, choices=sorted(TASK_OBJECTS))
    parser.add_argument("--environment", default=_DEFAULTS.environment, choices=ENVIRONMENTS)
    parser.add_argument("--seed", type=_seed, default=_DEFAULTS.seed)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="momaplan",
        description="Desk-scale mobile manipulation planning benchmark.",
    )
    parser.add_argument("--version", action="version", version=f"momaplan {__version__}")
    parser.add_argument("--log-level", default="WARNING", choices=LOG_LEVELS,
                        help="level of the momaplan loggers, printed on stderr "
                             "(default WARNING)")
    sub = parser.add_subparsers(dest="verb", required=True)

    sub.add_parser("scenarios", help="list tasks, environments and systems")

    p = sub.add_parser("plan", help="plan one task and print the result")
    _add_scene_flags(p)
    p.add_argument("--configurations", type=_count, default=_DEFAULTS.configurations,
                   metavar="M", help="metric configurations to sample (default %(default)s)")

    p = sub.add_parser("heatmap", help="export a feasibility map as PGM + YAML")
    _add_scene_flags(p)
    p.add_argument("--side", default="south",
                   choices=("north", "south", "east", "west"))
    p.add_argument("--target-x", type=float, default=0.0,
                   help="target x on the table, world frame (default table center)")
    p.add_argument("--target-y", type=float, default=0.0)
    p.add_argument("--out", required=True, metavar="PREFIX",
                   help="output prefix; writes PREFIX.pgm and PREFIX.yaml")

    p = sub.add_parser("run", help="run an experiment and write the report")
    p.add_argument("--config", metavar="FILE", help="experiment config YAML")
    _add_scene_flags(p)
    p.add_argument("--trials", type=_count, default=_DEFAULTS.trials)
    p.add_argument("--systems", nargs="+", default=list(_DEFAULTS.systems), choices=SYSTEMS)
    p.add_argument("--configurations", type=_count, default=_DEFAULTS.configurations, metavar="M")
    p.add_argument("--out", metavar="FILE", help="report path (default: stdout)")
    p.add_argument("--log", metavar="FILE", help="per-trial JSONL log path")

    p = sub.add_parser("export-scene", help="write a benchmark scene to YAML")
    _add_scene_flags(p)
    p.add_argument("--out", required=True, metavar="FILE")

    p = sub.add_parser("validate", help="load a scene file and report contents")
    p.add_argument("scene", metavar="FILE")

    return parser


def _cmd_scenarios() -> int:
    print("tasks:")
    for task in sorted(TASK_OBJECTS):
        print(f"  {task}: {', '.join(TASK_OBJECTS[task])}")
    print(f"environments: {', '.join(ENVIRONMENTS)}")
    print(f"systems: {', '.join(SYSTEMS)}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    scene = make_scene(args.task, args.environment, args.seed)
    backend = scripted_backend_for_task(args.task)
    goal = generate_goal(list(TASK_OBJECTS[args.task]), backend)
    print(f"goal ({goal.attempts} attempt{'s' if goal.attempts != 1 else ''}):")
    for i, atom in enumerate(goal.atoms):
        dist = goal.distances_m.get(i)
        suffix = f"  [{dist * 100:.0f} cm]" if dist is not None else ""
        print(f"  {atom}{suffix}")

    table = scene.table(TARGET_TABLE)
    radii = {o.id: o.footprint_radius for o in scene.objects}
    rng = np.random.default_rng(args.seed)
    grounding = sample_configurations(
        goal, radii, table.half_extents, rng,
        GroundingParams(configurations=args.configurations),
    )
    plan = plan_task(scene, TARGET_TABLE, grounding.configurations, goal.atoms,
                     PlanningParams())

    print(f"\nselected plan (config {plan.config_index}, "
          f"{plan.candidates_evaluated} candidates searched):")
    for step in plan.steps:
        tx, ty = step.target_world
        print(f"  {step.object_id}: load from {step.source_table} at "
              f"({step.load_pose.x:.2f}, {step.load_pose.y:.2f}), unload via "
              f"{step.unload_location} cell {step.unload_cell} to "
              f"({tx:.2f}, {ty:.2f})  fea={step.fea_task:.3f}")
    print(f"feasibility F = {plan.feasibility:.4f}")
    print(f"cost        C = {plan.cost:.4f}")
    print(f"utility     U = {plan.utility:.4f}")
    return 0


def write_heatmap_pgm(fmap: FeasibilityMap, path: str | Path) -> None:
    """Binary 8-bit PGM, one pixel per standing cell, white = feasible.

    Row 0 of the map is the row nearest the table; it is written first, so
    in image viewers the table edge is at the top.
    """
    levels = np.rint(fmap.values * 255).astype(np.uint8)
    rows, cols = levels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        fh.write(levels.tobytes())


def _cmd_heatmap(args: argparse.Namespace) -> int:
    scene = make_scene(args.task, args.environment, args.seed)
    location = location_by_id(scene, f"{TARGET_TABLE}/{args.side}")
    target = (args.target_x, args.target_y)
    if not scene.table(TARGET_TABLE).rect.contains(*target):
        print(f"error: target {target} is not on the {TARGET_TABLE} table", file=sys.stderr)
        return 2
    if _unwritable(f"{args.out}.pgm", f"{args.out}.yaml"):
        return 2
    params = FeasibilityParams()
    fmap = compute_feasibility_map(scene, location, target, params)

    pgm_path = Path(f"{args.out}.pgm")
    write_heatmap_pgm(fmap, pgm_path)
    sidecar = {
        "location": fmap.location_id,
        "target_world": [round(target[0], 6), round(target[1], 6)],
        "rows": int(fmap.values.shape[0]),
        "cols": int(fmap.values.shape[1]),
        "cell_size_m": location.cell_size,
        "trials_per_cell": params.trials_per_cell,
        "reach_radius_m": params.reach_radius,
        "expected_task_feasibility": round(expected_task_feasibility(fmap), 6),
        "pgm": pgm_path.name,
    }
    yaml_path = Path(f"{args.out}.yaml")
    with open(yaml_path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(sidecar, fh, sort_keys=True)
    print(f"wrote {pgm_path} and {yaml_path} "
          f"(expected fea_t {sidecar['expected_task_feasibility']:.4f})")
    return 0


def _unwritable(*paths: str | None) -> bool:
    """Report on one line the first of ``paths`` (None skipped) no file can
    be written at, before any work starts; False when every one can be."""
    for path in filter(None, paths):
        target = Path(path)
        if target.is_dir():
            reason = "it is a directory"
        elif not target.parent.is_dir():
            reason = f"no directory {target.parent}"
        elif not os.access(target if target.exists() else target.parent, os.W_OK):
            reason = "permission denied"
        else:
            continue
        print(f"error: cannot write {path}: {reason}", file=sys.stderr)
        return True
    return False


def _invalid(what: str, exc: Exception) -> int:
    """Report an unusable input file on one line; exit code 2."""
    print(f"invalid {what}: {' '.join(str(exc).split())}", file=sys.stderr)
    return 2


def _cmd_run(args: argparse.Namespace) -> int:
    flags = ("task", "environment", "trials", "seed", "configurations")
    config = ExperimentConfig(systems=tuple(args.systems), **{k: getattr(args, k) for k in flags})
    if args.config:
        overridden = [k for k, v in vars(config).items() if v != getattr(_DEFAULTS, k)]
        if overridden:
            print(f"error: --config cannot be combined with experiment flags "
                  f"({', '.join(overridden)})", file=sys.stderr)
            return 2
        try:
            config = ExperimentConfig.from_yaml(args.config)
        except (ConfigError, OSError) as exc:
            return _invalid("config", exc)
    if _unwritable(args.out, args.log):
        return 2
    report = run_experiment(config, log_path=args.log)
    if args.out:
        dump_report(report, args.out)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(report_bytes(report).decode("utf-8"))
    return 0


def _cmd_export_scene(args: argparse.Namespace) -> int:
    if _unwritable(args.out):
        return 2
    scene = make_scene(args.task, args.environment, args.seed)
    save_scene(scene, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        scene = load_scene(args.scene)
    except (SceneError, OSError) as exc:
        return _invalid("scene", exc)
    rows, cols = scene.grid.occupied.shape
    print(f"scene ok: {len(scene.tables)} tables, {len(scene.obstacles)} obstacles, "
          f"{len(scene.objects)} objects")
    print(f"grid {cols}x{rows} at {scene.grid.resolution} m, "
          f"robot at ({scene.robot_pose.x:.2f}, {scene.robot_pose.y:.2f})")
    for tbl in scene.tables:
        sides = ", ".join(loc.id for loc in symbolic_locations(scene, tbl.id))
        print(f"  {tbl.id}: bands {sides}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # The handler's default format is the bare message, as Python prints an
    # unhandled warning, so WARNING changes nothing.
    logger = logging.getLogger("momaplan")
    handler = logging.StreamHandler(sys.stderr)
    saved_level = logger.level
    logger.setLevel(args.log_level)
    logger.addHandler(handler)
    try:
        return _dispatch(args)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(saved_level)


def _dispatch(args: argparse.Namespace) -> int:
    try:
        if args.verb == "scenarios":
            return _cmd_scenarios()
        if args.verb == "plan":
            return _cmd_plan(args)
        if args.verb == "heatmap":
            return _cmd_heatmap(args)
        if args.verb == "run":
            return _cmd_run(args)
        if args.verb == "export-scene":
            return _cmd_export_scene(args)
        if args.verb == "validate":
            return _cmd_validate(args)
    except (GoalGenerationError, GroundingError, PlanningError, MotionError,
            SceneError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled verb {args.verb!r}")


if __name__ == "__main__":
    sys.exit(main())
