"""Command line front end.

Verbs:

* ``scenarios``    - list benchmark tasks, environments and systems.
* ``plan``         - generate a goal, ground it and print the selected plan.
* ``heatmap``      - compute a standing-cell feasibility map and export it
                     as a PGM image plus a YAML sidecar.
* ``run``          - run a full experiment and write the YAML report.
* ``export-scene`` - write a benchmark scene to a YAML file.
* ``validate``     - load a scene file and report its contents.

Every verb but ``scenarios`` and ``validate`` first builds an
``ExperimentConfig`` from its flags, whose range rules are the only ones;
argparse only parses types. A refused flag value exits 2 on one line,
``momaplan <verb>: error: <message>``. ``plan`` prints the plan ``run``
executes as ``llm_grop`` trial 0.

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
    task_feasibility,
)
from .goalgen import GoalGenerationError, generate_goal
from .grounding import GroundingError
from .harness import (
    ENVIRONMENTS,
    SYSTEMS,
    TARGET_TABLE,
    TASK_OBJECTS,
    ConfigError,
    ExperimentConfig,
    dump_report,
    make_scene,
    plan_llm_grop,
    report_bytes,
    run_experiment,
    scripted_backend_for_task,
)
from .motion import MotionError
from .planning import PlanningError
from .world import SceneError, load_scene, location_by_id, save_scene, symbolic_locations


LOG_LEVELS = ("WARNING", "INFO", "DEBUG")


class _Parser(argparse.ArgumentParser):
    """Reports a flag that does not parse on one line, as ``_dispatch``
    reports a refused value; ``add_subparsers`` gives each verb's parser
    this class too."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {' '.join(message.split())}\n")


# Every experiment flag defaults to its ``ExperimentConfig`` field.
_DEFAULTS = ExperimentConfig()


def _add_scene_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--task", type=int, default=_DEFAULTS.task)
    parser.add_argument("--environment", default=_DEFAULTS.environment)
    parser.add_argument("--seed", type=int, default=_DEFAULTS.seed)


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
    p.add_argument("--configurations", type=int, default=_DEFAULTS.configurations,
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
    p.add_argument("--trials", type=int, default=_DEFAULTS.trials)
    p.add_argument("--systems", nargs="+", default=list(_DEFAULTS.systems))
    p.add_argument("--configurations", type=int, default=_DEFAULTS.configurations, metavar="M")
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


def _cmd_plan(config: ExperimentConfig) -> int:
    scene = make_scene(config.task, config.environment, config.seed)
    backend = scripted_backend_for_task(config.task)
    goal = generate_goal(list(TASK_OBJECTS[config.task]), backend)
    print(f"goal ({goal.attempts} attempt{'s' if goal.attempts != 1 else ''}):")
    for i, atom in enumerate(goal.atoms):
        dist = goal.distances_m.get(i)
        suffix = f"  [{dist * 100:.0f} cm]" if dist is not None else ""
        print(f"  {atom}{suffix}")

    plan, _ = plan_llm_grop(scene, goal, config, 0)
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


def _cmd_heatmap(args: argparse.Namespace, config: ExperimentConfig) -> int:
    scene = make_scene(config.task, config.environment, config.seed)
    location = location_by_id(scene, f"{TARGET_TABLE}/{args.side}")
    target = (args.target_x, args.target_y)
    if not scene.table(TARGET_TABLE).rect.contains(*target):
        raise ConfigError(f"target {target} is not on the {TARGET_TABLE} table")
    _check_writable(f"{args.out}.pgm", f"{args.out}.yaml")
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
        "expected_task_feasibility": round(task_feasibility(fmap), 6),
        "pgm": pgm_path.name,
    }
    yaml_path = Path(f"{args.out}.yaml")
    with open(yaml_path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(sidecar, fh, sort_keys=True)
    print(f"wrote {pgm_path} and {yaml_path} "
          f"(expected fea_t {sidecar['expected_task_feasibility']:.4f})")
    return 0


def _check_writable(*paths: str | None) -> None:
    """Refuse the first of ``paths`` (None skipped) no file can be written
    at, before any work starts."""
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
        raise ConfigError(f"cannot write {path}: {reason}")


def _invalid(what: str, exc: Exception) -> int:
    """Report an unusable input file on one line; exit code 2."""
    print(f"invalid {what}: {' '.join(str(exc).split())}", file=sys.stderr)
    return 2


def _cmd_run(args: argparse.Namespace, config: ExperimentConfig) -> int:
    if args.config:
        overridden = [k for k, v in vars(config).items() if v != getattr(_DEFAULTS, k)]
        if overridden:
            raise ConfigError(f"--config cannot be combined with experiment flags "
                              f"({', '.join(overridden)})")
        try:
            config = ExperimentConfig.from_yaml(args.config)
        except (ConfigError, OSError) as exc:
            return _invalid("config", exc)
    _check_writable(args.out, args.log)
    report = run_experiment(config, log_path=args.log)
    if args.out:
        dump_report(report, args.out)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(report_bytes(report).decode("utf-8"))
    return 0


def _cmd_export_scene(args: argparse.Namespace, config: ExperimentConfig) -> int:
    _check_writable(args.out)
    scene = make_scene(config.task, config.environment, config.seed)
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
        if args.verb == "validate":
            return _cmd_validate(args)
        # A field the verb has no flag for keeps its default.
        fields = ExperimentConfig.__dataclass_fields__
        config = ExperimentConfig(**{k: v for k, v in vars(args).items() if k in fields})
        if args.verb == "plan":
            return _cmd_plan(config)
        if args.verb == "heatmap":
            return _cmd_heatmap(args, config)
        if args.verb == "run":
            return _cmd_run(args, config)
        if args.verb == "export-scene":
            return _cmd_export_scene(args, config)
    except ConfigError as exc:
        print(f"momaplan {args.verb}: error: {exc}", file=sys.stderr)
        return 2
    except (GoalGenerationError, GroundingError, PlanningError, MotionError,
            SceneError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled verb {args.verb!r}")


if __name__ == "__main__":
    sys.exit(main())
