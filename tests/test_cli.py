import copy
import math

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings, strategies as st

from momaplan import cli
from momaplan.cli import main, write_heatmap_pgm
from momaplan.feasibility import FeasibilityMap
from momaplan.harness import ConfigError, ExperimentConfig, make_scene
from momaplan.world import SceneError, load_scene, scene_to_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scenarios_lists_the_benchmark(capsys):
    code, out, err = run_cli(capsys, "scenarios")
    assert code == 0
    assert "1: dinner_plate, dinner_fork, dinner_knife" in out
    assert "environments: easy, chair_top, chair_bottom, random" in out
    assert "systems: llm_grop, latp, tpra, grop" in out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "momaplan" in capsys.readouterr().out


def test_plan_prints_goal_and_quantities(capsys):
    code, out, err = run_cli(
        capsys, "plan", "--task", "1", "--configurations", "2", "--seed", "7"
    )
    assert code == 0
    assert "centered_on_table(dinner_plate)" in out
    assert "[6 cm]" in out
    assert "selected plan" in out
    assert "feasibility F = " in out
    assert "cost        C = " in out
    assert "utility     U = " in out
    # One step line per task object.
    assert out.count("load from") == 3


@pytest.mark.parametrize("task, environment", [("8", "chair_top"), ("1", "easy")])
@pytest.mark.parametrize("seed", ["42", "5"])
def test_plan_prints_the_plan_run_executes(capsys, task, environment, seed):
    """``plan`` prints the utility of the plan ``run`` executes as llm_grop
    trial 0 under the same flags."""
    flags = ("--task", task, "--environment", environment, "--seed", seed,
             "--configurations", "3")
    code, out, err = run_cli(capsys, "plan", *flags)
    assert code == 0
    printed = next(line for line in out.splitlines() if line.startswith("utility     U = "))
    code, report, err = run_cli(capsys, "run", *flags, "--systems", "llm_grop", "--trials", "1")
    assert code == 0
    trial = yaml.safe_load(report)["trials"][0]
    assert (trial["system"], trial["trial"]) == ("llm_grop", 0)
    assert printed == f"utility     U = {trial['planned_utility']:.4f}"


def test_log_level_info_prints_the_planner_selection_on_stderr(capsys):
    argv = ("plan", "--task", "1", "--configurations", "2", "--seed", "7")
    code, out, err = run_cli(capsys, "--log-level", "INFO", *argv)
    assert code == 0
    assert "selected config" in err
    assert "selected config" not in out
    code, quiet_out, err = run_cli(capsys, *argv)
    assert code == 0
    assert err == ""
    assert quiet_out == out


def test_log_level_rejects_unknown_levels(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--log-level", "CHATTY", "scenarios"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("momaplan: error: argument --log-level: invalid choice: 'CHATTY'")
    assert err.count("\n") == 1 and err.endswith("\n")


# The verbs that build an ``ExperimentConfig`` from their flags, each with
# the flags it requires besides the one under test.
_CONFIG_VERBS = {"plan": [], "heatmap": ["--out", "unused"], "run": [],
                 "export-scene": ["--out", "unused"]}


def _refused_as_config(capsys, verb, argv, **bad):
    """``verb argv`` exits 2 with one stderr line: the verb's prefix and the
    message ``ExperimentConfig(**bad)`` raises, so the rule is written once."""
    with pytest.raises(ConfigError) as excinfo:
        ExperimentConfig(**bad)
    code, out, err = run_cli(capsys, verb, *argv, *_CONFIG_VERBS[verb])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err == f"momaplan {verb}: error: {excinfo.value}\n"


def _refused_as_not_int(capsys, verb, flag, value):
    """argparse's type parse refuses a value that is not an int."""
    with pytest.raises(SystemExit) as excinfo:
        main([verb, flag, value, *_CONFIG_VERBS[verb]])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err == f"momaplan {verb}: error: argument {flag}: invalid int value: '{value}'\n"


@pytest.mark.parametrize("verb", list(_CONFIG_VERBS))
@pytest.mark.parametrize("seed", ["-1", "4.5"])
def test_seed_flag_must_be_a_non_negative_int(capsys, verb, seed):
    if seed == "4.5":
        _refused_as_not_int(capsys, verb, "--seed", seed)
    else:
        _refused_as_config(capsys, verb, ["--seed", seed], seed=int(seed))


@pytest.mark.parametrize("verb, flag, value", [
    ("run", "--trials", "-3"),
    ("run", "--trials", "0"),
    ("run", "--configurations", "0"),
    ("run", "--configurations", "2.5"),
    ("plan", "--configurations", "0"),
    ("plan", "--configurations", "-1"),
])
def test_count_flags_must_be_positive_ints(capsys, verb, flag, value):
    if value == "2.5":
        _refused_as_not_int(capsys, verb, flag, value)
    else:
        _refused_as_config(capsys, verb, [flag, value], **{flag[2:]: int(value)})


@pytest.mark.parametrize("key, value", [("trials", -3), ("configurations", 0)])
def test_run_rejects_non_positive_counts_in_config(tmp_path, capsys, key, value):
    config = tmp_path / "exp.yaml"
    config.write_text(f"task: 1\nsystems: [tpra]\n{key}: {value}\n")
    code, out, err = run_cli(capsys, "run", "--config", str(config))
    _rejected_in_one_line(code, err, "config")
    assert f"{key} must be positive, got {value}" in err


@pytest.mark.parametrize("verb", list(_CONFIG_VERBS))
def test_unknown_task_is_refused_on_one_line(capsys, verb):
    _refused_as_config(capsys, verb, ["--task", "10"], task=10)


@pytest.mark.parametrize("verb", list(_CONFIG_VERBS))
def test_unknown_environment_is_refused_on_one_line(capsys, verb):
    _refused_as_config(capsys, verb, ["--environment", "zero_g"], environment="zero_g")


def test_unknown_system_is_refused_on_one_line(capsys):
    _refused_as_config(capsys, "run", ["--systems", "latp", "oracle"], systems=("latp", "oracle"))


def test_write_heatmap_pgm_bytes(tmp_path):
    values = np.array([[0.0, 0.5, 1.0]])
    fmap = FeasibilityMap("loc", (0.0, 0.0), values)
    path = tmp_path / "map.pgm"
    write_heatmap_pgm(fmap, path)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n3 1\n255\n")
    assert raw[len(b"P5\n3 1\n255\n"):] == bytes([0, 128, 255])


def test_heatmap_writes_image_and_sidecar(tmp_path, capsys):
    prefix = tmp_path / "south"
    code, out, err = run_cli(
        capsys, "heatmap", "--task", "1", "--side", "south", "--out", str(prefix)
    )
    assert code == 0
    raw = (tmp_path / "south.pgm").read_bytes()
    assert raw.startswith(b"P5\n24 8\n255\n")
    assert len(raw) == len(b"P5\n24 8\n255\n") + 24 * 8
    sidecar = yaml.safe_load((tmp_path / "south.yaml").read_text())
    assert sidecar["location"] == "dining/south"
    assert sidecar["rows"] == 8 and sidecar["cols"] == 24
    assert sidecar["pgm"] == "south.pgm"
    assert 0.0 <= sidecar["expected_task_feasibility"] <= 1.0
    assert "expected fea_t" in out


@pytest.mark.parametrize("x, y", [("nan", "0"), ("inf", "0"), ("1e308", "0"), ("0.61", "0"),
                                  ("0", "-0.2")])
def test_heatmap_refuses_a_target_off_the_table(tmp_path, capsys, x, y):
    prefix = tmp_path / "map"
    code, out, err = run_cli(capsys, "heatmap", "--target-x", x, "--target-y", y,
                             "--out", str(prefix))
    assert code == 2
    assert out == ""
    assert err.startswith("momaplan heatmap: error: target (")
    assert err.endswith(") is not on the dining table\n")
    assert err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_heatmap_accepts_a_target_on_the_table_edge(tmp_path, capsys):
    # The dining table spans x in [-0.6, 0.6] and y in [-0.15, 0.15].
    code, out, err = run_cli(capsys, "heatmap", "--target-x", "0.6", "--target-y", "-0.15",
                             "--out", str(tmp_path / "edge"))
    assert code == 0 and err == ""
    assert (tmp_path / "edge.pgm").exists()


def test_run_with_flags_to_stdout(capsys):
    code, out, err = run_cli(
        capsys,
        "run", "--task", "1", "--trials", "1", "--systems", "tpra",
        "--configurations", "2",
    )
    assert code == 0
    report = yaml.safe_load(out)
    assert report["config"]["systems"] == ["tpra"]
    assert len(report["trials"]) == 1


def test_run_writes_report_and_log(tmp_path, capsys):
    out_path = tmp_path / "report.yaml"
    log_path = tmp_path / "trials.jsonl"
    code, out, err = run_cli(
        capsys,
        "run", "--task", "1", "--trials", "2", "--systems", "tpra",
        "--out", str(out_path), "--log", str(log_path),
    )
    assert code == 0
    report = yaml.safe_load(out_path.read_text())
    assert len(report["trials"]) == 2
    assert len(log_path.read_text().splitlines()) == 2


@pytest.mark.parametrize("verb, flag, written", [
    ("heatmap", "--out", "missing/h.pgm"),
    ("export-scene", "--out", "missing/scene.yaml"),
    ("run", "--out", "missing/report.yaml"),
    ("run", "--log", "missing/trials.jsonl"),
])
def test_unwritable_output_path_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                        verb, flag, written):
    """An output path in a directory that does not exist is refused on one
    line with exit 2, before a map is computed or a trial runs."""
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    monkeypatch.setattr(cli, "run_experiment", refuse)
    monkeypatch.setattr(cli, "compute_feasibility_map", refuse)
    monkeypatch.setattr(cli, "save_scene", refuse)
    value = str(tmp_path / written).removesuffix(".pgm")
    trials = ["--trials", "1"] if verb == "run" else []
    code, out, err = run_cli(capsys, verb, *trials, flag, value)
    assert code == 2 and out == ""
    assert err == (f"momaplan {verb}: error: cannot write {tmp_path / written}: "
                   f"no directory {tmp_path / 'missing'}\n")
    assert not list(tmp_path.iterdir())


def test_output_path_naming_a_directory_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "run", "--trials", "1", "--out", str(tmp_path))
    assert code == 2 and out == ""
    assert err == f"momaplan run: error: cannot write {tmp_path}: it is a directory\n"


def test_run_rejects_config_plus_flags(tmp_path, capsys):
    config = tmp_path / "exp.yaml"
    config.write_text("task: 1\ntrials: 1\n")
    code, out, err = run_cli(
        capsys, "run", "--config", str(config), "--trials", "5"
    )
    assert code == 2
    assert "--config cannot be combined" in err


@pytest.mark.parametrize("flag, value", [
    ("--task", "2"), ("--environment", "chair_top"), ("--seed", "7"),
    ("--trials", "3"), ("--configurations", "4"), ("--systems", "tpra"),
])
def test_run_names_each_flag_combined_with_config(tmp_path, capsys, flag, value):
    config = tmp_path / "exp.yaml"
    config.write_text("task: 1\ntrials: 1\n")
    code, out, err = run_cli(capsys, "run", "--config", str(config), flag, value)
    assert (code, out) == (2, "")
    assert err == f"momaplan run: error: --config cannot be combined with experiment flags " \
                  f"({flag[2:]})\n"


def test_run_flag_defaults_are_the_config_defaults():
    """Flags left out build exactly ``ExperimentConfig()``, so only a flag
    given a value of its own counts as combined with ``--config``."""
    args = cli._build_parser().parse_args(["run"])
    defaults = ExperimentConfig()
    for name in ("task", "environment", "seed", "trials", "configurations"):
        assert getattr(args, name) == getattr(defaults, name), name
    assert tuple(args.systems) == defaults.systems


def test_run_accepts_config_file(tmp_path, capsys):
    config = tmp_path / "exp.yaml"
    config.write_text(
        "task: 1\ntrials: 1\nsystems: [tpra]\n"
        "feasibility: {trials_per_cell: 2}\n"
    )
    code, out, err = run_cli(capsys, "run", "--config", str(config))
    assert code == 0
    report = yaml.safe_load(out)
    assert report["config"]["trials"] == 1
    assert report["config"]["feasibility"]["trials_per_cell"] == 2


def test_export_scene_then_validate(tmp_path, capsys):
    scene_path = tmp_path / "scene.yaml"
    code, out, err = run_cli(
        capsys, "export-scene", "--task", "2", "--environment", "chair_top",
        "--out", str(scene_path),
    )
    assert code == 0
    scene = load_scene(scene_path)
    assert len(scene.obstacles) == 1
    code, out, err = run_cli(capsys, "validate", str(scene_path))
    assert code == 0
    assert "scene ok: 3 tables, 1 obstacles, 3 objects" in out
    assert "dining: bands dining/north, dining/south, dining/east, dining/west" in out


def test_validate_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("format_version: 999\n")
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert "invalid scene" in err
    code, out, err = run_cli(capsys, "validate", str(tmp_path / "absent.yaml"))
    assert code == 2


def test_bundled_demo_scene_validates(capsys):
    from importlib.resources import files

    path = files("momaplan").joinpath("fixtures/scenes/dining_3tables.scene")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 0
    assert "scene ok" in out


def _rejected_in_one_line(code, err, what):
    assert code == 2
    assert err.startswith(f"invalid {what}: ")
    assert err.count("\n") == 1


def test_run_refuses_repeated_systems_flag(capsys):
    """A system named twice would run, and count, each trial twice."""
    systems = ("latp", "tpra", "latp")
    _refused_as_config(capsys, "run", ["--trials", "1", "--systems", *systems], systems=systems)


@pytest.mark.parametrize("systems", ["[]", "[latp, latp]"])
def test_run_refuses_empty_or_repeated_systems_in_config(tmp_path, capsys, systems):
    config = tmp_path / "exp.yaml"
    config.write_text(f"task: 1\ntrials: 1\nsystems: {systems}\n")
    code, out, err = run_cli(capsys, "run", "--config", str(config))
    _rejected_in_one_line(code, err, "config")
    assert out == "" and "systems must name at least one system, each once" in err


def _scene_with_dining(tmp_path, key, value):
    data = scene_to_dict(make_scene(1, "easy", 42))
    dining = next(t for t in data["tables"] if t["id"] == "dining")
    dining[key] = value
    path = tmp_path / "scene.yaml"
    path.write_text(yaml.safe_dump(data))
    return path


def test_validate_rejects_short_center(tmp_path, capsys):
    path = _scene_with_dining(tmp_path, "center", [0.0])
    code, out, err = run_cli(capsys, "validate", str(path))
    _rejected_in_one_line(code, err, "scene")
    assert "'dining' center must be two floats" in err


def test_validate_rejects_zero_half_extent(tmp_path, capsys):
    path = _scene_with_dining(tmp_path, "half_extents", [0.0, 0.15])
    code, out, err = run_cli(capsys, "validate", str(path))
    _rejected_in_one_line(code, err, "scene")
    assert "half extents must be positive" in err


@pytest.mark.parametrize("entry, text, message", [
    ("seed", "-1", "seed must be non-negative, got -1"),
    ("radius", "-0.2", "robot radius must be non-negative and finite, got -0.2"),
    ("radius", ".nan", "robot radius must be non-negative and finite, got nan"),
])
def test_validate_rejects_bad_seed_and_robot_radius(tmp_path, capsys, entry, text, message):
    data = scene_to_dict(make_scene(1, "easy", 42))
    (data if entry == "seed" else data["robot"])[entry] = "VALUE"
    path = tmp_path / "scene.yaml"
    path.write_text(yaml.safe_dump(data).replace("VALUE", text))
    code, out, err = run_cli(capsys, "validate", str(path))
    _rejected_in_one_line(code, err, "scene")
    assert message in err and out == ""


@pytest.mark.parametrize("field, message", [
    ("footprint_radius", "'dinner_plate' footprint_radius must be finite, got nan"),
    ("center", "'dining' center must be finite, got [nan, 0.0]"),
    ("half_extents", "'dining' half_extents must be finite, got [nan, 0.15]"),
    ("initial_position", "'dinner_plate' initial_position must be finite, got [nan, 0.0]"),
    ("theta", "theta must be finite, got nan"),
    ("resolution", "resolution must be finite, got inf"),
])
def test_validate_rejects_non_finite_numbers(tmp_path, capsys, field, message):
    """An exported scene with one number set to ``.nan`` (the grid
    resolution to ``.inf``, since NaN already fails as a grid size) exits 2
    on one line."""
    data = scene_to_dict(make_scene(1, "easy", 42))
    plate, dining = data["objects"][0], data["tables"][0]
    if field == "footprint_radius":
        plate[field] = math.nan
    elif field == "initial_position":
        plate[field] = [math.nan, plate[field][1]]
    elif field == "theta":
        data["robot"][field] = math.nan
    elif field == "resolution":
        data["grid"][field] = math.inf
    else:
        dining[field] = [math.nan, dining[field][1]]
    path = tmp_path / "scene.yaml"
    path.write_text(yaml.safe_dump(data))
    code, out, err = run_cli(capsys, "validate", str(path))
    _rejected_in_one_line(code, err, "scene")
    assert message in err and out == ""


@pytest.mark.parametrize("where, key, text, message", [
    ("object", "supports_stacking", '"no"', "'dinner_plate' supports_stacking must be bool, got 'no'"),
    ("robot", "radius", "true", "robot radius must be non-negative and finite, got True"),
    ("scene", "seed", "4.7", "seed must be int, got 4.7"),
    ("scene", "seed", "true", "seed must be int, got True"),
    ("object", "footprint_radius", '"0.02"', "'dinner_plate' footprint_radius must be float, got '0.02'"),
    ("grid", "resolution", '"0.05"', "resolution must be float, got '0.05'"),
    ("robot", "theta", "true", "theta must be float, got True"),
])
def test_validate_rejects_mistyped_scalars(tmp_path, capsys, where, key, text, message):
    """A one-value entry follows the rule of each number of a pair: an int
    or a float, never a bool or a string (the seed an int), and a flag is
    a bool. Each of these once loaded as some other value."""
    data = scene_to_dict(make_scene(1, "easy", 42))
    entry = {"object": data["objects"][0], "robot": data["robot"], "grid": data["grid"],
             "scene": data}[where]
    entry[key] = "VALUE"
    path = tmp_path / "scene.yaml"
    path.write_text(yaml.safe_dump(data).replace("VALUE", text))
    code, out, err = run_cli(capsys, "validate", str(path))
    _rejected_in_one_line(code, err, "scene")
    assert message in err and out == ""


@pytest.mark.parametrize("where, key, text, message", [
    ("object", "id", "null", "None id must be str, got None"),
    ("object", "initial_location", "null", "'bread_plate' initial_location must be str, got None"),
    ("obstacle", "id", "null", "None id must be str, got None"),
    ("obstacle", "kind", "[1]", "'chair' kind must be str, got [1]"),
    ("extra table", "id", "7", "7 id must be str, got 7"),
])
def test_validate_rejects_ids_and_kinds_that_are_not_strings(tmp_path, capsys, where, key, text,
                                                             message):
    """Table, obstacle and object ids, an object's initial location and an
    obstacle's kind are strings; each of these once validated as a scene."""
    data = scene_to_dict(make_scene(2, "chair_top", 42))
    entry = {"object": data["objects"][0], "obstacle": data["obstacles"][0]}.get(where)
    if where == "extra table":
        entry = {"id": "spare", "center": [0.0, 2.5], "half_extents": [0.3, 0.2]}
        data["tables"].append(entry)
    entry[key] = "VALUE"
    path = tmp_path / "scene.yaml"
    path.write_text(yaml.safe_dump(data).replace("VALUE", text))
    code, out, err = run_cli(capsys, "validate", str(path))
    _rejected_in_one_line(code, err, "scene")
    assert f"malformed scene entry: {message}" in err and out == ""


def test_run_rejects_config_of_wrong_type(tmp_path, capsys):
    config = tmp_path / "exp.yaml"
    config.write_text('task: 1\ntrials: "many"\n')
    code, out, err = run_cli(capsys, "run", "--config", str(config))
    _rejected_in_one_line(code, err, "config")
    assert "trials must be int, got 'many'" in err


def test_run_rejects_unknown_config_key(tmp_path, capsys):
    config = tmp_path / "exp.yaml"
    config.write_text("task: 1\nworkers: 4\n")
    code, out, err = run_cli(capsys, "run", "--config", str(config))
    _rejected_in_one_line(code, err, "config")
    assert "unknown config keys ['workers']" in err


def test_run_rejects_out_of_range_feasibility(tmp_path, capsys):
    config = tmp_path / "exp.yaml"
    config.write_text(
        "task: 1\ntrials: 1\nsystems: [llm_grop]\nconfigurations: 1\n"
        "feasibility: {trials_per_cell: 0}\n"
    )
    code, out, err = run_cli(capsys, "run", "--config", str(config))
    _rejected_in_one_line(code, err, "config")
    assert "trials_per_cell must be at least 1, got 0" in err


def test_run_rejects_the_removed_task_draws_key(tmp_path, capsys):
    """Whole-task feasibility is a closed form, so no draw count is read."""
    config = tmp_path / "exp.yaml"
    config.write_text("task: 1\ntrials: 1\nsystems: [llm_grop]\nfeasibility: {task_draws: 25}\n")
    code, out, err = run_cli(capsys, "run", "--config", str(config))
    _rejected_in_one_line(code, err, "config")
    assert "unknown feasibility keys ['task_draws']" in err


def test_run_rejects_the_removed_nav_sigma_theta_key(tmp_path, capsys):
    """Arrivals are drawn in (x, y) only, so no heading noise is read."""
    config = tmp_path / "exp.yaml"
    config.write_text("task: 1\ntrials: 1\nsystems: [llm_grop]\nfeasibility: {nav_sigma_theta: 0.1}\n")
    code, out, err = run_cli(capsys, "run", "--config", str(config))
    _rejected_in_one_line(code, err, "config")
    assert "unknown feasibility keys ['nav_sigma_theta']" in err


# Keys of both loaders' documents, so generated mappings reach their checks.
_KEYS = st.sampled_from([
    "task", "environment", "systems", "trials", "seed", "configurations", "feasibility",
    "trials_per_cell", "nav_sigma_xy", "reach_radius",
    "format_version", "robot", "x", "y", "theta", "radius", "grid", "resolution", "origin",
    "shape", "tables", "obstacles", "objects", "id", "center", "half_extents", "kind",
    "footprint_radius", "initial_location", "supports_stacking", "initial_position",
])
# Numbers stay small: a scene's grid spans its furniture at the given
# resolution, and a generated scene must not ask for a large one.
_NUMBERS = st.one_of(
    st.integers(-3, 12),
    st.floats(-6.0, 6.0).filter(lambda v: v == 0.0 or abs(v) >= 0.05),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), _NUMBERS, st.text(max_size=6), _KEYS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(_KEYS | st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=8,
)
_BASE_CONFIG = {"task": 1, "environment": "easy", "systems": ["llm_grop"], "trials": 1,
                "seed": 3, "configurations": 1,
                "feasibility": {"trials_per_cell": 2, "nav_sigma_xy": 0.02}}


@st.composite
def _mutated(draw, base):
    """``base`` with one entry at a drawn path replaced by a drawn value, or
    deleted."""
    doc = copy.deepcopy(base)
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            return doc
        key = draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        if isinstance(node, dict) and draw(st.integers(0, 4)) == 0:
            del node[key]
        else:
            node[key] = draw(_VALUES)
        return doc


_SCENE_DATA = scene_to_dict(make_scene(1, "easy", 42))
_YAML_TEXTS = st.one_of(
    st.text(max_size=40),
    st.lists(st.sampled_from(["a: ", "- ", "[", "]", "{", "}", ": ", ", ", "\n", "  ", "&x ",
                              "*x", "!!", "'", '"', "1e400", ".nan", "task", "tables"]),
             max_size=12).map("".join),
    _VALUES.map(yaml.safe_dump),
    _mutated(_BASE_CONFIG).map(yaml.safe_dump),
    _mutated(_SCENE_DATA).map(yaml.safe_dump),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(text="[" * 2000 + "]" * 2000)
@example(text="seed: -1\n")
@example(text="feasibility: {reach_radius: .inf}\n")
@example(text=yaml.safe_dump(
    {**_SCENE_DATA, "grid": {**_SCENE_DATA["grid"], "shape": [10_000_000, 10_000_000]}}))
@given(text=_YAML_TEXTS)
def test_yaml_text_loads_or_exits_2_in_one_line(tmp_path, capsys, text):
    """Any YAML text loads as an experiment config or a scene, or raises
    that loader's error, on which the CLI exits 2 with one line."""
    path = tmp_path / "doc.yaml"
    path.write_text(text, encoding="utf-8")
    try:
        assert isinstance(ExperimentConfig.from_yaml(path), ExperimentConfig)
    except ConfigError:
        code, _, err = run_cli(capsys, "run", "--config", str(path))
        _rejected_in_one_line(code, err, "config")
    try:
        load_scene(path)
    except SceneError:
        code, _, err = run_cli(capsys, "validate", str(path))
        _rejected_in_one_line(code, err, "scene")
    else:
        assert run_cli(capsys, "validate", str(path))[0] == 0


def test_loaders_reject_undecodable_bytes(tmp_path, capsys):
    path = tmp_path / "doc.yaml"
    path.write_bytes(b"task: \xff\xfe\n")
    _rejected_in_one_line(*run_cli(capsys, "run", "--config", str(path))[::2], "config")
    _rejected_in_one_line(*run_cli(capsys, "validate", str(path))[::2], "scene")
