"""momaplan: tabletop rearrangement planning for a simulated mobile
manipulator.

The pipeline turns a natural-language arrangement request into symbolic
placement goals (via a language model), grounds them to metric poses on the
target table, scores candidate task-motion plans by expected utility, and
simulates execution under actuation noise.
"""

__version__ = "0.1.0"

from .execution import ExecutionResult, execute_plan, relation_satisfaction, verify_goal
from .feasibility import (
    FeasibilityMap,
    FeasibilityParams,
    compute_feasibility_map,
    sample_standing_cell,
    task_feasibility,
)
from .goalgen import (
    GeneratedGoal,
    GoalGenerationError,
    HttpChatBackend,
    ScriptedBackend,
    generate_goal,
    parse_distance_cm,
    parse_goal_response,
)
from .grounding import (
    Configuration,
    GroundingError,
    GroundingParams,
    GroundingResult,
    nominal_layout,
    sample_configurations,
)
from .harness import (
    ENVIRONMENTS,
    SYSTEMS,
    TASK_OBJECTS,
    ExperimentConfig,
    make_scene,
    run_experiment,
    run_trial,
    scripted_backend_for_task,
)
from .motion import MotionError, MotionPlan, Navigator, navigator_for
from .planning import (
    PlanningError,
    PlanningParams,
    PlanStep,
    SelectedPlan,
    plan_task,
)
from .relations import (
    PlacementAtom,
    atoms_consistent,
    check_consistency,
    find_minimal_conflict,
    satisfied_atoms,
)
from .world import (
    ObjectSpec,
    ObstacleSpec,
    Pose2D,
    SceneState,
    TableSpec,
    build_scene,
    load_scene,
    save_scene,
    symbolic_locations,
)
