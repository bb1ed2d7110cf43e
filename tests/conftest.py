import gc

import pytest

from momaplan.goalgen import generate_goal
from momaplan.harness import TASK_OBJECTS, make_scene, scripted_backend_for_task

# Verdict lines recorded by the acceptance tests. Printed as a summary
# section because pytest's default fd-level capture would swallow direct
# writes on passing runs.
ACCEPTANCE_LINES: list[str] = []


def pytest_collection_finish(session):
    """Run one full garbage collection before the first test. Collecting
    the suite leaves a large backlog of new objects, and the collector's
    first full pass over it (60-75 ms with every test collected) would
    otherwise land inside whichever timed test is running when the
    backlog crosses the collector's threshold."""
    gc.collect()


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance verdicts")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


@pytest.fixture(scope="session")
def scene1():
    """Task-1 benchmark scene, shared so navigators and heatmaps stay cached."""
    return make_scene(1, "easy", 42)


@pytest.fixture(scope="session")
def scene1_chair_top():
    return make_scene(1, "chair_top", 42)


@pytest.fixture(scope="session")
def goal1():
    """Canonical Task-1 goal from the bundled scripted backend."""
    return generate_goal(list(TASK_OBJECTS[1]), scripted_backend_for_task(1))
