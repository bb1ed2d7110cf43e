import os
import re
import subprocess
import sys
import time

import pytest
import requests
import yaml
from hypothesis import given, settings, strategies as st

from momaplan import cli
from momaplan.goalgen import (
    CANONICAL_PHRASE,
    GoalGenerationError,
    HttpChatBackend,
    LineParseError,
    ScriptedBackend,
    bundled_script_path,
    generate_goal,
    parse_distance_cm,
    parse_goal_line,
    parse_goal_response,
    prompt_key,
    render_distance_prompt,
    render_goal_prompt,
)
from momaplan.relations import PlacementAtom

from oracles import parse_distance_cm_by_retry

TASK1_OBJECTS = ["dinner_plate", "dinner_fork", "dinner_knife"]

# Frozen snapshot: anything that changes this prompt silently invalidates
# every bundled response script, so a diff here must be deliberate.
TASK1_GOAL_PROMPT = (
    "You are setting a dining table for one person.\n"
    "Objects to place: dinner plate, dinner fork, dinner knife.\n"
    "Write one numbered instruction per line saying where each object should go, "
    "relative to another object or to the table.\n"
    'Use only these spatial phrases: "to the left of"; "to the right of"; "above"; '
    '"below"; "above and to the left of"; "above and to the right of"; '
    '"below and to the left of"; "below and to the right of"; "on top of"; '
    '"in the center of the table".\n'
    "Every object must be the subject of at least one instruction.\n"
    "Example line: 1. the fork goes to the left of the dinner plate"
)


def test_goal_prompt_snapshot():
    assert render_goal_prompt(TASK1_OBJECTS) == TASK1_GOAL_PROMPT
    assert prompt_key(TASK1_GOAL_PROMPT) == "4fe709762825a02e"


def test_retry_prompt_embeds_feedback():
    prompt = render_goal_prompt(
        TASK1_OBJECTS, previous_response="1. nonsense", issues=["no instruction places: dinner knife"]
    )
    assert prompt.startswith(TASK1_GOAL_PROMPT)
    assert "1. nonsense" in prompt
    assert "- no instruction places: dinner knife" in prompt


def test_distance_prompt_render():
    atom = PlacementAtom("left_of", "dinner_fork", "dinner_plate")
    prompt = render_distance_prompt(atom)
    assert "The dinner fork goes to the left of the dinner plate." in prompt
    assert "centimeters" in prompt
    assert render_distance_prompt(atom, retry=True).startswith(prompt)


def test_parse_goal_line_forms():
    objs = TASK1_OBJECTS
    line_forms = [
        "1. the dinner fork goes to the left of the dinner plate",
        "- dinner fork to the left of dinner plate",
        "Place dinner fork to the left of the dinner plate.",
        "2) The Dinner Fork should sit to the LEFT OF the dinner plate",
    ]
    for line in line_forms:
        atom = parse_goal_line(line, objs)
        assert atom == PlacementAtom("left_of", "dinner_fork", "dinner_plate"), line
    assert parse_goal_line("", objs) is None
    assert parse_goal_line("   ", objs) is None


def test_parse_goal_line_errors():
    objs = TASK1_OBJECTS
    with pytest.raises(LineParseError, match="no spatial phrase"):
        parse_goal_line("put the fork near the plate", objs)
    with pytest.raises(LineParseError, match="no known object before"):
        parse_goal_line("the napkin goes to the left of the dinner plate", objs)
    with pytest.raises(LineParseError, match="no known object after"):
        parse_goal_line("the dinner fork goes to the left of the napkin", objs)
    with pytest.raises(LineParseError, match="itself"):
        parse_goal_line("the dinner fork goes to the left of the dinner fork", objs)


def test_parse_goal_response_dedups_and_skips_blanks():
    text = """\
Here is a layout:

1. the dinner plate goes in the center of the table
2. the dinner fork goes to the left of the dinner plate
3. the dinner fork goes to the left of the dinner plate
"""
    with pytest.raises(LineParseError):
        # The prose header line is not an instruction.
        parse_goal_response(text, TASK1_OBJECTS)
    body = "\n".join(text.splitlines()[1:])
    atoms = parse_goal_response(body, TASK1_OBJECTS)
    assert atoms == [
        PlacementAtom("centered_on_table", "dinner_plate"),
        PlacementAtom("left_of", "dinner_fork", "dinner_plate"),
    ]


def test_canonical_phrases_round_trip():
    objs = ["alpha_thing", "beta_thing"]
    for relation, phrase in CANONICAL_PHRASE.items():
        if relation == "centered_on_table":
            line = f"the alpha thing goes {phrase}"
            expected = PlacementAtom(relation, "alpha_thing")
        else:
            line = f"the alpha thing goes {phrase} the beta thing"
            expected = PlacementAtom(relation, "alpha_thing", "beta_thing")
        assert parse_goal_line(line, objs) == expected, relation


def test_parse_distance_variants():
    assert parse_distance_cm(
        "Generally, the dinner knife should be placed about 5-7 centimeters "
        "to the right of the dinner plate."
    ) == pytest.approx(6.0)
    assert parse_distance_cm("8 cm") == pytest.approx(8.0)
    assert parse_distance_cm("about 10 centimetres apart") == pytest.approx(10.0)
    assert parse_distance_cm("3 to 5 centimeters") == pytest.approx(4.0)
    assert parse_distance_cm("somewhere around 4–6 centimeters, I'd say") == pytest.approx(5.0)
    # Last number before the first unit token wins.
    assert parse_distance_cm("10 or 12 centimeters") == pytest.approx(12.0)
    assert parse_distance_cm("5 cm, or maybe 7 centimeters") == pytest.approx(5.0)


def test_parse_distance_clamps():
    assert parse_distance_cm("0.2 centimeters") == pytest.approx(1.0)
    assert parse_distance_cm("250 centimeters") == pytest.approx(100.0)


def test_parse_distance_errors():
    with pytest.raises(LineParseError, match="no centimeter unit"):
        parse_distance_cm("about 7 inches")
    with pytest.raises(LineParseError, match="no number"):
        parse_distance_cm("several centimeters apart")


# Replies that mix well-formed answers with fragments of them (object names,
# relation phrases, enumeration marks, numbers, ranges, units) and
# arbitrary text.
_NAMES = st.sampled_from([name.replace("_", " ") for name in TASK1_OBJECTS])
_PHRASES = st.sampled_from(list(CANONICAL_PHRASE.values()))
_GOAL_FRAGMENTS = st.one_of(
    st.sampled_from([" ", "1. ", "2) ", "- ", "* ", "• ", "the ", ".", "goes "]),
    _NAMES, _PHRASES, st.text(max_size=8),
)
_INSTRUCTION = st.builds(
    "{}the {} goes {} the {}{}".format,
    st.sampled_from(["", "1. ", "2) ", "- ", "* ", "• ", "  "]), _NAMES, _PHRASES, _NAMES,
    st.sampled_from(["", ".", " please", "!"]),
)
_GOAL_REPLIES = st.lists(
    st.one_of(_INSTRUCTION, _INSTRUCTION, st.just(""), st.text(max_size=20),
              st.lists(_GOAL_FRAGMENTS, max_size=8).map("".join)),
    max_size=6,
).map("\n".join)

_NUMBERS = st.one_of(
    st.integers(0, 10**400).map(str),
    st.floats(0.0, 1e12).map(str),
    st.sampled_from(["0", "0.5", "99.99", "007"]),
)
_UNITS = st.sampled_from([" cm", "cm", " CM", " centimeters", " centimetre", " Centimetres"])
_DISTANCE_ANSWER = st.builds(
    "{}{}{}{}{}{}".format,
    st.text(max_size=6), _NUMBERS,
    st.sampled_from(["", " to ", "-", "–", "—", " or "]), st.one_of(st.just(""), _NUMBERS),
    _UNITS, st.text(max_size=6),
)
_DISTANCE_REPLIES = st.one_of(
    _DISTANCE_ANSWER,
    st.lists(st.one_of(_NUMBERS, _UNITS, st.sampled_from([" ", "-", " to ", "about "]),
                       st.text(max_size=6)), max_size=10).map("".join),
)


@settings(max_examples=300)
@given(_GOAL_REPLIES)
def test_any_goal_reply_parses_or_raises_line_parse_error(text):
    try:
        atoms = parse_goal_response(text, TASK1_OBJECTS)
    except LineParseError:
        return
    assert atoms
    assert all(isinstance(atom, PlacementAtom) for atom in atoms)
    assert len(set(atoms)) == len(atoms)
    assert all(atom.subject in TASK1_OBJECTS for atom in atoms)
    assert all(atom.reference in (None, *TASK1_OBJECTS) for atom in atoms)


@settings(max_examples=300)
@given(_DISTANCE_REPLIES)
def test_any_distance_reply_parses_within_bounds_or_raises_line_parse_error(text):
    try:
        distance = parse_distance_cm(text)
    except LineParseError:
        return
    assert 1.0 <= distance <= 100.0


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except LineParseError as exc:
        return str(exc)


# The reference retries its range pattern inside digit runs, so a reply of
# a few thousand digits takes it longer than hypothesis's default deadline.
@settings(max_examples=300, deadline=None)
@given(_DISTANCE_REPLIES)
def test_distance_parse_matches_the_retrying_reference(text):
    assert _parse_outcome(parse_distance_cm, text) == _parse_outcome(
        parse_distance_cm_by_retry, text)


@pytest.mark.parametrize("text", [
    "1-2-3 cm", "1.5.3-4 cm", "5 to 7 cm", "3.5–4 cm", "12-3.5.6 to 8 cm", "x.5-3 cm",
])
def test_distance_parse_matches_the_retrying_reference_on_chained_ranges(text):
    assert parse_distance_cm(text) == parse_distance_cm_by_retry(text)


def test_distance_parse_is_linear_in_the_digit_run():
    """A range match is tried only where a digit run starts, so a
    50,000-digit reply parses in milliseconds, not minutes."""
    start = time.perf_counter()
    assert parse_distance_cm("about " + "7" * 50_000 + " or 3.5 cm") == pytest.approx(3.5)
    assert parse_distance_cm("7" * 50_000 + "x cm") == pytest.approx(100.0)
    assert time.perf_counter() - start < 1.0


def test_scripted_backend_replay():
    key = prompt_key("hello")
    backend = ScriptedBackend({key: ["first", "second"]})
    assert backend.complete("hello", 0) == "first"
    assert backend.complete("hello", 1) == "second"
    assert backend.complete("hello", 9) == "second"  # last entry repeats
    with pytest.raises(KeyError, match="no scripted response"):
        backend.complete("unknown prompt")


BUNDLED_SCRIPTS = sorted(bundled_script_path(1).parent.glob("task*.yaml"))


@pytest.mark.parametrize("path", BUNDLED_SCRIPTS, ids=lambda path: path.stem)
def test_bundled_script_parses_alike_under_both_loaders(path):
    text = path.read_text(encoding="utf-8")
    expected = yaml.safe_load(text)
    assert yaml.load(text, Loader=yaml.CSafeLoader) == expected
    assert ScriptedBackend.from_yaml(path).responses == expected["responses"]


def test_every_task_has_a_bundled_script():
    assert [path.stem for path in BUNDLED_SCRIPTS] == [f"task{n}" for n in range(1, 10)]


def test_scripts_load_without_libyaml(monkeypatch):
    """Where PyYAML was built without libyaml, ``from_yaml`` falls back to
    the pure-Python safe loader and reads the same script."""
    path = bundled_script_path(4)
    expected = ScriptedBackend.from_yaml(path).responses
    monkeypatch.delattr(yaml, "CSafeLoader")
    backend = ScriptedBackend.from_yaml(path)
    assert backend.responses == expected
    assert generate_goal(["fruit_bowl", "mug", "strawberry"], backend).attempts == 2


@pytest.mark.parametrize("text", [
    "responses: [first, second]\n",
    "responses: just one reply\n",
    "responses:\n",
    "format_version: 1\n",
    "- responses\n",
])
def test_malformed_script_is_rejected_at_load(tmp_path, text):
    """A script without a ``responses`` mapping fails when it is loaded,
    with the path in the message, not with a bare TypeError on the first
    prompt."""
    path = tmp_path / "script.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: expected a mapping")):
        ScriptedBackend.from_yaml(path)


def test_generate_goal_task1(goal1):
    atoms = goal1.atoms
    assert goal1.attempts == 1
    assert atoms[0] == PlacementAtom("centered_on_table", "dinner_plate")
    assert PlacementAtom("left_of", "dinner_fork", "dinner_plate") in atoms
    assert PlacementAtom("right_of", "dinner_knife", "dinner_plate") in atoms
    # Distances arrive in meters, per planar atom index.
    assert goal1.distances_m[1] == pytest.approx(0.06)
    assert goal1.distances_m[2] == pytest.approx(0.06)
    assert 0 not in goal1.distances_m
    kinds = [e.kind for e in goal1.transcript]
    assert kinds == ["goal", "distance", "distance"]


def test_generate_goal_task4_retries():
    backend = ScriptedBackend.from_yaml(bundled_script_path(4))
    goal = generate_goal(["fruit_bowl", "mug", "strawberry"], backend)
    assert goal.attempts == 2
    assert len([e for e in goal.transcript if e.kind == "goal"]) == 2
    retry_prompt = goal.transcript[1].prompt
    assert "cannot all hold at once" in retry_prompt


def test_generate_goal_exhausts_attempts():
    class Unhelpful:
        def complete(self, prompt, attempt=0):
            return "I cannot help with furniture."

    with pytest.raises(GoalGenerationError, match="no usable goal after 5 attempts"):
        generate_goal(TASK1_OBJECTS, Unhelpful())


def test_generate_goal_distance_budget():
    class GoodGoalBadDistance:
        def complete(self, prompt, attempt=0):
            if "numbered instruction" in prompt:
                return (
                    "1. the dinner plate goes in the center of the table\n"
                    "2. the dinner fork goes to the left of the dinner plate\n"
                    "3. the dinner knife goes to the right of the dinner plate"
                )
            return "hard to say"

    with pytest.raises(GoalGenerationError, match="no usable distance"):
        generate_goal(TASK1_OBJECTS, GoodGoalBadDistance())


def test_all_bundled_scripts_complete():
    from momaplan.harness import TASK_OBJECTS, scripted_backend_for_task

    for task, objects in TASK_OBJECTS.items():
        goal = generate_goal(list(objects), scripted_backend_for_task(task))
        placed = {a.subject for a in goal.atoms}
        assert placed == set(objects), f"task {task} leaves objects unplaced"


class FakeSession:
    """Stands in for ``requests.Session``: ``post`` raises ``error`` or
    returns a response with the given status and body."""

    def __init__(self, error=None, status=200, body=b""):
        self.error = error
        self.status = status
        self.body = body

    def post(self, url, **kwargs):
        if self.error is not None:
            raise self.error
        resp = requests.Response()
        resp.status_code = self.status
        resp._content = self.body
        resp.url = url
        return resp


FAILING_SESSIONS = {
    "status": FakeSession(status=503, body=b"busy"),
    "timeout": FakeSession(error=requests.Timeout("read timed out")),
    "connection": FakeSession(error=requests.ConnectionError("connection refused")),
    "not_json": FakeSession(body=b"<html>gateway</html>"),
}


def test_importing_the_package_does_not_load_requests():
    """Only ``HttpChatBackend`` uses the HTTP stack, and imports it itself."""
    code = "import sys, momaplan, momaplan.harness, momaplan.cli; print('requests' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_http_backend_returns_completion_text():
    body = b'{"choices": [{"message": {"content": "1. the plate goes in the center"}}]}'
    backend = HttpChatBackend(base_url="http://llm.invalid", session=FakeSession(body=body))
    assert backend.complete("prompt") == "1. the plate goes in the center"


@pytest.mark.parametrize("failure", sorted(FAILING_SESSIONS))
def test_http_backend_failures_raise_goal_generation_error(failure):
    backend = HttpChatBackend(base_url="http://llm.invalid", session=FAILING_SESSIONS[failure])
    with pytest.raises(GoalGenerationError, match="chat completion request to .* failed"):
        backend.complete("prompt")


@pytest.mark.parametrize("failure", sorted(FAILING_SESSIONS))
def test_cli_reports_http_failure_in_one_line(failure, monkeypatch, capsys):
    backend = HttpChatBackend(base_url="http://llm.invalid", session=FAILING_SESSIONS[failure])
    monkeypatch.setattr(cli, "scripted_backend_for_task", lambda task: backend)
    assert cli.main(["plan", "--task", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: chat completion request to http://llm.invalid/")
    assert err.count("\n") == 1


NON_STRING_CONTENT = {
    "null": b'{"choices": [{"message": {"content": null}}]}',
    "number": b'{"choices": [{"message": {"content": 42}}]}',
    "list": b'{"choices": [{"message": {"content": ["a"]}}]}',
}


@pytest.mark.parametrize("kind", sorted(NON_STRING_CONTENT))
def test_http_backend_rejects_non_string_content(kind):
    session = FakeSession(body=NON_STRING_CONTENT[kind])
    backend = HttpChatBackend(base_url="http://llm.invalid", session=session)
    with pytest.raises(GoalGenerationError, match="malformed completion payload"):
        backend.complete("prompt")


def test_cli_reports_non_string_content_in_one_line(monkeypatch, capsys):
    session = FakeSession(body=NON_STRING_CONTENT["null"])
    backend = HttpChatBackend(base_url="http://llm.invalid", session=session)
    monkeypatch.setattr(cli, "scripted_backend_for_task", lambda task: backend)
    assert cli.main(["plan", "--task", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed completion payload")
    assert err.count("\n") == 1
