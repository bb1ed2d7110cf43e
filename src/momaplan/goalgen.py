"""Symbolic goal generation backed by a language model.

Two prompt families drive the pipeline. The first asks for a complete set
of placement instructions for the requested objects; its answers are parsed
into :class:`~momaplan.relations.PlacementAtom` lists, checked for
consistency and coverage, and regenerated with targeted feedback when they
fail. The second asks, per planar relation, how far apart two objects
should sit; its answers are parsed into centimeter distances.

Backends are pluggable. ``ScriptedBackend`` replays canned responses keyed
by a hash of the rendered prompt (bundled scripts make the whole pipeline
runnable offline and byte-reproducible); ``HttpChatBackend`` talks to any
OpenAI-style chat completion endpoint.
"""
from __future__ import annotations

import functools
import hashlib
import logging
import os
import re
from dataclasses import dataclass, field
from importlib.resources import files
from pathlib import Path
from typing import TYPE_CHECKING

import yaml

from .relations import (
    CENTERED,
    ON_TOP_OF,
    PLANAR_SIGNS,
    PlacementAtom,
    check_consistency,
)

if TYPE_CHECKING:
    import requests

log = logging.getLogger(__name__)

MAX_GOAL_ATTEMPTS = 5
MAX_DISTANCE_ATTEMPTS = 3
# Sampling settings sent with every chat completion request.
TEMPERATURE = 0.1
MAX_TOKENS = 512
MIN_DISTANCE_CM = 1.0
MAX_DISTANCE_CM = 100.0

# One canonical surface phrase per relation, used when rendering prompts and
# feedback. Parsing accepts a wider phrase table (config/relation_phrases.yaml).
CANONICAL_PHRASE: dict[str, str] = {
    "left_of": "to the left of",
    "right_of": "to the right of",
    "above": "above",
    "below": "below",
    "above_left": "above and to the left of",
    "above_right": "above and to the right of",
    "below_left": "below and to the left of",
    "below_right": "below and to the right of",
    ON_TOP_OF: "on top of",
    CENTERED: "in the center of the table",
}

GOAL_PROMPT = """\
You are setting a dining table for one person.
Objects to place: {objects}.
Write one numbered instruction per line saying where each object should go, \
relative to another object or to the table.
Use only these spatial phrases: {phrases}.
Every object must be the subject of at least one instruction.
Example line: 1. the fork goes to the left of the dinner plate"""

GOAL_RETRY_SUFFIX = """

Your previous answer was:
{response}

It has problems:
{issues}
Write a corrected, complete numbered list."""

DISTANCE_PROMPT = """\
A dining table is being set for one person.
The {subject} goes {phrase} the {reference}.
How far apart should the centers of the {subject} and the {reference} be?
Answer with a distance in centimeters."""

DISTANCE_RETRY_SUFFIX = """

Your previous answer could not be read as a distance. \
Respond with a single number followed by "centimeters"."""


class GoalGenerationError(RuntimeError):
    """The backend never produced a usable goal within the attempt budget."""

    def __init__(self, message: str, transcript: list["Exchange"] | None = None):
        super().__init__(message)
        self.transcript = transcript or []


class LineParseError(ValueError):
    """A response line could not be read as a placement instruction."""


@dataclass(frozen=True)
class Exchange:
    """One prompt/response pair, kept for run logs and debugging."""

    kind: str  # "goal" or "distance"
    prompt: str
    response: str


@dataclass
class GeneratedGoal:
    atoms: list[PlacementAtom]
    # Separation in meters per atom index; only planar atoms have entries.
    distances_m: dict[int, float]
    attempts: int
    transcript: list[Exchange] = field(default_factory=list)


def display_name(object_id: str) -> str:
    return object_id.replace("_", " ")


def prompt_key(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Backends


class ScriptedBackend:
    """Replays canned responses from a YAML script.

    The script maps ``prompt_key(prompt)`` to either a single response
    string or a list of responses indexed by retry attempt (the last entry
    repeats once attempts run past the end).
    """

    def __init__(self, responses: dict[str, str | list[str]], name: str = "scripted"):
        self.responses = responses
        self.name = name

    @classmethod
    def from_yaml(cls, path: str | Path) -> "ScriptedBackend":
        # Scripts are package data: parse with libyaml where PyYAML has it.
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        if not isinstance(data, dict) or not isinstance(data.get("responses"), dict):
            raise ValueError(f"{path}: expected a mapping with a 'responses' mapping")
        return cls(data["responses"], name=str(path))

    def complete(self, prompt: str, attempt: int = 0) -> str:
        key = prompt_key(prompt)
        try:
            entry = self.responses[key]
        except KeyError:
            head = prompt.splitlines()[0] if prompt else ""
            raise KeyError(
                f"{self.name}: no scripted response for prompt key {key} ({head!r})"
            ) from None
        if isinstance(entry, list):
            return str(entry[min(attempt, len(entry) - 1)])
        return str(entry)


class HttpChatBackend:
    """OpenAI-style chat completion client.

    Configuration falls back to the MOMAPLAN_API_BASE, MOMAPLAN_API_KEY and
    MOMAPLAN_MODEL environment variables. A failed request (HTTP status
    error, timeout, connection error) or a reply that is not a JSON chat
    completion raises ``GoalGenerationError`` with a one-line message.
    """

    def __init__(
        self,
        base_url: str | None = None,
        api_key: str | None = None,
        model: str | None = None,
        timeout: float = 60.0,
        session: requests.Session | None = None,
    ):
        # Imported here, by the only user, so importing the package does
        # not load the HTTP stack.
        import requests
        self.base_url = (base_url or os.environ.get("MOMAPLAN_API_BASE", "")).rstrip("/")
        if not self.base_url:
            raise ValueError("no API base url; set MOMAPLAN_API_BASE or pass base_url")
        self.api_key = api_key or os.environ.get("MOMAPLAN_API_KEY", "")
        self.model = model or os.environ.get("MOMAPLAN_MODEL", "gpt-3.5-turbo")
        self.timeout = timeout
        self.session = session or requests.Session()

    def complete(self, prompt: str, attempt: int = 0) -> str:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": TEMPERATURE,
            "top_p": 1.0,
            "max_tokens": MAX_TOKENS,
            "presence_penalty": 0.0,
            "frequency_penalty": 0.0,
        }
        url = f"{self.base_url}/v1/chat/completions"
        import requests

        try:
            resp = self.session.post(url, json=payload, headers=headers, timeout=self.timeout)
            resp.raise_for_status()
            body = resp.json()
        except (requests.RequestException, ValueError) as exc:
            # Status errors, timeouts, refused connections and non-JSON bodies.
            reason = " ".join(str(exc).split())
            raise GoalGenerationError(f"chat completion request to {url} failed: {reason}") from exc
        try:
            content = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise GoalGenerationError(f"malformed completion payload: {body!r}") from exc
        if not isinstance(content, str):
            raise GoalGenerationError(f"malformed completion payload: {body!r}")
        return content


# ---------------------------------------------------------------------------
# Parsing


@functools.cache
def phrase_table() -> list[tuple[str, str]]:
    """(phrase, relation) pairs sorted longest phrase first."""
    raw = files("momaplan").joinpath("config/relation_phrases.yaml").read_text("utf-8")
    table = yaml.safe_load(raw)
    pairs = [(phrase, relation) for relation, phrases in table.items() for phrase in phrases]
    pairs.sort(key=lambda p: (-len(p[0]), p[0]))
    return pairs


_ENUM_PREFIX = re.compile(r"^\s*(?:\d+\s*[\.\):-]\s*|[-*•]\s*)")


def _find_object(text: str, objects: list[str]) -> str | None:
    """Longest object whose display name occurs on word boundaries."""
    best: str | None = None
    best_len = -1
    for obj in objects:
        name = re.escape(display_name(obj))
        if re.search(rf"\b{name}\b", text) and len(obj) > best_len:
            best = obj
            best_len = len(obj)
    return best


def parse_goal_line(line: str, objects: list[str]) -> PlacementAtom | None:
    """Parse one response line into an atom.

    Returns None for blank / decorative lines. Raises LineParseError when a
    line looks like an instruction but cannot be resolved.
    """
    text = _ENUM_PREFIX.sub("", line).strip().lower().rstrip(".")
    if not text:
        return None
    for phrase, relation in phrase_table():
        m = re.search(rf"\b{re.escape(phrase)}\b", text)
        if not m:
            continue
        before, after = text[: m.start()], text[m.end() :]
        subject = _find_object(before, objects)
        if subject is None:
            raise LineParseError(f"no known object before {phrase!r} in line {line!r}")
        if relation == CENTERED:
            return PlacementAtom(CENTERED, subject)
        reference = _find_object(after, objects)
        if reference is None:
            raise LineParseError(f"no known object after {phrase!r} in line {line!r}")
        if reference == subject:
            raise LineParseError(f"line relates {subject!r} to itself: {line!r}")
        return PlacementAtom(relation, subject, reference)
    raise LineParseError(f"no spatial phrase found in line {line!r}")


def parse_goal_response(response: str, objects: list[str]) -> list[PlacementAtom]:
    """Parse a full response into a deduplicated atom list."""
    atoms: list[PlacementAtom] = []
    for line in response.splitlines():
        atom = parse_goal_line(line, objects)
        if atom is not None and atom not in atoms:
            atoms.append(atom)
    if not atoms:
        raise LineParseError("response contained no placement instructions")
    return atoms


_NUMBER = r"\d+(?:\.\d+)?"
# A range starts where a digit run does: a match never starts inside a run,
# and trying every position of an n-digit run would cost O(n^2).
_RANGE = re.compile(rf"(?<!\d)({_NUMBER})\s*(?:-|–|—|to)\s*({_NUMBER})")
_SINGLE = re.compile(rf"({_NUMBER})")
_UNIT = re.compile(r"\b(?:centimeters?|centimetres?|cm)\b", re.IGNORECASE)


def parse_distance_cm(text: str) -> float:
    """Distance in centimeters from a free-text answer.

    Takes the last number (or numeric range, read as its midpoint) before
    the first centimeter unit token, clamped to [1, 100] cm.
    """
    unit = _UNIT.search(text)
    if unit is None:
        raise LineParseError(f"no centimeter unit in {text!r}")
    head = text[: unit.start()]
    value: float | None = None
    last_end = -1
    for m in _RANGE.finditer(head):
        if m.end() > last_end:
            value = (float(m.group(1)) + float(m.group(2))) / 2.0
            last_end = m.end()
    for m in _SINGLE.finditer(head):
        if m.end() > last_end:
            value = float(m.group(1))
            last_end = m.end()
    if value is None:
        raise LineParseError(f"no number before the unit in {text!r}")
    return min(max(value, MIN_DISTANCE_CM), MAX_DISTANCE_CM)


# ---------------------------------------------------------------------------
# Prompt rendering


def render_goal_prompt(
    objects: list[str],
    previous_response: str | None = None,
    issues: list[str] | None = None,
) -> str:
    prompt = GOAL_PROMPT.format(
        objects=", ".join(display_name(o) for o in objects),
        phrases="; ".join(f'"{CANONICAL_PHRASE[r]}"' for r in CANONICAL_PHRASE),
    )
    if previous_response is not None:
        issue_text = "\n".join(f"- {issue}" for issue in (issues or ["the answer was unusable"]))
        prompt += GOAL_RETRY_SUFFIX.format(response=previous_response.strip(), issues=issue_text)
    return prompt


def render_distance_prompt(atom: PlacementAtom, retry: bool = False) -> str:
    prompt = DISTANCE_PROMPT.format(
        subject=display_name(atom.subject),
        reference=display_name(atom.reference or ""),
        phrase=CANONICAL_PHRASE[atom.relation],
    )
    if retry:
        prompt += DISTANCE_RETRY_SUFFIX
    return prompt


def _goal_issues(atoms: list[PlacementAtom], objects: list[str]) -> list[str]:
    """Why a parsed, consistent-or-not atom list is unacceptable; empty when
    the goal is usable. Consistency is reported before coverage."""
    result = check_consistency(atoms)
    if not result.consistent:
        conflict = ", ".join(str(atoms[i]) for i in result.conflict)
        return [f"these instructions cannot all hold at once: {conflict}"]
    missing = [o for o in objects if not any(a.subject == o for a in atoms)]
    if missing:
        names = ", ".join(display_name(o) for o in missing)
        return [f"no instruction places: {names}"]
    return []


# ---------------------------------------------------------------------------
# Generation loop


def generate_goal(objects: list[str], backend) -> GeneratedGoal:
    """Ask the backend for placement goals until a parseable, consistent,
    complete set arrives, then ask it for a separation distance per planar
    relation. Raises GoalGenerationError when a budget runs out.
    """
    if not objects:
        raise ValueError("no objects to arrange")
    transcript: list[Exchange] = []
    previous: str | None = None
    issues: list[str] | None = None
    atoms: list[PlacementAtom] | None = None
    for attempt in range(MAX_GOAL_ATTEMPTS):
        prompt = render_goal_prompt(objects, previous, issues)
        response = backend.complete(prompt, attempt)
        transcript.append(Exchange("goal", prompt, response))
        try:
            parsed = parse_goal_response(response, objects)
        except LineParseError as exc:
            previous, issues = response, [str(exc)]
            log.debug("goal attempt %d unparsable: %s", attempt + 1, exc)
            continue
        problems = _goal_issues(parsed, objects)
        if problems:
            previous, issues = response, problems
            log.debug("goal attempt %d rejected: %s", attempt + 1, problems)
            continue
        atoms = parsed
        attempts_used = attempt + 1
        break
    if atoms is None:
        raise GoalGenerationError(
            f"no usable goal after {MAX_GOAL_ATTEMPTS} attempts; last issues: {issues}",
            transcript,
        )

    distances_m: dict[int, float] = {}
    for i, atom in enumerate(atoms):
        if atom.relation not in PLANAR_SIGNS:
            continue
        distances_m[i] = _ask_distance(atom, backend, transcript)
    return GeneratedGoal(atoms, distances_m, attempts_used, transcript)


def _ask_distance(atom: PlacementAtom, backend, transcript: list[Exchange]) -> float:
    last_error: LineParseError | None = None
    for attempt in range(MAX_DISTANCE_ATTEMPTS):
        prompt = render_distance_prompt(atom, retry=attempt > 0)
        response = backend.complete(prompt, attempt)
        transcript.append(Exchange("distance", prompt, response))
        try:
            return parse_distance_cm(response) / 100.0
        except LineParseError as exc:
            last_error = exc
            log.debug("distance attempt %d for %s failed: %s", attempt + 1, atom, exc)
    raise GoalGenerationError(
        f"no usable distance for {atom} after {MAX_DISTANCE_ATTEMPTS} attempts: {last_error}",
        transcript,
    )


def bundled_script_path(task: int) -> Path:
    """Path of the bundled response script for a numbered tabletop task."""
    return Path(str(files("momaplan").joinpath(f"fixtures/llm/task{task}.yaml")))
