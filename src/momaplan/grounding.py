"""Grounding symbolic placement goals to metric tabletop configurations.

Two stages. First a nominal layout: the anchor object (the centered one
when present, otherwise the first placed) sits at the table-frame origin and
every other object is derived from an already-placed neighbor by walking the
relation graph, offsetting along the relation's direction by the suggested
separation. Stacked objects inherit their support's position one layer up.

Then rejection sampling turns the single nominal layout into a batch of
distinct candidate configurations: each object in turn gets Gaussian noise
around its nominal spot and is re-drawn until the partial configuration
satisfies every applicable relation, keeps discs from overlapping within a
layer, and stays on the table top.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .goalgen import GeneratedGoal
from .relations import (
    ALIGNMENT_TOL,
    CENTERED,
    NOMINAL_DIRECTION,
    ON_TOP_OF,
    PlacementAtom,
    goal_objects,
    satisfied_atoms,
    stack_supports,
)

log = logging.getLogger(__name__)

DEFAULT_SEPARATION_M = 0.10
# Std dev of the Gaussian draw around an object's nominal spot.
NOISE_SIGMA_M = 0.02
ATTEMPTS_PER_OBJECT = 1000
# Spacing between anchors of disconnected relation components.
COMPONENT_SPACING_M = 0.15


class GroundingError(RuntimeError):
    """No valid metric configuration was found within the sampling budget."""


@dataclass
class GroundingParams:
    configurations: int = 10


@dataclass(frozen=True)
class Configuration:
    """One metric arrangement in the table frame."""

    positions: dict[str, tuple[float, float]]
    layers: dict[str, int]


@dataclass
class GroundingResult:
    configurations: list[Configuration] = field(default_factory=list)


def _atom_offset(atom: PlacementAtom, separation: float) -> tuple[float, float]:
    """Subject-minus-reference offset realizing a planar atom at a given
    center separation."""
    dx, dy = NOMINAL_DIRECTION[atom.relation]
    return (dx * separation, dy * separation)


def nominal_layout(goal: GeneratedGoal) -> Configuration:
    """Derive nominal table-frame positions and stacking layers.

    Placement walks the relation graph to a fixpoint, seeding each connected
    component with an anchor: the first centered object when there is one,
    otherwise the first object mentioned. Later anchors shift sideways so
    disconnected groups never coincide.
    """
    atoms = goal.atoms
    order = goal_objects(atoms)
    positions: dict[str, tuple[float, float]] = {}
    layers: dict[str, int] = {}
    anchors = 0

    def place_anchor(obj: str) -> None:
        nonlocal anchors
        positions[obj] = (anchors * COMPONENT_SPACING_M, 0.0)
        layers.setdefault(obj, 0)
        anchors += 1

    for i, atom in enumerate(atoms):
        if atom.relation == CENTERED:
            place_anchor(atom.subject)
            break
    if not positions:
        place_anchor(order[0])

    while len(positions) < len(order):
        progressed = False
        for i, atom in enumerate(atoms):
            if atom.relation == CENTERED:
                if atom.subject not in positions:
                    positions[atom.subject] = (0.0, 0.0)
                    layers.setdefault(atom.subject, 0)
                    progressed = True
                continue
            subject, reference = atom.subject, atom.reference
            assert reference is not None
            if atom.relation == ON_TOP_OF:
                if reference in positions and subject not in positions:
                    positions[subject] = positions[reference]
                    layers[subject] = layers.get(reference, 0) + 1
                    progressed = True
                elif subject in positions and reference not in positions:
                    positions[reference] = positions[subject]
                    layers[reference] = max(layers.get(subject, 1) - 1, 0)
                    progressed = True
                continue
            offset = _atom_offset(atom, goal.distances_m.get(i, DEFAULT_SEPARATION_M))
            if reference in positions and subject not in positions:
                rx, ry = positions[reference]
                positions[subject] = (rx + offset[0], ry + offset[1])
                layers.setdefault(subject, 0)
                progressed = True
            elif subject in positions and reference not in positions:
                sx, sy = positions[subject]
                positions[reference] = (sx - offset[0], sy - offset[1])
                layers.setdefault(reference, 0)
                progressed = True
        if not progressed:
            # Disconnected component: seed its first unplaced object.
            place_anchor(next(o for o in order if o not in positions))
    for obj in order:
        layers.setdefault(obj, 0)
    return Configuration(positions, layers)


def _placement_order(order: list[str], supports: dict[str, str]) -> list[str]:
    """First-mention order adjusted so supports precede what stacks on them."""
    placed: list[str] = []
    remaining = list(order)
    while remaining:
        progressed = False
        for obj in list(remaining):
            support = supports.get(obj)
            if support is None or support in placed or support not in order:
                placed.append(obj)
                remaining.remove(obj)
                progressed = True
        if not progressed:  # stacking cycle; consistency should have caught it
            placed.extend(remaining)
            break
    return placed


def _fits_on_table(
    pos: tuple[float, float], radius: float, half_extents: tuple[float, float]
) -> bool:
    return abs(pos[0]) <= half_extents[0] - radius and abs(pos[1]) <= half_extents[1] - radius


def _clear_of_neighbors(
    pos: tuple[float, float],
    radius: float,
    layer: int,
    placed: dict[str, tuple[float, float]],
    layers: dict[str, int],
    radii: dict[str, float],
) -> bool:
    for other, opos in placed.items():
        if layers[other] != layer:
            continue
        if math.hypot(pos[0] - opos[0], pos[1] - opos[1]) < radius + radii[other]:
            return False
    return True


def sample_configurations(
    goal: GeneratedGoal,
    radii: dict[str, float],
    table_half_extents: tuple[float, float],
    rng: np.random.Generator,
    params: GroundingParams | None = None,
) -> GroundingResult:
    """Ground a goal into a batch of valid metric configurations.

    Raises GroundingError naming the first object whose sampling budget runs
    out; that happens when the suggested separations cannot be realized on
    this table top.
    """
    params = params or GroundingParams()
    nominal = nominal_layout(goal)
    stack_support = stack_supports(goal.atoms)
    order = _placement_order(goal_objects(goal.atoms), stack_support)
    missing = [o for o in order if o not in radii]
    if missing:
        raise KeyError(f"no footprint radius for: {missing}")

    result = GroundingResult()
    for index in range(params.configurations):
        config = _sample_one(
            goal, nominal, order, stack_support, radii, table_half_extents, rng, index
        )
        result.configurations.append(config)
    return result


def _sample_one(
    goal: GeneratedGoal,
    nominal: Configuration,
    order: list[str],
    stack_support: dict[str, str | None],
    radii: dict[str, float],
    half_extents: tuple[float, float],
    rng: np.random.Generator,
    config_index: int,
) -> Configuration:
    positions: dict[str, tuple[float, float]] = {}
    layers: dict[str, int] = {}
    for obj in order:
        # The goal atoms on obj whose other object, if any, is already placed.
        atoms = [
            atom for atom in goal.atoms
            if atom.subject == obj and (atom.reference is None or atom.reference in positions)
            or atom.reference == obj and atom.subject in positions
        ]
        support = stack_support.get(obj)
        if support is not None and support in positions:
            candidate = positions[support]
            layer = layers[support] + 1
            if _accept(atoms, obj, candidate, layer, positions, layers, radii, half_extents):
                positions[obj] = candidate
                layers[obj] = layer
                continue
            raise GroundingError(
                f"configuration {config_index}: stacking {obj!r} on {support!r} "
                "violates the goal or the table bounds"
            )
        nx, ny = nominal.positions[obj]
        layer = nominal.layers[obj]
        for _ in range(ATTEMPTS_PER_OBJECT):
            dx, dy = rng.normal(0.0, NOISE_SIGMA_M, size=2)
            candidate = (nx + dx, ny + dy)
            if _accept(atoms, obj, candidate, layer, positions, layers, radii, half_extents):
                positions[obj] = candidate
                layers[obj] = layer
                break
        else:
            raise GroundingError(
                f"configuration {config_index}: no valid sample for {obj!r} after "
                f"{ATTEMPTS_PER_OBJECT} attempts"
            )
    return Configuration(positions, layers)


def _accept(
    atoms: list[PlacementAtom],
    obj: str,
    candidate: tuple[float, float],
    layer: int,
    positions: dict[str, tuple[float, float]],
    layers: dict[str, int],
    radii: dict[str, float],
    half_extents: tuple[float, float],
) -> bool:
    if not _fits_on_table(candidate, radii[obj], half_extents):
        return False
    if not _clear_of_neighbors(candidate, radii[obj], layer, positions, layers, radii):
        return False
    trial_pos = {**positions, obj: candidate}
    trial_layers = {**layers, obj: layer}
    return all(satisfied_atoms(atoms, trial_pos, trial_layers, ALIGNMENT_TOL))
