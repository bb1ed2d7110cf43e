"""Qualitative placement relations and goal consistency checking.

A placement goal is a list of atoms such as ``left_of(fork, dinner_plate)``
or ``centered_on_table(dinner_plate)``. Each planar relation constrains the
sign of the subject-minus-reference offset per axis; ``on_top_of`` aligns
both axes and raises the subject one stacking layer above its reference.

Consistency is decided exactly, one axis at a time, since no atom ties the
axes together. Equalities merge objects into groups; the goal is consistent
on an axis when no strict ordering falls inside a group and the strict
orderings between groups have no cycle (then a topological layering gives
each group a value). ``centered_on_table`` aligns its subject with one
extra variable that stands for the table center, so centering never pins
an object to a particular value. Stacking uses two layers: an object placed
on another sits at layer one, so a stack cannot rest on a stacked object.

Whether atoms hold for metric positions is decided in one loop,
``satisfied_atoms``, which grounding and execution's goal checks read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter

_SQRT2 = math.sqrt(2.0)

CENTERED = "centered_on_table"
ON_TOP_OF = "on_top_of"

# Per-axis sign of (subject - reference): -1 strict negative, 0 aligned
# within tolerance, +1 strict positive.
PLANAR_SIGNS: dict[str, tuple[int, int]] = {
    "left_of": (-1, 0),
    "right_of": (1, 0),
    "above": (0, 1),
    "below": (0, -1),
    "above_left": (-1, 1),
    "above_right": (1, 1),
    "below_left": (-1, -1),
    "below_right": (1, -1),
}

# Stacking and centering align both axes; centering's reference is the table center.
_AXIS_SIGNS: dict[str, tuple[int, int]] = {**PLANAR_SIGNS, ON_TOP_OF: (0, 0), CENTERED: (0, 0)}

RELATION_NAMES: tuple[str, ...] = tuple(_AXIS_SIGNS)

# Unit offset direction used when deriving nominal metric positions from a
# relation plus a separation distance; diagonals split the distance evenly.
NOMINAL_DIRECTION: dict[str, tuple[float, float]] = {
    "left_of": (-1.0, 0.0),
    "right_of": (1.0, 0.0),
    "above": (0.0, 1.0),
    "below": (0.0, -1.0),
    "above_left": (-1.0 / _SQRT2, 1.0 / _SQRT2),
    "above_right": (1.0 / _SQRT2, 1.0 / _SQRT2),
    "below_left": (-1.0 / _SQRT2, -1.0 / _SQRT2),
    "below_right": (1.0 / _SQRT2, -1.0 / _SQRT2),
}

# Metric alignment tolerance (m) for axes whose qualitative sign is zero.
ALIGNMENT_TOL = 0.03

_CENTER_VAR = "<table-center>"


@dataclass(frozen=True)
class PlacementAtom:
    """One relational placement constraint.

    ``reference`` is another object id, or None for ``centered_on_table``.
    """

    relation: str
    subject: str
    reference: str | None = None

    def __post_init__(self) -> None:
        if self.relation not in RELATION_NAMES:
            raise ValueError(f"unknown relation {self.relation!r}")
        if self.relation == CENTERED:
            if self.reference is not None:
                raise ValueError(f"{CENTERED} takes no reference object")
        elif self.reference is None:
            raise ValueError(f"{self.relation} needs a reference object")
        elif self.reference == self.subject:
            raise ValueError(f"{self.relation}({self.subject}, ...) relates an object to itself")

    def objects(self) -> tuple[str, ...]:
        if self.reference is None:
            return (self.subject,)
        return (self.subject, self.reference)

    def __str__(self) -> str:
        if self.reference is None:
            return f"{self.relation}({self.subject})"
        return f"{self.relation}({self.subject}, {self.reference})"


@dataclass(frozen=True)
class ConsistencyResult:
    consistent: bool
    # Indices into the checked atom list forming one minimal inconsistent
    # subset; empty when consistent.
    conflict: tuple[int, ...] = ()


def goal_objects(atoms: list[PlacementAtom]) -> list[str]:
    """Distinct object ids in first-mention order."""
    seen: list[str] = []
    for atom in atoms:
        for name in atom.objects():
            if name not in seen:
                seen.append(name)
    return seen


def stack_supports(atoms: list[PlacementAtom]) -> dict[str, str]:
    """Each stacked object's support: subject to reference of every ``on_top_of`` atom."""
    return {a.subject: a.reference for a in atoms if a.relation == ON_TOP_OF}


# ---------------------------------------------------------------------------
# Qualitative consistency


def _axis_constraints(
    atoms: list[PlacementAtom],
) -> tuple[list[tuple[str, str, int]], list[tuple[str, str, int]], list[tuple[str, str]]]:
    """Split atoms into per-axis sign constraints and stacking pairs.

    Returns (x_constraints, y_constraints, stack_pairs) where a sign
    constraint (a, b, s) reads: coordinate(a) - coordinate(b) has sign s
    (0 for equality). Stack pairs (s, r) demand layer(s) == layer(r) + 1.
    """
    xs: list[tuple[str, str, int]] = []
    ys: list[tuple[str, str, int]] = []
    stacks: list[tuple[str, str]] = []
    for atom in atoms:
        ref = _CENTER_VAR if atom.reference is None else atom.reference
        sx, sy = _AXIS_SIGNS[atom.relation]
        xs.append((atom.subject, ref, sx))
        ys.append((atom.subject, ref, sy))
        if atom.relation == ON_TOP_OF:
            stacks.append((atom.subject, ref))
    return xs, ys, stacks


def _axis_consistent(constraints: list[tuple[str, str, int]]) -> bool:
    """Whether one axis's sign constraints have a solution: the strict
    orderings between equality groups must be acyclic."""
    group: dict[str, str] = {}

    def find(v: str) -> str:
        while group.setdefault(v, v) != v:
            v = group[v]
        return v

    for a, b, s in constraints:
        if s == 0:
            group[find(a)] = find(b)
    order: TopologicalSorter[str] = TopologicalSorter()
    for a, b, s in constraints:
        if s:
            # Lower group first; a strict ordering inside one group is a
            # self-loop, which is a cycle too.
            low, high = (b, a) if s > 0 else (a, b)
            order.add(find(high), find(low))
    try:
        order.prepare()
    except CycleError:
        return False
    return True


def atoms_consistent(atoms: list[PlacementAtom]) -> bool:
    """True when some placement on both axes and the two stacking layers
    satisfies every atom simultaneously."""
    xs, ys, stacks = _axis_constraints(atoms)
    stacked_subjects = {s for s, _ in stacks}
    if any(r in stacked_subjects for _, r in stacks):
        return False
    return _axis_consistent(xs) and _axis_consistent(ys)


def find_minimal_conflict(atoms: list[PlacementAtom]) -> tuple[int, ...]:
    """One minimal inconsistent subset of an inconsistent atom list, found by
    greedy deletion: drop each atom in turn and keep the removal whenever the
    remainder is still inconsistent. Returns indices into the input list.
    """
    if atoms_consistent(atoms):
        raise ValueError("atom list is consistent; there is no conflict to extract")
    keep = list(range(len(atoms)))
    i = 0
    while i < len(keep):
        trial = keep[:i] + keep[i + 1 :]
        if not atoms_consistent([atoms[j] for j in trial]):
            keep = trial
        else:
            i += 1
    return tuple(keep)


def check_consistency(atoms: list[PlacementAtom]) -> ConsistencyResult:
    if atoms_consistent(atoms):
        return ConsistencyResult(consistent=True)
    return ConsistencyResult(consistent=False, conflict=find_minimal_conflict(atoms))


# ---------------------------------------------------------------------------
# Metric satisfaction


def satisfied_atoms(
    atoms: list[PlacementAtom],
    positions: dict[str, tuple[float, float]],
    layers: dict[str, int] | None = None,
    tol: float = ALIGNMENT_TOL,
    center: tuple[float, float] = (0.0, 0.0),
) -> list[bool]:
    """Whether each atom holds for metric positions in the frame centered
    at ``center``: each offset is ``(x - cx) - (rx - cx)``, the floats that
    converting both positions first gives, and ``centered_on_table``'s
    reference is ``center``. Missing layers default to zero."""
    cx, cy = center
    lookup = layers or {}
    flags = []
    for atom in atoms:
        x, y = positions[atom.subject]
        dx, dy = x - cx, y - cy
        if atom.reference is not None:
            rx, ry = positions[atom.reference]
            dx -= rx - cx
            dy -= ry - cy
        sx, sy = _AXIS_SIGNS[atom.relation]
        flags.append(
            (abs(dx) <= tol if sx == 0 else dx > 0 if sx > 0 else dx < 0)
            and (abs(dy) <= tol if sy == 0 else dy > 0 if sy > 0 else dy < 0)
            and (atom.relation != ON_TOP_OF
                 or lookup.get(atom.subject, 0) == lookup.get(atom.reference, 0) + 1)
        )
    return flags

