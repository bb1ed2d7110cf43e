"""Qualitative placement relations and goal consistency checking.

A placement goal is a list of atoms such as ``left_of(fork, dinner_plate)``
or ``centered_on_table(dinner_plate)``. Each planar relation constrains the
sign of the subject-minus-reference offset per axis; ``on_top_of`` aligns
both axes and raises the subject one stacking layer above its reference.

Consistency is decided by searching for an assignment of grid cells (and
one of two stacking layers) to objects on a small qualitative grid. The
grid has ``n + 1`` cells per axis for ``n`` objects, which is always enough
to realize any satisfiable combination of strict orderings and equalities.
``centered_on_table`` is handled by introducing one extra free variable
that stands for the table center, so that centering never artificially
pins an object to a particular cell.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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

RELATION_NAMES: tuple[str, ...] = tuple(PLANAR_SIGNS) + (ON_TOP_OF, CENTERED)

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


# ---------------------------------------------------------------------------
# Qualitative consistency


def _axis_constraints(
    atoms: list[PlacementAtom],
) -> tuple[list[tuple[str, str, int]], list[tuple[str, str, int]], list[tuple[str, str]], bool]:
    """Split atoms into per-axis sign constraints and stacking pairs.

    Returns (x_constraints, y_constraints, stack_pairs, uses_center) where a
    sign constraint (a, b, s) reads: coordinate(a) - coordinate(b) has sign
    s (0 for equality). Stack pairs (s, r) demand layer(s) == layer(r) + 1.
    """
    xs: list[tuple[str, str, int]] = []
    ys: list[tuple[str, str, int]] = []
    stacks: list[tuple[str, str]] = []
    uses_center = False
    for atom in atoms:
        if atom.relation == CENTERED:
            xs.append((atom.subject, _CENTER_VAR, 0))
            ys.append((atom.subject, _CENTER_VAR, 0))
            uses_center = True
        elif atom.relation == ON_TOP_OF:
            xs.append((atom.subject, atom.reference, 0))  # type: ignore[arg-type]
            ys.append((atom.subject, atom.reference, 0))  # type: ignore[arg-type]
            stacks.append((atom.subject, atom.reference))  # type: ignore[arg-type]
        else:
            sx, sy = PLANAR_SIGNS[atom.relation]
            xs.append((atom.subject, atom.reference, sx))  # type: ignore[arg-type]
            ys.append((atom.subject, atom.reference, sy))  # type: ignore[arg-type]
    return xs, ys, stacks, uses_center


def _solve_axis(variables: list[str], constraints: list[tuple[str, str, int]], k: int) -> bool:
    """Backtracking search for one coordinate axis over values 0..k-1."""
    # Visit constrained variables first so dead ends surface early.
    degree = {v: 0 for v in variables}
    for a, b, _ in constraints:
        degree[a] += 1
        degree[b] += 1
    order = sorted(variables, key=lambda v: -degree[v])
    index = {v: i for i, v in enumerate(order)}
    # Constraints keyed by the later-assigned endpoint.
    by_var: list[list[tuple[int, int, int]]] = [[] for _ in order]
    for a, b, s in constraints:
        ia, ib = index[a], index[b]
        if ia >= ib:
            by_var[ia].append((ib, s, 1))  # value[ia] - value[ib] has sign s
        else:
            by_var[ib].append((ia, s, -1))  # sign applies to (a - b); flip lookup
    values = [0] * len(order)

    def ok(i: int) -> bool:
        for j, s, direction in by_var[i]:
            diff = (values[i] - values[j]) * direction
            if s == 0:
                if diff != 0:
                    return False
            elif s * diff <= 0:
                return False
        return True

    def descend(i: int) -> bool:
        if i == len(order):
            return True
        for v in range(k):
            values[i] = v
            if ok(i) and descend(i + 1):
                return True
        return False

    return descend(0)


def _solve_layers(objects: list[str], stacks: list[tuple[str, str]]) -> bool:
    """Two stacking layers: an object placed on another sits at layer one,
    everything else at layer zero. A stack therefore cannot rest on an
    object that is itself stacked, and stacking cycles are impossible."""
    stacked_subjects = {s for s, _ in stacks}
    return all(r not in stacked_subjects for _, r in stacks)


def atoms_consistent(atoms: list[PlacementAtom]) -> bool:
    """True when some qualitative grid-and-layer assignment satisfies every
    atom simultaneously."""
    if not atoms:
        return True
    objects = goal_objects(atoms)
    xs, ys, stacks, uses_center = _axis_constraints(atoms)
    variables = objects + ([_CENTER_VAR] if uses_center else [])
    k = len(objects) + 1
    if not _solve_axis(variables, xs, k):
        return False
    if not _solve_axis(variables, ys, k):
        return False
    return _solve_layers(objects, stacks)


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


def _axis_holds(delta: float, sign: int, tol: float) -> bool:
    if sign == 0:
        return abs(delta) <= tol
    return delta > 0 if sign > 0 else delta < 0


def atom_holds(
    atom: PlacementAtom,
    positions: dict[str, tuple[float, float]],
    layers: dict[str, int] | None = None,
    tol: float = ALIGNMENT_TOL,
) -> bool:
    """Whether an atom holds for metric table-frame positions.

    ``centered_on_table`` compares the subject to the frame origin. Layers
    default to zero for objects missing from ``layers``.
    """
    sx_pos = positions[atom.subject]
    if atom.relation == CENTERED:
        return _axis_holds(sx_pos[0], 0, tol) and _axis_holds(sx_pos[1], 0, tol)
    ref_pos = positions[atom.reference]  # type: ignore[index]
    dx = sx_pos[0] - ref_pos[0]
    dy = sx_pos[1] - ref_pos[1]
    if atom.relation == ON_TOP_OF:
        lookup = layers or {}
        ls = lookup.get(atom.subject, 0)
        lr = lookup.get(atom.reference, 0)  # type: ignore[arg-type]
        return _axis_holds(dx, 0, tol) and _axis_holds(dy, 0, tol) and ls == lr + 1
    sx, sy = PLANAR_SIGNS[atom.relation]
    return _axis_holds(dx, sx, tol) and _axis_holds(dy, sy, tol)


def satisfied_atoms(
    atoms: list[PlacementAtom],
    positions: dict[str, tuple[float, float]],
    layers: dict[str, int] | None = None,
    tol: float = ALIGNMENT_TOL,
) -> list[bool]:
    return [atom_holds(a, positions, layers, tol) for a in atoms]

