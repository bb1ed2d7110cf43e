import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    ORACLE_SIGNS,
    consistent_by_axis_enumeration,
    consistent_by_joint_enumeration,
    former_atoms_consistent,
    metric_atom_holds,
    random_relation_set,
)
from momaplan import relations
from momaplan.harness import OBJECT_CATALOG
from momaplan.relations import (
    ALIGNMENT_TOL,
    PLANAR_SIGNS,
    PlacementAtom,
    atoms_consistent,
    check_consistency,
    find_minimal_conflict,
    satisfied_atoms,
)

A = PlacementAtom


def _holds(atom, positions, layers=None):
    return satisfied_atoms([atom], positions, layers)[0]


def _atoms_from(triples):
    return [PlacementAtom(r, s, ref) for r, s, ref in triples]


def test_atom_validation():
    with pytest.raises(ValueError, match="unknown relation"):
        A("next_to", "a", "b")
    with pytest.raises(ValueError, match="no reference"):
        A("centered_on_table", "a", "b")
    with pytest.raises(ValueError, match="needs a reference"):
        A("left_of", "a")
    with pytest.raises(ValueError, match="itself"):
        A("above", "a", "a")
    assert str(A("left_of", "fork", "plate")) == "left_of(fork, plate)"
    assert str(A("centered_on_table", "plate")) == "centered_on_table(plate)"


def test_sign_table_matches_oracle_statement():
    for relation, signs in PLANAR_SIGNS.items():
        assert ORACLE_SIGNS[relation] == signs


def test_empty_set_is_consistent():
    assert atoms_consistent([])
    assert check_consistency([]).consistent


def test_direct_contradiction():
    atoms = [A("left_of", "a", "b"), A("right_of", "a", "b")]
    report = check_consistency(atoms)
    assert not report.consistent
    assert report.conflict == (0, 1)


def test_inverse_closure():
    assert atoms_consistent([A("left_of", "a", "b")])
    assert atoms_consistent([A("right_of", "b", "a")])
    pairs = [("left_of", "right_of"), ("above", "below"), ("above_left", "below_right")]
    for fwd, rev in pairs:
        base = [A(fwd, "a", "b"), A("above", "c", "a")]
        flipped = [A(rev, "b", "a"), A("above", "c", "a")]
        assert atoms_consistent(base) == atoms_consistent(flipped)


def test_monotonicity_adding_atoms():
    rng = np.random.default_rng(23)
    for _ in range(300):
        atoms = _atoms_from(random_relation_set(rng))
        if not atoms_consistent(atoms):
            extra = _atoms_from(random_relation_set(rng, max_atoms=2))
            assert not atoms_consistent(atoms + extra)


def test_two_layer_stacking():
    assert atoms_consistent([A("on_top_of", "lid", "mug")])
    assert atoms_consistent([A("on_top_of", "a", "c"), A("on_top_of", "b", "c")])
    # a stack cannot rest on a stacked object, and cycles are impossible
    assert not atoms_consistent([A("on_top_of", "a", "b"), A("on_top_of", "b", "c")])
    assert not atoms_consistent([A("on_top_of", "a", "b"), A("on_top_of", "b", "a")])


def test_centered_objects_may_share_the_center():
    atoms = [A("centered_on_table", "a"), A("centered_on_table", "b")]
    assert atoms_consistent(atoms)
    # ...but not while one must also be strictly to one side of the other.
    assert not atoms_consistent(atoms + [A("left_of", "a", "b")])


def test_checker_agrees_with_joint_enumeration():
    """Full (x, y, layers) enumeration on small instances; this also
    validates that checking the axes independently loses nothing."""
    rng = np.random.default_rng(31)
    for _ in range(250):
        atoms = _atoms_from(random_relation_set(rng, max_objects=3, max_atoms=5))
        expected = consistent_by_joint_enumeration(atoms)
        assert atoms_consistent(atoms) == expected
        assert consistent_by_axis_enumeration(atoms) == expected


def test_checker_agrees_with_axis_enumeration_in_volume():
    rng = np.random.default_rng(37)
    for _ in range(2000):
        atoms = _atoms_from(random_relation_set(rng))
        assert atoms_consistent(atoms) == consistent_by_axis_enumeration(atoms), [
            str(a) for a in atoms
        ]


def test_checker_agrees_with_former_grid_search(monkeypatch):
    """Goals over up to eight objects, against the backtracking grid search
    the ordering check replaced: the same verdict on every goal, and the
    same minimal conflict on every inconsistent one."""
    rng = np.random.default_rng(43)
    inconsistent = []
    relations_seen = set()
    for _ in range(3000):
        atoms = _atoms_from(random_relation_set(rng, max_objects=8, max_atoms=12))
        relations_seen.update(a.relation for a in atoms)
        verdict = atoms_consistent(atoms)
        assert verdict == former_atoms_consistent(atoms), [str(a) for a in atoms]
        if not verdict:
            inconsistent.append(atoms)
    assert {"centered_on_table", "on_top_of"} <= relations_seen
    assert len(inconsistent) > 1000
    conflicts = [find_minimal_conflict(atoms) for atoms in inconsistent]
    monkeypatch.setattr(relations, "atoms_consistent", former_atoms_consistent)
    assert [find_minimal_conflict(atoms) for atoms in inconsistent] == conflicts


def test_conflict_over_all_catalog_objects_is_fast():
    """Eleven objects: six in a total above_right order (all 15 pairs) and
    five in an above_right cycle. The former grid search took about a
    minute to find this conflict."""
    names = list(OBJECT_CATALOG)
    chain, ring = names[:6], names[6:]
    atoms = [A("above_right", b, a) for a, b in itertools.combinations(chain, 2)]
    atoms += [A("above_right", ring[(i + 1) % 5], ring[i]) for i in range(5)]
    start = time.perf_counter()
    report = check_consistency(atoms)
    elapsed = time.perf_counter() - start
    assert report.conflict == (15, 16, 17, 18, 19)
    assert elapsed < 1.0


def test_minimal_conflict_is_minimal_and_inconsistent():
    rng = np.random.default_rng(41)
    found = 0
    while found < 80:
        atoms = _atoms_from(random_relation_set(rng))
        if atoms_consistent(atoms):
            continue
        found += 1
        conflict = find_minimal_conflict(atoms)
        subset = [atoms[i] for i in conflict]
        assert not atoms_consistent(subset)
        for drop in range(len(subset)):
            assert atoms_consistent(subset[:drop] + subset[drop + 1 :]), (
                f"conflict {conflict} not minimal for {[str(a) for a in atoms]}"
            )


def test_minimal_conflict_rejects_consistent_input():
    with pytest.raises(ValueError, match="consistent"):
        find_minimal_conflict([A("left_of", "a", "b")])


def test_atom_holds_signs_and_tolerance():
    pos = {"fork": (-0.15, 0.0), "plate": (0.0, 0.0)}
    assert _holds(A("left_of", "fork", "plate"), pos)
    assert not _holds(A("right_of", "fork", "plate"), pos)
    # Orthogonal-axis alignment is tolerant up to ALIGNMENT_TOL...
    pos_tilted = {"fork": (-0.15, ALIGNMENT_TOL), "plate": (0.0, 0.0)}
    assert _holds(A("left_of", "fork", "plate"), pos_tilted)
    pos_bad = {"fork": (-0.15, ALIGNMENT_TOL + 1e-6), "plate": (0.0, 0.0)}
    assert not _holds(A("left_of", "fork", "plate"), pos_bad)
    # ...while the strict axis accepts no zero offset.
    assert not _holds(A("left_of", "fork", "plate"), {"fork": (0.0, 0.0), "plate": (0.0, 0.0)})


def test_atom_holds_centered_and_stacked():
    assert _holds(A("centered_on_table", "plate"), {"plate": (0.01, -0.02)})
    assert not _holds(A("centered_on_table", "plate"), {"plate": (0.05, 0.0)})
    pos = {"lid": (0.2, 0.1), "mug": (0.2, 0.1)}
    assert _holds(A("on_top_of", "lid", "mug"), pos, {"lid": 1, "mug": 0})
    assert not _holds(A("on_top_of", "lid", "mug"), pos, {"lid": 0, "mug": 0})
    # Layer bookkeeping defaults to zero when omitted.
    assert not _holds(A("on_top_of", "lid", "mug"), pos)


@settings(max_examples=300)
@given(st.data())
def test_atom_holds_matches_independent_sign_oracle(data):
    relation = data.draw(st.sampled_from(sorted(ORACLE_SIGNS) + ["centered_on_table"]))
    coord = st.floats(-0.5, 0.5, allow_nan=False)
    positions = {
        "a": (data.draw(coord), data.draw(coord)),
        "b": (data.draw(coord), data.draw(coord)),
    }
    layers = {"a": data.draw(st.integers(0, 1)), "b": 0}
    atom = (
        A("centered_on_table", "a")
        if relation == "centered_on_table"
        else A(relation, "a", "b")
    )
    assert _holds(atom, positions, layers) == metric_atom_holds(
        atom, positions, layers, tol=ALIGNMENT_TOL
    )


def test_satisfied_atoms_maps_per_atom():
    atoms = [A("left_of", "a", "b"), A("above", "a", "b")]
    flags = satisfied_atoms(atoms, {"a": (-0.1, 0.0), "b": (0.0, 0.0)})
    assert flags == [True, False]
