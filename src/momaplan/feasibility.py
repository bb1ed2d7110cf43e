"""Empirical standing-spot feasibility for unloading objects onto a table.

For one symbolic standing location (a band of 8 x 24 cells of 0.1 m beside
a table side) and one unload point on the table, every cell gets a success
probability estimated by repeated simulated trials. A trial succeeds when

* navigation works: the cell is reachable from the robot's start on the
  inflated grid, and a noisy arrival position keeps the robot's disc clear
  of all furniture, and
* manipulation works: the arrival position is within arm's reach of the
  unload point and the straight reach line crosses nothing except the
  table being loaded.

The per-cell trial noise comes from a seed sequence derived from the scene
seed, the location, the unload point and the trial parameters, with one
child stream per cell. Recomputing a map for the same inputs therefore
reproduces it bit for bit, cells are statistically independent, and maps
are cached with the scene's navigator (``motion.navigator_for``), under its
bound of eight scenes. Each navigator keeps the ``motion.MAX_MAPS`` (256)
most recently used maps; an evicted map is recomputed equal bit for bit
when asked again. Only the draws are made cell by cell: the collision,
reach and reach-line tests run once per map over the arrivals of every
reachable cell.

Two summary quantities feed planning: the per-cell probability itself for
a concrete standing cell, and the expected probability under
probability-weighted standing-cell sampling for a whole unload task,
estimated from a fixed number of draws. Weighted draws read a normalised
cumulative table each map builds once, and make the same draws as
``Generator.choice`` with the map's probabilities; an all-zero map
scores 0.0 without drawing, leaving the generator as it was.
``pcg64_states`` derives many seeded ``PCG64`` streams in one array pass,
so a caller that needs hundreds of them (the planner needs one per unload
option, plus one per option whose map has a feasible cell) loads each
into one shared generator instead of building one per stream.
"""
from __future__ import annotations

import hashlib
import logging
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import segments_hit_rect
from .motion import MAX_MAPS, navigator_for, robot_collides_batch
from .world import SceneState, SymbolicLocation

log = logging.getLogger(__name__)

Cell = tuple[int, int]


@dataclass(frozen=True)
class FeasibilityParams:
    trials_per_cell: int = 5
    # Std dev of the Gaussian arrival error around a commanded standing cell.
    nav_sigma_xy: float = 0.01
    nav_sigma_theta: float = 0.10
    reach_radius: float = 0.80
    # Standing-pose draws used to estimate whole-task feasibility.
    task_draws: int = 25

    def __post_init__(self) -> None:
        if self.trials_per_cell < 1:
            raise ValueError(f"trials_per_cell must be at least 1, got {self.trials_per_cell}")
        if self.task_draws < 1:
            raise ValueError(f"task_draws must be at least 1, got {self.task_draws}")
        for name in ("nav_sigma_xy", "nav_sigma_theta"):
            if not 0.0 <= (value := getattr(self, name)) < float("inf"):
                raise ValueError(f"{name} must be non-negative and finite, got {value}")
        if not 0.0 < self.reach_radius < float("inf"):
            raise ValueError(f"reach_radius must be positive and finite, got {self.reach_radius}")

    def fingerprint(self) -> tuple[int, ...]:
        return (
            self.trials_per_cell,
            int(round(self.nav_sigma_xy * 1e9)),
            int(round(self.nav_sigma_theta * 1e9)),
            int(round(self.reach_radius * 1e9)),
            self.task_draws,
        )


@dataclass(frozen=True)
class FeasibilityMap:
    location_id: str
    target: tuple[float, float]  # unload point, world frame
    values: np.ndarray  # (rows, cols) success probabilities
    params: FeasibilityParams

    def value_at(self, cell: Cell) -> float:
        return float(self.values[cell])

    @cached_property
    def cdf(self) -> np.ndarray | None:
        """Normalised cumulative table of the weighted standing draw, built
        as ``Generator.choice`` builds it from ``p = values / values.sum()``;
        None when no cell is feasible."""
        flat = self.values.ravel()
        total = flat.sum()
        if total <= 0.0:
            return None
        cdf = (flat / total).cumsum()
        cdf /= cdf[-1]
        cdf.setflags(write=False)
        return cdf


def _entropy_words(scene_seed: int, location_id: str, target: tuple[float, float],
                   params: FeasibilityParams) -> list[int]:
    digest = hashlib.sha256(location_id.encode("utf-8")).digest()
    loc_word = int.from_bytes(digest[:8], "big")
    return [
        int(scene_seed),
        loc_word,
        int(round(target[0] * 1e6)) & 0xFFFFFFFFFFFF,
        int(round(target[1] * 1e6)) & 0xFFFFFFFFFFFF,
        *params.fingerprint(),
    ]


# numpy's SeedSequence hashing and PCG64 seeding constants.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uint32_words(entropy: int | Sequence) -> list[int]:
    """The uint32 words SeedSequence reads from a non-negative int (least
    significant first, one word for 0) or a sequence of them."""
    if isinstance(entropy, (int, np.integer)):
        value = int(entropy)
        if value < 0:
            raise ValueError(f"entropy must be non-negative, got {value}")
        words = [value & _MASK32]
        while value > _MASK32:
            value >>= 32
            words.append(value & _MASK32)
        return words
    return [word for item in entropy for word in _uint32_words(item)]


def _hashmix(value, hash_const: int):
    """SeedSequence's hashmix on a word or a uint32 array of words; returns
    the mixed value and the next hash constant."""
    value = value ^ hash_const
    hash_const = (hash_const * _MULT_A) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> 16), hash_const


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def pcg64_states(entropy: int | Sequence, keys) -> list[tuple[int, int]]:
    """The ``(state, inc)`` that ``PCG64(SeedSequence(entropy,
    spawn_key=key))`` starts from, for each row ``key`` of the ``(K, L)``
    array ``keys`` (every key word below 2**32).

    The entropy words are pool-mixed once in Python ints; the spawn-key
    words of all K keys are mixed in uint32 array arithmetic; PCG64's
    two-step seeding of each stream then runs in 128-bit Python ints.
    Loading a pair into a generator's ``bit_generator.state`` reproduces
    that stream without building a SeedSequence, PCG64 and Generator for it.
    """
    keys = np.asarray(keys, dtype=np.uint32)
    if keys.ndim != 2:
        raise ValueError(f"keys must be a (K, L) array, got shape {keys.shape}")
    # SeedSequence pads short entropy with zero words before a spawn key;
    # without one, a missing pool word hashes as zero all the same.
    run = _uint32_words(entropy)
    run += [0] * (_POOL_SIZE - len(run))
    hash_const = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        word, hash_const = _hashmix(run[i], hash_const)
        pool.append(word)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                word, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], word)
    for extra in run[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            word, hash_const = _hashmix(extra, hash_const)
            pool[dst] = _mix(pool[dst], word)
    pool = [np.full(len(keys), word, dtype=np.uint32) for word in pool]
    for column in keys.T:
        for dst in range(_POOL_SIZE):
            word, hash_const = _hashmix(column, hash_const)
            pool[dst] = _mix(pool[dst], word)
    # generate_state(4, np.uint64): eight words, paired little-endian into
    # the 128-bit seed and increment.
    hash_const = _INIT_B
    words = []
    for i in range(8):
        word = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        word = (word * hash_const) & _MASK32
        words.append((word ^ (word >> 16)).astype(np.uint64))
    s_hi, s_lo, i_hi, i_lo = (
        (words[2 * j] | (words[2 * j + 1] << 32)).tolist() for j in range(4)
    )
    states = []
    for seed, seq in zip(zip(s_hi, s_lo), zip(i_hi, i_lo)):
        inc = (((seq[0] << 64) | seq[1]) << 1 | 1) & _MASK128
        state = ((inc + ((seed[0] << 64) | seed[1])) * _PCG64_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


def trial_outcomes(
    scene: SceneState,
    location: SymbolicLocation,
    target: tuple[float, float],
    params: FeasibilityParams | None = None,
) -> np.ndarray:
    """Per-trial success booleans, shape (rows, cols, trials_per_cell).

    Cells that are blocked or off the robot's start component
    (``Navigator.reachable_at``) fail every trial and draw nothing; every
    other cell draws its arrivals from its own (row, col) stream.
    """
    params = params or FeasibilityParams()
    rows, cols = location.dims
    n = params.trials_per_cell

    centers = location.cell_centers().reshape(-1, 2)
    cells = np.flatnonzero(navigator_for(scene).reachable_at(centers))

    root = np.random.SeedSequence(
        _entropy_words(scene.rng_seed, location.id, target, params)
    )
    noise = np.empty((len(cells), n, 2))
    for k, index in enumerate(cells):
        child = np.random.SeedSequence(entropy=root.entropy, spawn_key=divmod(int(index), cols))
        rng = np.random.Generator(np.random.PCG64(child))
        noise[k] = rng.normal(0.0, params.nav_sigma_xy, size=(n, 2))
    arrivals = (centers[cells, None, :] + noise).reshape(-1, 2)

    target_arr = np.asarray(target, dtype=float)
    dist = np.hypot(arrivals[:, 0] - target_arr[0], arrivals[:, 1] - target_arr[1])
    ok = (dist <= params.reach_radius) & ~robot_collides_batch(scene, arrivals)
    # Only arrivals still in play need the reach-line tests.
    live = np.flatnonzero(ok)
    for rect in scene.reach_blockers(location.table_id):
        hit = segments_hit_rect(arrivals[live], target_arr, rect)
        ok[live[hit]] = False
        live = live[~hit]

    success = np.zeros((rows * cols, n), dtype=bool)
    success[cells] = ok.reshape(-1, n)
    return success.reshape(rows, cols, n)


def compute_feasibility_map(
    scene: SceneState,
    location: SymbolicLocation,
    target: tuple[float, float],
    params: FeasibilityParams | None = None,
) -> FeasibilityMap:
    """Per-cell success probabilities for one location and unload point.

    Deterministic in (scene seed, location, target, params) and cached in
    the scene's navigator, which keeps the ``MAX_MAPS`` most recently used.
    """
    params = params or FeasibilityParams()
    # Python floats round about ten times faster than numpy scalars.
    target = (float(target[0]), float(target[1]))
    key = (location.id, round(target[0], 6), round(target[1], 6), params)
    per_scene = navigator_for(scene).maps
    fmap = per_scene.pop(key, None)
    if fmap is None:
        outcomes = trial_outcomes(scene, location, target, params)
        values = outcomes.mean(axis=2)
        values.setflags(write=False)
        fmap = FeasibilityMap(location.id, target, values, params)
        log.debug(
            "feasibility map %s target (%.2f, %.2f): mean %.3f max %.3f",
            location.id, target[0], target[1], values.mean(), values.max(),
        )
    per_scene[key] = fmap
    if len(per_scene) > MAX_MAPS:
        del per_scene[next(iter(per_scene))]
    return fmap


def sample_standing_cell(fmap: FeasibilityMap, rng: np.random.Generator) -> Cell:
    """Draw a standing cell with probability proportional to its feasibility.

    The draw is the one ``rng.choice(cells, p=values / values.sum())``
    makes. A map with no feasible cell at all falls back to a uniform draw
    so a pose can still be proposed (and will score zero).
    """
    cdf = fmap.cdf
    if cdf is None:
        idx = int(rng.integers(fmap.values.size))
    else:
        idx = int(cdf.searchsorted(rng.random(), side="right"))
    row, col = divmod(idx, fmap.values.shape[1])
    return (row, col)


def task_feasibility(
    fmap: FeasibilityMap, rng: np.random.Generator, draws: int | None = None
) -> float:
    """Mean cell feasibility over repeated weighted standing draws.

    The draws are the ones ``sample_standing_cell`` would make one at a
    time, made in one call; an all-zero map scores 0.0 without drawing.
    """
    draws = draws or fmap.params.task_draws
    cdf = fmap.cdf
    if cdf is None:
        return 0.0
    # A sum over the count is np.mean bit for bit, without its dispatch.
    return float(fmap.values.ravel()[cdf.searchsorted(rng.random(draws), side="right")].sum() / draws)


def expected_task_feasibility(fmap: FeasibilityMap) -> float:
    """Closed form of what task_feasibility estimates: the mean of the cell
    probability under probability-weighted sampling, sum(h^2) / sum(h)."""
    flat = fmap.values.ravel()
    total = flat.sum()
    if total <= 0.0:
        return 0.0
    return float((flat * flat).sum() / total)


# ---------------------------------------------------------------------------
# Bulk dataset generation


DATASET_DTYPE = np.dtype(
    [
        ("task", np.int32),
        ("location", "U32"),
        ("target_x", np.float64),
        ("target_y", np.float64),
        ("row", np.int16),
        ("col", np.int16),
        ("trial", np.int16),
        ("success", np.bool_),
    ]
)


def build_feasibility_dataset(
    scene: SceneState,
    locations: list[SymbolicLocation],
    n_tasks: int = 100,
    params: FeasibilityParams | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Simulated unload-trial records for randomly drawn unload tasks.

    Each task picks one standing band and one unload point uniformly on that
    band's table top, then records every per-cell trial outcome. The result
    is a structured array of n_tasks * rows * cols * trials_per_cell rows.
    """
    params = params or FeasibilityParams()
    rng = np.random.default_rng(seed)
    chunks: list[np.ndarray] = []
    for task in range(n_tasks):
        location = locations[int(rng.integers(len(locations)))]
        table = scene.table(location.table_id)
        hx, hy = table.half_extents
        margin = 0.02
        tx = table.center[0] + rng.uniform(-hx + margin, hx - margin)
        ty = table.center[1] + rng.uniform(-hy + margin, hy - margin)
        outcomes = trial_outcomes(scene, location, (tx, ty), params)
        rows, cols, trials = outcomes.shape
        block = np.empty(rows * cols * trials, dtype=DATASET_DTYPE)
        rr, cc, tt = np.meshgrid(
            np.arange(rows), np.arange(cols), np.arange(trials), indexing="ij"
        )
        block["task"] = task
        block["location"] = location.id
        block["target_x"] = tx
        block["target_y"] = ty
        block["row"] = rr.ravel()
        block["col"] = cc.ravel()
        block["trial"] = tt.ravel()
        block["success"] = outcomes.ravel()
        chunks.append(block)
    return np.concatenate(chunks)
