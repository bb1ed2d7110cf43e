"""Empirical standing-spot feasibility for unloading objects onto a table.

For one symbolic standing location (a band of 8 x 24 cells of 0.1 m beside
a table side) and one unload point on the table, every cell gets a success
probability estimated by repeated simulated trials. A trial succeeds when

* navigation works: the cell is reachable from the robot's start over
  cells whose centre keeps the robot's disc clear of all furniture, and a
  noisy arrival position keeps the disc clear too, and
* manipulation works: the arrival position is within arm's reach of the
  unload point and the straight reach line crosses nothing except the
  table being loaded.

The per-cell trial noise comes from entropy words derived from the scene
seed, the location, the unload point and the trial parameters; one
``pcg64_states`` pass derives every reachable cell's (row, col) stream.
The same inputs reproduce a map bit for bit, and cells are independent. Maps
are kept with the scene's navigator (``motion.navigator_for``), under its
bound of eight scenes, keyed by location, exact unload point and
parameters, so two unload points share a map only when they are equal.
Each navigator keeps the ``motion.MAX_MAPS`` (256) most recently used
maps; an evicted map is recomputed equal bit for bit when asked again.
Only the draws are made cell by cell: the collision, reach and reach-line
tests run once per map over the arrivals of every reachable cell.

Two summary quantities feed planning: the per-cell probability itself for
a concrete standing cell, and for a whole unload task the expected
probability under probability-weighted standing-cell sampling, in closed
form, sum(h^2) / sum(h). The weighted draw reads a normalised cumulative
table each map builds once, and makes the draw ``Generator.choice`` makes
with the map's probabilities. ``pcg64_states`` derives many seeded
``PCG64`` streams and each one's first output in one array pass, for the
map cells and for ``draw_standing_cells``, which turns first outputs into
the planner's stand draws, one per unload option, in one more, bit for bit
the draws a generator on each stream makes; a generator is built only for
the rare word Lemire's bounded draw rejects.
"""
from __future__ import annotations

import hashlib
import logging
import math
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
    reach_radius: float = 0.80

    def __post_init__(self) -> None:
        trials = self.trials_per_cell
        # Checked here, not when a map first draws ``trials`` normals per cell.
        if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)):
            raise ValueError(f"trials_per_cell must be an int, got {trials!r}")
        if trials < 1:
            raise ValueError(f"trials_per_cell must be at least 1, got {trials}")
        if not 0.0 <= self.nav_sigma_xy < float("inf"):
            raise ValueError(f"nav_sigma_xy must be non-negative and finite, got {self.nav_sigma_xy}")
        if not 0.0 < self.reach_radius < float("inf"):
            raise ValueError(f"reach_radius must be positive and finite, got {self.reach_radius}")
        # Every map-store request hashes its key, so hash the fields once.
        object.__setattr__(self, "_hash", hash(self.fingerprint()))

    def __hash__(self) -> int:
        return self._hash

    def fingerprint(self) -> tuple[int, ...]:
        # 100_000_000 (the former heading sigma, 0.1, in 1e-9) and 25 (the former stand-draw
        # count) keep every map seed; both go when maps are computed (ROADMAP item 2).
        return (
            self.trials_per_cell,
            int(round(self.nav_sigma_xy * 1e9)),
            100_000_000,
            int(round(self.reach_radius * 1e9)),
            25,
        )


@dataclass(frozen=True)
class FeasibilityMap:
    location_id: str
    target: tuple[float, float]  # unload point, world frame
    values: np.ndarray  # (rows, cols) success probabilities

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

    @cached_property
    def expected(self) -> float:
        """Expected cell value under the weighted standing draw, sum(h^2) /
        sum(h), with both sums correctly rounded (``math.fsum``) so no
        summation order moves it; 0.0 when no cell is feasible."""
        flat = self.values.ravel().tolist()
        total = math.fsum(flat)
        return math.fsum([h * h for h in flat]) / total if total > 0.0 else 0.0


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
_MASK64 = (1 << 64) - 1
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
    """SeedSequence's hashmix on one word; returns the mixed word and the
    next hash constant."""
    value = value ^ hash_const
    hash_const = (hash_const * _MULT_A) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> 16), hash_const


def _hash_consts(hash_const: int, mult: int, count: int) -> np.ndarray:
    """``hash_const`` and the ``count`` hash constants after it, a
    (count + 1, 1) uint32 column: a word hashed with constant i is xor-ed
    with entry i and multiplied by entry i + 1."""
    consts = [hash_const]
    for _ in range(count):
        consts.append((consts[-1] * mult) & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def pcg64_states(entropy: int | Sequence, keys) -> tuple[list[tuple[int, int]], np.ndarray]:
    """The ``(state, inc)`` that ``PCG64(SeedSequence(entropy,
    spawn_key=key))`` starts from, for each row ``key`` of the ``(K, L)``
    array ``keys`` (every key word below 2**32), and the uint64 array of each
    stream's first output, its ``random_raw()``.

    The entropy words are pool-mixed once in Python ints; the spawn-key
    words of all K keys are mixed in uint32 array arithmetic; PCG64's
    two-step seeding of each stream, and the step and XSL-RR output of its
    first word (O'Neill, "PCG", 2014), then run in 128-bit Python ints.
    Loading a pair into a generator's ``bit_generator.state`` (``_load``, as
    ``trial_outcomes`` does per map cell) reproduces that stream without
    building a SeedSequence, PCG64 and Generator for it.
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
    # Each key word is hashed with four successive constants, one per pool
    # word, so a column mixes into the (4, K) pool in one array pass.
    pool = np.array(pool, dtype=np.uint32)[:, None].repeat(len(keys), axis=1)
    for column in keys.T:
        consts = _hash_consts(hash_const, _MULT_A, _POOL_SIZE)
        hash_const = int(consts[-1, 0])
        word = (column ^ consts[:-1]) * consts[1:]
        pool = _mix(pool, word ^ (word >> 16))
    # generate_state(4, np.uint64): eight words, paired little-endian into
    # the 128-bit seed and increment.
    consts = _hash_consts(_INIT_B, _MULT_B, 8)
    word = (np.tile(pool, (2, 1)) ^ consts[:-1]) * consts[1:]
    words = (word ^ (word >> 16)).astype(np.uint64)
    s_hi, s_lo, i_hi, i_lo = (words[0::2] | (words[1::2] << 32)).tolist()
    states, first = [], []
    for seed, seq in zip(zip(s_hi, s_lo), zip(i_hi, i_lo)):
        inc = (((seq[0] << 64) | seq[1]) << 1 | 1) & _MASK128
        state = ((inc + ((seed[0] << 64) | seed[1])) * _PCG64_MULT + inc) & _MASK128
        states.append((state, inc))
        # A draw steps the state, then outputs its halves xor-ed, rotated
        # right by the state's top six bits.
        step = (state * _PCG64_MULT + inc) & _MASK128
        word, rot = (step >> 64) ^ (step & _MASK64), step >> 122
        first.append(((word >> rot) | (word << (64 - rot))) & _MASK64)
    return states, np.array(first, dtype=np.uint64)


def _load(gen: np.random.Generator, stream: tuple[int, int]) -> np.random.Generator:
    """``gen`` set to the start of the PCG64 stream ``(state, inc)``."""
    gen.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": stream[0], "inc": stream[1]},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def draw_standing_cells(
    fmaps: Sequence[FeasibilityMap], streams: Sequence[tuple[int, int]], first: np.ndarray,
) -> np.ndarray:
    """Flat index of the cell ``sample_standing_cell`` draws from each map
    on a generator at the start of its PCG64 stream, given the streams and
    their first outputs as ``pcg64_states`` returns them, in one array pass.

    A live map draws ``Generator.random()``, the first output's top 53 bits
    times 2**-53, and its cell is the count of its cumulative-table entries
    at or below that (``searchsorted(side="right")``). An all-zero map
    draws ``Generator.integers(size)``: Lemire's multiply-shift (ACM
    TOMACS, 2019) takes the high word of the output's low 32 bits times
    ``size``. Only a word that method rejects, one whose product's low word
    is below 2**32 mod ``size`` (about 1.5e-8 of draws at size 192), is
    redrawn by the stream's own generator.
    """
    cdfs = [fmap.cdf for fmap in fmaps]
    sizes = np.array([fmap.values.size for fmap in fmaps], dtype=np.uint64)
    product = (first & _MASK32) * sizes
    cells = (product >> 32).astype(np.intp)
    live = [k for k, cdf in enumerate(cdfs) if cdf is not None]
    if live:
        lengths = sizes[live].astype(np.intp)
        draws = (first[live] >> 11).astype(np.float64) * 2.0**-53
        below = np.concatenate([cdfs[k] for k in live]) <= np.repeat(draws, lengths)
        cells[live] = np.add.reduceat(below, np.cumsum(lengths) - lengths, dtype=np.intp)
    rejected = (product & _MASK32) < (1 << 32) % sizes
    rejected[live] = False
    for k in np.flatnonzero(rejected).tolist():
        gen = _load(np.random.Generator(np.random.PCG64(0)), streams[k])
        cells[k] = gen.integers(fmaps[k].values.size)
    return cells


def trial_outcomes(
    scene: SceneState,
    location: SymbolicLocation,
    target: tuple[float, float],
    params: FeasibilityParams | None = None,
) -> np.ndarray:
    """Per-trial success booleans, shape (rows, cols, trials_per_cell).

    Cells that are blocked or off the robot's start component
    (``Navigator.reachable_at``) fail every trial and draw nothing; every
    other cell draws its arrivals from its own (row, col) stream; one
    ``pcg64_states`` call derives them all, and one reloaded generator draws.
    """
    params = params or FeasibilityParams()
    rows, cols = location.dims
    n = params.trials_per_cell

    centers = location.cell_centers().reshape(-1, 2)
    cells = np.flatnonzero(navigator_for(scene).reachable_at(centers))

    entropy = _entropy_words(scene.rng_seed, location.id, target, params)
    streams, _ = pcg64_states(entropy, np.column_stack(np.divmod(cells, cols)))
    gen = np.random.Generator(np.random.PCG64(0))
    noise = np.empty((len(cells), n, 2))
    for k, stream in enumerate(streams):
        noise[k] = _load(gen, stream).normal(0.0, params.nav_sigma_xy, (n, 2))
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

    Deterministic in (scene seed, location, target, params) and kept in
    the scene's navigator under the exact target, which keeps the
    ``MAX_MAPS`` most recently used.
    """
    params = params or FeasibilityParams()
    target = (float(target[0]), float(target[1]))
    key = (location.id, target, params)
    per_scene = navigator_for(scene).maps
    fmap = per_scene.pop(key, None)
    if fmap is None:
        outcomes = trial_outcomes(scene, location, target, params)
        values = outcomes.mean(axis=2)
        values.setflags(write=False)
        fmap = FeasibilityMap(location.id, target, values)
        if log.isEnabledFor(logging.DEBUG):
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


def task_feasibility(fmap: FeasibilityMap) -> float:
    """Feasibility of a whole unload task with a weighted standing draw from
    ``fmap``: the draw's expected cell value in closed form
    (``FeasibilityMap.expected``, computed once per map)."""
    return fmap.expected


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
