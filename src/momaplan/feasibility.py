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
seed, the location, the unload point and the trial parameters, one
``SeedSequence``-spawned ``PCG64`` stream per reachable (row, col) cell.
The same inputs reproduce a map bit for bit, and cells are independent. Maps
are kept with the scene's navigator (``motion.navigator_for``), under its
bound of eight scenes, keyed by location, exact unload point and
parameters. Each navigator keeps the ``motion.MAX_MAPS`` (256) most
recently used maps; an evicted map is recomputed equal bit for bit.

``pcg64_states`` derives many streams' starts and first outputs: numpy's
``SeedSequence`` mixes their shared entropy once, and array passes mix each
stream's key words, seed PCG64 and take its first output. A map reloads one
generator at each cell's start through one reused state dict and draws the
cell's standard normals; the arrival tests then run once per map.
``draw_standing_cells`` turns first outputs into the planner's stand draws,
bit for bit those of a generator on each stream.

Two summary quantities feed planning: the per-cell probability itself for
a concrete standing cell, and for a whole unload task the expected
probability under probability-weighted standing-cell sampling, in closed
form, sum(h^2) / sum(h). The weighted draw reads a normalised cumulative
table each map builds once, as ``Generator.choice`` does.
"""
from __future__ import annotations

import hashlib
import logging
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cache, cached_property

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
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@cache
def _hash_consts(hash_const: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiplier constants of ``count`` successive hashes from
    ``hash_const`` on, (count / 4, 4, 1) uint32 arrays: hash i xors with
    ``hash_const · mult**i`` and multiplies by the next power."""
    consts = np.array([hash_const * pow(mult, i, 2**32) & _MASK32 for i in range(count + 1)], np.uint32)
    return consts[:-1].reshape(-1, _POOL_SIZE, 1), consts[1:].reshape(-1, _POOL_SIZE, 1)


# PCG64's inc = 2·seq + 1, start (inc + seed)·M + inc and first step
# start·M + inc are, modulo 2**128, seed·a + seq·b + c: rows a, b, c; columns
# (state, inc, step); as high words, low words, and the low words' halves.
_M = _PCG64_MULT
_COEFFS = [[_M, 0, _M**2], [2 * _M + 2, 2, 2 * (_M**2 + _M + 1)], [_M + 1, 1, _M**2 + _M + 1]]
_COEFF_HI, _COEFF_LO, _COEFF_LO1, _COEFF_LO0 = (
    np.array([[[c % 2**128 >> shift & mask] for c in row] for row in _COEFFS], dtype=np.uint64)
    for shift, mask in ((64, 2**64 - 1), (0, 2**64 - 1), (32, _MASK32), (0, _MASK32)))
# 0-d arrays, which numpy applies faster than Python ints it range-checks.
_U32_16, _U32_MIX_L, _U32_MIX_R = (np.array(v, np.uint32) for v in (16, _MIX_MULT_L, _MIX_MULT_R))
_U64_32, _U64_58, _U64_63, _U64_64, _U64_MASK32 = (
    np.array(v, np.uint64) for v in (32, 58, 63, 64, _MASK32))


def pcg64_states(entropy: int | Sequence, keys) -> tuple[np.ndarray, np.ndarray]:
    """The start of ``PCG64(SeedSequence(entropy, spawn_key=key))`` for each
    row ``key`` of the ``(K, L)`` array ``keys`` (key words below 2**32), as
    (K, 4) uint64 rows ``(state_hi, state_lo, inc_hi, inc_lo)``, and each
    stream's first output, its ``random_raw()``, as a uint64 array.

    ``SeedSequence(entropy)`` mixes the entropy the streams share, once;
    each key's words, and PCG64's seeding, step and XSL-RR output (O'Neill,
    "PCG", 2014), go in uint32 and uint64 array passes along the K streams:
    the high words of 64 x 64-bit products from 32-bit halves, carries as
    comparisons.
    """
    keys = np.asarray(keys, dtype=np.uint32)
    if keys.ndim != 2:
        raise ValueError(f"keys must be a (K, L) array, got shape {keys.shape}")
    # The pool mix's hashes, four per uint32 entropy word and at least 16
    # (a missing pool word hashes as zero, as the padding before a spawn key
    # does), step the hash constant. None raises here, before numpy would
    # fill it from the OS.
    items = [entropy] if isinstance(entropy, (int, np.integer)) else entropy
    words = sum(-(-int(item).bit_length() // 32) or 1 for item in items)
    hash_const = _INIT_A * pow(_MULT_A, _POOL_SIZE * max(words, _POOL_SIZE), 2**32) & _MASK32
    pool = np.full((len(keys), _POOL_SIZE), np.random.SeedSequence(entropy).pool).T
    # Each key word is hashed with four successive constants, one per pool
    # word, in one pass along the K streams; then one mixing pass per word.
    xor, mult = _hash_consts(hash_const, _MULT_A, _POOL_SIZE * keys.shape[1])
    word = (keys.T[:, None, :] ^ xor) * mult
    word ^= word >> _U32_16
    word *= _U32_MIX_R
    for column in word:
        pool = pool * _U32_MIX_L - column
        pool ^= pool >> _U32_16
    # generate_state(4, np.uint64): words paired into (seed, seq), high first.
    xor, mult = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    word = ((pool ^ xor) * mult).reshape(2 * _POOL_SIZE, -1)
    word ^= word >> _U32_16
    word = word.astype(np.uint64)
    words = word[0::2] | word[1::2] << _U64_32
    # seed·a and seq·b, modulo 2**128: the low words' full product from
    # 32-bit halves, the cross terms wrapped; then their sum plus c.
    hi, lo = words[0::2, None], words[1::2, None]
    lo0, lo1 = lo & _U64_MASK32, lo >> _U64_32
    mid = lo1 * _COEFF_LO0[:2] + (lo0 * _COEFF_LO0[:2] >> _U64_32)
    carry = (mid & _U64_MASK32) + lo0 * _COEFF_LO1[:2]
    prod_hi = lo1 * _COEFF_LO1[:2] + (mid >> _U64_32) + (carry >> _U64_32)
    prod_hi += hi * _COEFF_LO[:2] + lo * _COEFF_HI[:2]
    prod_lo = lo * _COEFF_LO[:2]
    out_lo = prod_lo[0] + prod_lo[1]
    carry = out_lo < prod_lo[0]
    out_lo += _COEFF_LO[2]
    out_hi = prod_hi[0] + prod_hi[1] + _COEFF_HI[2] + carry + (out_lo < _COEFF_LO[2])
    # A draw steps the state, then outputs its halves xor-ed, rotated right
    # by the state's top six bits.
    word, rot = out_hi[2] ^ out_lo[2], out_hi[2] >> _U64_58
    first = (word >> rot) | (word << ((_U64_64 - rot) & _U64_63))
    return np.array((out_hi[0], out_lo[0], out_hi[1], out_lo[1])).T, first


def _load(bitgen: np.random.PCG64, streams: np.ndarray) -> Iterator[int]:
    """Set ``bitgen`` to the start of each ``pcg64_states`` row in turn, through
    one reused state dict, yielding the row's index while it is loaded."""
    words = {}
    state = {"bit_generator": "PCG64", "state": words, "has_uint32": 0, "uinteger": 0}
    for k, (state_hi, state_lo, inc_hi, inc_lo) in enumerate(streams.tolist()):
        words["state"] = state_hi << 64 | state_lo
        words["inc"] = inc_hi << 64 | inc_lo
        bitgen.state = state
        yield k


def draw_standing_cells(
    fmaps: Sequence[FeasibilityMap], streams: np.ndarray, first: np.ndarray,
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
        gen = np.random.Generator(np.random.PCG64(0))
        next(_load(gen.bit_generator, streams[k:k + 1]))
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
    for k in _load(gen.bit_generator, streams):
        gen.standard_normal(out=noise[k])
    # normal(0, σ) draws 0.0 + σ·z; σ·z differs from it only in a zero's
    # sign, which no arrival test reads.
    noise *= params.nav_sigma_xy
    arrivals = (centers[cells, None, :] + noise).reshape(-1, 2)

    target_arr = np.asarray(target, dtype=float)
    dist = np.hypot(arrivals[:, 0] - target_arr[0], arrivals[:, 1] - target_arr[1])
    ok = dist <= params.reach_radius
    # Only arrivals within reach need the collision test, and only those
    # still in play the reach-line tests.
    live = np.flatnonzero(ok)
    hit = robot_collides_batch(scene, arrivals[live])
    ok[live[hit]] = False
    live = live[~hit]
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
