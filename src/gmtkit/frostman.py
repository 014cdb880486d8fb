"""Measures on cell sets and the bottom-up Frostman construction.

A ``CellMeasure`` assigns nonnegative mass to cells at a fixed level and is
read as the measure that spreads each cell's mass uniformly over the cell.
The declared ``depth`` may exceed the level the masses live at
(``cell_level``); the measure is then still well defined on every dyadic cube
down to ``depth`` through the uniform-density convention, without ever
materializing the deeper cells.  Fully explicit measures have
``cell_level == depth``.

``build_frostman`` produces the canonical measure witnessing positive
h-content of a cell set: start every occupied bottom cell exactly saturated,
mass h(diam cell), then sweep upward and rescale any subtree whose aggregated
mass exceeds the cap h(diam Q).  The result satisfies mass(Q) <= h(diam Q)
for every dyadic cube, with equality on a disjoint family of maximal
saturated cubes that covers the set.  Its total mass equals the optimal
dyadic cover cost computed independently in :mod:`gmtkit.content`; tests lean
on that identity as the keystone cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from gmtkit.errors import InvalidInputError, VerificationError
from gmtkit.gauge import Gauge
from gmtkit.lattice import CellSet, DyadicCube, Pyramid, group_rows, index_rows, level_diameter
from gmtkit.utils import load_json, write_canonical

CAP_TOLERANCE = 1e-9
BALL_BLOCK = 1 << 16  # (point, cube) pairs per array pass of the ball check


def positive_masses(table: np.ndarray, masses, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the (N, m) int64 array `table` that carry positive mass, in
    lexicographic order, and their masses.  `masses` holds one finite,
    nonnegative mass per row, in `table`'s order; no row may repeat."""
    rows, inverse = group_rows(table)
    if len(rows) < len(inverse):
        raise InvalidInputError(f"{what} {rows[np.bincount(inverse).argmax()].tolist()} is listed more than once")
    try:
        given = np.asarray(masses, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"malformed {what} masses: {exc}") from exc
    if given.shape != inverse.shape:
        raise InvalidInputError(f"{given.size} masses for {len(inverse)} {what}s")
    bad = given[~(np.isfinite(given) & (given >= 0.0))]
    if len(bad):
        raise InvalidInputError(f"masses must be finite and nonnegative, got {bad[0]}")
    weights = np.empty(len(rows))
    weights[inverse] = given
    return rows[weights > 0.0], weights[weights > 0.0]


class CellMeasure:
    """Nonnegative masses on level-`cell_level` cells, declared down to `depth`.

    ``rows`` holds the cells of positive mass as a read-only (N, n) int64
    array in lexicographic order and ``weights`` their masses in the same
    order; ``masses``, the same measure as a dict, is built on first use.
    """

    def __init__(self, n: int, depth: int, masses, cell_level: int | None = None):
        """`masses`: a dict from index tuples to masses, or a pair of an (N, n)
        integer array of cells and their N masses.  Zero masses are dropped."""
        cl = depth if cell_level is None else cell_level
        if cl < 0 or cl > depth:
            raise InvalidInputError(f"cell level {cl} must lie in [0, depth={depth}]")
        cells, given = (list(masses), list(masses.values())) if isinstance(masses, dict) else masses
        self.n, self.depth, self.cell_level = n, depth, cl
        self.rows, self.weights = positive_masses(index_rows(cells, n, cl), given, "cell")
        for table in (self.rows, self.weights):
            table.setflags(write=False)
        self.total = float(sum(self.weights.tolist()))  # left to right, as np.sum's pairwise sum is not

    def _key(self) -> tuple:
        return self.n, self.depth, self.cell_level, self.rows.tobytes(), self.weights.tobytes()

    def __eq__(self, other) -> bool:
        return isinstance(other, CellMeasure) and self._key() == other._key()

    def __repr__(self) -> str:
        return f"CellMeasure({self.n}, {self.depth}, {self.masses}, {self.cell_level})"

    @cached_property
    def masses(self) -> dict[tuple[int, ...], float]:
        return dict(zip(map(tuple, self.rows.tolist()), self.weights.tolist()))

    def support(self) -> CellSet:
        return CellSet(self.n, self.cell_level, self.rows)

    def with_depth(self, depth: int) -> "CellMeasure":
        """Declare a deeper working depth; masses stay at cell_level, uniform inside."""
        if depth < self.cell_level:
            raise InvalidInputError(f"depth {depth} shallower than cell level {self.cell_level}")
        return CellMeasure(self.n, depth, (self.rows, self.weights), self.cell_level)

    def scaled(self, c: float) -> "CellMeasure":
        if c < 0:
            raise InvalidInputError(f"scale factor must be >= 0, got {c}")
        return CellMeasure(self.n, self.depth, (self.rows, c * self.weights), self.cell_level)

    def normalized(self) -> "CellMeasure":
        if self.total <= 0:
            raise InvalidInputError("cannot normalize the zero measure")
        return self.scaled(1.0 / self.total)

    def level_masses(self, level: int) -> dict[tuple[int, ...], float]:
        """Aggregated masses of all occupied level-`level` cubes (level <= cell_level)."""
        if level > self.cell_level:
            raise InvalidInputError(f"level {level} is below the explicit cell level {self.cell_level}")
        pyramid, sums = self._rollup
        return dict(zip(map(tuple, pyramid.cubes[level].tolist()), sums[level].tolist()))

    @cached_property
    def _rollup(self) -> tuple[Pyramid, list[np.ndarray]]:
        """The cube tree over the cells and, per level, every cube's mass; built on first use."""
        pyramid = Pyramid(self.n, self.cell_level, self.rows)
        return pyramid, pyramid.rollup(self.weights)

    def cube_mass(self, cube: DyadicCube) -> float:
        """Exact mass of a dyadic cube at any level <= depth."""
        if cube.n != self.n:
            raise InvalidInputError(f"cube dimension {cube.n} != measure dimension {self.n}")
        if cube.level > self.depth:
            raise InvalidInputError(f"cube level {cube.level} deeper than declared depth {self.depth}")
        pyramid, sums = self._rollup
        level = min(cube.level, self.cell_level)
        shift = cube.level - level  # below the explicit cells, mass splits uniformly
        pos = pyramid.locate(level, np.array([cube.index], dtype=np.int64) >> shift)[0]
        return float(sums[level][pos]) * 2.0 ** (-self.n * shift) if pos >= 0 else 0.0

    def centers_and_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Cell centers with their masses, for moment computations."""
        return self.support().centers(), self.weights

    def sample_points(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Mass-weighted sample: cell chosen with probability mass/total, uniform inside."""
        if not len(self.rows):
            raise InvalidInputError("cannot sample from the zero measure")
        picks = rng.choice(len(self.weights), size=count, p=self.weights / self.weights.sum())
        side = 2.0 ** (-self.cell_level)
        return self.rows[picks] * side + rng.random((count, self.n)) * side

    def to_json_obj(self) -> dict:
        obj = {
            "n": self.n,
            "depth": self.depth,
            "masses": [[idx, m] for idx, m in zip(self.rows.tolist(), self.weights.tolist())],
        }
        if self.cell_level != self.depth:
            obj["cell_level"] = self.cell_level
        return obj

    @staticmethod
    def from_json_obj(obj: dict) -> "CellMeasure":
        try:
            n = int(obj["n"])
            depth = int(obj["depth"])
            cl = int(obj.get("cell_level", depth))
            entries = [(idx, m) for idx, m in obj["masses"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"malformed measure object: {exc}") from exc
        return CellMeasure(n, depth, ([idx for idx, _ in entries], [m for _, m in entries]), cl)

    def save(self, path) -> None:
        write_canonical(path, self.to_json_obj())

    @staticmethod
    def load(path) -> "CellMeasure":
        return CellMeasure.from_json_obj(load_json(path))


def build_frostman(cells: CellSet, h: Gauge) -> CellMeasure:
    """Maximal measure with mass(Q) <= h(diam Q) on every dyadic cube over `cells`.

    Each occupied bottom cell starts with total mass h(diam cell); the upward
    sweep rescales over-cap subtrees.  Scaling is tracked as one lazy factor
    per cube and flattened in a single downward pass, so no level-by-level
    rescan of the cells is needed.
    """
    if not len(cells):
        raise InvalidInputError("cannot build a measure on an empty cell set")
    n, m = cells.n, cells.depth
    init = h(level_diameter(n, m))
    if init <= 0:
        raise InvalidInputError(f"gauge {h.label} prices bottom cells at {init}; need a positive value")

    pyramid = cells.pyramid()
    agg = np.full(len(pyramid.cubes[m]), init)
    factors: list[np.ndarray] = [np.empty(0)] * m  # factors[l]: capping factor of each level-l cube
    for level in range(m - 1, -1, -1):
        cap = h(level_diameter(n, level))
        agg = pyramid.sum_up(level + 1, agg)
        over = agg > cap
        factors[level] = np.where(over, cap / agg, 1.0)
        agg = np.where(over, cap, agg)

    # each cell's mass is init times its ancestors' factors, root first
    mass = np.full(len(pyramid.cubes[0]), init)
    for level in range(m):
        mass = (mass * factors[level])[pyramid.parents[level + 1]]
    return CellMeasure(n, m, (pyramid.cubes[m], mass))


@dataclass(frozen=True)
class FrostmanReport:
    gauge_label: str
    max_ratio: float
    worst_cube: tuple[int, tuple[int, ...]] | None  # (level, index)
    saturated_cover_cost: float
    saturated_count: int
    passed: bool
    cap_convention: str = "exact"  # caps hold with no dimensional relaxation factor


def verify_frostman(measure: CellMeasure, h: Gauge) -> FrostmanReport:
    """Exhaustively check mass(Q) <= h(diam Q) over every cube meeting the support.

    Levels up to the explicit cell level are checked by aggregation; levels
    below it follow the uniform-density closed form, whose per-level maximum
    is max cell mass * 2^(-n*(l - cell_level)).
    """
    n = measure.n
    max_ratio, worst = 0.0, None
    pyramid, mass = measure._rollup
    caps = [h(level_diameter(n, level)) for level in range(measure.cell_level + 1)]
    for level, cap in enumerate(caps):
        if not len(mass[level]):
            continue
        if cap <= 0:
            raise VerificationError(f"gauge {h.label} vanishes at level {level} but mass is present")
        ratios = mass[level] / cap
        top = int(np.argmax(ratios))  # the first cube attaining the maximum
        if ratios[top] > max_ratio:
            max_ratio, worst = float(ratios[top]), (level, tuple(pyramid.cubes[level][top].tolist()))

    if measure.cell_level < measure.depth and len(measure.rows):
        top = int(np.argmax(measure.weights))  # the first heaviest cell in row order
        peak, idx = float(measure.weights[top]), measure.rows[top].tolist()
        for level in range(measure.cell_level + 1, measure.depth + 1):
            cap = h(level_diameter(n, level))
            ratio = peak * 2.0 ** (-n * (level - measure.cell_level)) / cap
            if ratio > max_ratio:
                deep = tuple(i << (level - measure.cell_level) for i in idx)
                max_ratio, worst = ratio, (level, deep)

    # maximal saturated cubes, added up in the order a walk from the root meets them
    saturated = pyramid.topmost([m >= cap * (1.0 - CAP_TOLERANCE) for m, cap in zip(mass, caps)])
    cost = float(sum(caps[level] for level, _ in saturated))
    return FrostmanReport(
        gauge_label=h.label,
        max_ratio=max_ratio,
        worst_cube=worst,
        saturated_cover_cost=cost,
        saturated_count=len(saturated),
        passed=max_ratio <= 1.0 + CAP_TOLERANCE,
    )


@dataclass(frozen=True)
class BallCheckReport:
    constant: float
    worst: tuple[tuple[float, ...], float, float] | None  # (center, radius, ratio)
    centers: int
    radii: tuple[float, ...]


def ball_frostman_check(measure: CellMeasure, k: int, samples: int = 256, seed: int = 0) -> BallCheckReport:
    """Monte-Carlo upper bound on sup mass(B_r(x)) / r^k over dyadic radii.

    The ball mass is bounded by summing aggregated masses of every comparable-
    level cube that meets the closed ball (comparable: the first level whose
    cube diameter drops to r or below, clamped to the explicit cell level).
    A ball of radius r meets boundedly many such cubes, so a pass of the cube
    cap check with h(r) = r^k forces a dimensional-constant bound here.

    Each level is one array pass over all sample points and the cubes of
    their bounding boxes, exact against a per-cube loop: a cube meets the
    ball when its squared gap, summed by the ``np.dot`` kernel (the stacked
    matmul below runs it), is at most r*r, with no square root; the box
    offsets run in ``itertools.product`` order, and ``np.cumsum`` adds the
    masses along them one after another, the cubes that miss adding an exact
    0.0.  The worst ball is the first largest ratio in (point, level) order.
    """
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    if samples < 1:
        raise InvalidInputError(f"samples must be >= 1, got {samples}")
    n, cl = measure.n, measure.cell_level
    pyramid, sums = measure._rollup
    rng = np.random.default_rng(seed)
    drawn = rng.random((max(1, samples // 2), n))
    pts = np.concatenate([drawn, measure.support().centers()[: samples - len(drawn)]])

    radii = tuple(level_diameter(n, j) for j in range(measure.depth + 1))
    if radii[-1] ** k == 0.0:
        raise InvalidInputError(f"r^{k} underflows to 0.0 at depth {measure.depth}; no ratio is defined")
    ratios = np.empty((len(pts), len(radii)))
    for level, r in enumerate(radii):
        shift = max(0, level - cl)  # below the explicit cells, mass splits uniformly
        masses = np.append(sums[level - shift], 0.0)  # position -1: an unoccupied cube
        scale = 1 << level
        lo = np.maximum(np.floor((pts - r) * scale).astype(np.int64), 0)
        hi = np.minimum(np.floor((pts + r) * scale).astype(np.int64), scale - 1)
        box = np.array(list(product(range(int((hi - lo).max()) + 1), repeat=n)))
        step = max(1, BALL_BLOCK // len(box))
        for s in range(0, len(pts), step):
            x, idx = pts[s : s + step, None, :], lo[s : s + step, None, :] + box
            low = idx * (1.0 / scale)
            gap = np.maximum(np.maximum(low - x, x - (low + 1.0 / scale)), 0.0)
            meets = (gap[..., None, :] @ gap[..., :, None])[..., 0, 0] <= r * r
            meets &= (idx <= hi[s : s + step, None, :]).all(axis=2)
            mass = np.zeros(meets.shape)
            held = pyramid.locate(level - shift, idx[meets] >> shift)
            mass[meets] = masses[held] * 2.0 ** (-n * shift)
            ratios[s : s + step, level] = np.cumsum(mass, axis=1)[:, -1] / r**k

    top = int(np.argmax(ratios))
    best = float(ratios.flat[top])
    if not best > 0.0:
        return BallCheckReport(0.0, None, len(pts), radii)
    point, level = divmod(top, len(radii))
    return BallCheckReport(best, (tuple(pts[point].tolist()), radii[level], best), len(pts), radii)
