"""Measures on dyadic cubes and the bottom-up Frostman construction.

A ``SparseMeasure`` is the one measure type: every stage of the sparse
construction, from the Frostman measure it starts on to the measure on the
purely unrectifiable core, is one.  A ``CellMeasure`` is the case whose
nodes all sit at one level, ``cell_level``, with no windows: nonnegative
mass on level-``cell_level`` cells, each spread uniformly over its cell.
The declared ``depth`` may exceed ``cell_level``; the measure is then still
well defined on every dyadic cube down to ``depth`` through the
uniform-density convention, without ever materializing the deeper cells.
Fully explicit measures have ``cell_level == depth``.

Representation.  A measure is stored as a disjoint antichain of ``nodes``
(cube, mass), each read as uniform inside its cube, plus a list of
``windows`` (start, ell): inside any node at level <= start, digits at levels
start+1 .. start+ell are forced to zero.  A window records that a scale acted
on territory that was uniform at selection time, where every subcube mass
ties and the lexicographically first subcube wins in closed form.  This keeps
deep working depths (scales far below the explicit cells) exact and cheap: no
cell enumeration ever happens below the antichain, and cube masses, support
membership, caps, and preservation checks all evaluate in closed form.

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

import numpy as np

from gmtkit.errors import InvalidInputError, VerificationError
from gmtkit.gauge import Gauge
from gmtkit.lattice import (
    MAX_LEVEL,
    CellSet,
    DyadicCube,
    Pyramid,
    ascending,
    cell_points,
    group_rows,
    index_rows,
    level_diameter,
    locate,
    pack,
)
from gmtkit.utils import Table, exact_int, exact_ints, finite_floats, load_json, write_canonical

CAP_TOLERANCE = 1e-9
BALL_BLOCK = 1 << 16  # (point, cube) pairs per array pass of the ball check
BALL_BAND = 1e-12  # relative distance to r*r within which the ball check's np.dot kernel decides
DRAW_BLOCK = 1 << 14  # digits per random draw of the support sampler, unless one level's rows hold more


def _forced(windows: tuple[tuple[int, int], ...], t: int, level: int) -> int:
    """Bitmask of the level-`level` index digits forced to zero inside a node at
    level `t`: the digit of level l (bit level - l of every coordinate) is
    forced when some window (a, e) has t <= a < l <= a + e."""
    mask = 0
    for a, e in windows:
        if t <= a < level:
            end = min(a + e, level)
            mask |= ((1 << (end - a)) - 1) << (level - end)
    return mask


def _interior_factor(
    n: int,
    node_level: int,
    level: int,
    windows: tuple[tuple[int, int], ...],
) -> tuple[int, float]:
    """(forced digit mask, mass fraction) of a level-`level` cube strictly
    inside a uniform node at `node_level`: the fraction holds where the
    cube's forced digits vanish, and the cube is empty elsewhere.

    Descending one level splits mass by 2^-n outside windows; inside a window
    the zero-digit branch keeps the whole mass and every other branch drops
    to zero.
    """
    forced = _forced(windows, node_level, level)
    return forced, 2.0 ** (-n * (level - node_level - forced.bit_count()))


class SparseMeasure:
    """Measure as a disjoint uniform-node antichain plus zero-digit windows.

    The nodes of positive mass are stored as three read-only arrays sorted by
    (level, index): ``levels``, ``rows``, an (N, n) int64 table of their
    index rows, and ``weights``, their masses.  ``nodes``, the same nodes as
    a dict from (level, index tuple) to mass, is built on first use.

    Cube masses are read from the pyramid above the nodes, built on first use
    and grouped only down to the deepest node: the levels below it are empty.
    A measure made from another over the same nodes (`_share`) takes that
    one's pyramid instead of grouping its own, and its rollup too when the
    masses are the same bits.
    """

    _kin: "SparseMeasure | None" = None  # a measure over the same nodes, whose pyramid this one takes

    def __init__(self, n: int, depth: int, nodes, windows=()):
        """`nodes`: a dict from (level, index tuple) to mass, or a triple of N
        levels, an (N, n) integer array of index rows and N masses, in any
        order.  Zero masses are dropped.  Nodes already in strictly increasing
        (level, index) order are taken as they come, with no sort."""
        if not 0 <= depth <= MAX_LEVEL:  # cells are int64 and points exact floats down to MAX_LEVEL
            raise InvalidInputError(f"depth must lie in [0, {MAX_LEVEL}], got {depth}")
        if isinstance(nodes, dict):
            levels, rows = zip(*nodes, strict=True) if nodes else ((), ())  # the keys' two columns
            nodes = levels, rows, list(nodes.values())
        levels, rows = exact_ints(nodes[0], "node levels must be integers"), index_rows(nodes[1], n, depth)
        if levels.shape != (len(rows),):
            raise InvalidInputError(f"{levels.size} levels for {len(rows)} nodes")
        bad = (levels < 0) | (levels > depth) | (rows >> np.clip(levels, 0, depth)[:, None]).any(axis=1)
        if bad.any():
            raise InvalidInputError(f"node {(int(levels[bad][0]), rows[bad][0].tolist())} invalid at depth {depth}")
        table = np.column_stack([levels, rows])  # by level, then index
        table, inverse = (table, np.arange(len(table))) if ascending(table) else group_rows(table)
        if len(table) < len(inverse):
            raise InvalidInputError(f"node {table[np.bincount(inverse).argmax()].tolist()} is listed more than once")
        given = finite_floats(nodes[2], "masses must be finite and nonnegative")
        if given.shape != inverse.shape:
            raise InvalidInputError(f"{given.size} masses for {len(inverse)} nodes")
        if (given < 0.0).any():
            raise InvalidInputError(f"masses must be finite and nonnegative, got {given.min()}")
        weights = np.empty(len(table))
        weights[inverse] = given
        kept = weights > 0.0
        self.n, self.depth, self.levels, self.rows = n, depth, table[kept, 0], table[kept, 1:]
        self.weights = weights[kept]
        for array in (self.levels, self.rows, self.weights):
            array.setflags(write=False)
        self.total = float(sum(self.weights.tolist()))  # left to right, as np.sum's pairwise sum is not
        wins = exact_ints(windows, "windows must be (start, ell) integer pairs")
        if wins.size and wins.shape[1:] != (2,):
            raise InvalidInputError(f"windows must be (start, ell) integer pairs, got an array of shape {wins.shape}")
        self.windows = tuple(map(tuple, wins.reshape(-1, 2).tolist()))
        for a, e in self.windows:
            if e < 1 or a < 0 or a + e > depth:
                raise InvalidInputError(f"window ({a}, {e}) outside depth {depth}")
        # the nodes form an antichain: no node's cube holds a deeper node
        for t, run, keys, _ in self._node_runs:
            deeper = int(np.searchsorted(self.levels, t, side="right"))
            at = locate(keys, t, self.rows[deeper:] >> (self.levels[deeper:] - t)[:, None])
            if (at >= 0).any():
                raise InvalidInputError(f"node {(t, tuple(run[at[at >= 0].min()].tolist()))} holds another node")

    def _key(self) -> tuple:
        return self.n, self.depth, self.windows, self.levels.tobytes(), self.rows.tobytes(), self.weights.tobytes()

    def __eq__(self, other) -> bool:
        return isinstance(other, SparseMeasure) and self._key() == other._key()

    @cached_property
    def nodes(self) -> dict[tuple[int, tuple[int, ...]], float]:
        return dict(zip(zip(self.levels.tolist(), map(tuple, self.rows.tolist())), self.weights.tolist()))

    def mass_at(self, level: int, idx: tuple[int, ...]) -> float:
        cube = DyadicCube(self.n, level, idx)  # rejects a bad level, index length or index range
        if level > self.depth:
            raise InvalidInputError(f"level {level} below declared depth {self.depth}")
        return float(self._lookup(level, np.array([cube.index], dtype=np.int64))[1][0])

    def _lookup(self, level: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Support membership and mass of each level-`level` cube of the (m, n)
        array `rows`.

        A cube holding nodes reads the rollup.  A cube strictly inside a node
        holds the node's mass times the interior fraction, and lies in the
        support where that fraction is positive.
        """
        pyramid, sums = self._level_sums
        pos = pyramid.locate(level, rows)
        occupied, mass = pos >= 0, np.append(sums[level], 0.0)[pos]  # position -1: no node inside
        for t, _, keys, w in self._node_runs:
            if t >= level:
                break
            at = locate(keys, t, rows >> (level - t))
            inside = np.flatnonzero(at >= 0)
            forced, fraction = _interior_factor(self.n, t, level, self.windows)
            fraction = np.where((rows[inside] & forced).any(axis=1), 0.0, fraction)
            mass[inside] += w[at[inside]] * fraction
            occupied[inside] |= fraction > 0.0
        return occupied, mass

    def cube_mass(self, cube: DyadicCube) -> float:
        """Exact mass of a dyadic cube at any level <= depth."""
        if cube.n != self.n:
            raise InvalidInputError(f"cube dimension {cube.n} != measure dimension {self.n}")
        return self.mass_at(cube.level, cube.index)

    def is_explicit(self) -> bool:
        return not self.windows and bool((self.levels == self.levels[:1]).all())

    def to_cell_measure(self) -> "CellMeasure":
        if not self.is_explicit():
            raise InvalidInputError("measure has uniform-territory structure; no flat cell form")
        cell_level = int(self.levels[0]) if len(self.levels) else self.depth
        return CellMeasure(self.n, self.depth, (self.rows, self.weights), cell_level)

    @cached_property
    def _choice_table(self) -> np.ndarray:
        """The cumulative table that ``rng.choice(N, p=weights / weights.sum())``
        rebuilds on every call, built once: the running sum of p, divided by
        its last entry."""
        cdf = (self.weights / self.weights.sum()).cumsum()
        cdf /= cdf[-1]
        return cdf

    def _pick(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """`count` mass-weighted node indices, exactly as ``rng.choice`` with p
        draws them: one ``rng.random(count)`` call, each uniform placed in the
        table by ``searchsorted(side="right")``."""
        if not len(self.weights):
            raise InvalidInputError("cannot sample from the zero measure")
        return self._choice_table.searchsorted(rng.random(count), side="right")

    def _support_cells(self, rng: np.random.Generator, count: int, level: int) -> np.ndarray:
        """Mass-weighted support cells at `level`, a (count, n) int64 array: one
        pick of nodes (`_pick`, the indices and generator state of
        ``rng.choice``), then the digits of the rows free at each level (zeros
        inside windows), level by level, then row by row.  Integer
        coordinates: a float round trip at deep levels can round a point
        across a cell boundary, off the support.

        The digits take the random stream in the order of one
        ``rng.integers(0, 2)`` call per level, but come from one call per run
        of levels whose drawing rows agree, cut into calls of at most
        max(``DRAW_BLOCK``, rows * n) digits; levels at which no picked row
        draws are skipped.  Each int64 digit of range 2 takes exactly one
        32-bit output (Lemire's method never rejects there) and the generator
        keeps its spare 32-bit half between calls, so merging or cutting the
        calls leaves the stream as it was."""
        picks = self._pick(rng, count)
        t, idx = self.levels[picks], self.rows[picks]
        cells = idx >> np.maximum(t - level, 0)[:, None] << np.maximum(level - t, 0)[:, None]
        # free[u, i]: a row whose node sits at node_levels[u] draws its digit
        # at digit_levels[i], below the node and outside every window
        node_levels = np.array([u for u, *_ in self._node_runs], dtype=np.int64)
        forced = np.array([_forced(self.windows, u, level) for u in node_levels.tolist()], dtype=np.int64)
        digit_levels = np.arange(int(node_levels.min(initial=level)) + 1, level + 1)
        free = (node_levels[:, None] < digit_levels) & ((forced[:, None] >> (level - digit_levels) & 1) == 0)
        which = node_levels.searchsorted(t)  # each pick's node level, as a row of `free`
        # the levels at which some picked row draws, in runs over which the
        # drawing rows stay the same
        drawn = free[np.bincount(which, minlength=len(free)) > 0]
        cols = np.flatnonzero(drawn.any(axis=0))
        changes = np.flatnonzero((drawn[:, cols[1:]] != drawn[:, cols[:-1]]).any(axis=0)) + 1
        starts = [0, *changes.tolist()] if len(cols) else []
        for a, b in zip(starts, [*starts[1:], len(cols)]):
            rows = np.flatnonzero(free[which, cols[a]])
            step = max(1, DRAW_BLOCK // (len(rows) * self.n))  # levels per draw
            for l in range(a, b, step):
                shifts = (level - digit_levels[cols[l : min(l + step, b)]])[:, None, None]
                bits = rng.integers(0, 2, size=(len(shifts), len(rows), self.n))
                bits <<= shifts
                cells[rows] |= bits.sum(axis=0)  # each level's digit sits on its own bit
        return cells

    @cached_property
    def _node_runs(self) -> list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
        """(level, index rows, their packed keys, masses) of the nodes at each
        node level, levels ascending.  The nodes sort by level, then index, so
        each run's rows are in lexicographic order, and `locate` searches the
        keys."""
        starts = np.flatnonzero(np.diff(self.levels, prepend=-1))
        runs = zip(self.levels[starts].tolist(), np.split(self.rows, starts[1:]), np.split(self.weights, starts[1:]))
        return [(t, rows, pack(rows, t), w) for t, rows, w in runs]

    @cached_property
    def _peaks(self) -> list[float]:
        """The heaviest cube mass at each level 0..depth: the largest rolled-up
        mass, or inside a node its zero-digit cube, one of the heaviest since
        windows keep it, so the heaviest node of each shallower node level
        stands for its level."""
        _, sums = self._level_sums
        heaviest = [(t, float(w.max())) for t, _, _, w in self._node_runs]
        return [
            max([float(sums[level].max(initial=0.0)),
                 *(w * _interior_factor(self.n, t, level, self.windows)[1] for t, w in heaviest if t < level)])
            for level in range(self.depth + 1)
        ]

    def support_sample_cells(self, level: int, count: int, rng: np.random.Generator) -> CellSet:
        """Distinct support cells at `level`, drawn mass-weighted (deduplicated)."""
        if not 0 <= level <= self.depth:
            raise InvalidInputError(f"level must lie in [0, {self.depth}], got {level}")
        return CellSet(self.n, level, self._support_cells(rng, count, level))

    def sample_support_points(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Mass-weighted points of the support: a support cell at the declared
        depth, then a uniform point inside it."""
        return self._sample_points(rng, count, self.depth)

    def _sample_points(self, rng: np.random.Generator, count: int, level: int) -> np.ndarray:
        """Support cells at `level`, then a uniform point inside each."""
        cells = self._support_cells(rng, count, level)
        return cell_points(cells, level, rng.random((count, self.n)))

    def _share(self, kin: "SparseMeasure") -> "SparseMeasure":
        """This measure, set to take the pyramid of `kin` (and its rollup,
        where the masses are the same bits) if the two hold the same nodes."""
        if np.array_equal(self.levels, kin.levels) and np.array_equal(self.rows, kin.rows):
            self._kin = kin
        return self

    @cached_property
    def _pyramid(self) -> Pyramid:
        """The pyramid above the nodes: its kin's, or built here."""
        if self._kin is not None:
            return self._kin._pyramid
        return Pyramid(self.n, self.rows, self.levels)

    @cached_property
    def _level_sums(self) -> tuple[Pyramid, list[np.ndarray]]:
        """The pyramid above the nodes, and per level the mass of each of its cubes."""
        if self._kin is not None and np.array_equal(self._kin.weights, self.weights):
            return self._kin._level_sums
        return self._pyramid, self._pyramid.rollup(self.weights)

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "depth": self.depth,
            "nodes": Table(self.levels, self.rows, self.weights),
            "windows": [list(w) for w in self.windows],
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "SparseMeasure":
        bad = "malformed sparse measure object: n and depth must be integers"
        try:
            levels, rows, masses = tuple(zip(*obj["nodes"], strict=True)) or ((), (), ())
            return SparseMeasure(exact_int(obj["n"], bad), exact_int(obj["depth"], bad), (levels, rows, masses), obj["windows"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"malformed sparse measure object: {exc}") from exc

    def save(self, path) -> None:
        write_canonical(path, self.to_json_obj())

    @staticmethod
    def load(path) -> "SparseMeasure":
        return SparseMeasure.from_json_obj(load_json(path))


class CellMeasure(SparseMeasure):
    """Nonnegative masses on level-`cell_level` cells, declared down to `depth`:
    the sparse measure whose nodes all sit at `cell_level`, with no windows.

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
        self.cell_level = cl
        super().__init__(n, depth, (np.full(len(cells), cl), cells, given))

    def _key(self) -> tuple:
        return *super()._key(), self.cell_level

    def __repr__(self) -> str:
        return f"<CellMeasure n={self.n} depth={self.depth} cell_level={self.cell_level} cells={len(self.rows)} total={self.total!r}>"

    @cached_property
    def masses(self) -> dict[tuple[int, ...], float]:
        return dict(zip(map(tuple, self.rows.tolist()), self.weights.tolist()))

    def support(self) -> CellSet:
        return CellSet(self.n, self.cell_level, self.rows)

    def with_depth(self, depth: int) -> "CellMeasure":
        """Declare a deeper working depth; masses stay at cell_level, uniform inside."""
        if depth < self.cell_level:
            raise InvalidInputError(f"depth {depth} shallower than cell level {self.cell_level}")
        return CellMeasure(self.n, depth, (self.rows, self.weights), self.cell_level)._share(self)

    def scaled(self, c: float) -> "CellMeasure":
        if c < 0:
            raise InvalidInputError(f"scale factor must be >= 0, got {c}")
        return CellMeasure(self.n, self.depth, (self.rows, c * self.weights), self.cell_level)._share(self)

    def normalized(self) -> "CellMeasure":
        if self.total <= 0:
            raise InvalidInputError("cannot normalize the zero measure")
        return self.scaled(1.0 / self.total)

    def level_masses(self, level: int) -> dict[tuple[int, ...], float]:
        """Aggregated masses of all occupied level-`level` cubes (level <= cell_level)."""
        if level > self.cell_level:
            raise InvalidInputError(f"level {level} is below the explicit cell level {self.cell_level}")
        pyramid, sums = self._level_sums
        return dict(zip(map(tuple, pyramid.cubes[level].tolist()), sums[level].tolist()))

    def centers_and_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Cell centers with their masses, for moment computations."""
        return self.support().centers(), self.weights

    def sample_points(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Mass-weighted sample: cell chosen with probability mass/total, uniform inside."""
        return self._sample_points(rng, count, self.cell_level)

    def to_json_obj(self) -> dict:
        obj = {
            "n": self.n,
            "depth": self.depth,
            "masses": Table(self.rows, self.weights),
        }
        if self.cell_level != self.depth:
            obj["cell_level"] = self.cell_level
        return obj

    @staticmethod
    def from_json_obj(obj: dict) -> "CellMeasure":
        bad = "malformed measure object: n, depth and cell_level must be integers"
        try:
            n, depth = exact_int(obj["n"], bad), exact_int(obj["depth"], bad)
            cl = exact_int(obj.get("cell_level", depth), bad)
            masses = tuple(zip(*obj["masses"], strict=True)) or ((), ())  # (cells, masses)
            return CellMeasure(n, depth, masses, cl)
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"malformed measure object: {exc}") from exc

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
    measure = CellMeasure(n, m, (pyramid.cubes[m], mass))
    if len(measure.rows) == len(mass):  # no cell lost its mass: the nodes are the cells
        measure._pyramid = pyramid
    return measure


@dataclass(frozen=True)
class FrostmanReport:
    gauge_label: str
    max_ratio: float
    worst_cube: tuple[int, tuple[int, ...]] | None  # (level, index)
    saturated_cover_cost: float
    saturated_count: int
    passed: bool
    cap_convention: str = "exact"  # caps hold with no dimensional relaxation factor


def _worst_ratio(peaks: list[float], caps: list[float], cap_name: str, stage: str) -> tuple[float, int | None]:
    """The largest peak / cap and the first level reaching it, (0.0, None) with
    no mass; a cap not > 0 at a level holding mass fails `stage`."""
    worst, where = 0.0, None
    for level, (peak, cap) in enumerate(zip(peaks, caps)):
        if peak > 0.0:
            if not cap > 0.0:
                raise VerificationError(f"{cap_name} vanishes at level {level} but mass is present", stage=stage)
            if peak / cap > worst:
                worst, where = peak / cap, level
    return worst, where


def verify_frostman(measure: CellMeasure, h: Gauge) -> FrostmanReport:
    """Exhaustively check mass(Q) <= h(diam Q) over every cube meeting the support.

    Each level's heaviest cube (`SparseMeasure._peaks`) sets its ratio.  The
    worst cube is the first heaviest one at the worst level.
    """
    cell_level = measure.cell_level
    pyramid, mass = measure._level_sums
    caps = [h(level_diameter(measure.n, level)) for level in range(measure.depth + 1)]
    max_ratio, level = _worst_ratio(measure._peaks, caps, f"gauge {h.label}", "frostman")
    worst = None
    if level is not None:  # below the cells: the zero-digit subcube of the first heaviest cell
        top = min(level, cell_level)
        worst = (level, tuple((pyramid.cubes[top][int(np.argmax(mass[top]))] << (level - top)).tolist()))

    # maximal saturated cubes, added up in the order a walk from the root meets them
    saturated = pyramid.topmost([m >= cap * (1.0 - CAP_TOLERANCE) for m, cap in zip(mass, caps[: cell_level + 1])])[0]
    cost = float(np.cumsum(np.asarray(caps)[saturated])[-1]) if len(saturated) else 0.0  # left to right
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

    The ball mass is bounded by summing the masses of every comparable-level
    cube that meets the closed ball (comparable: the first level whose cube
    diameter drops to r or below; below the explicit cells a cube holds its
    uniform share of its cell, as the measure's lookup reads it).
    A ball of radius r meets boundedly many such cubes, so a pass of the cube
    cap check with h(r) = r^k forces a dimensional-constant bound here.

    Each level is one array pass over all sample points and the cubes of
    their bounding boxes, exact against a per-cube loop that counts a cube
    when its squared gap, summed by ``np.dot``, is at most r*r, with no square
    root.  A cube's gap along an axis depends only on the point and the
    cube's offset along that axis, so the gaps are taken per axis, inf past
    the box's far end, and their squares added one axis after another over
    the box, in ``itertools.product`` order.  ``np.dot`` may fuse a multiply
    into its add, so its sum can differ from that one in the last bits: the
    pairs whose sum lies within ``BALL_BAND`` * r*r of r*r are decided again
    by the ``np.dot`` kernel (the stacked matmul below runs it) on their gap
    rows.  Only the cubes that meet the ball are looked up, and each point's
    masses are added one after another in box order, as the loop adds them.
    The worst ball is the first largest ratio in (point, level) order.
    """
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    if samples < 1:
        raise InvalidInputError(f"samples must be >= 1, got {samples}")
    n = measure.n
    rng = np.random.default_rng(seed)
    drawn = rng.random((max(1, samples // 2), n))
    centers = (measure.rows[: samples - len(drawn)] + 0.5) * 2.0 ** (-measure.cell_level)  # of the first cells
    pts = np.concatenate([drawn, centers])

    radii = tuple(level_diameter(n, j) for j in range(measure.depth + 1))
    if radii[-1] ** k == 0.0:
        raise InvalidInputError(f"r^{k} underflows to 0.0 at depth {measure.depth}; no ratio is defined")
    ratios = np.empty((len(pts), len(radii)))
    for level, r in enumerate(radii):
        scale, side, r2, edge = 1 << level, 1.0 / (1 << level), r * r, BALL_BAND * r * r
        lo = np.maximum(np.floor((pts - r) * scale).astype(np.int64), 0)
        hi = np.minimum(np.floor((pts + r) * scale).astype(np.int64), scale - 1)
        width = int((hi - lo).max()) + 1
        box = np.indices((width,) * n).reshape(n, -1).T  # the offsets in itertools.product order
        # gap[i, w, p]: from point p to the cubes at offset w along axis i
        idx = lo.T[:, None, :] + np.arange(width)[:, None]
        low = idx * side
        gap = np.maximum(np.maximum(low - pts.T[:, None, :], pts.T[:, None, :] - (low + side)), 0.0)
        gap[idx > hi.T[:, None, :]] = np.inf
        square = gap * gap
        step = max(1, BALL_BLOCK // len(box))
        for s in range(0, len(pts), step):
            m = min(step, len(pts) - s)  # points in this pass
            sums = square[0, :, s : s + m]
            for axis in range(1, n):  # a (box, point) table of summed squares
                sums = (sums[:, None, :] + square[axis, :, s : s + m]).reshape(-1, m)
            pos = np.flatnonzero(sums <= r2 + edge)  # the pairs that meet, or lie too near r*r to tell
            band = np.flatnonzero(sums.flat[pos] >= r2 - edge)
            b, p = np.divmod(pos[band], m)
            rows = gap[np.arange(n), box[b], s + p[:, None]]
            pos = np.delete(pos, band[(rows[:, None, :] @ rows[:, :, None])[:, 0, 0] > r2])
            b, p = np.divmod(pos, m)  # box-major, so each point's cubes come in box order
            mass = measure._lookup(level, lo[s + p] + box[b])[1]
            ratios[s : s + m, level] = np.bincount(p, weights=mass, minlength=m) / r**k

    top = int(np.argmax(ratios))
    best = float(ratios.flat[top])
    if not best > 0.0:
        return BallCheckReport(0.0, None, len(pts), radii)
    point, level = divmod(top, len(radii))
    return BallCheckReport(best, (tuple(pts[point].tolist()), radii[level], best), len(pts), radii)
