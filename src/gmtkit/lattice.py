"""Dyadic cube addressing and finite cell sets on the unit cube.

A level-j dyadic cube in [0,1]^n is the half-open box

    prod_i [ index_i * 2^-j, (index_i + 1) * 2^-j ),

addressed canonically by ``(level, index)`` with integer coordinates in
[0, 2^j).  Half-open boxes make same-level cubes pairwise disjoint, so every
point of [0,1)^n lies in exactly one cube per level and membership questions
never need tie-breaking.  Coordinates are derived from indices on demand and
stay exact in double precision for the working depths used here (level <= 50).

A ``CellSet`` is a finite union of depth-m cells (level-m cubes) and is the
discrete stand-in for a compact subset of [0,1]^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import sqrt

import numpy as np

from gmtkit.errors import InvalidInputError
from gmtkit.utils import exact_int, exact_ints, finite_floats, load_json, write_canonical

MAX_LEVEL = 50


def _check_level(level: int) -> None:
    if not isinstance(level, int) or level < 0 or level > MAX_LEVEL:
        raise InvalidInputError(f"level must be an integer in [0, {MAX_LEVEL}], got {level!r}")


@dataclass(frozen=True)
class DyadicCube:
    """One dyadic cube: ambient dimension, level, integer index vector."""

    n: int
    level: int
    index: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInputError(f"ambient dimension must be >= 1, got {self.n}")
        _check_level(self.level)
        idx = exact_ints(self.index, "a cube index must hold integers")
        object.__setattr__(self, "index", tuple(idx.tolist()))
        if idx.shape != (self.n,) or not all(0 <= i < 1 << self.level for i in self.index):
            raise InvalidInputError(f"cube index {self.index} must be {self.n} integers in [0, 2^{self.level})")

    def side(self) -> float:
        return 2.0 ** (-self.level)

    def diameter(self) -> float:
        return level_diameter(self.n, self.level)

    def lower(self) -> np.ndarray:
        s = self.side()
        return np.array([i * s for i in self.index], dtype=float)

    def upper(self) -> np.ndarray:
        s = self.side()
        return np.array([(i + 1) * s for i in self.index], dtype=float)

    def center(self) -> np.ndarray:
        s = self.side()
        return np.array([(i + 0.5) * s for i in self.index], dtype=float)

    def contains_point(self, point) -> bool:
        p = finite_floats(point, "point coordinates must be finite")
        return bool(np.all(self.lower() <= p) and np.all(p < self.upper()))

    def parent(self) -> "DyadicCube":
        if self.level == 0:
            raise InvalidInputError("the root cube has no parent")
        return DyadicCube(self.n, self.level - 1, tuple(i >> 1 for i in self.index))

    def ancestor(self, level: int) -> "DyadicCube":
        """The unique level-`level` cube containing this one (level <= self.level)."""
        if level > self.level or level < 0:
            raise InvalidInputError(f"ancestor level {level} not in [0, {self.level}]")
        shift = self.level - level
        return DyadicCube(self.n, level, tuple(i >> shift for i in self.index))


def level_diameter(n: int, level: int) -> float:
    """Diameter of a level-`level` cube in [0,1]^n: sqrt(n) * 2^-level.

    Scaling by a power of two is exact, so every caller gets the same bits.
    """
    return sqrt(n) * 2.0 ** (-level)


def box_distances(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Euclidean distances from points to closed axis-aligned boxes with
    corners lo, hi: the last axis holds the n coordinates, and the others
    broadcast, so (m, 1, n) points against (b, n) boxes give an (m, b) array.
    The squared gaps add along the contiguous last axis, in one order for
    every shape."""
    gap = lo - points
    np.maximum(gap, points - hi, out=gap)
    np.maximum(gap, 0.0, out=gap)
    gap *= gap
    return np.sqrt(gap.sum(axis=-1))


def pack(rows: np.ndarray, level: int) -> np.ndarray:
    """One integer key per row of `rows`, an (m, n) array of level-`level`
    cube indices: the indices packed first index most significant, so keys
    sort as the rows do.  Keys wider than 62 bits are Python integers."""
    dtype = np.int64 if rows.shape[1] * level <= 62 else object
    keys = np.zeros(len(rows), dtype)
    for column in rows.T:
        keys = keys << level | column.astype(dtype, copy=False)
    return keys


def locate(keys: np.ndarray, level: int, rows: np.ndarray) -> np.ndarray:
    """Position in `keys`, the packed keys (`pack`) of a lexicographically
    ordered table of level-`level` cube indices, of each row of `rows`
    (indices in [0, 2^level)), or -1 where the row is not in the table.

    A table that is searched often keeps its keys, so that each search packs
    only its queries.
    """
    if not len(keys):
        return np.full(len(rows), -1, dtype=np.int64)
    queries = pack(rows, level)
    pos = np.minimum(np.searchsorted(keys, queries), len(keys) - 1)
    return np.where(keys[pos] == queries, pos, -1)


def cell_points(rows: np.ndarray, level: int, unit: np.ndarray) -> np.ndarray:
    """Points of the level-`level` cells `rows`, an (m, n) index array, placed
    at the offsets `unit`, one (m, n) draw in [0, 1): the cell corner plus
    the offset times the side.  Rounding at deep levels can land the sum on
    the cell's upper face; such a point is pulled back inside the half-open
    cell."""
    side = 2.0 ** (-level)
    low = rows * side
    points = low + unit * side
    high = low + side
    return np.where(points >= high, np.nextafter(high, low), points)


def index_rows(cells, n: int, level: int) -> np.ndarray:
    """The cell indices `cells`, an (N, n) integer array or any iterable of
    length-n index sequences, as an (N, n) int64 array, checked to lie in
    [0, 2^level)."""
    rows = exact_ints(cells, "cell index rows must hold integers")
    rows = rows.reshape(0, n) if rows.shape == (0,) else rows
    if rows.ndim != 2 or rows.shape[1] != n:
        raise InvalidInputError(f"cell index rows must hold {n} indices each, got an array of shape {rows.shape}")
    bad = ((rows < 0) | (rows >= 1 << level)).any(axis=1)
    if bad.any():
        raise InvalidInputError(f"cell index {tuple(rows[bad][0].tolist())} out of range at level {level}")
    return rows


def ascending(rows: np.ndarray) -> bool:
    """Whether the rows of the (N, n) integer array `rows` strictly increase in
    lexicographic order: one pass per column over the pairs of neighbours
    that the columns before it leave tied."""
    tied = np.ones(max(len(rows) - 1, 0), dtype=bool)
    for column in rows.T:
        step = column[1:] - column[:-1]
        if (tied & (step < 0)).any():
            return False
        tied &= step == 0
    return not tied.any()


def group_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the (N, n) array `rows` in lexicographic order, and
    the position of each input row among them: what ``np.unique(rows, axis=0,
    return_inverse=True)`` gives, by one lexsort over the columns and a mask of
    the sorted rows that differ from the row before."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


class Pyramid:
    """The occupied dyadic cubes above an antichain of nodes, level by level.

    Built once from nodes given as an (N, n) array of index rows and their
    `levels`: one level for every node (a ``CellSet``), or an array of one
    level per node.  For each lattice level l in [0, MAX_LEVEL], whatever
    depth a measure declares, ``cubes[l]`` holds the occupied level-l cube
    indices as an (m_l, n) int64 array in lexicographic order, and
    ``parents[l]`` the position of each one's parent in ``cubes[l - 1]``.
    The levels below the deepest node are empty and never grouped.

    The pyramid describes the nodes only, so measures over the same nodes (a
    cell set and its Frostman measure, a measure at another declared depth
    or scaled, a sparse stage that leaves the nodes as they were) share one.

    Sums up the tree are ``np.bincount`` over parent positions, which adds in
    array order: in the order a loop over the sorted tuples adds.  Values go
    down the tree by gathering through ``parents``.
    """

    def __init__(self, n: int, rows, levels):
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, n)
        node_level = np.full(len(rows), levels, dtype=np.int64)
        self.cubes: list[np.ndarray] = [np.empty((0, n), dtype=np.int64)] * (MAX_LEVEL + 1)
        self.parents: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * (MAX_LEVEL + 1)
        self._deepest = int(node_level.max(initial=0))
        node_pos = np.empty(len(rows), dtype=np.int64)
        above = np.empty((0, n), dtype=np.int64)  # parents of the level below
        for level in range(self._deepest, -1, -1):
            here = np.flatnonzero(node_level == level)
            self.cubes[level], position = group_rows(np.concatenate([rows[here], above]))
            node_pos[here] = position[: len(here)]
            if level < self._deepest:
                self.parents[level + 1] = position[len(here) :]
            above = self.cubes[level] >> 1
        # nodes in (level, index) order, the order in which sums take them
        self._order = np.lexsort((node_pos, node_level))
        self._node_level = node_level[self._order]
        self._node_pos = node_pos[self._order]
        self._keys: dict[int, np.ndarray] = {}  # level -> packed keys of cubes[level]

    def locate(self, level: int, rows: np.ndarray) -> np.ndarray:
        """`locate` of level-`level` index rows in ``cubes[level]``, whose keys
        are packed on the first search of the level."""
        if level not in self._keys:
            self._keys[level] = pack(self.cubes[level], level)
        return locate(self._keys[level], level, rows)

    def sum_up(self, level: int, values: np.ndarray) -> np.ndarray:
        """Per level-(`level` - 1) cube, the sum of its children's `values`.

        A (T, m) stack of value rows gives a (T, m_above) stack: one
        ``bincount`` over parent positions shifted by row, each row's sums
        added in the order the 1-D call adds them."""
        parents, size = self.parents[level], len(self.cubes[level - 1])
        if values.ndim == 1:
            return np.bincount(parents, weights=values, minlength=size)
        rows = len(values)
        slots = (parents + size * np.arange(rows)[:, None]).ravel()
        return np.bincount(slots, weights=values.ravel(), minlength=rows * size).reshape(rows, size)

    def rollup(self, values) -> list[np.ndarray]:
        """Per level, each cube's sum of the values of the nodes inside it.

        `values` follows the order in which the nodes were given.  Each node
        is added straight into every ancestor, nodes in (level, index) order.
        """
        values = np.asarray(values, dtype=float)[self._order]
        pos = self._node_pos.copy()
        sums = [np.zeros(0)] * (MAX_LEVEL - self._deepest)  # the empty levels, deepest first
        for level in range(self._deepest, -1, -1):
            inside = self._node_level >= level  # these nodes now sit at `level`
            sums.append(np.bincount(pos[inside], weights=values[inside], minlength=len(self.cubes[level])))
            if level:
                pos[inside] = self.parents[level][pos[inside]]
        return sums[::-1]

    def topmost(self, flags: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """The flagged cubes below no flagged cube, in the order a depth-first
        walk from the root meets them, children in lexicographic order: their
        levels, an int64 array, and their index rows, an (m, n) int64 array.
        `flags` holds one boolean array per level, from level 0 down."""
        size = [np.ones(len(c), dtype=np.int64) for c in self.cubes[: len(flags)]]  # cubes in each subtree, within the flagged levels
        for level in range(len(flags) - 1, 0, -1):
            size[level - 1] += self.sum_up(level, size[level]).astype(np.int64)
        rank = np.zeros(len(self.cubes[0]), dtype=np.int64)  # cubes the walk meets earlier
        clear = np.ones(len(self.cubes[0]), dtype=bool)  # no flagged ancestor
        ranks, levels, rows = [], [], []
        for level, flag in enumerate(flags):
            if level:  # a child follows its parent and the subtrees of its earlier siblings
                order = np.argsort(self.parents[level], kind="stable")
                parent, span = self.parents[level][order], size[level][order]
                before = np.cumsum(span) - span
                rank, above = np.empty_like(span), rank
                rank[order] = above[parent] + 1 + before - before[np.searchsorted(parent, parent)]
                clear = (clear & ~flags[level - 1])[self.parents[level]]
            hit = np.flatnonzero(clear & flag)
            ranks.append(rank[hit])
            levels.append(np.full(len(hit), level, dtype=np.int64))
            rows.append(self.cubes[level][hit])
        walk = np.argsort(np.concatenate(ranks))  # ranks are distinct
        return np.concatenate(levels)[walk], np.concatenate(rows)[walk]


class CellSet:
    """A finite set of depth-m cells representing a subset of [0,1]^n.

    ``rows`` holds the distinct cell indices as a read-only (N, n) int64 array
    in lexicographic order; ``cells``, the same set as a frozenset of index
    tuples, is built on first use.
    """

    def __init__(self, n: int, depth: int, cells):
        """`cells`: an (N, n) integer array or any iterable of index tuples; repeats collapse, and rows in order skip the sort."""
        if n < 1:
            raise InvalidInputError(f"ambient dimension must be >= 1, got {n}")
        _check_level(depth)
        self.n, self.depth = n, depth
        rows = index_rows(cells, n, depth)
        self.rows = rows.copy() if ascending(rows) else group_rows(rows)[0]  # a copy, so no caller's array is frozen
        self.rows.setflags(write=False)

    def _key(self) -> tuple:
        return self.n, self.depth, self.rows.tobytes()

    def __eq__(self, other) -> bool:
        return isinstance(other, CellSet) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"<CellSet n={self.n} depth={self.depth} cells={len(self)}>"

    def __len__(self) -> int:
        return len(self.rows)

    @cached_property
    def cells(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.sorted_cells())

    def sorted_cells(self) -> list[tuple[int, ...]]:
        return list(map(tuple, self.rows.tolist()))

    def centers(self) -> np.ndarray:
        """The cell centres, an (N, n) float array in ``rows`` order."""
        return (self.rows + 0.5) * 2.0 ** (-self.depth)

    def pyramid(self) -> "Pyramid":
        """The occupied cube tree above the cells, built once per set."""
        return self._pyramid

    @cached_property
    def _pyramid(self) -> "Pyramid":
        return Pyramid(self.n, self.rows, self.depth)

    def refined(self, depth: int) -> "CellSet":
        """The same set expressed with cells at a deeper uniform depth."""
        if depth < self.depth:
            raise InvalidInputError(f"cannot coarsen from depth {self.depth} to {depth}")
        if depth == self.depth:
            return self
        d = depth - self.depth
        offsets = np.indices((1 << d,) * self.n).reshape(self.n, -1).T  # every descendant offset
        return CellSet(self.n, depth, ((self.rows << d)[:, None, :] + offsets).reshape(-1, self.n))

    def sample_points(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Uniform sample: a uniformly chosen cell, then a uniform point in it."""
        if not len(self):
            raise InvalidInputError("cannot sample from an empty cell set")
        cells = self.rows[rng.integers(0, len(self), size=count)]
        return cell_points(cells, self.depth, rng.random((count, self.n)))

    def to_json_obj(self) -> dict:
        return {"n": self.n, "depth": self.depth, "cells": self.rows}

    @staticmethod
    def from_json_obj(obj: dict) -> "CellSet":
        bad = "malformed cell set object: n and depth must be integers"
        try:
            n, depth, cells = exact_int(obj["n"], bad), exact_int(obj["depth"], bad), obj["cells"]
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"malformed cell set object: {exc}") from exc
        return CellSet(n, depth, cells)

    def save(self, path) -> None:
        write_canonical(path, self.to_json_obj())

    @staticmethod
    def load(path) -> "CellSet":
        return CellSet.from_json_obj(load_json(path))


def union(sets: list[CellSet]) -> CellSet:
    """Union of cell sets with a common ambient dimension, refined to the deepest depth."""
    if not sets:
        raise InvalidInputError("union of zero cell sets")
    n = sets[0].n
    if any(s.n != n for s in sets):
        raise InvalidInputError("union requires a common ambient dimension")
    depth = max(s.depth for s in sets)
    return CellSet(n, depth, np.concatenate([s.refined(depth).rows for s in sets]))
