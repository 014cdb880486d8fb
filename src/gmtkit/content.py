"""Generalized Hausdorff content and size-capped cover costs, solved exactly.

For a finite cell set E the infimum of sum h(diam C_i) over covers of E by
dyadic cubes is attained by an antichain of dyadic cubes, so it is computed
exactly by one pass of dynamic programming over the occupied cube tree:

    cost(Q) = min( h(diam Q), sum over occupied children of cost )

with "cover here" forced at the bottom cells.  ``min_level`` caps the size of
admissible cover cubes (only levels >= min_level may be chosen, encoding the
diameter bound delta = sqrt(n) * 2^-min_level); above that level the
recursion must descend.  Ties resolve to "cover here", so among optimal
covers the shallowest one is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gmtkit.errors import InvalidInputError
from gmtkit.gauge import Gauge
from gmtkit.lattice import CellSet, DyadicCube, Pyramid, level_diameter


@dataclass(frozen=True)
class CoverSolution:
    cost: float
    cover: tuple[DyadicCube, ...]
    min_level: int

    def cover_cost(self, h: Gauge) -> float:
        return float(sum(h(c.diameter()) for c in self.cover))


def _cover_dp(cells: CellSet, h: Gauge, selected=None) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per level, each occupied cube's optimal cover cost with no size cap, and
    whether covering it by itself attains that cost.  Leaves outside the boolean
    mask `selected` cost 0.0; adding 0.0 is exact, so this is the DP on the selected leaves bit for bit.
    A (T, N) stack of masks runs T such DPs in one pass, with (T, m) arrays per level."""
    pyramid, n, m = cells.pyramid(), cells.n, cells.depth
    leaf = h(level_diameter(n, m))
    cost = [np.full(len(pyramid.cubes[m]), leaf) if selected is None else np.where(selected, leaf, 0.0)]
    here = [np.ones(cost[0].shape, dtype=bool)]
    for level in range(m - 1, -1, -1):  # the lists grow at the front, from the bottom up
        below = pyramid.sum_up(level + 1, cost[0])
        price = h(level_diameter(n, level))
        here.insert(0, price <= below)
        cost.insert(0, np.where(here[0], price, below))
    return cost, here


def _summed_to_root(pyramid: Pyramid, values: np.ndarray, level: int):
    """Total of level-`level` cube values, summed one level at a time; one
    total per row of a (T, m) stack."""
    for up in range(level, 0, -1):
        values = pyramid.sum_up(up, values)
    return values.sum(axis=-1)


def dyadic_cover_cost(cells: CellSet, h: Gauge, min_level: int = 0) -> CoverSolution:
    """Exact optimal cover cost of `cells` with cover cubes at levels >= min_level."""
    if min_level < 0 or min_level > cells.depth:
        raise InvalidInputError(f"min_level {min_level} must lie in [0, depth={cells.depth}]")
    pyramid = cells.pyramid()
    cost, here = _cover_dp(cells, h)

    # the cover: the first cube on each branch, from min_level down, covered by itself
    levels, rows = pyramid.topmost([here[level] & (level >= min_level) for level in range(cells.depth + 1)])
    order = np.lexsort((*rows.T[::-1], levels))  # by level, then index
    cover = tuple(DyadicCube(cells.n, level, idx) for level, idx in zip(levels[order].tolist(), rows[order].tolist()))
    return CoverSolution(float(_summed_to_root(pyramid, cost[min_level], min_level)), cover, min_level)


def content(cells: CellSet, h: Gauge, selected=None):
    """h-content: unconstrained optimal dyadic cover cost (min_level = 0) of the cells
    that the boolean array `selected` marks, in ``cells.rows`` order; None marks all.

    A (T, N) boolean `selected` prices T subsets in one DP pass and gives a
    (T,) array, each entry bit for bit the float of its row's 1-D call."""
    if selected is not None:
        try:
            selected = np.asarray(selected)
        except ValueError as exc:  # a ragged nested list
            raise InvalidInputError(f"selected is not an array: {exc}") from exc
        if selected.dtype != bool or selected.ndim not in (1, 2) or selected.shape[-1] != len(cells):
            raise InvalidInputError(f"selected must be a boolean array, or a stack of them, over {len(cells)} cells")
    total = _summed_to_root(cells.pyramid(), _cover_dp(cells, h, selected)[0][0], 0)
    return total if total.ndim else float(total)


def measure_profile(cells: CellSet, h: Gauge) -> list[float]:
    """Cover costs for min_level = 0..depth; nondecreasing since shrinking the
    admissible cube sizes only removes covers.  One DP serves every entry."""
    pyramid = cells.pyramid()
    cost, _ = _cover_dp(cells, h)
    return [float(_summed_to_root(pyramid, cost[level], level)) for level in range(cells.depth + 1)]
