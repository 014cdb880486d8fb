"""Brute-force oracles, written independently of the library internals.

Everything here trades efficiency for obviousness: plain loops, explicit
enumeration, no tree tricks.  Oracles are only run on small instances.
"""

from __future__ import annotations

import json
import math
from itertools import combinations, product
from typing import Any

import numpy as np

from gmtkit.carleson import EpsilonReport, sphere_points, unit_sphere_area
from gmtkit.gauge import Gauge
from gmtkit.lattice import CellSet


def index_ancestor(index: tuple[int, ...], levels_up: int) -> tuple[int, ...]:
    return tuple(i >> levels_up for i in index)


def _diam(n: int, level: int) -> float:
    return math.sqrt(n) * 2.0 ** (-level)


def child_indices(idx: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The indices of the 2^n children of cube `idx`, in lexicographic order."""
    n = len(idx)
    return [tuple(2 * idx[i] + b[i] for i in range(n)) for b in product((0, 1), repeat=n)]


def grid_monotone(h: Gauge, levels: int = 40, n: int = 1) -> bool:
    """Is h zero at 0 and nondecreasing on the diameters sqrt(n) * 2^-j, j <= levels?"""
    values = [0.0] + [h(_diam(n, j)) for j in range(levels, -1, -1)]
    return h(0.0) == 0.0 and all(a <= b for a, b in zip(values, values[1:]))


def enumerate_cover_costs(cells: CellSet, h: Gauge, min_level: int = 0) -> float:
    """Minimum cover cost by explicit enumeration of every dyadic antichain
    cover of the occupied subtree (cube levels >= min_level).  Exponential;
    keep inputs tiny."""
    n, depth = cells.n, cells.depth
    occupied = set(cells.cells)

    def occupied_below(level: int, idx: tuple[int, ...]) -> bool:
        shift = depth - level
        lo = tuple(i << shift for i in idx)
        hi = tuple((i + 1) << shift for i in idx)
        return any(all(lo[d] <= c[d] < hi[d] for d in range(n)) for c in occupied)

    def covers(level: int, idx: tuple[int, ...]) -> list[float]:
        if not occupied_below(level, idx):
            return [0.0]
        options: list[float] = []
        if level >= min_level:
            options.append(h(_diam(n, level)))
        if level < depth:
            parts = [covers(level + 1, c) for c in child_indices(idx)]
            options.extend(sum(combo) for combo in product(*parts))
        return options

    return min(covers(0, tuple(0 for _ in range(n))))


def brute_cube_mass(masses: dict, cell_level: int, level: int, idx: tuple[int, ...]) -> float:
    """Sum of cell masses inside the level-`level` cube, by direct scan."""
    assert level <= cell_level
    shift = cell_level - level
    total = 0.0
    for cell in sorted(masses):
        if tuple(c >> shift for c in cell) == tuple(idx):
            total += masses[cell]
    return total


def brute_frostman_max_ratio(masses: dict, n: int, cell_level: int, h: Gauge) -> float:
    """Max over all cubes meeting the support of mass(Q)/h(diam Q), scanning
    every occupied ancestor at every level."""
    worst = 0.0
    for level in range(cell_level + 1):
        shift = cell_level - level
        seen = {tuple(c >> shift for c in cell) for cell in masses}
        cap = h(_diam(n, level))
        for idx in sorted(seen):
            worst = max(worst, brute_cube_mass(masses, cell_level, level, idx) / cap)
    return worst


def brute_frostman_worst(masses: dict, n: int, cell_level: int, depth: int, h: Gauge):
    """The max over every cube meeting the support, down to `depth`, of
    mass(Q)/h(diam Q), and the first cube attaining it by level, then index.
    Below `cell_level` each cell's mass is spread evenly over its subcubes,
    which are enumerated one by one."""
    worst, where = 0.0, None
    for level in range(depth + 1):
        cap = h(_diam(n, level))
        if level <= cell_level:
            shift = cell_level - level
            seen = {tuple(c >> shift for c in cell) for cell in masses}
            cube_masses = {idx: brute_cube_mass(masses, cell_level, level, idx) for idx in seen}
        else:
            below = level - cell_level
            cube_masses = {
                tuple((c << below) + o for c, o in zip(cell, offset)): mass * 2.0 ** (-n * below)
                for cell, mass in masses.items()
                for offset in product(range(1 << below), repeat=n)
            }
        for idx in sorted(cube_masses):
            if cube_masses[idx] / cap > worst:
                worst, where = cube_masses[idx] / cap, (level, idx)
    return worst, where


def brute_ball_mass(points: np.ndarray, weights: np.ndarray, x, r: float) -> float:
    """Closed-ball restricted mass with the library's boundary slack."""
    x = np.asarray(x, dtype=float)
    total = 0.0
    for p, w in zip(points, weights):
        d2 = float(((p - x) ** 2).sum())
        if d2 <= r * r * (1.0 + 1e-12):
            total += float(w)
    return total


def brute_line_fit(points: np.ndarray, weights: np.ndarray, x, r: float, angles: int = 3600):
    """Best line through the restricted barycenter by plain angle scan (n=2).

    Returns (min residual, best angle).  Upper-bounds the true optimum to
    O((pi/angles)^2) relative error.
    """
    x = np.asarray(x, dtype=float)
    sel_p, sel_w = [], []
    for p, w in zip(points, weights):
        if float(((p - x) ** 2).sum()) <= r * r * (1.0 + 1e-12):
            sel_p.append(p)
            sel_w.append(float(w))
    if not sel_p:
        raise ValueError("empty ball")
    pts = np.array(sel_p)
    wts = np.array(sel_w)
    bary = (pts * wts[:, None]).sum(axis=0) / wts.sum()
    centered = pts - bary
    best_val, best_ang = float("inf"), 0.0
    for i in range(angles):
        ang = math.pi * i / angles
        normal = np.array([-math.sin(ang), math.cos(ang)])
        val = float((wts * (centered @ normal) ** 2).sum())
        if val < best_val:
            best_val, best_ang = val, ang
    return best_val, best_ang


def brute_family_distance(cert, scale_index: int, y) -> float:
    """Distance from y to the nearest selected subcube of an explicit
    certificate's scale, by a scan over every selected subcube."""
    fam = cert.families[scale_index]
    side = 2.0 ** (-(fam.level + fam.ell))
    best = math.inf
    for sel in fam.pairs.values():
        squared = 0.0
        for c, i in zip(y, sel):
            gap = max(i * side - c, c - (i + 1) * side, 0.0)
            squared += gap * gap
        best = min(best, math.sqrt(squared))
    return best


def brute_hole(cert, scale_index: int, x, frame, c_target: float, grid: int):
    """(point, clearance) of the first section grid point of largest clearance
    through x at one scale of an explicit certificate, or None below the
    target: every point of the `grid`-per-axis lattice of plane coordinates
    in the closed 2^-(level+1)-ball, in `product` order, scored by
    `brute_family_distance`."""
    level = cert.families[scale_index].level
    rho = 2.0 ** -(level + 1)
    axis = np.linspace(-rho, rho, grid)
    best = None
    for t in product(axis.tolist(), repeat=len(frame)):
        if sum(c * c for c in t) <= rho * rho * (1.0 + 1e-12):
            y = np.asarray(x, dtype=float) + np.array(t) @ np.asarray(frame)
            clearance = brute_family_distance(cert, scale_index, y)
            if best is None or clearance > best[1]:
                best = (tuple(y.tolist()), clearance)
    return None if best[1] < c_target * 2.0 ** -level else best


def brute_c0(ell: int, n: int, k: int, trials: int, grid: int, seed: int) -> float:
    """`estimate_c0`'s value by plain loops.  Each trial makes the same
    generator calls: the centre's offset in the central subcube, the frame's
    Gaussian matrix, then the subcube digits (independent per unit cube, one
    placement for all, or none, as the trial index cycles).  Every point of
    the `grid`-per-axis section lattice in the closed 1/2-ball is scored
    against all 3^n obstacles, with no pruning."""
    rng = np.random.default_rng(seed)
    sub = 2.0**-ell
    offsets = list(product((-1.0, 0.0, 1.0), repeat=n))
    axis = np.linspace(-0.5, 0.5, grid).tolist()
    section = [t for t in product(axis, repeat=k) if sum(c * c for c in t) <= 0.25 * (1.0 + 1e-12)]
    worst = math.inf
    for trial in range(trials):
        unit = rng.random(n).tolist()
        gauss = rng.standard_normal((n, k))
        if trial % 3 == 0:
            digits = rng.integers(0, 1 << ell, size=(len(offsets), n)).tolist()
        elif trial % 3 == 1:
            digits = [rng.integers(0, 1 << ell, size=n).tolist()] * len(offsets)
        else:
            digits = [[0] * n] * len(offsets)
        q, r = np.linalg.qr(gauss)
        frame = (q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)).T.tolist()
        lows = [[o + d * sub for o, d in zip(off, dig)] for off, dig in zip(offsets, digits)]
        x = [c + u * sub for c, u in zip(lows[len(offsets) // 2], unit)]  # in the all-zero offset's subcube
        best = -math.inf
        for t in section:
            y = [x[d] + sum(t[i] * frame[i][d] for i in range(k)) for d in range(n)]
            nearest = math.inf
            for lo in lows:
                squared = 0.0
                for c, a in zip(y, lo):
                    gap = max(a - c, c - (a + sub), 0.0)
                    squared += gap * gap
                nearest = min(nearest, math.sqrt(squared))
            best = max(best, nearest)
        worst = min(worst, best)
    return worst


def brute_frame(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """A Haar-random k-frame in R^n: one QR of one (n, k) Gaussian matrix,
    each column of Q sign-fixed so that R's diagonal is nonnegative."""
    q, r = np.linalg.qr(rng.standard_normal((n, k)))
    return (q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)).T


def loop_content_beta(cells: CellSet, x, r: float, k: int, plane_grid: int = 48, t_grid: int = 12, seed: int = 0) -> float:
    """content_beta one plane at a time: each plane's distances on their own,
    its threshold rows in one `content` call of their own, the coordinate
    k-planes and then grid frames from `brute_frame`, and each refinement
    candidate from its own Gaussian draw and its own QR, accepted as soon as
    it improves on the best; one search for every (n, k)."""
    from gmtkit.content import content
    from gmtkit.gauge import power_exp_gauge

    n = cells.n
    x = np.asarray(x, dtype=float)
    centers = cells.centers()
    mask = ((centers - x) ** 2).sum(axis=1) <= r * r
    if not mask.any():
        return 0.0
    inside, centers = CellSet(n, cells.depth, cells.rows[mask]), centers[mask]
    bary = centers.mean(axis=0)
    gauge = power_exp_gauge(k, 0.0)
    ts = [r * 2.0 ** (-i) for i in range(t_grid + 1)]

    def value(frame: np.ndarray) -> float:
        y = centers - bary
        resid = y - (y @ frame.T) @ frame
        dists = np.sqrt((resid * resid).sum(axis=1))
        top = float(dists.max())
        rows = [dists > t for t in ts]
        weights = [top * top - ts[0] * ts[0]] + [hi * hi - lo * lo for hi, lo in zip(ts, ts[1:])]
        if top <= ts[0]:  # no centre beyond r: no tail segment
            rows, weights = rows[1:], weights[1:]
        acc = 0.0
        for price, weight in zip(content(inside, gauge, np.array(rows)).tolist(), weights):
            acc += price * weight
        return acc * r ** (-(k + 2))

    rng = np.random.default_rng(seed)
    frames = [np.eye(n)[list(axes)] for axes in combinations(range(n), k)]
    frames += [brute_frame(rng, n, k) for _ in range(plane_grid - len(frames))]
    values = [value(f) for f in frames]
    best = min(values)
    frame = frames[values.index(best)]
    for sigma in (0.3, 0.1, 0.03, 0.01):
        for _ in range(max(4, plane_grid // 4)):
            q, rr = np.linalg.qr((frame + sigma * rng.standard_normal((k, n))).T)
            if min(abs(np.diag(rr))) < 1e-12:
                continue
            cand = (q * np.where(np.diag(rr) >= 0.0, 1.0, -1.0)).T
            v = value(cand)
            if v < best:
                best, frame = v, cand
    return math.sqrt(max(best, 0.0))


def brute_points(draw, rng: np.random.Generator, count: int) -> np.ndarray:
    """The oracle of a library point sampler `draw(rng, count)`, a bound
    method: every cell first, by `brute_support_cells` at the depth for a
    measure's `sample_support_points`, or by one `rng.choice` with p =
    masses / sum (a CellMeasure, at its cell level) or one `rng.integers` (a
    CellSet) over the sorted cells for `sample_points`; then one
    `_brute_cell_point` per cell, in draw order."""
    target = draw.__self__
    if draw.__name__ == "sample_support_points":
        level = target.depth
        cells = brute_support_cells(target, rng, count, level).tolist()
    elif hasattr(target, "masses"):  # a CellMeasure, sampled at its cell level
        level, keys = target.cell_level, sorted(target.masses)
        w = np.array([target.masses[c] for c in keys], dtype=float)
        cells = [keys[i] for i in rng.choice(len(keys), size=count, p=w / w.sum())]
    else:
        level, keys = target.depth, sorted(target.cells)
        cells = [keys[i] for i in rng.integers(0, len(keys), size=count)]
    return np.array([_brute_cell_point(c, level, rng) for c in cells])


def loop_witness(draw, n: int, k: int, scales, hole, samples: int, seed: int):
    """(failures, min clearance items) of a witness run by a per-sample loop:
    every centre from the oracle of `draw` (`brute_points`), then a frame per
    sample (`brute_frame`), then for each sample and scale `hole(scale
    index, x, frame)`, a clearance or None; a scale level enters the min
    clearances when its first witness passes."""
    rng = np.random.default_rng(seed)
    centres = brute_points(draw, rng, samples)
    frames = [brute_frame(rng, n, k) for _ in range(samples)]
    failures, min_clear = [], {}
    for i, (x, frame) in enumerate(zip(centres, frames)):
        for s, level in enumerate(scales):
            clearance = hole(s, x, frame)
            if clearance is None:
                failures.append((i, level))
            else:
                min_clear[level] = min(min_clear.get(level, math.inf), clearance / 2.0 ** -level)
    return failures, list(min_clear.items())


def brute_follows(cert, level: int, idx: tuple[int, ...]) -> bool:
    """Does the level-`level` cube `idx` sit inside the selected subcube at
    every certified scale whose selection level is at most `level`?  One
    dict lookup per scale; a pattern family selects the first subcube of a
    cube it lists no pair for."""
    for fam in cert.families:
        if fam.level + fam.ell <= level:
            q = index_ancestor(idx, level - fam.level)
            sel = fam.pairs.get(q, tuple(i << fam.ell for i in q) if fam.pattern else None)
            if sel is None or index_ancestor(idx, level - fam.level - fam.ell) != sel:
                return False
    return True


def _in_window(windows, t: int, level: int) -> bool:
    """Is digit level `level` inside a window (a, e) opened at or below node
    level `t`, that is t <= a < level <= a + e?"""
    return any(t <= a < level <= a + e for a, e in windows)


def brute_mass_at(sm, level: int, idx: tuple[int, ...]) -> tuple[bool, float]:
    """(support membership, mass) of one level-`level` cube of a SparseMeasure
    by a loop over its nodes in (level, index) order: a node inside the cube
    adds its whole mass; a node containing the cube adds its mass halved n
    times per free level below it, and the cube lies in the support unless a
    window digit of its index is nonzero."""
    occupied, total = False, 0.0
    for t, nidx in sorted(sm.nodes):
        w = sm.nodes[(t, nidx)]
        if t >= level:
            if tuple(i >> (t - level) for i in nidx) == tuple(idx):
                occupied, total = True, total + w
        elif tuple(i >> (level - t) for i in idx) == nidx:
            fraction = 1.0
            for l in range(t + 1, level + 1):
                if not _in_window(sm.windows, t, l):
                    fraction *= 2.0 ** (-sm.n)
                elif any((i >> (level - l)) & 1 for i in idx):
                    fraction = 0.0
            occupied, total = occupied or fraction > 0.0, total + w * fraction
    return occupied, total


def brute_rollup(sm, max_level: int) -> dict:
    """Per cube at level <= `max_level` containing a node of the SparseMeasure
    `sm`, keyed (level, index), the masses of the nodes inside it added node
    by node in (level, index) order."""
    out: dict = {}
    for t, idx in sorted(sm.nodes):
        for level in range(min(t, max_level) + 1):
            key = (level, index_ancestor(idx, t - level))
            out[key] = out.get(key, 0.0) + sm.nodes[(t, idx)]
    return out


def brute_holder(nodes) -> tuple[int, tuple[int, ...]] | None:
    """The first node, in (level, index) order, whose cube contains the cube
    of another node, by comparing every pair; None when the nodes form an
    antichain.  `nodes` holds distinct (level, index tuple) keys."""
    for t, idx in sorted(nodes):
        for s, other in nodes:
            if s > t and index_ancestor(other, s - t) == tuple(idx):
                return t, tuple(idx)
    return None


def brute_apply_scale(n: int, nodes: dict, level: int, ell: int) -> tuple[dict, bool, dict, float]:
    """(new nodes, window added, pairs, min selection ratio) of one reduction
    step by a loop over the level-`level` cubes holding nodes: each such cube
    keeps its heaviest level-(level + ell) subcube, the lexicographically
    first on a tie.  Subcube masses add node by node in (level, index) order;
    a node coarser than the subcubes offers only its first subcube, with its
    mass times 2^-n per level between them.  Nodes inside the kept subcube
    are scaled to the cube's mass; a coarser node whose first subcube wins
    becomes a node on that subcube carrying the cube's mass."""
    sel_level = level + ell
    groups: dict = {}
    for t, idx in sorted(nodes):
        if t >= level:
            groups.setdefault(tuple(i >> (t - level) for i in idx), []).append((t, idx, nodes[(t, idx)]))
    new_nodes = {key: w for key, w in nodes.items() if key[0] < level}
    pairs, min_ratio = {}, math.inf
    for q in sorted(groups):
        cands: dict = {}
        q_mass = 0.0
        for t, idx, w in groups[q]:
            q_mass += w
            if t >= sel_level:
                c = tuple(i >> (t - sel_level) for i in idx)
                cands[c] = cands.get(c, 0.0) + w
            else:
                cands[tuple(i << (sel_level - t) for i in idx)] = w * 2.0 ** (-n * (sel_level - t))
        best = sorted(cands.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
        min_ratio = min(min_ratio, cands[best] * 2.0 ** (n * ell) / q_mass)
        pairs[q] = best
        for t, idx, w in groups[q]:
            if t >= sel_level and tuple(i >> (t - sel_level) for i in idx) == best:
                new_nodes[(t, idx)] = w * (q_mass / cands[best])
            elif t < sel_level and tuple(i << (sel_level - t) for i in idx) == best:
                new_nodes[(sel_level, best)] = q_mass
    return new_nodes, any(t < level for t, _ in nodes), pairs, min_ratio


def brute_sparse_caps(cons, h: Gauge) -> tuple[float, float]:
    """(cap_ratio_h, cap_ratio_k) of a sparse construction by a scan of every
    cube holding nodes (masses added node by node in (level, index) order) and
    of every level below every node, following the heaviest surviving branch:
    2^-n per free level, the whole mass inside a window."""
    n, depth, k = cons.base.n, cons.base.depth, cons.k
    c0 = max([1.0] + [h(_diam(n, level)) / _diam(n, level) ** k for level in range(depth + 1)])
    ratio_h = ratio_k = 0.0

    def visit(level: int, mass: float, amp: float) -> None:
        nonlocal ratio_h, ratio_k
        d = _diam(n, level)
        ratio_h = max(ratio_h, mass / (cons.norm_constant * amp * h(d)))
        ratio_k = max(ratio_k, mass / (cons.norm_constant * c0 * d ** k))

    for j, sm in enumerate(cons.stages):
        amp = 2.0 ** (n * cons.ell * j)
        cube_mass = {}
        for t, idx in sorted(sm.nodes):
            for level in range(t + 1):
                key = (level, tuple(i >> (t - level) for i in idx))
                cube_mass[key] = cube_mass.get(key, 0.0) + sm.nodes[(t, idx)]
        for (level, _), mass in cube_mass.items():
            visit(level, mass, amp)
        for t, idx in sorted(sm.nodes):
            value = sm.nodes[(t, idx)]
            for level in range(t + 1, depth + 1):
                if not _in_window(sm.windows, t, level):
                    value *= 2.0 ** (-n)
                visit(level, value, amp)
    return ratio_h, ratio_k


def brute_support_cells(sm, rng: np.random.Generator, count: int, level: int) -> np.ndarray:
    """Mass-weighted support cells of a SparseMeasure at `level`: one choice of
    nodes, then per level one `rng.integers(0, 2)` draw of n digits for each
    row free there (zeros inside windows), rows in pick order."""
    picks = rng.choice(len(sm.weights), size=count, p=sm.weights / sm.weights.sum())
    t, idx = sm.levels[picks], sm.rows[picks]
    cells = idx >> np.maximum(t - level, 0)[:, None] << np.maximum(level - t, 0)[:, None]
    for l in range(int(t.min(initial=level)) + 1, level + 1):
        free = np.flatnonzero([s < l and not _in_window(sm.windows, s, l) for s in t.tolist()])
        cells[free] |= rng.integers(0, 2, size=(len(free), sm.n)) << (level - l)
    return cells


def brute_support_draw(sm, rng: np.random.Generator) -> np.ndarray:
    """One mass-weighted support point of a SparseMeasure by a per-draw
    descent: a node, then n uniform digits per level below it (zeros inside a
    window), then a uniform offset inside the depth-level cell, pulled back
    inside the half-open cell when rounding lands on its upper face."""
    keys = sorted(sm.nodes)
    w = np.array([sm.nodes[key] for key in keys], dtype=float)
    t, idx = keys[rng.choice(len(keys), size=1, p=w / w.sum())[0]]
    coords = list(idx)
    for level in range(t + 1, sm.depth + 1):
        bits = [0] * sm.n if _in_window(sm.windows, t, level) else rng.integers(0, 2, size=sm.n).tolist()
        coords = [2 * c + b for c, b in zip(coords, bits)]
    return _brute_cell_point(coords, sm.depth, rng)


def _brute_cell_point(coords, level: int, rng: np.random.Generator) -> np.ndarray:
    """A uniform point of the level-`level` cell `coords`, pulled back inside
    the half-open cell when rounding lands it on the upper face."""
    side = 2.0 ** (-level)
    base = np.array(coords, dtype=float) * side
    point = base + rng.random(len(coords)) * side
    for i in range(len(coords)):
        if point[i] >= base[i] + side:
            point[i] = np.nextafter(base[i] + side, base[i])
    return point


def brute_ball_check(measure, k: int, samples: int, seed: int):
    """(constant, worst, centers, radii) of the Frostman ball check by a loop
    over each point, each level and each cube of the ball's bounding box in
    `product` order: cube masses summed into dicts cell by cell (cells in
    sorted order), a cube counted when the squared gap `np.dot(gap, gap)` is
    at most r*r, the worst ball kept under a strict `>` from 0.0."""
    n, cl = measure.n, measure.cell_level
    level_masses = [{} for _ in range(cl + 1)]
    for cell in sorted(measure.masses):
        for level in range(cl + 1):
            key = tuple(i >> (cl - level) for i in cell)
            level_masses[level][key] = level_masses[level].get(key, 0.0) + measure.masses[cell]
    rng = np.random.default_rng(seed)
    pts = list(rng.random((max(1, samples // 2), n)))
    support = sorted(measure.masses)
    for cell in support[: samples - len(pts)]:
        pts.append((np.array(cell, dtype=float) + 0.5) * 2.0 ** (-cl))
    radii = tuple(_diam(n, level) for level in range(measure.depth + 1))
    best, worst = 0.0, None
    for x in pts:
        for level, r in enumerate(radii):
            shift = max(0, level - cl)
            scale = 1 << level
            side = 1.0 / scale
            span = [
                range(max(math.floor((c - r) * scale), 0), min(math.floor((c + r) * scale), scale - 1) + 1)
                for c in x.tolist()
            ]
            total = 0.0
            for idx in product(*span):
                low = np.array(idx, dtype=float) * side
                gap = np.maximum(np.maximum(low - x, x - (low + side)), 0.0)
                if float(np.dot(gap, gap)) <= r * r:
                    mass = level_masses[level - shift].get(tuple(i >> shift for i in idx), 0.0)
                    total += mass * 2.0 ** (-n * shift)
            ratio = total / r**k
            if ratio > best:
                best, worst = ratio, (tuple(float(c) for c in x), r, ratio)
    return best, worst, len(pts), radii


def brute_miss_fractions(offsets: np.ndarray, labels: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Per normal u, the share of sphere samples the halfspace pair of u
    misses: a sample on the side u points to (dot product > 0.0) misses unless
    its label is +1, one on the other side unless its label is -1.

    The dot product is a sum of rounded Python products, whose sign need not
    be the one numpy's product gives a sample orthogonal to u up to rounding.
    So this is an oracle only away from such ties; tables rich in them are
    checked against `full_matrix_miss_fractions`."""
    fractions = []
    for u in us.tolist():
        misses = 0
        for offset, label in zip(offsets.tolist(), labels.tolist()):
            upper = sum(a * b for a, b in zip(offset, u)) > 0.0
            misses += label != (1 if upper else -1)
        fractions.append(misses / len(labels))
    return np.array(fractions)


def full_matrix_miss_fractions(offsets: np.ndarray, labels: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Miss fraction per normal from the whole (samples, normals) sign matrix
    of one product."""
    upper = offsets @ us.T > 0.0
    plus, minus = labels == 1, labels == -1
    misses = (len(labels) - np.count_nonzero(minus)) - np.count_nonzero(upper[plus], axis=0)
    return (misses + np.count_nonzero(upper[minus], axis=0)) / len(labels)


def full_matrix_epsilon_report(dp, x, r: float, normals: int, sphere_samples: int, rounds: int, seed: int) -> EpsilonReport:
    """`epsilon_report`'s search, each batch of candidates scored over every
    sample by `full_matrix_miss_fractions`."""
    x = np.asarray(x, dtype=float)
    offsets = sphere_points(dp.dim, sphere_samples)
    labels = np.asarray(dp.classify(x + r * offsets)).astype(int)
    area = unit_sphere_area(dp.dim)
    candidates = sphere_points(dp.dim, normals)
    fracs = full_matrix_miss_fractions(offsets, labels, candidates)
    best_frac, best_u = float(fracs.min()), candidates[int(np.argmin(fracs))]
    minima = [area * best_frac]
    rng = np.random.default_rng(seed)
    for rnd in range(rounds):
        perturbed = best_u + math.pi / normals * 0.5**rnd * rng.standard_normal((normals, dp.dim))
        norms = np.sqrt((perturbed * perturbed).sum(axis=1))
        norms[norms == 0.0] = 1.0
        perturbed /= norms[:, None]
        fracs = full_matrix_miss_fractions(offsets, labels, perturbed)
        if float(fracs.min()) < best_frac:
            best_frac, best_u = float(fracs.min()), perturbed[int(np.argmin(fracs))]
        minima.append(area * best_frac)
    return EpsilonReport(area * best_frac, tuple(minima), normals, sphere_samples, r)


def oracle_float(value: float) -> str:
    """A float as canonical JSON writes it: 17 significant digits, always
    with a '.' or an exponent; non-finite values are refused."""
    v = float(value)
    if math.isnan(v) or math.isinf(v):
        raise ValueError("non-finite values cannot be serialized")
    text = format(v, ".17g")
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def _oracle_encode(obj: Any, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(oracle_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        out.append("[")
        for i, item in enumerate(seq):
            if i:
                out.append(",")
            _oracle_encode(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj.keys())):
            if not isinstance(key, str):
                raise TypeError(f"canonical JSON requires string keys, got {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=True))
            out.append(":")
            _oracle_encode(obj[key], out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def oracle_dumps_canonical(obj: Any) -> str:
    """Canonical JSON one element at a time: sorted keys, every int, float and
    list entry written on its own, recursively."""
    parts: list[str] = []
    _oracle_encode(obj, parts)
    return "".join(parts)
