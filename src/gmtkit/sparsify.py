"""Sparse measure extraction, sparsity certificates, and hole witnesses.

An l-sparse set confines itself, at each certified scale l_j, to a single
level-(l_j + ell) subcube inside every level-l_j cube it meets.  Such sets
carry holes: on every affine k-plane section through a point of the set
there is a point at definite distance (a fixed multiple of 2^-l_j) from the
union of the selected subcubes, which is the quantitative obstruction to
touching a rectifiable curve or surface in positive measure.

``build_sparse_measure`` runs the scale-by-scale reduction: given an input
measure with cube masses dominated by a gauge h whose ratio h(r)/r^k decays,
it picks certified levels l_j where h(diam)/diam^k <= 2^(-n*j*ell), and inside
every occupied level-l_j cube moves all mass onto one maximal-mass
level-(l_j + ell) subcube (lexicographic tie-break), rescaled so cube masses
at levels <= l_j are preserved exactly.

Every stage is a :class:`~gmtkit.frostman.SparseMeasure`, the measure type
of :mod:`gmtkit.frostman`, which this module re-exports; stage 0 is the
(normalized) input measure itself.  A scale that acts on territory that was
uniform at selection time adds a window instead of enumerating cells.
Constructions whose input is fully explicit never create windows and return
an ordinary :class:`~gmtkit.frostman.CellMeasure`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import sqrt

import numpy as np

from gmtkit.errors import DepthBudgetError, InvalidInputError, VerificationError
from gmtkit.frostman import CAP_TOLERANCE, CellMeasure, SparseMeasure, _worst_ratio
from gmtkit.gauge import Gauge, unit_ball_volume
from gmtkit.lattice import (
    MAX_LEVEL,
    CellSet,
    box_distances,
    group_rows,
    index_rows,
    level_diameter,
    locate,
    pack,
)
from gmtkit.utils import Table, exact_int, exact_ints, finite_floats, load_json, write_canonical

PRESERVE_TOL = 1e-12
HOLE_BLOCK = 1 << 13  # (point, box) pairs or swept cubes per array pass of the hole search
WITNESS_BLOCK = 256  # witness samples per hole search


# ---------------------------------------------------------------------------
# planes and frames


@dataclass(frozen=True)
class AffinePlane:
    """Affine k-plane: base point plus k orthonormal direction rows."""

    base: np.ndarray
    frame: np.ndarray

    def __post_init__(self):
        base = finite_floats(self.base, "base point coordinates must be finite").copy()
        frame = finite_floats(self.frame, "frame rows must be orthonormal to 1e-10").copy()
        if frame.ndim != 2 or base.ndim != 1 or frame.shape[1] != base.shape[0]:
            raise InvalidInputError("frame must be (k, n) with a length-n base point")
        gram = frame @ frame.T
        if not np.abs(gram - np.eye(frame.shape[0])).max(initial=0.0) <= 1e-10:
            raise InvalidInputError("frame rows must be orthonormal to 1e-10")
        base.setflags(write=False)
        frame.setflags(write=False)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "frame", frame)

    @property
    def k(self) -> int:
        return self.frame.shape[0]

    @property
    def n(self) -> int:
        return self.frame.shape[1]

    def points(self, coords: np.ndarray) -> np.ndarray:
        return self.base + np.atleast_2d(coords) @ self.frame


def _orthonormal_frames(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The columns of each matrix of an (m, n, k) stack, orthonormalized by
    one batched QR with Q's columns sign-fixed so that R's diagonal is
    nonnegative, as (m, k, n) frames; and whether each matrix is of full
    rank, min |diag R| >= 1e-12.  Gaussian matrices give Haar-random frames.
    Batched QR runs the per-matrix LAPACK kernel on each matrix, so each
    frame has the bits a QR of its matrix alone gives."""
    q, r = np.linalg.qr(mats)
    diag = np.diagonal(r, axis1=1, axis2=2)
    signs = np.where(diag >= 0.0, 1.0, -1.0)
    return np.swapaxes(q * signs[:, None, :], 1, 2), np.abs(diag).min(axis=1) >= 1e-12


# ---------------------------------------------------------------------------
# sparsity parameter


def min_sparsity_parameter(n: int, k: int, alpha_mode: str = "ball-bound") -> int:
    """Smallest ell with 3^n * 2^(-ell*k) * alpha < omega_k * 2^-k.

    alpha bounds the k-area a k-plane can cut out of a unit cube:
    'ball-bound' uses omega_k * (sqrt(n)/2)^k (the slice sits inside a ball of
    the circumscribed radius), 'exact-diagonal' uses the tight diagonal length
    sqrt(n), available for k = 1 only.
    """
    if not 1 <= k < n:
        raise InvalidInputError(f"need 1 <= k < n, got k={k}, n={n}")
    if alpha_mode == "exact-diagonal":
        if k != 1:
            raise InvalidInputError("exact-diagonal alpha is only available for k = 1")
        alpha = sqrt(n)
    elif alpha_mode == "ball-bound":
        alpha = unit_ball_volume(k) * (sqrt(n) / 2.0) ** k
    else:
        raise InvalidInputError(f"unknown alpha_mode {alpha_mode!r}")
    rhs = unit_ball_volume(k) * 2.0 ** (-k)
    for ell in range(1, 200):
        if 3 ** n * 2.0 ** (-ell * k) * alpha < rhs:
            return ell
    raise VerificationError("sparsity parameter search did not terminate")


# ---------------------------------------------------------------------------
# certificates


class ScaleFamily:
    """Selections for one certified scale: explicit pairs, optionally extended
    by the lexicographic-first rule over territory that was uniform at
    selection time (``pattern``).

    ``cubes`` holds the level-`level` cubes with an explicit selection as a
    read-only (m, n) int64 table in lexicographic order, and ``selections``
    the level-(`level` + `ell`) subcube each one selects, in the same order;
    ``pairs``, the same selections as a dict, is built on first use.
    """

    def __init__(self, level: int, ell: int, pairs, pattern: bool = False):
        """`pairs`: a dict from cube index tuples to selected subcube index
        tuples, or a pair of the cubes' and the selections' index rows."""
        if not 0 <= level <= level + ell <= MAX_LEVEL:
            raise InvalidInputError(f"scale {level} with gap {ell} leaves the levels [0, {MAX_LEVEL}]")
        cubes, given = (list(pairs), list(pairs.values())) if isinstance(pairs, dict) else pairs
        n = np.shape(cubes[:1])[-1] or 1  # the first cube's length (1 for none), checked against every row
        cubes, inverse = group_rows(index_rows(cubes, n, level))
        if len(cubes) < len(inverse):
            raise InvalidInputError(f"cube {cubes[np.bincount(inverse).argmax()].tolist()} has more than one selection")
        selections = np.empty_like(cubes)
        selections[inverse] = index_rows(given, n, level + ell)
        outside = (selections >> ell != cubes).any(axis=1)
        if outside.any():
            q, sel = cubes[outside][0].tolist(), selections[outside][0].tolist()
            raise InvalidInputError(f"selected cube {sel} not inside {q} at gap {ell}")
        self.level, self.ell, self.pattern = level, ell, bool(pattern)
        self.cubes, self.selections = cubes, selections
        for table in (cubes, selections):
            table.setflags(write=False)

    @cached_property
    def pairs(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        return dict(zip(map(tuple, self.cubes.tolist()), map(tuple, self.selections.tolist())))

    @cached_property
    def _packed(self) -> np.ndarray:
        return pack(self.cubes, self.level)

    def selected(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For each level-`level` cube of the (m, n) array `rows`: whether it
        has a selection, and the selected subcube's index row (meaningless
        where it has none)."""
        pos = locate(self._packed, self.level, rows)
        hit = pos >= 0
        sel = rows << self.ell  # the lexicographically first subcube, which `pattern` selects
        sel[hit] = self.selections[pos[hit]]
        return hit | self.pattern, sel


@dataclass(frozen=True)
class SparsityCertificate:
    n: int
    ell: int
    scales: tuple[int, ...]
    families: tuple[ScaleFamily, ...]

    def __post_init__(self):
        scales = tuple(exact_ints(self.scales, "scales must be integers").tolist())
        object.__setattr__(self, "scales", scales)
        if self.ell < 1:
            raise InvalidInputError(f"ell must be >= 1, got {self.ell}")
        if not scales:
            raise InvalidInputError("a certificate needs at least one scale")
        for a, b in zip(scales, scales[1:]):
            if b < a + self.ell:
                raise InvalidInputError(f"scales {a}, {b} closer than ell = {self.ell}")
        if len(self.families) != len(scales):
            raise InvalidInputError("one family per scale required")
        for fam, lvl in zip(self.families, scales):
            if fam.level != lvl or fam.ell != self.ell:
                raise InvalidInputError("family levels must match the scale list")
            if len(fam.cubes) and fam.cubes.shape[1] != self.n:
                raise InvalidInputError(f"scale {lvl} selects cubes of {fam.cubes.shape[1]} indices, not n = {self.n}")

    def to_json_obj(self) -> dict:
        fams = [
            {"scale": fam.level, "pairs": Table(fam.cubes, fam.selections)}
            | ({"pattern": "lex-first"} if fam.pattern else {})
            for fam in self.families
        ]
        return {"n": self.n, "ell": self.ell, "scales": list(self.scales), "families": fams}

    @staticmethod
    def from_json_obj(obj: dict) -> "SparsityCertificate":
        bad = "malformed certificate object: n, ell and each scale must be integers"
        try:
            ell, n = exact_int(obj["ell"], bad), exact_int(obj["n"], bad)
            fams = []
            for entry in obj["families"]:
                pairs = tuple(zip(*entry["pairs"], strict=True)) or ((), ())  # (cubes, selections)
                fams.append(ScaleFamily(exact_int(entry["scale"], bad), ell, pairs, entry.get("pattern") == "lex-first"))
            return SparsityCertificate(n, ell, obj["scales"], tuple(fams))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"malformed certificate object: {exc}") from exc

    def save(self, path) -> None:
        write_canonical(path, self.to_json_obj())

    @staticmethod
    def load(path) -> "SparsityCertificate":
        return SparsityCertificate.from_json_obj(load_json(path))


def check_sparse(cells: CellSet, cert: SparsityCertificate) -> bool:
    """Does every cell sit inside the selected subcube at every certified scale?"""
    if cells.n != cert.n:
        raise InvalidInputError(f"dimension mismatch: cells n={cells.n}, certificate n={cert.n}")
    if cert.scales[-1] + cert.ell > cells.depth:
        raise InvalidInputError(
            f"certificate reaches level {cert.scales[-1] + cert.ell} below cell depth {cells.depth}"
        )
    return bool(_follows(cert, np.full(len(cells), cells.depth), cells.rows).all())


def _follows(cert: SparsityCertificate, levels: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Does each cube, row i of the (m, n) index array `rows` at level
    `levels[i]`, sit inside the selected subcube at every certified scale
    whose selection level is at most its level?"""
    ok = np.ones(len(rows), dtype=bool)
    for fam in cert.families:
        deep = np.flatnonzero(levels >= fam.level + fam.ell)
        shift = (levels[deep] - fam.level)[:, None]
        found, sel = fam.selected(rows[deep] >> shift)
        ok[deep] &= found & (rows[deep] >> (shift - fam.ell) == sel).all(axis=1)
    return ok


# ---------------------------------------------------------------------------
# the construction


@dataclass(frozen=True)
class SparseConstruction:
    """Full record of one sparse-measure construction, stage by stage."""

    base: CellMeasure  # normalized input
    h_label: str
    k: int
    ell: int
    stages: tuple[SparseMeasure, ...]  # stages[0] is `base`, stages[j] the measure after scale j
    certificate: SparsityCertificate
    normalized: bool
    norm_constant: float  # B = max(1, 1/original total)
    original_total: float
    selection_ratios: tuple[float, ...]  # per scale: min over cubes of sel_mass*2^(n ell)/cube_mass

    @property
    def result(self) -> SparseMeasure:
        return self.stages[-1]

    def result_measure(self):
        """CellMeasure when the run stayed fully explicit, else the lazy form."""
        out = self.result
        return out.to_cell_measure() if out.is_explicit() else out

    @cached_property
    def _views(self) -> tuple["ScaleFamilyView", ...]:
        """Occupancy plus selection per certified scale, built on first use."""
        cert = self.certificate
        return tuple(
            ScaleFamilyView(
                self.base.n, level, cert.ell, lambda rows, stage=stage, level=level: stage._lookup(level, rows)[0],
                fam.selected,
            )
            for level, stage, fam in zip(cert.scales, self.stages, cert.families)
        )


def _power_ratios(h: Gauge, k: int, n: int, depth: int) -> list[float]:
    """h(diam)/diam^k on the cube diameters of levels 0..depth."""
    return [h(d) / d**k for d in (level_diameter(n, l) for l in range(depth + 1))]


def certified_scales(h: Gauge, k: int, n: int, ell: int, depth: int) -> list[int]:
    """Levels passing the scale rule h(diam)/diam^k <= 2^(-n*j*ell), spaced >= ell.

    The rule must hold at every level from the chosen one down to `depth`,
    so the suffix maximum of the ratio sequence is what gets compared.
    """
    suffix = _power_ratios(h, k, n, depth)
    for l in range(depth - 1, -1, -1):
        suffix[l] = max(suffix[l], suffix[l + 1])

    scales: list[int] = []
    j = 1
    lmin = 0
    while True:
        thresh = 2.0 ** (-n * j * ell)
        found = next((l for l in range(lmin, depth + 1) if suffix[l] <= thresh), None)
        if found is None:
            if j == 1:
                raise VerificationError(
                    f"gauge {h.label} never drops below the first scale threshold "
                    f"2^-{n * ell} within depth {depth}; it fails the vanishing requirement",
                    stage="sparsify",
                )
            break
        if found + ell > depth:
            if j == 1:
                raise DepthBudgetError(
                    f"first certified scale needs depth {found + ell}, have {depth}",
                    required_depth=found + ell,
                )
            break
        scales.append(found)
        lmin = found + ell
        j += 1
    return scales


def _apply_scale(stage: SparseMeasure, level: int, ell: int) -> tuple[tuple, bool, tuple, float]:
    """One reduction step; returns (new nodes as a (levels, rows, masses)
    triple, window added, (cubes, selections), min selection ratio).

    The groups are the level-`level` cubes of the stage's pyramid.  Their
    candidates are the level-(`level` + ell) cubes of the pyramid and the
    first subcube of each node between the two levels: all subcubes of such
    a node tie, so only the lexicographically first can win.  Each group
    keeps its heaviest candidate, the lexicographically first on a tie.
    """
    n, sel_level = stage.n, level + ell
    pyramid, sums = stage._level_sums
    levels, rows, w = stage.levels, stage.rows, stage.weights
    mid = np.flatnonzero((levels >= level) & (levels < sel_level))
    drop = sel_level - levels[mid]
    cands = np.concatenate([pyramid.cubes[sel_level], rows[mid] << drop[:, None]])
    mass = np.concatenate([sums[sel_level], w[mid] * 2.0 ** (-n * drop)])
    group = pyramid.locate(level, cands >> ell)
    order = np.lexsort((*cands.T[::-1], -mass, group))
    best = order[np.diff(group[order], prepend=-1) > 0]  # per group, its first candidate in `order`
    q_mass = sums[level]

    coarse = np.flatnonzero(levels < level)  # nodes above the scale stay as they are
    # nodes inside a winning pyramid cube are scaled up to their group's mass
    fine = np.flatnonzero(levels >= sel_level)
    held = pyramid.locate(sel_level, rows[fine] >> (levels[fine] - sel_level)[:, None])
    kept = best[group[held]] == held
    scaled = w[fine[kept]] * (q_mass / mass[best])[group[held[kept]]]
    # a winning node coarser than the selection level becomes uniform on its
    # first subcube, keeping its group's whole mass
    grown = np.flatnonzero(best >= len(pyramid.cubes[sel_level]))
    nodes = (
        np.concatenate([levels[coarse], levels[fine[kept]], np.full(len(grown), sel_level)]),
        np.concatenate([rows[coarse], rows[fine[kept]], cands[best[grown]]]),
        np.concatenate([w[coarse], scaled, q_mass[grown]]),
    )
    min_ratio = float((mass[best] * 2.0 ** (n * ell) / q_mass).min(initial=float("inf")))
    return nodes, bool(len(coarse)), (pyramid.cubes[level], cands[best]), min_ratio


def build_sparse_construction(
    measure: CellMeasure,
    h: Gauge,
    k: int,
    ell: int,
) -> SparseConstruction:
    if ell < 1:
        raise InvalidInputError(f"ell must be >= 1, got {ell}")
    if not 1 <= k < measure.n:
        raise InvalidInputError(f"need 1 <= k < n, got k={k}, n={measure.n}")
    original_total = measure.total
    if original_total <= 0:
        raise InvalidInputError("cannot sparsify the zero measure")
    normalized = abs(original_total - 1.0) > 1e-12
    base = measure.normalized() if normalized else measure
    n, depth = base.n, base.depth

    scales = certified_scales(h, k, n, ell, depth)
    # certified_scales raised if not even one scale fits

    windows: list[tuple[int, int]] = []
    stages: list[SparseMeasure] = [base]
    families: list[ScaleFamily] = []
    sel_ratios: list[float] = []
    for level in scales:
        nodes, window_added, pairs, min_ratio = _apply_scale(stages[-1], level, ell)
        if window_added:
            windows.append((level, ell))
        families.append(ScaleFamily(level, ell, pairs, pattern=window_added))
        sel_ratios.append(min_ratio if min_ratio != float("inf") else 1.0)
        stages.append(SparseMeasure(n, depth, nodes, tuple(windows))._share(stages[-1]))

    cert = SparsityCertificate(n, ell, tuple(scales), tuple(families))
    return SparseConstruction(
        base=base,
        h_label=h.label,
        k=k,
        ell=ell,
        stages=tuple(stages),
        certificate=cert,
        normalized=normalized,
        norm_constant=max(1.0, 1.0 / original_total),
        original_total=original_total,
        selection_ratios=tuple(sel_ratios),
    )


def build_sparse_measure(measure: CellMeasure, h: Gauge, k: int, ell: int):
    """Convenience wrapper: returns just (sparse measure, certificate).

    The measure is a plain CellMeasure whenever the construction stayed fully
    explicit, otherwise the lazy antichain form.
    """
    cons = build_sparse_construction(measure, h, k, ell)
    return cons.result_measure(), cons.certificate


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class SparseReport:
    passed: bool
    coarse_drift: float  # worst relative drift of cube masses at levels <= l_j
    cap_ratio_h: float  # max mass(Q) / (B * 2^(j n ell) h(diam Q))
    cap_ratio_k: float  # max mass(Q) / (B * C0 * diam(Q)^k)
    min_selection_ratio: float  # min mass(Q') * 2^(n ell) / mass(Q)
    c_zero_side: float  # C0: max of h(diam)/diam^k over the working grid
    norm_constant: float  # B
    rescale_constant: float  # B * C0; dividing masses by it yields mass <= diam^k
    total_drift: float
    support_nested: bool
    certificate_ok: bool


def verify_sparse_construction(cons: SparseConstruction, h: Gauge, sample_cells: int = 256, seed: int = 0) -> SparseReport:
    """Check preservation, caps, selection bounds, and certificate consistency.

    Both cap ratios at a level are set by its heaviest cube, which each
    stage reads from `SparseMeasure._peaks` for every level down to the
    declared depth.
    """
    n = cons.base.n
    depth = cons.base.depth
    ell = cons.ell
    cert = cons.certificate
    c0_side = max([1.0, *_power_ratios(h, cons.k, n, depth)])
    B = cons.norm_constant

    # coarse-mass preservation at levels <= l_j, stage against previous stage
    drift = 0.0
    for j, level in enumerate(cert.scales, start=1):
        prev, cur = cons.stages[j - 1], cons.stages[j]
        (prev_pyr, prev_sums), (cur_pyr, cur_sums) = prev._level_sums, cur._level_sums
        for l in range(level + 1):
            if not np.array_equal(prev_pyr.cubes[l], cur_pyr.cubes[l]):
                # masses are positive, so a cube only one stage holds drifts by |m - 0| / m = 1
                drift = 1.0
                continue
            a, b = prev_sums[l], cur_sums[l]
            denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
            drift = max(drift, float((np.abs(a - b) / denom).max(initial=0.0)))
        for a, e in cur.windows:
            if a < level and (a, e) not in prev.windows:
                raise VerificationError("window appeared above the active scale", stage="sparsify")

    # caps: mass(Q) <= B * min(2^(j n ell) h(diam Q), C0 diam^k) for stage j
    h_at = [h(level_diameter(n, lvl)) for lvl in range(depth + 1)]
    k_caps = [B * c0_side * level_diameter(n, lvl) ** cons.k for lvl in range(depth + 1)]
    ratio_h = ratio_k = 0.0
    for j, sm in enumerate(cons.stages):
        amp = 2.0 ** (n * ell * j)
        ratio_h = max(ratio_h, _worst_ratio(sm._peaks, [B * amp * cap for cap in h_at], f"gauge {h.label}", "sparsify")[0])
        ratio_k = max(ratio_k, _worst_ratio(sm._peaks, k_caps, f"cap B * C0 * diam^{cons.k}", "sparsify")[0])

    # support nesting: every node of stage j sits inside stage j-1's support
    stages = zip(cons.stages, cons.stages[1:])
    nested = all(prev._lookup(t, rows)[0].all() for prev, cur in stages for t, rows, _, _ in cur._node_runs)

    # certificate consistency: nodes follow their recorded selections, and a
    # sampled set of support cells passes the public check
    cert_ok = bool(_follows(cert, cons.result.levels, cons.result.rows).all())
    deepest = cert.scales[-1] + ell
    if deepest <= depth and sample_cells > 0:
        sampled = cons.result.support_sample_cells(deepest, sample_cells, np.random.default_rng(seed))
        if not check_sparse(sampled, cert):
            cert_ok = False

    total_drift = max(abs(sm.total - 1.0) for sm in cons.stages)
    min_sel = min(cons.selection_ratios) if cons.selection_ratios else 1.0
    passed = (
        drift <= PRESERVE_TOL
        and ratio_h <= 1.0 + CAP_TOLERANCE
        and ratio_k <= 1.0 + CAP_TOLERANCE
        and min_sel >= 1.0 - 1e-12  # best subcube never beaten by the cube average
        and total_drift <= 1e-9
        and nested
        and cert_ok
    )
    return SparseReport(
        passed=passed,
        coarse_drift=drift,
        cap_ratio_h=ratio_h,
        cap_ratio_k=ratio_k,
        min_selection_ratio=min_sel,
        c_zero_side=c0_side,
        norm_constant=B,
        rescale_constant=B * c0_side,
        total_drift=total_drift,
        support_nested=nested,
        certificate_ok=cert_ok,
    )


# ---------------------------------------------------------------------------
# holes


@dataclass(frozen=True)
class ScaleFamilyView:
    """Occupancy plus selection for one certified scale."""

    n: int
    level: int
    ell: int
    occupied: object  # callable: (m, n) array of level indices -> boolean array
    selected: object  # callable: (m, n) array of level indices -> (has-selection mask, selected index rows)


def scale_family_view(source, scale_index: int) -> ScaleFamilyView:
    """Build the view for scale `scale_index` (0-based) from a construction or
    from an explicit certificate (whose pairs enumerate the occupied cubes)."""
    if isinstance(source, SparseConstruction):
        return source._views[scale_index]
    if isinstance(source, SparsityCertificate):
        fam = source.families[scale_index]
        if fam.pattern:
            raise InvalidInputError(
                "pattern certificates do not enumerate occupied cubes; pass the construction"
            )
        return ScaleFamilyView(source.n, fam.level, source.ell, lambda rows: fam.selected(rows)[0], fam.selected)
    raise InvalidInputError(f"cannot build a family view from {type(source).__name__}")


def _section_offsets(k: int, rho: float, grid: int) -> np.ndarray:
    """Plane coordinates of a `grid`-per-axis lattice inside the closed rho-ball
    around the origin of a k-plane, in lexicographic order, as a (g, k) array.
    A centre x with frame F has the section points x + offsets @ F."""
    axis = np.linspace(-rho, rho, grid)
    t = np.stack(np.meshgrid(*[axis] * k, indexing="ij"), axis=-1).reshape(-1, k)
    return t[(t * t).sum(axis=1) <= rho * rho * (1.0 + 1e-12)]


def _as_points(y, n: int) -> np.ndarray:
    """`y`, one point or a stack of points, as a float array of shape (n,) or
    (m, n) with finite coordinates."""
    y = finite_floats(y, "point coordinates must be finite numbers")
    if y.ndim not in (1, 2) or y.shape[-1] != n:
        raise InvalidInputError(f"points must have {n} coordinates, got an array of shape {y.shape}")
    return y


def _family_boxes(view: ScaleFamilyView, x: np.ndarray, reach: np.ndarray, inner: np.ndarray):
    """(owner, lo, hi): the corners of the selected subcubes of the occupied
    level-l cubes Q with inner[i] < dist(x[i], Q) <= reach[i], for each row i
    of the (m, n) array `x`, and the row each belongs to, rows ascending.

    Each row sweeps the cubes of its own bounding box, so a sweep costs the
    sum of the rows' box sizes, never the largest box times the rows; the
    boxes' cubes go in passes of at most ``HOLE_BLOCK``."""
    n, level = view.n, view.level
    side = 2.0 ** (-level)
    scale = 1 << level
    # a cube whose upper face lies exactly at x - reach is at distance reach;
    # clipping to just outside [0, scale] keeps a far row's bounds within
    # int64 and leaves the cubes of its box as they are
    r = reach[:, None]
    lo = np.maximum(np.ceil(np.clip((x - r) * scale, -1.0, scale + 1.0)).astype(np.int64) - 1, 0)
    hi = np.minimum(np.floor(np.clip((x + r) * scale, -1.0, scale)).astype(np.int64), scale - 1)
    span = np.maximum(hi - lo + 1, 0)
    count = span.prod(axis=1)
    starts, total = np.cumsum(count) - count, int(count.sum())
    owners, kept = [np.empty(0, dtype=np.int64)], [np.empty((0, n), dtype=np.int64)]
    for a in range(0, total, HOLE_BLOCK):
        at = np.arange(a, min(a + HOLE_BLOCK, total))
        owner = np.searchsorted(starts, at, side="right") - 1
        rest = at - starts[owner]  # position in the owner's box
        cubes = np.empty((len(at), n), dtype=np.int64)
        for d in range(n - 1, -1, -1):  # the box's cubes in lexicographic order, first index slowest
            rest, digit = np.divmod(rest, span[owner, d])
            cubes[:, d] = lo[owner, d] + digit
        corner = cubes * side
        gap = box_distances(x[owner], corner, corner + side)
        near = np.flatnonzero((gap > inner[owner]) & (gap <= reach[owner]))
        near = near[view.occupied(cubes[near])]
        owners.append(owner[near])
        kept.append(cubes[near])
    owner, cubes = np.concatenate(owners), np.concatenate(kept)
    found, selected = view.selected(cubes)
    sub = 2.0 ** (-(level + view.ell))
    lows = selected[found] * sub
    return owner[found], lows, lows + sub


def distance_to_family(view: ScaleFamilyView, y) -> float | np.ndarray:
    """Exact distance from y to the union of selected subcubes at this scale
    (infinite when the scale selects none): a float for one point of shape
    (n,), an (m,) array for m points of shape (m, n).

    Each point sweeps the cubes within a radius of it, doubling the radius
    until the nearest subcube found lies within it; every sweep takes all
    points still open at once."""
    y = _as_points(y, view.n)
    pts = y.reshape(-1, view.n)
    side = 2.0 ** (-view.level)
    cap = 4.0 * sqrt(view.n) + 4.0 * side
    best = np.full(len(pts), np.inf)
    radius = np.full(len(pts), 2.0 * side)
    seen = np.full(len(pts), -1.0)
    rows = np.arange(len(pts))  # the points still open
    while len(rows):
        owner, lo, hi = _family_boxes(view, pts[rows], radius[rows], seen[rows])
        np.minimum.at(best, rows[owner], box_distances(pts[rows[owner]], lo, hi))
        # every unexamined family cube is farther than the point's radius
        rows = rows[(best[rows] > radius[rows]) & (radius[rows] <= cap)]
        seen[rows] = radius[rows]
        radius[rows] *= 2.0
    return float(best[0]) if y.ndim == 1 else best


def _clearances(points: np.ndarray, owner: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per point of the (m, g, n) array `points`, the distance to the nearest
    box of its row (infinite where the row has none): box j, with corners
    lo[j] and hi[j], belongs to row owner[j], rows ascending.  Boxes go in
    passes of at most ``HOLE_BLOCK`` (point, box) pairs."""
    m, g, _ = points.shape
    out = np.full((m, g), np.inf)
    step = min(g, HOLE_BLOCK)  # points per pass
    per = HOLE_BLOCK // step  # boxes per pass
    for s in range(0, g, step):
        for a in range(0, len(owner), per):
            rows = owner[a : a + per]
            d = box_distances(points[rows, s : s + step], lo[a : a + per, None], hi[a : a + per, None])
            first = np.flatnonzero(np.diff(rows, prepend=-1))  # each row's first box in the pass
            here = rows[first]
            out[here, s : s + step] = np.minimum(out[here, s : s + step], np.minimum.reduceat(d, first, axis=0))
    return out


@dataclass(frozen=True)
class HoleWitness:
    point: tuple[float, ...]
    clearance: float
    scale_level: int


def find_hole(
    source,
    scale_index: int,
    x,
    plane,
    c_target: float,
    grid: int = 16,
) -> HoleWitness | None | tuple[HoleWitness | None, ...]:
    """Search the k-plane section through x at one certified scale for a point
    at distance >= c_target * 2^-l_j from the union of selected subcubes.

    The grid covers (x + plane) intersected with the closed ball of radius
    2^-(l_j + 1) around x, at `grid` points per plane axis.  Returns the first
    grid point of largest clearance when it clears the target, otherwise None.
    When the scale selects no subcube at all, every clearance is infinite and
    the first grid point is returned.

    `x` is one centre, shape (n,), with one AffinePlane, or m centres, shape
    (m, n), with a sequence of m planes of one dimension k; the latter returns
    a tuple of m results.  Each plane must be based at its centre.  All
    centres go through one array pass: one distance sweep, one sweep of the
    cubes within reach, and their section grids scored against their own
    subcubes.
    """
    if grid < 8:
        raise InvalidInputError(f"grid must be >= 8, got {grid}")
    view = scale_family_view(source, scale_index)
    x = _as_points(x, view.n)
    planes = tuple(plane) if x.ndim == 2 and isinstance(plane, (list, tuple)) else (plane,)
    centres = x.reshape(-1, view.n)
    if len(planes) != len(centres):
        raise InvalidInputError(f"{len(centres)} centres need as many planes, got {len(planes)}")
    if not planes:
        return ()
    if not all(isinstance(p, AffinePlane) and p.frame.shape == (planes[0].k, view.n) for p in planes):
        raise InvalidInputError(f"planes must be AffinePlanes of one dimension in R^{view.n}")
    bases = np.array([p.base for p in planes])
    moved = np.flatnonzero((bases != centres).any(axis=1))
    if len(moved):
        i = int(moved[0])
        raise InvalidInputError(f"plane {i} is based at {bases[i].tolist()}, not at its centre {centres[i].tolist()}")
    rho = 2.0 ** (-(view.level + 1))
    offsets = _section_offsets(planes[0].k, rho, grid)
    points = centres[:, None, :] + offsets @ np.array([p.frame for p in planes])
    # a grid point y has |y - x| <= rho and d(y) <= d(x) + rho, so the subcube
    # nearest y lies within d(x) + 2 rho of x; the factor absorbs rounding
    reach = (distance_to_family(view, centres) + 2.0 * rho) * (1.0 + 1e-9)
    swept = np.flatnonzero(reach < float("inf"))
    owner, lo, hi = _family_boxes(view, centres[swept], reach[swept], np.full(len(swept), -1.0))
    clearance = _clearances(points, swept[owner], lo, hi)
    best = clearance.argmax(axis=1)
    top = clearance[np.arange(len(centres)), best].tolist()
    target = c_target * 2.0 ** (-view.level)
    found = tuple(
        None if c < target else HoleWitness(tuple(points[i, b].tolist()), c, view.level)
        for i, (b, c) in enumerate(zip(best.tolist(), top))
    )
    return found[0] if x.ndim == 1 else found


@dataclass(frozen=True)
class C0Estimate:
    value: float
    trials: int
    grid: int
    ell: int
    n: int
    k: int
    below_threshold: bool  # ell smaller than the certified sparsity parameter


def estimate_c0(ell: int, n: int, k: int, trials: int = 2000, grid: int = 24, seed: int = 0) -> C0Estimate:
    """Empirical clearance constant at unit scale.

    Each trial draws a Haar k-frame and one admissible obstacle family: a
    single level-ell subcube inside each of the 3^n unit cubes around the
    unit cube [0, 1)^n.  Offsets cycle through independent placements,
    translation-correlated placements, and the all-zero corner pattern, so the
    lattice-like families emitted by the construction are represented.  The
    center x is uniform in the central cube's selected subcube, as witness
    centers are support points, which lie in selected subcubes.  The estimate
    is the worst best-clearance over all trials, achieved on a grid of `grid`
    points per plane axis inside the radius-1/2 ball around x.
    """
    if trials < 1:
        raise InvalidInputError(f"trials must be >= 1, got {trials}")
    if grid < 8:
        raise InvalidInputError(f"grid must be >= 8, got {grid}")
    if not 1 <= k < n:
        raise InvalidInputError(f"need 1 <= k < n, got k={k}, n={n}")
    if not 1 <= ell <= MAX_LEVEL:
        raise InvalidInputError(f"ell must lie in [1, {MAX_LEVEL}], got {ell}")
    rng = np.random.default_rng(seed)
    below = ell < min_sparsity_parameter(n, k, "ball-bound")
    sub = 2.0 ** (-ell)
    offsets = np.array(list(product((-1.0, 0.0, 1.0), repeat=n)))
    centre = len(offsets) // 2  # the all-zero offset
    # per trial only the generator calls, in the order of a trial's draws:
    # the unit offset, the frame's Gaussians, the subcube digits
    units, gauss = np.empty((trials, n)), np.empty((trials, n, k))
    subs = np.zeros((trials, len(offsets), n), dtype=np.int64)
    for trial in range(trials):
        units[trial] = rng.random(n)
        gauss[trial] = rng.standard_normal((n, k))
        style = trial % 3
        if style == 0:
            subs[trial] = rng.integers(0, 1 << ell, size=(len(offsets), n))
        elif style == 1:
            subs[trial] = rng.integers(0, 1 << ell, size=n)  # one placement for every unit cube
    frames = np.ascontiguousarray(_orthonormal_frames(gauss)[0])
    lows = offsets + subs * sub
    centres = lows[:, centre] + units * sub
    grid_offsets = _section_offsets(k, 0.5, grid)
    # trials in blocks of at most HOLE_BLOCK section points (one trial at
    # least) through the hole search's kernel, each trial's best clearance
    # the largest over its points of the nearest obstacle.  A section point
    # lies within 1/2 of x, and x in the central obstacle, so an obstacle
    # farther than 1 from x is never a point's nearest: each trial keeps
    # only the obstacles within 1 of x (the central one at distance 0), with
    # a margin far above the rounding of the distances
    step = max(1, HOLE_BLOCK // len(grid_offsets))
    worst = float("inf")
    for a in range(0, trials, step):
        block = slice(a, a + step)
        points = centres[block, None, :] + grid_offsets @ frames[block]
        near = box_distances(centres[block, None, :], lows[block], lows[block] + sub) <= 1.0 + 1e-9
        owner, kept = np.nonzero(near)  # rows ascending, as _clearances takes them
        lo = lows[block][owner, kept]
        worst = min(worst, float(_clearances(points, owner, lo, lo + sub).max(axis=1).min()))
    return C0Estimate(worst, trials, grid, ell, n, k, below)


@dataclass(frozen=True)
class WitnessReport:
    passed: bool
    samples: int
    c0: float
    scale_levels: tuple[int, ...]
    min_clearance: dict  # scale level -> worst clearance in units of 2^-level
    failures: tuple[tuple[int, int], ...]  # (sample index, scale level)


def _witness_draws(target, k: int, samples: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Centres, (samples, n), and k-frames, (samples, k, n), of the witness
    samples on `target`: every centre from one call of its sampler (the
    support points of a SparseConstruction's result, or `sample_points` of a
    CellMeasure or CellSet), then every frame from one (samples, n, k)
    Gaussian draw through `_orthonormal_frames`."""
    if isinstance(target, SparseConstruction):
        centres = target.result.sample_support_points(rng, samples)
    else:
        centres = target.sample_points(rng, samples)
    return centres, _orthonormal_frames(rng.standard_normal((samples, centres.shape[1], k)))[0]


def witness_unrectifiability(
    target,
    cert: SparsityCertificate | None,
    c0: float,
    samples: int = 100,
    seed: int = 0,
    grid: int = 24,
) -> WitnessReport:
    """Verify hole witnesses at every certified scale for sampled (x, plane) pairs.

    `target` supplies the points and the occupancy: a SparseConstruction
    (certificate optional, taken from it), or an explicit CellSet/CellMeasure
    together with a fully explicit certificate.
    """
    if c0 < 0:
        raise InvalidInputError(f"c0 must be nonnegative, got {c0}")
    if samples < 1:
        raise InvalidInputError(f"samples must be >= 1, got {samples}")
    if isinstance(target, SparseConstruction):
        cert = target.certificate
        source = target
        k = target.k
    elif isinstance(target, (CellSet, CellMeasure)):
        if cert is None:
            raise InvalidInputError("an explicit certificate is required with a cell target")
        source = cert
        # explicit-cell callers probe with lines; higher k needs a construction
        k = 1
    else:
        raise InvalidInputError(f"cannot witness on {type(target).__name__}")

    centres, frames = _witness_draws(target, k, samples, np.random.default_rng(seed))
    planes = [AffinePlane(centre, frame) for centre, frame in zip(centres, frames)]
    # per scale, each sample's witness or None; a search takes WITNESS_BLOCK
    # samples at a time, so that its memory does not grow with the samples
    found: list[list[HoleWitness | None]] = []
    for s_idx in range(len(cert.scales)):
        found.append([])
        for a in range(0, samples, WITNESS_BLOCK):
            block = slice(a, a + WITNESS_BLOCK)
            found[-1] += find_hole(source, s_idx, centres[block], planes[block], c0, grid)
    failures: list[tuple[int, int]] = []
    min_clear: dict[int, float] = {}
    for i in range(samples):
        for level, witnesses in zip(cert.scales, found):
            if witnesses[i] is None:
                failures.append((i, level))
                continue
            min_clear[level] = min(min_clear.get(level, float("inf")), witnesses[i].clearance / 2.0 ** (-level))
    return WitnessReport(
        passed=not failures,
        samples=samples,
        c0=c0,
        scale_levels=tuple(cert.scales),
        min_clearance=min_clear,
        failures=tuple(failures),
    )
