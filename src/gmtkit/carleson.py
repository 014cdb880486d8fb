"""Spherical two-sided halfspace deficiency coefficients.

For disjoint open sets O+ and O- in R^d and a sphere of radius r, the
coefficient is the infimum over halfspaces H through the center of

    [ H^n(S_H^+ \\ O+) + H^n(S_H^- \\ O-) ] / r^n,      n = d - 1,

where S_H^+ and S_H^- are the hemispheres cut by H.  The sphere measure is
estimated on a deterministic quasi-uniform sample set shared by all
candidate normals, which makes the minimum monotone under both normal-grid
refinement and domain enlargement.  The returned value is an upper bound on
the true infimum, tightened by local refinement rounds around the best
normal.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma, pi, sqrt

import numpy as np

from gmtkit.errors import InvalidInputError
from gmtkit.utils import ScaleProfile, exact_int, finite_floats


def unit_sphere_area(dim: int) -> float:
    """Surface area of the unit sphere in R^dim (2*pi for dim = 2)."""
    if dim < 2:
        raise InvalidInputError(f"ambient dimension must be >= 2, got {dim}")
    return 2.0 * pi ** (dim / 2.0) / gamma(dim / 2.0)


def sphere_points(dim: int, count: int) -> np.ndarray:
    """Deterministic quasi-uniform unit vectors: equal angles on the circle,
    Fibonacci points on the 2-sphere, normalized Sobol-Gaussian above."""
    if count < 1:
        raise InvalidInputError(f"count must be >= 1, got {count}")
    if dim == 2:
        theta = (np.arange(count) + 0.5) * (2.0 * pi / count)
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    if dim == 3:
        i = np.arange(count) + 0.5
        z = 1.0 - 2.0 * i / count
        rho = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
        golden = pi * (3.0 - sqrt(5.0))
        theta = golden * i
        return np.stack([rho * np.cos(theta), rho * np.sin(theta), z], axis=1)
    # scipy.stats takes about a second to import; only this branch needs it
    from scipy.special import ndtri
    from scipy.stats import qmc

    sob = qmc.Sobol(d=dim, scramble=False)
    # indices 0 and 1 are all-zeros and all-halves; both collapse to the
    # origin under the Gaussian map, so start the stream at index 2
    sob.fast_forward(2)
    u = sob.random(count)
    g = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    norms = np.sqrt((g * g).sum(axis=1))
    norms[norms == 0.0] = 1.0
    return g / norms[:, None]


@dataclass(frozen=True)
class DomainPair:
    """Two disjoint open sets given by a pure classification oracle.

    classify maps an (m, dim) array to {+1, -1, 0}: inside the plus domain,
    inside the minus domain, or neither.
    """

    dim: int
    classify: object
    label: str = "custom"

    def __post_init__(self):
        if self.dim < 2:
            raise InvalidInputError(f"ambient dimension must be >= 2, got {self.dim}")


def _plane(normal, point) -> tuple[np.ndarray, np.ndarray]:
    """The unit normal and the point of a plane, both finite, of one length."""
    normal = finite_floats(normal, "normal and point must be finite")
    point = finite_floats(point, "normal and point must be finite")
    if normal.ndim != 1 or point.shape != normal.shape:
        raise InvalidInputError(f"normal and point must be vectors of one length, got shapes {normal.shape} and {point.shape}")
    # scaling by a power of two is exact and keeps the squares below from overflowing or underflowing
    normal = np.ldexp(normal, -np.frexp(np.abs(normal).max(initial=0.0))[1])
    norm = float(np.sqrt((normal * normal).sum()))
    if norm == 0.0:
        raise InvalidInputError("normal must be nonzero")
    return normal / norm, point


def halfspace_pair(normal, point) -> DomainPair:
    normal, point = _plane(normal, point)

    def classify(pts):
        s = (np.atleast_2d(pts) - point) @ normal
        # the sign in one pass; +-0.0 and NaN compare neither way, label 0
        return (s > 0.0).astype(int) - (s < 0.0)

    return DomainPair(normal.shape[0], classify, "halfspace")


def slab_complement_pair(normal, point, gap: float) -> DomainPair:
    """Halfspace pair with a closed slab of half-width `gap` removed."""
    message = f"gap must be finite and >= 0, got {gap}"
    gap = finite_floats(gap, message)
    if gap.shape or not gap >= 0:
        raise InvalidInputError(message)
    gap = float(gap)
    normal, point = _plane(normal, point)

    def classify(pts):
        s = (np.atleast_2d(pts) - point) @ normal
        return np.where(s > gap, 1, np.where(s < -gap, -1, 0)).astype(int)

    return DomainPair(normal.shape[0], classify, "slab-complement")


def ball_pair(center, radius: float) -> DomainPair:
    """Open ball as the plus domain, exterior of its closure as the minus."""
    message = f"ball radius must be finite and positive, got {radius}"
    radius = finite_floats(radius, message)
    if radius.shape or not radius > 0:
        raise InvalidInputError(message)
    r2 = float(radius * radius)
    center = finite_floats(center, "ball center must be a finite vector")
    if center.ndim != 1:
        raise InvalidInputError(f"ball center must be a finite vector, got {center.tolist()}")

    def classify(pts):
        d2 = ((np.atleast_2d(pts) - center) ** 2).sum(axis=1)
        return (d2 < r2).astype(int) - (d2 > r2)

    return DomainPair(center.shape[0], classify, "ball")


def empty_pair(dim: int) -> DomainPair:
    def classify(pts):
        return np.zeros(np.atleast_2d(pts).shape[0], dtype=int)

    return DomainPair(dim, classify, "empty")


def polygon_pair(vertices) -> DomainPair:
    """Simple polygon in the plane: interior plus, exterior minus (crossing rule)."""
    verts = finite_floats(vertices, "polygon vertices must be finite")
    if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
        raise InvalidInputError("polygon needs >= 3 plane vertices")

    def classify(pts):
        pts = np.atleast_2d(pts)
        inside = np.zeros(pts.shape[0], dtype=bool)
        m = verts.shape[0]
        px, py = pts[:, 0], pts[:, 1]
        for i in range(m):
            x1, y1 = verts[i]
            x2, y2 = verts[(i + 1) % m]
            crosses = (y1 > py) != (y2 > py)
            with np.errstate(divide="ignore", invalid="ignore"):
                xint = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            inside ^= crosses & (px < xint)
        return np.where(inside, 1, -1).astype(int)

    return DomainPair(2, classify, "polygon")


def pair_from_json(obj: dict) -> DomainPair:
    try:
        kind = obj["kind"]
        if kind == "halfspace":
            return halfspace_pair(obj["normal"], obj["point"])
        if kind == "slab-complement":
            return slab_complement_pair(obj["normal"], obj["point"], obj["gap"])
        if kind == "ball":
            return ball_pair(obj["center"], obj["radius"])
        if kind == "empty":
            return empty_pair(exact_int(obj["dim"], "malformed domain pair object: dim must be an integer"))
        if kind == "polygon":
            return polygon_pair(obj["vertices"])
    except (KeyError, TypeError) as exc:
        raise InvalidInputError(f"malformed domain pair object: {exc}") from exc
    raise InvalidInputError(f"unknown domain pair kind {obj.get('kind')!r}")


# ---------------------------------------------------------------------------
# the coefficient


@dataclass(frozen=True)
class EpsilonReport:
    value: float
    round_minima: tuple  # running minimum after the grid and each refinement round
    normals: int
    sphere_samples: int
    radius: float


# samples per block of the scoring product: a block's (rows, normals) product
# takes at most BLOCK_ROWS * normals floats, whatever the sample count
BLOCK_ROWS = 8192
# relative and absolute widening of a refinement band, and the angle by which
# a half-circle's ends are widened in the plane: far above the d * 1e-16
# rounding error of a d-term dot product of unit vectors and of np.arctan2
BAND_MARGIN = 1e-9


def _band_reach(us: np.ndarray, centre: np.ndarray) -> float:
    """The largest distance from `centre` to a row of `us`, widened by
    BAND_MARGIN relative and absolute."""
    reach = float(np.sqrt(((us - centre) ** 2).sum(axis=1)).max())
    return reach * (1.0 + BAND_MARGIN) + BAND_MARGIN


def _upper_counts(table: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Per row of `us`, the number of rows of `table` strictly above its plane
    (dot product > 0.0), counted as integers over blocks of BLOCK_ROWS rows.

    numpy computes a product with one row or one column on its matrix-vector
    path, whose rounding differs from the matrix-matrix path's and can put an
    exact tie on the other side of the plane; so a block or a candidate set of
    one row is doubled, and every row's signs come from one kind of product
    whatever the block boundaries."""
    def two(a):
        return np.concatenate([a, a]) if len(a) == 1 else a

    m = len(us)
    ut = two(us).T
    counts = np.zeros(m, dtype=np.int64)
    for start in range(0, len(table), BLOCK_ROWS):
        block = table[start : start + BLOCK_ROWS]
        counts += np.count_nonzero((two(block) @ ut)[: len(block), :m] > 0.0, axis=0)
    return counts


def _arc_order(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The angles of the rows of a (rows, 2) table, sorted, and the order that
    sorts them.  The circle's samples are two increasing runs of angle, which
    the stable (merge) sort takes in linear time."""
    angles = np.arctan2(table[:, 1], table[:, 0])
    order = np.argsort(angles, kind="stable")
    return angles[order], order


def _arc_upper_counts(table: np.ndarray, arcs: tuple[np.ndarray, np.ndarray], us: np.ndarray) -> np.ndarray:
    """`_upper_counts` for a (rows, 2) table of unit samples, read off the
    circle from its `_arc_order`, `arcs` (see `_miss_fractions`).  Each end of
    a unit candidate's half-circle, pulled in and pushed out by BAND_MARGIN, is
    found by `searchsorted`, its turn around the circle counted as an integer.
    The rows between the pulled-in ends count without a product; the rows
    between a pulled-in and a pushed-out end go through `_upper_counts`
    against every candidate.  A candidate not of unit length (a zero one has
    angle 0 but no row above it) is scored over the whole table."""
    angles, order = arcs
    n = len(angles)
    counts = np.zeros(len(us), dtype=np.int64)
    if n == 0:
        return counts
    unit = np.abs((us * us).sum(axis=1) - 1.0) <= BAND_MARGIN
    q = pi / 2.0
    ends = np.arctan2(us[:, 1], us[:, 0])[:, None] + np.array([-q - BAND_MARGIN, -q + BAND_MARGIN, q - BAND_MARGIN, q + BAND_MARGIN])
    turns = np.floor((ends + pi) / (2.0 * pi))
    # position of each end in the angles repeated once per turn
    pos = turns.astype(np.int64) * n + np.searchsorted(angles, ends - turns * (2.0 * pi))
    counts[unit] = pos[unit, 2] - pos[unit, 1]
    for c in np.flatnonzero(unit & ((pos[:, 1] > pos[:, 0]) | (pos[:, 3] > pos[:, 2]))):
        edge = np.concatenate([np.arange(pos[c, 0], pos[c, 1]), np.arange(pos[c, 2], pos[c, 3])]) % n
        counts[c] += _upper_counts(table[order[edge]], us)[c]
    if not unit.all():
        counts[~unit] = _upper_counts(table, us)[~unit]
    return counts


def _miss_fractions(
    plus: np.ndarray,
    minus: np.ndarray,
    count: int,
    us: np.ndarray,
    centre: np.ndarray | None = None,
    arcs: list | None = None,
) -> np.ndarray:
    """Miss fraction per candidate normal, over `count` unit samples of which
    `plus` and `minus` are the +1- and -1-labelled rows.

    A sample above the plane (dot product > 0.0) misses unless its label is
    +1, one below unless it is -1, so an unlabelled sample always misses and
    enters only through the count.  The misses are counted as integers, exact,
    and divided once by `count`: the same float that the mean of the 0/1 miss
    matrix gives, whose float sum is exact too.

    With `arcs`, the `_arc_order` of `plus` and of `minus` in the plane, the
    counts are read off the circle by `_arc_upper_counts` and `centre` is not
    needed.  A unit sample at angle t lies above the plane of a unit
    candidate at angle p exactly when cos(t - p) > 0, that is when t lies in
    the open half-circle (p - pi/2, p + pi/2), modulo 2 pi.  np.arctan2 and a
    two-term dot product of unit vectors each err by a few 1e-16, and a
    sample more than BAND_MARGIN from an end of that half-circle has
    |cos(t - p)| > 0.99e-9, so the product puts it on the side its angle
    says; only the samples within BAND_MARGIN of an end go through the
    product.

    Otherwise, with `centre`, every candidate lies within reach =
    `_band_reach(us, centre)` of it.  A unit sample o with o.centre > reach
    then lies above every candidate's plane (o.u >= o.centre - |u - centre| >
    0), and one with o.centre < -reach below all of them.  The band's margin
    is far above the rounding of either product, so the computed signs agree
    too, and only the band |o.centre| <= reach goes through the (rows,
    normals) product.  A zero candidate makes reach >= 1, a band of every
    sample.
    """
    if arcs is not None:
        above = [_arc_upper_counts(table, arc, us) for table, arc in zip((plus, minus), arcs)]
    elif centre is None:
        above = [_upper_counts(table, us) for table in (plus, minus)]
    else:
        reach = _band_reach(us, centre)
        above = []
        for table in (plus, minus):
            s = table @ centre
            above.append(np.count_nonzero(s > reach) + _upper_counts(table[np.abs(s) <= reach], us))
    return ((count - len(minus)) - above[0] + above[1]) / count


def epsilon_report(
    dp: DomainPair,
    x,
    r: float,
    normals: int = 64,
    sphere_samples: int = 4096,
    rounds: int = 12,
    seed: int = 0,
) -> EpsilonReport:
    """Minimum two-sided deficiency over candidate normals, with refinement.

    All candidates are scored on one shared sample set, so the running
    minimum never increases as the candidate set grows.  Refinement rounds
    perturb the running best normal with a step that halves each round,
    starting at the grid spacing; the default round count carries the step
    below the sample resolution at 10^5 samples.  The samples are split once
    by label, and `dp.classify` must give each one a label in {-1, 0, 1}.

    In the plane each label's samples are sorted once by angle, and the grid
    and every round count the samples above a candidate by where the ends of
    its half-circle fall among those angles, since a unit sample lies above a
    unit candidate's plane exactly when their angles differ by less than
    pi/2.  Only the samples within BAND_MARGIN of an end, far above the
    rounding of np.arctan2 and of the product, go through the product, so no
    round passes over all samples.  In higher dimensions the grid is scored
    over all samples in blocks, and each round only over the band of samples
    near the best normal's plane.  See `_miss_fractions`; no (samples,
    normals) array is ever formed.
    """
    message = f"radius must be finite and positive, got {r}"
    r = finite_floats(r, message)
    if r.shape or not r > 0:
        raise InvalidInputError(message)
    r = float(r)
    if normals < 2 or sphere_samples < 8:
        raise InvalidInputError("need normals >= 2 and sphere_samples >= 8")
    x = finite_floats(x, "center must be finite")
    if x.shape != (dp.dim,):
        raise InvalidInputError(f"center must have {dp.dim} coordinates")
    offsets = sphere_points(dp.dim, sphere_samples)
    labels = np.asarray(dp.classify(x + r * offsets))
    if labels.shape != (sphere_samples,) or not np.isin(labels, (-1, 0, 1)).all():
        raise InvalidInputError(f"classify must give each of the {sphere_samples} samples one label in {{-1, 0, 1}}")
    labels = labels.astype(int)
    plus, minus, count = offsets[labels == 1], offsets[labels == -1], len(labels)
    arcs = [_arc_order(plus), _arc_order(minus)] if dp.dim == 2 else None
    area = unit_sphere_area(dp.dim)

    candidates = sphere_points(dp.dim, normals)
    fracs = _miss_fractions(plus, minus, count, candidates, arcs=arcs)
    best = int(np.argmin(fracs))
    best_frac = float(fracs[best])
    best_u = candidates[best]
    minima = [area * best_frac]

    base_step = pi / normals
    rng = np.random.default_rng(seed)
    for rnd in range(rounds):
        sigma = base_step * 0.5 ** rnd
        perturbed = best_u + sigma * rng.standard_normal((normals, dp.dim))
        norms = np.sqrt((perturbed * perturbed).sum(axis=1))
        norms[norms == 0.0] = 1.0
        perturbed /= norms[:, None]
        fracs = _miss_fractions(plus, minus, count, perturbed, best_u, arcs)
        cand = int(np.argmin(fracs))
        if float(fracs[cand]) < best_frac:
            best_frac = float(fracs[cand])
            best_u = perturbed[cand]
        minima.append(area * best_frac)

    return EpsilonReport(area * best_frac, tuple(minima), normals, sphere_samples, r)


def epsilon_n(
    dp: DomainPair,
    x,
    r: float,
    normals: int = 64,
    sphere_samples: int = 4096,
    rounds: int = 3,
    seed: int = 0,
) -> float:
    return epsilon_report(dp, x, r, normals, sphere_samples, rounds, seed).value


EpsilonProfile = ScaleProfile


def epsilon_square_function(
    dp: DomainPair,
    x,
    j_min: int,
    j_max: int,
    normals: int = 64,
    sphere_samples: int = 4096,
    rounds: int = 3,
    seed: int = 0,
) -> EpsilonProfile:
    """Coefficients at r = 2^-j with the ln2-weighted square sum."""
    if j_min < 0 or j_max < j_min:
        raise InvalidInputError(f"need 0 <= j_min <= j_max, got {j_min}, {j_max}")
    values = [epsilon_n(dp, x, 2.0 ** (-j), normals, sphere_samples, rounds, seed) for j in range(j_min, j_max + 1)]
    return EpsilonProfile.of(x, range(j_min, j_max + 1), values)
