"""L2 flatness coefficients and their dyadic square functions.

beta2 measures, at a center and scale, the normalized L2 distance of a
measure to its best-fitting affine k-plane inside the ball.  The optimal
plane is a closed-form moment computation: it passes through the restricted
barycenter and is spanned by the top-k eigenvectors of the weighted second
moment matrix; the attained minimum is the sum of the n-k smallest
eigenvalues.  content_beta replaces the measure integral by a layer-cake of
Hausdorff contents of superlevel sets, which is not a quadratic form, so the
plane infimum is approximated by a direction grid with local refinement.
"""

from __future__ import annotations

from itertools import combinations
from math import isfinite, sqrt

import numpy as np

from gmtkit.content import content
from gmtkit.errors import InvalidInputError
from gmtkit.frostman import CellMeasure
from gmtkit.gauge import power_exp_gauge
from gmtkit.lattice import CellSet
from gmtkit.sparsify import AffinePlane, _orthonormal_frames
from gmtkit.utils import ScaleProfile


def _points_weights(source) -> tuple[np.ndarray, np.ndarray]:
    """Accept a CellMeasure, a (points, weights) pair, or bare points."""
    if isinstance(source, CellMeasure):
        return source.centers_and_weights()
    if isinstance(source, tuple) and len(source) == 2:
        pts = np.asarray(source[0], dtype=float)
        w = np.asarray(source[1], dtype=float)
    else:
        pts = np.asarray(source, dtype=float)
        w = np.ones(pts.shape[0], dtype=float)
    if pts.ndim != 2 or w.shape != (pts.shape[0],):
        raise InvalidInputError("points must be (m, n) with matching weights")
    if not np.isfinite(pts).all():
        raise InvalidInputError("point coordinates must be finite")
    if not (np.isfinite(w) & (w >= 0)).all():
        raise InvalidInputError("weights must be finite and nonnegative")
    return pts, w


def _restricted_moment_values(
    pts: np.ndarray, w: np.ndarray, d2: np.ndarray, radii, k: int
) -> list[tuple[np.ndarray, np.ndarray, float] | None]:
    """Per radius r in `radii`: the barycenter, top-k frame, and the attained
    minimum inside the closed ball of radius r about the centre whose squared
    distances to `pts` are `d2`, or None when that ball carries no mass.

    Each ball's symmetrized moment is built on its own; the moments then go
    through one stacked eigensolve, which runs the per-matrix LAPACK kernel
    on each, so every ball's fit has the bits of a solve of its moment alone.
    """
    fits: list = []
    moments = []
    for r in radii:
        # closed ball, with slack for points placed at distance exactly r whose
        # computed distance carries one ulp of noise
        mask = d2 <= r * r * (1.0 + 1e-12)
        ww = w[mask]
        total = float(ww.sum())
        if total <= 0.0:  # also the empty ball
            fits.append(None)
            continue
        p = pts[mask]
        bary = (p * ww[:, None]).sum(axis=0) / total
        y = p - bary
        moment = (y * ww[:, None]).T @ y
        moments.append(0.5 * (moment + moment.T))
        fits.append(bary)
    if not moments:
        return fits
    n = pts.shape[1]
    vals, vecs = np.linalg.eigh(np.stack(moments))
    # PSD up to roundoff; tiny negative eigenvalues are noise
    solved = zip(np.clip(vals, 0.0, None), vecs)
    for i, bary in enumerate(fits):
        if bary is not None:
            v, vec = next(solved)
            fits[i] = bary, vec[:, n - k :].T, float(v[: n - k].sum())
    return fits


def _checked_center(n: int, x, r: float, k: int) -> np.ndarray:
    """The centre as an array, once the beta layer's inputs hold: 1 <= k < n,
    a finite radius r > 0, and a centre of n finite coordinates."""
    if not 1 <= k < n:
        raise InvalidInputError(f"need 1 <= k < n, got k={k}, n={n}")
    if not (isfinite(r) and r > 0):
        raise InvalidInputError(f"radius must be finite and > 0, got {r}")
    x = np.asarray(x, dtype=float)
    if x.shape != (n,) or not np.isfinite(x).all():
        raise InvalidInputError(f"center must be {n} finite coordinates")
    return x


def _ball_fit(source, x, r: float, k: int) -> tuple[np.ndarray, np.ndarray, float] | None:
    """`_restricted_moment_values` for the ball B_r(x); None when it carries no mass."""
    pts, w = _points_weights(source)
    x = _checked_center(pts.shape[1], x, r, k)
    return _restricted_moment_values(pts, w, ((pts - x) ** 2).sum(axis=1), [r], k)[0]


def _beta_value(fit, r: float, k: int) -> float:
    """(r^(-k-2) * best fit value)^(1/2); zero on an empty ball by convention."""
    return 0.0 if fit is None else sqrt(fit[2] * r ** (-(k + 2)))


def best_affine_fit(source, x, r: float, k: int) -> tuple[AffinePlane, float]:
    """Optimal affine k-plane for the ball B_r(x) and the attained weighted
    sum of squared distances.  Raises on an empty ball."""
    fit = _ball_fit(source, x, r, k)
    if fit is None:
        raise InvalidInputError(f"no mass in the closed ball of radius {r}")
    bary, frame, value = fit
    return AffinePlane(bary, frame), value


def beta2(source, x, r: float, k: int) -> float:
    """(r^(-k-2) * best fit value)^(1/2); zero on empty balls by convention."""
    return _beta_value(_ball_fit(source, x, r, k), r, k)


BetaProfile = ScaleProfile


def square_function(source, x, k: int, j_min: int, j_max: int) -> BetaProfile:
    """beta2 at r = 2^-j for j_min <= j <= j_max, summed with weight ln 2."""
    if j_min < 0 or j_max < j_min:
        raise InvalidInputError(f"need 0 <= j_min <= j_max, got {j_min}, {j_max}")
    pts, w = _points_weights(source)
    x = _checked_center(pts.shape[1], x, 2.0 ** (-j_max), k)  # the smallest radius
    d2 = ((pts - x) ** 2).sum(axis=1)  # one distance pass serves every scale
    radii = [2.0 ** (-j) for j in range(j_min, j_max + 1)]
    fits = _restricted_moment_values(pts, w, d2, radii, k)
    values = [_beta_value(fit, r, k) for fit, r in zip(fits, radii)]
    return BetaProfile.of(x, range(j_min, j_max + 1), values)


# ---------------------------------------------------------------------------
# content-based coefficient


def _orthonormalize(mat: np.ndarray) -> np.ndarray | None:
    q, r = np.linalg.qr(mat.T)
    if min(abs(np.diag(r))) < 1e-12:
        return None
    signs = np.where(np.diag(r) >= 0.0, 1.0, -1.0)
    return (q * signs).T


def _plane_distances(centers: np.ndarray, base: np.ndarray, frame: np.ndarray) -> np.ndarray:
    y = centers - base
    resid = y - (y @ frame.T) @ frame
    return np.sqrt((resid * resid).sum(axis=1))


def content_beta(
    cells: CellSet,
    x,
    r: float,
    k: int,
    plane_grid: int = 48,
    t_grid: int = 12,
    seed: int = 0,
) -> float:
    """Layer-cake flatness coefficient of a cell set inside B_r(x).

    For a candidate plane L the superlevel set at threshold t is the cells
    (represented by their centers) at distance > t from L; its size is the
    exact optimal dyadic cover cost under h(r) = r^k.  The t-integral of
    2 t * content runs over a geometric grid from r down to r*2^-t_grid,
    with an upper tail segment when some center sits farther than r from L.
    Planes pass through the barycenter of the selected centers; directions
    come from a grid with local refinement (angle golden-section for lines
    in the plane, seeded frame perturbation otherwise).
    """
    if plane_grid < 4 or t_grid < 2:
        raise InvalidInputError("plane_grid >= 4 and t_grid >= 2 required")
    n = cells.n
    x = _checked_center(n, x, r, k)
    centers = cells.centers()
    mask = ((centers - x) ** 2).sum(axis=1) <= r * r
    if not np.any(mask):
        return 0.0
    # the cells inside the ball; their rows stay in the order of their centers
    inside, centers = CellSet(n, cells.depth, cells.rows[mask]), centers[mask]
    bary = centers.mean(axis=0)
    gauge = power_exp_gauge(k, 0.0)
    ts = [r * 2.0 ** (-i) for i in range(t_grid + 1)]
    cuts = np.array(ts)[:, None]
    bands = [hi * hi - lo * lo for hi, lo in zip(ts, ts[1:])]

    def plane_value(frame: np.ndarray) -> float:
        # every threshold's superlevel set priced in one content call, then
        # the weighted terms added in threshold order, the tail segment first
        dists = _plane_distances(centers, bary, frame)
        top = float(dists.max())
        first = 0 if top > ts[0] else 1  # the tail segment only when a centre lies beyond r
        weights = [top * top - ts[0] * ts[0], *bands][first:]
        prices = content(inside, gauge, dists > cuts[first:])
        acc = 0.0
        for price, weight in zip(prices.tolist(), weights):
            acc += price * weight
        return acc * r ** (-(k + 2))

    if n == 2 and k == 1:
        def angle_value(theta: float) -> float:
            return plane_value(np.array([[np.cos(theta), np.sin(theta)]]))

        step = np.pi / plane_grid
        grid_vals = [(angle_value(i * step), i * step) for i in range(plane_grid)]
        best_val, best_theta = min(grid_vals)
        # golden-section inside the bracketing window; the objective is
        # piecewise constant in the angle, so this settles on a plateau
        lo, hi = best_theta - step, best_theta + step
        invphi = (sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        fc, fd = angle_value(c), angle_value(d)
        for _ in range(40):
            if fc <= fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = angle_value(c)
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = angle_value(d)
        best_val = min(best_val, fc, fd)
        return sqrt(max(best_val, 0.0))

    rng = np.random.default_rng(seed)
    frames = []
    for axes in combinations(range(n), k):
        f = np.zeros((k, n))
        for row, ax in enumerate(axes):
            f[row, ax] = 1.0
        frames.append(f)
    # the rest of the grid in one draw: the Gaussians leave the generator in
    # the order of one draw per frame, and the batched QR keeps each frame's bits
    frames.extend(_orthonormal_frames(rng.standard_normal((max(0, plane_grid - len(frames)), n, k))))
    best_val, best_frame = min((plane_value(f), i) for i, f in enumerate(frames))
    best_frame = frames[best_frame]
    for sigma in (0.3, 0.1, 0.03, 0.01):
        for _ in range(max(4, plane_grid // 4)):
            cand = _orthonormalize(best_frame + sigma * rng.standard_normal(best_frame.shape))
            if cand is None:
                continue
            val = plane_value(cand)
            if val < best_val:
                best_val, best_frame = val, cand
    return sqrt(max(best_val, 0.0))
