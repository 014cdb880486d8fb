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
from math import sqrt

import numpy as np

from gmtkit.content import content
from gmtkit.errors import InvalidInputError
from gmtkit.frostman import CellMeasure
from gmtkit.gauge import power_exp_gauge
from gmtkit.lattice import CellSet
from gmtkit.sparsify import AffinePlane, _orthonormal_frames
from gmtkit.utils import ScaleProfile, finite_floats

PLANE_BLOCK = 1 << 14  # mask entries per content call of content_beta, one plane at least


def _points_weights(source) -> tuple[np.ndarray, np.ndarray]:
    """Accept a CellMeasure, a (points, weights) pair, or bare points."""
    if isinstance(source, CellMeasure):
        return source.centers_and_weights()
    pair = isinstance(source, tuple) and len(source) == 2
    pts = finite_floats(source[0] if pair else source, "point coordinates must be finite")
    w = finite_floats(source[1], "weights must be finite and nonnegative") if pair else np.ones(pts.shape[:1])
    if pts.ndim != 2 or w.shape != (pts.shape[0],):
        raise InvalidInputError("points must be (m, n) with matching weights")
    if (w < 0).any():
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
    A ball no larger than the one before is filtered from that ball's rows:
    the same rows in the same order as a filter of all the points.
    """
    fits: list = []
    moments = []
    p, ww, dd, last = pts, w, d2, np.inf
    for r in radii:
        if r > last:  # a larger ball starts again from every point
            p, ww, dd = pts, w, d2
        # closed ball, with slack for points placed at distance exactly r whose
        # computed distance carries one ulp of noise
        mask = dd <= r * r * (1.0 + 1e-12)
        p, ww, dd, last = p[mask], ww[mask], dd[mask], r
        total = float(ww.sum())
        if total <= 0.0:  # also the empty ball
            fits.append(None)
            continue
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


def _checked_center(n: int, x, r: float, k: int) -> tuple[np.ndarray, float]:
    """The centre as an array and r as a float, once the beta layer's inputs
    hold: 1 <= k < n, a finite r > 0, and a centre of n finite coordinates."""
    if not 1 <= k < n:
        raise InvalidInputError(f"need 1 <= k < n, got k={k}, n={n}")
    message = f"radius must be finite and > 0, got {r}"
    radius = finite_floats(r, message)
    if radius.shape or not radius > 0:
        raise InvalidInputError(message)
    x = finite_floats(x, f"center must be {n} finite coordinates")
    if x.shape != (n,):
        raise InvalidInputError(f"center must be {n} finite coordinates")
    return x, float(radius)


def _ball_fit(source, x, r: float, k: int) -> tuple[tuple[np.ndarray, np.ndarray, float] | None, float]:
    """`_restricted_moment_values` for the ball B_r(x) (None without mass), and the checked r."""
    pts, w = _points_weights(source)
    x, r = _checked_center(pts.shape[1], x, r, k)
    return _restricted_moment_values(pts, w, ((pts - x) ** 2).sum(axis=1), [r], k)[0], r


def _beta_value(fit, r: float, k: int) -> float:
    """(r^(-k-2) * best fit value)^(1/2); zero on an empty ball by convention."""
    return 0.0 if fit is None else sqrt(fit[2] * r ** (-(k + 2)))


def best_affine_fit(source, x, r: float, k: int) -> tuple[AffinePlane, float]:
    """Optimal affine k-plane for the ball B_r(x) and the attained weighted
    sum of squared distances.  Raises on an empty ball."""
    fit, r = _ball_fit(source, x, r, k)
    if fit is None:
        raise InvalidInputError(f"no mass in the closed ball of radius {r}")
    bary, frame, value = fit
    return AffinePlane(bary, frame), value


def beta2(source, x, r: float, k: int) -> float:
    """(r^(-k-2) * best fit value)^(1/2); zero on empty balls by convention."""
    return _beta_value(*_ball_fit(source, x, r, k), k)


BetaProfile = ScaleProfile


def square_function(source, x, k: int, j_min: int, j_max: int) -> BetaProfile:
    """beta2 at r = 2^-j for j_min <= j <= j_max, summed with weight ln 2."""
    if j_min < 0 or j_max < j_min:
        raise InvalidInputError(f"need 0 <= j_min <= j_max, got {j_min}, {j_max}")
    pts, w = _points_weights(source)
    x = _checked_center(pts.shape[1], x, 2.0 ** (-j_max), k)[0]  # the smallest radius
    d2 = ((pts - x) ** 2).sum(axis=1)  # one distance pass serves every scale
    radii = [2.0 ** (-j) for j in range(j_min, j_max + 1)]
    fits = _restricted_moment_values(pts, w, d2, radii, k)
    values = [_beta_value(fit, r, k) for fit, r in zip(fits, radii)]
    return BetaProfile.of(x, range(j_min, j_max + 1), values)


# ---------------------------------------------------------------------------
# content-based coefficient


def _plane_distances(y: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """(P, N) distances of the N points at offsets `y` from a base to the P
    planes through the base spanned by the frames of a (P, k, n) stack; one
    stacked matmul per product runs the 2-D product's kernel on each frame."""
    resid = y - (y @ np.swapaxes(frames, 1, 2)) @ frames
    return np.sqrt((resid * resid).sum(axis=-1))


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
    come from a grid (the coordinate k-planes, then seeded Haar-random
    frames) refined by four rounds of seeded frame perturbation.

    Planes are priced in stacks of at most ``PLANE_BLOCK`` mask entries
    (one plane at least) per `content` call; each value has the bits of a
    plane priced alone.  A refinement round prices a stack of candidates
    at once and takes the first that improves on the best, then draws the
    candidates after it from the new best: the greedy one-at-a-time walk,
    done speculatively.
    """
    if plane_grid < 4 or t_grid < 2:
        raise InvalidInputError("plane_grid >= 4 and t_grid >= 2 required")
    n = cells.n
    x, r = _checked_center(n, x, r, k)
    centers = cells.centers()
    mask = ((centers - x) ** 2).sum(axis=1) <= r * r
    if not np.any(mask):
        return 0.0
    # the cells inside the ball; their rows stay in the order of their centers
    inside, centers = CellSet(n, cells.depth, cells.rows[mask]), centers[mask]
    offsets = centers - centers.mean(axis=0)  # from the barycentre, which every plane passes through
    gauge = power_exp_gauge(k, 0.0)
    ts = [r * 2.0 ** (-i) for i in range(t_grid + 1)]
    cuts = np.array(ts)[:, None]
    bands = [hi * hi - lo * lo for hi, lo in zip(ts, ts[1:])]
    scale = r ** (-(k + 2))
    per_pass = max(1, PLANE_BLOCK // ((t_grid + 1) * len(inside)))  # planes per content call

    def plane_values(frames: np.ndarray) -> list[float]:
        # per pass: every threshold's superlevel set of each plane, with its
        # tail row when some centre lies beyond r, priced in one content
        # call; then each plane's weighted terms added in threshold order,
        # the tail segment first
        values = []
        for at in range(0, len(frames), per_pass):
            dists = _plane_distances(offsets, frames[at : at + per_pass])
            tops = dists.max(axis=1)
            firsts = np.where(tops > ts[0], 0, 1)
            rows = np.arange(t_grid + 1) >= firsts[:, None]  # each plane's rows of the grid
            prices = iter(content(inside, gauge, (dists[:, None, :] > cuts)[rows]).tolist())
            for top, first in zip(tops.tolist(), firsts.tolist()):
                acc = 0.0
                for weight in [top * top - ts[0] * ts[0], *bands][first:]:
                    acc += next(prices) * weight
                values.append(acc * scale)
        return values

    rng = np.random.default_rng(seed)
    frames = [np.eye(n)[list(axes)] for axes in combinations(range(n), k)]
    # the rest of the grid in one draw: the Gaussians leave the generator in
    # the order of one draw per frame, and the batched QR keeps each frame's bits
    gauss = rng.standard_normal((max(0, plane_grid - len(frames)), n, k))
    frames = np.concatenate([frames, _orthonormal_frames(gauss)[0]])
    best_val, best = min(zip(plane_values(frames), range(len(frames))))
    best_frame = frames[best]
    # every round's Gaussians in one draw, in the order of one draw per candidate
    per = max(4, plane_grid // 4)
    for sigma, noise in zip((0.3, 0.1, 0.03, 0.01), rng.standard_normal((4, per, k, n))):
        at = 0
        while at < per:
            cands, live = _orthonormal_frames(np.swapaxes(best_frame + sigma * noise[at : at + per_pass], 1, 2))
            step = len(cands)
            live = np.flatnonzero(live)  # a rank-deficient candidate is skipped
            for i, val in zip(live.tolist(), plane_values(cands[live])):
                if val < best_val:
                    # the candidates after it start again from the new best
                    best_val, best_frame, step = val, cands[i], i + 1
                    break
            at += step
    return sqrt(max(best_val, 0.0))
