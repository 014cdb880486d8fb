import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmtkit.beta import BetaProfile, best_affine_fit, beta2, content_beta, square_function
from gmtkit.corpus import GeneratorSpec, generate
from gmtkit.errors import InvalidInputError
from gmtkit.lattice import CellSet

from helpers import brute_line_fit, loop_content_beta


def unit_circle(m):
    theta = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    w = np.full(m, 2.0 * np.pi / m)
    return pts, w


def test_two_point_fit_is_exact():
    pts = np.array([[1.0, 0.0], [-1.0, 0.0]])
    plane, value = best_affine_fit(pts, [0.0, 0.0], 2.0, 1)
    assert value == pytest.approx(0.0, abs=1e-15)
    # direction parallel to e1
    assert abs(abs(plane.frame[0, 0]) - 1.0) < 1e-12
    assert abs(plane.frame[0, 1]) < 1e-12


def test_four_corner_fit_value():
    pts = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    _, value = best_affine_fit(pts, [0.0, 0.0], 2.0, 1)
    assert value == 4.0


def test_collinear_points_are_flat():
    rng = np.random.default_rng(11)
    t = rng.uniform(-1.0, 1.0, size=200)
    direction = np.array([3.0, 4.0]) / 5.0
    pts = np.array([0.2, 0.7]) + t[:, None] * direction
    w = rng.uniform(0.1, 2.0, size=200)
    assert beta2((pts, w), [0.2, 0.7], 1.0, 1) < 1e-10


def test_empty_ball_conventions():
    pts = np.array([[0.9, 0.9]])
    assert beta2(pts, [0.1, 0.1], 0.05, 1) == 0.0
    with pytest.raises(InvalidInputError, match="no mass"):
        best_affine_fit(pts, [0.1, 0.1], 0.05, 1)


def test_circle_coefficient_is_sqrt_pi():
    pts, w = unit_circle(100_000)
    got = beta2((pts, w), [0.0, 0.0], 1.0, 1)
    assert got == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_circle_tail_is_negligible():
    # tiny balls around a point on the circle see a nearly straight arc
    pts, w = unit_circle(100_000)
    prof = square_function((pts, w), pts[0], 1, 10, 14)
    assert prof.total < 1e-3
    assert all(v < 0.05 for v in prof.values)


def test_flat_set_square_function_vanishes():
    cells = generate(GeneratorSpec(kind="plane-patch", n=2, depth=8, k=1))
    side = 2.0 ** (-8)
    pts = (np.array(cells.sorted_cells(), dtype=float) + 0.5) * side
    w = np.full(len(pts), 1.0 / len(pts))
    prof = square_function((pts, w), [0.5, side / 2], 1, 2, 12)
    assert prof.total < 1e-20


def test_cantor_square_function_grows():
    cells = generate(GeneratorSpec(kind="four-corner-cantor", n=2, depth=8))
    side = 2.0 ** (-8)
    pts = (np.array(cells.sorted_cells(), dtype=float) + 0.5) * side
    w = np.full(len(pts), 1.0 / len(pts))
    prof = square_function((pts, w), [side / 2, side / 2], 1, 2, 8)
    assert prof.total > 0.05
    # partial sums keep growing across scales: genuinely non-flat at every j
    assert sum(1 for v in prof.values if v > 0.05) >= 5


def test_doubling_inequality():
    rng = np.random.default_rng(23)
    bound = 2.0 ** ((1 + 2) / 2)
    for _ in range(50):
        m = int(rng.integers(3, 40))
        pts = rng.uniform(-1.0, 1.0, size=(m, 2))
        w = rng.uniform(0.0, 1.0, size=m)
        x = rng.uniform(-0.5, 0.5, size=2)
        r = float(rng.uniform(0.1, 0.8))
        small = beta2((pts, w), x, r, 1)
        big = beta2((pts, w), x, 2.0 * r, 1)
        assert small <= bound * big + 1e-12


def test_fit_beats_random_planes():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, 1.0, size=(60, 3))
    w = rng.uniform(0.5, 1.5, size=60)
    x = np.array([0.5, 0.5, 0.5])
    r = 0.9
    plane, value = best_affine_fit((pts, w), x, r, 2)
    d2 = ((pts - x) ** 2).sum(axis=1)
    mask = d2 <= r * r
    p, ww = pts[mask], w[mask]
    for _ in range(1000):
        base = p[rng.integers(0, len(p))] + rng.normal(0.0, 0.1, size=3)
        raw = rng.normal(size=(2, 3))
        q, _ = np.linalg.qr(raw.T)
        frame = q.T[:2]
        normal = np.cross(frame[0], frame[1])
        dist = (p - base) @ normal
        rival = float((ww * dist * dist).sum())
        assert value <= rival + 1e-9


def test_fit_matches_angle_scan_oracle():
    rng = np.random.default_rng(40)
    pts = rng.uniform(0.0, 1.0, size=(25, 2))
    w = rng.uniform(0.5, 2.0, size=25)
    x = np.array([0.5, 0.5])
    _, value = best_affine_fit((pts, w), x, 0.75, 1)
    oracle, _ = brute_line_fit(pts, w, x, 0.75)
    assert value <= oracle + 1e-12
    assert value == pytest.approx(oracle, rel=1e-5, abs=1e-9)


def test_rotation_invariance():
    rng = np.random.default_rng(31)
    pts = rng.uniform(-1.0, 1.0, size=(40, 2))
    w = rng.uniform(0.1, 1.0, size=40)
    x = np.array([0.1, -0.2])
    r = 1.1
    before = beta2((pts, w), x, r, 1)
    theta = 0.8321
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    moved = (pts - x) @ rot.T + x
    after = beta2((moved, w), x, r, 1)
    assert after == pytest.approx(before, rel=1e-9, abs=1e-12)


def test_scaling_invariance():
    rng = np.random.default_rng(32)
    pts = rng.uniform(-1.0, 1.0, size=(30, 2))
    w = rng.uniform(0.1, 1.0, size=30)
    x = np.zeros(2)
    lam = 0.5
    k = 1
    before = beta2((pts, w), x, 1.0, k)
    after = beta2((pts * lam, w * lam**k), x, lam, k)
    assert after == pytest.approx(before, rel=1e-9, abs=1e-12)


def test_profile_validation():
    prof = BetaProfile((0.5, 0.5), (2, 3), (0.1, 0.2), (0.01 + 0.04) * math.log(2))
    assert prof.pairs() == [(0.25, 0.1), (0.125, 0.2)]
    rows = prof.csv_rows()
    assert rows == [[0.5, 0.5, 2, 0.1], [0.5, 0.5, 3, 0.2]]
    with pytest.raises(InvalidInputError):
        BetaProfile((0.5,), (2, 3), (0.1,), 0.1)
    with pytest.raises(InvalidInputError):
        BetaProfile((0.5,), (2,), (-0.1,), 0.01 * math.log(2))
    with pytest.raises(InvalidInputError):
        BetaProfile((0.5,), (2,), (0.1,), 0.5)


def test_profile_total_matches_terms():
    pts, w = unit_circle(5000)
    prof = square_function((pts, w), [0.0, 0.0], 1, 0, 6)
    assert prof.total == pytest.approx(sum(v * v for v in prof.values) * math.log(2), rel=1e-12)
    assert prof.levels == tuple(range(0, 7))


def test_square_function_validates():
    pts, w = unit_circle(16)
    with pytest.raises(InvalidInputError):
        square_function((pts, w), [0.0, 0.0], 1, 5, 3)
    with pytest.raises(InvalidInputError):
        square_function((pts, w), [0.0, 0.0], 2, 0, 3)
    with pytest.raises(InvalidInputError):
        beta2((pts, w), [0.0, 0.0], -1.0, 1)


BAD_INPUTS = [
    ([0.4], 0.3, 1, "center must be 2 finite coordinates"),  # one coordinate would broadcast
    ([0.4, 0.4, 0.4], 0.3, 1, "center must be 2 finite coordinates"),
    ([math.nan, 0.4], 0.3, 1, "center must be 2 finite coordinates"),
    ([0.4, math.inf], 0.3, 1, "center must be 2 finite coordinates"),
    ([0.4, 0.4], math.nan, 1, "radius must be finite and > 0"),
    ([0.4, 0.4], math.inf, 1, "radius must be finite and > 0"),
    ([0.4, 0.4], 0.0, 1, "radius must be finite and > 0"),
    ([0.4, 0.4], 0.3, 0, "need 1 <= k < n"),
    ([0.4, 0.4], 0.3, 2, "need 1 <= k < n"),
]


def _beta_calls(source, x, r, k):
    """Every beta entry point on `source`: points, or a cell set, which
    content_beta reads and the others take as its centres."""
    points = source.centers() if isinstance(source, CellSet) else source
    calls = [
        lambda: best_affine_fit(points, x, r, k),
        lambda: beta2(points, x, r, k),
    ]
    if isinstance(source, CellSet):
        calls.append(lambda: content_beta(source, x, r, k))
    if r == 0.3:  # a profile's radii are its own
        calls.append(lambda: square_function(points, x, k, 0, 3))
    return calls


@pytest.mark.parametrize("x, r, k, message", BAD_INPUTS)
def test_beta_layer_refuses_malformed_input(x, r, k, message):
    # one check for every beta entry point, before any distance is measured
    for call in _beta_calls(CellSet(2, 0, frozenset({(0, 0)})).refined(3), x, r, k):
        with pytest.raises(InvalidInputError, match=message):
            call()


def _with(table: np.ndarray, at, value: float) -> np.ndarray:
    """A copy of `table` with the entry at `at` set to `value`."""
    out = table.copy()
    out[at] = value
    return out


_POINTS = CellSet(2, 3, [(i, j) for i in range(8) for j in range(8)]).centers()
_UNIT = np.ones(len(_POINTS))


@pytest.mark.parametrize(
    "source, message",
    [
        # a NaN weight made every value NaN; a NaN coordinate dropped its point
        ((_POINTS, _with(_UNIT, 1, math.nan)), "weights must be finite and nonnegative"),
        ((_POINTS, _with(_UNIT, 1, math.inf)), "weights must be finite and nonnegative"),
        ((_POINTS, _with(_UNIT, 1, -1.0)), "weights must be finite and nonnegative"),
        ((_with(_POINTS, (1, 0), math.nan), _UNIT), "point coordinates must be finite"),
        (_with(_POINTS, (2, 1), -math.inf), "point coordinates must be finite"),
    ],
)
def test_beta_layer_refuses_non_finite_points(source, message):
    for call in _beta_calls(source, [0.4, 0.4], 0.3, 1):
        with pytest.raises(InvalidInputError, match=message):
            call()


@settings(max_examples=25)
@given(st.integers(0, 10_000), st.integers(3, 25))
def test_beta_nonnegative_and_finite(seed, m):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, size=(m, 2))
    w = rng.uniform(0.0, 1.0, size=m)
    v = beta2((pts, w), rng.uniform(0.0, 1.0, size=2), float(rng.uniform(0.05, 1.0)), 1)
    assert v >= 0.0
    assert math.isfinite(v)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4), st.integers(1, 40), st.integers(0, 3), st.integers(0, 8))
def test_square_function_equals_beta2_at_each_scale(seed, n, m, j_min, span):
    # beta2 measures its own distances, so it checks the distance pass shared across scales
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, size=(m, n))
    w = rng.uniform(0.0, 1.0, size=m) * (rng.uniform(size=m) < 0.8)
    x = pts[0] if seed % 2 else rng.uniform(0.0, 1.0, size=n)
    for k in range(1, n):
        prof = square_function((pts, w), x, k, j_min, j_min + span)
        want = [beta2((pts, w), x, 2.0 ** (-j), k) for j in range(j_min, j_min + span + 1)]
        assert list(prof.values) == want  # the same bits, not only the same value


def _profile_eigh_calls(monkeypatch, *args) -> tuple[list[float], int]:
    """A square_function profile's values and its number of np.linalg.eigh calls."""
    calls = []
    eigh = np.linalg.eigh
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", lambda a: calls.append(np.shape(a)) or eigh(a))
        values = list(square_function(*args).values)
    return values, len(calls)


def test_square_function_solves_a_profile_with_empty_balls_in_one_eigh(monkeypatch):
    # every point lies 0.3-0.45 from x: the balls of radius 1 and 1/2 hold them, the rest are empty
    rng = np.random.default_rng(4)
    angle = rng.uniform(0.0, 2.0 * np.pi, size=30)
    pts = 0.5 + rng.uniform(0.3, 0.45, size=30)[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    w = rng.uniform(0.1, 1.0, size=30)
    values, calls = _profile_eigh_calls(monkeypatch, (pts, w), [0.5, 0.5], 1, 0, 6)
    assert calls == 1
    assert values == [beta2((pts, w), [0.5, 0.5], 2.0**-j, 1) for j in range(7)]
    assert all(v > 0.0 for v in values[:2]) and values[2:] == [0.0] * 5
    # no ball carries mass: no eigensolve at all
    assert _profile_eigh_calls(monkeypatch, (pts, w), [0.5, 0.5], 1, 2, 6) == ([0.0] * 5, 0)


def test_square_function_solves_single_point_balls_in_the_stack(monkeypatch):
    # one point 0.1 from x, the others 0.6-0.9 away: the ball of radius 1 holds
    # them all, radii 1/2 to 1/8 the one point, and the smaller balls nothing
    rng = np.random.default_rng(5)
    x = np.array([0.3, 0.2, 0.6])
    far = rng.normal(size=(25, 3))
    far *= rng.uniform(0.6, 0.9, size=25)[:, None] / np.linalg.norm(far, axis=1)[:, None]
    pts = np.vstack([x + [0.1, 0.0, 0.0], x + far])
    w = rng.uniform(0.1, 1.0, size=26)
    for k in (1, 2):
        values, calls = _profile_eigh_calls(monkeypatch, (pts, w), x, k, 0, 5)
        assert calls == 1
        assert values == [beta2((pts, w), x, 2.0**-j, k) for j in range(6)]
        assert values[0] > 0.0 and values[1:] == [0.0] * 5
    plane, value = best_affine_fit((pts, w), x, 0.125, 1)
    assert value == 0.0 and plane.base.tolist() == pytest.approx(pts[0].tolist(), abs=1e-15)
    with pytest.raises(InvalidInputError, match="no mass"):
        best_affine_fit((pts, w), x, 0.0625, 1)


def brute_content_beta_two_d(cells, x, r, k, t_grid, angles):
    """Angle scan over lines through the barycenter, same layer-cake grid."""
    from gmtkit.content import content
    from gmtkit.gauge import power_exp_gauge

    side = 2.0 ** (-cells.depth)
    idx_list = cells.sorted_cells()
    centers = (np.array(idx_list, dtype=float) + 0.5) * side
    x = np.asarray(x, dtype=float)
    mask = ((centers - x) ** 2).sum(axis=1) <= r * r
    centers = centers[mask]
    kept = [i for i, m in zip(idx_list, mask) if m]
    bary = centers.mean(axis=0)
    gauge = power_exp_gauge(k, 0.0)
    ts = [r * 2.0 ** (-i) for i in range(t_grid + 1)]

    def phi(dists, t):
        chosen = frozenset(i for i, d in zip(kept, dists) if d > t)
        if not chosen:
            return 0.0
        return content(CellSet(cells.n, cells.depth, chosen), gauge)

    best = math.inf
    for a in range(angles):
        theta = math.pi * a / angles
        normal = np.array([-math.sin(theta), math.cos(theta)])
        dists = np.abs((centers - bary) @ normal)
        acc = 0.0
        top = float(dists.max())
        if top > ts[0]:
            acc += phi(dists, ts[0]) * (top * top - ts[0] * ts[0])
        for hi, lo in zip(ts, ts[1:]):
            acc += phi(dists, lo) * (hi * hi - lo * lo)
        best = min(best, acc * r ** (-(k + 2)))
    return math.sqrt(max(best, 0.0))


def test_content_beta_flat_patch_vanishes():
    cells = generate(GeneratorSpec(kind="plane-patch", n=2, depth=6, k=1))
    v = content_beta(cells, [0.5, 2.0 ** (-7)], 0.4, 1, plane_grid=24, t_grid=8)
    assert v < 1e-9


def test_content_beta_full_square_matches_oracle():
    cells = CellSet(2, 0, frozenset({(0, 0)})).refined(4)
    got = content_beta(cells, [0.5, 0.5], 0.5, 1, plane_grid=24, t_grid=8)
    assert got > 1.0
    want = brute_content_beta_two_d(cells, [0.5, 0.5], 0.5, 1, t_grid=8, angles=90)
    assert got <= want + 1e-12
    assert got == pytest.approx(want, rel=0.02)


def test_content_beta_empty_ball_is_zero():
    cells = CellSet(2, 4, frozenset({(0, 0)}))
    assert content_beta(cells, [0.9, 0.9], 0.05, 1) == 0.0
    assert content_beta(CellSet(2, 4, frozenset()), [0.5, 0.5], 0.5, 1) == 0.0


def test_content_beta_three_d_runs():
    cells = CellSet(3, 0, frozenset({(0, 0, 0)})).refined(2)
    v = content_beta(cells, [0.5, 0.5, 0.5], 0.5, 2, plane_grid=12, t_grid=6, seed=0)
    assert v > 0.0
    flat = CellSet(3, 2, frozenset((i, j, 0) for i in range(4) for j in range(4)))
    assert content_beta(flat, [0.5, 0.5, 0.125], 0.4, 2, plane_grid=12, t_grid=6) < 1e-9


def test_content_beta_validates():
    cells = CellSet(2, 2, frozenset({(0, 0)}))
    with pytest.raises(InvalidInputError):
        content_beta(cells, [0.5, 0.5], 0.0, 1)
    with pytest.raises(InvalidInputError):
        content_beta(cells, [0.5, 0.5], 0.5, 1, plane_grid=2)
    with pytest.raises(InvalidInputError):
        content_beta(cells, [0.5, 0.5], 0.5, 2)


def test_content_beta_builds_one_pyramid_per_call(monkeypatch):
    from gmtkit.lattice import Pyramid

    built = []
    init = Pyramid.__init__
    monkeypatch.setattr(Pyramid, "__init__", lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))
    square = CellSet(2, 0, frozenset({(0, 0)})).refined(4)
    assert content_beta(square, [0.5, 0.5], 0.5, 1, plane_grid=12, t_grid=6) > 1.0
    assert len(built) == 1
    cube = CellSet(3, 0, frozenset({(0, 0, 0)})).refined(3)
    assert content_beta(cube, [0.5, 0.5, 0.5], 0.3, 2, plane_grid=8, t_grid=4) > 0.0
    assert len(built) == 2


def _inside(cells, x, r) -> int:
    """The number of cells whose centres lie in the closed ball B_r(x)."""
    return int((((cells.centers() - np.asarray(x)) ** 2).sum(axis=1) <= r * r).sum())


def test_content_beta_keeps_its_bits_in_block_bounded_plane_stacks(monkeypatch):
    # values of `loop_content_beta`, which prices one plane per content call
    import gmtkit.beta

    calls = []
    batched = gmtkit.beta.content
    monkeypatch.setattr(gmtkit.beta, "content", lambda *a: calls.append(np.shape(a[2])) or batched(*a))
    square = CellSet(2, 0, frozenset({(0, 0)})).refined(4)
    cantor = generate(GeneratorSpec(kind="four-corner-cantor", n=2, depth=6))
    cube = CellSet(3, 0, frozenset({(0, 0, 0)})).refined(3)
    sparse = generate(GeneratorSpec(kind="random-sparse", n=3, depth=6, ell=4, seed=0))
    cases = [
        ((square, [0.5, 0.5], 0.5, 1), dict(plane_grid=12, t_grid=6), "0x1.ae7c85100d9fap+0"),
        ((cantor, [0.4, 0.6], 0.3, 1), dict(plane_grid=12, t_grid=6), "0x1.85f1a32f59140p-5"),
        ((cube, [0.5, 0.5, 0.5], 0.3, 2), dict(plane_grid=8, t_grid=4, seed=3), "0x1.6d836a18a24dbp+1"),
        ((sparse, [0.5, 0.5, 0.5], 0.4, 1), dict(plane_grid=8, t_grid=5, seed=1), "0x1.178daf051ee94p-3"),
    ]
    for block in (1, 300, gmtkit.beta.PLANE_BLOCK):
        monkeypatch.setattr(gmtkit.beta, "PLANE_BLOCK", block)
        for args, kw, want in cases:
            calls.clear()
            assert content_beta(*args, **kw).hex() == want
            rows = kw["t_grid"] + 1  # every threshold, and the tail segment when it is there
            # each call holds at most `block` mask entries, or a single plane's rows
            assert all(t * m <= block or t <= rows for t, m in calls)


def test_content_beta_reprices_a_pass_after_an_improvement_within_it(monkeypatch):
    # on this input a refinement round improves on its best before the end of
    # a pass: the candidates after it are priced again, from the new best,
    # and the value is the one-at-a-time walk's
    import gmtkit.beta

    priced = []
    distances = gmtkit.beta._plane_distances
    monkeypatch.setattr(gmtkit.beta, "_plane_distances", lambda y, f: priced.append(len(f)) or distances(y, f))
    sparse = generate(GeneratorSpec(kind="random-sparse", n=3, depth=6, ell=4, seed=0))
    args, kw = (sparse, [0.5, 0.5, 0.5], 0.4, 1), dict(plane_grid=8, t_grid=5, seed=1)
    counts = {}
    for block in (1, 4 * 6 * _inside(*args[:3]), gmtkit.beta.PLANE_BLOCK):
        monkeypatch.setattr(gmtkit.beta, "PLANE_BLOCK", block)
        priced.clear()
        assert content_beta(*args, **kw).hex() == loop_content_beta(*args, **kw).hex()
        counts[block] = sum(priced)
    # 8 grid planes and 4 rounds of 4 candidates one at a time; more in stacks
    assert list(counts.values()) == [24, 29, 29]


_CONTENT_BETA_SHAPES = [(n, k) for n in (2, 3, 4) for k in range(1, n)]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from(_CONTENT_BETA_SHAPES),
    st.booleans(),
    st.sampled_from([0.5, 0.375, 0.25, 0.7]),
    st.sampled_from([(4, 2), (8, 3), (12, 5)]),
    st.sampled_from([1, 37, None]),
)
def test_content_beta_equals_the_one_plane_loop(seed, shape, mirrored, r, grids, block):
    # in mirrored sets the barycentre is the cube's centre, so an axis plane
    # meets dyadic distances and the dyadic thresholds r 2^-i exactly: ties
    import gmtkit.beta

    n, k = shape
    depth = {2: 5, 3: 4, 4: 3}[n]
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 1 << depth, size=(int(rng.integers(1, 120)), n))
    if mirrored:
        rows = np.vstack([rows, (1 << depth) - 1 - rows])
    cells = CellSet(n, depth, [tuple(row) for row in rows.tolist()])
    x = [0.5] * n if mirrored else rng.uniform(0.2, 0.8, size=n).tolist()
    plane_grid, t_grid = grids
    saved = gmtkit.beta.PLANE_BLOCK
    gmtkit.beta.PLANE_BLOCK = saved if block is None else block
    try:
        got = content_beta(cells, x, r, k, plane_grid=plane_grid, t_grid=t_grid, seed=seed)
    finally:
        gmtkit.beta.PLANE_BLOCK = saved
    assert got.hex() == loop_content_beta(cells, x, r, k, plane_grid=plane_grid, t_grid=t_grid, seed=seed).hex()


def test_content_beta_ties_at_a_threshold():
    # a mirrored square: centres 1/32 from the axis line through the barycentre
    # sit on the threshold 0.5 * 2^-4, in no superlevel set from it down
    cells = CellSet(2, 4, [(i, j) for i in range(16) for j in (7, 8)])
    dists = np.abs(cells.centers()[:, 1] - 0.5)
    assert (dists == 0.5 * 2.0**-4).all()
    for kw in (dict(plane_grid=4, t_grid=4), dict(plane_grid=8, t_grid=5)):
        assert content_beta(cells, [0.5, 0.5], 0.5, 1, **kw) == loop_content_beta(cells, [0.5, 0.5], 0.5, 1, **kw)
    cube = CellSet(3, 3, [(i, j, l) for i in range(8) for j in range(8) for l in (3, 4)])
    for seed in range(3):
        kw = dict(plane_grid=4, t_grid=4, seed=seed)
        assert content_beta(cube, [0.5] * 3, 0.5, 2, **kw).hex() == loop_content_beta(cube, [0.5] * 3, 0.5, 2, **kw).hex()


def test_orthonormalize_flags_rank_deficient_frames():
    from gmtkit.sparsify import _orthonormal_frames

    # (m, n, k) matrices whose columns span the frames' rows
    mats = np.array([[[3.0, 0.0], [4.0, 0.0], [0.0, 2.0]], [[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]]])
    frames, live = _orthonormal_frames(mats)
    assert live.tolist() == [True, False]
    assert np.allclose(frames[0], [[0.6, 0.8, 0.0], [0.0, 0.0, 1.0]], rtol=0.0, atol=1e-15)


def test_restricted_moments_start_again_for_a_larger_ball():
    # square_function's radii fall, so each ball is filtered from the last
    # one's rows; a radius that grows again reads every point
    from gmtkit.beta import _restricted_moment_values

    rng = np.random.default_rng(7)
    pts, w = rng.uniform(0.0, 1.0, size=(60, 3)), rng.uniform(0.1, 1.0, size=60)
    d2 = ((pts - 0.5) ** 2).sum(axis=1)
    radii = [0.5, 0.25, 0.25, 0.6, 0.3, 0.01]
    for got, r in zip(_restricted_moment_values(pts, w, d2, radii, 2), radii):
        want = _restricted_moment_values(pts, w, d2, [r], 2)[0]
        if want is None:
            assert got is None
        else:
            assert [a.tobytes() if isinstance(a, np.ndarray) else a for a in got] == [
                a.tobytes() if isinstance(a, np.ndarray) else a for a in want
            ]
