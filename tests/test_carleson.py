import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmtkit.beta import BetaProfile
from gmtkit.carleson import (
    _Arc,
    _band_reach,
    _miss_fractions,
    _upper_counts,
    DomainPair,
    EpsilonProfile,
    ball_pair,
    empty_pair,
    epsilon_n,
    epsilon_report,
    epsilon_square_function,
    halfspace_pair,
    pair_from_json,
    polygon_pair,
    slab_complement_pair,
    sphere_points,
    unit_sphere_area,
)
from gmtkit.errors import InvalidInputError

from helpers import brute_miss_fractions, full_matrix_epsilon_report, full_matrix_miss_fractions

TWO_PI = 2.0 * math.pi


def test_unit_sphere_area_values():
    assert unit_sphere_area(2) == pytest.approx(TWO_PI, rel=1e-15)
    assert unit_sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert unit_sphere_area(4) == pytest.approx(2.0 * math.pi**2, rel=1e-15)


def test_sphere_points_are_unit_and_deterministic():
    for dim in (2, 3, 4, 5):
        pts = sphere_points(dim, 600)
        assert pts.shape == (600, dim)
        norms = np.sqrt((pts * pts).sum(axis=1))
        assert np.abs(norms - 1.0).max() < 1e-12
        again = sphere_points(dim, 600)
        assert np.array_equal(pts, again)
    # equidistribution sanity: mean close to zero
    pts = sphere_points(3, 20_000)
    assert np.abs(pts.mean(axis=0)).max() < 0.02


def test_halfspace_deficiency_vanishes():
    dp = halfspace_pair([0.0, 1.0], [0.3, 0.3])
    rep = epsilon_report(dp, [0.3, 0.3], 0.2, sphere_samples=100_000, seed=0)
    assert rep.value < 1e-3
    assert rep.radius == 0.2
    assert rep.sphere_samples == 100_000


@pytest.mark.parametrize("dim", [2, 3])
def test_miss_fractions_match_per_sample_loop(dim):
    rng = np.random.default_rng(dim)
    # the axes are samples and normals too: their products are exact zeros,
    # which count as below the plane
    axes = np.concatenate([np.eye(dim), -np.eye(dim)])
    offsets = np.concatenate([sphere_points(dim, 300), axes])
    labels = rng.integers(-1, 2, size=len(offsets))
    normals = np.concatenate([rng.standard_normal((9, dim)), axes])
    assert set(labels.tolist()) == {-1, 0, 1}
    got = _miss_fractions(offsets[labels == 1], offsets[labels == -1], len(labels), normals)
    assert np.array_equal(got, brute_miss_fractions(offsets, labels, normals))


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_band_miss_fractions_match_per_sample_loop(dim, monkeypatch):
    monkeypatch.setattr("gmtkit.carleson.BLOCK_ROWS", 7)  # many blocks, the last one partial
    rng = np.random.default_rng(10 + dim)
    for centre in (np.eye(dim)[0], sphere_points(dim, 7)[3]):
        us = centre + 0.05 * rng.standard_normal((12, dim))
        us /= np.sqrt((us * us).sum(axis=1))[:, None]
        reach = _band_reach(us, centre)
        # samples at heights around the band's edges, and beyond them
        heights = np.concatenate([rng.uniform(-1.0, 1.0, 200), reach * rng.uniform(0.9, 1.1, 100), -reach * rng.uniform(0.9, 1.1, 100)])
        across = rng.standard_normal((len(heights), dim))
        across -= (across @ centre)[:, None] * centre
        across /= np.sqrt((across * across).sum(axis=1))[:, None]
        offsets = heights[:, None] * centre + np.sqrt(1.0 - heights * heights)[:, None] * across
        if centre[0] == 1.0:
            # dot products with an axis centre are exact: samples at exactly
            # +-reach, which lie in the band, and the floats just outside it
            rim = np.array([reach, -reach, np.nextafter(reach, 2.0), np.nextafter(-reach, -2.0)])
            side = np.zeros((len(rim), dim))
            side[:, 1] = np.sqrt(1.0 - rim * rim)
            side[:, 0] = rim
            offsets = np.concatenate([offsets, side])
            assert (offsets[-4:] @ centre).tolist() == rim.tolist()
        labels = rng.integers(-1, 2, size=len(offsets))
        plus, minus = offsets[labels == 1], offsets[labels == -1]
        for cands in (us, np.concatenate([us, np.zeros((1, dim))])):  # a zero candidate: every sample in the band
            got = _miss_fractions(plus, minus, len(labels), cands, centre)
            assert np.array_equal(got, brute_miss_fractions(offsets, labels, cands))
            assert np.array_equal(got, _miss_fractions(plus, minus, len(labels), cands))


def tie_rich_table(dim: int, us: np.ndarray, per: int, seed: int) -> np.ndarray:
    """`per` unit rows orthogonal to each row of `us`, up to rounding: their
    products with it are ties whose sign is a rounding's."""
    rng = np.random.default_rng(seed)
    rows = []
    for u in us:
        v = rng.standard_normal((per, dim))
        v -= (v @ u)[:, None] * u
        rows.append(v / np.sqrt((v * v).sum(axis=1))[:, None])
    return np.concatenate(rows)


# sphere_points(2, 2404) and sphere_points(2, 4) are orthogonal at row 901 and
# the first normal; the matrix-vector product gives +1.01e-17 there, every
# product of two or more rows and columns -1.01e-17
PINNED_ROWS, PINNED_NORMALS = 2404, 4


def test_pinned_tie_is_a_matrix_vector_rounding():
    table, us = sphere_points(2, PINNED_ROWS), sphere_points(2, PINNED_NORMALS)
    assert (table[901:902] @ us.T)[0, 0] > 0.0
    assert (table[900:902] @ us.T)[1, 0] < 0.0
    assert np.count_nonzero(table @ us.T > 0.0, axis=0).tolist() == [1202] * 4


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_upper_counts_do_not_depend_on_block_rows(dim, monkeypatch):
    tables = [(tie_rich_table(dim, sphere_points(dim, 5), 200, dim), sphere_points(dim, 5))]
    if dim == 2:
        tables.append((sphere_points(2, PINNED_ROWS), sphere_points(2, PINNED_NORMALS)))
    for table, us in tables:
        counts = []
        for rows in (1, 2, 7, 8192):
            monkeypatch.setattr("gmtkit.carleson.BLOCK_ROWS", rows)
            counts.append(_upper_counts(table, us).tolist())
            # one candidate at a time is a one-column product
            counts.append([int(_upper_counts(table, us[i : i + 1])[0]) for i in range(len(us))])
        assert all(c == counts[0] for c in counts)
        assert counts[0] == np.count_nonzero(table @ us.T > 0.0, axis=0).tolist()


def arc_of(table):
    """The rows of a (rows, 2) table as an arc, by their np.arctan2 angles."""
    angles = np.arctan2(table[:, 1], table[:, 0])
    order = np.argsort(angles, kind="stable")
    return _Arc(angles[order], table[order])


def arcs_of(plus, minus):
    return [arc_of(plus), arc_of(minus)]


def test_arc_counts_take_the_pinned_tie_from_the_product():
    table, us = sphere_points(2, PINNED_ROWS), sphere_points(2, PINNED_NORMALS)
    labels = np.resize([1, -1, 0], len(table))
    plus, minus = table[labels == 1], table[labels == -1]
    got = _miss_fractions(*arcs_of(plus, minus), len(table), us)
    assert np.array_equal(got, _miss_fractions(plus, minus, len(table), us))
    assert np.array_equal(got, full_matrix_miss_fractions(table, labels, us))
    # every sample +1: the first normal's misses are the 1,202 rows below it
    every = DomainPair(2, lambda pts: np.ones(len(pts), dtype=int))
    case = (every, [0.5, 0.5], 0.25, PINNED_NORMALS, PINNED_ROWS, 0, 0)
    rep = epsilon_report(*case)
    assert rep == full_matrix_epsilon_report(*case)
    assert rep.value == unit_sphere_area(2) * (1202 / 2404)


def test_arc_counts_at_the_branch_cut_and_on_ties():
    rng = np.random.default_rng(5)
    cut = np.array([[-1.0, 0.0], [-1.0, -0.0]])  # angles +pi and -pi
    assert np.arctan2(cut[:, 1], cut[:, 0]).tolist() == [math.pi, -math.pi]
    axes = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [-0.0, 1.0]])
    us = np.concatenate([sphere_points(2, 8), cut, axes, rng.standard_normal((6, 2))])
    us /= np.sqrt((us * us).sum(axis=1))[:, None]
    exact = np.concatenate([sphere_points(2, 500), cut, cut, axes])  # products with the axes and the cut are exact
    for offsets in (exact, np.concatenate([exact, tie_rich_table(2, us, 3, 6)])):
        labels = rng.integers(-1, 2, size=len(offsets))
        plus, minus = offsets[labels == 1], offsets[labels == -1]
        for cands in (us, np.concatenate([us, np.zeros((1, 2))]), np.zeros((2, 2))):  # zero candidates: atan2 says 0, no row above
            got = _miss_fractions(*arcs_of(plus, minus), len(labels), cands)
            # a tie's sign is the product's, which a sum of rounded terms need not share
            assert np.array_equal(got, full_matrix_miss_fractions(offsets, labels, cands))
            assert np.array_equal(got, _miss_fractions(plus, minus, len(labels), cands))
            if offsets is exact:
                assert np.array_equal(got, brute_miss_fractions(offsets, labels, cands))


def test_arc_counts_with_an_empty_table():
    offsets = sphere_points(2, 300)
    us = sphere_points(2, 9)
    for labels in (np.ones(300, dtype=int), -np.ones(300, dtype=int), np.zeros(300, dtype=int)):
        plus, minus = offsets[labels == 1], offsets[labels == -1]
        got = _miss_fractions(*arcs_of(plus, minus), len(labels), us)
        assert np.array_equal(got, brute_miss_fractions(offsets, labels, us))


def test_plane_report_sends_only_edge_rows_through_the_product(monkeypatch):
    sizes = []

    def spy(table, us):
        sizes.append(len(table))
        return _upper_counts(table, us)

    monkeypatch.setattr("gmtkit.carleson._upper_counts", spy)
    dp = ball_pair([0.5, 0.5], 0.25)
    rep = epsilon_report(dp, [0.5, 0.75], 0.25, normals=64, sphere_samples=100_000, rounds=12, seed=1)
    monkeypatch.undo()
    assert rep == full_matrix_epsilon_report(dp, [0.5, 0.75], 0.25, 64, 100_000, 12, 1)
    assert sum(sizes) <= 8


def test_epsilon_report_checks_the_labels():
    two = DomainPair(2, lambda pts: np.full(len(pts), 2))
    with pytest.raises(InvalidInputError):
        epsilon_report(two, [0.5, 0.5], 0.25, sphere_samples=64)
    three = DomainPair(2, lambda pts: np.array([1, -1, 0]))
    with pytest.raises(InvalidInputError):
        epsilon_report(three, [0.5, 0.5], 0.25, sphere_samples=64)
    half = DomainPair(2, lambda pts: np.full(len(pts), 0.5))
    with pytest.raises(InvalidInputError):
        epsilon_report(half, [0.5, 0.5], 0.25, sphere_samples=64)


def test_sign_classifiers_match_the_nested_comparisons():
    rng = np.random.default_rng(3)
    # grid points fall exactly on the plane and, at radius 1/4, on the circle
    pts = np.concatenate([rng.integers(0, 17, (400, 2)) / 16, rng.random((400, 2)), [[np.nan, 0.5], [0.5, np.nan]]])
    point, normal = np.array([0.5, 0.5]), np.array([0.0, 1.0])
    s = (pts - point) @ normal
    d2 = ((pts - point) ** 2).sum(axis=1)
    for labels, want in (
        (halfspace_pair(normal, point).classify(pts), np.where(s > 0.0, 1, np.where(s < 0.0, -1, 0))),
        (ball_pair(point, 0.25).classify(pts), np.where(d2 < 0.0625, 1, np.where(d2 > 0.0625, -1, 0))),
    ):
        assert labels.dtype == int
        assert labels.tolist() == want.tolist()
        assert set(labels[:400].tolist()) == {-1, 0, 1}


@st.composite
def epsilon_cases(draw):
    """(pair, x, r, normals, samples, rounds, seed): small epsilon searches on
    each pair kind, coordinates on a 1/16 grid so that samples can fall on a
    pair's boundaries."""
    kind = draw(st.sampled_from(["halfspace", "slab-complement", "ball", "empty", "polygon"]))
    dim = 2 if kind == "polygon" else draw(st.integers(min_value=2, max_value=5))
    grid = st.integers(min_value=0, max_value=16).map(lambda i: i / 16)
    point = st.lists(grid, min_size=dim, max_size=dim)
    normal = st.lists(st.integers(min_value=-3, max_value=3), min_size=dim, max_size=dim).filter(any)
    if kind == "halfspace":
        pair = halfspace_pair(draw(normal), draw(point))
    elif kind == "slab-complement":
        pair = slab_complement_pair(draw(normal), draw(point), draw(st.sampled_from([0.0, 0.0625, 0.25])))
    elif kind == "ball":
        pair = ball_pair(draw(point), draw(st.sampled_from([0.125, 0.25, 0.5])))
    elif kind == "empty":
        pair = empty_pair(dim)
    else:
        pair = polygon_pair(draw(st.lists(st.tuples(grid, grid), min_size=3, max_size=5)))
    return (
        pair,
        draw(point),
        draw(st.sampled_from([0.0625, 0.25, 1.0 / 3.0, 1.0])),
        draw(st.integers(min_value=2, max_value=12)),
        draw(st.integers(min_value=8, max_value=400)),
        draw(st.integers(min_value=0, max_value=12)),
        draw(st.integers(min_value=0, max_value=2**16)),
    )


@settings(max_examples=60)
@given(epsilon_cases())
def test_epsilon_report_matches_full_matrix_search(case):
    assert epsilon_report(*case) == full_matrix_epsilon_report(*case)


def stripes(dim):
    """A custom pair: stripes of the three labels across the coordinate sum, as float labels."""
    return DomainPair(dim, lambda pts: np.floor(8.0 * np.atleast_2d(pts).sum(axis=1)) % 3.0 - 1.0)


@st.composite
def blocked_epsilon_cases(draw):
    """(BLOCK_ROWS, case): an `epsilon_cases` case, its pair kept or swapped for
    `stripes`, with a sample count just below, at or just above a multiple of
    the block size."""
    rows = draw(st.sampled_from([1, 7, 8192]))
    pair, x, r, normals, _, rounds, seed = draw(epsilon_cases())
    if draw(st.booleans()):
        pair = stripes(pair.dim)
    blocks = draw(st.integers(min_value=1, max_value=2 if rows == 8192 else 40))
    samples = max(8, rows * blocks + draw(st.sampled_from([-1, 0, 1])))
    return rows, (pair, x, r, normals, samples, rounds, seed)


@settings(max_examples=40, deadline=None)
@given(blocked_epsilon_cases())
def test_blocked_classification_matches_full_matrix_search(blocked):
    rows, case = blocked
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("gmtkit.carleson.BLOCK_ROWS", rows)
        rep = epsilon_report(*case)
    assert rep == full_matrix_epsilon_report(*case)


@pytest.mark.parametrize("dim", [2, 3])
def test_classify_gets_the_samples_in_order_in_blocks(dim, monkeypatch):
    monkeypatch.setattr("gmtkit.carleson.BLOCK_ROWS", 7)
    x = [0.5] * dim
    calls = []

    def spy(pts):
        calls.append(np.array(pts))
        return np.ones(len(pts), dtype=int)

    epsilon_report(DomainPair(dim, spy), x, 0.25, 4, 40, 1, 0)
    assert [len(c) for c in calls] == [7] * 5 + [5]
    assert np.array_equal(np.concatenate(calls), np.asarray(x) + 0.25 * sphere_points(dim, 40))

    seen = []

    def late(pts):
        seen.append(len(pts))
        labels = np.zeros(len(pts), dtype=int)
        if sum(seen) == 40:
            labels[-1] = 2  # only the last sample, in the last, partial block
        return labels

    with pytest.raises(InvalidInputError, match=r"^classify must give each of the 40 samples one label in \{-1, 0, 1\}$"):
        epsilon_report(DomainPair(dim, late), x, 0.25, 4, 40, 1, 0)
    assert seen == [7] * 5 + [5]


def test_lone_rows_are_classified_as_among_others():
    # x + r * sample 4 of 12 lies on the plane up to rounding; alone, numpy's
    # one-row product would round it to the other side
    pts = np.array([0.5, 0.5]) + 0.25 * sphere_points(2, 12)
    for dp in (halfspace_pair([1.0, 1.0], [0.5, 0.5]), slab_complement_pair([1.0, 1.0], [0.5, 0.5], 0.0)):
        whole = dp.classify(pts)
        assert [int(dp.classify(p)[0]) for p in pts] == whole.tolist()
        assert [int(dp.classify(pts[i : i + 1])[0]) for i in range(12)] == whole.tolist()


def test_plane_report_takes_no_angle_and_no_sort_of_the_samples(monkeypatch):
    sizes = []

    def spy(f):
        def call(a, *args, **kwargs):
            sizes.append(np.size(a))
            return f(a, *args, **kwargs)

        return call

    for name in ("arctan2", "argsort", "sort"):
        monkeypatch.setattr(np, name, spy(getattr(np, name)))
    rep = epsilon_report(ball_pair([0.5, 0.5], 0.25), [0.5, 0.75], 0.25, normals=16, sphere_samples=100_000, rounds=4, seed=1)
    monkeypatch.undo()
    assert rep == full_matrix_epsilon_report(ball_pair([0.5, 0.5], 0.25), [0.5, 0.75], 0.25, 16, 100_000, 4, 1)
    assert sizes and max(sizes) <= 16  # the candidates' angles only


@pytest.mark.parametrize("pair", [halfspace_pair([0.0, 1.0], [0.5, 0.5]), DomainPair(2, lambda pts: np.ones(len(pts), dtype=int))], ids=["halfspace", "every-sample-plus"])
def test_plane_report_holds_no_sample_table(pair):
    samples = 200_000
    tracemalloc.start()
    try:
        epsilon_report(pair, [0.5, 0.5], 0.25, normals=64, sphere_samples=samples, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * samples


def test_epsilon_report_forms_no_samples_by_normals_array():
    # the (100000, 64) float product alone would take 51 MB
    dp = halfspace_pair([0.0, 1.0], [0.5, 0.5])
    tracemalloc.start()
    try:
        epsilon_report(dp, [0.5, 0.5], 0.25, normals=64, sphere_samples=100_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_round_minima_never_increase():
    dp = ball_pair([0.5, 0.5], 0.4)
    rep = epsilon_report(dp, [0.5, 0.9], 0.1, sphere_samples=20_000, rounds=8, seed=1)
    for a, b in zip(rep.round_minima, rep.round_minima[1:]):
        assert b <= a
    assert rep.value == rep.round_minima[-1]
    assert len(rep.round_minima) == 9


def test_more_rounds_extend_the_same_search():
    dp = halfspace_pair([0.6, 0.8], [0.2, 0.1])
    short = epsilon_report(dp, [0.2, 0.1], 0.3, sphere_samples=8192, rounds=3, seed=4)
    long = epsilon_report(dp, [0.2, 0.1], 0.3, sphere_samples=8192, rounds=12, seed=4)
    assert short.round_minima == long.round_minima[: len(short.round_minima)]
    assert long.value <= short.value


def test_empty_pair_saturates():
    dp = empty_pair(2)
    rep = epsilon_report(dp, [0.5, 0.5], 0.25, sphere_samples=4096, seed=0)
    assert rep.value == TWO_PI
    assert all(v == TWO_PI for v in rep.round_minima)


def test_tilted_halfspace_bounded_by_angle():
    # plane through x tilted by theta from the tested normal family:
    # the best halfspace normal misses only the two theta-wedges
    for theta in (0.2, 0.05):
        normal = [math.sin(theta), math.cos(theta)]
        dp = halfspace_pair(normal, [0.5, 0.5])
        coarse = epsilon_report(dp, [0.5, 0.5], 0.1, normals=8, sphere_samples=50_000, rounds=0, seed=2)
        refined = epsilon_report(dp, [0.5, 0.5], 0.1, normals=8, sphere_samples=50_000, rounds=10, seed=2)
        assert refined.value <= coarse.value
        assert refined.value <= theta * 1.1


def test_enlarging_the_pair_shrinks_epsilon():
    # halfspace = slab complement with gap 0: growing the omitted slab can
    # only add misclassified directions
    x = [0.5, 0.5]
    shared = dict(sphere_samples=30_000, normals=32, rounds=6, seed=3)
    base = epsilon_n(halfspace_pair([0.0, 1.0], x), x, 0.2, **shared)
    thin = epsilon_n(slab_complement_pair([0.0, 1.0], x, 0.02), x, 0.2, **shared)
    thick = epsilon_n(slab_complement_pair([0.0, 1.0], x, 0.08), x, 0.2, **shared)
    assert base <= thin + 1e-12
    assert thin <= thick + 1e-12
    assert thick > 0.1  # a fat missing slab is genuinely visible


def test_ball_profile_decays_linearly():
    # near a circle boundary point the deficiency scales like r
    dp = ball_pair([0.5, 0.5], 0.25)
    prof = epsilon_square_function(
        dp, [0.5, 0.75], 1, 8, normals=48, sphere_samples=40_000, rounds=10, seed=0
    )
    vals = prof.values
    for j, v in enumerate(vals[:-1], start=prof.levels[0]):
        if j >= 3:
            assert vals[j - prof.levels[0] + 1] <= 0.7 * v
    # ratio to r settles near the inverse curvature radius 1/0.25 = 4
    ratios = [v / 2.0 ** (-j) for j, v in zip(prof.levels, vals) if j >= 3]
    assert 3.9 < min(ratios) <= max(ratios) < 4.3


def test_empty_profile_is_flat_and_total_additive():
    dp = empty_pair(2)
    prof = epsilon_square_function(dp, [0.5, 0.5], 2, 6, sphere_samples=512, rounds=1)
    assert all(v == TWO_PI for v in prof.values)
    assert prof.total == pytest.approx(5 * TWO_PI**2 * math.log(2), rel=1e-12)
    assert prof.pairs()[0] == (0.25, TWO_PI)


def test_epsilon_and_beta_profiles_are_one_class():
    assert EpsilonProfile is BetaProfile
    prof = epsilon_square_function(empty_pair(2), [0.5, 0.5], 2, 4, sphere_samples=512, rounds=1)
    assert isinstance(prof, BetaProfile)
    assert EpsilonProfile(prof.center, prof.levels, prof.values, prof.total) == prof


def test_halfspace_profile_sums_to_nothing():
    dp = halfspace_pair([1.0, 0.0], [0.5, 0.5])
    prof = epsilon_square_function(dp, [0.5, 0.5], 2, 8, sphere_samples=20_000, rounds=8, seed=0)
    assert prof.total < 1e-6


def test_polygon_pair_classification():
    dp = polygon_pair([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    labels = dp.classify(np.array([[0.5, 0.5], [2.0, 0.5], [0.5, -3.0]]))
    assert labels[0] == 1
    assert labels[1] == -1
    assert labels[2] == -1
    # a unit square looks locally like a halfspace at an edge midpoint
    rep = epsilon_report(dp, [0.5, 0.0], 0.05, sphere_samples=50_000, seed=0)
    assert rep.value < 1e-3


def test_pair_from_json_kinds():
    specs = [
        {"kind": "halfspace", "normal": [0.0, 1.0], "point": [0.5, 0.5]},
        {"kind": "slab-complement", "normal": [0.0, 1.0], "point": [0.5, 0.5], "gap": 0.1},
        {"kind": "ball", "center": [0.5, 0.5], "radius": 0.25},
        {"kind": "empty", "dim": 2},
        {"kind": "polygon", "vertices": [[0, 0], [1, 0], [0.5, 1]]},
    ]
    for spec in specs:
        dp = pair_from_json(spec)
        assert dp.dim == 2
        labels = dp.classify(np.array([[0.51, 0.52], [9.0, 9.0]]))
        assert set(np.unique(labels)).issubset({-1, 0, 1})
    with pytest.raises(InvalidInputError):
        pair_from_json({"kind": "mystery"})
    with pytest.raises(InvalidInputError):
        pair_from_json({"kind": "ball", "center": [0.5, 0.5], "radius": -1.0})


def test_epsilon_report_validates():
    dp = halfspace_pair([0.0, 1.0], [0.5, 0.5])
    with pytest.raises(InvalidInputError):
        epsilon_report(dp, [0.5, 0.5], 0.0)
    with pytest.raises(InvalidInputError):
        epsilon_report(dp, [0.5, 0.5], 0.1, normals=1)
    with pytest.raises(InvalidInputError):
        epsilon_report(dp, [0.5, 0.5], 0.1, sphere_samples=4)
    with pytest.raises(InvalidInputError):
        epsilon_report(dp, [0.5], 0.1)
    with pytest.raises(InvalidInputError):
        epsilon_square_function(dp, [0.5, 0.5], 4, 2)


def test_three_dimensional_halfspace():
    dp = halfspace_pair([0.0, 0.0, 1.0], [0.5, 0.5, 0.5])
    rep = epsilon_report(dp, [0.5, 0.5, 0.5], 0.2, sphere_samples=60_000, rounds=12, seed=0)
    assert rep.value < 0.02 * unit_sphere_area(3)
