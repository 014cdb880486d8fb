import json
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import gmtkit
import gmtkit.frostman
import gmtkit.sparsify
from gmtkit.cli import main
from gmtkit.content import dyadic_cover_cost
from gmtkit.corpus import GeneratorSpec, generate
from gmtkit.errors import InvalidInputError, VerificationError
from gmtkit.frostman import (
    CellMeasure,
    SparseMeasure,
    ball_frostman_check,
    build_frostman,
    verify_frostman,
)
from gmtkit.gauge import power_exp_gauge, power_gauge, scaled_gauge, vanishing_gauge
from gmtkit.lattice import CellSet, DyadicCube, Pyramid, level_diameter, union

from helpers import (
    brute_ball_check,
    brute_cube_mass,
    brute_frostman_max_ratio,
    brute_frostman_worst,
    child_indices,
)

BARE = power_exp_gauge(1, 0.0)  # h(r) = r


def full_square(depth: int) -> CellSet:
    return CellSet(2, 0, frozenset({(0, 0)})).refined(depth)


small_sets = st.builds(
    lambda n, depth, picks: CellSet(
        n, depth, frozenset(tuple(p % (2**depth) for p in pick[:n]) for pick in picks)
    ),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=3),
    st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)), min_size=1, max_size=6),
)

gauges = st.sampled_from([BARE, power_gauge(1), power_gauge(2), vanishing_gauge(1)])


def test_full_square_depth2_hands_out_root_diameter():
    mu = build_frostman(full_square(2), BARE)
    assert mu.total == pytest.approx(math.sqrt(2), rel=1e-12)
    for mass in mu.masses.values():
        assert mass == pytest.approx(math.sqrt(2) / 16, rel=1e-12)


def test_single_cell_is_saturated_only_at_bottom():
    cells = CellSet(2, 5, frozenset({(7, 23)}))
    for h in (BARE, power_gauge(2), vanishing_gauge(1)):
        mu = build_frostman(cells, h)
        assert mu.total == pytest.approx(h(math.sqrt(2) * 2.0**-5), rel=1e-12)


def test_cantor_duality_with_cover_cost():
    cells = generate(GeneratorSpec(kind="four-corner-cantor", n=2, depth=6))
    mu = build_frostman(cells, BARE)
    sol = dyadic_cover_cost(cells, BARE, 0)
    assert mu.total == pytest.approx(sol.cost, rel=1e-9)
    assert mu.total == pytest.approx(math.sqrt(2), rel=1e-9)


def test_empty_cells_rejected():
    with pytest.raises(InvalidInputError):
        build_frostman(CellSet(2, 2, frozenset()), BARE)


def test_verify_passes_own_construction_exactly():
    mu = build_frostman(full_square(3), BARE)
    rep = verify_frostman(mu, BARE)
    assert rep.passed
    assert rep.max_ratio == pytest.approx(1.0, abs=1e-9)
    assert rep.saturated_count >= 1
    assert rep.saturated_cover_cost == pytest.approx(mu.total, rel=1e-9)


def test_verify_fails_on_doubled_measure():
    mu = build_frostman(full_square(3), BARE).scaled(2.0)
    rep = verify_frostman(mu, BARE)
    assert not rep.passed
    assert rep.max_ratio == pytest.approx(2.0, rel=1e-9)


def test_worst_cube_is_the_first_of_tied_cubes():
    rep = verify_frostman(CellMeasure(2, 2, {(0, 0): 1.0, (3, 3): 1.0}), BARE)
    assert rep.worst_cube == (2, (0, 0))
    assert rep.max_ratio == pytest.approx(4 / math.sqrt(2), rel=1e-12)


def test_verify_zero_measure_passes_with_zero_ratio():
    mu = CellMeasure(2, 2, {})
    rep = verify_frostman(mu, BARE)
    assert rep.passed
    assert rep.max_ratio == 0.0


@pytest.mark.parametrize("mu", [
    build_frostman(CellSet(2, 2, [(0, 0), (1, 1)]), power_exp_gauge(1, 30.0)).with_depth(40),
    CellMeasure(2, 40, {(0, 0): 0.5, (1, 1): 0.5}),
], ids=["below-the-cells", "rolled-up"])
def test_a_vanishing_cap_fails_the_frostman_stage(mu):
    # r^31 underflows to 0.0 at level 36, where either measure has mass
    with pytest.raises(VerificationError, match="^gauge powerexp:1:30 vanishes at level 36 but mass is present$") as err:
        verify_frostman(mu, power_exp_gauge(1, 30.0))
    assert err.value.stage == "frostman"


def test_cube_mass_aggregation():
    mu = build_frostman(full_square(2), BARE)
    assert mu.cube_mass(DyadicCube(2, 0, (0, 0))) == pytest.approx(mu.total, rel=1e-12)
    single = CellMeasure(2, 2, {(0, 0): 1.0})
    assert single.cube_mass(DyadicCube(2, 1, (0, 0))) == 1.0
    assert single.cube_mass(DyadicCube(2, 1, (1, 1))) == 0.0
    with pytest.raises(InvalidInputError):
        single.cube_mass(DyadicCube(2, 3, (0, 0)))


@given(small_sets, gauges)
def test_duality_on_random_sets(cells, h):
    mu = build_frostman(cells, h)
    sol = dyadic_cover_cost(cells, h, 0)
    assert mu.total == pytest.approx(sol.cost, rel=1e-9)


@given(small_sets, gauges)
def test_construction_respects_cap_brute_force(cells, h):
    mu = build_frostman(cells, h)
    worst = brute_frostman_max_ratio(mu.masses, mu.n, mu.cell_level, h)
    assert worst <= 1.0 + 1e-9
    rep = verify_frostman(mu, h)
    assert rep.max_ratio == pytest.approx(worst, rel=1e-9)


@st.composite
def deep_measures(draw):
    """A `with_depth` measure declared 1-3 levels below its cells, whose masses
    are multiples of 2^-6, so that every cube's mass is an exact sum."""
    n, cell_level = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    cell = st.tuples(*[st.integers(0, (1 << cell_level) - 1)] * n)
    cells = draw(st.lists(cell, min_size=1, max_size=6, unique=True))
    masses = {c: draw(st.integers(1, 64)) * 2.0**-6 for c in cells}
    return CellMeasure(n, cell_level, masses).with_depth(cell_level + draw(st.integers(1, 3)))


@given(deep_measures(), st.sampled_from([BARE, power_gauge(1), power_gauge(2), power_gauge(3), vanishing_gauge(1)]))
def test_verify_checks_every_level_down_to_the_depth(mu, h):
    # below the explicit cells each subcube holds its even share; power:n gives
    # every deeper level of a cell the same ratio, so ties across levels occur
    worst, where = brute_frostman_worst(mu.masses, mu.n, mu.cell_level, mu.depth, h)
    rep = verify_frostman(mu, h)
    assert rep.max_ratio == worst
    assert rep.worst_cube == where


def brute_saturated_levels(mu: CellMeasure, h) -> list[int]:
    """Levels of the maximal saturated cubes, in the order a recursive walk
    from the root meets them, by scanning every cell at every cube."""
    found = []

    def walk(level, idx):
        shift = mu.cell_level - level
        if not any(tuple(c >> shift for c in cell) == idx for cell in mu.masses):
            return
        if brute_cube_mass(mu.masses, mu.cell_level, level, idx) >= h(level_diameter(mu.n, level)) * (1 - 1e-9):
            found.append(level)
            return
        if level < mu.cell_level:
            for child in child_indices(idx):
                walk(level + 1, child)

    walk(0, (0,) * mu.n)
    return found


@given(small_sets, gauges, st.sampled_from([1.0, 0.5, 2.0, 0.999]))
# saturated at levels 2, 2, 1 in walk order, whose cost a level-by-level sum rounds differently
@example(union([CellSet(2, 2, frozenset({(0, 0), (0, 2)})), CellSet(2, 1, frozenset({(1, 0)}))]).refined(4),
         vanishing_gauge(1), 1.0)
def test_saturated_cubes_match_brute_force(cells, h, c):
    mu = build_frostman(cells, h).scaled(c)
    levels = brute_saturated_levels(mu, h)
    rep = verify_frostman(mu, h)
    assert rep.saturated_count == len(levels)
    assert rep.saturated_cover_cost == float(sum(h(level_diameter(mu.n, lvl)) for lvl in levels))


@given(small_sets, st.tuples(st.integers(0, 7), st.integers(0, 7)))
def test_adding_cells_never_loses_mass(cells, extra):
    h = BARE
    base = build_frostman(cells, h).total
    cell = tuple(e % (2**cells.depth) for e in extra[: cells.n])
    grown = CellSet(cells.n, cells.depth, cells.cells | {cell})
    assert build_frostman(grown, h).total >= base - 1e-12 * max(1.0, base)


@given(small_sets, gauges)
def test_support_containment(cells, h):
    mu = build_frostman(cells, h)
    assert set(mu.masses) <= set(cells.cells)


@given(small_sets, st.floats(min_value=0.1, max_value=8.0))
def test_gauge_scaling_commutes(cells, c):
    base = build_frostman(cells, BARE)
    scaled = build_frostman(cells, scaled_gauge(BARE, c))
    for idx, mass in base.masses.items():
        assert scaled.masses[idx] == pytest.approx(c * mass, rel=1e-12)


def test_ball_check_single_cell_decreases_in_radius():
    mu = CellMeasure(2, 4, {(5, 9): 1.0})
    rep = ball_frostman_check(mu, 1, samples=64, seed=0)
    # every ball that meets the cell holds its whole mass 1, so the ratio
    # 1/r^k is largest at the smallest radius, the cell's own diameter
    assert rep.constant == 1.0 / level_diameter(2, 4)
    assert rep.worst[1] == level_diameter(2, 4)


def test_ball_check_rejects_bad_input():
    mu = CellMeasure(2, 4, {(5, 9): 1.0})
    for samples in (0, -7):
        with pytest.raises(InvalidInputError):
            ball_frostman_check(mu, 1, samples=samples)
    with pytest.raises(InvalidInputError):
        ball_frostman_check(mu, 0)
    # (2^-50)^30 underflows to 0.0, so no ratio mass / r^k is defined
    with pytest.raises(InvalidInputError):
        ball_frostman_check(CellMeasure(1, 50, {(5,): 1.0}), 30, samples=2)


@st.composite
def ball_cases(draw):
    """(measure, k, samples, seed): random masses on a few cells, declared
    down to the cell level or up to two levels deeper."""
    n = draw(st.integers(min_value=1, max_value=3))
    cell_level = draw(st.integers(min_value=0, max_value=3))
    depth = cell_level + draw(st.integers(min_value=0, max_value=2))
    cell = st.tuples(*[st.integers(min_value=0, max_value=(1 << cell_level) - 1)] * n)
    mass = st.floats(min_value=1e-3, max_value=10.0)
    masses = draw(st.dictionaries(cell, mass, max_size=8))
    return (CellMeasure(n, depth, masses, cell_level), draw(st.sampled_from([1, 2])),
            draw(st.integers(min_value=1, max_value=10)), draw(st.integers(min_value=0, max_value=3)))


@given(ball_cases())
@example((CellMeasure(2, 3, {}), 1, 6, 0))
@example((CellMeasure(3, 4, {(0, 1, 2): 0.1, (0, 1, 3): 0.2, (1, 1, 2): 0.3, (3, 3, 3): 0.7}, 2), 2, 10, 1))
# 33 levels in n=2: keys past 62 bits
@example((CellMeasure(2, 33, {((1 << 32) - 1, 5): 1.0, (7, 1 << 31): 0.5}, 32), 1, 3, 2))
def test_ball_check_matches_per_cube_loop(case):
    mu, k, samples, seed = case
    rep = ball_frostman_check(mu, k, samples=samples, seed=seed)
    assert (rep.constant, rep.worst, rep.centers, rep.radii) == brute_ball_check(mu, k, samples, seed)


# Measures declared below their cells: every cell centre is a corner of the
# deeper grids, so cubes sit at gaps (1, 1) or (1, 1, 1) in units of their side
# and squared gaps tie with r*r up to its rounding (2.0000000000000004 and
# 2.9999999999999996 units); those pairs are decided by the np.dot kernel.
BAND_TIES = [
    (CellMeasure(2, 2, {(0, 0): 1.0, (1, 1): 1.0}, 1), 2, 4, 0),  # the diagonal cube meets the ball
    (CellMeasure(2, 3, {(0, 0): 1.0, (1, 1): 1.0}, 1), 2, 4, 0),
    (CellMeasure(3, 3, {(0, 0, 0): 1.0, (1, 1, 1): 1.0}, 1), 2, 4, 0),  # the diagonal cube misses it
]


@pytest.mark.parametrize("case", BAND_TIES)
def test_ball_check_decides_ties_with_r_squared_as_the_per_cube_loop(case):
    mu, k, samples, seed = case
    rep = ball_frostman_check(mu, k, samples=samples, seed=seed)
    assert (rep.constant, rep.worst, rep.centers, rep.radii) == brute_ball_check(mu, k, samples, seed)


@given(ball_cases(), st.integers(min_value=1, max_value=40))
@example(BAND_TIES[0], 3)
@example(BAND_TIES[2], 1)
def test_ball_check_in_small_passes_matches_per_cube_loop(case, block):
    mu, k, samples, seed = case
    with mock.patch.object(gmtkit.frostman, "BALL_BLOCK", block):
        rep = ball_frostman_check(mu, k, samples=samples, seed=seed)
    assert (rep.constant, rep.worst, rep.centers, rep.radii) == brute_ball_check(mu, k, samples, seed)


def test_ball_check_zero_measure():
    rep = ball_frostman_check(CellMeasure(2, 3, {}), 1, samples=32)
    assert rep.constant == 0.0


def test_ball_check_constant_bounded_dimensionally():
    # exhaustive small case: a cube-cap measure for h(r) = r^k has ball
    # constant at most 3^n * 2^k over dyadic radii
    mu = build_frostman(full_square(4), BARE)
    rep = ball_frostman_check(mu, 1, samples=256, seed=1)
    assert rep.constant <= 9 * 2 * (1 + 1e-9)


def test_measure_roundtrip_byte_stable(tmp_path):
    mu = build_frostman(full_square(3), vanishing_gauge(1))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    mu.save(p1)
    CellMeasure.load(p1).save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    back = CellMeasure.load(p1)
    assert back.total == pytest.approx(mu.total, rel=1e-15)
    assert back.masses == mu.masses


def test_measure_file_keeps_17_digits(tmp_path):
    mu = CellMeasure(2, 1, {(0, 1): 1.0 / 3.0})
    path = tmp_path / "m.json"
    mu.save(path)
    assert "0.33333333333333331" in path.read_text()


def test_with_depth_preserves_cube_masses():
    mu = build_frostman(full_square(2), BARE)
    deep = mu.with_depth(10)
    assert deep.total == pytest.approx(mu.total, rel=1e-15)
    assert deep.cube_mass(DyadicCube(2, 1, (0, 0))) == pytest.approx(
        mu.cube_mass(DyadicCube(2, 1, (0, 0))), rel=1e-15
    )
    # below the explicit cells the split is uniform
    assert deep.cube_mass(DyadicCube(2, 3, (0, 0))) == pytest.approx(
        mu.masses[(0, 0)] / 4.0, rel=1e-15
    )


def test_normalized_total_is_one():
    mu = build_frostman(full_square(2), BARE).normalized()
    assert mu.total == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(InvalidInputError):
        CellMeasure(2, 2, {}).normalized()


def test_masses_validation():
    with pytest.raises(InvalidInputError):
        CellMeasure(2, 1, {(0, 0): -1.0})
    with pytest.raises(InvalidInputError):
        CellMeasure(2, 1, {(0, 0): float("nan")})
    with pytest.raises(InvalidInputError):
        CellMeasure(2, 1, {(2, 0): 1.0})


def test_sample_points_follow_support():
    mu = CellMeasure(2, 3, {(0, 0): 1.0, (7, 7): 3.0})
    pts = mu.sample_points(np.random.default_rng(0), 200)
    cells = {tuple(int(c * 8) for c in p) for p in pts}
    assert cells <= {(0, 0), (7, 7)}
    heavy = sum(1 for p in pts if int(p[0] * 8) == 7)
    assert heavy > 100  # mass-weighted draw favors the 3x cell


def test_sample_points_stay_in_their_cells_at_level_50():
    top = (1 << 50) - 1
    for mu in (CellMeasure(1, 50, {(top,): 1.0}), CellMeasure(2, 50, {(top, top): 1.0, (0, top): 2.0, (top, 5): 0.5})):
        pts = mu.sample_points(np.random.default_rng(0), 10000)
        assert ((pts >= 0.0) & (pts < 1.0)).all()
        # scaling by 2^50 is exact, so the floor is each point's level-50 cell
        assert {tuple(row) for row in np.floor(pts * 2.0**50).astype(np.int64).tolist()} <= set(mu.masses)


def test_one_measure_class():
    assert gmtkit.SparseMeasure is gmtkit.sparsify.SparseMeasure is SparseMeasure
    assert issubclass(CellMeasure, SparseMeasure)
    mu = CellMeasure(2, 4, {(0, 1): 1.0, (3, 2): 0.5}, cell_level=2)
    assert mu.levels.tolist() == [2, 2] and mu.windows == ()
    as_nodes = SparseMeasure(2, 4, {(2, (0, 1)): 1.0, (2, (3, 2)): 0.5})
    assert mu.to_cell_measure() == mu and as_nodes.to_cell_measure() == mu
    assert mu != as_nodes and as_nodes != mu  # a CellMeasure equals only a CellMeasure


def test_constructing_a_measure_builds_no_pyramid(monkeypatch):
    built = []
    init = Pyramid.__init__
    monkeypatch.setattr(Pyramid, "__init__", lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))
    CellMeasure(2, 6, {(0, 0): 1.0, (3, 5): 2.0}, cell_level=3)
    SparseMeasure(2, 6, {(1, (0, 0)): 1.0, (3, (4, 5)): 0.5, (4, (15, 0)): 0.25}, ((3, 2),))
    assert built == []


def test_a_depth_beyond_the_lattice_is_invalid():
    with pytest.raises(InvalidInputError):
        CellMeasure(2, 51, {})
    mu = CellMeasure(2, 50, {(1, 1): 1.0}, cell_level=1)
    with pytest.raises(InvalidInputError):
        mu.with_depth(51)


@st.composite
def measures(draw):
    """(n, depth, cell_level, masses): masses on a few cells, some of them zero,
    declared down to the cell level or up to two levels deeper."""
    n = draw(st.integers(min_value=1, max_value=3))
    cell_level = draw(st.integers(min_value=0, max_value=4))
    depth = cell_level + draw(st.integers(min_value=0, max_value=2))
    cell = st.tuples(*[st.integers(min_value=0, max_value=(1 << cell_level) - 1)] * n)
    mass = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=10.0))
    return n, depth, cell_level, draw(st.dictionaries(cell, mass, max_size=10))


@given(measures(), st.randoms(use_true_random=False))
@example((2, 3, 2, {(3, 1): 0.1, (0, 2): 0.2, (3, 0): 0.3, (1, 1): 0.0}), random.Random(0))
def test_measure_tables_match_brute_force_scans(case, rnd):
    n, depth, cl, given_masses = case
    clean = {c: m for c, m in given_masses.items() if m > 0.0}
    mu = CellMeasure(n, depth, given_masses, cl)
    entries = list(given_masses.items())
    rnd.shuffle(entries)
    rows = np.array([c for c, _ in entries], dtype=np.int64).reshape(-1, n)
    assert CellMeasure(n, depth, (rows, [m for _, m in entries]), cl) == mu
    assert mu.masses == clean and list(mu.masses) == sorted(clean)
    assert mu.rows.tolist() == [list(c) for c in sorted(clean)]
    assert mu.weights.tolist() == [clean[c] for c in sorted(clean)]
    total = 0.0
    for c in sorted(clean):
        total += clean[c]
    assert mu.total == total
    for level in range(cl + 1):
        occupied = sorted({tuple(i >> (cl - level) for i in c) for c in clean})
        assert mu.level_masses(level) == {idx: brute_cube_mass(clean, cl, level, idx) for idx in occupied}
    for level in range(depth + 1):
        for _ in range(4):
            idx = tuple(rnd.randrange(1 << level) for _ in range(n))
            shift = max(0, level - cl)
            top = tuple(i >> shift for i in idx)
            want = brute_cube_mass(clean, cl, level - shift, top) * 2.0 ** (-n * shift)
            assert mu.cube_mass(DyadicCube(n, level, idx)) == want


BAD_ROWS = {
    "ragged": [[0, 1], [1]],
    "wrong-length": [[0, 1, 0]],
    "negative-index": [[0, -1]],
    "index-past-2^depth": [[0, 4]],
    "index-2^70": [[1 << 70, 0]],
}


@pytest.mark.parametrize("rows", BAD_ROWS.values(), ids=BAD_ROWS.keys())
def test_malformed_cell_rows_are_invalid_input(rows, tmp_path, capsys):
    cells = {"n": 2, "depth": 2, "cells": [[0, 0], *rows]}
    with pytest.raises(InvalidInputError):
        CellSet.from_json_obj(cells)
    with pytest.raises(InvalidInputError):
        CellMeasure.from_json_obj({"n": 2, "depth": 2, "masses": [[r, 0.5] for r in cells["cells"]]})
    path = tmp_path / "cells.json"
    path.write_text(json.dumps(cells))
    assert main(["content", "--cells", str(path)]) == 3
    assert "invalid input" in capsys.readouterr().err


@pytest.mark.parametrize("mass", [math.nan, -0.5, math.inf], ids=["nan", "negative", "infinite"])
def test_invalid_masses_are_invalid_input(mass):
    with pytest.raises(InvalidInputError):
        CellMeasure.from_json_obj({"n": 2, "depth": 2, "masses": [[[0, 0], 0.5], [[1, 1], mass]]})


def test_measure_json_rejects_a_cell_listed_twice(tmp_path):
    obj = {"n": 2, "depth": 2, "masses": [[[0, 0], 0.5], [[0, 0], 0.25]]}
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(InvalidInputError):
        CellMeasure.load(path)
    with pytest.raises(InvalidInputError):
        CellMeasure(2, 2, (np.array([[1, 0], [0, 1], [1, 0]]), [0.0, 0.5, 0.0]))
    # a cell set is a set: repeated cells collapse
    assert CellSet.from_json_obj({"n": 2, "depth": 2, "cells": [[0, 0], [0, 0]]}) == CellSet(2, 2, {(0, 0)})


def test_repr_summarises_without_building_the_dict():
    rows = np.indices((256, 256)).reshape(2, -1).T
    mu = CellMeasure(2, 8, (rows, np.full(len(rows), 2.0**-16)))
    assert repr(mu) == "<CellMeasure n=2 depth=8 cell_level=8 cells=65536 total=1.0>"
    assert "masses" not in mu.__dict__
