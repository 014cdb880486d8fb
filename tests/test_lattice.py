import random
from math import floor

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gmtkit.errors import InvalidInputError
from gmtkit.frostman import CellMeasure
from gmtkit.lattice import (
    MAX_LEVEL,
    CellSet,
    DyadicCube,
    Pyramid,
    ascending,
    cell_points,
    group_rows,
    level_diameter,
    locate,
    pack,
    union,
)
from gmtkit.utils import dumps_canonical

from helpers import child_indices, index_ancestor


def descendants(n: int, level: int, index: tuple[int, ...], dlevel: int) -> list[DyadicCube]:
    """The cubes `dlevel` levels below cube `index`, through ``CellSet.refined``."""
    return [DyadicCube(n, level + dlevel, c) for c in CellSet(n, level, [index]).refined(level + dlevel).sorted_cells()]


def test_children_of_root():
    got = {c.index for c in descendants(2, 0, (0, 0), 1)}
    assert got == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert len(descendants(3, 0, (0, 0, 0), 1)) == 8


def test_children_compose_to_descendants():
    two_steps = {g.index for c in descendants(2, 0, (0, 0), 1) for g in descendants(2, 1, c.index, 1)}
    direct = {d.index for d in descendants(2, 0, (0, 0), 2)}
    assert two_steps == direct
    assert len(direct) == 16


def test_descendants_identity_and_count():
    c = DyadicCube(2, 1, (1, 0))
    assert descendants(2, 1, (1, 0), 0) == [c]
    assert len(descendants(2, 1, (1, 0), 2)) == 16


def test_descendants_cover_parent_pointwise():
    c = DyadicCube(2, 1, (1, 0))
    rng = np.random.default_rng(0)
    lo, hi = c.lower(), c.upper()
    pts = lo + rng.random((10_000, 2)) * (hi - lo)
    ds = descendants(2, 1, (1, 0), 2)
    for p in pts:
        assert sum(d.contains_point(p) for d in ds) == 1


def test_diameter_values():
    assert DyadicCube(2, 0, (0, 0)).diameter() == pytest.approx(np.sqrt(2), rel=1e-15)
    assert DyadicCube(2, 3, (0, 0)).diameter() == pytest.approx(np.sqrt(2) / 8, rel=1e-15)
    assert DyadicCube(4, 1, (0, 0, 0, 0)).diameter() == 1.0


def test_level_diameter_is_the_cube_diameter():
    for n in (1, 2, 3, 4):
        for level in (0, 1, 7, MAX_LEVEL):
            assert level_diameter(n, level) == np.sqrt(n) * 2.0 ** (-level)
            assert DyadicCube(n, level, (0,) * n).diameter() == level_diameter(n, level)


@given(st.integers(min_value=1, max_value=3), st.randoms(use_true_random=False))
def test_geometry_is_exact_at_every_admitted_level(n, rnd):
    for level in range(MAX_LEVEL + 1):
        top = (1 << level) - 1
        for idx in ((0,) * n, (top,) * n, tuple(rnd.randint(0, top) for _ in range(n))):
            cube = DyadicCube(n, level, idx)
            assert np.all(cube.lower() < cube.upper())
            assert cube.contains_point(cube.center())
            assert tuple(floor(c * 2**level) for c in cube.center()) == idx
    with pytest.raises(InvalidInputError):
        DyadicCube(n, MAX_LEVEL + 1, (0,) * n)


def test_half_open_disjointness_on_boundary():
    cubes = [DyadicCube(1, 1, (0,)), DyadicCube(1, 1, (1,))]
    containing = [c for c in cubes if c.contains_point(np.array([0.5]))]
    assert len(containing) == 1
    assert containing[0].index == (1,)


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=8),
    st.randoms(use_true_random=False),
)
def test_parent_of_child_roundtrip(n, level, rnd):
    idx = tuple(rnd.randrange(2**level) for _ in range(n))
    c = DyadicCube(n, level, idx)
    for child in child_indices(idx):
        assert DyadicCube(n, level + 1, child).parent() == c


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=8),
    st.randoms(use_true_random=False),
)
def test_ancestor_is_repeated_parent(n, level, rnd):
    c = DyadicCube(n, level, tuple(rnd.randrange(2**level) for _ in range(n)))
    up = c
    for target in range(level, -1, -1):
        assert c.ancestor(target) == up
        if target:
            up = up.parent()
    with pytest.raises(InvalidInputError, match="the root cube has no parent"):
        up.parent()
    for bad in (-1, level + 1):
        with pytest.raises(InvalidInputError, match=f"ancestor level {bad} not in \\[0, {level}\\]"):
            c.ancestor(bad)


@given(
    st.lists(st.floats(min_value=0.0, max_value=0.999999), min_size=2, max_size=2),
    st.integers(min_value=0, max_value=30),
)
def test_cube_at_contains_its_point(coords, level):
    p = np.array(coords)
    assert DyadicCube(2, level, tuple(floor(c * 2**level) for c in p)).contains_point(p)


@given(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2))
def test_descendants_compose(a, b):
    c = DyadicCube(2, 1, (0, 1))
    direct = {d.index for d in descendants(2, 1, c.index, a + b)}
    stepped = {g.index for d in descendants(2, 1, c.index, a) for g in descendants(2, 1 + a, d.index, b)}
    assert direct == stepped


def test_cellset_roundtrip_is_byte_stable(tmp_path):
    cs = CellSet(2, 2, frozenset({(3, 1), (0, 0), (2, 2)}))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    cs.save(p1)
    CellSet.load(p1).save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert CellSet.load(p2) == cs


def test_cellset_json_is_sorted(tmp_path):
    cs = CellSet(2, 1, frozenset({(1, 1), (0, 0), (1, 0)}))
    path = tmp_path / "cells.json"
    cs.save(path)
    text = path.read_text()
    assert text.index("[0,0]") < text.index("[1,0]") < text.index("[1,1]")


def test_cellset_validates_indices():
    with pytest.raises(InvalidInputError):
        CellSet(2, 1, frozenset({(2, 0)}))
    with pytest.raises(InvalidInputError):
        CellSet(2, 1, frozenset({(0,)}))
    for index in ((0.5, 0), (1.0, 0), ("1", 0), (True, False)):  # the int64 cast read each as integers
        with pytest.raises(InvalidInputError):
            CellSet(2, 1, [index])
    for index in ((1.5, 0), (1.0, 0), ("1", 0), (0,), ((0, 0), (1, 1)), (0, 2)):
        with pytest.raises(InvalidInputError):
            DyadicCube(2, 1, index)


def test_cellset_keeps_sorted_rows_as_a_copy():
    rows = np.array([[0, 1], [1, 0], [1, 1]])
    sorted_set, shuffled_set = CellSet(2, 1, rows), CellSet(2, 1, rows[[2, 0, 1, 0]])
    assert sorted_set == shuffled_set and sorted_set.rows.tolist() == rows.tolist()
    rows[0, 0] = 1  # the caller's array stays writable and apart from the set
    assert sorted_set.rows.tolist() == [[0, 1], [1, 0], [1, 1]] and not sorted_set.rows.flags.writeable


def test_cellset_refined_and_ancestors():
    cs = CellSet(2, 1, frozenset({(0, 1)}))
    fine = cs.refined(3)
    assert fine.depth == 3
    assert len(fine.cells) == 16
    anc = set(map(tuple, cs.pyramid().cubes[0].tolist()))
    assert anc == {(0, 0)}


def test_union_merges_cellsets():
    a = CellSet(2, 1, frozenset({(0, 0)}))
    b = CellSet(2, 2, frozenset({(3, 3)}))
    u = union([a, b])
    assert u.depth == 2
    assert (3, 3) in u.cells and (0, 0) in u.cells and (1, 1) in u.cells
    with pytest.raises(InvalidInputError):
        union([])


def test_sample_points_land_in_cells():
    cs = CellSet(2, 3, frozenset({(0, 0), (7, 7)}))
    pts = cs.sample_points(np.random.default_rng(0), 64)
    for p in pts:
        assert tuple(int(c * 8) for c in p) in cs.cells


def test_sample_points_stay_in_their_cells_at_level_50():
    top = (1 << 50) - 1
    for cs in (CellSet(1, 50, [[top]]), CellSet(2, 50, [[top, top], [0, top], [top, 5]])):
        pts = cs.sample_points(np.random.default_rng(0), 10000)
        assert ((pts >= 0.0) & (pts < 1.0)).all()
        # scaling by 2^50 is exact, so the floor is each point's level-50 cell
        assert {tuple(row) for row in np.floor(pts * 2.0**50).astype(np.int64).tolist()} <= cs.cells


def test_sample_points_keep_the_stream_and_bits_off_the_upper_faces():
    cs = CellSet(2, 3, frozenset({(0, 0), (5, 2), (7, 7)}))
    ours, twin = np.random.default_rng(4), np.random.default_rng(4)
    pts = cs.sample_points(ours, 500)
    picks = twin.integers(0, len(cs), size=500)
    plain = cs.rows[picks] * 0.125 + twin.random((500, 2)) * 0.125
    assert pts.tobytes() == plain.tobytes()
    assert ours.bit_generator.state == twin.bit_generator.state


def test_cell_points_pull_the_upper_face_back_inside():
    rows = np.array([[(1 << 50) - 1], [3]])
    pts = cell_points(rows, 50, np.array([[np.nextafter(1.0, 0.0)], [0.5]]))
    assert pts[0, 0] == np.nextafter(1.0, 0.0) and pts[0, 0] >= 1.0 - 2.0**-50
    assert pts[1, 0] == 3.5 * 2.0**-50


@st.composite
def antichains(draw):
    """(n, depth, nodes): dyadic nodes at mixed levels, none inside another."""
    n = draw(st.integers(min_value=1, max_value=3))
    depth = draw(st.integers(min_value=0, max_value=4))
    nodes: list[tuple[int, tuple[int, ...]]] = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        level = draw(st.integers(min_value=0, max_value=depth))
        idx = tuple(draw(st.integers(min_value=0, max_value=(1 << level) - 1)) for _ in range(n))
        nested = False
        for t, other in nodes:
            low, high = min(t, level), max(t, level)
            deep, shallow = (idx, other) if level >= t else (other, idx)
            if index_ancestor(deep, high - low) == shallow:
                nested = True
        if not nested:
            nodes.append((level, idx))
    return n, depth, nodes


@given(antichains(), st.randoms(use_true_random=False))
@example((2, 3, []), random.Random(0))
@example((1, 0, [(0, (0,))]), random.Random(0))
@example((1, 3, [(3, (5,)), (1, (0,)), (2, (3,))]), random.Random(0))
@example((2, 4, [(4, (15, 0)), (1, (0, 1)), (4, (9, 2)), (3, (4, 0)), (2, (3, 3))]), random.Random(0))
# parents out of order, and sums that round differently in another order
@example((2, 3, [(3, (x, y)) for x in range(2) for y in range(4)] + [(1, (1, 0)), (2, (0, 3))]), random.Random(0))
def test_pyramid_matches_plain_ancestor_loops(case, rnd):
    n, depth, nodes = case
    values = [rnd.random() for _ in nodes]
    pyramid = Pyramid(n, [idx for _, idx in nodes], [t for t, _ in nodes])
    weight = dict(zip(nodes, values))
    cubes = []
    for level in range(depth + 1):
        want = sorted({index_ancestor(idx, t - level) for t, idx in nodes if t >= level})
        assert [tuple(c) for c in pyramid.cubes[level].tolist()] == want
        cubes.append(want)
    for level in range(1, depth + 1):
        want = [cubes[level - 1].index(index_ancestor(c, 1)) for c in cubes[level]]
        assert pyramid.parents[level].tolist() == want
    sums = pyramid.rollup(values)
    for level in range(depth + 1):
        agg = dict.fromkeys(cubes[level], 0.0)
        for t, idx in sorted(nodes):
            if t >= level:
                agg[index_ancestor(idx, t - level)] += weight[(t, idx)]
        assert sums[level].tolist() == [agg[c] for c in cubes[level]]
    for level in range(1, depth + 1):
        below = [rnd.random() for _ in cubes[level]]
        agg = dict.fromkeys(cubes[level - 1], 0.0)
        for c, v in zip(cubes[level], below):
            agg[index_ancestor(c, 1)] += v
        assert pyramid.sum_up(level, np.array(below)).tolist() == [agg[c] for c in cubes[level - 1]]

    flags = [np.array([rnd.random() < 0.3 for _ in cubes[level]], dtype=bool) for level in range(depth + 1)]

    def visit(level, idx, last, stops):
        """Append the flagged cubes a recursive walk from `idx` down to level `last` stops at."""
        if flags[level][cubes[level].index(idx)]:
            stops.append((level, idx))
        elif level < last:
            for child in cubes[level + 1]:
                if index_ancestor(child, 1) == idx:
                    visit(level + 1, child, last, stops)

    for last in (depth, rnd.randrange(depth + 1)):  # flags down to every level, or to a random one
        stops = []
        for root in cubes[0]:
            visit(0, root, last, stops)
        levels, rows = pyramid.topmost(flags[: last + 1])
        assert levels.dtype == rows.dtype == np.int64 and rows.shape == (len(levels), n)
        assert list(zip(levels.tolist(), map(tuple, rows.tolist()))) == stops


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=MAX_LEVEL), st.randoms(use_true_random=False))
@example(1, 0, random.Random(0))
@example(2, 31, random.Random(0))  # 62-bit keys, the widest int64 packing
@example(3, 21, random.Random(0))  # 63 bits: Python-integer keys
@example(3, MAX_LEVEL, random.Random(1))
def test_pyramid_locate_matches_a_sorted_list(n, depth, rnd):
    def row(level):
        return tuple(rnd.randrange(1 << level) for _ in range(n))

    cells = {row(depth) for _ in range(rnd.randrange(7))}
    pyramid = Pyramid(n, np.array(list(cells), dtype=np.int64).reshape(-1, n), depth)
    for level in range(depth + 1):
        occupied = sorted({index_ancestor(c, depth - level) for c in cells})
        top = (1 << level) - 1
        queries = [row(level) for _ in range(4)] + occupied[::-1] + [(0,) * n, (top,) * n, (top,) + (0,) * (n - 1)]
        want = [occupied.index(q) if q in occupied else -1 for q in queries]
        queries = np.array(queries, dtype=np.int64)
        assert locate(pack(pyramid.cubes[level], level), level, queries).tolist() == want
        assert pyramid.locate(level, queries).tolist() == want
        assert pyramid.locate(level, queries).tolist() == want  # the level's keys, now cached


def test_pyramid_of_a_cellset_is_one_level_of_nodes():
    cs = CellSet(2, 3, frozenset({(0, 7), (5, 2), (4, 3)}))
    pyramid = cs.pyramid()
    assert pyramid.cubes[3].tolist() == [[0, 7], [4, 3], [5, 2]]
    assert pyramid.cubes[1].tolist() == [[0, 1], [1, 0]]
    assert pyramid.parents[1].tolist() == [0, 0]
    sums = [[3.0], [1.0, 2.0], [1.0, 2.0], [1.0, 1.0, 1.0]] + [[]] * (MAX_LEVEL - 3)  # every lattice level
    assert [s.tolist() for s in pyramid.rollup([1.0, 1.0, 1.0])] == sums



@given(antichains())
def test_cellset_pyramid_is_built_once_with_leaves_in_sorted_order(case):
    n, depth, nodes = case
    cs = CellSet(n, depth, frozenset(tuple(i << (depth - t) for i in idx) for t, idx in nodes))
    assert cs.pyramid() is cs.pyramid()
    assert [tuple(c) for c in cs.pyramid().cubes[depth].tolist()] == cs.sorted_cells()


@st.composite
def index_tables(draw):
    """(n, level, rows): an (N, n) int64 array of level-`level` index rows in
    any order, with repeats; n * level runs past the 63 bits of a packed key."""
    n = draw(st.integers(min_value=1, max_value=4))
    level = draw(st.integers(min_value=0, max_value=MAX_LEVEL))
    index = st.integers(min_value=0, max_value=(1 << level) - 1)
    pool = draw(st.lists(st.tuples(*[index] * n), min_size=1, max_size=8))
    rows = draw(st.lists(st.sampled_from(pool), max_size=20))
    return n, level, np.array(rows, dtype=np.int64).reshape(-1, n)


@given(index_tables())
@example((1, 0, np.empty((0, 1), dtype=np.int64)))
@example((4, 3, np.empty((0, 4), dtype=np.int64)))
@example((3, MAX_LEVEL, np.array([[(1 << 50) - 1, 0, 5], [0, 1, 2], [(1 << 50) - 1, 0, 5], [0, 1, 1]])))
def test_group_rows_matches_np_unique(case):
    _, _, rows = case
    unique, inverse = group_rows(rows)
    want, want_inverse = np.unique(rows, axis=0, return_inverse=True)
    assert unique.dtype == np.int64 and unique.shape == want.shape
    assert unique.tolist() == want.tolist()
    assert inverse.tolist() == want_inverse.reshape(-1).tolist()


@given(index_tables(), st.booleans())
@example((2, 3, np.array([[1, 5], [2, 0], [2, 0]])), False)  # a repeat after an increase
def test_ascending_matches_a_tuple_comparison(case, sort):
    _, _, rows = case
    rows = group_rows(rows)[0] if sort else rows
    tuples = list(map(tuple, rows.tolist()))
    assert ascending(rows) == all(a < b for a, b in zip(tuples, tuples[1:]))


@given(antichains(), st.integers(0, 6), st.booleans(), st.randoms(use_true_random=False))
def test_pyramid_of_one_node_set_is_one_at_every_declared_depth(case, extra, backwards, rnd):
    n, depth, nodes = case
    cells = [tuple(i << (depth - t) for i in idx) for t, idx in nodes]  # distinct, as the nodes are disjoint
    values = [rnd.random() for _ in cells]
    one, each = Pyramid(n, cells, depth), Pyramid(n, cells, [depth] * len(cells))
    for a, b in ((one.cubes, each.cubes), (one.parents, each.parents), (one.rollup(values), each.rollup(values))):
        assert len(a) == len(b) == MAX_LEVEL + 1
        assert all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(a, b))
    if not cells:
        return
    mu = CellMeasure(n, depth, dict(zip(cells, values)))
    deeper = mu.with_depth(depth + extra)
    measures = [mu, deeper, deeper.with_depth(depth)]
    for measure in measures[::-1] if backwards else measures:  # whichever is read first
        assert measure._pyramid is mu._pyramid and measure._level_sums[1] is mu._level_sums[1]


@given(index_tables(), st.randoms(use_true_random=False))
def test_cellset_from_a_shuffled_array_equals_the_set_of_its_tuples(case, rnd):
    n, level, rows = case
    tuples = frozenset(map(tuple, rows.tolist()))
    repeated = rows.tolist() * 2
    rnd.shuffle(repeated)
    a = CellSet(n, level, tuples)
    b = CellSet(n, level, np.array(repeated, dtype=np.int64).reshape(-1, n))
    assert a == b and hash(a) == hash(b) and len(a) == len(b) == len(tuples)
    assert a.rows.tolist() == b.rows.tolist() == [list(c) for c in sorted(tuples)]
    assert a.cells == b.cells == tuples
    assert a.sorted_cells() == b.sorted_cells() == sorted(tuples)
    assert dumps_canonical(a.to_json_obj()) == dumps_canonical(b.to_json_obj())
    assert not a.rows.flags.writeable


def test_cellset_centers_are_the_cell_midpoints():
    cs = CellSet(2, 2, [(3, 0), (1, 2)])
    assert cs.centers().tolist() == [[0.375, 0.625], [0.875, 0.125]]
    assert CellSet(3, 4, []).centers().shape == (0, 3)


def test_cellset_repr_summarises():
    assert repr(CellSet(2, 8, np.indices((256, 256)).reshape(2, -1).T)) == "<CellSet n=2 depth=8 cells=65536>"
