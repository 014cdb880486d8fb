"""The canonical writer's table path against the element-by-element oracle,
and the two conversions that read every number from outside the package."""

import math
from unittest.mock import patch

import numpy as np
import pytest
from helpers import oracle_dumps_canonical
from hypothesis import example, given
from hypothesis import strategies as st

from gmtkit import utils
from gmtkit.beta import best_affine_fit, beta2, content_beta, square_function
from gmtkit.carleson import ball_pair, epsilon_report, halfspace_pair, polygon_pair, slab_complement_pair
from gmtkit.errors import InvalidInputError
from gmtkit.frostman import CellMeasure, SparseMeasure
from gmtkit.lattice import CellSet, DyadicCube
from gmtkit.sparsify import AffinePlane, ScaleFamily, SparsityCertificate, distance_to_family, find_hole, scale_family_view
from gmtkit.utils import Table, dumps_canonical, exact_int, exact_ints, finite_floats, fmt_float, write_canonical

# integral values (written with ".0"), subnormals, |v| >= 1e16 (exponent
# form), both zeros, and any other finite double
EDGE_FLOATS = [0.0, -0.0, 1.0, -3.0, 2.0**53, 1e16, -1e16, 1.5e300, 5e-324, 1e-310, -2.5e-320, 0.1, 1 / 3]
finite = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**60), 2**60).map(float),
)
int64 = st.integers(-(2**63), 2**63 - 1)


@st.composite
def tables(draw):
    """(levels, rows, weights): N int64 levels, an (N, n) int64 table and N
    floats, with N = 0 and n = 1 among the shapes; and a chunk size."""
    length, n = draw(st.integers(0, 9)), draw(st.integers(1, 4))
    levels = np.array(draw(st.lists(int64, min_size=length, max_size=length)), dtype=np.int64)
    rows = np.array(draw(st.lists(int64, min_size=length * n, max_size=length * n)), dtype=np.int64).reshape(length, n)
    weights = np.array(draw(st.lists(finite, min_size=length, max_size=length)), dtype=np.float64)
    return levels, rows, weights, draw(st.integers(1, 4))


def _as_lists(*columns) -> list:
    """The rows of a table as the oracle takes them: one list per row."""
    return [list(row) for row in zip(*(c.tolist() for c in columns))]


@given(tables())
@example((np.zeros(0, np.int64), np.zeros((0, 3), np.int64), np.zeros(0), 1))
@example((np.array([7]), np.array([[5]]), np.array([-0.0]), 1))
@example((np.arange(4), np.arange(8).reshape(4, 2), np.array([0.0, -0.0, 0.0, -0.0]), 3))
def test_table_path_writes_the_oracles_bytes(table):
    levels, rows, weights, chunk = table
    with patch.object(utils, "TABLE_CHUNK", chunk):  # small chunks, so tables span several
        for array in (levels, rows, weights):
            assert dumps_canonical(array) == oracle_dumps_canonical(array.tolist())
        for columns in ((rows, weights), (levels, rows, weights), (rows, rows), (levels,)):
            assert dumps_canonical(Table(*columns)) == oracle_dumps_canonical(_as_lists(*columns))
            assert list(Table(*columns)) == _as_lists(*columns) and len(Table(*columns)) == len(levels)
        obj = {"n": rows.shape[1], "nodes": Table(levels, rows, weights), "cells": rows, "w": [weights]}
        want = {"n": rows.shape[1], "nodes": _as_lists(levels, rows, weights), "cells": rows.tolist(), "w": [weights.tolist()]}
        assert dumps_canonical(obj) == oracle_dumps_canonical(want)


def test_table_path_keeps_zero_signs_apart():
    assert dumps_canonical(np.array([0.0, -0.0, 0.0])) == "[0.0,-0.0,0.0]"
    assert dumps_canonical(Table(np.array([[1, 2], [3, 4]]), np.array([-0.0, 0.0]))) == "[[[1,2],-0.0],[[3,4],0.0]]"


def test_table_path_writes_arrays_of_other_kinds_as_the_oracle():
    for array in (
        np.arange(24).reshape(2, 3, 4),  # int rank 3
        np.zeros((3, 0), dtype=np.int64),
        np.array([True, False]),
        np.array([[0.5, -0.0], [1e16, 5e-324]]),  # float rank 2
        np.array([1.5, 2.0], dtype=np.float32),
        np.array([2**64 - 1], dtype=np.uint64),
        np.array(["a", "b"]),
    ):
        assert dumps_canonical(array) == oracle_dumps_canonical(array)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_table_path_refuses_non_finite_floats_as_fmt_float_does(bad, tmp_path):
    with pytest.raises(ValueError) as refused:
        fmt_float(bad)
    for at in (0, 2, 4):
        weights = np.array([0.5, -0.0, 1e300, 3.0, 5e-324])
        weights[at] = bad
        cells = np.arange(10).reshape(5, 2)
        for obj in (weights, Table(cells, weights), {"masses": Table(cells, weights)}):
            with pytest.raises(ValueError) as got:
                dumps_canonical(obj)
            assert str(got.value) == str(refused.value)
            with pytest.raises(ValueError):
                oracle_dumps_canonical(_as_lists(cells, weights))
            with pytest.raises(ValueError):
                write_canonical(tmp_path / "refused.json", obj)
            assert not (tmp_path / "refused.json").exists()


def test_table_columns_must_have_one_length():
    with pytest.raises(ValueError):
        dumps_canonical(Table(np.zeros((3, 2), dtype=np.int64), np.zeros(2)))


def test_write_canonical_writes_the_text_and_a_newline(tmp_path):
    obj = {"b": Table(np.arange(3), np.array([0.1, -0.0, 2.0])), "a": [1, 2.5, None, True, "x"]}
    path = write_canonical(tmp_path / "sub" / "t.json", obj)
    assert path.read_bytes() == (dumps_canonical(obj) + "\n").encode("ascii")
    assert path.read_text() == '{"a":[1,2.5,null,true,"x"],"b":[[0,0.10000000000000001],[1,-0.0],[2,2.0]]}\n'


_PAIR = [[0.25, 0.5], [0.75, 0.5]]
_CELLS = CellSet(2, 3, [(i, j) for i in range(8) for j in range(8)])
_CERT = SparsityCertificate(2, 2, (1,), (ScaleFamily(1, 2, {(0, 0): (0, 0)}),))
_LINE = AffinePlane([0.5, 0.5], [[1.0, 0.0]])

# every public entry that reads floats, each fed the bad coordinate pair `v`
FLOAT_ENTRIES = {
    "distance_to_family": lambda v: distance_to_family(scale_family_view(_CERT, 0), v),
    "find_hole": lambda v: find_hole(_CERT, 0, v, _LINE, 0.1, grid=8),
    "AffinePlane-base": lambda v: AffinePlane(v, [[1.0, 0.0]]),
    "AffinePlane-frame": lambda v: AffinePlane([0.5, 0.5], [v]),
    "beta2-points": lambda v: beta2([_PAIR[0], v], [0.5, 0.5], 0.3, 1),
    "beta2-weights": lambda v: beta2((_PAIR, v), [0.5, 0.5], 0.3, 1),
    "beta2-center": lambda v: beta2(_PAIR, v, 0.3, 1),
    "best_affine_fit": lambda v: best_affine_fit(_PAIR, v, 0.3, 1),
    "square_function": lambda v: square_function(_PAIR, v, 1, 0, 3),
    "content_beta": lambda v: content_beta(_CELLS, v, 0.3, 1),
    "halfspace_pair-normal": lambda v: halfspace_pair(v, [0.5, 0.5]),
    "halfspace_pair-point": lambda v: halfspace_pair([1.0, 0.0], v),
    "slab_complement_pair": lambda v: slab_complement_pair(v, [0.5, 0.5], 0.1),
    "ball_pair": lambda v: ball_pair(v, 0.25),
    "polygon_pair": lambda v: polygon_pair([[0.0, 0.0], [1.0, 0.0], v]),
    "epsilon_report": lambda v: epsilon_report(halfspace_pair([1.0, 0.0], [0.5, 0.5]), v, 0.25),
    "SparseMeasure-masses": lambda v: SparseMeasure(2, 1, ([1, 1], [[0, 0], [1, 1]], v)),
    "CellMeasure-masses": lambda v: CellMeasure(2, 1, ([[0, 0], [1, 1]], v)),
    "contains_point": lambda v: DyadicCube(2, 1, (0, 0)).contains_point(v),
}
BAD_FLOATS = {
    "beyond-float-range": [10**400, 0.5],
    "text": "ab",
    "nan": [math.nan, 0.5],
    "numeric-text": ["0.5", "0.5"],
    "text-beside-a-big-integer": [10**30, "0.5"],
}


@pytest.mark.parametrize("bad", BAD_FLOATS.values(), ids=BAD_FLOATS.keys())
@pytest.mark.parametrize("entry", FLOAT_ENTRIES.values(), ids=FLOAT_ENTRIES.keys())
def test_every_float_entry_refuses_what_it_cannot_read(entry, bad):
    entry([1.0, 0.0] if entry is FLOAT_ENTRIES["AffinePlane-frame"] else [0.5, 0.5])  # a good pair passes
    with pytest.raises(InvalidInputError):
        entry(bad)


SCALAR_ENTRIES = {
    "beta2-radius": lambda v: beta2(_PAIR, [0.5, 0.5], v, 1),
    "best_affine_fit-radius": lambda v: best_affine_fit(_PAIR, [0.5, 0.5], v, 1),
    "content_beta-radius": lambda v: content_beta(_CELLS, [0.5, 0.5], v, 1),
    "ball_pair-radius": lambda v: ball_pair([0.5, 0.5], v),
    "slab_complement_pair-gap": lambda v: slab_complement_pair([1.0, 0.0], [0.5, 0.5], v),
    "epsilon_report-radius": lambda v: epsilon_report(halfspace_pair([1.0, 0.0], [0.5, 0.5]), [0.5, 0.5], v),
}
BAD_SCALARS = {"beyond-float-range": 10**400, "text": "ab", "nan": math.nan, "list": [0.25], "numeric-text": "0.25"}


@pytest.mark.parametrize("bad", BAD_SCALARS.values(), ids=BAD_SCALARS.keys())
@pytest.mark.parametrize("entry", SCALAR_ENTRIES.values(), ids=SCALAR_ENTRIES.keys())
def test_every_scalar_entry_refuses_what_it_cannot_read(entry, bad):
    entry(0.25)  # a good radius or gap passes
    with pytest.raises(InvalidInputError):
        entry(bad)


def test_a_checked_radius_goes_on_as_a_python_float():
    report = epsilon_report(halfspace_pair([1.0, 0.0], [0.5, 0.5]), [0.5, 0.5], np.float64(0.25), 8, 64, 1)
    assert type(report.radius) is float and report.radius == 0.25


def test_finite_floats_raises_the_callers_message():
    assert finite_floats([1, 0.5], "m").tolist() == [1.0, 0.5]
    assert finite_floats([10**30, 0.5], "m").tolist() == [1e30, 0.5]
    for bad in ([10**400], "ab", [[0.5], [0.5, 0.5]], [math.inf], None, "0.5", [10**30, "0.5"], [1j]):
        with pytest.raises(InvalidInputError, match="^bad coordinates$"):
            finite_floats(bad, "bad coordinates")


def test_exact_int_takes_one_integer():
    assert exact_int(3, "m") == 3 and type(exact_int(np.int64(3), "m")) is int
    for bad in (True, False, 2.0, "2", None, [2], [], 2**63, 10**30, math.inf):
        with pytest.raises(InvalidInputError, match="^not an integer$"):
            exact_int(bad, "not an integer")


def test_exact_ints_takes_only_integers():
    assert exact_ints([], "m").dtype == np.int64 and exact_ints([], "m").shape == (0,)
    assert exact_ints(np.array([[1, 2]], dtype=np.uint8), "m").tolist() == [[1, 2]]
    assert exact_ints(frozenset({(3, 4)}), "m").tolist() == [[3, 4]]  # any iterable
    assert exact_ints([2**63 - 1, -(2**63)], "m").tolist() == [2**63 - 1, -(2**63)]
    # numpy reads [-1, 2**63] as float64 and [2**63] as uint64; neither may wrap or round
    for bad in ([1.5], [2.0], ["2"], [True, False], [2**63], [-1, 2**63], [2**64], [[0], [1, 2]], [None], 5):
        with pytest.raises(InvalidInputError, match="^not integers$"):
            exact_ints(bad, "not integers")
