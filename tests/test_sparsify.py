import dataclasses
import json
import math
import random
import re
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from gmtkit import sparsify
from gmtkit.corpus import GeneratorSpec, generate, random_sparse_with_certificate
from gmtkit.errors import DepthBudgetError, InvalidInputError, VerificationError
from gmtkit.frostman import CellMeasure, build_frostman
from gmtkit.gauge import Gauge, parse_gauge, power_exp_gauge, power_gauge
from gmtkit.lattice import MAX_LEVEL, CellSet, DyadicCube, Pyramid
from gmtkit.sparsify import (
    AffinePlane,
    ScaleFamily,
    SparseMeasure,
    SparsityCertificate,
    build_sparse_construction,
    build_sparse_measure,
    certified_scales,
    check_sparse,
    distance_to_family,
    estimate_c0,
    find_hole,
    min_sparsity_parameter,
    scale_family_view,
    verify_sparse_construction,
    witness_unrectifiability,
    _apply_scale,
    _follows,
    _orthonormal_frames,
    _witness_draws,
)
from gmtkit.utils import dumps_canonical

from helpers import (
    brute_apply_scale,
    brute_c0,
    brute_family_distance,
    brute_follows,
    brute_frame,
    brute_holder,
    brute_mass_at,
    brute_hole,
    brute_points,
    brute_rollup,
    brute_sparse_caps,
    brute_support_cells,
    brute_support_draw,
    loop_witness,
)

H32 = power_exp_gauge(1, 0.5)  # h(r) = r^(3/2)


@pytest.fixture(scope="module")
def square_construction():
    cells = CellSet(2, 0, frozenset({(0, 0)})).refined(6)
    mu = build_frostman(cells, H32).with_depth(40)
    return build_sparse_construction(mu, H32, 1, 4)


@pytest.fixture(scope="module")
def cube3_construction():
    cells = CellSet(3, 0, frozenset({(0, 0, 0)})).refined(2)
    return build_sparse_construction(build_frostman(cells, H32).with_depth(40), H32, 1, 2)


@pytest.fixture(scope="module")
def square_report(square_construction):
    return verify_sparse_construction(square_construction, H32, sample_cells=256, seed=0)


def test_min_sparsity_parameter_values():
    assert min_sparsity_parameter(2, 1, "exact-diagonal") == 4
    assert min_sparsity_parameter(3, 1, "exact-diagonal") == 6
    assert min_sparsity_parameter(2, 1, "ball-bound") == 4


def test_min_sparsity_parameter_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        min_sparsity_parameter(2, 2, "ball-bound")
    with pytest.raises(InvalidInputError):
        min_sparsity_parameter(3, 2, "exact-diagonal")
    with pytest.raises(InvalidInputError):
        min_sparsity_parameter(2, 1, "whatever")


def test_certified_scales_against_hand_arithmetic():
    # (sqrt(2) * 2^-l)^(1/2) <= 2^(-4) forces l >= 16.5, so l1 = 17
    assert certified_scales(H32, 1, 2, 4, 40) == [17, 33]
    assert certified_scales(H32, 1, 2, 4, 24) == [17]


def test_certified_scales_depth_budget():
    with pytest.raises(DepthBudgetError) as err:
        certified_scales(H32, 1, 2, 4, 20)
    assert err.value.required_depth == 21


def test_certified_scales_gauge_that_never_drops():
    with pytest.raises(VerificationError):
        certified_scales(power_gauge(1), 1, 2, 4, 40)


def test_square_construction_scales(square_construction):
    cert = square_construction.certificate
    assert cert.scales == (17, 33)
    assert cert.ell == 4
    assert square_construction.result.total == pytest.approx(1.0, rel=1e-12)


def test_square_construction_verifies(square_report):
    rep = square_report
    assert rep.passed
    assert rep.coarse_drift <= 1e-12
    assert rep.min_selection_ratio >= 1.0 - 1e-12
    assert rep.support_nested
    assert rep.certificate_ok
    # post-rescale cube cap: mass(Q) <= rescale_constant * diam(Q)^k everywhere
    assert rep.cap_ratio_k <= 1.0 + 1e-9
    assert rep.cap_ratio_h <= 1.0 + 1e-9


def test_square_support_sample_obeys_certificate(square_construction):
    cons = square_construction
    sample = cons.result.support_sample_cells(40, 512, np.random.default_rng(7))
    assert check_sparse(sample, cons.certificate)


def test_single_support_is_a_fixed_point():
    mu = CellMeasure(2, 12, {(1000, 2000): 1.0}).with_depth(24)
    cons = build_sparse_construction(mu, H32, 1, 4)
    out = cons.result
    assert out.total == pytest.approx(1.0, rel=1e-12)
    # all mass still sits in the original cell
    assert out.cube_mass(DyadicCube(2, 12, (1000, 2000))) == pytest.approx(1.0, rel=1e-12)
    sample = out.support_sample_cells(24, 64, np.random.default_rng(0))
    assert check_sparse(sample, cons.certificate)
    # above the nodes, the support cells are their ancestors
    assert out.support_sample_cells(6, 8, np.random.default_rng(0)).cells == {(1000 >> 6, 2000 >> 6)}


def test_check_sparse_rejects_full_square():
    cells = CellSet(2, 0, frozenset({(0, 0)})).refined(8)
    fam = ScaleFamily(2, 4, {(0, 0): (0, 0), (0, 1): (0, 16), (1, 0): (16, 0), (1, 1): (16, 16)})
    cert = SparsityCertificate(2, 4, (2,), (fam,))
    assert check_sparse(cells, cert) is False


def test_check_sparse_empty_set_is_vacuous():
    cert = SparsityCertificate(2, 4, (1,), (ScaleFamily(1, 4, {(0, 0): (0, 0)}),))
    assert check_sparse(CellSet(2, 8, frozenset()), cert) is True


def test_certificate_validation():
    with pytest.raises(InvalidInputError):
        SparsityCertificate(2, 4, (1, 3), (ScaleFamily(1, 4, {}), ScaleFamily(3, 4, {})))
    with pytest.raises(InvalidInputError):
        SparsityCertificate(2, 0, (1,), (ScaleFamily(1, 0, {}),))
    with pytest.raises(InvalidInputError):
        SparsityCertificate(2, 4, (), ())
    with pytest.raises(InvalidInputError):
        # selected subcube outside its cube
        ScaleFamily(1, 4, {(0, 0): (17, 0)})


def test_certificate_roundtrip(square_construction, tmp_path):
    cert = square_construction.certificate
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    cert.save(p1)
    SparsityCertificate.load(p1).save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    back = SparsityCertificate.load(p1)
    assert back.scales == cert.scales
    assert back.ell == cert.ell
    assert all(f1.pattern == f2.pattern for f1, f2 in zip(back.families, cert.families))


def test_to_json_obj_round_trips_in_memory(square_construction):
    """`from_json_obj` takes the arrays and Tables that `to_json_obj` hands
    the writer, and a Table iterates as the rows its text holds."""
    cells = CellSet(2, 0, frozenset({(0, 0)})).refined(3)
    mu = build_frostman(cells, H32)
    sparse, cert = square_construction.result, square_construction.certificate
    for x in (cells, CellSet(2, 3, []), mu, mu.with_depth(9), CellMeasure(2, 3, {}), sparse):
        obj = x.to_json_obj()
        assert type(x).from_json_obj(obj) == x
        for key in {"masses", "nodes"} & obj.keys():
            assert list(obj[key]) == json.loads(dumps_canonical(obj))[key]
    back = SparsityCertificate.from_json_obj(cert.to_json_obj())
    assert dumps_canonical(back.to_json_obj()) == dumps_canonical(cert.to_json_obj())
    assert [list(fam["pairs"]) for fam in cert.to_json_obj()["families"]] == [
        fam["pairs"] for fam in json.loads(dumps_canonical(cert.to_json_obj()))["families"]
    ]


def test_explicit_certificate_roundtrip(tmp_path):
    spec = GeneratorSpec(kind="random-sparse", n=2, depth=12, ell=4, seed=5)
    cells, cert = random_sparse_with_certificate(spec)
    assert check_sparse(cells, cert)
    path = tmp_path / "cert.json"
    cert.save(path)
    back = SparsityCertificate.load(path)
    assert check_sparse(cells, back)


def test_build_sparse_measure_wrapper():
    cells = CellSet(2, 0, frozenset({(0, 0)})).refined(4)
    mu = build_frostman(cells, H32).with_depth(24)
    out, cert = build_sparse_measure(mu, H32, 1, 4)
    assert cert.scales == (17,)
    assert out.total == pytest.approx(1.0, rel=1e-12)


def test_normalization_is_recorded():
    cells = CellSet(2, 0, frozenset({(0, 0)})).refined(4)
    mu = build_frostman(cells, H32).with_depth(24)  # total != 1
    cons = build_sparse_construction(mu, H32, 1, 4)
    assert cons.normalized
    assert cons.norm_constant == max(1.0, 1.0 / mu.total)
    assert cons.original_total == pytest.approx(mu.total, rel=1e-12)
    # scaling the input down below unit mass makes the constant bite
    half = CellMeasure(mu.n, mu.depth, dict(mu.masses), cell_level=mu.cell_level)
    small = CellMeasure(2, 24, {k: v / (4.0 * mu.total) for k, v in half.level_masses(half.cell_level).items()},
                        cell_level=half.cell_level)
    cons2 = build_sparse_construction(small, H32, 1, 4)
    assert cons2.norm_constant == pytest.approx(4.0, rel=1e-9)


def test_shallow_depth_reports_budget():
    cells = CellSet(2, 0, frozenset({(0, 0)})).refined(4)
    mu = build_frostman(cells, H32).with_depth(20)
    with pytest.raises(DepthBudgetError) as err:
        build_sparse_construction(mu, H32, 1, 4)
    assert err.value.required_depth == 21


@pytest.mark.parametrize("k", [0, 2, 3])
def test_construction_refuses_k_outside_one_to_n(k):
    # the theorem's planes have 1 <= k < n, as min_sparsity_parameter and estimate_c0 require
    mu = build_frostman(CellSet(2, 0, frozenset({(0, 0)})).refined(4), H32).with_depth(40)
    with pytest.raises(InvalidInputError, match=f"need 1 <= k < n, got k={k}, n=2"):
        build_sparse_construction(mu, H32, k, 4)


def test_sparse_measure_window_structure(square_construction):
    out = square_construction.result
    assert isinstance(out, SparseMeasure)
    assert [tuple(w) for w in out.windows] == [(17, 4), (33, 4)]
    # a sampled support cell carries zero digits at the window levels
    cell_set = out.support_sample_cells(40, 8, np.random.default_rng(3))
    for cell in cell_set.sorted_cells():
        for start, ell in out.windows:
            for lvl in range(start + 1, start + ell + 1):
                shift = 40 - lvl
                assert all((c >> shift) & 1 == 0 for c in cell)
        # flipping one digit inside a window kills the mass
        lvl = 18
        shift = 40 - lvl
        flipped = tuple(c ^ (1 << shift) for c in cell)
        assert out.mass_at(40, cell) > 0.0
        assert out.mass_at(40, flipped) == 0.0


@pytest.mark.parametrize("node", [
    [2, [9, 9], 1.0],  # index beyond the level
    [2, [-1, 0], 1.0],
    [2, [1, 1, 1], 1.0],  # wrong dimension
    [2, [1], 1.0],
    [2, [1, 1], float("nan")],
    [2, [1, 1], -0.5],
    [2, [1, 1], float("inf")],
])
def test_sparse_measure_rejects_bad_nodes(node):
    with pytest.raises(InvalidInputError):
        SparseMeasure.from_json_obj({"n": 2, "depth": 4, "nodes": [node], "windows": []})


@pytest.mark.parametrize("pairs", [
    [[[0, 0], [0, 0]], [[0, 0], [1, 1]]],  # one cube listed twice
    [[[-1, 0], [-4, 0]]],
    [[[5, 0], [20, 0]]],  # index beyond the scale's level
    [[[0, 0, 0], [0, 0, 0]]],  # three indices in the plane
], ids=["repeated", "negative", "out-of-range", "wrong-length"])
def test_certificate_rejects_bad_pairs(pairs):
    obj = {"n": 2, "ell": 2, "scales": [1], "families": [{"scale": 1, "pairs": pairs}]}
    with pytest.raises(InvalidInputError):
        SparsityCertificate.from_json_obj(obj)


def test_sparse_measure_from_dict_equals_shuffled_triple():
    nodes = {(1, (1, 1)): 0.1, (2, (0, 2)): 0.2, (2, (3, 0)): 1 / 3, (3, (0, 1)): 0.3, (3, (3, 2)): 0.7}
    keys = [list(nodes)[i] for i in (3, 0, 4, 2, 1)]
    triple = ([t for t, _ in keys], np.array([idx for _, idx in keys]), [nodes[key] for key in keys])
    a, b = SparseMeasure(2, 6, nodes, ((3, 2),)), SparseMeasure(2, 6, triple, ((3, 2),))
    assert a == b
    assert dumps_canonical(a.to_json_obj()) == dumps_canonical(b.to_json_obj())
    assert a.total.hex() == b.total.hex() == sum(nodes[key] for key in sorted(nodes)).hex()
    assert a.nodes == nodes


def test_sparse_measure_rejects_depth_beyond_the_lattice():
    with pytest.raises(InvalidInputError):
        SparseMeasure(2, 64, {(10, (1023, 1023)): 1.0})


@pytest.mark.parametrize("nodes", [
    [[1, [0, 0], 1.0], [1, [0, 0], 2.0]],  # one node listed twice
    [[1, [0, 0], 1.0], [3, [0, 0], 1.0]],  # the level-1 node holds the level-3 node
    [[3, [2, 5], 1.0], [2, [1, 2], 0.5]],  # the level-2 node holds the level-3 node
])
def test_sparse_measure_rejects_repeated_and_nested_nodes(nodes):
    with pytest.raises(InvalidInputError):
        SparseMeasure.from_json_obj({"n": 2, "depth": 6, "nodes": nodes, "windows": []})


@st.composite
def node_sets(draw):
    """(n, depth, nodes): distinct nodes on one to three levels, indices near
    the origin, and some drawn as descendants of earlier nodes, one or more
    levels down, so that nesting is common."""
    n = draw(st.integers(1, 3))
    depth = draw(st.integers(2, 6))
    levels = draw(st.lists(st.integers(0, depth), min_size=1, max_size=3, unique=True))
    nodes = {}
    for _ in range(draw(st.integers(1, 8))):
        t = draw(st.sampled_from(levels))
        s, idx = draw(st.sampled_from(sorted(nodes))) if nodes and draw(st.booleans()) else (t, None)
        if s < t:
            idx = tuple(i << (t - s) | draw(st.integers(0, (1 << (t - s)) - 1)) for i in idx)
        else:
            idx = draw(st.tuples(*[st.integers(0, min(3, (1 << t) - 1))] * n))
        nodes[(t, idx)] = draw(st.sampled_from([0.5, 1.0]))
    return n, depth, nodes


@given(node_sets())
@example((1, 4, {(1, (0,)): 1.0, (3, (1,)): 1.0}))  # nested two levels apart
@example((2, 5, {(4, (9, 3)): 1.0, (1, (1, 0)): 1.0, (2, (0, 0)): 1.0, (5, (19, 6)): 1.0}))  # three levels
def test_antichain_check_matches_pairwise_containment_oracle(case):
    n, depth, nodes = case
    holder = brute_holder(nodes)
    if holder is None:
        assert SparseMeasure(n, depth, nodes).nodes == nodes
    else:
        with pytest.raises(InvalidInputError, match=re.escape(f"node {holder} holds another node")):
            SparseMeasure(n, depth, nodes)


def test_construction_starts_from_its_base(square_construction):
    assert square_construction.stages[0] is square_construction.base


def test_sparse_measure_drops_zero_nodes():
    out = SparseMeasure.from_json_obj({"n": 2, "depth": 4, "nodes": [[2, [1, 1], 0.0], [2, [3, 0], 1.0]], "windows": []})
    assert out.nodes == {(2, (3, 0)): 1.0}


@pytest.mark.parametrize("level, idx", [
    (-1, (0, 0)),  # level above the root
    (7, (0, 0)),  # level below the declared depth
    (3, (8, 0)),  # index beyond the level
    (3, (-1, 2)),
    (3, (1, 1, 1)),  # wrong dimension
])
def test_mass_at_rejects_bad_cubes(level, idx):
    sm = SparseMeasure(2, 6, {(2, (1, 1)): 1.0}, ((2, 2),))
    with pytest.raises(InvalidInputError):
        sm.mass_at(level, idx)


H2 = power_exp_gauge(1, 1.0)  # h(r) = r^2: certified scales from level 3 on


@st.composite
def windowed_constructions(draw):
    """A small construction whose result carries two or more windows.  Cells
    at or below a scale select explicit pairs; cells just above a window make
    the cubes inside it the heaviest for their diameter."""
    h = draw(st.sampled_from([H32, H2]))
    n, ell = draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]))
    cell_depth = draw(st.integers(1, 8 if n == 2 else 4))
    cell = st.tuples(*[st.integers(0, (1 << cell_depth) - 1)] * n)
    cells = CellSet(n, cell_depth, frozenset(draw(st.lists(cell, min_size=1, max_size=6, unique=True))))
    cons = build_sparse_construction(build_frostman(cells, h).with_depth(draw(st.integers(16, 20))), h, 1, ell)
    assume(len(cons.result.windows) >= 2)
    return cons, h


@st.composite
def antichain_stages(draw):
    """(stage, level, ell): a measure on a random antichain of nodes at levels
    0..depth, with uneven, often tied masses and random windows, and a scale
    whose gap [level, level + ell) usually holds nodes.  Indices crowd near
    the origin, so that groups often hold several candidates."""
    n = draw(st.sampled_from([1, 2, 3]))
    depth = draw(st.integers(2, 7 if n < 3 else 5))

    def coord(t):
        return st.one_of(st.integers(0, min(3, (1 << t) - 1)), st.integers(0, (1 << t) - 1))

    cube = st.integers(0, depth).flatmap(lambda t: st.tuples(st.just(t), st.tuples(*[coord(t)] * n)))
    mass = st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(0.01, 1.0))
    nodes = {}
    for t, idx in draw(st.lists(cube, min_size=1, max_size=12)):
        # keep the nodes disjoint: two cubes meet when their indices agree at the coarser level
        if all(tuple(i >> (t - min(t, s)) for i in idx) != tuple(i >> (s - min(t, s)) for i in j) for s, j in nodes):
            nodes[(t, idx)] = draw(mass)
    window = st.tuples(st.integers(0, depth - 1), st.integers(1, 3)).filter(lambda w: w[0] + w[1] <= depth)
    ell = draw(st.integers(1, min(3, depth)))
    stage = SparseMeasure(n, depth, nodes, tuple(draw(st.lists(window, max_size=2))))
    return stage, draw(st.integers(0, depth - ell)), ell


@given(antichain_stages())
def test_apply_scale_matches_brute_force_oracle(case):
    stage, level, ell = case
    (levels, rows, masses), window_added, (cubes, selections), ratio = _apply_scale(stage, level, ell)
    nodes = dict(zip(zip(levels.tolist(), map(tuple, rows.tolist())), masses.tolist()))
    pairs = dict(zip(map(tuple, cubes.tolist()), map(tuple, selections.tolist())))
    assert len(nodes) == len(levels) and len(pairs) == len(cubes)
    assert (nodes, window_added, pairs, ratio) == brute_apply_scale(stage.n, stage.nodes, level, ell)


def test_apply_scale_rejects_overlapping_nodes():
    # the level-1 node's first level-3 subcube is the level-3 node itself, so
    # no stage that _apply_scale could be handed holds these nodes
    with pytest.raises(InvalidInputError):
        SparseMeasure(2, 6, {(1, (0, 0)): 1.0, (3, (0, 0)): 1.0})


@given(windowed_constructions())
def test_construction_stages_match_brute_force_oracle(case):
    cons, _ = case
    for j, fam in enumerate(cons.certificate.families, start=1):
        nodes, window_added, pairs, ratio = brute_apply_scale(cons.base.n, cons.stages[j - 1].nodes, fam.level, fam.ell)
        assert cons.stages[j].nodes == nodes
        assert (fam.pattern, fam.pairs) == (window_added, pairs)
        assert cons.selection_ratios[j - 1] == (ratio if ratio != math.inf else 1.0)


def assert_fresh_pyramid(measure) -> None:
    """The measure's pyramid and rollup are, to the bit, a fresh build over its nodes."""
    pyramid, sums = measure._level_sums
    fresh = Pyramid(measure.n, measure.rows, measure.levels)
    want = fresh.rollup(measure.weights)
    assert len(pyramid.cubes) == len(pyramid.parents) == len(sums) == MAX_LEVEL + 1
    for level in range(MAX_LEVEL + 1):
        assert np.array_equal(pyramid.cubes[level], fresh.cubes[level])
        assert np.array_equal(pyramid.parents[level], fresh.parents[level])
        assert np.array_equal(sums[level], want[level])
    deepest = int(measure.levels.max(initial=0))
    assert not any(map(len, pyramid.cubes[deepest + 1 :] + pyramid.parents[deepest + 1 :] + sums[deepest + 1 :]))


@st.composite
def one_node_set_runs(draw):
    """(cells, h, depth, shallower, ell, c): a cell set and gauge, a working
    depth, a depth between the cells and it, a sparsity parameter and a scale
    factor.  Scales above the cells leave the nodes as they were."""
    h = draw(st.sampled_from([H32, H2]))
    n, ell = draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]))
    cell_depth = draw(st.integers(1, 6 if n == 2 else 4))
    cell = st.tuples(*[st.integers(0, (1 << cell_depth) - 1)] * n)
    cells = CellSet(n, cell_depth, frozenset(draw(st.lists(cell, min_size=1, max_size=8, unique=True))))
    depth = draw(st.integers(16, 20))
    return cells, h, depth, draw(st.integers(cell_depth, depth)), ell, draw(st.floats(1e-3, 1e3))


@given(one_node_set_runs(), st.booleans())
def test_measures_over_one_node_set_share_one_pyramid_exactly(case, backwards):
    cells, h, depth, shallower, ell, c = case
    mu = build_frostman(cells, h)
    working = mu.with_depth(depth)
    cons = build_sparse_construction(working, h, 1, ell)
    measures = [mu, working, working.with_depth(shallower), working.scaled(c), *cons.stages]
    for measure in measures[::-1] if backwards else measures:  # whichever is read first
        assert_fresh_pyramid(measure)
    assert mu._pyramid is cells.pyramid()
    assert all(m._kin is working for m in measures[2:4])
    assert working._kin is mu and (cons.base is working or cons.base._kin is working)
    for prev, stage in zip(cons.stages, cons.stages[1:]):
        same = np.array_equal(prev.levels, stage.levels) and np.array_equal(prev.rows, stage.rows)
        assert (stage._kin is prev) == same


def test_measures_over_other_nodes_keep_their_own_pyramid():
    # the capped masses of the four cells in one quadrant underflow to 0
    h = Gauge(lambda r: 1.0 if r < 0.5 else 1.5 if r < 1 else 1e-323, "underflow")
    cells = CellSet(2, 2, [(0, 0), (2, 2), (2, 3), (3, 2), (3, 3)])
    mu = build_frostman(cells, h)
    assert mu.rows.tolist() == [[0, 0]] and mu._pyramid is not cells.pyramid()
    full = CellMeasure(2, 4, {(0, 0): 1.0, (1, 1): 1e-300, (3, 2): 0.5})
    zero = CellMeasure(2, 4, {(0, 0): 1.0, (1, 1): 0.0, (3, 2): 0.5})
    derived = [mu, zero._share(full), full.scaled(1e-30), full.scaled(0.0)]  # 1e-330 underflows to 0
    assert [len(m.rows) for m in derived] == [1, 2, 2, 0]
    for measure in derived:
        assert measure._kin is None
        assert_fresh_pyramid(measure)


@given(antichain_stages(), st.randoms(use_true_random=False))
def test_sparse_measure_sorts_or_refuses_nodes_out_of_order(case, rnd):
    stage = case[0]
    levels, rows, weights = stage.levels, stage.rows, stage.weights
    assert SparseMeasure(stage.n, stage.depth, (levels, rows, weights), stage.windows) == stage
    order = list(range(len(levels)))
    rnd.shuffle(order)
    assert SparseMeasure(stage.n, stage.depth, (levels[order], rows[order], weights[order]), stage.windows) == stage
    again = [*order, rnd.choice(order)]
    with pytest.raises(InvalidInputError, match="listed more than once"):
        SparseMeasure(stage.n, stage.depth, (levels[again], rows[again], weights[again]))


@st.composite
def certificates_with_cubes(draw):
    """(cert, depth, cubes): a certificate of one to three scales, some
    extended by the pattern rule, a depth below its last selection level, and
    (level, index) cubes at levels down to that depth, each drawn digit by
    digit and following the selection at a scale four times in five."""
    n, ell = draw(st.sampled_from([1, 2, 3])), draw(st.integers(1, 2))
    scales = [draw(st.integers(0, 2))]
    for _ in range(draw(st.integers(0, 2))):
        scales.append(scales[-1] + ell + draw(st.integers(0, 1)))
    depth = scales[-1] + ell + draw(st.integers(0, 2))
    rnd = draw(st.randoms(use_true_random=False))
    families = []
    for level in scales:
        cubes = {tuple(rnd.randrange(min(3, 1 << level)) for _ in range(n)) for _ in range(rnd.randrange(4))}
        pairs = {q: tuple(i << ell | rnd.randrange(1 << ell) for i in q) for q in cubes}
        families.append(ScaleFamily(level, ell, pairs, pattern=draw(st.booleans())))
    cert = SparsityCertificate(n, ell, tuple(scales), tuple(families))
    cubes = []
    for _ in range(12):
        target = depth if rnd.random() < 0.5 else rnd.randrange(depth + 1)
        level, idx = 0, (0,) * n
        while level < target:
            fam = next((f for f in families if f.level == level), None)
            first = tuple(i << ell for i in idx) if fam is not None and fam.pattern else None
            sel = None if fam is None else fam.pairs.get(idx, first)
            if sel is not None and level + ell <= target and rnd.random() < 0.8:
                level, idx = level + ell, sel
            else:
                level, idx = level + 1, tuple(2 * i + rnd.randrange(2) for i in idx)
        cubes.append((level, idx))
    return cert, depth, cubes


@given(certificates_with_cubes())
def test_check_sparse_matches_brute_force_oracle(case):
    cert, depth, cubes = case
    levels = np.array([t for t, _ in cubes], dtype=np.int64)
    rows = np.array([idx for _, idx in cubes], dtype=np.int64).reshape(-1, cert.n)
    assert _follows(cert, levels, rows).tolist() == [brute_follows(cert, t, idx) for t, idx in cubes]
    cells = CellSet(cert.n, depth, [idx for t, idx in cubes if t == depth])
    assert check_sparse(cells, cert) == all(brute_follows(cert, depth, c) for c in cells.sorted_cells())


def _cube_queries(sm, level: int, rnd: random.Random) -> list[tuple[int, ...]]:
    """Random level-`level` cubes, plus per node the cube holding it or, for a
    node above `level`, its first and one random cube inside it."""
    rows = [tuple(rnd.randrange(1 << level) for _ in range(sm.n)) for _ in range(4)]
    for t, idx in sorted(sm.nodes):
        if t >= level:
            rows.append(tuple(i >> (t - level) for i in idx))
        else:
            rows.append(tuple(i << (level - t) for i in idx))
            rows.append(tuple(i << (level - t) | rnd.randrange(1 << (level - t)) for i in idx))
    return rows


@given(
    st.one_of(windowed_constructions().map(lambda case: case[0].stages), antichain_stages().map(lambda case: case[:1])),
    st.randoms(use_true_random=False),
)
def test_cube_masses_and_occupancy_match_brute_force_oracle(stages, rnd):
    for sm in stages:
        level = rnd.randrange(sm.depth + 1)
        rows = _cube_queries(sm, level, rnd)
        occupied, mass = sm._lookup(level, np.array(rows, dtype=np.int64).reshape(-1, sm.n))
        want = [brute_mass_at(sm, level, q) for q in rows]
        assert list(zip(occupied.tolist(), mass.tolist())) == want
        assert [sm.mass_at(level, q) for q in rows] == [m for _, m in want]


@given(windowed_constructions())
def test_cap_ratios_match_brute_force_oracle(case):
    cons, h = case
    rep = verify_sparse_construction(cons, h, sample_cells=0)
    assert (rep.cap_ratio_h, rep.cap_ratio_k) == brute_sparse_caps(cons, h)


@given(windowed_constructions(), st.data())
def test_support_sample_cells_carry_mass(case, data):
    cons, _ = case
    out, cert = cons.result, cons.certificate
    level = data.draw(st.integers(0, out.depth))
    sample = out.support_sample_cells(level, 16, np.random.default_rng(data.draw(st.integers(0, 2**16))))
    assert all(out.mass_at(level, cell) > 0.0 for cell in sample.cells)
    if level >= cert.scales[-1] + cert.ell:
        assert check_sparse(sample, cert)


@pytest.mark.parametrize("name", ["square_construction", "cube3_construction"])
def test_single_support_draws_keep_the_random_stream(name, request):
    out = request.getfixturevalue(name).result
    ours, oracle = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(20):
        assert out.sample_support_points(ours, 1)[0].tobytes() == brute_support_draw(out, oracle).tobytes()
        assert ours.bit_generator.state == oracle.bit_generator.state


@given(antichain_stages(), st.integers(1, 3000), st.data())
def test_support_cells_keep_the_per_level_stream(case, count, data):
    # one draw per run of levels, cut into blocks, against one draw per level
    stage = case[0]
    level = data.draw(st.integers(0, stage.depth))
    ours, oracle = (np.random.default_rng(data.draw(st.integers(0, 2**16))) for _ in range(2))
    oracle.bit_generator.state = ours.bit_generator.state
    if data.draw(st.booleans()):  # leave a spare 32-bit half in both generators
        ours.integers(0, 2), oracle.integers(0, 2)
    cells = stage._support_cells(ours, count, level)
    assert cells.tobytes() == brute_support_cells(stage, oracle, count, level).tobytes()
    assert ours.bit_generator.state == oracle.bit_generator.state


@pytest.mark.parametrize("name", ["square_construction", "cube3_construction", "cantor_construction"])
@pytest.mark.parametrize("count", [1, 7, 2048, 3000])
def test_deep_support_cells_keep_the_per_level_stream(name, count, request):
    out = request.getfixturevalue(name).result
    ours, oracle = np.random.default_rng(count), np.random.default_rng(count)
    cells = out._support_cells(ours, count, out.depth)
    assert cells.tobytes() == brute_support_cells(out, oracle, count, out.depth).tobytes()
    assert ours.bit_generator.state == oracle.bit_generator.state


@pytest.mark.parametrize("weights", [
    [1.0], [0.3], np.geomspace(1e-300, 1.0, 301), [1e-300, 1.0, 1e-300], np.random.default_rng(5).random(4096) + 1e-3,
])
@pytest.mark.parametrize("count", [1, 2048])
def test_cached_choice_table_keeps_the_stream(weights, count):
    # a pick from the cached table against Generator.choice with p, three picks in a row
    mu = CellMeasure(1, 12, (np.arange(len(weights))[:, None], weights))
    ours, oracle = np.random.default_rng(count), np.random.default_rng(count)
    for _ in range(3):
        picks = mu._pick(ours, count)
        assert picks.tolist() == oracle.choice(len(weights), size=count, p=mu.weights / mu.weights.sum()).tolist()
        assert ours.bit_generator.state == oracle.bit_generator.state


@st.composite
def witness_targets(draw):
    """(target, k): a sparse construction, a CellMeasure with masses from
    1e-300 to 1, declared at times below its cells, or a CellSet, in
    n = 2..4, with a plane dimension k < n."""
    n = draw(st.integers(2, 4))
    k = draw(st.integers(1, n - 1))
    depth = draw(st.integers(1, {2: 8, 3: 5, 4: 3}[n]))
    cell = st.tuples(*[st.integers(0, (1 << depth) - 1)] * n)
    cells = CellSet(n, depth, frozenset(draw(st.lists(cell, min_size=1, max_size=8, unique=True))))
    kind = draw(st.sampled_from(["construction", "measure", "cells"]))
    if kind == "cells":
        return cells, k
    if kind == "measure":
        masses = {c: draw(st.floats(1e-300, 1.0)) for c in sorted(cells.cells)}
        return CellMeasure(n, draw(st.integers(depth, depth + 12)), masses, depth), k
    h = power_exp_gauge(k, 1.0)  # h(r) = r^(k+1)
    return build_sparse_construction(build_frostman(cells, h).with_depth(draw(st.integers(16, 24))), h, k, 1), k


@given(witness_targets(), st.integers(1, 300), st.integers(0, 2**16))
def test_witness_draws_keep_the_stream(case, samples, seed):
    # every centre, then every frame, against the point oracle and one QR per sample
    target, k = case
    draw = target.result.sample_support_points if isinstance(target, sparsify.SparseConstruction) else target.sample_points
    ours, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    centres, frames = _witness_draws(target, k, samples, ours)
    assert centres.tobytes() == brute_points(draw, oracle, samples).tobytes()
    for i in range(samples):
        assert frames[i].tobytes() == np.ascontiguousarray(brute_frame(oracle, centres.shape[1], k)).tobytes()
    assert ours.bit_generator.state == oracle.bit_generator.state


def test_single_support_draws_do_no_work_per_node():
    # the choice table is built once, not on every draw
    grid = np.indices((256, 256)).reshape(2, -1).T
    mu = CellMeasure(2, 8, (grid, np.random.default_rng(0).random(len(grid)) + 0.5)).with_depth(40)
    rng = np.random.default_rng(1)

    def draws():
        for _ in range(100):
            mu.sample_support_points(rng, 1)

    assert _peak_bytes(draws) < 64 * 1024


@pytest.fixture(scope="module")
def cantor_construction():
    """The four-corner Cantor set at depth 10 through the pipeline's k = 1 settings."""
    cells = generate(GeneratorSpec(kind="four-corner-cantor", n=2, depth=10))
    h = parse_gauge("powerexp:1:0.5")
    return build_sparse_construction(build_frostman(cells, h).with_depth(40), h, 1, min_sparsity_parameter(2, 1))


def _peak_bytes(fn) -> int:
    """tracemalloc's peak while `fn` runs, after a first untraced call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_support_draw_memory_is_bounded(cantor_construction):
    # digits come in blocks, not in one array for every level and point
    out = cantor_construction.result
    assert _peak_bytes(lambda: out.sample_support_points(np.random.default_rng(0), 2048)) <= 512 * 1024


def test_sparse_measure_rollup_and_roundtrip(square_construction, tmp_path):
    out = square_construction.result
    roll = brute_rollup(out, 2)
    for level in (0, 1, 2):
        slice_total = sum(v for (lvl, _), v in roll.items() if lvl == level)
        assert slice_total == pytest.approx(out.total, rel=1e-12)
    path = tmp_path / "sparse.json"
    out.save(path)
    back = SparseMeasure.load(path)
    assert back.cube_mass(DyadicCube(2, 6, (31, 17))) == pytest.approx(
        out.cube_mass(DyadicCube(2, 6, (31, 17))), rel=1e-15
    )
    path2 = tmp_path / "again.json"
    back.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_coarse_masses_preserved_exactly(square_construction):
    cons = square_construction
    base = cons.base  # normalized input measure
    out = cons.result
    rolled = brute_rollup(out, 6)
    for (level, idx), mass in rolled.items():
        want = base.cube_mass(DyadicCube(2, level, idx))
        assert mass == pytest.approx(want, abs=1e-15)


@pytest.fixture(scope="module")
def explicit_construction():
    """Four cells at level 4 and scales 3, 5, 7, ...: stage 1 keeps the cells
    as explicit nodes, and from stage 2 on every scale adds a window."""
    cells = CellSet(2, 4, frozenset({(0, 0), (5, 9), (6, 9), (15, 15)}))
    return build_sparse_construction(build_frostman(cells, H2).with_depth(20), H2, 1, 1)


def _tampered(cons, j, drop, add=None):
    """`cons` with node `drop` of stage j removed and the nodes `add` put in."""
    sm = cons.stages[j]
    nodes = {key: m for key, m in sm.nodes.items() if key != drop} | (add or {})
    stages = (*cons.stages[:j], SparseMeasure(sm.n, sm.depth, nodes, sm.windows), *cons.stages[j + 1 :])
    return verify_sparse_construction(dataclasses.replace(cons, stages=stages), H2, sample_cells=0)


def test_untampered_explicit_construction_passes(explicit_construction):
    assert explicit_construction.certificate.families[0].pairs
    rep = verify_sparse_construction(explicit_construction, H2, sample_cells=0)
    assert rep.passed and rep.coarse_drift == 0.0 and rep.support_nested


@pytest.mark.parametrize("add", [None, {(4, (0, 15)): 0.25}], ids=["dropped", "moved"])
def test_drift_check_catches_a_lost_node(explicit_construction, add):
    rep = _tampered(explicit_construction, 1, (4, (0, 0)), add)
    assert rep.coarse_drift == 1.0
    assert rep.passed is False


def test_drift_check_catches_a_rescaled_node(explicit_construction):
    mass = explicit_construction.stages[1].nodes[(4, (5, 9))]
    rep = _tampered(explicit_construction, 1, (4, (5, 9)), {(4, (5, 9)): mass * (1 + 1e-6)})
    assert 0.0 < rep.coarse_drift < 1e-5
    assert rep.passed is False


@pytest.mark.parametrize("j, add", [
    (2, {(4, (0, 15)): 0.25}),  # a cube that holds no node of stage 1
    (3, {(6, (1, 0)): 0.25}),  # inside a stage-2 node, but off its window's zero digit
], ids=["empty-cube", "window-digit"])
def test_nesting_check_catches_a_node_outside_the_support(explicit_construction, j, add):
    assert _tampered(explicit_construction, j, (4, (0, 0)), add).support_nested is False


@pytest.fixture(scope="module")
def cantor6_construction():
    """The four-corner Cantor set at depth 6, working depth 40: two pattern
    families (scales 17 and 33) that list no pair."""
    cells = generate(GeneratorSpec(kind="four-corner-cantor", n=2, depth=6))
    h = parse_gauge("powerexp:1:0.5")
    return build_sparse_construction(build_frostman(cells, h).with_depth(40), h, 1, min_sparsity_parameter(2, 1)), h


def test_window_check_catches_a_window_above_the_active_scale(cantor6_construction):
    cons, h = cantor6_construction
    sm = cons.stages[1]
    added = SparseMeasure(sm.n, sm.depth, (sm.levels, sm.rows, sm.weights), (*sm.windows, (2, 1)))
    with pytest.raises(VerificationError, match="window appeared above the active scale") as err:
        verify_sparse_construction(dataclasses.replace(cons, stages=(cons.stages[0], added, *cons.stages[2:])), h)
    assert err.value.stage == "sparsify"


def test_certificate_check_catches_dropped_pattern_flags(cantor6_construction):
    # every node lies above scale 17, so `_follows` passes; the sampled support
    # cells at level 33 + ell fail `check_sparse`, as no family selects a subcube
    cons, h = cantor6_construction
    cert = cons.certificate
    assert all(f.pattern and not len(f.cubes) for f in cert.families)
    plain = tuple(ScaleFamily(f.level, f.ell, (f.cubes, f.selections)) for f in cert.families)
    rep = verify_sparse_construction(
        dataclasses.replace(cons, certificate=SparsityCertificate(cert.n, cert.ell, cert.scales, plain)), h)
    assert rep.certificate_ok is False and rep.passed is False
    assert verify_sparse_construction(cons, h).passed


def test_selection_ratios_beat_uniform(square_construction):
    # chosen subcube holds at least the average share 2^(-n ell) of its cube
    assert len(square_construction.selection_ratios) == 2
    for ratio in square_construction.selection_ratios:
        assert ratio >= 1.0 - 1e-12


def test_scale_family_view_and_distance(square_construction):
    view = scale_family_view(square_construction, 0)
    assert view.level == 17
    assert view.ell == 4
    # distance from a point to the nearest selected subcube is finite and small
    d = distance_to_family(view, np.array([0.3, 0.7]))
    assert 0.0 <= d < math.sqrt(2) * 2.0**-17 * 32


def test_scale_family_view_rejects_pattern_certificates(square_construction):
    cert = square_construction.certificate
    assert any(f.pattern for f in cert.families)
    with pytest.raises(InvalidInputError):
        scale_family_view(cert, 0)


def test_find_hole_validates_grid(square_construction):
    plane = AffinePlane(np.array([0.3, 0.3]), np.array([[1.0, 0.0]]))
    with pytest.raises(InvalidInputError):
        find_hole(square_construction, 0, [0.3, 0.3], plane, 0.1, grid=4)


def test_find_hole_empty_family_gives_infinite_clearance():
    fam = ScaleFamily(1, 2, {})
    cert = SparsityCertificate(2, 2, (1,), (fam,))
    plane = AffinePlane(np.array([0.9, 0.9]), np.array([[1.0, 0.0]]))
    witness = find_hole(cert, 0, [0.9, 0.9], plane, 5.0, grid=8)
    assert witness is not None
    assert witness.clearance == float("inf")
    assert witness.scale_level == 1


def test_find_hole_far_family_fails_large_target():
    # one selected subcube 0.74 away, threshold 5 * 2^-1 = 2.5: no witness
    fam = ScaleFamily(1, 2, {(0, 0): (2, 2)})
    cert = SparsityCertificate(2, 2, (1,), (fam,))
    plane = AffinePlane(np.array([0.9, 0.9]), np.array([[1.0, 0.0]]))
    assert find_hole(cert, 0, [0.9, 0.9], plane, 5.0, grid=8) is None
    # but an achievable target produces one
    witness = find_hole(cert, 0, [0.9, 0.9], plane, 1.0, grid=8)
    assert witness is not None
    assert witness.clearance >= 0.5


def test_find_hole_zero_target_always_returns(square_construction):
    plane = AffinePlane(np.array([0.31, 0.64]), np.array([[0.6, 0.8]]))
    witness = find_hole(square_construction, 0, [0.31, 0.64], plane, 0.0, grid=8)
    assert witness is not None
    assert witness.clearance >= 0.0


def test_find_hole_hand_geometry():
    # family: the cube [0, 1/2)^2 selects its lexicographic corner subcube
    ell = 2
    fam = ScaleFamily(1, ell, {(0, 0): (0, 0)})
    cert = SparsityCertificate(2, ell, (1,), (fam,))
    x = np.array([0.25, 0.25])
    plane = AffinePlane(x, np.array([[0.0, 1.0]]))
    witness = find_hole(cert, 0, x, plane, 0.0, grid=33)
    assert witness is not None
    # clearance should at least reach the guaranteed floor:
    # dist(x, [0,1/8]^2) scaled by (1 - 2^-ell)
    floor = (1.0 - 2.0**-ell) * math.hypot(0.125, 0.125)
    assert witness.clearance >= floor
    # the best grid point is the far end of the vertical section
    assert witness.clearance == pytest.approx(math.hypot(0.125, 0.375), rel=1e-9)


def test_estimate_c0_positive_at_threshold():
    est = estimate_c0(4, 2, 1, trials=60, grid=12, seed=0)
    assert est.value > 0.0
    assert not est.below_threshold
    assert est.trials == 60


def test_estimate_c0_stays_within_the_support_bound():
    # centers lie in a selected subcube, so no section point clears more than 1/2
    assert estimate_c0(4, 3, 2, trials=64, grid=12, seed=0).value <= 0.5


def test_estimate_c0_flags_small_ell():
    est = estimate_c0(1, 2, 1, trials=10, grid=8, seed=0)
    assert est.below_threshold


# estimate_c0's values, pinned bit for bit
C0_BITS = {
    (1, 12, 0): "0x1.37abab28f77f4p-2", (1, 16, 0): "0x1.2c52a166d8cdbp-2", (1, 24, 0): "0x1.37c3be7a3f286p-2",
    (1, 12, 1): "0x1.ecd4407e686fcp-3", (1, 16, 1): "0x1.ecd4407e686fcp-3", (1, 24, 1): "0x1.ecd4407e686fcp-3",
    (1, 12, 2): "0x1.2393ea6503f7ap-2", (1, 16, 2): "0x1.1d7182c03fe4ap-2", (1, 24, 2): "0x1.20b9af0f16592p-2",
    (1, 12, 3): "0x1.0bbd7482258ebp-2", (1, 16, 3): "0x1.2bf749ec66387p-2", (1, 24, 3): "0x1.2bf749ec66387p-2",
    (2, 12, 0): "0x1.b066547ef4a80p-2", (2, 12, 1): "0x1.ad9aee0166346p-2", (2, 12, 2): "0x1.b37b80d3d2391p-2",
    (2, 12, 3): "0x1.b44a5b196bf44p-2",
}


@pytest.mark.parametrize("k, grid, seed", sorted(C0_BITS))
@pytest.mark.parametrize("block", [8192, 7])  # (point, obstacle) pairs per pass
def test_estimate_c0_keeps_its_bits(k, grid, seed, block, monkeypatch):
    # (4, 2, 1) with 300 trials and (4, 3, 2) with 64: all trials in one block
    # at 8192, one trial per block at 7
    monkeypatch.setattr(sparsify, "HOLE_BLOCK", block)
    est = estimate_c0(4, k + 1, k, trials=300 if k == 1 else 64, grid=grid, seed=seed)
    assert est.value.hex() == C0_BITS[(k, grid, seed)]


def test_estimate_c0_keeps_its_bits_on_wide_sections():
    # section grids of 1,736 and 452 points, so a few trials per block
    assert estimate_c0(4, 4, 3, trials=256, grid=16).value.hex() == "0x1.cf1032065ed66p-2"
    assert estimate_c0(4, 3, 2, trials=2000, grid=24).value.hex() == "0x1.bbc8522060d58p-2"


def test_estimate_c0_memory_does_not_grow_with_the_section_grid():
    # trials go in blocks of at most HOLE_BLOCK section points: 32 trials of
    # 1,736 points each held at once would take 1.8 MB for the points alone
    assert _peak_bytes(lambda: estimate_c0(4, 4, 3, trials=32, grid=16)) <= 1.5 * 2**20


def test_estimate_c0_validates():
    with pytest.raises(InvalidInputError):
        estimate_c0(4, 2, 1, trials=0)
    with pytest.raises(InvalidInputError):
        estimate_c0(4, 2, 1, grid=4)
    with pytest.raises(InvalidInputError):
        estimate_c0(4, 2, 2)
    # past MAX_LEVEL the obstacle corners leave the exact lattice; from 64 on
    # the subcube digits would overflow int64
    for ell in (0, -1, MAX_LEVEL + 1, 63, 64, 70):
        with pytest.raises(InvalidInputError, match=rf"ell must lie in \[1, {MAX_LEVEL}\], got {ell}"):
            estimate_c0(ell, 2, 1, trials=3, grid=8)
    assert estimate_c0(MAX_LEVEL, 2, 1, trials=3, grid=8).value > 0.0


@given(
    st.integers(2, 4).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
    st.integers(1, 5),
    st.integers(8, 10),
    st.integers(1, 6),
    st.integers(0, 2**16),
    st.sampled_from([8192, 7]),
)
def test_estimate_c0_matches_a_loop_over_every_obstacle(nk, ell, grid, trials, seed, block):
    # the oracle scores every section point against all 3^n obstacles, so it
    # checks the pruning of obstacles out of reach of a trial's section
    n, k = nk
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sparsify, "HOLE_BLOCK", block)
        got = estimate_c0(ell, n, k, trials=trials, grid=grid, seed=seed).value
    assert _close(got, brute_c0(ell, n, k, trials, grid, seed))


@st.composite
def explicit_hole_cases(draw):
    """A one-scale explicit certificate, a center anywhere in the unit cube and a frame."""
    n, k = draw(st.sampled_from([(2, 1), (3, 1), (3, 2)]))
    level, ell = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    cube = st.tuples(*[st.integers(0, (1 << level) - 1)] * n)
    cubes = draw(st.lists(cube, min_size=1, max_size=6, unique=True))
    pairs = {q: tuple(draw(st.integers(i << ell, ((i + 1) << ell) - 1)) for i in q) for q in cubes}
    cert = SparsityCertificate(n, ell, (level,), (ScaleFamily(level, ell, pairs),))
    x = np.array(draw(st.tuples(*[st.floats(0.0, 1.0)] * n)))
    frame = brute_frame(np.random.default_rng(draw(st.integers(0, 2**16))), n, k)
    return cert, x, frame


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b))


@given(explicit_hole_cases(), st.integers(8, 12))
# the only selected subcube lies across the unit cube from x
@example((SparsityCertificate(2, 2, (2,), (ScaleFamily(2, 2, {(0, 0): (0, 0)}),)),
          np.array([0.97, 0.97]), np.array([[0.6, 0.8]])), 8)
# the best grid point's nearest subcube is farther from x than x's own nearest
@example((SparsityCertificate(2, 2, (1,), (ScaleFamily(1, 2, {(0, 1): (0, 7), (1, 1): (4, 7)}),)),
          np.array([0.3, 0.9]), np.array([[1.0, 0.0]])), 8)
# the nearest cube's upper face lies exactly at a sweep radius from x
@example((SparsityCertificate(2, 1, (3,), (ScaleFamily(3, 1, {(0, 0): (0, 0), (0, 2): (0, 5)}),)),
          np.array([0.0, 0.875]), np.array([[1.0, 0.0]])), 8)
@example((SparsityCertificate(3, 1, (3,), (ScaleFamily(3, 1, {(0, 0, 0): (0, 0, 0), (0, 0, 3): (0, 0, 6)}),)),
          np.array([0.0, 0.0, 1.0]), np.array([[1.0, 0.0, 0.0]])), 8)
def test_hole_search_matches_brute_force_oracle(case, grid):
    cert, x, frame = case
    assert _close(distance_to_family(scale_family_view(cert, 0), x), brute_family_distance(cert, 0, x))
    witness = find_hole(cert, 0, x, AffinePlane(x, frame), 0.0, grid)
    assert _close(witness.clearance, brute_family_distance(cert, 0, witness.point))
    rho = 2.0 ** -(cert.scales[0] + 1)
    axis = np.linspace(-rho, rho, grid)
    best = max(
        brute_family_distance(cert, 0, x + np.array(t) @ frame)
        for t in product(axis, repeat=frame.shape[0])
        if sum(c * c for c in t) <= rho * rho * (1.0 + 1e-12)
    )
    assert _close(witness.clearance, best)


def _same(a: float, b: float) -> bool:
    return a == b or _close(a, b)


@st.composite
def explicit_hole_batches(draw):
    """A one-scale explicit certificate, at times selecting nothing, and
    centres in and around the unit cube, each with a frame of one dimension."""
    n, k = draw(st.sampled_from([(2, 1), (3, 1), (3, 2)]))
    level, ell = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    cube = st.tuples(*[st.integers(0, (1 << level) - 1)] * n)
    cubes = draw(st.lists(cube, max_size=6, unique=True))
    pairs = {q: tuple(draw(st.integers(i << ell, ((i + 1) << ell) - 1)) for i in q) for q in cubes}
    cert = SparsityCertificate(n, ell, (level,), (ScaleFamily(level, ell, pairs),))
    centre = st.tuples(*[st.one_of(st.floats(0.0, 1.0), st.floats(-0.5, 1.5))] * n)
    xs = np.array(draw(st.lists(centre, min_size=1, max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return cert, xs, [brute_frame(rng, n, k) for _ in xs]


@given(explicit_hole_batches(), st.integers(8, 12), st.sampled_from([0.0, 0.2, 0.45]))
def test_batched_hole_search_matches_per_point_oracles(case, grid, c):
    cert, xs, frames = case
    view = scale_family_view(cert, 0)
    dist = distance_to_family(view, xs)
    assert dist.tolist() == [distance_to_family(view, x) for x in xs]
    assert all(_same(d, brute_family_distance(cert, 0, x)) for d, x in zip(dist.tolist(), xs))
    planes = [AffinePlane(x, frame) for x, frame in zip(xs, frames)]
    found = find_hole(cert, 0, xs, planes, c, grid)
    assert found == tuple(find_hole(cert, 0, x, plane, c, grid) for x, plane in zip(xs, planes))
    with pytest.MonkeyPatch.context() as patch:  # passes of a few pairs, grids cut across passes
        patch.setattr(sparsify, "HOLE_BLOCK", 7)
        assert find_hole(cert, 0, xs, planes, c, grid) == found
        assert distance_to_family(view, xs).tolist() == dist.tolist()
    target = c * 2.0 ** -cert.scales[0]
    for witness, x, frame in zip(found, xs, frames):
        point, best = brute_hole(cert, 0, x, frame, 0.0, grid)
        if not _close(best, target):
            assert (witness is None) == (best < target)
        if witness is not None:
            assert _same(witness.clearance, best)
            assert _same(brute_family_distance(cert, 0, witness.point), best)


@pytest.mark.parametrize("n, seed, c0", [(2, 0, 0.05), (2, 1, 0.3), (2, 2, 0.45), (3, 0, 0.2), (3, 1, 0.4)])
def test_witness_matches_per_sample_loop_on_explicit_certificates(n, seed, c0):
    cells, cert = random_sparse_with_certificate(GeneratorSpec(kind="random-sparse", n=n, depth=6, ell=2, seed=seed))
    rep = witness_unrectifiability(cells, cert, c0, samples=6, seed=seed, grid=8)

    def hole(s, x, frame):
        found = brute_hole(cert, s, x, frame, c0, 8)
        return None if found is None else found[1]

    failures, clear = loop_witness(cells.sample_points, n, 1, cert.scales, hole, 6, seed)
    assert rep.failures == tuple(failures)
    assert list(rep.min_clearance) == [level for level, _ in clear]
    assert all(_close(rep.min_clearance[level], value) for level, value in clear)


@pytest.mark.parametrize("name, c0", [
    ("square_construction", 0.25), ("square_construction", 0.47),
    ("cube3_construction", 0.4), ("cube3_construction", 0.49),
])
@pytest.mark.parametrize("block", [256, 5])  # samples per hole search
def test_witness_matches_per_sample_loop_on_constructions(name, c0, block, request, monkeypatch):
    cons = request.getfixturevalue(name)
    monkeypatch.setattr(sparsify, "WITNESS_BLOCK", block)
    rep = witness_unrectifiability(cons, None, c0, samples=12, seed=2, grid=8)

    def hole(s, x, frame):
        witness = find_hole(cons, s, x, AffinePlane(x, frame), c0, 8)
        return None if witness is None else witness.clearance

    failures, clear = loop_witness(cons.result.sample_support_points, cons.base.n, cons.k, cons.certificate.scales,
                                   hole, 12, 2)
    assert (rep.failures, list(rep.min_clearance.items())) == (tuple(failures), clear)


@pytest.fixture(scope="module")
def sparse3_construction():
    """A random sparse set in n = 3 through the pipeline's k = 2 settings."""
    cells = generate(GeneratorSpec(kind="random-sparse", n=3, depth=9, ell=4, seed=0))
    h = parse_gauge("powerexp:2:0.5")
    return build_sparse_construction(build_frostman(cells, h).with_depth(40), h, 2, min_sparsity_parameter(3, 2))


def test_witness_memory_is_bounded(sparse3_construction):
    # (point, subcube) pairs go in blocks, not in one array for every sample
    c0 = estimate_c0(sparse3_construction.ell, 3, 2, trials=64, grid=12, seed=0).value
    peak = _peak_bytes(lambda: witness_unrectifiability(sparse3_construction, None, c0, samples=24, seed=0, grid=12))
    assert peak <= 1024 * 1024


def test_witness_rejects_no_samples(square_construction):
    for samples in (0, -4):
        with pytest.raises(InvalidInputError, match="samples"):
            witness_unrectifiability(square_construction, None, 0.1, samples=samples)


@pytest.mark.parametrize("x", [
    [0.3], [0.1, 0.2, 0.3], [[[0.1, 0.2]]], [float("nan"), 0.5], [[0.5, 0.5], [float("inf"), 0.5]], "ab",
    [10**400, 0.5],
])
def test_hole_search_rejects_bad_points(x):
    cert = SparsityCertificate(2, 2, (1,), (ScaleFamily(1, 2, {(0, 0): (0, 0)}),))
    with pytest.raises(InvalidInputError):
        distance_to_family(scale_family_view(cert, 0), x)
    plane = AffinePlane(np.array([0.5, 0.5]), np.array([[1.0, 0.0]]))
    planes = plane if np.ndim(x) == 1 else [plane] * len(x)
    with pytest.raises(InvalidInputError):
        find_hole(cert, 0, x, planes, 0.1, grid=8)


def test_find_hole_rejects_mismatched_planes():
    cert = SparsityCertificate(2, 2, (1,), (ScaleFamily(1, 2, {(0, 0): (0, 0)}),))
    xs = np.array([[0.2, 0.2], [0.7, 0.4]])
    line = AffinePlane(xs[0], np.array([[1.0, 0.0]]))
    for planes in ([line], [line, AffinePlane(np.zeros(3), np.array([[1.0, 0.0, 0.0]]))], [line, None], line,
                   [line, line]):
        with pytest.raises(InvalidInputError):
            find_hole(cert, 0, xs, planes, 0.1, grid=8)
    assert len(find_hole(cert, 0, xs, [line, AffinePlane(xs[1], line.frame)], 0.1, grid=8)) == 2


def test_find_hole_without_centres_gives_an_empty_tuple():
    cert = SparsityCertificate(2, 2, (1,), (ScaleFamily(1, 2, {(0, 0): (0, 0)}),))
    assert find_hole(cert, 0, np.empty((0, 2)), [], 0.1, grid=8) == ()


def test_find_hole_rejects_a_plane_based_off_its_centre():
    # the section runs through the centre, so a plane based elsewhere would be moved
    cert = SparsityCertificate(2, 2, (1,), (ScaleFamily(1, 2, {(0, 0): (0, 0)}),))
    with pytest.raises(InvalidInputError, match="not at its centre"):
        find_hole(cert, 0, [0.2, 0.2], AffinePlane([0.9, 0.9], [[1, 0]]), 0.0, 8)
    assert find_hole(cert, 0, [0.2, 0.2], AffinePlane([0.2, 0.2], [[1, 0]]), 0.0, 8).point == (0.45, 0.2)


def test_witness_passes_on_square(square_construction):
    rep = witness_unrectifiability(square_construction, None, 0.25, samples=25, seed=1, grid=12)
    assert rep.passed
    assert rep.failures == ()
    assert rep.scale_levels == (17, 33)
    assert set(rep.min_clearance) == {17, 33}
    for v in rep.min_clearance.values():
        assert v >= 0.25


def test_witness_zero_c0_is_vacuous(square_construction):
    rep = witness_unrectifiability(square_construction, None, 0.0, samples=5, seed=1, grid=8)
    assert rep.passed
    with pytest.raises(InvalidInputError):
        witness_unrectifiability(square_construction, None, -0.1, samples=5)


def test_witness_explicit_cells_with_fabricated_certificate():
    # segment cells with a certificate pointing at the wrong subcubes:
    # the containment check is the upstream guard and must fail
    cells = CellSet(2, 8, frozenset((i, 0) for i in range(256)))
    fam = ScaleFamily(2, 4, {(i, j): (i * 16 + 15, j * 16 + 15) for i in range(4) for j in range(4)})
    cert = SparsityCertificate(2, 4, (2,), (fam,))
    assert check_sparse(cells, cert) is False


def test_witness_explicit_target_needs_certificate():
    cells = CellSet(2, 8, frozenset({(0, 0)}))
    with pytest.raises(InvalidInputError):
        witness_unrectifiability(cells, None, 0.1, samples=2)


def test_witness_on_explicit_random_sparse():
    spec = GeneratorSpec(kind="random-sparse", n=2, depth=12, ell=4, seed=2)
    cells, cert = random_sparse_with_certificate(spec)
    assert check_sparse(cells, cert)
    rep = witness_unrectifiability(cells, cert, 0.05, samples=20, seed=3, grid=12)
    assert rep.passed


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=3), st.integers(0, 10))
def test_random_frames_are_orthonormal(n, k, seed):
    # Gaussian (n, k) matrices in one stack: each frame has the bits of its
    # own QR, and all are of full rank
    if k >= n:
        return
    frames, live = _orthonormal_frames(np.random.default_rng(seed).standard_normal((3, n, k)))
    assert frames.shape == (3, k, n) and live.all()
    oracle = np.random.default_rng(seed)
    for frame in frames:
        assert frame.tobytes() == np.ascontiguousarray(brute_frame(oracle, n, k)).tobytes()
        assert np.abs(frame @ frame.T - np.eye(k)).max() < 1e-10


def test_affine_plane_validates_frame():
    with pytest.raises(InvalidInputError):
        AffinePlane(np.zeros(2), np.array([[1.0, 1.0]]))
    with pytest.raises(InvalidInputError):  # within numpy's default rtol, not within 1e-10
        AffinePlane(np.zeros(2), np.array([[1.0 + 4e-6, 0.0]]))
    with pytest.raises(InvalidInputError):  # NaN compares false with any tolerance
        AffinePlane(np.zeros(2), np.array([[np.nan, 0.0]]))
    with pytest.raises(InvalidInputError):  # a plane through no point
        AffinePlane(np.array([np.nan, 0.0]), np.array([[1.0, 0.0]]))
    assert AffinePlane(np.zeros(2), np.zeros((0, 2))).k == 0  # an empty frame has nothing to check
    p = AffinePlane(np.zeros(2), np.array([[1.0, 0.0]]))
    pts = p.points(np.array([[0.5], [-0.5]]))
    assert np.allclose(pts, [[0.5, 0.0], [-0.5, 0.0]])
