import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmtkit.content import content, dyadic_cover_cost, measure_profile
from gmtkit.corpus import GeneratorSpec, generate
from gmtkit.errors import InvalidInputError
from gmtkit.frostman import build_frostman
from gmtkit.gauge import power_exp_gauge, power_gauge, vanishing_gauge
from gmtkit.lattice import CellSet, Pyramid

from helpers import enumerate_cover_costs, index_ancestor

BARE = power_exp_gauge(1, 0.0)

tiny_sets = st.builds(
    lambda n, depth, picks: CellSet(
        n, depth, frozenset(tuple(p % (2**depth) for p in pick[:n]) for pick in picks)
    ),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=2),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=4),
)


def segment_cells(depth: int) -> CellSet:
    return CellSet(2, depth, frozenset((i, 0) for i in range(2**depth)))


def test_segment_costs_root_diameter_at_every_floor():
    cells = segment_cells(4)
    for min_level in range(5):
        sol = dyadic_cover_cost(cells, BARE, min_level)
        assert sol.cost == pytest.approx(math.sqrt(2), rel=1e-12)
        # every cover ties; the shallowest admissible one wins
        assert [c.index for c in sol.cover] == [(i, 0) for i in range(2**min_level)]
        assert all(c.level == min_level for c in sol.cover)


def test_single_cell_forced_at_bottom():
    cells = CellSet(2, 3, frozenset({(5, 2)}))
    sol = dyadic_cover_cost(cells, BARE, 3)
    assert sol.cost == pytest.approx(math.sqrt(2) / 8, rel=1e-15)
    assert [c.index for c in sol.cover] == [(5, 2)]


def test_full_square_quadratic_gauge_ties_to_two():
    h = power_exp_gauge(2, 0.0)  # h(r) = r^2
    cells = CellSet(2, 0, frozenset({(0, 0)})).refined(3)
    for min_level in range(4):
        sol = dyadic_cover_cost(cells, h, min_level)
        assert sol.cost == pytest.approx(2.0, rel=1e-12)
    # ties resolve to the shallower cube
    top = dyadic_cover_cost(cells, h, 0)
    assert [(c.level, c.index) for c in top.cover] == [(0, (0, 0))]


def test_content_empty_set_is_zero():
    assert content(CellSet(2, 2, frozenset()), BARE) == 0.0


def test_content_matches_frostman_total_on_cantor():
    cells = generate(GeneratorSpec(kind="four-corner-cantor", n=2, depth=6))
    mu = build_frostman(cells, BARE)
    assert content(cells, BARE) == pytest.approx(mu.total, rel=1e-9)


def test_cover_solution_invariants():
    cells = generate(GeneratorSpec(kind="four-corner-cantor", n=2, depth=4))
    sol = dyadic_cover_cost(cells, vanishing_gauge(1), 2)
    # disjoint: no cover cube is an ancestor of another
    addr = [(c.level, c.index) for c in sol.cover]
    for i, (la, ia) in enumerate(addr):
        for j, (lb, ib) in enumerate(addr):
            if i == j:
                continue
            if lb >= la:
                assert index_ancestor(ib, lb - la) != ia
    # covering: every cell has an ancestor in the cover
    cover_set = set(addr)
    for cell in cells.sorted_cells():
        assert any(
            (lvl, index_ancestor(cell, cells.depth - lvl)) in cover_set for lvl, _ in addr
        )
    assert sol.cover_cost(vanishing_gauge(1)) == pytest.approx(sol.cost, rel=1e-12)
    assert all(c.level >= 2 for c in sol.cover)


def test_dp_beats_random_covers():
    cells = generate(GeneratorSpec(kind="four-corner-cantor", n=2, depth=6))
    h = BARE
    best = dyadic_cover_cost(cells, h, 0).cost
    rng = np.random.default_rng(0)
    occupied = [{index_ancestor(c, 6 - lvl) for c in cells.cells} for lvl in range(7)]

    def random_cover_cost(level, idx):
        if idx not in occupied[level]:
            return 0.0
        if level == 6 or rng.random() < 0.35:
            return h(math.sqrt(2) * 2.0**-level)
        return sum(
            random_cover_cost(level + 1, (2 * idx[0] + a, 2 * idx[1] + b))
            for a in (0, 1)
            for b in (0, 1)
        )

    for _ in range(100):
        assert random_cover_cost(0, (0, 0)) >= best - 1e-12


@given(tiny_sets, st.sampled_from([BARE, power_gauge(2), vanishing_gauge(1)]))
@settings(max_examples=25)
def test_dp_matches_exhaustive_enumeration(cells, h):
    for min_level in range(cells.depth + 1):
        got = dyadic_cover_cost(cells, h, min_level).cost
        want = enumerate_cover_costs(cells, h, min_level)
        assert got == pytest.approx(want, rel=1e-12)


@given(tiny_sets, tiny_sets.filter(lambda c: True))
@settings(max_examples=25)
def test_subadditivity(a, b):
    if a.n != b.n:
        return
    depth = max(a.depth, b.depth)
    ar, br = a.refined(depth), b.refined(depth)
    both = CellSet(a.n, depth, ar.cells | br.cells)
    assert content(both, BARE) <= content(ar, BARE) + content(br, BARE) + 1e-12


@given(tiny_sets)
def test_profile_is_nondecreasing(cells):
    prof = measure_profile(cells, BARE)
    assert len(prof) == cells.depth + 1
    for a, b in zip(prof, prof[1:]):
        assert b >= a - 1e-12


@given(
    st.one_of(tiny_sets, st.just(CellSet(2, 2, frozenset()))),
    st.sampled_from([BARE, power_gauge(2), vanishing_gauge(1)]),
)
def test_profile_equals_each_capped_cover_cost(cells, h):
    want = [dyadic_cover_cost(cells, h, lvl).cost for lvl in range(cells.depth + 1)]
    assert measure_profile(cells, h) == want


def test_profile_equals_each_capped_cover_cost_on_cantor():
    cells = generate(GeneratorSpec(kind="four-corner-cantor", n=2, depth=8))
    for h in (BARE, power_gauge(1), vanishing_gauge(1)):
        want = [dyadic_cover_cost(cells, h, lvl).cost for lvl in range(cells.depth + 1)]
        assert measure_profile(cells, h) == want


def test_min_level_beyond_depth_rejected():
    with pytest.raises(InvalidInputError):
        dyadic_cover_cost(segment_cells(2), BARE, 3)


@st.composite
def masked_sets(draw):
    """(cells, selected): a small set with n in 1..3, depth up to 4, and a
    leaf mask over its sorted cells: random, all false or all true."""
    n = draw(st.integers(min_value=1, max_value=3))
    depth = draw(st.integers(min_value=0, max_value=4))
    top = (1 << depth) - 1
    picks = draw(st.lists(st.tuples(*[st.integers(0, top)] * n), min_size=1, max_size=16))
    cells = CellSet(n, depth, frozenset(picks))
    kind = draw(st.sampled_from(["random", "none", "all"]))
    if kind == "random":
        selected = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    else:
        selected = [kind == "all"] * len(cells)
    return cells, np.array(selected, dtype=bool)


@given(masked_sets(), st.sampled_from([power_gauge(1), vanishing_gauge(1), power_exp_gauge(1, 0.0),
                                       power_exp_gauge(2, 0.0)]))
@settings(max_examples=150, deadline=None)
def test_masked_content_is_the_content_of_the_subset(case, h):
    cells, selected = case
    subset = CellSet(cells.n, cells.depth, [c for c, s in zip(cells.sorted_cells(), selected) if s])
    got = content(cells, h, selected)
    assert got == content(subset, h)  # the same bits, not only the same value
    if len(subset) <= 12:
        assert got == pytest.approx(enumerate_cover_costs(subset, h), rel=1e-12, abs=0.0)
    if not selected.any():
        assert got == 0.0


@st.composite
def mask_stacks(draw):
    """(cells, masks): a small set with n in 2..4, depth up to 3, and a (T, N)
    stack of leaf masks over its sorted cells, T in 1..5, perhaps with one row
    all false."""
    n = draw(st.integers(min_value=2, max_value=4))
    depth = draw(st.integers(min_value=0, max_value=3))
    top = (1 << depth) - 1
    picks = draw(st.lists(st.tuples(*[st.integers(0, top)] * n), min_size=1, max_size=10))
    cells = CellSet(n, depth, frozenset(picks))
    rows = draw(st.integers(min_value=1, max_value=5))
    masks = np.array(draw(st.lists(st.booleans(), min_size=rows * len(cells), max_size=rows * len(cells))),
                     dtype=bool).reshape(rows, len(cells))
    blank = draw(st.integers(min_value=-1, max_value=rows - 1))
    if blank >= 0:
        masks[blank] = False
    return cells, masks


@given(mask_stacks(), st.sampled_from([power_gauge(1), vanishing_gauge(1), power_exp_gauge(1, 0.0),
                                       power_exp_gauge(2, 0.0)]))
@example((CellSet(3, 2, frozenset({(0, 1, 2), (3, 3, 0)})), np.array([[True, False]])), power_gauge(1))
@example((CellSet(2, 2, frozenset({(0, 1), (1, 1), (3, 2)})), np.array([[True, True, False], [False] * 3])),
         power_exp_gauge(1, 0.0))
@settings(max_examples=150, deadline=None)
def test_a_stack_of_masks_is_priced_row_by_row(case, h):
    cells, masks = case
    got = content(cells, h, masks)
    assert isinstance(got, np.ndarray) and got.shape == (len(masks),)
    singles = [content(cells, h, row) for row in masks]
    assert all(type(v) is float for v in singles)
    assert got.tolist() == singles  # the same bits, not only the same value
    for row, value in zip(masks, singles):
        subset = CellSet(cells.n, cells.depth, [c for c, s in zip(cells.sorted_cells(), row) if s])
        assert value == pytest.approx(enumerate_cover_costs(subset, h), rel=1e-12, abs=1e-12)


def test_masked_content_rejects_a_bad_mask():
    cells = CellSet(2, 2, frozenset({(0, 0), (1, 3), (2, 2)}))
    for bad in ([True, False], np.ones(4, dtype=bool), np.ones((3, 1), dtype=bool), np.array([1, 0, 1]),
                np.array([1.0, 0.0, 1.0]), np.ones((2, 4), dtype=bool), np.ones((2, 3), dtype=np.int64),
                np.ones((1, 2, 3), dtype=bool), np.True_, [[True, False, True], [True]]):
        with pytest.raises(InvalidInputError):
            content(cells, BARE, bad)
    assert content(cells, BARE, [True, False, True]) == content(CellSet(2, 2, frozenset({(0, 0), (2, 2)})), BARE)


def test_frostman_and_cover_on_one_set_group_it_once(monkeypatch):
    built = []
    init = Pyramid.__init__
    monkeypatch.setattr(Pyramid, "__init__", lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))
    cells = generate(GeneratorSpec(kind="four-corner-cantor", n=2, depth=6))
    build_frostman(cells, BARE)
    dyadic_cover_cost(cells, BARE, 2)
    content(cells, BARE)
    assert len(built) == 1
