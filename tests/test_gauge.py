import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gmtkit.errors import InvalidInputError
from gmtkit.gauge import (
    parse_gauge,
    power_exp_gauge,
    power_gauge,
    ratio_vanishes,
    scaled_gauge,
    unit_ball_volume,
    vanishing_gauge,
)
from gmtkit.lattice import level_diameter

from helpers import grid_monotone

SHIPPED = [
    power_gauge(1),
    power_gauge(2),
    vanishing_gauge(1),
    vanishing_gauge(2),
    power_exp_gauge(1, 0.5),
    power_exp_gauge(1, 0.0),
    power_exp_gauge(2, 1.0),
]


def test_power_gauge_values():
    assert power_gauge(1)(2.0) == pytest.approx(2.0, rel=1e-15)
    assert power_gauge(2)(2.0) == pytest.approx(math.pi, rel=1e-15)
    assert power_gauge(1)(0.0) == 0.0


def test_unit_ball_volumes():
    assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-15)
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=40))
def test_power_gauge_doubling_is_exact(k, j):
    h = power_gauge(k)
    r = 2.0**-j
    assert h(2 * r) == 2**k * h(r)


def test_vanishing_gauge_values():
    g = vanishing_gauge(1)
    assert g(1.0) == pytest.approx(1.0, rel=1e-12)
    r = 2.0**-20
    assert g(r) / r == pytest.approx(1.0 / (1.0 + 20.0 * math.log(2.0)), rel=1e-12)
    assert g(0.0) == 0.0


def test_shipped_gauges_vanish_at_zero_and_grow_on_grid():
    for h in SHIPPED:
        assert h(0.0) == 0.0
        assert grid_monotone(h, levels=40, n=2)


def test_ratio_vanishes_verdicts():
    up = ratio_vanishes(power_exp_gauge(1, 0.5), 1, levels=40)
    assert up.verdict is True
    flat = ratio_vanishes(power_gauge(1), 1, levels=40)
    assert flat.verdict is False
    # constant ratio omega_k / 2^k at every grid point
    vals = [v for _, v in flat.values]
    assert all(v == pytest.approx(1.0, rel=1e-12) for v in vals)
    slow = ratio_vanishes(vanishing_gauge(1), 1, levels=40, eps=0.05)
    assert slow.verdict is True


def test_ratio_vanishes_requires_two_levels():
    with pytest.raises(InvalidInputError):
        ratio_vanishes(power_gauge(1), 1, levels=1)


def test_power_exp_gauge_boundaries():
    bare = power_exp_gauge(1, 0.0)
    assert bare(0.25) == 0.25
    assert bare.label == "powerexp:1:0"
    with pytest.raises(InvalidInputError):
        power_exp_gauge(1, -0.5)
    with pytest.raises(InvalidInputError):
        power_exp_gauge(0, 0.5)


def test_parse_gauge_round_trips():
    for spec in ("power:1", "power:2", "vanish:1", "powerexp:1:0.5", "powerexp:2:0"):
        g = parse_gauge(spec)
        assert g(0.0) == 0.0
        assert g(0.5) > 0.0
    assert parse_gauge("power:2")(2.0) == pytest.approx(math.pi, rel=1e-15)
    assert parse_gauge("powerexp:1:0.5")(0.25) == pytest.approx(0.25**1.5, rel=1e-15)


def test_parse_gauge_rejects_junk():
    for bad in ("power", "power:zero", "nope:1", "powerexp:1", "vanish:-2", "", "0*power:1", "-2*power:1",
                "nan*power:1", "inf*vanish:1", "two*power:1", "2*nope:1", "2*", "powerexp:1:nan",
                "powerexp:1:inf"):
        with pytest.raises(InvalidInputError):
            parse_gauge(bad)


def test_scaled_gauge_scales_pointwise():
    g = scaled_gauge(power_gauge(1), 3.0)
    assert g(0.5) == pytest.approx(3.0 * power_gauge(1)(0.5), rel=1e-15)
    with pytest.raises(InvalidInputError):
        scaled_gauge(power_gauge(1), 0.0)


families = st.one_of(
    st.builds(power_gauge, st.integers(min_value=1, max_value=4)),
    st.builds(vanishing_gauge, st.integers(min_value=1, max_value=4)),
    st.builds(
        power_exp_gauge,
        st.integers(min_value=1, max_value=4),
        st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
    ),
)


@given(families, st.floats(min_value=1e-3, max_value=1e3), st.floats(min_value=1e-3, max_value=1e3))
def test_labels_parse_back_to_the_same_gauge(g, c, d):
    for gauge in (g, scaled_gauge(g, c), scaled_gauge(scaled_gauge(g, c), d)):
        back = parse_gauge(gauge.label)
        assert back.label == gauge.label
        assert back.k_ref == gauge.k_ref
        for n in (1, 2, 3):
            for j in range(41):
                r = level_diameter(n, j)
                assert back(r) == gauge(r)
