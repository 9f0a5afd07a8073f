"""Rotation numbers, orbit classification, gaps, and equidistribution."""

import random
from fractions import Fraction

import pytest


from atfkit.orbits import (
    LevelCoordinate,
    classify_level,
    equidistribution_stats,
    from_level_coordinate,
    gap_values,
    orbit_positions,
    perimeter_value,
    rho_monotone_check,
    rotation_number,
    to_level_coordinate,
)
from atfkit.plane import pt
from atfkit.polygon import ConstructionParams, build_blowup_polygon
from atfkit.scalars import QField, qf
from atfkit.verify import random_params

PARAMS = ConstructionParams(4, 2, qf("1/2"), qf("1/8"))
SQRT2_OVER_8 = QField(0, Fraction(1, 8), 2)


# -- closed forms -------------------------------------------------------------


def test_perimeter_value_matches_level_set():
    rng = random.Random(51)
    for _ in range(8):
        params = random_params(rng)
        poly = build_blowup_polygon(params)
        for k in range(4):
            h = params.c * Fraction(k, 5)
            assert perimeter_value(params, h) == poly.level_perimeter(h)


def test_perimeter_value_domain():
    with pytest.raises(ValueError):
        perimeter_value(PARAMS, qf("1/2"))  # h = c drops the slant edge
    with pytest.raises(ValueError):
        perimeter_value(PARAMS, -1)


def test_rotation_number_frozen_values():
    assert rotation_number(PARAMS, 0) == qf("1/23")
    assert rotation_number(PARAMS, qf("1/4")) == qf("1/39")
    assert rotation_number(PARAMS, SQRT2_OVER_8) == QField(
        Fraction(177, 4183), Fraction(-32, 4183), 2
    )
    assert str(rotation_number(PARAMS, SQRT2_OVER_8)) == "177/4183-32/4183*sqrt(2)"


def test_rotation_number_domain():
    with pytest.raises(ValueError):
        rotation_number(PARAMS, qf("7/16"))  # above c - eps
    with pytest.raises(ValueError):
        rotation_number(PARAMS, -1)
    assert rotation_number(PARAMS, qf("3/8")) == qf("1/71")


# -- orbits --------------------------------------------------------------------


def test_orbit_positions_frozen_start():
    positions = orbit_positions(PARAMS, qf("1/4"), 4)
    assert positions == [qf(0), qf("1/4"), qf("1/2"), qf("3/4")]


def test_orbit_positions_reduce_the_seed():
    per = perimeter_value(PARAMS, qf("1/4"))
    shifted = orbit_positions(PARAMS, qf("1/4"), 3, s0=per + 1)
    assert shifted == [qf(1), qf("5/4"), qf("3/2")]
    negative = orbit_positions(PARAMS, qf("1/4"), 1, s0=-1)
    assert negative == [per - 1]


def test_orbit_positions_validation():
    with pytest.raises(ValueError):
        orbit_positions(PARAMS, qf("1/4"), -1)
    with pytest.raises(ValueError):
        orbit_positions(PARAMS, qf("7/16"), 5)


def test_classify_periodic_levels():
    report = classify_level(PARAMS, qf("1/4"))
    assert report.kind == "periodic"
    assert report.rho == qf("1/39")
    assert report.period == 39
    assert report.distinct_checked == 39
    zero = classify_level(PARAMS, 0)
    assert zero.period == 23


def test_classify_irrational_level():
    report = classify_level(PARAMS, SQRT2_OVER_8, n_checked=400)
    assert report.kind == "irrational-certified"
    assert report.period is None
    assert report.distinct_checked == 400
    assert not report.rho.is_rational()
    assert report.rho.r != 0  # the certificate: nonzero sqrt coefficient


def test_report_json_shape():
    obj = classify_level(PARAMS, qf("1/4")).to_json_obj()
    assert obj == {
        "h": "1/4",
        "rho": "1/39",
        "kind": "periodic",
        "period": 39,
        "distinct_checked": 39,
    }


# -- gap structure -----------------------------------------------------------------


@pytest.mark.parametrize("count", [7, 50, 137, 400])
def test_three_distance_property_irrational(count):
    gaps = gap_values(PARAMS, SQRT2_OVER_8, count)
    assert 1 <= len(gaps) <= 3
    for g in gaps:
        assert g.sign() > 0
    if len(gaps) == 3:
        assert gaps[0] + gaps[1] == gaps[2]


def test_gaps_on_full_periodic_orbit_are_equal():
    gaps = gap_values(PARAMS, qf("1/4"), 39)
    assert gaps == [qf("1/4")]


def test_gaps_partial_periodic_orbit():
    gaps = gap_values(PARAMS, qf("1/4"), 10)
    assert 1 <= len(gaps) <= 3


def test_gap_values_need_two_points():
    with pytest.raises(ValueError):
        gap_values(PARAMS, qf("1/4"), 1)


def test_gaps_sum_to_the_perimeter():
    count = 60
    positions = sorted(orbit_positions(PARAMS, SQRT2_OVER_8, count))
    per = perimeter_value(PARAMS, SQRT2_OVER_8)
    total = positions[0] + per - positions[-1]
    for i in range(count - 1):
        total = total + (positions[i + 1] - positions[i])
    assert total == per


# -- equidistribution ----------------------------------------------------------------


def test_equidistribution_counts():
    counts = equidistribution_stats(PARAMS, SQRT2_OVER_8, 200, 10)
    assert counts == [22, 23, 22, 18, 19, 20, 18, 20, 19, 19]
    assert sum(counts) == 200


def test_equidistribution_every_bin_filled():
    counts = equidistribution_stats(PARAMS, SQRT2_OVER_8, 500, 10)
    assert min(counts) > 0
    assert sum(counts) == 500


def test_equidistribution_validation():
    with pytest.raises(ValueError):
        equidistribution_stats(PARAMS, qf("1/4"), 100, 10)  # rational level
    with pytest.raises(ValueError):
        equidistribution_stats(PARAMS, SQRT2_OVER_8, 100, 0)
    with pytest.raises(ValueError):
        equidistribution_stats(PARAMS, SQRT2_OVER_8, -1, 10)


# -- monotonicity ---------------------------------------------------------------------


def test_rho_monotone_on_random_parameters():
    rng = random.Random(52)
    assert rho_monotone_check(PARAMS, 100)
    for _ in range(6):
        params = random_params(rng)
        assert (params.a + params.b - 4 * params.c).sign() > 0
        assert rho_monotone_check(params, 25)


def test_rho_monotone_grid_validation():
    with pytest.raises(ValueError):
        rho_monotone_check(PARAMS, 1)


# -- level coordinates -----------------------------------------------------------------


def test_level_coordinate_round_trip():
    poly = build_blowup_polygon(PARAMS)
    for p in (pt(0, "-3/4"), pt("3/2", "-3/4"), pt("7/4", 0)):
        coord = to_level_coordinate(poly, p)
        assert from_level_coordinate(poly, coord) == p


def test_level_coordinate_fields():
    poly = build_blowup_polygon(PARAMS)
    coord = to_level_coordinate(poly, pt("-7/4", "-3/4"))
    assert coord == LevelCoordinate(qf("1/4"), qf(0))
