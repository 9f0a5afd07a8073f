"""Rotation numbers, orbit classification, gaps, and equidistribution."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import islice
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    floor_ratio_records,
    floor_ratio_words,
    floor_sum_histogram,
    rho_decreases_on_grid,
    stuck_records,
    walk_histogram,
)

from atfkit import cli, orbits, scalars
from atfkit.diagram import build_pi0
from atfkit.orbits import (
    LevelCoordinate,
    OrbitReport,
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
from atfkit.recurrence import VerificationError
from atfkit.scalars import QField, floor, qf
from atfkit.verify import random_params

PARAMS = ConstructionParams(4, 2, qf("1/2"), qf("1/8"))
SQRT2_OVER_8 = QField(0, Fraction(1, 8), 2)


# -- oracles: the QField walk, set sweep, sort and floor the engine replaced ---


def qfield_positions(params, h, count):
    per = perimeter_value(params, h)
    step = params.c - qf(h)
    s, out = qf(0), []
    for _ in range(count):
        out.append(s)
        s = s + step
        if s >= per:
            s = s - per
    return out


def set_sweep_report(params, h, n_checked=10_000):
    h = qf(h)
    rho = rotation_number(params, h)
    if rho.is_rational():
        q = rho.as_fraction().denominator
        pts = qfield_positions(params, h, q + 1)
        assert len(set(pts[:-1])) == q and pts[-1] == pts[0]
        return OrbitReport(h, rho, "periodic", q, q)
    assert len(set(qfield_positions(params, h, n_checked))) == n_checked
    return OrbitReport(h, rho, "irrational-certified", None, n_checked)


def sorted_gaps(positions, per):
    ordered = sorted(positions)
    gaps = {ordered[i + 1] - ordered[i] for i in range(len(ordered) - 1)}
    gaps.add(ordered[0] + per - ordered[-1])
    return sorted(gaps)


def floor_histogram(positions, per, bins):
    counts = [0] * bins
    for s in positions:
        counts[floor(s * bins / per)] += 1
    return counts


def expansion_length(rho):
    """K for rho = 1/(a_1 + 1/(a_2 + ... + 1/a_K)) in (0, 1), a_K >= 2."""
    x, length = rho.as_fraction(), 0
    while x:
        x = 1 / x
        x -= x.numerator // x.denominator
        length += 1
    return length


RATIONAL_LEVELS = [qf(Fraction(k, 128)) for k in range(49)]  # all of [0, c - eps]
GAP_COUNTS = (2, 3, 7, 50, 137, 400, 2000)
RADICANDS = (2, 3, 5, 6, 7, 10, 11, 13)


def irrational_levels(seed, per_radicand):
    """Seeded levels p/64 +- sqrt(d)/k in [0, c - eps], ``per_radicand`` for each d."""
    rng = random.Random(seed)
    top = PARAMS.c - PARAMS.eps
    levels = []
    for d in RADICANDS:
        chosen = []
        while len(chosen) < per_radicand:
            root = Fraction(rng.choice((-1, 1)), rng.randint(10, 40))
            h = QField(Fraction(rng.randrange(25), 64), root, d)
            if h.sign() >= 0 and h <= top:
                chosen.append(h)
        levels += chosen
    return levels


def assert_walk_matches_oracles(params, h):
    """Positions and gaps at every count in GAP_COUNTS agree with the oracles."""
    per = perimeter_value(params, h)
    positions = qfield_positions(params, h, GAP_COUNTS[-1])
    assert orbit_positions(params, h, len(positions)) == positions
    for count in GAP_COUNTS:
        assert gap_values(params, h, count) == sorted_gaps(positions[:count], per)
    return positions


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


def test_orbit_positions_validation():
    with pytest.raises(ValueError):
        orbit_positions(PARAMS, qf("1/4"), -1)
    for count in (2.5, 10.0, True, Fraction(10)):
        with pytest.raises(ValueError, match="count must be an integer"):
            orbit_positions(PARAMS, qf("1/4"), count)
    # the count is checked first, before the level
    with pytest.raises(ValueError, match="count must be an integer"):
        orbit_positions(PARAMS, qf("7/16"), 5.0)
    with pytest.raises(ValueError):
        orbit_positions(PARAMS, qf("7/16"), 5)


def test_no_positions_for_a_count_of_zero():
    """Kills the mutant ``count < 0`` -> ``count <= 0`` in ``_positions``,
    which would refuse a count of 0."""
    assert orbit_positions(PARAMS, "1/4", 0) == []


def test_classify_checks_ten_thousand_iterates_by_default():
    """Kills the mutant ``n_checked = 10_000`` -> ``10_001`` in
    ``classify_level``'s default."""
    assert classify_level(PARAMS, SQRT2_OVER_8).distinct_checked == 10_000


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


def test_periodic_exactly_on_rational_levels():
    # for rational parameters h -> rho(h) = (c - h) / (2(a + b) - c - 7h) is
    # a Moebius map with rational coefficients and determinant
    # 8c - 2(a + b) != 0, so rho is rational exactly when h is: an oracle
    # for the kind that reads no rows
    rng = random.Random(33)
    for _ in range(16):
        params = random_params(rng)
        a, b, c, eps = (x.as_fraction() for x in (params.a, params.b, params.c, params.eps))
        assert 8 * c - 2 * (a + b) != 0
        top = c - eps
        levels = [qf(0), qf(top), qf(top * Fraction(rng.randint(1, 59), 60))]
        for _ in range(3):
            d = rng.choice([2, 3, 5, 6, 7, 10, 11])
            root = QField(0, 1, d)
            levels.append(top * root / (floor(root) + rng.randint(1, 5)))
        for h in levels:
            assert 0 <= h <= top
            report = classify_level(params, h, n_checked=200)
            assert (report.kind == "periodic") == h.is_rational(), (params, h)


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
    for count in (2.5, 10.0, True):
        with pytest.raises(ValueError, match="count must be an integer"):
            gap_values(PARAMS, SQRT2_OVER_8, count)


def test_gaps_sum_to_the_perimeter():
    count = 60
    positions = sorted(orbit_positions(PARAMS, SQRT2_OVER_8, count))
    per = perimeter_value(PARAMS, SQRT2_OVER_8)
    total = positions[0] + per - positions[-1]
    for i in range(count - 1):
        total = total + (positions[i + 1] - positions[i])
    assert total == per


# -- the integer walk against the oracles ---------------------------------------------


def test_rational_levels_match_the_oracles():
    # an expansion of odd length ends on a per - t_n record and is rewritten
    # as [..., a - 1, 1] to end on the return to the start; both lengths occur
    parities = {expansion_length(rotation_number(PARAMS, h)) % 2 for h in RATIONAL_LEVELS}
    assert parities == {0, 1}
    for h in RATIONAL_LEVELS:
        assert classify_level(PARAMS, h) == set_sweep_report(PARAMS, h)
        assert_walk_matches_oracles(PARAMS, h)


def test_irrational_levels_match_the_oracles():
    for h in irrational_levels(61, 2):
        assert classify_level(PARAMS, h, n_checked=2000) == set_sweep_report(PARAMS, h, 2000)
        positions = assert_walk_matches_oracles(PARAMS, h)
        per = perimeter_value(PARAMS, h)
        for bins in (1, 7, 10, 64):
            assert equidistribution_stats(PARAMS, h, 2000, bins) == floor_histogram(
                positions, per, bins
            )
        # more bins than positions
        for bins in (64, 1000):
            assert equidistribution_stats(PARAMS, h, 50, bins) == floor_histogram(
                positions[:50], per, bins
            )


@pytest.mark.parametrize("h", [SQRT2_OVER_8, QField(Fraction(1, 8), Fraction(1, 40), 13)], ids=str)
def test_long_walks_match_the_oracles(h):
    # at N = 5*10^4 the oracles (QField walk, sort, one floor per position)
    # take about a second
    count = 50_000
    per = perimeter_value(PARAMS, h)
    positions = qfield_positions(PARAMS, h, count)
    assert gap_values(PARAMS, h, count) == sorted_gaps(positions, per)
    for bins in (10, 1000):
        assert equidistribution_stats(PARAMS, h, count, bins) == floor_histogram(positions, per, bins)


def test_random_parameters_match_the_oracles():
    rng = random.Random(62)
    for _ in range(4):
        params = random_params(rng)
        top = params.c - params.eps
        for h in (top * Fraction(rng.randrange(1, 8), 8), top * QField(0, Fraction(1, 2), 2)):
            expected = set_sweep_report(params, h, 400)
            if expected.period is not None:  # the sweep stops at n_checked
                expected = replace(expected, distinct_checked=min(expected.period, 400))
            assert classify_level(params, h, n_checked=400) == expected
            assert_walk_matches_oracles(params, h)


def test_perimeter_with_a_negative_conjugate_matches_the_oracles():
    # P(h) > 0 but its conjugate 71/10 - 7*(4/5 + 9/16*sqrt(2)) is negative,
    # so the histogram divides by a negative norm
    params = ConstructionParams(2, 2, qf("9/10"), qf("1/20"))
    h = QField(Fraction(4, 5), Fraction(-9, 16), 2)
    per = perimeter_value(params, h)
    assert per.sign() > 0 > per.conjugate().sign()
    assert classify_level(params, h, n_checked=2000) == set_sweep_report(params, h, 2000)
    positions = assert_walk_matches_oracles(params, h)
    for bins in (1, 7, 10, 64):
        assert equidistribution_stats(params, h, 2000, bins) == floor_histogram(positions, per, bins)


def test_rational_gaps_past_the_period_include_zero():
    # level 1/4 has period 39: later positions repeat earlier ones
    h = qf("1/4")
    per = perimeter_value(PARAMS, h)
    for count in (40, 41, 78, 79, 137):
        positions = qfield_positions(PARAMS, h, count)
        assert gap_values(PARAMS, h, count) == sorted_gaps(positions, per) == [qf(0), qf("1/4")]


# -- the rows: one level's rotation on integers ----------------------------------

ROW_SHAPES = {
    "rational": PARAMS,
    "sqrt2-a": ConstructionParams(qf("3/1+1/1*sqrt(2)"), 3, qf("1/2"), qf("1/8")),
    "sqrt2-c": ConstructionParams(4, 2, qf("1/2+1/16*sqrt(2)"), qf("1/8")),
    "sqrt3-eps": ConstructionParams(4, 2, qf("1/2"), qf("0/1+1/16*sqrt(3)")),
}
LEVEL_RADICANDS = {
    "rational": (2, 3),
    "sqrt2-a": (2,),
    "sqrt2-c": (2,),
    "sqrt3-eps": (3,),
}


# shapes in two radicands: ConstructionParams refuses each whole, so no
# level or row of theirs is ever read
TWO_RADICAND_SHAPES = {
    "sqrt2-a-sqrt3-eps": ("3/1+1/1*sqrt(2)", 3, "1/2", "0/1+1/16*sqrt(3)"),
    "sqrt2-a-sqrt3-c": ("3/1+1/1*sqrt(2)", 3, "1/2+1/16*sqrt(3)", "1/8"),
    "sqrt2-a-sqrt3-c-eps": ("3/1+1/1*sqrt(2)", 3, "1/2+1/16*sqrt(3)", "1/8+1/16*sqrt(3)"),
}
MIXED_SHAPE = "mixed radicands sqrt(2) and sqrt(3)"


def shape_params(shape):
    """The shape's parameters, built from its scalars for a shape in two radicands."""
    if shape in ROW_SHAPES:
        return ROW_SHAPES[shape]
    a, b, c, eps = TWO_RADICAND_SHAPES[shape]
    return ConstructionParams(qf(a), b, qf(c), qf(eps))


def refused_whole(shape):
    """Whether the shape spans two radicands, after checking that building
    its parameters raises the one mixed-radicand error."""
    if shape not in TWO_RADICAND_SHAPES:
        return False
    with pytest.raises(ValueError) as caught:
        shape_params(shape)
    assert str(caught.value) == MIXED_SHAPE
    return True


@pytest.mark.parametrize(
    "a, b, c, eps",
    [pytest.param(*args, id=shape) for shape, args in TWO_RADICAND_SHAPES.items()]
    + [
        pytest.param("3/1+1/1*sqrt(2)", 3, "0/1+1/4*sqrt(3)", "1/8", id="sqrt2-a-sqrt3-c-quarter"),
        # a < b as well: the radicands are checked first
        pytest.param("0/1+1/1*sqrt(2)", 3, "1/2", "0/1+1/16*sqrt(3)", id="sqrt2-a-below-b-sqrt3-eps"),
    ],
)
def test_a_shape_in_two_radicands_is_refused(a, b, c, eps):
    # every level of the construction lives in one quadratic field: the
    # shape's radicands are merged first, a's named first, before any other
    # shape check, and no orbit function ever sees such parameters
    with pytest.raises(ValueError) as caught:
        ConstructionParams(qf(a), b, qf(c), qf(eps))
    assert str(caught.value) == MIXED_SHAPE


def shape_levels(shape):
    """0, c - eps and seeded rational and sqrt levels in between, the sqrt
    levels in the radicands listed for the shape."""
    params, rng, radicands = ROW_SHAPES[shape], random.Random(f"rows-{shape}"), LEVEL_RADICANDS[shape]
    top = params.c - params.eps
    levels = [qf(0), top]
    while len(levels) < 12:
        root = Fraction(rng.choice((-1, 1)), rng.randint(10, 40))
        h = QField(Fraction(rng.randrange(25), 64), root, rng.choice(radicands))
        levels += [x for x in (h, qf(h.a)) if x.sign() >= 0 and x <= top]
    return levels


@pytest.mark.parametrize("shape", sorted(ROW_SHAPES) + sorted(TWO_RADICAND_SHAPES))
def test_rows_match_their_definition(shape):
    # each row, reduced, is c - h or the closed-form perimeter; the radicand
    # is that of those two values, not the shape's, so it is None exactly when
    # both are rational; where c - h or the perimeter is refused, the rows are
    # refused alike, and a shape in two radicands has no rows: its parameters
    # are refused
    if refused_whole(shape):
        return
    params = ROW_SHAPES[shape]
    for h in shape_levels(shape):
        try:
            step, per = params.c - h, perimeter_value(params, h)
        except ValueError as refusal:
            with pytest.raises(ValueError) as caught:
                orbits._rows(params, h)
            assert str(caught.value) == str(refusal)
            continue
        radicands = {x.d for x in (step, per)} - {None}
        rows = orbits._rows(params, h)
        D, d = rows.D, rows.d
        assert d == (radicands.pop() if radicands else None)
        assert scalars._reduced(rows.a1, rows.b1, D, d) == step
        assert scalars._reduced(rows.a2, rows.b2, D, d) == per


LEVEL_RANGE = "level must satisfy 0 <= h <= c - eps"


@pytest.mark.parametrize(
    "shape, h, count, message",
    [
        ("rational", "-1/64", 0, LEVEL_RANGE),
        ("rational", Fraction(3, 8) + Fraction(1, 10**9), 0, LEVEL_RANGE),
        ("sqrt2-c", QField(0, Fraction(-1, 1000), 2), 0, LEVEL_RANGE),
        ("sqrt2-c", QField(Fraction(3, 8), Fraction(1, 16) + Fraction(1, 10**6), 2), 0, LEVEL_RANGE),
        # the range is tested before the radicands are read
        ("sqrt2-c", QField(0, Fraction(-1, 20), 3), 0, LEVEL_RANGE),
        ("rational", 0.25, 0, "expected an exact int or Fraction, got 0.25"),
        ("rational", True, 0, "expected an exact int or Fraction, got True"),
        # h against c - eps names h's radicand first, the perimeter
        # 2(a + b) - c - 7h names the shape's first
        ("sqrt2-c", QField(0, Fraction(1, 20), 3), 0, "mixed radicands sqrt(3) and sqrt(2)"),
        ("sqrt3-eps", QField(0, Fraction(1, 20), 2), 0, "mixed radicands sqrt(2) and sqrt(3)"),
        ("sqrt2-a", QField(0, Fraction(1, 20), 3), 0, "mixed radicands sqrt(2) and sqrt(3)"),
        # a shape in two radicands is refused before its level is read
        ("sqrt2-a-sqrt3-eps", QField(0, Fraction(1, 20), 2), 0, MIXED_SHAPE),
        ("sqrt2-a-sqrt3-eps", QField(0, Fraction(1, 20), 3), 0, MIXED_SHAPE),
        ("sqrt2-a-sqrt3-c", "1/4", 0, MIXED_SHAPE),
        ("sqrt2-a-sqrt3-c-eps", QField(0, Fraction(1, 20), 2), 0, MIXED_SHAPE),
        ("sqrt2-a-sqrt3-c-eps", QField(0, Fraction(1, 20), 3), 0, MIXED_SHAPE),
    ],
    ids=repr,
)
def test_rows_refuse_bad_levels_and_starts(shape, h, count, message):
    # the walk reads its level through the same rows, so it refuses the level
    # with the same message, even for no positions
    with pytest.raises(ValueError) as caught:
        orbits._rows(shape_params(shape), h)
    assert str(caught.value) == message
    with pytest.raises(ValueError) as caught:
        orbit_positions(shape_params(shape), h, count)
    assert str(caught.value) == message


def test_rows_refuse_a_level_in_another_radicand_where_the_rows_cancel():
    # c - eps = 3/8 is rational, so the range check merges no radicands, and
    # at h = sqrt(3)/16 the integer sqrt-coefficients of both rows come out 0;
    # the shape's sqrt(2) and h's sqrt(3) are still refused as a pair
    params = ConstructionParams(qf("3/1+1/4*sqrt(2)"), 3, qf("1/2+1/16*sqrt(2)"), qf("1/8+1/16*sqrt(2)"))
    h = QField(0, Fraction(1, 16), 3)
    for read in (orbits._rows, lambda p, h: orbit_positions(p, h, 0), classify_level):
        with pytest.raises(ValueError, match=r"^mixed radicands sqrt\(2\) and sqrt\(3\)$"):
            read(params, h)


def test_long_period_is_proved_and_swept_to_n_checked():
    report = classify_level(PARAMS, qf("1/1000003"), n_checked=500)
    assert report.rho == qf("1000001/23000055")
    assert (report.kind, report.period, report.distinct_checked) == ("periodic", 23000055, 500)
    # up to the period the sweep is the whole orbit, as before
    assert classify_level(PARAMS, qf("1/4"), n_checked=39) == set_sweep_report(PARAMS, qf("1/4"))
    assert classify_level(PARAMS, qf("1/4"), n_checked=38).distinct_checked == 38
    assert classify_level(PARAMS, qf("1/4"), n_checked=0).distinct_checked == 0
    with pytest.raises(ValueError):
        classify_level(PARAMS, qf("1/4"), n_checked=-1)
    # a float count would be reported back as distinct_checked=2.5
    for n_checked in (2.5, 10.0, True):
        for h in (qf("1/4"), SQRT2_OVER_8):
            with pytest.raises(ValueError, match="n_checked must be an integer"):
                classify_level(PARAMS, h, n_checked=n_checked)


def test_failed_certificates_raise_verification_error(monkeypatch):
    # each planted fault reads its level on fresh parameters: the parameters
    # keep the last level read, so a shared object could answer from a good
    # read made before the fault, or keep the faulty read for later calls
    def fresh():
        return ConstructionParams(4, 2, qf("1/2"), qf("1/8"))

    rows = orbits._rows

    def longer_step(*args):
        r = rows(*args)
        return r._replace(a1=r.a1 + 1)

    monkeypatch.setattr(orbits, "_rows", longer_step)
    with pytest.raises(VerificationError, match="period certificate") as caught:
        classify_level(fresh(), qf("1/4"))
    assert caught.value.level == qf("1/4") and caught.value.point is None
    monkeypatch.setattr(orbits, "_rows", rows)

    def missed_return(rows, count):
        # level 1/4 has period 39: records of a walk not back at the start by then
        return (39, 1, 0), (1, rows.a2, rows.b2)

    monkeypatch.setattr(orbits, "_records", missed_return)
    with pytest.raises(VerificationError, match="period verification") as caught:
        classify_level(fresh(), qf("1/4"))
    assert caught.value.level == qf("1/4") and caught.value.got is None
    # back at the start after one step, before the period
    monkeypatch.setattr(orbits, "_records", stuck_records)
    with pytest.raises(VerificationError, match="period verification"):
        classify_level(fresh(), qf("1/4"))
    with pytest.raises(VerificationError, match="produced a repeat") as caught:
        classify_level(fresh(), SQRT2_OVER_8, n_checked=10)
    assert caught.value.level == SQRT2_OVER_8


# -- the level read the parameters keep -----------------------------------------------

SLOT_COUNTS = (0, 1, 2, 3, 39, 200, 2000)
SLOT_BINS = (1, 3, 10, 64)


def slot_levels(shape):
    """The shape's levels, each also as text and, when rational, as a
    Fraction (one normal form in three spellings), each irrational one also
    in sqrt(5) (the same integers in another radicand), and refused ones:
    out of range, in a radicand of its own, malformed and inexact."""
    params = ROW_SHAPES[shape]
    levels = shape_levels(shape)
    levels += [str(h) for h in levels] + [h.a for h in levels if h.is_rational()]
    levels += [QField(h.a, h.b, 5) for h in levels if type(h) is QField and h.d]
    return levels + [
        "-1/64", params.c - params.eps + Fraction(1, 10**9), QField(0, Fraction(1, 20), 5), "x", 0.25
    ]


def slot_call(params, name, h, count, bins):
    """One orbit statistic, or the type and text of the error it raised."""
    try:
        if name == "classify":
            return classify_level(params, h, count)
        if name == "gaps":
            return gap_values(params, h, count)
        return equidistribution_stats(params, h, count, bins)
    except (ValueError, VerificationError) as error:
        return type(error), str(error)


@pytest.mark.parametrize("shape", sorted(ROW_SHAPES) + sorted(TWO_RADICAND_SHAPES))
def test_the_kept_level_read_answers_as_fresh_parameters_do(shape):
    # 1,500 seeded calls in random order on one params object, each level
    # drawn mostly from the last four used, each answer (or refusal) compared
    # with the same call on fresh parameters that have read nothing; a shape
    # in two radicands has no parameters to keep a level in
    if refused_whole(shape):
        return
    rng = random.Random(f"slot-{shape}")
    params, pool = ROW_SHAPES[shape], slot_levels(shape)
    recent = []
    for _ in range(1500):
        h = rng.choice(recent) if recent and rng.random() < 0.8 else rng.choice(pool)
        recent = [x for x in recent if x is not h][-3:] + [h]
        count = rng.choice(SLOT_COUNTS) if rng.random() < 0.95 else rng.choice((-1, 2.0, "3"))
        call = rng.choice(("classify", "gaps", "histogram")), h, count, rng.choice(SLOT_BINS)
        got = slot_call(params, *call)
        want = slot_call(replace(params), *call)
        assert type(got) is type(want) and got == want, (call, got, want)


def record_calls(monkeypatch, *names):
    """The list that each call of the named ``orbits`` functions appends its name to."""
    calls = []

    def counted(name):
        read = getattr(orbits, name)

        def counting(*args):
            calls.append(name)
            return read(*args)

        monkeypatch.setattr(orbits, name, counting)

    for name in names:
        counted(name)
    return calls


def test_one_level_is_read_once_by_its_three_statistics(monkeypatch):
    params = ConstructionParams(4, 2, qf("1/2"), qf("1/8"))
    calls = record_calls(monkeypatch, "_rows", "_records")
    report = classify_level(params, SQRT2_OVER_8, 2000)
    gaps = gap_values(params, SQRT2_OVER_8, 2000)
    counts = equidistribution_stats(params, SQRT2_OVER_8, 2000, 10)
    assert calls == ["_rows", "_records"]
    fresh = ConstructionParams(4, 2, qf("1/2"), qf("1/8"))
    assert report == classify_level(fresh, SQRT2_OVER_8, 2000)
    assert gaps == gap_values(fresh, SQRT2_OVER_8, 2000)
    assert counts == equidistribution_stats(fresh, SQRT2_OVER_8, 2000, 10)


def test_a_rational_classify_reads_its_level_once(monkeypatch):
    params = ConstructionParams(4, 2, qf("1/2"), qf("1/8"))
    calls = record_calls(monkeypatch, "_level", "_rows", "_records")
    report = classify_level(params, "1/4", 2000)
    assert calls == ["_level", "_rows", "_records"]
    assert report == classify_level(ConstructionParams(4, 2, qf("1/2"), qf("1/8")), "1/4", 2000)


def test_an_orbit_dump_reads_its_level_once(monkeypatch, tmp_path, capsys):
    # the classify, the histogram and the walk of one orbit command share
    # one read of its level
    calls = record_calls(monkeypatch, "_rows")
    dump = tmp_path / "orbit.csv"
    argv = ["orbit", "--h", "0/1+1/8*sqrt(2)", "--n", "1000", "--bins", "10", "--dump", str(dump)]
    assert cli.main(argv) == 0
    assert calls == ["_rows"]
    assert len(dump.read_text().splitlines()) == 1 + 1000


def test_a_level_read_leaves_equality_hash_and_json_as_they_were():
    params = ConstructionParams(4, 2, qf("1/2"), qf("1/8"))
    before = hash(params), repr(params), build_pi0(params).to_json_obj()
    for h in (SQRT2_OVER_8, qf("1/4")):
        classify_level(params, h, 2000)
        gap_values(params, h, 2000)
    equidistribution_stats(params, SQRT2_OVER_8, 2000, 10)
    assert params == ConstructionParams(4, 2, qf("1/2"), qf("1/8")) == replace(params)
    assert (hash(params), repr(params), build_pi0(params).to_json_obj()) == before


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
    with pytest.raises(ValueError, match="below 2\\*\\*64"):
        equidistribution_stats(PARAMS, SQRT2_OVER_8, 2**64, 10)
    # True was read as one bin, 10.0 samples raised TypeError
    for n, bins in ((10, True), (10, 10.0), (10.0, 10), (2.5, 10), (True, 10)):
        with pytest.raises(ValueError, match="must be an integer"):
            equidistribution_stats(PARAMS, SQRT2_OVER_8, n, bins)
    # both are checked before the level
    with pytest.raises(ValueError, match="bin count must be an integer"):
        equidistribution_stats(PARAMS, qf("1/4"), 10, 10.0)


# -- the histogram from the standard words of {bins*rho} ---------------------------


def beta_expansion(params, h, bins, count):
    """m = floor(bins*rho), beta = bins*rho - m and beta's first partial quotients."""
    x = bins * rotation_number(params, h)
    m = floor(x)
    beta = rest = x - m
    quotients = []
    for _ in range(count):
        rest = 1 / rest
        quotients.append(floor(rest))
        rest = rest - quotients[-1]
    return m, beta, quotients


def assert_histogram_matches_the_floors(params, h, n, bins):
    positions = qfield_positions(params, h, n)
    expected = floor_histogram(positions, perimeter_value(params, h), bins)
    assert equidistribution_stats(params, h, n, bins) == expected


@pytest.mark.parametrize("bins", [1, 2, 10, 39, 64], ids=str)
def test_histogram_of_the_first_three_positions(bins):
    # no letter of the word is read below n = 3, and one at n = 3
    for h in (SQRT2_OVER_8, QField(Fraction(1, 8), Fraction(1, 40), 13)):
        for n in range(4):
            assert_histogram_matches_the_floors(PARAMS, h, n, bins)


def test_histogram_when_beta_is_above_a_half():
    # a_1 = 1: s_0 = [m] is not a prefix, and s_1 = s_-1 = [m + 1] is
    h = QField(Fraction(1, 8), Fraction(1, 40), 13)
    m, beta, quotients = beta_expansion(PARAMS, h, 64, 1)
    assert m == 1 and 2 * beta > 1 and quotients == [1]
    for n in (2, 3, 4, 5, 50, 2000):
        assert_histogram_matches_the_floors(PARAMS, h, n, 64)


def test_histogram_when_each_step_passes_a_bin_boundary():
    # m >= 1: every letter of the word is m or m + 1
    for bins, expected_m in ((39, 1), (78, 2), (64, 2)):
        assert beta_expansion(PARAMS, SQRT2_OVER_8, bins, 0)[0] == expected_m
        for n in (3, 50, 2000):
            assert_histogram_matches_the_floors(PARAMS, SQRT2_OVER_8, n, bins)


@pytest.mark.parametrize("sign", [1, -1], ids=["above", "below"])
def test_histogram_next_to_a_rational_level(sign):
    # rho(1/4) = 1/39, so at 1/4 +- sqrt(2)/10^12 and 39 or 78 bins beta is
    # within 10^-10 of 0 or 1 and a partial quotient is about 10^11: its
    # repeat count is cut at the letters read, or the word would not fit in
    # memory
    h = qf("1/4") + QField(0, Fraction(sign, 10**12), 2)
    for bins in (39, 78):
        quotients = beta_expansion(PARAMS, h, bins, 2)[2]
        assert max(quotients) > 10**11
        for n in (0, 1, 2, 3, 2000):
            assert_histogram_matches_the_floors(PARAMS, h, n, bins)


def test_histogram_matches_the_walk_on_seeded_cases():
    # the walk oracle costs one exact sign test per position, up to N = 20,000
    rng = random.Random(65)
    for case in range(40):
        params = random_params(rng)
        top = params.c - params.eps
        shift = QField(Fraction(rng.randrange(8), 16), Fraction(1, rng.randint(8, 40)), rng.choice(RADICANDS))
        h = top * shift
        assert not rotation_number(params, h).is_rational()
        n = 20_000 if case == 0 else rng.choice((rng.randint(0, 20), rng.randint(0, 20_000)))
        bins = rng.randint(2, 50) if case % 2 else rng.randint(2, 1000)
        assert equidistribution_stats(params, h, n, bins) == walk_histogram(params, h, n, bins)


def test_histogram_on_a_big_endian_host(monkeypatch):
    """Kills the mutant ``counts[::-1]`` -> ``counts[::-2]`` in
    ``equidistribution_stats``, whose big-endian branch a little-endian host
    never runs: below n = 256 each packed field is one byte, which reads the
    same in either byte order, so the branch runs here on ``sys.byteorder``
    set to "big" and must give the same counts."""
    h = QField(Fraction(1, 8), Fraction(1, 40), 13)
    expected = {bins: equidistribution_stats(PARAMS, h, 255, bins) for bins in (1, 2, 7, 10)}
    monkeypatch.setattr(orbits, "sys", SimpleNamespace(byteorder="big"))
    for bins, counts in expected.items():
        assert equidistribution_stats(PARAMS, h, 255, bins) == counts


def test_histogram_at_the_field_width_boundaries():
    # a packed field is 1 byte up to n = 255 and 2 bytes up to 65535; with
    # a single bin, that bin holds all n positions, the most a field holds
    h = QField(Fraction(1, 8), Fraction(1, 40), 13)
    per = perimeter_value(PARAMS, h)
    positions = qfield_positions(PARAMS, h, 65536)
    for bins in (1, 2, 3, 10):
        for small in (255, 65535):
            expected = floor_histogram(positions[:small], per, bins)
            assert equidistribution_stats(PARAMS, h, small, bins) == expected
            last = floor_histogram(positions[small : small + 1], per, bins)
            expected = [x + y for x, y in zip(expected, last)]
            assert equidistribution_stats(PARAMS, h, small + 1, bins) == expected


def test_the_floor_sum_oracle_matches_the_walk():
    near_quarter = qf("1/4") + QField(0, Fraction(1, 10**12), 2)
    for h in (SQRT2_OVER_8, QField(Fraction(1, 8), Fraction(1, 40), 13), near_quarter):
        for n in (0, 1, 2, 3, 255, 2000):
            for bins in (1, 2, 10, 39):
                assert floor_sum_histogram(PARAMS, h, n, bins) == walk_histogram(PARAMS, h, n, bins)


@pytest.mark.parametrize("n", [2**32 - 1, 2**32 + 1, 10**12, 2**64 - 1], ids=str)
def test_histogram_far_past_the_cap_matches_the_floor_sums(n):
    for h in (SQRT2_OVER_8, qf("1/4") - QField(0, Fraction(1, 10**12), 2)):
        for bins in (1, 2, 10):
            assert equidistribution_stats(PARAMS, h, n, bins) == floor_sum_histogram(PARAMS, h, n, bins)


def test_histogram_of_a_trillion_positions_counts_them_all():
    counts = equidistribution_stats(PARAMS, SQRT2_OVER_8, 10**12, 1000)
    assert len(counts) == 1000 and sum(counts) == 10**12 and min(counts) > 0


# -- partial quotients from one integer square root ----------------------------------

# 17/32 - sqrt(2)/8 on PARAMS: the step c - h = -1/32 + sqrt(2)/8 has a
# negative norm, 1/1024 - 2/64
NEGATIVE_NORM_LEVEL = QField(Fraction(17, 32), Fraction(-1, 8), 2)


@st.composite
def records_rows(draw):
    """Rows with 0 < step < per, over d None or a radicand, some of them in a
    rational ratio, with a count up to 5000 or of 2**64 - 1."""
    d = draw(st.sampled_from((None, 2, 3, 5, 13)))
    ints = st.integers(-10**4, 10**4)
    if d is None or draw(st.booleans()):
        x, y = draw(ints), draw(ints) if d else 0
        p = draw(st.integers(1, 10**4))
        q = p + draw(st.integers(1, 10**4))
        if scalars._sign(x, y, d) < 0:
            x, y = -x, -y
        a1, b1, a2, b2 = p * x, p * y, q * x, q * y
    else:
        rows = []
        for _ in range(2):
            x, y = draw(ints), draw(ints)
            rows.append((x, y) if scalars._sign(x, y, d) >= 0 else (-x, -y))
        if scalars._sign(rows[1][0] - rows[0][0], rows[1][1] - rows[0][1], d) < 0:
            rows.reverse()
        (a1, b1), (a2, b2) = rows
    count = draw(st.one_of(st.integers(1, 5000), st.just(2**64 - 1)))
    return orbits._Rows(d, 1, a1, b1, a2, b2), count


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(records_rows())
# 1/3 = [0; 3] ends on an odd k and is read as [0; 2, 1]; 2/5 = [0; 2, 2]
# ends on an even k
@example((orbits._Rows(None, 1, 1, 0, 3, 0), 10))
@example((orbits._Rows(None, 1, 2, 0, 5, 0), 10))
@example((orbits._Rows(None, 1, 1, 0, 3, 0), 3))
def test_records_match_the_floor_ratio_oracle(case):
    rows, count = case
    d, _, a1, b1, a2, b2 = rows
    # 0 < step < per, the rows of every level
    assume(scalars._sign(a1, b1, d) > 0 < scalars._sign(a2 - a1, b2 - b1, d))
    assert orbits._records(rows, count) == floor_ratio_records(rows, count)


def test_records_end_a_rational_expansion_on_the_return_to_the_start():
    """Kills the mutants ``if not odd`` -> ``if odd`` and ``q1 - q0`` ->
    ``q1 + q0`` in the rational ending of ``orbits._records``, which the
    tests of the public functions pass: past the return to the start, the
    gaps and the period read only the t_n side.

    per/step = 3 is [3], one quotient, on the per - t_n side; the records
    read it as [2, 1]: the smallest t_n is 0 at n = 3, the smallest
    per - t_n is step at n = 2."""
    rows = orbits._Rows(None, 1, 1, 0, 3, 0)
    assert orbits._records(rows, 10) == ((3, 0, 0), (2, 1, 0)) == floor_ratio_records(rows, 10)
    # per/step = 5/2 = [2, 2] ends on the t_n side as it is
    rows = orbits._Rows(None, 1, 2, 0, 5, 0)
    assert orbits._records(rows, 10) == ((5, 0, 0), (2, 1, 0)) == floor_ratio_records(rows, 10)


@pytest.mark.parametrize("h", [SQRT2_OVER_8, NEGATIVE_NORM_LEVEL], ids=str)
def test_records_and_words_at_two_to_the_64_match_the_floor_ratio_oracles(h):
    n = 2**64 - 1
    rows = orbits._rows(PARAMS, h)
    assert orbits._records(rows, n) == floor_ratio_records(rows, n)
    for bins in (1, 10, 97):
        # the histogram's m and repeats are the partial quotients of
        # bins*rho = [m; a_1, a_2, ...], with r_1 = a_1 - 1
        m, reps, lens = floor_ratio_words(rows, n, bins)
        assert lens[-2] <= n - 2 < lens[-1]
        quotients = scalars._quotients(bins * rows.a1, bins * rows.b1, rows.a2, rows.b2, rows.d)
        assert list(islice(quotients, len(reps) + 1)) == [m, reps[0] + 1, *reps[1:]]
        assert equidistribution_stats(PARAMS, h, n, bins) == floor_sum_histogram(PARAMS, h, n, bins)


def test_a_level_whose_step_has_a_negative_norm_matches_the_oracles():
    h = NEGATIVE_NORM_LEVEL
    rows = orbits._rows(PARAMS, h)
    assert h.sign() >= 0 and h <= PARAMS.c - PARAMS.eps
    assert rows.a1 ** 2 - rows.d * rows.b1 ** 2 < 0
    assert classify_level(PARAMS, h, n_checked=2000) == set_sweep_report(PARAMS, h, 2000)
    positions = assert_walk_matches_oracles(PARAMS, h)
    per = perimeter_value(PARAMS, h)
    for bins in (1, 7, 10, 64, 1000):
        assert equidistribution_stats(PARAMS, h, 2000, bins) == floor_histogram(positions, per, bins)
    for count in (1, 2, 3, 50, 2000, 10**6):
        assert orbits._records(rows, count) == floor_ratio_records(rows, count)


# -- monotonicity ---------------------------------------------------------------------


def test_rho_monotone_on_random_parameters():
    rng = random.Random(52)
    assert rho_monotone_check(PARAMS) and rho_decreases_on_grid(PARAMS, 100)
    for _ in range(6):
        params = random_params(rng)
        assert (params.a + params.b - 4 * params.c).sign() > 0
        assert rho_monotone_check(params) and rho_decreases_on_grid(params, 25)


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
