"""The applicability screen and its exception families."""

import json

import pytest

from atfkit.classify import check_applicable, monotone_test
from atfkit.polygon import Polygon, catalog, centered_rectangle
from atfkit.scalars import qf

EXPECTED_LABELS = {
    "CP2(3)": (False, "monotone"),
    "S2xS2(2,2)": (False, "monotone"),
    "Bl1CP2": (False, "monotone"),
    "Bl2CP2": (False, "monotone"),
    "Bl3CP2": (False, "monotone"),
    "S2xS2(4,2)": (False, "product_unequal"),
    "HirzebruchF1(4,1)": (True, None),
    "Blowup_S2xS2(4,2,1/2)": (True, None),
    "Blowup_S2xS2(4,2,1)": (False, "half-size-blowup-1"),
    "Blowup2_S2xS2(4,2)": (False, "half-size-blowup-2"),
}


# -- the monotone test ---------------------------------------------------------


def test_monotone_catalog_entries():
    for name in ("CP2(3)", "S2xS2(2,2)", "Bl1CP2", "Bl2CP2", "Bl3CP2"):
        assert monotone_test(catalog(name)), name
    for name in ("S2xS2(4,2)", "HirzebruchF1(4,1)", "Blowup_S2xS2(4,2,1/2)"):
        assert not monotone_test(catalog(name)), name


def test_monotone_rejects_non_delzant():
    skew = Polygon([(0, 0), (2, 0), (0, 1)])
    with pytest.raises(ValueError):
        monotone_test(skew)


def test_monotone_scales_out():
    # doubling one factor breaks the common inradius normalization
    assert monotone_test(catalog("S2xS2(3,3)"))
    assert not monotone_test(catalog("S2xS2(6,3)"))


# -- the screen -----------------------------------------------------------------


@pytest.mark.parametrize("name, expected", sorted(EXPECTED_LABELS.items()))
def test_catalog_screen_labels(name, expected):
    report = check_applicable(catalog(name))
    assert (report.applicable, report.exception_tag) == expected


def test_applicable_report_details():
    report = check_applicable(catalog("Blowup_S2xS2(4,2,1/2)"))
    assert report.applicable
    assert report.witness_edge == 1
    assert report.witness_length == qf("1/2")
    assert report.max_F == 1
    assert report.exception_tag is None


def test_half_size_blowup_sits_on_the_boundary_of_the_screen():
    # the exceptional edge has length exactly max F, so it fails the strict
    # inequality and lands in the exception family
    report = check_applicable(catalog("Blowup_S2xS2(4,2,1)"))
    assert report.witness_edge is None
    assert report.max_F == 1
    assert report.exception_tag == "half-size-blowup-1"


def test_screen_rejects_non_delzant():
    skew = Polygon([(0, 0), (2, 0), (0, 1)])
    with pytest.raises(ValueError):
        check_applicable(skew)


@pytest.mark.parametrize("name", ["CP2(3)", "S2xS2(4,2)", "Blowup_S2xS2(4,2,1)", "F2"])
def test_screen_tests_delzant_once(monkeypatch, name):
    # with no witness the screen runs the monotone test on the polygon it
    # has already found Delzant, and does not test it again
    poly = Polygon([(0, 0), (4, 0), (2, 1), (0, 1)]) if name == "F2" else catalog(name)
    is_delzant, calls = Polygon.is_delzant, []

    def counted(self):
        calls.append(self)
        return is_delzant(self)

    monkeypatch.setattr(Polygon, "is_delzant", counted)
    report = check_applicable(poly)
    assert report.witness_edge is None and report.exception_tag is not None
    assert calls == [poly]
    # monotone_test keeps its own test
    monotone_test(poly)
    assert calls == [poly, poly]


def test_witness_prefers_the_shortest_edge():
    poly = centered_rectangle(6, 4).corner_chop(1, qf("1/2")).corner_chop(3, 1)
    report = check_applicable(poly)
    assert report.applicable
    assert report.max_F > 1  # both chopped edges qualify
    assert report.witness_length == qf("1/2")
    assert poly.self_intersection(report.witness_edge) == -1
    assert poly.edges[report.witness_edge].length == qf("1/2")


def test_witness_tie_breaks_on_the_lower_index():
    poly = centered_rectangle(8, 4).corner_chop(1, 1).corner_chop(3, 1)
    report = check_applicable(poly)
    assert report.applicable
    lengths = [
        (i, poly.edges[i].length)
        for i in range(len(poly.edges))
        if poly.self_intersection(i) == -1 and poly.edges[i].length < report.max_F
    ]
    assert len(lengths) == 2 and lengths[0][1] == lengths[1][1]
    assert report.witness_edge == lengths[0][0]


def test_report_json_shapes():
    yes = check_applicable(catalog("HirzebruchF1(4,1)")).to_json_obj()
    assert yes == {
        "applicable": True,
        "witness_edge": 1,
        "witness_length": "1/1",
        "max_F": "4/3",
        "exception_tag": None,
    }
    no = check_applicable(catalog("CP2(3)")).to_json_obj()
    assert no == {
        "applicable": False,
        "witness_edge": None,
        "witness_length": None,
        "max_F": "1/1",
        "exception_tag": "monotone",
    }


def test_a_screen_failure_outside_every_family_is_tagged_none():
    # the Hirzebruch trapezoid F_2: self-intersections 2, 0, -2, 0, so no
    # edge is exceptional and no known family matches
    poly = Polygon([(0, 0), (4, 0), (2, 1), (0, 1)])
    assert [poly.self_intersection(i) for i in range(4)] == [2, 0, -2, 0]
    report = check_applicable(poly)
    assert (report.applicable, report.exception_tag, report.max_F) == (False, "none", qf("1/2"))


def test_report_json_text():
    report = check_applicable(catalog("Blowup_S2xS2(4,2,1/2)"))
    assert report.to_json() == (
        '{"applicable": true, "witness_edge": 1, "witness_length": "1/2", '
        '"max_F": "1/1", "exception_tag": null}'
    )
    assert json.loads(report.to_json()) == report.to_json_obj()
