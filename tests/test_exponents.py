from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from lpgraph.exponents import (
    ExponentVector,
    chain3_constructed_region,
    chain3_missing_endpoints,
    halfspace_membership,
    hull_membership,
    improving_profile_circle,
    necessary_halfspaces,
    region_compare,
    sufficient_vertices,
)
from lpgraph.graphs import single_edge, triangle


def test_profile_breakpoints_d2():
    p = improving_profile_circle(2)
    assert p.breakpoints == ((F(0), F(0)), (F(1, 3), F(2, 3)), (F(1), F(1)))
    assert p.value(F(0)) == 0
    assert p.value(F(1, 3)) == F(2, 3)
    # linear interpolation on the upper segment: v(u) = 1/2 + u/2
    assert p.value(F(2, 3)) == F(5, 6)


def test_profile_general_d():
    p = improving_profile_circle(3)
    assert p.value(F(1, 4)) == F(3, 4)


def test_profile_rejects_low_dimension():
    with pytest.raises(ValueError):
        improving_profile_circle(1)


@given(st.fractions(min_value=0, max_value=1),
       st.fractions(min_value=0, max_value=1),
       st.fractions(min_value=0, max_value=1))
@settings(max_examples=200)
def test_profile_concavity_and_domination(a, b, c):
    p = improving_profile_circle(2)
    u1, u2, u3 = sorted((a, b, c))
    assert p.value(u2) >= u2  # dominates the diagonal
    if u1 < u3:
        t = (u2 - u1) / (u3 - u1)
        chord = (1 - t) * p.value(u1) + t * p.value(u3)
        assert p.value(u2) >= chord


def test_necessary_rows_d2():
    tri = necessary_halfspaces("triangle", 2)
    row5 = tri.rows[4]
    assert row5.coeffs == (F(3), F(3), F(4)) and row5.rhs == F(5)
    ch = necessary_halfspaces("chain3", 2)
    assert ch.rows[2].coeffs == (F(2), F(2), F(1)) and ch.rows[2].rhs == F(3)
    assert ch.rows[0].relation == ">=" and ch.rows[0].rhs == F(1)


def test_necessary_unknown_kind():
    with pytest.raises(ValueError):
        necessary_halfspaces("square", 2)


def test_halfspace_membership_center_point():
    tri = necessary_halfspaces("triangle", 2)
    ok, violated, tight = halfspace_membership(tri, (F(1, 2),) * 3)
    assert ok and not violated
    # conditions 5-7 are tight with value 5 each
    for lab in ("triangle-5", "triangle-6", "triangle-7"):
        assert lab in tight
    for row in tri.rows[4:]:
        assert row.evaluate((F(1, 2),) * 3) == F(5)


def test_halfspace_membership_all_ones_fails():
    tri = necessary_halfspaces("triangle", 2)
    ok, violated, _ = halfspace_membership(tri, (F(1),) * 3)
    assert not ok
    assert "triangle-2" in violated
    assert tri.rows[1].evaluate((F(1),) * 3) == F(4)


def test_halfspace_membership_zero_fails_lower_bound():
    for kind in ("triangle", "chain3"):
        ok, violated, _ = halfspace_membership(
            necessary_halfspaces(kind, 2), (F(0),) * 3)
        assert not ok and f"{kind}-1" in violated


def test_sufficient_vertices_triangle():
    poly = sufficient_vertices("triangle")
    assert len(poly.vertices) == 7
    assert (F(1, 2), F(1, 2), F(1, 2)) in poly.vertices


def test_sufficient_vertices_regular_edge():
    poly = sufficient_vertices("regular", single_edge())
    assert set(poly.vertices) == {(F(1), F(0)), (F(0), F(1)),
                                  (F(2, 3), F(2, 3))}


def test_sufficient_vertices_regular_triangle():
    poly = sufficient_vertices("regular", triangle())
    assert set(poly.vertices) == {
        (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1)),
        (F(2, 3), F(2, 3), F(0)), (F(2, 3), F(0), F(2, 3)),
        (F(0), F(2, 3), F(2, 3)),
    }


def test_hull_membership_witness():
    poly = sufficient_vertices("triangle")
    inside, lam = hull_membership(poly, (F(1, 3),) * 3)
    assert inside
    assert sum(lam) == 1 and all(l >= 0 for l in lam)
    inside2, _ = hull_membership(poly, (F(1, 2),) * 3)
    assert inside2


def test_hull_membership_outside():
    poly = sufficient_vertices("chain3")
    # every polygon vertex has coordinate sum <= 3/2 < 5/3
    assert max(sum(v) for v in poly.vertices) == F(3, 2)
    inside, lam = hull_membership(poly, (F(2, 3), F(2, 3), F(1, 3)))
    assert not inside and lam is None


def test_hull_membership_dimension_mismatch():
    with pytest.raises(ValueError):
        hull_membership(sufficient_vertices("triangle"), (F(1, 2), F(1, 2)))


def test_region_compare_sufficient_inside_necessary():
    for kind in ("triangle", "chain3"):
        rep = region_compare(sufficient_vertices(kind),
                             necessary_halfspaces(kind, 2))
        assert rep.contained, rep.offenders
    # spot value: (2/3, 2/3, 0) against triangle condition 3 gives 2 = d
    row3 = necessary_halfspaces("triangle", 2).rows[2]
    assert row3.evaluate((F(2, 3), F(2, 3), F(0))) == F(2)


def test_constructed_region_contents():
    reg = chain3_constructed_region(2)
    assert hull_membership(reg, (F(2, 3), F(2, 3), F(1, 3)))[0]
    assert hull_membership(reg, (F(1), F(0), F(0)))[0]
    assert max(sum(v) for v in reg.vertices) == F(5, 3)


def test_constructed_region_escapes_polygon():
    rep = region_compare(chain3_constructed_region(2),
                         sufficient_vertices("chain3"))
    assert not rep.contained
    assert any(v == (F(2, 3), F(2, 3), F(1, 3)) for v, _ in rep.offenders)


def test_missing_endpoints_sit_on_necessary_boundary():
    nec = necessary_halfspaces("chain3", 2)
    for pt in chain3_missing_endpoints():
        ok, _, tight = halfspace_membership(nec, pt)
        assert ok
        assert {"chain3-2", "chain3-3"} <= set(tight)
    a, b = chain3_missing_endpoints()
    mid = tuple((x + y) / 2 for x, y in zip(a, b))
    assert mid == (F(2, 3), F(2, 3), F(1, 3))


def test_exponent_vector_range_check():
    with pytest.raises(ValueError):
        ExponentVector((F(3, 2),))
