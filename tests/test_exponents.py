import itertools
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from lpgraph.exponents import (
    ExponentVector,
    _polytope_vertices_from_rows,
    chain3_constructed_region,
    chain3_missing_endpoints,
    halfspace_membership,
    hull_membership,
    improving_profile_circle,
    necessary_halfspaces,
    region_compare,
    sufficient_vertices,
)
from lpgraph.graphs import triangle

from graph_figures import single_edge


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


# ---------------------------------------------------------------------------
# vertex enumeration: the integer elimination against the Fraction one


def _fraction_vertices_oracle(rows, dim):
    """Every dim-subset of rows solved by Gauss-Jordan over Fractions,
    feasible solutions kept, sorted: the enumeration before it moved to
    integer arithmetic."""
    def solve_square(mat, rhs):
        # Gaussian elimination over Fractions; None if singular
        k = len(mat)
        a = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
        for col in range(k):
            piv = None
            for r in range(col, k):
                if a[r][col] != 0:
                    piv = r
                    break
            if piv is None:
                return None
            a[col], a[piv] = a[piv], a[col]
            pv = a[col][col]
            a[col] = [v / pv for v in a[col]]
            for r in range(k):
                if r != col and a[r][col] != 0:
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
        return [a[r][k] for r in range(k)]

    sols = set()
    for combo in itertools.combinations(range(len(rows)), dim):
        mat = [list(rows[i][0]) for i in combo]
        rhs = [rows[i][2] for i in combo]
        sol = solve_square(mat, rhs)
        if sol is None:
            continue
        ok = True
        for coeffs, rel, b in rows:
            val = sum((c * v for c, v in zip(coeffs, sol)), F(0))
            if rel == "<=" and val > b:
                ok = False
                break
            if rel == ">=" and val < b:
                ok = False
                break
            if rel == "==" and val != b:
                ok = False
                break
        if ok:
            sols.add(tuple(sol))
    return sorted(sols)


_small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def h_systems(draw):
    """(rows, dim): random rows, some repeated or scaled copies of others
    (duplicate and parallel rows), and optionally the unit box, which makes
    the region bounded; without it the region may be unbounded.  Half the
    systems are built around a point of the box that satisfies every row
    before the copies are added, the other half take any right-hand side
    and are often empty."""
    dim = draw(st.integers(1, 4))
    centre = draw(st.lists(st.fractions(0, 1, max_denominator=4),
                           min_size=dim, max_size=dim))
    around_centre = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        coeffs = draw(st.lists(_small, min_size=dim, max_size=dim))
        rel = draw(st.sampled_from(["<=", ">=", "<=", ">=", "=="]))
        if around_centre:
            slack = F(0) if rel == "==" else draw(st.sampled_from([F(0), F(1, 2), F(2)]))
            b = sum((c * x for c, x in zip(coeffs, centre)), F(0))
            b += slack if rel == "<=" else -slack
        else:
            b = draw(_small)
        rows.append((coeffs, rel, b))
    if rows:
        for k in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2)):
            coeffs, rel, b = rows[k]
            s = draw(st.sampled_from([F(1), F(3, 2), F(-1), F(-2, 3)]))
            b = draw(st.sampled_from([b * s, b * s + 1]))
            rows.append(([c * s for c in coeffs], rel, b))
    if draw(st.booleans()):
        for k in range(dim):
            e = [F(int(i == k)) for i in range(dim)]
            rows += [(e, ">=", F(0)), (e, "<=", F(1))]
    return draw(st.permutations(rows)), dim


_CONE = [([F(1), F(0)], ">=", F(0)), ([F(0), F(1)], ">=", F(0))]


@settings(max_examples=200, deadline=None)
@given(h_systems())
@example(([], 2))  # no rows
@example(([([F(1)], ">=", F(1)), ([F(1)], "<=", F(0))], 1))  # empty
@example((_CONE, 2))  # unbounded, with its apex as the one vertex
@example(([([F(1), F(1)], ">=", F(0)), ([F(2), F(2)], "<=", F(3))], 2))  # parallel
@example((_CONE + [([F(1), F(1)], "==", F(1))] * 2, 2))  # a repeated equation
# negative determinants: x2 - x1 <= 1/2 and x1 <= 1/3 with x2 >= 1/4
@example(([([F(-1), F(1)], "<=", F(1, 2)), ([F(1), F(0)], "<=", F(1, 3)),
           ([F(0), F(1)], ">=", F(1, 4))], 2))
def test_vertex_enumeration_matches_the_fraction_oracle(system):
    rows, dim = system
    assert _polytope_vertices_from_rows(rows, dim) == _fraction_vertices_oracle(rows, dim)


# recorded before the enumeration moved to integer arithmetic
CHAIN3_CONSTRUCTED = {
    2: ["0 0 0", "0 0 1", "0 2/3 2/3", "0 1 0", "2/3 0 2/3", "2/3 2/3 1/3",
        "2/3 5/6 0", "5/6 2/3 0", "1 0 0"],
    3: ["0 0 0", "0 0 1", "0 3/4 3/4", "0 1 0", "3/4 0 3/4", "3/4 3/4 1/2",
        "3/4 11/12 0", "11/12 3/4 0", "1 0 0"],
    4: ["0 0 0", "0 0 1", "0 4/5 4/5", "0 1 0", "4/5 0 4/5", "4/5 4/5 3/5",
        "4/5 19/20 0", "19/20 4/5 0", "1 0 0"],
}


@pytest.mark.parametrize("d", sorted(CHAIN3_CONSTRUCTED))
def test_constructed_region_vertices_are_pinned(d):
    reg = chain3_constructed_region(d)
    assert reg.label == f"chain3 constructed region (d={d})"
    assert [" ".join(map(str, v)) for v in reg.vertices] == CHAIN3_CONSTRUCTED[d]
