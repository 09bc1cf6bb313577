from fractions import Fraction
from fractions import Fraction as F
from typing import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from lpgraph.certificates import PROFILE
from lpgraph.simplex import (
    LPError,
    LPResult,
    Row,
    feasible_combination,
    solve_lp,
)


def test_simple_maximum():
    # max x + y st x + 2y <= 4, 3x + y <= 6
    res = solve_lp([F(1), F(1)],
                   [([F(1), F(2)], "<=", F(4)), ([F(3), F(1)], "<=", F(6))])
    assert res.optimal
    assert res.value == F(14, 5)
    assert res.x == [F(8, 5), F(6, 5)]


def test_equality_and_ge_rows():
    # max x st x + y == 1, x >= 1/3  (y >= 0 implicit)
    res = solve_lp([F(1), F(0)],
                   [([F(1), F(1)], "==", F(1)), ([F(1), F(0)], ">=", F(1, 3))])
    assert res.optimal and res.value == F(1)


def test_infeasible():
    res = solve_lp([F(1)], [([F(1)], "<=", F(1)), ([F(1)], ">=", F(2))])
    assert res.status == "infeasible"


def test_unbounded():
    res = solve_lp([F(1)], [([F(-1)], "<=", F(0))])
    assert res.status == "unbounded"


def test_minimize():
    res = solve_lp([F(1), F(1)],
                   [([F(1), F(1)], ">=", F(2))], maximize=False)
    assert res.optimal and res.value == F(2)


def test_degenerate_cycling_guard():
    # classic Beale-style degeneracy; Bland's rule must terminate
    rows = [
        ([F(1, 4), F(-8), F(-1), F(9)], "<=", F(0)),
        ([F(1, 2), F(-12), F(-1, 2), F(3)], "<=", F(0)),
        ([F(0), F(0), F(1), F(0)], "<=", F(1)),
    ]
    res = solve_lp([F(3, 4), F(-20), F(1, 2), F(-6)], rows)
    assert res.optimal
    assert res.value == F(5, 4)


def test_feasible_combination_witness():
    pts = [(F(1), F(0)), (F(0), F(1)), (F(2, 3), F(2, 3))]
    lam = feasible_combination(pts, (F(1, 2), F(1, 2)))
    assert lam is not None
    assert sum(lam) == 1
    x = [sum(l * p[i] for l, p in zip(lam, pts)) for i in range(2)]
    assert x == [F(1, 2), F(1, 2)]
    assert feasible_combination(pts, (F(9, 10), F(9, 10))) is None


@st.composite
def random_lps(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 5))
    ints = st.integers(-5, 5)
    c = [F(draw(ints)) for _ in range(n)]
    rows = []
    for _ in range(m):
        coeffs = [F(draw(ints)) for _ in range(n)]
        rhs = F(draw(st.integers(0, 10)))
        rows.append((coeffs, "<=", rhs))
    return c, rows


@given(random_lps())
@example(([F(0), F(1), F(0)],
          [([F(0), F(0), F(0)], "<=", F(0)),
           ([F(1), F(1), F(-1)], "<=", F(0)),
           ([F(-1), F(-1), F(1)], "<=", F(1))]))
@settings(max_examples=80, deadline=None)
def test_matches_float_solver(lp):
    # HiGHS misreports some unbounded LPs as infeasible (status 2) or unknown
    # (status 4), e.g. the pinned example, whose improving ray is (0, 1, 1).
    # So boundedness is decided by the ray LP, which is feasible and bounded:
    # max c.d st A d <= 0, d >= 0, sum(d) <= 1.  The LP is unbounded iff its
    # optimum is positive.  A positive optimum sits at a vertex where
    # sum(d) = 1 and at most three other rows are tight, so by Cramer's rule
    # and Hadamard's bound (row norms <= 2 and <= 10) it is at least 1/2000,
    # far above the 1e-9 cut.
    c, rows = lp
    res = solve_lp(c, rows, maximize=True)
    # every generated rhs is >= 0, so x = 0 is feasible
    assert res.status != "infeasible"
    n = len(c)
    A = [[float(v) for v in coeffs] for coeffs, _, _ in rows]
    b = [float(r) for _, _, r in rows]
    neg_c = [-float(v) for v in c]
    ray = linprog(neg_c, A_ub=A + [[1.0] * n], b_ub=[0.0] * len(A) + [1.0],
                  bounds=[(0, None)] * n, method="highs")
    assert ray.status == 0
    if -ray.fun > 1e-9:
        assert res.status == "unbounded"
    else:
        assert res.status == "optimal"
        ref = linprog(neg_c, A_ub=A, b_ub=b, bounds=[(0, None)] * n,
                      method="highs")
        assert ref.status == 0
        assert abs(float(res.value) + ref.fun) < 1e-7


# ---------------------------------------------------------------------------
# differential test against the dense textbook tableau: the sparse pivots and
# the maintained reduced-cost row must take exactly the same Bland pivots, so
# status, x and value agree exactly, not just up to the optimal face.  The
# reference below is the dense solver verbatim, renamed.

_RELS = ("<=", ">=", "==")


def dense_solve_lp(objective: Sequence[Fraction], rows: Sequence[Row],
                   maximize: bool = True) -> LPResult:
    """Solve max/min objective . x subject to rows, x >= 0.

    Bound constraints other than x >= 0 must be supplied as rows.  Bland's
    rule keeps the pivot sequence finite and deterministic.
    """
    n = len(objective)
    obj = [Fraction(c) for c in objective]
    if not maximize:
        obj = [-c for c in obj]

    norm_rows: list[tuple[list[Fraction], str, Fraction]] = []
    for coeffs, rel, rhs in rows:
        if rel not in _RELS:
            raise LPError(f"bad relation {rel!r}")
        c = [Fraction(v) for v in coeffs]
        if len(c) != n:
            raise LPError("row dimension mismatch")
        r = Fraction(rhs)
        if r < 0:  # make rhs nonnegative so phase 1 starts feasible
            c = [-v for v in c]
            r = -r
            rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
        norm_rows.append((c, rel, r))

    m = len(norm_rows)
    n_slack = sum(1 for _, rel, _ in norm_rows if rel != "==")
    n_art = sum(1 for _, rel, _ in norm_rows if rel != "<=")
    width = n + n_slack + n_art

    # tableau rows: coefficients | rhs; basis[i] = column basic in row i
    T: list[list[Fraction]] = []
    basis: list[int] = []
    si = n
    ai = n + n_slack
    art_cols = []
    for coeffs, rel, rhs in norm_rows:
        row = coeffs + [Fraction(0)] * (width - n) + [rhs]
        if rel == "<=":
            row[si] = Fraction(1)
            basis.append(si)
            si += 1
        elif rel == ">=":
            row[si] = Fraction(-1)
            si += 1
            row[ai] = Fraction(1)
            basis.append(ai)
            art_cols.append(ai)
            ai += 1
        else:
            row[ai] = Fraction(1)
            basis.append(ai)
            art_cols.append(ai)
            ai += 1
        T.append(row)

    def pivot(r: int, c: int) -> None:
        piv = T[r][c]
        T[r] = [v / piv for v in T[r]]
        for i in range(m):
            if i != r and T[i][c] != 0:
                f = T[i][c]
                T[i] = [a - f * b for a, b in zip(T[i], T[r])]
        basis[r] = c

    def run_simplex(cost: list[Fraction], allowed: int) -> Fraction:
        """Maximize cost.x over columns [0, allowed); returns optimal value."""
        basic_set = set(basis)
        while True:
            basic_set = set(basis)
            enter = -1
            for j in range(allowed):  # Bland: smallest improving index
                if j in basic_set:
                    continue
                s = cost[j]
                for i in range(m):
                    cb = cost[basis[i]]
                    if cb != 0 and T[i][j] != 0:
                        s -= cb * T[i][j]
                if s > 0:
                    enter = j
                    break
            if enter < 0:
                val = Fraction(0)
                for i in range(m):
                    val += cost[basis[i]] * T[i][-1]
                return val
            leave = -1
            best = None
            for i in range(m):
                if T[i][enter] > 0:
                    ratio = T[i][-1] / T[i][enter]
                    if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                raise _Unbounded()
            pivot(leave, enter)

    class _Unbounded(Exception):
        pass

    # phase 1: drive artificials to zero
    if art_cols:
        cost1 = [Fraction(0)] * width
        for c in art_cols:
            cost1[c] = Fraction(-1)
        try:
            v1 = run_simplex(cost1, width)
        except _Unbounded:  # pragma: no cover - phase 1 is always bounded
            raise LPError("phase 1 unbounded")
        if v1 != 0:
            return LPResult("infeasible", None, None)
        # pivot remaining artificials out of the basis where possible
        for i in range(m):
            if basis[i] in art_cols:
                for j in range(n + n_slack):
                    if T[i][j] != 0:
                        pivot(i, j)
                        break
        # rows still basic in an artificial are identically zero; leave them

    cost2 = obj + [Fraction(0)] * (n_slack + n_art)
    try:
        value = run_simplex(cost2, n + n_slack)
    except _Unbounded:
        return LPResult("unbounded", None, None)

    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i][-1]
    if not maximize:
        value = -value
    return LPResult("optimal", x, value)


@st.composite
def degenerate_lps(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    coef = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
    c = [draw(coef) for _ in range(n)]
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "duplicate"]))
        rel = draw(st.sampled_from(_RELS))
        rhs = F(draw(st.integers(-6, 6)))
        if kind == "duplicate" and rows:
            coeffs, rel, rhs = rows[draw(st.integers(0, len(rows) - 1))]
        elif kind == "zero":  # as == or >=, an artificial stays basic at 0
            coeffs, rhs = [F(0)] * n, F(0)
        else:
            coeffs = [draw(coef) for _ in range(n)]
        rows.append((coeffs, rel, rhs))
    return c, rows, draw(st.booleans())


@given(degenerate_lps())
@example(([F(3, 4), F(-20), F(1, 2), F(-6)],
          [([F(1, 4), F(-8), F(-1), F(9)], "<=", F(0)),
           ([F(1, 2), F(-12), F(-1, 2), F(3)], "<=", F(0)),
           ([F(0), F(0), F(1), F(0)], "<=", F(1))], True))
@settings(max_examples=300, deadline=None)
def test_matches_dense_reference(lp):
    c, rows, maximize = lp
    got = solve_lp(c, rows, maximize=maximize)
    want = dense_solve_lp(c, rows, maximize=maximize)
    assert (got.status, got.x, got.value) == (want.status, want.x, want.value)


def test_negative_drive_out_pivot():
    # phase 1 ends with the artificial of -x1 == 0 basic at zero; driving it
    # out pivots on the entry -1, so the row must be sign-normalized
    obj = [F(1), F(1)]
    rows = [([F(-1), F(0)], "==", F(0)), ([F(1), F(1)], "<=", F(1))]
    res = solve_lp(obj, rows)
    assert (res.status, res.x, res.value) == ("optimal", [F(0), F(1)], F(1))
    want = dense_solve_lp(obj, rows)
    assert (res.status, res.x, res.value) == (want.status, want.x, want.value)


# wider rationals than the tree LPs' inputs: denominators up to 2^20 like the
# open-interval margin of the tree certificates, the improving profile's
# slopes, fractional right-hand sides, and coefficients spelled as int, str
# or Fraction
_SLOPES = [m for m, _ in PROFILE.segments()]
_WIDE = st.one_of(
    st.integers(-5, 5).map(F),
    st.builds(F, st.integers(-(1 << 20), 1 << 20), st.integers(1, 1 << 20)),
    st.sampled_from(_SLOPES + [-m for m in _SLOPES]),
)


@st.composite
def spelled(draw):
    v = draw(_WIDE)
    form = draw(st.sampled_from(("int", "str", "Fraction")))
    if form == "int" and v.denominator == 1:
        return int(v)
    return str(v) if form == "str" else v


@st.composite
def wide_rational_lps(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    c = [draw(spelled()) for _ in range(n)]
    rows = [([draw(spelled()) for _ in range(n)], draw(st.sampled_from(_RELS)),
             draw(spelled()))
            for _ in range(m)]
    return c, rows, draw(st.booleans())


@given(wide_rational_lps())
@settings(max_examples=200, deadline=None)
def test_wide_rationals_match_dense_reference(lp):
    c, rows, maximize = lp
    got = solve_lp(c, rows, maximize=maximize)
    want = dense_solve_lp(c, rows, maximize=maximize)
    assert (got.status, got.x, got.value) == (want.status, want.x, want.value)
    if got.optimal:
        assert all(type(v) is Fraction for v in got.x)
        assert type(got.value) is Fraction
