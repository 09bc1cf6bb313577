"""Exact linear programming over the rationals.

Two-phase tableau simplex with Bland's rule, used for convex-hull
membership, block placements and join splits.  No floating point enters
any decision.

The tableau is fraction-free (Edmonds 1967, Bareiss 1968), done per row:
each row is a list of Python ints over one positive row denominator,
reduced by the gcd of its entries, and the reduced-cost row is stored the
same way.  Pivoting on (r, c) leaves row r's ints over a_rc, negated if
a_rc < 0 so the denominator stays positive.  A row i with a_ic != 0 becomes
a_i D_r - a_ic a_r over D_i D_r; a row with a zero in column c is not
touched.  The ratio test compares cross products of ints, since a row's
denominator cancels in its own rhs / a_ic, and Bland pricing reads the sign
of an int.  Every comparison is the one the textbook Fraction tableau makes,
so the pivot sequence is the same.  Fractions appear only at the boundary:
inputs are split into numerators and denominators, and x and the value are
returned as Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Row = tuple[Sequence[Fraction], str, Fraction]  # (coefficients, relation, rhs)

_RELS = ("<=", ">=", "==")
_FLIP = {"<=": ">=", ">=": "<=", "==": "=="}


class LPError(ValueError):
    pass


class _Unbounded(Exception):
    pass


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: list[Fraction] | None
    value: Fraction | None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _int_row(values: Sequence) -> tuple[list[int], int]:
    """values as ints over their least common denominator."""
    nums = []
    dens = []
    for v in values:
        if not isinstance(v, (int, Fraction)):
            v = Fraction(v)
        nums.append(v.numerator)
        dens.append(v.denominator)
    den = lcm(*dens)
    if den == 1:
        return nums, 1
    return [p * (den // q) for p, q in zip(nums, dens)], den


def _eliminate(row: list[int], den: int, prow: list[int], pden: int,
               c: int, cols: Sequence[int]) -> int:
    """row/den -= (row[c]/den) * prow/pden in place; returns the new den.

    prow[c] == pden, and cols are the nonzero columns of prow.  The result
    is reduced by the gcd of its entries and its denominator.
    """
    f = row[c]
    g = gcd(f, pden)
    s = pden // g
    if g > 1:
        f //= g
    if s != 1:
        for j, v in enumerate(row):
            if v:
                row[j] = v * s
        den *= s
    for j in cols:
        row[j] -= f * prow[j]
    return _reduce(row, den)


def _reduce(row: list[int], den: int) -> int:
    """Divide row/den in place by the gcd of its entries and den, taking
    the sign of den; returns the new, positive den."""
    g = gcd(den, *row)
    if den < 0:
        g = -g
    if g != 1:
        for j, v in enumerate(row):
            if v:
                row[j] = v // g
    return den // g


def solve_lp(objective: Sequence[Fraction], rows: Sequence[Row],
             maximize: bool = True) -> LPResult:
    """Solve max/min objective . x subject to rows, x >= 0.

    Bound constraints other than x >= 0 must be supplied as rows.  Bland's
    rule keeps the pivot sequence finite and deterministic.  Coefficients
    may be anything `Fraction` accepts.
    """
    n = len(objective)
    obj, obj_den = _int_row(objective)
    if not maximize:
        obj = [-c for c in obj]

    norm_rows: list[tuple[list[int], str, int]] = []
    for coeffs, rel, rhs in rows:
        if rel not in _RELS:
            raise LPError(f"bad relation {rel!r}")
        if len(coeffs) != n:
            raise LPError("row dimension mismatch")
        ints, den = _int_row([*coeffs, rhs])
        if ints[-1] < 0:  # make rhs nonnegative so phase 1 starts feasible
            ints = [-v for v in ints]
            rel = _FLIP[rel]
        norm_rows.append((ints, rel, den))

    m = len(norm_rows)
    n_slack = sum(1 for _, rel, _ in norm_rows if rel != "==")
    n_art = sum(1 for _, rel, _ in norm_rows if rel != "<=")
    width = n + n_slack + n_art

    # tableau row i is T[i] / D[i] (coefficients | rhs); basis[i] is the
    # column basic in row i
    T: list[list[int]] = []
    D: list[int] = []
    basis: list[int] = []
    si = n
    ai = n + n_slack
    art_cols = []
    for ints, rel, den in norm_rows:
        row = ints[:n] + [0] * (width - n) + ints[n:]
        if rel == "<=":
            row[si] = den
            basis.append(si)
            si += 1
        elif rel == ">=":
            row[si] = -den
            si += 1
            row[ai] = den
            basis.append(ai)
            art_cols.append(ai)
            ai += 1
        else:
            row[ai] = den
            basis.append(ai)
            art_cols.append(ai)
            ai += 1
        T.append(row)
        D.append(den)

    def pivot(r: int, c: int) -> list[int]:
        """Pivot on (r, c); returns the nonzero columns of the new row r."""
        row = T[r]
        piv = D[r] = _reduce(row, row[c])
        cols = [j for j, v in enumerate(row) if v]
        for i, other in enumerate(T):
            if i != r and other[c]:
                D[i] = _eliminate(other, D[i], row, piv, c, cols)
        basis[r] = c
        return cols

    def run_simplex(cost: list[int], cost_den: int, allowed: int) -> Fraction:
        """Maximize cost.x over columns [0, allowed); returns optimal value.

        cost holds width ints over cost_den.
        """
        # reduced costs d_j = cost_j - sum_i cost_basis(i) T[i][j] / D[i],
        # all over dd; the rhs entry d[width] is minus the objective value
        d = cost + [0]
        dd = cost_den
        for i in range(m):
            if d[basis[i]]:
                row = T[i]
                dd = _eliminate(d, dd, row, D[i], basis[i],
                                [j for j, v in enumerate(row) if v])
        while True:
            # Bland: smallest improving index; basic columns have d_j == 0
            enter = next((j for j in range(allowed) if d[j] > 0), -1)
            if enter < 0:
                return Fraction(-d[width], dd)
            # min ratio rhs_i / a_i over a_i > 0, ties to the smallest basic
            # index; each D[i] cancels, so compare cross products
            leave = -1
            best_rhs = best_a = 0
            for i, row in enumerate(T):
                a = row[enter]
                if a > 0:
                    lhs = row[width] * best_a
                    rhs = best_rhs * a
                    if leave < 0 or lhs < rhs or (
                        lhs == rhs and basis[i] < basis[leave]
                    ):
                        best_rhs = row[width]
                        best_a = a
                        leave = i
            if leave < 0:
                raise _Unbounded()
            cols = pivot(leave, enter)
            dd = _eliminate(d, dd, T[leave], D[leave], enter, cols)

    # phase 1: drive artificials to zero
    if art_cols:
        cost1 = [0] * width
        for c in art_cols:
            cost1[c] = -1
        try:
            v1 = run_simplex(cost1, 1, width)
        except _Unbounded:  # pragma: no cover - phase 1 is always bounded
            raise LPError("phase 1 unbounded")
        if v1 != 0:
            return LPResult("infeasible", None, None)
        # pivot remaining artificials out of the basis where possible; the
        # entry may be negative
        for i in range(m):
            if basis[i] in art_cols:
                for j in range(n + n_slack):
                    if T[i][j] != 0:
                        pivot(i, j)
                        break
        # rows still basic in an artificial are identically zero; leave them

    cost2 = obj + [0] * (n_slack + n_art)
    try:
        value = run_simplex(cost2, obj_den, n + n_slack)
    except _Unbounded:
        return LPResult("unbounded", None, None)

    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = Fraction(T[i][width], D[i])
    if not maximize:
        value = -value
    return LPResult("optimal", x, value)


def feasible_combination(points: Sequence[Sequence[Fraction]],
                         target: Sequence[Fraction]) -> list[Fraction] | None:
    """Exact convex-combination weights expressing target, or None.

    Solves the feasibility LP  sum_k lam_k p_k = target, sum lam = 1,
    lam >= 0.
    """
    k = len(points)
    if k == 0:
        return None
    rows: list[Row] = [([p[d] for p in points], "==", t)
                       for d, t in enumerate(target)]
    rows.append(([1] * k, "==", 1))
    res = solve_lp([0] * k, rows, maximize=True)
    if not res.optimal:
        return None
    return res.x
