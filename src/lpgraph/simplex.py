"""Exact linear programming over the rationals.

Two-phase tableau simplex with Bland's rule, used for convex-hull
membership, budget allocation in tree certificates, and join splits.  All
cells are `fractions.Fraction`; no floating point enters any decision.

The tableau is stored densely but updated sparsely: a pivot divides and
eliminates only on the nonzero columns of the pivot row, and each phase
keeps its reduced-cost row up to date by the same sparse update instead of
repricing every column from scratch.  Skipping a zero cell is exact, so the
pivot sequence is the one the dense textbook tableau takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

Row = tuple[Sequence[Fraction], str, Fraction]  # (coefficients, relation, rhs)

_RELS = ("<=", ">=", "==")


class LPError(ValueError):
    pass


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: list[Fraction] | None
    value: Fraction | None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def solve_lp(objective: Sequence[Fraction], rows: Sequence[Row],
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

    def pivot(r: int, c: int) -> list[int]:
        """Pivot on (r, c); returns the nonzero columns of the new row r."""
        row = T[r]
        piv = row[c]
        cols = [j for j, v in enumerate(row) if v]
        for j in cols:
            row[j] /= piv
        for i, other in enumerate(T):
            f = other[c]
            if i != r and f:
                for j in cols:
                    other[j] -= f * row[j]
        basis[r] = c
        return cols

    def run_simplex(cost: list[Fraction], allowed: int) -> Fraction:
        """Maximize cost.x over columns [0, allowed); returns optimal value."""
        # reduced costs d_j = cost_j - sum_i cost_basis(i) T[i][j]; the rhs
        # entry d[width] is minus the objective value
        d = cost + [Fraction(0)]
        for i in range(m):
            cb = cost[basis[i]]
            if cb:
                for j, v in enumerate(T[i]):
                    if v:
                        d[j] -= cb * v
        while True:
            # Bland: smallest improving index; basic columns have d_j == 0
            enter = next((j for j in range(allowed) if d[j] > 0), -1)
            if enter < 0:
                return -d[width]
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
            f = d[enter]
            row = T[leave]
            for j in pivot(leave, enter):
                d[j] -= f * row[j]

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


def feasible_combination(points: Sequence[Sequence[Fraction]],
                         target: Sequence[Fraction]) -> list[Fraction] | None:
    """Exact convex-combination weights expressing target, or None.

    Solves the feasibility LP  sum_k lam_k p_k = target, sum lam = 1,
    lam >= 0.
    """
    k = len(points)
    dim = len(target)
    if k == 0:
        return None
    rows: list[Row] = []
    for d in range(dim):
        rows.append(([Fraction(p[d]) for p in points], "==", Fraction(target[d])))
    rows.append(([Fraction(1)] * k, "==", Fraction(1)))
    res = solve_lp([Fraction(0)] * k, rows, maximize=True)
    if not res.optimal:
        return None
    return res.x
