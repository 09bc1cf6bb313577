"""Exact exponent calculus: improving profiles, constraint systems, polytopes.

Coordinates are always reciprocals u_i = 1/p_i in [0, 1], with 0 encoding
an infinite exponent and 1 encoding exponent one.  Everything here is
exact: `fractions.Fraction`, with integer elimination inside the vertex
enumeration; membership questions are settled by exact LP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .graphs import Graph
from .simplex import feasible_combination

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(x) -> Fraction:
    """Parse "2/3"-style strings (and ints/Fractions) exactly."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("refusing float -> exact rational conversion")
    return Fraction(x)


def format_rat(x: Fraction) -> str:
    return str(Fraction(x))


@dataclass(frozen=True)
class ExponentVector:
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        ent = tuple(rat(e) for e in self.entries)
        for e in ent:
            if not (ZERO <= e <= ONE):
                raise ValueError(f"entry {e} outside [0, 1]")
        object.__setattr__(self, "entries", ent)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    @property
    def total(self) -> Fraction:
        return sum(self.entries, ZERO)

    def to_json(self) -> list[str]:
        return [format_rat(e) for e in self.entries]

    @staticmethod
    def from_json(entries: Sequence[str]) -> "ExponentVector":
        return ExponentVector(tuple(rat(e) for e in entries))


# ---------------------------------------------------------------------------
# improving profile of the circular averaging operator


@dataclass(frozen=True)
class ImprovingProfile:
    """Piecewise-linear concave v with v(u) = best input reciprocal at output u.

    Breakpoints are (u, v) pairs; v(0) = 0, v(1) = 1, v concave nondecreasing
    and v(u) >= u.  Strict improvement is only available on the open interval.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        bps = tuple((rat(u), rat(v)) for u, v in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        us = [u for u, _ in bps]
        if us != sorted(set(us)):
            raise ValueError("breakpoint abscissae must be strictly increasing")
        if bps[0] != (ZERO, ZERO) or bps[-1] != (ONE, ONE):
            raise ValueError("profile must run from (0,0) to (1,1)")
        slopes = [m for m, _ in self.segments()]
        for a, b in zip(slopes, slopes[1:]):
            if b > a:
                raise ValueError("profile must be concave")
        for u, v in bps:
            if v < u:
                raise ValueError("profile must dominate the diagonal")

    def value(self, u) -> Fraction:
        u = rat(u)
        if not (ZERO <= u <= ONE):
            raise ValueError(f"argument {u} outside [0, 1]")
        for (u0, v0), (u1, v1) in zip(self.breakpoints, self.breakpoints[1:]):
            if u0 <= u <= u1:
                return v0 + (v1 - v0) * (u - u0) / (u1 - u0)
        raise AssertionError("unreachable")

    def segments(self) -> list[tuple[Fraction, Fraction]]:
        """Upper envelope lines (slope, intercept): v(u) = min over them."""
        out = []
        for (u0, v0), (u1, v1) in zip(self.breakpoints, self.breakpoints[1:]):
            m = (v1 - v0) / (u1 - u0)
            out.append((m, v0 - m * u0))
        return out


def improving_profile_circle(d: int) -> ImprovingProfile:
    """Profile of circular/spherical averaging: corner at (1/(d+1), d/(d+1))."""
    if d < 2:
        raise ValueError(f"ambient dimension must be >= 2, got {d}")
    return ImprovingProfile((
        (ZERO, ZERO),
        (Fraction(1, d + 1), Fraction(d, d + 1)),
        (ONE, ONE),
    ))


# ---------------------------------------------------------------------------
# halfspace systems (necessary conditions) and vertex polytopes (sufficient)


@dataclass(frozen=True)
class HalfspaceRow:
    coeffs: tuple[Fraction, ...]
    relation: str  # "<=" or ">="
    rhs: Fraction
    label: str

    def evaluate(self, x: Sequence[Fraction]) -> Fraction:
        return sum((c * rat(v) for c, v in zip(self.coeffs, x)), ZERO)

    def to_json_dict(self) -> dict:
        return {
            "coeffs": [format_rat(c) for c in self.coeffs],
            "relation": self.relation,
            "rhs": format_rat(self.rhs),
            "label": self.label,
        }


@dataclass(frozen=True)
class HalfspaceSystem:
    rows: tuple[HalfspaceRow, ...]
    dim: int
    label: str

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "dim": self.dim,
            "rows": [r.to_json_dict() for r in self.rows],
        }


def necessary_halfspaces(kind: str, d: int) -> HalfspaceSystem:
    """The listed test-function conditions for the two trilinear case studies.

    Coordinates (u1, u2, u3); every row is labeled by its condition number.
    """
    if d < 2:
        raise ValueError(f"ambient dimension must be >= 2, got {d}")
    F = Fraction
    if kind == "triangle":
        data = [
            ((1, 1, 1), ">=", 1),
            ((1, 1, d), "<=", d),
            ((1, d, 1), "<=", d),
            ((d, 1, 1), "<=", d),
            ((d + 1, d + 1, 2 * d), "<=", 3 * d - 1),
            ((d + 1, 2 * d, d + 1), "<=", 3 * d - 1),
            ((2 * d, d + 1, d + 1), "<=", 3 * d - 1),
        ]
    elif kind == "chain3":
        data = [
            ((1, 1, 1), ">=", 1),
            ((1, 1, d), "<=", d),
            ((d, d, 1), "<=", 2 * d - 1),
            ((d, 0, 1), "<=", d),
            ((0, d, 1), "<=", d),
        ]
    else:
        raise ValueError(f"unknown system kind {kind!r}")
    rows = tuple(
        HalfspaceRow(tuple(F(c) for c in coeffs), rel, F(rhs),
                     label=f"{kind}-{k}")
        for k, (coeffs, rel, rhs) in enumerate(data, start=1)
    )
    return HalfspaceSystem(rows=rows, dim=3, label=f"{kind} necessary (d={d})")


@dataclass(frozen=True)
class VertexPolytope:
    vertices: tuple[tuple[Fraction, ...], ...]
    label: str

    def __post_init__(self):
        vs = tuple(tuple(rat(c) for c in v) for v in self.vertices)
        if len(set(vs)) != len(vs):
            raise ValueError("polytope vertices must be pairwise distinct")
        object.__setattr__(self, "vertices", vs)

    @property
    def dim(self) -> int:
        return len(self.vertices[0]) if self.vertices else 0

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "vertices": [[format_rat(c) for c in v] for v in self.vertices],
        }


def _unit(n: int, i: int) -> tuple[Fraction, ...]:
    return tuple(ONE if k == i else ZERO for k in range(n))


def sufficient_vertices(kind: str, graph: Graph | None = None) -> VertexPolytope:
    """Vertex lists of the proved boundedness regions (planar kernel).

    kind "triangle" and "chain3" are the two trilinear case studies;
    kind "regular" takes any connected graph and instantiates the hull
    {e_i} union {(2/3)(e_i + e_j) over edges}.
    """
    F = Fraction
    if kind == "triangle":
        verts = [
            (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1)),
            (F(2, 3), F(2, 3), F(0)), (F(2, 3), F(0), F(2, 3)),
            (F(0), F(2, 3), F(2, 3)), (F(1, 2), F(1, 2), F(1, 2)),
        ]
        return VertexPolytope(tuple(verts), "triangle sufficient polygon")
    if kind == "chain3":
        verts = [
            (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1)),
            (F(2, 3), F(0), F(2, 3)), (F(0), F(2, 3), F(2, 3)),
            (F(1), F(1, 2), F(0)), (F(1, 2), F(1), F(0)),
        ]
        return VertexPolytope(tuple(verts), "chain3 sufficient polygon")
    if kind == "regular":
        if graph is None:
            raise ValueError("kind 'regular' needs a graph")
        if graph.n < 2:
            raise ValueError("regular hull needs n >= 2")
        graph.require_connected()
        n = graph.n
        verts = [_unit(n, i) for i in range(n)]
        for i, j in graph.edges:
            v = list(_unit(n, i - 1))
            v[i - 1] = F(2, 3)
            v[j - 1] = F(2, 3)
            verts.append(tuple(v))
        return VertexPolytope(tuple(verts), f"regular-realizability hull (n={n})")
    raise ValueError(f"unknown polytope kind {kind!r}")


def chain3_missing_endpoints() -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The two endpoint exponents the chain3 polygon omits (d = 2)."""
    F = Fraction
    return (F(1, 2), F(5, 6), F(1, 3)), (F(5, 6), F(1, 2), F(1, 3))


# ---------------------------------------------------------------------------
# membership and comparison


def halfspace_membership(system: HalfspaceSystem, x: Sequence[Fraction]
                         ) -> tuple[bool, list[str], list[str]]:
    """Exact row-by-row check; returns (inside, violated labels, tight labels)."""
    xs = tuple(rat(v) for v in x)
    if len(xs) != system.dim:
        raise ValueError(f"dimension mismatch: {len(xs)} != {system.dim}")
    violated, tight = [], []
    for row in system.rows:
        val = row.evaluate(xs)
        if val == row.rhs:
            tight.append(row.label)
        elif (val > row.rhs) if row.relation == "<=" else (val < row.rhs):
            violated.append(row.label)
    return (not violated), violated, tight


def hull_membership(poly: VertexPolytope, x: Sequence[Fraction]
                    ) -> tuple[bool, list[Fraction] | None]:
    """Exact convex-combination feasibility; returns a witness when inside."""
    xs = tuple(rat(v) for v in x)
    if len(xs) != poly.dim:
        raise ValueError(f"dimension mismatch: {len(xs)} != {poly.dim}")
    lam = feasible_combination(poly.vertices, xs)
    return (lam is not None), lam


@dataclass
class RegionCompareReport:
    inner_label: str
    outer_label: str
    contained: bool
    offenders: list[tuple[tuple[Fraction, ...], str | None]]

    def to_json_dict(self) -> dict:
        return {
            "inner": self.inner_label,
            "outer": self.outer_label,
            "contained": self.contained,
            "offenders": [
                {"vertex": [format_rat(c) for c in v], "row": row}
                for v, row in self.offenders
            ],
        }


def region_compare(inner: VertexPolytope,
                   outer: HalfspaceSystem | VertexPolytope) -> RegionCompareReport:
    """Check every inner vertex against the outer region, exactly."""
    if inner.dim != outer.dim:
        raise ValueError("dimension mismatch")
    offenders: list[tuple[tuple[Fraction, ...], str | None]] = []
    if isinstance(outer, HalfspaceSystem):
        for v in inner.vertices:
            ok, violated, _ = halfspace_membership(outer, v)
            if not ok:
                for lab in violated:
                    offenders.append((v, lab))
    else:
        for v in inner.vertices:
            ok, _ = hull_membership(outer, v)
            if not ok:
                offenders.append((v, None))
    return RegionCompareReport(
        inner_label=inner.label,
        outer_label=outer.label,
        contained=not offenders,
        offenders=offenders,
    )


# ---------------------------------------------------------------------------
# the region the two-step construction actually reaches for the chain


def _polytope_vertices_from_rows(rows: list[tuple[list[Fraction], str, Fraction]],
                                 dim: int) -> list[tuple[Fraction, ...]]:
    """Vertices of a low-dimensional H-polytope, sorted, by exact elimination.

    A vertex is the solution of `dim` linearly independent rows taken as
    equations that satisfies every row ("<=", ">=" or "=="); each such
    subset of rows is solved once.  The arithmetic is over Python ints
    (Bareiss, *Math. Comp.* 22, 1968): every row is scaled by the lcm of
    its denominators, and the chosen rows are brought to echelon form one
    at a time, each new row reduced by the earlier ones with divisions that
    are exact.  Subsets are extended in index order and share the echelon
    form of their common prefix, so a row that depends on the rows before
    it drops every subset that contains them both.  The last pivot D is
    the determinant up to sign, and back substitution gives integer
    numerators over D; feasibility is tested as a.num <= b.D (or >=, ==)
    with D > 0.  Fractions are built only for the vertices that pass.
    """
    scaled = []
    for coeffs, rel, b in rows:
        m = math.lcm(b.denominator, *(c.denominator for c in coeffs))
        scaled.append(([int(c * m) for c in coeffs] + [int(b * m)], rel))
    found: set[tuple[Fraction, ...]] = set()

    def vertex(echelon, cols):
        den = echelon[-1][cols[-1]]
        num = [0] * dim
        for prow, c in zip(reversed(echelon), reversed(cols)):
            # the columns still unsolved read 0 in num, so the sum runs
            # over the solved ones only
            num[c] = (den * prow[dim] - sum(a * x for a, x in zip(prow, num))) // prow[c]
        if den < 0:
            den, num = -den, [-x for x in num]
        for row, rel in scaled:
            val, rhs = sum(a * x for a, x in zip(row, num)), row[dim] * den
            if val > rhs if rel == "<=" else val < rhs if rel == ">=" else val != rhs:
                return
        found.add(tuple(Fraction(x, den) for x in num))

    def extend(start, echelon, cols):
        depth = len(echelon) + 1
        for i in range(start, len(scaled) - dim + depth):
            row, prev = scaled[i][0], 1
            for prow, c in zip(echelon, cols):
                p, f = prow[c], row[c]
                row = [(p * x - f * y) // prev for x, y in zip(row, prow)]
                prev = p
            # earlier pivot columns are 0 in the reduced row
            col = next((k for k in range(dim) if row[k]), None)
            if col is None:
                continue
            if depth < dim:
                extend(i + 1, echelon + [row], cols + [col])
            else:
                vertex(echelon + [row], cols + [col])

    extend(0, [], [])
    return sorted(found)


def _extreme_points(points: list[tuple[Fraction, ...]]) -> list[tuple[Fraction, ...]]:
    out = []
    for i, p in enumerate(points):
        others = [q for j, q in enumerate(points) if j != i]
        if not others or feasible_combination(others, p) is None:
            out.append(p)
    return out


def chain3_constructed_region(d: int) -> VertexPolytope:
    """Exponents reachable by splitting the output budget over the two arms.

    The region {(u1,u2,u3) : exists w1,w2 with ui <= v(wi), w1+w2+u3 = 1,
    everything in [0,1]} where v is the circle profile.  Computed exactly by
    projecting the lifted polytope (breakpoint segments give its facets).
    """
    prof = improving_profile_circle(d)
    segs = prof.segments()
    F = Fraction
    # lifted variables (u1, u2, w1, w2); u3 = 1 - w1 - w2 is the projection
    rows: list[tuple[list[Fraction], str, Fraction]] = []
    for m, b in segs:
        rows.append(([F(1), F(0), -m, F(0)], "<=", b))  # u1 <= v(w1)
        rows.append(([F(0), F(1), F(0), -m], "<=", b))  # u2 <= v(w2)
    for k in range(4):
        e = [F(0)] * 4
        e[k] = F(1)
        rows.append((list(e), ">=", F(0)))
        rows.append((list(e), "<=", F(1)))
    rows.append(([F(0), F(0), F(1), F(1)], "<=", F(1)))  # u3 >= 0

    lifted = _polytope_vertices_from_rows(rows, 4)
    images = sorted({(u1, u2, ONE - w1 - w2) for u1, u2, w1, w2 in lifted})
    verts = _extreme_points(list(images))
    return VertexPolytope(tuple(verts), f"chain3 constructed region (d={d})")
