"""Replayable certificates of improving bounds for graph forms.

A certificate derives a witness exponent vector with sum strictly above 1
by composing three mechanisms over the graph structure:

* rooted-tree budget allocation (an exact greedy merge of concave pieces
  over the improving profile; no LP),
* pendant-tree extension of a core certificate,
* joins of blocks sharing a single cut vertex, with the incoming block's
  certified polytope used in dual mode at the cut.

Derivations are plain JSON-ready dicts with exact rational strings, so a
serialized certificate replays byte-for-byte.  `replay` re-verifies every
budget equation, every profile step, every hull combination, and the final
strict sum, using only rational arithmetic.  It also checks that the
derivation covers the certificate's own graph: `vertices` names each of the
graph's vertices once, the tree, pendant and block edges of the derivation
are the graph's edges with each used exactly once, and every block step
claims the region that `block_region_for` assigns to its edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .exponents import (
    ExponentVector,
    VertexPolytope,
    format_rat,
    improving_profile_circle,
    rat,
    sufficient_vertices,
)
from .graphs import (
    Graph,
    bfs_tree,
    block_decomposition,
    contract_pendant_trees,
    is_tree,
    relabel,
)
from .simplex import Row, solve_lp

ZERO = Fraction(0)
ONE = Fraction(1)

PROVEN = "proven"
CONDITIONAL = "conditional"
UNKNOWN = "unknown"

# every certificate allocates budgets through the planar circle profile, and
# replay checks them against the same one
PROFILE = improving_profile_circle(2)

# improving steps live on the open interval w < 1: a tree allocation whose
# optimum fills an edge to w == 1 caps that edge at 1 - _OPEN_MARGIN instead
_OPEN_MARGIN = Fraction(1, 1 << 20)


class CertificateError(ValueError):
    pass


@dataclass(frozen=True)
class BlockRegion:
    """Certified exponent polytope of one block, in block-local order."""

    kind: str  # "edge_profile" | "triangle" | "regular_hull"
    polytope: VertexPolytope
    universal: str  # PROVEN or CONDITIONAL
    note: str = ""


@dataclass
class Certificate:
    graph: Graph
    vertices: tuple[int, ...]  # global labels for the 1..n local vertices
    status: str
    witness: ExponentVector
    derivation: list[dict]
    assumptions: list[str] = field(default_factory=list)

    @property
    def total(self) -> Fraction:
        return self.witness.total

    def witness_at(self, global_vertex: int) -> Fraction:
        return self.witness[self.vertices.index(global_vertex)]

    def global_edges(self) -> list[tuple[int, int]]:
        """The graph's edges under the global labels, each pair sorted."""
        return [tuple(sorted((self.vertices[i - 1], self.vertices[j - 1])))
                for i, j in self.graph.edges]

    def to_json_dict(self) -> dict:
        out = {
            "graph": self.graph.to_json_dict(),
            "vertices": list(self.vertices),
            "status": self.status,
            "witness": self.witness.to_json(),
            "sum": format_rat(self.total),
            "derivation": self.derivation,
            "assumptions": list(self.assumptions),
        }
        return out

    @staticmethod
    def from_json_dict(obj: dict) -> "Certificate":
        g = Graph(obj["graph"]["n"], tuple(tuple(e) for e in obj["graph"]["edges"]))
        return Certificate(
            graph=g,
            vertices=tuple(obj["vertices"]),
            status=obj["status"],
            witness=ExponentVector.from_json(obj["witness"]),
            derivation=obj["derivation"],
            assumptions=list(obj["assumptions"]),
        )


# ---------------------------------------------------------------------------
# rooted-tree budget allocation


def _rooted(g: Graph, root: int) -> tuple[list[int], dict[int, list[int]]]:
    """BFS order from root, and children lists each sorted ascending."""
    order, parent = bfs_tree(g, root)
    children: dict[int, list[int]] = {v: [] for v in range(1, g.n + 1)}
    for v in order[1:]:
        children[parent[v]].append(v)
    return order, children


@dataclass
class TreeAllocation:
    root: int
    budget: Fraction
    total: Fraction
    u: dict[int, Fraction]  # vertex -> exponent reciprocal
    w: dict[int, Fraction]  # non-root vertex -> budget routed into its edge
    children: dict[int, list[int]]
    optimum: Fraction  # best sum if steps at w == 1 were allowed; >= total


# A piece (length, gain, x, source) of a vertex's value function is `length`
# units of its budget that end in u_x, each unit raising u_x by `gain`, and
# `source` is the child edge the budget leaves through, or the vertex.  Pieces
# are sorted by gain descending, then x ascending, which is the order of
# gain * (1 + eps**x) for small eps > 0: spending a budget in that order
# maximizes sum u, then u_1, then u_2, and so on.


def _prefix(pieces: list[tuple], length: Fraction) -> list[tuple]:
    """The leading pieces, the last one cut so their lengths sum to length."""
    out = []
    for piece in pieces:
        if length <= ZERO:
            break
        out.append((min(piece[0], length),) + piece[1:])
        length -= piece[0]
    return out


def _through_profile(pieces: list[tuple]) -> list[tuple]:
    """Pieces of w -> F(PROFILE(w)) from the pieces of F, without sources.

    A profile segment of slope m stretches the budget it receives by m, so a
    piece's part on that segment is 1/m as long and gains m times as much.
    Concavity keeps the result sorted.
    """
    out, start = [], ZERO
    segments = list(zip(PROFILE.breakpoints, PROFILE.breakpoints[1:]))
    for length, gain, x, _ in pieces:
        end = start + length
        for (w0, b0), (w1, b1) in segments:
            lo, hi = max(start, b0), min(end, b1)
            if lo < hi:
                m = (b1 - b0) / (w1 - w0)
                out.append(((hi - lo) / m, gain * m, x))
        start = end
    return out


def _allocate(children: dict[int, list[int]], order: list[int], budget: Fraction,
              capped: set[int]) -> tuple[dict[int, Fraction], dict[int, Fraction]]:
    """(u, w) spending budget at order[0]; a capped edge gets below 1."""
    merged: dict[int, list[tuple]] = {}
    for v in reversed(order):
        pieces = [(ONE, ONE, v, v)]
        for c in children[v]:
            cap = ONE - _OPEN_MARGIN if c in capped else ONE
            pieces += [p + (c,) for p in _prefix(_through_profile(merged[c]), cap)]
        pieces.sort(key=lambda p: (-p[1], p[2]))
        merged[v] = _prefix(pieces, ONE)
    u, w, budgets = {}, {}, {order[0]: budget}
    for v in order:
        spent = dict.fromkeys([v, *children[v]], ZERO)
        for length, _, _, source in _prefix(merged[v], budgets[v]):
            spent[source] += length
        u[v] = spent.pop(v)
        for c, wc in spent.items():
            w[c] = wc
            budgets[c] = PROFILE.value(wc)
    return u, w


def tree_budget_lp(g: Graph, root: int, budget: Fraction) -> TreeAllocation:
    """Maximize the witness sum of a rooted tree under an output budget.

    Each node splits its budget between its own Hoelder factor and its child
    edges; each edge upgrades its budget through `PROFILE`.  The optimum,
    ties broken lexicographically (u_1 first, then u_2, ...), is built
    exactly by merging concave pieces bottom-up (Ibaraki and Katoh,
    *Resource Allocation Problems*, 1988) and spending the budget top-down.
    An improving step needs w < 1, so edges that the optimum fills to w = 1
    are capped at 1 - _OPEN_MARGIN and the merge is redone; `optimum` keeps
    the uncapped sum.
    """
    if not is_tree(g):
        raise CertificateError("tree allocation requires a tree")
    budget = rat(budget)
    if not (ZERO <= budget <= ONE):
        raise CertificateError(f"budget {budget} outside [0, 1]")
    order, children = _rooted(g, root)
    u, w = _allocate(children, order, budget, set())
    optimum = sum(u.values(), ZERO)
    capped: set[int] = set()
    while ONE in w.values():
        capped |= {v for v, wv in w.items() if wv == ONE}
        u, w = _allocate(children, order, budget, capped)
    return TreeAllocation(root=root, budget=budget, total=sum(u.values(), ZERO),
                          u=u, w=w, children=children, optimum=optimum)


def _tree_derivation(alloc: TreeAllocation, labels: Sequence[int],
                     node: int | None = None) -> dict:
    """Nested tree_recursion dict; vertices reported under global labels."""
    v = alloc.root if node is None else node
    budget = alloc.budget if node is None else PROFILE.value(alloc.w[v])
    kids = alloc.children[v]
    entry = {
        "kind": "tree_recursion",
        "root": labels[v - 1],
        "budget": format_rat(budget),
        "split": {
            "u": format_rat(alloc.u[v]),
            "edges": [{"child": labels[c - 1], "w": format_rat(alloc.w[c])}
                      for c in kids],
        },
        "children": [],
    }
    for c in kids:
        sub = _tree_derivation(alloc, labels, node=c)
        wc = alloc.w[c]
        if wc == ZERO:
            entry["children"].append({
                "kind": "sup_step", "child": labels[c - 1], "subtree": sub,
            })
        else:
            entry["children"].append({
                "kind": "improving_step",
                "child": labels[c - 1],
                "w": format_rat(wc),
                "v": format_rat(PROFILE.value(wc)),
                "subtree": sub,
            })
    return entry


def certify_tree(g: Graph) -> Certificate:
    """Prove an improving witness for a connected tree.

    The tree is rooted at vertex 1: the optimal sum does not depend on the
    root.  The witness maximizes the sum, ties broken lexicographically,
    unless that optimum needs a closed step (w = 1): then the edges that
    need one are capped at 1 - _OPEN_MARGIN, and the sum falls a little
    short of the optimum.
    """
    g.require_connected()
    if not is_tree(g):
        raise CertificateError("certify_tree requires a tree")
    if g.n == 1:
        return _unknown(g, ["single vertex: the form has no kernel factor, "
                            "no better-than-baseline bound exists"])

    alloc = tree_budget_lp(g, 1, ONE)
    labels = tuple(range(1, g.n + 1))
    witness = ExponentVector(tuple(alloc.u[v] for v in labels))
    deriv = [_tree_derivation(alloc, labels)]
    if witness.total <= 1:  # pragma: no cover - holds for every tree with an edge
        raise CertificateError("tree witness failed to beat the baseline")
    return Certificate(graph=g, vertices=labels, status=PROVEN,
                       witness=witness, derivation=deriv)


def _unknown(g: Graph, assumptions: list[str]) -> Certificate:
    """No proof: a zero witness on g, with the reasons as assumptions."""
    return Certificate(graph=g, vertices=tuple(range(1, g.n + 1)), status=UNKNOWN,
                       witness=ExponentVector((ZERO,) * g.n), derivation=[],
                       assumptions=assumptions)


# ---------------------------------------------------------------------------
# block regions and joins


def block_region_for(block_graph: Graph) -> BlockRegion:
    """Certified polytope for a block: edge, triangle, or the generic hull.

    A single edge's region is the regular hull of its one edge, and holds
    without the regularity hypothesis.
    """
    if block_graph.n == 3 and block_graph.num_edges == 3:
        return BlockRegion("triangle", sufficient_vertices("triangle"), PROVEN)
    poly = sufficient_vertices("regular", block_graph)
    if block_graph.n == 2:
        return BlockRegion("edge_profile", poly, PROVEN)
    return BlockRegion(
        "regular_hull", poly, CONDITIONAL,
        note="hull bound requires the unit-distance regularity hypothesis; "
             "treated as supplying the join hypotheses",
    )


def _placement_lp(region: VertexPolytope, maximize_coords: Sequence[int],
                  keep_positive: Sequence[int]) -> tuple[tuple[Fraction, ...], list[Fraction]]:
    """Pick a region point maximizing a coordinate sum, then balance.

    Returns (point, hull weights).  Secondary phase raises the minimum of
    the coordinates listed in keep_positive without giving up optimality.
    """
    nv = len(region.vertices)
    rows: list[Row] = []
    rows.append(([ONE] * nv + [ZERO], "==", ONE))
    obj = [sum(v[i] for i in maximize_coords) for v in region.vertices] + [ZERO]
    res = solve_lp(obj, rows, maximize=True)
    assert res.optimal
    if keep_positive:
        rows.append((list(obj), "==", res.value))
        for i in keep_positive:
            row = [-v[i] for v in region.vertices] + [ONE]
            rows.append((row, "<=", ZERO))  # t <= y_i
        obj2 = [ZERO] * nv + [ONE]
        res2 = solve_lp(obj2, rows, maximize=True)
        assert res2.optimal
        res = res2
    lam = res.x[:nv]
    return _hull_point(region, lam), lam


def _join_lp(regions: list[VertexPolytope], cut_locals: list[int],
             budget: Fraction, future_cuts: list[list[int]]
             ) -> list[tuple[Fraction, tuple[Fraction, ...], list[Fraction], Fraction]]:
    """Jointly split a cut budget among blocks attaching at one cut vertex.

    For each block j choose u'_j in (0, 1) and a region point y^j whose cut
    coordinate equals 1 - u'_j, maximizing the total net gain
    sum_j (sum_{i != cut} y^j_i - u'_j).  A second phase pushes the minimum
    of {u'_j, 1 - u'_j, future-cut coordinates} up without losing gain, so
    every split stays strictly inside and later joins keep a foothold.

    Returns per block: (u', y, hull weights, gain).
    """
    m = len(regions)
    nvs = [len(r.vertices) for r in regions]
    # layout: lambda blocks, then u'_j, then t
    lam_off = []
    off = 0
    for nv in nvs:
        lam_off.append(off)
        off += nv
    up_off = off
    t_idx = off + m
    width = t_idx + 1

    def zrow() -> list[Fraction]:
        return [ZERO] * width

    rows: list[Row] = []
    for j, region in enumerate(regions):
        row = zrow()
        for k in range(nvs[j]):
            row[lam_off[j] + k] = ONE
        rows.append((row, "==", ONE))
        # cut coordinate equals 1 - u'
        row = zrow()
        for k, v in enumerate(region.vertices):
            row[lam_off[j] + k] = v[cut_locals[j]]
        row[up_off + j] = ONE
        rows.append((row, "==", ONE))
        rows.append((_one_hot(width, up_off + j), "<=", ONE))
    row = zrow()
    for j in range(m):
        row[up_off + j] = ONE
    rows.append((row, "<=", budget))

    gain_obj = zrow()
    for j, region in enumerate(regions):
        for k, v in enumerate(region.vertices):
            gain_obj[lam_off[j] + k] = sum(
                (v[i] for i in range(region.dim) if i != cut_locals[j]), ZERO)
        gain_obj[up_off + j] = -ONE
    res = solve_lp(gain_obj, rows, maximize=True)
    if not res.optimal:
        raise CertificateError("join LP infeasible")
    g_star = res.value

    # phase 2: balance strictness margins on the optimal face
    rows2 = list(rows)
    rows2.append((list(gain_obj), "==", g_star))
    for j, region in enumerate(regions):
        row = zrow()
        row[up_off + j] = -ONE
        row[t_idx] = ONE
        rows2.append((row, "<=", ZERO))  # t <= u'_j
        row = zrow()
        row[up_off + j] = ONE
        row[t_idx] = ONE
        rows2.append((row, "<=", ONE))  # t <= 1 - u'_j
        for i in future_cuts[j]:
            row = zrow()
            for k, v in enumerate(region.vertices):
                row[lam_off[j] + k] = -v[i]
            row[t_idx] = ONE
            rows2.append((row, "<=", ZERO))  # t <= y^j_i
    res2 = solve_lp(_one_hot(width, t_idx), rows2, maximize=True)
    assert res2.optimal
    if res2.x[t_idx] == ZERO and g_star > ZERO:
        # trade a sliver of gain for strictness margins
        rows3 = list(rows)
        rows3.append((list(gain_obj), ">=", g_star * Fraction(99, 100)))
        rows3.extend(rows2[len(rows) + 1:])
        res3 = solve_lp(_one_hot(width, t_idx), rows3, maximize=True)
        assert res3.optimal
        res2 = res3

    x = res2.x
    out = []
    for j, region in enumerate(regions):
        lam = x[lam_off[j]:lam_off[j] + nvs[j]]
        y = _hull_point(region, lam)
        up = x[up_off + j]
        gain = sum((y[i] for i in range(region.dim) if i != cut_locals[j]), ZERO) - up
        out.append((up, y, lam, gain))
    return out


def _one_hot(width: int, idx: int) -> list[Fraction]:
    row = [ZERO] * width
    row[idx] = ONE
    return row


def _hull_point(poly: VertexPolytope, lam: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """The convex combination sum_k lam_k v_k of the polytope's vertices."""
    return tuple(sum((c * v[i] for c, v in zip(lam, poly.vertices)), ZERO)
                 for i in range(poly.dim))


def _block_vertex_step(block_globals: Sequence[int], region: BlockRegion,
                       point: Sequence[Fraction], lam: Sequence[Fraction],
                       block_edges: Sequence[tuple[int, int]]) -> dict:
    return {
        "kind": "block_vertex",
        "block_vertices": list(block_globals),
        "block_edges": [list(e) for e in block_edges],
        "region": region.kind,
        "universal": region.universal,
        "point": [format_rat(c) for c in point],
        "combination": [format_rat(c) for c in lam],
    }


def _join_step(cut: int, before: Fraction, up: Fraction, gain: Fraction,
               block: dict) -> dict:
    """A join at cut: its exponent `before` gives up `up` to the incoming block."""
    return {
        "kind": "join_step",
        "cut": cut,
        "u_cut_before": format_rat(before),
        "u_prime": format_rat(up),
        "u_cut_after": format_rat(before - up),
        "gain": format_rat(gain),
        "block": block,
    }


# ---------------------------------------------------------------------------
# pendant-tree extension


def certify_contraction(g_prime: Graph, core_cert: Certificate) -> Certificate:
    """Extend a core certificate over the pendant trees of g_prime.

    Each pendant tree is re-allocated by `tree_budget_lp` with its root's
    core exponent as the output budget; the sum can only grow.
    """
    g_prime.require_connected()
    if core_cert.status == UNKNOWN:
        raise CertificateError("core certificate is unknown")
    dec = contract_pendant_trees(g_prime)
    if dec.is_tree:
        raise CertificateError("core mismatch: graph strips to an empty core")
    if set(dec.core_vertices) != set(core_cert.vertices):
        raise CertificateError(
            f"core mismatch: expected core {sorted(core_cert.vertices)}, "
            f"found {list(dec.core_vertices)}")
    if set(core_cert.global_edges()) != set(dec.core_edges):
        raise CertificateError("core mismatch: edge sets differ")
    if not dec.pendant_trees:
        return core_cert

    wmap = {v: core_cert.witness_at(v) for v in dec.core_vertices}
    pend_steps = []
    for tree in dec.pendant_trees:
        verts = tree.all_vertices()
        tg, remap = relabel(verts, tree.edges)
        budget = wmap[tree.root]
        alloc = tree_budget_lp(tg, remap[tree.root], budget)
        for v in verts:
            wmap[v] = alloc.u[remap[v]]
        pend_steps.append({
            "root": tree.root,
            "budget": format_rat(budget),
            "tree": _tree_derivation(alloc, verts),
        })

    witness = ExponentVector(tuple(wmap[v] for v in range(1, g_prime.n + 1)))
    if witness.total <= 1:  # pragma: no cover - extension never shrinks the sum
        raise CertificateError("contraction extension lost the strict sum")
    derivation = [{
        "kind": "contraction_step",
        "core_vertices": list(dec.core_vertices),
        "core": core_cert.derivation,
        "pendants": pend_steps,
    }]
    return Certificate(
        graph=g_prime,
        vertices=tuple(range(1, g_prime.n + 1)),
        status=core_cert.status,
        witness=witness,
        derivation=derivation,
        assumptions=list(core_cert.assumptions),
    )


# ---------------------------------------------------------------------------
# full pipeline


def certify(g: Graph, master_seed: int = 0, probe_seeds: int = 12) -> Certificate:
    """Certify an improving witness for any connected graph.

    Pipeline: trees go through `certify_tree`; otherwise pendant trees are
    stripped, the 2-core is block-decomposed, every block is certified
    (single edges and triangles exactly, other blocks conditionally via the
    regularity hull after a rank probe), the block tree is folded with
    joins, and the pendant trees are re-attached.  Absence of a proof is
    reported as status "unknown", never as an error.
    """
    g.require_connected()
    if is_tree(g):
        return certify_tree(g)

    dec = contract_pendant_trees(g)
    core_graph, remap = dec.core_graph()
    inv = {i: v for v, i in remap.items()}
    bd = block_decomposition(core_graph)

    # certify each block, probing non-trivial blocks for regular realizability
    regions: list[BlockRegion | None] = []
    notes: list[str] = []
    for bi, block in enumerate(bd.blocks):
        bg, bmap = block.graph()
        region = block_region_for(bg)
        if region.kind == "regular_hull":
            from . import rigidity

            report = rigidity.regularity_probe(
                bg, num_seeds=probe_seeds,
                master_seed=master_seed * 1000 + bi)
            globals_ = tuple(inv[v] for v in block.vertices)
            if report.verdict != "regular-at-all-samples":
                regions.append(None)
                notes.append(
                    f"block {list(globals_)}: regularity probe verdict "
                    f"{report.verdict!r}; hull bound unavailable")
                continue
            notes.append(
                f"block {list(globals_)}: rank {report.expected_rank} at all "
                f"{report.samples} sampled realizations (evidence only, "
                "sampling cannot prove regularity)")
        regions.append(region)

    if any(r is None for r in regions):
        return _unknown(g, notes + ["a block could not be certified"])

    # fold the block tree from its root, block 0
    cut_set = set(bd.cut_vertices)
    block_globals = [tuple(inv[v] for v in b.vertices) for b in bd.blocks]
    block_edges_global = [
        tuple(tuple(sorted((inv[i], inv[j]))) for i, j in b.edges)
        for b in bd.blocks
    ]
    status = PROVEN
    assumptions: list[str] = []

    def block_step(bi: int, point, lam) -> dict:
        nonlocal status
        region = regions[bi]
        if region.universal == CONDITIONAL:
            status = CONDITIONAL
            assumptions.append(f"block {list(block_globals[bi])}: {region.note}")
        return _block_vertex_step(block_globals[bi], region, point, lam,
                                  block_edges_global[bi])

    root_block = bd.blocks[0]
    out_cuts_root = [i for i, v in enumerate(root_block.vertices) if v in cut_set]
    point, lam = _placement_lp(regions[0].polytope,
                               list(range(len(root_block.vertices))),
                               out_cuts_root)
    wmap = dict(zip(block_globals[0], point))
    fold = {"kind": "join_fold", "base": [block_step(0, point, lam)], "joins": []}

    # group BFS tree edges by cut vertex, preserving BFS order
    groups: dict[int, list[int]] = {}
    for _, cut_core, ci in bd.block_tree:
        groups.setdefault(cut_core, []).append(ci)

    for cut_core, kids in groups.items():
        cut_global = inv[cut_core]
        kid_regions = [regions[ci].polytope for ci in kids]
        kid_cut_locals = [bd.blocks[ci].vertices.index(cut_core) for ci in kids]
        kid_future = [
            [i for i, v in enumerate(bd.blocks[ci].vertices)
             if v in cut_set and v != cut_core]
            for ci in kids
        ]
        if sum(wmap.values(), ZERO) < 1 or wmap.get(cut_global, ZERO) <= ZERO:
            return _unknown(g, notes + [
                f"no non-trivial estimate available at cut {cut_global}"])
        splits = _join_lp(kid_regions, kid_cut_locals, wmap[cut_global], kid_future)
        for ci, (up, y, lam_c, gain) in zip(kids, splits):
            if not (ZERO < up < ONE) or gain <= ZERO:
                return _unknown(g, notes + [
                    f"join at cut {cut_global} found no strict split"])
            before = wmap[cut_global]
            wmap[cut_global] = before - up
            for v, yv in zip(block_globals[ci], y):
                if v != cut_global:
                    wmap[v] = yv
            fold["joins"].append(
                _join_step(cut_global, before, up, gain, block_step(ci, y, lam_c)))

    core_witness = ExponentVector(tuple(wmap[inv[i]] for i in range(1, core_graph.n + 1)))
    core_cert = Certificate(
        graph=core_graph,
        vertices=tuple(inv[i] for i in range(1, core_graph.n + 1)),
        status=status,
        witness=core_witness,
        derivation=[fold],
        assumptions=assumptions,
    )
    if core_cert.total <= 1:  # pragma: no cover - root >= 1 plus strict gains
        raise CertificateError("core fold lost the strict sum")

    full = certify_contraction(g, core_cert) if dec.pendant_trees else core_cert
    # surface the probe evidence notes on conditional certificates
    if full.status == CONDITIONAL:
        full.assumptions = list(full.assumptions)
        for note in notes:
            if "evidence only" in note and note not in full.assumptions:
                full.assumptions.append(note)
    return full


# ---------------------------------------------------------------------------
# replay


@dataclass
class ReplayResult:
    ok: bool
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def replay(cert: Certificate | dict) -> ReplayResult:
    """Independently re-verify a certificate with exact arithmetic only."""
    obj = cert.to_json_dict() if isinstance(cert, Certificate) else cert
    try:
        claimed = Certificate.from_json_dict(obj)
        n = claimed.graph.n
        if not (len(claimed.vertices) == len(set(claimed.vertices)) == n
                and len(claimed.witness) == n):
            raise _Fail(f"vertices and witness must name each of the {n} vertices once")
        witness = dict(zip(claimed.vertices, claimed.witness))
        claimed_sum = rat(obj["sum"])

        derived: dict[int, Fraction] = {}
        edges_used: list[tuple[int, ...]] = []
        conditional_seen = False

        def check_tree(node: dict, budget: Fraction) -> None:
            if node["kind"] != "tree_recursion":
                raise _Fail(f"expected tree_recursion, got {node['kind']}")
            if rat(node["budget"]) != budget:
                raise _Fail(f"budget mismatch at vertex {node['root']}")
            u = rat(node["split"]["u"])
            ws = [rat(e["w"]) for e in node["split"]["edges"]]
            if u + sum(ws, ZERO) != budget:
                raise _Fail(f"budget equation violated at vertex {node['root']}")
            if not (ZERO <= u <= ONE):
                raise _Fail(f"exponent out of range at vertex {node['root']}")
            derived[node["root"]] = u
            kids = {e["child"]: rat(e["w"]) for e in node["split"]["edges"]}
            for step in node["children"]:
                child = step["child"]
                if child not in kids:
                    raise _Fail(f"step for unknown child {child}")
                edges_used.append(tuple(sorted((node["root"], child))))
                w = kids[child]
                if step["kind"] == "improving_step":
                    if not (ZERO < w < ONE):
                        raise _Fail(f"improving step at closed endpoint w={w}")
                    if rat(step["w"]) != w:
                        raise _Fail(f"split/step w mismatch at child {child}")
                    if rat(step["v"]) != PROFILE.value(w):
                        raise _Fail(
                            f"profile mismatch: claimed v({w})={step['v']}")
                    check_tree(step["subtree"], rat(step["v"]))
                elif step["kind"] == "sup_step":
                    if w != ZERO:
                        raise _Fail("sup step with nonzero budget")
                    check_tree(step["subtree"], ZERO)
                    sub = _collect_vertices(step["subtree"])
                    if any(derived[s] != ZERO for s in sub):
                        raise _Fail("sup-bounded subtree with nonzero exponent")
                else:
                    raise _Fail(f"unknown child step {step['kind']}")

        def check_block(step: dict, forced_cut: tuple[int, Fraction] | None) -> None:
            nonlocal conditional_seen
            globals_ = list(step["block_vertices"])
            point = tuple(rat(c) for c in step["point"])
            lam = [rat(c) for c in step["combination"]]
            region = _region_from_kind(step)
            edges_used.extend(tuple(sorted(e)) for e in step["block_edges"])
            if region.universal == CONDITIONAL:
                conditional_seen = True
            if len(lam) != len(region.polytope.vertices):
                raise _Fail("hull combination has wrong arity")
            if any(l < ZERO for l in lam) or sum(lam, ZERO) != ONE:
                raise _Fail("hull combination is not convex")
            if _hull_point(region.polytope, lam) != point:
                raise _Fail("hull combination does not reproduce the point")
            if forced_cut is not None:
                cut, val = forced_cut
                if point[globals_.index(cut)] != val:
                    raise _Fail("dual cut coordinate mismatch")
                for gv, pv in zip(globals_, point):
                    if gv != cut:
                        derived[gv] = pv
            else:
                for gv, pv in zip(globals_, point):
                    derived[gv] = pv

        def check_steps(steps: list[dict]) -> None:
            for step in steps:
                kind = step["kind"]
                if kind == "tree_recursion":
                    check_tree(step, rat(step["budget"]))
                elif kind == "block_vertex":
                    check_block(step, None)
                elif kind == "join_fold":
                    check_steps(step["base"])
                    for js in step["joins"]:
                        cut = js["cut"]
                        before = rat(js["u_cut_before"])
                        up = rat(js["u_prime"])
                        after = rat(js["u_cut_after"])
                        gain = rat(js["gain"])
                        if derived.get(cut) != before:
                            raise _Fail(f"join at {cut}: stale cut exponent")
                        if before != up + after:
                            raise _Fail(f"join at {cut}: split equation violated")
                        if not (ZERO < up < ONE):
                            raise _Fail(f"join at {cut}: split not strictly inside")
                        running = sum(derived.values(), ZERO)
                        if running < 1:
                            raise _Fail(f"join at {cut}: no non-trivial estimate")
                        check_block(js["block"], (cut, ONE - up))
                        derived[cut] = after
                        block_sum = sum(
                            (derived[v] for v in js["block"]["block_vertices"]
                             if v != cut), ZERO)
                        if block_sum - up != gain:
                            raise _Fail(f"join at {cut}: recorded gain mismatch")
                        if gain <= ZERO:
                            raise _Fail(f"join at {cut}: no strict gain")
                elif kind == "contraction_step":
                    check_steps(step["core"])
                    for pend in step["pendants"]:
                        root = pend["root"]
                        budget = rat(pend["budget"])
                        if derived.get(root) != budget:
                            raise _Fail(
                                f"pendant at {root}: budget is not the core exponent")
                        check_tree(pend["tree"], budget)
                else:
                    raise _Fail(f"unknown step kind {kind}")

        if claimed.status == UNKNOWN:
            return ReplayResult(True)
        check_steps(claimed.derivation)
        if sorted(edges_used) != sorted(claimed.global_edges()):
            raise _Fail("derivation does not use each edge of the graph exactly once")
        for v, x in witness.items():
            if derived.get(v) != x:
                raise _Fail(f"derivation does not reproduce witness at {v}")
        if sum(witness.values(), ZERO) != claimed_sum:
            raise _Fail("claimed sum differs from witness sum")
        if claimed.status == PROVEN:
            if claimed_sum <= 1:
                raise _Fail("proven status requires sum strictly above 1")
            if claimed.assumptions:
                raise _Fail("proven status with recorded assumptions")
            if conditional_seen:
                raise _Fail("proven status built on a conditional block")
        if claimed.status == CONDITIONAL and claimed_sum <= 1:
            raise _Fail("conditional status still requires sum above 1")
        return ReplayResult(True)
    except _Fail as f:
        return ReplayResult(False, str(f))
    except (KeyError, ValueError, ZeroDivisionError, TypeError, AttributeError,
            IndexError) as exc:
        return ReplayResult(False, f"malformed certificate: {exc}")
    finally:
        # the nested checkers reach each other through closure cells; unbind
        # them so the cycle and the exponents it holds are freed at once
        check_tree = check_block = check_steps = None


class _Fail(Exception):
    pass


def _collect_vertices(node: dict) -> list[int]:
    out = [node["root"]]
    for step in node["children"]:
        out.extend(_collect_vertices(step["subtree"]))
    return out


def _region_from_kind(step: dict) -> BlockRegion:
    """The region block_region_for gives a block step's edges; the step must
    claim its kind and universality."""
    region = block_region_for(relabel(step["block_vertices"], step["block_edges"])[0])
    if (step["region"], step["universal"]) != (region.kind, region.universal):
        raise _Fail(f"block {step['block_vertices']} has a {region.universal} "
                    f"{region.kind} region, not {step['universal']} {step['region']}")
    return region
