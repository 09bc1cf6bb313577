"""Replayable certificates of improving bounds for graph forms.

A certificate derives a witness exponent vector with sum strictly above 1
by composing three mechanisms over the graph structure:

* rooted-tree budget allocation (an exact greedy merge of concave pieces
  over the improving profile; no LP),
* pendant-tree extension of a core certificate,
* joins of blocks sharing a single cut vertex, with the incoming block's
  certified polytope used in dual mode at the cut.

Derivations are plain JSON-ready dicts with exact rational strings, so a
serialized certificate replays byte-for-byte.  `replay` accepts only the one
shape that `certify` builds, with exact arithmetic and no recursion: a single
step, which is a `tree_recursion` under budget 1, a core, or a
`contraction_step` extending one core by pendant trees.  A core is a
`join_fold` of one base `block_vertex` and its `join_step`s, or a bare
`block_vertex`.  Each tree node's split edges name its child steps in order,
and each vertex is derived once, except that a join lowers its cut and a
pendant tree re-splits its root.  The derivation must use each edge of the
certificate's graph exactly once, and each block step must claim the region
that `block_region_for` assigns to its edges.  A contraction's `core_vertices`
must list the vertices its core derives, each once, and a conditional
certificate's `assumptions` must hold the entry that `certify` writes for
each conditional block, which states the block's hypothesis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
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
        return {
            "graph": self.graph.to_json_dict(),
            "vertices": list(self.vertices),
            "status": self.status,
            "witness": self.witness.to_json(),
            "sum": format_rat(self.total),
            "derivation": self.derivation,
            "assumptions": list(self.assumptions),
        }

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


def _tree_derivation(alloc: TreeAllocation, labels: Sequence[int]) -> dict:
    """Nested tree_recursion dict in global labels, built in BFS order."""
    def entry(v: int, budget: Fraction) -> dict:
        return {
            "kind": "tree_recursion",
            "root": labels[v - 1],
            "budget": format_rat(budget),
            "split": {
                "u": format_rat(alloc.u[v]),
                "edges": [{"child": labels[c - 1], "w": format_rat(alloc.w[c])}
                          for c in alloc.children[v]],
            },
            "children": [],
        }

    root = entry(alloc.root, alloc.budget)
    queue = [(alloc.root, root)]
    for v, node in queue:
        for c in alloc.children[v]:
            wc = alloc.w[c]
            sub = entry(c, PROFILE.value(wc))
            step = ({"kind": "sup_step", "child": labels[c - 1]} if wc == ZERO else
                    {"kind": "improving_step", "child": labels[c - 1],
                     "w": format_rat(wc), "v": sub["budget"]})
            step["subtree"] = sub
            node["children"].append(step)
            queue.append((c, sub))
    return root


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


def _assumption(block_vertices: Sequence[int], region: BlockRegion) -> str:
    """The assumption entry that a conditional block adds to a certificate."""
    return f"block {list(block_vertices)}: {region.note}"


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
    lam_off = [0, *accumulate(nvs)]
    up_off = lam_off.pop()
    t_idx = up_off + m
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


def _placed(block_step: dict, point: Sequence[Fraction],
            lam: Sequence[Fraction]) -> dict:
    """A block step at a hull point, with the point's convex weights."""
    return dict(block_step, point=[format_rat(c) for c in point],
                combination=[format_rat(c) for c in lam])


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
    block_steps = [
        {"kind": "block_vertex", "block_vertices": list(globals_),
         "block_edges": [sorted((inv[i], inv[j])) for i, j in b.edges],
         "region": region.kind, "universal": region.universal}
        for b, globals_, region in zip(bd.blocks, block_globals, regions)
    ]

    root_block = bd.blocks[0]
    out_cuts_root = [i for i, v in enumerate(root_block.vertices) if v in cut_set]
    point, lam = _placement_lp(regions[0].polytope,
                               list(range(len(root_block.vertices))),
                               out_cuts_root)
    wmap = dict(zip(block_globals[0], point))
    fold = {"kind": "join_fold", "base": [_placed(block_steps[0], point, lam)],
            "joins": []}

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
            fold["joins"].append(_join_step(cut_global, before, up, gain,
                                            _placed(block_steps[ci], y, lam_c)))

    # the blocks in fold order: the base, then the joins
    assumptions = [_assumption(block_globals[bi], regions[bi])
                   for bi in [0, *(ci for kids in groups.values() for ci in kids)]
                   if regions[bi].universal == CONDITIONAL]

    core_witness = ExponentVector(tuple(wmap[inv[i]] for i in range(1, core_graph.n + 1)))
    core_cert = Certificate(
        graph=core_graph,
        vertices=tuple(inv[i] for i in range(1, core_graph.n + 1)),
        status=CONDITIONAL if assumptions else PROVEN,
        witness=core_witness,
        derivation=[fold],
        assumptions=assumptions,
    )
    if core_cert.total <= 1:  # pragma: no cover - root >= 1 plus strict gains
        raise CertificateError("core fold lost the strict sum")

    full = certify_contraction(g, core_cert) if dec.pendant_trees else core_cert
    # surface the probe evidence notes on conditional certificates
    if full.status == CONDITIONAL:
        full.assumptions.extend(notes)
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
        if claimed.status == UNKNOWN:
            return ReplayResult(True)

        derived, edges_used = {}, []  # vertex -> exponent; sorted edge pairs
        # the assumption entry of each conditional block step
        conditions = _check_derivation(claimed.derivation, derived, edges_used)
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
            if conditions:
                raise _Fail("proven status built on a conditional block")
        elif claimed.status != CONDITIONAL:
            raise _Fail(f"unknown status {claimed.status!r}")
        elif claimed_sum <= 1:
            raise _Fail("conditional status still requires sum above 1")
        for entry in conditions:
            if entry not in claimed.assumptions:
                raise _Fail(f"assumptions do not state {entry!r}")
        return ReplayResult(True)
    except _Fail as f:
        return ReplayResult(False, str(f))
    except (KeyError, ValueError, ArithmeticError, TypeError, AttributeError,
            IndexError, RecursionError) as exc:  # deep values in == or repr
        return ReplayResult(False, f"malformed certificate: {exc}")


class _Fail(Exception):
    pass


def _derive(derived: dict, v: int, x: Fraction) -> None:
    if v in derived:
        raise _Fail(f"vertex {v} is derived twice")
    derived[v] = x


def _check_derivation(steps: list, derived: dict, edges_used: list) -> list[str]:
    """Check a whole derivation; returns the assumption entries it rests on."""
    if len(steps) != 1:
        raise _Fail(f"derivation must be one step, not {len(steps)}")
    step = steps[0]
    if step["kind"] == "tree_recursion":
        _check_tree(step, ONE, derived, edges_used)
        return []
    if step["kind"] != "contraction_step":
        return _check_core(step, derived, edges_used)
    if len(step["core"]) != 1:
        raise _Fail("contraction must extend one core step")
    conditions = _check_core(step["core"][0], derived, edges_used)
    core = step["core_vertices"]
    if len(set(core)) != len(core) or set(core) != set(derived):
        raise _Fail("contraction core_vertices are not the vertices its core derives")
    for pend in step["pendants"]:
        root = pend["root"]
        budget = rat(pend["budget"])
        if derived.get(root) != budget:
            raise _Fail(f"pendant at {root}: budget is not the core exponent")
        if pend["tree"]["root"] != root:
            raise _Fail(f"pendant at {root}: tree has another root")
        del derived[root]  # the pendant tree re-splits its root
        _check_tree(pend["tree"], budget, derived, edges_used)
    return conditions


def _check_core(step: dict, derived: dict, edges_used: list) -> list[str]:
    """A bare block, or one base block folded with joins at cut vertices."""
    if step["kind"] == "block_vertex":
        return _check_block(step, derived, edges_used, None, None)
    if step["kind"] != "join_fold":
        raise _Fail(f"unknown step kind {step['kind']}")
    if len(step["base"]) != 1:
        raise _Fail("join_fold must start from one base block")
    conditions = _check_block(step["base"][0], derived, edges_used, None, None)
    for js in step["joins"]:
        if js["kind"] != "join_step":
            raise _Fail(f"expected join_step, got {js['kind']}")
        cut = js["cut"]
        before, up, after, gain = (
            rat(js[k]) for k in ("u_cut_before", "u_prime", "u_cut_after", "gain"))
        if derived.get(cut) != before:
            raise _Fail(f"join at {cut}: stale cut exponent")
        if before != up + after:
            raise _Fail(f"join at {cut}: split equation violated")
        if not (ZERO < up < ONE):
            raise _Fail(f"join at {cut}: split not strictly inside")
        if sum(derived.values(), ZERO) < 1:
            raise _Fail(f"join at {cut}: no non-trivial estimate")
        conditions += _check_block(js["block"], derived, edges_used, cut, ONE - up)
        derived[cut] = after  # the join lowers its cut
        block_sum = sum((derived[v] for v in js["block"]["block_vertices"]
                         if v != cut), ZERO)
        if block_sum - up != gain:
            raise _Fail(f"join at {cut}: recorded gain mismatch")
        if gain <= ZERO:
            raise _Fail(f"join at {cut}: no strict gain")
    return conditions


def _check_block(step: dict, derived: dict, edges_used: list,
                 cut: int | None, cut_value: Fraction | None) -> list[str]:
    """A block's hull point; the point's cut coordinate, if any, must equal
    cut_value and derives nothing.  A conditional block returns the one
    assumption entry that `certify` writes for it, proven blocks none."""
    if step["kind"] != "block_vertex":
        raise _Fail(f"expected block_vertex, got {step['kind']}")
    globals_ = list(step["block_vertices"])
    if len(set(globals_)) != len(globals_):
        raise _Fail(f"block {globals_} repeats a vertex")
    point = tuple(rat(c) for c in step["point"])
    lam = [rat(c) for c in step["combination"]]
    # the step must claim the region that block_region_for gives its edges
    region = block_region_for(relabel(globals_, step["block_edges"])[0])
    if (step["region"], step["universal"]) != (region.kind, region.universal):
        raise _Fail(f"block {globals_} has a {region.universal} "
                    f"{region.kind} region, not {step['universal']} {step['region']}")
    edges_used.extend(tuple(sorted(e)) for e in step["block_edges"])
    if len(lam) != len(region.polytope.vertices):
        raise _Fail("hull combination has wrong arity")
    if any(l < ZERO for l in lam) or sum(lam, ZERO) != ONE:
        raise _Fail("hull combination is not convex")
    if _hull_point(region.polytope, lam) != point:
        raise _Fail("hull combination does not reproduce the point")
    if cut is not None and point[globals_.index(cut)] != cut_value:
        raise _Fail("dual cut coordinate mismatch")
    for gv, pv in zip(globals_, point):
        if gv != cut:
            _derive(derived, gv, pv)
    return [_assumption(globals_, region)] if region.universal == CONDITIONAL else []


def _check_tree(tree: dict, budget: Fraction, derived: dict, edges_used: list) -> None:
    """A tree_recursion under the given root budget, walked with a stack.
    Each split w is 0 (sup step) or in (0, 1), so budget 0 leaves u = 0."""
    stack = [(tree, budget)]
    while stack:
        node, budget = stack.pop()
        if node["kind"] != "tree_recursion":
            raise _Fail(f"expected tree_recursion, got {node['kind']}")
        root = node["root"]
        if rat(node["budget"]) != budget:
            raise _Fail(f"budget mismatch at vertex {root}")
        u = rat(node["split"]["u"])
        edges = node["split"]["edges"]
        ws = [rat(e["w"]) for e in edges]
        if u + sum(ws, ZERO) != budget:
            raise _Fail(f"budget equation violated at vertex {root}")
        if not (ZERO <= u <= ONE):
            raise _Fail(f"exponent out of range at vertex {root}")
        _derive(derived, root, u)
        steps = node["children"]
        if [e["child"] for e in edges] != [step["child"] for step in steps]:
            raise _Fail(f"split edges and child steps differ at vertex {root}")
        for step, w in zip(steps, ws):
            child = step["child"]
            if step["subtree"]["root"] != child:
                raise _Fail(f"step for child {child} holds another subtree")
            edges_used.append(tuple(sorted((root, child))))
            if step["kind"] == "improving_step":
                if not (ZERO < w < ONE):
                    raise _Fail(f"improving step at closed endpoint w={w}")
                if rat(step["w"]) != w:
                    raise _Fail(f"split/step w mismatch at child {child}")
                if rat(step["v"]) != PROFILE.value(w):
                    raise _Fail(f"profile mismatch: claimed v({w})={step['v']}")
                stack.append((step["subtree"], rat(step["v"])))
            elif step["kind"] == "sup_step":
                if w != ZERO:
                    raise _Fail("sup step with nonzero budget")
                stack.append((step["subtree"], ZERO))
            else:
                raise _Fail(f"unknown child step {step['kind']}")
