import copy
import functools
import hashlib
import itertools
import json
from fractions import Fraction as F
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import assume, given, settings, strategies as st

from lpgraph import certificates, simplex
from lpgraph.certificates import (
    Certificate,
    CertificateError,
    certify,
    certify_tree,
    replay,
    tree_budget_lp,
)
from lpgraph.exponents import (
    ExponentVector,
    hull_membership,
    halfspace_membership,
    improving_profile_circle,
    necessary_halfspaces,
    chain3_constructed_region,
    sufficient_vertices,
)
from lpgraph.graphs import (
    Graph,
    parse_graph,
    path3,
    triangle,
)
from lpgraph.simplex import solve_lp

from graph_figures import (cycle, single_edge, star, triangle_with_pendant_tree,
                           two_block_figure, two_triangles)

PROFILE = improving_profile_circle(2)


# ---------------------------------------------------------------------------
# brute-force oracle for small tree allocations: enumerate rational budget
# splits on a fixed denominator lattice and keep the best feasible sum


def _oracle_tree_max(g, root, budget=F(1), denom=24):
    from lpgraph.certificates import _rooted

    _, children = _rooted(g, root)
    prof = PROFILE

    def best(node, b):
        kids = children[node]
        if not kids:
            return b
        grid = [F(k, denom) for k in range(denom + 1)]
        top = F(-1)
        for ws in itertools.product(grid, repeat=len(kids)):
            s = sum(ws)
            if s > b:
                continue
            u = b - s
            if u > 1:
                continue
            total = u + sum(best(c, prof.value(w)) for c, w in zip(kids, ws))
            top = max(top, total)
        return top

    return best(root, budget)


def _lp_tree_oracle(g, root, budget):
    """(u, w, total) of the tree allocation as an exact LP on solve_lp.

    Variables u_1..u_n, then w_v and b_v for every non-root v: each vertex
    splits its budget b_v between u_v and its child edges, b_v lies under
    the profile at w_v, and everything stays in [0, 1].  Maximize sum u,
    then u_1, u_2, ... in turn, pinning each optimum before the next.
    """
    from lpgraph.certificates import _rooted

    _, children = _rooted(g, root)
    non_root = [v for v in range(1, g.n + 1) if v != root]
    w_idx = {v: g.n + i for i, v in enumerate(non_root)}
    b_idx = {v: g.n + len(non_root) + i for i, v in enumerate(non_root)}

    def row(coefs):
        out = [F(0)] * (g.n + 2 * len(non_root))
        for i, c in coefs.items():
            out[i] = F(c)
        return out

    def split(v):  # u_v plus the budgets of v's child edges
        return {v - 1: 1, **{w_idx[c]: 1 for c in children[v]}}

    rows = [(row(split(root)), "==", budget)]
    for v in non_root:
        rows.append((row({**split(v), b_idx[v]: -1}), "==", F(0)))
        rows += [(row({b_idx[v]: 1, w_idx[v]: -m}), "<=", q)
                 for m, q in PROFILE.segments()]
        rows.append((row({w_idx[v]: 1}), "<=", F(1)))
    rows += [(row({v - 1: 1}), "<=", F(1)) for v in range(1, g.n + 1)]
    objectives = [row({v - 1: 1 for v in range(1, g.n + 1)})]
    objectives += [row({v - 1: 1}) for v in range(1, g.n + 1)]
    for obj in objectives:
        res = solve_lp(obj, rows, maximize=True)
        assert res.optimal
        rows.append((obj, "==", res.value))
    u = {v: res.x[v - 1] for v in range(1, g.n + 1)}
    w = {v: res.x[w_idx[v]] for v in non_root}
    return u, w, sum(u.values())


@pytest.mark.parametrize("g,expected", [
    (path3(), F(5, 3)),
    (star(3), F(2)),
    (single_edge(), F(4, 3)),
])
def test_tree_lp_against_brute_force(g, expected):
    alloc = tree_budget_lp(g, root=g.n, budget=F(1))
    # the oracle lattice contains the true optimizers (thirds)
    assert alloc.total == expected
    assert _oracle_tree_max(g, root=g.n) == expected


def test_path3_certificate_values():
    cert = certify_tree(path3())
    assert cert.status == "proven"
    assert cert.witness.entries == (F(2, 3), F(2, 3), F(1, 3))
    assert cert.total == F(5, 3)
    assert replay(cert).ok


def test_star_certificate_values():
    cert = certify_tree(star(3))
    assert cert.witness.entries == (F(0), F(2, 3), F(2, 3), F(2, 3))
    assert cert.total == F(2)
    assert replay(cert).ok


def test_single_edge_certificate():
    cert = certify_tree(single_edge())
    assert cert.witness.entries == (F(2, 3), F(2, 3))
    assert cert.total == F(4, 3)


def test_path4_certificate():
    g = Graph(4, ((1, 2), (2, 3), (3, 4)))
    cert = certify_tree(g)
    assert cert.status == "proven"
    assert cert.total == F(2)
    assert replay(cert).ok


def test_certify_tree_rejects_cycle():
    with pytest.raises(CertificateError):
        certify_tree(triangle())


def test_monotone_in_leaves():
    # adding a leaf never decreases the optimal sum
    g3 = path3()
    g4 = Graph(4, ((1, 3), (2, 3), (3, 4)))
    assert certify_tree(g4).total >= certify_tree(g3).total


def test_single_vertex_is_unknown():
    cert = certify_tree(Graph(1, ()))
    assert cert.status == "unknown"


@st.composite
def labelled_trees(draw, max_n=12):
    n = draw(st.integers(2, max_n))
    pruefer = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    edges = (tuple(sorted((u + 1, v + 1)))
             for u, v in nx.from_prufer_sequence(pruefer).edges())
    return Graph(n, tuple(sorted(edges)))


@st.composite
def rooted_trees(draw, max_n=12):
    g = draw(labelled_trees(max_n))
    return g, draw(st.integers(1, g.n))


@settings(max_examples=100, deadline=None)
@given(rooted_trees())
def test_tree_optimum_is_root_independent(tree_and_root):
    # certify_tree roots every tree at vertex 1; that is sound only because
    # the optimal witness sum does not depend on the root
    g, r = tree_and_root
    assert tree_budget_lp(g, r, F(1)).optimum == tree_budget_lp(g, 1, F(1)).optimum


@settings(max_examples=100, deadline=None)
@given(rooted_trees(max_n=10), st.integers(0, 12))
def test_tree_allocation_matches_the_lp_oracle(tree_and_root, twelfths):
    g, r = tree_and_root
    u, w, total = _lp_tree_oracle(g, r, F(twelfths, 12))
    # an optimum with a closed step is capped below it, unlike the LP
    assume(F(1) not in w.values())
    alloc = tree_budget_lp(g, r, F(twelfths, 12))
    assert (alloc.u, alloc.w, alloc.total) == (u, w, total)
    assert alloc.optimum == total


@settings(max_examples=100, deadline=None)
@given(labelled_trees(max_n=30))
def test_every_tree_certifies_and_replays(g):
    cert = certify_tree(g)
    assert cert.status == "proven" and cert.total > 1
    assert replay(cert).ok


# the lexicographic optimum of these trees, rooted at vertex 1, routes the
# root's whole budget into one edge; capping that edge below 1 costs 2**-20
@pytest.mark.parametrize("n,edges,optimum", [
    (11, "1-6 2-10 3-7 4-7 5-10 6-7 6-9 6-10 8-9 9-11", F(4)),
    (16, "1-4 2-4 2-5 3-16 4-6 4-8 4-12 4-15 6-9 7-12 8-10 10-13 11-12 12-14 "
         "15-16", F(14, 3)),
])
def test_closed_step_optimum_is_capped(n, edges, optimum):
    g = Graph(n, tuple(tuple(int(v) for v in e.split("-")) for e in edges.split()))
    alloc = tree_budget_lp(g, 1, F(1))
    assert alloc.optimum == optimum
    assert all(wv < 1 for wv in alloc.w.values())
    cert = certify_tree(g)
    assert cert.status == "proven"
    assert cert.total == optimum - F(1, 1 << 20)
    assert replay(cert).ok


def test_tree_allocation_solves_no_lp(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(certificates, "solve_lp", counted)
    monkeypatch.setattr(simplex, "solve_lp", counted)
    for key in ("tree n=13", "tree n=16"):
        assert certify(LARGER_CASES[key]).status == "proven"
    assert tree_budget_lp(star(3), 2, F(1, 2)).total == F(3, 2)
    assert calls == []


@pytest.mark.parametrize("key,total,witness", [
    ("tree n=13", F(13, 3), "2/3 2/3 0 0 0 2/3 2/3 2/3 0 2/3 0 0 1/3"),
    ("tree n=16", F(17, 3), "0 2/3 2/3 2/3 2/3 2/3 2/3 0 0 0 2/3 1/3 2/3 0 0 0"),
])
def test_larger_tree_witnesses_are_pinned(key, total, witness):
    # rooting at vertex 1 or at the centroid (vertex 11 of the n = 13 tree)
    # gives these same witnesses
    cert = certify(LARGER_CASES[key])
    assert cert.status == "proven"
    assert cert.total == total
    assert cert.witness.entries == tuple(F(w) for w in witness.split())


# ---------------------------------------------------------------------------
# contraction


def test_certify_extends_triangle_core_over_its_pendant_tree():
    cert = certify(triangle_with_pendant_tree())
    assert cert.derivation[0]["kind"] == "contraction_step"
    assert cert.status == "proven"
    assert cert.total == F(19, 6)
    assert cert.witness[6] == cert.witness[7] == F(1, 2)  # u7 and u8
    assert replay(cert).ok


# ---------------------------------------------------------------------------
# the full pipeline


def test_certify_triangle_matches_polytope_vertex():
    cert = certify(triangle())
    assert cert.status == "proven"
    assert cert.witness.entries == (F(1, 2), F(1, 2), F(1, 2))
    assert replay(cert).ok


def test_certify_two_triangles_proven():
    cert = certify(two_triangles())
    assert cert.status == "proven"
    assert cert.total > 1
    assert replay(cert).ok


def test_certify_pendant_figure():
    cert = certify(triangle_with_pendant_tree())
    assert cert.status == "proven"
    assert cert.total == F(19, 6)
    assert replay(cert).ok


def test_certify_thirteen_vertex_figure_is_conditional():
    cert = certify(two_block_figure(), probe_seeds=6)
    assert cert.status == "conditional"
    assert cert.total > 1
    assert cert.assumptions
    assert replay(cert).ok


def test_certify_four_cycle_conditional_with_warning():
    cert = certify(cycle(4), probe_seeds=6)
    assert cert.status in ("conditional", "unknown")
    if cert.status == "conditional":
        assert cert.total > 1
        assert any("evidence only" in a for a in cert.assumptions)
        assert replay(cert).ok


def test_certify_witness_admissibility():
    tri = certify(triangle())
    assert hull_membership(sufficient_vertices("triangle"),
                           tri.witness.entries)[0]
    assert halfspace_membership(necessary_halfspaces("triangle", 2),
                                tri.witness.entries)[0]
    ch = certify(path3())
    # the tree construction may leave the stated chain polygon, but it stays
    # inside the budget-split region and the necessary system
    assert hull_membership(chain3_constructed_region(2), ch.witness.entries)[0]
    assert halfspace_membership(necessary_halfspaces("chain3", 2),
                                ch.witness.entries)[0]


# ---------------------------------------------------------------------------
# replay hardening


def test_replay_rejects_perturbed_budget():
    cert = certify_tree(path3()).to_json_dict()
    bad = copy.deepcopy(cert)
    node = bad["derivation"][0]
    w = F(node["split"]["edges"][0]["w"])
    node["split"]["edges"][0]["w"] = str(w + F(1, 1000))
    assert not replay(bad).ok


def test_replay_rejects_wrong_profile_value():
    cert = certify_tree(path3()).to_json_dict()
    bad = copy.deepcopy(cert)
    step = bad["derivation"][0]["children"][0]
    assert step["kind"] == "improving_step"
    step["v"] = "3/4"  # profile gives 2/3 at w = 1/3
    assert not replay(bad).ok
    assert "profile" in replay(bad).failure


def test_replay_rejects_wrong_sum():
    cert = certify_tree(path3()).to_json_dict()
    bad = copy.deepcopy(cert)
    bad["sum"] = "7/4"
    assert not replay(bad).ok


def test_replay_rejects_proven_without_strict_sum():
    cert = certify_tree(path3()).to_json_dict()
    bad = copy.deepcopy(cert)
    bad["witness"] = ["1/3", "1/3", "1/3"]
    bad["sum"] = "1"
    assert not replay(bad).ok


def test_replay_rejects_tampered_hull_point():
    cert = certify(two_triangles()).to_json_dict()
    bad = copy.deepcopy(cert)
    block = bad["derivation"][0]["joins"][0]["block"]
    block["point"][0] = "9/10"
    assert not replay(bad).ok


@pytest.mark.parametrize("field,value", [
    ("witness", None),
    ("derivation", [1]),
    ("vertices", None),
])
def test_replay_rejects_malformed_field(field, value):
    cert = certify_tree(path3()).to_json_dict()
    res = replay(dict(cert, **{field: value}))
    assert not res.ok
    assert res.failure.startswith("malformed certificate")


# ---------------------------------------------------------------------------
# replay soundness: a derivation must cover the graph its certificate names


def test_replay_rejects_path_certificate_relabelled_as_k4():
    cert = certify(Graph(4, ((1, 2), (2, 3), (3, 4)))).to_json_dict()
    k4 = Graph(4, tuple(itertools.combinations(range(1, 5), 2)))
    res = replay(dict(cert, graph=k4.to_json_dict()))
    assert not res.ok
    assert "each edge" in res.failure


def test_replay_rejects_triangle_certificate_relabelled_as_path():
    cert = certify(triangle()).to_json_dict()
    res = replay(dict(cert, graph=Graph(3, ((1, 2), (2, 3))).to_json_dict()))
    assert not res.ok
    assert "each edge" in res.failure


def _edge_block(vertices, edges):
    return {"kind": "block_vertex", "block_vertices": vertices,
            "block_edges": edges, "region": "edge_profile",
            "universal": "proven", "point": ["2/3", "2/3"],
            "combination": ["0", "0", "1"]}


def test_replay_rejects_four_cycle_block_claimed_as_edge():
    # all of C4 in one block claimed as an edge: its two-coordinate point
    # covers vertices 1 and 2, and two edgeless joins reach 3 and 4, so
    # every edge is used once and only the region claim is false
    c4 = cycle(4)
    joins = [{"kind": "join_step", "cut": cut, "u_cut_before": "2/3",
              "u_prime": "1/3", "u_cut_after": "1/3", "gain": "1/3",
              "block": _edge_block([cut, cut + 1], [])} for cut in (2, 3)]
    forged = {
        "graph": c4.to_json_dict(), "vertices": [1, 2, 3, 4],
        "status": "proven", "witness": ["2/3", "1/3", "1/3", "2/3"],
        "sum": "2", "assumptions": [],
        "derivation": [{
            "kind": "join_fold",
            "base": [_edge_block([1, 2, 3, 4], [list(e) for e in c4.edges])],
            "joins": joins,
        }],
    }
    res = replay(forged)
    assert not res.ok
    assert "regular_hull" in res.failure


def test_replay_rejects_four_cycle_claimed_proven():
    cert = certify(cycle(4)).to_json_dict()
    assert cert["status"] == "conditional"
    forged = copy.deepcopy(cert)
    forged.update(status="proven", assumptions=[])
    forged["derivation"][0]["base"][0]["universal"] = "proven"
    res = replay(forged)
    assert not res.ok
    assert "conditional regular_hull" in res.failure


def test_replay_rejects_graph_with_an_unlabelled_vertex():
    # a path-4 certificate presented on the path 1-2-3-4-5: vertex 5 has no
    # label and no witness entry
    cert = certify(Graph(4, ((1, 2), (2, 3), (3, 4)))).to_json_dict()
    res = replay(dict(cert, graph={"n": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5]]}))
    assert not res.ok
    assert "once" in res.failure


_LABEL_KEYS = ("root", "child", "cut", "block_vertices", "block_edges", "core_vertices")


def _shift_labels(cert, by):
    """A copy of a certificate with every vertex label raised by `by`, in
    `vertices` and in the derivation; the graph stays on 1..n."""
    def shift(x):
        return [shift(y) for y in x] if isinstance(x, list) else x + by

    out = copy.deepcopy(cert)
    out["vertices"] = shift(out["vertices"])
    stack = [out["derivation"]]
    while stack:
        node = stack.pop()
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for k, v in items:
            if k in _LABEL_KEYS:
                node[k] = shift(v)
            elif isinstance(v, (dict, list)):
                stack.append(v)
    return out


@pytest.mark.parametrize("name", ["k3", "triangle_pendant"])
def test_replay_rejects_a_certificate_relabelled_off_1_to_n(name):
    # the witness and the edges, renamed consistently, would still match:
    # only the labels 101..100+n, which are not the graph's vertices, differ
    g = parse_graph((GRAPHS / f"{name}.graph").read_text())
    cert = certify(g).to_json_dict()
    forged = _shift_labels(cert, 100)
    assert forged["vertices"] == list(range(101, 101 + g.n))
    assert forged["derivation"] != cert["derivation"]
    res = replay(forged)
    assert not res.ok
    assert res.failure.startswith(f"vertices must be [1, ..., {g.n}]")


def test_replay_rejects_permuted_vertices():
    # path3's leaves 1 and 2 get equal exponents, so swapping them in
    # `vertices` leaves the witness and the edge set as they were
    cert = certify(path3()).to_json_dict()
    assert cert["witness"][0] == cert["witness"][1]
    res = replay(dict(cert, vertices=[2, 1, 3]))
    assert not res.ok
    assert res.failure.startswith("vertices must be [1, ..., 3]")


def test_replay_rejects_a_huge_vertex_count_at_once():
    # a hundred bytes that name 10^9 vertices: rebuilding the graph must not
    # allocate per vertex before it finds the graph disconnected
    forged = {"graph": {"n": 10 ** 9, "edges": [[1, 2]]}, "vertices": [1, 2],
              "status": "proven", "witness": ["1", "1"], "sum": "2",
              "derivation": [], "assumptions": []}
    res = replay(forged)
    assert not res.ok
    assert "isolated component: (3,)" in res.failure


def test_replay_rejects_two_vertex_block_without_its_edge():
    # drop the bridge from its edge_profile block: the region lookup, which
    # runs before the edge check, must reject the block, whose two vertices
    # are unjoined
    cert = certify(LARGER_CASES["two triangles joined by an edge"]).to_json_dict()
    forged = copy.deepcopy(cert)
    block = forged["derivation"][0]["joins"][0]["block"]
    assert (block["block_vertices"], block["region"]) == ([3, 4], "edge_profile")
    block["block_edges"] = []
    res = replay(forged)
    assert not res.ok
    assert "not connected" in res.failure


@pytest.mark.parametrize("core_vertices", [
    [6, 7, 8, 4],  # a pendant vertex claimed as core
    [6, 7],  # a core vertex left out
    [6, 7, 8, 8],  # a core vertex repeated
])
def test_replay_rejects_contraction_with_false_core_vertices(core_vertices):
    cert = certify(triangle_with_pendant_tree()).to_json_dict()
    step = cert["derivation"][0]
    assert (step["kind"], step["core_vertices"]) == ("contraction_step", [6, 7, 8])
    step["core_vertices"] = core_vertices
    res = replay(cert)
    assert not res.ok
    assert "core_vertices" in res.failure


@pytest.mark.parametrize("keep", ["none", "probe evidence"])
def test_replay_rejects_conditional_certificate_without_its_assumptions(keep):
    # C4's one block needs the regularity hypothesis; the certificate must
    # state it, and the rank probe's evidence note does not
    cert = certify(cycle(4)).to_json_dict()
    hypothesis, evidence = cert["assumptions"]
    assert cert["status"] == "conditional"
    assert hypothesis.startswith("block [1, 2, 3, 4]: hull bound requires")
    cert["assumptions"] = [] if keep == "none" else [evidence]
    res = replay(cert)
    assert not res.ok
    assert "assumptions do not state" in res.failure


# ---------------------------------------------------------------------------
# replay accepts only the derivation shape that certify builds: one step,
# each tree node's split edges naming its child steps, each vertex derived
# once.  The first four forgeries below claim false bounds; the fifth claims
# proven on C4, whose region needs the regularity hypothesis; the last gives
# K3's core as a bare block, a shape that certify never writes.


def _tree(root, budget, u, kids=()):
    """A tree_recursion node; kids are (child, w, subtree) triples."""
    return {
        "kind": "tree_recursion", "root": root, "budget": str(budget),
        "split": {"u": str(u),
                  "edges": [{"child": c, "w": str(w)} for c, w, _ in kids]},
        "children": [
            {"kind": "sup_step", "child": c, "subtree": sub} if F(w) == 0 else
            {"kind": "improving_step", "child": c, "w": str(w),
             "v": sub["budget"], "subtree": sub}
            for c, w, sub in kids],
    }


def _forged(n, edges, witness, derivation):
    return {"graph": {"n": n, "edges": edges}, "vertices": list(range(1, n + 1)),
            "status": "proven", "witness": witness,
            "sum": str(sum(F(x) for x in witness)), "derivation": derivation,
            "assumptions": []}


_K3_BLOCK = {
    "kind": "block_vertex", "block_vertices": [1, 2, 3],
    "block_edges": [[1, 2], [1, 3], [2, 3]], "region": "triangle",
    "universal": "proven", "point": ["2/3", "0", "2/3"],
    "combination": ["0", "0", "0", "0", "1", "0", "0"],
}
# path3's centre 3 splits 1 = 2/3 + (-1/6 + 1/3 + 1/6): the child 2 is named
# twice, and the step for it reads the last w
_P3_DUPLICATED = _tree(3, 1, "2/3", [(1, "1/3", _tree(1, "2/3", "2/3")),
                                     (2, "1/6", _tree(2, "1/3", "1/3"))])
_P3_DUPLICATED["split"]["edges"].insert(0, {"child": 2, "w": "-1/6"})

# name -> (certificate, the failure that rejects it)
FORGERIES = {
    # the root budget 3/2 is read from the step instead of pinned to 1
    "edge (1, 3/4)": (_forged(2, [[1, 2]], ["1", "3/4"], [
        _tree(1, "3/2", 1, [(2, "1/2", _tree(2, "3/4", "3/4"))])]),
        "budget mismatch at vertex 1"),
    # a second top-level tree re-derives vertex 1
    "edge (1, 5/6)": (_forged(2, [[1, 2]], ["1", "5/6"], [
        _tree(1, 1, "1/3", [(2, "2/3", _tree(2, "5/6", "5/6"))]), _tree(1, 1, 1)]),
        "derivation must be one step, not 2"),
    # a second base step of the fold re-derives vertex 2
    "K3 (2/3, 1, 2/3)": (_forged(3, [[1, 2], [1, 3], [2, 3]], ["2/3", "1", "2/3"], [
        {"kind": "join_fold", "base": [_K3_BLOCK, _tree(2, 1, 1)], "joins": []}]),
        "join_fold must start from one base block"),
    "path3 (2/3, 1/3, 2/3)": (_forged(3, [[1, 3], [2, 3]], ["2/3", "1/3", "2/3"],
                                      [_P3_DUPLICATED]),
                              "split edges and child steps differ at vertex 3"),
    # C4 folded as if its four edges were the blocks of a block tree: the
    # last join closes the cycle and derives vertex 1 again
    "C4 proven from edge blocks": (_forged(4, [list(e) for e in cycle(4).edges],
                                           ["2/3", "1/3", "1/3", "1/3"], [{
        "kind": "join_fold", "base": [_edge_block([1, 2], [[1, 2]])],
        "joins": [{"kind": "join_step", "cut": c, "u_cut_before": "2/3",
                   "u_prime": "1/3", "u_cut_after": "1/3", "gain": "1/3",
                   "block": _edge_block([c, d], [[c, d]])}
                  for c, d in ((2, 3), (3, 4), (4, 1))]}]),
        "vertex 1 is derived twice"),
    "K3 as a bare block": (_forged(3, [[1, 2], [1, 3], [2, 3]], ["2/3", "0", "2/3"],
                                   [_K3_BLOCK]),
                           "a core must be a join_fold, not block_vertex"),
}


def test_forged_witnesses_lie_outside_their_regions():
    edge = sufficient_vertices("regular", single_edge())
    for w in ("1 3/4", "1 5/6"):
        assert not hull_membership(edge, tuple(F(x) for x in w.split()))[0]
    ok, violated, _ = halfspace_membership(necessary_halfspaces("triangle", 2),
                                           (F(2, 3), F(1), F(2, 3)))
    assert not ok and violated == [f"triangle-{i}" for i in range(2, 8)]
    ok, violated, _ = halfspace_membership(necessary_halfspaces("chain3", 2),
                                           (F(2, 3), F(1, 3), F(2, 3)))
    assert not ok and violated == ["chain3-2"]


@pytest.mark.parametrize("key", sorted(FORGERIES))
def test_replay_rejects_forged_derivation(key):
    forged, failure = FORGERIES[key]
    assert replay(forged) == certificates.ReplayResult(False, failure)


def test_replay_rejects_a_deep_forged_tree_without_raising():
    # a 3,000-vertex path of sup steps whose last vertex claims exponent 1
    depth = 3000
    node = _tree(depth, 0, 1)
    for v in range(depth - 1, 0, -1):
        node = _tree(v, 0, 0, [(v + 1, 0, node)])
    node["budget"] = node["split"]["u"] = "1"
    forged = _forged(depth, [[v, v + 1] for v in range(1, depth)],
                     ["1"] + ["0"] * (depth - 2) + ["1"], [node])
    res = replay(forged)
    assert not res.ok
    assert res.failure == f"budget equation violated at vertex {depth}"


def test_replay_rejects_unknown_status_and_deep_values():
    cert = certify_tree(path3()).to_json_dict()
    assert replay(dict(cert, status="conditional")).ok  # a weaker claim
    assert replay(dict(cert, status="maybe")).failure == "unknown status 'maybe'"
    deep: list = []
    for _ in range(100_000):
        deep = [deep]
    res = replay(dict(cert, status=deep))
    assert not res.ok and res.failure.startswith("malformed certificate")


def test_replay_rejects_nonzero_exponent_under_a_sup_step():
    # budget 0 reaches vertex 2, and every split w is at least 0, so the
    # budget equation leaves it no exponent
    forged = _forged(2, [[1, 2]], ["1", "1/2"], [
        _tree(1, 1, 1, [(2, 0, _tree(2, 0, "1/2"))])])
    res = replay(forged)
    assert not res.ok
    assert res.failure == "budget equation violated at vertex 2"


def test_tree_derivation_of_a_deep_path_builds_and_replays():
    from lpgraph.certificates import TreeAllocation, _tree_derivation

    n = 3000
    u = {v: F(0) for v in range(1, n + 1)}
    u[1] = u[2] = F(2, 3)
    w = {v: F(0) for v in range(2, n + 1)}
    w[2] = F(1, 3)
    alloc = TreeAllocation(root=1, budget=F(1), total=F(4, 3), u=u, w=w,
                           children={v: [v + 1] if v < n else [] for v in u},
                           optimum=F(4, 3))
    derivation = _tree_derivation(alloc, range(1, n + 1))
    node, depth = derivation, 1
    while node["children"]:
        (step,) = node["children"]
        node, depth = step["subtree"], depth + 1
    assert depth == n and node["root"] == n and node["budget"] == "0"
    cert = Certificate(graph=Graph(n, tuple((v, v + 1) for v in range(1, n))),
                       status="proven",
                       witness=ExponentVector(tuple(u.values())),
                       derivation=[derivation])
    assert replay(cert).ok


# One mutation of an honest certificate from a fixed menu; replay must say
# ok=False, and never raise.


def _tree_nodes(cert):
    """Every tree_recursion node of a certificate, walked with a stack."""
    step = cert["derivation"][0]
    stack = [step] if step["kind"] == "tree_recursion" else [
        pend["tree"] for pend in step.get("pendants", [])]
    out = []
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(child["subtree"] for child in node["children"])
    return out


def _core(cert):
    step = cert["derivation"][0]
    return step["core"][0] if step["kind"] == "contraction_step" else step


def _blocks(cert):
    core = _core(cert)
    if core["kind"] != "join_fold":
        return []
    return core["base"] + [js["block"] for js in core["joins"]]


def _duplicate_split_edge(cert, pick):
    edges = pick([n for n in _tree_nodes(cert) if n["children"]])["split"]["edges"]
    edges.append(dict(pick(edges)))


def _change_budget(cert, pick):
    node = pick(_tree_nodes(cert))
    node["budget"] = str(F(node["budget"]) + F(1, 7))


def _rename_subtree_root(cert, pick):
    step = pick([c for n in _tree_nodes(cert) for c in n["children"]])
    step["subtree"]["root"] = pick([v for v in cert["vertices"] if v != step["child"]])


def _swap_step_kind(cert, pick):
    step = pick([c for n in _tree_nodes(cert) for c in n["children"]])
    step["kind"] = {"sup_step": "improving_step", "improving_step": "sup_step"}[step["kind"]]


def _repeat_block_vertex(cert, pick):
    block = pick(_blocks(cert))
    block["block_vertices"].append(pick(block["block_vertices"]))


def _append_top_level_step(cert, pick):
    cert["derivation"].append(copy.deepcopy(pick(cert["derivation"])))


def _add_base_block(cert, pick):
    base = _core(cert)["base"]
    base.append(copy.deepcopy(pick(_blocks(cert))))


def _misstate_core_vertices(cert, pick):
    core = cert["derivation"][0]["core_vertices"]
    if pick([True, False]):
        core.remove(pick(core))
    else:  # a repeat, or a vertex outside the core
        core.append(pick(cert["vertices"]))


def _drop_assumptions(cert, pick):
    cert["assumptions"] = []


def _unwrap_fold(cert, pick):
    step = cert["derivation"][0]
    holder = step["core"] if step["kind"] == "contraction_step" else cert["derivation"]
    holder[0] = holder[0]["base"][0]


MUTATIONS = {
    _duplicate_split_edge: lambda c: any(n["children"] for n in _tree_nodes(c)),
    _change_budget: lambda c: bool(_tree_nodes(c)),
    _rename_subtree_root: lambda c: any(n["children"] for n in _tree_nodes(c)),
    _swap_step_kind: lambda c: any(n["children"] for n in _tree_nodes(c)),
    _repeat_block_vertex: lambda c: bool(_blocks(c)),
    _append_top_level_step: lambda c: True,
    _add_base_block: lambda c: bool(_blocks(c)),
    _misstate_core_vertices: lambda c: c["derivation"][0]["kind"] == "contraction_step",
    _drop_assumptions: lambda c: c["status"] == "conditional",
    _unwrap_fold: lambda c: _core(c)["kind"] == "join_fold" and not _core(c)["joins"],
}


@functools.cache
def _honest_certificates():
    cases = [parse_graph(p.read_text()) for p in sorted(GRAPHS.glob("*.graph"))]
    cases += LARGER_CASES.values()
    certs = [certify(g).to_json_dict() for g in cases]
    return [c for c in certs if c["status"] != "unknown"]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_replay_rejects_every_mutation_without_raising(data):
    cert = copy.deepcopy(data.draw(st.sampled_from(_honest_certificates())))
    assert replay(cert).ok
    mutate = data.draw(st.sampled_from([m for m, fits in MUTATIONS.items() if fits(cert)]))
    mutate(cert, lambda seq: data.draw(st.sampled_from(seq)))
    res = replay(cert)
    assert not res.ok, mutate.__name__


def test_certificate_json_roundtrip():
    cert = certify(triangle_with_pendant_tree())
    obj = cert.to_json_dict()
    back = Certificate.from_json_dict(obj)
    assert back.to_json_dict() == obj
    assert replay(back).ok


# ---------------------------------------------------------------------------
# golden digests: sha256 of each certificate's sorted JSON.  A speedup must
# keep every witness and derivation, so any change to them, or to the LP
# pivots that choose among optimal vertices, fails here.  Trees are keyed by
# their edges as networkx's nonisomorphic_trees labels them, 1-based.

GRAPHS = Path(__file__).resolve().parent.parent / "graphs"

GOLDEN_DIGESTS = {
    "c4.graph":
        "3a597ce3dddbebc66404b2b04bbe9bb73878393958d271545dc1845e992bc546",
    "c6.graph":
        "00628fa3c836e4c944bc5562e9573232e7db9df935b04a45f91e2edd8361cd22",
    "edge.graph":
        "cee947e8327e9475c00bea1bb4ae1c2805d37c82a9ba5359ada1718bddc3970a",
    "k3.graph":
        "b0cdfc7eadc5cfc9e7e8b917a25540862ec13bc3818c11ae5c9ced701e4098bc",
    "path3.graph":
        "57ca7a6c7399ef96b67a96999199da852ff136a10e12b4c9a626d7cc6366878f",
    "star3.graph":
        "e3833fe79c9f93abe7b66eb23f1db5cfd08c855a955fefa3274d553bb2b1b5f1",
    "triangle_pendant.graph":
        "580865e25e23d8ff6992414b2ebc7522ab4d27720880e21e6eac9c901d017a4a",
    "two_blocks_13.graph":
        "778048d763abf1a591dcd1e17d287c10f2d1d51bf100495e8899dfff7395ecf6",
    "two_triangles.graph":
        "33817c0eef026f1430bc7ec01ca77600a84fa189b737a6dfe8e259fd6a7e05ba",
    "1-2":
        "cee947e8327e9475c00bea1bb4ae1c2805d37c82a9ba5359ada1718bddc3970a",
    "1-2 1-3":
        "1de765d593777917085c93219ecc929b9867a913c925ce1512b8e5e0a51a9584",
    "1-2 1-4 2-3":
        "629027a6547273a2bd1e04aaf9e2042b9e7672c9633a1693bc1225c58bda7a27",
    "1-2 1-3 1-4":
        "e3833fe79c9f93abe7b66eb23f1db5cfd08c855a955fefa3274d553bb2b1b5f1",
    "1-2 1-4 2-3 4-5":
        "749eb322fc3fe351758253770ba6e26c3a959c5c8934da1abb6b7d5027fb452a",
    "1-2 1-4 1-5 2-3":
        "ef7d17a6a678e77e9a2005aefb9c0f3547569cf5be48a0ac6b6e3a84f4daea24",
    "1-2 1-3 1-4 1-5":
        "905ba3e1c880d46e0a3efc938cc3f69c0775ce2644e16ef012a76db66607ce5c",
    "1-2 1-5 2-3 3-4 5-6":
        "954328cb59998e669a0a50b0f826a2069b88b5be4787bd2499f688c9d6ea8f12",
    "1-2 1-5 2-3 2-4 5-6":
        "eeeabbce13cded62ff4fdd7c115aaa462a10125237c97529f88c03ebfe9650ce",
    "1-2 1-5 1-6 2-3 2-4":
        "10bd913241eed131003cb6ef92a659a8febc9968b88e1842ab190060d0b561b9",
    "1-2 1-4 1-6 2-3 4-5":
        "4e7b487e05dee72adff52b7f43edce4092f4cc50d74b7f4482340e0f0ac53dfd",
    "1-2 1-4 1-5 1-6 2-3":
        "3d96e29a5ca75e64f242d465e48c361f912466aa7cd3718ba5233a581af09287",
    "1-2 1-3 1-4 1-5 1-6":
        "2868d90fc64a30f5a4a2831753989721166213a93b7153b2ef2a0cc259801614",
    "1-2 1-5 2-3 3-4 5-6 6-7":
        "1855c46417844a8a397ff1e27d402c17f7cf1b871386f94f42eb4de0a29fceef",
    "1-2 1-5 2-3 3-4 5-6 5-7":
        "4e5e7d9b8437e64925c16900b9438904347f9f442797f54c7a1bd1af0971da90",
    "1-2 1-5 1-7 2-3 3-4 5-6":
        "c381ebc243abc44a499f39c58d7a973ad4e55590b41243213156678a88ff5463",
    "1-2 1-6 2-3 2-4 2-5 6-7":
        "e1e6e0131c57d62cce6b444d64284292e7c48e73e9655bd9942e1ca457569f6a",
    "1-2 1-5 2-3 2-4 5-6 5-7":
        "a208b861bcfe6890d72d447b180b8fc4fce9df83fd55a22eaf3051c5aa19f870",
    "1-2 1-5 1-7 2-3 2-4 5-6":
        "b6dd96427d2e91962b8c6b477eb13f181346df3ee73992e271cf355bf7252775",
    "1-2 1-5 1-6 1-7 2-3 2-4":
        "8917cbeff56126cbfc039e98651d65c564155b8c7882b9b4eb1bf054e0febb53",
    "1-2 1-4 1-6 2-3 4-5 6-7":
        "ef6597d2e47f5c3d6fd20b29858f106500c12928e95af93e1de3c48e168b7062",
    "1-2 1-4 1-6 1-7 2-3 4-5":
        "da3abbf004b5dff0fb9872eaeef8116c5af135ed3e3cbeaea336349654cc13ab",
    "1-2 1-4 1-5 1-6 1-7 2-3":
        "622da449d95ac453afdc0afd33683b4a90b2b097ad4e61800ded3854aa114bcf",
    "1-2 1-3 1-4 1-5 1-6 1-7":
        "b2ab3e7324c357c046255b336bc347fb00b818fca7bce3c38a1c23722987560c",
    "tree n=13":
        "c0f2b118a781b11e25c9713611dcaf391b96facdae2d8ca81cd81ceb5ca43e24",
    "tree n=16":
        "33a66ca14af1d58bd2f807f5f27ae3d3f635536c2ffeafc6b69408fedcd9b9ad",
    "cactus three triangles":
        "3a8c6bfeecb28d6eb75da182755ca38601b009395783b65f9674945e6e0ff74d",
    "cactus four-cycle and triangle":
        "4f56eebe8a9de749b698888514c2a4e78d750cc0f8dae46bd6b50ecab9060503",
    "k4":
        "b245223751777c6a3d9c6b8e774c354a831d6ff4dcc4fb4f200e1564db16c389",
    "two triangles joined by an edge":
        "994f0955979fe1d7f13d3c9fbbbd49c5a92a2841cababff4509687686ff8b9fb",
    "two triangles joined by a 2-edge path":
        "6cac6218397f14aad6d85a0db65fdef26f4e7db3d816ec4b9acea51922b93559",
}


# seeded random trees with 13 and 16 vertices, rooted at vertex 1 like every
# tree; cactus graphs with pendant trees; K4, which has no unit realization,
# so its certificate is unknown; and two triangles joined by bridges, whose
# 2-cores reach the edge_profile block region
LARGER_CASES = {
    "tree n=13": Graph(13, (
        (1, 5), (2, 5), (3, 4), (3, 8), (3, 11), (4, 10), (4, 13), (5, 11),
        (6, 11), (7, 13), (9, 11), (11, 12))),
    "tree n=16": Graph(16, (
        (1, 8), (1, 10), (1, 12), (2, 12), (3, 16), (4, 16), (5, 10), (6, 14),
        (7, 8), (8, 9), (8, 15), (9, 14), (10, 16), (11, 15), (13, 14))),
    "cactus three triangles": Graph(10, (
        (1, 2), (1, 3), (1, 10), (2, 3), (2, 9), (3, 4), (3, 5), (4, 5), (4, 6),
        (4, 7), (6, 7), (6, 8))),
    "cactus four-cycle and triangle": Graph(9, (
        (1, 2), (1, 4), (1, 5), (1, 6), (2, 3), (3, 4), (4, 8), (5, 6), (6, 7),
        (8, 9))),
    "k4": Graph(4, tuple(itertools.combinations(range(1, 5), 2))),
    "two triangles joined by an edge": Graph(6, (
        (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6), (5, 6))),
    "two triangles joined by a 2-edge path": Graph(7, (
        (1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7), (6, 7))),
}


def _golden_cases():
    for path in sorted(GRAPHS.glob("*.graph")):
        yield path.name, parse_graph(path.read_text())
    yield from LARGER_CASES.items()
    for n in range(2, 8):
        for T in nx.nonisomorphic_trees(n):
            edges = tuple(sorted(tuple(sorted((u + 1, v + 1)))
                                 for u, v in T.edges()))
            yield " ".join(f"{i}-{j}" for i, j in edges), Graph(n, edges)


def test_certificate_digests_are_pinned():
    seen = {}
    for key, g in _golden_cases():
        text = json.dumps(certify(g).to_json_dict(), sort_keys=True)
        seen[key] = hashlib.sha256(text.encode()).hexdigest()
    assert seen.keys() == GOLDEN_DIGESTS.keys()
    changed = sorted(k for k in seen if seen[k] != GOLDEN_DIGESTS[k])
    assert not changed, f"certificate digests changed for {changed}"
