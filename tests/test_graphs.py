import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from lpgraph.graphs import (
    DisconnectedGraphError,
    Graph,
    GraphFormatError,
    bfs_tree,
    block_decomposition,
    contract_pendant_trees,
    is_tree,
    parse_graph,
    path3,
    relabel,
    triangle,
)

from graph_figures import (cycle, single_edge, triangle_with_pendant_tree, two_block_figure,
                           two_triangles)


def _connected(g: Graph) -> bool:
    try:
        bfs_tree(g, 1)
    except DisconnectedGraphError:
        return False
    return True


def test_parse_triangle():
    g = parse_graph("n 3\ne 1 2\ne 1 3\ne 2 3\n")
    assert g == triangle()


def test_parse_single_edge():
    assert parse_graph("n 2\ne 1 2") == single_edge()


def test_parse_four_cycle():
    g = parse_graph("n 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n")
    assert g == cycle(4)


def test_parse_comments_and_whitespace():
    g = parse_graph("# a triangle\n\nn 3\n  e 1 2\ne 1 3\ne 2 3")
    assert g == triangle()


def test_parse_json_form():
    g = parse_graph('{"n": 3, "edges": [[1, 2], [1, 3], [2, 3]]}')
    assert g == triangle()


@pytest.mark.parametrize("text,fragment", [
    ("e 1 2\nn 2", "edge before header"),
    ("n 2\ne 1", "bad edge line"),
    ("n 2\ne 1 5", "out of range"),
    ("n 3\ne 1 2\ne 2 1\ne 1 3\ne 2 3", "duplicate edge"),
    ("n 2\ne 1 1", "self-loop"),
    ("n two", "bad header"),
    ("bogus", "unrecognized"),
    ("e 1 2", "edge before header"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(GraphFormatError, match=fragment):
        parse_graph(text)


def test_parse_rejects_disconnected():
    with pytest.raises(DisconnectedGraphError) as exc:
        parse_graph("n 4\ne 1 2\ne 3 4")
    assert exc.value.component in ((1, 2), (3, 4))


def test_is_tree():
    assert is_tree(path3())
    assert not is_tree(triangle())
    # the two figure trees: six and four vertices
    t6 = Graph(6, ((1, 2), (1, 3), (3, 4), (4, 5), (4, 6)))
    t4 = Graph(4, ((1, 2), (2, 3), (3, 4)))
    assert is_tree(t6) and is_tree(t4)


def test_contraction_of_pendant_figure():
    dec = contract_pendant_trees(triangle_with_pendant_tree())
    assert dec.core_vertices == (6, 7, 8)
    assert not dec.is_tree
    assert len(dec.pendant_trees) == 1
    t = dec.pendant_trees[0]
    assert t.root == 6
    assert t.vertices == (1, 2, 3, 4, 5)


def test_contraction_of_triangle_is_identity():
    dec = contract_pendant_trees(triangle())
    assert dec.core_vertices == (1, 2, 3)
    assert dec.pendant_trees == ()


def test_contraction_of_path_consumes_everything():
    dec = contract_pendant_trees(path3())
    assert dec.core_vertices == ()
    assert dec.is_tree


def test_blocks_of_figure_graph():
    bd = block_decomposition(two_block_figure())
    assert bd.cut_vertices == (4,)
    assert sorted(len(b.vertices) for b in bd.blocks) == [5, 9]
    assert len(bd.block_tree) == 1
    assert bd.block_tree[0][1] == 4


def test_blocks_of_triangle():
    bd = block_decomposition(triangle())
    assert len(bd.blocks) == 1
    assert bd.cut_vertices == ()


def test_blocks_of_path():
    bd = block_decomposition(path3())
    assert len(bd.blocks) == 2
    assert bd.cut_vertices == (3,)
    assert all(b.is_single_edge() for b in bd.blocks)


def test_two_triangles_blocks():
    bd = block_decomposition(two_triangles())
    assert len(bd.blocks) == 2
    assert bd.cut_vertices == (3,)
    assert all(b.is_triangle() for b in bd.blocks)


# ---------------------------------------------------------------------------
# structural invariants


def _connected_graphs_upto(n_max):
    """All connected labeled graphs with 2 <= n <= n_max."""
    import itertools

    for n in range(2, n_max + 1):
        all_edges = list(itertools.combinations(range(1, n + 1), 2))
        for bits in range(1 << len(all_edges)):
            edges = tuple(e for i, e in enumerate(all_edges) if bits >> i & 1)
            try:
                g = Graph(n, edges).require_connected()
            except DisconnectedGraphError:
                continue
            yield g


def _nx(g):
    """The networkx copy of g, for use as an oracle."""
    h = nx.Graph()
    h.add_nodes_from(range(1, g.n + 1))
    h.add_edges_from(g.edges)
    return h


def test_blocks_are_biconnected_or_single_edges_exhaustive_small():
    for g in _connected_graphs_upto(5):
        bd = block_decomposition(g)
        for b in bd.blocks:
            bg, _ = b.graph()
            if not b.is_single_edge():
                assert nx.is_biconnected(_nx(bg))
        # edge sets of blocks partition the edges
        all_edges = [e for b in bd.blocks for e in b.edges]
        assert sorted(all_edges) == list(g.edges)
        assert len(bd.block_tree) == len(bd.blocks) - 1


@st.composite
def connected_graphs(draw, n_min=2, n_max=7):
    n = draw(st.integers(n_min, n_max))
    import itertools

    pool = list(itertools.combinations(range(1, n + 1), 2))
    # a random permutation's prefix forms a spanning structure eventually;
    # keep adding edges until connected, then maybe a few more
    perm = draw(st.permutations(pool))
    extra = draw(st.integers(0, len(pool)))
    edges = []
    g = None
    for e in perm:
        edges.append(e)
        g = Graph(n, tuple(edges))
        if _connected(g):
            break
    for e in perm[len(edges):len(edges) + extra]:
        edges.append(e)
    return Graph(n, tuple(edges))


@st.composite
def cactus_graphs(draw):
    """Cycles and single edges glued at one vertex each, relabelled at
    random: blocks that are cycles, with pendant trees hanging off them."""
    n, edges = 1, []
    for size in draw(st.lists(st.integers(2, 5), min_size=1, max_size=8)):
        at = draw(st.integers(1, n))
        ring = [at] + list(range(n + 1, n + size))
        n += size - 1
        edges += [(ring[0], ring[1])] if size == 2 else list(zip(ring, ring[1:] + ring[:1]))
    perm = draw(st.permutations(range(1, n + 1)))
    return Graph(n, tuple((perm[i - 1], perm[j - 1]) for i, j in edges))


@st.composite
def any_graphs(draw, n_max=9):
    """Graphs on 1..n with any edge subset, so often disconnected."""
    import itertools

    n = draw(st.integers(1, n_max))
    pool = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pool), unique=True)) if pool else []
    return Graph(n, tuple(edges))


@given(st.one_of(connected_graphs(), any_graphs()), st.data())
@settings(max_examples=300, deadline=None)
def test_bfs_tree_matches_networkx(g, data):
    root = data.draw(st.integers(1, g.n))
    nxg = _nx(g)
    reached = nx.node_connected_component(nxg, root)
    if len(reached) < g.n:
        with pytest.raises(DisconnectedGraphError) as err:
            bfs_tree(g, root)
        first = min(set(nxg) - reached)
        assert err.value.component == tuple(sorted(nx.node_connected_component(nxg, first)))
        return
    order, parent = bfs_tree(g, root)
    edges = list(nx.bfs_edges(nxg, root, sort_neighbors=sorted))
    assert order == [root] + [c for _, c in edges]
    assert parent == {c: p for p, c in edges}


@given(st.one_of(connected_graphs(), cactus_graphs()))
@settings(max_examples=120, deadline=None)
def test_contraction_partitions_edges(g):
    dec = contract_pendant_trees(g)
    if dec.is_tree:
        # whole graph strips away; the tree route takes over
        assert dec.core_vertices == () and dec.pendant_trees == ()
        return
    forest_edges = [e for t in dec.pendant_trees for e in t.edges]
    assert sorted(list(dec.core_edges) + forest_edges) == list(g.edges)
    # pendant trees are vertex-disjoint, and each one, relabelled, is a tree
    # through its root
    seen = set()
    for t in dec.pendant_trees:
        assert not (set(t.vertices) & seen)
        seen |= set(t.vertices)
        tg, _ = relabel(t.all_vertices(), t.edges)
        assert _connected(tg) and is_tree(tg)
        assert t.root in dec.core_vertices and any(t.root in e for e in t.edges)
    # idempotence: the core has no degree-one vertex
    if dec.core_vertices:
        core, _ = dec.core_graph()
        assert all(len(ws) >= 2 for ws in core.adjacency().values())
        assert contract_pendant_trees(core).core_vertices == tuple(
            range(1, core.n + 1))


@given(connected_graphs())
@settings(max_examples=120, deadline=None)
def test_block_tree_is_acyclic_and_spanning(g):
    bd = block_decomposition(g)
    assert len(bd.block_tree) == len(bd.blocks) - 1
    t = nx.Graph()
    t.add_nodes_from(range(len(bd.blocks)))
    t.add_edges_from((a, b) for a, _, b in bd.block_tree)
    assert nx.is_tree(t) or len(bd.blocks) == 1
    for b in bd.blocks:
        bg, _ = b.graph()
        assert b.is_single_edge() or nx.is_biconnected(_nx(bg))


@given(st.one_of(connected_graphs(n_max=9), cactus_graphs()))
@settings(max_examples=300, deadline=None)
def test_blocks_and_cuts_match_networkx(g):
    bd = block_decomposition(g)
    ours = sorted(b.edges for b in bd.blocks)
    theirs = sorted(tuple(sorted(tuple(sorted(e)) for e in c))
                    for c in nx.biconnected_component_edges(_nx(g)))
    assert ours == theirs
    assert bd.cut_vertices == tuple(sorted(nx.articulation_points(_nx(g))))


def test_deep_inputs_decompose_without_recursion():
    path = Graph(5000, tuple((i, i + 1) for i in range(1, 5000)))
    bd = block_decomposition(path)
    assert (len(bd.blocks), len(bd.cut_vertices), len(bd.block_tree)) == (4999, 4998, 4998)
    # 1,000 triangles in a row, each sharing one corner with the next
    chain = Graph(2001, tuple(e for k in range(1, 2001, 2)
                              for e in ((k, k + 1), (k, k + 2), (k + 1, k + 2))))
    bd = block_decomposition(chain)
    assert (len(bd.blocks), len(bd.cut_vertices), len(bd.block_tree)) == (1000, 999, 999)
    assert all(b.is_triangle() for b in bd.blocks)
