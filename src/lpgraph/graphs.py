"""Finite simple connected graphs and their structural decompositions.

Vertices are 1-indexed.  Two decompositions drive the certificate engine:
iterated leaf removal (2-core plus pendant trees) and the biconnected
block/cut-vertex decomposition, which one iterative Hopcroft-Tarjan
depth-first search finds without recursion.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import count
from typing import Iterable, Sequence

Edge = tuple[int, int]


class GraphFormatError(ValueError):
    """Malformed graph input (bad line, bad index, duplicate edge)."""


class DisconnectedGraphError(ValueError):
    """Input graph is not connected; carries one offending component."""

    def __init__(self, component: Sequence[int]):
        self.component = tuple(sorted(component))
        super().__init__(
            f"graph is not connected; isolated component: {self.component}"
        )


@dataclass(frozen=True)
class Graph:
    """Simple connected undirected graph on vertices 1..n with a sorted edge
    tuple.

    Construction checks connectivity with one breadth-first search from
    vertex 1; an unreached vertex raises DisconnectedGraphError carrying the
    component of the smallest one.  Every Graph is therefore connected.
    Fewer than n - 1 edges cannot connect n vertices: that check reads the
    edges alone, so a huge vertex count allocates nothing per vertex.
    """

    n: int
    edges: tuple[Edge, ...]
    _adj: dict[int, list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise GraphFormatError(f"vertex count must be positive, got {self.n}")
        seen = set()
        norm = []
        for e in self.edges:
            i, j = e
            if i == j:
                raise GraphFormatError(f"self-loop at vertex {i}")
            if i > j:
                i, j = j, i
            if not (1 <= i < j <= self.n):
                raise GraphFormatError(f"edge {e} out of range for n={self.n}")
            if (i, j) in seen:
                raise GraphFormatError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
            norm.append((i, j))
        object.__setattr__(self, "edges", tuple(sorted(norm)))
        if self.n > len(self.edges) + 1:
            adj = defaultdict(list)  # a list only for the vertices reached
        else:
            adj = {v: [] for v in range(1, self.n + 1)}
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        order, _ = _bfs(adj, 1)
        if len(order) < self.n:
            reached = set(order)
            first = next(v for v in count(1) if v not in reached)
            raise DisconnectedGraphError(_bfs(adj, first)[0])
        object.__setattr__(self, "_adj", adj)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def adjacency(self) -> dict[int, list[int]]:
        """Neighbours of every vertex, ascending; built once, so read only."""
        return self._adj

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}


def _bfs(adj: dict[int, list[int]], root: int) -> tuple[list[int], dict[int, int]]:
    order, parent = [root], {}
    for v in order:
        for w in adj[v]:
            if w != root and w not in parent:
                parent[w] = v
                order.append(w)
    return order, parent


def bfs_tree(g: Graph, root: int) -> tuple[list[int], dict[int, int]]:
    """Breadth-first search from root, neighbours taken in ascending order.

    Returns the visiting order, which holds every vertex since a Graph is
    connected, and the parent of every vertex but the root.
    """
    return _bfs(g.adjacency(), root)


def relabel(vertices: Sequence[int], edges: Iterable[Edge]) -> tuple[Graph, dict[int, int]]:
    """The graph on `vertices` renamed 1..k in their order; returns (graph,
    original->relabeled)."""
    remap = {v: i + 1 for i, v in enumerate(vertices)}
    return Graph(len(vertices), tuple((remap[i], remap[j]) for i, j in edges)), remap


def parse_graph(text: str) -> Graph:
    """Parse the line-oriented graph format or its JSON equivalent.

    Line format: optional ``#`` comments, one ``n <count>`` header, then
    ``e <i> <j>`` lines.  JSON: ``{"n": 3, "edges": [[1, 2], ...]}``.
    A disconnected graph raises DisconnectedGraphError, as building any
    Graph does.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"invalid JSON graph: {exc}") from exc
        if "n" not in obj or "edges" not in obj:
            raise GraphFormatError('JSON graph needs keys "n" and "edges"')
        return Graph(int(obj["n"]), tuple(tuple(int(v) for v in e) for e in obj["edges"]))

    n = None
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "n":
            if n is not None:
                raise GraphFormatError(f"line {lineno}: repeated header")
            if len(parts) != 2 or not parts[1].isdigit():
                raise GraphFormatError(f"line {lineno}: bad header {line!r}")
            n = int(parts[1])
        elif parts[0] == "e":
            if n is None:
                raise GraphFormatError(f"line {lineno}: edge before header")
            if len(parts) != 3:
                raise GraphFormatError(f"line {lineno}: bad edge line {line!r}")
            try:
                i, j = int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise GraphFormatError(f"line {lineno}: bad edge line {line!r}") from exc
            edges.append((i, j))
        else:
            raise GraphFormatError(f"line {lineno}: unrecognized line {line!r}")
    if n is None:
        raise GraphFormatError("missing 'n <count>' header")
    return Graph(n, tuple(edges))


def is_tree(g: Graph) -> bool:
    """A Graph, being connected, is a tree iff it has n-1 edges."""
    return g.num_edges == g.n - 1


@dataclass(frozen=True)
class PendantTree:
    """One pendant tree: its root lies on the core, the rest was peeled off."""

    root: int
    vertices: tuple[int, ...]  # removed vertices only (root excluded)
    edges: tuple[Edge, ...]  # includes the edge(s) into the root

    def all_vertices(self) -> tuple[int, ...]:
        return tuple(sorted((self.root,) + self.vertices))


@dataclass(frozen=True)
class ContractionDecomposition:
    """2-core plus the forest of pendant trees hanging off it.  The core is
    empty exactly when the whole graph is a tree."""

    core_vertices: tuple[int, ...]
    core_edges: tuple[Edge, ...]
    pendant_trees: tuple[PendantTree, ...]

    def core_graph(self) -> tuple[Graph, dict[int, int]]:
        """Relabel the core to 1..k; returns (graph, original->relabeled)."""
        if not self.core_vertices:
            raise ValueError("core is empty (graph is a tree)")
        return relabel(self.core_vertices, self.core_edges)


def contract_pendant_trees(g: Graph) -> ContractionDecomposition:
    """Iteratively strip degree-1 vertices; group removals by core root.

    For a tree the stripping consumes everything: the core and the pendant
    trees are empty, and callers route it through the tree certificate.
    """
    adj = {v: set(ws) for v, ws in g.adjacency().items()}
    parent: dict[int, int] = {}
    removed: list[int] = []
    # a vertex is pushed once, when its degree first drops to at most one
    stack = [v for v, ws in adj.items() if len(ws) <= 1]
    while stack:
        v = stack.pop()
        removed.append(v)
        if adj[v]:  # empty for n == 1 and for the last vertex of a tree
            (w,) = adj[v]
            parent[v] = w
            adj[w].discard(v)
            if len(adj[w]) == 1:
                stack.append(w)

    gone = set(removed)
    core_vertices = tuple(v for v in range(1, g.n + 1) if v not in gone)
    core_edges = tuple(e for e in g.edges if e[0] not in gone and e[1] not in gone)

    pendants: tuple[PendantTree, ...] = ()
    if core_vertices:
        # a parent leaves after its children, so in reverse removal order
        # it already knows its core root
        root_of: dict[int, int] = {}
        groups: dict[int, list[int]] = {}
        for v in reversed(removed):
            p = parent[v]
            root_of[v] = root_of.get(p, p)
            groups.setdefault(root_of[v], []).append(v)
        pendants = tuple(
            PendantTree(
                root=r,
                vertices=tuple(sorted(groups[r])),
                edges=tuple(sorted((min(v, parent[v]), max(v, parent[v])) for v in groups[r])),
            )
            for r in sorted(groups)
        )

    return ContractionDecomposition(
        core_vertices=core_vertices,
        core_edges=core_edges,
        pendant_trees=pendants,
    )


@dataclass(frozen=True)
class BlockEntry:
    """One biconnected block, both as original vertex/edge sets and relabeled."""

    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]

    def graph(self) -> tuple[Graph, dict[int, int]]:
        return relabel(self.vertices, self.edges)


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks, cut vertices, and a spanning block tree rooted at block 0.

    ``block_tree`` entries are (parent_index, cut_vertex, child_index); there
    are exactly len(blocks) - 1 of them and the structure is acyclic by
    construction (BFS over the bipartite block/cut-vertex tree).
    """

    blocks: tuple[BlockEntry, ...]
    cut_vertices: tuple[int, ...]
    block_tree: tuple[tuple[int, int, int], ...]


def _block_edge_sets(g: Graph) -> list[list[Edge]]:
    """Edge lists of the biconnected blocks, by one depth-first search from
    vertex 1 that keeps its own stack of (vertex, parent, neighbour iterator)
    frames and pushes tree and back edges on an edge stack (Hopcroft-Tarjan).
    """
    adj = g.adjacency()
    disc = {1: 0}
    low = {1: 0}
    frames = [(1, 0, iter(adj[1]))]
    edges: list[Edge] = []
    blocks: list[list[Edge]] = []
    while frames:
        v, p, it = frames[-1]
        for w in it:
            if w not in disc:
                disc[w] = low[w] = len(disc)
                edges.append((v, w))
                frames.append((w, v, iter(adj[w])))
                break
            if w != p and disc[w] < disc[v]:
                edges.append((v, w))
                low[v] = min(low[v], disc[w])
        else:
            frames.pop()
            if frames:
                u = frames[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    # u separates v's subtree: its edges close one block
                    block = [edges.pop()]
                    while block[-1] != (u, v):
                        block.append(edges.pop())
                    blocks.append(block)
    return blocks


def block_decomposition(g: Graph) -> BlockDecomposition:
    blocks = []
    for edge_list in _block_edge_sets(g):
        edges = tuple(sorted((min(e), max(e)) for e in edge_list))
        verts = tuple(sorted({v for e in edges for v in e}))
        blocks.append(BlockEntry(vertices=verts, edges=edges))
    if not blocks:
        # single vertex, no edges
        blocks = [BlockEntry(vertices=(1,), edges=())]
    blocks.sort(key=lambda b: (b.vertices[0], len(b.vertices), b.vertices))
    blocks_at: dict[int, list[int]] = {}
    for bi, b in enumerate(blocks):
        for v in b.vertices:
            blocks_at.setdefault(v, []).append(bi)
    cut_blocks = {v: bs for v, bs in sorted(blocks_at.items()) if len(bs) > 1}

    # BFS over blocks through shared cut vertices; each block gets one parent
    shared: dict[tuple[int, int], int] = {}
    block_adj: dict[int, list[int]] = {bi: [] for bi in range(len(blocks))}
    for bi, b in enumerate(blocks):
        for v in b.vertices:
            for bj in cut_blocks.get(v, ()):
                if bj != bi:
                    shared[bi, bj] = v
                    block_adj[bi].append(bj)
    order, parent = _bfs(block_adj, 0)
    assert len(order) == len(blocks)

    return BlockDecomposition(
        blocks=tuple(blocks),
        cut_vertices=tuple(cut_blocks),
        block_tree=tuple((parent[bj], shared[parent[bj], bj], bj) for bj in order[1:]),
    )


# small named graphs that the estimate presets run on

def triangle() -> Graph:
    return Graph(3, ((1, 2), (1, 3), (2, 3)))


def path3() -> Graph:
    """Chain on three vertices; the two leaves come first, the center is 3."""
    return Graph(3, ((1, 3), (2, 3)))
