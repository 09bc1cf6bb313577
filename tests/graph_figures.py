"""Small named graphs that only the tests use."""

from lpgraph.graphs import Graph


def single_edge() -> Graph:
    return Graph(2, ((1, 2),))


def cycle(n: int) -> Graph:
    edges = tuple(sorted((i, i % n + 1) if i < i % n + 1 else (i % n + 1, i))
                  for i in range(1, n + 1))
    return Graph(n, edges)


def star(leaves: int) -> Graph:
    """Star with center 1."""
    return Graph(leaves + 1, tuple((1, k) for k in range(2, leaves + 2)))


def triangle_with_pendant_tree() -> Graph:
    """8 vertices: a 5-vertex tree rooted on one corner of a triangle."""
    return Graph(8, ((1, 2), (1, 3), (3, 4), (4, 5), (4, 6), (6, 7), (7, 8), (6, 8)))


def two_triangles() -> Graph:
    """Two triangles sharing the single vertex 3."""
    return Graph(5, ((1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)))


def two_block_figure() -> Graph:
    """13 vertices, two 2-connected pieces sharing the single cut vertex 4."""
    edges = (
        (1, 2), (1, 3), (2, 3), (2, 5), (3, 4), (3, 5), (4, 5),
        (4, 6), (6, 7), (6, 8), (7, 8), (7, 9), (8, 9),
        (10, 11), (10, 12), (11, 12), (10, 13), (11, 13),
        (9, 13), (8, 10), (6, 10), (4, 10),
    )
    return Graph(13, edges)
