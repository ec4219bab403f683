"""Graph families, distances, Laplacians, and the block-level recognizer for
completely positive graphs.

All vertex labels are 1-based.  Family constructors follow a fixed canonical
indexing: the triangle fan ``tn`` puts its two base vertices first, and the
book family ``tn_book`` numbers each block's base pair then its local
non-base vertices, with the shared hub last (label b*(n-1)+1).

The recognizer names each block by the spec of its family:
``CompleteBipartite(m, n)``, ``K4()`` or ``TnSingle(n)``, or
``Bipartite(m, n)`` for a bipartite block with no closed form.  Distances,
connectivity and the recognizer's parity test all read one level-list BFS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .linalg import RationalMatrix


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class TnSingle:
    """Fan of n-2 triangles over a shared base edge; vertices 1,2 are the base."""

    n: int


@dataclass(frozen=True)
class TnBook:
    """b copies of the n-vertex triangle fan glued at one shared non-base hub."""

    n: int
    b: int


@dataclass(frozen=True)
class CompleteBipartite:
    """K_{m,n} with parts {1..m} and {m+1..m+n}."""

    m: int
    n: int


@dataclass(frozen=True)
class Tree:
    """Arbitrary tree given by its edge list on vertices 1..max(label)."""

    edges: tuple


@dataclass(frozen=True)
class K4:
    pass


FamilySpec = Union[TnSingle, TnBook, CompleteBipartite, Tree, K4]


@dataclass(frozen=True)
class Bipartite:
    """A connected bipartite block with parts of m and n vertices that is not
    K_{m,n}, so no closed form covers it."""

    m: int
    n: int


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; edges are normalized (u, v) pairs with u < v."""

    vertex_count: int
    edges: frozenset

    @classmethod
    def from_edges(cls, vertex_count: int, edges) -> "Graph":
        normalized = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):
                raise GraphError(f"edge ({u}, {v}) outside 1..{vertex_count}")
            normalized.add((min(u, v), max(u, v)))
        return cls(vertex_count, frozenset(normalized))

    def adjacency(self) -> list:
        """Sorted neighbour lists indexed by vertex; slot 0 is empty."""
        adj: list = [[] for _ in range(self.vertex_count + 1)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for neighbors in adj:
            neighbors.sort()
        return adj

    def degrees(self) -> list:
        return [len(neighbors) for neighbors in self.adjacency()[1:]]

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class BlockDecomposition:
    """Biconnected components (as sorted vertex tuples, in DFS completion
    order) and the cut vertices of a connected graph."""

    blocks: tuple
    cut_vertices: frozenset


@dataclass(frozen=True)
class VertexPartition:
    """Base / non-base / hub split of the book family's vertex set."""

    base: tuple
    nonbase: tuple
    cut: int


def build_family(spec: FamilySpec) -> Graph:
    """Construct a family graph with its canonical vertex labels."""
    if isinstance(spec, TnSingle):
        if spec.n < 3:
            raise GraphError("triangle fan requires n >= 3")
        return Graph.from_edges(spec.n, _tn_edges(spec.n, offset=0, hub=None))
    if isinstance(spec, TnBook):
        if spec.n < 3:
            raise GraphError("book family requires n >= 3")
        if spec.b < 2:
            raise GraphError("book family requires b >= 2")
        n, b = spec.n, spec.b
        hub = b * (n - 1) + 1
        edges: list = []
        for k in range(b):
            edges.extend(_tn_edges(n, offset=k * (n - 1), hub=hub))
        return Graph.from_edges(hub, edges)
    if isinstance(spec, CompleteBipartite):
        if spec.m < 1 or spec.n < 1:
            raise GraphError("complete bipartite parts must be nonempty")
        edges = [(i, spec.m + j) for i in range(1, spec.m + 1) for j in range(1, spec.n + 1)]
        return Graph.from_edges(spec.m + spec.n, edges)
    if isinstance(spec, Tree):
        return _build_tree(spec)
    if isinstance(spec, K4):
        return Graph.from_edges(4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
    raise GraphError(f"unknown family spec {spec!r}")


def _tn_edges(n: int, offset: int, hub: Optional[int]) -> list:
    """Edges of one triangle fan block; the hub, when given, joins the
    non-base side in place of vertex n."""
    base1, base2 = offset + 1, offset + 2
    nonbase = [offset + i for i in range(3, n if hub is not None else n + 1)]
    if hub is not None:
        nonbase.append(hub)
    edges = [(base1, base2)]
    for w in nonbase:
        edges.append((base1, w))
        edges.append((base2, w))
    return edges


def _build_tree(spec: Tree) -> Graph:
    if not spec.edges:
        raise GraphError("tree edge list is empty")
    n = max(max(u, v) for u, v in spec.edges)
    g = Graph.from_edges(n, spec.edges)
    if not is_connected(g):
        raise GraphError("tree edge list is disconnected")
    if g.edge_count != n - 1:
        raise GraphError("tree edge list contains a cycle")
    return g


def is_connected(g: Graph) -> bool:
    return g.vertex_count > 0 and min(_bfs(g.adjacency(), 1)[1:]) >= 0


def is_tree(g: Graph) -> bool:
    return g.edge_count == g.vertex_count - 1 and is_connected(g)


def all_pairs_distances(g: Graph) -> RationalMatrix:
    """Shortest-path distance matrix by BFS from every vertex."""
    n = g.vertex_count
    neighbors = g.adjacency()
    rows = []
    for source in range(1, n + 1):
        row = _bfs(neighbors, source)[1:]
        if min(row) < 0:
            raise GraphError("graph not connected")
        rows.append(row)
    return RationalMatrix._of(n, n, rows)


def laplacian(g: Graph) -> RationalMatrix:
    """Degree diagonal minus adjacency."""
    n = g.vertex_count
    rows = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        rows[u - 1][v - 1] = rows[v - 1][u - 1] = -1
        rows[u - 1][u - 1] += 1
        rows[v - 1][v - 1] += 1
    return RationalMatrix._of(n, n, rows)


def biconnected_blocks(g: Graph) -> BlockDecomposition:
    """DFS lowpoint decomposition into biconnected components.

    Iterative so deep books do not hit the recursion limit.  Neighbors are
    visited in ascending order and blocks are emitted in completion order,
    which makes the output deterministic.
    """
    adj = g.adjacency()
    visited: set = set()
    discovery: dict = {}
    low: dict = {}
    blocks: list = []
    cuts: set = set()

    for start in range(1, g.vertex_count + 1):
        if start in visited:
            continue
        discovery[start] = low[start] = len(discovery)
        visited.add(start)
        root_children = 0
        edge_stack: list = []
        stack = [(start, start, iter(adj[start]))]
        while stack:
            parent, current, children = stack[-1]
            advanced = False
            for child in children:
                if child == parent:
                    continue
                if child in visited:
                    if discovery[child] < discovery[current]:
                        low[current] = min(low[current], discovery[child])
                        edge_stack.append((current, child))
                    continue
                discovery[child] = low[child] = len(discovery)
                visited.add(child)
                edge_stack.append((current, child))
                stack.append((current, child, iter(adj[child])))
                advanced = True
                break
            if advanced:
                continue
            stack.pop()
            if len(stack) > 1:
                low[parent] = min(low[parent], low[current])
                if low[current] >= discovery[parent]:
                    cuts.add(parent)
                    blocks.append(_pop_block(edge_stack, (parent, current)))
            elif stack:
                root_children += 1
                blocks.append(_pop_block(edge_stack, (parent, current)))
        if root_children > 1:
            cuts.add(start)
    return BlockDecomposition(tuple(blocks), frozenset(cuts))


def _pop_block(edge_stack: list, marker: tuple) -> tuple:
    idx = len(edge_stack) - 1
    while edge_stack[idx] != marker:
        idx -= 1
    members: set = set()
    for u, v in edge_stack[idx:]:
        members.add(u)
        members.add(v)
    del edge_stack[idx:]
    return tuple(sorted(members))


def classify_block(g: Graph, block) -> Optional[Union[CompleteBipartite, Bipartite, K4, TnSingle]]:
    """The family spec of one connected block, or None when it has none.

    The members are numbered 1..k in ascending order and searched by BFS
    from member 1.  The block is bipartite iff every induced edge joins
    levels of different parity; its parts are then the m members at even
    levels and the k - m at odd ones, and it is ``CompleteBipartite(m, k - m)``
    when it has m(k - m) edges, else ``Bipartite(m, k - m)``.  A single edge
    is ``CompleteBipartite(1, 1)``.  Otherwise it is ``K4()`` when it has
    4 members and 6 edges, and ``TnSingle(k)`` when its sorted degrees are
    [2] * (k - 2) + [k - 1] * 2: two members of degree k - 1 meet every
    other member and so each other, and a member of degree 2 then meets
    those two only, which is exactly the fan T_k.
    """
    members = sorted(set(block))
    if not members:
        raise GraphError("empty block")
    if members[0] < 1 or members[-1] > g.vertex_count:
        raise GraphError("block is not a subset of the vertex set")
    k = len(members)
    index = {v: i for i, v in enumerate(members, 1)}
    induced = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
    neighbors: list = [[] for _ in range(k + 1)]
    for u, v in induced:
        neighbors[u].append(v)
        neighbors[v].append(u)
    level = _bfs(neighbors, 1)
    if min(level[1:]) < 0:
        raise GraphError("block is not connected")
    if all((level[u] ^ level[v]) & 1 for u, v in induced):
        m = sum(1 for d in level[1:] if d % 2 == 0)
        return (CompleteBipartite if len(induced) == m * (k - m) else Bipartite)(m, k - m)
    if k == 4 and len(induced) == 6:
        return K4()
    if sorted(map(len, neighbors[1:])) == [2] * (k - 2) + [k - 1] * 2:
        return TnSingle(k)
    return None


def is_cp_graph(g: Graph):
    """Recognize a completely positive graph block by block.

    Returns (verdict, certificate) where the certificate pairs every block
    with its ``classify_block`` spec (``CompleteBipartite``, ``Bipartite``,
    ``K4`` or ``TnSingle``); the verdict is true iff every spec is not None.
    """
    if not is_connected(g):
        raise GraphError("graph not connected")
    certificate = [(block, classify_block(g, block)) for block in biconnected_blocks(g).blocks]
    return all(spec is not None for _, spec in certificate), certificate


def tnb_partition(n: int, b: int) -> VertexPartition:
    """Base set, non-base set and hub of the book family's vertices."""
    if n < 3 or b < 2:
        raise GraphError("partition defined for n >= 3, b >= 2")
    base = tuple(
        (k - 1) * (n - 1) + i for k in range(1, b + 1) for i in (1, 2)
    )
    nonbase = tuple(
        (k - 1) * (n - 1) + i for k in range(1, b + 1) for i in range(3, n)
    )
    return VertexPartition(base, nonbase, b * (n - 1) + 1)


def _bfs(neighbors: list, source: int) -> list:
    """Distances from ``source`` by BFS, indexed by vertex like ``neighbors``,
    with -1 where no path reaches.  The vertices first reached at distance l
    are listed as the frontier from which level l + 1 is found."""
    dist = [-1] * len(neighbors)
    dist[source] = 0
    frontier, level = [source], 0
    while frontier:
        level += 1
        reached = []
        for u in frontier:
            for v in neighbors[u]:
                if dist[v] < 0:
                    dist[v] = level
                    reached.append(v)
        frontier = reached
    return dist
