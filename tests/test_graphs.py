"""Graph families, metrics, block decomposition and the cp recognizer."""

from collections import deque
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdist.graphs import (
    Bipartite,
    CompleteBipartite,
    Graph,
    GraphError,
    K4,
    Tree,
    TnBook,
    TnSingle,
    all_pairs_distances,
    biconnected_blocks,
    build_family,
    classify_block,
    is_connected,
    is_cp_graph,
    is_tree,
    laplacian,
    tnb_partition,
)
from cpdist.linalg import RationalMatrix, imat, jmat
from cpdist.rng import Lcg, random_tree_edges
from cpdist.suites import complete_graph, cycle_graph, petersen_graph


class TestBuildFamily:
    def test_fan_t4(self):
        g = build_family(TnSingle(4))
        assert g.vertex_count == 4
        assert g.edges == frozenset({(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)})

    def test_fan_edge_count(self):
        for n in range(3, 9):
            assert build_family(TnSingle(n)).edge_count == 2 * n - 3

    def test_fan_t3_is_triangle(self):
        g = build_family(TnSingle(3))
        assert g.edges == frozenset({(1, 2), (1, 3), (2, 3)})

    def test_book_butterfly(self):
        g = build_family(TnBook(3, 2))
        assert g.vertex_count == 5
        assert g.edge_count == 6
        assert biconnected_blocks(g).cut_vertices == frozenset({5})

    def test_book_edge_count(self):
        for n in range(3, 8):
            for b in range(2, 5):
                g = build_family(TnBook(n, b))
                assert g.vertex_count == b * (n - 1) + 1
                assert g.edge_count == b * (2 * n - 3)

    def test_single_edge_bipartite(self):
        g = build_family(CompleteBipartite(1, 1))
        assert all_pairs_distances(g) == RationalMatrix.from_rows([[0, 1], [1, 0]])

    def test_rejects_small_parameters(self):
        with pytest.raises(GraphError):
            build_family(TnSingle(2))
        with pytest.raises(GraphError):
            build_family(TnBook(2, 2))
        with pytest.raises(GraphError):
            build_family(TnBook(3, 1))
        with pytest.raises(GraphError):
            build_family(CompleteBipartite(0, 3))

    def test_rejects_bad_trees(self):
        with pytest.raises(GraphError, match="disconnected"):
            build_family(Tree(((1, 2), (3, 4))))
        with pytest.raises(GraphError, match="cycle"):
            build_family(Tree(((1, 2), (2, 3), (1, 3))))
        with pytest.raises(GraphError, match="empty"):
            build_family(Tree(()))

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph.from_edges(2, [(1, 1)])


class TestDistances:
    def test_triangle(self):
        d = all_pairs_distances(build_family(TnSingle(3)))
        assert d == jmat(3, 3) - imat(3)

    def test_fan_lower_right_block(self):
        # non-base vertices of the fan are pairwise at distance 2
        d = all_pairs_distances(build_family(TnSingle(5)))
        lower = d.submatrix([2, 3, 4])
        assert lower == 2 * (jmat(3, 3) - imat(3))
        assert d.submatrix([0, 1]) == RationalMatrix.from_rows([[0, 1], [1, 0]])

    def test_butterfly_matrix(self):
        # hand BFS on the two-triangle book with hub 5
        d = all_pairs_distances(build_family(TnBook(3, 2)))
        assert d == RationalMatrix.from_rows([
            [0, 1, 2, 2, 1],
            [1, 0, 2, 2, 1],
            [2, 2, 0, 1, 1],
            [2, 2, 1, 0, 1],
            [1, 1, 1, 1, 0],
        ])

    def test_disconnected_rejected(self):
        g = Graph.from_edges(4, [(1, 2), (3, 4)])
        with pytest.raises(GraphError, match="not connected"):
            all_pairs_distances(g)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(3, 14))
    def test_tree_metric_properties(self, seed, n):
        g = build_family(Tree(random_tree_edges(n, Lcg(seed))))
        d = all_pairs_distances(g)
        assert d.is_symmetric()
        assert all(d.data[i][i] == 0 for i in range(n))
        assert all(
            d.data[i][j] <= d.data[i][k] + d.data[k][j]
            for i in range(n) for j in range(n) for k in range(n)
        )


class TestLaplacian:
    def test_triangle(self):
        lap = laplacian(build_family(TnSingle(3)))
        assert lap == 2 * imat(3) - (jmat(3, 3) - imat(3))

    def test_fan_base_degrees(self):
        lap = laplacian(build_family(TnSingle(6)))
        assert lap.data[0][0] == 5
        assert lap.data[0][1] == -1
        assert lap.data[2][2] == 2

    def test_book_hub_degree(self):
        for n, b in ((3, 2), (5, 3), (7, 4)):
            lap = laplacian(build_family(TnBook(n, b)))
            hub = b * (n - 1)
            assert lap.data[hub][hub] == 2 * b

    def test_row_sums_vanish(self):
        lap = laplacian(build_family(TnBook(5, 2)))
        assert all(sum(row) == 0 for row in lap.data)


class TestBlockDecomposition:
    def test_book_blocks(self):
        decomposition = biconnected_blocks(build_family(TnBook(5, 2)))
        assert len(decomposition.blocks) == 2
        assert sorted(decomposition.blocks) == [(1, 2, 3, 4, 9), (5, 6, 7, 8, 9)]
        assert decomposition.cut_vertices == frozenset({9})

    def test_path_blocks(self):
        decomposition = biconnected_blocks(build_family(Tree(((1, 2), (2, 3), (3, 4)))))
        assert sorted(decomposition.blocks) == [(1, 2), (2, 3), (3, 4)]
        assert decomposition.cut_vertices == frozenset({2, 3})

    def test_k4_single_block(self):
        decomposition = biconnected_blocks(build_family(K4()))
        assert decomposition.blocks == ((1, 2, 3, 4),)
        assert decomposition.cut_vertices == frozenset()

    def test_every_edge_in_exactly_one_block(self):
        g = build_family(TnBook(6, 3))
        decomposition = biconnected_blocks(g)
        for u, v in g.edges:
            containing = [
                block for block in decomposition.blocks
                if u in block and v in block
            ]
            assert len(containing) == 1

    def test_cut_vertices_lie_in_two_blocks(self):
        g = build_family(TnBook(4, 3))
        decomposition = biconnected_blocks(g)
        for v in range(1, g.vertex_count + 1):
            membership = sum(1 for block in decomposition.blocks if v in block)
            assert (membership >= 2) == (v in decomposition.cut_vertices)


def _connected_after_removal(g, gone):
    verts = [v for v in range(1, g.vertex_count + 1) if v != gone]
    adj = {v: [] for v in verts}
    for u, v in g.edges:
        if u != gone and v != gone:
            adj[u].append(v)
            adj[v].append(u)
    seen = {verts[0]}
    queue = [verts[0]]
    while queue:
        u = queue.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(verts)


def _random_connected_graph(rng):
    """The first connected graph drawn from ``rng``: 3-8 vertices, each pair
    joined with probability 0.45."""
    while True:
        n = rng.randint(3, 8)
        edges = {
            (u, v)
            for u, v in combinations(range(1, n + 1), 2)
            if rng.randint(0, 99) < 45
        }
        g = Graph.from_edges(n, edges)
        if is_connected(g):
            return g


def test_decomposition_matches_brute_force_on_random_graphs():
    # oracle: a cut vertex is exactly one whose removal disconnects the graph
    rng = Lcg(99)
    for _ in range(60):
        g = _random_connected_graph(rng)
        n = g.vertex_count
        decomposition = biconnected_blocks(g)
        brute_cuts = {
            v for v in range(1, n + 1) if not _connected_after_removal(g, v)
        }
        assert decomposition.cut_vertices == brute_cuts
        for u, v in g.edges:
            owners = [b for b in decomposition.blocks if u in b and v in b]
            assert len(owners) == 1
        for v in range(1, n + 1):
            membership = sum(1 for b in decomposition.blocks if v in b)
            assert (membership >= 2) == (v in brute_cuts)


def _is_bipartite(members: set, induced: list) -> bool:
    adj: dict = {v: [] for v in members}
    for u, v in induced:
        adj[u].append(v)
        adj[v].append(u)
    color: dict = {}
    for root in sorted(members):
        if root in color:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in color:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def _is_triangle_fan(members: set, induced: list) -> bool:
    """True iff some adjacent pair is joined to everything and all remaining
    vertices have degree exactly 2 (hence meet only that pair)."""
    size = len(members)
    if size < 3:
        return False
    degree = {v: 0 for v in members}
    edge_set = set(induced)
    for u, v in induced:
        degree[u] += 1
        degree[v] += 1
    full = [v for v in sorted(members) if degree[v] == size - 1]
    for i, u in enumerate(full):
        for v in full[i + 1:]:
            if (min(u, v), max(u, v)) not in edge_set:
                continue
            if all(degree[w] == 2 for w in members if w != u and w != v):
                return True
    return False


def _reference_kind(members: set, induced: list) -> str:
    """The recognizer's verdict before blocks were named by spec: the
    bipartite colouring and the pairwise fan search, in that order."""
    if _is_bipartite(members, induced):
        return "bipartite"
    if len(members) == 4 and len(induced) == 6:
        return "k4"
    if _is_triangle_fan(members, induced):
        return "tn"
    return "other"


_KIND = {CompleteBipartite: "bipartite", Bipartite: "bipartite", K4: "k4", TnSingle: "tn",
         type(None): "other"}


class TestClassifyBlock:
    def test_four_cycle_bipartite(self):
        g = cycle_graph(4)
        assert classify_block(g, (1, 2, 3, 4)) == CompleteBipartite(2, 2)

    def test_single_edge_bipartite(self):
        g = build_family(Tree(((1, 2),)))
        assert classify_block(g, (1, 2)) == CompleteBipartite(1, 1)

    def test_triangle_is_fan(self):
        g = build_family(TnSingle(3))
        assert classify_block(g, (1, 2, 3)) == TnSingle(3)

    def test_k4(self):
        g = build_family(K4())
        assert classify_block(g, (1, 2, 3, 4)) == K4()

    def test_k5_other(self):
        g = complete_graph(5)
        assert classify_block(g, (1, 2, 3, 4, 5)) is None

    def test_fan_block(self):
        g = build_family(TnSingle(6))
        assert classify_block(g, tuple(range(1, 7))) == TnSingle(6)

    def test_rejects_foreign_vertices(self):
        g = build_family(TnSingle(3))
        with pytest.raises(GraphError, match="subset"):
            classify_block(g, (1, 2, 9))

    @pytest.mark.parametrize("spec", [
        *[CompleteBipartite(m, n) for m in range(1, 6) for n in range(1, 6)],
        *[TnSingle(n) for n in range(3, 11)],
        K4(),
    ])
    def test_family_classifies_back_to_its_spec(self, spec):
        g = build_family(spec)
        assert classify_block(g, range(1, g.vertex_count + 1)) == spec

    def test_even_cycles_are_bipartite_without_closed_form(self):
        assert classify_block(cycle_graph(6), range(1, 7)) == Bipartite(3, 3)
        assert classify_block(cycle_graph(8), range(1, 9)) == Bipartite(4, 4)

    def test_odd_cycle_and_wheel_have_no_spec(self):
        assert classify_block(cycle_graph(5), range(1, 6)) is None
        # the wheel: hub 6 joined to every vertex of the 5-cycle
        wheel = Graph.from_edges(6, [*cycle_graph(5).edges, *((v, 6) for v in range(1, 6))])
        assert classify_block(wheel, range(1, 7)) is None

    def test_fan_plus_a_nonbase_edge_has_no_spec(self):
        g = Graph.from_edges(5, [*build_family(TnSingle(5)).edges, (3, 4)])
        assert classify_block(g, range(1, 6)) is None

    def test_rejects_disconnected_vertex_set(self):
        g = Graph.from_edges(4, [(1, 2), (3, 4)])
        with pytest.raises(GraphError, match="not connected"):
            classify_block(g, (1, 2, 3, 4))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_blocks_of_random_graphs_match_the_reference(self, seed):
        g = _random_connected_graph(Lcg(seed))
        for block in biconnected_blocks(g).blocks:
            members = set(block)
            induced = [(u, v) for u, v in g.edges if u in members and v in members]
            spec = classify_block(g, block)
            assert _KIND[type(spec)] == _reference_kind(members, induced)
            if isinstance(spec, (CompleteBipartite, Bipartite)):
                assert spec.m + spec.n == len(block)
                assert isinstance(spec, CompleteBipartite) == (len(induced) == spec.m * spec.n)


def test_is_connected_on_the_smallest_graphs():
    assert not is_connected(Graph.from_edges(0, []))
    assert is_connected(Graph.from_edges(1, []))
    assert not is_connected(Graph.from_edges(2, []))


class TestCpRecognizer:
    def test_books_are_cp(self):
        for n in range(3, 9):
            for b in range(2, 5):
                verdict, certificate = is_cp_graph(build_family(TnBook(n, b)))
                assert verdict
                assert all(spec == TnSingle(n) for _, spec in certificate)

    def test_trees_are_cp(self):
        rng = Lcg(17)
        for _ in range(10):
            g = build_family(Tree(random_tree_edges(rng.randint(2, 10), rng)))
            verdict, certificate = is_cp_graph(g)
            assert verdict
            assert all(spec == CompleteBipartite(1, 1) for _, spec in certificate)

    def test_k4_and_c4_are_cp(self):
        assert is_cp_graph(build_family(K4()))[0]
        assert is_cp_graph(cycle_graph(4))[0]

    def test_k5_not_cp(self):
        verdict, certificate = is_cp_graph(complete_graph(5))
        assert not verdict
        assert certificate[0][1] is None

    def test_petersen_not_cp(self):
        verdict, certificate = is_cp_graph(petersen_graph())
        assert not verdict
        assert len(certificate) == 1  # single 3-connected block


class TestPartition:
    def test_two_block_fan_partition(self):
        partition = tnb_partition(5, 2)
        assert partition.base == (1, 2, 5, 6)
        assert partition.nonbase == (3, 4, 7, 8)
        assert partition.cut == 9

    def test_sizes(self):
        for n in range(3, 9):
            for b in range(2, 5):
                partition = tnb_partition(n, b)
                assert len(partition.base) == 2 * b
                assert len(partition.nonbase) == b * (n - 3)
                assert partition.cut == b * (n - 1) + 1

    def test_partition_covers_vertices(self):
        partition = tnb_partition(6, 3)
        everything = set(partition.base) | set(partition.nonbase) | {partition.cut}
        assert everything == set(range(1, 3 * 5 + 2))


def test_is_tree():
    assert is_tree(build_family(Tree(((1, 2), (2, 3)))))
    assert not is_tree(build_family(TnSingle(3)))
