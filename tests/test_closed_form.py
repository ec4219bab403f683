"""Closed-form determinants and inverses against the brute-force oracles."""

import dataclasses
import inspect
from fractions import Fraction

import pytest

import cpdist
import cpdist.closed_form as cf
from cpdist.closed_form import (
    SingularFamilyError,
    kmn_det,
    kmn_distance,
    kmn_inverse,
    tn_det,
    tn_distance,
    tn_inverse,
    tn_laplacian,
    tn_rmat,
    tnb_det,
    tnb_distance,
    tnb_inverse,
    tnb_laplacian,
    tnb_rmat,
    tnb_xblocks,
    tree_det,
    tree_inverse,
)
from cpdist.graphs import (
    CompleteBipartite,
    Tree,
    TnBook,
    TnSingle,
    all_pairs_distances,
    build_family,
    laplacian,
)
from cpdist.linalg import (
    RationalMatrix,
    det_exact,
    imat,
    inverse_exact,
    jmat,
    ones_col,
    swap2,
    zmat,
)
from cpdist.rng import Lcg, random_tree_edges


def test_public_closed_forms_are_exported():
    public = {
        name for name, obj in vars(cf).items()
        if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == cf.__name__
    }
    assert public - set(vars(cpdist)) == set()


class TestTreeFormulas:
    def test_path2(self):
        g = build_family(Tree(((1, 2),)))
        assert tree_det(g) == -1
        assert tree_inverse(g) == swap2()

    def test_path3(self):
        g = build_family(Tree(((1, 2), (2, 3))))
        assert tree_det(g) == 4
        d = all_pairs_distances(g)
        assert tree_inverse(g) == inverse_exact(d)

    def test_star_on_five_vertices(self):
        # K_{4,1}: det oracle and formula agree at 32
        g = build_family(CompleteBipartite(4, 1))
        d = all_pairs_distances(g)
        assert det_exact(d) == 32
        assert tree_det(g) == 32

    def test_seeded_tree_identities(self):
        rng = Lcg(2024)
        for _ in range(10):
            g = build_family(Tree(random_tree_edges(rng.randint(2, 10), rng)))
            d = all_pairs_distances(g)
            assert tree_det(g) == det_exact(d)
            assert d * tree_inverse(g) == imat(g.vertex_count)

    def test_rejects_non_tree(self):
        g = build_family(TnSingle(4))
        with pytest.raises(ValueError, match="not a tree"):
            tree_det(g)
        with pytest.raises(ValueError, match="not a tree"):
            tree_inverse(g)


class TestFanFormulas:
    def test_det_small(self):
        assert tn_det(3) == 2
        assert tn_det(5) == 8

    def test_inverse_top_left_block(self):
        inverse = tn_inverse(5)
        expected = swap2() - Fraction(3, 2) * jmat(2, 2)
        assert inverse.submatrix([0, 1]) == expected

    def test_oracle_equivalence_n7(self):
        d = all_pairs_distances(build_family(TnSingle(7)))
        assert tn_inverse(7) == inverse_exact(d)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_laplacian_identity(self, n):
        g = build_family(TnSingle(n))
        inverse, rmat = tn_inverse(n), tn_rmat(n)
        combined = -laplacian(g) / 2 + jmat(n, n) / 2 + rmat / 2
        assert combined == inverse
        # rearranged: the correction matrix is recoverable from the inverse
        assert 2 * inverse + laplacian(g) - jmat(n, n) == rmat

    def test_block_forms_match_graphs(self):
        for n in range(3, 9):
            g = build_family(TnSingle(n))
            assert tn_distance(n) == all_pairs_distances(g)
            assert tn_laplacian(n) == laplacian(g)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            tn_det(2)
        with pytest.raises(ValueError):
            tn_inverse(2)


class TestBipartiteFormulas:
    def test_singular_cell(self):
        assert kmn_det(2, 2) == 0
        with pytest.raises(SingularFamilyError, match="^singular at m=n=2$"):
            kmn_inverse(2, 2)

    def test_det_2_3(self):
        assert kmn_det(2, 3) == -16
        d = all_pairs_distances(build_family(CompleteBipartite(2, 3)))
        assert det_exact(d) == -16

    def test_star_blocks_3_1(self):
        inverse = kmn_inverse(3, 1)
        assert inverse.submatrix([0, 1, 2]) == jmat(3, 3) / 6 - imat(3) / 2
        assert inverse.data[3][3] == Fraction(-4, 3)

    def test_single_edge(self):
        assert kmn_inverse(1, 1) == swap2()

    def test_hub_first_orientation(self):
        # K_{1,n} keeps part-1 (the hub) first; compare with the oracle
        d = all_pairs_distances(build_family(CompleteBipartite(1, 4)))
        assert kmn_inverse(1, 4) == inverse_exact(d)

    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("n", range(1, 7))
    def test_grid_products(self, m, n):
        d = kmn_distance(m, n)
        assert kmn_det(m, n) == det_exact(d)
        if (m, n) != (2, 2):
            assert d * kmn_inverse(m, n) == imat(m + n)


class TestBookDeterminant:
    def test_butterfly(self):
        d = all_pairs_distances(build_family(TnBook(3, 2)))
        assert det_exact(d) == 12
        assert tnb_det(3, 2) == 12

    def test_two_blocks_n5(self):
        d = all_pairs_distances(build_family(TnBook(5, 2)))
        assert det_exact(d) == 64
        assert tnb_det(5, 2) == 64

    @pytest.mark.parametrize("b", range(2, 6))
    def test_vanishes_at_n6(self, b):
        assert tnb_det(6, b) == 0

    def test_rejects_single_block(self):
        with pytest.raises(ValueError):
            tnb_det(5, 1)


class TestBookStructuredForms:
    def test_distance_blocks_n4(self):
        form = tnb_distance(4, 2)
        assert form.diag_block == RationalMatrix.from_rows([
            [0, 1, 1],
            [1, 0, 1],
            [1, 1, 0],
        ])
        assert form.offdiag_block == RationalMatrix.from_rows([
            [2, 2, 3],
            [2, 2, 3],
            [3, 3, 4],
        ])
        assert form.border_col == RationalMatrix.from_rows([[1], [1], [2]])
        assert form.corner == 0
        # n = 3 keeps only the base blocks of the same display
        form = tnb_distance(3, 2)
        assert form.diag_block == swap2()
        assert form.offdiag_block == 2 * jmat(2, 2)
        assert form.border_col == ones_col(2)
        assert form.corner == 0

    @pytest.mark.parametrize("b", range(2, 6))
    def test_correction_blocks_n3(self, b):
        form = tnb_rmat(3, b)
        assert form.diag_block == -2 * (b - 1) * imat(2) + (b + 2) * swap2()
        assert form.offdiag_block == 2 * jmat(2, 2)
        assert form.border_col == 3 * b * ones_col(2)
        assert form.corner == -6 * (b - 1) ** 2

    def test_laplacian_blocks_n5_b3(self):
        form = tnb_laplacian(5, 3)
        assert form.corner == 6
        assert form.border_col == RationalMatrix.from_rows([[-1], [-1], [0], [0]])
        assert form.offdiag_block == zmat(4, 4)
        for b in range(2, 6):
            form = tnb_laplacian(3, b)
            assert form.diag_block == 2 * imat(2) - swap2()
            assert form.offdiag_block == zmat(2, 2)
            assert form.border_col == -ones_col(2)
            assert form.corner == 2 * b

    def test_materialization_is_symmetric(self):
        for build in (tnb_distance, tnb_laplacian, tnb_rmat):
            assert build(5, 3).materialize().is_symmetric()

    def test_materialization_matches_graphs(self):
        for n, b in ((3, 2), (4, 3), (6, 2), (8, 4)):
            g = build_family(TnBook(n, b))
            dist = tnb_distance(n, b).materialize()
            assert dist == all_pairs_distances(g)
            lap = tnb_laplacian(n, b).materialize()
            assert lap == laplacian(g)

    def test_order(self):
        assert tnb_distance(8, 500).order == 3501

    @pytest.mark.parametrize("b", [2, 3, 5])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_materialized_rows_are_distinct_lists(self, n, b):
        form = tnb_distance(n, b)
        dense = form.materialize()
        rows = dense.num
        assert len(rows) == form.order
        assert len({id(row) for row in rows}) == form.order
        assert all(len(row) == form.order for row in rows)
        before = [row.copy() for row in rows]
        rows[0][0] = -1
        assert rows[1:] == before[1:]
        if n != 6:
            assert tnb_xblocks(n, b).materialize() == tnb_inverse(n, b, verify_product=False)


class TestBookInverse:
    @pytest.mark.parametrize("n,b", [(3, 2), (5, 2), (4, 3), (7, 2)])
    def test_oracle_equivalence(self, n, b):
        d = all_pairs_distances(build_family(TnBook(n, b)))
        assert tnb_inverse(n, b) == inverse_exact(d)

    def test_singular_family(self):
        with pytest.raises(SingularFamilyError, match="n=6"):
            tnb_inverse(6, 2)
        with pytest.raises(SingularFamilyError, match="n=6"):
            tnb_xblocks(6, 3)

    def test_xblock_corner_values(self):
        blocks = tnb_xblocks(3, 2)
        assert blocks.border_col == ones_col(2) / 4
        assert blocks.corner == Fraction(-5, 4)
        assert tnb_xblocks(5, 2).corner == Fraction(-7, 4)
        for b in range(2, 6):
            blocks = tnb_xblocks(3, b)
            assert blocks.diag_block == -Fraction(1, 6 * b) * (
                (4 * b - 1) * jmat(2, 2) - 6 * b * swap2()
            )
            assert blocks.offdiag_block == jmat(2, 2) / (6 * b)
            assert blocks.border_col == ones_col(2) / (2 * b)
            assert blocks.corner == Fraction(3 - 4 * b, 2 * b)

    @pytest.mark.parametrize("n,b", [(3, 2), (4, 2), (5, 3), (7, 2), (9, 2)])
    def test_xblocks_materialize_to_inverse(self, n, b):
        assert tnb_xblocks(n, b).materialize() == tnb_inverse(n, b, verify_product=False)

    @pytest.mark.parametrize("n,b", [(3, 2), (4, 2), (5, 2), (7, 3)])
    def test_proof_block_identities(self, n, b):
        dist = tnb_distance(n, b)
        x = tnb_xblocks(n, b)
        size = n - 1
        d1, d2, d3 = dist.diag_block, dist.offdiag_block, dist.border_col
        x1, x2, x3 = x.diag_block, x.offdiag_block, x.border_col
        assert d1 * x1 + (b - 1) * (d2 * x2) + d3 * x3.transpose() == imat(size)
        assert (
            d1 * x2 + d2 * x1 + (b - 2) * (d2 * x2) + d3 * x3.transpose()
            == zmat(size, size)
        )
        assert d3.transpose() * x1 + (b - 1) * (d3.transpose() * x2) == zmat(1, size)
        assert d1 * x3 + (b - 1) * (d2 * x3) + x.corner * d3 == zmat(size, 1)
        assert b * (d3.transpose() * x3) == RationalMatrix.from_rows([[1]])

    def test_product_check_runs(self):
        # default call path exercises the internal D * X = I assertion
        x = tnb_inverse(4, 2)
        assert x.rows == 7


class TestStructuredProductChecks:
    """The self-checks in ``kmn_inverse`` and ``tnb_inverse`` work on block
    scalars and blocks; each must reject a single injected fault."""

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 4), (3, 1), (2, 5), (4, 4), (7, 3)])
    def test_kmn_check_rejects_each_perturbed_scalar(self, m, n):
        q = 3 * m * n - 4 * (m + n - 1)
        half = Fraction(-1, 2)
        scalars = (half, Fraction(3 * n - 4, 2 * q), Fraction(-1, q), half,
                   Fraction(3 * m - 4, 2 * q))
        assert cf._kmn_product_is_identity(m, n, cf._KMN_DISTANCE, scalars)
        assert kmn_inverse(m, n) == cf._kmn_shaped(m, n, scalars)
        for k in range(len(scalars)):
            bad = scalars[:k] + (scalars[k] + Fraction(1, 7),) + scalars[k + 1:]
            assert not cf._kmn_product_is_identity(m, n, cf._KMN_DISTANCE, bad), k

    @pytest.mark.parametrize("n,b", [(3, 2), (5, 3), (8, 4)])
    def test_book_check_rejects_each_perturbed_block_entry(self, n, b, monkeypatch):
        good = cf._tnb_inverse_blocks(n, b)
        size = n - 1
        faults = [("diag_block", 0, 0), ("diag_block", size - 1, 0),
                  ("offdiag_block", 1, size - 1), ("border_col", size - 1, 0), ("corner", 0, 0)]
        for field, i, j in faults:
            if field == "corner":
                bad = dataclasses.replace(good, corner=good.corner + 1)
            else:
                block = getattr(good, field)
                data = [list(row) for row in block.data]
                data[i][j] += 1
                bad = dataclasses.replace(good, **{field: RationalMatrix(block.rows, block.cols, data)})
            monkeypatch.setattr(cf, "_tnb_inverse_blocks", lambda n, b: bad)
            with pytest.raises(ArithmeticError, match="product check"):
                tnb_inverse(n, b)
            assert tnb_inverse(n, b, verify_product=False) == bad.materialize()

    def test_book_check_at_the_advertised_size(self):
        # the block identities cost the same for every b, so the default
        # check runs at the order-3501 size the README benchmarks
        x = tnb_inverse(8, 500)
        blocks = tnb_xblocks(8, 500)
        assert x.rows == 3501
        assert x.data[-1] == [row[0] for row in blocks.border_col.data] * 500 + [blocks.corner]
