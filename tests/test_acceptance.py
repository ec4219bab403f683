"""Acceptance suite: each criterion runs at its stated budget and prints one
pass/fail line (visible with ``pytest -s`` or in the captured output).

All equality checks are exact; there are no tolerances anywhere.
"""

import time
from fractions import Fraction

import pytest

from cpdist.closed_form import (
    SingularFamilyError,
    kmn_det,
    kmn_distance,
    kmn_inverse,
    tn_det,
    tn_inverse,
    tn_rmat,
    tnb_det,
    tnb_distance,
    tnb_inverse,
    tnb_xblocks,
    tree_det,
    tree_inverse,
)
from cpdist.graphs import (
    CompleteBipartite,
    K4,
    TnBook,
    TnSingle,
    Tree,
    all_pairs_distances,
    build_family,
    is_cp_graph,
    laplacian,
)
from cpdist.linalg import (
    RationalMatrix,
    aibj_analysis,
    char_poly_exact,
    det_exact,
    imat,
    inverse_exact,
    jmat,
    schur_inverse,
    rank_one_update_inverse,
    zmat,
)
from cpdist.rng import Lcg, random_invertible, random_matrix, random_rank_one, random_tree_edges
from cpdist.spectra import claimed_spectrum, principal_submatrix, verify_claim
from cpdist.suites import complete_graph, cycle_graph, petersen_graph, seeded_trees


class _Criterion:
    """Times a criterion, prints its one-line outcome, enforces the budget."""

    def __init__(self, number: int, title: str, budget_s: float):
        self.number = number
        self.title = title
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.budget_s else "FAIL"
        print(
            f"[criterion {self.number:2d}] {status} {self.title} "
            f"({elapsed:.2f}s, budget {self.budget_s:g}s)"
        )
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its {self.budget_s}s budget ({elapsed:.2f}s)"
            )
        return False


def test_criterion_01_single_block_determinant():
    with _Criterion(1, "single-block determinant vs Bareiss oracle", 1.0):
        for n in range(3, 13):
            d = all_pairs_distances(build_family(TnSingle(n)))
            assert tn_det(n) == Fraction((-1) ** (n - 1) * 2 ** (n - 2))
            assert tn_det(n) == det_exact(d)


def test_criterion_02_single_block_inverse():
    with _Criterion(2, "single-block inverse product and correction identity", 1.0):
        for n in range(3, 13):
            g = build_family(TnSingle(n))
            d = all_pairs_distances(g)
            inverse = tn_inverse(n)
            assert d * inverse == imat(n)
            combined = -laplacian(g) / 2 + jmat(n, n) / 2 + tn_rmat(n) / 2
            assert combined == inverse


def test_criterion_03_bipartite_grid():
    with _Criterion(3, "complete bipartite grid 1..8 x 1..8", 5.0):
        for m in range(1, 9):
            for n in range(1, 9):
                det = kmn_det(m, n)
                d = kmn_distance(m, n)
                assert det == det_exact(d)
                assert (det == 0) == ((m, n) == (2, 2))
                if det == 0:
                    with pytest.raises(SingularFamilyError):
                        kmn_inverse(m, n)
                else:
                    assert d * kmn_inverse(m, n) == imat(m + n)


def test_criterion_04_book_determinant_grid():
    with _Criterion(4, "book determinant grid n in 3..10, b in 2..5", 30.0):
        for n in range(3, 11):
            for b in range(2, 6):
                d = all_pairs_distances(build_family(TnBook(n, b)))
                value = tnb_det(n, b)
                assert value == det_exact(d)
                assert (value == 0) == (n == 6)


def test_criterion_05_book_inverse_grid():
    with _Criterion(5, "book inverse product and five block identities", 60.0):
        for n in (3, 4, 5, 7, 8, 9, 10):
            for b in range(2, 6):
                size = n - 1
                x = tnb_inverse(n, b, verify_product=False)
                dist = tnb_distance(n, b)
                assert dist.materialize() * x == imat(b * size + 1)
                d1, d2, d3 = dist.diag_block, dist.offdiag_block, dist.border_col
                blocks = tnb_xblocks(n, b)
                x1, x2, x3 = blocks.diag_block, blocks.offdiag_block, blocks.border_col
                corner = blocks.corner
                assert d1 * x1 + (b - 1) * (d2 * x2) + d3 * x3.transpose() == imat(size)
                assert (
                    d1 * x2 + d2 * x1 + (b - 2) * (d2 * x2) + d3 * x3.transpose()
                    == zmat(size, size)
                )
                assert d3.transpose() * x1 + (b - 1) * (d3.transpose() * x2) == zmat(1, size)
                assert d1 * x3 + (b - 1) * (d2 * x3) + corner * d3 == zmat(size, 1)
                assert b * (d3.transpose() * x3) == RationalMatrix.from_rows([[1]])


def test_criterion_06_spectra():
    with _Criterion(6, "correction-matrix spectra incl. quadratic division", 60.0):
        for n in range(3, 11):
            for b in range(2, 6):
                claim = claimed_spectrum("B", n, b)
                assert verify_claim(principal_submatrix("B", n, b), claim).ok
        for part in ("N", "NC"):
            for n in range(4, 11):
                for b in range(2, 6):
                    claim = claimed_spectrum(part, n, b)
                    check = verify_claim(principal_submatrix(part, n, b), claim)
                    assert check.ok
                    if claim.quadratic is not None:
                        quotient, remainder = check.computed.divide_by(claim.quadratic)
                        assert all(c == 0 for c in remainder)
                        rebuilt = quotient * claim.quadratic
                        assert rebuilt == check.computed


def test_criterion_07_tree_baseline():
    with _Criterion(7, "50 seeded random trees: determinant and inverse", 5.0):
        trees = seeded_trees(count=50, max_n=12)
        assert len(trees) == 50
        for _, tree in trees:
            d = all_pairs_distances(tree)
            assert tree_det(tree) == det_exact(d)
            assert d * tree_inverse(tree) == imat(tree.vertex_count)


def test_criterion_08_matrix_lemmas():
    with _Criterion(8, "schur/rank-one 100 seeded each + aI+bJ grid", 10.0):
        rng = Lcg(42)
        for _ in range(100):
            while True:
                order = rng.randint(2, 6)
                split = rng.randint(1, order - 1)
                m = random_matrix(rng, order, order)
                if det_exact(m) != 0 and det_exact(m.submatrix(list(range(split)))) != 0:
                    break
            head, rest = list(range(split)), list(range(split, order))
            assembled = schur_inverse(
                m.submatrix(head),
                m.submatrix(head, rest),
                m.submatrix(rest, head),
                m.submatrix(rest, rest),
            )
            assert assembled == inverse_exact(m)
        rng = Lcg(43)
        for _ in range(100):
            order = rng.randint(2, 6)
            a = random_invertible(rng, order)
            while True:
                update = random_rank_one(rng, order)
                if det_exact(a + update) != 0:
                    break
            assert rank_one_update_inverse(inverse_exact(a), update) == inverse_exact(a + update)
        for a in range(-3, 4):
            if a == 0:
                continue
            for b in range(-3, 4):
                for n in range(2, 7):
                    analysis = aibj_analysis(a, b, n)
                    matrix = a * imat(n) + b * jmat(n, n)
                    assert char_poly_exact(matrix) == analysis.eigs.char_poly()
                    assert analysis.det == det_exact(matrix)


def test_criterion_09_recognizer_corpus():
    with _Criterion(9, "cp recognizer fixed-corpus verdicts", 1.0):
        for n in range(3, 9):
            for b in range(2, 5):
                assert is_cp_graph(build_family(TnBook(n, b)))[0]
        assert is_cp_graph(build_family(K4()))[0]
        rng = Lcg(42)
        for _ in range(5):
            tree = build_family(Tree(random_tree_edges(rng.randint(2, 12), rng)))
            assert is_cp_graph(tree)[0]
        assert is_cp_graph(build_family(CompleteBipartite(2, 2)))[0]
        assert is_cp_graph(cycle_graph(4))[0]
        assert not is_cp_graph(complete_graph(5))[0]
        assert not is_cp_graph(petersen_graph())[0]


def test_criterion_10_structured_assembly_performance():
    with _Criterion(10, "3501x3501 inverse assembly under 1s (generic reported)", 90.0):
        start = time.perf_counter()
        assembled = tnb_inverse(8, 500, verify_product=False)
        assembly_s = time.perf_counter() - start
        assert assembled.rows == 3501
        assert assembly_s < 1.0, f"assembly took {assembly_s:.2f}s, budget 1s"

        # Report-only comparison: the generic exact inverse, run at a far
        # smaller order because the full 3501x3501 elimination is infeasible.
        comparison_b = 10
        dist = tnb_distance(8, comparison_b).materialize()
        start = time.perf_counter()
        generic = inverse_exact(dist)
        gauss_s = time.perf_counter() - start
        assert generic == tnb_inverse(8, comparison_b, verify_product=False)
        print(
            f"    structured assembly 3501x3501: {assembly_s * 1000:.0f} ms; "
            f"generic inverse {dist.rows}x{dist.rows}: {gauss_s * 1000:.0f} ms "
            f"(generic is slower on a matrix {3501 // dist.rows}x smaller per side)"
        )
