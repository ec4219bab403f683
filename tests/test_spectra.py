"""Eigenvalue tables for the correction-matrix submatrices."""

from fractions import Fraction

import pytest

from cpdist.closed_form import tn_rmat
from cpdist.graphs import TnBook, all_pairs_distances, build_family, laplacian
from cpdist.linalg import CharPoly, SpectrumClaim, char_poly_exact, imat, inverse_exact, jmat
from cpdist.spectra import (
    claimed_spectrum,
    part_indices,
    principal_submatrix,
    verify_claim,
)


class TestClaims:
    def test_base_claim_5_2(self):
        claim = claimed_spectrum("B", 5, 2)
        # -(n-2)(n-6)b = 6 once, (n-2)(n-6)b = -6 twice, (n-2)(n-4)b = 6 once
        assert claim.pairs == ((Fraction(-6), 2), (Fraction(6), 2))
        assert str(claim.char_poly()) == "x^4 - 72*x^2 + 1296"

    def test_nonbase_claim_4_3(self):
        # (n-6)b keeps multiplicity (n-4)b = 0, so it is dropped
        claim = claimed_spectrum("N", 4, 3)
        assert claim.pairs == ((Fraction(-3), 2), (Fraction(0), 1))

    def test_hub_claim_5_2(self):
        claim = claimed_spectrum("NC", 5, 2)
        assert claim.pairs == ((Fraction(-2), 2), (Fraction(2), 1))
        assert claim.quadratic.coeffs == (Fraction(-16), Fraction(-2), Fraction(1))

    def test_degree_accounting(self):
        for n in range(3, 9):
            for b in range(2, 5):
                assert claimed_spectrum("B", n, b).total_order == 2 * b
                if n >= 4:
                    assert claimed_spectrum("N", n, b).total_order == b * (n - 3)
                    assert claimed_spectrum("NC", n, b).total_order == b * (n - 3) + 1

    def test_empty_nonbase_rejected(self):
        with pytest.raises(ValueError, match="n >= 4"):
            claimed_spectrum("N", 3, 2)
        with pytest.raises(ValueError, match="n >= 4"):
            claimed_spectrum("NC", 3, 2)

    def test_bad_part_rejected(self):
        with pytest.raises(ValueError):
            claimed_spectrum("Q", 5, 2)
        with pytest.raises(ValueError):
            claimed_spectrum("B", 5, 1)


class TestSubmatrices:
    def test_base_indices_3_2(self):
        assert part_indices("B", 3, 2) == (1, 2, 3, 4)

    def test_nonbase_indices_5_2(self):
        assert part_indices("N", 5, 2) == (3, 4, 7, 8)

    def test_hub_indices_4_2(self):
        assert part_indices("NC", 4, 2) == (3, 6, 7)

    def test_submatrix_shapes(self):
        assert principal_submatrix("B", 5, 2).rows == 4
        assert principal_submatrix("N", 5, 2).rows == 4
        assert principal_submatrix("NC", 5, 2).rows == 5

    @pytest.mark.parametrize("n", [4, 5, 7, 8])
    @pytest.mark.parametrize("b", [2, 3, 5])
    @pytest.mark.parametrize("part", ["B", "N", "NC"])
    def test_submatrix_reads_the_materialized_matrix(self, part, n, b):
        # D^-1 = -L/2 + J/(2b) + R/(2(n-6)b) solved for R, with D^-1 and L
        # from the graph by the oracles, not from the closed form
        g = build_family(TnBook(n, b))
        order = g.vertex_count
        r = (2 * (n - 6) * b * inverse_exact(all_pairs_distances(g))
             + (n - 6) * b * laplacian(g) - (n - 6) * jmat(order, order))
        expected = r.submatrix([v - 1 for v in part_indices(part, n, b)])
        assert principal_submatrix(part, n, b) == expected


class TestVerifyClaim:
    def test_identity(self):
        check = verify_claim(imat(3), SpectrumClaim.make([(1, 3)]))
        assert check.ok
        assert bool(check)

    def test_base_5_2(self):
        claim = claimed_spectrum("B", 5, 2)
        assert verify_claim(principal_submatrix("B", 5, 2), claim).ok

    def test_perturbed_claim_fails(self):
        claim = SpectrumClaim.make([(Fraction(-6), 1), (Fraction(6), 3)])
        check = verify_claim(principal_submatrix("B", 5, 2), claim)
        assert not check.ok
        assert check.computed != check.claimed

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            verify_claim(imat(3), SpectrumClaim.make([(1, 2)]))

    def test_quadratic_division_path(self):
        claim = claimed_spectrum("NC", 5, 2)
        check = verify_claim(principal_submatrix("NC", 5, 2), claim)
        assert check.ok
        quotient, remainder = check.computed.divide_by(claim.quadratic)
        assert all(c == 0 for c in remainder)
        expected = (CharPoly.linear(-2) ** 2) * CharPoly.linear(2)
        assert quotient == expected

    def test_grid_sample(self):
        for part, n, b in (("B", 7, 3), ("N", 6, 2), ("NC", 8, 4), ("NC", 6, 3)):
            claim = claimed_spectrum(part, n, b)
            assert verify_claim(principal_submatrix(part, n, b), claim).ok


class TestSingleFanRemark:
    """b = 1 degenerate checks on the single fan's correction matrix.

    The base block is -(n-2) times the exchange matrix, so its spectrum is
    +-(n-2).  The non-base block is I - J of order n-2, whose spectrum is 1
    with multiplicity n-3 and 3-n once (verified here by the exact
    characteristic polynomial)."""

    @pytest.mark.parametrize("n", range(3, 11))
    def test_base_pair(self, n):
        base = tn_rmat(n).submatrix([0, 1])
        expected = CharPoly.linear(n - 2) * CharPoly.linear(-(n - 2))
        assert char_poly_exact(base) == expected

    @pytest.mark.parametrize("n", range(4, 11))
    def test_nonbase_block(self, n):
        nonbase = tn_rmat(n).submatrix(list(range(2, n)))
        expected = (CharPoly.linear(1) ** (n - 3)) * CharPoly.linear(3 - n)
        assert char_poly_exact(nonbase) == expected

    def test_nonbase_spectrum_at_n4(self):
        # I_2 - J_2 has spectrum {1, -1}
        nonbase = tn_rmat(4).submatrix([2, 3])
        poly = char_poly_exact(nonbase)
        assert poly.evaluate(1) == 0
        assert poly.evaluate(-1) == 0
