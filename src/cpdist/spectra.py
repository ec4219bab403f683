"""Claimed eigenvalue tables for principal submatrices of the book family's
correction matrix, verified by exact characteristic-polynomial comparison.

Numerical eigensolvers are useless here: the hub-extended submatrix carries a
quadratic factor with irrational roots (x^2 - 2x - 16 at n=5, b=2, say), so
the only exact route is polynomial identity over the rationals.  Claims and
computed polynomials are both monic, which settles the sign convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .closed_form import tnb_rmat
from .graphs import tnb_partition
from .linalg import CharPoly, RationalMatrix, SpectrumClaim, char_poly_exact

PARTS = ("B", "N", "NC")


@dataclass(frozen=True)
class ClaimCheck:
    """Outcome of comparing a spectrum claim against the exact char poly."""

    ok: bool
    computed: CharPoly
    claimed: CharPoly

    def __bool__(self) -> bool:
        return self.ok


def _require(part: str, n: int, b: int) -> None:
    if part not in PARTS:
        raise ValueError(f"part must be one of {PARTS}")
    if b < 2:
        raise ValueError("eigenvalue tables require b >= 2")
    if n < 3:
        raise ValueError("family requires n >= 3")
    if part != "B" and n < 4:
        raise ValueError("N is empty at n=3; the table requires n >= 4")


def claimed_spectrum(part: str, n: int, b: int) -> SpectrumClaim:
    """Eigenvalue table for the correction matrix restricted to the base
    vertices (B), the non-hub non-base vertices (N), or N plus the hub (NC).

    B:  -(n-2)(n-6)b once, (n-2)(n-6)b with multiplicity b,
        (n-2)(n-4)b with multiplicity b-1.
    N:  -(n-4)(n-6)b once, (2n-9)b with multiplicity b-1,
        (n-6)b with multiplicity (n-4)b.
    NC: the N table without its simple eigenvalue, plus the monic quadratic
        x^2 + (n-6)[(n-5)(b-1)^2 + (n-4)b] x
            + b(n-6)^2[(n-4)(n-5)(b-1)^2 - (n-3)b^2].
    """
    _require(part, n, b)
    if part == "B":
        return SpectrumClaim.make([
            (-(n - 2) * (n - 6) * b, 1),
            ((n - 2) * (n - 6) * b, b),
            ((n - 2) * (n - 4) * b, b - 1),
        ])
    if part == "N":
        return SpectrumClaim.make([
            (-(n - 4) * (n - 6) * b, 1),
            ((2 * n - 9) * b, b - 1),
            ((n - 6) * b, (n - 4) * b),
        ])
    quadratic = CharPoly((
        Fraction(b * (n - 6) ** 2 * ((n - 4) * (n - 5) * (b - 1) ** 2 - (n - 3) * b ** 2)),
        Fraction((n - 6) * ((n - 5) * (b - 1) ** 2 + (n - 4) * b)),
        Fraction(1),
    ))
    return SpectrumClaim.make(
        [
            ((2 * n - 9) * b, b - 1),
            ((n - 6) * b, (n - 4) * b),
        ],
        quadratic,
    )


def part_indices(part: str, n: int, b: int) -> tuple:
    """1-based vertex labels of the requested part, ascending."""
    _require(part, n, b)
    partition = tnb_partition(n, b)
    if part == "B":
        return tuple(sorted(partition.base))
    if part == "N":
        return tuple(sorted(partition.nonbase))
    return tuple(sorted(partition.nonbase)) + (partition.cut,)


def principal_submatrix(part: str, n: int, b: int) -> RationalMatrix:
    """Correction-matrix principal submatrix for the requested vertex part,
    cut out of the materialized ``tnb_rmat(n, b)``."""
    labels = part_indices(part, n, b)
    return tnb_rmat(n, b).materialize().submatrix([v - 1 for v in labels])


def verify_claim(m: RationalMatrix, claim: SpectrumClaim) -> ClaimCheck:
    """Compare a claimed factorization against char_poly_exact(m) exactly."""
    if not m.is_square:
        raise ValueError("claim verification requires a square matrix")
    if claim.total_order != m.rows:
        raise ValueError(
            f"dimension mismatch: claim covers order {claim.total_order}, matrix has {m.rows}"
        )
    computed = char_poly_exact(m)
    claimed = claim.char_poly()
    return ClaimCheck(computed == claimed, computed, claimed)
