"""Closed-form determinants and inverses for the supported graph families.

Each family has the same two functions: ``<family>_det`` returns the
determinant as a ``Fraction`` and ``<family>_inverse`` returns the inverse
as a ``RationalMatrix``, raising ``SingularFamilyError`` where the family is
singular; the inverses that check D * X = I on their blocks raise
``ProductCheckError`` when that check fails.  Every formula here has an
independent brute-force counterpart in ``cpdist.linalg``; the test suites
compare the two exactly.  Block displays are assembled from the dedicated
constructors ``imat``/``jmat``/``ones_col``/``swap2`` so each builder can be
audited line by line against the matrix it claims to produce.

The book family T_n^(b) (b triangle-fan blocks sharing one hub vertex) is
handled through ``StructuredBlockForm``: one diagonal block, one off-diagonal
block, one border column and a corner scalar.  Like the fan's
``tn_distance``, ``tn_laplacian`` and ``tn_rmat``, the book has one builder
per matrix, ``tnb_distance``, ``tnb_laplacian`` and ``tnb_rmat``; they and
``tnb_inverse_form`` return that form, and the CLI writes its CSV from the
blocks without building the dense rows; ``materialize`` expands it by block
replication, which is how ``tnb_inverse`` builds its ``RationalMatrix``.
Either way the cost is linear in the output size, which is what makes the
large benchmark instances feasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .graphs import Graph, is_tree, laplacian
from .linalg import (
    RationalMatrix,
    _rescaled,
    imat,
    jmat,
    ones_col,
    swap2,
    zmat,
)


class SingularFamilyError(ValueError):
    """A closed-form inverse was requested where the family is singular."""


class ProductCheckError(ArithmeticError):
    """A closed-form inverse failed its own D * X = I self-check."""


@dataclass(frozen=True)
class StructuredBlockForm:
    """Block-repeating, hub-bordered matrix of order b*(n-1)+1.

    The full matrix has ``diag_block`` on the b diagonal positions,
    ``offdiag_block`` everywhere else, ``border_col`` along the hub column
    (and its transpose along the hub row) and ``corner`` at the hub."""

    n: int
    b: int
    diag_block: RationalMatrix
    offdiag_block: RationalMatrix
    border_col: RationalMatrix
    corner: Fraction

    @property
    def order(self) -> int:
        return self.b * (self.n - 1) + 1

    def _int_blocks(self) -> tuple:
        """``(den, diag rows, off-diagonal rows, hub column, corner)`` as
        integers over the LCM of the four denominators.  That is canonical
        for the matrix when b > 1; at b = 1 the off-diagonal block does not
        appear, so den may share a factor with every entry that does."""
        blocks = (self.diag_block, self.border_col, self.offdiag_block)
        den = lcm(self.corner.denominator, *[m.den for m in blocks])
        diag, border, off = (_rescaled(m.num, den // m.den) for m in blocks)
        corner = self.corner.numerator * (den // self.corner.denominator)
        return den, diag, off, [row[0] for row in border], corner

    def materialize(self) -> RationalMatrix:
        """Expand to the dense matrix by block replication.

        Each output row is a copy of its bordered off-diagonal template row
        with the diagonal block row slice-assigned in place: one pointer copy
        per entry, the same int objects on every page.  Each off-diagonal
        position holds its own ``_DistinctInt``: on the order-7001 book
        inverse (collector off, 2-vCPU VM, Python 3.11, medians of 9 fresh
        processes), rows of a few shared small ints took 316 ms to build
        and 139 ms to free, against 253 and 97 ms.  At b = 1 the
        off-diagonal block does not appear, and one gcd pass makes the
        matrix canonical."""
        size, b = self.n - 1, self.b
        den, diag_rows, off_rows, border, corner = self._int_blocks()
        templates = [list(map(_DistinctInt, row)) * b + [hub] for row, hub in zip(off_rows, border)]
        num = []
        for k in range(b):
            lo = k * size
            for template, diag in zip(templates, diag_rows):
                row = template.copy()
                row[lo:lo + size] = diag
                num.append(row)
        num.append(border * b + [corner])
        order = b * size + 1
        build = RationalMatrix._of if b > 1 else RationalMatrix._reduced
        return build(order, order, num, den)


class _DistinctInt(int):
    """An int object of its own even where CPython shares one per value
    (-5 to 256): copying or freeing a row updates the reference count of
    each entry in turn, and updates of one object cannot overlap."""

    __slots__ = ()


def _require_tn(n: int) -> None:
    if n < 3:
        raise ValueError("triangle fan requires n >= 3")


def _require_book(n: int, b: int) -> None:
    _require_tn(n)
    if b < 2:
        raise ValueError("book family requires b >= 2 (a single block is the plain fan)")


def _require_invertible_book(n: int, b: int) -> None:
    _require_book(n, b)
    if n == 6:
        raise SingularFamilyError("distance matrix singular (n=6, b>=2)")


def _require_parts(m: int, n: int) -> None:
    if m < 1 or n < 1:
        raise ValueError("parts must be nonempty")


def tn_distance(n: int) -> RationalMatrix:
    """Distance matrix of the triangle fan in its canonical block form."""
    _require_tn(n)
    return RationalMatrix.block([
        [swap2(), jmat(2, n - 2)],
        [jmat(n - 2, 2), 2 * (jmat(n - 2, n - 2) - imat(n - 2))],
    ])


def tn_laplacian(n: int) -> RationalMatrix:
    _require_tn(n)
    return RationalMatrix.block([
        [(n - 1) * imat(2) - swap2(), -jmat(2, n - 2)],
        [-jmat(n - 2, 2), 2 * imat(n - 2)],
    ])


def tn_rmat(n: int) -> RationalMatrix:
    """Correction matrix R(T_n) in the single-block inverse identity
    D^-1 = -L/2 + J/2 + R/2."""
    _require_tn(n)
    return RationalMatrix.block([
        [-(n - 2) * swap2(), -jmat(2, n - 2)],
        [-jmat(n - 2, 2), imat(n - 2) - jmat(n - 2, n - 2)],
    ])


def tn_det(n: int) -> Fraction:
    """Determinant of the triangle fan: (-1)^(n-1) * 2^(n-2)."""
    _require_tn(n)
    return Fraction((-1) ** (n - 1) * 2 ** (n - 2))


def tn_inverse(n: int) -> RationalMatrix:
    """Four-block inverse of the triangle fan, with A_2 - (n-2)/2 * J_2 in the
    leading corner.  The fan is never singular."""
    _require_tn(n)
    return RationalMatrix.block([
        [swap2() - Fraction(n - 2, 2) * jmat(2, 2), jmat(2, n - 2) / 2],
        [jmat(n - 2, 2) / 2, -imat(n - 2) / 2],
    ])


# A K_{m,n}-shaped matrix [[a I_m + b J_m, c J_{m,n}], [c J_{n,m}, a' I_n + b' J_n]]
# is given by its scalars (a, b, c, a', b').
_KMN_DISTANCE = (-2, 2, 1, -2, 2)


def _kmn_shaped(m: int, n: int, scalars: tuple) -> RationalMatrix:
    """The matrix of the five values b, a + b, c, b', a' + b' as integers
    over the LCM of the scalars' denominators, reduced."""
    a, b, c, a2, b2 = map(Fraction, scalars)
    den = lcm(*[v.denominator for v in (a, b, c, a2, b2)])
    diag, c, diag2, b, b2 = (v.numerator * (den // v.denominator) for v in (a + b, c, a2 + b2, b, b2))
    rows = []
    for i in range(m):
        row = [b] * m + [c] * n
        row[i] = diag
        rows.append(row)
    for i in range(n):
        row = [c] * m + [b2] * n
        row[m + i] = diag2
        rows.append(row)
    return RationalMatrix._reduced(m + n, m + n, rows, den)


def _kmn_product_is_identity(m: int, n: int, left: tuple, right: tuple) -> bool:
    """Whether the product of two K_{m,n}-shaped matrices is I, from their
    scalars alone by the (aI + bJ) block algebra: on order k,
    (aI + bJ)(a'I + b'J) = aa' I + (ab' + ba' + k bb') J; J_{m,n} J_{n,m} = n J_m;
    and (aI_m + bJ_m) J_{m,n} = (a + mb) J_{m,n}.  aI_k + bJ_k is I_k exactly
    when a + b = 1 and, for k > 1, b = 0."""
    a1, b1, c1, e1, f1 = left
    a2, b2, c2, e2, f2 = right

    def is_identity(a, b, k):
        return a + b == 1 and (k == 1 or b == 0)

    return (
        is_identity(a1 * a2, a1 * b2 + b1 * a2 + m * b1 * b2 + n * c1 * c2, m)
        and is_identity(e1 * e2, e1 * f2 + f1 * e2 + n * f1 * f2 + m * c1 * c2, n)
        and c2 * (a1 + m * b1) + c1 * (e2 + n * f2) == 0
        and c1 * (a2 + m * b2) + c2 * (e1 + n * f1) == 0
    )


def kmn_distance(m: int, n: int) -> RationalMatrix:
    """Distance matrix of K_{m,n}: 2(J-I) within parts, ones across."""
    _require_parts(m, n)
    return _kmn_shaped(m, n, _KMN_DISTANCE)


def kmn_det(m: int, n: int) -> Fraction:
    """Determinant of the complete bipartite distance matrix:
    (-2)^(m+n-2) * (4(m-1)(n-1) - mn), zero exactly at (2, 2)."""
    _require_parts(m, n)
    return Fraction((-2) ** (m + n - 2) * (4 * (m - 1) * (n - 1) - m * n))


def kmn_inverse(m: int, n: int) -> RationalMatrix:
    """Inverse of the complete bipartite distance matrix.  With
    q = 3mn - 4(m+n-1) it is, for every nonsingular (m, n), stars and the
    single edge included,

        [ (3n-4)/(2q) J_m - I_m/2    -J_{m,n}/q               ]
        [ -J_{n,m}/q                 (3m-4)/(2q) J_n - I_n/2  ]

    q vanishes only at (2, 2), where ``SingularFamilyError`` is raised:
    3q + 4 = (3m-4)(3n-4), and the only way to write 4 as such a product
    with m, n >= 1 is 2 * 2.  D * D^-1 = I is checked on the block scalars
    before returning, at a cost independent of m and n.
    """
    _require_parts(m, n)
    if (m, n) == (2, 2):
        raise SingularFamilyError("singular at m=n=2")
    q = 3 * m * n - 4 * (m + n - 1)
    half = Fraction(-1, 2)
    inverse = (half, Fraction(3 * n - 4, 2 * q), Fraction(-1, q), half, Fraction(3 * m - 4, 2 * q))
    if not _kmn_product_is_identity(m, n, _KMN_DISTANCE, inverse):
        raise ProductCheckError(f"bipartite inverse failed the product check at ({m}, {n})")
    return _kmn_shaped(m, n, inverse)


def tree_det(tree: Graph) -> Fraction:
    """Determinant of a tree's distance matrix: (-1)^(n-1) * (n-1) * 2^(n-2)
    (the classical Graham-Pollak value, structure-independent)."""
    if not is_tree(tree):
        raise ValueError("graph is not a tree")
    n = tree.vertex_count
    return Fraction((-1) ** (n - 1) * (n - 1) * 2 ** (n - 2))


def tree_inverse(tree: Graph) -> RationalMatrix:
    """Graham-Lovasz inverse: D^-1 = -L/2 + tau tau^t / (2(n-1)) with
    tau_i = 2 - degree(i)."""
    if not is_tree(tree):
        raise ValueError("graph is not a tree")
    n = tree.vertex_count
    tau = RationalMatrix._of(n, 1, [[2 - d] for d in tree.degrees()])
    return -laplacian(tree) / 2 + (tau * tau.transpose()) / (2 * (n - 1))


def tnb_det(n: int, b: int) -> Fraction:
    """Determinant of the book-family distance matrix:
    (-1)^(b(n-4)+1) * 2^(b(n-3)+1) * b * (n-6)^(b-1)."""
    _require_book(n, b)
    sign = -1 if (b * (n - 4) + 1) % 2 else 1
    return Fraction(sign * 2 ** (b * (n - 3) + 1) * b * (n - 6) ** (b - 1))


def tnb_distance(n: int, b: int) -> StructuredBlockForm:
    """Block form of the book family's distance matrix.

    Each block splits into the two base vertices and the n - 3 other
    non-hub vertices of a fan.  One display serves every n >= 3: at n = 3
    the (n-3)-sized blocks are empty and ``RationalMatrix.block`` drops
    them, leaving the base blocks alone; the same holds for the Laplacian,
    the correction matrix and the inverse."""
    _require_book(n, b)
    d1 = RationalMatrix.block([
        [swap2(), jmat(2, n - 3)],
        [jmat(n - 3, 2), 2 * (jmat(n - 3, n - 3) - imat(n - 3))],
    ])
    d2 = RationalMatrix.block([
        [2 * jmat(2, 2), 3 * jmat(2, n - 3)],
        [3 * jmat(n - 3, 2), 4 * jmat(n - 3, n - 3)],
    ])
    d3 = RationalMatrix.block([[ones_col(2)], [2 * ones_col(n - 3)]])
    return StructuredBlockForm(n, b, d1, d2, d3, Fraction(0))


def tnb_laplacian(n: int, b: int) -> StructuredBlockForm:
    """Block form of the book family's Laplacian."""
    _require_book(n, b)
    l1 = RationalMatrix.block([
        [(n - 1) * imat(2) - swap2(), -jmat(2, n - 3)],
        [-jmat(n - 3, 2), 2 * imat(n - 3)],
    ])
    l2 = RationalMatrix.block([[-ones_col(2)], [zmat(n - 3, 1)]])
    return StructuredBlockForm(n, b, l1, zmat(n - 1, n - 1), l2, Fraction(2 * b))


def tnb_rmat(n: int, b: int) -> StructuredBlockForm:
    """Block form of the book family's correction matrix R in
    D^-1 = -L/2 + J/(2b) + R/(2(n-6)b)."""
    _require_book(n, b)
    r1 = RationalMatrix.block([
        [
            (n - 5) * (n - 2) * (b - 1) * imat(2)
            + (n - 2) * (b - (n - 5)) * swap2(),
            -((n - 4) * b - 2) * jmat(2, n - 3),
        ],
        [
            -((n - 4) * b - 2) * jmat(n - 3, 2),
            b * (n - 6) * imat(n - 3) + (b - (n - 5)) * jmat(n - 3, n - 3),
        ],
    ])
    r2 = RationalMatrix.block([
        [-(n - 5) * (n - 2) * jmat(2, 2), 2 * jmat(2, n - 3)],
        [2 * jmat(n - 3, 2), -(n - 5) * jmat(n - 3, n - 3)],
    ])
    r3 = RationalMatrix.block([
        [(n - 6) * ((n - 4) * b - (n - 3)) * ones_col(2)],
        [-b * (n - 6) * ones_col(n - 3)],
    ])
    corner = Fraction(-(n - 5) * (n - 6) * (b - 1) ** 2)
    return StructuredBlockForm(n, b, r1, r2, r3, corner)


def tnb_product_identities(x: StructuredBlockForm) -> list:
    """The five block identities that D X = I comes to, for D the book
    distance matrix and X a book-shaped form of the same (n, b), as
    ``(label, expected, actual)`` triples.

    With diagonal blocks D1/X1, off-diagonal blocks D2/X2, hub columns D3/X3,
    X's corner x and D's corner 0, the blocks of D X are: diagonal
    D1 X1 + (b-1) D2 X2 + D3 X3^T; off-diagonal D1 X2 + D2 X1 + (b-2) D2 X2 +
    D3 X3^T; hub row D3^T X1 + (b-1) D3^T X2; hub column D1 X3 + (b-1) D2 X3 +
    x D3; corner b D3^T X3.  Every product is of order n - 1, so the check
    costs the same for every b."""
    b, size = x.b, x.n - 1
    d = tnb_distance(x.n, b)
    d1, d2, d3 = d.diag_block, d.offdiag_block, d.border_col
    x1, x2, x3 = x.diag_block, x.offdiag_block, x.border_col
    d3t, x3t = d3.transpose(), x3.transpose()
    d2x2 = d2 * x2
    return [
        ("diagonal block identity", imat(size), d1 * x1 + (b - 1) * d2x2 + d3 * x3t),
        (
            "off-diagonal block identity",
            zmat(size, size),
            d1 * x2 + d2 * x1 + (b - 2) * d2x2 + d3 * x3t,
        ),
        ("hub row identity", zmat(1, size), d3t * x1 + (b - 1) * (d3t * x2)),
        ("hub column identity", zmat(size, 1), d1 * x3 + (b - 1) * (d2 * x3) + x.corner * d3),
        ("hub corner identity", RationalMatrix.from_rows([[1]]), b * (d3t * x3)),
    ]


def tnb_inverse_form(n: int, b: int, verify_product: bool = True) -> StructuredBlockForm:
    """Block form of the book-family inverse for n != 6:
    D^-1 = -L/2 + J/(2b) + R/(2(n-6)b), combined block by block.

    With ``verify_product`` the blocks are checked before returning against
    the five block identities of ``tnb_product_identities``, which hold
    exactly when D * X = I and cost nothing that grows with b.  The check
    covers the blocks, not their replication by ``materialize``.
    """
    blocks = _tnb_inverse_blocks(n, b)
    if verify_product and any(e != a for _, e, a in tnb_product_identities(blocks)):
        raise ProductCheckError(f"book-family inverse failed the product check at ({n}, {b})")
    return blocks


def tnb_inverse(n: int, b: int, verify_product: bool = True) -> RationalMatrix:
    """Inverse of the book-family distance matrix for n != 6: the form of
    ``tnb_inverse_form``, checked the same way, replicated to the dense
    matrix."""
    return tnb_inverse_form(n, b, verify_product).materialize()


def _tnb_inverse_blocks(n: int, b: int) -> StructuredBlockForm:
    _require_invertible_book(n, b)
    lap = tnb_laplacian(n, b)
    rmat = tnb_rmat(n, b)
    size = n - 1
    j_weight = Fraction(1, 2 * b)
    r_weight = Fraction(1, 2 * (n - 6) * b)
    x1 = -lap.diag_block / 2 + j_weight * jmat(size, size) + r_weight * rmat.diag_block
    x2 = j_weight * jmat(size, size) + r_weight * rmat.offdiag_block
    x3 = -lap.border_col / 2 + j_weight * ones_col(size) + r_weight * rmat.border_col
    corner = -lap.corner / 2 + j_weight + r_weight * rmat.corner
    return StructuredBlockForm(n, b, x1, x2, x3, corner)


def tnb_xblocks(n: int, b: int) -> StructuredBlockForm:
    """The inverse's block description written out directly (the X displays),
    rather than combined from L, J and R.  Materializes to the same matrix as
    ``tnb_inverse``; the suites assert that equality.  As in
    ``tnb_distance``, n = 3 needs no branch of its own."""
    _require_invertible_book(n, b)
    scale = Fraction(1, 2 * b * (n - 6))
    x1 = scale * RationalMatrix.block([
        [
            (4 * b - (n - 4) ** 2) * jmat(2, 2) + 2 * b * (n - 6) * swap2(),
            (n - 4 - 2 * b) * jmat(2, n - 3),
        ],
        [
            (n - 4 - 2 * b) * jmat(n - 3, 2),
            -(n - 6) * b * imat(n - 3) + (b - 1) * jmat(n - 3, n - 3),
        ],
    ])
    x2 = scale * RationalMatrix.block([
        [-((n - 4) ** 2) * jmat(2, 2), (n - 4) * jmat(2, n - 3)],
        [(n - 4) * jmat(n - 3, 2), -jmat(n - 3, n - 3)],
    ])
    x3 = RationalMatrix.block([
        [(b * (n - 3) - (n - 4)) * ones_col(2)],
        [-(b - 1) * ones_col(n - 3)],
    ]) / (2 * b)
    corner = Fraction(-n * (b - 1) ** 2 + (3 * b * b - 10 * b + 6), 2 * b)
    return StructuredBlockForm(n, b, x1, x2, x3, corner)
