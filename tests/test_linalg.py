"""Exact linear algebra: oracles, matrix lemmas, and their cross-checks."""

import sys
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from math import gcd
from operator import mul

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from cpdist.closed_form import (
    StructuredBlockForm,
    tnb_det,
    tnb_inverse,
    tnb_xblocks,
    tree_det,
    tree_inverse,
)
from cpdist import linalg, packing
from cpdist.graphs import CompleteBipartite, TnBook, Tree, all_pairs_distances, build_family
from cpdist.linalg import (
    AibjAnalysis,
    CharPoly,
    RationalMatrix,
    SingularMatrixError,
    SpectrumClaim,
    _SYMMETRIC_PACK_MIN_ORDER,
    _bareiss_symmetric,
    _det_general,
    _det_symmetric,
    _inverse_general,
    _inverse_symmetric,
    _repair_pivot,
    aibj_analysis,
    char_poly_exact,
    det_exact,
    imat,
    inverse_exact,
    jmat,
    ones_col,
    rank,
    rank_one_update_inverse,
    rational_str,
    schur_inverse,
    swap2,
    zmat,
)
from cpdist.packing import _CAST_MIN_SLOTS, _PACK_HEADROOM_BITS, _common_twos, _pack, _unpack, _widen
from cpdist.rng import Lcg, random_invertible, random_matrix, random_rank_one, random_tree_edges
from cpdist.spectra import PARTS, claimed_spectrum, principal_submatrix


# Symmetric matrices that need each pivot repair of _bareiss_symmetric, with
# their determinants.
SYMMETRIC_REPAIRS = [
    # a_00 = 0 and a_11 != 0: row and column 1 swap with 0; adding them
    # instead would leave the pivot 0 + 2*1 - 2 = 0
    ([[0, 1, 2], [1, -2, 1], [2, 1, 3]], 9),
    # the same swap at k = 1, after one elimination step
    ([[1, 1, 1], [1, 1, 2], [1, 2, 3]], -1),
    # a_00 = a_11 = 0: row and column 1 are added to 0
    ([[0, 1], [1, 0]], -1),
    # the same addition at k = 1
    ([[1, 1, 1], [1, 1, 2], [1, 2, 1]], -1),
    # row 1 of the trailing block is all zero after the first step
    ([[1, 1, 1], [1, 1, 1], [1, 1, 2]], 0),
    # rows cleared by 6 and 3 must be cleared on both sides
    ([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), 1]], Fraction(7, 18)),
]


def small_int_matrix(order):
    return st.lists(
        st.lists(st.integers(-5, 5), min_size=order, max_size=order),
        min_size=order,
        max_size=order,
    ).map(RationalMatrix.from_rows)


# Mixed denominators, with zero drawn often enough to give zero rows,
# columns and pivots.
rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
)


def rational_rows(rows, cols):
    return st.lists(
        st.lists(rationals, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


def naive_product(a, b):
    """Entrywise Fraction reference product, independent of linalg's
    integer-cleared kernel."""
    return [
        [
            sum((a.data[i][t] * b.data[t][j] for t in range(a.cols)), Fraction(0))
            for j in range(b.cols)
        ]
        for i in range(a.rows)
    ]


def naive_det(m):
    """Reference determinant by Gaussian elimination with row swaps on
    Fraction entries, independent of linalg's integer Bareiss kernels."""
    a = [list(row) for row in m.data]
    n = m.rows
    det = Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            ratio = a[i][k] / a[k][k]
            a[i] = [x - ratio * y for x, y in zip(a[i], a[k])]
    return det


def naive_inverse(m):
    """Reference inverse by Gauss-Jordan with row swaps on [m | I] in
    Fraction entries, independent of linalg's integer kernels; None when m
    is singular."""
    n = m.rows
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m.data)]
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k] != 0), None)
        if piv is None:
            return None
        a[k], a[piv] = a[piv], a[k]
        pivot = a[k][k]
        a[k] = [x / pivot for x in a[k]]
        for i in range(n):
            f = a[i][k]
            if i != k and f != 0:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [row[n:] for row in a]


def naive_rank(m):
    """Reference rank by row echelon reduction on Fraction entries,
    independent of linalg's integer Bareiss kernel."""
    a = [list(row) for row in m.data]
    r = 0
    for c in range(m.cols):
        piv = next((i for i in range(r, m.rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, m.rows):
            ratio = a[i][c] / a[r][c]
            a[i] = [x - ratio * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def list_bareiss_symmetric(num):
    """Reference for ``_bareiss_symmetric``: the same half-triangle
    elimination of the symmetric integer rows ``num`` with every step on
    list rows, one interpreted update per entry, against which its packed
    steps are checked."""
    n = len(num)
    u = [row[i:] for i, row in enumerate(num)]
    repairs = []
    prev = 1
    for k in range(n):
        row_k = u[k]
        if row_k[0] == 0:
            t = next((t for t in range(1, n - k) if row_k[t] != 0), None)
            if t is None:
                return None
            repairs.append(_repair_pivot(u, k, t))
            row_k = u[k]
        p = row_k[0]
        for i in range(k + 1, n):
            f = row_k[i - k]
            u[i] = [(p * x - f * y) // prev for x, y in zip(u[i], row_k[i - k:])]
        prev = p
    return u, repairs


def full_rows(elim):
    """``(rows, repairs)`` of a ``_bareiss_symmetric`` result, each finished
    row times its power of two, as ``list_bareiss_symmetric`` returns them;
    None for None."""
    if elim is None:
        return None
    u, twos, repairs = elim
    return [[x << e for x in row] for row, e in zip(u, twos)], repairs


def list_back_substitution(m):
    """Reference for ``_inverse_symmetric``: the inverse of the symmetric
    matrix m from the rows of ``list_bareiss_symmetric``, back-substituted
    with every adjugate entry a full integer, one interpreted dot product
    per entry, and its repairs undone; None when m is singular."""
    elim = list_bareiss_symmetric(m.num)
    if elim is None:
        return None
    u, repairs = elim
    n = len(u)
    pivots = [row[0] for row in u]
    d = pivots[-1] if n else 1
    # tails[i] lists U_il for l = n-1 down to i+1, aligned with a column
    # built from the bottom up.
    tails = [row[:0:-1] for row in u]
    x = [None] * n
    for j in range(n - 1, -1, -1):
        col = [x[l][j] for l in range(n - 1, j, -1)]
        col.append((d * (pivots[j - 1] if j else 1) - sum(map(mul, tails[j], col))) // pivots[j])
        for i in range(j - 1, -1, -1):
            col.append(-sum(map(mul, tails[i], col)) // pivots[i])
        col.reverse()
        x[j] = col
    for k, c, swap in reversed(repairs):
        if swap:
            x[k], x[c] = x[c], x[k]
            for row in x:
                row[k], row[c] = row[c], row[k]
        else:
            x[c] = [a + b for a, b in zip(x[c], x[k])]
            for row in x:
                row[c] += row[k]
    return RationalMatrix._reduced(n, n, [[v * m.den for v in row] for row in x], d)


def congruent_tail(n, tail, seed):
    """The symmetric integer matrix L diag(h, tail) L^T of order n, for h a
    diagonal of nonzero entries and L a unit lower triangle with entries
    drawn from ``Lcg(seed)`` below the diagonal, except within the tail
    block.  Its leading minors up to order h = n - len(tail) are products of
    h's entries, so the symmetric elimination needs no repair there, and
    after h steps its trailing block is det(diag(h)) times ``tail`` (the
    Schur complement), so the tail's repairs and zero rows happen at the
    same steps past h."""
    rng = Lcg(seed)
    h = n - len(tail)
    ell = [[int(i == j) if j >= i or j >= h else rng.randint(-3, 3) for j in range(n)]
           for i in range(n)]
    d = [[0] * n for _ in range(n)]
    for i in range(h):
        d[i][i] = rng.randint(1, 9) * (1 if rng.randint(0, 1) else -1)
    for i, row in enumerate(tail):
        d[h + i][h:] = row
    lower = RationalMatrix.from_rows(ell)
    return lower * RationalMatrix.from_rows(d) * lower.transpose()


def two_adic_symmetric(twos, entry):
    """The symmetric integer matrix S A S for S = diag(2^twos[i]), with entry
    (i, j) of A for j >= i given by ``entry(i, j)``: entry (i, j) carries
    2^(twos[i] + twos[j]), so the trailing blocks of the elimination carry
    powers of two that differ from row to row."""
    n = len(twos)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = entry(i, j) << (twos[i] + twos[j])
    return RationalMatrix.from_rows(rows)


def kernel_det(kernel, m):
    """det(m) from an integer determinant kernel run on m's numerators:
    det(num) / den^n."""
    return Fraction(kernel(m.num), m.den ** m.rows)


def inverse_or_rank(inverse, m):
    """The rows of ``inverse(m)``, checked to be in canonical form, or the
    rank its SingularMatrixError carries."""
    try:
        result = inverse(m)
    except SingularMatrixError as err:
        return err.rank
    assert_canonical(result)
    return result.data


def naive_poly_product(a, b):
    """Reference product of two ascending coefficient tuples, one Fraction
    multiply-add per pair of terms."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


@st.composite
def general_matrices(draw, square=True):
    """Rational matrices of orders 0-8, or with ``square=False`` of any
    shape up to 6x9.  A zero column at the first, a middle or the last
    position, and a repeated row, are drawn in, so the elimination skips
    pivotless columns there."""
    if square:
        rows = cols = draw(st.integers(0, 8))
    else:
        rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 9))
    data = draw(rational_rows(rows, cols))
    skip = draw(st.sampled_from([None, 0, cols // 2, cols - 1]))
    if skip is not None and cols:
        for row in data:
            row[skip] = Fraction(0)
    if rows > 1 and draw(st.booleans()):
        data[draw(st.integers(0, rows - 1))] = list(data[draw(st.integers(0, rows - 1))])
    return RationalMatrix(rows, cols, data)


@st.composite
def symmetric_matrices(draw):
    """Symmetric, orders 1-9, mixed denominators; a zero diagonal, as every
    distance matrix has, in half the draws, and sometimes a zero row and
    column."""
    n = draw(st.integers(1, 9))
    rows = draw(rational_rows(n, n))
    zero_diagonal = draw(st.booleans())
    for i in range(n):
        for j in range(i):
            rows[i][j] = rows[j][i]
        if zero_diagonal:
            rows[i][i] = Fraction(0)
    if draw(st.booleans()):
        z = draw(st.integers(0, n - 1))
        for i in range(n):
            rows[z][i] = rows[i][z] = Fraction(0)
    return RationalMatrix.from_rows(rows)


@st.composite
def packed_symmetric_matrices(draw):
    """Symmetric, orders from just below the smallest packed order to 12
    past it, entries from a drawn random source: mixed denominators,
    numerators up to 10^40, so that slots widen during the elimination, a
    zero diagonal in half the draws and sometimes a zero row and column."""
    n = draw(st.integers(_SYMMETRIC_PACK_MIN_ORDER - 2, _SYMMETRIC_PACK_MIN_ORDER + 12))
    rng = draw(st.randoms(use_true_random=False))
    bound = draw(st.sampled_from([9, 10**6, 10**40]))
    max_den = draw(st.sampled_from([1, 12]))
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rng.random() >= 0.15:
                rows[i][j] = rows[j][i] = Fraction(rng.randint(-bound, bound), rng.randint(1, max_den))
    if draw(st.booleans()):
        for i in range(n):
            rows[i][i] = Fraction(0)
    if draw(st.booleans()):
        z = draw(st.integers(0, n - 1))
        for i in range(n):
            rows[z][i] = rows[i][z] = Fraction(0)
    return RationalMatrix(n, n, rows)


@st.composite
def two_adic_symmetric_matrices(draw):
    """``two_adic_symmetric`` of orders 22-40 with every twos[i] in 0..6 and
    A's entries from a drawn random source, up to 9 or 10^6 in absolute
    value, with a zero diagonal in half the draws."""
    n = draw(st.integers(_SYMMETRIC_PACK_MIN_ORDER - 2, 40))
    twos = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    rng = draw(st.randoms(use_true_random=False))
    bound = draw(st.sampled_from([9, 10**6]))
    zero_diagonal = draw(st.booleans())
    return two_adic_symmetric(
        twos, lambda i, j: 0 if zero_diagonal and i == j else rng.randint(-bound, bound))


@st.composite
def repaired_symmetric_matrices(draw, min_order=2):
    """``congruent_tail`` of orders ``min_order``-30 times 2^k, k in 0..40,
    whose tail [[0, a], [a, b]] gives step n-2 a zero pivot: b != 0 repairs
    it by a swap, b = 0 by an add."""
    n = draw(st.integers(min_order, 30))
    a = draw(st.integers(1, 5)) * draw(st.sampled_from([1, -1]))
    b = draw(st.sampled_from([0, 0, 1, -3, 4]))
    return (1 << draw(st.integers(0, 40))) * congruent_tail(n, [[0, a], [a, b]], draw(st.integers(0, 99)))


# Book shapes (n, b) whose distance matrices, of order b*(n-1)+1, are packed
# and at most of order 80.
PACKED_BOOKS = [(n, b) for n in range(3, 9) for b in range(2, 40)
                if _SYMMETRIC_PACK_MIN_ORDER <= b * (n - 1) + 1 <= 80]


@st.composite
def packed_distance_matrices(draw):
    """Distance matrices of orders 24-80: seeded trees and books.  Their
    Bareiss divisors d = prev >> z are a few bits wide, so the packed
    elimination defers most divisions."""
    if draw(st.booleans()):
        spec = Tree(random_tree_edges(draw(st.integers(_SYMMETRIC_PACK_MIN_ORDER, 80)),
                                      Lcg(draw(st.integers(0, 999)))))
    else:
        spec = TnBook(*draw(st.sampled_from(PACKED_BOOKS)))
    return all_pairs_distances(build_family(spec))


@contextmanager
def proper_reads():
    """While active, every packed row that ``_bareiss_packed`` hands to
    ``_unpack``, ``_widen`` or ``_common_twos`` must be a proper packed row
    of balanced digits, equal to the packing of its own unpacked slots: a
    row still held times pending divisors c fails the check wherever c
    times one of its digits overflows a slot."""
    def proper(r, count, w):
        assert _pack(_unpack(r, count, w), w) == r, "a slot of an undivided row was read"

    def unpack(r, count, w):
        proper(r, count, w)
        return _unpack(r, count, w)

    def widen(r, count, w, wider):
        proper(r, count, w)
        return _widen(r, count, w, wider)

    def common_twos(row_k, rows, count, w):
        for j, r in enumerate(rows):
            proper(r, count - j, w)
        return _common_twos(row_k, rows, count, w)

    saved = linalg._unpack, linalg._widen, linalg._common_twos
    linalg._unpack, linalg._widen, linalg._common_twos = unpack, widen, common_twos
    try:
        yield
    finally:
        linalg._unpack, linalg._widen, linalg._common_twos = saved


def faddeev_leverrier(m):
    """Reference det(xI - m), ascending coefficients, by the Faddeev-LeVerrier
    recursion on Fraction entries, independent of linalg's Hessenberg
    kernel: M_1 = I, c_{n-k} = -tr(m M_k) / k, M_{k+1} = m M_k + c_{n-k} I."""
    n = m.rows
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    mk = imat(n)
    for k in range(1, n + 1):
        am = naive_product(m, mk)
        c = -sum(am[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        for i in range(n):
            am[i][i] += c
        mk = RationalMatrix(n, n, am)
    return tuple(coeffs)


square_rationals = (
    st.integers(1, 10).flatmap(lambda n: rational_rows(n, n)).map(RationalMatrix.from_rows)
)


@st.composite
def product_operands(draw):
    """A conformal rectangular pair, optionally with a zero row in the left
    factor and a zero column in the right one."""
    r, k, c = (draw(st.integers(1, 5)) for _ in range(3))
    left = draw(rational_rows(r, k))
    right = draw(rational_rows(k, c))
    if draw(st.booleans()):
        left[draw(st.integers(0, r - 1))] = [Fraction(0)] * k
    if draw(st.booleans()):
        j = draw(st.integers(0, c - 1))
        for row in right:
            row[j] = Fraction(0)
    return RationalMatrix.from_rows(left), RationalMatrix.from_rows(right)


def assert_canonical(m):
    """The stored form of m: ``rows`` integer rows of ``cols`` entries over
    ``den > 0``, with gcd(den, every numerator) = 1."""
    assert len(m.num) == m.rows and all(len(row) == m.cols for row in m.num)
    assert all(isinstance(x, int) for row in m.num for x in row)
    assert type(m.den) is int and m.den > 0
    assert gcd(m.den, *[x for row in m.num for x in row]) == 1


def fraction_rows(m):
    return [list(row) for row in m.data]


@st.composite
def matrices(draw, rows=None, cols=None):
    """Rational matrices of shape up to 4x4, empty shapes included, with
    mixed denominators; all zero in a sixth of the draws."""
    rows = draw(st.integers(0, 4)) if rows is None else rows
    cols = draw(st.integers(0, 4)) if cols is None else cols
    data = draw(rational_rows(rows, cols))
    if draw(st.integers(0, 5)) == 0:
        data = [[Fraction(0)] * cols for _ in range(rows)]
    return RationalMatrix(rows, cols, data)


@st.composite
def same_shape_pairs(draw):
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    return draw(matrices(rows, cols)), draw(matrices(rows, cols))


@st.composite
def conformal_pairs(draw):
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    return draw(matrices(r, k)), draw(matrices(k, c))


# Integer and fractional scalars of both signs, zero included.
scalars = st.one_of(st.integers(-6, 6), rationals)


@st.composite
def block_grids(draw):
    """A grid of conformal blocks: 1-3 block rows of heights 0-3 and 1-3
    block columns of widths 0-3."""
    heights = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    widths = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    return [[draw(matrices(h, w)) for w in widths] for h in heights]


class TestIntegerRows:
    """Every operation of ``RationalMatrix`` on its integer rows against
    the same operation on ``Fraction`` entries, and the canonical form of
    every result."""

    @settings(max_examples=150, deadline=None)
    @given(same_shape_pairs(), scalars)
    def test_entrywise_arithmetic_matches_fraction_reference(self, pair, s):
        a, b = pair
        fa, fb = fraction_rows(a), fraction_rows(b)
        cases = [
            (a + b, [[x + y for x, y in zip(r, q)] for r, q in zip(fa, fb)]),
            (a - b, [[x - y for x, y in zip(r, q)] for r, q in zip(fa, fb)]),
            (-a, [[-x for x in r] for r in fa]),
            (s * a, [[s * x for x in r] for r in fa]),
            (a * s, [[x * s for x in r] for r in fa]),
        ]
        if s != 0:
            cases.append((a / s, [[x / s for x in r] for r in fa]))
        for result, expected in cases:
            assert_canonical(result)
            assert (result.rows, result.cols) == (a.rows, a.cols)
            assert result.data == expected
            assert result == RationalMatrix(a.rows, a.cols, expected)
        assert (a == b) == (fa == fb)
        assert (a != b) == (fa != fb)
        # the operands are unchanged
        assert fraction_rows(a) == fa and fraction_rows(b) == fb

    @settings(max_examples=100, deadline=None)
    @given(conformal_pairs())
    def test_product_matches_reference(self, pair):
        a, b = pair
        product = a * b
        assert_canonical(product)
        assert (product.rows, product.cols) == (a.rows, b.cols)
        assert product.data == naive_product(a, b)

    @settings(max_examples=100, deadline=None)
    @given(matrices(), st.data())
    def test_views_match_reference(self, m, data):
        assert_canonical(m)
        f = fraction_rows(m)
        t = m.transpose()
        assert_canonical(t)
        assert (t.rows, t.cols) == (m.cols, m.rows)
        assert t.data == [[f[i][j] for i in range(m.rows)] for j in range(m.cols)]
        assert t.transpose() == m
        ri = data.draw(st.lists(st.integers(0, m.rows - 1), max_size=4)) if m.rows else []
        ci = data.draw(st.lists(st.integers(0, m.cols - 1), max_size=4)) if m.cols else []
        sub = m.submatrix(ri, ci)
        assert_canonical(sub)
        assert (sub.rows, sub.cols) == (len(ri), len(ci))
        assert sub.data == [[f[i][j] for j in ci] for i in ri]
        assert all(m[i, j] == f[i][j] for i in range(m.rows) for j in range(m.cols))
        assert list(m.entries()) == [x for row in f for x in row]
        assert all(type(x) is Fraction for x in m.entries())
        if m.is_square:
            assert m.trace() == sum((f[i][i] for i in range(m.rows)), Fraction(0))
            assert m.submatrix(ri).data == [[f[i][j] for j in ri] for i in ri]

    @settings(max_examples=100, deadline=None)
    @given(block_grids())
    def test_block_matches_reference(self, grid):
        m = RationalMatrix.block(grid)
        assert_canonical(m)
        expected = [
            [x for b in block_row for x in fraction_rows(b)[i]]
            for block_row in grid for i in range(block_row[0].rows)
        ]
        assert (m.rows, m.cols) == (len(expected), sum(b.cols for b in grid[0]))
        assert m.data == expected

    def test_zero_results_have_denominator_one(self):
        half = RationalMatrix.from_rows([[Fraction(1, 2), Fraction(-1, 3)]])
        for zero in (half - half, 0 * half, half * RationalMatrix.from_rows([[0], [0]]),
                     zmat(2, 3) / 7, half.submatrix([], [0, 1])):
            assert_canonical(zero)
            assert zero.den == 1
        assert (half * 6).num == [[3, -2]] and (half * 6).den == 1
        assert (half / -2).num == [[-3, 2]] and (half / -2).den == 12

    def test_zero_by_zero(self):
        empty = imat(0)
        for m in (empty + empty, -empty, 3 * empty, empty * empty, empty.transpose(),
                  imat(3).submatrix([]), RationalMatrix.block([[empty]])):
            assert_canonical(m)
            assert m == empty and m.data == [] and len(m.data) == 0
        assert empty.trace() == 0
        assert jmat(2, 0) * jmat(0, 3) == zmat(2, 3)


class TestFractionRows:
    """``RationalMatrix.data`` is a sequence of Fraction rows, built a row
    at a time when read."""

    def test_sequence_contract(self):
        m = RationalMatrix.from_rows([[Fraction(1, 2), 0], [3, Fraction(-2, 3)]])
        rows = [[Fraction(1, 2), Fraction(0)], [Fraction(3), Fraction(-2, 3)]]
        assert m.data == rows and rows == m.data
        assert not m.data != rows and not rows != m.data
        assert m.data == tuple(rows) and m.data == m.transpose().transpose().data
        assert m.data != rows[:1] and rows[:1] != m.data
        assert m.data != 0 and m.data != [[1, 2], [3, 4]]
        assert len(m.data) == 2
        assert m.data[-1] == rows[-1] and m.data[0] == rows[0]
        assert all(type(x) is Fraction for x in m.data[1])
        assert list(m.data) == rows
        with pytest.raises(IndexError):
            m.data[2]

    def test_reading_one_row_builds_only_that_row(self):
        x = tnb_inverse(8, 1000, verify_product=False)
        blocks = tnb_xblocks(8, 1000)
        assert len(x.data) == x.rows == 7001
        tracemalloc.start()
        try:
            last = x.data[-1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one row of 7001 Fractions takes about a megabyte; all 49 M
        # entries would take gigabytes
        assert peak < 4_000_000
        assert last == [row[0] for row in blocks.border_col.data] * 1000 + [blocks.corner]
        del x

    def test_materialize_shares_int_objects_across_pages(self):
        big = 10 ** 30
        form = StructuredBlockForm(
            3, 3,
            RationalMatrix.from_rows([[big, Fraction(1, 3)], [2, big + 1]]),
            RationalMatrix.from_rows([[-big, 5], [7, Fraction(big, 7)]]),
            RationalMatrix.from_rows([[big + 2], [-1]]),
            Fraction(big, 2),
        )
        dense = form.materialize()
        assert_canonical(dense)
        assert dense.den == 21
        size, pages = 2, 3
        for k in range(pages):
            for i in range(size):
                expected = []
                for p in range(pages):
                    expected += (form.diag_block if p == k else form.offdiag_block).data[i]
                assert dense.data[k * size + i] == expected + [form.border_col[i, 0]]
        assert dense.data[-1] == [form.border_col[i, 0] for i in range(size)] * pages + [form.corner]
        num = dense.num
        for k in range(1, pages):
            for i in range(size):
                first, row = num[i], num[k * size + i]
                # the same diagonal block row, off-diagonal row and hub entry
                assert all(row[k * size + j] is first[j] for j in range(size))
                other = next(p for p in range(1, pages) if p != k)
                assert all(row[other * size + j] is first[other * size + j] for j in range(size))
                assert row[-1] is first[-1]

    def test_materialize_single_page_is_canonical(self):
        # at b = 1 the off-diagonal block does not appear, so its
        # denominator must not stay in the matrix's
        form = StructuredBlockForm(
            3, 1,
            RationalMatrix.from_rows([[1, 2], [3, 4]]),
            RationalMatrix.from_rows([[Fraction(1, 7), 0], [0, 5]]),
            RationalMatrix.from_rows([[5], [6]]),
            Fraction(7),
        )
        den, diag, off, hub, corner = form._int_blocks()
        for block, rows in ((form.diag_block, diag), (form.offdiag_block, off)):
            assert [[Fraction(x, den) for x in row] for row in rows] == block.data
        assert (hub, corner) == ([5 * den, 6 * den], 7 * den)
        dense = form.materialize()
        assert_canonical(dense)
        assert dense.den == 1
        assert dense.data == [[1, 2, 5], [3, 4, 6], [5, 6, 7]]


class TestProduct:
    @settings(max_examples=80, deadline=None)
    @given(product_operands())
    def test_matches_reference(self, operands):
        a, b = operands
        product = a * b
        assert (product.rows, product.cols) == (a.rows, b.cols)
        assert product.data == naive_product(a, b)
        assert all(type(e) is Fraction for e in product.entries())

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="cannot multiply"):
            jmat(2, 3) * jmat(2, 3)


class TestDeterminant:
    def test_identity(self):
        assert det_exact(imat(5)) == 1

    def test_swap(self):
        assert det_exact(swap2()) == -1

    def test_path3_distance(self):
        # D(P_3); the tree determinant formula gives 4 at n=3
        d = RationalMatrix.from_rows([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        assert det_exact(d) == 4

    def test_rational_entries(self):
        m = RationalMatrix.from_rows([
            [Fraction(1, 2), Fraction(1, 3)],
            [Fraction(1, 5), Fraction(1, 7)],
        ])
        assert det_exact(m) == Fraction(1, 14) - Fraction(1, 15)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            det_exact(jmat(2, 3))

    def test_zero_column(self):
        m = RationalMatrix.from_rows([[0, 1], [0, 2]])
        assert det_exact(m) == 0

    @settings(max_examples=40, deadline=None)
    @given(small_int_matrix(3), small_int_matrix(3))
    def test_multiplicative(self, a, b):
        assert det_exact(a * b) == det_exact(a) * det_exact(b)

    def test_empty_matrix(self):
        # block and submatrix build 0x0 matrices; both kernels give the
        # empty product
        assert det_exact(imat(3).submatrix([])) == 1
        assert det_exact(RationalMatrix.block([[zmat(0, 0)]])) == 1
        assert _det_general([]) == _det_symmetric([]) == 1
        assert type(det_exact(imat(0))) is Fraction

    @settings(max_examples=200, deadline=None)
    @given(symmetric_matrices())
    def test_symmetric_matches_reference(self, m):
        # det_exact sends every symmetric matrix to _det_symmetric, so the
        # general kernel is also called directly
        assert det_exact(m) == naive_det(m) == kernel_det(_det_general, m)

    @pytest.mark.parametrize("rows, det", SYMMETRIC_REPAIRS)
    def test_symmetric_pivot_repairs(self, rows, det):
        m = RationalMatrix.from_rows(rows)
        assert det_exact(m) == naive_det(m) == kernel_det(_det_symmetric, m) == det

    @pytest.mark.parametrize("spec", [TnBook(6, 5), CompleteBipartite(2, 2)])
    def test_singular_distance_matrices(self, spec):
        d = all_pairs_distances(build_family(spec))
        assert det_exact(d) == naive_det(d) == 0


class TestInverse:
    def test_identity(self):
        assert inverse_exact(imat(4)) == imat(4)

    def test_two_by_two(self):
        m = RationalMatrix.from_rows([[2, 1], [1, 2]])
        expected = RationalMatrix.from_rows([
            [Fraction(2, 3), Fraction(-1, 3)],
            [Fraction(-1, 3), Fraction(2, 3)],
        ])
        assert inverse_exact(m) == expected

    def test_complete_graph_distance(self):
        # D(K_3) = J - I; inverse computed by the exact product check
        d = jmat(3, 3) - imat(3)
        inv = inverse_exact(d)
        half = Fraction(1, 2)
        expected = RationalMatrix.from_rows([
            [-half, half, half],
            [half, -half, half],
            [half, half, -half],
        ])
        assert inv == expected
        assert d * inv == imat(3)

    def test_singular_reports_rank(self):
        m = RationalMatrix.from_rows([[1, 2], [2, 4]])
        with pytest.raises(SingularMatrixError) as err:
            inverse_exact(m)
        assert err.value.rank == 1

    def test_zero_leading_pivot_forces_row_swap(self):
        m = RationalMatrix.from_rows([
            [0, Fraction(1, 2), 1],
            [2, 0, Fraction(1, 3)],
            [1, 1, 0],
        ])
        inv = inverse_exact(m)
        assert naive_product(m, inv) == imat(3).data
        assert naive_product(inv, m) == imat(3).data

    def test_negative_determinant(self):
        # det = -2, so the final fraction-free pivot is negative
        m = RationalMatrix.from_rows([[1, 2], [3, 4]])
        assert det_exact(m) < 0
        expected = RationalMatrix.from_rows([
            [-2, 1],
            [Fraction(3, 2), Fraction(-1, 2)],
        ])
        assert inverse_exact(m) == expected

    def test_one_by_one(self):
        m = RationalMatrix.from_rows([[Fraction(-3, 4)]])
        assert inverse_exact(m) == RationalMatrix.from_rows([[Fraction(-4, 3)]])

    def test_rational_rank_two_reports_rank(self):
        r1 = [Fraction(1, 2), Fraction(-2, 3), 1, Fraction(5, 7)]
        r2 = [3, Fraction(1, 4), Fraction(-1, 6), 0]
        m = RationalMatrix.from_rows([
            r1,
            r2,
            [x + y for x, y in zip(r1, r2)],
            [Fraction(x) / 2 - 3 * y for x, y in zip(r1, r2)],
        ])
        with pytest.raises(SingularMatrixError) as err:
            inverse_exact(m)
        assert err.value.rank == 2
        assert str(err.value) == "singular matrix (rank 2)"

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: rational_rows(n, n)))
    def test_rational_roundtrip_through_reference_product(self, rows):
        m = RationalMatrix.from_rows(rows)
        if det_exact(m) == 0:
            with pytest.raises(SingularMatrixError):
                inverse_exact(m)
            return
        inv = inverse_exact(m)
        n = m.rows
        assert naive_product(m, inv) == imat(n).data
        assert naive_product(inv, m) == imat(n).data

    def test_seeded_roundtrips(self):
        rng = Lcg(11)
        for _ in range(20):
            order = rng.randint(1, 8)
            a = random_invertible(rng, order)
            inv = inverse_exact(a)
            assert a * inv == imat(order)
            assert inv * a == imat(order)


class TestSymmetricInverse:
    @settings(max_examples=200, deadline=None)
    @given(symmetric_matrices())
    def test_symmetric_matches_reference(self, m):
        # inverse_exact sends every symmetric matrix to _inverse_symmetric,
        # so the general kernel is also called directly
        before = [row.copy() for row in m.num]
        expected = naive_inverse(m)
        if expected is None:
            expected = naive_rank(m)
            assert expected < m.rows
        assert inverse_or_rank(inverse_exact, m) == inverse_or_rank(_inverse_general, m) == expected
        assert m.num == before

    @pytest.mark.parametrize("rows, det", SYMMETRIC_REPAIRS)
    def test_symmetric_pivot_repairs(self, rows, det):
        m = RationalMatrix.from_rows(rows)
        expected = naive_inverse(m) if det else naive_rank(m)
        assert inverse_or_rank(_inverse_symmetric, m) == inverse_or_rank(inverse_exact, m) == expected

    def test_add_repair_reaches_finished_rows(self):
        # After step 0, entries (1, 1), (1, 2) and (3, 3) of the trailing
        # block are 0 and (1, 3) is 1, so step 1 adds row and column 3 to 1.
        # Column 1 of the finished row 0 must gain its column-3 entry too,
        # or back-substitution inverts a different matrix.
        m = RationalMatrix.from_rows([[1, 1, 1, 2], [1, 1, 1, 3], [1, 1, 3, 6], [2, 3, 6, 4]])
        inverse = naive_inverse(m)
        assert inverse is not None
        assert _inverse_symmetric(m).data == inverse_exact(m).data == inverse

    def test_swap_repair_reaches_finished_rows(self):
        # The same, but with (3, 3) nonzero, so step 1 swaps row and column
        # 3 with 1: row 0 exchanges its entries 1 and 3, and row 2, between
        # the two, exchanges its entries in columns 1 and 3.
        m = RationalMatrix.from_rows([[1, 1, 1, 2], [1, 1, 1, 3], [1, 1, 3, 6], [2, 3, 6, 5]])
        inverse = naive_inverse(m)
        assert inverse is not None
        assert _inverse_symmetric(m).data == inverse_exact(m).data == inverse

    def test_empty_and_one_by_one(self):
        assert inverse_exact(imat(0)) == _inverse_symmetric(imat(0)) == imat(0)
        m = RationalMatrix.from_rows([[Fraction(-3, 4)]])
        assert inverse_exact(m) == _inverse_symmetric(m) == RationalMatrix.from_rows([[Fraction(-4, 3)]])
        zero = zmat(1, 1)
        assert inverse_or_rank(_inverse_symmetric, zero) == inverse_or_rank(inverse_exact, zero) == 0

    @pytest.mark.parametrize("n", [2, 3, 5, 12, 30])
    def test_tree_distance_matrices(self, n):
        tree = build_family(Tree(random_tree_edges(n, Lcg(n))))
        d = all_pairs_distances(tree)
        assert inverse_exact(d) == _inverse_general(d) == tree_inverse(tree)

    def test_book_distance_matrix(self):
        d = all_pairs_distances(build_family(TnBook(8, 10)))
        assert d.rows == 71
        assert inverse_exact(d) == _inverse_general(d) == tnb_inverse(8, 10)

    @pytest.mark.parametrize("spec", [TnBook(6, 5), CompleteBipartite(2, 2)])
    def test_singular_distance_matrices(self, spec):
        d = all_pairs_distances(build_family(spec))
        assert inverse_or_rank(inverse_exact, d) == inverse_or_rank(_inverse_general, d) == naive_rank(d)


def inverse_or_none(m):
    """``inverse_exact(m)``, checked to be canonical, or None when it
    raises SingularMatrixError."""
    try:
        result = inverse_exact(m)
    except SingularMatrixError:
        return None
    assert_canonical(result)
    return result


class TestTwoAdicBackSubstitution:
    """``inverse_exact`` of a symmetric matrix, whose back-substitution
    holds the adjugate as a power of two times small integers, equals
    ``list_back_substitution``, whose entries are full integers."""

    @settings(max_examples=150, deadline=None)
    @given(symmetric_matrices(), st.integers(0, 40))
    def test_random_symmetric_and_times_a_power_of_two(self, m, k):
        # From 2^k with k*n >= 30 the adjugate's twos are sought.
        for scaled in (m, (1 << k) * m):
            assert inverse_or_none(scaled) == list_back_substitution(scaled)

    @settings(max_examples=30, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(packed_symmetric_matrices(), st.integers(0, 8))
    def test_packed_orders_and_times_a_power_of_two(self, m, k):
        for scaled in (m, (1 << k) * m):
            assert inverse_or_none(scaled) == list_back_substitution(scaled)

    # Rows and columns with different powers of two: the pivots carry twos
    # that the rest of their rows lack, so the exponent of the adjugate
    # falls during the back-substitution.
    @settings(max_examples=25, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(two_adic_symmetric_matrices())
    def test_two_adic(self, m):
        assert inverse_or_none(m) == list_back_substitution(m)

    @settings(max_examples=60, deadline=None)
    @given(repaired_symmetric_matrices())
    def test_swap_and_add_repairs(self, m):
        n = m.rows
        _, _, repairs = _bareiss_symmetric(m.num)
        assert [k for k, _, _ in repairs] == [n - 2]
        assert inverse_or_none(m) == list_back_substitution(m)

    @pytest.mark.parametrize("spec", [
        *[Tree(random_tree_edges(n, Lcg(n))) for n in (3, 16, 33, 64)],
        TnBook(4, 5), TnBook(8, 10), CompleteBipartite(3, 4),
    ], ids=repr)
    def test_distance_matrices(self, spec):
        d = all_pairs_distances(build_family(spec))
        expected = list_back_substitution(d)
        assert expected is not None
        assert inverse_exact(d) == expected

    @pytest.mark.parametrize("m", [
        imat(0), RationalMatrix.from_rows([[Fraction(-3, 4)]]), swap2(),
        RationalMatrix.from_rows([[2, 1], [1, 2]]), (1 << 40) * swap2(),
    ], ids=["order-0", "order-1", "order-2-add", "order-2", "order-2-add-times-2^40"])
    def test_orders_0_to_2(self, m):
        expected = list_back_substitution(m)
        assert expected is not None
        assert inverse_exact(m) == expected

    @pytest.mark.parametrize("m", [
        zmat(1, 1), RationalMatrix.from_rows([[1, 2], [2, 4]]),
        RationalMatrix.from_rows(SYMMETRIC_REPAIRS[4][0]),
        (1 << 35) * RationalMatrix.from_rows(SYMMETRIC_REPAIRS[4][0]),
        all_pairs_distances(build_family(TnBook(6, 5))),
        all_pairs_distances(build_family(CompleteBipartite(2, 2))),
    ], ids=["zero-1x1", "rank-1", "zero-row", "zero-row-times-2^35", "tn-book-6-5", "k22"])
    def test_singular(self, m):
        assert list_back_substitution(m) is None
        assert inverse_or_none(m) is None


class TestPackedElimination:
    """The steps of ``_bareiss_symmetric`` on packed rows give the rows and
    the repair log of ``list_bareiss_symmetric``."""

    # No shrink phase: shrinking these large examples takes minutes when the
    # packed elimination is wrong, and the unshrunk example fails just the
    # same.
    @settings(max_examples=60, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(packed_symmetric_matrices())
    def test_matches_list_reference(self, m):
        assert full_rows(_bareiss_symmetric(m.num)) == list_bareiss_symmetric(m.num)

    def test_repairs_inside_packed_phase(self):
        # a block diagonal of [[0, 1], [1, 0]]: every even step adds row and
        # column k+1 to k, also while the trailing block is packed
        n = 2 * _SYMMETRIC_PACK_MIN_ORDER
        m = RationalMatrix.block([[swap2() if i == j else zmat(2, 2) for j in range(n // 2)]
                                  for i in range(n // 2)])
        elim = full_rows(_bareiss_symmetric(m.num))
        assert elim == list_bareiss_symmetric(m.num)
        assert [k for k, _, _ in elim[1]] == list(range(0, n, 2))
        assert det_exact(m) == (-1) ** (n // 2)
        assert inverse_exact(m) == m

    # Tails whose repair or zero row comes at step n-2 or n-1, within the
    # last steps of a packed elimination: a swap and an add repair at n-2,
    # and (row 2 of the tail is twice row 1 minus row 0) a zero row at n-1.
    # The "even" cases take twice the matrix, which makes h's entries even,
    # so the trailing block is 2^e times its packed rows, e > 0, when the
    # repair or the all-zero 1x1 trailing block comes.
    @pytest.mark.parametrize("n, tail, is_swap, scale", [
        pytest.param(n, tail, is_swap, scale, id=name + ("-even" if scale == 2 else ""))
        for scale in (1, 2)
        for n, tail, is_swap, name in [
            (24, [[1, 1, 1], [1, 1, 2], [1, 2, 3]], True, "swap"),
            (27, [[1, 1, 1], [1, 1, 2], [1, 2, 1]], False, "add"),
            (30, [[1, 1, 1], [1, 2, 3], [1, 3, 5]], None, "zero-row"),
        ]
    ])
    def test_last_steps(self, n, tail, is_swap, scale):
        m = scale * congruent_tail(n, tail, n)
        elim = full_rows(_bareiss_symmetric(m.num))
        assert elim == list_bareiss_symmetric(m.num)
        if is_swap is None:
            assert elim is None
        else:
            assert elim[1] == [(n - 2, n - 1, is_swap)]
        assert det_exact(m) == naive_det(m)
        expected = naive_inverse(m)
        if expected is None:
            expected = naive_rank(m)
            assert expected == n - 1
        assert inverse_or_rank(inverse_exact, m) == expected

    def test_zero_trailing_row_in_packed_phase(self):
        # rows and columns 5 and 6 are equal, so row 6 of the trailing block
        # is all zero at step 6
        n = _SYMMETRIC_PACK_MIN_ORDER + 16
        rng = Lcg(5)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-50, 50)
        for j in range(n):
            rows[6][j] = rows[j][6] = rows[5][j]
        rows[6][6] = rows[5][5]
        m = RationalMatrix.from_rows(rows)
        assert _bareiss_symmetric(m.num) is None
        assert list_bareiss_symmetric(m.num) is None
        assert det_exact(m) == naive_det(m) == 0
        assert inverse_or_rank(inverse_exact, m) == naive_rank(m) == n - 1

    @settings(max_examples=25, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(two_adic_symmetric_matrices())
    def test_two_adic_matches_references(self, m):
        assert full_rows(_bareiss_symmetric(m.num)) == list_bareiss_symmetric(m.num)
        assert det_exact(m) == naive_det(m)

    @pytest.mark.parametrize("n", [24, 33, 57, 80])
    def test_seeded_tree_distance_matrices(self, n):
        # every Bareiss entry of a tree distance matrix at step k carries
        # about 2^(k-2), which the packed rows shed into their exponent
        d = all_pairs_distances(build_family(Tree(random_tree_edges(n, Lcg(n)))))
        assert full_rows(_bareiss_symmetric(d.num)) == list_bareiss_symmetric(d.num)
        assert det_exact(d) == naive_det(d)

    # At step 1 of "fewer-twos" the pivot row's entries carry at least 2^18
    # and the later rows' only 2^12, so the common power of two must be read
    # from every row.  At step 6 of "z-is-2e" the trailing block is 2^9
    # times its packed rows and the previous pivot carries 2^26, so the
    # division drops only z = 2e = 18 of its twos.
    @pytest.mark.parametrize("twos, bound", [
        pytest.param([6] * 6 + [0] * 18, 9, id="fewer-twos"),
        pytest.param([6 if i % 5 == 0 else 0 for i in range(26)], 3, id="z-is-2e"),
    ])
    def test_two_adic_named_cases(self, twos, bound):
        rng = Lcg(1)
        m = two_adic_symmetric(twos, lambda i, j: rng.randint(-bound, bound))
        assert full_rows(_bareiss_symmetric(m.num)) == list_bareiss_symmetric(m.num)
        assert det_exact(m) == naive_det(m)

    # A pivot row and the packed rows after it, of decreasing length as in
    # a trailing block, with their common power of two, read as 0 below 4.
    # A negative digit borrows from the slot above it; the least even digit
    # sits in the pivot row, the middle slot of a packed row or its top
    # slot, or has fewer than two twos.
    @pytest.mark.parametrize("pivot_row, rows, twos", [
        ([4, -8, 12, -20, 8], [[-4, 8, 0, 16], [12, 24, -4]], 2),
        ([-16, 8, -24, 16, -32], [[0, 0, -8, 0], [16, -16, 0]], 3),
        ([16, -16, 32, 16, -16], [[-16, 32, 0, 4], [0, 0, 0]], 2),
        ([-8, 0, 4, -8, 16], [[8, 3, 0, 8], [0, -16, 0]], 0),
        ([-8, 0, 4, -8, 16], [[8, 4, 0, 8], [0, -18, 0]], 0),
        ([-3, 8, 4, 0, 2], [[2, 4, -4, 8], [0, 4, 0]], 0),
        ([-2, 8, 4, 0, 2], [[2, 4, -4, 8], [0, 4, 0]], 0),
    ])
    @pytest.mark.parametrize("width", [16, 40])
    def test_common_twos_of_packed_rows(self, pivot_row, rows, twos, width):
        packed = [_pack(row, width) for row in rows]
        assert _common_twos(pivot_row, packed, 4, width) == twos

    @pytest.mark.parametrize("width", [24, 32, 64, 80])
    def test_extreme_entries_at_slot_boundary(self, width):
        # the largest magnitude whose slot width is exactly ``width``: every
        # entry -M, and entries +-M in a nonsingular sign pattern
        top = (1 << (width - 2 - _PACK_HEADROOM_BITS)) - 1
        n = _SYMMETRIC_PACK_MIN_ORDER + 8
        flat = RationalMatrix.from_rows([[-top] * n for _ in range(n)])
        assert _bareiss_symmetric(flat.num) is None
        assert det_exact(flat) == 0
        rng = Lcg(width)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = top if rng.randint(0, 1) else -top
        m = RationalMatrix.from_rows(rows)
        assert full_rows(_bareiss_symmetric(m.num)) == list_bareiss_symmetric(m.num)
        assert det_exact(m) == naive_det(m)

    # Widths up to 64 bits read rows of _CAST_MIN_SLOTS slots or more as
    # one int64 array; 72 and 128 take one int.from_bytes per slot.
    @pytest.mark.parametrize("width", [8, 16, 24, 32, 40, 48, 56, 64, 72, 128])
    def test_packed_rows_hold_full_slots(self, width):
        # digits at both ends of the balanced range, and around each byte's
        # sign bit, survive packing, unpacking, the rounding shift by one
        # slot and widening
        top = (1 << (width - 1)) - 1
        edges = [x * sign for b in range(width // 8) for x in (1 << (8 * b + 7), (1 << 8 * b + 7) - 1)
                 for sign in (1, -1) if abs(x) <= top]
        row = [top, -top, -top, 0, top, -1, 1, -top, top, *edges]
        row += [(-1) ** t * (top >> t) for t in range(_CAST_MIN_SLOTS)]
        r = _pack(row, width)
        assert _unpack(r, len(row), width) == row
        half = 1 << (width - 1)
        for s in range(1, len(row)):
            r = (r + half) >> width
            assert _unpack(r, len(row) - s, width) == row[s:]
        assert _unpack(_widen(_pack(row, width), len(row), width, width + 24), len(row), width + 24) == row

    # The int64 array holds the slots' little-endian bytes only on a
    # little-endian host, so elsewhere every row takes the slice loop, which
    # reads the same entries.
    @pytest.mark.parametrize("width", [24, 64])
    def test_unpack_cast_only_on_a_little_endian_host(self, width, monkeypatch):
        assert packing._CAST_UNPACK == (sys.byteorder == "little")
        top = (1 << (width - 1)) - 1
        row = [(-1) ** t * (top >> t % 5) for t in range(40)]
        r = _pack(row, width)
        monkeypatch.setattr(packing, "_CAST_UNPACK", False)
        assert _unpack(r, len(row), width) == row

    def test_oracle_scaling_matrices(self):
        # the matrices whose determinants perfbench's oracle-scaling runs
        tree = build_family(Tree(random_tree_edges(200, Lcg(42))))
        d = all_pairs_distances(tree)
        assert d.rows >= _SYMMETRIC_PACK_MIN_ORDER
        assert det_exact(d) == tree_det(tree)
        assert inverse_exact(d) == tree_inverse(tree)
        book = all_pairs_distances(build_family(TnBook(8, 20)))
        assert det_exact(book) == tnb_det(8, 20)
        assert inverse_exact(book) == tnb_inverse(8, 20)


class TestDeferredDivision:
    """The packed elimination, which holds each trailing row times the
    product c of the divisions still pending, gives the rows and the repair
    log of ``list_bareiss_symmetric`` on each path: c growing over several
    steps, a repair or a widening while c != 1, and c staying 1, under
    ``proper_reads``."""

    @settings(max_examples=25, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(packed_distance_matrices())
    def test_tree_and_book_distance_matrices(self, d):
        with proper_reads():
            assert full_rows(_bareiss_symmetric(d.num)) == list_bareiss_symmetric(d.num)

    # An odd constant adds its powers to every pivot, so c * d crosses a
    # digit at other steps, some of them widenings.
    @settings(max_examples=25, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(packed_distance_matrices(), st.sampled_from([3, 5, 7, 9, 15, 99, -3]))
    def test_times_an_odd_constant(self, d, odd):
        m = odd * d
        with proper_reads():
            assert full_rows(_bareiss_symmetric(m.num)) == list_bareiss_symmetric(m.num)

    # About a quarter of these repairs come while c != 1 (seen by logging c
    # at each repair).
    @settings(max_examples=40, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(repaired_symmetric_matrices(min_order=_SYMMETRIC_PACK_MIN_ORDER))
    def test_repairs_at_packed_orders(self, m):
        with proper_reads():
            elim = full_rows(_bareiss_symmetric(m.num))
        assert elim == list_bareiss_symmetric(m.num)
        assert [k for k, _, _ in elim[1]] == [m.rows - 2]

    # Entries of 31-40 bits whose pivots have odd parts wider than a digit:
    # every d from step 1 on exceeds a digit, so c stays 1 and every step
    # divides.
    @settings(max_examples=15, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(st.integers(_SYMMETRIC_PACK_MIN_ORDER, _SYMMETRIC_PACK_MIN_ORDER + 12),
           st.randoms(use_true_random=False))
    def test_divisors_beyond_a_digit(self, n, rng):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.choice([1, -1]) * rng.randint(1 << 31, 1 << 40)
        expected = list_bareiss_symmetric(rows)
        assume(expected is not None and not expected[1])
        pivots = [row[0] for row in expected[0]]
        assume(all(abs(p >> (p & -p).bit_length() - 1) >> linalg._DIGIT_BITS for p in pivots[:-1]))
        with proper_reads():
            assert full_rows(_bareiss_symmetric(rows)) == expected

    # Found by logging c and d at each widening: at step 5
    # of five times this order-24 tree's distance matrix, c = 937500000 is
    # pending, c * d = 937500000 * 100000 no longer fits a digit, and the
    # 32-bit slots widen, so the block is divided by c before its twos are
    # read and before it widens.
    def test_crossing_a_digit_at_a_widening(self):
        m = 5 * all_pairs_distances(build_family(Tree(random_tree_edges(24, Lcg(24)))))
        with proper_reads():
            elim = full_rows(_bareiss_symmetric(m.num))
        assert elim == list_bareiss_symmetric(m.num)
        assert det_exact(m) == naive_det(m)
        assert inverse_exact(m) == list_back_substitution(m)


# Matrices whose elimination skips a pivotless column, with their ranks.
SKIPPED_COLUMNS = [
    # a zero first column
    (RationalMatrix.from_rows([[0, 1, 2], [0, 3, 4], [0, 5, 7]]), 2),
    # column 1 is twice column 0, so it has no pivot after step 0
    (RationalMatrix.from_rows([[1, 2, 0, 1], [2, 4, 1, 0], [3, 6, 1, 2], [1, 2, 1, 1]]), 3),
    # only the first of five columns pivots
    (jmat(2, 5), 1),
    (imat(0), 0),
    (zmat(1, 1), 0),
]


class TestRank:
    def test_full(self):
        assert rank(imat(3)) == 3

    def test_ones(self):
        assert rank(jmat(4, 4)) == 1

    def test_rectangular(self):
        assert rank(jmat(2, 5)) == 1

    @pytest.mark.parametrize("m, expected", SKIPPED_COLUMNS)
    def test_skipped_columns(self, m, expected):
        assert rank(m) == naive_rank(m) == expected
        if m.is_square:
            assert kernel_det(_det_general, m) == naive_det(m)
            inverse = naive_inverse(m) if expected == m.rows else expected
            assert inverse_or_rank(_inverse_general, m) == inverse

    @settings(max_examples=100, deadline=None)
    @given(general_matrices())
    def test_general_square_matches_reference(self, m):
        expected_rank = naive_rank(m)
        before = [row.copy() for row in m.num]
        assert rank(m) == expected_rank
        assert kernel_det(_det_general, m) == naive_det(m)
        expected = naive_inverse(m)
        if expected is None:
            expected = expected_rank
            assert expected < m.rows
        assert inverse_or_rank(_inverse_general, m) == expected
        assert m.num == before

    @settings(max_examples=100, deadline=None)
    @given(general_matrices(square=False))
    def test_general_rectangular_matches_reference(self, m):
        assert rank(m) == naive_rank(m)


class TestCharPoly:
    def test_zero_matrix(self):
        poly = char_poly_exact(zmat(2, 2))
        assert poly.coeffs == (Fraction(0), Fraction(0), Fraction(1))

    def test_swap(self):
        poly = char_poly_exact(swap2())
        assert poly.coeffs == (Fraction(-1), Fraction(0), Fraction(1))

    def test_ones_matrix(self):
        # eigenvalues 3, 0, 0; frozen by evaluating det(xI - J_3) at samples
        poly = char_poly_exact(jmat(3, 3))
        assert poly.coeffs == (Fraction(0), Fraction(0), Fraction(-3), Fraction(1))
        for x in (0, 1, 2, 4):
            assert poly.evaluate(x) == det_exact(x * imat(3) - jmat(3, 3))

    def test_rational_matrix(self):
        m = RationalMatrix.from_rows([[Fraction(1, 2), 1], [0, Fraction(1, 3)]])
        poly = char_poly_exact(m)
        assert poly.evaluate(Fraction(1, 2)) == 0
        assert poly.evaluate(Fraction(1, 3)) == 0

    @settings(max_examples=30, deadline=None)
    @given(small_int_matrix(4), st.integers(-3, 3))
    def test_matches_shifted_determinant(self, m, x):
        assert char_poly_exact(m).evaluate(x) == det_exact(x * imat(4) - m)

    @settings(max_examples=60, deadline=None)
    @given(square_rationals)
    def test_matches_faddeev_leverrier(self, m):
        assert char_poly_exact(m).coeffs == faddeev_leverrier(m)

    @pytest.mark.parametrize("rows", [
        pytest.param([[Fraction(-7, 3)]], id="1x1"),
        pytest.param([[Fraction(1, 2), 3], [Fraction(-2, 5), 4]], id="2x2"),
        pytest.param([[0] * 5] * 5, id="zero"),
        # nothing below the subdiagonal of column 0 to pivot on: reducible
        pytest.param([[1, 2, 3, 4], [0, 5, 6, 7], [0, 8, 9, 1], [0, 2, 3, 4]], id="no-pivot"),
        # zero subdiagonal entry in column 0: the pivot row and column swap in
        pytest.param([[1, 2, 3], [0, 4, 5], [6, 7, 8]], id="swap"),
        pytest.param([[0, 0, 5, 1], [Fraction(1, 2), 0, 0, 2], [0, 0, 1, 3], [0, 3, 0, 0]],
                     id="swap-twice"),
        # N^3 = 0 with no zero entry below the diagonal
        pytest.param([[1, 1, 3], [5, 2, 6], [-2, -1, -3]], id="nilpotent"),
    ])
    def test_matches_faddeev_leverrier_on_edge_cases(self, rows):
        m = RationalMatrix.from_rows(rows)
        assert char_poly_exact(m).coeffs == faddeev_leverrier(m)

    def test_edge_case_values(self):
        def coeffs(rows):
            return char_poly_exact(RationalMatrix.from_rows(rows)).coeffs

        assert coeffs([[Fraction(-7, 3)]]) == (Fraction(7, 3), 1)
        assert coeffs([[Fraction(1, 2), 3], [Fraction(-2, 5), 4]]) == (
            Fraction(16, 5), Fraction(-9, 2), 1
        )
        assert coeffs([[0] * 5] * 5) == (0, 0, 0, 0, 0, 1)
        assert coeffs([[1, 1, 3], [5, 2, 6], [-2, -1, -3]]) == (0, 0, 0, 1)
        tail = [[5, 6, 7], [8, 9, 1], [2, 3, 4]]
        assert char_poly_exact(
            RationalMatrix.from_rows([[1, 2, 3, 4]] + [[0] + row for row in tail])
        ) == CharPoly.linear(1) * char_poly_exact(RationalMatrix.from_rows(tail))

    @pytest.mark.parametrize("part", PARTS)
    def test_matches_faddeev_leverrier_on_book_parts(self, part):
        for n in range(3 if part == "B" else 4, 8):
            for b in (2, 3):
                m = principal_submatrix(part, n, b)
                assert char_poly_exact(m).coeffs == faddeev_leverrier(m), (part, n, b)

    def test_pretty_printing(self):
        poly = CharPoly((Fraction(-16), Fraction(-2), Fraction(1)))
        assert str(poly) == "x^2 - 2*x - 16"

    def test_division(self):
        product = CharPoly.linear(2) * CharPoly.linear(-3) * CharPoly.linear(5)
        quotient, remainder = product.divide_by(CharPoly.linear(-3))
        assert remainder == (Fraction(0),)
        assert quotient == CharPoly.linear(2) * CharPoly.linear(5)

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            CharPoly((Fraction(1), Fraction(2)))


def monic_polys(max_degree):
    return st.lists(rationals, max_size=max_degree).map(
        lambda coeffs: CharPoly(tuple(coeffs) + (Fraction(1),))
    )


class TestCharPolyArithmetic:
    @settings(max_examples=100, deadline=None)
    @given(monic_polys(6), monic_polys(6))
    def test_product_matches_reference(self, p, q):
        product = p * q
        assert product.coeffs == naive_poly_product(p.coeffs, q.coeffs)
        assert all(type(c) is Fraction for c in product.coeffs)

    @settings(max_examples=40, deadline=None)
    @given(monic_polys(3), st.integers(0, 40))
    def test_power_matches_reference(self, p, exponent):
        expected = (Fraction(1),)
        for _ in range(exponent):
            expected = naive_poly_product(expected, p.coeffs)
        power = p ** exponent
        assert power.coeffs == expected
        assert all(type(c) is Fraction for c in power.coeffs)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            CharPoly.linear(2) ** -1

    @pytest.mark.parametrize("part", PARTS)
    def test_claimed_spectra_match_reference(self, part):
        for n in range(3 if part == "B" else 4, 11):
            for b in range(2, 6):
                claim = claimed_spectrum(part, n, b)
                linear = (Fraction(1),)
                for value, mult in claim.pairs:
                    for _ in range(mult):
                        linear = naive_poly_product(linear, (-value, Fraction(1)))
                assert claim.linear_factors().coeffs == linear, (part, n, b)
                full = linear
                if claim.quadratic is not None:
                    full = naive_poly_product(linear, claim.quadratic.coeffs)
                assert claim.char_poly().coeffs == full, (part, n, b)


class TestSchurInverse:
    def test_block_diagonal(self):
        a = RationalMatrix.from_rows([[2, 0], [0, 3]])
        c = RationalMatrix.from_rows([[5]])
        full = RationalMatrix.block([[a, zmat(2, 1)], [zmat(1, 2), c]])
        assert schur_inverse(a, zmat(2, 1), zmat(1, 2), c) == inverse_exact(full)

    def test_star_distance_partition(self):
        # D(K_{n,1}) split along the leaf block; the hub corner of the
        # inverse is -2(n-1)/n, e.g. -4/3 at n=3
        n = 3
        b11 = 2 * (jmat(n, n) - imat(n))
        b12 = ones_col(n)
        b21 = b12.transpose()
        b22 = zmat(1, 1)
        inv = schur_inverse(b11, b12, b21, b22)
        assert inv.data[n][n] == Fraction(-4, 3)
        full = RationalMatrix.block([[b11, b12], [b21, b22]])
        assert inv == inverse_exact(full)

    def test_seeded_oracle_equivalence(self):
        rng = Lcg(23)
        for _ in range(10):
            m = random_matrix(rng, 6, 6)
            lead = m.submatrix([0, 1, 2])
            if det_exact(m) == 0 or det_exact(lead) == 0:
                continue
            head, rest = [0, 1, 2], [3, 4, 5]
            assembled = schur_inverse(
                lead,
                m.submatrix(head, rest),
                m.submatrix(rest, head),
                m.submatrix(rest, rest),
            )
            assert assembled == inverse_exact(m)

    def test_singular_leading_block(self):
        with pytest.raises(SingularMatrixError, match="leading block singular"):
            schur_inverse(zmat(1, 1), jmat(1, 1), jmat(1, 1), zmat(1, 1))

    def test_singular_schur_complement(self):
        # [[1, 1], [1, 1]] has invertible leading block but zero complement
        one = jmat(1, 1)
        with pytest.raises(SingularMatrixError, match="schur complement singular"):
            schur_inverse(one, one, one, one)


class TestRankOneUpdate:
    def test_identity_plus_ones(self):
        result = rank_one_update_inverse(imat(2), jmat(2, 2))
        expected = RationalMatrix.from_rows([
            [Fraction(2, 3), Fraction(-1, 3)],
            [Fraction(-1, 3), Fraction(2, 3)],
        ])
        assert result == expected

    def test_bipartite_schur_trace(self):
        # the m = n = 3 complete-bipartite reduction: g = -mn/(4(n-1)(m-1))
        a = 2 * (jmat(3, 3) - imat(3))
        update = Fraction(-3, 4) * jmat(3, 3)
        a_inv = inverse_exact(a)
        g = (update * a_inv).trace()
        assert g == Fraction(-9, 16)
        assert rank_one_update_inverse(a_inv, update) == inverse_exact(a + update)

    def test_seeded_oracle_equivalence(self):
        rng = Lcg(31)
        for _ in range(10):
            a = random_invertible(rng, 5)
            while True:
                update = random_rank_one(rng, 5)
                if det_exact(a + update) != 0:
                    break
            result = rank_one_update_inverse(inverse_exact(a), update)
            assert result == inverse_exact(a + update)

    def test_rejects_higher_rank(self):
        with pytest.raises(ValueError, match="rank exactly 1"):
            rank_one_update_inverse(imat(2), imat(2))

    def test_rejects_singular_update(self):
        # A = I, B = -uu^t with |u|^2 = 1 makes A + B singular (g = -1)
        update = RationalMatrix.from_rows([[-1, 0], [0, 0]])
        with pytest.raises(ValueError, match="singular"):
            rank_one_update_inverse(imat(2), update)


class TestAibjAnalysis:
    def test_doubled_ones_minus_identity(self):
        analysis = aibj_analysis(-2, 2, 3)
        assert analysis.det == 16
        assert analysis.eigs.pairs == ((Fraction(-2), 2), (Fraction(4), 1))
        matrix = -2 * imat(3) + 2 * jmat(3, 3)
        assert char_poly_exact(matrix) == analysis.eigs.char_poly()

    def test_plain_identity(self):
        analysis = aibj_analysis(1, 0, 4)
        assert analysis.det == 1
        assert analysis.inverse == imat(4)

    def test_singular_boundary(self):
        analysis = aibj_analysis(2, -1, 2)
        assert analysis.det == 0
        assert analysis.inverse is None

    def test_rejects_zero_a(self):
        with pytest.raises(ValueError):
            aibj_analysis(0, 1, 3)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(-3, 3).filter(bool),
        st.integers(-3, 3),
        st.integers(2, 6),
    )
    def test_grid_against_oracles(self, a, b, n):
        analysis = aibj_analysis(a, b, n)
        matrix = a * imat(n) + b * jmat(n, n)
        assert analysis.det == det_exact(matrix)
        if a + n * b != 0:
            assert matrix * analysis.inverse == imat(n)


class TestExchangeAndOnesIdentities:
    def test_swap_squares_to_identity(self):
        assert swap2() * swap2() == imat(2)

    @pytest.mark.parametrize("r", range(2, 7))
    @pytest.mark.parametrize("s", range(2, 7))
    def test_ones_absorb_swap(self, r, s):
        assert swap2() * jmat(2, s) == jmat(2, s)
        assert jmat(r, 2) * swap2() == jmat(r, 2)

    def test_swap_conjugation(self):
        assert swap2() * jmat(2, 2) * swap2() == jmat(2, 2)

    @pytest.mark.parametrize("t", range(2, 7))
    def test_ones_products(self, t):
        for r in (2, 4, 6):
            for s in (3, 5):
                assert jmat(r, t) * jmat(t, s) == t * jmat(r, s)


class TestSpectrumClaim:
    def test_canonicalization(self):
        claim = SpectrumClaim.make([(2, 1), (Fraction(2), 2), (5, 0)])
        assert claim.pairs == ((Fraction(2), 3),)

    def test_total_order_counts_quadratic(self):
        quad = CharPoly((Fraction(-16), Fraction(-2), Fraction(1)))
        claim = SpectrumClaim.make([(1, 2)], quad)
        assert claim.total_order == 4
        assert claim.trace_sum() == 2 + 2  # eigenvalue sum plus quadratic root sum

    def test_rejects_non_quadratic_factor(self):
        with pytest.raises(ValueError):
            SpectrumClaim.make([(1, 1)], CharPoly.linear(3))


def test_rational_str():
    assert rational_str(Fraction(3)) == "3"
    assert rational_str(Fraction(-1, 2)) == "-1/2"


def test_block_assembly_and_submatrix():
    m = RationalMatrix.block([
        [imat(2), jmat(2, 1)],
        [zmat(1, 2), 3 * imat(1)],
    ])
    assert m.rows == m.cols == 3
    assert m.data[0] == [1, 0, 1]
    assert m.data[2] == [0, 0, 3]
    assert m.submatrix([0, 2]) == RationalMatrix.from_rows([[1, 1], [0, 3]])
    assert m.transpose().data[2] == [1, 1, 3]
    # empty blocks (2x0, 0x2, 0x0) contribute nothing: the book displays
    # rely on this at n = 3, where their (n-3)-sized blocks vanish
    assert RationalMatrix.block([
        [imat(2), jmat(2, 0)],
        [jmat(0, 2), imat(0)],
    ]) == imat(2)
    assert RationalMatrix.block([[ones_col(2)], [zmat(0, 1)]]) == ones_col(2)


def test_block_width_comes_from_the_blocks():
    # a zero-height block row carries its width in its blocks' cols
    assert RationalMatrix.block([[zmat(0, 2)], [imat(2)]]) == imat(2)
    with pytest.raises(ValueError, match="block column widths differ"):
        RationalMatrix.block([[imat(2), zmat(2, 1)], [zmat(0, 2), zmat(0, 3)]])


def test_is_symmetric_compares_values():
    # equal entries that are distinct objects, and one shared object
    assert RationalMatrix(2, 2, [[Fraction(0), Fraction(1, 2)], [Fraction(2, 4), Fraction(0)]]).is_symmetric()
    assert jmat(3, 3).is_symmetric()
    assert not RationalMatrix.from_rows([[0, 1], [2, 0]]).is_symmetric()
    assert not jmat(2, 3).is_symmetric()
    assert imat(0).is_symmetric()
