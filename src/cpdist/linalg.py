"""Exact rational dense linear algebra.

Everything in here is tolerance-free.  A ``RationalMatrix`` is integer rows
over one denominator in lowest terms, so sums, scalings, products and
comparisons are integer operations plus at most one gcd pass, and the
kernels read the integer rows directly: det(m) = det(num) / den^n and
m^-1 = den * num^-1.  ``Fraction`` appears only at the boundary.
Determinants, ranks and inverses come from fraction-free Bareiss
elimination (inverses by fraction-free back-substitution, a symmetric
matrix's adjugate held as a power of two times small integers, and one
division by the last pivot), characteristic polynomials from a reduction
to upper Hessenberg form by similarity and the Hessenberg recurrence (both
O(n^3)).
The shape of the input alone picks the elimination: a symmetric matrix,
such as every distance matrix, is eliminated on its upper triangle only (a
zero pivot is repaired by swapping or adding a later row and column), from
order 24 on with each trailing row packed into one int (Kronecker
substitution) and the block's common power of two held as one exponent;
any other matrix is eliminated in full by one routine that skips
pivotless columns.  These routines double as the brute-force oracles for
every closed-form formula in the package, so they are generic dense
algorithms and share no shortcut with the closed forms they check.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, eq, mul, sub
from typing import Iterable, Optional, Sequence, Union

from .packing import _common_twos, _pack, _slot_width, _twos, _unpack, _widen

Entry = Union[int, Fraction]

# _bareiss_symmetric packs its trailing rows into ints from this order on
# (measured in det_exact's docstring).
_SYMMETRIC_PACK_MIN_ORDER = 24
# _inverse_symmetric seeks the adjugate's common twos only when det has at
# least one int digit of them: fewer save no digit of any product.
_DIGIT_BITS = sys.int_info.bits_per_digit


class SingularMatrixError(ValueError):
    """Exact inverse requested for a singular matrix; carries the rank."""

    def __init__(self, message: str, rank: int):
        super().__init__(f"{message} (rank {rank})")
        self.rank = rank


def rational_str(q: Fraction) -> str:
    """Serialize exactly: ``p/q``, or just ``p`` for integers."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class RationalMatrix:
    """Dense rational matrix stored as integer rows over one denominator.

    Entry (i, j) is ``num[i][j] / den``, in the canonical form ``den > 0``
    and gcd(den, every numerator) = 1, so ``==`` compares ``num`` and
    ``den`` with no ``Fraction``.  Matrices are never changed in place, so
    results may share row lists and int objects with their operands.
    ``Fraction`` appears only at the boundary: ``m[i, j]``, ``entries()``,
    ``trace()`` and ``data``, a lazy sequence of ``Fraction`` rows that
    builds a row only when it is read.  The plain constructor clears rows of
    ints or Fractions by the LCM of their denominators, which is canonical;
    ``from_rows`` also checks the shape.  Indices are 0-based.
    """

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, rows: int, cols: int, data: Sequence[Sequence[Entry]]):
        den = lcm(*[e.denominator for row in data for e in row])
        self.rows, self.cols, self.den = rows, cols, den
        self.num = [[e.numerator * (den // e.denominator) for e in row] for row in data]

    @classmethod
    def _of(cls, rows: int, cols: int, num: list, den: int = 1) -> "RationalMatrix":
        """The matrix ``num / den``, trusted to be canonical."""
        m = object.__new__(cls)
        m.rows, m.cols, m.num, m.den = rows, cols, num, den
        return m

    @classmethod
    def _reduced(cls, rows: int, cols: int, num: list, den: int) -> "RationalMatrix":
        """The matrix ``num / den`` for any nonzero den, made canonical."""
        g = _content(num, den) * (1 if den > 0 else -1)
        if g != 1:
            num = [[x // g for x in row] for row in num]
            den //= g
        return cls._of(rows, cols, num, den)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Entry]]) -> "RationalMatrix":
        data = [list(map(Fraction, row)) for row in rows]
        if not data or not data[0]:
            raise ValueError("matrix needs at least one row and column")
        cols = len(data[0])
        if any(len(row) != cols for row in data):
            raise ValueError("ragged rows")
        return cls(len(data), cols, data)

    @classmethod
    def block(cls, grid: Sequence[Sequence["RationalMatrix"]]) -> "RationalMatrix":
        """Assemble from a 2-d grid of conformal blocks over the LCM of their
        denominators, which is canonical because each block is."""
        den = lcm(*[b.den for block_row in grid for b in block_row])
        num = []
        cols = None
        for block_row in grid:
            height = block_row[0].rows
            if any(b.rows != height for b in block_row):
                raise ValueError("block row heights differ")
            width = sum(b.cols for b in block_row)
            if cols is None:
                cols = width
            elif width != cols:
                raise ValueError("block column widths differ")
            parts = [_rescaled(b.num, den // b.den) for b in block_row]
            num += [[x for part in parts for x in part[i]] for i in range(height)]
        return cls._of(len(num), cols or 0, num, den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.den, self.num) == (other.rows, other.cols, other.den, other.num)

    __hash__ = None  # compared by value, like a list

    def __repr__(self) -> str:
        if self.rows * self.cols > 36:
            return f"RationalMatrix({self.rows}x{self.cols})"
        body = "; ".join(" ".join(rational_str(Fraction(x, self.den)) for x in row) for row in self.num)
        return f"RationalMatrix({self.rows}x{self.cols}: {body})"

    def __getitem__(self, key: tuple) -> Fraction:
        i, j = key
        return Fraction(self.num[i][j], self.den)

    @property
    def data(self) -> "_FractionRows":
        return _FractionRows(self)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        num = self.num
        return self.is_square and all(tuple(row) == col for row, col in zip(num, zip(*num)))

    def transpose(self) -> "RationalMatrix":
        num = [list(col) for col in zip(*self.num)] if self.rows else [[] for _ in range(self.cols)]
        return RationalMatrix._of(self.cols, self.rows, num, self.den)

    def trace(self) -> Fraction:
        if not self.is_square:
            raise ValueError("trace requires a square matrix")
        return Fraction(sum(row[i] for i, row in enumerate(self.num)), self.den)

    def submatrix(self, row_idx: Sequence[int], col_idx: Optional[Sequence[int]] = None) -> "RationalMatrix":
        if col_idx is None:
            col_idx = row_idx
        num = [[row[j] for j in col_idx] for row in map(self.num.__getitem__, row_idx)]
        return RationalMatrix._reduced(len(row_idx), len(col_idx), num, self.den)

    def entries(self) -> Iterable[Fraction]:
        return (Fraction(x, self.den) for row in self.num for x in row)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._combine(other, add)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._combine(other, sub)

    def _combine(self, other: "RationalMatrix", op) -> "RationalMatrix":
        """``op`` (add or sub) of self and other, entrywise over the LCM of
        the two denominators."""
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("matrix dimensions differ")
        den = lcm(self.den, other.den)
        pairs = zip(_rescaled(self.num, den // self.den), _rescaled(other.num, den // other.den))
        num = [list(map(op, a, b)) for a, b in pairs]
        return RationalMatrix._reduced(self.rows, self.cols, num, den)

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix._of(self.rows, self.cols, [[-x for x in row] for row in self.num], self.den)

    def __mul__(self, other):
        if isinstance(other, RationalMatrix):
            if self.cols != other.rows:
                raise ValueError(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
                )
            cols = list(zip(*other.num)) if other.rows else [()] * other.cols
            num = [[sum(map(mul, row, col)) for col in cols] for row in self.num]
            return RationalMatrix._reduced(self.rows, other.cols, num, self.den * other.den)
        return self._scale(other)

    def __rmul__(self, other):
        return self._scale(other)

    def __truediv__(self, other):
        return self._scale(1 / Fraction(other))

    def _scale(self, factor) -> "RationalMatrix":
        """factor * self: with factor = p/q in lowest terms, gcd(p, den) and
        gcd(q, every numerator) cancel, and what is left is canonical."""
        f = Fraction(factor)
        p, q = f.numerator, f.denominator
        if p == 0:
            return zmat(self.rows, self.cols)
        g, h = gcd(p, self.den), _content(self.num, q)
        num = self.num if h == 1 else [[x // h for x in row] for row in self.num]
        return RationalMatrix._of(
            self.rows, self.cols, _rescaled(num, p // g), self.den // g * (q // h)
        )


class _FractionRows:
    """The rows of a ``RationalMatrix`` as lists of ``Fraction``, each built
    when it is read, with one ``Fraction`` per distinct value: a sequence
    with ``len``, indexing (negative indexes too) and iteration, equal to
    any list or tuple of equal rows."""

    __slots__ = ("_m",)

    def __init__(self, m: RationalMatrix):
        self._m = m

    def __len__(self) -> int:
        return self._m.rows

    def __getitem__(self, i: int) -> list:
        row, den = self._m.num[i], self._m.den
        values = {x: Fraction(x, den) for x in set(row)}
        return list(map(values.__getitem__, row))

    def __iter__(self):
        return map(self.__getitem__, range(self._m.rows))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, tuple, _FractionRows)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return repr(list(self))


def _content(num: list, g: int) -> int:
    """gcd of g and every entry of the integer rows ``num``, up to 1."""
    for row in num:
        if g == 1:
            break
        g = gcd(g, *row)
    return g


def _rescaled(num: list, factor: int) -> list:
    """The integer rows ``num`` times ``factor`` (themselves for 1)."""
    if factor == 1:
        return num
    return [[x * factor for x in row] for row in num]


def imat(n: int) -> RationalMatrix:
    """Identity matrix of order n."""
    return RationalMatrix._of(n, n, [[int(i == j) for j in range(n)] for i in range(n)])


def jmat(rows: int, cols: int) -> RationalMatrix:
    """All-ones matrix."""
    return RationalMatrix._of(rows, cols, [[1] * cols for _ in range(rows)])


def zmat(rows: int, cols: int) -> RationalMatrix:
    return RationalMatrix._of(rows, cols, [[0] * cols for _ in range(rows)])


def ones_col(n: int) -> RationalMatrix:
    return jmat(n, 1)


def swap2() -> RationalMatrix:
    """The 2x2 exchange matrix (zero diagonal, ones off it)."""
    return RationalMatrix._of(2, 2, [[0, 1], [1, 0]])


def _clear_rows(rows: Iterable[Sequence[Entry]]) -> tuple:
    """Clear each row to integers: ``(int_rows, scales)`` with
    ``int_rows[i] == scales[i] * rows[i]`` and ``scales[i]`` the LCM of row
    i's denominators (the coefficient lists of ``CharPoly``)."""
    int_rows, scales = [], []
    for row in rows:
        l = lcm(*[e.denominator for e in row])
        int_rows.append([e.numerator * (l // e.denominator) for e in row])
        scales.append(l)
    return int_rows, scales


def det_exact(m: RationalMatrix) -> Fraction:
    """Exact determinant by fraction-free Bareiss elimination of the integer
    rows: det(m) = det(num) / den^n, and 1 for the 0x0 matrix.

    Every symmetric matrix (every distance matrix, and the 0x0 and 1x1
    ones) takes ``_det_symmetric``, which updates only the upper triangle
    and repairs a zero pivot by a symmetric swap or addition.  Every other
    matrix is reduced in full, with the first nonzero entry of each column
    as its pivot.

    From order ``_SYMMETRIC_PACK_MIN_ORDER`` = 24 the half-triangle path
    packs each trailing row into one int (``_bareiss_packed``) for every
    step, so a row update costs a few bigint operations instead of one
    interpreted operation per entry.  On seed-42 tree distance matrices
    (2-vCPU VM, Python 3.11, medians of 7 timing samples) the packed
    elimination takes 2.4x the time of list rows at order 8, 1.3x at 16,
    1.08x at 20, 0.97x at 24, 0.73x at 32, 0.52x at 50 and 0.33-0.34x at
    100 and 200.  The packed rows also shed the powers of two that every
    Bareiss entry of a distance matrix carries (about 2^(k-2) at step k of
    a tree's) into one exponent of the block, so each row is divided by
    the odd part of the previous pivot rather than by all of it; the
    result is the same integer.  That odd part is a few bits wide, so the
    division also waits while the pending divisors fit one int digit: each
    trailing row is held times their product, and divided exactly by it
    before any of its slots is read.  With it, and with unpacking through one
    int64 array, the determinant takes 0.71x the time of dividing at every
    step on the order-200 tree, 0.74x on the order-100 tree and 0.76x on
    the order-141 book, lower in 9-10 of 10 fresh-process pairs, and
    1.00-1.01x on random symmetric matrices of orders 30-100
    (``BENCH_23.json``, medians of the per-pair ratios).
    """
    if not m.is_square:
        raise ValueError("determinant requires a square matrix")
    if m.is_symmetric():
        return Fraction(_det_symmetric(m.num), m.den ** m.rows)
    return Fraction(_det_general(m.num), m.den ** m.rows)


def _det_general(num: list) -> int:
    """Bareiss determinant of the square integer matrix ``num`` from
    ``_bareiss_general``: 0 unless every column pivots."""
    n = len(num)
    a = [row.copy() for row in num]
    r, sign = _bareiss_general(a, n)
    if r < n:
        return 0
    return sign * a[-1][-1] if n else 1


def _bareiss_general(a: list, width: int) -> tuple:
    """Bareiss elimination of the integer rows ``a`` in place, with row
    swaps; returns ``(rank, sign)``, the number of pivots and the sign of
    the row permutation.

    Step r pivots on the first nonzero entry p at or below row r in the
    next column c < ``width`` that has one (later columns ride along), and
    every later row i becomes a_ij <- (p*a_ij - a_ic*a_rj) // prev for
    j > c, with prev the previous pivot.  A column with no pivot is skipped,
    as in the fraction-free echelon form of Nakos, Turner and Williams
    (1997): its entries from row r down are 0 and are never read again, so
    every entry is still a minor (Sylvester's identity) and every division
    exact.  At full rank on the first n = len(a) columns the leading block
    ends upper triangular, its last pivot sign * its determinant.
    """
    n = len(a)
    r, sign, prev = 0, 1, 1
    for c in range(width):
        piv = next((i for i in range(r, n) if a[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        row_r = a[r]
        p, end = row_r[c], len(row_r)
        for row_i in a[r + 1:]:
            f = row_i[c]
            for j in range(c + 1, end):
                row_i[j] = (row_i[j] * p - f * row_r[j]) // prev
            row_i[c] = 0
        prev = p
        r += 1
        if r == n:
            break
    return r, sign


def _det_symmetric(num: list) -> int:
    """Bareiss determinant of the symmetric integer matrix ``num`` from
    ``_bareiss_symmetric``: the last pivot, or 0 when a trailing row is all
    zero."""
    elim = _bareiss_symmetric(num)
    return 0 if elim is None else elim[0][-1][0] << elim[1][-1] if num else 1


def _bareiss_symmetric(num: list):
    """Fraction-free elimination of the symmetric integer matrix A =
    ``num`` on its upper triangle.

    Elimination keeps the trailing block symmetric, so ``u[i]`` holds only
    row i from its diagonal on, and step k updates
    a_ij <- (p*a_ij - a_ki*a_kj) // prev
    for j >= i > k, reading a_ki from the pivot row.  A zero pivot a_kk is
    repaired with the first c > k that has a_kc != 0 (``_repair_pivot``):
    if a_cc != 0, row and column c swap with k; otherwise row and column c
    are added to k, which makes the new a_kk = 2*a_kc.  Both are unimodular
    congruences, so neither the determinant, nor its sign, nor the
    exactness of Bareiss's divisions changes.

    A matrix of order ``_SYMMETRIC_PACK_MIN_ORDER`` = 24 or more runs every
    step in ``_bareiss_packed``, on rows packed into one int each, so a row
    update is a few bigint operations instead of one interpreted operation
    per entry, and the trailing block is held as 2^e times its packed rows
    so that the common power of two of its entries costs no bits; its
    docstring gives the slot width bound and why the packed division is
    exact.  A smaller matrix updates list rows; ``det_exact`` has the
    measured ratios.

    Returns ``(u, twos, repairs)``: the finished rows u[k] << twos[k] of the
    Bareiss elimination of B = E^T A E, where E is the product of the logged
    repairs ``(k, c, is_swap)`` in order, with pivots p_k = u[k][0] <<
    twos[k] (the last one det B = det A).  Each row keeps the exponent of
    the packed block at its step, so it holds small ints; list rows have 0.
    Repairs only swap or add entries within a finished row, so each keeps
    one scale.  Returns None when a trailing row is all zero, that is when
    the matrix is singular.
    """
    n = len(num)
    u = [row[i:] for i, row in enumerate(num)]
    twos, repairs = [0] * n, []
    if n >= _SYMMETRIC_PACK_MIN_ORDER:
        return (u, twos, repairs) if _bareiss_packed(u, twos, repairs) else None
    prev = 1
    for k in range(n):
        if u[k][0] == 0 and not _repair_zero_pivot(u, k, repairs):
            return None
        row_k = u[k]
        p = row_k[0]
        for i in range(k + 1, n):
            f = row_k[i - k]
            u[i] = [(p * x - f * y) // prev for x, y in zip(u[i], row_k[i - k:])]
        prev = p
    return u, twos, repairs


def _repair_zero_pivot(u: list, k: int, repairs: list) -> bool:
    """Repair the zero pivot u[k][0] in place and log the repair; False when
    row k of the trailing block is all zero."""
    row_k = u[k]
    t = next((t for t in range(1, len(row_k)) if row_k[t] != 0), None)
    if t is None:
        return False
    repairs.append(_repair_pivot(u, k, t))
    return True


def _bareiss_packed(u: list, twos: list, repairs: list) -> bool:
    """Every step of ``_bareiss_symmetric``, run in place on ``u`` with each
    trailing row packed into one int.

    The trailing block is 2^e times its packed rows: trailing row i is
    2^e * R_i, R_i = sum_t x_t * 2^(w*t) with balanced digits |x_t| <
    2^(w-1) (Kronecker substitution).  Step k unpacks the pivot row R_k
    once, stores it as the finished row ``u[k]`` with ``twos[k]`` = e, and
    by symmetry reads each row's multiplier f_i = x_(i-k) of R_k from it,
    with p = x_0.  Shifting R_k right by (i-k)*w with rounding drops its
    first i-k digits exactly (their sum is below 2^((i-k)*w-1) in absolute
    value) and aligns the rest with R_i, so with z = min(2e, v2(prev))

        R_i <- (p*R_i - f_i*T_i) // (prev >> z),    e <- 2e - z

    is the whole row update.  For the digits x, y of one slot the new entry
    is the integer 2^(2e) * (p*x - f_i*y) / prev = 2^(2e-z) * (p*x - f_i*y)
    / (prev >> z), so prev >> z divides p*x - f_i*y: it is odd when z =
    v2(prev), and the quotient is the new entry when z = 2e.  So the bigint
    division is exact slot by slot even where p*x - f_i*y overflows its
    slot, and only the new digits must fit.  They do: every digit is at most
    M in absolute value, and since f_i and y are digits of the pivot row
    past its diagonal, at most G_k, the new ones are at most M' = (|p|*M +
    G_k^2) // |prev >> z| + 1.  When M' needs more than w - 2 bits, the step
    first finds the largest s with 2^s dividing every digit of the block
    (``_common_twos``, which reads s < 2 as 0), shifts every row right by s
    and adds s to e; only if M' still needs more bits is every trailing row
    widened, by a strided byte copy.  On a matrix with no common factor 4 at
    any widening, e stays 0 and the update is plain Bareiss.  A zero pivot
    unpacks the trailing block times 2^e, repairs it with ``_repair_pivot``
    on the lists, recomputes M from the block and packs it again with e = 0.

    The division by d = prev >> z waits (Bareiss 1968 once more): each
    trailing row is held as S_i = c * R_i, c the product of the divisors
    still pending, and a step divides only the pivot row by c.  The others
    become S_i <- p*S_i - (c*f_i)*T_i = c*d * R_i', with no division, while
    |c*d| fits one int digit (``_DIGIT_BITS``); otherwise the step divides
    by c*d in the same pass and c returns to 1.  S_i = c * R_i holds as
    integers, so every division by c is exact, and no slot of S_i is read:
    the trailing rows are divided by c before ``_common_twos``, a widening
    or the unpacking for a repair.  The division is most of what a wait
    saves: over 100 rows of 100 slots at w = 48 the update takes 250 us
    with ``// d``, even for d = 1, and 95 us without (2-vCPU VM, Python
    3.11).  On random symmetric matrices of orders 30-60 with entries in
    [-9, 9], d outgrows a digit by step 9, after which c stays 1 and each
    step divides as above; on distance matrices d is a few bits wide, and
    the order-200 tree's 200 steps divide the block 53 times, 48 of them
    before a widening.

    Returns True with the finished rows in ``u``, or False when a trailing
    row is all zero.
    """
    n = len(u)
    if u[0][0] == 0 and not _repair_zero_pivot(u, 0, repairs):
        return False
    bound = max(max(map(abs, row)) for row in u)
    w = _slot_width(bound)
    rows = [_pack(row, w) for row in u]
    prev, e, c = 1, 0, 1
    for k in range(n):
        if c != 1:
            rows[k] //= c
        row_k = _unpack(rows[k], n - k, w)
        if row_k[0] == 0:
            u[k:] = [[x << e for x in _unpack(r // c if i > k else r, n - i, w)]
                     for i, r in enumerate(rows[k:], k)]
            if not _repair_zero_pivot(u, k, repairs):
                return False
            bound = max(max(map(abs, row)) for row in u[k:])
            w, e, c = _slot_width(bound), 0, 1
            rows[k:] = [_pack(row, w) for row in u[k:]]
            row_k = u[k]
        p, g = row_k[0], max(map(abs, row_k[1:]), default=0)
        z = e and min(2 * e, _twos(prev))
        d = prev >> z if z else prev
        top = abs(p) * bound + g * g
        new = top // abs(d) + 1
        if new.bit_length() + 2 > w:
            if c != 1:
                rows[k + 1:] = [r // c for r in rows[k + 1:]]
                c = 1
            # A pivot with fewer than two twos rules out s >= 2 at once.
            s = 0 if p & 3 else _common_twos(row_k, rows[k + 1:], n - k - 1, w)
            if s:
                rows[k:] = [r >> s for r in rows[k:]]
                row_k = [x >> s for x in row_k]
                p, bound, e = p >> s, bound >> s, e + s
                z = min(2 * e, _twos(prev))
                d = prev >> z
                new = (top >> 2 * s) // abs(d) + 1
            if new.bit_length() + 2 > w:
                wider = _slot_width(new)
                for i in range(k, n):
                    rows[i] = _widen(rows[i], n - i, w, wider)
                w = wider
        u[k], twos[k] = row_k, e
        # u[k] holds the finished row, so its packed form is dropped; t runs
        # through R_k shifted right by 1, 2, ... slots, and each trailing
        # row is replaced in place, so no step holds two trailing blocks.
        half, t, rows[k], cd = 1 << (w - 1), rows[k], None, c * d
        wait = not abs(cd) >> _DIGIT_BITS
        fs = row_k if c == 1 else [c * f for f in row_k]
        for i in range(k + 1, n):
            t = (t + half) >> w
            r = p * rows[i] - fs[i - k] * t
            rows[i] = r if wait else r // cd
        prev, e, bound, c = p << e if e else p, 2 * e - z, new, cd if wait else 1
    return True


def _repair_pivot(u: list, k: int, t: int) -> tuple:
    """Give step k of ``_bareiss_symmetric`` a nonzero pivot from index
    c = k + t in place, and return the repair ``(k, c, is_swap)``.

    Only row and column k and c of the trailing block change: the new row k
    is built from column c (its entries above row c read from rows k..c-1),
    and a swap also moves row k into row c and column k into column c.  The
    column operation also reaches the finished rows r < k, entries k-r and
    c-r of ``u[r]``: determinants never read them, but back-substitution
    does.
    """
    c = k + t
    row_k = u[k]
    col_c = [u[j][c - j] for j in range(k, c)] + u[c]
    swap = col_c[t] != 0
    if swap:
        col_c[0], col_c[t] = col_c[t], col_c[0]
        for i in range(k + 1, c):
            u[i][c - i] = row_k[i - k]
        u[k], u[c] = col_c, [row_k[0]] + row_k[t + 1:]
        for r in range(k):
            row = u[r]
            row[k - r], row[c - r] = row[c - r], row[k - r]
    else:
        row = list(map(add, row_k, col_c))
        row[0] += row[t]
        u[k] = row
        for r in range(k):
            row = u[r]
            row[k - r] += row[c - r]
    return k, c, swap


def rank(m: RationalMatrix) -> int:
    """Rank over the rationals: the number of pivots ``_bareiss_general``
    finds in the integer rows of m."""
    return _bareiss_general([row.copy() for row in m.num], m.cols)[0]


def inverse_exact(m: RationalMatrix) -> RationalMatrix:
    """Exact inverse by fraction-free elimination; a singular matrix raises
    ``SingularMatrixError`` carrying its rank, and the 0x0 matrix is its
    own inverse.

    Every symmetric matrix (every distance matrix, and the 0x0 and 1x1
    ones) takes ``_inverse_symmetric``: the half-triangle Bareiss
    elimination that ``det_exact`` also runs, then fraction-free
    back-substitution on the upper triangle, about n^3/2 products.  On a
    distance matrix those products shed their common powers of two into
    one exponent first, so most are of single-digit ints: against
    full-integer products the inverse takes 0.59x the time at the order-71
    book, 0.48x at order 141 and 0.58x at the order-100 tree (2-vCPU VM,
    Python 3.11, ``BENCH_21.json``).  Every other matrix takes
    ``_inverse_general``: the full Bareiss elimination of [num | I] and
    back-substitution, about 4n^3/3.  The elimination packs its trailing
    rows from order 24 on, as in ``det_exact``; the back-substitution runs
    on lists.
    """
    if not m.is_square:
        raise ValueError("inverse requires a square matrix")
    if m.is_symmetric():
        return _inverse_symmetric(m)
    return _inverse_general(m)


def _inverse_symmetric(m: RationalMatrix) -> RationalMatrix:
    """Inverse of a symmetric matrix from ``_bareiss_symmetric``.

    With U the Bareiss rows of B = E^T A E (pivots p_k, p_{-1} = 1, and
    d = p_{n-1} = det B), X = d * B^-1 is the adjugate of B, an integer
    matrix, and U X = d * diag(p_{k-1}) times a unit upper triangle.  So
    column j follows by back-substitution from the bottom up:

        X_jj = (d*p_{j-1} - sum_{l>j} U_jl X_lj) // p_j
        X_ij = -(sum_{l>i} U_il X_lj) // p_i          for i < j,

    with every division exact, and the entries X_lj with l > j mirrored
    from the columns already finished.

    On distance matrices almost all the bits of these products are factors
    of two, so they are held two-adically, as ``_bareiss_packed`` holds its
    block (the row update of Bareiss 1968): X is 2^e times the integers x,
    and row i of U is 2^g times [2^h * div, tail] with div odd.  Since
    B X = d I, e starts at v2(d).  Then

        X_ij = 2^(e-h) * q,    q = -(sum_{l>i} tail_l x_lj) // div,

    the division exact because div is odd.  With h = 0 the entry keeps e
    twos; otherwise x_ij = q >> h when q has h twos, and when it has only
    t < h, e falls by h - t and every entry held so far shifts left by as
    much, so no shift ever floors.  The diagonal divides by p_j / 2^g, and
    e falls to the twos of its quotient in the same way.  Twos of d fewer
    than one digit of an int (``_DIGIT_BITS``) are not sought: e, g and h
    stay 0 and each step is the plain one.  The logged repairs are undone
    in reverse (X <- Q X Q^T for each repair's column operation Q), which
    leaves the symmetric d * A^-1 = 2^e x for A = ``m.num``, so m^-1 =
    den * x / (d / 2^e).
    """
    elim = _bareiss_symmetric(m.num)
    if elim is None:
        raise SingularMatrixError("singular matrix", rank(m))
    u, twos, repairs = elim
    n = len(u)
    d = u[-1][0] << twos[-1] if n else 1
    e = _twos(d)
    if e < _DIGIT_BITS:
        e = 0
    # rows[i] = (tail, div, h, rhs): row i of U is 2^g * [2^h * div, tail],
    # g = twos[i], tail listed from column n-1 down to i+1 to align with a
    # column built from the bottom up, and rhs = d * p_(i-1) / 2^g.
    rows, prev = [], 1
    for row, g in zip(u, twos):
        h = e and _twos(row[0])
        rows.append((row[:0:-1], row[0] >> h, h, d * prev >> g))
        prev = row[0] << g
    x = [None] * n
    for j in reversed(range(n)):
        x[j] = col = [c[j] for c in x[:j:-1]]
        tail, div, h, rhs = rows[j]
        q = (rhs - (sum(map(mul, tail, col)) << e)) // (div << h)
        if e and q & ((1 << e) - 1):
            t = _twos(q)
            x[j:] = _rescaled(x[j:], 1 << e - t)
            col, e = x[j], t
        col.append(q >> e)
        for tail, div, h, _ in reversed(rows[:j]):
            q = -sum(map(mul, tail, col)) // div
            if h:
                if q & ((1 << h) - 1):
                    # X_ij = 2^(e-h) q has fewer than e twos: lower e to them.
                    t = _twos(q)
                    x[j:] = _rescaled(x[j:], 1 << h - t)
                    col, e, h = x[j], e - h + t, t
                q >>= h
            col.append(q)
        col.reverse()
    for k, c, swap in reversed(repairs):
        if swap:
            x[k], x[c] = x[c], x[k]
            for row in x:
                row[k], row[c] = row[c], row[k]
        else:
            x[c] = list(map(add, x[c], x[k]))
            for row in x:
                row[c] += row[k]
    return RationalMatrix._reduced(n, n, _rescaled(x, m.den), d >> e)


def _inverse_general(m: RationalMatrix) -> RationalMatrix:
    """Inverse of any square matrix from ``_bareiss_general``.

    With A = ``m.num``, the elimination of [A | I] leaves [U | Y] with U
    upper triangular, its pivots p_i on the diagonal and d = p_{n-1}.
    X = d * A^-1 is +- the adjugate of A, an integer matrix, and solves
    U X = d Y, so row by row from the bottom up
    X_ij = (d*Y_ij - sum_{l>i} U_il X_lj) // p_i, every division exact, and
    m^-1 = den * X / d.
    """
    n = m.rows
    a = [row + [int(i == j) for j in range(n)] for i, row in enumerate(m.num)]
    r, _ = _bareiss_general(a, n)
    if r < n:
        raise SingularMatrixError("singular matrix", r)
    d = a[-1][n - 1] if n else 1
    # cols[j] holds X_lj for l = n-1 down to i+1 when row i is solved, and
    # u lists U_il in the same order.
    cols = [[] for _ in range(n)]
    for i in reversed(range(n)):
        row = a[i]
        p = row[i]
        u = row[n - 1:i:-1]
        for col, y in zip(cols, row[n:]):
            col.append((d * y - sum(map(mul, u, col))) // p)
    x = [[col[-1 - i] for col in cols] for i in range(n)]
    return RationalMatrix._reduced(n, n, _rescaled(x, m.den), d)


@dataclass(frozen=True)
class CharPoly:
    """Monic polynomial with exact coefficients, ascending by degree."""

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs or self.coeffs[-1] != 1:
            raise ValueError("characteristic polynomial must be monic")

    @classmethod
    def linear(cls, root: Entry) -> "CharPoly":
        return cls((-Fraction(root), Fraction(1)))

    @classmethod
    def one(cls) -> "CharPoly":
        return cls((Fraction(1),))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, x: Entry) -> Fraction:
        xq = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * xq + c
        return acc

    def __mul__(self, other: "CharPoly") -> "CharPoly":
        # Each factor is cleared by the LCM of its denominators, the integer
        # coefficient lists are convolved, and each output coefficient is
        # one Fraction over the product of the two LCMs.
        (a, b), (la, lb) = _clear_rows((self.coeffs, other.coeffs))
        den = la * lb
        return CharPoly(tuple(Fraction(c, den) for c in _convolve(a, b)))

    def __pow__(self, exponent: int) -> "CharPoly":
        """Repeated squaring on the cleared integer coefficients."""
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        (base,), (l,) = _clear_rows((self.coeffs,))
        den = l ** exponent
        result = [1]
        while exponent:
            if exponent & 1:
                result = _convolve(result, base)
            exponent >>= 1
            if exponent:
                base = _convolve(base, base)
        return CharPoly(tuple(Fraction(c, den) for c in result))

    def divide_by(self, divisor: "CharPoly") -> tuple:
        """Exact division by a monic divisor: (quotient, remainder coeffs)."""
        num = list(self.coeffs)
        d = divisor.coeffs
        dn = len(d) - 1
        if dn > self.degree:
            raise ValueError("divisor degree exceeds dividend degree")
        quot = [Fraction(0)] * (len(num) - dn)
        for i in range(len(num) - 1, dn - 1, -1):
            c = num[i]
            quot[i - dn] = c
            if c:
                for j in range(dn + 1):
                    num[i - dn + j] -= c * d[j]
        return CharPoly(tuple(quot)), tuple(num[:dn])

    def __str__(self) -> str:
        # Each nonzero term as "+ body" or "- body", highest degree first; the
        # first term keeps only a minus sign.
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c:
                mag, xpow = rational_str(abs(c)), "x" if k == 1 else f"x^{k}"
                body = mag if k == 0 else xpow if abs(c) == 1 else f"{mag}*{xpow}"
                terms.append(("- " if c < 0 else "+ ") + body)
        out = " ".join(terms) or "+ 0"
        return out[2:] if out[0] == "+" else "-" + out[2:]


def _convolve(a: list, b: list) -> list:
    """Coefficients of the product of two integer polynomials, ascending:
    entry k is sum_i a[i] * b[k-i], one dot product against b reversed."""
    rb = b[::-1]
    nb = len(b)
    return [
        sum(map(mul, a[max(0, k - nb + 1):k + 1], rb[max(0, nb - 1 - k):]))
        for k in range(len(a) + nb - 1)
    ]


def _primitive(row: list, den: int) -> tuple:
    """``(row // g, den // g)`` for g = gcd(den, *row) signed like den, so the
    returned denominator is positive and shares no factor with the row."""
    g = gcd(den, *row)
    if den < 0:
        g = -g
    return [x // g for x in row], den // g


def _hessenberg(m: RationalMatrix) -> tuple:
    """Upper Hessenberg form H of m by similarity, as ``(rows, dens)`` with
    H[i][j] == rows[i][j] / dens[i] and every rows[i] an integer list.

    Step k clears column k-1 below the subdiagonal.  The pivot is the first
    nonzero entry at or below row k of that column, moved to row k by
    swapping rows and columns together; a column with no pivot is already
    reduced.  Each row i > k then becomes H_i - u_i H_k with
    u_i = H[i][k-1] / H[k][k-1], which over the integers is
    (t*row_i - f*row_k) / (t*d_i) for the pivot numerator t and f the row's
    numerator, and column k becomes H^k + sum u_i H^i, the other half of the
    similarity.  Rows are kept primitive over their denominator.
    """
    n = m.rows
    a, dens = map(list, zip(*[_primitive(row, m.den) for row in m.num])) if n else ([], [])
    for k in range(1, n - 1):
        c = k - 1
        piv = next((i for i in range(k, n) if a[i][c] != 0), None)
        if piv is None:
            continue
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            dens[k], dens[piv] = dens[piv], dens[k]
            for row in a:
                row[k], row[piv] = row[piv], row[k]
        row_k = a[k]
        t = row_k[c]
        targets, mults = [], []
        for i in range(k + 1, n):
            row_i = a[i]
            f = row_i[c]
            if f:
                targets.append(i)
                mults.append(Fraction(f * dens[k], dens[i] * t))
                a[i], dens[i] = _primitive(
                    [t * x - f * y for x, y in zip(row_i, row_k)], t * dens[i]
                )
        if not targets:
            continue
        # Column k gains sum u_i * column i; over the common denominator v of
        # the u_i, row r's entry becomes s / (v * d_r), and the row is scaled
        # by whatever part of v does not divide s.
        v = lcm(*[u.denominator for u in mults])
        weights = [u.numerator * (v // u.denominator) for u in mults]
        for r, row in enumerate(a):
            s = v * row[k] + sum(map(mul, weights, [row[i] for i in targets]))
            scale = v // gcd(s, v)
            if scale != 1:
                row = [x * scale for x in row]
            row[k] = s * scale // v
            a[r], dens[r] = _primitive(row, dens[r] * scale)
    return a, dens


def char_poly_exact(m: RationalMatrix) -> CharPoly:
    """det(xI - m) by Hessenberg reduction and the Hessenberg recurrence.

    m is reduced to upper Hessenberg form H by similarity (``_hessenberg``),
    and H is cleared to the integer matrix G = sH by the LCM s of its row
    denominators.  The characteristic polynomials p_k of the leading k x k
    blocks of G then follow from p_0 = 1 and

        p_k = (x - g_kk) p_{k-1}
              - sum_{i<k} g_ik * (g_{i+1,i} ... g_{k,k-1}) * p_{i-1}

    (1-based), all in integers, and coeff_j = c_j / s^(n-j) rescales
    det(xI - G) = s^n det(x/s I - m) to m.  O(n^3) throughout.
    """
    if not m.is_square:
        raise ValueError("characteristic polynomial requires a square matrix")
    n = m.rows
    rows, dens = _hessenberg(m)
    s = lcm(*dens)
    g = [[x * (s // d) for x in row] for row, d in zip(rows, dens)]
    polys = [[1]]
    for k in range(n):
        prev = polys[k]
        g_kk = g[k][k]
        p = [0] + prev
        for j, c in enumerate(prev):
            p[j] -= g_kk * c
        chain = 1
        for i in reversed(range(k)):
            chain *= g[i + 1][i]
            if not chain:
                break
            coef = g[i][k] * chain
            if coef:
                for j, c in enumerate(polys[i]):
                    p[j] -= coef * c
        polys.append(p)
    coeffs = polys[n]
    return CharPoly(tuple(Fraction(coeffs[j], s ** (n - j)) for j in range(n + 1)))


@dataclass(frozen=True)
class SpectrumClaim:
    """Multiset of (eigenvalue, multiplicity) pairs plus an optional monic
    quadratic factor standing in for a conjugate irrational pair."""

    pairs: tuple
    quadratic: Optional[CharPoly] = None

    def __post_init__(self):
        if self.quadratic is not None and self.quadratic.degree != 2:
            raise ValueError("quadratic factor must have degree 2")
        if any(mult < 1 for _, mult in self.pairs):
            raise ValueError("multiplicities must be positive")

    @classmethod
    def make(cls, pairs: Iterable, quadratic: Optional[CharPoly] = None) -> "SpectrumClaim":
        """Canonicalize: drop zero multiplicities, merge equal eigenvalues,
        sort ascending by eigenvalue."""
        merged: dict = {}
        for value, mult in pairs:
            if mult == 0:
                continue
            key = Fraction(value)
            merged[key] = merged.get(key, 0) + mult
        ordered = tuple(sorted(merged.items()))
        return cls(ordered, quadratic)

    @property
    def total_order(self) -> int:
        base = sum(mult for _, mult in self.pairs)
        return base + (2 if self.quadratic is not None else 0)

    def linear_factors(self) -> CharPoly:
        """Product of (x - value)^mult over the pairs, without the
        quadratic factor."""
        poly = CharPoly.one()
        for value, mult in self.pairs:
            poly = poly * CharPoly.linear(value) ** mult
        return poly

    def char_poly(self) -> CharPoly:
        poly = self.linear_factors()
        if self.quadratic is not None:
            poly = poly * self.quadratic
        return poly

    def trace_sum(self) -> Fraction:
        total = sum((v * m for v, m in self.pairs), Fraction(0))
        if self.quadratic is not None:
            total += -self.quadratic.coeffs[1]  # root sum of monic quadratic
        return total


def schur_inverse(
    b11: RationalMatrix,
    b12: RationalMatrix,
    b21: RationalMatrix,
    b22: RationalMatrix,
) -> RationalMatrix:
    """Inverse of [[B11, B12], [B21, B22]] assembled through the Schur
    complement of the leading block."""
    if not b11.is_square or not b22.is_square:
        raise ValueError("diagonal blocks must be square")
    if b12.rows != b11.rows or b12.cols != b22.cols:
        raise ValueError("off-diagonal block B12 is not conformal")
    if b21.rows != b22.rows or b21.cols != b11.cols:
        raise ValueError("off-diagonal block B21 is not conformal")
    try:
        inv11 = inverse_exact(b11)
    except SingularMatrixError as err:
        raise SingularMatrixError("leading block singular", err.rank) from None
    complement = b22 - b21 * inv11 * b12
    try:
        inv_s = inverse_exact(complement)
    except SingularMatrixError as err:
        raise SingularMatrixError("schur complement singular", err.rank) from None
    top_right = inv11 * b12 * inv_s
    bottom_left = inv_s * b21 * inv11
    return RationalMatrix.block(
        [
            [inv11 + top_right * b21 * inv11, -top_right],
            [-bottom_left, inv_s],
        ]
    )


def rank_one_update_inverse(a_inv: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Inverse of A + B from A^-1 when B has rank one.

    With g = trace(B A^-1), the update is A^-1 - A^-1 B A^-1 / (1 + g);
    g = -1 exactly when A + B is singular.
    """
    if not a_inv.is_square or not b.is_square or a_inv.rows != b.rows:
        raise ValueError("matrices must be square and of equal order")
    if rank(b) != 1:
        raise ValueError("update matrix must have rank exactly 1")
    g = Fraction(
        sum(sum(map(mul, row, col)) for row, col in zip(b.num, zip(*a_inv.num))),
        b.den * a_inv.den,
    )
    if g == -1:
        raise ValueError("update makes matrix singular")
    correction = a_inv * b * a_inv
    return a_inv - correction / (1 + g)


@dataclass(frozen=True)
class AibjAnalysis:
    """Spectrum, determinant and (optional) inverse of a*I + b*J."""

    eigs: SpectrumClaim
    det: Fraction
    inverse: Optional[RationalMatrix]


def aibj_analysis(a: Entry, b: Entry, n: int) -> AibjAnalysis:
    """Closed-form analysis of a*I_n + b*J_n for a != 0.

    Eigenvalues are a (multiplicity n-1) and a + n*b (multiplicity 1), the
    determinant is a^(n-1) * (a + n*b), and the inverse exists iff
    a + n*b != 0, in which case it equals (1/a) * (I - b/(a+n*b) * J).
    """
    aq, bq = Fraction(a), Fraction(b)
    if aq == 0:
        raise ValueError("scaled-identity coefficient a must be nonzero")
    if n < 1:
        raise ValueError("order must be positive")
    full = aq + n * bq
    eigs = SpectrumClaim.make([(aq, n - 1), (full, 1)])
    det = aq ** (n - 1) * full
    inverse = None
    if full != 0:
        inverse = (imat(n) - (bq / full) * jmat(n, n)) / aq
    return AibjAnalysis(eigs, det, inverse)
