"""Reproducible pseudo-randomness for seeded test instances.

The generator is a 64-bit linear congruential recurrence with Knuth's MMIX
constants,

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64

and each draw returns the top 32 bits of the new state.  ``randint(lo, hi)``
maps a draw into [lo, hi] by modulo; the tiny bias is irrelevant here and the
whole stream is trivial to reproduce in any language, which is the point.
"""

from __future__ import annotations

from .linalg import RationalMatrix, det_exact

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1


class Lcg:
    """Deterministic 64-bit LCG; draws are the top 32 bits of the state."""

    def __init__(self, seed: int = 42):
        self.state = seed & _MASK

    def _next(self) -> int:
        self.state = (_MULT * self.state + _INC) & _MASK
        return self.state >> 32

    def randint(self, lo: int, hi: int) -> int:
        if hi < lo:
            raise ValueError("empty range")
        return lo + self._next() % (hi - lo + 1)


def random_tree_edges(n: int, rng: Lcg) -> tuple:
    """Random recursive tree on vertices 1..n: vertex v attaches to a
    uniformly drawn earlier vertex."""
    if n < 2:
        raise ValueError("a tree needs at least 2 vertices")
    return tuple((rng.randint(1, v - 1), v) for v in range(2, n + 1))


def random_matrix(rng: Lcg, rows: int, cols: int, lo: int = -9, hi: int = 9) -> RationalMatrix:
    return RationalMatrix(
        rows,
        cols,
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)],
    )


def random_invertible(rng: Lcg, order: int, lo: int = -9, hi: int = 9) -> RationalMatrix:
    """Integer matrix with nonzero determinant (resampled until found)."""
    while True:
        m = random_matrix(rng, order, order, lo, hi)
        if det_exact(m) != 0:
            return m


def random_rank_one(rng: Lcg, order: int, lo: int = -3, hi: int = 3) -> RationalMatrix:
    """Outer product u * v^t of two nonzero integer vectors."""

    def nonzero_vector() -> list:
        while True:
            vec = [rng.randint(lo, hi) for _ in range(order)]
            if any(vec):
                return vec

    u = nonzero_vector()
    v = nonzero_vector()
    return RationalMatrix(
        order, order, [[a * b for b in v] for a in u]
    )
