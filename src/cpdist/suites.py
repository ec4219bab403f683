"""Verification suites: every closed-form claim in the package checked
against the brute-force oracles, cell by cell.

A cell is one grid entry plus a thunk that runs its check with exactly the
params that entry shows; a check raises ``CellFailure`` on the first
mismatch.  ``run_suite`` runs the cells serially in grid order and records
any exception a check raises as a failed cell.  Suites aggregate cells into
a ``VerificationReport`` whose JSON form is stable (fixed key order,
rationals as strings); only the wall-time field varies between runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from . import closed_form as cf
from . import graphs as gr
from . import spectra as sp
from .linalg import (
    CharPoly,
    RationalMatrix,
    aibj_analysis,
    char_poly_exact,
    det_exact,
    imat,
    inverse_exact,
    jmat,
    rank_one_update_inverse,
    schur_inverse,
    swap2,
    zmat,
)
from .rng import Lcg, random_invertible, random_matrix, random_rank_one, random_tree_edges

SUITE_ORDER = ("recognizer", "lemmas", "dets", "inverses", "spectra")
DEFAULT_SEED = 42


class CellFailure(Exception):
    def __init__(self, expected, actual, location: str):
        super().__init__(f"{location}: expected {expected}, got {actual}")
        self.expected = str(expected)
        self.actual = str(actual)
        self.location = location


def _expect(condition: bool, expected, actual, location: str) -> None:
    if not condition:
        raise CellFailure(expected, actual, location)


def _expect_equal(expected, actual, location: str) -> None:
    """Raise ``CellFailure`` unless equal.  Two matrices of one shape are
    reported by their first differing entry and the number that differ."""
    if expected == actual:
        return
    if (isinstance(expected, RationalMatrix) and isinstance(actual, RationalMatrix)
            and (expected.rows, expected.cols) == (actual.rows, actual.cols)):
        differing = [
            (i, j) for i in range(expected.rows) for j in range(expected.cols)
            if expected[i, j] != actual[i, j]
        ]
        i, j = differing[0]
        raise CellFailure(
            f"{expected[i, j]} at [{i}][{j}]",
            f"{actual[i, j]} at [{i}][{j}]; "
            f"{len(differing)} of {expected.rows * expected.cols} entries differ",
            location,
        )
    raise CellFailure(expected, actual, location)


@dataclass
class VerificationReport:
    suite: str
    grid: list
    passed: int
    failed: int
    failures: list
    wall_time_ms: int

    def to_json_dict(self) -> dict:
        return dict(vars(self))


def _cell(check: str, fn, *fixtures, **params):
    """One cell: its grid entry and a thunk calling ``fn(*fixtures, **params)``,
    so the entry is by construction what the check ran with."""
    return {"check": check, **params}, partial(fn, *fixtures, **params)


def _run_one(cell):
    """The failure entry of one cell, or None if it passed."""
    params, thunk = cell
    try:
        thunk()
    except CellFailure as failure:
        expected, actual, location = failure.expected, failure.actual, failure.location
    except Exception as error:
        # A check that crashes is a failed cell, never a crashed report.
        expected, actual = "no exception", f"{type(error).__name__}: {error}"
        location = str(params)
    else:
        return None
    return {"params": params, "expected": expected, "actual": actual, "location": location}


def run_suite(name: str, seed: int = DEFAULT_SEED) -> VerificationReport:
    """Run one named suite (or ``all``) and aggregate the outcome."""
    if name != "all" and name not in SUITE_ORDER:
        raise ValueError(f"unknown suite {name!r}; pick from {('all',) + SUITE_ORDER}")
    start = time.perf_counter()
    names = SUITE_ORDER if name == "all" else (name,)
    cells = [cell for sub in names for cell in _SUITE_BUILDERS[sub](seed)]
    failures = [out for out in map(_run_one, cells) if out is not None]
    return VerificationReport(
        suite=name,
        grid=[params for params, _ in cells],
        passed=len(cells) - len(failures),
        failed=len(failures),
        failures=failures,
        wall_time_ms=int((time.perf_counter() - start) * 1000),
    )


# ---------------------------------------------------------------------------
# shared fixtures


def petersen_graph() -> gr.Graph:
    outer = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(6, 8), (8, 10), (7, 10), (7, 9), (6, 9)]
    return gr.Graph.from_edges(10, outer + spokes + inner)


def complete_graph(n: int) -> gr.Graph:
    return gr.Graph.from_edges(
        n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    )


def cycle_graph(n: int) -> gr.Graph:
    return gr.Graph.from_edges(n, [(i, i % n + 1) for i in range(1, n + 1)])


def seeded_trees(count: int = 50, max_n: int = 12, seed: int = DEFAULT_SEED):
    """The fixed corpus of random trees used by dets/inverses suites."""
    rng = Lcg(seed)
    out = []
    for index in range(count):
        n = rng.randint(2, max_n)
        out.append((index, gr.build_family(gr.Tree(random_tree_edges(n, rng)))))
    return out


def _cp_corpus(seed: int):
    """(params, graph, expected verdict) for the recognizer corpus."""
    entries = []
    for n in range(3, 9):
        for b in range(2, 5):
            entries.append((
                {"family": "tn-book", "n": n, "b": b},
                gr.build_family(gr.TnBook(n, b)),
                True,
            ))
    for m in range(1, 5):
        for n in range(1, 5):
            entries.append((
                {"family": "kmn", "m": m, "n": n},
                gr.build_family(gr.CompleteBipartite(m, n)),
                True,
            ))
    entries.append(({"family": "k4"}, gr.build_family(gr.K4()), True))
    path6 = gr.build_family(gr.Tree(tuple((i, i + 1) for i in range(1, 6))))
    entries.append(({"family": "tree", "shape": "path", "n": 6}, path6, True))
    rng = Lcg(seed)
    random_tree = gr.build_family(gr.Tree(random_tree_edges(9, rng)))
    entries.append(({"family": "tree", "shape": "seeded", "n": 9}, random_tree, True))
    entries.append(({"family": "cycle", "n": 4}, cycle_graph(4), True))
    entries.append(({"family": "complete", "n": 5}, complete_graph(5), False))
    entries.append(({"family": "petersen"}, petersen_graph(), False))
    return entries


# ---------------------------------------------------------------------------
# recognizer suite: graph construction, metrics, block structure, cp verdicts


def _check_metric_invariants(g: gr.Graph, **params) -> None:
    location = str(params)
    dist = gr.all_pairs_distances(g)
    n, d = g.vertex_count, dist.num
    _expect(dist.is_symmetric(), "symmetric", "asymmetric", f"{location}: distance symmetry")
    _expect(
        all(d[i][i] == 0 for i in range(n)),
        "zero diagonal", "nonzero diagonal", f"{location}: distance diagonal",
    )
    _expect(
        dist.den == 1 and all(x >= 0 for row in d for x in row),
        "nonnegative integers", "other", f"{location}: distance entries",
    )
    if n <= 40:
        # The entries are integers (checked above), compared as ints.
        ok = all(d[i][j] <= d[i][k] + d[k][j] for i in range(n) for j in range(n) for k in range(n))
        _expect(ok, "triangle inequality", "violated", f"{location}: triangle inequality")
    lap = gr.laplacian(g)
    _expect(
        all(sum(row) == 0 for row in lap.num),
        "zero row sums", "nonzero", f"{location}: laplacian row sums",
    )
    degrees = g.degrees()
    form = [[degrees[i] if i == j else -((min(i, j) + 1, max(i, j) + 1) in g.edges) for j in range(n)]
            for i in range(n)]
    _expect(lap.den == 1 and lap.num == form, "diag(deg) - adjacency", "mismatch",
            f"{location}: laplacian form")


def _recognizer_cells(seed: int = DEFAULT_SEED):
    corpus = _cp_corpus(seed)
    cells = [
        _cell("metric-invariants", _check_metric_invariants, graph, **params)
        for params, graph, _ in corpus
    ]

    def tn_blockform(n: int):
        g = gr.build_family(gr.TnSingle(n))
        _expect_equal(cf.tn_distance(n), gr.all_pairs_distances(g), f"tn distance block form n={n}")
        _expect_equal(cf.tn_laplacian(n), gr.laplacian(g), f"tn laplacian block form n={n}")

    cells += [_cell("tn-blockform", tn_blockform, n=n) for n in range(3, 9)]

    def kmn_blockform(m: int, n: int):
        g = gr.build_family(gr.CompleteBipartite(m, n))
        _expect_equal(cf.kmn_distance(m, n), gr.all_pairs_distances(g), f"kmn block form ({m},{n})")

    cells += [
        _cell("kmn-blockform", kmn_blockform, m=m, n=n)
        for m in range(1, 5) for n in range(1, 5)
    ]

    def tnb_blockform(n: int, b: int):
        g = gr.build_family(gr.TnBook(n, b))
        dist = cf.tnb_distance(n, b).materialize()
        _expect_equal(dist, gr.all_pairs_distances(g), f"book distance block form ({n},{b})")
        lap = cf.tnb_laplacian(n, b).materialize()
        _expect_equal(lap, gr.laplacian(g), f"book laplacian block form ({n},{b})")
        _expect_equal(
            g.edge_count, b * (2 * n - 3), f"book edge count ({n},{b})"
        )

    def tnb_blocks(n: int, b: int):
        g = gr.build_family(gr.TnBook(n, b))
        decomposition = gr.biconnected_blocks(g)
        hub = b * (n - 1) + 1
        _expect_equal(b, len(decomposition.blocks), f"book block count ({n},{b})")
        _expect(
            all(len(block) == n for block in decomposition.blocks),
            f"blocks of {n} vertices", [len(bl) for bl in decomposition.blocks],
            f"book block sizes ({n},{b})",
        )
        _expect_equal(frozenset({hub}), decomposition.cut_vertices, f"book cut vertex ({n},{b})")

    for check, fn in (("tnb-blockform", tnb_blockform), ("tnb-blocks", tnb_blocks)):
        cells += [_cell(check, fn, n=n, b=b) for n in range(3, 9) for b in range(2, 5)]

    def path_blocks():
        path = gr.build_family(gr.Tree(((1, 2), (2, 3), (3, 4))))
        decomposition = gr.biconnected_blocks(path)
        _expect_equal(3, len(decomposition.blocks), "path block count")
        _expect(
            all(len(block) == 2 for block in decomposition.blocks),
            "edge blocks", decomposition.blocks, "path block sizes",
        )
        _expect_equal(frozenset({2, 3}), decomposition.cut_vertices, "path cut vertices")

    def k4_blocks():
        decomposition = gr.biconnected_blocks(gr.build_family(gr.K4()))
        _expect_equal(((1, 2, 3, 4),), decomposition.blocks, "k4 single block")
        _expect_equal(frozenset(), decomposition.cut_vertices, "k4 cut vertices")

    cells += [_cell("path-blocks", path_blocks), _cell("k4-blocks", k4_blocks)]

    def cp_verdict(graph: gr.Graph, expected: bool, **params):
        verdict, certificate = gr.is_cp_graph(graph)
        _expect_equal(expected, verdict, f"{params}: cp verdict {certificate}")

    cells += [
        _cell("cp-verdict", cp_verdict, graph, expected, **params)
        for params, graph, expected in corpus
    ]
    return cells


# ---------------------------------------------------------------------------
# lemmas suite: generic exact-linalg facts


def _lemmas_cells(seed: int = DEFAULT_SEED):
    def aibj_cell(a: int, b: int, n: int):
        analysis = aibj_analysis(a, b, n)
        matrix = a * imat(n) + b * jmat(n, n)
        _expect_equal(det_exact(matrix), analysis.det, f"aI+bJ det ({a},{b},{n})")
        check = sp.verify_claim(matrix, analysis.eigs)
        _expect(check.ok, check.claimed, check.computed, f"aI+bJ spectrum ({a},{b},{n})")
        if a + n * b != 0:
            _expect_equal(
                imat(n), matrix * analysis.inverse, f"aI+bJ inverse ({a},{b},{n})"
            )
        else:
            _expect(analysis.inverse is None, "no inverse", "inverse", f"aI+bJ singular ({a},{b},{n})")

    cells = [
        _cell("aibj", aibj_cell, a=a, b=b, n=n)
        for a in range(-3, 4) if a != 0 for b in range(-3, 4) for n in range(2, 7)
    ]

    def swap_identities():
        a2 = swap2()
        _expect_equal(imat(2), a2 * a2, "swap squared")
        _expect_equal(jmat(2, 2), a2 * jmat(2, 2) * a2, "swap conjugates ones")

    cells.append(_cell("swap-identities", swap_identities))

    def ones_identities(r: int, s: int, t: int):
        a2 = swap2()
        _expect_equal(jmat(2, s), a2 * jmat(2, s), f"swap absorbs ones ({s})")
        _expect_equal(jmat(r, 2), jmat(r, 2) * a2, f"ones absorbs swap ({r})")
        _expect_equal(t * jmat(r, s), jmat(r, t) * jmat(t, s), f"ones product ({r},{t},{s})")

    cells += [
        _cell("ones-identities", ones_identities, r=r, s=s, t=t)
        for r in range(2, 7) for s in range(2, 7) for t in range(2, 7)
    ]

    # Seeded instances are drawn eagerly at build time, in grid order, so a
    # cell's fixtures do not depend on which other cells run.

    def schur_cell(m: RationalMatrix, split: int, instance: int):
        head = list(range(split))
        rest = list(range(split, m.rows))
        assembled = schur_inverse(
            m.submatrix(head),
            m.submatrix(head, rest),
            m.submatrix(rest, head),
            m.submatrix(rest, rest),
        )
        _expect_equal(inverse_exact(m), assembled, f"schur oracle equivalence #{instance}")

    rng_schur = Lcg(seed)
    for instance in range(100):
        while True:
            order = rng_schur.randint(2, 6)
            split = rng_schur.randint(1, order - 1)
            m = random_matrix(rng_schur, order, order)
            if det_exact(m) != 0 and det_exact(m.submatrix(list(range(split)))) != 0:
                break
        cells.append(_cell("schur", schur_cell, m, split, instance=instance))

    def rank_one_cell(a: RationalMatrix, update: RationalMatrix, instance: int):
        result = rank_one_update_inverse(inverse_exact(a), update)
        _expect_equal(inverse_exact(a + update), result, f"rank-one oracle equivalence #{instance}")

    rng_rank_one = Lcg(seed + 1)
    for instance in range(100):
        order = rng_rank_one.randint(2, 6)
        a = random_invertible(rng_rank_one, order)
        while True:
            update = random_rank_one(rng_rank_one, order)
            if det_exact(a + update) != 0:
                break
        cells.append(_cell("rank-one", rank_one_cell, a, update, instance=instance))

    def block_triangular_cell(a, b, c, instance: int):
        m = RationalMatrix.block([[a, zmat(a.rows, b.cols)], [c, b]])
        _expect_equal(
            det_exact(a) * det_exact(b), det_exact(m), f"block triangular det #{instance}"
        )

    rng_block = Lcg(seed + 2)
    for instance in range(25):
        top = rng_block.randint(1, 4)
        bottom = rng_block.randint(1, 4)
        cells.append(_cell(
            "block-triangular-det", block_triangular_cell,
            random_matrix(rng_block, top, top),
            random_matrix(rng_block, bottom, bottom),
            random_matrix(rng_block, bottom, top),
            instance=instance,
        ))

    def det_product_cell(a, b, instance: int):
        _expect_equal(
            det_exact(a) * det_exact(b), det_exact(a * b), f"det multiplicativity #{instance}"
        )

    rng_prod = Lcg(seed + 3)
    for instance in range(25):
        order = rng_prod.randint(1, 6)
        cells.append(_cell(
            "det-multiplicative", det_product_cell,
            random_matrix(rng_prod, order, order),
            random_matrix(rng_prod, order, order),
            instance=instance,
        ))

    def inverse_roundtrip_cell(a: RationalMatrix, instance: int):
        inv = inverse_exact(a)
        _expect_equal(imat(a.rows), a * inv, f"inverse right product #{instance}")
        _expect_equal(imat(a.rows), inv * a, f"inverse left product #{instance}")

    rng_inv = Lcg(seed + 4)
    for instance in range(100):
        order = rng_inv.randint(1, 8)
        cells.append(_cell(
            "inverse-roundtrip", inverse_roundtrip_cell,
            random_invertible(rng_inv, order), instance=instance,
        ))

    def charpoly_cell(m: RationalMatrix, instance: int):
        order = m.rows
        poly = char_poly_exact(m)
        _expect_equal(
            Fraction((-1) ** order) * det_exact(m), poly.coeffs[0],
            f"charpoly constant term #{instance}",
        )
        _expect_equal(-m.trace(), poly.coeffs[order - 1], f"charpoly trace term #{instance}")
        for x in (-2, 1, 3):
            shifted = x * imat(order) - m
            _expect_equal(
                det_exact(shifted), poly.evaluate(x), f"charpoly eval x={x} #{instance}"
            )

    rng_charpoly = Lcg(seed + 5)
    for instance in range(25):
        order = rng_charpoly.randint(1, 6)
        cells.append(_cell(
            "charpoly-consistency", charpoly_cell,
            random_matrix(rng_charpoly, order, order), instance=instance,
        ))
    return cells


# ---------------------------------------------------------------------------
# dets suite: every determinant formula against the Bareiss oracle


def _dets_cells(seed: int = DEFAULT_SEED):
    def tn_det(n: int):
        dist = gr.all_pairs_distances(gr.build_family(gr.TnSingle(n)))
        _expect_equal(det_exact(dist), cf.tn_det(n), f"tn det n={n}")

    cells = [_cell("tn-det", tn_det, n=n) for n in range(3, 13)]

    def kmn_det(m: int, n: int):
        dist = gr.all_pairs_distances(gr.build_family(gr.CompleteBipartite(m, n)))
        value = cf.kmn_det(m, n)
        _expect_equal(det_exact(dist), value, f"kmn det ({m},{n})")
        _expect_equal((m, n) == (2, 2), value == 0, f"kmn singularity ({m},{n})")

    cells += [_cell("kmn-det", kmn_det, m=m, n=n) for m in range(1, 9) for n in range(1, 9)]

    def tnb_det_cell(n: int, b: int):
        dist = gr.all_pairs_distances(gr.build_family(gr.TnBook(n, b)))
        value = cf.tnb_det(n, b)
        _expect_equal(det_exact(dist), value, f"book det ({n},{b})")
        _expect_equal(n == 6, value == 0, f"book singularity ({n},{b})")

    cells += [_cell("tnb-det", tnb_det_cell, n=n, b=b) for n in range(3, 11) for b in range(2, 6)]

    def tree_det_cell(tree: gr.Graph, instance: int, n: int):
        dist = gr.all_pairs_distances(tree)
        _expect_equal(det_exact(dist), cf.tree_det(tree), f"tree det #{instance}")

    cells += [
        _cell("tree-det", tree_det_cell, tree, instance=index, n=tree.vertex_count)
        for index, tree in seeded_trees(seed=seed)
    ]
    return cells


# ---------------------------------------------------------------------------
# inverses suite: every inverse formula, identity and block identity


def _inverses_cells(seed: int = DEFAULT_SEED):
    def tn_inverse(n: int):
        g = gr.build_family(gr.TnSingle(n))
        dist = gr.all_pairs_distances(g)
        inverse, rmat = cf.tn_inverse(n), cf.tn_rmat(n)
        _expect_equal(imat(n), dist * inverse, f"tn inverse product n={n}")
        _expect_equal(inverse_exact(dist), inverse, f"tn inverse oracle n={n}")
        combined = -gr.laplacian(g) / 2 + jmat(n, n) / 2 + rmat / 2
        _expect_equal(combined, inverse, f"tn inverse identity n={n}")
        recovered = 2 * inverse + gr.laplacian(g) - jmat(n, n)
        _expect_equal(rmat, recovered, f"tn correction identity n={n}")

    cells = [_cell("tn-inverse", tn_inverse, n=n) for n in range(3, 13)]

    def kmn_inverse(m: int, n: int):
        if (m, n) == (2, 2):
            try:
                cf.kmn_inverse(m, n)
            except cf.SingularFamilyError:
                return
            raise CellFailure("singular", "nonsingular", "kmn (2,2) must be singular")
        dist = gr.all_pairs_distances(gr.build_family(gr.CompleteBipartite(m, n)))
        _expect_equal(imat(m + n), dist * cf.kmn_inverse(m, n), f"kmn inverse product ({m},{n})")

    cells += [_cell("kmn-inverse", kmn_inverse, m=m, n=n) for m in range(1, 9) for n in range(1, 9)]

    def tnb_inverse_cell(n: int, b: int):
        order = b * (n - 1) + 1
        x = cf.tnb_inverse(n, b, verify_product=False)
        dist = cf.tnb_distance(n, b).materialize()
        _expect_equal(imat(order), dist * x, f"book inverse product ({n},{b})")
        _expect_equal(inverse_exact(dist), x, f"book inverse oracle ({n},{b})")
        _expect_equal(
            cf.tnb_xblocks(n, b).materialize(), x, f"book inverse block display ({n},{b})"
        )

    def tnb_block_identities(n: int, b: int):
        for label, expected, actual in cf.tnb_product_identities(cf.tnb_xblocks(n, b)):
            _expect_equal(expected, actual, f"{label} ({n},{b})")

    for n in (3, 4, 5, 7, 8, 9, 10):
        for b in range(2, 6):
            cells.append(_cell("tnb-inverse", tnb_inverse_cell, n=n, b=b))
            cells.append(_cell("tnb-block-identities", tnb_block_identities, n=n, b=b))

    def tnb_singular(n: int, b: int):
        try:
            cf.tnb_inverse(n, b)
        except cf.SingularFamilyError:
            return
        raise CellFailure("SingularFamilyError", "no error", f"book inverse n={n} b={b}")

    cells += [_cell("tnb-singular", tnb_singular, n=6, b=b) for b in range(2, 6)]

    def tree_inverse_cell(tree: gr.Graph, instance: int, n: int):
        dist = gr.all_pairs_distances(tree)
        inv = cf.tree_inverse(tree)
        _expect_equal(imat(n), dist * inv, f"tree inverse product #{instance}")
        _expect_equal(inverse_exact(dist), inv, f"tree inverse oracle #{instance}")

    cells += [
        _cell("tree-inverse", tree_inverse_cell, tree, instance=index, n=tree.vertex_count)
        for index, tree in seeded_trees(seed=seed)
    ]
    return cells


# ---------------------------------------------------------------------------
# spectra suite: eigenvalue tables against exact characteristic polynomials


def _spectra_cells(seed: int = DEFAULT_SEED):
    def part_order(part: str, n: int, b: int) -> int:
        return {"B": 2 * b, "N": b * (n - 3), "NC": b * (n - 3) + 1}[part]

    def spectrum_cell(part: str, n: int, b: int):
        claim = sp.claimed_spectrum(part, n, b)
        _expect_equal(
            part_order(part, n, b), claim.total_order, f"claim degree {part} ({n},{b})"
        )
        matrix = sp.principal_submatrix(part, n, b)
        _expect_equal(matrix.trace(), claim.trace_sum(), f"claim trace {part} ({n},{b})")
        check = sp.verify_claim(matrix, claim)
        _expect(check.ok, check.claimed, check.computed, f"spectrum {part} ({n},{b})")
        if claim.quadratic is not None:
            quotient, remainder = check.computed.divide_by(claim.quadratic)
            _expect(
                all(c == 0 for c in remainder), "zero remainder", remainder,
                f"quadratic division {part} ({n},{b})",
            )
            _expect_equal(
                claim.linear_factors(), quotient, f"quadratic quotient {part} ({n},{b})"
            )

    cells = [
        _cell("spectrum", spectrum_cell, part=part, n=n, b=b)
        for part, low in (("B", 3), ("N", 4), ("NC", 4))
        for n in range(low, 11) for b in range(2, 6)
    ]

    def single_fan_spectrum(part: str, n: int):
        if part == "B":
            label, indices = "base", [0, 1]
            expected = CharPoly.linear(n - 2) * CharPoly.linear(-(n - 2))
        else:
            label, indices = "nonbase", list(range(2, n))
            expected = (CharPoly.linear(1) ** (n - 3)) * CharPoly.linear(3 - n)
        computed = char_poly_exact(cf.tn_rmat(n).submatrix(indices))
        _expect_equal(expected, computed, f"single-fan {label} spectrum n={n}")

    cells += [
        _cell("single-fan-spectrum", single_fan_spectrum, part=part, n=n)
        for part, low in (("B", 3), ("N", 4)) for n in range(low, 11)
    ]
    return cells


_SUITE_BUILDERS = {
    "recognizer": _recognizer_cells,
    "lemmas": _lemmas_cells,
    "dets": _dets_cells,
    "inverses": _inverses_cells,
    "spectra": _spectra_cells,
}
