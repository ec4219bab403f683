"""Command-line front end.

Subcommands: ``gen`` (write a matrix as CSV), ``det`` (closed-form vs oracle
determinant), ``inv`` (closed-form inverse as CSV, refusing singular
requests), ``verify`` (run a named suite, emit a JSON report), ``spectrum``
(claimed vs computed factorization) and ``bench`` (structured inverse
assembly vs the generic Bareiss inverse).

Exit codes: 0 success, 1 usage error, 2 mathematically singular request,
3 verification failure: a ``det`` or ``spectrum`` mismatch, a failed
``verify`` cell, or an ``inv`` whose closed form fails its own D * X = I
self-check (nothing is written then).  Rationals serialize as ``p/q``
(plain ``p`` for integers); matrix CSV is headerless with comma-separated
rows.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache
from typing import Callable

from . import closed_form as cf
from . import graphs as gr
from . import spectra as sp
from .linalg import (
    RationalMatrix,
    aibj_analysis,
    det_exact,
    inverse_exact,
    rational_str,
)
from .rng import Lcg, random_tree_edges
from .suites import SUITE_ORDER, run_suite

KINDS = ("dist", "lap", "rmat")
# Generic exact inversion above this order is not worth waiting for; bench
# reports it as skipped instead.
BENCH_GAUSS_ORDER_CAP = 120


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


# Built by the first main() call, not at import, and reused by every later
# one: parse_args keeps no state between calls.
@cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="cpdist", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, output, *, family=True):
        if family:
            p.add_argument("--family", choices=FAMILIES)
        p.add_argument("--n", type=int)
        p.add_argument("--b", type=int)
        if family:
            p.add_argument("--m", type=int)
            p.add_argument("--seed", type=int, default=42)
        p.add_argument(output, metavar="PATH|-" if output == "--json" else "PATH")

    p_gen = sub.add_parser("gen", help="write a distance/Laplacian/correction matrix as CSV")
    add_common(p_gen, "--out")
    p_gen.add_argument("--kind", choices=KINDS, default="dist")

    p_det = sub.add_parser("det", help="closed-form determinant vs Bareiss oracle")
    add_common(p_det, "--json")

    p_inv = sub.add_parser("inv", help="closed-form inverse as CSV (exit 2 when singular)")
    add_common(p_inv, "--out")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", choices=("all",) + SUITE_ORDER, default="all")
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--json", metavar="PATH|-")

    p_spec = sub.add_parser("spectrum", help="claimed vs computed eigenvalue factorization")
    add_common(p_spec, "--json", family=False)
    p_spec.add_argument("--part", choices=sp.PARTS)

    p_bench = sub.add_parser("bench", help="structured inverse assembly vs generic inversion")
    add_common(p_bench, "--json", family=False)
    return parser


def _require(value, name: str, minimum):
    if value is None:
        raise UsageError(f"--{name} is required for this family")
    if minimum is not None and value < minimum:
        raise UsageError(f"--{name} must be at least {minimum}")
    return value


@dataclass(frozen=True)
class _Family:
    """One family's facts, each stated once: its flags with their minimums
    (None: any value) in check order, its graph spec built from their values,
    the closed-form det and inverse of that spec, and the ``gen`` kinds it
    builds in closed form; other kinds use the graph. The inverse and the
    ``gen`` builders return a ``RationalMatrix``, or for the book family its
    self-checked ``StructuredBlockForm``, which ``_matrix_csv`` writes
    without materializing."""

    flags: dict
    spec: Callable
    det: Callable
    inverse: Callable
    gen: dict = field(default_factory=dict)


_KMN = _Family(
    {"m": 1, "n": 1}, gr.CompleteBipartite,
    det=lambda s: cf.kmn_det(s.m, s.n),
    inverse=lambda s: cf.kmn_inverse(s.m, s.n),
    gen={"dist": lambda s: cf.kmn_distance(s.m, s.n)},
)
FAMILIES = {
    "tn": _Family(
        {"n": 3}, gr.TnSingle,
        det=lambda s: cf.tn_det(s.n),
        inverse=lambda s: cf.tn_inverse(s.n),
        gen={"dist": lambda s: cf.tn_distance(s.n), "lap": lambda s: cf.tn_laplacian(s.n),
             "rmat": lambda s: cf.tn_rmat(s.n)},
    ),
    "tn-book": _Family(
        {"n": 3, "b": 2}, gr.TnBook,
        det=lambda s: cf.tnb_det(s.n, s.b),
        inverse=lambda s: cf.tnb_inverse_form(s.n, s.b),
        gen={"dist": lambda s: cf.tnb_distance(s.n, s.b),
             "lap": lambda s: cf.tnb_laplacian(s.n, s.b),
             "rmat": lambda s: cf.tnb_rmat(s.n, s.b)},
    ),
    "kmn": _KMN,
    # The star K_{n,1}: leaves 1..n, hub n+1.
    "star": replace(_KMN, flags={"n": 1}, spec=lambda n: gr.CompleteBipartite(n, 1)),
    "tree": _Family(
        {"n": 2, "seed": None}, lambda n, seed: gr.Tree(random_tree_edges(n, Lcg(seed))),
        det=lambda s: cf.tree_det(gr.build_family(s)),
        inverse=lambda s: cf.tree_inverse(gr.build_family(s)),
    ),
    "k4": _Family(
        {}, gr.K4,
        det=lambda s: aibj_analysis(-1, 1, 4).det,
        inverse=lambda s: aibj_analysis(-1, 1, 4).inverse,
    ),
}
_GRAPH_KINDS = {"dist": gr.all_pairs_distances, "lap": gr.laplacian}


def _family(args) -> _Family:
    if args.family is None:
        raise UsageError("--family is required")
    return FAMILIES[args.family]


def _spec(family: _Family, args) -> gr.FamilySpec:
    return family.spec(**{f: _require(getattr(args, f), f, low) for f, low in family.flags.items()})


def _row_csv(row: list, den: int) -> str:
    """The integer row over den as a CSV line, each distinct value formatted once."""
    if den == 1:
        return ",".join(map(str, row))
    text = {x: rational_str(Fraction(x, den)) for x in set(row)}
    return ",".join(map(text.__getitem__, row))


def _matrix_csv(m: RationalMatrix | cf.StructuredBlockForm) -> str:
    if isinstance(m, RationalMatrix):
        lines = [_row_csv(row, m.den) for row in m.num]
    else:
        # Each block row is formatted once.  Line i of block k is the
        # off-diagonal row i repeated, with the diagonal row i in place k,
        # then hub entry i; the hub line is the hub column b times, then the
        # corner.
        b, (den, diag, off, hub, corner) = m.b, m._int_blocks()
        diag, off = ([_row_csv(row, den) + "," for row in rows] for rows in (diag, off))
        hub = _row_csv(hub + [corner], den).split(",")
        lines = [off[i] * k + diag[i] + off[i] * (b - k - 1) + hub[i]
                 for k in range(b) for i in range(len(diag))]
        lines.append((",".join(hub[:-1]) + ",") * b + hub[-1])
    lines.append("")
    return "\n".join(lines)


def _write_text(text: str, path) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        raise UsageError(f"cannot write {path}: {err.strerror or err}") from None


def _write_json(payload: dict, path) -> None:
    _write_text(json.dumps(payload, indent=2) + "\n", path)


def _cmd_gen(args) -> int:
    family = _family(args)
    build = family.gen.get(args.kind)
    if build is None and args.kind not in _GRAPH_KINDS:
        names = " and ".join(name for name, f in FAMILIES.items() if args.kind in f.gen)
        raise UsageError(f"--kind {args.kind} is defined only for {names}")
    spec = _spec(family, args)
    matrix = build(spec) if build else _GRAPH_KINDS[args.kind](gr.build_family(spec))
    _write_text(_matrix_csv(matrix), args.out)
    return 0


def _cmd_det(args) -> int:
    family = _family(args)
    spec = _spec(family, args)
    graph = gr.build_family(spec)
    formula = family.det(spec)
    oracle = det_exact(gr.all_pairs_distances(graph))
    match = formula == oracle
    if args.json is not None:
        _write_json(
            {
                "formula": rational_str(formula),
                "oracle": rational_str(oracle),
                "match": match,
            },
            args.json,
        )
    else:
        print(
            f"formula={rational_str(formula)}, oracle={rational_str(oracle)}, "
            f"match={'true' if match else 'false'}"
        )
    return 0 if match else 3


def _cmd_inv(args) -> int:
    family = _family(args)
    try:
        inverse = family.inverse(_spec(family, args))
    except cf.SingularFamilyError as err:
        print(f"singular: {err}", file=sys.stderr)
        return 2
    except cf.ProductCheckError as err:
        print(f"verification failed: {err}", file=sys.stderr)
        return 3
    _write_text(_matrix_csv(inverse), args.out)
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, seed=args.seed)
    payload = report.to_json_dict()
    if args.json is not None:
        _write_json(payload, args.json)
    if args.json != "-":
        print(
            f"suite={report.suite} cells={len(report.grid)} passed={report.passed} "
            f"failed={report.failed} wall_time_ms={report.wall_time_ms}"
        )
        for failure in report.failures:
            print(f"  FAIL {failure['location']}: expected {failure['expected']}, "
                  f"got {failure['actual']}")
    return 3 if report.failed else 0


def _cmd_spectrum(args) -> int:
    for flag in ("part", "n", "b"):
        if getattr(args, flag) is None:
            raise UsageError(f"--{flag} is required")
    n = _require(args.n, "n", 3)
    b = _require(args.b, "b", 2)
    try:
        claim = sp.claimed_spectrum(args.part, n, b)
        matrix = sp.principal_submatrix(args.part, n, b)
    except ValueError as err:
        raise UsageError(str(err)) from None
    check = sp.verify_claim(matrix, claim)
    if args.json is not None:
        _write_json(
            {
                "part": args.part,
                "n": n,
                "b": b,
                "claimed_eigenvalues": [
                    {"value": rational_str(v), "multiplicity": m} for v, m in claim.pairs
                ],
                "quadratic_factor": str(claim.quadratic) if claim.quadratic else None,
                "claimed_char_poly": str(check.claimed),
                "computed_char_poly": str(check.computed),
                "match": check.ok,
            },
            args.json,
        )
    else:
        pairs = ", ".join(f"{rational_str(v)} (x{m})" for v, m in claim.pairs)
        print(f"claimed eigenvalues: {pairs}")
        if claim.quadratic is not None:
            print(f"quadratic factor: {claim.quadratic}")
        print(f"claimed char poly:  {check.claimed}")
        print(f"computed char poly: {check.computed}")
        print(f"match={'true' if check.ok else 'false'}")
    return 0 if check.ok else 3


@contextmanager
def _gc_paused():
    """Keep the cyclic collector off for the block, then restore the caller's
    state, as ``timeit`` does.  Bench's dense matrices are thousands of fresh
    row lists that cannot be garbage; every 700 of them would otherwise
    trigger a collection that walks all their pointers."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _bench_timings(n: int, b: int, order: int) -> tuple:
    """(assembly_ms, gauss_ms, agree) for the book inverse: the generic
    comparison runs only up to ``BENCH_GAUSS_ORDER_CAP``.  The matrices die
    when this returns."""
    start = time.perf_counter()
    assembled = cf.tnb_inverse(n, b, verify_product=False)
    assembly_ms = int((time.perf_counter() - start) * 1000)
    if order > BENCH_GAUSS_ORDER_CAP:
        return assembly_ms, None, None
    dist = cf.tnb_distance(n, b).materialize()
    start = time.perf_counter()
    generic = inverse_exact(dist)
    gauss_ms = int((time.perf_counter() - start) * 1000)
    return assembly_ms, gauss_ms, generic == assembled


def _cmd_bench(args) -> int:
    n = args.n if args.n is not None else 8
    b = args.b if args.b is not None else 500
    if n < 3 or b < 2:
        raise UsageError("bench needs --n >= 3 and --b >= 2")
    order = b * (n - 1) + 1
    try:
        # Called inside the block so its matrices are freed before the
        # collector comes back and leave it nothing to do.
        with _gc_paused():
            assembly_ms, gauss_ms, agree = _bench_timings(n, b, order)
    except cf.SingularFamilyError as err:
        print(f"singular: {err}", file=sys.stderr)
        return 2
    skipped = None
    if gauss_ms is None:
        skipped = (
            f"generic exact inversion skipped at order {order} "
            f"(cap {BENCH_GAUSS_ORDER_CAP}); rerun with a smaller --b for the comparison"
        )
    payload = {
        "n": n,
        "b": b,
        "order": order,
        "assembly_ms": assembly_ms,
        "gauss_ms": gauss_ms,
        "gauss_skipped": skipped,
        "agree": agree,
    }
    if args.json is not None:
        _write_json(payload, args.json)
    if args.json != "-":
        line = f"order={order} assembly_ms={payload['assembly_ms']}"
        if gauss_ms is not None:
            line += f" gauss_ms={payload['gauss_ms']} agree={'true' if agree else 'false'}"
        else:
            line += " gauss=skipped"
        print(line)
        if skipped:
            print(skipped)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "det": _cmd_det,
    "inv": _cmd_inv,
    "verify": _cmd_verify,
    "spectrum": _cmd_spectrum,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, gr.GraphError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
