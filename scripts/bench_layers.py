"""Per-layer timings of two checkouts of cpdist, written as BENCH_<pr>.json.

    python scripts/bench_layers.py --before DIR [--before-label LABEL]
        [--after DIR] --pr N

DIR is the root of a checkout (``src/``, ``tests/``, ``perfbench/``);
``--after`` defaults to this repository, and a commit to compare against can
be exported with ``git archive REV | tar -x -C DIR``.  The two resolved
paths must be of one length: the length of a checkout's path alone moves
perfbench's ``peak_rss_mb`` by up to half a megabyte.

Every row is measured the same way.  In each of PAIRS rounds (TIER1_PAIRS
for the Tier-1 run, which takes about 27 s) a measure runs once per side,
each run in a fresh interpreter with that checkout's ``src/`` on
``PYTHONPATH``, the before side first in even rounds and the after side
first in odd ones, so the drift of a shared machine falls on both sides
alike.  A child that exits non-zero stops the run and prints its stderr.
A measure returns ``{metric: value}``, the metric naming its unit, and each
metric is written as two rows, before then after, one row per line:

    {"layer", "name", "params", "metric", "rev",
     "median", "q1", "q3", "values", "pairs_after_lower",
     "ratios", "ratio_median"}

``values`` are the per-process values in round order, to 5 significant
digits; ``median``, ``q1`` and ``q3`` are theirs, the quartiles by the
inclusive method, so they lie within the values.  ``pairs_after_lower``,
on the after row only, counts the rounds whose after value is lower than
the before value; ties count for neither side.  A row of fewer than PAIRS
rounds (Tier-1) carries ``null`` there: a count out of two rounds cannot
meet a rule written for ten.  ``ratios``, also on the after row only, are
each round's after value over its before value (``null`` where the before
value is 0), and ``ratio_median`` is their median: the two runs of a round
are back to back, so a change of machine speed between rounds moves both
and leaves the ratio, where it widens the quartiles of each side.  Each
run writes the file afresh.

Layers: L0 the exact kernels (the char poly of book distance matrices,
the determinants of the oracle-scaling tree and book, the inverses of the
order-71 and order-141 book distance matrices, the determinants and
inverses of seed-42 tree distance matrices of orders 16-100 and of a few
below order 8, the claimed characteristic polynomial of the largest
spectra-suite claim, and the non-symmetric determinant, inverse and rank
of random integer matrices of orders 3-71 and the rank of a singular one,
and the determinant and inverse of random symmetric integer matrices of
orders 30-100, whose eliminations carry at most one common factor 2),
L1 the closed forms with their self-checks, the order-7001 book inverse as
``bench`` assembles it, scalar times, sum and comparison of the order-71
book inverse, the BFS distance matrices of the oracle-scaling tree and
book, and the cp recognizer over the recognizer suite's corpus and on the
order-200 tree, L2 each of the five verify suites, L3 whole
commands (``verify --suite all``, a large book ``inv``, a large book and a
large K_{m,n} ``gen``, a large book ``bench``, the order-200 tree ``det``),
the Tier-1 test run and the end-to-end metrics of every perfbench
workload.  A process of an L0 or L1 row reports the median time of
several calls (``params.per_process``).  A run takes about an hour on
2 vCPUs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent

# Book distance matrices of order b*(n-1)+1, as in BENCH_3.json.
L0_SIZES = ((4, 5), (8, 5), (8, 10))
L0_CALLS = 5
# The general-path kernels take microseconds to milliseconds, so their
# medians take more samples, and below order 30 each sample averages
# GENERAL_REPEAT calls.
GENERAL_CALLS = 21
GENERAL_REPEAT = 100
# The distance matrices whose determinants the perfbench oracle-scaling
# workload checks: the order-200 seed-42 tree of ``det --family tree --n 200``
# and the order-141 book (8, 20).
DET_MATRICES = (
    ("tree n=200 seed=42", 200, "gr.Tree(random_tree_edges(200, Lcg(42)))"),
    ("tn-book n=8 b=20", 141, "gr.TnBook(8, 20)"),
)
# The order-71 and order-141 book distance matrices behind the L0 inverse
# rows (``bench --n 8 --b 10`` inverts the first).
INVERSE_BOOKS = ((8, 10), (8, 20))
# Orders of the seed-42 tree distance matrices behind the det and inverse
# rows on both sides of the order from which the symmetric elimination
# packs its rows; below order 30 each sample averages GENERAL_REPEAT calls.
TREE_ORDERS = (16, 24, 32, 50, 100)
# Small seed-42 tree distance matrices, ``(kernel, order)``: symmetric
# inputs that take microseconds, each sample averaging GENERAL_REPEAT calls.
SMALL_TREE_CASES = (("det_exact", 4), ("det_exact", 6), ("inverse_exact", 3))
# The spectra suite's largest claim: degree 36, a quadratic factor and
# linear factors of multiplicity up to 30.
CLAIM = ("NC", 10, 5)
# Orders of the non-symmetric ``random_invertible(Lcg(1), order)`` matrices
# behind the general-path det, inverse and rank rows, and a singular
# order-30 matrix of rank 20 for the rank row that skips columns.
GENERAL_ORDERS = (3, 8, 30, 71)
# Orders of the random symmetric integer matrices behind the symmetric det
# and inverse rows whose trailing blocks carry at most one common factor 2,
# unlike those of distance matrices.
SYMMETRIC_ORDERS = (30, 60, 100)
SINGULAR_RANK = "random_matrix(Lcg(1), 30, 20) * random_matrix(Lcg(2), 20, 30)"
# Whole commands, each timed in fresh processes: the order-3501 book
# inverse, the order-2101 book distance matrix, the order-701 K_{m,n}
# distance matrix, the order-7001 book inverse assembly and the order-200
# tree determinant against its Bareiss oracle.
COMMANDS = (
    ("inv", "--family", "tn-book", "--n", "8", "--b", "500"),
    ("gen", "--family", "tn-book", "--n", "8", "--b", "300", "--kind", "dist"),
    ("gen", "--family", "kmn", "--m", "350", "--n", "351"),
    ("bench", "--n", "8", "--b", "1000"),
    ("det", "--family", "tree", "--n", "200"),
)
COMMAND_TIMEOUT_S = 60
WORKLOADS = ("verify-suites", "oracle-scaling", "book-assembly")
SUITES = ("recognizer", "lemmas", "dets", "inverses", "spectra")
PAIRS = 10
TIER1_PAIRS = 2


class Case(NamedTuple):
    """One measured thing: ``measure(tree, round)`` runs it once in a fresh
    process of the checkout at ``tree`` and returns ``{metric: value}``."""

    layer: str
    name: str
    params: dict
    measure: Callable
    rounds: int = PAIRS


def _run(tree: Path, args: list, timeout=None) -> str:
    """Stdout of ``python *args`` run in ``tree`` with its ``src/`` on the
    path.  A child that fails stops the benchmark with its stderr."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    try:
        proc = subprocess.run([sys.executable, *args], cwd=tree, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"python {args} in {tree} did not finish within {timeout} s")
    if proc.returncode != 0:
        # pytest reports its failures on stdout, and their count last.
        tail = "".join(proc.stdout.strip().splitlines()[-1:])
        sys.exit(f"python {args} in {tree} exited {proc.returncode}\n"
                 f"stdout ends: {tail}\nstderr:\n{proc.stderr}")
    return proc.stdout


def l0_cases() -> list:
    """``(name, params, setup, call, calls, repeat)`` of every L0 row."""
    cases = []
    for n, b in L0_SIZES:
        # Built through names both checkouts have; the tnb-blockform cells
        # check that the BFS matrix is the closed-form one.
        setup = ("from cpdist.graphs import TnBook, all_pairs_distances, build_family\n"
                 "from cpdist.linalg import char_poly_exact\n"
                 f"d = all_pairs_distances(build_family(TnBook({n}, {b})))")
        cases.append(("char_poly_exact", {"order": b * (n - 1) + 1, "matrix": f"tn-book distance n={n} b={b}"},
                      setup, "char_poly_exact(d)", L0_CALLS, 1))
    for matrix, order, spec in DET_MATRICES:
        setup = ("from cpdist import graphs as gr\n"
                 "from cpdist.linalg import det_exact\n"
                 "from cpdist.rng import Lcg, random_tree_edges\n"
                 f"d = gr.all_pairs_distances(gr.build_family({spec}))")
        cases.append(("det_exact", {"order": order, "matrix": f"{matrix} distance"},
                      setup, "det_exact(d)", L0_CALLS, 1))
    for n, b in INVERSE_BOOKS:
        setup = ("from cpdist.graphs import TnBook, all_pairs_distances, build_family\n"
                 "from cpdist.linalg import inverse_exact\n"
                 f"d = all_pairs_distances(build_family(TnBook({n}, {b})))")
        cases.append(("inverse_exact", {"order": b * (n - 1) + 1, "matrix": f"tn-book distance n={n} b={b}"},
                      setup, "inverse_exact(d)", L0_CALLS, 1))
    tree_cases = [*SMALL_TREE_CASES,
                  *[(name, order) for order in TREE_ORDERS for name in ("det_exact", "inverse_exact")]]
    for name, order in tree_cases:
        setup = ("from cpdist import graphs as gr\n"
                 "from cpdist.linalg import det_exact, inverse_exact\n"
                 "from cpdist.rng import Lcg, random_tree_edges\n"
                 f"d = gr.all_pairs_distances(gr.build_family(gr.Tree(random_tree_edges({order}, Lcg(42)))))")
        repeat = GENERAL_REPEAT if order < 30 else 1
        cases.append((name, {"order": order, "matrix": f"tree n={order} seed=42 distance"},
                      setup, f"{name}(d)", GENERAL_CALLS, repeat))
    for order in GENERAL_ORDERS:
        setup = ("from cpdist.linalg import det_exact, inverse_exact, rank\n"
                 "from cpdist.rng import Lcg, random_invertible\n"
                 f"m = random_invertible(Lcg(1), {order})")
        repeat = GENERAL_REPEAT if order < 30 else 1
        for name in ("det_exact", "inverse_exact", "rank"):
            cases.append((name, {"order": order, "matrix": "random_invertible(Lcg(1), order)"},
                          setup, f"{name}(m)", GENERAL_CALLS, repeat))
    for order in SYMMETRIC_ORDERS:
        setup = ("from cpdist.linalg import RationalMatrix, det_exact, inverse_exact\n"
                 f"from cpdist.rng import Lcg\nrng, n = Lcg(1), {order}\n"
                 "rows = [[0] * n for _ in range(n)]\n"
                 "for i in range(n):\n    for j in range(i, n):\n"
                 "        rows[i][j] = rows[j][i] = rng.randint(-9, 9)\n"
                 "m = RationalMatrix.from_rows(rows)")
        for name in ("det_exact", "inverse_exact"):
            cases.append((name, {"order": order, "matrix": "symmetric, upper triangle row by row "
                                 "from Lcg(1).randint(-9, 9)"},
                          setup, f"{name}(m)", GENERAL_CALLS, 1))
    setup = f"from cpdist.linalg import rank\nfrom cpdist.rng import Lcg, random_matrix\nm = {SINGULAR_RANK}"
    cases.append(("rank", {"order": 30, "matrix": f"order 30 rank 20, {SINGULAR_RANK}"},
                  setup, "rank(m)", GENERAL_CALLS, 1))
    part, n, b = CLAIM
    setup = ("from cpdist.spectra import claimed_spectrum\n"
             f"claim = claimed_spectrum({part!r}, {n}, {b})")
    cases.append(("SpectrumClaim.char_poly", {"part": part, "n": n, "b": b, "degree": b * (n - 3) + 1},
                  setup, "claim.char_poly()", L0_CALLS, 1))
    return cases


# The order-71 book inverse and an equal matrix built independently, for
# the matrix arithmetic rows.
ARITHMETIC_SETUP = ("from cpdist import closed_form as cf\n"
                    "x = cf.tnb_inverse(8, 10)\ny = cf.tnb_xblocks(8, 10).materialize()")
ARITHMETIC = (("scalar * X", "3 * x"), ("X + X", "x + x"), ("X == Y", "x == y"))


# The graph layer: the BFS behind the oracle-scaling determinants, and the
# cp recognizer over the graphs the recognizer suite certifies.
GRAPH_SETUP = ("from cpdist import graphs as gr, suites\n"
               "from cpdist.rng import Lcg, random_tree_edges")


def graph_cases() -> list:
    cases = [("all_pairs_distances", {"order": order, "graph": graph},
              f"{GRAPH_SETUP}\ng = gr.build_family({spec})", "gr.all_pairs_distances(g)",
              GENERAL_CALLS, 1) for graph, order, spec in DET_MATRICES]
    tree = DET_MATRICES[0]
    return cases + [
        ("is_cp_graph", {"graphs": "suites._cp_corpus(42)"},
         f"{GRAPH_SETUP}\ncorpus = [g for _, g, _ in suites._cp_corpus(42)]",
         "[gr.is_cp_graph(g) for g in corpus]", GENERAL_CALLS, 1),
        ("is_cp_graph", {"order": tree[1], "graph": tree[0]},
         f"{GRAPH_SETUP}\ng = gr.build_family({tree[2]})", "gr.is_cp_graph(g)", GENERAL_CALLS, 1)]


def l1_cases() -> list:
    setup = "from cpdist import closed_form as cf"
    gc_off = f"{setup}\nimport gc\ngc.disable()"
    cases = [(f"RationalMatrix {name}", {"order": 71, "matrix": "tnb_inverse(8, 10)"},
              ARITHMETIC_SETUP, call, GENERAL_CALLS, 10) for name, call in ARITHMETIC]
    return cases + graph_cases() + [
        ("tnb_inverse", {"n": 8, "b": 50, "self_check": "default"}, setup,
         "cf.tnb_inverse(8, 50)", 3, 1),
        ("kmn_inverse", {"m": 100, "n": 100, "self_check": "default"}, setup,
         "cf.kmn_inverse(100, 100)", 3, 1),
        # The order-7001 inverse as bench assembles it, and its expansion
        # alone, with the collector off as bench runs them; each sample
        # also frees the matrix it built.
        ("tnb_inverse", {"n": 8, "b": 1000, "self_check": "off", "gc": "disabled"}, gc_off,
         "cf.tnb_inverse(8, 1000, verify_product=False)", 5, 1),
        ("StructuredBlockForm.materialize", {"n": 8, "b": 1000, "form": "tnb_xblocks",
                                             "gc": "disabled"},
         f"{gc_off}\nform = cf.tnb_xblocks(8, 1000)", "form.materialize()", 5, 1)]


def _kernel(layer: str, name: str, params: dict, setup: str, call: str,
            calls: int, repeat: int) -> Case:
    """A case whose process reports the median time of one ``call`` over
    ``calls`` samples, each the mean of ``repeat`` calls in a row."""
    code = (f"import time\n{setup}\nts = []\nfor _ in range({calls}):\n"
            f"    t = time.perf_counter()\n    for _ in range({repeat}): {call}\n"
            f"    ts.append((time.perf_counter() - t) / {repeat})\n"
            "import statistics; print(statistics.median(ts) * 1000)")
    stat = (f"median of {calls} samples, each the mean of {repeat} calls" if repeat > 1
            else f"median of {calls} calls")
    return Case(layer, name, {**params, "per_process": stat},
                lambda tree, _: {"ms": float(_run(tree, ["-c", code]))})


def _suite(suite: str, tree: Path, _round: int) -> dict:
    code = f"from cpdist.suites import run_suite\nprint(run_suite({suite!r}).wall_time_ms)"
    return {"wall_time_ms": int(_run(tree, ["-c", code]))}


def _wall_ms(tree: Path, args: list, timeout=None) -> dict:
    start = time.perf_counter()
    _run(tree, args, timeout)
    return {"wall_ms": (time.perf_counter() - start) * 1000}


def _command(argv: tuple, tree: Path, _round: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        # bench and det write JSON; the other commands write CSV.
        out = (["--json", f"{tmp}/out.json"] if argv[0] in ("bench", "det")
               else ["--out", f"{tmp}/out.csv"])
        code = f"import sys\nfrom cpdist.cli import main\nsys.exit(main({list(argv) + out!r}))"
        return _wall_ms(tree, ["-c", code], COMMAND_TIMEOUT_S)


def _tier1(tree: Path, _round: int) -> dict:
    return _wall_ms(tree, ["-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"])


def _perfbench(workload: str, tree: Path, round_: int) -> dict:
    seed = 101 + round_
    out = _run(tree, ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                      "--seconds", "35"])
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"perfbench {workload} seed {seed} in {tree}: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def cases() -> list:
    """Every case, in the order its rows are written."""
    return ([_kernel("L0", *case) for case in l0_cases()]
            + [_kernel("L1", *case) for case in l1_cases()]
            + [Case("L2", f"verify --suite {suite}", {}, partial(_suite, suite)) for suite in SUITES]
            + [Case("L3", "verify --suite all", {}, partial(_suite, "all"))]
            + [Case("L3", " ".join(argv), {}, partial(_command, argv)) for argv in COMMANDS]
            + [Case("L3", "tier1", {}, _tier1, TIER1_PAIRS)]
            + [Case("L3", f"perfbench {workload}",
                    {"seconds": 35, "seeds": list(range(101, 101 + PAIRS))},
                    partial(_perfbench, workload)) for workload in WORKLOADS])


def pairs(sides: tuple, measure: Callable, rounds: int = PAIRS) -> dict:
    """``{side: [measure(tree, i) for each round i]}``: each round runs
    ``measure`` once per ``(side, tree)`` of ``sides``, in that order in
    even rounds and reversed in odd ones."""
    runs = {side: [] for side, _ in sides}
    for i in range(rounds):
        for side, tree in (sides if i % 2 == 0 else sides[::-1]):
            runs[side].append(measure(tree, i))
    return runs


def _digits(value: float) -> float:
    """``value`` to the 5 significant digits rows are written and compared at."""
    return float(f"{value:.5g}")


def summary(case: Case, revs: dict, runs: dict) -> list:
    """Two rows per metric of ``runs``, before then after."""
    rows = []
    for metric in runs["before"][0]:
        values = {side: [_digits(run[metric]) for run in runs[side]] for side in runs}
        for side in ("before", "after"):
            q1, _, q3 = statistics.quantiles(values[side], n=4, method="inclusive")
            row = {"layer": case.layer, "name": case.name, "params": case.params,
                   "metric": metric, "rev": revs[side],
                   "median": _digits(statistics.median(values[side])),
                   "q1": _digits(q1), "q3": _digits(q3), "values": values[side]}
            if side == "after":
                row["pairs_after_lower"] = None if case.rounds < PAIRS else sum(
                    after < before for after, before in zip(values["after"], values["before"]))
                ratios = [_digits(after / before) if before else None
                          for after, before in zip(values["after"], values["before"])]
                known = [r for r in ratios if r is not None]
                row["ratios"] = ratios
                row["ratio_median"] = _digits(statistics.median(known)) if known else None
            rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, required=True)
    parser.add_argument("--after", type=Path, default=ROOT)
    parser.add_argument("--before-label", default="before")
    parser.add_argument("--pr", required=True)
    args = parser.parse_args(argv)
    sides = (("before", args.before.resolve()), ("after", args.after.resolve()))
    if len(str(sides[0][1])) != len(str(sides[1][1])):
        parser.error(f"--before {sides[0][1]} and --after {sides[1][1]} differ in length; "
                     "a checkout's path length alone moves peak_rss_mb, so copy both "
                     "to paths of one length")
    revs = {"before": args.before_label, "after": "after"}
    lines = []
    for case in cases():
        for row in summary(case, revs, pairs(sides, case.measure, case.rounds)):
            lines.append(json.dumps(row))
            print(lines[-1], flush=True)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
