"""Per-layer timings of two checkouts of cpdist, written as BENCH_<pr>.json.

    python scripts/bench_layers.py --before DIR [--before-label LABEL]
        [--after DIR] --pr N

DIR is the root of a checkout (``src/``, ``tests/``, ``perfbench/``);
``--after`` defaults to this repository, and a commit to compare against can
be exported with ``git archive REV | tar -x -C DIR``.  Every measurement runs in a fresh
interpreter with that checkout's ``src/`` on ``PYTHONPATH``, so the two
sides never share a module.  Each row is ``{layer, name, params, ms}``,
with ``params.rev`` naming the side, one row per line; each run writes
the file afresh.  Each measurement runs on the two sides back to back, so
the drift of a shared machine falls between measurements, not between the
sides of one.

Layers: L0 the exact kernels (the char poly of book distance matrices,
the determinants of the oracle-scaling tree and book, the inverses of the
order-71 and order-141 book distance matrices, the determinants and
inverses of seed-42 tree distance matrices of orders 16-100 and of a few
below order 8, the claimed
characteristic polynomial of the largest spectra-suite claim, and the
non-symmetric determinant, inverse and rank of random integer matrices
of orders 3-71 and the rank of a singular one), L1 the closed forms with
their self-checks, the order-7001 book inverse as ``bench`` assembles it,
and scalar times, sum and comparison of the order-71 book inverse, L2 each
of the five verify suites, L3 whole
commands (``verify --suite all``, a large book ``inv``, a large book and a
large K_{m,n} ``gen``, a large book ``bench``, the order-200 tree ``det``,
the Tier-1 test run) and the end-to-end metrics of every perfbench
workload, run in 10 pairs that alternate which side goes first.  Suite
rows come from fresh processes that alternate between the sides in the
same way.  A run takes about 50 minutes on 2 vCPUs.
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
from pathlib import Path

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
SINGULAR_RANK = "random_matrix(Lcg(1), 30, 20) * random_matrix(Lcg(2), 20, 30)"
SUITE_PROCESSES = 5
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
COMMAND_RUNS = 3
COMMAND_TIMEOUT_S = 60
TIER1_RUNS = 2
WORKLOADS = ("verify-suites", "oracle-scaling", "book-assembly")
SUITES = ("recognizer", "lemmas", "dets", "inverses", "spectra")
PAIRS = 10


def _python(tree: Path, code: str, timeout=None) -> str:
    """Run ``code`` in a fresh interpreter importing cpdist from ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tree, env=env, check=True,
                          capture_output=True, text=True, timeout=timeout)
    return proc.stdout


def _median_ms(tree: Path, setup: str, call: str, calls: int, repeat: int = 1) -> float:
    """Median time of one ``call`` over ``calls`` samples, each the mean of
    ``repeat`` calls in a row."""
    code = (f"import time\n{setup}\nts = []\nfor _ in range({calls}):\n"
            f"    t = time.perf_counter()\n    for _ in range({repeat}): {call}\n"
            f"    ts.append((time.perf_counter() - t) / {repeat})\n"
            "import statistics; print(statistics.median(ts) * 1000)")
    return round(float(_python(tree, code)), 4)


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


def l1_cases() -> list:
    setup = "from cpdist import closed_form as cf"
    gc_off = f"{setup}\nimport gc\ngc.disable()"
    cases = [(f"RationalMatrix {name}", {"order": 71, "matrix": "tnb_inverse(8, 10)"},
              ARITHMETIC_SETUP, call, GENERAL_CALLS, 10) for name, call in ARITHMETIC]
    return cases + [
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


def kernel_rows(sides: tuple, revs: dict, layer: str, cases: list) -> list:
    """One row per case and side, the two sides of a case measured back to
    back in fresh processes, alternating which goes first."""
    rows = []
    for i, (name, params, setup, call, calls, repeat) in enumerate(cases):
        stat = (f"median of {calls} samples, each the mean of {repeat} calls" if repeat > 1
                else f"median of {calls} calls")
        for side, tree in (sides if i % 2 == 0 else sides[::-1]):
            rows.append({"layer": layer, "name": name,
                         "params": {**params, "rev": revs[side], "stat": stat},
                         "ms": _median_ms(tree, setup, call, calls, repeat)})
    return rows


def _suite_ms(tree: Path, suite: str) -> int:
    code = f"from cpdist.suites import run_suite\nprint(run_suite({suite!r}).wall_time_ms)"
    return int(_python(tree, code))


def suite_rows(sides: tuple, revs: dict, layer: str, suites) -> list:
    """One run of each suite per fresh process, SUITE_PROCESSES per side,
    alternating which side goes first."""
    rows = []
    for suite in suites:
        values = {side: [] for side, _ in sides}
        for i in range(SUITE_PROCESSES):
            for side, tree in (sides if i % 2 == 0 else sides[::-1]):
                values[side].append(_suite_ms(tree, suite))
        for side, _ in sides:
            rows.append({"layer": layer, "name": f"verify --suite {suite}",
                         "params": {"rev": revs[side], "runs_ms": values[side],
                                    "stat": f"median of {SUITE_PROCESSES} fresh processes alternating "
                                            "with the other side, report wall_time_ms"},
                         "ms": statistics.median(values[side])})
    return rows


def command_row(tree: Path, rev: str, argv: tuple) -> dict:
    params = {"rev": rev, "stat": f"median wall time of {COMMAND_RUNS} processes"}
    times = []
    with tempfile.TemporaryDirectory() as tmp:
        # bench and det write JSON; the other commands write CSV.
        out = (["--json", f"{tmp}/out.json"] if argv[0] in ("bench", "det")
               else ["--out", f"{tmp}/out.csv"])
        code = ("import sys\nfrom cpdist.cli import main\n"
                f"sys.exit(main({list(argv) + out!r}))")
        for _ in range(COMMAND_RUNS):
            start = time.perf_counter()
            try:
                _python(tree, code, timeout=COMMAND_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                params["result"] = f"not finished within {COMMAND_TIMEOUT_S} s, stopped"
                break
            times.append(round((time.perf_counter() - start) * 1000, 1))
    ms = statistics.median(times) if len(times) == COMMAND_RUNS else None
    return {"layer": "L3", "name": " ".join(argv), "params": {**params, "runs_ms": times},
            "ms": ms}


def tier1_row(tree: Path, rev: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    results, times = [], []
    for _ in range(TIER1_RUNS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               "--continue-on-collection-errors"],
                              cwd=tree, env=env, capture_output=True, text=True, check=False)
        times.append(time.perf_counter() - start)
        summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        if proc.returncode != 0:
            raise RuntimeError(f"Tier-1 in {tree} exited {proc.returncode}: {summary}")
        results.append(summary.strip("= "))
    return {"layer": "L3", "name": "tier1",
            "params": {"rev": rev, "results": results,
                       "stat": f"mean of {TIER1_RUNS} runs, wall time"},
            "ms": round(statistics.mean(times) * 1000, 1)}


def _perfbench(tree: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "35"], cwd=tree,
                          capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed} in {tree}: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def perfbench_rows(sides: tuple, revs: dict) -> list:
    trees = dict(sides)
    rows = []
    for workload in WORKLOADS:
        runs = {"before": [], "after": []}
        seeds = list(range(101, 101 + PAIRS))
        for i, seed in enumerate(seeds):
            order = ("before", "after") if i % 2 == 0 else ("after", "before")
            for side in order:
                runs[side].append(_perfbench(trees[side], workload, seed))
        for metric in runs["before"][0]:
            values = {side: [r[metric] for r in runs[side]] for side in runs}
            wins = sum(a < b for a, b in zip(values["after"], values["before"]))
            # Times are written in ms, as every other row; other metrics as read.
            key, suffix, scale = ("ms", "_ms", 1000) if metric.endswith("_s") else ("value", "", 1)
            for side in ("before", "after"):
                q1, _, q3 = statistics.quantiles(values[side], n=4)
                params = {"workload": workload, "rev": revs[side], "runs": PAIRS, "seeds": seeds,
                          "seconds": 35, "stat": "median",
                          f"q1{suffix}": round(q1 * scale, 3), f"q3{suffix}": round(q3 * scale, 3),
                          f"values{suffix}": [round(v * scale, 3) for v in values[side]],
                          "alternation": "pair i runs before first when i is even"}
                if side == "after":
                    params["pairs_after_lower"] = wins
                rows.append({"layer": "L3", "name": metric, "params": params,
                             key: round(statistics.median(values[side]) * scale, 3)})
    return rows


def _each_side(measure):
    """Run a measure of one checkout on the two sides back to back."""
    return lambda sides, revs: [row for side, tree in sides for row in measure(tree, revs[side])]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, required=True)
    parser.add_argument("--after", type=Path, default=ROOT)
    parser.add_argument("--before-label", default="before")
    parser.add_argument("--pr", required=True)
    args = parser.parse_args(argv)
    revs = {"before": args.before_label, "after": "after"}
    sides = (("before", args.before.resolve()), ("after", args.after.resolve()))

    measures = [lambda sides, revs: kernel_rows(sides, revs, "L0", l0_cases()),
                lambda sides, revs: kernel_rows(sides, revs, "L1", l1_cases()),
                lambda sides, revs: suite_rows(sides, revs, "L2", SUITES),
                lambda sides, revs: suite_rows(sides, revs, "L3", ("all",))]
    measures += [_each_side(lambda tree, rev, argv=argv: [command_row(tree, rev, argv)])
                 for argv in COMMANDS]
    measures += [_each_side(lambda tree, rev: [tier1_row(tree, rev)]), perfbench_rows]
    rows = [row for measure in measures for row in measure(sides, revs)]

    lines = [json.dumps(row) for row in rows]
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")
    for row in rows:
        print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
