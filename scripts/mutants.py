"""Mutation check of the exact kernels, of the integer-row matrix, and of
the graph layer's BFS and block recognizer.

    python scripts/mutants.py

Each entry of MUTANTS is ``(file, old text, new text, pytest selection,
reason)``: one exact edit of one source file, and the tests that must fail
once it is made.  The script copies ``src/`` and ``tests/`` of this checkout
into a temporary directory, first runs every selection there unmutated (all
must pass), then applies one mutant at a time and runs its selection in one
pytest process, serially, with a timeout of TIMEOUT_S seconds and a
fixed Hypothesis seed.  A mutant is

- killed when its selection fails or does not finish within the timeout;
- survived when its selection passes;
- stale when its old text is not found exactly once in its file.

CONTROL is a harmless edit (a comment) that must survive: it shows that the
harness can report a survivor.  The exit status is 2 when a selection fails
unmutated, 1 when any mutant survives or is stale or the control does not
survive, and 0 otherwise.  Stdlib only; the check is not part of Tier-1,
since it runs one test process per mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINALG = "src/cpdist/linalg.py"
PACKING = "src/cpdist/packing.py"
GRAPHS = "src/cpdist/graphs.py"
LINALG_TESTS = "tests/test_linalg.py"
GRAPHS_TESTS = "tests/test_graphs.py"
TIMEOUT_S = 300
GENERAL = (LINALG_TESTS, "-x", "-k", "TestRank or TestInverse")
REPAIRS = (LINALG_TESTS, "-x", "-k", "TestDeterminant or TestSymmetricInverse")
PACKED = (LINALG_TESTS, "-x", "-k", "TestPackedElimination")
BACKSUB = (LINALG_TESTS, "-x", "-k", "TestTwoAdicBackSubstitution")
DEFERRED = (LINALG_TESTS, "-x", "-k", "TestDeferredDivision")
RECOGNIZER = (GRAPHS_TESTS, "-x", "-k", "TestClassifyBlock or TestCpRecognizer")

MUTANTS = [
    # The integer-row matrix.
    (LINALG,
     "        if g != 1:\n            num = [[x // g for x in row] for row in num]",
     "        if False:\n            num = [[x // g for x in row] for row in num]",
     (LINALG_TESTS, "-k", "TestIntegerRows"),
     "skip the gcd normalization of _reduced"),
    (LINALG,
     "g = _content(num, den) * (1 if den > 0 else -1)",
     "g = _content(num, den)",
     (LINALG_TESTS, "-k", "TestInverse or TestSymmetricInverse"),
     "keep a negative denominator"),
    (LINALG,
     "den = lcm(*[b.den for block_row in grid for b in block_row])",
     "den = max(b.den for block_row in grid for b in block_row)",
     (LINALG_TESTS, "-k", "TestIntegerRows"),
     "use max for lcm in block"),
    (LINALG,
     "g, h = gcd(p, self.den), _content(self.num, q)",
     "g, h = 1, 1",
     (LINALG_TESTS, "-k", "TestIntegerRows"),
     "skip the cancellation of a scalar factor"),
    (LINALG,
     "row[c] += row[k]\n    return RationalMatrix._reduced(n, n, _rescaled(x, m.den), d >> e)",
     "row[c] += row[k]\n    return RationalMatrix._reduced(n, n, x, d >> e)",
     (LINALG_TESTS, "-k", "TestSymmetricInverse"),
     "drop the factor den in the symmetric inverse's scale-back"),
    (LINALG,
     "for i in range(n)]\n    return RationalMatrix._reduced(n, n, _rescaled(x, m.den), d)",
     "for i in range(n)]\n    return RationalMatrix._reduced(n, n, x, d)",
     (LINALG_TESTS, "-k", "TestInverse or TestRank"),
     "drop the factor den in the general inverse's scale-back"),
    # The general elimination and its inverse.
    (LINALG,
     "piv = next((i for i in range(r, n) if a[i][c] != 0), None)",
     "piv = r if r < n and a[r][c] != 0 else None",
     GENERAL,
     "no pivot search below row r"),
    (LINALG,
     "            continue\n        if piv != r:",
     "            break\n        if piv != r:",
     GENERAL,
     "stop at the first pivotless column"),
    (LINALG,
     "p, end = row_r[c], len(row_r)",
     "p, end = row_r[c], width",
     GENERAL,
     "update only the first width columns"),
    (LINALG,
     "sign = -sign",
     "sign = sign",
     GENERAL,
     "drop the row-swap sign"),
    (LINALG,
     "col.append((d * y - sum(map(mul, u, col))) // p)",
     "col.append((y - sum(map(mul, u, col))) // p)",
     GENERAL,
     "drop the factor d in the general back-substitution"),
    # The pivot repairs of the symmetric elimination.
    (LINALG,
     "swap = col_c[t] != 0",
     "swap = False",
     REPAIRS,
     "always repair by adding, never by swapping"),
    (LINALG,
     "swap = col_c[t] != 0",
     "swap = True",
     REPAIRS,
     "always repair by swapping, never by adding"),
    (LINALG,
     "            u[i][c - i] = row_k[i - k]",
     "            pass",
     REPAIRS,
     "drop the swap's move of the rows between k and c"),
    (LINALG,
     "row[k - r], row[c - r] = row[c - r], row[k - r]",
     "row[k - r], row[c - r] = row[k - r], row[c - r]",
     REPAIRS,
     "drop the swap in the finished rows"),
    (LINALG,
     "row[0] += row[t]",
     "row[0] += 0",
     REPAIRS,
     "drop the diagonal term of the add repair"),
    (LINALG,
     "row[k - r] += row[c - r]",
     "row[k - r] += 0",
     REPAIRS,
     "drop the add in the finished rows"),
    # The packed symmetric elimination.
    (LINALG,
     "top = abs(p) * bound + g * g",
     "top = abs(p) * bound",
     PACKED,
     "drop G_k^2 from the packed slot bound"),
    (LINALG,
     "t = (t + half) >> w",
     "t = t >> w",
     PACKED,
     "floor shift in place of the rounding shift of packed rows"),
    (LINALG,
     "if new.bit_length() + 2 > w:\n                wider",
     "if False:\n                wider",
     PACKED,
     "skip the widening of packed slots"),
    (LINALG,
     "    for k in range(n):\n        if c != 1:",
     "    for k in range(n - 1):\n        if c != 1:",
     (LINALG_TESTS, "-x", "-k", "test_last_steps"),
     "stop the packed elimination one step early"),
    # The common power of two of the packed trailing block.
    (LINALG,
     "z = e and min(2 * e, _twos(prev))",
     "z = e and _twos(prev)",
     PACKED,
     "divide by the odd part of prev even where it has more than 2e twos"),
    (LINALG,
     "u[k], twos[k] = row_k, e",
     "u[k], twos[k] = row_k, 0",
     PACKED,
     "store finished rows without their power of two"),
    (LINALG,
     "u[k:] = [[x << e for x in _unpack(",
     "u[k:] = [[x for x in _unpack(",
     PACKED,
     "unpack the block for a pivot repair without its power of two"),
    (LINALG,
     "else _common_twos(row_k, rows[k + 1:], n - k - 1, w)",
     "else _common_twos(row_k, [], n - k - 1, w)",
     PACKED,
     "read the common power of two from the pivot row only"),
    (PACKING,
     "acc |= (r + bias) & mask",
     "acc |= r & mask",
     PACKED,
     "read the digits' low bits without the slot bias"),
    # The deferred division of the packed rows by the pending divisors c.
    (LINALG,
     "            rows[k] //= c",
     "            pass",
     DEFERRED,
     "skip the pivot row's division by c"),
    (LINALG,
     "            if c != 1:\n                rows[k + 1:] = [r // c for r in rows[k + 1:]]\n                c = 1\n"
     "            # A pivot with fewer than two twos rules out s >= 2 at once.\n"
     "            s = 0 if p & 3 else _common_twos(row_k, rows[k + 1:], n - k - 1, w)\n",
     "            s = 0 if p & 3 else _common_twos(row_k, rows[k + 1:], n - k - 1, w)\n"
     "            if c != 1:\n                rows[k + 1:] = [r // c for r in rows[k + 1:]]\n                c = 1\n",
     DEFERRED,
     "call _common_twos before dividing the trailing rows by c"),
    (LINALG,
     "            if c != 1:\n                rows[k + 1:] = [r // c for r in rows[k + 1:]]",
     "            if c != 1 and not p & 3:\n                rows[k + 1:] = [r // c for r in rows[k + 1:]]",
     DEFERRED,
     "widen before dividing the trailing rows by c"),
    (LINALG,
     "_unpack(r // c if i > k else r, n - i, w)",
     "_unpack(r, n - i, w)",
     DEFERRED,
     "repair without dividing the trailing rows by c"),
    # Unpacking through one int64 array.
    (PACKING,
     "data = ((r + bias) ^ bias).to_bytes(",
     "data = (r + bias).to_bytes(",
     PACKED,
     "drop the XOR with the slot bias in _unpack"),
    (PACKING,
     "signs = data[size - 1::size]",
     "signs = data[0::size]",
     PACKED,
     "sign-extend from the wrong byte"),
    # The two-adic back-substitution of the symmetric inverse.
    (LINALG,
     "q = (rhs - (sum(map(mul, tail, col)) << e)) // (div << h)",
     "q = (rhs - sum(map(mul, tail, col))) // (div << h)",
     BACKSUB,
     "drop the exponent's shift"),
    (LINALG,
     "                if q & ((1 << h) - 1):",
     "                if False:",
     BACKSUB,
     "floor instead of the exact shift for a negative exponent"),
    # The BFS and the block recognizer.
    (GRAPHS,
     "if all((level[u] ^ level[v]) & 1 for u, v in induced):",
     "if all((level[u] | level[v]) & 1 for u, v in induced):",
     RECOGNIZER,
     "test the levels of an edge with | in place of ^"),
    (GRAPHS,
     "return (CompleteBipartite if len(induced) == m * (k - m) else Bipartite)(m, k - m)",
     "return CompleteBipartite(m, k - m)",
     RECOGNIZER,
     "name every bipartite block complete bipartite"),
    (GRAPHS,
     "== [2] * (k - 2) + [k - 1] * 2:",
     "== [2] * (k - 2) + [k - 2] * 2:",
     RECOGNIZER,
     "give the fan's two base vertices degree k - 2"),
    (GRAPHS,
     '    if min(level[1:]) < 0:\n        raise GraphError("block is not connected")\n',
     "",
     RECOGNIZER,
     "drop the check that the block is connected"),
    (GRAPHS,
     '        if min(row) < 0:\n            raise GraphError("graph not connected")\n',
     "",
     (GRAPHS_TESTS, "-x", "-k", "TestDistances"),
     "drop the connectivity check of all_pairs_distances"),
]

CONTROL = (
    LINALG,
    "# u[k] holds the finished row, so its packed form is dropped;",
    "# u[k] holds the finished pivot row, so its packed form is dropped;",
    (LINALG_TESTS, "-k", "TestPackedElimination"),
    "harmless: reword a comment",
)


def run_selection(tree: Path, selection: tuple) -> str:
    """'passed', 'failed' or 'timeout' for one pytest process in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
             *selection],
            cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if proc.returncode == 0 else "failed"


def check(tree: Path, mutant: tuple) -> tuple:
    """``(outcome, detail)`` of one mutant applied in ``tree``."""
    file, old, new, selection, _ = mutant
    path = tree / file
    original = path.read_text(encoding="utf-8")
    if original.count(old) != 1:
        return "stale", f"old text found {original.count(old)} times"
    path.write_text(original.replace(old, new), encoding="utf-8")
    try:
        result = run_selection(tree, selection)
    finally:
        path.write_text(original, encoding="utf-8")
    return ("survived" if result == "passed" else "killed"), f"selection {result}"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        for selection in dict.fromkeys(m[3] for m in MUTANTS + [CONTROL]):
            result = run_selection(tree, selection)
            if result != "passed":
                print(f"unmutated selection {' '.join(selection)}: {result}; nothing checked")
                return 2
        status = 0
        for mutant in MUTANTS + [CONTROL]:
            start = time.perf_counter()
            outcome, detail = check(tree, mutant)
            expected = "survived" if mutant is CONTROL else "killed"
            if outcome != expected:
                status = 1
            print(f"{outcome:8} {time.perf_counter() - start:6.1f} s  {mutant[4]} ({detail}; "
                  f"expected {expected})")
    print("all mutants killed, control survived" if status == 0 else "check FAILED")
    return status


if __name__ == "__main__":
    sys.exit(main())
