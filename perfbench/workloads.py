"""Op lists for the three benchmark workloads.

An op is one ``cpdist.cli.main(argv)`` call.  Every argv is fixed: the
verify corpora and the random tree use cpdist's default ``--seed`` (the
corpora Tier-1 runs), and each book size is written down, so every seed
asks for exactly the same calls.  The seed only shuffles the order of the
calls in a pass (and the rows the checks sample), which leaves the work of
a pass unchanged; the output digests, keyed by ``Op.key``, show it.
Nothing here imports cpdist.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

SUITE_ORDER = ("recognizer", "lemmas", "dets", "inverses", "spectra")
# Cell counts of each suite, written down independently of cpdist; together
# they are the 1294 cells of ``verify --suite all``.
SUITE_CELLS = {"recognizer": 140, "lemmas": 711, "dets": 156, "inverses": 184, "spectra": 103}

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = ("verify-suites", "book-assembly", "oracle-scaling")

_OUT_FLAG = {"verify": "--json", "det": "--json", "spectrum": "--json", "bench": "--json",
             "gen": "--out", "inv": "--out"}


@dataclass(frozen=True)
class Op:
    """One CLI call, its expected exit code and the file it writes."""

    argv: tuple
    expect_exit: int = 0
    out: Optional[str] = None

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def key(self) -> str:
        """The argv without the output path, the same in every run."""
        argv = self.argv[:-2] if self.out else self.argv
        return " ".join(argv)

    def flag(self, name: str) -> Optional[str]:
        argv = self.argv
        for i, arg in enumerate(argv[:-1]):
            if arg == f"--{name}":
                return argv[i + 1]
        return None

    def int_flag(self, name: str) -> Optional[int]:
        value = self.flag(name)
        return None if value is None else int(value)


def _argvs(workload: str) -> list:
    """(argv, expected exit code) of each op of one workload."""
    if workload == "verify-suites":
        return [(("verify", "--suite", suite), 0) for suite in SUITE_ORDER]
    if workload == "book-assembly":
        # bench at order 7001 = b*(n-1)+1, gen at order 2101.
        return [(("bench", "--n", 8, "--b", 1000), 0),
                (("bench", "--n", 5, "--b", 1750), 0)] + [
            (("gen", "--family", "tn-book", "--kind", kind, "--n", 8, "--b", 300), 0)
            for kind in ("dist", "lap", "rmat")]
    if workload == "oracle-scaling":
        return [
            (("det", "--family", "tree", "--n", 200), 0),
            (("det", "--family", "tn-book", "--n", 8, "--b", 20), 0),
            (("inv", "--family", "tn-book", "--n", 8, "--b", 10), 0),
            (("inv", "--family", "kmn", "--m", 40, "--n", 31), 0),
            # Hub-extended part NC, order b*(n-3)+1 = 41.
            (("spectrum", "--part", "NC", "--n", 8, "--b", 8), 0),
            (("bench", "--n", 8, "--b", 10), 0),
            # Singular requests: refused with exit 2, or a determinant of 0.
            (("inv", "--family", "tn-book", "--n", 6, "--b", 5), 2),
            (("inv", "--family", "kmn", "--m", 2, "--n", 2), 2),
            (("det", "--family", "tn-book", "--n", 6, "--b", 5), 0),
        ]
    raise ValueError(f"unknown workload {workload!r}; pick from {WORKLOADS}")


def build(workload: str, seed: int, tmp: Path) -> list:
    """The op list of one pass, in the seed's order; every pass repeats it."""
    ops = []
    for index, (argv, expect_exit) in enumerate(_argvs(workload)):
        argv = [str(a) for a in argv]
        out = str(tmp / f"op{index}-{argv[0]}.{'csv' if argv[0] in ('gen', 'inv') else 'json'}")
        ops.append(Op(tuple(argv + [_OUT_FLAG[argv[0]], out]), expect_exit, out))
    random.Random(f"{workload}:{seed}").shuffle(ops)
    return ops
