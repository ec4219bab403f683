"""One workload in one fresh interpreter; started by ``run.py``.

Imports cpdist, builds the op list and prints a ``{"ready": t}`` line (t on
CLOCK_MONOTONIC, shared with the parent), so set-up time covers only that.
The benchmark's own measuring code (``measure.py``) is imported after the
line; it runs the passes and prints one result line.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import cpdist
    import cpdist.cli

    source = Path(cpdist.__file__).resolve().parent
    if source != ROOT / "src" / "cpdist":
        print(f"cpdist imported from {source}, not from this checkout", file=sys.stderr)
        return 2
    ops = workloads.build(args.workload, args.seed, args.tmp)
    print(json.dumps({"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}), flush=True)
    if args.setup_only:
        return 0

    import measure

    result = measure.run(cpdist, ops, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
