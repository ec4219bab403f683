"""Record a baseline of every workload in ``perfbench/baseline.json``.

    python3 perfbench/baseline.py

Runs each workload of ``BENCHMARK.json`` for its ``run_seconds``, once
untraced and once traced on seed 1, times ``tnb_inverse`` at (8, 500) and
(8, 1000) directly, and writes the machine, the seed, each workload's
reason, its metrics, its output digests and the kernel self time by matrix
order.  The digests are the reference every later run is checked against,
so a run whose outputs differ from them fails and nothing is written; after
an intended output change, delete ``baseline.json`` and record it again.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time

import run

SEED = 1
TNB_INVERSE_SIZES = ((8, 500), (8, 1000))
REPEATS = 5


def tnb_inverse_seconds() -> dict:
    sys.path.insert(0, str(run.ROOT / "src"))
    from cpdist.closed_form import tnb_inverse

    out = {}
    for n, b in TNB_INVERSE_SIZES:
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            tnb_inverse(n, b, verify_product=False)
            times.append(time.perf_counter() - start)
        out[f"n={n},b={b}"] = statistics.median(times)
    return out


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    baseline = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "seed": SEED,
        "run_seconds": seconds,
        "workloads": {},
    }
    for workload in spec["workloads"]:
        name = workload["name"]
        metrics, result, _setups, _threads = run.run_workload(name, SEED, seconds, 0)
        traced_metrics, traced, _setups, _threads = run.run_workload(name, SEED, seconds, 1)
        failures = result["failures"] + traced["failures"]
        if failures or traced["digests"] != result["digests"]:
            print(f"{name}: failed ops or digests differing between the runs, nothing "
                  f"written: {failures}", file=sys.stderr)
            return 1
        baseline["workloads"][name] = {
            "why": workload["why"],
            "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "attempted": result["attempted"],
            "failed": len(result["failures"]),
            "digests": result["digests"],
            "per_layer": {**traced["layers"],
                          "trace.overhead_ratio": traced_metrics["trace.overhead_ratio"][0]},
            "kernel_self_s_by_order": traced["by_order"],
        }
        print(f"{name}: pass_s={metrics['pass_s'][0]:.3f}", file=sys.stderr)
    baseline["tnb_inverse_s"] = tnb_inverse_seconds()
    path = run.HERE / "baseline.json"
    path.write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
