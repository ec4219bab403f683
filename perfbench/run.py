"""Outside-in benchmark of the cpdist command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload (``workloads.py``) is a closed loop from one client: a fixed
list of ``cpdist.cli.main(argv)`` calls run back to back in one fresh
interpreter with no extra threads, repeated in passes for about S seconds.
``pass_s`` sums each op's median time over the passes.  Every output is
checked exactly and digested (``checks.py``) against the digests recorded
in ``baseline.json``.

With ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json`` are
reported; with ``--trace 1`` untraced and traced passes alternate and the
per-layer metrics come from spans around every public function of each
cpdist module (``spans.py``).  Lines before the last one list every metric
with its unit, including the per-command times and the failed-op ratio; the
last line is one JSON object with the metrics ``BENCHMARK.json`` declares.

cpdist is imported from ``src/`` next to this directory; outputs go to a
temporary directory under ``.perfbench_tmp/`` that is removed afterwards, and
the span dumps of traced runs stay in ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Each setup sample is one fresh interpreter importing cpdist and building
# the op list; the workload's own start-up is one more sample.
SETUP_SAMPLES = 9
DEADLINE_S = 170


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child(argv, env, timeout):
    """Run child.py; return (seconds from spawn to ready, result or None)."""
    start = _monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), *argv], stdout=subprocess.PIPE,
                          env=env, timeout=timeout, cwd=ROOT, text=True, check=False)
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or not lines or "ready" not in lines[0]:
        raise RuntimeError(f"child exited {proc.returncode}")
    return lines[0]["ready"] - start, (lines[1] if len(lines) > 1 else None)


def op_medians(passes):
    """Each op's median time over the passes that reached it; their sum is
    the pass time reported, so one disturbed op in one pass does not move it."""
    if not passes:
        return []
    count = len(passes[0]["op_s"])
    return [statistics.median(p["op_s"][i] for p in passes if i < len(p["op_s"]))
            for i in range(count)]


def run_workload(workload, seed, seconds, trace, deadline=None):
    """Set up and run one workload in fresh interpreters.

    Returns (metrics as name -> (value, unit), the child's result, the setup
    samples, the CPDIST_THREADS value removed from the environment or None).
    Raises RuntimeError when a child fails and TimeoutExpired past the
    deadline."""
    deadline = deadline or _monotonic() + DEADLINE_S
    env = dict(os.environ)
    threads = env.pop("CPDIST_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--tmp", str(tmp)]
    try:
        setups = [_child(argv + ["--setup-only"], env, 60)[0] for _ in range(SETUP_SAMPLES)]
        ready, result = _child(argv, env, deadline - _monotonic())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    setups.append(ready)

    commands = result["commands"]
    plain = op_medians([p for p in result["passes"] if not p["traced"]])
    attempted, failed = result["attempted"], len(result["failures"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (sum(plain), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ops_failed_ratio": (failed / attempted, "ratio"),
    }
    for command in dict.fromkeys(commands):
        metrics[f"{command}_s"] = (sum(t for c, t in zip(commands, plain) if c == command), "s")
    traced = op_medians([p for p in result["passes"] if p["traced"]])
    if traced:
        metrics["trace.overhead_ratio"] = (sum(traced) / sum(plain) - 1, "ratio")
    return metrics, result, setups, threads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = _monotonic() + DEADLINE_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "cpdist" / "__init__.py").is_file():
        print(f"no cpdist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        metrics, result, setups, threads = run_workload(
            args.workload, args.seed, args.seconds, args.trace, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1

    passes = result["passes"]
    print(f"workload={args.workload} seed={args.seed} passes={len(passes)} "
          f"(traced {sum(p['traced'] for p in passes)}) setup_samples={len(setups)} "
          f"CPDIST_THREADS={'unset' if threads is None else f'removed (was {threads!r})'}")
    for failure in result["failures"]:
        print(f"FAILED {failure['argv']}: {failure['problem']}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:24} {value:.6g} {unit}")
    print(f"{'ops':24} {result['attempted']} attempted, {len(result['failures'])} failed")
    for i, p in enumerate(passes):
        print(f"pass {i} {'traced' if p['traced'] else 'plain '} {sum(p['op_s']):8.3f} s: "
              + " ".join(f"{t:.3f}" for t in p["op_s"]))
    for name, value in result["layers"].items():
        print(f"{name:48} {value:.6g}")
    for name, value in result["by_order"].items():
        print(f"kernel self_s {name:32} {value:.6g} s")
    for key, digest in result["digests"].items():
        print(f"digest {digest[:16]} {key}")

    if args.trace:
        layers = {**result["layers"], "trace.overhead_ratio": metrics["trace.overhead_ratio"][0]}
        report = {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
                  for m in spec["per_layer"]}
    else:
        report = {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                  for m in spec["end_to_end"]}
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
