"""The measured passes of one workload, run inside ``child.py``.

Passes over the op list run back to back in this thread.  Each op is a
``cpdist.cli.main(argv)`` call; only that call is timed.  Checks, digests
and the collection between ops run outside the timing, and any exception
or unexpected result of an op, or of its checks, is a failed op: it is
recorded with its argv and the pass goes on.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
import spans

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE.parent / ".perfbench_out"
MIN_PASSES = 3


def reference_digests(workload) -> dict:
    """Op key -> digest recorded in ``baseline.json``, if any."""
    path = HERE / "baseline.json"
    if not path.exists():
        return {}
    baseline = json.loads(path.read_text(encoding="utf-8"))
    return baseline.get("workloads", {}).get(workload, {}).get("digests", {})


class Runner:
    def __init__(self, cpdist, seed, ops, reference):
        self.cli = cpdist.cli
        self.checker = checks.Checker(cpdist, seed)
        self.ops = ops
        self.reference = reference
        self.digests = {}  # op key -> digest of its first run in this process
        self.attempted = 0
        self.failures = []
        self.deferred = []
        self.last = {}  # op index -> its latest time

    def _fail(self, op, problem):
        self.failures.append({"argv": " ".join(op.argv), "problem": problem})

    def run_op(self, index, op, tracer, first_pass):
        """Run and check one op; return (seconds, bytes it wrote)."""
        if op.out:
            Path(op.out).unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        # Start every op on a collected heap, as a fresh cpdist process would.
        gc.collect()
        self.attempted += 1
        error = None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = self.cli.main(list(op.argv))
                else:
                    code = tracer.call(f"cli.{op.command}", op.argv, self.cli.main, list(op.argv))
            except (Exception, SystemExit) as exc:  # one op failing must not end the pass
                code, error = None, exc
            elapsed = time.perf_counter() - start
        if error is not None:
            self._fail(op, f"{type(error).__name__}: {error}")
            traceback.print_exception(error, file=sys.stderr)
            return elapsed, 0
        try:
            problems, size = self._check(op, code, stdout.getvalue(), stderr.getvalue(),
                                         first_pass)
        except Exception as exc:  # a malformed output is a failed op, not a crash
            problems, size = [f"check raised {type(exc).__name__}: {exc}"], 0
        if problems:
            self._fail(op, "; ".join(problems))
        return elapsed, size

    def _check(self, op, code, out, err, first_pass):
        problems = []
        digest = checks.digest(op, code, out, err)
        expected = self.reference.get(op.key, self.digests.setdefault(op.key, digest))
        if digest != expected:
            problems.append(f"digest {digest[:12]} differs from {expected[:12]}")
        if first_pass:
            problems += self.checker.check(op, code, err)
            if op.command == "bench" and code == 0 and not problems:
                if json.loads(Path(op.out).read_text())["gauss_ms"] is None:
                    self.deferred.append(op)
        size = len(out) + len(err)
        if op.out and Path(op.out).exists():
            size += Path(op.out).stat().st_size
        return problems, size

    def run_pass(self, tracer, first_pass, stop_at=None):
        """Run the ops in order.  With ``stop_at``, stop before the first op
        whose last time says it would end after it; the times of the ops
        that ran come back with ``True`` when the pass was whole."""
        times, bytes_out = [], 0
        for index, op in enumerate(self.ops):
            if stop_at is not None and time.perf_counter() + self.last[index] > stop_at:
                return times, bytes_out, False
            elapsed, size = self.run_op(index, op, tracer, first_pass)
            self.last[index] = elapsed
            times.append(elapsed)
            bytes_out += size
        return times, bytes_out, True

    def run_deferred(self):
        for op in self.deferred:
            try:
                problems = self.checker.bench_inverse(op)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                self._fail(op, "; ".join(problems))


def _cells(ops):
    """Cells run and failed, from the verify reports of the last pass; a
    report that cannot be read was already counted as a failed op."""
    cells = failed = 0
    for op in ops:
        if op.command != "verify":
            continue
        try:
            report = json.loads(Path(op.out).read_text())
            cells += len(report["grid"])
            failed += report["failed"]
        except (OSError, ValueError, KeyError, TypeError):
            continue
    return {"suites.cells": cells, "suites.cells_failed": failed}


def _median_dicts(dicts):
    keys = sorted({k for d in dicts for k in d})
    return {k: statistics.median(d.get(k, 0.0) for d in dicts) for k in keys}


def run(cpdist, ops, workload, seed, seconds, trace) -> dict:
    """Run passes for about ``seconds``; with ``trace``, untraced and traced
    passes alternate.  Returns the result ``run.py`` reads."""
    runner = Runner(cpdist, seed, ops, reference_digests(workload))
    tracer = spans.Tracer(cpdist) if trace else None
    passes, layers, by_order = [], [], []
    min_passes = 2 if trace else MIN_PASSES
    start = time.perf_counter()
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        if traced:
            tracer.spans.clear()
            tracer.install()
        # Untraced runs time MIN_PASSES whole passes, so that the median of
        # each op has that many samples, and then may stop between ops, so a
        # run lasts about ``seconds`` whatever the pass length; traced runs
        # stop between passes so each traced pass is whole.
        stop_at = start + seconds if len(passes) >= min_passes and not trace else None
        try:
            times, bytes_out, whole = runner.run_pass(tracer if traced else None,
                                                      first_pass=not passes, stop_at=stop_at)
        finally:
            if traced:
                tracer.uninstall()
        if times:
            passes.append({"traced": traced, "op_s": times})
        if traced:
            counts = {"cli.bytes_out": bytes_out, **_cells(ops)}
            metrics, orders = spans.layer_metrics(spans.self_times(tracer.spans), counts)
            layers.append(metrics)
            by_order.append(orders)
        if not whole or (len(passes) >= min_passes and time.perf_counter() - start >= seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{workload}-{seed}.jsonl")
    runner.run_deferred()
    return {
        "commands": [op.command for op in ops],
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "attempted": runner.attempted,
        "failures": runner.failures,
        "digests": dict(sorted(runner.digests.items())),
        "layers": _median_dicts(layers),
        "by_order": _median_dicts(by_order),
    }
