"""Exact checks and digests of each op's output, done outside the timed region.

Expected values come from code written here or from cpdist functions that
are independent of the path under test: breadth-first distances and
Laplacian rows are built here from the family's edge list, book inverses are
compared with ``tnb_xblocks`` expanded row by row here, and inverse outputs
are multiplied back against distance matrices built here.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from collections import deque
from fractions import Fraction
from pathlib import Path

from workloads import SUITE_CELLS

# A wall-time field, in JSON ("wall_time_ms": 12) or on a status line
# (assembly_ms=12), is the only output allowed to differ between runs.
_TIMING_FIELD = re.compile(r'(\b\w+_ms"?(?:=|: ))\d+')
SAMPLES = 64


def digest(op, code, stdout, stderr) -> str:
    """sha256 of everything the op produced, byte for byte except the
    timing fields: exit code, stdout, stderr and the output file."""
    h = hashlib.sha256()
    for part in (op.command, str(code), stdout, stderr):
        h.update(_TIMING_FIELD.sub(r"\1*", part).encode() + b"\0")
    path = Path(op.out) if op.out else None
    if path is None or not path.exists():
        h.update(b"<no file>")
    elif path.suffix == ".json":
        h.update(_TIMING_FIELD.sub(r"\1*", path.read_text(encoding="utf-8")).encode())
    else:
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def _json(op):
    return json.loads(Path(op.out).read_text(encoding="utf-8"))


def _csv_rows(path, wanted=None) -> dict:
    rows = {}
    with open(path, encoding="utf-8") as handle:
        for i, line in enumerate(handle):
            if wanted is None or i in wanted:
                rows[i] = [Fraction(e) for e in line.rstrip("\n").split(",")]
    return rows


def form_row(form, i) -> list:
    """Row i of a ``StructuredBlockForm``, expanded here from its blocks."""
    size, b = form.n - 1, form.b
    border = [row[0] for row in form.border_col.data]
    if i == b * size:
        return border * b + [form.corner]
    k, r = divmod(i, size)
    row = []
    for block in range(b):
        row += (form.diag_block if block == k else form.offdiag_block).data[r]
    return row + [border[r]]


def _adjacency(graph) -> list:
    adj = [[] for _ in range(graph.vertex_count)]
    for u, v in graph.edges:
        adj[u - 1].append(v - 1)
        adj[v - 1].append(u - 1)
    return adj


def _bfs_row(adj, source) -> list:
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _laplacian_row(adj, i) -> list:
    row = [0] * len(adj)
    row[i] = len(adj[i])
    for j in adj[i]:
        row[j] = -1
    return row


def _kmn_distance(m, n) -> list:
    part = [0] * m + [1] * n
    return [[0 if i == j else 2 if part[i] == part[j] else 1 for j in range(m + n)]
            for i in range(m + n)]


class Checker:
    """Checks one op's outputs; returns a list of problems (empty if exact)."""

    def __init__(self, cpdist, seed):
        self.cf = cpdist.closed_form
        self.gr = cpdist.graphs
        self.rng = random.Random(seed)

    def check(self, op, code, stderr) -> list:
        if code != op.expect_exit:
            return [f"exit {code}, expected {op.expect_exit}"]
        if code == 2:
            return [] if stderr.startswith("singular:") else [f"stderr {stderr!r}"]
        return getattr(self, f"_{op.command}")(op)

    def _verify(self, op):
        report, suite = _json(op), op.flag("suite")
        cells = SUITE_CELLS[suite]
        if (report["suite"], report["failed"], report["passed"], len(report["grid"])) != (
                suite, 0, cells, cells):
            return [f"report suite={report['suite']} failed={report['failed']} "
                    f"passed={report['passed']} grid={len(report['grid'])}, expected {cells} cells"]
        return []

    def _det(self, op):
        out = _json(op)
        problems = [] if out["match"] is True else [f"match={out['match']}"]
        if op.flag("family") == "tn-book" and op.int_flag("n") == 6 and out["formula"] != "0":
            problems.append(f"singular book det {out['formula']}")
        return problems

    def _spectrum(self, op):
        out = _json(op)
        return [] if out["match"] is True else [f"match={out['match']}"]

    def _bench(self, op):
        out = _json(op)
        n, b = op.int_flag("n"), op.int_flag("b")
        if out["order"] != b * (n - 1) + 1:
            return [f"order {out['order']}"]
        if out["gauss_ms"] is not None:
            return [] if out["agree"] is True else [f"agree={out['agree']}"]
        return [] if out["agree"] is None and out["gauss_skipped"] else [f"skip {out}"]

    def bench_inverse(self, op):
        """The inverse bench assembled, against ``tnb_xblocks`` row by row.

        ``bench`` reports only timings when Gauss-Jordan is skipped, so the
        assembled matrix is rebuilt here, once per run, after the passes."""
        n, b = op.int_flag("n"), op.int_flag("b")
        x = self.cf.tnb_inverse(n, b, verify_product=False)
        blocks = self.cf.tnb_xblocks(n, b)
        order = blocks.order
        rows = self.rng.sample(range(order - 1), SAMPLES) + [order - 1]
        bad = [i for i in rows if x.data[i] != form_row(blocks, i)]
        return [f"bench inverse rows {bad[:5]} differ from tnb_xblocks"] if bad else []

    def _gen(self, op):
        n, b = op.int_flag("n"), op.int_flag("b")
        kind = op.flag("kind")
        adj = _adjacency(self.gr.build_family(self.gr.TnBook(n, b)))
        order = len(adj)
        wanted = set(self.rng.sample(range(order - 1), SAMPLES)) | {order - 1}
        rows = _csv_rows(op.out, wanted)
        if len(rows) != len(wanted):
            return [f"csv has {len(rows)} of the sampled rows"]
        xblocks = self.cf.tnb_xblocks(n, b) if kind == "rmat" else None
        for i, row in sorted(rows.items()):
            if kind == "dist":
                expected = _bfs_row(adj, i)
            elif kind == "lap":
                expected = _laplacian_row(adj, i)
            else:
                # D^-1 = -L/2 + J/(2b) + R/(2(n-6)b), solved for R.
                s = (n - 6) * b
                expected = [2 * s * x + s * l - (n - 6)
                            for x, l in zip(form_row(xblocks, i), _laplacian_row(adj, i))]
            if row != expected:
                return [f"{kind} row {i} differs"]
        return []

    def _inv(self, op):
        x = _csv_rows(op.out)
        order = len(x)
        problems = []
        if op.flag("family") == "tn-book":
            n, b = op.int_flag("n"), op.int_flag("b")
            expected = self.cf.tnb_xblocks(n, b).materialize()
            if [x[i] for i in range(order)] != expected.data:
                problems.append("inverse differs from tnb_xblocks")
            adj = _adjacency(self.gr.build_family(self.gr.TnBook(n, b)))
            d = [_bfs_row(adj, i) for i in range(order)]
        else:
            d = _kmn_distance(op.int_flag("m"), op.int_flag("n"))
        if len(d) != order:
            return problems + [f"order {order}, expected {len(d)}"]
        for _ in range(SAMPLES):
            i, j = self.rng.randrange(order), self.rng.randrange(order)
            if sum(d[i][k] * x[k][j] for k in range(order)) != (i == j):
                problems.append(f"(D*X)[{i}][{j}] is not the identity entry")
                break
        return problems
