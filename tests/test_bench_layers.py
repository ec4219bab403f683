"""The pair driver and row summary of scripts/bench_layers.py."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_layers.py"
_SPEC = importlib.util.spec_from_file_location("bench_layers", _PATH)
bl = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bl)

SIDES = (("before", Path("/b")), ("after", Path("/a")))
REVS = {"before": "parent", "after": "after"}


def test_rounds_alternate_which_side_goes_first():
    calls = []

    def measure(tree, i):
        calls.append((tree, i))
        return {"ms": f"{tree} {i}"}

    runs = bl.pairs(SIDES, measure, rounds=4)
    b, a = Path("/b"), Path("/a")
    assert calls == [(b, 0), (a, 0), (a, 1), (b, 1), (b, 2), (a, 2), (a, 3), (b, 3)]
    assert runs == {"before": [{"ms": f"/b {i}"} for i in range(4)],
                    "after": [{"ms": f"/a {i}"} for i in range(4)]}


def test_summary_gives_each_side_its_median_and_quartiles():
    runs = {"before": [{"ms": v, "peak_mb": 2.0} for v in (4, 1, 3, 2, 10)],
            "after": [{"ms": v, "peak_mb": 1.0} for v in (8, 6, 7, 5, 9)]}
    case = bl.Case("L0", "det_exact", {"order": 3}, measure=None)
    rows = bl.summary(case, REVS, runs)
    assert [(r["metric"], r["rev"]) for r in rows] == [
        ("ms", "parent"), ("ms", "after"), ("peak_mb", "parent"), ("peak_mb", "after")]
    before, after = rows[0], rows[1]
    assert before["values"] == [4, 1, 3, 2, 10]
    # Quartiles by linear interpolation at (len - 1) / 4 and 3 (len - 1) / 4
    # past the smallest value.
    assert (before["q1"], before["median"], before["q3"]) == (2, 3, 4)
    assert (after["q1"], after["median"], after["q3"]) == (6, 7, 8)
    assert "pairs_after_lower" not in before
    assert all(r["layer"] == "L0" and r["name"] == "det_exact" and r["params"] == {"order": 3}
               for r in rows)


def test_pairs_after_lower_counts_neither_side_on_a_tie():
    runs = {"before": [{"ms": v} for v in (5, 5, 5, 5, 5)],
            "after": [{"ms": v} for v in (4, 5, 6, 4, 5.00001)]}
    rows = bl.summary(bl.Case("L0", "rank", {}, measure=None), REVS, runs)
    # 5.00001 reads 5 to the five digits written, a tie like the second round.
    assert rows[1]["values"] == [4, 5, 6, 4, 5]
    assert rows[1]["pairs_after_lower"] == 2


def test_refuses_checkouts_whose_paths_differ_in_length(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bl, "cases", lambda: [])
    monkeypatch.setattr(bl, "ROOT", tmp_path)
    short, longer = tmp_path / "a", tmp_path / "bb"
    with pytest.raises(SystemExit) as exit_info:
        bl.main(["--before", str(short), "--after", str(longer), "--pr", "t"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert str(short) in err and str(longer) in err
    assert not (tmp_path / "BENCH_t.json").exists()
    assert bl.main(["--before", str(short), "--after", str(tmp_path / "c"), "--pr", "t"]) == 0
    assert (tmp_path / "BENCH_t.json").read_text() == "[\n\n]\n"


def test_failing_child_stops_the_run_with_its_stderr(tmp_path):
    with pytest.raises(SystemExit) as exit_info:
        # The message is split in the code, so only the child's stderr joins it.
        bl._run(tmp_path, ["-c", "import sys; sys.stderr.write('boom' + ' in child'); sys.exit(3)"])
    assert "exited 3" in str(exit_info.value.code)
    assert "boom in child" in str(exit_info.value.code)


def test_rows_of_fewer_rounds_leave_the_pair_count_out():
    # The Tier-1 row's two rounds, from BENCH_19.json: after lower in both.
    runs = {"before": [{"wall_ms": 36439}, {"wall_ms": 32883}],
            "after": [{"wall_ms": 28600}, {"wall_ms": 28700}]}
    case = bl.Case("L3", "tier1", {}, measure=None, rounds=bl.TIER1_PAIRS)
    before, after = bl.summary(case, REVS, runs)
    assert after["pairs_after_lower"] is None
    for row in (before, after):
        assert min(row["values"]) <= row["q1"] <= row["median"] <= row["q3"] <= max(row["values"])
    assert (before["q1"], before["q3"]) == (33772, 35550)


def test_after_row_carries_each_rounds_ratio_and_their_median():
    # Two machine speeds across the rounds: the before side alone spans
    # 1.2 to 2.05, and the after side is 2-4% higher in every round.
    before = [1.2, 1.25, 2.05, 1.22, 2.0, 1.21, 1.19, 2.02, 1.23, 1.2]
    after = [b * f for b, f in zip(before, (1.02, 1.03, 1.04, 1.02, 1.03, 1.02, 1.04, 1.03, 1.02, 1.03))]
    runs = {"before": [{"ms": v} for v in before], "after": [{"ms": v} for v in after]}
    rows = bl.summary(bl.Case("L0", "det_exact", {"order": 30}, measure=None), REVS, runs)
    assert "ratios" not in rows[0] and "ratio_median" not in rows[0]
    after_row = rows[1]
    # The existing rule reads no gain and no loss here ...
    assert after_row["pairs_after_lower"] == 0
    assert after_row["median"] - rows[0]["median"] < rows[0]["q3"] - rows[0]["q1"]
    # ... while every round's ratio shows the steady 2-4%.
    assert after_row["ratios"] == [bl._digits(a / b) for a, b in zip(after_row["values"], before)]
    assert all(1.019 < r < 1.041 for r in after_row["ratios"])
    assert after_row["ratio_median"] == 1.03


def test_ratios_of_a_zero_before_value_and_of_fewer_rounds():
    runs = {"before": [{"n": 0}, {"n": 4}, {"n": 5}], "after": [{"n": 1}, {"n": 2}, {"n": 10}]}
    after = bl.summary(bl.Case("L3", "tier1", {}, measure=None, rounds=3), REVS, runs)[1]
    assert after["pairs_after_lower"] is None
    assert after["ratios"] == [None, 0.5, 2.0]
    assert after["ratio_median"] == 1.25


def test_graph_rows_run_the_bfs_and_the_recognizer_in_a_checkout():
    rows = [case for case in bl.l1_cases() if case[0] in ("all_pairs_distances", "is_cp_graph")]
    assert [(name, params) for name, params, *_ in rows] == [
        ("all_pairs_distances", {"order": 200, "graph": "tree n=200 seed=42"}),
        ("all_pairs_distances", {"order": 141, "graph": "tn-book n=8 b=20"}),
        ("is_cp_graph", {"graphs": "suites._cp_corpus(42)"}),
        ("is_cp_graph", {"order": 200, "graph": "tree n=200 seed=42"})]
    for case in rows:
        row = bl._kernel("L1", *case)
        assert row.params["per_process"] == f"median of {bl.GENERAL_CALLS} calls"
        assert row.measure(bl.ROOT, 0)["ms"] > 0
