"""Command-line behavior: formats, exit codes, determinism, fault injection."""

import dataclasses
import gc
import json
import re
from fractions import Fraction

import pytest

import cpdist.cli as cli
import cpdist.closed_form as cf
import cpdist.graphs as gr
from cpdist.cli import FAMILIES, _matrix_csv, main
from cpdist.linalg import RationalMatrix, imat
from cpdist.graphs import (
    K4,
    CompleteBipartite,
    TnBook,
    TnSingle,
    Tree,
    all_pairs_distances,
    build_family,
    laplacian,
)
from cpdist.rng import Lcg, random_tree_edges


def parse_csv(text):
    rows = [
        [Fraction(cell) for cell in line.split(",")]
        for line in text.strip().splitlines()
    ]
    return RationalMatrix.from_rows(rows)


class TestGen:
    def test_butterfly_distance_csv(self, capsys):
        assert main(["gen", "--family", "tn-book", "--n", "3", "--b", "2"]) == 0
        out = capsys.readouterr().out
        assert out == "0,1,2,2,1\n1,0,2,2,1\n2,2,0,1,1\n2,2,1,0,1\n1,1,1,1,0\n"

    def test_byte_identical_reruns(self, capsys):
        argv = ["gen", "--family", "tree", "--n", "9", "--seed", "7", "--kind", "lap"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "k4.csv"
        assert main(["gen", "--family", "k4", "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text() == "0,1,1,1\n1,0,1,1\n1,1,0,1\n1,1,1,0\n"

    def test_rmat_kind(self, capsys):
        assert main(["gen", "--family", "tn", "--n", "4", "--kind", "rmat"]) == 0
        matrix = parse_csv(capsys.readouterr().out)
        assert matrix.data[0][1] == -2  # -(n-2) exchange block

    def test_rmat_needs_fan_family(self, capsys):
        assert main(["gen", "--family", "kmn", "--m", "2", "--n", "3", "--kind", "rmat"]) == 1
        assert "rmat" in capsys.readouterr().err

    def test_fractional_entries_serialize_exactly(self, capsys):
        assert main(["inv", "--family", "tn", "--n", "5"]) == 0
        out = capsys.readouterr().out
        assert "-3/2" in out.splitlines()[0]

    def test_csv_of_shared_and_distinct_entry_objects(self, capsys, monkeypatch):
        # Rows mix one shared object, equal values held by distinct objects,
        # and fractions; every entry is written where it stands.
        half = Fraction(-1, 2)
        rows = [[half, Fraction(2), half, Fraction(2), Fraction(0)],
                [Fraction(0), Fraction(0), Fraction(7, 3), half, half]]
        matrix = RationalMatrix(2, 5, rows)
        monkeypatch.setitem(FAMILIES["k4"].gen, "dist", lambda s: matrix)
        assert main(["gen", "--family", "k4"]) == 0
        assert capsys.readouterr().out == "-1/2,2,-1/2,2,0\n0,0,7/3,-1/2,-1/2\n"

    @pytest.mark.parametrize("family,sizes", [
        ("kmn", {"m": 1, "n": 1}), ("kmn", {"m": 1, "n": 5}), ("kmn", {"m": 2, "n": 2}),
        ("kmn", {"m": 3, "n": 4}), ("kmn", {"m": 7, "n": 2}),
        ("star", {"n": 1}), ("star", {"n": 2}), ("star", {"n": 5}), ("star", {"n": 9}),
    ])
    def test_bipartite_distance_in_closed_form(self, family, sizes, capsys, monkeypatch):
        spec = FAMILY_CASES[family][0](**sizes)
        expected = _matrix_csv(all_pairs_distances(build_family(spec)))

        def no_bfs(graph):
            raise AssertionError("gen ran the BFS oracle")

        monkeypatch.setitem(cli._GRAPH_KINDS, "dist", no_bfs)
        assert main(["gen", "--kind", "dist"] + family_argv(family, sizes)) == 0
        assert capsys.readouterr().out == expected


BOOK_SIZES = [(n, b) for n in (3, 4, 5, 7, 8) for b in (2, 3, 5)]


class TestBookCsv:
    """Book matrices are written from their block form; the bytes must be
    those of the dense matrix the form materializes to."""

    @pytest.mark.parametrize("build", [
        # ids keep the names under which these cases are reported
        pytest.param(cf.tnb_distance, id="MatrixKind.DISTANCE"),
        pytest.param(cf.tnb_laplacian, id="MatrixKind.LAPLACIAN"),
        pytest.param(cf.tnb_rmat, id="MatrixKind.RMAT"),
    ])
    @pytest.mark.parametrize("n,b", BOOK_SIZES)
    def test_structured_kinds(self, build, n, b):
        form = build(n, b)
        assert _matrix_csv(form) == _matrix_csv(form.materialize())

    @pytest.mark.parametrize("n,b", BOOK_SIZES)
    def test_inverse(self, n, b):
        # negative and fractional entries, and at n = 3 no (n-3) blocks
        form = cf.tnb_inverse_form(n, b)
        assert _matrix_csv(form) == _matrix_csv(form.materialize())

    def test_single_page_form(self):
        # b = 1: the off-diagonal block, over 7, appears nowhere
        form = cf.StructuredBlockForm(
            3, 1,
            RationalMatrix.from_rows([[1, Fraction(1, 2)], [3, 4]]),
            RationalMatrix.from_rows([[Fraction(1, 7), 0], [0, 5]]),
            RationalMatrix.from_rows([[5], [6]]),
            Fraction(7),
        )
        assert _matrix_csv(form) == "1,1/2,5\n3,4,6\n5,6,7\n"
        assert _matrix_csv(form) == _matrix_csv(form.materialize())


class TestDet:
    def test_book_example(self, capsys):
        assert main(["det", "--family", "tn-book", "--n", "5", "--b", "2"]) == 0
        assert capsys.readouterr().out == "formula=64, oracle=64, match=true\n"

    def test_json_payload(self, capsys):
        assert main(["det", "--family", "kmn", "--m", "2", "--n", "3", "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"formula": "-16", "oracle": "-16", "match": True}

    def test_singular_cell_still_matches(self, capsys):
        assert main(["det", "--family", "kmn", "--m", "2", "--n", "2"]) == 0
        assert "formula=0" in capsys.readouterr().out

    def test_tree_and_star(self, capsys):
        assert main(["det", "--family", "tree", "--n", "10", "--seed", "3"]) == 0
        assert "match=true" in capsys.readouterr().out
        assert main(["det", "--family", "star", "--n", "4"]) == 0
        assert "formula=32" in capsys.readouterr().out

    def test_k4(self, capsys):
        assert main(["det", "--family", "k4"]) == 0
        assert "formula=-3" in capsys.readouterr().out


class TestInv:
    def test_book_inverse_roundtrip(self, capsys):
        assert main(["inv", "--family", "tn-book", "--n", "5", "--b", "2"]) == 0
        inverse = parse_csv(capsys.readouterr().out)
        d = all_pairs_distances(build_family(TnBook(5, 2)))
        assert d * inverse == imat(9)

    def test_singular_book_refused(self, capsys):
        assert main(["inv", "--family", "tn-book", "--n", "6", "--b", "2"]) == 2
        err = capsys.readouterr().err
        assert "singular" in err

    def test_singular_bipartite_refused(self, capsys):
        assert main(["inv", "--family", "kmn", "--m", "2", "--n", "2"]) == 2
        assert "singular" in capsys.readouterr().err

    def test_failed_book_check_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # One perturbed entry of the inverse's off-diagonal block: the block
        # identities refuse it before any byte is written.
        good = cf._tnb_inverse_blocks(5, 3)
        data = [list(row) for row in good.offdiag_block.data]
        data[1][2] += Fraction(1, 3)
        bad = dataclasses.replace(good, offdiag_block=RationalMatrix(4, 4, data))
        monkeypatch.setattr(cf, "_tnb_inverse_blocks", lambda n, b: bad)
        target = tmp_path / "x.csv"
        argv = ["inv", "--family", "tn-book", "--n", "5", "--b", "3", "--out", str(target)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("verification failed: book-family inverse failed the "
                                "product check at (5, 3)\n")
        assert not target.exists()

    def test_failed_bipartite_check_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # A perturbed distance scalar: the true inverse no longer passes
        # D * X = I on the block scalars.
        monkeypatch.setattr(cf, "_KMN_DISTANCE", (-2, 2, 1, -2, 3))
        target = tmp_path / "x.csv"
        argv = ["inv", "--family", "kmn", "--m", "3", "--n", "4", "--out", str(target)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("verification failed: bipartite inverse failed the "
                                "product check at (3, 4)\n")
        assert not target.exists()


class TestVerify:
    def test_recognizer_suite_passes(self, capsys):
        assert main(["verify", "--suite", "recognizer"]) == 0
        out = capsys.readouterr().out
        assert "failed=0" in out

    def test_json_report_schema(self, capsys):
        assert main(["verify", "--suite", "spectra", "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["suite", "grid", "passed", "failed", "failures", "wall_time_ms"]
        assert payload["failed"] == 0
        assert payload["passed"] == len(payload["grid"])
        assert payload["failures"] == []

    def test_json_deterministic_modulo_walltime(self, capsys):
        argv = ["verify", "--suite", "dets", "--json", "-"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        first.pop("wall_time_ms")
        second.pop("wall_time_ms")
        assert first == second

    def test_json_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert main(["verify", "--suite", "recognizer", "--json", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert payload["suite"] == "recognizer"
        assert "failed=0" in capsys.readouterr().out

    def test_all_suites_pass_end_to_end(self, capsys):
        assert main(["verify", "--suite", "all", "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["suite"] == "all"
        assert payload["failed"] == 0
        checks = {cell["check"] for cell in payload["grid"]}
        # one representative cell family per module invariant
        assert {
            "metric-invariants", "cp-verdict", "tn-blockform", "tnb-blocks",
            "aibj", "schur", "rank-one", "ones-identities",
            "block-triangular-det", "inverse-roundtrip", "charpoly-consistency",
            "tn-det", "kmn-det", "tnb-det", "tree-det",
            "tn-inverse", "kmn-inverse", "tnb-inverse", "tnb-block-identities",
            "tnb-singular", "tree-inverse", "spectrum", "single-fan-spectrum",
        } <= checks

    def test_injected_fault_flips_exit_code(self, capsys, monkeypatch):
        tnb_det = cf.tnb_det
        monkeypatch.setattr(cf, "tnb_det", lambda n, b: tnb_det(n, b) + 2)
        assert main(["verify", "--suite", "all"]) == 3
        out = capsys.readouterr().out
        assert "FAIL" in out and "book det" in out

    def test_exception_in_check_is_a_failed_cell(self, capsys, monkeypatch):
        def broken(n, b):
            raise ArithmeticError(f"injected at ({n}, {b})")

        monkeypatch.setattr(cf, "tnb_det", broken)
        assert main(["verify", "--suite", "dets", "--json", "-"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["failed"] == 32
        assert payload["passed"] == len(payload["grid"]) - 32
        assert [f["params"] for f in payload["failures"]] == [
            {"check": "tnb-det", "n": n, "b": b} for n in range(3, 11) for b in range(2, 6)
        ]
        for failure in payload["failures"]:
            n, b = failure["params"]["n"], failure["params"]["b"]
            assert list(failure) == ["params", "expected", "actual", "location"]
            assert failure["expected"] == "no exception"
            assert failure["actual"] == f"ArithmeticError: injected at ({n}, {b})"
            assert f"'n': {n}, 'b': {b}" in failure["location"]

    def test_triangle_violation_fails_metric_invariants(self, capsys, monkeypatch):
        all_pairs_distances = gr.all_pairs_distances

        def stretched(g):
            # d(1, n) = 2n exceeds d(1, k) + d(k, n) for any third vertex k.
            dist = all_pairs_distances(g)
            n = dist.rows
            data = [row.copy() for row in dist.data]
            if n >= 3:
                data[0][n - 1] = data[n - 1][0] = Fraction(2 * n)
            return RationalMatrix(n, n, data)

        monkeypatch.setattr(gr, "all_pairs_distances", stretched)
        assert main(["verify", "--suite", "recognizer", "--json", "-"]) == 3
        payload = json.loads(capsys.readouterr().out)
        cells = [p for p in payload["grid"] if p["check"] == "metric-invariants"]
        failures = [f for f in payload["failures"] if f["params"]["check"] == "metric-invariants"]
        # K_{1,1} has no third vertex; every other corpus graph fails.
        assert len(failures) == len(cells) - 1
        for failure in failures:
            assert failure["expected"] == "triangle inequality"
            assert failure["actual"] == "violated"
            assert failure["location"].endswith(": triangle inequality")

    def test_matrix_mismatch_names_first_differing_entry(self, capsys, monkeypatch):
        tnb_xblocks = cf.tnb_xblocks

        def perturbed(n, b):
            form = tnb_xblocks(n, b)
            return dataclasses.replace(form, corner=form.corner + 1)

        monkeypatch.setattr(cf, "tnb_xblocks", perturbed)
        assert main(["verify", "--suite", "inverses", "--json", "-"]) == 3
        failures = json.loads(capsys.readouterr().out)["failures"]
        display = [f for f in failures if f["location"] == "book inverse block display (5,2)"]
        assert len(display) == 1
        corner = cf.tnb_inverse(5, 2, verify_product=False)[8, 8]
        assert display[0]["expected"] == f"{corner + 1} at [8][8]"
        assert display[0]["actual"] == f"{corner} at [8][8]; 1 of 81 entries differ"

    def test_matrix_mismatch_report_text_is_fixed(self, capsys, monkeypatch):
        # Two entries of the (7, 3) diagonal block are off by one; the
        # report's text is pinned byte for byte, as the Fraction-entry
        # matrices of earlier versions wrote it.
        tnb_xblocks = cf.tnb_xblocks

        def perturbed(n, b):
            form = tnb_xblocks(n, b)
            if (n, b) != (7, 3):
                return form
            data = [list(row) for row in form.diag_block.data]
            data[2][3] += 1
            data[4][1] -= 1
            return dataclasses.replace(form, diag_block=RationalMatrix(6, 6, data))

        monkeypatch.setattr(cf, "tnb_xblocks", perturbed)
        assert main(["verify", "--suite", "inverses", "--json", "-"]) == 3
        failures = json.loads(capsys.readouterr().out)["failures"]
        assert [(f["params"], f["expected"], f["actual"], f["location"]) for f in failures] == [
            ({"check": "tnb-inverse", "n": 7, "b": 3}, "4/3 at [2][3]",
             "1/3 at [2][3]; 6 of 361 entries differ", "book inverse block display (7,3)"),
            ({"check": "tnb-block-identities", "n": 7, "b": 3}, "0 at [0][1]",
             "-1 at [0][1]; 10 of 36 entries differ", "diagonal block identity (7,3)"),
        ]


class TestSpectrum:
    def test_match(self, capsys):
        assert main(["spectrum", "--part", "NC", "--n", "5", "--b", "2"]) == 0
        out = capsys.readouterr().out
        assert "x^2 - 2*x - 16" in out
        assert "match=true" in out

    def test_json(self, capsys):
        assert main(["spectrum", "--part", "B", "--n", "5", "--b", "2", "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["match"] is True
        assert payload["claimed_char_poly"] == payload["computed_char_poly"]

    @pytest.mark.parametrize("sizes,flag", [(["--b", "2"], "n"), (["--n", "5"], "b")])
    def test_missing_size_flag(self, sizes, flag, capsys):
        assert main(["spectrum", "--part", "NC"] + sizes) == 1
        assert capsys.readouterr().err == f"usage error: --{flag} is required\n"

    def test_empty_part_is_usage_error(self, capsys):
        assert main(["spectrum", "--part", "N", "--n", "3", "--b", "2"]) == 1
        assert "n >= 4" in capsys.readouterr().err


class TestBench:
    def test_small_instance_reports_both_paths(self, capsys):
        assert main(["bench", "--n", "5", "--b", "2", "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["order"] == 9
        assert payload["assembly_ms"] >= 0
        assert payload["gauss_ms"] is not None
        assert payload["agree"] is True

    def test_large_instance_skips_generic(self, capsys):
        assert main(["bench", "--n", "8", "--b", "50", "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["order"] == 351
        assert payload["gauss_ms"] is None
        assert "skipped" in payload["gauss_skipped"]

    def test_singular_bench_refused(self, capsys):
        assert main(["bench", "--n", "6", "--b", "2"]) == 2
        assert "singular" in capsys.readouterr().err

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("sizes,code", [
        (["--n", "5", "--b", "2"], 0),  # with the generic inverse comparison
        (["--n", "8", "--b", "50"], 0),  # above the cap
        (["--n", "6", "--b", "2"], 2),  # singular
    ])
    def test_collector_state_is_restored(self, enabled, sizes, code, capsys):
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(["bench", *sizes, "--json", "-"]) == code
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_collector_paused_during_assembly(self, capsys, monkeypatch):
        tnb_inverse = cf.tnb_inverse
        states = []

        def recording(n, b, **kwargs):
            states.append(gc.isenabled())
            return tnb_inverse(n, b, **kwargs)

        monkeypatch.setattr(cf, "tnb_inverse", recording)
        assert gc.isenabled()
        assert main(["bench", "--n", "5", "--b", "2", "--json", "-"]) == 0
        assert states == [False]
        assert gc.isenabled()
        assert json.loads(capsys.readouterr().out)["agree"] is True


class TestUsageErrors:
    def test_missing_family(self, capsys):
        assert main(["gen"]) == 1
        assert "family" in capsys.readouterr().err

    def test_unknown_family(self, capsys):
        assert main(["gen", "--family", "hypercube"]) == 1

    def test_missing_n(self, capsys):
        assert main(["det", "--family", "tn"]) == 1
        assert "--n" in capsys.readouterr().err

    def test_below_minimum(self, capsys):
        assert main(["det", "--family", "tn", "--n", "2"]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unwritable_output_path(self, tmp_path, capsys):
        missing = tmp_path / "missing" / "out"
        for argv in (["det", "--family", "k4", "--json", str(missing)],
                     ["gen", "--family", "k4", "--out", str(missing)]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"usage error: cannot write {missing}: ")
            assert not missing.exists()

    @pytest.mark.parametrize("command", ["spectrum", "bench"])
    @pytest.mark.parametrize("option", [["--family", "tn-book"], ["--m", "3"], ["--seed", "7"]])
    def test_family_options_only_on_family_commands(self, command, option, capsys):
        argv = [command, "--n", "5", "--b", "2"] + (["--part", "NC"] if command == "spectrum" else [])
        assert main(argv + option) == 1
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


# Calls over several subcommands, usage errors (exit 1) and a singular
# request (exit 2) among them; the two tree calls omit --seed and rely on its
# default of 42, one after a call that set --seed 7.
PARSER_REUSE_CALLS = [
    ["gen", "--family", "tree", "--n", "9", "--kind", "lap"],
    ["det", "--family", "tn-book", "--n", "5", "--b", "2", "--json", "-"],
    ["det", "--family", "nope"],
    ["inv", "--family", "kmn", "--m", "2", "--n", "2"],
    ["spectrum", "--part", "NC", "--n", "5", "--b", "2"],
    ["gen", "--family", "tree", "--n", "9", "--seed", "7", "--kind", "lap"],
    ["spectrum", "--part", "NC", "--b", "2"],
    ["inv", "--family", "tn", "--n", "5"],
    ["gen", "--family", "tree", "--n", "9", "--kind", "lap"],
]


def test_reused_parser_gives_each_call_its_first_run_output(capsys):
    def run(argv):
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    first = []
    for argv in PARSER_REUSE_CALLS:
        cli._build_parser.cache_clear()
        first.append(run(argv))
    assert [code for code, _, _ in first] == [0, 0, 1, 2, 0, 0, 1, 0, 0]
    cli._build_parser.cache_clear()
    assert [run(argv) for argv in PARSER_REUSE_CALLS] == first
    # One parser served the whole sequence.
    assert cli._build_parser.cache_info().misses == 1
    # The --seed default gives the seed-42 tree, not the seed-7 one before it.
    assert first[-1] == first[0] != first[-4]
    assert first[-1] == run(["gen", "--family", "tree", "--n", "9", "--seed", "42", "--kind", "lap"])


# Per family: its graph spec from the size flags, small sizes to run and the
# minimum of each size flag.  (2, 2) and n = 6 are the singular sizes.
FAMILY_CASES = {
    "tn": (TnSingle, [{"n": 3}, {"n": 5}], {"n": 3}),
    "tn-book": (TnBook, [{"n": 3, "b": 2}, {"n": 5, "b": 3}, {"n": 6, "b": 2}], {"n": 3, "b": 2}),
    "kmn": (
        CompleteBipartite,
        [{"m": 1, "n": 1}, {"m": 1, "n": 3}, {"m": 3, "n": 1}, {"m": 2, "n": 3}, {"m": 2, "n": 2}],
        {"m": 1, "n": 1},
    ),
    "star": (lambda n: CompleteBipartite(n, 1), [{"n": 1}, {"n": 4}], {"n": 1}),
    "tree": (
        lambda n, seed: Tree(random_tree_edges(n, Lcg(seed))),
        [{"n": 2, "seed": 42}, {"n": 9, "seed": 7}],
        {"n": 2},
    ),
    "k4": (K4, [{}], {}),
}
SINGULAR = [
    ("kmn", {"m": 2, "n": 2}, "singular: singular at m=n=2\n"),
    ("tn-book", {"n": 6, "b": 2}, "singular: distance matrix singular (n=6, b>=2)\n"),
]


def family_argv(family, sizes):
    return ["--family", family] + [arg for k, v in sizes.items() for arg in (f"--{k}", str(v))]


def test_family_cases_cover_the_table():
    assert set(FAMILY_CASES) == set(FAMILIES)


def test_family_order_in_usage_error(capsys):
    # argparse offers the --family choices in table order.
    assert list(FAMILIES) == ["tn", "tn-book", "kmn", "star", "tree", "k4"]
    assert main(["det", "--family", "nope"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: argument --family: invalid choice: ")
    assert re.findall(r"[\w-]+", err.split("choose from", 1)[1]) == list(FAMILIES)


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("command", [
    ["gen", "--kind", "dist"], ["gen", "--kind", "lap"], ["det", "--json", "-"], ["inv"],
])
def test_star_is_kmn_with_one_hub(command, n, capsys):
    results = []
    star = ["--family", "star", "--n", str(n)]
    kmn = ["--family", "kmn", "--m", str(n), "--n", "1"]
    for family in (star, kmn):
        code = main(command + family)
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    assert results[0] == results[1]
    assert results[0][0] == 0 and results[0][1]


@pytest.mark.parametrize("family,sizes", [
    (family, sizes) for family, (_, runs, _) in FAMILY_CASES.items() for sizes in runs
])
def test_family_through_cli(family, sizes, capsys):
    graph = build_family(FAMILY_CASES[family][0](**sizes))
    dist = all_pairs_distances(graph)
    argv = family_argv(family, sizes)
    assert main(["det"] + argv) == 0
    assert capsys.readouterr().out.endswith(", match=true\n")
    code = main(["inv"] + argv)
    captured = capsys.readouterr()
    singular = next((err for f, s, err in SINGULAR if (f, s) == (family, sizes)), None)
    if singular is not None:
        assert code == 2
        assert captured.err == singular
    else:
        assert code == 0
        assert dist * parse_csv(captured.out) == imat(graph.vertex_count)
    for kind, expected in (("dist", dist), ("lap", laplacian(graph))):
        assert main(["gen", "--kind", kind] + argv) == 0
        assert parse_csv(capsys.readouterr().out) == expected


@pytest.mark.parametrize("family,sizes", [
    ("kmn", {"m": 3, "n": 2}), ("star", {"n": 4}), ("tn", {"n": 5}),
])
def test_det_builds_no_inverse(family, sizes, capsys, monkeypatch):
    def no_inverse(*args):
        raise AssertionError("det built an inverse")

    monkeypatch.setattr(cf, "kmn_inverse", no_inverse)
    monkeypatch.setattr(cf, "tn_inverse", no_inverse)
    assert main(["det"] + family_argv(family, sizes)) == 0
    assert capsys.readouterr().out.endswith(", match=true\n")


@pytest.mark.parametrize("family,flag", [
    (family, flag) for family, (_, _, minimums) in FAMILY_CASES.items() for flag in minimums
])
def test_size_flag_below_minimum_or_missing(family, flag, capsys):
    _, runs, minimums = FAMILY_CASES[family]
    below = dict(runs[0], **{flag: minimums[flag] - 1})
    missing = {k: v for k, v in runs[0].items() if k != flag}
    for command in ("det", "inv", "gen"):
        assert main([command] + family_argv(family, below)) == 1
        assert capsys.readouterr().err == f"usage error: --{flag} must be at least {minimums[flag]}\n"
        assert main([command] + family_argv(family, missing)) == 1
        assert capsys.readouterr().err == f"usage error: --{flag} is required for this family\n"
